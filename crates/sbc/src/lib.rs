//! # sbc — streaming balanced clustering, one front door
//!
//! Facade over the workspace reproducing **"Streaming Balanced
//! Clustering"** (Esfandiari, Mirrokni, Zhong; SPAA 2023 /
//! arXiv:1910.00788). Downstream code imports this one crate and gets:
//!
//! * **one import surface** — [`prelude`] carries the handful of types
//!   almost every program needs; the full per-subsystem APIs stay
//!   reachable through the module re-exports ([`geometry`], [`core`],
//!   [`streaming`], [`distributed`], [`clustering`], [`flow`],
//!   [`hashing`], [`obs`]);
//! * **fluent, validating builders** — [`CoresetParams::builder`] and
//!   [`StreamParams::builder`] are the only way to construct parameters
//!   and return `Result` at `build()` instead of panicking
//!   mid-construction;
//! * **a single error type** — [`SbcError`] absorbs every layer's
//!   failure enum (`ParamsError`, `FailReason`, `StoringFail`,
//!   `CheckpointError`), so application code can use `?` throughout and
//!   still match on the precise cause when it wants to. Hard run-time
//!   failures are also recorded in the flight recorder
//!   ([`sbc_obs::trace`]), so a crash dump shows the events leading up
//!   to the error.
//!
//! ## Quickstart
//!
//! ```
//! use sbc::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! fn main() -> Result<(), SbcError> {
//!     let gp = GridParams::from_log_delta(7, 2);
//!     let points = sbc::geometry::dataset::gaussian_mixture(gp, 4000, 3, 0.05, 7);
//!
//!     // Offline: strong coreset for capacitated 3-means.
//!     let params = CoresetParams::builder(3, gp).r(2.0).eps(0.2).eta(0.2).build()?;
//!     let mut rng = StdRng::seed_from_u64(42);
//!     let coreset = build_coreset(&points, &params, &mut rng)?;
//!     assert!(coreset.len() < points.len());
//!
//!     // Streaming: same guarantee, one pass, insertions and deletions.
//!     let sp = StreamParams::builder().build()?;
//!     let mut builder = StreamCoresetBuilder::new(params, sp, &mut rng);
//!     builder.insert_batch(&points);
//!     let streamed = builder.finish()?;
//!     assert!(streamed.len() > 0);
//!     Ok(())
//! }
//! ```
//!
//! ## Checkpoint / restore
//!
//! Long streaming runs survive interruption: [`StreamCoresetBuilder::checkpoint`]
//! serializes the full builder state to a versioned byte format and
//! [`StreamCoresetBuilder::restore`] resumes it in a fresh process,
//! bit-identically. See `DESIGN.md` §7 and the `streaming_dynamic`
//! example.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod api;
mod sharded;

pub use sbc_clustering as clustering;
pub use sbc_core as core;
pub use sbc_distributed as distributed;
pub use sbc_flow as flow;
pub use sbc_geometry as geometry;
pub use sbc_hash as hashing;
pub use sbc_obs as obs;
pub use sbc_streaming as streaming;

pub use api::{ApiError, ApiRequest, ApiResponse, TenantSpec};
pub use sbc_clustering::{capacitated_cost, capacitated_lloyd, CapacitatedSolution, CostReport};
pub use sbc_core::{
    build_coreset, ConstantsProfile, Coreset, CoresetEntry, CoresetParams, CoresetParamsBuilder,
    FailReason, ParamsError,
};
pub use sbc_distributed::{CommStats, DistributedCoreset};
pub use sbc_geometry::{GridHierarchy, GridParams, Point, WeightedPoint};
pub use sbc_obs::fault::{FaultPlan, StoreFaultKind};
pub use sbc_streaming::{
    CheckpointError, EpsSchedule, MergeError, ShardedSpaceReport, Snapshot, SpaceReport,
    StoringFail, StreamCoresetBuilder, StreamOp, StreamParams, StreamParamsBuilder,
};
pub use sharded::ShardedIngest;

/// Convenience prelude: the types nearly every program touches.
pub mod prelude {
    pub use crate::api::{ApiRequest, ApiResponse, TenantSpec};
    pub use crate::SbcError;
    pub use crate::ShardedIngest;
    pub use sbc_clustering::{capacitated_cost, capacitated_lloyd};
    pub use sbc_core::{build_coreset, Coreset, CoresetParams};
    pub use sbc_distributed::DistributedCoreset;
    pub use sbc_geometry::{GridParams, Point, WeightedPoint};
    pub use sbc_obs::fault::FaultPlan;
    pub use sbc_streaming::{Snapshot, StreamCoresetBuilder, StreamOp, StreamParams};
}

/// Unified error for the whole pipeline.
///
/// Every subsystem keeps its own precise error enum; this type absorbs
/// them all via `From`, so application code writes `?` against one
/// error and still gets the original cause back through [`source`] or
/// by matching the variant.
///
/// [`source`]: std::error::Error::source
#[derive(Clone, Debug, PartialEq)]
pub enum SbcError {
    /// Parameter validation failed ([`CoresetParams::builder`] /
    /// [`StreamParams::builder`]).
    Params(ParamsError),
    /// Coreset construction failed — offline, streaming `finish`, or
    /// the distributed protocol.
    Build(FailReason),
    /// A `Storing` summary structure failed (overflow / decode).
    Store(StoringFail),
    /// A checkpoint could not be written, decoded, or restored.
    Checkpoint(CheckpointError),
    /// Shard builders could not be merged ([`ShardedIngest`] /
    /// [`StreamCoresetBuilder::merge`]).
    Merge(MergeError),
    /// The `sbc-serve` protocol failed (framing, negotiation, tenancy,
    /// admission control) — see [`api::ApiError`].
    Api(ApiError),
}

impl SbcError {
    /// The stable numeric code for this error, following the workspace
    /// registry: core variants own 101–105, [`api::ApiError`] owns the
    /// 200 range, `sbc_distributed::MergeFailure` the 300 range. These
    /// are a wire contract ([`api::ApiResponse::Error`]) — append-only,
    /// never renumbered.
    pub fn code(&self) -> u16 {
        match self {
            SbcError::Params(_) => 101,
            SbcError::Build(_) => 102,
            SbcError::Store(_) => 103,
            SbcError::Checkpoint(_) => 104,
            SbcError::Merge(_) => 105,
            SbcError::Api(e) => e.code(),
        }
    }
}

impl std::fmt::Display for SbcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SbcError::Params(e) => write!(f, "invalid parameters: {e}"),
            SbcError::Build(e) => write!(f, "coreset construction failed: {e}"),
            SbcError::Store(e) => write!(f, "summary structure failed: {e}"),
            SbcError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            SbcError::Merge(e) => write!(f, "merge failed: {e}"),
            SbcError::Api(e) => write!(f, "service protocol error: {e}"),
        }
    }
}

impl std::error::Error for SbcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SbcError::Params(e) => Some(e),
            SbcError::Build(e) => Some(e),
            SbcError::Store(e) => Some(e),
            SbcError::Checkpoint(e) => Some(e),
            SbcError::Merge(e) => Some(e),
            SbcError::Api(e) => Some(e),
        }
    }
}

impl From<ParamsError> for SbcError {
    fn from(e: ParamsError) -> Self {
        // Validation happens before any run starts; an instant is enough.
        sbc_obs::trace::instant("error.params", sbc_obs::trace::CausalIds::NONE, 0);
        SbcError::Params(e)
    }
}
impl From<FailReason> for SbcError {
    fn from(e: FailReason) -> Self {
        record_hard_error("error.build");
        SbcError::Build(e)
    }
}
impl From<StoringFail> for SbcError {
    fn from(e: StoringFail) -> Self {
        record_hard_error("error.store");
        SbcError::Store(e)
    }
}
impl From<CheckpointError> for SbcError {
    fn from(e: CheckpointError) -> Self {
        record_hard_error("error.checkpoint");
        SbcError::Checkpoint(e)
    }
}
impl From<MergeError> for SbcError {
    fn from(e: MergeError) -> Self {
        record_hard_error("error.merge");
        SbcError::Merge(e)
    }
}
impl From<ApiError> for SbcError {
    fn from(e: ApiError) -> Self {
        record_hard_error("error.api");
        SbcError::Api(e)
    }
}

/// Records a hard run-time failure as a flight-recorder `Fault` event —
/// which also triggers a crash dump of the last-N events when a crash
/// directory is configured ([`sbc_obs::trace::set_crash_dir`]).
fn record_hard_error(label: &'static str) {
    use sbc_obs::trace::{CausalIds, TraceKind};
    sbc_obs::trace::event(TraceKind::Fault, label, CausalIds::NONE, 0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn question_mark_composes_across_layers() {
        fn offline() -> Result<CoresetParams, SbcError> {
            Ok(CoresetParams::builder(3, GridParams::from_log_delta(6, 2)).build()?)
        }
        fn stream() -> Result<StreamParams, SbcError> {
            Ok(StreamParams::builder().build()?)
        }
        assert!(offline().is_ok());
        assert!(stream().is_ok());
    }

    #[test]
    fn params_errors_map_and_display() {
        let err = CoresetParams::builder(0, GridParams::from_log_delta(6, 2))
            .build()
            .map_err(SbcError::from)
            .unwrap_err();
        assert!(matches!(err, SbcError::Params(_)));
        let msg = err.to_string();
        assert!(msg.contains("invalid parameters"), "{msg}");
        use std::error::Error;
        assert!(err.source().is_some());
    }

    #[test]
    fn error_codes_are_stable_across_the_registry() {
        // 101–105: core variants. The API (200s) and distributed merge
        // (300s) ranges are pinned in their own crates' tests; here we
        // only check the fold-in delegates rather than collides.
        let params_err = CoresetParams::builder(0, GridParams::from_log_delta(6, 2))
            .build()
            .map_err(SbcError::from)
            .unwrap_err();
        assert_eq!(params_err.code(), 101);
        assert_eq!(SbcError::Checkpoint(CheckpointError::BadMagic).code(), 104);
        let api_err = SbcError::from(ApiError::UnknownTenant { tenant: 3 });
        assert_eq!(api_err.code(), 210);
        assert!(matches!(api_err, SbcError::Api(_)));
    }

    #[test]
    fn checkpoint_errors_map() {
        let err: SbcError = CheckpointError::BadMagic.into();
        assert_eq!(err, SbcError::Checkpoint(CheckpointError::BadMagic));
        assert!(err.to_string().contains("checkpoint"));
    }

    #[test]
    fn prelude_supports_the_full_pipeline() {
        use crate::prelude::*;
        use rand::{rngs::StdRng, SeedableRng};

        let gp = GridParams::from_log_delta(6, 2);
        let points = sbc_geometry::dataset::gaussian_mixture(gp, 600, 2, 0.05, 3);
        let params = CoresetParams::builder(2, gp).build().unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let coreset = build_coreset(&points, &params, &mut rng).expect("offline coreset");
        assert!(!coreset.is_empty());

        let sp = StreamParams::builder().build().unwrap();
        let mut b = StreamCoresetBuilder::new(params, sp, &mut rng);
        b.insert_batch(&points);
        let snap = b.checkpoint().expect("checkpointable");
        let restored = StreamCoresetBuilder::restore(&snap).expect("restores");
        let a = b.finish().expect("stream coreset");
        let c = restored.finish_ref().expect("restored coreset");
        assert_eq!(a.entries(), c.entries());
    }
}
