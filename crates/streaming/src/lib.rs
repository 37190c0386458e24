//! # sbc-streaming
//!
//! The **one-pass dynamic-streaming coreset** for capacitated
//! k-clustering (paper §4.1–4.2, Theorem 4.5).
//!
//! The stream model allows both insertions and deletions of points of
//! `[Δ]^d` ([`model`]); a single pass must end holding a strong
//! `(η, ε)`-coreset of whatever point set survives. The pipeline
//! (Algorithm 4) runs, for every guess `o` in a geometric ladder, three
//! λ-wise-subsampled substreams per grid level:
//!
//! * `hᵢ` at rate `ψᵢ` — cell-occupancy estimates driving the heavy-cell
//!   partition (Algorithm 1 via Algorithm 3 / Lemma 4.1);
//! * `h′ᵢ` at rate `ψ′ᵢ` — part-mass estimates `τ(Q_{i,j})`;
//! * `ĥᵢ` at rate `φᵢ` — the candidate coreset points themselves.
//!
//! Each substream is summarized by a `Storing(Gᵢ, α, β, δ)` structure
//! (Lemma 4.2). The thresholds of one (role, level) are nested along the
//! `o` ladder, so the builder keeps each (role, level)'s stores as
//! threshold views of one nested arena, every point stored once: flat
//! hash tables with per-cell eviction and occupancy caps, behaviourally
//! faithful to Lemma 4.2, with measured space. That arena is the only
//! store type. [`storing`] holds the stores' shared vocabulary and the
//! paper's linear sketch, built from the s-sparse recovery structures in
//! [`sparse`] (insert/delete-oblivious, fixed space): the reference the
//! arena's views are checked against, and the nominal space accounting.
//! At end of stream,
//! [`StreamCoresetBuilder::finish`]
//! replays Algorithms 1 + 2 on the estimates of the smallest workable
//! `o` — reusing `sbc-core`'s `CoresetBuilderCtx` so offline and
//! streaming agree bit-for-bit on the assembly logic.
//!
//! Long runs can be interrupted and resumed: [`checkpoint`] defines a
//! versioned byte format for [`StreamCoresetBuilder::checkpoint`] /
//! [`StreamCoresetBuilder::restore`] such that restore-then-continue is
//! bit-identical to an uninterrupted pass. The underlying little-endian
//! codec ([`codec`]) is shared with `sbc-distributed`'s wire format,
//! whose machines upload exactly these images.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod checkpoint;
pub mod codec;
pub mod coreset_stream;
pub mod merge;
pub mod model;
mod nested;
pub mod sparse;
pub mod storing;

pub use checkpoint::{CheckpointError, Snapshot};
pub use coreset_stream::{
    human_bytes, InstanceSummary, ShardedSpaceReport, SpaceReport, StreamCoresetBuilder,
    StreamParams, StreamParamsBuilder,
};
pub use merge::{EpsSchedule, MergeError};
pub use model::{insert_delete_stream, insertion_stream, StreamOp};
pub use sparse::{OneSparse, SSparseRecovery};
pub use storing::StoringFail;
// Internal summary-structure machinery. Re-exported for the workspace's
// own tests and benches, but not part of the supported surface (the
// `sbc` facade's `public_api.txt` golden test pins what is) — reach for
// `StreamCoresetBuilder` / `Snapshot` instead.
#[doc(hidden)]
pub use storing::{Storing, StoringConfig, StoringOutput};
