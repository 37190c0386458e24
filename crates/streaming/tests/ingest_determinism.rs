//! Batched ingest must be *bit-identical* to the per-op reference
//! path: every `Storing` structure sees exactly the same update
//! sequence under both, because ladder pruning routes to the exact
//! accepting prefix and store-major routing preserves stream order per
//! store. These tests replay the same streams through both paths and
//! compare the full decoded state — including which stores died
//! mid-stream (`cap_cells` overflow) and which FAIL at decode — plus the
//! assembled coresets.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sbc_core::CoresetParams;
use sbc_geometry::dataset::{gaussian_mixture, two_phase_dynamic};
use sbc_geometry::GridParams;
use sbc_streaming::model::{insert_delete_stream, insertion_stream, interleaved_stream, StreamOp};
use sbc_streaming::{StreamCoresetBuilder, StreamParams};

fn params(log_delta: u32) -> CoresetParams {
    CoresetParams::builder(3, GridParams::from_log_delta(log_delta, 2))
        .build()
        .unwrap()
}

/// Builds two identically seeded builders, ingests `ops` per-op and
/// batched, and checks every observable output matches.
fn assert_paths_identical(p: &CoresetParams, sp: StreamParams, ops: &[StreamOp], seed: u64) {
    let build = || {
        let mut rng = StdRng::seed_from_u64(seed);
        StreamCoresetBuilder::new(p.clone(), sp, &mut rng)
    };
    let mut per_op = build();
    let mut batched = build();

    for op in ops {
        per_op.process(op);
    }
    batched.process_all(ops);

    assert_eq!(per_op.net_count(), batched.net_count());

    // Decoded summaries carry everything downstream consumers see:
    // cell sets, counts, small points, dirty cells, and FAIL outcomes.
    assert_eq!(
        per_op.export_summaries(),
        batched.export_summaries(),
        "batched ingest diverged from per-op"
    );

    // Space accounting must agree too — same dead stores, same bytes.
    assert_eq!(per_op.space_report(), batched.space_report());

    // And the assembled coresets (ascending-o selection incl. FAIL
    // checks during decode) must pick the same instance and entries.
    match (per_op.finish(), batched.finish()) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.o, b.o);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.entries().iter().zip(b.entries()) {
                assert_eq!(x.point, y.point);
                assert_eq!(x.weight, y.weight);
                assert_eq!((x.level, x.part), (y.level, y.part));
            }
        }
        (Err(a), Err(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}")),
        (a, b) => panic!(
            "paths disagree on success: per-op {:?}, batched {:?}",
            a.is_ok(),
            b.is_ok()
        ),
    }
}

#[test]
fn insertion_streams_are_path_independent() {
    let p = params(7);
    for seed in [1u64, 2, 3] {
        let pts = gaussian_mixture(p.grid, 1500, 3, 0.05, seed);
        assert_paths_identical(&p, StreamParams::default(), &insertion_stream(&pts), seed);
    }
}

#[test]
fn dynamic_streams_are_path_independent() {
    let p = params(7);
    for seed in [5u64, 6] {
        let ds = two_phase_dynamic(p.grid, 1000, 700, 3, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let ops = insert_delete_stream(&ds.kept, &ds.churn, &mut rng);
        assert_paths_identical(&p, StreamParams::default(), &ops, seed);
        let ops = interleaved_stream(&ds.kept, &ds.churn, &mut rng);
        assert_paths_identical(&p, StreamParams::default(), &ops, seed);
    }
}

#[test]
fn mid_stream_store_death_is_path_independent() {
    // A tiny cap_cells forces arena-backend stores to overflow and die
    // mid-stream. Death is order-sensitive (a store dies when a *new*
    // cell arrives at cap occupancy), so this is the sharpest test that
    // pruning routes the exact accepting set in the exact stream order.
    let p = params(7);
    for (seed, cap) in [(11u64, 24usize), (12, 48), (13, 96)] {
        let sp = StreamParams {
            cap_cells: cap,
            ..StreamParams::default()
        };
        let ds = two_phase_dynamic(p.grid, 900, 600, 3, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let ops = interleaved_stream(&ds.kept, &ds.churn, &mut rng);

        // The point of this case is dead stores: check some exist.
        let mut probe = {
            let mut r = StdRng::seed_from_u64(seed);
            StreamCoresetBuilder::new(p.clone(), sp, &mut r)
        };
        probe.process_all(&ops);
        assert!(
            probe.space_report().dead_stores > 0,
            "cap {cap} did not kill any store — weaken the cap"
        );

        assert_paths_identical(&p, sp, &ops, seed);
    }
}

#[test]
fn odd_batch_boundaries_are_path_independent() {
    // Stream lengths around the internal batch size exercise the
    // chunking edges (empty tail, single-op tail).
    let p = params(6);
    let pts = gaussian_mixture(p.grid, 4099, 2, 0.05, 21);
    let ops = insertion_stream(&pts);
    for len in [0usize, 1, 63, 64, 4095, 4096, 4097, 4099] {
        assert_paths_identical(&p, StreamParams::default(), &ops[..len], 21);
    }
}
