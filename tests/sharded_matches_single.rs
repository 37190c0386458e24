//! Differential oracle: sharded merge-tree ingest vs the single-stream
//! builder, judged against exact capacitated flow costs (the E1
//! protocol) on every workload family and both ℓ_r norms.
//!
//! Two tiers of claim:
//!
//! * **Bit-identity** (fault-free): shard builders share the hash family
//!   of the monolithic builder, and for a stream partitioned by point
//!   identity the merged state *equals* the single-shard state — so the
//!   S-shard coreset is byte-for-byte the 1-shard coreset, on insertion
//!   streams for every `S`.
//! * **Sandwich-ratio bound**: even where bit-identity is not guaranteed
//!   (deletion-heavy streams, injected faults), the sharded coreset's
//!   worst cost-estimation ratio against exact flow costs must satisfy
//!   the same bound as the single-stream coreset, and the two ratios
//!   must agree within the merge tree's `1 + 2ε` budget envelope.
//!
//! The whole suite re-runs under an injected fault profile when
//! `SBC_FAULT_PROFILE` is set (the CI robustness job exercises
//! `chaos@7`); fault decisions are positional per store, so serial and
//! parallel sharded ingest stay bit-identical even while stores are
//! being killed mid-stream.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sbc::prelude::*;
use sbc_clustering::cost::capacitated_cost;
use sbc_clustering::kmeanspp::kmeanspp_seeds;
use sbc_core::CoresetParams;
use sbc_geometry::dataset::{
    gaussian_mixture, imbalanced_mixture, line_with_outliers, two_phase_dynamic, uniform,
};
use sbc_geometry::GridParams;
use sbc_streaming::model::{insert_delete_stream, insertion_stream};

const N: usize = 2400;

fn grid() -> GridParams {
    GridParams::from_log_delta(8, 2)
}

/// The E1 workload families (fixed seeds — the oracle is deterministic).
fn workloads() -> Vec<(&'static str, Vec<Point>)> {
    let gp = grid();
    vec![
        ("gaussian", gaussian_mixture(gp, N, 3, 0.04, 61)),
        ("uniform", uniform(gp, N, 62)),
        (
            "imbalanced",
            imbalanced_mixture(gp, N, &[0.7, 0.2, 0.1], 0.05, 63),
        ),
        ("line", line_with_outliers(gp, N, 40, 64)),
    ]
}

fn params(r: f64) -> CoresetParams {
    CoresetParams::builder(3, grid()).r(r).build().unwrap()
}

/// Fault plan under test: `SBC_FAULT_PROFILE` (the robustness job sets
/// `chaos@7`) or lossless by default.
fn env_faults() -> FaultPlan {
    match std::env::var("SBC_FAULT_PROFILE") {
        Ok(s) => FaultPlan::parse(&s).expect("valid SBC_FAULT_PROFILE"),
        Err(_) => FaultPlan::NONE,
    }
}

fn stream_params(shards: usize) -> StreamParams {
    StreamParams::builder()
        .shards(shards)
        .faults(env_faults())
        .build()
        .unwrap()
}

fn run_sharded(points_ops: &[StreamOp], r: f64, shards: usize, seed: u64) -> Option<Coreset> {
    let mut ingest = ShardedIngest::new(params(r), stream_params(shards), seed).unwrap();
    ingest.process_all(points_ops);
    ingest.finish().ok()
}

/// Worst sandwich ratio of coreset cost estimates against exact flow
/// costs over a few fixed `(Z, t)` queries — the E1 oracle.
fn quality(points: &[Point], coreset: &Coreset, r: f64, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let (cpts, cws) = coreset.split();
    let n = points.len() as f64;
    let mut worst: f64 = 1.0;
    for trial in 0..2 {
        let centers = kmeanspp_seeds(points, None, 3, r, &mut rng);
        let t = n / 3.0 * (1.2 + 0.4 * trial as f64);
        let full = capacitated_cost(points, None, &centers, t, r);
        let est = capacitated_cost(&cpts, Some(&cws), &centers, 1.2 * t, r);
        if full.is_finite() && full > 0.0 && est.is_finite() {
            worst = worst.max((est / full).max(full / est));
        }
    }
    worst
}

#[test]
fn sharded_insertion_coreset_is_bit_identical_to_single_stream() {
    let faulty = env_faults() != FaultPlan::NONE;
    for (name, pts) in workloads() {
        let ops = insertion_stream(&pts);
        for r in [1.0, 2.0] {
            let single = run_sharded(&ops, r, 1, 97);
            for s in [2usize, 4, 8] {
                let sharded = run_sharded(&ops, r, s, 97);
                if faulty {
                    // Injected store deaths depend on per-store update
                    // counts, which sharding changes — equality is out,
                    // but survival must agree with quality (below) and
                    // serial/parallel determinism (other test) held.
                    continue;
                }
                let a = single.as_ref().expect("fault-free single run");
                let b = sharded.expect("fault-free sharded run");
                assert_eq!(a.o, b.o, "{name} r={r} S={s}");
                assert_eq!(
                    a.entries(),
                    b.entries(),
                    "{name} r={r} S={s}: sharded coreset diverged"
                );
            }
        }
    }
}

#[test]
fn sharded_quality_satisfies_the_single_stream_bound() {
    // The sandwich-ratio oracle on every E1 family × both norms, S = 4.
    // The mixtures mirror streaming_matches_offline's streaming bound;
    // the near-degenerate `line` family under-estimates at the tight
    // capacity trial even single-stream (measured baselines ≈ 1.85 at
    // ℓ_1 and ≈ 4.0 at ℓ_2), so its absolute bound reflects that — the
    // sharding claim is carried by the 1+2ε differential envelope
    // either way. Slightly relaxed when a fault profile kills stores.
    let faulty = env_faults() != FaultPlan::NONE;
    let bound = |name: &str, r: f64| -> f64 {
        let base = match (name, r as i64) {
            ("line", 1) => 2.2,
            ("line", _) => 4.5,
            (_, 1) => 1.7,
            _ => 1.6,
        };
        base + if faulty { 0.2 } else { 0.0 }
    };
    for (name, pts) in workloads() {
        let ops = insertion_stream(&pts);
        for r in [1.0, 2.0] {
            let bound = bound(name, r);
            let eps = params(r).eps;
            let Some(single) = run_sharded(&ops, r, 1, 103) else {
                continue; // injected kill storm: nothing to compare
            };
            let Some(sharded) = run_sharded(&ops, r, 4, 103) else {
                continue;
            };
            let q1 = quality(&pts, &single, r, 300);
            let qs = quality(&pts, &sharded, r, 300);
            assert!(q1 <= bound, "{name} r={r}: single quality {q1}");
            assert!(qs <= bound, "{name} r={r}: sharded quality {qs}");
            assert!(
                qs <= q1 * (1.0 + 2.0 * eps) + 1e-9,
                "{name} r={r}: sharded ratio {qs} outside the 1+2ε envelope of {q1}"
            );
        }
    }
}

#[test]
fn sharded_deletion_streams_match_the_oracle_too() {
    // Insert-then-delete churn: point-identity routing sends each delete
    // to the shard that saw the insert, so every shard substream is a
    // valid dynamic stream. The surviving-set coreset must satisfy the
    // same bound as the single-stream run for every tree width.
    let gp = grid();
    let faulty = env_faults() != FaultPlan::NONE;
    let bound = if faulty { 1.8 } else { 1.6 };
    let ds = two_phase_dynamic(gp, 2000, 1200, 3, 71);
    let mut rng = StdRng::seed_from_u64(71);
    let ops = insert_delete_stream(&ds.kept, &ds.churn, &mut rng);
    let eps = params(2.0).eps;
    let single = run_sharded(&ops, 2.0, 1, 107);
    let q1 = single.as_ref().map(|cs| quality(&ds.kept, cs, 2.0, 400));
    for s in [2usize, 4, 8] {
        let Some(cs) = run_sharded(&ops, 2.0, s, 107) else {
            assert!(faulty, "fault-free sharded deletion run must finish");
            continue;
        };
        let kept: std::collections::HashSet<&Point> = ds.kept.iter().collect();
        assert!(
            cs.entries().iter().all(|e| kept.contains(&e.point)),
            "S={s}: a deleted point leaked into the coreset"
        );
        let qs = quality(&ds.kept, &cs, 2.0, 400);
        assert!(qs <= bound, "S={s}: sharded dynamic quality {qs}");
        if let Some(q1) = q1 {
            assert!(
                qs <= q1 * (1.0 + 2.0 * eps) + 1e-9,
                "S={s}: dynamic ratio {qs} outside the 1+2ε envelope of {q1}"
            );
        }
    }
}

#[test]
fn per_op_and_batched_ingest_are_bit_identical() {
    // Ingest-path differential on every E1 family: batched ingest must
    // reproduce the per-op reference path bit for bit, with a
    // checkpoint cut mid-stream on top. Compared:
    // net counts, exported summaries (cells, small points, rates),
    // canonical store snapshots, and the finished coresets.
    use sbc_streaming::{Snapshot, StreamCoresetBuilder};
    let faults = env_faults();
    for (name, pts) in workloads() {
        let ops = insertion_stream(&pts);
        let mk = || {
            let sp = StreamParams::builder().faults(faults).build().unwrap();
            let mut rng = StdRng::seed_from_u64(131);
            StreamCoresetBuilder::new(params(2.0), sp, &mut rng)
        };

        // Per-op reference, with a mid-stream checkpoint.
        let mut reference = mk();
        for op in &ops[..N / 2] {
            reference.process(op);
        }
        let per_op_cut = reference.checkpoint().expect("per-op checkpoint");
        for op in &ops[N / 2..] {
            reference.process(op);
        }
        let ref_summaries = reference.export_summaries();

        // Batched, cut at the same point.
        let mut b = mk();
        b.process_all(&ops[..N / 2]);
        let cut = b.checkpoint().expect("batched checkpoint");
        assert_eq!(
            cut.stores, per_op_cut.stores,
            "{name}: mid-stream snapshots diverged"
        );
        assert_eq!(cut.net_count, per_op_cut.net_count);
        b.process_all(&ops[N / 2..]);
        assert_eq!(b.net_count(), reference.net_count());
        assert_eq!(
            b.export_summaries(),
            ref_summaries,
            "{name}: summaries diverged"
        );

        // Resume: the per-op builder's checkpoint, pushed through the
        // byte codec, continues batched to the same final state.
        let roundtrip = Snapshot::from_bytes(&per_op_cut.to_bytes()).expect("codec roundtrip");
        let mut resumed = StreamCoresetBuilder::restore(&roundtrip).expect("restore");
        resumed.process_all(&ops[N / 2..]);
        assert_eq!(
            resumed.export_summaries(),
            ref_summaries,
            "{name}: resume diverged"
        );

        // And the coresets themselves agree (fault-free only: a kill
        // storm can leave nothing to assemble).
        if faults == FaultPlan::NONE {
            let a = reference.finish_ref().expect("per-op coreset");
            let mut b = mk();
            b.process_all(&ops);
            let b = b.finish_ref().expect("batched coreset");
            assert_eq!(a.o, b.o, "{name}");
            assert_eq!(a.entries(), b.entries(), "{name}: coresets diverged");
        }
    }
}

#[test]
fn serial_and_parallel_sharded_ingest_are_bit_identical() {
    // Holds under fault injection too: fault decisions are pure
    // positional functions of (store, update index), and shard routing
    // is a pure function of the point — threads change neither.
    let pts = gaussian_mixture(grid(), 2000, 3, 0.04, 79);
    let ops = insertion_stream(&pts);
    let serial = StreamParams::builder()
        .shards(4)
        .faults(env_faults())
        .build()
        .unwrap();
    let parallel = StreamParams::builder()
        .shards(4)
        .parallel(true)
        .faults(env_faults())
        .build()
        .unwrap();
    let run = |sp: StreamParams| {
        let mut ingest = ShardedIngest::new(params(2.0), sp, 113).unwrap();
        ingest.process_all(&ops);
        ingest.finish()
    };
    match (run(serial), run(parallel)) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.o, b.o);
            assert_eq!(a.entries(), b.entries());
        }
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
        (a, b) => panic!(
            "serial and parallel disagree on success: {:?} vs {:?}",
            a.is_ok(),
            b.is_ok()
        ),
    }
}
