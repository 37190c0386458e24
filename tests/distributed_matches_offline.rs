//! Distributed ↔ streaming ↔ offline agreement (Theorem 4.7): the
//! coordinator protocol must produce coresets of the same quality as the
//! centralized constructions, with communication independent of the
//! shard contents' size. On shards cut by `ShardedIngest::shard_of`,
//! every protocol variant must give bit for bit what the sharded
//! in-process merge gives, under network faults and, when
//! `SBC_FAULT_PROFILE` is set (the CI robustness job runs `chaos@7`),
//! that profile too.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sbc::{FaultPlan, SbcError, ShardedIngest};
use sbc_clustering::cost::capacitated_cost;
use sbc_clustering::kmeanspp::kmeanspp_seeds;
use sbc_core::{Coreset, CoresetParams, FailReason};
use sbc_distributed::{CommStats, DistributedCoreset};
use sbc_geometry::dataset::{gaussian_mixture, split_round_robin};
use sbc_geometry::{GridParams, Point};
use sbc_streaming::StreamParams;

fn params() -> CoresetParams {
    CoresetParams::builder(3, GridParams::from_log_delta(8, 2))
        .build()
        .unwrap()
}

#[test]
fn distributed_coreset_estimates_costs_well() {
    let p = params();
    let n = 8000;
    let pts = gaussian_mixture(p.grid, n, 3, 0.04, 61);
    let shards = split_round_robin(&pts, 5);
    let (cs, stats) =
        DistributedCoreset::run(&shards, &p, &StreamParams::default(), 23).expect("protocol");
    assert_eq!(stats.machines, 5);

    let (cpts, cws) = cs.split();
    let mut rng = StdRng::seed_from_u64(9);
    let mut worst: f64 = 1.0;
    let mut compared = 0;
    for trial in 0..3 {
        let centers = kmeanspp_seeds(&pts, None, 3, 2.0, &mut rng);
        let t = n as f64 / 3.0 * (1.2 + 0.3 * trial as f64);
        // Compare at EQUAL capacity: at these tight capacities the
        // objective is capacity-dominated, so giving the estimate side
        // slack changes the problem being solved, not the estimate.
        let full = capacitated_cost(&pts, None, &centers, t, 2.0);
        let est = capacitated_cost(&cpts, Some(&cws), &centers, t, 2.0);
        if full.is_finite() && est.is_finite() && full > 0.0 {
            worst = worst.max((est / full).max(full / est));
            compared += 1;
        }
    }
    assert!(compared >= 2, "too few feasible trials ({compared})");
    assert!(worst <= 1.25, "distributed coreset quality {worst}");
}

#[test]
fn sharding_choice_does_not_change_instance_decisions() {
    // The same data split 2 ways vs 6 ways: merged summaries should lead
    // the coordinator to the same accepted o (the protocol's merge is
    // exact for cell counts — only which machine held a point changes).
    let p = params();
    let pts = gaussian_mixture(p.grid, 5000, 3, 0.04, 67);
    let (a, _) = DistributedCoreset::run(
        &split_round_robin(&pts, 2),
        &p,
        &StreamParams::default(),
        29,
    )
    .expect("2 shards");
    let (b, _) = DistributedCoreset::run(
        &split_round_robin(&pts, 6),
        &p,
        &StreamParams::default(),
        29,
    )
    .expect("6 shards");
    assert_eq!(a.o, b.o, "accepted o must not depend on the sharding");
    assert_eq!(a.len(), b.len(), "same hash seed ⇒ same samples survive");
}

#[test]
fn broadcast_cost_is_tiny_and_upload_scales_with_s() {
    let p = params();
    let pts = gaussian_mixture(p.grid, 6000, 3, 0.04, 71);
    let mut uploads = Vec::new();
    for s in [2usize, 4, 8] {
        let shards = split_round_robin(&pts, s);
        let (_, stats) =
            DistributedCoreset::run(&shards, &p, &StreamParams::default(), 31).expect("run");
        // Broadcast: shift (d·8 bytes) + seed per machine.
        assert!(stats.broadcast_bytes < (64 * s) as u64);
        uploads.push(stats.upload_bytes);
    }
    // Upload grows with s but sublinearly in these regimes (per-machine
    // summaries shrink as shards shrink).
    assert!(uploads[2] > uploads[0] / 2, "more machines, more messages");
}

/// Network faults under test, plus `SBC_FAULT_PROFILE` when set.
fn fault_plans() -> Vec<FaultPlan> {
    let mut plans: Vec<FaultPlan> = ["none", "drop8", "dup8"]
        .iter()
        .map(|name| FaultPlan::parse(name).unwrap())
        .collect();
    if let Ok(profile) = std::env::var("SBC_FAULT_PROFILE") {
        plans.push(FaultPlan::parse(&profile).expect("valid SBC_FAULT_PROFILE"));
    }
    plans
}

/// The bits of an outcome: the chosen guess, every entry, the level and
/// part rates and the grid shift, or the failure.
fn bits(out: &Result<Coreset, FailReason>) -> String {
    match out {
        Ok(cs) => {
            let part_phis: Vec<Vec<(usize, f64)>> = cs
                .part_phis
                .iter()
                .map(|rates| {
                    let mut rates: Vec<(usize, f64)> =
                        rates.iter().map(|(&p, &r)| (p, r)).collect();
                    rates.sort_by_key(|&(p, _)| p);
                    rates
                })
                .collect();
            format!(
                "o={:?} entries={:?} phis={:?} part_phis={part_phis:?} shift={:?}",
                cs.o,
                cs.entries(),
                cs.phis,
                cs.shift
            )
        }
        Err(e) => format!("{e:?}"),
    }
}

type Run = fn(
    &[Vec<Point>],
    &CoresetParams,
    &StreamParams,
    u64,
) -> Result<(Coreset, CommStats), FailReason>;

#[test]
fn every_protocol_variant_equals_the_sharded_oracle() {
    let p = params();
    let pts = gaussian_mixture(p.grid, 3000, 3, 0.04, 73);
    // The default profile yields a coreset; the starved one (a cell or
    // two per store, only the smallest guesses) fails every guess.
    let starved = StreamParams {
        alpha_factor: 0.02,
        cap_cells: 2,
        o_ladder_max: Some(16.0),
        ..StreamParams::default()
    };
    let runs: [(&str, Run); 4] = [
        ("run", DistributedCoreset::run),
        ("run_threaded", DistributedCoreset::run_threaded),
        ("run_tree", DistributedCoreset::run_tree),
        ("run_tree_threaded", DistributedCoreset::run_tree_threaded),
    ];
    let seed = 37;
    let mut failed = 0;
    for faults in fault_plans() {
        for (profile, base) in [("default", StreamParams::default()), ("starved", starved)] {
            for s in [1usize, 2, 5, 8] {
                let sp = StreamParams {
                    shards: s,
                    faults,
                    ..base
                };
                let mut ingest = ShardedIngest::new(p.clone(), sp, seed).unwrap();
                let mut shards = vec![Vec::new(); s];
                for pt in &pts {
                    shards[ingest.shard_of(pt)].push(pt.clone());
                }
                ingest.insert_batch(&pts);
                let oracle = match ingest.finish() {
                    Err(SbcError::Build(e)) => Err(e),
                    out => out.map_err(|e| panic!("sharded ingest: {e}")),
                };
                failed += usize::from(oracle.is_err());
                for (name, run) in runs {
                    let out = run(&shards, &p, &sp, seed).map(|(cs, _)| cs);
                    assert_eq!(
                        bits(&out),
                        bits(&oracle),
                        "{name}, {profile}, s = {s}, faults {faults:?}"
                    );
                }
            }
        }
    }
    assert!(failed > 0, "no case exercised a failing finish");
}
