//! Properties of the coreset merge operator (DESIGN.md §8).
//!
//! The load-bearing claims, in decreasing order of strength:
//!
//! 1. **Lossless merge** — shard builders constructed from one seed
//!    share the λ-wise hash family, so for an insertion-only stream
//!    partitioned by point identity the merged state is *exactly* the
//!    monolithic builder's state (summaries, space accounting, coreset).
//! 2. **Association invariance** — for insertion-only streams, any
//!    merge-tree shape over the same shards yields the identical merged
//!    state (eviction depends only on merged totals, which association
//!    cannot change).
//! 3. **Exact weight conservation** — merged per-cell counts are the
//!    sums of shard counts, on dynamic (insert+delete) streams too.
//! 4. **Bit-determinism** — repeating a sharded run, serially or with
//!    shards on threads, reproduces the merged checkpoint byte-for-byte.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sbc_core::CoresetParams;
use sbc_geometry::dataset::{gaussian_mixture, two_phase_dynamic};
use sbc_geometry::{GridHierarchy, GridParams};
use sbc_obs::fault::splitmix64;
use sbc_streaming::model::{insertion_stream, interleaved_stream, StreamOp};
use sbc_streaming::{EpsSchedule, MergeError, StreamCoresetBuilder, StreamParams};

fn params(log_delta: u32) -> CoresetParams {
    CoresetParams::builder(3, GridParams::from_log_delta(log_delta, 2))
        .build()
        .unwrap()
}

/// One monolithic builder plus `s` shard builders, all drawing the grid
/// shift and hash family from the same seed — the construction
/// `ShardedIngest` and the distributed broadcast both use.
fn mono_and_shards(
    p: &CoresetParams,
    sp: StreamParams,
    seed: u64,
    s: usize,
) -> (StreamCoresetBuilder, Vec<StreamCoresetBuilder>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let grid = GridHierarchy::new(p.grid, &mut rng);
    let hash_seed: u64 = rng.gen();
    let mk = |grid: GridHierarchy| {
        let mut hrng = StdRng::seed_from_u64(hash_seed);
        StreamCoresetBuilder::with_grid(p.clone(), sp, grid, &mut hrng)
    };
    let mono = mk(grid.clone());
    let shards = (0..s).map(|_| mk(grid.clone())).collect();
    (mono, shards)
}

/// Routes by point identity (not op index): a delete always lands on
/// the shard that saw the insert, so shard substreams never go negative.
fn shard_of(op: &StreamOp, delta: u64, s: usize) -> usize {
    let key = op.point().key128(delta);
    (splitmix64((key as u64) ^ ((key >> 64) as u64)) % s as u64) as usize
}

fn partition(ops: &[StreamOp], delta: u64, s: usize) -> Vec<Vec<StreamOp>> {
    let mut per = vec![Vec::new(); s];
    for op in ops {
        per[shard_of(op, delta, s)].push(op.clone());
    }
    per
}

/// The monolithic builder and the merge of `s` shards, each shard
/// ingesting its substream on a thread of its own when `threaded`
/// (as `ShardedIngest` does with `StreamParams::parallel`).
fn run_sharded(
    p: &CoresetParams,
    sp: StreamParams,
    seed: u64,
    s: usize,
    ops: &[StreamOp],
    threaded: bool,
) -> (StreamCoresetBuilder, StreamCoresetBuilder) {
    let (mut mono, mut shards) = mono_and_shards(p, sp, seed, s);
    mono.process_all(ops);
    let parts = partition(ops, p.grid.delta, s);
    if threaded {
        std::thread::scope(|scope| {
            for (b, shard_ops) in shards.iter_mut().zip(&parts) {
                scope.spawn(move || b.process_all(shard_ops));
            }
        });
    } else {
        for (b, shard_ops) in shards.iter_mut().zip(&parts) {
            b.process_all(shard_ops);
        }
    }
    let merged = StreamCoresetBuilder::merge_many(shards).expect("compatible shards");
    (mono, merged)
}

#[test]
fn merged_shards_equal_monolithic_builder_exactly() {
    // Claim 1: insertion-only + shared hashes ⇒ the merge is lossless,
    // not merely (1+ε)-preserving.
    let p = params(8);
    let pts = gaussian_mixture(p.grid, 3000, 3, 0.04, 11);
    let ops = insertion_stream(&pts);
    for s in [2usize, 3, 8] {
        let (mono, merged) = run_sharded(&p, StreamParams::default(), 7, s, &ops, false);
        assert_eq!(mono.net_count(), merged.net_count(), "s = {s}");
        assert_eq!(mono.ops_seen(), merged.ops_seen(), "s = {s}");
        assert_eq!(
            mono.export_summaries(),
            merged.export_summaries(),
            "merged state must be bit-equal to the monolithic state (s = {s})"
        );
        assert_eq!(mono.space_report(), merged.space_report(), "s = {s}");
        let a = mono.finish().expect("mono coreset");
        let b = merged.finish().expect("merged coreset");
        assert_eq!(a.o, b.o, "s = {s}");
        assert_eq!(a.entries(), b.entries(), "s = {s}");
    }
}

#[test]
fn merge_is_bit_deterministic_across_runs_and_threads() {
    // Claim 4: the merged checkpoint (canonical bytes) reproduces
    // exactly — same serially, and with shards ingested on threads.
    let p = params(7);
    let pts = gaussian_mixture(p.grid, 1800, 3, 0.05, 13);
    let ops = insertion_stream(&pts);
    let sp = StreamParams::default();
    let bytes = |threaded: bool| {
        let (_, merged) = run_sharded(&p, sp, 21, 4, &ops, threaded);
        merged.checkpoint().expect("checkpoints").to_bytes()
    };
    let serial = bytes(false);
    assert_eq!(serial, bytes(false), "two identical runs diverged");
    assert_eq!(serial, bytes(true), "shards on threads changed the merge");
}

#[test]
fn merged_counts_are_exact_sums_even_with_deletions() {
    // Claim 3 on a dynamic stream: for every instance/role/level, the
    // merged total count equals the sum over shards (merging moves
    // counts, never loses them), and net_count adds up.
    let p = params(7);
    let ds = two_phase_dynamic(p.grid, 1200, 800, 3, 17);
    let mut rng = StdRng::seed_from_u64(17);
    let ops = interleaved_stream(&ds.kept, &ds.churn, &mut rng);
    let s = 4;
    let (_, mut shards) = mono_and_shards(&p, StreamParams::default(), 19, s);
    for (b, shard_ops) in shards.iter_mut().zip(partition(&ops, p.grid.delta, s)) {
        b.process_all(&shard_ops);
    }
    let shard_net: i64 = shards.iter().map(|b| b.net_count()).sum();
    let per_shard: Vec<_> = shards.iter_mut().map(|b| b.export_summaries()).collect();
    let merged = StreamCoresetBuilder::merge_many(shards).expect("compatible");
    assert_eq!(merged.net_count(), shard_net);
    assert_eq!(merged.net_count() as usize, ds.kept.len());

    // Conservation is per surviving store: a merged store whose cell
    // union exceeds the occupancy cap is killed (exactly as the
    // monolithic run would have), so only live merged role-levels are
    // comparable — and a live merged store implies every shard copy was
    // live too.
    fn total(r: &Result<sbc_streaming::coreset_stream::RoleLevelSummary, String>) -> Option<i64> {
        r.as_ref()
            .ok()
            .map(|s| s.cells.iter().map(|&(_, c)| c).sum::<i64>())
    }
    let mut compared = 0usize;
    for (idx, inst) in merged.export_summaries().iter().enumerate() {
        for li in 0..inst.h.len() {
            if let Some(m) = total(&inst.h[li]) {
                let shard_sum: i64 = per_shard
                    .iter()
                    .map(|s| total(&s[idx].h[li]).expect("live merge ⇒ live shards"))
                    .sum();
                assert_eq!(m, shard_sum, "instance {idx} h[{li}]: weight lost");
                compared += 1;
            }
        }
        for li in 0..inst.hp.len() {
            if let Some(m) = total(&inst.hp[li]) {
                let shard_sum: i64 = per_shard
                    .iter()
                    .map(|s| total(&s[idx].hp[li]).expect("live merge ⇒ live shards"))
                    .sum();
                assert_eq!(m, shard_sum, "instance {idx} h'[{li}]: weight lost");
                compared += 1;
            }
        }
        for li in 0..inst.hhat.len() {
            if let Some(m) = inst.hhat[li].as_ref().and_then(total) {
                let shard_sum: i64 = per_shard
                    .iter()
                    .map(|s| {
                        total(s[idx].hhat[li].as_ref().expect("presence matches"))
                            .expect("live merge ⇒ live shards")
                    })
                    .sum();
                assert_eq!(m, shard_sum, "instance {idx} ĥ[{li}]: weight lost");
                compared += 1;
            }
        }
    }
    assert!(compared > 20, "only {compared} live role-levels compared");
}

#[test]
fn merge_depth_tracks_tree_height_within_eps_budget() {
    let p = params(6);
    let pts = gaussian_mixture(p.grid, 600, 2, 0.05, 23);
    let ops = insertion_stream(&pts);
    for s in [1usize, 2, 3, 5, 8] {
        let (_, merged) = run_sharded(&p, StreamParams::default(), 29, s, &ops, false);
        let height = (s as f64).log2().ceil() as u32;
        assert_eq!(merged.merge_depth(), height, "s = {s}");
        let sched = merged.eps_schedule();
        assert!(sched.within_budget(merged.merge_depth()), "s = {s}");
        assert!(sched.spent(merged.merge_depth()) < sched.eps(), "s = {s}");
    }
    // The schedule is the standard merge-and-reduce halving series.
    let sched = EpsSchedule::new(0.4);
    assert!((sched.level_eps(0) - 0.2).abs() < 1e-12);
    assert!((sched.level_eps(1) - 0.1).abs() < 1e-12);
}

#[test]
fn incompatible_builders_are_rejected() {
    let p = params(6);
    let sp = StreamParams::default();
    // Different seeds ⇒ different shift and hash families.
    let mut r1 = StdRng::seed_from_u64(1);
    let mut r2 = StdRng::seed_from_u64(2);
    let a = StreamCoresetBuilder::new(p.clone(), sp, &mut r1);
    let b = StreamCoresetBuilder::new(p.clone(), sp, &mut r2);
    match a.merge(b) {
        Err(MergeError::Incompatible(why)) => assert!(!why.is_empty()),
        Ok(_) => panic!("expected Incompatible, got a merged builder"),
    }
    assert!(matches!(
        StreamCoresetBuilder::merge_many(Vec::new()),
        Err(MergeError::Incompatible(_))
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Claim 2: fold the same shards under an arbitrary association
    /// order — the merged summaries and the assembled coreset must be
    /// identical to the canonical left-to-right pairwise fold.
    #[test]
    fn any_tree_shape_yields_the_same_coreset(
        seed in 0u64..500,
        n in 300usize..900,
        s in 2usize..6,
        picks in prop::collection::vec(0usize..16, 1..8),
    ) {
        let p = params(6);
        let pts = gaussian_mixture(p.grid, n, 2, 0.06, seed);
        let ops = insertion_stream(&pts);

        let (_, mut canonical_shards) =
            mono_and_shards(&p, StreamParams::default(), seed, s);
        for (b, shard_ops) in canonical_shards
            .iter_mut()
            .zip(partition(&ops, p.grid.delta, s))
        {
            b.process_all(&shard_ops);
        }
        let (_, mut arbitrary_shards) =
            mono_and_shards(&p, StreamParams::default(), seed, s);
        for (b, shard_ops) in arbitrary_shards
            .iter_mut()
            .zip(partition(&ops, p.grid.delta, s))
        {
            b.process_all(&shard_ops);
        }

        let canonical = StreamCoresetBuilder::merge_many(canonical_shards)
            .expect("canonical fold");

        // Arbitrary association: repeatedly merge a picked adjacent pair.
        let mut layer = arbitrary_shards;
        let mut pick = picks.into_iter().cycle();
        while layer.len() > 1 {
            let i = pick.next().unwrap() % (layer.len() - 1);
            let a = layer.remove(i);
            let b = layer.remove(i);
            layer.insert(i, a.merge(b).expect("compatible pair"));
        }
        let arbitrary = layer.pop().unwrap();

        prop_assert_eq!(canonical.net_count(), arbitrary.net_count());
        prop_assert_eq!(
            canonical.export_summaries(),
            arbitrary.export_summaries()
        );
        let a = canonical.finish().expect("canonical coreset");
        let b = arbitrary.finish().expect("arbitrary coreset");
        prop_assert_eq!(a.o, b.o);
        prop_assert_eq!(a.entries(), b.entries());
    }
}
