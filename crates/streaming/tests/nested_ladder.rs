//! The full default `o` ladder (k = 3, log Δ = 8, d = 2: 34 guesses)
//! streamed end to end, pinned byte for byte.
//!
//! Every guess `o` keeps the points whose hash falls under its
//! threshold, and thresholds fall as `o` grows, so each guess's sample
//! is a subset of the sample of every guess below it. How the builder
//! stores those nested samples is free; what it reports is not. On four
//! streams — a sliding window shaped like the `solve_balanced`
//! benchmark, an interleaved dynamic stream, a stream whose tiny
//! `cap_cells` kills runaway stores, and a stream under an injected
//! `kill-early` fault plan — this file checks that
//!
//! * the final checkpoint bytes, the exported per-guess summaries, a
//!   two-shard merge's checkpoint bytes and the `finish_ref` coreset
//!   hash to pinned FNV-1a digests (metrics registry cleared, so builds
//!   with and without the `obs` feature agree),
//! * checkpoint → bytes → restore → resume equals the uninterrupted run,
//!   and
//! * between adjacent guesses that both decode, the larger guess's cells
//!   are a subset of the smaller guess's cells, with counts no larger.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sbc_core::CoresetParams;
use sbc_geometry::dataset::{imbalanced_mixture, two_phase_dynamic};
use sbc_geometry::{GridHierarchy, GridParams, Point};
use sbc_obs::fault::{splitmix64, FaultPlan};
use sbc_obs::MetricsSnapshot;
use sbc_streaming::coreset_stream::RoleLevelSummary;
use sbc_streaming::model::{churn_stream, interleaved_stream, StreamOp};
use sbc_streaming::{InstanceSummary, Snapshot, StreamCoresetBuilder, StreamParams};

/// FNV-1a over a byte string (64-bit).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Canonical checkpoint bytes, without the metrics registry.
fn checkpoint_bytes(b: &StreamCoresetBuilder) -> Vec<u8> {
    let mut snap = b.checkpoint().expect("map-backed stores checkpoint");
    snap.metrics = MetricsSnapshot::default();
    snap.to_bytes()
}

/// Digest of the `finish_ref` outcome: the chosen guess and every entry
/// (point, weight bits, level, part), or the failure.
fn coreset_digest(b: &StreamCoresetBuilder) -> u64 {
    let text = match b.finish_ref() {
        Ok(cs) => {
            let mut s = format!("o={:#x}", cs.o.to_bits());
            for e in cs.entries() {
                s += &format!(
                    ";{:?},{:#x},{},{}",
                    e.point.coords(),
                    e.weight.to_bits(),
                    e.level,
                    e.part
                );
            }
            s
        }
        Err(e) => format!("err={e:?}"),
    };
    fnv1a(text.as_bytes())
}

fn summaries_digest(s: &[InstanceSummary]) -> u64 {
    fnv1a(format!("{s:?}").as_bytes())
}

/// Digests of one stream's run.
#[derive(Debug, PartialEq)]
struct Digests {
    checkpoint: u64,
    summaries: u64,
    merged: u64,
    coreset: u64,
}

/// Cells of `hi` are a subset of cells of `lo`, with counts ≤.
fn nested_in(hi: &RoleLevelSummary, lo: &RoleLevelSummary) -> bool {
    hi.cells.iter().all(|(cell, c)| {
        lo.cells
            .binary_search_by(|(x, _)| x.cmp(cell))
            .is_ok_and(|i| *c <= lo.cells[i].1)
    })
}

/// Checks the subset property between adjacent guesses, role by role
/// and level by level, wherever both stores decode; returns how many
/// store pairs were compared.
fn assert_nested(summaries: &[InstanceSummary]) -> usize {
    let mut compared = 0;
    for pair in summaries.windows(2) {
        let (lo, hi) = (&pair[0], &pair[1]);
        let roles = [(&lo.h, &hi.h), (&lo.hp, &hi.hp)];
        for (lo_role, hi_role) in roles {
            for (idx, (l, h)) in lo_role.iter().zip(hi_role).enumerate() {
                if let (Ok(l), Ok(h)) = (l, h) {
                    assert!(nested_in(h, l), "o={} level slot {idx}", hi.o);
                    compared += 1;
                }
            }
        }
        for (idx, (l, h)) in lo.hhat.iter().zip(&hi.hhat).enumerate() {
            if let (Some(Ok(l)), Some(Ok(h))) = (l, h) {
                assert!(nested_in(h, l), "o={} ĥ level {idx}", hi.o);
                compared += 1;
            }
        }
    }
    compared
}

/// Runs `writes` (each one `process_all` call) through a default-ladder
/// builder and returns its digests and how many stores died.
fn run(sp: StreamParams, writes: &[Vec<StreamOp>], seed: u64) -> (Digests, usize) {
    let gp = GridParams::from_log_delta(8, 2);
    let params = CoresetParams::builder(3, gp).build().expect("params");

    // One seed for the grid shift and the hashes: every builder below is
    // a shard of one logical stream, so any two of them merge.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1add);
    let grid = GridHierarchy::new(gp, &mut rng);
    let hash_seed: u64 = rng.gen();
    let mk = || {
        let mut hrng = StdRng::seed_from_u64(hash_seed);
        StreamCoresetBuilder::with_grid(params.clone(), sp, grid.clone(), &mut hrng)
    };
    let feed = |b: &mut StreamCoresetBuilder, writes: &[Vec<StreamOp>]| {
        for w in writes {
            b.process_all(w);
        }
    };

    let mut whole = mk();
    feed(&mut whole, writes);
    let summaries = whole.export_summaries();
    assert_eq!(summaries.len(), 34, "the full default ladder");
    assert!(assert_nested(&summaries) > 0, "no decodable adjacent pair");
    let bytes = checkpoint_bytes(&whole);

    // Checkpoint → bytes → restore → resume equals the uninterrupted run.
    let cut = writes.len() / 2;
    let mut first = mk();
    feed(&mut first, &writes[..cut]);
    let mid = checkpoint_bytes(&first);
    drop(first);
    let snap = Snapshot::from_bytes(&mid).expect("decodes");
    assert_eq!(snap.to_bytes(), mid, "encoding is canonical");
    let mut resumed = StreamCoresetBuilder::restore(&snap).expect("restores");
    feed(&mut resumed, &writes[cut..]);
    assert_eq!(resumed.export_summaries(), summaries);
    assert_eq!(resumed.space_report(), whole.space_report());
    assert_eq!(checkpoint_bytes(&resumed), bytes);
    assert_eq!(coreset_digest(&resumed), coreset_digest(&whole));

    // Two shards, points routed by identity so deletions meet their
    // insertions, folded into one.
    let mut shards = [mk(), mk()];
    for op in writes.iter().flatten() {
        let key = op.point().key128(gp.delta);
        let s = splitmix64((key as u64) ^ ((key >> 64) as u64)) % 2;
        shards[s as usize].process_all(std::slice::from_ref(op));
    }
    let [a, b] = shards;
    let merged = a.merge(b).expect("compatible shards");
    assert_eq!(merged.net_count(), whole.net_count());

    let digests = Digests {
        checkpoint: fnv1a(&bytes),
        summaries: summaries_digest(&summaries),
        merged: fnv1a(&checkpoint_bytes(&merged)),
        coreset: coreset_digest(&whole),
    };
    (digests, whole.space_report().dead_stores)
}

fn check((got, _): (Digests, usize), want: [u64; 4]) {
    let [checkpoint, summaries, merged, coreset] = want;
    assert_eq!(
        got,
        Digests {
            checkpoint,
            summaries,
            merged,
            coreset
        },
        "digests: [{:#018x}, {:#018x}, {:#018x}, {:#018x}]",
        got.checkpoint,
        got.summaries,
        got.merged,
        got.coreset
    );
}

/// A 250-point sliding window over a 70/20/10 mixture: fill it in
/// writes of 8, then 40 writes of 8 inserts plus 8 deletes of the oldest.
#[test]
fn sliding_window_like_solve_balanced() {
    const WINDOW: usize = 250;
    const BATCH: usize = 8;
    let gp = GridParams::from_log_delta(8, 2);
    let mut pool = imbalanced_mixture(gp, WINDOW + 40 * BATCH, &[0.7, 0.2, 0.1], 0.03, 7);
    pool.shuffle(&mut StdRng::seed_from_u64(7));
    let insert =
        |pts: &[Point]| -> Vec<StreamOp> { pts.iter().cloned().map(StreamOp::Insert).collect() };
    let mut writes: Vec<Vec<StreamOp>> = pool[..WINDOW].chunks(BATCH).map(insert).collect();
    for i in 0..40 {
        let new = &pool[WINDOW + i * BATCH..WINDOW + (i + 1) * BATCH];
        let old = &pool[i * BATCH..(i + 1) * BATCH];
        let mut w = insert(new);
        w.extend(old.iter().cloned().map(StreamOp::Delete));
        writes.push(w);
    }
    check(
        run(StreamParams::default(), &writes, 1),
        [
            0x5b558c7d60142297,
            0xc873acd6ac282be3,
            0x48881639f9139866,
            0xc31dec8a65803a81,
        ],
    );
}

/// Insertions of kept ∪ churn interleaved with the churn's deletions.
#[test]
fn interleaved_two_phase_dynamic() {
    let gp = GridParams::from_log_delta(8, 2);
    let ds = two_phase_dynamic(gp, 600, 400, 3, 2);
    let ops = interleaved_stream(&ds.kept, &ds.churn, &mut StdRng::seed_from_u64(2));
    let writes: Vec<Vec<StreamOp>> = ops.chunks(64).map(<[StreamOp]>::to_vec).collect();
    check(
        run(StreamParams::default(), &writes, 2),
        [
            0xea24f77e3c7f07d6,
            0x3fcea275c208e87f,
            0x87cf3261278a42cb,
            0x224b479ea16b61bf,
        ],
    );
}

/// A cap of 48 cells per store kills the widest-spread stores.
#[test]
fn small_cap_kills_runaway_stores() {
    let gp = GridParams::from_log_delta(8, 2);
    let ds = two_phase_dynamic(gp, 500, 300, 3, 3);
    let ops = interleaved_stream(&ds.kept, &ds.churn, &mut StdRng::seed_from_u64(3));
    let writes: Vec<Vec<StreamOp>> = ops.chunks(100).map(<[StreamOp]>::to_vec).collect();
    let sp = StreamParams {
        cap_cells: 48,
        ..StreamParams::default()
    };
    let params = CoresetParams::builder(3, gp).build().expect("params");
    let mut probe = StreamCoresetBuilder::new(params, sp, &mut StdRng::seed_from_u64(3));
    probe.process_all(&ops);
    let rep = probe.space_report();
    assert!(rep.runaway_kill > 0, "cap 48 must kill runaway stores");
    check(
        run(sp, &writes, 3),
        [
            0x037ab94bbdc42cba,
            0x91286d5e5d1fef26,
            0x8c87ca072872b7a1,
            0x62ad1b4d1bc712c1,
        ],
    );
}

/// The `kill-early` plan kills a quarter of the stores at their 64th
/// update.
#[test]
fn kill_early_fault_plan() {
    let gp = GridParams::from_log_delta(8, 2);
    let pts = imbalanced_mixture(gp, 900, &[0.5, 0.3, 0.2], 0.04, 4);
    let ops = churn_stream(&pts, 0.4, &mut StdRng::seed_from_u64(4));
    let writes: Vec<Vec<StreamOp>> = ops.chunks(32).map(<[StreamOp]>::to_vec).collect();
    let sp = StreamParams {
        faults: FaultPlan::parse("kill-early@5").expect("profile"),
        ..StreamParams::default()
    };
    let got = run(sp, &writes, 4);
    assert!(got.1 > 0, "the plan must kill stores");
    check(
        got,
        [
            0x91e44b56f46368a9,
            0xe8d6567609acd2d2,
            0x2b942dcfe7b66cab,
            0xa7fea5cab5b070bc,
        ],
    );
}
