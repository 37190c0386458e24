//! Geometries of every key width, streamed end to end through a builder.
//!
//! A store keys its cells by `CellId::pack` when that fits 64 bits, by
//! the same packing in 128 bits when it fits there, and by a 128-bit
//! mixing hash otherwise; points likewise by `Point::pack` or a mixing
//! hash. Each geometry below exercises one of these regimes on a
//! deletion-heavy stream and checks that
//!
//! * batched ingest (`process_all`) equals per-op ingest (`process`),
//! * checkpoint → bytes → restore → resume equals an uninterrupted run,
//! * a two-shard merge equals the monolithic builder (on the
//!   insertion-only stream of the same points, where merging is
//!   lossless), and
//! * the final and the merged checkpoint bytes of the deletion-heavy
//!   run hash to pinned FNV-1a digests, so a change of store layout that
//!   alters what a tenant of that geometry serializes fails here.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sbc_core::CoresetParams;
use sbc_geometry::dataset::gaussian_mixture;
use sbc_geometry::{GridHierarchy, GridParams};
use sbc_obs::fault::splitmix64;
use sbc_obs::MetricsSnapshot;
use sbc_streaming::model::{churn_stream, insertion_stream, StreamOp};
use sbc_streaming::{Snapshot, StreamCoresetBuilder, StreamParams};

/// FNV-1a over a byte string (64-bit).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Canonical checkpoint bytes, without the metrics registry (which the
/// `obs` feature fills from process-global counters).
fn checkpoint_bytes(b: &StreamCoresetBuilder) -> Vec<u8> {
    let mut snap = b.checkpoint().expect("map-backed stores checkpoint");
    snap.metrics = MetricsSnapshot::default();
    snap.to_bytes()
}

/// Digests of one geometry's run: the uninterrupted builder's final
/// checkpoint and the two-shard merge's.
struct Run {
    mono: u64,
    merged: u64,
}

fn run(log_delta: u32, d: usize, seed: u64) -> Run {
    let gp = GridParams::from_log_delta(log_delta, d);
    let params = CoresetParams::builder(3, gp).build().expect("params");
    let sp = StreamParams::builder()
        .o_ladder_max(4096.0)
        .build()
        .expect("stream params");
    let pts = gaussian_mixture(gp, 240, 3, 0.04, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let ops = churn_stream(&pts, 0.3, &mut rng);
    assert!(ops.len() > 400, "deletion-heavy: {} ops", ops.len());

    // Every builder draws its grid shift and hashes from one seed, so
    // they are shards of one logical stream (mergeable).
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5bc);
    let grid = GridHierarchy::new(gp, &mut rng);
    let hash_seed: u64 = rng.gen();
    let mk = || {
        let mut hrng = StdRng::seed_from_u64(hash_seed);
        StreamCoresetBuilder::with_grid(params.clone(), sp, grid.clone(), &mut hrng)
    };

    // Batched ingest equals per-op ingest.
    let mut batched = mk();
    batched.process_all(&ops);
    let mut per_op = mk();
    for op in &ops {
        per_op.process(op);
    }
    assert_eq!(batched.export_summaries(), per_op.export_summaries());
    assert_eq!(batched.space_report(), per_op.space_report());
    let mono = checkpoint_bytes(&batched);
    assert_eq!(mono, checkpoint_bytes(&per_op));

    // Checkpoint → bytes → restore → resume equals the uninterrupted run.
    let cut = ops.len() / 2;
    let mut first = mk();
    first.process_all(&ops[..cut]);
    let bytes = checkpoint_bytes(&first);
    drop(first);
    let snap = Snapshot::from_bytes(&bytes).expect("decodes");
    assert_eq!(snap.to_bytes(), bytes, "encoding is canonical");
    let mut resumed = StreamCoresetBuilder::restore(&snap).expect("restores");
    resumed.process_all(&ops[cut..]);
    assert_eq!(resumed.export_summaries(), batched.export_summaries());
    assert_eq!(resumed.space_report(), batched.space_report());
    assert_eq!(checkpoint_bytes(&resumed), mono);

    // Two shards, points routed by identity so deletions meet their
    // insertions. Merging is lossless on insertion-only streams (a
    // dynamic stream may evict a cell's payload in the monolithic run
    // that neither shard evicts), so equality with the monolithic
    // builder is checked there; the deletion-heavy merge is pinned by
    // its checkpoint digest.
    let merge_two = |ops: &[StreamOp]| {
        let mut shards = [mk(), mk()];
        for op in ops {
            let key = op.point().key128(gp.delta);
            let s = splitmix64((key as u64) ^ ((key >> 64) as u64)) % 2;
            shards[s as usize].process_all(std::slice::from_ref(op));
        }
        let [a, b] = shards;
        a.merge(b).expect("compatible shards")
    };
    let inserts = insertion_stream(&pts);
    let mut whole = mk();
    whole.process_all(&inserts);
    let merged_inserts = merge_two(&inserts);
    assert_eq!(merged_inserts.export_summaries(), whole.export_summaries());
    assert_eq!(merged_inserts.space_report(), whole.space_report());
    let merged = merge_two(&ops);
    assert_eq!(merged.net_count(), batched.net_count());
    let merged_digest = fnv1a(&checkpoint_bytes(&merged));

    let coreset = |b: StreamCoresetBuilder| b.finish().map(|c| (c.o, c.entries().to_vec()));
    assert_eq!(coreset(merged_inserts), coreset(whole));
    assert_eq!(coreset(resumed), coreset(batched));

    Run {
        mono: fnv1a(&mono),
        merged: merged_digest,
    }
}

/// Bits of the finest level's packed cell key, and of a packed point.
fn key_bits(log_delta: u32, d: usize) -> (usize, usize) {
    let gp = GridParams::from_log_delta(log_delta, d);
    let point = sbc_geometry::point::bits_for(gp.delta) as usize * d;
    (6 + (gp.l as usize + 2) * d, point)
}

fn check(log_delta: u32, d: usize, seed: u64, mono: u64, merged: u64) {
    let got = run(log_delta, d, seed);
    assert_eq!(
        (got.mono, got.merged),
        (mono, merged),
        "checkpoint digests (d = {d}, log Δ = {log_delta}): {:#018x}, {:#018x}",
        got.mono,
        got.merged
    );
}

/// Every cell key packs into 64 bits.
#[test]
fn cell_keys_pack_into_u64() {
    let (cell, _) = key_bits(8, 2);
    assert!(cell <= 64);
    check(8, 2, 1, 0x4f3c0a92c94bc7af, 0xb88b30d88b8dda3f);
}

/// Cell keys pack into 128 bits but not 64 (102 bits at the finest level).
#[test]
fn cell_keys_pack_into_u128() {
    let (cell, _) = key_bits(10, 8);
    assert!(64 < cell && cell <= 128);
    check(10, 8, 2, 0x74cc4e050439f77f, 0xf5889bf8816531e6);
}

/// Fine-level cell keys are mixing hashes; point keys still pack.
#[test]
fn cell_keys_are_mixing_hashes() {
    let (cell, point) = key_bits(10, 12);
    assert!(cell > 128 && point <= 128);
    check(10, 12, 3, 0x06fa03df01bbb6ec, 0x8938e0ec459b06b7);
}

/// Cell keys at fine levels and every point key are mixing hashes.
#[test]
fn point_keys_are_mixing_hashes() {
    let (cell, point) = key_bits(10, 16);
    assert!(cell > 128 && point > 128);
    check(10, 16, 4, 0x8c7af6e21ce5d471, 0x17ddc1ef1ac31912);
}
