//! Checkpoint/restore must be invisible: interrupting a run at an
//! arbitrary op index, serializing the builder, restoring it from bytes
//! (fresh-process semantics — nothing survives but the byte buffer),
//! and resuming must produce *bit-identical* results to the
//! uninterrupted run — summaries, space accounting, and the assembled
//! coreset. Exercised over insertion and dynamic streams, shard and
//! merge-node checkpoints, and runs with injected mid-stream store
//! deaths.
//!
//! The serialization itself must be canonical: encode → decode → encode
//! is the identity on bytes.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sbc_core::CoresetParams;
use sbc_geometry::dataset::{gaussian_mixture, two_phase_dynamic};
use sbc_geometry::GridParams;
use sbc_obs::fault::FaultPlan;
use sbc_streaming::model::{insertion_stream, interleaved_stream, StreamOp};
use sbc_streaming::{CheckpointError, Snapshot, StreamCoresetBuilder, StreamParams};

fn params(log_delta: u32) -> CoresetParams {
    CoresetParams::builder(3, GridParams::from_log_delta(log_delta, 2))
        .build()
        .unwrap()
}

fn build(p: &CoresetParams, sp: StreamParams, seed: u64) -> StreamCoresetBuilder {
    let mut rng = StdRng::seed_from_u64(seed);
    StreamCoresetBuilder::new(p.clone(), sp, &mut rng)
}

/// Runs `ops` uninterrupted, and again with a checkpoint → bytes →
/// restore cycle at `cut`; every observable output must match exactly.
fn assert_restore_invisible(
    p: &CoresetParams,
    sp: StreamParams,
    ops: &[StreamOp],
    seed: u64,
    cut: usize,
) {
    let mut reference = build(p, sp, seed);
    reference.process_all(ops);

    let mut first_leg = build(p, sp, seed);
    first_leg.process_all(&ops[..cut]);
    let bytes = first_leg
        .checkpoint()
        .expect("arena stores checkpoint")
        .to_bytes();
    drop(first_leg); // nothing of the original builder survives

    let snap = Snapshot::from_bytes(&bytes).expect("round-trips");
    let mut resumed = StreamCoresetBuilder::restore(&snap).expect("restores");
    resumed.process_all(&ops[cut..]);

    assert_eq!(reference.net_count(), resumed.net_count(), "cut {cut}");
    assert_eq!(
        reference.export_summaries(),
        resumed.export_summaries(),
        "summaries diverged after restore at cut {cut}"
    );
    assert_eq!(
        reference.space_report(),
        resumed.space_report(),
        "space accounting diverged at cut {cut}"
    );
    match (reference.finish(), resumed.finish()) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.o, b.o, "cut {cut}");
            assert_eq!(a.entries(), b.entries(), "coreset diverged at cut {cut}");
        }
        (Err(a), Err(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}")),
        (a, b) => panic!(
            "runs disagree on success at cut {cut}: reference {:?}, resumed {:?}",
            a.is_ok(),
            b.is_ok()
        ),
    }
}

fn cuts_for(len: usize) -> Vec<usize> {
    vec![0, 1, len / 3, len / 2, len - 1, len]
}

#[test]
fn restore_then_continue_is_bit_identical_serial() {
    let p = params(7);
    let pts = gaussian_mixture(p.grid, 1400, 3, 0.05, 2);
    let ops: Vec<StreamOp> = insertion_stream(&pts);
    for cut in cuts_for(ops.len()) {
        assert_restore_invisible(&p, StreamParams::default(), &ops, 2, cut);
    }
}

#[test]
fn restore_then_continue_is_bit_identical_dynamic() {
    let p = params(7);
    let ds = two_phase_dynamic(p.grid, 900, 600, 3, 5);
    let mut rng = StdRng::seed_from_u64(5);
    let ops = interleaved_stream(&ds.kept, &ds.churn, &mut rng);
    for cut in cuts_for(ops.len()) {
        assert_restore_invisible(&p, StreamParams::default(), &ops, 5, cut);
    }
}

#[test]
fn restore_preserves_injected_store_deaths() {
    // Kill a quarter of the stores at their 64th update. Whether a kill
    // fires before or after the cut, the restored run must agree with
    // the uninterrupted one — the fault plan travels in the snapshot
    // and per-store update counters are restored exactly.
    let p = params(7);
    let sp = StreamParams {
        faults: FaultPlan::parse("kill-early@3").unwrap(),
        ..StreamParams::default()
    };
    let ds = two_phase_dynamic(p.grid, 800, 500, 3, 9);
    let mut rng = StdRng::seed_from_u64(9);
    let ops = interleaved_stream(&ds.kept, &ds.churn, &mut rng);

    let mut probe = build(&p, sp, 9);
    probe.process_all(&ops);
    assert!(
        probe.space_report().dead_stores > 0,
        "kill-early must kill stores for this test to bite"
    );

    for cut in [1, 40, ops.len() / 2, ops.len() - 1] {
        assert_restore_invisible(&p, sp, &ops, 9, cut);
    }
}

#[test]
fn natural_mid_stream_deaths_survive_restore() {
    // Cap-driven (non-injected) deaths: dead stores checkpoint as dead
    // and stay dead after restore.
    let p = params(7);
    let sp = StreamParams {
        cap_cells: 48,
        ..StreamParams::default()
    };
    let ds = two_phase_dynamic(p.grid, 900, 600, 3, 12);
    let mut rng = StdRng::seed_from_u64(12);
    let ops = interleaved_stream(&ds.kept, &ds.churn, &mut rng);

    let mut probe = build(&p, sp, 12);
    probe.process_all(&ops);
    assert!(probe.space_report().dead_stores > 0);

    for cut in [ops.len() / 4, ops.len() / 2, 3 * ops.len() / 4] {
        assert_restore_invisible(&p, sp, &ops, 12, cut);
    }
}

/// Shard builders sharing one grid + hash family, as `ShardedIngest`
/// and the distributed broadcast construct them.
fn sharded_builders(
    p: &CoresetParams,
    sp: StreamParams,
    seed: u64,
    s: usize,
) -> Vec<StreamCoresetBuilder> {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let grid = sbc_geometry::GridHierarchy::new(p.grid, &mut rng);
    let hash_seed: u64 = rng.gen();
    (0..s)
        .map(|_| {
            let mut hrng = StdRng::seed_from_u64(hash_seed);
            StreamCoresetBuilder::with_grid(p.clone(), sp, grid.clone(), &mut hrng)
        })
        .collect()
}

/// Routes ops by point identity so deletes meet their inserts.
fn partition_ops(ops: &[StreamOp], delta: u64, s: usize) -> Vec<Vec<StreamOp>> {
    let mut per = vec![Vec::new(); s];
    for op in ops {
        let key = op.point().key128(delta);
        let h = sbc_obs::fault::splitmix64((key as u64) ^ ((key >> 64) as u64));
        per[(h % s as u64) as usize].push(op.clone());
    }
    per
}

#[test]
fn shard_checkpoint_mid_stream_is_invisible_in_the_merge() {
    // Interrupt ONE shard of a sharded ingest mid-stream, round-trip it
    // through checkpoint bytes, resume, merge the fleet: the merged
    // checkpoint must be byte-identical to the uninterrupted sharded
    // run's — restore must be invisible even across the merge boundary.
    let p = params(7);
    let ds = two_phase_dynamic(p.grid, 900, 600, 3, 33);
    let mut rng = StdRng::seed_from_u64(33);
    let ops = interleaved_stream(&ds.kept, &ds.churn, &mut rng);
    let s = 3;
    let per_shard = partition_ops(&ops, p.grid.delta, s);

    let reference = {
        let mut shards = sharded_builders(&p, StreamParams::default(), 35, s);
        for (b, shard_ops) in shards.iter_mut().zip(&per_shard) {
            b.process_all(shard_ops);
        }
        StreamCoresetBuilder::merge_many(shards).expect("compatible")
    };

    for cut in [1, per_shard[0].len() / 2, per_shard[0].len()] {
        let mut shards = sharded_builders(&p, StreamParams::default(), 35, s);
        // Shard 0 crashes at `cut` and is revived from bytes alone.
        shards[0].process_all(&per_shard[0][..cut]);
        let bytes = shards[0].checkpoint().expect("checkpoints").to_bytes();
        let snap = Snapshot::from_bytes(&bytes).expect("round-trips");
        shards[0] = StreamCoresetBuilder::restore(&snap).expect("restores");
        shards[0].process_all(&per_shard[0][cut..]);
        for (b, shard_ops) in shards.iter_mut().zip(&per_shard).skip(1) {
            b.process_all(shard_ops);
        }
        let merged = StreamCoresetBuilder::merge_many(shards).expect("compatible");
        assert_eq!(
            reference.checkpoint().expect("ok").to_bytes(),
            merged.checkpoint().expect("ok").to_bytes(),
            "shard restore at cut {cut} leaked into the merged state"
        );
    }
}

#[test]
fn merge_node_checkpoint_mid_fold_is_invisible() {
    // Interrupt the merge TREE mid-fold: after merging shards (0,1),
    // checkpoint that interior node (merge_depth = 1 travels in the
    // snapshot), restore it, and fold in the rest. Must be bit-identical
    // to the uninterrupted fold, and the restored node must keep its
    // ε-budget depth.
    let p = params(7);
    let pts = gaussian_mixture(p.grid, 1200, 3, 0.05, 37);
    let ops: Vec<StreamOp> = insertion_stream(&pts);
    let s = 4;
    let per_shard = partition_ops(&ops, p.grid.delta, s);

    let run = |interrupt: bool| -> Vec<u8> {
        let mut shards = sharded_builders(&p, StreamParams::default(), 39, s);
        for (b, shard_ops) in shards.iter_mut().zip(&per_shard) {
            b.process_all(shard_ops);
        }
        let mut it = shards.into_iter();
        let (a, b, c, d) = (
            it.next().unwrap(),
            it.next().unwrap(),
            it.next().unwrap(),
            it.next().unwrap(),
        );
        let mut left = a.merge(b).expect("left node");
        assert_eq!(left.merge_depth(), 1);
        if interrupt {
            let bytes = left.checkpoint().expect("node checkpoints").to_bytes();
            let snap = Snapshot::from_bytes(&bytes).expect("round-trips");
            assert_eq!(snap.merge_depth, 1, "depth must travel in the snapshot");
            left = StreamCoresetBuilder::restore(&snap).expect("node restores");
            assert_eq!(left.merge_depth(), 1);
        }
        let right = c.merge(d).expect("right node");
        let root = left.merge(right).expect("root");
        assert_eq!(root.merge_depth(), 2);
        root.checkpoint().expect("ok").to_bytes()
    };

    assert_eq!(
        run(false),
        run(true),
        "merge-node restore perturbed the fold"
    );
}

#[test]
fn encode_decode_encode_is_byte_identity() {
    let p = params(6);
    let pts = gaussian_mixture(p.grid, 800, 2, 0.05, 17);
    let mut b = build(&p, StreamParams::default(), 17);
    b.insert_batch(&pts);
    let bytes = b.checkpoint().expect("checkpoints").to_bytes();
    let snap = Snapshot::from_bytes(&bytes).expect("decodes");
    assert_eq!(
        snap.to_bytes(),
        bytes,
        "snapshot serialization is not canonical"
    );
}

#[test]
fn finish_ref_emits_without_perturbing_the_run() {
    // Emitting mid-stream coresets (e.g. at every checkpoint) must not
    // change anything downstream: the final coreset equals the one from
    // a run that never called finish_ref, and finish_ref at end of
    // stream equals finish.
    let p = params(7);
    let pts = gaussian_mixture(p.grid, 1400, 3, 0.05, 19);

    let mut quiet = build(&p, StreamParams::default(), 19);
    quiet.insert_batch(&pts);

    let mut chatty = build(&p, StreamParams::default(), 19);
    chatty.insert_batch(&pts[..700]);
    let _ = chatty.finish_ref(); // mid-stream emission, result ignored
    chatty.insert_batch(&pts[700..]);
    let preview = chatty.finish_ref().expect("end-of-stream preview");

    let final_quiet = quiet.finish().expect("coreset");
    let final_chatty = chatty.finish().expect("coreset");
    assert_eq!(final_quiet.o, final_chatty.o);
    assert_eq!(final_quiet.entries(), final_chatty.entries());
    assert_eq!(preview.o, final_chatty.o);
    assert_eq!(preview.entries(), final_chatty.entries());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property: for arbitrary workload seeds, sizes and cut points,
    /// encode → decode → encode is the byte identity and the decoded
    /// snapshot equals the original structurally.
    #[test]
    fn snapshot_serialization_round_trips(
        seed in 0u64..1_000,
        n in 60usize..400,
        cut_permille in 0u32..=1_000,
    ) {
        let p = params(6);
        let pts = gaussian_mixture(p.grid, n, 2, 0.06, seed);
        let ops: Vec<StreamOp> = insertion_stream(&pts);
        let cut = (ops.len() as u64 * cut_permille as u64 / 1_000) as usize;
        let mut b = build(&p, StreamParams::default(), seed);
        b.process_all(&ops[..cut]);
        let snap = b.checkpoint().expect("checkpoints");
        let bytes = snap.to_bytes();
        let decoded = Snapshot::from_bytes(&bytes).expect("decodes");
        prop_assert_eq!(&decoded, &snap);
        prop_assert_eq!(decoded.to_bytes(), bytes);
    }
}

/// A small version-4 image: a short ladder over a churned stream, with
/// evicted payloads and an injected store death.
fn small_v4_image() -> Vec<u8> {
    let p = params(5);
    let sp = StreamParams {
        o_ladder_max: Some(16.0),
        faults: FaultPlan::parse("kill-early@5").unwrap(),
        ..StreamParams::default()
    };
    let pts = gaussian_mixture(p.grid, 40, 2, 0.05, 31);
    let mut b = build(&p, sp, 31);
    b.insert_batch(&pts);
    b.process_all(
        &pts[..25]
            .iter()
            .cloned()
            .map(StreamOp::Delete)
            .collect::<Vec<_>>(),
    );
    let mut snap = b.checkpoint().unwrap();
    snap.metrics = Default::default();
    snap.to_bytes()
}

/// Decodes and restores `bytes`; every accepted image must restore into
/// a builder that checkpoints back to the same image (metrics aside).
fn decode_and_restore(bytes: &[u8]) -> Result<(), CheckpointError> {
    let mut snap = Snapshot::from_bytes(bytes)?;
    let restored = StreamCoresetBuilder::restore(&snap)?;
    snap.metrics = Default::default();
    let mut again = restored.checkpoint().unwrap();
    again.metrics = Default::default();
    let (a, b) = (again.to_bytes(), snap.to_bytes());
    assert!(
        a == b,
        "accepted image is canonical: first diff at {:?} of {}/{}",
        a.iter().zip(&b).position(|(x, y)| x != y),
        a.len(),
        b.len()
    );
    let _ = restored.space_report();
    Ok(())
}

#[test]
fn corrupted_checkpoints_fail_loudly() {
    let p = params(6);
    let pts = gaussian_mixture(p.grid, 400, 2, 0.05, 23);
    let mut b = build(&p, StreamParams::default(), 23);
    b.insert_batch(&pts);
    let bytes = b.checkpoint().unwrap().to_bytes();

    assert_eq!(
        Snapshot::from_bytes(&bytes[1..]),
        Err(CheckpointError::BadMagic)
    );
    assert_eq!(
        Snapshot::from_bytes(&bytes[..bytes.len() - 1]),
        Err(CheckpointError::Malformed)
    );
    // Flipping a version byte must not decode as some other snapshot.
    let mut wrong = bytes.clone();
    wrong[8] ^= 0xFF;
    assert!(matches!(
        Snapshot::from_bytes(&wrong),
        Err(CheckpointError::UnsupportedVersion { .. })
    ));

    // Every proper prefix of a small version-4 image is refused, and
    // every single-byte flip is refused or restores into a builder
    // whose checkpoint is the flipped image. Nothing panics.
    let small = small_v4_image();
    assert!(small.len() < 40_000, "{} bytes", small.len());
    assert_eq!(decode_and_restore(&small), Ok(()));
    for len in 0..small.len() {
        assert!(Snapshot::from_bytes(&small[..len]).is_err(), "prefix {len}");
    }
    let mut accepted = 0;
    for at in 12..small.len() {
        for flip in [0x01, 0x80, 0xFF] {
            let mut bad = small.clone();
            bad[at] ^= flip;
            accepted += usize::from(decode_and_restore(&bad).is_ok());
        }
    }
    assert!(
        accepted > 0,
        "some flips (counters, multiplicities) are benign"
    );

    // A length prefix claiming more elements than bytes remain is
    // refused before anything is allocated for it: here, the arena list.
    let mut empty = Snapshot::from_bytes(&small).unwrap();
    empty.stores.clear();
    let head = empty.to_bytes();
    let stores_at = head.len() - sbc_streaming::codec::to_bytes(&empty.metrics).len() - 8;
    let mut huge = small.clone();
    huge[stores_at..stores_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    assert_eq!(Snapshot::from_bytes(&huge), Err(CheckpointError::Malformed));
}

#[test]
fn restore_rejects_shape_mismatches() {
    let p = params(6);
    let pts = gaussian_mixture(p.grid, 400, 2, 0.05, 29);
    let mut b = build(&p, StreamParams::default(), 29);
    b.insert_batch(&pts);
    let snap = b.checkpoint().unwrap();
    let malformed = |s: &Snapshot| {
        matches!(
            StreamCoresetBuilder::restore(s),
            Err(CheckpointError::Malformed)
        )
    };

    // An arena list that contradicts the embedded parameters.
    let mut truncated = snap.clone();
    truncated.stores.pop();
    assert!(malformed(&truncated));
    let mut extra = snap.clone();
    extra.stores.push(snap.stores[0].clone());
    assert!(malformed(&extra));

    // An arena with a view missing.
    let mut short_ladder = snap.clone();
    short_ladder.stores[3].views.pop();
    assert!(malformed(&short_ladder));

    // A payload point whose recorded cut is not the one its hash gives.
    let mut bad_cut = snap.clone();
    let point = bad_cut
        .stores
        .iter_mut()
        .flat_map(|st| st.cells.iter_mut())
        .flat_map(|c| c.points.iter_mut())
        .next()
        .expect("some payload");
    point.cut += 1;
    assert!(malformed(&bad_cut));

    // Hash coefficient families of the wrong arity.
    let mut short_hashes = snap;
    short_hashes.h_coeffs.pop();
    assert!(malformed(&short_hashes));
}
