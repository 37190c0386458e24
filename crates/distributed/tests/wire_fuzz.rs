//! Wire-format robustness: decoding must be total (no panics) on
//! arbitrary bytes, and a machine's upload — its builder's checkpoint
//! image — must round-trip exactly.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sbc_core::CoresetParams;
use sbc_distributed::wire::{from_bytes, to_bytes};
use sbc_geometry::dataset::gaussian_mixture;
use sbc_geometry::{CellId, GridParams, Point};
use sbc_streaming::{Snapshot, StreamCoresetBuilder, StreamParams};
use std::sync::OnceLock;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes never panic the decoder — they decode or they
    /// return None.
    #[test]
    fn decoder_is_total_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = from_bytes::<Vec<(CellId, i64)>>(&bytes);
        let _ = from_bytes::<Point>(&bytes);
        let _ = from_bytes::<Option<String>>(&bytes);
    }

    /// A machine image cut anywhere and continued with garbage decodes
    /// or is rejected, and a decodable one restores or is rejected —
    /// never a panic.
    #[test]
    fn machine_image_with_garbage_tail_does_not_panic(
        keep in 0usize..1 << 16,
        tail in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let image = machine_image();
        let mut bytes = image[..keep % image.len()].to_vec();
        bytes.extend_from_slice(&tail);
        if let Ok(snap) = Snapshot::from_bytes(&bytes) {
            let _ = StreamCoresetBuilder::restore(&snap);
        }
    }

    /// Snapshot decoding (which shares the wire codec) is total on
    /// garbage too — it errors, it never panics. Covers both versions
    /// read: 3 (per view) and 4 (per arena, what machines upload).
    #[test]
    fn snapshot_decoder_is_total_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = Snapshot::from_bytes(&bytes);
        // Valid magic + version but garbage body must also be rejected
        // gracefully.
        for version in [3u8, 4] {
            let mut framed = b"SBCCKPT\0".to_vec();
            framed.extend_from_slice(&[version, 0, 0, 0]);
            framed.extend_from_slice(&bytes);
            let _ = Snapshot::from_bytes(&framed);
        }
    }

    /// Bit-flipping a real merged-node snapshot never panics the
    /// decoder: it still decodes or it is rejected.
    #[test]
    fn mutated_snapshots_do_not_panic(
        flip_at in 0usize..4096,
        xor in 1u8..=255,
    ) {
        let bytes = merged_snapshot_bytes();
        let mut mutated = bytes.clone();
        let i = flip_at % mutated.len();
        mutated[i] ^= xor;
        if let Ok(snap) = Snapshot::from_bytes(&mutated) {
            // Restoring from a decodable-but-corrupted snapshot may
            // error (shape mismatch) but must not panic either.
            let _ = StreamCoresetBuilder::restore(&snap);
        }
    }

    /// Bit-flipping a valid encoding either still decodes (to something)
    /// or is rejected — never a panic.
    #[test]
    fn mutated_encodings_do_not_panic(
        flip_at in 0usize..64,
        xor in 1u8..=255,
    ) {
        let cell = CellId { level: 3, coords: vec![5, -2, 9] };
        let mut bytes = to_bytes(&vec![(cell, 42i64)]);
        if flip_at < bytes.len() {
            bytes[flip_at] ^= xor;
        }
        let _ = from_bytes::<Vec<(CellId, i64)>>(&bytes);
    }
}

/// A checkpoint of a real merged interior node (`merge_depth = 1`, a
/// non-default `StreamParams::shards`) — the v3 snapshot surface.
fn merged_snapshot_bytes() -> Vec<u8> {
    use sbc_geometry::GridHierarchy;
    let gp = GridParams::from_log_delta(6, 2);
    let params = CoresetParams::builder(2, gp).build().unwrap();
    let sp = StreamParams {
        shards: 2,
        ..StreamParams::default()
    };
    let mut rng = StdRng::seed_from_u64(11);
    let grid = GridHierarchy::new(gp, &mut rng);
    let hash_seed: u64 = rand::Rng::gen(&mut rng);
    let mk = || {
        let mut hrng = StdRng::seed_from_u64(hash_seed);
        StreamCoresetBuilder::with_grid(params.clone(), sp, grid.clone(), &mut hrng)
    };
    let (mut a, mut b) = (mk(), mk());
    let pts = gaussian_mixture(gp, 300, 2, 0.06, 13);
    for (i, p) in pts.iter().enumerate() {
        if i % 2 == 0 {
            a.insert(p);
        } else {
            b.insert(p);
        }
    }
    let node = a.merge(b).expect("compatible shards");
    node.checkpoint().expect("checkpoints").to_bytes()
}

/// The v3 snapshot fields survive a byte round-trip exactly.
#[test]
fn merged_snapshot_roundtrips_with_v3_fields() {
    let bytes = merged_snapshot_bytes();
    let snap = Snapshot::from_bytes(&bytes).expect("decodes");
    assert_eq!(snap.merge_depth, 1);
    assert_eq!(snap.sparams.shards, 2);
    assert_eq!(snap.to_bytes(), bytes, "canonical encoding");
    let restored = StreamCoresetBuilder::restore(&snap).expect("restores");
    assert_eq!(restored.merge_depth(), 1);
}

/// What one machine of the protocol uploads: the checkpoint image of a
/// builder drawn from the shared seed after ingesting its shard, with
/// no metrics registry.
fn machine_image() -> &'static [u8] {
    static IMAGE: OnceLock<Vec<u8>> = OnceLock::new();
    IMAGE.get_or_init(|| {
        let mut snap = machine().checkpoint().expect("checkpoints");
        snap.metrics = Default::default();
        snap.to_bytes()
    })
}

fn machine() -> StreamCoresetBuilder {
    let gp = GridParams::from_log_delta(7, 2);
    let params = CoresetParams::builder(2, gp).build().unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let mut builder = StreamCoresetBuilder::new(params, StreamParams::default(), &mut rng);
    builder.insert_batch(&gaussian_mixture(gp, 800, 2, 0.05, 3));
    builder
}

/// A machine image round-trips byte for byte, and the restored builder
/// holds and finishes what the machine's did.
#[test]
fn machine_image_roundtrips_exactly() {
    let bytes = machine_image();
    let snap = Snapshot::from_bytes(bytes).expect("decodes");
    assert_eq!(snap.to_bytes(), bytes, "canonical encoding");
    let restored = StreamCoresetBuilder::restore(&snap).expect("restores");
    let original = machine();
    assert_eq!(restored.export_summaries(), original.export_summaries());
    assert_eq!(
        restored.finish_ref().map(|cs| cs.entries().to_vec()),
        original.finish_ref().map(|cs| cs.entries().to_vec())
    );
}

/// No proper prefix of a machine image decodes.
#[test]
fn truncated_machine_images_are_rejected() {
    let bytes = machine_image();
    for cut in (0..bytes.len()).step_by(97).chain([bytes.len() - 1]) {
        assert!(Snapshot::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
    }
}
