//! Space accounting must track *measured truth*, not just the Lemma
//! 4.2 worst-case product: `expected_sketch_bytes` (capacity-model at
//! realized occupancy) stays within a small constant factor of
//! `measured_bytes`, the nominal accounting's inflation is surfaced as
//! `nominal_to_measured_ratio`, peaks are monotone high-water marks,
//! and the arena backend's tombstone-purge bookkeeping shrinks what
//! really shrinks while staying bit-identical across checkpoint →
//! restore.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sbc_core::CoresetParams;
use sbc_geometry::dataset::{gaussian_mixture, two_phase_dynamic};
use sbc_geometry::GridParams;
use sbc_streaming::model::{insertion_stream, StreamOp};
use sbc_streaming::{Snapshot, StreamCoresetBuilder, StreamParams};

fn params(log_delta: u32) -> CoresetParams {
    CoresetParams::builder(3, GridParams::from_log_delta(log_delta, 2))
        .build()
        .unwrap()
}

fn build(p: &CoresetParams, sp: StreamParams, seed: u64) -> StreamCoresetBuilder {
    let mut rng = StdRng::seed_from_u64(seed);
    StreamCoresetBuilder::new(p.clone(), sp, &mut rng)
}

/// The satellite pin: on the canonical 4k-point run, the realized
/// capacity model of the (role, level) arenas — tables rounded up to a
/// power of two at their peak, plus view tallies and payloads — must
/// land within 4x of measured truth, unlike the nominal accounting of
/// every instance's store, whose inflation the ratio field quantifies.
#[test]
fn expected_sketch_bytes_tracks_measured_truth_within_4x() {
    let p = params(8);
    let pts = gaussian_mixture(p.grid, 4000, 3, 0.05, 11);
    let ops = insertion_stream(&pts);

    let mut b = build(&p, StreamParams::default(), 21);
    b.process_all(&ops);
    let rep = b.space_report();

    assert_eq!(
        rep.measured_bytes,
        rep.hash_bytes + rep.store_bytes,
        "measured is exactly the sum of its parts"
    );
    assert!(rep.measured_bytes > 0);

    // Within 4x of measured truth, in both directions: the capacity
    // model rounds up to powers of two (so it can exceed measured) but
    // omits per-point coordinate storage (so it can undershoot).
    assert!(
        rep.expected_sketch_bytes <= 4 * rep.measured_bytes,
        "expected {} vs measured {}: capacity model overshoots 4x",
        rep.expected_sketch_bytes,
        rep.measured_bytes
    );
    assert!(
        4 * rep.expected_sketch_bytes >= rep.measured_bytes,
        "expected {} vs measured {}: capacity model undershoots 4x",
        rep.expected_sketch_bytes,
        rep.measured_bytes
    );

    // The worst-case config product is the outlier, and the ratio says
    // by how much. (On the 4k robustness profile it sits several orders
    // of magnitude above truth; `expected` must not share the disease.)
    assert!(
        rep.nominal_sketch_bytes > 100 * rep.expected_sketch_bytes,
        "nominal {} should dwarf realized expected {}",
        rep.nominal_sketch_bytes,
        rep.expected_sketch_bytes
    );
    let ratio = rep.nominal_to_measured_ratio();
    assert!(
        ratio > 100.0,
        "nominal_to_measured_ratio {ratio} should expose the inflation"
    );
    let expect_ratio = rep.nominal_sketch_bytes as f64 / rep.measured_bytes as f64;
    assert!((ratio - expect_ratio).abs() <= expect_ratio * 1e-12);

    // The derived ratio also lands in the JSON report.
    let json = rep.to_json().to_string();
    assert!(json.contains("\"expected_sketch_bytes\""));
    assert!(json.contains("\"measured_bytes\""));
    assert!(json.contains("\"peak_measured_bytes\""));
    assert!(json.contains("\"nominal_to_measured_ratio\""));
}

/// `peak_measured_bytes` is a high-water mark over observation points:
/// it never decreases, survives a delete-heavy phase that shrinks the
/// live footprint, and folds across merges.
#[test]
fn peak_measured_bytes_is_a_monotone_high_water_mark() {
    let p = params(7);
    let data = two_phase_dynamic(p.grid, 600, 900, 3, 7);
    let inserts: Vec<StreamOp> = data
        .kept
        .iter()
        .chain(data.churn.iter())
        .cloned()
        .map(StreamOp::Insert)
        .collect();
    let deletes: Vec<StreamOp> = data.churn.iter().cloned().map(StreamOp::Delete).collect();

    let mut b = build(&p, StreamParams::default(), 3);
    b.process_all(&inserts);
    let full = b.space_report();
    assert!(full.peak_measured_bytes >= full.measured_bytes);

    b.process_all(&deletes);
    let after = b.space_report();
    assert!(
        after.measured_bytes < full.measured_bytes,
        "deleting 900 of 1500 points must shrink the live footprint \
         ({} -> {})",
        full.measured_bytes,
        after.measured_bytes
    );
    assert!(
        after.peak_measured_bytes >= full.peak_measured_bytes,
        "peak never decreases"
    );
    assert!(after.peak_measured_bytes >= after.measured_bytes);

    // Merging folds the peak: the merged builder's peak covers both
    // inputs' peaks.
    let mut left = build(&p, StreamParams::default(), 5);
    left.process_all(&inserts[..inserts.len() / 2]);
    let left_peak = left.space_report().peak_measured_bytes;
    let mut right = build(&p, StreamParams::default(), 5);
    right.process_all(&inserts[inserts.len() / 2..]);
    let right_peak = right.space_report().peak_measured_bytes;
    let merged_builder = left.merge(right).expect("same hash family, mergeable");
    let merged = merged_builder.space_report();
    assert!(merged.peak_measured_bytes >= left_peak.max(right_peak));
}

/// Tombstone-purge accounting on the arena backend: a delete-heavy
/// phase shrinks `arena_entries`, `store_bytes`, and `measured_bytes`,
/// while `arena_slots` stays at the deterministic peak-covering
/// capacity (by design — capacity depends on the peak live count, not
/// on the interleaving of inserts and deletes). All of it must survive
/// checkpoint → restore bit-identically.
#[test]
fn tombstone_purge_shrinks_measured_footprint_and_survives_restore() {
    let p = params(7);
    let sp = StreamParams::default();
    let data = two_phase_dynamic(p.grid, 400, 1200, 3, 13);
    let inserts: Vec<StreamOp> = data
        .kept
        .iter()
        .chain(data.churn.iter())
        .cloned()
        .map(StreamOp::Insert)
        .collect();
    let deletes: Vec<StreamOp> = data.churn.iter().cloned().map(StreamOp::Delete).collect();

    let mut b = build(&p, sp, 17);
    b.process_all(&inserts);
    let before = b.space_report();
    assert!(
        before.arena_slots > 0,
        "stores must actually run on flat arenas here"
    );
    assert!(before.arena_entries > 0);

    // Delete 1200 of the 1600 inserted points: inside each `OpenTable`
    // this tombstones slots and swap-removes entries; crossing the ⅞
    // occupancy bound with live + tombstones triggers same-capacity
    // rebuilds that purge the tombstones.
    b.process_all(&deletes);
    let after = b.space_report();
    assert!(
        after.arena_entries < before.arena_entries,
        "entries must shrink: {} -> {}",
        before.arena_entries,
        after.arena_entries
    );
    assert!(
        after.store_bytes < before.store_bytes,
        "dense entry storage must shrink: {} -> {}",
        before.store_bytes,
        after.store_bytes
    );
    assert!(after.measured_bytes < before.measured_bytes);
    assert_eq!(
        after.arena_slots, before.arena_slots,
        "slot capacity is deterministic in the peak live count; \
         tombstone churn must never change it"
    );
    // Load factor stays within the ⅞ growth bound.
    assert!(after.arena_entries * 8 <= after.arena_slots * 7);

    // Checkpoint → fresh-process restore: the restored builder reports
    // the identical footprint (capacity derives from the serialized
    // peak, not from transient physical state), except the builder-level
    // peak high-water mark, which intentionally restarts.
    let bytes = b.checkpoint().expect("arena stores checkpoint").to_bytes();
    drop(b);
    let snap = Snapshot::from_bytes(&bytes).expect("round-trips");
    let restored = StreamCoresetBuilder::restore(&snap).expect("restores");
    let mut got = restored.space_report();
    assert!(
        got.peak_measured_bytes <= after.peak_measured_bytes,
        "a restored builder restarts its peak from the restored footprint"
    );
    assert_eq!(got.peak_measured_bytes, got.measured_bytes);
    let mut want = after;
    want.peak_measured_bytes = 0;
    got.peak_measured_bytes = 0;
    assert_eq!(
        got, want,
        "space accounting survives restore bit-identically"
    );

    // And the encoding itself is canonical: re-checkpointing the
    // restored builder reproduces the original bytes.
    let again = restored.checkpoint().expect("still checkpointable");
    assert_eq!(again.to_bytes(), bytes);
}

/// Memory diet: arenas are sized to what they hold, not to their
/// stores' cell budgets α. The builder keeps one arena per (role,
/// level), each serving every `o`-instance's store of that role and
/// level as a view. A fresh library-default builder holds exactly the
/// 8-slot floor per arena; after a stationary sliding-window stream
/// (insert a batch, delete the oldest batch) the slots are at least a
/// quarter occupied; and the report survives checkpoint → restore
/// unchanged.
#[test]
fn arenas_are_sized_to_occupancy_not_to_alpha() {
    const WINDOW: usize = 600;
    const BATCH: usize = 40;
    let p = params(8);
    let sp = StreamParams::default();
    let mut b = build(&p, sp, 29);
    let fresh = b.space_report();
    // Roles h, h′ and ĥ, each at L + 1 levels; at log Δ = 8 every ĥ
    // level has stores at the top of the ladder.
    let arenas = 3 * (p.l() as usize + 1);
    assert!(fresh.live_stores > arenas);
    assert_eq!(
        fresh.arena_slots,
        8 * arenas,
        "a fresh builder holds {} arena slots over {arenas} arenas; \
         tables must start at the 8-slot floor, not at α",
        fresh.arena_slots,
    );

    let pts = gaussian_mixture(p.grid, 3000, 3, 0.05, 31);
    for (i, batch) in pts.chunks(BATCH).enumerate() {
        let mut ops: Vec<StreamOp> = batch.iter().cloned().map(StreamOp::Insert).collect();
        if let Some(old) = (i * BATCH).checked_sub(WINDOW) {
            ops.extend(pts[old..old + BATCH].iter().cloned().map(StreamOp::Delete));
        }
        b.process_all(&ops);
    }
    let rep = b.space_report();
    let load = rep.arena_entries as f64 / rep.arena_slots as f64;
    assert!(
        load >= 0.25,
        "arena_load_factor {load:.4} ({} entries in {} slots) below 0.25",
        rep.arena_entries,
        rep.arena_slots
    );

    let bytes = b.checkpoint().expect("arena stores checkpoint").to_bytes();
    let snap = Snapshot::from_bytes(&bytes).expect("round-trips");
    let restored = StreamCoresetBuilder::restore(&snap).expect("restores");
    let mut got = restored.space_report();
    let mut want = b.space_report();
    got.peak_measured_bytes = 0;
    want.peak_measured_bytes = 0;
    assert_eq!(got, want, "restore reports the same space");
}
