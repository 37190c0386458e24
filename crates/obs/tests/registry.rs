//! The live side of the metrics registry: it records, gates on the
//! runtime flag, resets, merges and snapshots deterministically. The
//! off side is `tests/off.rs`.
//!
//! Run: `cargo test -p sbc-obs --features obs --test registry`.
#![cfg(feature = "obs")]

use std::sync::Mutex;

/// The registry (and the enable flag) are process-global; tests in
/// this binary serialize on this lock instead of racing.
static GUARD: Mutex<()> = Mutex::new(());

#[test]
fn registry_records_gates_and_resets() {
    let _g = GUARD.lock().unwrap();
    // Runtime-disabled: registered but idle.
    sbc_obs::reset();
    sbc_obs::set_enabled(false);
    sbc_obs::counter!("obs.test.idle").add(9);
    assert_eq!(sbc_obs::snapshot().counter("obs.test.idle"), Some(0));

    // Enabled: counts accumulate, macro caching returns one handle.
    sbc_obs::set_enabled(true);
    for _ in 0..3 {
        sbc_obs::counter!("obs.test.c").add(2);
    }
    sbc_obs::counter("obs.test.c").incr(); // slow path, same metric
    assert_eq!(sbc_obs::snapshot().counter("obs.test.c"), Some(7));

    // Histogram bucketing: 0 → le 0; 5 → le 7; 1024 → le 2047.
    let h = sbc_obs::histogram!("obs.test.h");
    h.record(0);
    h.record(5);
    h.record(1024);
    let snap = sbc_obs::snapshot();
    let hs = snap.histogram("obs.test.h").unwrap();
    assert_eq!(hs.count, 3);
    assert_eq!(hs.sum, 1029);
    assert_eq!(hs.buckets, vec![(0, 1), (7, 1), (2047, 1)]);

    // Span records some elapsed ns.
    {
        let _span = sbc_obs::span!("obs.test.span_ns");
        std::hint::black_box(1 + 1);
    }
    let snap = sbc_obs::snapshot();
    assert!(snap.feature_enabled);
    assert_eq!(snap.histogram("obs.test.span_ns").unwrap().count, 1);

    // Names are sorted in snapshots.
    let names: Vec<&String> = snap.counters.iter().map(|(n, _)| n).collect();
    let mut sorted = names.clone();
    sorted.sort();
    assert_eq!(names, sorted);

    // Reset zeroes values but keeps registration.
    sbc_obs::reset();
    let snap = sbc_obs::snapshot();
    assert_eq!(snap.counter("obs.test.c"), Some(0));
    assert_eq!(snap.histogram("obs.test.h").unwrap().count, 0);
    assert!(snap.is_empty());
    sbc_obs::set_enabled(false);
}

#[test]
fn parallel_increments_merge_exactly() {
    // Atomic counters must not lose updates under contention.
    let _g = GUARD.lock().unwrap();
    sbc_obs::reset();
    sbc_obs::set_enabled(true);
    let threads: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(|| {
                for _ in 0..10_000 {
                    sbc_obs::counter!("obs.test.parallel").incr();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(
        sbc_obs::snapshot().counter("obs.test.parallel"),
        Some(80_000)
    );
}

#[test]
fn merge_snapshot_is_a_monotonic_fold_not_an_add() {
    let _g = GUARD.lock().unwrap();
    sbc_obs::reset();
    sbc_obs::set_enabled(true);
    sbc_obs::counter!("obs.test.merge.c").add(5);
    sbc_obs::histogram!("obs.test.merge.h").record(100);
    let cut = sbc_obs::snapshot();

    // Same-process restore: the registry has grown since the cut, so
    // folding the old snapshot back must be a no-op — an additive
    // merge would re-count the cut and explode under eviction churn.
    sbc_obs::counter!("obs.test.merge.c").add(3);
    sbc_obs::histogram!("obs.test.merge.h").record(100);
    sbc_obs::merge_snapshot(&cut);
    let now = sbc_obs::snapshot();
    assert_eq!(now.counter("obs.test.merge.c"), Some(8));
    assert_eq!(now.histogram("obs.test.merge.h").unwrap().count, 2);

    // Fresh-process restore (registry reads zero): the fold brings
    // every metric back to exactly its snapshot reading.
    sbc_obs::reset();
    sbc_obs::merge_snapshot(&cut);
    let restored = sbc_obs::snapshot();
    assert_eq!(restored.counter("obs.test.merge.c"), Some(5));
    let h = restored.histogram("obs.test.merge.h").unwrap();
    assert_eq!((h.count, h.sum), (1, 100));
    assert_eq!(
        h.buckets,
        cut.histogram("obs.test.merge.h").unwrap().buckets
    );
    sbc_obs::set_enabled(false);
}
