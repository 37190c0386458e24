//! Attribution correctness with the tracking allocator installed, the
//! `obs` feature on and recording switched on (`sbc_obs::set_enabled`,
//! the flag attribution shares with the metrics registry; no test here
//! switches it off). Each test claims a distinct component so
//! the global counters don't interfere across the parallel test
//! threads (allocations from other tests land in `untagged` or their
//! own component).
#![cfg(feature = "obs")]

use sbc_obs::alloc::{self, Component, TrackingAlloc};

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

fn stats(name: &str) -> alloc::AllocStats {
    alloc::snapshot().component(name).unwrap()
}

#[test]
fn scoped_allocations_are_attributed_and_freed_back() {
    sbc_obs::set_enabled(true);
    let before = stats("arena");
    let buf: Box<[u64]> = {
        let _g = alloc::scope(Component::Arena);
        vec![7u64; 8192].into_boxed_slice()
    };
    assert!(alloc::tracking_active());
    let during = stats("arena");
    assert!(
        during.live_bytes >= before.live_bytes + 64 * 1024,
        "arena live did not grow: {before:?} -> {during:?}"
    );
    assert!(during.allocs > before.allocs);
    drop(buf);
    let after = stats("arena");
    // Freed outside any scope, yet credited back to arena via the tag
    // byte written at allocation time.
    assert_eq!(after.live_bytes, before.live_bytes);
    assert!(after.deallocs > before.deallocs);
    assert!(after.peak_bytes >= during.live_bytes);
}

#[test]
fn detail_scopes_record_role_and_level() {
    sbc_obs::set_enabled(true);
    let before: u64 = alloc::snapshot()
        .details
        .iter()
        .filter(|d| d.role == 1 && d.level == 3)
        .map(|d| d.stats.allocs)
        .sum();
    {
        let _g = alloc::scope_detail(Component::Sketches, 1, 3);
        let v = vec![1u8; 4096];
        assert_eq!(v.len(), 4096);
    }
    let snap = alloc::snapshot();
    let slot = snap
        .details
        .iter()
        .find(|d| d.role == 1 && d.level == 3)
        .expect("detail slot (role 1, level 3) must appear");
    assert!(slot.stats.allocs > before);
    // Matched alloc/free within the scope: nothing stays live here
    // beyond what other concurrent tests contribute is impossible —
    // (1, 3) is only used by this test.
    assert_eq!(slot.stats.live_bytes, 0);
}

#[test]
fn cross_thread_frees_credit_the_allocating_component() {
    sbc_obs::set_enabled(true);
    let before = stats("flow");
    let v = {
        let _g = alloc::scope(Component::Flow);
        vec![0u8; 32 * 1024]
    };
    std::thread::spawn(move || drop(v)).join().unwrap();
    let after = stats("flow");
    assert_eq!(after.live_bytes, before.live_bytes);
    assert!(after.allocs > before.allocs);
    assert!(after.deallocs > before.deallocs);
}

#[test]
fn realloc_growth_stays_balanced() {
    sbc_obs::set_enabled(true);
    let before = stats("checkpoint");
    {
        let _g = alloc::scope(Component::Checkpoint);
        let mut v: Vec<u64> = Vec::new();
        for i in 0..10_000u64 {
            v.push(i);
        }
        assert_eq!(v.len(), 10_000);
    }
    let after = stats("checkpoint");
    assert_eq!(
        after.live_bytes, before.live_bytes,
        "realloc chain leaked attribution"
    );
    assert!(after.peak_bytes >= 80_000, "peak missed the grown vec");
}

#[test]
fn nested_scopes_restore_the_outer_component() {
    sbc_obs::set_enabled(true);
    let wire_before = stats("wire");
    let clustering_before = stats("clustering");
    let _outer = alloc::scope(Component::Wire);
    let inner_buf;
    {
        let _inner = alloc::scope(Component::Clustering);
        inner_buf = vec![0u8; 2048];
    }
    let outer_buf = vec![0u8; 4096];
    assert!(stats("clustering").allocs > clustering_before.allocs);
    assert!(stats("wire").allocs > wire_before.allocs);
    drop(inner_buf);
    drop(outer_buf);
    assert_eq!(stats("wire").live_bytes, wire_before.live_bytes);
    assert_eq!(stats("clustering").live_bytes, clustering_before.live_bytes);
}

#[test]
fn high_alignment_allocations_round_trip() {
    sbc_obs::set_enabled(true);
    // Alignments above the 16-byte minimum header exercise the
    // align-sized padding branch.
    #[repr(align(64))]
    struct Aligned([u8; 256]);
    let before = alloc::snapshot().total;
    let b = Box::new(Aligned([0u8; 256]));
    assert_eq!(b.0[0], 0);
    let addr = &*b as *const Aligned as usize;
    assert_eq!(addr % 64, 0, "alignment broken by header padding");
    drop(b);
    let after = alloc::snapshot().total;
    assert!(after.allocs > before.allocs);
}
