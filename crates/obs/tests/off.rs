//! The build without the `obs` feature records nothing, however hard it
//! is asked to: every runtime flag is switched on, every recorder is
//! called, and the metrics registry, the flight recorder, the service
//! plane and the tracking allocator must all stay empty, and no dump
//! file may appear. This binary installs [`TrackingAlloc`] globally, so
//! merely running it in the off state also shows the allocator passes
//! straight through to the system allocator.
//!
//! Run: `cargo test -p sbc-obs --test off` (default features). Under
//! `--features obs` the tests are reported as ignored.

use sbc_obs::alloc::{self, Component, TrackingAlloc};
use sbc_obs::svc::{self, Gauge, RequestClass, RequestId, RequestTag, SlowRequestConfig};
use sbc_obs::trace::{self, CausalIds, TraceKind};

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

/// A fresh, empty directory for dump files, unique to this process and
/// test.
fn dump_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sbc-obs-off-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Asserts `dir` is still empty, then removes it.
fn assert_nothing_written(dir: &std::path::Path) {
    let written: Vec<_> = std::fs::read_dir(dir).unwrap().collect();
    assert!(written.is_empty(), "off build wrote files: {written:?}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
#[cfg_attr(feature = "obs", ignore = "checks the build without the `obs` feature")]
fn metrics_are_inert_even_when_asked_to_enable() {
    sbc_obs::set_enabled(true);
    assert!(!sbc_obs::enabled(), "off build cannot enable recording");
    sbc_obs::counter!("off.test.counter").add(5);
    sbc_obs::counter("off.test.counter.slow").incr();
    sbc_obs::histogram!("off.test.hist").record(42);
    sbc_obs::histogram("off.test.hist.slow").record(7);
    {
        let _span = sbc_obs::span!("off.test.span_ns");
    }
    let snap = sbc_obs::snapshot();
    sbc_obs::merge_snapshot(&sbc_obs::MetricsSnapshot {
        feature_enabled: true,
        counters: vec![("off.test.merged".into(), 3)],
        histograms: Vec::new(),
    });
    assert!(!snap.feature_enabled);
    assert!(snap.counters.is_empty(), "nothing registers");
    assert!(snap.histograms.is_empty());
    assert!(snap.is_empty());
    assert_eq!(sbc_obs::snapshot(), snap, "merging interns nothing");
}

#[test]
#[cfg_attr(feature = "obs", ignore = "checks the build without the `obs` feature")]
fn trace_recorder_is_inert_even_when_asked_to_enable() {
    let dir = dump_dir("trace");
    trace::set_enabled(true);
    trace::set_capacity(16);
    trace::set_crash_dir(Some(dir.clone()));
    assert!(!trace::enabled(), "off build cannot enable tracing");
    assert_eq!(trace::capacity(), 0);
    trace::event(TraceKind::Instant, "off.test", CausalIds::NONE, 1);
    trace::instant("off.test", CausalIds::NONE, 2);
    {
        let _span = trace::span("off.test.span", CausalIds::NONE, 3);
    }
    // A fault would dump the ring if the recorder were live.
    trace::event(TraceKind::Fault, "off_fault", CausalIds::NONE.store(5), 4);
    assert!(!trace::crash_dump_now("off", "never written"));
    assert!(!trace::dump_named("off-named", "never written"));
    let snap = trace::snapshot();
    assert!(!snap.feature_enabled);
    assert_eq!(snap.capacity, 0);
    assert_eq!(snap.total_events(), 0);
    assert!(snap.threads.is_empty());
    trace::set_crash_dir(None);
    assert_nothing_written(&dir);
}

#[test]
#[cfg_attr(feature = "obs", ignore = "checks the build without the `obs` feature")]
fn request_timer_reads_zero() {
    sbc_obs::set_enabled(true);
    trace::set_enabled(true);
    let t = svc::RequestTimer::start();
    assert_eq!(t.elapsed_ns(), 0);
}

#[test]
#[cfg_attr(feature = "obs", ignore = "checks the build without the `obs` feature")]
fn slow_request_trigger_never_fires_even_when_fully_armed() {
    // Arm everything a live build would need: a crash dir, an enabled
    // trace flag, a one-nanosecond threshold and a probe-every-request
    // config. The off build must still refuse.
    let dir = dump_dir("svc");
    trace::set_enabled(true);
    trace::set_crash_dir(Some(dir.clone()));
    svc::set_slow_request(SlowRequestConfig {
        threshold_ns: 1,
        probe_seed: 7,
        probe_every: 1,
        max_dumps: u64::MAX,
    });
    assert_eq!(
        svc::slow_request_config(),
        SlowRequestConfig::DISABLED,
        "off build cannot install a slow-request config"
    );
    for seq in 0..64 {
        let rid = RequestId::for_tenant(seq % 5, seq);
        assert!(
            !svc::maybe_dump_slow(rid, u64::MAX),
            "off build must never dump"
        );
    }
    assert_eq!(svc::slow_dumps(), 0);
    trace::set_crash_dir(None);
    assert_nothing_written(&dir);
}

#[test]
#[cfg_attr(feature = "obs", ignore = "checks the build without the `obs` feature")]
fn service_metrics_are_inert_even_when_asked_to_enable() {
    sbc_obs::set_enabled(true);
    svc::set_metrics_enabled(true);
    assert!(!svc::metrics_active(), "off build cannot enable metrics");
    let rid = RequestId::for_tenant(3, 9);
    svc::observe_request(RequestClass::Single, RequestTag::Insert, rid, 1234, None);
    svc::observe_request(
        RequestClass::Sharded,
        RequestTag::Query,
        rid,
        5678,
        Some(210),
    );
    svc::observe_tenant_state(3, svc::TenantState::Live, 4096);
    svc::observe_restore(rid);
    svc::observe_migration(svc::MigrationEvent::Out, 1);
    svc::observe_migration(svc::MigrationEvent::Replayed, 128);
    svc::set_gauge(Gauge::TenantsLive, 42);
    assert_eq!(svc::gauge(Gauge::TenantsLive), 0, "gauges never store");
    assert!(
        svc::sampled_counters().is_empty(),
        "nothing is ever sampled"
    );
    let snap = sbc_obs::snapshot();
    assert!(snap.is_empty(), "nothing registers in the registry");
    assert!(snap.counters.is_empty() && snap.histograms.is_empty());
}

#[test]
#[cfg_attr(feature = "obs", ignore = "checks the build without the `obs` feature")]
fn allocator_tracking_stays_inert_under_allocation_pressure() {
    alloc::set_enabled(true);
    let _guard = alloc::scope(Component::Arena);
    let mut big: Vec<u64> = (0..65_536).collect();
    big.extend(0..65_536); // grows through `realloc`
    let zeroed = vec![0u64; 4096]; // `alloc_zeroed`
    assert_eq!(big.len() + zeroed.len(), 135_168);
    assert!(!alloc::tracking_active());
    let snap = alloc::snapshot();
    assert!(!snap.tracking);
    assert_eq!(snap.total.allocs, 0);
    assert_eq!(snap.total.live_bytes, 0);
    assert_eq!(snap.components.len(), alloc::NUM_COMPONENTS);
    assert!(snap
        .components
        .iter()
        .all(|(_, s)| *s == Default::default()));
    assert!(snap.details.is_empty());
    alloc::__bench_record_pair(1024);
    assert_eq!(alloc::snapshot().total.allocs, 0);
}

#[test]
#[cfg_attr(feature = "obs", ignore = "checks the build without the `obs` feature")]
fn detail_scope_is_inert_too() {
    let _guard = alloc::scope_detail(Component::Sketches, 1, 3);
    let v = vec![0u8; 4096];
    assert_eq!(v.len(), 4096);
    assert!(alloc::snapshot().details.is_empty());
}
