//! Live-side service-observability integration: request spans stitching
//! into one causal chain per request, per-tenant SLO histograms and
//! error counters, deterministic slow-request dumps under seeded chaos,
//! and the health record over the wire. This is the "feature on" half
//! of the contract whose inertness half lives in
//! `crates/obs/tests/off.rs`: every test but the health report returns
//! at once unless `sbc_obs::COMPILED`.
//!
//! Run: `cargo test -p sbc-serve --features obs --test service_obs`
//! (or `--features sbc-obs/obs` from anywhere in the workspace).

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use sbc::api::{ApiError, TenantSpec};
use sbc::{FaultPlan, GridParams, Point};
use sbc_obs::svc::{self, RequestId, SlowRequestConfig};
use sbc_obs::trace::{self, TraceKind};
use sbc_serve::{Client, CoresetService, InProcess, Lossy, ServeConfig, Transport};

/// The flight recorder, crash dir, slow-request trigger, and metric
/// registries are process-global; tests that touch them must not
/// interleave.
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poison| poison.into_inner())
}

fn points(spec: &TenantSpec, n: usize, seed: u64) -> Vec<Point> {
    let gp = GridParams::from_log_delta(spec.log_delta, spec.dims as usize);
    sbc::geometry::dataset::gaussian_mixture(gp, n, 2, 0.08, seed)
}

/// Drives a fixed tenant workload (open, insert, query, evict,
/// restore-by-insert, close) through whatever transport the client
/// wraps. Protocol-level errors (a Lossy transport exhausting retries)
/// are tolerated — the traffic pattern is what matters.
fn drive<T: Transport>(client: &mut Client<T>, tenants: u64, spec: &TenantSpec) {
    for t in 0..tenants {
        let _ = client.open(t, *spec);
    }
    for t in 0..tenants {
        let pts = points(spec, 24, 100 + t);
        let _ = client.insert(t, &pts);
        let _ = client.query(t);
        let _ = client.evict(t);
        let _ = client.insert(t, &pts[..4]);
        let _ = client.stats(t);
    }
    let _ = client.close(0);
}

/// Arms the flight recorder plus the slow-request probe against a fresh
/// dump directory, runs the seeded chaos workload once, and returns the
/// sorted dump file names it produced.
fn chaos_run(dir: &PathBuf) -> Vec<String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    sbc_obs::reset();
    svc::reset();
    trace::reset();
    trace::set_enabled(true);
    trace::set_crash_dir(Some(dir.clone()));
    svc::set_slow_request(SlowRequestConfig {
        threshold_ns: 0, // wall time plays no part: probe only
        probe_seed: 0xD5,
        probe_every: 4,
        max_dumps: 0,
    });

    let plan = FaultPlan::parse("chaos@7").expect("known profile");
    let mut client = Client::new(Lossy::new(
        CoresetService::new(ServeConfig::default()),
        plan,
        3,
    ));
    client.hello().expect("hello");
    let spec = TenantSpec {
        seed: 21,
        ..TenantSpec::default()
    };
    drive(&mut client, 4, &spec);

    svc::set_slow_request(SlowRequestConfig::DISABLED);
    trace::set_crash_dir(None);
    trace::set_enabled(false);

    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

#[test]
fn slow_request_dumps_are_deterministic_under_seeded_chaos() {
    if !sbc_obs::COMPILED {
        return;
    }
    let _guard = exclusive();
    let dir_a = std::env::temp_dir().join("sbc-svc-obs-chaos-a");
    let dir_b = std::env::temp_dir().join("sbc-svc-obs-chaos-b");
    let first = chaos_run(&dir_a);
    let second = chaos_run(&dir_b);

    assert!(
        !first.is_empty(),
        "a 1-in-4 probe over this workload must select requests"
    );
    assert_eq!(
        first, second,
        "identical seeds must dump identical request sets"
    );
    for name in &first {
        assert!(
            name.starts_with("slow-") && name.ends_with(".json"),
            "dump names follow slow-<tenant>-<seq>.json, got {name}"
        );
        let text = std::fs::read_to_string(dir_a.join(name)).unwrap();
        let doc = sbc_obs::json::JsonValue::parse(&text).expect("dump parses as JSON");
        let reason = doc.get("reason").and_then(|r| r.as_str()).unwrap();
        assert!(
            reason.contains("slow-request probe"),
            "dump records why it fired: {reason}"
        );
        assert!(
            doc.get("events")
                .and_then(sbc_obs::json::JsonValue::as_array)
                .is_some_and(|e| !e.is_empty()),
            "dump carries flight-recorder events"
        );
    }
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn slow_dump_budget_stops_the_trigger_from_filling_the_disk() {
    if !sbc_obs::COMPILED {
        return;
    }
    let _guard = exclusive();
    let dir = std::env::temp_dir().join("sbc-svc-obs-budget");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    svc::reset();
    trace::reset();
    trace::set_enabled(true);
    trace::set_crash_dir(Some(dir.clone()));
    svc::set_slow_request(SlowRequestConfig {
        threshold_ns: 1, // every request is "slow"
        probe_seed: 0,
        probe_every: 0,
        max_dumps: 3,
    });

    for seq in 1..=32 {
        trace::instant("svc.response", RequestId::for_tenant(1, seq).causal(), 0);
        svc::maybe_dump_slow(RequestId::for_tenant(1, seq), u64::MAX);
    }
    assert_eq!(svc::slow_dumps(), 3, "budget caps the dump count");
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 3);

    svc::set_slow_request(SlowRequestConfig::DISABLED);
    trace::set_crash_dir(None);
    trace::set_enabled(false);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn request_spans_stitch_into_one_causal_chain() {
    if !sbc_obs::COMPILED {
        return;
    }
    let _guard = exclusive();
    sbc_obs::reset();
    svc::reset();
    trace::reset();
    trace::set_enabled(true);

    let mut client = Client::new(InProcess::new(CoresetService::new(ServeConfig::default())));
    client.hello().expect("hello");
    let spec = TenantSpec {
        seed: 33,
        ..TenantSpec::default()
    };
    let tenant = 5u64;
    assert!(!client.open(tenant, spec).expect("open"));
    let pts = points(&spec, 16, 9);
    assert_eq!(client.insert(tenant, &pts).expect("insert"), 16);

    let snap = trace::snapshot();
    trace::set_enabled(false);

    // Every event this tenant's requests emitted carries
    // store_id = tenant + 1; group them by op_index (= request seq).
    let tenant_events: Vec<_> = snap
        .merged()
        .into_iter()
        .map(|(_, rec)| rec)
        .filter(|rec| rec.ids.store_id == tenant + 1)
        .collect();
    assert!(!tenant_events.is_empty(), "tenant requests left no events");

    // The insert was the third record (hello, open, insert), and its
    // chain must hold the root span, the backend span nested inside it,
    // and the response instant — all on one op_index.
    let insert_chain: Vec<_> = tenant_events
        .iter()
        .filter(|rec| rec.ids.op_index == 3)
        .collect();
    let begins: Vec<&str> = insert_chain
        .iter()
        .filter(|r| r.kind == TraceKind::SpanBegin)
        .map(|r| r.label)
        .collect();
    assert!(
        begins.contains(&"svc.request"),
        "chain misses the root span: {begins:?}"
    );
    assert!(
        begins.contains(&"svc.backend"),
        "chain misses the backend span: {begins:?}"
    );
    assert!(
        insert_chain
            .iter()
            .any(|r| r.kind == TraceKind::Instant && r.label == "svc.response"),
        "chain misses the response instant"
    );
    // A span chain is only a chain if it closes.
    assert_eq!(
        insert_chain
            .iter()
            .filter(|r| r.kind == TraceKind::SpanBegin)
            .count(),
        insert_chain
            .iter()
            .filter(|r| r.kind == TraceKind::SpanEnd)
            .count(),
        "spans in the chain must balance"
    );

    // The service-scoped hello wrapped its store id to "unset" — no
    // tenant chain may claim op 1.
    assert!(
        !tenant_events.iter().any(|rec| rec.ids.op_index == 1),
        "hello must stay store-less"
    );

    // The Perfetto export carries the same chain as named slices.
    let chrome = trace::chrome_trace(&snap);
    let names: Vec<&str> = chrome
        .get("traceEvents")
        .and_then(sbc_obs::json::JsonValue::as_array)
        .expect("traceEvents array")
        .iter()
        .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
        .collect();
    for expected in ["svc.request", "svc.backend", "svc.response"] {
        assert!(
            names.contains(&expected),
            "chrome trace misses {expected}: {names:?}"
        );
    }
}

#[test]
fn slo_histograms_and_error_counters_record_per_tenant_traffic() {
    if !sbc_obs::COMPILED {
        return;
    }
    let _guard = exclusive();
    sbc_obs::reset();
    svc::reset();
    sbc_obs::set_enabled(true);
    svc::set_metrics_enabled(true);

    let mut client = Client::new(InProcess::new(CoresetService::new(ServeConfig::default())));
    client.hello().expect("hello");
    let spec = TenantSpec {
        seed: 44,
        ..TenantSpec::default()
    };
    assert!(!client.open(8, spec).expect("open"));
    let pts = points(&spec, 32, 11);
    assert_eq!(client.insert(8, &pts).expect("insert"), 32);
    let _ = client.query(8).expect("query");

    // Insert into a tenant that was never opened: the wire error's code
    // must land in its stable `svc.error.<code>` counter.
    let err = client.insert(777, &pts[..1]).expect_err("unopened tenant");
    let code = err.code();
    // Every code in 200–299 has its own series (here `Moved`, 246, the
    // newest); anything outside folds into `svc.error.other`.
    let moved = ApiError::Moved { tenant: 9, peer: 2 }.code();
    assert_eq!(moved, 246);
    let rid = RequestId::for_tenant(9, 1);
    svc::observe_request(
        svc::RequestClass::Single,
        svc::RequestTag::Insert,
        rid,
        10,
        Some(moved),
    );
    svc::observe_request(
        svc::RequestClass::Single,
        svc::RequestTag::Insert,
        rid,
        10,
        Some(999),
    );

    let snap = sbc_obs::snapshot();
    // The timeline sampler's view: gauges plus the per-tenant rows
    // (read before dropping the global flag — sampling gates on it).
    let sampled = svc::sampled_counters();
    sbc_obs::set_enabled(false);

    let hist = snap
        .histogram("svc.latency.single.insert")
        .expect("insert latencies registered");
    assert!(hist.count >= 2, "both inserts recorded, got {}", hist.count);
    let p50 = hist.quantile(0.5);
    let p999 = hist.quantile(0.999);
    assert!(p50 > 0 && p999 >= p50, "quantiles ordered: {p50} ≤ {p999}");
    assert!(
        snap.histogram("svc.latency.single.query")
            .is_some_and(|h| h.count >= 1),
        "query latencies registered"
    );
    assert_eq!(
        snap.counter(&format!("svc.error.{code}")),
        Some(1),
        "wire error code {code} counted once"
    );
    assert_eq!(snap.counter("svc.error.246"), Some(1), "Moved counted");
    assert_eq!(snap.counter("svc.error.999"), None, "no series for 999");
    assert_eq!(snap.counter("svc.error.other"), Some(1), "999 folded");

    let get = |name: &str| {
        sampled
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("missing sampled counter {name}"))
    };
    assert_eq!(get("svc.tenants.live"), 1);
    assert_eq!(get("svc.tenants.evicted"), 0);
    assert!(get("svc.tenant.8.ops") >= 3, "open+insert+query tracked");
    assert_eq!(get("svc.tenant.777.errors"), 1);
    assert!(get("svc.tenant.8.p99_ns") > 0);

    svc::set_metrics_enabled(true);
}

#[test]
fn health_report_over_the_wire_tracks_the_tenant_fleet() {
    let _guard = exclusive();
    let mut client = Client::new(InProcess::new(CoresetService::new(ServeConfig::default())));
    client.hello().expect("hello");

    let fresh = client.health().expect("health");
    assert_eq!(fresh.tenants_live, 0);
    assert_eq!(fresh.frame_errors, 0);
    assert!(!fresh.shutting_down);
    assert!(fresh.requests_total >= 1, "hello itself is counted");
    assert_eq!(
        fresh.budget_headroom_bytes,
        u64::MAX,
        "default config is unlimited"
    );

    let spec = TenantSpec {
        seed: 55,
        ..TenantSpec::default()
    };
    client.open(1, spec).expect("open");
    client.open(2, spec).expect("open");
    let pts = points(&spec, 16, 13);
    client.insert(1, &pts).expect("insert");
    client.evict(2).expect("evict");

    let report = client.health().expect("health");
    assert_eq!(report.tenants_live, 1);
    assert_eq!(report.tenants_evicted, 1);
    assert!(report.measured_bytes > 0, "live tenant is measured");
    assert!(report.spill_bytes > 0, "evicted tenant parked bytes");
    assert!(report.requests_total > fresh.requests_total);

    client.shutdown().expect("shutdown");
    let last = client.health().expect("health during shutdown");
    assert!(last.shutting_down);
}
