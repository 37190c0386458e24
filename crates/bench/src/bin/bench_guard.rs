//! Guards `BENCH_streaming.json` against regressions and schema drift.
//!
//! Compares a freshly generated report against the committed baseline
//! and exits non-zero when
//!
//! * the fresh report violates the expected schema (version, required
//!   sections, per-path fields), or
//! * a machine-independent throughput ratio (`speedup_vs_per_op` of the
//!   batched paths) regressed by more than the tolerance (15%), or
//! * memory regressed: the telemetry section's `peak_bytes_per_point`
//!   (peak measured bytes over the canonical 4k-point robustness run,
//!   per point — deterministic, so it gates as tightly as the speed
//!   ratios) grew past the baseline by more than the tolerance, or
//! * an arena load factor (`arena_load_factor` of
//!   `sharding.space_report.total` and of `robustness.space_report`) is
//!   below 0.25: arenas grow from occupancy, so a table sized to a
//!   nominal bound instead of to what it holds shows up here.
//!
//! Absolute ops/sec are *not* compared — they vary with the host — only
//! the relative speedups of the batched paths over the per-op reference
//! path measured in the same process: `stream_bench` times the paths in
//! interleaved rounds and reports the median of the per-round ratios.
//!
//! With `--prom <file>` the guard also validates a Prometheus
//! text-exposition artifact (e.g. the `.prom` sibling a `stream_bench
//! --telemetry-out` run leaves behind) via
//! [`sbc_obs::timeline::validate_prometheus`].
//!
//! Usage: `cargo run -p sbc-bench --bin bench_guard -- <fresh.json>
//! [<baseline.json>] [--prom <file>]` (the baseline defaults to the
//! committed `BENCH_streaming.json`).

use sbc_obs::json::JsonValue;

/// Maximum tolerated relative drop in a speedup ratio.
const TOLERANCE: f64 = 0.15;

/// Maximum tolerated service-observability overhead: with the `obs`
/// feature compiled in, the instrumented drive must keep at least this
/// fraction of the uninstrumented drive's throughput (<2% overhead).
const OBS_OVERHEAD_FLOOR: f64 = 0.98;

/// Absolute ceiling on the migration cutover's p99. Unlike the other
/// latency fields this IS gated despite being host truth: a cutover is
/// a handful of in-memory round trips over a frozen snapshot, so even
/// a slow CI box clears 250ms by orders of magnitude — and a protocol
/// bug that makes cutover wait on something (a re-ship, a retry storm)
/// blows straight past it.
const CUTOVER_P99_CEILING_NS: f64 = 250_000_000.0;

/// Floor on the fresh report's arena load factors (live entries over
/// reported slots). Tables double at ⅞ occupancy, so one at its peak
/// sits between 0.44 and 0.875; stores below their peak, and small ones
/// at the 8-slot floor, pull the aggregate down, and the floor leaves
/// room for that.
const ARENA_LOAD_FLOOR: f64 = 0.25;

/// The load factors held to [`ARENA_LOAD_FLOOR`], as key paths.
const ARENA_LOAD_FACTORS: [&[&str]; 2] = [
    &["sharding", "space_report", "total", "arena_load_factor"],
    &["robustness", "space_report", "arena_load_factor"],
];

/// Schema the fresh report must satisfy.
const SCHEMA_VERSION: u64 = 9;
const REQUIRED_TOP: [&str; 14] = [
    "schema_version",
    "git_commit",
    "generated_at",
    "workload",
    "n",
    "groups",
    "sharding",
    "robustness",
    "telemetry",
    "trace",
    "metrics",
    "serving",
    "service_obs",
    "migration",
];
/// Numeric fields of the `serving` section (`serve_bench` output).
const SERVING_NUMERIC: [&str; 18] = [
    "protocol_version",
    "tenants",
    "ops_per_tenant",
    "batch",
    "shards",
    "total_ops",
    "aggregate_ops_per_sec",
    "single_tenant_ops_per_sec",
    "multi_tenant_efficiency",
    "p50_admission_ns",
    "p99_admission_ns",
    "p999_admission_ns",
    "admission_samples",
    "peak_bytes_per_tenant",
    "identity_checks",
    "evictions",
    "restores",
    "overloaded",
];
/// Numeric fields of the `service_obs` section (`serve_bench` output).
const SERVICE_OBS_NUMERIC: [&str; 8] = [
    "metrics_disabled_ops_per_sec",
    "metrics_enabled_ops_per_sec",
    "overhead_ratio",
    "p50_request_ns",
    "p99_request_ns",
    "p999_request_ns",
    "request_samples",
    "slow_dumps",
];
/// Numeric fields of the `migration` section (`serve_bench` output).
const MIGRATION_NUMERIC: [&str; 14] = [
    "fleet_servers",
    "tenants",
    "chunk_bytes",
    "migrations",
    "drained",
    "cutovers",
    "chunks",
    "replayed_ops",
    "replay_queue_peak",
    "replay_queue_max_ops",
    "aborts",
    "p50_cutover_ns",
    "p99_cutover_ns",
    "identity_checks",
];
const GROUPS: [&str; 2] = ["insert_only", "mixed_deletion_heavy"];
const PATHS: [&str; 3] = ["per_op", "batched", "batched_parallel"];
const PATH_FIELDS: [&str; 3] = ["ops_per_sec", "seconds", "speedup_vs_per_op"];
const TRACE_FIELDS: [&str; 5] = [
    "feature_enabled",
    "buffer_events",
    "total_events",
    "dropped",
    "threads",
];

fn load(path: &str) -> JsonValue {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    JsonValue::parse(&text).unwrap_or_else(|e| fail(&format!("{path} is not valid JSON: {e}")))
}

fn fail(msg: &str) -> ! {
    eprintln!("bench_guard: FAIL: {msg}");
    std::process::exit(1);
}

/// Checks the fresh report's shape; returns an error string on drift.
fn check_schema(doc: &JsonValue, path: &str) -> Result<(), String> {
    let version = doc
        .get("schema_version")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("{path}: missing schema_version"))?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "{path}: schema_version {version}, expected {SCHEMA_VERSION}"
        ));
    }
    for key in REQUIRED_TOP {
        if doc.get(key).is_none() {
            return Err(format!("{path}: missing top-level section \"{key}\""));
        }
    }
    for key in TRACE_FIELDS {
        if doc.get("trace").and_then(|t| t.get(key)).is_none() {
            return Err(format!("{path}: trace section missing \"{key}\""));
        }
    }
    let groups = doc.get("groups").unwrap();
    for group in GROUPS {
        let g = groups
            .get(group)
            .ok_or_else(|| format!("{path}: missing group \"{group}\""))?;
        for p in PATHS {
            let pj = g
                .get(p)
                .ok_or_else(|| format!("{path}: group {group} missing path \"{p}\""))?;
            for field in PATH_FIELDS {
                if pj.get(field).and_then(JsonValue::as_f64).is_none() {
                    return Err(format!("{path}: {group}.{p} missing numeric \"{field}\""));
                }
            }
        }
    }
    if doc
        .get("robustness")
        .and_then(|r| r.get("space_report"))
        .is_none()
    {
        return Err(format!("{path}: robustness section missing space_report"));
    }
    // Sharding carries wall-clock comparisons that are deliberately NOT
    // gated (the speedup depends on the host's core count — see
    // threads_available); only its shape is pinned.
    let sharding = doc.get("sharding").unwrap();
    for key in ["shards", "threads_available", "speedup_vs_single"] {
        if sharding.get(key).and_then(JsonValue::as_f64).is_none() {
            return Err(format!(
                "{path}: sharding section missing numeric \"{key}\""
            ));
        }
    }
    for side in ["single_shard", "sharded"] {
        for field in ["seconds", "ops_per_sec"] {
            if sharding
                .get(side)
                .and_then(|s| s.get(field))
                .and_then(JsonValue::as_f64)
                .is_none()
            {
                return Err(format!(
                    "{path}: sharding.{side} missing numeric \"{field}\""
                ));
            }
        }
    }
    for key in ["shards", "total", "max_per_shard"] {
        if sharding
            .get("space_report")
            .and_then(|s| s.get(key))
            .is_none()
        {
            return Err(format!("{path}: sharding.space_report missing \"{key}\""));
        }
    }
    // Telemetry: memory-truth reconciliation plus the sampler/allocator
    // overhead figures. `alloc_tracking` varies with the feature matrix
    // (bool), everything else is numeric.
    let telemetry = doc.get("telemetry").unwrap();
    if telemetry
        .get("alloc_tracking")
        .and_then(JsonValue::as_bool)
        .is_none()
    {
        return Err(format!(
            "{path}: telemetry section missing boolean \"alloc_tracking\""
        ));
    }
    for key in ["cadence_ms", "samples", "rss_peak_bytes"] {
        if telemetry.get(key).and_then(JsonValue::as_f64).is_none() {
            return Err(format!(
                "{path}: telemetry section missing numeric \"{key}\""
            ));
        }
    }
    if telemetry
        .get("alloc")
        .and_then(|a| a.get("components"))
        .is_none()
    {
        return Err(format!(
            "{path}: telemetry.alloc missing per-component attribution"
        ));
    }
    for key in [
        "measured_bytes",
        "peak_measured_bytes",
        "expected_sketch_bytes",
        "nominal_sketch_bytes",
        "nominal_to_measured_ratio",
        "peak_bytes_per_point",
    ] {
        if telemetry
            .get("space")
            .and_then(|s| s.get(key))
            .and_then(JsonValue::as_f64)
            .is_none()
        {
            return Err(format!("{path}: telemetry.space missing numeric \"{key}\""));
        }
    }
    for key in ["alloc_pair_ns", "alloc_idle_pct", "sampling_pct"] {
        if telemetry
            .get("overhead")
            .and_then(|o| o.get(key))
            .and_then(JsonValue::as_f64)
            .is_none()
        {
            return Err(format!(
                "{path}: telemetry.overhead missing numeric \"{key}\""
            ));
        }
    }
    // Serving (v6): the multi-tenant service tier's load-generator
    // report. Identity is a hard boolean; the latency percentiles are
    // schema-checked but not ratio-gated (absolute ns is host truth).
    let serving = doc.get("serving").unwrap();
    for key in SERVING_NUMERIC {
        if serving.get(key).and_then(JsonValue::as_f64).is_none() {
            return Err(format!("{path}: serving section missing numeric \"{key}\""));
        }
    }
    if serving
        .get("coresets_bit_identical")
        .and_then(JsonValue::as_bool)
        .is_none()
    {
        return Err(format!(
            "{path}: serving section missing boolean \"coresets_bit_identical\""
        ));
    }
    for key in ["reject_overloaded", "shed_evictions"] {
        if serving
            .get("overload_drill")
            .and_then(|d| d.get(key))
            .and_then(JsonValue::as_f64)
            .is_none()
        {
            return Err(format!(
                "{path}: serving.overload_drill missing numeric \"{key}\""
            ));
        }
    }
    if serving
        .get("faults")
        .and_then(|f| f.get("profile"))
        .and_then(JsonValue::as_str)
        .is_none()
    {
        return Err(format!("{path}: serving.faults missing string \"profile\""));
    }
    for key in ["drops", "dups", "retries"] {
        if serving
            .get("faults")
            .and_then(|f| f.get(key))
            .and_then(JsonValue::as_f64)
            .is_none()
        {
            return Err(format!("{path}: serving.faults missing numeric \"{key}\""));
        }
    }
    // Service observability (v7): the instrumentation-overhead
    // comparison and the SLO-histogram percentiles.
    let service_obs = doc.get("service_obs").unwrap();
    if service_obs
        .get("feature_enabled")
        .and_then(JsonValue::as_bool)
        .is_none()
    {
        return Err(format!(
            "{path}: service_obs section missing boolean \"feature_enabled\""
        ));
    }
    for key in SERVICE_OBS_NUMERIC {
        if service_obs.get(key).and_then(JsonValue::as_f64).is_none() {
            return Err(format!(
                "{path}: service_obs section missing numeric \"{key}\""
            ));
        }
    }
    // Migration (v8): the 3-server fleet's live-migration report.
    let migration = doc.get("migration").unwrap();
    for key in MIGRATION_NUMERIC {
        if migration.get(key).and_then(JsonValue::as_f64).is_none() {
            return Err(format!(
                "{path}: migration section missing numeric \"{key}\""
            ));
        }
    }
    if migration
        .get("coresets_bit_identical")
        .and_then(JsonValue::as_bool)
        .is_none()
    {
        return Err(format!(
            "{path}: migration section missing boolean \"coresets_bit_identical\""
        ));
    }
    if migration
        .get("faults")
        .and_then(|f| f.get("profile"))
        .and_then(JsonValue::as_str)
        .is_none()
    {
        return Err(format!(
            "{path}: migration.faults missing string \"profile\""
        ));
    }
    Ok(())
}

/// A numeric leaf of the `migration` section, if present.
fn migration_num(doc: &JsonValue, key: &str) -> Option<f64> {
    doc.get("migration")?.get(key)?.as_f64()
}

/// A numeric leaf of the `serving` section, if present.
fn serving_num(doc: &JsonValue, key: &str) -> Option<f64> {
    doc.get("serving")?.get(key)?.as_f64()
}

/// `telemetry.space.peak_bytes_per_point` of a report, if present.
fn peak_bytes_per_point(doc: &JsonValue) -> Option<f64> {
    doc.get("telemetry")?
        .get("space")?
        .get("peak_bytes_per_point")?
        .as_f64()
}

/// The numeric leaf at `path` (a key per level), if present.
fn num_at(doc: &JsonValue, path: &[&str]) -> Option<f64> {
    path.iter()
        .try_fold(doc, |node, key| node.get(key))?
        .as_f64()
}

fn speedup(doc: &JsonValue, group: &str, path: &str) -> Option<f64> {
    doc.get("groups")?
        .get(group)?
        .get(path)?
        .get("speedup_vs_per_op")?
        .as_f64()
}

fn main() {
    let mut positional: Vec<String> = Vec::new();
    let mut prom_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--prom" => {
                prom_path = Some(
                    args.next()
                        .unwrap_or_else(|| fail("--prom needs a file path")),
                );
            }
            flag if flag.starts_with("--") => fail(&format!("unknown flag {flag}")),
            p => positional.push(p.to_string()),
        }
    }
    let fresh_path = positional.first().cloned().unwrap_or_else(|| {
        fail("usage: bench_guard <fresh.json> [<baseline.json>] [--prom <file>]")
    });
    let baseline_path = positional
        .get(1)
        .cloned()
        .unwrap_or_else(|| format!("{}/../../BENCH_streaming.json", env!("CARGO_MANIFEST_DIR")));

    let fresh = load(&fresh_path);
    let baseline = load(&baseline_path);

    if let Err(msg) = check_schema(&fresh, &fresh_path) {
        fail(&format!("schema drift — {msg}"));
    }

    // The per-op path is the shared denominator, so regressions in the
    // batched paths show up here no matter how fast the host is.
    let mut checked = 0usize;
    for group in GROUPS {
        for path in ["batched", "batched_parallel"] {
            let Some(base) = speedup(&baseline, group, path) else {
                // A pre-v3 baseline without this ratio cannot gate it.
                println!("bench_guard: note: baseline lacks {group}.{path}, skipping");
                continue;
            };
            let new = speedup(&fresh, group, path)
                .unwrap_or_else(|| fail(&format!("fresh report lacks {group}.{path}")));
            let floor = base * (1.0 - TOLERANCE);
            checked += 1;
            if new < floor {
                fail(&format!(
                    "throughput regression — {group}.{path} speedup_vs_per_op {new:.3} \
                     is below {floor:.3} (baseline {base:.3} − {:.0}%)",
                    TOLERANCE * 100.0
                ));
            }
            println!("bench_guard: {group}.{path}: {new:.3}x vs baseline {base:.3}x — ok");
        }
    }
    // Memory gate: peak measured bytes per point on the canonical
    // robustness run. Deterministic given logical state (the space
    // report never reads transient allocator capacities), so it is
    // host-independent like the ratios above — but it gates *upward*
    // drift, not downward.
    match peak_bytes_per_point(&baseline) {
        None => {
            // A pre-v5 baseline without the section cannot gate it.
            println!(
                "bench_guard: note: baseline lacks telemetry.space.peak_bytes_per_point, skipping"
            );
        }
        Some(base) => {
            let new = peak_bytes_per_point(&fresh)
                .unwrap_or_else(|| fail("fresh report lacks telemetry.space.peak_bytes_per_point"));
            let ceiling = base * (1.0 + TOLERANCE);
            checked += 1;
            if new > ceiling {
                fail(&format!(
                    "memory regression — peak_bytes_per_point {new:.1} exceeds {ceiling:.1} \
                     (baseline {base:.1} + {:.0}%)",
                    TOLERANCE * 100.0
                ));
            }
            println!(
                "bench_guard: telemetry.space.peak_bytes_per_point: {new:.1} vs baseline {base:.1} — ok"
            );
        }
    }
    // Arena occupancy: absolute, not relative to the baseline — the
    // load factor is deterministic given the workload, and a table that
    // is mostly empty slots is the regression.
    for path in ARENA_LOAD_FACTORS {
        let name = path.join(".");
        let load =
            num_at(&fresh, path).unwrap_or_else(|| fail(&format!("fresh report lacks {name}")));
        checked += 1;
        if load < ARENA_LOAD_FLOOR {
            fail(&format!(
                "memory regression — {name} {load:.4} is below {ARENA_LOAD_FLOOR:.2}"
            ));
        }
        println!("bench_guard: {name}: {load:.4} (floor {ARENA_LOAD_FLOOR:.2}) — ok");
    }
    // Serving gates. Identity is unconditional: a fresh report claiming
    // divergent coresets fails no matter what the baseline says.
    if fresh
        .get("serving")
        .and_then(|s| s.get("coresets_bit_identical"))
        .and_then(JsonValue::as_bool)
        != Some(true)
    {
        fail("serving regression — coresets_bit_identical must be true");
    }
    println!("bench_guard: serving.coresets_bit_identical: true — ok");
    // Multiplexing efficiency is a same-process ratio (N interleaved
    // tenants vs one), gated downward like the speedups above.
    match serving_num(&baseline, "multi_tenant_efficiency") {
        None => {
            // A pre-v6 baseline without the section cannot gate it.
            println!("bench_guard: note: baseline lacks serving.multi_tenant_efficiency, skipping");
        }
        Some(base) => {
            let new = serving_num(&fresh, "multi_tenant_efficiency")
                .unwrap_or_else(|| fail("fresh report lacks serving.multi_tenant_efficiency"));
            let floor = base * (1.0 - TOLERANCE);
            checked += 1;
            if new < floor {
                fail(&format!(
                    "serving regression — multi_tenant_efficiency {new:.3} is below {floor:.3} \
                     (baseline {base:.3} − {:.0}%)",
                    TOLERANCE * 100.0
                ));
            }
            println!(
                "bench_guard: serving.multi_tenant_efficiency: {new:.3} vs baseline {base:.3} — ok"
            );
        }
    }
    // Per-tenant peak footprint is deterministic given the schedule, so
    // it gates upward drift like peak_bytes_per_point.
    match serving_num(&baseline, "peak_bytes_per_tenant") {
        None => {
            println!("bench_guard: note: baseline lacks serving.peak_bytes_per_tenant, skipping");
        }
        Some(base) => {
            let new = serving_num(&fresh, "peak_bytes_per_tenant")
                .unwrap_or_else(|| fail("fresh report lacks serving.peak_bytes_per_tenant"));
            let ceiling = base * (1.0 + TOLERANCE);
            checked += 1;
            if new > ceiling {
                fail(&format!(
                    "serving memory regression — peak_bytes_per_tenant {new:.1} exceeds \
                     {ceiling:.1} (baseline {base:.1} + {:.0}%)",
                    TOLERANCE * 100.0
                ));
            }
            println!(
                "bench_guard: serving.peak_bytes_per_tenant: {new:.1} vs baseline {base:.1} — ok"
            );
        }
    }
    // Admission latency is schema-pinned, sanity-checked, not gated.
    if serving_num(&fresh, "p99_admission_ns").is_none_or(|p99| p99 <= 0.0) {
        fail("fresh report lacks a positive serving.p99_admission_ns");
    }
    // Observability overhead: an instrumented drive vs an uninstrumented
    // one in the same process — a machine-independent ratio. Only gated
    // when the `obs` feature was compiled in (otherwise both drives ran
    // the same no-op build and the ratio is pure noise around 1.0).
    let obs_on = fresh
        .get("service_obs")
        .and_then(|s| s.get("feature_enabled"))
        .and_then(JsonValue::as_bool)
        == Some(true);
    if obs_on {
        let ratio = fresh
            .get("service_obs")
            .and_then(|s| s.get("overhead_ratio"))
            .and_then(JsonValue::as_f64)
            .unwrap_or_else(|| fail("fresh report lacks service_obs.overhead_ratio"));
        checked += 1;
        if ratio < OBS_OVERHEAD_FLOOR {
            fail(&format!(
                "observability overhead — service_obs.overhead_ratio {ratio:.3} is below \
                 {OBS_OVERHEAD_FLOOR:.2} (instrumented serving lost more than {:.0}% throughput)",
                (1.0 - OBS_OVERHEAD_FLOOR) * 100.0
            ));
        }
        println!(
            "bench_guard: service_obs.overhead_ratio: {ratio:.3} (floor {OBS_OVERHEAD_FLOOR:.2}) — ok"
        );
    } else {
        println!("bench_guard: note: service_obs.feature_enabled false, overhead not gated");
    }
    // Migration gates (v8). Identity after live migration is the
    // protocol's whole correctness claim — unconditional, like the
    // serving identity bit.
    if fresh
        .get("migration")
        .and_then(|m| m.get("coresets_bit_identical"))
        .and_then(JsonValue::as_bool)
        != Some(true)
    {
        fail("migration regression — coresets_bit_identical must be true");
    }
    println!("bench_guard: migration.coresets_bit_identical: true — ok");
    // A migration report with no committed cutovers proved nothing.
    if migration_num(&fresh, "cutovers").is_none_or(|c| c < 1.0) {
        fail("migration regression — report carries no committed cutovers");
    }
    // Cutover tail: absolute ceiling (see CUTOVER_P99_CEILING_NS).
    let p99 = migration_num(&fresh, "p99_cutover_ns")
        .unwrap_or_else(|| fail("fresh report lacks migration.p99_cutover_ns"));
    checked += 1;
    if p99 > CUTOVER_P99_CEILING_NS {
        fail(&format!(
            "migration regression — p99_cutover_ns {p99:.0} exceeds the \
             {CUTOVER_P99_CEILING_NS:.0}ns ceiling"
        ));
    }
    println!(
        "bench_guard: migration.p99_cutover_ns: {p99:.0} (ceiling {CUTOVER_P99_CEILING_NS:.0}) — ok"
    );
    // The replay queue must respect its own advertised bound: a peak
    // past replay_queue_max_ops means the overflow refusal is broken.
    let peak = migration_num(&fresh, "replay_queue_peak")
        .unwrap_or_else(|| fail("fresh report lacks migration.replay_queue_peak"));
    let bound = migration_num(&fresh, "replay_queue_max_ops")
        .unwrap_or_else(|| fail("fresh report lacks migration.replay_queue_max_ops"));
    checked += 1;
    if peak > bound {
        fail(&format!(
            "migration regression — replay_queue_peak {peak:.0} exceeds its bound {bound:.0}"
        ));
    }
    println!("bench_guard: migration.replay_queue_peak: {peak:.0} (bound {bound:.0}) — ok");
    if checked == 0 {
        fail("baseline exposed no comparable speedup ratios");
    }
    // Optional Prometheus artifact validation (text exposition 0.0.4).
    if let Some(pp) = prom_path {
        let text = std::fs::read_to_string(&pp)
            .unwrap_or_else(|e| fail(&format!("cannot read {pp}: {e}")));
        match sbc_obs::timeline::validate_prometheus(&text) {
            Ok(samples) => println!("bench_guard: {pp}: valid exposition ({samples} samples)"),
            Err(msg) => fail(&format!("{pp}: invalid Prometheus exposition — {msg}")),
        }
    }
    println!(
        "bench_guard: PASS ({checked} ratios within {:.0}%)",
        TOLERANCE * 100.0
    );
}
