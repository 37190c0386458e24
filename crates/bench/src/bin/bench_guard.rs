//! Guards `BENCH_streaming.json` against regressions and schema drift.
//!
//! Compares a freshly generated report against the committed baseline,
//! evaluates every gate, prints each verdict, and then exits non-zero
//! if any gate failed — among them when
//!
//! * the fresh report violates the expected schema (version, required
//!   sections, per-path fields), or
//! * a machine-independent throughput ratio (`speedup_vs_per_op` of the
//!   batched path) regressed by more than the tolerance (15%), or
//! * memory regressed: the telemetry section's `peak_bytes_per_point`
//!   (peak measured bytes over the canonical 4k-point robustness run,
//!   per point — deterministic, so it gates as tightly as the speed
//!   ratios) grew past the baseline by more than the tolerance, or
//! * an arena load factor (`arena_load_factor` of
//!   `sharding.space_report.total` and of `robustness.space_report`) is
//!   below 0.25: arenas grow from occupancy, so a table sized to a
//!   nominal bound instead of to what it holds shows up here.
//!
//! The serving, service-observability and migration sections are gated
//! too (identity bits, efficiency, footprint, overhead ratio, cutover
//! tail, replay-queue bound).
//!
//! Absolute ops/sec are *not* compared — they vary with the host — only
//! the relative speedup of the batched path over the per-op reference
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
const PATHS: [&str; 2] = ["per_op", "batched"];
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
    // overhead figures. `alloc_tracking` varies with the `obs` feature
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

/// The numeric leaf at `path` (a key per level), if present.
fn num_at(doc: &JsonValue, path: &[&str]) -> Option<f64> {
    path.iter()
        .try_fold(doc, |node, key| node.get(key))?
        .as_f64()
}

/// A figure for a verdict line: integers and figures past 1000 whole,
/// others to three decimals.
fn fmt(v: f64) -> String {
    if v.fract() == 0.0 || v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

/// A bound on one figure of the fresh report.
enum Limit {
    Floor(f64),
    Ceiling(f64),
}

/// Every gate's verdict, printed as it is reached. The guard fails
/// after the last gate if any of them failed, so one run reports them
/// all.
#[derive(Default)]
struct Gates {
    passed: usize,
    failed: Vec<String>,
}

impl Gates {
    fn record(&mut self, name: &str, pass: bool, detail: String) {
        if pass {
            self.passed += 1;
            println!("bench_guard: {name}: {detail} — ok");
        } else {
            println!("bench_guard: {name}: {detail} — FAIL");
            self.failed.push(format!("{name}: {detail}"));
        }
    }

    /// Gates the fresh report's figure at `path` against `limit`;
    /// `context` follows the limit on the verdict line.
    fn bounded(&mut self, fresh: &JsonValue, path: &[&str], limit: Limit, context: &str) {
        let name = path.join(".");
        let Some(v) = num_at(fresh, path) else {
            return self.record(&name, false, "missing from the fresh report".into());
        };
        let (pass, word, l) = match limit {
            Limit::Floor(l) => (v >= l, "floor", l),
            Limit::Ceiling(l) => (v <= l, "ceiling", l),
        };
        self.record(
            &name,
            pass,
            format!("{} ({word} {}{context})", fmt(v), fmt(l)),
        );
    }

    /// Gates the fresh figure at `path` within [`TOLERANCE`] of the
    /// baseline's: no lower when `higher_is_better`, else no higher. A
    /// baseline without the figure cannot gate it.
    fn relative(
        &mut self,
        fresh: &JsonValue,
        baseline: &JsonValue,
        path: &[&str],
        higher_is_better: bool,
    ) {
        let Some(base) = num_at(baseline, path) else {
            println!(
                "bench_guard: note: baseline lacks {}, skipping",
                path.join(".")
            );
            return;
        };
        let limit = if higher_is_better {
            Limit::Floor(base * (1.0 - TOLERANCE))
        } else {
            Limit::Ceiling(base * (1.0 + TOLERANCE))
        };
        self.bounded(fresh, path, limit, &format!(", baseline {}", fmt(base)));
    }

    /// Gates a boolean leaf of the fresh report that must be `true`.
    fn holds(&mut self, fresh: &JsonValue, path: &[&str]) {
        let leaf = path
            .iter()
            .try_fold(fresh, |node, key| node.get(key))
            .and_then(JsonValue::as_bool);
        let shown = leaf.map_or("missing".into(), |b| b.to_string());
        self.record(&path.join("."), leaf == Some(true), shown);
    }
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
    let mut gates = Gates::default();

    match check_schema(&fresh, &fresh_path) {
        Ok(()) => gates.record("schema", true, format!("v{SCHEMA_VERSION}")),
        Err(msg) => gates.record("schema", false, msg),
    }
    // The per-op path is the shared denominator, so a regression of the
    // batched path shows up here no matter how fast the host is.
    for group in GROUPS {
        let path = ["groups", group, "batched", "speedup_vs_per_op"];
        gates.relative(&fresh, &baseline, &path, true);
    }
    // Memory: peak measured bytes per point on the canonical robustness
    // run. Deterministic given logical state (the space report never
    // reads transient allocator capacities), so it is host-independent
    // like the ratio above — but it gates *upward* drift.
    let peak_per_point = ["telemetry", "space", "peak_bytes_per_point"];
    gates.relative(&fresh, &baseline, &peak_per_point, false);
    // Arena occupancy: absolute, not relative to the baseline — the
    // load factor is deterministic given the workload, and a table that
    // is mostly empty slots is the regression.
    for path in ARENA_LOAD_FACTORS {
        gates.bounded(&fresh, path, Limit::Floor(ARENA_LOAD_FLOOR), "");
    }
    // Serving. Identity is unconditional: a fresh report claiming
    // divergent coresets fails no matter what the baseline says.
    gates.holds(&fresh, &["serving", "coresets_bit_identical"]);
    // Multiplexing efficiency is a same-process ratio (N interleaved
    // tenants vs one), gated downward like the speedups above; the
    // per-tenant peak footprint is deterministic given the schedule,
    // so it gates upward drift like peak_bytes_per_point.
    gates.relative(
        &fresh,
        &baseline,
        &["serving", "multi_tenant_efficiency"],
        true,
    );
    gates.relative(
        &fresh,
        &baseline,
        &["serving", "peak_bytes_per_tenant"],
        false,
    );
    // Admission latency is host truth: only checked to be positive.
    let p99_admission = ["serving", "p99_admission_ns"];
    gates.bounded(&fresh, &p99_admission, Limit::Floor(1.0), "");
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
        let path = ["service_obs", "overhead_ratio"];
        gates.bounded(&fresh, &path, Limit::Floor(OBS_OVERHEAD_FLOOR), "");
    } else {
        println!("bench_guard: note: service_obs.feature_enabled false, overhead not gated");
    }
    // Migration. Identity after live migration is the protocol's whole
    // correctness claim — unconditional, like the serving identity bit —
    // and a report with no committed cutovers proved nothing.
    gates.holds(&fresh, &["migration", "coresets_bit_identical"]);
    gates.bounded(&fresh, &["migration", "cutovers"], Limit::Floor(1.0), "");
    let p99_cutover = ["migration", "p99_cutover_ns"];
    gates.bounded(
        &fresh,
        &p99_cutover,
        Limit::Ceiling(CUTOVER_P99_CEILING_NS),
        "",
    );
    // The replay queue must respect its own advertised bound: a peak
    // past replay_queue_max_ops means the overflow refusal is broken.
    match num_at(&fresh, &["migration", "replay_queue_max_ops"]) {
        Some(bound) => gates.bounded(
            &fresh,
            &["migration", "replay_queue_peak"],
            Limit::Ceiling(bound),
            " = replay_queue_max_ops",
        ),
        None => gates.record(
            "migration.replay_queue_max_ops",
            false,
            "missing from the fresh report".into(),
        ),
    }
    // Optional Prometheus artifact validation (text exposition 0.0.4).
    if let Some(pp) = prom_path {
        match std::fs::read_to_string(&pp) {
            Err(e) => gates.record(&pp, false, format!("cannot read: {e}")),
            Ok(text) => match sbc_obs::timeline::validate_prometheus(&text) {
                Ok(samples) => gates.record(&pp, true, format!("{samples} samples")),
                Err(msg) => gates.record(&pp, false, format!("invalid exposition — {msg}")),
            },
        }
    }
    if gates.failed.is_empty() {
        println!("bench_guard: PASS ({} gates)", gates.passed);
        return;
    }
    for msg in &gates.failed {
        eprintln!("bench_guard: FAIL: {msg}");
    }
    eprintln!(
        "bench_guard: {} of {} gates failed",
        gates.failed.len(),
        gates.failed.len() + gates.passed
    );
    std::process::exit(1);
}
