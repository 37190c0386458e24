//! `serve_bench` — the multi-tenant load generator behind the
//! `"serving"` section of `BENCH_streaming.json`.
//!
//! Drives a [`CoresetService`] through the typed client (every op
//! crosses the real `SBCSRV1` wire format) with ≥1000 interleaved
//! tenants of mixed traffic — batched inserts, deletions, mid-stream
//! coreset queries, explicit evictions with transparent restores — and
//! reports **machine-independent ratios** next to the raw numbers:
//!
//! * `multi_tenant_efficiency` — aggregate ops/s with N interleaved
//!   tenants over single-tenant ops/s on the identical per-tenant
//!   schedule (the multiplexing overhead; gated by `bench_guard`);
//! * `peak_bytes_per_tenant` — peak admission-control footprint per
//!   tenant (deterministic; ceiling-gated);
//! * `coresets_bit_identical` — sampled tenants' served coresets
//!   compared entry-for-entry against locally rebuilt single-tenant
//!   pipelines (must be `true`);
//! * `p99_admission_ns` — admission-decision latency tail (reported,
//!   schema-checked, not ratio-gated: absolute latency is
//!   host-dependent).
//!
//! The bench also emits a `"service_obs"` section: the same
//! multi-tenant drive with service metrics off vs on in interleaved
//! rounds (`overhead_ratio`, the median of the per-round on/off ratios,
//! gated ≥ 0.98 by `bench_guard` when the `obs` feature is compiled
//! in), plus request-latency percentiles from the per-tenant SLO
//! histograms. `--prom PATH`
//! writes (and validates) one Prometheus exposition of the final
//! instrumented run; `--slow-dump-dir PATH` arms the deterministic
//! slow-request probe for one extra untimed run so CI can archive a
//! `slow-<tenant>-<seq>.json` flight-recorder dump.
//!
//! `--fault-profile` routes traffic through the [`Lossy`] transport
//! (seeded envelope drops/duplicates + retries, deduplicated
//! server-side); identity must still hold. `--merge-into` folds the
//! sections into an existing `BENCH_streaming.json`.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sbc::api::{CoresetPoint, ServerStatsReport, TenantSpec, PROTOCOL_VERSION};
use sbc::obs::json::JsonValue;
use sbc::prelude::*;
use sbc::{Coreset, StreamCoresetBuilder};
use sbc_serve::client::LossyStats;
use sbc_serve::{
    Client, CoresetService, Fleet, InProcess, Lossy, OverloadPolicy, ServeConfig, Transport,
    REPLAY_QUEUE_MAX_OPS,
};

#[global_allocator]
static ALLOC: sbc_obs::alloc::TrackingAlloc = sbc_obs::alloc::TrackingAlloc;

/// One tenant's deterministic traffic schedule. Derived purely from
/// `(spec.seed, ops, batch)`, so the bench can replay it against a
/// local reference pipeline for the bit-identity check.
struct Schedule {
    spec: TenantSpec,
    batches: Vec<Vec<Point>>,
    /// The batch deleted again after all inserts (mixed traffic).
    delete_batch: usize,
}

impl Schedule {
    fn new(tenant: u64, base_seed: u64, shards: u32, ops: usize, batch: usize) -> Schedule {
        let spec = TenantSpec {
            shards,
            seed: base_seed ^ tenant.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ..TenantSpec::default()
        };
        let gp = GridParams::from_log_delta(spec.log_delta, spec.dims as usize);
        let points = sbc::geometry::dataset::gaussian_mixture(gp, ops, 2, 0.08, spec.seed);
        let batches: Vec<Vec<Point>> = points.chunks(batch.max(1)).map(<[Point]>::to_vec).collect();
        Schedule {
            spec,
            delete_batch: batches.len() / 2,
            batches,
        }
    }

    /// Applies this schedule to a local reference pipeline and returns
    /// its mid-stream coreset — the ground truth the served coreset
    /// must match bit-for-bit.
    fn reference_coreset(&self) -> Coreset {
        // The same protocol-contract derivation the service uses — the
        // whole point of `sbc::api::tenant_pipeline` being shared.
        let (params, sp) = sbc::api::tenant_pipeline(&self.spec).expect("bench spec is valid");
        if self.spec.shards <= 1 {
            let mut rng = StdRng::seed_from_u64(self.spec.seed);
            let mut b = StreamCoresetBuilder::new(params, sp, &mut rng);
            for batch in &self.batches {
                b.insert_batch(batch);
            }
            for p in &self.batches[self.delete_batch] {
                b.delete(p);
            }
            b.finish_ref().expect("reference coreset")
        } else {
            let mut ingest =
                ShardedIngest::new(params, sp, self.spec.seed).expect("bench spec is valid");
            for batch in &self.batches {
                ingest.insert_batch(batch);
            }
            for p in &self.batches[self.delete_batch] {
                ingest.delete(p);
            }
            ingest.finish_ref().expect("reference coreset")
        }
    }
}

/// Runs every schedule to completion, interleaved round-robin batch by
/// batch (tenant A's batch 2 lands between B's 1 and C's 3 — genuinely
/// mixed multi-tenant traffic). Returns (applied ops, elapsed seconds).
fn drive<T: Transport>(
    client: &mut Client<T>,
    schedules: &[Schedule],
    query_every: usize,
    evict_every: usize,
) -> (u64, f64) {
    let mut applied = 0u64;
    let rounds = schedules.iter().map(|s| s.batches.len()).max().unwrap_or(0);
    // Opens (builder construction, dominated by store preallocation) stay
    // outside the timed window: the efficiency ratio compares steady-state
    // traffic multiplexing, not N-vs-1 arena setup.
    for (t, s) in schedules.iter().enumerate() {
        client.open(t as u64, s.spec).expect("open tenant");
    }
    let t0 = Instant::now();
    for round in 0..rounds {
        for (t, s) in schedules.iter().enumerate() {
            let id = t as u64;
            if let Some(batch) = s.batches.get(round) {
                client.insert(id, batch).expect("insert batch");
                applied += batch.len() as u64;
            }
            // Mid-schedule mixed traffic, staggered by tenant id so the
            // service sees queries/evictions between everyone's inserts.
            if round == s.batches.len() / 2 {
                if evict_every > 0 && t % evict_every == 0 {
                    client.evict(id).expect("explicit evict");
                }
                if query_every > 0 && t % query_every == 0 {
                    let (_o, pts) = client.query(id).expect("mid-stream query");
                    assert!(!pts.is_empty() || s.batches.is_empty());
                }
            }
        }
    }
    // Deletion pass: every tenant re-deletes one earlier batch (and an
    // evicted tenant is transparently restored by it).
    for (t, s) in schedules.iter().enumerate() {
        let batch = &s.batches[s.delete_batch];
        client.delete(t as u64, batch).expect("delete batch");
        applied += batch.len() as u64;
    }
    (applied, t0.elapsed().as_secs_f64())
}

/// Queries `identity_checks` evenly spaced tenants through the wire and
/// returns their served coresets for the identity comparison.
fn sample_queries<T: Transport>(
    client: &mut Client<T>,
    schedules: &[Schedule],
    identity_checks: usize,
) -> Vec<(usize, Vec<CoresetPoint>)> {
    let stride = (schedules.len() / identity_checks.max(1)).max(1);
    (0..schedules.len())
        .step_by(stride)
        .take(identity_checks)
        .map(|t| {
            let (_o, pts) = client.query(t as u64).expect("identity query");
            (t, pts)
        })
        .collect()
}

fn served_matches_reference(served: &[CoresetPoint], reference: &Coreset) -> bool {
    let entries = reference.entries();
    served.len() == entries.len()
        && served.iter().zip(entries).all(|(s, e)| {
            s.point == e.point
                && s.weight.to_bits() == e.weight.to_bits()
                && s.level == e.level
                && s.part == e.part as u64
        })
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Small overload drill: a deliberately tiny budget, both policies.
/// Returns (reject_overloaded, shed_evictions).
fn overload_drill(schedules: &[Schedule], budget_bytes: usize) -> (u64, u64) {
    let mut counts = [0u64; 2];
    for (i, policy) in [OverloadPolicy::Reject, OverloadPolicy::Shed]
        .into_iter()
        .enumerate()
    {
        let service = CoresetService::new(ServeConfig {
            budget_bytes,
            policy,
            ..ServeConfig::default()
        });
        let mut client = Client::new(InProcess::new(service));
        client.hello().expect("hello");
        for (t, s) in schedules.iter().enumerate().take(32) {
            // Refusals (of opens and inserts alike) are the point of
            // the drill; keep feeding regardless.
            let _ = client.open(t as u64, s.spec);
            for batch in &s.batches {
                let _ = client.insert(t as u64, batch);
            }
        }
        let stats = client.server_stats().expect("server stats");
        counts[i] = match policy {
            OverloadPolicy::Reject => stats.overloaded,
            OverloadPolicy::Shed => stats.evictions,
        };
    }
    (counts[0], counts[1])
}

#[allow(clippy::too_many_arguments)]
fn serving_json(
    tenants: usize,
    ops_per_tenant: usize,
    batch: usize,
    shards: u32,
    total_ops: u64,
    aggregate_ops_per_sec: f64,
    single_ops_per_sec: f64,
    admission: &[u64],
    peak_bytes_per_tenant: f64,
    identical: bool,
    identity_checks: usize,
    stats: ServerStatsReport,
    drill: (u64, u64),
    fault_profile: &str,
    lossy: Option<LossyStats>,
) -> JsonValue {
    let efficiency = if single_ops_per_sec > 0.0 {
        aggregate_ops_per_sec / single_ops_per_sec
    } else {
        0.0
    };
    let faults = JsonValue::object()
        .field("profile", fault_profile)
        .field("drops", lossy.map_or(0, |l| l.drops))
        .field("dups", lossy.map_or(0, |l| l.dups))
        .field("retries", lossy.map_or(0, |l| l.retries));
    JsonValue::object()
        .field("protocol_version", u64::from(PROTOCOL_VERSION))
        .field("tenants", tenants as u64)
        .field("ops_per_tenant", ops_per_tenant as u64)
        .field("batch", batch as u64)
        .field("shards", u64::from(shards))
        .field("total_ops", total_ops)
        .field("aggregate_ops_per_sec", aggregate_ops_per_sec)
        .field("single_tenant_ops_per_sec", single_ops_per_sec)
        .field("multi_tenant_efficiency", efficiency)
        .field("p50_admission_ns", percentile(admission, 0.50))
        .field("p99_admission_ns", percentile(admission, 0.99))
        .field("p999_admission_ns", percentile(admission, 0.999))
        .field("admission_samples", admission.len() as u64)
        .field("peak_bytes_per_tenant", peak_bytes_per_tenant)
        .field("coresets_bit_identical", identical)
        .field("identity_checks", identity_checks as u64)
        .field("evictions", stats.evictions)
        .field("restores", stats.restores)
        .field("overloaded", stats.overloaded)
        .field(
            "overload_drill",
            JsonValue::object()
                .field("reject_overloaded", drill.0)
                .field("shed_evictions", drill.1),
        )
        .field("faults", faults)
}

/// The `"migration"` section: a 3-server in-memory fleet, every tenant
/// live-migrated mid-stream (the next insert lands inside the frozen
/// window, so the replay queue genuinely carries ops) and one server
/// drained at the end — with the served coresets compared bit-for-bit
/// against locally rebuilt never-migrated pipelines. `bench_guard`
/// hard-gates the identity bit, ceilings the cutover p99, and checks
/// the replay-queue peak against its bound.
fn migration_json(schedules: &[Schedule], fault_profile: &str) -> JsonValue {
    const SERVERS: [u32; 3] = [1, 2, 3];
    const CHUNK_BYTES: u32 = 4096;
    let subset = &schedules[..schedules.len().min(64)];
    let plan = FaultPlan::parse(fault_profile).unwrap_or_else(|e| panic!("{e}"));
    let mut fleet = Fleet::new(plan);
    for id in SERVERS {
        fleet.insert_server(id, Box::new(CoresetService::new(ServeConfig::default())));
    }
    for (t, s) in subset.iter().enumerate() {
        fleet.open(t as u64, s.spec).expect("open tenant");
    }

    // The interleaved drive, with a live migration wrapped around every
    // tenant's middle batch: freeze + ship before it, drain + cut over
    // after it.
    let mut cutover_ns: Vec<u64> = Vec::new();
    let mut migrations = 0u64;
    let rounds = subset.iter().map(|s| s.batches.len()).max().unwrap_or(0);
    for round in 0..rounds {
        for (t, s) in subset.iter().enumerate() {
            let id = t as u64;
            let migrate_here = round == s.batches.len() / 2;
            if migrate_here {
                let from = fleet.owner(id).expect("owner");
                let to =
                    SERVERS[(SERVERS.iter().position(|&x| x == from).unwrap() + 1) % SERVERS.len()];
                assert!(
                    fleet
                        .migrate_begin(id, to, CHUNK_BYTES)
                        .expect("migrate_begin"),
                    "no old peers, no budgets: the snapshot must land"
                );
            }
            if let Some(batch) = s.batches.get(round) {
                fleet.insert(id, batch).expect("insert batch");
            }
            if migrate_here {
                let t0 = Instant::now();
                let report = fleet.migrate_finish(id).expect("migrate_finish");
                cutover_ns.push(t0.elapsed().as_nanos() as u64);
                assert!(report.committed, "in-memory cutover must commit");
                migrations += 1;
            }
        }
    }
    for (t, s) in subset.iter().enumerate() {
        fleet
            .delete(t as u64, &s.batches[s.delete_batch])
            .expect("delete batch");
    }

    // Decommission drill: drain one server, rebalancing its tenants
    // across the shrunken ring.
    let drained = fleet
        .drain(SERVERS[2], CHUNK_BYTES)
        .expect("drain")
        .iter()
        .filter(|r| r.committed)
        .count() as u64;

    // Bit-identity after 1–2 migrations per tenant: every served
    // coreset against its never-migrated local reference.
    let mut identical = true;
    for (t, s) in subset.iter().enumerate() {
        let (_o, pts) = fleet.query(t as u64).expect("identity query");
        if !served_matches_reference(&pts, &s.reference_coreset()) {
            eprintln!("serve_bench: migrated tenant {t} DIVERGED from reference");
            identical = false;
        }
    }

    cutover_ns.sort_unstable();
    let stats = fleet.migration_stats();
    let faults = JsonValue::object()
        .field("profile", fault_profile)
        .field("drops", fleet.stats.drops)
        .field("dups", fleet.stats.dups)
        .field("retries", fleet.stats.retries);
    eprintln!(
        "serve_bench: migration {} tenants × {migrations} cutovers + {drained} drained \
         (p99 cutover {}ns, replay peak {}, identical: {identical})",
        subset.len(),
        percentile(&cutover_ns, 0.99),
        stats.replay_queue_peak,
    );
    assert!(identical, "migrated coresets must be bit-identical");
    JsonValue::object()
        .field("fleet_servers", SERVERS.len() as u64)
        .field("tenants", subset.len() as u64)
        .field("chunk_bytes", u64::from(CHUNK_BYTES))
        .field("migrations", migrations)
        .field("drained", drained)
        .field("cutovers", stats.cutovers)
        .field("chunks", stats.chunks_in)
        .field("replayed_ops", stats.replayed_ops)
        .field("replay_queue_peak", stats.replay_queue_peak)
        .field("replay_queue_max_ops", REPLAY_QUEUE_MAX_OPS)
        .field("aborts", stats.aborts)
        .field("p50_cutover_ns", percentile(&cutover_ns, 0.50))
        .field("p99_cutover_ns", percentile(&cutover_ns, 0.99))
        .field("coresets_bit_identical", identical)
        .field("identity_checks", subset.len() as u64)
        .field("faults", faults)
}

/// Replaces (or appends) one top-level key of a parsed BENCH document,
/// preserving every other key and their order. `JsonValue` has no
/// mutation API, so the object is rebuilt pair-by-pair.
fn merge_section(doc: &JsonValue, key: &str, section: JsonValue) -> JsonValue {
    let pairs = doc
        .as_object()
        .expect("BENCH file must be a JSON object at top level");
    let mut out = JsonValue::object();
    let mut replaced = false;
    for (k, value) in pairs {
        if k == key {
            out = out.field(k, section.clone());
            replaced = true;
        } else {
            out = out.field(k, value.clone());
        }
    }
    if !replaced {
        out = out.field(key, section);
    }
    out
}

/// One observability-overhead drive: a fresh service, the schedule
/// subset, with the *service-plane* recorders in the given state. The
/// global metrics flag is on for both legs — the backend pipeline's own
/// instrumentation costs the same on each side, so the ratio isolates
/// exactly what the service plane adds. Returns `(ops, timed seconds)`.
fn obs_drive(schedules: &[Schedule], metrics_on: bool) -> (u64, f64) {
    sbc_obs::set_enabled(true);
    sbc_obs::svc::set_metrics_enabled(metrics_on);
    let mut client = Client::new(InProcess::new(CoresetService::new(ServeConfig::default())));
    client.hello().expect("hello");
    let timed = drive(&mut client, schedules, 16, 64);
    sbc_obs::set_enabled(false);
    sbc_obs::svc::set_metrics_enabled(true);
    timed
}

/// One round of the observability-overhead comparison: `(off, on)`
/// ops/s. Each leg re-drives fresh services until its timed drives add
/// up to at least [`OBS_LEG_SECS`]; the two legs' drives alternate, off
/// first, so host noise that lasts longer than a drive hits both legs
/// alike. Resets the global registries first so the last round leaves
/// exactly one enabled leg's SLO data behind for the percentile report
/// and the `--prom` export.
fn obs_round(schedules: &[Schedule]) -> (f64, f64) {
    sbc_obs::reset();
    sbc_obs::svc::reset();
    let mut legs = [(0u64, 0.0f64); 2];
    while legs.iter().any(|&(_, secs)| secs < OBS_LEG_SECS) {
        for (metrics_on, leg) in [false, true].into_iter().zip(&mut legs) {
            let (ops, secs) = obs_drive(schedules, metrics_on);
            leg.0 += ops;
            leg.1 += secs;
        }
    }
    let [off, on] = legs.map(|(ops, secs)| ops as f64 / secs);
    (off, on)
}

/// Rounds of the observability-overhead comparison.
const OBS_ROUNDS: usize = 21;

/// Least timed seconds per leg of a round. One drive at CI size (200
/// tenants × 24 ops) times only ≈55–80 ms, which leaves per-round
/// ratios spread far around 1.
const OBS_LEG_SECS: f64 = 0.25;

/// The `"service_obs"` section: the instrumentation-overhead comparison
/// plus request-latency percentiles out of the per-tenant SLO
/// histograms. Each round drives metrics off and on ([`obs_round`]);
/// the ratio is the median of the per-round on/off ratios, so one slow
/// round cannot move it. Throughputs are best-of-rounds.
fn service_obs_json(schedules: &[Schedule], shards: u32, slow_dump_dir: Option<&str>) -> JsonValue {
    // Feature probe: with `obs` compiled out the flag can never stick,
    // so the ratio below compares two identical no-op builds.
    sbc_obs::set_enabled(true);
    let feature_enabled = sbc_obs::svc::metrics_active();
    sbc_obs::set_enabled(false);

    let subset = &schedules[..schedules.len().min(256)];
    let (mut off, mut on) = (0.0f64, 0.0f64);
    let round_ratios: Vec<f64> = (0..OBS_ROUNDS)
        .map(|_| {
            let (round_off, round_on) = obs_round(subset);
            off = off.max(round_off);
            on = on.max(round_on);
            round_on / round_off
        })
        .collect();
    let mut sorted = round_ratios.clone();
    sorted.sort_by(f64::total_cmp);
    let overhead_ratio = sorted[OBS_ROUNDS / 2];

    // The last enabled drive's insert-latency histogram (the dominant
    // request kind in the schedule).
    let class = if shards > 1 { "sharded" } else { "single" };
    let name = format!("svc.latency.{class}.insert");
    let snap = sbc_obs::snapshot();
    let hist = snap.histogram(&name).cloned().unwrap_or_default();

    // One extra untimed instrumented run with the deterministic
    // slow-request probe armed, purely to produce a dump artifact. The
    // probe rate is sized to the run: a 32-tenant drive issues a few
    // hundred requests, so 1-in-64 guarantees several dumps while a
    // production-ish 1-in-512 would leave a small smoke run empty.
    if let Some(dir) = slow_dump_dir {
        std::fs::create_dir_all(dir).expect("create slow-dump dir");
        sbc_obs::trace::set_enabled(true);
        sbc_obs::trace::set_crash_dir(Some(dir.into()));
        sbc_obs::svc::set_slow_request(sbc_obs::svc::SlowRequestConfig {
            threshold_ns: 0,
            probe_seed: 0x5b0c,
            probe_every: 64,
            max_dumps: 0,
        });
        sbc_obs::reset();
        sbc_obs::svc::reset();
        let _ = obs_drive(&subset[..subset.len().min(32)], true);
        sbc_obs::svc::set_slow_request(sbc_obs::svc::SlowRequestConfig::DISABLED);
        sbc_obs::trace::set_enabled(false);
        sbc_obs::trace::set_crash_dir(None);
    }

    JsonValue::object()
        .field("feature_enabled", feature_enabled)
        .field("metrics_disabled_ops_per_sec", off)
        .field("metrics_enabled_ops_per_sec", on)
        .field("overhead_ratio", overhead_ratio)
        .field(
            "round_ratios",
            JsonValue::from(
                round_ratios
                    .into_iter()
                    .map(JsonValue::from)
                    .collect::<Vec<_>>(),
            ),
        )
        .field("p50_request_ns", hist.quantile(0.50))
        .field("p99_request_ns", hist.quantile(0.99))
        .field("p999_request_ns", hist.quantile(0.999))
        .field("request_samples", hist.count)
        .field("slow_dumps", sbc_obs::svc::slow_dumps())
}

fn main() {
    let mut tenants = 1200usize;
    let mut ops_per_tenant = 48usize;
    let mut batch = 16usize;
    let mut shards = 1u32;
    let mut seed = 17u64;
    let mut identity_checks = 3usize;
    let mut fault_profile = "none".to_string();
    let mut json_out: Option<String> = None;
    let mut merge_into: Option<String> = None;
    let mut prom_out: Option<String> = None;
    let mut slow_dump_dir: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tenants" => {
                tenants = args
                    .next()
                    .expect("--tenants needs a count")
                    .parse()
                    .expect("--tenants takes a positive integer");
                assert!(tenants > 0, "--tenants takes a positive integer");
            }
            "--ops-per-tenant" => {
                ops_per_tenant = args
                    .next()
                    .expect("--ops-per-tenant needs a count")
                    .parse()
                    .expect("--ops-per-tenant takes a positive integer");
                assert!(ops_per_tenant > 1, "--ops-per-tenant needs at least 2 ops");
            }
            "--batch" => {
                batch = args
                    .next()
                    .expect("--batch needs a size")
                    .parse()
                    .expect("--batch takes a positive integer");
                assert!(batch > 0, "--batch takes a positive integer");
            }
            "--shards" => {
                shards = args
                    .next()
                    .expect("--shards needs a count")
                    .parse()
                    .expect("--shards takes a positive integer");
                assert!(shards > 0, "--shards takes a positive integer");
            }
            "--seed" => {
                seed = args
                    .next()
                    .expect("--seed needs an integer")
                    .parse()
                    .expect("--seed takes an integer");
            }
            "--identity-checks" => {
                identity_checks = args
                    .next()
                    .expect("--identity-checks needs a count")
                    .parse()
                    .expect("--identity-checks takes an integer");
            }
            "--fault-profile" => {
                fault_profile = args.next().expect("--fault-profile needs a profile name");
            }
            "--json" => json_out = Some(args.next().expect("--json needs a path")),
            "--merge-into" => merge_into = Some(args.next().expect("--merge-into needs a path")),
            "--prom" => prom_out = Some(args.next().expect("--prom needs a path")),
            "--slow-dump-dir" => {
                slow_dump_dir = Some(args.next().expect("--slow-dump-dir needs a path"));
            }
            flag => panic!("unknown flag {flag}"),
        }
    }
    let plan = FaultPlan::parse(&fault_profile).unwrap_or_else(|e| panic!("{e}"));

    let schedules: Vec<Schedule> = (0..tenants as u64)
        .map(|t| Schedule::new(t, seed, shards, ops_per_tenant, batch))
        .collect();

    // Phase 1 — single-tenant baseline: tenant 0's schedule, alone.
    let mut single = Client::new(InProcess::new(CoresetService::new(ServeConfig::default())));
    single.hello().expect("hello");
    let (single_ops, single_secs) = drive(&mut single, &schedules[..1], 1, 0);
    let single_ops_per_sec = single_ops as f64 / single_secs;

    // Phase 2 — the multi-tenant run, optionally through the lossy
    // fault-replaying transport.
    eprintln!(
        "serve_bench: {tenants} tenants × {ops_per_tenant} ops (batch {batch}, shards {shards}, \
         faults {fault_profile})"
    );
    let service = CoresetService::new(ServeConfig::default());
    let (total_ops, multi_secs, admission, stats, lossy_stats, served);
    if plan.is_active() {
        let mut client = Client::new(Lossy::new(service, plan, 1));
        client.hello().expect("hello");
        let (ops, secs) = drive(&mut client, &schedules, 16, 64);
        served = sample_queries(&mut client, &schedules, identity_checks);
        let transport = client.transport_mut();
        lossy_stats = Some(transport.stats);
        let svc = transport.service_mut();
        let mut ns = svc.take_admission_ns();
        ns.sort_unstable();
        (total_ops, multi_secs, admission, stats) = (ops, secs, ns, svc.server_stats());
    } else {
        let mut client = Client::new(InProcess::new(service));
        client.hello().expect("hello");
        let (ops, secs) = drive(&mut client, &schedules, 16, 64);
        served = sample_queries(&mut client, &schedules, identity_checks);
        lossy_stats = None;
        let svc = client.transport_mut().service_mut();
        let mut ns = svc.take_admission_ns();
        ns.sort_unstable();
        (total_ops, multi_secs, admission, stats) = (ops, secs, ns, svc.server_stats());
    }
    let aggregate_ops_per_sec = total_ops as f64 / multi_secs;

    // Bit-identity: the served coresets against locally rebuilt
    // single-tenant pipelines with the identical schedule.
    let mut identical = true;
    for (t, reply) in &served {
        let reference = schedules[*t].reference_coreset();
        if !served_matches_reference(reply, &reference) {
            eprintln!("serve_bench: tenant {t} served coreset DIVERGED from reference");
            identical = false;
        }
    }

    let drill = overload_drill(&schedules, 256 * 1024);
    let peak_bytes_per_tenant = stats.peak_measured_bytes as f64 / tenants as f64;

    let serving = serving_json(
        tenants,
        ops_per_tenant,
        batch,
        shards,
        total_ops,
        aggregate_ops_per_sec,
        single_ops_per_sec,
        &admission,
        peak_bytes_per_tenant,
        identical,
        served.len(),
        stats,
        drill,
        &fault_profile,
        lossy_stats,
    );
    eprintln!(
        "serve_bench: {total_ops} ops in {multi_secs:.2}s ({aggregate_ops_per_sec:.0} ops/s, \
         efficiency {:.3}, p99 admission {}ns, identical: {identical})",
        aggregate_ops_per_sec / single_ops_per_sec,
        percentile(&admission, 0.99),
    );
    assert!(identical, "served coresets must be bit-identical");

    // Phase 3 — the observability-overhead comparison (and, when the
    // prom export is requested, one validated scrape of the SLO data
    // the final instrumented drive left behind).
    let service_obs = service_obs_json(&schedules, shards, slow_dump_dir.as_deref());
    eprintln!(
        "serve_bench: service_obs overhead ratio {:.3} (p99 request {}ns, feature {})",
        service_obs
            .get("overhead_ratio")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0),
        service_obs
            .get("p99_request_ns")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0),
        if service_obs
            .get("feature_enabled")
            .and_then(JsonValue::as_bool)
            == Some(true)
        {
            "on"
        } else {
            "off"
        },
    );
    // Phase 4 — the 3-server fleet: live migrations mid-stream, a
    // drain/rebalance, and the migrated-vs-reference identity check.
    let migration = migration_json(&schedules, &fault_profile);

    if let Some(path) = &prom_out {
        // `svc::sampled_counters` is gated on the live flag; flip it on
        // just long enough to scrape what the instrumented run recorded.
        sbc_obs::set_enabled(true);
        let mut tl = sbc_obs::timeline::Timeline::new(4);
        tl.sample();
        let text = tl.prometheus();
        sbc_obs::set_enabled(false);
        sbc_obs::timeline::validate_prometheus(&text).expect("exposition must validate");
        std::fs::write(path, text).expect("write Prometheus exposition");
        eprintln!("serve_bench: wrote {path}");
    }

    if let Some(path) = &merge_into {
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("--merge-into {path}: {e}"));
        let doc = JsonValue::parse(&text).unwrap_or_else(|e| panic!("--merge-into {path}: {e}"));
        let merged = merge_section(&doc, "serving", serving.clone());
        let merged = merge_section(&merged, "service_obs", service_obs.clone());
        let merged = merge_section(&merged, "migration", migration.clone());
        std::fs::write(path, merged.render_pretty() + "\n").expect("write merged BENCH file");
        eprintln!("serve_bench: merged \"serving\" + \"service_obs\" + \"migration\" into {path}");
    }
    if let Some(path) = &json_out {
        let doc = JsonValue::object()
            .field("serving", serving)
            .field("service_obs", service_obs)
            .field("migration", migration);
        std::fs::write(path, doc.render_pretty() + "\n").expect("write JSON report");
        eprintln!("serve_bench: wrote {path}");
    }
}
