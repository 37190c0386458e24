//! Service-plane observability: request identity, per-tenant SLO
//! metrics, and the slow-request dump trigger for `sbc-serve`.
//!
//! The service tier handles wire records, not stream ops, so its
//! telemetry needs a different shape from the ingest-side counters:
//!
//! * **[`RequestId`]** — `{tenant, seq}` identity assigned to each
//!   decoded API record; [`RequestId::causal`] maps it onto the flight
//!   recorder's [`CausalIds`] so a request's admission → restore →
//!   backend → response spans stitch into one causal chain in the
//!   Perfetto export.
//! * **SLO histograms** — request latency keyed by
//!   `(tenant-class, request tag)` in the shared power-of-two registry
//!   (`svc.latency.<single|sharded>.<tag>`), plus one error counter per
//!   wire code in 200–299 (`svc.error.<code>`; any other code counts
//!   under `svc.error.other`).
//! * **Gauges + per-tenant rows** — live/evicted tenant counts, spill
//!   bytes, admission rejects/sheds, restores and restore storms, and a
//!   bounded per-tenant table (ops, errors, bytes, p99, state) that
//!   [`sampled_counters`] folds into every timeline sample so `sbc-top`
//!   and the Prometheus exposition see them without new plumbing.
//! * **Slow-request dumps** — [`maybe_dump_slow`] writes
//!   `slow-<tenant>-<seq>.json` through the crash-dump path when a
//!   request exceeds a configured threshold, or when the seeded
//!   [`slow_probe_hit`] probe fires (deterministic in
//!   `(seed, tenant, seq)`, so reruns dump identical files).
//!
//! The module obeys the crate's zero-cost contract: without the `obs`
//! feature ([`crate::COMPILED`] false) every recorder returns early,
//! gauges and the slow-request configuration never store, and
//! [`RequestTimer`] never reads the clock; with the feature on, metrics
//! are further gated by the global [`crate::set_enabled`] flag. Nothing
//! here feeds back into service decisions, so served coresets are
//! bit-identical in every state.

use crate::trace::{self, CausalIds};
use crate::COMPILED;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------
// Shared vocabulary.
// ---------------------------------------------------------------------

/// Identity of one decoded API record: which tenant it addresses and
/// its position in the service's request sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestId {
    /// Addressed tenant, or [`RequestId::SERVICE_TENANT`] for
    /// service-scoped records (Hello, ServerStats, Shutdown, Health).
    pub tenant: u64,
    /// 1-based position in the service's request sequence.
    pub seq: u64,
}

impl RequestId {
    /// Sentinel tenant for service-scoped records. Chosen so that
    /// [`RequestId::causal`]'s `tenant + 1` wraps to 0 — the
    /// [`CausalIds`] "store unset" value — and service-scoped events
    /// carry no store id in the trace.
    pub const SERVICE_TENANT: u64 = u64::MAX;

    /// Identity for a record addressing `tenant`.
    pub fn for_tenant(tenant: u64, seq: u64) -> RequestId {
        RequestId { tenant, seq }
    }

    /// Identity for a service-scoped record (no tenant).
    pub fn service(seq: u64) -> RequestId {
        RequestId {
            tenant: Self::SERVICE_TENANT,
            seq,
        }
    }

    /// Whether this request addresses a tenant.
    pub fn has_tenant(self) -> bool {
        self.tenant != Self::SERVICE_TENANT
    }

    /// Maps the request onto the flight recorder's causal-id space:
    /// `op_index` carries the request sequence number and `store_id`
    /// carries `tenant + 1` (0 means "unset" in [`CausalIds`], so
    /// tenant 0 must not map to it; service-scoped requests wrap to 0
    /// deliberately and stay store-less).
    pub fn causal(self) -> CausalIds {
        CausalIds::NONE
            .op(self.seq)
            .store(self.tenant.wrapping_add(1))
    }
}

/// Tenant class a request's latency histogram is keyed by: sharded
/// tenants pay a merge on query, so their tails are tracked apart from
/// single-store tenants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestClass {
    /// Tenant runs one store (`spec.shards <= 1`), or the request is
    /// service-scoped.
    Single = 0,
    /// Tenant runs a sharded pipeline (`spec.shards > 1`).
    Sharded = 1,
}

impl RequestClass {
    /// Number of classes (histogram-table dimension).
    pub const COUNT: usize = 2;

    /// Stable lowercase name used in metric paths.
    pub fn as_str(self) -> &'static str {
        match self {
            RequestClass::Single => "single",
            RequestClass::Sharded => "sharded",
        }
    }
}

/// Request taxonomy mirroring the wire tags — the second histogram key.
/// `Unknown` covers forward-compatible records this build cannot name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum RequestTag {
    Hello = 0,
    Open = 1,
    Insert = 2,
    Delete = 3,
    Query = 4,
    Stats = 5,
    Checkpoint = 6,
    Evict = 7,
    Close = 8,
    ServerStats = 9,
    Shutdown = 10,
    Health = 11,
    MigrateOut = 12,
    MigrateChunk = 13,
    MigrateDrain = 14,
    CutOver = 15,
    MigrateAbort = 16,
    Unknown = 17,
}

impl RequestTag {
    /// Number of tags (histogram-table dimension).
    pub const COUNT: usize = 18;

    /// Stable lowercase name used in metric paths.
    pub fn as_str(self) -> &'static str {
        match self {
            RequestTag::Hello => "hello",
            RequestTag::Open => "open",
            RequestTag::Insert => "insert",
            RequestTag::Delete => "delete",
            RequestTag::Query => "query",
            RequestTag::Stats => "stats",
            RequestTag::Checkpoint => "checkpoint",
            RequestTag::Evict => "evict",
            RequestTag::Close => "close",
            RequestTag::ServerStats => "server_stats",
            RequestTag::Shutdown => "shutdown",
            RequestTag::Health => "health",
            RequestTag::MigrateOut => "migrate_out",
            RequestTag::MigrateChunk => "migrate_chunk",
            RequestTag::MigrateDrain => "migrate_drain",
            RequestTag::CutOver => "cutover",
            RequestTag::MigrateAbort => "migrate_abort",
            RequestTag::Unknown => "unknown",
        }
    }
}

/// Migration lifecycle events counted under the `svc.migration.*`
/// series — the fleet-level view of tenant relocation (how many froze,
/// how many chunks and replayed ops crossed the wire, how many
/// cutovers committed vs aborted).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MigrationEvent {
    /// A source froze a tenant's snapshot and armed its replay queue.
    Out,
    /// A receiver accepted one checkpoint chunk.
    Chunk,
    /// A receiver completed a bit-identical restore of a migrated
    /// tenant.
    In,
    /// Point-operations drained from a frozen source's replay queue.
    Replayed,
    /// A source atomically flipped ownership to a peer.
    CutOver,
    /// A source abandoned an in-progress migration, keeping the tenant
    /// local.
    Aborted,
}

impl MigrationEvent {
    /// Stable counter path the event is counted under.
    pub fn counter_name(self) -> &'static str {
        match self {
            MigrationEvent::Out => "svc.migration.out",
            MigrationEvent::Chunk => "svc.migration.chunks",
            MigrationEvent::In => "svc.migration.in",
            MigrationEvent::Replayed => "svc.migration.replayed_ops",
            MigrationEvent::CutOver => "svc.migration.cutovers",
            MigrationEvent::Aborted => "svc.migration.aborts",
        }
    }
}

/// Lifecycle state published in a tenant's `svc.tenant.<id>.state`
/// sample (the numeric discriminant is the published value).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TenantState {
    /// Backend live in memory.
    Live = 0,
    /// Checkpointed to the spill directory.
    Evicted = 1,
    /// Closed (terminal).
    Closed = 2,
}

impl TenantState {
    /// Stable lowercase name for display surfaces (`sbc-top`).
    pub fn as_str(self) -> &'static str {
        match self {
            TenantState::Live => "live",
            TenantState::Evicted => "evicted",
            TenantState::Closed => "closed",
        }
    }

    /// Decodes a published `svc.tenant.<id>.state` value.
    pub fn from_code(code: u64) -> Option<TenantState> {
        match code {
            0 => Some(TenantState::Live),
            1 => Some(TenantState::Evicted),
            2 => Some(TenantState::Closed),
            _ => None,
        }
    }
}

/// Service gauges: point-in-time values the service publishes after
/// each request, folded into timeline samples by [`sampled_counters`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gauge {
    /// Tenants with a live in-memory backend.
    TenantsLive = 0,
    /// Tenants checkpointed to the spill directory.
    TenantsEvicted = 1,
    /// Bytes currently parked in spill files.
    SpillBytes = 2,
    /// Requests refused for budget/capacity (`Overloaded`, code 220).
    AdmissionRejects = 3,
    /// Evictions forced by the shed admission policy.
    AdmissionSheds = 4,
    /// Evict→restore round trips served.
    Restores = 5,
}

impl Gauge {
    /// Number of gauges.
    pub const COUNT: usize = 6;

    /// Stable metric path the gauge is published under.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::TenantsLive => "svc.tenants.live",
            Gauge::TenantsEvicted => "svc.tenants.evicted",
            Gauge::SpillBytes => "svc.spill.bytes",
            Gauge::AdmissionRejects => "svc.admission.rejects",
            Gauge::AdmissionSheds => "svc.admission.sheds",
            Gauge::Restores => "svc.restores",
        }
    }
}

/// Slow-request dump configuration. `Default`/[`DISABLED`] triggers
/// nothing — the zero config is the production default.
///
/// [`DISABLED`]: SlowRequestConfig::DISABLED
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlowRequestConfig {
    /// Dump when a request's wall time reaches this many nanoseconds
    /// (0 disables the threshold trigger).
    pub threshold_ns: u64,
    /// Seed for the deterministic probe (mixed with
    /// [`crate::fault::site::SLOW_REQUEST`]).
    pub probe_seed: u64,
    /// Probe roughly one request in this many, chosen purely by
    /// `(probe_seed, tenant, seq)` (0 disables the probe).
    pub probe_every: u64,
    /// Stop writing after this many dumps (0 = use
    /// [`SlowRequestConfig::DEFAULT_MAX_DUMPS`]). Each dump is a full
    /// flight-recorder export, so an uncapped trigger on a busy server
    /// with an aggressive threshold would fill the disk with the very
    /// telemetry meant to diagnose it.
    pub max_dumps: u64,
}

impl SlowRequestConfig {
    /// Triggers nothing (same as `Default`).
    pub const DISABLED: SlowRequestConfig = SlowRequestConfig {
        threshold_ns: 0,
        probe_seed: 0,
        probe_every: 0,
        max_dumps: 0,
    };

    /// Dump budget used when `max_dumps` is left 0: enough tail captures
    /// to characterize an incident, bounded to tens of megabytes.
    pub const DEFAULT_MAX_DUMPS: u64 = 256;

    /// The effective dump budget.
    pub fn dump_budget(&self) -> u64 {
        if self.max_dumps == 0 {
            Self::DEFAULT_MAX_DUMPS
        } else {
            self.max_dumps
        }
    }

    /// Whether any trigger is armed.
    pub fn is_active(&self) -> bool {
        self.threshold_ns > 0 || self.probe_every > 0
    }
}

/// Whether the seeded slow-request probe selects this request: pure in
/// `(seed, rid, every)`, so reruns of a seeded workload dump identical
/// `slow-*.json` sets. Mirrors the [`crate::fault`] decision style —
/// one salt ([`crate::fault::site::SLOW_REQUEST`]), mixed per tenant,
/// then per sequence number.
pub fn slow_probe_hit(seed: u64, rid: RequestId, every: u64) -> bool {
    if every == 0 {
        return false;
    }
    let mixed = crate::fault::splitmix64(
        crate::fault::splitmix64(seed ^ crate::fault::site::SLOW_REQUEST ^ rid.tenant)
            .wrapping_add(rid.seq),
    );
    mixed.is_multiple_of(every)
}

/// File stem a slow-request dump for `rid` is written under
/// (`<stem>.json` in the crash directory).
pub fn slow_dump_stem(rid: RequestId) -> String {
    format!("slow-{}-{}", rid.tenant, rid.seq)
}

// ---------------------------------------------------------------------
// Recording.
// ---------------------------------------------------------------------

/// Per-tenant rows tracked before the table saturates; overflow
/// tenants are counted in `svc.tenants.untracked` instead of
/// silently dropped.
pub const TRACKED_TENANTS_CAP: usize = 1024;

/// Tenant rows published per timeline sample (top by ops).
pub const SAMPLED_TENANTS: usize = 32;

/// Consecutive restoring requests that constitute a restore storm.
const STORM_RUN: u64 = 4;

static GAUGES: [AtomicU64; Gauge::COUNT] = [const { AtomicU64::new(0) }; Gauge::COUNT];
static SLOW_THRESHOLD_NS: AtomicU64 = AtomicU64::new(0);
static SLOW_PROBE_SEED: AtomicU64 = AtomicU64::new(0);
static SLOW_PROBE_EVERY: AtomicU64 = AtomicU64::new(0);
static SLOW_MAX_DUMPS: AtomicU64 = AtomicU64::new(0);
static SLOW_DUMPS: AtomicU64 = AtomicU64::new(0);
static RESTORE_STORMS: AtomicU64 = AtomicU64::new(0);
static UNTRACKED_TENANTS: AtomicU64 = AtomicU64::new(0);

const LATENCY_NAMES: [[&str; RequestTag::COUNT]; RequestClass::COUNT] = [
    [
        "svc.latency.single.hello",
        "svc.latency.single.open",
        "svc.latency.single.insert",
        "svc.latency.single.delete",
        "svc.latency.single.query",
        "svc.latency.single.stats",
        "svc.latency.single.checkpoint",
        "svc.latency.single.evict",
        "svc.latency.single.close",
        "svc.latency.single.server_stats",
        "svc.latency.single.shutdown",
        "svc.latency.single.health",
        "svc.latency.single.migrate_out",
        "svc.latency.single.migrate_chunk",
        "svc.latency.single.migrate_drain",
        "svc.latency.single.cutover",
        "svc.latency.single.migrate_abort",
        "svc.latency.single.unknown",
    ],
    [
        "svc.latency.sharded.hello",
        "svc.latency.sharded.open",
        "svc.latency.sharded.insert",
        "svc.latency.sharded.delete",
        "svc.latency.sharded.query",
        "svc.latency.sharded.stats",
        "svc.latency.sharded.checkpoint",
        "svc.latency.sharded.evict",
        "svc.latency.sharded.close",
        "svc.latency.sharded.server_stats",
        "svc.latency.sharded.shutdown",
        "svc.latency.sharded.health",
        "svc.latency.sharded.migrate_out",
        "svc.latency.sharded.migrate_chunk",
        "svc.latency.sharded.migrate_drain",
        "svc.latency.sharded.cutover",
        "svc.latency.sharded.migrate_abort",
        "svc.latency.sharded.unknown",
    ],
];

static LATENCY: [[OnceLock<crate::Histogram>; RequestTag::COUNT]; RequestClass::COUNT] =
    [const { [const { OnceLock::new() }; RequestTag::COUNT] }; RequestClass::COUNT];

/// Stable counter path for a wire error code: every code in 200–299
/// gets its own series, anything else folds into `svc.error.other`, so
/// a buggy peer can add at most 101 series to the registry.
fn error_counter_name(code: u16) -> String {
    if (200..300).contains(&code) {
        format!("svc.error.{code}")
    } else {
        "svc.error.other".to_string()
    }
}

struct Row {
    ops: u64,
    errors: u64,
    bytes: u64,
    state: u64,
    lat_count: u64,
    lat: [u64; 65],
}

impl Row {
    fn new() -> Row {
        Row {
            ops: 0,
            errors: 0,
            bytes: 0,
            state: TenantState::Live as u64,
            lat_count: 0,
            lat: [0; 65],
        }
    }

    /// p99 over the row's power-of-two buckets (ceil-rank, bucket
    /// upper bound — same convention as
    /// [`crate::HistogramSnapshot::quantile`]).
    fn p99_ns(&self) -> u64 {
        if self.lat_count == 0 {
            return 0;
        }
        let rank = ((0.99 * self.lat_count as f64).ceil() as u64).clamp(1, self.lat_count);
        let mut seen = 0u64;
        for (i, &n) in self.lat.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return crate::bucket_upper_bound(i);
            }
        }
        u64::MAX
    }
}

fn rows() -> &'static Mutex<HashMap<u64, Row>> {
    static ROWS: OnceLock<Mutex<HashMap<u64, Row>>> = OnceLock::new();
    ROWS.get_or_init(|| Mutex::new(HashMap::new()))
}

struct StormState {
    last_seq: u64,
    run: u64,
}

fn storm() -> &'static Mutex<StormState> {
    static STORM: OnceLock<Mutex<StormState>> = OnceLock::new();
    STORM.get_or_init(|| {
        Mutex::new(StormState {
            last_seq: u64::MAX,
            run: 0,
        })
    })
}

fn with_row(tenant: u64, f: impl FnOnce(&mut Row)) {
    let mut map = rows().lock().unwrap();
    if let Some(row) = map.get_mut(&tenant) {
        f(row);
    } else if map.len() < TRACKED_TENANTS_CAP {
        let row = map.entry(tenant).or_insert_with(Row::new);
        f(row);
    } else {
        UNTRACKED_TENANTS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Service-plane gate, ANDed with the global flag: lets an overhead
/// bench isolate this module's cost on top of an already-enabled
/// pipeline. Defaults on, so flipping [`crate::set_enabled`] alone
/// lights the service plane up too.
static SVC_METRICS: AtomicBool = AtomicBool::new(true);

/// Gates the service-plane recorders independently of the global
/// flag (both must be on). Production embedders never need this;
/// `serve_bench` uses it to measure exactly this module's overhead.
pub fn set_metrics_enabled(on: bool) {
    SVC_METRICS.store(on, Ordering::Relaxed);
}

/// Whether service metrics recording is on: the global
/// [`crate::set_enabled`] flag AND the service-plane gate. Two
/// relaxed loads.
#[inline(always)]
pub fn metrics_active() -> bool {
    crate::enabled() && SVC_METRICS.load(Ordering::Relaxed)
}

/// Records one completed request: latency into the
/// `(class, tag)` histogram, the error counter when the response
/// carried a wire error code, and the tenant's row. No-op unless
/// metrics are enabled.
pub fn observe_request(
    class: RequestClass,
    tag: RequestTag,
    rid: RequestId,
    latency_ns: u64,
    error_code: Option<u16>,
) {
    if !metrics_active() {
        return;
    }
    let cell = &LATENCY[class as usize][tag as usize];
    let hist = cell.get_or_init(|| crate::histogram(LATENCY_NAMES[class as usize][tag as usize]));
    hist.record(latency_ns);
    if let Some(code) = error_code {
        crate::counter(&error_counter_name(code)).incr();
    }
    if rid.has_tenant() {
        with_row(rid.tenant, |row| {
            row.ops += 1;
            if error_code.is_some() {
                row.errors += 1;
            }
            row.lat_count += 1;
            row.lat[crate::bucket_index(latency_ns)] += 1;
        });
    }
}

/// Publishes a tenant's lifecycle state and measured bytes into its
/// row. No-op unless metrics are enabled.
pub fn observe_tenant_state(tenant: u64, state: TenantState, bytes: u64) {
    if !metrics_active() {
        return;
    }
    with_row(tenant, |row| {
        row.state = state as u64;
        row.bytes = bytes;
    });
}

/// Records an evict→restore round trip and detects restore storms:
/// a run of 4 (`STORM_RUN`) consecutive request sequence numbers that
/// all restored (a working set thrashing in and out of the budget)
/// bumps `svc.restore.storms` once per run. No-op unless metrics
/// are enabled.
pub fn observe_restore(rid: RequestId) {
    if !metrics_active() {
        return;
    }
    let mut st = storm().lock().unwrap();
    st.run = if st.last_seq.wrapping_add(1) == rid.seq {
        st.run + 1
    } else {
        1
    };
    st.last_seq = rid.seq;
    if st.run == STORM_RUN {
        RESTORE_STORMS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Counts a migration lifecycle event (by `amount` — 1 for
/// discrete events, the op count for [`MigrationEvent::Replayed`])
/// under its `svc.migration.*` series. No-op unless metrics are
/// enabled.
pub fn observe_migration(event: MigrationEvent, amount: u64) {
    if amount == 0 || !metrics_active() {
        return;
    }
    crate::counter(event.counter_name()).add(amount);
}

/// Sets a gauge to a point-in-time value (no-op without the `obs`
/// feature).
#[inline]
pub fn set_gauge(gauge: Gauge, value: u64) {
    if COMPILED {
        GAUGES[gauge as usize].store(value, Ordering::Relaxed);
    }
}

/// Current value of a gauge.
pub fn gauge(gauge: Gauge) -> u64 {
    GAUGES[gauge as usize].load(Ordering::Relaxed)
}

/// Installs the slow-request dump configuration (no-op without the
/// `obs` feature, so the trigger can never fire).
pub fn set_slow_request(cfg: SlowRequestConfig) {
    if !COMPILED {
        return;
    }
    SLOW_THRESHOLD_NS.store(cfg.threshold_ns, Ordering::Relaxed);
    SLOW_PROBE_SEED.store(cfg.probe_seed, Ordering::Relaxed);
    SLOW_PROBE_EVERY.store(cfg.probe_every, Ordering::Relaxed);
    SLOW_MAX_DUMPS.store(cfg.max_dumps, Ordering::Relaxed);
}

/// The installed slow-request dump configuration.
pub fn slow_request_config() -> SlowRequestConfig {
    SlowRequestConfig {
        threshold_ns: SLOW_THRESHOLD_NS.load(Ordering::Relaxed),
        probe_seed: SLOW_PROBE_SEED.load(Ordering::Relaxed),
        probe_every: SLOW_PROBE_EVERY.load(Ordering::Relaxed),
        max_dumps: SLOW_MAX_DUMPS.load(Ordering::Relaxed),
    }
}

/// Slow-request dumps written so far.
pub fn slow_dumps() -> u64 {
    SLOW_DUMPS.load(Ordering::Relaxed)
}

/// Dumps the flight recorder's tail to
/// `slow-<tenant>-<seq>.json` when the request's wall time crossed
/// the threshold or the seeded probe selected it. Returns whether a
/// file was written (requires a crash directory and, for useful
/// content, trace recording).
pub fn maybe_dump_slow(rid: RequestId, elapsed_ns: u64) -> bool {
    let threshold = SLOW_THRESHOLD_NS.load(Ordering::Relaxed);
    let every = SLOW_PROBE_EVERY.load(Ordering::Relaxed);
    if threshold == 0 && every == 0 {
        return false;
    }
    let threshold_hit = threshold > 0 && elapsed_ns >= threshold;
    let probe_hit = slow_probe_hit(SLOW_PROBE_SEED.load(Ordering::Relaxed), rid, every);
    if !(threshold_hit || probe_hit) {
        return false;
    }
    // Dump budget: each dump is a full ring export, so a hot server
    // with a trigger-happy threshold must run out of budget, not
    // disk. The count-then-write race can overshoot by a few dumps
    // under concurrency, never unboundedly.
    let budget = slow_request_config().dump_budget();
    if SLOW_DUMPS.load(Ordering::Relaxed) >= budget {
        return false;
    }
    let reason = if threshold_hit {
        format!(
            "request tenant={} seq={} took {elapsed_ns} ns (slow threshold {threshold} ns)",
            rid.tenant, rid.seq
        )
    } else {
        format!(
            "seeded slow-request probe selected tenant={} seq={} (1 in {every})",
            rid.tenant, rid.seq
        )
    };
    let written = trace::dump_named(&slow_dump_stem(rid), &reason);
    if written {
        SLOW_DUMPS.fetch_add(1, Ordering::Relaxed);
    }
    written
}

/// The service gauges plus the top-[`SAMPLED_TENANTS`] tenant rows
/// (by ops), flattened to `(name, value)` pairs for a timeline
/// sample: `svc.tenant.<id>.{ops,errors,bytes,p99_ns,state}`.
/// Empty unless metrics are enabled.
pub fn sampled_counters() -> Vec<(String, u64)> {
    if !crate::enabled() {
        return Vec::new();
    }
    let mut out: Vec<(String, u64)> = Vec::new();
    for i in 0..Gauge::COUNT {
        let g = [
            Gauge::TenantsLive,
            Gauge::TenantsEvicted,
            Gauge::SpillBytes,
            Gauge::AdmissionRejects,
            Gauge::AdmissionSheds,
            Gauge::Restores,
        ][i];
        out.push((g.name().to_string(), GAUGES[i].load(Ordering::Relaxed)));
    }
    out.push((
        "svc.restore.storms".to_string(),
        RESTORE_STORMS.load(Ordering::Relaxed),
    ));
    out.push((
        "svc.slow.dumps".to_string(),
        SLOW_DUMPS.load(Ordering::Relaxed),
    ));
    let map = rows().lock().unwrap();
    out.push(("svc.tenants.tracked".to_string(), map.len() as u64));
    out.push((
        "svc.tenants.untracked".to_string(),
        UNTRACKED_TENANTS.load(Ordering::Relaxed),
    ));
    let mut order: Vec<(u64, u64)> = map.iter().map(|(id, r)| (r.ops, *id)).collect();
    // Top by ops; ties broken by tenant id so samples are stable.
    order.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for &(_, id) in order.iter().take(SAMPLED_TENANTS) {
        let row = &map[&id];
        out.push((format!("svc.tenant.{id}.ops"), row.ops));
        out.push((format!("svc.tenant.{id}.errors"), row.errors));
        out.push((format!("svc.tenant.{id}.bytes"), row.bytes));
        out.push((format!("svc.tenant.{id}.p99_ns"), row.p99_ns()));
        out.push((format!("svc.tenant.{id}.state"), row.state));
    }
    out
}

/// Clears gauges, tenant rows, storm state, and dump counts (the
/// slow-request configuration is kept — it is configuration, not
/// data). For tests.
pub fn reset() {
    for g in &GAUGES {
        g.store(0, Ordering::Relaxed);
    }
    RESTORE_STORMS.store(0, Ordering::Relaxed);
    SLOW_DUMPS.store(0, Ordering::Relaxed);
    UNTRACKED_TENANTS.store(0, Ordering::Relaxed);
    rows().lock().unwrap().clear();
    let mut st = storm().lock().unwrap();
    st.last_seq = u64::MAX;
    st.run = 0;
}

/// Wall-clock timer for one request. Reads the clock only when
/// something will consume the measurement (metrics, tracing, or a
/// slow-request trigger armed), so an idle instrumented build pays
/// three relaxed loads per request and no syscalls, and a build without
/// the `obs` feature pays nothing.
pub struct RequestTimer {
    start: Option<Instant>,
}

impl RequestTimer {
    /// Starts the timer if any consumer is armed.
    #[inline]
    pub fn start() -> RequestTimer {
        let armed = COMPILED
            && (crate::enabled()
                || trace::enabled()
                || SLOW_THRESHOLD_NS.load(Ordering::Relaxed) != 0
                || SLOW_PROBE_EVERY.load(Ordering::Relaxed) != 0);
        RequestTimer {
            start: armed.then(Instant::now),
        }
    }

    /// Elapsed nanoseconds, or 0 when the timer never armed.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        self.start
            .map(|s| s.elapsed().as_nanos().min(u64::MAX as u128) as u64)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn causal_ids_carry_request_identity() {
        let rid = RequestId::for_tenant(7, 42);
        let ids = rid.causal();
        assert_eq!(ids.op_index, 42);
        assert_eq!(ids.store_id, 8, "store carries tenant + 1");
        // Service-scoped requests wrap to the unset store id.
        let svc = RequestId::service(3);
        assert!(!svc.has_tenant());
        assert_eq!(svc.causal().store_id, 0);
        assert_eq!(svc.causal().op_index, 3);
    }

    #[test]
    fn slow_probe_is_deterministic_and_seed_sensitive() {
        let hits = |seed: u64| -> Vec<u64> {
            (0..4096)
                .filter(|&s| slow_probe_hit(seed, RequestId::for_tenant(s % 13, s), 64))
                .collect()
        };
        let a = hits(9);
        assert_eq!(a, hits(9), "same seed, same selections");
        assert_ne!(a, hits(10), "different seed, different selections");
        // Rate is roughly 1-in-64 over the sweep.
        assert!((16..=256).contains(&a.len()), "{} hits", a.len());
        // Disabled probe never fires.
        assert!((0..4096).all(|s| !slow_probe_hit(9, RequestId::for_tenant(1, s), 0)));
    }

    #[test]
    fn dump_stems_name_tenant_and_seq() {
        assert_eq!(slow_dump_stem(RequestId::for_tenant(7, 42)), "slow-7-42");
        assert_eq!(
            slow_dump_stem(RequestId::service(5)),
            format!("slow-{}-5", u64::MAX)
        );
    }

    #[test]
    fn tag_and_class_names_are_stable() {
        assert_eq!(RequestTag::COUNT, 18);
        assert_eq!(RequestTag::Health as usize, 11);
        assert_eq!(RequestTag::MigrateOut as usize, 12);
        assert_eq!(RequestTag::MigrateAbort as usize, 16);
        assert_eq!(RequestTag::CutOver.as_str(), "cutover");
        assert_eq!(RequestTag::Unknown.as_str(), "unknown");
        assert_eq!(
            MigrationEvent::CutOver.counter_name(),
            "svc.migration.cutovers"
        );
        assert_eq!(
            MigrationEvent::Replayed.counter_name(),
            "svc.migration.replayed_ops"
        );
        assert_eq!(RequestClass::Sharded.as_str(), "sharded");
        assert_eq!(Gauge::SpillBytes.name(), "svc.spill.bytes");
        assert_eq!(TenantState::from_code(1), Some(TenantState::Evicted));
        assert_eq!(TenantState::from_code(9), None);
        assert!(!SlowRequestConfig::DISABLED.is_active());
    }

    #[test]
    fn dump_budget_defaults_and_respects_an_explicit_cap() {
        assert_eq!(
            SlowRequestConfig::DISABLED.dump_budget(),
            SlowRequestConfig::DEFAULT_MAX_DUMPS,
            "unset cap falls back to the default budget"
        );
        let capped = SlowRequestConfig {
            threshold_ns: 1,
            max_dumps: 3,
            ..SlowRequestConfig::DISABLED
        };
        assert_eq!(capped.dump_budget(), 3);
        assert!(capped.is_active());
    }
}
