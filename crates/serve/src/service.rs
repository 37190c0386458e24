//! The tenant-multiplexing service core: slot table, admission control,
//! eviction/restore, and the frame/envelope entry points.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sbc::api::{
    frame_responses, negotiate, unframe_requests, ApiError, ApiRequest, ApiResponse, CoresetPoint,
    HealthReport, ReplayOp, ServerStatsReport, TenantId, TenantSpec, TenantStats,
    MAX_MIGRATION_CHUNK_BYTES,
};
use sbc::distributed::wire::Envelope;
use sbc::streaming::codec::{from_bytes, to_bytes};
use sbc::{
    Coreset, CoresetParams, Point, SbcError, ShardedIngest, Snapshot, StreamCoresetBuilder,
    StreamOp, StreamParams,
};
use sbc_obs::svc::{self, MigrationEvent, RequestClass, RequestId, RequestTag, TenantState};
use sbc_obs::trace;

/// What to do with a mutating request that would run past the memory
/// budget.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Refuse with [`ApiResponse::Overloaded`] and apply nothing.
    Reject,
    /// First shed load — evict the fattest *other* tenants to the spill
    /// store until back under budget — and refuse only if shedding
    /// cannot get there.
    #[default]
    Shed,
}

/// Service configuration.
#[derive(Clone, Debug, Default)]
pub struct ServeConfig {
    /// Memory budget over the sum of live tenants' `measured_bytes`
    /// (0 = unlimited). The admission-control threshold.
    pub budget_bytes: usize,
    /// Cap on concurrently *known* tenants, live or evicted
    /// (0 = unlimited).
    pub max_tenants: usize,
    /// Where evicted tenants spill. `None` keeps eviction blobs in
    /// memory — useful for tests, useless for actually freeing the
    /// budget's underlying RAM, so real deployments set a directory.
    pub spill_dir: Option<PathBuf>,
    /// Overload behavior. Defaults to [`OverloadPolicy::Shed`].
    pub policy: OverloadPolicy,
    /// Cap on one inbound migration transfer's total container bytes
    /// (0 = [`DEFAULT_MAX_MIGRATION_BYTES`]). A hostile
    /// `ChunkedCheckpoint` header claiming more is refused before any
    /// buffering.
    pub max_migration_bytes: usize,
}

/// One tenant's pipeline: a single builder, or a sharded ingest when the
/// spec asked for horizontal composition.
enum Backend {
    // Boxed: a builder is ~600 bytes of inline ladder state, and the
    // slot table holds thousands of these enums.
    Single(Box<StreamCoresetBuilder>),
    Sharded(ShardedIngest),
}

/// Derives the validated parameter pair from a wire spec, so a bad spec
/// fails with a coded parameter error instead of a panic downstream. The
/// derivation itself is [`sbc::api::tenant_pipeline`] — part of the
/// protocol contract, shared with reference pipelines on the bench side.
fn pipeline_params(spec: &TenantSpec) -> Result<(CoresetParams, StreamParams), SbcError> {
    sbc::api::tenant_pipeline(spec)
}

impl Backend {
    /// Builds a fresh pipeline. The construction mirrors what a
    /// standalone caller writes (`StdRng::seed_from_u64(seed)` /
    /// `ShardedIngest::new(…, seed)`), which is what makes a tenant's
    /// coreset bit-identical to an equivalent single-tenant run.
    fn build(spec: &TenantSpec) -> Result<Backend, SbcError> {
        let (params, sparams) = pipeline_params(spec)?;
        Ok(if spec.shards <= 1 {
            let mut rng = StdRng::seed_from_u64(spec.seed);
            Backend::Single(Box::new(StreamCoresetBuilder::new(
                params, sparams, &mut rng,
            )))
        } else {
            Backend::Sharded(ShardedIngest::new(params, sparams, spec.seed)?)
        })
    }

    fn insert_batch(&mut self, points: &[Point]) {
        match self {
            Backend::Single(b) => b.insert_batch(points),
            Backend::Sharded(s) => s.insert_batch(points),
        }
    }

    fn delete_batch(&mut self, points: &[Point]) {
        let ops: Vec<StreamOp> = points.iter().map(|p| StreamOp::Delete(p.clone())).collect();
        match self {
            Backend::Single(b) => b.process_all(&ops),
            Backend::Sharded(s) => s.process_all(&ops),
        }
    }

    fn net_count(&self) -> i64 {
        match self {
            Backend::Single(b) => b.net_count(),
            Backend::Sharded(s) => s.net_count(),
        }
    }

    fn ops_seen(&self) -> u64 {
        match self {
            Backend::Single(b) => b.ops_seen(),
            Backend::Sharded(s) => s.ops_seen(),
        }
    }

    fn measured_bytes(&self) -> usize {
        match self {
            Backend::Single(b) => b.measured_bytes(),
            Backend::Sharded(s) => s.measured_bytes(),
        }
    }

    fn finish_ref(&self) -> Result<Coreset, SbcError> {
        match self {
            Backend::Single(b) => Ok(b.finish_ref()?),
            Backend::Sharded(s) => s.finish_ref(),
        }
    }

    /// One checkpoint blob per shard (a single builder is one shard).
    fn checkpoint_blobs(&self) -> Result<Vec<Vec<u8>>, SbcError> {
        match self {
            Backend::Single(b) => Ok(vec![b.checkpoint()?.to_bytes()]),
            Backend::Sharded(s) => (0..s.shards())
                .map(|i| Ok(s.checkpoint_shard(i)?.to_bytes()))
                .collect(),
        }
    }

    /// Inverse of [`Tenant::image`]: decodes a tenant image, checks it
    /// carries `spec`, and restores its shard blobs bit-identically.
    fn from_image(tenant: TenantId, spec: &TenantSpec, image: &[u8]) -> Result<Backend, SbcError> {
        let image_error = |what: &str| ApiError::EvictIo {
            message: format!("tenant {tenant}: {what} tenant image"),
        };
        let (stored_spec, blobs): (TenantSpec, Vec<Vec<u8>>) =
            from_bytes(image).ok_or_else(|| image_error("undecodable"))?;
        if stored_spec != *spec {
            return Err(image_error("spec mismatch in").into());
        }
        if spec.shards <= 1 {
            let [blob] = blobs.as_slice() else {
                return Err(ApiError::EvictIo {
                    message: format!("expected 1 shard blob, found {}", blobs.len()),
                }
                .into());
            };
            Ok(Backend::Single(Box::new(StreamCoresetBuilder::restore(
                &Snapshot::from_bytes(blob)?,
            )?)))
        } else {
            if blobs.len() != spec.shards as usize {
                return Err(ApiError::EvictIo {
                    message: format!(
                        "expected {} shard blobs, found {}",
                        spec.shards,
                        blobs.len()
                    ),
                }
                .into());
            }
            let mut ingest = match Backend::build(spec)? {
                Backend::Sharded(s) => s,
                Backend::Single(_) => unreachable!("shards > 1 builds a sharded backend"),
            };
            for (i, blob) in blobs.iter().enumerate() {
                ingest.restore_shard(i, &Snapshot::from_bytes(blob)?)?;
            }
            Ok(Backend::Sharded(ingest))
        }
    }
}

/// Where an evicted tenant's checkpoint container lives.
enum Spill {
    Disk(PathBuf),
    Memory(Vec<u8>),
}

/// Frozen outbound state of a tenant mid-migration: the snapshot split
/// into chunks at the seq barrier, plus the replay queue of ops that
/// arrived after the barrier (double-buffered — also applied to the
/// live backend, so local reads stay fresh and an abort loses nothing).
struct MigrationOut {
    chunks: Vec<Vec<u8>>,
    total_bytes: u64,
    measured_bytes: u64,
    seq_barrier: u64,
    replay: VecDeque<ReplayOp>,
    /// Point-operations currently queued (bounded by
    /// [`REPLAY_QUEUE_MAX_OPS`]).
    queued_ops: u64,
}

struct Tenant {
    spec: TenantSpec,
    backend: Backend,
    /// Cached `measured_bytes`, refreshed after every mutation — the
    /// service's running total is the sum of these caches, so admission
    /// control is O(1) per request instead of O(tenants) space walks.
    measured: usize,
    peak_measured: usize,
    /// `Some` while this tenant is frozen for outbound migration.
    migration: Option<MigrationOut>,
}

impl Tenant {
    /// The tenant image: the `(spec, shard blobs)` container that
    /// eviction spills, a checkpoint reply carries and a migration
    /// ships in chunks.
    fn image(&self) -> Result<Vec<u8>, SbcError> {
        Ok(to_bytes(&(self.spec, self.backend.checkpoint_blobs()?)))
    }

    fn stats(&self, shards: u32) -> TenantStats {
        TenantStats {
            net_count: self.backend.net_count(),
            ops_seen: self.backend.ops_seen(),
            measured_bytes: self.measured as u64,
            peak_measured_bytes: self.peak_measured as u64,
            shards,
            evicted: false,
        }
    }
}

enum Slot {
    Live(Tenant),
    Evicted {
        spec: TenantSpec,
        spill: Spill,
        bytes: u64,
        /// The tenant's `measured_bytes` at eviction time. Restores are
        /// bit-identical, so this is exactly the footprint a restore
        /// brings back — the headroom the admission decision charges
        /// *before* restoring.
        measured: usize,
    },
    /// Inbound migration in progress: checkpoint chunks assembling in
    /// order. The manifest's `measured_bytes` was charged against the
    /// budget when chunk 0 was admitted (the same reservation a restore
    /// pays), and is released when the final chunk restores — or the
    /// transfer is aborted/closed.
    Restoring {
        spec: TenantSpec,
        total_chunks: u32,
        total_bytes: u64,
        /// The admission reservation charged into `total_measured`.
        measured: usize,
        next_chunk: u32,
        buf: Vec<u8>,
    },
    /// Tombstone after cutover: the tenant now lives on `peer`, and
    /// every data request is answered with a [`ApiResponse::Moved`]
    /// redirect. `Close` removes the tombstone.
    Moved {
        peer: u32,
    },
}

/// The multi-tenant service core.
///
/// Deliberately transport-free: [`CoresetService::handle_frame`] maps
/// request bytes to response bytes, and the binaries/tests/bench wrap
/// it in whatever I/O they need (stdin/stdout, in-process, the lossy
/// fault-replaying transport).
pub struct CoresetService {
    config: ServeConfig,
    slots: HashMap<TenantId, Slot>,
    /// Sum of live tenants' cached `measured` (admission numerator).
    total_measured: usize,
    peak_measured: usize,
    ops_total: u64,
    overloaded: u64,
    evictions: u64,
    restores: u64,
    /// Evictions forced by the shed admission policy (a subset of
    /// `evictions`).
    shed_evictions: u64,
    /// Live slots, maintained at every lifecycle transition so
    /// [`CoresetService::server_stats`] and the per-request gauge
    /// publish are O(1) instead of O(tenants) slot walks.
    live_tenants: u64,
    /// Evicted slots (same maintenance).
    evicted_tenants: u64,
    /// Bytes currently parked in spill containers by evicted tenants.
    spill_bytes: u64,
    /// Frames/envelopes that failed to decode (bad magic, truncated,
    /// malformed record).
    frame_errors: u64,
    /// Records handled — the [`RequestId::seq`] source and the health
    /// report's `requests_total`.
    request_seq: u64,
    /// Service start time (the health report's uptime).
    started: Instant,
    shutting_down: bool,
    /// Nanoseconds the admission decision took, per admitted-or-refused
    /// request — drained by [`CoresetService::take_admission_ns`]
    /// (serve_bench's p99 source). A bounded ring: once
    /// [`ADMISSION_NS_CAP`] samples accumulate undrained, the oldest
    /// are overwritten, so a production loop that never drains cannot
    /// grow the service without bound.
    admission_ns: Vec<u64>,
    /// Overwrite cursor into `admission_ns` once the ring is full.
    admission_ns_at: usize,
    /// Per-client `(last_seq, cached response envelope)` — the
    /// idempotency window that makes duplicated/retried envelope
    /// deliveries safe. One entry deep per machine, matching the
    /// transport's immediate-retry behavior, and bounded to
    /// [`DEDUP_MAX_MACHINES`] machines (first-seen FIFO eviction via
    /// `dedup_order`): a peer cycling machine ids can displace idle
    /// windows but never grow the map without bound. A displaced
    /// machine merely loses its dedup window — the same contract as a
    /// brand-new peer.
    dedup: HashMap<u32, (u64, Vec<u8>)>,
    /// First-seen order of `dedup` keys, for FIFO displacement.
    dedup_order: VecDeque<u32>,
    /// Migration counters (see [`MigrationStats`]).
    migration: MigrationStats,
}

/// Capacity of the admission-latency ring ([`CoresetService::take_admission_ns`]).
const ADMISSION_NS_CAP: usize = 64 * 1024;

/// Most distinct envelope machines the dedup window tracks at once.
const DEDUP_MAX_MACHINES: usize = 1024;

/// Default cap on one inbound migration transfer's container bytes
/// ([`ServeConfig::max_migration_bytes`] = 0).
pub const DEFAULT_MAX_MIGRATION_BYTES: usize = 64 << 20;

/// Bound on point-operations buffered in a migrating tenant's replay
/// queue. A mutation that would overflow it is refused with
/// [`ApiError::ReplayOverflow`] (nothing applied) — the queue is the
/// only unbounded-growth risk the double-buffer protocol introduces,
/// so it is capped and the cutover latency gate in `bench_guard` keeps
/// the drain loop honest.
pub const REPLAY_QUEUE_MAX_OPS: u64 = 64 * 1024;

/// Point-in-time migration counters, drained by fleet benches and the
/// oracle tests via [`CoresetService::migration_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MigrationStats {
    /// Outbound freezes ([`ApiRequest::MigrateOut`] accepted).
    pub migrations_out: u64,
    /// Inbound restores completed (final chunk accepted and restored).
    pub migrations_in: u64,
    /// Checkpoint chunks accepted inbound.
    pub chunks_in: u64,
    /// Ownership flips committed ([`ApiRequest::CutOver`] accepted).
    pub cutovers: u64,
    /// Migrations abandoned ([`ApiRequest::MigrateAbort`] accepted).
    pub aborts: u64,
    /// Point-operations drained from replay queues.
    pub replayed_ops: u64,
    /// High-water mark of any tenant's replay queue (point-operations).
    pub replay_queue_peak: u64,
}

impl CoresetService {
    /// Creates an empty service.
    pub fn new(config: ServeConfig) -> CoresetService {
        CoresetService {
            config,
            slots: HashMap::new(),
            total_measured: 0,
            peak_measured: 0,
            ops_total: 0,
            overloaded: 0,
            evictions: 0,
            restores: 0,
            shed_evictions: 0,
            live_tenants: 0,
            evicted_tenants: 0,
            spill_bytes: 0,
            frame_errors: 0,
            request_seq: 0,
            started: Instant::now(),
            shutting_down: false,
            admission_ns: Vec::new(),
            admission_ns_at: 0,
            dedup: HashMap::new(),
            dedup_order: VecDeque::new(),
            migration: MigrationStats::default(),
        }
    }

    /// Point-in-time migration counters.
    pub fn migration_stats(&self) -> MigrationStats {
        self.migration
    }

    /// The effective cap on one inbound migration transfer's container
    /// bytes.
    fn migration_byte_cap(&self) -> u64 {
        if self.config.max_migration_bytes == 0 {
            DEFAULT_MAX_MIGRATION_BYTES as u64
        } else {
            self.config.max_migration_bytes as u64
        }
    }

    /// True once an [`ApiRequest::Shutdown`] has been handled; server
    /// loops exit after finishing the current frame.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down
    }

    /// Whole-service accounting (also served as
    /// [`ApiResponse::ServerStatsReply`]).
    pub fn server_stats(&self) -> ServerStatsReport {
        #[cfg(debug_assertions)]
        {
            let (mut live, mut evicted) = (0u64, 0u64);
            for slot in self.slots.values() {
                match slot {
                    Slot::Live(_) => live += 1,
                    Slot::Evicted { .. } => evicted += 1,
                    // Assembling transfers and tombstones are neither.
                    Slot::Restoring { .. } | Slot::Moved { .. } => {}
                }
            }
            debug_assert_eq!(
                (live, evicted),
                (self.live_tenants, self.evicted_tenants),
                "maintained tenant counts drifted from the slot table"
            );
        }
        ServerStatsReport {
            tenants_live: self.live_tenants,
            tenants_evicted: self.evicted_tenants,
            measured_bytes: self.total_measured as u64,
            peak_measured_bytes: self.peak_measured as u64,
            budget_bytes: self.config.budget_bytes as u64,
            ops_total: self.ops_total,
            overloaded: self.overloaded,
            evictions: self.evictions,
            restores: self.restores,
        }
    }

    /// Machine-readable liveness snapshot (also served as
    /// [`ApiResponse::HealthReply`]). Purely observational — nothing in
    /// it feeds back into service decisions.
    pub fn health_report(&self) -> HealthReport {
        let budget = self.config.budget_bytes as u64;
        HealthReport {
            uptime_ms: self.started.elapsed().as_millis() as u64,
            requests_total: self.request_seq,
            frame_errors: self.frame_errors,
            tenants_live: self.live_tenants,
            tenants_evicted: self.evicted_tenants,
            measured_bytes: self.total_measured as u64,
            budget_bytes: budget,
            budget_headroom_bytes: if budget == 0 {
                u64::MAX
            } else {
                budget.saturating_sub(self.total_measured as u64)
            },
            spill_bytes: self.spill_bytes,
            overloaded: self.overloaded,
            shutting_down: self.shutting_down,
        }
    }

    /// Drains the recorded per-request admission-decision latencies
    /// (the most recent 64 Ki (`ADMISSION_NS_CAP`) decisions — older samples
    /// are overwritten, not accumulated).
    pub fn take_admission_ns(&mut self) -> Vec<u64> {
        self.admission_ns_at = 0;
        std::mem::take(&mut self.admission_ns)
    }

    fn record_admission_ns(&mut self, ns: u64) {
        if self.admission_ns.len() < ADMISSION_NS_CAP {
            self.admission_ns.push(ns);
        } else {
            self.admission_ns[self.admission_ns_at] = ns;
            self.admission_ns_at = (self.admission_ns_at + 1) % ADMISSION_NS_CAP;
        }
    }

    fn spill_path(&self, tenant: TenantId) -> Option<PathBuf> {
        self.config
            .spill_dir
            .as_ref()
            .map(|d| d.join(format!("tenant-{tenant}.sbct")))
    }

    /// Serializes and spills a live tenant, freeing its memory
    /// accounting. Returns the blob size.
    fn evict_tenant(&mut self, tenant: TenantId) -> Result<u64, SbcError> {
        let Some(Slot::Live(t)) = self.slots.get(&tenant) else {
            return Err(ApiError::UnknownTenant { tenant }.into());
        };
        let container = t.image()?;
        let bytes = container.len() as u64;
        let spill = match self.spill_path(tenant) {
            Some(path) => {
                std::fs::write(&path, &container).map_err(|e| ApiError::EvictIo {
                    message: format!("{}: {e}", path.display()),
                })?;
                Spill::Disk(path)
            }
            None => Spill::Memory(container),
        };
        let Some(Slot::Live(t)) = self.slots.remove(&tenant) else {
            unreachable!("checked live above");
        };
        self.total_measured -= t.measured;
        self.slots.insert(
            tenant,
            Slot::Evicted {
                spec: t.spec,
                spill,
                bytes,
                measured: t.measured,
            },
        );
        self.live_tenants -= 1;
        self.evicted_tenants += 1;
        self.spill_bytes += bytes;
        self.evictions += 1;
        sbc_obs::counter!("serve.evictions").incr();
        svc::observe_tenant_state(tenant, TenantState::Evicted, bytes);
        Ok(bytes)
    }

    /// Makes a tenant live, restoring it from its spill if needed.
    /// `Ok(restored)` tells whether a restore happened.
    fn ensure_live(&mut self, tenant: TenantId, rid: RequestId) -> Result<bool, SbcError> {
        match self.slots.get(&tenant) {
            Some(Slot::Live(_)) => return Ok(false),
            None => return Err(ApiError::UnknownTenant { tenant }.into()),
            Some(Slot::Restoring { .. }) => {
                return Err(ApiError::MigrationInProgress { tenant }.into())
            }
            Some(Slot::Moved { peer }) => {
                let peer = *peer;
                return Err(ApiError::Moved { tenant, peer }.into());
            }
            Some(Slot::Evicted { .. }) => {}
        }
        let _restore_span = trace::span("svc.restore", rid.causal(), 0);
        // Restore from the slot in place: a failed read or restore
        // leaves the tenant evicted, not lost.
        let Some(Slot::Evicted { spec, spill, .. }) = self.slots.get(&tenant) else {
            unreachable!("checked evicted above");
        };
        let (spec, backend) = match spill {
            Spill::Disk(path) => {
                let image = std::fs::read(path).map_err(|e| ApiError::EvictIo {
                    message: format!("{}: {e}", path.display()),
                })?;
                (*spec, Backend::from_image(tenant, spec, &image)?)
            }
            Spill::Memory(image) => (*spec, Backend::from_image(tenant, spec, image)?),
        };
        let Some(Slot::Evicted { spill, bytes, .. }) = self.slots.remove(&tenant) else {
            unreachable!("checked evicted above");
        };
        if let Spill::Disk(path) = &spill {
            let _ = std::fs::remove_file(path);
        }
        self.evicted_tenants -= 1;
        self.spill_bytes -= bytes;
        self.restores += 1;
        sbc_obs::counter!("serve.restores").incr();
        svc::observe_restore(rid);
        self.install(tenant, spec, backend);
        Ok(true)
    }

    /// Makes `backend` the live pipeline of `tenant` and charges its
    /// footprint to the running totals.
    fn install(&mut self, tenant: TenantId, spec: TenantSpec, backend: Backend) {
        let measured = backend.measured_bytes();
        self.total_measured += measured;
        self.peak_measured = self.peak_measured.max(self.total_measured);
        self.slots.insert(
            tenant,
            Slot::Live(Tenant {
                spec,
                backend,
                measured,
                peak_measured: measured,
                migration: None,
            }),
        );
        self.live_tenants += 1;
        svc::observe_tenant_state(tenant, TenantState::Live, measured as u64);
    }

    /// The refusal for a request that would add a tenant past
    /// [`ServeConfig::max_tenants`].
    fn refuse_at_tenant_cap(&mut self) -> Option<ApiResponse> {
        if self.config.max_tenants == 0 || self.slots.len() < self.config.max_tenants {
            return None;
        }
        self.overloaded += 1;
        Some(ApiResponse::Overloaded {
            measured_bytes: self.total_measured as u64,
            budget_bytes: self.config.budget_bytes as u64,
        })
    }

    /// The admission decision for a mutating request touching `exempt`.
    /// Returns the refusal response when the request must not proceed.
    /// Always records how long the decision took.
    fn admit(&mut self, exempt: TenantId, rid: RequestId) -> Option<ApiResponse> {
        self.admit_with(exempt, 0, rid)
    }

    /// The admission decision for a request about to restore `tenant`
    /// from its spill: the evicted footprint is charged as incoming
    /// bytes *before* the restore, so an evicted tenant cannot be
    /// brought back past the budget (the restore-on-demand path would
    /// otherwise bypass admission control entirely). A no-op when the
    /// tenant is live or unknown.
    fn admit_restore(&mut self, tenant: TenantId, rid: RequestId) -> Option<ApiResponse> {
        let incoming = match self.slots.get(&tenant) {
            Some(Slot::Evicted { measured, .. }) => *measured,
            _ => return None,
        };
        self.admit_with(tenant, incoming, rid)
    }

    fn admit_with(
        &mut self,
        exempt: TenantId,
        incoming: usize,
        rid: RequestId,
    ) -> Option<ApiResponse> {
        let _admit_span = trace::span("svc.admit", rid.causal(), incoming as u64);
        let t0 = Instant::now();
        let verdict = self.admit_inner(exempt, incoming);
        self.record_admission_ns(t0.elapsed().as_nanos() as u64);
        if verdict.is_some() {
            self.overloaded += 1;
            sbc_obs::counter!("serve.overloaded").incr();
        }
        verdict
    }

    /// `incoming` is the known footprint the request is about to add
    /// (a restore's evicted bytes; 0 for the admit-then-measure paths).
    /// With `incoming` known the check is exact (`total + incoming`
    /// must fit); without it the service admits while strictly under
    /// budget and measures afterwards.
    fn admit_inner(&mut self, exempt: TenantId, incoming: usize) -> Option<ApiResponse> {
        let budget = self.config.budget_bytes;
        if budget == 0 {
            return None;
        }
        let over = |total: usize| {
            if incoming > 0 {
                total.saturating_add(incoming) > budget
            } else {
                total >= budget
            }
        };
        if !over(self.total_measured) {
            return None;
        }
        if self.config.policy == OverloadPolicy::Shed {
            // Evict fattest-first until back under budget. The target
            // tenant is exempt — evicting it to admit its own request
            // would just force an immediate restore. Frozen (migrating)
            // tenants are also exempt: evicting one would drop its
            // snapshot and replay queue mid-transfer.
            while over(self.total_measured) {
                let victim = self
                    .slots
                    .iter()
                    .filter_map(|(id, slot)| match slot {
                        Slot::Live(t) if *id != exempt && t.migration.is_none() => {
                            Some((*id, t.measured))
                        }
                        _ => None,
                    })
                    .max_by_key(|&(id, measured)| (measured, id));
                match victim {
                    Some((id, _)) => {
                        if self.evict_tenant(id).is_err() {
                            break;
                        }
                        self.shed_evictions += 1;
                    }
                    None => break,
                }
            }
            if !over(self.total_measured) {
                return None;
            }
        }
        Some(ApiResponse::Overloaded {
            measured_bytes: self.total_measured as u64,
            budget_bytes: budget as u64,
        })
    }

    /// Refreshes one live tenant's cached footprint and the running
    /// totals after a mutation.
    fn remeasure(&mut self, tenant: TenantId) {
        if let Some(Slot::Live(t)) = self.slots.get_mut(&tenant) {
            let now = t.backend.measured_bytes();
            t.peak_measured = t.peak_measured.max(now);
            self.total_measured = self.total_measured - t.measured + now;
            t.measured = now;
            self.peak_measured = self.peak_measured.max(self.total_measured);
            svc::observe_tenant_state(tenant, TenantState::Live, now as u64);
        }
    }

    fn err(e: SbcError) -> ApiResponse {
        ApiResponse::Error {
            code: e.code(),
            message: e.to_string(),
        }
    }

    /// Handles one request record: assigns it a [`RequestId`], opens
    /// the `svc.request` span (the root of the request's causal chain
    /// in the flight recorder), dispatches, then publishes SLO
    /// telemetry and the slow-request trigger. All of it is
    /// observational — the response is exactly what the dispatch chose,
    /// bit for bit, in every feature state.
    pub fn handle(&mut self, req: &ApiRequest) -> ApiResponse {
        sbc_obs::counter!("serve.requests").incr();
        self.request_seq += 1;
        let rid = match Self::request_tenant(req) {
            Some(tenant) => RequestId::for_tenant(tenant, self.request_seq),
            None => RequestId::service(self.request_seq),
        };
        let tag = Self::request_tag(req);
        // Class is read before dispatch so a Close still reports under
        // the tenant's class, not the now-empty slot's.
        let class = svc::metrics_active().then(|| self.request_class(rid));
        let timer = svc::RequestTimer::start();
        let span = trace::span("svc.request", rid.causal(), tag as u64);
        let resp = self.dispatch(req, rid);
        let error_code = Self::response_error(&resp);
        trace::instant(
            "svc.response",
            rid.causal(),
            u64::from(error_code.unwrap_or(0)),
        );
        drop(span);
        let elapsed_ns = timer.elapsed_ns();
        if let Some(class) = class {
            svc::observe_request(class, tag, rid, elapsed_ns, error_code);
            self.publish_gauges();
        }
        svc::maybe_dump_slow(rid, elapsed_ns);
        resp
    }

    fn dispatch(&mut self, req: &ApiRequest, rid: RequestId) -> ApiResponse {
        match req {
            ApiRequest::Hello {
                min_version,
                max_version,
            } => match negotiate(*min_version, *max_version) {
                Ok(version) => ApiResponse::HelloAck { version },
                Err(e) => Self::err(e.into()),
            },
            ApiRequest::Open { tenant, spec } => self.open(*tenant, *spec, rid),
            ApiRequest::Insert { tenant, points } => self.mutate(*tenant, points, false, rid),
            ApiRequest::Delete { tenant, points } => self.mutate(*tenant, points, true, rid),
            ApiRequest::Query { tenant } => self.query(*tenant, rid),
            ApiRequest::Stats { tenant } => self.stats(*tenant),
            ApiRequest::Checkpoint { tenant } => self.checkpoint(*tenant, rid),
            ApiRequest::Evict { tenant } => self.evict(*tenant),
            ApiRequest::Close { tenant } => self.close(*tenant),
            ApiRequest::ServerStats => ApiResponse::ServerStatsReply {
                stats: self.server_stats(),
            },
            ApiRequest::Shutdown => {
                self.shutting_down = true;
                ApiResponse::ShuttingDown
            }
            ApiRequest::Health => ApiResponse::HealthReply {
                report: self.health_report(),
            },
            ApiRequest::MigrateOut {
                tenant,
                chunk_bytes,
            } => self.migrate_out(*tenant, *chunk_bytes, rid),
            ApiRequest::ChunkedCheckpoint {
                tenant,
                spec,
                chunk,
                total_chunks,
                total_bytes,
                measured_bytes,
                payload,
            } => self.chunk_in(
                *tenant,
                spec,
                *chunk,
                *total_chunks,
                *total_bytes,
                *measured_bytes,
                payload,
                rid,
            ),
            ApiRequest::DrainReplay { tenant, max_ops } => self.drain_replay(*tenant, *max_ops),
            ApiRequest::CutOver { tenant, peer } => self.cut_over(*tenant, *peer, rid),
            ApiRequest::MigrateAbort { tenant } => self.migrate_abort(*tenant),
            ApiRequest::Unknown { tag } => ApiResponse::Unsupported { tag: *tag },
        }
    }

    /// The tenant a request addresses, if any.
    fn request_tenant(req: &ApiRequest) -> Option<TenantId> {
        match req {
            ApiRequest::Open { tenant, .. }
            | ApiRequest::Insert { tenant, .. }
            | ApiRequest::Delete { tenant, .. }
            | ApiRequest::Query { tenant }
            | ApiRequest::Stats { tenant }
            | ApiRequest::Checkpoint { tenant }
            | ApiRequest::Evict { tenant }
            | ApiRequest::Close { tenant }
            | ApiRequest::MigrateOut { tenant, .. }
            | ApiRequest::ChunkedCheckpoint { tenant, .. }
            | ApiRequest::DrainReplay { tenant, .. }
            | ApiRequest::CutOver { tenant, .. }
            | ApiRequest::MigrateAbort { tenant } => Some(*tenant),
            ApiRequest::Hello { .. }
            | ApiRequest::ServerStats
            | ApiRequest::Shutdown
            | ApiRequest::Health
            | ApiRequest::Unknown { .. } => None,
        }
    }

    /// Histogram key for the request's wire tag.
    fn request_tag(req: &ApiRequest) -> RequestTag {
        match req {
            ApiRequest::Hello { .. } => RequestTag::Hello,
            ApiRequest::Open { .. } => RequestTag::Open,
            ApiRequest::Insert { .. } => RequestTag::Insert,
            ApiRequest::Delete { .. } => RequestTag::Delete,
            ApiRequest::Query { .. } => RequestTag::Query,
            ApiRequest::Stats { .. } => RequestTag::Stats,
            ApiRequest::Checkpoint { .. } => RequestTag::Checkpoint,
            ApiRequest::Evict { .. } => RequestTag::Evict,
            ApiRequest::Close { .. } => RequestTag::Close,
            ApiRequest::ServerStats => RequestTag::ServerStats,
            ApiRequest::Shutdown => RequestTag::Shutdown,
            ApiRequest::Health => RequestTag::Health,
            ApiRequest::MigrateOut { .. } => RequestTag::MigrateOut,
            ApiRequest::ChunkedCheckpoint { .. } => RequestTag::MigrateChunk,
            ApiRequest::DrainReplay { .. } => RequestTag::MigrateDrain,
            ApiRequest::CutOver { .. } => RequestTag::CutOver,
            ApiRequest::MigrateAbort { .. } => RequestTag::MigrateAbort,
            ApiRequest::Unknown { .. } => RequestTag::Unknown,
        }
    }

    /// The wire error code a response carries, if it is a refusal or
    /// failure (the stable 200–246 registry; `Overloaded`,
    /// `Unsupported` and `Moved` map to their coded equivalents
    /// 220/221/246).
    fn response_error(resp: &ApiResponse) -> Option<u16> {
        match resp {
            ApiResponse::Error { code, .. } => Some(*code),
            ApiResponse::Overloaded { .. } => Some(220),
            ApiResponse::Unsupported { .. } => Some(221),
            ApiResponse::Moved { .. } => Some(246),
            _ => None,
        }
    }

    /// Histogram class for the request's tenant: sharded specs pay a
    /// merge on query, so their tails are tracked separately. Unknown
    /// and service-scoped requests count as single.
    fn request_class(&self, rid: RequestId) -> RequestClass {
        let shards = match self.slots.get(&rid.tenant) {
            Some(Slot::Live(t)) => t.spec.shards,
            Some(Slot::Evicted { spec, .. }) | Some(Slot::Restoring { spec, .. }) => spec.shards,
            Some(Slot::Moved { .. }) | None => 1,
        };
        if shards > 1 {
            RequestClass::Sharded
        } else {
            RequestClass::Single
        }
    }

    /// Publishes the service gauges off the O(1) maintained fields.
    fn publish_gauges(&self) {
        svc::set_gauge(svc::Gauge::TenantsLive, self.live_tenants);
        svc::set_gauge(svc::Gauge::TenantsEvicted, self.evicted_tenants);
        svc::set_gauge(svc::Gauge::SpillBytes, self.spill_bytes);
        svc::set_gauge(svc::Gauge::AdmissionRejects, self.overloaded);
        svc::set_gauge(svc::Gauge::AdmissionSheds, self.shed_evictions);
        svc::set_gauge(svc::Gauge::Restores, self.restores);
    }

    /// The redirect for a tombstoned tenant, if this id has moved.
    /// Checked before every tenant-scoped operation so clients are
    /// steered to the owning peer instead of hitting `UnknownTenant`.
    fn check_moved(&self, tenant: TenantId) -> Option<ApiResponse> {
        match self.slots.get(&tenant) {
            Some(Slot::Moved { peer }) => Some(ApiResponse::Moved {
                tenant,
                peer: *peer,
            }),
            _ => None,
        }
    }

    fn open(&mut self, tenant: TenantId, spec: TenantSpec, rid: RequestId) -> ApiResponse {
        if let Some(resp) = self.check_moved(tenant) {
            return resp;
        }
        if let Some(Slot::Restoring { .. }) = self.slots.get(&tenant) {
            return Self::err(ApiError::MigrationInProgress { tenant }.into());
        }
        enum Known {
            LiveSame,
            EvictedSame,
            SpecMismatch,
            Absent,
        }
        let known = match self.slots.get(&tenant) {
            Some(Slot::Live(t)) if t.spec == spec => Known::LiveSame,
            Some(Slot::Evicted { spec: old, .. }) if *old == spec => Known::EvictedSame,
            Some(_) => Known::SpecMismatch,
            None => Known::Absent,
        };
        match known {
            // Idempotent re-open (retried frame).
            Known::LiveSame => {
                return ApiResponse::Opened {
                    tenant,
                    restored: false,
                }
            }
            Known::EvictedSame => {
                if let Some(refusal) = self.admit_restore(tenant, rid) {
                    return refusal;
                }
                return match self.ensure_live(tenant, rid) {
                    Ok(_) => ApiResponse::Opened {
                        tenant,
                        restored: true,
                    },
                    Err(e) => Self::err(e),
                };
            }
            Known::SpecMismatch => return Self::err(ApiError::TenantExists { tenant }.into()),
            Known::Absent => {}
        }
        if let Some(refusal) = self.refuse_at_tenant_cap() {
            return refusal;
        }
        if let Some(refusal) = self.admit(tenant, rid) {
            return refusal;
        }
        let backend = match Backend::build(&spec) {
            Ok(b) => b,
            Err(e) => return Self::err(e),
        };
        sbc_obs::counter!("serve.tenants.opened").incr();
        self.install(tenant, spec, backend);
        ApiResponse::Opened {
            tenant,
            restored: false,
        }
    }

    fn mutate(
        &mut self,
        tenant: TenantId,
        points: &[Point],
        delete: bool,
        rid: RequestId,
    ) -> ApiResponse {
        if let Some(resp) = self.check_moved(tenant) {
            return resp;
        }
        // An evicted target's footprint is admitted *before* the
        // restore pulls it back into memory; the refusal leaves the
        // tenant on disk and the budget intact.
        if let Some(refusal) = self.admit_restore(tenant, rid) {
            return refusal;
        }
        if let Err(e) = self.ensure_live(tenant, rid) {
            return Self::err(e);
        }
        if let Some(refusal) = self.admit(tenant, rid) {
            return refusal;
        }
        let Some(Slot::Live(t)) = self.slots.get_mut(&tenant) else {
            unreachable!("ensure_live succeeded");
        };
        let dims = t.spec.dims as usize;
        if let Some(bad) = points.iter().find(|p| p.coords().len() != dims) {
            return Self::err(
                ApiError::InvalidPoints {
                    message: format!(
                        "tenant {tenant} is {dims}-dimensional, got a {}-dimensional point",
                        bad.coords().len()
                    ),
                }
                .into(),
            );
        }
        // A frozen (migrating) tenant double-buffers: the batch must
        // also fit the replay queue, and the capacity check happens
        // *before* anything is applied, so a refused batch leaves both
        // buffers untouched.
        if let Some(m) = t.migration.as_ref() {
            let incoming = points.len() as u64;
            if m.queued_ops + incoming > REPLAY_QUEUE_MAX_OPS {
                let queued = m.queued_ops;
                return Self::err(
                    ApiError::ReplayOverflow {
                        tenant,
                        queued,
                        cap: REPLAY_QUEUE_MAX_OPS,
                    }
                    .into(),
                );
            }
        }
        let _backend_span = trace::span("svc.backend", rid.causal(), points.len() as u64);
        if delete {
            t.backend.delete_batch(points);
        } else {
            t.backend.insert_batch(points);
        }
        let mut queued_now = 0;
        if let Some(m) = t.migration.as_mut() {
            m.replay.push_back(ReplayOp {
                delete,
                points: points.to_vec(),
            });
            m.queued_ops += points.len() as u64;
            queued_now = m.queued_ops;
        }
        let net_count = t.backend.net_count();
        self.ops_total += points.len() as u64;
        self.migration.replay_queue_peak = self.migration.replay_queue_peak.max(queued_now);
        sbc_obs::counter!("serve.ops").add(points.len() as u64);
        self.remeasure(tenant);
        ApiResponse::Applied {
            tenant,
            applied: points.len() as u64,
            net_count,
        }
    }

    fn query(&mut self, tenant: TenantId, rid: RequestId) -> ApiResponse {
        if let Some(resp) = self.check_moved(tenant) {
            return resp;
        }
        // Reads on a live tenant are never refused, but a read that
        // must *restore* grows the service and goes through the same
        // restore admission as mutations.
        if let Some(refusal) = self.admit_restore(tenant, rid) {
            return refusal;
        }
        if let Err(e) = self.ensure_live(tenant, rid) {
            return Self::err(e);
        }
        let Some(Slot::Live(t)) = self.slots.get(&tenant) else {
            unreachable!("ensure_live succeeded");
        };
        let _backend_span = trace::span("svc.backend", rid.causal(), 0);
        match t.backend.finish_ref() {
            Ok(cs) => ApiResponse::CoresetReply {
                tenant,
                o: cs.o,
                points: cs
                    .entries()
                    .iter()
                    .map(|e| CoresetPoint {
                        point: e.point.clone(),
                        weight: e.weight,
                        level: e.level,
                        part: e.part as u64,
                    })
                    .collect(),
            },
            Err(e) => Self::err(e),
        }
    }

    fn stats(&mut self, tenant: TenantId) -> ApiResponse {
        // Stats must not force a restore — observability stays cheap.
        match self.slots.get(&tenant) {
            Some(Slot::Live(t)) => ApiResponse::StatsReply {
                tenant,
                stats: t.stats(t.spec.shards.max(1)),
            },
            Some(Slot::Evicted { spec, .. }) => ApiResponse::StatsReply {
                tenant,
                stats: TenantStats {
                    shards: spec.shards.max(1),
                    evicted: true,
                    ..TenantStats::default()
                },
            },
            Some(Slot::Restoring { .. }) => {
                Self::err(ApiError::MigrationInProgress { tenant }.into())
            }
            Some(Slot::Moved { peer }) => ApiResponse::Moved {
                tenant,
                peer: *peer,
            },
            None => Self::err(ApiError::UnknownTenant { tenant }.into()),
        }
    }

    fn checkpoint(&mut self, tenant: TenantId, rid: RequestId) -> ApiResponse {
        if let Some(resp) = self.check_moved(tenant) {
            return resp;
        }
        if let Some(refusal) = self.admit_restore(tenant, rid) {
            return refusal;
        }
        if let Err(e) = self.ensure_live(tenant, rid) {
            return Self::err(e);
        }
        let Some(Slot::Live(t)) = self.slots.get(&tenant) else {
            unreachable!("ensure_live succeeded");
        };
        let _backend_span = trace::span("svc.backend", rid.causal(), 0);
        match t.image() {
            Ok(bytes) => ApiResponse::CheckpointReply { tenant, bytes },
            Err(e) => Self::err(e),
        }
    }

    fn evict(&mut self, tenant: TenantId) -> ApiResponse {
        match self.slots.get(&tenant) {
            Some(Slot::Evicted { bytes, .. }) => {
                // Idempotent re-evict (retried frame).
                let bytes = *bytes;
                ApiResponse::Evicted { tenant, bytes }
            }
            // Evicting a frozen tenant would drop its snapshot and
            // replay queue mid-transfer; the coordinator must abort or
            // cut over first.
            Some(Slot::Live(t)) if t.migration.is_some() => {
                Self::err(ApiError::MigrationInProgress { tenant }.into())
            }
            Some(Slot::Live(_)) => match self.evict_tenant(tenant) {
                Ok(bytes) => ApiResponse::Evicted { tenant, bytes },
                Err(e) => Self::err(e),
            },
            Some(Slot::Restoring { .. }) => {
                Self::err(ApiError::MigrationInProgress { tenant }.into())
            }
            Some(Slot::Moved { peer }) => ApiResponse::Moved {
                tenant,
                peer: *peer,
            },
            None => Self::err(ApiError::UnknownTenant { tenant }.into()),
        }
    }

    fn close(&mut self, tenant: TenantId) -> ApiResponse {
        match self.slots.remove(&tenant) {
            Some(Slot::Live(t)) => {
                self.total_measured -= t.measured;
                self.live_tenants -= 1;
                svc::observe_tenant_state(tenant, TenantState::Closed, 0);
                ApiResponse::Closed { tenant }
            }
            Some(Slot::Evicted { spill, bytes, .. }) => {
                self.evicted_tenants -= 1;
                self.spill_bytes -= bytes;
                if let Spill::Disk(path) = spill {
                    let _ = std::fs::remove_file(path);
                }
                svc::observe_tenant_state(tenant, TenantState::Closed, 0);
                ApiResponse::Closed { tenant }
            }
            // Closing a half-assembled transfer releases its admission
            // reservation; closing a tombstone just forgets the
            // redirect.
            Some(Slot::Restoring { measured, .. }) => {
                self.total_measured -= measured;
                svc::observe_tenant_state(tenant, TenantState::Closed, 0);
                ApiResponse::Closed { tenant }
            }
            Some(Slot::Moved { .. }) => {
                svc::observe_tenant_state(tenant, TenantState::Closed, 0);
                ApiResponse::Closed { tenant }
            }
            None => Self::err(ApiError::UnknownTenant { tenant }.into()),
        }
    }

    /// Freezes a tenant for outbound migration: checkpoints it at the
    /// current request seq (the **seq barrier**), splits the container
    /// into `chunk_bytes`-sized chunks, and arms the replay queue.
    /// Until cutover or abort, mutations are double-buffered — applied
    /// locally *and* queued — so the tenant stays fully readable and an
    /// abort loses nothing.
    fn migrate_out(&mut self, tenant: TenantId, chunk_bytes: u32, rid: RequestId) -> ApiResponse {
        if let Some(resp) = self.check_moved(tenant) {
            return resp;
        }
        if chunk_bytes == 0 {
            return Self::err(
                ApiError::InvalidSpec {
                    message: "chunk_bytes must be positive".to_string(),
                }
                .into(),
            );
        }
        if chunk_bytes > MAX_MIGRATION_CHUNK_BYTES {
            return Self::err(
                ApiError::ChunkTooLarge {
                    claimed: u64::from(chunk_bytes),
                    max: u64::from(MAX_MIGRATION_CHUNK_BYTES),
                }
                .into(),
            );
        }
        // Idempotent re-freeze (retried frame): answer the existing
        // manifest without re-checkpointing.
        if let Some(Slot::Live(t)) = self.slots.get(&tenant) {
            if let Some(m) = &t.migration {
                return ApiResponse::MigrateManifest {
                    tenant,
                    spec: t.spec,
                    total_chunks: m.chunks.len() as u32,
                    total_bytes: m.total_bytes,
                    measured_bytes: m.measured_bytes,
                    seq_barrier: m.seq_barrier,
                };
            }
        }
        // An evicted tenant is restored first (charged like any other
        // restore) — the wire ships the same container either way, but
        // freezing a live backend is what arms the replay queue.
        if let Some(refusal) = self.admit_restore(tenant, rid) {
            return refusal;
        }
        if let Err(e) = self.ensure_live(tenant, rid) {
            return Self::err(e);
        }
        let _span = trace::span("svc.migrate.out", rid.causal(), u64::from(chunk_bytes));
        let cap = self.migration_byte_cap();
        let seq_barrier = self.request_seq;
        let Some(Slot::Live(t)) = self.slots.get_mut(&tenant) else {
            unreachable!("ensure_live succeeded");
        };
        let container = match t.image() {
            Ok(c) => c,
            Err(e) => return Self::err(e),
        };
        let total_bytes = container.len() as u64;
        if total_bytes > cap {
            return Self::err(
                ApiError::ChunkTooLarge {
                    claimed: total_bytes,
                    max: cap,
                }
                .into(),
            );
        }
        let chunks: Vec<Vec<u8>> = container
            .chunks(chunk_bytes as usize)
            .map(<[u8]>::to_vec)
            .collect();
        let total_chunks = chunks.len() as u32;
        let measured_bytes = t.measured as u64;
        let spec = t.spec;
        t.migration = Some(MigrationOut {
            chunks,
            total_bytes,
            measured_bytes,
            seq_barrier,
            replay: VecDeque::new(),
            queued_ops: 0,
        });
        self.migration.migrations_out += 1;
        svc::observe_migration(MigrationEvent::Out, 1);
        ApiResponse::MigrateManifest {
            tenant,
            spec,
            total_chunks,
            total_bytes,
            measured_bytes,
            seq_barrier,
        }
    }

    /// One chunk of an inbound transfer. Chunk 0 admits the tenant
    /// (charging the manifest's `measured_bytes` as a budget
    /// reservation, exactly like a restore); the final chunk decodes
    /// the assembled container and restores it bit-identically.
    #[allow(clippy::too_many_arguments)]
    fn chunk_in(
        &mut self,
        tenant: TenantId,
        spec: &TenantSpec,
        chunk: u32,
        total_chunks: u32,
        total_bytes: u64,
        measured_bytes: u64,
        payload: &[u8],
        rid: RequestId,
    ) -> ApiResponse {
        let _span = trace::span("svc.migrate.in", rid.causal(), u64::from(chunk));
        // Header sanity before any state is touched — hostile sizes are
        // refused without buffering a byte.
        let cap = self.migration_byte_cap();
        if total_bytes > cap {
            return Self::err(
                ApiError::ChunkTooLarge {
                    claimed: total_bytes,
                    max: cap,
                }
                .into(),
            );
        }
        if payload.len() as u64 > u64::from(MAX_MIGRATION_CHUNK_BYTES) {
            return Self::err(
                ApiError::ChunkTooLarge {
                    claimed: payload.len() as u64,
                    max: u64::from(MAX_MIGRATION_CHUNK_BYTES),
                }
                .into(),
            );
        }
        if total_chunks == 0 || chunk >= total_chunks {
            return Self::err(
                ApiError::ChunkOutOfOrder {
                    tenant,
                    expected: 0,
                    got: chunk,
                }
                .into(),
            );
        }
        // Chunk 0 supersedes a stale tombstone: the fleet is moving the
        // tenant *back* here, so the old redirect is obsolete routing
        // state. Mid-transfer chunks still redirect (below).
        if chunk == 0 {
            if let Some(Slot::Moved { .. }) = self.slots.get(&tenant) {
                self.slots.remove(&tenant);
            }
        }
        match self.slots.get(&tenant) {
            Some(Slot::Moved { peer }) => {
                let peer = *peer;
                return ApiResponse::Moved { tenant, peer };
            }
            Some(Slot::Live(_)) | Some(Slot::Evicted { .. }) => {
                return Self::err(ApiError::TenantExists { tenant }.into())
            }
            Some(Slot::Restoring { .. }) => {}
            None => {
                // First contact must be chunk 0 — a mid-transfer chunk
                // for an unknown tenant is a lost or reordered start.
                if chunk != 0 {
                    return Self::err(
                        ApiError::ChunkOutOfOrder {
                            tenant,
                            expected: 0,
                            got: chunk,
                        }
                        .into(),
                    );
                }
                if let Err(e) = pipeline_params(spec) {
                    return Self::err(e);
                }
                if let Some(refusal) = self.refuse_at_tenant_cap() {
                    return refusal;
                }
                // Admit the manifest's footprint up front and hold it
                // as a reservation for the whole transfer — a migration
                // storm cannot stack inbound tenants past the budget
                // (the restore-budget guarantee, extended to fleets).
                let measured = measured_bytes as usize;
                if let Some(refusal) = self.admit_with(tenant, measured, rid) {
                    return refusal;
                }
                self.total_measured += measured;
                self.peak_measured = self.peak_measured.max(self.total_measured);
                self.slots.insert(
                    tenant,
                    Slot::Restoring {
                        spec: *spec,
                        total_chunks,
                        total_bytes,
                        measured,
                        next_chunk: 0,
                        buf: Vec::new(),
                    },
                );
            }
        }
        let Some(Slot::Restoring {
            spec: sspec,
            total_chunks: tc,
            total_bytes: tb,
            measured,
            next_chunk,
            buf,
        }) = self.slots.get_mut(&tenant)
        else {
            unreachable!("slot inserted or matched Restoring above");
        };
        // Every chunk re-states the manifest; a drifting header means
        // two transfers are interleaving and the chunk is refused.
        if *tc != total_chunks || *tb != total_bytes || *sspec != *spec || {
            let reserved = *measured as u64;
            reserved != measured_bytes
        } {
            let expected = *next_chunk;
            return Self::err(
                ApiError::ChunkOutOfOrder {
                    tenant,
                    expected,
                    got: chunk,
                }
                .into(),
            );
        }
        // Idempotent re-ack of the chunk just applied (retried frame).
        if chunk.wrapping_add(1) == *next_chunk {
            let received_bytes = buf.len() as u64;
            return ApiResponse::ChunkAck {
                tenant,
                chunk,
                received_bytes,
            };
        }
        if chunk != *next_chunk {
            let expected = *next_chunk;
            return Self::err(
                ApiError::ChunkOutOfOrder {
                    tenant,
                    expected,
                    got: chunk,
                }
                .into(),
            );
        }
        let claimed = (buf.len() + payload.len()) as u64;
        if claimed > total_bytes {
            return Self::err(
                ApiError::ChunkTooLarge {
                    claimed,
                    max: total_bytes,
                }
                .into(),
            );
        }
        buf.extend_from_slice(payload);
        *next_chunk += 1;
        let received_bytes = buf.len() as u64;
        let done = *next_chunk == total_chunks;
        self.migration.chunks_in += 1;
        svc::observe_migration(MigrationEvent::Chunk, 1);
        if !done {
            return ApiResponse::ChunkAck {
                tenant,
                chunk,
                received_bytes,
            };
        }
        // Final chunk: swap the reservation for the restored backend's
        // actual footprint. A failed decode drops the transfer entirely
        // (slot and reservation) — the source still owns the tenant.
        let Some(Slot::Restoring {
            spec: sspec,
            measured,
            buf,
            ..
        }) = self.slots.remove(&tenant)
        else {
            unreachable!("matched Restoring above");
        };
        self.total_measured -= measured;
        if received_bytes != total_bytes {
            return Self::err(
                ApiError::EvictIo {
                    message: format!(
                        "tenant {tenant}: migration container ended at \
                         {received_bytes} of {total_bytes} bytes"
                    ),
                }
                .into(),
            );
        }
        let backend = match Backend::from_image(tenant, &sspec, &buf) {
            Ok(b) => b,
            Err(e) => return Self::err(e),
        };
        self.install(tenant, sspec, backend);
        self.migration.migrations_in += 1;
        svc::observe_migration(MigrationEvent::In, 1);
        ApiResponse::ChunkAck {
            tenant,
            chunk,
            received_bytes,
        }
    }

    /// Drains buffered replay batches from a frozen source — whole
    /// batches, at least one when the queue is non-empty, up to
    /// `max_ops` points total.
    fn drain_replay(&mut self, tenant: TenantId, max_ops: u32) -> ApiResponse {
        let (ops, drained, remaining) = match self.slots.get_mut(&tenant) {
            Some(Slot::Live(t)) => match t.migration.as_mut() {
                Some(m) => {
                    let mut ops = Vec::new();
                    let mut drained = 0u64;
                    while let Some(front) = m.replay.front() {
                        let n = front.points.len() as u64;
                        if !ops.is_empty() && drained + n > u64::from(max_ops) {
                            break;
                        }
                        drained += n;
                        let Some(batch) = m.replay.pop_front() else {
                            unreachable!("front() was Some");
                        };
                        ops.push(batch);
                    }
                    m.queued_ops -= drained;
                    (ops, drained, m.queued_ops)
                }
                None => return Self::err(ApiError::NotMigrating { tenant }.into()),
            },
            Some(Slot::Restoring { .. }) => {
                return Self::err(ApiError::MigrationInProgress { tenant }.into())
            }
            Some(Slot::Moved { peer }) => {
                let peer = *peer;
                return ApiResponse::Moved { tenant, peer };
            }
            Some(Slot::Evicted { .. }) => {
                return Self::err(ApiError::NotMigrating { tenant }.into())
            }
            None => return Self::err(ApiError::UnknownTenant { tenant }.into()),
        };
        self.migration.replayed_ops += drained;
        svc::observe_migration(MigrationEvent::Replayed, drained);
        ApiResponse::ReplayBatch {
            tenant,
            ops,
            remaining,
        }
    }

    /// Atomically flips ownership to `peer`: refused while replay ops
    /// remain (the lossless barrier), then the live slot becomes a
    /// redirect tombstone.
    fn cut_over(&mut self, tenant: TenantId, peer: u32, rid: RequestId) -> ApiResponse {
        match self.slots.get(&tenant) {
            // Idempotent re-cutover (retried frame).
            Some(Slot::Moved { peer: p }) => {
                let peer = *p;
                return ApiResponse::MigrateAck {
                    tenant,
                    committed: true,
                    peer,
                };
            }
            Some(Slot::Restoring { .. }) => {
                return Self::err(ApiError::MigrationInProgress { tenant }.into())
            }
            Some(Slot::Evicted { .. }) => {
                return Self::err(ApiError::NotMigrating { tenant }.into())
            }
            Some(Slot::Live(t)) => match &t.migration {
                None => return Self::err(ApiError::NotMigrating { tenant }.into()),
                Some(m) if m.queued_ops > 0 => {
                    let queued = m.queued_ops;
                    return Self::err(ApiError::ReplayPending { tenant, queued }.into());
                }
                Some(_) => {}
            },
            None => return Self::err(ApiError::UnknownTenant { tenant }.into()),
        }
        let Some(Slot::Live(t)) = self.slots.remove(&tenant) else {
            unreachable!("checked live above");
        };
        trace::instant("svc.cutover", rid.causal(), u64::from(peer));
        self.total_measured -= t.measured;
        self.live_tenants -= 1;
        self.slots.insert(tenant, Slot::Moved { peer });
        self.migration.cutovers += 1;
        svc::observe_migration(MigrationEvent::CutOver, 1);
        svc::observe_tenant_state(tenant, TenantState::Closed, 0);
        ApiResponse::MigrateAck {
            tenant,
            committed: true,
            peer,
        }
    }

    /// Abandons an in-progress migration. On the source this is
    /// lossless — ops were double-applied all along, so dropping the
    /// frozen snapshot and queue keeps the tenant current. On a
    /// receiver it discards the half-assembled transfer and releases
    /// its reservation.
    fn migrate_abort(&mut self, tenant: TenantId) -> ApiResponse {
        enum Kind {
            Out,
            In,
            NotMigrating,
            Moved(u32),
            Absent,
        }
        let kind = match self.slots.get(&tenant) {
            Some(Slot::Live(t)) if t.migration.is_some() => Kind::Out,
            Some(Slot::Live(_)) | Some(Slot::Evicted { .. }) => Kind::NotMigrating,
            Some(Slot::Restoring { .. }) => Kind::In,
            Some(Slot::Moved { peer }) => Kind::Moved(*peer),
            None => Kind::Absent,
        };
        match kind {
            Kind::Out => {
                if let Some(Slot::Live(t)) = self.slots.get_mut(&tenant) {
                    t.migration = None;
                }
            }
            Kind::In => {
                if let Some(Slot::Restoring { measured, .. }) = self.slots.remove(&tenant) {
                    self.total_measured -= measured;
                }
            }
            Kind::Moved(peer) => return ApiResponse::Moved { tenant, peer },
            Kind::NotMigrating => return Self::err(ApiError::NotMigrating { tenant }.into()),
            Kind::Absent => return Self::err(ApiError::UnknownTenant { tenant }.into()),
        }
        self.migration.aborts += 1;
        svc::observe_migration(MigrationEvent::Aborted, 1);
        ApiResponse::MigrateAck {
            tenant,
            committed: false,
            peer: 0,
        }
    }

    /// Reads chunk `index` of a frozen tenant's outbound snapshot. The
    /// source-side coordinator ships these to the receiver as
    /// [`ApiRequest::ChunkedCheckpoint`] records; the read is indexed
    /// (not popping) so a lost delivery can be re-read and re-sent.
    pub fn outbound_chunk(&self, tenant: TenantId, index: u32) -> Option<Vec<u8>> {
        let Some(Slot::Live(t)) = self.slots.get(&tenant) else {
            return None;
        };
        t.migration.as_ref()?.chunks.get(index as usize).cloned()
    }

    /// Maps one request frame to one response frame, record-for-record.
    /// Frame-level decode failures produce a single coded error record.
    pub fn handle_frame(&mut self, frame: &[u8]) -> Vec<u8> {
        match unframe_requests(frame) {
            Ok(reqs) => {
                let resps: Vec<ApiResponse> = reqs.iter().map(|r| self.handle(r)).collect();
                frame_responses(&resps)
            }
            Err(e) => {
                self.frame_errors += 1;
                sbc_obs::counter!("serve.frame_errors").incr();
                frame_responses(&[ApiResponse::Error {
                    code: e.code(),
                    message: e.to_string(),
                }])
            }
        }
    }

    /// Envelope entry point for lossy transports: a `(machine, seq)`
    /// wrapper around a frame, answered with a same-`seq` envelope. A
    /// re-delivery of the machine's last sequence number is answered
    /// from cache **without re-applying the frame** — duplicate and
    /// retried deliveries are idempotent.
    pub fn handle_envelope(&mut self, envelope_bytes: &[u8]) -> Vec<u8> {
        let Some(env) = from_bytes::<Envelope>(envelope_bytes) else {
            self.frame_errors += 1;
            sbc_obs::counter!("serve.frame_errors").incr();
            let frame = frame_responses(&[ApiResponse::Error {
                code: ApiError::Truncated.code(),
                message: "undecodable envelope".to_string(),
            }]);
            return to_bytes(&Envelope {
                machine: 0,
                seq: 0,
                payload: frame,
            });
        };
        if let Some((last_seq, cached)) = self.dedup.get(&env.machine) {
            if *last_seq == env.seq {
                sbc_obs::counter!("serve.dedup_hits").incr();
                return cached.clone();
            }
        }
        let frame = self.handle_frame(&env.payload);
        let reply = to_bytes(&Envelope {
            machine: 0,
            seq: env.seq,
            payload: frame,
        });
        if !self.dedup.contains_key(&env.machine) {
            if self.dedup_order.len() >= DEDUP_MAX_MACHINES {
                // Displace the longest-known machine — a client-chosen
                // id cycling through fresh values evicts idle windows
                // instead of growing the map.
                if let Some(oldest) = self.dedup_order.pop_front() {
                    self.dedup.remove(&oldest);
                }
            }
            self.dedup_order.push_back(env.machine);
        }
        self.dedup.insert(env.machine, (env.seq, reply.clone()));
        reply
    }
}
