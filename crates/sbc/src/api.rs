//! The versioned `sbc-serve` request/response protocol (`SBCSRV1`).
//!
//! This module is the **stable public contract** between anything that
//! drives a coreset service and the service itself: the in-process
//! tests, the `serve_bench` load generator, the `sbc-serve` binary and
//! `sbc_serve::Client` all speak exactly these types, so a future
//! network transport inherits the contract unchanged.
//!
//! ## Framing
//!
//! A *frame* is the unit of transmission, carrying a **batch** of
//! length-prefixed records (all integers little-endian, like every
//! other byte format in the workspace):
//!
//! ```text
//! [ 8B magic "SBCSRV1\0" ][ u32 payload_len ][ payload ]
//! payload = [ u32 record_count ] record_count × [ u32 rec_len ][ rec ]
//! rec     = [ u16 tag ][ body… ]
//! ```
//!
//! Requests and responses share the framing; a response frame answers a
//! request frame record-for-record, in order.
//!
//! ## Version negotiation
//!
//! A connection opens with [`ApiRequest::Hello`] carrying the client's
//! supported `[min_version, max_version]` range; the server answers
//! [`ApiResponse::HelloAck`] with the highest version both sides speak
//! (see [`negotiate`]) or an error coded
//! [`ApiError::VersionUnsupported`]. Everything before the ack must be
//! version-1 framing, which is why the magic pins the major revision.
//!
//! ## Forward compatibility
//!
//! Unknown record tags decode to [`ApiRequest::Unknown`] /
//! [`ApiResponse::Unknown`] instead of failing the frame: the record's
//! body is skipped using its length prefix, and a server answers
//! [`ApiResponse::Unsupported`] for that record only. A v1 binary can
//! therefore sit behind a v2 client and degrade per-record rather than
//! per-connection.
//!
//! ## Error codes
//!
//! Every failure carried on the wire has a **stable numeric code**
//! ([`ApiError::code`] / [`SbcError::code`](crate::SbcError::code)).
//! The workspace registry:
//!
//! | range   | owner                                                 |
//! |---------|--------------------------------------------------------|
//! | 101–105 | [`SbcError`](crate::SbcError) core variants            |
//! | 200–299 | [`ApiError`] (framing, protocol, admission)            |
//! | 300–399 | retired (summary-merge failures, gone); never reused   |
//!
//! The registry is append-only: a code, once assigned or retired, is
//! never given a new meaning.

use sbc_geometry::Point;
use sbc_streaming::codec::{Decode, Encode};

/// Frame magic: protocol family + major framing revision. Changing the
/// framing layout (not the record set — that is what versions are for)
/// means a new magic.
pub const FRAME_MAGIC: [u8; 8] = *b"SBCSRV1\0";

/// Highest protocol version this build speaks.
pub const PROTOCOL_VERSION: u32 = 1;

/// Lowest protocol version this build still accepts.
pub const MIN_SUPPORTED_VERSION: u32 = 1;

/// Largest `log_delta` a [`TenantSpec`] may carry (the grid contract:
/// `Δ = 2^L` with `L ≤ 40`).
pub const MAX_LOG_DELTA: u32 = 40;

/// Largest point dimensionality a [`TenantSpec`] may carry. A cap, not
/// a library limit: a wire-supplied `dims` sizes per-point and
/// per-level allocations, so the protocol bounds it.
pub const MAX_DIMS: u32 = 1024;

/// Largest shard count a [`TenantSpec`] may carry. Every shard is a
/// full builder (~5 MB under the serving profile), so the protocol
/// bounds what one `Open` record can make the service allocate.
pub const MAX_SHARDS: u32 = 64;

/// Largest payload one [`ApiRequest::ChunkedCheckpoint`] record may
/// carry. Migration streams a tenant's checkpoint as a sequence of
/// bounded chunks so a single record never forces a receiver
/// allocation anywhere near `--max-frame-bytes`; a header claiming
/// more is refused with [`ApiError::ChunkTooLarge`].
pub const MAX_MIGRATION_CHUNK_BYTES: u32 = 4 << 20;

/// Tenants are named by caller-chosen 64-bit ids.
pub type TenantId = u64;

/// Picks the highest protocol version inside both the peer's
/// `[min, max]` range and this build's supported range.
pub fn negotiate(peer_min: u32, peer_max: u32) -> Result<u32, ApiError> {
    let lo = peer_min.max(MIN_SUPPORTED_VERSION);
    let hi = peer_max.min(PROTOCOL_VERSION);
    if lo > hi {
        return Err(ApiError::VersionUnsupported {
            min: peer_min,
            max: peer_max,
        });
    }
    Ok(hi)
}

/// Everything needed to (re)construct one tenant's coreset pipeline.
///
/// Deliberately *not* the full [`StreamParams`](crate::StreamParams) /
/// [`CoresetParams`](crate::CoresetParams) surface: the wire carries
/// only the stable knobs, and the service derives the rest through the
/// validating builders (so an invalid spec fails with a coded
/// parameter error instead of a panic).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenantSpec {
    /// Number of clusters `k`.
    pub k: u32,
    /// Grid resolution: the universe is `[2^log_delta]^dims`.
    pub log_delta: u32,
    /// Point dimensionality `d`.
    pub dims: u32,
    /// Shard builders for this tenant (1 = a single
    /// `StreamCoresetBuilder`, >1 = `ShardedIngest`).
    pub shards: u32,
    /// Whether a sharded tenant may ingest its shards on threads
    /// (bit-identical to serial by construction).
    pub parallel: bool,
    /// Seed for the tenant's grid shift, hash family and assembly RNG —
    /// replaying the same ops under the same spec is bit-identical.
    pub seed: u64,
}

impl Default for TenantSpec {
    fn default() -> Self {
        TenantSpec {
            k: 2,
            log_delta: 6,
            dims: 2,
            shards: 1,
            parallel: false,
            seed: 0,
        }
    }
}

/// Derives the `(CoresetParams, StreamParams)` pair a tenant spec
/// means, using the **serving profile**: store budgets sized for many
/// small co-resident tenants (`est_rate` 24, `alpha_factor` 2, `rows`
/// 2) rather than the library defaults, which preallocate ~50 MB of
/// store arenas per builder — untenable at thousands of tenants.
///
/// This derivation is part of the versioned protocol contract: the
/// service, the load generator's reference pipelines, and any client
/// that wants to predict a served coreset bit-for-bit must all use it.
/// Changing the profile is a protocol-version event, not a tuning
/// tweak, because it changes every served coreset.
pub fn tenant_pipeline(
    spec: &TenantSpec,
) -> Result<(crate::CoresetParams, crate::StreamParams), crate::SbcError> {
    // The wire-level bounds are checked here, before the grid/params
    // constructors whose assertions assume already-validated inputs — a
    // hostile `Open` record must produce a coded error, never a panic
    // or an unbounded allocation.
    if spec.log_delta > MAX_LOG_DELTA {
        return Err(ApiError::InvalidSpec {
            message: format!("log_delta {} exceeds {MAX_LOG_DELTA}", spec.log_delta),
        }
        .into());
    }
    if spec.dims == 0 || spec.dims > MAX_DIMS {
        return Err(ApiError::InvalidSpec {
            message: format!("dims {} outside 1..={MAX_DIMS}", spec.dims),
        }
        .into());
    }
    if spec.shards > MAX_SHARDS {
        return Err(ApiError::InvalidSpec {
            message: format!("shards {} exceeds {MAX_SHARDS}", spec.shards),
        }
        .into());
    }
    let gp = crate::GridParams::from_log_delta(spec.log_delta, spec.dims as usize);
    let params = crate::CoresetParams::builder(spec.k as usize, gp).build()?;
    let sparams = crate::StreamParams::builder()
        .est_rate(24.0)
        .alpha_factor(2.0)
        .rows(2)
        .shards(spec.shards.max(1) as usize)
        .parallel(spec.parallel)
        .build()?;
    Ok((params, sparams))
}

impl Encode for TenantSpec {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.k.encode(buf);
        self.log_delta.encode(buf);
        self.dims.encode(buf);
        self.shards.encode(buf);
        self.parallel.encode(buf);
        self.seed.encode(buf);
    }
}
impl Decode for TenantSpec {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        Some(TenantSpec {
            k: u32::decode(buf, cursor)?,
            log_delta: u32::decode(buf, cursor)?,
            dims: u32::decode(buf, cursor)?,
            shards: u32::decode(buf, cursor)?,
            parallel: bool::decode(buf, cursor)?,
            seed: u64::decode(buf, cursor)?,
        })
    }
}

/// One coreset point on the wire, mirroring
/// [`CoresetEntry`](crate::CoresetEntry) field-for-field so replies
/// compare bit-identically against an in-process `finish_ref`.
#[derive(Clone, Debug, PartialEq)]
pub struct CoresetPoint {
    /// The sampled point.
    pub point: Point,
    /// Its weight (f64 bits, exact).
    pub weight: f64,
    /// Grid level of the part it was sampled from.
    pub level: i32,
    /// Part index within the level.
    pub part: u64,
}

impl Encode for CoresetPoint {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.point.encode(buf);
        self.weight.encode(buf);
        self.level.encode(buf);
        self.part.encode(buf);
    }
}
impl Decode for CoresetPoint {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        Some(CoresetPoint {
            point: Point::decode(buf, cursor)?,
            weight: f64::decode(buf, cursor)?,
            level: i32::decode(buf, cursor)?,
            part: u64::decode(buf, cursor)?,
        })
    }
}

/// Per-tenant accounting returned by [`ApiRequest::Stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Net live points (inserts − deletes).
    pub net_count: i64,
    /// Gross stream operations absorbed.
    pub ops_seen: u64,
    /// Measured sketch footprint right now (`SpaceReport`-derived; the
    /// admission-control denominator).
    pub measured_bytes: u64,
    /// High-water mark of `measured_bytes`.
    pub peak_measured_bytes: u64,
    /// Shards backing this tenant.
    pub shards: u32,
    /// Whether the tenant currently lives on disk (a checkpoint-evicted
    /// tenant is restored transparently by its next data request).
    pub evicted: bool,
}

impl Encode for TenantStats {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.net_count.encode(buf);
        self.ops_seen.encode(buf);
        self.measured_bytes.encode(buf);
        self.peak_measured_bytes.encode(buf);
        self.shards.encode(buf);
        self.evicted.encode(buf);
    }
}
impl Decode for TenantStats {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        Some(TenantStats {
            net_count: i64::decode(buf, cursor)?,
            ops_seen: u64::decode(buf, cursor)?,
            measured_bytes: u64::decode(buf, cursor)?,
            peak_measured_bytes: u64::decode(buf, cursor)?,
            shards: u32::decode(buf, cursor)?,
            evicted: bool::decode(buf, cursor)?,
        })
    }
}

/// Whole-service accounting returned by [`ApiRequest::ServerStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStatsReport {
    /// Tenants resident in memory.
    pub tenants_live: u64,
    /// Tenants currently evicted to disk.
    pub tenants_evicted: u64,
    /// Sum of live tenants' measured bytes (the admission-control
    /// numerator).
    pub measured_bytes: u64,
    /// High-water mark of `measured_bytes` over the service's life.
    pub peak_measured_bytes: u64,
    /// The configured memory budget (0 = unlimited).
    pub budget_bytes: u64,
    /// Stream operations applied across all tenants.
    pub ops_total: u64,
    /// Requests refused with [`ApiResponse::Overloaded`].
    pub overloaded: u64,
    /// Tenant evictions performed (explicit or shed by admission
    /// control).
    pub evictions: u64,
    /// Transparent restores of evicted tenants.
    pub restores: u64,
}

impl Encode for ServerStatsReport {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.tenants_live.encode(buf);
        self.tenants_evicted.encode(buf);
        self.measured_bytes.encode(buf);
        self.peak_measured_bytes.encode(buf);
        self.budget_bytes.encode(buf);
        self.ops_total.encode(buf);
        self.overloaded.encode(buf);
        self.evictions.encode(buf);
        self.restores.encode(buf);
    }
}
impl Decode for ServerStatsReport {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        Some(ServerStatsReport {
            tenants_live: u64::decode(buf, cursor)?,
            tenants_evicted: u64::decode(buf, cursor)?,
            measured_bytes: u64::decode(buf, cursor)?,
            peak_measured_bytes: u64::decode(buf, cursor)?,
            budget_bytes: u64::decode(buf, cursor)?,
            ops_total: u64::decode(buf, cursor)?,
            overloaded: u64::decode(buf, cursor)?,
            evictions: u64::decode(buf, cursor)?,
            restores: u64::decode(buf, cursor)?,
        })
    }
}

/// Machine-readable liveness snapshot returned by
/// [`ApiRequest::Health`] — the scrape surface a probe or load balancer
/// reads without touching tenant state. All fields are observational;
/// none feed back into service decisions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HealthReport {
    /// Milliseconds since the service started.
    pub uptime_ms: u64,
    /// Records handled over the service's life (every decoded request,
    /// including refused and unsupported ones).
    pub requests_total: u64,
    /// Frames or envelopes that failed to decode (bad magic, truncated,
    /// malformed record).
    pub frame_errors: u64,
    /// Tenants resident in memory.
    pub tenants_live: u64,
    /// Tenants currently evicted to disk.
    pub tenants_evicted: u64,
    /// Sum of live tenants' measured bytes.
    pub measured_bytes: u64,
    /// The configured memory budget (0 = unlimited).
    pub budget_bytes: u64,
    /// Bytes of budget left before admission control bites
    /// (`u64::MAX` when the budget is unlimited).
    pub budget_headroom_bytes: u64,
    /// Bytes parked in the spill directory by evicted tenants.
    pub spill_bytes: u64,
    /// Requests refused with [`ApiResponse::Overloaded`].
    pub overloaded: u64,
    /// Whether a shutdown has been requested.
    pub shutting_down: bool,
}

impl Encode for HealthReport {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.uptime_ms.encode(buf);
        self.requests_total.encode(buf);
        self.frame_errors.encode(buf);
        self.tenants_live.encode(buf);
        self.tenants_evicted.encode(buf);
        self.measured_bytes.encode(buf);
        self.budget_bytes.encode(buf);
        self.budget_headroom_bytes.encode(buf);
        self.spill_bytes.encode(buf);
        self.overloaded.encode(buf);
        self.shutting_down.encode(buf);
    }
}
impl Decode for HealthReport {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        Some(HealthReport {
            uptime_ms: u64::decode(buf, cursor)?,
            requests_total: u64::decode(buf, cursor)?,
            frame_errors: u64::decode(buf, cursor)?,
            tenants_live: u64::decode(buf, cursor)?,
            tenants_evicted: u64::decode(buf, cursor)?,
            measured_bytes: u64::decode(buf, cursor)?,
            budget_bytes: u64::decode(buf, cursor)?,
            budget_headroom_bytes: u64::decode(buf, cursor)?,
            spill_bytes: u64::decode(buf, cursor)?,
            overloaded: u64::decode(buf, cursor)?,
            shutting_down: bool::decode(buf, cursor)?,
        })
    }
}

/// One stream operation buffered by a migrating source while its
/// snapshot is in flight, drained by [`ApiRequest::DrainReplay`] and
/// re-applied on the target **in arrival order** — what makes the
/// migrated coreset bit-identical to a never-migrated twin.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayOp {
    /// `true` for a delete batch, `false` for an insert batch.
    pub delete: bool,
    /// The batch's points, exactly as the client sent them.
    pub points: Vec<Point>,
}

impl Encode for ReplayOp {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.delete.encode(buf);
        self.points.encode(buf);
    }
}
impl Decode for ReplayOp {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        Some(ReplayOp {
            delete: bool::decode(buf, cursor)?,
            points: Vec::decode(buf, cursor)?,
        })
    }
}

/// One request record. Tags are a wire contract — append, never renumber.
#[derive(Clone, Debug, PartialEq)]
pub enum ApiRequest {
    /// Version negotiation: the client's supported range (tag 0).
    Hello {
        /// Lowest version the client speaks.
        min_version: u32,
        /// Highest version the client speaks.
        max_version: u32,
    },
    /// Create a tenant (or transparently restore an evicted one) (tag 1).
    Open {
        /// Caller-chosen tenant id.
        tenant: TenantId,
        /// Pipeline configuration.
        spec: TenantSpec,
    },
    /// Insert a batch of points into a tenant's stream (tag 2).
    Insert {
        /// Target tenant.
        tenant: TenantId,
        /// Points to insert.
        points: Vec<Point>,
    },
    /// Delete a batch of previously inserted points (tag 3).
    Delete {
        /// Target tenant.
        tenant: TenantId,
        /// Points to delete.
        points: Vec<Point>,
    },
    /// Emit the tenant's live coreset mid-stream, without perturbing the
    /// continuing stream (`finish_ref`) (tag 4).
    Query {
        /// Target tenant.
        tenant: TenantId,
    },
    /// Per-tenant accounting (tag 5).
    Stats {
        /// Target tenant.
        tenant: TenantId,
    },
    /// Serialize the tenant's full state to checkpoint bytes (tag 6).
    Checkpoint {
        /// Target tenant.
        tenant: TenantId,
    },
    /// Checkpoint the tenant to the service's spill directory and drop
    /// it from memory; the next data request restores it (tag 7).
    Evict {
        /// Target tenant.
        tenant: TenantId,
    },
    /// Drop the tenant and its on-disk state for good (tag 8).
    Close {
        /// Target tenant.
        tenant: TenantId,
    },
    /// Whole-service accounting (tag 9).
    ServerStats,
    /// Ask the server loop to exit after this frame (tag 10).
    Shutdown,
    /// Machine-readable health snapshot — uptime, frame errors, budget
    /// headroom (tag 11). Additive: servers predating it answer
    /// [`ApiResponse::Unsupported`], and its empty body lets old peers
    /// skip it by length prefix.
    Health,
    /// Begin migrating a tenant off this server (tag 12): freeze its
    /// checkpoint at a **seq barrier**, arm the replay queue (ops that
    /// arrive while the snapshot is in flight are double-buffered:
    /// applied locally *and* queued for the target), and answer
    /// [`ApiResponse::MigrateManifest`]. Idempotent while the
    /// migration is in progress. Like every migration tag, additive:
    /// a pre-v8 peer skips the body by length prefix and answers
    /// [`ApiResponse::Unsupported`], and the coordinator falls back to
    /// keeping the tenant local.
    MigrateOut {
        /// The tenant to freeze.
        tenant: TenantId,
        /// Requested chunk payload size (bounded by
        /// [`MAX_MIGRATION_CHUNK_BYTES`]).
        chunk_bytes: u32,
    },
    /// Deliver one chunk of a migrating tenant's checkpoint to the
    /// receiving peer, strictly in order (tag 13). The first chunk
    /// admission-charges `measured_bytes` on the receiver (the same
    /// budget gate a restore pays); the last chunk triggers the
    /// bit-identical restore.
    ChunkedCheckpoint {
        /// The tenant being migrated in.
        tenant: TenantId,
        /// The tenant's pipeline spec (validated before restore).
        spec: TenantSpec,
        /// Zero-based chunk index.
        chunk: u32,
        /// Total chunks in this transfer.
        total_chunks: u32,
        /// Total container bytes across all chunks.
        total_bytes: u64,
        /// The tenant's measured footprint at the seq barrier — what
        /// the receiver's admission control charges before accepting.
        measured_bytes: u64,
        /// This chunk's container bytes.
        payload: Vec<u8>,
    },
    /// Drain up to `max_ops` buffered stream operations from a frozen
    /// source so the coordinator can re-apply them on the target
    /// (tag 14). Answered with [`ApiResponse::ReplayBatch`].
    DrainReplay {
        /// The migrating tenant.
        tenant: TenantId,
        /// Upper bound on point-operations returned (whole batches;
        /// at least one batch when the queue is non-empty).
        max_ops: u32,
    },
    /// Atomically flip ownership: the source drops the tenant and
    /// answers [`ApiResponse::Moved`] redirects for it from now on
    /// (tag 15). Refused with [`ApiError::ReplayPending`] while the
    /// replay queue is non-empty — the barrier that makes cutover
    /// lossless.
    CutOver {
        /// The migrating tenant.
        tenant: TenantId,
        /// The peer server now owning the tenant.
        peer: u32,
    },
    /// Abandon an in-progress migration and keep the tenant local
    /// (tag 16). Lossless by construction: ops were double-applied to
    /// the live backend the whole time, so aborting just drops the
    /// frozen snapshot and queue.
    MigrateAbort {
        /// The migrating tenant.
        tenant: TenantId,
    },
    /// A tag this build does not know — answered with
    /// [`ApiResponse::Unsupported`], never an error. Decode-only.
    Unknown {
        /// The unrecognized tag.
        tag: u16,
    },
}

/// One response record. Tags are a wire contract — append, never
/// renumber.
#[derive(Clone, Debug, PartialEq)]
pub enum ApiResponse {
    /// Version negotiation result (tag 0).
    HelloAck {
        /// The agreed protocol version.
        version: u32,
    },
    /// Tenant opened (tag 1).
    Opened {
        /// The tenant id.
        tenant: TenantId,
        /// Whether the open restored an evicted tenant instead of
        /// creating a fresh one.
        restored: bool,
    },
    /// A batch of stream operations was applied (tag 2).
    Applied {
        /// The tenant id.
        tenant: TenantId,
        /// Operations applied from this record.
        applied: u64,
        /// The tenant's net live count afterwards.
        net_count: i64,
    },
    /// The tenant's live coreset (tag 3).
    CoresetReply {
        /// The tenant id.
        tenant: TenantId,
        /// The accepted guess `o`.
        o: f64,
        /// Coreset points with provenance.
        points: Vec<CoresetPoint>,
    },
    /// Per-tenant accounting (tag 4).
    StatsReply {
        /// The tenant id.
        tenant: TenantId,
        /// The accounting.
        stats: TenantStats,
    },
    /// Checkpoint bytes for external storage (tag 5).
    CheckpointReply {
        /// The tenant id.
        tenant: TenantId,
        /// Versioned checkpoint bytes (`SBCCKPT` format, one blob per
        /// shard, wrapped in the tenant container).
        bytes: Vec<u8>,
    },
    /// Tenant evicted to disk (tag 6).
    Evicted {
        /// The tenant id.
        tenant: TenantId,
        /// Bytes written to the spill directory.
        bytes: u64,
    },
    /// Tenant closed (tag 7).
    Closed {
        /// The tenant id.
        tenant: TenantId,
    },
    /// Whole-service accounting (tag 8).
    ServerStatsReply {
        /// The accounting.
        stats: ServerStatsReport,
    },
    /// `429`-style admission-control refusal: the request was **not**
    /// applied; retry after shedding load or raising the budget (tag 9).
    Overloaded {
        /// Live measured bytes at refusal time.
        measured_bytes: u64,
        /// The configured budget it would have exceeded.
        budget_bytes: u64,
    },
    /// A coded failure; `code` follows the workspace error-code
    /// registry (tag 10).
    Error {
        /// Stable numeric code ([`ApiError::code`] /
        /// [`SbcError::code`](crate::SbcError::code)).
        code: u16,
        /// Human-readable detail (not a contract).
        message: String,
    },
    /// The request record's tag is newer than this build (tag 11).
    Unsupported {
        /// The tag the server did not recognize.
        tag: u16,
    },
    /// Acknowledges [`ApiRequest::Shutdown`] (tag 12).
    ShuttingDown,
    /// Health snapshot (tag 13). Old clients decode this as
    /// [`ApiResponse::Unknown`] and skip the body by length prefix.
    HealthReply {
        /// The snapshot.
        report: HealthReport,
    },
    /// The frozen tenant's transfer manifest, answering
    /// [`ApiRequest::MigrateOut`] (tag 14).
    MigrateManifest {
        /// The frozen tenant.
        tenant: TenantId,
        /// Its pipeline spec (echoed into every chunk).
        spec: TenantSpec,
        /// Chunks the coordinator must ship.
        total_chunks: u32,
        /// Total container bytes across all chunks.
        total_bytes: u64,
        /// The tenant's measured footprint at the barrier.
        measured_bytes: u64,
        /// The source's request sequence number at freeze time — every
        /// op with a later seq is double-buffered into the replay
        /// queue.
        seq_barrier: u64,
    },
    /// One chunk accepted by the receiver (tag 15).
    ChunkAck {
        /// The tenant being migrated in.
        tenant: TenantId,
        /// The acknowledged chunk index.
        chunk: u32,
        /// Container bytes buffered so far (equals `total_bytes` once
        /// the final chunk lands and the restore has run).
        received_bytes: u64,
    },
    /// Buffered stream operations drained from a frozen source,
    /// answering [`ApiRequest::DrainReplay`] (tag 16).
    ReplayBatch {
        /// The migrating tenant.
        tenant: TenantId,
        /// The drained batches, in arrival order.
        ops: Vec<ReplayOp>,
        /// Point-operations still queued after this batch.
        remaining: u64,
    },
    /// Migration finished, answering [`ApiRequest::CutOver`]
    /// (`committed`) or [`ApiRequest::MigrateAbort`] (`!committed`)
    /// (tag 17).
    MigrateAck {
        /// The tenant.
        tenant: TenantId,
        /// `true` if ownership flipped to `peer`, `false` if the
        /// tenant stayed local.
        committed: bool,
        /// The owning peer after cutover (0 on abort).
        peer: u32,
    },
    /// Redirect: this server no longer owns the tenant; retry at
    /// `peer` (tag 18). Clients that cannot follow see it as the coded
    /// error [`ApiError::Moved`].
    Moved {
        /// The tenant.
        tenant: TenantId,
        /// The server it was migrated to.
        peer: u32,
    },
    /// A tag this build does not know. Decode-only.
    Unknown {
        /// The unrecognized tag.
        tag: u16,
    },
}

impl Encode for ApiRequest {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ApiRequest::Hello {
                min_version,
                max_version,
            } => {
                0u16.encode(buf);
                min_version.encode(buf);
                max_version.encode(buf);
            }
            ApiRequest::Open { tenant, spec } => {
                1u16.encode(buf);
                tenant.encode(buf);
                spec.encode(buf);
            }
            ApiRequest::Insert { tenant, points } => {
                2u16.encode(buf);
                tenant.encode(buf);
                points.encode(buf);
            }
            ApiRequest::Delete { tenant, points } => {
                3u16.encode(buf);
                tenant.encode(buf);
                points.encode(buf);
            }
            ApiRequest::Query { tenant } => {
                4u16.encode(buf);
                tenant.encode(buf);
            }
            ApiRequest::Stats { tenant } => {
                5u16.encode(buf);
                tenant.encode(buf);
            }
            ApiRequest::Checkpoint { tenant } => {
                6u16.encode(buf);
                tenant.encode(buf);
            }
            ApiRequest::Evict { tenant } => {
                7u16.encode(buf);
                tenant.encode(buf);
            }
            ApiRequest::Close { tenant } => {
                8u16.encode(buf);
                tenant.encode(buf);
            }
            ApiRequest::ServerStats => 9u16.encode(buf),
            ApiRequest::Shutdown => 10u16.encode(buf),
            ApiRequest::Health => 11u16.encode(buf),
            ApiRequest::MigrateOut {
                tenant,
                chunk_bytes,
            } => {
                12u16.encode(buf);
                tenant.encode(buf);
                chunk_bytes.encode(buf);
            }
            ApiRequest::ChunkedCheckpoint {
                tenant,
                spec,
                chunk,
                total_chunks,
                total_bytes,
                measured_bytes,
                payload,
            } => {
                13u16.encode(buf);
                tenant.encode(buf);
                spec.encode(buf);
                chunk.encode(buf);
                total_chunks.encode(buf);
                total_bytes.encode(buf);
                measured_bytes.encode(buf);
                payload.encode(buf);
            }
            ApiRequest::DrainReplay { tenant, max_ops } => {
                14u16.encode(buf);
                tenant.encode(buf);
                max_ops.encode(buf);
            }
            ApiRequest::CutOver { tenant, peer } => {
                15u16.encode(buf);
                tenant.encode(buf);
                peer.encode(buf);
            }
            ApiRequest::MigrateAbort { tenant } => {
                16u16.encode(buf);
                tenant.encode(buf);
            }
            // Lossy by design: an Unknown round-trips as its bare tag
            // (there is no body to preserve — it was skipped on decode).
            ApiRequest::Unknown { tag } => tag.encode(buf),
        }
    }
}

impl Decode for ApiRequest {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        let tag = u16::decode(buf, cursor)?;
        Some(match tag {
            0 => ApiRequest::Hello {
                min_version: u32::decode(buf, cursor)?,
                max_version: u32::decode(buf, cursor)?,
            },
            1 => ApiRequest::Open {
                tenant: u64::decode(buf, cursor)?,
                spec: TenantSpec::decode(buf, cursor)?,
            },
            2 => ApiRequest::Insert {
                tenant: u64::decode(buf, cursor)?,
                points: Vec::decode(buf, cursor)?,
            },
            3 => ApiRequest::Delete {
                tenant: u64::decode(buf, cursor)?,
                points: Vec::decode(buf, cursor)?,
            },
            4 => ApiRequest::Query {
                tenant: u64::decode(buf, cursor)?,
            },
            5 => ApiRequest::Stats {
                tenant: u64::decode(buf, cursor)?,
            },
            6 => ApiRequest::Checkpoint {
                tenant: u64::decode(buf, cursor)?,
            },
            7 => ApiRequest::Evict {
                tenant: u64::decode(buf, cursor)?,
            },
            8 => ApiRequest::Close {
                tenant: u64::decode(buf, cursor)?,
            },
            9 => ApiRequest::ServerStats,
            10 => ApiRequest::Shutdown,
            11 => ApiRequest::Health,
            12 => ApiRequest::MigrateOut {
                tenant: u64::decode(buf, cursor)?,
                chunk_bytes: u32::decode(buf, cursor)?,
            },
            13 => ApiRequest::ChunkedCheckpoint {
                tenant: u64::decode(buf, cursor)?,
                spec: TenantSpec::decode(buf, cursor)?,
                chunk: u32::decode(buf, cursor)?,
                total_chunks: u32::decode(buf, cursor)?,
                total_bytes: u64::decode(buf, cursor)?,
                measured_bytes: u64::decode(buf, cursor)?,
                payload: Vec::decode(buf, cursor)?,
            },
            14 => ApiRequest::DrainReplay {
                tenant: u64::decode(buf, cursor)?,
                max_ops: u32::decode(buf, cursor)?,
            },
            15 => ApiRequest::CutOver {
                tenant: u64::decode(buf, cursor)?,
                peer: u32::decode(buf, cursor)?,
            },
            16 => ApiRequest::MigrateAbort {
                tenant: u64::decode(buf, cursor)?,
            },
            tag => ApiRequest::Unknown { tag },
        })
    }
}

impl Encode for ApiResponse {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ApiResponse::HelloAck { version } => {
                0u16.encode(buf);
                version.encode(buf);
            }
            ApiResponse::Opened { tenant, restored } => {
                1u16.encode(buf);
                tenant.encode(buf);
                restored.encode(buf);
            }
            ApiResponse::Applied {
                tenant,
                applied,
                net_count,
            } => {
                2u16.encode(buf);
                tenant.encode(buf);
                applied.encode(buf);
                net_count.encode(buf);
            }
            ApiResponse::CoresetReply { tenant, o, points } => {
                3u16.encode(buf);
                tenant.encode(buf);
                o.encode(buf);
                points.encode(buf);
            }
            ApiResponse::StatsReply { tenant, stats } => {
                4u16.encode(buf);
                tenant.encode(buf);
                stats.encode(buf);
            }
            ApiResponse::CheckpointReply { tenant, bytes } => {
                5u16.encode(buf);
                tenant.encode(buf);
                bytes.encode(buf);
            }
            ApiResponse::Evicted { tenant, bytes } => {
                6u16.encode(buf);
                tenant.encode(buf);
                bytes.encode(buf);
            }
            ApiResponse::Closed { tenant } => {
                7u16.encode(buf);
                tenant.encode(buf);
            }
            ApiResponse::ServerStatsReply { stats } => {
                8u16.encode(buf);
                stats.encode(buf);
            }
            ApiResponse::Overloaded {
                measured_bytes,
                budget_bytes,
            } => {
                9u16.encode(buf);
                measured_bytes.encode(buf);
                budget_bytes.encode(buf);
            }
            ApiResponse::Error { code, message } => {
                10u16.encode(buf);
                code.encode(buf);
                message.encode(buf);
            }
            ApiResponse::Unsupported { tag } => {
                11u16.encode(buf);
                tag.encode(buf);
            }
            ApiResponse::ShuttingDown => 12u16.encode(buf),
            ApiResponse::HealthReply { report } => {
                13u16.encode(buf);
                report.encode(buf);
            }
            ApiResponse::MigrateManifest {
                tenant,
                spec,
                total_chunks,
                total_bytes,
                measured_bytes,
                seq_barrier,
            } => {
                14u16.encode(buf);
                tenant.encode(buf);
                spec.encode(buf);
                total_chunks.encode(buf);
                total_bytes.encode(buf);
                measured_bytes.encode(buf);
                seq_barrier.encode(buf);
            }
            ApiResponse::ChunkAck {
                tenant,
                chunk,
                received_bytes,
            } => {
                15u16.encode(buf);
                tenant.encode(buf);
                chunk.encode(buf);
                received_bytes.encode(buf);
            }
            ApiResponse::ReplayBatch {
                tenant,
                ops,
                remaining,
            } => {
                16u16.encode(buf);
                tenant.encode(buf);
                ops.encode(buf);
                remaining.encode(buf);
            }
            ApiResponse::MigrateAck {
                tenant,
                committed,
                peer,
            } => {
                17u16.encode(buf);
                tenant.encode(buf);
                committed.encode(buf);
                peer.encode(buf);
            }
            ApiResponse::Moved { tenant, peer } => {
                18u16.encode(buf);
                tenant.encode(buf);
                peer.encode(buf);
            }
            ApiResponse::Unknown { tag } => tag.encode(buf),
        }
    }
}

impl Decode for ApiResponse {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        let tag = u16::decode(buf, cursor)?;
        Some(match tag {
            0 => ApiResponse::HelloAck {
                version: u32::decode(buf, cursor)?,
            },
            1 => ApiResponse::Opened {
                tenant: u64::decode(buf, cursor)?,
                restored: bool::decode(buf, cursor)?,
            },
            2 => ApiResponse::Applied {
                tenant: u64::decode(buf, cursor)?,
                applied: u64::decode(buf, cursor)?,
                net_count: i64::decode(buf, cursor)?,
            },
            3 => ApiResponse::CoresetReply {
                tenant: u64::decode(buf, cursor)?,
                o: f64::decode(buf, cursor)?,
                points: Vec::decode(buf, cursor)?,
            },
            4 => ApiResponse::StatsReply {
                tenant: u64::decode(buf, cursor)?,
                stats: TenantStats::decode(buf, cursor)?,
            },
            5 => ApiResponse::CheckpointReply {
                tenant: u64::decode(buf, cursor)?,
                bytes: Vec::decode(buf, cursor)?,
            },
            6 => ApiResponse::Evicted {
                tenant: u64::decode(buf, cursor)?,
                bytes: u64::decode(buf, cursor)?,
            },
            7 => ApiResponse::Closed {
                tenant: u64::decode(buf, cursor)?,
            },
            8 => ApiResponse::ServerStatsReply {
                stats: ServerStatsReport::decode(buf, cursor)?,
            },
            9 => ApiResponse::Overloaded {
                measured_bytes: u64::decode(buf, cursor)?,
                budget_bytes: u64::decode(buf, cursor)?,
            },
            10 => ApiResponse::Error {
                code: u16::decode(buf, cursor)?,
                message: String::decode(buf, cursor)?,
            },
            11 => ApiResponse::Unsupported {
                tag: u16::decode(buf, cursor)?,
            },
            12 => ApiResponse::ShuttingDown,
            13 => ApiResponse::HealthReply {
                report: HealthReport::decode(buf, cursor)?,
            },
            14 => ApiResponse::MigrateManifest {
                tenant: u64::decode(buf, cursor)?,
                spec: TenantSpec::decode(buf, cursor)?,
                total_chunks: u32::decode(buf, cursor)?,
                total_bytes: u64::decode(buf, cursor)?,
                measured_bytes: u64::decode(buf, cursor)?,
                seq_barrier: u64::decode(buf, cursor)?,
            },
            15 => ApiResponse::ChunkAck {
                tenant: u64::decode(buf, cursor)?,
                chunk: u32::decode(buf, cursor)?,
                received_bytes: u64::decode(buf, cursor)?,
            },
            16 => ApiResponse::ReplayBatch {
                tenant: u64::decode(buf, cursor)?,
                ops: Vec::decode(buf, cursor)?,
                remaining: u64::decode(buf, cursor)?,
            },
            17 => ApiResponse::MigrateAck {
                tenant: u64::decode(buf, cursor)?,
                committed: bool::decode(buf, cursor)?,
                peer: u32::decode(buf, cursor)?,
            },
            18 => ApiResponse::Moved {
                tenant: u64::decode(buf, cursor)?,
                peer: u32::decode(buf, cursor)?,
            },
            tag => ApiResponse::Unknown { tag },
        })
    }
}

/// Protocol-level failures (framing, negotiation, tenancy, admission).
/// Folded into [`SbcError`](crate::SbcError) via `SbcError::Api`; the
/// numeric codes are the 200-range of the workspace registry and are
/// what [`ApiResponse::Error`] carries on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ApiError {
    /// The frame does not start with [`FRAME_MAGIC`] (code 200).
    BadMagic,
    /// The frame is shorter than its own length prefixes claim
    /// (code 201).
    Truncated,
    /// A record body failed to decode, or its length prefix disagrees
    /// with its content (code 202).
    MalformedRecord {
        /// Zero-based record index within the frame.
        index: u32,
    },
    /// A frame's claimed payload length exceeds the receiver's
    /// configured maximum — refused before the payload is read, so an
    /// untrusted header cannot force an allocation (code 204).
    FrameTooLarge {
        /// The header's claimed payload length.
        payload_len: u64,
        /// The receiver's configured maximum.
        max: u64,
    },
    /// No protocol version is spoken by both sides (code 203).
    VersionUnsupported {
        /// Peer's lowest supported version.
        min: u32,
        /// Peer's highest supported version.
        max: u32,
    },
    /// The addressed tenant does not exist (code 210).
    UnknownTenant {
        /// The tenant id.
        tenant: TenantId,
    },
    /// [`ApiRequest::Open`] addressed an id that is already live with a
    /// different spec (code 211).
    TenantExists {
        /// The tenant id.
        tenant: TenantId,
    },
    /// Spilling or restoring an evicted tenant failed (code 212).
    EvictIo {
        /// Operating-system-level detail.
        message: String,
    },
    /// A batch carried points the tenant's spec cannot accept (wrong
    /// dimensionality); nothing from the batch was applied (code 213).
    InvalidPoints {
        /// What was wrong with the batch.
        message: String,
    },
    /// A [`TenantSpec`] carried out-of-bounds parameters
    /// ([`MAX_LOG_DELTA`] / [`MAX_DIMS`] / [`MAX_SHARDS`]); no tenant
    /// was created (code 214).
    InvalidSpec {
        /// Which bound the spec violated.
        message: String,
    },
    /// Admission control refused the request (code 220; normally
    /// surfaced as [`ApiResponse::Overloaded`], the coded form exists
    /// for clients converting the refusal into an error).
    Overloaded {
        /// Live measured bytes at refusal time.
        measured_bytes: u64,
        /// The configured budget.
        budget_bytes: u64,
    },
    /// The peer answered [`ApiResponse::Unsupported`] for this record
    /// (code 221).
    Unsupported {
        /// The tag the peer did not recognize.
        tag: u16,
    },
    /// The transport failed to deliver after exhausting its retry
    /// budget (code 230).
    Transport {
        /// Detail (attempt counts, I/O error).
        message: String,
    },
    /// The peer's response did not match the request (wrong record
    /// kind or count) (code 231).
    UnexpectedResponse {
        /// What was received instead.
        message: String,
    },
    /// A migration lifecycle request ([`ApiRequest::DrainReplay`] /
    /// [`ApiRequest::CutOver`] / [`ApiRequest::MigrateAbort`])
    /// addressed a tenant with no migration in progress (code 240).
    NotMigrating {
        /// The tenant id.
        tenant: TenantId,
    },
    /// The request conflicts with an in-progress migration — e.g. an
    /// `Evict` would drop the frozen snapshot and replay queue, or a
    /// chunk addressed a tenant still assembling (code 241).
    MigrationInProgress {
        /// The tenant id.
        tenant: TenantId,
    },
    /// A [`ApiRequest::ChunkedCheckpoint`] arrived out of sequence, or
    /// its header disagrees with the transfer's manifest (code 242).
    /// The duplicate of the most recently accepted chunk is re-acked
    /// idempotently instead (retransmission tolerance).
    ChunkOutOfOrder {
        /// The tenant id.
        tenant: TenantId,
        /// The chunk index the receiver expected next.
        expected: u32,
        /// The chunk index the record carried.
        got: u32,
    },
    /// A chunk header claimed more bytes than the receiver will buffer
    /// — per-chunk ([`MAX_MIGRATION_CHUNK_BYTES`]) or per-transfer
    /// (the service's migration byte cap). Refused before any
    /// allocation (code 243).
    ChunkTooLarge {
        /// The claimed byte count.
        claimed: u64,
        /// The receiver's bound.
        max: u64,
    },
    /// The migrating source's replay queue is full; the mutation was
    /// **not** applied. Drain (or cut over / abort) before sending
    /// more (code 244).
    ReplayOverflow {
        /// The tenant id.
        tenant: TenantId,
        /// Point-operations queued.
        queued: u64,
        /// The queue's configured bound.
        cap: u64,
    },
    /// [`ApiRequest::CutOver`] arrived while buffered ops remain; the
    /// coordinator must drain the replay queue first (code 245).
    ReplayPending {
        /// The tenant id.
        tenant: TenantId,
        /// Point-operations still queued.
        queued: u64,
    },
    /// The tenant was migrated away; retry at `peer` (code 246; the
    /// coded form of [`ApiResponse::Moved`] for clients that do not
    /// follow redirects).
    Moved {
        /// The tenant id.
        tenant: TenantId,
        /// The server now owning it.
        peer: u32,
    },
    /// A coded failure relayed verbatim from the peer — the client-side
    /// mirror of [`ApiResponse::Error`]. Not a code of its own:
    /// [`ApiError::code`] returns the relayed code, so matching on
    /// codes works identically on both ends of the wire.
    Remote {
        /// The peer's stable numeric code.
        code: u16,
        /// The peer's human-readable detail.
        message: String,
    },
}

impl ApiError {
    /// The stable numeric code carried in [`ApiResponse::Error`].
    pub fn code(&self) -> u16 {
        match self {
            ApiError::BadMagic => 200,
            ApiError::Truncated => 201,
            ApiError::MalformedRecord { .. } => 202,
            ApiError::VersionUnsupported { .. } => 203,
            ApiError::FrameTooLarge { .. } => 204,
            ApiError::UnknownTenant { .. } => 210,
            ApiError::TenantExists { .. } => 211,
            ApiError::EvictIo { .. } => 212,
            ApiError::InvalidPoints { .. } => 213,
            ApiError::InvalidSpec { .. } => 214,
            ApiError::Overloaded { .. } => 220,
            ApiError::Unsupported { .. } => 221,
            ApiError::Transport { .. } => 230,
            ApiError::UnexpectedResponse { .. } => 231,
            ApiError::NotMigrating { .. } => 240,
            ApiError::MigrationInProgress { .. } => 241,
            ApiError::ChunkOutOfOrder { .. } => 242,
            ApiError::ChunkTooLarge { .. } => 243,
            ApiError::ReplayOverflow { .. } => 244,
            ApiError::ReplayPending { .. } => 245,
            ApiError::Moved { .. } => 246,
            ApiError::Remote { code, .. } => *code,
        }
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApiError::BadMagic => write!(f, "bad frame magic (want SBCSRV1)"),
            ApiError::Truncated => write!(f, "truncated frame"),
            ApiError::MalformedRecord { index } => {
                write!(f, "malformed record at index {index}")
            }
            ApiError::FrameTooLarge { payload_len, max } => write!(
                f,
                "frame payload of {payload_len} bytes exceeds the \
                 {max}-byte maximum"
            ),
            ApiError::VersionUnsupported { min, max } => write!(
                f,
                "no common protocol version (peer speaks {min}..={max}, \
                 this build {MIN_SUPPORTED_VERSION}..={PROTOCOL_VERSION})"
            ),
            ApiError::UnknownTenant { tenant } => write!(f, "unknown tenant {tenant}"),
            ApiError::TenantExists { tenant } => {
                write!(f, "tenant {tenant} already exists with a different spec")
            }
            ApiError::EvictIo { message } => {
                write!(f, "tenant spill/restore I/O failed: {message}")
            }
            ApiError::InvalidPoints { message } => write!(f, "invalid points: {message}"),
            ApiError::InvalidSpec { message } => write!(f, "invalid tenant spec: {message}"),
            ApiError::Overloaded {
                measured_bytes,
                budget_bytes,
            } => write!(
                f,
                "overloaded: {measured_bytes} measured bytes against a \
                 {budget_bytes}-byte budget"
            ),
            ApiError::Unsupported { tag } => {
                write!(f, "peer does not support record tag {tag}")
            }
            ApiError::Transport { message } => write!(f, "transport failed: {message}"),
            ApiError::UnexpectedResponse { message } => {
                write!(f, "unexpected response: {message}")
            }
            ApiError::NotMigrating { tenant } => {
                write!(f, "tenant {tenant} has no migration in progress")
            }
            ApiError::MigrationInProgress { tenant } => {
                write!(f, "tenant {tenant} has a migration in progress")
            }
            ApiError::ChunkOutOfOrder {
                tenant,
                expected,
                got,
            } => write!(
                f,
                "tenant {tenant}: chunk {got} out of order (expected {expected})"
            ),
            ApiError::ChunkTooLarge { claimed, max } => write!(
                f,
                "chunk header claims {claimed} bytes, exceeding the \
                 {max}-byte bound"
            ),
            ApiError::ReplayOverflow {
                tenant,
                queued,
                cap,
            } => write!(
                f,
                "tenant {tenant}: replay queue full ({queued} ops \
                 against a {cap}-op bound); drain before mutating"
            ),
            ApiError::ReplayPending { tenant, queued } => write!(
                f,
                "tenant {tenant}: {queued} replay ops still queued; \
                 drain before cutover"
            ),
            ApiError::Moved { tenant, peer } => {
                write!(f, "tenant {tenant} moved to peer {peer}")
            }
            ApiError::Remote { code, message } => write!(f, "peer error E{code}: {message}"),
        }
    }
}

impl std::error::Error for ApiError {}

/// Frames a batch of request records.
pub fn frame_requests(records: &[ApiRequest]) -> Vec<u8> {
    frame_records(records)
}

/// Frames a batch of response records.
pub fn frame_responses(records: &[ApiResponse]) -> Vec<u8> {
    frame_records(records)
}

/// Decodes a request frame; unknown tags yield [`ApiRequest::Unknown`].
pub fn unframe_requests(frame: &[u8]) -> Result<Vec<ApiRequest>, ApiError> {
    unframe_records(frame, |r| matches!(r, ApiRequest::Unknown { .. }))
}

/// Decodes a response frame; unknown tags yield
/// [`ApiResponse::Unknown`].
pub fn unframe_responses(frame: &[u8]) -> Result<Vec<ApiResponse>, ApiError> {
    unframe_records(frame, |r| matches!(r, ApiResponse::Unknown { .. }))
}

fn frame_records<T: Encode>(records: &[T]) -> Vec<u8> {
    let mut payload = Vec::new();
    (records.len() as u32).encode(&mut payload);
    let mut rec = Vec::new();
    for record in records {
        rec.clear();
        record.encode(&mut rec);
        (rec.len() as u32).encode(&mut payload);
        payload.extend_from_slice(&rec);
    }
    let mut frame = Vec::with_capacity(12 + payload.len());
    frame.extend_from_slice(&FRAME_MAGIC);
    (payload.len() as u32).encode(&mut frame);
    frame.extend_from_slice(&payload);
    frame
}

/// Splits a frame into records. A record that decodes to an unknown
/// variant (`is_unknown`) may leave body bytes unread — they are
/// skipped via the record's length prefix, which is what makes unknown
/// tags forward-compatible instead of frame-fatal. Known records must
/// consume their body exactly.
fn unframe_records<T: Decode>(
    frame: &[u8],
    is_unknown: impl Fn(&T) -> bool,
) -> Result<Vec<T>, ApiError> {
    if frame.len() < FRAME_MAGIC.len() {
        return Err(ApiError::Truncated);
    }
    if frame[..FRAME_MAGIC.len()] != FRAME_MAGIC {
        return Err(ApiError::BadMagic);
    }
    let mut cursor = FRAME_MAGIC.len();
    let payload_len = u32::decode(frame, &mut cursor).ok_or(ApiError::Truncated)? as usize;
    if frame.len() != cursor + payload_len {
        return Err(ApiError::Truncated);
    }
    let count = u32::decode(frame, &mut cursor).ok_or(ApiError::Truncated)?;
    let mut records = Vec::new();
    for index in 0..count {
        let rec_len = u32::decode(frame, &mut cursor).ok_or(ApiError::Truncated)? as usize;
        let end = cursor
            .checked_add(rec_len)
            .filter(|&e| e <= frame.len())
            .ok_or(ApiError::Truncated)?;
        let rec = &frame[cursor..end];
        let mut rc = 0usize;
        let record = T::decode(rec, &mut rc).ok_or(ApiError::MalformedRecord { index })?;
        if !is_unknown(&record) && rc != rec.len() {
            return Err(ApiError::MalformedRecord { index });
        }
        records.push(record);
        cursor = end;
    }
    if cursor != frame.len() {
        return Err(ApiError::Truncated);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<ApiRequest> {
        vec![
            ApiRequest::Hello {
                min_version: 1,
                max_version: 1,
            },
            ApiRequest::Open {
                tenant: 7,
                spec: TenantSpec {
                    seed: 42,
                    shards: 4,
                    parallel: true,
                    ..TenantSpec::default()
                },
            },
            ApiRequest::Insert {
                tenant: 7,
                points: vec![Point::new(vec![1, 2]), Point::new(vec![3, 4])],
            },
            ApiRequest::Delete {
                tenant: 7,
                points: vec![Point::new(vec![1, 2])],
            },
            ApiRequest::Query { tenant: 7 },
            ApiRequest::Stats { tenant: 7 },
            ApiRequest::Checkpoint { tenant: 7 },
            ApiRequest::Evict { tenant: 7 },
            ApiRequest::Close { tenant: 7 },
            ApiRequest::ServerStats,
            ApiRequest::Shutdown,
            ApiRequest::Health,
            ApiRequest::MigrateOut {
                tenant: 7,
                chunk_bytes: 1 << 16,
            },
            ApiRequest::ChunkedCheckpoint {
                tenant: 7,
                spec: TenantSpec::default(),
                chunk: 1,
                total_chunks: 3,
                total_bytes: 300,
                measured_bytes: 4096,
                payload: vec![9, 9, 9],
            },
            ApiRequest::DrainReplay {
                tenant: 7,
                max_ops: 128,
            },
            ApiRequest::CutOver { tenant: 7, peer: 2 },
            ApiRequest::MigrateAbort { tenant: 7 },
        ]
    }

    #[test]
    fn request_frames_round_trip() {
        let reqs = sample_requests();
        let frame = frame_requests(&reqs);
        assert_eq!(&frame[..8], &FRAME_MAGIC);
        let back = unframe_requests(&frame).expect("own frame decodes");
        assert_eq!(back, reqs);
    }

    #[test]
    fn response_frames_round_trip() {
        let resps = vec![
            ApiResponse::HelloAck { version: 1 },
            ApiResponse::Opened {
                tenant: 7,
                restored: false,
            },
            ApiResponse::Applied {
                tenant: 7,
                applied: 2,
                net_count: 2,
            },
            ApiResponse::CoresetReply {
                tenant: 7,
                o: 1.5,
                points: vec![CoresetPoint {
                    point: Point::new(vec![1, 2]),
                    weight: 2.0,
                    level: 3,
                    part: 0,
                }],
            },
            ApiResponse::StatsReply {
                tenant: 7,
                stats: TenantStats {
                    net_count: 2,
                    ops_seen: 3,
                    measured_bytes: 100,
                    peak_measured_bytes: 120,
                    shards: 1,
                    evicted: false,
                },
            },
            ApiResponse::CheckpointReply {
                tenant: 7,
                bytes: vec![1, 2, 3],
            },
            ApiResponse::Evicted {
                tenant: 7,
                bytes: 3,
            },
            ApiResponse::Closed { tenant: 7 },
            ApiResponse::ServerStatsReply {
                stats: ServerStatsReport {
                    tenants_live: 1,
                    budget_bytes: 1 << 20,
                    ..ServerStatsReport::default()
                },
            },
            ApiResponse::Overloaded {
                measured_bytes: 2048,
                budget_bytes: 1024,
            },
            ApiResponse::Error {
                code: 210,
                message: "unknown tenant 9".into(),
            },
            ApiResponse::Unsupported { tag: 99 },
            ApiResponse::ShuttingDown,
            ApiResponse::HealthReply {
                report: HealthReport {
                    uptime_ms: 1234,
                    requests_total: 56,
                    frame_errors: 1,
                    tenants_live: 3,
                    tenants_evicted: 2,
                    measured_bytes: 4096,
                    budget_bytes: 1 << 20,
                    budget_headroom_bytes: (1 << 20) - 4096,
                    spill_bytes: 512,
                    overloaded: 4,
                    shutting_down: false,
                },
            },
            ApiResponse::MigrateManifest {
                tenant: 7,
                spec: TenantSpec::default(),
                total_chunks: 3,
                total_bytes: 300,
                measured_bytes: 4096,
                seq_barrier: 17,
            },
            ApiResponse::ChunkAck {
                tenant: 7,
                chunk: 1,
                received_bytes: 200,
            },
            ApiResponse::ReplayBatch {
                tenant: 7,
                ops: vec![
                    ReplayOp {
                        delete: false,
                        points: vec![Point::new(vec![1, 2])],
                    },
                    ReplayOp {
                        delete: true,
                        points: vec![Point::new(vec![3, 4])],
                    },
                ],
                remaining: 1,
            },
            ApiResponse::MigrateAck {
                tenant: 7,
                committed: true,
                peer: 2,
            },
            ApiResponse::Moved { tenant: 7, peer: 2 },
        ];
        let frame = frame_responses(&resps);
        let back = unframe_responses(&frame).expect("own frame decodes");
        assert_eq!(back, resps);
    }

    #[test]
    fn unknown_tags_are_skipped_not_fatal() {
        // Hand-craft a frame whose middle record carries a future tag
        // with an arbitrary body; the other records must still decode.
        let mut payload = Vec::new();
        3u32.encode(&mut payload);
        let recs: [Vec<u8>; 3] = [
            {
                let mut r = Vec::new();
                ApiRequest::Query { tenant: 1 }.encode(&mut r);
                r
            },
            {
                let mut r = Vec::new();
                999u16.encode(&mut r);
                r.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]); // opaque future body
                r
            },
            {
                let mut r = Vec::new();
                ApiRequest::Stats { tenant: 2 }.encode(&mut r);
                r
            },
        ];
        for r in &recs {
            (r.len() as u32).encode(&mut payload);
            payload.extend_from_slice(r);
        }
        let mut frame = Vec::new();
        frame.extend_from_slice(&FRAME_MAGIC);
        (payload.len() as u32).encode(&mut frame);
        frame.extend_from_slice(&payload);

        let back = unframe_requests(&frame).expect("unknown tag must not poison the frame");
        assert_eq!(
            back,
            vec![
                ApiRequest::Query { tenant: 1 },
                ApiRequest::Unknown { tag: 999 },
                ApiRequest::Stats { tenant: 2 },
            ]
        );
    }

    /// A request record as decoded by a build that predates the
    /// `Health` tag (11): anything ≥ 11 is unknown and its body is
    /// left to the length-prefix skip, exactly like the real decoder's
    /// catch-all arm.
    struct PreHealthRequest(ApiRequest);
    impl Decode for PreHealthRequest {
        fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
            let mut peek = *cursor;
            let tag = u16::decode(buf, &mut peek)?;
            if tag >= 11 {
                *cursor = peek;
                return Some(PreHealthRequest(ApiRequest::Unknown { tag }));
            }
            ApiRequest::decode(buf, cursor).map(PreHealthRequest)
        }
    }

    /// A response record as decoded by a build that predates the
    /// `HealthReply` tag (13).
    struct PreHealthResponse(ApiResponse);
    impl Decode for PreHealthResponse {
        fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
            let mut peek = *cursor;
            let tag = u16::decode(buf, &mut peek)?;
            if tag >= 13 {
                *cursor = peek;
                return Some(PreHealthResponse(ApiResponse::Unknown { tag }));
            }
            ApiResponse::decode(buf, cursor).map(PreHealthResponse)
        }
    }

    #[test]
    fn old_server_skips_health_in_a_multi_record_frame() {
        // New client → old server: a frame interleaving Health (tag 11,
        // negotiated as additive) between data records. The pre-Health
        // decoder must answer the unknown record without losing the
        // trailing ones in the same frame.
        let frame = frame_requests(&[
            ApiRequest::Query { tenant: 1 },
            ApiRequest::Health,
            ApiRequest::Stats { tenant: 2 },
            ApiRequest::Health,
        ]);
        let back: Vec<ApiRequest> = unframe_records::<PreHealthRequest>(&frame, |r| {
            matches!(r.0, ApiRequest::Unknown { .. })
        })
        .expect("old decoder keeps the frame")
        .into_iter()
        .map(|r| r.0)
        .collect();
        assert_eq!(
            back,
            vec![
                ApiRequest::Query { tenant: 1 },
                ApiRequest::Unknown { tag: 11 },
                ApiRequest::Stats { tenant: 2 },
                ApiRequest::Unknown { tag: 11 },
            ]
        );
    }

    #[test]
    fn old_client_skips_health_reply_body_by_length_prefix() {
        // New server → old client: HealthReply (tag 13) carries an
        // 85-byte body the old build cannot parse. The length prefix
        // must carry the decoder over it to the trailing records.
        let report = HealthReport {
            uptime_ms: 99,
            requests_total: 7,
            budget_headroom_bytes: u64::MAX,
            ..HealthReport::default()
        };
        let frame = frame_responses(&[
            ApiResponse::Closed { tenant: 4 },
            ApiResponse::HealthReply { report },
            ApiResponse::ShuttingDown,
        ]);
        let back: Vec<ApiResponse> = unframe_records::<PreHealthResponse>(&frame, |r| {
            matches!(r.0, ApiResponse::Unknown { .. })
        })
        .expect("old decoder keeps the frame")
        .into_iter()
        .map(|r| r.0)
        .collect();
        assert_eq!(
            back,
            vec![
                ApiResponse::Closed { tenant: 4 },
                ApiResponse::Unknown { tag: 13 },
                ApiResponse::ShuttingDown,
            ]
        );
        // The new build decodes the same frame in full, of course.
        let new = unframe_responses(&frame).expect("new decoder");
        assert_eq!(new[1], ApiResponse::HealthReply { report });
    }

    /// A request record as decoded by a v7 build that predates the
    /// migration tags (12–16): anything ≥ 12 is unknown, its body left
    /// to the length-prefix skip.
    struct PreMigrationRequest(ApiRequest);
    impl Decode for PreMigrationRequest {
        fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
            let mut peek = *cursor;
            let tag = u16::decode(buf, &mut peek)?;
            if tag >= 12 {
                *cursor = peek;
                return Some(PreMigrationRequest(ApiRequest::Unknown { tag }));
            }
            ApiRequest::decode(buf, cursor).map(PreMigrationRequest)
        }
    }

    /// A response record as decoded by a v7 build that predates the
    /// migration reply tags (14–18).
    struct PreMigrationResponse(ApiResponse);
    impl Decode for PreMigrationResponse {
        fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
            let mut peek = *cursor;
            let tag = u16::decode(buf, &mut peek)?;
            if tag >= 14 {
                *cursor = peek;
                return Some(PreMigrationResponse(ApiResponse::Unknown { tag }));
            }
            ApiResponse::decode(buf, cursor).map(PreMigrationResponse)
        }
    }

    #[test]
    fn old_server_skips_migration_records_by_length_prefix() {
        // New coordinator → old target: a MigrateOut and a fat chunk
        // interleaved with data records. The v7 decoder must surface
        // them as Unknown (which the service answers Unsupported, and
        // the coordinator turns into a keep-local fallback) without
        // losing the rest of the frame.
        let frame = frame_requests(&[
            ApiRequest::Query { tenant: 1 },
            ApiRequest::MigrateOut {
                tenant: 1,
                chunk_bytes: 1 << 16,
            },
            ApiRequest::ChunkedCheckpoint {
                tenant: 1,
                spec: TenantSpec::default(),
                chunk: 0,
                total_chunks: 1,
                total_bytes: 4,
                measured_bytes: 64,
                payload: vec![1, 2, 3, 4],
            },
            ApiRequest::CutOver { tenant: 1, peer: 3 },
            ApiRequest::Stats { tenant: 2 },
        ]);
        let back: Vec<ApiRequest> = unframe_records::<PreMigrationRequest>(&frame, |r| {
            matches!(r.0, ApiRequest::Unknown { .. })
        })
        .expect("old decoder keeps the frame")
        .into_iter()
        .map(|r| r.0)
        .collect();
        assert_eq!(
            back,
            vec![
                ApiRequest::Query { tenant: 1 },
                ApiRequest::Unknown { tag: 12 },
                ApiRequest::Unknown { tag: 13 },
                ApiRequest::Unknown { tag: 15 },
                ApiRequest::Stats { tenant: 2 },
            ]
        );
    }

    #[test]
    fn old_client_skips_migration_replies_by_length_prefix() {
        // New server → old client: a manifest and a Moved redirect in
        // the middle of a frame the v7 build otherwise understands.
        let frame = frame_responses(&[
            ApiResponse::Closed { tenant: 4 },
            ApiResponse::MigrateManifest {
                tenant: 4,
                spec: TenantSpec::default(),
                total_chunks: 2,
                total_bytes: 128,
                measured_bytes: 4096,
                seq_barrier: 9,
            },
            ApiResponse::Moved { tenant: 4, peer: 1 },
            ApiResponse::ShuttingDown,
        ]);
        let back: Vec<ApiResponse> = unframe_records::<PreMigrationResponse>(&frame, |r| {
            matches!(r.0, ApiResponse::Unknown { .. })
        })
        .expect("old decoder keeps the frame")
        .into_iter()
        .map(|r| r.0)
        .collect();
        assert_eq!(
            back,
            vec![
                ApiResponse::Closed { tenant: 4 },
                ApiResponse::Unknown { tag: 14 },
                ApiResponse::Unknown { tag: 18 },
                ApiResponse::ShuttingDown,
            ]
        );
        // The new build decodes the same frame in full.
        let new = unframe_responses(&frame).expect("new decoder");
        assert_eq!(new[2], ApiResponse::Moved { tenant: 4, peer: 1 });
    }

    #[test]
    fn framing_rejects_garbage() {
        assert_eq!(unframe_requests(b"short"), Err(ApiError::Truncated));
        let mut bad_magic = frame_requests(&[ApiRequest::ServerStats]);
        bad_magic[0] = b'X';
        assert_eq!(unframe_requests(&bad_magic), Err(ApiError::BadMagic));
        let good = frame_requests(&[ApiRequest::ServerStats]);
        assert_eq!(
            unframe_requests(&good[..good.len() - 1]),
            Err(ApiError::Truncated)
        );
        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(unframe_requests(&trailing), Err(ApiError::Truncated));
    }

    #[test]
    fn known_record_with_wrong_length_is_malformed() {
        // A Query record truncated mid-body must fail that record, not
        // be silently mis-read.
        let mut rec = Vec::new();
        ApiRequest::Query { tenant: 7 }.encode(&mut rec);
        rec.truncate(rec.len() - 2);
        let mut payload = Vec::new();
        1u32.encode(&mut payload);
        (rec.len() as u32).encode(&mut payload);
        payload.extend_from_slice(&rec);
        let mut frame = Vec::new();
        frame.extend_from_slice(&FRAME_MAGIC);
        (payload.len() as u32).encode(&mut frame);
        frame.extend_from_slice(&payload);
        assert_eq!(
            unframe_requests(&frame),
            Err(ApiError::MalformedRecord { index: 0 })
        );
    }

    #[test]
    fn out_of_bounds_specs_fail_coded_not_panicking() {
        // These values reach `tenant_pipeline` straight off the wire;
        // each must come back as a coded InvalidSpec, never trip the
        // grid constructor's assertions or size an allocation.
        let cases = [
            TenantSpec {
                log_delta: MAX_LOG_DELTA + 1,
                ..TenantSpec::default()
            },
            TenantSpec {
                log_delta: u32::MAX,
                ..TenantSpec::default()
            },
            TenantSpec {
                dims: 0,
                ..TenantSpec::default()
            },
            TenantSpec {
                dims: MAX_DIMS + 1,
                ..TenantSpec::default()
            },
            TenantSpec {
                shards: MAX_SHARDS + 1,
                ..TenantSpec::default()
            },
            TenantSpec {
                shards: u32::MAX,
                ..TenantSpec::default()
            },
        ];
        for spec in cases {
            let err = tenant_pipeline(&spec).expect_err("out-of-bounds spec");
            assert_eq!(err.code(), 214, "{spec:?} → {err}");
        }
        // The documented bounds themselves are accepted (shards at the
        // cap only builds lazily service-side, so validate params only).
        assert!(tenant_pipeline(&TenantSpec {
            log_delta: MAX_LOG_DELTA,
            ..TenantSpec::default()
        })
        .is_ok());
        // k = 0 is caught by the params builder, also coded (101).
        let err = tenant_pipeline(&TenantSpec {
            k: 0,
            ..TenantSpec::default()
        })
        .expect_err("k = 0");
        assert_eq!(err.code(), 101);
    }

    #[test]
    fn negotiation_picks_the_highest_common_version() {
        assert_eq!(negotiate(1, 1), Ok(1));
        assert_eq!(negotiate(1, 99), Ok(PROTOCOL_VERSION));
        assert_eq!(
            negotiate(2, 99),
            Err(ApiError::VersionUnsupported { min: 2, max: 99 })
        );
    }

    #[test]
    fn api_error_codes_are_stable() {
        // The 200-range is a wire contract; renumbering breaks deployed
        // clients. 300–399 is retired and never reused.
        let cases: [(ApiError, u16); 21] = [
            (ApiError::BadMagic, 200),
            (ApiError::Truncated, 201),
            (ApiError::MalformedRecord { index: 0 }, 202),
            (ApiError::VersionUnsupported { min: 2, max: 3 }, 203),
            (
                ApiError::FrameTooLarge {
                    payload_len: 1 << 32,
                    max: 1 << 20,
                },
                204,
            ),
            (ApiError::UnknownTenant { tenant: 1 }, 210),
            (ApiError::TenantExists { tenant: 1 }, 211),
            (
                ApiError::EvictIo {
                    message: String::new(),
                },
                212,
            ),
            (
                ApiError::InvalidPoints {
                    message: String::new(),
                },
                213,
            ),
            (
                ApiError::InvalidSpec {
                    message: String::new(),
                },
                214,
            ),
            (
                ApiError::Overloaded {
                    measured_bytes: 1,
                    budget_bytes: 1,
                },
                220,
            ),
            (ApiError::Unsupported { tag: 9 }, 221),
            (
                ApiError::Transport {
                    message: String::new(),
                },
                230,
            ),
            (
                ApiError::UnexpectedResponse {
                    message: String::new(),
                },
                231,
            ),
            (ApiError::NotMigrating { tenant: 1 }, 240),
            (ApiError::MigrationInProgress { tenant: 1 }, 241),
            (
                ApiError::ChunkOutOfOrder {
                    tenant: 1,
                    expected: 2,
                    got: 5,
                },
                242,
            ),
            (
                ApiError::ChunkTooLarge {
                    claimed: 1 << 40,
                    max: 4 << 20,
                },
                243,
            ),
            (
                ApiError::ReplayOverflow {
                    tenant: 1,
                    queued: 100,
                    cap: 100,
                },
                244,
            ),
            (
                ApiError::ReplayPending {
                    tenant: 1,
                    queued: 3,
                },
                245,
            ),
            (ApiError::Moved { tenant: 1, peer: 2 }, 246),
        ];
        for (err, code) in cases {
            assert_eq!(err.code(), code, "{err}");
            assert!((200..300).contains(&code));
            // The client-side relay preserves the code, not remaps it.
            let relayed = ApiError::Remote {
                code,
                message: err.to_string(),
            };
            assert_eq!(relayed.code(), code);
        }
    }
}
