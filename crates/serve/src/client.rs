//! The typed client over the `SBCSRV1` protocol, generic over a
//! pluggable [`Transport`] — in-process for tests and the bench, lossy
//! (seeded drop/duplicate faults with retries) for chaos runs, and a
//! future socket transport without touching the typed layer.

use sbc::api::{
    frame_requests, unframe_responses, ApiError, ApiRequest, ApiResponse, CoresetPoint,
    HealthReport, ReplayOp, ServerStatsReport, TenantId, TenantSpec, TenantStats,
    MIN_SUPPORTED_VERSION, PROTOCOL_VERSION,
};
use sbc::distributed::wire::Envelope;
use sbc::streaming::codec::{from_bytes, to_bytes};
use sbc::{FaultPlan, Point, SbcError};

use crate::fleet::FleetServer;
use crate::service::CoresetService;

/// Carries one request frame to a service and returns its response
/// frame. Implementations own delivery semantics (retries, dedup);
/// the typed [`Client`] above them only sees bytes-in/bytes-out.
pub trait Transport {
    /// Delivers `frame` and returns the matching response frame.
    fn round_trip(&mut self, frame: &[u8]) -> Result<Vec<u8>, SbcError>;
}

/// Zero-copy-in-spirit transport: the service lives inside the client
/// process, but every round trip still crosses the real byte format, so
/// in-process tests exercise exactly what a socket would carry.
pub struct InProcess {
    service: CoresetService,
}

impl InProcess {
    /// Wraps a service.
    pub fn new(service: CoresetService) -> InProcess {
        InProcess { service }
    }

    /// Direct access to the wrapped service (stats draining in benches).
    pub fn service_mut(&mut self) -> &mut CoresetService {
        &mut self.service
    }
}

impl Transport for InProcess {
    fn round_trip(&mut self, frame: &[u8]) -> Result<Vec<u8>, SbcError> {
        Ok(self.service.handle_frame(frame))
    }
}

/// Delivery counters a [`Lossy`] transport accumulates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LossyStats {
    /// Deliveries the fault plan swallowed (client retried).
    pub drops: u64,
    /// Deliveries the fault plan duplicated (service deduplicated).
    pub dups: u64,
    /// Extra attempts beyond the first, across all round trips.
    pub retries: u64,
}

/// The fault-plan side of envelope delivery: the seeded [`FaultPlan`],
/// the envelope machine id peers deduplicate on, and the delivery
/// counter that indexes the plan. A [`Lossy`] transport keeps one for
/// its service; a [`Fleet`](crate::Fleet) keeps one for all its members.
pub(crate) struct Wire {
    plan: FaultPlan,
    machine: u32,
    deliveries: u64,
}

impl Wire {
    pub(crate) fn new(plan: FaultPlan, machine: u32) -> Wire {
        Wire {
            plan,
            machine,
            deliveries: 0,
        }
    }
}

/// One peer reached over a [`Wire`]: the [`Transport`] that both
/// [`Lossy`] and the fleet's per-member [`Client`]s deliver through.
/// Each frame travels in a `(machine, seq)` envelope under the next
/// `seq`; a delivery the plan drops is retried with the **same** seq,
/// and a delivery it duplicates reaches the peer twice. The peer's
/// per-machine dedup window keeps either one invisible to the caller.
pub(crate) struct Link<'a> {
    pub(crate) wire: &'a mut Wire,
    pub(crate) stats: &'a mut LossyStats,
    /// The last envelope seq sent to this peer.
    pub(crate) seq: &'a mut u64,
    pub(crate) peer: &'a mut dyn FleetServer,
}

impl Transport for Link<'_> {
    fn round_trip(&mut self, frame: &[u8]) -> Result<Vec<u8>, SbcError> {
        *self.seq += 1;
        let seq = *self.seq;
        let env_bytes = to_bytes(&Envelope {
            machine: self.wire.machine,
            seq,
            payload: frame.to_vec(),
        });
        let max_attempts = self.wire.plan.max_retries.max(1);
        for attempt in 0..max_attempts {
            if attempt > 0 {
                self.stats.retries += 1;
            }
            let idx = self.wire.deliveries;
            self.wire.deliveries += 1;
            if self.wire.plan.drops_delivery(idx) {
                self.stats.drops += 1;
                continue; // lost on the wire; retry with the same seq
            }
            if self.wire.plan.duplicates_delivery(idx) {
                self.stats.dups += 1;
                let _ = self.peer.handle_envelope(&env_bytes);
            }
            let reply_bytes = self.peer.handle_envelope(&env_bytes);
            let reply: Envelope = from_bytes(&reply_bytes).ok_or_else(|| ApiError::Transport {
                message: "undecodable reply envelope".to_string(),
            })?;
            if reply.seq != seq {
                return Err(ApiError::Transport {
                    message: format!("reply seq {} for request seq {seq}", reply.seq),
                }
                .into());
            }
            return Ok(reply.payload);
        }
        Err(ApiError::Transport {
            message: format!("no delivery after {max_attempts} attempts"),
        }
        .into())
    }
}

/// A transport that wraps every frame in a `(machine, seq)` envelope
/// and replays a seeded [`FaultPlan`]'s drop/duplicate decisions against
/// it — the same fault machinery the distributed protocol runs under,
/// delivered by the `Link` loop the fleet uses too. The service's
/// per-client dedup window keeps the observable behavior identical to
/// a faultless run, which is exactly what the chaos proptests pin.
pub struct Lossy {
    service: CoresetService,
    wire: Wire,
    seq: u64,
    /// Accumulated delivery counters.
    pub stats: LossyStats,
}

impl Lossy {
    /// Wraps a service with fault-plan-driven delivery as `machine`.
    pub fn new(service: CoresetService, plan: FaultPlan, machine: u32) -> Lossy {
        Lossy {
            service,
            wire: Wire::new(plan, machine),
            seq: 0,
            stats: LossyStats::default(),
        }
    }

    /// Direct access to the wrapped service.
    pub fn service_mut(&mut self) -> &mut CoresetService {
        &mut self.service
    }
}

impl Transport for Lossy {
    fn round_trip(&mut self, frame: &[u8]) -> Result<Vec<u8>, SbcError> {
        Link {
            wire: &mut self.wire,
            stats: &mut self.stats,
            seq: &mut self.seq,
            peer: &mut self.service,
        }
        .round_trip(frame)
    }
}

/// The typed client: one method per request kind, plus batched access.
/// Every call crosses the wire format; coded
/// [`ApiResponse::Error`]/[`ApiResponse::Overloaded`] records come back
/// as [`SbcError::Api`] values carrying the peer's stable code.
pub struct Client<T: Transport> {
    transport: T,
    version: Option<u32>,
}

impl<T: Transport> Client<T> {
    /// Wraps a transport. Call [`Client::hello`] before anything else —
    /// the convenience constructors on the concrete transports do.
    pub fn new(transport: T) -> Client<T> {
        Client {
            transport,
            version: None,
        }
    }

    /// The negotiated protocol version, once [`Client::hello`] ran.
    pub fn version(&self) -> Option<u32> {
        self.version
    }

    /// The underlying transport (stats draining in benches).
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Sends a whole batch in one frame and returns the per-record
    /// responses, in order.
    pub fn call_batch(&mut self, requests: &[ApiRequest]) -> Result<Vec<ApiResponse>, SbcError> {
        let reply = self.transport.round_trip(&frame_requests(requests))?;
        let responses = unframe_responses(&reply)?;
        if responses.len() != requests.len() {
            // A frame-level failure legitimately collapses to a single
            // error record; surface it as the coded error it carries.
            if let [ApiResponse::Error { code, message }] = responses.as_slice() {
                return Err(ApiError::Remote {
                    code: *code,
                    message: message.clone(),
                }
                .into());
            }
            return Err(ApiError::UnexpectedResponse {
                message: format!(
                    "{} responses for {} requests",
                    responses.len(),
                    requests.len()
                ),
            }
            .into());
        }
        Ok(responses)
    }

    fn call(&mut self, request: ApiRequest) -> Result<ApiResponse, SbcError> {
        let mut responses = self.call_batch(std::slice::from_ref(&request))?;
        Ok(responses.remove(0))
    }

    /// Converts refusal/error records into coded errors; passes every
    /// other record through.
    fn ok(response: ApiResponse) -> Result<ApiResponse, SbcError> {
        match response {
            ApiResponse::Error { code, message } => Err(ApiError::Remote { code, message }.into()),
            ApiResponse::Overloaded {
                measured_bytes,
                budget_bytes,
            } => Err(ApiError::Overloaded {
                measured_bytes,
                budget_bytes,
            }
            .into()),
            ApiResponse::Unsupported { tag } => Err(ApiError::Unsupported { tag }.into()),
            ApiResponse::Moved { tenant, peer } => Err(ApiError::Moved { tenant, peer }.into()),
            other => Ok(other),
        }
    }

    fn unexpected(response: &ApiResponse) -> SbcError {
        ApiError::UnexpectedResponse {
            message: format!("{response:?}"),
        }
        .into()
    }

    /// Negotiates the protocol version; must precede other calls.
    pub fn hello(&mut self) -> Result<u32, SbcError> {
        let resp = Self::ok(self.call(ApiRequest::Hello {
            min_version: MIN_SUPPORTED_VERSION,
            max_version: PROTOCOL_VERSION,
        })?)?;
        match resp {
            ApiResponse::HelloAck { version } => {
                self.version = Some(version);
                Ok(version)
            }
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Opens (or transparently restores) a tenant. Returns whether a
    /// restore happened.
    pub fn open(&mut self, tenant: TenantId, spec: TenantSpec) -> Result<bool, SbcError> {
        match Self::ok(self.call(ApiRequest::Open { tenant, spec })?)? {
            ApiResponse::Opened { restored, .. } => Ok(restored),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Inserts a batch; returns the tenant's net count afterwards.
    pub fn insert(&mut self, tenant: TenantId, points: &[Point]) -> Result<i64, SbcError> {
        let req = ApiRequest::Insert {
            tenant,
            points: points.to_vec(),
        };
        match Self::ok(self.call(req)?)? {
            ApiResponse::Applied { net_count, .. } => Ok(net_count),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Deletes a batch; returns the tenant's net count afterwards.
    pub fn delete(&mut self, tenant: TenantId, points: &[Point]) -> Result<i64, SbcError> {
        let req = ApiRequest::Delete {
            tenant,
            points: points.to_vec(),
        };
        match Self::ok(self.call(req)?)? {
            ApiResponse::Applied { net_count, .. } => Ok(net_count),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// The tenant's live coreset, mid-stream: `(o, points)`.
    pub fn query(&mut self, tenant: TenantId) -> Result<(f64, Vec<CoresetPoint>), SbcError> {
        match Self::ok(self.call(ApiRequest::Query { tenant })?)? {
            ApiResponse::CoresetReply { o, points, .. } => Ok((o, points)),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Per-tenant accounting.
    pub fn stats(&mut self, tenant: TenantId) -> Result<TenantStats, SbcError> {
        match Self::ok(self.call(ApiRequest::Stats { tenant })?)? {
            ApiResponse::StatsReply { stats, .. } => Ok(stats),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Full checkpoint bytes for external storage.
    pub fn checkpoint(&mut self, tenant: TenantId) -> Result<Vec<u8>, SbcError> {
        match Self::ok(self.call(ApiRequest::Checkpoint { tenant })?)? {
            ApiResponse::CheckpointReply { bytes, .. } => Ok(bytes),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Evicts the tenant to the service's spill store; returns the blob
    /// size.
    pub fn evict(&mut self, tenant: TenantId) -> Result<u64, SbcError> {
        match Self::ok(self.call(ApiRequest::Evict { tenant })?)? {
            ApiResponse::Evicted { bytes, .. } => Ok(bytes),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Drops the tenant for good.
    pub fn close(&mut self, tenant: TenantId) -> Result<(), SbcError> {
        match Self::ok(self.call(ApiRequest::Close { tenant })?)? {
            ApiResponse::Closed { .. } => Ok(()),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Whole-service accounting.
    pub fn server_stats(&mut self) -> Result<ServerStatsReport, SbcError> {
        match Self::ok(self.call(ApiRequest::ServerStats)?)? {
            ApiResponse::ServerStatsReply { stats } => Ok(stats),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Liveness/readiness snapshot for scrapers and load balancers.
    pub fn health(&mut self) -> Result<HealthReport, SbcError> {
        match Self::ok(self.call(ApiRequest::Health)?)? {
            ApiResponse::HealthReply { report } => Ok(report),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Asks the server loop to exit.
    pub fn shutdown(&mut self) -> Result<(), SbcError> {
        match Self::ok(self.call(ApiRequest::Shutdown)?)? {
            ApiResponse::ShuttingDown => Ok(()),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Freezes a tenant for outbound migration and returns the
    /// transfer manifest. Idempotent while the migration is pending.
    pub fn migrate_out(
        &mut self,
        tenant: TenantId,
        chunk_bytes: u32,
    ) -> Result<MigrationManifest, SbcError> {
        let req = ApiRequest::MigrateOut {
            tenant,
            chunk_bytes,
        };
        match Self::ok(self.call(req)?)? {
            ApiResponse::MigrateManifest {
                spec,
                total_chunks,
                total_bytes,
                measured_bytes,
                seq_barrier,
                ..
            } => Ok(MigrationManifest {
                spec,
                total_chunks,
                total_bytes,
                measured_bytes,
                seq_barrier,
            }),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Delivers one checkpoint chunk to a receiving peer; returns the
    /// bytes it has buffered so far.
    #[allow(clippy::too_many_arguments)]
    pub fn send_chunk(
        &mut self,
        tenant: TenantId,
        spec: TenantSpec,
        chunk: u32,
        total_chunks: u32,
        total_bytes: u64,
        measured_bytes: u64,
        payload: Vec<u8>,
    ) -> Result<u64, SbcError> {
        let req = ApiRequest::ChunkedCheckpoint {
            tenant,
            spec,
            chunk,
            total_chunks,
            total_bytes,
            measured_bytes,
            payload,
        };
        match Self::ok(self.call(req)?)? {
            ApiResponse::ChunkAck { received_bytes, .. } => Ok(received_bytes),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Drains buffered replay batches from a frozen source:
    /// `(batches, points_still_queued)`.
    pub fn drain_replay(
        &mut self,
        tenant: TenantId,
        max_ops: u32,
    ) -> Result<(Vec<ReplayOp>, u64), SbcError> {
        let req = ApiRequest::DrainReplay { tenant, max_ops };
        match Self::ok(self.call(req)?)? {
            ApiResponse::ReplayBatch { ops, remaining, .. } => Ok((ops, remaining)),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Flips ownership of a drained tenant to `peer`.
    pub fn cut_over(&mut self, tenant: TenantId, peer: u32) -> Result<(), SbcError> {
        match Self::ok(self.call(ApiRequest::CutOver { tenant, peer })?)? {
            ApiResponse::MigrateAck {
                committed: true, ..
            } => Ok(()),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Abandons an in-progress migration; the tenant stays local on
    /// the source (losslessly) or is discarded on a receiver.
    pub fn migrate_abort(&mut self, tenant: TenantId) -> Result<(), SbcError> {
        match Self::ok(self.call(ApiRequest::MigrateAbort { tenant })?)? {
            ApiResponse::MigrateAck {
                committed: false, ..
            } => Ok(()),
            other => Err(Self::unexpected(&other)),
        }
    }
}

/// A frozen tenant's transfer manifest, as returned by
/// [`Client::migrate_out`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MigrationManifest {
    /// The tenant's pipeline spec (echoed into every chunk).
    pub spec: TenantSpec,
    /// Chunks the coordinator must ship.
    pub total_chunks: u32,
    /// Total container bytes across all chunks.
    pub total_bytes: u64,
    /// The tenant's measured footprint at the seq barrier.
    pub measured_bytes: u64,
    /// The source's request seq at freeze time.
    pub seq_barrier: u64,
}
