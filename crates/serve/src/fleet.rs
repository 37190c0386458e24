//! The in-memory fleet: a consistent-hash router over tenant ids, a
//! redirect-following coordinator, and the live-migration driver that
//! ships a frozen tenant's chunked checkpoint from one
//! [`CoresetService`] to another over the lossy envelope layer.
//!
//! The pieces compose bottom-up:
//!
//! * [`FleetRouter`] — a pure consistent-hash ring
//!   ([`VNODES_PER_SERVER`] vnodes per server, `splitmix64` points).
//!   Routing is a function of the server-id set and the tenant id
//!   alone, so two processes that agree on membership agree on every
//!   placement without talking to each other.
//! * [`FleetServer`] — the byte-level server surface the fleet drives
//!   (`handle_envelope`). Implemented by [`CoresetService`]; tests
//!   implement it for version shims to prove old-peer interop.
//! * [`Fleet`] — owns the servers and reaches each one through a typed
//!   [`Client`] over the same envelope delivery loop
//!   [`Lossy`](crate::Lossy) runs, with the seeded [`FaultPlan`]
//!   indexed by one delivery counter for the whole fleet. It follows
//!   [`ApiError::Moved`] redirects transparently and drives the
//!   migration protocol through the client's migration calls: freeze
//!   at the seq barrier ([`Fleet::migrate_begin`]), ship chunks,
//!   drain+replay the double-buffered ops, and atomically cut over
//!   ([`Fleet::migrate_finish`]).
//!
//! A peer that predates the migration tags answers `Unsupported` (it
//! skips the record body by length prefix); the driver then aborts and
//! the tenant stays local — fleet churn can strand a tenant on an old
//! server, but it can never lose one.

use std::collections::HashMap;

use sbc::api::{ApiError, CoresetPoint, ServerStatsReport, TenantId, TenantSpec};
use sbc::{FaultPlan, Point, SbcError};
use sbc_obs::fault::splitmix64;

use crate::client::{Client, Link, LossyStats, Wire};
use crate::service::{CoresetService, MigrationStats};

/// Virtual nodes each server contributes to the ring. 64 keeps the
/// per-server share within a few percent of uniform at fleet sizes the
/// service tier targets, while a membership change still rehashes only
/// the vnode arcs the departed server owned.
pub const VNODES_PER_SERVER: u32 = 64;

/// Most [`ApiError::Moved`] redirects one routed call will chase
/// before giving up — bounds pathological redirect cycles.
const MAX_REDIRECT_HOPS: u32 = 4;

/// Domain-separation salt for tenant hashes (vs vnode points).
const TENANT_SALT: u64 = 0x7465_6e61_6e74_5f68; // "tenant_h"

/// A consistent-hash ring over server ids: each server owns
/// [`VNODES_PER_SERVER`] points, a tenant routes to the first point at
/// or after its hash (wrapping). Pure — the ring is a deterministic
/// function of the membership set, so any process that knows the
/// membership computes identical placements.
#[derive(Clone, Debug, Default)]
pub struct FleetRouter {
    servers: Vec<u32>,
    /// `(point, server)` sorted by point. Points are `splitmix64` of
    /// the (server, vnode) pair; splitmix64 is a bijection, so
    /// distinct pairs can never collide into a tie.
    ring: Vec<(u64, u32)>,
}

impl FleetRouter {
    /// Builds a ring over `servers` (duplicates ignored).
    pub fn new(servers: &[u32]) -> FleetRouter {
        let mut router = FleetRouter::default();
        for &s in servers {
            router.add_server(s);
        }
        router
    }

    /// The current membership, in insertion order.
    pub fn servers(&self) -> &[u32] {
        &self.servers
    }

    /// Adds a server (no-op if already present).
    pub fn add_server(&mut self, id: u32) {
        if self.servers.contains(&id) {
            return;
        }
        self.servers.push(id);
        for v in 0..VNODES_PER_SERVER {
            self.ring
                .push((splitmix64((u64::from(v) << 32) | u64::from(id)), id));
        }
        self.ring.sort_unstable();
    }

    /// Removes a server (no-op if absent). Only the departed server's
    /// vnode arcs change hands — every other placement is untouched.
    pub fn remove_server(&mut self, id: u32) {
        self.servers.retain(|&s| s != id);
        self.ring.retain(|&(_, s)| s != id);
    }

    /// The server owning `tenant`, or `None` on an empty ring.
    pub fn route(&self, tenant: TenantId) -> Option<u32> {
        if self.ring.is_empty() {
            return None;
        }
        let h = splitmix64(tenant ^ TENANT_SALT);
        let at = self.ring.partition_point(|&(point, _)| point < h);
        let (_, server) = self.ring[if at == self.ring.len() { 0 } else { at }];
        Some(server)
    }
}

/// The byte-level surface the fleet drives: one envelope in, one
/// envelope out — exactly what a socket peer would expose. Implemented
/// by [`CoresetService`]; tests implement it for old-version shims.
pub trait FleetServer {
    /// Handles one `(machine, seq)`-enveloped request frame.
    fn handle_envelope(&mut self, envelope_bytes: &[u8]) -> Vec<u8>;

    /// Local read of chunk `index` of a frozen tenant's outbound
    /// snapshot — the source-driven shipping path. Servers that do not
    /// speak the migration protocol have none.
    fn outbound_chunk(&self, tenant: TenantId, index: u32) -> Option<Vec<u8>> {
        let _ = (tenant, index);
        None
    }

    /// Point-in-time migration counters, when this server tracks them
    /// (benches aggregate these fleet-wide).
    fn migration_stats(&self) -> Option<MigrationStats> {
        None
    }
}

impl FleetServer for CoresetService {
    fn handle_envelope(&mut self, envelope_bytes: &[u8]) -> Vec<u8> {
        CoresetService::handle_envelope(self, envelope_bytes)
    }

    fn outbound_chunk(&self, tenant: TenantId, index: u32) -> Option<Vec<u8>> {
        CoresetService::outbound_chunk(self, tenant, index)
    }

    fn migration_stats(&self) -> Option<MigrationStats> {
        Some(CoresetService::migration_stats(self))
    }
}

/// The outcome of one [`Fleet::migrate`] (or `migrate_begin` +
/// `migrate_finish`) run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MigrationReport {
    /// The migrated tenant.
    pub tenant: TenantId,
    /// The source server.
    pub from: u32,
    /// The intended target server.
    pub to: u32,
    /// Checkpoint chunks shipped.
    pub chunks: u32,
    /// Point-operations drained from the replay queue and re-applied
    /// on the target.
    pub replayed_ops: u64,
    /// `true` if ownership flipped to `to`; `false` if the transfer
    /// fell back to keeping the tenant on `from` (old peer, admission
    /// refusal) — never data loss either way.
    pub committed: bool,
}

/// One pending transfer the coordinator is mid-way through.
struct InFlight {
    from: u32,
    to: u32,
    chunks: u32,
}

/// A multi-process-shaped fleet in one address space: every request —
/// data-plane and migration-plane alike — goes through a [`Client`]
/// over the envelope wire format and the seeded fault plan, so tests
/// and the bench drive exactly the byte exchanges a socketed deployment
/// would see.
pub struct Fleet {
    servers: HashMap<u32, Box<dyn FleetServer>>,
    router: FleetRouter,
    /// The fault plan and the one delivery counter indexing it for
    /// every member: the fleet is envelope machine 1 to all of them.
    wire: Wire,
    /// Per-server last envelope seq (each server deduplicates per
    /// machine).
    seqs: HashMap<u32, u64>,
    /// Learned ownership: seeded by the router at open, updated by
    /// committed cutovers and observed redirects.
    placement: HashMap<TenantId, u32>,
    in_flight: HashMap<TenantId, InFlight>,
    /// Accumulated delivery-fault counters.
    pub stats: LossyStats,
}

impl Fleet {
    /// An empty fleet delivering through `plan` as envelope machine 1.
    pub fn new(plan: FaultPlan) -> Fleet {
        Fleet {
            servers: HashMap::new(),
            router: FleetRouter::default(),
            wire: Wire::new(plan, 1),
            seqs: HashMap::new(),
            placement: HashMap::new(),
            in_flight: HashMap::new(),
            stats: LossyStats::default(),
        }
    }

    /// Adds a server process to the fleet and the ring.
    pub fn insert_server(&mut self, id: u32, server: Box<dyn FleetServer>) {
        self.servers.insert(id, server);
        self.router.add_server(id);
    }

    /// The membership router (placement inspection in tests/benches).
    pub fn router(&self) -> &FleetRouter {
        &self.router
    }

    /// The server currently believed to own `tenant`.
    pub fn owner(&self, tenant: TenantId) -> Option<u32> {
        self.placement
            .get(&tenant)
            .copied()
            .or_else(|| self.router.route(tenant))
    }

    /// [`Fleet::owner`], or a transport error on an empty fleet.
    fn located(&self, tenant: TenantId) -> Result<u32, SbcError> {
        self.owner(tenant).ok_or_else(|| {
            ApiError::Transport {
                message: "empty fleet".to_string(),
            }
            .into()
        })
    }

    /// Fleet-wide migration counters: the field-wise sum over servers
    /// (`replay_queue_peak` takes the max — it is a high-water mark).
    pub fn migration_stats(&self) -> MigrationStats {
        let mut total = MigrationStats::default();
        for server in self.servers.values() {
            let Some(s) = server.migration_stats() else {
                continue;
            };
            total.migrations_out += s.migrations_out;
            total.migrations_in += s.migrations_in;
            total.chunks_in += s.chunks_in;
            total.cutovers += s.cutovers;
            total.aborts += s.aborts;
            total.replayed_ops += s.replayed_ops;
            total.replay_queue_peak = total.replay_queue_peak.max(s.replay_queue_peak);
        }
        total
    }

    /// A typed client for one member, delivering over the fleet's
    /// shared [`Wire`].
    fn client(&mut self, server: u32) -> Result<Client<Link<'_>>, SbcError> {
        let peer = self
            .servers
            .get_mut(&server)
            .ok_or_else(|| ApiError::Transport {
                message: format!("no server {server} in the fleet"),
            })?;
        Ok(Client::new(Link {
            wire: &mut self.wire,
            stats: &mut self.stats,
            seq: self.seqs.entry(server).or_insert(0),
            peer: peer.as_mut(),
        }))
    }

    /// Runs a tenant-scoped call on the tenant's owner, chasing
    /// [`ApiError::Moved`] redirects (and learning from them) up to
    /// [`MAX_REDIRECT_HOPS`] times.
    fn routed<R>(
        &mut self,
        tenant: TenantId,
        mut call: impl FnMut(&mut Client<Link<'_>>) -> Result<R, SbcError>,
    ) -> Result<R, SbcError> {
        let mut server = self.located(tenant)?;
        for _ in 0..=MAX_REDIRECT_HOPS {
            match call(&mut self.client(server)?) {
                Err(SbcError::Api(ApiError::Moved { peer, .. })) => {
                    self.placement.insert(tenant, peer);
                    server = peer;
                }
                result => return result,
            }
        }
        Err(ApiError::Transport {
            message: format!("tenant {tenant}: redirect chase exceeded {MAX_REDIRECT_HOPS} hops"),
        }
        .into())
    }

    /// Opens `tenant` on the server the ring routes it to.
    pub fn open(&mut self, tenant: TenantId, spec: TenantSpec) -> Result<bool, SbcError> {
        let server = self.located(tenant)?;
        self.placement.insert(tenant, server);
        self.routed(tenant, |c| c.open(tenant, spec))
    }

    /// Inserts a batch wherever the tenant lives; follows redirects.
    pub fn insert(&mut self, tenant: TenantId, points: &[Point]) -> Result<i64, SbcError> {
        self.routed(tenant, |c| c.insert(tenant, points))
    }

    /// Deletes a batch wherever the tenant lives; follows redirects.
    pub fn delete(&mut self, tenant: TenantId, points: &[Point]) -> Result<i64, SbcError> {
        self.routed(tenant, |c| c.delete(tenant, points))
    }

    /// The tenant's live coreset: `(o, points)`. Follows redirects.
    pub fn query(&mut self, tenant: TenantId) -> Result<(f64, Vec<CoresetPoint>), SbcError> {
        self.routed(tenant, |c| c.query(tenant))
    }

    /// Full checkpoint bytes, wherever the tenant lives.
    pub fn checkpoint(&mut self, tenant: TenantId) -> Result<Vec<u8>, SbcError> {
        self.routed(tenant, |c| c.checkpoint(tenant))
    }

    /// Closes the tenant wherever it lives (tombstones included).
    pub fn close(&mut self, tenant: TenantId) -> Result<(), SbcError> {
        self.routed(tenant, |c| c.close(tenant))?;
        self.placement.remove(&tenant);
        Ok(())
    }

    /// Whole-service accounting for one member.
    pub fn server_stats(&mut self, server: u32) -> Result<ServerStatsReport, SbcError> {
        self.client(server)?.server_stats()
    }

    /// Phase one of a migration: freeze the tenant on its owner and
    /// ship every checkpoint chunk to `to`. Returns `Ok(true)` when
    /// the snapshot landed (traffic may now interleave — it is
    /// double-buffered — until [`Fleet::migrate_finish`]), `Ok(false)`
    /// when the transfer fell back to keeping the tenant local (old
    /// peer or admission refusal on either side; lossless).
    pub fn migrate_begin(
        &mut self,
        tenant: TenantId,
        to: u32,
        chunk_bytes: u32,
    ) -> Result<bool, SbcError> {
        let from = self.located(tenant)?;
        if from == to {
            return Ok(false);
        }
        let manifest = match self.client(from)?.migrate_out(tenant, chunk_bytes) {
            Ok(manifest) => manifest,
            // The source predates the migration protocol: nothing was
            // frozen, the tenant simply stays put.
            Err(SbcError::Api(ApiError::Unsupported { .. })) => return Ok(false),
            Err(e) => return Err(e),
        };
        for chunk in 0..manifest.total_chunks {
            let Some(payload) = self
                .servers
                .get(&from)
                .and_then(|s| s.outbound_chunk(tenant, chunk))
            else {
                self.abort_on(from, tenant);
                return Err(ApiError::Transport {
                    message: format!("tenant {tenant}: frozen chunk {chunk} unreadable"),
                }
                .into());
            };
            let sent = self.client(to)?.send_chunk(
                tenant,
                manifest.spec,
                chunk,
                manifest.total_chunks,
                manifest.total_bytes,
                manifest.measured_bytes,
                payload,
            );
            match sent {
                Ok(_) => {}
                // The target cannot take the tenant (old build, or its
                // admission budget is full): unfreeze the source and
                // keep the tenant where it is.
                Err(SbcError::Api(ApiError::Unsupported { .. } | ApiError::Overloaded { .. })) => {
                    self.abort_on(from, tenant);
                    return Ok(false);
                }
                Err(e) => {
                    self.abort_on(from, tenant);
                    self.abort_on(to, tenant);
                    return Err(e);
                }
            }
        }
        self.in_flight.insert(
            tenant,
            InFlight {
                from,
                to,
                chunks: manifest.total_chunks,
            },
        );
        Ok(true)
    }

    /// Best-effort abort of a pending transfer on one server.
    fn abort_on(&mut self, server: u32, tenant: TenantId) {
        let _ = self
            .client(server)
            .and_then(|mut c| c.migrate_abort(tenant));
    }

    /// Abandons a transfer started by [`Fleet::migrate_begin`]:
    /// discards the receiver's half-assembled state and unfreezes the
    /// source. Lossless — the source double-applied every op while
    /// frozen, so it is already current.
    pub fn abort(&mut self, tenant: TenantId) -> Result<(), SbcError> {
        let Some(InFlight { from, to, .. }) = self.in_flight.remove(&tenant) else {
            return Err(Self::not_in_flight(tenant));
        };
        // A fully-shipped snapshot is already a live copy on the
        // receiver; a partial one is still assembling. Discard either.
        self.abort_on(to, tenant);
        let _ = self.client(to).and_then(|mut c| c.close(tenant));
        self.client(from)?.migrate_abort(tenant)
    }

    fn not_in_flight(tenant: TenantId) -> SbcError {
        ApiError::Transport {
            message: format!("tenant {tenant}: no transfer in flight"),
        }
        .into()
    }

    /// Phase two: drain the source's replay queue into the target,
    /// then cut over. The drain loops until the queue is empty, so the
    /// cutover's `ReplayPending` barrier can only pass losslessly.
    pub fn migrate_finish(&mut self, tenant: TenantId) -> Result<MigrationReport, SbcError> {
        let Some(InFlight { from, to, chunks }) = self.in_flight.remove(&tenant) else {
            return Err(Self::not_in_flight(tenant));
        };
        let mut replayed = 0u64;
        loop {
            let (ops, remaining) = self.client(from)?.drain_replay(tenant, 4096)?;
            if ops.is_empty() && remaining == 0 {
                break;
            }
            for op in ops {
                replayed += op.points.len() as u64;
                let mut target = self.client(to)?;
                if op.delete {
                    target.delete(tenant, &op.points)?;
                } else {
                    target.insert(tenant, &op.points)?;
                }
            }
            if remaining == 0 {
                break;
            }
        }
        self.client(from)?.cut_over(tenant, to)?;
        self.placement.insert(tenant, to);
        Ok(MigrationReport {
            tenant,
            from,
            to,
            chunks,
            replayed_ops: replayed,
            committed: true,
        })
    }

    /// Migrates a tenant end-to-end: freeze, ship, drain, cut over. A
    /// lossless fallback (old peer, admission refusal) reports
    /// `committed: false` with the tenant still serving on its source.
    pub fn migrate(
        &mut self,
        tenant: TenantId,
        to: u32,
        chunk_bytes: u32,
    ) -> Result<MigrationReport, SbcError> {
        let from = self.located(tenant)?;
        if !self.migrate_begin(tenant, to, chunk_bytes)? {
            return Ok(MigrationReport {
                tenant,
                from,
                to,
                chunks: 0,
                replayed_ops: 0,
                committed: false,
            });
        }
        self.migrate_finish(tenant)
    }

    /// Drains a server for decommission: removes it from the ring,
    /// then migrates every tenant it owns to wherever the shrunken
    /// ring routes them. Fallbacks (`committed: false`) leave those
    /// tenants serving on the drained server — reported, never lost.
    pub fn drain(
        &mut self,
        server: u32,
        chunk_bytes: u32,
    ) -> Result<Vec<MigrationReport>, SbcError> {
        self.router.remove_server(server);
        let mut owned: Vec<TenantId> = self
            .placement
            .iter()
            .filter(|&(_, s)| *s == server)
            .map(|(t, _)| *t)
            .collect();
        owned.sort_unstable();
        let mut reports = Vec::with_capacity(owned.len());
        for tenant in owned {
            let to = self
                .router
                .route(tenant)
                .ok_or_else(|| ApiError::Transport {
                    message: "drained the last server".to_string(),
                })?;
            reports.push(self.migrate(tenant, to, chunk_bytes)?);
        }
        Ok(reports)
    }
}
