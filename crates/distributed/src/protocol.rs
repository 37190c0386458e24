//! The distributed coreset protocol (Lemma 4.6 + Theorem 4.7).
//!
//! Execution plan (one round-trip):
//!
//! 1. **Broadcast** — the coordinator draws the random grid shift and a
//!    hash seed and sends both to all `s` machines (`O(s·d·L)` bytes).
//! 2. **Local sketches** — machine `j` replays its shard as an
//!    insertion-only stream through `sbc-streaming`'s builder
//!    (constructed from the shared seed, so all machines and the
//!    coordinator sample with *identical* λ-wise hash functions) and
//!    uploads the builder's checkpoint image: one arena per (role,
//!    level), of which every guess's `(C⁽ʲ⁾, f⁽ʲ⁾, S⁽ʲ⁾)` is a view.
//! 3. **Merge + assemble** — the coordinator restores each image and
//!    folds them with [`StreamCoresetBuilder::merge`]: counts add, the
//!    small-cell payloads union, and every view's rules are re-applied
//!    to the merged occupancy (Lemma 4.6: a globally-small cell is
//!    locally small on every machine, so no point is missed). The merged
//!    builder holds what one builder over the whole point set would, and
//!    its `finish` assembles the coreset.
//!
//! Machines run either serially or on real threads (crossbeam scope);
//! the outputs are identical because each machine's computation is
//! deterministic in (seed, shard).
//!
//! Uploads travel in [`Envelope`]s through a simulated network that can
//! drop or duplicate deliveries per the `StreamParams` fault plan
//! (`sbc_obs::fault`). Dropped sends are retried with exponential
//! backoff (accounted, not slept) up to the plan's attempt budget;
//! duplicates are discarded by `(machine, seq)`. Under any survivable
//! loss schedule the coordinator therefore assembles the *same* coreset
//! as a lossless run — asserted by the fault tests below.
//!
//! The coordinator trusts no upload: bytes that are not a well-formed
//! image fail the run with `FailReason::Storage("malformed upload")`,
//! and an image whose parameters, grid shift or hash coefficients are
//! not the broadcast ones is refused by the merge check.

use crate::wire::{from_bytes, to_bytes, Encode, Envelope};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sbc_core::{Coreset, CoresetParams, FailReason};
use sbc_geometry::{GridHierarchy, Point};
use sbc_obs::fault::FaultPlan;
use sbc_obs::trace::{self, CausalIds, TraceKind};
use sbc_obs::MetricsSnapshot;
use sbc_streaming::{MergeError, Snapshot, StreamCoresetBuilder, StreamParams};
use std::collections::HashSet;

/// Exact communication accounting for one protocol run.
#[derive(Clone, Copy, Debug, Default)]
pub struct CommStats {
    /// Bytes broadcast coordinator → machines (total over machines).
    pub broadcast_bytes: u64,
    /// Bytes sent machines → coordinator (every transmission counts,
    /// including dropped and duplicated copies).
    pub upload_bytes: u64,
    /// Number of point-to-point messages put on the wire.
    pub messages: u64,
    /// Number of machines.
    pub machines: usize,
    /// Uploads lost to injected drops (each triggers a retry).
    pub dropped: u64,
    /// Retransmissions after a drop (`messages` includes them).
    pub retransmissions: u64,
    /// Extra delivered copies from injected duplication, discarded by
    /// the coordinator's `(machine, seq)` dedupe.
    pub duplicates: u64,
    /// Simulated exponential-backoff cost: Σ 2^(attempt−1) over all
    /// retransmissions (unit = the base retry delay).
    pub backoff_units: u64,
}

impl CommStats {
    /// Total bytes on the wire.
    pub fn total_bytes(&self) -> u64 {
        self.broadcast_bytes + self.upload_bytes
    }
}

/// The broadcast message (wire-encoded for accounting).
struct Broadcast {
    shift: Vec<f64>,
    hash_seed: u64,
}

impl Encode for Broadcast {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.shift.encode(buf);
        self.hash_seed.encode(buf);
    }
}

/// Entry point for the distributed protocol.
///
/// ```no_run
/// use sbc_core::CoresetParams;
/// use sbc_distributed::DistributedCoreset;
/// use sbc_geometry::{dataset, GridParams};
/// use sbc_streaming::StreamParams;
///
/// let gp = GridParams::from_log_delta(8, 2);
/// let params = CoresetParams::builder(3, gp).build().unwrap();
/// let points = dataset::gaussian_mixture(gp, 20_000, 3, 0.04, 1);
/// let shards = dataset::split_round_robin(&points, 8);
/// let (coreset, stats) =
///     DistributedCoreset::run_threaded(&shards, &params, &StreamParams::default(), 7).unwrap();
/// println!("{} coreset points, {} bytes uploaded", coreset.len(), stats.upload_bytes);
/// ```
pub struct DistributedCoreset;

impl DistributedCoreset {
    /// Runs the protocol serially over in-memory shards.
    pub fn run(
        shards: &[Vec<Point>],
        params: &CoresetParams,
        sparams: &StreamParams,
        seed: u64,
    ) -> Result<(Coreset, CommStats), FailReason> {
        Self::run_inner(shards, params, sparams, seed, false, false)
    }

    /// Runs the protocol with each machine on its own thread.
    pub fn run_threaded(
        shards: &[Vec<Point>],
        params: &CoresetParams,
        sparams: &StreamParams,
        seed: u64,
    ) -> Result<(Coreset, CommStats), FailReason> {
        Self::run_inner(shards, params, sparams, seed, true, false)
    }

    /// Runs the protocol with **binary-tree aggregation**: instead of
    /// every machine's image going straight into the coordinator's fold,
    /// images are merged pairwise up a fixed binary tree (shard index =
    /// leaf order, pairs `(0,1), (2,3), …`; an odd node passes through
    /// unsent). Every non-root merged node's image re-enters the faulty
    /// envelope network as `Envelope { machine: node, seq: level }`, so
    /// drops, duplicates, retries, and backoff are accounted at every
    /// level — the communication pattern of the paper's Theorem 5.1
    /// protocol when machines form an aggregation tree.
    ///
    /// The pairs are the ones [`StreamCoresetBuilder::merge_many`] folds
    /// and the merge is lossless, so the assembled coreset is
    /// **identical** to [`DistributedCoreset::run`]'s — asserted by the
    /// tree tests below.
    pub fn run_tree(
        shards: &[Vec<Point>],
        params: &CoresetParams,
        sparams: &StreamParams,
        seed: u64,
    ) -> Result<(Coreset, CommStats), FailReason> {
        Self::run_inner(shards, params, sparams, seed, false, true)
    }

    /// Tree aggregation with each machine on its own thread.
    pub fn run_tree_threaded(
        shards: &[Vec<Point>],
        params: &CoresetParams,
        sparams: &StreamParams,
        seed: u64,
    ) -> Result<(Coreset, CommStats), FailReason> {
        Self::run_inner(shards, params, sparams, seed, true, true)
    }

    fn run_inner(
        shards: &[Vec<Point>],
        params: &CoresetParams,
        sparams: &StreamParams,
        seed: u64,
        threaded: bool,
        tree: bool,
    ) -> Result<(Coreset, CommStats), FailReason> {
        assert!(!shards.is_empty(), "need at least one machine");
        let s = shards.len();
        sbc_obs::counter!("dist.protocol.runs").incr();
        sbc_obs::counter!("dist.protocol.machines").add(s as u64);
        let _span = sbc_obs::span!("dist.protocol.run_ns");
        let mut net = Network {
            plan: sparams.faults,
            max_attempts: sparams.faults.max_retries.max(1) as u64,
            delivery_idx: 0,
            seen: HashSet::new(),
            stats: CommStats {
                machines: s,
                ..Default::default()
            },
        };

        // 1. Coordinator: draw shift + hash seed, broadcast.
        let mut coord_rng = StdRng::seed_from_u64(seed);
        let grid = GridHierarchy::new(params.grid, &mut coord_rng);
        let hash_seed: u64 = rand::Rng::gen(&mut coord_rng);
        let broadcast = Broadcast {
            shift: grid.shift().to_vec(),
            hash_seed,
        };
        let bcast_bytes = {
            let _mem = sbc_obs::alloc::scope(sbc_obs::alloc::Component::Wire);
            to_bytes(&broadcast)
        };
        net.stats.broadcast_bytes = (bcast_bytes.len() * s) as u64;
        net.stats.messages += s as u64;
        sbc_obs::counter!("dist.wire.broadcast_bytes").add(net.stats.broadcast_bytes);
        sbc_obs::counter!("dist.wire.messages_down").add(s as u64);

        // 2. Machines: ingest their shard into a builder drawn from the
        //    broadcast (identical hash functions come from the shared
        //    seed) and upload its image.
        let builder = |shift: Vec<f64>| {
            let mut rng = StdRng::seed_from_u64(hash_seed);
            let grid = GridHierarchy::with_shift(params.grid, shift);
            StreamCoresetBuilder::with_grid(params.clone(), *sparams, grid, &mut rng)
        };
        let machine = |shard: &Vec<Point>| {
            let mut b = builder(broadcast.shift.clone());
            b.insert_batch(shard);
            image(&b)
        };

        let uploads: Vec<Result<Vec<u8>, FailReason>> = if threaded {
            let results = Mutex::new(Vec::with_capacity(s));
            crossbeam::scope(|scope| {
                for (j, shard) in shards.iter().enumerate() {
                    let results = &results;
                    let machine = &machine;
                    scope.spawn(move |_| {
                        let bytes = machine(shard);
                        results.lock().push((j, bytes));
                    });
                }
            })
            .expect("machine thread panicked");
            let mut collected = results.into_inner();
            collected.sort_by_key(|(j, _)| *j);
            collected.into_iter().map(|(_, b)| b).collect()
        } else {
            shards.iter().map(machine).collect()
        };

        // 3. The (simulated) network: each upload travels in an
        //    `Envelope` and may be dropped or duplicated per the fault
        //    plan. The delivery loop runs in the coordinator, serially in
        //    machine order after the (possibly threaded) compute barrier,
        //    so the threaded and serial paths inject identical faults.
        let mut leaves = Vec::with_capacity(s);
        for (j, payload) in uploads.into_iter().enumerate() {
            let env = Envelope {
                machine: j as u32,
                seq: 0,
                payload: payload?,
            };
            let payload = net
                .send(env)
                .map_err(|attempts| {
                    FailReason::Storage(format!(
                        "machine {j}: upload lost after {attempts} send attempt(s)"
                    ))
                })?
                .ok_or_else(|| FailReason::Storage("missing upload".into()))?;
            leaves.push(open(&payload)?);
        }

        // 4. Coordinator: fold the images (flat or up the binary tree)
        //    and its own builder, then assemble.
        let root = fold(leaves, builder(broadcast.shift), tree, &mut net)?;
        let stats = net.stats;
        sbc_obs::counter!("dist.wire.upload_bytes").add(stats.upload_bytes);
        sbc_obs::counter!("dist.wire.messages_up").add(stats.messages - s as u64);
        Ok((root.finish()?, stats))
    }
}

/// The coordinator's fold of the machines' builders, flat or up the
/// binary tree ([`fold_tree`]). Its own builder, drawn from the
/// broadcast, holds nothing and goes in last: that leaves the root's
/// state as it is, and the merge check refuses a root whose parameters,
/// grid shift or hash coefficients are not the broadcast ones.
fn fold(
    leaves: Vec<StreamCoresetBuilder>,
    coordinator: StreamCoresetBuilder,
    tree: bool,
    net: &mut Network,
) -> Result<StreamCoresetBuilder, FailReason> {
    let root = if tree {
        fold_tree(leaves, net)?
    } else {
        StreamCoresetBuilder::merge_many(leaves).map_err(refused)?
    };
    root.merge(coordinator).map_err(refused)
}

/// A builder's checkpoint image as it goes on the wire. The process
/// metrics registry, which a checkpoint carries while `sbc-obs` records,
/// stays home: the bytes, and what restoring them does, must not depend
/// on whether the sending process records metrics.
fn image(builder: &StreamCoresetBuilder) -> Result<Vec<u8>, FailReason> {
    let mut snap = builder
        .checkpoint()
        .map_err(|e| FailReason::Storage(format!("image: {e}")))?;
    snap.metrics = MetricsSnapshot::default();
    Ok(snap.to_bytes())
}

/// Restores an uploaded image. Bytes that do not decode to a restorable
/// image, or that carry a metrics registry, fail the run.
fn open(payload: &[u8]) -> Result<StreamCoresetBuilder, FailReason> {
    Snapshot::from_bytes(payload)
        .ok()
        .filter(|snap| snap.metrics == MetricsSnapshot::default())
        .and_then(|snap| StreamCoresetBuilder::restore(&snap).ok())
        .ok_or_else(|| FailReason::Storage("malformed upload".into()))
}

/// An upload the merge check refused.
fn refused(e: MergeError) -> FailReason {
    FailReason::Storage(format!("refused upload: {e}"))
}

/// The simulated faulty network between machines and coordinator, and
/// its accounting.
struct Network {
    plan: FaultPlan,
    max_attempts: u64,
    /// Transmissions so far: the index fault decisions are keyed by.
    delivery_idx: u64,
    /// `(machine, seq)` of every envelope delivered so far.
    seen: HashSet<(u32, u64)>,
    stats: CommStats,
}

impl Network {
    /// Pushes one envelope through the network: every transmission is
    /// accounted in `stats`, drops are retried with simulated
    /// exponential backoff up to `max_attempts`, duplicates are
    /// discarded by the `(machine, seq)` dedupe.
    ///
    /// Returns the delivered payload (`None` if every arriving copy was
    /// a duplicate of an already-seen envelope) or `Err(attempts)` when
    /// the attempt budget is exhausted.
    fn send(&mut self, env: Envelope) -> Result<Option<Vec<u8>>, u64> {
        let _mem = sbc_obs::alloc::scope(sbc_obs::alloc::Component::Wire);
        let env_bytes = to_bytes(&env);
        sbc_obs::histogram!("dist.wire.upload_msg_bytes").record(env_bytes.len() as u64);
        let wire_ids = CausalIds::NONE.on_machine(env.machine as u16);
        let stats = &mut self.stats;
        for attempt in 0..self.max_attempts {
            let idx = self.delivery_idx;
            self.delivery_idx += 1;
            stats.messages += 1;
            stats.upload_bytes += env_bytes.len() as u64;
            trace::instant("wire.send", wire_ids, idx);
            if attempt > 0 {
                stats.retransmissions += 1;
                stats.backoff_units += 1 << (attempt - 1);
                sbc_obs::counter!("dist.fault.retransmit").incr();
                trace::instant("wire.retry", wire_ids, attempt);
            }
            if self.plan.drops_delivery(idx) {
                stats.dropped += 1;
                sbc_obs::counter!("dist.fault.drop").incr();
                trace::event(TraceKind::Fault, "wire.drop", wire_ids, idx);
                continue;
            }
            let copies = if self.plan.duplicates_delivery(idx) {
                stats.duplicates += 1;
                sbc_obs::counter!("dist.fault.dup").incr();
                trace::event(TraceKind::Fault, "wire.dup", wire_ids, idx);
                2
            } else {
                1
            };
            let mut delivered = None;
            for _ in 0..copies {
                // Round-trip through bytes: the receiver decodes what was
                // actually on the wire.
                let env: Envelope = from_bytes(&env_bytes).expect("wire round-trip");
                if self.seen.insert((env.machine, env.seq)) {
                    delivered = Some(env.payload);
                } else {
                    sbc_obs::counter!("dist.fault.dedup").incr();
                    trace::instant("wire.dedup", wire_ids, idx);
                }
            }
            return Ok(delivered);
        }
        Err(self.max_attempts)
    }
}

/// Folds the machines' builders up a fixed binary merge tree, pushing
/// every non-root merged node's image back through the faulty network.
///
/// Leaf order = shard order; level `ℓ ≥ 1` nodes travel as
/// `Envelope { machine: node index within level, seq: ℓ }`, which never
/// collides with the leaves' `(j, 0)` dedupe keys. An odd node at the
/// end of a level is carried up without a re-send (it already arrived).
fn fold_tree(
    leaves: Vec<StreamCoresetBuilder>,
    net: &mut Network,
) -> Result<StreamCoresetBuilder, FailReason> {
    let _span = sbc_obs::span!("dist.tree.fold_ns");
    let mut level = leaves;
    let mut lvl: u64 = 1;
    while level.len() > 1 {
        let next_len = level.len().div_ceil(2);
        sbc_obs::counter!("dist.tree.levels").incr();
        let mut next = Vec::with_capacity(next_len);
        let mut nodes = level.into_iter();
        let mut node_idx: u32 = 0;
        while let Some(a) = nodes.next() {
            let Some(b) = nodes.next() else {
                // Odd tail: passes through to the next level unsent.
                next.push(a);
                break;
            };
            let merged = a.merge(b).map_err(refused)?;
            sbc_obs::counter!("dist.tree.merges").incr();
            trace::event(
                TraceKind::Merge,
                "tree.merge",
                CausalIds::NONE.on_machine(node_idx as u16),
                lvl,
            );
            if next_len > 1 {
                // Not the root: the merged image re-enters the wire on
                // its way to the next aggregator.
                let env = Envelope {
                    machine: node_idx,
                    seq: lvl,
                    payload: image(&merged)?,
                };
                let payload = net
                    .send(env)
                    .map_err(|attempts| {
                        FailReason::Storage(format!(
                            "tree node {node_idx} (level {lvl}): upload lost after {attempts} send attempt(s)"
                        ))
                    })?
                    .ok_or_else(|| FailReason::Storage("missing tree upload".into()))?;
                next.push(open(&payload)?);
            } else {
                // The root merge happens at the coordinator itself.
                next.push(merged);
            }
            node_idx += 1;
        }
        level = next;
        lvl += 1;
    }
    Ok(level.pop().expect("tree fold leaves one root"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbc_geometry::dataset::{gaussian_mixture, split_round_robin};
    use sbc_geometry::GridParams;

    fn params() -> CoresetParams {
        CoresetParams::builder(3, GridParams::from_log_delta(8, 2))
            .build()
            .unwrap()
    }

    #[test]
    fn distributed_protocol_produces_coreset() {
        let p = params();
        let pts = gaussian_mixture(p.grid, 6000, 3, 0.04, 3);
        let shards = split_round_robin(&pts, 4);
        let (cs, stats) =
            DistributedCoreset::run(&shards, &p, &StreamParams::default(), 7).expect("coreset");
        assert!(!cs.is_empty());
        assert!(cs.len() < 6000);
        assert_eq!(stats.machines, 4);
        assert!(stats.upload_bytes > 0 && stats.broadcast_bytes > 0);
        let tw = cs.total_weight();
        assert!((tw - 6000.0).abs() < 0.3 * 6000.0, "total weight {tw}");
    }

    #[test]
    fn threaded_matches_serial() {
        let p = params();
        let pts = gaussian_mixture(p.grid, 3000, 3, 0.04, 5);
        let shards = split_round_robin(&pts, 3);
        let (a, sa) = DistributedCoreset::run(&shards, &p, &StreamParams::default(), 11).unwrap();
        let (b, sb) =
            DistributedCoreset::run_threaded(&shards, &p, &StreamParams::default(), 11).unwrap();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.o, b.o);
        assert_eq!(sa.upload_bytes, sb.upload_bytes);
        for (x, y) in a.entries().iter().zip(b.entries()) {
            assert_eq!(x.point, y.point);
            assert_eq!(x.weight, y.weight);
        }
    }

    #[test]
    fn communication_grows_linearly_in_machines_not_n() {
        let p = params();
        let pts = gaussian_mixture(p.grid, 4000, 3, 0.04, 9);
        let run = |s: usize| {
            let shards = split_round_robin(&pts, s);
            DistributedCoreset::run(&shards, &p, &StreamParams::default(), 13)
                .unwrap()
                .1
                .total_bytes()
        };
        let b2 = run(2);
        let b8 = run(8);
        // 4× the machines should cost well under ~8× the bytes (per-machine
        // summaries shrink as shards shrink, so growth is sublinear here);
        // it must certainly grow, and far less than 16×.
        assert!(b8 > b2, "more machines ⇒ more messages");
        assert!(b8 < 8 * b2, "b2 = {b2}, b8 = {b8}");
    }

    #[test]
    fn drop_profile_converges_to_lossless_coreset() {
        // With 1-in-8 deliveries dropped and retries enabled, every
        // upload eventually lands, so the assembled coreset must be
        // identical to the lossless run's — the protocol's convergence
        // guarantee under loss.
        let p = params();
        let pts = gaussian_mixture(p.grid, 4000, 3, 0.04, 13);
        let shards = split_round_robin(&pts, 6);
        let lossless = StreamParams::default();
        let lossy = StreamParams {
            faults: sbc_obs::fault::FaultPlan::parse("drop8").unwrap(),
            ..lossless
        };
        let (a, sa) = DistributedCoreset::run(&shards, &p, &lossless, 19).unwrap();
        let (b, sb) = DistributedCoreset::run(&shards, &p, &lossy, 19).unwrap();
        assert_eq!(a.o, b.o);
        assert_eq!(a.entries(), b.entries(), "coreset must survive drops");
        assert!(sb.dropped > 0, "drop8 over 6 machines must drop something");
        assert_eq!(sb.retransmissions, sb.dropped);
        assert!(sb.backoff_units >= sb.retransmissions);
        assert!(
            sb.upload_bytes > sa.upload_bytes,
            "retransmissions cost bytes"
        );
        // The threaded path injects the very same faults.
        let (c, sc) = DistributedCoreset::run_threaded(&shards, &p, &lossy, 19).unwrap();
        assert_eq!(b.entries(), c.entries());
        assert_eq!(sb.dropped, sc.dropped);
        assert_eq!(sb.upload_bytes, sc.upload_bytes);
    }

    #[test]
    fn duplicated_deliveries_are_idempotent() {
        let p = params();
        let pts = gaussian_mixture(p.grid, 3000, 3, 0.04, 23);
        let shards = split_round_robin(&pts, 8);
        let lossless = StreamParams::default();
        let dupy = StreamParams {
            faults: sbc_obs::fault::FaultPlan::parse("dup8@5").unwrap(),
            ..lossless
        };
        let (a, _) = DistributedCoreset::run(&shards, &p, &lossless, 29).unwrap();
        let (b, sb) = DistributedCoreset::run(&shards, &p, &dupy, 29).unwrap();
        assert!(sb.duplicates > 0, "dup8 over 8 machines must duplicate");
        assert_eq!(a.entries(), b.entries(), "dedupe must make dups invisible");
    }

    #[test]
    fn exhausted_retries_surface_as_storage_failure() {
        // drop_every = 1 drops *every* delivery; one attempt per message
        // means no upload ever arrives.
        let p = params();
        let pts = gaussian_mixture(p.grid, 500, 2, 0.04, 31);
        let shards = split_round_robin(&pts, 2);
        let doomed = StreamParams {
            faults: sbc_obs::fault::FaultPlan {
                drop_every: Some(1),
                max_retries: 1,
                ..sbc_obs::fault::FaultPlan::NONE
            },
            ..StreamParams::default()
        };
        let err = DistributedCoreset::run(&shards, &p, &doomed, 37).unwrap_err();
        assert!(
            matches!(err, FailReason::Storage(ref m) if m.contains("lost after")),
            "{err:?}"
        );
    }

    #[test]
    fn tree_aggregation_matches_flat_merge() {
        // Insertion-only counts only grow up the tree, so the pairwise
        // β-filter commutes with the flat merge: the tree-aggregated
        // coreset must be identical, while costing strictly more wire
        // traffic (the interior-node re-sends).
        let p = params();
        let pts = gaussian_mixture(p.grid, 5000, 3, 0.04, 41);
        for s in [2usize, 5, 8] {
            let shards = split_round_robin(&pts, s);
            let (flat, sf) =
                DistributedCoreset::run(&shards, &p, &StreamParams::default(), 43).unwrap();
            let (tree, st) =
                DistributedCoreset::run_tree(&shards, &p, &StreamParams::default(), 43).unwrap();
            assert_eq!(flat.o, tree.o, "s = {s}");
            assert_eq!(flat.entries(), tree.entries(), "s = {s}");
            if s > 2 {
                assert!(
                    st.messages > sf.messages && st.upload_bytes > sf.upload_bytes,
                    "interior nodes must hit the wire (s = {s})"
                );
            }
            let (tree_t, st_t) =
                DistributedCoreset::run_tree_threaded(&shards, &p, &StreamParams::default(), 43)
                    .unwrap();
            assert_eq!(tree.entries(), tree_t.entries(), "s = {s}");
            assert_eq!(st.upload_bytes, st_t.upload_bytes, "s = {s}");
        }
    }

    #[test]
    fn tree_aggregation_survives_drops_and_dups() {
        let p = params();
        let pts = gaussian_mixture(p.grid, 4000, 3, 0.04, 47);
        let shards = split_round_robin(&pts, 6);
        let lossless = StreamParams::default();
        let lossy = StreamParams {
            faults: sbc_obs::fault::FaultPlan::parse("drop8").unwrap(),
            ..lossless
        };
        let dupy = StreamParams {
            faults: sbc_obs::fault::FaultPlan::parse("dup8@5").unwrap(),
            ..lossless
        };
        let (a, _) = DistributedCoreset::run_tree(&shards, &p, &lossless, 53).unwrap();
        let (b, sb) = DistributedCoreset::run_tree(&shards, &p, &lossy, 53).unwrap();
        assert!(sb.dropped > 0);
        assert_eq!(sb.retransmissions, sb.dropped);
        assert_eq!(a.entries(), b.entries(), "tree must converge under drops");
        let (c, sc) = DistributedCoreset::run_tree(&shards, &p, &dupy, 53).unwrap();
        assert!(sc.duplicates > 0);
        assert_eq!(a.entries(), c.entries(), "tree dedupe must absorb dups");
    }

    /// A lossless network.
    fn lossless() -> Network {
        Network {
            plan: FaultPlan::NONE,
            max_attempts: 1,
            delivery_idx: 0,
            seen: HashSet::new(),
            stats: CommStats::default(),
        }
    }

    /// The image of a builder drawn from `(grid, hash_seed)` that
    /// ingested `pts`.
    fn machine_image(
        p: &CoresetParams,
        grid: &GridHierarchy,
        hash_seed: u64,
        pts: &[Point],
    ) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(hash_seed);
        let mut b = StreamCoresetBuilder::with_grid(
            p.clone(),
            StreamParams::default(),
            grid.clone(),
            &mut rng,
        );
        b.insert_batch(pts);
        image(&b).unwrap()
    }

    fn is_malformed<T>(out: &Result<T, FailReason>) -> bool {
        matches!(out, Err(FailReason::Storage(m)) if m == "malformed upload")
    }

    #[test]
    fn truncated_or_corrupted_uploads_are_malformed() {
        let p = params();
        let pts = gaussian_mixture(p.grid, 1500, 3, 0.04, 3);
        let grid = GridHierarchy::new(p.grid, &mut StdRng::seed_from_u64(1));
        let bytes = machine_image(&p, &grid, 2, &pts);
        assert!(open(&bytes).is_ok());
        for cut in (0..bytes.len())
            .step_by(bytes.len() / 16)
            .chain([bytes.len() - 1])
        {
            assert!(is_malformed(&open(&bytes[..cut])), "cut at {cut}");
        }
        // The magic, and a version never written.
        for at in [0, 8] {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x40;
            assert!(is_malformed(&open(&flipped)), "flip at {at}");
        }
        // An image that carries a metrics registry.
        let mut snap = Snapshot::from_bytes(&bytes).unwrap();
        snap.metrics.counters.push(("dist.protocol.runs".into(), 1));
        assert!(is_malformed(&open(&snap.to_bytes())));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// A bit-flipped upload is malformed, or it restores and the
        /// coordinator folds it beside an honest one and assembles or
        /// refuses — never a panic.
        #[test]
        fn bit_flipped_uploads_never_panic(at in 0usize..1 << 20, xor in 1u8..=255) {
            let p = CoresetParams::builder(2, GridParams::from_log_delta(6, 2)).build().unwrap();
            let pts = gaussian_mixture(p.grid, 400, 2, 0.05, 5);
            let grid = GridHierarchy::new(p.grid, &mut StdRng::seed_from_u64(6));
            let honest = machine_image(&p, &grid, 7, &pts[..200]);
            let mut flipped = machine_image(&p, &grid, 7, &pts[200..]);
            let i = at % flipped.len();
            flipped[i] ^= xor;
            match open(&flipped) {
                Ok(b) => {
                    let leaves = vec![open(&honest).unwrap(), b];
                    let coordinator = open(&machine_image(&p, &grid, 7, &[])).unwrap();
                    if let Ok(root) = fold(leaves, coordinator, false, &mut lossless()) {
                        let _ = root.finish();
                    }
                }
                Err(e) => proptest::prop_assert!(is_malformed(&Err::<(), _>(e))),
            }
        }
    }

    #[test]
    fn uploads_off_the_broadcast_are_refused() {
        let p = params();
        let pts = gaussian_mixture(p.grid, 1500, 3, 0.04, 5);
        let grid = GridHierarchy::new(p.grid, &mut StdRng::seed_from_u64(9));
        let honest = machine_image(&p, &grid, 10, &pts);
        let other_k = CoresetParams::builder(2, p.grid).build().unwrap();
        let shifted = GridHierarchy::new(p.grid, &mut StdRng::seed_from_u64(11));
        let hostile = [
            (
                machine_image(&p, &grid, 12, &pts),
                "hash coefficients differ",
            ),
            (machine_image(&p, &shifted, 10, &pts), "grid shifts differ"),
            (
                machine_image(&other_k, &grid, 10, &pts),
                "coreset parameters differ",
            ),
        ];
        for (bytes, why) in &hostile {
            // Alone, only the coordinator's own builder can tell; beside
            // an honest machine, their merge already does.
            for with_honest in [false, true] {
                for tree in [false, true] {
                    let mut leaves = vec![open(bytes).unwrap()];
                    if with_honest {
                        leaves.insert(0, open(&honest).unwrap());
                    }
                    let coordinator = open(&machine_image(&p, &grid, 10, &[])).unwrap();
                    let err = fold(leaves, coordinator, tree, &mut lossless())
                        .err()
                        .expect("refused");
                    assert!(
                        matches!(&err, FailReason::Storage(m) if m.starts_with("refused upload") && m.contains(why)),
                        "{why}: {err:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn reruns_are_bit_identical() {
        // Part masses are `f64` sums: summed in hash-map order, they
        // moved in the last ulp from one run to the next.
        let p = params();
        let pts = gaussian_mixture(p.grid, 5000, 3, 0.04, 11);
        let shards = split_round_robin(&pts, 1);
        let sp = StreamParams {
            faults: FaultPlan::parse("overflow-early").unwrap(),
            ..StreamParams::default()
        };
        let (first, _) = DistributedCoreset::run(&shards, &p, &sp, 5).unwrap();
        for rerun in 0..15 {
            let (again, _) = DistributedCoreset::run(&shards, &p, &sp, 5).unwrap();
            assert_eq!(first.o, again.o, "rerun {rerun}");
            assert_eq!(first.entries(), again.entries(), "rerun {rerun}");
        }
    }

    #[test]
    fn single_machine_matches_streaming() {
        // One machine + coordinator assembly ≡ a plain streaming run with
        // the same seed-derived hash functions.
        let p = params();
        let pts = gaussian_mixture(p.grid, 3000, 3, 0.04, 21);
        let shards = vec![pts.clone()];
        let (cs, _) = DistributedCoreset::run(&shards, &p, &StreamParams::default(), 17).unwrap();
        assert!(!cs.is_empty());
        // Weights are valid inverse probabilities.
        for e in cs.entries() {
            assert!(e.weight >= 1.0 - 1e-9);
        }
    }
}
