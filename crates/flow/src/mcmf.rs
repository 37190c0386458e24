//! Min-cost max-flow by successive shortest paths with Johnson potentials.
//!
//! Capacities and costs are `f64` with a small comparison tolerance
//! ([`EPS`]); the instances built by this workspace (transportation
//! graphs with distance costs) are well-conditioned for this. Costs must
//! be non-negative (true for distances), so potentials initialize to zero
//! and every Dijkstra pass runs on non-negative reduced costs.
//!
//! On bipartite transportation instances (`source → points → centers →
//! sink`) a shortest augmenting path never traverses a reverse
//! source/sink arc (the source has no in-arcs and the sink no out-arcs),
//! so each augmentation saturates a source arc (a point fully routed) or
//! a sink arc (a center filled), *or* empties a point's share at a center
//! (a reverse point→center arc on the path). Shares can refill, so the
//! count is not bounded by `n + k`. [`crate::transport`] solves these
//! instances on the k-center exchange graph instead; this solver stays
//! as the general one and as the reference tests compare against
//! ([`transportation_reference`]).

use sbc_geometry::metric::dist_r_pow;
use sbc_geometry::Point;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Comparison tolerance for capacities/flows.
pub const EPS: f64 = 1e-9;

/// Handle to an edge added via [`MinCostFlow::add_edge`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeId(usize);

/// Min-cost max-flow solver over a directed graph with `f64` capacities
/// and non-negative `f64` costs.
#[derive(Clone, Debug)]
pub struct MinCostFlow {
    /// `adj[u]` lists indices into the flat edge arrays.
    adj: Vec<Vec<u32>>,
    to: Vec<u32>,
    cap: Vec<f64>,
    cost: Vec<f64>,
}

/// Max-heap entry for Dijkstra (reversed ordering on distance).
struct HeapEntry {
    dist: f64,
    node: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: smallest distance first out of the BinaryHeap.
        other.dist.total_cmp(&self.dist)
    }
}

/// Result of a [`MinCostFlow::min_cost_flow`] run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlowResult {
    /// Total flow routed from source to sink.
    pub flow: f64,
    /// Total cost of that flow.
    pub cost: f64,
}

impl MinCostFlow {
    /// Creates a solver over `n` nodes (ids `0..n`).
    pub fn new(n: usize) -> Self {
        Self {
            adj: vec![Vec::new(); n],
            to: Vec::new(),
            cap: Vec::new(),
            cost: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Adds a directed edge `u → v` with the given capacity and
    /// (non-negative) cost; the reverse residual edge is added
    /// automatically.
    pub fn add_edge(&mut self, u: usize, v: usize, cap: f64, cost: f64) -> EdgeId {
        assert!(u < self.adj.len() && v < self.adj.len());
        assert!(cap >= 0.0, "negative capacity");
        assert!(
            cost >= -EPS,
            "SSP with zero potentials needs non-negative costs"
        );
        let id = self.to.len();
        self.adj[u].push(id as u32);
        self.to.push(v as u32);
        self.cap.push(cap);
        self.cost.push(cost);
        self.adj[v].push((id + 1) as u32);
        self.to.push(u as u32);
        self.cap.push(0.0);
        self.cost.push(-cost);
        EdgeId(id)
    }

    /// Flow currently routed through edge `e` (the reverse edge's residual
    /// capacity).
    pub fn flow_on(&self, e: EdgeId) -> f64 {
        self.cap[e.0 ^ 1]
    }

    /// Remaining capacity of edge `e`.
    pub fn residual(&self, e: EdgeId) -> f64 {
        self.cap[e.0]
    }

    /// Sends up to `max_flow` units from `s` to `t` along successive
    /// shortest (cheapest) paths; returns the flow actually routed and its
    /// cost. Pass `f64::INFINITY` to compute a min-cost *max* flow.
    pub fn min_cost_flow(&mut self, s: usize, t: usize, max_flow: f64) -> FlowResult {
        assert!(s < self.adj.len() && t < self.adj.len() && s != t);
        sbc_obs::counter!("flow.mcmf.solves").incr();
        let _span = sbc_obs::span!("flow.mcmf.solve_ns");
        let _mem = sbc_obs::alloc::scope(sbc_obs::alloc::Component::Flow);
        let _trace_span = sbc_obs::trace::span(
            "flow.mcmf.solve",
            sbc_obs::trace::CausalIds::NONE,
            self.adj.len() as u64,
        );
        let n = self.adj.len();
        let mut potential = vec![0.0f64; n];
        let mut dist = vec![f64::INFINITY; n];
        let mut prev_edge: Vec<u32> = vec![u32::MAX; n];
        let mut total_flow = 0.0;
        let mut total_cost = 0.0;
        // Work counters, flushed once after the loop; plain locals so the
        // hot path costs nothing when instrumentation is compiled out.
        let mut augmentations = 0u64;
        let mut heap_pops = 0u64;
        let mut relaxations = 0u64;

        while total_flow + EPS < max_flow {
            // Dijkstra on reduced costs.
            dist.iter_mut().for_each(|d| *d = f64::INFINITY);
            dist[s] = 0.0;
            let mut heap = BinaryHeap::new();
            heap.push(HeapEntry {
                dist: 0.0,
                node: s as u32,
            });
            while let Some(HeapEntry { dist: du, node: u }) = heap.pop() {
                heap_pops += 1;
                let u = u as usize;
                if du > dist[u] + EPS {
                    continue;
                }
                for &eid in &self.adj[u] {
                    let e = eid as usize;
                    if self.cap[e] <= EPS {
                        continue;
                    }
                    let v = self.to[e] as usize;
                    let rc = self.cost[e] + potential[u] - potential[v];
                    debug_assert!(rc > -1e-6, "negative reduced cost {rc}");
                    let nd = dist[u] + rc.max(0.0);
                    if nd + EPS < dist[v] {
                        relaxations += 1;
                        dist[v] = nd;
                        prev_edge[v] = eid;
                        heap.push(HeapEntry {
                            dist: nd,
                            node: v as u32,
                        });
                    }
                }
            }
            if !dist[t].is_finite() {
                break; // sink unreachable: max flow reached
            }
            for (v, d) in dist.iter().enumerate() {
                if d.is_finite() {
                    potential[v] += d;
                }
            }
            // Bottleneck along the path.
            let mut bottleneck = max_flow - total_flow;
            let mut v = t;
            while v != s {
                let e = prev_edge[v] as usize;
                bottleneck = bottleneck.min(self.cap[e]);
                v = self.to[e ^ 1] as usize;
            }
            if bottleneck <= EPS {
                break;
            }
            // Apply.
            let mut v = t;
            while v != s {
                let e = prev_edge[v] as usize;
                self.cap[e] -= bottleneck;
                self.cap[e ^ 1] += bottleneck;
                total_cost += bottleneck * self.cost[e];
                v = self.to[e ^ 1] as usize;
            }
            total_flow += bottleneck;
            augmentations += 1;
            // One instant per augmentation round; `arg` numbers the round
            // so a stalled solve shows exactly where progress stopped.
            sbc_obs::trace::instant(
                "flow.mcmf.augment",
                sbc_obs::trace::CausalIds::NONE,
                augmentations,
            );
        }
        sbc_obs::counter!("flow.mcmf.augmentations").add(augmentations);
        sbc_obs::counter!("flow.mcmf.heap_pops").add(heap_pops);
        sbc_obs::counter!("flow.mcmf.relaxations").add(relaxations);
        FlowResult {
            flow: total_flow,
            cost: total_cost,
        }
    }
}

/// Min-cost flow on the full `source → points → centers → sink`
/// transportation network: point `i` supplies `weights[i]`, center `j`
/// takes at most `caps[j]`, arc `i → j` costs `dist^r`. The reference
/// that [`crate::transport`]'s exchange-graph solver is tested and
/// benchmarked against; asks for the whole supply.
pub fn transportation_reference(
    points: &[Point],
    weights: &[f64],
    centers: &[Point],
    caps: &[f64],
    r: f64,
) -> FlowResult {
    let (n, k) = (points.len(), centers.len());
    let (source, sink) = (0, n + k + 1);
    let mut g = MinCostFlow::new(n + k + 2);
    for (i, p) in points.iter().enumerate() {
        g.add_edge(source, 1 + i, weights[i], 0.0);
        for (j, z) in centers.iter().enumerate() {
            g.add_edge(1 + i, 1 + n + j, weights[i], dist_r_pow(p, z, r));
        }
    }
    for (j, &c) in caps.iter().enumerate() {
        g.add_edge(1 + n + j, sink, c, 0.0);
    }
    g.min_cost_flow(source, sink, weights.iter().sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_edge() {
        let mut g = MinCostFlow::new(2);
        let e = g.add_edge(0, 1, 5.0, 2.0);
        let r = g.min_cost_flow(0, 1, f64::INFINITY);
        assert!((r.flow - 5.0).abs() < EPS);
        assert!((r.cost - 10.0).abs() < EPS);
        assert!((g.flow_on(e) - 5.0).abs() < EPS);
    }

    #[test]
    fn prefers_cheap_path() {
        // 0→1→3 cost 1+1, 0→2→3 cost 5+5; capacity 1 each path; need 2 units.
        let mut g = MinCostFlow::new(4);
        g.add_edge(0, 1, 1.0, 1.0);
        g.add_edge(1, 3, 1.0, 1.0);
        g.add_edge(0, 2, 1.0, 5.0);
        g.add_edge(2, 3, 1.0, 5.0);
        let r = g.min_cost_flow(0, 3, 2.0);
        assert!((r.flow - 2.0).abs() < EPS);
        assert!((r.cost - 12.0).abs() < EPS);
    }

    #[test]
    fn respects_flow_limit() {
        let mut g = MinCostFlow::new(2);
        g.add_edge(0, 1, 10.0, 1.0);
        let r = g.min_cost_flow(0, 1, 3.0);
        assert!((r.flow - 3.0).abs() < EPS);
        assert!((r.cost - 3.0).abs() < EPS);
    }

    #[test]
    fn uses_residual_edges_for_optimality() {
        // Classic rerouting instance: the cheap first path must be partly
        // undone to achieve the optimal flow of 2.
        //     0→1 (1, 1)   0→2 (1, 2)
        //     1→2 (1, 0)   1→3 (1, 3)
        //     2→3 (1, 1)
        // Max flow 2: optimum routes 0→1→2→3 (cost 2) + 0→2? cap... and
        // 0→2→3 is blocked once 2→3 is full, so second unit uses 0→1→3? —
        // check: paths {0→1→2→3, 0→2 ... 2→3 full} ⇒ flow 2 needs
        // {0→1→3, 0→2→3}: cost (1+3)+(2+1) = 7; or {0→1→2→3, 0→2→?}: only
        // 2→3. SSP finds cost-7 overall optimum.
        let mut g = MinCostFlow::new(4);
        g.add_edge(0, 1, 1.0, 1.0);
        g.add_edge(0, 2, 1.0, 2.0);
        g.add_edge(1, 2, 1.0, 0.0);
        g.add_edge(1, 3, 1.0, 3.0);
        g.add_edge(2, 3, 1.0, 1.0);
        let r = g.min_cost_flow(0, 3, f64::INFINITY);
        assert!((r.flow - 2.0).abs() < EPS);
        assert!((r.cost - 7.0).abs() < EPS, "cost {}", r.cost);
    }

    #[test]
    fn disconnected_sink_gives_zero_flow() {
        let mut g = MinCostFlow::new(3);
        g.add_edge(0, 1, 1.0, 1.0);
        let r = g.min_cost_flow(0, 2, f64::INFINITY);
        assert_eq!(r.flow, 0.0);
        assert_eq!(r.cost, 0.0);
    }

    #[test]
    fn fractional_capacities_supported() {
        let mut g = MinCostFlow::new(3);
        g.add_edge(0, 1, 0.5, 1.0);
        g.add_edge(0, 1, 0.25, 2.0);
        g.add_edge(1, 2, 1.0, 0.0);
        let r = g.min_cost_flow(0, 2, f64::INFINITY);
        assert!((r.flow - 0.75).abs() < 1e-9);
        assert!((r.cost - 1.0).abs() < 1e-9);
    }
}
