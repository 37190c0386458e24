//! The points×centers transportation problem behind `cost_t^{(r)}`.
//!
//! Given weighted points, centers `Z` and a per-center capacity `t`, the
//! optimal *fractional* capacitated assignment minimizes
//! `Σ w(p)·dist^r(p, π(p))` subject to every center receiving at most `t`
//! total weight. The paper evaluates `cost_t^{(r)}(Q, Z, w)` through
//! exactly this relaxation (§3.3: "the optimal assignment for the relaxed
//! problem can be solved by the minimum-cost flow"); integral rounding is
//! in [`crate::rounding`].
//!
//! The flow is computed by successive shortest paths on the k-center
//! exchange graph (see `ExchangeGraph`): `O((n + A)·k² log n)` for `A`
//! augmentations, against `O(A·nk log nk)` for Dijkstra over the full
//! `(n+k+2)`-node network. The work is counted in
//! `flow.transport.augmentations` beside `flow.transport.solves`.

use crate::mcmf::EPS;
use sbc_geometry::metric::dist_r_pow;
use sbc_geometry::Point;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A fractional assignment: per point, the centers it is split across
/// with the (positive) weight routed to each.
#[derive(Clone, Debug)]
pub struct FractionalAssignment {
    /// `shares[i]` = list of `(center_index, weight)` for point `i`.
    pub shares: Vec<Vec<(usize, f64)>>,
    /// Total transportation cost `Σ share · dist^r`.
    pub cost: f64,
    /// Total weight routed to each center.
    pub loads: Vec<f64>,
}

impl FractionalAssignment {
    /// Number of points whose weight is split across ≥ 2 centers.
    pub fn num_split_points(&self) -> usize {
        self.shares.iter().filter(|s| s.len() >= 2).count()
    }

    /// Maximum center load.
    pub fn max_load(&self) -> f64 {
        self.loads.iter().copied().fold(0.0, f64::max)
    }
}

/// Solves the transportation problem for `points` (with optional weights,
/// default 1) against `centers` under uniform per-center capacity `cap`,
/// with the `ℓr` cost exponent `r`.
///
/// Returns `None` when the instance is infeasible
/// (`Σ w(p) > k·cap + ε`), matching the paper's convention
/// `cost_t^{(r)} = ∞` (§2).
pub fn optimal_fractional_assignment(
    points: &[Point],
    weights: Option<&[f64]>,
    centers: &[Point],
    cap: f64,
    r: f64,
) -> Option<FractionalAssignment> {
    let caps = vec![cap; centers.len()];
    optimal_fractional_assignment_caps(points, weights, centers, &caps, r)
}

/// Generalization to **non-uniform per-center capacities** — an extension
/// beyond the paper's uniform `t` (useful for heterogeneous shards /
/// machine sizes; the flow formulation is unchanged).
///
/// Zero-weight points are left unrouted (empty share lists); a negative
/// weight panics.
pub fn optimal_fractional_assignment_caps(
    points: &[Point],
    weights: Option<&[f64]>,
    centers: &[Point],
    caps: &[f64],
    r: f64,
) -> Option<FractionalAssignment> {
    let n = points.len();
    let k = centers.len();
    assert!(k >= 1, "need at least one center");
    assert_eq!(caps.len(), k, "one capacity per center");
    assert!(caps.iter().all(|&c| c >= 0.0));
    sbc_obs::counter!("flow.transport.solves").incr();
    let _span = sbc_obs::span!("flow.transport.solve_ns");
    let _mem = sbc_obs::alloc::scope(sbc_obs::alloc::Component::Flow);
    if let Some(w) = weights {
        assert_eq!(w.len(), n);
        assert!(w.iter().all(|&x| x >= 0.0), "negative point weight");
    }
    let total_weight: f64 = match weights {
        Some(w) => w.iter().sum(),
        None => n as f64,
    };
    // Feasibility: total weight must fit in Σ caps (with fp slack).
    let cap_total: f64 = caps.iter().sum();
    if total_weight > cap_total * (1.0 + 1e-12) + EPS {
        sbc_obs::counter!("flow.transport.infeasible").incr();
        return None;
    }
    if n == 0 {
        return Some(FractionalAssignment {
            shares: Vec::new(),
            cost: 0.0,
            loads: vec![0.0; k],
        });
    }

    let mut g = ExchangeGraph::new(points, weights, centers, caps, r);
    let augmentations = g.route_all();
    sbc_obs::counter!("flow.transport.augmentations").add(augmentations);
    let unrouted: f64 = g.rem.iter().sum();
    if unrouted > 1e-6 * total_weight.max(1.0) {
        // Should not happen when the feasibility check passed, but guard
        // against accumulated fp error in extreme instances.
        return None;
    }
    Some(g.into_assignment())
}

/// No predecessor center: the path enters its first center from the
/// source through an unrouted point.
const SOURCE: usize = usize::MAX;

/// Successive shortest paths on the k-center exchange graph.
///
/// The transportation network `source → points → centers → sink` is
/// never built. A path leaves the source through a point `i` with
/// unrouted weight into some center `j` (cost `c(i,j)`), then moves
/// through *exchange arcs* `j → j′` (re-route some point's mass from `j`
/// to `j′`, cost `c(i,j′) − c(i,j)`), and ends at a center with room. So
/// a shortest path is a Dijkstra pass over the k centers only, with
///
/// * the cheapest entry into `j` read off `by_cost[j]` past a cursor
///   that skips fully routed points (a point's unrouted weight never
///   grows: no shortest path re-enters the source), and
/// * the cheapest exchange arc `j → j′` at the top of a lazy-deletion
///   heap over the points with flow on `j`.
///
/// Each augmentation pushes the path's bottleneck, which routes a point
/// fully, fills a center, or empties a point's share at a center. Ties
/// go to the lowest center index, then the lowest point index.
struct ExchangeGraph {
    k: usize,
    /// `cost[i * k + j]` = `dist^r(point i, center j)`.
    cost: Vec<f64>,
    /// `flow[i * k + j]` = weight of point `i` routed to center `j`.
    flow: Vec<f64>,
    /// Unrouted weight per point.
    rem: Vec<f64>,
    /// Residual capacity per center.
    room: Vec<f64>,
    /// Per center, the point indices by ascending `(cost, index)`.
    by_cost: Vec<Vec<u32>>,
    /// Per center, the first `by_cost` position not known to be routed.
    cursor: Vec<usize>,
    /// `exchange[j * k + j′]`: points that had flow on `j` when pushed,
    /// keyed by `c(i,j′) − c(i,j)`; entries whose share at `j` has since
    /// emptied are dropped when they reach the top.
    exchange: Vec<BinaryHeap<ExchangeArc>>,
    /// Johnson potentials: each center's shortest-path distance in the
    /// previous pass, so reduced arc costs stay non-negative.
    potential: Vec<f64>,
}

/// An exchange-heap entry; the heap's top is the lowest `(delta, point)`.
struct ExchangeArc {
    delta: f64,
    point: u32,
}

impl PartialEq for ExchangeArc {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for ExchangeArc {}
impl PartialOrd for ExchangeArc {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ExchangeArc {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap.
        other
            .delta
            .total_cmp(&self.delta)
            .then(other.point.cmp(&self.point))
    }
}

impl ExchangeGraph {
    fn new(
        points: &[Point],
        weights: Option<&[f64]>,
        centers: &[Point],
        caps: &[f64],
        r: f64,
    ) -> Self {
        let (n, k) = (points.len(), centers.len());
        let cost: Vec<f64> = points
            .iter()
            .flat_map(|p| centers.iter().map(move |z| dist_r_pow(p, z, r)))
            .collect();
        let by_cost = (0..k)
            .map(|j| {
                let mut order: Vec<u32> = (0..n as u32).collect();
                order.sort_by(|&a, &b| {
                    cost[a as usize * k + j]
                        .total_cmp(&cost[b as usize * k + j])
                        .then(a.cmp(&b))
                });
                order
            })
            .collect();
        Self {
            k,
            flow: vec![0.0; n * k],
            rem: weights.map_or_else(|| vec![1.0; n], <[f64]>::to_vec),
            room: caps.to_vec(),
            cost,
            by_cost,
            cursor: vec![0; k],
            exchange: (0..k * k).map(|_| BinaryHeap::new()).collect(),
            potential: vec![0.0; k],
        }
    }

    /// Augments until every point is routed or no center has room;
    /// returns the number of augmentations.
    fn route_all(&mut self) -> u64 {
        let k = self.k;
        let mut dist = vec![0.0f64; k];
        // Per center: (predecessor center or SOURCE, point on the arc).
        let mut pred = vec![(SOURCE, 0u32); k];
        let mut settled = vec![false; k];
        let mut augmentations = 0u64;
        loop {
            // Entry arcs; every center has one while any point is unrouted.
            for j in 0..k {
                let Some(i) = self.cheapest_unrouted(j) else {
                    return augmentations;
                };
                dist[j] = (self.cost[i as usize * k + j] - self.potential[j]).max(0.0);
                pred[j] = (SOURCE, i);
            }
            // Dense Dijkstra over the centers on reduced costs.
            settled.fill(false);
            for _ in 0..k {
                let mut u = SOURCE;
                for j in 0..k {
                    if !settled[j] && (u == SOURCE || dist[j] < dist[u]) {
                        u = j;
                    }
                }
                settled[u] = true;
                for v in 0..k {
                    if settled[v] {
                        continue;
                    }
                    if let Some((delta, i)) = self.cheapest_exchange(u, v) {
                        let rc = (delta + self.potential[u] - self.potential[v]).max(0.0);
                        if dist[u] + rc < dist[v] {
                            dist[v] = dist[u] + rc;
                            pred[v] = (u, i);
                        }
                    }
                }
            }
            for (p, d) in self.potential.iter_mut().zip(&dist) {
                *p += d;
            }
            // The path ends at the nearest center with room.
            let Some(t) = (0..k)
                .filter(|&j| self.room[j] > EPS)
                .min_by(|&a, &b| self.potential[a].total_cmp(&self.potential[b]))
            else {
                return augmentations;
            };
            self.augment(t, &pred);
            augmentations += 1;
        }
    }

    /// The cheapest point with unrouted weight, by its cost to `j`.
    fn cheapest_unrouted(&mut self, j: usize) -> Option<u32> {
        let order = &self.by_cost[j];
        let c = &mut self.cursor[j];
        while *c < order.len() && self.rem[order[*c] as usize] <= EPS {
            *c += 1;
        }
        order.get(*c).copied()
    }

    /// The cheapest exchange arc `u → v` as `(delta, point)`.
    fn cheapest_exchange(&mut self, u: usize, v: usize) -> Option<(f64, u32)> {
        let heap = &mut self.exchange[u * self.k + v];
        while let Some(top) = heap.peek() {
            if self.flow[top.point as usize * self.k + u] > EPS {
                return Some((top.delta, top.point));
            }
            heap.pop();
        }
        None
    }

    /// Pushes the bottleneck along the path that `pred` traces back from
    /// center `t`.
    fn augment(&mut self, t: usize, pred: &[(usize, u32)]) {
        let k = self.k;
        let mut amount = self.room[t];
        let mut v = t;
        loop {
            let (u, i) = pred[v];
            if u == SOURCE {
                amount = amount.min(self.rem[i as usize]);
                break;
            }
            amount = amount.min(self.flow[i as usize * k + u]);
            v = u;
        }
        self.room[t] -= amount;
        let mut v = t;
        loop {
            let (u, i) = pred[v];
            self.add_flow(i as usize, v, amount);
            if u == SOURCE {
                self.rem[i as usize] -= amount;
                break;
            }
            self.flow[i as usize * k + u] -= amount;
            v = u;
        }
    }

    /// Routes `amount` more of point `i` to center `j`, opening its
    /// exchange arcs out of `j` when its share there was empty.
    fn add_flow(&mut self, i: usize, j: usize, amount: f64) {
        let k = self.k;
        let f = &mut self.flow[i * k + j];
        let opened = *f <= EPS;
        *f += amount;
        if opened {
            let c_ij = self.cost[i * k + j];
            for jp in (0..k).filter(|&jp| jp != j) {
                self.exchange[j * k + jp].push(ExchangeArc {
                    delta: self.cost[i * k + jp] - c_ij,
                    point: i as u32,
                });
            }
        }
    }

    fn into_assignment(self) -> FractionalAssignment {
        let k = self.k;
        let mut loads = vec![0.0f64; k];
        let mut cost = 0.0;
        let shares = self
            .flow
            .chunks_exact(k)
            .zip(self.cost.chunks_exact(k))
            .map(|(fs, cs)| {
                let mut s = Vec::new();
                for (j, (&f, &c)) in fs.iter().zip(cs).enumerate() {
                    if f > EPS {
                        s.push((j, f));
                        loads[j] += f;
                        cost += f * c;
                    }
                }
                s
            })
            .collect();
        FractionalAssignment {
            shares,
            cost,
            loads,
        }
    }
}

/// Convenience: the optimal fractional capacitated cost, or `f64::INFINITY`
/// when infeasible — the paper's `cost_t^{(r)}(Q, Z, w)`.
pub fn capacitated_cost_value(
    points: &[Point],
    weights: Option<&[f64]>,
    centers: &[Point],
    cap: f64,
    r: f64,
) -> f64 {
    optimal_fractional_assignment(points, weights, centers, cap, r)
        .map_or(f64::INFINITY, |a| a.cost)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(cs: &[u32]) -> Point {
        Point::new(cs.to_vec())
    }

    #[test]
    fn uncapacitated_limit_assigns_nearest() {
        let points = vec![p(&[1, 1]), p(&[10, 10]), p(&[2, 1])];
        let centers = vec![p(&[1, 1]), p(&[10, 10])];
        let a = optimal_fractional_assignment(&points, None, &centers, 100.0, 2.0).unwrap();
        assert_eq!(a.shares[0], vec![(0, 1.0)]);
        assert_eq!(a.shares[1], vec![(1, 1.0)]);
        assert_eq!(a.shares[2][0].0, 0);
        assert!((a.cost - 1.0).abs() < 1e-9);
    }

    #[test]
    fn capacity_forces_rebalancing() {
        // Three points near center 0, capacity 2 ⇒ one must go to center 1.
        let points = vec![p(&[1, 1]), p(&[2, 1]), p(&[3, 1])];
        let centers = vec![p(&[2, 1]), p(&[30, 1])];
        let a = optimal_fractional_assignment(&points, None, &centers, 2.0, 1.0).unwrap();
        assert!(a.max_load() <= 2.0 + 1e-9);
        // The farthest-from-center-1 points stay with center 0; the point
        // cheapest to move (here any, cost difference decides: moving the
        // point at x=3 costs 27 vs its local 1) — optimum moves exactly one.
        let moved: f64 = a.loads[1];
        assert!((moved - 1.0).abs() < 1e-9);
        // Optimal choice moves the point with the least cost increase:
        // deltas are |1−2|→29, |2−2|→28, |3−2|→27 ⇒ point at x=3 moves.
        assert_eq!(a.shares[2][0].0, 1);
    }

    #[test]
    fn infeasible_returns_none() {
        let points = vec![p(&[1]), p(&[2]), p(&[3])];
        let centers = vec![p(&[1])];
        assert!(optimal_fractional_assignment(&points, None, &centers, 2.0, 2.0).is_none());
        assert_eq!(
            capacitated_cost_value(&points, None, &centers, 2.0, 2.0),
            f64::INFINITY
        );
    }

    #[test]
    fn weighted_points_split_fractionally() {
        // One point of weight 3, two centers of capacity 2 ⇒ split 2 + 1.
        let points = vec![p(&[5])];
        let centers = vec![p(&[4]), p(&[7])];
        let a = optimal_fractional_assignment(&points, Some(&[3.0]), &centers, 2.0, 2.0).unwrap();
        assert_eq!(a.shares[0].len(), 2);
        assert_eq!(a.num_split_points(), 1);
        let to0 = a.shares[0].iter().find(|(j, _)| *j == 0).unwrap().1;
        let to1 = a.shares[0].iter().find(|(j, _)| *j == 1).unwrap().1;
        assert!(
            (to0 - 2.0).abs() < 1e-9,
            "cheaper center gets its full capacity"
        );
        assert!((to1 - 1.0).abs() < 1e-9);
        assert!((a.cost - (2.0 * 1.0 + 1.0 * 4.0)).abs() < 1e-9);
    }

    #[test]
    fn cost_monotone_in_capacity() {
        let points = vec![p(&[1, 1]), p(&[1, 2]), p(&[8, 8]), p(&[2, 2])];
        let centers = vec![p(&[1, 1]), p(&[8, 8])];
        let tight = capacitated_cost_value(&points, None, &centers, 2.0, 2.0);
        let loose = capacitated_cost_value(&points, None, &centers, 3.0, 2.0);
        let free = capacitated_cost_value(&points, None, &centers, 100.0, 2.0);
        assert!(tight >= loose - 1e-9);
        assert!(loose >= free - 1e-9);
    }

    #[test]
    fn non_uniform_capacities_respected() {
        // Extension beyond the paper: per-center capacities. Center 0 can
        // take only 1 unit, so two of the three nearby points must move.
        let points = vec![p(&[1]), p(&[2]), p(&[3])];
        let centers = vec![p(&[2]), p(&[20])];
        let a =
            super::optimal_fractional_assignment_caps(&points, None, &centers, &[1.0, 2.0], 2.0)
                .unwrap();
        assert!(a.loads[0] <= 1.0 + 1e-9);
        assert!((a.loads[1] - 2.0).abs() < 1e-9);
        // And infeasible when Σ caps < n.
        assert!(super::optimal_fractional_assignment_caps(
            &points,
            None,
            &centers,
            &[1.0, 1.5],
            2.0
        )
        .is_none());
    }

    #[test]
    fn empty_point_set() {
        let centers = vec![p(&[1])];
        let a = optimal_fractional_assignment(&[], None, &centers, 1.0, 2.0).unwrap();
        assert_eq!(a.cost, 0.0);
        assert!(a.shares.is_empty());
    }
}
