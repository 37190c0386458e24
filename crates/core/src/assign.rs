//! Assignment construction via the coreset (§3.3).
//!
//! Classic k-clustering needs no machinery here — once the centers are
//! known, each point goes to its nearest center. Under capacities the
//! assignment itself is the hard part, and a coreset user holds only
//! `Q′`, not `Q`. §3.3 shows the coreset (plus the heavy-cell partition
//! it was built from) suffices to produce a *compact rule* that assigns
//! every original point in `O(k²d)` time:
//!
//! 1. solve the fractional capacitated assignment of `(Q′, w′)` to `Z`
//!    under capacity `t′` (min-cost flow), round it integral (≤ k−1
//!    splits, `sbc-flow::rounding`);
//! 2. per coreset level `i` (where all weights are equal), re-optimize
//!    `π` at *fixed cluster sizes* by another transport solve, then apply
//!    the alphabetical tie-switching of Lemma 3.8 — making the level's
//!    assignment representable by assignment half-spaces `Hᵢ`;
//! 3. per part `P ∈ PIᵢ`, record the region masses `B^{P,i}` of the
//!    coreset points and form a [`TransferRule`];
//! 4. a fresh point `p` is assigned by: locate its part via the heavy
//!    cells, compute its region under `Hᵢ`, apply the transfer rule —
//!    or fall back to its nearest center when it lies in a dropped part.
//!
//! The result ([`AssignmentOracle`]) costs `(1+O(ε))·cost_{t′}(Q′,Z,w′)`
//! on the full data and violates `t′` by at most `(1+O(η))` — checked
//! empirically in the tests and experiment E10.

use crate::coreset::Coreset;
use crate::halfspace::{canonicalize_assignment, AssignmentHalfspaces};
use crate::params::CoresetParams;
use crate::partition::Partition;
use crate::transfer::TransferRule;
use sbc_flow::rounding::round_to_integral;
use sbc_flow::transport::{optimal_fractional_assignment, optimal_fractional_assignment_caps};
use sbc_geometry::metric::dist_r_pow;
use sbc_geometry::{GridHierarchy, Point};
use std::collections::HashMap;

/// Errors from oracle construction.
#[derive(Clone, Debug, PartialEq)]
pub enum OracleError {
    /// `t′ < total_weight/k`: no assignment can satisfy the capacity.
    Infeasible {
        /// Total coreset weight.
        total_weight: f64,
        /// The requested capacity.
        capacity: f64,
    },
    /// The coreset is empty.
    EmptyCoreset,
}

impl std::fmt::Display for OracleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleError::Infeasible { total_weight, capacity } => write!(
                f,
                "infeasible: total weight {total_weight:.1} cannot fit k centers of capacity {capacity:.1}"
            ),
            OracleError::EmptyCoreset => write!(f, "cannot build an oracle from an empty coreset"),
        }
    }
}

impl std::error::Error for OracleError {}

/// The compact §3.3 assignment rule for a fixed `(Z, t′)`.
#[derive(Debug)]
pub struct AssignmentOracle {
    /// The centers `Z` this oracle assigns to.
    pub centers: Vec<Point>,
    /// Cost exponent `r`.
    pub r: f64,
    /// Capacity `t′` the construction targeted.
    pub t_prime: f64,
    /// Cost of the (integral) coreset assignment the rule was built from.
    pub coreset_cost: f64,
    grid: GridHierarchy,
    partition: Partition,
    /// Per level `0..=L`: the extracted half-spaces (None when the level
    /// holds no coreset points).
    level_halfspaces: Vec<Option<AssignmentHalfspaces>>,
    /// Per level: part index → transfer rule.
    part_rules: Vec<HashMap<usize, TransferRule>>,
}

impl AssignmentOracle {
    /// Assigns one point; `O(k²d)` after the `O(L)` part lookup.
    pub fn assign(&self, p: &Point) -> usize {
        if let Some((level, part)) = self.partition.locate(&self.grid, p) {
            let li = level as usize;
            if let (Some(hs), Some(rule)) =
                (&self.level_halfspaces[li], self.part_rules[li].get(&part))
            {
                return rule.target(hs.region_of(p));
            }
        }
        // Dropped/small part or unlocatable: nearest center (§3.3 step 2).
        let mut best = (0usize, f64::INFINITY);
        for (j, z) in self.centers.iter().enumerate() {
            let c = dist_r_pow(p, z, self.r);
            if c < best.1 {
                best = (j, c);
            }
        }
        best.0
    }

    /// Assigns a whole point set, returning per-point centers, the total
    /// cost and per-center loads.
    pub fn assign_all(&self, points: &[Point]) -> OracleAssignment {
        sbc_obs::counter!("core.oracle.assign_calls").add(points.len() as u64);
        let mut center_of = Vec::with_capacity(points.len());
        let mut loads = vec![0.0; self.centers.len()];
        let mut cost = 0.0;
        for p in points {
            let j = self.assign(p);
            center_of.push(j);
            loads[j] += 1.0;
            cost += dist_r_pow(p, &self.centers[j], self.r);
        }
        OracleAssignment {
            center_of,
            cost,
            loads,
        }
    }
}

/// Output of [`AssignmentOracle::assign_all`].
#[derive(Clone, Debug)]
pub struct OracleAssignment {
    /// Per-point assigned center.
    pub center_of: Vec<usize>,
    /// Total `ℓr` cost of the assignment.
    pub cost: f64,
    /// Per-center point counts.
    pub loads: Vec<f64>,
}

impl OracleAssignment {
    /// Maximum center load.
    pub fn max_load(&self) -> f64 {
        self.loads.iter().copied().fold(0.0, f64::max)
    }
}

/// Builds the §3.3 oracle from a coreset.
///
/// `t_prime` must be at least `max(Σw′, |Q|)/k` (paper §3.3); pass the
/// capacity you intend to run the clustering at.
pub fn build_assignment_oracle(
    coreset: &Coreset,
    params: &CoresetParams,
    centers: &[Point],
    t_prime: f64,
) -> Result<AssignmentOracle, OracleError> {
    if coreset.is_empty() {
        return Err(OracleError::EmptyCoreset);
    }
    sbc_obs::counter!("core.oracle.builds").incr();
    let _span = sbc_obs::span!("core.oracle.build_ns");
    let k = centers.len();
    let (pts, ws) = coreset.split();
    let total_w: f64 = ws.iter().sum();
    // Step 1: fractional optimum + rounding.
    let frac = optimal_fractional_assignment(&pts, Some(&ws), centers, t_prime, params.r).ok_or(
        OracleError::Infeasible {
            total_weight: total_w,
            capacity: t_prime,
        },
    )?;
    let integral = round_to_integral(&frac, &pts, Some(&ws), centers, params.r);
    let mut assign = integral.center_of;

    let l = params.l() as usize;
    let mut level_halfspaces: Vec<Option<AssignmentHalfspaces>> = vec![None; l + 1];
    let mut part_rules: Vec<HashMap<usize, TransferRule>> = vec![HashMap::new(); l + 1];

    for level in 0..=l {
        let idxs: Vec<usize> = coreset
            .entries()
            .iter()
            .enumerate()
            .filter(|(_, e)| e.level as usize == level)
            .map(|(i, _)| i)
            .collect();
        if idxs.is_empty() {
            continue;
        }
        let level_pts: Vec<Point> = idxs.iter().map(|&i| pts[i].clone()).collect();
        let mut level_assign: Vec<usize> = idxs.iter().map(|&i| assign[i]).collect();

        // Step 2a: re-optimize at fixed cluster sizes (equal weights
        // within a level make this a unit transportation problem).
        reoptimize_fixed_sizes(&level_pts, &mut level_assign, centers, params.r);
        // Step 2b: alphabetical tie switching (Lemma 3.8).
        canonicalize_assignment(&level_pts, &mut level_assign, centers, params.r);
        // Write the per-level assignment back (the oracle's reported cost
        // reflects exactly what the half-spaces encode).
        for (t, &i) in idxs.iter().enumerate() {
            assign[i] = level_assign[t];
        }

        let hs =
            AssignmentHalfspaces::from_assignment(&level_pts, &level_assign, centers, params.r);

        // Step 3: per-part region masses.
        let mut masses: HashMap<usize, Vec<f64>> = HashMap::new();
        for (t, &i) in idxs.iter().enumerate() {
            let e = &coreset.entries()[i];
            let b = masses.entry(e.part).or_insert_with(|| vec![0.0; k + 1]);
            match hs.region_of(&level_pts[t]) {
                None => b[0] += e.weight,
                Some(c) => b[c + 1] += e.weight,
            }
        }
        let t_scale = 0.5 * params.gamma() * params.t_threshold(level as i32, coreset.o);
        for (part, b) in masses {
            part_rules[level].insert(part, TransferRule::new(b, params.xi(), t_scale));
        }
        level_halfspaces[level] = Some(hs);
    }

    // Final coreset cost under the (possibly switched) assignment.
    let coreset_cost: f64 = pts
        .iter()
        .zip(&ws)
        .zip(&assign)
        .map(|((p, w), &c)| w * dist_r_pow(p, &centers[c], params.r))
        .sum();

    let grid = GridHierarchy::with_shift(params.grid, coreset.shift.clone());
    Ok(AssignmentOracle {
        centers: centers.to_vec(),
        r: params.r,
        t_prime,
        coreset_cost,
        grid,
        partition: coreset.partition.clone(),
        level_halfspaces,
        part_rules,
    })
}

/// Minimum-cost reassignment with *fixed cluster sizes* (paper §3.3
/// step 1b): unit supplies, center `j` receives exactly its current
/// count. Because total supply equals total capacity, the optimal
/// transport fills every center, preserving `s(π)` while minimizing
/// cost; with integral data its shares are whole, so each point lands
/// at exactly one center.
///
/// Public because size-optimal assignments are exactly the class
/// Lemma 3.8 proves half-space-separable: run this, then
/// [`canonicalize_assignment`], before extracting half-spaces from an
/// assignment that came out of rounding (whose nearest-center snap can
/// leave it slightly off-optimal for its own size vector).
pub fn reoptimize_fixed_sizes(points: &[Point], assign: &mut [usize], centers: &[Point], r: f64) {
    let mut sizes = vec![0.0f64; centers.len()];
    for &a in assign.iter() {
        sizes[a] += 1.0;
    }
    let frac = optimal_fractional_assignment_caps(points, None, centers, &sizes, r)
        .expect("the current sizes sum to the point count, so they fit");
    for (a, shares) in assign.iter_mut().zip(&frac.shares) {
        // Unit supplies: exactly one center carries the point.
        if let Some(&(j, _)) = shares.iter().max_by(|x, y| x.1.total_cmp(&y.1)) {
            *a = j;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coreset::build_coreset;
    use crate::params::CoresetParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sbc_clustering::capacitated::capacitated_lloyd_raw;
    use sbc_geometry::dataset::{gaussian_mixture, imbalanced_mixture};
    use sbc_geometry::GridParams;

    fn setup(
        n: usize,
        k: usize,
        seed: u64,
    ) -> (CoresetParams, Vec<Point>, Coreset, Vec<Point>, f64) {
        let gp = GridParams::from_log_delta(8, 2);
        let params = CoresetParams::builder(k, gp).build().unwrap();
        let pts = gaussian_mixture(gp, n, k, 0.04, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABC);
        let coreset = build_coreset(&pts, &params, &mut rng).expect("coreset");
        let cap = n as f64 / k as f64 * 1.3;
        let (cpts, cws) = coreset.split();
        let sol = capacitated_lloyd_raw(&cpts, Some(&cws), k, 2.0, cap, 8, &mut rng);
        (params, pts, coreset, sol.centers, cap)
    }

    #[test]
    fn oracle_assigns_every_point_to_a_valid_center() {
        let (params, pts, coreset, centers, cap) = setup(1500, 3, 1);
        let oracle = build_assignment_oracle(&coreset, &params, &centers, cap).unwrap();
        let oa = oracle.assign_all(&pts);
        assert_eq!(oa.center_of.len(), pts.len());
        assert!(oa.center_of.iter().all(|&c| c < 3));
        assert_eq!(oa.loads.iter().sum::<f64>() as usize, pts.len());
    }

    #[test]
    fn oracle_cost_near_full_data_optimum() {
        let (params, pts, coreset, centers, cap) = setup(1200, 3, 2);
        let oracle = build_assignment_oracle(&coreset, &params, &centers, cap).unwrap();
        let oa = oracle.assign_all(&pts);
        // Full-data fractional optimum at the oracle's *violated*
        // capacity is a lower bound; the oracle should be within a
        // moderate factor (paper: (1+O(ε)) with exact region masses).
        let lower =
            optimal_fractional_assignment(&pts, None, &centers, oa.max_load().max(cap), 2.0)
                .expect("feasible")
                .cost;
        assert!(
            oa.cost <= 1.8 * lower + 1e-9,
            "oracle cost {} vs optimum {lower}",
            oa.cost
        );
    }

    #[test]
    fn oracle_respects_capacity_with_slack() {
        let (params, pts, coreset, centers, cap) = setup(1500, 3, 3);
        let oracle = build_assignment_oracle(&coreset, &params, &centers, cap).unwrap();
        let oa = oracle.assign_all(&pts);
        // (1 + O(η)) violation: allow 35% here (η = 0.2 plus sampling noise).
        assert!(
            oa.max_load() <= 1.35 * cap,
            "load {} vs cap {cap}",
            oa.max_load()
        );
    }

    #[test]
    fn oracle_handles_imbalanced_instances() {
        let gp = GridParams::from_log_delta(8, 2);
        let params = CoresetParams::builder(3, gp).build().unwrap();
        let pts = imbalanced_mixture(gp, 1500, &[0.8, 0.1, 0.1], 0.03, 4);
        let mut rng = StdRng::seed_from_u64(9);
        let coreset = build_coreset(&pts, &params, &mut rng).expect("coreset");
        let cap = 1500.0 / 3.0 * 1.25;
        let (cpts, cws) = coreset.split();
        let sol = capacitated_lloyd_raw(&cpts, Some(&cws), 3, 2.0, cap, 8, &mut rng);
        let oracle = build_assignment_oracle(&coreset, &params, &sol.centers, cap).unwrap();
        let oa = oracle.assign_all(&pts);
        // The binding constraint must actually rebalance: no center may
        // hold the naive ~80% share.
        assert!(
            oa.max_load() <= 1.4 * cap,
            "load {} vs cap {cap}: capacity not enforced",
            oa.max_load()
        );
    }

    #[test]
    fn infeasible_capacity_is_reported() {
        let (params, _pts, coreset, centers, _cap) = setup(800, 2, 5);
        let err = build_assignment_oracle(&coreset, &params, &centers, 1.0).unwrap_err();
        assert!(matches!(err, OracleError::Infeasible { .. }));
    }

    #[test]
    fn reoptimize_fixed_sizes_preserves_sizes_and_lowers_cost() {
        let pts: Vec<Point> = (1..=10u32).map(|x| Point::new(vec![x, 1])).collect();
        let centers = vec![Point::new(vec![2, 1]), Point::new(vec![9, 1])];
        // Bad crossed assignment: far points to near centers.
        let mut assign = vec![1, 1, 1, 1, 1, 0, 0, 0, 0, 0];
        let before: f64 = pts
            .iter()
            .zip(&assign)
            .map(|(p, &c)| dist_r_pow(p, &centers[c], 2.0))
            .sum();
        reoptimize_fixed_sizes(&pts, &mut assign, &centers, 2.0);
        let after: f64 = pts
            .iter()
            .zip(&assign)
            .map(|(p, &c)| dist_r_pow(p, &centers[c], 2.0))
            .sum();
        assert!(after < before, "re-optimization must help here");
        assert_eq!(assign.iter().filter(|&&c| c == 0).count(), 5, "sizes fixed");
    }
}
