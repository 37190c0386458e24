//! Independent optimality certification for capacitated assignments
//! (LP duality / exchange-graph argument).
//!
//! A fractional assignment with every point fully routed is optimal for
//! the transportation LP iff its **exchange graph** admits no improving
//! move: nodes are centers, and the arc `j → j'` carries the cheapest
//! per-unit cost of re-routing some point's mass from `j` to `j'`,
//! `w(j→j') = min { c(i,j') − c(i,j) : x_{ij} > 0 }`. Feasibility-
//! preserving improvements are exactly
//!
//! * **negative cycles** (loads unchanged), and
//! * **negative paths ending at a center with residual capacity**
//!   (the terminal center absorbs the shifted mass).
//!
//! This check is *independent* of the successive-shortest-path solver —
//! it certifies `sbc-flow`'s outputs in tests without trusting the code
//! under test, the role a dual certificate plays in LP practice.

use crate::mcmf::EPS;
use crate::transport::FractionalAssignment;
use sbc_geometry::metric::dist_r_pow;
use sbc_geometry::Point;

/// Outcome of [`certify_optimal`].
#[derive(Clone, Debug, PartialEq)]
pub enum Certificate {
    /// No improving exchange exists (up to `tol`): the assignment is
    /// optimal.
    Optimal,
    /// An improving re-routing exists; the payload describes it.
    Improvable {
        /// Centers along the improving walk (cycle or slack-terminated
        /// path).
        walk: Vec<usize>,
        /// Its per-unit cost (negative).
        gain: f64,
    },
}

/// Certifies optimality of a fractional capacitated assignment.
///
/// `tol` bounds the accepted per-unit violation (use ~1e-6 for distances
/// of magnitude up to ~1e6).
///
/// ```
/// use sbc_flow::dual::{certify_optimal, Certificate};
/// use sbc_flow::transport::optimal_fractional_assignment;
/// use sbc_geometry::Point;
///
/// let points = vec![Point::new(vec![1]), Point::new(vec![9])];
/// let centers = vec![Point::new(vec![2]), Point::new(vec![8])];
/// let frac = optimal_fractional_assignment(&points, None, &centers, 1.0, 2.0).unwrap();
/// assert_eq!(certify_optimal(&frac, &points, &centers, 1.0, 2.0, 1e-9), Certificate::Optimal);
/// ```
pub fn certify_optimal(
    frac: &FractionalAssignment,
    points: &[Point],
    centers: &[Point],
    cap: f64,
    r: f64,
    tol: f64,
) -> Certificate {
    certify_optimal_caps(frac, points, centers, &vec![cap; centers.len()], r, tol)
}

/// [`certify_optimal`] under per-center capacities `caps` (the
/// counterpart of
/// [`optimal_fractional_assignment_caps`](crate::transport::optimal_fractional_assignment_caps)).
pub fn certify_optimal_caps(
    frac: &FractionalAssignment,
    points: &[Point],
    centers: &[Point],
    caps: &[f64],
    r: f64,
    tol: f64,
) -> Certificate {
    let k = centers.len();
    assert_eq!(caps.len(), k, "one capacity per center");
    // Exchange-arc weights.
    let mut w = vec![vec![f64::INFINITY; k]; k];
    for (i, shares) in frac.shares.iter().enumerate() {
        for &(j, amount) in shares {
            if amount <= EPS {
                continue;
            }
            let c_ij = dist_r_pow(&points[i], &centers[j], r);
            for jp in 0..k {
                if jp == j {
                    continue;
                }
                let delta = dist_r_pow(&points[i], &centers[jp], r) - c_ij;
                if delta < w[j][jp] {
                    w[j][jp] = delta;
                }
            }
        }
    }
    let slack: Vec<bool> = frac
        .loads
        .iter()
        .zip(caps)
        .map(|(&l, &cap)| l < cap - EPS)
        .collect();

    // Bellman–Ford from a virtual source connected to every node with
    // weight 0: detects negative cycles and computes shortest walk costs.
    let mut dist = vec![0.0f64; k];
    let mut pred = vec![usize::MAX; k];
    for round in 0..=k {
        let mut changed = false;
        for j in 0..k {
            if !dist[j].is_finite() {
                continue;
            }
            for jp in 0..k {
                if w[j][jp].is_finite() && dist[j] + w[j][jp] < dist[jp] - tol {
                    let improvement = dist[j] + w[j][jp] - dist[jp];
                    dist[jp] = dist[j] + w[j][jp];
                    pred[jp] = j;
                    changed = true;
                    if round == k {
                        // Relaxation on the k-th pass ⇒ negative cycle.
                        return Certificate::Improvable {
                            walk: extract_cycle(&pred, jp, k),
                            gain: improvement,
                        };
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    // Negative walk into a slack center ⇒ improving path.
    for jp in 0..k {
        if slack[jp] && dist[jp] < -tol {
            let mut walk = Vec::new();
            let mut cur = jp;
            let mut guard = 0;
            while cur != usize::MAX && guard <= k {
                walk.push(cur);
                cur = pred[cur];
                guard += 1;
            }
            walk.reverse();
            return Certificate::Improvable {
                walk,
                gain: dist[jp],
            };
        }
    }
    Certificate::Optimal
}

fn extract_cycle(pred: &[usize], start: usize, k: usize) -> Vec<usize> {
    // Walk back k steps to land inside the cycle, then trace it.
    let mut cur = start;
    for _ in 0..k {
        if pred[cur] == usize::MAX {
            break;
        }
        cur = pred[cur];
    }
    let mut cycle = vec![cur];
    let mut walker = pred[cur];
    let mut guard = 0;
    while walker != cur && walker != usize::MAX && guard <= k {
        cycle.push(walker);
        walker = pred[walker];
        guard += 1;
    }
    cycle.reverse();
    cycle
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::optimal_fractional_assignment;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn p(cs: &[u32]) -> Point {
        Point::new(cs.to_vec())
    }

    #[test]
    fn solver_outputs_certify_optimal_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(1);
        for trial in 0..30 {
            let n = rng.gen_range(4..20);
            let k = rng.gen_range(2..5);
            let points: Vec<Point> = (0..n)
                .map(|_| p(&[rng.gen_range(1..=64), rng.gen_range(1..=64)]))
                .collect();
            let centers: Vec<Point> = (0..k)
                .map(|_| p(&[rng.gen_range(1..=64), rng.gen_range(1..=64)]))
                .collect();
            let r = if trial % 2 == 0 { 2.0 } else { 1.0 };
            let cap = (n as f64 / k as f64).ceil() + rng.gen_range(0..3) as f64;
            let Some(frac) = optimal_fractional_assignment(&points, None, &centers, cap, r) else {
                continue;
            };
            let cert = certify_optimal(&frac, &points, &centers, cap, r, 1e-6);
            assert_eq!(
                cert,
                Certificate::Optimal,
                "trial {trial}: solver output not certified ({cert:?})"
            );
        }
    }

    #[test]
    fn suboptimal_assignment_is_flagged() {
        // Hand-build a crossed (clearly improvable) assignment.
        let points = vec![p(&[1, 1]), p(&[20, 20])];
        let centers = vec![p(&[1, 1]), p(&[20, 20])];
        let crossed = FractionalAssignment {
            shares: vec![vec![(1, 1.0)], vec![(0, 1.0)]],
            cost: 2.0 * sbc_geometry::metric::dist_sq(&points[0], &centers[1]),
            loads: vec![1.0, 1.0],
        };
        match certify_optimal(&crossed, &points, &centers, 1.0, 2.0, 1e-6) {
            Certificate::Improvable { gain, .. } => assert!(gain < 0.0),
            other => panic!("crossed assignment certified optimal: {other:?}"),
        }
    }

    #[test]
    fn slack_path_improvement_detected() {
        // Both points on center 0 (full), center 1 slack and closer for
        // one of them.
        let points = vec![p(&[1, 1]), p(&[19, 19])];
        let centers = vec![p(&[2, 2]), p(&[18, 18])];
        let bad = FractionalAssignment {
            shares: vec![vec![(0, 1.0)], vec![(0, 1.0)]],
            cost: 0.0,
            loads: vec![2.0, 0.0],
        };
        match certify_optimal(&bad, &points, &centers, 2.0, 2.0, 1e-6) {
            Certificate::Improvable { walk, gain } => {
                assert!(gain < 0.0);
                assert_eq!(*walk.last().unwrap(), 1, "path ends at the slack center");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
