//! Differential oracle: the exchange-graph transport solver against the
//! generic `MinCostFlow` on the full `source → points → centers → sink`
//! network, with every output certified by the independent LP-duality
//! check.

use proptest::prelude::*;
use sbc_flow::dual::{certify_optimal_caps, Certificate};
use sbc_flow::mcmf::{transportation_reference, EPS};
use sbc_flow::transport::optimal_fractional_assignment_caps;
use sbc_geometry::Point;

/// The optimal cost by min-cost flow on the full network, or `None`
/// when the instance is infeasible (same feasibility slack and
/// under-routing guard as the transport solver).
fn reference_cost(
    points: &[Point],
    weights: &[f64],
    centers: &[Point],
    caps: &[f64],
    r: f64,
) -> Option<f64> {
    let total: f64 = weights.iter().sum();
    if total > caps.iter().sum::<f64>() * (1.0 + 1e-12) + EPS {
        return None;
    }
    let res = transportation_reference(points, weights, centers, caps, r);
    (res.flow + 1e-6 * total.max(1.0) >= total).then_some(res.cost)
}

/// Splits `total` into `k` non-uniform parts proportional to `shape`.
fn split(total: f64, shape: &[u32]) -> Vec<f64> {
    let sum: f64 = shape.iter().map(|&s| s as f64).sum();
    shape.iter().map(|&s| total * s as f64 / sum).collect()
}

/// Splits the integer `total` into `k` non-uniform integer parts.
fn split_integral(total: u64, shape: &[u32]) -> Vec<f64> {
    let sum: u64 = shape.iter().map(|&s| s as u64).sum();
    let mut parts: Vec<u64> = shape.iter().map(|&s| total * s as u64 / sum).collect();
    parts[0] += total - parts.iter().sum::<u64>();
    parts.into_iter().map(|p| p as f64).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Weighted and unit points, `r ∈ {1, 2}`, `k = 1…8`, non-uniform
    /// caps, duplicate points, zero weights, `Σw = Σcaps` exactly and
    /// infeasible inputs.
    #[test]
    fn exchange_transport_matches_min_cost_flow(
        coords in prop::collection::vec((1u32..=64, 1u32..=64), 0..90),
        zs in prop::collection::vec((1u32..=64, 1u32..=64), 1..9),
        cap_shape in prop::collection::vec(1u32..=6, 8),
        raw_weights in prop::collection::vec(0u32..=600, 90),
        (weight_mode, cap_mode) in (0u32..3, 0u32..4),
        (dup, r_is_one) in (prop::bool::ANY, prop::bool::ANY),
    ) {
        // Duplicates: fold every coordinate onto a 4×4 corner.
        let points: Vec<Point> = coords
            .iter()
            .map(|&(a, b)| if dup { Point::new(vec![a % 4 + 1, b % 4 + 1]) } else { Point::new(vec![a, b]) })
            .collect();
        let centers: Vec<Point> = zs.into_iter().map(|(a, b)| Point::new(vec![a, b])).collect();
        let (n, k) = (points.len(), centers.len());
        let r = if r_is_one { 1.0 } else { 2.0 };
        // 0: unit, 1: integer (zeros included), 2: fractional (zeros included).
        let weights: Vec<f64> = match weight_mode {
            0 => vec![1.0; n],
            1 => raw_weights[..n].iter().map(|&w| (w % 6) as f64).collect(),
            _ => raw_weights[..n].iter().map(|&w| if w < 60 { 0.0 } else { w as f64 / 97.0 }).collect(),
        };
        let total: f64 = weights.iter().sum();
        let shape = &cap_shape[..k];
        // 0: Σcaps = Σw exactly, 1: 10% slack, 2: 2× slack, 3: infeasible.
        let caps = match cap_mode {
            0 if weight_mode < 2 => split_integral(total as u64, shape),
            0 => split(total, shape),
            1 => split(total * 1.1, shape),
            2 => split(total * 2.0 + 1.0, shape),
            _ => split(total * 0.9 - 1.0, shape).into_iter().map(|c| c.max(0.0)).collect(),
        };
        let w_arg = (weight_mode != 0).then_some(weights.as_slice());

        let got = optimal_fractional_assignment_caps(&points, w_arg, &centers, &caps, r);
        let want = reference_cost(&points, &weights, &centers, &caps, r);
        prop_assert_eq!(got.is_none(), want.is_none(), "feasibility disagrees: caps {:?}, Σw {}", caps, total);
        let (Some(frac), Some(want)) = (got, want) else {
            return Ok(());
        };
        prop_assert!(
            (frac.cost - want).abs() <= 1e-9 * want.abs().max(1.0),
            "cost {} vs reference {}", frac.cost, want
        );
        for (i, shares) in frac.shares.iter().enumerate() {
            let routed: f64 = shares.iter().map(|&(_, f)| f).sum();
            prop_assert!(
                (routed - weights[i]).abs() <= 1e-9 * weights[i].max(1.0),
                "point {i}: routed {routed} of {}", weights[i]
            );
            if weight_mode < 2 && cap_mode == 0 {
                // Integral data give integral shares; a unit point is
                // wholly at one center.
                prop_assert!(shares.iter().all(|&(_, f)| f == f.round()), "point {i}: {:?}", shares);
                prop_assert!(weight_mode == 1 || shares.len() == 1);
            }
        }
        for (j, (&load, &cap)) in frac.loads.iter().zip(&caps).enumerate() {
            prop_assert!(load <= cap * (1.0 + 1e-9), "center {j}: load {load} over cap {cap}");
        }
        prop_assert_eq!(
            certify_optimal_caps(&frac, &points, &centers, &caps, r, 1e-6),
            Certificate::Optimal
        );
    }
}
