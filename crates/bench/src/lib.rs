//! Shared helpers for the Criterion benches and the `experiments`
//! harness: canonical workloads, quality evaluation, markdown table
//! printing, and the ingest timing the overhead guards share. See
//! EXPERIMENTS.md for the experiment index (the paper has no empirical
//! section; these regenerate the theorem-derived suite documented in
//! DESIGN.md §4).

use rand::rngs::StdRng;
use rand::SeedableRng;
use sbc_clustering::cost::capacitated_cost;
use sbc_core::verify::center_battery;
use sbc_core::{Coreset, CoresetParams};
use sbc_geometry::dataset;
use sbc_geometry::{GridParams, Point};
use sbc_streaming::model::StreamOp;
use sbc_streaming::{StreamCoresetBuilder, StreamParams};
use std::time::Instant;

/// The canonical workload set used across experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Balanced Gaussian mixture (clusterable, the friendly case).
    Gaussian,
    /// 70/20/10 imbalanced mixture (capacity constraints bind).
    Imbalanced,
    /// Uniform noise (worst case for partition coresets).
    Uniform,
    /// Near-degenerate line plus outliers.
    Line,
}

impl Workload {
    /// All workloads.
    pub fn all() -> [Workload; 4] {
        [
            Workload::Gaussian,
            Workload::Imbalanced,
            Workload::Uniform,
            Workload::Line,
        ]
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Gaussian => "gaussian",
            Workload::Imbalanced => "imbalanced",
            Workload::Uniform => "uniform",
            Workload::Line => "line+outliers",
        }
    }

    /// Generates `n` points of this workload.
    pub fn generate(&self, gp: GridParams, n: usize, k: usize, seed: u64) -> Vec<Point> {
        match self {
            Workload::Gaussian => dataset::gaussian_mixture(gp, n, k, 0.04, seed),
            Workload::Imbalanced => {
                dataset::imbalanced_mixture(gp, n, &[0.7, 0.2, 0.1], 0.03, seed)
            }
            Workload::Uniform => dataset::uniform(gp, n, seed),
            Workload::Line => dataset::line_with_outliers(gp, n, n / 50 + 1, seed),
        }
    }
}

/// Worst-case sandwich ratios of a coreset over a `(Z, t)` battery
/// (the empirical Theorem 3.19 item 1; see `sbc_core::verify`).
#[derive(Clone, Copy, Debug)]
pub struct QualitySummary {
    /// max `cost_{(1+η)t}(Q′)/cost_t(Q)` — should be ≤ 1+ε.
    pub upper: f64,
    /// max `cost_{(1+η)t}(Q)/cost_t(Q′)` — should be ≤ 1+ε.
    pub lower: f64,
    /// Evaluated `(Z, t)` pairs.
    pub trials: usize,
}

impl QualitySummary {
    /// The worse of the two directions.
    pub fn worst(&self) -> f64 {
        self.upper.max(self.lower)
    }
}

/// Evaluates coreset quality over `num_sets` center batteries ×
/// `cap_factors` capacities (a thin wrapper around
/// `sbc_core::verify::verify_strong_coreset` with a fixed seed).
pub fn quality(
    points: &[Point],
    coreset: &Coreset,
    params: &CoresetParams,
    num_sets: usize,
    cap_factors: &[f64],
    seed: u64,
) -> QualitySummary {
    let mut rng = StdRng::seed_from_u64(seed);
    let q = sbc_core::verify::verify_strong_coreset(
        points,
        coreset,
        params,
        num_sets,
        cap_factors,
        &mut rng,
    );
    QualitySummary {
        upper: q.max_upper,
        lower: q.max_lower,
        trials: q.trials,
    }
}

/// Worst |estimate/truth| ratio of an arbitrary weighted summary (used
/// for the baseline coresets in E8/E9, which are not `Coreset`s).
#[allow(clippy::too_many_arguments)]
pub fn weighted_summary_quality(
    points: &[Point],
    summary_points: &[Point],
    summary_weights: &[f64],
    k: usize,
    r: f64,
    eta: f64,
    num_sets: usize,
    cap_factors: &[f64],
    delta: u64,
    seed: u64,
) -> QualitySummary {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = points.len() as f64;
    let batteries = center_battery(points, k, r, num_sets, delta, &mut rng);
    let mut out = QualitySummary {
        upper: 0.0,
        lower: 0.0,
        trials: 0,
    };
    for centers in &batteries {
        for &f in cap_factors {
            let t = n / k as f64 * f;
            let cq_t = capacitated_cost(points, None, centers, t, r);
            let cq_eta = capacitated_cost(points, None, centers, (1.0 + eta) * t, r);
            let cc_t = capacitated_cost(summary_points, Some(summary_weights), centers, t, r);
            let cc_eta = capacitated_cost(
                summary_points,
                Some(summary_weights),
                centers,
                (1.0 + eta) * t,
                r,
            );
            if !cq_t.is_finite() || !cc_t.is_finite() {
                continue;
            }
            out.trials += 1;
            if cq_t > 0.0 {
                out.upper = out.upper.max(cc_eta / cq_t);
            }
            if cc_t > 0.0 {
                out.lower = out.lower.max(cq_eta / cc_t);
            }
        }
    }
    out
}

/// Minimal markdown table printer for the experiment harness.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Renders as a github-flavored markdown table.
    pub fn print(&self) {
        let widths: Vec<usize> = (0..self.headers.len())
            .map(|c| {
                self.rows
                    .iter()
                    .map(|r| r[c].len())
                    .chain(std::iter::once(self.headers[c].len()))
                    .max()
                    .unwrap_or(1)
            })
            .collect();
        let line = |cells: &[String]| {
            let body: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(cell, w)| format!("{cell:>w$}"))
                .collect();
            println!("| {} |", body.join(" | "));
        };
        line(&self.headers);
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        println!("|-{}-|", sep.join("-|-"));
        for row in &self.rows {
            line(row);
        }
        println!();
    }
}

/// Formats a float compactly for tables.
pub fn fmt(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 1e6 || x.abs() < 1e-3 {
        format!("{x:.2e}")
    } else if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else {
        format!("{x:.3}")
    }
}

/// Formats a byte count.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{:.1} MiB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1} KiB", b as f64 / 1024.0)
    } else {
        format!("{b} B")
    }
}

/// Seconds of one full ingest of `ops` into a fresh builder (rng seed
/// 7): op by op when `per_op`, else one `process_all` batch.
pub fn time_ingest(params: &CoresetParams, ops: &[StreamOp], per_op: bool) -> f64 {
    let mut rng = StdRng::seed_from_u64(7);
    let mut builder = StreamCoresetBuilder::new(params.clone(), StreamParams::default(), &mut rng);
    let start = Instant::now();
    if per_op {
        for op in ops {
            builder.process(op);
        }
    } else {
        builder.process_all(ops);
    }
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(builder.net_count());
    secs
}

/// The median of `xs` (the mean of the middle two for an even count).
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// What an instrument costs a batched ingest, from
/// [`instrumented_ingest`].
#[derive(Clone, Copy, Debug)]
pub struct IngestSlowdown {
    /// Seconds of the fastest uninstrumented ingest.
    pub base_secs: f64,
    /// Median over rounds of instrumented over uninstrumented seconds:
    /// 1.0 is free, and noise can read below it.
    pub ratio: f64,
}

/// Prices an instrument on a batched ingest of `ops`. One untimed
/// warm-up ingest runs first; then each of `rounds` rounds times one
/// plain and one instrumented ingest, `instrument(true)` switching the
/// instrument on before the instrumented one and `instrument(false)`
/// off after it (neither call is timed). Rounds alternate which ingest
/// goes first, so a process whose ingest speeds up as it ages favours
/// neither side when `rounds` is even, and the median of the per-round
/// ratios is what one slow run cannot move.
pub fn instrumented_ingest(
    params: &CoresetParams,
    ops: &[StreamOp],
    rounds: usize,
    mut instrument: impl FnMut(bool),
) -> IngestSlowdown {
    time_ingest(params, ops, false);
    let mut base_secs = f64::INFINITY;
    let mut ratios = Vec::with_capacity(rounds);
    for round in 0..rounds.max(1) {
        let mut timed = [0.0; 2];
        for k in [round % 2, 1 - round % 2] {
            let on = k == 1;
            if on {
                instrument(true);
            }
            timed[k] = time_ingest(params, ops, false);
            if on {
                instrument(false);
            }
        }
        base_secs = base_secs.min(timed[0]);
        ratios.push(timed[1] / timed[0]);
    }
    IngestSlowdown {
        base_secs,
        ratio: median(ratios),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_generate_requested_sizes() {
        let gp = GridParams::from_log_delta(7, 2);
        for w in Workload::all() {
            let pts = w.generate(gp, 500, 3, 1);
            assert_eq!(pts.len(), 500, "{}", w.name());
            assert!(pts.iter().all(|p| p.in_cube(128)));
        }
    }

    #[test]
    fn table_renders_without_panic() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.print();
    }

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(1234567.0), "1.23e6");
        assert_eq!(fmt(123.4), "123");
        assert_eq!(fmt(1.2345), "1.234");
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
    }
}
