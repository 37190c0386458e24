//! The sliding-window dynamic stream every workload feeds.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sbc::{GridParams, Point, StreamOp};

/// `n` points of a Gaussian mixture in `[1, Δ]²` whose clusters sit at
/// fixed places: `(x, y, share)` per cluster, as fractions of `Δ`, with
/// standard deviation `sigma·Δ`. The seed draws the points but not the
/// geometry, so the work a run does depends little on its seed. The
/// points come out in a seeded random order.
pub fn fixed_mixture(
    gp: GridParams,
    n: usize,
    clusters: &[(f64, f64, f64)],
    sigma: f64,
    seed: u64,
) -> Vec<Point> {
    assert_eq!(gp.d, 2, "the fixed mixtures are planar");
    let mut rng = StdRng::seed_from_u64(seed);
    let delta = gp.delta as f64;
    let coord = |c: f64, rng: &mut StdRng| {
        // Box–Muller.
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (c * delta + sigma * delta * z).round().clamp(1.0, delta) as u32
    };
    let mut points = Vec::with_capacity(n);
    for (i, &(x, y, share)) in clusters.iter().enumerate() {
        let size = if i + 1 == clusters.len() {
            n - points.len()
        } else {
            (share * n as f64) as usize
        };
        for _ in 0..size {
            points.push(Point::new(vec![coord(x, &mut rng), coord(y, &mut rng)]));
        }
    }
    points.shuffle(&mut rng);
    points
}

/// A dynamic stream over a fixed pool of points. The first `window`
/// points fill it; write `i` then inserts the next `batch` points and
/// deletes the `batch` oldest, so the live set holds `window` points for
/// the whole run. Indices wrap around the pool, which is at least
/// `window + batch` long, so a point is only re-inserted after it was
/// deleted.
pub struct Churn {
    pool: Vec<Point>,
    window: usize,
    batch: usize,
}

impl Churn {
    /// `pool` must be in random order: the window has to see every
    /// cluster at once.
    pub fn new(pool: Vec<Point>, window: usize, batch: usize) -> Churn {
        assert!(
            pool.len() >= window + batch,
            "pool of {} points is too small for a window of {window} and batches of {batch}",
            pool.len()
        );
        Churn {
            pool,
            window,
            batch,
        }
    }

    fn points(&self, from: usize, len: usize) -> impl Iterator<Item = &Point> {
        (from..from + len).map(|i| &self.pool[i % self.pool.len()])
    }

    pub fn window(&self) -> usize {
        self.window
    }

    /// The points that fill the window.
    pub fn fill(&self) -> Vec<Point> {
        self.points(0, self.window).cloned().collect()
    }

    /// The points write `i` inserts.
    pub fn inserts(&self, i: usize) -> Vec<Point> {
        self.points(self.window + i * self.batch, self.batch)
            .cloned()
            .collect()
    }

    /// The points write `i` deletes: the oldest in the window.
    pub fn deletes(&self, i: usize) -> Vec<Point> {
        self.points(i * self.batch, self.batch).cloned().collect()
    }

    /// Write `i` as one list of stream operations, inserts first.
    pub fn write_ops(&self, i: usize) -> Vec<StreamOp> {
        let ins = self.inserts(i).into_iter().map(StreamOp::Insert);
        let del = self.deletes(i).into_iter().map(StreamOp::Delete);
        ins.chain(del).collect()
    }
}
