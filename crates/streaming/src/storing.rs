//! The `Storing(Gᵢ, α, β, δ)` subroutine (Lemma 4.2): its vocabulary and
//! the paper's linear sketch.
//!
//! For one grid level, a dynamic stream of point insertions/deletions is
//! summarized so that at end of stream the structure returns
//!
//! 1. the set `C` of non-empty cells,
//! 2. the count `f(C)` of points in each cell, and
//! 3. the set `S` of points lying in cells with at most `β` points,
//!
//! FAILing (with probability ≤ δ) only when `|C| > α`.
//!
//! The builder serves every store as a view of a nested arena
//! (`nested.rs`, DESIGN.md §9): flat open-addressing tables with the same
//! output and FAIL semantics, plus per-cell point eviction (cells whose
//! multiplicity exceeds `2β` drop their point list, mirroring a sketch
//! bucket's overflow) and a distinct-cell occupancy cap that kills
//! runaway substreams cheaply. Its space is measured, not bounded.
//!
//! [`Storing`] is the construction Lemma 4.2 cites (HSYZ18), as written:
//! an `α`-sparse recovery over cell keys for (1)–(2), and rows of
//! cell-hashed buckets each holding a `2β`-sparse recovery over point
//! keys for (3). Fixed size `O(α·β·rows·log)` bits, oblivious to how
//! inserts and deletes interleave; cells colliding with an over-β cell in
//! one row survive in another row w.h.p. It is not served: it is the
//! reference the arena's views are checked against, and
//! [`Storing::nominal_sketch_bytes`] is the space accounting a
//! sketch-backed deployment of the same sizing would reserve.

use crate::sparse::SSparseRecovery;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sbc_geometry::{CellId, GridHierarchy, Point};
use sbc_hash::KWiseHash;
use std::collections::HashMap;

/// Sizing of one store.
#[derive(Clone, Copy, Debug)]
pub struct StoringConfig {
    /// Cell budget `α`: FAIL when more non-empty cells survive. Also the
    /// floor of the arena's occupancy cap; it sizes no table (arenas
    /// grow from occupancy, DESIGN.md §9.2).
    pub alpha: usize,
    /// Small-cell threshold `β`: points are recovered from cells with at
    /// most this many points.
    pub beta: usize,
    /// Independent rows of the point-recovery structure.
    pub rows: usize,
}

/// How a store died mid-stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreDeath {
    /// Distinct-cell occupancy hit the cap and the runaway substream was
    /// killed to reclaim its memory.
    RunawayKill,
    /// The sketch's lazily-allocated bucket population overflowed its
    /// bound. An arena store dies this way only by an injected fault.
    SketchOverflow,
}

/// Why `finish` failed.
#[derive(Clone, Debug, PartialEq)]
pub enum StoringFail {
    /// More than `α` non-empty cells at end of stream.
    TooManyCells {
        /// Cells found (or the cap at which counting stopped).
        found: usize,
        /// The budget `α`.
        alpha: usize,
    },
    /// The store died mid-stream (the sketch analogue would simply
    /// decode garbage; we surface it explicitly).
    Overflowed,
    /// A sparse-recovery decode failed (content denser than sized for).
    DecodeFailed,
}

impl std::fmt::Display for StoringFail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoringFail::TooManyCells { found, alpha } => {
                write!(f, "store held {found} non-empty cells, budget α = {alpha}")
            }
            StoringFail::Overflowed => write!(f, "store overflowed its occupancy cap mid-stream"),
            StoringFail::DecodeFailed => write!(f, "sparse-recovery decode failed"),
        }
    }
}

impl std::error::Error for StoringFail {}

/// Successful output of a store (Lemma 4.2 items 1–3).
#[derive(Clone, Debug, PartialEq)]
pub struct StoringOutput {
    /// Non-empty cells with their point counts.
    pub cells: Vec<(CellId, i64)>,
    /// Points (with multiplicity) lying in cells of ≤ β points.
    pub small_points: Vec<(Point, i64)>,
    /// Small cells whose point payload an arena store evicted mid-stream
    /// (count exceeded `2β`, then deletions brought it back under `β`).
    /// Their points are *missing* from `small_points`; consumers that
    /// need them must treat the structure as failed. The sketch never
    /// populates this (linear sketches are oblivious to transient
    /// density).
    pub dirty_small_cells: Vec<CellId>,
}

/// One `Storing(Gᵢ, α, β, δ)` linear sketch.
pub struct Storing {
    level: i32,
    grid: GridHierarchy,
    cfg: StoringConfig,
    cell_sketch: SSparseRecovery,
    /// Per row: a pairwise hash over cell keys and its lazily allocated
    /// buckets of point sparse recoveries.
    rows: Vec<(KWiseHash, HashMap<u32, SSparseRecovery>)>,
    bucket_cols: u64,
    bucket_sparsity: usize,
    max_buckets: usize,
    /// Set once the buckets of all rows outnumber `max_buckets` per row
    /// (the [`StoreDeath::SketchOverflow`] death); the buckets are freed
    /// and `finish` fails with [`StoringFail::Overflowed`].
    dead: bool,
    seed: StdRng,
}

impl Storing {
    /// Creates a sketch for grid level `level`.
    ///
    /// # Panics
    /// Panics if points or cells of this geometry do not pack into
    /// 128-bit keys.
    pub fn new<R: Rng + ?Sized>(
        grid: &GridHierarchy,
        level: i32,
        cfg: StoringConfig,
        rng: &mut R,
    ) -> Self {
        assert!(cfg.alpha >= 1 && cfg.rows >= 1);
        let gp = grid.params();
        let cell_width = if level >= 0 { (level + 2) as usize } else { 1 };
        let cell_bits = 6 + cell_width * gp.d;
        let point_bits = sbc_geometry::point::bits_for(gp.delta) as usize * gp.d;
        assert!(
            point_bits <= 128 && cell_bits <= 128,
            "the sketch needs packable point/cell keys"
        );
        let rows = (0..cfg.rows)
            .map(|_| (KWiseHash::new(2, rng), HashMap::new()))
            .collect();
        Self {
            level,
            grid: grid.clone(),
            cfg,
            cell_sketch: SSparseRecovery::new(cfg.alpha, cfg.rows.max(3), rng),
            rows,
            bucket_cols: (4 * cfg.alpha).next_power_of_two() as u64,
            bucket_sparsity: (2 * cfg.beta).max(2),
            max_buckets: 8 * cfg.alpha,
            dead: false,
            seed: StdRng::seed_from_u64(rng.gen()),
        }
    }

    /// Applies `(p, ±1)` (or any delta) to the sketch.
    pub fn update(&mut self, p: &Point, delta: i64) {
        if self.dead {
            return;
        }
        let cell_key = self.grid.cell_of(p, self.level).key128();
        let point_key = p.key128(self.grid.params().delta);
        self.cell_sketch.update(cell_key, delta);
        let mut total_buckets = 0usize;
        for (hash, buckets) in self.rows.iter_mut() {
            let idx = (hash.eval(cell_key) % self.bucket_cols) as u32;
            let sparsity = self.bucket_sparsity;
            let seed = &mut self.seed;
            let bucket = buckets
                .entry(idx)
                .or_insert_with(|| SSparseRecovery::new(sparsity, 2, seed));
            bucket.update(point_key, delta);
            total_buckets += buckets.len();
        }
        if total_buckets > self.max_buckets * self.rows.len() {
            self.dead = true;
            self.rows
                .iter_mut()
                .for_each(|(_, buckets)| *buckets = HashMap::new());
        }
    }

    /// Decodes the sketch (Lemma 4.2 output).
    pub fn finish(&self) -> Result<StoringOutput, StoringFail> {
        if self.dead {
            return Err(StoringFail::Overflowed);
        }
        let gp = self.grid.params();
        let decoded = self.cell_sketch.decode().ok_or(StoringFail::DecodeFailed)?;
        let live: Vec<(u128, i64)> = decoded.into_iter().filter(|&(_, c)| c > 0).collect();
        if live.len() > self.cfg.alpha {
            return Err(StoringFail::TooManyCells {
                found: live.len(),
                alpha: self.cfg.alpha,
            });
        }
        let beta = self.cfg.beta as i64;
        let mut out_cells = Vec::with_capacity(live.len());
        let mut small_points = Vec::new();
        for (cell_key, count) in live {
            let cell =
                CellId::unpack(cell_key, self.level, gp.d).ok_or(StoringFail::DecodeFailed)?;
            if count <= beta {
                // Try each row until one bucket isolates the cell.
                let mut recovered: Option<Vec<(Point, i64)>> = None;
                for (hash, buckets) in &self.rows {
                    let idx = (hash.eval(cell_key) % self.bucket_cols) as u32;
                    let Some(bucket) = buckets.get(&idx) else {
                        continue; // never touched yet count > 0: try another row
                    };
                    if let Some(items) = bucket.decode() {
                        let mut pts = Vec::new();
                        let mut mass = 0i64;
                        for (pkey, c) in items {
                            if c <= 0 {
                                continue;
                            }
                            let Some(pt) = Point::unpack(pkey, gp.delta, gp.d) else {
                                continue;
                            };
                            if self.grid.cell_of(&pt, self.level) == cell {
                                mass += c;
                                pts.push((pt, c));
                            }
                        }
                        if mass == count {
                            recovered = Some(pts);
                            break;
                        }
                    }
                }
                match recovered {
                    Some(pts) => small_points.extend(pts),
                    None => return Err(StoringFail::DecodeFailed),
                }
            }
            out_cells.push((cell, count));
        }
        out_cells.sort_by(|a, b| a.0.cmp(&b.0));
        small_points.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(StoringOutput {
            cells: out_cells,
            small_points,
            dirty_small_cells: Vec::new(),
        })
    }

    /// The space a fully allocated sketch of this configuration occupies
    /// — the Lemma 4.2 `O(αβ·dL·log²(αβ/δ))`-style accounting used by
    /// experiment E4 and the space report. Saturates at `usize::MAX` for
    /// configurations no sketch could be allocated for.
    pub fn nominal_sketch_bytes(cfg: &StoringConfig) -> usize {
        let pow2 = |n: usize| n.checked_next_power_of_two().unwrap_or(usize::MAX);
        let product = |xs: &[usize]| xs.iter().fold(1usize, |acc, &x| acc.saturating_mul(x));
        let one = crate::sparse::OneSparse::BYTES;
        let cell_sketch = product(&[cfg.rows.max(3), pow2(cfg.alpha.saturating_mul(2)), one]);
        let bucket = product(&[
            2,
            pow2(cfg.beta.saturating_mul(2).max(2).saturating_mul(2)),
            one,
        ]);
        let buckets = product(&[cfg.rows, 8, cfg.alpha, bucket]);
        cell_sketch.saturating_add(buckets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbc_geometry::dataset::uniform;
    use sbc_geometry::GridParams;

    fn setup() -> (GridHierarchy, Vec<Point>) {
        let gp = GridParams::from_log_delta(6, 2); // Δ = 64
        let mut rng = StdRng::seed_from_u64(1);
        let grid = GridHierarchy::new(gp, &mut rng);
        let pts = uniform(gp, 120, 2);
        (grid, pts)
    }

    /// Inserts `pts`, deletes the second half, and checks the sketch's
    /// output against a ground-truth recount of the surviving half.
    #[test]
    fn sketch_matches_ground_truth_under_deletions() {
        let (grid, pts) = setup();
        let level = 4;
        let cfg = StoringConfig {
            alpha: 256,
            beta: 8,
            rows: 4,
        };
        let mut st = Storing::new(&grid, level, cfg, &mut StdRng::seed_from_u64(3));
        let half = pts.len() / 2;
        for p in &pts {
            st.update(p, 1);
        }
        for p in &pts[half..] {
            st.update(p, -1);
        }
        let got = st.finish().expect("within budget");

        let mut truth_cells: HashMap<CellId, i64> = HashMap::new();
        for p in &pts[..half] {
            *truth_cells.entry(grid.cell_of(p, level)).or_insert(0) += 1;
        }
        let mut cells: Vec<(CellId, i64)> = truth_cells.clone().into_iter().collect();
        cells.sort_by(|a, b| a.0.cmp(&b.0));
        // Merge duplicate points (generators may repeat coordinates; the
        // sketch reports one entry with the net multiplicity).
        let mut small_map: HashMap<Point, i64> = HashMap::new();
        for p in &pts[..half] {
            if truth_cells[&grid.cell_of(p, level)] <= 8 {
                *small_map.entry(p.clone()).or_insert(0) += 1;
            }
        }
        let mut small: Vec<(Point, i64)> = small_map.into_iter().collect();
        small.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(got.cells, cells);
        assert_eq!(got.small_points, small);
        assert!(got.dirty_small_cells.is_empty());
    }

    #[test]
    fn fails_when_cells_exceed_alpha() {
        let (grid, pts) = setup();
        let cfg = StoringConfig {
            alpha: 4,
            beta: 4,
            rows: 3,
        };
        let mut st = Storing::new(&grid, 6, cfg, &mut StdRng::seed_from_u64(4));
        for p in &pts {
            st.update(p, 1);
        }
        let err = st.finish().unwrap_err();
        assert!(
            matches!(
                err,
                StoringFail::TooManyCells { .. } | StoringFail::DecodeFailed
            ),
            "{err:?}"
        );
    }

    #[test]
    fn heavy_cell_does_not_pollute_small_cells_in_sketch() {
        // One cell receives 500 points (≫ β); other cells stay small.
        // The sketch must still recover the small cells' points.
        let gp = GridParams::from_log_delta(6, 2);
        let mut rng = StdRng::seed_from_u64(6);
        let grid = GridHierarchy::new(gp, &mut rng);
        let cfg = StoringConfig {
            alpha: 128,
            beta: 4,
            rows: 5,
        };
        let mut st = Storing::new(&grid, 2, cfg, &mut rng);
        // Heavy cluster: 500 distinct points crammed into one level-2 cell
        // region (side 16): coordinates 1..=16 × 1..=16 plus multiplicity.
        let mut heavy_pts = Vec::new();
        for a in 1..=16u32 {
            for b in 1..=16u32 {
                heavy_pts.push(Point::new(vec![a, b]));
            }
        }
        for (i, p) in heavy_pts.iter().enumerate() {
            st.update(p, 1 + (i % 2) as i64);
        }
        // Small, far-away cells.
        let small = vec![Point::new(vec![60, 60]), Point::new(vec![62, 61])];
        for p in &small {
            st.update(p, 1);
        }
        let out = st.finish().expect("decodes");
        for p in &small {
            assert!(
                out.small_points.iter().any(|(q, c)| q == p && *c == 1),
                "missing small point {p:?}"
            );
        }
    }

    #[test]
    fn nominal_bytes_scale_with_alpha_beta() {
        let small = Storing::nominal_sketch_bytes(&StoringConfig {
            alpha: 16,
            beta: 2,
            rows: 3,
        });
        let big = Storing::nominal_sketch_bytes(&StoringConfig {
            alpha: 64,
            beta: 8,
            rows: 3,
        });
        assert!(big > 4 * small);
    }
}
