//! Algorithm 1 — partitioning via heavy cells.
//!
//! Given (estimated) cell occupancies of every grid level, a cell
//! `C ∈ Gᵢ` (`i ∈ {−1, …, L−1}`) is **heavy** when `τ(C∩Q) ≥ Tᵢ(o)` *and*
//! all its ancestors are heavy; a cell is **crucial** when it is not heavy
//! (or sits at level `L`) but all its ancestors are. The part `Q_{i,j}`
//! collects the points of all crucial level-`i` cells below the `j`-th
//! heavy cell of `G_{i−1}` — so every part is contained in one heavy cell
//! of side `g_{i−1}` and has diameter at most `√d·g_{i−1} = 2√d·gᵢ`, the
//! property every variance bound in §3.2 rests on.
//!
//! The partition is never materialized point-by-point: [`Partition`]
//! stores only the heavy-cell sets (that *is* Algorithm 1's output) and
//! answers [`Partition::locate`] queries per point — which is also
//! exactly what the streaming and distributed implementations can afford
//! to store.

use crate::params::CoresetParams;
use sbc_geometry::{CellId, GridHierarchy, Point};
use std::collections::HashMap;

/// Per-level cell occupancy estimates `τ(C ∩ Q)`.
///
/// Offline, [`CellCounts::exact`] computes exact counts (the paper:
/// "for offline algorithm, it is easy to compute the exact value"); the
/// streaming pipeline populates the same structure with the Algorithm 3
/// sampling estimates.
#[derive(Clone, Debug)]
pub struct CellCounts {
    /// `levels[level + 1]` maps packed cell key → (mass, cell id), for
    /// levels `−1..=L`.
    levels: Vec<HashMap<u128, (f64, CellId)>>,
    l: u32,
}

impl CellCounts {
    /// Empty estimates for levels `−1..=L`.
    pub fn new(l: u32) -> Self {
        Self {
            levels: vec![HashMap::new(); l as usize + 2],
            l,
        }
    }

    /// Exact counts of `points` in every cell of every level.
    pub fn exact(points: &[Point], grid: &GridHierarchy) -> Self {
        let l = grid.l();
        let mut counts = Self::new(l);
        for p in points {
            for level in -1..=l as i32 {
                let cell = grid.cell_of(p, level);
                counts.add(cell, 1.0);
            }
        }
        counts
    }

    /// Adds `mass` to a cell's estimate.
    pub fn add(&mut self, cell: CellId, mass: f64) {
        let idx = (cell.level + 1) as usize;
        let key = cell.key128();
        self.levels[idx]
            .entry(key)
            .and_modify(|e| e.0 += mass)
            .or_insert((mass, cell));
    }

    /// Sets a cell's estimate outright (streaming estimators).
    pub fn set(&mut self, cell: CellId, mass: f64) {
        let idx = (cell.level + 1) as usize;
        let key = cell.key128();
        self.levels[idx].insert(key, (mass, cell));
    }

    /// The estimate `τ(C ∩ Q)`; cells never seen estimate to 0.
    pub fn estimate(&self, cell: &CellId) -> f64 {
        self.levels[(cell.level + 1) as usize]
            .get(&cell.key128())
            .map_or(0.0, |e| e.0)
    }

    /// Iterates the non-zero cells of a level (unspecified order).
    pub fn cells_at(&self, level: i32) -> impl Iterator<Item = (&CellId, f64)> {
        self.levels[(level + 1) as usize]
            .values()
            .map(|(m, c)| (c, *m))
    }

    /// Number of non-empty cells at a level.
    pub fn num_cells_at(&self, level: i32) -> usize {
        self.levels[(level + 1) as usize].len()
    }

    /// `L`.
    pub fn l(&self) -> u32 {
        self.l
    }
}

/// Why Algorithm 1/2 rejected this `o` guess.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionError {
    /// `Σ sᵢ` exceeded the heavy-cell budget (Algorithm 2 line 5) —
    /// the guess `o` is too small.
    TooManyHeavyCells {
        /// Heavy cells found before giving up.
        count: usize,
        /// The budget that was exceeded.
        budget: usize,
    },
    /// The root cell was not heavy — the guess `o` is far above the
    /// optimal cost (Fact A.1 guarantees a heavy root for `o ≤ OPT`).
    RootNotHeavy,
}

/// Output of Algorithm 1: the heavy-cell hierarchy.
#[derive(Clone, Debug)]
pub struct Partition {
    /// `heavy[level + 1]` maps a heavy cell's packed key → its index `j`
    /// among the heavy cells of that level (deterministic: sorted by
    /// `CellId`), for levels `−1..=L−1`.
    heavy: Vec<HashMap<u128, usize>>,
    /// `sᵢ` for `i ∈ 0..=L`: number of heavy cells in `G_{i−1}`.
    s: Vec<usize>,
    total_heavy: usize,
    l: u32,
}

impl Partition {
    /// Runs Algorithm 1 on the given occupancy estimates and `o` guess.
    ///
    /// Returns an error when the heavy-cell budget (Algorithm 2 line 5)
    /// is exceeded or the root cell fails to be heavy.
    pub fn build(
        counts: &CellCounts,
        params: &CoresetParams,
        o: f64,
    ) -> Result<Self, PartitionError> {
        let l = counts.l();
        let budget = params.max_heavy_cells().ceil() as usize;
        let mut heavy: Vec<HashMap<u128, usize>> = vec![HashMap::new(); l as usize + 1];
        let mut total = 0usize;

        for level in -1..=(l as i32 - 1) {
            let threshold = params.t_threshold(level, o);
            // Deterministic ordering: sort candidate heavy cells by id.
            let mut cells: Vec<(&CellId, f64)> = counts.cells_at(level).collect();
            cells.sort_by(|a, b| a.0.cmp(b.0));
            let mut j = 0usize;
            for (cell, mass) in cells {
                if mass < threshold {
                    continue;
                }
                if level >= 0 {
                    let parent = cell.parent();
                    if !heavy[(parent.level + 1) as usize].contains_key(&parent.key128()) {
                        continue; // an ancestor is not heavy
                    }
                }
                heavy[(level + 1) as usize].insert(cell.key128(), j);
                j += 1;
                total += 1;
                if total > budget {
                    return Err(PartitionError::TooManyHeavyCells {
                        count: total,
                        budget,
                    });
                }
            }
            if level == -1 && j == 0 {
                return Err(PartitionError::RootNotHeavy);
            }
        }

        let s = (0..=l as i32).map(|i| heavy[i as usize].len()).collect();
        Ok(Self {
            heavy,
            s,
            total_heavy: total,
            l,
        })
    }

    /// `Σᵢ sᵢ` — the total number of heavy cells.
    pub fn num_heavy(&self) -> usize {
        self.total_heavy
    }

    /// `sᵢ` — the number of parts at level `i ∈ 0..=L` (heavy cells in
    /// `G_{i−1}`).
    pub fn num_parts_at(&self, level: i32) -> usize {
        debug_assert!(level >= 0 && level <= self.l as i32);
        self.s[level as usize]
    }

    /// `L`.
    pub fn l(&self) -> u32 {
        self.l
    }

    /// Is this cell (level ≤ L−1) heavy?
    pub fn is_heavy(&self, cell: &CellId) -> bool {
        debug_assert!(cell.level < self.l as i32);
        self.heavy[(cell.level + 1) as usize].contains_key(&cell.key128())
    }

    /// The part index `j` of a heavy cell (which names part `Q_{i,j}` at
    /// level `i = cell.level + 1`).
    pub fn heavy_index(&self, cell: &CellId) -> Option<usize> {
        self.heavy[(cell.level + 1) as usize]
            .get(&cell.key128())
            .copied()
    }

    /// Locates the part containing `p`: the level `i` where `cᵢ(p)` is
    /// crucial and the index `j` of its heavy parent in `G_{i−1}`.
    /// Returns `None` when `p` hangs below a non-heavy ancestor chain
    /// (possible only with estimated counts — exact counts make every
    /// point locatable once the root is heavy... unless an intermediate
    /// cell fails the threshold, which *is* the crucial level).
    pub fn locate(&self, grid: &GridHierarchy, p: &Point) -> Option<(i32, usize)> {
        let root = grid.cell_of(p, -1);
        let mut parent_idx = self.heavy_index(&root)?;
        for level in 0..=self.l as i32 {
            let cell = grid.cell_of(p, level);
            if level == self.l as i32 {
                return Some((level, parent_idx));
            }
            match self.heavy_index(&cell) {
                None => return Some((level, parent_idx)),
                Some(j) => parent_idx = j,
            }
        }
        unreachable!("loop returns at level L")
    }

    /// Classifies a cell at level `i ∈ 0..=L`: crucial cells belong to the
    /// part of their heavy parent.
    pub fn part_of_cell(&self, cell: &CellId) -> Option<(i32, usize)> {
        debug_assert!(cell.level >= 0);
        let parent = cell.parent();
        let j = self.heavy_index(&parent)?;
        if cell.level < self.l as i32 && self.is_heavy(cell) {
            return None; // heavy itself ⇒ not crucial
        }
        Some((cell.level, j))
    }
}

/// Exact (or estimated) per-part masses: `τ(Q_{i,j})` and
/// `τ(⋃ⱼ Q_{i,j})`, computed from cell occupancies + the partition.
#[derive(Clone, Debug)]
pub struct PartMasses {
    /// `masses[i][j] = τ(Q_{i,j})` for levels `0..=L`.
    pub masses: Vec<Vec<f64>>,
    /// `level_mass[i] = τ(⋃ⱼ Q_{i,j})`.
    pub level_mass: Vec<f64>,
}

impl PartMasses {
    /// Aggregates crucial-cell masses into part masses, summing in cell
    /// order so the `f64` totals do not depend on hash-map iteration.
    pub fn from_counts(counts: &CellCounts, partition: &Partition) -> Self {
        let l = counts.l() as i32;
        let mut masses: Vec<Vec<f64>> = (0..=l)
            .map(|i| vec![0.0; partition.num_parts_at(i)])
            .collect();
        let mut level_mass = vec![0.0; l as usize + 1];
        for level in 0..=l {
            let mut cells: Vec<(&CellId, f64)> = counts.cells_at(level).collect();
            cells.sort_by(|a, b| a.0.cmp(b.0));
            for (cell, mass) in cells {
                if let Some((i, j)) = partition.part_of_cell(cell) {
                    debug_assert_eq!(i, level);
                    masses[level as usize][j] += mass;
                    level_mass[level as usize] += mass;
                }
            }
        }
        Self { masses, level_mass }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CoresetParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sbc_geometry::dataset::gaussian_mixture;
    use sbc_geometry::{GridHierarchy, GridParams};

    fn setup(n: usize, seed: u64) -> (GridParams, Vec<Point>, GridHierarchy) {
        let gp = GridParams::from_log_delta(7, 2); // Δ = 128
        let pts = gaussian_mixture(gp, n, 3, 0.04, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 1);
        let grid = GridHierarchy::new(gp, &mut rng);
        (gp, pts, grid)
    }

    #[test]
    fn exact_counts_are_consistent_across_levels() {
        let (_, pts, grid) = setup(200, 1);
        let counts = CellCounts::exact(&pts, &grid);
        // Every level's masses sum to n.
        for level in -1..=7i32 {
            let total: f64 = counts.cells_at(level).map(|(_, m)| m).sum();
            assert_eq!(total, 200.0, "level {level}");
        }
        // Level −1 has exactly one cell (Fact A.1).
        assert_eq!(counts.num_cells_at(-1), 1);
    }

    #[test]
    fn small_o_fails_large_o_root_not_heavy() {
        // Uniform data spreads mass over many cells, so a tiny o marks
        // (nearly) every non-empty cell heavy and blows the budget.
        let gp = GridParams::from_log_delta(7, 2);
        let pts = sbc_geometry::dataset::uniform(gp, 2000, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let grid = GridHierarchy::new(gp, &mut rng);
        let params = CoresetParams::builder(3, gp).build().unwrap();
        let counts = CellCounts::exact(&pts, &grid);
        // Tiny o ⇒ every tiny cell is heavy ⇒ budget blown.
        assert!(matches!(
            Partition::build(&counts, &params, 1e-6),
            Err(PartitionError::TooManyHeavyCells { .. })
        ));
        // Astronomical o ⇒ even the root misses T₋₁(o).
        assert!(matches!(
            Partition::build(&counts, &params, 1e18),
            Err(PartitionError::RootNotHeavy)
        ));
    }

    #[test]
    fn moderate_o_partitions_every_point() {
        let (gp, pts, grid) = setup(500, 3);
        let params = CoresetParams::builder(3, gp).build().unwrap();
        let counts = CellCounts::exact(&pts, &grid);
        // Find a workable o by doubling (mirrors Theorem 3.19's driver).
        let mut chosen = None;
        let mut o = 1.0;
        while o <= params.o_upper_bound(pts.len()) {
            if let Ok(p) = Partition::build(&counts, &params, o) {
                chosen = Some((o, p));
                break;
            }
            o *= 2.0;
        }
        let (_, partition) = chosen.expect("some o must work");
        // With exact counts and a heavy root, locate() places every point.
        for p in &pts {
            let (level, j) = partition.locate(&grid, p).expect("located");
            assert!((0..=7).contains(&level));
            assert!(j < partition.num_parts_at(level));
        }
    }

    #[test]
    fn part_masses_sum_to_located_points() {
        let (gp, pts, grid) = setup(400, 4);
        let params = CoresetParams::builder(3, gp).build().unwrap();
        let counts = CellCounts::exact(&pts, &grid);
        let mut o = 1.0;
        let partition = loop {
            match Partition::build(&counts, &params, o) {
                Ok(p) => break p,
                Err(_) => o *= 2.0,
            }
        };
        let pm = PartMasses::from_counts(&counts, &partition);
        let mass_total: f64 = pm.level_mass.iter().sum();
        // Exact counts: every point lies in exactly one crucial cell.
        assert_eq!(mass_total, 400.0);
        // Cross-check against locate().
        let mut recount: Vec<Vec<f64>> = (0..=7i32)
            .map(|i| vec![0.0; partition.num_parts_at(i)])
            .collect();
        for p in &pts {
            let (i, j) = partition.locate(&grid, p).unwrap();
            recount[i as usize][j] += 1.0;
        }
        for (i, (rc, mass)) in recount.iter().zip(&pm.masses).enumerate() {
            assert_eq!(rc, mass, "level {i}");
        }
    }

    #[test]
    fn heavy_nesting_is_enforced() {
        let (gp, pts, grid) = setup(300, 5);
        let params = CoresetParams::builder(2, gp).build().unwrap();
        let counts = CellCounts::exact(&pts, &grid);
        let mut o = 1.0;
        let partition = loop {
            match Partition::build(&counts, &params, o) {
                Ok(p) => break p,
                Err(_) => o *= 2.0,
            }
        };
        // Every heavy cell at level ≥ 0 must have a heavy parent.
        for level in 0..7i32 {
            for (cell, _) in counts.cells_at(level) {
                if partition.is_heavy(cell) {
                    assert!(partition.is_heavy(&cell.parent()), "orphan heavy cell");
                }
            }
        }
    }
}
