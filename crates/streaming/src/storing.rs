//! The `Storing(Gᵢ, α, β, δ)` subroutine (Lemma 4.2).
//!
//! For one grid level, a dynamic stream of point insertions/deletions is
//! summarized so that at end of stream the structure returns
//!
//! 1. the set `C` of non-empty cells,
//! 2. the count `f(C)` of points in each cell, and
//! 3. the set `S` of points lying in cells with at most `β` points,
//!
//! FAILing (with probability ≤ δ) only when `|C| > α`. Two backends:
//!
//! * [`Backend::Sketch`] — the genuine linear-sketch construction: an
//!   `α`-sparse recovery over cell keys for (1)–(2), and rows of
//!   cell-hashed buckets each holding a `2β`-sparse recovery over point
//!   keys for (3). Fixed size `O(α·β·rows·log)` bits, oblivious to how
//!   inserts and deletes interleave; cells colliding with an over-β cell
//!   in one row survive in another row w.h.p. — this is HSYZ18's scheme
//!   that Lemma 4.2 cites.
//! * [`Backend::Arena`] — a flat open-addressing table (DESIGN.md §9)
//!   with the same *output and FAIL semantics*, plus per-cell point
//!   eviction (cells whose multiplicity exceeds `2β` drop their point
//!   list, mirroring the sketch's bucket overflow) and a distinct-cell
//!   occupancy cap that kills runaway substreams cheaply. Behaviourally
//!   faithful, measured (not bounded) space; the only backend that
//!   checkpoints and merges. It is the one-view case of the nested arena
//!   the streaming builder keeps per (role, level) (`nested.rs`),
//!   which also describes its key widths and name tables.

use crate::checkpoint::ArenaCheckpoint;
use crate::nested::{Lifecycle, Nested, ViewSpec};
use crate::sparse::SSparseRecovery;
use rand::Rng;
use sbc_geometry::{CellId, GridHierarchy, Point};
use sbc_hash::KWiseHash;
use sbc_obs::fault::FaultPlan;
use sbc_obs::trace::{self, CausalIds, TraceKind};
use std::collections::HashMap;

/// Sizing of one `Storing` instance.
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

/// Which implementation backs a [`Storing`].
#[derive(Clone, Copy, Debug)]
pub enum Backend {
    /// Flat open-addressing arena backend (DESIGN.md §9) with per-cell
    /// eviction and an occupancy cap: cells are keyed by their packed
    /// ids (or mixing hashes, see `nested.rs`) in an
    /// `sbc_hash::OpenTable` and point payloads are dense
    /// `(point key, multiplicity)` vectors.
    Arena {
        /// Maximum distinct non-empty cells tracked before the structure
        /// declares itself overflowed (frees its memory, FAILs at
        /// finish). Set this several× above `alpha`.
        cap_cells: usize,
    },
    /// Linear-sketch backend (fixed space, needs packable keys).
    Sketch,
}

/// How a store died mid-stream (see [`Storing::death`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreDeath {
    /// Arena backend: distinct-cell occupancy hit `cap_cells` and the
    /// runaway substream was killed to reclaim its memory.
    RunawayKill,
    /// Sketch backend: the lazily-allocated bucket population overflowed
    /// its bound and the sketch was abandoned.
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
    /// The arena backend hit its occupancy cap mid-stream (the sketch
    /// analogue would simply decode garbage; we surface it explicitly).
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

/// Successful output of a [`Storing`] (Lemma 4.2 items 1–3).
#[derive(Clone, Debug, PartialEq)]
pub struct StoringOutput {
    /// Non-empty cells with their point counts.
    pub cells: Vec<(CellId, i64)>,
    /// Points (with multiplicity) lying in cells of ≤ β points.
    pub small_points: Vec<(Point, i64)>,
    /// Arena backend only: small cells whose point payload was evicted
    /// mid-stream (count exceeded `2β`, then deletions brought it back
    /// under `β`). Their points are *missing* from `small_points`;
    /// consumers that need them must treat the structure as failed. The
    /// sketch backend never populates this (linear sketches are oblivious
    /// to transient density).
    pub dirty_small_cells: Vec<CellId>,
}

/// One store view's state as version-3 checkpoints wrote it, one per
/// (instance, role, level) — still read by `Snapshot::from_bytes`, no
/// longer written (version 4 writes each nested arena once). Cells and
/// per-cell points are sorted by their `key128`.
#[derive(Clone, Debug, PartialEq)]
pub struct StoringSnapshot {
    /// Updates absorbed so far (drives fault-injection indices).
    pub updates: u64,
    /// Whether the store died mid-stream, and how.
    pub death: Option<StoreDeath>,
    /// Whether the death was injected (vs the natural occupancy cap).
    pub injected: bool,
    /// High-water mark of distinct non-empty cells.
    pub peak_cells: u64,
    /// Live cells, sorted by cell key.
    pub cells: Vec<CellSnapshot>,
}

/// One cell's state inside a [`StoringSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct CellSnapshot {
    /// The cell.
    pub cell: CellId,
    /// Net point count.
    pub count: i64,
    /// Whether the point payload was evicted mid-stream.
    pub dirty: bool,
    /// Point payload (with multiplicities), sorted by point key.
    pub points: Vec<(Point, i64)>,
}

/// One `Storing(Gᵢ, α, β, δ)` instance.
pub struct Storing {
    level: i32,
    grid: GridHierarchy,
    cfg: StoringConfig,
    inner: Inner,
}

enum Inner {
    /// The one-view case of the ladder's nested arena.
    Arena(Nested),
    Sketch(Box<Sketch>),
}

/// The linear-sketch backend's state.
struct Sketch {
    cell_sketch: SSparseRecovery,
    /// Per row: a pairwise hash over cell keys and its lazily allocated
    /// buckets of point sparse recoveries.
    rows: Vec<(KWiseHash, HashMap<u32, SSparseRecovery>)>,
    bucket_cols: u64,
    bucket_sparsity: usize,
    max_buckets: usize,
    dead: bool,
    seed: rand::rngs::StdRng,
    life: Lifecycle,
}

impl Sketch {
    /// Frees the buckets of a dead sketch.
    fn kill(&mut self) {
        self.dead = true;
        for (_, buckets) in self.rows.iter_mut() {
            buckets.clear();
            buckets.shrink_to_fit();
        }
    }

    /// One update with the full prelude: advances the update counter and
    /// fires any armed injected fault. Injected faults fire *before* the
    /// update at the kill index is applied; the update counter still
    /// advances while dead so the decision index stays path-independent.
    fn update(&mut self, point_key: u128, cell_key: u128, delta: i64) {
        sbc_obs::counter!("stream.store.updates").incr();
        if let Some(kind) = self.life.tick(!self.dead) {
            self.life.inject(kind);
            self.kill();
        }
        if self.dead {
            return;
        }
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
            self.kill();
            sbc_obs::counter!("stream.store.kill.sketch_overflow").incr();
            trace::event(
                TraceKind::StoreKill,
                "sketch_overflow",
                self.life.ids,
                self.life.updates,
            );
        }
    }
}

impl Storing {
    /// Creates a storing structure for grid level `level`.
    ///
    /// # Panics
    /// Panics if the sketch backend is requested but points or cells of
    /// this geometry do not pack into 128-bit keys (use `Arena` there).
    pub fn new<R: Rng + ?Sized>(
        grid: &GridHierarchy,
        level: i32,
        cfg: StoringConfig,
        backend: Backend,
        rng: &mut R,
    ) -> Self {
        assert!(cfg.alpha >= 1 && cfg.rows >= 1);
        let inner = match backend {
            Backend::Arena { cap_cells } => {
                Inner::Arena(Nested::new(grid, level, &[ViewSpec { cfg, cap_cells }]))
            }
            Backend::Sketch => {
                let gp = grid.params();
                let cell_width = if level >= 0 { (level + 2) as usize } else { 1 };
                let cell_bits = 6 + cell_width * gp.d;
                let point_bits = sbc_geometry::point::bits_for(gp.delta) as usize * gp.d;
                assert!(
                    point_bits <= 128 && cell_bits <= 128,
                    "sketch backend needs packable point/cell keys; use Backend::Arena"
                );
                use rand::SeedableRng;
                let rows = (0..cfg.rows)
                    .map(|_| (KWiseHash::new(2, rng), HashMap::new()))
                    .collect();
                sbc_obs::counter!("stream.store.spawned").incr();
                Inner::Sketch(Box::new(Sketch {
                    cell_sketch: SSparseRecovery::new(cfg.alpha, cfg.rows.max(3), rng),
                    rows,
                    bucket_cols: (4 * cfg.alpha).next_power_of_two() as u64,
                    bucket_sparsity: (2 * cfg.beta).max(2),
                    max_buckets: 8 * cfg.alpha,
                    dead: false,
                    seed: rand::rngs::StdRng::seed_from_u64(rng.gen()),
                    life: Lifecycle::default(),
                }))
            }
        };
        Self {
            level,
            grid: grid.clone(),
            cfg,
            inner,
        }
    }

    /// Assigns the store's causal trace identity (positional store id,
    /// grid level, ladder role) and records its spawn in the flight
    /// recorder. The spawn event's `arg` carries the cell budget `α`.
    pub fn set_trace_ids(&mut self, ids: CausalIds) {
        match &mut self.inner {
            Inner::Arena(a) => a.set_trace_ids(0, ids),
            Inner::Sketch(s) => s.life.spawn(ids, self.cfg.alpha),
        }
    }

    /// Arms deterministic fault injection: the store dies (with the
    /// plan's configured kind) when its own update count reaches the
    /// plan's kill index, if `salt` is among the selected fraction.
    /// `salt` must identify the store's *position* (instance/role/level)
    /// rather than anything arrival-order-dependent, so per-op, batched,
    /// and parallel ingest kill the same stores at the same points.
    pub fn arm_fault(&mut self, plan: FaultPlan, salt: u64) {
        match &mut self.inner {
            Inner::Arena(a) => a.arm_fault(0, plan, salt),
            Inner::Sketch(s) => s.life.arm(plan, salt),
        }
    }

    /// The grid level this instance summarizes.
    pub fn level(&self) -> i32 {
        self.level
    }

    /// The small-cell threshold β.
    pub fn beta(&self) -> usize {
        self.cfg.beta
    }

    /// The cell budget α.
    pub fn alpha(&self) -> usize {
        self.cfg.alpha
    }

    /// The full sizing configuration (for nominal space accounting).
    pub fn config(&self) -> &StoringConfig {
        &self.cfg
    }

    fn life(&self) -> &Lifecycle {
        match &self.inner {
            Inner::Arena(a) => a.lifecycle(0),
            Inner::Sketch(s) => &s.life,
        }
    }

    /// Total updates this structure has absorbed (including ones ignored
    /// because the structure was already dead).
    pub fn update_count(&self) -> u64 {
        self.life().updates
    }

    /// Applies `(p, ±1)` (or any delta) to the structure.
    pub fn update(&mut self, p: &Point, delta: i64) {
        let cell_key = self.grid.cell_of(p, self.level).key128();
        let point_key = p.key128(self.grid.params().delta);
        self.update_precomputed(p, point_key, cell_key, delta);
    }

    /// [`Self::update`] with the keys precomputed (the pipeline shares
    /// them across many instances): the point's `key128` and its cell's
    /// at this level.
    pub fn update_precomputed(&mut self, p: &Point, point_key: u128, cell_key: u128, delta: i64) {
        self.update_many(std::iter::once((p, point_key, cell_key, delta)));
    }

    /// Drains a batch of `(point, point key, cell key, delta)` updates,
    /// in order — the one ingest entry point. The point itself is read
    /// only to name keys that are mixing hashes (see `nested.rs`).
    pub fn update_many<'a, I: Iterator<Item = (&'a Point, u128, u128, i64)>>(&mut self, items: I) {
        match &mut self.inner {
            Inner::Arena(a) => a.drain(&self.grid, items.map(|(p, pk, ck, d)| (p, pk, ck, d, 1))),
            Inner::Sketch(s) => {
                for (_, point_key, cell_key, delta) in items {
                    s.update(point_key, cell_key, delta);
                }
            }
        }
    }

    /// Decodes the structure (Lemma 4.2 output).
    pub fn finish(&self) -> Result<StoringOutput, StoringFail> {
        let s = match &self.inner {
            Inner::Arena(a) => return a.finish(&self.grid, 0),
            Inner::Sketch(s) => s,
        };
        if s.dead {
            return Err(StoringFail::Overflowed);
        }
        let gp = self.grid.params();
        let decoded = s.cell_sketch.decode().ok_or(StoringFail::DecodeFailed)?;
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
                for (hash, buckets) in &s.rows {
                    let idx = (hash.eval(cell_key) % s.bucket_cols) as u32;
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

    /// Whether the structure has irrecoverably overflowed.
    pub fn is_dead(&self) -> bool {
        match &self.inner {
            Inner::Arena(a) => a.is_dead(0),
            Inner::Sketch(s) => s.dead,
        }
    }

    /// How the structure died, or `None` if it is still live (will reach
    /// its natural end of stream). An injected death reports its forced
    /// kind, which may differ from the backend's natural one.
    pub fn death(&self) -> Option<StoreDeath> {
        match &self.inner {
            Inner::Arena(a) => a.death(0),
            Inner::Sketch(s) => s
                .life
                .injected
                .or(s.dead.then_some(StoreDeath::SketchOverflow)),
        }
    }

    /// Measured bytes of state right now. Deterministic given the
    /// logical state (never reads transient allocator capacities), so
    /// space reports agree across ingest paths and checkpoint restores.
    pub fn stored_bytes(&self) -> usize {
        match &self.inner {
            Inner::Arena(a) => a.stored_bytes(&self.grid),
            Inner::Sketch(s) => {
                s.cell_sketch.stored_bytes()
                    + s.rows
                        .iter()
                        .map(|(h, buckets)| {
                            h.stored_bytes()
                                + buckets.values().map(|b| b.stored_bytes()).sum::<usize>()
                        })
                        .sum::<usize>()
            }
        }
    }

    /// Capacity-model bytes at *realized* occupancy: what a deployment
    /// sized to this store's actual high-water marks reserves. The arena
    /// backend rounds its cell table up to the power of two covering
    /// `peak_cells` (hash-table style); the sketch backend is genuinely
    /// fully allocated up front, so its reservation *is*
    /// [`Self::nominal_sketch_bytes`]. Dead arenas freed their memory
    /// and reserve nothing. Deterministic given logical state, like
    /// [`Self::stored_bytes`] — the two bracket each other within the
    /// power-of-two rounding slack, which the space tests pin to a small
    /// constant factor.
    pub fn expected_bytes(&self) -> usize {
        match &self.inner {
            Inner::Arena(a) => a.expected_bytes(&self.grid),
            Inner::Sketch(_) => Self::nominal_sketch_bytes(&self.cfg),
        }
    }

    /// Arena-backend occupancy: `(deterministic slot capacity, live
    /// entries)` summed into the space report's load-factor fields.
    /// `None` for the sketch backend and for dead (freed) arenas.
    pub fn arena_occupancy(&self) -> Option<(usize, usize)> {
        match &self.inner {
            Inner::Arena(a) => a.occupancy(),
            Inner::Sketch(_) => None,
        }
    }

    /// Captures the arena backend's full dynamic state, in the canonical
    /// order a checkpoint writes it. Returns `None` for the sketch
    /// backend (not checkpointable; the builder surfaces this as an
    /// `UnsupportedBackend` checkpoint error).
    pub fn checkpoint(&self) -> Option<ArenaCheckpoint> {
        match &self.inner {
            Inner::Arena(a) => Some(a.checkpoint()),
            Inner::Sketch(_) => None,
        }
    }

    /// Overwrites this store's dynamic state with a checkpoint's. The
    /// store must be freshly built with the same structural parameters
    /// (grid, level, config, backend) the checkpoint was taken under.
    /// Returns `false` on the sketch backend and on a checkpoint that
    /// contradicts itself.
    pub fn load_checkpoint(&mut self, ck: &ArenaCheckpoint) -> bool {
        match &mut self.inner {
            Inner::Arena(a) => a.load_arena(&self.grid, ck, &|keys, cuts| {
                cuts.extend(keys.iter().map(|_| 1));
            }),
            Inner::Sketch(_) => false,
        }
    }

    /// Folds another store's state into this one — the composability
    /// step of a coreset merge tree (arena backend only; returns `false`
    /// without touching `self` when either side is sketch-backed).
    ///
    /// Both stores must summarize the *same* subsampled substream role
    /// (same grid, level, sizing) over **disjoint** shards of one
    /// logical stream; the builder guarantees this structurally. The
    /// merge mirrors what the monolithic store would have held:
    ///
    /// * cell counts add; a cell netting to zero with no pending point
    ///   payload is removed, exactly like [`Self::update_many`];
    /// * point payloads union with multiplicity addition (zero entries
    ///   removed); a cell whose merged count exceeds `2β` evicts its
    ///   payload and turns dirty, mirroring the mid-stream eviction —
    ///   for non-negative shard counts this is *associative*: the final
    ///   dirty set depends only on the merged totals, not the fold shape;
    /// * a dead side poisons the merge (its substream summary is gone
    ///   for good), keeping the already-recorded death kind;
    /// * the merged occupancy is re-checked against `cap_cells`, so a
    ///   runaway substream that was split under the cap across shards
    ///   still dies at the merge, like it would have monolithically;
    /// * update counters add and `peak_cells` takes the max of both
    ///   sides and the merged occupancy.
    ///
    /// No fault-injection decisions fire during a merge — kill indices
    /// are positional per-store update counts, which each shard already
    /// advanced; the merged counter is their sum.
    pub fn merge_from(&mut self, other: &Storing) -> bool {
        match (&mut self.inner, &other.inner) {
            (Inner::Arena(a), Inner::Arena(o)) => a.merge_from(o),
            _ => false,
        }
    }

    /// The space a fully allocated sketch of this configuration occupies
    /// — the Lemma 4.2 `O(αβ·dL·log²(αβ/δ))`-style accounting used by
    /// experiment E4 regardless of backend. Saturates at `usize::MAX`
    /// for configurations no sketch could be allocated for.
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
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sbc_geometry::dataset::uniform;
    use sbc_geometry::GridParams;

    fn setup() -> (GridHierarchy, Vec<Point>) {
        let gp = GridParams::from_log_delta(6, 2); // Δ = 64
        let mut rng = StdRng::seed_from_u64(1);
        let grid = GridHierarchy::new(gp, &mut rng);
        let pts = uniform(gp, 120, 2);
        (grid, pts)
    }

    const ARENA: Backend = Backend::Arena { cap_cells: 4096 };

    /// Inserts `pts`, deletes the second half, and returns the store's
    /// output next to a ground-truth recount of the surviving half.
    fn run_backend(
        grid: &GridHierarchy,
        pts: &[Point],
        level: i32,
        backend: Backend,
    ) -> (StoringOutput, StoringOutput) {
        let cfg = StoringConfig {
            alpha: 256,
            beta: 8,
            rows: 4,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let mut st = Storing::new(grid, level, cfg, backend, &mut rng);
        let half = pts.len() / 2;
        for p in pts {
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
        // store reports one entry with the net multiplicity).
        let mut small_map: HashMap<Point, i64> = HashMap::new();
        for p in &pts[..half] {
            if truth_cells[&grid.cell_of(p, level)] <= 8 {
                *small_map.entry(p.clone()).or_insert(0) += 1;
            }
        }
        let mut small: Vec<(Point, i64)> = small_map.into_iter().collect();
        small.sort_by(|a, b| a.0.cmp(&b.0));
        (
            got,
            StoringOutput {
                cells,
                small_points: small,
                dirty_small_cells: Vec::new(),
            },
        )
    }

    #[test]
    fn sketch_backend_matches_ground_truth_under_deletions() {
        let (grid, pts) = setup();
        let (got, want) = run_backend(&grid, &pts, 4, Backend::Sketch);
        assert_eq!(got.cells, want.cells);
        assert_eq!(got.small_points, want.small_points);
    }

    #[test]
    fn arena_backend_matches_ground_truth_under_deletions() {
        let (grid, pts) = setup();
        let (got, want) = run_backend(&grid, &pts, 4, ARENA);
        assert_eq!(got.cells, want.cells);
        assert_eq!(got.small_points, want.small_points);
    }

    /// The same ground truth where keys do not pack into 64 bits: cells
    /// packed in 128 bits, cells named by mixing hash, and (d = 16)
    /// points named by mixing hash too.
    #[test]
    fn arena_backend_matches_ground_truth_at_wide_geometries() {
        for (d, level) in [(12, 8), (12, 9), (16, 4), (16, 7)] {
            let gp = GridParams::from_log_delta(10, d);
            let mut rng = StdRng::seed_from_u64(d as u64);
            let grid = GridHierarchy::new(gp, &mut rng);
            let pts = uniform(gp, 120, d as u64);
            let st = Storing::new(&grid, level, cfg_small(), ARENA, &mut rng);
            assert!(
                matches!(&st.inner, Inner::Arena(a) if a.is_wide()),
                "d = {d}, level {level}"
            );
            let (got, want) = run_backend(&grid, &pts, level, ARENA);
            assert_eq!(got.cells, want.cells, "d = {d}, level {level}");
            assert_eq!(
                got.small_points, want.small_points,
                "d = {d}, level {level}"
            );
            assert!(!got.small_points.is_empty());
        }
    }

    fn cfg_small() -> StoringConfig {
        StoringConfig {
            alpha: 64,
            beta: 2,
            rows: 2,
        }
    }

    /// Name tables hold exactly the live keys: one cell name per live
    /// cell, one point name per payload entry, through insertions,
    /// evictions, deletions and a merge — so a wide store's memory
    /// follows its occupancy, not the keys it ever saw.
    #[test]
    fn name_tables_track_live_keys_only() {
        let gp = GridParams::from_log_delta(10, 16);
        let mut rng = StdRng::seed_from_u64(21);
        let grid = GridHierarchy::new(gp, &mut rng);
        let pts = uniform(gp, 200, 21);
        let hot = pts[0].clone();
        let check = |st: &Storing| {
            let Inner::Arena(a) = &st.inner else {
                panic!("arena backend")
            };
            assert!(a.is_wide(), "d = 16 at level 7 is keyed wide");
            let (cells, payload, cell_names, point_names) = a.name_counts();
            assert_eq!((cell_names, point_names), (Some(cells), Some(payload)));
        };
        let mk = |rng: &mut StdRng| Storing::new(&grid, 7, cfg_small(), ARENA, rng);
        let (mut a, mut b) = (mk(&mut rng), mk(&mut rng));
        for p in &pts[..100] {
            a.update(p, 1);
        }
        for _ in 0..6 {
            a.update(&hot, 1); // past 2β: evicts the hot cell's payload
        }
        check(&a);
        for p in &pts[..60] {
            a.update(p, -1);
        }
        check(&a);
        for p in &pts[50..] {
            b.update(p, 1);
        }
        assert!(a.merge_from(&b));
        check(&a);
        let snap = a.checkpoint().expect("arena checkpoint");
        let mut c = mk(&mut rng);
        assert!(c.load_checkpoint(&snap));
        check(&c);
        assert_eq!(c.checkpoint(), Some(snap));
        assert_eq!(c.finish(), a.finish());
    }

    #[test]
    fn fails_when_cells_exceed_alpha() {
        let (grid, pts) = setup();
        let cfg = StoringConfig {
            alpha: 4,
            beta: 4,
            rows: 3,
        };
        let mut rng = StdRng::seed_from_u64(4);
        for backend in [ARENA, Backend::Sketch] {
            let mut st = Storing::new(&grid, 6, cfg, backend, &mut rng);
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
        let mut st = Storing::new(&grid, 2, cfg, Backend::Sketch, &mut rng);
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
    fn arena_dirty_small_cell_detected() {
        // Blow a cell past 2β, then delete back under β: the arena
        // backend must refuse rather than silently return partial points.
        let gp = GridParams::from_log_delta(6, 2);
        let grid = GridHierarchy::unshifted(gp);
        let cfg = StoringConfig {
            alpha: 64,
            beta: 2,
            rows: 2,
        };
        let mut rng = StdRng::seed_from_u64(7);
        let mut st = Storing::new(&grid, 5, cfg, Backend::Arena { cap_cells: 512 }, &mut rng);
        // Level-5 cells have side 2: one point with multiplicity 8 fills
        // one cell past 2β.
        let p = Point::new(vec![1, 1]);
        for _ in 0..8 {
            st.update(&p, 1);
        }
        for _ in 0..7 {
            st.update(&p, -1);
        }
        let out = st.finish().expect("counts still valid");
        assert_eq!(
            out.dirty_small_cells.len(),
            1,
            "the churned cell is flagged"
        );
        assert!(out.small_points.is_empty(), "its points are not fabricated");
        assert_eq!(out.cells.len(), 1);
        assert_eq!(out.cells[0].1, 1, "count survives eviction");
    }

    #[test]
    fn update_many_matches_per_update_path() {
        // The hoisted batch drain must be indistinguishable from the
        // per-update path (forced here by a fault plan that is armed but
        // never fires) — including with churn (zero-removal), at narrow
        // and wide key widths, and when the occupancy cap kills the
        // store mid-batch (the update counter must keep advancing for
        // the items after the kill).
        let never = FaultPlan {
            store_kill_at: Some(u64::MAX),
            store_kill_permille: 1000,
            ..FaultPlan::NONE
        };
        let cfg = StoringConfig {
            alpha: 256,
            beta: 2,
            rows: 4,
        };
        let (narrow, narrow_pts) = setup();
        let wide_gp = GridParams::from_log_delta(10, 16);
        let wide = GridHierarchy::new(wide_gp, &mut StdRng::seed_from_u64(8));
        let wide_pts = uniform(wide_gp, 120, 8);
        for (grid, pts, level) in [(&narrow, &narrow_pts, 4), (&wide, &wide_pts, 7)] {
            let delta = grid.params().delta;
            let ops: Vec<(&Point, u128, u128, i64)> = pts
                .iter()
                .flat_map(|p| {
                    let pk = p.key128(delta);
                    let ck = grid.cell_of(p, level).key128();
                    [(p, pk, ck, 1), (p, pk, ck, 1), (p, pk, ck, -1)]
                })
                .collect();
            for backend in [ARENA, Backend::Arena { cap_cells: 8 }] {
                let mk = || {
                    let mut rng = StdRng::seed_from_u64(10);
                    Storing::new(grid, level, cfg, backend, &mut rng)
                };
                let (mut per_update, mut batched) = (mk(), mk());
                per_update.arm_fault(never, 1);
                for &(p, pk, ck, d) in &ops {
                    per_update.update_precomputed(p, pk, ck, d);
                }
                batched.update_many(ops.iter().copied());
                assert_eq!(per_update.update_count(), batched.update_count());
                assert_eq!(per_update.checkpoint(), batched.checkpoint());
                assert_eq!(per_update.finish(), batched.finish());
                assert_eq!(per_update.is_dead(), batched.is_dead());
            }
        }
    }

    #[test]
    fn arena_cap_kills_runaway_stream() {
        let (grid, pts) = setup();
        let cfg = StoringConfig {
            alpha: 4,
            beta: 2,
            rows: 2,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let mut st = Storing::new(&grid, 6, cfg, Backend::Arena { cap_cells: 8 }, &mut rng);
        for p in &pts {
            st.update(p, 1);
        }
        assert!(st.is_dead());
        assert_eq!(st.death(), Some(StoreDeath::RunawayKill));
        assert_eq!(st.finish().unwrap_err(), StoringFail::Overflowed);
        // Dead structures hold (almost) no memory.
        assert!(st.stored_bytes() < 256);
        assert_eq!(st.arena_occupancy(), None);
    }

    /// A dead side poisons the merge identically for arena stores.
    #[test]
    fn merge_dead_side_poisons_arena() {
        let (grid, pts) = setup();
        let cfg = StoringConfig {
            alpha: 4,
            beta: 2,
            rows: 2,
        };
        let mut rng = StdRng::seed_from_u64(13);
        let mut live = Storing::new(&grid, 6, cfg, Backend::Arena { cap_cells: 8 }, &mut rng);
        let mut dead = Storing::new(&grid, 6, cfg, Backend::Arena { cap_cells: 8 }, &mut rng);
        live.update(&pts[0], 1);
        for p in &pts {
            dead.update(p, 1);
        }
        assert!(dead.is_dead());
        assert!(live.merge_from(&dead));
        assert!(live.is_dead());
        assert!(live.stored_bytes() < 256);
    }

    #[test]
    fn arena_occupancy_reports_capacity_and_live_cells() {
        let (grid, pts) = setup();
        let cfg = StoringConfig {
            alpha: 256,
            beta: 8,
            rows: 4,
        };
        let mut rng = StdRng::seed_from_u64(14);
        let mut st = Storing::new(&grid, 4, cfg, ARENA, &mut rng);
        assert_eq!(
            st.arena_occupancy(),
            Some((st.arena_occupancy().unwrap().0, 0))
        );
        for p in &pts {
            st.update(p, 1);
        }
        let (slots, live) = st.arena_occupancy().expect("arena backend");
        assert!(live > 0);
        assert!(slots >= live, "load factor below 1: {live}/{slots}");
        assert!(live * 8 <= slots * 7, "within the ⅞ load bound");
        // Sketch backends report nothing.
        let sk = Storing::new(&grid, 4, cfg, Backend::Sketch, &mut rng);
        assert_eq!(sk.arena_occupancy(), None);
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
