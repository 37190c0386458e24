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
//! * [`Backend::Exact`] — hash maps with the same *output and FAIL
//!   semantics*, plus per-cell point eviction (cells whose multiplicity
//!   exceeds `2β` drop their point list, mirroring the sketch's bucket
//!   overflow) and a distinct-cell occupancy cap that kills runaway
//!   substreams cheaply. Behaviourally faithful, measured (not bounded)
//!   space; the default for large exact-validation runs.

use crate::sparse::SSparseRecovery;
use rand::Rng;
use sbc_geometry::{CellId, GridHierarchy, Point};
use sbc_hash::{slots_for, KWiseHash, Key128Map, OpenTable};
use sbc_obs::fault::{FaultPlan, StoreFaultKind};
use sbc_obs::trace::{self, CausalIds, TraceKind};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Sizing of one `Storing` instance.
#[derive(Clone, Copy, Debug)]
pub struct StoringConfig {
    /// Cell budget `α`: FAIL when more non-empty cells survive. Also the
    /// floor of the exact/arena occupancy cap; it sizes no table (arenas
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
    /// Hash-map backend with per-cell eviction and an occupancy cap.
    Exact {
        /// Maximum distinct non-empty cells tracked before the structure
        /// declares itself overflowed (frees its memory, FAILs at
        /// finish). Set this several× above `alpha`.
        cap_cells: usize,
    },
    /// Flat open-addressing arena backend (DESIGN.md §9): the same
    /// output/FAIL/eviction semantics as [`Backend::Exact`], bit for
    /// bit, but cells are keyed by their *packed* `u64` ids in an
    /// [`OpenTable`] and point payloads are dense `(packed key,
    /// multiplicity)` vectors. Requires packable cell and point keys
    /// (the batched kernel gate checks this before selecting it).
    Arena {
        /// Occupancy cap, as for [`Backend::Exact`].
        cap_cells: usize,
    },
    /// Linear-sketch backend (fixed space, needs packable keys).
    Sketch,
}

/// How a store died mid-stream (see [`Storing::death`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreDeath {
    /// Exact backend: distinct-cell occupancy hit `cap_cells` and the
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
    /// The exact backend hit its occupancy cap mid-stream (the sketch
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
    /// Exact backend only: small cells whose point payload was evicted
    /// mid-stream (count exceeded `2β`, then deletions brought it back
    /// under `β`). Their points are *missing* from `small_points`;
    /// consumers that need them must treat the structure as failed. The
    /// sketch backend never populates this (linear sketches are oblivious
    /// to transient density).
    pub dirty_small_cells: Vec<CellId>,
}

struct CellRec {
    count: i64,
    dirty: bool,
    cell: CellId,
    points: Key128Map<(Point, i64)>,
}

/// One cell's state in the arena backend: the cell id lives in the
/// table key (packed `u64`), points live as packed `u128` keys — both
/// reconstructed via `unpack` only at finish/snapshot boundaries.
#[derive(Clone)]
struct ArenaRec {
    count: i64,
    dirty: bool,
    points: Vec<(u128, i64)>,
}

enum Inner {
    Exact {
        cells: Key128Map<CellRec>,
        cap_cells: usize,
        dead: bool,
        peak_cells: usize,
    },
    Arena {
        table: OpenTable<ArenaRec>,
        cap_cells: usize,
        dead: bool,
        peak_cells: usize,
    },
    Sketch {
        cell_sketch: SSparseRecovery,
        /// Per row: a pairwise hash over cell keys and its lazily
        /// allocated buckets of point sparse recoveries.
        rows: Vec<(KWiseHash, HashMap<u32, SSparseRecovery>)>,
        bucket_cols: u64,
        bucket_sparsity: usize,
        max_buckets: usize,
        dead: bool,
        seed: rand::rngs::StdRng,
    },
}

/// Applies one update to a cell's point payload (exact backend): tracks
/// net multiplicities while the cell is small, and mirrors the sketch's
/// bucket overflow by dropping the payload once the cell grows past `2β`.
#[inline]
fn update_points(rec: &mut CellRec, p: &Point, point_key: u128, delta: i64, beta: i64) {
    if rec.dirty {
        return;
    }
    let obs_on = sbc_obs::enabled();
    let cap_before = if obs_on { rec.points.capacity() } else { 0 };
    match rec.points.entry(point_key) {
        Entry::Vacant(v) => {
            if delta != 0 {
                v.insert((p.clone(), delta));
            }
        }
        Entry::Occupied(mut o) => {
            o.get_mut().1 += delta;
            if o.get().1 == 0 {
                o.remove();
            }
        }
    }
    if obs_on {
        sbc_obs::counter!("stream.store.map_probes").incr();
        if rec.points.capacity() != cap_before {
            sbc_obs::counter!("stream.store.map_resizes").incr();
        }
    }
    if rec.count > 2 * beta.max(1) {
        rec.points.clear();
        rec.points.shrink_to_fit();
        rec.dirty = true;
    }
}

/// [`update_points`] for the arena backend: identical semantics over a
/// dense `(packed key, multiplicity)` vector. Payloads hold at most
/// ~`2β` entries (the eviction bound), so a linear scan beats a hash
/// probe on both instructions and cache lines.
#[inline]
fn update_points_arena(rec: &mut ArenaRec, point_key: u128, delta: i64, beta: i64) {
    if rec.dirty {
        return;
    }
    if sbc_obs::enabled() {
        sbc_obs::counter!("stream.store.map_probes").incr();
    }
    match rec.points.iter().position(|&(k, _)| k == point_key) {
        None => {
            if delta != 0 {
                rec.points.push((point_key, delta));
            }
        }
        Some(i) => {
            rec.points[i].1 += delta;
            if rec.points[i].1 == 0 {
                rec.points.swap_remove(i);
            }
        }
    }
    if rec.count > 2 * beta.max(1) {
        rec.points = Vec::new();
        rec.dirty = true;
    }
}

/// Checkpointable state of one exact-backend [`Storing`] instance —
/// everything [`Storing::from_snapshot`] needs to resume bit-identically
/// (the grid and sizing configuration are *not* included; they are
/// structural and re-derived by the builder on restore). Cells and
/// per-cell points are sorted by packed key, so encoding a snapshot is
/// canonical: encode → decode → encode is the identity on bytes.
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
    /// Live cells, sorted by packed cell key.
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
    /// Point payload (with multiplicities), sorted by packed point key.
    pub points: Vec<(Point, i64)>,
}

/// One `Storing(Gᵢ, α, β, δ)` instance.
pub struct Storing {
    level: i32,
    grid: GridHierarchy,
    cfg: StoringConfig,
    inner: Inner,
    updates: u64,
    fault: FaultPlan,
    fault_salt: u64,
    /// Set when a death was *injected* (the natural kind is derivable
    /// from the backend; an injected one can force either kind).
    injected: Option<StoreDeath>,
    /// Trace identity: positional store id + `(level, role)` tags stamped
    /// on this store's lifecycle events. [`CausalIds::NONE`] until the
    /// ladder assigns it via [`Self::set_trace_ids`].
    ids: CausalIds,
}

impl Storing {
    /// Creates a storing structure for grid level `level`.
    ///
    /// # Panics
    /// Panics if the sketch backend is requested but points or cells of
    /// this geometry do not pack into 128-bit keys (use `Exact` there).
    pub fn new<R: Rng + ?Sized>(
        grid: &GridHierarchy,
        level: i32,
        cfg: StoringConfig,
        backend: Backend,
        rng: &mut R,
    ) -> Self {
        assert!(cfg.alpha >= 1 && cfg.rows >= 1);
        let inner = match backend {
            Backend::Exact { cap_cells } => Inner::Exact {
                cells: Key128Map::default(),
                cap_cells: cap_cells.max(cfg.alpha),
                dead: false,
                peak_cells: 0,
            },
            Backend::Arena { cap_cells } => {
                let gp = grid.params();
                let cell_width = if level >= 0 { (level + 2) as usize } else { 1 };
                let point_bits = sbc_geometry::point::bits_for(gp.delta) as usize * gp.d;
                assert!(
                    6 + cell_width * gp.d <= 64 && point_bits <= 128,
                    "arena backend needs u64 cell keys and packable points; use Backend::Exact"
                );
                Inner::Arena {
                    table: OpenTable::default(),
                    cap_cells: cap_cells.max(cfg.alpha),
                    dead: false,
                    peak_cells: 0,
                }
            }
            Backend::Sketch => {
                let gp = grid.params();
                let bits = sbc_geometry::point::bits_for(gp.delta) as usize * gp.d;
                assert!(
                    bits <= 128 && 6 + ((level.max(0) + 2) as usize) * gp.d <= 128,
                    "sketch backend needs packable point/cell keys; use Backend::Exact"
                );
                use rand::SeedableRng;
                let rows = (0..cfg.rows)
                    .map(|_| (KWiseHash::new(2, rng), HashMap::new()))
                    .collect();
                Inner::Sketch {
                    cell_sketch: SSparseRecovery::new(cfg.alpha, cfg.rows.max(3), rng),
                    rows,
                    bucket_cols: (4 * cfg.alpha).next_power_of_two() as u64,
                    bucket_sparsity: (2 * cfg.beta).max(2),
                    max_buckets: 8 * cfg.alpha,
                    dead: false,
                    seed: rand::rngs::StdRng::seed_from_u64(rng.gen()),
                }
            }
        };
        sbc_obs::counter!("stream.store.spawned").incr();
        Self {
            level,
            grid: grid.clone(),
            cfg,
            inner,
            updates: 0,
            fault: FaultPlan::NONE,
            fault_salt: 0,
            injected: None,
            ids: CausalIds::NONE,
        }
    }

    /// Assigns the store's causal trace identity (positional store id,
    /// grid level, ladder role) and records its spawn in the flight
    /// recorder. Called once by the ladder right after construction; the
    /// spawn event's `arg` carries the cell budget `α`.
    pub fn set_trace_ids(&mut self, ids: CausalIds) {
        self.ids = ids;
        trace::event(TraceKind::StoreSpawn, "store", ids, self.cfg.alpha as u64);
    }

    /// Arms deterministic fault injection: the store dies (with the
    /// plan's configured kind) when its own update count reaches the
    /// plan's kill index, if `salt` is among the selected fraction.
    /// `salt` must identify the store's *position* (instance/role/level)
    /// rather than anything arrival-order-dependent, so per-op, batched,
    /// and parallel ingest kill the same stores at the same points.
    pub fn arm_fault(&mut self, plan: FaultPlan, salt: u64) {
        self.fault = plan;
        self.fault_salt = salt;
    }

    /// Kills the store as an injected fault of the given kind: memory is
    /// freed exactly like the corresponding natural death, and
    /// [`Self::death`] reports the forced kind.
    fn kill_injected(&mut self, kind: StoreFaultKind) {
        let death = match kind {
            StoreFaultKind::RunawayKill => StoreDeath::RunawayKill,
            StoreFaultKind::SketchOverflow => StoreDeath::SketchOverflow,
        };
        self.injected = Some(death);
        match &mut self.inner {
            Inner::Exact { cells, dead, .. } => {
                *dead = true;
                cells.clear();
                cells.shrink_to_fit();
            }
            Inner::Arena { table, dead, .. } => {
                *dead = true;
                table.clear_shrink();
            }
            Inner::Sketch { rows, dead, .. } => {
                *dead = true;
                for (_, buckets) in rows.iter_mut() {
                    buckets.clear();
                    buckets.shrink_to_fit();
                }
            }
        }
        match death {
            StoreDeath::RunawayKill => sbc_obs::counter!("stream.store.kill.runaway_kill").incr(),
            StoreDeath::SketchOverflow => {
                sbc_obs::counter!("stream.store.kill.sketch_overflow").incr()
            }
        }
        let label = match death {
            StoreDeath::RunawayKill => "runaway_kill",
            StoreDeath::SketchOverflow => "sketch_overflow",
        };
        // An injected kill is a Fault event (it also triggers a crash
        // dump); `arg` is the update index the kill fired at.
        trace::event(TraceKind::Fault, label, self.ids, self.updates);
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

    /// Total updates this structure has absorbed (including ones ignored
    /// because the structure was already dead).
    pub fn update_count(&self) -> u64 {
        self.updates
    }

    /// Applies `(p, ±1)` (or any delta) to the structure.
    pub fn update(&mut self, p: &Point, delta: i64) {
        let cell = self.grid.cell_of(p, self.level);
        let cell_key = cell.key128();
        let point_key = p.key128(self.grid.params().delta);
        self.update_precomputed(p, point_key, &cell, cell_key, delta);
    }

    /// Shared update prelude: advances the update counter and fires any
    /// armed injected fault. Injected faults fire *before* the update at
    /// the kill index is applied; the update counter still advances
    /// while dead so the decision index stays path-independent.
    #[inline]
    fn pre_update(&mut self) {
        self.updates += 1;
        sbc_obs::counter!("stream.store.updates").incr();
        if self.injected.is_none() && self.fault.is_active() && !self.is_dead() {
            if let Some(kind) = self.fault.store_fault(self.fault_salt, self.updates - 1) {
                self.kill_injected(kind);
            }
        }
    }

    /// [`Self::update`] with the cell and keys precomputed (the pipeline
    /// shares them across many instances).
    pub fn update_precomputed(
        &mut self,
        p: &Point,
        point_key: u128,
        cell: &CellId,
        cell_key: u128,
        delta: i64,
    ) {
        self.pre_update();
        match &self.inner {
            Inner::Exact { .. } => self.update_exact(p, point_key, cell, cell_key, delta),
            Inner::Arena { .. } => self.update_arena(point_key, cell_key, delta),
            Inner::Sketch { .. } => self.update_sketch(point_key, cell_key, delta),
        }
    }

    /// Key-only update for the batched kernel path: no `CellId` or
    /// [`Point`] is ever materialized. Bit-identical to
    /// [`Self::update_precomputed`] called with the unpacked cell —
    /// the arena and sketch backends operate on keys alone, and the
    /// exact backend (reachable only in mixed configurations) unpacks
    /// lazily.
    #[inline]
    pub fn update_packed(&mut self, point_key: u128, cell_key: u128, delta: i64) {
        self.pre_update();
        match &self.inner {
            Inner::Exact { .. } => {
                let gp = self.grid.params();
                let cell = CellId::unpack(cell_key, self.level, gp.d)
                    .expect("update_packed requires packable cell keys");
                let p = Point::unpack(point_key, gp.delta, gp.d)
                    .expect("update_packed requires packable point keys");
                self.update_exact(&p, point_key, &cell, cell_key, delta);
            }
            Inner::Arena { .. } => self.update_arena(point_key, cell_key, delta),
            Inner::Sketch { .. } => self.update_sketch(point_key, cell_key, delta),
        }
    }

    /// Drains a whole batch of key-only updates — semantically identical
    /// to calling [`Self::update_packed`] once per item, in order. The
    /// arena fast path hoists the per-update overhead (backend dispatch,
    /// liveness and fault checks, counter write-back) out of the loop;
    /// it is taken only when nothing per-update can observe the
    /// difference: no armed fault plan (kill decisions are indexed by
    /// individual updates) and no live metrics recording (per-probe
    /// counters). Everything else falls back to the per-op path.
    pub fn update_packed_many<I: Iterator<Item = (u128, u128, i64)>>(&mut self, items: I) {
        if self.fault.is_active() || sbc_obs::enabled() {
            for (point_key, cell_key, delta) in items {
                self.update_packed(point_key, cell_key, delta);
            }
            return;
        }
        let beta = self.cfg.beta as i64;
        let ids = self.ids;
        let Inner::Arena {
            table,
            cap_cells,
            dead,
            peak_cells,
        } = &mut self.inner
        else {
            for (point_key, cell_key, delta) in items {
                self.update_packed(point_key, cell_key, delta);
            }
            return;
        };
        // The update counter advances even while dead (it drives
        // fault-injection indices, which must stay path-independent).
        if *dead {
            self.updates += items.count() as u64;
            return;
        }
        let mut updates = self.updates;
        let mut items = items;
        while let Some((point_key, cell_key, delta)) = items.next() {
            updates += 1;
            debug_assert!(cell_key <= u64::MAX as u128, "arena cell keys fit u64");
            let key = cell_key as u64;
            match table.get_mut(key) {
                Some(rec) => {
                    rec.count += delta;
                    debug_assert!(rec.count >= 0, "stream model: no over-deletion");
                    update_points_arena(rec, point_key, delta, beta);
                    if rec.count == 0 && rec.points.is_empty() {
                        table.remove(key);
                    }
                }
                None => {
                    let len = table.len();
                    if len >= *cap_cells {
                        *dead = true;
                        table.clear_shrink();
                        sbc_obs::counter!("stream.store.kill.runaway_kill").incr();
                        trace::event(TraceKind::StoreKill, "runaway_kill", ids, updates);
                        updates += items.count() as u64;
                        break;
                    }
                    *peak_cells = (*peak_cells).max(len + 1);
                    let rec = table.insert_absent(
                        key,
                        ArenaRec {
                            count: 0,
                            dirty: false,
                            points: Vec::new(),
                        },
                    );
                    rec.count += delta;
                    debug_assert!(rec.count >= 0, "stream model: no over-deletion");
                    update_points_arena(rec, point_key, delta, beta);
                }
            }
        }
        self.updates = updates;
    }

    /// Post-prelude update body for [`Inner::Exact`].
    fn update_exact(
        &mut self,
        p: &Point,
        point_key: u128,
        cell: &CellId,
        cell_key: u128,
        delta: i64,
    ) {
        let beta = self.cfg.beta as i64;
        let updates = self.updates;
        let ids = self.ids;
        let Inner::Exact {
            cells,
            cap_cells,
            dead,
            peak_cells,
        } = &mut self.inner
        else {
            unreachable!("update_exact on a non-exact backend")
        };
        if *dead {
            return;
        }
        let obs_on = sbc_obs::enabled();
        let cap_before = if obs_on {
            sbc_obs::counter!("stream.store.map_probes").incr();
            cells.capacity()
        } else {
            0
        };
        // Single probe: the entry does the new-cell check, the
        // update, and (via the occupied entry) the emptied-cell
        // removal without re-hashing.
        let len = cells.len();
        let mut rec_entry = match cells.entry(cell_key) {
            Entry::Vacant(v) => {
                if len >= *cap_cells {
                    let _ = v;
                    *dead = true;
                    cells.clear();
                    cells.shrink_to_fit();
                    sbc_obs::counter!("stream.store.kill.runaway_kill").incr();
                    trace::event(TraceKind::StoreKill, "runaway_kill", ids, updates);
                    return;
                }
                *peak_cells = (*peak_cells).max(len + 1);
                let rec = v.insert(CellRec {
                    count: 0,
                    dirty: false,
                    cell: cell.clone(),
                    points: Key128Map::default(),
                });
                rec.count += delta;
                debug_assert!(rec.count >= 0, "stream model: no over-deletion");
                update_points(rec, p, point_key, delta, beta);
                if obs_on && cells.capacity() != cap_before {
                    sbc_obs::counter!("stream.store.map_resizes").incr();
                    trace::instant("store.map_resize", ids, updates);
                }
                return; // a just-inserted record cannot net to zero
            }
            Entry::Occupied(o) => o,
        };
        let rec = rec_entry.get_mut();
        rec.count += delta;
        debug_assert!(rec.count >= 0, "stream model: no over-deletion");
        update_points(rec, p, point_key, delta, beta);
        if rec.count == 0 && rec.points.is_empty() {
            rec_entry.remove();
        }
    }

    /// Post-prelude update body for [`Inner::Arena`] — the same decision
    /// sequence as [`Self::update_exact`] (cap kill before insert, peak
    /// tracking, eviction after the point update, emptied-cell removal)
    /// over the flat table. Cell keys are the low 64 bits of the packed
    /// `u128` key, lossless by the constructor's packability gate.
    fn update_arena(&mut self, point_key: u128, cell_key: u128, delta: i64) {
        let beta = self.cfg.beta as i64;
        let updates = self.updates;
        let ids = self.ids;
        let Inner::Arena {
            table,
            cap_cells,
            dead,
            peak_cells,
        } = &mut self.inner
        else {
            unreachable!("update_arena on a non-arena backend")
        };
        if *dead {
            return;
        }
        if sbc_obs::enabled() {
            sbc_obs::counter!("stream.store.map_probes").incr();
        }
        debug_assert!(cell_key <= u64::MAX as u128, "arena cell keys fit u64");
        let key = cell_key as u64;
        match table.get_mut(key) {
            Some(rec) => {
                rec.count += delta;
                debug_assert!(rec.count >= 0, "stream model: no over-deletion");
                update_points_arena(rec, point_key, delta, beta);
                if rec.count == 0 && rec.points.is_empty() {
                    table.remove(key);
                }
            }
            None => {
                let len = table.len();
                if len >= *cap_cells {
                    *dead = true;
                    table.clear_shrink();
                    sbc_obs::counter!("stream.store.kill.runaway_kill").incr();
                    trace::event(TraceKind::StoreKill, "runaway_kill", ids, updates);
                    return;
                }
                *peak_cells = (*peak_cells).max(len + 1);
                let rec = table.insert_absent(
                    key,
                    ArenaRec {
                        count: 0,
                        dirty: false,
                        points: Vec::new(),
                    },
                );
                rec.count += delta;
                debug_assert!(rec.count >= 0, "stream model: no over-deletion");
                update_points_arena(rec, point_key, delta, beta);
                // A just-inserted record cannot net to zero.
            }
        }
    }

    /// Post-prelude update body for [`Inner::Sketch`].
    fn update_sketch(&mut self, point_key: u128, cell_key: u128, delta: i64) {
        let updates = self.updates;
        let ids = self.ids;
        let Inner::Sketch {
            cell_sketch,
            rows,
            bucket_cols,
            bucket_sparsity,
            max_buckets,
            dead,
            seed,
        } = &mut self.inner
        else {
            unreachable!("update_sketch on a non-sketch backend")
        };
        if *dead {
            return;
        }
        cell_sketch.update(cell_key, delta);
        let mut total_buckets = 0usize;
        for (hash, buckets) in rows.iter_mut() {
            let idx = (hash.eval(cell_key) % *bucket_cols) as u32;
            let sparsity = *bucket_sparsity;
            let bucket = buckets
                .entry(idx)
                .or_insert_with(|| SSparseRecovery::new(sparsity, 2, seed));
            bucket.update(point_key, delta);
            total_buckets += buckets.len();
        }
        if total_buckets > *max_buckets * rows.len() {
            *dead = true;
            for (_, buckets) in rows.iter_mut() {
                buckets.clear();
                buckets.shrink_to_fit();
            }
            sbc_obs::counter!("stream.store.kill.sketch_overflow").incr();
            trace::event(TraceKind::StoreKill, "sketch_overflow", ids, updates);
        }
    }

    /// Decodes the structure (Lemma 4.2 output).
    pub fn finish(&self) -> Result<StoringOutput, StoringFail> {
        match &self.inner {
            Inner::Exact { cells, dead, .. } => {
                if *dead {
                    return Err(StoringFail::Overflowed);
                }
                let live: Vec<&CellRec> = cells.values().filter(|r| r.count > 0).collect();
                if live.len() > self.cfg.alpha {
                    return Err(StoringFail::TooManyCells {
                        found: live.len(),
                        alpha: self.cfg.alpha,
                    });
                }
                let beta = self.cfg.beta as i64;
                let mut out_cells = Vec::with_capacity(live.len());
                let mut small_points = Vec::new();
                let mut dirty_small_cells = Vec::new();
                for rec in live {
                    out_cells.push((rec.cell.clone(), rec.count));
                    if rec.count <= beta {
                        if rec.dirty {
                            dirty_small_cells.push(rec.cell.clone());
                            continue;
                        }
                        for (p, c) in rec.points.values() {
                            if *c > 0 {
                                small_points.push((p.clone(), *c));
                            }
                        }
                    }
                }
                out_cells.sort_by(|a, b| a.0.cmp(&b.0));
                small_points.sort_by(|a, b| a.0.cmp(&b.0));
                dirty_small_cells.sort();
                Ok(StoringOutput {
                    cells: out_cells,
                    small_points,
                    dirty_small_cells,
                })
            }
            Inner::Arena { table, dead, .. } => {
                if *dead {
                    return Err(StoringFail::Overflowed);
                }
                let live: Vec<(u64, &ArenaRec)> =
                    table.iter().filter(|(_, r)| r.count > 0).collect();
                if live.len() > self.cfg.alpha {
                    return Err(StoringFail::TooManyCells {
                        found: live.len(),
                        alpha: self.cfg.alpha,
                    });
                }
                let gp = self.grid.params();
                let beta = self.cfg.beta as i64;
                let mut out_cells = Vec::with_capacity(live.len());
                let mut small_points = Vec::new();
                let mut dirty_small_cells = Vec::new();
                for (key, rec) in live {
                    let cell = CellId::unpack(key as u128, self.level, gp.d)
                        .expect("arena cell keys are valid packings");
                    if rec.count <= beta {
                        if rec.dirty {
                            dirty_small_cells.push(cell.clone());
                        } else {
                            for &(pk, c) in &rec.points {
                                if c > 0 {
                                    let p = Point::unpack(pk, gp.delta, gp.d)
                                        .expect("arena point keys are valid packings");
                                    small_points.push((p, c));
                                }
                            }
                        }
                    }
                    out_cells.push((cell, rec.count));
                }
                out_cells.sort_by(|a, b| a.0.cmp(&b.0));
                small_points.sort_by(|a, b| a.0.cmp(&b.0));
                dirty_small_cells.sort();
                Ok(StoringOutput {
                    cells: out_cells,
                    small_points,
                    dirty_small_cells,
                })
            }
            Inner::Sketch {
                cell_sketch,
                rows,
                bucket_cols,
                dead,
                ..
            } => {
                if *dead {
                    return Err(StoringFail::Overflowed);
                }
                let gp = self.grid.params();
                let decoded = cell_sketch.decode().ok_or(StoringFail::DecodeFailed)?;
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
                    let cell = CellId::unpack(cell_key, self.level, gp.d)
                        .ok_or(StoringFail::DecodeFailed)?;
                    if count <= beta {
                        // Try each row until one bucket isolates the cell.
                        let mut recovered: Option<Vec<(Point, i64)>> = None;
                        for (hash, buckets) in rows {
                            let idx = (hash.eval(cell_key) % *bucket_cols) as u32;
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
        }
    }

    /// Whether the structure has irrecoverably overflowed.
    pub fn is_dead(&self) -> bool {
        match &self.inner {
            Inner::Exact { dead, .. } | Inner::Arena { dead, .. } | Inner::Sketch { dead, .. } => {
                *dead
            }
        }
    }

    /// How the structure died, or `None` if it is still live (will reach
    /// its natural end of stream). An injected death reports its forced
    /// kind, which may differ from the backend's natural one.
    pub fn death(&self) -> Option<StoreDeath> {
        if let Some(kind) = self.injected {
            return Some(kind);
        }
        match &self.inner {
            Inner::Exact { dead: true, .. } | Inner::Arena { dead: true, .. } => {
                Some(StoreDeath::RunawayKill)
            }
            Inner::Sketch { dead: true, .. } => Some(StoreDeath::SketchOverflow),
            _ => None,
        }
    }

    /// Measured bytes of state right now. Deterministic given the
    /// logical state (never reads transient allocator capacities), so
    /// space reports agree across ingest paths and checkpoint restores.
    pub fn stored_bytes(&self) -> usize {
        match &self.inner {
            Inner::Exact { cells, .. } => {
                let per_cell = 16 + 8 + 1 + 24; // key + count + flag + rec overhead
                let per_point = 16 + 8 + 8; // key + multiplicity + point ref
                cells
                    .values()
                    .map(|r| {
                        per_cell
                            + r.cell.coords.len() * 8
                            + r.points.len() * (per_point + r.cell.coords.len() * 4)
                    })
                    .sum()
            }
            Inner::Arena {
                table,
                dead,
                peak_cells,
                ..
            } => {
                if *dead {
                    return 0;
                }
                let per_cell = 8 + 8 + 1 + 24; // key + count + flag + vec header
                let per_point = 16 + 8; // packed key + multiplicity
                let slots = slots_for(*peak_cells) * 4;
                slots
                    + table
                        .iter()
                        .map(|(_, r)| per_cell + r.points.len() * per_point)
                        .sum::<usize>()
            }
            Inner::Sketch {
                cell_sketch, rows, ..
            } => {
                cell_sketch.stored_bytes()
                    + rows
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
    /// sized to this store's actual high-water marks reserves. Exact
    /// and arena backends round their cell tables up to the power of
    /// two covering `peak_cells` (hash-table style); the sketch backend
    /// is genuinely fully allocated up front, so its reservation *is*
    /// [`Self::nominal_sketch_bytes`]. Dead exact/arena stores freed
    /// their memory and reserve nothing. Deterministic given logical
    /// state, like [`Self::stored_bytes`] — the two bracket each other
    /// within the power-of-two rounding slack, which the space tests
    /// pin to a small constant factor.
    pub fn expected_bytes(&self) -> usize {
        match &self.inner {
            Inner::Exact {
                cells,
                dead,
                peak_cells,
                ..
            } => {
                if *dead {
                    return 0;
                }
                let per_cell = 16 + 8 + 1 + 24;
                let per_point = 16 + 8 + 8;
                let cap_cells = peak_cells.next_power_of_two().max(8);
                cap_cells * per_cell
                    + cells
                        .values()
                        .map(|r| {
                            r.cell.coords.len() * 8
                                + r.points.len() * (per_point + r.cell.coords.len() * 4)
                        })
                        .sum::<usize>()
            }
            Inner::Arena {
                table,
                dead,
                peak_cells,
                ..
            } => {
                if *dead {
                    return 0;
                }
                let per_cell = 8 + 8 + 1 + 24;
                let per_point = 16 + 8;
                let slots = slots_for(*peak_cells) * 4;
                slots
                    + peak_cells.next_power_of_two().max(8) * per_cell
                    + table
                        .iter()
                        .map(|(_, r)| r.points.len() * per_point)
                        .sum::<usize>()
            }
            Inner::Sketch { .. } => Self::nominal_sketch_bytes(&self.cfg),
        }
    }

    /// Arena-backend occupancy: `(deterministic slot capacity, live
    /// entries)` summed into the space report's load-factor fields.
    /// `None` for the other backends and for dead (freed) arenas.
    pub fn arena_occupancy(&self) -> Option<(usize, usize)> {
        match &self.inner {
            Inner::Arena {
                table,
                dead: false,
                peak_cells,
                ..
            } => Some((slots_for(*peak_cells), table.len())),
            _ => None,
        }
    }

    /// Captures the exact or arena backend's full dynamic state for
    /// checkpointing, with cells and per-cell points sorted by packed
    /// key so the encoding is canonical — both backends produce the
    /// *same* snapshot for the same logical state (the arena's packed
    /// keys unpack to the cells and points the exact backend stores
    /// directly). Returns `None` for the sketch backend (not yet
    /// checkpointable; the builder surfaces this as an
    /// `UnsupportedBackend` checkpoint error).
    pub fn to_snapshot(&self) -> Option<StoringSnapshot> {
        let cell_snaps = match &self.inner {
            Inner::Exact { cells, .. } => {
                let mut snaps: Vec<(u128, CellSnapshot)> = cells
                    .iter()
                    .map(|(key, rec)| {
                        let mut points: Vec<(u128, (Point, i64))> =
                            rec.points.iter().map(|(k, v)| (*k, v.clone())).collect();
                        points.sort_unstable_by_key(|(k, _)| *k);
                        (
                            *key,
                            CellSnapshot {
                                cell: rec.cell.clone(),
                                count: rec.count,
                                dirty: rec.dirty,
                                points: points.into_iter().map(|(_, pv)| pv).collect(),
                            },
                        )
                    })
                    .collect();
                snaps.sort_unstable_by_key(|(k, _)| *k);
                snaps
            }
            Inner::Arena { table, .. } => {
                let gp = self.grid.params();
                let mut snaps: Vec<(u128, CellSnapshot)> = table
                    .iter()
                    .map(|(key, rec)| {
                        let mut points: Vec<(u128, (Point, i64))> = rec
                            .points
                            .iter()
                            .map(|&(pk, m)| {
                                let p = Point::unpack(pk, gp.delta, gp.d)
                                    .expect("arena point keys are valid packings");
                                (pk, (p, m))
                            })
                            .collect();
                        points.sort_unstable_by_key(|(k, _)| *k);
                        let cell = CellId::unpack(key as u128, self.level, gp.d)
                            .expect("arena cell keys are valid packings");
                        (
                            key as u128,
                            CellSnapshot {
                                cell,
                                count: rec.count,
                                dirty: rec.dirty,
                                points: points.into_iter().map(|(_, pv)| pv).collect(),
                            },
                        )
                    })
                    .collect();
                snaps.sort_unstable_by_key(|(k, _)| *k);
                snaps
            }
            Inner::Sketch { .. } => return None,
        };
        let peak_cells = match &self.inner {
            Inner::Exact { peak_cells, .. } | Inner::Arena { peak_cells, .. } => *peak_cells,
            Inner::Sketch { .. } => unreachable!(),
        };
        Some(StoringSnapshot {
            updates: self.updates,
            death: self.death(),
            injected: self.injected.is_some(),
            peak_cells: peak_cells as u64,
            cells: cell_snaps.into_iter().map(|(_, c)| c).collect(),
        })
    }

    /// Overwrites this store's dynamic state with a snapshot's. The
    /// store must be freshly built with the same structural parameters
    /// (grid, level, config, backend) the snapshot was taken under —
    /// the builder guarantees this by reconstructing the ladder from the
    /// checkpointed parameters before loading. Returns `false` (and
    /// leaves the store untouched) on the sketch backend.
    pub fn load_snapshot(&mut self, snap: &StoringSnapshot) -> bool {
        let delta = self.grid.params().delta;
        match &mut self.inner {
            Inner::Exact {
                cells,
                dead,
                peak_cells,
                ..
            } => {
                cells.clear();
                for c in &snap.cells {
                    let mut points = Key128Map::default();
                    for (p, m) in &c.points {
                        points.insert(p.key128(delta), (p.clone(), *m));
                    }
                    cells.insert(
                        c.cell.key128(),
                        CellRec {
                            count: c.count,
                            dirty: c.dirty,
                            cell: c.cell.clone(),
                            points,
                        },
                    );
                }
                *dead = snap.death.is_some();
                *peak_cells = snap.peak_cells as usize;
            }
            Inner::Arena {
                table,
                dead,
                peak_cells,
                ..
            } => {
                *dead = snap.death.is_some();
                if *dead {
                    table.clear_shrink();
                } else {
                    *table = OpenTable::from_entries(
                        snap.cells
                            .iter()
                            .map(|c| {
                                let key = c.cell.key128();
                                debug_assert!(key <= u64::MAX as u128, "arena cell keys fit u64");
                                let points = c
                                    .points
                                    .iter()
                                    .map(|(p, m)| (p.key128(delta), *m))
                                    .collect();
                                let rec = ArenaRec {
                                    count: c.count,
                                    dirty: c.dirty,
                                    points,
                                };
                                (key as u64, rec)
                            })
                            .collect(),
                    );
                }
                *peak_cells = snap.peak_cells as usize;
            }
            Inner::Sketch { .. } => return false,
        }
        self.updates = snap.updates;
        self.injected = if snap.injected { snap.death } else { None };
        true
    }

    /// Folds another store's state into this one — the composability
    /// step of a coreset merge tree (exact backend only; returns `false`
    /// without touching `self` when either side is sketch-backed).
    ///
    /// Both stores must summarize the *same* subsampled substream role
    /// (same grid, level, sizing) over **disjoint** shards of one
    /// logical stream; the builder guarantees this structurally. The
    /// merge mirrors what the monolithic store would have held:
    ///
    /// * cell counts add; a cell netting to zero with no pending point
    ///   payload is removed, exactly like [`Self::update_precomputed`];
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
        if matches!(self.inner, Inner::Sketch { .. }) || matches!(other.inner, Inner::Sketch { .. })
        {
            return false;
        }
        let other_peak = match &other.inner {
            Inner::Exact { peak_cells, .. } | Inner::Arena { peak_cells, .. } => *peak_cells,
            Inner::Sketch { .. } => unreachable!(),
        };
        let other_dead = other.is_dead();
        let other_injected = other.injected;
        let beta = self.cfg.beta as i64;
        let updates = self.updates + other.updates;
        let ids = self.ids;
        let gp = self.grid.params();
        let level = self.level;
        self.updates = updates;
        match (&mut self.inner, &other.inner) {
            (
                Inner::Exact {
                    cells,
                    cap_cells,
                    dead,
                    peak_cells,
                },
                o,
            ) => {
                *peak_cells = (*peak_cells).max(other_peak);
                if *dead || other_dead {
                    if !*dead && self.injected.is_none() {
                        self.injected = other_injected;
                    }
                    *dead = true;
                    cells.clear();
                    cells.shrink_to_fit();
                    sbc_obs::counter!("stream.merge.dead_stores").incr();
                    return true;
                }
                // Unifies the two source representations: the exact side
                // hands its records over directly; the arena side unpacks
                // cells and points from their keys (same values, by the
                // injectivity of the packings).
                let mut merge_one = |key: u128,
                                     ocount: i64,
                                     odirty: bool,
                                     opoints: &mut dyn Iterator<Item = (u128, Point, i64)>,
                                     ocell: Option<&CellId>| {
                    match cells.entry(key) {
                        Entry::Vacant(v) => {
                            let cell = match ocell {
                                Some(c) => c.clone(),
                                None => CellId::unpack(key, level, gp.d)
                                    .expect("arena cell keys are valid packings"),
                            };
                            let mut points = Key128Map::default();
                            for (pk, p, m) in opoints {
                                points.insert(pk, (p, m));
                            }
                            v.insert(CellRec {
                                count: ocount,
                                dirty: odirty,
                                cell,
                                points,
                            });
                        }
                        Entry::Occupied(mut o) => {
                            let rec = o.get_mut();
                            rec.count += ocount;
                            if odirty {
                                rec.dirty = true;
                            }
                            if rec.dirty {
                                rec.points.clear();
                                rec.points.shrink_to_fit();
                            } else {
                                for (pk, p, m) in opoints {
                                    match rec.points.entry(pk) {
                                        Entry::Vacant(v) => {
                                            if m != 0 {
                                                v.insert((p, m));
                                            }
                                        }
                                        Entry::Occupied(mut po) => {
                                            po.get_mut().1 += m;
                                            if po.get().1 == 0 {
                                                po.remove();
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                };
                match o {
                    Inner::Exact { cells: ocells, .. } => {
                        for (key, orec) in ocells.iter() {
                            let mut pts =
                                orec.points.iter().map(|(pk, (p, m))| (*pk, p.clone(), *m));
                            merge_one(*key, orec.count, orec.dirty, &mut pts, Some(&orec.cell));
                        }
                    }
                    Inner::Arena { table: otable, .. } => {
                        for (key, orec) in otable.iter() {
                            let mut pts = orec.points.iter().map(|&(pk, m)| {
                                let p = Point::unpack(pk, gp.delta, gp.d)
                                    .expect("arena point keys are valid packings");
                                (pk, p, m)
                            });
                            merge_one(key as u128, orec.count, orec.dirty, &mut pts, None);
                        }
                    }
                    Inner::Sketch { .. } => unreachable!(),
                }
                // Post-pass: the eviction and emptied-cell rules over merged
                // totals, then the occupancy cap over the merged cell set.
                cells.retain(|_, rec| {
                    if !rec.dirty && rec.count > 2 * beta.max(1) {
                        rec.points.clear();
                        rec.points.shrink_to_fit();
                        rec.dirty = true;
                    }
                    rec.count != 0 || !rec.points.is_empty()
                });
                *peak_cells = (*peak_cells).max(cells.len());
                sbc_obs::counter!("stream.merge.cells").add(cells.len() as u64);
                if cells.len() > *cap_cells {
                    *dead = true;
                    cells.clear();
                    cells.shrink_to_fit();
                    sbc_obs::counter!("stream.store.kill.runaway_kill").incr();
                    trace::event(TraceKind::StoreKill, "runaway_kill", ids, updates);
                }
            }
            (
                Inner::Arena {
                    table,
                    cap_cells,
                    dead,
                    peak_cells,
                },
                o,
            ) => {
                *peak_cells = (*peak_cells).max(other_peak);
                if *dead || other_dead {
                    if !*dead && self.injected.is_none() {
                        self.injected = other_injected;
                    }
                    *dead = true;
                    table.clear_shrink();
                    sbc_obs::counter!("stream.merge.dead_stores").incr();
                    return true;
                }
                let mut merge_one =
                    |key: u64,
                     ocount: i64,
                     odirty: bool,
                     opoints: &mut dyn Iterator<Item = (u128, i64)>| {
                        match table.get_mut(key) {
                            None => {
                                table.insert_absent(
                                    key,
                                    ArenaRec {
                                        count: ocount,
                                        dirty: odirty,
                                        points: opoints.collect(),
                                    },
                                );
                            }
                            Some(rec) => {
                                rec.count += ocount;
                                if odirty {
                                    rec.dirty = true;
                                }
                                if rec.dirty {
                                    rec.points = Vec::new();
                                } else {
                                    for (pk, m) in opoints {
                                        match rec.points.iter().position(|&(k, _)| k == pk) {
                                            None => {
                                                if m != 0 {
                                                    rec.points.push((pk, m));
                                                }
                                            }
                                            Some(i) => {
                                                rec.points[i].1 += m;
                                                if rec.points[i].1 == 0 {
                                                    rec.points.swap_remove(i);
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    };
                match o {
                    Inner::Exact { cells: ocells, .. } => {
                        for (key, orec) in ocells.iter() {
                            debug_assert!(*key <= u64::MAX as u128, "arena cell keys fit u64");
                            let mut pts = orec.points.iter().map(|(pk, (_, m))| (*pk, *m));
                            merge_one(*key as u64, orec.count, orec.dirty, &mut pts);
                        }
                    }
                    Inner::Arena { table: otable, .. } => {
                        for (key, orec) in otable.iter() {
                            let mut pts = orec.points.iter().copied();
                            merge_one(key, orec.count, orec.dirty, &mut pts);
                        }
                    }
                    Inner::Sketch { .. } => unreachable!(),
                }
                table.retain(|_, rec| {
                    if !rec.dirty && rec.count > 2 * beta.max(1) {
                        rec.points = Vec::new();
                        rec.dirty = true;
                    }
                    rec.count != 0 || !rec.points.is_empty()
                });
                *peak_cells = (*peak_cells).max(table.len());
                sbc_obs::counter!("stream.merge.cells").add(table.len() as u64);
                if table.len() > *cap_cells {
                    *dead = true;
                    table.clear_shrink();
                    sbc_obs::counter!("stream.store.kill.runaway_kill").incr();
                    trace::event(TraceKind::StoreKill, "runaway_kill", ids, updates);
                }
            }
            (Inner::Sketch { .. }, _) => unreachable!(),
        }
        true
    }

    /// The space a fully allocated sketch of this configuration occupies
    /// — the Lemma 4.2 `O(αβ·dL·log²(αβ/δ))`-style accounting used by
    /// experiment E4 regardless of backend.
    pub fn nominal_sketch_bytes(cfg: &StoringConfig) -> usize {
        let cell_sketch =
            cfg.rows.max(3) * (2 * cfg.alpha).next_power_of_two() * crate::sparse::OneSparse::BYTES;
        let bucket =
            2 * (2 * (2 * cfg.beta).max(2)).next_power_of_two() * crate::sparse::OneSparse::BYTES;
        let buckets = cfg.rows * 8 * cfg.alpha * bucket;
        cell_sketch + buckets
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

    fn run_backend(backend: Backend) -> (StoringOutput, StoringOutput) {
        let (grid, pts) = setup();
        let cfg = StoringConfig {
            alpha: 256,
            beta: 8,
            rows: 4,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let mut st = Storing::new(&grid, 4, cfg, backend, &mut rng);
        // Insert everything, delete the second half.
        for p in &pts {
            st.update(p, 1);
        }
        for p in &pts[60..] {
            st.update(p, -1);
        }
        let got = st.finish().expect("within budget");

        // Ground truth: exact recount of the surviving 60 points.
        let mut truth_cells: HashMap<CellId, i64> = HashMap::new();
        for p in &pts[..60] {
            *truth_cells.entry(grid.cell_of(p, 4)).or_insert(0) += 1;
        }
        let mut cells: Vec<(CellId, i64)> = truth_cells.clone().into_iter().collect();
        cells.sort_by(|a, b| a.0.cmp(&b.0));
        // Merge duplicate points (generators may repeat coordinates; the
        // store reports one entry with the net multiplicity).
        let mut small_map: HashMap<Point, i64> = HashMap::new();
        for p in &pts[..60] {
            if truth_cells[&grid.cell_of(p, 4)] <= 8 {
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
    fn exact_backend_matches_ground_truth_under_deletions() {
        let (got, want) = run_backend(Backend::Exact { cap_cells: 4096 });
        assert_eq!(got.cells, want.cells);
        assert_eq!(got.small_points, want.small_points);
    }

    #[test]
    fn sketch_backend_matches_ground_truth_under_deletions() {
        let (got, want) = run_backend(Backend::Sketch);
        assert_eq!(got.cells, want.cells);
        assert_eq!(got.small_points, want.small_points);
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
        for backend in [
            Backend::Exact { cap_cells: 4096 },
            Backend::Arena { cap_cells: 4096 },
            Backend::Sketch,
        ] {
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
    fn exact_cap_kills_runaway_stream() {
        let (grid, pts) = setup();
        let cfg = StoringConfig {
            alpha: 4,
            beta: 2,
            rows: 2,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let mut st = Storing::new(&grid, 6, cfg, Backend::Exact { cap_cells: 8 }, &mut rng);
        for p in &pts {
            st.update(p, 1);
        }
        assert!(st.is_dead());
        assert_eq!(st.finish().unwrap_err(), StoringFail::Overflowed);
        // Dead structures hold (almost) no memory.
        assert!(st.stored_bytes() < 256);
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
    fn exact_dirty_small_cell_detected() {
        // Blow a cell past 2β, then delete back under β: the exact
        // backend must refuse rather than silently return partial points.
        let gp = GridParams::from_log_delta(6, 2);
        let grid = GridHierarchy::unshifted(gp);
        let cfg = StoringConfig {
            alpha: 64,
            beta: 2,
            rows: 2,
        };
        let mut rng = StdRng::seed_from_u64(7);
        let mut st = Storing::new(&grid, 5, cfg, Backend::Exact { cap_cells: 512 }, &mut rng);
        let cell_pts: Vec<Point> = (1..=8u32).map(|i| Point::new(vec![i % 2 + 1, i])).collect();
        // All 8 land near the origin corner; level 5 cells have side 2, so
        // pick 8 points in one cell: (1..2)×(1..2) — use multiplicity.
        let p = Point::new(vec![1, 1]);
        let _ = cell_pts;
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
    fn arena_backend_matches_ground_truth_under_deletions() {
        let (got, want) = run_backend(Backend::Arena { cap_cells: 4096 });
        assert_eq!(got.cells, want.cells);
        assert_eq!(got.small_points, want.small_points);
    }

    /// Drives the exact and arena backends through the same churned
    /// stream — inserts, a cell blown past 2β (eviction), deletions back
    /// down — and pins every observable equal: finish output, canonical
    /// snapshot, update count.
    #[test]
    fn arena_matches_exact_bitwise_under_churn() {
        let (grid, pts) = setup();
        let cfg = StoringConfig {
            alpha: 256,
            beta: 3,
            rows: 4,
        };
        let mk = |backend| {
            let mut rng = StdRng::seed_from_u64(9);
            Storing::new(&grid, 4, cfg, backend, &mut rng)
        };
        let mut ex = mk(Backend::Exact { cap_cells: 4096 });
        let mut ar = mk(Backend::Arena { cap_cells: 4096 });
        let hot = Point::new(vec![5, 5]);
        for st in [&mut ex, &mut ar] {
            for p in &pts {
                st.update(p, 1);
            }
            for _ in 0..10 {
                st.update(&hot, 1); // past 2β: evicts the cell's points
            }
            for p in &pts[40..] {
                st.update(p, -1);
            }
        }
        assert_eq!(ex.update_count(), ar.update_count());
        assert_eq!(ex.to_snapshot(), ar.to_snapshot());
        assert_eq!(ex.finish(), ar.finish());
    }

    /// The key-only entry point must be bit-identical to the unpacked
    /// one on both backends.
    #[test]
    fn update_packed_matches_update() {
        let (grid, pts) = setup();
        let cfg = StoringConfig {
            alpha: 256,
            beta: 8,
            rows: 4,
        };
        let delta = grid.params().delta;
        for backend in [
            Backend::Exact { cap_cells: 4096 },
            Backend::Arena { cap_cells: 4096 },
        ] {
            let mk = || {
                let mut rng = StdRng::seed_from_u64(10);
                Storing::new(&grid, 4, cfg, backend, &mut rng)
            };
            let (mut by_point, mut by_key) = (mk(), mk());
            for p in &pts {
                by_point.update(p, 1);
                let cell_key = grid.cell_of(p, 4).key128();
                by_key.update_packed(p.key128(delta), cell_key, 1);
            }
            assert_eq!(by_point.to_snapshot(), by_key.to_snapshot());
            assert_eq!(by_point.finish(), by_key.finish());
        }
    }

    #[test]
    fn update_packed_many_matches_per_op_path() {
        // The batched drain must be indistinguishable from per-op
        // update_packed — including with churn (zero-removal), on the
        // exact-backend fallback, and when the occupancy cap kills the
        // store mid-batch (the update counter must keep advancing for
        // the items after the kill).
        let (grid, pts) = setup();
        let delta = grid.params().delta;
        let cfg = StoringConfig {
            alpha: 256,
            beta: 2,
            rows: 4,
        };
        let ops: Vec<(u128, u128, i64)> = pts
            .iter()
            .flat_map(|p| {
                let pk = p.key128(delta);
                let ck = grid.cell_of(p, 4).key128();
                [(pk, ck, 1), (pk, ck, 1), (pk, ck, -1)]
            })
            .collect();
        for backend in [
            Backend::Exact { cap_cells: 4096 },
            Backend::Arena { cap_cells: 4096 },
            Backend::Arena { cap_cells: 8 }, // cap-kill fires mid-batch
        ] {
            let mk = || {
                let mut rng = StdRng::seed_from_u64(10);
                Storing::new(&grid, 4, cfg, backend, &mut rng)
            };
            let (mut per_op, mut batched) = (mk(), mk());
            for &(pk, ck, d) in &ops {
                per_op.update_packed(pk, ck, d);
            }
            batched.update_packed_many(ops.iter().copied());
            assert_eq!(per_op.to_snapshot(), batched.to_snapshot());
            assert_eq!(per_op.finish(), batched.finish());
            assert_eq!(per_op.is_dead(), batched.is_dead());
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
        assert!(st.stored_bytes() < 256);
        assert_eq!(st.arena_occupancy(), None);
    }

    /// Snapshots restore across backends in both directions: an arena
    /// snapshot loaded into an exact store (and vice versa) continues
    /// bit-identically.
    #[test]
    fn arena_snapshot_restores_across_backends() {
        let (grid, pts) = setup();
        let cfg = StoringConfig {
            alpha: 256,
            beta: 4,
            rows: 4,
        };
        let mk = |backend| {
            let mut rng = StdRng::seed_from_u64(11);
            Storing::new(&grid, 4, cfg, backend, &mut rng)
        };
        let exact = Backend::Exact { cap_cells: 4096 };
        let arena = Backend::Arena { cap_cells: 4096 };
        for (src, dst) in [(exact, arena), (arena, exact), (arena, arena)] {
            let mut a = mk(src);
            for p in &pts[..80] {
                a.update(p, 1);
            }
            let snap = a.to_snapshot().expect("snapshot");
            let mut b = mk(dst);
            assert!(b.load_snapshot(&snap));
            for p in &pts[80..] {
                a.update(p, 1);
                b.update(p, 1);
            }
            assert_eq!(a.to_snapshot(), b.to_snapshot());
            assert_eq!(a.finish(), b.finish());
        }
    }

    /// Merging produces the same result for every backend pairing,
    /// including the post-merge eviction and emptied-cell rules.
    #[test]
    fn merge_identical_across_backend_pairings() {
        let (grid, pts) = setup();
        let cfg = StoringConfig {
            alpha: 256,
            beta: 3,
            rows: 4,
        };
        let mk = |backend| {
            let mut rng = StdRng::seed_from_u64(12);
            Storing::new(&grid, 4, cfg, backend, &mut rng)
        };
        let exact = Backend::Exact { cap_cells: 4096 };
        let arena = Backend::Arena { cap_cells: 4096 };
        let fill = |st: &mut Storing, half: &[Point]| {
            for p in half {
                st.update(p, 1);
            }
            // Churn so merges see dirty cells and cancellations.
            for p in &half[..half.len() / 3] {
                st.update(p, -1);
            }
        };
        let reference = {
            let (mut l, mut r) = (mk(exact), mk(exact));
            fill(&mut l, &pts[..60]);
            fill(&mut r, &pts[60..]);
            assert!(l.merge_from(&r));
            (l.to_snapshot(), l.finish())
        };
        for (bl, br) in [(arena, arena), (arena, exact), (exact, arena)] {
            let (mut l, mut r) = (mk(bl), mk(br));
            fill(&mut l, &pts[..60]);
            fill(&mut r, &pts[60..]);
            assert!(l.merge_from(&r), "{bl:?} <- {br:?}");
            assert_eq!(l.to_snapshot(), reference.0, "{bl:?} <- {br:?}");
            assert_eq!(l.finish(), reference.1, "{bl:?} <- {br:?}");
        }
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
        let mut st = Storing::new(&grid, 4, cfg, Backend::Arena { cap_cells: 4096 }, &mut rng);
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
        // Exact backends report nothing.
        let mut rng = StdRng::seed_from_u64(14);
        let ex = Storing::new(&grid, 4, cfg, Backend::Exact { cap_cells: 4096 }, &mut rng);
        assert_eq!(ex.arena_occupancy(), None);
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
