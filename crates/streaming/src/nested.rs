//! Nested arenas: one store serving a ladder of threshold views.
//!
//! Algorithm 4 keeps, per grid level and substream role, one `Storing`
//! structure for every guess `o` of its ladder. All guesses share one
//! λ-wise hash per (role, level) and keep a point iff its hash falls
//! under their threshold, and the thresholds are non-increasing along
//! the ladder. So a point reaches exactly a *prefix* of the ladder, the
//! views `0..cut`, and each view's sample is a subset of the sample of
//! every view below it (nested subsampling over geometric guesses).
//!
//! A [`Nested`] store holds that whole prefix family in one arena: a
//! table keyed by cell, where each cell record carries
//!
//! * one `Tally` per view — the view's point count in the cell and its
//!   eviction flag — over the cell's view prefix, and
//! * one payload of `(point key, multiplicity, cut)` entries, every
//!   point stored once and tagged with the ladder cut it was routed by.
//!
//! View `j`'s `StoringOutput` is the cells whose view-`j` count is
//! non-zero, with the payload entries of cut `> j`. Every rule of the
//! one-view Lemma 4.2 store that depends on history is replayed per view
//! at update time, so each view behaves exactly like a store of its own
//! fed the same updates:
//!
//! * the cell budget `α` and small-cell threshold `β` are per view;
//! * a view's payload is *evicted* (the view turns dirty in that cell)
//!   once the view's count exceeds `2β`, and the flag clears only when
//!   the view's count returns to zero;
//! * the distinct-cell cap kills a runaway view, and `peak_cells` is the
//!   view's own high-water mark;
//! * the update counter, which indexes fault injection, and the trace
//!   identity are per view. Counters fold per batch: a store counts the
//!   batch's updates by cut and adds the suffix sums to its views'
//!   counters once the batch has drained, so an update walks only the
//!   views whose state it changes. Views with an armed fault (none
//!   outside fault-injection runs) tick per update, so the fault check
//!   covers only them and fires at its exact index.
//!
//! Each arena also keeps running totals of its tally and payload entries
//! and of its slot peak, so its byte footprint needs no walk.
//!
//! The shared payload keeps an entry exactly while some live view that
//! holds the point is clean in that cell: with `m` the lowest such view,
//! the payload is every point of cut `> m` with a non-zero multiplicity.
//! Entries of cut `≤ m` are dropped when `m` rises (an eviction or a
//! kill). A view's count returns to zero only when all of its points
//! have, so a view that comes back after an eviction starts from an
//! exact payload — the stream model's "no point is deleted more often
//! than inserted" is what this relies on, as does the one-view store.
//!
//! The one-view case is `Storing`'s arena backend. Cells are
//! keyed by `CellId::pack` and points by `Point::pack`; where a packing
//! does not fit 128 bits the key is a mixing hash (`key128`) that does
//! not invert, and the store keeps a name table (key → `CellId`, key →
//! `Point`), filled from the point each update carries. Cell keys live
//! in a `u64` when the level's packing fits 64 bits and every key
//! unpacks, and in a `u128` otherwise.

use crate::checkpoint::{
    ArenaCheckpoint, CellCheckpoint, CellName, EntryCheckpoint, PointName, ViewCheckpoint,
};
#[cfg(test)]
use crate::storing::CellSnapshot;
use crate::storing::{StoreDeath, StoringConfig, StoringFail, StoringOutput, StoringSnapshot};
use sbc_geometry::{CellId, GridHierarchy, GridParams, Point};
use sbc_hash::{slots_for, OpenTable, TableKey};
use sbc_obs::fault::{FaultPlan, StoreFaultKind};
use sbc_obs::trace::{self, CausalIds, TraceKind};
use std::collections::BTreeMap;

/// Appends the ladder cut of each point key to `out`, in order: how many
/// of the store's views the point reaches.
pub(crate) type CutsOf<'a> = &'a dyn Fn(&[u128], &mut Vec<usize>);

/// One update routed to a nested store: the point (read only to name
/// mixing-hash keys), its key, its cell's key at the store's level, the
/// delta, and the cut — the update reaches views `0..cut`.
pub(crate) type Update<'a> = (&'a Point, u128, u128, i64, usize);

/// Sizing of one view.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ViewSpec {
    /// The view's `Storing` configuration (`α`, `β`, rows).
    pub cfg: StoringConfig,
    /// Distinct-cell cap at which the view dies as a runaway.
    pub cap_cells: usize,
}

/// Update counting, fault injection and trace identity of one store —
/// a view of a nested arena, or a sketch-backed `Storing`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Lifecycle {
    /// Updates absorbed so far, including ones ignored while dead.
    pub updates: u64,
    /// Update index at which an armed fault kills the store
    /// (`u64::MAX`: never), and the kind of death it forces.
    kill_at: u64,
    kill_kind: StoreFaultKind,
    /// Set when the death was injected rather than natural.
    pub injected: Option<StoreDeath>,
    /// Positional store id and `(level, role)` tags.
    pub ids: CausalIds,
}

impl Default for Lifecycle {
    fn default() -> Self {
        Self {
            updates: 0,
            kill_at: u64::MAX,
            kill_kind: StoreFaultKind::RunawayKill,
            injected: None,
            ids: CausalIds::NONE,
        }
    }
}

impl Lifecycle {
    /// Arms `plan`: the store dies at the plan's kill index if `salt` is
    /// among the selected fraction.
    pub fn arm(&mut self, plan: FaultPlan, salt: u64) {
        let armed = plan
            .store_kill_at
            .and_then(|at| plan.store_fault(salt, at).map(|kind| (at, kind)));
        (self.kill_at, self.kill_kind) = armed.unwrap_or((u64::MAX, StoreFaultKind::RunawayKill));
    }

    /// Whether a fault is armed (it may already have fired).
    pub fn armed(&self) -> bool {
        self.kill_at != u64::MAX
    }

    /// Counts one update; returns the kind of death to inject when an
    /// armed fault fires at it. Faults fire before the update at the
    /// kill index applies, and only on a store that is still `live`.
    #[inline]
    pub fn tick(&mut self, live: bool) -> Option<StoreFaultKind> {
        let idx = self.updates;
        self.updates += 1;
        (idx == self.kill_at && live && self.injected.is_none()).then_some(self.kill_kind)
    }

    /// Records an injected death of `kind` (counters and a `Fault` trace
    /// event whose `arg` is the update index it fired at); the caller
    /// frees the store's memory.
    pub fn inject(&mut self, kind: StoreFaultKind) {
        let death = match kind {
            StoreFaultKind::RunawayKill => StoreDeath::RunawayKill,
            StoreFaultKind::SketchOverflow => StoreDeath::SketchOverflow,
        };
        self.injected = Some(death);
        let label = match death {
            StoreDeath::RunawayKill => {
                sbc_obs::counter!("stream.store.kill.runaway_kill").incr();
                "runaway_kill"
            }
            StoreDeath::SketchOverflow => {
                sbc_obs::counter!("stream.store.kill.sketch_overflow").incr();
                "sketch_overflow"
            }
        };
        trace::event(TraceKind::Fault, label, self.ids, self.updates);
    }

    /// Assigns the trace identity and records the spawn; `arg` carries
    /// the cell budget `α`.
    pub fn spawn(&mut self, ids: CausalIds, alpha: usize) {
        self.ids = ids;
        trace::event(TraceKind::StoreSpawn, "store", ids, alpha as u64);
    }
}

/// One view of a nested store. The fields an update reads come first,
/// in declaration order (`repr(C)`), so they share a cache line.
#[repr(C)]
struct View {
    dead: bool,
    /// Cells whose count in this view is non-zero.
    cells: usize,
    /// High-water mark of `cells`.
    peak_cells: usize,
    cap_cells: usize,
    /// A clean payload is evicted once the count exceeds this (`2β`,
    /// at least 2).
    evict_above: i64,
    cfg: StoringConfig,
    life: Lifecycle,
}

impl View {
    fn new(spec: ViewSpec) -> Self {
        Self {
            cfg: spec.cfg,
            evict_above: 2 * (spec.cfg.beta as i64).max(1),
            cap_cells: spec.cap_cells.max(spec.cfg.alpha),
            life: Lifecycle::default(),
            dead: false,
            cells: 0,
            peak_cells: 0,
        }
    }

    fn death(&self) -> Option<StoreDeath> {
        self.life
            .injected
            .or(self.dead.then_some(StoreDeath::RunawayKill))
    }

    /// The Lemma 4.2 FAIL verdict at end of stream, from the counters:
    /// a view that died mid-stream, or one holding more than `α` cells.
    fn check(&self) -> Result<(), StoringFail> {
        if self.dead {
            return Err(StoringFail::Overflowed);
        }
        if self.cells > self.cfg.alpha {
            return Err(StoringFail::TooManyCells {
                found: self.cells,
                alpha: self.cfg.alpha,
            });
        }
        Ok(())
    }

    /// Marks the view dead; its cells are purged from the arena by the
    /// caller ([`Arena::purge`]).
    fn kill(&mut self) {
        self.dead = true;
        self.cells = 0;
    }

    /// The occupancy-cap kill. `pending` counts the updates of the batch
    /// being drained that reached the view and are not yet folded into
    /// its counter (see [`Views::pending`]); the trace event's `arg` is
    /// the view's update count including them.
    fn kill_runaway(&mut self, pending: u64) {
        self.kill();
        sbc_obs::counter!("stream.store.kill.runaway_kill").incr();
        let updates = self.life.updates + if self.life.armed() { 0 } else { pending };
        trace::event(TraceKind::StoreKill, "runaway_kill", self.life.ids, updates);
    }

    /// Fires an armed fault at this update, if any; returns whether the
    /// view died.
    #[inline]
    fn tick(&mut self) -> bool {
        match self.life.tick(!self.dead) {
            Some(kind) => {
                self.life.inject(kind);
                self.kill();
                true
            }
            None => false,
        }
    }
}

/// One view's state in one cell.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Tally {
    /// The view's net point count in the cell (0: the view does not
    /// hold the cell).
    count: i64,
    /// Whether the view's payload was evicted since the cell last
    /// entered the view.
    dirty: bool,
}

/// One payload point: its key, its net multiplicity, and the ladder cut
/// it was routed by (it belongs to views `0..cut`).
#[derive(Clone, Copy, Debug)]
struct Entry {
    key: u128,
    mult: i64,
    cut: u32,
}

/// One cell's record.
#[derive(Clone, Default)]
struct Cell {
    /// Tallies of the views that hold the cell or lie below one that
    /// does, from the store's first live view on ([`Views::base`]);
    /// trailing views that do not hold the cell are trimmed.
    tallies: Vec<Tally>,
    /// Points needed by the lowest live view that is clean here.
    points: Vec<Entry>,
}

impl Cell {
    /// Drops trailing views that do not hold the cell.
    fn trim(&mut self) {
        while self.tallies.last().is_some_and(|t| t.count == 0) {
            self.tallies.pop();
        }
    }

    /// Drops the payload entries no live clean view needs: after an
    /// eviction or a kill, only points above the lowest live view that
    /// is clean in this cell remain.
    fn drop_unheld(&mut self, vs: &Views, names: &mut Names<Point>) {
        let lowest = self
            .tallies
            .iter()
            .zip(vs.live())
            .position(|(t, v)| !v.dead && t.count != 0 && !t.dirty)
            .map_or(usize::MAX, |k| vs.base + k);
        self.points.retain(|e| {
            let keep = e.cut as usize > lowest;
            if let (false, Some(names)) = (keep, names.as_mut()) {
                names.remove(e.key);
            }
            keep
        });
    }
}

/// The views of a nested store. Leading views that died hold nothing,
/// so cells keep no tallies for them: tally `k` of a cell belongs to
/// view `base + k`.
struct Views {
    all: Vec<View>,
    /// Number of leading dead views.
    base: usize,
    /// Updates of the batch being drained, by cut: `pending[c]` of them
    /// reached views `0..c`. Routing an update bumps one slot instead of
    /// walking its views; [`Self::fold_pending`] adds the suffix sums to
    /// the views' counters once the batch has drained.
    pending: Vec<u64>,
    /// The largest cut of the batch being drained: the fold walks only
    /// the views below it.
    reach: usize,
    /// Views with an armed fault, ascending. Their counters tick per
    /// update, so the fault fires at its exact index; the fold skips
    /// them.
    armed: Vec<usize>,
    /// The arena's slot model: the largest `peak_cells` of a live view
    /// (meaningful while some view lives; see [`Nested::peak`]).
    slot_peak: usize,
}

impl Views {
    fn new(all: Vec<View>) -> Self {
        let mut vs = Self {
            pending: vec![0; all.len() + 1],
            reach: 0,
            all,
            base: 0,
            armed: Vec::new(),
            slot_peak: 0,
        };
        vs.recount_peak();
        vs
    }

    /// Adds each view's share of the drained batch to its counter.
    fn fold_pending(&mut self) {
        let reach = std::mem::take(&mut self.reach);
        let mut reached = 0;
        for (v, &n) in self.all[..reach].iter_mut().zip(&self.pending[1..]).rev() {
            reached += n;
            if !v.life.armed() {
                v.life.updates += reached;
            }
        }
        self.pending[..=reach].fill(0);
    }

    /// Re-derives [`Self::slot_peak`] from the live views (after a death,
    /// a load or a merge).
    fn recount_peak(&mut self) {
        self.slot_peak = self
            .live()
            .iter()
            .filter(|v| !v.dead)
            .map(|v| v.peak_cells)
            .max()
            .unwrap_or(0);
    }

    /// The views from the first live one on.
    fn live(&self) -> &[View] {
        &self.all[self.base..]
    }

    fn all_dead(&self) -> bool {
        self.base == self.all.len()
    }

    /// Re-counts the leading dead views; returns how far `base` moved.
    fn rebase(&mut self) -> usize {
        let old = self.base;
        self.base = self.all.iter().take_while(|v| v.dead).count();
        self.base - old
    }
}

/// A cell-key width of the arena: `u64` when the level's packed cell ids
/// fit 64 bits and every key unpacks, `u128` otherwise.
trait CellKey: TableKey + Into<u128> {
    /// Whether an arena of this width may keep name tables; the narrow
    /// one never does, which compiles the name upkeep out of its hot
    /// path.
    const NAMED: bool;

    /// The key from its 128-bit form, which fits by the constructor's
    /// choice of width.
    fn from_wide(key: u128) -> Self;
}

impl CellKey for u64 {
    const NAMED: bool = false;

    #[inline]
    fn from_wide(key: u128) -> Self {
        debug_assert!(key <= u64::MAX as u128, "narrow cell keys fit u64");
        key as u64
    }
}

impl CellKey for u128 {
    const NAMED: bool = true;

    #[inline]
    fn from_wide(key: u128) -> Self {
        key
    }
}

/// Key → name table for keys that are mixing hashes (boxed: most stores
/// have none, and an unboxed pair would grow every store).
type Names<V> = Option<Box<OpenTable<u128, V>>>;

/// Drops the names of `points` (a payload being evicted or merged away).
fn forget_points(names: &mut Names<Point>, points: &[Entry]) {
    if let Some(names) = names {
        for e in points {
            names.remove(e.key);
        }
    }
}

/// Whether `keys` has no repeats (a point sits in one cell of a level).
fn distinct(mut keys: Vec<u128>) -> bool {
    keys.sort_unstable();
    keys.windows(2).all(|w| w[0] != w[1])
}

/// Whether `p` is a point of the universe `[Δ]^d` of `gp`: what a read
/// image's points are checked against before any key is computed from
/// them.
pub(crate) fn point_in_grid(gp: GridParams, p: &Point) -> bool {
    p.dim() == gp.d && p.coords().iter().all(|&c| u64::from(c) <= gp.delta)
}

/// Where the arena's keys come from.
struct Ctx<'a> {
    grid: &'a GridHierarchy,
    level: i32,
}

impl Ctx<'_> {
    /// Whether `coords` index a cell of this level inside the grid's
    /// range, `[0, 2^w)` per coordinate with `w` the level's packing
    /// width — what `CellId::pack` accepts. Read images are checked
    /// with it before any key is computed from them.
    fn cell_in_range(&self, coords: &[i64]) -> bool {
        let w = if self.level >= 0 { self.level + 2 } else { 1 };
        coords.len() == self.grid.params().d
            && coords.iter().all(|&c| (0..1i64 << w.min(62)).contains(&c))
    }

    /// Whether `p` is a point of the grid's universe `[Δ]^d`.
    fn point_in_range(&self, p: &Point) -> bool {
        point_in_grid(self.grid.params(), p)
    }

    /// Whether `key` is a `CellId::pack` of a cell of this level — what
    /// `CellId::unpack` accepts — checked without building the cell.
    fn packs_cell(&self, key: u128) -> bool {
        let w = if self.level >= 0 {
            self.level as u32 + 2
        } else {
            1
        };
        let bits = w * self.grid.params().d as u32;
        bits + 6 <= 128 && key >> bits == (self.level + 1) as u128
    }

    /// Whether `key` is a `Point::pack` of a point of `[Δ]^d`, checked
    /// without building the point.
    fn packs_point(&self, key: u128) -> bool {
        let gp = self.grid.params();
        let bits = sbc_geometry::point::bits_for(gp.delta);
        let mask = (1u128 << bits) - 1;
        bits as usize * gp.d <= 128
            && key.checked_shr(bits * gp.d as u32).unwrap_or(0) == 0
            && (0..gp.d as u32).all(|i| (key >> (i * bits)) & mask < u128::from(gp.delta))
    }
}

/// Largest `peak_cells` a read image may carry: table indices are `u32`,
/// and slot-model arithmetic on larger peaks would overflow.
const MAX_PEAK_CELLS: u64 = u32::MAX as u64;

/// The arena over one cell-key width.
struct Arena<K> {
    table: OpenTable<K, Cell>,
    /// `CellId` of every live cell key, when the level's cell keys are
    /// mixing hashes.
    cell_names: Names<CellId>,
    /// [`Point`] of every payload point key, when point keys are mixing
    /// hashes.
    point_names: Names<Point>,
    /// Running entry counts of the cells, kept wherever a cell's
    /// tallies or payload change, so the arena's bytes need no walk.
    footprint: Footprint,
}

/// The entries that size an arena's cell records.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Footprint {
    /// View tallies over all cells.
    tallies: usize,
    /// Payload entries over all cells (each with a point name where
    /// point keys are mixing hashes).
    points: usize,
}

impl Footprint {
    /// The entries of one cell.
    fn of(cell: &Cell) -> Self {
        Self {
            tallies: cell.tallies.len(),
            points: cell.points.len(),
        }
    }

    /// Adds a cell's entries.
    fn add(&mut self, cell: &Cell) {
        self.tallies += cell.tallies.len();
        self.points += cell.points.len();
    }

    /// Replaces a cell's entries `before` with `after`.
    fn swap(&mut self, before: Self, after: Self) {
        self.tallies = self.tallies - before.tallies + after.tallies;
        self.points = self.points - before.points + after.points;
    }
}

impl<K: CellKey> Arena<K> {
    fn new(named_cells: bool, named_points: bool) -> Self {
        debug_assert!(K::NAMED || !(named_cells || named_points));
        Self {
            table: OpenTable::default(),
            cell_names: named_cells.then(Box::default),
            point_names: named_points.then(Box::default),
            footprint: Footprint::default(),
        }
    }

    /// Counts the entries of every cell — what [`Self::footprint`] keeps
    /// running.
    fn walk_footprint(&self) -> Footprint {
        let mut fp = Footprint::default();
        for (_, cell) in self.table.iter() {
            fp.add(cell);
        }
        fp
    }

    /// Frees everything (every view is dead).
    fn clear(&mut self) {
        self.table.clear_shrink();
        if let Some(names) = &mut self.cell_names {
            names.clear_shrink();
        }
        if let Some(names) = &mut self.point_names {
            names.clear_shrink();
        }
        self.footprint = Footprint::default();
    }

    /// Removes dead views from every cell: drops the tallies of newly
    /// dead leading views, zeroes those of other dead views, drops the
    /// payload no live clean view needs and the cells no live view
    /// holds; frees the arena once every view is dead.
    fn purge(&mut self, vs: &mut Views) {
        let shift = vs.rebase();
        vs.recount_peak();
        if vs.all_dead() {
            self.clear();
            return;
        }
        let Arena {
            table,
            cell_names,
            point_names,
            footprint,
        } = self;
        *footprint = Footprint::default();
        table.retain(|key, cell| {
            cell.tallies.drain(..shift.min(cell.tallies.len()));
            for (t, v) in cell.tallies.iter_mut().zip(vs.live()) {
                if v.dead {
                    *t = Tally::default();
                }
            }
            cell.trim();
            cell.drop_unheld(vs, point_names);
            let keep = !cell.tallies.is_empty();
            if keep {
                footprint.add(cell);
            } else {
                forget_points(point_names, &cell.points);
                if let Some(names) = cell_names.as_mut() {
                    names.remove(key.into());
                }
            }
            keep
        });
    }

    /// Applies one update to views `0..cut`: the update is counted by
    /// its cut (folded into the views' counters when the batch drains)
    /// and ticks the armed views among them; then, per view, the cap
    /// kill before a cell enters the view, peak tracking, the count, the
    /// eviction past `2β` and the reset at zero; then the shared payload.
    /// Returns whether a view died (the caller purges).
    #[inline]
    fn apply(&mut self, cx: &Ctx, vs: &mut Views, up: Update<'_>) -> bool {
        let (p, point_key, cell_key, delta, cut) = up;
        vs.pending[cut] += 1;
        vs.reach = vs.reach.max(cut);
        let mut died = false;
        for &j in &vs.armed {
            if j >= cut {
                break;
            }
            died |= vs.all[j].tick();
        }
        if sbc_obs::enabled() {
            sbc_obs::counter!("stream.store.updates").add(cut as u64);
            sbc_obs::counter!("stream.store.map_probes").incr();
        }
        let base = vs.base;
        if cut <= base || vs.all[base..cut].iter().all(|v| v.dead) {
            return died;
        }
        let Arena {
            table,
            cell_names,
            point_names,
            footprint,
        } = self;
        let key = K::from_wide(cell_key);
        let (cell, fresh) = table.get_or_insert_with(key, Cell::default);
        if let (true, true, Some(names)) = (K::NAMED, fresh, cell_names.as_mut()) {
            names.insert_absent(cell_key, cx.grid.cell_of(p, cx.level));
        }
        let before = Footprint::of(cell);
        let reach = cut - base;
        if cell.tallies.len() < reach {
            cell.tallies.resize(reach, Tally::default());
        }
        // Whether a view that was clean before this update holds the
        // cell, so the shared payload must follow the point.
        let mut held = false;
        let mut evicted = false;
        for (j, (v, t)) in (base..).zip(vs.all[base..cut].iter_mut().zip(&mut cell.tallies)) {
            if v.dead {
                continue;
            }
            if t.count == 0 {
                if v.cells >= v.cap_cells {
                    v.kill_runaway(vs.pending[j + 1..].iter().sum());
                    died = true;
                    continue;
                }
                v.cells += 1;
                v.peak_cells = v.peak_cells.max(v.cells);
                vs.slot_peak = vs.slot_peak.max(v.peak_cells);
            }
            t.count += delta;
            debug_assert!(t.count >= 0, "stream model: no over-deletion");
            held |= !t.dirty;
            if !t.dirty && t.count > v.evict_above {
                t.dirty = true;
                evicted = true;
            }
            if t.count == 0 {
                t.dirty = false;
                v.cells -= 1;
            }
        }
        let mut unnamed = None;
        let point_names = if K::NAMED { point_names } else { &mut unnamed };
        if held {
            if sbc_obs::enabled() {
                sbc_obs::counter!("stream.store.map_probes").incr();
            }
            match cell.points.iter().position(|e| e.key == point_key) {
                None => {
                    if delta != 0 {
                        cell.points.push(Entry {
                            key: point_key,
                            mult: delta,
                            cut: cut as u32,
                        });
                        if let Some(names) = point_names.as_mut() {
                            names.insert_absent(point_key, p.clone());
                        }
                    }
                }
                Some(i) => {
                    cell.points[i].mult += delta;
                    if cell.points[i].mult == 0 {
                        cell.points.swap_remove(i);
                        if let Some(names) = point_names.as_mut() {
                            names.remove(point_key);
                        }
                    }
                }
            }
        }
        if evicted {
            cell.drop_unheld(vs, point_names);
        }
        cell.trim();
        if cell.tallies.is_empty() {
            footprint.swap(before, Footprint::default());
            forget_points(point_names, &cell.points);
            table.remove(key);
            if let (true, Some(names)) = (K::NAMED, cell_names.as_mut()) {
                names.remove(cell_key);
            }
        } else {
            footprint.swap(before, Footprint::of(cell));
        }
        died
    }

    /// Drains a batch of updates in order, then folds the batch into the
    /// views' update counters.
    fn drain<'a, I: Iterator<Item = Update<'a>>>(&mut self, cx: &Ctx, vs: &mut Views, items: I) {
        for up in items {
            if self.apply(cx, vs, up) {
                self.purge(vs);
            }
        }
        vs.fold_pending();
    }

    fn cell_name(&self, key: u128, cx: &Ctx) -> CellId {
        match &self.cell_names {
            Some(names) => names.get(key).expect("every live cell is named").clone(),
            None => CellId::unpack(key, cx.level, cx.grid.params().d)
                .expect("arena cell keys are valid packings"),
        }
    }

    fn point_name(&self, key: u128, cx: &Ctx) -> Point {
        match &self.point_names {
            Some(names) => names
                .get(key)
                .expect("every payload point is named")
                .clone(),
            None => {
                let gp = cx.grid.params();
                Point::unpack(key, gp.delta, gp.d).expect("arena point keys are valid packings")
            }
        }
    }

    /// View `j`'s Lemma 4.2 output: its verdict first, then a walk of
    /// the cells it holds.
    fn finish(&self, cx: &Ctx, vs: &Views, j: usize) -> Result<StoringOutput, StoringFail> {
        let view = &vs.all[j];
        view.check()?;
        let k = j - vs.base;
        let beta = view.cfg.beta as i64;
        let mut out_cells = Vec::with_capacity(view.cells);
        let mut small_points = Vec::new();
        let mut dirty_small_cells = Vec::new();
        for (key, cell) in self.table.iter() {
            let Some(&t) = cell.tallies.get(k).filter(|t| t.count > 0) else {
                continue;
            };
            let name = self.cell_name(key.into(), cx);
            if t.count <= beta {
                if t.dirty {
                    dirty_small_cells.push(name.clone());
                } else {
                    for e in &cell.points {
                        if e.cut as usize > j && e.mult > 0 {
                            small_points.push((self.point_name(e.key, cx), e.mult));
                        }
                    }
                }
            }
            out_cells.push((name, t.count));
        }
        debug_assert_eq!(out_cells.len(), view.cells, "view {j}'s running cell count");
        out_cells.sort_by(|a, b| a.0.cmp(&b.0));
        small_points.sort_by(|a, b| a.0.cmp(&b.0));
        dirty_small_cells.sort();
        Ok(StoringOutput {
            cells: out_cells,
            small_points,
            dirty_small_cells,
        })
    }

    /// Every view's cells, in the canonical snapshot order: cells sorted
    /// by key, each cell's points sorted by key.
    #[cfg(test)]
    fn snapshots(&self, cx: &Ctx, vs: &Views) -> Vec<Vec<CellSnapshot>> {
        let mut cells: Vec<(u128, &Cell)> = self.table.iter().map(|(k, c)| (k.into(), c)).collect();
        cells.sort_unstable_by_key(|&(k, _)| k);
        let mut out: Vec<Vec<CellSnapshot>> = vs.all.iter().map(|_| Vec::new()).collect();
        for (key, cell) in cells {
            let name = self.cell_name(key, cx);
            let mut points = cell.points.clone();
            points.sort_unstable_by_key(|e| e.key);
            let points: Vec<(Point, i64, u32)> = points
                .iter()
                .map(|e| (self.point_name(e.key, cx), e.mult, e.cut))
                .collect();
            for (j, (t, snaps)) in cell.tallies.iter().zip(&mut out[vs.base..]).enumerate() {
                if t.count == 0 {
                    continue;
                }
                let j = vs.base + j;
                let points = if t.dirty {
                    Vec::new()
                } else {
                    points
                        .iter()
                        .filter(|(_, _, cut)| *cut as usize > j)
                        .map(|(p, m, _)| (p.clone(), *m))
                        .collect()
                };
                snaps.push(CellSnapshot {
                    cell: name.clone(),
                    count: t.count,
                    dirty: t.dirty,
                    points,
                });
            }
        }
        out
    }

    /// Rebuilds the arena from every view's snapshot cells (dead views
    /// have none). A cell's payload comes from its lowest clean view,
    /// each point tagged with `cut_of(point key)`. Returns `false` when
    /// the snapshots contradict each other or the cuts.
    fn load(
        &mut self,
        cx: &Ctx,
        vs: &Views,
        snaps: &[&StoringSnapshot],
        cut_of: &dyn Fn(u128) -> usize,
    ) -> bool {
        let delta = cx.grid.params().delta;
        let width = vs.all.len() - vs.base;
        let mut cells: BTreeMap<u128, (CellId, Cell, bool)> = BTreeMap::new();
        let mut point_names = Vec::new();
        for (j, snap) in snaps.iter().enumerate().skip(vs.base) {
            let k = j - vs.base;
            for c in &snap.cells {
                if c.cell.level != cx.level || !cx.cell_in_range(&c.cell.coords) {
                    return false;
                }
                let (_, cell, has_payload) = cells
                    .entry(c.cell.key128())
                    .or_insert_with(|| (c.cell.clone(), Cell::default(), false));
                if cell.tallies.len() < width {
                    cell.tallies.resize(width, Tally::default());
                }
                if c.count <= 0 || cell.tallies[k].count != 0 {
                    return false;
                }
                cell.tallies[k] = Tally {
                    count: c.count,
                    dirty: c.dirty,
                };
                if c.dirty || *has_payload {
                    continue;
                }
                *has_payload = true;
                for (p, mult) in &c.points {
                    if !cx.point_in_range(p) {
                        return false;
                    }
                    let key = p.key128(delta);
                    let cut = cut_of(key);
                    if cut <= j {
                        return false;
                    }
                    cell.points.push(Entry {
                        key,
                        mult: *mult,
                        cut: cut as u32,
                    });
                    point_names.push((key, p.clone()));
                }
            }
        }
        if !distinct(point_names.iter().map(|(k, _)| *k).collect()) {
            return false;
        }
        if let Some(names) = &mut self.cell_names {
            **names = OpenTable::from_entries(
                cells
                    .iter()
                    .map(|(&k, (name, _, _))| (k, name.clone()))
                    .collect(),
            );
        }
        if let Some(names) = &mut self.point_names {
            **names = OpenTable::from_entries(point_names);
        }
        self.table = OpenTable::from_entries(
            cells
                .into_iter()
                .map(|(k, (_, mut cell, _))| {
                    cell.trim();
                    (K::from_wide(k), cell)
                })
                .collect(),
        );
        self.footprint = self.walk_footprint();
        true
    }

    /// The arena's cells in the canonical checkpoint order: cells sorted
    /// by key, each cell's payload sorted by point key.
    fn checkpoint(&self) -> Vec<CellCheckpoint> {
        let mut cells: Vec<(K, &Cell)> = self.table.iter().collect();
        cells.sort_unstable_by_key(|&(k, _)| k.into());
        cells
            .into_iter()
            .map(|(key, cell)| {
                let wide: u128 = key.into();
                let name = match (&self.cell_names, K::NAMED) {
                    (Some(names), _) => {
                        CellName::Coords(names.get(wide).expect("named cell").coords.clone())
                    }
                    (None, false) => CellName::Narrow(wide as u64),
                    (None, true) => CellName::Wide(wide),
                };
                let mut points = cell.points.clone();
                points.sort_unstable_by_key(|e| e.key);
                CellCheckpoint {
                    cell: name,
                    tallies: cell.tallies.iter().map(|t| (t.count, t.dirty)).collect(),
                    points: points
                        .iter()
                        .map(|e| EntryCheckpoint {
                            point: match &self.point_names {
                                Some(names) => PointName::Coords(
                                    names.get(e.key).expect("named point").clone(),
                                ),
                                None => PointName::Packed(e.key),
                            },
                            mult: e.mult,
                            cut: e.cut,
                        })
                        .collect(),
                }
            })
            .collect()
    }

    /// Loads cells written by [`Self::checkpoint`] into this empty
    /// arena and counts each view's cells. Returns `false` when a cell
    /// or point is named in the wrong form for the arena or out of the
    /// grid's range, keys are not strictly ascending, a tally prefix is
    /// not trimmed or gives a dead view a count, or the payload is not
    /// exactly what the arena keeps: points of the cut `cuts` gives,
    /// above the lowest live view that is clean in the cell.
    fn load_cells(
        &mut self,
        cx: &Ctx,
        vs: &mut Views,
        cells: &[CellCheckpoint],
        cuts: CutsOf,
    ) -> bool {
        let gp = cx.grid.params();
        let width = vs.all.len() - vs.base;
        let mut entries = Vec::with_capacity(cells.len());
        let mut cell_names = Vec::new();
        let mut point_names = Vec::new();
        let mut point_keys = Vec::new();
        let mut recorded = Vec::new();
        let mut prev = None;
        for c in cells {
            let key = match (&c.cell, &self.cell_names, K::NAMED) {
                (CellName::Narrow(key), None, false) => u128::from(*key),
                (CellName::Wide(key), None, true) => *key,
                (CellName::Coords(coords), Some(_), _) if cx.cell_in_range(coords) => {
                    let name = CellId {
                        level: cx.level,
                        coords: coords.clone(),
                    };
                    let key = name.key128();
                    cell_names.push((key, name));
                    key
                }
                _ => return false,
            };
            if prev >= Some(key) || (self.cell_names.is_none() && !cx.packs_cell(key)) {
                return false;
            }
            prev = Some(key);

            let tallies: Vec<Tally> = c
                .tallies
                .iter()
                .map(|&(count, dirty)| Tally { count, dirty })
                .collect();
            let well_formed = !tallies.is_empty()
                && tallies.len() <= width
                && tallies.last().is_some_and(|t| t.count != 0)
                && tallies.iter().zip(vs.live()).all(|(t, v)| {
                    t.count >= 0 && (t.count > 0 || !t.dirty) && (t.count == 0 || !v.dead)
                });
            if !well_formed {
                return false;
            }
            for (t, v) in tallies.iter().zip(&mut vs.all[vs.base..]) {
                v.cells += usize::from(t.count != 0);
            }
            let lowest = tallies
                .iter()
                .position(|t| t.count != 0 && !t.dirty)
                .map_or(usize::MAX, |k| vs.base + k);

            let mut points = Vec::with_capacity(c.points.len());
            for e in &c.points {
                let key = match (&e.point, &self.point_names) {
                    (PointName::Packed(key), None) if cx.packs_point(*key) => *key,
                    (PointName::Coords(p), Some(_)) if cx.point_in_range(p) => {
                        let key = p.key128(gp.delta);
                        point_names.push((key, p.clone()));
                        key
                    }
                    _ => return false,
                };
                if e.mult == 0 || e.cut as usize <= lowest {
                    return false;
                }
                if points.last().is_some_and(|x: &Entry| x.key >= key) {
                    return false;
                }
                points.push(Entry {
                    key,
                    mult: e.mult,
                    cut: e.cut,
                });
                point_keys.push(key);
                recorded.push(e.cut as usize);
            }
            entries.push((K::from_wide(key), Cell { tallies, points }));
        }
        let mut computed = Vec::with_capacity(point_keys.len());
        cuts(&point_keys, &mut computed);
        if computed != recorded || !distinct(point_keys) {
            return false;
        }
        self.table = OpenTable::from_entries(entries);
        self.footprint = self.walk_footprint();
        if let Some(names) = &mut self.cell_names {
            **names = OpenTable::from_entries(cell_names);
        }
        if let Some(names) = &mut self.point_names {
            **names = OpenTable::from_entries(point_names);
        }
        true
    }

    /// Folds `other`'s cells into this arena, whose views were already
    /// poisoned and purged wherever either side is dead (so `vs.base` ≥
    /// `other_base`): per live view, counts add and eviction flags OR;
    /// payload multiplicities add. The post-pass then applies the
    /// eviction and emptied-cell rules over the merged totals and
    /// recounts each view's cells.
    fn merge_from(&mut self, other: &Self, other_base: usize, vs: &mut Views) {
        let skip = vs.base - other_base;
        let Arena {
            table,
            cell_names,
            point_names,
            footprint,
        } = self;
        for (key, ocell) in other.table.iter() {
            let tallies = ocell.tallies.get(skip..).unwrap_or_default();
            let (cell, fresh) = table.get_or_insert_with(key, Cell::default);
            if fresh {
                if let (Some(names), Some(onames)) = (cell_names.as_mut(), &other.cell_names) {
                    let wide = key.into();
                    names.insert_absent(wide, onames.get(wide).expect("named cell").clone());
                }
            }
            if cell.tallies.len() < tallies.len() {
                cell.tallies.resize(tallies.len(), Tally::default());
            }
            for (t, o) in cell.tallies.iter_mut().zip(tallies) {
                t.count += o.count;
                t.dirty |= o.dirty;
            }
            for e in &ocell.points {
                match cell.points.iter().position(|x| x.key == e.key) {
                    None => {
                        cell.points.push(*e);
                        if let (Some(names), Some(onames)) =
                            (point_names.as_mut(), &other.point_names)
                        {
                            names.insert_absent(
                                e.key,
                                onames.get(e.key).expect("named point").clone(),
                            );
                        }
                    }
                    Some(i) => cell.points[i].mult += e.mult,
                }
            }
        }
        for v in vs.all.iter_mut() {
            v.cells = 0;
        }
        *footprint = Footprint::default();
        let base = vs.base;
        table.retain(|key, cell| {
            for (t, v) in cell.tallies.iter_mut().zip(&mut vs.all[base..]) {
                if v.dead {
                    *t = Tally::default();
                    continue;
                }
                if !t.dirty && t.count > v.evict_above {
                    t.dirty = true;
                }
                if t.count == 0 {
                    t.dirty = false;
                } else {
                    v.cells += 1;
                }
            }
            cell.trim();
            cell.points.retain(|e| {
                if let (0, Some(names)) = (e.mult, point_names.as_mut()) {
                    names.remove(e.key);
                }
                e.mult != 0
            });
            cell.drop_unheld(vs, point_names);
            let keep = !cell.tallies.is_empty();
            if keep {
                footprint.add(cell);
            } else {
                forget_points(point_names, &cell.points);
                if let Some(names) = cell_names.as_mut() {
                    names.remove(key.into());
                }
            }
            keep
        });
    }

    /// Bytes of cell records, view tallies, payloads and name-table
    /// entries at footprint `fp` (the terms shared by
    /// [`Nested::stored_bytes`] and [`Nested::expected_bytes`]):
    /// `(per-cell bytes, tally, payload and name bytes)`.
    fn record_bytes(&self, cx: &Ctx, fp: Footprint) -> (usize, usize) {
        let d = cx.grid.params().d;
        let per_cell = std::mem::size_of::<K>() + 2 * 24; // key + two vec headers
        let per_tally = 8 + 1; // count + flag
        let per_point = 16 + 8 + 4; // point key + multiplicity + cut
        let cell_name = if self.cell_names.is_some() {
            16 + 4 + 24 + 8 * d // key + level + coordinate vector
        } else {
            0
        };
        let point_name = if self.point_names.is_some() {
            16 + 24 + 4 * d // key + coordinate vector
        } else {
            0
        };
        let records = self.table.len() * cell_name
            + fp.tallies * per_tally
            + fp.points * (per_point + point_name);
        (per_cell, records)
    }
}

enum Width {
    /// Cell ids pack into 64 bits at this level.
    Narrow(Arena<u64>),
    /// Cell keys are 128-bit packings or mixing hashes.
    Wide(Arena<u128>),
}

/// Runs `$body` with `$a` bound to the arena of either width.
macro_rules! with_arena {
    ($width:expr, $a:ident => $body:expr) => {
        match $width {
            Width::Narrow($a) => $body,
            Width::Wide($a) => $body,
        }
    };
}

/// One store over a ladder of nested threshold views (see the module
/// docs). View `j` behaves exactly like a one-view Lemma 4.2 store fed
/// the updates whose cut exceeds `j`.
pub(crate) struct Nested {
    level: i32,
    views: Views,
    arena: Width,
}

impl Nested {
    /// A store for grid level `level` with one view per spec, ordered by
    /// nesting (view `j + 1` sees a subset of what view `j` sees).
    pub fn new(grid: &GridHierarchy, level: i32, specs: &[ViewSpec]) -> Self {
        let gp = grid.params();
        let cell_width = if level >= 0 { (level + 2) as usize } else { 1 };
        let cell_bits = 6 + cell_width * gp.d;
        let point_bits = sbc_geometry::point::bits_for(gp.delta) as usize * gp.d;
        // Mirrors `CellId::pack` / `Point::pack`: past 128 bits the keys
        // are mixing hashes and need names.
        let arena = if cell_bits <= 64 && point_bits <= 128 {
            Width::Narrow(Arena::new(false, false))
        } else {
            Width::Wide(Arena::new(cell_bits > 128, point_bits > 128))
        };
        sbc_obs::counter!("stream.store.spawned").add(specs.len() as u64);
        Self {
            level,
            views: Views::new(specs.iter().copied().map(View::new).collect()),
            arena,
        }
    }

    /// Number of views.
    pub fn len(&self) -> usize {
        self.views.all.len()
    }

    /// Whether cell keys are 128 bits wide.
    #[cfg(test)]
    pub fn is_wide(&self) -> bool {
        matches!(self.arena, Width::Wide(_))
    }

    /// `(live cells, payload entries, cell names, point names)`, for
    /// name-table upkeep tests.
    #[cfg(test)]
    pub fn name_counts(&self) -> (usize, usize, Option<usize>, Option<usize>) {
        with_arena!(&self.arena, a => (
            a.table.len(),
            a.table.iter().map(|(_, c)| c.points.len()).sum(),
            a.cell_names.as_ref().map(|n| n.len()),
            a.point_names.as_ref().map(|n| n.len()),
        ))
    }

    fn ctx<'a>(&self, grid: &'a GridHierarchy) -> Ctx<'a> {
        Ctx {
            grid,
            level: self.level,
        }
    }

    /// View `j`'s configuration.
    pub fn config(&self, j: usize) -> &StoringConfig {
        &self.views.all[j].cfg
    }

    /// View `j`'s lifecycle (update count, injected death, trace ids).
    pub fn lifecycle(&self, j: usize) -> &Lifecycle {
        &self.views.all[j].life
    }

    /// Assigns view `j`'s trace identity and records its spawn.
    pub fn set_trace_ids(&mut self, j: usize, ids: CausalIds) {
        let v = &mut self.views.all[j];
        v.life.spawn(ids, v.cfg.alpha);
    }

    /// Arms deterministic fault injection on view `j` (see
    /// `Storing::arm_fault`).
    pub fn arm_fault(&mut self, j: usize, plan: FaultPlan, salt: u64) {
        self.views.all[j].life.arm(plan, salt);
        let vs = &mut self.views;
        vs.armed = (0..vs.all.len())
            .filter(|&k| vs.all[k].life.armed())
            .collect();
    }

    /// Drains a batch of updates, in order.
    pub fn drain<'a, I: Iterator<Item = Update<'a>>>(&mut self, grid: &GridHierarchy, items: I) {
        let cx = self.ctx(grid);
        let vs = &mut self.views;
        with_arena!(&mut self.arena, a => a.drain(&cx, vs, items));
    }

    /// View `j`'s Lemma 4.2 output.
    pub fn finish(&self, grid: &GridHierarchy, j: usize) -> Result<StoringOutput, StoringFail> {
        let cx = self.ctx(grid);
        with_arena!(&self.arena, a => a.finish(&cx, &self.views, j))
    }

    /// The error [`Self::finish`] would return for view `j`, read off the
    /// view's counters in O(1): `Overflowed` for a dead view,
    /// `TooManyCells` when it holds more than `α` cells.
    pub fn check(&self, j: usize) -> Result<(), StoringFail> {
        self.views.all[j].check()
    }

    /// Whether view `j` died mid-stream.
    pub fn is_dead(&self, j: usize) -> bool {
        self.views.all[j].dead
    }

    /// How view `j` died (an injected death reports its forced kind).
    pub fn death(&self, j: usize) -> Option<StoreDeath> {
        self.views.all[j].death()
    }

    /// Every view's snapshot, in view order: what a one-view store fed
    /// the view's updates holds (the tests' reference projection).
    #[cfg(test)]
    pub fn snapshots(&self, grid: &GridHierarchy) -> Vec<StoringSnapshot> {
        let cx = self.ctx(grid);
        let cells = with_arena!(&self.arena, a => a.snapshots(&cx, &self.views));
        self.views
            .all
            .iter()
            .zip(cells)
            .map(|(v, cells)| StoringSnapshot {
                updates: v.life.updates,
                death: v.death(),
                injected: v.life.injected.is_some(),
                peak_cells: v.peak_cells as u64,
                cells,
            })
            .collect()
    }

    /// Overwrites the store's dynamic state with one snapshot per view;
    /// `cut_of` recomputes the ladder cut of a point key. The store must
    /// be freshly built with the structure the snapshots were taken
    /// under. Returns `false` (state unspecified) when the snapshots
    /// are inconsistent.
    pub fn load(
        &mut self,
        grid: &GridHierarchy,
        snaps: &[&StoringSnapshot],
        cut_of: &dyn Fn(u128) -> usize,
    ) -> bool {
        if snaps.len() != self.views.all.len() {
            return false;
        }
        for (v, s) in self.views.all.iter_mut().zip(snaps) {
            if s.peak_cells > MAX_PEAK_CELLS {
                return false;
            }
            v.life.updates = s.updates;
            v.life.injected = if s.injected { s.death } else { None };
            v.peak_cells = s.peak_cells as usize;
            v.dead = s.death.is_some();
            v.cells = if v.dead { 0 } else { s.cells.len() };
            if v.dead && !s.cells.is_empty() {
                return false;
            }
        }
        self.views.rebase();
        self.views.recount_peak();
        let cx = self.ctx(grid);
        let vs = &self.views;
        with_arena!(&mut self.arena, a => {
            if vs.all_dead() {
                a.clear();
            } else if !a.load(&cx, vs, snaps, cut_of) {
                return false;
            }
        });
        true
    }

    /// The store's checkpoint: every view's lifecycle, and every cell once
    /// with its view tallies and payload.
    pub fn checkpoint(&self) -> ArenaCheckpoint {
        ArenaCheckpoint {
            views: self
                .views
                .all
                .iter()
                .map(|v| ViewCheckpoint {
                    updates: v.life.updates,
                    death: v.death(),
                    injected: v.life.injected.is_some(),
                    peak_cells: v.peak_cells as u64,
                })
                .collect(),
            cells: with_arena!(&self.arena, a => a.checkpoint()),
        }
    }

    /// Overwrites the store's dynamic state with a checkpoint taken by
    /// [`Self::checkpoint`] on a store of the same structure; `cuts`
    /// recomputes the ladder cuts of point keys, which must match the
    /// recorded ones. Returns `false` (state unspecified) when the
    /// checkpoint does not fit the store or contradicts itself.
    pub fn load_arena(&mut self, grid: &GridHierarchy, ck: &ArenaCheckpoint, cuts: CutsOf) -> bool {
        if ck.views.len() != self.views.all.len() {
            return false;
        }
        for (v, c) in self.views.all.iter_mut().zip(&ck.views) {
            let natural = matches!(c.death, None | Some(StoreDeath::RunawayKill));
            if (c.injected && c.death.is_none())
                || !(c.injected || natural)
                || c.peak_cells > MAX_PEAK_CELLS
            {
                return false;
            }
            v.life.updates = c.updates;
            v.life.injected = if c.injected { c.death } else { None };
            v.peak_cells = c.peak_cells as usize;
            v.dead = c.death.is_some();
            v.cells = 0;
        }
        self.views.rebase();
        self.views.recount_peak();
        let cx = self.ctx(grid);
        let vs = &mut self.views;
        let loaded = with_arena!(&mut self.arena, a => {
            if vs.all_dead() {
                a.clear();
                ck.cells.is_empty()
            } else {
                a.load_cells(&cx, vs, &ck.cells, cuts)
            }
        });
        loaded && vs.live().iter().all(|v| v.cells <= v.peak_cells)
    }

    /// Folds another store over the same level and views into this one
    /// — per view, exactly `Storing::merge_from`'s rules: a dead side
    /// poisons the view, update counters add, `peak_cells` takes the
    /// max of both sides and the merged occupancy, and the merged
    /// occupancy is re-checked against the cap. Returns `false` without
    /// touching `self` when the stores' shapes differ.
    pub fn merge_from(&mut self, other: &Nested) -> bool {
        if self.views.all.len() != other.views.all.len() || self.level != other.level {
            return false;
        }
        match (&self.arena, &other.arena) {
            (Width::Narrow(_), Width::Narrow(_)) | (Width::Wide(_), Width::Wide(_)) => {}
            _ => return false,
        }
        let mut poisoned = false;
        for (v, o) in self.views.all.iter_mut().zip(&other.views.all) {
            v.life.updates += o.life.updates;
            v.peak_cells = v.peak_cells.max(o.peak_cells);
            if v.dead || o.dead {
                if !v.dead {
                    if v.life.injected.is_none() {
                        v.life.injected = o.life.injected;
                    }
                    poisoned = true;
                }
                v.kill();
                sbc_obs::counter!("stream.merge.dead_stores").incr();
            }
        }
        let vs = &mut self.views;
        if poisoned {
            with_arena!(&mut self.arena, a => a.purge(vs));
        }
        if vs.all_dead() {
            return true;
        }
        match (&mut self.arena, &other.arena) {
            (Width::Narrow(a), Width::Narrow(o)) => a.merge_from(o, other.views.base, vs),
            (Width::Wide(a), Width::Wide(o)) => a.merge_from(o, other.views.base, vs),
            _ => unreachable!("widths checked above"),
        }
        let mut killed = false;
        for v in vs.all.iter_mut().filter(|v| !v.dead) {
            v.peak_cells = v.peak_cells.max(v.cells);
            sbc_obs::counter!("stream.merge.cells").add(v.cells as u64);
            if v.cells > v.cap_cells {
                v.kill_runaway(0);
                killed = true;
            }
        }
        vs.recount_peak();
        if killed {
            with_arena!(&mut self.arena, a => a.purge(vs));
        }
        true
    }

    /// The arena's slot model: the table holds the cells of its lowest
    /// live view, so it is sized by that view's peak, which covers every
    /// live view's (`None` once every view is dead). Kept running in
    /// [`Views::slot_peak`].
    fn peak(&self) -> Option<usize> {
        (!self.views.all_dead()).then_some(self.views.slot_peak)
    }

    /// `(stored, expected)` bytes from the running footprint, or from a
    /// walk of every cell when `walk`; zero once every view is dead.
    fn bytes(&self, grid: &GridHierarchy, walk: bool) -> (usize, usize) {
        let Some(peak) = self.peak() else {
            return (0, 0);
        };
        let cx = self.ctx(grid);
        with_arena!(&self.arena, a => {
            let fp = if walk { a.walk_footprint() } else { a.footprint };
            let (per_cell, records) = a.record_bytes(&cx, fp);
            let slots = slots_for(peak) * 4;
            (
                slots + a.table.len() * per_cell + records,
                slots + peak.next_power_of_two().max(8) * per_cell + records,
            )
        })
    }

    /// Measured bytes of state right now. Deterministic given the
    /// logical state (never reads transient allocator capacities), so
    /// space reports agree across ingest paths and checkpoint restores.
    /// Read off running totals: O(1), no walk of the cells.
    pub fn stored_bytes(&self, grid: &GridHierarchy) -> usize {
        self.bytes(grid, false).0
    }

    /// Capacity-model bytes at realized occupancy: the cell table rounded
    /// up to the power of two covering the peak (see
    /// `Storing::expected_bytes`).
    pub fn expected_bytes(&self, grid: &GridHierarchy) -> usize {
        self.bytes(grid, false).1
    }

    /// `(stored, expected)` bytes recomputed by walking every cell and
    /// view: the reference the running totals must equal.
    #[cfg(test)]
    pub fn walked_bytes(&self, grid: &GridHierarchy) -> (usize, usize) {
        let walked_peak = self
            .views
            .live()
            .iter()
            .filter(|v| !v.dead)
            .map(|v| v.peak_cells)
            .max();
        assert_eq!(walked_peak, self.peak(), "running slot peak");
        self.bytes(grid, true)
    }

    /// `(deterministic slot capacity, live cells)` of the arena; `None`
    /// once every view is dead.
    pub fn occupancy(&self) -> Option<(usize, usize)> {
        let peak = self.peak()?;
        let len = with_arena!(&self.arena, a => a.table.len());
        Some((slots_for(peak), len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sbc_geometry::dataset::uniform;
    use sbc_geometry::GridParams;

    /// Five views with β not monotone along the ladder, small caps (so
    /// some views die as runaways) and an armed fault on view 2.
    fn specs() -> Vec<ViewSpec> {
        [
            (40, 3, 64),
            (40, 1, 48),
            (30, 4, 40),
            (30, 2, 40),
            (20, 1, 24),
        ]
        .into_iter()
        .map(|(alpha, beta, cap_cells)| ViewSpec {
            cfg: StoringConfig {
                alpha,
                beta,
                rows: 1,
            },
            cap_cells,
        })
        .collect()
    }

    const KILL_VIEW_2: FaultPlan = FaultPlan {
        store_kill_at: Some(150),
        store_kill_permille: 1000,
        ..FaultPlan::NONE
    };

    /// A point's cut: a fixed function of its key, as a hash would give.
    fn cut_of(key: u128) -> usize {
        (sbc_obs::fault::splitmix64(key as u64 ^ (key >> 64) as u64) % 6) as usize
    }

    /// A churned stream: insert points (some twice), delete most later.
    fn stream(pts: &[Point], rng: &mut StdRng) -> Vec<(Point, i64)> {
        let mut ops = Vec::new();
        let mut live: Vec<Point> = Vec::new();
        for p in pts {
            for _ in 0..rng.gen_range(1..4) {
                ops.push((p.clone(), 1));
                live.push(p.clone());
            }
            while !live.is_empty() && rng.gen_bool(0.45) {
                let i = rng.gen_range(0..live.len());
                ops.push((live.swap_remove(i), -1));
            }
        }
        ops
    }

    fn nested(grid: &GridHierarchy, level: i32, specs: &[ViewSpec]) -> Nested {
        let mut st = Nested::new(grid, level, specs);
        if specs.len() > 2 {
            st.arm_fault(2, KILL_VIEW_2, 7);
        }
        st
    }

    fn feed(
        st: &mut Nested,
        grid: &GridHierarchy,
        level: i32,
        ops: &[(Point, i64)],
        view: Option<usize>,
    ) {
        let delta = grid.params().delta;
        st.drain(
            grid,
            ops.iter().filter_map(|(p, d)| {
                let pk = p.key128(delta);
                let cut = cut_of(pk);
                let cut = match view {
                    None => cut,
                    Some(j) => usize::from(cut > j),
                };
                (cut > 0).then(|| (p, pk, grid.cell_of(p, level).key128(), *d, cut))
            }),
        );
    }

    /// A kill or fault event: kind, the view it names and its `arg` (the
    /// update count it reports).
    type LifeEvent = (u8, u64, u64);

    /// Kill and fault events of views tagged `first..first + n`,
    /// renumbered from 0.
    fn life_events(first: u64, n: u64) -> Vec<LifeEvent> {
        let mut events: Vec<LifeEvent> = trace::snapshot()
            .merged()
            .iter()
            .map(|(_, r)| r)
            .filter(|r| matches!(r.kind, TraceKind::StoreKill | TraceKind::Fault))
            .filter(|r| (first..first + n).contains(&r.ids.store_id))
            .map(|r| (r.kind as u8, r.ids.store_id - first, r.arg))
            .collect();
        events.sort_unstable();
        events
    }

    /// A nested store fed in batches, with a checkpoint → load between
    /// some of them, against one-view stores fed op by op: after every
    /// batch each view's update count, death, peak and cells equal its
    /// reference, though the nested store folds update counters once per
    /// batch. Only view 2 carries an armed fault, and cap kills land
    /// mid-batch. Under `obs`, each kill and fault event reports the
    /// view's update count including the update it fired at, in both.
    fn batched_views_match_per_op_one_view_stores(
        grid: &GridHierarchy,
        level: i32,
        ops: &[(Point, i64)],
    ) {
        // Tighter caps than `specs()` on views 1, 3 and 4, so those die
        // as runaways, and a looser one on view 0, so it lives.
        let specs: Vec<ViewSpec> = specs()
            .into_iter()
            .zip([400, 10, 40, 8, 6])
            .map(|(spec, cap)| ViewSpec {
                cfg: StoringConfig {
                    alpha: spec.cfg.alpha.min(cap),
                    ..spec.cfg
                },
                cap_cells: cap,
            })
            .collect();
        let n = specs.len();
        let tagged = |first: u64, st: &mut Nested| {
            for j in 0..st.len() {
                st.set_trace_ids(j, CausalIds::NONE.store(first + j as u64));
            }
        };
        let fresh = || {
            let mut st = nested(grid, level, &specs);
            tagged(1, &mut st);
            st
        };
        trace::reset();
        trace::set_enabled(true);
        let mut st = fresh();
        let mut ones: Vec<Nested> = (0..n)
            .map(|j| {
                let mut one = Nested::new(grid, level, &specs[j..=j]);
                if j == 2 {
                    one.arm_fault(0, KILL_VIEW_2, 7);
                }
                one.set_trace_ids(0, CausalIds::NONE.store(101 + j as u64));
                one
            })
            .collect();
        let cuts =
            |keys: &[u128], out: &mut Vec<usize>| out.extend(keys.iter().map(|&k| cut_of(k)));
        let mut mid_batch_kill = false;
        let mut deaths: Vec<LifeEvent> = Vec::new();
        for (b, batch) in ops.chunks(23).enumerate() {
            feed(&mut st, grid, level, batch, None);
            for (j, one) in ones.iter_mut().enumerate() {
                for (k, op) in batch.iter().enumerate() {
                    let alive = !one.is_dead(0);
                    feed(one, grid, level, std::slice::from_ref(op), Some(j));
                    if alive && one.is_dead(0) {
                        let life = one.lifecycle(0);
                        let kind = match life.injected {
                            Some(_) => TraceKind::Fault,
                            None => TraceKind::StoreKill,
                        };
                        deaths.push((kind as u8, j as u64, life.updates));
                        mid_batch_kill |= life.injected.is_none() && k > 0 && k + 1 < batch.len();
                    }
                }
            }
            let snaps = st.snapshots(grid);
            let ck = st.checkpoint();
            for (j, one) in ones.iter().enumerate() {
                assert_eq!(
                    st.finish(grid, j),
                    one.finish(grid, 0),
                    "batch {b}, view {j}"
                );
                assert_eq!(
                    Some(&snaps[j]),
                    one.snapshots(grid).first(),
                    "batch {b}, view {j}"
                );
                assert_eq!(
                    ck.views[j],
                    one.checkpoint().views[0],
                    "batch {b}, view {j}"
                );
            }
            if b % 5 == 4 {
                let mut back = fresh();
                assert!(back.load_arena(grid, &ck, &cuts));
                assert_eq!(back.checkpoint(), ck, "batch {b}");
                st = back;
            }
        }
        trace::set_enabled(false);
        assert!(mid_batch_kill, "a cap kill lands mid-batch");
        assert!(st.is_dead(2) && (0..n).any(|j| !st.is_dead(j)));
        deaths.sort_unstable();
        let (batched, per_op) = (life_events(1, n as u64), life_events(101, n as u64));
        assert_eq!(batched, per_op, "kill and fault events");
        if sbc_obs::COMPILED {
            assert_eq!(
                batched, deaths,
                "kill and fault events report update counts"
            );
        }
    }

    /// `check` answers exactly the error `finish` fails with, from the
    /// view counters alone, and both agree with the verdict a walk of the
    /// view's cells gives: after every batch of a churned stream (cap
    /// kills, an armed fault, stores with more than `α` cells), after
    /// checkpoint → `load_arena`, and after a two-shard merge — so
    /// `View::cells` survives each of them.
    #[test]
    fn check_equals_finish_error() {
        // `(ok, too many cells, overflowed)` verdicts seen.
        let mut seen = [false; 3];
        for (gp, level) in [
            (GridParams::from_log_delta(6, 2), 3),
            (GridParams::from_log_delta(10, 16), 4),
        ] {
            let mut rng = StdRng::seed_from_u64(11);
            let grid = GridHierarchy::new(gp, &mut rng);
            let pts = uniform(gp, 160, 13);
            let ops = stream(&pts, &mut rng);
            let specs = specs();
            let mut agree = |st: &Nested, at: &str| {
                for (j, snap) in st.snapshots(&grid).iter().enumerate() {
                    let alpha = st.config(j).alpha;
                    let walked = match (snap.death, snap.cells.len()) {
                        (Some(_), _) => Err(StoringFail::Overflowed),
                        (None, found) if found > alpha => {
                            Err(StoringFail::TooManyCells { found, alpha })
                        }
                        (None, _) => Ok(()),
                    };
                    let verdict = st.check(j);
                    assert_eq!(verdict, walked, "{at}, view {j}");
                    assert_eq!(verdict, st.finish(&grid, j).map(|_| ()), "{at}, view {j}");
                    let kind = match verdict {
                        Ok(()) => 0,
                        Err(StoringFail::TooManyCells { .. }) => 1,
                        Err(_) => 2,
                    };
                    seen[kind] = true;
                }
            };
            let cuts =
                |keys: &[u128], out: &mut Vec<usize>| out.extend(keys.iter().map(|&k| cut_of(k)));
            let (a_ops, b_ops): (Vec<_>, Vec<_>) = ops
                .iter()
                .cloned()
                .partition(|(p, _)| p.key128(gp.delta) % 2 == 0);
            let mut shards = [&a_ops, &b_ops].map(|ops| (nested(&grid, level, &specs), ops));
            for (s, (st, ops)) in shards.iter_mut().enumerate() {
                for (b, batch) in ops.chunks(17).enumerate() {
                    feed(st, &grid, level, batch, None);
                    agree(st, &format!("shard {s}, batch {b}"));
                    if b % 4 == 3 {
                        let mut back = nested(&grid, level, &specs);
                        assert!(back.load_arena(&grid, &st.checkpoint(), &cuts));
                        agree(&back, &format!("shard {s}, loaded at batch {b}"));
                        *st = back;
                    }
                }
            }
            let [(mut a, _), (b, _)] = shards;
            assert!(a.merge_from(&b));
            agree(&a, "merged");
        }
        assert_eq!(seen, [true; 3], "every verdict shows");
    }

    /// Every view of a nested store equals a one-view store fed only the
    /// updates that reach it — through evictions, cap kills, an injected
    /// fault, snapshot → load and a two-shard merge — at a narrow and a
    /// named (mixing-hash) geometry.
    #[test]
    fn views_match_independent_one_view_stores() {
        for (gp, level) in [
            (GridParams::from_log_delta(6, 2), 3),
            (GridParams::from_log_delta(10, 16), 4),
        ] {
            let mut rng = StdRng::seed_from_u64(5);
            let grid = GridHierarchy::new(gp, &mut rng);
            let pts = uniform(gp, 160, 9);
            let ops = stream(&pts, &mut rng);
            let specs = specs();
            let single = |j: usize, ops: &[(Point, i64)]| {
                let mut st = Nested::new(&grid, level, &specs[j..=j]);
                if j == 2 {
                    st.arm_fault(0, KILL_VIEW_2, 7);
                }
                feed(&mut st, &grid, level, ops, Some(j));
                st
            };
            let check = |st: &Nested, ones: &[Nested]| {
                let snaps = st.snapshots(&grid);
                for (j, one) in ones.iter().enumerate() {
                    assert_eq!(st.finish(&grid, j), one.finish(&grid, 0), "view {j}");
                    assert_eq!(Some(&snaps[j]), one.snapshots(&grid).first(), "view {j}");
                }
            };

            let mut st = nested(&grid, level, &specs);
            feed(&mut st, &grid, level, &ops, None);
            let ones: Vec<Nested> = (0..specs.len()).map(|j| single(j, &ops)).collect();
            check(&st, &ones);
            assert!(st.is_dead(2), "the armed fault fires");
            assert!((0..specs.len()).any(|j| !st.is_dead(j)));
            let evicted = (0..specs.len())
                .filter_map(|j| st.finish(&grid, j).ok())
                .any(|out| !out.dirty_small_cells.is_empty());
            assert!(
                evicted || gp.d > 2,
                "some view evicted a payload and came back small"
            );

            // Per-view snapshots → load, and the arena checkpoint → load,
            // each rebuild the same store.
            let snaps = st.snapshots(&grid);
            let mut back = Nested::new(&grid, level, &specs);
            let refs: Vec<&StoringSnapshot> = snaps.iter().collect();
            assert!(back.load(&grid, &refs, &cut_of));
            assert_eq!(back.snapshots(&grid), snaps);
            assert_eq!(back.stored_bytes(&grid), st.stored_bytes(&grid));
            let ck = st.checkpoint();
            assert_eq!(back.checkpoint(), ck);
            let mut back = Nested::new(&grid, level, &specs);
            let cuts =
                |keys: &[u128], out: &mut Vec<usize>| out.extend(keys.iter().map(|&k| cut_of(k)));
            assert!(back.load_arena(&grid, &ck, &cuts));
            assert_eq!(back.snapshots(&grid), snaps);
            assert_eq!(back.stored_bytes(&grid), st.stored_bytes(&grid));

            batched_views_match_per_op_one_view_stores(&grid, level, &ops);

            // Two shards split by point, merged, equal the one-view merges.
            let (a_ops, b_ops): (Vec<_>, Vec<_>) = ops
                .iter()
                .cloned()
                .partition(|(p, _)| p.key128(gp.delta) % 2 == 0);
            let mut a = nested(&grid, level, &specs);
            feed(&mut a, &grid, level, &a_ops, None);
            let mut b = nested(&grid, level, &specs);
            feed(&mut b, &grid, level, &b_ops, None);
            assert!(a.merge_from(&b));
            let merged: Vec<Nested> = (0..specs.len())
                .map(|j| {
                    let mut one = single(j, &a_ops);
                    assert!(one.merge_from(&single(j, &b_ops)));
                    one
                })
                .collect();
            check(&a, &merged);
        }
    }
}
