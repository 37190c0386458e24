//! Algorithm 4 — the one-pass dynamic-streaming coreset (Theorem 4.5).
//!
//! For every guess `o` in the geometric ladder
//! `{1, 2, 4, …, Δ^d·(√d·Δ)^r}` the builder maintains, per grid level,
//! three λ-wise-subsampled substream summaries (`Storing` structures):
//!
//! * role **h** at rate `ψᵢ = min(1, c/Tᵢ(o))` over levels `−1..L−1` —
//!   drives the heavy-cell marking (Algorithm 3 → Algorithm 1);
//! * role **h′** at rate `ψ′ᵢ = min(1, c/(γTᵢ(o)))` over levels `0..L` —
//!   estimates the part masses `τ(Q_{i,j})`;
//! * role **ĥ** at rate `φᵢ` over levels `0..L` — carries the candidate
//!   coreset points (levels with `Tᵢ(o) ≤ 1` cannot contain non-empty
//!   crucial cells and are skipped).
//!
//! One λ-wise hash per (level, role) is shared across the ladder — the
//! instances differ only in thresholds, which are *nested* (larger `o` ⇒
//! lower rate), so each instance sees exactly the sample a dedicated
//! hash would have produced, and that sample is a subset of every lower
//! instance's. The builder therefore keeps one nested store per (role,
//! level) (`crate::nested`): each point is stored once, tagged with its
//! ladder cut, and instance `o`'s `Storing` is a threshold view of it,
//! with every per-store rule replayed per view. At end of stream,
//! instances are tried in ascending `o`: one whose h stores FAIL is
//! rejected from the views' counters, and a store is decoded only when
//! the checks reach it. The first one that passes Algorithm 1/2's FAIL
//! checks and the practical `o`-selection budget yields the coreset,
//! assembled by the *same* `CoresetBuilderCtx` the offline path uses
//! (including the per-part nested sub-thresholding of
//! `CoresetParams::part_phi`).

use crate::checkpoint::{
    ArenaCheckpoint, CheckpointError, InstanceCheckpoint, PointName, Snapshot,
};
use crate::merge::{EpsSchedule, MergeError};
use crate::model::StreamOp;
use crate::nested::{point_in_grid, CutsOf, Nested, ViewSpec};
use crate::storing::{StoreDeath, Storing, StoringConfig, StoringFail};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sbc_core::coreset::{
    bernoulli_threshold, opt_upper_estimate, realized_prob, CoresetBuilderCtx, CoresetEntry,
};
use sbc_core::partition::{CellCounts, PartMasses, Partition};
use sbc_core::{Coreset, CoresetParams, FailReason, ParamsError};
use sbc_geometry::{CellId, GridHierarchy, Point};
use sbc_hash::{HashBank, KWiseHash, OpenTable};
use sbc_obs::fault::{splitmix64, FaultPlan};
use sbc_obs::json::JsonValue;
use sbc_obs::trace::{self, CausalIds, TraceKind};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Ops per ingest batch: large enough to amortize precompute, small
/// enough that the SoA buffer stays cache-friendly.
const INGEST_BATCH: usize = 4096;

/// The builder keeps the ingest scratch of batches up to this many ops,
/// so per-op and write-sized batches allocate nothing, and lets a bulk
/// batch's go, so an idle builder (one of many tenants) holds at most a
/// few KiB of it.
const KEEP_SCRATCH: usize = 64;

/// Streaming-specific knobs (the coreset parameters proper live in
/// [`CoresetParams`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StreamParams {
    /// Expected number of size-estimation samples at the heavy-cell
    /// threshold: `ψᵢ = min(1, est_rate/Tᵢ(o))` (the paper's
    /// `10⁶λ′/Tᵢ(o)`, Algorithm 3). Larger ⇒ sharper `τ` estimates,
    /// more space.
    pub est_rate: f64,
    /// Multiplier for the per-store cell budget `α`.
    pub alpha_factor: f64,
    /// Rows in each `Storing` structure.
    pub rows: usize,
    /// Hard per-store distinct-cell cap (runaway stores die at this
    /// occupancy and free their memory).
    pub cap_cells: usize,
    /// Optional upper end for the `o` ladder (e.g. derived from an
    /// expected stream size); `None` uses the paper's full range
    /// `Δ^d·(√d·Δ)^r`.
    pub o_ladder_max: Option<f64>,
    /// Ingest the shards of `sbc`'s `ShardedIngest::process_all` on
    /// threads, one task per shard (the paper's machines, each with its
    /// own sketch). Shards share no state, so the result is
    /// bit-identical to serial shard ingest; a single builder always
    /// ingests on the calling thread and ignores this knob.
    pub parallel: bool,
    /// Number of independent stream shards for `sbc`'s `ShardedIngest`
    /// front-end: the dynamic stream is partitioned by point identity
    /// across this many builders (sharing one hash family) and folded up
    /// a binary merge tree at finish. `1` (the default) is plain
    /// single-builder ingest; the builder itself ignores this knob.
    pub shards: usize,
    /// Deterministic fault-injection plan (store kills here; message
    /// drops/duplication when the same params drive the distributed
    /// protocol). The default injects nothing and adds no per-op work.
    pub faults: FaultPlan,
}

impl Default for StreamParams {
    fn default() -> Self {
        Self {
            est_rate: 192.0,
            alpha_factor: 8.0,
            rows: 4,
            cap_cells: 1 << 16,
            o_ladder_max: None,
            parallel: false,
            shards: 1,
            faults: FaultPlan::NONE,
        }
    }
}

impl StreamParams {
    /// Starts a fluent builder over the defaults; validation happens at
    /// [`StreamParamsBuilder::build`].
    pub fn builder() -> StreamParamsBuilder {
        StreamParamsBuilder {
            inner: StreamParams::default(),
        }
    }
}

/// Fluent, validated construction of [`StreamParams`] (the facade-first
/// entry point; field-struct literals remain available for tests).
#[derive(Clone, Copy, Debug)]
pub struct StreamParamsBuilder {
    inner: StreamParams,
}

impl StreamParamsBuilder {
    /// Sets the size-estimation sample rate (must be positive).
    pub fn est_rate(mut self, v: f64) -> Self {
        self.inner.est_rate = v;
        self
    }

    /// Sets the per-store cell-budget multiplier (must be positive).
    pub fn alpha_factor(mut self, v: f64) -> Self {
        self.inner.alpha_factor = v;
        self
    }

    /// Sets the number of rows per `Storing` structure (must be ≥ 1).
    pub fn rows(mut self, v: usize) -> Self {
        self.inner.rows = v;
        self
    }

    /// Sets the hard per-store distinct-cell cap (must be ≥ 1).
    pub fn cap_cells(mut self, v: usize) -> Self {
        self.inner.cap_cells = v;
        self
    }

    /// Caps the `o` ladder (must be ≥ 1 when set).
    pub fn o_ladder_max(mut self, v: f64) -> Self {
        self.inner.o_ladder_max = Some(v);
        self
    }

    /// Enables parallel shard ingest in `ShardedIngest`.
    pub fn parallel(mut self, on: bool) -> Self {
        self.inner.parallel = on;
        self
    }

    /// Sets the stream shard count for `ShardedIngest` (must be ≥ 1).
    pub fn shards(mut self, v: usize) -> Self {
        self.inner.shards = v;
        self
    }

    /// Installs a deterministic fault-injection plan.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.inner.faults = plan;
        self
    }

    /// Validates and returns the parameters.
    pub fn build(self) -> Result<StreamParams, ParamsError> {
        StreamParams::validate(self.inner)
    }
}

impl StreamParams {
    /// The checks of [`StreamParamsBuilder::build`].
    pub(crate) fn validate(p: StreamParams) -> Result<StreamParams, ParamsError> {
        if !(p.est_rate > 0.0 && p.est_rate.is_finite()) {
            return Err(ParamsError::out_of_range(
                "est_rate",
                p.est_rate,
                "positive and finite",
            ));
        }
        if !(p.alpha_factor > 0.0 && p.alpha_factor.is_finite()) {
            return Err(ParamsError::out_of_range(
                "alpha_factor",
                p.alpha_factor,
                "positive and finite",
            ));
        }
        if p.rows == 0 {
            return Err(ParamsError::out_of_range("rows", 0.0, "≥ 1"));
        }
        if p.cap_cells == 0 {
            return Err(ParamsError::out_of_range("cap_cells", 0.0, "≥ 1"));
        }
        if p.shards == 0 {
            return Err(ParamsError::out_of_range("shards", 0.0, "≥ 1"));
        }
        if let Some(m) = p.o_ladder_max {
            if !(m >= 1.0 && m.is_finite()) {
                return Err(ParamsError::out_of_range(
                    "o_ladder_max",
                    m,
                    "≥ 1 and finite",
                ));
            }
        }
        Ok(p)
    }
}

/// One guess `o` of the ladder: its realized rates and acceptance
/// thresholds. Its stores are views of the builder's per-(role, level)
/// nested stores.
struct OInstance {
    o: f64,
    /// Realized probabilities and thresholds; `psi` indexed by
    /// `level + 1` (levels `−1..=L−1`), `psip`/`phi` by `level`
    /// (levels `0..=L`).
    psi: Vec<f64>,
    psi_thr: Vec<u64>,
    psip: Vec<f64>,
    psip_thr: Vec<u64>,
    phi: Vec<f64>,
    phi_thr: Vec<u64>,
}

/// Per-(role, level) threshold ladders, transposed to column-major for
/// prefix routing.
///
/// `t_threshold(level, o)` is strictly increasing in `o` at fixed level,
/// so every subsampling rate — `ψᵢ`, `ψ′ᵢ`, `φᵢ` — is non-increasing
/// along the `o` ladder, and so are the realized `u64` acceptance
/// thresholds. A point with hash value `v` is therefore accepted by
/// exactly the *prefix* of instances `{j : v < thr[j]}`, found with one
/// binary search per (role, level) instead of a per-instance scan.
struct RouteTables {
    /// `columns[s][j]`: instance `j`'s threshold in store `s` of the
    /// builder's store list (role h at levels `−1..=L−1`, then h′ and ĥ
    /// at levels `0..=L`: `ψ`, `ψ′` and `φ`); non-increasing in `j`.
    columns: Vec<Vec<u64>>,
}

impl RouteTables {
    fn build(instances: &[OInstance], l: usize) -> Self {
        let column = |pick: fn(&OInstance) -> &[u64], idx: usize| -> Vec<u64> {
            let col: Vec<u64> = instances.iter().map(|inst| pick(inst)[idx]).collect();
            assert!(
                col.windows(2).all(|w| w[0] >= w[1]),
                "threshold ladder must be non-increasing along the o ladder"
            );
            col
        };
        let roles: [fn(&OInstance) -> &[u64]; 3] =
            [|i| &i.psi_thr, |i| &i.psip_thr, |i| &i.phi_thr];
        Self {
            columns: roles
                .into_iter()
                .flat_map(|pick| (0..=l).map(move |idx| column(pick, idx)))
                .collect(),
        }
    }

    /// Number of leading instances whose threshold exceeds `v` — the
    /// exclusive end of the accepting prefix.
    #[inline]
    fn cut(column: &[u64], v: u64) -> u32 {
        column.partition_point(|&t| t > v) as u32
    }
}

/// Structure-of-arrays scratch for one ingest batch: everything that is
/// shared across the instance ladder, computed once per point. Kept on
/// the builder for small batches (see [`KEEP_SCRATCH`]).
///
/// Hash values are stored key after key (the bank's layout), ladder cuts
/// column-major (one column of `n` entries per store, in store order),
/// cell keys row-major (`l+2` levels per op, level `idx − 1` at offset
/// `idx`).
#[derive(Default)]
struct BatchSoa {
    keys: Vec<u128>,
    deltas: Vec<i64>,
    cell_keys: Vec<u128>,
    /// Scratch: the current point's floored shifted coordinates.
    us: Vec<i64>,
    values: Vec<u64>,
    cuts: Vec<u32>,
}

impl BatchSoa {
    /// The cut column of store `s`.
    fn cuts(&self, s: usize) -> &[u32] {
        let n = self.keys.len();
        &self.cuts[s * n..(s + 1) * n]
    }
}

/// One (role, level) store of the ladder: a nested arena whose view `j`
/// is instance `first + j`'s store of that role and level.
struct LadderStore {
    /// `trace::role::{H, HP, HHAT}`, which is also the store's index
    /// among the three role blocks of the builder's store list.
    role: u8,
    /// Store index within the role: `level + 1` for role h, `level`
    /// otherwise (the index of its hash and threshold column).
    idx: usize,
    /// First instance with a store here. Non-zero only for role ĥ,
    /// whose stores exist where `Tᵢ(o) > 1` — a suffix of the ladder.
    first: usize,
    store: Nested,
}

impl LadderStore {
    fn level(&self) -> i32 {
        if self.role == trace::role::H {
            self.idx as i32 - 1
        } else {
            self.idx as i32
        }
    }

    /// The view of instance `i`, if it has a store here.
    fn view(&self, i: usize) -> Option<usize> {
        i.checked_sub(self.first).filter(|&j| j < self.store.len())
    }
}

/// Space accounting snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpaceReport {
    /// Bytes of hash-function state (shared across instances).
    pub hash_bytes: usize,
    /// Measured bytes across the (role, level) arenas that still have a
    /// live view.
    pub store_bytes: usize,
    /// The Lemma 4.2-style fully-allocated sketch accounting for the
    /// same configurations (what a space-bounded deployment reserves).
    pub nominal_sketch_bytes: usize,
    /// Ladder size. Each instance has one store per role and level (a
    /// view of that (role, level) arena); the store counts below count
    /// these.
    pub instances: usize,
    /// Stores that overflowed and freed their memory (all causes; equals
    /// `runaway_kill + sketch_overflow`).
    pub dead_stores: usize,
    /// Stores still live — on track for a natural end of stream.
    pub live_stores: usize,
    /// Stores dead by `StoreDeath::RunawayKill` (occupancy-cap kills,
    /// natural or injected). Snake_case of the taxonomy variant — the
    /// same token the metrics counters and BENCH_streaming.json use.
    pub runaway_kill: usize,
    /// Stores dead by `StoreDeath::SketchOverflow` (bucket overflows,
    /// natural or injected).
    pub sketch_overflow: usize,
    /// Total open-addressing slots across the (role, level) arenas with
    /// a live view. Deterministic: derived from each arena's cell
    /// high-water mark (its lowest live view's), not from transient
    /// allocations.
    pub arena_slots: usize,
    /// Live entries occupying those slots. `arena_entries / arena_slots`
    /// is the fleet-wide load factor (≤ ⅞ by construction) — the
    /// baseline the memory-diet roadmap item diets against.
    pub arena_entries: usize,
    /// Measured footprint right now: `hash_bytes + store_bytes`. The
    /// denominator of `nominal_to_measured_ratio` — deterministic given
    /// logical state, so it sums across shards and agrees between
    /// per-op and batched ingest.
    pub measured_bytes: usize,
    /// High-water mark of `measured_bytes` over this builder's life,
    /// sampled at observation points (space reports and checkpoints)
    /// only. Not serialized in snapshots — a restored builder restarts
    /// its peak from the restored footprint.
    pub peak_measured_bytes: usize,
    /// Capacity-model bytes at *realized* occupancy: what the (role,
    /// level) arenas reserve (power-of-two rounded tables at their
    /// high-water marks, plus their view tallies and payloads). Unlike
    /// `nominal_sketch_bytes` — the worst-case config product that
    /// lands in the 10^14 range — this tracks measured truth to within
    /// a small constant factor.
    pub expected_sketch_bytes: usize,
}

impl SpaceReport {
    /// Serializes the report for embedding in a metrics snapshot (the
    /// workspace's offline stand-in for a `serde::Serialize` derive).
    ///
    /// Alongside the raw fields, two derived ones keep the report
    /// readable: `nominal_sketch_bytes_human` (the 10^14-range nominal
    /// accounting scaled to binary units so it stops drowning the real
    /// `store_bytes` signal) and `arena_load_factor`.
    pub fn to_json(&self) -> JsonValue {
        let ratio = (self.measured_bytes > 0).then(|| self.nominal_to_measured_ratio());
        self.to_json_with_ratio(ratio)
    }

    /// How far the Lemma 4.2 worst-case accounting overstates measured
    /// truth (`nominal_sketch_bytes / measured_bytes`; 0 when nothing
    /// is measured). Derived, not stored, so the report itself stays
    /// `Copy + Eq`. The JSON form renders the nothing-measured case as
    /// `null`, not `0.0` — a zero ratio would read as "nominal is zero"
    /// and the key must stay schema-stable either way.
    pub fn nominal_to_measured_ratio(&self) -> f64 {
        if self.measured_bytes == 0 {
            0.0
        } else {
            self.nominal_sketch_bytes as f64 / self.measured_bytes as f64
        }
    }

    /// Serialization body with an explicit ratio: the sharded
    /// aggregate's `max_per_shard` view must report the max shard's
    /// *own* ratio, not a ratio of field-wise maxima. `None` (no
    /// measured denominator) renders as JSON `null` so the key never
    /// disappears from the schema.
    fn to_json_with_ratio(self, ratio: Option<f64>) -> JsonValue {
        let ratio = match ratio {
            Some(r) => JsonValue::from(r),
            None => JsonValue::Null,
        };
        let load = if self.arena_slots == 0 {
            0.0
        } else {
            self.arena_entries as f64 / self.arena_slots as f64
        };
        JsonValue::object()
            .field("hash_bytes", self.hash_bytes)
            .field("store_bytes", self.store_bytes)
            .field("nominal_sketch_bytes", self.nominal_sketch_bytes)
            .field(
                "nominal_sketch_bytes_human",
                human_bytes(self.nominal_sketch_bytes),
            )
            .field("measured_bytes", self.measured_bytes)
            .field("peak_measured_bytes", self.peak_measured_bytes)
            .field("expected_sketch_bytes", self.expected_sketch_bytes)
            .field("nominal_to_measured_ratio", ratio)
            .field("instances", self.instances)
            .field("dead_stores", self.dead_stores)
            .field("live_stores", self.live_stores)
            .field("runaway_kill", self.runaway_kill)
            .field("sketch_overflow", self.sketch_overflow)
            .field("arena_slots", self.arena_slots)
            .field("arena_entries", self.arena_entries)
            .field("arena_load_factor", load)
    }
}

/// Scales a byte count to binary units (`"3.52 GiB"`): fixed format,
/// two decimals, so space reports stay comparable across runs and
/// readable next to measured figures.
pub fn human_bytes(bytes: usize) -> String {
    const UNITS: [&str; 7] = ["B", "KiB", "MiB", "GiB", "TiB", "PiB", "EiB"];
    let mut v = bytes as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit + 1 < UNITS.len() {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{v:.2} {}", UNITS[unit])
    }
}

/// Space accounting across a sharded ingest: the E4 space claim stays
/// checkable under sharding because both the fleet-wide totals and the
/// worst single shard are reported. `total` sums every field over the
/// shards (its `instances` is therefore `shards × ladder`);
/// `max_per_shard` takes the field-wise maximum — the per-machine
/// high-water mark a deployment must provision for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardedSpaceReport {
    /// Field-wise sums over all shards.
    pub total: SpaceReport,
    /// Field-wise maxima over all shards.
    pub max_per_shard: SpaceReport,
    /// Number of shards aggregated.
    pub shards: usize,
    /// `nominal_sketch_bytes` of the shard with the largest measured
    /// footprint — the numerator of `max_per_shard`'s ratio. A
    /// field-wise max of per-shard *ratios* would pair one shard's
    /// numerator with another's denominator, so the aggregate carries
    /// the worst shard's own pair instead.
    pub max_shard_nominal_sketch_bytes: usize,
    /// `measured_bytes` of that same shard (the ratio's denominator).
    pub max_shard_measured_bytes: usize,
}

impl ShardedSpaceReport {
    /// Aggregates per-shard reports (field-wise sum + field-wise max).
    ///
    /// # Panics
    /// Panics on an empty slice — a sharded ingest has ≥ 1 shard.
    pub fn aggregate(reports: &[SpaceReport]) -> Self {
        assert!(!reports.is_empty(), "need at least one shard report");
        let zero = SpaceReport {
            hash_bytes: 0,
            store_bytes: 0,
            nominal_sketch_bytes: 0,
            instances: 0,
            dead_stores: 0,
            live_stores: 0,
            runaway_kill: 0,
            sketch_overflow: 0,
            arena_slots: 0,
            arena_entries: 0,
            measured_bytes: 0,
            peak_measured_bytes: 0,
            expected_sketch_bytes: 0,
        };
        let mut total = zero;
        let mut max = zero;
        let mut worst = &reports[0];
        for r in reports {
            total.hash_bytes += r.hash_bytes;
            total.store_bytes += r.store_bytes;
            total.nominal_sketch_bytes += r.nominal_sketch_bytes;
            total.instances += r.instances;
            total.dead_stores += r.dead_stores;
            total.live_stores += r.live_stores;
            total.runaway_kill += r.runaway_kill;
            total.sketch_overflow += r.sketch_overflow;
            total.arena_slots += r.arena_slots;
            total.arena_entries += r.arena_entries;
            total.measured_bytes += r.measured_bytes;
            total.peak_measured_bytes += r.peak_measured_bytes;
            total.expected_sketch_bytes += r.expected_sketch_bytes;
            max.hash_bytes = max.hash_bytes.max(r.hash_bytes);
            max.store_bytes = max.store_bytes.max(r.store_bytes);
            max.nominal_sketch_bytes = max.nominal_sketch_bytes.max(r.nominal_sketch_bytes);
            max.instances = max.instances.max(r.instances);
            max.dead_stores = max.dead_stores.max(r.dead_stores);
            max.live_stores = max.live_stores.max(r.live_stores);
            max.runaway_kill = max.runaway_kill.max(r.runaway_kill);
            max.sketch_overflow = max.sketch_overflow.max(r.sketch_overflow);
            max.arena_slots = max.arena_slots.max(r.arena_slots);
            max.arena_entries = max.arena_entries.max(r.arena_entries);
            max.measured_bytes = max.measured_bytes.max(r.measured_bytes);
            max.peak_measured_bytes = max.peak_measured_bytes.max(r.peak_measured_bytes);
            max.expected_sketch_bytes = max.expected_sketch_bytes.max(r.expected_sketch_bytes);
            if r.measured_bytes > worst.measured_bytes {
                worst = r;
            }
        }
        Self {
            total,
            max_per_shard: max,
            shards: reports.len(),
            max_shard_nominal_sketch_bytes: worst.nominal_sketch_bytes,
            max_shard_measured_bytes: worst.measured_bytes,
        }
    }

    /// Serializes both aggregates; each sub-object carries the same
    /// golden schema as [`SpaceReport::to_json`]. `total`'s ratio is
    /// computed from the summed numerator/denominator; `max_per_shard`'s
    /// from the worst (largest-measured) shard's own pair.
    pub fn to_json(&self) -> JsonValue {
        let max_ratio = (self.max_shard_measured_bytes > 0).then(|| {
            self.max_shard_nominal_sketch_bytes as f64 / self.max_shard_measured_bytes as f64
        });
        JsonValue::object()
            .field("shards", self.shards)
            .field("total", self.total.to_json())
            .field(
                "max_per_shard",
                self.max_per_shard.to_json_with_ratio(max_ratio),
            )
    }
}

/// Decoded output of one `Storing` structure: the `(C, f, S)` triple of
/// Lemma 4.2, plus the `β` and `α` it was sized with.
#[derive(Clone, Debug, PartialEq)]
pub struct RoleLevelSummary {
    /// Non-empty cells with counts.
    pub cells: Vec<(CellId, i64)>,
    /// Points in cells with ≤ β points.
    pub small_points: Vec<(Point, i64)>,
    /// The small-cell threshold β of this store.
    pub beta: usize,
    /// The cell budget α of this store (re-checked after merging).
    pub alpha: usize,
    /// Small cells whose points were lost to mid-stream eviction (see
    /// `StoringOutput::dirty_small_cells`).
    pub dirty_small_cells: Vec<CellId>,
}

/// Per-`o`-instance summaries of all three roles: the decoded view of a
/// builder's state that tests compare across ingest paths, checkpoint
/// round trips and merges. A `Err(description)` marks a store that
/// FAILed (overflow / decode / budget).
#[derive(Clone, Debug, PartialEq)]
pub struct InstanceSummary {
    /// The guess `o`.
    pub o: f64,
    /// Role h, levels `−1..=L−1` (index `level + 1`).
    pub h: Vec<Result<RoleLevelSummary, String>>,
    /// Role h′, levels `0..=L`.
    pub hp: Vec<Result<RoleLevelSummary, String>>,
    /// Role ĥ, levels `0..=L` (`None` where `Tᵢ(o) ≤ 1`).
    pub hhat: Vec<Option<Result<RoleLevelSummary, String>>>,
    /// Realized rates (copied from the instance so a coordinator can
    /// scale counts without reconstructing stores).
    pub psi: Vec<f64>,
    /// Realized `ψ′ᵢ`.
    pub psip: Vec<f64>,
    /// Realized level rates `φᵢ`.
    pub phi: Vec<f64>,
}

/// Interned `stream.ingest.*` metric handles, resolved once per builder
/// so the batched hot path never touches the registry. Without
/// `sbc-obs`'s `obs` feature every handle is the shared sink and each
/// recording call returns at once.
struct IngestMetrics {
    ops_inserted: sbc_obs::Counter,
    ops_deleted: sbc_obs::Counter,
    batches: sbc_obs::Counter,
    batch_size: sbc_obs::Histogram,
    precompute_ns: sbc_obs::Histogram,
    route_ns: sbc_obs::Histogram,
    /// Per store index (= level + 1 for role h, level for h′/ĥ):
    /// `(accepted_instances, pruned_instances)` — the ladder
    /// `partition_point` prune's hit accounting. An op contributes
    /// `cut` accepted and `ladder − cut` pruned instances.
    prune_h: Vec<(sbc_obs::Counter, sbc_obs::Counter)>,
    prune_hp: Vec<(sbc_obs::Counter, sbc_obs::Counter)>,
    prune_hhat: Vec<(sbc_obs::Counter, sbc_obs::Counter)>,
}

impl IngestMetrics {
    fn new(l: usize) -> Self {
        let ladder = |role: &str, level_offset: i32| {
            (0..=l)
                .map(|idx| {
                    let level = idx as i32 + level_offset;
                    (
                        sbc_obs::counter(&format!("stream.ingest.prune.{role}.l{level}.accepted")),
                        sbc_obs::counter(&format!("stream.ingest.prune.{role}.l{level}.pruned")),
                    )
                })
                .collect()
        };
        Self {
            ops_inserted: sbc_obs::counter("stream.ingest.ops_inserted"),
            ops_deleted: sbc_obs::counter("stream.ingest.ops_deleted"),
            batches: sbc_obs::counter("stream.ingest.batches"),
            batch_size: sbc_obs::histogram("stream.ingest.batch_size"),
            precompute_ns: sbc_obs::histogram("stream.ingest.precompute_ns"),
            route_ns: sbc_obs::histogram("stream.ingest.route_ns"),
            prune_h: ladder("h", -1),
            prune_hp: ladder("hp", 0),
            prune_hhat: ladder("hhat", 0),
        }
    }
}

/// One-pass dynamic-streaming coreset builder.
///
/// ```no_run
/// use sbc_core::CoresetParams;
/// use sbc_geometry::{dataset, GridParams, Point};
/// use sbc_streaming::{StreamCoresetBuilder, StreamParams};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let gp = GridParams::from_log_delta(8, 2);
/// let params = CoresetParams::builder(3, gp).build().unwrap();
/// let mut rng = StdRng::seed_from_u64(1);
/// let mut builder = StreamCoresetBuilder::new(params, StreamParams::default(), &mut rng);
///
/// for p in dataset::gaussian_mixture(gp, 10_000, 3, 0.04, 2) {
///     builder.insert(&p);          // and .delete(&p) for dynamic streams
/// }
/// let coreset = builder.finish().expect("one-pass coreset");
/// assert!(coreset.len() < 10_000);
/// ```
pub struct StreamCoresetBuilder {
    params: CoresetParams,
    sparams: StreamParams,
    grid: GridHierarchy,
    /// The hashes of the three roles (h, h′, ĥ; levels in order within
    /// each), in store order: the only copy of their coefficients.
    bank: HashBank,
    instances: Vec<OInstance>,
    /// One nested store per (role, level): role h at levels `−1..=L−1`,
    /// then h′ and ĥ at levels `0..=L`.
    stores: Vec<LadderStore>,
    /// [`SpaceReport::nominal_sketch_bytes`]: a function of the views'
    /// configurations alone, summed once when the ladder is built.
    nominal_sketch_bytes: usize,
    routes: RouteTables,
    /// Ingest scratch, reused across batches.
    soa: BatchSoa,
    net_count: i64,
    /// Gross stream operations absorbed (inserts + deletes): the causal
    /// op index stamped on trace events and carried across checkpoints.
    ops_seen: u64,
    /// Height of this builder in a merge tree: `0` for a plain (leaf)
    /// builder, `max(a, b) + 1` after [`Self::merge`].
    merge_depth: u32,
    rng: StdRng,
    metrics: IngestMetrics,
    /// High-water mark of the measured footprint, updated only at
    /// observation points (space reports, checkpoints) so the ingest
    /// paths stay bit-identical whether or not anyone is watching.
    /// Atomic for interior mutability under sharded (`Sync`) sharing;
    /// deliberately NOT serialized in checkpoints — snapshot bytes stay
    /// canonical and a restored builder restarts its peak from the
    /// restored footprint.
    peak_measured: AtomicUsize,
}

/// A stream op as an `(point, delta)` update.
fn stream_op(op: &StreamOp) -> (&Point, i64) {
    (op.point(), op.delta())
}

/// A point as an insertion.
fn inserted(p: &Point) -> (&Point, i64) {
    (p, 1)
}

/// A point as a deletion.
fn deleted(p: &Point) -> (&Point, i64) {
    (p, -1)
}

impl StreamCoresetBuilder {
    /// Creates a builder with a freshly drawn grid shift.
    pub fn new<R: Rng + ?Sized>(params: CoresetParams, sparams: StreamParams, rng: &mut R) -> Self {
        let grid = GridHierarchy::new(params.grid, rng);
        Self::with_grid(params, sparams, grid, rng)
    }

    /// Creates a builder over a caller-supplied grid (distributed
    /// machines must agree on the coordinator's shift).
    pub fn with_grid<R: Rng + ?Sized>(
        params: CoresetParams,
        sparams: StreamParams,
        grid: GridHierarchy,
        rng: &mut R,
    ) -> Self {
        let l = params.l() as i32;
        let lambda = params.lambda().min(1 << 12);
        let hashes: Vec<KWiseHash> = (0..3 * (l + 1))
            .map(|_| KWiseHash::new(lambda, rng))
            .collect();
        let bank = HashBank::new(&hashes);

        let (instances, stores) = Self::build_ladder(&params, &sparams, &grid);
        let routes = RouteTables::build(&instances, l as usize);

        Self {
            params,
            sparams,
            grid,
            bank,
            instances,
            nominal_sketch_bytes: nominal_sketch_bytes(&stores),
            stores,
            routes,
            soa: BatchSoa::default(),
            net_count: 0,
            ops_seen: 0,
            merge_depth: 0,
            rng: StdRng::seed_from_u64(rng.gen()),
            metrics: IngestMetrics::new(l as usize),
            peak_measured: AtomicUsize::new(0),
        }
    }

    /// Builds the geometric `o` ladder of instances and its nested
    /// stores, one per (role, level). Draws no randomness, so restore
    /// rebuilds it structurally from the parameters alone.
    fn build_ladder(
        params: &CoresetParams,
        sparams: &StreamParams,
        grid: &GridHierarchy,
    ) -> (Vec<OInstance>, Vec<LadderStore>) {
        let o_max = sparams
            .o_ladder_max
            .unwrap_or_else(|| {
                let gp = params.grid;
                (gp.delta as f64).powi(gp.d as i32)
                    * sbc_geometry::metric::pow_r((gp.d as f64).sqrt() * gp.delta as f64, params.r)
            })
            .max(2.0);
        let mut instances = Vec::new();
        // specs[role][idx][instance]: the instance's store sizing, `None`
        // where it has no store.
        let levels = params.l() as usize + 1;
        let mut specs = vec![vec![Vec::new(); levels]; 3];
        let mut o = 1.0f64;
        while o <= o_max {
            let (inst, inst_specs) = OInstance::new(params, sparams, o);
            for (role, role_specs) in specs.iter_mut().zip(inst_specs) {
                for (col, spec) in role.iter_mut().zip(role_specs) {
                    col.push(spec);
                }
            }
            instances.push(inst);
            o *= 2.0;
        }
        let mut stores = Vec::with_capacity(3 * levels);
        for (role, role_specs) in [trace::role::H, trace::role::HP, trace::role::HHAT]
            .into_iter()
            .zip(specs)
        {
            for (idx, col) in role_specs.into_iter().enumerate() {
                let first = col.iter().position(Option::is_some).unwrap_or(col.len());
                let views: Vec<ViewSpec> = col[first..]
                    .iter()
                    .map(|s| s.expect("stores of a (role, level) form a suffix of the o ladder"))
                    .collect();
                let level = if role == trace::role::H {
                    idx as i32 - 1
                } else {
                    idx as i32
                };
                let _mem =
                    sbc_obs::alloc::scope_detail(sbc_obs::alloc::Component::Sketches, role, level);
                stores.push(LadderStore {
                    role,
                    idx,
                    first,
                    store: Nested::new(grid, level, &views),
                });
            }
        }
        // Assign store identity and arm deterministic fault injection.
        // Salts derive from the store's position in the ladder (o, role,
        // level slot) — never from the RNG — so an injected kill lands on
        // the same store at the same per-store update index across the
        // per-op, batched, and sharded ingest paths, and across
        // checkpoint/restore. The same positional salt doubles as the
        // trace store id, giving lifecycle events a stable identity even
        // when no faults are armed.
        for (i, inst) in instances.iter().enumerate() {
            for st in stores.iter_mut() {
                let Some(j) = st.view(i) else { continue };
                let salt = store_salt(inst.o, u64::from(st.role), st.idx);
                let ids = CausalIds::NONE.store(salt).at(st.level() as i16, st.role);
                st.store.set_trace_ids(j, ids);
                if sparams.faults.is_active() {
                    st.store.arm_fault(j, sparams.faults, salt);
                }
            }
        }
        (instances, stores)
    }

    /// The stores of one role (`trace::role::{H, HP, HHAT}`), by index.
    fn role_stores(&self, role: u8) -> &[LadderStore] {
        let levels = self.params.l() as usize + 1;
        let start = usize::from(role) * levels;
        &self.stores[start..start + levels]
    }

    /// The grid hierarchy in use.
    pub fn grid(&self) -> &GridHierarchy {
        &self.grid
    }

    /// The streaming knobs this builder was configured with.
    pub fn stream_params(&self) -> &StreamParams {
        &self.sparams
    }

    /// Net number of live points (`#inserts − #deletes`).
    pub fn net_count(&self) -> i64 {
        self.net_count
    }

    /// Gross number of stream operations absorbed so far (the causal op
    /// index the next operation will be stamped with).
    pub fn ops_seen(&self) -> u64 {
        self.ops_seen
    }

    /// Height of this builder in a merge tree (`0` = never merged).
    pub fn merge_depth(&self) -> u32 {
        self.merge_depth
    }

    /// The per-level ε-budget schedule for merge trees over this
    /// builder's parameters (see [`crate::merge::EpsSchedule`]).
    pub fn eps_schedule(&self) -> EpsSchedule {
        EpsSchedule::new(self.params.eps)
    }

    /// Folds another shard builder into this one — one node of a coreset
    /// merge tree (the composability the distributed protocol exploits,
    /// Theorem 5.1, applied builder-to-builder).
    ///
    /// Both builders must be shards of one logical stream: identical
    /// parameters, grid shift, and hash-function coefficients (construct
    /// them from one seed, as `sbc::ShardedIngest` does), with each
    /// point routed to a fixed shard so deletions meet their insertions.
    /// Because the hash family is shared, the merged `Storing` states
    /// are exactly the union of the shards' subsampled substreams —
    /// store-level merging is lossless, and the merged builder finishes
    /// like a monolithic one over the concatenated stream.
    ///
    /// Deterministic: merging the same two builder states always yields
    /// the same merged state, bit-for-bit, regardless of thread count or
    /// call site. The merged node's [`Self::merge_depth`] is
    /// `max(a, b) + 1`, charging the [`EpsSchedule`] accounting.
    pub fn merge(mut self, other: Self) -> Result<Self, MergeError> {
        self.check_mergeable(&other)?;
        let _span = sbc_obs::span!("stream.merge.merge_ns");
        let mut stores = 0u64;
        for (st, ost) in self.stores.iter_mut().zip(&other.stores) {
            if !st.store.merge_from(&ost.store) {
                return Err(MergeError::Incompatible(
                    "store shapes differ (ladder mismatch)".into(),
                ));
            }
            stores += st.store.len() as u64;
        }
        self.net_count += other.net_count;
        self.ops_seen += other.ops_seen;
        self.merge_depth = self.merge_depth.max(other.merge_depth) + 1;
        self.peak_measured.fetch_max(
            other.peak_measured.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
        sbc_obs::counter!("stream.merge.nodes").incr();
        sbc_obs::counter!("stream.merge.stores").add(stores);
        trace::event(
            TraceKind::Merge,
            "merge.node",
            CausalIds::NONE.op(self.ops_seen),
            u64::from(self.merge_depth),
        );
        Ok(self)
    }

    /// Folds a whole layer of shard builders up a binary merge tree with
    /// a fixed fold order — pairs `(0,1), (2,3), …` per level, an odd
    /// tail carried up unmerged — so the result is bit-identical for a
    /// given shard→leaf order, independent of threading.
    pub fn merge_many(mut layer: Vec<Self>) -> Result<Self, MergeError> {
        if layer.is_empty() {
            return Err(MergeError::Incompatible("no builders to merge".into()));
        }
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            let mut it = layer.into_iter();
            while let Some(a) = it.next() {
                match it.next() {
                    Some(b) => next.push(a.merge(b)?),
                    None => next.push(a),
                }
            }
            layer = next;
        }
        Ok(layer.pop().expect("non-empty layer"))
    }

    /// Structural compatibility for [`Self::merge`]: parameters, grid
    /// shift, and every hash family must agree, or the two builders'
    /// subsamples are not samples of one logical stream.
    fn check_mergeable(&self, other: &Self) -> Result<(), MergeError> {
        if self.params != other.params {
            return Err(MergeError::Incompatible("coreset parameters differ".into()));
        }
        if self.sparams != other.sparams {
            return Err(MergeError::Incompatible("stream parameters differ".into()));
        }
        if self.grid.shift() != other.grid.shift() {
            return Err(MergeError::Incompatible("grid shifts differ".into()));
        }
        if self.bank != other.bank {
            return Err(MergeError::Incompatible(
                "hash coefficients differ (builders not seeded together)".into(),
            ));
        }
        debug_assert_eq!(self.instances.len(), other.instances.len());
        Ok(())
    }

    /// Processes one stream operation: a batch of one through the same
    /// path as [`Self::process_all`].
    pub fn process(&mut self, op: &StreamOp) {
        self.ingest_batch(std::slice::from_ref(op), stream_op);
    }

    /// Processes a whole stream: per-point keys, cell paths, hash
    /// triples and ladder cuts are computed once per batch into a
    /// structure-of-arrays buffer, then routed store by store to the
    /// accepting prefix of each store's views. State after this call is
    /// bit-identical to calling [`Self::process`] per op.
    pub fn process_all(&mut self, ops: &[StreamOp]) {
        for chunk in ops.chunks(INGEST_BATCH) {
            self.ingest_batch(chunk, stream_op);
        }
    }

    /// Inserts a whole slice of points through the batched path.
    pub fn insert_batch(&mut self, points: &[Point]) {
        for chunk in points.chunks(INGEST_BATCH) {
            self.ingest_batch(chunk, inserted);
        }
    }

    /// Inserts a point (a batch of one).
    pub fn insert(&mut self, p: &Point) {
        self.ingest_batch(std::slice::from_ref(p), inserted);
    }

    /// Deletes a previously inserted point (a batch of one).
    pub fn delete(&mut self, p: &Point) {
        self.ingest_batch(std::slice::from_ref(p), deleted);
    }

    /// Fills the SoA buffer for one batch: everything instance-independent.
    fn precompute<T>(&self, ops: &[T], op: fn(&T) -> (&Point, i64), soa: &mut BatchSoa) {
        let gp = self.params.grid;
        let l = gp.l as i32;
        let n = ops.len();

        soa.keys.clear();
        soa.deltas.clear();
        soa.cell_keys.clear();
        // Cell-path kernel (DESIGN.md §9): one floor per coordinate yields
        // the level-L index, every coarser level is a right shift, and the
        // key is assembled with the exact bit layout of `CellId::pack` —
        // no `CellId` is materialized. Levels whose packing exceeds 128
        // bits are keyed by `CellId::key128`'s mixing hash instead.
        let shift = self.grid.shift();
        for o in ops {
            let (p, delta) = op(o);
            debug_assert_eq!(p.dim(), gp.d);
            soa.keys.push(p.key128(gp.delta));
            soa.deltas.push(delta);
            soa.us.clear();
            let mut in_range = true;
            for (j, &c) in p.coords().iter().enumerate() {
                // u = ⌊c + v⌋: the level-L cell index, since g_L = 1.
                // Coarser sides are powers of two, f64 divides by them
                // exactly, and ⌊·⌋ commutes with halving on non-negatives
                // — so level i's index is u >> (L−i) (level −1, side 2Δ,
                // is u >> (L+1)).
                let u = (c as f64 + shift[j]).floor() as i64;
                in_range &= (0..(1i64 << (l + 1))).contains(&u);
                soa.us.push(u);
            }
            for i in -1..=l {
                let (width, down) = if i >= 0 {
                    ((i + 2) as u32, (l - i) as u32)
                } else {
                    (1, (l + 1) as u32)
                };
                let key = if in_range && 6 + width as usize * gp.d <= 128 {
                    let mut key = (i + 1) as u128;
                    for &u in &soa.us {
                        key = (key << width) | (u >> down) as u128;
                    }
                    key
                } else {
                    // Too wide to pack, or a coordinate outside [Δ]^d
                    // (out of the data-model contract): the reference
                    // key, so batches still match the per-op pipeline.
                    self.grid.cell_of(p, i).key128()
                };
                soa.cell_keys.push(key);
            }
        }

        soa.values.clear();
        self.bank.eval_many(&soa.keys, &mut soa.values);
        let columns = &self.routes.columns;
        soa.cuts.clear();
        soa.cuts.resize(columns.len() * n, 0);
        for (i, row) in soa.values.chunks_exact(columns.len()).enumerate() {
            for (s, (&v, column)) in row.iter().zip(columns).enumerate() {
                soa.cuts[s * n + i] = RouteTables::cut(column, v);
            }
        }
    }

    /// Ingests one batch — the only ingest path: precompute, then route
    /// into the (role, level) stores in order.
    fn ingest_batch<T>(&mut self, ops: &[T], op: fn(&T) -> (&Point, i64)) {
        if ops.is_empty() {
            return;
        }
        let _mem = sbc_obs::alloc::scope(sbc_obs::alloc::Component::Sketches);
        let base = self.ops_seen;
        self.ops_seen += ops.len() as u64;
        let _batch_span = trace::span(
            "stream.ingest.batch",
            CausalIds::NONE.op(base),
            ops.len() as u64,
        );
        self.metrics.batches.incr();
        self.metrics.batch_size.record(ops.len() as u64);
        let mut soa = std::mem::take(&mut self.soa);
        {
            let _span = sbc_obs::SpanTimer::start(self.metrics.precompute_ns);
            self.precompute(ops, op, &mut soa);
        }
        self.net_count += soa.deltas.iter().sum::<i64>();
        // Counters and trace events both gate internally, so one shared
        // tally pass serves whichever of the two is recording.
        if sbc_obs::enabled() || trace::enabled() {
            self.record_batch_metrics(&soa);
        }
        let _route_span = sbc_obs::SpanTimer::start(self.metrics.route_ns);

        let grid = &self.grid;
        for (s, st) in self.stores.iter_mut().enumerate() {
            route_store(st, soa.cuts(s), grid, ops, op, &soa);
        }
        if ops.len() <= KEEP_SCRATCH {
            self.soa = soa;
        }
    }

    /// Tallies op signs and the ladder prune's per-(role, level) hit
    /// rate out of one precomputed batch. Called only while recording is
    /// enabled; reads the SoA cut columns the router uses, so the
    /// counters describe exactly the routing that happens.
    fn record_batch_metrics(&self, soa: &BatchSoa) {
        let n = soa.deltas.len() as u64;
        let ladder = self.instances.len() as u64;
        let inserted = soa.deltas.iter().filter(|&&d| d > 0).count() as u64;
        self.metrics.ops_inserted.add(inserted);
        self.metrics.ops_deleted.add(n - inserted);
        let op_base = self.ops_seen - n;
        for (s, st) in self.stores.iter().enumerate() {
            let handles = match st.role {
                trace::role::H => &self.metrics.prune_h,
                trace::role::HP => &self.metrics.prune_hp,
                _ => &self.metrics.prune_hhat,
            };
            let (accepted, pruned) = &handles[st.idx];
            let hits: u64 = soa.cuts(s).iter().map(|&c| c as u64).sum();
            accepted.add(hits);
            pruned.add(ladder * n - hits);
            // One prune-decision instant per (role, level) per batch:
            // `arg` = accepted routings out of `ladder * n` candidates.
            trace::instant(
                "stream.prune",
                CausalIds::NONE.op(op_base).at(st.level() as i16, st.role),
                hits,
            );
        }
    }

    /// Bytes of the hash coefficients: the randomness the paper's space
    /// accounting charges for.
    fn hash_bytes(&self) -> usize {
        self.bank.stored_bytes()
    }

    /// Observation point: folds a measurement into the high-water mark
    /// and returns the mark. `fetch_max` returns the previous peak, so
    /// the result covers both the history and right now.
    fn observe_measured(&self, measured: usize) -> usize {
        self.peak_measured
            .fetch_max(measured, Ordering::Relaxed)
            .max(measured)
    }

    /// The measured footprint right now — [`SpaceReport::measured_bytes`]
    /// without the rest of the report. Read off the arenas' running
    /// totals, so it costs O(stores), not a walk of their cells. Like
    /// [`Self::space_report`], an observation point for the high-water
    /// mark.
    pub fn measured_bytes(&self) -> usize {
        let store_bytes: usize = self
            .stores
            .iter()
            .map(|st| st.store.stored_bytes(&self.grid))
            .sum();
        let measured = self.hash_bytes() + store_bytes;
        self.observe_measured(measured);
        measured
    }

    /// Space accounting across the whole ladder: bytes, slots and cells
    /// of the (role, level) arenas; live and dead counts of the
    /// instances' stores (the arenas' views).
    pub fn space_report(&self) -> SpaceReport {
        let hash_bytes = self.hash_bytes();
        let mut store_bytes = 0usize;
        let mut expected = 0usize;
        let mut live_stores = 0usize;
        let mut runaway_kill = 0usize;
        let mut sketch_overflow = 0usize;
        let mut arena_slots = 0usize;
        let mut arena_entries = 0usize;
        for st in &self.stores {
            let store = &st.store;
            store_bytes += store.stored_bytes(&self.grid);
            expected += store.expected_bytes(&self.grid);
            if let Some((slots, entries)) = store.occupancy() {
                arena_slots += slots;
                arena_entries += entries;
            }
            for j in 0..store.len() {
                match store.death(j) {
                    Some(StoreDeath::RunawayKill) => runaway_kill += 1,
                    Some(StoreDeath::SketchOverflow) => sketch_overflow += 1,
                    None => live_stores += 1,
                }
            }
        }
        let measured = hash_bytes + store_bytes;
        let peak = self.observe_measured(measured);
        SpaceReport {
            hash_bytes,
            store_bytes,
            nominal_sketch_bytes: self.nominal_sketch_bytes,
            instances: self.instances.len(),
            dead_stores: runaway_kill + sketch_overflow,
            live_stores,
            runaway_kill,
            sketch_overflow,
            arena_slots,
            arena_entries,
            measured_bytes: measured,
            peak_measured_bytes: peak,
            expected_sketch_bytes: expected,
        }
    }

    /// Exports the decoded per-instance summaries: every view's
    /// `(C, f, S)` triple, the projection of the builder's state that
    /// equivalence tests compare.
    pub fn export_summaries(&self) -> Vec<InstanceSummary> {
        // Instance `i`'s view of `st`, decoded (`None` where it has none).
        let decode = |st: &LadderStore, i: usize| {
            let j = st.view(i)?;
            let cfg = st.store.config(j);
            Some(
                st.store
                    .finish(&self.grid, j)
                    .map(|out| RoleLevelSummary {
                        cells: out.cells,
                        small_points: out.small_points,
                        beta: cfg.beta,
                        alpha: cfg.alpha,
                        dirty_small_cells: out.dirty_small_cells,
                    })
                    .map_err(|e| format!("{e:?}")),
            )
        };
        let views = |role: u8, i: usize| self.role_stores(role).iter().map(move |st| decode(st, i));
        let every = |role: u8, i: usize| {
            views(role, i)
                .map(|out| out.expect("every instance has h and h′ stores"))
                .collect()
        };
        self.instances
            .iter()
            .enumerate()
            .map(|(i, inst)| InstanceSummary {
                o: inst.o,
                h: every(trace::role::H, i),
                hp: every(trace::role::HP, i),
                hhat: views(trace::role::HHAT, i).collect(),
                psi: inst.psi.clone(),
                psip: inst.psip.clone(),
                phi: inst.phi.clone(),
            })
            .collect()
    }

    /// Captures a complete, restartable image of the builder: parameters,
    /// grid shift, hash coefficients, RNG state, every (role, level)
    /// arena's cells, tallies, payload and view counters, and the
    /// metrics registry. Restoring it (in this process or a fresh one)
    /// and continuing the stream is bit-identical to never having
    /// stopped — see [`crate::checkpoint`].
    pub fn checkpoint(&self) -> Result<Snapshot, CheckpointError> {
        // Checkpoints are observation points for the measured-space
        // high-water mark (the measurement is discarded; the side effect
        // is the peak fold). The peak itself is never serialized — the
        // snapshot byte stream stays canonical.
        let _ = self.measured_bytes();
        // Role `r`'s hashes, each leading coefficient first.
        let per_role = self.bank.len() / 3;
        let coeffs = |r: usize| {
            (r * per_role..(r + 1) * per_role)
                .map(|b| self.bank.coeffs(b).iter().rev().copied().collect())
                .collect()
        };
        trace::event(
            TraceKind::Checkpoint,
            "checkpoint.cut",
            CausalIds::NONE.op(self.ops_seen),
            self.net_count.unsigned_abs(),
        );
        Ok(Snapshot {
            params: self.params.clone(),
            sparams: self.sparams,
            shift: self.grid.shift().to_vec(),
            h_coeffs: coeffs(0),
            hp_coeffs: coeffs(1),
            hhat_coeffs: coeffs(2),
            net_count: self.net_count,
            ops_seen: self.ops_seen,
            merge_depth: self.merge_depth,
            rng_state: self.rng.state(),
            stores: self.stores.iter().map(|st| st.store.checkpoint()).collect(),
            // The registry is process-global and registers names lazily
            // even while recording is off, so capturing it unguarded
            // would leak whatever the host process happened to register
            // into the byte stream — the same builder would checkpoint
            // different bytes in different hosts. Only a recording run
            // has counter values worth carrying across the restart.
            metrics: if sbc_obs::enabled() {
                sbc_obs::snapshot()
            } else {
                sbc_obs::MetricsSnapshot::default()
            },
        })
    }

    /// Reconstructs a builder from a [`Snapshot`], e.g. in a fresh
    /// process after a crash. The instance ladder, its (role, level)
    /// stores and the routing tables are rebuilt from the embedded
    /// parameters (they are pure functions of them); then each store's
    /// arena is loaded from its checkpoint, every payload point's ladder
    /// cut checked against the snapshot's hash coefficients. The
    /// snapshot's metrics are merged into the registry so counters
    /// survive the restart. The merge is a monotonic fold (every metric
    /// is raised to at least its snapshot reading), so restoring in the
    /// *same* process — eviction churn in a serving tier — never double
    /// counts.
    pub fn restore(snap: &Snapshot) -> Result<Self, CheckpointError> {
        let gp = snap.params.grid;
        let keys = snap
            .stores
            .iter()
            .flat_map(|ck| &ck.cells)
            .flat_map(|c| &c.points)
            .filter_map(|e| match &e.point {
                PointName::Packed(key) => Some(*key),
                PointName::Coords(p) => point_in_grid(gp, p).then(|| p.key128(gp.delta)),
            });
        let builder = Self::rebuild(snap, keys, |s, st, grid, cuts| {
            snap.stores
                .get(s)
                .is_some_and(|ck| st.store.load_arena(grid, ck, cuts))
        })?;
        if builder.stores.len() != snap.stores.len() {
            return Err(CheckpointError::Malformed);
        }
        sbc_obs::merge_snapshot(&snap.metrics);
        // The restore cut carries the same op index the checkpoint cut
        // recorded, so the post-restore timeline stitches onto the
        // pre-cut one at a visibly matching point.
        trace::event(
            TraceKind::Restore,
            "checkpoint.restore",
            CausalIds::NONE.op(snap.ops_seen),
            snap.net_count.unsigned_abs(),
        );
        Ok(builder)
    }

    /// The arenas of a version-3 image: `snap`'s header with the stores
    /// loaded view by view from `instances` (each payload point's cut
    /// recomputed from the hash coefficients), then checkpointed.
    pub(crate) fn arenas_from_views(
        snap: &Snapshot,
        instances: &[InstanceCheckpoint],
    ) -> Result<Vec<ArenaCheckpoint>, CheckpointError> {
        let levels = snap.params.l() as usize + 1;
        if instances
            .iter()
            .any(|ck| ck.h.len() != levels || ck.hp.len() != levels || ck.hhat.len() != levels)
        {
            return Err(CheckpointError::Malformed);
        }
        let gp = snap.params.grid;
        let keys = instances
            .iter()
            .flat_map(|ck| ck.h.iter().chain(&ck.hp).chain(ck.hhat.iter().flatten()))
            .flat_map(|v| &v.cells)
            .flat_map(|c| &c.points)
            .filter(|(p, _)| point_in_grid(gp, p))
            .map(|(p, _)| p.key128(gp.delta));
        let builder = Self::rebuild(snap, keys, |_, st, grid, cuts| {
            let mut views = Vec::with_capacity(st.store.len());
            for (i, ck) in instances.iter().enumerate() {
                let view = match st.role {
                    trace::role::H => Some(&ck.h[st.idx]),
                    trace::role::HP => Some(&ck.hp[st.idx]),
                    _ => ck.hhat[st.idx].as_ref(),
                };
                if view.is_some() != st.view(i).is_some() {
                    return false;
                }
                views.extend(view);
            }
            let cut_of = |key: u128| {
                let mut cut = Vec::with_capacity(1);
                cuts(&[key], &mut cut);
                cut[0]
            };
            st.store.load(grid, &views, &cut_of)
        })?;
        Ok(builder
            .stores
            .iter()
            .map(|st| st.store.checkpoint())
            .collect())
    }

    /// The builder `snap`'s header describes — parameters, grid shift,
    /// hash coefficients, counters and RNG state — with each store filled
    /// by `load(store index, store, grid, ladder cuts of point keys)`,
    /// which returns `false` when its state does not fit. `keys` are the
    /// point keys `load` will ask cuts of: each distinct one gets one
    /// power table up front, which every store's hash then shares. Has no
    /// side effects on metrics or traces.
    fn rebuild(
        snap: &Snapshot,
        keys: impl Iterator<Item = u128>,
        mut load: impl FnMut(usize, &mut LadderStore, &GridHierarchy, CutsOf) -> bool,
    ) -> Result<Self, CheckpointError> {
        let params = snap.params.clone();
        let sparams = snap.sparams;
        let gp = params.grid;
        let l = params.l() as usize;
        if snap.shift.len() != gp.d
            || !snap
                .shift
                .iter()
                .all(|&s| (0.0..gp.delta as f64).contains(&s))
        {
            return Err(CheckpointError::Malformed);
        }
        let grid = GridHierarchy::with_shift(gp, snap.shift.clone());

        let lambda = params.lambda().min(1 << 12);
        // Coefficients are field elements: one outside the field would be
        // reduced, and the restored builder would checkpoint other bytes
        // than it was read from.
        let roles = [&snap.h_coeffs, &snap.hp_coeffs, &snap.hhat_coeffs];
        let element = |c: &u64| *c < sbc_hash::field::P;
        if roles.iter().any(|coeffs| {
            coeffs.len() != l + 1
                || coeffs
                    .iter()
                    .any(|c| c.len() != lambda || !c.iter().all(element))
        }) {
            return Err(CheckpointError::Malformed);
        }
        let bank = HashBank::from_coeffs(roles.into_iter().flatten().map(Vec::as_slice));

        let mut rows: OpenTable<u128, u32> = OpenTable::default();
        let mut distinct = Vec::new();
        for key in keys {
            rows.get_or_insert_with(key, || {
                distinct.push(key);
                distinct.len() as u32 - 1
            });
        }
        let mut powers = Vec::new();
        bank.power_tables(&distinct, &mut powers);
        // Store `s`'s hash value at `key` (a key not gathered up front
        // gets a power table of its own).
        let value = |key: u128, s: usize| match rows.get(key) {
            Some(&row) => bank.eval_at(s, &powers[row as usize * lambda..][..lambda]),
            None => {
                let mut table = Vec::with_capacity(lambda);
                bank.power_tables(&[key], &mut table);
                bank.eval_at(s, &table)
            }
        };

        let (instances, mut stores) = Self::build_ladder(&params, &sparams, &grid);
        let routes = RouteTables::build(&instances, l);
        for (s, st) in stores.iter_mut().enumerate() {
            let column = &routes.columns[s];
            let first = st.first;
            let cuts = |keys: &[u128], out: &mut Vec<usize>| {
                out.extend(keys.iter().map(|&key| {
                    (RouteTables::cut(column, value(key, s)) as usize).saturating_sub(first)
                }));
            };
            if !load(s, st, &grid, &cuts) {
                return Err(CheckpointError::Malformed);
            }
        }

        Ok(Self {
            params,
            sparams,
            grid,
            bank,
            instances,
            nominal_sketch_bytes: nominal_sketch_bytes(&stores),
            stores,
            routes,
            soa: BatchSoa::default(),
            net_count: snap.net_count,
            ops_seen: snap.ops_seen,
            merge_depth: snap.merge_depth,
            rng: StdRng::from_state(snap.rng_state),
            metrics: IngestMetrics::new(l),
            peak_measured: AtomicUsize::new(0),
        })
    }

    /// Ends the pass: decodes instances in ascending `o` and returns the
    /// coreset of the first fully workable guess.
    pub fn finish(self) -> Result<Coreset, FailReason> {
        self.finish_ref()
    }

    /// Ends the pass without consuming the builder: the stream can keep
    /// going afterwards (and the result can be emitted at checkpoints).
    /// Guesses are tried in ascending `o`, each read straight from the
    /// builder's stores: a store is decoded only when the selection
    /// reaches it, and a guess whose h stores FAIL is rejected from their
    /// view counters without decoding anything. Stops at the first
    /// acceptable guess.
    ///
    /// Assembly draws from a *clone* of the builder's RNG that is not
    /// written back, so emitting a mid-stream coreset leaves the
    /// continued run bit-identical to one that never called this.
    pub fn finish_ref(&self) -> Result<Coreset, FailReason> {
        let mut rng = self.rng.clone();
        let mut last_err = FailReason::NoWorkableO;
        let mut fallback: Option<Coreset> = None;
        for (i, inst) in self.instances.iter().enumerate() {
            sbc_obs::counter!("stream.finish.instances").incr();
            let o = inst.o;
            match self.try_instance(i) {
                Ok(coreset) => {
                    if coreset.is_empty() {
                        Reject::Empty.count();
                        last_err = FailReason::Storage("empty coreset".into());
                        continue;
                    }
                    // o-window acceptance, mirroring the offline anchor:
                    // the assembled coreset itself estimates OPT well, so
                    // reject guesses far outside [≈OPT/32, ≈64·OPT]. Too
                    // small ⇒ tiny parts and no compression; too large ⇒
                    // a degenerate one-part partition. The first workable
                    // instance is kept as a fallback in case every guess
                    // sits below the window.
                    let (pts, ws) = coreset.split();
                    let est =
                        opt_upper_estimate(&pts, Some(&ws), self.params.k, self.params.r, &mut rng)
                            .max(1.0);
                    if o > est * 64.0 && est > 1.0 {
                        // Out the top of the window (skip this check for
                        // degenerate zero-cost data where est bottoms out).
                        Reject::Window.count();
                        if fallback.is_none() {
                            fallback = Some(coreset);
                        }
                        last_err = FailReason::Storage(format!(
                            "o = {o:.3e} far above estimated OPT {est:.3e}"
                        ));
                        continue;
                    }
                    if o < est / 32.0 {
                        Reject::Window.count();
                        if fallback.is_none() {
                            fallback = Some(coreset);
                        }
                        continue; // prefer a guess nearer OPT
                    }
                    return Ok(coreset);
                }
                Err((why, e)) => {
                    why.count();
                    last_err = e;
                }
            }
        }
        if let Some(cs) = fallback {
            return Ok(cs);
        }
        Err(last_err)
    }

    /// Algorithms 3, 1 and 2 on guess `i`, cheapest rejection first:
    /// every h store's view counters, then the h decode and the
    /// partition, the heavy budget, the h′ counters, decode and part
    /// masses, and only then the ĥ stores, level by level. A rejection
    /// reports the [`FailReason`] of the first check it fails in that
    /// order.
    fn try_instance(&self, i: usize) -> Result<Coreset, (Reject, FailReason)> {
        let l = self.params.l() as usize;
        let inst = &self.instances[i];
        let storage = |role: &str, level: i32, e: StoringFail| {
            let why = match e {
                StoringFail::Overflowed => Reject::Overflowed,
                _ => Reject::TooManyCells,
            };
            let e = FailReason::Storage(format!("o={:.3e} {role} level {level}: {e:?}", inst.o));
            (why, e)
        };
        // Guess `i`'s view of `st`, decoded (`None` where it has none).
        let output = |st: &LadderStore| st.view(i).map(|j| st.store.finish(&self.grid, j));
        let cells = |role: u8, name: &str, offset: i32, rates: &[f64]| {
            let stores = self.role_stores(role);
            for (idx, st) in stores.iter().enumerate() {
                let j = st.view(i).expect("every instance has h and h′ stores");
                st.store
                    .check(j)
                    .map_err(|e| storage(name, idx as i32 + offset, e))?;
            }
            // Role → cell occupancy estimates (Algorithm 3 steps 3 and 5).
            let mut counts = CellCounts::new(self.params.l());
            for ((idx, st), &rate) in stores.iter().enumerate().zip(rates) {
                let out = output(st)
                    .expect("every instance has h and h′ stores")
                    .map_err(|e| storage(name, idx as i32 + offset, e))?;
                for (cell, cnt) in out.cells {
                    counts.set(cell, cnt as f64 / rate);
                }
            }
            Ok(counts)
        };

        // Algorithm 1 on the role-h estimates.
        let counts = cells(trace::role::H, "h", -1, &inst.psi)?;
        let partition = Partition::build(&counts, &self.params, inst.o)
            .map_err(|e| (Reject::Partition, FailReason::Partition(e)))?;
        if let Some(sel) = self.params.selection_heavy_budget() {
            if partition.num_heavy() as f64 > sel {
                return Err((
                    Reject::Partition,
                    FailReason::Partition(sbc_core::PartitionError::TooManyHeavyCells {
                        count: partition.num_heavy(),
                        budget: sel.ceil() as usize,
                    }),
                ));
            }
        }

        // Role h′ → part masses; Algorithm 2 checks + assembly context.
        let hp_counts = cells(trace::role::HP, "h'", 0, &inst.psip)?;
        let pm = PartMasses::from_counts(&hp_counts, &partition);
        let ctx = CoresetBuilderCtx::new(&self.params, inst.o, partition, pm).map_err(|e| {
            let why = match e {
                FailReason::Partition(_) => Reject::Partition,
                _ => Reject::LevelMass,
            };
            (why, e)
        })?;

        // Role ĥ → coreset samples with per-part nested sub-thresholds.
        // ĥ's hashes are the bank's last `L + 1`, level 0 first.
        let hhat_base = 2 * (l + 1);
        let mut entries = Vec::new();
        let mut part_phis: Vec<std::collections::HashMap<usize, f64>> =
            vec![std::collections::HashMap::new(); l + 1];
        let mut level_phis = vec![0.0f64; l + 1];
        for (level, st) in self.role_stores(trace::role::HHAT).iter().enumerate() {
            level_phis[level] = inst.phi[level];
            let Some(out) = output(st) else {
                continue; // Tᵢ(o) ≤ 1 ⇒ no non-empty crucial cells
            };
            let out = out.map_err(|e| storage("ĥ", level as i32, e))?;
            // Coreset samples must be complete: a dirty small cell that
            // belongs to a kept part means lost samples — reject the
            // instance (conservatively, without checking part membership).
            if !out.dirty_small_cells.is_empty() {
                return Err((
                    Reject::DirtyCells,
                    FailReason::Storage(format!(
                        "o={:.3e} ĥ level {level}: {} dirty small cells",
                        inst.o,
                        out.dirty_small_cells.len()
                    )),
                ));
            }
            for (point, mult) in out.small_points {
                let Some((lvl, part)) = ctx.accept(&self.grid, &point, Some(level as i32)) else {
                    continue;
                };
                debug_assert_eq!(lvl as usize, level);
                let phi_part = ctx.part_phi(lvl, part);
                let thr = bernoulli_threshold(phi_part);
                let key = point.key128(self.params.grid.delta);
                if self.bank.eval(hhat_base + level, key) < thr {
                    let realized = realized_prob(phi_part);
                    part_phis[level].insert(part, realized);
                    entries.push(CoresetEntry {
                        point,
                        weight: mult as f64 / realized,
                        level: lvl,
                        part,
                    });
                }
            }
        }
        Ok(ctx.finish(entries, level_phis, part_phis, self.grid.shift().to_vec()))
    }
}

/// Why a guess was not taken: the `stream.finish.reject.*` counter it
/// bumps (recorded only under `obs`).
#[derive(Clone, Copy)]
enum Reject {
    /// A store held more than `α` cells at end of stream.
    TooManyCells,
    /// A store died mid-stream.
    Overflowed,
    /// Algorithm 1: too many heavy cells, or the root is not heavy.
    Partition,
    /// Algorithm 2 line 6: a level's part mass exceeded its budget.
    LevelMass,
    /// A ĥ store lost the samples of a small cell to eviction.
    DirtyCells,
    /// The assembled coreset was empty.
    Empty,
    /// `o` lies outside the window the coreset's OPT estimate allows.
    Window,
}

impl Reject {
    /// Bumps this reason's counter.
    fn count(self) {
        match self {
            Reject::TooManyCells => sbc_obs::counter!("stream.finish.reject.too_many_cells"),
            Reject::Overflowed => sbc_obs::counter!("stream.finish.reject.overflowed"),
            Reject::Partition => sbc_obs::counter!("stream.finish.reject.partition"),
            Reject::LevelMass => sbc_obs::counter!("stream.finish.reject.level_mass"),
            Reject::DirtyCells => sbc_obs::counter!("stream.finish.reject.dirty_cells"),
            Reject::Empty => sbc_obs::counter!("stream.finish.reject.empty"),
            Reject::Window => sbc_obs::counter!("stream.finish.reject.window"),
        }
        .incr();
    }
}

/// Routes every op of a precomputed batch into one (role, level) store,
/// by the store's cut column `cuts`.
///
/// Loop order is *store-major*: the whole batch is scanned in stream
/// order and the accepted ops applied consecutively, each to the views
/// its ladder cut reaches. Every view therefore sees exactly the update
/// sequence the per-op path feeds it — order across stores is
/// irrelevant (they share no state), so the result stays bit-identical
/// — while the store's table stays cache-hot for the whole streak.
fn route_store<T>(
    st: &mut LadderStore,
    cuts: &[u32],
    grid: &GridHierarchy,
    ops: &[T],
    op: fn(&T) -> (&Point, i64),
    soa: &BatchSoa,
) {
    let stride = soa.cell_keys.len() / ops.len(); // cells per op: levels −1..=L
    let coff = (st.level() + 1) as usize;
    let first = st.first as u32;
    let rows = soa.cell_keys.chunks_exact(stride);
    st.store.drain(
        grid,
        cuts.iter()
            .zip(ops)
            .zip(&soa.keys)
            .zip(rows)
            .filter(|(((&cut, _), _), _)| cut > first)
            .map(|(((&cut, o), &key), row)| {
                let (p, delta) = op(o);
                (p, key, row[coff], delta, (cut - first) as usize)
            }),
    );
}

/// Lemma 4.2-style accounting of a ladder's stores: what a space-bounded
/// deployment of the same configurations reserves as linear sketches.
/// Dead stores count too — a fixed-size sketch does not give memory back
/// mid-stream.
fn nominal_sketch_bytes(stores: &[LadderStore]) -> usize {
    stores
        .iter()
        .flat_map(|st| (0..st.store.len()).map(|j| st.store.config(j)))
        .fold(0, |sum, cfg| {
            sum.saturating_add(Storing::nominal_sketch_bytes(cfg))
        })
}

/// Fault-injection salt for the store at ladder position `(o, role, idx)`.
/// Roles: 0 = h, 1 = h′, 2 = ĥ. Positional, not RNG-derived, so the
/// same logical store is targeted no matter how the run is sliced.
fn store_salt(o: f64, role: u64, idx: usize) -> u64 {
    splitmix64(o.to_bits() ^ (role << 56) ^ ((idx as u64) << 40))
}

impl OInstance {
    /// The instance for guess `o`, with the sizing of its stores per
    /// role (h, h′, ĥ) and store index; ĥ has no store where
    /// `Tᵢ(o) ≤ 1`.
    fn new(
        params: &CoresetParams,
        sparams: &StreamParams,
        o: f64,
    ) -> (Self, [Vec<Option<ViewSpec>>; 3]) {
        let l = params.l() as i32;
        let gamma = params.gamma();
        let kl = params.k as f64 * params.l().max(1) as f64;
        let dpow = params.d_pow().min(16.0);
        let spec = |alpha: usize, beta: usize| ViewSpec {
            cfg: StoringConfig {
                alpha,
                beta,
                rows: sparams.rows,
            },
            cap_cells: alpha
                .saturating_mul(8)
                .saturating_add(1024)
                .min(sparams.cap_cells)
                .max(alpha.saturating_add(1)),
        };

        let mut psi = Vec::new();
        let mut psi_thr = Vec::new();
        let mut h_specs = Vec::new();
        for level in -1..=(l - 1) {
            let t = params.t_threshold(level, o);
            let rate = (sparams.est_rate / t).min(1.0);
            psi.push(realized_prob(rate));
            psi_thr.push(bernoulli_threshold(rate));
            let alpha = (sparams.alpha_factor * (kl + dpow * t.min(sparams.est_rate) + 8.0)).ceil()
                as usize;
            h_specs.push(Some(spec(alpha, 1)));
        }

        let mut psip = Vec::new();
        let mut psip_thr = Vec::new();
        let mut hp_specs = Vec::new();
        let mut phi = Vec::new();
        let mut phi_thr = Vec::new();
        let mut hhat_specs = Vec::new();
        for level in 0..=l {
            let t = params.t_threshold(level, o);
            let ratep = (sparams.est_rate / (gamma * t)).min(1.0);
            psip.push(realized_prob(ratep));
            psip_thr.push(bernoulli_threshold(ratep));
            let alpha_p = (sparams.alpha_factor
                * (kl + dpow * t.min(sparams.est_rate / gamma) + 8.0))
                .ceil() as usize;
            hp_specs.push(Some(spec(alpha_p, 1)));

            let phi_level = params.phi(level, o);
            phi.push(realized_prob(phi_level));
            phi_thr.push(bernoulli_threshold(phi_level));
            // Where Tᵢ(o) ≤ 1, crucial cells at this level are
            // necessarily empty: no ĥ store.
            hhat_specs.push((t > 1.0).then(|| {
                let samples_per_cell = (phi_level * t).max(1.0);
                let alpha_hat =
                    (sparams.alpha_factor * (kl + dpow * samples_per_cell + 8.0)).ceil() as usize;
                let beta_hat = (8.0 * samples_per_cell + 32.0).ceil() as usize;
                spec(alpha_hat, beta_hat)
            }));
        }

        let inst = Self {
            o,
            psi,
            psi_thr,
            psip,
            psip_thr,
            phi,
            phi_thr,
        };
        (inst, [h_specs, hp_specs, hhat_specs])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{churn_stream, insert_delete_stream, insertion_stream};
    use sbc_geometry::dataset::{gaussian_mixture, two_phase_dynamic};
    use sbc_geometry::GridParams;

    fn params() -> CoresetParams {
        CoresetParams::builder(3, GridParams::from_log_delta(8, 2))
            .build()
            .unwrap()
    }

    #[test]
    fn insertion_only_stream_produces_coreset() {
        let p = params();
        let pts = gaussian_mixture(p.grid, 6000, 3, 0.04, 11);
        let mut rng = StdRng::seed_from_u64(1);
        let mut b = StreamCoresetBuilder::new(p, StreamParams::default(), &mut rng);
        b.process_all(&insertion_stream(&pts));
        assert_eq!(b.net_count(), 6000);
        let cs = b.finish().expect("stream coreset");
        assert!(!cs.is_empty());
        assert!(cs.len() < 6000);
        let tw = cs.total_weight();
        assert!((tw - 6000.0).abs() < 0.3 * 6000.0, "total weight {tw}");
    }

    #[test]
    fn deletions_are_respected() {
        // Insert kept ∪ churn, delete churn: the result must reflect only
        // the kept points (total weight ≈ |kept|, not |kept| + |churn|).
        let p = params();
        let ds = two_phase_dynamic(p.grid, 5000, 2500, 3, 7);
        let mut rng = StdRng::seed_from_u64(2);
        let ops = insert_delete_stream(&ds.kept, &ds.churn, &mut rng);
        let mut b = StreamCoresetBuilder::new(p, StreamParams::default(), &mut rng);
        b.process_all(&ops);
        assert_eq!(b.net_count(), 5000);
        let cs = b.finish().expect("dynamic coreset");
        let tw = cs.total_weight();
        assert!(
            (tw - 5000.0).abs() < 0.35 * 5000.0,
            "total weight {tw} should track the kept 5000, not 7500"
        );
        // Every surviving coreset point must be a kept point (churn points
        // are gone; a sketch that ignored deletions would leak them).
        let kept: std::collections::HashSet<&Point> = ds.kept.iter().collect();
        let leaked = cs
            .entries()
            .iter()
            .filter(|e| !kept.contains(&e.point))
            .count();
        assert_eq!(leaked, 0, "{leaked} deleted points leaked into the coreset");
    }

    #[test]
    fn space_report_is_populated() {
        let p = params();
        let pts = gaussian_mixture(p.grid, 2000, 3, 0.04, 5);
        let mut rng = StdRng::seed_from_u64(3);
        let mut b = StreamCoresetBuilder::new(p, StreamParams::default(), &mut rng);
        b.process_all(&insertion_stream(&pts));
        let rep = b.space_report();
        assert!(rep.instances > 10);
        assert!(rep.hash_bytes > 0);
        assert!(rep.store_bytes > 0);
        assert!(rep.live_stores > 0);
        // The JSON stand-in carries every field.
        let json = rep.to_json().to_string();
        for key in [
            "hash_bytes",
            "store_bytes",
            "nominal_sketch_bytes",
            "instances",
            "dead_stores",
            "live_stores",
            "runaway_kill",
            "sketch_overflow",
        ] {
            assert!(
                json.contains(&format!("\"{key}\"")),
                "missing {key}: {json}"
            );
        }
    }

    #[test]
    fn space_report_tracks_killed_runaway_stores() {
        // A small cap_cells turns the widest-spread stores into runaways
        // that get killed mid-stream. The report must count them as dead,
        // show the freed memory in the measured store_bytes, and keep
        // charging the full nominal sketch reservation — a fixed-size
        // sketch never shrinks.
        let p = params();
        let pts = gaussian_mixture(p.grid, 2000, 3, 0.04, 5);
        let run = |sp: StreamParams| {
            let mut rng = StdRng::seed_from_u64(3);
            let mut b = StreamCoresetBuilder::new(p.clone(), sp, &mut rng);
            b.process_all(&insertion_stream(&pts));
            b.space_report()
        };
        let healthy = run(StreamParams::default());
        let capped = StreamParams {
            cap_cells: 64,
            ..StreamParams::default()
        };
        let starved = run(capped);

        assert_eq!(
            healthy.dead_stores, 0,
            "default cap must not kill stores here"
        );
        assert_eq!(healthy.runaway_kill, 0);
        assert_eq!(healthy.sketch_overflow, 0);
        assert!(starved.dead_stores > 0, "cap 64 must kill runaway stores");
        // Arena backends die only by the cap: the breakdown must put every
        // death in the runaway bucket and balance against the live count.
        assert_eq!(starved.runaway_kill, starved.dead_stores);
        assert_eq!(starved.sketch_overflow, 0);
        assert_eq!(
            starved.live_stores + starved.dead_stores,
            healthy.live_stores + healthy.dead_stores,
            "total store count is configuration-determined"
        );
        assert!(
            starved.store_bytes < healthy.store_bytes,
            "killed stores must free measured memory ({} vs {})",
            starved.store_bytes,
            healthy.store_bytes
        );
        assert!(
            starved.nominal_sketch_bytes > 0
                && starved.nominal_sketch_bytes == healthy.nominal_sketch_bytes,
            "nominal accounting is configuration-determined, not data-dependent"
        );
        assert_eq!(healthy.instances, starved.instances);
    }

    /// Asserts that every arena's running byte totals equal a walk of
    /// its cells and views, and that `measured_bytes` is the report's.
    fn assert_footprint_walks(b: &StreamCoresetBuilder, at: &str) {
        let (mut stored, mut expected) = (0, 0);
        for st in &b.stores {
            let walked = st.store.walked_bytes(&b.grid);
            let running = (
                st.store.stored_bytes(&b.grid),
                st.store.expected_bytes(&b.grid),
            );
            assert_eq!(running, walked, "{at}: store ({}, {})", st.role, st.idx);
            stored += walked.0;
            expected += walked.1;
        }
        let rep = b.space_report();
        assert_eq!(
            (rep.store_bytes, rep.expected_sketch_bytes),
            (stored, expected),
            "{at}"
        );
        assert_eq!(b.measured_bytes(), rep.measured_bytes, "{at}");
    }

    /// The running footprint behind `measured_bytes` equals a walk of the
    /// arenas after every batch, through inserts, deletes, evictions, cap
    /// kills and the purges they trigger, checkpoint → restore, and a
    /// two-shard merge: at the serving profile, the library defaults, a
    /// tight cap, and every key width of `wide_geometry.rs`.
    #[test]
    fn running_footprint_matches_a_walk() {
        let serving = StreamParams::builder()
            .est_rate(24.0)
            .alpha_factor(2.0)
            .rows(2)
            .build()
            .unwrap();
        let wide = StreamParams::builder()
            .o_ladder_max(4096.0)
            .build()
            .unwrap();
        let capped = StreamParams {
            cap_cells: 24,
            ..serving
        };
        for (log_delta, d, sp, seed) in [
            (6, 2, serving, 1),
            (8, 2, StreamParams::default(), 2),
            (8, 2, capped, 3),
            (10, 8, wide, 4),
            (10, 12, wide, 5),
            (10, 16, wide, 6),
        ] {
            let gp = GridParams::from_log_delta(log_delta, d);
            let params = CoresetParams::builder(3, gp).build().unwrap();
            let pts = gaussian_mixture(gp, 240, 3, 0.04, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let ops = churn_stream(&pts, 0.3, &mut rng);
            let grid = GridHierarchy::new(gp, &mut rng);
            let hash_seed: u64 = rng.gen();
            let mk = || {
                let mut hrng = StdRng::seed_from_u64(hash_seed);
                StreamCoresetBuilder::with_grid(params.clone(), sp, grid.clone(), &mut hrng)
            };
            let case = format!("d = {d}, log Δ = {log_delta}, seed {seed}");
            let mut b = mk();
            // Shards split by point, so each point's deletes meet its inserts.
            let (mut even, mut odd) = (mk(), mk());
            for (i, batch) in ops.chunks(16).enumerate() {
                b.process_all(batch);
                assert_footprint_walks(&b, &format!("{case}, batch {i}"));
                for op in batch {
                    let shard = if op.point().key128(gp.delta) % 2 == 0 {
                        &mut even
                    } else {
                        &mut odd
                    };
                    shard.process(op);
                }
                if i % 10 == 9 {
                    let bytes = b.checkpoint().unwrap().to_bytes();
                    b = StreamCoresetBuilder::restore(&Snapshot::from_bytes(&bytes).unwrap())
                        .unwrap();
                    assert_footprint_walks(&b, &format!("{case}, restored at batch {i}"));
                }
            }
            assert_footprint_walks(&even, &format!("{case}, even shard"));
            let merged = even.merge(odd).unwrap();
            assert_footprint_walks(&merged, &format!("{case}, merged"));
            if sp.cap_cells == capped.cap_cells {
                assert!(b.space_report().dead_stores > 0, "{case}: the cap kills");
                assert!(
                    merged.space_report().dead_stores > 0,
                    "{case}: merged kills"
                );
            }
        }
    }

    #[test]
    fn empty_stream_fails_gracefully() {
        let p = params();
        let mut rng = StdRng::seed_from_u64(4);
        let b = StreamCoresetBuilder::new(p, StreamParams::default(), &mut rng);
        assert!(b.finish().is_err());
    }
}
