//! Versioned, self-describing checkpoints of the streaming builder.
//!
//! A [`Snapshot`] captures *everything* that determines the rest of a
//! run: the coreset and stream parameters, the grid shift, the three
//! hash-polynomial coefficient families, the net point count, the
//! builder's RNG state, every (role, level) arena's cells, view tallies,
//! payload points and per-view counters, and (when the `obs` feature is
//! on) the metrics registry. Restoring a
//! snapshot in a fresh process and continuing the stream is
//! **bit-identical** to the uninterrupted run — property-tested in
//! `tests/checkpoint_determinism.rs`, including runs with injected
//! mid-stream store deaths and the sharded parallel path.
//!
//! The byte format reuses the little-endian [`crate::codec`] and adds an
//! 8-byte magic plus a `u32` version so stale files fail loudly instead
//! of decoding garbage. Collections are canonically ordered (sorted by
//! cell and point key at snapshot time), so encode → decode → encode is the
//! identity on bytes.
//!
//! Version 4 writes each (role, level) arena once ([`ArenaCheckpoint`]):
//! every cell with the tally prefix of its views, every payload point
//! with its multiplicity and ladder cut. Version 3 wrote one store
//! snapshot per instance view, repeating each point in every view that
//! holds it. [`Snapshot::from_bytes`] still reads version 3 — builders
//! spilled or migrated by an older binary — by loading its views into
//! the arenas and taking their version-4 image; nothing writes it.
//!
//! Only the arena store backend, which every builder runs, supports
//! checkpointing; a ladder with sketch-backed stores would yield
//! [`CheckpointError::UnsupportedBackend`].

use sbc_core::{ConstantsProfile, CoresetParams};
use sbc_geometry::{GridParams, Point};
use sbc_obs::fault::{FaultPlan, StoreFaultKind};
use sbc_obs::{HistogramSnapshot, MetricsSnapshot};

use crate::codec::{Decode, Encode};
use crate::coreset_stream::{StreamCoresetBuilder, StreamParams};
use crate::storing::{CellSnapshot, StoreDeath, StoringSnapshot};

/// File magic: identifies a byte buffer as an sbc checkpoint.
pub const MAGIC: [u8; 8] = *b"SBCCKPT\0";

/// Current checkpoint format version. Version 2 added [`Snapshot::ops_seen`]
/// so a restored run's trace stitches onto the pre-cut one at the right
/// stream-op index. Version 3 added [`Snapshot::merge_depth`] and
/// `StreamParams::shards`, so a merge-tree node can checkpoint/restore
/// mid-fold with its ε-budget accounting intact. Version 4 stores each
/// (role, level) arena once instead of one snapshot per view.
pub const VERSION: u32 = 4;

/// The per-view format, still read by [`Snapshot::from_bytes`].
const VIEWS_VERSION: u32 = 3;

/// Why a checkpoint could not be taken, serialized, or restored.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// A store uses the sketch backend, whose probed bucket rows have no
    /// canonical serialization. Configure arena stores to checkpoint.
    UnsupportedBackend,
    /// The buffer does not start with the checkpoint magic.
    BadMagic,
    /// The buffer's format version is neither [`VERSION`] nor the
    /// version 3 it still reads.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// The body failed to decode (truncation, bad tags, or a shape that
    /// contradicts the embedded parameters).
    Malformed,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::UnsupportedBackend => {
                write!(f, "sketch-backed stores cannot be checkpointed")
            }
            CheckpointError::BadMagic => write!(f, "not an sbc checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "checkpoint version {found} unsupported (expected {VERSION})"
                )
            }
            CheckpointError::Malformed => write!(f, "malformed checkpoint body"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// One `o`-instance's store states in a version-3 image: roles h, h′
/// and ĥ in ladder order. Decoded, never written.
pub(crate) struct InstanceCheckpoint {
    /// Role h, levels `−1..=L−1`.
    pub h: Vec<StoringSnapshot>,
    /// Role h′, levels `0..=L`.
    pub hp: Vec<StoringSnapshot>,
    /// Role ĥ, levels `0..=L` (`None` where `Tᵢ(o) ≤ 1`).
    pub hhat: Vec<Option<StoringSnapshot>>,
}

/// A view's lifecycle in an [`ArenaCheckpoint`]. The view's sizing is
/// not stored — it is a pure function of the parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ViewCheckpoint {
    /// Updates absorbed so far (drives fault-injection indices).
    pub updates: u64,
    /// Whether the view died mid-stream, and how.
    pub death: Option<StoreDeath>,
    /// Whether the death was injected (vs the natural occupancy cap).
    pub injected: bool,
    /// High-water mark of the view's distinct non-empty cells.
    pub peak_cells: u64,
}

/// A cell's identity in an [`ArenaCheckpoint`]: its key where the key is
/// a packing of the cell id (64 or 128 bits wide, as the arena keys the
/// level), else its index vector, whose key is a mixing hash.
#[derive(Clone, Debug, PartialEq)]
pub enum CellName {
    /// A `CellId::pack` that fits 64 bits.
    Narrow(u64),
    /// A `CellId::pack` of 65 to 128 bits.
    Wide(u128),
    /// The cell's index vector (the level is the arena's).
    Coords(Vec<i64>),
}

/// A payload point's identity in an [`ArenaCheckpoint`]: its
/// `Point::pack`, or the point itself where points do not pack.
#[derive(Clone, Debug, PartialEq)]
pub enum PointName {
    /// A `Point::pack`.
    Packed(u128),
    /// The point, whose key is a mixing hash.
    Coords(Point),
}

/// One payload point of a cell.
#[derive(Clone, Debug, PartialEq)]
pub struct EntryCheckpoint {
    /// The point.
    pub point: PointName,
    /// Its net multiplicity.
    pub mult: i64,
    /// The ladder cut it was routed by: it belongs to views `0..cut`.
    pub cut: u32,
}

/// One cell of an [`ArenaCheckpoint`].
#[derive(Clone, Debug, PartialEq)]
pub struct CellCheckpoint {
    /// The cell.
    pub cell: CellName,
    /// `(count, evicted)` of each view from the arena's first live view
    /// on, trailing views that do not hold the cell trimmed.
    pub tallies: Vec<(i64, bool)>,
    /// The shared payload, sorted by point key.
    pub points: Vec<EntryCheckpoint>,
}

/// One (role, level) store: a nested arena whose view `j` is the store
/// of the `j`-th instance that has one there.
#[derive(Clone, Debug, PartialEq)]
pub struct ArenaCheckpoint {
    /// Every view's lifecycle, in ladder order.
    pub views: Vec<ViewCheckpoint>,
    /// Cells held by some live view, sorted by cell key.
    pub cells: Vec<CellCheckpoint>,
}

/// A complete, restartable image of a [`crate::StreamCoresetBuilder`].
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// Coreset construction parameters.
    pub params: CoresetParams,
    /// Streaming knobs (including the fault-injection plan, so a
    /// restored run keeps the same failure schedule).
    pub sparams: StreamParams,
    /// The grid hierarchy's random shift vector.
    pub shift: Vec<f64>,
    /// Role-h hash coefficients, one polynomial per level.
    pub h_coeffs: Vec<Vec<u64>>,
    /// Role-h′ hash coefficients.
    pub hp_coeffs: Vec<Vec<u64>>,
    /// Role-ĥ hash coefficients.
    pub hhat_coeffs: Vec<Vec<u64>>,
    /// Net number of live points (`#inserts − #deletes`).
    pub net_count: i64,
    /// Total stream operations absorbed (inserts + deletes, gross).
    /// Restores the trace recorder's causal op index so the post-restore
    /// timeline continues where the pre-cut one stopped.
    pub ops_seen: u64,
    /// Merge-tree height of the builder (`0` = leaf, never merged) —
    /// preserved so a restored node keeps charging the per-level
    /// ε-budget schedule from where it stopped.
    pub merge_depth: u32,
    /// The builder's xoshiro256++ state (drives end-of-stream assembly).
    pub rng_state: [u64; 4],
    /// The (role, level) arenas in the builder's store order: role h at
    /// levels `−1..=L−1`, then h′ and ĥ at levels `0..=L`.
    pub stores: Vec<ArenaCheckpoint>,
    /// Metrics registry at checkpoint time, merged back on restore so
    /// counters survive the restart. Empty unless recording was enabled
    /// when the checkpoint was cut: the registry is process-global, so
    /// an unguarded capture would leak the host's unrelated lazy
    /// registrations into the byte stream and break checkpoint
    /// canonicality across hosts and feature states.
    pub metrics: MetricsSnapshot,
}

impl Snapshot {
    /// Serializes the snapshot with its magic/version header.
    pub fn to_bytes(&self) -> Vec<u8> {
        let _mem = sbc_obs::alloc::scope(sbc_obs::alloc::Component::Checkpoint);
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        VERSION.encode(&mut buf);
        self.encode(&mut buf);
        buf
    }

    /// Parses a snapshot, checking magic and version and requiring every
    /// byte be consumed. A version-3 image is loaded view by view into a
    /// builder rebuilt from its parameters, and its stores are that
    /// builder's arenas — so the result encodes as version 4.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, CheckpointError> {
        if buf.len() < MAGIC.len() || buf[..MAGIC.len()] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let _mem = sbc_obs::alloc::scope(sbc_obs::alloc::Component::Checkpoint);
        let mut cursor = MAGIC.len();
        let version = u32::decode(buf, &mut cursor).ok_or(CheckpointError::Malformed)?;
        if version != VERSION && version != VIEWS_VERSION {
            return Err(CheckpointError::UnsupportedVersion { found: version });
        }
        let body = |cursor: &mut usize| {
            let mut snap = Snapshot::decode_header(buf, cursor)?;
            let views = if version == VERSION {
                snap.stores = Vec::decode(buf, cursor)?;
                None
            } else {
                Some(Vec::<InstanceCheckpoint>::decode(buf, cursor)?)
            };
            snap.metrics = MetricsSnapshot::decode(buf, cursor)?;
            Some((snap, views))
        };
        let (mut snap, views) = body(&mut cursor)
            .filter(|_| cursor == buf.len())
            .ok_or(CheckpointError::Malformed)?;
        if let Some(instances) = views {
            snap.stores = StreamCoresetBuilder::arenas_from_views(&snap, &instances)?;
        }
        Ok(snap)
    }

    /// Decodes everything before the stores (which are left empty, as
    /// is the metrics registry).
    fn decode_header(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        let snap = Snapshot {
            params: CoresetParams::decode(buf, cursor)?,
            sparams: StreamParams::decode(buf, cursor)?,
            shift: Vec::decode(buf, cursor)?,
            h_coeffs: Vec::decode(buf, cursor)?,
            hp_coeffs: Vec::decode(buf, cursor)?,
            hhat_coeffs: Vec::decode(buf, cursor)?,
            net_count: i64::decode(buf, cursor)?,
            ops_seen: u64::decode(buf, cursor)?,
            merge_depth: u32::decode(buf, cursor)?,
            rng_state: <[u64; 4]>::decode(buf, cursor)?,
            stores: Vec::new(),
            metrics: MetricsSnapshot::default(),
        };
        // Shape checks that don't need the rebuilt ladder: the shift must
        // match the grid's dimension and lie in [0, Δ).
        let gp = snap.params.grid;
        (snap.shift.len() == gp.d
            && snap
                .shift
                .iter()
                .all(|&s| (0.0..gp.delta as f64).contains(&s)))
        .then_some(snap)
    }
}

// ---------------------------------------------------------------------
// Codec impls. `Encode`/`Decode` are local traits, so implementing them
// for foreign parameter types is orphan-rule-safe.
// ---------------------------------------------------------------------

impl Encode for GridParams {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.delta.encode(buf);
        self.l.encode(buf);
        self.d.encode(buf);
    }
}
impl Decode for GridParams {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        let delta = u64::decode(buf, cursor)?;
        let l = u32::decode(buf, cursor)?;
        let d = usize::decode(buf, cursor)?;
        (l <= 40 && delta == 1u64 << l && d >= 1).then_some(GridParams { delta, l, d })
    }
}

impl Encode for ConstantsProfile {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ConstantsProfile::PaperFaithful => 0u8.encode(buf),
            ConstantsProfile::Practical {
                samples_per_part,
                gamma,
                lambda,
                max_heavy_factor,
                max_level_mass_factor,
                select_heavy_factor,
            } => {
                1u8.encode(buf);
                samples_per_part.encode(buf);
                gamma.encode(buf);
                lambda.encode(buf);
                max_heavy_factor.encode(buf);
                max_level_mass_factor.encode(buf);
                select_heavy_factor.encode(buf);
            }
        }
    }
}
impl Decode for ConstantsProfile {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        match u8::decode(buf, cursor)? {
            0 => Some(ConstantsProfile::PaperFaithful),
            1 => Some(ConstantsProfile::Practical {
                samples_per_part: f64::decode(buf, cursor)?,
                gamma: f64::decode(buf, cursor)?,
                lambda: usize::decode(buf, cursor)?,
                max_heavy_factor: f64::decode(buf, cursor)?,
                max_level_mass_factor: f64::decode(buf, cursor)?,
                select_heavy_factor: f64::decode(buf, cursor)?,
            }),
            _ => None,
        }
    }
}

impl Encode for CoresetParams {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.k.encode(buf);
        self.r.encode(buf);
        self.eps.encode(buf);
        self.eta.encode(buf);
        self.grid.encode(buf);
        self.profile.encode(buf);
    }
}
impl Decode for CoresetParams {
    /// Checked like [`CoresetParams::builder`] checks them.
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        let k = usize::decode(buf, cursor)?;
        let r = f64::decode(buf, cursor)?;
        let eps = f64::decode(buf, cursor)?;
        let eta = f64::decode(buf, cursor)?;
        let grid = GridParams::decode(buf, cursor)?;
        let profile = ConstantsProfile::decode(buf, cursor)?;
        CoresetParams::builder(k, grid)
            .r(r)
            .eps(eps)
            .eta(eta)
            .profile(profile)
            .build()
            .ok()
    }
}

impl Encode for StoreFaultKind {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            StoreFaultKind::RunawayKill => 0u8.encode(buf),
            StoreFaultKind::SketchOverflow => 1u8.encode(buf),
        }
    }
}
impl Decode for StoreFaultKind {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        match u8::decode(buf, cursor)? {
            0 => Some(StoreFaultKind::RunawayKill),
            1 => Some(StoreFaultKind::SketchOverflow),
            _ => None,
        }
    }
}

impl Encode for FaultPlan {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.seed.encode(buf);
        self.store_kill_at.encode(buf);
        self.store_kill_permille.encode(buf);
        self.store_fault_kind.encode(buf);
        self.drop_every.encode(buf);
        self.dup_every.encode(buf);
        self.max_retries.encode(buf);
    }
}
impl Decode for FaultPlan {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        Some(FaultPlan {
            seed: u64::decode(buf, cursor)?,
            store_kill_at: Option::decode(buf, cursor)?,
            store_kill_permille: u16::decode(buf, cursor)?,
            store_fault_kind: StoreFaultKind::decode(buf, cursor)?,
            drop_every: Option::decode(buf, cursor)?,
            dup_every: Option::decode(buf, cursor)?,
            max_retries: u32::decode(buf, cursor)?,
        })
    }
}

impl Encode for StreamParams {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.est_rate.encode(buf);
        self.alpha_factor.encode(buf);
        self.rows.encode(buf);
        self.cap_cells.encode(buf);
        self.o_ladder_max.encode(buf);
        self.parallel.encode(buf);
        // Reserved: the slot of a retired store-level thread count.
        0usize.encode(buf);
        self.shards.encode(buf);
        self.faults.encode(buf);
    }
}
impl Decode for StreamParams {
    /// Checked like [`StreamParams::builder`] checks them.
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        StreamParams::validate(StreamParams {
            est_rate: f64::decode(buf, cursor)?,
            alpha_factor: f64::decode(buf, cursor)?,
            rows: usize::decode(buf, cursor)?,
            cap_cells: usize::decode(buf, cursor)?,
            o_ladder_max: Option::decode(buf, cursor)?,
            parallel: bool::decode(buf, cursor)?,
            // The reserved slot is written as 0; any other value is not
            // a canonical encoding.
            shards: match usize::decode(buf, cursor)? {
                0 => usize::decode(buf, cursor)?,
                _ => return None,
            },
            faults: FaultPlan::decode(buf, cursor)?,
        })
        .ok()
    }
}

impl Encode for StoreDeath {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            StoreDeath::RunawayKill => 0u8.encode(buf),
            StoreDeath::SketchOverflow => 1u8.encode(buf),
        }
    }
}
impl Decode for StoreDeath {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        match u8::decode(buf, cursor)? {
            0 => Some(StoreDeath::RunawayKill),
            1 => Some(StoreDeath::SketchOverflow),
            _ => None,
        }
    }
}

impl Decode for CellSnapshot {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        Some(CellSnapshot {
            cell: Decode::decode(buf, cursor)?,
            count: i64::decode(buf, cursor)?,
            dirty: bool::decode(buf, cursor)?,
            points: Vec::decode(buf, cursor)?,
        })
    }
}

impl Decode for StoringSnapshot {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        Some(StoringSnapshot {
            updates: u64::decode(buf, cursor)?,
            death: Option::decode(buf, cursor)?,
            injected: bool::decode(buf, cursor)?,
            peak_cells: u64::decode(buf, cursor)?,
            cells: Vec::decode(buf, cursor)?,
        })
    }
}

impl Decode for InstanceCheckpoint {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        Some(InstanceCheckpoint {
            h: Vec::decode(buf, cursor)?,
            hp: Vec::decode(buf, cursor)?,
            hhat: Vec::decode(buf, cursor)?,
        })
    }
}

impl Encode for ViewCheckpoint {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.updates.encode(buf);
        self.death.encode(buf);
        self.injected.encode(buf);
        self.peak_cells.encode(buf);
    }
}
impl Decode for ViewCheckpoint {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        Some(ViewCheckpoint {
            updates: u64::decode(buf, cursor)?,
            death: Option::decode(buf, cursor)?,
            injected: bool::decode(buf, cursor)?,
            peak_cells: u64::decode(buf, cursor)?,
        })
    }
}

impl Encode for CellName {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            CellName::Narrow(key) => {
                0u8.encode(buf);
                key.encode(buf);
            }
            CellName::Wide(key) => {
                1u8.encode(buf);
                key.encode(buf);
            }
            CellName::Coords(coords) => {
                2u8.encode(buf);
                coords.encode(buf);
            }
        }
    }
}
impl Decode for CellName {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        match u8::decode(buf, cursor)? {
            0 => Some(CellName::Narrow(u64::decode(buf, cursor)?)),
            1 => Some(CellName::Wide(u128::decode(buf, cursor)?)),
            2 => Some(CellName::Coords(Vec::decode(buf, cursor)?)),
            _ => None,
        }
    }
}

impl Encode for PointName {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            PointName::Packed(key) => {
                0u8.encode(buf);
                key.encode(buf);
            }
            PointName::Coords(p) => {
                1u8.encode(buf);
                p.encode(buf);
            }
        }
    }
}
impl Decode for PointName {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        match u8::decode(buf, cursor)? {
            0 => Some(PointName::Packed(u128::decode(buf, cursor)?)),
            1 => Some(PointName::Coords(Point::decode(buf, cursor)?)),
            _ => None,
        }
    }
}

impl Encode for EntryCheckpoint {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.point.encode(buf);
        self.mult.encode(buf);
        self.cut.encode(buf);
    }
}
impl Decode for EntryCheckpoint {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        Some(EntryCheckpoint {
            point: PointName::decode(buf, cursor)?,
            mult: i64::decode(buf, cursor)?,
            cut: u32::decode(buf, cursor)?,
        })
    }
}

impl Encode for CellCheckpoint {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.cell.encode(buf);
        self.tallies.encode(buf);
        self.points.encode(buf);
    }
}
impl Decode for CellCheckpoint {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        Some(CellCheckpoint {
            cell: CellName::decode(buf, cursor)?,
            tallies: Vec::decode(buf, cursor)?,
            points: Vec::decode(buf, cursor)?,
        })
    }
}

impl Encode for ArenaCheckpoint {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.views.encode(buf);
        self.cells.encode(buf);
    }
}
impl Decode for ArenaCheckpoint {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        Some(ArenaCheckpoint {
            views: Vec::decode(buf, cursor)?,
            cells: Vec::decode(buf, cursor)?,
        })
    }
}

impl Encode for HistogramSnapshot {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.count.encode(buf);
        self.sum.encode(buf);
        self.buckets.encode(buf);
    }
}
impl Decode for HistogramSnapshot {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        Some(HistogramSnapshot {
            count: u64::decode(buf, cursor)?,
            sum: u64::decode(buf, cursor)?,
            buckets: Vec::decode(buf, cursor)?,
        })
    }
}

impl Encode for MetricsSnapshot {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.feature_enabled.encode(buf);
        self.counters.encode(buf);
        self.histograms.encode(buf);
    }
}
impl Decode for MetricsSnapshot {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        Some(MetricsSnapshot {
            feature_enabled: bool::decode(buf, cursor)?,
            counters: Vec::decode(buf, cursor)?,
            histograms: Vec::decode(buf, cursor)?,
        })
    }
}

impl Encode for Snapshot {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.params.encode(buf);
        self.sparams.encode(buf);
        self.shift.encode(buf);
        self.h_coeffs.encode(buf);
        self.hp_coeffs.encode(buf);
        self.hhat_coeffs.encode(buf);
        self.net_count.encode(buf);
        self.ops_seen.encode(buf);
        self.merge_depth.encode(buf);
        self.rng_state.encode(buf);
        self.stores.encode(buf);
        self.metrics.encode(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::to_bytes;

    #[test]
    fn params_roundtrip() {
        let gp = GridParams::from_log_delta(6, 2);
        let params = CoresetParams::builder(3, gp).build().unwrap();
        let bytes = to_bytes(&params);
        let mut cursor = 0;
        let back = CoresetParams::decode(&bytes, &mut cursor).expect("decodes");
        assert_eq!(cursor, bytes.len());
        assert_eq!(back, params);
    }

    #[test]
    fn stream_params_roundtrip_with_faults() {
        let sp = StreamParams {
            faults: FaultPlan::parse("chaos@42").unwrap(),
            o_ladder_max: Some(1e9),
            parallel: true,
            shards: 3,
            ..StreamParams::default()
        };
        let bytes = to_bytes(&sp);
        let mut cursor = 0;
        let back = StreamParams::decode(&bytes, &mut cursor).expect("decodes");
        assert_eq!(cursor, bytes.len());
        assert_eq!(back.faults, sp.faults);
        assert_eq!(back.o_ladder_max, sp.o_ladder_max);
        assert!(back.parallel);
        assert_eq!(back.shards, 3);
    }

    #[test]
    fn reserved_stream_params_slot_must_be_zero() {
        use rand::SeedableRng;
        let gp = GridParams::from_log_delta(4, 2);
        let params = CoresetParams::builder(2, gp).build().unwrap();
        let sp = StreamParams::default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let bytes = StreamCoresetBuilder::new(params.clone(), sp, &mut rng)
            .checkpoint()
            .unwrap()
            .to_bytes();
        // The 8-byte slot sits between `parallel` and `shards`, the last
        // two fields before `faults`.
        let sp_end = MAGIC.len() + 4 + to_bytes(&params).len() + to_bytes(&sp).len();
        let slot = sp_end - to_bytes(&sp.faults).len() - 8 - 8;
        assert_eq!(bytes[slot..slot + 8], [0; 8]);
        assert!(Snapshot::from_bytes(&bytes).is_ok());
        for v in [1u64, 4, u64::MAX] {
            let mut bad = bytes.clone();
            bad[slot..slot + 8].copy_from_slice(&v.to_le_bytes());
            assert_eq!(Snapshot::from_bytes(&bad), Err(CheckpointError::Malformed));
        }
    }

    #[test]
    fn header_is_checked() {
        assert_eq!(
            Snapshot::from_bytes(b"junk"),
            Err(CheckpointError::BadMagic)
        );
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        99u32.encode(&mut buf);
        assert_eq!(
            Snapshot::from_bytes(&buf),
            Err(CheckpointError::UnsupportedVersion { found: 99 })
        );
        let mut buf2 = Vec::new();
        buf2.extend_from_slice(&MAGIC);
        VERSION.encode(&mut buf2);
        assert_eq!(Snapshot::from_bytes(&buf2), Err(CheckpointError::Malformed));
    }

    #[test]
    fn grid_params_decode_validates() {
        // delta must equal 2^l.
        let mut buf = Vec::new();
        3u64.encode(&mut buf); // not a power of two
        2u32.encode(&mut buf);
        2usize.encode(&mut buf);
        let mut cursor = 0;
        assert!(GridParams::decode(&buf, &mut cursor).is_none());
    }
}
