//! Tracking allocator with scoped component attribution.
//!
//! The third observability pillar next to metrics and tracing: measured
//! memory truth. A [`TrackingAlloc`] installed as the `#[global_allocator]`
//! attributes every heap allocation to the [`Component`] whose scope was
//! active on the allocating thread, maintaining live bytes, peak bytes and
//! alloc/dealloc counts per component — plus an optional `(role, level)`
//! detail dimension tagged only on cold paths (store spawn, arena rebuild)
//! where the extra bookkeeping is free.
//!
//! # Attribution scheme
//!
//! Each allocation is padded with a deterministic header of
//! `layout.align().max(16)` bytes. The component tag and detail byte are
//! written into the last two padding bytes, so `dealloc` — which sees the
//! same `Layout` — recomputes the offset, reads the tag back, and credits
//! the *allocating* component even when the free happens on another thread
//! or outside any scope. Bookkeeping touches only static atomics and a
//! const-initialised thread-local `Cell`; it never allocates, so there is
//! no reentrancy.
//!
//! # The zero-cost contract
//!
//! Mirrors the metrics registry: with the `obs` cargo feature off (the
//! default, [`crate::COMPILED`] false), [`TrackingAlloc`] is an inline
//! passthrough to [`std::alloc::System`] with no header, scopes never
//! touch the scope cell, and nothing is ever recorded — `tests/off.rs`
//! pins this. With it on, the per-allocation cost is one thread-local
//! read, three byte stores and a handful of relaxed atomic RMWs (the
//! `obs_overhead` bench guards <1% on the ingest path).

use crate::COMPILED;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// Heap components the allocator can attribute to.
///
/// `Untagged` (the default outside any scope) collects everything not
/// claimed by a subsystem: stack-adjacent temporaries, test harness,
/// allocator-internal noise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Component {
    /// No scope active — unattributed allocations.
    Untagged = 0,
    /// Open-addressing arena tables (`sbc-hash`).
    Arena = 1,
    /// Sketch stores and ingest routing (`sbc-streaming`).
    Sketches = 2,
    /// Min-cost flow / transport solver scratch (`sbc-flow`).
    Flow = 3,
    /// Wire envelopes and encode buffers (`sbc-distributed`).
    Wire = 4,
    /// Checkpoint serialisation buffers.
    Checkpoint = 5,
    /// Clustering solvers (Lloyd, local search, k-means++).
    Clustering = 6,
}

/// Number of [`Component`] variants (size of per-component stat arrays).
pub const NUM_COMPONENTS: usize = 7;

/// Stable snake_case names, indexed by `Component as usize`.
pub const COMPONENT_NAMES: [&str; NUM_COMPONENTS] = [
    "untagged",
    "arena",
    "sketches",
    "flow",
    "wire",
    "checkpoint",
    "clustering",
];

impl Component {
    /// The component's stable snake_case name.
    pub fn name(self) -> &'static str {
        COMPONENT_NAMES[self as usize]
    }
}

/// One component's (or the process total's) attribution counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Bytes currently live (allocated minus freed).
    pub live_bytes: u64,
    /// High-water mark of `live_bytes`.
    pub peak_bytes: u64,
    /// Number of allocations attributed.
    pub allocs: u64,
    /// Number of deallocations attributed.
    pub deallocs: u64,
}

/// Attribution for one `(role, level)` detail slot (sketch stores tagged
/// at spawn/rebuild time; roles follow the store taxonomy 0 = h,
/// 1 = h′, 2 = ĥ; level −1 is the pre-level h store).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DetailStats {
    /// Store role (0 = h, 1 = h′, 2 = ĥ).
    pub role: u8,
    /// Store level (−1 for the pre-level h store).
    pub level: i32,
    /// Attribution counters for this slot.
    pub stats: AllocStats,
}

/// Point-in-time export of the allocator's attribution state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// True only when the `obs` feature is compiled in, the recording
    /// gate is open *and* a [`TrackingAlloc`] is installed as the global
    /// allocator (observed via its first allocation).
    pub tracking: bool,
    /// Process-wide totals across all components.
    pub total: AllocStats,
    /// Per-component counters, in [`COMPONENT_NAMES`] order (always all
    /// seven entries, zeroed when idle).
    pub components: Vec<(&'static str, AllocStats)>,
    /// Non-empty `(role, level)` detail slots, sorted by (role, level).
    pub details: Vec<DetailStats>,
}

impl AllocSnapshot {
    /// Counters for a component by name, if present.
    pub fn component(&self, name: &str) -> Option<AllocStats> {
        self.components
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| *s)
    }

    /// Serialises to a JSON value (stable field order).
    pub fn to_json(&self) -> crate::json::JsonValue {
        use crate::json::JsonValue;
        let components = JsonValue::Object(
            self.components
                .iter()
                .map(|(n, s)| {
                    (
                        (*n).to_string(),
                        JsonValue::object()
                            .field("live_bytes", s.live_bytes)
                            .field("peak_bytes", s.peak_bytes)
                            .field("allocs", s.allocs)
                            .field("deallocs", s.deallocs),
                    )
                })
                .collect(),
        );
        let details = JsonValue::Array(
            self.details
                .iter()
                .map(|d| {
                    JsonValue::object()
                        .field("role", u64::from(d.role))
                        .field("level", i64::from(d.level))
                        .field("live_bytes", d.stats.live_bytes)
                        .field("peak_bytes", d.stats.peak_bytes)
                        .field("allocs", d.stats.allocs)
                })
                .collect(),
        );
        JsonValue::object()
            .field("tracking", self.tracking)
            .field("live_bytes", self.total.live_bytes)
            .field("peak_bytes", self.total.peak_bytes)
            .field("allocs", self.total.allocs)
            .field("deallocs", self.total.deallocs)
            .field("components", components)
            .field("details", details)
    }
}

/// Detail byte 0 means "no detail"; otherwise `d - 1` packs
/// `role * 16 + (level + 1)` with level clamped to −1..=14.
const DETAIL_SLOTS: usize = 64;

struct Stat {
    live: AtomicU64,
    peak: AtomicU64,
    allocs: AtomicU64,
    deallocs: AtomicU64,
}

impl Stat {
    const fn new() -> Self {
        Stat {
            live: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            allocs: AtomicU64::new(0),
            deallocs: AtomicU64::new(0),
        }
    }

    #[inline]
    fn on_alloc(&self, size: u64) {
        let live = self.live.fetch_add(size, Relaxed) + size;
        // Plain load first: in steady state live sits below the
        // recorded peak, and the load is much cheaper than an
        // unconditional `fetch_max` (a CAS loop on most targets).
        if live > self.peak.load(Relaxed) {
            self.peak.fetch_max(live, Relaxed);
        }
        self.allocs.fetch_add(1, Relaxed);
    }

    #[inline]
    fn on_dealloc(&self, size: u64) {
        self.live.fetch_sub(size, Relaxed);
        self.deallocs.fetch_add(1, Relaxed);
    }

    fn read(&self) -> AllocStats {
        AllocStats {
            live_bytes: self.live.load(Relaxed),
            peak_bytes: self.peak.load(Relaxed),
            allocs: self.allocs.load(Relaxed),
            deallocs: self.deallocs.load(Relaxed),
        }
    }

    fn zero(&self) {
        self.live.store(0, Relaxed);
        self.peak.store(0, Relaxed);
        self.allocs.store(0, Relaxed);
        self.deallocs.store(0, Relaxed);
    }
}

#[allow(clippy::declare_interior_mutable_const)]
const STAT_INIT: Stat = Stat::new();
static TOTAL: Stat = Stat::new();
static COMPONENTS: [Stat; NUM_COMPONENTS] = [STAT_INIT; NUM_COMPONENTS];
static DETAILS: [Stat; DETAIL_SLOTS] = [STAT_INIT; DETAIL_SLOTS];
/// Set by the first allocation routed through a [`TrackingAlloc`];
/// proves attribution is actually in effect (the feature alone is
/// not enough — a binary must also install the allocator).
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// Runtime recording gate, mirroring the metrics/tracing pillars'
/// enabled-but-idle state: when closed, the alloc path pays one
/// relaxed load plus the header write and skips all bookkeeping.
/// Blocks carry a recorded flag in their header, so allocations
/// made while disabled are also skipped at dealloc and toggling
/// never unbalances the counters. Open by default — a binary that
/// installs the allocator under the `obs` feature wants attribution.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Opens or closes the recording gate (see [`ENABLED`]).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Whether allocations are being attributed: the `obs` feature is
/// compiled in and the recording gate is open.
#[inline(always)]
fn recording() -> bool {
    COMPILED && ENABLED.load(Relaxed)
}

thread_local! {
    /// `(component tag, detail byte)` for the active scope. Const
    /// init keeps first access allocation-free, which the alloc
    /// path depends on.
    static SCOPE: Cell<(u8, u8)> = const { Cell::new((0, 0)) };
}

#[inline]
fn current_scope() -> (u8, u8) {
    SCOPE.try_with(Cell::get).unwrap_or((0, 0))
}

/// RAII guard restoring the previous scope on drop.
#[must_use = "a scope guard attributes allocations until it drops"]
pub struct ScopeGuard {
    prev: (u8, u8),
}

impl Drop for ScopeGuard {
    #[inline]
    fn drop(&mut self) {
        if COMPILED {
            let _ = SCOPE.try_with(|c| c.set(self.prev));
        }
    }
}

#[inline]
fn enter(tag: u8, detail: u8) -> ScopeGuard {
    if !COMPILED {
        return ScopeGuard { prev: (0, 0) };
    }
    let prev = SCOPE
        .try_with(|c| c.replace((tag, detail)))
        .unwrap_or((0, 0));
    ScopeGuard { prev }
}

/// Attributes allocations on this thread to `c` until the guard drops.
#[inline]
pub fn scope(c: Component) -> ScopeGuard {
    enter(c as u8, 0)
}

/// Like [`scope`], additionally tagging a `(role, level)` detail slot.
/// Intended for cold paths only (store spawn, arena rebuild).
#[inline]
pub fn scope_detail(c: Component, role: u8, level: i32) -> ScopeGuard {
    enter(c as u8, encode_detail(role, level))
}

fn encode_detail(role: u8, level: i32) -> u8 {
    let role = role.min(2) as i32;
    let lvl = (level + 1).clamp(0, 15);
    (1 + role * 16 + lvl) as u8
}

fn decode_detail(d: u8) -> (u8, i32) {
    let packed = d - 1;
    (packed / 16, i32::from(packed % 16) - 1)
}

/// True when a [`TrackingAlloc`] has been observed handling
/// allocations in this process and the recording gate is open (never
/// without the `obs` feature).
#[inline]
pub fn tracking_active() -> bool {
    recording() && INSTALLED.load(Relaxed)
}

#[inline]
fn record_alloc(tag: u8, detail: u8, size: u64) {
    TOTAL.on_alloc(size);
    COMPONENTS[tag as usize % NUM_COMPONENTS].on_alloc(size);
    if detail != 0 {
        DETAILS[detail as usize % DETAIL_SLOTS].on_alloc(size);
    }
}

#[inline]
fn record_dealloc(tag: u8, detail: u8, size: u64) {
    TOTAL.on_dealloc(size);
    COMPONENTS[tag as usize % NUM_COMPONENTS].on_dealloc(size);
    if detail != 0 {
        DETAILS[detail as usize % DETAIL_SLOTS].on_dealloc(size);
    }
}

/// Measures one alloc/dealloc bookkeeping round trip without going
/// through the system allocator (bench hook, not public API).
/// Respects the recording gate like the real paths, so with the
/// gate closed this prices the enabled-but-idle state.
#[doc(hidden)]
pub fn __bench_record_pair(size: u64) {
    if !recording() {
        return;
    }
    let (tag, detail) = current_scope();
    record_alloc(tag, detail, size);
    record_dealloc(tag, detail, size);
}

/// The tracking allocator. Install with
/// `#[global_allocator] static A: TrackingAlloc = TrackingAlloc;`.
/// Without the `obs` feature every method forwards to [`System`]
/// unchanged, so installing it costs nothing.
pub struct TrackingAlloc;

/// Header padding prepended to every allocation: big enough for the
/// two tag bytes, and a multiple of every alignment up to 16 so the
/// user pointer stays aligned. For larger alignments the padding is
/// the alignment itself.
const MIN_HEADER: usize = 16;

#[inline]
fn header_for(layout: Layout) -> usize {
    layout.align().max(MIN_HEADER)
}

unsafe impl GlobalAlloc for TrackingAlloc {
    #[inline]
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !COMPILED {
            // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
            return unsafe { System.alloc(layout) };
        }
        if !INSTALLED.load(Relaxed) {
            INSTALLED.store(true, Relaxed);
        }
        let header = header_for(layout);
        let Some(size) = layout.size().checked_add(header) else {
            return std::ptr::null_mut();
        };
        // SAFETY: header is a non-zero multiple of align, so the
        // padded layout is valid whenever the caller's was.
        let raw = unsafe { System.alloc(Layout::from_size_align_unchecked(size, layout.align())) };
        if raw.is_null() {
            return raw;
        }
        let recording = recording();
        let (tag, detail) = if recording { current_scope() } else { (0, 0) };
        // SAFETY: header >= 16, so ptr-3 … ptr-1 are inside the pad.
        let ptr = unsafe { raw.add(header) };
        unsafe {
            ptr.sub(3).write(u8::from(recording));
            ptr.sub(2).write(tag);
            ptr.sub(1).write(detail);
        }
        if recording {
            record_alloc(tag, detail, layout.size() as u64);
        }
        ptr
    }

    #[inline]
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if !COMPILED {
            // SAFETY: `ptr` came from `System` via the passthrough `alloc`.
            return unsafe { System.dealloc(ptr, layout) };
        }
        let header = header_for(layout);
        // SAFETY: ptr came from our alloc with the same layout, so
        // the flag and tag bytes and the raw base are where we put
        // them. Only blocks recorded at alloc time are debited —
        // the counters stay balanced across gate toggles.
        unsafe {
            if ptr.sub(3).read() != 0 {
                let (tag, detail) = (ptr.sub(2).read(), ptr.sub(1).read());
                record_dealloc(tag, detail, layout.size() as u64);
            }
            System.dealloc(
                ptr.sub(header),
                Layout::from_size_align_unchecked(layout.size() + header, layout.align()),
            )
        }
    }

    #[inline]
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if !COMPILED {
            // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
            return unsafe { System.alloc_zeroed(layout) };
        }
        // SAFETY: the caller upholds `alloc`'s contract, and a non-null
        // block holds `layout.size()` writable bytes.
        let ptr = unsafe { self.alloc(layout) };
        if !ptr.is_null() {
            unsafe { ptr.write_bytes(0, layout.size()) };
        }
        ptr
    }

    #[inline]
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if !COMPILED {
            // SAFETY: `ptr` came from `System` via the passthrough
            // `alloc`; the caller upholds `realloc`'s contract.
            return unsafe { System.realloc(ptr, layout, new_size) };
        }
        // The default `GlobalAlloc::realloc`: a new block tagged with
        // the current scope, then the old one freed to its own tag.
        // SAFETY: the caller guarantees `new_size` rounded up to
        // `layout.align()` does not overflow, so the layout is valid.
        let new_layout = unsafe { Layout::from_size_align_unchecked(new_size, layout.align()) };
        let new_ptr = unsafe { self.alloc(new_layout) };
        if !new_ptr.is_null() {
            // SAFETY: both blocks are live, distinct and at least
            // `min(layout.size(), new_size)` bytes long; `ptr` came from
            // this allocator with `layout`.
            unsafe {
                std::ptr::copy_nonoverlapping(ptr, new_ptr, layout.size().min(new_size));
                self.dealloc(ptr, layout);
            }
        }
        new_ptr
    }
}

/// Reads the current attribution state.
pub fn snapshot() -> AllocSnapshot {
    // Read every counter into stack arrays BEFORE allocating the
    // output Vecs: a snapshot taken inside a component's own scope
    // must not observe its own allocations.
    let total = TOTAL.read();
    let mut comp = [AllocStats::default(); NUM_COMPONENTS];
    for (slot, stat) in comp.iter_mut().zip(COMPONENTS.iter()) {
        *slot = stat.read();
    }
    let mut det = [AllocStats::default(); DETAIL_SLOTS];
    for (slot, stat) in det.iter_mut().zip(DETAILS.iter()) {
        *slot = stat.read();
    }
    let components = comp
        .iter()
        .enumerate()
        .map(|(i, s)| (COMPONENT_NAMES[i], *s))
        .collect();
    let mut details = Vec::new();
    for (i, stats) in det.iter().enumerate().skip(1) {
        if stats.allocs > 0 {
            let (role, level) = decode_detail(i as u8);
            details.push(DetailStats {
                role,
                level,
                stats: *stats,
            });
        }
    }
    AllocSnapshot {
        tracking: tracking_active(),
        total,
        components,
        details,
    }
}

/// Zeroes all attribution counters (test hook; racy against live
/// allocation traffic, fine for sequential tests).
pub fn reset() {
    TOTAL.zero();
    for s in COMPONENTS.iter().chain(DETAILS.iter()) {
        s.zero();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_has_all_components_in_order() {
        let snap = snapshot();
        let names: Vec<&str> = snap.components.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, COMPONENT_NAMES);
        assert!(snap.component("arena").is_some());
        assert!(snap.component("no-such").is_none());
    }

    #[test]
    fn snapshot_json_shape_is_stable() {
        let s = snapshot().to_json().render();
        for key in [
            "tracking",
            "live_bytes",
            "peak_bytes",
            "allocs",
            "deallocs",
            "components",
            "details",
        ] {
            assert!(s.contains(&format!("\"{key}\"")), "missing {key} in {s}");
        }
        for name in COMPONENT_NAMES {
            assert!(s.contains(&format!("\"{name}\"")), "missing {name} in {s}");
        }
    }

    #[test]
    fn detail_codec_round_trips() {
        for role in 0u8..3 {
            for level in -1i32..15 {
                let d = encode_detail(role, level);
                assert_ne!(d, 0);
                assert!(d < 64);
            }
        }
        // Level saturates at 14 rather than bleeding into the next role.
        assert_eq!(
            encode_detail(0, 100),
            encode_detail(0, 14).max(encode_detail(0, 100))
        );
    }
}
