//! Flight recorder: a per-thread ring-buffer trace of typed, causally
//! tagged events, plus exporters for Chrome `trace_event` JSON
//! (loadable in Perfetto / `chrome://tracing`) and folded-stack text
//! (flamegraph input), and fault-triggered crash dumps.
//!
//! The recorder follows the same zero-cost contract as the metrics
//! registry in this crate: with the `obs` cargo feature **off**
//! ([`crate::COMPILED`] false) every recording call returns before it
//! reads the clock or touches a ring, and no crash directory can be
//! set; with it **on**, recording is further gated behind a runtime flag
//! ([`set_enabled`]) that is independent of the metrics flag, so a
//! binary can collect counters without paying for a timeline (or vice
//! versa).
//!
//! ## Recording model
//!
//! Each thread owns a fixed-capacity ring buffer ([`set_capacity`],
//! default 64Ki events) that it appends to without contending with any
//! other recording thread — the only writer to a ring is its owner;
//! the per-ring lock exists solely so [`snapshot`] can read rings from
//! the exporter thread. When a ring is full the oldest events are
//! overwritten (and counted in [`TraceSnapshot::dropped`]): the
//! recorder is a *flight recorder*, always holding the most recent
//! window, never blocking or reallocating on the hot path.
//!
//! Every event carries:
//!
//! * a process-wide sequence number (total order across threads),
//! * a monotonic tick in nanoseconds since the first recorded event,
//! * a [`TraceKind`] and a `&'static str` label,
//! * [`CausalIds`] — the stream op index, store id (the ladder salt),
//!   `(level, role)` position, and machine id for distributed runs —
//!   with unset fields elided from every export,
//! * one free `u64` argument (batch size, update index, byte count…).
//!
//! ## Crash dumps
//!
//! With a crash directory configured ([`set_crash_dir`]), recording a
//! [`TraceKind::Fault`] or [`TraceKind::StoreKill`] event writes
//! `crash-<label>.json` (once per label per process) containing the
//! last-N events across all threads — the causal window leading up to
//! the fault. [`crash_dump_now`] does the same on demand from error
//! paths.

use crate::json::JsonValue;
use crate::COMPILED;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default ring capacity per thread, in events.
pub const DEFAULT_CAPACITY: usize = 64 * 1024;

/// Default number of trailing events included in a crash report.
pub const DEFAULT_CRASH_EVENTS: usize = 256;

/// What an event marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// Opening edge of a timed span (paired with [`TraceKind::SpanEnd`]).
    SpanBegin,
    /// Closing edge of a timed span.
    SpanEnd,
    /// A point event with no duration.
    Instant,
    /// An injected or organic fault firing (triggers crash dumps).
    Fault,
    /// A `Storing` summary structure coming to life.
    StoreSpawn,
    /// A `Storing` dying — label carries the kill taxonomy
    /// (`runaway_kill` / `sketch_overflow`); triggers crash dumps.
    StoreKill,
    /// A checkpoint cut: everything before this op index is on disk.
    Checkpoint,
    /// A restore cut: the run resumes from this op index.
    Restore,
    /// A merge-tree node folding two shard builders into one; `arg`
    /// carries the merged node's depth.
    Merge,
}

impl TraceKind {
    /// Stable lowercase name used in every export.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceKind::SpanBegin => "span_begin",
            TraceKind::SpanEnd => "span_end",
            TraceKind::Instant => "instant",
            TraceKind::Fault => "fault",
            TraceKind::StoreSpawn => "store_spawn",
            TraceKind::StoreKill => "store_kill",
            TraceKind::Checkpoint => "checkpoint",
            TraceKind::Restore => "restore",
            TraceKind::Merge => "merge",
        }
    }
}

/// Role codes for the `(level, role)` causal tag — the three `Storing`
/// families of Algorithm 4, numbered exactly like the ladder salts.
pub mod role {
    /// The h family (levels −1..L−1, rate ψᵢ).
    pub const H: u8 = 0;
    /// The h′ family (levels 0..L, rate ψ′ᵢ).
    pub const HP: u8 = 1;
    /// The ĥ family (levels 0..L, rate φᵢ).
    pub const HHAT: u8 = 2;
    /// No role tag.
    pub const NONE: u8 = 255;

    /// Stable name for a role code.
    pub fn name(r: u8) -> &'static str {
        match r {
            H => "h",
            HP => "hp",
            HHAT => "hhat",
            _ => "none",
        }
    }
}

/// Causal tags attached to every event. Unset fields hold sentinel
/// values and are elided from exports; build values fluently:
///
/// ```
/// use sbc_obs::trace::{role, CausalIds};
/// let ids = CausalIds::NONE.op(4096).at(3, role::HP);
/// assert_eq!(ids.level, 3);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CausalIds {
    /// Global stream op index (survives checkpoint/restore). Unset: `u64::MAX`.
    pub op_index: u64,
    /// Store identity — the ladder salt `store_salt(o, role, idx)`. Unset: `0`.
    pub store_id: u64,
    /// Ladder level (may be −1 for the lowest h level). Unset: `i16::MIN`.
    pub level: i16,
    /// Role code (see [`role`]). Unset: [`role::NONE`].
    pub role: u8,
    /// Machine index in a distributed run. Unset: `u16::MAX`.
    pub machine: u16,
}

impl CausalIds {
    /// All fields unset.
    pub const NONE: CausalIds = CausalIds {
        op_index: u64::MAX,
        store_id: 0,
        level: i16::MIN,
        role: role::NONE,
        machine: u16::MAX,
    };

    /// Tags the global stream op index.
    #[must_use]
    pub fn op(mut self, idx: u64) -> Self {
        self.op_index = idx;
        self
    }

    /// Tags the store identity (ladder salt).
    #[must_use]
    pub fn store(mut self, id: u64) -> Self {
        self.store_id = id;
        self
    }

    /// Tags the `(level, role)` ladder position.
    #[must_use]
    pub fn at(mut self, level: i16, role: u8) -> Self {
        self.level = level;
        self.role = role;
        self
    }

    /// Tags the machine index of a distributed run.
    #[must_use]
    pub fn on_machine(mut self, m: u16) -> Self {
        self.machine = m;
        self
    }
}

impl Default for CausalIds {
    fn default() -> Self {
        CausalIds::NONE
    }
}

/// One recorded event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceRecord {
    /// Process-wide sequence number (total order across threads).
    pub seq: u64,
    /// Monotonic nanoseconds since the process's first recorded event.
    pub tick_ns: u64,
    /// Event kind.
    pub kind: TraceKind,
    /// Static label (dot-separated site name or kill-taxonomy name).
    pub label: &'static str,
    /// Causal tags.
    pub ids: CausalIds,
    /// Free argument (batch size, update index, byte count, …).
    pub arg: u64,
}

/// The events one thread recorded, oldest first.
#[derive(Clone, Debug, Default)]
pub struct ThreadTrace {
    /// Recorder-assigned thread id (0 = first recording thread).
    pub tid: u64,
    /// Events in recording order.
    pub events: Vec<TraceRecord>,
}

/// A point-in-time copy of every thread's ring.
#[derive(Clone, Debug, Default)]
pub struct TraceSnapshot {
    /// Whether the `obs` feature was compiled in.
    pub feature_enabled: bool,
    /// Ring capacity (events per thread) at snapshot time.
    pub capacity: usize,
    /// Events overwritten by ring wrap-around, summed over threads.
    pub dropped: u64,
    /// Per-thread traces, ordered by `tid`.
    pub threads: Vec<ThreadTrace>,
}

impl TraceSnapshot {
    /// Total events captured across all threads.
    pub fn total_events(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }

    /// All events merged across threads in sequence order, each paired
    /// with its thread id.
    pub fn merged(&self) -> Vec<(u64, TraceRecord)> {
        let mut all: Vec<(u64, TraceRecord)> = self
            .threads
            .iter()
            .flat_map(|t| t.events.iter().map(move |e| (t.tid, *e)))
            .collect();
        all.sort_by_key(|(_, e)| e.seq);
        all
    }

    /// The last `n` events in sequence order (the crash window).
    pub fn last_n(&self, n: usize) -> Vec<(u64, TraceRecord)> {
        let mut all = self.merged();
        let start = all.len().saturating_sub(n);
        all.split_off(start)
    }
}

/// Appends the set causal ids of `ids` to `o`, eliding unset fields;
/// `store_id` renders as a hex string (64-bit salts exceed the
/// f64-safe integer range).
fn causal_fields(mut o: JsonValue, ids: &CausalIds) -> JsonValue {
    if ids.op_index != u64::MAX {
        o = o.field("op_index", ids.op_index);
    }
    if ids.store_id != 0 {
        o = o.field("store_id", format!("{:#018x}", ids.store_id));
    }
    if ids.level != i16::MIN {
        o = o.field("level", ids.level as i64);
    }
    if ids.role != role::NONE {
        o = o.field("role", role::name(ids.role));
    }
    if ids.machine != u16::MAX {
        o = o.field("machine", ids.machine as u64);
    }
    o
}

/// JSON form of one event in a crash report.
fn record_json(tid: u64, e: &TraceRecord) -> JsonValue {
    let o = JsonValue::object()
        .field("seq", e.seq)
        .field("tick_ns", e.tick_ns)
        .field("thread", tid)
        .field("kind", e.kind.as_str())
        .field("label", e.label);
    causal_fields(o, &e.ids).field("arg", e.arg)
}

/// Causal-id `args` payload for a Chrome event (no seq/kind duplication
/// beyond what Perfetto needs to group slices).
fn chrome_args(e: &TraceRecord) -> JsonValue {
    causal_fields(
        JsonValue::object().field("seq", e.seq).field("arg", e.arg),
        &e.ids,
    )
}

fn chrome_event(ph: &str, name: &str, tid: u64, ts_ns: u64, args: JsonValue) -> JsonValue {
    let mut o = JsonValue::object()
        .field("ph", ph)
        .field("name", name)
        .field("cat", "sbc")
        .field("pid", 0u64)
        .field("tid", tid)
        .field("ts", ts_ns as f64 / 1000.0);
    if ph == "i" {
        o = o.field("s", "t"); // thread-scoped instant
    }
    o.field("args", args)
}

/// Exports a snapshot as Chrome `trace_event` JSON (the "JSON object
/// format": `{"traceEvents": [...]}`), loadable in Perfetto or
/// `chrome://tracing`.
///
/// Ring wrap-around can truncate a thread's history mid-span; the
/// exporter repairs this so viewers accept the file: span-end events
/// whose begin was overwritten are dropped, and spans still open at
/// the end of the capture are closed at the thread's final tick. Spans
/// therefore nest perfectly per thread in the output.
pub fn chrome_trace(snap: &TraceSnapshot) -> JsonValue {
    let mut events: Vec<JsonValue> = Vec::with_capacity(snap.total_events() + 8);
    events.push(
        JsonValue::object()
            .field("ph", "M")
            .field("name", "process_name")
            .field("pid", 0u64)
            .field("tid", 0u64)
            .field("args", JsonValue::object().field("name", "sbc")),
    );
    for th in &snap.threads {
        events.push(
            JsonValue::object()
                .field("ph", "M")
                .field("name", "thread_name")
                .field("pid", 0u64)
                .field("tid", th.tid)
                .field(
                    "args",
                    JsonValue::object().field("name", format!("sbc-thread-{}", th.tid)),
                ),
        );
        let last_tick = th.events.last().map_or(0, |e| e.tick_ns);
        let mut open: Vec<&TraceRecord> = Vec::new();
        for e in &th.events {
            match e.kind {
                TraceKind::SpanBegin => {
                    open.push(e);
                    events.push(chrome_event(
                        "B",
                        e.label,
                        th.tid,
                        e.tick_ns,
                        chrome_args(e),
                    ));
                }
                TraceKind::SpanEnd => {
                    // An end whose begin was evicted by ring wrap has no
                    // slice to close — drop it.
                    if open.pop().is_none() {
                        continue;
                    }
                    events.push(chrome_event(
                        "E",
                        e.label,
                        th.tid,
                        e.tick_ns,
                        chrome_args(e),
                    ));
                }
                _ => {
                    let name = match e.kind {
                        TraceKind::Instant => e.label.to_string(),
                        _ => format!("{}:{}", e.kind.as_str(), e.label),
                    };
                    events.push(chrome_event("i", &name, th.tid, e.tick_ns, chrome_args(e)));
                }
            }
        }
        // Close spans that were still open at capture time, innermost
        // first, at the thread's final tick.
        while let Some(b) = open.pop() {
            events.push(chrome_event(
                "E",
                b.label,
                th.tid,
                last_tick,
                JsonValue::object().field("synthesized", true),
            ));
        }
    }
    JsonValue::object()
        .field("traceEvents", events)
        .field("displayTimeUnit", "ms")
}

/// Exports a snapshot as folded-stack text — one
/// `thread<tid>;outer;inner <exclusive_ns>` line per distinct stack,
/// ready for `flamegraph.pl` or speedscope. Instants contribute no
/// weight; wrap-orphaned span ends are dropped and still-open spans
/// are closed at the thread's final tick, mirroring [`chrome_trace`].
pub fn folded_stacks(snap: &TraceSnapshot) -> String {
    use std::collections::BTreeMap;
    let mut agg: BTreeMap<String, u64> = BTreeMap::new();
    for th in &snap.threads {
        // (label, begin tick, time attributed to children)
        let mut stack: Vec<(&'static str, u64, u64)> = Vec::new();
        let last_tick = th.events.last().map_or(0, |e| e.tick_ns);
        let mut close = |stack: &mut Vec<(&'static str, u64, u64)>, end_tick: u64| {
            if let Some((label, t0, child_ns)) = stack.pop() {
                let total = end_tick.saturating_sub(t0);
                let exclusive = total.saturating_sub(child_ns);
                if let Some(parent) = stack.last_mut() {
                    parent.2 += total;
                }
                let mut key = format!("thread{}", th.tid);
                for (l, _, _) in stack.iter() {
                    key.push(';');
                    key.push_str(l);
                }
                key.push(';');
                key.push_str(label);
                *agg.entry(key).or_insert(0) += exclusive;
            }
        };
        for e in &th.events {
            match e.kind {
                TraceKind::SpanBegin => stack.push((e.label, e.tick_ns, 0)),
                TraceKind::SpanEnd => close(&mut stack, e.tick_ns),
                _ => {}
            }
        }
        while !stack.is_empty() {
            close(&mut stack, last_tick);
        }
    }
    let mut out = String::new();
    for (key, ns) in agg {
        out.push_str(&key);
        out.push(' ');
        out.push_str(&ns.to_string());
        out.push('\n');
    }
    out
}

/// Builds a crash report: the `reason`, recorder state, and the last
/// `last_n` events across all threads in sequence order.
pub fn crash_report(snap: &TraceSnapshot, reason: &str, last_n: usize) -> JsonValue {
    let events: Vec<JsonValue> = snap
        .last_n(last_n)
        .iter()
        .map(|(tid, e)| record_json(*tid, e))
        .collect();
    JsonValue::object()
        .field("reason", reason)
        .field("generated_at", crate::iso8601_utc_now())
        .field("feature_enabled", snap.feature_enabled)
        .field("capacity", snap.capacity as u64)
        .field("dropped", snap.dropped)
        .field("total_events", snap.total_events() as u64)
        .field("events", events)
}

// ---------------------------------------------------------------------
// Recording.
// ---------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static SEQ: AtomicU64 = AtomicU64::new(0);
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

struct Ring {
    tid: u64,
    buf: Vec<TraceRecord>,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    /// Total events ever written to this ring.
    written: u64,
}

impl Ring {
    fn push(&mut self, rec: TraceRecord) {
        let cap = CAPACITY.load(Ordering::Relaxed).max(1);
        if self.buf.len() < cap {
            self.buf.push(rec);
        } else {
            let n = self.buf.len();
            self.buf[self.head % n] = rec;
            self.head = (self.head + 1) % n;
        }
        self.written += 1;
    }

    fn ordered(&self) -> Vec<TraceRecord> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

type SharedRing = Arc<Mutex<Ring>>;

fn registry() -> &'static Mutex<Vec<SharedRing>> {
    static REGISTRY: OnceLock<Mutex<Vec<SharedRing>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn crash_dir() -> &'static Mutex<Option<PathBuf>> {
    static DIR: OnceLock<Mutex<Option<PathBuf>>> = OnceLock::new();
    DIR.get_or_init(|| Mutex::new(None))
}

fn dumped_labels() -> &'static Mutex<Vec<&'static str>> {
    static DUMPED: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    DUMPED.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL_RING: std::cell::OnceCell<SharedRing> =
        const { std::cell::OnceCell::new() };
}

fn register_ring() -> SharedRing {
    let ring = Arc::new(Mutex::new(Ring {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        buf: Vec::new(),
        head: 0,
        written: 0,
    }));
    registry().lock().unwrap().push(Arc::clone(&ring));
    ring
}

/// Whether trace recording is currently on (feature compiled in
/// **and** runtime flag set). One relaxed load — safe to call on
/// hot paths.
#[inline(always)]
pub fn enabled() -> bool {
    COMPILED && ENABLED.load(Ordering::Relaxed)
}

/// Turns trace recording on or off at runtime. Independent of the
/// metrics flag (`sbc_obs::set_enabled`).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Current per-thread ring capacity, in events (0 without the `obs`
/// feature: no ring can ever hold an event).
pub fn capacity() -> usize {
    if COMPILED {
        CAPACITY.load(Ordering::Relaxed)
    } else {
        0
    }
}

/// Sets the per-thread ring capacity and clears all rings (the new
/// capacity applies to events recorded from now on).
pub fn set_capacity(events: usize) {
    CAPACITY.store(events.max(1), Ordering::Relaxed);
    reset();
}

/// Clears every ring and restarts the sequence counter. Rings stay
/// registered to their threads.
pub fn reset() {
    for ring in registry().lock().unwrap().iter() {
        let mut r = ring.lock().unwrap();
        r.buf.clear();
        r.head = 0;
        r.written = 0;
    }
    SEQ.store(0, Ordering::Relaxed);
}

/// Records one event on the calling thread's ring. No-op unless
/// [`enabled`]. `Fault` and `StoreKill` events additionally trigger
/// a crash dump when a crash directory is configured.
#[inline]
pub fn event(kind: TraceKind, label: &'static str, ids: CausalIds, arg: u64) {
    if !enabled() {
        return;
    }
    let rec = TraceRecord {
        seq: SEQ.fetch_add(1, Ordering::Relaxed),
        tick_ns: epoch().elapsed().as_nanos() as u64,
        kind,
        label,
        ids,
        arg,
    };
    LOCAL_RING.with(|cell| {
        let ring = cell.get_or_init(register_ring);
        ring.lock().unwrap().push(rec);
    });
    if matches!(kind, TraceKind::Fault | TraceKind::StoreKill) {
        maybe_crash_dump(label);
    }
}

/// Records a point event.
#[inline]
pub fn instant(label: &'static str, ids: CausalIds, arg: u64) {
    event(TraceKind::Instant, label, ids, arg);
}

/// RAII span guard: records `SpanBegin` on creation (when recording
/// is enabled) and the matching `SpanEnd` on drop.
#[must_use = "a span records its end when dropped"]
pub struct TraceSpan {
    label: &'static str,
    ids: CausalIds,
    armed: bool,
}

/// Opens a span; the returned guard closes it on drop. `arg` lands
/// on the begin event (e.g. a batch size).
#[inline]
pub fn span(label: &'static str, ids: CausalIds, arg: u64) -> TraceSpan {
    let armed = enabled();
    if armed {
        event(TraceKind::SpanBegin, label, ids, arg);
    }
    TraceSpan { label, ids, armed }
}

impl Drop for TraceSpan {
    #[inline]
    fn drop(&mut self) {
        if self.armed {
            event(TraceKind::SpanEnd, self.label, self.ids, 0);
        }
    }
}

/// Copies every thread's ring into a [`TraceSnapshot`] (threads
/// ordered by tid, events oldest-first within each).
pub fn snapshot() -> TraceSnapshot {
    let mut threads: Vec<ThreadTrace> = Vec::new();
    let mut dropped = 0u64;
    for ring in registry().lock().unwrap().iter() {
        let r = ring.lock().unwrap();
        dropped += r.written - r.buf.len() as u64;
        threads.push(ThreadTrace {
            tid: r.tid,
            events: r.ordered(),
        });
    }
    threads.sort_by_key(|t| t.tid);
    TraceSnapshot {
        feature_enabled: COMPILED,
        capacity: capacity(),
        dropped,
        threads,
    }
}

/// Configures (or clears) the directory fault-triggered crash dumps
/// are written to. Without the `obs` feature no directory is ever set,
/// so nothing is written.
pub fn set_crash_dir(dir: Option<PathBuf>) {
    *crash_dir().lock().unwrap() = dir.filter(|_| COMPILED);
    dumped_labels().lock().unwrap().clear();
}

/// Writes `crash-<label>.json` to the configured crash directory
/// (if any) with the given reason and the last
/// [`DEFAULT_CRASH_EVENTS`] events. Returns `true` if a file was
/// written. Unlike the automatic fault-triggered dumps this is not
/// deduplicated per label.
pub fn crash_dump_now(label: &str, reason: &str) -> bool {
    let Some(dir) = crash_dir().lock().unwrap().clone() else {
        return false;
    };
    write_crash(&dir, label, reason)
}

/// Writes `<stem>.json` to the configured crash directory (if any)
/// with the given reason and the last [`DEFAULT_CRASH_EVENTS`]
/// events. Unlike [`crash_dump_now`] the stem is used verbatim
/// (after sanitizing to `[A-Za-z0-9_-]`, so slow-request stems like
/// `slow-7-42` keep their hyphens) with no `crash-` prefix, and the
/// dump is never deduplicated. Returns `true` if a file was written.
pub fn dump_named(stem: &str, reason: &str) -> bool {
    let Some(dir) = crash_dir().lock().unwrap().clone() else {
        return false;
    };
    let snap = snapshot();
    let report = crash_report(&snap, reason, DEFAULT_CRASH_EVENTS);
    let sanitized: String = stem
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    let path = dir.join(format!("{sanitized}.json"));
    std::fs::write(&path, report.render_pretty()).is_ok()
}

/// Fault-triggered dump: first firing per label only, so a chaos
/// profile killing dozens of stores leaves one representative dump
/// per taxonomy instead of flooding the directory.
fn maybe_crash_dump(label: &'static str) {
    let Some(dir) = crash_dir().lock().unwrap().clone() else {
        return;
    };
    {
        let mut dumped = dumped_labels().lock().unwrap();
        if dumped.contains(&label) {
            return;
        }
        dumped.push(label);
    }
    write_crash(&dir, label, &format!("fault event `{label}` fired"));
}

fn write_crash(dir: &std::path::Path, label: &str, reason: &str) -> bool {
    let snap = snapshot();
    let report = crash_report(&snap, reason, DEFAULT_CRASH_EVENTS);
    let sanitized: String = label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    let path = dir.join(format!("crash-{sanitized}.json"));
    std::fs::write(&path, report.render_pretty()).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, tick: u64, kind: TraceKind, label: &'static str) -> TraceRecord {
        TraceRecord {
            seq,
            tick_ns: tick,
            kind,
            label,
            ids: CausalIds::NONE,
            arg: 0,
        }
    }

    fn snap_of(events: Vec<TraceRecord>) -> TraceSnapshot {
        TraceSnapshot {
            feature_enabled: true,
            capacity: 1024,
            dropped: 0,
            threads: vec![ThreadTrace { tid: 0, events }],
        }
    }

    #[test]
    fn chrome_export_repairs_wrapped_spans() {
        // An orphan end (begin evicted) followed by an unclosed begin.
        let snap = snap_of(vec![
            rec(0, 10, TraceKind::SpanEnd, "evicted"),
            rec(1, 20, TraceKind::SpanBegin, "outer"),
            rec(2, 30, TraceKind::Instant, "tick"),
        ]);
        let json = chrome_trace(&snap).to_string();
        assert!(!json.contains("evicted"), "orphan end must be dropped");
        // Balanced: one B and one synthesized E for `outer`.
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 1);
        assert!(json.contains("\"synthesized\":true"));
    }

    #[test]
    fn folded_stacks_attributes_exclusive_time() {
        let snap = snap_of(vec![
            rec(0, 0, TraceKind::SpanBegin, "outer"),
            rec(1, 100, TraceKind::SpanBegin, "inner"),
            rec(2, 400, TraceKind::SpanEnd, "inner"),
            rec(3, 1000, TraceKind::SpanEnd, "outer"),
        ]);
        let folded = folded_stacks(&snap);
        assert!(folded.contains("thread0;outer;inner 300\n"), "{folded}");
        assert!(folded.contains("thread0;outer 700\n"), "{folded}");
    }

    #[test]
    fn crash_report_keeps_only_the_tail() {
        let events: Vec<TraceRecord> = (0..10)
            .map(|i| rec(i, i, TraceKind::Instant, "e"))
            .collect();
        let report = crash_report(&snap_of(events), "test reason", 3);
        let text = report.to_string();
        assert!(text.contains("\"reason\":\"test reason\""));
        assert!(text.contains("\"total_events\":10"));
        assert_eq!(text.matches("\"kind\":\"instant\"").count(), 3);
        assert!(text.contains("\"seq\":9"));
        assert!(!text.contains("\"seq\":6"));
    }

    #[test]
    fn causal_ids_elide_unset_fields() {
        let tagged = rec(0, 0, TraceKind::Instant, "t");
        let none = record_json(0, &tagged).to_string();
        assert!(!none.contains("op_index"));
        assert!(!none.contains("store_id"));
        assert!(!none.contains("level"));
        assert!(!none.contains("machine"));
        let mut full = tagged;
        full.ids = CausalIds::NONE
            .op(7)
            .store(0xdead_beef)
            .at(-1, role::H)
            .on_machine(3);
        let text = record_json(0, &full).to_string();
        assert!(text.contains("\"op_index\":7"));
        assert!(text.contains("\"store_id\":\"0x00000000deadbeef\""));
        assert!(text.contains("\"level\":-1"));
        assert!(text.contains("\"role\":\"h\""));
        assert!(text.contains("\"machine\":3"));
    }

    #[cfg(feature = "obs")]
    mod recording {
        use super::*;
        use std::sync::Mutex;

        /// The recorder is process-global; serialize tests touching it.
        static GUARD: Mutex<()> = Mutex::new(());

        #[test]
        fn records_wraps_and_snapshots() {
            let _g = GUARD.lock().unwrap();
            set_capacity(4);
            set_enabled(true);
            for i in 0..10u64 {
                instant("wrap.test", CausalIds::NONE.op(i), i);
            }
            set_enabled(false);
            let snap = snapshot();
            let mine: Vec<_> = snap
                .merged()
                .into_iter()
                .filter(|(_, e)| e.label == "wrap.test")
                .collect();
            assert_eq!(mine.len(), 4, "ring keeps the newest `capacity` events");
            let args: Vec<u64> = mine.iter().map(|(_, e)| e.arg).collect();
            assert_eq!(args, vec![6, 7, 8, 9], "oldest evicted first");
            assert!(snap.dropped >= 6);
            // Ticks are monotone within the thread.
            let ticks: Vec<u64> = mine.iter().map(|(_, e)| e.tick_ns).collect();
            let mut sorted = ticks.clone();
            sorted.sort_unstable();
            assert_eq!(ticks, sorted);
            set_capacity(DEFAULT_CAPACITY);
        }

        #[test]
        fn spans_pair_and_disabled_records_nothing() {
            let _g = GUARD.lock().unwrap();
            set_capacity(1024);
            set_enabled(false);
            {
                let _s = span("quiet", CausalIds::NONE, 0);
                instant("quiet.i", CausalIds::NONE, 0);
            }
            assert_eq!(snapshot().total_events(), 0);

            set_enabled(true);
            {
                let _s = span("loud", CausalIds::NONE, 42);
                instant("loud.i", CausalIds::NONE, 1);
            }
            set_enabled(false);
            let events = snapshot().merged();
            let kinds: Vec<TraceKind> = events.iter().map(|(_, e)| e.kind).collect();
            assert_eq!(
                kinds,
                vec![TraceKind::SpanBegin, TraceKind::Instant, TraceKind::SpanEnd]
            );
            assert_eq!(events[0].1.arg, 42);
            set_capacity(DEFAULT_CAPACITY);
        }

        #[test]
        fn crash_dump_writes_once_per_label() {
            let _g = GUARD.lock().unwrap();
            let dir = std::env::temp_dir().join(format!("sbc-trace-test-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            set_capacity(1024);
            set_enabled(true);
            set_crash_dir(Some(dir.clone()));
            event(TraceKind::Fault, "test_kill", CausalIds::NONE.store(5), 64);
            event(TraceKind::Fault, "test_kill", CausalIds::NONE.store(6), 64);
            set_crash_dir(None);
            set_enabled(false);
            let path = dir.join("crash-test_kill.json");
            let text = std::fs::read_to_string(&path).expect("dump written");
            assert!(text.contains("fault event `test_kill` fired"));
            assert!(text.contains("\"kind\": \"fault\""));
            // Deduplicated: the second firing did not grow the file to
            // contain two reasons; just sanity-check it parses back.
            let parsed = crate::json::JsonValue::parse(&text).expect("valid JSON");
            assert!(parsed.get("events").is_some());
            std::fs::remove_dir_all(&dir).ok();
            set_capacity(DEFAULT_CAPACITY);
        }
    }
}
