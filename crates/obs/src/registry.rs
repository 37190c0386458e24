//! The metrics registry.
//!
//! Handles are `&'static` references into leaked allocations interned
//! by name in a global registry; recording is lock-free (relaxed
//! atomics) and additionally gated by a process-wide enable flag so an
//! instrumented binary can run idle at effectively zero cost. Without
//! the `obs` feature nothing is interned: every handle points at a
//! shared sink that recording never reaches.

use crate::{bucket_index, bucket_upper_bound, HistogramSnapshot, MetricsSnapshot, COMPILED};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

struct Registry {
    counters: Mutex<BTreeMap<String, &'static CounterInner>>,
    histograms: Mutex<BTreeMap<String, &'static HistogramInner>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(BTreeMap::new()),
        histograms: Mutex::new(BTreeMap::new()),
    })
}

/// Turns recording on or off process-wide (default: off).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether recording is currently on: the `obs` feature is compiled in
/// ([`COMPILED`]) and the runtime flag is set.
#[inline(always)]
pub fn enabled() -> bool {
    COMPILED && ENABLED.load(Ordering::Relaxed)
}

pub(crate) struct CounterInner {
    value: AtomicU64,
}

impl CounterInner {
    const fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }
}

/// The handle every counter resolves to without the `obs` feature.
static SINK_COUNTER: CounterInner = CounterInner::new();

/// The handle every histogram resolves to without the `obs` feature.
static SINK_HISTOGRAM: HistogramInner = HistogramInner::new();

/// A monotonic counter handle (copyable, `'static`).
#[derive(Clone, Copy)]
pub struct Counter(&'static CounterInner);

impl Counter {
    /// Adds `n` (no-op while recording is disabled).
    #[inline(always)]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.0.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1.
    #[inline(always)]
    pub fn incr(&self) {
        self.add(1);
    }
}

pub(crate) struct HistogramInner {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; 65],
}

impl HistogramInner {
    const fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; 65],
        }
    }
}

/// A power-of-two-bucket histogram handle (copyable, `'static`).
#[derive(Clone, Copy)]
pub struct Histogram(&'static HistogramInner);

impl Histogram {
    /// Records one value (no-op while recording is disabled).
    #[inline(always)]
    pub fn record(&self, v: u64) {
        if enabled() {
            self.0.count.fetch_add(1, Ordering::Relaxed);
            self.0.sum.fetch_add(v, Ordering::Relaxed);
            self.0.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Interns a counter by name (idempotent; the slow path — cache the
/// returned handle, or use the [`crate::counter!`] macro which does).
/// Without the `obs` feature it interns nothing and returns the sink.
pub fn counter(name: &str) -> Counter {
    if !COMPILED {
        return Counter(&SINK_COUNTER);
    }
    let mut map = registry().counters.lock().expect("obs registry poisoned");
    if let Some(inner) = map.get(name) {
        return Counter(inner);
    }
    let inner: &'static CounterInner = Box::leak(Box::new(CounterInner::new()));
    map.insert(name.to_string(), inner);
    Counter(inner)
}

/// Interns a histogram by name (idempotent, slow path). Without the
/// `obs` feature it interns nothing and returns the sink.
pub fn histogram(name: &str) -> Histogram {
    if !COMPILED {
        return Histogram(&SINK_HISTOGRAM);
    }
    let mut map = registry().histograms.lock().expect("obs registry poisoned");
    if let Some(inner) = map.get(name) {
        return Histogram(inner);
    }
    let inner: &'static HistogramInner = Box::leak(Box::new(HistogramInner::new()));
    map.insert(name.to_string(), inner);
    Histogram(inner)
}

/// Call-site cache for [`counter`], used by the [`crate::counter!`] macro.
pub struct LazyCounter {
    name: &'static str,
    cell: OnceLock<Counter>,
}

impl LazyCounter {
    /// Const constructor (interning is deferred to first use).
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The interned handle (the sink, without touching the cache,
    /// when the `obs` feature is off).
    #[inline]
    pub fn get(&self) -> Counter {
        if !COMPILED {
            return Counter(&SINK_COUNTER);
        }
        *self.cell.get_or_init(|| counter(self.name))
    }
}

/// Call-site cache for [`histogram`], used by [`crate::histogram!`].
pub struct LazyHistogram {
    name: &'static str,
    cell: OnceLock<Histogram>,
}

impl LazyHistogram {
    /// Const constructor (interning is deferred to first use).
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The interned handle (the sink, without touching the cache,
    /// when the `obs` feature is off).
    #[inline]
    pub fn get(&self) -> Histogram {
        if !COMPILED {
            return Histogram(&SINK_HISTOGRAM);
        }
        *self.cell.get_or_init(|| histogram(self.name))
    }
}

/// RAII span: records elapsed nanoseconds into a histogram on drop.
///
/// The clock is only read when recording is enabled at both ends of the
/// span, so an idle binary never touches `Instant`.
#[must_use = "a span records on drop; binding it to _ ends it immediately"]
pub struct SpanTimer {
    target: Histogram,
    start: Option<Instant>,
}

impl SpanTimer {
    /// Starts a span targeting `h`.
    #[inline]
    pub fn start(h: Histogram) -> Self {
        Self {
            target: h,
            start: enabled().then(Instant::now),
        }
    }
}

impl Drop for SpanTimer {
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            self.target.record(ns);
        }
    }
}

/// Zeroes every registered metric (names stay registered).
pub fn reset() {
    let reg = registry();
    for inner in reg.counters.lock().expect("obs registry").values() {
        inner.value.store(0, Ordering::Relaxed);
    }
    for inner in reg.histograms.lock().expect("obs registry").values() {
        inner.count.store(0, Ordering::Relaxed);
        inner.sum.store(0, Ordering::Relaxed);
        for b in &inner.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// Folds a previously exported snapshot back into the live registry:
/// names are interned as needed and every value is raised to *at least*
/// its snapshot reading (`fetch_max`, not `fetch_add`). Checkpoint
/// restore uses this so metrics carried in a snapshot survive a process
/// restart; merging respects the runtime enable flag the same way
/// direct recording does.
///
/// The monotonic fold is what makes the two restore scenarios both
/// come out right. In a fresh process the registry reads zero, so max
/// restores the snapshot's values exactly. In the *same* process — a
/// service evicting a tenant to disk and restoring it minutes later —
/// the registry has only grown since the snapshot was cut, so max is a
/// no-op; an additive merge here would re-count the entire registry on
/// every restore and explode exponentially under eviction churn.
pub fn merge_snapshot(snap: &MetricsSnapshot) {
    if !enabled() {
        return;
    }
    for (name, v) in &snap.counters {
        if *v > 0 {
            counter(name).0.value.fetch_max(*v, Ordering::Relaxed);
        }
    }
    for (name, h) in &snap.histograms {
        if h.count == 0 {
            continue;
        }
        let inner = histogram(name).0;
        inner.count.fetch_max(h.count, Ordering::Relaxed);
        inner.sum.fetch_max(h.sum, Ordering::Relaxed);
        for &(ub, c) in &h.buckets {
            inner.buckets[bucket_index(ub)].fetch_max(c, Ordering::Relaxed);
        }
    }
}

/// Exports every registered metric, sorted by name.
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry();
    let counters = reg
        .counters
        .lock()
        .expect("obs registry")
        .iter()
        .map(|(name, inner)| (name.clone(), inner.value.load(Ordering::Relaxed)))
        .collect();
    let histograms = reg
        .histograms
        .lock()
        .expect("obs registry")
        .iter()
        .map(|(name, inner)| {
            let buckets = inner
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let c = b.load(Ordering::Relaxed);
                    (c > 0).then(|| (bucket_upper_bound(i), c))
                })
                .collect();
            (
                name.clone(),
                HistogramSnapshot {
                    count: inner.count.load(Ordering::Relaxed),
                    sum: inner.sum.load(Ordering::Relaxed),
                    buckets,
                },
            )
        })
        .collect();
    MetricsSnapshot {
        feature_enabled: COMPILED,
        counters,
        histograms,
    }
}
