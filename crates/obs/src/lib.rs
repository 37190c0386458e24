//! `sbc-obs` — zero-cost instrumentation for the workspace.
//!
//! A dependency-free metrics registry with three primitives:
//!
//! * **[`Counter`]** — a monotonic `u64` (relaxed atomics);
//! * **[`Histogram`]** — fixed power-of-two buckets (value `v` lands in
//!   bucket `⌊log₂ v⌋ + 1`, zero in bucket 0) plus count/sum, so rates
//!   and tail shapes survive aggregation without allocation;
//! * **[`SpanTimer`]** — an RAII guard recording elapsed nanoseconds
//!   into a histogram on drop.
//!
//! Metric names are dot-separated paths namespaced by subsystem
//! (`stream.ingest.*`, `flow.mcmf.*`, `dist.wire.*`, `clustering.*`,
//! `core.*`); handles are interned once and cached at the call site by
//! the [`counter!`]/[`histogram!`]/[`span!`] macros.
//!
//! # The zero-cost contract
//!
//! One implementation, two gates, one per binding time:
//!
//! 1. **Compile time** — the `obs` cargo feature sets [`COMPILED`].
//!    Every recorder in this crate (metrics, flight recorder, `svc`,
//!    `alloc`) checks it first, so with the feature *disabled* (the
//!    default) each recording call folds to an early return: no name is
//!    interned, the clock is never read, no trace ring or allocator
//!    scope cell is touched, and [`alloc::TrackingAlloc`] passes straight
//!    through to the system allocator. `tests/off.rs` pins this.
//! 2. **Run time** — with the feature *enabled*, recording is further
//!    gated by a global flag ([`set_enabled`], default **off**), which
//!    the metrics registry and allocator attribution share; the flight
//!    recorder ([`trace::set_enabled`]) and the service plane
//!    ([`svc::set_metrics_enabled`]) keep their own. An
//!    enabled-but-idle binary pays one relaxed load + predictable
//!    branch per call site — the `obs_overhead` bench guards that this
//!    stays within noise (<1%) of the uninstrumented path.
//!
//! Metrics never feed back into algorithmic state: recording with the
//! feature on/off, enabled or idle, serial or parallel is bit-identical
//! in every output (property-tested in `sbc-streaming`).

pub mod alloc;
pub mod fault;
pub mod json;
pub mod svc;
pub mod timeline;
pub mod trace;

mod registry;

use json::JsonValue;
pub use registry::*;

/// Whether the `obs` cargo feature is compiled in. Every recorder
/// returns early when it is false, and tests key their live-side
/// assertions on it.
pub const COMPILED: bool = cfg!(feature = "obs");

/// Resolves (and caches) a [`Counter`] by static name.
///
/// ```
/// sbc_obs::counter!("stream.ingest.ops").add(3);
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __OBS_COUNTER: $crate::LazyCounter = $crate::LazyCounter::new($name);
        __OBS_COUNTER.get()
    }};
}

/// Resolves (and caches) a [`Histogram`] by static name.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static __OBS_HISTOGRAM: $crate::LazyHistogram = $crate::LazyHistogram::new($name);
        __OBS_HISTOGRAM.get()
    }};
}

/// Starts an RAII span recording elapsed nanoseconds into the named
/// histogram when the guard drops.
///
/// ```
/// let _span = sbc_obs::span!("flow.transport.solve_ns");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanTimer::start($crate::histogram!($name))
    };
}

/// One histogram's decoded state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values (saturating).
    pub sum: u64,
    /// Non-empty buckets as `(inclusive_upper_bound, count)`; bounds are
    /// `0, 1, 3, 7, …, 2^i − 1, …, u64::MAX`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) as the inclusive upper bound of
    /// the bucket holding the ceil-rank sample — the same conservative
    /// rounding `serve_bench` uses for exact samples, quantized to the
    /// power-of-two grid. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(upper, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return upper;
            }
        }
        self.buckets.last().map(|&(u, _)| u).unwrap_or(0)
    }
}

/// A point-in-time export of every registered metric, sorted by name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Whether the `obs` cargo feature was compiled in.
    pub feature_enabled: bool,
    /// Counters by name.
    pub counters: Vec<(String, u64)>,
    /// Histograms by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|(_, v)| *v == 0)
            && self.histograms.iter().all(|(_, h)| h.count == 0)
    }

    /// Value of a counter, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Snapshot of a histogram, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Serializes to a JSON value (stable field order).
    pub fn to_json(&self) -> JsonValue {
        let counters = JsonValue::Object(
            self.counters
                .iter()
                .map(|(n, v)| (n.clone(), JsonValue::UInt(*v)))
                .collect(),
        );
        let histograms = JsonValue::Object(
            self.histograms
                .iter()
                .map(|(n, h)| {
                    let buckets = JsonValue::Array(
                        h.buckets
                            .iter()
                            .map(|&(ub, c)| {
                                JsonValue::Array(vec![JsonValue::UInt(ub), JsonValue::UInt(c)])
                            })
                            .collect(),
                    );
                    (
                        n.clone(),
                        JsonValue::object()
                            .field("count", h.count)
                            .field("sum", h.sum)
                            .field("mean", h.mean())
                            .field("buckets", buckets),
                    )
                })
                .collect(),
        );
        JsonValue::object()
            .field("feature_enabled", self.feature_enabled)
            .field("counters", counters)
            .field("histograms", histograms)
    }
}

/// Index of the power-of-two bucket value `v` falls into: 0 for 0,
/// otherwise `⌊log₂ v⌋ + 1` (1..=64).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (`0, 1, 3, 7, …, u64::MAX`).
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Current wall-clock time as an ISO-8601 UTC timestamp
/// (`YYYY-MM-DDTHH:MM:SSZ`), computed without any date-time dependency.
pub fn iso8601_utc_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    let (h, m, s) = (secs / 3600 % 24, secs / 60 % 60, secs % 60);
    // Howard Hinnant's civil-from-days.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let mo = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if mo <= 2 { y + 1 } else { y };
    format!("{y:04}-{mo:02}-{d:02}T{h:02}:{m:02}:{s:02}Z")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        // Every value is ≤ its bucket's upper bound and > the previous one.
        for v in [0u64, 1, 2, 3, 5, 1023, 1024, 1 << 40] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_bound(i));
            if i > 0 {
                assert!(v > bucket_upper_bound(i - 1));
            }
        }
    }

    #[test]
    fn timestamp_shape() {
        let t = iso8601_utc_now();
        assert_eq!(t.len(), 20, "{t}");
        assert!(t.ends_with('Z'));
        assert_eq!(&t[4..5], "-");
        assert_eq!(&t[10..11], "T");
        let year: i32 = t[..4].parse().unwrap();
        assert!((2024..2100).contains(&year), "{t}");
    }

    #[test]
    fn snapshot_json_shape() {
        let snap = MetricsSnapshot {
            feature_enabled: true,
            counters: vec![("a.b".into(), 7)],
            histograms: vec![(
                "h".into(),
                HistogramSnapshot {
                    count: 2,
                    sum: 5,
                    buckets: vec![(3, 2)],
                },
            )],
        };
        let s = snap.to_json().render();
        assert!(s.contains("\"a.b\":7"), "{s}");
        assert!(s.contains("\"count\":2"), "{s}");
        assert!(s.contains("\"buckets\":[[3,2]]"), "{s}");
        assert!(snap.counter("a.b") == Some(7));
        assert!(snap.histogram("h").unwrap().mean() == 2.5);
    }
}
