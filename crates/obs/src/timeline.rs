//! Time-series memory/throughput telemetry: a fixed-size ring of
//! periodic samples plus JSON and Prometheus text-exposition exporters.
//!
//! A [`Timeline`] snapshots the metrics registry, allocator attribution
//! ([`crate::alloc::snapshot`]) and resident-set size into a bounded
//! ring — old samples are evicted, so a long run's telemetry file stays
//! a fixed size. The [`Sampler`] drives a timeline from a background
//! thread at a fixed cadence and (atomically, via temp-file rename)
//! rewrites a JSON timeline and a Prometheus exposition file that
//! `sbc-top` or any scrape agent can tail while the run is live.
//!
//! The timeline is an *observer*: sampling never feeds back into
//! algorithmic state, and every exporter works in both feature states
//! (`alloc_tracking: false`, zeroed components and empty counters when
//! `obs` is off).

use crate::alloc::AllocSnapshot;
use crate::json::JsonValue;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Schema tag written into every timeline JSON export.
pub const TIMELINE_SCHEMA: &str = "sbc-timeline-v1";

/// Default ring capacity (samples retained).
pub const DEFAULT_CAPACITY: usize = 512;

/// Default sampling cadence in milliseconds.
pub const DEFAULT_CADENCE_MS: u64 = 250;

/// One periodic observation.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Monotonic sample number (not reset by ring eviction).
    pub seq: u64,
    /// Milliseconds since the timeline was created.
    pub elapsed_ms: u64,
    /// Resident-set size in bytes (0 where unsupported).
    pub rss_bytes: u64,
    /// Allocator attribution at sample time.
    pub alloc: AllocSnapshot,
    /// Counter values at sample time (sorted by name).
    pub counters: Vec<(String, u64)>,
}

impl Sample {
    /// Value of a counter in this sample, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    fn to_json(&self) -> JsonValue {
        let counters = JsonValue::Object(
            self.counters
                .iter()
                .map(|(n, v)| (n.clone(), JsonValue::UInt(*v)))
                .collect(),
        );
        JsonValue::object()
            .field("seq", self.seq)
            .field("elapsed_ms", self.elapsed_ms)
            .field("rss_bytes", self.rss_bytes)
            .field("alloc", self.alloc.to_json())
            .field("counters", counters)
    }
}

/// Fixed-capacity ring of [`Sample`]s.
pub struct Timeline {
    capacity: usize,
    start: Instant,
    next_seq: u64,
    cadence_ms: u64,
    samples: VecDeque<Sample>,
}

impl Timeline {
    /// Creates an empty timeline retaining at most `capacity` samples.
    pub fn new(capacity: usize) -> Self {
        Timeline {
            capacity: capacity.max(1),
            start: Instant::now(),
            next_seq: 0,
            cadence_ms: 0,
            samples: VecDeque::new(),
        }
    }

    /// Records the nominal cadence (informational, for exports).
    pub fn set_cadence_ms(&mut self, ms: u64) {
        self.cadence_ms = ms;
    }

    /// Takes a sample now: metrics registry, allocator attribution,
    /// RSS, and the service plane's gauges + per-tenant rows (empty
    /// unless `sbc-serve` is publishing them).
    pub fn sample(&mut self) -> &Sample {
        let snap = crate::snapshot();
        let mut counters = snap.counters;
        counters.extend(crate::svc::sampled_counters());
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        let sample = Sample {
            seq: self.next_seq,
            elapsed_ms: self.start.elapsed().as_millis() as u64,
            rss_bytes: rss_bytes(),
            alloc: crate::alloc::snapshot(),
            counters,
        };
        self.next_seq += 1;
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
        }
        self.samples.push_back(sample);
        self.samples.back().expect("just pushed")
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no sample has been taken yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Most recent sample, if any.
    pub fn latest(&self) -> Option<&Sample> {
        self.samples.back()
    }

    /// Retained samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter()
    }

    /// Serialises the whole ring (stable field order).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object()
            .field("schema", TIMELINE_SCHEMA)
            .field(
                "alloc_tracking",
                self.latest()
                    .map(|s| s.alloc.tracking)
                    .unwrap_or_else(crate::alloc::tracking_active),
            )
            .field("cadence_ms", self.cadence_ms)
            .field("capacity", self.capacity as u64)
            .field("taken", self.next_seq)
            .field(
                "samples",
                JsonValue::Array(self.samples.iter().map(Sample::to_json).collect()),
            )
    }

    /// Renders the latest sample as Prometheus text exposition
    /// (version 0.0.4): `sbc_rss_bytes`, `sbc_elapsed_ms`,
    /// `sbc_alloc_{live,peak}_bytes{component=…}`, alloc op counts and
    /// every registry counter as `sbc_counter_total{name=…}`. Empty
    /// string when no sample exists.
    pub fn prometheus(&self) -> String {
        let Some(s) = self.latest() else {
            return String::new();
        };
        let mut out = String::new();
        let push_header = |out: &mut String, name: &str, kind: &str, help: &str| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        };
        push_header(&mut out, "sbc_rss_bytes", "gauge", "Resident set size");
        out.push_str(&format!("sbc_rss_bytes {}\n", s.rss_bytes));
        push_header(
            &mut out,
            "sbc_elapsed_ms",
            "counter",
            "Milliseconds since telemetry start",
        );
        out.push_str(&format!("sbc_elapsed_ms {}\n", s.elapsed_ms));
        push_header(
            &mut out,
            "sbc_alloc_tracking",
            "gauge",
            "1 when the tracking allocator is attributing",
        );
        out.push_str(&format!(
            "sbc_alloc_tracking {}\n",
            u8::from(s.alloc.tracking)
        ));
        push_header(
            &mut out,
            "sbc_alloc_live_bytes",
            "gauge",
            "Live heap bytes attributed per component",
        );
        for (name, st) in &s.alloc.components {
            out.push_str(&format!(
                "sbc_alloc_live_bytes{{component=\"{name}\"}} {}\n",
                st.live_bytes
            ));
        }
        push_header(
            &mut out,
            "sbc_alloc_peak_bytes",
            "gauge",
            "Peak heap bytes attributed per component",
        );
        for (name, st) in &s.alloc.components {
            out.push_str(&format!(
                "sbc_alloc_peak_bytes{{component=\"{name}\"}} {}\n",
                st.peak_bytes
            ));
        }
        push_header(
            &mut out,
            "sbc_alloc_ops_total",
            "counter",
            "Allocation operations per component",
        );
        for (name, st) in &s.alloc.components {
            out.push_str(&format!(
                "sbc_alloc_ops_total{{component=\"{name}\",op=\"alloc\"}} {}\n",
                st.allocs
            ));
            out.push_str(&format!(
                "sbc_alloc_ops_total{{component=\"{name}\",op=\"dealloc\"}} {}\n",
                st.deallocs
            ));
        }
        push_header(
            &mut out,
            "sbc_counter_total",
            "counter",
            "Metrics registry counters",
        );
        for (name, v) in &s.counters {
            out.push_str(&format!("sbc_counter_total{{name=\"{name}\"}} {v}\n"));
        }
        out
    }
}

/// Resident-set size of the current process in bytes (Linux
/// `/proc/self/statm`; 0 on other platforms).
pub fn rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(statm) = std::fs::read_to_string("/proc/self/statm") {
            if let Some(rss_pages) = statm.split_whitespace().nth(1) {
                if let Ok(pages) = rss_pages.parse::<u64>() {
                    return pages * 4096;
                }
            }
        }
    }
    0
}

/// Validates a Prometheus text exposition: every sample line must be
/// `name{labels} value` with a numeric value, and every metric family
/// must have been declared by a preceding `# TYPE`. Returns the number
/// of sample lines.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    let mut declared: Vec<&str> = Vec::new();
    let mut samples = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts
                .next()
                .ok_or_else(|| format!("line {lineno}: bare TYPE"))?;
            let kind = parts
                .next()
                .ok_or_else(|| format!("line {lineno}: TYPE without kind"))?;
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(format!("line {lineno}: unknown type {kind}"));
            }
            declared.push(name);
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let name_end = line
            .find(['{', ' '])
            .ok_or_else(|| format!("line {lineno}: no value separator in {line:?}"))?;
        let name = &line[..name_end];
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            || name.starts_with(|c: char| c.is_ascii_digit())
        {
            return Err(format!("line {lineno}: invalid metric name {name:?}"));
        }
        if !declared.contains(&name) {
            return Err(format!("line {lineno}: {name} lacks a preceding # TYPE"));
        }
        let value_part = match line[name_end..].strip_prefix('{') {
            Some(rest) => {
                let close = rest
                    .find('}')
                    .ok_or_else(|| format!("line {lineno}: unterminated label set"))?;
                rest[close + 1..].trim_start()
            }
            None => line[name_end..].trim_start(),
        };
        let value = value_part.split_whitespace().next().unwrap_or("");
        value
            .parse::<f64>()
            .map_err(|_| format!("line {lineno}: non-numeric value {value:?}"))?;
        samples += 1;
    }
    if samples == 0 {
        return Err("no sample lines".to_string());
    }
    Ok(samples)
}

/// Writes `contents` atomically (temp file + rename) so tailing readers
/// never observe a torn file.
pub fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

/// Background sampler driving a shared [`Timeline`] at a fixed cadence,
/// optionally persisting JSON and Prometheus exports after each tick.
pub struct Sampler {
    timeline: Arc<Mutex<Timeline>>,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
    json_path: Option<PathBuf>,
    prom_path: Option<PathBuf>,
}

impl Sampler {
    /// Starts sampling every `cadence` into a ring of `capacity`
    /// samples. When paths are given, exports are rewritten atomically
    /// after every tick.
    pub fn start(
        cadence: Duration,
        capacity: usize,
        json_path: Option<PathBuf>,
        prom_path: Option<PathBuf>,
    ) -> Sampler {
        let mut tl = Timeline::new(capacity);
        tl.set_cadence_ms(cadence.as_millis() as u64);
        let timeline = Arc::new(Mutex::new(tl));
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let timeline = Arc::clone(&timeline);
            let stop = Arc::clone(&stop);
            let json_path = json_path.clone();
            let prom_path = prom_path.clone();
            std::thread::Builder::new()
                .name("sbc-telemetry".to_string())
                .spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        Self::tick(&timeline, json_path.as_deref(), prom_path.as_deref());
                        // Sleep in short slices so stop() returns promptly
                        // even at slow cadences.
                        let mut remaining = cadence;
                        while !remaining.is_zero() && !stop.load(Ordering::Relaxed) {
                            let slice = remaining.min(Duration::from_millis(20));
                            std::thread::sleep(slice);
                            remaining = remaining.saturating_sub(slice);
                        }
                    }
                })
                .expect("spawn telemetry sampler")
        };
        Sampler {
            timeline,
            stop,
            handle: Some(handle),
            json_path,
            prom_path,
        }
    }

    fn tick(timeline: &Arc<Mutex<Timeline>>, json_path: Option<&Path>, prom_path: Option<&Path>) {
        let (json, prom) = {
            let mut tl = timeline.lock().expect("telemetry timeline poisoned");
            tl.sample();
            (
                json_path.map(|_| tl.to_json().render_pretty()),
                prom_path.map(|_| tl.prometheus()),
            )
        };
        if let (Some(path), Some(body)) = (json_path, json) {
            let _ = write_atomic(path, &body);
        }
        if let (Some(path), Some(body)) = (prom_path, prom) {
            let _ = write_atomic(path, &body);
        }
    }

    /// The shared timeline (lock briefly; the sampler thread also locks).
    pub fn timeline(&self) -> Arc<Mutex<Timeline>> {
        Arc::clone(&self.timeline)
    }

    /// Stops the thread, takes one final sample, flushes exports, and
    /// returns the timeline.
    pub fn stop(mut self) -> Timeline {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        Self::tick(
            &self.timeline,
            self.json_path.as_deref(),
            self.prom_path.as_deref(),
        );
        let timeline = Arc::clone(&self.timeline);
        drop(self);
        match Arc::try_unwrap(timeline) {
            Ok(m) => m.into_inner().expect("telemetry timeline poisoned"),
            Err(shared) => {
                // A clone of the Arc is still held elsewhere; fall back
                // to a snapshot-by-sampling copy of the ring.
                let tl = shared.lock().expect("telemetry timeline poisoned");
                let mut copy = Timeline::new(tl.capacity);
                copy.start = tl.start;
                copy.next_seq = tl.next_seq;
                copy.cadence_ms = tl.cadence_ms;
                copy.samples = tl.samples.clone();
                copy
            }
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_keeps_seq_monotonic() {
        let mut tl = Timeline::new(3);
        for _ in 0..5 {
            tl.sample();
        }
        assert_eq!(tl.len(), 3);
        let seqs: Vec<u64> = tl.samples().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert_eq!(tl.latest().unwrap().seq, 4);
    }

    #[test]
    fn json_export_has_schema_and_samples() {
        let mut tl = Timeline::new(8);
        tl.set_cadence_ms(125);
        tl.sample();
        let doc = tl.to_json();
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some(TIMELINE_SCHEMA)
        );
        assert_eq!(doc.get("cadence_ms").and_then(|v| v.as_u64()), Some(125));
        let samples = doc.get("samples").and_then(|v| v.as_array()).unwrap();
        assert_eq!(samples.len(), 1);
        let s = &samples[0];
        for key in ["seq", "elapsed_ms", "rss_bytes", "alloc", "counters"] {
            assert!(s.get(key).is_some(), "sample missing {key}");
        }
        // Round-trips through the parser (what sbc-top consumes).
        let parsed = JsonValue::parse(&doc.render_pretty()).unwrap();
        assert_eq!(
            parsed.get("taken").and_then(|v| v.as_u64()),
            Some(1),
            "parsed timeline lost its sample count"
        );
    }

    #[test]
    fn prometheus_exposition_validates() {
        let mut tl = Timeline::new(4);
        tl.sample();
        let text = tl.prometheus();
        let n = validate_prometheus(&text).expect("exposition must validate");
        // 1 rss + 1 elapsed + 1 tracking + 7 live + 7 peak + 14 ops.
        assert!(n >= 31, "expected >= 31 sample lines, got {n}:\n{text}");
        assert!(text.contains("sbc_alloc_live_bytes{component=\"arena\"}"));
    }

    #[test]
    fn validator_rejects_malformed_expositions() {
        assert!(validate_prometheus("").is_err());
        assert!(validate_prometheus("no_type_decl 1\n").is_err());
        assert!(
            validate_prometheus("# TYPE x gauge\nx notanumber\n").is_err(),
            "non-numeric value must fail"
        );
        assert!(validate_prometheus("# TYPE x wat\nx 1\n").is_err());
        assert!(validate_prometheus("# TYPE x gauge\nx{a=\"b\"} 2.5\n").is_ok());
    }

    #[test]
    fn rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(rss_bytes() > 0);
        }
    }

    #[test]
    fn sampler_ticks_and_writes_files() {
        let dir = std::env::temp_dir().join(format!("sbc-timeline-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let json = dir.join("t.json");
        let prom = dir.join("t.prom");
        let sampler = Sampler::start(
            Duration::from_millis(10),
            16,
            Some(json.clone()),
            Some(prom.clone()),
        );
        std::thread::sleep(Duration::from_millis(60));
        let tl = sampler.stop();
        assert!(tl.len() >= 2, "expected >= 2 samples, got {}", tl.len());
        let body = std::fs::read_to_string(&json).unwrap();
        assert!(JsonValue::parse(&body).is_ok(), "torn/invalid JSON: {body}");
        let prom_body = std::fs::read_to_string(&prom).unwrap();
        validate_prometheus(&prom_body).expect("prom file validates");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
