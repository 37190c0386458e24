//! What every workload shares: the run options, the timed window, the
//! in-memory span log of a traced run, latency quantiles, and the
//! one-line JSON report.

use std::fmt::Write as _;
use std::time::Instant;

/// Options of one workload process.
pub struct Opts {
    pub seed: u64,
    /// Length of the timed window in seconds.
    pub seconds: f64,
    /// Record spans around every call into a layer.
    pub traced: bool,
    /// Small sizes for the self-test; the timed window still honours
    /// `seconds`, but every minimum is scaled down.
    pub tiny: bool,
}

/// Span logs and spill directories go here, under the working directory.
pub const OUT_DIR: &str = ".bench_out";

/// Where a span was recorded. Only `Window` spans count towards
/// `bench.unattributed_frac`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    Setup,
    Window,
    Check,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Window => "window",
            Phase::Check => "check",
        }
    }
}

/// One call into a layer, timed by the benchmark from outside it.
pub struct Span {
    pub layer: &'static str,
    pub phase: Phase,
    /// Index of the operation (write, read or set-up step) it served.
    pub op: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// The span log of one run. Untraced, every method is a plain call
/// with no clock reads; traced, spans are kept in memory and written
/// out once by [`Tracer::write`].
pub struct Tracer {
    on: bool,
    origin: Instant,
    phase: Phase,
    op: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            phase: Phase::Setup,
            op: 0,
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
        }
    }

    pub fn set_phase(&mut self, phase: Phase) {
        self.phase = phase;
    }

    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span named `layer` (a plain call when untraced).
    #[inline]
    pub fn span<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        self.record(layer, t0, Instant::now());
        r
    }

    /// Records a span whose name is only known once the call returned.
    pub fn record(&mut self, layer: &'static str, t0: Instant, t1: Instant) {
        if self.on {
            self.spans.push(Span {
                layer,
                phase: self.phase,
                op: self.op,
                start_ns: (t0 - self.origin).as_nanos() as u64,
                dur_ns: (t1 - t0).as_nanos() as u64,
            });
        }
    }

    fn matching<'a>(&'a self, layer: &'a str, phase: Phase) -> impl Iterator<Item = &'a Span> {
        self.spans
            .iter()
            .filter(move |s| s.layer == layer && s.phase == phase)
    }

    /// Total nanoseconds and count of `layer`'s spans in `phase`.
    pub fn total(&self, layer: &str, phase: Phase) -> (u64, u64) {
        self.matching(layer, phase)
            .fold((0, 0), |(ns, n), s| (ns + s.dur_ns, n + 1))
    }

    /// Mean span length of `layer` in `phase`, in milliseconds (0 when
    /// the layer is not on this workload's path).
    pub fn mean_ms(&self, layer: &str, phase: Phase) -> f64 {
        let (ns, n) = self.total(layer, phase);
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64 / 1e6
        }
    }

    /// Sum of every span recorded in the timed window. Spans never nest
    /// (each wraps one public call made by the benchmark), so this is
    /// the attributed share of the window's wall clock.
    pub fn window_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.phase == Phase::Window)
            .map(|s| s.dur_ns)
            .sum()
    }

    /// Writes the span log as JSON lines; called once, at exit.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::with_capacity(self.spans.len() * 80);
        for s in &self.spans {
            let _ = writeln!(
                text,
                "{{\"layer\":\"{}\",\"phase\":\"{}\",\"op\":{},\"start_ns\":{},\"dur_ns\":{}}}",
                s.layer,
                s.phase.name(),
                s.op,
                s.start_ns,
                s.dur_ns
            );
        }
        std::fs::write(path, text)
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// The calling thread's CPU time, in nanoseconds. Every end-to-end time
/// is measured on this clock. Each workload is one thread that does not
/// block, so on an idle host it reads as wall time; on a virtual machine
/// with steal-time accounting it leaves out the time the host ran other
/// guests, which on a shared host is the largest source of stalls in the
/// latency tails.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is always available on Linux");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Latency samples of one operation kind, in CPU nanoseconds.
#[derive(Default)]
pub struct Latencies(Vec<u64>);

impl Latencies {
    /// Records one call that started and ended at these [`cpu_ns`] readings.
    pub fn push(&mut self, t0: u64, t1: u64) {
        self.0.push(t1 - t0);
    }

    pub fn len(&self) -> u64 {
        self.0.len() as u64
    }

    /// Nearest-rank quantiles `qs` of the raw samples, in microseconds.
    pub fn quantiles_us(&self, qs: &[f64]) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_unstable();
        qs.iter().map(|&q| quantile(&v, q) as f64 / 1e3).collect()
    }
}

/// Nearest-rank quantile of sorted samples (0 when empty).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of a non-empty list.
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

pub const MIB: f64 = 1024.0 * 1024.0;

/// Counts of a run's timed window: the operations it made and how
/// long it lasted, on the wall clock and on the thread's CPU clock.
pub struct Window {
    start: Instant,
    end: Instant,
    cpu_start: u64,
    cpu_end: u64,
    pub writes: Latencies,
    pub reads: Latencies,
    /// Stream updates (points inserted or deleted) applied.
    pub updates: u64,
    pub failed: u64,
}

impl Window {
    pub fn open() -> Window {
        let now = Instant::now();
        let cpu = cpu_ns();
        Window {
            start: now,
            end: now,
            cpu_start: cpu,
            cpu_end: cpu,
            writes: Latencies::default(),
            reads: Latencies::default(),
            updates: 0,
            failed: 0,
        }
    }

    pub fn ops(&self) -> u64 {
        self.writes.len() + self.reads.len()
    }

    /// CPU seconds the window took, the denominator of its rates.
    pub fn secs(&self) -> f64 {
        (self.cpu_end - self.cpu_start) as f64 / 1e9
    }

    /// Whether the window is over: `seconds` have passed and the run
    /// holds at least the minimum operations it must report on.
    pub fn done(&self, opts: &Opts, min_ops: u64) -> bool {
        self.ops() >= min_ops && self.start.elapsed().as_secs_f64() >= opts.seconds
    }

    pub fn close(&mut self) {
        self.cpu_end = cpu_ns();
        self.end = Instant::now();
    }
}

/// Everything one workload process reports, printed as one JSON line.
#[derive(Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Counts that must repeat exactly for one seed: `(name, value)`.
    pub exact: Vec<(&'static str, u64)>,
    /// Operations per second of this run's window, traced or not (the
    /// two legs of a traced run give `bench.tracing_overhead`).
    pub ops_per_s: f64,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn exact(&mut self, name: &'static str, value: u64) {
        self.exact.push((name, value));
    }

    /// The end-to-end metrics every workload shares.
    pub fn end_to_end(&mut self, setup_s: f64, w: &Window, state_bytes: u64, peak_rss_mib: f64) {
        let secs = w.secs();
        let [wp50, wp99] = w.writes.quantiles_us(&[0.50, 0.99])[..] else {
            unreachable!()
        };
        let [rp50, rp90] = w.reads.quantiles_us(&[0.50, 0.90])[..] else {
            unreachable!()
        };
        self.metric("setup_s", setup_s, "s");
        self.metric("ops_per_s", w.ops() as f64 / secs, "1/s");
        self.metric("updates_per_s", w.updates as f64 / secs, "1/s");
        self.metric("write_p50_us", wp50, "us");
        self.metric("write_p99_us", wp99, "us");
        self.metric("read_p50_us", rp50, "us");
        self.metric("read_p90_us", rp90, "us");
        self.metric("peak_rss_mib", peak_rss_mib, "MiB");
        self.metric("state_mib", state_bytes as f64 / MIB, "MiB");
        self.ops_per_s = w.ops() as f64 / secs;
    }

    /// What a traced window reports besides the layers:
    /// `bench.unattributed_frac`, and its operations per second for
    /// `bench.tracing_overhead`.
    pub fn traced_window(&mut self, tracer: &Tracer, w: &Window) {
        let wall = (w.end - w.start).as_nanos() as f64;
        let frac = (wall - tracer.window_ns() as f64) / wall;
        self.metric("bench.unattributed_frac", frac, "frac");
        self.ops_per_s = w.ops() as f64 / w.secs();
    }

    /// The report as one JSON line; `build` is a JSON object describing
    /// the build that ran it.
    pub fn to_json(&self, build: &str) -> String {
        let mut s = format!(
            "{{\"build\":{build},\"correct\":{},\"attempted\":{},\"failed\":{},\"ops_per_s\":{},\"metrics\":{{",
            self.correct,
            self.attempted,
            self.failed,
            num(self.ops_per_s)
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                num(*value)
            );
        }
        s.push_str("},\"exact\":{");
        for (i, (name, value)) in self.exact.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}\"{name}\":{value}");
        }
        s.push_str("}}");
        s
    }
}

/// A JSON number with every digit of `v` (`null` for a non-finite value,
/// which the wrapper then rejects).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}
