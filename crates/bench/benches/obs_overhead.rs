//! Guard for the `sbc-obs` zero-cost contract: with instrumentation
//! compiled in but recording disabled ("enabled-but-idle"), the per-call
//! cost of the metric primitives must stay under 1% of the measured
//! per-op streaming ingest cost. The same budget applies to the flight
//! recorder's disabled fast path, and with the recorder *on* at its
//! default 64Ki-event ring the whole batched ingest may slow down by at
//! most 5%.
//!
//! The memory-telemetry pillar gets the same treatment: this binary
//! installs [`sbc_obs::alloc::TrackingAlloc`] globally (a passthrough
//! unless built with `--features obs`), prices its bookkeeping at
//! the *measured* alloc/dealloc pairs per ingest op, and holds that
//! share under 1%; a `sbc_obs::timeline` sampler running at the default
//! 250 ms cadence may slow the same ingest by at most 2%.
//!
//! Run with `cargo bench --bench obs_overhead [--features obs]`.
//! This is a plain `harness = false` guard (it asserts and exits
//! non-zero on regression) rather than a Criterion tracker, because its
//! job is a pass/fail bound, not a trend line.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sbc_bench::Workload;
use sbc_core::CoresetParams;
use sbc_geometry::GridParams;
use sbc_streaming::model::insertion_stream;
use sbc_streaming::{StreamCoresetBuilder, StreamParams};
use std::time::Instant;

/// Route the bench's own allocations through the tracking allocator so
/// the "enabled" state under test is the real one (passthrough to
/// `System` without the `obs` feature).
#[global_allocator]
static ALLOC: sbc_obs::alloc::TrackingAlloc = sbc_obs::alloc::TrackingAlloc;

/// Generous bound on instrumentation call sites executed per ingest op
/// (amortized): one sign tally plus, per batch of 4096 ops, the batch
/// counters, two spans, and the per-(level, role) prune tallies.
const SITES_PER_OP: f64 = 16.0;

/// Best-of-`reps` seconds for one full ingest of `ops`.
fn ingest_secs(params: &CoresetParams, ops: &[sbc_streaming::model::StreamOp], reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut rng = StdRng::seed_from_u64(7);
        let mut b = StreamCoresetBuilder::new(params.clone(), StreamParams::default(), &mut rng);
        let start = Instant::now();
        b.process_all(ops);
        best = best.min(start.elapsed().as_secs_f64());
        std::hint::black_box(b.net_count());
    }
    best
}

/// Nanoseconds per idle `Counter::add` call (the gate is one relaxed
/// atomic load + a predictable branch; a no-op build measures ~0).
fn idle_counter_ns_per_call(calls: u64) -> f64 {
    let c = sbc_obs::counter("bench.obs_overhead.idle");
    let start = Instant::now();
    for i in 0..calls {
        c.add(std::hint::black_box(i & 1));
    }
    start.elapsed().as_secs_f64() * 1e9 / calls as f64
}

/// Nanoseconds per `trace::instant` call with the recorder disabled
/// (the gate is one relaxed atomic load, same as the idle counter).
fn idle_trace_ns_per_call(calls: u64) -> f64 {
    use sbc_obs::trace::CausalIds;
    let start = Instant::now();
    for i in 0..calls {
        sbc_obs::trace::instant(
            "bench.obs_overhead.trace_idle",
            CausalIds::NONE,
            std::hint::black_box(i & 1),
        );
    }
    start.elapsed().as_secs_f64() * 1e9 / calls as f64
}

fn main() {
    sbc_obs::set_enabled(false); // enabled-but-idle is the state under test
    sbc_obs::trace::set_enabled(false);

    let gp = GridParams::from_log_delta(8, 2);
    let params = CoresetParams::builder(3, gp).build().unwrap();
    let pts = Workload::Gaussian.generate(gp, 4000, 3, 9);
    let ops = insertion_stream(&pts);

    let op_ns = ingest_secs(&params, &ops, 3) * 1e9 / ops.len() as f64;
    let call_ns = idle_counter_ns_per_call(50_000_000);
    let overhead = SITES_PER_OP * call_ns / op_ns;

    println!("ingest: {op_ns:.1} ns/op");
    println!("idle counter: {call_ns:.3} ns/call");
    println!(
        "worst-case idle instrumentation share ({SITES_PER_OP:.0} sites/op): {:.4}%",
        overhead * 100.0
    );
    assert!(
        overhead < 0.01,
        "enabled-but-idle overhead {:.3}% breaches the 1% budget \
         ({call_ns:.3} ns/call vs {op_ns:.1} ns/op)",
        overhead * 100.0
    );
    println!("OK: enabled-but-idle overhead is within the 1% budget");

    // Flight recorder, disabled: same 1% budget as the metric gate.
    let trace_call_ns = idle_trace_ns_per_call(50_000_000);
    let trace_idle_overhead = SITES_PER_OP * trace_call_ns / op_ns;
    println!("idle trace event: {trace_call_ns:.3} ns/call");
    println!(
        "worst-case idle tracing share ({SITES_PER_OP:.0} sites/op): {:.4}%",
        trace_idle_overhead * 100.0
    );
    assert!(
        trace_idle_overhead < 0.01,
        "tracing-enabled-but-idle overhead {:.3}% breaches the 1% budget \
         ({trace_call_ns:.3} ns/call vs {op_ns:.1} ns/op)",
        trace_idle_overhead * 100.0
    );
    println!("OK: tracing-enabled-but-idle overhead is within the 1% budget");

    // Flight recorder, recording at the default 64Ki-event ring: the
    // whole batched ingest (spans, prune instants, ring pushes) must
    // cost at most 5% over the untraced run measured above.
    sbc_obs::trace::set_capacity(64 * 1024);
    sbc_obs::trace::set_enabled(true);
    let traced_op_ns = ingest_secs(&params, &ops, 3) * 1e9 / ops.len() as f64;
    sbc_obs::trace::set_enabled(false);
    let recorded = sbc_obs::trace::snapshot().total_events();
    let steady_overhead = traced_op_ns / op_ns - 1.0;
    println!("traced ingest: {traced_op_ns:.1} ns/op ({recorded} events in ring)");
    println!(
        "recorder steady-state overhead: {:.2}%",
        steady_overhead * 100.0
    );
    assert!(
        steady_overhead < 0.05,
        "64Ki-ring recorder overhead {:.2}% breaches the 5% budget \
         ({traced_op_ns:.1} ns/op traced vs {op_ns:.1} ns/op untraced)",
        steady_overhead * 100.0
    );
    if sbc_obs::COMPILED {
        assert!(recorded > 0, "recording run captured no events");
    }
    println!("OK: 64Ki-ring recorder steady-state overhead is within the 5% budget");

    // Tracking allocator, enabled but idle: `set_enabled(false)` mirrors
    // the metric/tracing gates above (recording stops, the allocator
    // stays installed), so the idle cost per alloc/dealloc pair is one
    // relaxed load plus a header-flag write. Price that and charge it at
    // the *measured* pair count per ingest op. The gate-open (recording)
    // cost is printed informationally — it is a measurement mode, not an
    // always-on tax, so it carries no budget.
    let alloc_before = sbc_obs::alloc::snapshot();
    let base_secs = ingest_secs(&params, &ops, 3);
    let alloc_after = sbc_obs::alloc::snapshot();
    let alloc_op_ns = base_secs * 1e9 / ops.len() as f64;
    let pairs_per_op = if alloc_after.tracking {
        let pairs = alloc_after
            .total
            .allocs
            .saturating_sub(alloc_before.total.allocs) as f64
            / 3.0;
        pairs / ops.len() as f64
    } else {
        SITES_PER_OP // generous fallback when nothing counted the truth
    };
    let bench_pairs = 2_000_000u64;
    let start = Instant::now();
    for i in 0..bench_pairs {
        sbc_obs::alloc::__bench_record_pair(std::hint::black_box(256 + (i & 0xFF)));
    }
    let active_pair_ns = start.elapsed().as_secs_f64() * 1e9 / bench_pairs as f64;
    sbc_obs::alloc::set_enabled(false);
    let start = Instant::now();
    for i in 0..bench_pairs {
        sbc_obs::alloc::__bench_record_pair(std::hint::black_box(256 + (i & 0xFF)));
    }
    let idle_pair_ns = start.elapsed().as_secs_f64() * 1e9 / bench_pairs as f64;
    sbc_obs::alloc::set_enabled(true);
    let alloc_overhead = pairs_per_op * idle_pair_ns / alloc_op_ns;
    println!(
        "alloc record pair: {idle_pair_ns:.3} ns idle, {active_pair_ns:.3} ns recording \
         ({pairs_per_op:.2} pairs/op measured)"
    );
    println!(
        "tracking-allocator idle share: {:.4}%",
        alloc_overhead * 100.0
    );
    assert!(
        alloc_overhead < 0.01,
        "tracking-allocator enabled-but-idle overhead {:.3}% breaches the 1% budget \
         ({idle_pair_ns:.3} ns/pair × {pairs_per_op:.2} pairs/op vs {alloc_op_ns:.1} ns/op)",
        alloc_overhead * 100.0
    );
    println!("OK: tracking-allocator enabled-but-idle overhead is within the 1% budget");

    // Timeline sampler at the default cadence: the whole ingest may
    // slow down by at most 2% with a live sampler snapshotting RSS,
    // counters and allocator attribution in the background.
    let sampler = sbc_obs::timeline::Sampler::start(
        std::time::Duration::from_millis(sbc_obs::timeline::DEFAULT_CADENCE_MS),
        sbc_obs::timeline::DEFAULT_CAPACITY,
        None,
        None,
    );
    let sampled_secs = ingest_secs(&params, &ops, 3);
    let timeline = sampler.stop();
    let sampling_overhead = (sampled_secs / base_secs - 1.0).max(0.0);
    println!(
        "sampled ingest: {:.1} ns/op ({} samples taken)",
        sampled_secs * 1e9 / ops.len() as f64,
        timeline.len()
    );
    println!(
        "sampler steady-state overhead: {:.2}%",
        sampling_overhead * 100.0
    );
    assert!(
        sampling_overhead < 0.02,
        "default-cadence sampler overhead {:.2}% breaches the 2% budget",
        sampling_overhead * 100.0
    );
    assert!(
        !timeline.is_empty(),
        "sampler took no samples during the ingest"
    );
    println!("OK: default-cadence sampler overhead is within the 2% budget");
}
