//! Headline streaming-ingest throughput numbers → `BENCH_streaming.json`.
//!
//! Measures ops/sec of two ways to drive the one ingest path (per-op,
//! i.e. batches of one, and whole-stream batches) on the
//! canonical Gaussian n=4000 workload — insert-only and deletion-heavy
//! mixed-op — and writes a machine-readable JSON report plus a human
//! summary to stdout.
//!
//! With the `obs` feature the run also records the workspace metrics
//! registry: the report gains a `"metrics"` section and `--metrics-out
//! <path>` dumps the full snapshot to its own JSON file.
//!
//! After the timed section, an untimed **robustness pass** re-ingests
//! the insert-only workload under an optional fault profile
//! (`--fault-profile drop8|dup8|kill-early|overflow-early|chaos[@seed]`)
//! while exercising checkpoint → restore every `--checkpoint-every N`
//! ops; its space report (including the kill taxonomy) lands in the
//! JSON under `"robustness"`, and `--checkpoint-out <path>` keeps the
//! final checkpoint bytes as an artifact.
//!
//! The robustness and metrics passes also run under the flight
//! recorder: `--trace-out <path>` exports the captured timeline as
//! Chrome `trace_event` JSON (open it in Perfetto) plus a folded-stack
//! text file next to it, `--trace-buffer-events <N>` sizes the
//! per-thread ring buffers, and any injected fault or store death dumps
//! the last events as `crash-<label>.json` next to the report.
//!
//! A second, larger workload measures **sharded ingest**: a Gaussian
//! n=64k stream pushed through `sbc::ShardedIngest` with `--shards N`
//! (default 8) shard builders folded up the binary merge tree, against
//! the same stream through a single shard. Wall-clock for both, the
//! speedup ratio, and the cross-shard `ShardedSpaceReport` land under
//! `"sharding"` in the JSON — alongside `threads_available`, since the
//! ratio is only meaningful on a multicore host.
//!
//! The robustness and metrics passes also run under the **telemetry
//! sampler** (`sbc_obs::timeline`): a background thread snapshots RSS,
//! the metrics registry, and — with `--features obs`, which this bin
//! turns into a process-wide [`sbc_obs::alloc::TrackingAlloc`] —
//! per-component allocator attribution. `--telemetry-out <path>` tails
//! the ring to a JSON file (atomically rewritten every tick, plus a
//! Prometheus text-exposition sibling at `<path minus .json>.prom`)
//! that `sbc-top` can watch live; `--telemetry-every <ms>` sets the
//! cadence (default 250). The report always gains a `"telemetry"`
//! section reconciling measured truth against the nominal space bound
//! (`peak_bytes_per_point` is gated by `bench_guard`).
//!
//! Usage: `cargo run --release --bin stream_bench [--features obs] \
//!            [-- <out.json>] [--metrics-out <metrics.json>] \
//!            [--fault-profile <spec>] [--checkpoint-every <N>] \
//!            [--checkpoint-out <ckpt.bin>] [--trace-out <t.trace.json>] \
//!            [--trace-buffer-events <N>] [--shards <N>] \
//!            [--telemetry-out <t.json>] [--telemetry-every <ms>]`

use rand::rngs::StdRng;
use rand::SeedableRng;
use sbc_bench::Workload;
use sbc_core::CoresetParams;
use sbc_distributed::DistributedCoreset;
use sbc_geometry::{dataset, GridParams};
use sbc_obs::fault::FaultPlan;
use sbc_streaming::model::{churn_stream, insertion_stream, StreamOp};
use sbc_streaming::{Snapshot, StreamCoresetBuilder, StreamParams};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Route every heap allocation through the tracking allocator: a
/// zero-overhead passthrough to `System` unless the `obs` feature
/// compiled the attribution paths in.
#[global_allocator]
static ALLOC: sbc_obs::alloc::TrackingAlloc = sbc_obs::alloc::TrackingAlloc;

/// Reference throughput of the seed ingest path (per-op linear scan over
/// the ladder with the SipHash-backed `Storing` maps, i.e. the code
/// before the batched/ladder-pruned/store-major ingest landed), measured
/// on this machine with the exact workloads below, best of 3. Kept so
/// the report records progress against the original implementation even
/// though the live `per_op` row (batches of one) also benefits from every
/// later store speedup.
fn seed_baseline(label: &str) -> Option<f64> {
    match label {
        "insert_only" => Some(9_926.0),
        "mixed_deletion_heavy" => Some(8_788.0),
        _ => None,
    }
}

struct PathResult {
    name: &'static str,
    /// Throughput of the fastest rep.
    ops_per_sec: f64,
    best_secs: f64,
    /// Median over reps of the per-op time over this path's time in the
    /// same rep.
    speedup_vs_per_op: f64,
}

/// Seconds of one full ingest of `ops` into a fresh builder.
fn time_ingest(params: &CoresetParams, ops: &[StreamOp], per_op: bool) -> f64 {
    let mut rng = StdRng::seed_from_u64(7);
    let mut builder = StreamCoresetBuilder::new(params.clone(), StreamParams::default(), &mut rng);
    let start = Instant::now();
    if per_op {
        for op in ops {
            builder.process(op);
        }
    } else {
        builder.process_all(ops);
    }
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(builder.net_count());
    secs
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// Times the per-op and batched paths, `reps` rounds of one run each,
/// interleaved so that host noise hits both paths of a round alike.
/// Throughput is best-of-`reps`; the speedup is the median of the
/// per-round ratios, which one slow run cannot move.
fn measure_paths(params: &CoresetParams, ops: &[StreamOp], reps: usize) -> [PathResult; 2] {
    let paths = [("per_op", true), ("batched", false)];
    let mut secs = [Vec::new(), Vec::new()];
    for _ in 0..reps {
        for ((_, per_op), times) in paths.iter().zip(&mut secs) {
            times.push(time_ingest(params, ops, *per_op));
        }
    }
    let per_op = secs[0].clone();
    std::array::from_fn(|k| {
        let best = secs[k].iter().copied().fold(f64::INFINITY, f64::min);
        PathResult {
            name: paths[k].0,
            ops_per_sec: ops.len() as f64 / best,
            best_secs: best,
            speedup_vs_per_op: median(per_op.iter().zip(&secs[k]).map(|(p, t)| p / t).collect()),
        }
    })
}

fn bench_workload(
    label: &str,
    params: &CoresetParams,
    ops: &[StreamOp],
    reps: usize,
    json: &mut String,
) {
    let results = measure_paths(params, ops, reps);
    let seed = seed_baseline(label);

    println!(
        "\n{label} ({} ops, best of {reps}; speedup: median of interleaved reps):",
        ops.len()
    );
    for r in &results {
        let vs_seed = seed
            .map(|s| format!("  {:>5.2}x vs seed", r.ops_per_sec / s))
            .unwrap_or_default();
        println!(
            "  {:<18} {:>12.0} ops/s  ({:.3} s)  {:>5.2}x vs per_op{vs_seed}",
            r.name, r.ops_per_sec, r.best_secs, r.speedup_vs_per_op
        );
    }

    let _ = writeln!(json, "    \"{label}\": {{\n      \"ops\": {},", ops.len());
    if let Some(s) = seed {
        let _ = writeln!(json, "      \"seed_per_op_ops_per_sec\": {s:.1},");
    }
    for (i, r) in results.iter().enumerate() {
        let vs_seed = seed
            .map(|s| format!(", \"speedup_vs_seed\": {:.3}", r.ops_per_sec / s))
            .unwrap_or_default();
        let _ = writeln!(
            json,
            "      \"{}\": {{ \"ops_per_sec\": {:.1}, \"seconds\": {:.6}, \"speedup_vs_per_op\": {:.3}{vs_seed} }}{}",
            r.name,
            r.ops_per_sec,
            r.best_secs,
            r.speedup_vs_per_op,
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    let _ = write!(json, "    }}");
}

/// The current git commit, or `"unknown"` outside a checkout.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Drives the downstream pipeline once so the `flow.*`, `dist.wire.*`,
/// `cluster.*` and `core.oracle.*` metrics carry real values alongside
/// the `stream.ingest.*` ones: a 2-machine distributed coreset over the
/// same workload, then an assignment oracle on its output.
fn exercise_pipeline(params: &CoresetParams, pts: &[sbc_geometry::Point]) {
    let shards = dataset::split_round_robin(pts, 2);
    let Ok((coreset, _stats)) =
        DistributedCoreset::run(&shards, params, &StreamParams::default(), 23)
    else {
        return;
    };
    let (cpts, cws) = coreset.split();
    let mut rng = StdRng::seed_from_u64(29);
    let centers =
        sbc_clustering::kmeanspp::kmeanspp_seeds(&cpts, Some(&cws), params.k, params.r, &mut rng);
    let cap = cws.iter().sum::<f64>() / params.k as f64 * 1.3;
    let _ = sbc_clustering::cost::capacitated_cost(&cpts, Some(&cws), &centers, cap, params.r);
    let _ = sbc_core::assign::build_assignment_oracle(&coreset, params, &centers, cap);
}

/// Timed sharded-ingest comparison on a larger stream: `shards` builders
/// fed by point-identity routing and folded up the merge tree, vs the
/// identical stream through one shard. Appends the `"sharding"` section.
fn bench_sharding(params: &CoresetParams, shards: usize, reps: usize, json: &mut String) {
    let n = 64_000usize;
    let pts = Workload::Gaussian.generate(params.grid, n, 3, 9);
    let ops = insertion_stream(&pts);

    let run = |s: usize, parallel: bool| -> (f64, usize, sbc::ShardedSpaceReport) {
        let sp = StreamParams::builder()
            .shards(s)
            .parallel(parallel)
            .build()
            .expect("valid stream params");
        let mut best = f64::INFINITY;
        let mut len = 0usize;
        let mut space = None;
        for _ in 0..reps {
            let mut ingest =
                sbc::ShardedIngest::new(params.clone(), sp, 7).expect("valid shard config");
            let start = Instant::now();
            ingest.process_all(&ops);
            space = Some(ingest.space_report());
            let coreset = ingest.finish().expect("sharded coreset");
            best = best.min(start.elapsed().as_secs_f64());
            len = coreset.len();
        }
        (best, len, space.expect("at least one rep"))
    };

    let (single_secs, single_len, _) = run(1, false);
    let (sharded_secs, sharded_len, space) = run(shards, true);
    let speedup = single_secs / sharded_secs;
    let threads = rayon::current_num_threads();
    assert_eq!(
        single_len, sharded_len,
        "sharded coreset must match the single-shard one"
    );

    println!("\nsharded ingest (gaussian n={n}, best of {reps}):");
    println!(
        "  single_shard       {:>12.0} ops/s  ({single_secs:.3} s)",
        n as f64 / single_secs
    );
    println!(
        "  {shards:>2} shards          {:>12.0} ops/s  ({sharded_secs:.3} s)  {speedup:>5.2}x vs single ({threads} threads available)",
        n as f64 / sharded_secs
    );

    let _ = writeln!(
        json,
        "  \"sharding\": {{\n    \"workload\": \"gaussian\",\n    \"n\": {n},\n    \"shards\": {shards},\n    \"threads_available\": {threads},\n    \"single_shard\": {{ \"seconds\": {single_secs:.6}, \"ops_per_sec\": {:.1} }},\n    \"sharded\": {{ \"seconds\": {sharded_secs:.6}, \"ops_per_sec\": {:.1} }},\n    \"speedup_vs_single\": {speedup:.3},\n    \"merged_coreset_len\": {sharded_len},\n    \"space_report\": {}\n  }},",
        n as f64 / single_secs,
        n as f64 / sharded_secs,
        space.to_json()
    );
}

/// Untimed robustness pass: ingest under `plan`, checkpointing (and
/// actually restoring — the resumed builder replaces the original, so a
/// broken restore cannot go unnoticed) every `checkpoint_every` ops.
/// Returns `(space report, checkpoints taken, last checkpoint bytes)`.
fn robustness_pass(
    params: &CoresetParams,
    plan: FaultPlan,
    ops: &[StreamOp],
    checkpoint_every: Option<usize>,
    checkpoint_out: Option<&str>,
) -> (sbc_streaming::SpaceReport, usize, Vec<u8>) {
    let sp = StreamParams::builder().faults(plan).build().expect("valid");
    let mut rng = StdRng::seed_from_u64(7);
    let mut builder = StreamCoresetBuilder::new(params.clone(), sp, &mut rng);
    let chunk = checkpoint_every.unwrap_or(ops.len().max(1));
    let mut taken = 0usize;
    let mut last_bytes = Vec::new();
    for slice in ops.chunks(chunk) {
        builder.process_all(slice);
        if checkpoint_every.is_some() {
            last_bytes = builder.checkpoint().expect("arena backend").to_bytes();
            let snap = Snapshot::from_bytes(&last_bytes).expect("own bytes decode");
            builder = StreamCoresetBuilder::restore(&snap).expect("own snapshot restores");
            taken += 1;
        }
    }
    if checkpoint_every.is_none() {
        last_bytes = builder.checkpoint().expect("arena backend").to_bytes();
    }
    if let Some(path) = checkpoint_out {
        std::fs::write(path, &last_bytes).unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
        println!("wrote {path} ({} checkpoint bytes)", last_bytes.len());
    }
    (builder.space_report(), taken, last_bytes)
}

/// `foo.json` → `foo.prom` (falls back to appending `.prom`): the
/// Prometheus sibling written next to a `--telemetry-out` JSON tail.
fn prom_sibling(path: &str) -> String {
    format!("{}.prom", path.strip_suffix(".json").unwrap_or(path))
}

/// Best-of-`reps` seconds for one batched ingest of `ops` (untimed
/// section; used to price the telemetry overheads below).
fn ingest_secs(params: &CoresetParams, ops: &[StreamOp], reps: usize) -> f64 {
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

/// Telemetry cost figures for the report (and for `obs_overhead`'s
/// budgets): nanoseconds of allocator bookkeeping per recorded
/// alloc/dealloc pair, the enabled-but-idle (recording flag clear)
/// allocator share of one ingest op, and the slowdown of a full ingest
/// with a default-cadence sampler running (signed: a sampled run that came out
/// faster reads negative, so noise is visible rather than hidden as 0).
struct OverheadFigures {
    alloc_pair_ns: f64,
    alloc_idle_pct: f64,
    sampling_pct: f64,
}

/// Fallback bound on heap alloc/dealloc pairs per amortized ingest op,
/// used when the tracking allocator is not installed to count the real
/// figure (batched ingest allocates on table growth and batch assembly
/// only).
const ALLOC_PAIRS_PER_OP: f64 = 8.0;

/// Prices the telemetry on a quiet process with metrics recording (and
/// so allocator attribution) switched off, as the timed sections run.
fn measure_overheads(params: &CoresetParams, ops: &[StreamOp], cadence_ms: u64) -> OverheadFigures {
    // Alloc/dealloc pairs per amortized op: counted by the tracking
    // allocator in one ingest with recording on when it is attributing,
    // otherwise the generous static bound.
    sbc_obs::set_enabled(true);
    let alloc_before = sbc_obs::alloc::snapshot();
    ingest_secs(params, ops, 1);
    let alloc_after = sbc_obs::alloc::snapshot();
    sbc_obs::set_enabled(false);
    let pairs_per_op = if alloc_after.tracking {
        let pairs = alloc_after
            .total
            .allocs
            .saturating_sub(alloc_before.total.allocs) as f64;
        pairs / ops.len() as f64
    } else {
        ALLOC_PAIRS_PER_OP
    };
    let base_secs = ingest_secs(params, ops, 2);
    let op_ns = base_secs * 1e9 / ops.len() as f64;

    // Allocator bookkeeping, priced directly: the recording path for one
    // alloc + dealloc of a mid-sized block (reported as alloc_pair_ns),
    // and the idle path with the flag clear — the permanent cost of
    // leaving the allocator installed — which is what the 1% budget in
    // obs_overhead covers. A no-op build measures ~0 for both (the hook
    // compiles to nothing).
    let pairs = 2_000_000u64;
    sbc_obs::set_enabled(true);
    let start = Instant::now();
    for i in 0..pairs {
        sbc_obs::alloc::__bench_record_pair(std::hint::black_box(256 + (i & 0xFF)));
    }
    let alloc_pair_ns = start.elapsed().as_secs_f64() * 1e9 / pairs as f64;
    sbc_obs::set_enabled(false);
    let start = Instant::now();
    for i in 0..pairs {
        sbc_obs::alloc::__bench_record_pair(std::hint::black_box(256 + (i & 0xFF)));
    }
    let idle_pair_ns = start.elapsed().as_secs_f64() * 1e9 / pairs as f64;
    let alloc_idle_pct = pairs_per_op * idle_pair_ns / op_ns * 100.0;

    // Sampling: the same ingest with a live sampler at the configured
    // cadence (no file export — pricing the snapshots, not the disk).
    let sampler = sbc_obs::timeline::Sampler::start(
        Duration::from_millis(cadence_ms),
        sbc_obs::timeline::DEFAULT_CAPACITY,
        None,
        None,
    );
    let sampled_secs = ingest_secs(params, ops, 2);
    sampler.stop();
    let sampling_pct = (sampled_secs / base_secs - 1.0) * 100.0;

    OverheadFigures {
        alloc_pair_ns,
        alloc_idle_pct,
        sampling_pct,
    }
}

fn main() {
    let mut out_path: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut fault_profile = "none".to_string();
    let mut checkpoint_every: Option<usize> = None;
    let mut checkpoint_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut trace_buffer: Option<usize> = None;
    let mut shards = 8usize;
    let mut telemetry_out: Option<String> = None;
    let mut telemetry_every_ms = sbc_obs::timeline::DEFAULT_CADENCE_MS;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--metrics-out" => {
                metrics_out = Some(args.next().expect("--metrics-out needs a path"));
            }
            "--trace-out" => {
                trace_out = Some(args.next().expect("--trace-out needs a path"));
            }
            "--trace-buffer-events" => {
                let n: usize = args
                    .next()
                    .expect("--trace-buffer-events needs an event count")
                    .parse()
                    .expect("--trace-buffer-events takes a positive integer");
                assert!(n > 0, "--trace-buffer-events takes a positive integer");
                trace_buffer = Some(n);
            }
            "--fault-profile" => {
                fault_profile = args.next().expect("--fault-profile needs a profile name");
            }
            "--checkpoint-every" => {
                let n: usize = args
                    .next()
                    .expect("--checkpoint-every needs an op count")
                    .parse()
                    .expect("--checkpoint-every takes a positive integer");
                assert!(n > 0, "--checkpoint-every takes a positive integer");
                checkpoint_every = Some(n);
            }
            "--checkpoint-out" => {
                checkpoint_out = Some(args.next().expect("--checkpoint-out needs a path"));
            }
            "--shards" => {
                shards = args
                    .next()
                    .expect("--shards needs a shard count")
                    .parse()
                    .expect("--shards takes a positive integer");
                assert!(shards > 0, "--shards takes a positive integer");
            }
            "--telemetry-out" => {
                telemetry_out = Some(args.next().expect("--telemetry-out needs a path"));
            }
            "--telemetry-every" => {
                telemetry_every_ms = args
                    .next()
                    .expect("--telemetry-every needs a cadence in ms")
                    .parse()
                    .expect("--telemetry-every takes a positive integer");
                assert!(
                    telemetry_every_ms > 0,
                    "--telemetry-every takes a positive integer"
                );
            }
            flag if flag.starts_with("--") => panic!("unknown flag {flag}"),
            path => out_path = Some(path.to_string()),
        }
    }
    let plan = FaultPlan::parse(&fault_profile).unwrap_or_else(|e| panic!("{e}"));
    let out_path = out_path.unwrap_or_else(|| "BENCH_streaming.json".into());
    let reps: usize = std::env::var("STREAM_BENCH_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5)
        .max(1); // 0 reps would emit inf/NaN — not representable in JSON

    let gp = GridParams::from_log_delta(8, 2);
    let params = CoresetParams::builder(3, gp).build().unwrap();
    let n = 4000usize;
    let pts = Workload::Gaussian.generate(gp, n, 3, 9);
    let insert_ops = insertion_stream(&pts);
    let mut rng = StdRng::seed_from_u64(17);
    let mixed_ops = churn_stream(&pts, 0.3, &mut rng);

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"schema_version\": 9,\n  \"git_commit\": \"{}\",\n  \"generated_at\": \"{}\",",
        git_commit(),
        sbc_obs::iso8601_utc_now()
    );
    let _ = writeln!(
        json,
        "  \"workload\": \"gaussian\",\n  \"n\": {n},\n  \"grid\": \"log_delta=8, d=2\",\n  \"threads_available\": {},\n  \"groups\": {{",
        rayon::current_num_threads()
    );
    bench_workload("insert_only", &params, &insert_ops, reps, &mut json);
    json.push_str(",\n");
    bench_workload("mixed_deletion_heavy", &params, &mixed_ops, reps, &mut json);
    json.push_str("\n  },\n");

    // Sharded merge-tree ingest on the larger stream (fewer reps — each
    // rep ingests 16× the ops of the headline workload).
    bench_sharding(&params, shards, reps.min(2), &mut json);

    // Flight recorder: the robustness and metrics passes run traced
    // (never the timed section above). Crash dumps from injected faults
    // land next to the report JSON.
    if let Some(n) = trace_buffer {
        sbc_obs::trace::set_capacity(n);
    }
    let crash_dir = std::path::Path::new(&out_path)
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .map(std::path::Path::to_path_buf)
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    sbc_obs::trace::set_crash_dir(Some(crash_dir));
    sbc_obs::trace::reset();
    sbc_obs::trace::set_enabled(true);

    // Telemetry sampler: spans the robustness and metrics passes (never
    // the timed section above). With `--telemetry-out` every tick
    // atomically rewrites a JSON tail plus a Prometheus sibling that
    // `sbc-top` (or a scraper) can watch mid-run; either way the final
    // ring feeds the report's `"telemetry"` section.
    let telemetry_json_path = telemetry_out.as_ref().map(std::path::PathBuf::from);
    let telemetry_prom_path = telemetry_out
        .as_ref()
        .map(|p| std::path::PathBuf::from(prom_sibling(p)));
    let sampler = sbc_obs::timeline::Sampler::start(
        Duration::from_millis(telemetry_every_ms),
        sbc_obs::timeline::DEFAULT_CAPACITY,
        telemetry_json_path.clone(),
        telemetry_prom_path.clone(),
    );

    // Robustness pass (untimed): fault injection + checkpoint/restore
    // cycling. Its space report carries the canonical kill taxonomy —
    // `runaway_kill` / `sketch_overflow`, the same snake_case names
    // `SpaceReport::to_json` emits (pinned by the bench schema test).
    let (rep, ckpts_taken, last_ckpt) = robustness_pass(
        &params,
        plan,
        &insert_ops,
        checkpoint_every,
        checkpoint_out.as_deref(),
    );
    println!(
        "\nrobustness pass (profile `{fault_profile}`): {} dead stores \
         ({} runaway_kill, {} sketch_overflow), {} checkpoint/restore cycles",
        rep.dead_stores, rep.runaway_kill, rep.sketch_overflow, ckpts_taken
    );
    let _ = writeln!(
        json,
        "  \"robustness\": {{\n    \"fault_profile\": \"{fault_profile}\",\n    \"checkpoints_taken\": {ckpts_taken},\n    \"checkpoint_bytes_last\": {},\n    \"space_report\": {}\n  }},",
        last_ckpt.len(),
        rep.to_json()
    );

    // Metrics recording (and allocator attribution, which shares its
    // flag) starts after the timed section so the counters describe one
    // clean, reproducible pass (and never skew the numbers above).
    // Without the `obs` feature this records nothing and the section
    // reports `"feature_enabled": false`.
    sbc_obs::reset();
    sbc_obs::set_enabled(true);
    if sbc_obs::enabled() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut builder =
            StreamCoresetBuilder::new(params.clone(), StreamParams::default(), &mut rng);
        builder.process_all(&insert_ops);
        exercise_pipeline(&params, &pts);
    }
    let snapshot = sbc_obs::snapshot();

    // Wind down the sampler (final tick + export flush) and read the
    // attribution while recording is still on, then price the telemetry
    // overheads on the now-quiet process.
    let timeline = sampler.stop();
    let alloc_snap = sbc_obs::alloc::snapshot();
    sbc_obs::set_enabled(false);
    let overhead = measure_overheads(&params, &insert_ops, telemetry_every_ms);
    let rss_peak = timeline.samples().map(|s| s.rss_bytes).max().unwrap_or(0);
    let peak_bytes_per_point = rep.peak_measured_bytes as f64 / n as f64;
    println!(
        "\ntelemetry: {} samples @ {telemetry_every_ms} ms (alloc tracking {}), \
         rss peak {}, peak {:.0} measured B/point",
        timeline.len(),
        if alloc_snap.tracking { "on" } else { "off" },
        sbc_streaming::human_bytes(rss_peak as usize),
        peak_bytes_per_point
    );
    println!(
        "  overhead: alloc pair {:.2} ns ({:.4}%/op idle), sampling {:.2}%",
        overhead.alloc_pair_ns, overhead.alloc_idle_pct, overhead.sampling_pct
    );
    let _ = writeln!(
        json,
        "  \"telemetry\": {{\n    \"alloc_tracking\": {},\n    \"cadence_ms\": {telemetry_every_ms},\n    \"samples\": {},\n    \"rss_peak_bytes\": {rss_peak},\n    \"alloc\": {},\n    \"space\": {{\n      \"measured_bytes\": {},\n      \"peak_measured_bytes\": {},\n      \"expected_sketch_bytes\": {},\n      \"nominal_sketch_bytes\": {},\n      \"nominal_to_measured_ratio\": {:.3},\n      \"peak_bytes_per_point\": {peak_bytes_per_point:.1}\n    }},\n    \"overhead\": {{\n      \"alloc_pair_ns\": {:.3},\n      \"alloc_idle_pct\": {:.4},\n      \"sampling_pct\": {:.3}\n    }}\n  }},",
        alloc_snap.tracking,
        timeline.len(),
        alloc_snap.to_json(),
        rep.measured_bytes,
        rep.peak_measured_bytes,
        rep.expected_sketch_bytes,
        rep.nominal_sketch_bytes,
        rep.nominal_to_measured_ratio(),
        overhead.alloc_pair_ns,
        overhead.alloc_idle_pct,
        overhead.sampling_pct,
    );
    if let (Some(jp), Some(pp)) = (&telemetry_json_path, &telemetry_prom_path) {
        println!("wrote {} + {}", jp.display(), pp.display());
    }

    sbc_obs::trace::set_enabled(false);
    let tsnap = sbc_obs::trace::snapshot();
    let _ = writeln!(
        json,
        "  \"trace\": {{\n    \"feature_enabled\": {},\n    \"buffer_events\": {},\n    \"total_events\": {},\n    \"dropped\": {},\n    \"threads\": {}\n  }},",
        tsnap.feature_enabled,
        tsnap.capacity,
        tsnap.total_events(),
        tsnap.dropped,
        tsnap.threads.len()
    );
    println!(
        "\nflight recorder: {} events across {} threads ({} dropped)",
        tsnap.total_events(),
        tsnap.threads.len(),
        tsnap.dropped
    );

    let _ = writeln!(json, "  \"metrics\": {}\n}}", snapshot.to_json());

    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("failed to write {out_path}: {e}"));
    println!("\nwrote {out_path}");
    if let Some(tpath) = trace_out {
        std::fs::write(&tpath, sbc_obs::trace::chrome_trace(&tsnap).render_pretty())
            .unwrap_or_else(|e| panic!("failed to write {tpath}: {e}"));
        let folded_path = format!("{}.folded", tpath.strip_suffix(".json").unwrap_or(&tpath));
        std::fs::write(&folded_path, sbc_obs::trace::folded_stacks(&tsnap))
            .unwrap_or_else(|e| panic!("failed to write {folded_path}: {e}"));
        println!("wrote {tpath} + {folded_path}");
    }
    if let Some(mpath) = metrics_out {
        std::fs::write(&mpath, snapshot.to_json().render_pretty())
            .unwrap_or_else(|e| panic!("failed to write {mpath}: {e}"));
        println!(
            "wrote {mpath} ({} counters, {} histograms)",
            snapshot.counters.len(),
            snapshot.histograms.len()
        );
    }
}
