//! `ingest_churn`: one `StreamCoresetBuilder` at library defaults fed a
//! sliding-window dynamic stream through `process_all`. Routing, the
//! `Storing` summaries and their open-addressing arenas do nearly all
//! the work; no wire, service or flow is involved.
//!
//! A write is one `process_all` call (a batch of inserts plus the
//! deletes of as many of the oldest points). A read is `space_report`,
//! the accounting walk the service repeats after every mutation for its
//! admission control; `finish_ref` stays off this path.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sbc::{CoresetParams, GridParams, SpaceReport, StreamCoresetBuilder, StreamOp, StreamParams};
use std::hint::black_box;

use crate::churn::{fixed_mixture, Churn};
use crate::harness::{cpu_ns, median, peak_rss_mib, Opts, Phase, Report, Tracer, Window};
use crate::layers;

struct Sizes {
    window: usize,
    batch: usize,
    pool: usize,
    /// One read after every `read_every` writes.
    read_every: u64,
    /// Operations the window holds at least; the exact counts are taken
    /// right after this many.
    min_ops: u64,
    setup_reps: usize,
}

const FULL: Sizes = Sizes {
    window: 4000,
    batch: 64,
    pool: 40_000,
    read_every: 8,
    min_ops: 1125,
    setup_reps: 5,
};

const TINY: Sizes = Sizes {
    window: 400,
    batch: 16,
    pool: 2_000,
    read_every: 8,
    min_ops: 36,
    setup_reps: 2,
};

/// Three equal clusters, as in the repository's Gaussian workload.
const CLUSTERS: [(f64, f64, f64); 3] = [
    (0.3, 0.3, 1.0 / 3.0),
    (0.7, 0.35, 1.0 / 3.0),
    (0.5, 0.72, 1.0 / 3.0),
];

/// The builder's own seed (its shifted grids and hash functions) is part
/// of the workload, not of its input: it stays fixed across seeds.
pub const BUILDER_SEED: u64 = 0x5bc;

pub fn run(opts: &Opts) -> Report {
    let z = if opts.tiny { &TINY } else { &FULL };
    let gp = GridParams::from_log_delta(8, 2);
    let params = CoresetParams::builder(3, gp)
        .build()
        .expect("library defaults are valid");
    let sp = StreamParams::default();
    let pool = fixed_mixture(gp, z.pool, &CLUSTERS, 0.04, opts.seed);
    let churn = Churn::new(pool, z.window, z.batch);
    let fill: Vec<StreamOp> = churn.fill().into_iter().map(StreamOp::Insert).collect();
    let new_builder =
        || StreamCoresetBuilder::new(params.clone(), sp, &mut StdRng::seed_from_u64(BUILDER_SEED));
    let mut tracer = Tracer::new(opts.traced);

    // Set-up: builder construction plus the fill, repeated; the last
    // builder runs the window.
    let mut setups = Vec::with_capacity(z.setup_reps);
    let mut builder = None;
    for _ in 0..z.setup_reps {
        drop(builder.take());
        let t0 = cpu_ns();
        let mut b = new_builder();
        b.process_all(&fill);
        setups.push((cpu_ns() - t0) as f64 / 1e9);
        builder = Some(b);
    }
    let mut b = builder.expect("at least one set-up");

    tracer.set_phase(Phase::Window);
    let mut w = Window::open();
    let mut writes = 0usize;
    let mut probe: Option<SpaceReport> = None;
    let mut op = 0u64;
    while !w.done(opts, z.min_ops) {
        tracer.set_op(op);
        if op % (z.read_every + 1) == z.read_every {
            let t0 = cpu_ns();
            let report = tracer.span(layers::STREAM_SPACE, || b.space_report());
            w.reads.push(t0, cpu_ns());
            black_box(report);
        } else {
            let ops = churn.write_ops(writes);
            let t0 = cpu_ns();
            tracer.span(layers::STREAM_INGEST, || b.process_all(&ops));
            w.writes.push(t0, cpu_ns());
            w.updates += ops.len() as u64;
            writes += 1;
        }
        op += 1;
        if op == z.min_ops {
            probe = Some(b.space_report());
        }
    }
    w.close();
    let peak_rss = peak_rss_mib();
    let probe = probe.expect("the window holds min_ops operations");

    // Output check: the same stream rebuilt in one `process_all` call
    // (other batch boundaries) must give a bit-identical coreset.
    let mut all = fill;
    for i in 0..writes {
        all.extend(churn.write_ops(i));
    }
    let mut rebuilt = new_builder();
    rebuilt.process_all(&all);
    let same = match (b.finish_ref(), rebuilt.finish_ref()) {
        (Ok(a), Ok(c)) => crate::same_coreset(&a, &c),
        _ => false,
    } && b.space_report().measured_bytes == rebuilt.space_report().measured_bytes;
    if !same {
        eprintln!("ingest_churn: coreset differs from the rebuilt stream");
    }

    let mut r = Report {
        correct: same,
        attempted: w.ops() + 1,
        failed: w.failed + u64::from(!same),
        ..Report::default()
    };
    if opts.traced {
        let (ingest_ns, _) = tracer.total(layers::STREAM_INGEST, Phase::Window);
        let mut l = layers::Ledger {
            ingest_ns_per_update: ingest_ns as f64 / w.updates as f64,
            space_report_us: tracer.mean_ms(layers::STREAM_SPACE, Phase::Window) * 1e3,
            ..layers::Ledger::default()
        };
        l.space(&[probe]);
        l.emit(&mut r);
        r.traced_window(&tracer, &w);
        crate::write_spans(opts, "ingest_churn", &tracer);
    } else {
        r.end_to_end(median(setups), &w, probe.measured_bytes as u64, peak_rss);
    }
    exact_space(&mut r, &[probe]);
    r.exact("net_count", b.net_count() as u64);
    r.exact("probe_ops", z.min_ops);
    r
}

/// The `SpaceReport` counts the exact-count guard compares, summed over
/// the builders given.
pub fn exact_space(r: &mut Report, reports: &[SpaceReport]) {
    let sum = |f: fn(&SpaceReport) -> usize| reports.iter().map(f).sum::<usize>() as u64;
    r.exact("measured_bytes", sum(|s| s.measured_bytes));
    r.exact("arena_slots", sum(|s| s.arena_slots));
    r.exact("arena_entries", sum(|s| s.arena_entries));
    r.exact("live_stores", sum(|s| s.live_stores));
    r.exact("dead_stores", sum(|s| s.dead_stores));
}
