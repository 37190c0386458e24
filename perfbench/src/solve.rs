//! `solve_balanced`: a small sliding-window stream over a 70/20/10
//! imbalanced mixture, so that capacities bind. A write is one
//! `process_all` batch; a read is `finish_ref` followed by capacitated
//! Lloyd at `cap = (1+η)·W/k` with a fixed per-solve seed — the
//! `sbc solve` path. Min-cost flow and Lloyd do most of the work.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sbc::clustering::capacitated::capacitated_lloyd_raw;
use sbc::{
    capacitated_cost, CoresetParams, GridParams, Point, SpaceReport, StreamCoresetBuilder,
    StreamOp, StreamParams,
};

use crate::churn::{fixed_mixture, Churn};
use crate::harness::{cpu_ns, median, peak_rss_mib, Opts, Phase, Report, Tracer, Window};
use crate::ingest::BUILDER_SEED;
use crate::layers;

struct Sizes {
    window: usize,
    batch: usize,
    pool: usize,
    read_every: u64,
    min_ops: u64,
    setup_reps: usize,
}

const FULL: Sizes = Sizes {
    window: 250,
    batch: 8,
    pool: 20_000,
    read_every: 10,
    min_ops: 1100,
    setup_reps: 5,
};

const TINY: Sizes = Sizes {
    window: 300,
    batch: 8,
    pool: 1_000,
    read_every: 4,
    min_ops: 20,
    setup_reps: 2,
};

/// A 70/20/10 mixture, as in the repository's imbalanced workload.
const CLUSTERS: [(f64, f64, f64); 3] = [(0.3, 0.3, 0.7), (0.7, 0.35, 0.2), (0.5, 0.72, 0.1)];

/// The seed of every solve's k-means++ start.
const SOLVE_SEED: u64 = 0x5017;

/// Lloyd iterations per solve, as in `sbc solve`.
const LLOYD_ITERS: usize = 10;

/// One solve, kept for the output check after the window.
struct Solved {
    points: Vec<Point>,
    weights: Vec<f64>,
    cap: f64,
    centers: Vec<Point>,
    cost: f64,
    max_load: f64,
}

pub fn run(opts: &Opts) -> Report {
    let z = if opts.tiny { &TINY } else { &FULL };
    let gp = GridParams::from_log_delta(8, 2);
    let params = CoresetParams::builder(3, gp)
        .build()
        .expect("library defaults are valid");
    let (k, r, eta) = (params.k, params.r, params.eta);
    let pool = fixed_mixture(gp, z.pool, &CLUSTERS, 0.03, opts.seed);
    let churn = Churn::new(pool, z.window, z.batch);
    let fill: Vec<StreamOp> = churn.fill().into_iter().map(StreamOp::Insert).collect();
    let mut tracer = Tracer::new(opts.traced);

    let mut setups = Vec::with_capacity(z.setup_reps);
    let mut builder = None;
    for _ in 0..z.setup_reps {
        drop(builder.take());
        let t0 = cpu_ns();
        let mut rng = StdRng::seed_from_u64(BUILDER_SEED);
        let mut b = StreamCoresetBuilder::new(params.clone(), StreamParams::default(), &mut rng);
        b.process_all(&fill);
        setups.push((cpu_ns() - t0) as f64 / 1e9);
        builder = Some(b);
    }
    let mut b = builder.expect("at least one set-up");

    tracer.set_phase(Phase::Window);
    let mut w = Window::open();
    let mut writes = 0usize;
    let mut solved: Vec<Solved> = Vec::new();
    // Exact counts up to the probe: coreset points, Lloyd iterations and
    // split points summed over the solves, and the space report.
    let (mut len_sum, mut iter_sum, mut split_sum) = (0u64, 0u64, 0u64);
    let mut probe: Option<(SpaceReport, usize)> = None;
    let mut op = 0u64;
    while !w.done(opts, z.min_ops) {
        tracer.set_op(op);
        if op % (z.read_every + 1) == z.read_every {
            let t0 = cpu_ns();
            match tracer.span(layers::STREAM_FINISH, || b.finish_ref()) {
                Ok(coreset) => {
                    let (points, weights) = tracer.span(layers::CORE_SPLIT, || coreset.split());
                    let cap = (1.0 + eta) * weights.iter().sum::<f64>() / k as f64;
                    let sol = tracer.span(layers::LLOYD, || {
                        let mut rng = StdRng::seed_from_u64(SOLVE_SEED);
                        capacitated_lloyd_raw(
                            &points,
                            Some(&weights),
                            k,
                            r,
                            cap,
                            LLOYD_ITERS,
                            &mut rng,
                        )
                    });
                    w.reads.push(t0, cpu_ns());
                    if probe.is_none() {
                        len_sum += points.len() as u64;
                        iter_sum += sol.iterations as u64;
                        split_sum += sol.assignment.num_split_points() as u64;
                    }
                    solved.push(Solved {
                        points,
                        weights,
                        cap,
                        max_load: sol.assignment.max_load(),
                        centers: sol.centers,
                        cost: sol.cost,
                    });
                }
                Err(e) => {
                    w.reads.push(t0, cpu_ns());
                    eprintln!("solve_balanced: finish_ref failed: {e}");
                    w.failed += 1;
                }
            }
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
            probe = Some((b.space_report(), solved.len()));
        }
    }
    w.close();
    let peak_rss = peak_rss_mib();
    let (space, probe_solves) = probe.expect("the window holds min_ops operations");

    // Output check: every solution respects its capacity, and a fresh
    // capacitated-cost evaluation of its centers gives its cost.
    tracer.set_phase(Phase::Check);
    let mut bad = 0u64;
    for (i, s) in solved.iter().enumerate() {
        tracer.set_op(i as u64);
        let cost = tracer.span(layers::TRANSPORT, || {
            capacitated_cost(&s.points, Some(&s.weights), &s.centers, s.cap, r)
        });
        let ok =
            s.max_load <= s.cap * (1.0 + 1e-9) && (cost - s.cost).abs() <= 1e-9 * s.cost.max(1.0);
        if !ok {
            eprintln!(
                "solve_balanced: solve {i}: max load {} vs cap {}, cost {} vs re-evaluated {cost}",
                s.max_load, s.cap, s.cost
            );
            bad += 1;
        }
    }

    let mut rep = Report {
        correct: bad == 0 && w.failed == 0,
        attempted: w.ops() + solved.len() as u64,
        failed: w.failed + bad,
        ..Report::default()
    };
    if opts.traced {
        let per_solve = |v: u64| v as f64 / probe_solves.max(1) as f64;
        let (ingest_ns, _) = tracer.total(layers::STREAM_INGEST, Phase::Window);
        let mut l = layers::Ledger {
            ingest_ns_per_update: ingest_ns as f64 / w.updates as f64,
            finish_ref_ms: tracer.mean_ms(layers::STREAM_FINISH, Phase::Window),
            coreset_len: per_solve(len_sum),
            split_us: tracer.mean_ms(layers::CORE_SPLIT, Phase::Window) * 1e3,
            lloyd_ms: tracer.mean_ms(layers::LLOYD, Phase::Window),
            lloyd_iterations: per_solve(iter_sum),
            transport_ms: tracer.mean_ms(layers::TRANSPORT, Phase::Check),
            split_points: per_solve(split_sum),
            ..layers::Ledger::default()
        };
        l.space(&[space]);
        l.emit(&mut rep);
        rep.traced_window(&tracer, &w);
        crate::write_spans(opts, "solve_balanced", &tracer);
    } else {
        rep.end_to_end(median(setups), &w, space.measured_bytes as u64, peak_rss);
    }
    crate::ingest::exact_space(&mut rep, &[space]);
    rep.exact("probe_solves", probe_solves as u64);
    rep.exact("coreset_len_sum", len_sum);
    rep.exact("lloyd_iterations_sum", iter_sum);
    rep.exact("split_points_sum", split_sum);
    rep
}
