//! The experiment harness: regenerates every table of EXPERIMENTS.md.
//!
//! The paper (a theory brief announcement) has no empirical section, so
//! the suite S1, E1–E10, E12 is derived from its theorem statements —
//! the mapping is documented in DESIGN.md §4 (E11, the fault-profile
//! sweep, lives in `stream_bench`). Run all experiments or a subset:
//!
//! ```sh
//! cargo run --release -p sbc-bench --bin experiments            # all
//! cargo run --release -p sbc-bench --bin experiments -- e1 e4   # subset
//! cargo run --release -p sbc-bench --bin experiments -- --quick # smaller sizes
//! ```
//!
//! With the `obs` feature, `--metrics-out <path>` writes the metrics
//! snapshot accumulated across the selected experiments as JSON,
//! `--trace-out <path>` exports the flight-recorder timeline as Chrome
//! `trace_event` JSON (plus a `.folded` flamegraph file next to it),
//! and `--trace-buffer-events <N>` sizes the per-thread ring buffers.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sbc_bench::{fmt, fmt_bytes, quality, weighted_summary_quality, Table, Workload};
use sbc_clustering::baselines::{sensitivity_coreset, uniform_coreset};
use sbc_clustering::capacitated::capacitated_lloyd_raw;
use sbc_clustering::cost::capacitated_cost;
use sbc_clustering::three_pass::ThreePassBaseline;
use sbc_core::assign::{build_assignment_oracle, reoptimize_fixed_sizes};
use sbc_core::halfspace::{canonicalize_assignment, AssignmentHalfspaces};
use sbc_core::{build_coreset, ConstantsProfile, CoresetParams};
use sbc_distributed::DistributedCoreset;
use sbc_flow::rounding::integral_capacitated_assignment;
use sbc_geometry::dataset::{split_round_robin, two_phase_dynamic};
use sbc_geometry::GridParams;
use sbc_streaming::model::{insert_delete_stream, insertion_stream};
use sbc_streaming::storing::{Storing, StoringConfig};
use sbc_streaming::{StreamCoresetBuilder, StreamParams};
use std::time::Instant;

struct Scale {
    n_quality: usize,
    n_scaling: Vec<usize>,
    n_time: Vec<usize>,
    n_stream: Vec<usize>,
    machines: Vec<usize>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    // Flags that take a value; their value token is not an experiment id.
    const VALUE_FLAGS: [&str; 3] = ["--metrics-out", "--trace-out", "--trace-buffer-events"];
    let flag_value = |flag: &str| {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("{flag} needs a value"))
                .clone()
        })
    };
    let metrics_out = flag_value("--metrics-out");
    let trace_out = flag_value("--trace-out");
    let trace_buffer: Option<usize> = flag_value("--trace-buffer-events").map(|s| {
        let n = s
            .parse()
            .expect("--trace-buffer-events takes a positive integer");
        assert!(n > 0, "--trace-buffer-events takes a positive integer");
        n
    });
    let mut skip_next = false;
    let wanted: Vec<&str> = args
        .iter()
        .filter(|a| {
            if skip_next {
                skip_next = false;
                return false;
            }
            if VALUE_FLAGS.contains(&a.as_str()) {
                skip_next = true;
            }
            !a.starts_with("--")
        })
        .map(String::as_str)
        .collect();
    let run = |id: &str| wanted.is_empty() || wanted.contains(&id);
    sbc_obs::set_enabled(true); // no-op unless built with the obs feature
    if let Some(n) = trace_buffer {
        sbc_obs::trace::set_capacity(n);
    }
    if trace_out.is_some() {
        sbc_obs::trace::set_enabled(true); // likewise a no-op without `obs`
    }

    let scale = if quick {
        Scale {
            n_quality: 4000,
            n_scaling: vec![4000, 8000],
            n_time: vec![8000, 32_000],
            n_stream: vec![4000, 16_000],
            machines: vec![2, 4, 8],
        }
    } else {
        Scale {
            // Sized for a single-core CI-class machine: the dominant cost
            // is exact min-cost-flow evaluation on the *full* data, which
            // only the quality experiments need.
            n_quality: 4000,
            n_scaling: vec![8000, 32_000, 128_000],
            n_time: vec![8000, 32_000, 128_000, 512_000],
            n_stream: vec![4000, 16_000, 64_000],
            machines: vec![2, 4, 8, 16],
        }
    };

    println!("# Streaming Balanced Clustering — experiment harness");
    println!(
        "(profile: {}, see EXPERIMENTS.md for the index)\n",
        if quick { "quick" } else { "full" }
    );

    if run("s1") {
        s1_separability();
    }
    if run("e1") {
        e1_coreset_quality(&scale);
    }
    if run("e2") {
        e2_size_scaling(&scale);
    }
    if run("e3") {
        e3_build_time(&scale);
    }
    if run("e4") {
        e4_streaming_space(&scale);
    }
    if run("e5") {
        e5_streaming_vs_offline(&scale);
    }
    if run("e6") {
        e6_distributed(&scale);
    }
    if run("e7") {
        e7_end_to_end(&scale);
    }
    if run("e8") {
        e8_three_pass_baseline(&scale);
    }
    if run("e9") {
        e9_ablations(&scale);
    }
    if run("e10") {
        e10_assignment_oracle(&scale);
    }
    if run("e12") {
        e12_shard_sweep(&scale);
    }

    if let Some(path) = metrics_out {
        let snapshot = sbc_obs::snapshot();
        std::fs::write(&path, snapshot.to_json().render_pretty())
            .unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
        println!(
            "wrote {path} ({} counters, {} histograms)",
            snapshot.counters.len(),
            snapshot.histograms.len()
        );
    }
    if let Some(tpath) = trace_out {
        sbc_obs::trace::set_enabled(false);
        let tsnap = sbc_obs::trace::snapshot();
        std::fs::write(&tpath, sbc_obs::trace::chrome_trace(&tsnap).render_pretty())
            .unwrap_or_else(|e| panic!("failed to write {tpath}: {e}"));
        let folded_path = format!("{}.folded", tpath.strip_suffix(".json").unwrap_or(&tpath));
        std::fs::write(&folded_path, sbc_obs::trace::folded_stacks(&tsnap))
            .unwrap_or_else(|e| panic!("failed to write {folded_path}: {e}"));
        println!(
            "wrote {tpath} + {folded_path} ({} events, {} dropped)",
            tsnap.total_events(),
            tsnap.dropped
        );
    }
}

fn default_params(k: usize, r: f64) -> CoresetParams {
    CoresetParams::builder(k, GridParams::from_log_delta(8, 2))
        .r(r)
        .build()
        .unwrap()
}

/// S1 — half-space separability of optimal capacitated assignments
/// (Lemma 3.8 / Figures 1 & 3).
fn s1_separability() {
    println!("## S1 — curved-half-space separability of optimal assignments\n");
    let gp = GridParams::from_log_delta(6, 2);
    let mut table = Table::new(&["r", "instances", "separable", "rate"]);
    for &r in &[1.0f64, 2.0] {
        let mut separable = 0;
        let trials = 60;
        for seed in 0..trials {
            // Footnote 4: points must have distinct coordinates.
            let mut pts = Workload::Gaussian.generate(gp, 24, 3, 1000 + seed);
            pts.sort();
            pts.dedup();
            let centers = Workload::Uniform.generate(gp, 3, 3, 2000 + seed);
            let cap = (pts.len() as f64 / 3.0).ceil() + (seed % 3) as f64;
            let Some(ia) = integral_capacitated_assignment(&pts, None, &centers, cap, r) else {
                continue;
            };
            let mut assign = ia.center_of;
            // §3.3: make the assignment optimal for its own size vector,
            // then break ties alphabetically — the preconditions of
            // Lemma 3.8's separability argument.
            reoptimize_fixed_sizes(&pts, &mut assign, &centers, r);
            canonicalize_assignment(&pts, &mut assign, &centers, r);
            let hs = AssignmentHalfspaces::from_assignment(&pts, &assign, &centers, r);
            if hs.is_valid_for(&pts, &assign) {
                separable += 1;
            }
        }
        table.row(vec![
            fmt(r),
            trials.to_string(),
            separable.to_string(),
            format!("{:.0}%", 100.0 * separable as f64 / trials as f64),
        ]);
    }
    table.print();
    println!("Paper prediction: 100% (Lemma 3.8; ties broken alphabetically).\n");
}

/// E1 — strong-coreset quality across workloads and r.
fn e1_coreset_quality(scale: &Scale) {
    println!("## E1 — coreset preserves capacitated cost (Thm 3.19 item 1)\n");
    let n = scale.n_quality;
    let mut table = Table::new(&[
        "workload",
        "r",
        "n",
        "|Q'|",
        "compress",
        "upper",
        "lower",
        "bound 1+eps",
    ]);
    for w in Workload::all() {
        for &r in &[1.0f64, 2.0] {
            let params = default_params(3, r);
            let pts = w.generate(params.grid, n, 3, 77);
            let mut rng = StdRng::seed_from_u64(7);
            let cs = match build_coreset(&pts, &params, &mut rng) {
                Ok(cs) => cs,
                Err(e) => {
                    table.row(vec![
                        w.name().into(),
                        fmt(r),
                        n.to_string(),
                        format!("FAIL: {e}"),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                    ]);
                    continue;
                }
            };
            let q = quality(&pts, &cs, &params, 4, &[1.2, 2.0], 99);
            table.row(vec![
                w.name().into(),
                fmt(r),
                n.to_string(),
                cs.len().to_string(),
                format!("{:.1}x", n as f64 / cs.len() as f64),
                fmt(q.upper),
                fmt(q.lower),
                fmt(1.0 + params.eps),
            ]);
        }
    }
    table.print();
    println!("Shape check: upper/lower ratios stay near 1 (well under ~1+2eps),");
    println!("on the imbalanced workloads too — the capacitated-specific claim.\n");
}

/// E2 — coreset size scales poly(k, d, log Δ), independent of n.
fn e2_size_scaling(scale: &Scale) {
    println!("## E2 — coreset size: poly(k d log Δ), independent of n (Thm 3.19 item 2)\n");
    let mut table = Table::new(&["sweep", "value", "n", "|Q'|", "total weight"]);
    // n sweep at fixed parameters.
    for &n in &scale.n_scaling {
        let params = default_params(3, 2.0);
        let pts = Workload::Gaussian.generate(params.grid, n, 3, 5);
        let mut rng = StdRng::seed_from_u64(1);
        let cs = build_coreset(&pts, &params, &mut rng).unwrap();
        table.row(vec![
            "n".into(),
            n.to_string(),
            n.to_string(),
            cs.len().to_string(),
            fmt(cs.total_weight()),
        ]);
    }
    // k sweep.
    for &k in &[2usize, 4, 8] {
        let params = default_params(k, 2.0);
        let n = scale.n_quality * 2;
        let pts = Workload::Gaussian.generate(params.grid, n, k, 6);
        let mut rng = StdRng::seed_from_u64(2);
        let cs = build_coreset(&pts, &params, &mut rng).unwrap();
        table.row(vec![
            "k".into(),
            k.to_string(),
            n.to_string(),
            cs.len().to_string(),
            fmt(cs.total_weight()),
        ]);
    }
    // d sweep.
    for &d in &[2usize, 4, 6] {
        let gp = GridParams::from_log_delta(8, d);
        let params = CoresetParams::builder(3, gp).build().unwrap();
        let n = scale.n_quality * 2;
        let pts = Workload::Gaussian.generate(gp, n, 3, 7);
        let mut rng = StdRng::seed_from_u64(3);
        let cs = build_coreset(&pts, &params, &mut rng).unwrap();
        table.row(vec![
            "d".into(),
            d.to_string(),
            n.to_string(),
            cs.len().to_string(),
            fmt(cs.total_weight()),
        ]);
    }
    // L = log Δ sweep.
    for &l in &[6u32, 8, 10] {
        let gp = GridParams::from_log_delta(l, 2);
        let params = CoresetParams::builder(3, gp).build().unwrap();
        let n = scale.n_quality * 2;
        let pts = Workload::Gaussian.generate(gp, n, 3, 8);
        let mut rng = StdRng::seed_from_u64(4);
        let cs = build_coreset(&pts, &params, &mut rng).unwrap();
        table.row(vec![
            "log Δ".into(),
            l.to_string(),
            n.to_string(),
            cs.len().to_string(),
            fmt(cs.total_weight()),
        ]);
    }
    table.print();
    println!("Shape check: |Q'| roughly flat in n, grows with k, d and log Δ.\n");
}

/// E3 — near-linear construction time (Thm 3.19: O(nd log²(ndΔ))).
fn e3_build_time(scale: &Scale) {
    println!("## E3 — construction time is near-linear in n (Thm 3.19)\n");
    let mut table = Table::new(&["n", "build time", "ns/point", "|Q'|"]);
    for &n in &scale.n_time {
        let params = default_params(3, 2.0);
        let pts = Workload::Gaussian.generate(params.grid, n, 3, 9);
        let mut rng = StdRng::seed_from_u64(5);
        let t0 = Instant::now();
        let cs = build_coreset(&pts, &params, &mut rng).unwrap();
        let dt = t0.elapsed();
        table.row(vec![
            n.to_string(),
            format!("{dt:.2?}"),
            fmt(dt.as_nanos() as f64 / n as f64),
            cs.len().to_string(),
        ]);
    }
    table.print();
    println!("Shape check: ns/point roughly constant (log factors only).\n");
}

/// E4 — streaming space, with and without deletions; sketch sizes.
fn e4_streaming_space(scale: &Scale) {
    println!("## E4 — streaming space: poly(k d log Δ) summaries, deletions supported (Thm 4.5)\n");
    let mut table = Table::new(&[
        "n",
        "deleted",
        "ops",
        "hash state",
        "store state",
        "dead stores",
        "|Q'|",
    ]);
    for &n in &scale.n_stream {
        for &churn_frac in &[0.0f64, 0.5] {
            let params = default_params(3, 2.0);
            let churn = (n as f64 * churn_frac) as usize;
            let ds = two_phase_dynamic(params.grid, n, churn, 3, 11);
            let mut rng = StdRng::seed_from_u64(6);
            let ops = if churn == 0 {
                insertion_stream(&ds.kept)
            } else {
                insert_delete_stream(&ds.kept, &ds.churn, &mut rng)
            };
            let mut b = StreamCoresetBuilder::new(params, StreamParams::default(), &mut rng);
            b.process_all(&ops);
            let rep = b.space_report();
            let cs = b.finish();
            table.row(vec![
                n.to_string(),
                churn.to_string(),
                ops.len().to_string(),
                fmt_bytes(rep.hash_bytes as u64),
                fmt_bytes(rep.store_bytes as u64),
                rep.dead_stores.to_string(),
                cs.map(|c| c.len().to_string())
                    .unwrap_or_else(|e| format!("FAIL {e}")),
            ]);
        }
    }
    table.print();

    println!("Linear-sketch `Storing` sizes (the Lemma 4.2 space accounting —");
    println!("fixed at allocation, independent of the stream length):\n");
    let mut table = Table::new(&["alpha", "beta", "sketch bytes"]);
    for (alpha, beta) in [(64usize, 4usize), (256, 8), (1024, 16)] {
        let cfg = StoringConfig {
            alpha,
            beta,
            rows: 4,
        };
        table.row(vec![
            alpha.to_string(),
            beta.to_string(),
            fmt_bytes(Storing::nominal_sketch_bytes(&cfg) as u64),
        ]);
    }
    table.print();
    println!("Shape check: hash state constant; store state grows sublinearly in n");
    println!("(and is bounded for the sketch backend); deletions change nothing.\n");
}

/// E5 — streaming quality ≈ offline quality.
fn e5_streaming_vs_offline(scale: &Scale) {
    println!("## E5 — streaming coreset quality matches offline (Thm 4.5 item 1)\n");
    let n = scale.n_quality;
    let mut table = Table::new(&["path", "workload", "|Q'|", "upper", "lower"]);
    for w in [Workload::Gaussian, Workload::Imbalanced] {
        let params = default_params(3, 2.0);
        let pts = w.generate(params.grid, n, 3, 13);
        let mut rng = StdRng::seed_from_u64(8);
        let off = build_coreset(&pts, &params, &mut rng).unwrap();
        let qo = quality(&pts, &off, &params, 3, &[1.2, 2.0], 111);
        table.row(vec![
            "offline".into(),
            w.name().into(),
            off.len().to_string(),
            fmt(qo.upper),
            fmt(qo.lower),
        ]);
        let mut b = StreamCoresetBuilder::new(params.clone(), StreamParams::default(), &mut rng);
        b.process_all(&insertion_stream(&pts));
        let st = b.finish().unwrap();
        let qs = quality(&pts, &st, &params, 3, &[1.2, 2.0], 111);
        table.row(vec![
            "streaming".into(),
            w.name().into(),
            st.len().to_string(),
            fmt(qs.upper),
            fmt(qs.lower),
        ]);
    }
    table.print();
    println!("Shape check: the two paths' worst ratios are comparable.\n");
}

/// E6 — distributed communication ∝ s, quality preserved.
fn e6_distributed(scale: &Scale) {
    println!("## E6 — distributed: communication ∝ s · poly(k d log Δ) (Thm 4.7)\n");
    let params = default_params(3, 2.0);
    let n = scale.n_quality * 2;
    let pts = Workload::Gaussian.generate(params.grid, n, 3, 15);
    let mut table = Table::new(&[
        "s",
        "broadcast",
        "upload",
        "upload/machine",
        "|Q'|",
        "worst ratio",
    ]);
    for &s in &scale.machines {
        let shards = split_round_robin(&pts, s);
        let (cs, stats) =
            DistributedCoreset::run_threaded(&shards, &params, &StreamParams::default(), 19)
                .expect("protocol");
        let q = quality(&pts, &cs, &params, 2, &[1.3, 2.0], 222);
        table.row(vec![
            s.to_string(),
            fmt_bytes(stats.broadcast_bytes),
            fmt_bytes(stats.upload_bytes),
            fmt_bytes(stats.upload_bytes / s as u64),
            cs.len().to_string(),
            fmt(q.worst()),
        ]);
    }
    table.print();
    println!("Shape check: upload/machine shrinks (bounded sketch images), total upload");
    println!("grows ≲ linearly in s; quality flat across s.\n");
}

/// E7 — end-to-end: solve on coreset vs solve on full data.
fn e7_end_to_end(scale: &Scale) {
    println!("## E7 — end-to-end capacitated solving on coreset vs full data (Fact 2.3)\n");
    let n = scale.n_quality.min(8000);
    let k = 3;
    let mut table = Table::new(&[
        "workload",
        "r",
        "solve on",
        "time",
        "centers' cost on full Q",
    ]);
    for w in [Workload::Gaussian, Workload::Imbalanced] {
        for &r in &[1.0f64, 2.0] {
            let params = default_params(k, r);
            let pts = w.generate(params.grid, n, k, 17);
            let cap = n as f64 / k as f64 * 1.25;
            let mut rng = StdRng::seed_from_u64(10);

            // On the full data (the expensive reference).
            let t0 = Instant::now();
            let full_sol = capacitated_lloyd_raw(&pts, None, k, r, cap, 8, &mut rng);
            let t_full = t0.elapsed();
            let full_eval = capacitated_cost(&pts, None, &full_sol.centers, cap * 1.2, r);
            table.row(vec![
                w.name().into(),
                fmt(r),
                format!("full ({n})"),
                format!("{t_full:.2?}"),
                fmt(full_eval),
            ]);

            // On the coreset.
            let t0 = Instant::now();
            let cs = build_coreset(&pts, &params, &mut rng).unwrap();
            let (cpts, cws) = cs.split();
            let cs_sol = capacitated_lloyd_raw(&cpts, Some(&cws), k, r, cap, 8, &mut rng);
            let t_cs = t0.elapsed();
            let cs_eval = capacitated_cost(&pts, None, &cs_sol.centers, cap * 1.2, r);
            table.row(vec![
                w.name().into(),
                fmt(r),
                format!("coreset ({})", cs.len()),
                format!("{t_cs:.2?}"),
                fmt(cs_eval),
            ]);
        }
    }
    table.print();
    println!("Shape check: coreset-solved centers cost ≈ full-data-solved centers");
    println!("(within (1+O(eps))), at a fraction of the time.\n");
}

/// E8 — against the prior art: three-pass insertion-only baseline.
fn e8_three_pass_baseline(scale: &Scale) {
    println!("## E8 — vs the three-pass insertion-only baseline [BBLM14] (§1)\n");
    let n = scale.n_quality;
    let k = 3;
    let params = default_params(k, 2.0);
    let pts = Workload::Imbalanced.generate(params.grid, n, k, 21);
    let mut rng = StdRng::seed_from_u64(12);

    let mut table = Table::new(&[
        "method",
        "passes",
        "deletions",
        "summary size",
        "upper",
        "lower",
    ]);

    // Ours, one pass.
    let mut b = StreamCoresetBuilder::new(params.clone(), StreamParams::default(), &mut rng);
    b.process_all(&insertion_stream(&pts));
    let ours = b.finish().unwrap();
    let q = quality(&pts, &ours, &params, 4, &[1.2, 2.0], 333);
    table.row(vec![
        "this paper".into(),
        "1".into(),
        "yes".into(),
        ours.len().to_string(),
        fmt(q.upper),
        fmt(q.lower),
    ]);

    // Baseline, three passes, sized to a comparable summary.
    let m1 = (ours.len() / (2 * k).max(1)).max(8);
    let bl = ThreePassBaseline::new(k, 2.0, 4 * k * k, m1, StdRng::seed_from_u64(13));
    let summary = bl.run(&pts);
    let (bp, bw): (Vec<_>, Vec<_>) = summary.iter().map(|w| (w.point.clone(), w.weight)).unzip();
    let qb = weighted_summary_quality(
        &pts,
        &bp,
        &bw,
        k,
        2.0,
        params.eta,
        4,
        &[1.2, 2.0],
        params.grid.delta,
        333,
    );
    table.row(vec![
        "3-pass baseline".into(),
        ThreePassBaseline::<StdRng>::PASSES.to_string(),
        "no".into(),
        bp.len().to_string(),
        fmt(qb.upper),
        fmt(qb.lower),
    ]);
    table.print();

    // The structural difference: deletions.
    let mut bl2 = ThreePassBaseline::new(k, 2.0, 64, 16, StdRng::seed_from_u64(14));
    bl2.insert(&pts[0]);
    match bl2.delete(&pts[0]) {
        Err(msg) => println!("baseline.delete(): Err(\"{msg}\")"),
        Ok(_) => println!("baseline.delete(): unexpectedly succeeded!"),
    }
    println!("this paper:        deletions handled natively (see E4).\n");
    println!("Shape check: one pass vs three; comparable estimation quality at");
    println!("similar summary sizes; only ours survives dynamic streams.\n");
}

/// E9 — ablations: uncapacitated baselines break; knob sweeps.
fn e9_ablations(scale: &Scale) {
    println!("## E9 — ablations\n");
    let n = scale.n_quality;
    let k = 3;
    let params = default_params(k, 2.0);
    let pts = Workload::Imbalanced.generate(params.grid, n, k, 25);
    let mut rng = StdRng::seed_from_u64(16);

    println!("### E9a — standard (uncapacitated) coresets vs ours, capacitated cost\n");
    let mut table = Table::new(&["summary", "size", "upper", "lower", "worst"]);

    let cs = build_coreset(&pts, &params, &mut rng).unwrap();
    let q = quality(&pts, &cs, &params, 4, &[1.2, 1.6], 444);
    table.row(vec![
        "ours (capacitated)".into(),
        cs.len().to_string(),
        fmt(q.upper),
        fmt(q.lower),
        fmt(q.worst()),
    ]);

    let m = cs.len();
    let uni = uniform_coreset(&pts, m.min(n), &mut rng);
    let (up, uw): (Vec<_>, Vec<_>) = uni.iter().map(|w| (w.point.clone(), w.weight)).unzip();
    let qu = weighted_summary_quality(
        &pts,
        &up,
        &uw,
        k,
        2.0,
        params.eta,
        4,
        &[1.2, 1.6],
        params.grid.delta,
        444,
    );
    table.row(vec![
        "uniform sampling".into(),
        up.len().to_string(),
        fmt(qu.upper),
        fmt(qu.lower),
        fmt(qu.worst()),
    ]);

    let sens = sensitivity_coreset(&pts, k, 2.0, m.min(n), &mut rng);
    let (sp, sw): (Vec<_>, Vec<_>) = sens.iter().map(|w| (w.point.clone(), w.weight)).unzip();
    let qs = weighted_summary_quality(
        &pts,
        &sp,
        &sw,
        k,
        2.0,
        params.eta,
        4,
        &[1.2, 1.6],
        params.grid.delta,
        444,
    );
    table.row(vec![
        "sensitivity (uncap.)".into(),
        sp.len().to_string(),
        fmt(qs.upper),
        fmt(qs.lower),
        fmt(qs.worst()),
    ]);
    table.print();
    println!("Shape check: ours dominates or matches; the uncapacitated summaries'");
    println!("worst ratios degrade when capacities bind (the paper's §1.2 motivation).\n");

    println!("### E9b — samples-per-part sweep (size/quality trade-off)\n");
    let mut table = Table::new(&["S per part", "|Q'|", "compress", "worst ratio"]);
    for &s_pp in &[12.0f64, 24.0, 48.0, 96.0] {
        let mut p2 = params.clone();
        if let ConstantsProfile::Practical {
            ref mut samples_per_part,
            ..
        } = p2.profile
        {
            *samples_per_part = s_pp;
        }
        let mut rng = StdRng::seed_from_u64(17);
        let cs = build_coreset(&pts, &p2, &mut rng).unwrap();
        let q = quality(&pts, &cs, &p2, 3, &[1.2, 2.0], 555);
        table.row(vec![
            fmt(s_pp),
            cs.len().to_string(),
            format!("{:.1}x", n as f64 / cs.len() as f64),
            fmt(q.worst()),
        ]);
    }
    table.print();

    println!("### E9c — small-part cutoff γ sweep\n");
    let mut table = Table::new(&["gamma", "|Q'|", "total weight", "worst ratio"]);
    for &g in &[0.01f64, 0.05, 0.2, 0.45] {
        let mut p2 = params.clone();
        if let ConstantsProfile::Practical { ref mut gamma, .. } = p2.profile {
            *gamma = g;
        }
        let mut rng = StdRng::seed_from_u64(18);
        let cs = build_coreset(&pts, &p2, &mut rng).unwrap();
        let q = quality(&pts, &cs, &p2, 3, &[1.2, 2.0], 666);
        table.row(vec![
            fmt(g),
            cs.len().to_string(),
            fmt(cs.total_weight()),
            fmt(q.worst()),
        ]);
    }
    table.print();
    println!("Shape check: larger γ drops more small parts (weight shrinks) —");
    println!("quality holds while γ stays ≪ 1, per Lemma 3.4.\n");
}

/// E10 — the §3.3 assignment oracle.
fn e10_assignment_oracle(scale: &Scale) {
    println!("## E10 — assignment construction via coreset (§3.3)\n");
    let n = scale.n_quality.min(8000);
    let k = 3;
    let mut table = Table::new(&[
        "workload",
        "oracle cost / flow opt",
        "max load / t",
        "assign time/pt",
    ]);
    for w in [Workload::Gaussian, Workload::Imbalanced] {
        let params = default_params(k, 2.0);
        let pts = w.generate(params.grid, n, k, 29);
        let cap = n as f64 / k as f64 * 1.2;
        let mut rng = StdRng::seed_from_u64(20);
        let cs = build_coreset(&pts, &params, &mut rng).unwrap();
        let (cpts, cws) = cs.split();
        let sol = capacitated_lloyd_raw(&cpts, Some(&cws), k, 2.0, cap, 8, &mut rng);
        let oracle = build_assignment_oracle(&cs, &params, &sol.centers, cap).unwrap();
        let t0 = Instant::now();
        let oa = oracle.assign_all(&pts);
        let dt = t0.elapsed();
        let opt = capacitated_cost(&pts, None, &sol.centers, oa.max_load().max(cap), 2.0);
        table.row(vec![
            w.name().into(),
            fmt(oa.cost / opt),
            fmt(oa.max_load() / cap),
            format!("{:.0} ns", dt.as_nanos() as f64 / n as f64),
        ]);
    }
    table.print();
    println!("Shape check: cost within (1+O(eps)) of the flow optimum; load within");
    println!("(1+O(eta))·t; assignment is O(k²d) per point — no flow solve needed.\n");
}

/// E12 — shard-count sweep through `ShardedIngest`'s merge tree.
fn e12_shard_sweep(scale: &Scale) {
    println!("## E12 — sharded ingest: merge-tree coreset across shard counts\n");
    let params = default_params(3, 2.0);
    let n = scale.n_quality * 2;
    let pts = Workload::Gaussian.generate(params.grid, n, 3, 15);
    let ops = insertion_stream(&pts);
    let mut table = Table::new(&[
        "S",
        "ingest+merge",
        "depth",
        "|Q'|",
        "worst ratio",
        "identical to S=1",
    ]);
    let run_once = |s: usize| {
        let sp = StreamParams::builder()
            .shards(s)
            .parallel(s > 1)
            .build()
            .unwrap();
        let mut ingest = sbc::ShardedIngest::new(params.clone(), sp, 19).expect("valid");
        let t0 = Instant::now();
        ingest.process_all(&ops);
        let merged = ingest.into_merged().expect("compatible shards");
        let dt = t0.elapsed();
        let depth = merged.merge_depth();
        (merged.finish().expect("sharded coreset"), dt, depth)
    };
    let (baseline, t1, _) = run_once(1);
    let q1 = quality(&pts, &baseline, &params, 2, &[1.3, 2.0], 222);
    table.row(vec![
        "1".into(),
        format!("{t1:.2?}"),
        "0".into(),
        baseline.len().to_string(),
        fmt(q1.worst()),
        "—".into(),
    ]);
    for &s in &scale.machines {
        let (cs, dt, depth) = run_once(s);
        let q = quality(&pts, &cs, &params, 2, &[1.3, 2.0], 222);
        table.row(vec![
            s.to_string(),
            format!("{dt:.2?}"),
            depth.to_string(),
            cs.len().to_string(),
            fmt(q.worst()),
            if cs.entries() == baseline.entries() {
                "✓"
            } else {
                "✗"
            }
            .to_string(),
        ]);
    }
    table.print();
    println!("Shape check: insertion-only merge is lossless — the coreset is");
    println!("bit-identical at every S (depth ⌈log₂ S⌉), so quality is exactly flat.\n");
}
