//! One workload of the repository benchmark, in one process.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> [--traced] [--tiny]
//! ```
//!
//! Prints one JSON line: whether the output checks passed, operations
//! attempted and failed, the metrics with their units (end-to-end
//! untraced, per-layer with `--traced`), and the counts that must
//! repeat exactly for one seed. `run.py` turns two such lines (a
//! traced run has an untraced and a traced leg) into the benchmark's
//! result. See `README.md` for the workloads and metrics.

mod churn;
mod harness;
mod ingest;
mod layers;
mod serve;
mod solve;

use harness::{Opts, Tracer, OUT_DIR};
use sbc::Coreset;

const WORKLOADS: [&str; 4] = ["ingest_churn", "solve_balanced", "serve_hot", "serve_spill"];

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> [--traced] [--tiny]",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn main() {
    let mut workload = None;
    let mut opts = Opts {
        seed: 0,
        seconds: 1.0,
        traced: false,
        tiny: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")),
            "--seed" => {
                opts.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes an unsigned integer"))
            }
            "--seconds" => {
                opts.seconds = value("--seconds")
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds takes a positive number"))
            }
            "--traced" => opts.traced = true,
            "--tiny" => opts.tiny = true,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    let report = match workload.as_deref() {
        Some("ingest_churn") => ingest::run(&opts),
        Some("solve_balanced") => solve::run(&opts),
        Some("serve_hot") => serve::run(&opts, serve::HOT),
        Some("serve_spill") => serve::run(&opts, serve::SPILL),
        Some(other) => usage(&format!("unknown workload {other}")),
        None => usage("--workload is required"),
    };
    println!("{}", report.to_json(&build()));
}

/// The build profile and whether the `obs` instrumentation is compiled
/// in (it is not: live metrics would send batched ingest down its
/// per-op path).
fn build() -> String {
    sbc::obs::set_enabled(true);
    let obs = sbc::obs::enabled();
    sbc::obs::set_enabled(false);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!("{{\"profile\":\"{profile}\",\"obs\":{obs}}}")
}

/// Whether two coresets hold the same entries, bit for bit.
pub fn same_coreset(a: &Coreset, b: &Coreset) -> bool {
    a.len() == b.len()
        && a.entries().iter().zip(b.entries()).all(|(x, y)| {
            x.point == y.point
                && x.weight.to_bits() == y.weight.to_bits()
                && x.level == y.level
                && x.part == y.part
        })
}

/// Writes a traced run's span log under `.bench_out/`, once, at exit.
pub fn write_spans(opts: &Opts, workload: &str, tracer: &Tracer) {
    let path =
        std::path::Path::new(OUT_DIR).join(format!("spans-{workload}-seed{}.jsonl", opts.seed));
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| tracer.write(&path));
    if let Err(e) = written {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}
