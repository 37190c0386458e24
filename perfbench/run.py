#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. It builds the `perfbench` package
(release profile, `obs` feature off) into `$CARGO_TARGET_DIR`, or
`.bench_build` when that is unset, and runs the workload in its own
process. With `--trace 1` it runs the workload twice, untraced and then
traced, and reports the per-layer metrics of the traced run plus the
tracing overhead; with `--trace 0` it runs once and reports the
end-to-end metrics. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it stamps the result with the commit, the host's core
count, the build profile and the `obs` feature state. Counts that must
repeat exactly for one seed are compared between the two runs of a
traced run and against the last run of the same seed on the same
sources, kept under `.bench_out/exact/`; a difference fails the run.
`--tiny` shrinks every workload for the self-test (`test_bench.py`).
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("ingest_churn", "solve_balanced", "serve_hot", "serve_spill")
# One run of one workload, set-up and checks included, stays well below
# the 180 s a run may take.
LEG_TIMEOUT_S = 80
BUILD_TIMEOUT_S = 850
SOURCE_DIRS = ("crates", "vendor", "perfbench", "src")
SKIP_DIRS = {"target", ".bench_build", ".bench_out", ".git", "__pycache__"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return (
        [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        [(m["name"], m["unit"]) for m in spec["per_layer"]],
    )


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        os.path.join(HERE, "Cargo.toml"),
    ]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if done.returncode != 0:
        fail(f"building the benchmark failed ({done.returncode})")
    return os.path.join(os.path.abspath(target), "release", "perfbench")


def leg(binary, args, traced):
    cmd = [
        binary,
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
    ]
    cmd += ["--traced"] if traced else []
    cmd += ["--tiny"] if args.tiny else []
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=LEG_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {LEG_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{args.workload} exited with {done.returncode}")
    return json.loads(lines[-1])


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts
    without git metadata."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, n) for n in ("Cargo.toml", "Cargo.lock")]
    for top in SOURCE_DIRS:
        for d, dirs, names in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x not in SKIP_DIRS)
            files += [os.path.join(d, n) for n in sorted(names)]
    for path in files:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_commit():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def check_ledger(args, digest, exact):
    """Compares `exact` with the last run of this seed on these sources;
    returns a description of the differences."""
    size = "tiny" if args.tiny else "full"
    path = os.path.join(OUT, "exact", f"{args.workload}-{size}-seed{args.seed}.json")
    try:
        with open(path) as f:
            last = json.load(f)
    except (OSError, ValueError):
        last = None
    if last and last.get("digest") == digest and last.get("exact") != exact:
        return [f"exact counts differ from the last run of seed {args.seed}: {last['exact']} vs {exact}"]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path + ".tmp", "w") as f:
        json.dump({"digest": digest, "exact": exact}, f)
    os.replace(path + ".tmp", path)
    return []


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be non-negative and --seconds positive")
    if not os.path.isfile(os.path.join(ROOT, "crates", "sbc", "Cargo.toml")):
        fail("the repository's crates are missing: run from the root of a checkout")
    end_to_end, per_layer = metric_names()

    binary = build()
    plain = leg(binary, args, traced=False)
    legs = [plain]
    if args.trace:
        legs.append(leg(binary, args, traced=True))

    problems = []
    if any(l["exact"] != plain["exact"] for l in legs):
        problems.append(f"exact counts differ between the untraced and traced runs: "
                        f"{plain['exact']} vs {legs[-1]['exact']}")
    digest = source_digest()
    problems += check_ledger(args, digest, plain["exact"])
    for msg in problems:
        print(f"perfbench: {args.workload}: {msg}", file=sys.stderr)

    metrics = dict(legs[-1]["metrics"])
    if args.trace:
        metrics["bench.tracing_overhead"] = {
            "value": legs[-1]["ops_per_s"] / plain["ops_per_s"],
            "unit": "ratio",
        }
    wanted = per_layer if args.trace else end_to_end
    result = {}
    for name, unit in wanted:
        m = metrics.get(name)
        if m is None or m["unit"] != unit or m["value"] is None or not math.isfinite(m["value"]):
            fail(f"{args.workload} did not report {name} in {unit}: {m}")
        result[name] = m

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_digest": digest,
        "nproc": len(os.sched_getaffinity(0)),
        "build": plain["build"],
        "exact": plain["exact"],
    }
    out = {
        "correct": all(l["correct"] for l in legs) and not problems,
        "attempted": sum(l["attempted"] for l in legs),
        "failed": sum(l["failed"] for l in legs) + len(problems),
        "metrics": result,
    }
    os.makedirs(OUT, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as f:
        json.dump({"stamp": stamp, "legs": legs, "result": out}, f)
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
