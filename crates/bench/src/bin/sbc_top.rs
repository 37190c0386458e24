//! `sbc-top` — a refreshing console view over a live run's telemetry.
//!
//! Points at the JSON tail a `stream_bench --telemetry-out <path>` run
//! (or any embedder of `sbc_obs::timeline::Sampler`) rewrites
//! atomically every tick, and renders the classic `top` layout for a
//! streaming-coreset process: resident set and per-component allocator
//! attribution (live/peak bytes, alloc churn), ingest throughput from
//! counter deltas across the ring, the ladder prune's per-role
//! hit-rates, and the store kill taxonomy.
//!
//! When the producer is `sbc-serve` (or any embedder of
//! `sbc_obs::svc`), the `svc.*` counters in the tail light up a
//! service view: live/evicted tenant gauges, spill bytes, admission
//! refusals, restore storms, and a per-tenant table (ops/s over the
//! ring window, errors, bytes, p99 latency, lifecycle state).
//!
//! The file is re-read on every refresh — `sbc-top` holds no state
//! between frames, so it can attach to a run that is already in flight
//! and survives the producer restarting. A missing or half-written
//! file renders as "waiting" rather than an error (the sampler's
//! tmp+rename writes make the half-written case rare).
//!
//! Usage: `sbc-top [--refresh <ms>] [--once] <telemetry.json>`
//!
//! `--once` renders a single frame without clearing the screen and
//! exits non-zero if the file is missing or malformed — the CI smoke
//! mode.

use sbc_obs::json::JsonValue;
use std::fmt::Write as _;

/// One decoded sample: the fields the view needs.
struct Frame {
    elapsed_ms: u64,
    rss_bytes: u64,
    counters: Vec<(String, u64)>,
}

impl Frame {
    fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Sums counters matching `prefix…{suffix}` (prune hit accounting).
    fn counter_sum(&self, prefix: &str, suffix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(n, _)| n.starts_with(prefix) && n.ends_with(suffix))
            .map(|(_, v)| *v)
            .sum()
    }
}

fn decode_frame(sample: &JsonValue) -> Option<Frame> {
    let counters = sample
        .get("counters")?
        .as_object()?
        .iter()
        .filter_map(|(n, v)| v.as_u64().map(|v| (n.clone(), v)))
        .collect();
    Some(Frame {
        elapsed_ms: sample.get("elapsed_ms")?.as_u64()?,
        rss_bytes: sample.get("rss_bytes")?.as_u64()?,
        counters,
    })
}

fn human(bytes: u64) -> String {
    sbc_streaming::human_bytes(bytes as usize)
}

/// Renders one frame from the parsed timeline document, or `None` when
/// the document doesn't look like `sbc-timeline-v1` output.
fn render(doc: &JsonValue, path: &str) -> Option<String> {
    let schema = doc.get("schema")?.as_str()?;
    let samples = doc.get("samples")?.as_array()?;
    let latest = decode_frame(samples.last()?)?;
    let oldest = decode_frame(samples.first()?)?;
    let cadence = doc
        .get("cadence_ms")
        .and_then(JsonValue::as_u64)
        .unwrap_or(0);
    let taken = doc.get("taken").and_then(JsonValue::as_u64).unwrap_or(0);
    let tracking = doc
        .get("alloc_tracking")
        .and_then(JsonValue::as_bool)
        .unwrap_or(false);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "sbc-top — {path} ({schema}, {taken} samples @ {cadence} ms)"
    );
    let rss_peak = samples
        .iter()
        .filter_map(|s| s.get("rss_bytes").and_then(JsonValue::as_u64))
        .max()
        .unwrap_or(0);
    let _ = writeln!(
        out,
        "uptime {:>8.1}s   rss {:>10} (peak {:>10} over ring)",
        latest.elapsed_ms as f64 / 1000.0,
        human(latest.rss_bytes),
        human(rss_peak),
    );

    // Throughput: counter deltas across the retained ring.
    let dt = (latest.elapsed_ms.saturating_sub(oldest.elapsed_ms)) as f64 / 1000.0;
    let rate = |name: &str| {
        let d = latest.counter(name).saturating_sub(oldest.counter(name));
        if dt > 0.0 {
            d as f64 / dt
        } else {
            0.0
        }
    };
    let ins = rate("stream.ingest.ops_inserted");
    let del = rate("stream.ingest.ops_deleted");
    let _ = writeln!(
        out,
        "ingest {:>12.0} ops/s ({ins:.0} ins/s, {del:.0} del/s over {dt:.1}s window)",
        ins + del,
    );

    // Ladder prune hit-rates per store role (accepted / decided).
    out.push_str("prune  ");
    for role in ["h", "hp", "hhat"] {
        let prefix = format!("stream.ingest.prune.{role}.");
        let acc = latest.counter_sum(&prefix, ".accepted");
        let prn = latest.counter_sum(&prefix, ".pruned");
        let pct = if acc + prn > 0 {
            acc as f64 / (acc + prn) as f64 * 100.0
        } else {
            0.0
        };
        let _ = write!(out, "{role}: {pct:>5.1}% accepted   ");
    }
    out.push('\n');

    // Store fleet and kill taxonomy (the SpaceReport snake_case names).
    let _ = writeln!(
        out,
        "stores {:>8} spawned   kills: {} runaway_kill, {} sketch_overflow",
        latest.counter("stream.store.spawned"),
        latest.counter("stream.store.kill.runaway_kill"),
        latest.counter("stream.store.kill.sketch_overflow"),
    );

    // Per-component allocator attribution.
    if tracking {
        let _ = writeln!(
            out,
            "\n{:<12} {:>12} {:>12} {:>12} {:>12}",
            "COMPONENT", "LIVE", "PEAK", "ALLOCS", "DEALLOCS"
        );
        if let Some(components) = samples
            .last()
            .and_then(|s| s.get("alloc"))
            .and_then(|a| a.get("components"))
            .and_then(JsonValue::as_object)
        {
            for (name, st) in components {
                let g = |k: &str| st.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
                let _ = writeln!(
                    out,
                    "{name:<12} {:>12} {:>12} {:>12} {:>12}",
                    human(g("live_bytes")),
                    human(g("peak_bytes")),
                    g("allocs"),
                    g("deallocs"),
                );
            }
        }
    } else {
        out.push_str("\nallocator attribution off (rebuild with --features obs)\n");
    }

    render_service(&mut out, &latest, &oldest, dt);
    Some(out)
}

/// The service-plane view: gauges plus a per-tenant table, parsed from
/// the `svc.*` counters a serving-tier producer publishes into the
/// timeline. Silent when the producer exports no service metrics.
fn render_service(out: &mut String, latest: &Frame, oldest: &Frame, dt: f64) {
    if !latest.counters.iter().any(|(n, _)| n.starts_with("svc.")) {
        return;
    }
    let _ = writeln!(
        out,
        "\nservice  {} live / {} evicted tenants   spill {}   rejects {}   sheds {}",
        latest.counter("svc.tenants.live"),
        latest.counter("svc.tenants.evicted"),
        human(latest.counter("svc.spill.bytes")),
        latest.counter("svc.admission.rejects"),
        latest.counter("svc.admission.sheds"),
    );
    let _ = writeln!(
        out,
        "         restores {} ({} storms)   slow-request dumps {}   tracked {} (+{} untracked)",
        latest.counter("svc.restores"),
        latest.counter("svc.restore.storms"),
        latest.counter("svc.slow.dumps"),
        latest.counter("svc.tenants.tracked"),
        latest.counter("svc.tenants.untracked"),
    );

    // Per-tenant rows out of the sampled `svc.tenant.<id>.<field>`
    // counters; ops/s is a delta across the retained ring window.
    let mut rows: Vec<(u64, u64)> = latest
        .counters
        .iter()
        .filter_map(|(n, ops)| {
            let rest = n.strip_prefix("svc.tenant.")?;
            let (id, field) = rest.split_once('.')?;
            (field == "ops").then_some(())?;
            Some((id.parse::<u64>().ok()?, *ops))
        })
        .collect();
    if rows.is_empty() {
        return;
    }
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let _ = writeln!(
        out,
        "\n{:<10} {:>10} {:>8} {:>12} {:>12} {:>8}",
        "TENANT", "OPS/S", "ERRORS", "BYTES", "P99", "STATE"
    );
    for (id, ops) in rows.iter().take(16) {
        let field = |f: &str| format!("svc.tenant.{id}.{f}");
        let d = ops.saturating_sub(oldest.counter(&field("ops")));
        let ops_per_sec = if dt > 0.0 { d as f64 / dt } else { 0.0 };
        let state = sbc_obs::svc::TenantState::from_code(latest.counter(&field("state")))
            .map_or("?", sbc_obs::svc::TenantState::as_str);
        let _ = writeln!(
            out,
            "{id:<10} {ops_per_sec:>10.1} {:>8} {:>12} {:>9.2}ms {state:>8}",
            latest.counter(&field("errors")),
            human(latest.counter(&field("bytes"))),
            latest.counter(&field("p99_ns")) as f64 / 1e6,
        );
    }
}

fn main() {
    let mut once = false;
    let mut refresh_ms = 1000u64;
    let mut path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--once" => once = true,
            "--refresh" => {
                refresh_ms = args
                    .next()
                    .expect("--refresh needs a cadence in ms")
                    .parse()
                    .expect("--refresh takes a positive integer");
                assert!(refresh_ms > 0, "--refresh takes a positive integer");
            }
            flag if flag.starts_with("--") => panic!("unknown flag {flag}"),
            p => path = Some(p.to_string()),
        }
    }
    let path = path.unwrap_or_else(|| {
        eprintln!("usage: sbc-top [--refresh <ms>] [--once] <telemetry.json>");
        std::process::exit(2);
    });

    loop {
        let frame = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| JsonValue::parse(&text).ok())
            .and_then(|doc| render(&doc, &path));
        if once {
            match frame {
                Some(view) => {
                    print!("{view}");
                    return;
                }
                None => {
                    eprintln!("sbc-top: {path} is missing or not a telemetry timeline");
                    std::process::exit(1);
                }
            }
        }
        // ANSI clear + home, like top(1); a missing file just waits.
        print!("\x1b[2J\x1b[H");
        match frame {
            Some(view) => print!("{view}"),
            None => println!("sbc-top: waiting for {path} …"),
        }
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        std::thread::sleep(std::time::Duration::from_millis(refresh_ms));
    }
}
