//! Instrumentation must be invisible to the computation: ingesting a
//! stream with metrics recording enabled has to produce *bit-identical*
//! results to the same ingest with recording disabled. And because
//! counters tally the same logical events regardless of execution
//! order, shards ingested on two threads at once must record exactly
//! the totals of the same shards ingested one after the other.
//!
//! The whole file runs with or without the `obs` cargo feature: with it
//! off, `set_enabled` is a no-op and every snapshot is empty, so the
//! equality assertions degenerate to `empty == empty` while the
//! result-identity assertions still bite.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sbc_core::CoresetParams;
use sbc_geometry::dataset::gaussian_mixture;
use sbc_geometry::GridParams;
use sbc_streaming::model::{churn_stream, StreamOp};
use sbc_streaming::{InstanceSummary, SpaceReport, StreamCoresetBuilder, StreamParams};
use std::sync::Mutex;

/// The metrics registry is process-global; runs that read it must not
/// interleave with each other (proptest may run cases on one thread,
/// but the two `#[test]` functions here race without this).
static REGISTRY_GUARD: Mutex<()> = Mutex::new(());

fn params(log_delta: u32) -> CoresetParams {
    CoresetParams::builder(3, GridParams::from_log_delta(log_delta, 2))
        .build()
        .unwrap()
}

struct RunResult {
    net_count: i64,
    summaries: Vec<InstanceSummary>,
    space: SpaceReport,
    /// The `finish_ref` outcome: the chosen guess and its entries, or
    /// the failure.
    finish: String,
    snapshot: sbc_obs::MetricsSnapshot,
}

/// One full ingest and a `finish_ref`, with the registry reset first and
/// recording switched per `record`; returns everything observable about
/// the run.
fn ingest(
    p: &CoresetParams,
    sp: StreamParams,
    ops: &[StreamOp],
    seed: u64,
    record: bool,
) -> RunResult {
    sbc_obs::reset();
    sbc_obs::set_enabled(record);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = StreamCoresetBuilder::new(p.clone(), sp, &mut rng);
    b.process_all(ops);
    let finish = b
        .finish_ref()
        .map(|cs| format!("o={:?} {:?}", cs.o, cs.entries()));
    sbc_obs::set_enabled(false);
    RunResult {
        net_count: b.net_count(),
        summaries: b.export_summaries(),
        space: b.space_report(),
        finish: format!("{finish:?}"),
        snapshot: sbc_obs::snapshot(),
    }
}

/// Ingests `ops` split by point over two identically seeded shard
/// builders with recording on: on two threads at once (`threaded`) or
/// one after the other. Returns each shard's summaries and the registry.
fn ingest_shards(
    p: &CoresetParams,
    ops: &[StreamOp],
    seed: u64,
    threaded: bool,
) -> (Vec<Vec<InstanceSummary>>, sbc_obs::MetricsSnapshot) {
    let parts: Vec<Vec<StreamOp>> = (0..2u128)
        .map(|s| {
            ops.iter()
                .filter(|op| op.point().key128(p.grid.delta) % 2 == s)
                .cloned()
                .collect()
        })
        .collect();
    let mut shards: Vec<StreamCoresetBuilder> = parts
        .iter()
        .map(|_| {
            let mut rng = StdRng::seed_from_u64(seed);
            StreamCoresetBuilder::new(p.clone(), StreamParams::default(), &mut rng)
        })
        .collect();
    sbc_obs::reset();
    sbc_obs::set_enabled(true);
    if threaded {
        std::thread::scope(|scope| {
            for (b, part) in shards.iter_mut().zip(&parts) {
                scope.spawn(move || b.process_all(part));
            }
        });
    } else {
        for (b, part) in shards.iter_mut().zip(&parts) {
            b.process_all(part);
        }
    }
    sbc_obs::set_enabled(false);
    let summaries = shards.iter().map(|b| b.export_summaries()).collect();
    (summaries, sbc_obs::snapshot())
}

/// Counter totals, plus count/sum of every histogram that tallies
/// *events* rather than wall-clock (`*_ns` spans legitimately differ
/// between runs and between threaded and serial execution).
fn event_totals(s: &sbc_obs::MetricsSnapshot) -> Vec<(String, u64, u64)> {
    let mut out: Vec<(String, u64, u64)> = s
        .counters
        .iter()
        .map(|(name, v)| (name.clone(), *v, 0))
        .collect();
    out.extend(
        s.histograms
            .iter()
            .filter(|(name, _)| !name.ends_with("_ns"))
            .map(|(name, h)| (name.clone(), h.count, h.sum)),
    );
    out
}

/// Runs the on/off and threaded/serial comparisons for one (params,
/// stream) pair.
fn assert_metrics_invisible(p: &CoresetParams, ops: &[StreamOp], seed: u64) {
    let sp = StreamParams::default();
    let off = ingest(p, sp, ops, seed, false);
    let on = ingest(p, sp, ops, seed, true);

    // Recording must not perturb the computation in any observable way.
    assert_eq!(on.net_count, off.net_count, "metrics changed net_count");
    assert_eq!(
        on.summaries, off.summaries,
        "metrics changed decoded instance state"
    );
    assert_eq!(on.space, off.space, "metrics changed space accounting");
    assert_eq!(on.finish, off.finish, "metrics changed the finish outcome");

    // Disabled runs record nothing even when the feature is compiled in.
    assert!(off.snapshot.counters.iter().all(|(_, v)| *v == 0));

    // Shards recording from two threads at once tally the same events
    // as the same shards ingested in turn: same events, different order.
    let (threaded, threaded_metrics) = ingest_shards(p, ops, seed, true);
    let (serial, serial_metrics) = ingest_shards(p, ops, seed, false);
    assert_eq!(threaded, serial);
    assert_eq!(
        event_totals(&threaded_metrics),
        event_totals(&serial_metrics),
        "threaded shard counter totals diverged from serial"
    );

    // When instrumentation is compiled in, the enabled run must have
    // actually seen the ingest.
    if sbc_obs::COMPILED {
        let get = |name: &str| {
            on.snapshot
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        let inserted = ops.iter().filter(|op| op.delta() > 0).count() as u64;
        assert_eq!(get("stream.ingest.ops_inserted"), inserted);
        assert_eq!(
            get("stream.ingest.ops_deleted"),
            ops.len() as u64 - inserted
        );
        assert!(get("stream.store.updates") > 0);
        // Every guess `finish_ref` tried was rejected, except the one it
        // returned (unless that was a fallback, rejected first).
        let tried = get("stream.finish.instances");
        let rejected: u64 = on
            .snapshot
            .counters
            .iter()
            .filter(|(n, _)| n.starts_with("stream.finish.reject."))
            .map(|(_, v)| *v)
            .sum();
        assert!(tried > 0, "finish_ref tried no guess");
        if on.finish.starts_with("Err") {
            assert_eq!(rejected, tried, "{}", on.finish);
        } else {
            assert!(
                rejected + 1 >= tried && rejected <= tried,
                "{rejected} of {tried}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Arbitrary Gaussian churn streams: recording on/off and threaded
    /// and serial shards all agree.
    #[test]
    fn metrics_never_perturb_ingest(
        seed in 0u64..1024,
        n in 200usize..700,
        churn in 0.0f64..0.45,
    ) {
        let _guard = REGISTRY_GUARD.lock().unwrap();
        let p = params(6);
        let pts = gaussian_mixture(p.grid, n, 3, 0.05, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5bc);
        let ops = churn_stream(&pts, churn, &mut rng);
        assert_metrics_invisible(&p, &ops, seed);
    }
}

#[test]
fn metrics_invisible_under_store_death() {
    // A tight cap_cells kills arena-backend stores mid-stream; the
    // kill-path counters must not perturb death order or accounting.
    let _guard = REGISTRY_GUARD.lock().unwrap();
    let p = params(7);
    let pts = gaussian_mixture(p.grid, 1200, 3, 0.05, 41);
    let mut rng = StdRng::seed_from_u64(41);
    let ops = churn_stream(&pts, 0.3, &mut rng);

    let sp = StreamParams {
        cap_cells: 48,
        ..StreamParams::default()
    };
    let probe = ingest(&p, sp, &ops, 41, false);
    assert!(
        probe.space.dead_stores > 0,
        "cap did not kill any store — weaken it"
    );

    let recorded = ingest(&p, sp, &ops, 41, true);
    assert_eq!(probe.summaries, recorded.summaries);
    assert_eq!(probe.space, recorded.space);
    assert_eq!(probe.finish, recorded.finish);

    if sbc_obs::COMPILED {
        let killed = recorded
            .snapshot
            .counters
            .iter()
            .filter(|(n, _)| n.starts_with("stream.store.kill."))
            .map(|(_, v)| *v)
            .sum::<u64>();
        assert_eq!(killed, recorded.space.dead_stores as u64);
    }
}
