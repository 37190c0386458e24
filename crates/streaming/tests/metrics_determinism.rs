//! Instrumentation must be invisible to the computation: ingesting a
//! stream with metrics recording enabled has to produce *bit-identical*
//! results to the same ingest with recording disabled, on both the
//! serial and the instance-sharded parallel path. And because counters
//! tally the same logical events regardless of execution order, the
//! parallel path's counter totals must merge to exactly the serial
//! totals.
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
    snapshot: sbc_obs::MetricsSnapshot,
}

/// One full ingest with the registry reset first and recording switched
/// per `record`; returns everything observable about the run.
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
    sbc_obs::set_enabled(false);
    RunResult {
        net_count: b.net_count(),
        summaries: b.export_summaries(),
        space: b.space_report(),
        snapshot: sbc_obs::snapshot(),
    }
}

/// Counter totals, plus count/sum of every histogram that tallies
/// *events* rather than wall-clock (`*_ns` spans legitimately differ
/// between runs and between serial/parallel execution).
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

/// Runs the four-way comparison for one (params, stream) pair.
fn assert_metrics_invisible(p: &CoresetParams, ops: &[StreamOp], seed: u64) {
    let serial = StreamParams::default();
    let parallel = StreamParams {
        parallel: true,
        threads: 4,
        ..serial
    };

    let off_serial = ingest(p, serial, ops, seed, false);
    let on_serial = ingest(p, serial, ops, seed, true);
    let off_parallel = ingest(p, parallel, ops, seed, false);
    let on_parallel = ingest(p, parallel, ops, seed, true);

    // Recording must not perturb the computation in any observable way.
    for (label, with, without) in [
        ("serial", &on_serial, &off_serial),
        ("parallel", &on_parallel, &off_parallel),
    ] {
        assert_eq!(
            with.net_count, without.net_count,
            "{label}: metrics changed net_count"
        );
        assert_eq!(
            with.summaries, without.summaries,
            "{label}: metrics changed decoded instance state"
        );
        assert_eq!(
            with.space, without.space,
            "{label}: metrics changed space accounting"
        );
    }
    // And parallel must still match serial (with recording on).
    assert_eq!(on_serial.summaries, on_parallel.summaries);
    assert_eq!(on_serial.net_count, on_parallel.net_count);
    assert_eq!(on_serial.space, on_parallel.space);

    // Disabled runs record nothing even when the feature is compiled in.
    assert!(off_serial.snapshot.counters.iter().all(|(_, v)| *v == 0));
    assert!(off_parallel.snapshot.counters.iter().all(|(_, v)| *v == 0));

    // The sharded path's per-thread event counts merge to the serial
    // totals: same events, different order.
    assert_eq!(
        event_totals(&on_serial.snapshot),
        event_totals(&on_parallel.snapshot),
        "parallel counter totals diverged from serial"
    );

    // When instrumentation is compiled in, the enabled run must have
    // actually seen the ingest.
    #[cfg(feature = "obs")]
    {
        let get = |name: &str| {
            on_serial
                .snapshot
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
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Arbitrary Gaussian churn streams: recording on/off and
    /// serial/parallel all agree.
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

    let serial = ingest(&p, sp, &ops, 41, true);
    let par_sp = StreamParams {
        parallel: true,
        threads: 4,
        ..sp
    };
    let parallel = ingest(&p, par_sp, &ops, 41, true);
    assert_eq!(probe.summaries, serial.summaries);
    assert_eq!(probe.summaries, parallel.summaries);
    assert_eq!(probe.space, serial.space);
    assert_eq!(probe.space, parallel.space);
    assert_eq!(
        event_totals(&serial.snapshot),
        event_totals(&parallel.snapshot)
    );

    #[cfg(feature = "obs")]
    {
        let killed = serial
            .snapshot
            .counters
            .iter()
            .filter(|(n, _)| n.starts_with("stream.store.kill."))
            .map(|(_, v)| *v)
            .sum::<u64>();
        assert_eq!(killed, serial.space.dead_stores as u64);
    }
}
