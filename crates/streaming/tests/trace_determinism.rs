//! The flight recorder must be invisible to the computation and
//! deterministic about what it records:
//!
//! * ingesting with tracing on produces *bit-identical* coreset state to
//!   the same ingest with tracing off;
//! * two identical re-runs record identical event sequences (ignoring
//!   wall-clock ticks);
//! * the per-op reference path and the batched path agree on every
//!   store-lifecycle and fault event (spawn/kill sets keyed by store
//!   salt, `(level, role)` and update index), even though the batched
//!   path additionally records batch spans and prune instants;
//! * shards ingested on two threads at once record the events of the
//!   same shards ingested one after the other.
//!
//! The whole file runs with or without the `obs` cargo feature: with it
//! off every snapshot is empty, so the sequence-equality assertions
//! degenerate to `empty == empty` while the result-identity assertions
//! still bite.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sbc_core::CoresetParams;
use sbc_geometry::dataset::gaussian_mixture;
use sbc_geometry::GridParams;
use sbc_obs::trace::{self, TraceKind, TraceRecord};
use sbc_streaming::model::{churn_stream, StreamOp};
use sbc_streaming::{InstanceSummary, SpaceReport, StreamCoresetBuilder, StreamParams};
use std::sync::Mutex;

/// The recorder is process-global; runs that read it must not
/// interleave with each other.
static RECORDER_GUARD: Mutex<()> = Mutex::new(());

fn params() -> CoresetParams {
    CoresetParams::builder(3, GridParams::from_log_delta(7, 2))
        .build()
        .unwrap()
}

/// A killing workload: enough churned points that the tight `cap_cells`
/// below reliably retires arena-backend stores mid-stream.
fn workload() -> Vec<StreamOp> {
    let p = params();
    let pts = gaussian_mixture(p.grid, 1200, 3, 0.05, 41);
    let mut rng = StdRng::seed_from_u64(41);
    churn_stream(&pts, 0.3, &mut rng)
}

fn killing_params() -> StreamParams {
    StreamParams {
        cap_cells: 48,
        ..StreamParams::default()
    }
}

/// Everything comparable about one recorded event, minus the two fields
/// that legitimately vary between runs (`seq` is total-order across
/// threads, `tick_ns` is wall-clock).
type EventKey = (u8, &'static str, u64, u64, i16, u8, u16, u64);

fn key(r: &TraceRecord) -> EventKey {
    (
        r.kind as u8,
        r.label,
        r.ids.op_index,
        r.ids.store_id,
        r.ids.level,
        r.ids.role,
        r.ids.machine,
        r.arg,
    )
}

struct RunResult {
    net_count: i64,
    summaries: Vec<InstanceSummary>,
    space: SpaceReport,
    events: Vec<EventKey>,
}

/// One full ingest with the recorder reset first and tracing switched
/// per `record`; `batched` selects `process_all` vs the per-op path.
fn ingest(sp: StreamParams, ops: &[StreamOp], record: bool, batched: bool) -> RunResult {
    trace::reset();
    trace::set_enabled(record);
    let mut rng = StdRng::seed_from_u64(41);
    let mut b = StreamCoresetBuilder::new(params(), sp, &mut rng);
    if batched {
        b.process_all(ops);
    } else {
        for op in ops {
            b.process(op);
        }
    }
    trace::set_enabled(false);
    RunResult {
        net_count: b.net_count(),
        summaries: b.export_summaries(),
        space: b.space_report(),
        events: recorded(),
    }
}

/// The recorder's events. `merged()` is seq-ordered, which is
/// deterministic for serial runs but racy across threads; sorting lets
/// threaded runs compare too.
fn recorded() -> Vec<EventKey> {
    let mut events: Vec<EventKey> = trace::snapshot()
        .merged()
        .iter()
        .map(|(_, r)| key(r))
        .collect();
    events.sort_unstable();
    events
}

/// Ingests `ops` split by point over two identically seeded shard
/// builders with tracing on: on two threads at once (`threaded`) or one
/// after the other. Returns the recorded events.
fn ingest_shards(ops: &[StreamOp], threaded: bool) -> Vec<EventKey> {
    let p = params();
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
            let mut rng = StdRng::seed_from_u64(41);
            StreamCoresetBuilder::new(p.clone(), killing_params(), &mut rng)
        })
        .collect();
    trace::reset();
    trace::set_enabled(true);
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
    trace::set_enabled(false);
    recorded()
}

/// Spawn, kill and fault events — the subset every ingest path must
/// agree on. Batch spans and prune instants are batched-path-only by
/// design and are excluded.
fn lifecycle(events: &[EventKey]) -> Vec<EventKey> {
    let lifecycle_kinds = [
        TraceKind::StoreSpawn as u8,
        TraceKind::StoreKill as u8,
        TraceKind::Fault as u8,
    ];
    events
        .iter()
        .filter(|e| lifecycle_kinds.contains(&e.0))
        .copied()
        .collect()
}

#[test]
fn tracing_never_perturbs_ingest() {
    let _g = RECORDER_GUARD.lock().unwrap();
    let ops = workload();
    let sp = killing_params();

    let off = ingest(sp, &ops, false, true);
    let on = ingest(sp, &ops, true, true);
    assert!(off.events.is_empty(), "disabled run recorded events");
    assert_eq!(on.net_count, off.net_count, "tracing changed net_count");
    assert_eq!(
        on.summaries, off.summaries,
        "tracing changed decoded instance state"
    );
    assert_eq!(on.space, off.space, "tracing changed space accounting");
    assert!(off.space.dead_stores > 0, "cap did not kill any store");
}

#[test]
fn identical_reruns_record_identical_sequences() {
    let _g = RECORDER_GUARD.lock().unwrap();
    let ops = workload();
    let sp = killing_params();

    let first = ingest(sp, &ops, true, true);
    let second = ingest(sp, &ops, true, true);
    assert_eq!(
        first.events, second.events,
        "re-running the same ingest recorded a different event sequence"
    );

    if sbc_obs::COMPILED {
        assert!(!first.events.is_empty(), "enabled run recorded nothing");
        let kills = lifecycle(&first.events)
            .iter()
            .filter(|e| e.0 == TraceKind::StoreKill as u8)
            .count();
        assert_eq!(
            kills, first.space.dead_stores,
            "kill events disagree with space accounting"
        );
        // Every lifecycle event names its store and ladder position.
        for e in lifecycle(&first.events) {
            assert_ne!(e.3, 0, "lifecycle event {e:?} has no store id");
            assert_ne!(e.5, trace::role::NONE, "lifecycle event {e:?} has no role");
        }
    }
}

#[test]
fn per_op_and_batched_agree_on_lifecycle_events() {
    let _g = RECORDER_GUARD.lock().unwrap();
    let ops = workload();
    let sp = killing_params();

    let per_op = ingest(sp, &ops, true, false);
    let batched = ingest(sp, &ops, true, true);

    assert_eq!(per_op.summaries, batched.summaries);
    assert_eq!(per_op.space, batched.space);

    let reference = lifecycle(&per_op.events);
    assert_eq!(
        reference,
        lifecycle(&batched.events),
        "batched ingest recorded different lifecycle/fault events"
    );
    if sbc_obs::COMPILED {
        assert!(
            reference.iter().any(|e| e.0 == TraceKind::StoreKill as u8),
            "workload recorded no kills — weaken the cap"
        );
    }
}

#[test]
fn threaded_shards_record_the_serial_events() {
    let _g = RECORDER_GUARD.lock().unwrap();
    let ops = workload();
    let threaded = ingest_shards(&ops, true);
    assert_eq!(
        threaded,
        ingest_shards(&ops, false),
        "shards on two threads recorded different events than in turn"
    );
    if sbc_obs::COMPILED {
        assert!(!threaded.is_empty(), "enabled run recorded nothing");
    }
}
