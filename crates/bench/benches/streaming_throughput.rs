//! Streaming update throughput: operations per second through the full
//! o-ladder (all instances, all levels, all three roles).
//!
//! Two ways to drive the one ingest path over the same stream (state is
//! bit-identical, see the `ingest_determinism` tests): `per_op` —
//! batches of one; `batched` — the whole stream in batches, SoA
//! precompute plus nested-threshold ladder pruning. The `mixed` group
//! repeats the comparison on a deletion-heavy interleaved stream,
//! where per-op overhead (not end-state size) dominates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sbc_bench::Workload;
use sbc_core::CoresetParams;
use sbc_geometry::GridParams;
use sbc_streaming::model::{churn_stream, insertion_stream, StreamOp};
use sbc_streaming::{StreamCoresetBuilder, StreamParams};

fn bench_ingest_paths(c: &mut Criterion, group_name: &str, ops: &[StreamOp]) {
    let mut group = c.benchmark_group(group_name);
    group.sample_size(10);
    let gp = GridParams::from_log_delta(8, 2);
    let params = CoresetParams::builder(3, gp).build().unwrap();
    let n = ops.len();
    group.throughput(Throughput::Elements(n as u64));

    let fresh = || {
        let mut rng = StdRng::seed_from_u64(7);
        StreamCoresetBuilder::new(params.clone(), StreamParams::default(), &mut rng)
    };

    group.bench_with_input(BenchmarkId::new("per_op", n), &n, |b, _| {
        b.iter(|| {
            let mut builder = fresh();
            for op in ops {
                builder.process(op);
            }
            builder.net_count()
        });
    });
    group.bench_with_input(BenchmarkId::new("batched", n), &n, |b, _| {
        b.iter(|| {
            let mut builder = fresh();
            builder.process_all(ops);
            builder.net_count()
        });
    });
    group.finish();
}

fn bench_stream_ops(c: &mut Criterion) {
    let gp = GridParams::from_log_delta(8, 2);
    let pts = Workload::Gaussian.generate(gp, 4000, 3, 9);
    bench_ingest_paths(c, "stream_ops", &insertion_stream(&pts));
}

fn bench_mixed_ops(c: &mut Criterion) {
    // Deletion-heavy: 30% of the points survive, so ~54% of all ops are
    // part of insert-then-delete churn pairs.
    let gp = GridParams::from_log_delta(8, 2);
    let pts = Workload::Gaussian.generate(gp, 4000, 3, 9);
    let mut rng = StdRng::seed_from_u64(17);
    bench_ingest_paths(c, "stream_ops_mixed", &churn_stream(&pts, 0.3, &mut rng));
}

criterion_group!(benches, bench_stream_ops, bench_mixed_ops);
criterion_main!(benches);
