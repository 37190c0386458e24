//! Merge-tree fold cost: how expensive is re-unifying `S` finished
//! shard builders, and what does end-to-end sharded ingest cost on top
//! of the per-shard streaming itself.
//!
//! Two groups:
//! - `merge_fold`: shard builders are checkpointed once; each iteration
//!   restores fresh copies (merging consumes its inputs) and folds them
//!   via `StreamCoresetBuilder::merge_many`. The restore cost is part of
//!   the measurement but scales the same way the fold does (both walk
//!   the union of store states), so the curve across shard counts still
//!   reads as merge-kernel cost.
//! - `sharded_ingest`: the whole `ShardedIngest` pipeline — route,
//!   per-shard batched ingest, fold, assemble — shards serial vs on
//!   threads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sbc_bench::Workload;
use sbc_core::CoresetParams;
use sbc_geometry::GridHierarchy;
use sbc_geometry::GridParams;
use sbc_streaming::model::insertion_stream;
use sbc_streaming::{StreamCoresetBuilder, StreamParams};

/// `s` compatible shard builders (shared grid + hash seed, like
/// `ShardedIngest`), each fed a round-robin slice of the workload.
fn build_shards(params: &CoresetParams, s: usize, n: usize) -> Vec<StreamCoresetBuilder> {
    let pts = Workload::Gaussian.generate(params.grid, n, 3, 9);
    let mut rng = StdRng::seed_from_u64(7);
    let grid = GridHierarchy::new(params.grid, &mut rng);
    let hash_seed: u64 = rng.gen();
    let sp = StreamParams::builder().shards(s).build().unwrap();
    let mut builders: Vec<StreamCoresetBuilder> = (0..s)
        .map(|_| {
            let mut hrng = StdRng::seed_from_u64(hash_seed);
            StreamCoresetBuilder::with_grid(params.clone(), sp, grid.clone(), &mut hrng)
        })
        .collect();
    for (i, p) in pts.iter().enumerate() {
        builders[i % s].insert(p);
    }
    builders
}

fn bench_merge_fold(c: &mut Criterion) {
    let mut group = c.benchmark_group("merge_fold");
    group.sample_size(10);
    let gp = GridParams::from_log_delta(8, 2);
    let params = CoresetParams::builder(3, gp).build().unwrap();
    for s in [2usize, 4, 8] {
        let snaps: Vec<_> = build_shards(&params, s, 8000)
            .iter()
            .map(|b| b.checkpoint().expect("arena backend"))
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(s), &snaps, |b, snaps| {
            b.iter(|| {
                let builders: Vec<StreamCoresetBuilder> = snaps
                    .iter()
                    .map(|s| StreamCoresetBuilder::restore(s).expect("own snapshot"))
                    .collect();
                StreamCoresetBuilder::merge_many(builders)
                    .expect("compatible shards")
                    .merge_depth()
            });
        });
    }
    group.finish();
}

fn bench_sharded_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharded_ingest");
    group.sample_size(10);
    let gp = GridParams::from_log_delta(8, 2);
    let params = CoresetParams::builder(3, gp).build().unwrap();
    let pts = Workload::Gaussian.generate(gp, 8000, 3, 9);
    let ops = insertion_stream(&pts);
    for s in [1usize, 4, 8] {
        for (mode, parallel) in [("serial", false), ("parallel", true)] {
            if s == 1 && parallel {
                continue; // one shard has nothing to parallelise over
            }
            let sp = StreamParams::builder()
                .shards(s)
                .parallel(parallel)
                .build()
                .unwrap();
            group.bench_with_input(BenchmarkId::new(mode, s), &ops, |b, ops| {
                b.iter(|| {
                    let mut ingest = sbc::ShardedIngest::new(params.clone(), sp, 7).expect("valid");
                    ingest.process_all(ops);
                    ingest.finish().expect("sharded coreset").len()
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_merge_fold, bench_sharded_ingest);
criterion_main!(benches);
