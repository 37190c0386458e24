//! Micro-bench: the flat open-addressing [`OpenTable`] arena of the hot
//! `Storing` path — insert, probe (hit and miss), and full iteration,
//! at store-realistic sizes (a few hundred to a few thousand live
//! cells; DESIGN.md §9).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sbc_hash::OpenTable;

/// Deterministic well-mixed keys, reproducible across runs.
fn keys(n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| sbc_obs::fault::splitmix64(i ^ 0x5851_F42D_4C95_7F2D))
        .collect()
}

fn bench_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("arena_insert");
    for n in [256usize, 4096] {
        let ks = keys(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("open_table", n), &ks, |b, ks| {
            b.iter(|| {
                let mut t: OpenTable<u64, u64> = OpenTable::default();
                for &k in ks {
                    *t.insert_absent(k, 0) += k;
                }
                black_box(t.len())
            });
        });
    }
    group.finish();
}

fn bench_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("arena_probe");
    let n = 4096usize;
    let ks = keys(n);
    let mut table: OpenTable<u64, u64> = OpenTable::default();
    for &k in &ks {
        *table.insert_absent(k, 0) += k;
    }
    // Misses draw from a disjoint key range (splitmix64 is a bijection,
    // so the offset stream cannot collide with the resident one).
    let misses = keys(2 * n)[n..].to_vec();

    group.throughput(Throughput::Elements(n as u64));
    group.bench_function(BenchmarkId::new("open_table_hit", n), |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &k in &ks {
                acc = acc.wrapping_add(*table.get(k).unwrap());
            }
            black_box(acc)
        });
    });
    group.bench_function(BenchmarkId::new("open_table_miss", n), |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for &k in &misses {
                hits += usize::from(table.get(k).is_some());
            }
            black_box(hits)
        });
    });
    group.finish();
}

fn bench_iterate(c: &mut Criterion) {
    let mut group = c.benchmark_group("arena_iterate");
    let n = 4096usize;
    let ks = keys(n);
    let mut table: OpenTable<u64, u64> = OpenTable::default();
    for &k in &ks {
        *table.insert_absent(k, 0) += k;
    }
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function(BenchmarkId::new("open_table", n), |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for (k, v) in table.iter() {
                acc = acc.wrapping_add(k ^ *v);
            }
            black_box(acc)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_insert, bench_probe, bench_iterate);
criterion_main!(benches);
