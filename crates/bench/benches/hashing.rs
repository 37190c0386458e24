//! Micro-bench: λ-wise independent hash evaluation — the inner loop of
//! every streaming update (3 roles × (L+1) levels per op).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sbc_hash::{HashBank, KWiseBernoulli, KWiseHash};

fn bench_kwise_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("kwise_eval");
    let mut rng = StdRng::seed_from_u64(1);
    for lambda in [2usize, 8, 32, 128] {
        let h = KWiseHash::new(lambda, &mut rng);
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::from_parameter(lambda), &h, |b, h| {
            let mut key = 0u128;
            b.iter(|| {
                key = key.wrapping_add(0x9E37_79B9);
                black_box(h.eval(key))
            });
        });
    }
    group.finish();
}

fn bench_bernoulli(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let b32 = KWiseBernoulli::new(0.1, 32, &mut rng);
    c.bench_function("kwise_bernoulli_keep_l32", |b| {
        let mut key = 0u128;
        b.iter(|| {
            key = key.wrapping_add(0xDEAD_BEEF);
            black_box(b32.keep(key))
        });
    });
}

/// One ingest batch's hashing at the serving profile: 21 polynomials
/// (3 roles × 7 levels) of λ = 32 at 16 keys, through the bank (one power
/// table per key, one dot product per polynomial) and per hash (a Horner
/// chain per polynomial and key).
fn bench_bank(c: &mut Criterion) {
    let mut group = c.benchmark_group("kwise_batch_l32_21x16");
    let mut rng = StdRng::seed_from_u64(3);
    let hashes: Vec<KWiseHash> = (0..21).map(|_| KWiseHash::new(32, &mut rng)).collect();
    let bank = HashBank::new(&hashes);
    let keys: Vec<u128> = (0..16u128).map(|k| k * 0x9E37_79B9 + 12345).collect();
    group.throughput(Throughput::Elements((hashes.len() * keys.len()) as u64));
    let mut out = Vec::with_capacity(hashes.len() * keys.len());
    group.bench_function("bank", |b| {
        b.iter(|| {
            out.clear();
            bank.eval_many(black_box(&keys), &mut out);
            black_box(out.last().copied())
        });
    });
    group.bench_function("per_hash", |b| {
        b.iter(|| {
            out.clear();
            for &key in black_box(&keys) {
                out.extend(hashes.iter().map(|h| h.eval(key)));
            }
            black_box(out.last().copied())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_kwise_eval, bench_bernoulli, bench_bank);
criterion_main!(benches);
