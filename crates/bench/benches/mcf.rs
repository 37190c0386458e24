//! Transportation solve times — the substrate behind every capacitated
//! cost evaluation (paper §3.3: the fractional optimum is a min-cost
//! flow). Each shape runs the exchange-graph solver (`exchange`) beside
//! the generic min-cost flow on the full network (`mcmf_reference`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sbc_bench::Workload;
use sbc_flow::mcmf::transportation_reference;
use sbc_flow::transport::optimal_fractional_assignment_caps;
use sbc_geometry::{GridParams, Point};

struct Shape {
    name: String,
    points: Vec<Point>,
    /// `None` = unit weights.
    weights: Option<Vec<f64>>,
    centers: Vec<Point>,
    caps: Vec<f64>,
}

fn shapes() -> Vec<Shape> {
    let gp = GridParams::from_log_delta(8, 2);
    let mut out: Vec<Shape> = [200usize, 1000, 4000]
        .into_iter()
        .map(|n| Shape {
            name: format!("unit_n{n}_k4"),
            points: Workload::Gaussian.generate(gp, n, 4, 7),
            weights: None,
            centers: Workload::Uniform.generate(gp, 4, 4, 8),
            caps: vec![n as f64 / 4.0 * 1.2; 4],
        })
        .collect();
    // The `solve_balanced` read: ≈230 weighted coreset points of an
    // imbalanced mixture, k = 3, cap = 1.2·W/k.
    let points = Workload::Imbalanced.generate(gp, 230, 3, 11);
    let weights: Vec<f64> = (0..points.len())
        .map(|i| 1.0 + (i * 7919 % 61) as f64)
        .collect();
    let cap = 1.2 * weights.iter().sum::<f64>() / 3.0;
    out.push(Shape {
        name: "solve_balanced_n230_k3".into(),
        points,
        weights: Some(weights),
        centers: Workload::Uniform.generate(gp, 3, 3, 12),
        caps: vec![cap; 3],
    });
    out
}

fn bench_transport(c: &mut Criterion) {
    let mut group = c.benchmark_group("transportation_solve");
    group.sample_size(10);
    for s in shapes() {
        let unit = vec![1.0; s.points.len()];
        let weights = s.weights.as_deref().unwrap_or(&unit);
        group.throughput(Throughput::Elements(s.points.len() as u64));
        group.bench_with_input(BenchmarkId::new("exchange", &s.name), &s, |b, s| {
            b.iter(|| {
                optimal_fractional_assignment_caps(
                    &s.points,
                    s.weights.as_deref(),
                    &s.centers,
                    &s.caps,
                    2.0,
                )
                .expect("caps exceed the total weight")
                .cost
            });
        });
        group.bench_with_input(BenchmarkId::new("mcmf_reference", &s.name), &s, |b, s| {
            b.iter(|| transportation_reference(&s.points, weights, &s.centers, &s.caps, 2.0).cost);
        });
    }
    group.finish();
}

criterion_group!(benches, bench_transport);
criterion_main!(benches);
