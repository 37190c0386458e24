//! Failure-path integration tests: every FAIL branch the paper defines
//! (and the engineering guards around them) must be reachable and
//! reported, never silently absorbed.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sbc_core::assign::{build_assignment_oracle, OracleError};
use sbc_core::{build_coreset, CoresetParams};
use sbc_geometry::dataset::gaussian_mixture;
use sbc_geometry::{GridParams, Point};
use sbc_streaming::storing::{Backend, Storing, StoringConfig, StoringFail};
use sbc_streaming::{StreamCoresetBuilder, StreamParams};

#[test]
fn oracle_rejects_infeasible_capacity() {
    let gp = GridParams::from_log_delta(7, 2);
    let params = CoresetParams::builder(2, gp).build().unwrap();
    let pts = gaussian_mixture(gp, 2000, 2, 0.05, 1);
    let mut rng = StdRng::seed_from_u64(1);
    let coreset = build_coreset(&pts, &params, &mut rng).unwrap();
    let centers = vec![Point::new(vec![10, 10]), Point::new(vec![100, 100])];
    // Capacity 10 ≪ total weight/2.
    match build_assignment_oracle(&coreset, &params, &centers, 10.0) {
        Err(OracleError::Infeasible {
            total_weight,
            capacity,
        }) => {
            assert!(total_weight > 2.0 * capacity);
        }
        other => panic!("expected Infeasible, got {other:?}"),
    }
}

#[test]
fn storing_overflow_and_alpha_fail_paths() {
    let gp = GridParams::from_log_delta(7, 2);
    let grid = sbc_geometry::GridHierarchy::unshifted(gp);
    let pts = sbc_geometry::dataset::uniform(gp, 400, 2);
    let mut rng = StdRng::seed_from_u64(2);

    // α exceeded (arena backend, generous cap).
    let mut st = Storing::new(
        &grid,
        6,
        StoringConfig {
            alpha: 8,
            beta: 2,
            rows: 2,
        },
        Backend::Arena { cap_cells: 10_000 },
        &mut rng,
    );
    for p in &pts {
        st.update(p, 1);
    }
    assert!(matches!(st.finish(), Err(StoringFail::TooManyCells { .. })));

    // Occupancy cap (arena backend, tight cap) ⇒ Overflowed, memory freed.
    let mut st2 = Storing::new(
        &grid,
        6,
        StoringConfig {
            alpha: 8,
            beta: 2,
            rows: 2,
        },
        Backend::Arena { cap_cells: 16 },
        &mut rng,
    );
    for p in &pts {
        st2.update(p, 1);
    }
    assert!(st2.is_dead());
    assert_eq!(st2.finish().unwrap_err(), StoringFail::Overflowed);

    // Sketch decode failure on over-dense content.
    let mut st3 = Storing::new(
        &grid,
        6,
        StoringConfig {
            alpha: 8,
            beta: 2,
            rows: 3,
        },
        Backend::Sketch,
        &mut rng,
    );
    for p in &pts {
        st3.update(p, 1);
    }
    assert!(matches!(
        st3.finish(),
        Err(StoringFail::DecodeFailed | StoringFail::TooManyCells { .. })
    ));
}

#[test]
fn stream_of_one_point_still_works() {
    // Degenerate but legal: a single point must produce a one-point
    // coreset of weight ≈ 1 at some instance.
    let gp = GridParams::from_log_delta(6, 2);
    let params = CoresetParams::builder(1, gp).build().unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let mut b = StreamCoresetBuilder::new(params, StreamParams::default(), &mut rng);
    b.insert(&Point::new(vec![17, 23]));
    let cs = b.finish().expect("single-point coreset");
    assert_eq!(cs.len(), 1);
    assert!((cs.total_weight() - 1.0).abs() < 1e-9);
}

#[test]
fn delete_everything_leaves_unbuildable_state() {
    let gp = GridParams::from_log_delta(6, 2);
    let params = CoresetParams::builder(2, gp).build().unwrap();
    let pts = sbc_geometry::dataset::uniform(gp, 100, 5);
    let mut rng = StdRng::seed_from_u64(4);
    let mut b = StreamCoresetBuilder::new(params, StreamParams::default(), &mut rng);
    for p in &pts {
        b.insert(p);
    }
    for p in &pts {
        b.delete(p);
    }
    assert_eq!(b.net_count(), 0);
    assert!(
        b.finish().is_err(),
        "empty final set must not yield a coreset"
    );
}

#[test]
fn paper_profile_constants_are_usable_but_sample_everything() {
    // The paper-faithful constants produce φᵢ = 1 at laptop scale — the
    // construction still runs and simply keeps every located point.
    let gp = GridParams::from_log_delta(6, 2);
    let params = CoresetParams::builder(2, gp)
        .eps(0.3)
        .eta(0.3)
        .paper_faithful()
        .build()
        .unwrap();
    let pts = gaussian_mixture(gp, 500, 2, 0.05, 6);
    let mut rng = StdRng::seed_from_u64(5);
    let cs = build_coreset(&pts, &params, &mut rng).expect("paper profile");
    // φ = 1 everywhere ⇒ every located point is kept; duplicates merge
    // into weighted entries, so *total weight* (not distinct count)
    // tracks n (minus at most the dropped small parts).
    assert!(
        cs.total_weight() >= 0.9 * pts.len() as f64,
        "tw {}",
        cs.total_weight()
    );
    for e in cs.entries() {
        let m = e.weight.round();
        assert!(
            (e.weight - m).abs() < 1e-9 && m >= 1.0,
            "φ = 1 ⇒ integer multiplicity weights"
        );
    }
}

#[test]
fn dimension_mismatch_is_caught() {
    let gp = GridParams::from_log_delta(6, 3);
    let params = CoresetParams::builder(2, gp).build().unwrap();
    let pts = vec![Point::new(vec![1, 2])]; // d = 2, grid expects 3
    let mut rng = StdRng::seed_from_u64(7);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = build_coreset(&pts, &params, &mut rng);
    }));
    assert!(result.is_err(), "dimension mismatch must panic loudly");
}
