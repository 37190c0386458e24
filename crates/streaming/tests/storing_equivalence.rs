//! Cross-backend equivalence of the `Storing` subroutine: on any
//! insert/delete sequence whose final state fits the budgets, the arena
//! and sketch backends must produce identical Lemma 4.2 outputs.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sbc_geometry::{GridHierarchy, GridParams, Point};
use sbc_streaming::storing::{Backend, Storing, StoringConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn arena_and_sketch_agree_on_random_streams(
        ops in prop::collection::vec(((1u32..=32, 1u32..=32), prop::bool::ANY), 1..120),
        level in 2i32..=5,
        shift_seed in 0u64..500,
    ) {
        let gp = GridParams::from_log_delta(5, 2);
        let mut rng = StdRng::seed_from_u64(shift_seed);
        let grid = GridHierarchy::new(gp, &mut rng);
        let cfg = StoringConfig { alpha: 256, beta: 6, rows: 5 };

        let mut arena = Storing::new(&grid, level, cfg, Backend::Arena { cap_cells: 4096 }, &mut rng);
        let mut sketch = Storing::new(&grid, level, cfg, Backend::Sketch, &mut rng);

        // Maintain ground-truth multiplicities so deletes stay legal.
        let mut truth: std::collections::HashMap<Point, i64> = std::collections::HashMap::new();
        for ((x, y), insert) in ops {
            let p = Point::new(vec![x, y]);
            let e = truth.entry(p.clone()).or_insert(0);
            if insert {
                *e += 1;
                arena.update(&p, 1);
                sketch.update(&p, 1);
            } else if *e > 0 {
                *e -= 1;
                arena.update(&p, -1);
                sketch.update(&p, -1);
            }
        }

        match (arena.finish(), sketch.finish()) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(&a.cells, &b.cells, "cell counts differ");
                prop_assert_eq!(&a.small_points, &b.small_points, "small points differ");
            }
            (Err(_), Err(_)) => {} // both reject (over budget): consistent
            (a, b) => {
                // The arena backend can fail on dirty small cells where
                // the sketch succeeds — that is the documented asymmetry;
                // anything else is a bug.
                let arena_dirty = matches!(
                    &a,
                    Ok(out) if !out.dirty_small_cells.is_empty()
                );
                prop_assert!(
                    arena_dirty || a.is_err(),
                    "backends disagree: arena {a:?} vs sketch {b:?}"
                );
            }
        }
    }
}

/// Deterministic heavy-churn scenario: a cell is pumped far above 2β and
/// drained back; the sketch recovers, the arena backend flags the cell.
#[test]
fn churned_cell_sketch_recovers_arena_flags() {
    let gp = GridParams::from_log_delta(5, 2);
    let grid = GridHierarchy::unshifted(gp);
    let cfg = StoringConfig {
        alpha: 64,
        beta: 2,
        rows: 5,
    };
    let mut rng = StdRng::seed_from_u64(3);
    let mut arena = Storing::new(&grid, 4, cfg, Backend::Arena { cap_cells: 1024 }, &mut rng);
    let mut sketch = Storing::new(&grid, 4, cfg, Backend::Sketch, &mut rng);

    // Pump one point's multiplicity past 2β, then drain back to 1: the
    // final state is small, but the arena backend lost the payload.
    let a = Point::new(vec![1, 1]);
    for st in [&mut arena, &mut sketch] {
        for _ in 0..6 {
            st.update(&a, 1); // count 6 > 2β = 4 ⇒ arena evicts
        }
        for _ in 0..5 {
            st.update(&a, -1); // final multiplicity 1 ≤ β
        }
    }
    let sk = sketch.finish().expect("sketch is oblivious to churn");
    assert_eq!(
        sk.small_points,
        vec![(a.clone(), 1)],
        "sketch recovers the survivor"
    );
    assert!(sk.dirty_small_cells.is_empty());

    let ex = arena.finish().expect("counts remain exact");
    assert_eq!(ex.cells, sk.cells, "counts agree");
    assert!(ex.small_points.is_empty(), "payload was evicted");
    assert_eq!(
        ex.dirty_small_cells.len(),
        1,
        "arena backend flags the evicted cell"
    );

    // Draining a dirty cell all the way to zero clears it entirely — an
    // empty cell needs no flag.
    let mut rng2 = StdRng::seed_from_u64(4);
    let mut drained = Storing::new(&grid, 4, cfg, Backend::Arena { cap_cells: 1024 }, &mut rng2);
    for _ in 0..6 {
        drained.update(&a, 1);
    }
    for _ in 0..6 {
        drained.update(&a, -1);
    }
    let out = drained.finish().expect("empty state");
    assert!(out.cells.is_empty() && out.dirty_small_cells.is_empty());
}
