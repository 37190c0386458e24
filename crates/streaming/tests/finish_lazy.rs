//! `finish_ref` reads each guess straight from the builder's stores:
//! it rejects a guess whose h stores FAIL from their view counters and
//! decodes a store only when the selection reaches it. The coordinator
//! path, `finish_from_summaries`, runs the same selection over fully
//! decoded summaries. On the serving profile (several seeds, deletion-
//! heavy streams included) and on a starved configuration where every
//! guess fails, both must give the same coreset bit for bit, or the same
//! `FailReason`, at several cut points of each stream.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sbc_core::{Coreset, CoresetParams, FailReason};
use sbc_geometry::dataset::{gaussian_mixture, two_phase_dynamic};
use sbc_geometry::GridParams;
use sbc_streaming::model::{churn_stream, insert_delete_stream, insertion_stream, StreamOp};
use sbc_streaming::{StreamCoresetBuilder, StreamParams};

/// The serving profile (`sbc::api::tenant_pipeline`).
fn serving() -> StreamParams {
    StreamParams::builder()
        .est_rate(24.0)
        .alpha_factor(2.0)
        .rows(2)
        .build()
        .unwrap()
}

/// The bits of a finish outcome: the chosen guess, every entry, the
/// level and part rates and the grid shift (`Debug` prints each `f64` in
/// its shortest round-trip form), or the failure.
fn bits(out: &Result<Coreset, FailReason>) -> String {
    match out {
        Ok(cs) => {
            let part_phis: Vec<Vec<(usize, f64)>> = cs
                .part_phis
                .iter()
                .map(|rates| {
                    let mut rates: Vec<(usize, f64)> =
                        rates.iter().map(|(&p, &r)| (p, r)).collect();
                    rates.sort_by_key(|&(p, _)| p);
                    rates
                })
                .collect();
            format!(
                "o={:?} entries={:?} phis={:?} part_phis={part_phis:?} shift={:?}",
                cs.o,
                cs.entries(),
                cs.phis,
                cs.shift
            )
        }
        Err(e) => format!("{e:?}"),
    }
}

/// Streams `ops` in four slices; after each, `finish_ref` must equal
/// `finish_from_summaries` over the exported summaries. Returns the
/// final outcome and whether the first guess failed at an h level
/// (which the lazy path rejects without decoding) at some cut.
fn lazy_matches_materialized(
    params: &CoresetParams,
    sp: StreamParams,
    ops: &[StreamOp],
    seed: u64,
    case: &str,
) -> (Result<Coreset, FailReason>, bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = StreamCoresetBuilder::new(params.clone(), sp, &mut rng);
    let mut h_rejected = false;
    let mut last = Err(FailReason::NoWorkableO);
    for (cut, slice) in ops.chunks(ops.len().div_ceil(4)).enumerate() {
        b.process_all(slice);
        let lazy = b.finish_ref();
        let summaries = b.export_summaries();
        h_rejected |= summaries[0].h.iter().any(Result::is_err);
        // `finish_from_summaries` advances the builder's RNG; `finish_ref`
        // ran first from the same state.
        let eager = b.finish_from_summaries(&summaries);
        assert_eq!(bits(&lazy), bits(&eager), "{case}, cut {cut}");
        last = lazy;
    }
    (last, h_rejected)
}

#[test]
fn lazy_finish_equals_materialized_on_serving_streams() {
    let mut h_rejected = 0;
    let mut cases = 0;
    for (log_delta, seed) in [(6, 1), (6, 2), (8, 3), (8, 4)] {
        let gp = GridParams::from_log_delta(log_delta, 2);
        let params = CoresetParams::builder(2, gp).build().unwrap();
        let pts = gaussian_mixture(gp, 600, 2, 0.08, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = two_phase_dynamic(gp, 400, 300, 2, seed);
        let streams = [
            ("inserts", insertion_stream(&pts)),
            ("churn 0.25", churn_stream(&pts, 0.25, &mut rng)),
            (
                "insert then delete",
                insert_delete_stream(&ds.kept, &ds.churn, &mut rng),
            ),
        ];
        for (name, ops) in streams {
            let case = format!("log Δ = {log_delta}, seed {seed}, {name}");
            let (out, rejected) = lazy_matches_materialized(&params, serving(), &ops, seed, &case);
            assert!(out.is_ok(), "{case}: the serving profile yields a coreset");
            h_rejected += usize::from(rejected);
            cases += 1;
        }
    }
    assert!(
        h_rejected > 0,
        "no case rejected its first guess at an h level ({cases} cases)"
    );
}

#[test]
fn lazy_finish_equals_materialized_when_every_guess_fails() {
    // A budget of a cell or two per store and only the smallest guesses,
    // which sample every point: each guess FAILs at some h level, by a
    // store over α or killed at its cap.
    let starved = StreamParams {
        alpha_factor: 0.02,
        cap_cells: 2,
        o_ladder_max: Some(16.0),
        ..serving()
    };
    let gp = GridParams::from_log_delta(8, 2);
    let params = CoresetParams::builder(3, gp).build().unwrap();
    for seed in [5, 6] {
        let pts = gaussian_mixture(gp, 800, 3, 0.1, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let ops = churn_stream(&pts, 0.4, &mut rng);
        let case = format!("starved, seed {seed}");
        let (out, rejected) = lazy_matches_materialized(&params, starved, &ops, seed, &case);
        assert!(
            matches!(&out, Err(FailReason::Storage(e)) if e.contains(" h level")),
            "{case}: every guess fails at an h level, the last with {out:?}"
        );
        assert!(rejected, "{case}: the first guess fails at an h level");
    }
}
