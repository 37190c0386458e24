//! `finish_ref` reads each guess straight from the builder's stores:
//! it rejects a guess whose h stores FAIL from their view counters and
//! decodes a store only when the selection reaches it. On the serving
//! profile (several seeds, deletion-heavy streams included) and on a
//! starved configuration where every guess fails, its outcome at four
//! cut points of each stream is pinned bit for bit. Per-store fail-fast
//! equivalence (`check` against `finish`) is checked in `nested.rs`.

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

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Streams `ops` in four slices and runs `finish_ref` after each,
/// handing the builder and outcome to `at_cut`. Returns the digest of
/// the four outcomes' [`bits`].
fn finish_at_cuts(
    params: &CoresetParams,
    sp: StreamParams,
    ops: &[StreamOp],
    seed: u64,
    mut at_cut: impl FnMut(&StreamCoresetBuilder, &Result<Coreset, FailReason>),
) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = StreamCoresetBuilder::new(params.clone(), sp, &mut rng);
    let mut text = String::new();
    for slice in ops.chunks(ops.len().div_ceil(4)) {
        b.process_all(slice);
        let out = b.finish_ref();
        text += &bits(&out);
        text.push('\n');
        at_cut(&b, &out);
    }
    fnv1a(text.as_bytes())
}

/// The serving streams' (log Δ, seed).
const CASES: [(u32, u64); 4] = [(6, 1), (6, 2), (8, 3), (8, 4)];

/// `finish_ref` digests of the serving streams, by case and stream:
/// inserts, churn 0.25, insert then delete.
const SERVING: [[u64; 3]; 4] = [
    [
        14467410040698406897,
        2462569690387171460,
        12317024388033469025,
    ],
    [
        12738091578646811565,
        7239173876464569617,
        2277369025023896280,
    ],
    [
        3073365422893602039,
        1846606491385346261,
        8932066029635988736,
    ],
    [
        2051571569669169207,
        11830809997073371490,
        2857046648427541286,
    ],
];

#[test]
fn finish_ref_is_pinned_on_serving_streams() {
    let mut h_rejected = 0;
    let mut got = Vec::new();
    for (log_delta, seed) in CASES {
        let gp = GridParams::from_log_delta(log_delta, 2);
        let params = CoresetParams::builder(2, gp).build().unwrap();
        let pts = gaussian_mixture(gp, 600, 2, 0.08, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = two_phase_dynamic(gp, 400, 300, 2, seed);
        let streams = [
            insertion_stream(&pts),
            churn_stream(&pts, 0.25, &mut rng),
            insert_delete_stream(&ds.kept, &ds.churn, &mut rng),
        ];
        let mut digests = [0u64; 3];
        for (digest, ops) in digests.iter_mut().zip(streams) {
            let mut rejected = false;
            *digest = finish_at_cuts(&params, serving(), &ops, seed, |b, out| {
                rejected |= b.export_summaries()[0].h.iter().any(Result::is_err);
                assert!(out.is_ok(), "log Δ = {log_delta}, seed {seed}: no coreset");
            });
            h_rejected += usize::from(rejected);
        }
        got.push(digests);
    }
    assert!(
        h_rejected > 0,
        "no stream's first guess failed at an h level"
    );
    assert_eq!(got, SERVING);
}

/// `finish_ref` digests of the starved streams, by seed.
const STARVED: [(u64, u64); 2] = [(5, 17815741836012967053), (6, 4491076375074628901)];

#[test]
fn finish_ref_is_pinned_when_every_guess_fails() {
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
    let mut got = Vec::new();
    for (seed, _) in STARVED {
        let pts = gaussian_mixture(gp, 800, 3, 0.1, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let ops = churn_stream(&pts, 0.4, &mut rng);
        let digest = finish_at_cuts(&params, starved, &ops, seed, |b, out| {
            // Every guess fails at an h level, and the failure names the
            // first failed h store of the last guess tried, as that
            // guess's summary renders it.
            let first_failed = |h: &[Result<_, String>]| {
                h.iter()
                    .enumerate()
                    .find_map(|(idx, r)| r.as_ref().err().map(|e| (idx, e.clone())))
            };
            let summaries = b.export_summaries();
            assert!(summaries.iter().all(|s| first_failed(&s.h).is_some()));
            let last = summaries.last().expect("a guess");
            let (idx, e) = first_failed(&last.h).expect("the last guess fails at h");
            let want = format!("o={:.3e} h level {}: {e}", last.o, idx as i32 - 1);
            assert!(
                matches!(out, Err(FailReason::Storage(m)) if *m == want),
                "seed {seed}: {out:?}, expected {want}"
            );
        });
        got.push((seed, digest));
    }
    assert_eq!(got, STARVED);
}
