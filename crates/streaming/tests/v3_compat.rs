//! Version-3 checkpoints still restore.
//!
//! Version 4 encodes each (role, level) arena once; version 3 wrote one
//! store snapshot per instance view. Builders spilled or migrated by a
//! version-3 binary must keep working after the upgrade, so the files
//! under `tests/fixtures/v3/` were cut by the last version-3 writer
//! (commit 512c693) from the cases defined below: each is the checkpoint
//! of [`Case::ops`]`[..cut]`, metrics registry empty. For each fixture
//! this file checks that
//!
//! * it decodes, and the decoded snapshot is the version-4 image of a
//!   live replay of the same prefix (the same bytes),
//! * the restored builder's summaries, space report and `finish_ref`
//!   coreset equal the replay's, at the cut and after resuming the rest
//!   of the stream, and
//! * its re-checkpoint hashes to a pinned version-4 FNV-1a digest.
//!
//! The cases cover a serving-profile tenant after churn and one stream
//! for each cell-key width: 64-bit packings, 128-bit packings and
//! mixing hashes (whose point keys are mixing hashes too).

use rand::rngs::StdRng;
use rand::SeedableRng;
use sbc_core::CoresetParams;
use sbc_geometry::dataset::gaussian_mixture;
use sbc_geometry::GridParams;
use sbc_obs::MetricsSnapshot;
use sbc_streaming::checkpoint::{MAGIC, VERSION};
use sbc_streaming::model::{churn_stream, StreamOp};
use sbc_streaming::{Snapshot, StreamCoresetBuilder, StreamParams};

/// FNV-1a over a byte string (64-bit).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One fixture's stream.
struct Case {
    /// Fixture file stem under `tests/fixtures/v3/`.
    name: &'static str,
    params: CoresetParams,
    sp: StreamParams,
    /// Builder seed (grid shift, hashes, assembly RNG).
    seed: u64,
    ops: Vec<StreamOp>,
    /// The fixture is the checkpoint after `ops[..cut]`.
    cut: usize,
}

impl Case {
    fn build(&self) -> StreamCoresetBuilder {
        let mut rng = StdRng::seed_from_u64(self.seed);
        StreamCoresetBuilder::new(self.params.clone(), self.sp, &mut rng)
    }

    fn fixture(&self) -> Vec<u8> {
        let path = format!(
            "{}/tests/fixtures/v3/{}.ckpt",
            env!("CARGO_MANIFEST_DIR"),
            self.name
        );
        std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }
}

/// A churned stream: `n` points of a 3-cluster mixture, inserted, then
/// all but `survive` of them deleted; cut two thirds of the way in.
fn churned(
    name: &'static str,
    log_delta: u32,
    d: usize,
    n: usize,
    sp: StreamParams,
    seed: u64,
) -> Case {
    let gp = GridParams::from_log_delta(log_delta, d);
    let params = CoresetParams::builder(3, gp).build().expect("params");
    let pts = gaussian_mixture(gp, n, 3, 0.04, seed);
    let ops = churn_stream(&pts, 0.4, &mut StdRng::seed_from_u64(seed));
    let cut = ops.len() * 2 / 3;
    Case {
        name,
        params,
        sp,
        seed,
        ops,
        cut,
    }
}

fn cases() -> Vec<Case> {
    // The serving tier's pipeline (`sbc::api::tenant_pipeline`).
    let serving = StreamParams::builder()
        .est_rate(24.0)
        .alpha_factor(2.0)
        .rows(2)
        .build()
        .expect("serving params");
    let short = |o_max: f64| {
        StreamParams::builder()
            .o_ladder_max(o_max)
            .build()
            .expect("stream params")
    };
    vec![
        churned("serving_churn", 6, 2, 24, serving, 11),
        churned("cells_u64", 8, 2, 40, short(1024.0), 1),
        churned("cells_u128", 10, 8, 16, short(256.0), 2),
        churned("cells_hashed", 10, 16, 9, short(64.0), 4),
    ]
}

/// Canonical checkpoint bytes, without the metrics registry.
fn checkpoint_bytes(b: &StreamCoresetBuilder) -> Vec<u8> {
    let mut snap = b.checkpoint().expect("arena stores checkpoint");
    snap.metrics = MetricsSnapshot::default();
    snap.to_bytes()
}

fn coreset(b: &StreamCoresetBuilder) -> String {
    format!("{:?}", b.finish_ref().map(|c| (c.o, c.entries().to_vec())))
}

/// Asserts every observable output of `a` equals `b`'s.
fn assert_same(a: &StreamCoresetBuilder, b: &StreamCoresetBuilder, what: &str) {
    assert_eq!(a.net_count(), b.net_count(), "{what}");
    assert_eq!(a.export_summaries(), b.export_summaries(), "{what}");
    assert_eq!(a.space_report(), b.space_report(), "{what}");
    assert_eq!(coreset(a), coreset(b), "{what}");
    assert_eq!(checkpoint_bytes(a), checkpoint_bytes(b), "{what}");
}

/// Version-4 digest of each fixture's re-checkpoint, in [`cases`] order.
const V4_DIGESTS: [u64; 4] = [
    0x5b0d7049bd57fe40,
    0xab9a526f95d48a84,
    0xe8654bb9afa827c5,
    0x1ff5858680a1e7da,
];

#[test]
fn v3_fixtures_restore_like_a_live_replay() {
    let mut digests = Vec::new();
    for case in cases() {
        let name = case.name;
        let v3 = case.fixture();
        assert_eq!(&v3[..8], &MAGIC, "{name}");
        assert_eq!(&v3[8..12], &3u32.to_le_bytes(), "{name}: a version-3 image");

        let mut replay = case.build();
        replay.process_all(&case.ops[..case.cut]);

        let snap = Snapshot::from_bytes(&v3).expect("version 3 decodes");
        let upgraded = snap.to_bytes();
        assert_eq!(&upgraded[8..12], &VERSION.to_le_bytes(), "{name}");
        assert_eq!(upgraded, checkpoint_bytes(&replay), "{name}: v4 image");
        assert!(upgraded.len() < v3.len(), "{name}: v4 is smaller");

        let mut restored = StreamCoresetBuilder::restore(&snap).expect("restores");
        assert_same(&restored, &replay, name);
        digests.push(fnv1a(&checkpoint_bytes(&restored)));

        restored.process_all(&case.ops[case.cut..]);
        replay.process_all(&case.ops[case.cut..]);
        assert_same(&restored, &replay, name);
    }
    assert_eq!(
        digests,
        V4_DIGESTS,
        "v4 digests: {:#018x?}",
        digests.iter().collect::<Vec<_>>()
    );
}

/// A truncated or bit-flipped version-3 image is refused or restores
/// into a builder that passes restore's checks; it never panics.
#[test]
fn damaged_v3_fixture_fails_loudly() {
    let case = &cases()[1];
    let v3 = case.fixture();
    for len in (0..v3.len()).step_by(97) {
        assert!(Snapshot::from_bytes(&v3[..len]).is_err(), "prefix {len}");
    }
    for at in (12..v3.len()).step_by(89) {
        let mut bad = v3.clone();
        bad[at] ^= 0x5a;
        if let Ok(snap) = Snapshot::from_bytes(&bad) {
            let _ = StreamCoresetBuilder::restore(&snap);
        }
    }
}
