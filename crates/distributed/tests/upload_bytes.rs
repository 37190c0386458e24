//! Experiment E6 reads exact upload bytes. On a lossless network every
//! machine uploads its builder's image once, in a 20-byte envelope
//! header (u32 machine, u64 seq, u64 payload length), and the image
//! carries no metrics registry: the count is the same whether or not
//! the process records metrics.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sbc_core::CoresetParams;
use sbc_distributed::DistributedCoreset;
use sbc_geometry::dataset::{gaussian_mixture, split_round_robin};
use sbc_geometry::{GridHierarchy, GridParams};
use sbc_obs::MetricsSnapshot;
use sbc_streaming::{StreamCoresetBuilder, StreamParams};

#[test]
fn lossless_upload_bytes_are_the_machine_images_plus_envelope_headers() {
    // Under `--features obs` this records, so a checkpoint carries the
    // registry: an upload that kept it would count more bytes.
    sbc_obs::set_enabled(true);
    let p = CoresetParams::builder(3, GridParams::from_log_delta(8, 2))
        .build()
        .unwrap();
    let sp = StreamParams::default();
    let pts = gaussian_mixture(p.grid, 3000, 3, 0.04, 17);
    let seed = 19;
    for s in [1usize, 3, 4] {
        let shards = split_round_robin(&pts, s);
        // The machines' builders, drawn from the broadcast for `seed`.
        let mut rng = StdRng::seed_from_u64(seed);
        let grid = GridHierarchy::new(p.grid, &mut rng);
        let hash_seed: u64 = rng.gen();
        let expected: u64 = shards
            .iter()
            .map(|shard| {
                let mut hrng = StdRng::seed_from_u64(hash_seed);
                let mut b = StreamCoresetBuilder::with_grid(p.clone(), sp, grid.clone(), &mut hrng);
                b.insert_batch(shard);
                let mut snap = b.checkpoint().unwrap();
                snap.metrics = MetricsSnapshot::default();
                snap.to_bytes().len() as u64 + 20
            })
            .sum();
        for run in [DistributedCoreset::run, DistributedCoreset::run_threaded] {
            let (_, stats) = run(&shards, &p, &sp, seed).unwrap();
            assert_eq!(stats.upload_bytes, expected, "s = {s}");
            assert_eq!(stats.messages, 2 * s as u64, "s = {s}");
        }
    }
}
