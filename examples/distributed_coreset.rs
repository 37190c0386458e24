//! Distributed coreset construction in the coordinator model
//! (paper §4.3, Theorem 4.7): `s` machines hold shards, communicate only
//! with a coordinator, and the total communication is
//! `s · poly(ε⁻¹η⁻¹kd log Δ)` bytes — independent of n.
//!
//! The second half re-runs the protocol over a lossy (simulated)
//! network that drops one in eight deliveries: retransmission and
//! `(machine, seq)` deduplication make the coordinator converge to the
//! *same* coreset, paying only extra upload bytes.
//!
//! ```sh
//! cargo run --release --example distributed_coreset
//! ```

use sbc::prelude::*;

fn main() -> Result<(), SbcError> {
    let gp = GridParams::from_log_delta(8, 2);
    let k = 3;
    let n = 24_000;
    let params = CoresetParams::builder(k, gp).build()?;
    let sparams = StreamParams::builder().build()?;
    let points = sbc::geometry::dataset::gaussian_mixture(gp, n, k, 0.04, 5);

    println!("── Distributed coreset (coordinator model) ──");
    println!("{n} points total\n");
    println!(
        "{:>4} {:>12} {:>14} {:>14} {:>10}",
        "s", "coreset", "broadcast B", "upload B", "B/machine"
    );
    for s in [2usize, 4, 8, 16] {
        let shards = sbc::geometry::dataset::split_round_robin(&points, s);
        let (coreset, stats) = DistributedCoreset::run_threaded(&shards, &params, &sparams, 17)?;
        println!(
            "{s:>4} {:>12} {:>14} {:>14} {:>10}",
            coreset.len(),
            stats.broadcast_bytes,
            stats.upload_bytes,
            stats.upload_bytes / s as u64
        );
    }
    println!("\nUpload bytes grow ~linearly in s (per-machine sketch images are");
    println!("poly(k·d·log Δ), independent of the shard size) — Theorem 4.7.");

    // Same protocol, lossy network: drop 1 in 8 deliveries.
    let s = 8;
    let shards = sbc::geometry::dataset::split_round_robin(&points, s);
    let (clean, clean_stats) = DistributedCoreset::run_threaded(&shards, &params, &sparams, 17)?;
    let lossy_params = StreamParams::builder()
        .faults(FaultPlan::parse("drop8").expect("known profile"))
        .build()?;
    let (lossy, lossy_stats) =
        DistributedCoreset::run_threaded(&shards, &params, &lossy_params, 17)?;
    assert_eq!(clean.entries(), lossy.entries());
    println!("\n── Same run over a lossy network (fault profile `drop8`) ──");
    println!(
        "dropped {} deliveries, {} retransmissions; coreset identical to the lossless run",
        lossy_stats.dropped, lossy_stats.retransmissions
    );
    println!(
        "upload bytes: {} lossless → {} lossy (retransmission overhead only)",
        clean_stats.upload_bytes, lossy_stats.upload_bytes
    );
    Ok(())
}
