//! Sharded ingest: one dynamic stream partitioned across `S`
//! independent builders, folded up a binary merge tree at finish.
//!
//! [`ShardedIngest`] is the horizontal-composition front-end over
//! [`StreamCoresetBuilder::merge`]: construct it with
//! `StreamParams::shards = S` and feed it the stream; each operation is
//! routed to a shard **by point identity** (a hash of the packed point
//! key), so a deletion always lands on the shard that absorbed the
//! matching insertion — the per-shard substreams remain valid dynamic
//! streams with no over-deletion. All shard builders are constructed
//! from one seed and therefore share the grid shift and the λ-wise hash
//! family; the merge tree's union of their `Storing` states is exactly
//! what a monolithic builder over the whole stream would hold (see
//! `sbc_streaming::merge` and DESIGN.md §8).
//!
//! Determinism: shard routing is a pure function of the point, the fold
//! order is fixed (shard index = leaf order, pairs `(0,1), (2,3), …`),
//! and per-shard ingest is bit-deterministic, so the finished coreset is
//! bit-identical for a given `(seed, shards)` — whether shards ingest
//! serially or on threads.
//!
//! Shards here are builders in one process. `sbc-distributed` runs the
//! same merge machine to machine: each machine uploads its builder's
//! checkpoint image over the envelope layer, and the coordinator
//! restores the images and folds them with the same `merge_many` (or
//! pairwise up a tree, `DistributedCoreset::run_tree`), so on shards cut
//! by [`ShardedIngest::shard_of`] every protocol run equals
//! [`ShardedIngest::finish`] bit for bit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sbc_core::{Coreset, CoresetParams, ParamsError};
use sbc_geometry::{GridHierarchy, Point};
use sbc_obs::fault::splitmix64;
use sbc_streaming::coreset_stream::{ShardedSpaceReport, SpaceReport};
use sbc_streaming::{Snapshot, StreamCoresetBuilder, StreamOp, StreamParams};

use crate::SbcError;

/// A dynamic stream partitioned across `S` shard builders (threads
/// today, machines via `sbc-distributed`), merged at finish.
///
/// ```
/// use sbc::prelude::*;
///
/// # fn main() -> Result<(), SbcError> {
/// let gp = GridParams::from_log_delta(7, 2);
/// let points = sbc::geometry::dataset::gaussian_mixture(gp, 4000, 3, 0.05, 7);
/// let params = CoresetParams::builder(3, gp).build()?;
/// let sp = StreamParams::builder().shards(4).build()?;
/// let mut ingest = sbc::ShardedIngest::new(params, sp, 42)?;
/// ingest.insert_batch(&points);
/// let coreset = ingest.finish()?;
/// assert!(coreset.len() < 4000);
/// # Ok(())
/// # }
/// ```
pub struct ShardedIngest {
    builders: Vec<StreamCoresetBuilder>,
    delta: u64,
    parallel: bool,
}

impl ShardedIngest {
    /// Builds `sparams.shards` shard builders from one seed: a shared
    /// grid shift and hash family (like the distributed protocol's
    /// broadcast), so the shards' states merge losslessly.
    pub fn new(params: CoresetParams, sparams: StreamParams, seed: u64) -> Result<Self, SbcError> {
        if sparams.shards == 0 {
            return Err(SbcError::Params(ParamsError::out_of_range(
                "shards", 0.0, "≥ 1",
            )));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let grid = GridHierarchy::new(params.grid, &mut rng);
        let hash_seed: u64 = rng.gen();
        let delta = params.grid.delta;
        let builders = (0..sparams.shards)
            .map(|_| {
                // Every shard re-seeds identically: identical hash
                // coefficients AND identical internal assembly RNG, the
                // compatibility contract `merge` checks.
                let mut hrng = StdRng::seed_from_u64(hash_seed);
                StreamCoresetBuilder::with_grid(params.clone(), sparams, grid.clone(), &mut hrng)
            })
            .collect();
        sbc_obs::counter!("stream.merge.sharded_ingests").incr();
        Ok(Self {
            builders,
            delta,
            parallel: sparams.parallel,
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.builders.len()
    }

    /// The shard a point is routed to: a pure function of the point's
    /// packed key, so deletions meet their insertions and routing is
    /// independent of arrival order, batching, and threading.
    pub fn shard_of(&self, p: &Point) -> usize {
        let key = p.key128(self.delta);
        let h = splitmix64((key as u64) ^ ((key >> 64) as u64));
        (h % self.builders.len() as u64) as usize
    }

    /// Net number of live points across all shards.
    pub fn net_count(&self) -> i64 {
        self.builders.iter().map(|b| b.net_count()).sum()
    }

    /// Gross stream operations absorbed across all shards.
    pub fn ops_seen(&self) -> u64 {
        self.builders.iter().map(|b| b.ops_seen()).sum()
    }

    /// Inserts one point (routed to its shard's per-op path).
    pub fn insert(&mut self, p: &Point) {
        let s = self.shard_of(p);
        self.builders[s].insert(p);
    }

    /// Deletes one previously inserted point.
    pub fn delete(&mut self, p: &Point) {
        let s = self.shard_of(p);
        self.builders[s].delete(p);
    }

    /// Processes one stream operation.
    pub fn process(&mut self, op: &StreamOp) {
        let s = self.shard_of(op.point());
        self.builders[s].process(op);
    }

    /// Processes a whole stream through each shard's batched fast path —
    /// across threads when [`StreamParams::parallel`] is set (shards own
    /// disjoint builders, so the parallel path is bit-identical to the
    /// serial one).
    pub fn process_all(&mut self, ops: &[StreamOp]) {
        let mut per_shard: Vec<Vec<StreamOp>> = vec![Vec::new(); self.builders.len()];
        for op in ops {
            per_shard[self.shard_of(op.point())].push(op.clone());
        }
        if self.parallel && self.builders.len() > 1 {
            rayon::scope(|scope| {
                for (builder, shard_ops) in self.builders.iter_mut().zip(&per_shard) {
                    scope.spawn(move |_| builder.process_all(shard_ops));
                }
            });
        } else {
            for (builder, shard_ops) in self.builders.iter_mut().zip(&per_shard) {
                builder.process_all(shard_ops);
            }
        }
    }

    /// Inserts a whole slice of points.
    pub fn insert_batch(&mut self, points: &[Point]) {
        let ops: Vec<StreamOp> = points.iter().map(|p| StreamOp::Insert(p.clone())).collect();
        self.process_all(&ops);
    }

    /// Cross-shard space accounting: fleet totals plus the worst single
    /// shard (the E4 claim under sharding).
    pub fn space_report(&self) -> ShardedSpaceReport {
        ShardedSpaceReport::aggregate(&self.shard_space_reports())
    }

    /// The summed measured footprint of the shards — the aggregate
    /// report's `total.measured_bytes` without building the reports
    /// (see [`StreamCoresetBuilder::measured_bytes`]).
    pub fn measured_bytes(&self) -> usize {
        self.builders.iter().map(|b| b.measured_bytes()).sum()
    }

    /// Per-shard space reports, in shard order (the inputs
    /// [`Self::space_report`] aggregates).
    pub fn shard_space_reports(&self) -> Vec<SpaceReport> {
        self.builders.iter().map(|b| b.space_report()).collect()
    }

    /// Checkpoints one shard builder mid-stream (see
    /// [`StreamCoresetBuilder::checkpoint`]).
    pub fn checkpoint_shard(&self, shard: usize) -> Result<Snapshot, SbcError> {
        Ok(self.builders[shard].checkpoint()?)
    }

    /// Replaces one shard builder with a restored snapshot — e.g. after
    /// a shard process crashed mid-stream. Compatibility with the other
    /// shards is re-verified at merge time.
    pub fn restore_shard(&mut self, shard: usize, snap: &Snapshot) -> Result<(), SbcError> {
        self.builders[shard] = StreamCoresetBuilder::restore(snap)?;
        Ok(())
    }

    /// Folds the shards up the fixed binary merge tree and returns the
    /// merged builder (e.g. to checkpoint a merge-tree node, or to keep
    /// streaming into it single-shard).
    pub fn into_merged(self) -> Result<StreamCoresetBuilder, SbcError> {
        Ok(StreamCoresetBuilder::merge_many(self.builders)?)
    }

    /// Ends the pass: merge tree, then the standard ascending-`o`
    /// assembly on the merged state.
    pub fn finish(self) -> Result<Coreset, SbcError> {
        Ok(self.into_merged()?.finish()?)
    }

    /// Emits the coreset of the stream *so far* without consuming the
    /// ingest — the sharded counterpart of
    /// [`StreamCoresetBuilder::finish_ref`], and what lets `sbc-serve`
    /// answer live queries mid-stream.
    ///
    /// Each shard is cloned through its (bit-identical) checkpoint
    /// round trip, then the clones run the normal merge tree and
    /// assembly; the live builders are untouched, so continuing the
    /// stream afterwards matches an uninterrupted run exactly.
    pub fn finish_ref(&self) -> Result<Coreset, SbcError> {
        let clones = self
            .builders
            .iter()
            .map(|b| Ok(StreamCoresetBuilder::restore(&b.checkpoint()?)?))
            .collect::<Result<Vec<_>, SbcError>>()?;
        Ok(StreamCoresetBuilder::merge_many(clones)?.finish()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbc_geometry::dataset::gaussian_mixture;
    use sbc_geometry::GridParams;
    use sbc_streaming::insertion_stream;

    fn params() -> CoresetParams {
        CoresetParams::builder(3, GridParams::from_log_delta(8, 2))
            .build()
            .unwrap()
    }

    #[test]
    fn sharded_ingest_produces_coreset() {
        let p = params();
        let pts = gaussian_mixture(p.grid, 4000, 3, 0.04, 11);
        let sp = StreamParams::builder().shards(4).build().unwrap();
        let mut ingest = ShardedIngest::new(p, sp, 7).unwrap();
        ingest.process_all(&insertion_stream(&pts));
        assert_eq!(ingest.net_count(), 4000);
        assert_eq!(ingest.ops_seen(), 4000);
        let cs = ingest.finish().expect("sharded coreset");
        assert!(!cs.is_empty());
        assert!(cs.len() < 4000);
        let tw = cs.total_weight();
        assert!((tw - 4000.0).abs() < 0.3 * 4000.0, "total weight {tw}");
    }

    #[test]
    fn zero_shards_is_rejected() {
        let sp = StreamParams {
            shards: 0,
            ..StreamParams::default()
        };
        assert!(matches!(
            ShardedIngest::new(params(), sp, 1),
            Err(SbcError::Params(_))
        ));
        assert!(StreamParams::builder().shards(0).build().is_err());
    }

    #[test]
    fn sharded_space_report_aggregates_and_keeps_the_golden_schema() {
        let p = params();
        let pts = gaussian_mixture(p.grid, 2000, 3, 0.04, 19);
        let sp = StreamParams::builder().shards(4).build().unwrap();
        let mut ingest = ShardedIngest::new(p, sp, 23).unwrap();
        ingest.insert_batch(&pts);
        let rep = ingest.space_report();

        assert_eq!(rep.shards, 4);
        // total is a sum, max_per_shard a bound on it.
        assert!(rep.total.instances > rep.max_per_shard.instances);
        assert_eq!(rep.total.instances % 4, 0, "4 identical ladders");
        assert!(rep.total.hash_bytes == 4 * rep.max_per_shard.hash_bytes);
        assert!(rep.max_per_shard.store_bytes * 4 >= rep.total.store_bytes);
        assert!(rep.max_per_shard.store_bytes <= rep.total.store_bytes);

        // Regression: both sub-objects must carry the exact golden
        // schema of SpaceReport::to_json — E4's space claim is
        // parsed out of these keys under sharding too.
        let json = rep.to_json().to_string();
        for key in ["shards", "total", "max_per_shard"] {
            assert!(
                json.contains(&format!("\"{key}\"")),
                "missing {key}: {json}"
            );
        }
        let golden = [
            "hash_bytes",
            "store_bytes",
            "nominal_sketch_bytes",
            "nominal_sketch_bytes_human",
            "measured_bytes",
            "peak_measured_bytes",
            "expected_sketch_bytes",
            "nominal_to_measured_ratio",
            "instances",
            "dead_stores",
            "live_stores",
            "runaway_kill",
            "sketch_overflow",
            "arena_slots",
            "arena_entries",
            "arena_load_factor",
        ];
        for key in golden {
            assert_eq!(
                json.matches(&format!("\"{key}\"")).count(),
                2,
                "{key} must appear in both total and max_per_shard: {json}"
            );
        }
    }

    #[test]
    fn max_per_shard_ratio_comes_from_the_worst_shards_own_pair() {
        // Regression: a field-wise max of per-shard *ratios* (or a
        // ratio of field-wise maxima) pairs one shard's numerator with
        // another's denominator. The JSON's max_per_shard ratio must be
        // exactly `worst.nominal / worst.measured` for the shard with
        // the largest measured footprint.
        let p = params();
        let pts = gaussian_mixture(p.grid, 2000, 3, 0.04, 19);
        let sp = StreamParams::builder().shards(4).build().unwrap();
        let mut ingest = ShardedIngest::new(p, sp, 23).unwrap();
        ingest.insert_batch(&pts);
        let per_shard = ingest.shard_space_reports();
        let rep = ingest.space_report();

        let worst = per_shard
            .iter()
            .max_by_key(|r| r.measured_bytes)
            .expect("4 shards");
        assert_eq!(rep.max_shard_measured_bytes, worst.measured_bytes);
        assert_eq!(
            rep.max_shard_nominal_sketch_bytes,
            worst.nominal_sketch_bytes
        );

        let doc = sbc_obs::json::JsonValue::parse(&rep.to_json().to_string()).unwrap();
        let got = doc
            .get("max_per_shard")
            .and_then(|m| m.get("nominal_to_measured_ratio"))
            .and_then(|v| v.as_f64())
            .expect("max_per_shard carries a numeric ratio");
        let want = worst.nominal_sketch_bytes as f64 / worst.measured_bytes as f64;
        assert!(
            (got - want).abs() <= want * 1e-9,
            "max_per_shard ratio {got} != worst shard's own {want}"
        );
        // And the total's ratio is the summed pair, not a sum of ratios.
        let total_got = doc
            .get("total")
            .and_then(|m| m.get("nominal_to_measured_ratio"))
            .and_then(|v| v.as_f64())
            .unwrap();
        let total_want = rep.total.nominal_sketch_bytes as f64 / rep.total.measured_bytes as f64;
        assert!((total_got - total_want).abs() <= total_want * 1e-9);
    }

    #[test]
    fn finish_ref_matches_finish_and_does_not_perturb() {
        let p = params();
        let pts = gaussian_mixture(p.grid, 2000, 3, 0.04, 31);
        let sp = StreamParams::builder().shards(4).build().unwrap();
        let mut ingest = ShardedIngest::new(p, sp, 9).unwrap();
        ingest.insert_batch(&pts[..1500]);
        let mid = ingest.finish_ref().expect("mid-stream coreset");
        assert!(!mid.is_empty());
        // Querying must not perturb the continuing stream.
        ingest.insert_batch(&pts[1500..]);
        let queried = ingest.finish().expect("post-query finish");

        let p2 = params();
        let sp2 = StreamParams::builder().shards(4).build().unwrap();
        let mut untouched = ShardedIngest::new(p2, sp2, 9).unwrap();
        untouched.insert_batch(&pts);
        let clean = untouched.finish().expect("uninterrupted finish");
        assert_eq!(queried.entries(), clean.entries());
    }

    #[test]
    fn routing_is_point_stable() {
        let p = params();
        let pts = gaussian_mixture(p.grid, 200, 3, 0.04, 5);
        let sp = StreamParams::builder().shards(8).build().unwrap();
        let ingest = ShardedIngest::new(p, sp, 3).unwrap();
        for pt in &pts {
            let s = ingest.shard_of(pt);
            assert!(s < 8);
            assert_eq!(s, ingest.shard_of(pt), "routing must be pure");
        }
    }
}
