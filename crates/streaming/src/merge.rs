//! Composable coreset merging — the merge-tree side of Theorem 5.1.
//!
//! The paper's strong coresets are *composable*: the union of coresets
//! of disjoint streams is a coreset of the union. Mechanically the repo
//! exploits a sharper fact: all shard builders share one family of
//! λ-wise hash functions (constructed from one seed), so the union of
//! their subsampled `Storing` states is **exactly** the state one
//! monolithic builder would hold over the concatenated stream — merging
//! is lossless at the store level, not merely `(1+ε)`-preserving. See
//! [`crate::StreamCoresetBuilder::merge`] for the operator and
//! `DESIGN.md` §8 for the determinism argument.
//!
//! The [`EpsSchedule`] here is the conservative accounting for the
//! general merge-and-reduce setting (and the contract the differential
//! oracle suite checks against): if level `ℓ` of a merge tree were to
//! cost a factor `(1 + ε_ℓ)` with `ε_ℓ = ε/2^{ℓ+1}`, the product over
//! any depth stays below `e^ε ≤ 1 + 2ε` (for `ε ≤ 1`). A tree node
//! records its [`merge depth`](crate::StreamCoresetBuilder::merge_depth)
//! so the budget actually consumed is inspectable.

/// Why two builders could not be merged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MergeError {
    /// The builders disagree on parameters, grid shift, or hash
    /// coefficients — they are not shards of one logical stream.
    Incompatible(String),
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::Incompatible(why) => write!(f, "builders are not mergeable: {why}"),
        }
    }
}

impl std::error::Error for MergeError {}

/// Per-level ε budget of a merge tree: level `ℓ` (leaves = level 0) may
/// spend `ε_ℓ = ε/2^{ℓ+1}`, so the series over any depth sums below `ε`
/// and the compounded approximation factor stays below `e^ε`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpsSchedule {
    eps: f64,
}

impl EpsSchedule {
    /// A schedule over the total budget `eps` (must be positive).
    pub fn new(eps: f64) -> Self {
        assert!(eps > 0.0 && eps.is_finite(), "eps must be positive");
        Self { eps }
    }

    /// The total budget `ε` the schedule was built over.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Budget for one merge at tree level `level` (the first merge above
    /// the leaves is level 0): `ε/2^{level+1}`.
    pub fn level_eps(&self, level: u32) -> f64 {
        self.eps / 2f64.powi(level.min(1000) as i32 + 1)
    }

    /// Budget consumed by a node of the given merge depth:
    /// `Σ_{ℓ<depth} ε_ℓ = ε·(1 − 2^{−depth}) < ε`.
    pub fn spent(&self, depth: u32) -> f64 {
        self.eps * (1.0 - 2f64.powi(-(depth.min(1000) as i32)))
    }

    /// The compounded approximation factor at the given depth:
    /// `Π_{ℓ<depth} (1 + ε_ℓ) ≤ e^{spent} ≤ e^ε`.
    pub fn compounded(&self, depth: u32) -> f64 {
        (0..depth.min(1000))
            .map(|l| 1.0 + self.level_eps(l))
            .product()
    }

    /// Whether a node of the given depth is within the `1 + 2ε` envelope
    /// the differential oracle suite checks (true for every depth when
    /// `ε ≤ 1`, by `e^ε ≤ 1 + 2ε`).
    pub fn within_budget(&self, depth: u32) -> bool {
        self.compounded(depth) <= 1.0 + 2.0 * self.eps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_sums_below_eps_at_any_depth() {
        let s = EpsSchedule::new(0.3);
        let mut total = 0.0;
        for level in 0..64 {
            total += s.level_eps(level);
        }
        assert!(total < 0.3 + 1e-12, "series total {total}");
        assert!(s.spent(64) <= 0.3, "spent caps at eps");
        assert!(s.spent(4) < s.spent(8), "deeper trees spend more");
    }

    #[test]
    fn compounded_factor_stays_within_one_plus_two_eps() {
        for eps in [0.05, 0.2, 0.5, 1.0] {
            let s = EpsSchedule::new(eps);
            for depth in [0, 1, 3, 10, 40] {
                assert!(
                    s.within_budget(depth),
                    "eps {eps} depth {depth}: {}",
                    s.compounded(depth)
                );
            }
            assert!(s.compounded(40) <= eps.exp() + 1e-9);
        }
    }

    #[test]
    fn error_displays() {
        assert!(MergeError::Incompatible("shift".into())
            .to_string()
            .contains("shift"));
    }
}
