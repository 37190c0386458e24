//! Parameters and derived constants of the coreset construction.
//!
//! Algorithm 2 (line 3) fixes, for inputs `k, r, ε, η` and `L = log Δ`:
//!
//! ```text
//! γ = 2^{−2(r+10)} · min( η/(kL), ε/((k + d^{1.5r})·L) )
//! ξ = 2^{−2(r+10)} · min(ε, η) / (k·(k + d^{1.5r})·L²)
//! λ = 10⁶ · r · k³ · d · L · ⌈log(kdL)⌉
//! Tᵢ(o) = 0.01 · o / (√d·gᵢ)^r          (heavy-cell threshold, Alg. 1)
//! φᵢ = min(1, 2^{2(r+10)} · λ / (ξ³·γ·Tᵢ(o)))   (sampling rate)
//! ```
//!
//! with FAIL conditions `Σ sᵢ > 20000(k + d^{1.5r})L` and
//! `τ(⋃ⱼ Q_{i,j}) > 10000(kL + d^{1.5r})·Tᵢ(o)`.
//!
//! These constants are chosen for proof convenience, not execution: at
//! laptop scale `φᵢ` saturates at 1 and the coreset would be all of `Q`.
//! [`ConstantsProfile`] therefore offers two modes:
//!
//! * [`ConstantsProfile::PaperFaithful`] — the printed formulas verbatim
//!   (unit-tested for formula fidelity; usable when you really have
//!   `n ≫ poly` everything);
//! * [`ConstantsProfile::Practical`] — identical *functional forms* with
//!   laptop-scale multipliers, parameterized by a target expected sample
//!   count per retained part. All experiments use this profile and
//!   EXPERIMENTS.md records it. The γ/ξ/φ roles (small-part cutoff,
//!   region-mass resolution, inverse-weight sampling) are unchanged.

use sbc_geometry::GridParams;

/// A parameter rejected at `build()` time by one of the fluent builders
/// ([`CoresetParams::builder`], `StreamParams::builder` in
/// `sbc-streaming`). Carries enough to render an actionable message
/// without any crate-specific context.
#[derive(Clone, Debug, PartialEq)]
pub enum ParamsError {
    /// A numeric field fell outside its documented range.
    OutOfRange {
        /// Field name as written at the call site.
        name: &'static str,
        /// The offending value (integral fields are widened).
        value: f64,
        /// Human-readable description of the accepted range.
        allowed: &'static str,
    },
    /// A required field was never set.
    Missing {
        /// Field name as written at the call site.
        name: &'static str,
    },
}

impl ParamsError {
    /// Convenience constructor for [`ParamsError::OutOfRange`].
    pub fn out_of_range(name: &'static str, value: f64, allowed: &'static str) -> Self {
        ParamsError::OutOfRange {
            name,
            value,
            allowed,
        }
    }
}

impl std::fmt::Display for ParamsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamsError::OutOfRange {
                name,
                value,
                allowed,
            } => write!(
                f,
                "parameter {name} = {value} out of range (need {allowed})"
            ),
            ParamsError::Missing { name } => write!(f, "required parameter {name} not set"),
        }
    }
}

impl std::error::Error for ParamsError {}

/// Which constant regime to derive γ, ξ, λ, φᵢ and the FAIL thresholds in.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ConstantsProfile {
    /// The paper's printed constants, verbatim.
    PaperFaithful,
    /// Same formulas, laptop-scale multipliers.
    Practical {
        /// Expected number of samples from a part of the minimum retained
        /// size `γ·Tᵢ(o)`; larger ⇒ bigger, more accurate coresets.
        samples_per_part: f64,
        /// Small-part cutoff as a fraction of `Tᵢ(o)` (the paper's γ).
        gamma: f64,
        /// Independence degree λ of all hash functions.
        lambda: usize,
        /// Heavy-cell budget multiplier: FAIL when
        /// `Σ sᵢ > factor·(k + d^{1.5r})·L`.
        max_heavy_factor: f64,
        /// Per-level mass budget multiplier: FAIL when
        /// `τ(⋃ⱼQ_{i,j}) > factor·(kL + d^{1.5r})·Tᵢ(o)`.
        max_level_mass_factor: f64,
        /// `o`-selection budget: the driver accepts the smallest `o`
        /// whose heavy-cell count is ≤ `select_heavy_factor·k·L`. This is
        /// the practical analogue of the paper's tight FAIL constant — by
        /// Lemma 3.3 the heavy count at `o ≈ OPT` is `O((k+d^{1.5r})L)`,
        /// and it blows up as `o` shrinks below `OPT`, so the smallest
        /// `o` passing this bound lands within a constant factor of the
        /// Lemma 3.18 window `[OPT/10, OPT]`.
        select_heavy_factor: f64,
    },
}

impl ConstantsProfile {
    /// A sensible practical default (the profile [`CoresetParams::builder`]
    /// starts from).
    pub fn default_practical() -> Self {
        ConstantsProfile::Practical {
            samples_per_part: 48.0,
            gamma: 0.05,
            lambda: 32,
            max_heavy_factor: 8.0,
            max_level_mass_factor: 32.0,
            select_heavy_factor: 24.0,
        }
    }
}

/// All parameters of one coreset construction.
#[derive(Clone, Debug, PartialEq)]
pub struct CoresetParams {
    /// Number of clusters `k`.
    pub k: usize,
    /// Cost exponent `r ≥ 1` (1 = k-median, 2 = k-means).
    pub r: f64,
    /// Cost accuracy `ε ∈ (0, 0.5)`.
    pub eps: f64,
    /// Capacity slack `η ∈ (0, 0.5)`.
    pub eta: f64,
    /// The cube `[Δ]^d`.
    pub grid: GridParams,
    /// Constant regime.
    pub profile: ConstantsProfile,
}

impl CoresetParams {
    /// Starts a fluent builder (practical profile unless overridden);
    /// validation happens at [`CoresetParamsBuilder::build`] instead of
    /// panicking mid-construction.
    pub fn builder(k: usize, grid: GridParams) -> CoresetParamsBuilder {
        CoresetParamsBuilder {
            k,
            r: 2.0,
            eps: 0.2,
            eta: 0.2,
            grid,
            profile: ConstantsProfile::default_practical(),
        }
    }

    fn check(k: usize, r: f64, eps: f64, eta: f64) -> Result<(), ParamsError> {
        if k < 1 {
            return Err(ParamsError::out_of_range("k", k as f64, "≥ 1"));
        }
        if !(r >= 1.0 && r.is_finite()) {
            return Err(ParamsError::out_of_range("r", r, "≥ 1 (constant r)"));
        }
        if !(eps > 0.0 && eps < 0.5) {
            return Err(ParamsError::out_of_range("eps", eps, "∈ (0, 0.5)"));
        }
        if !(eta > 0.0 && eta < 0.5) {
            return Err(ParamsError::out_of_range("eta", eta, "∈ (0, 0.5)"));
        }
        Ok(())
    }

    /// `L = log₂ Δ`.
    pub fn l(&self) -> u32 {
        self.grid.l
    }

    /// `d^{1.5r}` — the dimension-dependent factor in the budgets.
    pub fn d_pow(&self) -> f64 {
        (self.grid.d as f64).powf(1.5 * self.r)
    }

    /// The small-part cutoff γ.
    pub fn gamma(&self) -> f64 {
        let l = self.l().max(1) as f64;
        let k = self.k as f64;
        match self.profile {
            ConstantsProfile::PaperFaithful => {
                let scale = 2f64.powf(-2.0 * (self.r + 10.0));
                scale * (self.eta / (k * l)).min(self.eps / ((k + self.d_pow()) * l))
            }
            ConstantsProfile::Practical { gamma, .. } => gamma,
        }
    }

    /// The region-mass resolution ξ.
    pub fn xi(&self) -> f64 {
        let l = self.l().max(1) as f64;
        let k = self.k as f64;
        match self.profile {
            ConstantsProfile::PaperFaithful => {
                let scale = 2f64.powf(-2.0 * (self.r + 10.0));
                scale * self.eps.min(self.eta) / (k * (k + self.d_pow()) * l * l)
            }
            ConstantsProfile::Practical { .. } => {
                // Same role (mass resolution for transferred assignments),
                // laptop multiplier: min(ε,η)/(8k).
                self.eps.min(self.eta) / (8.0 * k)
            }
        }
    }

    /// Hash-function independence degree λ.
    pub fn lambda(&self) -> usize {
        match self.profile {
            ConstantsProfile::PaperFaithful => {
                let l = self.l().max(1) as f64;
                let k = self.k as f64;
                let d = self.grid.d as f64;
                let log_term = (k * d * l).ln().max(1.0).ceil();
                (1e6 * self.r * k.powi(3) * d * l * log_term).ceil() as usize
            }
            ConstantsProfile::Practical { lambda, .. } => lambda,
        }
    }

    /// Heavy-cell threshold `Tᵢ(o) = 0.01·o/(√d·gᵢ)^r` (Algorithm 1
    /// line 5). Identical in both profiles — it is the partition's shape,
    /// not a proof constant.
    pub fn t_threshold(&self, level: i32, o: f64) -> f64 {
        let g = self.grid.side_len(level);
        let sd = (self.grid.d as f64).sqrt();
        0.01 * o / sbc_geometry::metric::pow_r(sd * g, self.r)
    }

    /// Per-level sampling probability `φᵢ` (Algorithm 2 line 8).
    pub fn phi(&self, level: i32, o: f64) -> f64 {
        let t = self.t_threshold(level, o);
        match self.profile {
            ConstantsProfile::PaperFaithful => {
                let lambda = self.lambda() as f64;
                let xi = self.xi();
                let num = 2f64.powf(2.0 * (self.r + 10.0)) * lambda;
                (num / (xi.powi(3) * self.gamma() * t)).min(1.0)
            }
            ConstantsProfile::Practical {
                samples_per_part,
                gamma,
                ..
            } => {
                // E[samples from a minimum-size part of γTᵢ points] =
                // samples_per_part.
                (samples_per_part / (gamma * t)).min(1.0)
            }
        }
    }

    /// FAIL budget on the total number of heavy cells `Σᵢ sᵢ`
    /// (Algorithm 2 line 5).
    pub fn max_heavy_cells(&self) -> f64 {
        let l = self.l().max(1) as f64;
        let k = self.k as f64;
        match self.profile {
            ConstantsProfile::PaperFaithful => 20000.0 * (k + self.d_pow()) * l,
            ConstantsProfile::Practical {
                max_heavy_factor, ..
            } => max_heavy_factor * (k + self.d_pow().min(64.0)) * l,
        }
    }

    /// FAIL budget on the per-level part mass `τ(⋃ⱼ Q_{i,j})`
    /// (Algorithm 2 line 6).
    pub fn max_level_mass(&self, level: i32, o: f64) -> f64 {
        let l = self.l().max(1) as f64;
        let k = self.k as f64;
        let t = self.t_threshold(level, o);
        match self.profile {
            ConstantsProfile::PaperFaithful => 10000.0 * (k * l + self.d_pow()) * t,
            ConstantsProfile::Practical {
                max_level_mass_factor,
                ..
            } => max_level_mass_factor * (k * l + self.d_pow().min(64.0)) * t,
        }
    }

    /// Per-part sampling probability.
    ///
    /// The paper samples each level at the uniform rate `φᵢ` tied to the
    /// *minimum* retained part size `γTᵢ(o)`. Lemma 3.14 — the
    /// concentration step — is stated for a single part `P` with its own
    /// rate, so sampling bigger parts at the proportionally lower rate
    /// `min(1, S/τ(Q_{i,j}))` (giving every part the same expected sample
    /// count `S`) stays inside the analysis while shrinking the coreset
    /// from `Σ φᵢ·mass` to `≈ S · #parts` — the form that exhibits the
    /// paper's `poly(ε⁻¹η⁻¹kd log Δ)`, n-independent size at laptop
    /// scale. Nested thresholds on one per-level hash keep this
    /// implementable in one streaming pass: the stream stores the
    /// level-rate sample (a superset), assembly sub-thresholds per part.
    ///
    /// `PaperFaithful` ignores `part_mass` and returns `φᵢ` verbatim.
    pub fn part_phi(&self, level: i32, o: f64, part_mass: f64) -> f64 {
        match self.profile {
            ConstantsProfile::PaperFaithful => self.phi(level, o),
            ConstantsProfile::Practical {
                samples_per_part, ..
            } => {
                if part_mass <= 0.0 {
                    return self.phi(level, o);
                }
                (samples_per_part / part_mass)
                    .min(self.phi(level, o))
                    .min(1.0)
            }
        }
    }

    /// The `o`-selection heavy-cell budget (`None` for the paper profile,
    /// whose FAIL constants already encode the selection).
    pub fn selection_heavy_budget(&self) -> Option<f64> {
        match self.profile {
            ConstantsProfile::PaperFaithful => None,
            ConstantsProfile::Practical {
                select_heavy_factor,
                ..
            } => Some(select_heavy_factor * self.k as f64 * self.l().max(1) as f64),
        }
    }

    /// Upper end of the `o` enumeration: `n·(√d·Δ)^r` bounds the optimal
    /// uncapacitated cost of any `n`-point instance.
    pub fn o_upper_bound(&self, n: usize) -> f64 {
        let sd = (self.grid.d as f64).sqrt();
        n as f64 * sbc_geometry::metric::pow_r(sd * self.grid.delta as f64, self.r)
    }
}

/// Fluent, validated construction of [`CoresetParams`].
///
/// ```
/// use sbc_core::CoresetParams;
/// use sbc_geometry::GridParams;
///
/// let params = CoresetParams::builder(3, GridParams::from_log_delta(8, 2))
///     .r(2.0)
///     .eps(0.2)
///     .eta(0.2)
///     .build()
///     .expect("valid parameters");
/// assert_eq!(params.k, 3);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct CoresetParamsBuilder {
    k: usize,
    r: f64,
    eps: f64,
    eta: f64,
    grid: GridParams,
    profile: ConstantsProfile,
}

impl CoresetParamsBuilder {
    /// Sets the cost exponent `r` (1 = k-median, 2 = k-means).
    pub fn r(mut self, r: f64) -> Self {
        self.r = r;
        self
    }

    /// Sets the cost accuracy `ε`.
    pub fn eps(mut self, eps: f64) -> Self {
        self.eps = eps;
        self
    }

    /// Sets the capacity slack `η`.
    pub fn eta(mut self, eta: f64) -> Self {
        self.eta = eta;
        self
    }

    /// Overrides the full constants profile.
    pub fn profile(mut self, profile: ConstantsProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Switches to the paper's printed constants, verbatim.
    pub fn paper_faithful(mut self) -> Self {
        self.profile = ConstantsProfile::PaperFaithful;
        self
    }

    /// Validates all fields and returns the parameters.
    pub fn build(self) -> Result<CoresetParams, ParamsError> {
        CoresetParams::check(self.k, self.r, self.eps, self.eta)?;
        Ok(CoresetParams {
            k: self.k,
            r: self.r,
            eps: self.eps,
            eta: self.eta,
            grid: self.grid,
            profile: self.profile,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gp() -> GridParams {
        GridParams::from_log_delta(8, 3) // Δ = 256, d = 3, L = 8
    }

    #[test]
    fn paper_gamma_formula() {
        // γ = 2^{−2(r+10)}·min(η/(kL), ε/((k+d^{1.5r})L)) at r = 2:
        let p = CoresetParams::builder(4, gp())
            .eta(0.3)
            .paper_faithful()
            .build()
            .unwrap();
        let d_pow = 3f64.powf(3.0); // d^{1.5·2} = d³ = 27
        let expected = 2f64.powf(-24.0) * (0.3f64 / 32.0).min(0.2 / ((4.0 + d_pow) * 8.0));
        assert!((p.gamma() - expected).abs() < 1e-18);
    }

    #[test]
    fn paper_xi_formula() {
        let p = CoresetParams::builder(2, gp())
            .r(1.0)
            .eps(0.1)
            .eta(0.4)
            .paper_faithful()
            .build()
            .unwrap();
        let d_pow = 3f64.powf(1.5);
        let expected = 2f64.powf(-22.0) * 0.1 / (2.0 * (2.0 + d_pow) * 64.0);
        assert!((p.xi() - expected).abs() < 1e-18);
    }

    #[test]
    fn paper_lambda_formula() {
        let p = CoresetParams::builder(2, gp())
            .r(1.0)
            .eps(0.1)
            .eta(0.1)
            .paper_faithful()
            .build()
            .unwrap();
        // λ = 10⁶·r·k³·d·L·⌈ln(kdL)⌉ = 10⁶·1·8·3·8·⌈ln 48⌉ = 10⁶·8·3·8·4
        assert_eq!(p.lambda(), 768_000_000);
    }

    #[test]
    fn t_threshold_matches_definition_and_doubles_per_level() {
        let p = CoresetParams::builder(3, gp()).build().unwrap();
        let o = 1000.0;
        // Tᵢ(o) = 0.01·o/(√d·gᵢ)^r; g halves per level ⇒ T quadruples (r=2).
        let t0 = p.t_threshold(0, o);
        let t1 = p.t_threshold(1, o);
        assert!((t1 / t0 - 4.0).abs() < 1e-9);
        let manual = 0.01 * o / (3f64.sqrt() * 256.0).powi(2);
        assert!((t0 - manual).abs() < 1e-12);
    }

    #[test]
    fn phi_caps_at_one_and_decreases_with_o() {
        let p = CoresetParams::builder(3, gp()).build().unwrap();
        // Tiny o ⇒ tiny Tᵢ ⇒ φ = 1.
        assert_eq!(p.phi(0, 1e-9), 1.0);
        // Large o ⇒ φ < 1 and monotone non-increasing in o.
        let big = p.phi(4, 1e9);
        let bigger = p.phi(4, 1e10);
        assert!(big < 1.0);
        assert!(bigger <= big);
    }

    #[test]
    fn paper_phi_formula_spot_check() {
        let p = CoresetParams::builder(2, gp())
            .eps(0.3)
            .eta(0.3)
            .paper_faithful()
            .build()
            .unwrap();
        let o = 1e30; // force φ < 1 despite the astronomical constants
        let t = p.t_threshold(5, o);
        let expect =
            (2f64.powf(24.0) * p.lambda() as f64 / (p.xi().powi(3) * p.gamma() * t)).min(1.0);
        assert!((p.phi(5, o) - expect).abs() <= 1e-12 * expect.max(1.0));
    }

    #[test]
    fn budgets_positive_and_scale_with_l() {
        let small = CoresetParams::builder(3, GridParams::from_log_delta(4, 2))
            .build()
            .unwrap();
        let large = CoresetParams::builder(3, GridParams::from_log_delta(12, 2))
            .build()
            .unwrap();
        assert!(small.max_heavy_cells() > 0.0);
        assert!(large.max_heavy_cells() > small.max_heavy_cells());
    }

    #[test]
    fn o_upper_bound_dominates_any_cost() {
        let p = CoresetParams::builder(2, gp()).build().unwrap();
        // max per-point cost is (√d·Δ)^r; n points.
        assert_eq!(p.o_upper_bound(10), 10.0 * (3f64.sqrt() * 256.0).powi(2));
    }

    #[test]
    fn rejects_out_of_range_eps() {
        let err = CoresetParams::builder(2, gp())
            .eps(0.7)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("eps"), "{err}");
    }

    #[test]
    fn rejects_r_below_one() {
        let err = CoresetParams::builder(2, gp()).r(0.5).build().unwrap_err();
        assert!(err.to_string().contains('r'), "{err}");
    }
}
