//! λ-wise independent hash functions and Bernoulli samplers.
//!
//! A uniformly random polynomial of degree `λ − 1` over `𝔽_p`, evaluated
//! at the (reduced) key, is a λ-wise independent family `𝔽_p → 𝔽_p`.
//! Thresholding the output yields a λ-wise independent Bernoulli
//! indicator `h : keys → {0, 1}` with `Pr[h(x) = 1] = ⌊φ·p⌋/p` — the
//! construction behind Algorithm 2 line 10 ("let ĥᵢ be a λ-wise
//! independent hash function s.t. Pr[ĥᵢ(p) = 1] = φᵢ") and the samplers
//! of Algorithms 3 and 4.
//!
//! Keys are `u128` (packed points or cells; see `sbc-geometry`). The
//! 128→61-bit reduction loses injectivity in principle; for the cube
//! sizes exercised here packed keys are < 2^61 and the map is injective.
//! For larger keys the loss is absorbed into the hash family (the
//! composition of a fixed reduction with a λ-wise independent family is
//! still λ-wise independent over the reduced keys).

use crate::field;
use rand::Rng;

/// A hash function drawn from a λ-wise independent family
/// `𝔽_p → [0, p)`: a random polynomial of degree `λ − 1` evaluated by
/// Horner's rule.
#[derive(Clone, Debug)]
pub struct KWiseHash {
    /// Polynomial coefficients, constant term last (Horner order:
    /// `coeffs[0]` is the leading coefficient).
    coeffs: Vec<u64>,
}

impl KWiseHash {
    /// Draws a fresh function with independence degree `lambda ≥ 1` (the
    /// polynomial degree is `lambda − 1`).
    pub fn new<R: Rng + ?Sized>(lambda: usize, rng: &mut R) -> Self {
        assert!(lambda >= 1, "independence degree must be ≥ 1");
        let coeffs = (0..lambda).map(|_| rng.gen_range(0..field::P)).collect();
        Self { coeffs }
    }

    /// The independence degree λ.
    pub fn lambda(&self) -> usize {
        self.coeffs.len()
    }

    /// The polynomial coefficients (leading coefficient first) — the
    /// function's entire state, exposed for checkpoint serialization.
    pub fn coeffs(&self) -> &[u64] {
        &self.coeffs
    }

    /// Rebuilds a function from coefficients captured by
    /// [`Self::coeffs`]. Coefficients are reduced into the field, so a
    /// round trip through an untrusted checkpoint cannot produce a
    /// function outside the family.
    pub fn from_coeffs(coeffs: Vec<u64>) -> Self {
        assert!(!coeffs.is_empty(), "independence degree must be ≥ 1");
        let coeffs = coeffs.into_iter().map(|c| c % field::P).collect();
        Self { coeffs }
    }

    /// Number of bytes needed to store this function — `λ` field elements
    /// of 8 bytes. This is the "small randomness" the paper's space
    /// accounting charges for.
    pub fn stored_bytes(&self) -> usize {
        self.coeffs.len() * 8
    }

    /// Evaluates the polynomial at (the reduction of) `key`.
    #[inline]
    pub fn eval(&self, key: u128) -> u64 {
        let x = field::elem_from_u128(key);
        let mut acc = 0u64;
        for &c in &self.coeffs {
            acc = field::add(field::mul(acc, x), c);
        }
        acc
    }

    /// Evaluates and maps to `[0, 1)` (for uses that want a uniform
    /// real-valued hash).
    #[inline]
    pub fn eval_unit(&self, key: u128) -> f64 {
        self.eval(key) as f64 / field::P as f64
    }
}

/// Products of two field elements summed in a `u128` before one
/// reduction: each is below `(p − 1)² < 2^122`, so 64 of them plus a
/// carried residue below `p` stay below `2^128`.
const FOLD: usize = 64;

/// A bank of λ-wise hashes of one independence degree, evaluated
/// together at each key — the batch kernel of streaming ingest, which
/// hashes every update with one polynomial per (role, level).
///
/// All polynomials of the bank share the key, so one power table
/// `x⁰ … x^(λ−1)` serves them all. Each value is then a dot product of
/// the table with the polynomial's coefficients, summed exactly in a
/// `u128` and reduced once per [`FOLD`] terms. The table takes λ − 1
/// multiplications with a dependency depth of ⌈log₂ λ⌉ (`x^i` is
/// `x^⌊i/2⌋ · x^⌈i/2⌉`); the dot products are independent of each other
/// and of their own terms, where a Horner chain waits on every step.
/// Values are bit-identical to [`KWiseHash::eval`] per (hash, key).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HashBank {
    lambda: usize,
    /// Coefficients hash after hash, each constant term first (the
    /// reverse of [`KWiseHash::coeffs`]).
    coeffs: Vec<u64>,
}

impl HashBank {
    /// A bank of `hashes`, in order. Every hash must have the same
    /// independence degree.
    pub fn new<'a>(hashes: impl IntoIterator<Item = &'a KWiseHash>) -> Self {
        Self::from_coeffs(hashes.into_iter().map(KWiseHash::coeffs))
    }

    /// A bank of hashes given by their coefficients in
    /// [`KWiseHash::coeffs`] order (leading coefficient first), in order.
    /// Coefficients are reduced into the field, as
    /// [`KWiseHash::from_coeffs`] reduces them. Every hash must have the
    /// same independence degree.
    pub fn from_coeffs<'a>(hashes: impl IntoIterator<Item = &'a [u64]>) -> Self {
        let mut lambda = 0;
        let mut coeffs = Vec::new();
        for h in hashes {
            assert!(
                lambda == 0 || h.len() == lambda,
                "a bank's hashes share one independence degree"
            );
            lambda = h.len();
            coeffs.extend(h.iter().rev().map(|c| c % field::P));
        }
        Self { lambda, coeffs }
    }

    /// Hash `b`'s coefficients, constant term first (the reverse of
    /// [`KWiseHash::coeffs`]).
    pub fn coeffs(&self, b: usize) -> &[u64] {
        &self.coeffs[b * self.lambda..(b + 1) * self.lambda]
    }

    /// Bytes of the coefficients: the sum of the hashes'
    /// [`KWiseHash::stored_bytes`].
    pub fn stored_bytes(&self) -> usize {
        self.coeffs.len() * 8
    }

    /// Number of hashes in the bank.
    pub fn len(&self) -> usize {
        self.coeffs.len().checked_div(self.lambda).unwrap_or(0)
    }

    /// Whether the bank holds no hash.
    pub fn is_empty(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Evaluates every hash at every key, appending key after key: hash
    /// `b` at `keys[i]` lands at `out[start + i · len() + b]`.
    pub fn eval_many(&self, keys: &[u128], out: &mut Vec<u64>) {
        if self.is_empty() {
            return;
        }
        out.reserve(keys.len() * self.len());
        let mut powers = vec![1u64; self.lambda];
        for &key in keys {
            fill_powers(key, &mut powers);
            out.extend(
                self.coeffs
                    .chunks_exact(self.lambda)
                    .map(|c| dot(c, &powers)),
            );
        }
    }

    /// Appends the power table `x⁰ … x^(λ−1)` of each key, key after key:
    /// the shared half of an evaluation, for callers that need only some
    /// of the bank's hashes at each key (see [`Self::eval_at`]).
    pub fn power_tables(&self, keys: &[u128], out: &mut Vec<u64>) {
        let start = out.len();
        out.resize(start + keys.len() * self.lambda, 1);
        if self.lambda > 0 {
            for (&key, powers) in keys.iter().zip(out[start..].chunks_exact_mut(self.lambda)) {
                fill_powers(key, powers);
            }
        }
    }

    /// Hash `b` at the key whose power table (from
    /// [`Self::power_tables`]) is `powers`.
    pub fn eval_at(&self, b: usize, powers: &[u64]) -> u64 {
        dot(self.coeffs(b), powers)
    }

    /// Hash `b` at one key by Horner's rule, for a caller that needs a
    /// single value and no power table: the steps of
    /// [`KWiseHash::eval`], so the value is the same.
    pub fn eval(&self, b: usize, key: u128) -> u64 {
        let x = field::elem_from_u128(key);
        let mut acc = 0u64;
        for &c in self.coeffs(b).iter().rev() {
            acc = field::add(field::mul(acc, x), c);
        }
        acc
    }
}

/// Fills `powers` (all ones on entry, or a previous table) with
/// `x⁰ … x^(len−1)` of the key's field element `x`.
#[inline]
fn fill_powers(key: u128, powers: &mut [u64]) {
    if let Some(p) = powers.get_mut(1) {
        *p = field::elem_from_u128(key);
    }
    for i in 2..powers.len() {
        powers[i] = field::mul(powers[i / 2], powers[i - i / 2]);
    }
}

/// `Σ coeffs[i] · powers[i]` in the field. Four partial sums split the
/// `u128` carry chain; together they never exceed one [`FOLD`]'s bound.
#[inline]
fn dot(coeffs: &[u64], powers: &[u64]) -> u64 {
    let mul = |c: u64, x: u64| c as u128 * x as u128;
    let mut acc = 0u64;
    for (cs, ps) in coeffs.chunks(FOLD).zip(powers.chunks(FOLD)) {
        let mut sums = [acc as u128, 0, 0, 0];
        let (c4, p4) = (cs.chunks_exact(4), ps.chunks_exact(4));
        for (&c, &x) in c4.remainder().iter().zip(p4.remainder()) {
            sums[0] += mul(c, x);
        }
        for (c, x) in c4.zip(p4) {
            for k in 0..4 {
                sums[k] += mul(c[k], x[k]);
            }
        }
        acc = field::reduce128(sums.iter().sum());
    }
    acc
}

/// A λ-wise independent Bernoulli sampler: `h(x) = 1` iff the underlying
/// λ-wise hash value falls below `⌊φ·p⌋`.
#[derive(Clone, Debug)]
pub struct KWiseBernoulli {
    hash: KWiseHash,
    threshold: u64,
}

impl KWiseBernoulli {
    /// Draws a sampler with `Pr[h(x) = 1] = ⌊φ·p⌋/p` (exactly; use
    /// [`Self::prob`] for the realized probability when computing
    /// inverse-probability weights).
    ///
    /// `phi` must lie in `[0, 1]`. `phi = 1` yields the constant-1
    /// indicator, `phi = 0` the constant-0 indicator.
    pub fn new<R: Rng + ?Sized>(phi: f64, lambda: usize, rng: &mut R) -> Self {
        assert!(
            (0.0..=1.0).contains(&phi),
            "φ must be a probability, got {phi}"
        );
        let threshold = if phi >= 1.0 {
            field::P // every value < P qualifies
        } else {
            (phi * field::P as f64).floor() as u64
        };
        Self {
            hash: KWiseHash::new(lambda, rng),
            threshold,
        }
    }

    /// The exact realized sampling probability `⌊φ·p⌋/p`.
    pub fn prob(&self) -> f64 {
        self.threshold as f64 / field::P as f64
    }

    /// Whether this sampler keeps everything (`φ = 1`).
    pub fn is_always(&self) -> bool {
        self.threshold >= field::P
    }

    /// The λ-wise independent indicator.
    #[inline]
    pub fn keep(&self, key: u128) -> bool {
        self.hash.eval(key) < self.threshold
    }

    /// Independence degree λ.
    pub fn lambda(&self) -> usize {
        self.hash.lambda()
    }

    /// Stored size in bytes (coefficients + threshold).
    pub fn stored_bytes(&self) -> usize {
        self.hash.stored_bytes() + 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn eval_is_deterministic_and_seed_sensitive() {
        let mut rng1 = StdRng::seed_from_u64(1);
        let mut rng2 = StdRng::seed_from_u64(1);
        let mut rng3 = StdRng::seed_from_u64(2);
        let h1 = KWiseHash::new(8, &mut rng1);
        let h2 = KWiseHash::new(8, &mut rng2);
        let h3 = KWiseHash::new(8, &mut rng3);
        for key in [0u128, 1, 42, u128::MAX] {
            assert_eq!(h1.eval(key), h2.eval(key));
        }
        assert!((0..100u128).any(|k| h1.eval(k) != h3.eval(k)));
    }

    #[test]
    fn pairwise_family_is_uniform_empirically() {
        // Over many draws of the function, a fixed key's hash should be
        // ~uniform: check mean of eval_unit ≈ 1/2.
        let mut rng = StdRng::seed_from_u64(7);
        let trials = 4000;
        let mut acc = 0.0;
        for _ in 0..trials {
            let h = KWiseHash::new(2, &mut rng);
            acc += h.eval_unit(123456789);
        }
        let mean = acc / trials as f64;
        assert!((mean - 0.5).abs() < 0.03, "mean {mean} far from 1/2");
    }

    #[test]
    fn bernoulli_rate_matches_phi() {
        let mut rng = StdRng::seed_from_u64(3);
        let phi = 0.2;
        let b = KWiseBernoulli::new(phi, 16, &mut rng);
        assert!((b.prob() - phi).abs() < 1e-12);
        let n = 200_000u128;
        let kept = (0..n).filter(|&k| b.keep(k)).count();
        let rate = kept as f64 / n as f64;
        // One fixed function over many keys: polynomial hash equidistributes.
        assert!((rate - phi).abs() < 0.01, "empirical rate {rate}");
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = StdRng::seed_from_u64(4);
        let always = KWiseBernoulli::new(1.0, 4, &mut rng);
        let never = KWiseBernoulli::new(0.0, 4, &mut rng);
        assert!(always.is_always());
        for key in 0..1000u128 {
            assert!(always.keep(key));
            assert!(!never.keep(key));
        }
    }

    #[test]
    fn pairwise_independence_empirical() {
        // For λ = 2, indicator pairs on two fixed keys should be nearly
        // uncorrelated across function draws.
        let mut rng = StdRng::seed_from_u64(9);
        let phi = 0.3;
        let trials = 6000;
        let (mut c1, mut c2, mut c12) = (0usize, 0usize, 0usize);
        for _ in 0..trials {
            let b = KWiseBernoulli::new(phi, 2, &mut rng);
            let k1 = b.keep(111);
            let k2 = b.keep(99999);
            c1 += k1 as usize;
            c2 += k2 as usize;
            c12 += (k1 && k2) as usize;
        }
        let p1 = c1 as f64 / trials as f64;
        let p2 = c2 as f64 / trials as f64;
        let p12 = c12 as f64 / trials as f64;
        assert!(
            (p12 - p1 * p2).abs() < 0.02,
            "joint {p12} vs product {}",
            p1 * p2
        );
    }

    /// Edge keys of the 128 → 61-bit reduction, then random ones.
    fn bank_keys(rng: &mut StdRng) -> Vec<u128> {
        let p = field::P as u128;
        let mut keys = vec![0, 1, p - 1, p, p + 1, 1 << 61, 1 << 64, u128::MAX];
        keys.extend((0..24).map(|_| rng.gen::<u128>()));
        keys
    }

    /// Every bank value (batch, power table and scalar) equals the
    /// hash's Horner evaluation, across
    /// fold boundaries of the `u128` accumulator (λ = 64, 65, 200) and
    /// with all-(p − 1) coefficients, the accumulator's worst case.
    #[test]
    fn bank_matches_eval() {
        let mut rng = StdRng::seed_from_u64(12);
        for lambda in [1usize, 2, 31, 32, 33, 64, 65, 200] {
            let mut hashes: Vec<KWiseHash> =
                (0..3).map(|_| KWiseHash::new(lambda, &mut rng)).collect();
            hashes.push(KWiseHash::from_coeffs(vec![field::P - 1; lambda]));
            let bank = HashBank::new(&hashes);
            assert_eq!((bank.len(), bank.is_empty()), (hashes.len(), false));
            let stored: usize = hashes.iter().map(KWiseHash::stored_bytes).sum();
            assert_eq!(bank.stored_bytes(), stored);
            for (b, h) in hashes.iter().enumerate() {
                assert!(bank.coeffs(b).iter().rev().eq(h.coeffs()));
            }
            assert_eq!(
                HashBank::from_coeffs(hashes.iter().map(KWiseHash::coeffs)),
                bank
            );
            let keys = bank_keys(&mut rng);
            let mut got = vec![999]; // eval_many appends after existing content
            bank.eval_many(&keys, &mut got);
            let want: Vec<u64> = std::iter::once(999)
                .chain(
                    keys.iter()
                        .flat_map(|&k| hashes.iter().map(move |h| h.eval(k))),
                )
                .collect();
            assert_eq!(got, want, "λ = {lambda}");
            let mut powers = Vec::new();
            bank.power_tables(&keys, &mut powers);
            for (table, &k) in powers.chunks_exact(lambda).zip(&keys) {
                for (b, h) in hashes.iter().enumerate() {
                    assert_eq!(bank.eval_at(b, table), h.eval(k), "λ = {lambda}, key {k}");
                    assert_eq!(bank.eval(b, k), h.eval(k), "λ = {lambda}, key {k}");
                }
            }
        }
    }

    /// The bank's batch layout: key after key, every hash per key, for
    /// batch sizes around the serving batch of 16.
    #[test]
    fn eval_many_matches_eval() {
        let mut rng = StdRng::seed_from_u64(11);
        let hashes: Vec<KWiseHash> = (0..21).map(|_| KWiseHash::new(32, &mut rng)).collect();
        let bank = HashBank::new(&hashes);
        for n in [0usize, 1, 2, 7, 16, 64] {
            let keys: Vec<u128> = (0..n as u128).map(|k| k * k + 3).collect();
            let mut got = Vec::new();
            bank.eval_many(&keys, &mut got);
            assert_eq!(got.len(), n * hashes.len(), "n = {n}");
            for (row, &k) in got.chunks_exact(hashes.len()).zip(&keys) {
                let want: Vec<u64> = hashes.iter().map(|h| h.eval(k)).collect();
                assert_eq!(row, want, "n = {n}, key {k}");
            }
        }
        let empty = HashBank::new(&[]);
        let mut out = Vec::new();
        empty.eval_many(&[1, 2], &mut out);
        assert!(empty.is_empty() && out.is_empty());
    }

    #[test]
    fn stored_bytes_scale_with_lambda() {
        let mut rng = StdRng::seed_from_u64(5);
        let h = KWiseHash::new(10, &mut rng);
        assert_eq!(h.stored_bytes(), 80);
        let b = KWiseBernoulli::new(0.5, 10, &mut rng);
        assert_eq!(b.stored_bytes(), 88);
    }
}
