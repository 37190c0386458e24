//! Points of the discrete cube `[Δ]^d` and their orderings.
//!
//! The paper assumes all input and output points live in
//! `[Δ]^d = {1, …, Δ}^d` (§1.1, "this assumption is without loss of
//! generality"). Coordinates are therefore stored as `u32` (so `Δ ≤ 2^32`,
//! far beyond anything exercised here; the streaming machinery further
//! requires `Δ = 2^L` which is enforced by [`crate::GridHierarchy`]).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A point of `[Δ]^d` with `1`-based integer coordinates.
///
/// Equality, hashing and the [`Ord`] implementation all operate on the raw
/// coordinate vector; `Ord` is exactly the paper's *alphabetical order*
/// (§2): `x < y` iff at the first differing coordinate `i`, `x_i < y_i`.
///
/// A point of dimension `d ≤ 3` keeps its coordinates inline: it is 16
/// bytes with no heap allocation of its own, which halves the footprint of
/// every point list a coreset or a solve holds.
#[derive(Clone)]
pub struct Point {
    coords: Coords,
}

/// Coordinate storage of a [`Point`].
#[derive(Clone)]
// A thin pointer keeps `Point` at 16 bytes; `Box<[u32]>` would make it 24.
#[allow(clippy::box_collection)]
enum Coords {
    D1([u32; 1]),
    D2([u32; 2]),
    D3([u32; 3]),
    Wide(Box<Vec<u32>>),
}

impl Coords {
    fn from_vec(coords: Vec<u32>) -> Self {
        match *coords.as_slice() {
            [a] => Coords::D1([a]),
            [a, b] => Coords::D2([a, b]),
            [a, b, c] => Coords::D3([a, b, c]),
            _ => Coords::Wide(Box::new(coords)),
        }
    }

    #[inline]
    fn as_slice(&self) -> &[u32] {
        match self {
            Coords::D1(c) => c,
            Coords::D2(c) => c,
            Coords::D3(c) => c,
            Coords::Wide(c) => c,
        }
    }
}

impl PartialEq for Point {
    fn eq(&self, other: &Self) -> bool {
        self.coords() == other.coords()
    }
}

impl Eq for Point {}

impl Hash for Point {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.coords().hash(state);
    }
}

impl PartialOrd for Point {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Point {
    fn cmp(&self, other: &Self) -> Ordering {
        self.coords().cmp(other.coords())
    }
}

impl Point {
    /// Creates a point from its coordinates.
    ///
    /// # Panics
    /// Panics if `coords` is empty or any coordinate is zero (coordinates
    /// are `1`-based as in the paper).
    pub fn new(coords: Vec<u32>) -> Self {
        assert!(!coords.is_empty(), "a point needs at least one dimension");
        assert!(
            coords.iter().all(|&c| c >= 1),
            "coordinates are 1-based: got a zero coordinate"
        );
        Self {
            coords: Coords::from_vec(coords),
        }
    }

    /// Creates a point without validating coordinates. Used by hot paths
    /// that have already validated their input (e.g. dataset generators).
    pub fn from_raw(coords: Vec<u32>) -> Self {
        debug_assert!(!coords.is_empty() && coords.iter().all(|&c| c >= 1));
        Self {
            coords: Coords::from_vec(coords),
        }
    }

    /// The dimension `d` of the point.
    #[inline]
    pub fn dim(&self) -> usize {
        self.coords().len()
    }

    /// Immutable view of the coordinates.
    #[inline]
    pub fn coords(&self) -> &[u32] {
        self.coords.as_slice()
    }

    /// The `i`-th coordinate (0-based index, 1-based value).
    #[inline]
    pub fn coord(&self, i: usize) -> u32 {
        self.coords()[i]
    }

    /// Checks that every coordinate lies in `[1, Δ]`.
    pub fn in_cube(&self, delta: u64) -> bool {
        self.coords()
            .iter()
            .all(|&c| (c as u64) >= 1 && (c as u64) <= delta)
    }

    /// Packs the point into a single `u128` key when the coordinates fit,
    /// i.e. when `d · bits ≤ 128` with `bits = ⌈log2 Δ⌉`.
    ///
    /// The packing is injective on `[Δ]^d`, so the key can serve as the
    /// domain element of the λ-wise independent hash functions of
    /// Algorithms 2–4 (which are functions `[Δ]^d → {0,1}`).
    ///
    /// Returns `None` when the point does not fit, in which case callers
    /// fall back to a mixing hash (documented in DESIGN.md §2.8).
    pub fn pack(&self, delta: u64) -> Option<u128> {
        let bits = bits_for(delta);
        let d = self.dim();
        if (bits as usize) * d > 128 {
            return None;
        }
        let mut key: u128 = 0;
        for &c in self.coords() {
            debug_assert!((c as u64) <= delta);
            key = (key << bits) | ((c - 1) as u128);
        }
        Some(key)
    }

    /// Inverts [`Self::pack`]: reconstructs the point from its packed key.
    ///
    /// Returns `None` when `d · bits > 128` (the regime where packing is
    /// unavailable and keys are mixing hashes). The sparse-recovery
    /// sketches use this to turn recovered keys back into points.
    pub fn unpack(mut key: u128, delta: u64, d: usize) -> Option<Point> {
        let bits = bits_for(delta);
        if (bits as usize) * d > 128 {
            return None;
        }
        let mask = if bits == 128 {
            u128::MAX
        } else {
            (1u128 << bits) - 1
        };
        let mut coords = vec![0u32; d];
        for slot in coords.iter_mut().rev() {
            *slot = (key & mask) as u32 + 1;
            key >>= bits;
        }
        if key != 0 {
            return None; // stray high bits: not a valid packed point
        }
        Some(Point::from_raw(coords))
    }

    /// A 128-bit key for hashing: the injective packing when it fits,
    /// otherwise a strong 128-bit mixing hash of the coordinates.
    ///
    /// With the mixing fallback two distinct points collide with
    /// probability ≈ 2⁻¹²⁸ per pair, which is negligible for every
    /// workload in this repository; the distinction is surfaced so that
    /// space accounting can note it.
    pub fn key128(&self, delta: u64) -> u128 {
        self.pack(delta)
            .unwrap_or_else(|| mix_coords(self.coords()))
    }

    /// Squared Euclidean distance to another point.
    #[inline]
    pub fn dist_sq(&self, other: &Point) -> f64 {
        crate::metric::dist_sq(self, other)
    }

    /// Euclidean distance to another point.
    #[inline]
    pub fn dist(&self, other: &Point) -> f64 {
        crate::metric::dist(self, other)
    }

    /// Compares two points in the paper's alphabetical order.
    #[inline]
    pub fn alphabetical_cmp(&self, other: &Point) -> Ordering {
        self.cmp(other)
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Point{:?}", self.coords())
    }
}

/// Number of bits needed to represent `delta` distinct values `1..=Δ`
/// (i.e. `⌈log2 Δ⌉`, with a minimum of 1).
pub fn bits_for(delta: u64) -> u32 {
    debug_assert!(delta >= 1);
    let b = 64 - (delta - 1).leading_zeros();
    b.max(1)
}

/// SplitMix64-style 128-bit mixing hash over a coordinate slice.
///
/// Deterministic (no per-process randomness) so that identical points map
/// to identical keys across streaming substreams and distributed machines.
fn mix_coords(coords: &[u32]) -> u128 {
    #[inline]
    fn splitmix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let mut h1: u64 = 0x243F_6A88_85A3_08D3;
    let mut h2: u64 = 0x1319_8A2E_0370_7344;
    for (i, &c) in coords.iter().enumerate() {
        let v = (c as u64) ^ ((i as u64) << 33);
        h1 = splitmix(h1 ^ v);
        h2 = splitmix(h2.rotate_left(17) ^ v.wrapping_mul(0xA54F_F53A_5F1D_36F1));
    }
    ((h1 as u128) << 64) | (h2 as u128)
}

/// A dense identifier of a point inside a concrete dataset (index into the
/// dataset's point vector). Streams and coresets refer to points by value,
/// but solvers index datasets densely for cache-friendly access.
pub type PointId = usize;

/// A point together with a positive weight, as produced by the coreset
/// construction (`w′ : Q′ → ℝ_{>0}`, §1.1).
#[derive(Clone, Debug, PartialEq)]
pub struct WeightedPoint {
    /// The underlying point (an element of the original point set `Q`).
    pub point: Point,
    /// Its coreset weight `w′(p) > 0`.
    pub weight: f64,
}

impl WeightedPoint {
    /// Creates a weighted point; the weight must be strictly positive.
    pub fn new(point: Point, weight: f64) -> Self {
        assert!(weight > 0.0, "coreset weights must be positive");
        Self { point, weight }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(cs: &[u32]) -> Point {
        Point::new(cs.to_vec())
    }

    #[test]
    fn alphabetical_order_matches_paper_definition() {
        // x smaller than y iff first differing coordinate is smaller (§2).
        assert!(p(&[1, 5]) < p(&[2, 1]));
        assert!(p(&[3, 1, 9]) < p(&[3, 2, 1]));
        assert_eq!(p(&[4, 4]).alphabetical_cmp(&p(&[4, 4])), Ordering::Equal);
        assert!(p(&[2, 2]) > p(&[2, 1]));
    }

    #[test]
    fn inline_and_wide_points_behave_like_their_coordinate_vectors() {
        assert_eq!(std::mem::size_of::<Point>(), 16);
        let coords: Vec<Vec<u32>> = vec![
            vec![5],
            vec![1, 2],
            vec![1, 2, 1],
            vec![1, 2, 1, 1],
            vec![1, 2, 1, 1, 9],
            vec![5, 1],
            vec![2, 9, 9, 9],
        ];
        fn hash_of(x: &impl Hash) -> u64 {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            x.hash(&mut h);
            h.finish()
        }
        for a in &coords {
            let pa = p(a);
            assert_eq!(pa.coords(), a.as_slice());
            assert_eq!(pa.dim(), a.len());
            assert_eq!(hash_of(&pa), hash_of(a));
            for b in &coords {
                let pb = p(b);
                assert_eq!(pa.cmp(&pb), a.cmp(b), "{a:?} vs {b:?}");
                assert_eq!(pa == pb, a == b);
            }
        }
    }

    #[test]
    fn bits_for_powers_of_two() {
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 2);
        assert_eq!(bits_for(256), 8);
        assert_eq!(bits_for(257), 9);
    }

    #[test]
    fn pack_is_injective_on_small_cube() {
        let delta = 8u64;
        let mut seen = std::collections::HashSet::new();
        for a in 1..=8u32 {
            for b in 1..=8u32 {
                for c in 1..=8u32 {
                    let key = p(&[a, b, c]).pack(delta).unwrap();
                    assert!(seen.insert(key), "collision at ({a},{b},{c})");
                }
            }
        }
        assert_eq!(seen.len(), 512);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let delta = 256u64;
        for seed in [1u32, 77, 255] {
            let pt = p(&[seed, 256 - seed + 1, (seed % 13) + 1]);
            let key = pt.pack(delta).unwrap();
            assert_eq!(Point::unpack(key, delta, 3).unwrap(), pt);
        }
        // Stray high bits are rejected.
        let key = p(&[1, 1, 1]).pack(delta).unwrap() | (1u128 << 120);
        assert!(Point::unpack(key, delta, 3).is_none());
    }

    #[test]
    fn pack_fails_when_too_wide() {
        // d=5 at Δ=2^32-ish needs 160 bits.
        let delta = u32::MAX as u64;
        let pt = p(&[1, 2, 3, 4, 5]);
        assert!(pt.pack(delta).is_none());
        // key128 still works via the mixing fallback and is deterministic.
        assert_eq!(pt.key128(delta), pt.key128(delta));
    }

    #[test]
    fn key128_distinguishes_permutations() {
        let delta = u32::MAX as u64;
        let a = p(&[1, 2, 3, 4, 5]);
        let b = p(&[2, 1, 3, 4, 5]);
        assert_ne!(a.key128(delta), b.key128(delta));
    }

    #[test]
    fn in_cube_checks_bounds() {
        assert!(p(&[1, 16]).in_cube(16));
        assert!(!p(&[1, 17]).in_cube(16));
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zero_coordinate_rejected() {
        let _ = Point::new(vec![0, 3]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn nonpositive_weight_rejected() {
        let _ = WeightedPoint::new(p(&[1]), 0.0);
    }
}
