//! # sbc-hash
//!
//! λ-wise independent hashing for the *Streaming Balanced Clustering*
//! reproduction.
//!
//! The paper's algorithms sample points and cells with **λ-wise
//! independent** hash functions rather than full independence so that the
//! randomness itself fits in `poly(ε⁻¹η⁻¹kd log Δ)` space (Algorithm 2
//! line 10, Algorithm 3, Algorithm 4 step 2; the concentration bound used
//! is the limited-independence tail of Bellare–Rompel, Lemma 3.13).
//!
//! This crate implements the textbook construction: a hash function drawn
//! from a λ-wise independent family is a uniformly random polynomial of
//! degree `λ − 1` over a prime field, here `𝔽_p` with the Mersenne prime
//! `p = 2^61 − 1` (fast reduction, 61 output bits — plenty for sampling
//! probabilities down to `2⁻⁶¹`).
//!
//! * [`field`] — arithmetic in `𝔽_p`;
//! * [`kwise`] — [`KWiseHash`] (uniform output in `[0, p)`) and
//!   [`KWiseBernoulli`] (λ-wise independent indicator with
//!   `Pr[h(x) = 1] = φ` exactly, as `⌊φ·p⌋/p`), and [`HashBank`]
//!   (many hashes of one degree evaluated together per key — one power
//!   table, one dot product per hash);
//! * [`fingerprint`] — low-collision fingerprints used as checksums by the
//!   sparse-recovery sketches in `sbc-streaming`;
//! * [`arena`] — flat open-addressing tables keyed by packed `u64` or
//!   `u128` cell ids, the backing store of the streaming `Storing`
//!   structures (DESIGN.md §9).

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod arena;
pub mod field;
pub mod fingerprint;
pub mod kwise;

pub use arena::{slots_for, OpenTable, TableKey};
pub use fingerprint::Fingerprinter;
pub use kwise::{HashBank, KWiseBernoulli, KWiseHash};
