//! # sbc-distributed
//!
//! The **coordinator-model distributed coreset protocol** (paper §4.3,
//! Lemma 4.6 and Theorem 4.7).
//!
//! `s` machines each hold a shard of the point set; they may talk only to
//! a coordinator, and the figure of merit is total communication. The
//! protocol:
//!
//! 1. the coordinator broadcasts the random grid shift and the λ-wise
//!    hash seed (so every machine samples identically);
//! 2. each machine ingests its shard into `sbc-streaming`'s builder (a
//!    shard is just an insertion-only stream) and uploads the builder's
//!    checkpoint image — one arena per (role, level), every `o`
//!    instance's `(C⁽ʲ⁾, f⁽ʲ⁾, S⁽ʲ⁾)` triple of Lemma 4.6 a view of it;
//! 3. the coordinator restores the images and folds them with the
//!    builder's own lossless merge (`f(C) = Σⱼ f⁽ʲ⁾(C)`, `S = ∪ⱼ S⁽ʲ⁾`,
//!    every view's α and β rules re-applied to the merged occupancy),
//!    then `finish`es the merged builder like a monolithic one.
//!
//! Every machine→coordinator message is actually encoded to bytes (the
//! checkpoint format, inside a [`wire`] envelope) and decoded on the
//! other side — the byte counts in [`CommStats`] are exact, which is what
//! experiment E6 (communication ∝ `s·poly(ε⁻¹η⁻¹kd log Δ)`) measures.
//! A crossbeam-threaded executor runs machines genuinely in parallel.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod protocol;
pub mod wire;

pub use protocol::{CommStats, DistributedCoreset};
