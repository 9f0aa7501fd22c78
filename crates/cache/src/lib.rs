//! Trace-driven cache simulation framework for the prime-mapped vector
//! cache study (Yang & Wu, ISCA 1992).
//!
//! The paper compares a conventional direct-mapped cache against a cache
//! whose line count is a Mersenne prime. This crate provides the machinery
//! both sit on:
//!
//! * [`WordAddr`] / [`LineAddr`] / [`Geometry`] — address and geometry
//!   types (line size is configurable; the paper fixes it at one
//!   double-precision word);
//! * [`IndexMapper`] — the set-index function, with [`Pow2Mapper`]
//!   (bit-field extraction, conventional caches) and [`PrimeMapper`]
//!   (Mersenne-modulo folding, the paper's contribution) implementations;
//! * [`CacheSim`] — a cache organization: direct-mapped, set-associative
//!   (LRU / FIFO / random replacement), or fully associative, over either
//!   mapper;
//! * [`MissKind`] / [`CacheStats`] — per-access miss classification into
//!   compulsory / capacity / conflict (via an in-built fully-associative
//!   shadow cache), with conflict misses further attributed to *self*- or
//!   *cross*-interference using the access-stream tags of the paper's §1.
//!
//! # Example
//!
//! ```
//! use vcache_cache::{CacheSim, StreamId, WordAddr};
//!
//! // An 8-line direct-mapped cache vs a 7-line prime-mapped cache,
//! // both walking a vector of stride 8 (the direct cache's pathology).
//! let mut direct = CacheSim::direct_mapped(8, 1)?;
//! let mut prime = CacheSim::prime_mapped(3, 1)?; // 2^3 - 1 = 7 lines
//! let stream = StreamId::new(0);
//! for _pass in 0..2 {
//!     for i in 0..7u64 {
//!         direct.access(WordAddr::new(i * 8), stream);
//!         prime.access(WordAddr::new(i * 8), stream);
//!     }
//! }
//! // Direct-mapped: all 7 lines collide on set 0 → second pass all misses.
//! assert_eq!(direct.stats().hits, 0);
//! // Prime-mapped: stride 8 ≡ 1 (mod 7) walks all 7 lines → second pass all hits.
//! assert_eq!(prime.stats().hits, 7);
//! # Ok::<(), vcache_cache::CacheConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod addr;
mod classify;
mod mapper;
mod replacement;
mod sim;
mod stats;

pub use addr::{Geometry, LineAddr, WordAddr};
pub use mapper::{IndexMapper, Mapper, Pow2Mapper, PrimeMapper};
pub use replacement::ReplacementPolicy;
pub use sim::{AccessResult, CacheConfigError, CacheSim, StreamId};
pub use stats::{CacheStats, MissKind};
