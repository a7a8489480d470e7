//! Linux-style write-back page cache model.
//!
//! The paper's buffered-write predictor works *because* the OS page cache
//! is predictable: dirty data written by applications sits in memory until
//! the flusher thread writes it back, and the flusher's rules are known.
//! This crate models exactly the behaviour the predictor exploits
//! (Sec. 3.2.1):
//!
//! * A dirty page becomes flushable once it is **older than `τ_expire`**
//!   (default 30 s); updating a page resets its age (the paper's `B → B′`
//!   example).
//! * The flusher writes expired pages back only while total dirty data
//!   exceeds the **`τ_flush` threshold** (default 10 % of cache capacity) —
//!   the paper's two flush conditions are ANDed, which is exactly why the
//!   predictor's relaxation of condition 2 over-estimates by at most
//!   `τ_flush`.
//! * The flusher runs every `p` seconds (default 5 s) — driven by the
//!   caller via [`PageCache::flusher_tick`]. The cache keeps no time of
//!   its own, but it owns the wake-up grid — period
//!   ([`PageCacheConfig::flusher_period`]) and phase
//!   ([`PageCache::flusher_phase`]) — that its dirty-age counters are
//!   bucketed on and the predictor polls on.
//!
//! The cache also exposes [`PageCache::dirty_pages`], the dirty-age scan
//! the predictor performs, in deterministic oldest-first order.
//!
//! # Example
//!
//! ```
//! use jitgc_pagecache::{PageCache, PageCacheConfig};
//! use jitgc_nand::Lpn;
//! use jitgc_sim::{SimDuration, SimTime};
//!
//! let config = PageCacheConfig::builder()
//!     .capacity_pages(1024)
//!     .tau_expire(SimDuration::from_secs(30))
//!     .tau_flush_permille(0) // flush on expiry alone
//!     .build();
//! let mut cache = PageCache::new(config);
//!
//! cache.write(Lpn(7), SimTime::ZERO);
//! // Before expiry nothing is flushed...
//! assert!(cache.flusher_tick(SimTime::from_secs(5)).lpns.is_empty());
//! // ...after expiry the page is written back.
//! let batch = cache.flusher_tick(SimTime::from_secs(35));
//! assert_eq!(batch.lpns, vec![Lpn(7)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
mod stats;

pub use cache::{FlushBatch, PageCache, WriteEffect};
pub use config::{PageCacheConfig, PageCacheConfigBuilder};
pub use stats::PageCacheStats;
