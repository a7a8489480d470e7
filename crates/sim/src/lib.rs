//! Deterministic simulation kernel for the JIT-GC SSD simulator.
//!
//! This crate provides the foundational building blocks shared by every other
//! crate in the workspace:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-microsecond simulated time, so
//!   every run is exactly reproducible (no floating-point clock drift).
//! * [`ByteSize`] — a byte-count newtype with KiB/MiB/GiB constructors.
//! * [`SimRng`] and [`Zipf`] — seeded randomness and the skewed-access
//!   sampler used by the workload generators.
//! * [`stats`] — histograms, the cumulative data histogram (CDH) used by the
//!   paper's direct-write predictor, EWMA bandwidth estimation, and online
//!   latency statistics.
//! * [`json`] — a dependency-free JSON tree, parser and printer backing the
//!   simulator's machine-readable interfaces.
//! * [`check`] — the seeded property checker every crate's property tests
//!   run on.
//! * [`run_grid`] — the one worker pool over independent scenarios,
//!   results in input order whatever the thread count.
//!
//! # Example
//!
//! ```
//! use jitgc_sim::{SimDuration, SimTime};
//!
//! let tick = SimTime::from_secs(5) + SimDuration::from_millis(500);
//! assert_eq!(tick.as_micros(), 5_500_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bytes;
mod rng;
mod runner;
mod time;

pub mod check;
pub mod json;
pub mod stats;

pub use bytes::ByteSize;
pub use json::{JsonError, JsonValue, ObjectBuilder};
pub use rng::{SimRng, Zipf};
pub use runner::{default_threads, run_grid};
pub use time::{SimDuration, SimTime};
