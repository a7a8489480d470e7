//! Facade crate re-exporting the whole JIT-GC reproduction workspace.
//!
//! This crate exists so that the repository-level `examples/` and `tests/`
//! can exercise the full public API through a single dependency. Library
//! users should depend on the individual crates directly:
//!
//! * [`sim`] — simulation kernel (time, events, RNG, statistics).
//! * [`nand`] — NAND flash device model.
//! * [`ftl`] — page-mapping flash translation layer with GC.
//! * [`pagecache`] — Linux-style write-back page cache model.
//! * [`workload`] — synthetic benchmark workload generators.
//! * [`core`] — the paper's contribution: predictors, the JIT-GC manager,
//!   BGC policies, and the full-system simulation engine.
//! * [`array`](mod@array) — striped multi-SSD array layer with GC-aware routing.
//! * [`service`] — multi-tenant queue-pair frontend: per-tenant
//!   submission/completion queues, weighted fair queueing, and tiered
//!   backpressure over one engine.

#![forbid(unsafe_code)]

pub use jitgc_array as array;
pub use jitgc_core as core;
pub use jitgc_ftl as ftl;
pub use jitgc_nand as nand;
pub use jitgc_pagecache as pagecache;
pub use jitgc_service as service;
pub use jitgc_sim as sim;
pub use jitgc_workload as workload;
