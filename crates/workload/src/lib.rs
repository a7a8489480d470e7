//! Synthetic benchmark workload generators for the JIT-GC simulator.
//!
//! The paper evaluates on six application benchmarks (YCSB, Postmark,
//! Filebench, Bonnie++, Tiobench, TPC-C). Running those real applications
//! requires a filesystem, a DBMS, and the original testbed; what the
//! *simulation* needs from them is their I/O personality:
//!
//! 1. the **buffered : direct write ratio** (paper Table 1) — this decides
//!    how much of the future is predictable from the page cache;
//! 2. **overwrite locality** (hot pages rewritten soon) — this creates the
//!    soon-to-be-invalidated pages SIP filtering exploits;
//! 3. **burstiness / idle structure** — this is the time budget background
//!    GC can hide in.
//!
//! Each generator here reproduces those three properties for its namesake
//! (documented per type), is fully deterministic given a seed, and reports
//! its configured [`WriteMix`] so the Table 1 experiment can compare
//! configured vs. measured ratios.
//!
//! # Example
//!
//! ```
//! use jitgc_workload::{BenchmarkKind, Workload, WorkloadConfig};
//!
//! let config = WorkloadConfig::builder()
//!     .working_set_pages(4096)
//!     .seed(7)
//!     .build();
//! let mut workload = BenchmarkKind::Ycsb.build(config);
//! let first = workload.next_request().expect("workload is non-empty");
//! assert!(first.lpn.0 < 4096);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arrival;
mod benchmark;
mod config;
mod measure;
mod profile;
mod request;
mod stub;
mod trace;

mod generators;

pub use arrival::ArrivalProcess;
pub use benchmark::BenchmarkKind;
pub use config::{WorkloadConfig, WorkloadConfigBuilder};
pub use generators::{
    Bonnie, Filebench, Postmark, Synthetic, SyntheticBuilder, Tiobench, TpcC, Ycsb,
};
pub use measure::{measure_write_mix, MeasuredMix};
pub use profile::{AccessPattern, WriteProfile, WriteStream};
pub use request::{IoKind, IoRequest, WriteMix};
pub use stub::NullWorkload;
pub use trace::{
    demux_trace, merge_traces, parse_msr_trace, record_trace, ParseTraceError, TraceRecord,
    TraceWorkload,
};

/// A stream of I/O requests with think-time gaps.
///
/// Generators are pull-based: [`next_request`](Workload::next_request)
/// yields the next request or `None` once the configured duration of
/// think-time has been emitted. The engine owns actual issue timing (the
/// gap is a *minimum* spacing — a closed-loop schedule, not an open-loop
/// timestamp).
///
/// `Send` so a system holding its workload can move to another thread
/// (a service run by `serve`).
pub trait Workload: Send {
    /// The benchmark's display name.
    fn name(&self) -> &'static str;

    /// The next request, or `None` when the workload is exhausted.
    fn next_request(&mut self) -> Option<IoRequest>;

    /// The configured buffered/direct write split (paper Table 1).
    fn write_mix(&self) -> WriteMix;

    /// The number of logical pages this workload touches.
    fn working_set_pages(&self) -> u64;
}
