//! Striped multi-SSD array layer with GC-aware request routing.
//!
//! The paper evaluates JIT-GC on a single device, but its host-side
//! manager placement (Fig. 3) points at a larger opportunity: a host that
//! can read every device's free capacity and predicted demand over the
//! extended interface can coordinate garbage collection *across* devices.
//! This crate builds that array:
//!
//! * [`StripeMap`] — RAID-0 chunk striping (optionally mirrored pairs,
//!   [`Redundancy::Mirror`]) mapping one logical volume onto N member
//!   address spaces, with contiguity-preserving request splitting.
//! * [`ArrayScheduler`] — the closed-loop engine: advances members in
//!   virtual-time lockstep through the core engine's stepping API, fans
//!   each logical request out as one sub-request per touched member, and
//!   completes it when the slowest member does — one request at a time,
//!   on the calling thread.
//! * [`ArrayManager`] — the coordination brain: staggers member flusher
//!   phases ([`GcMode::Staggered`]) so background-GC windows de-correlate
//!   instead of stalling every stripe column at once, and steers mirrored
//!   reads toward the replica that is idle and further from its
//!   foreground-GC threshold (using each member's exported
//!   [`GcSignals`](jitgc_core::system::GcSignals)).
//! * [`ArrayReport`] — aggregate measurements (array WAF, per-member
//!   erase spread, volume-level tail latency) plus the untouched
//!   per-member reports.
//!
//! A 1-member array degenerates to the standalone engine: same request
//! sequence, same prefill, byte-identical per-device report — the
//! equivalence the root `array_smoke` test pins.
//!
//! # Example
//!
//! ```
//! use jitgc_array::{ArrayConfig, GcMode, Redundancy};
//! use jitgc_core::policy::NoBgc;
//! use jitgc_core::system::SystemConfig;
//! use jitgc_workload::{BenchmarkKind, WorkloadConfig};
//!
//! let system = SystemConfig::small_for_tests();
//! let config = ArrayConfig {
//!     members: 2,
//!     chunk_pages: 16,
//!     redundancy: Redundancy::None,
//!     gc_mode: GcMode::Staggered,
//!     system: system.clone(),
//! };
//! let workload = BenchmarkKind::Ycsb.build(
//!     WorkloadConfig::builder()
//!         .working_set_pages(2 * 1024)
//!         .duration(jitgc_sim::SimDuration::from_secs(5))
//!         .seed(7)
//!         .build(),
//! );
//! let report = config.build(|_| Box::new(NoBgc), workload).run();
//! assert_eq!(report.members, 2);
//! assert!(report.ops > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod manager;
mod report;
mod scheduler;
mod stripe;

pub use config::ArrayConfig;
pub use manager::{ArrayManager, GcMode};
pub use report::{ArrayDegraded, ArrayReport, MemberSched};
pub use scheduler::ArrayScheduler;
#[doc(hidden)]
pub use scheduler::{ArraySched, SchedTelemetry};
pub use stripe::{Redundancy, StripeExtent, StripeMap};
