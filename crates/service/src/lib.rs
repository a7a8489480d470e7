//! Multi-tenant queue-pair frontend for the JIT-GC SSD engine.
//!
//! This crate turns the single-workload [`SsdSystem`] stepping API into a
//! long-lived, multi-tenant *service*: NVMe-style submission/completion
//! queue pairs per tenant, a weighted-fair-queueing arbiter that picks
//! queue heads by virtual finish time, and tiered
//! Green/Yellow/Red/Black backpressure driven by queue occupancy and the
//! engine's GC debt. The `ssdsimd` binary fronts it with a CLI and an
//! optional length-prefixed wire protocol over TCP or Unix sockets.
//!
//! The paper's thesis is that just-in-time GC keeps free capacity exactly
//! ahead of demand instead of hoarding a fixed reserve; a service front
//! makes the multi-tenant consequence measurable: under L-BGC a hot
//! writer's bursts push the device into foreground GC and a
//! latency-sensitive reader pays in p999, while JIT-GC plus tiered
//! shedding confines the damage to the tenant causing it.
//!
//! Everything is deterministic in virtual time: the in-process
//! closed-loop driver ([`run_closed_loop`]) runs serially on the calling
//! thread, pulling each tenant's requests from its own seeded generator as
//! it submits them, so equal configurations give byte-identical reports
//! in memory that does not grow with the run's length.
//!
//! # Example
//!
//! ```
//! use jitgc_service::{run_closed_loop, PolicyChoice, ServiceConfig};
//!
//! let mut cfg = ServiceConfig::small_for_tests();
//! cfg.seconds = 2;
//! cfg.system.prefill = false;
//! let report = run_closed_loop(&cfg, PolicyChoice::Jit.build(&cfg.system));
//! assert_eq!(report.tenants.len(), 3);
//! ```
//!
//! [`SsdSystem`]: jitgc_core::system::SsdSystem

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod driver;
mod net;
mod policy;
mod proto;
mod queue;
mod report;
mod service;
mod tier;
mod wfq;

pub use config::{ServiceConfig, TenantProfile, TenantSpec, TierThresholds};
pub use driver::{run_closed_loop, run_closed_loop_counting};
pub use net::{serve, Client, Endpoint};
pub use policy::PolicyChoice;
pub use proto::{read_frame, write_frame, Frame};
pub use queue::{Completion, CompletionStatus, Submission, SubmitOutcome};
pub use report::{ServiceReport, TenantReport, TierReport};
pub use service::Service;
pub use tier::{Tier, TierPolicy};
pub use wfq::WfqArbiter;
