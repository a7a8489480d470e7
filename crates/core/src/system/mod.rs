//! The full-system simulation engine.
//!
//! Wires the substrate together — workload → page cache → FTL → NAND —
//! with the paper's host/device split: every flusher period `p` the engine
//! (acting as the host kernel) runs the flusher, the two predictors, and
//! the installed [`GcPolicy`](crate::policy::GcPolicy), then lets
//! background GC reclaim toward the policy's target **during device idle
//! time only**.
//!
//! The request loop is a paced closed loop: each request is issued at the
//! later of its think-time schedule and the previous request's completion,
//! so foreground-GC stalls propagate into IOPS exactly as on a real
//! system.

mod closed_loop;
mod config;
mod engine;
mod profile;
mod report;
mod scorer;

pub use closed_loop::ClosedLoop;
pub use config::{ManagerPlacement, SystemConfig, VictimKind};
pub use engine::{FfGate, FfRefusals, GcSignals, SsdSystem};
pub use profile::{PhaseProfile, RunPerf, RunTotals};
pub use report::{DegradeEventRecord, DegradedReport, IntervalSample, SimReport};
