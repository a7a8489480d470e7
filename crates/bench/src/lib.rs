//! Shared experiment harness for regenerating the paper's tables and
//! figures.
//!
//! Each `[[bench]]` target in this crate (with `harness = false`) is one
//! experiment; this library holds the pieces they share: the policy
//! matrix, the standard experiment configuration, the runner, and table
//! formatting.
//!
//! Run everything with `cargo bench -p jitgc-bench`, or a single
//! experiment with e.g.
//! `cargo bench -p jitgc-bench --bench fig7_policy_comparison`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod runner;
mod screen;

pub use runner::{capped_sweep_width, default_threads, run_grid, run_grid_capped};
pub use screen::{expand_cells, model_policy, screen_cells, ScreenPlan, SweepCell};

use jitgc_core::policy::{AdpGc, GcPolicy, IdleGc, JitGc, NoBgc, ReservedCapacity};
use jitgc_core::system::{SimReport, SsdSystem, SystemConfig};
use jitgc_sim::SimDuration;
use jitgc_workload::{BenchmarkKind, WorkloadConfig};

/// The policies compared across experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// No background GC at all.
    NoBgc,
    /// Fixed reserve `C_resv = permille/1000 × C_OP`; 500 is the paper's
    /// L-BGC, 1500 its A-BGC.
    ReservedPermille(u64),
    /// The paper's adaptive device-internal baseline.
    Adp,
    /// Related-work baseline: idle-time-exploiting BGC (Park et al.,
    /// the paper's reference [7]).
    Idle,
    /// The paper's contribution.
    Jit,
    /// JIT-GC with SIP victim filtering disabled (ablation).
    JitNoSip,
}

impl PolicyKind {
    /// Display name matching the paper's figures.
    #[must_use]
    pub fn name(self) -> String {
        match self {
            PolicyKind::NoBgc => "No-BGC".into(),
            PolicyKind::ReservedPermille(500) => "L-BGC".into(),
            PolicyKind::ReservedPermille(1_500) => "A-BGC".into(),
            PolicyKind::ReservedPermille(p) => format!("{:.2}OP", p as f64 / 1000.0),
            PolicyKind::Adp => "ADP-GC".into(),
            PolicyKind::Idle => "IDLE-GC".into(),
            PolicyKind::Jit => "JIT-GC".into(),
            PolicyKind::JitNoSip => "JIT-GC (no SIP)".into(),
        }
    }

    /// Instantiates the policy for the given system configuration.
    #[must_use]
    pub fn build(self, config: &SystemConfig) -> Box<dyn GcPolicy> {
        let (bw, gc_bw) = config.default_bandwidths();
        match self {
            PolicyKind::NoBgc => Box::new(NoBgc),
            PolicyKind::ReservedPermille(permille) => Box::new(ReservedCapacity::of_op_permille(
                config.op_capacity(),
                permille,
            )),
            PolicyKind::Adp => Box::new(AdpGc::new(
                config.flusher_period,
                config.tau_expire(),
                config.cdh_percentile,
                config.cdh_bin_bytes,
                bw,
                gc_bw,
            )),
            PolicyKind::Idle => Box::new(IdleGc::default()),
            PolicyKind::Jit => Box::new(JitGc::from_system_config(config)),
            PolicyKind::JitNoSip => {
                Box::new(JitGc::from_system_config(config).without_sip_filtering())
            }
        }
    }
}

/// Parameters of one experiment run.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// System (FTL + cache + engine) configuration.
    pub system: SystemConfig,
    /// Simulated workload duration.
    pub duration: SimDuration,
    /// Workload arrival rate.
    pub mean_iops: f64,
    /// Mean macro-burst length in requests.
    pub burst_mean: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Experiment {
    /// The standard configuration used by every paper experiment: the
    /// `default_sim` system (aged device, scale model documented there),
    /// bursty arrivals whose burst volume straddles the L-BGC/A-BGC
    /// reserve range, 600 simulated seconds.
    #[must_use]
    pub fn standard() -> Self {
        Experiment {
            system: SystemConfig::default_sim(),
            duration: SimDuration::from_secs(600),
            mean_iops: 250.0,
            burst_mean: 1_024.0,
            seed: 42,
        }
    }

    /// A faster configuration for smoke tests (same shape, shorter run).
    #[must_use]
    pub fn quick() -> Self {
        Experiment {
            duration: SimDuration::from_secs(120),
            ..Experiment::standard()
        }
    }

    /// Builds one `(policy, benchmark)` cell, ready to run: the benchmark
    /// over the system's [standard working
    /// set](SystemConfig::standard_working_set), the policy instantiated
    /// for this system. `ssdsim`'s sweep, every figure/table bench and
    /// [`run`](Self::run) construct their cells here. The device is aged
    /// (pre-filled) at the start of the run when the system says so; see
    /// [`SystemConfig::default_sim`] for the scale model.
    ///
    /// # Panics
    ///
    /// Panics if the system leaves no working set (over-provisioning of
    /// 200 % or more); CLIs check that when they parse their flags.
    #[must_use]
    pub fn build(&self, policy: PolicyKind, benchmark: BenchmarkKind) -> SsdSystem {
        let working_set = self
            .system
            .standard_working_set()
            .expect("the system leaves a working set");
        let wl_cfg = WorkloadConfig::builder()
            .working_set_pages(working_set)
            .duration(self.duration)
            .mean_iops(self.mean_iops)
            .burst_mean(self.burst_mean)
            .seed(self.seed)
            .build();
        let workload = benchmark.build(wl_cfg);
        let policy = policy.build(&self.system);
        SsdSystem::new(self.system.clone(), policy, workload)
    }

    /// Runs one `(policy, benchmark)` cell and returns its report.
    #[must_use]
    pub fn run(&self, policy: PolicyKind, benchmark: BenchmarkKind) -> SimReport {
        self.build(policy, benchmark).run()
    }
}

/// Renders a row-per-benchmark, column-per-variant table of `f64` cells.
#[must_use]
pub fn format_table(
    title: &str,
    columns: &[String],
    rows: &[(String, Vec<f64>)],
    precision: usize,
) -> String {
    let mut out = String::new();
    out.push_str(&format!("\n=== {title} ===\n"));
    out.push_str(&format!("{:<12}", ""));
    for c in columns {
        out.push_str(&format!("{c:>16}"));
    }
    out.push('\n');
    for (name, cells) in rows {
        out.push_str(&format!("{name:<12}"));
        for v in cells {
            out.push_str(&format!("{v:>16.precision$}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names_match_paper() {
        assert_eq!(PolicyKind::ReservedPermille(500).name(), "L-BGC");
        assert_eq!(PolicyKind::ReservedPermille(1_500).name(), "A-BGC");
        assert_eq!(PolicyKind::ReservedPermille(750).name(), "0.75OP");
        assert_eq!(PolicyKind::Jit.name(), "JIT-GC");
    }

    #[test]
    fn all_policies_build() {
        let cfg = SystemConfig::small_for_tests();
        for kind in [
            PolicyKind::NoBgc,
            PolicyKind::ReservedPermille(1_000),
            PolicyKind::Adp,
            PolicyKind::Jit,
            PolicyKind::JitNoSip,
        ] {
            let p = kind.build(&cfg);
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn format_table_layout() {
        let t = format_table(
            "T",
            &["a".into(), "b".into()],
            &[("row".into(), vec![1.0, 2.0])],
            2,
        );
        assert!(t.contains("=== T ==="));
        assert!(t.contains("row"));
        assert!(t.contains("2.00"));
    }
}
