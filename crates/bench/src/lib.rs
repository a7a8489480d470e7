//! Shared experiment harness for regenerating the paper's tables and
//! figures.
//!
//! Each `[[bench]]` target in this crate (with `harness = false`) is one
//! experiment; this library holds the pieces they share: the policy
//! matrix, the standard experiment configuration, the sweep screen, and
//! table formatting. The grid runner is `jitgc-sim`'s, re-exported here.
//!
//! Run everything with `cargo bench -p jitgc-bench`, or a single
//! experiment with e.g.
//! `cargo bench -p jitgc-bench --bench fig7_policy_comparison`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod screen;

pub use jitgc_sim::{default_threads, run_grid};
pub use screen::{expand_cells, screen_cells, ScreenPlan, SweepCell};

pub use jitgc_core::policy::PolicyKind;
use jitgc_core::system::{SimReport, SsdSystem, SystemConfig};
use jitgc_sim::SimDuration;
use jitgc_workload::{BenchmarkKind, WorkloadConfig};

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

    /// Runs every `(policy, benchmark)` cell on up to `n_threads` threads;
    /// `results[i]` belongs to `cells[i]` regardless of thread count.
    #[must_use]
    pub fn run_cells(
        &self,
        cells: &[(PolicyKind, BenchmarkKind)],
        n_threads: usize,
    ) -> Vec<SimReport> {
        run_grid(cells, n_threads, |&(policy, benchmark)| {
            self.run(policy, benchmark)
        })
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
