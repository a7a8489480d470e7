//! Shared experiment harness for regenerating the paper's tables and
//! figures.
//!
//! The crate's one bench target, `paper` (`harness = false`), runs every
//! table of the paper's evaluation and its ablations and writes them into
//! `EXPERIMENTS.md`; `ssdsim` runs sweeps of single cells. This library
//! holds what they share: the policy matrix, the standard experiment
//! configuration, sweep cells, and table formatting. The grid runner is
//! `jitgc-sim`'s, re-exported here.
//!
//! Regenerate the tables with `cargo bench -p jitgc-bench --bench paper`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use jitgc_sim::{default_threads, run_grid};

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
    /// for this system. `ssdsim`'s sweep, the `paper` bench and
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

/// One cell of a CLI sweep: a GC policy × a benchmark × an optional
/// over-provisioning override (permille; `None` keeps the base config).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepCell {
    /// The GC policy under test.
    pub policy: PolicyKind,
    /// The benchmark personality driving the run.
    pub benchmark: BenchmarkKind,
    /// Over-provisioning override in permille of user capacity.
    pub op_permille: Option<u64>,
}

impl SweepCell {
    /// The system configuration this cell runs under: the base config
    /// with the cell's OP override applied (geometry rescales with it).
    #[must_use]
    pub fn system(&self, base: &SystemConfig) -> SystemConfig {
        match self.op_permille {
            None => base.clone(),
            Some(p) => {
                let mut system = base.clone();
                system.ftl = system.ftl.to_builder().op_permille(p).build();
                system
            }
        }
    }

    /// Builds this cell ready to run, the way every sweep driver does:
    /// `base` on the cell's [`system`](Self::system), through
    /// [`Experiment::build`].
    #[must_use]
    pub fn build(&self, base: &Experiment) -> SsdSystem {
        Experiment {
            system: self.system(&base.system),
            ..base.clone()
        }
        .build(self.policy, self.benchmark)
    }
}

/// Expands the `benchmarks × policies × op values` cross product in
/// deterministic order and drops exact duplicate cells (same policy,
/// benchmark, and OP — e.g. `--policy l-bgc,reserved:500` names the same
/// configuration twice). Returns the unique cells in first-occurrence
/// order and the number of duplicates dropped.
#[must_use]
pub fn expand_cells(
    benchmarks: &[BenchmarkKind],
    policies: &[PolicyKind],
    op_values: &[Option<u64>],
) -> (Vec<SweepCell>, usize) {
    let mut cells: Vec<SweepCell> = Vec::new();
    let mut dropped = 0usize;
    for &benchmark in benchmarks {
        for &policy in policies {
            for &op_permille in op_values {
                let cell = SweepCell {
                    policy,
                    benchmark,
                    op_permille,
                };
                if cells.contains(&cell) {
                    dropped += 1;
                } else {
                    cells.push(cell);
                }
            }
        }
    }
    (cells, dropped)
}

/// Renders a row-per-benchmark, column-per-variant table of `f64` cells.
///
/// Row labels take at least 12 characters and every column at least 16;
/// a wider label or value widens its column so that at least one space
/// separates it from its neighbour.
#[must_use]
pub fn format_table(
    title: &str,
    columns: &[String],
    rows: &[(String, Vec<f64>)],
    precision: usize,
) -> String {
    let width = |text: &str| text.chars().count() + 1;
    let label_width = rows
        .iter()
        .map(|(name, _)| width(name))
        .fold(12, usize::max);
    let widths: Vec<usize> = columns
        .iter()
        .enumerate()
        .map(|(i, c)| {
            rows.iter()
                .filter_map(|(_, cells)| cells.get(i))
                .map(|v| width(&format!("{v:.precision$}")))
                .fold(width(c).max(16), usize::max)
        })
        .collect();
    let mut out = String::new();
    out.push_str(&format!("\n=== {title} ===\n"));
    out.push_str(&format!("{:<label_width$}", ""));
    for (c, w) in columns.iter().zip(&widths) {
        out.push_str(&format!("{c:>w$}"));
    }
    out.push('\n');
    for (name, cells) in rows {
        out.push_str(&format!("{name:<label_width$}"));
        for (v, w) in cells.iter().zip(&widths) {
            out.push_str(&format!("{v:>w$.precision$}"));
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
        assert_eq!(t.lines().nth(2).map(str::len), Some(12 + 16 + 16));

        // A 16-character label widens its column to keep a space on its
        // left; narrower columns stay 16 wide.
        let t = format_table(
            "T",
            &["A-BGC/unsync".into(), "ADP-GC/staggered".into()],
            &[("Filebench JIT-GC".into(), vec![1.0, 2.0])],
            0,
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(
            lines[2],
            format!("{:17}{:>16}{:>17}", "", "A-BGC/unsync", "ADP-GC/staggered")
        );
        assert_eq!(
            lines[3],
            format!("{:<17}{:>16}{:>17}", "Filebench JIT-GC", "1", "2")
        );
        assert!(lines[2].contains(" ADP-GC/staggered"));
    }

    #[test]
    fn expansion_is_the_ordered_cross_product() {
        let (cells, dropped) = expand_cells(
            &[BenchmarkKind::Ycsb, BenchmarkKind::TpcC],
            &[PolicyKind::Jit, PolicyKind::NoBgc],
            &[None, Some(140)],
        );
        assert_eq!(cells.len(), 8);
        assert_eq!(dropped, 0);
        assert_eq!(cells[0].benchmark, BenchmarkKind::Ycsb);
        assert_eq!(cells[0].policy, PolicyKind::Jit);
        assert_eq!(cells[1].op_permille, Some(140));
    }

    #[test]
    fn duplicate_cells_are_dropped_and_counted() {
        let (cells, dropped) = expand_cells(
            &[BenchmarkKind::Ycsb],
            &[PolicyKind::L_BGC, PolicyKind::L_BGC, PolicyKind::Jit],
            &[None],
        );
        assert_eq!(cells.len(), 2);
        assert_eq!(dropped, 1);
    }

    #[test]
    fn op_override_rescales_the_geometry() {
        let base = SystemConfig::default_sim();
        let cell = SweepCell {
            policy: PolicyKind::Jit,
            benchmark: BenchmarkKind::Ycsb,
            op_permille: Some(200),
        };
        let system = cell.system(&base);
        assert_eq!(system.ftl.op_permille(), 200);
        assert!(system.ftl.op_pages() > base.ftl.op_pages());
        assert_eq!(system.ftl.user_pages(), base.ftl.user_pages());
        // The built cell runs on that system, not the base's.
        let sim = cell.build(&Experiment::standard());
        assert_eq!(sim.config().ftl.op_permille(), 200);
    }
}
