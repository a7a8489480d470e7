//! Shared experiment harness for regenerating the paper's tables and
//! figures.
//!
//! The crate's one bench target, `paper` (`harness = false`), runs every
//! table of the paper's evaluation and its ablations and writes them into
//! `EXPERIMENTS.md`; `ssdsim` runs sweeps of cells. Both build and run
//! every simulation as a [`Cell`]: an [`Experiment`], a [`PolicyKind`] and
//! a [`Load`] — one device running a benchmark or the synthetic mix, or an
//! array of devices running a benchmark. A cell's workload is sized in one
//! place, [`Experiment::workload_config`]: an array carries its stripe
//! columns ([`ArrayConfig::columns`]) times the single-device working set
//! and rate. The library also holds the sweep expansion and the table
//! formatting; the grid runner is `jitgc-sim`'s, re-exported here.
//!
//! Regenerate the tables with `cargo bench -p jitgc-bench --bench paper`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

pub use jitgc_sim::{default_threads, run_grid};

use jitgc_array::{ArrayConfig, ArrayReport, ArrayScheduler, GcMode, Redundancy};
pub use jitgc_core::policy::PolicyKind;
use jitgc_core::system::{SimReport, SsdSystem, SystemConfig};
use jitgc_sim::json::JsonValue;
use jitgc_sim::SimDuration;
use jitgc_workload::{ArrivalError, BenchmarkKind, Synthetic, Workload, WorkloadConfig};

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

    /// The workload knobs of a load striped over `columns` stripe columns
    /// (1 on one device): the system's [standard working
    /// set](SystemConfig::standard_working_set) and the arrival rate, each
    /// times `columns`, so every column carries what one device carries.
    /// Every cell sizes its workload here.
    ///
    /// # Errors
    ///
    /// The first rule the sizing breaks, in [`SizingError`]'s order.
    pub fn workload_config(&self, columns: u64) -> Result<WorkloadConfig, SizingError> {
        let working_set = self
            .system
            .standard_working_set()
            .map_err(SizingError::WorkingSet)?;
        let arrival = WorkloadConfig::builder()
            .duration(self.duration)
            .mean_iops(self.mean_iops * columns as f64)
            .burst_mean(self.burst_mean)
            .seed(self.seed);
        if let Err(rule) = arrival.check_arrival() {
            return Err(SizingError::Arrival { columns, rule });
        }
        // The generators draw pages from a 32-bit domain (`Zipf::new`).
        let volume = working_set
            .checked_mul(columns)
            .filter(|&pages| pages <= u64::from(u32::MAX))
            .ok_or(SizingError::Volume {
                columns,
                working_set,
            })?;
        Ok(arrival.working_set_pages(volume).build())
    }

    /// Runs `benchmark` under `policy` on one device and returns its
    /// report. The device is aged (pre-filled) at the start of the run
    /// when the system says so; see [`SystemConfig::default_sim`].
    ///
    /// # Panics
    ///
    /// As [`Cell::run`].
    #[must_use]
    pub fn run(&self, policy: PolicyKind, benchmark: BenchmarkKind) -> SimReport {
        let cell = Cell {
            exp: self.clone(),
            policy,
            load: Load::Bench(benchmark),
        };
        match cell.run() {
            Report::Device(report) => report,
            Report::Array(_) => unreachable!("a benchmark load runs on one device"),
        }
    }
}

/// Why [`Experiment::workload_config`] cannot size a workload.
#[derive(Debug, Clone, PartialEq)]
pub enum SizingError {
    /// The system leaves no working set
    /// ([`SystemConfig::standard_working_set`]'s message).
    WorkingSet(String),
    /// The arrival knobs, the rate times `columns`, break
    /// [`check_arrival`](jitgc_workload::WorkloadConfigBuilder::check_arrival).
    Arrival {
        /// The stripe columns the rate was spread over.
        columns: u64,
        /// The rule the knobs break.
        rule: ArrivalError,
    },
    /// `columns` × `working_set` pages is past the generators' 32-bit
    /// page domain.
    Volume {
        /// The stripe columns.
        columns: u64,
        /// The per-device working set in pages.
        working_set: u64,
    },
}

impl fmt::Display for SizingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SizingError::WorkingSet(message) => f.write_str(message),
            SizingError::Arrival { rule, .. } => write!(f, "{rule}"),
            SizingError::Volume {
                columns,
                working_set,
            } => write!(
                f,
                "{columns} stripe columns × {working_set} pages per column is past the \
                 workload generators' domain of {} pages",
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for SizingError {}

/// What drives a cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// One device running one of the paper's six benchmarks.
    Bench(BenchmarkKind),
    /// One device running the synthetic workload (40 % reads, Zipf 0.99,
    /// 1–4 pages) with this share of its writes buffered.
    Synthetic(f64),
    /// A benchmark striped over an array whose members each run the
    /// experiment's system and carry its single-device load.
    Array {
        /// The benchmark driving the volume.
        benchmark: BenchmarkKind,
        /// Member devices.
        members: usize,
        /// Stripe chunk in pages.
        chunk_pages: u64,
        /// Data layout across members.
        redundancy: Redundancy,
        /// BGC coordination across members.
        gc_mode: GcMode,
    },
}

/// One simulation: `load` under `policy` on `exp`. `ssdsim` and the
/// `paper` bench build and run every simulation as one.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The system and the workload knobs.
    pub exp: Experiment,
    /// The GC policy (each array member gets its own instance).
    pub policy: PolicyKind,
    /// What drives the cell.
    pub load: Load,
}

impl Cell {
    /// The array the cell's load is striped over, on the experiment's
    /// system; `None` on one device.
    #[must_use]
    pub fn array(&self) -> Option<ArrayConfig> {
        match self.load {
            Load::Array {
                members,
                chunk_pages,
                redundancy,
                gc_mode,
                ..
            } => Some(ArrayConfig {
                members,
                chunk_pages,
                redundancy,
                gc_mode,
                system: self.exp.system.clone(),
            }),
            Load::Bench(_) | Load::Synthetic(_) => None,
        }
    }

    /// The cell's workload knobs: [`Experiment::workload_config`] over
    /// the array's [columns](ArrayConfig::columns), 1 on one device.
    ///
    /// # Errors
    ///
    /// As [`Experiment::workload_config`].
    pub fn workload_config(&self) -> Result<WorkloadConfig, SizingError> {
        let columns = self.array().map_or(1, |array| array.columns() as u64);
        self.exp.workload_config(columns)
    }

    /// Builds and runs the cell.
    ///
    /// # Panics
    ///
    /// Panics if the sizing fails or the array breaks
    /// [`ArrayConfig::validate`]; CLIs check both when they parse flags.
    #[must_use]
    pub fn run(&self) -> Report {
        match self.build() {
            Sim::Device(mut sim) => Report::Device(sim.run()),
            Sim::Array(mut sim) => Report::Array(sim.run()),
        }
    }

    /// Builds the cell, ready to run.
    fn build(&self) -> Sim {
        let config = self.workload_config().unwrap_or_else(|e| panic!("{e}"));
        let workload: Box<dyn Workload> = match self.load {
            Load::Bench(benchmark) => benchmark.build(config),
            Load::Synthetic(buffered) => Box::new(
                Synthetic::builder()
                    .read_fraction(0.4)
                    .buffered_fraction(buffered)
                    .zipf_skew(0.99)
                    .pages(1, 4)
                    .build(config),
            ),
            Load::Array { benchmark, .. } => {
                let array = self.array().expect("an array load");
                let sim = array.build(|cfg| self.policy.build(cfg), benchmark.build(config));
                return Sim::Array(Box::new(sim));
            }
        };
        let system = self.exp.system.clone();
        let policy = self.policy.build(&system);
        Sim::Device(Box::new(SsdSystem::new(system, policy, workload)))
    }
}

/// A built cell: one device, or an array's scheduler over its members
/// (boxed: the two differ in size by a factor of seven).
enum Sim {
    Device(Box<SsdSystem>),
    Array(Box<ArrayScheduler>),
}

/// What a cell reports: one device's report, or an array's.
pub enum Report {
    /// One device's report.
    Device(SimReport),
    /// An array's report.
    Array(ArrayReport),
}

impl Report {
    /// The device report; panics on an array's.
    #[must_use]
    pub fn device(&self) -> &SimReport {
        match self {
            Report::Device(report) => report,
            Report::Array(_) => panic!("a device table reads an array cell"),
        }
    }

    /// The array report; panics on a device's.
    #[must_use]
    pub fn array(&self) -> &ArrayReport {
        match self {
            Report::Array(report) => report,
            Report::Device(_) => panic!("an array table reads a device cell"),
        }
    }

    /// The report as JSON.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        match self {
            Report::Device(report) => report.to_json(),
            Report::Array(report) => report.to_json(),
        }
    }
}

/// Expands the `loads × policies × op values` cross product over `base`
/// in order, an OP value (permille; `None` keeps the base) rebuilding
/// the cell's geometry, and drops exact duplicates (e.g. `--policy
/// l-bgc,reserved:500` names one configuration twice). Returns the unique
/// cells in first-occurrence order and the number dropped.
#[must_use]
pub fn expand_cells(
    base: &Experiment,
    loads: &[Load],
    policies: &[PolicyKind],
    op_values: &[Option<u64>],
) -> (Vec<Cell>, usize) {
    let mut seen = Vec::new();
    let mut cells = Vec::new();
    for &load in loads {
        for &policy in policies {
            for &op_permille in op_values {
                if seen.contains(&(load, policy, op_permille)) {
                    continue;
                }
                seen.push((load, policy, op_permille));
                let mut exp = base.clone();
                if let Some(p) = op_permille {
                    exp.system.ftl = exp.system.ftl.to_builder().op_permille(p).build();
                }
                cells.push(Cell { exp, policy, load });
            }
        }
    }
    let dropped = loads.len() * policies.len() * op_values.len() - cells.len();
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
            &Experiment::standard(),
            &[
                Load::Bench(BenchmarkKind::Ycsb),
                Load::Bench(BenchmarkKind::TpcC),
            ],
            &[PolicyKind::Jit, PolicyKind::NoBgc],
            &[None, Some(140)],
        );
        assert_eq!(cells.len(), 8);
        assert_eq!(dropped, 0);
        assert_eq!(cells[0].load, Load::Bench(BenchmarkKind::Ycsb));
        assert_eq!(cells[0].policy, PolicyKind::Jit);
        assert_eq!(cells[1].exp.system.ftl.op_permille(), 140);
    }

    #[test]
    fn duplicate_cells_are_dropped_and_counted() {
        let (cells, dropped) = expand_cells(
            &Experiment::standard(),
            &[Load::Bench(BenchmarkKind::Ycsb)],
            &[PolicyKind::L_BGC, PolicyKind::L_BGC, PolicyKind::Jit],
            &[None],
        );
        assert_eq!(cells.len(), 2);
        assert_eq!(dropped, 1);
    }

    #[test]
    fn op_override_rescales_the_geometry() {
        let base = Experiment::standard();
        let (cells, _) = expand_cells(
            &base,
            &[Load::Bench(BenchmarkKind::Ycsb)],
            &[PolicyKind::Jit],
            &[Some(200)],
        );
        let system = &cells[0].exp.system;
        assert_eq!(system.ftl.op_permille(), 200);
        assert!(system.ftl.op_pages() > base.system.ftl.op_pages());
        assert_eq!(system.ftl.user_pages(), base.system.ftl.user_pages());
        // The built cell runs on that system, not the base's.
        let Sim::Device(sim) = cells[0].build() else {
            panic!("a benchmark load builds one device")
        };
        assert_eq!(sim.config().ftl.op_permille(), 200);
    }

    #[test]
    fn an_array_load_is_sized_by_its_stripe_columns() {
        let exp = Experiment::standard();
        let one = exp.workload_config(1).expect("the standard sizing");
        let array = |members, redundancy| Cell {
            exp: exp.clone(),
            policy: PolicyKind::Jit,
            load: Load::Array {
                benchmark: BenchmarkKind::Ycsb,
                members,
                chunk_pages: 16,
                redundancy,
                gc_mode: GcMode::Staggered,
            },
        };
        for (members, redundancy, columns) in [(4, Redundancy::None, 4), (4, Redundancy::Mirror, 2)]
        {
            let sized = array(members, redundancy).workload_config().expect("sized");
            assert_eq!(sized.working_set_pages(), one.working_set_pages() * columns);
            assert_eq!(sized.mean_iops(), one.mean_iops() * columns as f64);
        }
        // Past the generators' 32-bit domain, and past `u64`.
        for members in [1 << 20, usize::MAX] {
            let err = array(members, Redundancy::None).workload_config();
            assert!(matches!(err, Err(SizingError::Volume { .. })), "{err:?}");
        }
    }
}
