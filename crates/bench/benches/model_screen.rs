//! Micro-benchmark of the analytical screening layer: screened vs
//! exhaustive sweep wall-clock at three sweep widths, plus the screening
//! accuracy that matters — whether the cells on the *simulated* Pareto
//! frontier were among the cells the screen chose to simulate.
//!
//! Run with `cargo bench -p jitgc-bench --bench model_screen`. Numbers
//! feed the `EXPERIMENTS.md` screening table.

use jitgc_bench::{default_threads, expand_cells, run_grid, screen_cells, Experiment, PolicyKind};
use jitgc_core::system::SimReport;
use jitgc_sim::SimDuration;
use jitgc_workload::BenchmarkKind;
use std::time::Instant;

/// Per-cell simulated duration; override with `MODEL_SCREEN_SECONDS` to
/// reproduce the `EXPERIMENTS.md` numbers at the standard 600 s length.
fn cell_seconds() -> u64 {
    std::env::var("MODEL_SCREEN_SECONDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(120)
}

const KEEP_FRAC: f64 = 0.25;

/// Simulated-cost key used for the post-hoc Pareto check: lower WAF and
/// fewer foreground stalls are better (mirrors the model's objectives,
/// on simulated metrics).
fn sim_cost(report: &SimReport) -> (f64, f64) {
    (report.waf.unwrap_or(1.0), {
        (report.fgc_request_stalls + report.fgc_flush_stalls) as f64
    })
}

fn sim_dominates(a: (f64, f64), b: (f64, f64)) -> bool {
    a.0 <= b.0 && a.1 <= b.1 && (a.0 < b.0 || a.1 < b.1)
}

fn sweep(label: &str, op_values: &[Option<u64>]) {
    // Cells are built by `SweepCell::build`, the builder `ssdsim`'s sweep
    // path uses, on the standard experiment at the chosen length.
    let base = Experiment {
        duration: SimDuration::from_secs(cell_seconds()),
        ..Experiment::standard()
    };
    let (cells, _dupes) = expand_cells(&BenchmarkKind::all(), &PolicyKind::STANDARD, op_values);
    let threads = default_threads();

    // Exhaustive: simulate everything.
    let start = Instant::now();
    let exhaustive = run_grid(&cells, threads, |cell| cell.build(&base).run());
    let exhaustive_secs = start.elapsed().as_secs_f64();

    // Screened: model every cell, simulate the kept ones.
    let start = Instant::now();
    let plan = screen_cells(
        &base.system,
        &cells,
        base.mean_iops,
        base.burst_mean,
        KEEP_FRAC,
    );
    let model_secs = start.elapsed().as_secs_f64();
    let kept: Vec<usize> = (0..cells.len()).filter(|&i| plan.keep[i]).collect();
    let start = Instant::now();
    let _screened = run_grid(&kept, threads, |&i| cells[i].build(&base).run());
    let screened_secs = start.elapsed().as_secs_f64() + model_secs;

    // Accuracy: which cells sit on the *simulated* per-benchmark Pareto
    // frontier (WAF × foreground stalls), and how many of those did the
    // screen simulate?
    let mut frontier = 0usize;
    let mut recovered = 0usize;
    for benchmark in BenchmarkKind::all() {
        let group: Vec<usize> = (0..cells.len())
            .filter(|&i| cells[i].benchmark == benchmark)
            .collect();
        for &i in &group {
            let c = sim_cost(&exhaustive[i]);
            let dominated = group
                .iter()
                .any(|&j| j != i && sim_dominates(sim_cost(&exhaustive[j]), c));
            if !dominated {
                frontier += 1;
                if plan.keep[i] {
                    recovered += 1;
                }
            }
        }
    }

    println!(
        "{label:<28} {:>5} cells  exhaustive {exhaustive_secs:>7.2} s  screened {screened_secs:>7.2} s \
         (model {:>6.1} ms, {:>3} simulated)  speedup {:>4.1}x  frontier {recovered}/{frontier} recovered",
        cells.len(),
        model_secs * 1e3,
        kept.len(),
        exhaustive_secs / screened_secs,
    );
}

fn main() {
    println!(
        "model_screen: all benchmarks × 7 policies, {} s cells, keep {KEEP_FRAC}, {} threads",
        cell_seconds(),
        default_threads()
    );
    sweep("narrow (default OP)", &[None]);
    sweep("medium (3 OP points)", &[Some(70), Some(150), Some(300)]);
    sweep(
        "wide (6 OP points)",
        &[
            Some(70),
            Some(100),
            Some(150),
            Some(200),
            Some(300),
            Some(400),
        ],
    );
}
