//! Smoke tests for the hot-path overhaul: the incremental victim index,
//! the slab page cache, and the threaded sweep runner must change *how
//! fast* the simulator runs, never *what* it computes.
//!
//! Two angles:
//!
//! * **Counter invariants** across policies — conservation laws that hold
//!   regardless of data-structure internals. (In debug builds — i.e.
//!   here — the FTL additionally cross-checks the victim index against a
//!   full candidate scan on every single GC selection, so these runs
//!   also exercise the index/full-scan equivalence end to end.)
//! * **Thread-count independence** — the sweep runner must return
//!   byte-identical reports no matter how many workers execute the grid.

use jitgc_bench::{run_grid, Experiment, PolicyKind};
use jitgc_core::system::{SimReport, SystemConfig};
use jitgc_sim::SimDuration;
use jitgc_workload::BenchmarkKind;

/// A small, fast experiment (aged device, timeline recording on) that
/// still drives plenty of GC.
fn small_experiment() -> Experiment {
    let mut system = SystemConfig::small_for_tests();
    system.record_timeline = true;
    Experiment {
        system,
        duration: SimDuration::from_secs(60),
        mean_iops: 400.0,
        burst_mean: 64.0,
        seed: 7,
    }
}

fn check_invariants(report: &SimReport, system: &SystemConfig, label: &str) {
    assert_eq!(
        report.ops,
        report.reads + report.buffered_writes + report.direct_writes + report.trims,
        "{label}: request counters do not sum to ops"
    );
    if report.host_pages_written > 0 {
        assert!(
            report.waf.expect("host writes happened") >= 1.0,
            "{label}: WAF {} below 1.0 — the device cannot program fewer pages than the host wrote",
            report.waf.expect("host writes happened")
        );
    }
    assert!(
        report.nand_pages_programmed >= report.host_pages_written,
        "{label}: programmed {} < host-written {}",
        report.nand_pages_programmed,
        report.host_pages_written
    );
    // Free capacity stays within physical bounds at every snapshot.
    let total_pages = system.ftl.geometry().total_pages();
    assert!(
        !report.timeline.is_empty(),
        "{label}: timeline not recorded"
    );
    for sample in &report.timeline {
        assert!(
            sample.free_pages <= total_pages,
            "{label}: free pages {} exceed device total {total_pages}",
            sample.free_pages
        );
        assert!(
            sample.waf == 0.0 || sample.waf >= 1.0,
            "{label}: interval WAF {} in (0, 1)",
            sample.waf
        );
    }
}

#[test]
fn counter_invariants_hold_across_policies() {
    let exp = small_experiment();
    for policy in PolicyKind::STANDARD {
        let report = exp.run(policy, BenchmarkKind::Ycsb);
        let label = report.policy.clone();
        check_invariants(&report, &exp.system, &label);
    }
}

#[test]
fn counter_invariants_hold_across_benchmarks() {
    let exp = small_experiment();
    for benchmark in BenchmarkKind::all() {
        let report = exp.run(PolicyKind::Jit, benchmark);
        check_invariants(&report, &exp.system, benchmark.name());
    }
}

#[test]
fn sweep_reports_are_identical_serial_and_threaded() {
    let exp = small_experiment();
    let cells: Vec<(PolicyKind, BenchmarkKind)> =
        [PolicyKind::L_BGC, PolicyKind::Adp, PolicyKind::Jit]
            .into_iter()
            .flat_map(|p| {
                [BenchmarkKind::Ycsb, BenchmarkKind::TpcC]
                    .into_iter()
                    .map(move |b| (p, b))
            })
            .collect();

    let run = |&(p, b): &(PolicyKind, BenchmarkKind)| exp.run(p, b);
    let serial = run_grid(&cells, 1, run);
    for threads in [2, 4] {
        let threaded = run_grid(&cells, threads, run);
        assert_eq!(
            serial, threaded,
            "sweep results diverged at {threads} threads"
        );
    }
}

#[test]
fn run_grid_preserves_input_order_under_skewed_cell_costs() {
    // Cells with wildly different run times (the real grids mix No-BGC
    // and JIT-GC) must still land in their input slots.
    let exp = small_experiment();
    let cells = [
        (PolicyKind::Jit, BenchmarkKind::Ycsb),
        (PolicyKind::NoBgc, BenchmarkKind::Ycsb),
        (PolicyKind::Jit, BenchmarkKind::TpcC),
        (PolicyKind::NoBgc, BenchmarkKind::TpcC),
    ];
    let reports = run_grid(&cells, 4, |&(p, b)| exp.run(p, b));
    for ((policy, benchmark), report) in cells.iter().zip(&reports) {
        assert_eq!(report.policy, policy.name());
        assert_eq!(report.workload, benchmark.name());
    }
}
