//! Smoke tests for the array subsystem, kept short enough for the tier-1
//! root-package run (the crate-level suite in
//! `crates/array/tests/array_properties.rs` covers the same invariants at
//! larger scale and with mirroring).
//!
//! Three guarantees, end to end through the facade:
//!
//! * a 1-member array IS the standalone engine — byte-identical report;
//! * aggregate counters are exactly the member sums;
//! * array sweeps are thread-count independent, like every other sweep.

use jitgc_array::{ArrayConfig, ArrayReport, GcMode, Redundancy};
use jitgc_bench::{run_grid, PolicyKind};
use jitgc_core::system::{SsdSystem, SystemConfig};
use jitgc_sim::SimDuration;
use jitgc_workload::{BenchmarkKind, Workload, WorkloadConfig};

/// The standard experiment sizing, scaled by the column count so each
/// member carries a standalone device's load.
fn workload_for(system: &SystemConfig, columns: u64, seed: u64) -> Box<dyn Workload> {
    let per_member = system.standard_working_set().unwrap();
    BenchmarkKind::Ycsb.build(
        WorkloadConfig::builder()
            .working_set_pages(per_member * columns)
            .duration(SimDuration::from_secs(20))
            .mean_iops(400.0 * columns as f64)
            .burst_mean(128.0)
            .seed(seed)
            .build(),
    )
}

fn array_report(members: usize, gc_mode: GcMode, seed: u64) -> ArrayReport {
    let system = SystemConfig::small_for_tests();
    let config = ArrayConfig {
        members,
        chunk_pages: 16,
        redundancy: Redundancy::None,
        gc_mode,
        system: system.clone(),
    };
    config
        .build(
            |cfg| PolicyKind::Jit.build(cfg),
            workload_for(&system, members as u64, seed),
        )
        .run()
}

/// `--array 1` acceptance criterion: the single member's report is
/// byte-identical (as serialized JSON) to `SsdSystem::run()` on the same
/// configuration and workload.
#[test]
fn one_member_array_is_the_standalone_engine() {
    let system = SystemConfig::small_for_tests();
    let single = SsdSystem::new(
        system.clone(),
        PolicyKind::Jit.build(&system),
        workload_for(&system, 1, 42),
    )
    .run();

    let array = array_report(1, GcMode::Staggered, 42);
    assert_eq!(array.member_reports.len(), 1);
    assert_eq!(
        array.member_reports[0].to_json().to_pretty(),
        single.to_json().to_pretty(),
        "1-member array diverged from the standalone engine"
    );
    assert_eq!(array.ops, single.ops);
    assert_eq!(array.split_requests, 0);
}

/// Aggregate counters are the member sums; derived aggregates agree.
#[test]
fn aggregates_are_member_sums() {
    let report = array_report(3, GcMode::Staggered, 7);
    assert_eq!(report.member_reports.len(), 3);
    assert!(report.ops > 0, "workload produced no requests");

    let erases: u64 = report.member_reports.iter().map(|r| r.nand_erases).sum();
    let stalls: u64 = report
        .member_reports
        .iter()
        .map(|r| r.fgc_request_stalls)
        .sum();
    assert_eq!(report.nand_erases, erases);
    assert_eq!(report.fgc_request_stalls, stalls);
    assert_eq!(report.erase_spread.total, erases);

    let host: u64 = report
        .member_reports
        .iter()
        .map(|r| r.host_pages_written)
        .sum();
    let nand: u64 = report
        .member_reports
        .iter()
        .map(|r| r.nand_pages_programmed)
        .sum();
    assert!(host > 0, "no host writes reached the members");
    let waf = report.waf.expect("WAF defined once host writes happened");
    assert!((waf - nand as f64 / host as f64).abs() < 1e-12);
}

/// Array sweeps distribute over worker threads without changing results.
#[test]
fn array_sweeps_are_thread_count_independent() {
    let cells = [
        (GcMode::Unsynchronized, 1u64),
        (GcMode::Staggered, 1u64),
        (GcMode::Unsynchronized, 2u64),
        (GcMode::Staggered, 2u64),
    ];
    let run = |&(mode, seed): &(GcMode, u64)| array_report(2, mode, seed);
    let serial = run_grid(&cells, 1, run);
    let threaded = run_grid(&cells, 4, run);
    assert_eq!(serial, threaded, "thread count changed the results");
}
