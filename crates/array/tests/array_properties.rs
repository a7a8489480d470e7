//! Array-level invariants: single-member equivalence, aggregate
//! consistency, determinism, and mirrored-write coherence.

use jitgc_array::{ArrayConfig, ArrayReport, GcMode, Redundancy};
use jitgc_core::policy::PolicyKind;
use jitgc_core::system::{SsdSystem, SystemConfig};
use jitgc_sim::{run_grid, SimDuration};
use jitgc_workload::{BenchmarkKind, Workload, WorkloadConfig};

fn workload_for(system: &SystemConfig, columns: u64, seed: u64) -> Box<dyn Workload> {
    // The standard sizing from the single-device experiments, scaled by
    // the column count so each member carries a standalone device's load.
    let per_member = system.standard_working_set().unwrap();
    BenchmarkKind::Ycsb.build(
        WorkloadConfig::builder()
            .working_set_pages(per_member * columns)
            .duration(SimDuration::from_secs(30))
            .mean_iops(400.0 * columns as f64)
            .burst_mean(256.0)
            .seed(seed)
            .build(),
    )
}

fn array_report(members: usize, redundancy: Redundancy, gc_mode: GcMode, seed: u64) -> ArrayReport {
    let system = SystemConfig::small_for_tests();
    let columns = match redundancy {
        Redundancy::None => members as u64,
        Redundancy::Mirror => members as u64 / 2,
    };
    let config = ArrayConfig {
        members,
        chunk_pages: 16,
        redundancy,
        gc_mode,
        system: system.clone(),
    };
    config
        .build(
            |cfg| PolicyKind::Jit.build(cfg),
            workload_for(&system, columns, seed),
        )
        .run()
}

/// A 1-member array is the standalone engine: the member's report is
/// byte-identical (as serialized JSON) to `SsdSystem::run()` on the same
/// configuration and workload — the `--array 1` acceptance criterion.
#[test]
fn single_member_array_matches_standalone_byte_for_byte() {
    let system = SystemConfig::small_for_tests();
    let single = SsdSystem::new(
        system.clone(),
        PolicyKind::Jit.build(&system),
        workload_for(&system, 1, 42),
    )
    .run();

    for gc_mode in [GcMode::Unsynchronized, GcMode::Staggered] {
        let array = array_report(1, Redundancy::None, gc_mode, 42);
        assert_eq!(array.member_reports.len(), 1);
        assert_eq!(
            array.member_reports[0].to_json().to_pretty(),
            single.to_json().to_pretty(),
            "{} 1-member array diverged from the standalone engine",
            gc_mode.name()
        );
        // The volume-level view agrees too: every logical request maps to
        // exactly one sub-request, so counts and latencies line up.
        assert_eq!(array.ops, single.ops);
        assert_eq!(array.split_requests, 0);
        assert_eq!(array.latency_p99_us, single.latency_p99_us);
    }
}

/// Aggregate counters are exactly the sums of the member counters, and
/// the derived aggregates (WAF, erase spread) are consistent with them.
#[test]
fn aggregates_equal_member_sums() {
    let report = array_report(4, Redundancy::None, GcMode::Staggered, 7);
    assert_eq!(report.members, 4);
    assert_eq!(report.member_reports.len(), 4);
    assert!(report.ops > 0, "workload produced no requests");

    let erases: u64 = report.member_reports.iter().map(|r| r.nand_erases).sum();
    let stalls: u64 = report
        .member_reports
        .iter()
        .map(|r| r.fgc_request_stalls)
        .sum();
    let bgc: u64 = report.member_reports.iter().map(|r| r.bgc_blocks).sum();
    assert_eq!(report.nand_erases, erases);
    assert_eq!(report.fgc_request_stalls, stalls);
    assert_eq!(report.bgc_blocks, bgc);
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
    let expected_waf = nand as f64 / host as f64;
    let waf = report.waf.expect("WAF defined once host writes happened");
    assert!(
        (waf - expected_waf).abs() < 1e-12,
        "aggregate WAF {waf} != {expected_waf}"
    );

    // Page conservation: the members saw at least one sub-request per
    // logical request, and no more than one per member.
    let member_ops: u64 = report.member_reports.iter().map(|r| r.ops).sum();
    assert!(member_ops >= report.ops);
    assert!(member_ops <= report.ops * report.members as u64);
}

/// The whole array simulation is a pure function of its configuration:
/// running the same grid serially and on worker threads yields identical
/// reports in identical order.
#[test]
fn serial_and_threaded_array_sweeps_agree() {
    let cells = [
        (GcMode::Unsynchronized, 1u64),
        (GcMode::Staggered, 1u64),
        (GcMode::Unsynchronized, 2u64),
        (GcMode::Staggered, 2u64),
    ];
    let run = |&(mode, seed): &(GcMode, u64)| array_report(2, Redundancy::None, mode, seed);
    let serial = run_grid(&cells, 1, run);
    let threaded = run_grid(&cells, 4, run);
    assert_eq!(serial, threaded, "thread count changed the results");
}

/// Staggering shifts *when* members collect, not *what* they write: the
/// aggregate write amplification stays put while tick phases move.
#[test]
fn staggering_changes_phases_not_data_placement() {
    let unsync = array_report(4, Redundancy::None, GcMode::Unsynchronized, 7);
    let staggered = array_report(4, Redundancy::None, GcMode::Staggered, 7);
    assert_eq!(unsync.ops, staggered.ops, "request stream must not change");
    // Same workload split the same way regardless of GC phases.
    assert_eq!(unsync.split_requests, staggered.split_requests);
    for (u, s) in unsync
        .member_reports
        .iter()
        .zip(staggered.member_reports.iter())
    {
        assert_eq!(u.reads, s.reads);
        assert_eq!(u.buffered_writes, s.buffered_writes);
        assert_eq!(u.direct_writes, s.direct_writes);
    }
}

/// Mirrored pairs stay coherent: both replicas of a pair absorb every
/// write, so their host-facing write counters match exactly.
#[test]
fn mirror_replicas_see_identical_writes() {
    let report = array_report(4, Redundancy::Mirror, GcMode::Staggered, 11);
    assert_eq!(report.redundancy, "mirror");
    for pair in report.member_reports.chunks(2) {
        assert_eq!(pair[0].buffered_writes, pair[1].buffered_writes);
        assert_eq!(pair[0].direct_writes, pair[1].direct_writes);
        assert_eq!(pair[0].trims, pair[1].trims);
        assert_eq!(pair[0].host_pages_written, pair[1].host_pages_written);
        // Reads are routed, not duplicated: the pair serves each read once.
        let reads = pair[0].reads + pair[1].reads;
        assert!(reads > 0, "mirrored pair served no reads");
    }
}

/// The JSON report round-trips through the repository parser and carries
/// both the aggregate section and every member section.
#[test]
fn array_report_serializes() {
    let report = array_report(2, Redundancy::None, GcMode::Staggered, 3);
    let json = report.to_json().to_pretty();
    let parsed = jitgc_sim::json::JsonValue::parse(&json).expect("own output parses");
    assert_eq!(parsed.get("members").unwrap().as_u64(), Some(2));
    assert_eq!(
        parsed
            .get("member_reports")
            .unwrap()
            .as_array()
            .unwrap()
            .len(),
        2
    );
    assert_eq!(parsed.get("gc_mode").unwrap().as_str(), Some("staggered"));
}
