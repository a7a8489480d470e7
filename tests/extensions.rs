//! Integration tests for the extensions beyond the paper: manager
//! placement (Fig. 3(a) vs 3(b)), hot/cold stream separation, the strict
//! predictor variant, and wear leveling — all driven end-to-end.

use jitgc_repro::core::policy::JitGc;
use jitgc_repro::core::system::{ManagerPlacement, SimReport, SsdSystem, SystemConfig};
use jitgc_repro::ftl::FtlConfig;
use jitgc_repro::sim::SimDuration;
use jitgc_repro::workload::{BenchmarkKind, WorkloadConfig};

fn run(config: &SystemConfig, kind: BenchmarkKind, secs: u64) -> SimReport {
    let wl = WorkloadConfig::builder()
        .working_set_pages(config.standard_working_set().unwrap())
        .duration(SimDuration::from_secs(secs))
        .mean_iops(250.0)
        .burst_mean(1_024.0)
        .seed(42)
        .build();
    SsdSystem::new(
        config.clone(),
        Box::new(JitGc::from_system_config(config)),
        kind.build(wl),
    )
    .run()
}

/// Fig. 3: the in-device manager (ideal implementation) avoids the SG_IO
/// interface cost the paper's host-side implementation pays every tick, so
/// it can only do better.
#[test]
fn in_device_manager_is_at_least_as_fast() {
    let mut host = SystemConfig::default_sim();
    host.manager_placement = ManagerPlacement::Host;
    let mut device = host.clone();
    device.manager_placement = ManagerPlacement::Device;

    let host_report = run(&host, BenchmarkKind::Ycsb, 60);
    let device_report = run(&device, BenchmarkKind::Ycsb, 60);
    assert!(
        device_report.iops >= host_report.iops * 0.999,
        "in-device manager IOPS {} vs host {}",
        device_report.iops,
        host_report.iops
    );
    // The decisions themselves are identical: same workload served.
    assert_eq!(device_report.ops, host_report.ops);
}

/// Hot/cold stream separation reduces WAF on the pure random-update
/// workload (hot pages no longer pollute cold blocks).
#[test]
fn hot_cold_streams_reduce_waf_for_updates() {
    let plain = SystemConfig::default_sim();
    let mut streamed = plain.clone();
    streamed.ftl = FtlConfig::builder()
        .user_pages(plain.ftl.user_pages())
        .op_permille(plain.ftl.op_permille())
        .pages_per_block(plain.ftl.geometry().pages_per_block())
        .page_size_bytes(plain.ftl.geometry().page_size().as_u64())
        .gc_reserve_blocks(plain.ftl.gc_reserve_blocks())
        .hot_cold_streams(SimDuration::from_secs(5))
        .build();

    let plain_report = run(&plain, BenchmarkKind::TpcC, 120);
    let streamed_report = run(&streamed, BenchmarkKind::TpcC, 120);
    assert!(
        streamed_report.waf.expect("host writes happened")
            < plain_report.waf.expect("host writes happened"),
        "streams WAF {} vs single-stream {}",
        streamed_report.waf.expect("host writes happened"),
        plain_report.waf.expect("host writes happened")
    );
}

/// The strict τ_flush predictor variant runs end-to-end and, as the paper
/// argues, costs foreground GC relative to the relaxed default.
#[test]
fn strict_tau_flush_costs_fgc() {
    let relaxed = SystemConfig::default_sim();
    let mut strict = relaxed.clone();
    strict.strict_tau_flush = true;

    let relaxed_report = run(&relaxed, BenchmarkKind::Ycsb, 120);
    let strict_report = run(&strict, BenchmarkKind::Ycsb, 120);
    let relaxed_fgc = relaxed_report.fgc_request_stalls + relaxed_report.fgc_flush_stalls;
    let strict_fgc = strict_report.fgc_request_stalls + strict_report.fgc_flush_stalls;
    assert!(
        strict_fgc >= relaxed_fgc,
        "strict variant should not reduce FGC: {strict_fgc} vs {relaxed_fgc}"
    );
}

/// Wear leveling keeps the erase-count spread bounded under a workload
/// with a static cold region.
#[test]
fn wear_leveling_bounds_the_spread() {
    let mut off = SystemConfig::default_sim();
    off.ftl = FtlConfig::builder()
        .user_pages(off.ftl.user_pages())
        .op_permille(off.ftl.op_permille())
        .pages_per_block(off.ftl.geometry().pages_per_block())
        .page_size_bytes(off.ftl.geometry().page_size().as_u64())
        .gc_reserve_blocks(off.ftl.gc_reserve_blocks())
        .wear_level_threshold(6)
        .build();
    let mut on = off.clone();
    on.wear_leveling = true;

    let report_off = run(&off, BenchmarkKind::Ycsb, 120);
    let report_on = run(&on, BenchmarkKind::Ycsb, 120);
    // With leveling on, the worst-vs-best spread must not be wider.
    let spread_off = report_off.wear.max - report_off.wear.min;
    let spread_on = report_on.wear.max - report_on.wear.min;
    assert!(
        spread_on <= spread_off + 2,
        "wear leveling widened the spread: {spread_on} vs {spread_off}"
    );
}

/// The TRIM-heavy Postmark workload ends with trimmed pages unmapped and
/// a lower steady-state utilization (extension: TRIM support).
#[test]
fn trim_reduces_live_data() {
    let config = SystemConfig::default_sim();
    let report = run(&config, BenchmarkKind::Postmark, 60);
    assert!(report.trims > 0, "postmark must trim");
    assert!(
        report.host_pages_written > 0 && report.waf.expect("host writes happened") >= 1.0,
        "sane trim-path accounting"
    );
}
