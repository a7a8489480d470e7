//! Cross-crate integration: the full workload → page cache → FTL → NAND
//! pipeline under every policy.

use jitgc_repro::core::policy::{GcPolicy, PolicyKind};
use jitgc_repro::core::system::{ClosedLoop, SimReport, SsdSystem, SystemConfig};
use jitgc_repro::sim::SimDuration;
use jitgc_repro::workload::{BenchmarkKind, NullWorkload, WorkloadConfig};

fn run(
    config: &SystemConfig,
    policy: Box<dyn GcPolicy>,
    kind: BenchmarkKind,
    secs: u64,
    seed: u64,
) -> SimReport {
    let wl = WorkloadConfig::builder()
        .working_set_pages(config.standard_working_set().unwrap())
        .duration(SimDuration::from_secs(secs))
        .mean_iops(800.0)
        .burst_mean(256.0)
        .seed(seed)
        .build();
    SsdSystem::new(config.clone(), policy, kind.build(wl)).run()
}

/// No-BGC and the paper's Fig. 7 four.
fn policies(config: &SystemConfig) -> Vec<Box<dyn GcPolicy>> {
    [
        PolicyKind::NoBgc,
        PolicyKind::L_BGC,
        PolicyKind::A_BGC,
        PolicyKind::Adp,
        PolicyKind::Jit,
    ]
    .into_iter()
    .map(|kind| kind.build(config))
    .collect()
}

#[test]
fn every_policy_runs_every_benchmark() {
    let config = SystemConfig::small_for_tests();
    for kind in BenchmarkKind::all() {
        for policy in policies(&config) {
            let name = policy.name();
            let report = run(&config, policy, kind, 10, 3);
            assert!(report.ops > 500, "{name}/{kind}: only {} ops", report.ops);
            assert!(
                report.waf.expect("host writes happened") >= 1.0,
                "{name}/{kind}: waf {}",
                report.waf.expect("host writes happened")
            );
            assert!(
                report.iops > 0.0 && report.iops.is_finite(),
                "{name}/{kind}: iops {}",
                report.iops
            );
            assert_eq!(
                report.ops,
                report.reads + report.buffered_writes + report.direct_writes + report.trims,
                "{name}/{kind}: request counts disagree"
            );
        }
    }
}

#[test]
fn aged_device_runs_and_reports_higher_waf() {
    let mut config = SystemConfig::small_for_tests();
    let fresh = run(
        &config,
        PolicyKind::Jit.build(&config),
        BenchmarkKind::Ycsb,
        20,
        5,
    );
    config.prefill = true;
    let aged = run(
        &config,
        PolicyKind::Jit.build(&config),
        BenchmarkKind::Ycsb,
        20,
        5,
    );
    // An aged (fully-mapped) device has far less slack, so GC must migrate
    // much more — this is the no-TRIM steady state the paper measures on.
    assert!(
        aged.waf.expect("host writes happened") > fresh.waf.expect("host writes happened"),
        "aged WAF {} should exceed fresh WAF {}",
        aged.waf.expect("host writes happened"),
        fresh.waf.expect("host writes happened")
    );
    assert_eq!(aged.ops, fresh.ops, "same workload either way");
}

#[test]
fn cross_policy_runs_share_workload_stream() {
    // All policies must see the *same* request stream: the workload is
    // deterministic in its seed, independent of policy behaviour.
    let config = SystemConfig::small_for_tests();
    let reports: Vec<SimReport> = policies(&config)
        .into_iter()
        .map(|p| run(&config, p, BenchmarkKind::Postmark, 15, 9))
        .collect();
    for r in &reports[1..] {
        assert_eq!(r.ops, reports[0].ops);
        assert_eq!(r.reads, reports[0].reads);
        assert_eq!(r.direct_writes, reports[0].direct_writes);
        assert_eq!(r.trims, reports[0].trims);
    }
    // But the device-side outcomes differ by policy.
    let erases: Vec<u64> = reports.iter().map(|r| r.nand_erases).collect();
    assert!(
        erases.windows(2).any(|w| w[0] != w[1]),
        "policies produced identical erase counts: {erases:?}"
    );
}

#[test]
fn wear_leveling_can_be_enabled_end_to_end() {
    let mut config = SystemConfig::small_for_tests();
    config.wear_leveling = true;
    config.ftl = jitgc_repro::ftl::FtlConfig::builder()
        .user_pages(2_048)
        .op_permille(70)
        .pages_per_block(64)
        .gc_reserve_blocks(2)
        .wear_level_threshold(8)
        .build();
    let report = run(
        &config,
        PolicyKind::A_BGC.build(&config),
        BenchmarkKind::Ycsb,
        30,
        7,
    );
    // The run completes and the wear spread stays within a sane band.
    assert!(report.ops > 1_000);
    assert!(report.wear.max >= report.wear.min);
}

#[test]
fn latency_tail_reflects_fgc() {
    // Without background GC, the latency tail must contain foreground-GC
    // stalls that the mean does not show.
    let config = SystemConfig::small_for_tests();
    let mut cfg = config.clone();
    cfg.prefill = true;
    let report = run(
        &cfg,
        PolicyKind::NoBgc.build(&cfg),
        BenchmarkKind::TpcC,
        30,
        13,
    );
    assert!(report.fgc_request_stalls > 0, "No-BGC must stall");
    assert!(
        report.latency_max_us > report.latency_p50_us * 10,
        "max {}µs should dwarf the median {}µs",
        report.latency_max_us,
        report.latency_p50_us
    );
}

/// `run` goes through `ClosedLoop::run`, which generates a long run's
/// requests on a second thread once the first 2^16 are in; its report is
/// the one a hand-written closed loop over `step` gives for the same
/// stream, byte for byte.
#[test]
fn run_matches_a_stepping_loop_past_the_inline_prefix() {
    let mut config = SystemConfig::default_sim();
    config.queue_depth = 3;
    let workload = || {
        let wl = WorkloadConfig::builder()
            .working_set_pages(config.standard_working_set().unwrap())
            .duration(SimDuration::from_secs(25))
            .mean_iops(3_000.0)
            .seed(11)
            .build();
        BenchmarkKind::Ycsb.build(wl)
    };
    let ran = SsdSystem::new(config.clone(), PolicyKind::Jit.build(&config), workload()).run();
    assert!(
        ran.ops > (1 << 16) + 4 * 1024,
        "{} requests do not reach past the inline prefix",
        ran.ops
    );

    let mut requests = workload();
    let stand_in = NullWorkload::new(
        requests.name(),
        requests.working_set_pages(),
        requests.write_mix(),
    );
    let mut stepped = SsdSystem::new(
        config.clone(),
        PolicyKind::Jit.build(&config),
        Box::new(stand_in),
    );
    stepped.prefill();
    let mut clock = ClosedLoop::new(config.queue_depth);
    while let Some(req) = requests.next_request() {
        let (thread, issue) = clock.issue(req.gap);
        let completion = stepped.step(req, issue);
        clock.complete(thread, completion);
    }
    let stepped = stepped.finalize(clock.end());
    assert_eq!(ran.to_json().to_pretty(), stepped.to_json().to_pretty());
}
