//! The paper's qualitative results, asserted as integration tests at a
//! reduced scale: these are the shapes DESIGN.md commits to reproducing.
//! The full-scale numbers live in the bench targets; here each claim is
//! checked with comfortable margins so the suite stays fast and stable.

use jitgc_repro::core::policy::PolicyKind;
use jitgc_repro::core::system::{SimReport, SsdSystem, SystemConfig};
use jitgc_repro::sim::SimDuration;
use jitgc_repro::workload::{BenchmarkKind, WorkloadConfig};

fn aged_config() -> SystemConfig {
    let mut config = SystemConfig::default_sim();
    config.prefill = true;
    config
}

fn run(config: &SystemConfig, policy: PolicyKind, kind: BenchmarkKind) -> SimReport {
    let wl = WorkloadConfig::builder()
        .working_set_pages(config.standard_working_set().unwrap())
        .duration(SimDuration::from_secs(120))
        .mean_iops(250.0)
        .burst_mean(1_024.0)
        .seed(42)
        .build();
    SsdSystem::new(config.clone(), policy.build(config), kind.build(wl)).run()
}

/// Fig. 2's tradeoff: a larger reserve buys fewer foreground stalls at the
/// price of more write amplification.
#[test]
fn fig2_shape_reserve_trades_stalls_for_waf() {
    let config = aged_config();
    let lazy = run(&config, PolicyKind::L_BGC, BenchmarkKind::TpcC);
    let aggressive = run(&config, PolicyKind::A_BGC, BenchmarkKind::TpcC);
    assert!(
        lazy.fgc_request_stalls > aggressive.fgc_request_stalls * 2,
        "lazy {} vs aggressive {} stalls",
        lazy.fgc_request_stalls,
        aggressive.fgc_request_stalls
    );
    assert!(
        aggressive.waf.expect("host writes happened")
            > lazy.waf.expect("host writes happened") * 1.3,
        "aggressive WAF {} vs lazy {}",
        aggressive.waf.expect("host writes happened"),
        lazy.waf.expect("host writes happened")
    );
    assert!(
        aggressive.iops >= lazy.iops,
        "aggressive IOPS {} vs lazy {}",
        aggressive.iops,
        lazy.iops
    );
}

/// Fig. 7(a)'s headline: JIT-GC's IOPS is close to A-BGC's.
#[test]
fn fig7_shape_jit_iops_near_aggressive() {
    let config = aged_config();
    let jit = run(&config, PolicyKind::Jit, BenchmarkKind::Ycsb);
    let aggressive = run(&config, PolicyKind::A_BGC, BenchmarkKind::Ycsb);
    assert!(
        jit.iops > aggressive.iops * 0.95,
        "JIT {} vs A-BGC {} IOPS",
        jit.iops,
        aggressive.iops
    );
}

/// Fig. 7(b)'s headline: JIT-GC's WAF stays near L-BGC's, far below
/// A-BGC's, for the update-heavy cache-predictable workload.
#[test]
fn fig7_shape_jit_waf_near_lazy() {
    let config = aged_config();
    let jit = run(&config, PolicyKind::Jit, BenchmarkKind::Ycsb);
    let lazy = run(&config, PolicyKind::L_BGC, BenchmarkKind::Ycsb);
    let aggressive = run(&config, PolicyKind::A_BGC, BenchmarkKind::Ycsb);
    assert!(
        jit.waf.expect("host writes happened") < lazy.waf.expect("host writes happened") * 1.35,
        "JIT WAF {} should sit near L-BGC's {}",
        jit.waf.expect("host writes happened"),
        lazy.waf.expect("host writes happened")
    );
    assert!(
        jit.waf.expect("host writes happened")
            < aggressive.waf.expect("host writes happened") * 0.6,
        "JIT WAF {} should sit far below A-BGC's {}",
        jit.waf.expect("host writes happened"),
        aggressive.waf.expect("host writes happened")
    );
}

/// JIT-GC beats the cache-oblivious ADP-GC on WAF for buffered-heavy
/// workloads (the value of seeing inside the page cache).
#[test]
fn jit_beats_adp_on_waf_for_buffered_workloads() {
    let config = aged_config();
    let jit = run(&config, PolicyKind::Jit, BenchmarkKind::Ycsb);
    let adp_report = run(&config, PolicyKind::Adp, BenchmarkKind::Ycsb);
    assert!(
        jit.waf.expect("host writes happened") < adp_report.waf.expect("host writes happened"),
        "JIT WAF {} vs ADP WAF {}",
        jit.waf.expect("host writes happened"),
        adp_report.waf.expect("host writes happened")
    );
}

/// Table 2's ordering: JIT-GC's predictor is at least as accurate as
/// ADP-GC's, clearly better when buffered writes dominate.
#[test]
fn table2_shape_jit_predicts_better_for_buffered() {
    let config = aged_config();
    let jit = run(&config, PolicyKind::Jit, BenchmarkKind::Ycsb);
    let adp_report = run(&config, PolicyKind::Adp, BenchmarkKind::Ycsb);
    let jit_acc = jit.prediction_accuracy_percent.expect("JIT predicts");
    let adp_acc = adp_report
        .prediction_accuracy_percent
        .expect("ADP predicts");
    assert!(
        jit_acc > adp_acc,
        "JIT accuracy {jit_acc:.1}% vs ADP {adp_acc:.1}%"
    );
}

/// Table 3's ordering: SIP filtering matters for the update-heavy
/// buffered workload and vanishes for the all-direct one.
#[test]
fn table3_shape_sip_rate_follows_buffered_share() {
    let config = aged_config();
    let ycsb = run(&config, PolicyKind::Jit, BenchmarkKind::Ycsb);
    let tpcc = run(&config, PolicyKind::Jit, BenchmarkKind::TpcC);
    let ycsb_sip = ycsb.sip_filtered_fraction.unwrap_or(0.0);
    let tpcc_sip = tpcc.sip_filtered_fraction.unwrap_or(0.0);
    assert!(
        ycsb_sip > 0.02,
        "YCSB should filter some victims, got {ycsb_sip}"
    );
    assert!(
        tpcc_sip < ycsb_sip,
        "TPC-C filtering {tpcc_sip} should be below YCSB's {ycsb_sip}"
    );
}

/// Determinism at the experiment level: identical configuration twice
/// yields bit-identical reports.
#[test]
fn experiments_are_reproducible() {
    let config = aged_config();
    let a = run(&config, PolicyKind::Jit, BenchmarkKind::Tiobench);
    let b = run(&config, PolicyKind::Jit, BenchmarkKind::Tiobench);
    assert_eq!(a.ops, b.ops);
    assert_eq!(
        a.waf.expect("host writes happened"),
        b.waf.expect("host writes happened")
    );
    assert_eq!(a.nand_erases, b.nand_erases);
    assert_eq!(a.latency_p999_us, b.latency_p999_us);
    assert_eq!(a.prediction_accuracy_percent, b.prediction_accuracy_percent);
}
