//! Golden-range regression tests: the headline metrics of the standard
//! experiment, pinned to generous bands. Exact values are asserted
//! deterministic elsewhere; these bands catch *semantic* drift (a broken
//! predictor, a mis-wired policy) while tolerating benign re-tuning.

use jitgc_repro::core::policy::{GcPolicy, JitGc, ReservedCapacity};
use jitgc_repro::core::system::{SimReport, SsdSystem, SystemConfig};
use jitgc_repro::sim::SimDuration;
use jitgc_repro::workload::{BenchmarkKind, WorkloadConfig};

fn standard_run(policy: Box<dyn GcPolicy>, kind: BenchmarkKind) -> SimReport {
    let config = {
        let mut c = SystemConfig::default_sim();
        c.prefill = true;
        c
    };
    let wl = WorkloadConfig::builder()
        .working_set_pages(config.standard_working_set().unwrap())
        .duration(SimDuration::from_secs(300))
        .mean_iops(250.0)
        .burst_mean(1_024.0)
        .seed(42)
        .build();
    SsdSystem::new(config, policy, kind.build(wl)).run()
}

fn assert_band(what: &str, value: f64, lo: f64, hi: f64) {
    assert!(
        (lo..=hi).contains(&value),
        "{what} = {value:.3} outside golden band [{lo}, {hi}]"
    );
}

#[test]
fn golden_ycsb_jit() {
    let config = SystemConfig::default_sim();
    let r = standard_run(
        Box::new(JitGc::from_system_config(&config)),
        BenchmarkKind::Ycsb,
    );
    assert_band(
        "YCSB/JIT WAF",
        r.waf.expect("host writes happened"),
        4.0,
        7.0,
    );
    assert_band("YCSB/JIT IOPS", r.iops, 200.0, 280.0);
    assert_band(
        "YCSB/JIT accuracy",
        r.prediction_accuracy_percent.expect("JIT predicts"),
        25.0,
        55.0,
    );
    let sip = r.sip_filtered_fraction.expect("SIP installed") * 100.0;
    assert_band("YCSB/JIT SIP %", sip, 4.0, 25.0);
}

#[test]
fn golden_ycsb_aggressive_waf_band() {
    let config = SystemConfig::default_sim();
    let r = standard_run(
        Box::new(ReservedCapacity::aggressive(config.op_capacity())),
        BenchmarkKind::Ycsb,
    );
    assert_band(
        "YCSB/A-BGC WAF",
        r.waf.expect("host writes happened"),
        10.0,
        22.0,
    );
}

#[test]
fn golden_tpcc_lazy_stalls_band() {
    let config = SystemConfig::default_sim();
    let lazy = standard_run(
        Box::new(ReservedCapacity::lazy(config.op_capacity())),
        BenchmarkKind::TpcC,
    );
    assert_band(
        "TPC-C/L-BGC stall count",
        lazy.fgc_request_stalls as f64,
        100.0,
        800.0,
    );
    assert_band(
        "TPC-C/L-BGC WAF",
        lazy.waf.expect("host writes happened"),
        3.5,
        7.0,
    );
}

#[test]
fn golden_bonnie_waf_near_one() {
    // Bonnie++'s sequential sweeps are the FTL's best case.
    let config = SystemConfig::default_sim();
    let r = standard_run(
        Box::new(ReservedCapacity::lazy(config.op_capacity())),
        BenchmarkKind::Bonnie,
    );
    assert_band(
        "Bonnie/L-BGC WAF",
        r.waf.expect("host writes happened"),
        1.0,
        1.5,
    );
}
