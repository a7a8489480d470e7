//! The paper's qualitative results, asserted as integration tests at a
//! reduced scale: these are the shapes DESIGN.md commits to reproducing.
//! The full-scale numbers are the tables `cargo bench -p jitgc-bench
//! --bench paper` writes into EXPERIMENTS.md, and each claim the prose
//! there calls held names its test here; each is checked with
//! comfortable margins so the suite stays fast and stable.

use jitgc_repro::core::policy::PolicyKind;
use jitgc_repro::core::system::{SimReport, SsdSystem, SystemConfig, VictimKind};
use jitgc_repro::sim::SimDuration;
use jitgc_repro::workload::{measure_write_mix, BenchmarkKind, WorkloadConfig};

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

/// Table 1: each generator delivers the paper's buffered share through
/// the whole request pipeline, at the standard experiment's workload
/// (600 s at 250 IOPS in bursts of 1 024).
#[test]
fn table1_shape_write_mix_matches_the_paper() {
    let config = aged_config();
    let wl = WorkloadConfig::builder()
        .working_set_pages(config.standard_working_set().unwrap())
        .duration(SimDuration::from_secs(600))
        .mean_iops(250.0)
        .burst_mean(1_024.0)
        .seed(42)
        .build();
    for kind in BenchmarkKind::all() {
        let mut workload = kind.build(wl);
        let measured = measure_write_mix(workload.as_mut(), u64::MAX)
            .buffered_fraction()
            .expect("every benchmark writes");
        let paper = kind.write_mix().buffered_fraction;
        assert!(
            (measured - paper).abs() < 0.005,
            "{kind}: buffered share {measured:.4} vs the paper's {paper:.4}"
        );
    }
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

/// Sec. 3.2.2: a higher CDH percentile reserves for more of the past
/// direct-write windows, so it avoids foreground GC and pays in WAF.
#[test]
fn cdh_percentile_trades_stalls_for_waf() {
    let at = |percentile: f64| {
        let mut config = aged_config();
        config.cdh_percentile = percentile;
        run(&config, PolicyKind::Jit, BenchmarkKind::TpcC)
    };
    let (low, high) = (at(0.6), at(0.95));
    let stalls = |r: &SimReport| r.fgc_request_stalls + r.fgc_flush_stalls;
    assert!(
        stalls(&high) < stalls(&low),
        "percentile 0.95 stalls {} vs 0.6's {}",
        stalls(&high),
        stalls(&low)
    );
    assert!(
        high.waf.expect("host writes happened") > low.waf.expect("host writes happened"),
        "percentile 0.95 WAF {:?} vs 0.6's {:?}",
        high.waf,
        low.waf
    );
}

/// Victim selection quality matters independently of invocation timing:
/// greedy, then FIFO, then random, by WAF under JIT-GC.
#[test]
fn victim_selection_quality_orders_waf() {
    let waf = |victim: VictimKind| {
        let mut config = aged_config();
        config.victim = victim;
        run(&config, PolicyKind::Jit, BenchmarkKind::TpcC)
            .waf
            .expect("host writes happened")
    };
    let (greedy, fifo, random) = (
        waf(VictimKind::Greedy),
        waf(VictimKind::Fifo),
        waf(VictimKind::Random(7)),
    );
    assert!(
        greedy < fifo && fifo < random,
        "WAF greedy {greedy:.3}, FIFO {fifo:.3}, random {random:.3}"
    );
}

/// Predicting when GC is cheap (idle time) without predicting how much
/// space is needed reserves far too much: IDLE-GC pays more than twice
/// JIT-GC's WAF on the update-heavy buffered workload.
#[test]
fn idle_gc_pays_for_not_predicting_demand() {
    let config = aged_config();
    let idle = run(&config, PolicyKind::Idle, BenchmarkKind::Ycsb);
    let jit = run(&config, PolicyKind::Jit, BenchmarkKind::Ycsb);
    let (idle, jit) = (
        idle.waf.expect("host writes happened"),
        jit.waf.expect("host writes happened"),
    );
    assert!(idle > 2.0 * jit, "IDLE-GC WAF {idle:.3} vs JIT-GC {jit:.3}");
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
