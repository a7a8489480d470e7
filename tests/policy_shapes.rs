//! The paper's qualitative results, asserted as integration tests at a
//! reduced scale: these are the shapes DESIGN.md commits to reproducing.
//! The full-scale numbers are the tables `cargo bench -p jitgc-bench
//! --bench paper` writes into EXPERIMENTS.md, and each claim the prose
//! there calls held names its test here; each is checked with
//! comfortable margins so the suite stays fast and stable.

use jitgc_bench::{Cell, Experiment, Load, Report};
use jitgc_repro::array::{ArrayConfig, GcMode, Redundancy};
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

/// The `extended_stalls` table's verdict: on every benchmark No-BGC
/// stalls on foreground GC more often than any policy that collects in
/// the background, and L-BGC's small reserve stalls more often than
/// A-BGC's large one. Which policy stalls least is not pinned: at 120 s
/// IDLE-GC and ADP-GC stall less than A-BGC on Filebench, and JIT-GC
/// without SIP does on Tiobench. 42 runs of 120 s.
#[test]
fn extended_stalls_shape_no_bgc_most_and_lazy_above_aggressive() {
    let config = aged_config();
    for kind in BenchmarkKind::all() {
        let stalls = PolicyKind::STANDARD.map(|policy| {
            let r = run(&config, policy, kind);
            (policy.name(), r.fgc_request_stalls + r.fgc_flush_stalls)
        });
        // `STANDARD` opens with No-BGC, L-BGC and A-BGC.
        let [(_, none), (_, lazy), (_, aggressive), ..] = stalls;
        assert!(
            stalls[1..].iter().all(|&(_, n)| n < none),
            "{}: No-BGC should stall most, {stalls:?}",
            kind.name()
        );
        assert!(
            lazy > aggressive,
            "{}: L-BGC should stall more than A-BGC, {stalls:?}",
            kind.name()
        );
    }
}

/// One cell of the `paper` tables cut to the tests' 120 s: `load` under
/// `policy` on the standard experiment.
fn short_cell(policy: PolicyKind, load: Load) -> Report {
    let mut exp = Experiment::standard();
    exp.duration = SimDuration::from_secs(120);
    Cell { exp, policy, load }.run()
}

/// The `sweep_buffered_waf` and `sweep_buffered_accuracy` tables' verdict,
/// the paper's thesis on Table 1's axis. With 95 % of the synthetic
/// workload's writes buffered, JIT-GC sees the demand in the page cache:
/// its WAF is below 0.9× ADP-GC's and it predicts more accurately. With
/// none buffered the cache shows it nothing ADP-GC cannot see, and the
/// two WAFs are within 2 %. Four 120 s runs.
#[test]
fn sweep_shape_jit_edge_over_adp_grows_with_buffered_share() {
    let pair = |buffered: f64| {
        [PolicyKind::Jit, PolicyKind::Adp].map(|policy| {
            let report = short_cell(policy, Load::Synthetic(buffered));
            let r = report.device();
            (
                r.waf.expect("host writes happened"),
                r.prediction_accuracy_percent.expect("it predicts"),
            )
        })
    };
    let [(jit_waf, jit_acc), (adp_waf, adp_acc)] = pair(0.95);
    assert!(
        jit_waf < adp_waf * 0.9,
        "buffered 0.95: JIT-GC WAF {jit_waf:.3} vs ADP-GC {adp_waf:.3}"
    );
    assert!(
        jit_acc > adp_acc,
        "buffered 0.95: JIT-GC accuracy {jit_acc:.1}% vs ADP-GC {adp_acc:.1}%"
    );
    let [(jit_waf, _), (adp_waf, _)] = pair(0.0);
    assert!(
        (jit_waf / adp_waf - 1.0).abs() < 0.02,
        "buffered 0.0: JIT-GC WAF {jit_waf:.3} vs ADP-GC {adp_waf:.3}"
    );
}

/// The `array_waf` table's verdict: Fig. 7(b)'s WAF claim carries over to
/// the 4-member RAID-0 array with staggered collection. On YCSB, Postmark
/// and Filebench, JIT-GC's array WAF is at most 1.05× L-BGC's and below
/// ADP-GC's. Nine 120 s array runs, the table's own cells.
#[test]
fn array_waf_shape_jit_near_lazy_below_adp() {
    for benchmark in [
        BenchmarkKind::Ycsb,
        BenchmarkKind::Postmark,
        BenchmarkKind::Filebench,
    ] {
        let load = Load::Array {
            benchmark,
            members: 4,
            chunk_pages: 16,
            redundancy: Redundancy::None,
            gc_mode: GcMode::Staggered,
        };
        let [jit, lazy, adp] = [PolicyKind::Jit, PolicyKind::L_BGC, PolicyKind::Adp].map(|p| {
            short_cell(p, load)
                .array()
                .waf
                .expect("host writes happened")
        });
        assert!(
            jit <= lazy * 1.05 && jit < adp,
            "{}: array WAF JIT-GC {jit:.3}, L-BGC {lazy:.3}, ADP-GC {adp:.3}",
            benchmark.name()
        );
    }
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

/// Lifetime in host bytes and FGC request stalls of A-BGC, L-BGC and
/// JIT-GC, in that order: three rows of the `lifetime` table (endurance
/// 60, 2 000 IOPS, seed 7). Every such run goes read-only before 300 s,
/// and the request stream's prefix does not depend on the horizon, so
/// these 300 s runs report the table's 2 400 s numbers.
fn wear_out(kind: BenchmarkKind) -> [(f64, u64); 3] {
    let mut config = aged_config();
    config.ftl = config.ftl.to_builder().endurance_limit(60).build();
    [PolicyKind::A_BGC, PolicyKind::L_BGC, PolicyKind::Jit].map(|policy| {
        let wl = WorkloadConfig::builder()
            .working_set_pages(config.standard_working_set().unwrap())
            .duration(SimDuration::from_secs(300))
            .mean_iops(2_000.0)
            .burst_mean(1_024.0)
            .seed(7)
            .build();
        let report = SsdSystem::new(config.clone(), policy.build(&config), kind.build(wl)).run();
        let worn = report.degraded.expect("the device wears out");
        assert!(worn.read_only, "{} on {}", policy.name(), kind.name());
        let bytes = worn
            .lifetime_host_bytes
            .expect("read-only devices have one");
        (bytes as f64, report.fgc_request_stalls)
    })
}

/// Fig. 9, the `lifetime` table's verdicts. On YCSB, JIT-GC accepts at
/// least L-BGC's host data with fewer FGC stalls, and A-BGC's early
/// erases cost it over a tenth of the device's life. On Filebench and
/// Tiobench JIT-GC outlives both (and on Tiobench stalls least). On
/// Postmark it sits between the two on both axes. Twelve 300 s runs,
/// ~4 s in the test profile.
#[test]
fn fig9_shape_jit_lives_as_long_as_lazy_with_fewer_stalls() {
    let [(a, _), (l, l_stalls), (j, j_stalls)] = wear_out(BenchmarkKind::Ycsb);
    assert!(
        j >= l && j_stalls < l_stalls && a < l * 0.9,
        "YCSB: lifetimes A {a} L {l} J {j}, stalls L {l_stalls} J {j_stalls}"
    );
    for kind in [BenchmarkKind::Filebench, BenchmarkKind::Tiobench] {
        let [(a, a_stalls), (l, l_stalls), (j, j_stalls)] = wear_out(kind);
        assert!(
            j > l && j > a,
            "{}: lifetimes A {a} L {l} J {j}",
            kind.name()
        );
        let fewest = j_stalls < l_stalls && j_stalls < a_stalls;
        assert!(
            kind != BenchmarkKind::Tiobench || fewest,
            "Tiobench stalls A {a_stalls} L {l_stalls} J {j_stalls}"
        );
    }
    let [(a, a_stalls), (l, l_stalls), (j, j_stalls)] = wear_out(BenchmarkKind::Postmark);
    assert!(a < j && j < l, "Postmark: lifetimes A {a} J {j} L {l}");
    assert!(
        a_stalls < j_stalls && j_stalls < l_stalls,
        "Postmark: stalls A {a_stalls} J {j_stalls} L {l_stalls}"
    );
}

/// The `array_stagger` table's verdict: on a 4-member RAID-0 array at 500
/// IOPS per member and 8 closed-loop threads, staggered collection
/// lowers the volume's p99 on Tiobench and Postmark. Four 120 s array
/// runs, ~1.3 s in the test profile.
#[test]
fn array_stagger_shape_lowers_p99_under_load() {
    let mut config = aged_config();
    config.queue_depth = 8;
    for kind in [BenchmarkKind::Tiobench, BenchmarkKind::Postmark] {
        let [unsync, staggered] = [GcMode::Unsynchronized, GcMode::Staggered].map(|gc_mode| {
            let wl = WorkloadConfig::builder()
                .working_set_pages(config.standard_working_set().unwrap() * 4)
                .duration(SimDuration::from_secs(120))
                .mean_iops(500.0 * 4.0)
                .burst_mean(1_024.0)
                .seed(42)
                .build();
            let system = config.clone();
            let array = ArrayConfig {
                members: 4,
                chunk_pages: 16,
                redundancy: Redundancy::None,
                gc_mode,
                system,
            };
            array
                .build(|cfg| PolicyKind::Jit.build(cfg), kind.build(wl))
                .run()
                .latency_p99_us
        });
        assert!(
            staggered < unsync,
            "{}: p99 {staggered} vs {unsync} us",
            kind.name()
        );
    }
}
