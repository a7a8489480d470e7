//! Cross-validation of the analytical mean-field model (`jitgc-model`)
//! against the full-system simulator, across all six benchmark workloads.
//!
//! The model assumes FIFO-cycle block cleaning in steady state, so the
//! apples-to-apples control is a long (`1800 s`) run with the FIFO victim
//! selector and foreground-only GC (No-BGC): no background policy, no
//! predictor, no SIP — just the mean-field write/clean cycle the model
//! solves in closed form. Under that control the model lands within
//! ±10 % of the simulator on four of the six workloads; the two misses
//! (Bonnie++, Tiobench) are the write-once-data failure mode documented
//! below and in `EXPERIMENTS.md`.
//!
//! Numbers here are deterministic (fixed seed, serial engine), so the
//! bands are generous only to tolerate benign re-tuning of the defaults,
//! not run-to-run noise.

use jitgc_bench::{default_threads, run_grid};
use jitgc_repro::core::policy::{NoBgc, PolicyKind};
use jitgc_repro::core::system::{SsdSystem, SystemConfig, VictimKind};
use jitgc_repro::model::{predict, WorkloadSpec};
use jitgc_repro::sim::SimDuration;
use jitgc_repro::workload::{BenchmarkKind, WorkloadConfig};
use std::sync::OnceLock;

const MEAN_IOPS: f64 = 250.0;
const BURST_MEAN: f64 = 1_024.0;

/// Simulated steady-state WAF for one benchmark under the model's control
/// conditions (No-BGC, FIFO victim, aged device, 1800 s).
fn simulated_waf(system: &SystemConfig, benchmark: BenchmarkKind) -> f64 {
    let wl = WorkloadConfig::builder()
        .working_set_pages(system.standard_working_set().unwrap())
        .duration(SimDuration::from_secs(1_800))
        .mean_iops(MEAN_IOPS)
        .burst_mean(BURST_MEAN)
        .seed(42)
        .build();
    let report = SsdSystem::new(system.clone(), Box::new(NoBgc), benchmark.build(wl)).run();
    report.waf.expect("host writes happened")
}

fn model_waf(system: &SystemConfig, benchmark: BenchmarkKind) -> f64 {
    let spec = WorkloadSpec::for_system(system, MEAN_IOPS, BURST_MEAN);
    let prediction = predict(system, PolicyKind::NoBgc, benchmark, &spec);
    assert!(
        prediction.feasible,
        "{benchmark}: control cell must be feasible"
    );
    prediction.waf
}

fn control_system() -> SystemConfig {
    let mut system = SystemConfig::default_sim();
    system.victim = VictimKind::Fifo;
    system.prefill = true;
    system
}

/// Simulated WAF of one control cell. The six 1 800 s runs are the whole
/// cost of this file, so they are simulated once per test binary — fanned
/// over the sweep runner — and shared by the two tests that read them.
fn control_waf(benchmark: BenchmarkKind) -> f64 {
    static WAFS: OnceLock<Vec<f64>> = OnceLock::new();
    let all = BenchmarkKind::all();
    let wafs = WAFS.get_or_init(|| {
        let system = control_system();
        run_grid(&all, default_threads(), |&b| simulated_waf(&system, b))
    });
    let cell = all.iter().position(|&b| b == benchmark);
    wafs[cell.expect("a benchmark of the control grid")]
}

/// Relative model error, signed: `(model − sim) / sim`.
fn rel_err(model: f64, sim: f64) -> f64 {
    (model - sim) / sim
}

#[test]
fn model_matches_simulator_on_at_least_four_of_six_workloads() {
    let system = control_system();
    let mut within = 0usize;
    let mut rows = String::new();
    for benchmark in BenchmarkKind::all() {
        let m = model_waf(&system, benchmark);
        let s = control_waf(benchmark);
        let e = rel_err(m, s);
        rows.push_str(&format!(
            "{benchmark}: model {m:.3} sim {s:.3} err {:+.1}%\n",
            e * 100.0
        ));
        if e.abs() <= 0.10 {
            within += 1;
        }
    }
    assert!(
        within >= 4,
        "model within ±10% on only {within}/6 workloads:\n{rows}"
    );
}

/// Per-workload bands around the measured operating point. The four
/// validated workloads get tight two-sided bands; the two documented
/// misses get one-sided bands asserting the *direction* and rough
/// magnitude of the known failure mode, so a silent model regression
/// (or accidental fix) still trips a test.
#[test]
fn per_workload_error_bands() {
    let system = control_system();
    let check = |benchmark: BenchmarkKind, lo: f64, hi: f64| {
        let m = model_waf(&system, benchmark);
        let s = control_waf(benchmark);
        let e = rel_err(m, s);
        assert!(
            (lo..=hi).contains(&e),
            "{benchmark}: model {m:.3} vs sim {s:.3}, err {:+.1}% outside [{:+.0}%, {:+.0}%]",
            e * 100.0,
            lo * 100.0,
            hi * 100.0
        );
    };
    // Validated: measured +9.1%, -2.7%, +5.9%, +1.0% (2026-08 defaults).
    check(BenchmarkKind::Ycsb, -0.05, 0.15);
    check(BenchmarkKind::Postmark, -0.10, 0.10);
    check(BenchmarkKind::Filebench, -0.05, 0.15);
    check(BenchmarkKind::TpcC, -0.10, 0.10);
    // Documented misses: both benchmarks carry a large write-once slice
    // (sequential files written and never overwritten). The mean-field
    // model treats overwrites as a stationary process, so write-once
    // pages look immortal-then-dead and the model under-predicts the
    // migration cost FIFO cleaning pays when it wraps into them.
    // Measured -24.7% (Tiobench) and -56.5% (Bonnie++).
    check(BenchmarkKind::Tiobench, -0.40, -0.10);
    check(BenchmarkKind::Bonnie, -0.70, -0.40);
}

/// Under the *greedy* victim selector (the simulator default) the
/// write-once failure mode disappears: greedy never picks an all-valid
/// block, so Bonnie++'s sim WAF collapses to ~1 and matches the model
/// again. This pins the Bonnie++ miss on victim selection, not on the
/// model's utilization accounting.
#[test]
fn bonnie_miss_is_a_victim_selector_artifact() {
    let mut system = control_system();
    system.victim = VictimKind::Greedy;
    let m = model_waf(&system, BenchmarkKind::Bonnie);
    let s = simulated_waf(&system, BenchmarkKind::Bonnie);
    let e = rel_err(m, s);
    assert!(
        e.abs() <= 0.10,
        "Bonnie++/greedy: model {m:.3} vs sim {s:.3}, err {:+.1}% — expected within ±10%",
        e * 100.0
    );
}
