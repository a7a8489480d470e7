//! **Ablation (extension)** — application queue depth.
//!
//! The paper's benchmarks keep many I/Os outstanding; our baseline model
//! is a single closed-loop thread (QD 1), which understates how much a
//! foreground-GC stall costs — one stalled request instead of a stalled
//! *queue*. Sweeping the thread count (with per-thread offered load held
//! constant, so total load scales) exposes the regime structure of the
//! paper's whole mechanism:
//!
//! * moderate concurrency (QD 4) pushes the device toward saturation and
//!   *widens* the A-BGC-over-L-BGC gap — GC left on the critical path can
//!   no longer hide behind think time;
//! * extreme concurrency (QD 16) removes idle time entirely, so *no*
//!   policy can run background GC and the gap collapses — BGC scheduling
//!   only matters when there is idle time to schedule into, which is
//!   exactly the premise of the paper.

use jitgc_bench::{format_table, Experiment, PolicyKind};
use jitgc_workload::BenchmarkKind;

fn main() {
    let depths = [1u32, 4, 16];
    let columns: Vec<String> = depths.iter().map(|d| format!("QD{d}")).collect();

    let mut gap_rows = Vec::new();
    for benchmark in [BenchmarkKind::TpcC, BenchmarkKind::Tiobench] {
        let mut gaps = Vec::new();
        for &depth in &depths {
            let mut exp = Experiment::standard();
            exp.system.queue_depth = depth;
            // Each thread sustains the baseline per-thread rate, so total
            // offered load grows with concurrency — the realistic scaling.
            exp.mean_iops = 250.0 * f64::from(depth);
            let lazy = exp.run(PolicyKind::L_BGC, benchmark);
            let aggressive = exp.run(PolicyKind::A_BGC, benchmark);
            gaps.push((aggressive.iops / lazy.iops - 1.0) * 100.0);
        }
        gap_rows.push((benchmark.name().to_owned(), gaps));
    }
    print!(
        "{}",
        format_table(
            "Ablation: queue depth vs A-BGC-over-L-BGC IOPS advantage (%)",
            &columns,
            &gap_rows,
            1,
        )
    );
}
