//! **Ablation** — the direct-write predictor's CDH percentile.
//!
//! The paper asserts (Sec. 3.2.2) that reserving for 80 % of past windows
//! balances performance and lifetime: "more FGC operations can be avoided
//! with a higher percentage value. However, too high percentage values may
//! negatively affect the overall lifetime of SSDs in a similar fashion as
//! A-BGC." This sweep checks that claim on the two direct-heavy
//! benchmarks: FGC stalls should fall and WAF should rise as the
//! percentile grows.

use jitgc_bench::{format_table, Experiment, PolicyKind};
use jitgc_workload::BenchmarkKind;

fn main() {
    let exp = Experiment::standard();
    let percentiles = [0.6, 0.7, 0.8, 0.9, 0.95];
    let columns: Vec<String> = percentiles.iter().map(|p| format!("{p:.2}")).collect();

    let mut fgc_rows = Vec::new();
    let mut waf_rows = Vec::new();
    for benchmark in [BenchmarkKind::Tiobench, BenchmarkKind::TpcC] {
        let mut fgc = Vec::new();
        let mut waf = Vec::new();
        for &pct in &percentiles {
            // JIT-GC's direct predictor takes its percentile from the
            // system config the cell is built on.
            let mut cell = exp.clone();
            cell.system.cdh_percentile = pct;
            let report = cell.run(PolicyKind::Jit, benchmark);
            fgc.push((report.fgc_request_stalls + report.fgc_flush_stalls) as f64);
            waf.push(report.waf.expect("host writes happened"));
        }
        fgc_rows.push((benchmark.name().to_owned(), fgc));
        waf_rows.push((benchmark.name().to_owned(), waf));
    }

    print!(
        "{}",
        format_table(
            "Ablation: CDH percentile vs FGC stalls (JIT-GC, direct-heavy workloads)",
            &columns,
            &fgc_rows,
            0,
        )
    );
    print!(
        "{}",
        format_table(
            "Ablation: CDH percentile vs WAF (JIT-GC, direct-heavy workloads)",
            &columns,
            &waf_rows,
            3,
        )
    );
}
