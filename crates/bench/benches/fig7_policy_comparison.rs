//! **Paper Fig. 7** — normalized IOPS (a) and WAF (b) of L-BGC, A-BGC,
//! ADP-GC, and JIT-GC across all six benchmarks, normalized to A-BGC.
//!
//! Expected shape (the paper's headline result): JIT-GC's IOPS is close to
//! A-BGC's — well above L-BGC's — for the buffered-heavy workloads (YCSB,
//! Postmark, Filebench, Bonnie++) and somewhat below A-BGC for the
//! direct-heavy ones (Tiobench, TPC-C); JIT-GC's WAF stays near L-BGC's,
//! far below A-BGC's; ADP-GC sits between, worse than JIT-GC on both
//! metrics for cache-predictable workloads.

use jitgc_bench::{default_threads, format_table, Experiment, PolicyKind};
use jitgc_workload::BenchmarkKind;

fn main() {
    let exp = Experiment::standard();
    let policies = [
        PolicyKind::L_BGC,
        PolicyKind::A_BGC,
        PolicyKind::Adp,
        PolicyKind::Jit,
    ];
    let columns: Vec<String> = policies.iter().map(|p| p.name()).collect();

    // The whole policy × benchmark grid runs as one parallel sweep;
    // results come back in cell order, so the tables are identical to a
    // serial run.
    let cells: Vec<(PolicyKind, BenchmarkKind)> = BenchmarkKind::all()
        .iter()
        .flat_map(|&b| policies.iter().map(move |&p| (p, b)))
        .collect();
    let reports = exp.run_cells(&cells, default_threads());

    let mut iops_rows = Vec::new();
    let mut waf_rows = Vec::new();
    for (row, benchmark) in BenchmarkKind::all().iter().enumerate() {
        let reports = &reports[row * policies.len()..(row + 1) * policies.len()];
        let baseline = &reports[1]; // A-BGC
        iops_rows.push((
            benchmark.name().to_owned(),
            reports
                .iter()
                .map(|r| r.normalized_iops(baseline))
                .collect(),
        ));
        waf_rows.push((
            benchmark.name().to_owned(),
            reports.iter().map(|r| r.normalized_waf(baseline)).collect(),
        ));
    }

    print!(
        "{}",
        format_table(
            "Fig. 7(a): normalized IOPS by policy (baseline: A-BGC)",
            &columns,
            &iops_rows,
            3,
        )
    );
    print!(
        "{}",
        format_table(
            "Fig. 7(b): normalized WAF by policy (baseline: A-BGC)",
            &columns,
            &waf_rows,
            3,
        )
    );
}
