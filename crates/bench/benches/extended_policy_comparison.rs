//! **Extension** — the full policy matrix, beyond the paper's Fig. 7 four:
//! adds No-BGC (worst case), IDLE-GC (the related-work idle-time baseline,
//! paper reference [7]) and the SIP-less JIT-GC ablation, on all six
//! benchmarks, with absolute numbers.

use jitgc_bench::{default_threads, format_table, Experiment, PolicyKind};
use jitgc_workload::BenchmarkKind;

fn main() {
    let exp = Experiment::standard();
    let policies = [
        PolicyKind::NoBgc,
        PolicyKind::L_BGC,
        PolicyKind::A_BGC,
        PolicyKind::Idle,
        PolicyKind::Adp,
        PolicyKind::JitNoSip,
        PolicyKind::Jit,
    ];
    let columns: Vec<String> = policies.iter().map(|p| p.name()).collect();

    let cells: Vec<(PolicyKind, BenchmarkKind)> = BenchmarkKind::all()
        .iter()
        .flat_map(|&b| policies.iter().map(move |&p| (p, b)))
        .collect();
    let all_reports = exp.run_cells(&cells, default_threads());

    let mut iops_rows = Vec::new();
    let mut waf_rows = Vec::new();
    let mut stall_rows = Vec::new();
    for (row, benchmark) in BenchmarkKind::all().iter().enumerate() {
        let reports = &all_reports[row * policies.len()..(row + 1) * policies.len()];
        iops_rows.push((
            benchmark.name().to_owned(),
            reports.iter().map(|r| r.iops).collect(),
        ));
        waf_rows.push((
            benchmark.name().to_owned(),
            reports
                .iter()
                .map(|r| r.waf.expect("host writes happened"))
                .collect(),
        ));
        stall_rows.push((
            benchmark.name().to_owned(),
            reports
                .iter()
                .map(|r| (r.fgc_request_stalls + r.fgc_flush_stalls) as f64)
                .collect(),
        ));
    }

    print!(
        "{}",
        format_table(
            "Extended comparison: IOPS (absolute)",
            &columns,
            &iops_rows,
            0
        )
    );
    print!(
        "{}",
        format_table("Extended comparison: WAF", &columns, &waf_rows, 2)
    );
    print!(
        "{}",
        format_table(
            "Extended comparison: foreground-GC stalls",
            &columns,
            &stall_rows,
            0
        )
    );
}
