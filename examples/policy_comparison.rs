//! Compare the four BGC policies of the paper's Fig. 7 on one workload,
//! showing the performance/lifetime tradeoff JIT-GC resolves.
//!
//! ```sh
//! cargo run --release --example policy_comparison [ycsb|postmark|filebench|bonnie|tiobench|tpcc]
//! ```

use jitgc_bench::Experiment;
use jitgc_repro::core::policy::PolicyKind;
use jitgc_repro::sim::SimDuration;
use jitgc_repro::workload::BenchmarkKind;

fn benchmark_from_arg() -> BenchmarkKind {
    match std::env::args().nth(1).as_deref() {
        Some("postmark") => BenchmarkKind::Postmark,
        Some("filebench") => BenchmarkKind::Filebench,
        Some("bonnie") => BenchmarkKind::Bonnie,
        Some("tiobench") => BenchmarkKind::Tiobench,
        Some("tpcc") => BenchmarkKind::TpcC,
        _ => BenchmarkKind::Ycsb,
    }
}

fn main() {
    let benchmark = benchmark_from_arg();
    // The paper's standard cell (aged default device, bursty 250 IOPS),
    // 300 simulated seconds.
    let exp = Experiment {
        duration: SimDuration::from_secs(300),
        ..Experiment::standard()
    };
    let policies = [
        PolicyKind::L_BGC,
        PolicyKind::A_BGC,
        PolicyKind::Adp,
        PolicyKind::Jit,
    ];

    println!("benchmark: {benchmark}");
    println!(
        "{:<10}{:>10}{:>10}{:>12}{:>12}{:>12}",
        "policy", "IOPS", "WAF", "FGC stalls", "BGC blocks", "p99 (µs)"
    );
    for policy in policies {
        let report = exp.run(policy, benchmark);
        println!(
            "{:<10}{:>10.0}{:>10.3}{:>12}{:>12}{:>12}",
            report.policy,
            report.iops,
            report.waf.expect("host writes happened"),
            report.fgc_request_stalls + report.fgc_flush_stalls,
            report.bgc_blocks,
            report.latency_p99_us,
        );
    }
    println!(
        "\nExpected shape (paper Fig. 7): JIT-GC matches A-BGC's IOPS while \
         keeping WAF near L-BGC's."
    );
}
