//! Quickstart: simulate an SSD running YCSB under JIT-GC and print the
//! headline metrics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use jitgc_bench::Experiment;
use jitgc_repro::core::policy::PolicyKind;
use jitgc_repro::sim::SimDuration;
use jitgc_repro::workload::BenchmarkKind;

fn main() {
    // 1. The paper's standard experiment: a 96 MiB scale-model SSD with
    //    7 % OP, a Linux-style page cache and the default NAND timing,
    //    bursty arrivals over most of the logical space — for 120 s.
    let exp = Experiment {
        duration: SimDuration::from_secs(120),
        ..Experiment::standard()
    };

    // 2. Run YCSB under the paper's JIT-GC and report.
    let report = exp.run(PolicyKind::Jit, BenchmarkKind::Ycsb);

    println!("policy        : {}", report.policy);
    println!("workload      : {}", report.workload);
    println!("simulated time: {:.1} s", report.duration_secs);
    println!("requests      : {}", report.ops);
    println!("IOPS          : {:.0}", report.iops);
    println!(
        "WAF           : {:.3}",
        report.waf.expect("host writes happened")
    );
    println!("NAND erases   : {}", report.nand_erases);
    println!(
        "FGC stalls    : {} (requests) + {} (flush path)",
        report.fgc_request_stalls, report.fgc_flush_stalls
    );
    println!("BGC blocks    : {}", report.bgc_blocks);
    println!(
        "latency       : mean {} µs, p99 {} µs, max {} µs",
        report.latency_mean_us, report.latency_p99_us, report.latency_max_us
    );
    if let Some(acc) = report.prediction_accuracy_percent {
        println!("prediction    : {acc:.1} % accurate over the write-back horizon");
    }
    if let Some(sip) = report.sip_filtered_fraction {
        println!(
            "SIP filtering : redirected {:.1} % of victim selections",
            sip * 100.0
        );
    }
}
