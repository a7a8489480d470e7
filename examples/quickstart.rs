//! Quickstart: simulate an SSD running YCSB under JIT-GC and print the
//! headline metrics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use jitgc_repro::core::policy::JitGc;
use jitgc_repro::core::system::{SsdSystem, SystemConfig};
use jitgc_repro::sim::SimDuration;
use jitgc_repro::workload::{BenchmarkKind, WorkloadConfig};

fn main() {
    // 1. Configure the system: a 96 MiB scale-model SSD with 7 % OP, a
    //    Linux-style page cache, and the default NAND timing.
    let system_config = SystemConfig::default_sim();

    // 2. Configure a workload: YCSB over most of the logical space.
    let workload_config = WorkloadConfig::builder()
        .working_set_pages(
            system_config
                .standard_working_set()
                .expect("over-provisioning is below 200 %"),
        )
        .duration(SimDuration::from_secs(120))
        .mean_iops(250.0)
        .burst_mean(1_024.0)
        .seed(42)
        .build();
    let workload = BenchmarkKind::Ycsb.build(workload_config);

    // 3. Pick the GC policy — here the paper's JIT-GC.
    let policy = JitGc::from_system_config(&system_config);

    // 4. Run and report.
    let mut system = SsdSystem::new(system_config, Box::new(policy), workload);
    let report = system.run();

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
