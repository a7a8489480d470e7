//! Compare the four BGC policies of the paper's Fig. 7 on one workload,
//! showing the performance/lifetime tradeoff JIT-GC resolves.
//!
//! ```sh
//! cargo run --release --example policy_comparison [ycsb|postmark|filebench|bonnie|tiobench|tpcc]
//! ```

use jitgc_repro::core::policy::{AdpGc, GcPolicy, JitGc, ReservedCapacity};
use jitgc_repro::core::system::{SsdSystem, SystemConfig};
use jitgc_repro::sim::SimDuration;
use jitgc_repro::workload::{BenchmarkKind, WorkloadConfig};

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
    let system_config = SystemConfig::default_sim();
    let (bw, gc_bw) = system_config.default_bandwidths();

    let policies: Vec<Box<dyn GcPolicy>> = vec![
        Box::new(ReservedCapacity::lazy(system_config.op_capacity())),
        Box::new(ReservedCapacity::aggressive(system_config.op_capacity())),
        Box::new(AdpGc::new(
            system_config.flusher_period,
            system_config.tau_expire(),
            system_config.cdh_percentile,
            system_config.cdh_bin_bytes,
            bw,
            gc_bw,
        )),
        Box::new(JitGc::from_system_config(&system_config)),
    ];

    println!("benchmark: {benchmark}");
    println!(
        "{:<10}{:>10}{:>10}{:>12}{:>12}{:>12}",
        "policy", "IOPS", "WAF", "FGC stalls", "BGC blocks", "p99 (µs)"
    );
    for policy in policies {
        let workload_config = WorkloadConfig::builder()
            .working_set_pages(
                system_config
                    .standard_working_set()
                    .expect("over-provisioning is below 200 %"),
            )
            .duration(SimDuration::from_secs(300))
            .mean_iops(250.0)
            .burst_mean(1_024.0)
            .seed(42)
            .build();
        let workload = benchmark.build(workload_config);
        let report = SsdSystem::new(system_config.clone(), policy, workload).run();
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
