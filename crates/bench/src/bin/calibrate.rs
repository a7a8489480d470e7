//! Quick calibration probe: prints absolute IOPS/WAF/FGC numbers for a
//! few policy × benchmark cells so simulation parameters can be tuned
//! until the paper's qualitative shapes appear.
//!
//! Usage: `calibrate [iops] [burst] [ws_num/16] [secs]`

use jitgc_bench::{Experiment, PolicyKind};
use jitgc_core::system::SsdSystem;
use jitgc_sim::SimDuration;
use jitgc_workload::{BenchmarkKind, WorkloadConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let iops: f64 = args.get(1).map_or(2_500.0, |s| s.parse().unwrap());
    let burst: f64 = args.get(2).map_or(2_048.0, |s| s.parse().unwrap());
    let ws_16th: u64 = args.get(3).map_or(14, |s| s.parse().unwrap());
    let secs: u64 = args.get(4).map_or(120, |s| s.parse().unwrap());

    let mut exp = Experiment::quick();
    exp.mean_iops = iops;
    exp.burst_mean = burst;
    exp.duration = SimDuration::from_secs(secs);
    let system = exp.system.clone();
    let ws = if ws_16th >= 16 {
        system
            .standard_working_set()
            .expect("over-provisioning is below 200 %")
    } else {
        system.ftl.user_pages() * ws_16th / 16
    };
    println!(
        "iops={iops} burst={burst} ws={ws} secs={secs} op_pages={}",
        system.ftl.op_pages()
    );

    let policies = [
        PolicyKind::NoBgc,
        PolicyKind::ReservedPermille(500),
        PolicyKind::ReservedPermille(1_000),
        PolicyKind::ReservedPermille(1_500),
        PolicyKind::Adp,
        PolicyKind::Jit,
    ];
    for benchmark in BenchmarkKind::all() {
        println!("\n--- {benchmark} ---");
        println!(
            "{:<16}{:>10}{:>8}{:>10}{:>10}{:>8}{:>10}{:>10}{:>10}{:>8}",
            "policy",
            "iops",
            "waf",
            "fgc_req",
            "fgc_fl",
            "thr",
            "bgc_blk",
            "p99_ms",
            "acc%",
            "sip%"
        );
        for policy in policies {
            let wl_cfg = WorkloadConfig::builder()
                .working_set_pages(ws)
                .duration(exp.duration)
                .mean_iops(exp.mean_iops)
                .burst_mean(exp.burst_mean)
                .seed(exp.seed)
                .build();
            let workload = benchmark.build(wl_cfg);
            let p = policy.build(&system);
            let r = SsdSystem::new(system.clone(), p, workload).run();
            println!(
                "{:<16}{:>10.0}{:>8.3}{:>10}{:>10}{:>8}{:>10}{:>10.2}{:>10.1}{:>8.2}",
                policy.name(),
                r.iops,
                r.waf.unwrap_or(f64::NAN),
                r.fgc_request_stalls,
                r.fgc_flush_stalls,
                r.throttled_requests,
                r.bgc_blocks,
                r.latency_p99_us as f64 / 1000.0,
                r.prediction_accuracy_percent.unwrap_or(f64::NAN),
                r.sip_filtered_fraction.map_or(f64::NAN, |f| f * 100.0),
            );
        }
    }
}
