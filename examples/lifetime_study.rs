//! Lifetime study: translate WAF into device endurance.
//!
//! The paper uses WAF as its lifetime proxy; this example goes one step
//! further and reports the wear picture directly — total erases, the
//! worst-worn block, and the projected time to the 3 000-cycle endurance
//! limit of 20 nm MLC flash — for a lazy, an aggressive, and the
//! just-in-time policy.
//!
//! ```sh
//! cargo run --release --example lifetime_study
//! ```

use jitgc_repro::core::policy::PolicyKind;
use jitgc_repro::core::system::{SsdSystem, SystemConfig};
use jitgc_repro::sim::SimDuration;
use jitgc_repro::workload::{BenchmarkKind, WorkloadConfig};

/// 20 nm MLC endurance in program/erase cycles.
const ENDURANCE_CYCLES: f64 = 3_000.0;

fn main() {
    let system_config = SystemConfig::default_sim();
    println!(
        "{:<10}{:>8}{:>12}{:>12}{:>12}{:>14}{:>20}",
        "policy", "WAF", "erases", "max wear", "wear σ", "IOPS", "projected life (h)"
    );
    for kind in [PolicyKind::L_BGC, PolicyKind::A_BGC, PolicyKind::Jit] {
        let policy = kind.build(&system_config);
        let workload_config = WorkloadConfig::builder()
            .working_set_pages(
                system_config
                    .standard_working_set()
                    .expect("over-provisioning is below 200 %"),
            )
            .duration(SimDuration::from_secs(300))
            .mean_iops(250.0)
            .burst_mean(1_024.0)
            .seed(11)
            .build();
        let workload = BenchmarkKind::Ycsb.build(workload_config);
        let report = SsdSystem::new(system_config.clone(), policy, workload).run();

        // The first block to reach the endurance limit kills the device;
        // project from the worst block's observed wear rate.
        let worst_rate_per_hour = report.wear.max as f64 / (report.duration_secs / 3_600.0);
        let projected_hours = if worst_rate_per_hour > 0.0 {
            ENDURANCE_CYCLES / worst_rate_per_hour
        } else {
            f64::INFINITY
        };
        println!(
            "{:<10}{:>8.3}{:>12}{:>12}{:>12.2}{:>14.0}{:>20.0}",
            report.policy,
            report.waf.expect("host writes happened"),
            report.nand_erases,
            report.wear.max,
            report.wear.std_dev,
            report.iops,
            projected_hours,
        );
    }
    println!(
        "\nThe just-in-time policy should approach the aggressive policy's \
         IOPS at a fraction of its wear — the paper's central claim."
    );
}
