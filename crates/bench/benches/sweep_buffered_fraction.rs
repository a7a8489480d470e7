//! **Sweep (extension)** — JIT-GC's edge as a function of cache
//! predictability.
//!
//! The paper's six benchmarks sample the buffered:direct axis at six
//! points (Table 1); the [`Synthetic`](jitgc_workload::Synthetic) workload
//! lets us sweep it continuously with everything else held fixed. The
//! paper's thesis predicts JIT-GC's advantage over the cache-oblivious
//! ADP-GC should grow with the buffered share — the more traffic the page
//! cache sees, the more exact JIT-GC's half of the forecast is.

use jitgc_bench::{format_table, PolicyKind};
use jitgc_core::system::{SsdSystem, SystemConfig};
use jitgc_sim::SimDuration;
use jitgc_workload::{Synthetic, WorkloadConfig};

fn main() {
    let system = SystemConfig::default_sim();
    let fractions = [0.0, 0.25, 0.5, 0.75, 0.95];
    let columns: Vec<String> = fractions.iter().map(|f| format!("{f:.2}")).collect();

    let mut jit_waf = Vec::new();
    let mut adp_waf = Vec::new();
    let mut acc_gap = Vec::new();
    for &fraction in &fractions {
        let make_workload = || {
            let cfg = WorkloadConfig::builder()
                .working_set_pages(system.standard_working_set().unwrap())
                .duration(SimDuration::from_secs(600))
                .mean_iops(250.0)
                .burst_mean(1_024.0)
                .seed(42)
                .build();
            Box::new(
                Synthetic::builder()
                    .read_fraction(0.4)
                    .buffered_fraction(fraction)
                    .zipf_skew(0.99)
                    .pages(1, 4)
                    .build(cfg),
            )
        };
        let jit = SsdSystem::new(
            system.clone(),
            PolicyKind::Jit.build(&system),
            make_workload(),
        )
        .run();
        let adp = SsdSystem::new(
            system.clone(),
            PolicyKind::Adp.build(&system),
            make_workload(),
        )
        .run();
        jit_waf.push(jit.waf.expect("host writes happened"));
        adp_waf.push(adp.waf.expect("host writes happened"));
        acc_gap.push(
            jit.prediction_accuracy_percent.unwrap_or(0.0)
                - adp.prediction_accuracy_percent.unwrap_or(0.0),
        );
    }

    print!(
        "{}",
        format_table(
            "Sweep: buffered fraction vs WAF (Synthetic, Zipf 0.99)",
            &columns,
            &[
                ("JIT-GC".to_owned(), jit_waf),
                ("ADP-GC".to_owned(), adp_waf),
            ],
            3,
        )
    );
    print!(
        "{}",
        format_table(
            "Sweep: buffered fraction vs JIT−ADP accuracy gap (pp)",
            &columns,
            &[("gap".to_owned(), acc_gap)],
            1,
        )
    );
}
