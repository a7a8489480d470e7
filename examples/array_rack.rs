//! Rack-scale array demo: 64 striped members, one of them a degraded
//! slow part.
//!
//! A striped request completes when its **slowest** sub-request does, so
//! one lagging device sets the whole volume's tail. The per-member
//! scheduler accounting in the array report pins that down: for every
//! logical request the scheduler records which member finished last
//! (`straggler_requests`), how much later than the runner-up it finished
//! (`straggler_time_us` — the member's *exclusive* tail contribution no
//! other device can hide), and whether that step ran foreground GC
//! (`straggler_fgc_requests`).
//!
//! ```sh
//! cargo run --release --example array_rack
//! ```

use jitgc_bench::Experiment;
use jitgc_repro::array::{ArrayConfig, GcMode, Redundancy};
use jitgc_repro::core::policy::JitGc;
use jitgc_repro::core::system::SystemConfig;
use jitgc_repro::nand::NandTiming;
use jitgc_repro::sim::SimDuration;
use jitgc_repro::workload::BenchmarkKind;

const MEMBERS: usize = 64;
const STRAGGLER: usize = 37;

fn main() {
    let mut system = SystemConfig::small_for_tests();
    // Deep queue: eight requests in flight overlap on the members.
    system.queue_depth = 8;
    // Start from steady state: prefill each member's extent so GC is live.
    system.prefill = true;
    // Each member carries one device's working set at 400 IOPS: the
    // volume is sized for the array's columns.
    let exp = Experiment {
        system: system.clone(),
        duration: SimDuration::from_secs(10),
        mean_iops: 400.0,
        burst_mean: 128.0,
        seed: 42,
    };
    let config = ArrayConfig {
        members: MEMBERS,
        chunk_pages: 4,
        redundancy: Redundancy::None,
        gc_mode: GcMode::Staggered,
        system,
    };
    let sized = exp.workload_config(config.columns() as u64);
    let workload = BenchmarkKind::Ycsb.build(sized.expect("64 columns fit the generators"));
    // One member is a degraded part: slow dense flash with most of its
    // internal channels gone (2-way instead of 8-way striping) and
    // starved of over-provisioning (1.5 % instead of 7 %), so it programs
    // slowly AND garbage-collects far more often than its 63 healthy
    // neighbours. The host-visible capacity is untouched, so the stripe
    // map is none the wiser.
    let mut sim = config.build_with(
        |cfg| Box::new(JitGc::from_system_config(cfg)),
        workload,
        |device, system| {
            if device == STRAGGLER {
                system.ftl = system
                    .ftl
                    .to_builder()
                    .op_permille(15)
                    .timing(NandTiming::new(
                        SimDuration::from_micros(75),
                        SimDuration::from_micros(2_300),
                        SimDuration::from_micros(3_800),
                        SimDuration::from_micros(20),
                        2,
                    ))
                    .build();
            }
        },
    );
    let report = sim.run();

    println!("{} members, member {} degraded", report.members, STRAGGLER);
    println!(
        "volume latency  mean {} / p99 {} / p999 {} / max {} µs",
        report.latency_mean_us,
        report.latency_p99_us,
        report.latency_p999_us,
        report.latency_max_us
    );

    let mut by_time: Vec<(usize, _)> = report.member_sched.iter().enumerate().collect();
    by_time.sort_by_key(|&(i, s)| (std::cmp::Reverse(s.straggler_time_us), i));
    println!("\ntop stragglers (exclusive tail contribution):");
    println!(
        "{:<8}{:>10}{:>12}{:>14}{:>16}{:>12}{:>12}",
        "member", "steps", "straggled", "of them FGC", "excl time µs", "lag p99", "lag max"
    );
    for &(i, s) in by_time.iter().take(5) {
        println!(
            "{:<8}{:>10}{:>12}{:>14}{:>16}{:>12}{:>12}{}",
            i,
            s.steps,
            s.straggler_requests,
            s.straggler_fgc_requests,
            s.straggler_time_us,
            s.lag_p99_us,
            s.lag_max_us,
            if i == STRAGGLER { "   <- degraded" } else { "" }
        );
    }
    println!(
        "\nThe degraded member should dominate the exclusive-tail column \
         by a wide margin, with foreground-GC episodes showing up in the \
         FGC column — tail latency attributed per device, from outside \
         the devices."
    );
}
