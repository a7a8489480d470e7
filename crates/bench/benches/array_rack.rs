//! **Rack-scale scheduler micro-benchmark** — wall-clock cost of stepping
//! a 64-member array with one straggling (degraded, GC-heavy) member:
//! the request-at-a-time serial reference, then the work-stealing
//! quantum loop at one and eight member threads.
//!
//! The simulated reports are byte-identical across every cell (the bench
//! asserts it); only the wall clock moves. The interesting comparisons:
//!
//! * `steal/1` vs `serial/1` — what the quantum structure (dealing into
//!   lane queues, merging a quantum at a time) costs when nothing runs
//!   in parallel; `steal/8` vs `steal/1` — what the workers buy, pulling the
//!   laggiest member instead of idling while the straggler finishes its
//!   FGC (needs more than one core to show).
//! * the straggler attribution table — which member set volume p999 and
//!   how much of its exclusive delay was foreground GC.
//!
//! Run with `cargo bench -p jitgc-bench --bench array_rack`.

use jitgc_array::{ArrayConfig, ArrayReport, ArraySched, GcMode, Redundancy, SchedTelemetry};
use jitgc_bench::PolicyKind;
use jitgc_core::system::SystemConfig;
use jitgc_nand::NandTiming;
use jitgc_sim::SimDuration;
use jitgc_workload::{BenchmarkKind, WorkloadConfig};
use std::time::Instant;

const MEMBERS: usize = 64;
const STRAGGLER: usize = 37;

fn base_system() -> SystemConfig {
    let mut system = SystemConfig::small_for_tests();
    // Deep queue so quanta are long enough for workers to overlap.
    system.queue_depth = 8;
    // Start from steady state: prefill each member's extent so GC is live.
    system.prefill = true;
    system
}

/// One member is a degraded part: slow dense flash with most of its
/// internal channels gone (2-way instead of 8-way striping) and starved
/// of over-provisioning (1.5 % instead of 7 %), so it programs slowly AND
/// garbage-collects far more often than its 63 healthy neighbours.
fn straggle(device: usize, system: &mut SystemConfig) {
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
}

fn run_cell(sched: ArraySched, member_threads: usize) -> (ArrayReport, SchedTelemetry, f64) {
    let system = base_system();
    let per_member = system.ftl.user_pages() - system.ftl.op_pages() / 2;
    let workload = BenchmarkKind::Ycsb.build(
        WorkloadConfig::builder()
            .working_set_pages(per_member * MEMBERS as u64)
            .duration(SimDuration::from_secs(10))
            .mean_iops(400.0 * MEMBERS as f64)
            .burst_mean(128.0)
            .seed(42)
            .build(),
    );
    let config = ArrayConfig {
        members: MEMBERS,
        chunk_pages: 4,
        redundancy: Redundancy::None,
        gc_mode: GcMode::Staggered,
        sched,
        member_threads,
        system,
    };
    let mut sim = config.build_with(|cfg| PolicyKind::Jit.build(cfg), workload, straggle);
    let start = Instant::now();
    let report = sim.run();
    let wall = start.elapsed().as_secs_f64();
    (report, sim.sched_telemetry(), wall)
}

fn main() {
    let cells = [
        (ArraySched::Serial, 1),
        (ArraySched::Steal, 1),
        (ArraySched::Steal, 8),
    ];
    println!(
        "{:<24}{:>12}{:>10}{:>10}{:>12}{:>10}",
        "cell", "wall s", "p99 µs", "p999 µs", "epochs", "steals"
    );
    let mut baseline = None;
    let mut reference: Option<String> = None;
    for (sched, threads) in cells {
        let (report, telemetry, wall) = run_cell(sched, threads);
        let json = report.to_json().to_pretty();
        match &reference {
            None => reference = Some(json),
            Some(expected) => assert_eq!(
                expected,
                &json,
                "{} @ {threads} threads changed the simulated report",
                sched.name()
            ),
        }
        if sched == ArraySched::Serial {
            baseline = Some(wall);
        }
        println!(
            "{:<24}{:>12.3}{:>10}{:>10}{:>12}{:>10}",
            format!("{}/{} threads", sched.name(), threads),
            wall,
            report.latency_p99_us,
            report.latency_p999_us,
            telemetry.epochs,
            telemetry.steals
        );
        if let Some(base) = baseline {
            if wall > 0.0 {
                println!("{:<24}{:>11.2}x vs serial/1", "", base / wall);
            }
        }
        if sched == ArraySched::Steal && threads == 8 {
            // Straggler attribution: the under-provisioned member should
            // own the volume tail.
            let mut by_time: Vec<(usize, _)> = report.member_sched.iter().enumerate().collect();
            by_time.sort_by_key(|&(i, s)| (std::cmp::Reverse(s.straggler_time_us), i));
            println!("\ntop stragglers (exclusive tail contribution):");
            println!(
                "{:<8}{:>12}{:>14}{:>16}{:>12}{:>12}",
                "member", "straggled", "of them FGC", "excl time µs", "lag p99", "lag max"
            );
            for &(i, s) in by_time.iter().take(5) {
                println!(
                    "{:<8}{:>12}{:>14}{:>16}{:>12}{:>12}",
                    i,
                    s.straggler_requests,
                    s.straggler_fgc_requests,
                    s.straggler_time_us,
                    s.lag_p99_us,
                    s.lag_max_us
                );
            }
            assert_eq!(
                by_time[0].0, STRAGGLER,
                "the degraded member should dominate the tail"
            );
        }
    }
    println!("\nall three cells produced byte-identical simulated reports");
}
