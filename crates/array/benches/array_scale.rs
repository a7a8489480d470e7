//! **Array-scale policy sweep** — the paper's Fig. 7 policy comparison
//! lifted to a 4-member striped array, crossed with the array's BGC
//! coordination modes.
//!
//! Expected shape: per-policy ordering matches the single-device Fig. 7
//! (JIT-GC near A-BGC's IOPS at near L-BGC's WAF), while staggering
//! member flusher phases trims the volume-level p99/p999 stall tail
//! relative to the unsynchronized array, without moving WAF — the
//! coordination lever is *when* members collect, not *how much*.

use jitgc_array::{ArrayConfig, ArraySched, GcMode, Redundancy};
use jitgc_bench::{default_threads, format_table, run_grid, Experiment, PolicyKind};
use jitgc_sim::SimDuration;
use jitgc_workload::{BenchmarkKind, WorkloadConfig};

const MEMBERS: usize = 4;
const CHUNK_PAGES: u64 = 16;

fn main() {
    let exp = Experiment {
        duration: SimDuration::from_secs(120),
        ..Experiment::standard()
    };
    let policies = [
        PolicyKind::ReservedPermille(500),
        PolicyKind::ReservedPermille(1_500),
        PolicyKind::Adp,
        PolicyKind::Jit,
    ];
    let modes = [GcMode::Unsynchronized, GcMode::Staggered];

    let mut cells: Vec<(PolicyKind, GcMode, BenchmarkKind)> = Vec::new();
    for b in BenchmarkKind::all() {
        for &p in &policies {
            for &m in &modes {
                cells.push((p, m, b));
            }
        }
    }

    let system = exp.system.clone();
    // Stripe the volume so every member carries the same working-set
    // share a standalone device would (Experiment::run's sizing × N).
    let per_member = system.standard_working_set().unwrap();
    let reports = run_grid(&cells, default_threads(), |&(policy, mode, benchmark)| {
        let workload = benchmark.build(
            WorkloadConfig::builder()
                .working_set_pages(per_member * MEMBERS as u64)
                .duration(exp.duration)
                .mean_iops(exp.mean_iops * MEMBERS as f64)
                .burst_mean(exp.burst_mean)
                .seed(exp.seed)
                .build(),
        );
        let config = ArrayConfig {
            members: MEMBERS,
            chunk_pages: CHUNK_PAGES,
            redundancy: Redundancy::None,
            gc_mode: mode,
            sched: ArraySched::Steal,
            member_threads: 1,
            system: system.clone(),
        };
        config.build(|cfg| policy.build(cfg), workload).run()
    });

    let columns: Vec<String> = policies
        .iter()
        .flat_map(|p| {
            modes
                .iter()
                .map(move |m| format!("{}/{}", p.name(), m.name()))
        })
        .collect();
    let per_row = policies.len() * modes.len();
    let mut iops_rows = Vec::new();
    let mut p99_rows = Vec::new();
    let mut waf_rows = Vec::new();
    for (row, benchmark) in BenchmarkKind::all().iter().enumerate() {
        let reports = &reports[row * per_row..(row + 1) * per_row];
        iops_rows.push((
            benchmark.name().to_owned(),
            reports.iter().map(|r| r.iops).collect(),
        ));
        p99_rows.push((
            benchmark.name().to_owned(),
            reports.iter().map(|r| r.latency_p99_us as f64).collect(),
        ));
        waf_rows.push((
            benchmark.name().to_owned(),
            // These cells always see host writes; a `None` WAF here would
            // mean the sweep itself is broken, so surface it as NaN-free 0.
            reports.iter().map(|r| r.waf.unwrap_or(0.0)).collect(),
        ));
    }

    print!(
        "{}",
        format_table(
            &format!("Array ({MEMBERS}-way RAID-0): IOPS by policy x GC mode"),
            &columns,
            &iops_rows,
            0,
        )
    );
    print!(
        "{}",
        format_table(
            &format!("Array ({MEMBERS}-way RAID-0): p99 latency (us)"),
            &columns,
            &p99_rows,
            0,
        )
    );
    print!(
        "{}",
        format_table(
            &format!("Array ({MEMBERS}-way RAID-0): WAF"),
            &columns,
            &waf_rows,
            3,
        )
    );
}
