//! `array64_qd8`: 64 RAID-0 members behind the work-stealing scheduler.

use crate::cells::{add_profile, check_report, record_engine, record_ticks, ticks, Relocated};
use crate::hostspeed::{self, HostTime};
use crate::measure::{digest_json, Metrics, Rep, SimTotals};
use crate::trace::{Tracer, BENCH_LAYER};
use jitgc_array::{ArrayReport, ArraySched, ArrayScheduler, GcMode, Redundancy, StripeMap};
use jitgc_bench::PolicyKind;
use jitgc_core::system::{PhaseProfile, SsdSystem, SystemConfig};
use jitgc_sim::SimDuration;
use jitgc_workload::{BenchmarkKind, NullWorkload, WorkloadConfig};
use std::time::{Duration, Instant};

const MEMBERS: usize = 64;
/// 64 KiB stripe chunks of 4 KiB pages.
const CHUNK_PAGES: u64 = 16;
const QUEUE_DEPTH: u32 = 8;
const SECONDS: u64 = 30;
/// Per-member arrival rate; the volume sees `MEMBERS` times this, so each
/// member carries the load a standalone device would (`ssdsim --array`).
const MEAN_IOPS_PER_MEMBER: f64 = 250.0;
/// Seed of the reference request stream (see [`Relocated`]).
const STREAM_SEED: u64 = 42;

/// Builds the aged array. `ArrayConfig::build` ages the members inside
/// `run()`; building them here, the way it does, keeps aging in setup.
fn build(seed: u64, member_threads: usize) -> ArrayScheduler {
    let mut system = SystemConfig::default_sim();
    system.queue_depth = QUEUE_DEPTH;
    system.prefill = false;
    let per_member = system.ftl.user_pages() - system.ftl.op_pages() / 2;
    let stream = BenchmarkKind::Tiobench.build(
        WorkloadConfig::builder()
            .working_set_pages(per_member * MEMBERS as u64)
            .duration(SimDuration::from_secs(SECONDS))
            .mean_iops(MEAN_IOPS_PER_MEMBER * MEMBERS as f64)
            .burst_mean(1_024.0)
            .seed(STREAM_SEED)
            .build(),
    );
    let workload = Relocated::boxed(stream, seed);
    let stripe = StripeMap::new(MEMBERS, CHUNK_PAGES, Redundancy::None);
    let members = (0..MEMBERS)
        .map(|column| {
            let share = stripe
                .member_extent(column, workload.working_set_pages())
                .max(1);
            let stub = NullWorkload::new(workload.name(), share, workload.write_mix());
            let mut member = SsdSystem::new(
                system.clone(),
                hostspeed::paced(PolicyKind::Jit.build(&system)),
                Box::new(stub),
            );
            member.prefill();
            member
        })
        .collect();
    let mut array = ArrayScheduler::new(members, stripe, GcMode::Staggered, workload);
    array.set_sched(ArraySched::Steal);
    array.set_member_threads(member_threads);
    array
}

fn check(report: &ArrayReport) -> u64 {
    let mut failed = 0;
    for (i, member) in report.member_reports.iter().enumerate() {
        failed += check_report(&format!("member {i}"), member, None);
    }
    if report.waf.is_some_and(|w| w < 1.0) {
        eprintln!("CHECK FAILED [array]: WAF < 1");
        failed += 1;
    }
    failed
}

/// Builds the aged array once, runs nothing, and returns the time it took.
pub fn setup_only(seed: u64) -> HostTime {
    let start = Instant::now();
    std::hint::black_box(build(seed, 1));
    hostspeed::since(start)
}

/// One pass at `member_threads`; returns (report, setup, run, array).
fn pass(seed: u64, member_threads: usize) -> (ArrayReport, HostTime, HostTime, ArrayScheduler) {
    let start = Instant::now();
    let mut array = build(seed, member_threads);
    let setup = hostspeed::since(start);
    let built = Instant::now();
    let report = array.run();
    (report, setup, hostspeed::since(built), array)
}

pub fn repetition(seed: u64, traced: Option<(&mut Tracer, &mut Metrics)>) -> Rep {
    let wall = Instant::now();
    let mut failed = 0;
    let (report, setup, run) = match traced {
        None => {
            let (report, setup, run, _) = pass(seed, 1);
            (report, setup, run)
        }
        Some((tracer, metrics)) => {
            let (report, setup, run, array) = traced_pass(seed, tracer);
            record(metrics, &report, &array, run.wall);
            drop(array);
            // One extra pass with a second worker: on a 2-core host the
            // steal pool costs more than it saves (README, findings).
            let mt2 = tracer.begin("second pass at member_threads = 2", "array");
            let (mt2_report, _, mt2_run, _) = pass(seed, 2);
            tracer.end(mt2);
            metrics.set(
                "array.mt2_wall_ratio",
                mt2_run.wall.as_secs_f64() / run.wall.as_secs_f64(),
            );
            if mt2_report != report {
                eprintln!("CHECK FAILED [array]: member_threads 2 changed the report");
                failed += 1;
            }
            (report, setup, run)
        }
    };
    let mut rep = Rep {
        setup,
        run,
        sim_ops: report.ops,
        sim_secs: report.duration_secs,
        attempted: report.ops,
        failed: failed + check(&report),
        digest: digest_json(&[report.to_json().to_compact()]),
        ..Rep::default()
    };
    rep.wall = hostspeed::between(wall, Instant::now());
    rep
}

/// The traced pass: phase profiling on in every member, spans around
/// setup and `run`, member phases folded under `run` so that its self
/// time is what the scheduler itself costs.
fn traced_pass(
    seed: u64,
    tracer: &mut Tracer,
) -> (ArrayReport, HostTime, HostTime, ArrayScheduler) {
    tracer.set_cell("array64");
    let cell = tracer.begin("cell", BENCH_LAYER);
    let setup_span = tracer.begin("setup: members + prefill + ArrayScheduler::new", "array");
    let mut array = build(seed, 1);
    array.enable_phase_profiling();
    let setup = tracer.end(setup_span);
    let run_span = tracer.begin("ArrayScheduler::run", "array");
    let run_start = Instant::now();
    let report = array.run();
    let run = run_start.elapsed();
    let profile = array.phase_profile();
    tracer.aggregate(
        "core.engine",
        "members: request_execution",
        report.ops,
        profile.request_execution,
    );
    tracer.aggregate("core.engine", "members: flush", 0, profile.flush);
    tracer.aggregate("core.engine", "members: predictor", 0, profile.predictor);
    tracer.aggregate("core.engine", "members: bgc", 0, profile.bgc);
    tracer.aggregate(
        "core.engine",
        "members: reporting",
        MEMBERS as u64,
        profile.reporting,
    );
    tracer.aggregate_overlapping("core.engine", "members: tick", 0, profile.tick);
    tracer.aggregate_overlapping("ftl", "members: gc_copy", 0, profile.gc_copy);
    tracer.end(run_span);
    tracer.end(cell);
    (report, setup.into(), run.into(), array)
}

fn record(metrics: &mut Metrics, report: &ArrayReport, array: &ArrayScheduler, run: Duration) {
    let mut totals = SimTotals::default();
    let mut profile = PhaseProfile::default();
    for (member, p) in report.member_reports.iter().zip(array.member_profiles()) {
        totals.add(member);
        add_profile(&mut profile, &p);
    }
    // Member 0 lends the per-device ratios; request count, WAF and the
    // latency tail are the volume's own.
    totals.set_jit(&report.member_reports[0], None);
    totals.record(metrics, digest_json(&[report.to_json().to_compact()]));
    metrics.set("workload.requests", report.ops as f64);
    metrics.set("sim.jit_waf", report.waf.unwrap_or(0.0));
    metrics.set("sim.jit_p99_us", report.latency_p99_us as f64);
    metrics.set("sim.jit_p999_us", report.latency_p999_us as f64);
    record_engine(metrics, &profile, run);

    let (ticks_run, ticks_skipped) = array
        .members()
        .iter()
        .map(ticks)
        .fold((0, 0), |(run, skipped), (r, s)| (run + r, skipped + s));
    record_ticks(
        metrics,
        &profile,
        ticks_run,
        ticks_skipped,
        array.ff_spans(),
    );

    let telemetry = array.sched_telemetry();
    let in_members = profile.accounted().as_secs_f64();
    let stragglers: u64 = report
        .member_sched
        .iter()
        .map(|m| m.straggler_requests)
        .sum();
    metrics.set("array.epochs", telemetry.epochs as f64);
    metrics.set("array.steals", telemetry.steals as f64);
    metrics.set("array.member_phase_share", in_members / run.as_secs_f64());
    metrics.set(
        "array.sched_overhead_s",
        (run.as_secs_f64() - in_members).max(0.0),
    );
    metrics.set("array.straggler_requests", stragglers as f64);
}
