//! Single-device workloads: the Fig. 7 policy grid at 16x device scale
//! and the idle-dominated diurnal run. One cell = one `SsdSystem` run.

use crate::hostspeed::{self, HostTime};
use crate::measure::{digest_json, Metrics, Rep, SimTotals};
use crate::trace::{Tracer, BENCH_LAYER};
use jitgc_bench::PolicyKind;
use jitgc_core::system::{PhaseProfile, SimReport, SsdSystem, SystemConfig};
use jitgc_nand::Lpn;
use jitgc_pagecache::PageCacheConfig;
use jitgc_sim::{SimDuration, SimRng, SimTime};
use jitgc_workload::{BenchmarkKind, IoRequest, NullWorkload, Workload, WorkloadConfig, WriteMix};
use std::time::{Duration, Instant};

pub struct Cell {
    pub label: &'static str,
    pub policy: PolicyKind,
    pub benchmark: BenchmarkKind,
    pub system: SystemConfig,
    pub seconds: u64,
    pub mean_iops: f64,
    pub burst_mean: f64,
    /// Seed of the cell's reference request stream (see [`Relocated`]).
    pub stream_seed: u64,
    /// Layer metric that reports this cell's traced run wall, if any.
    pub wall_metric: Option<&'static str>,
}

/// A workload relocated in its logical address space by the run's seed.
///
/// `--seed` decides where the requests land, not how many there are.
/// Re-seeding a generator redraws its burst lengths and idle gaps, and
/// with a few hundred bursts per cell that moves the request count by
/// ±10 % — more than the bound on any end-to-end metric. So a workload
/// keeps its reference stream (the seed in its definition) and the run's
/// seed rotates that stream's addresses over the working set: the hot
/// pages fall on other blocks of the scrambled aging fill and GC meets
/// other victims, while the offered load stays the same, request for
/// request.
pub struct Relocated {
    inner: Box<dyn Workload>,
    offset: u64,
}

impl Relocated {
    pub fn boxed(inner: Box<dyn Workload>, seed: u64) -> Box<dyn Workload> {
        let offset = SimRng::seed(seed).range_u64(0, inner.working_set_pages());
        Box::new(Relocated { inner, offset })
    }
}

impl Workload for Relocated {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn next_request(&mut self) -> Option<IoRequest> {
        let mut request = self.inner.next_request()?;
        let pages = self.inner.working_set_pages();
        // An extent that would run off the end is pulled back inside.
        let last_start = pages.saturating_sub(u64::from(request.pages));
        request.lpn = Lpn(((request.lpn.0 + self.offset) % pages).min(last_start));
        Some(request)
    }

    fn write_mix(&self) -> WriteMix {
        self.inner.write_mix()
    }

    fn working_set_pages(&self) -> u64 {
        self.inner.working_set_pages()
    }
}

const A_BGC: PolicyKind = PolicyKind::ReservedPermille(1_500);

/// `default_sim` with the device and the cache scaled 16x: 393 216 user
/// pages, 131 072-page cache — the scale EXPERIMENTS.md sweeps at.
pub fn system_16x() -> SystemConfig {
    let mut system = SystemConfig::default_sim();
    system.ftl = system.ftl.to_builder().user_pages(393_216).build();
    system.cache = PageCacheConfig::builder()
        .capacity_pages(131_072)
        .tau_expire(system.cache.tau_expire())
        .tau_flush_permille(system.cache.tau_flush_permille())
        .throttle_permille(system.cache.throttle_permille())
        .flusher_period(system.cache.flusher_period())
        .build();
    system
}

/// The paper's Fig. 7 columns on one benchmark, serial on one thread:
/// 4 000 IOPS in 1 024-request bursts at queue depth 1, aged device.
pub fn fig7_grid(benchmark: BenchmarkKind) -> Vec<Cell> {
    [
        ("l-bgc", PolicyKind::ReservedPermille(500)),
        ("a-bgc", A_BGC),
        ("adp-gc", PolicyKind::Adp),
        ("jit-gc", PolicyKind::Jit),
    ]
    .into_iter()
    .map(|(label, policy)| Cell {
        label,
        policy,
        benchmark,
        system: system_16x(),
        seconds: 100,
        mean_iops: 4_000.0,
        burst_mean: 1_024.0,
        stream_seed: 42,
        wall_metric: None,
    })
    .collect()
}

/// Days of 500-request bursts ~10 000 s apart on an un-aged default
/// device. TPC-C drains the cache after a burst, so the fast-forward can
/// engage; YCSB strands dirty residue below the flush threshold, so the
/// per-tick loop must run.
pub fn diurnal_cells() -> Vec<Cell> {
    let mut system = SystemConfig::default_sim();
    system.prefill = false;
    [
        (
            "tpcc_10d",
            BenchmarkKind::TpcC,
            10 * 86_400,
            "core.engine.tpcc_10d_s",
        ),
        (
            "ycsb_3d",
            BenchmarkKind::Ycsb,
            3 * 86_400,
            "core.engine.ycsb_3d_s",
        ),
    ]
    .into_iter()
    .map(|(label, benchmark, seconds, wall_metric)| Cell {
        label,
        policy: PolicyKind::Jit,
        benchmark,
        system: system.clone(),
        seconds,
        mean_iops: 0.05,
        burst_mean: 500.0,
        stream_seed: 29,
        wall_metric: Some(wall_metric),
    })
    .collect()
}

impl Cell {
    fn workload(&self, seed: u64) -> Box<dyn Workload> {
        let ftl = &self.system.ftl;
        let stream = self.benchmark.build(
            WorkloadConfig::builder()
                .working_set_pages(ftl.user_pages() - ftl.op_pages() / 2)
                .duration(SimDuration::from_secs(self.seconds))
                .mean_iops(self.mean_iops)
                .burst_mean(self.burst_mean)
                .seed(self.stream_seed)
                .build(),
        );
        Relocated::boxed(stream, seed)
    }

    /// The system configuration with aging switched off: the harness ages
    /// the device itself during setup, so `run()` and the stepping loop
    /// both start at the first request.
    fn config(&self) -> SystemConfig {
        let mut config = self.system.clone();
        config.prefill = false;
        config
    }

    /// Set-up of the end-to-end path: everything before the first request.
    fn build(&self, seed: u64) -> SsdSystem {
        let mut sim = SsdSystem::new(
            self.config(),
            hostspeed::paced(self.policy.build(&self.system)),
            self.workload(seed),
        );
        if self.system.prefill {
            sim.prefill();
        }
        sim
    }
}

/// Sets every cell up once, runs nothing, and returns the time it took.
pub fn setup_only(cells: &[Cell], seed: u64) -> HostTime {
    let start = Instant::now();
    for cell in cells {
        std::hint::black_box(cell.build(seed));
    }
    let built = Instant::now();
    hostspeed::poll();
    hostspeed::between(start, built)
}

/// (ticks run, ticks skipped) of a system since it was built.
pub fn ticks(sim: &SsdSystem) -> (u64, u64) {
    let period = sim.config().flusher_period.as_micros().max(1);
    // The clock reads one period past the last tick processed.
    let all = (sim.virtual_clock().as_micros() / period).saturating_sub(1);
    (all.saturating_sub(sim.ticks_skipped()), sim.ticks_skipped())
}

struct CellOutcome {
    report: SimReport,
    setup: HostTime,
    run: HostTime,
    /// Requests the harness pulled from the workload (traced path only).
    generated: Option<u64>,
    profile: PhaseProfile,
    ticks_run: u64,
    ticks_skipped: u64,
    ff_spans: u64,
}

fn outcome(
    sim: &SsdSystem,
    report: SimReport,
    setup: HostTime,
    run: HostTime,
    generated: Option<u64>,
) -> CellOutcome {
    let (ticks_run, ticks_skipped) = ticks(sim);
    CellOutcome {
        report,
        setup,
        run,
        generated,
        profile: sim.phase_profile(),
        ticks_run,
        ticks_skipped,
        ff_spans: sim.ff_spans(),
    }
}

/// The end-to-end path: the engine owns the closed loop.
fn run_cell(cell: &Cell, seed: u64) -> CellOutcome {
    let start = Instant::now();
    let mut sim = cell.build(seed);
    let built = Instant::now();
    let report = sim.run();
    let run = hostspeed::since(built);
    let setup = hostspeed::between(start, built);
    outcome(&sim, report, setup, run, None)
}

/// The traced path: the harness owns the QD-1 closed loop through the
/// public stepping API, so generating a request and executing it are
/// timed apart, with phase profiling on inside the engine.
fn run_cell_traced(cell: &Cell, seed: u64, tracer: &mut Tracer) -> CellOutcome {
    tracer.set_cell(cell.label);
    let cell_span = tracer.begin("cell", BENCH_LAYER);

    let setup_span = tracer.begin("setup", BENCH_LAYER);
    let mut workload = tracer.span("BenchmarkKind::build", "workload", || cell.workload(seed));
    // The engine never pulls from its own workload when stepped; the stub
    // names the report and sizes the aging fill like the real one would.
    let stub = NullWorkload::new(
        workload.name(),
        workload.working_set_pages(),
        workload.write_mix(),
    );
    let mut sim = tracer.span("SsdSystem::new", "core.engine", || {
        SsdSystem::new(
            cell.config(),
            cell.policy.build(&cell.system),
            Box::new(stub),
        )
    });
    sim.enable_phase_profiling();
    if cell.system.prefill {
        tracer.span("SsdSystem::prefill", "ftl", || sim.prefill());
    }
    let setup = tracer.end(setup_span);

    let run_span = tracer.begin("run", BENCH_LAYER);
    let run_start = Instant::now();
    let mut completion = SimTime::ZERO;
    let mut schedule = SimTime::ZERO;
    let (mut generating, mut stepping) = (Duration::ZERO, Duration::ZERO);
    let mut generated = 0u64;
    let mut mark = Instant::now();
    loop {
        let request = workload.next_request();
        let pulled = Instant::now();
        generating += pulled - mark;
        let Some(request) = request else {
            break;
        };
        generated += 1;
        let issue = completion + request.gap;
        schedule = schedule.max(issue);
        completion = sim.step(request, issue);
        mark = Instant::now();
        stepping += mark - pulled;
    }
    let report = tracer.span("SsdSystem::finalize", "core.engine", || {
        sim.finalize(completion.max(schedule))
    });
    let profile = sim.phase_profile();
    let in_phases = profile.request_execution + profile.flush + profile.predictor + profile.bgc;
    tracer.aggregate(
        "workload",
        "Workload::next_request",
        generated + 1,
        generating,
    );
    tracer.aggregate(
        "core.engine",
        "request_execution",
        generated,
        profile.request_execution,
    );
    tracer.aggregate("core.engine", "flush", 0, profile.flush);
    tracer.aggregate("core.engine", "predictor", 0, profile.predictor);
    tracer.aggregate("core.engine", "bgc", 0, profile.bgc);
    tracer.aggregate(
        "core.engine",
        "step outside every phase",
        0,
        stepping.saturating_sub(in_phases),
    );
    tracer.aggregate_overlapping("core.engine", "SsdSystem::step", generated, stepping);
    let (ticks_run, ticks_skipped) = ticks(&sim);
    tracer.aggregate_overlapping("core.engine", "tick", ticks_run, profile.tick);
    // Ticks the fast-forward jumped over cost no time of their own.
    tracer.aggregate_overlapping("core.engine", "tick skipped", ticks_skipped, Duration::ZERO);
    tracer.aggregate_overlapping(
        "core.engine",
        "fast_forward_span",
        sim.ff_spans(),
        Duration::ZERO,
    );
    tracer.aggregate_overlapping("ftl", "gc_copy", 0, profile.gc_copy);
    let run = run_start.elapsed();
    tracer.end(run_span);

    tracer.end(cell_span);
    outcome(&sim, report, setup.into(), run.into(), Some(generated))
}

/// Output checks on one report; returns how many failed.
pub fn check_report(label: &str, report: &SimReport, generated: Option<u64>) -> u64 {
    let checks = [
        (
            generated.is_none_or(|g| report.ops == g),
            "ops != requests the workload generated",
        ),
        (
            report.nand_pages_programmed >= report.host_pages_written,
            "nand_pages_programmed < host_pages_written",
        ),
        (report.waf.is_none_or(|w| w >= 1.0), "WAF < 1"),
        (
            report.degraded.is_none(),
            "device degraded: requests were rejected",
        ),
    ];
    let mut failed = 0;
    for (ok, what) in checks {
        if !ok {
            eprintln!("CHECK FAILED [{label}]: {what}");
            failed += 1;
        }
    }
    failed
}

/// Runs every cell once. With a tracer the stepping-API path runs and
/// fills `metrics` with the simulated answers and the engine ledger.
pub fn repetition(
    cells: &[Cell],
    seed: u64,
    mut traced: Option<(&mut Tracer, &mut Metrics)>,
) -> Rep {
    let wall = Instant::now();
    let mut rep = Rep::default();
    let mut totals = SimTotals::default();
    let mut profile = PhaseProfile::default();
    let (mut ticks_run, mut ticks_skipped, mut ff_spans) = (0, 0, 0);
    let mut jsons = Vec::new();
    let mut abgc = None;
    for cell in cells {
        let out = match &mut traced {
            Some((tracer, metrics)) => {
                let out = run_cell_traced(cell, seed, tracer);
                if let Some(name) = cell.wall_metric {
                    metrics.set(name, out.run.wall.as_secs_f64());
                }
                out
            }
            None => run_cell(cell, seed),
        };
        rep.failed += check_report(cell.label, &out.report, out.generated);
        rep.setup += out.setup;
        rep.run += out.run;
        rep.sim_ops += out.report.ops;
        rep.sim_secs += out.report.duration_secs;
        totals.add(&out.report);
        add_profile(&mut profile, &out.profile);
        ticks_run += out.ticks_run;
        ticks_skipped += out.ticks_skipped;
        ff_spans += out.ff_spans;
        jsons.push(out.report.to_json().to_compact());
        if cell.policy == PolicyKind::Jit {
            totals.set_jit(&out.report, abgc.as_ref());
        } else if cell.policy == A_BGC {
            abgc = Some(out.report);
        }
    }
    rep.attempted = rep.sim_ops;
    rep.digest = digest_json(&jsons);
    if let Some((_, metrics)) = traced {
        totals.record(metrics, rep.digest);
        record_engine(metrics, &profile, rep.run.wall);
        record_ticks(metrics, &profile, ticks_run, ticks_skipped, ff_spans);
    }
    rep.wall = hostspeed::between(wall, Instant::now());
    rep
}

pub fn add_profile(total: &mut PhaseProfile, p: &PhaseProfile) {
    total.request_execution += p.request_execution;
    total.flush += p.flush;
    total.predictor += p.predictor;
    total.bgc += p.bgc;
    total.reporting += p.reporting;
    total.gc_copy += p.gc_copy;
    total.tick += p.tick;
}

pub fn record_ticks(
    metrics: &mut Metrics,
    profile: &PhaseProfile,
    ticks_run: u64,
    ticks_skipped: u64,
    ff_spans: u64,
) {
    metrics.set("core.engine.ticks_run", ticks_run as f64);
    metrics.set("core.engine.ticks_skipped", ticks_skipped as f64);
    metrics.set("core.engine.ff_spans", ff_spans as f64);
    metrics.set(
        "core.engine.tick_ns",
        profile.tick.as_nanos() as f64 / ticks_run.max(1) as f64,
    );
}

/// The `core.engine.*_s` ledger: where `run` wall time went by
/// `PhaseProfile` phase, and what no phase claims.
pub fn record_engine(metrics: &mut Metrics, profile: &PhaseProfile, run: Duration) {
    let run_s = run.as_secs_f64();
    let accounted = profile.accounted().as_secs_f64();
    let secs = |d: Duration| d.as_secs_f64();
    metrics.set(
        "core.engine.request_execution_s",
        secs(profile.request_execution),
    );
    metrics.set("core.engine.flush_s", secs(profile.flush));
    metrics.set("core.engine.predictor_s", secs(profile.predictor));
    metrics.set("core.engine.bgc_s", secs(profile.bgc));
    metrics.set("core.engine.gc_copy_s", secs(profile.gc_copy));
    metrics.set("core.engine.tick_s", secs(profile.tick));
    metrics.set("core.engine.untracked_s", (run_s - accounted).max(0.0));
    metrics.set("core.engine.accounted_share", accounted / run_s);
    metrics.set(
        "core.engine.flush_predictor_share",
        secs(profile.flush + profile.predictor) / run_s,
    );
}
