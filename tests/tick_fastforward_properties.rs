//! Equivalence properties of the quiescence fast-forward (DESIGN.md §15).
//!
//! The fast-forward is a pure wall-clock optimization: a run with it on
//! must produce a report **byte-identical** (as serialized JSON) to the
//! same run with it off, at every driver level — the single-device
//! engine, the array scheduler (striped, and mirrored at rack scale with
//! faults armed) and the multi-tenant service. These tests pin that
//! contract on seeded idle-heavy workloads, whole run against whole run; the
//! span-by-span comparison of the two engines is
//! `crates/core/tests/fast_forward_certificate.rs`.

use jitgc_array::{ArrayConfig, ArrayReport, GcMode, Redundancy};
use jitgc_bench::{Experiment, PolicyKind};
use jitgc_core::system::{FfGate, SsdSystem, SystemConfig};
use jitgc_nand::FaultConfig;
use jitgc_service::{run_closed_loop_counting, ServiceConfig, TenantProfile, TenantSpec};
use jitgc_sim::SimDuration;
use jitgc_workload::{BenchmarkKind, Workload, WorkloadConfig};

/// An idle-heavy closed-loop workload: ~1 request/s arrival with ~600 s
/// mean bursts leaves long zero-traffic stretches between bursts — far
/// beyond the ~(N_wb + CDH window) tick warm-up quiescence needs.
fn bursty_idle_workload(
    system: &SystemConfig,
    benchmark: BenchmarkKind,
    columns: u64,
    secs: u64,
    seed: u64,
) -> Box<dyn Workload> {
    let per_member = system.standard_working_set().unwrap();
    benchmark.build(
        WorkloadConfig::builder()
            .working_set_pages(per_member * columns)
            .duration(SimDuration::from_secs(secs))
            .mean_iops(1.0 * columns as f64)
            .burst_mean(600.0 * columns as f64)
            .seed(seed)
            .build(),
    )
}

/// Runs one single-device scenario and returns the serialized report
/// plus the skip counters.
fn single_run(benchmark: BenchmarkKind, fast_forward: bool, seed: u64) -> (String, u64, u64) {
    let system = SystemConfig::small_for_tests();
    let workload = bursty_idle_workload(&system, benchmark, 1, 1_500, seed);
    let policy = PolicyKind::Jit.build(&system);
    let mut sim = SsdSystem::new(system, policy, workload);
    sim.set_fast_forward(fast_forward);
    let report = sim.run();
    (
        report.to_json().to_pretty(),
        sim.ticks_skipped(),
        sim.ff_spans(),
    )
}

/// The tentpole acceptance criterion, single-device: every benchmark
/// flavor reports byte-identically with the fast-forward on and off, and
/// the idle-heavy sizing actually exercises the skip path — also on the
/// buffered-heavy mixes, whose bursts leave dirty data below `τ_flush`
/// that no flusher wake-up ever writes back.
#[test]
fn single_device_reports_are_identical_ff_on_and_off_across_workloads() {
    let mut total_skipped = 0;
    for (i, &benchmark) in BenchmarkKind::all().iter().enumerate() {
        let seed = 7 + i as u64;
        let (on, skipped, spans) = single_run(benchmark, true, seed);
        let (off, skipped_off, _) = single_run(benchmark, false, seed);
        assert_eq!(
            on, off,
            "{benchmark:?}: report diverged between fast-forward on and off"
        );
        assert_eq!(skipped_off, 0, "{benchmark:?}: off-run must never skip");
        assert!(
            spans <= skipped,
            "{benchmark:?}: spans ({spans}) cannot exceed skipped ticks ({skipped})"
        );
        let buffered_heavy = matches!(
            benchmark,
            BenchmarkKind::Ycsb | BenchmarkKind::Postmark | BenchmarkKind::Filebench
        );
        assert!(
            !buffered_heavy || skipped > 0,
            "{benchmark:?}: stranded dirty residue still blocks the skip"
        );
        total_skipped += skipped;
    }
    assert!(
        total_skipped > 0,
        "the idle-heavy sizing never engaged the fast-forward — the \
         identity checks above proved nothing"
    );
}

/// Asserts that `sim`'s idle gaps each ran only their warm-up through
/// the per-tick loop, and that every tick that ran was refused by exactly
/// one gate.
fn assert_gaps_cost_their_warm_up_only(name: &str, sim: &SsdSystem) {
    let system = sim.config();
    let period = system.flusher_period.as_micros();
    let ticks = sim.virtual_clock().as_micros() / period - 1;
    let run_one_by_one = ticks - sim.ticks_skipped();
    let spans = sim.ff_spans();
    assert!(spans >= 5, "{name}: {spans} spans in a day of gaps");
    let per_gap = system.nwb() as u64 + 64 + 8;
    assert!(
        run_one_by_one <= spans * per_gap,
        "{name}: {run_one_by_one} of {ticks} ticks ran in {spans} gaps: {}",
        sim.ff_refusals()
    );
    // A settled gap is never refused on the cache's account: the one
    // such refusal a span can be followed by is the burst ending it.
    let refused = sim.ff_refusals();
    assert!(
        refused.count(FfGate::CacheChanged) <= spans,
        "{name}: {refused}"
    );
    assert_eq!(
        refused.total(),
        run_one_by_one,
        "{name}: every tick that ran was refused by exactly one gate"
    );
}

/// The benchmark's `diurnal_idle` shape: 500-request bursts ~10 000 s
/// apart on an un-aged default device under JIT-GC, one simulated day.
/// TPC-C's 0.1 % buffered writes and YCSB's 88 % both strand residue
/// below `τ_flush`; each gap must cost the ~`N_wb` + 64 ticks in which
/// the residue ages out and the direct predictor saturates, not the
/// thousands it spans. The last row stripes the YCSB day over four
/// members, sized as `ssdsim --array 4` sizes it (four times the working
/// set and the rate), and holds every member to the same bound.
#[test]
fn diurnal_gaps_cost_their_warm_up_only() {
    let day = Experiment {
        system: SystemConfig {
            prefill: false,
            ..SystemConfig::default_sim()
        },
        duration: SimDuration::from_secs(86_400),
        mean_iops: 0.05,
        burst_mean: 500.0,
        seed: 29,
    };
    for benchmark in [BenchmarkKind::TpcC, BenchmarkKind::Ycsb] {
        let run = |fast_forward: bool| {
            let workload = benchmark.build(day.workload_config(1).unwrap());
            let system = day.system.clone();
            let mut sim = SsdSystem::new(system, PolicyKind::Jit.build(&day.system), workload);
            sim.set_fast_forward(fast_forward);
            let report = sim.run().to_json().to_pretty();
            (report, sim)
        };
        let (on, sim) = run(true);
        let (off, _) = run(false);
        assert_eq!(on, off, "{benchmark:?}: fast-forward changed the report");
        assert_gaps_cost_their_warm_up_only(&format!("{benchmark:?}"), &sim);
    }

    let array = ArrayConfig {
        members: 4,
        chunk_pages: 16,
        redundancy: Redundancy::None,
        gc_mode: GcMode::Staggered,
        system: day.system.clone(),
    };
    let run = |fast_forward: bool| {
        let workload = BenchmarkKind::Ycsb.build(day.workload_config(4).unwrap());
        let mut sim = array.build(|cfg| PolicyKind::Jit.build(cfg), workload);
        sim.set_fast_forward(fast_forward);
        let report = sim.run().to_json().to_pretty();
        (report, sim)
    };
    let (on, sim) = run(true);
    let (off, _) = run(false);
    assert_eq!(on, off, "4-member YCSB: fast-forward changed the report");
    for (i, member) in sim.members().iter().enumerate() {
        assert_gaps_cost_their_warm_up_only(&format!("4-member YCSB, member {i}"), member);
    }
}

/// Runs one array scenario over an idle-heavy YCSB stream and returns
/// the report plus the aggregate skip and refusal counters.
fn array_run(config: &ArrayConfig, seed: u64, fast_forward: bool) -> (ArrayReport, u64, u64) {
    let columns = match config.redundancy {
        Redundancy::None => config.members,
        Redundancy::Mirror => config.members / 2,
    };
    let workload = bursty_idle_workload(
        &config.system,
        BenchmarkKind::Ycsb,
        columns as u64,
        1_500,
        seed,
    );
    let mut sim = config.build(|cfg| PolicyKind::Jit.build(cfg), workload);
    sim.set_fast_forward(fast_forward);
    let report = sim.run();
    let refused = sim.members().iter().map(|m| m.ff_refusals().total()).sum();
    (report, sim.ticks_skipped(), refused)
}

/// The array acceptance criterion: byte-identical reports with the
/// fast-forward on and off, on four striped members and at rack scale —
/// 64 aged, mirrored members with the wear-fault injector armed and eight
/// requests in flight, so replica routing reads both members' live GC
/// signals and every fault draw's position in a member's stream shows in
/// the report. The YCSB stream leaves dirty residue on every member, so
/// both arrays must skip over it.
#[test]
fn array_reports_are_identical_ff_on_and_off_across_drivers() {
    let striped = ArrayConfig {
        members: 4,
        chunk_pages: 16,
        redundancy: Redundancy::None,
        gc_mode: GcMode::Staggered,
        system: SystemConfig::small_for_tests(),
    };
    let mut rack = ArrayConfig {
        members: 64,
        redundancy: Redundancy::Mirror,
        ..striped.clone()
    };
    rack.system.queue_depth = 8;
    rack.system.prefill = true;
    rack.system.ftl = rack
        .system
        .ftl
        .to_builder()
        .endurance_limit(60)
        .fault(FaultConfig {
            seed: 9,
            program_rate: 0.05,
            erase_rate: 0.05,
            read_rate: 0.02,
            wear_scale: 40,
        })
        .build();
    for (name, config, seed) in [("4 striped", &striped, 11), ("64 mirrored", &rack, 5)] {
        let (off, skipped_off, refused_off) = array_run(config, seed, false);
        assert_eq!(skipped_off, 0, "{name}: off-run must never skip");
        assert_eq!(refused_off, 0, "{name}: off-run never asks");
        let (on, skipped, refused) = array_run(config, seed, true);
        assert_eq!(
            on.to_json().to_pretty(),
            off.to_json().to_pretty(),
            "{name}: fast-forward changed the array report"
        );
        assert!(
            skipped > 0 && refused > 0,
            "{name} never engaged the fast-forward — the identity proved nothing"
        );
        assert!(
            config.redundancy == Redundancy::None || (on.routed_reads > 0 && on.degraded.is_some()),
            "{name}: no read was routed or no fault drawn"
        );
    }
}

/// A tenant roster whose request streams leave long idle stretches:
/// two read-only tenants trickling a few requests across a long run and,
/// with `logger`, a third whose rare buffered writes leave the cache
/// dirty below `τ_flush` for the rest of the run.
fn idle_service_cfg(fast_forward: bool, logger: bool) -> ServiceConfig {
    let mut cfg = ServiceConfig::small_for_tests();
    cfg.tenants = (0..2)
        .map(|i| TenantSpec {
            name: format!("scanner-{i}"),
            weight: 1 + i,
            profile: TenantProfile::Reader,
            mean_iops: 0.004,
            concurrency: 1,
        })
        .collect();
    if logger {
        cfg.tenants.push(TenantSpec {
            name: "logger".to_owned(),
            weight: 1,
            profile: TenantProfile::Mixed,
            mean_iops: 0.002,
            concurrency: 1,
        });
    }
    cfg.seconds = 2_000;
    cfg.system.prefill = false;
    cfg.fast_forward = fast_forward;
    cfg
}

/// The service acceptance criterion: the deterministic service report is
/// byte-identical with the engine fast-forward on and off, and an
/// idle-heavy roster actually reaches quiescence behind the queue-pair
/// frontend — with a clean cache and with a buffered-writing tenant's
/// residue in it.
#[test]
fn service_reports_are_identical_ff_on_and_off() {
    let policy = |cfg: &ServiceConfig| PolicyKind::Jit.build(&cfg.system);
    for logger in [false, true] {
        let on_cfg = idle_service_cfg(true, logger);
        let (on, skipped_on, spans_on) = run_closed_loop_counting(&on_cfg, policy(&on_cfg));
        let off_cfg = idle_service_cfg(false, logger);
        let (off, skipped_off, _) = run_closed_loop_counting(&off_cfg, policy(&off_cfg));
        assert_eq!(
            on.to_json().to_pretty(),
            off.to_json().to_pretty(),
            "logger {logger}: fast-forward changed the service report"
        );
        assert_eq!(skipped_off, 0, "off-run must never skip");
        assert!(
            skipped_on > 0 && spans_on > 0,
            "logger {logger}: the idle roster never engaged the \
             fast-forward ({skipped_on} ticks in {spans_on} spans)"
        );
        if logger {
            let logged = on.tenants.iter().find(|t| t.name == "logger").unwrap();
            assert!(logged.completed > 0, "the logger never wrote");
        }
    }
}

/// The busy default mix must also be invariant (even though it rarely
/// goes quiescent): flipping the config switch on a writer-heavy roster
/// is a no-op on the report.
#[test]
fn service_default_mix_report_ignores_the_switch() {
    let mk = |fast_forward: bool| {
        let mut cfg = ServiceConfig::small_for_tests();
        cfg.seconds = 10;
        cfg.system.prefill = false;
        cfg.fast_forward = fast_forward;
        let policy = PolicyKind::Jit.build(&cfg.system);
        run_closed_loop_counting(&cfg, policy)
            .0
            .to_json()
            .to_pretty()
    };
    assert_eq!(mk(true), mk(false));
}

/// The memory regression: nothing grows with the tick count on long runs
/// — the queue of predictions still awaiting their horizon is all the
/// per-tick history there is — through the facade and with the
/// fast-forward in play.
#[test]
fn pending_predictions_stay_bounded_through_the_facade() {
    let system = SystemConfig::small_for_tests();
    let nwb = system.nwb();
    let workload = bursty_idle_workload(&system, BenchmarkKind::Ycsb, 1, 2_000, 13);
    let policy = PolicyKind::Jit.build(&system);
    let mut sim = SsdSystem::new(system, policy, workload);
    let _ = sim.run();
    assert!(
        sim.pending_predictions_len() <= nwb,
        "{} predictions pending (N_wb {nwb})",
        sim.pending_predictions_len()
    );
}
