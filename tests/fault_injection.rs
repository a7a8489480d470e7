//! End-of-life integration tests: wear-dependent fault injection and
//! graceful degradation through the full engine (workload → cache → FTL →
//! NAND), plus the byte-identity guarantee that makes the fault model safe
//! to ship — with every fault knob at zero, nothing anywhere in the
//! pipeline changes.

use jitgc_repro::array::{ArrayConfig, GcMode, Redundancy};
use jitgc_repro::core::policy::{GcPolicy, JitGc, NoBgc};
use jitgc_repro::core::system::{SimReport, SsdSystem, SystemConfig};
use jitgc_repro::nand::FaultConfig;
use jitgc_repro::sim::SimDuration;
use jitgc_repro::workload::{BenchmarkKind, Workload, WorkloadConfig};

fn workload_for(config: &SystemConfig, secs: u64, seed: u64) -> Box<dyn Workload> {
    let wl = WorkloadConfig::builder()
        .working_set_pages(config.standard_working_set().unwrap())
        .duration(SimDuration::from_secs(secs))
        .mean_iops(800.0)
        .burst_mean(256.0)
        .seed(seed)
        .build();
    BenchmarkKind::Ycsb.build(wl)
}

fn jit(config: &SystemConfig) -> Box<dyn GcPolicy> {
    Box::new(JitGc::from_system_config(config))
}

fn run(config: &SystemConfig, secs: u64, seed: u64) -> SimReport {
    SsdSystem::new(
        config.clone(),
        jit(config),
        workload_for(config, secs, seed),
    )
    .run()
}

/// A configuration whose fault model fires often enough to matter within a
/// short test run: low endurance, tiny wear scale, visible fault rates.
fn faulty_config() -> SystemConfig {
    let mut config = SystemConfig::small_for_tests();
    config.ftl = config
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
    config
}

/// The tentpole's safety guarantee: installing a fault model with every
/// rate at zero changes *nothing* — the serialized report is
/// byte-identical to a run without any fault configuration, for both the
/// standalone engine and a mirrored array.
#[test]
fn zero_rate_fault_model_is_byte_identical_to_none() {
    let base = SystemConfig::small_for_tests();
    let mut zeroed = base.clone();
    zeroed.ftl = zeroed
        .ftl
        .to_builder()
        .fault(FaultConfig::default())
        .build();
    assert!(
        !FaultConfig::default().is_active(),
        "default fault config must be inert"
    );

    let plain = run(&base, 15, 21).to_json().to_pretty();
    let inert = run(&zeroed, 15, 21).to_json().to_pretty();
    assert_eq!(plain, inert, "zero-rate fault model changed the report");

    let array_of = |system: &SystemConfig| {
        ArrayConfig {
            members: 2,
            chunk_pages: 16,
            redundancy: Redundancy::Mirror,
            gc_mode: GcMode::Staggered,
            system: system.clone(),
        }
        .build(jit, workload_for(system, 15, 21))
        .run()
        .to_json()
        .to_pretty()
    };
    assert_eq!(
        array_of(&base),
        array_of(&zeroed),
        "zero-rate fault model changed the array report"
    );
}

/// Satellite: a device with a tiny endurance budget must run all the way
/// to read-only mode through the full engine — no panic, no hang — and
/// report when it died and how much host data it accepted first.
#[test]
fn tiny_endurance_device_degrades_to_read_only_gracefully() {
    let mut config = SystemConfig::small_for_tests();
    config.ftl = config.ftl.to_builder().endurance_limit(2).build();

    let report = run(&config, 120, 3);
    let degraded = report
        .degraded
        .as_ref()
        .expect("an endurance-2 device must degrade within the run");
    assert!(degraded.read_only, "device should have gone read-only");
    assert!(degraded.retired_blocks > 0, "EOL without any retirement");
    let at = degraded
        .read_only_at_secs
        .expect("read-only must be timestamped");
    assert!(at <= report.duration_secs);
    let lifetime = degraded
        .lifetime_host_bytes
        .expect("read-only must fix the lifetime metric");
    assert!(lifetime > 0, "device accepted no host data before dying");
    // `host_pages_written` only grows after the read-only observation, so
    // the lifetime is bounded by the final count (both exclude prefill).
    let page = config.ftl.geometry().page_size().as_u64();
    assert!(lifetime <= report.host_pages_written * page);
    // The timeline ends with the read-only transition, exactly once.
    let read_only_events = degraded
        .events
        .iter()
        .filter(|e| e.kind == "read_only")
        .count();
    assert_eq!(read_only_events, 1, "read-only must be recorded once");
    assert_eq!(
        degraded.events.last().map(|e| e.kind.as_str()),
        Some("read_only"),
        "nothing degrades further after read-only"
    );
}

/// Same fault seed ⇒ same failure timeline, lifetime, and report — run to
/// run and across sweep worker-thread counts.
#[test]
fn fault_timeline_is_deterministic() {
    let config = faulty_config();
    let first = run(&config, 30, 7);
    let second = run(&config, 30, 7);
    assert!(
        first.degraded.is_some(),
        "fault rates were too low to exercise anything"
    );
    assert_eq!(
        first.to_json().to_pretty(),
        second.to_json().to_pretty(),
        "same fault seed produced different failure timelines"
    );

    let cells = [11u64, 12, 13, 14];
    let cell = |&seed: &u64| run(&config, 20, seed);
    let serial = jitgc_bench::run_grid(&cells, 1, cell);
    let threaded = jitgc_bench::run_grid(&cells, 4, cell);
    assert_eq!(serial, threaded, "thread count changed fault outcomes");

    // A different fault seed must actually change the outcome, otherwise
    // the determinism assertions above are vacuous.
    let mut reseeded = config.clone();
    let fault = FaultConfig {
        seed: 1_000,
        ..*config
            .ftl
            .fault()
            .expect("faulty_config sets a fault model")
    };
    reseeded.ftl = reseeded.ftl.to_builder().fault(fault).build();
    assert_ne!(
        run(&reseeded, 30, 7).to_json().to_pretty(),
        first.to_json().to_pretty(),
        "fault seed had no effect"
    );
}

/// Satellite: aging pre-fill is setup, not measurement — its programs and
/// erases must not leak into the reported wear or lifetime numbers.
#[test]
fn prefill_phase_is_excluded_from_wear_and_lifetime_reporting() {
    let mut config = SystemConfig::small_for_tests();
    config.prefill = true;
    let wl = WorkloadConfig::builder()
        .working_set_pages(config.standard_working_set().unwrap())
        .duration(SimDuration::from_secs(1))
        .mean_iops(50.0)
        .seed(2)
        .build();
    let report = SsdSystem::new(
        config.clone(),
        Box::new(NoBgc),
        BenchmarkKind::Ycsb.build(wl),
    )
    .run();

    // Prefill wrote the whole working set (~1 900 pages); a 1-second
    // 50-IOPS run cannot legitimately program even a tenth of that.
    let ws = config.standard_working_set().unwrap();
    assert!(
        report.nand_pages_programmed < ws / 10,
        "prefill programs leaked into the report: {} pages",
        report.nand_pages_programmed
    );
    assert!(report.host_pages_written < ws / 10);
    assert!(
        report.degraded.is_none(),
        "a fault-free prefill must not produce a degraded section"
    );
}

/// A 1-member array preserves the member's configured fault seed, so even
/// a *faulty* standalone run is byte-identical to its 1-member array
/// counterpart (`crates/array/tests/array_properties.rs` pins the
/// fault-free case).
#[test]
fn one_member_array_preserves_the_fault_stream() {
    let config = faulty_config();
    let single = run(&config, 20, 5).to_json().to_pretty();
    let array = ArrayConfig {
        members: 1,
        chunk_pages: 16,
        redundancy: Redundancy::None,
        gc_mode: GcMode::Staggered,
        system: config.clone(),
    }
    .build(jit, workload_for(&config, 20, 5))
    .run();
    assert_eq!(
        array.member_reports[0].to_json().to_pretty(),
        single,
        "1-member array diverged from the standalone engine under faults"
    );
}

/// Mirrored arrays keep serving reads that fail on one replica: the
/// scheduler re-reads the surviving copy and accounts the page as
/// recovered, not lost.
#[test]
fn mirror_recovers_uncorrectable_reads_from_the_surviving_replica() {
    // Read-fault-only configuration: the page cache absorbs ~95 % of
    // reads, so the rate has to be high for misses to fail visibly, and
    // endurance stays unlimited so wear (and with it the fault
    // probability) keeps growing for the whole run.
    let mut config = SystemConfig::small_for_tests();
    config.ftl = config
        .ftl
        .to_builder()
        .fault(FaultConfig {
            seed: 9,
            program_rate: 0.0,
            erase_rate: 0.0,
            read_rate: 0.3,
            wear_scale: 20,
        })
        .build();
    let report = ArrayConfig {
        members: 2,
        chunk_pages: 16,
        redundancy: Redundancy::Mirror,
        gc_mode: GcMode::Staggered,
        system: config.clone(),
    }
    .build(jit, workload_for(&config, 40, 13))
    .run();
    let degraded = report
        .degraded
        .expect("fault rates were too low to exercise the array");
    assert!(
        degraded.recovered_pages > 0,
        "no read was ever repaired from the mirror"
    );
    // Repairs must dominate: both replicas failing the same page needs two
    // independent low-probability faults.
    assert!(
        degraded.recovered_pages > degraded.lost_pages,
        "mirror lost more pages ({}) than it recovered ({})",
        degraded.lost_pages,
        degraded.recovered_pages
    );
}
