//! Parallel member stepping is an implementation detail: whatever worker
//! count drains the work-stealing quantum loop, the array report must be
//! **byte-identical** (as serialized JSON) to the request-at-a-time
//! `ArraySched::Serial` reference. That holds across striped and mirrored layouts, with
//! wear-dependent fault injection active (the fault timeline is part of
//! the identity, so a reordered RNG draw anywhere would show up here),
//! and at rack scale (64 members), where stealing actually moves work
//! between shards.

use jitgc_repro::array::{ArrayConfig, ArraySched, GcMode, Redundancy};
use jitgc_repro::core::policy::{GcPolicy, JitGc};
use jitgc_repro::core::system::SystemConfig;
use jitgc_repro::nand::FaultConfig;
use jitgc_repro::sim::SimDuration;
use jitgc_repro::workload::{BenchmarkKind, Workload, WorkloadConfig};

fn jit(config: &SystemConfig) -> Box<dyn GcPolicy> {
    Box::new(JitGc::from_system_config(config))
}

/// The standard sizing, scaled by the column count so each member carries
/// a standalone device's load.
fn workload_for(
    config: &SystemConfig,
    columns: u64,
    seed: u64,
    secs: u64,
    iops: f64,
) -> Box<dyn Workload> {
    let per_member = config.standard_working_set().unwrap();
    BenchmarkKind::Ycsb.build(
        WorkloadConfig::builder()
            .working_set_pages(per_member * columns)
            .duration(SimDuration::from_secs(secs))
            .mean_iops(iops * columns as f64)
            .burst_mean(128.0)
            .seed(seed)
            .build(),
    )
}

fn array_json(
    system: &SystemConfig,
    members: usize,
    redundancy: Redundancy,
    sched: ArraySched,
    member_threads: usize,
    seed: u64,
    (secs, iops): (u64, f64),
) -> String {
    let columns = match redundancy {
        Redundancy::None => members as u64,
        Redundancy::Mirror => members as u64 / 2,
    };
    ArrayConfig {
        members,
        chunk_pages: 16,
        redundancy,
        gc_mode: GcMode::Staggered,
        sched,
        member_threads,
        system: system.clone(),
    }
    .build(jit, workload_for(system, columns, seed, secs, iops))
    .run()
    .to_json()
    .to_pretty()
}

/// Worker counts of the quantum loop compared against the serial
/// reference: 1 drains every queue on the driver thread, the others
/// spawn workers that steal.
const STEAL_THREADS: [usize; 3] = [1, 2, 4];

/// Striped (no redundancy): members only interact through routing-free
/// address splitting, so every quantum runs fully parallel.
#[test]
fn striped_array_is_identical_for_any_worker_count() {
    let system = SystemConfig::small_for_tests();
    let serial = array_json(
        &system,
        4,
        Redundancy::None,
        ArraySched::Serial,
        1,
        42,
        (15, 400.0),
    );
    for threads in STEAL_THREADS {
        assert_eq!(
            serial,
            array_json(
                &system,
                4,
                Redundancy::None,
                ArraySched::Steal,
                threads,
                42,
                (15, 400.0)
            ),
            "striped report diverged at {threads} member threads"
        );
    }
}

/// Mirrored: replica-routed reads are cross-member decisions, so quanta
/// get truncated at serial points — the report must still match exactly.
#[test]
fn mirrored_array_is_identical_for_any_worker_count() {
    let system = SystemConfig::small_for_tests();
    let serial = array_json(
        &system,
        4,
        Redundancy::Mirror,
        ArraySched::Serial,
        1,
        7,
        (15, 400.0),
    );
    for threads in STEAL_THREADS {
        assert_eq!(
            serial,
            array_json(
                &system,
                4,
                Redundancy::Mirror,
                ArraySched::Steal,
                threads,
                7,
                (15, 400.0)
            ),
            "mirrored report diverged at {threads} member threads"
        );
    }
}

/// A `small_for_tests` system with the wear-fault injector armed.
fn faulty_system() -> SystemConfig {
    let mut system = SystemConfig::small_for_tests();
    system.ftl = system
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
    system
}

/// With fault injection firing, every RNG draw's position in the
/// per-member stream is observable through the failure timeline: parallel
/// stepping must reproduce it draw for draw.
#[test]
fn faulty_array_is_identical_for_any_worker_count() {
    let system = faulty_system();
    for redundancy in [Redundancy::None, Redundancy::Mirror] {
        let serial = array_json(
            &system,
            4,
            redundancy,
            ArraySched::Serial,
            1,
            21,
            (15, 400.0),
        );
        for threads in STEAL_THREADS {
            assert_eq!(
                serial,
                array_json(
                    &system,
                    4,
                    redundancy,
                    ArraySched::Steal,
                    threads,
                    21,
                    (15, 400.0)
                ),
                "faulty {redundancy:?} report diverged at {threads} member threads"
            );
        }
    }
}

/// Rack scale: 64 mirrored members with fault injection and a deep
/// queue, so quanta are long, mirrored-read serial points are frequent,
/// and the shards actually exchange work. Reports must be byte-identical
/// to the serial reference across {1, 4, 8} threads — the acceptance
/// criterion for the work-stealing scheduler.
#[test]
fn rack_scale_array_is_identical_for_any_worker_count_and_driver() {
    let mut system = faulty_system();
    system.queue_depth = 8;
    let run = |sched, threads| {
        array_json(
            &system,
            64,
            Redundancy::Mirror,
            sched,
            threads,
            5,
            (3, 150.0),
        )
    };
    let serial = run(ArraySched::Serial, 1);
    for threads in [1, 4, 8] {
        assert_eq!(
            serial,
            run(ArraySched::Steal, threads),
            "64-member report diverged at {threads} member threads"
        );
    }
}
