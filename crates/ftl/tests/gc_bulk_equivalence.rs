//! The bulk GC migration path (vectorized `copy_pages` calls, budget-aware
//! for background GC) must be observationally identical to the per-page
//! migrate loop it replaced — op for op, counter for counter, fault draw
//! for fault draw, budget stop for budget stop. These tests drive the same
//! deterministic op stream through a bulk FTL and a looped FTL
//! (`set_bulk_gc(false)`) with wear-dependent fault injection active, and
//! require the full observable trace to match: every op result, final
//! stats, device stats, the degrade-event timeline, retirements, and the
//! complete logical-to-physical mapping, every block's wear, write pointer
//! and valid / invalid counts, and the reclaimable capacity.
//!
//! What is private to the FTL (free-pool order, victim index, per-block
//! recency and SIP counts) decides which victim the *next* collection
//! picks and which block the next write opens, so a divergence there
//! surfaces in the ops that follow: every stream runs on past each
//! migration. The same suite passes in debug and release builds; nothing
//! inside the FTL replays a migration.

use jitgc_ftl::{
    BgcOutcome, CostBenefitSelector, FifoSelector, Ftl, FtlConfig, GreedySelector, Lpn,
    RandomSelector, VictimSelector,
};
use jitgc_nand::{FaultConfig, NandTiming};
use jitgc_sim::check::check;
use jitgc_sim::{SimDuration, SimRng, SimTime};

const USER_PAGES: u64 = 64;
const PAGES_PER_BLOCK: u64 = 8;

type Selector = fn() -> Box<dyn VictimSelector>;

/// Greedy reads valid counts only; cost-benefit and FIFO read each
/// block's recency, and the random selector's draws depend on the order
/// and size of every candidate set it has seen.
const SELECTORS: [Selector; 4] = [
    || Box::new(GreedySelector),
    || Box::new(CostBenefitSelector),
    || Box::new(FifoSelector),
    || Box::new(RandomSelector::new(7)),
];

/// The device a test runs on, built twice: once per migration path.
#[derive(Clone, Copy)]
struct Rig {
    fault: Option<FaultConfig>,
    endurance: u64,
    op_permille: u64,
    gc_reserve_blocks: u32,
    selector: Selector,
}

impl Rig {
    fn new(fault: Option<FaultConfig>, endurance: u64) -> Self {
        Rig {
            fault,
            endurance,
            op_permille: 250,
            gc_reserve_blocks: 2,
            selector: SELECTORS[0],
        }
    }

    fn build(self, bulk: bool) -> Ftl {
        let mut builder = FtlConfig::builder()
            .user_pages(USER_PAGES)
            .op_permille(self.op_permille)
            .pages_per_block(PAGES_PER_BLOCK as u32)
            .gc_reserve_blocks(self.gc_reserve_blocks)
            .endurance_limit(self.endurance);
        if let Some(fault) = self.fault {
            builder = builder.fault(fault);
        }
        let mut ftl = Ftl::new(builder.build(), (self.selector)());
        ftl.set_bulk_gc(bulk);
        ftl
    }
}

fn migrate_cost() -> SimDuration {
    NandTiming::mlc_20nm().page_migrate_cost()
}

/// Appends everything observable about the FTL's state.
fn observe(ftl: &Ftl, trace: &mut Vec<String>) {
    trace.push(format!("{:?}", ftl.stats()));
    trace.push(format!("{:?}", ftl.device().stats()));
    trace.push(format!("{:?}", ftl.degrade_events()));
    trace.push(format!(
        "retired={} read_only={} free={} reclaimable={}",
        ftl.retired_pages(),
        ftl.read_only(),
        ftl.free_pages(),
        ftl.reclaimable_capacity().as_u64()
    ));
    for lpn in 0..USER_PAGES {
        trace.push(format!("{:?}", ftl.lookup(Lpn(lpn))));
    }
    let device = ftl.device();
    for id in device.geometry().block_ids() {
        let block = device.block(id);
        trace.push(format!(
            "{id}: erases={} next_free={:?} valid={} invalid={}",
            block.erase_count(),
            block.next_free_offset(),
            block.valid_pages(),
            block.invalid_pages()
        ));
    }
}

/// Runs `script` against a bulk and a looped FTL built alike and requires
/// identical traces.
fn assert_equivalent_with(rig: Rig, label: &str, mut script: impl FnMut(&mut Ftl) -> Vec<String>) {
    let mut bulk = rig.build(true);
    let mut looped = rig.build(false);
    let bulk_trace = script(&mut bulk);
    let looped_trace = script(&mut looped);
    for (i, (b, l)) in bulk_trace.iter().zip(&looped_trace).enumerate() {
        assert_eq!(
            b, l,
            "bulk and looped GC diverged at trace entry {i} ({label})"
        );
    }
    assert_eq!(bulk_trace.len(), looped_trace.len());
}

/// Runs a seeded op mix (writes under GC pressure, trims, budgeted BGC,
/// wear-level sweeps) and returns the complete observable trace.
fn drive(ftl: &mut Ftl, seed: u64, steps: u64) -> Vec<String> {
    let mut rng = SimRng::seed(seed);
    let mut trace = Vec::with_capacity(steps as usize + 8);
    for t in 1..=steps {
        let now = SimTime::from_millis(t);
        let entry = match rng.range_u64(0, 12) {
            0 => format!("{:?}", ftl.trim(Lpn(rng.range_u64(0, USER_PAGES)), now)),
            1 => {
                let budget = SimDuration::from_millis(rng.range_u64(1, 50));
                format!("{:?}", ftl.background_collect(now, budget, None))
            }
            2 => format!("{:?}", ftl.wear_level(now)),
            _ => format!(
                "{:?}",
                ftl.host_write(Lpn(rng.range_u64(0, USER_PAGES)), now)
            ),
        };
        trace.push(entry);
    }
    observe(ftl, &mut trace);
    trace
}

fn assert_equivalent(fault: Option<FaultConfig>, endurance: u64, seed: u64) {
    assert_equivalent_with(
        Rig::new(fault, endurance),
        &format!("op seed {seed}"),
        |ftl| drive(ftl, seed, 400),
    );
}

/// Fault-free device: the easy case, but it exercises the chunked
/// `copy_pages` resume protocol across GC-block boundaries.
#[test]
fn bulk_equals_looped_without_faults() {
    for seed in [1, 7, 42] {
        assert_equivalent(None, 1_000, seed);
    }
}

/// Active fault injection: read failures, program retries, and erase
/// retirements all land mid-migration, so the RNG stream position after
/// every victim is part of the identity — same seed, same retirements,
/// same degrade-event timeline on both paths.
#[test]
fn bulk_equals_looped_under_active_faults() {
    let fault = FaultConfig {
        seed: 9,
        program_rate: 0.08,
        erase_rate: 0.08,
        read_rate: 0.04,
        wear_scale: 10,
    };
    for seed in [3, 11, 29] {
        assert_equivalent(Some(fault), 8, seed);
    }
}

/// A tiny endurance budget drives both FTLs all the way to read-only:
/// the end-of-life trajectory (which blocks retire, when the pool
/// collapses) must be identical.
#[test]
fn bulk_equals_looped_through_end_of_life() {
    let fault = FaultConfig {
        seed: 5,
        program_rate: 0.15,
        erase_rate: 0.15,
        read_rate: 0.05,
        wear_scale: 6,
    };
    for seed in [2, 13] {
        assert_equivalent(Some(fault), 4, seed);
    }
}

// ----------------------------------------------------------------------
// Budgeted background GC
// ----------------------------------------------------------------------

/// Overwrites random pages until sealed blocks hold a mix of valid and
/// invalid pages, so background GC has partially live victims to work on.
fn age(ftl: &mut Ftl, seed: u64, writes: u64) {
    let mut rng = SimRng::seed(seed);
    for t in 1..=writes {
        let lpn = Lpn(rng.range_u64(0, USER_PAGES));
        // End-of-life devices reject writes; the scripts tolerate that.
        let _ = ftl.host_write(lpn, SimTime::from_micros(t));
    }
}

fn bgc(ftl: &mut Ftl, now_ms: u64, budget: SimDuration, trace: &mut Vec<String>) -> BgcOutcome {
    let outcome = ftl.background_collect(SimTime::from_millis(now_ms), budget, None);
    trace.push(format!("{outcome:?}"));
    outcome
}

/// Every budget from nothing to a little over one full block's cost, in
/// half-page steps: each page-count boundary and the erase gate are
/// crossed, and the resumed calls that follow pick the victim up where
/// the budget left it.
#[test]
fn budget_sweep_stops_on_the_same_page() {
    let timing = NandTiming::mlc_20nm();
    let block_cost = migrate_cost() * PAGES_PER_BLOCK + timing.block_erase_cost();
    let half_page = migrate_cost().as_micros() / 2;
    let mut pages_seen = std::collections::BTreeSet::new();
    let mut erase_gate_refused = false;
    for budget_us in (0..=block_cost.as_micros() + 2 * half_page).step_by(half_page as usize) {
        let budget = SimDuration::from_micros(budget_us);
        assert_equivalent_with(Rig::new(None, 1_000), &format!("budget {budget}"), |ftl| {
            age(ftl, 17, 300);
            let mut trace = Vec::new();
            let first = bgc(ftl, 1_000, budget, &mut trace);
            if first.pages_migrated > 0 && budget < migrate_cost() * (first.pages_migrated + 1) {
                // No slack for another page: a page-count boundary.
                pages_seen.insert(first.pages_migrated);
            }
            erase_gate_refused |= first.pages_migrated > 0 && first.blocks_erased == 0;
            // Resume twice with the same budget.
            bgc(ftl, 1_001, budget, &mut trace);
            bgc(ftl, 1_002, budget, &mut trace);
            observe(ftl, &mut trace);
            trace
        });
    }
    assert!(
        pages_seen.len() >= 3,
        "sweep should stop at several distinct page counts: {pages_seen:?}"
    );
    assert!(
        erase_gate_refused,
        "some budget should migrate pages yet refuse the erase"
    );
}

/// A budget that affords neither a page nor an erase performs no device
/// operation at all (victim selection is FTL bookkeeping, not device work).
#[test]
fn zero_page_budget_performs_no_device_op() {
    let one_us = SimDuration::from_micros(1);
    for budget in [SimDuration::ZERO, one_us, migrate_cost() - one_us] {
        assert_equivalent_with(Rig::new(None, 1_000), &format!("budget {budget}"), |ftl| {
            age(ftl, 17, 300);
            let device_before = *ftl.device().stats();
            let mut trace = Vec::new();
            for call in 0..3 {
                let outcome = bgc(ftl, 1_000 + call, budget, &mut trace);
                assert_eq!(outcome, BgcOutcome::default());
            }
            assert_eq!(*ftl.device().stats(), device_before);
            // The next affordable call starts from the same place either way.
            bgc(ftl, 2_000, migrate_cost() * 3, &mut trace);
            observe(ftl, &mut trace);
            trace
        });
    }
}

/// What a preempted stream met: BGC calls that left their victim
/// unfinished, and pages a call read but then could not place (no GC
/// scratch block).
#[derive(Default)]
struct Preemption {
    unfinished_calls: u64,
    dropped_reads: u64,
}

/// Runs a seeded stream of small-budget BGC calls interleaved with host
/// overwrites and trims — the preemption pattern: a victim is resumed
/// across many calls while the host invalidates its pages in between.
fn preempted_stream(ftl: &mut Ftl, seed: u64, steps: u64, seen: &mut Preemption) -> Vec<String> {
    let mut rng = SimRng::seed(seed);
    let mut trace = Vec::with_capacity(steps as usize + 80);
    for t in 1..=steps {
        let now = SimTime::from_millis(10_000 + t);
        let entry = match rng.range_u64(0, 10) {
            0..=4 => {
                // Half a page to three and a half pages.
                let budget = SimDuration::from_micros(
                    migrate_cost().as_micros() * rng.range_u64(1, 8) / 2 + rng.range_u64(0, 3),
                );
                let reads_before = gc_reads(ftl);
                let outcome = ftl.background_collect(now, budget, None);
                if outcome.pages_migrated > 0 && outcome.blocks_erased == 0 {
                    seen.unfinished_calls += 1;
                }
                seen.dropped_reads += gc_reads(ftl) - reads_before - outcome.pages_migrated;
                format!("{outcome:?}")
            }
            5 | 6 => format!("{:?}", ftl.trim(Lpn(rng.range_u64(0, USER_PAGES)), now)),
            _ => format!(
                "{:?}",
                ftl.host_write(Lpn(rng.range_u64(0, USER_PAGES)), now)
            ),
        };
        trace.push(entry);
    }
    observe(ftl, &mut trace);
    trace
}

/// Source reads the device has served or failed; sampled around a BGC
/// call, the difference is the pages that call read.
fn gc_reads(ftl: &Ftl) -> u64 {
    let stats = ftl.device().stats();
    stats.reads + stats.read_failures
}

#[test]
fn resumed_victim_sees_host_overwrites_and_trims_between_calls() {
    let mut seen = Preemption::default();
    for seed in [4, 19, 77] {
        assert_equivalent_with(Rig::new(None, 1_000), &format!("op seed {seed}"), |ftl| {
            age(ftl, seed, 300);
            preempted_stream(ftl, seed, 600, &mut seen)
        });
    }
    assert!(
        seen.unfinished_calls > 50,
        "victims should be resumed across calls ({} unfinished)",
        seen.unfinished_calls
    );
}

/// Program failures at a rate (≈ 40 % on the worn blocks) that regularly
/// uses up an 8-page destination block in the middle of a page: the page
/// then spans two GC blocks, its read is not repeated, and its retries
/// count against the budget. Doubled over-provisioning keeps the device
/// writable while failed programs burn pages.
#[test]
fn program_retries_that_exhaust_the_destination_mid_page() {
    let mut retries = 0;
    let mut seen = Preemption::default();
    for seed in [6, 23, 58] {
        let fault = FaultConfig {
            seed,
            program_rate: 0.5,
            erase_rate: 0.0,
            read_rate: 0.1,
            wear_scale: 8,
        };
        let rig = Rig {
            op_permille: 1_000,
            ..Rig::new(Some(fault), 1_000)
        };
        assert_equivalent_with(rig, &format!("seed {seed}"), |ftl| {
            age(ftl, seed, 600);
            assert!(!ftl.read_only(), "aging must leave the device writable");
            let retries_before = ftl.stats().program_retries;
            let trace = preempted_stream(ftl, seed, 600, &mut seen);
            retries += ftl.stats().program_retries - retries_before;
            trace
        });
    }
    assert!(retries > 1_000, "only {retries} program retries");
    assert!(seen.unfinished_calls > 100);
}

/// Erase failures and a four-cycle endurance limit retire blocks until
/// the free pool is empty while a victim is half collected: the page BGC
/// has just read finds no GC scratch block, the call gives up, and the
/// page's cost is dropped.
#[test]
fn retirements_that_empty_the_pool_mid_victim() {
    let mut seen = Preemption::default();
    let mut retired = 0;
    for seed in 0..12 {
        let fault = FaultConfig {
            seed,
            program_rate: 0.3,
            erase_rate: 0.9,
            read_rate: 0.05,
            wear_scale: 10,
        };
        let rig = Rig {
            gc_reserve_blocks: 1,
            ..Rig::new(Some(fault), 4)
        };
        assert_equivalent_with(rig, &format!("seed {seed}"), |ftl| {
            age(ftl, seed, 150);
            let trace = preempted_stream(ftl, seed, 600, &mut seen);
            retired += ftl.stats().retired_blocks;
            trace
        });
    }
    assert!(retired > 0, "no block retired");
    assert!(
        seen.dropped_reads > 0,
        "no call ran out of GC scratch blocks with a page in flight"
    );
}

/// For arbitrary op mixes (BGC budgets from a fraction of a page to
/// several blocks, with and without a free-page target, between SIP-list
/// installs that steer the filtered victim choice), any victim selector
/// and arbitrary fault-rate corners, all the way to end of life, bulk and looped
/// migration are indistinguishable — after every op, not only at the end
/// of the stream. 64 cases of up to 300 ops.
#[test]
fn seeded_op_streams_at_random_fault_corners() {
    #[derive(Debug)]
    enum Op {
        Write(u64),
        Trim(u64),
        Bgc(SimDuration, Option<u64>),
        WearLevel,
        InstallSip(Vec<u64>),
    }
    check(0xB6C0, 64, |g| {
        let fault = FaultConfig {
            seed: g.any_u64(),
            program_rate: g.u64(0, 200) as f64 / 1_000.0,
            erase_rate: g.u64(0, 200) as f64 / 1_000.0,
            read_rate: g.u64(0, 200) as f64 / 1_000.0,
            wear_scale: 10,
        };
        let rig = Rig {
            selector: g.pick(&SELECTORS),
            ..Rig::new(Some(fault), 8)
        };
        let ops = g.vec(1, 300, |g| match g.weighted(&[6, 1, 1, 1, 1, 1]) {
            0 => Op::Write(g.u64(0, USER_PAGES)),
            1 => Op::Trim(g.u64(0, USER_PAGES)),
            2 => Op::Bgc(SimDuration::from_millis(g.u64(1, 50)), None),
            // Sub-page to few-page budgets: where the in-copy gate stops.
            3 => Op::Bgc(
                SimDuration::from_micros(g.u64(0, 2_000)),
                Some(g.u64(0, 3 * PAGES_PER_BLOCK)),
            ),
            4 => Op::WearLevel,
            _ => Op::InstallSip(g.vec(0, 24, |g| g.u64(0, USER_PAGES))),
        });
        assert_equivalent_with(rig, "random stream", |ftl| {
            let mut trace = Vec::new();
            for (t, op) in ops.iter().enumerate() {
                let now = SimTime::from_millis(t as u64 + 1);
                trace.push(match op {
                    Op::Write(lpn) => format!("{:?}", ftl.host_write(Lpn(*lpn), now)),
                    Op::Trim(lpn) => format!("{:?}", ftl.trim(Lpn(*lpn), now)),
                    Op::Bgc(budget, target) => {
                        format!("{:?}", ftl.background_collect(now, *budget, *target))
                    }
                    Op::WearLevel => format!("{:?}", ftl.wear_level(now)),
                    Op::InstallSip(lpns) => {
                        let displaced =
                            ftl.install_sip_list(lpns.iter().map(|&lpn| Lpn(lpn)).collect());
                        format!("sip: displaced {}", displaced.len())
                    }
                });
                // Any op can migrate (a write through foreground GC).
                observe(ftl, &mut trace);
            }
            trace
        });
    });
}
