//! `Ftl` against the naive reference FTL of `reference_ftl/`: the same op
//! stream drives both, and after every op the two must agree on the op's
//! result and on everything observable — FTL and device stats, the degrade
//! timeline, retired pages, the read-only flag, free and reclaimable
//! capacity, the WAF, the LPNs of the last failed reads, every `lookup`,
//! and each block's `(erase_count, next_free_offset, valid, invalid)`.
//!
//! The reference shares no mechanism with `Ftl`: it keeps a flat map,
//! scans for victims and free blocks, recounts SIP counts at each
//! selection and migrates GC pages one at a time ("looped"), while `Ftl`
//! copies them in budgeted bulk calls ("bulk"). So the tests hold the bulk
//! copy path and everything around it — free pool, victim index, SIP
//! counts, the BGC loop, retirement and hot/cold routing — to the plain
//! statement of what they do. Wear-dependent fault injection runs in most
//! scenarios, so every device operation must also happen in the same order
//! on both sides: a seeded fault model draws the same failures only then.
//! What is private to either side (free-pool order, candidates, recency,
//! SIP counts) decides the next victim and the next block opened, so a
//! divergence there surfaces in the ops that follow.

mod reference_ftl;

use jitgc_ftl::{
    BgcOutcome, CostBenefitSelector, DegradeEvent, FifoSelector, Ftl, FtlConfig, FtlError,
    FtlStats, GreedySelector, Lpn, Ppn, RandomSelector, SipList, VictimSelector,
};
use jitgc_nand::{FaultConfig, NandStats, NandTiming};
use jitgc_sim::check::check;
use jitgc_sim::{SimDuration, SimRng, SimTime};
use reference_ftl::ReferenceFtl;
use std::fmt::Debug;

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

/// The device a test runs on, built once for `Ftl` and once for the
/// reference.
#[derive(Clone, Copy)]
struct Rig {
    fault: Option<FaultConfig>,
    endurance: u64,
    op_permille: u64,
    gc_reserve_blocks: u32,
    hot_window: Option<SimDuration>,
    selector: Selector,
}

impl Rig {
    fn new(fault: Option<FaultConfig>, endurance: u64) -> Self {
        Rig {
            fault,
            endurance,
            op_permille: 250,
            gc_reserve_blocks: 2,
            hot_window: None,
            selector: SELECTORS[0],
        }
    }

    fn pair(self, label: &str) -> Pair {
        let mut builder = FtlConfig::builder()
            .user_pages(USER_PAGES)
            .op_permille(self.op_permille)
            .pages_per_block(PAGES_PER_BLOCK as u32)
            .gc_reserve_blocks(self.gc_reserve_blocks)
            .endurance_limit(self.endurance);
        if let Some(fault) = self.fault {
            builder = builder.fault(fault);
        }
        if let Some(window) = self.hot_window {
            builder = builder.hot_cold_streams(window);
        }
        let config = builder.build();
        Pair {
            ftl: Ftl::new(config.clone(), (self.selector)()),
            reference: ReferenceFtl::new(config, (self.selector)()),
            label: label.to_owned(),
            ops: 0,
        }
    }
}

/// Everything the tests compare after an op.
#[derive(Debug, PartialEq)]
struct Observed {
    stats: FtlStats,
    device: NandStats,
    degrade_events: Vec<DegradeEvent>,
    retired_pages: u64,
    read_only: bool,
    free_pages: u64,
    reclaimable_bytes: u64,
    waf: Option<f64>,
    failed_read_lpns: Vec<Lpn>,
    /// Every LPN, plus one past the end (an out-of-range error).
    lookups: Vec<Result<Option<Ppn>, FtlError>>,
    /// Per block: erase count, next free offset, valid and invalid pages.
    blocks: Vec<(u64, Option<u32>, u32, u32)>,
}

impl Observed {
    fn of_ftl(ftl: &Ftl) -> Self {
        let device = ftl.device();
        Observed {
            stats: *ftl.stats(),
            device: *device.stats(),
            degrade_events: ftl.degrade_events().to_vec(),
            retired_pages: ftl.retired_pages(),
            read_only: ftl.read_only(),
            free_pages: ftl.free_pages(),
            reclaimable_bytes: ftl.reclaimable_capacity().as_u64(),
            waf: ftl.waf(),
            failed_read_lpns: ftl.failed_read_lpns().to_vec(),
            lookups: (0..=USER_PAGES).map(|lpn| ftl.lookup(Lpn(lpn))).collect(),
            blocks: blocks(device),
        }
    }

    fn of_reference(reference: &ReferenceFtl) -> Self {
        let device = reference.device();
        Observed {
            stats: *reference.stats(),
            device: *device.stats(),
            degrade_events: reference.degrade_events().to_vec(),
            retired_pages: reference.retired_pages(),
            read_only: reference.read_only(),
            free_pages: reference.free_pages(),
            reclaimable_bytes: reference.reclaimable_capacity().as_u64(),
            waf: reference.waf(),
            failed_read_lpns: reference.failed_read_lpns().to_vec(),
            lookups: (0..=USER_PAGES)
                .map(|lpn| reference.lookup(Lpn(lpn)))
                .collect(),
            blocks: blocks(device),
        }
    }

    /// Field by field, so a failure names what diverged.
    fn assert_matches(&self, reference: &Observed, at: &str) {
        macro_rules! same {
            ($($field:ident),*) => {$(
                assert_eq!(
                    self.$field, reference.$field,
                    "{at}: `{}` of Ftl (left) and the reference (right) differ",
                    stringify!($field)
                );
            )*};
        }
        same!(
            stats,
            device,
            degrade_events,
            retired_pages,
            read_only,
            free_pages,
            reclaimable_bytes,
            waf,
            failed_read_lpns,
            lookups,
            blocks
        );
    }
}

fn blocks(device: &jitgc_nand::NandDevice) -> Vec<(u64, Option<u32>, u32, u32)> {
    device
        .geometry()
        .block_ids()
        .map(|id| {
            let block = device.block(id);
            (
                block.erase_count(),
                block.next_free_offset(),
                block.valid_pages(),
                block.invalid_pages(),
            )
        })
        .collect()
}

/// `Ftl` and the reference, driven op for op: each method runs the op on
/// both and requires equal results and equal [`Observed`] state.
struct Pair {
    ftl: Ftl,
    reference: ReferenceFtl,
    label: String,
    ops: u64,
}

impl Pair {
    fn agree<T: PartialEq + Debug>(&mut self, op: &str, got: T, want: T) {
        self.ops += 1;
        let (ftl, reference) = (
            Observed::of_ftl(&self.ftl),
            Observed::of_reference(&self.reference),
        );
        if got != want || ftl != reference {
            let at = format!("{}, op {} ({op})", self.label, self.ops);
            assert_eq!(
                got, want,
                "{at}: results of Ftl (left) and the reference (right) differ"
            );
            ftl.assert_matches(&reference, &at);
        }
    }

    fn host_write(&mut self, lpn: u64, now: SimTime) {
        let got = self.ftl.host_write(Lpn(lpn), now);
        let want = self.reference.host_write(Lpn(lpn), now);
        self.agree("host_write", got, want);
    }

    fn host_write_batch(&mut self, lpns: &[Lpn], now: SimTime) {
        let got = self.ftl.host_write_batch(lpns, now);
        let want = self.reference.host_write_batch(lpns, now);
        self.agree("host_write_batch", got, want);
    }

    fn host_read_batch(&mut self, lpns: &[Lpn], now: SimTime) {
        let got = self.ftl.host_read_batch(lpns, now);
        let want = self.reference.host_read_batch(lpns, now);
        self.agree("host_read_batch", got, want);
    }

    fn trim(&mut self, lpn: u64, now: SimTime) {
        let got = self.ftl.trim(Lpn(lpn), now);
        let want = self.reference.trim(Lpn(lpn), now);
        self.agree("trim", got, want);
    }

    fn background_collect(
        &mut self,
        now: SimTime,
        budget: SimDuration,
        target_free_pages: Option<u64>,
    ) -> BgcOutcome {
        let got = self.ftl.background_collect(now, budget, target_free_pages);
        let want = self
            .reference
            .background_collect(now, budget, target_free_pages);
        self.agree("background_collect", got, want);
        got
    }

    fn wear_level(&mut self, now: SimTime) {
        let got = self.ftl.wear_level(now);
        let want = self.reference.wear_level(now);
        self.agree("wear_level", got, want);
    }

    fn install_sip_list(&mut self, lpns: &[u64]) {
        let sip: SipList = lpns.iter().map(|&lpn| Lpn(lpn)).collect();
        let want = self.reference.install_sip_list(&sip);
        let got: Vec<Lpn> = self.ftl.install_sip_list(sip).iter().collect();
        self.agree("install_sip_list", got, want);
    }
}

fn migrate_cost() -> SimDuration {
    NandTiming::mlc_20nm().page_migrate_cost()
}

/// Runs a seeded op mix (writes under GC pressure, trims, budgeted BGC,
/// wear-level sweeps).
fn drive(pair: &mut Pair, seed: u64, steps: u64) {
    let mut rng = SimRng::seed(seed);
    for t in 1..=steps {
        let now = SimTime::from_millis(t);
        match rng.range_u64(0, 12) {
            0 => pair.trim(rng.range_u64(0, USER_PAGES), now),
            1 => {
                let budget = SimDuration::from_millis(rng.range_u64(1, 50));
                pair.background_collect(now, budget, None);
            }
            2 => pair.wear_level(now),
            _ => pair.host_write(rng.range_u64(0, USER_PAGES), now),
        }
    }
}

fn assert_equivalent(fault: Option<FaultConfig>, endurance: u64, seed: u64) {
    let mut pair = Rig::new(fault, endurance).pair(&format!("op seed {seed}"));
    drive(&mut pair, seed, 400);
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
/// same degrade-event timeline on both sides.
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
fn age(pair: &mut Pair, seed: u64, writes: u64) {
    let mut rng = SimRng::seed(seed);
    for t in 1..=writes {
        // End-of-life devices reject writes; both sides must agree on it.
        pair.host_write(rng.range_u64(0, USER_PAGES), SimTime::from_micros(t));
    }
}

fn bgc(pair: &mut Pair, now_ms: u64, budget: SimDuration) -> BgcOutcome {
    pair.background_collect(SimTime::from_millis(now_ms), budget, None)
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
        let mut pair = Rig::new(None, 1_000).pair(&format!("budget {budget}"));
        age(&mut pair, 17, 300);
        let first = bgc(&mut pair, 1_000, budget);
        if first.pages_migrated > 0 && budget < migrate_cost() * (first.pages_migrated + 1) {
            // No slack for another page: a page-count boundary.
            pages_seen.insert(first.pages_migrated);
        }
        erase_gate_refused |= first.pages_migrated > 0 && first.blocks_erased == 0;
        // Resume twice with the same budget.
        bgc(&mut pair, 1_001, budget);
        bgc(&mut pair, 1_002, budget);
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
        let mut pair = Rig::new(None, 1_000).pair(&format!("budget {budget}"));
        age(&mut pair, 17, 300);
        let device_before = *pair.ftl.device().stats();
        for call in 0..3 {
            let outcome = bgc(&mut pair, 1_000 + call, budget);
            assert_eq!(outcome, BgcOutcome::default());
        }
        assert_eq!(*pair.ftl.device().stats(), device_before);
        // The next affordable call starts from the same place on both sides.
        bgc(&mut pair, 2_000, migrate_cost() * 3);
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
fn preempted_stream(pair: &mut Pair, seed: u64, steps: u64, seen: &mut Preemption) {
    let mut rng = SimRng::seed(seed);
    for t in 1..=steps {
        let now = SimTime::from_millis(10_000 + t);
        match rng.range_u64(0, 10) {
            0..=4 => {
                // Half a page to three and a half pages.
                let budget = SimDuration::from_micros(
                    migrate_cost().as_micros() * rng.range_u64(1, 8) / 2 + rng.range_u64(0, 3),
                );
                let reads_before = gc_reads(&pair.ftl);
                let outcome = pair.background_collect(now, budget, None);
                if outcome.pages_migrated > 0 && outcome.blocks_erased == 0 {
                    seen.unfinished_calls += 1;
                }
                seen.dropped_reads += gc_reads(&pair.ftl) - reads_before - outcome.pages_migrated;
            }
            5 | 6 => pair.trim(rng.range_u64(0, USER_PAGES), now),
            _ => pair.host_write(rng.range_u64(0, USER_PAGES), now),
        }
    }
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
        let mut pair = Rig::new(None, 1_000).pair(&format!("op seed {seed}"));
        age(&mut pair, seed, 300);
        preempted_stream(&mut pair, seed, 600, &mut seen);
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
        let mut pair = rig.pair(&format!("seed {seed}"));
        age(&mut pair, seed, 600);
        assert!(
            !pair.ftl.read_only(),
            "aging must leave the device writable"
        );
        let retries_before = pair.ftl.stats().program_retries;
        preempted_stream(&mut pair, seed, 600, &mut seen);
        retries += pair.ftl.stats().program_retries - retries_before;
    }
    // Counted on `Ftl`'s side only (832 today).
    assert!(retries > 500, "only {retries} program retries");
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
        let mut pair = rig.pair(&format!("seed {seed}"));
        age(&mut pair, seed, 150);
        preempted_stream(&mut pair, seed, 600, &mut seen);
        retired += pair.ftl.stats().retired_blocks;
    }
    assert!(retired > 0, "no block retired");
    assert!(
        seen.dropped_reads > 0,
        "no call ran out of GC scratch blocks with a page in flight"
    );
}

/// For arbitrary op mixes — single and batched writes, batched reads (a
/// few LPNs past the end, so some batches are refused whole), trims, BGC
/// budgets from a fraction of a page to several blocks with and without a
/// free-page target, wear-leveling passes and SIP-list installs that steer
/// the filtered victim choice — under any of the four victim selectors,
/// with or without hot/cold streams, at arbitrary fault-rate corners and
/// all the way to end of life, `Ftl` and the reference agree after every
/// op. 64 cases of up to 300 ops.
#[test]
fn seeded_op_streams_at_random_fault_corners() {
    #[derive(Debug)]
    enum Op {
        Write(u64),
        WriteBatch(Vec<Lpn>),
        ReadBatch(Vec<Lpn>),
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
        let hot_window = (g.u64(0, 2) == 1).then(|| SimDuration::from_millis(g.u64(1, 40)));
        let rig = Rig {
            selector: g.pick(&SELECTORS),
            hot_window,
            ..Rig::new(Some(fault), 8)
        };
        let batch = |g: &mut jitgc_sim::check::Gen| g.vec(0, 8, |g| Lpn(g.u64(0, USER_PAGES + 1)));
        let ops = g.vec(1, 300, |g| match g.weighted(&[6, 1, 2, 1, 1, 1, 1, 1]) {
            0 => Op::Write(g.u64(0, USER_PAGES)),
            1 => Op::WriteBatch(batch(g)),
            2 => Op::ReadBatch(batch(g)),
            3 => Op::Trim(g.u64(0, USER_PAGES)),
            4 => Op::Bgc(SimDuration::from_millis(g.u64(1, 50)), None),
            // Sub-page to few-page budgets: where the in-copy gate stops.
            5 => Op::Bgc(
                SimDuration::from_micros(g.u64(0, 2_000)),
                Some(g.u64(0, 3 * PAGES_PER_BLOCK)),
            ),
            6 => Op::WearLevel,
            _ => Op::InstallSip(g.vec(0, 24, |g| g.u64(0, USER_PAGES))),
        });
        let mut pair = rig.pair("random stream");
        for (t, op) in ops.iter().enumerate() {
            let now = SimTime::from_millis(t as u64 + 1);
            match op {
                Op::Write(lpn) => pair.host_write(*lpn, now),
                Op::WriteBatch(lpns) => pair.host_write_batch(lpns, now),
                Op::ReadBatch(lpns) => pair.host_read_batch(lpns, now),
                Op::Trim(lpn) => pair.trim(*lpn, now),
                Op::Bgc(budget, target) => {
                    pair.background_collect(now, *budget, *target);
                }
                Op::WearLevel => pair.wear_level(now),
                Op::InstallSip(lpns) => pair.install_sip_list(lpns),
            }
        }
    });
}
