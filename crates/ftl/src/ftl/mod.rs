//! The page-mapping FTL: state, space accounting, the streams' open blocks.

mod degrade;
mod gc;
mod host;
mod wear;

pub use degrade::{DegradeEvent, DegradeKind};
pub use gc::BgcOutcome;
pub use host::{BatchReadOutcome, BatchWriteOutcome, WriteOutcome};
pub use wear::WearLevelOutcome;

use crate::free_pool::FreePool;
use crate::mapping::Mapping;
use crate::victim_index::VictimIndex;
use crate::{FtlConfig, FtlError, FtlStats, SipList, VictimSelector};
use jitgc_nand::{BlockId, FaultModel, Lpn, NandDevice, Ppn};
use jitgc_sim::{ByteSize, SimTime};

/// A write stream: each has its own open block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stream {
    /// Host writes (all of them without hot/cold separation).
    Cold,
    /// Host rewrites within the hot window, with hot/cold separation on.
    Hot,
    /// Pages garbage collection and wear leveling relocate.
    Gc,
}

/// A page-mapping flash translation layer.
///
/// See the [crate documentation](crate) for the role it plays in the JIT-GC
/// reproduction. All operations take the current simulated time `now`
/// (the FTL holds no clock of its own) and return the device time they
/// consumed; the caller owns the device timeline.
#[derive(Debug)]
pub struct Ftl {
    config: FtlConfig,
    device: NandDevice,
    mapping: Mapping,
    free_blocks: FreePool,
    /// Each [`Stream`]'s open block, indexed by the stream.
    active: [Option<BlockId>; 3],
    /// A background-GC victim collected partially; resumed on the next
    /// BGC call (or finished by foreground GC).
    gc_in_progress: Option<BlockId>,
    /// Per-LPN last write time (allocated only with hot/cold streams).
    lpn_last_write: Option<Vec<SimTime>>,
    /// Blocks retired as bad after exceeding the endurance limit; they
    /// hold no data and are never allocated or selected again.
    is_retired: Vec<bool>,
    last_write: Vec<SimTime>,
    sip: SipList,
    sip_counts: Vec<u32>,
    selector: Box<dyn VictimSelector>,
    /// Bucketed candidate index updated O(1) on seal/invalidate/erase;
    /// tracks exactly the blocks victim selection may choose from.
    victim_index: VictimIndex,
    /// `true` once retirements have shrunk writable capacity below what
    /// sustained host writes need; writes then fail with
    /// [`FtlError::ReadOnly`] while reads keep working.
    read_only: bool,
    /// Pages permanently lost to retired blocks. Their page states still
    /// sit in the device tallies as "invalid", so the space accounting
    /// subtracts this to avoid promising unreclaimable capacity.
    retired_pages: u64,
    /// The failure timeline: every retirement plus the read-only
    /// transition, in order.
    degrade_events: Vec<DegradeEvent>,
    /// LPNs whose last batched read came back uncorrectable; scratch
    /// reused across batches (a mirror layer reads these back from the
    /// surviving replica).
    failed_reads: Vec<Lpn>,
    /// Scratch for the bulk path's victim snapshot, reused across
    /// collections so the steady state allocates nothing.
    gc_snapshot: Vec<(Ppn, Lpn)>,
    /// Scratch for the destination PPNs a bulk copy or a host program run
    /// reports back.
    dst_scratch: Vec<Ppn>,
    /// Opt-in wall-clock accounting of GC copy work (surfaced as the
    /// engine's `gc_copy` profile phase); measurement only, never feeds
    /// back into simulated behaviour.
    gc_copy_enabled: bool,
    gc_copy_wall: std::time::Duration,
    stats: FtlStats,
}

impl Ftl {
    /// Creates an FTL over a fresh (fully erased) device.
    #[must_use]
    pub fn new(config: FtlConfig, selector: Box<dyn VictimSelector>) -> Self {
        let mut device = NandDevice::new(*config.geometry(), *config.timing());
        if let Some(limit) = config.endurance_limit() {
            device = device.with_endurance_limit(limit);
        }
        if let Some(fault) = config.fault() {
            device = device.with_fault_model(FaultModel::new(*fault));
        }
        let blocks = config.geometry().blocks();
        Ftl {
            mapping: Mapping::new(config.user_pages()),
            free_blocks: FreePool::unworn(blocks),
            active: [None; 3],
            gc_in_progress: None,
            lpn_last_write: config
                .hot_cold_streams()
                .then(|| vec![SimTime::ZERO; config.user_pages() as usize]),
            is_retired: vec![false; blocks as usize],
            last_write: vec![SimTime::ZERO; blocks as usize],
            sip: SipList::new(),
            sip_counts: vec![0; blocks as usize],
            selector,
            victim_index: VictimIndex::new(blocks, config.geometry().pages_per_block()),
            read_only: false,
            retired_pages: 0,
            degrade_events: Vec::new(),
            failed_reads: Vec::new(),
            gc_snapshot: Vec::new(),
            dst_scratch: Vec::new(),
            gc_copy_enabled: false,
            gc_copy_wall: std::time::Duration::ZERO,
            stats: FtlStats::default(),
            device,
            config,
        }
    }

    /// Pages the host can write before foreground GC becomes necessary:
    /// all free pages minus the GC scratch reserve.
    #[must_use]
    pub fn free_pages(&self) -> u64 {
        let reserve = u64::from(self.config.gc_reserve_blocks())
            * u64::from(self.config.geometry().pages_per_block());
        self.device.total_free_pages().saturating_sub(reserve)
    }

    /// [`free_pages`](Self::free_pages) in bytes — the `C_free` the JIT-GC
    /// manager polls over the extended host interface.
    #[must_use]
    pub fn free_capacity(&self) -> ByteSize {
        self.config.geometry().page_size() * self.free_pages()
    }

    /// The largest free capacity background GC could ever produce right
    /// now: current free space plus every reclaimable (invalid) page.
    /// Policies must not target beyond this — the paper's `C_resv ≤
    /// C_unused + C_OP` restriction, which "avoids useless BGC operations
    /// when an SSD is filled with a large amount of user data".
    /// Invalid pages in retired blocks are *not* reclaimable — the block
    /// will never be erased again — so they are excluded here; counting
    /// them would let a policy set a `C_resv` target BGC can never reach
    /// and spin on useless collection attempts.
    #[must_use]
    pub fn reclaimable_capacity(&self) -> ByteSize {
        self.config.geometry().page_size()
            * (self.free_pages()
                + self
                    .device
                    .total_invalid_pages()
                    .saturating_sub(self.retired_pages))
    }

    /// Zeroes every statistics counter (FTL and NAND operation counters)
    /// while leaving device *state* — mapping, page states, per-block wear
    /// — untouched. Used after aging pre-fill so measurements cover only
    /// the steady-state phase.
    pub fn reset_counters(&mut self) {
        self.stats = FtlStats::default();
        self.device.reset_stats();
        // Pre-fill wear is setup, not measurement: drop its degradation
        // timeline entries so reports cover only the steady-state phase.
        // The `read_only` flag and per-block retirement state persist —
        // they are device state, not counters.
        self.degrade_events.clear();
    }

    /// The over-provisioning capacity `C_OP`.
    #[must_use]
    pub fn op_capacity(&self) -> ByteSize {
        self.config.op_capacity()
    }

    /// The configuration this FTL was built with.
    #[must_use]
    pub fn config(&self) -> &FtlConfig {
        &self.config
    }

    /// Read-only view of the underlying NAND device.
    #[must_use]
    pub fn device(&self) -> &NandDevice {
        &self.device
    }

    /// FTL-level statistics.
    #[must_use]
    pub fn stats(&self) -> &FtlStats {
        &self.stats
    }

    /// Current Write Amplification Factor, or `None` before the first host
    /// write.
    #[must_use]
    pub fn waf(&self) -> Option<f64> {
        self.stats.waf(self.device.stats().programs)
    }

    /// The physical location currently mapped for `lpn`, if any.
    ///
    /// # Errors
    ///
    /// [`FtlError::LpnOutOfRange`] for a bad address.
    pub fn lookup(&self, lpn: Lpn) -> Result<Option<Ppn>, FtlError> {
        self.check_lpn(lpn)?;
        Ok(self.mapping.get(lpn))
    }

    /// The name of the installed victim-selection policy.
    #[must_use]
    pub fn victim_policy(&self) -> &'static str {
        self.selector.name()
    }

    /// Test hook for the aged-state pins: the free blocks in the order
    /// the next block openings take them, least worn first.
    #[doc(hidden)]
    pub fn free_blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.free_blocks.iter()
    }

    /// Test hook for the aged-state pins: the GC candidates bucket by
    /// bucket, fewest valid pages first, each bucket in the order victim
    /// selection visits it.
    #[doc(hidden)]
    pub fn victim_candidates(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..=self.victim_index.pages_per_block())
            .flat_map(|valid| self.victim_index.bucket(valid).iter().copied())
    }

    /// Starts wall-clock accounting of GC copy work — the page migration
    /// of full-block collections (their erase is not timed) plus every
    /// background-GC step that copies at least one page (calls whose
    /// budget affords no page read no clock); the total is read back with
    /// [`gc_copy_wall`](Self::gc_copy_wall). Measurement
    /// only — simulated behaviour is unaffected.
    pub fn enable_gc_copy_profiling(&mut self) {
        self.gc_copy_enabled = true;
    }

    /// Host wall-clock time spent copying pages for GC since profiling
    /// was enabled (zero when it never was).
    #[must_use]
    pub fn gc_copy_wall(&self) -> std::time::Duration {
        self.gc_copy_wall
    }

    fn check_lpn(&self, lpn: Lpn) -> Result<(), FtlError> {
        if lpn.0 < self.config.user_pages() {
            Ok(())
        } else {
            Err(FtlError::LpnOutOfRange {
                lpn,
                user_pages: self.config.user_pages(),
            })
        }
    }

    /// `stream`'s open block, if it has a free page left.
    fn room(&self, stream: Stream) -> Option<BlockId> {
        self.active[stream as usize].filter(|&b| !self.device.block(b).is_full())
    }

    /// The block `stream` writes next: its open block while that has
    /// room, else the least-worn free block, opened for it.
    fn ensure_open(&mut self, stream: Stream) -> Result<BlockId, FtlError> {
        if let Some(block) = self.room(stream) {
            return Ok(block);
        }
        let block = self
            .free_blocks
            .take_least_worn()
            .ok_or(FtlError::NoReclaimableSpace)?;
        self.open(stream, block);
        Ok(block)
    }

    /// Makes `block` the open block of `stream`, sealing the full block it
    /// replaces.
    fn open(&mut self, stream: Stream, block: BlockId) {
        if let Some(full) = self.active[stream as usize].replace(block) {
            self.seal(full);
        }
    }

    /// `true` when allocating another user block would eat into the GC
    /// scratch reserve — the foreground-GC trigger.
    fn pool_is_at_floor(&self) -> bool {
        self.free_blocks.len() <= self.config.gc_reserve_blocks() as usize
    }

    /// Registers a just-closed (full) active block as a GC candidate.
    fn seal(&mut self, block: BlockId) {
        debug_assert!(
            self.device.block(block).is_full(),
            "sealing a block that still has free pages"
        );
        self.victim_index
            .insert(block, self.device.block(block).valid_pages());
    }

    /// `true` when `block` sits in the free pool.
    fn is_free(&self, block: BlockId) -> bool {
        self.free_blocks
            .contains(block, self.device.block(block).erase_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GreedySelector;
    use jitgc_sim::SimDuration;

    fn small_config(op_permille: u64) -> FtlConfig {
        FtlConfig::builder()
            .user_pages(64)
            .op_permille(op_permille)
            .pages_per_block(8)
            .page_size_bytes(4096)
            .gc_reserve_blocks(2)
            .build()
    }

    fn small_ftl() -> Ftl {
        Ftl::new(small_config(250), Box::new(GreedySelector))
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut ftl = small_ftl();
        ftl.host_write(Lpn(5), t(0)).expect("in range");
        let read = ftl.host_read_batch(&[Lpn(5)], t(1)).expect("in range");
        assert!(read.duration.as_micros() > 0);
        assert_eq!((read.unmapped, read.failed), (0, 0));
        assert_eq!(ftl.stats().host_pages_written, 1);
        assert_eq!(ftl.stats().host_pages_read, 1);
    }

    #[test]
    fn read_of_unmapped_page_is_tallied_not_read() {
        let mut ftl = small_ftl();
        let read = ftl.host_read_batch(&[Lpn(5)], t(0)).expect("in range");
        assert_eq!(read.unmapped, 1);
        assert_eq!(read.duration, SimDuration::ZERO);
        assert_eq!(ftl.stats().host_pages_read, 0);
    }

    #[test]
    fn out_of_range_lpn_fails() {
        let mut ftl = small_ftl();
        assert!(matches!(
            ftl.host_write(Lpn(64), t(0)),
            Err(FtlError::LpnOutOfRange { .. })
        ));
        assert!(matches!(
            ftl.host_read_batch(&[Lpn(1000)], t(0)),
            Err(FtlError::LpnOutOfRange { .. })
        ));
        assert!(matches!(
            ftl.trim(Lpn(64), t(0)),
            Err(FtlError::LpnOutOfRange { .. })
        ));
    }

    #[test]
    fn overwrite_invalidates_old_copy() {
        let mut ftl = small_ftl();
        ftl.host_write(Lpn(3), t(0)).expect("in range");
        let first = ftl.lookup(Lpn(3)).expect("in range").expect("mapped");
        ftl.host_write(Lpn(3), t(1)).expect("in range");
        let second = ftl.lookup(Lpn(3)).expect("in range").expect("mapped");
        assert_ne!(first, second);
        assert_eq!(ftl.device().total_invalid_pages(), 1);
        assert_eq!(ftl.device().total_valid_pages(), 1);
    }

    #[test]
    fn sustained_overwrites_trigger_foreground_gc() {
        let mut ftl = small_ftl();
        let mut saw_fgc = false;
        // Fill the whole space once, then hammer only the even LPNs: every
        // victim block keeps half its pages valid, so GC must migrate.
        for lpn in 0..64u64 {
            ftl.host_write(Lpn(lpn), t(0)).expect("in range");
        }
        for round in 1..40u64 {
            for lpn in (0..64u64).step_by(2) {
                let out = ftl.host_write(Lpn(lpn), t(round)).expect("in range");
                saw_fgc |= out.foreground_gc;
            }
        }
        assert!(saw_fgc, "foreground GC never fired");
        assert!(ftl.stats().fgc_invocations > 0);
        assert!(ftl.stats().gc_pages_migrated > 0);
        let waf = ftl.waf().expect("host writes happened");
        assert!(waf > 1.0, "GC must amplify writes, waf={waf}");
    }

    #[test]
    fn background_gc_prevents_foreground_gc() {
        // Spare physical capacity above the GC reserve is 16 pages, so a
        // 16-page burst followed by generous idle-time BGC must never hit
        // foreground GC.
        let mut ftl = small_ftl();
        let mut fgc_count = 0u64;
        for round in 0..80u64 {
            for i in 0..16u64 {
                let lpn = (round * 16 + i) % 64;
                let out = ftl.host_write(Lpn(lpn), t(round)).expect("in range");
                fgc_count += u64::from(out.foreground_gc);
            }
            ftl.background_collect(t(round), SimDuration::from_secs(10), None);
        }
        assert_eq!(fgc_count, 0, "BGC should have absorbed all reclamation");
        assert!(ftl.stats().bgc_blocks > 0);
        assert_eq!(ftl.stats().fgc_invocations, 0);
    }

    #[test]
    fn bgc_respects_budget() {
        let mut ftl = small_ftl();
        for round in 0..10u64 {
            for lpn in 0..64u64 {
                ftl.host_write(Lpn(lpn), t(round)).expect("in range");
            }
        }
        let tiny = SimDuration::from_micros(1);
        let out = ftl.background_collect(t(100), tiny, None);
        assert_eq!(out.blocks_erased, 0, "budget too small for any block");
        assert!(out.duration <= tiny);
    }

    /// A visit whose budget affords neither the next page nor the erase
    /// of the victim in progress leaves everything as it found it.
    #[test]
    fn sub_page_budget_leaves_the_victim_in_progress_untouched() {
        let mut ftl = small_ftl();
        for lpn in 0..64u64 {
            ftl.host_write(Lpn(lpn), t(0)).expect("in range");
        }
        for lpn in (0..64u64).step_by(2) {
            ftl.host_write(Lpn(lpn), t(1)).expect("in range");
        }
        // One page's worth: the greedy victim keeps half its pages valid,
        // so it stays in progress.
        let timing = *ftl.config().timing();
        let out = ftl.background_collect(t(2), timing.page_migrate_cost(), None);
        assert_eq!((out.pages_migrated, out.blocks_erased), (1, 0));
        let victim = ftl.gc_in_progress.expect("victim left half collected");

        let snapshot = |ftl: &Ftl| {
            let dev = ftl.device();
            (
                *ftl.stats(),
                ftl.victim_index.iter_ids().collect::<Vec<_>>(),
                ftl.victim_candidates().collect::<Vec<_>>(),
                *dev.stats(),
                dev.total_valid_pages(),
                dev.total_invalid_pages(),
                dev.total_free_pages(),
            )
        };
        let before = snapshot(&ftl);
        let budget = timing
            .page_migrate_cost()
            .min(timing.block_erase_cost())
            .saturating_sub(SimDuration::from_micros(1));
        let out = ftl.background_collect(t(3), budget, None);
        assert_eq!(out, BgcOutcome::default());
        assert_eq!(ftl.gc_in_progress, Some(victim));
        assert_eq!(snapshot(&ftl), before);
    }

    #[test]
    fn bgc_stops_at_target() {
        let mut ftl = small_ftl();
        for round in 0..10u64 {
            for lpn in 0..64u64 {
                ftl.host_write(Lpn(lpn), t(round)).expect("in range");
            }
        }
        let before = ftl.free_pages();
        let target = before + 8; // one block's worth
        let out = ftl.background_collect(t(100), SimDuration::from_secs(100), Some(target));
        assert!(ftl.free_pages() >= target);
        // Should not have collected far past the target.
        assert!(out.blocks_erased <= 3, "erased {}", out.blocks_erased);
    }

    #[test]
    fn free_pages_accounting_is_conserved() {
        let mut ftl = small_ftl();
        let total = ftl.device().geometry().total_pages();
        for round in 0..5u64 {
            for lpn in 0..64u64 {
                ftl.host_write(Lpn(lpn), t(round)).expect("in range");
            }
            let dev = ftl.device();
            assert_eq!(
                dev.total_valid_pages() + dev.total_invalid_pages() + dev.total_free_pages(),
                total
            );
            assert_eq!(dev.total_valid_pages(), 64);
        }
    }

    #[test]
    fn trim_releases_space_without_migration() {
        let mut ftl = small_ftl();
        ftl.host_write(Lpn(9), t(0)).expect("in range");
        ftl.trim(Lpn(9), t(1)).expect("in range");
        assert_eq!(ftl.lookup(Lpn(9)).expect("in range"), None);
        assert_eq!(ftl.device().total_valid_pages(), 0);
        let read = ftl.host_read_batch(&[Lpn(9)], t(2)).expect("in range");
        assert_eq!(read.unmapped, 1);
        // Trimming again is a no-op.
        ftl.trim(Lpn(9), t(3)).expect("in range");
        assert_eq!(ftl.stats().trims, 2);
    }

    #[test]
    fn sip_list_counts_follow_mapping() {
        let mut ftl = small_ftl();
        for lpn in 0..16u64 {
            ftl.host_write(Lpn(lpn), t(0)).expect("in range");
        }
        let sip: SipList = (0..8u64).map(Lpn).collect();
        let _ = ftl.install_sip_list(sip);
        // Overwriting a SIP page removes it from the list.
        ftl.host_write(Lpn(0), t(1)).expect("in range");
        ftl.host_write(Lpn(999).min(Lpn(15)), t(1))
            .expect("in range");
        // Re-install to verify recomputation path too.
        let sip2: SipList = (0..4u64).map(Lpn).collect();
        let _ = ftl.install_sip_list(sip2);
        // No panic and counts consistent: total sip_valid equals mapped SIP pages.
        let total: u32 = ftl.sip_counts.iter().sum();
        assert_eq!(total, 4);
    }

    /// Every block's SIP count is the number of listed LPNs mapped into
    /// it, so the counts sum to the mapped LPNs still on the list.
    fn assert_sip_counts_match_a_recount(ftl: &Ftl) {
        let mut recount = vec![0u32; ftl.sip_counts.len()];
        for lpn in ftl.sip.iter() {
            if let Some(ppn) = ftl.mapping.get(lpn) {
                recount[ftl.device.geometry().block_of(ppn).0 as usize] += 1;
            }
        }
        assert_eq!(ftl.sip_counts, recount);
    }

    /// Installing any chain of SIP lists — overlapping, with mapped LPNs,
    /// unmapped ones, none — keeps the per-block counts exact, and so do
    /// the writes, trims and GC migrations between installs, which the
    /// SIP filter reads the counts after. Each case installs up to 12
    /// lists, each the list the FTL holds with some pages flipped, with
    /// ops between installs.
    #[test]
    fn sip_counts_track_mapping() {
        jitgc_sim::check::check(0x0F71_0004, 128, |g| {
            let writes = g.vec(20, 100, |g| g.u64(0, 64));
            let mut ftl = small_ftl();
            for (i, &lpn) in writes.iter().enumerate() {
                ftl.host_write(Lpn(lpn), SimTime::from_millis(i as u64))
                    .expect("in range");
            }
            let installs = g.vec(1, 12, |g| {
                let flips = g.vec(0, 20, |g| g.u64(0, 64));
                let ops = g.vec(0, 12, |g| (g.weighted(&[6, 2, 2]), g.u64(0, 64)));
                (flips, ops)
            });
            let mut now = writes.len() as u64;
            for (flips, ops) in installs {
                let mut next: std::collections::BTreeSet<u64> =
                    ftl.sip.iter().map(|l| l.0).collect();
                for lpn in flips {
                    if !next.remove(&lpn) {
                        next.insert(lpn);
                    }
                }
                let _ = ftl.install_sip_list(next.iter().map(|&l| Lpn(l)).collect());
                assert_sip_counts_match_a_recount(&ftl);
                for (op, arg) in ops {
                    now += 1;
                    let at = SimTime::from_millis(now);
                    match op {
                        0 => {
                            ftl.host_write(Lpn(arg), at).expect("in range");
                            assert!(!ftl.sip.contains(Lpn(arg)), "an overwrite delists the page");
                        }
                        1 => ftl.trim(Lpn(arg), at).expect("in range"),
                        // A fraction of a page to two blocks' worth of
                        // budget, so victims stay half collected.
                        _ => drop(ftl.background_collect(
                            at,
                            SimDuration::from_micros(arg * 400),
                            None,
                        )),
                    }
                    assert_sip_counts_match_a_recount(&ftl);
                }
            }
        });
    }

    /// The incrementally maintained victim index agrees — membership and
    /// valid counts — with the full device scan over the candidate filter
    /// it replaces, and every tracked candidate is sealed.
    fn assert_victim_index_matches_a_full_scan(ftl: &Ftl) {
        let expected: Vec<(BlockId, u32)> = ftl
            .device
            .geometry()
            .block_ids()
            .filter(|b| {
                !ftl.is_free(*b)
                    && !ftl.is_retired[b.0 as usize]
                    && !ftl.active.contains(&Some(*b))
                    && ftl.gc_in_progress != Some(*b)
            })
            .map(|b| (b, ftl.device.block(b).valid_pages()))
            .collect();
        let actual: Vec<(BlockId, u32)> = ftl.victim_index.iter_ids().collect();
        assert_eq!(
            actual, expected,
            "victim index diverged from the full candidate scan"
        );
        for &(b, _) in &actual {
            assert!(
                ftl.device.block(b).is_full(),
                "tracked candidate {b} is not sealed"
            );
        }
    }

    /// After every op of a write / trim / budgeted-BGC / wear-leveling
    /// stream — with and without hot/cold streams, an endurance limit and
    /// injected faults, through retirements and into read-only mode — the
    /// victim index is exactly the candidate set. 256 cases of up to 400
    /// ops.
    #[test]
    fn victim_index_tracks_the_full_candidate_scan() {
        jitgc_sim::check::check(0x0F71_0005, 256, |g| {
            let mut builder = FtlConfig::builder()
                .user_pages(64)
                .op_permille(g.pick(&[250, 500]))
                .pages_per_block(8)
                .gc_reserve_blocks(2)
                .wear_level_threshold(2);
            if g.u64(0, 2) == 1 {
                builder = builder.hot_cold_streams(SimDuration::from_millis(g.u64(1, 40)));
            }
            if g.u64(0, 2) == 1 {
                builder = builder.endurance_limit(g.u64(3, 12));
            }
            if g.u64(0, 2) == 1 {
                builder = builder.fault(jitgc_nand::FaultConfig {
                    seed: g.any_u64(),
                    program_rate: g.f64(0.0, 0.2),
                    erase_rate: g.f64(0.0, 0.2),
                    read_rate: g.f64(0.0, 0.2),
                    wear_scale: 10,
                });
            }
            let mut ftl = Ftl::new(builder.build(), Box::new(GreedySelector));
            let ops = g.vec(1, 400, |g| (g.weighted(&[8, 2, 2, 1]), g.u64(0, 64)));
            for (i, &(op, arg)) in ops.iter().enumerate() {
                let now = SimTime::from_millis(i as u64);
                // A worn-out device refuses writes and trims: still an op.
                match op {
                    0 => drop(ftl.host_write(Lpn(arg), now)),
                    1 => drop(ftl.trim(Lpn(arg), now)),
                    // A fraction of a page to two blocks' worth of budget,
                    // so victims stay half collected between calls.
                    2 => drop(ftl.background_collect(
                        now,
                        SimDuration::from_micros(arg * 400),
                        (arg % 2 == 0).then_some(arg),
                    )),
                    _ => drop(ftl.wear_level(now)),
                }
                assert_victim_index_matches_a_full_scan(&ftl);
            }
        });
    }

    #[test]
    fn sip_filter_redirects_bgc_victims() {
        // Two sealed blocks with equal valid counts; the one full of
        // SIP-listed pages must be avoided.
        let mut ftl = small_ftl();
        // Fill blocks deterministically: 8 pages per block.
        // Block A: lpns 0..8, Block B: lpns 8..16.
        for lpn in 0..16u64 {
            ftl.host_write(Lpn(lpn), t(0)).expect("in range");
        }
        // Invalidate half of each block so both are equally attractive,
        // but make block A's survivors soon-to-be-invalidated.
        for lpn in [0u64, 1, 2, 3, 8, 9, 10, 11] {
            ftl.host_write(Lpn(lpn), t(1)).expect("in range");
        }
        let sip: SipList = [Lpn(4), Lpn(5), Lpn(6), Lpn(7)].into_iter().collect();
        let _ = ftl.install_sip_list(sip);
        let out =
            ftl.background_collect(t(2), SimDuration::from_secs(1), Some(ftl.free_pages() + 4));
        assert!(out.blocks_erased >= 1);
        assert!(
            ftl.stats().sip_filtered_selections >= 1,
            "SIP filter should have redirected the greedy choice"
        );
        // The redirected victim held the four live non-SIP pages, which
        // were migrated; the SIP'd pages (4..8) stayed put.
        assert_eq!(ftl.stats().gc_pages_migrated, 4);
    }

    #[test]
    fn free_capacity_shrinks_with_writes() {
        let mut ftl = small_ftl();
        let before = ftl.free_capacity();
        ftl.host_write(Lpn(0), t(0)).expect("in range");
        assert!(ftl.free_capacity() < before);
        assert_eq!(
            before - ftl.free_capacity(),
            ftl.config().geometry().page_size()
        );
    }

    #[test]
    fn op_capacity_matches_config() {
        let ftl = small_ftl();
        assert_eq!(ftl.op_capacity(), ftl.config().op_capacity());
        assert_eq!(ftl.op_capacity(), ByteSize::bytes(16 * 4096));
    }

    #[test]
    fn wear_level_reduces_spread() {
        let mut ftl = Ftl::new(
            FtlConfig::builder()
                .user_pages(64)
                .op_permille(250)
                .pages_per_block(8)
                .gc_reserve_blocks(2)
                .wear_level_threshold(4)
                .build(),
            Box::new(GreedySelector),
        );
        // Create heavy uneven wear: hot small working set.
        for round in 0..200u64 {
            for lpn in 0..16u64 {
                ftl.host_write(Lpn(lpn), t(round)).expect("in range");
            }
            // Also keep cold data in place.
            if round == 0 {
                for lpn in 16..64u64 {
                    ftl.host_write(Lpn(lpn), t(round)).expect("in range");
                }
            }
            ftl.background_collect(t(round), SimDuration::from_secs(1), None);
        }
        let before = ftl.device().wear_report();
        if before.max - before.min > 4 {
            let out = ftl.wear_level(t(1000)).expect("wear level");
            assert!(out.performed);
            assert!(ftl.stats().wear_level_blocks > 0);
        }
    }

    #[test]
    fn hot_cold_streams_separate_blocks() {
        let mut ftl = Ftl::new(
            FtlConfig::builder()
                .user_pages(64)
                .op_permille(250)
                .pages_per_block(8)
                .gc_reserve_blocks(2)
                .hot_cold_streams(SimDuration::from_secs(10))
                .build(),
            Box::new(GreedySelector),
        );
        // First writes are cold (no history).
        for lpn in 0..8u64 {
            ftl.host_write(Lpn(lpn), t(0)).expect("in range");
        }
        assert_eq!(ftl.stats().hot_stream_pages, 0);
        // Immediate rewrites are hot and must land in a different block.
        for lpn in 0..4u64 {
            ftl.host_write(Lpn(lpn), t(1)).expect("in range");
        }
        assert_eq!(ftl.stats().hot_stream_pages, 4);
        let cold_block = ftl
            .device()
            .geometry()
            .block_of(ftl.lookup(Lpn(5)).expect("in range").expect("mapped"));
        let hot_block = ftl
            .device()
            .geometry()
            .block_of(ftl.lookup(Lpn(0)).expect("in range").expect("mapped"));
        assert_ne!(cold_block, hot_block, "hot rewrites share the cold block");
        // A rewrite outside the hot window is cold again.
        ftl.host_write(Lpn(0), t(60)).expect("in range");
        assert_eq!(ftl.stats().hot_stream_pages, 4);
    }

    #[test]
    fn hot_cold_disabled_by_default() {
        let mut ftl = small_ftl();
        ftl.host_write(Lpn(0), t(0)).expect("in range");
        ftl.host_write(Lpn(0), t(1)).expect("in range");
        assert_eq!(ftl.stats().hot_stream_pages, 0);
        assert!(!ftl.config().hot_cold_streams());
    }

    #[test]
    fn worn_out_blocks_are_retired_not_reused() {
        let mut ftl = Ftl::new(
            FtlConfig::builder()
                .user_pages(64)
                .op_permille(500) // generous OP so retirement is survivable
                .pages_per_block(8)
                .gc_reserve_blocks(2)
                .endurance_limit(3)
                .build(),
            Box::new(GreedySelector),
        );
        // Hammer hot pages so GC cycles blocks until some wear out.
        let mut round = 0u64;
        while ftl.retired_blocks() == 0 && round < 2_000 {
            for lpn in 0..16u64 {
                ftl.host_write(Lpn(lpn), t(round)).expect("in range");
            }
            ftl.background_collect(t(round), SimDuration::from_secs(1), None);
            round += 1;
        }
        assert!(
            ftl.retired_blocks() > 0,
            "no block retired after {round} rounds"
        );
        // The FTL keeps serving I/O after retirements.
        for lpn in 0..16u64 {
            ftl.host_write(Lpn(lpn), t(round + 1))
                .expect("still serving");
            let read = ftl.host_read_batch(&[Lpn(lpn)], t(round + 1));
            assert_eq!(read.map(|r| (r.unmapped, r.failed)), Ok((0, 0)));
        }
        // Accounting: retired blocks are neither free nor candidates, and
        // every mapped page is still exactly once valid.
        assert_eq!(ftl.device().total_valid_pages(), 16);
    }

    #[test]
    fn endurance_limit_is_optional() {
        let ftl = small_ftl();
        assert_eq!(ftl.config().endurance_limit(), None);
        assert_eq!(ftl.retired_blocks(), 0);
    }

    #[test]
    fn victim_policy_name_is_exposed() {
        let ftl = small_ftl();
        assert_eq!(ftl.victim_policy(), "greedy");
    }

    #[test]
    fn write_batch_matches_looped_writes() {
        let looped = || {
            let mut ftl = small_ftl();
            let mut fgc = 0u64;
            let mut dur = SimDuration::ZERO;
            for round in 0..20u64 {
                for lpn in 0..64u64 {
                    let out = ftl.host_write(Lpn((lpn * 5) % 64), t(round)).expect("ok");
                    fgc += u64::from(out.foreground_gc);
                    dur += out.duration;
                }
            }
            (*ftl.stats(), *ftl.device().stats(), fgc, dur)
        };
        let batched = || {
            let mut ftl = small_ftl();
            let mut fgc = 0u64;
            let mut dur = SimDuration::ZERO;
            let lpns: Vec<Lpn> = (0..64u64).map(|l| Lpn((l * 5) % 64)).collect();
            for round in 0..20u64 {
                let out = ftl.host_write_batch(&lpns, t(round)).expect("ok");
                fgc += out.fgc_writes;
                dur += out.duration;
            }
            (*ftl.stats(), *ftl.device().stats(), fgc, dur)
        };
        assert_eq!(looped(), batched());
    }

    #[test]
    fn read_batch_matches_looped_reads_and_counts_unmapped() {
        let mut ftl = small_ftl();
        for lpn in 0..8u64 {
            ftl.host_write(Lpn(lpn), t(0)).expect("ok");
        }
        // 4..12: half mapped, half never written.
        let lpns: Vec<Lpn> = (4..12u64).map(Lpn).collect();
        let mut looped_dur = SimDuration::ZERO;
        let mut looped_unmapped = 0u64;
        for &lpn in &lpns {
            let r = ftl.host_read_batch(&[lpn], t(1)).expect("ok");
            looped_dur += r.duration;
            looped_unmapped += r.unmapped;
        }
        let out = ftl.host_read_batch(&lpns, t(1)).expect("ok");
        assert_eq!(out.duration, looped_dur);
        assert_eq!(out.unmapped, looped_unmapped);
        assert_eq!(out.unmapped, 4);
        assert_eq!(ftl.stats().host_pages_read, 8);
    }

    #[test]
    fn batch_rejects_any_out_of_range_address_upfront() {
        let mut ftl = small_ftl();
        let err = ftl.host_write_batch(&[Lpn(0), Lpn(64)], t(0));
        assert!(matches!(err, Err(FtlError::LpnOutOfRange { .. })));
        // Nothing was written: validation happens before the first program.
        assert_eq!(ftl.stats().host_pages_written, 0);
        assert!(matches!(
            ftl.host_read_batch(&[Lpn(99)], t(0)),
            Err(FtlError::LpnOutOfRange { .. })
        ));
    }

    #[test]
    fn install_sip_list_returns_displaced_list() {
        let mut ftl = small_ftl();
        for lpn in 0..8u64 {
            ftl.host_write(Lpn(lpn), t(0)).expect("ok");
        }
        let first: SipList = [Lpn(1), Lpn(2)].into_iter().collect();
        let displaced = ftl.install_sip_list(first.clone());
        assert!(displaced.is_empty());
        let displaced = ftl.install_sip_list(SipList::new());
        assert_eq!(displaced, first);
    }

    #[test]
    fn determinism_same_operations_same_stats() {
        let run = || {
            let mut ftl = small_ftl();
            for round in 0..10u64 {
                for lpn in 0..64u64 {
                    ftl.host_write(Lpn((lpn * 7) % 64), t(round))
                        .expect("in range");
                }
                ftl.background_collect(t(round), SimDuration::from_millis(50), None);
            }
            (
                *ftl.stats(),
                ftl.device().stats().programs,
                ftl.device().stats().erases,
            )
        };
        assert_eq!(run(), run());
    }

    /// Drives `ftl` with a hot-page overwrite workload until the predicate
    /// holds or the round budget runs out; returns the rounds consumed.
    fn hammer_until(ftl: &mut Ftl, rounds: u64, mut done: impl FnMut(&Ftl) -> bool) -> u64 {
        let mut round = 0u64;
        while !done(ftl) && round < rounds {
            for lpn in 0..16u64 {
                match ftl.host_write(Lpn(lpn), t(round)) {
                    Ok(_) | Err(FtlError::ReadOnly) => {}
                    Err(e) => panic!("unexpected write error: {e}"),
                }
            }
            ftl.background_collect(t(round), SimDuration::from_secs(1), None);
            round += 1;
        }
        round
    }

    #[test]
    fn retired_blocks_shrink_reclaimable_capacity() {
        // Regression: invalid pages inside retired blocks used to stay in
        // reclaimable_capacity forever, overstating what BGC could free.
        let mut ftl = Ftl::new(
            FtlConfig::builder()
                .user_pages(64)
                .op_permille(500)
                .pages_per_block(8)
                .gc_reserve_blocks(2)
                .endurance_limit(3)
                .build(),
            Box::new(GreedySelector),
        );
        let rounds = hammer_until(&mut ftl, 2_000, |f| f.retired_blocks() >= 2);
        assert!(
            ftl.retired_blocks() >= 2,
            "no retirements in {rounds} rounds"
        );
        assert_eq!(
            ftl.retired_pages(),
            ftl.retired_blocks() * u64::from(ftl.config().geometry().pages_per_block())
        );
        // Reclaimable capacity must never exceed what the live blocks can
        // actually yield: total live space minus valid data minus the
        // reserve the pool floor keeps back.
        let geometry = *ftl.config().geometry();
        let ppb = u64::from(geometry.pages_per_block());
        let live_pages = (u64::from(geometry.blocks()) - ftl.retired_blocks()) * ppb;
        let reserve = u64::from(ftl.config().gc_reserve_blocks()) * ppb;
        let ceiling = geometry.page_size()
            * (live_pages - ftl.device().total_valid_pages()).saturating_sub(reserve);
        assert!(
            ftl.reclaimable_capacity() <= ceiling,
            "reclaimable {} exceeds achievable ceiling {}",
            ftl.reclaimable_capacity(),
            ceiling
        );
        // And the failure timeline recorded each retirement.
        let retire_events = ftl
            .degrade_events()
            .iter()
            .filter(|e| matches!(e.kind, DegradeKind::BlockRetired(_)))
            .count() as u64;
        assert_eq!(retire_events, ftl.retired_blocks());
    }

    #[test]
    fn exhausted_endurance_degrades_to_read_only() {
        // Satellite: with a tiny endurance limit and modest OP, retirements
        // must end in a clean read-only transition — no panic, no hang.
        let mut ftl = Ftl::new(
            FtlConfig::builder()
                .user_pages(64)
                .op_permille(250)
                .pages_per_block(8)
                .gc_reserve_blocks(2)
                .endurance_limit(2)
                .build(),
            Box::new(GreedySelector),
        );
        let rounds = hammer_until(&mut ftl, 4_000, Ftl::read_only);
        assert!(ftl.read_only(), "never went read-only in {rounds} rounds");
        assert!(matches!(
            ftl.host_write(Lpn(0), t(rounds)),
            Err(FtlError::ReadOnly)
        ));
        // Reads of surviving data still work.
        let read = ftl.host_read_batch(&[Lpn(0)], t(rounds));
        assert_eq!(read.map(|r| (r.unmapped, r.failed)), Ok((0, 0)));
        // BGC refuses to churn a dead device.
        let bgc = ftl.background_collect(t(rounds), SimDuration::from_secs(1), None);
        assert_eq!(bgc, BgcOutcome::default());
        // The timeline ends with exactly one ReadOnly event.
        let read_only_events = ftl
            .degrade_events()
            .iter()
            .filter(|e| matches!(e.kind, DegradeKind::ReadOnly))
            .count();
        assert_eq!(read_only_events, 1);
        assert!(matches!(
            ftl.degrade_events().last().map(|e| e.kind),
            Some(DegradeKind::ReadOnly)
        ));
    }

    #[test]
    fn a_device_whose_every_program_fails_goes_read_only() {
        // A program rate at `wear_scale` fails every program on a block
        // erased once. Foreground GC erases the blocks such failures fill
        // and hands them back, so without a bound one write retries
        // forever; it gives up after as many attempts as the device has
        // pages.
        let mut ftl = Ftl::new(
            FtlConfig::builder()
                .user_pages(64)
                .op_permille(500)
                .pages_per_block(8)
                .gc_reserve_blocks(2)
                .fault(jitgc_nand::FaultConfig {
                    program_rate: 1.0,
                    wear_scale: 1,
                    ..jitgc_nand::FaultConfig::default()
                })
                .build(),
            Box::new(GreedySelector),
        );
        let rounds = hammer_until(&mut ftl, 100, Ftl::read_only);
        assert!(ftl.read_only(), "never went read-only in {rounds} rounds");
        assert!(ftl.stats().program_retries >= ftl.config().geometry().total_pages());
        assert_eq!(
            ftl.retired_blocks(),
            0,
            "no block wore out or failed an erase"
        );
        assert!(matches!(
            ftl.degrade_events().last().map(|e| e.kind),
            Some(DegradeKind::ReadOnly)
        ));
    }

    fn faulty_config(seed: u64) -> FtlConfig {
        FtlConfig::builder()
            .user_pages(64)
            .op_permille(500)
            .pages_per_block(8)
            .gc_reserve_blocks(2)
            .endurance_limit(20)
            .fault(jitgc_nand::FaultConfig {
                seed,
                program_rate: 0.05,
                erase_rate: 0.05,
                read_rate: 0.02,
                wear_scale: 10,
            })
            .build()
    }

    #[test]
    fn injected_faults_are_survived_and_deterministic() {
        let run = |seed: u64| {
            let mut ftl = Ftl::new(faulty_config(seed), Box::new(GreedySelector));
            let rounds = hammer_until(&mut ftl, 300, |_| false);
            let lpns: Vec<Lpn> = (0..16u64).map(Lpn).collect();
            ftl.host_read_batch(&lpns, t(rounds)).expect("in range");
            (
                *ftl.stats(),
                ftl.degrade_events().to_vec(),
                ftl.device().stats().program_failures,
                ftl.device().stats().erase_failures,
            )
        };
        let (stats, events, program_failures, erase_failures) = run(7);
        assert!(
            stats.program_retries > 0 && program_failures > 0,
            "fault rates should have produced program failures"
        );
        assert!(erase_failures > 0, "no erase failure injected");
        assert!(
            stats.retired_blocks > 0 && !events.is_empty(),
            "erase failures must retire blocks onto the timeline"
        );
        // Same seed ⇒ identical failure timeline and counters.
        assert_eq!(
            run(7),
            (stats, events.clone(), program_failures, erase_failures)
        );
        // A different seed produces a different fault history.
        assert_ne!(run(8).2, program_failures);
    }

    #[test]
    fn failed_batch_reads_are_reported_per_lpn() {
        let mut ftl = Ftl::new(faulty_config(3), Box::new(GreedySelector));
        hammer_until(&mut ftl, 200, |_| false);
        let lpns: Vec<Lpn> = (0..16u64).map(Lpn).collect();
        let mut saw_failure = false;
        for _ in 0..50 {
            let out = ftl.host_read_batch(&lpns, t(999)).expect("in range");
            assert_eq!(out.failed as usize, ftl.failed_read_lpns().len());
            for lpn in ftl.failed_read_lpns() {
                assert!(lpn.0 < 16, "failed LPN outside the batch");
            }
            saw_failure |= out.failed > 0;
        }
        assert!(saw_failure, "worn device never produced a read failure");
        assert!(ftl.stats().host_read_failures > 0);
    }
}
