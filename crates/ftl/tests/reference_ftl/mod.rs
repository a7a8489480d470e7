//! A deliberately naive page-mapping FTL, the reference `Ftl` is held to.
//!
//! It keeps the same contract as [`jitgc_ftl::Ftl`] — same operations,
//! same results, same device operations in the same order, so a seeded
//! fault model draws the same failures — with none of its machinery:
//!
//! * the mapping is a flat `Vec<Option<Ppn>>`;
//! * the free pool is a flag per block; a block opening takes the
//!   `min_by_key((erase_count, id))` free block, wear leveling the
//!   `max_by_key` one;
//! * victim candidates are found by a linear scan in block-id order — every
//!   full block that is not free, retired, an active write target or the
//!   background victim in progress — so there is no index to keep and
//!   "sealing" a block is not an event at all;
//! * SIP counts are recounted from the installed list at each selection;
//! * GC migrates one page at a time: budget gate, source read (an
//!   uncorrectable read is salvaged), open a GC block, program with
//!   retries, invalidate the source;
//! * host page writes and NAND page writes are counted in separate fields,
//!   and the WAF is their ratio: a host write bumps both, a GC copy only
//!   the NAND count.
//!
//! It is built only on the public APIs of `jitgc-nand` and `jitgc-ftl`,
//! and its device comes from the same `FtlConfig`: geometry, timing,
//! endurance limit and fault model.

use jitgc_ftl::{
    BatchReadOutcome, BatchWriteOutcome, BgcOutcome, BlockId, BlockInfo, DegradeEvent, DegradeKind,
    FtlConfig, FtlError, FtlStats, Lpn, Ppn, SipList, VictimSelector, WearLevelOutcome,
    WriteOutcome,
};
use jitgc_nand::{FaultModel, NandDevice, NandError};
use jitgc_sim::{ByteSize, SimDuration, SimTime};
use std::collections::BTreeSet;

/// The reference FTL; see the [module docs](self).
#[derive(Debug)]
pub struct ReferenceFtl {
    config: FtlConfig,
    device: NandDevice,
    map: Vec<Option<Ppn>>,
    /// Per-LPN time of the last host write (read only with hot/cold
    /// streams).
    lpn_written: Vec<SimTime>,
    /// Per-block time of the last program that landed in it.
    block_written: Vec<SimTime>,
    free: Vec<bool>,
    retired: Vec<bool>,
    active_user: Option<BlockId>,
    active_hot: Option<BlockId>,
    active_gc: Option<BlockId>,
    gc_in_progress: Option<BlockId>,
    sip: BTreeSet<Lpn>,
    selector: Box<dyn VictimSelector>,
    read_only: bool,
    degrade_events: Vec<DegradeEvent>,
    failed_reads: Vec<Lpn>,
    /// Pages the host asked to write and got written.
    user_writes: u64,
    /// Pages programmed into NAND, host and GC alike.
    nand_writes: u64,
    stats: FtlStats,
}

impl ReferenceFtl {
    /// A reference FTL over a fresh device built from `config`.
    pub fn new(config: FtlConfig, selector: Box<dyn VictimSelector>) -> Self {
        let mut device = NandDevice::new(*config.geometry(), *config.timing());
        if let Some(limit) = config.endurance_limit() {
            device = device.with_endurance_limit(limit);
        }
        if let Some(fault) = config.fault() {
            device = device.with_fault_model(FaultModel::new(*fault));
        }
        let blocks = config.geometry().blocks() as usize;
        ReferenceFtl {
            map: vec![None; config.user_pages() as usize],
            lpn_written: vec![SimTime::ZERO; config.user_pages() as usize],
            block_written: vec![SimTime::ZERO; blocks],
            free: vec![true; blocks],
            retired: vec![false; blocks],
            active_user: None,
            active_hot: None,
            active_gc: None,
            gc_in_progress: None,
            sip: BTreeSet::new(),
            selector,
            read_only: false,
            degrade_events: Vec::new(),
            failed_reads: Vec::new(),
            user_writes: 0,
            nand_writes: 0,
            stats: FtlStats::default(),
            device,
            config,
        }
    }

    // ------------------------------------------------------------------
    // Host operations
    // ------------------------------------------------------------------

    pub fn host_write(&mut self, lpn: Lpn, now: SimTime) -> Result<WriteOutcome, FtlError> {
        self.check_lpn(lpn)?;
        if self.read_only {
            return Err(FtlError::ReadOnly);
        }
        let mut outcome = WriteOutcome::default();
        let hot = self.is_hot(lpn, now);
        self.collect_if_at_floor(hot, now, &mut outcome)?;
        let mut block = self.open_user_block(hot, now)?;
        if let Some(old) = self.map[lpn.0 as usize] {
            self.device.invalidate(old)?;
        }
        self.sip.remove(&lpn);
        let ppn = loop {
            let ppn = self.next_page(block);
            match self.device.program(ppn, lpn) {
                Ok(took) => {
                    outcome.duration += took;
                    break ppn;
                }
                Err(NandError::ProgramFailed { .. }) => {
                    outcome.duration += self.config.timing().page_program_cost();
                    self.stats.program_retries += 1;
                    self.collect_if_at_floor(hot, now, &mut outcome)?;
                    block = self.open_user_block(hot, now)?;
                }
                Err(e) => return Err(e.into()),
            }
        };
        self.map[lpn.0 as usize] = Some(ppn);
        self.block_written[block.0 as usize] = now;
        self.lpn_written[lpn.0 as usize] = now;
        self.user_writes += 1;
        self.nand_writes += 1;
        self.stats.host_pages_written += 1;
        self.stats.hot_stream_pages += u64::from(hot);
        Ok(outcome)
    }

    /// A loop of [`host_write`](Self::host_write)s, every address checked
    /// first.
    pub fn host_write_batch(
        &mut self,
        lpns: &[Lpn],
        now: SimTime,
    ) -> Result<BatchWriteOutcome, FtlError> {
        for &lpn in lpns {
            self.check_lpn(lpn)?;
        }
        let mut out = BatchWriteOutcome::default();
        for &lpn in lpns {
            let w = self.host_write(lpn, now)?;
            out.duration += w.duration;
            out.fgc_writes += u64::from(w.foreground_gc);
            out.migrated_pages += w.migrated_pages;
            out.erased_blocks += w.erased_blocks;
        }
        Ok(out)
    }

    pub fn host_read_batch(
        &mut self,
        lpns: &[Lpn],
        _now: SimTime,
    ) -> Result<BatchReadOutcome, FtlError> {
        for &lpn in lpns {
            self.check_lpn(lpn)?;
        }
        let mut out = BatchReadOutcome::default();
        self.failed_reads.clear();
        for &lpn in lpns {
            let Some(ppn) = self.map[lpn.0 as usize] else {
                out.unmapped += 1;
                continue;
            };
            match self.device.read(ppn) {
                Ok(took) => {
                    out.duration += took;
                    self.stats.host_pages_read += 1;
                }
                Err(NandError::ReadFailed { .. }) => {
                    out.duration += self.config.timing().page_read_cost();
                    out.failed += 1;
                    self.stats.host_read_failures += 1;
                    self.failed_reads.push(lpn);
                }
                Err(e) => return Err(e.into()),
            }
        }
        Ok(out)
    }

    pub fn trim(&mut self, lpn: Lpn, _now: SimTime) -> Result<(), FtlError> {
        self.check_lpn(lpn)?;
        if self.read_only {
            return Err(FtlError::ReadOnly);
        }
        if let Some(old) = self.map[lpn.0 as usize].take() {
            self.device.invalidate(old)?;
            self.sip.remove(&lpn);
        }
        self.stats.trims += 1;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Garbage collection
    // ------------------------------------------------------------------

    pub fn background_collect(
        &mut self,
        now: SimTime,
        budget: SimDuration,
        target_free_pages: Option<u64>,
    ) -> BgcOutcome {
        let mut outcome = BgcOutcome::default();
        if self.read_only {
            return outcome;
        }
        let migrate_cost = self.config.timing().page_migrate_cost();
        let erase_cost = self.config.timing().block_erase_cost();
        if self.gc_in_progress.is_some() && budget < migrate_cost.min(erase_cost) {
            return outcome;
        }
        'victims: loop {
            if target_free_pages
                .is_some_and(|target| self.gc_in_progress.is_none() && self.free_pages() >= target)
            {
                break;
            }
            let victim = match self.gc_in_progress {
                Some(v) => v,
                None => {
                    let Some(v) = self.select_victim(now, true) else {
                        break;
                    };
                    self.gc_in_progress = Some(v);
                    v
                }
            };
            while let Some((offset, lpn)) = self.first_valid_page(victim) {
                if outcome.duration + migrate_cost > budget {
                    break 'victims;
                }
                match self.migrate_page(victim, offset, lpn, now) {
                    Ok(took) => {
                        outcome.duration += took;
                        outcome.pages_migrated += 1;
                    }
                    Err(FtlError::NoReclaimableSpace) => break 'victims,
                    Err(e) => panic!("reference BGC migration failed: {e}"),
                }
            }
            if outcome.duration + erase_cost > budget {
                break;
            }
            let freed = u64::from(self.device.block(victim).invalid_pages());
            if let Some(took) = self.erase_or_retire(victim, now) {
                outcome.duration += took;
                outcome.blocks_erased += 1;
                outcome.pages_freed += freed;
            }
            self.gc_in_progress = None;
        }
        if outcome.blocks_erased > 0 || outcome.pages_migrated > 0 {
            self.stats.bgc_invocations += 1;
            self.stats.bgc_blocks += outcome.blocks_erased;
            self.stats.bgc_time += outcome.duration;
        }
        outcome
    }

    pub fn wear_level(&mut self, now: SimTime) -> Result<WearLevelOutcome, FtlError> {
        let wear = self.block_ids().map(|b| self.device.block(b).erase_count());
        let (min, max) = wear.fold((u64::MAX, 0), |(lo, hi), w| (lo.min(w), hi.max(w)));
        if max - min <= self.config.wear_level_threshold() {
            return Ok(WearLevelOutcome::default());
        }
        let Some(coldest) = self
            .candidates()
            .min_by_key(|&b| (self.device.block(b).erase_count(), b))
        else {
            return Ok(WearLevelOutcome::default());
        };
        if self
            .active_gc
            .is_none_or(|b| self.device.block(b).is_full())
        {
            let most_worn = self
                .block_ids()
                .filter(|&b| self.free[b.0 as usize])
                .max_by_key(|&b| (self.device.block(b).erase_count(), b));
            if let Some(b) = most_worn {
                self.free[b.0 as usize] = false;
                self.active_gc = Some(b);
            }
        }
        let (duration, moved) = self.collect_block(coldest, now)?;
        self.stats.wear_level_migrations += moved;
        self.stats.wear_level_blocks += 1;
        Ok(WearLevelOutcome {
            duration,
            performed: true,
            moved_pages: moved,
        })
    }

    /// Installs `sip`, returning the list it replaces (overwrites and trims
    /// have taken pages off it since it was installed).
    pub fn install_sip_list(&mut self, sip: &SipList) -> Vec<Lpn> {
        let old = std::mem::replace(&mut self.sip, sip.iter().collect());
        old.into_iter().collect()
    }

    /// Runs foreground GC when the write stream needs a block and the pool
    /// is down to the GC reserve; a device that cannot free one goes
    /// read-only.
    fn collect_if_at_floor(
        &mut self,
        hot: bool,
        now: SimTime,
        outcome: &mut WriteOutcome,
    ) -> Result<(), FtlError> {
        if !(self.needs_block(hot) && self.pool_at_floor()) {
            return Ok(());
        }
        match self.foreground_collect(now) {
            Ok(fgc) => {
                outcome.foreground_gc = true;
                outcome.migrated_pages += fgc.pages_migrated;
                outcome.erased_blocks += fgc.blocks_erased;
                outcome.duration += fgc.duration;
                self.stats.fgc_invocations += 1;
                self.stats.fgc_blocks += fgc.blocks_erased;
                self.stats.fgc_time += fgc.duration;
                Ok(())
            }
            Err(FtlError::NoReclaimableSpace) => {
                self.enter_read_only(now);
                Err(FtlError::ReadOnly)
            }
            Err(e) => Err(e),
        }
    }

    /// Finishes the background victim in progress, then collects whole
    /// victims until the pool is above the GC reserve. A block that
    /// retires instead of erasing still counts as collected.
    fn foreground_collect(&mut self, now: SimTime) -> Result<BgcOutcome, FtlError> {
        let mut outcome = BgcOutcome::default();
        if let Some(victim) = self.gc_in_progress {
            let (took, moved) = self.collect_block(victim, now)?;
            self.gc_in_progress = None;
            outcome.duration += took;
            outcome.blocks_erased += 1;
            outcome.pages_migrated += moved;
        }
        while self.pool_at_floor() {
            let victim = self
                .select_victim(now, false)
                .ok_or(FtlError::NoReclaimableSpace)?;
            let (took, moved) = self.collect_block(victim, now)?;
            outcome.duration += took;
            outcome.blocks_erased += 1;
            outcome.pages_migrated += moved;
        }
        Ok(outcome)
    }

    /// Migrates every valid page out of `victim`, then erases or retires
    /// it. Returns the time taken and the pages moved.
    fn collect_block(
        &mut self,
        victim: BlockId,
        now: SimTime,
    ) -> Result<(SimDuration, u64), FtlError> {
        let mut duration = SimDuration::ZERO;
        let mut moved = 0;
        while let Some((offset, lpn)) = self.first_valid_page(victim) {
            duration += self.migrate_page(victim, offset, lpn, now)?;
            moved += 1;
        }
        if let Some(took) = self.erase_or_retire(victim, now) {
            duration += took;
        }
        Ok((duration, moved))
    }

    /// Moves one valid page of `victim` into the GC write stream: read the
    /// source, open a GC block if needed, program (retrying past failed
    /// pages), invalidate the source. A failure to open a GC block drops
    /// what the page had cost so far.
    fn migrate_page(
        &mut self,
        victim: BlockId,
        offset: u32,
        lpn: Lpn,
        now: SimTime,
    ) -> Result<SimDuration, FtlError> {
        let timing = *self.config.timing();
        let source = self.config.geometry().ppn(victim, offset);
        let mut took = match self.device.read(source) {
            Ok(t) => t,
            Err(NandError::ReadFailed { .. }) => {
                self.stats.gc_read_failures += 1;
                timing.page_read_cost()
            }
            Err(e) => return Err(e.into()),
        };
        let (block, ppn) = loop {
            let block = self.open_gc_block()?;
            let ppn = self.next_page(block);
            match self.device.program(ppn, lpn) {
                Ok(t) => {
                    took += t;
                    break (block, ppn);
                }
                Err(NandError::ProgramFailed { .. }) => {
                    took += timing.page_program_cost();
                    self.stats.program_retries += 1;
                }
                Err(e) => return Err(e.into()),
            }
        };
        self.device.invalidate(source)?;
        self.map[lpn.0 as usize] = Some(ppn);
        self.block_written[block.0 as usize] = now;
        self.nand_writes += 1;
        self.stats.gc_pages_migrated += 1;
        Ok(took)
    }

    fn erase_or_retire(&mut self, victim: BlockId, now: SimTime) -> Option<SimDuration> {
        match self.device.erase(victim) {
            Ok(took) => {
                self.free[victim.0 as usize] = true;
                Some(took)
            }
            Err(NandError::BlockWornOut { .. } | NandError::EraseFailed { .. }) => {
                self.retired[victim.0 as usize] = true;
                self.stats.retired_blocks += 1;
                self.degrade_events.push(DegradeEvent {
                    time: now,
                    kind: DegradeKind::BlockRetired(victim),
                });
                // Writable only while the live blocks hold every valid
                // page, the GC reserve and one block of headroom.
                let ppb = u64::from(self.config.geometry().pages_per_block());
                let live = self
                    .block_ids()
                    .filter(|b| !self.retired[b.0 as usize])
                    .count() as u64;
                let valid: u64 = self
                    .block_ids()
                    .map(|b| u64::from(self.device.block(b).valid_pages()))
                    .sum();
                let reserve = u64::from(self.config.gc_reserve_blocks());
                if live * ppb < valid + (reserve + 1) * ppb {
                    self.enter_read_only(now);
                }
                None
            }
            Err(e) => panic!("reference erase of {victim} failed: {e}"),
        }
    }

    fn enter_read_only(&mut self, now: SimTime) {
        if !self.read_only {
            self.read_only = true;
            self.degrade_events.push(DegradeEvent {
                time: now,
                kind: DegradeKind::ReadOnly,
            });
        }
    }

    /// The victim the selector picks from the candidate scan. Background
    /// GC under a non-empty SIP list first withholds candidates whose
    /// listed share of valid pages passes the threshold, and falls back to
    /// the unfiltered choice when that leaves none.
    fn select_victim(&mut self, now: SimTime, background: bool) -> Option<BlockId> {
        let unfiltered = self.run_selector(now, None)?;
        if !background || self.sip.is_empty() {
            return Some(unfiltered);
        }
        self.stats.sip_eligible_selections += 1;
        let threshold = self.config.sip_filter_threshold_permille();
        let choice = self
            .run_selector(now, Some(threshold))
            .unwrap_or(unfiltered);
        if choice != unfiltered {
            self.stats.sip_filtered_selections += 1;
        }
        Some(choice)
    }

    fn run_selector(&mut self, now: SimTime, sip_threshold: Option<u64>) -> Option<BlockId> {
        let mut sip_valid = vec![0u32; self.free.len()];
        for lpn in &self.sip {
            if let Some(ppn) = self.map[lpn.0 as usize] {
                sip_valid[self.config.geometry().block_of(ppn).0 as usize] += 1;
            }
        }
        let mut candidates: Vec<BlockInfo> = Vec::new();
        for b in self.candidates() {
            let block = self.device.block(b);
            let info = BlockInfo {
                id: b,
                valid: block.valid_pages(),
                invalid: block.invalid_pages(),
                pages: block.pages(),
                erase_count: block.erase_count(),
                last_write: self.block_written[b.0 as usize],
                sip_valid: sip_valid[b.0 as usize],
            };
            let passes = sip_threshold
                .is_none_or(|t| u64::from(info.sip_valid) * 1000 <= u64::from(info.valid) * t);
            if passes {
                candidates.push(info);
            }
        }
        self.selector.select(&mut candidates.into_iter(), now)
    }

    // ------------------------------------------------------------------
    // Blocks
    // ------------------------------------------------------------------

    fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        let blocks = self.config.geometry().blocks();
        (0..blocks).map(BlockId)
    }

    /// Every block GC may collect, in block-id order.
    fn candidates(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.block_ids().filter(|&b| {
            self.device.block(b).is_full()
                && !self.free[b.0 as usize]
                && !self.retired[b.0 as usize]
                && ![
                    self.active_user,
                    self.active_hot,
                    self.active_gc,
                    self.gc_in_progress,
                ]
                .contains(&Some(b))
        })
    }

    /// Takes the least-worn free block, the lowest id among equals.
    fn take_free_block(&mut self) -> Option<BlockId> {
        let b = self
            .block_ids()
            .filter(|&b| self.free[b.0 as usize])
            .min_by_key(|&b| (self.device.block(b).erase_count(), b))?;
        self.free[b.0 as usize] = false;
        Some(b)
    }

    fn needs_block(&self, hot: bool) -> bool {
        let active = if hot {
            self.active_hot
        } else {
            self.active_user
        };
        active.is_none_or(|b| self.device.block(b).is_full())
    }

    fn pool_at_floor(&self) -> bool {
        self.free.iter().filter(|&&f| f).count() <= self.config.gc_reserve_blocks() as usize
    }

    /// The host stream's open block, opening a fresh one when it is full;
    /// a device without a free block goes read-only.
    fn open_user_block(&mut self, hot: bool, now: SimTime) -> Result<BlockId, FtlError> {
        if self.needs_block(hot) {
            let Some(b) = self.take_free_block() else {
                self.enter_read_only(now);
                return Err(FtlError::ReadOnly);
            };
            *(if hot {
                &mut self.active_hot
            } else {
                &mut self.active_user
            }) = Some(b);
        }
        Ok((if hot {
            self.active_hot
        } else {
            self.active_user
        })
        .expect("just opened"))
    }

    fn open_gc_block(&mut self) -> Result<BlockId, FtlError> {
        if self
            .active_gc
            .is_none_or(|b| self.device.block(b).is_full())
        {
            self.active_gc = Some(self.take_free_block().ok_or(FtlError::NoReclaimableSpace)?);
        }
        Ok(self.active_gc.expect("just opened"))
    }

    /// The lowest-offset valid page of `block`, with its LPN.
    fn first_valid_page(&self, block: BlockId) -> Option<(u32, Lpn)> {
        self.device.block(block).valid_lpns().next()
    }

    fn next_page(&self, block: BlockId) -> Ppn {
        let offset = self
            .device
            .block(block)
            .next_free_offset()
            .expect("an open block has a free page");
        self.config.geometry().ppn(block, offset)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

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

    /// A rewrite within the hot window goes to the hot stream, when the
    /// configuration separates streams. A page not mapped now is cold.
    fn is_hot(&self, lpn: Lpn, now: SimTime) -> bool {
        self.config.hot_cold_streams()
            && self.map[lpn.0 as usize].is_some()
            && now.saturating_since(self.lpn_written[lpn.0 as usize]) <= self.config.hot_window()
    }

    pub fn lookup(&self, lpn: Lpn) -> Result<Option<Ppn>, FtlError> {
        self.check_lpn(lpn)?;
        Ok(self.map[lpn.0 as usize])
    }

    /// Free pages by a scan of every block, less the GC reserve.
    pub fn free_pages(&self) -> u64 {
        let ppb = u64::from(self.config.geometry().pages_per_block());
        let free: u64 = self
            .block_ids()
            .map(|b| u64::from(self.device.block(b).free_pages()))
            .sum();
        free.saturating_sub(u64::from(self.config.gc_reserve_blocks()) * ppb)
    }

    /// Free pages plus the invalid pages of blocks that are not retired.
    pub fn reclaimable_capacity(&self) -> ByteSize {
        let invalid: u64 = self
            .block_ids()
            .filter(|b| !self.retired[b.0 as usize])
            .map(|b| u64::from(self.device.block(b).invalid_pages()))
            .sum();
        self.config.geometry().page_size() * (self.free_pages() + invalid)
    }

    /// NAND page writes per host page write.
    pub fn waf(&self) -> Option<f64> {
        (self.user_writes > 0).then(|| self.nand_writes as f64 / self.user_writes as f64)
    }

    pub fn retired_pages(&self) -> u64 {
        let retired = self.retired.iter().filter(|&&r| r).count() as u64;
        retired * u64::from(self.config.geometry().pages_per_block())
    }

    pub fn device(&self) -> &NandDevice {
        &self.device
    }

    pub fn stats(&self) -> &FtlStats {
        &self.stats
    }

    pub fn read_only(&self) -> bool {
        self.read_only
    }

    pub fn degrade_events(&self) -> &[DegradeEvent] {
        &self.degrade_events
    }

    pub fn failed_read_lpns(&self) -> &[Lpn] {
        &self.failed_reads
    }
}
