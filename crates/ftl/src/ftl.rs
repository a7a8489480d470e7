//! The page-mapping FTL proper.

use crate::free_pool::FreePool;
use crate::mapping::Mapping;
use crate::victim_index::VictimIndex;
use crate::{BlockInfo, FtlConfig, FtlError, FtlStats, SipList, VictimSelector};
use jitgc_nand::{BlockId, FaultModel, Lpn, NandDevice, NandError, Ppn};
use jitgc_sim::{ByteSize, SimDuration, SimTime};

/// What kind of degradation a [`DegradeEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeKind {
    /// A block was retired as bad (endurance exceeded or erase failed);
    /// the device's usable capacity shrank by one block.
    BlockRetired(BlockId),
    /// The device entered read-only degraded mode: retirements left too
    /// little writable space to sustain further host writes.
    ReadOnly,
}

/// One entry of the device's failure timeline: when wear took capacity
/// away, and when it finally took write service away. The sequence is
/// fully determined by the fault seed and the operation stream, so two
/// runs with the same seed produce identical timelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradeEvent {
    /// Simulated time of the event.
    pub time: SimTime,
    /// What degraded.
    pub kind: DegradeKind,
}

/// Result of one host page write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WriteOutcome {
    /// Total device time charged to this write, *including* any foreground
    /// GC it had to wait for.
    pub duration: SimDuration,
    /// `true` when the write triggered foreground GC — the stall the
    /// paper's background policies try to avoid.
    pub foreground_gc: bool,
    /// Pages migrated by the foreground GC episode (0 without FGC).
    pub migrated_pages: u64,
    /// Blocks erased by the foreground GC episode (0 without FGC).
    pub erased_blocks: u64,
}

/// Result of a batched host write ([`Ftl::host_write_batch`]).
///
/// Durations and page counts are sums over the batch; `fgc_writes` keeps
/// *per-write* resolution because the engine's stall accounting charges
/// one episode per foreground-collected write, not per batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchWriteOutcome {
    /// Total device time consumed, foreground GC included.
    pub duration: SimDuration,
    /// How many writes in the batch triggered foreground GC.
    pub fgc_writes: u64,
    /// Pages migrated by foreground GC across the batch.
    pub migrated_pages: u64,
    /// Blocks erased by foreground GC across the batch.
    pub erased_blocks: u64,
}

/// Result of a batched host read ([`Ftl::host_read_batch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchReadOutcome {
    /// Total device time consumed by the mapped reads.
    pub duration: SimDuration,
    /// Reads of never-written pages; the host layer zero-fills these
    /// without touching the device.
    pub unmapped: u64,
    /// Reads that came back uncorrectable (injected wear faults). The
    /// affected LPNs are available from
    /// [`Ftl::failed_read_lpns`] until the next batched read.
    pub failed: u64,
}

/// Result of one background-GC invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BgcOutcome {
    /// Device time consumed (the caller hides this in idle periods).
    pub duration: SimDuration,
    /// Blocks erased.
    pub blocks_erased: u64,
    /// Valid pages migrated to keep them alive.
    pub pages_migrated: u64,
    /// Free pages gained.
    pub pages_freed: u64,
}

/// Result of one static wear-leveling pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WearLevelOutcome {
    /// Device time consumed.
    pub duration: SimDuration,
    /// `true` when the pass actually moved data.
    pub performed: bool,
    /// Pages relocated.
    pub moved_pages: u64,
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
    active_user: Option<BlockId>,
    /// Second user stream for hot pages when hot/cold separation is on.
    active_hot: Option<BlockId>,
    active_gc: Option<BlockId>,
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
    /// GC migration uses the batched
    /// [`copy_pages_within`](NandDevice::copy_pages_within) path when set
    /// (the default); tests clear it to run the per-page reference. Both
    /// produce byte-identical state.
    bulk_gc: bool,
    /// Scratch for the bulk path's victim snapshot, reused across
    /// collections so the steady state allocates nothing.
    gc_snapshot: Vec<(Ppn, Lpn)>,
    /// Scratch for the destination PPNs a bulk copy reports back.
    gc_dst_scratch: Vec<Ppn>,
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
            active_user: None,
            active_hot: None,
            active_gc: None,
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
            bulk_gc: true,
            gc_snapshot: Vec::new(),
            gc_dst_scratch: Vec::new(),
            gc_copy_enabled: false,
            gc_copy_wall: std::time::Duration::ZERO,
            stats: FtlStats::default(),
            device,
            config,
        }
    }

    // ------------------------------------------------------------------
    // Host operations
    // ------------------------------------------------------------------

    /// Writes one logical page out-of-place, running foreground GC first if
    /// the free-block pool is at its floor.
    ///
    /// # Errors
    ///
    /// [`FtlError::LpnOutOfRange`] for an address beyond the user space;
    /// [`FtlError::NoReclaimableSpace`] if foreground GC cannot free any
    /// block (only possible with pathological over-provisioning).
    pub fn host_write(&mut self, lpn: Lpn, now: SimTime) -> Result<WriteOutcome, FtlError> {
        self.check_lpn(lpn)?;
        self.host_write_checked(lpn, now)
    }

    /// [`host_write`](Self::host_write) body after address validation;
    /// batch entry points validate the whole batch once, then call this.
    fn host_write_checked(&mut self, lpn: Lpn, now: SimTime) -> Result<WriteOutcome, FtlError> {
        if self.read_only {
            return Err(FtlError::ReadOnly);
        }
        let mut outcome = WriteOutcome::default();

        // Make sure a page is available, reclaiming in the foreground if
        // the pool has fallen to the GC scratch reserve.
        let hot = self.classify_hot(lpn, now);
        self.fgc_if_at_floor(hot, now, &mut outcome)?;
        let mut active = self.ensure_writable_block(hot, now)?;

        // Out-of-place update: retire the previous copy.
        if let Some(old) = self.mapping.get(lpn) {
            self.device.invalidate(old)?;
            let b = self.device.geometry().block_of(old);
            self.victim_index.on_invalidate(b);
            if self.sip.remove(lpn) {
                self.sip_counts[b.0 as usize] = self.sip_counts[b.0 as usize].saturating_sub(1);
            }
        } else {
            // Never-written LPNs can still sit on a stale SIP list.
            self.sip.remove(lpn);
        }

        let ppn = loop {
            let offset = self
                .device
                .block(active)
                .next_free_offset()
                .expect("active block has space by construction");
            let ppn = self.device.geometry().ppn(active, offset);
            match self.device.program(ppn, lpn) {
                Ok(took) => {
                    outcome.duration += took;
                    break ppn;
                }
                Err(NandError::ProgramFailed { .. }) => {
                    // The failed page is consumed (marked invalid by the
                    // device); charge the wasted attempt and re-issue the
                    // write to the next free page, reclaiming first if the
                    // failure sealed the last page of the pool's headroom.
                    outcome.duration += self.config.timing().page_program_cost();
                    self.stats.program_retries += 1;
                    self.fgc_if_at_floor(hot, now, &mut outcome)?;
                    active = self.ensure_writable_block(hot, now)?;
                }
                Err(e) => return Err(e.into()),
            }
        };
        self.mapping.set(lpn, ppn);
        self.last_write[active.0 as usize] = now;
        if let Some(times) = self.lpn_last_write.as_mut() {
            times[lpn.0 as usize] = now;
        }
        self.stats.host_pages_written += 1;
        self.stats.hot_stream_pages += u64::from(hot);
        Ok(outcome)
    }

    /// Runs foreground GC when the next host write would need a block the
    /// pool cannot spare. When even foreground GC cannot free space — only
    /// possible once retirements have consumed the over-provisioning — the
    /// device transitions to read-only degraded mode instead of erroring
    /// with an internal GC failure.
    fn fgc_if_at_floor(
        &mut self,
        hot: bool,
        now: SimTime,
        outcome: &mut WriteOutcome,
    ) -> Result<(), FtlError> {
        if !(self.needs_active_block(hot) && self.pool_is_at_floor()) {
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

    /// [`ensure_active_block`](Self::ensure_active_block), degrading to
    /// read-only mode when no free block exists at all.
    fn ensure_writable_block(&mut self, hot: bool, now: SimTime) -> Result<BlockId, FtlError> {
        match self.ensure_active_block(hot) {
            Ok(b) => Ok(b),
            Err(FtlError::NoReclaimableSpace) => {
                self.enter_read_only(now);
                Err(FtlError::ReadOnly)
            }
            Err(e) => Err(e),
        }
    }

    /// TRIMs one logical page: the mapping is dropped and the flash copy
    /// invalidated, making its space reclaimable without migration.
    ///
    /// TRIM of an unmapped page is a no-op (as on real devices).
    ///
    /// # Errors
    ///
    /// [`FtlError::LpnOutOfRange`] for a bad address, or
    /// [`FtlError::ReadOnly`] once the device has degraded to read-only
    /// mode (TRIM mutates device state like any write).
    pub fn trim(&mut self, lpn: Lpn, _now: SimTime) -> Result<(), FtlError> {
        self.check_lpn(lpn)?;
        if self.read_only {
            return Err(FtlError::ReadOnly);
        }
        if let Some(old) = self.mapping.take(lpn) {
            self.device.invalidate(old)?;
            let b = self.device.geometry().block_of(old);
            self.victim_index.on_invalidate(b);
            if self.sip.remove(lpn) {
                self.sip_counts[b.0 as usize] = self.sip_counts[b.0 as usize].saturating_sub(1);
            }
        }
        self.stats.trims += 1;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Batched host operations
    // ------------------------------------------------------------------

    /// Writes a run of logical pages in order, validating every address
    /// up front so the per-page path skips its bounds check. Device
    /// operations happen in exactly the order a [`host_write`] loop would
    /// issue them, so all counters and the device state end up identical.
    ///
    /// # Errors
    ///
    /// [`FtlError::LpnOutOfRange`] if *any* address is out of range — in
    /// that case nothing has been written (unlike a caller loop, which
    /// would stop mid-batch); [`FtlError::NoReclaimableSpace`] propagates
    /// from foreground GC with the earlier pages already written.
    ///
    /// [`host_write`]: Self::host_write
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
            let w = self.host_write_checked(lpn, now)?;
            out.duration += w.duration;
            out.fgc_writes += u64::from(w.foreground_gc);
            out.migrated_pages += w.migrated_pages;
            out.erased_blocks += w.erased_blocks;
        }
        Ok(out)
    }

    /// Reads a run of logical pages. Unmapped pages are not errors here:
    /// they are tallied in [`BatchReadOutcome::unmapped`] for the host
    /// layer to zero-fill, letting one call serve a request whose pages
    /// are partly unwritten.
    ///
    /// # Errors
    ///
    /// [`FtlError::LpnOutOfRange`] if *any* address is out of range; no
    /// page has been read in that case.
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
            match self.mapping.get(lpn) {
                Some(ppn) => match self.device.read(ppn) {
                    Ok(took) => {
                        out.duration += took;
                        self.stats.host_pages_read += 1;
                    }
                    Err(NandError::ReadFailed { .. }) => {
                        // Uncorrectable: the attempt still took a full read,
                        // but no data came back. The LPN is recorded so a
                        // redundant layer can re-read it from a mirror.
                        out.duration += self.config.timing().page_read_cost();
                        out.failed += 1;
                        self.stats.host_read_failures += 1;
                        self.failed_reads.push(lpn);
                    }
                    Err(e) => return Err(e.into()),
                },
                None => out.unmapped += 1,
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Garbage collection
    // ------------------------------------------------------------------

    /// Runs background GC until `budget` time is spent, `target_free_pages`
    /// is reached (if given), or nothing reclaimable remains.
    ///
    /// Collection is **page-granular and resumable**: a victim whose
    /// remaining cost exceeds the budget is collected partially and picked
    /// up again on the next call — exactly how a production FTL interleaves
    /// GC steps with host I/O in sub-millisecond idle gaps. A bonus of
    /// preemption: host overwrites landing between steps invalidate victim
    /// pages *before* they are migrated, so interrupted victims get cheaper.
    ///
    /// Page-granular does not mean page-at-a-time: the pages a visit can
    /// afford move in one budgeted bulk copy whose in-copy gate stops at
    /// the same page a per-page loop would.
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
        // A victim in progress is resumed before anything else, and a
        // budget that affords neither its next page nor its erase does
        // nothing to it. Without one, the selection below still runs for
        // its side effects (selector draws, SIP counters).
        if self.gc_in_progress.is_some() && budget < migrate_cost.min(erase_cost) {
            return outcome;
        }
        'outer: loop {
            if let Some(target) = target_free_pages {
                if self.gc_in_progress.is_none() && self.free_pages() >= target {
                    break;
                }
            }
            // Resume the in-progress victim or start a new one.
            let victim = match self.gc_in_progress {
                Some(v) => v,
                None => {
                    let Some(v) = self.select_victim(now, true) else {
                        break;
                    };
                    self.victim_index.remove(v);
                    self.gc_in_progress = Some(v);
                    v
                }
            };
            // Migrate surviving pages while the budget affords one more.
            while self.device.block(victim).valid_pages() > 0 {
                if outcome.duration + migrate_cost > budget {
                    break 'outer;
                }
                // Retirements can empty the free pool so no GC scratch
                // block is available: background GC simply cannot make
                // progress right now (the victim stays in progress for
                // later).
                match self.migrate(victim, now, Some(budget), &mut outcome) {
                    Ok(()) => {}
                    Err(FtlError::NoReclaimableSpace) => break 'outer,
                    Err(e) => panic!("BGC migration failed: {e}"),
                }
            }
            if outcome.duration + erase_cost > budget {
                break;
            }
            let freed = u64::from(self.device.block(victim).invalid_pages());
            // A worn-out victim is retired instead: nothing reclaimed.
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

    /// The one GC copy primitive: moves valid pages out of `victim` into the
    /// GC write stream until the victim is empty or — with a `budget` —
    /// the next page would not fit (`outcome.duration` plus
    /// `page_migrate_cost` exceeds it), adding completed pages to
    /// `outcome`. `None` is unlimited: foreground GC and wear leveling
    /// empty the victim.
    ///
    /// Fails with [`FtlError::NoReclaimableSpace`] when no GC scratch block
    /// could be opened; the page in flight then stays valid in the victim
    /// and its cost is not charged.
    ///
    /// This is the only dispatch site between the batched production path
    /// and the per-page reference ([`set_bulk_gc`](Self::set_bulk_gc)).
    fn migrate(
        &mut self,
        victim: BlockId,
        now: SimTime,
        budget: Option<SimDuration>,
        outcome: &mut BgcOutcome,
    ) -> Result<(), FtlError> {
        debug_assert!(!self.is_free(victim), "victim must be in use");
        debug_assert!(
            self.active_user != Some(victim) && self.active_gc != Some(victim),
            "victim must not be an active block"
        );
        let t0 = self.gc_copy_enabled.then(std::time::Instant::now);
        let result = if self.bulk_gc {
            self.migrate_bulk(victim, now, budget, outcome)
        } else {
            self.migrate_per_page(victim, now, budget, outcome)
        };
        if let Some(t0) = t0 {
            self.gc_copy_wall += t0.elapsed();
        }
        result
    }

    /// Per-page reference implementation of [`migrate`](Self::migrate):
    /// the budget gate, then one read/program/invalidate round-trip, per
    /// page.
    fn migrate_per_page(
        &mut self,
        victim: BlockId,
        now: SimTime,
        budget: Option<SimDuration>,
        outcome: &mut BgcOutcome,
    ) -> Result<(), FtlError> {
        let migrate_cost = self.config.timing().page_migrate_cost();
        while let Some((offset, lpn)) = {
            let next = self.device.block(victim).valid_lpns().next();
            next
        } {
            if budget.is_some_and(|budget| outcome.duration + migrate_cost > budget) {
                break;
            }
            outcome.duration += self.migrate_page(victim, offset, lpn, now)?;
            outcome.pages_migrated += 1;
            self.stats.gc_pages_migrated += 1;
        }
        Ok(())
    }

    /// Batched implementation of [`migrate`](Self::migrate): snapshots the
    /// victim's valid pages — under a budget only as many as it can pay
    /// for, each costing at least `page_migrate_cost` — then hands them to
    /// the chunk loop, whose in-copy gate decides where a budgeted step
    /// really stops (program retries make pages dearer than the estimate).
    /// Device operations, and therefore fault-model RNG draws, timings and
    /// counters, happen in exactly the order the per-page loop issues them.
    fn migrate_bulk(
        &mut self,
        victim: BlockId,
        now: SimTime,
        budget: Option<SimDuration>,
        outcome: &mut BgcOutcome,
    ) -> Result<(), FtlError> {
        let affordable = budget.map_or(usize::MAX, |budget| {
            let pages = budget
                .saturating_sub(outcome.duration)
                .div_duration(self.config.timing().page_migrate_cost());
            usize::try_from(pages).unwrap_or(usize::MAX)
        });
        let mut snapshot = std::mem::take(&mut self.gc_snapshot);
        snapshot.clear();
        {
            let geometry = self.device.geometry();
            snapshot.extend(
                self.device
                    .block(victim)
                    .valid_lpns()
                    .take(affordable)
                    .map(|(offset, lpn)| (geometry.ppn(victim, offset), lpn)),
            );
        }
        let result = self.bulk_copy_out(victim, &snapshot, now, budget, outcome);
        self.gc_snapshot = snapshot;
        result
    }

    /// Migrates one valid page out of `victim` into the GC write stream.
    fn migrate_page(
        &mut self,
        victim: BlockId,
        offset: u32,
        lpn: Lpn,
        now: SimTime,
    ) -> Result<SimDuration, FtlError> {
        let old_ppn = self.device.geometry().ppn(victim, offset);
        let mut took = match self.device.read(old_ppn) {
            Ok(t) => t,
            Err(NandError::ReadFailed { .. }) => {
                // Uncorrectable source read. Relocate the raw (error-laden)
                // data anyway: dropping the mapping would turn a read error
                // into silent data loss, and a real controller would salvage
                // whatever the ECC could not fix.
                self.stats.gc_read_failures += 1;
                self.config.timing().page_read_cost()
            }
            Err(e) => return Err(e.into()),
        };
        let (gc_block, new_ppn) = loop {
            let gc_block = self.ensure_active_gc_block()?;
            let gc_offset = self
                .device
                .block(gc_block)
                .next_free_offset()
                .expect("gc block has space by construction");
            let new_ppn = self.device.geometry().ppn(gc_block, gc_offset);
            match self.device.program(new_ppn, lpn) {
                Ok(t) => {
                    took += t;
                    break (gc_block, new_ppn);
                }
                Err(NandError::ProgramFailed { .. }) => {
                    // Failed page is consumed; charge the attempt and retry
                    // on the next free GC page.
                    took += self.config.timing().page_program_cost();
                    self.stats.program_retries += 1;
                }
                Err(e) => return Err(e.into()),
            }
        };
        self.device.invalidate(old_ppn)?;
        debug_assert!(
            !self.victim_index.is_tracked(victim),
            "migrating pages out of a block still tracked as a candidate"
        );
        self.mapping.set(lpn, new_ppn);
        self.last_write[gc_block.0 as usize] = now;
        if self.sip.contains(lpn) {
            self.sip_counts[victim.0 as usize] =
                self.sip_counts[victim.0 as usize].saturating_sub(1);
            self.sip_counts[gc_block.0 as usize] += 1;
        }
        Ok(took)
    }

    /// Foreground reclamation: collect until the pool rises above the GC
    /// scratch floor. Finishes any half-collected background victim first —
    /// it is the cheapest source of a free block.
    fn foreground_collect(&mut self, now: SimTime) -> Result<BgcOutcome, FtlError> {
        let mut outcome = BgcOutcome::default();
        if let Some(victim) = self.gc_in_progress {
            let (duration, migrated) = self.collect_block(victim, now)?;
            self.gc_in_progress = None;
            outcome.duration += duration;
            outcome.blocks_erased += 1;
            outcome.pages_migrated += migrated;
        }
        while self.pool_is_at_floor() {
            let victim = self
                .select_victim(now, false)
                .ok_or(FtlError::NoReclaimableSpace)?;
            let (duration, migrated) = self.collect_candidate(victim, now)?;
            outcome.duration += duration;
            outcome.blocks_erased += 1;
            outcome.pages_migrated += migrated;
        }
        Ok(outcome)
    }

    /// Takes `victim` out of the candidate index and collects it. A
    /// collection that gives up half way (no GC scratch block left) puts
    /// the block back, so what it still holds stays reclaimable.
    fn collect_candidate(
        &mut self,
        victim: BlockId,
        now: SimTime,
    ) -> Result<(SimDuration, u64), FtlError> {
        self.victim_index.remove(victim);
        let collected = self.collect_block(victim, now);
        if collected.is_err() {
            self.seal(victim);
        }
        collected
    }

    /// Migrates every remaining valid page out of `victim` and erases it
    /// (or retires it, when the erase fails or the block is worn out).
    fn collect_block(
        &mut self,
        victim: BlockId,
        now: SimTime,
    ) -> Result<(SimDuration, u64), FtlError> {
        let mut outcome = BgcOutcome::default();
        self.migrate(victim, now, None, &mut outcome)?;
        debug_assert_eq!(
            self.sip_counts[victim.0 as usize], 0,
            "erased block retains SIP-listed valid pages"
        );
        if let Some(took) = self.erase_or_retire(victim, now) {
            outcome.duration += took;
        }
        Ok((outcome.duration, outcome.pages_migrated))
    }

    /// Copies `snapshot` pages out of `victim` into the GC write stream,
    /// one [`copy_pages_within`](NandDevice::copy_pages_within) call per
    /// destination block, adding completed pages to `outcome`.
    ///
    /// The per-page loop interleaves each source read with GC-block
    /// allocation (read first, then allocate on demand), so the chunk
    /// boundary protocol mirrors that: the first read of each chunk is
    /// issued *before* ensuring a destination block, and a chunk that
    /// fills its destination mid-copy reports `pending_read` so the
    /// already-read source page is not re-read (nor its fault re-drawn)
    /// after the next block is opened.
    ///
    /// With a `budget`, the copy stops before the first page for which
    /// `outcome.duration + page_migrate_cost > budget` — the gate sits in
    /// front of every source read, here for a chunk's first page and
    /// inside the device for the rest — and returns `Ok` with the
    /// remainder untouched. On an error (no destination block to be had)
    /// `outcome` holds the completed pages only: what the page in flight
    /// had already cost is dropped, as `migrate_page`'s early return
    /// drops it.
    fn bulk_copy_out(
        &mut self,
        victim: BlockId,
        snapshot: &[(Ppn, Lpn)],
        now: SimTime,
        budget: Option<SimDuration>,
        outcome: &mut BgcOutcome,
    ) -> Result<(), FtlError> {
        let migrate_cost = self.config.timing().page_migrate_cost();
        let mut idx = 0usize;
        // Cost so far of the page that is read but not yet programmed.
        let mut in_flight = SimDuration::ZERO;
        let mut pending_read = false;
        while idx < snapshot.len() {
            if !pending_read {
                if budget.is_some_and(|budget| outcome.duration + migrate_cost > budget) {
                    break;
                }
                in_flight = self.gc_source_read(snapshot[idx].0)?;
            }
            let gc_block = self.ensure_active_gc_block()?;
            let room = budget.map(|budget| budget.saturating_sub(outcome.duration + in_flight));
            let mut dsts = std::mem::take(&mut self.gc_dst_scratch);
            dsts.clear();
            let copied =
                self.device
                    .copy_pages_within(&snapshot[idx..], gc_block, true, &mut dsts, room);
            let out = match copied {
                Ok(out) => out,
                Err(e) => {
                    self.gc_dst_scratch = dsts;
                    return Err(e.into());
                }
            };
            debug_assert!(
                !self.victim_index.is_tracked(victim),
                "migrating pages out of a block still tracked as a candidate"
            );
            for (k, &new_ppn) in dsts.iter().enumerate() {
                let lpn = snapshot[idx + k].1;
                self.mapping.set(lpn, new_ppn);
                if self.sip.contains(lpn) {
                    self.sip_counts[victim.0 as usize] =
                        self.sip_counts[victim.0 as usize].saturating_sub(1);
                    self.sip_counts[gc_block.0 as usize] += 1;
                }
            }
            self.gc_dst_scratch = dsts;
            self.stats.gc_read_failures += out.read_failures;
            self.stats.program_retries += out.program_retries;
            self.stats.gc_pages_migrated += out.copied as u64;
            in_flight += out.duration;
            if out.copied > 0 {
                self.last_write[gc_block.0 as usize] = now;
                outcome.duration += in_flight - out.pending_cost;
                in_flight = out.pending_cost;
            }
            outcome.pages_migrated += out.copied as u64;
            idx += out.copied;
            pending_read = out.pending_read;
        }
        Ok(())
    }

    /// One GC source read with uncorrectable-read salvage, exactly as the
    /// per-page loop performs it (see [`migrate_page`](Self::migrate_page)
    /// for why errored data is relocated anyway).
    fn gc_source_read(&mut self, ppn: Ppn) -> Result<SimDuration, FtlError> {
        match self.device.read(ppn) {
            Ok(t) => Ok(t),
            Err(NandError::ReadFailed { .. }) => {
                self.stats.gc_read_failures += 1;
                Ok(self.config.timing().page_read_cost())
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Erases `victim` and returns it to the free pool, or — when the
    /// block has exceeded its endurance limit or the erase itself failed —
    /// retires it as a bad block (capacity shrinks by one block) and
    /// returns `None`.
    fn erase_or_retire(&mut self, victim: BlockId, now: SimTime) -> Option<SimDuration> {
        debug_assert!(
            !self.victim_index.is_tracked(victim),
            "erasing a block still tracked as a candidate"
        );
        match self.device.erase(victim) {
            Ok(took) => {
                self.sip_counts[victim.0 as usize] = 0;
                self.free_blocks
                    .release(victim, self.device.block(victim).erase_count());
                Some(took)
            }
            Err(NandError::BlockWornOut { .. } | NandError::EraseFailed { .. }) => {
                self.retire_block(victim, now);
                None
            }
            Err(e) => panic!("erase of selected victim failed: {e}"),
        }
    }

    /// Permanently removes `victim` from circulation as a bad block and
    /// records the capacity loss on the failure timeline. When the loss
    /// leaves too little writable space to keep absorbing host writes, the
    /// device transitions to read-only degraded mode.
    fn retire_block(&mut self, victim: BlockId, now: SimTime) {
        self.sip_counts[victim.0 as usize] = 0;
        self.is_retired[victim.0 as usize] = true;
        self.stats.retired_blocks += 1;
        // Victims are fully collected before erase, so every page of the
        // block sits in the device's invalid tally — and stays there
        // forever. Track the loss so space accounting can exclude it.
        self.retired_pages += u64::from(self.config.geometry().pages_per_block());
        self.degrade_events.push(DegradeEvent {
            time: now,
            kind: DegradeKind::BlockRetired(victim),
        });
        self.update_degraded_state(now);
    }

    /// Checks whether block retirements have shrunk the device below the
    /// minimum writable footprint: enough live blocks to hold all valid
    /// data plus the GC scratch reserve plus one block of write headroom.
    /// Below that, GC can no longer turn over blocks and the device goes
    /// read-only.
    fn update_degraded_state(&mut self, now: SimTime) {
        if self.read_only {
            return;
        }
        let geometry = self.config.geometry();
        let ppb = u64::from(geometry.pages_per_block());
        // Derive the retired count from `retired_pages`, not from
        // `stats.retired_blocks`: the stats counter is zeroed by
        // [`reset_counters`](Ftl::reset_counters) after aging pre-fill,
        // while retirement is permanent device state.
        let live_blocks = u64::from(geometry.blocks()) - self.retired_pages / ppb;
        let valid_pages = self.device.total_valid_pages();
        let reserve_blocks = u64::from(self.config.gc_reserve_blocks());
        if live_blocks * ppb < valid_pages + (reserve_blocks + 1) * ppb {
            self.enter_read_only(now);
        }
    }

    /// Idempotent transition into read-only degraded mode.
    fn enter_read_only(&mut self, now: SimTime) {
        if self.read_only {
            return;
        }
        self.read_only = true;
        self.degrade_events.push(DegradeEvent {
            time: now,
            kind: DegradeKind::ReadOnly,
        });
    }

    /// Number of blocks retired as bad (endurance exceeded or erase
    /// failed).
    #[must_use]
    pub fn retired_blocks(&self) -> u64 {
        self.stats.retired_blocks
    }

    /// Pages permanently lost to retired blocks.
    #[must_use]
    pub fn retired_pages(&self) -> u64 {
        self.retired_pages
    }

    /// `true` once the device has entered read-only degraded mode: writes
    /// fail with [`FtlError::ReadOnly`], reads keep working.
    #[must_use]
    pub fn read_only(&self) -> bool {
        self.read_only
    }

    /// The failure timeline: every block retirement plus the read-only
    /// transition, in event order. Deterministic for a given fault seed
    /// and operation stream.
    #[must_use]
    pub fn degrade_events(&self) -> &[DegradeEvent] {
        &self.degrade_events
    }

    /// LPNs whose most recent [`host_read_batch`](Self::host_read_batch)
    /// attempt came back uncorrectable, in batch order. Valid until the
    /// next batched read; a mirror layer re-reads these from the surviving
    /// replica.
    #[must_use]
    pub fn failed_read_lpns(&self) -> &[Lpn] {
        &self.failed_reads
    }

    /// Chooses the next GC victim. For background GC with a non-empty SIP
    /// list, candidates whose soon-to-be-invalidated fraction exceeds the
    /// configured threshold are avoided; if that filter would leave no
    /// candidate, the unfiltered choice is used. A policy without SIP
    /// never installs a list, so it never filters.
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

    /// Runs the installed selector over the victim index. With a SIP
    /// threshold, candidates whose soon-to-be-invalidated fraction exceeds
    /// it are withheld from the selector.
    ///
    /// Frontier selectors ([`VictimSelector::uses_min_valid_frontier`])
    /// see only the lowest eligible valid-count bucket — an O(1) hop per
    /// selection instead of the O(blocks) scan this replaces. Other
    /// selectors iterate the tracked set in block-id order, reproducing
    /// the exact candidate sequence (and therefore the exact choice, RNG
    /// draws included) of a full device scan.
    fn run_selector(&mut self, now: SimTime, sip_threshold: Option<u64>) -> Option<BlockId> {
        let selector = &mut self.selector;
        let device = &self.device;
        let index = &self.victim_index;
        let last_write = &self.last_write;
        let sip_counts = &self.sip_counts;
        let passes = |b: BlockId, valid: u32| match sip_threshold {
            None => true,
            Some(t) => u64::from(sip_counts[b.0 as usize]) * 1000 <= u64::from(valid) * t,
        };
        let info = |b: BlockId| {
            let block = device.block(b);
            BlockInfo {
                id: b,
                valid: block.valid_pages(),
                invalid: block.invalid_pages(),
                pages: block.pages(),
                erase_count: block.erase_count(),
                last_write: last_write[b.0 as usize],
                sip_valid: sip_counts[b.0 as usize],
            }
        };
        if selector.uses_min_valid_frontier() {
            // The bucket at pages_per_block holds fully-valid blocks,
            // which have nothing to reclaim and are never picked.
            for valid in 0..index.pages_per_block() {
                let bucket = index.bucket(valid);
                if !bucket.iter().any(|&b| passes(b, valid)) {
                    continue;
                }
                let mut frontier = bucket
                    .iter()
                    .copied()
                    .filter(|&b| passes(b, valid))
                    .map(info);
                return selector.select(&mut frontier, now);
            }
            None
        } else {
            let mut candidates = index
                .iter_ids()
                .filter(|&(b, valid)| passes(b, valid))
                .map(|(b, _)| info(b));
            selector.select(&mut candidates, now)
        }
    }

    // ------------------------------------------------------------------
    // Wear leveling
    // ------------------------------------------------------------------

    /// One static wear-leveling pass: when the erase-count spread exceeds
    /// the configured threshold, the coldest sealed block's data is
    /// relocated into the most-worn free block and the cold block is
    /// erased, putting its low-wear cells back into circulation.
    pub fn wear_level(&mut self, now: SimTime) -> Result<WearLevelOutcome, FtlError> {
        let wear = self.device.wear_report();
        if wear.max - wear.min <= self.config.wear_level_threshold() {
            return Ok(WearLevelOutcome::default());
        }
        // Coldest sealed candidate: minimum erase count.
        let Some((coldest, _)) = self
            .victim_index
            .iter_ids()
            .min_by_key(|&(b, _)| (self.device.block(b).erase_count(), b))
        else {
            return Ok(WearLevelOutcome::default());
        };
        // Steer the relocation into the most-worn free block by making it
        // the active GC block for this pass — only when no GC block is
        // currently open.
        if self
            .active_gc
            .is_none_or(|b| self.device.block(b).next_free_offset().is_none())
        {
            if let Some(hot) = self.free_blocks.take_most_worn() {
                if let Some(full) = self.active_gc.replace(hot) {
                    self.seal(full);
                }
            }
        }
        let (duration, moved) = self.collect_candidate(coldest, now)?;
        self.stats.wear_level_migrations += moved;
        self.stats.wear_level_blocks += 1;
        Ok(WearLevelOutcome {
            duration,
            performed: true,
            moved_pages: moved,
        })
    }

    // ------------------------------------------------------------------
    // SIP list
    // ------------------------------------------------------------------

    /// Installs the soon-to-be-invalidated page list delivered by the
    /// host-side predictor, replacing the previous one. Per-block SIP
    /// counts are recomputed from the current mapping.
    ///
    /// Returns the displaced list so the caller can refill it on the next
    /// poll ([`assign_words`](SipList::assign_words) reuses its storage)
    /// — the engine ping-pongs two bitmaps this way and the steady state
    /// allocates nothing.
    pub fn install_sip_list(&mut self, sip: SipList) -> SipList {
        self.sip_counts.fill(0);
        for lpn in sip.iter() {
            if let Some(ppn) = self.mapping.get(lpn) {
                let b = self.device.geometry().block_of(ppn);
                self.sip_counts[b.0 as usize] += 1;
            }
        }
        std::mem::replace(&mut self.sip, sip)
    }

    // ------------------------------------------------------------------
    // Space accounting and accessors
    // ------------------------------------------------------------------

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

    /// Test hook: `false` pins every GC migration — foreground GC, wear
    /// leveling and budgeted background GC alike — to the per-page
    /// reference loop instead of the batched production path (`true`, the
    /// default). Both produce byte-identical simulation state, background
    /// GC stopping on the same page under the same budget; the hook exists
    /// so the equivalence tests can run the reference. No driver exposes it.
    pub fn set_bulk_gc(&mut self, enabled: bool) {
        self.bulk_gc = enabled;
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

    // ------------------------------------------------------------------
    // Internals
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

    /// Classifies a write as hot (rewritten within the configured window)
    /// when hot/cold stream separation is enabled.
    fn classify_hot(&self, lpn: Lpn, now: SimTime) -> bool {
        let Some(times) = self.lpn_last_write.as_ref() else {
            return false;
        };
        // Never-written pages are cold by definition (mapping check, not a
        // timestamp sentinel — a legitimate write at t = 0 must count).
        if self.mapping.get(lpn).is_none() {
            return false;
        }
        now.saturating_since(times[lpn.0 as usize]) <= self.config.hot_window()
    }

    fn needs_active_block(&self, hot: bool) -> bool {
        let active = if hot {
            self.active_hot
        } else {
            self.active_user
        };
        match active {
            None => true,
            Some(b) => self.device.block(b).is_full(),
        }
    }

    /// `true` when allocating another user block would eat into the GC
    /// scratch reserve — the foreground-GC trigger.
    fn pool_is_at_floor(&self) -> bool {
        self.free_blocks.len() <= self.config.gc_reserve_blocks() as usize
    }

    fn ensure_active_block(&mut self, hot: bool) -> Result<BlockId, FtlError> {
        if !self.needs_active_block(hot) {
            let active = if hot {
                self.active_hot
            } else {
                self.active_user
            };
            return Ok(active.expect("checked present"));
        }
        let block = self
            .free_blocks
            .take_least_worn()
            .ok_or(FtlError::NoReclaimableSpace)?;
        let sealed = if hot {
            self.active_hot.replace(block)
        } else {
            self.active_user.replace(block)
        };
        if let Some(full) = sealed {
            self.seal(full);
        }
        Ok(block)
    }

    fn ensure_active_gc_block(&mut self) -> Result<BlockId, FtlError> {
        let needs = match self.active_gc {
            None => true,
            Some(b) => self.device.block(b).is_full(),
        };
        if needs {
            let block = self
                .free_blocks
                .take_least_worn()
                .ok_or(FtlError::NoReclaimableSpace)?;
            if let Some(full) = self.active_gc.replace(block) {
                self.seal(full);
            }
        }
        Ok(self.active_gc.expect("just ensured"))
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

    /// Installing any SIP list — mapped LPNs, unmapped ones, none — keeps
    /// the per-block counts exact through GC migrations and through the
    /// overwrites that take pages off the list.
    #[test]
    fn sip_counts_track_mapping() {
        jitgc_sim::check::check(0x0F71_0004, 128, |g| {
            let sip_lpns: std::collections::BTreeSet<u64> =
                g.vec(0, 20, |g| g.u64(0, 64)).into_iter().collect();
            let writes = g.vec(20, 100, |g| g.u64(0, 64));
            let mut ftl = small_ftl();
            for (i, &lpn) in writes.iter().enumerate() {
                ftl.host_write(Lpn(lpn), SimTime::from_millis(i as u64))
                    .expect("in range");
            }
            let _ = ftl.install_sip_list(sip_lpns.iter().map(|&l| Lpn(l)).collect());
            assert_sip_counts_match_a_recount(&ftl);
            ftl.background_collect(t(5), SimDuration::from_secs(1), None);
            assert_sip_counts_match_a_recount(&ftl);
            for &l in sip_lpns.iter().take(3) {
                ftl.host_write(Lpn(l), t(6)).expect("in range");
                assert!(!ftl.sip.contains(Lpn(l)), "an overwrite delists the page");
            }
            assert_sip_counts_match_a_recount(&ftl);
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
                    && ftl.active_user != Some(*b)
                    && ftl.active_hot != Some(*b)
                    && ftl.active_gc != Some(*b)
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
