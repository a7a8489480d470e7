//! Garbage collection, its one copy path and SIP-filtered victim selection.

use super::{Ftl, Stream};
use crate::{BlockInfo, FtlError, SipList};
use jitgc_nand::{BlockId, Lpn, NandError, Ppn};
use jitgc_sim::{SimDuration, SimTime};

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

impl Ftl {
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
    /// afford move in one budgeted bulk copy whose in-copy gate stops
    /// before the first page the budget cannot pay for.
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
            let at_target = target_free_pages.is_some_and(|t| self.free_pages() >= t);
            if at_target && self.gc_in_progress.is_none() {
                break;
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
    /// The victim's valid pages are snapshotted in offset order — under a
    /// budget only as many as it can pay for, each costing at least
    /// `page_migrate_cost` — and handed to
    /// [`bulk_copy_out`](Self::bulk_copy_out), whose in-copy gate decides
    /// where a budgeted step really stops (program retries make pages
    /// dearer than the estimate).
    ///
    /// Fails with [`FtlError::NoReclaimableSpace`] when no GC scratch block
    /// could be opened; the page in flight then stays valid in the victim
    /// and its cost is not charged.
    fn migrate(
        &mut self,
        victim: BlockId,
        now: SimTime,
        budget: Option<SimDuration>,
        outcome: &mut BgcOutcome,
    ) -> Result<(), FtlError> {
        debug_assert!(!self.is_free(victim), "victim must be in use");
        debug_assert!(
            !self.active.contains(&Some(victim)),
            "victim must not be an active block"
        );
        let t0 = self.gc_copy_enabled.then(std::time::Instant::now);
        let affordable = budget.map_or(usize::MAX, |budget| {
            let pages = budget
                .saturating_sub(outcome.duration)
                .div_duration(self.config.timing().page_migrate_cost());
            usize::try_from(pages).unwrap_or(usize::MAX)
        });
        let mut snapshot = std::mem::take(&mut self.gc_snapshot);
        snapshot.clear();
        let geometry = self.device.geometry();
        snapshot.extend(
            self.device
                .block(victim)
                .valid_lpns()
                .take(affordable)
                .map(|(offset, lpn)| (geometry.ppn(victim, offset), lpn)),
        );
        let result = self.bulk_copy_out(victim, &snapshot, now, budget, outcome);
        self.gc_snapshot = snapshot;
        if let Some(t0) = t0 {
            self.gc_copy_wall += t0.elapsed();
        }
        result
    }

    /// Foreground reclamation: collect until the pool rises above the GC
    /// scratch floor. Finishes any half-collected background victim first —
    /// it is the cheapest source of a free block.
    pub(super) fn foreground_collect(&mut self, now: SimTime) -> Result<BgcOutcome, FtlError> {
        let mut outcome = BgcOutcome::default();
        if let Some(victim) = self.gc_in_progress {
            self.collect_block(victim, now, &mut outcome)?;
            self.gc_in_progress = None;
        }
        while self.pool_is_at_floor() {
            let victim = self
                .select_victim(now, false)
                .ok_or(FtlError::NoReclaimableSpace)?;
            self.collect_candidate(victim, now, &mut outcome)?;
        }
        Ok(outcome)
    }

    /// Takes `victim` out of the candidate index and collects it. A
    /// collection that gives up half way (no GC scratch block left) puts
    /// the block back, so what it still holds stays reclaimable.
    pub(super) fn collect_candidate(
        &mut self,
        victim: BlockId,
        now: SimTime,
        outcome: &mut BgcOutcome,
    ) -> Result<(), FtlError> {
        self.victim_index.remove(victim);
        let collected = self.collect_block(victim, now, outcome);
        if collected.is_err() {
            self.seal(victim);
        }
        collected
    }

    /// Migrates every remaining valid page out of `victim` and erases it
    /// (or retires it, when the erase fails or the block is worn out),
    /// adding the work to `outcome` as one collected block either way.
    fn collect_block(
        &mut self,
        victim: BlockId,
        now: SimTime,
        outcome: &mut BgcOutcome,
    ) -> Result<(), FtlError> {
        self.migrate(victim, now, None, outcome)?;
        debug_assert_eq!(
            self.sip_counts[victim.0 as usize], 0,
            "erased block retains SIP-listed valid pages"
        );
        if let Some(took) = self.erase_or_retire(victim, now) {
            outcome.duration += took;
        }
        outcome.blocks_erased += 1;
        Ok(())
    }

    /// Copies `snapshot` pages out of `victim` into the GC write stream,
    /// one [`copy_pages_within`](NandDevice::copy_pages_within) call per
    /// destination block, adding completed pages to `outcome`.
    ///
    /// Each page is read from its source before its destination is
    /// opened: the first read of each chunk is issued *before* ensuring a
    /// GC block, and a chunk that fills its destination mid-copy reports
    /// `pending_read`, so the already-read source page is not read again
    /// (nor its fault drawn again) after the next block is opened. Device
    /// operations, and so fault draws, happen page by page in the order
    /// read, program (with retries), invalidate.
    ///
    /// With a `budget`, the copy stops before the first page for which
    /// `outcome.duration + page_migrate_cost > budget` — the gate sits in
    /// front of every source read, here for a chunk's first page and
    /// inside the device for the rest, so a refused page is neither read
    /// nor charged — and returns `Ok` with the remainder untouched. On an
    /// error (no destination block to be had) `outcome` holds the
    /// completed pages only: what the page in flight had already cost is
    /// dropped.
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
            let gc_block = self.ensure_open(Stream::Gc)?;
            let room = budget.map(|budget| budget.saturating_sub(outcome.duration + in_flight));
            let mut dsts = std::mem::take(&mut self.dst_scratch);
            dsts.clear();
            let copied =
                self.device
                    .copy_pages_within(&snapshot[idx..], gc_block, true, &mut dsts, room);
            let out = match copied {
                Ok(out) => out,
                Err(e) => {
                    self.dst_scratch = dsts;
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
            self.dst_scratch = dsts;
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

    /// One GC source read with uncorrectable-read salvage. An
    /// uncorrectable read costs a full read and is relocated anyway, from
    /// the raw (error-laden) data: dropping the mapping would turn a read
    /// error into silent data loss, and a real controller salvages
    /// whatever the ECC could not fix.
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
    /// see only the lowest eligible valid-count bucket, an O(1) hop per
    /// selection. Other selectors iterate the tracked set in block-id
    /// order: the candidate sequence (and so the choice, RNG draws
    /// included) of a full device scan.
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
}
