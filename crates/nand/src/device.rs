//! The whole-device NAND model.

use crate::block::{PageTables, NO_LPN};
use crate::{
    Block, BlockId, FaultModel, Geometry, Lpn, NandError, NandStats, NandTiming, PageState, Ppn,
    WearReport,
};
use jitgc_sim::SimDuration;

/// Result of one [`NandDevice::copy_pages`] call: how far the batched
/// copy got and what it cost.
///
/// The call is op-for-op equivalent to the per-page
/// read → program (with retries) → invalidate sequence GC used to issue,
/// so every counter here mirrors what that loop would have accumulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CopyOutcome {
    /// Simulated array time consumed: every read (uncorrectable ones
    /// included — the transfer still happened) and every program attempt
    /// (failed ones included — a failed program still ties up the die).
    pub duration: SimDuration,
    /// Source pages fully relocated (programmed into the destination and
    /// invalidated at the source).
    pub copied: usize,
    /// Uncorrectable source reads among the reads this call performed.
    /// The raw data is relocated anyway (GC salvage); the caller decides
    /// how to account the loss.
    pub read_failures: u64,
    /// Failed program attempts; each consumed one destination page
    /// (programmed and immediately invalid) before the copy retried.
    pub program_retries: u64,
    /// `true` when the call stopped because the destination block filled
    /// up *after* the next source page had already been read. The caller
    /// must resume with `first_read_done = true` on a fresh destination
    /// so that read is not re-issued (nor its fault re-drawn).
    pub pending_read: bool,
    /// The share of `duration` spent on the pending page — its read (when
    /// this call performed it) and the failed program attempts that used
    /// up the destination. Zero unless `pending_read`. A budgeted caller
    /// that cannot open a fresh destination drops exactly this much.
    pub pending_cost: SimDuration,
}

/// Result of one [`NandDevice::program_run`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProgramRun {
    /// Pages programmed valid, in order from the block's write pointer.
    pub programmed: usize,
    /// `true` when the run stopped at a failed program: the page after
    /// the `programmed` ones is consumed (programmed and immediately
    /// invalid) and its LPN is not written.
    pub failed: bool,
    /// Program time of every attempt, the failed one included.
    pub duration: SimDuration,
}

/// A NAND flash device: flat per-page tables for every erase block plus a
/// timing model and operation/wear counters.
///
/// Each operation returns the simulated time it consumed, so the caller
/// (the FTL) owns the device timeline. The device itself is purely
/// mechanical — *all* placement and reclamation intelligence lives above it.
///
/// # Example
///
/// ```
/// use jitgc_nand::{Geometry, Lpn, NandDevice, NandTiming, PageState, Ppn};
///
/// # fn main() -> Result<(), jitgc_nand::NandError> {
/// let mut dev = NandDevice::new(Geometry::builder().build(), NandTiming::mlc_20nm());
/// dev.program(Ppn(0), Lpn(3))?;
/// dev.invalidate(Ppn(0))?; // LPN 3 was overwritten elsewhere
/// assert_eq!(dev.page_state(Ppn(0)), PageState::Invalid);
/// let block = dev.geometry().block_of(Ppn(0));
/// dev.erase(block)?;
/// assert_eq!(dev.page_state(Ppn(0)), PageState::Free);
/// assert_eq!(dev.stats().erases, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NandDevice {
    geometry: Geometry,
    timing: NandTiming,
    tables: PageTables,
    stats: NandStats,
    endurance_limit: Option<u64>,
    /// Wear-dependent fault injector; `None` (the default) performs no
    /// RNG draws, so a fault-free device behaves byte-identically to one
    /// built before the injector existed.
    fault: Option<FaultModel>,
    /// Device-wide page-state tallies, maintained incrementally on every
    /// program/invalidate/erase so `total_*_pages()` — polled by the GC
    /// policies on the hot path — never scans the block array.
    valid_total: u64,
    invalid_total: u64,
    free_total: u64,
}

/// A physical page address split once, in `u32`, after its range check.
#[derive(Clone, Copy)]
struct PageAt {
    block: u32,
    offset: u32,
}

impl NandDevice {
    /// Creates an erased device.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has `u32::MAX` pages or more: the per-page
    /// tables, and the FTL's map onto them, hold 32-bit entries.
    #[must_use]
    pub fn new(geometry: Geometry, timing: NandTiming) -> Self {
        NandDevice {
            free_total: geometry.total_pages(),
            tables: PageTables::new(geometry.blocks(), geometry.pages_per_block()),
            geometry,
            timing,
            stats: NandStats::default(),
            endurance_limit: None,
            fault: None,
            valid_total: 0,
            invalid_total: 0,
        }
    }

    /// Sets a program/erase endurance limit; once a block's erase count
    /// reaches it, further erases fail with [`NandError::BlockWornOut`].
    /// 3 000 cycles is typical for 20 nm MLC.
    #[must_use]
    pub fn with_endurance_limit(mut self, cycles: u64) -> Self {
        self.endurance_limit = Some(cycles);
        self
    }

    /// Installs a wear-dependent fault injector. Operations on worn
    /// blocks may then fail with [`NandError::ProgramFailed`],
    /// [`NandError::EraseFailed`], or [`NandError::ReadFailed`].
    #[must_use]
    pub fn with_fault_model(mut self, fault: FaultModel) -> Self {
        self.fault = Some(fault);
        self
    }

    /// The device geometry.
    #[must_use]
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The timing model.
    #[must_use]
    pub fn timing(&self) -> &NandTiming {
        &self.timing
    }

    /// Operation counters.
    #[must_use]
    pub fn stats(&self) -> &NandStats {
        &self.stats
    }

    /// Zeroes the operation counters. Per-block erase counts (physical
    /// wear) are state, not statistics, and are preserved.
    pub fn reset_stats(&mut self) {
        self.stats = NandStats::default();
    }

    /// Read-only view of a block.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    #[must_use]
    pub fn block(&self, block: BlockId) -> Block<'_> {
        self.tables.block(block.0)
    }

    /// The one range check of a page address, and its block/offset split.
    fn locate(&self, ppn: Ppn) -> Result<PageAt, NandError> {
        if !self.geometry.contains(ppn) {
            return Err(NandError::PpnOutOfRange {
                ppn,
                total_pages: self.geometry.total_pages(),
            });
        }
        // In range, and `PageTables::new` refused a device whose page
        // count does not fit `u32`.
        let page = ppn.0 as u32;
        let per_block = self.geometry.pages_per_block();
        Ok(PageAt {
            block: page / per_block,
            offset: page % per_block,
        })
    }

    fn check_block(&self, block: BlockId) -> Result<(), NandError> {
        if block.0 < self.geometry.blocks() {
            Ok(())
        } else {
            Err(NandError::BlockOutOfRange {
                block,
                total_blocks: self.geometry.blocks(),
            })
        }
    }

    /// The OOB entry recording `lpn`.
    fn oob_entry(lpn: Lpn) -> Result<u32, NandError> {
        match u32::try_from(lpn.0) {
            Ok(entry) if entry != NO_LPN => Ok(entry),
            _ => Err(NandError::LpnTooLarge { lpn }),
        }
    }

    /// Reads one page, returning the simulated cost.
    ///
    /// # Errors
    ///
    /// [`NandError::PpnOutOfRange`] for a bad address,
    /// [`NandError::ReadUnwrittenPage`] when the page holds no data
    /// (reading a stale-but-programmed page is physically fine and allowed),
    /// or [`NandError::ReadFailed`] when the fault injector fires — the
    /// transfer time is still charged; only ECC came back defeated.
    pub fn read(&mut self, ppn: Ppn) -> Result<SimDuration, NandError> {
        let at = self.locate(ppn)?;
        let block = self.tables.block(at.block);
        if at.offset >= block.write_ptr() {
            return Err(NandError::ReadUnwrittenPage { ppn });
        }
        let worn = block.erase_count();
        if let Some(fault) = &mut self.fault {
            if fault.read_fails(worn) {
                self.stats.read_failures += 1;
                self.stats.read_time += self.timing.page_read_cost();
                return Err(NandError::ReadFailed { ppn });
            }
        }
        let cost = self.timing.page_read_cost();
        self.stats.reads += 1;
        self.stats.read_time += cost;
        Ok(cost)
    }

    /// Programs one page with `lpn` recorded in its OOB area, returning the
    /// simulated cost.
    ///
    /// # Errors
    ///
    /// [`NandError::PpnOutOfRange`] for a bad address,
    /// [`NandError::LpnTooLarge`] for an `lpn` a 32-bit OOB entry cannot
    /// record,
    /// [`NandError::ProgramProgrammedPage`] on erase-before-write violation,
    /// [`NandError::ProgramOutOfOrder`] when `ppn` is not the block's
    /// next sequential page, or [`NandError::ProgramFailed`] when the
    /// fault injector fires — the page is then *consumed* (programmed
    /// and immediately invalid, unusable until the next erase), so a
    /// retrying FTL makes progress instead of hammering the same page.
    pub fn program(&mut self, ppn: Ppn, lpn: Lpn) -> Result<SimDuration, NandError> {
        let at = self.locate(ppn)?;
        let entry = Self::oob_entry(lpn)?;
        let block = self.tables.block(at.block);
        let expected = block.write_ptr();
        if at.offset < expected {
            return Err(NandError::ProgramProgrammedPage { ppn });
        }
        if at.offset > expected {
            return Err(NandError::ProgramOutOfOrder {
                ppn,
                expected_offset: expected,
            });
        }
        let worn = block.erase_count();
        let programmed = self.program_page(at.block, worn, entry);
        let cost = self.timing.page_program_cost();
        self.stats.program_time += cost;
        match programmed {
            Ok(_) => Ok(cost),
            Err(_) => Err(NandError::ProgramFailed { ppn }),
        }
    }

    /// Programs `block`'s next pages with `lpns`, in order — a loop of
    /// [`program`](Self::program) on the block's write pointer in one
    /// call. Every page draws the one fault `program` draws, so a seeded
    /// [`FaultModel`] fails the same pages either way; the block is
    /// checked once and the run's program time is charged as one product.
    ///
    /// The PPN of each page programmed is appended to `dst_ppns`. The run
    /// ends when the block is full, when `lpns` is exhausted, or at the
    /// first failed program: that page is consumed (programmed and
    /// immediately invalid) and [`ProgramRun::failed`] is set, so the
    /// caller decides where the write is retried.
    ///
    /// # Errors
    ///
    /// [`NandError::BlockOutOfRange`] for a bad block, or
    /// [`NandError::LpnTooLarge`] when an LPN the block has room for
    /// cannot be recorded in an OOB entry; nothing is programmed then.
    pub fn program_run(
        &mut self,
        block: BlockId,
        lpns: &[Lpn],
        dst_ppns: &mut Vec<Ppn>,
    ) -> Result<ProgramRun, NandError> {
        self.check_block(block)?;
        let header = self.tables.block(block.0);
        let lpns = &lpns[..lpns.len().min(header.free_pages() as usize)];
        let worn = header.erase_count();
        for &lpn in lpns {
            Self::oob_entry(lpn)?;
        }
        let first_page = u64::from(block.0) * u64::from(self.geometry.pages_per_block());
        let mut out = ProgramRun::default();
        for &lpn in lpns {
            // In range: every entry was checked above.
            match self.program_page(block.0, worn, lpn.0 as u32) {
                Ok(offset) => {
                    dst_ppns.push(Ppn(first_page + u64::from(offset)));
                    out.programmed += 1;
                }
                Err(_) => {
                    out.failed = true;
                    break;
                }
            }
        }
        let attempts = out.programmed as u64 + u64::from(out.failed);
        out.duration = self.timing.page_program_cost() * attempts;
        self.stats.program_time += out.duration;
        Ok(out)
    }

    /// The one page program behind [`program`](Self::program),
    /// [`program_run`](Self::program_run) and the copy: draws the fault a
    /// program on a block erased `worn` times draws, writes `entry` to
    /// `block`'s next page and keeps the tallies and counters — all but
    /// `program_time`, which each caller charges. `Ok(offset)` for a valid
    /// page, `Err(offset)` for one the fault consumed.
    fn program_page(&mut self, block: u32, worn: u64, entry: u32) -> Result<u32, u32> {
        let failed = self.fault.as_mut().is_some_and(|f| f.program_fails(worn));
        let offset = self.tables.program_next(block, entry, !failed);
        self.free_total -= 1;
        if failed {
            self.invalid_total += 1;
            self.stats.program_failures += 1;
            Err(offset)
        } else {
            self.valid_total += 1;
            self.stats.programs += 1;
            Ok(offset)
        }
    }

    /// Erases one block, returning the simulated cost.
    ///
    /// # Errors
    ///
    /// [`NandError::BlockOutOfRange`] for a bad address,
    /// [`NandError::BlockWornOut`] when an endurance limit is configured
    /// and reached, or [`NandError::EraseFailed`] when the fault injector
    /// fires — the block keeps its page states and should be retired.
    pub fn erase(&mut self, block: BlockId) -> Result<SimDuration, NandError> {
        self.check_block(block)?;
        let before = self.tables.block(block.0);
        let worn = before.erase_count();
        if let Some(limit) = self.endurance_limit {
            if worn >= limit {
                return Err(NandError::BlockWornOut { block, limit });
            }
        }
        if let Some(fault) = &mut self.fault {
            if fault.erase_fails(worn) {
                self.stats.erase_failures += 1;
                self.stats.erase_time += self.timing.block_erase_cost();
                return Err(NandError::EraseFailed { block });
            }
        }
        self.valid_total -= u64::from(before.valid_pages());
        self.invalid_total -= u64::from(before.invalid_pages());
        self.free_total += u64::from(before.write_ptr());
        self.tables.erase(block.0);
        let cost = self.timing.block_erase_cost();
        self.stats.erases += 1;
        self.stats.erase_time += cost;
        Ok(cost)
    }

    /// Marks a valid page invalid (metadata-only; consumes no array time).
    ///
    /// # Errors
    ///
    /// [`NandError::PpnOutOfRange`] for a bad address, or
    /// [`NandError::InvalidateNonValidPage`] unless the page is valid.
    pub fn invalidate(&mut self, ppn: Ppn) -> Result<(), NandError> {
        let at = self.locate(ppn)?;
        self.invalidate_at(at, ppn)
    }

    /// [`invalidate`](Self::invalidate) of an address already split.
    fn invalidate_at(&mut self, at: PageAt, ppn: Ppn) -> Result<(), NandError> {
        if !self.tables.invalidate(at.block, at.offset) {
            return Err(NandError::InvalidateNonValidPage { ppn });
        }
        self.valid_total -= 1;
        self.invalid_total += 1;
        self.stats.invalidations += 1;
        Ok(())
    }

    /// Relocates a batch of valid pages into the destination block — the
    /// vectorized form of GC's per-page read → program → invalidate loop.
    ///
    /// For each `(source, lpn)` pair, in slice order: read the source
    /// (fault draw against the source block's wear; uncorrectable data is
    /// salvaged, not dropped), program the destination's next sequential
    /// page (retrying past pages consumed by injected program failures),
    /// then invalidate the source. Fault draws therefore happen in
    /// exactly the per-operation order of the equivalent loop, so a
    /// seeded [`FaultModel`] produces the identical failure timeline
    /// either way. The batching amortizes per-call dispatch: destination
    /// bounds and wear are checked once, and the caller gets one outcome
    /// instead of three results per page.
    ///
    /// The new location of every copied page is appended to `dst_ppns`
    /// (index-aligned with the leading `copied` entries of `srcs`). When
    /// `first_read_done` is set, the first source page's read has already
    /// been performed (and its fault drawn) by the caller and is skipped
    /// here — GC reads a victim page *before* securing a destination for
    /// it, and resumed calls after a destination change must not re-read.
    ///
    /// The call stops early, with [`CopyOutcome::pending_read`] set, when
    /// the destination fills up; the caller allocates a fresh destination
    /// and resumes from `srcs[copied..]`.
    ///
    /// # Errors
    ///
    /// [`NandError::BlockOutOfRange`] / [`NandError::PpnOutOfRange`] for
    /// bad addresses, [`NandError::LpnTooLarge`] for an LPN an OOB entry
    /// cannot record, [`NandError::ReadUnwrittenPage`] when a source page
    /// holds no data, or [`NandError::InvalidateNonValidPage`] when a
    /// source page is not valid — all indicate caller bugs, as in the
    /// per-page loop.
    pub fn copy_pages(
        &mut self,
        srcs: &[(Ppn, Lpn)],
        dst: BlockId,
        first_read_done: bool,
        dst_ppns: &mut Vec<Ppn>,
    ) -> Result<CopyOutcome, NandError> {
        self.copy_pages_within(srcs, dst, first_read_done, dst_ppns, None)
    }

    /// [`copy_pages`](Self::copy_pages) under a time budget: with
    /// `room = Some(r)`, the copy stops *before* the source read of the
    /// first page for which `duration + page_migrate_cost > r` — the gate
    /// budgeted background GC applies before every page, evaluated where
    /// the pages move. A page whose read the caller already performed
    /// (`first_read_done`) is past its gate and always completes. A page
    /// that is started is finished (program retries included) even when
    /// that overruns `r`, exactly as the per-page loop behaves, so
    /// preemption stays page-exact.
    ///
    /// A budget stop performs no read, draws no fault and touches no
    /// counter for the page it refuses, and never sets
    /// [`CopyOutcome::pending_read`]: the caller tells it from completion
    /// by `copied < srcs.len()`. `room = None` is unlimited.
    ///
    /// # Errors
    ///
    /// As [`copy_pages`](Self::copy_pages).
    pub fn copy_pages_within(
        &mut self,
        srcs: &[(Ppn, Lpn)],
        dst: BlockId,
        first_read_done: bool,
        dst_ppns: &mut Vec<Ppn>,
        room: Option<SimDuration>,
    ) -> Result<CopyOutcome, NandError> {
        self.check_block(dst)?;
        let mut out = CopyOutcome::default();
        let migrate_cost = self.timing.page_migrate_cost();
        let read_cost = self.timing.page_read_cost();
        let program_cost = self.timing.page_program_cost();
        let per_block = self.geometry.pages_per_block();
        let dst_first_page = u64::from(dst.0) * u64::from(per_block);
        // No erase can happen mid-copy, so both wear inputs to the fault
        // probabilities are constants fetched once per call.
        let dst_worn = self.tables.block(dst.0).erase_count();

        for (idx, &(src, lpn)) in srcs.iter().enumerate() {
            let page_start = out.duration;
            let caller_read_it = idx == 0 && first_read_done;
            if !caller_read_it && room.is_some_and(|room| out.duration + migrate_cost > room) {
                return Ok(out);
            }
            let src_at = self.locate(src)?;
            let entry = Self::oob_entry(lpn)?;
            // Source read. The caller may have read the first page itself
            // (GC reads before it knows whether a destination exists).
            if !caller_read_it {
                let block = self.tables.block(src_at.block);
                if src_at.offset >= block.write_ptr() {
                    return Err(NandError::ReadUnwrittenPage { ppn: src });
                }
                let src_worn = block.erase_count();
                let uncorrectable = self.fault.as_mut().is_some_and(|f| f.read_fails(src_worn));
                if uncorrectable {
                    self.stats.read_failures += 1;
                    out.read_failures += 1;
                } else {
                    self.stats.reads += 1;
                }
                self.stats.read_time += read_cost;
                out.duration += read_cost;
            }

            // Program into the destination, retrying past consumed pages.
            let new_ppn = loop {
                if self.tables.block(dst.0).is_full() {
                    // Destination full with this page's read already done:
                    // hand back to the caller for a fresh destination.
                    out.pending_read = true;
                    out.pending_cost = out.duration - page_start;
                    return Ok(out);
                }
                self.stats.program_time += program_cost;
                out.duration += program_cost;
                match self.program_page(dst.0, dst_worn, entry) {
                    Ok(offset) => break Ppn(dst_first_page + u64::from(offset)),
                    // A failed program consumes the page — programmed and
                    // immediately invalid — so the retry makes progress.
                    Err(_) => out.program_retries += 1,
                }
            };

            // Retire the source copy.
            self.invalidate_at(src_at, src)?;
            dst_ppns.push(new_ppn);
            out.copied += 1;
        }
        Ok(out)
    }

    /// State of the page at `ppn`.
    ///
    /// # Panics
    ///
    /// Panics if `ppn` is out of range.
    #[must_use]
    pub fn page_state(&self, ppn: Ppn) -> PageState {
        let block = self.geometry.block_of(ppn);
        self.block(block).page_state(self.geometry.page_offset(ppn))
    }

    /// OOB-recorded owner of the page at `ppn`.
    ///
    /// # Panics
    ///
    /// Panics if `ppn` is out of range.
    #[must_use]
    pub fn page_lpn(&self, ppn: Ppn) -> Option<Lpn> {
        let block = self.geometry.block_of(ppn);
        self.block(block).page_lpn(self.geometry.page_offset(ppn))
    }

    /// Total valid pages across the device. O(1): read from the
    /// incrementally maintained tally (debug builds re-derive it from the
    /// block headers and assert agreement).
    #[must_use]
    pub fn total_valid_pages(&self) -> u64 {
        debug_assert_eq!(
            self.valid_total,
            self.tables.recount().0,
            "valid-page tally diverged from the block headers"
        );
        self.valid_total
    }

    /// Total invalid pages across the device. O(1), see
    /// [`total_valid_pages`](Self::total_valid_pages).
    #[must_use]
    pub fn total_invalid_pages(&self) -> u64 {
        debug_assert_eq!(
            self.invalid_total,
            self.tables.recount().1,
            "invalid-page tally diverged from the block headers"
        );
        self.invalid_total
    }

    /// Total free (programmable) pages across the device. O(1), see
    /// [`total_valid_pages`](Self::total_valid_pages).
    #[must_use]
    pub fn total_free_pages(&self) -> u64 {
        debug_assert_eq!(
            self.free_total,
            self.tables.recount().2,
            "free-page tally diverged from the block headers"
        );
        self.free_total
    }

    /// The wear distribution across blocks.
    #[must_use]
    pub fn wear_report(&self) -> WearReport {
        WearReport::from_counts(self.tables.erase_counts())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultConfig;

    fn tiny() -> NandDevice {
        NandDevice::new(
            Geometry::builder()
                .blocks(2)
                .pages_per_block(4)
                .page_size_bytes(4096)
                .build(),
            NandTiming::mlc_20nm(),
        )
    }

    #[test]
    fn program_then_read() {
        let mut dev = tiny();
        dev.program(Ppn(0), Lpn(10)).expect("page 0 free");
        let cost = dev.read(Ppn(0)).expect("page programmed");
        assert_eq!(cost, dev.timing().page_read_cost());
        assert_eq!(dev.stats().reads, 1);
        assert_eq!(dev.stats().programs, 1);
    }

    #[test]
    fn read_free_page_fails() {
        let mut dev = tiny();
        assert!(matches!(
            dev.read(Ppn(0)),
            Err(NandError::ReadUnwrittenPage { .. })
        ));
    }

    #[test]
    fn read_invalid_page_succeeds() {
        // Physically, stale data is still readable; only free pages error.
        let mut dev = tiny();
        dev.program(Ppn(0), Lpn(1)).expect("free");
        dev.invalidate(Ppn(0)).expect("valid");
        assert!(dev.read(Ppn(0)).is_ok());
    }

    #[test]
    fn sequential_program_enforced() {
        let mut dev = tiny();
        assert!(matches!(
            dev.program(Ppn(2), Lpn(1)),
            Err(NandError::ProgramOutOfOrder {
                expected_offset: 0,
                ..
            })
        ));
        dev.program(Ppn(0), Lpn(1)).expect("in order");
        dev.program(Ppn(1), Lpn(2)).expect("in order");
        // Re-programming page 0 violates erase-before-write.
        assert!(matches!(
            dev.program(Ppn(0), Lpn(3)),
            Err(NandError::ProgramProgrammedPage { .. })
        ));
    }

    #[test]
    fn full_block_rejects_program() {
        let mut dev = tiny();
        for i in 0..4 {
            dev.program(Ppn(i), Lpn(i)).expect("in order");
        }
        assert!(dev.program(Ppn(3), Lpn(9)).is_err());
        // The next block is unaffected.
        dev.program(Ppn(4), Lpn(9)).expect("block 1 page 0 free");
    }

    #[test]
    fn erase_enables_rewrite() {
        let mut dev = tiny();
        for i in 0..4 {
            dev.program(Ppn(i), Lpn(i)).expect("in order");
        }
        dev.erase(BlockId(0)).expect("in range");
        assert_eq!(dev.page_state(Ppn(0)), PageState::Free);
        dev.program(Ppn(0), Lpn(20)).expect("erased");
        assert_eq!(dev.block(BlockId(0)).erase_count(), 1);
    }

    #[test]
    fn out_of_range_addresses_fail() {
        let mut dev = tiny();
        assert!(matches!(
            dev.read(Ppn(8)),
            Err(NandError::PpnOutOfRange { .. })
        ));
        assert!(matches!(
            dev.program(Ppn(8), Lpn(0)),
            Err(NandError::PpnOutOfRange { .. })
        ));
        assert!(matches!(
            dev.erase(BlockId(2)),
            Err(NandError::BlockOutOfRange { .. })
        ));
        assert!(matches!(
            dev.invalidate(Ppn(8)),
            Err(NandError::PpnOutOfRange { .. })
        ));
    }

    #[test]
    fn invalidate_requires_valid() {
        let mut dev = tiny();
        assert!(dev.invalidate(Ppn(0)).is_err());
        dev.program(Ppn(0), Lpn(0)).expect("free");
        dev.invalidate(Ppn(0)).expect("valid");
        assert!(dev.invalidate(Ppn(0)).is_err());
        assert_eq!(dev.stats().invalidations, 1);
    }

    #[test]
    fn endurance_limit_enforced() {
        let mut dev = tiny().with_endurance_limit(2);
        dev.erase(BlockId(0)).expect("cycle 1");
        dev.erase(BlockId(0)).expect("cycle 2");
        assert!(matches!(
            dev.erase(BlockId(0)),
            Err(NandError::BlockWornOut { limit: 2, .. })
        ));
        // Other blocks still erasable.
        dev.erase(BlockId(1)).expect("fresh block");
    }

    #[test]
    fn page_counts_are_consistent() {
        let mut dev = tiny();
        dev.program(Ppn(0), Lpn(0)).expect("free");
        dev.program(Ppn(1), Lpn(1)).expect("free");
        dev.invalidate(Ppn(0)).expect("valid");
        assert_eq!(dev.total_valid_pages(), 1);
        assert_eq!(dev.total_invalid_pages(), 1);
        assert_eq!(dev.total_free_pages(), 6);
        assert_eq!(
            dev.total_valid_pages() + dev.total_invalid_pages() + dev.total_free_pages(),
            dev.geometry().total_pages()
        );
    }

    #[test]
    fn wear_report_reflects_erases() {
        let mut dev = tiny();
        dev.erase(BlockId(0)).expect("in range");
        dev.erase(BlockId(0)).expect("in range");
        dev.erase(BlockId(1)).expect("in range");
        let wear = dev.wear_report();
        assert_eq!(wear.total, 3);
        assert_eq!(wear.max, 2);
        assert_eq!(wear.min, 1);
    }

    /// The per-page GC relocation sequence `copy_pages` replaces, kept
    /// here as the reference for equivalence tests.
    fn loop_copy(
        dev: &mut NandDevice,
        srcs: &[(Ppn, Lpn)],
        dst: BlockId,
    ) -> (SimDuration, Vec<Ppn>, u64, u64) {
        let mut duration = SimDuration::ZERO;
        let mut dsts = Vec::new();
        let mut read_failures = 0u64;
        let mut retries = 0u64;
        for &(src, lpn) in srcs {
            duration += match dev.read(src) {
                Ok(t) => t,
                Err(NandError::ReadFailed { .. }) => {
                    read_failures += 1;
                    dev.timing().page_read_cost()
                }
                Err(e) => panic!("source read: {e}"),
            };
            let new_ppn = loop {
                let offset = dev.block(dst).next_free_offset().expect("dst has space");
                let ppn = dev.geometry().ppn(dst, offset);
                match dev.program(ppn, lpn) {
                    Ok(t) => {
                        duration += t;
                        break ppn;
                    }
                    Err(NandError::ProgramFailed { .. }) => {
                        duration += dev.timing().page_program_cost();
                        retries += 1;
                    }
                    Err(e) => panic!("program: {e}"),
                }
            };
            dev.invalidate(src).expect("source is valid");
            dsts.push(new_ppn);
        }
        (duration, dsts, read_failures, retries)
    }

    fn assert_same_device_state(a: &NandDevice, b: &NandDevice) {
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.total_valid_pages(), b.total_valid_pages());
        assert_eq!(a.total_invalid_pages(), b.total_invalid_pages());
        assert_eq!(a.total_free_pages(), b.total_free_pages());
        for blk in 0..a.geometry().blocks() {
            let (ba, bb) = (a.block(BlockId(blk)), b.block(BlockId(blk)));
            assert_eq!(ba.erase_count(), bb.erase_count(), "block {blk} wear");
            assert_eq!(
                ba.iter_pages().collect::<Vec<_>>(),
                bb.iter_pages().collect::<Vec<_>>(),
                "block {blk} pages"
            );
        }
    }

    fn copy_fixture() -> NandDevice {
        let mut dev = NandDevice::new(
            Geometry::builder()
                .blocks(4)
                .pages_per_block(8)
                .page_size_bytes(4096)
                .build(),
            NandTiming::mlc_20nm(),
        );
        for i in 0..8 {
            dev.program(Ppn(i), Lpn(i)).expect("victim fill");
        }
        for off in [1, 3, 5] {
            dev.invalidate(Ppn(off)).expect("valid");
        }
        dev
    }

    fn victim_srcs(dev: &NandDevice, victim: BlockId) -> Vec<(Ppn, Lpn)> {
        dev.block(victim)
            .valid_lpns()
            .map(|(off, lpn)| (dev.geometry().ppn(victim, off), lpn))
            .collect()
    }

    /// A 32-page victim (block 0) and destination (block 1), both worn so
    /// that `fault` (whose `erase_rate` must be zero) can fire on reads and
    /// programs. Same seed ⇒ identical devices.
    fn worn_faulty_fixture(fault: FaultConfig) -> NandDevice {
        let mut dev = NandDevice::new(
            Geometry::builder()
                .blocks(4)
                .pages_per_block(32)
                .page_size_bytes(4096)
                .build(),
            NandTiming::mlc_20nm(),
        )
        .with_fault_model(FaultModel::new(fault));
        for blk in [BlockId(0), BlockId(1)] {
            for _ in 0..5 {
                dev.erase(blk).expect("erase never faults here");
            }
        }
        // Fill the victim, tolerating injected program failures.
        while let Some(off) = dev.block(BlockId(0)).next_free_offset() {
            let ppn = dev.geometry().ppn(BlockId(0), off);
            let _ = dev.program(ppn, Lpn(u64::from(off)));
        }
        dev
    }

    #[test]
    fn copy_pages_matches_the_per_page_loop() {
        let mut looped = copy_fixture();
        let mut bulk = copy_fixture();
        let srcs = victim_srcs(&looped, BlockId(0));
        let (duration, dsts, _, _) = loop_copy(&mut looped, &srcs, BlockId(1));

        let mut bulk_dsts = Vec::new();
        let out = bulk
            .copy_pages(&srcs, BlockId(1), false, &mut bulk_dsts)
            .expect("copy");
        assert_eq!(out.copied, srcs.len());
        assert_eq!(out.duration, duration);
        assert!(!out.pending_read);
        assert_eq!(out.read_failures, 0);
        assert_eq!(out.program_retries, 0);
        assert_eq!(bulk_dsts, dsts);
        assert_same_device_state(&looped, &bulk);
    }

    #[test]
    fn copy_pages_stops_with_a_pending_read_when_the_destination_fills() {
        let mut dev = copy_fixture();
        // Leave only two free pages in the destination.
        for i in 0..6 {
            dev.program(Ppn(8 + i), Lpn(100 + i)).expect("dst fill");
        }
        let srcs = victim_srcs(&dev, BlockId(0));
        assert_eq!(srcs.len(), 5);

        let mut dsts = Vec::new();
        let out = dev
            .copy_pages(&srcs, BlockId(1), false, &mut dsts)
            .expect("copy");
        // Two pages fit; the third page's read already happened when the
        // full destination was discovered.
        assert_eq!(out.copied, 2);
        assert!(out.pending_read);
        assert_eq!(dsts.len(), 2);
        assert_eq!(dev.stats().reads, 3);

        // Resume on a fresh destination without re-reading.
        let out = dev
            .copy_pages(&srcs[2..], BlockId(2), true, &mut dsts)
            .expect("resume");
        assert_eq!(out.copied, 3);
        assert!(!out.pending_read);
        assert_eq!(dev.stats().reads, 5, "resume must not re-read");
        assert_eq!(dsts.len(), 5);
        assert_eq!(dev.block(BlockId(0)).valid_pages(), 0);
    }

    #[test]
    fn copy_pages_matches_the_loop_under_faults() {
        let mut saw_read_failure = false;
        let mut saw_program_retry = false;
        for seed in 0..10 {
            let fault = FaultConfig {
                seed,
                program_rate: 0.35,
                erase_rate: 0.0,
                read_rate: 0.35,
                wear_scale: 10,
            };
            let mut looped = worn_faulty_fixture(fault);
            let mut bulk = worn_faulty_fixture(fault);
            let srcs: Vec<_> = victim_srcs(&looped, BlockId(0))
                .into_iter()
                .take(8)
                .collect();
            assert!(!srcs.is_empty(), "seed {seed} left no valid pages");

            let (duration, dsts, read_failures, retries) =
                loop_copy(&mut looped, &srcs, BlockId(1));
            let mut bulk_dsts = Vec::new();
            let out = bulk
                .copy_pages(&srcs, BlockId(1), false, &mut bulk_dsts)
                .expect("copy");
            assert_eq!(out.copied, srcs.len(), "seed {seed}");
            assert_eq!(out.duration, duration, "seed {seed}");
            assert_eq!(out.read_failures, read_failures, "seed {seed}");
            assert_eq!(out.program_retries, retries, "seed {seed}");
            assert_eq!(bulk_dsts, dsts, "seed {seed}");
            assert_same_device_state(&looped, &bulk);
            saw_read_failure |= read_failures > 0;
            saw_program_retry |= retries > 0;
        }
        assert!(saw_read_failure, "no seed injected an uncorrectable read");
        assert!(saw_program_retry, "no seed injected a program failure");
    }

    #[test]
    fn copy_pages_within_unlimited_is_copy_pages() {
        // Nearly full destination, so the comparison covers a pending read.
        let build = || {
            let mut dev = copy_fixture();
            for i in 0..6 {
                dev.program(Ppn(8 + i), Lpn(100 + i)).expect("dst fill");
            }
            dev
        };
        let (mut plain, mut within) = (build(), build());
        let srcs = victim_srcs(&plain, BlockId(0));
        let (mut plain_dsts, mut within_dsts) = (Vec::new(), Vec::new());
        let expected = plain
            .copy_pages(&srcs, BlockId(1), false, &mut plain_dsts)
            .expect("copy");
        let out = within
            .copy_pages_within(&srcs, BlockId(1), false, &mut within_dsts, None)
            .expect("copy");
        assert_eq!(out, expected);
        assert!(out.pending_read);
        assert_eq!(out.pending_cost, plain.timing().page_read_cost());
        assert_eq!(within_dsts, plain_dsts);
        assert_same_device_state(&plain, &within);
    }

    #[test]
    fn copy_pages_within_stops_before_the_read_it_cannot_afford() {
        let migrate = NandTiming::mlc_20nm().page_migrate_cost();
        let one_us = SimDuration::from_micros(1);
        // Rooms on either side of page-count boundaries of the 5-page victim.
        for (room, pages) in [
            (SimDuration::ZERO, 0),
            (migrate - one_us, 0),
            (migrate, 1),
            (migrate * 3 - one_us, 2),
            (migrate * 3, 3),
            (migrate * 9, 5),
        ] {
            let mut dev = copy_fixture();
            let srcs = victim_srcs(&dev, BlockId(0));
            let mut dsts = Vec::new();
            let out = dev
                .copy_pages_within(&srcs, BlockId(1), false, &mut dsts, Some(room))
                .expect("copy");
            assert_eq!(out.copied, pages, "room {room}");
            assert_eq!(out.duration, migrate * pages as u64, "room {room}");
            assert!(!out.pending_read, "a budget stop precedes the read");
            assert_eq!(out.pending_cost, SimDuration::ZERO);
            assert_eq!(dsts.len(), pages);
            // The refused page was not touched: no read, no invalidation.
            assert_eq!(dev.stats().reads, pages as u64, "room {room}");
            assert_eq!(dev.stats().programs, 8 + pages as u64);
            assert_eq!(
                dev.block(BlockId(0)).valid_pages() as usize,
                srcs.len() - pages
            );
        }
    }

    #[test]
    fn copy_pages_within_gate_skips_a_page_the_caller_already_read() {
        // `first_read_done`: the caller gated and read page 0 itself, so a
        // zero room still completes it and stops before page 1.
        let mut dev = copy_fixture();
        let srcs = victim_srcs(&dev, BlockId(0));
        let mut dsts = Vec::new();
        let out = dev
            .copy_pages_within(&srcs, BlockId(1), true, &mut dsts, Some(SimDuration::ZERO))
            .expect("copy");
        assert_eq!(out.copied, 1);
        assert_eq!(out.duration, dev.timing().page_program_cost());
        assert!(!out.pending_read);
        assert_eq!(dev.stats().reads, 0);
    }

    #[test]
    fn budget_stop_draws_no_fault() {
        let fault = FaultConfig {
            seed: 3,
            program_rate: 0.3,
            erase_rate: 0.0,
            read_rate: 0.3,
            wear_scale: 10,
        };
        // Copying 3 pages and being refused the 4th leaves the injector
        // where copying exactly 3 pages leaves it: the rest of the victim
        // then copies identically on both devices.
        let (mut stopped, mut exact) = (worn_faulty_fixture(fault), worn_faulty_fixture(fault));
        let srcs = victim_srcs(&stopped, BlockId(0));
        let mut dsts = Vec::new();
        let three = exact
            .copy_pages(&srcs[..3], BlockId(1), false, &mut dsts)
            .expect("copy");
        dsts.clear();
        let out = stopped
            .copy_pages_within(&srcs, BlockId(1), false, &mut dsts, Some(three.duration))
            .expect("copy");
        assert_eq!(out, three);
        assert_same_device_state(&stopped, &exact);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let rest_stopped = stopped.copy_pages(&srcs[3..], BlockId(2), false, &mut a);
        let rest_exact = exact.copy_pages(&srcs[3..], BlockId(2), false, &mut b);
        assert_eq!(rest_stopped, rest_exact);
        assert_eq!(a, b);
        assert_same_device_state(&stopped, &exact);
    }

    #[test]
    fn pending_cost_is_the_pending_pages_read_plus_its_failed_programs() {
        let mut saw_failed_programs_on_the_pending_page = false;
        for seed in 0..40 {
            let fault = FaultConfig {
                seed,
                program_rate: 0.5,
                erase_rate: 0.0,
                read_rate: 0.2,
                wear_scale: 10,
            };
            let mut dev = NandDevice::new(
                Geometry::builder()
                    .blocks(4)
                    .pages_per_block(8)
                    .page_size_bytes(4096)
                    .build(),
                NandTiming::mlc_20nm(),
            )
            .with_fault_model(FaultModel::new(fault));
            for _ in 0..8 {
                dev.erase(BlockId(1)).expect("erase never faults here");
            }
            // Unworn victim: its fill cannot fail.
            for i in 0..8 {
                dev.program(Ppn(i), Lpn(i)).expect("victim fill");
            }
            let srcs = victim_srcs(&dev, BlockId(0));
            let mut dsts = Vec::new();
            let out = dev
                .copy_pages(&srcs, BlockId(1), false, &mut dsts)
                .expect("copy");
            if !out.pending_read {
                assert_eq!(out.pending_cost, SimDuration::ZERO, "seed {seed}");
                continue;
            }
            // Every destination page past the last successful program was
            // burnt by the pending page.
            let used = dsts
                .last()
                .map_or(0, |&ppn| dev.geometry().page_offset(ppn) + 1);
            let burnt = u64::from(dev.geometry().pages_per_block() - used);
            let t = dev.timing();
            assert_eq!(
                out.pending_cost,
                t.page_read_cost() + t.page_program_cost() * burnt,
                "seed {seed}"
            );
            saw_failed_programs_on_the_pending_page |= burnt > 0;
        }
        assert!(saw_failed_programs_on_the_pending_page);
    }

    #[test]
    fn busy_time_accumulates() {
        let mut dev = tiny();
        dev.program(Ppn(0), Lpn(0)).expect("free");
        dev.read(Ppn(0)).expect("programmed");
        dev.erase(BlockId(1)).expect("in range");
        let t = dev.timing();
        let expected = t.page_program_cost() + t.page_read_cost() + t.block_erase_cost();
        assert_eq!(dev.stats().busy_time(), expected);
    }
}
