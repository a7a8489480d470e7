//! Host writes, reads and trims.

use super::{Ftl, Stream};
use crate::FtlError;
use jitgc_nand::{BlockId, Lpn, NandError, Ppn};
use jitgc_sim::{SimDuration, SimTime};

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

impl Ftl {
    /// Writes one logical page out-of-place, running foreground GC first if
    /// the free-block pool is at its floor.
    ///
    /// # Errors
    ///
    /// [`FtlError::LpnOutOfRange`] for an address beyond the user space;
    /// [`FtlError::NoReclaimableSpace`] if foreground GC cannot free any
    /// block (only possible with pathological over-provisioning);
    /// [`FtlError::ReadOnly`] once the device is read-only, which a write
    /// whose programs fail on as many pages as the device has brings about.
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
        let stream = self.host_stream(lpn, now);
        let mut active = self.host_block(stream, now, &mut outcome)?;

        // Out-of-place update: retire the previous copy.
        match self.mapping.get(lpn) {
            Some(old) => self.drop_copy(lpn, old)?,
            // Never-written LPNs can still sit on a stale SIP list.
            None => {
                self.sip.remove(lpn);
            }
        }

        // Each failed program consumes a page, but foreground GC hands
        // blocks full of failed pages back as free ones, so on a device
        // where every program fails the retries would never end. A write
        // that has failed on as many pages as the device holds gives up:
        // the device can no longer program, and it goes read-only.
        let mut attempts_left = self.device.geometry().total_pages();
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
                    attempts_left -= 1;
                    if attempts_left == 0 {
                        self.enter_read_only(now);
                        return Err(FtlError::ReadOnly);
                    }
                    active = self.host_block(stream, now, &mut outcome)?;
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
        self.stats.hot_stream_pages += u64::from(stream == Stream::Hot);
        Ok(outcome)
    }

    /// The block the next `stream` write goes to, running foreground GC
    /// first when opening one would eat into the pool's GC reserve. When
    /// even foreground GC cannot free space — only possible once
    /// retirements have consumed the over-provisioning — or no free block
    /// is left to open, the device transitions to read-only degraded mode
    /// instead of erroring with an internal GC failure.
    fn host_block(
        &mut self,
        stream: Stream,
        now: SimTime,
        outcome: &mut WriteOutcome,
    ) -> Result<BlockId, FtlError> {
        if self.room(stream).is_none() && self.pool_is_at_floor() {
            let collected = self.foreground_collect(now);
            let fgc = self.read_only_when_out_of_space(collected, now)?;
            outcome.foreground_gc = true;
            outcome.migrated_pages += fgc.pages_migrated;
            outcome.erased_blocks += fgc.blocks_erased;
            outcome.duration += fgc.duration;
            self.stats.fgc_invocations += 1;
            self.stats.fgc_blocks += fgc.blocks_erased;
            self.stats.fgc_time += fgc.duration;
        }
        let opened = self.ensure_open(stream);
        self.read_only_when_out_of_space(opened, now)
    }

    /// Takes `lpn`'s superseded copy at `old` off the books: invalid on
    /// flash, its block's candidate entry updated, and `lpn` off the SIP
    /// list together with that block's SIP count.
    fn drop_copy(&mut self, lpn: Lpn, old: Ppn) -> Result<(), FtlError> {
        self.device.invalidate(old)?;
        let b = self.device.geometry().block_of(old);
        self.victim_index.on_invalidate(b);
        if self.sip.remove(lpn) {
            self.sip_counts[b.0 as usize] = self.sip_counts[b.0 as usize].saturating_sub(1);
        }
        Ok(())
    }

    /// The stream a write of `lpn` goes to: hot when hot/cold separation
    /// is on and the page was last written within the hot window.
    fn host_stream(&self, lpn: Lpn, now: SimTime) -> Stream {
        // Never-written pages are cold by definition (mapping check, not a
        // timestamp sentinel — a legitimate write at t = 0 must count).
        let hot = self.lpn_last_write.as_ref().is_some_and(|times| {
            self.mapping.get(lpn).is_some()
                && now.saturating_since(times[lpn.0 as usize]) <= self.config.hot_window()
        });
        if hot {
            Stream::Hot
        } else {
            Stream::Cold
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
            self.drop_copy(lpn, old)?;
        }
        self.stats.trims += 1;
        Ok(())
    }

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
        lpns.iter().try_for_each(|&lpn| self.check_lpn(lpn))?;
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
        lpns.iter().try_for_each(|&lpn| self.check_lpn(lpn))?;
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

    /// LPNs whose most recent [`host_read_batch`](Self::host_read_batch)
    /// attempt came back uncorrectable, in batch order. Valid until the
    /// next batched read; a mirror layer re-reads these from the surviving
    /// replica.
    #[must_use]
    pub fn failed_read_lpns(&self) -> &[Lpn] {
        &self.failed_reads
    }
}
