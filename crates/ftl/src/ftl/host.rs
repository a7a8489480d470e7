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

/// One host page write in progress inside a batch.
struct PageWrite {
    stream: Stream,
    /// The old copy is off the books (done before the first retry).
    retired: bool,
    /// One of the page's block openings ran foreground GC.
    foreground_gc: bool,
    /// A write that has failed on as many pages as the device holds gives
    /// up: the device can no longer program, and it goes read-only.
    /// (Foreground GC hands blocks full of failed pages back as free ones,
    /// so on a device where every program fails retries would never end.)
    attempts_left: u64,
}

impl PageWrite {
    fn new(stream: Stream, ftl: &Ftl) -> Self {
        PageWrite {
            stream,
            retired: false,
            foreground_gc: false,
            attempts_left: ftl.device.geometry().total_pages(),
        }
    }
}

impl Ftl {
    /// Writes one logical page out-of-place, running foreground GC first if
    /// the free-block pool is at its floor: a one-page
    /// [`host_write_batch`](Self::host_write_batch).
    ///
    /// # Errors
    ///
    /// [`FtlError::LpnOutOfRange`] for an address beyond the user space;
    /// [`FtlError::NoReclaimableSpace`] if foreground GC cannot free any
    /// block (only possible with pathological over-provisioning);
    /// [`FtlError::ReadOnly`] once the device is read-only, which a write
    /// whose programs fail on as many pages as the device has brings about.
    pub fn host_write(&mut self, lpn: Lpn, now: SimTime) -> Result<WriteOutcome, FtlError> {
        let out = self.host_write_batch(&[lpn], now)?;
        Ok(WriteOutcome {
            duration: out.duration,
            foreground_gc: out.fgc_writes > 0,
            migrated_pages: out.migrated_pages,
            erased_blocks: out.erased_blocks,
        })
    }

    /// The block the next `stream` write goes to, running foreground GC
    /// first when opening one would eat into the pool's GC reserve, and
    /// whether it did. When even foreground GC cannot free space — only
    /// possible once retirements have consumed the over-provisioning — or
    /// no free block is left to open, the device transitions to read-only
    /// degraded mode instead of erroring with an internal GC failure.
    fn host_block(
        &mut self,
        stream: Stream,
        now: SimTime,
        outcome: &mut BatchWriteOutcome,
    ) -> Result<(BlockId, bool), FtlError> {
        let collect = self.room(stream).is_none() && self.pool_is_at_floor();
        if collect {
            let collected = self.foreground_collect(now);
            let fgc = self.read_only_when_out_of_space(collected, now)?;
            outcome.migrated_pages += fgc.pages_migrated;
            outcome.erased_blocks += fgc.blocks_erased;
            outcome.duration += fgc.duration;
            self.stats.fgc_invocations += 1;
            self.stats.fgc_blocks += fgc.blocks_erased;
            self.stats.fgc_time += fgc.duration;
        }
        let opened = self.ensure_open(stream);
        let block = self.read_only_when_out_of_space(opened, now)?;
        Ok((block, collect))
    }

    /// Retires `lpn`'s current copy ahead of its rewrite: invalid on
    /// flash, or — never written — off a stale SIP list.
    fn retire(&mut self, lpn: Lpn) -> Result<(), FtlError> {
        match self.mapping.get(lpn) {
            Some(old) => self.drop_copy(lpn, old),
            None => {
                self.sip.remove(lpn);
                Ok(())
            }
        }
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

    /// Writes logical pages in order, each out-of-place — the one host
    /// write path. Every address is validated up front; then the batch is
    /// written in runs: the pages that fit the open block of one stream go
    /// to the device in one [`program_run`](jitgc_nand::NandDevice::program_run)
    /// call, and are booked page by page (old copy retired, mapping set)
    /// in batch order. Foreground GC, the read-only rule and failed-program
    /// retries act where a page-at-a-time loop would meet them, and every
    /// device operation happens in that loop's order, so all counters, the
    /// fault draws and the device state end up identical to it.
    ///
    /// # Errors
    ///
    /// [`FtlError::LpnOutOfRange`] if *any* address is out of range — in
    /// that case nothing has been written (unlike a caller loop, which
    /// would stop mid-batch); [`FtlError::NoReclaimableSpace`] and
    /// [`FtlError::ReadOnly`] as [`host_write`](Self::host_write), with the
    /// earlier pages already written.
    pub fn host_write_batch(
        &mut self,
        lpns: &[Lpn],
        now: SimTime,
    ) -> Result<BatchWriteOutcome, FtlError> {
        lpns.iter().try_for_each(|&lpn| self.check_lpn(lpn))?;
        let mut out = BatchWriteOutcome::default();
        let mut next = 0;
        // The write of `lpns[next]` once one of its programs has failed.
        let mut retrying: Option<PageWrite> = None;
        while next < lpns.len() {
            let mut head = match retrying.take() {
                Some(head) => head,
                None => {
                    if self.read_only {
                        return Err(FtlError::ReadOnly);
                    }
                    PageWrite::new(self.host_stream(lpns[next], now), self)
                }
            };
            let (block, collected) = self
                .host_block(head.stream, now, &mut out)
                .map_err(|e| self.refuse(&head, lpns[next], e))?;
            head.foreground_gc |= collected;
            // Foreground GC that retired a block can leave the device
            // read-only: the head page is still written, the next refused.
            let end = if self.read_only {
                next + 1
            } else {
                let room = self.device.block(block).free_pages() as usize;
                self.run_end(lpns, next, lpns.len().min(next + room), head.stream, now)
            };
            let mut dsts = std::mem::take(&mut self.dst_scratch);
            dsts.clear();
            let run = self
                .device
                .program_run(block, &lpns[next..end], &mut dsts)?;
            out.duration += run.duration;
            for (k, (&lpn, &ppn)) in lpns[next..].iter().zip(&dsts).enumerate() {
                if k > 0 || !head.retired {
                    self.retire(lpn)?;
                }
                self.mapping.set(lpn, ppn);
                if let Some(times) = self.lpn_last_write.as_mut() {
                    times[lpn.0 as usize] = now;
                }
            }
            self.dst_scratch = dsts;
            if run.programmed > 0 {
                self.last_write[block.0 as usize] = now;
                self.stats.host_pages_written += run.programmed as u64;
                if head.stream == Stream::Hot {
                    self.stats.hot_stream_pages += run.programmed as u64;
                }
                // Only the head page can have met foreground GC.
                out.fgc_writes += u64::from(head.foreground_gc);
                next += run.programmed;
                head = PageWrite::new(head.stream, self);
            }
            if run.failed {
                // `lpns[next]`'s program consumed a page. Its old copy goes
                // now, before the retry's block may need foreground GC.
                if !head.retired {
                    self.retire(lpns[next])?;
                    head.retired = true;
                }
                self.stats.program_retries += 1;
                head.attempts_left -= 1;
                if head.attempts_left == 0 {
                    self.enter_read_only(now);
                    return Err(self.refuse(&head, lpns[next], FtlError::ReadOnly));
                }
                retrying = Some(head);
            }
        }
        Ok(out)
    }

    /// Gives up the write of `lpn` with `error`. Once a program of it has
    /// failed, its old copy is retired and foreground GC may since have
    /// erased that page, so the LPN is unmapped rather than left pointing
    /// there: its content is lost, as a failed write's may be.
    fn refuse(&mut self, head: &PageWrite, lpn: Lpn, error: FtlError) -> FtlError {
        if head.retired {
            self.mapping.take(lpn);
        }
        error
    }

    /// Where a run from `lpns[start]` on `stream`, with room up to
    /// `limit`, ends: at the first page of another stream, and — since a
    /// page's stream depends on its earlier writes — before an LPN the
    /// run already holds. Without hot/cold streams every page is cold.
    fn run_end(
        &self,
        lpns: &[Lpn],
        start: usize,
        limit: usize,
        stream: Stream,
        now: SimTime,
    ) -> usize {
        if self.lpn_last_write.is_none() {
            return limit;
        }
        let run = &lpns[start..limit];
        (1..run.len())
            .find(|&k| self.host_stream(run[k], now) != stream || run[..k].contains(&run[k]))
            .map_or(limit, |k| start + k)
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
        let read_cost = self.config.timing().page_read_cost();
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
                        out.duration += read_cost;
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
