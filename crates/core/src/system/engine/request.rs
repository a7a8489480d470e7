//! Host requests, the mirror-repair read, and surviving a read-only FTL.

use super::SsdSystem;
use jitgc_ftl::FtlError;
use jitgc_nand::Lpn;
use jitgc_sim::{SimDuration, SimTime};
use jitgc_workload::{IoKind, IoRequest};

impl SsdSystem {
    pub(super) fn execute(&mut self, req: IoRequest, issue: SimTime) -> SimTime {
        self.failed_reads.clear();
        let mut host_time = SimDuration::ZERO;
        let mut device_time = SimDuration::ZERO;
        match req.kind {
            IoKind::Read => {
                self.reads += 1;
                let mut misses = std::mem::take(&mut self.lpn_scratch);
                misses.clear();
                for lpn in req.lpns() {
                    if self.cache.read(lpn, issue) {
                        host_time += self.config.cache_op_time;
                    } else {
                        misses.push(lpn);
                    }
                }
                if !misses.is_empty() {
                    let out = self
                        .ftl
                        .host_read_batch(&misses, issue)
                        .expect("workload stays within user space");
                    device_time += out.duration;
                    // Never-written data reads back as zeros without
                    // touching the device.
                    host_time += self.config.cache_op_time.saturating_mul(out.unmapped);
                    if out.failed > 0 {
                        self.failed_reads
                            .extend_from_slice(self.ftl.failed_read_lpns());
                    }
                }
                self.lpn_scratch = misses;
            }
            IoKind::BufferedWrite => {
                self.buffered_writes += 1;
                // The cache is saturated with dirty data: the oldest
                // pages must hit the device before this write can be
                // absorbed. Stage them and issue one batch below.
                let mut writebacks = std::mem::take(&mut self.lpn_scratch);
                writebacks.clear();
                for lpn in req.lpns() {
                    host_time += self.config.cache_op_time;
                    let effect = self.cache.write(lpn, issue);
                    writebacks.extend(effect.forced_writebacks);
                }
                if !writebacks.is_empty() {
                    let written = self.ftl.host_write_batch(&writebacks, issue);
                    if let Some(out) = self.request_accepted(written, issue) {
                        device_time += out.duration;
                        // Every forced write-back that hit foreground GC
                        // is its own stall.
                        self.fgc_request_stalls += out.fgc_writes;
                    }
                }
                self.lpn_scratch = writebacks;
                // Linux dirty throttling: past the hard dirty ratio this
                // writer performs write-back itself — synchronously, GC
                // stalls and all. This is how a slow flush path reaches
                // the application.
                let throttled = self.cache.throttle_excess();
                if !throttled.is_empty() {
                    self.throttled_requests += 1;
                    let written = self.ftl.host_write_batch(&throttled, issue);
                    if let Some(out) = self.request_accepted(written, issue) {
                        device_time += out.duration;
                        self.fgc_request_stalls += u64::from(out.fgc_writes > 0);
                    }
                }
            }
            IoKind::DirectWrite => {
                self.direct_writes += 1;
                let mut lpns = std::mem::take(&mut self.lpn_scratch);
                lpns.clear();
                lpns.extend(req.lpns());
                let written = self.ftl.host_write_batch(&lpns, issue);
                if let Some(out) = self.request_accepted(written, issue) {
                    device_time += out.duration;
                    self.fgc_request_stalls += u64::from(out.fgc_writes > 0);
                    for &lpn in &lpns {
                        // A direct write supersedes any cached copy;
                        // drop it so a stale flush cannot overwrite the
                        // new data.
                        self.cache.invalidate(lpn);
                    }
                    let bytes = self.page_size() * u64::from(req.pages);
                    self.direct_bytes_interval += bytes.as_u64();
                    self.policy.observe_write(bytes, device_time);
                }
                self.lpn_scratch = lpns;
            }
            IoKind::Trim => {
                self.trims += 1;
                for lpn in req.lpns() {
                    let trimmed = self.ftl.trim(lpn, issue);
                    if self.request_accepted(trimmed, issue).is_none() {
                        break;
                    }
                    host_time += self.config.cache_op_time;
                }
            }
        }

        if device_time.is_zero() {
            issue + host_time
        } else {
            self.occupy(issue, device_time) + host_time
        }
    }

    /// Which FTL write errors a host path survives: `Some` of an accepted
    /// write, `None` once the device is read-only. The first refusal
    /// freezes the lifetime metric: host pages accepted since pre-fill
    /// ([`prefill`](Self::prefill) resets the counters).
    pub(super) fn accepted<T>(&mut self, written: Result<T, FtlError>, now: SimTime) -> Option<T> {
        match written {
            Ok(out) => Some(out),
            Err(FtlError::ReadOnly) => {
                if self.read_only_at.is_none() {
                    self.read_only_at = Some(now);
                    self.lifetime_host_pages = self.ftl.stats().host_pages_written;
                }
                None
            }
            Err(e) => panic!("host write within user space failed: {e}"),
        }
    }

    /// [`accepted`](Self::accepted) for a host request, which also counts
    /// as rejected when the device refuses it.
    fn request_accepted<T>(&mut self, written: Result<T, FtlError>, issue: SimTime) -> Option<T> {
        let out = self.accepted(written, issue);
        self.rejected_requests += u64::from(out.is_none());
        out
    }

    /// Mirror-repair read path: the array layer re-reads LPNs whose copy
    /// on the peer replica came back uncorrectable. Bypasses the page
    /// cache (the data demonstrably was not there) and returns the
    /// completion time plus how many pages failed on *this* replica too —
    /// those are lost for good.
    pub fn recovery_read(&mut self, lpns: &[Lpn], issue: SimTime) -> (SimTime, u64) {
        let out = self
            .ftl
            .host_read_batch(lpns, issue)
            .expect("recovery stays within user space");
        if out.duration.is_zero() {
            return (issue, out.failed);
        }
        (self.occupy(issue, out.duration), out.failed)
    }
}
