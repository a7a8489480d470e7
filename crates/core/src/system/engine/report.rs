//! The run's [`SimReport`], built from the engine's counters.

use super::SsdSystem;
use crate::system::{DegradeEventRecord, DegradedReport, SimReport};
use jitgc_ftl::DegradeKind;
use jitgc_sim::SimTime;

impl SsdSystem {
    pub(super) fn build_report(&self, end: SimTime) -> SimReport {
        let secs = end.as_secs_f64().max(f64::MIN_POSITIVE);
        let lat = |q: f64| self.latencies.percentile(q).map_or(0, |d| d.as_micros());
        let stats = self.ftl.stats();
        SimReport {
            policy: self.policy.name().to_owned(),
            workload: self.workload.name().to_owned(),
            victim_policy: self.ftl.victim_policy().to_owned(),
            duration_secs: secs,
            ops: self.ops,
            iops: self.ops as f64 / secs,
            reads: self.reads,
            buffered_writes: self.buffered_writes,
            direct_writes: self.direct_writes,
            trims: self.trims,
            waf: self.ftl.waf(),
            nand_erases: self.ftl.device().stats().erases,
            wear: self.ftl.device().wear_report(),
            fgc_request_stalls: self.fgc_request_stalls,
            fgc_flush_stalls: self.fgc_flush_stalls,
            throttled_requests: self.throttled_requests,
            bgc_blocks: stats.bgc_blocks,
            gc_pages_migrated: stats.gc_pages_migrated,
            latency_mean_us: self.latencies.mean().map_or(0, |d| d.as_micros()),
            latency_p50_us: lat(0.50),
            latency_p99_us: lat(0.99),
            latency_p999_us: lat(0.999),
            latency_max_us: self.latencies.max().map_or(0, |d| d.as_micros()),
            prediction_accuracy_percent: self.accuracy.mean_accuracy_percent(),
            sip_filtered_fraction: stats.sip_filtered_fraction(),
            cache_hit_ratio: self.cache.stats().hit_ratio(),
            host_pages_written: stats.host_pages_written,
            nand_pages_programmed: self.ftl.device().stats().programs,
            timeline: self.timeline.clone(),
            degraded: self.degraded_report(),
        }
    }

    /// Builds the end-of-life section, or `None` for a healthy run —
    /// omitting the section keeps fault-free reports byte-identical with
    /// builds that predate the fault model.
    fn degraded_report(&self) -> Option<DegradedReport> {
        let stats = self.ftl.stats();
        let device = self.ftl.device().stats();
        let events = self.ftl.degrade_events();
        let healthy = events.is_empty()
            && !self.ftl.read_only()
            && stats.program_retries == 0
            && stats.gc_read_failures == 0
            && stats.host_read_failures == 0
            && device.read_failures == 0;
        if healthy {
            return None;
        }
        let page_bytes = self.page_size().as_u64();
        Some(DegradedReport {
            read_only: self.ftl.read_only(),
            read_only_at_secs: self.read_only_at.map(SimTime::as_secs_f64),
            lifetime_host_bytes: self
                .read_only_at
                .map(|_| self.lifetime_host_pages * page_bytes),
            retired_blocks: self.ftl.retired_blocks(),
            retired_pages: self.ftl.retired_pages(),
            program_retries: stats.program_retries,
            gc_read_failures: stats.gc_read_failures,
            host_read_failures: stats.host_read_failures,
            rejected_requests: self.rejected_requests,
            events: events
                .iter()
                .map(|e| DegradeEventRecord {
                    t_secs: e.time.as_secs_f64(),
                    kind: match e.kind {
                        DegradeKind::BlockRetired(_) => "block_retired".to_owned(),
                        DegradeKind::ReadOnly => "read_only".to_owned(),
                    },
                    block: match e.kind {
                        DegradeKind::BlockRetired(b) => Some(u64::from(b.0)),
                        DegradeKind::ReadOnly => None,
                    },
                })
                .collect(),
        })
    }
}
