//! The per-run result record.

use jitgc_nand::WearReport;
use jitgc_sim::json::{JsonValue, ObjectBuilder};

/// One write-back interval's snapshot, recorded when
/// [`SystemConfig::record_timeline`](crate::system::SystemConfig) is set —
/// the raw material for time-series plots of free space, reserve targets
/// and GC activity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalSample {
    /// Interval start, seconds of simulated time.
    pub t_secs: f64,
    /// Device free pages at the interval start (after the flush).
    pub free_pages: u64,
    /// The policy's reserve target in pages.
    pub target_pages: u64,
    /// Host pages written during the interval that just closed.
    pub host_pages_interval: u64,
    /// Cumulative foreground-GC episodes so far.
    pub fgc_cumulative: u64,
    /// Cumulative background-GC blocks so far.
    pub bgc_blocks_cumulative: u64,
    /// Running Write Amplification Factor.
    pub waf: f64,
}

/// One entry of the device's failure timeline, as recorded in the run
/// report: a block retirement or the final transition to read-only mode.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradeEventRecord {
    /// Simulated time of the event, seconds.
    pub t_secs: f64,
    /// `"block_retired"` or `"read_only"`.
    pub kind: String,
    /// The retired block's id (`None` for the read-only transition).
    pub block: Option<u64>,
}

impl DegradeEventRecord {
    /// Serializes one failure-timeline entry.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        ObjectBuilder::new()
            .field("t_secs", self.t_secs)
            .field("kind", self.kind.as_str())
            .field("block", self.block)
            .build()
    }
}

/// End-of-life record for a run in which wear actually bit: injected
/// faults fired, blocks were retired, or the device went read-only. The
/// section is omitted entirely from reports of healthy runs so their
/// output stays byte-identical with pre-fault-model builds.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedReport {
    /// `true` once the device stopped accepting writes.
    pub read_only: bool,
    /// When the read-only transition happened, seconds of simulated time.
    pub read_only_at_secs: Option<f64>,
    /// The lifetime metric (paper Fig. 9's y-axis): host bytes accepted
    /// between the end of pre-fill and the read-only transition. `None`
    /// while the device is still writable.
    pub lifetime_host_bytes: Option<u64>,
    /// Blocks retired as bad.
    pub retired_blocks: u64,
    /// Pages permanently lost to retired blocks.
    pub retired_pages: u64,
    /// Page programs re-issued after an injected program failure.
    pub program_retries: u64,
    /// GC source reads that came back uncorrectable (data relocated raw).
    pub gc_read_failures: u64,
    /// Host reads that came back uncorrectable.
    pub host_read_failures: u64,
    /// Host requests refused after the read-only transition.
    pub rejected_requests: u64,
    /// The failure timeline, in event order.
    pub events: Vec<DegradeEventRecord>,
}

impl DegradedReport {
    /// Serializes the end-of-life section.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let events: Vec<JsonValue> = self
            .events
            .iter()
            .map(DegradeEventRecord::to_json)
            .collect();
        ObjectBuilder::new()
            .field("read_only", self.read_only)
            .field("read_only_at_secs", self.read_only_at_secs)
            .field("lifetime_host_bytes", self.lifetime_host_bytes)
            .field("retired_blocks", self.retired_blocks)
            .field("retired_pages", self.retired_pages)
            .field("program_retries", self.program_retries)
            .field("gc_read_failures", self.gc_read_failures)
            .field("host_read_failures", self.host_read_failures)
            .field("rejected_requests", self.rejected_requests)
            .field("events", JsonValue::Array(events))
            .build()
    }
}

/// Everything one simulation run measured — the raw material for every
/// table and figure in the paper's evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Policy display name ("L-BGC", "A-BGC", "ADP-GC", "JIT-GC", …).
    pub policy: String,
    /// Workload display name.
    pub workload: String,
    /// Victim-selection policy name.
    pub victim_policy: String,
    /// Simulated run length in seconds.
    pub duration_secs: f64,

    /// Completed host requests.
    pub ops: u64,
    /// Requests per simulated second — the paper's Fig. 2(a)/7(a) metric.
    pub iops: f64,
    /// Read / buffered-write / direct-write / trim request counts.
    pub reads: u64,
    /// Buffered-write requests.
    pub buffered_writes: u64,
    /// Direct-write requests.
    pub direct_writes: u64,
    /// TRIM requests.
    pub trims: u64,

    /// Write Amplification Factor — the paper's Fig. 2(b)/7(b) metric.
    /// `None` (JSON `null`) when the run performed zero host writes, in
    /// which case the ratio is undefined rather than silently 1.0.
    pub waf: Option<f64>,
    /// Total NAND block erases (lifetime consumed).
    pub nand_erases: u64,
    /// Wear distribution across blocks.
    pub wear: WearReport,

    /// Host requests that stalled on foreground GC.
    pub fgc_request_stalls: u64,
    /// Foreground-GC episodes triggered by flusher write-back.
    pub fgc_flush_stalls: u64,
    /// Buffered-write requests stalled by Linux dirty throttling
    /// (the writer had to perform write-back synchronously).
    pub throttled_requests: u64,
    /// Blocks reclaimed by background GC.
    pub bgc_blocks: u64,
    /// Pages migrated by GC (foreground + background).
    pub gc_pages_migrated: u64,

    /// Mean request latency in microseconds.
    pub latency_mean_us: u64,
    /// Median request latency in microseconds.
    pub latency_p50_us: u64,
    /// 99th-percentile request latency in microseconds.
    pub latency_p99_us: u64,
    /// 99.9th-percentile request latency in microseconds.
    pub latency_p999_us: u64,
    /// Worst request latency in microseconds.
    pub latency_max_us: u64,

    /// Mean prediction accuracy in percent (paper Table 2), if the policy
    /// predicts.
    pub prediction_accuracy_percent: Option<f64>,
    /// Fraction of BGC victim selections redirected by SIP filtering
    /// (paper Table 3), if a SIP list was ever installed.
    pub sip_filtered_fraction: Option<f64>,

    /// Page-cache read hit ratio.
    pub cache_hit_ratio: Option<f64>,
    /// Pages written to the device by the host (flushes + direct +
    /// forced writebacks).
    pub host_pages_written: u64,
    /// Pages the device programmed in total (host + GC migrations).
    pub nand_pages_programmed: u64,
    /// Per-interval snapshots (empty unless timeline recording was on).
    pub timeline: Vec<IntervalSample>,
    /// End-of-life record; `None` for a healthy run (and then absent from
    /// the JSON, keeping fault-free output byte-identical).
    pub degraded: Option<DegradedReport>,
}

impl SimReport {
    /// `IOPS(self) / IOPS(baseline)` — the normalization the paper applies
    /// (all its plots normalize to A-BGC).
    ///
    /// # Panics
    ///
    /// Panics if the baseline measured zero IOPS.
    #[must_use]
    pub fn normalized_iops(&self, baseline: &SimReport) -> f64 {
        assert!(baseline.iops > 0.0, "baseline has zero IOPS");
        self.iops / baseline.iops
    }

    /// `WAF(self) / WAF(baseline)`.
    ///
    /// # Panics
    ///
    /// Panics if either run performed zero host writes (WAF undefined) or
    /// the baseline measured zero WAF.
    #[must_use]
    pub fn normalized_waf(&self, baseline: &SimReport) -> f64 {
        let own = self.waf.expect("WAF undefined: run had no host writes");
        let base = baseline
            .waf
            .expect("baseline WAF undefined: run had no host writes");
        assert!(base > 0.0, "baseline has zero WAF");
        own / base
    }

    /// Serializes the full report to the repository's JSON format
    /// (`ssdsim --json`).
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let timeline: Vec<JsonValue> = self.timeline.iter().map(IntervalSample::to_json).collect();
        let mut b = ObjectBuilder::new()
            .field("policy", self.policy.as_str())
            .field("workload", self.workload.as_str())
            .field("victim_policy", self.victim_policy.as_str())
            .field("duration_secs", self.duration_secs)
            .field("ops", self.ops)
            .field("iops", self.iops)
            .field("reads", self.reads)
            .field("buffered_writes", self.buffered_writes)
            .field("direct_writes", self.direct_writes)
            .field("trims", self.trims)
            .field("waf", self.waf)
            .field("nand_erases", self.nand_erases)
            .field("wear", self.wear.to_json())
            .field("fgc_request_stalls", self.fgc_request_stalls)
            .field("fgc_flush_stalls", self.fgc_flush_stalls)
            .field("throttled_requests", self.throttled_requests)
            .field("bgc_blocks", self.bgc_blocks)
            .field("gc_pages_migrated", self.gc_pages_migrated)
            .field("latency_mean_us", self.latency_mean_us)
            .field("latency_p50_us", self.latency_p50_us)
            .field("latency_p99_us", self.latency_p99_us)
            .field("latency_p999_us", self.latency_p999_us)
            .field("latency_max_us", self.latency_max_us)
            .field(
                "prediction_accuracy_percent",
                self.prediction_accuracy_percent,
            )
            .field("sip_filtered_fraction", self.sip_filtered_fraction)
            .field("cache_hit_ratio", self.cache_hit_ratio)
            .field("host_pages_written", self.host_pages_written)
            .field("nand_pages_programmed", self.nand_pages_programmed)
            .field("timeline", JsonValue::Array(timeline));
        if let Some(degraded) = &self.degraded {
            b = b.field("degraded", degraded.to_json());
        }
        b.build()
    }
}

impl IntervalSample {
    /// Serializes one timeline sample to the repository's JSON format.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        ObjectBuilder::new()
            .field("t_secs", self.t_secs)
            .field("free_pages", self.free_pages)
            .field("target_pages", self.target_pages)
            .field("host_pages_interval", self.host_pages_interval)
            .field("fgc_cumulative", self.fgc_cumulative)
            .field("bgc_blocks_cumulative", self.bgc_blocks_cumulative)
            .field("waf", self.waf)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(iops: f64, waf: f64) -> SimReport {
        SimReport {
            policy: "X".into(),
            workload: "W".into(),
            victim_policy: "greedy".into(),
            duration_secs: 1.0,
            ops: 1,
            iops,
            reads: 0,
            buffered_writes: 0,
            direct_writes: 0,
            trims: 0,
            waf: Some(waf),
            nand_erases: 0,
            wear: WearReport::from_counts([0]),
            fgc_request_stalls: 0,
            fgc_flush_stalls: 0,
            throttled_requests: 0,
            bgc_blocks: 0,
            gc_pages_migrated: 0,
            latency_mean_us: 0,
            latency_p50_us: 0,
            latency_p99_us: 0,
            latency_p999_us: 0,
            latency_max_us: 0,
            prediction_accuracy_percent: None,
            sip_filtered_fraction: None,
            cache_hit_ratio: None,
            host_pages_written: 0,
            nand_pages_programmed: 0,
            timeline: Vec::new(),
            degraded: None,
        }
    }

    #[test]
    fn normalization() {
        let a = dummy(100.0, 2.0);
        let b = dummy(200.0, 4.0);
        assert_eq!(a.normalized_iops(&b), 0.5);
        assert_eq!(b.normalized_waf(&a), 2.0);
    }

    #[test]
    #[should_panic(expected = "zero IOPS")]
    fn zero_baseline_panics() {
        let a = dummy(100.0, 2.0);
        let z = dummy(0.0, 2.0);
        let _ = a.normalized_iops(&z);
    }

    #[test]
    fn json_report_is_parseable_and_faithful() {
        let mut report = dummy(1200.5, 1.25);
        report.ops = u64::MAX;
        report.timeline.push(IntervalSample {
            t_secs: 1.0,
            free_pages: 10,
            target_pages: 20,
            host_pages_interval: 5,
            fgc_cumulative: 0,
            bgc_blocks_cumulative: 2,
            waf: 1.5,
        });
        let v = JsonValue::parse(&report.to_json().to_pretty()).expect("reparse");
        assert_eq!(v.get("ops").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(v.get("iops").unwrap().as_f64(), Some(1200.5));
        assert!(v.get("prediction_accuracy_percent").unwrap().is_null());
        let samples = v.get("timeline").unwrap().as_array().unwrap();
        assert_eq!(
            samples[0].get("bgc_blocks_cumulative").unwrap().as_u64(),
            Some(2)
        );
    }
}
