//! The per-run result record for an array simulation.

use jitgc_core::system::SimReport;
use jitgc_nand::WearReport;
use jitgc_sim::json::{JsonValue, ObjectBuilder};

/// Everything one array run measured: array-level request statistics plus
/// the full per-member [`SimReport`]s the aggregates were derived from.
///
/// The array's latency distribution is *not* the merge of the member
/// distributions — a striped request completes when its **slowest**
/// sub-request does, so array tail latency is recorded at the volume
/// level by the scheduler and is generally worse than any single member's.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayReport {
    /// Member count.
    pub members: usize,
    /// Stripe chunk size in pages.
    pub chunk_pages: u64,
    /// Redundancy scheme name ("raid0" / "mirror").
    pub redundancy: String,
    /// BGC coordination mode name ("unsync" / "staggered").
    pub gc_mode: String,
    /// Policy display name (same on every member).
    pub policy: String,
    /// Workload display name.
    pub workload: String,
    /// Simulated run length in seconds (the slowest member's horizon).
    pub duration_secs: f64,

    /// Completed logical (volume-level) requests.
    pub ops: u64,
    /// Logical requests per simulated second.
    pub iops: f64,
    /// Logical requests whose extent crossed a chunk boundary and fanned
    /// out to more than one sub-request.
    pub split_requests: u64,
    /// Mirrored reads steered away from a busier primary replica.
    pub routed_reads: u64,

    /// Mean volume-level request latency in microseconds.
    pub latency_mean_us: u64,
    /// Median volume-level request latency in microseconds.
    pub latency_p50_us: u64,
    /// 99th-percentile volume-level request latency in microseconds.
    pub latency_p99_us: u64,
    /// 99.9th-percentile volume-level request latency in microseconds.
    pub latency_p999_us: u64,
    /// Worst volume-level request latency in microseconds.
    pub latency_max_us: u64,

    /// Array-level Write Amplification Factor:
    /// Σ member NAND programs / Σ member host writes. `None` (JSON
    /// `null`) when the run produced zero host writes — a read-only
    /// workload has no meaningful WAF, and `0/0` must not leak out as
    /// `NaN` (which the JSON format cannot even represent).
    pub waf: Option<f64>,
    /// Total NAND block erases across all members.
    pub nand_erases: u64,
    /// Spread of *per-member* total erase counts — the array-level
    /// analogue of per-block wear leveling. A large `std_dev` here means
    /// striping + GC coordination is wearing members unevenly and the
    /// array's lifetime is set by its unluckiest device.
    pub erase_spread: WearReport,
    /// Host requests (sub-requests) that stalled on foreground GC,
    /// summed over members.
    pub fgc_request_stalls: u64,
    /// Blocks reclaimed by background GC, summed over members.
    pub bgc_blocks: u64,

    /// Per-member scheduler accounting, index-aligned with
    /// `member_reports`. Every field is a function of the simulated
    /// timeline only — identical for any `--member-threads` count and
    /// under the serial reference driver — so it lives in the deterministic
    /// report; wall-clock artifacts (steal counts, epochs) are in
    /// `SchedTelemetry` instead.
    pub member_sched: Vec<MemberSched>,
    /// The untouched per-member reports.
    pub member_reports: Vec<SimReport>,
    /// End-of-life section; `None` while every member is healthy (and
    /// then absent from the JSON, keeping fault-free output
    /// byte-identical with pre-fault-model builds).
    pub degraded: Option<ArrayDegraded>,
}

/// One member's scheduler accounting: how far its virtual clock trailed
/// the issue times of the requests it served (the *lag* histogram — a
/// member deep in periodic work or FGC lags the horizon), and how often
/// it was the straggler that set a logical request's completion time.
///
/// `straggler_time_us` is the member's **exclusive** contribution to
/// volume latency: for each request it straggled, the gap between its
/// completion and the runner-up's — the part of the tail no other member
/// can hide. `straggler_fgc_requests` counts how many of those straggled
/// steps invoked foreground GC, attributing tail latency to GC rather
/// than plain load.
///
/// Straggler attribution only counts requests that fanned out to **two
/// or more** members (split extents, mirrored writes). A single-member
/// request has no runner-up — counting it would just re-measure that
/// member's load and bury the device that is actually holding
/// multi-member requests back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemberSched {
    /// Sub-requests this member executed.
    pub steps: u64,
    /// Mean time-behind-horizon at step issue, in microseconds.
    pub lag_mean_us: u64,
    /// 99th-percentile time-behind-horizon, in microseconds.
    pub lag_p99_us: u64,
    /// Worst time-behind-horizon, in microseconds.
    pub lag_max_us: u64,
    /// Multi-member requests whose completion this member set.
    pub straggler_requests: u64,
    /// Straggled requests whose step invoked foreground GC.
    pub straggler_fgc_requests: u64,
    /// Summed exclusive delay over straggled requests, in microseconds.
    pub straggler_time_us: u64,
}

impl MemberSched {
    /// Serializes one member's scheduler accounting.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        ObjectBuilder::new()
            .field("steps", self.steps)
            .field("lag_mean_us", self.lag_mean_us)
            .field("lag_p99_us", self.lag_p99_us)
            .field("lag_max_us", self.lag_max_us)
            .field("straggler_requests", self.straggler_requests)
            .field("straggler_fgc_requests", self.straggler_fgc_requests)
            .field("straggler_time_us", self.straggler_time_us)
            .build()
    }
}

/// Array-level end-of-life summary: how member wear-out surfaced at the
/// volume level. Per-member detail lives in each member report's own
/// `degraded` section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayDegraded {
    /// Members that have gone read-only.
    pub degraded_members: u64,
    /// Pages whose primary read was uncorrectable but which a mirror
    /// replica served successfully.
    pub recovered_pages: u64,
    /// Pages unreadable on every replica that holds them — actual data
    /// loss.
    pub lost_pages: u64,
}

impl ArrayDegraded {
    /// Serializes the end-of-life section.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        ObjectBuilder::new()
            .field("degraded_members", self.degraded_members)
            .field("recovered_pages", self.recovered_pages)
            .field("lost_pages", self.lost_pages)
            .build()
    }
}

impl ArrayReport {
    /// Serializes the full report (aggregate section plus one entry per
    /// member) to the repository's JSON format.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let members: Vec<JsonValue> = self.member_reports.iter().map(SimReport::to_json).collect();
        let sched: Vec<JsonValue> = self.member_sched.iter().map(MemberSched::to_json).collect();
        let mut b = ObjectBuilder::new()
            .field("members", self.members as u64)
            .field("chunk_pages", self.chunk_pages)
            .field("redundancy", self.redundancy.as_str())
            .field("gc_mode", self.gc_mode.as_str())
            .field("policy", self.policy.as_str())
            .field("workload", self.workload.as_str())
            .field("duration_secs", self.duration_secs)
            .field("ops", self.ops)
            .field("iops", self.iops)
            .field("split_requests", self.split_requests)
            .field("routed_reads", self.routed_reads)
            .field("latency_mean_us", self.latency_mean_us)
            .field("latency_p50_us", self.latency_p50_us)
            .field("latency_p99_us", self.latency_p99_us)
            .field("latency_p999_us", self.latency_p999_us)
            .field("latency_max_us", self.latency_max_us)
            .field("waf", self.waf)
            .field("nand_erases", self.nand_erases)
            .field("erase_spread", self.erase_spread.to_json())
            .field("fgc_request_stalls", self.fgc_request_stalls)
            .field("bgc_blocks", self.bgc_blocks)
            .field("member_sched", JsonValue::Array(sched))
            .field("member_reports", JsonValue::Array(members));
        if let Some(degraded) = &self.degraded {
            b = b.field("degraded", degraded.to_json());
        }
        b.build()
    }
}
