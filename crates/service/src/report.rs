//! The service run report: per-tenant accounting, the tier timeline, and
//! the underlying device report.

use jitgc_core::system::SimReport;
use jitgc_sim::json::{JsonValue, ObjectBuilder};

use crate::config::{TenantProfile, TierThresholds};
use crate::tier::Tier;

/// One tenant's share of the run.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// Configured driver profile.
    pub profile: TenantProfile,
    /// Fair-queueing weight.
    pub weight: u64,
    /// Closed-loop application threads.
    pub concurrency: u32,
    /// Requests submitted (accepted + blocked + shed).
    pub submitted: u64,
    /// Requests that executed on the device.
    pub completed: u64,
    /// Requests shed by Red/Black backpressure with busy completions.
    pub shed: u64,
    /// Requests whose dispatch a Yellow-tier arbiter pass skipped at
    /// least once.
    pub deferred: u64,
    /// Submissions that found the submission queue full and stalled.
    pub blocked: u64,
    /// Read requests submitted.
    pub reads: u64,
    /// Write requests submitted (buffered + direct).
    pub writes: u64,
    /// TRIM requests submitted.
    pub trims: u64,
    /// Host pages the device absorbed while stepping this tenant's
    /// requests (includes flusher write-back the step triggered).
    pub host_pages_written: u64,
    /// NAND pages programmed while stepping this tenant's requests
    /// (includes GC migrations the step triggered).
    pub nand_pages_programmed: u64,
    /// Attributed write amplification (`nand / host`); `None` when this
    /// tenant's steps wrote nothing.
    pub waf: Option<f64>,
    /// Bytes the arbiter dispatched for this tenant.
    pub served_bytes: u64,
    /// `served_bytes` as a fraction of all dispatched bytes.
    pub served_share: Option<f64>,
    /// Configured weight as a fraction of the roster total.
    pub weight_share: f64,
    /// Mean submission-to-completion latency in virtual µs.
    pub latency_mean_us: Option<u64>,
    /// Median completion latency in virtual µs.
    pub latency_p50_us: Option<u64>,
    /// 99th-percentile completion latency in virtual µs.
    pub latency_p99_us: Option<u64>,
    /// 99.9th-percentile completion latency in virtual µs.
    pub latency_p999_us: Option<u64>,
    /// Worst completion latency in virtual µs.
    pub latency_max_us: Option<u64>,
}

impl TenantReport {
    /// Serializes one tenant's section.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        ObjectBuilder::new()
            .field("name", self.name.as_str())
            .field("profile", self.profile.name())
            .field("weight", self.weight)
            .field("concurrency", u64::from(self.concurrency))
            .field("submitted", self.submitted)
            .field("completed", self.completed)
            .field("shed", self.shed)
            .field("deferred", self.deferred)
            .field("blocked", self.blocked)
            .field("reads", self.reads)
            .field("writes", self.writes)
            .field("trims", self.trims)
            .field("host_pages_written", self.host_pages_written)
            .field("nand_pages_programmed", self.nand_pages_programmed)
            .field("waf", self.waf)
            .field("served_bytes", self.served_bytes)
            .field("served_share", self.served_share)
            .field("weight_share", self.weight_share)
            .field("latency_mean_us", self.latency_mean_us)
            .field("latency_p50_us", self.latency_p50_us)
            .field("latency_p99_us", self.latency_p99_us)
            .field("latency_p999_us", self.latency_p999_us)
            .field("latency_max_us", self.latency_max_us)
            .build()
    }
}

/// The backpressure tier timeline of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct TierReport {
    /// The thresholds the run used.
    pub thresholds: TierThresholds,
    /// Every tier transition as `(virtual µs, tier entered)`, starting
    /// with `(0, Green)`.
    pub transitions: Vec<(u64, Tier)>,
    /// Virtual µs spent in each tier (Green, Yellow, Red, Black); sums to
    /// the run duration.
    pub residency_us: [u64; 4],
    /// The tier at the end of the run.
    pub final_tier: Tier,
}

impl TierReport {
    /// Serializes the tier section.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let transitions: Vec<JsonValue> = self
            .transitions
            .iter()
            .map(|&(at_us, tier)| {
                ObjectBuilder::new()
                    .field("at_us", at_us)
                    .field("tier", tier.name())
                    .build()
            })
            .collect();
        let residency = ObjectBuilder::new()
            .field("green_us", self.residency_us[0])
            .field("yellow_us", self.residency_us[1])
            .field("red_us", self.residency_us[2])
            .field("black_us", self.residency_us[3])
            .build();
        ObjectBuilder::new()
            .field("yellow_threshold", self.thresholds.yellow)
            .field("red_threshold", self.thresholds.red)
            .field("black_threshold", self.thresholds.black)
            .field("hysteresis", self.thresholds.hysteresis)
            .field("transitions", JsonValue::Array(transitions))
            .field("residency", residency)
            .field("final_tier", self.final_tier.name())
            .build()
    }
}

/// Everything one service run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    /// Per-tenant accounting, in roster order.
    pub tenants: Vec<TenantReport>,
    /// The backpressure tier timeline.
    pub tier: TierReport,
    /// Configured per-tenant submission-queue depth.
    pub sq_depth: usize,
    /// Configured device dispatch window.
    pub dispatch_window: usize,
    /// Whether backpressure actions (defer/shed) were enabled.
    pub backpressure: bool,
    /// The run's base seed.
    pub seed: u64,
    /// Virtual run length in µs.
    pub duration_us: u64,
    /// The engine's own report for the whole device.
    pub device: SimReport,
}

impl ServiceReport {
    /// The named tenant's report.
    #[must_use]
    pub fn tenant(&self, name: &str) -> Option<&TenantReport> {
        self.tenants.iter().find(|t| t.name == name)
    }

    /// Serializes the full service report. Deliberately excludes every
    /// fact that must not affect results (wall time), so
    /// equal configurations produce byte-identical output.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let tenants: Vec<JsonValue> = self.tenants.iter().map(TenantReport::to_json).collect();
        ObjectBuilder::new()
            .field("sq_depth", self.sq_depth as u64)
            .field("dispatch_window", self.dispatch_window as u64)
            .field("backpressure", self.backpressure)
            .field("seed", self.seed)
            .field("duration_us", self.duration_us)
            .field("tenants", JsonValue::Array(tenants))
            .field("tier", self.tier.to_json())
            .field("device", self.device.to_json())
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_report_serializes_names() {
        let r = TierReport {
            thresholds: TierThresholds::default(),
            transitions: vec![(0, Tier::Green), (10, Tier::Yellow)],
            residency_us: [10, 90, 0, 0],
            final_tier: Tier::Yellow,
        };
        let text = r.to_json().to_pretty();
        assert!(text.contains("\"yellow\""));
        assert!(text.contains("\"yellow_us\": 90"));
        let v = JsonValue::parse(&text).expect("reparse");
        assert_eq!(v.get("final_tier").unwrap().as_str(), Some("yellow"));
    }
}
