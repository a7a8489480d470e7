//! Service configuration and named-knob validation.

use jitgc_core::system::{ClosedLoop, SystemConfig};
use jitgc_workload::{ArrivalError, WorkloadConfig, WorkloadConfigBuilder};

/// The I/O personality a tenant's closed-loop driver generates.
///
/// The wire frontend accepts whatever a client submits; profiles exist so
/// the in-process deterministic driver (and the `ssdsimd` demo) can stand
/// up a recognisable tenant mix without a per-tenant workload DSL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantProfile {
    /// Latency-sensitive read-only tenant (point reads, 1–4 pages).
    Reader,
    /// Throughput-oriented writer (large 8–32-page writes, no reads).
    Writer,
    /// A 50/50 read/write tenant with small requests.
    Mixed,
}

impl TenantProfile {
    /// Display name, also the value accepted by the `--tenants` flag.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TenantProfile::Reader => "reader",
            TenantProfile::Writer => "writer",
            TenantProfile::Mixed => "mixed",
        }
    }

    /// Parses a `--tenants` profile token.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "reader" => Some(TenantProfile::Reader),
            "writer" => Some(TenantProfile::Writer),
            "mixed" => Some(TenantProfile::Mixed),
            _ => None,
        }
    }
}

impl std::fmt::Display for TenantProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One tenant of the service: an independent request stream with its own
/// queue pair, fair-queueing weight, and closed-loop think threads.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Display name (and the wire protocol's HELLO identity).
    pub name: String,
    /// Fair-queueing weight (> 0). The arbiter serves backlogged tenants
    /// in proportion to weight; backpressure tiers treat tenants whose
    /// weight is below the mix's mean as "low-weight".
    pub weight: u64,
    /// Request-stream personality for the in-process driver.
    pub profile: TenantProfile,
    /// Mean arrival rate of this tenant's closed-loop threads.
    pub mean_iops: f64,
    /// Closed-loop application threads (each keeps one request in flight).
    pub concurrency: u32,
}

/// Tier entry thresholds on the service's pressure signal, plus the
/// hysteresis margin for leaving a tier.
///
/// Pressure is `max(queue occupancy fraction, GC debt)` in `[0, 1]`.
/// A tier is entered when pressure reaches its threshold and left only
/// when pressure falls below `threshold − hysteresis`, so a signal
/// hovering at a boundary cannot oscillate the tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierThresholds {
    /// Entry threshold of Yellow (defer low-weight tenants' writes).
    pub yellow: f64,
    /// Entry threshold of Red (shed low-weight tenants' writes as Busy).
    pub red: f64,
    /// Entry threshold of Black (admit only reads).
    pub black: f64,
    /// Margin below a tier's entry threshold required to leave it.
    pub hysteresis: f64,
}

impl Default for TierThresholds {
    fn default() -> Self {
        TierThresholds {
            yellow: 0.50,
            red: 0.75,
            black: 0.90,
            hysteresis: 0.05,
        }
    }
}

/// Configuration of the whole multi-tenant service.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The tenant roster (≥ 1 entry). The device's logical space is
    /// partitioned evenly across tenants.
    pub tenants: Vec<TenantSpec>,
    /// Per-tenant submission-queue depth (> 0). A full SQ blocks further
    /// submissions from that tenant (they wait in a stalled buffer and
    /// re-enter admission when the queue drains).
    pub sq_depth: usize,
    /// How many dispatched requests may be in flight at the device at
    /// once (> 0) — the service-side analogue of NVMe queue depth.
    pub dispatch_window: usize,
    /// Backpressure tier thresholds (strictly increasing).
    pub tiers: TierThresholds,
    /// Master switch: with backpressure off the tier policy still tracks
    /// pressure (for the report) but never defers or sheds.
    pub backpressure: bool,
    /// Accepted and ignored: the in-process driver streams every tenant's
    /// requests on the calling thread and has no workers. Kept only so
    /// that struct literals written against the older API still build.
    #[doc(hidden)]
    pub worker_threads: usize,
    /// Test hook: the engine's quiescence fast-forward (DESIGN.md §15).
    /// `true` everywhere outside the identity tests, which compare
    /// against the per-tick loop; reports are byte-identical either way
    /// and `ssdsimd` has no flag for it.
    pub fast_forward: bool,
    /// Simulated seconds each tenant's workload emits.
    pub seconds: u64,
    /// Base RNG seed; tenant `i` derives its stream seed from it.
    pub seed: u64,
    /// The backing device (engine) configuration.
    pub system: SystemConfig,
}

impl ServiceConfig {
    /// The default three-tenant roster (`ssdsimd` without `--tenants`):
    /// one hot writer (weight 1, 1 200 IOPS, 8 threads), one
    /// latency-sensitive reader (weight 4, 400 IOPS, 2 threads) and one
    /// mixed tenant (weight 2, 400 IOPS, 2 threads), each named after its
    /// profile.
    #[must_use]
    pub fn default_tenants() -> Vec<TenantSpec> {
        [
            (TenantProfile::Writer, 1, 1_200.0, 8),
            (TenantProfile::Reader, 4, 400.0, 2),
            (TenantProfile::Mixed, 2, 400.0, 2),
        ]
        .into_iter()
        .map(|(profile, weight, mean_iops, concurrency)| TenantSpec {
            name: profile.name().into(),
            weight,
            profile,
            mean_iops,
            concurrency,
        })
        .collect()
    }

    /// A small configuration for tests and examples: the
    /// [default roster](Self::default_tenants) on the `small_for_tests`
    /// device.
    #[must_use]
    pub fn small_for_tests() -> Self {
        ServiceConfig {
            tenants: ServiceConfig::default_tenants(),
            sq_depth: 16,
            dispatch_window: 8,
            tiers: TierThresholds::default(),
            backpressure: true,
            worker_threads: 1,
            fast_forward: true,
            seconds: 30,
            seed: 42,
            system: SystemConfig::small_for_tests(),
        }
    }

    /// Checks every knob, returning a human-readable error naming the
    /// offending one for the CLI to print instead of a panic deep in the
    /// scheduler. [`Service::new`](crate::Service::new) asserts this.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending knob when the tenant list
    /// is empty, any weight is zero, a concurrency breaks
    /// [`ClosedLoop::check_threads`], a tenant's arrival knobs break
    /// [`WorkloadConfigBuilder::check_arrival`] (the run has no simulated
    /// second, or a rate is not positive and finite or leaves idle gaps
    /// past the clock), the SQ depth or dispatch window is zero, the tier
    /// thresholds are not strictly increasing within `(0, 1]`, the
    /// hysteresis is negative or at least the Yellow threshold, the device
    /// breaks [`SystemConfig::validate`] or leaves no standard working
    /// set, or the roster splits it into fewer than 64 pages per tenant.
    pub fn validate(&self) -> Result<(), String> {
        if self.tenants.is_empty() {
            return Err("the service needs at least one tenant".into());
        }
        for (i, t) in self.tenants.iter().enumerate() {
            if t.weight == 0 {
                return Err(format!(
                    "tenant {} ({}) has weight 0; fair-queueing weights must be positive",
                    i, t.name
                ));
            }
            ClosedLoop::check_threads(t.concurrency.into()).map_err(|rule| {
                format!(
                    "tenant {i} ({}) has concurrency {}; the thread count {rule}",
                    t.name, t.concurrency
                )
            })?;
            match self.tenant_workload(i).check_arrival() {
                Ok(()) => {}
                Err(ArrivalError::Duration) => return Err(ArrivalError::Duration.to_string()),
                Err(rule @ ArrivalError::TooLong) => {
                    return Err(format!("seconds {}: {rule}", self.seconds))
                }
                Err(rule) => {
                    return Err(format!(
                        "tenant {i} ({}) has mean IOPS {:?}: {rule}",
                        t.name, t.mean_iops
                    ))
                }
            }
        }
        if self.sq_depth == 0 {
            return Err("the submission-queue depth must be at least 1".into());
        }
        if self.dispatch_window == 0 {
            return Err("the dispatch window must be at least 1".into());
        }
        let t = &self.tiers;
        if !(t.yellow > 0.0 && t.yellow < t.red && t.red < t.black && t.black <= 1.0) {
            return Err(format!(
                "tier thresholds must be strictly increasing within (0, 1]: \
                 yellow {} < red {} < black {}",
                t.yellow, t.red, t.black
            ));
        }
        if !(t.hysteresis >= 0.0 && t.hysteresis < t.yellow) {
            return Err(format!(
                "tier hysteresis {} must be non-negative and below the Yellow threshold {}",
                t.hysteresis, t.yellow
            ));
        }
        self.system.validate()?;
        let per_tenant = self.system.standard_working_set()? / self.tenants.len() as u64;
        if per_tenant < 64 {
            return Err(format!(
                "{} tenants leave {per_tenant} pages each on this device; \
                 shrink the roster or grow the device",
                self.tenants.len()
            ));
        }
        Ok(())
    }

    /// Tenant `tenant`'s arrival knobs: its mean rate over the run's
    /// seconds, at the generators' default burst length. The driver adds
    /// the working set and the seed; [`validate`](Self::validate) checks
    /// what this sets.
    pub(crate) fn tenant_workload(&self, tenant: usize) -> WorkloadConfigBuilder {
        WorkloadConfig::builder()
            .seconds(self.seconds)
            .mean_iops(self.tenants[tenant].mean_iops)
    }

    /// Pages of logical space each tenant owns: the [standard working
    /// set](SystemConfig::standard_working_set) split evenly across the
    /// roster.
    ///
    /// # Panics
    ///
    /// Panics on a device without a working set, which
    /// [`validate`](Self::validate) rejects.
    #[must_use]
    pub fn pages_per_tenant(&self) -> u64 {
        let usable = self
            .system
            .standard_working_set()
            .expect("validate() checked the working set");
        usable / self.tenants.len() as u64
    }

    /// Mean weight of the roster; tenants strictly below it are the
    /// "low-weight" class that Yellow defers and Red sheds.
    #[must_use]
    pub fn mean_weight(&self) -> f64 {
        let sum: u64 = self.tenants.iter().map(|t| t.weight).sum();
        sum as f64 / self.tenants.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_config_validates() {
        assert_eq!(ServiceConfig::small_for_tests().validate(), Ok(()));
    }

    #[test]
    fn validate_names_the_offending_knob() {
        let err = |mutate: &dyn Fn(&mut ServiceConfig)| {
            let mut cfg = ServiceConfig::small_for_tests();
            mutate(&mut cfg);
            cfg.validate().unwrap_err()
        };
        assert!(err(&|c| c.tenants.clear()).contains("at least one tenant"));
        assert!(err(&|c| c.tenants[0].weight = 0).contains("weight 0"));
        assert!(err(&|c| c.tenants[1].concurrency = 0).contains("concurrency 0"));
        assert!(err(&|c| c.tenants[1].concurrency = 65_537).contains("concurrency 65537"));
        let mut deepest = ServiceConfig::small_for_tests();
        deepest.tenants[1].concurrency = ClosedLoop::MAX_THREADS;
        assert_eq!(deepest.validate(), Ok(()));
        assert!(err(&|c| c.tenants[2].mean_iops = 0.0).contains("mean IOPS"));
        assert!(err(&|c| c.tenants[2].mean_iops = f64::INFINITY).contains("mean IOPS inf"));
        assert!(err(&|c| c.tenants[2].mean_iops = 1e-300).contains("mean idle gap"));
        assert!(err(&|c| c.system.cdh_bin_bytes = 0).contains("`cdh_bin_bytes`"));
        assert!(err(&|c| c.sq_depth = 0).contains("submission-queue depth"));
        assert!(err(&|c| c.dispatch_window = 0).contains("dispatch window"));
        assert!(err(&|c| c.tiers.red = 0.4).contains("strictly increasing"));
        assert!(err(&|c| c.tiers.black = 1.5).contains("strictly increasing"));
        assert!(err(&|c| c.tiers.hysteresis = 0.6).contains("hysteresis"));
        assert!(err(&|c| c.seconds = 0).contains("simulated second"));
        assert!(err(&|c| c.seconds = 20_000_000_000_000).starts_with("seconds 20000000000000: "));
    }

    #[test]
    fn profile_parse_round_trips() {
        for p in [
            TenantProfile::Reader,
            TenantProfile::Writer,
            TenantProfile::Mixed,
        ] {
            assert_eq!(TenantProfile::parse(p.name()), Some(p));
        }
        assert_eq!(TenantProfile::parse("gamer"), None);
    }

    #[test]
    fn low_weight_class_is_below_mean() {
        let cfg = ServiceConfig::small_for_tests();
        // Weights 1, 4, 2 → mean 7/3 ≈ 2.33: writer and mixed are low.
        assert!((cfg.tenants[0].weight as f64) < cfg.mean_weight());
        assert!((cfg.tenants[1].weight as f64) > cfg.mean_weight());
    }
}
