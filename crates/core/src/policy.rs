//! Background-GC invocation policies.
//!
//! A policy answers one question every write-back interval: *how much free
//! capacity should background GC maintain right now?* The engine then
//! reclaims toward that target during idle time only.
//!
//! * [`NoBgc`] — never reclaim in the background (pure foreground GC).
//! * [`ReservedCapacity`] — keep a fixed reserve `C_resv`; instantiated as
//!   the paper's **L-BGC** (`0.5 × C_OP`), **A-BGC** (`1.5 × C_OP`) and the
//!   Fig. 2 sweep.
//! * [`AdpGc`] — the paper's adaptive baseline: dynamically sizes the
//!   reserve from a device-internal CDH over *all* writes; cannot tell
//!   buffered from direct traffic and has no SIP information.
//! * [`JitGc`] — the paper's contribution: exploits the host-side
//!   buffered-demand scan + direct-write CDH through the
//!   [`JitGcManager`], and ships SIP lists to the FTL.
//!
//! [`PolicyKind`] names each of them and builds it for a system
//! configuration: the one constructor both CLIs and every experiment use.

use crate::manager::JitGcManager;
use crate::predictor::{BufferedDemand, DirectDemand, DirectWritePredictor};
use jitgc_sim::{ByteSize, SimDuration, SimTime};

/// Everything a policy may look at when deciding (one write-back
/// interval's worth of state).
///
/// Device-only policies must ignore the host-side fields; that contract is
/// honored by construction in [`AdpGc`] and [`ReservedCapacity`].
#[derive(Debug, Clone)]
pub struct IntervalObservation<'a> {
    /// Current simulated time (the interval's start).
    pub now: SimTime,
    /// The device's free capacity `C_free`.
    pub free_capacity: ByteSize,
    /// The device's over-provisioning capacity `C_OP`.
    pub op_capacity: ByteSize,
    /// Host-side buffered-demand scan (page-cache predictor output).
    pub buffered_demand: &'a BufferedDemand,
    /// Host-side direct-write CDH prediction.
    pub direct_demand: &'a DirectDemand,
    /// Bytes written to the device during the interval that just ended
    /// (all kinds) — the only traffic signal visible *inside* the SSD.
    pub device_bytes_last_interval: u64,
}

/// A policy's verdict for the coming interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyDecision {
    /// Background GC should reclaim (idle-time only) until `C_free`
    /// reaches this value.
    pub target_free: ByteSize,
    /// The policy's prediction of device write traffic over the coming
    /// `N_wb`-interval horizon in bytes, if it makes one (scored for the
    /// paper's Table 2 — this is the `C_req` the reservation is sized
    /// from, so its error is what translates into mis-reservation).
    pub predicted_next_interval: Option<u64>,
}

/// Strategy for scheduling background garbage collection.
///
/// `Send` so a whole [`SsdSystem`](crate::system::SsdSystem) — policy
/// included — can move to another thread (a service run by `serve`).
pub trait GcPolicy: Send {
    /// Display name ("L-BGC", "A-BGC", "ADP-GC", "JIT-GC", …).
    fn name(&self) -> &'static str;

    /// `true` when the engine should forward SIP lists to the FTL's
    /// victim filter (only JIT-GC in the paper).
    fn uses_sip(&self) -> bool {
        false
    }

    /// The decision at the start of each write-back interval.
    fn on_interval(&mut self, obs: &IntervalObservation<'_>) -> PolicyDecision;

    /// `true` when a repeated zero-traffic [`on_interval`] call maps this
    /// policy exactly onto itself *and* returns the same decision as the
    /// call before it: given an observation equal to the previous one but
    /// for `now` — same capacities, same demands, zero
    /// `device_bytes_last_interval` both times — the policy mutates no
    /// internal state and its decision does not depend on `obs.now`. The
    /// demands need not be zero: dirty data stranded below `τ_flush`
    /// keeps a constant buffered demand in interval 1 through an idle
    /// gap. The engine's quiescence fast-forward may then skip the call
    /// entirely across an idle span. Policies whose state drifts on idle
    /// intervals (EWMAs, incomplete sliding windows) must answer `false`;
    /// the conservative default is `false`, which only costs performance,
    /// never correctness.
    ///
    /// [`on_interval`]: Self::on_interval
    fn zero_traffic_fixed_point(&self) -> bool {
        false
    }

    /// Feedback: an observed host-write transfer (for `B_w` estimation).
    fn observe_write(&mut self, _bytes: ByteSize, _took: SimDuration) {}

    /// Feedback: an observed GC reclamation (for `B_gc` estimation).
    fn observe_gc(&mut self, _bytes: ByteSize, _took: SimDuration) {}
}

// ----------------------------------------------------------------------
// NoBgc
// ----------------------------------------------------------------------

/// Never runs background GC; every reclamation is a foreground stall.
/// The worst-case baseline for ablations.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoBgc;

impl GcPolicy for NoBgc {
    fn name(&self) -> &'static str {
        "No-BGC"
    }

    fn on_interval(&mut self, _obs: &IntervalObservation<'_>) -> PolicyDecision {
        PolicyDecision {
            target_free: ByteSize::ZERO,
            predicted_next_interval: None,
        }
    }

    // Stateless and time-free: every interval decision is identical.
    fn zero_traffic_fixed_point(&self) -> bool {
        true
    }
}

// ----------------------------------------------------------------------
// ReservedCapacity (L-BGC / A-BGC / Fig. 2 sweep)
// ----------------------------------------------------------------------

/// Maintains a fixed reserved capacity `C_resv` (paper Sec. 2).
///
/// `C_resv < C_OP` makes the policy *lazy* (rare BGC, long lifetime, FGC
/// stalls); `C_resv > C_OP` makes it *aggressive* (no stalls, premature
/// erasures). The paper pins L-BGC at `0.5 × C_OP` and A-BGC at
/// `1.5 × C_OP`.
///
/// # Example
///
/// ```
/// use jitgc_core::policy::{GcPolicy, ReservedCapacity};
/// use jitgc_sim::ByteSize;
///
/// let op = ByteSize::gib(16);
/// assert_eq!(ReservedCapacity::lazy(op).reserved(), ByteSize::gib(8));
/// assert_eq!(ReservedCapacity::aggressive(op).reserved(), ByteSize::gib(24));
/// assert_eq!(ReservedCapacity::lazy(op).name(), "L-BGC");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ReservedCapacity {
    cresv: ByteSize,
    label: &'static str,
}

impl ReservedCapacity {
    /// The paper's lazy baseline: `C_resv = 0.5 × C_OP`.
    #[must_use]
    pub fn lazy(op_capacity: ByteSize) -> Self {
        ReservedCapacity {
            cresv: op_capacity.scale_permille(500),
            label: "L-BGC",
        }
    }

    /// The paper's aggressive baseline: `C_resv = 1.5 × C_OP`.
    #[must_use]
    pub fn aggressive(op_capacity: ByteSize) -> Self {
        ReservedCapacity {
            cresv: op_capacity.scale_permille(1_500),
            label: "A-BGC",
        }
    }

    /// A sweep point: `C_resv = permille/1000 × C_OP` (Fig. 2 uses 500,
    /// 750, 1000, 1250, 1500).
    #[must_use]
    pub fn of_op_permille(op_capacity: ByteSize, permille: u64) -> Self {
        ReservedCapacity {
            cresv: op_capacity.scale_permille(permille),
            label: match permille {
                500 => "L-BGC",
                1_500 => "A-BGC",
                _ => "C-BGC",
            },
        }
    }

    /// The configured reserve.
    #[must_use]
    pub fn reserved(&self) -> ByteSize {
        self.cresv
    }
}

impl GcPolicy for ReservedCapacity {
    fn name(&self) -> &'static str {
        self.label
    }

    fn on_interval(&mut self, _obs: &IntervalObservation<'_>) -> PolicyDecision {
        PolicyDecision {
            target_free: self.cresv,
            predicted_next_interval: None,
        }
    }

    // Stateless and time-free: the target is a configuration constant.
    fn zero_traffic_fixed_point(&self) -> bool {
        true
    }
}

// ----------------------------------------------------------------------
// IDLE-GC (related-work baseline)
// ----------------------------------------------------------------------

/// An idle-time-exploiting baseline in the spirit of Park et al. (the
/// paper's reference [7], Sec. 5): trigger background GC aggressively only
/// when a long idle period is expected, and stay lazy otherwise, to avoid
/// hurting user-perceived response time.
///
/// Idle periods are predicted from recent device traffic: an EWMA of the
/// per-interval write volume, compared against its own long-term level.
/// When the recent level falls below `idle_fraction` of the long-term
/// level the device is deemed entering an idle phase and the policy
/// reserves aggressively (`1.5 × C_OP`); otherwise it holds only the lazy
/// reserve (`0.5 × C_OP`).
///
/// Unlike [`JitGc`] this predicts *opportunity* (when GC is cheap), not
/// *demand* (how much space is needed) — the distinction the paper draws
/// from its related work.
#[derive(Debug)]
pub struct IdleGc {
    fast: jitgc_sim::stats::Ewma,
    slow: jitgc_sim::stats::Ewma,
    idle_fraction: f64,
}

impl IdleGc {
    /// Creates the policy; `idle_fraction` is the recent-to-long-term
    /// traffic ratio below which an idle phase is assumed (0.5 is a
    /// reasonable default).
    ///
    /// # Panics
    ///
    /// Panics unless `idle_fraction` is in `(0, 1]`.
    #[must_use]
    pub fn new(idle_fraction: f64) -> Self {
        assert!(
            idle_fraction > 0.0 && idle_fraction <= 1.0,
            "idle fraction must be in (0, 1], got {idle_fraction}"
        );
        IdleGc {
            fast: jitgc_sim::stats::Ewma::new(0.5),
            slow: jitgc_sim::stats::Ewma::new(0.05),
            idle_fraction,
        }
    }
}

impl Default for IdleGc {
    fn default() -> Self {
        IdleGc::new(0.5)
    }
}

impl GcPolicy for IdleGc {
    // NOTE: `zero_traffic_fixed_point` stays at the trait default
    // (`false`): both EWMAs move on every interval — zero samples
    // included — so even a long-idle IdleGc is never an exact self-map
    // and cannot be fast-forwarded.

    fn name(&self) -> &'static str {
        "IDLE-GC"
    }

    fn on_interval(&mut self, obs: &IntervalObservation<'_>) -> PolicyDecision {
        let sample = obs.device_bytes_last_interval as f64;
        self.fast.update(sample);
        self.slow.update(sample);
        let long_term = self.slow.value_or(0.0);
        let idle_expected =
            long_term > 0.0 && self.fast.value_or(0.0) < long_term * self.idle_fraction;
        let target = if idle_expected {
            obs.op_capacity.scale_permille(1_500)
        } else {
            obs.op_capacity.scale_permille(500)
        };
        PolicyDecision {
            target_free: target,
            predicted_next_interval: None,
        }
    }
}

// ----------------------------------------------------------------------
// ADP-GC
// ----------------------------------------------------------------------

/// The paper's adaptive baseline (Sec. 4.2): sizes the reserve from a CDH
/// over **all** device write traffic, estimated entirely inside the SSD.
///
/// Differences from [`JitGc`], exactly as the paper states them:
/// the predictor "does not distinguish between direct writes and buffered
/// writes" (it sees only device-level totals, so it misses the page
/// cache's precise flush timing), and it "does not exploit the SIP
/// information".
#[derive(Debug)]
pub struct AdpGc {
    predictor: DirectWritePredictor,
    manager: JitGcManager,
}

impl AdpGc {
    /// Creates the policy.
    ///
    /// * `p` / `tau_expire` — write-back interval and horizon.
    /// * `percentile` — CDH coverage (0.8 like JIT-GC's direct predictor).
    /// * `bin_bytes` — CDH bin width.
    /// * `default_write_bw` / `default_gc_bw` — initial bandwidth
    ///   estimates in bytes/second.
    #[must_use]
    pub fn new(
        p: SimDuration,
        tau_expire: SimDuration,
        percentile: f64,
        bin_bytes: u64,
        default_write_bw: f64,
        default_gc_bw: f64,
    ) -> Self {
        AdpGc {
            predictor: DirectWritePredictor::new(p, tau_expire, percentile, bin_bytes),
            manager: JitGcManager::new(tau_expire, default_write_bw, default_gc_bw),
        }
    }
}

impl GcPolicy for AdpGc {
    fn name(&self) -> &'static str {
        "ADP-GC"
    }

    fn on_interval(&mut self, obs: &IntervalObservation<'_>) -> PolicyDecision {
        // Device-only view: feed the total traffic of the closed interval.
        self.predictor
            .observe_interval(obs.device_bytes_last_interval);
        let demand = self.predictor.predict();
        let decision = self
            .manager
            .decide(&[], &demand.to_vec(), obs.free_capacity);
        // The dynamically sized reserve is the CDH's δ over the whole
        // horizon — ADP-GC cannot tell when within the horizon the traffic
        // lands, so it must keep all of it free. The reserve is capped at
        // the aggressive end of the paper's design space (1.5 × C_OP):
        // beyond that, BGC erases blocks for marginal gain — the "useless
        // BGC operations" the paper's C_resv restriction exists to avoid.
        let cap = obs.op_capacity.scale_permille(1_500);
        let reserve = ByteSize::bytes(demand.total()).min(cap);
        PolicyDecision {
            target_free: reserve.max(obs.free_capacity + decision.reclaim).min(cap),
            predicted_next_interval: Some(demand.total()),
        }
    }

    // ADP-GC's only interval-to-interval state is its internal traffic
    // predictor (the manager mutates solely via observe_write/observe_gc
    // and decides time-free): once the predictor's windows are saturated
    // with zeros, a zero-traffic interval is an exact self-map.
    fn zero_traffic_fixed_point(&self) -> bool {
        self.predictor.at_zero_traffic_fixed_point()
    }

    fn observe_write(&mut self, bytes: ByteSize, took: SimDuration) {
        self.manager.observe_write(bytes, took);
    }

    fn observe_gc(&mut self, bytes: ByteSize, took: SimDuration) {
        self.manager.observe_gc(bytes, took);
    }
}

// ----------------------------------------------------------------------
// JIT-GC
// ----------------------------------------------------------------------

/// The paper's contribution: just-in-time BGC from host-side predictions.
///
/// Exploits the [`BufferedDemand`] scan (exact flush timing from the page
/// cache) and the [`DirectDemand`] CDH, reclaims only what the
/// [`JitGcManager`] says is needed *now*, and ships SIP lists so the FTL
/// avoids migrating pages that are about to die.
#[derive(Debug)]
pub struct JitGc {
    manager: JitGcManager,
    sip_filtering: bool,
}

impl JitGc {
    /// Creates the policy with initial bandwidth estimates in
    /// bytes/second.
    #[must_use]
    pub fn new(tau_expire: SimDuration, default_write_bw: f64, default_gc_bw: f64) -> Self {
        JitGc {
            manager: JitGcManager::new(tau_expire, default_write_bw, default_gc_bw),
            sip_filtering: true,
        }
    }

    /// Creates the policy from a system configuration, deriving bandwidth
    /// defaults from its NAND timing model.
    #[must_use]
    pub fn from_system_config(config: &crate::system::SystemConfig) -> Self {
        let (bw, gc) = config.default_bandwidths();
        JitGc::new(config.tau_expire(), bw, gc)
    }

    /// Disables SIP victim filtering (ablation variant).
    #[must_use]
    pub fn without_sip_filtering(mut self) -> Self {
        self.sip_filtering = false;
        self
    }
}

impl GcPolicy for JitGc {
    fn name(&self) -> &'static str {
        "JIT-GC"
    }

    fn uses_sip(&self) -> bool {
        self.sip_filtering
    }

    fn on_interval(&mut self, obs: &IntervalObservation<'_>) -> PolicyDecision {
        let decision = self.manager.decide(
            obs.buffered_demand.as_slice(),
            &obs.direct_demand.to_vec(),
            obs.free_capacity,
        );
        // Two floors beneath the manager's lazy schedule:
        // * δ_dir in full — the paper's *dedicated over-provisioning space
        //   for direct writes* (Sec. 3.2.2): direct traffic can land at any
        //   moment within the horizon, so its whole reservation must be
        //   free now.
        // * D¹_buf + D²_buf — the flushes of the next two wake-ups. BGC is
        //   commanded at tick granularity, so a reservation needs one full
        //   interval of lead time to be certain to complete before the
        //   flush it covers.
        let floor = ByteSize::bytes(
            obs.buffered_demand.interval(1)
                + obs
                    .buffered_demand
                    .interval(2.min(obs.buffered_demand.horizon()))
                + obs.direct_demand.total(),
        );
        // Like ADP-GC, the reserve is capped at the aggressive end of the
        // paper's design space (1.5 × C_OP).
        let cap = obs.op_capacity.scale_permille(1_500);
        PolicyDecision {
            target_free: floor.max(obs.free_capacity + decision.reclaim).min(cap),
            predicted_next_interval: Some(obs.buffered_demand.total() + obs.direct_demand.total()),
        }
    }

    // `on_interval` never mutates JIT-GC: the manager decides through
    // `&self` from demands and capacities alone (no `obs.now` term), and
    // its bandwidth estimates move only via observe_write/observe_gc —
    // which an idle span by definition does not call.
    fn zero_traffic_fixed_point(&self) -> bool {
        true
    }

    fn observe_write(&mut self, bytes: ByteSize, took: SimDuration) {
        self.manager.observe_write(bytes, took);
    }

    fn observe_gc(&mut self, bytes: ByteSize, took: SimDuration) {
        self.manager.observe_gc(bytes, took);
    }
}

// ----------------------------------------------------------------------
// The policy matrix
// ----------------------------------------------------------------------

/// The policies compared across experiments and selectable on both
/// CLIs, each buildable for a system configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// No background GC at all.
    NoBgc,
    /// Fixed reserve `C_resv = permille/1000 × C_OP`; 500 is the paper's
    /// L-BGC, 1500 its A-BGC.
    ReservedPermille(u64),
    /// The paper's adaptive device-internal baseline.
    Adp,
    /// Related-work baseline: idle-time-exploiting BGC (Park et al.,
    /// the paper's reference [7]).
    Idle,
    /// The paper's contribution.
    Jit,
    /// JIT-GC with SIP victim filtering disabled (ablation).
    JitNoSip,
}

impl PolicyKind {
    /// Display name matching the paper's figures.
    #[must_use]
    pub fn name(self) -> String {
        match self {
            PolicyKind::NoBgc => "No-BGC".into(),
            PolicyKind::ReservedPermille(500) => "L-BGC".into(),
            PolicyKind::ReservedPermille(1_500) => "A-BGC".into(),
            PolicyKind::ReservedPermille(p) => format!("{:.2}OP", p as f64 / 1000.0),
            PolicyKind::Adp => "ADP-GC".into(),
            PolicyKind::Idle => "IDLE-GC".into(),
            PolicyKind::Jit => "JIT-GC".into(),
            PolicyKind::JitNoSip => "JIT-GC (no SIP)".into(),
        }
    }

    /// Instantiates the policy for the given system configuration.
    #[must_use]
    pub fn build(self, config: &crate::system::SystemConfig) -> Box<dyn GcPolicy> {
        let (bw, gc_bw) = config.default_bandwidths();
        match self {
            PolicyKind::NoBgc => Box::new(NoBgc),
            PolicyKind::ReservedPermille(permille) => Box::new(ReservedCapacity::of_op_permille(
                config.op_capacity(),
                permille,
            )),
            PolicyKind::Adp => Box::new(AdpGc::new(
                config.flusher_period,
                config.tau_expire(),
                config.cdh_percentile,
                config.cdh_bin_bytes,
                bw,
                gc_bw,
            )),
            PolicyKind::Idle => Box::new(IdleGc::default()),
            PolicyKind::Jit => Box::new(JitGc::from_system_config(config)),
            PolicyKind::JitNoSip => {
                Box::new(JitGc::from_system_config(config).without_sip_filtering())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1_000_000;

    fn obs<'a>(
        free_mb: u64,
        buffered: &'a BufferedDemand,
        direct: &'a DirectDemand,
        device_last: u64,
    ) -> IntervalObservation<'a> {
        IntervalObservation {
            now: SimTime::from_secs(100),
            free_capacity: ByteSize::bytes(free_mb * MB),
            op_capacity: ByteSize::bytes(100 * MB),
            buffered_demand: buffered,
            direct_demand: direct,
            device_bytes_last_interval: device_last,
        }
    }

    fn zero_direct() -> DirectDemand {
        DirectWritePredictor::new(
            SimDuration::from_secs(5),
            SimDuration::from_secs(30),
            0.8,
            MB,
        )
        .predict()
    }

    #[test]
    fn no_bgc_targets_zero() {
        let b = BufferedDemand::zero(6);
        let d = zero_direct();
        let mut p = NoBgc;
        let decision = p.on_interval(&obs(10, &b, &d, 0));
        assert_eq!(decision.target_free, ByteSize::ZERO);
        assert_eq!(decision.predicted_next_interval, None);
        assert!(!p.uses_sip());
    }

    #[test]
    fn reserved_capacity_targets_cresv() {
        let b = BufferedDemand::zero(6);
        let d = zero_direct();
        let op = ByteSize::bytes(100 * MB);
        let mut lazy = ReservedCapacity::lazy(op);
        let mut aggressive = ReservedCapacity::aggressive(op);
        let lazy_t = lazy.on_interval(&obs(10, &b, &d, 0)).target_free;
        let agg_t = aggressive.on_interval(&obs(10, &b, &d, 0)).target_free;
        assert_eq!(lazy_t, ByteSize::bytes(50 * MB));
        assert_eq!(agg_t, ByteSize::bytes(150 * MB));
        assert!(lazy_t < agg_t);
        assert_eq!(lazy.name(), "L-BGC");
        assert_eq!(aggressive.name(), "A-BGC");
        assert_eq!(
            ReservedCapacity::of_op_permille(op, 750).reserved(),
            ByteSize::bytes(75 * MB)
        );
        assert_eq!(ReservedCapacity::of_op_permille(op, 750).name(), "C-BGC");
    }

    #[test]
    fn jit_targets_free_plus_reclaim_and_predicts() {
        let mut buffered = BufferedDemand::zero(6);
        // Hand-craft a demand via the predictor API instead: reuse zero and
        // check the predicted_next_interval plumbing with direct demand.
        let mut direct_pred = DirectWritePredictor::new(
            SimDuration::from_secs(5),
            SimDuration::from_secs(30),
            0.8,
            MB,
        );
        direct_pred.observe_window_total(60 * MB);
        let direct = direct_pred.predict();
        // GC bandwidth of 2 MB/s: T_gc for the 59 MB shortfall (29.5 s)
        // exceeds T_idle (28.5 s), so the manager must reclaim now.
        let mut jit = JitGc::new(SimDuration::from_secs(30), 40e6, 2e6);
        let decision = jit.on_interval(&obs(1, &buffered, &direct, 0));
        assert!(jit.uses_sip());
        assert_eq!(
            decision.predicted_next_interval,
            Some(direct.total()),
            "prediction = Σ D_buf + Σ D_dir over the horizon"
        );
        // Demand 60 MB vs 1 MB free: some reclaim is required.
        assert!(decision.target_free > ByteSize::bytes(MB));
        // With ample free space the target is clamped at the aggressive
        // cap (1.5 × C_OP = 150 MB) — below the current free level, which
        // makes the background collector a no-op.
        let decision2 = jit.on_interval(&obs(1_000, &buffered, &direct, 0));
        assert_eq!(decision2.target_free, ByteSize::bytes(150 * MB));
        buffered = BufferedDemand::zero(6);
        let _ = &buffered;
    }

    #[test]
    fn jit_without_sip_is_ablatable() {
        let jit = JitGc::new(SimDuration::from_secs(30), 40e6, 10e6).without_sip_filtering();
        assert!(!jit.uses_sip());
        assert_eq!(jit.name(), "JIT-GC");
    }

    #[test]
    fn adp_adapts_target_to_observed_traffic() {
        let b = BufferedDemand::zero(6);
        let d = zero_direct();
        let mut adp = AdpGc::new(
            SimDuration::from_secs(5),
            SimDuration::from_secs(30),
            0.8,
            MB,
            40e6,
            10e6,
        );
        assert_eq!(adp.name(), "ADP-GC");
        assert!(!adp.uses_sip());
        // Quiet phase: after warm-up the target stays at free (no demand).
        let mut last = PolicyDecision {
            target_free: ByteSize::ZERO,
            predicted_next_interval: None,
        };
        for _ in 0..12 {
            last = adp.on_interval(&obs(1, &b, &d, 0));
        }
        assert_eq!(last.target_free, ByteSize::bytes(MB));
        // Heavy phase: sustained 50 MB intervals push the target up.
        for _ in 0..12 {
            last = adp.on_interval(&obs(1, &b, &d, 50 * MB));
        }
        assert!(
            last.target_free > ByteSize::bytes(10 * MB),
            "target {:?}",
            last.target_free
        );
        assert!(last.predicted_next_interval.expect("ADP predicts") > 0);
    }

    #[test]
    fn idle_gc_switches_reserve_with_traffic_phase() {
        let b = BufferedDemand::zero(6);
        let d = zero_direct();
        let mut p = IdleGc::default();
        assert_eq!(p.name(), "IDLE-GC");
        assert!(!p.uses_sip());
        // Sustained traffic: lazy reserve.
        let mut last = p.on_interval(&obs(10, &b, &d, 50 * MB));
        for _ in 0..20 {
            last = p.on_interval(&obs(10, &b, &d, 50 * MB));
        }
        assert_eq!(last.target_free, ByteSize::bytes(50 * MB)); // 0.5 × op(100)
                                                                // Traffic collapses: idle phase expected → aggressive reserve.
        for _ in 0..5 {
            last = p.on_interval(&obs(10, &b, &d, 0));
        }
        assert_eq!(last.target_free, ByteSize::bytes(150 * MB)); // 1.5 × op
        assert_eq!(last.predicted_next_interval, None);
    }

    #[test]
    #[should_panic(expected = "idle fraction must be in (0, 1]")]
    fn idle_gc_rejects_bad_fraction() {
        let _ = IdleGc::new(0.0);
    }

    #[test]
    fn zero_traffic_fixed_points_match_policy_statefulness() {
        let op = ByteSize::bytes(100 * MB);
        assert!(NoBgc.zero_traffic_fixed_point());
        assert!(ReservedCapacity::lazy(op).zero_traffic_fixed_point());
        assert!(JitGc::new(SimDuration::from_secs(30), 40e6, 10e6).zero_traffic_fixed_point());
        assert!(
            !IdleGc::default().zero_traffic_fixed_point(),
            "IdleGc EWMAs drift on idle intervals"
        );
    }

    #[test]
    fn adp_fixed_point_tracks_its_predictor_saturation() {
        let b = BufferedDemand::zero(6);
        let d = zero_direct();
        let mut adp = AdpGc::new(
            SimDuration::from_secs(5),
            SimDuration::from_secs(30),
            0.8,
            MB,
            40e6,
            10e6,
        );
        assert!(!adp.zero_traffic_fixed_point(), "windows not yet saturated");
        // nwb = 6 intervals fill the ring, then 64 more saturate the CDH.
        for _ in 0..(6 + 64) {
            adp.on_interval(&obs(10, &b, &d, 0));
        }
        assert!(adp.zero_traffic_fixed_point());
        // At the fixed point a zero-traffic interval repeats its decision.
        let a = adp.on_interval(&obs(10, &b, &d, 0));
        let bb = adp.on_interval(&obs(10, &b, &d, 0));
        assert_eq!(a, bb);
        assert!(adp.zero_traffic_fixed_point());
        // Traffic leaves the fixed point.
        adp.on_interval(&obs(10, &b, &d, 5 * MB));
        assert!(!adp.zero_traffic_fixed_point());
    }

    #[test]
    fn bandwidth_feedback_reaches_managers() {
        let mut jit = JitGc::new(SimDuration::from_secs(30), 40e6, 10e6);
        jit.observe_write(ByteSize::bytes(10 * MB), SimDuration::from_millis(50));
        assert!(jit.manager.write_bandwidth() > 40e6);
        jit.observe_gc(ByteSize::bytes(10 * MB), SimDuration::from_millis(50));
        assert!(jit.manager.gc_bandwidth() > 10e6);
    }

    #[test]
    fn policy_names_match_paper() {
        assert_eq!(PolicyKind::ReservedPermille(500).name(), "L-BGC");
        assert_eq!(PolicyKind::ReservedPermille(1_500).name(), "A-BGC");
        assert_eq!(PolicyKind::ReservedPermille(750).name(), "0.75OP");
        assert_eq!(PolicyKind::Jit.name(), "JIT-GC");
    }

    #[test]
    fn all_policies_build() {
        let cfg = crate::system::SystemConfig::small_for_tests();
        for kind in [
            PolicyKind::NoBgc,
            PolicyKind::ReservedPermille(1_000),
            PolicyKind::Adp,
            PolicyKind::Jit,
            PolicyKind::JitNoSip,
        ] {
            let p = kind.build(&cfg);
            assert!(!p.name().is_empty());
        }
    }
}
