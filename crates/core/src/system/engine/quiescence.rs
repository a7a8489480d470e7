//! The quiescence fast-forward (DESIGN.md §15): a tick's certificate, its gates, the skip.

use super::SsdSystem;
use crate::predictor::BufferedDemand;
use jitgc_sim::{ByteSize, SimTime};
use std::fmt;

/// The gates of the quiescence check, in the order it evaluates them.
/// A refused tick is attributed to the first gate that fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FfGate {
    /// The most recent tick did not verify itself a no-flow fixed point
    /// (something flushed or was written, dirty data can still flush, the
    /// buffered demand has not aged into interval 1, or the policy moved
    /// its target or prediction).
    TickNotNoop,
    /// The page cache took a buffered write or lost a dirty page since
    /// that tick.
    CacheChanged,
    /// Direct writes arrived in the open interval.
    DirectBytes,
    /// The FTL wrote host pages or its free / reclaimable capacity moved
    /// (trim, BGC, block retirement) since that tick.
    FtlMoved,
    /// Timeline recording or wear leveling is on: per-tick side effects
    /// the bulk update does not model.
    PerTickEffect,
    /// Background GC is below its target, so inter-tick gaps do real work.
    BgcBelowTarget,
    /// One tick's SG_IO commands cost more than a period, so the busy
    /// time has no closed form.
    SgIoCost,
    /// The direct-write predictor's windows are not yet saturated with
    /// zeros.
    DirectPredictor,
    /// The policy is not at a fixed point
    /// ([`GcPolicy::zero_traffic_fixed_point`](crate::policy::GcPolicy::zero_traffic_fixed_point)).
    Policy,
}

impl FfGate {
    /// Every gate, in evaluation order.
    pub const ALL: [FfGate; 9] = [
        FfGate::TickNotNoop,
        FfGate::CacheChanged,
        FfGate::DirectBytes,
        FfGate::FtlMoved,
        FfGate::PerTickEffect,
        FfGate::BgcBelowTarget,
        FfGate::SgIoCost,
        FfGate::DirectPredictor,
        FfGate::Policy,
    ];

    /// A stable snake-case name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FfGate::TickNotNoop => "tick_not_noop",
            FfGate::CacheChanged => "cache_changed",
            FfGate::DirectBytes => "direct_bytes",
            FfGate::FtlMoved => "ftl_moved",
            FfGate::PerTickEffect => "per_tick_effect",
            FfGate::BgcBelowTarget => "bgc_below_target",
            FfGate::SgIoCost => "sg_io_cost",
            FfGate::DirectPredictor => "direct_predictor",
            FfGate::Policy => "policy",
        }
    }
}

/// Ticks the fast-forward refused, tallied by the gate that refused.
/// Deterministic, and like the skip counters deliberately not part of any
/// report: reports stay byte-identical with the fast-forward off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FfRefusals {
    counts: [u64; FfGate::ALL.len()],
}

impl FfRefusals {
    /// Ticks `gate` refused.
    #[must_use]
    pub fn count(&self, gate: FfGate) -> u64 {
        self.counts[gate as usize]
    }

    /// Ticks refused by any gate.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    fn note(&mut self, gate: FfGate) {
        self.counts[gate as usize] += 1;
    }
}

impl std::ops::AddAssign for FfRefusals {
    fn add_assign(&mut self, other: FfRefusals) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts) {
            *mine += theirs;
        }
    }
}

/// `gate=count` for every gate that refused at least once.
impl fmt::Display for FfRefusals {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sep = "";
        for gate in FfGate::ALL {
            let n = self.count(gate);
            if n > 0 {
                write!(f, "{sep}{}={n}", gate.name())?;
                sep = " ";
            }
        }
        Ok(())
    }
}

/// The certificate and its counters. `last_tick_noop` is the dirty-flag
/// core: the most recent tick verified itself a no-flow fixed point of
/// `handle_tick`. The snapshots taken with it detect any perturbation
/// since: of the FTL's capacity picture (BGC, trim, block retirement) and
/// of the cache's dirty set (every buffered write bumps `writes`, and
/// without one `dirty_count` can only fall).
#[derive(Default)]
pub(super) struct Quiescence {
    /// The reference per-tick loop instead of the fast-forward, selected
    /// only by the [`SsdSystem::set_fast_forward`] test hook.
    per_tick: bool,
    last_tick_noop: bool,
    /// The target the most recent tick set, and the prediction it pushed
    /// (a skipped tick pushes it again).
    last_tick_target: ByteSize,
    last_tick_predicted: Option<u64>,
    noop_free_pages: u64,
    noop_reclaimable: ByteSize,
    noop_cache_writes: u64,
    noop_dirty_count: u64,
    ticks_skipped: u64,
    ff_spans: u64,
    ff_refusals: FfRefusals,
}

impl SsdSystem {
    /// Skips every owed tick up to `t` in one bulk update when the
    /// quiescence check passes, else tallies the gate that refused.
    /// `true` when the ticks were skipped.
    pub(super) fn try_fast_forward(&mut self, t: SimTime) -> bool {
        if self.quiescence.per_tick {
            return false;
        }
        if let Err(gate) = self.can_fast_forward() {
            self.quiescence.ff_refusals.note(gate);
            return false;
        }
        let span = t.saturating_since(self.next_tick);
        let k = span.div_duration(self.config.flusher_period) + 1;
        self.fast_forward_span(k);
        self.quiescence.ticks_skipped += k;
        self.quiescence.ff_spans += 1;
        true
    }

    /// The quiescence check (DESIGN.md §15a): `Ok` when the next tick —
    /// and by induction every tick until an external event — would map
    /// the engine exactly onto its current state, else the first gate
    /// that refused. Cheap dirty-flag and counter comparisons come first;
    /// the O(window) predictor scans run only once everything else has
    /// passed.
    fn can_fast_forward(&self) -> Result<(), FfGate> {
        let q = &self.quiescence;
        // The most recent tick must have verified itself a no-op…
        if !q.last_tick_noop {
            return Err(FfGate::TickNotNoop);
        }
        // …over the dirty set the cache still holds: any buffered write
        // since bumps `writes` (a rewrite of a dirty page, which resets
        // its age, bumps nothing else), and without one the dirty count
        // can only fall (direct write over a dirty page).
        if self.cache.stats().writes != q.noop_cache_writes
            || self.cache.dirty_count() != q.noop_dirty_count
        {
            return Err(FfGate::CacheChanged);
        }
        if self.direct_bytes_interval != 0 {
            return Err(FfGate::DirectBytes);
        }
        // Nothing may have perturbed the FTL's mapping or capacity
        // picture since (BGC, trim, read-repair block retirement…).
        if self.ftl.stats().host_pages_written != self.host_pages_at_tick
            || self.ftl.free_pages() != q.noop_free_pages
            || self.ftl.reclaimable_capacity() != q.noop_reclaimable
        {
            return Err(FfGate::FtlMoved);
        }
        // Per-tick side effects the bulk update does not model.
        if self.config.record_timeline || self.config.wear_leveling {
            return Err(FfGate::PerTickEffect);
        }
        // BGC must be at target, otherwise inter-tick gaps do real work.
        if self.ftl.free_pages() < self.target_free_pages {
            return Err(FfGate::BgcBelowTarget);
        }
        // The SG_IO cost folds into a closed form only when one tick's
        // commands fit within the period (Lindley recursion unrolling
        // needs c ≤ p); gate rather than assume.
        if self
            .sg_io_cost()
            .is_some_and(|c| c > self.config.flusher_period)
        {
            return Err(FfGate::SgIoCost);
        }
        // Predictor and policy must be exact self-maps on a repeated
        // zero-traffic interval (lazy O(window) scans).
        if !self.direct_pred.at_zero_traffic_fixed_point() {
            return Err(FfGate::DirectPredictor);
        }
        if !self.policy.zero_traffic_fixed_point() {
            return Err(FfGate::Policy);
        }
        Ok(())
    }

    /// Applies the net effect of `k` consecutive quiescent ticks in
    /// O(`N_wb`) instead of O(`k`):
    ///
    /// * `k` intervals close without traffic, each re-issuing the
    ///   verified prediction `R` (`HorizonScorer::skip_idle`: same FIFO
    ///   order, same `u64` sums, same float operations as the per-tick
    ///   loop);
    /// * the per-tick SG_IO device cost folds in closed form
    ///   `busy' = max(busy + k·c, T_k + c)` (valid because `c ≤ p` was
    ///   gated);
    /// * the clock jumps past the span.
    ///
    /// Everything else — cache, FTL, predictors, policy, demand
    /// snapshots, `host_pages_at_tick` — is untouched, which is exactly
    /// what `can_fast_forward` certified.
    fn fast_forward_span(&mut self, k: u64) {
        let p = self.config.flusher_period;
        self.scorer.skip_idle(
            k,
            self.quiescence.last_tick_predicted,
            self.config.nwb(),
            &mut self.accuracy,
        );
        let t_last = self.next_tick + p.saturating_mul(k - 1);
        if let Some(c) = self.sg_io_cost() {
            self.device_busy_until = (self.device_busy_until + c.saturating_mul(k)).max(t_last + c);
        }
        self.next_tick = t_last + p;
    }

    /// The quiescence verdict, the last step of every tick (DESIGN.md
    /// §15a). The tick was a no-flow fixed point iff nothing flowed
    /// (empty flush batch, no host or direct bytes), whatever is still
    /// dirty can never flush (at or below `τ_flush`, so the AND-semantics
    /// flusher stays gated) and has aged into the predictor's interval 1
    /// (where the clamp keeps it, so the next poll returns this demand and
    /// installs this SIP list again), the direct demand is zero, and the
    /// policy repeated the previous tick's target and prediction. Under
    /// those conditions — plus the predictor / policy self-map checks and
    /// the snapshots below, verified again at skip time — the next
    /// zero-traffic tick repeats this one exactly. `entry_direct_bytes` is
    /// the closing interval's direct traffic, read before step 3 reset it.
    pub(super) fn judge_tick(
        &mut self,
        entry_direct_bytes: u64,
        batch_was_empty: bool,
        actual_bytes: u64,
        buffered_demand: &BufferedDemand,
        predicted: Option<u64>,
    ) {
        let q = &mut self.quiescence;
        q.last_tick_noop = batch_was_empty
            && actual_bytes == 0
            && entry_direct_bytes == 0
            && self.cache.dirty_count() <= self.cache.config().flush_threshold_pages()
            && buffered_demand.total() == buffered_demand.interval(1)
            && self.last_direct_demand == 0
            && self.target_free == q.last_tick_target
            && predicted == q.last_tick_predicted;
        q.last_tick_target = self.target_free;
        q.last_tick_predicted = predicted;
        if q.last_tick_noop {
            q.noop_free_pages = self.ftl.free_pages();
            q.noop_reclaimable = self.ftl.reclaimable_capacity();
            q.noop_cache_writes = self.cache.stats().writes;
            q.noop_dirty_count = self.cache.dirty_count();
        }
    }

    /// Test hook: selects the tick-processing path — the quiescence
    /// fast-forward (the production path, on by default) or the pure
    /// per-tick loop, the reference the identity tests compare it
    /// against. Reports are byte-for-byte the same either way. No CLI
    /// reaches this.
    pub fn set_fast_forward(&mut self, enabled: bool) {
        self.quiescence.per_tick = !enabled;
    }

    /// Ticks skipped by the quiescence fast-forward so far. Zero with
    /// the fast-forward off; deliberately *not* part of
    /// [`SimReport`](crate::system::SimReport) so reports stay
    /// byte-identical across the switch.
    #[must_use]
    pub fn ticks_skipped(&self) -> u64 {
        self.quiescence.ticks_skipped
    }

    /// Contiguous fast-forwarded spans so far (each covers one or more
    /// skipped ticks).
    #[must_use]
    pub fn ff_spans(&self) -> u64 {
        self.quiescence.ff_spans
    }

    /// Idle ticks the fast-forward refused so far, tallied by the first
    /// gate of the quiescence check that failed — why a gap (or the first
    /// ticks of it) ran through the per-tick loop. All zero with the
    /// fast-forward off; like the skip counters, not part of
    /// [`SimReport`](crate::system::SimReport).
    #[must_use]
    pub fn ff_refusals(&self) -> FfRefusals {
        self.quiescence.ff_refusals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tallies_sum_and_print_by_gate() {
        let mut a = FfRefusals::default();
        a.note(FfGate::CacheChanged);
        a.note(FfGate::CacheChanged);
        a.note(FfGate::Policy);
        let mut b = FfRefusals::default();
        b.note(FfGate::TickNotNoop);
        b += a;
        assert_eq!(b.count(FfGate::CacheChanged), 2);
        assert_eq!(b.count(FfGate::DirectBytes), 0);
        assert_eq!(b.total(), 4);
        assert_eq!(b.to_string(), "tick_not_noop=1 cache_changed=2 policy=1");
        // `ALL` is in discriminant order, which `count` indexes by.
        for (i, gate) in FfGate::ALL.into_iter().enumerate() {
            assert_eq!(gate as usize, i);
        }
    }
}
