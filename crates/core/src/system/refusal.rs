//! Why an idle tick was not fast-forwarded (DESIGN.md §15a).

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

    pub(crate) fn note(&mut self, gate: FfGate) {
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
