//! Tiered backpressure: Green → Yellow → Red → Black with hysteresis.
//!
//! The service computes a scalar *pressure* in `[0, 1]` (the max of SQ
//! occupancy fraction and the engine's GC debt) and feeds it to a
//! [`TierPolicy`]. Tiers escalate immediately when pressure crosses an
//! entry threshold; they de-escalate only when pressure falls below the
//! entry threshold minus a hysteresis margin, so a pressure signal
//! sitting exactly at a boundary holds its tier instead of oscillating.
//!
//! What each tier *means* is enforced by the service, not here:
//! Green — admit and schedule everything; Yellow — the arbiter defers
//! low-weight tenants' writes while any other work is runnable; Red —
//! low-weight tenants' writes are shed at admission with an explicit
//! `Busy` completion; Black — only reads are admitted, every write is
//! shed.

use crate::config::TierThresholds;

/// The service's congestion tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// No pressure: admit and schedule everything.
    Green,
    /// Defer low-weight tenants' writes while other work is runnable.
    Yellow,
    /// Shed low-weight tenants' writes with `Busy` completions.
    Red,
    /// Admit only reads.
    Black,
}

impl Tier {
    /// All tiers in escalation order.
    pub const ALL: [Tier; 4] = [Tier::Green, Tier::Yellow, Tier::Red, Tier::Black];

    /// Display name (lower case, as reported in JSON).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Tier::Green => "green",
            Tier::Yellow => "yellow",
            Tier::Red => "red",
            Tier::Black => "black",
        }
    }

    /// Index into per-tier accounting arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Tier::Green => 0,
            Tier::Yellow => 1,
            Tier::Red => 2,
            Tier::Black => 3,
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Hysteretic tier selection from a scalar pressure signal.
#[derive(Debug, Clone)]
pub struct TierPolicy {
    thresholds: TierThresholds,
    current: Tier,
}

impl TierPolicy {
    /// Creates a policy starting in Green.
    #[must_use]
    pub fn new(thresholds: TierThresholds) -> Self {
        TierPolicy {
            thresholds,
            current: Tier::Green,
        }
    }

    /// The current tier.
    #[must_use]
    pub fn current(&self) -> Tier {
        self.current
    }

    fn entry(&self, tier: Tier) -> f64 {
        match tier {
            Tier::Green => 0.0,
            Tier::Yellow => self.thresholds.yellow,
            Tier::Red => self.thresholds.red,
            Tier::Black => self.thresholds.black,
        }
    }

    /// Feeds one pressure observation and returns the (possibly new)
    /// tier. Escalation is immediate — pressure at or above an entry
    /// threshold jumps straight to the highest tier it qualifies for.
    /// De-escalation steps down only while pressure is below the current
    /// tier's entry threshold minus the hysteresis margin.
    pub fn update(&mut self, pressure: f64) -> Tier {
        let target = if pressure >= self.thresholds.black {
            Tier::Black
        } else if pressure >= self.thresholds.red {
            Tier::Red
        } else if pressure >= self.thresholds.yellow {
            Tier::Yellow
        } else {
            Tier::Green
        };
        if target > self.current {
            self.current = target;
        } else {
            while self.current > Tier::Green
                && pressure < self.entry(self.current) - self.thresholds.hysteresis
            {
                self.current = Tier::ALL[self.current.index() - 1];
            }
        }
        self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> TierPolicy {
        TierPolicy::new(TierThresholds {
            yellow: 0.5,
            red: 0.75,
            black: 0.9,
            hysteresis: 0.05,
        })
    }

    /// Full escalation ladder, then recovery, with hysteresis at every
    /// step of the way down.
    #[test]
    fn escalates_and_recovers_with_hysteresis() {
        let mut p = policy();
        assert_eq!(p.current(), Tier::Green);
        assert_eq!(p.update(0.4), Tier::Green);
        assert_eq!(p.update(0.5), Tier::Yellow);
        assert_eq!(p.update(0.75), Tier::Red);
        assert_eq!(p.update(0.95), Tier::Black);
        // Pressure back below Black's entry but within hysteresis: hold.
        assert_eq!(p.update(0.87), Tier::Black);
        // Below 0.9 − 0.05: drop one tier (0.84 ≥ 0.75 − 0.05 keeps Red).
        assert_eq!(p.update(0.84), Tier::Red);
        // A collapse drops through every tier whose exit bound it clears.
        assert_eq!(p.update(0.10), Tier::Green);
    }

    /// A signal oscillating exactly at a boundary must not flap the tier.
    #[test]
    fn no_oscillation_at_the_boundary() {
        let mut p = policy();
        assert_eq!(p.update(0.5), Tier::Yellow);
        for _ in 0..100 {
            // Dither within the hysteresis band around the threshold.
            assert_eq!(p.update(0.49), Tier::Yellow);
            assert_eq!(p.update(0.5), Tier::Yellow);
            assert_eq!(p.update(0.46), Tier::Yellow);
        }
        // Only a drop clear of the band releases the tier.
        assert_eq!(p.update(0.4499), Tier::Green);
    }

    /// Escalation can jump multiple tiers in one observation.
    #[test]
    fn spike_jumps_straight_to_black() {
        let mut p = policy();
        assert_eq!(p.update(1.0), Tier::Black);
    }

    #[test]
    fn tier_names_and_order() {
        assert!(Tier::Green < Tier::Yellow && Tier::Red < Tier::Black);
        assert_eq!(Tier::Red.name(), "red");
        assert_eq!(Tier::ALL[Tier::Black.index()], Tier::Black);
    }
}
