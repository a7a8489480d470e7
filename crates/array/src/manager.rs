//! Array-level GC coordination: BGC staggering and GC-aware read routing.

use jitgc_core::system::{GcSignals, SsdSystem};
use jitgc_sim::{SimDuration, SimTime};

/// How background GC across the members relates in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcMode {
    /// Every member keeps its default flusher phase, so flush bursts,
    /// prediction updates, and BGC target refreshes land at the same
    /// instants on all members — the worst case for tail latency, since
    /// any correlated FGC stall hits every stripe column at once.
    Unsynchronized,
    /// Member `i`'s flusher tick is offset by `i / N` of the period, so
    /// at most one member is inside its flush/BGC-retarget window at a
    /// time and array-level stalls de-correlate.
    Staggered,
}

impl GcMode {
    /// Short display name, used in reports and read back by
    /// [`from_name`](Self::from_name) for the CLI's `--gc-mode`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            GcMode::Unsynchronized => "unsync",
            GcMode::Staggered => "staggered",
        }
    }

    /// The mode a [`name`](Self::name) names.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        [GcMode::Unsynchronized, GcMode::Staggered]
            .into_iter()
            .find(|mode| mode.name() == name)
    }
}

/// Coordinates member garbage collection from outside the devices.
///
/// The manager never reaches into a member's FTL; it only consumes the
/// [`GcSignals`] each member exports (free capacity, predicted demand,
/// device busy horizon) — the same information a host-side JIT-GC manager
/// reads over SG_IO in the paper's host placement — and acts through two
/// levers: shifting flusher phases before the run starts, and choosing
/// which replica serves a mirrored read.
/// Every structure in here is O(members) and every per-request update is
/// O(1): routing a read touches one counter, never a scan — the manager
/// costs the same per request at 256 members as at 4.
#[derive(Debug)]
pub struct ArrayManager {
    mode: GcMode,
    /// Reads steered to a replica other than the primary.
    routed_reads: u64,
}

impl ArrayManager {
    /// Creates a manager with the given staggering mode.
    #[must_use]
    pub fn new(mode: GcMode) -> Self {
        ArrayManager {
            mode,
            routed_reads: 0,
        }
    }

    /// The configured staggering mode.
    #[must_use]
    pub fn mode(&self) -> GcMode {
        self.mode
    }

    /// Reads served by a non-primary replica because the primary looked
    /// busier.
    #[must_use]
    pub fn routed_reads(&self) -> u64 {
        self.routed_reads
    }

    /// Applies the staggering policy to fresh members. Must run before
    /// the first request (the engine asserts this).
    pub fn apply_stagger(&self, members: &mut [SsdSystem]) {
        if self.mode != GcMode::Staggered || members.len() < 2 {
            return;
        }
        let n = members.len() as u64;
        for (i, member) in members.iter_mut().enumerate() {
            let period = member.config().flusher_period.as_micros();
            let offset = SimDuration::from_micros(period * i as u64 / n);
            member.offset_tick_phase(offset);
        }
    }

    /// Picks which of two mirrored replicas should serve a read issued at
    /// `issue`, returning the chosen device index. Each replica comes as
    /// its device index and its system, which the scheduler reads out of
    /// its one member slice.
    ///
    /// Preference order: the device that frees up sooner (not mid-GC or
    /// mid-transfer), then the one with more free capacity (further from
    /// its FGC threshold), then the lower index for determinism.
    pub fn choose_between(
        &mut self,
        primary: usize,
        primary_system: &SsdSystem,
        replica: usize,
        replica_system: &SsdSystem,
        issue: SimTime,
    ) -> usize {
        let a = primary_system.gc_signals();
        let b = replica_system.gc_signals();
        let chosen = match Self::busyness(&a, issue).cmp(&Self::busyness(&b, issue)) {
            std::cmp::Ordering::Less => primary,
            std::cmp::Ordering::Greater => replica,
            std::cmp::Ordering::Equal => match a.free_capacity.cmp(&b.free_capacity) {
                std::cmp::Ordering::Greater => primary,
                std::cmp::Ordering::Less => replica,
                std::cmp::Ordering::Equal => primary.min(replica),
            },
        };
        if chosen != primary {
            self.routed_reads += 1;
        }
        chosen
    }

    /// Remaining busy time of a device at `issue` — zero when idle.
    fn busyness(signals: &GcSignals, issue: SimTime) -> u64 {
        signals.busy_until.saturating_since(issue).as_micros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_names() {
        assert_eq!(GcMode::Unsynchronized.name(), "unsync");
        assert_eq!(GcMode::Staggered.name(), "staggered");
        for mode in [GcMode::Unsynchronized, GcMode::Staggered] {
            assert_eq!(GcMode::from_name(mode.name()), Some(mode));
        }
        assert_eq!(GcMode::from_name("synced"), None);
    }

    #[test]
    fn new_manager_has_no_routing_history() {
        let manager = ArrayManager::new(GcMode::Staggered);
        assert_eq!(manager.routed_reads(), 0);
        assert_eq!(manager.mode(), GcMode::Staggered);
    }
}
