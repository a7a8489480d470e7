//! Wall-clock phase profiling for the simulation engine.

use std::time::Duration;

/// Wall-clock (host) time the engine spent in each simulator phase.
///
/// Collected only when [`SsdSystem::enable_phase_profiling`] was called,
/// so the timing probes stay off the hot path by default. The breakdown
/// is *simulator* cost — where the CPU time of a run goes — not simulated
/// device time, and it never feeds back into simulation results: enabling
/// profiling cannot change a report.
///
/// [`SsdSystem::enable_phase_profiling`]: crate::system::SsdSystem::enable_phase_profiling
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Executing host I/O requests (cache probes + FTL reads/writes).
    pub request_execution: Duration,
    /// Flusher write-back at each tick.
    pub flush: Duration,
    /// Predictor polls: buffered + direct demand, SIP build and install.
    pub predictor: Duration,
    /// Background GC during device idle gaps.
    pub bgc: Duration,
    /// Final report construction.
    pub reporting: Duration,
    /// GC copy work inside the FTL: the page migration of foreground
    /// collections, wear-leveling relocations and background GC's steps
    /// (only the steps that copy at least one page — a BGC call with no
    /// affordable page reads no clock). The timed region is the copy
    /// alone: no victim's erase falls inside it, foreground or
    /// background. **Sub-phase**: this time is already contained in
    /// `request_execution`/`flush`/`bgc`, so it is excluded from
    /// [`accounted`](Self::accounted); it isolates the cost the batched
    /// `copy_pages` migration path attacks.
    pub gc_copy: Duration,
    /// The whole periodic-catch-up step: every tick processed (or
    /// fast-forwarded) between requests, including the quiescence check.
    /// **Super-phase**: it contains `flush`, `predictor` and the tick-time
    /// share of `bgc`, so it is excluded from
    /// [`accounted`](Self::accounted); it isolates the per-tick overhead
    /// the quiescence fast-forward attacks.
    pub tick: Duration,
}

impl PhaseProfile {
    /// Total time attributed to a phase (the remainder up to the run's
    /// wall time is untracked glue: workload generation, scheduling).
    /// `gc_copy` (sub-phase) and `tick` (super-phase) overlap the
    /// top-level phases and are not summed.
    #[must_use]
    pub fn accounted(&self) -> Duration {
        self.request_execution + self.flush + self.predictor + self.bgc + self.reporting
    }
}

/// Phase by phase — how an array totals its members. The destructuring
/// makes a phase added to the struct but not to the sum a compile error.
impl std::ops::AddAssign for PhaseProfile {
    fn add_assign(&mut self, other: PhaseProfile) {
        let PhaseProfile {
            request_execution,
            flush,
            predictor,
            bgc,
            reporting,
            gc_copy,
            tick,
        } = other;
        self.request_execution += request_execution;
        self.flush += flush;
        self.predictor += predictor;
        self.bgc += bgc;
        self.reporting += reporting;
        self.gc_copy += gc_copy;
        self.tick += tick;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_sums_every_phase() {
        let ms = Duration::from_millis;
        let p = PhaseProfile {
            request_execution: ms(1),
            flush: ms(2),
            predictor: ms(3),
            bgc: ms(4),
            reporting: ms(5),
            gc_copy: ms(6),
            tick: ms(7),
        };
        let mut total = p;
        total += p;
        assert_eq!(
            total,
            PhaseProfile {
                request_execution: ms(2),
                flush: ms(4),
                predictor: ms(6),
                bgc: ms(8),
                reporting: ms(10),
                gc_copy: ms(12),
                tick: ms(14),
            }
        );
    }
}
