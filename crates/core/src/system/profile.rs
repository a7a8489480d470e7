//! Wall-clock phase profiling for the simulation engine, and the one
//! `--bench-json` perf-record writer every driver shares.

use crate::system::SimReport;
use jitgc_sim::json::ObjectBuilder;
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

    /// Appends the seven `phase_*_secs` fields of a perf record — whole
    /// runs through [`RunPerf::record`], array members directly.
    #[must_use]
    pub fn fields(&self, record: ObjectBuilder) -> ObjectBuilder {
        record
            .field(
                "phase_request_execution_secs",
                self.request_execution.as_secs_f64(),
            )
            .field("phase_flush_secs", self.flush.as_secs_f64())
            .field("phase_predictor_secs", self.predictor.as_secs_f64())
            .field("phase_bgc_secs", self.bgc.as_secs_f64())
            .field("phase_reporting_secs", self.reporting.as_secs_f64())
            .field("phase_gc_copy_secs", self.gc_copy.as_secs_f64())
            .field("phase_tick_secs", self.tick.as_secs_f64())
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

/// What one run simulated: the identity and volume fields that open its
/// perf record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunTotals<'a> {
    /// Workload name (`"service"` for the daemon's tenant mix).
    pub benchmark: &'a str,
    /// GC policy name.
    pub policy: &'a str,
    /// Victim-selection policy; `None` omits the field (the service
    /// record never carried it).
    pub victim: Option<&'a str>,
    /// The run's RNG seed.
    pub seed: u64,
    /// Simulated duration in seconds.
    pub simulated_secs: f64,
    /// Host requests completed.
    pub ops: u64,
    /// Host pages written to the device(s).
    pub host_pages_written: u64,
    /// NAND pages programmed (host writes plus GC copies).
    pub nand_pages_programmed: u64,
}

impl<'a> RunTotals<'a> {
    /// The totals of a single-device run.
    #[must_use]
    pub fn of(report: &'a SimReport, seed: u64) -> Self {
        RunTotals {
            benchmark: &report.workload,
            policy: &report.policy,
            victim: Some(&report.victim_policy),
            seed,
            simulated_secs: report.duration_secs,
            ops: report.ops,
            host_pages_written: report.host_pages_written,
            nand_pages_programmed: report.nand_pages_programmed,
        }
    }
}

/// How fast one run went: the wall-clock facts of a `--bench-json` perf
/// record. None of them is part of the deterministic report, which is
/// what keeps reports byte-identical across thread counts and the
/// fast-forward hook.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunPerf {
    /// Wall time spent constructing the device(s) and the workload.
    pub setup_secs: f64,
    /// Wall time spent stepping the simulation.
    pub run_secs: f64,
    /// The per-phase breakdown of `run_secs`; `None` when the driver never
    /// enabled profiling, which omits the phase fields from the record.
    pub profile: Option<PhaseProfile>,
    /// Whether the engine's quiescence fast-forward was on.
    pub fast_forward: bool,
    /// Ticks the fast-forward skipped.
    pub ticks_skipped: u64,
    /// Contiguous fast-forwarded spans.
    pub ff_spans: u64,
}

impl RunPerf {
    /// The perf-record schema tag.
    const SCHEMA: &'static str = "ssdsim-bench/11";

    /// Starts an `ssdsim-bench/11` perf record with every field the drivers
    /// share: identity and totals, wall time and throughput, the phase
    /// breakdown and the fast-forward counters. Key order is part of the
    /// schema, and its history put each driver's outcome fields between
    /// the throughput and phase groups — `outcome` appends them there.
    /// The caller adds its own section (`array`, `service`, …) to the
    /// returned builder and builds it.
    #[must_use]
    pub fn record(
        &self,
        totals: &RunTotals<'_>,
        outcome: impl FnOnce(ObjectBuilder) -> ObjectBuilder,
    ) -> ObjectBuilder {
        let per_sec = |count: u64| -> f64 {
            if self.run_secs > 0.0 {
                count as f64 / self.run_secs
            } else {
                0.0
            }
        };
        let mut record = ObjectBuilder::new()
            .field("schema", Self::SCHEMA)
            .field("benchmark", totals.benchmark)
            .field("policy", totals.policy);
        if let Some(victim) = totals.victim {
            record = record.field("victim", victim);
        }
        record = record
            .field("seed", totals.seed)
            .field("simulated_secs", totals.simulated_secs)
            .field("ops", totals.ops)
            .field("host_pages_written", totals.host_pages_written)
            .field("nand_pages_programmed", totals.nand_pages_programmed)
            .field("wall_secs", self.setup_secs + self.run_secs)
            .field("setup_secs", self.setup_secs)
            .field("run_secs", self.run_secs)
            .field(
                "host_pages_per_wall_sec",
                per_sec(totals.host_pages_written),
            )
            .field(
                "nand_pages_per_wall_sec",
                per_sec(totals.nand_pages_programmed),
            )
            .field("ops_per_wall_sec", per_sec(totals.ops));
        record = outcome(record);
        if let Some(profile) = &self.profile {
            record = profile.fields(record);
        }
        record = record
            .field("fast_forward", self.fast_forward)
            .field("ticks_skipped", self.ticks_skipped)
            .field("ff_spans", self.ff_spans);
        if let Some(profile) = &self.profile {
            // The remainder is glue: workload generation and closed-loop
            // scheduling.
            let untracked = (self.run_secs - profile.accounted().as_secs_f64()).max(0.0);
            record = record.field("phase_untracked_secs", untracked);
        }
        record
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
