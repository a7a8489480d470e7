//! Common workload configuration.

use jitgc_sim::SimDuration;

use crate::arrival::{ArrivalError, ArrivalProcess};

/// Parameters shared by every benchmark generator.
///
/// The paper sets the working set to half the device's user capacity and
/// runs each benchmark to steady state; the defaults here mirror that at
/// simulation scale.
///
/// # Example
///
/// ```
/// use jitgc_workload::WorkloadConfig;
/// use jitgc_sim::SimDuration;
///
/// let config = WorkloadConfig::builder()
///     .working_set_pages(8192)
///     .duration(SimDuration::from_secs(600))
///     .mean_iops(2_000.0)
///     .seed(42)
///     .build();
/// assert_eq!(config.working_set_pages(), 8192);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    working_set_pages: u64,
    duration: SimDuration,
    mean_iops: f64,
    burst_mean: f64,
    seed: u64,
}

impl WorkloadConfig {
    /// Starts building a configuration. See [`WorkloadConfigBuilder`].
    #[must_use]
    pub fn builder() -> WorkloadConfigBuilder {
        WorkloadConfigBuilder::default()
    }

    /// Number of logical pages the workload touches.
    #[must_use]
    pub fn working_set_pages(&self) -> u64 {
        self.working_set_pages
    }

    /// Total think-time the generator emits before ending.
    #[must_use]
    pub fn duration(&self) -> SimDuration {
        self.duration
    }

    /// Target request arrival rate.
    #[must_use]
    pub fn mean_iops(&self) -> f64 {
        self.mean_iops
    }

    /// Mean burst length (requests arriving back-to-back).
    #[must_use]
    pub fn burst_mean(&self) -> f64 {
        self.burst_mean
    }

    /// RNG seed; equal seeds give bit-identical request streams.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl Default for WorkloadConfig {
    /// An 8 192-page working set, 300 s duration, 2 000 IOPS, mean burst
    /// 32, seed 0.
    fn default() -> Self {
        WorkloadConfig {
            working_set_pages: 8_192,
            duration: SimDuration::from_secs(300),
            mean_iops: 2_000.0,
            burst_mean: 32.0,
            seed: 0,
        }
    }
}

/// Builder for [`WorkloadConfig`], starting from
/// [`WorkloadConfig::default`].
#[derive(Debug, Clone, Default)]
pub struct WorkloadConfigBuilder(WorkloadConfig);

impl WorkloadConfigBuilder {
    /// Sets the working set size in pages.
    #[must_use]
    pub fn working_set_pages(mut self, pages: u64) -> Self {
        self.0.working_set_pages = pages;
        self
    }

    /// Sets the emitted think-time duration.
    #[must_use]
    pub fn duration(mut self, duration: SimDuration) -> Self {
        self.0.duration = duration;
        self
    }

    /// Sets the emitted think-time duration to `secs` simulated seconds,
    /// as the CLIs and a service roster count it. A count of seconds past
    /// the clock's end sets [`SimDuration::MAX`], which
    /// [`check_arrival`](Self::check_arrival) refuses, instead of
    /// panicking in the conversion.
    #[must_use]
    pub fn seconds(mut self, secs: u64) -> Self {
        self.0.duration = SimDuration::checked_from_secs(secs).unwrap_or(SimDuration::MAX);
        self
    }

    /// Sets the target arrival rate in requests/second.
    #[must_use]
    pub fn mean_iops(mut self, iops: f64) -> Self {
        self.0.mean_iops = iops;
        self
    }

    /// Sets the mean burst length.
    #[must_use]
    pub fn burst_mean(mut self, mean: f64) -> Self {
        self.0.burst_mean = mean;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.0.seed = seed;
        self
    }

    /// The range rule on the arrival knobs, whichever input sets them
    /// (`ssdsim --seconds/--iops/--burst`, a service tenant, code): the
    /// duration is above zero and at most 2^62 µs (see
    /// [`ArrivalError::TooLong`]), the mean IOPS positive and finite, the
    /// mean burst length finite and at least 1, and the mean idle gap
    /// between bursts short enough that no drawn gap runs the simulated
    /// clock past its end (see [`ArrivalError::IdleGap`]).
    ///
    /// # Errors
    ///
    /// Returns the first knob that breaks the rule.
    pub fn check_arrival(&self) -> Result<(), ArrivalError> {
        let c = &self.0;
        if c.duration.is_zero() {
            return Err(ArrivalError::Duration);
        }
        if c.duration > ArrivalProcess::MAX_DURATION {
            return Err(ArrivalError::TooLong);
        }
        ArrivalProcess::check(c.mean_iops, c.burst_mean)
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the working set is empty or
    /// [`check_arrival`](Self::check_arrival) fails, with the rule's
    /// wording.
    #[must_use]
    pub fn build(self) -> WorkloadConfig {
        assert!(
            self.0.working_set_pages > 0,
            "working set must be non-empty"
        );
        if let Err(rule) = self.check_arrival() {
            panic!("{rule}");
        }
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_build() {
        let c = WorkloadConfig::builder().build();
        assert_eq!(c.working_set_pages(), 8_192);
        assert_eq!(c.duration(), SimDuration::from_secs(300));
        assert_eq!(c.seed(), 0);
    }

    #[test]
    fn builder_defaults_are_pinned() {
        let explicit = WorkloadConfig::builder()
            .working_set_pages(8_192)
            .duration(SimDuration::from_secs(300))
            .mean_iops(2_000.0)
            .burst_mean(32.0)
            .seed(0)
            .build();
        assert_eq!(WorkloadConfig::builder().build(), explicit);
    }

    #[test]
    fn builder_overrides() {
        let c = WorkloadConfig::builder()
            .working_set_pages(16)
            .duration(SimDuration::from_secs(1))
            .mean_iops(100.0)
            .burst_mean(4.0)
            .seed(9)
            .build();
        assert_eq!(c.working_set_pages(), 16);
        assert_eq!(c.mean_iops(), 100.0);
        assert_eq!(c.burst_mean(), 4.0);
        assert_eq!(c.seed(), 9);
    }

    #[test]
    fn generators_respect_duration_bound() {
        use crate::BenchmarkKind;
        let cfg = WorkloadConfig::builder()
            .working_set_pages(1_024)
            .duration(SimDuration::from_secs(5))
            .mean_iops(1_000.0)
            .build();
        for kind in BenchmarkKind::all() {
            let mut w = kind.build(cfg);
            let mut total = SimDuration::ZERO;
            while let Some(req) = w.next_request() {
                total += req.gap;
            }
            // The think-time budget is exhausted within one gap's slack.
            assert!(
                total >= SimDuration::from_secs(5),
                "{kind} ended early at {total}"
            );
            assert!(
                total < SimDuration::from_secs(10),
                "{kind} overshot the duration: {total}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "working set must be non-empty")]
    fn zero_working_set_panics() {
        let _ = WorkloadConfig::builder().working_set_pages(0).build();
    }

    #[test]
    fn check_arrival_names_the_knob() {
        let check = |secs, iops, burst| {
            WorkloadConfig::builder()
                .duration(SimDuration::from_secs(secs))
                .mean_iops(iops)
                .burst_mean(burst)
                .check_arrival()
        };
        assert_eq!(check(1, 0.05, 500.0), Ok(()));
        assert_eq!(check(0, 1.0, 1.0), Err(ArrivalError::Duration));
        for iops in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            assert_eq!(check(1, iops, 1.0), Err(ArrivalError::MeanIops));
        }
        for burst in [0.5, f64::NAN, f64::INFINITY] {
            assert_eq!(check(1, 1.0, burst), Err(ArrivalError::BurstMean));
        }
        assert_eq!(check(1, 1e-300, 1.0), Err(ArrivalError::IdleGap));
        let seconds = |secs| {
            WorkloadConfig::builder()
                .seconds(secs)
                .mean_iops(1.0)
                .check_arrival()
        };
        let last = (1 << 62) / 1_000_000;
        assert_eq!(seconds(last), Ok(()));
        for secs in [
            last + 1,
            u64::MAX / 1_000_000 + 1,
            20_000_000_000_000,
            u64::MAX,
        ] {
            assert_eq!(seconds(secs), Err(ArrivalError::TooLong), "{secs} s");
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn sub_one_burst_panics() {
        let _ = WorkloadConfig::builder().burst_mean(0.5).build();
    }
}
