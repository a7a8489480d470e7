//! Bursty arrival-process model.

use std::fmt;

use jitgc_sim::{SimDuration, SimRng};

/// Which arrival knob breaks the range rule of
/// [`WorkloadConfigBuilder::check_arrival`](crate::WorkloadConfigBuilder::check_arrival).
///
/// It displays as the rule's wording; each caller puts the knob it read
/// in front (`--iops 0: …`, `tenant 0 (w) has mean IOPS 0: …`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalError {
    /// The duration is zero.
    Duration,
    /// The duration is longer than 2^62 µs: the run could end past the
    /// end of the simulated clock.
    TooLong,
    /// The mean rate is zero, negative, NaN or infinite.
    MeanIops,
    /// The mean burst length is below 1 or not finite.
    BurstMean,
    /// Rate and burst length leave a mean idle gap so long that a drawn
    /// gap could run the simulated clock past its end.
    IdleGap,
}

impl fmt::Display for ArrivalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArrivalError::Duration => "the run needs at least one simulated second",
            ArrivalError::TooLong => {
                "the run may last at most 2^62 µs (4611686018427 simulated seconds, about \
                 146 000 years): a longer one can run the simulated clock past its end"
            }
            ArrivalError::MeanIops => "the mean iops must be positive and finite",
            ArrivalError::BurstMean => "the mean burst length must be at least 1",
            ArrivalError::IdleGap => {
                "the mean idle gap, mean burst length × 10^6 / mean iops µs, must be at \
                 most 2^52 µs (about 142 years): a longer one can draw a gap past the end \
                 of the simulated clock"
            }
        })
    }
}

impl std::error::Error for ArrivalError {}

/// Generates think-time gaps forming bursts separated by idle periods.
///
/// Real applications do not issue I/O at a constant rate: they compute,
/// then flood the device, then go quiet. Those quiet periods are exactly
/// where background GC hides, so the arrival model matters for every
/// experiment in the paper.
///
/// Within a burst, gaps are exponential with a small mean (`intra_mean`);
/// between bursts the idle gap mean is derived so the long-run request
/// rate matches the configured IOPS:
///
/// ```text
/// mean_gap = 1e6 / iops
/// idle_mean = burst_mean × mean_gap − (burst_mean − 1) × intra_mean
/// ```
///
/// # Example
///
/// ```
/// use jitgc_sim::SimRng;
/// use jitgc_workload::ArrivalProcess;
///
/// let mut arrivals = ArrivalProcess::new(1_000.0, 16.0);
/// let mut rng = SimRng::seed(3);
/// let gap = arrivals.next_gap(&mut rng);
/// assert!(gap.as_micros() >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    intra_mean_us: f64,
    idle_mean_us: f64,
    burst_mean: f64,
    burst_remaining: u64,
}

impl ArrivalProcess {
    /// Default intra-burst gap mean: 50 µs (queue-depth-ish pipelining).
    const INTRA_MEAN_US: f64 = 50.0;

    /// The longest mean idle gap the rate rule admits, 2^52 µs. A draw
    /// is at most ~708 means (`-ln` of the smallest positive `f64`), so
    /// no single gap reaches 2^62 µs and a run's clock stays far from
    /// `u64::MAX`.
    const MAX_IDLE_MEAN_US: f64 = (1u64 << 52) as f64;

    /// The longest run the duration rule admits, 2^62 µs: its clock plus
    /// the one gap that ends it stays below 2^63 µs.
    pub(crate) const MAX_DURATION: SimDuration = SimDuration::from_micros(1 << 62);

    /// The rate half of the arrival rule: `iops` positive and finite,
    /// `burst_mean` finite and at least 1, and the mean idle gap
    /// `burst_mean × 10^6 / iops` µs at most 2^52 µs.
    pub(crate) fn check(iops: f64, burst_mean: f64) -> Result<(), ArrivalError> {
        if !(iops.is_finite() && iops > 0.0) {
            Err(ArrivalError::MeanIops)
        } else if !(burst_mean.is_finite() && burst_mean >= 1.0) {
            Err(ArrivalError::BurstMean)
        } else if burst_mean * 1e6 / iops > Self::MAX_IDLE_MEAN_US {
            Err(ArrivalError::IdleGap)
        } else {
            Ok(())
        }
    }

    /// Creates a process targeting `iops` requests/second with mean burst
    /// length `burst_mean`.
    ///
    /// # Panics
    ///
    /// Panics, with the rule's wording, unless `iops > 0`, `burst_mean ≥
    /// 1` and the mean idle gap fits the clock (see
    /// [`ArrivalError::IdleGap`]).
    #[must_use]
    pub fn new(iops: f64, burst_mean: f64) -> Self {
        if let Err(rule) = Self::check(iops, burst_mean) {
            panic!("{rule}");
        }
        let mean_gap = 1e6 / iops;
        let intra = Self::INTRA_MEAN_US.min(mean_gap);
        let idle = (burst_mean * mean_gap - (burst_mean - 1.0) * intra).max(intra);
        ArrivalProcess {
            intra_mean_us: intra,
            idle_mean_us: idle,
            burst_mean,
            burst_remaining: 0,
        }
    }

    /// Draws the next think-time gap.
    pub fn next_gap(&mut self, rng: &mut SimRng) -> SimDuration {
        if self.burst_remaining > 0 {
            self.burst_remaining -= 1;
            SimDuration::from_micros(rng.exp_micros(self.intra_mean_us))
        } else {
            self.burst_remaining = rng.burst_len(self.burst_mean).saturating_sub(1);
            SimDuration::from_micros(rng.exp_micros(self.idle_mean_us))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn long_run_rate_matches_target() {
        let mut arrivals = ArrivalProcess::new(2_000.0, 32.0);
        let mut rng = SimRng::seed(5);
        let n = 200_000u64;
        let total: SimDuration = (0..n).map(|_| arrivals.next_gap(&mut rng)).sum();
        let rate = n as f64 / total.as_secs_f64();
        assert!(
            (rate - 2_000.0).abs() / 2_000.0 < 0.05,
            "observed rate {rate}"
        );
    }

    #[test]
    fn bursts_create_bimodal_gaps() {
        let mut arrivals = ArrivalProcess::new(1_000.0, 32.0);
        let mut rng = SimRng::seed(7);
        let gaps: Vec<u64> = (0..50_000)
            .map(|_| arrivals.next_gap(&mut rng).as_micros())
            .collect();
        let small = gaps.iter().filter(|&&g| g < 500).count();
        let large = gaps.iter().filter(|&&g| g > 5_000).count();
        assert!(small > 30_000, "intra-burst gaps missing: {small}");
        assert!(large > 500, "idle gaps missing: {large}");
    }

    #[test]
    fn deterministic_per_seed() {
        let gen = |seed| {
            let mut a = ArrivalProcess::new(500.0, 8.0);
            let mut rng = SimRng::seed(seed);
            (0..100)
                .map(|_| a.next_gap(&mut rng).as_micros())
                .collect::<Vec<_>>()
        };
        assert_eq!(gen(1), gen(1));
        assert_ne!(gen(1), gen(2));
    }

    #[test]
    fn burst_mean_one_is_pure_poisson() {
        let mut arrivals = ArrivalProcess::new(1_000.0, 1.0);
        let mut rng = SimRng::seed(11);
        let n = 50_000u64;
        let total: SimDuration = (0..n).map(|_| arrivals.next_gap(&mut rng)).sum();
        let rate = n as f64 / total.as_secs_f64();
        assert!((rate - 1_000.0).abs() / 1_000.0 < 0.05, "rate {rate}");
    }

    #[test]
    #[should_panic(expected = "iops must be positive")]
    fn zero_iops_panics() {
        let _ = ArrivalProcess::new(0.0, 4.0);
    }

    #[test]
    fn the_idle_gap_bound_keeps_every_draw_on_the_clock() {
        assert_eq!(ArrivalProcess::check(0.05, 500.0), Ok(()));
        // 2^52 µs between bursts is the longest mean the rule admits.
        let slowest = 1e6 / ArrivalProcess::MAX_IDLE_MEAN_US;
        assert_eq!(ArrivalProcess::check(slowest, 1.0), Ok(()));
        assert_eq!(
            ArrivalProcess::check(slowest / 2.0, 1.0),
            Err(ArrivalError::IdleGap)
        );
        assert_eq!(
            ArrivalProcess::check(1.0, 1e300),
            Err(ArrivalError::IdleGap)
        );
        // The largest draw `exp_micros` can make at the bound stays
        // below 2^62 µs.
        let largest = -f64::MIN_POSITIVE.ln() * ArrivalProcess::MAX_IDLE_MEAN_US;
        assert!(largest < (1u64 << 62) as f64, "{largest}");
    }
}
