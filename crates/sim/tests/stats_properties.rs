#![cfg(feature = "proptest")]

//! Property-based tests of the statistics primitives.

use jitgc_sim::stats::{Cdh, Histogram, LatencyRecorder, RunningStats};
use jitgc_sim::SimDuration;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The histogram quantile is monotone in the requested fraction and
    /// always covers at least the requested share of samples.
    #[test]
    fn histogram_quantile_is_monotone_and_covering(
        samples in proptest::collection::vec(0..1_000u64, 1..100),
        fa in 0.0..1.0f64,
        fb in 0.0..1.0f64,
    ) {
        let mut h = Histogram::new(10);
        for &s in &samples {
            h.record(s);
        }
        let (lo, hi) = if fa <= fb { (fa, fb) } else { (fb, fa) };
        let qlo = h.quantile_upper_edge(lo).expect("non-empty");
        let qhi = h.quantile_upper_edge(hi).expect("non-empty");
        prop_assert!(qlo <= qhi);
        // Coverage: at least ⌈hi·n⌉ samples are ≤ the returned edge.
        let covered = samples.iter().filter(|&&s| s <= qhi).count() as u64;
        let needed = (hi * samples.len() as f64).ceil() as u64;
        prop_assert!(covered >= needed, "covered {} needed {}", covered, needed);
    }

    /// CDH sliding window: after the window fills with new observations,
    /// old ones stop influencing the reservation.
    #[test]
    fn cdh_window_forgets(old in 1..100u64, new in 1..100u64) {
        let window = 8usize;
        let mut cdh = Cdh::new(10, window);
        for _ in 0..window {
            cdh.observe(old * 10);
        }
        for _ in 0..window {
            cdh.observe(new * 10);
        }
        // The reservation at 100 % now reflects only `new`.
        let edge = cdh.reserve_for(1.0).expect("observed");
        prop_assert_eq!(edge, new * 10);
    }

    /// Latency percentiles are monotone and bracketed by min/max.
    #[test]
    fn latency_percentiles_monotone(
        samples in proptest::collection::vec(1..10_000_000u64, 1..200),
    ) {
        let mut lat = LatencyRecorder::new();
        for &s in &samples {
            lat.record(SimDuration::from_micros(s));
        }
        let qs = [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
        let vals: Vec<u64> = qs
            .iter()
            .map(|&q| lat.percentile(q).expect("non-empty").as_micros())
            .collect();
        prop_assert!(vals.windows(2).all(|w| w[0] <= w[1]), "{:?}", vals);
        let max = lat.max().expect("non-empty").as_micros();
        prop_assert!(*vals.last().expect("non-empty") <= max);
    }

    /// Welford statistics agree with naive two-pass computation.
    #[test]
    fn running_stats_match_naive(samples in proptest::collection::vec(-1e6..1e6f64, 1..100)) {
        let stats: RunningStats = samples.iter().copied().collect();
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((stats.mean().expect("non-empty") - mean).abs() < 1e-6);
        prop_assert!((stats.population_variance().expect("non-empty") - var).abs() < 1e-3);
    }
}
