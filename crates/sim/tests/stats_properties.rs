//! Property tests of the statistics primitives.

use jitgc_sim::check::check;
use jitgc_sim::stats::{Cdh, Histogram, LatencyRecorder, RunningStats};
use jitgc_sim::SimDuration;

/// The histogram quantile is monotone in the requested fraction and
/// always covers at least the requested share of samples.
#[test]
fn histogram_quantile_is_monotone_and_covering() {
    check(0x57A7_0001, 256, |g| {
        let (fa, fb) = (g.f64(0.0, 1.0), g.f64(0.0, 1.0));
        let samples = g.vec(1, 100, |g| g.u64(0, 1_000));
        let mut h = Histogram::new(10);
        for &s in &samples {
            h.record(s);
        }
        let (lo, hi) = if fa <= fb { (fa, fb) } else { (fb, fa) };
        let qlo = h.quantile_upper_edge(lo).expect("non-empty");
        let qhi = h.quantile_upper_edge(hi).expect("non-empty");
        assert!(qlo <= qhi);
        // Coverage: at least ⌈hi·n⌉ samples are ≤ the returned edge.
        let covered = samples.iter().filter(|&&s| s <= qhi).count() as u64;
        let needed = (hi * samples.len() as f64).ceil() as u64;
        assert!(covered >= needed, "covered {covered} needed {needed}");
    });
}

/// CDH sliding window: after the window fills with new observations,
/// old ones stop influencing the reservation.
#[test]
fn cdh_window_forgets() {
    check(0x57A7_0002, 256, |g| {
        let (old, new) = (g.u64(1, 100), g.u64(1, 100));
        let window = 8usize;
        let mut cdh = Cdh::new(10, window);
        for _ in 0..window {
            cdh.observe(old * 10);
        }
        for _ in 0..window {
            cdh.observe(new * 10);
        }
        // The reservation at 100 % now reflects only `new`.
        assert_eq!(cdh.reserve_for(1.0).expect("observed"), new * 10);
    });
}

/// Latency percentiles are monotone and bracketed by min/max.
#[test]
fn latency_percentiles_monotone() {
    check(0x57A7_0003, 256, |g| {
        let samples = g.vec(1, 200, |g| g.u64(1, 10_000_000));
        let mut lat = LatencyRecorder::new();
        for &s in &samples {
            lat.record(SimDuration::from_micros(s));
        }
        let qs = [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
        let vals: Vec<u64> = qs
            .iter()
            .map(|&q| lat.percentile(q).expect("non-empty").as_micros())
            .collect();
        assert!(vals.windows(2).all(|w| w[0] <= w[1]), "{vals:?}");
        let max = lat.max().expect("non-empty").as_micros();
        assert!(*vals.last().expect("non-empty") <= max);
    });
}

/// Welford statistics agree with naive two-pass computation.
#[test]
fn running_stats_match_naive() {
    check(0x57A7_0004, 256, |g| {
        let samples = g.vec(1, 100, |g| g.f64(-1e6, 1e6));
        let stats: RunningStats = samples.iter().copied().collect();
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n;
        assert!((stats.mean().expect("non-empty") - mean).abs() < 1e-6);
        assert!((stats.population_variance().expect("non-empty") - var).abs() < 1e-3);
    });
}
