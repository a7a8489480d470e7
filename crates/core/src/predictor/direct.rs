//! The direct-write demand predictor (paper Sec. 3.2.2).

use jitgc_sim::stats::Cdh;
use jitgc_sim::SimDuration;
use std::collections::VecDeque;

/// The sequence `D_dir(t) = (D¹_dir, …, D^Nwb_dir)` of per-interval direct
/// write demands, in bytes. The paper spreads the reservation `δ_dir`
/// evenly: `D^i_dir = δ_dir / N_wb`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectDemand {
    per_interval_bytes: u64,
    nwb: usize,
}

impl DirectDemand {
    /// `D^i_dir` in bytes (same for every `i`).
    #[must_use]
    pub fn interval(&self) -> u64 {
        self.per_interval_bytes
    }

    /// Total reserved capacity `δ_dir ≈ Σᵢ D^i_dir`.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.per_interval_bytes * self.nwb as u64
    }

    /// Number of intervals `N_wb`.
    #[must_use]
    pub fn horizon(&self) -> usize {
        self.nwb
    }

    /// The demand as a per-interval slice-like vector (for summation with
    /// a [`BufferedDemand`](crate::predictor::BufferedDemand)).
    #[must_use]
    pub fn to_vec(&self) -> Vec<u64> {
        vec![self.per_interval_bytes; self.nwb]
    }
}

/// Predicts direct-write demand from the cumulative data histogram of past
/// `τ_expire`-second windows (paper Sec. 3.2.2, Fig. 5).
///
/// The predictor is fed the direct-write byte count of each write-back
/// interval (`p` seconds); every interval it slides a `N_wb`-interval
/// window over those counts and records the window total in the CDH. The
/// reservation `δ_dir` is the CDH value covering `percentile` of past
/// windows — the paper found **80 %** the sweet spot: higher percentiles
/// avoid more foreground GC but over-reserve like an aggressive policy.
///
/// # Example
///
/// Reproduces the paper's Fig. 5 numbers:
///
/// ```
/// use jitgc_core::predictor::DirectWritePredictor;
/// use jitgc_sim::SimDuration;
///
/// let mib = 1024 * 1024;
/// let mut pred = DirectWritePredictor::new(
///     SimDuration::from_secs(5),
///     SimDuration::from_secs(30),
///     0.8,
///     10 * mib,
/// );
/// for window_mib in [10u64, 20, 20, 20, 80] {
///     pred.observe_window_total(window_mib * mib);
/// }
/// let demand = pred.predict();
/// assert_eq!(demand.interval(), 20 * mib / 6); // δ_dir spread over N_wb
/// ```
#[derive(Debug, Clone)]
pub struct DirectWritePredictor {
    nwb: usize,
    percentile: f64,
    cdh: Cdh,
    recent_intervals: VecDeque<u64>,
}

/// How many windows the CDH retains. Old enough to smooth noise, young
/// enough to adapt to phase changes (Bonnie++'s regime switches).
const CDH_WINDOW: usize = 64;

impl DirectWritePredictor {
    /// Creates a predictor.
    ///
    /// * `p` — flusher period.
    /// * `tau_expire` — prediction horizon (`N_wb = τ_expire / p`).
    /// * `percentile` — CDH coverage target in `(0, 1]`; the paper uses 0.8.
    /// * `bin_bytes` — CDH bin width (the paper's Fig. 5 uses 10 MB).
    ///
    /// # Panics
    ///
    /// Panics if `tau_expire` is not a positive multiple of `p`, the
    /// percentile is outside `(0, 1]`, or `bin_bytes` is zero.
    #[must_use]
    pub fn new(p: SimDuration, tau_expire: SimDuration, percentile: f64, bin_bytes: u64) -> Self {
        assert!(!p.is_zero(), "flusher period must be non-zero");
        assert!(
            !tau_expire.is_zero() && tau_expire.as_micros().is_multiple_of(p.as_micros()),
            "tau_expire must be a positive multiple of the flusher period"
        );
        assert!(
            percentile > 0.0 && percentile <= 1.0,
            "percentile must be in (0, 1], got {percentile}"
        );
        let nwb = tau_expire.div_duration(p) as usize;
        DirectWritePredictor {
            nwb,
            percentile,
            cdh: Cdh::new(bin_bytes, CDH_WINDOW),
            recent_intervals: VecDeque::with_capacity(nwb),
        }
    }

    /// Feeds the direct-write byte count of the just-finished write-back
    /// interval; once `N_wb` intervals have accumulated, each call also
    /// records the sliding `τ_expire`-window total into the CDH.
    pub fn observe_interval(&mut self, direct_bytes: u64) {
        self.recent_intervals.push_back(direct_bytes);
        if self.recent_intervals.len() > self.nwb {
            self.recent_intervals.pop_front();
        }
        if self.recent_intervals.len() == self.nwb {
            let window_total: u64 = self.recent_intervals.iter().sum();
            self.cdh.observe(window_total);
        }
    }

    /// Directly records a whole `τ_expire`-window total (used when the
    /// caller aggregates windows itself, e.g. the paper's Fig. 5 example).
    pub fn observe_window_total(&mut self, window_bytes: u64) {
        self.cdh.observe(window_bytes);
    }

    /// `true` when [`observe_interval`](Self::observe_interval)`(0)` would
    /// map this predictor exactly onto itself: the recent-interval ring
    /// holds a full horizon of zeros (push 0 / pop 0) *and* the CDH's
    /// sliding window is saturated with zero window-totals (evict 0 /
    /// record 0). The quiescence fast-forward uses this to skip the
    /// per-tick poll across idle spans; the check is an O(window) scan
    /// paid only when a skip is already plausible.
    #[must_use]
    pub fn at_zero_traffic_fixed_point(&self) -> bool {
        self.recent_intervals.len() == self.nwb
            && self.recent_intervals.iter().all(|&b| b == 0)
            && self.cdh.window_full_of(0)
    }

    /// The current demand estimate: `δ_dir` from the CDH at the configured
    /// percentile, spread evenly over the horizon. Before any observation
    /// the demand is zero (nothing to reserve for).
    #[must_use]
    pub fn predict(&self) -> DirectDemand {
        let delta = self.cdh.reserve_for(self.percentile).unwrap_or(0);
        DirectDemand {
            per_interval_bytes: delta / self.nwb as u64,
            nwb: self.nwb,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: u64 = 1024 * 1024;

    fn predictor(percentile: f64) -> DirectWritePredictor {
        DirectWritePredictor::new(
            SimDuration::from_secs(5),
            SimDuration::from_secs(30),
            percentile,
            10 * MIB,
        )
    }

    /// The paper's Fig. 5: windows of 10, 20, 20, 20, 80 MB → reserving
    /// 20 MB covers 80 % of windows.
    #[test]
    fn paper_fig5_example() {
        let mut pred = predictor(0.8);
        for mib in [10u64, 20, 20, 20, 80] {
            pred.observe_window_total(mib * MIB);
        }
        let demand = pred.predict();
        assert_eq!(demand.interval(), 20 * MIB / 6);
        assert_eq!(demand.total(), (20 * MIB / 6) * 6);
        // Covering 100 % needs the 80 MB outlier.
        let mut pred_hi = predictor(1.0);
        for mib in [10u64, 20, 20, 20, 80] {
            pred_hi.observe_window_total(mib * MIB);
        }
        assert_eq!(pred_hi.predict().total(), (80 * MIB / 6) * 6);
    }

    #[test]
    fn no_observations_predict_zero() {
        let pred = predictor(0.8);
        assert_eq!(pred.predict().total(), 0);
        assert_eq!(pred.predict().horizon(), 6);
    }

    #[test]
    fn interval_observations_form_sliding_windows() {
        // 1-MiB bins so window totals are not quantized up to a bin edge.
        let mut pred = DirectWritePredictor::new(
            SimDuration::from_secs(5),
            SimDuration::from_secs(30),
            1.0,
            MIB,
        );
        // Six intervals of 1 MiB → first window total 6 MiB.
        for _ in 0..6 {
            pred.observe_interval(MIB);
        }
        assert_eq!(pred.predict().total() / MIB, 6);
        // A huge seventh interval slides in: window = 5×1 + 35 = 40 MiB.
        pred.observe_interval(35 * MIB);
        let demand = pred.predict();
        assert_eq!(demand.interval(), 40 * MIB / 6);
    }

    #[test]
    fn fewer_than_horizon_intervals_do_not_observe() {
        let mut pred = predictor(0.8);
        for _ in 0..5 {
            pred.observe_interval(10 * MIB);
        }
        assert_eq!(pred.predict().total(), 0, "window not yet complete");
    }

    #[test]
    fn higher_percentile_reserves_no_less() {
        let mut lo = predictor(0.6);
        let mut hi = predictor(0.95);
        for mib in [5u64, 10, 15, 20, 25, 30, 80] {
            lo.observe_window_total(mib * MIB);
            hi.observe_window_total(mib * MIB);
        }
        assert!(hi.predict().total() >= lo.predict().total());
    }

    #[test]
    fn adapts_after_phase_change() {
        let mut pred = predictor(0.8);
        for _ in 0..CDH_WINDOW {
            pred.observe_window_total(100 * MIB);
        }
        let heavy = pred.predict().total();
        for _ in 0..CDH_WINDOW {
            pred.observe_window_total(MIB);
        }
        let light = pred.predict().total();
        assert!(
            light < heavy / 10,
            "CDH window failed to slide: {light} vs {heavy}"
        );
    }

    #[test]
    fn zero_fixed_point_needs_horizon_and_cdh_saturation() {
        let mut pred = predictor(0.8);
        assert!(!pred.at_zero_traffic_fixed_point(), "fresh predictor");
        // A full horizon of zero intervals is necessary but not
        // sufficient: the CDH window (64 window-totals) must drain too.
        for _ in 0..6 {
            pred.observe_interval(0);
        }
        assert!(!pred.at_zero_traffic_fixed_point());
        for _ in 0..CDH_WINDOW {
            pred.observe_interval(0);
        }
        assert!(pred.at_zero_traffic_fixed_point());
        // At the fixed point, observing another zero changes nothing.
        let before = pred.clone();
        pred.observe_interval(0);
        assert_eq!(before.predict(), pred.predict());
        assert!(pred.at_zero_traffic_fixed_point());
        // Any traffic leaves the fixed point.
        pred.observe_interval(MIB);
        assert!(!pred.at_zero_traffic_fixed_point());
    }

    #[test]
    fn to_vec_is_uniform() {
        let mut pred = predictor(0.8);
        pred.observe_window_total(60 * MIB);
        let v = pred.predict().to_vec();
        assert_eq!(v.len(), 6);
        assert!(v.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    #[should_panic(expected = "percentile must be in (0, 1]")]
    fn zero_percentile_panics() {
        let _ = predictor(0.0);
    }

    #[test]
    #[should_panic(expected = "multiple of the flusher period")]
    fn bad_horizon_panics() {
        let _ = DirectWritePredictor::new(
            SimDuration::from_secs(7),
            SimDuration::from_secs(30),
            0.8,
            MIB,
        );
    }
}
