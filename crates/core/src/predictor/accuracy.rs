//! Prediction-accuracy scoring (paper Table 2).

/// Scores next-interval traffic predictions against observed traffic.
///
/// Per interval the tracker computes the **symmetric accuracy**
///
/// ```text
/// accuracy = 1 − |predicted − actual| / max(predicted, actual)
/// ```
///
/// and reports the mean over all intervals where either side was non-zero
/// (an interval with neither predicted nor actual traffic carries no
/// information and is skipped). This definition is symmetric in over- and
/// under-prediction, lands in `[0, 1]`, and reproduces the *ordering* of
/// the paper's Table 2 (the paper does not define its formula; any
/// relative-error metric preserves the comparison between JIT-GC's and
/// ADP-GC's predictors).
///
/// # Example
///
/// ```
/// use jitgc_core::predictor::AccuracyTracker;
///
/// let mut acc = AccuracyTracker::new();
/// acc.record(100, 90);  // 90 % accurate
/// acc.record(50, 100);  // 50 % accurate
/// let score = acc.mean_accuracy().expect("two samples");
/// assert!((score - 0.70).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AccuracyTracker {
    sum: f64,
    scored: u64,
}

impl AccuracyTracker {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> Self {
        AccuracyTracker::default()
    }

    /// Records one interval's predicted and actual traffic (bytes).
    pub fn record(&mut self, predicted: u64, actual: u64) {
        let max = predicted.max(actual);
        if max == 0 {
            return;
        }
        let diff = predicted.abs_diff(actual);
        self.sum += 1.0 - diff as f64 / max as f64;
        self.scored += 1;
    }

    /// Bulk form of [`record`](Self::record)`(predicted, 0)` × `n`: `n`
    /// intervals that carried no traffic against one standing prediction.
    /// The quiescence fast-forward uses this to account a whole idle
    /// span's worth of matured predictions in O(1) with a state
    /// bit-identical to `n` individual calls. A zero prediction is `n`
    /// empty skips, which change nothing. A non-zero one is `n` total
    /// misses, each of which scores `1 − predicted / predicted`: exactly
    /// `+0.0`, which leaves the (never negative) `sum` bit for bit where
    /// it was, so only `scored` moves.
    pub fn record_idle(&mut self, predicted: u64, n: u64) {
        if predicted != 0 {
            self.scored += n;
        }
    }

    /// Mean accuracy in `[0, 1]`, or `None` before the first informative
    /// interval.
    #[must_use]
    pub fn mean_accuracy(&self) -> Option<f64> {
        (self.scored > 0).then(|| self.sum / self.scored as f64)
    }

    /// Mean accuracy as a percentage, the paper's Table 2 unit.
    #[must_use]
    pub fn mean_accuracy_percent(&self) -> Option<f64> {
        self.mean_accuracy().map(|a| a * 100.0)
    }

    /// The accumulated sum's bit pattern, for bit-exactness properties.
    #[cfg(test)]
    pub(crate) fn sum_bits(&self) -> u64 {
        self.sum.to_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_scores_one() {
        let mut acc = AccuracyTracker::new();
        acc.record(42, 42);
        assert_eq!(acc.mean_accuracy(), Some(1.0));
    }

    #[test]
    fn total_miss_scores_zero() {
        let mut acc = AccuracyTracker::new();
        acc.record(0, 100);
        assert_eq!(acc.mean_accuracy(), Some(0.0));
        acc.record(100, 0);
        assert_eq!(acc.mean_accuracy(), Some(0.0));
    }

    #[test]
    fn symmetric_in_direction() {
        let mut over = AccuracyTracker::new();
        let mut under = AccuracyTracker::new();
        over.record(200, 100);
        under.record(100, 200);
        assert_eq!(over.mean_accuracy(), under.mean_accuracy());
    }

    #[test]
    fn empty_intervals_are_skipped() {
        let mut acc = AccuracyTracker::new();
        acc.record(0, 0);
        assert_eq!(acc, AccuracyTracker::new());
        acc.record(10, 10);
        assert_eq!(acc.mean_accuracy(), Some(1.0));
        assert_eq!(acc.scored, 1);
    }

    #[test]
    fn bulk_idle_record_matches_individual_records_bit_for_bit() {
        // A prefix whose sum has a non-trivial mantissa, then 1 000 idle
        // intervals against a zero and against a non-zero prediction.
        for predicted in [0u64, 1, 4_096, u64::MAX] {
            let mut bulk = AccuracyTracker::new();
            let mut looped = AccuracyTracker::new();
            for acc in [&mut bulk, &mut looped] {
                acc.record(100, 90);
                acc.record(3, 7);
                acc.record(0, 0);
                acc.record(1_000_003, 999_983);
            }
            bulk.record_idle(predicted, 1_000);
            for _ in 0..1_000 {
                looped.record(predicted, 0);
            }
            assert_eq!(bulk, looped, "predicted {predicted}");
            assert_eq!(bulk.sum.to_bits(), looped.sum.to_bits());
            let scored = if predicted == 0 { 3 } else { 1_003 };
            assert_eq!(bulk.scored, scored);
        }
        // From an empty tracker too: 0.0 + 0.0 keeps its sign.
        let mut bulk = AccuracyTracker::new();
        let mut looped = AccuracyTracker::new();
        bulk.record_idle(5, 3);
        for _ in 0..3 {
            looped.record(5, 0);
        }
        assert_eq!(bulk.sum.to_bits(), looped.sum.to_bits());
        assert_eq!(bulk.mean_accuracy(), Some(0.0));
    }

    #[test]
    fn percent_scale() {
        let mut acc = AccuracyTracker::new();
        acc.record(80, 100);
        let pct = acc.mean_accuracy_percent().expect("one sample");
        assert!((pct - 80.0).abs() < 1e-9);
    }

    #[test]
    fn mean_over_multiple_intervals() {
        let mut acc = AccuracyTracker::new();
        acc.record(100, 100); // 1.0
        acc.record(100, 50); // 0.5
        acc.record(100, 0); // 0.0
        let mean = acc.mean_accuracy().expect("three samples");
        assert!((mean - 0.5).abs() < 1e-9);
    }
}
