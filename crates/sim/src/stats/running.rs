//! Welford online mean/variance.

/// Online mean, variance, min and max of a stream of `f64` samples
/// (Welford's algorithm — numerically stable, single pass).
///
/// Used to report erase-count spread across blocks: the paper's "lifetime"
/// metric is WAF, but wear *balance* determines when the first block dies,
/// so we track it too.
///
/// # Example
///
/// ```
/// use jitgc_sim::stats::RunningStats;
///
/// let mut s = RunningStats::new();
/// for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(v);
/// }
/// assert_eq!(s.mean(), Some(5.0));
/// assert_eq!(s.population_std_dev(), Some(2.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, sample: f64) {
        self.count += 1;
        let delta = sample - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (sample - self.mean);
        self.min = self.min.min(sample);
        self.max = self.max.max(sample);
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean, or `None` before the first sample.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Population variance (divides by N), or `None` before the first sample.
    #[must_use]
    pub fn population_variance(&self) -> Option<f64> {
        (self.count > 0).then(|| self.m2 / self.count as f64)
    }

    /// Population standard deviation, or `None` before the first sample.
    #[must_use]
    pub fn population_std_dev(&self) -> Option<f64> {
        self.population_variance().map(f64::sqrt)
    }

    /// Smallest sample, or `None` before the first sample.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` before the first sample.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

impl Extend<f64> for RunningStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.push(v);
        }
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = RunningStats::new();
        s.extend(iter);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_yields_none() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), None);
        assert_eq!(s.population_variance(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn single_sample() {
        let mut s = RunningStats::new();
        s.push(3.5);
        assert_eq!(s.mean(), Some(3.5));
        assert_eq!(s.population_variance(), Some(0.0));
        assert_eq!(s.min(), Some(3.5));
        assert_eq!(s.max(), Some(3.5));
    }

    #[test]
    fn textbook_example() {
        let s: RunningStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(s.mean(), Some(5.0));
        assert_eq!(s.population_std_dev(), Some(2.0));
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn numerically_stable_with_large_offset() {
        let base = 1e9;
        let s: RunningStats = [base + 1.0, base + 2.0, base + 3.0].into_iter().collect();
        let var = s.population_variance().expect("samples recorded");
        assert!((var - 2.0 / 3.0).abs() < 1e-6, "variance {var}");
    }

    #[test]
    fn extend_accumulates() {
        let mut s = RunningStats::new();
        s.extend([1.0, 2.0]);
        s.extend([3.0]);
        assert_eq!(s.count(), 3);
        assert_eq!(s.mean(), Some(2.0));
    }
}
