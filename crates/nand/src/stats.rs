//! Operation and wear accounting.

use jitgc_sim::json::{JsonValue, ObjectBuilder};
use jitgc_sim::stats::RunningStats;
use jitgc_sim::SimDuration;

/// Cumulative operation counters for a NAND device.
///
/// `programs` is the numerator of the Write Amplification Factor; the FTL
/// divides it by host-issued page writes to report WAF.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NandStats {
    /// Pages read.
    pub reads: u64,
    /// Pages programmed.
    pub programs: u64,
    /// Blocks erased.
    pub erases: u64,
    /// Pages invalidated (metadata-only, no array time).
    pub invalidations: u64,
    /// Cumulative array time spent reading.
    pub read_time: SimDuration,
    /// Cumulative array time spent programming.
    pub program_time: SimDuration,
    /// Cumulative array time spent erasing.
    pub erase_time: SimDuration,
    /// Injected transient program failures. Not counted in `programs`
    /// (which stays the count of pages that hold data), but their array
    /// time is charged to `program_time` — a failed program still ties
    /// up the die.
    pub program_failures: u64,
    /// Injected erase failures. Not counted in `erases`, so `erases`
    /// always equals the wear the blocks actually accumulated; the time
    /// is still charged to `erase_time`.
    pub erase_failures: u64,
    /// Injected uncorrectable reads. Not counted in `reads`; time is
    /// still charged to `read_time` (the transfer happened, ECC failed).
    pub read_failures: u64,
}

impl NandStats {
    /// Total array busy time across all operation types.
    #[must_use]
    pub fn busy_time(&self) -> SimDuration {
        self.read_time + self.program_time + self.erase_time
    }
}

/// Distribution of per-block erase counts — the device's wear picture.
///
/// The paper argues premature BGC shortens lifetime via extra erases; this
/// report exposes that directly: `total` tracks cumulative wear and
/// `max`/`spread` show how close the worst block is to its endurance limit.
///
/// # Example
///
/// ```
/// use jitgc_nand::{Geometry, NandDevice, NandTiming};
///
/// let device = NandDevice::new(Geometry::builder().build(), NandTiming::default());
/// let wear = device.wear_report();
/// assert_eq!(wear.total, 0);
/// assert_eq!(wear.max, 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WearReport {
    /// Sum of erase counts over all blocks.
    pub total: u64,
    /// Smallest per-block erase count.
    pub min: u64,
    /// Largest per-block erase count.
    pub max: u64,
    /// Mean per-block erase count.
    pub mean: f64,
    /// Population standard deviation of per-block erase counts.
    pub std_dev: f64,
}

impl WearReport {
    /// Builds a report from per-block erase counts.
    ///
    /// # Panics
    ///
    /// Panics if `counts` is empty (a device always has blocks).
    #[must_use]
    pub fn from_counts<I: IntoIterator<Item = u64>>(counts: I) -> Self {
        let mut stats = RunningStats::new();
        let mut total = 0u64;
        for c in counts {
            total += c;
            stats.push(c as f64);
        }
        assert!(stats.count() > 0, "wear report needs at least one block");
        WearReport {
            total,
            min: stats.min().expect("non-empty") as u64,
            max: stats.max().expect("non-empty") as u64,
            mean: stats.mean().expect("non-empty"),
            std_dev: stats.population_std_dev().expect("non-empty"),
        }
    }

    /// Serializes to the repository's JSON report format.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        ObjectBuilder::new()
            .field("total", self.total)
            .field("min", self.min)
            .field("max", self.max)
            .field("mean", self.mean)
            .field("std_dev", self.std_dev)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_time_sums_components() {
        let stats = NandStats {
            read_time: SimDuration::from_micros(10),
            program_time: SimDuration::from_micros(20),
            erase_time: SimDuration::from_micros(30),
            ..NandStats::default()
        };
        assert_eq!(stats.busy_time(), SimDuration::from_micros(60));
    }

    #[test]
    fn wear_report_from_counts() {
        let r = WearReport::from_counts([2, 4, 4, 4, 5, 5, 7, 9]);
        assert_eq!(r.total, 40);
        assert_eq!(r.min, 2);
        assert_eq!(r.max, 9);
        assert_eq!(r.mean, 5.0);
        assert_eq!(r.std_dev, 2.0);
    }

    #[test]
    fn wear_report_uniform() {
        let r = WearReport::from_counts([3, 3, 3]);
        assert_eq!(r.std_dev, 0.0);
        assert_eq!(r.min, 3);
        assert_eq!(r.max, 3);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn empty_counts_panic() {
        let _ = WearReport::from_counts(std::iter::empty());
    }

    #[test]
    fn default_stats_are_zero() {
        let s = NandStats::default();
        assert_eq!(s.reads, 0);
        assert_eq!(s.busy_time(), SimDuration::ZERO);
    }
}
