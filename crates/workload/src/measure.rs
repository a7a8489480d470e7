//! Measuring a workload's actual write mix (reproduces paper Table 1).

use crate::{IoKind, Workload};

/// Measured page counts per request kind over a drained workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MeasuredMix {
    /// Pages written through the page cache.
    pub buffered_pages: u64,
    /// Pages written directly.
    pub direct_pages: u64,
    /// Pages read.
    pub read_pages: u64,
    /// Pages trimmed.
    pub trim_pages: u64,
    /// Requests consumed.
    pub requests: u64,
}

impl MeasuredMix {
    /// Measured buffered fraction of write pages, or `None` if the
    /// workload wrote nothing.
    #[must_use]
    pub fn buffered_fraction(&self) -> Option<f64> {
        let total = self.buffered_pages + self.direct_pages;
        (total > 0).then(|| self.buffered_pages as f64 / total as f64)
    }
}

/// Drains up to `max_requests` from `workload` and tallies pages by kind.
///
/// This regenerates the paper's Table 1: run each benchmark generator
/// through this function and compare
/// [`buffered_fraction`](MeasuredMix::buffered_fraction) against the
/// configured [`WriteMix`](crate::WriteMix).
pub fn measure_write_mix(workload: &mut dyn Workload, max_requests: u64) -> MeasuredMix {
    let mut mix = MeasuredMix::default();
    while mix.requests < max_requests {
        let Some(req) = workload.next_request() else {
            break;
        };
        mix.requests += 1;
        let pages = u64::from(req.pages);
        match req.kind {
            IoKind::BufferedWrite => mix.buffered_pages += pages,
            IoKind::DirectWrite => mix.direct_pages += pages,
            IoKind::Read => mix.read_pages += pages,
            IoKind::Trim => mix.trim_pages += pages,
        }
    }
    mix
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BenchmarkKind, WorkloadConfig};
    use jitgc_sim::SimDuration;

    #[test]
    fn measures_all_benchmarks_close_to_table1() {
        let cfg = WorkloadConfig::builder()
            .working_set_pages(4_096)
            .duration(SimDuration::from_secs(60))
            .seed(11)
            .build();
        for kind in BenchmarkKind::all() {
            let mut w = kind.build(cfg);
            let mix = measure_write_mix(w.as_mut(), u64::MAX);
            let measured = mix.buffered_fraction().expect("workloads write");
            let expected = kind.write_mix().buffered_fraction;
            assert!(
                (measured - expected).abs() < 0.05,
                "{kind}: measured {measured:.3} vs expected {expected:.3}"
            );
        }
    }

    #[test]
    fn read_shares_match_personalities() {
        // Coarse sanity on each generator's read/write balance: OLTP and
        // KV stores read plenty; micro-benchmarks are write-leaning.
        let cfg = WorkloadConfig::builder()
            .working_set_pages(4_096)
            .duration(SimDuration::from_secs(60))
            .seed(5)
            .build();
        for (kind, lo, hi) in [
            (BenchmarkKind::Ycsb, 0.25, 0.55),
            (BenchmarkKind::Postmark, 0.10, 0.45),
            (BenchmarkKind::Filebench, 0.35, 0.65),
            (BenchmarkKind::Tiobench, 0.25, 0.55),
            (BenchmarkKind::TpcC, 0.25, 0.55),
        ] {
            let mut w = kind.build(cfg);
            let mix = measure_write_mix(w.as_mut(), u64::MAX);
            let total = mix.read_pages + mix.buffered_pages + mix.direct_pages + mix.trim_pages;
            let frac = mix.read_pages as f64 / total as f64;
            assert!(
                (lo..=hi).contains(&frac),
                "{kind}: read page share {frac:.2} outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn respects_request_cap() {
        let cfg = WorkloadConfig::builder().build();
        let mut w = BenchmarkKind::Ycsb.build(cfg);
        let mix = measure_write_mix(w.as_mut(), 100);
        assert_eq!(mix.requests, 100);
    }

    #[test]
    fn empty_mix_has_no_fraction() {
        assert_eq!(MeasuredMix::default().buffered_fraction(), None);
    }
}
