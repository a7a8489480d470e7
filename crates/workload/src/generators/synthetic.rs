//! A fully configurable synthetic workload.

use super::Base;
use crate::{IoKind, IoRequest, Workload, WorkloadConfig, WriteMix};
use jitgc_nand::Lpn;
use jitgc_sim::Zipf;

/// A knob-per-dimension synthetic workload for controlled experiments.
///
/// Where the six benchmark personalities fix their parameters to match
/// published behaviour, `Synthetic` exposes each dimension the simulator
/// is sensitive to:
///
/// * `read_fraction` — share of requests that read;
/// * `buffered_fraction` — share of written pages that go through the
///   page cache (paper Table 1's axis);
/// * `zipf_skew` — overwrite locality (0 = uniform);
/// * `trim_fraction` — share of requests that TRIM;
/// * `min_pages ..= max_pages` — request size range.
///
/// # Example
///
/// ```
/// use jitgc_workload::{Synthetic, Workload, WorkloadConfig};
///
/// let mut w = Synthetic::builder()
///     .read_fraction(0.3)
///     .buffered_fraction(0.5)
///     .zipf_skew(1.1)
///     .pages(1, 8)
///     .build(WorkloadConfig::builder().working_set_pages(4096).build());
/// assert!(w.next_request().is_some());
/// assert_eq!(w.write_mix().buffered_fraction, 0.5);
/// ```
#[derive(Debug)]
pub struct Synthetic {
    base: Base,
    zipf: Zipf,
    knobs: SyntheticKnobs,
}

/// The knobs of a [`Synthetic`] workload: what [`SyntheticBuilder`] sets
/// and the workload draws with.
#[derive(Debug, Clone, Copy)]
struct SyntheticKnobs {
    read_fraction: f64,
    buffered_fraction: f64,
    trim_fraction: f64,
    zipf_skew: f64,
    min_pages: u32,
    max_pages: u32,
}

impl Default for SyntheticKnobs {
    fn default() -> Self {
        SyntheticKnobs {
            read_fraction: 0.4,
            buffered_fraction: 0.7,
            trim_fraction: 0.0,
            zipf_skew: 0.9,
            min_pages: 1,
            max_pages: 4,
        }
    }
}

/// Builder for [`Synthetic`]. Defaults: 40 % reads, 70 % buffered writes,
/// Zipf 0.9, no TRIM, 1–4 pages per request.
#[derive(Debug, Clone, Default)]
pub struct SyntheticBuilder(SyntheticKnobs);

impl SyntheticBuilder {
    /// Sets the fraction of requests that read (`[0, 1]`).
    #[must_use]
    pub fn read_fraction(mut self, f: f64) -> Self {
        self.0.read_fraction = f;
        self
    }

    /// Sets the fraction of written pages that are buffered (`[0, 1]`).
    #[must_use]
    pub fn buffered_fraction(mut self, f: f64) -> Self {
        self.0.buffered_fraction = f;
        self
    }

    /// Sets the fraction of requests that TRIM (`[0, 1]`).
    #[must_use]
    pub fn trim_fraction(mut self, f: f64) -> Self {
        self.0.trim_fraction = f;
        self
    }

    /// Sets the Zipf skew of the address distribution (0 = uniform).
    #[must_use]
    pub fn zipf_skew(mut self, s: f64) -> Self {
        self.0.zipf_skew = s;
        self
    }

    /// Sets the request size range in pages (inclusive).
    #[must_use]
    pub fn pages(mut self, min: u32, max: u32) -> Self {
        self.0.min_pages = min;
        self.0.max_pages = max;
        self
    }

    /// The rule on the workload's knobs over a working set of
    /// `working_set_pages`: each fraction is in `[0, 1]`, read and trim
    /// fit one request budget, the page range is non-empty, and the
    /// working set holds one maximum-size request. The error names the
    /// first knob that breaks it.
    fn check(&self, working_set_pages: u64) -> Result<(), String> {
        let k = &self.0;
        for (name, v) in [
            ("read_fraction", k.read_fraction),
            ("buffered_fraction", k.buffered_fraction),
            ("trim_fraction", k.trim_fraction),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} must be in [0, 1], got {v}"));
            }
        }
        if k.read_fraction + k.trim_fraction > 1.0 {
            return Err("read and trim fractions exceed the request budget".into());
        }
        if k.min_pages < 1 || k.min_pages > k.max_pages {
            return Err(format!(
                "invalid page range {}..={}",
                k.min_pages, k.max_pages
            ));
        }
        if working_set_pages < u64::from(k.max_pages) {
            return Err("working set smaller than one request".into());
        }
        Ok(())
    }

    /// Finalizes the workload.
    ///
    /// # Panics
    ///
    /// Panics if any fraction is outside `[0, 1]`, read+trim exceed 1,
    /// the page range is empty, or the working set cannot hold one
    /// maximum-size request.
    #[must_use]
    pub fn build(self, cfg: WorkloadConfig) -> Synthetic {
        if let Err(rule) = self.check(cfg.working_set_pages()) {
            panic!("{rule}");
        }
        Synthetic {
            zipf: Zipf::new(cfg.working_set_pages(), self.0.zipf_skew),
            base: Base::new(cfg),
            knobs: self.0,
        }
    }
}

impl Synthetic {
    /// Starts a builder.
    #[must_use]
    pub fn builder() -> SyntheticBuilder {
        SyntheticBuilder::default()
    }

    fn draw_lpn(&mut self, span: u32) -> u64 {
        let ws = self.base.cfg.working_set_pages();
        let rank = self.zipf.sample(&mut self.base.rng);
        let scattered = rank.wrapping_mul(2_654_435_761) % ws;
        scattered.min(ws.saturating_sub(u64::from(span)))
    }

    fn draw_pages(&mut self) -> u32 {
        if self.knobs.min_pages == self.knobs.max_pages {
            self.knobs.min_pages
        } else {
            self.knobs.min_pages
                + self.base.rng.range_u64(
                    0,
                    u64::from(self.knobs.max_pages - self.knobs.min_pages + 1),
                ) as u32
        }
    }
}

impl Workload for Synthetic {
    fn name(&self) -> &'static str {
        "Synthetic"
    }

    fn write_mix(&self) -> WriteMix {
        WriteMix::new(self.knobs.buffered_fraction)
    }

    fn working_set_pages(&self) -> u64 {
        self.base.cfg.working_set_pages()
    }

    fn next_request(&mut self) -> Option<IoRequest> {
        let gap = self.base.next_gap()?;
        let pages = self.draw_pages();
        let lpn = Lpn(self.draw_lpn(pages));
        let roll = self.base.rng.unit_f64();
        let kind = if roll < self.knobs.read_fraction {
            IoKind::Read
        } else if roll < self.knobs.read_fraction + self.knobs.trim_fraction {
            IoKind::Trim
        } else if self.base.rng.chance(self.knobs.buffered_fraction) {
            IoKind::BufferedWrite
        } else {
            IoKind::DirectWrite
        };
        Some(IoRequest {
            gap,
            kind,
            lpn,
            pages,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::testutil::{drain_and_count, small_config};

    #[test]
    fn fractions_are_respected() {
        let mut w = Synthetic::builder()
            .read_fraction(0.25)
            .buffered_fraction(0.6)
            .trim_fraction(0.1)
            .build(small_config(1));
        let (buffered, direct, reads, trims) = drain_and_count(&mut w);
        let writes = buffered + direct;
        let total_reqs = reads + trims + writes; // pages ≈ requests × mean size, same dist
        let read_frac = reads as f64 / total_reqs as f64;
        let trim_frac = trims as f64 / total_reqs as f64;
        let buf_frac = buffered as f64 / writes as f64;
        assert!((read_frac - 0.25).abs() < 0.03, "reads {read_frac}");
        assert!((trim_frac - 0.10).abs() < 0.03, "trims {trim_frac}");
        assert!((buf_frac - 0.60).abs() < 0.03, "buffered {buf_frac}");
    }

    #[test]
    fn builder_defaults_are_pinned() {
        let mut default = Synthetic::builder().build(small_config(5));
        let mut explicit = Synthetic::builder()
            .read_fraction(0.4)
            .buffered_fraction(0.7)
            .trim_fraction(0.0)
            .zipf_skew(0.9)
            .pages(1, 4)
            .build(small_config(5));
        assert_eq!(default.write_mix(), explicit.write_mix());
        for _ in 0..5_000 {
            assert_eq!(default.next_request(), explicit.next_request());
        }
    }

    #[test]
    fn uniform_skew_spreads_addresses() {
        let mut w = Synthetic::builder().zipf_skew(0.0).build(small_config(2));
        let mut touched = std::collections::HashSet::new();
        for _ in 0..5_000 {
            let Some(req) = w.next_request() else { break };
            touched.insert(req.lpn.0);
        }
        assert!(
            touched.len() > 1_000,
            "uniform access touched only {} pages",
            touched.len()
        );
    }

    #[test]
    fn fixed_size_requests() {
        let mut w = Synthetic::builder().pages(8, 8).build(small_config(3));
        for _ in 0..1_000 {
            let req = w.next_request().expect("within duration");
            assert_eq!(req.pages, 8);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let make = || Synthetic::builder().zipf_skew(1.0).build(small_config(7));
        let (mut a, mut b) = (make(), make());
        for _ in 0..1_000 {
            assert_eq!(a.next_request(), b.next_request());
        }
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn bad_fraction_panics() {
        let _ = Synthetic::builder()
            .read_fraction(1.5)
            .build(small_config(1));
    }

    #[test]
    #[should_panic(expected = "exceed the request budget")]
    fn over_budget_fractions_panic() {
        let _ = Synthetic::builder()
            .read_fraction(0.8)
            .trim_fraction(0.5)
            .build(small_config(1));
    }

    #[test]
    #[should_panic(expected = "invalid page range")]
    fn empty_page_range_panics() {
        let _ = Synthetic::builder().pages(4, 2).build(small_config(1));
    }
}
