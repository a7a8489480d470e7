//! Operation timing models for different NAND generations.

use jitgc_sim::json::{JsonError, JsonValue, ObjectBuilder};
use jitgc_sim::{ByteSize, SimDuration};

/// Latency parameters of a NAND device plus the striping parallelism the
/// controller can exploit.
///
/// The paper's motivation (Sec. 1) is that program time and block size grow
/// with density — 0.2 ms / 64 pages-per-block at 130 nm versus 2.3 ms /
/// 384 pages-per-block at 25 nm — making GC ever more expensive. The
/// [`legacy_130nm`](NandTiming::legacy_130nm) and
/// [`dense_25nm`](NandTiming::dense_25nm) presets encode exactly those
/// numbers so the `ablation_nand` table can reproduce the trend;
/// [`mlc_20nm`](NandTiming::mlc_20nm) approximates the SM843T's 20 nm MLC
/// flash and is the default everywhere else.
///
/// `parallelism` collapses the channel/way hierarchy: a controller striping
/// over `n` independent dies sustains `n` concurrent array operations, so
/// effective per-page cost is the raw cost divided by `n`. Policy
/// comparisons are invariant to this constant, but it keeps absolute
/// IOPS/bandwidth in a realistic range.
///
/// # Example
///
/// ```
/// use jitgc_nand::NandTiming;
/// use jitgc_sim::SimDuration;
///
/// let t = NandTiming::mlc_20nm();
/// // Effective program cost: (1.3 ms program + 10 µs transfer) / 8 dies.
/// assert_eq!(t.page_program_cost(), SimDuration::from_micros(163));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NandTiming {
    read: SimDuration,
    program: SimDuration,
    erase: SimDuration,
    transfer_per_page: SimDuration,
    parallelism: u32,
    /// The amortized costs, divided out once here: the host and GC loops
    /// ask for them per page.
    read_cost: SimDuration,
    program_cost: SimDuration,
    erase_cost: SimDuration,
}

impl NandTiming {
    /// The longest time a configuration may give one operation, NAND or
    /// host-side: one second, hundreds of times the slowest erase. It
    /// keeps a run's sums of operation times far from the end of the
    /// 64-bit microsecond clock.
    pub const MAX_OP_TIME: SimDuration = SimDuration::from_secs(1);

    /// Builds a custom timing model.
    ///
    /// # Panics
    ///
    /// Panics if `parallelism` is zero.
    #[must_use]
    pub fn new(
        read: SimDuration,
        program: SimDuration,
        erase: SimDuration,
        transfer_per_page: SimDuration,
        parallelism: u32,
    ) -> Self {
        assert!(parallelism > 0, "parallelism must be non-zero");
        NandTiming {
            read,
            program,
            erase,
            transfer_per_page,
            parallelism,
            read_cost: Self::amortize(Self::plus(read, transfer_per_page), parallelism),
            program_cost: Self::amortize(Self::plus(program, transfer_per_page), parallelism),
            erase_cost: Self::amortize(erase, parallelism),
        }
    }

    /// 130 nm SLC-era flash: 0.2 ms program (paper Sec. 1), 25 µs read,
    /// 1.5 ms erase. Pair with 64 pages/block geometry.
    #[must_use]
    pub fn legacy_130nm() -> Self {
        NandTiming::new(
            SimDuration::from_micros(25),
            SimDuration::from_micros(200),
            SimDuration::from_micros(1_500),
            SimDuration::from_micros(20),
            8,
        )
    }

    /// 25 nm 3-bpc-era flash: 2.3 ms program (paper Sec. 1), 75 µs read,
    /// 3.8 ms erase. Pair with 384 pages/block geometry.
    #[must_use]
    pub fn dense_25nm() -> Self {
        NandTiming::new(
            SimDuration::from_micros(75),
            SimDuration::from_micros(2_300),
            SimDuration::from_micros(3_800),
            SimDuration::from_micros(20),
            8,
        )
    }

    /// 20 nm MLC flash approximating the Samsung SM843T (the paper's
    /// testbed): 50 µs read, 1.3 ms program, 3 ms erase, 8-way striping.
    #[must_use]
    pub fn mlc_20nm() -> Self {
        NandTiming::new(
            SimDuration::from_micros(50),
            SimDuration::from_micros(1_300),
            SimDuration::from_micros(3_000),
            SimDuration::from_micros(10),
            8,
        )
    }

    /// Effective cost of reading one page, amortized over striping.
    /// At least 1 µs so time always advances.
    #[must_use]
    pub fn page_read_cost(&self) -> SimDuration {
        self.read_cost
    }

    /// Effective cost of programming one page, amortized over striping.
    #[must_use]
    pub fn page_program_cost(&self) -> SimDuration {
        self.program_cost
    }

    /// Effective cost of erasing one block, amortized over striping.
    #[must_use]
    pub fn block_erase_cost(&self) -> SimDuration {
        self.erase_cost
    }

    /// Effective cost of migrating one valid page during GC
    /// (read + program).
    #[must_use]
    pub fn page_migrate_cost(&self) -> SimDuration {
        self.page_read_cost() + self.page_program_cost()
    }

    /// Sustained program bandwidth in bytes/second for the given page size
    /// (reporting helper; the paper's `B_w`/`B_gc` are *measured* online by
    /// the manager, not taken from here).
    #[must_use]
    pub fn program_bandwidth(&self, page_size: ByteSize) -> f64 {
        page_size.as_u64() as f64 / self.page_program_cost().as_secs_f64()
    }

    /// `a + b`, saturating: `new` runs before [`check`](Self::check)
    /// refuses a time past one second, so it must not overflow on one.
    fn plus(a: SimDuration, b: SimDuration) -> SimDuration {
        SimDuration::from_micros(a.as_micros().saturating_add(b.as_micros()))
    }

    fn amortize(raw: SimDuration, parallelism: u32) -> SimDuration {
        (raw / u64::from(parallelism)).max(SimDuration::from_micros(1))
    }

    /// Serializes to the repository's JSON config format (all durations in
    /// microseconds).
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        ObjectBuilder::new()
            .field("read_us", self.read.as_micros())
            .field("program_us", self.program.as_micros())
            .field("erase_us", self.erase.as_micros())
            .field("transfer_per_page_us", self.transfer_per_page.as_micros())
            .field("parallelism", self.parallelism)
            .build()
    }

    /// The range rule on the operation times: none above
    /// [`MAX_OP_TIME`](Self::MAX_OP_TIME). A system configuration checks
    /// it in its `validate`, naming the key by its path there
    /// (`ftl.timing.…`).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first time that breaks the rule.
    pub fn check(&self) -> Result<(), String> {
        for (key, time) in [
            ("read_us", self.read),
            ("program_us", self.program),
            ("erase_us", self.erase),
            ("transfer_per_page_us", self.transfer_per_page),
        ] {
            if time > Self::MAX_OP_TIME {
                return Err(format!(
                    "`ftl.timing.{key}` of {} must be at most {} (one second per operation)",
                    time.as_micros(),
                    Self::MAX_OP_TIME.as_micros()
                ));
            }
        }
        Ok(())
    }

    /// Parses the format written by [`to_json`](Self::to_json); the times'
    /// range is [`check`](Self::check)'s.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on missing or mistyped fields.
    pub fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        let parallelism = u32::try_from(v.req_u64("parallelism")?)
            .ok()
            .filter(|&p| p > 0)
            .ok_or_else(|| JsonError::new("`parallelism` must be a positive integer"))?;
        Ok(NandTiming::new(
            SimDuration::from_micros(v.req_u64("read_us")?),
            SimDuration::from_micros(v.req_u64("program_us")?),
            SimDuration::from_micros(v.req_u64("erase_us")?),
            SimDuration::from_micros(v.req_u64("transfer_per_page_us")?),
            parallelism,
        ))
    }
}

impl Default for NandTiming {
    fn default() -> Self {
        NandTiming::mlc_20nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips() {
        let t = NandTiming::dense_25nm();
        let back = NandTiming::from_json(&t.to_json()).expect("parse");
        assert_eq!(back, t);
        assert!(NandTiming::from_json(&JsonValue::parse("{}").unwrap()).is_err());
    }

    #[test]
    fn presets_match_paper_numbers() {
        assert_eq!(
            NandTiming::legacy_130nm().program,
            SimDuration::from_micros(200)
        );
        assert_eq!(
            NandTiming::dense_25nm().program,
            SimDuration::from_micros(2_300)
        );
    }

    #[test]
    fn amortization_divides_by_parallelism() {
        let t = NandTiming::mlc_20nm();
        assert_eq!(
            t.page_program_cost(),
            SimDuration::from_micros((1_300 + 10) / 8)
        );
        assert_eq!(t.block_erase_cost(), SimDuration::from_micros(3_000 / 8));
    }

    #[test]
    fn costs_never_hit_zero() {
        let t = NandTiming::new(
            SimDuration::from_micros(1),
            SimDuration::from_micros(1),
            SimDuration::from_micros(1),
            SimDuration::ZERO,
            64,
        );
        assert_eq!(t.page_read_cost(), SimDuration::from_micros(1));
        assert_eq!(t.page_program_cost(), SimDuration::from_micros(1));
        assert_eq!(t.block_erase_cost(), SimDuration::from_micros(1));
    }

    #[test]
    fn migrate_is_read_plus_program() {
        let t = NandTiming::mlc_20nm();
        assert_eq!(
            t.page_migrate_cost(),
            t.page_read_cost() + t.page_program_cost()
        );
    }

    #[test]
    fn program_bandwidth_is_positive() {
        let bw = NandTiming::mlc_20nm().program_bandwidth(ByteSize::kib(4));
        // 4 KiB / 163 µs ≈ 25 MB/s effective per the 8-way preset.
        assert!(bw > 10e6 && bw < 100e6, "bandwidth {bw}");
    }

    #[test]
    fn default_is_mlc() {
        assert_eq!(NandTiming::default(), NandTiming::mlc_20nm());
    }

    #[test]
    #[should_panic(expected = "parallelism must be non-zero")]
    fn zero_parallelism_panics() {
        let _ = NandTiming::new(
            SimDuration::from_micros(1),
            SimDuration::from_micros(1),
            SimDuration::from_micros(1),
            SimDuration::ZERO,
            0,
        );
    }

    #[test]
    fn generation_trend_program_cost_grows() {
        // The paper's motivating trend: denser flash pays more per program.
        assert!(
            NandTiming::dense_25nm().page_program_cost()
                > NandTiming::legacy_130nm().page_program_cost()
        );
    }
}
