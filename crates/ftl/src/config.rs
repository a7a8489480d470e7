//! FTL configuration.

use jitgc_nand::{FaultConfig, Geometry, NandTiming};
use jitgc_sim::json::{JsonError, JsonValue, ObjectBuilder};
use jitgc_sim::{ByteSize, SimDuration};

/// A device must have fewer physical pages than this: the FTL's map and
/// the device's per-page tables hold 32-bit entries with `u32::MAX` as
/// "none" (see [`NandDevice::new`](jitgc_nand::NandDevice::new)).
const MAX_PHYSICAL_PAGES: u64 = u32::MAX as u64;

/// The largest page a configuration may give the device: 1 MiB, 64 times
/// the largest NAND page in production. Byte counts (capacities, the
/// direct-write histogram, bandwidth) multiply it by page counts.
const MAX_PAGE_BYTES: u64 = 1 << 20;

/// Static configuration of an [`Ftl`](crate::Ftl).
///
/// The physical geometry is **derived**: the device gets enough blocks to
/// hold `user_pages` of logical space plus `op_permille`/1000 of
/// over-provisioning plus `gc_reserve_blocks` the GC engine needs as
/// scratch space for migrations.
///
/// # Example
///
/// ```
/// use jitgc_ftl::FtlConfig;
///
/// let config = FtlConfig::builder()
///     .user_pages(10_000)
///     .op_permille(70)          // 7 % OP, like the paper's SM843T
///     .pages_per_block(128)
///     .page_size_bytes(4096)
///     .build();
/// assert_eq!(config.user_pages(), 10_000);
/// assert!(config.op_pages() >= 700);
/// ```
#[derive(Debug, Clone)]
pub struct FtlConfig {
    knobs: FtlKnobs,
    geometry: Geometry,
}

/// The knobs of an FTL configuration: what [`FtlConfigBuilder`] sets and
/// [`FtlConfig`] keeps beside the geometry it derives from them.
#[derive(Debug, Clone, Copy)]
struct FtlKnobs {
    user_pages: u64,
    op_permille: u64,
    pages_per_block: u32,
    page_size_bytes: u64,
    gc_reserve_blocks: u32,
    sip_filter_threshold_permille: u64,
    wear_level_threshold: u64,
    hot_cold_streams: bool,
    hot_window: SimDuration,
    endurance_limit: Option<u64>,
    fault: Option<FaultConfig>,
    timing: NandTiming,
}

impl Default for FtlKnobs {
    fn default() -> Self {
        FtlKnobs {
            user_pages: 8_192,
            op_permille: 70,
            pages_per_block: 128,
            page_size_bytes: 4_096,
            gc_reserve_blocks: 2,
            sip_filter_threshold_permille: 250,
            wear_level_threshold: 64,
            hot_cold_streams: false,
            hot_window: SimDuration::from_secs(5),
            endurance_limit: None,
            fault: None,
            timing: NandTiming::mlc_20nm(),
        }
    }
}

impl FtlConfig {
    /// Starts building a configuration. See [`FtlConfigBuilder`].
    #[must_use]
    pub fn builder() -> FtlConfigBuilder {
        FtlConfigBuilder::default()
    }

    /// Number of host-visible logical pages.
    #[must_use]
    pub fn user_pages(&self) -> u64 {
        self.knobs.user_pages
    }

    /// Over-provisioning ratio in permille (70 = 7 %).
    #[must_use]
    pub fn op_permille(&self) -> u64 {
        self.knobs.op_permille
    }

    /// Number of over-provisioning pages (`C_OP` in pages).
    #[must_use]
    pub fn op_pages(&self) -> u64 {
        self.knobs.user_pages * self.knobs.op_permille / 1000
    }

    /// Over-provisioning capacity in bytes (`C_OP`).
    #[must_use]
    pub fn op_capacity(&self) -> ByteSize {
        self.geometry.page_size() * self.op_pages()
    }

    /// Blocks the GC engine keeps for itself as migration scratch space.
    #[must_use]
    pub fn gc_reserve_blocks(&self) -> u32 {
        self.knobs.gc_reserve_blocks
    }

    /// SIP filter threshold in permille of a block's valid pages: a BGC
    /// victim candidate whose soon-to-be-invalidated fraction exceeds this
    /// is avoided. Default 250 (25 %): cold blocks carry almost no dirty
    /// overlap while hot, recently-written blocks carry a lot, so a
    /// quarter of the valid pages separates the two populations.
    #[must_use]
    pub fn sip_filter_threshold_permille(&self) -> u64 {
        self.knobs.sip_filter_threshold_permille
    }

    /// Erase-count spread (max − min) that triggers static wear leveling.
    #[must_use]
    pub fn wear_level_threshold(&self) -> u64 {
        self.knobs.wear_level_threshold
    }

    /// `true` when host writes are split into hot and cold streams
    /// (separate active blocks), so frequently-updated pages do not share
    /// blocks with cold data — an FTL-side complement to SIP filtering
    /// that reduces the valid data GC must migrate.
    #[must_use]
    pub fn hot_cold_streams(&self) -> bool {
        self.knobs.hot_cold_streams
    }

    /// A page rewritten within this window of its previous write counts as
    /// hot (only meaningful with [`hot_cold_streams`](Self::hot_cold_streams)).
    #[must_use]
    pub fn hot_window(&self) -> SimDuration {
        self.knobs.hot_window
    }

    /// Program/erase endurance limit per block, if device end-of-life is
    /// modeled (`None` = unlimited; 3 000 cycles is typical 20 nm MLC).
    #[must_use]
    pub fn endurance_limit(&self) -> Option<u64> {
        self.knobs.endurance_limit
    }

    /// Wear-dependent fault injection parameters, if fault injection is
    /// enabled (`None` = a fault-free device).
    #[must_use]
    pub fn fault(&self) -> Option<&FaultConfig> {
        self.knobs.fault.as_ref()
    }

    /// The derived physical geometry.
    #[must_use]
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The NAND timing model.
    #[must_use]
    pub fn timing(&self) -> &NandTiming {
        &self.knobs.timing
    }

    /// Serializes to the repository's JSON config format. The geometry is
    /// not stored: [`from_json`](Self::from_json) re-derives it from the
    /// same inputs [`build`](FtlConfigBuilder::build) uses. The `fault`
    /// field is emitted only when fault injection is configured, so
    /// fault-free config dumps are unchanged from earlier versions.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let k = &self.knobs;
        let mut b = ObjectBuilder::new()
            .field("user_pages", k.user_pages)
            .field("op_permille", k.op_permille)
            .field("pages_per_block", k.pages_per_block)
            .field("page_size_bytes", k.page_size_bytes)
            .field("gc_reserve_blocks", k.gc_reserve_blocks)
            .field(
                "sip_filter_threshold_permille",
                k.sip_filter_threshold_permille,
            )
            .field("wear_level_threshold", k.wear_level_threshold)
            .field("hot_cold_streams", k.hot_cold_streams)
            .field("hot_window_us", k.hot_window.as_micros())
            .field("endurance_limit", k.endurance_limit)
            .field("timing", k.timing.to_json());
        if let Some(fault) = &k.fault {
            b = b.field("fault", fault.to_json());
        }
        b.build()
    }

    /// Parses the format written by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on missing or mistyped fields and on
    /// values [`build`](FtlConfigBuilder::build) would panic on, named by
    /// their path in a system configuration (`ftl.…`).
    pub fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        let mut builder = FtlConfig::builder()
            .user_pages(v.req_u64("user_pages")?)
            .op_permille(v.req_u64("op_permille")?)
            .pages_per_block(req_u32(v, "pages_per_block")?)
            .page_size_bytes(v.req_u64("page_size_bytes")?)
            .gc_reserve_blocks(req_u32(v, "gc_reserve_blocks")?)
            .sip_filter_threshold_permille(v.req_u64("sip_filter_threshold_permille")?)
            .wear_level_threshold(v.req_u64("wear_level_threshold")?)
            .timing(NandTiming::from_json(v.req("timing")?)?);
        if v.req_bool("hot_cold_streams")? {
            builder =
                builder.hot_cold_streams(SimDuration::from_micros(v.req_u64("hot_window_us")?));
        }
        if v.get("endurance_limit")
            .is_some_and(|limit| !limit.is_null())
        {
            builder = builder.endurance_limit(v.req_u64("endurance_limit")?);
        }
        match v.get("fault") {
            None => {}
            Some(fault) if fault.is_null() => {}
            Some(fault) => builder = builder.fault(FaultConfig::from_json(fault)?),
        }
        builder.check("ftl.").map_err(JsonError::new)?;
        Ok(builder.build())
    }

    /// A builder carrying every setting of this configuration, so a
    /// caller can tweak one knob without dropping the others.
    #[must_use]
    pub fn to_builder(&self) -> FtlConfigBuilder {
        FtlConfigBuilder(self.knobs)
    }
}

/// The required key `key` of an FTL config, for a knob held in 32 bits.
fn req_u32(v: &JsonValue, key: &str) -> Result<u32, JsonError> {
    v.req_u64(key)?
        .try_into()
        .map_err(|_| JsonError::new(format!("`{key}` out of range")))
}

/// Builder for [`FtlConfig`].
///
/// Defaults: 8 192 user pages, 7 % OP, 128 pages/block, 4 KiB pages,
/// 2 GC-reserve blocks, [`NandTiming::mlc_20nm`], SIP threshold 25 %,
/// wear-level threshold 64, one write stream, unlimited endurance, no
/// fault injection.
#[derive(Debug, Clone, Default)]
pub struct FtlConfigBuilder(FtlKnobs);

impl FtlConfigBuilder {
    /// Sets the logical (host-visible) page count.
    #[must_use]
    pub fn user_pages(mut self, pages: u64) -> Self {
        self.0.user_pages = pages;
        self
    }

    /// Sets the over-provisioning ratio in permille (70 = 7 %).
    #[must_use]
    pub fn op_permille(mut self, permille: u64) -> Self {
        self.0.op_permille = permille;
        self
    }

    /// Sets pages per erase block.
    #[must_use]
    pub fn pages_per_block(mut self, pages: u32) -> Self {
        self.0.pages_per_block = pages;
        self
    }

    /// Sets the page size in bytes.
    #[must_use]
    pub fn page_size_bytes(mut self, bytes: u64) -> Self {
        self.0.page_size_bytes = bytes;
        self
    }

    /// Sets the GC scratch reserve in blocks (minimum 1).
    #[must_use]
    pub fn gc_reserve_blocks(mut self, blocks: u32) -> Self {
        self.0.gc_reserve_blocks = blocks;
        self
    }

    /// Sets the SIP filter threshold in permille of valid pages.
    #[must_use]
    pub fn sip_filter_threshold_permille(mut self, permille: u64) -> Self {
        self.0.sip_filter_threshold_permille = permille;
        self
    }

    /// Sets the erase-count spread that triggers static wear leveling.
    #[must_use]
    pub fn wear_level_threshold(mut self, threshold: u64) -> Self {
        self.0.wear_level_threshold = threshold;
        self
    }

    /// Enables hot/cold stream separation with the given hot window.
    #[must_use]
    pub fn hot_cold_streams(mut self, window: SimDuration) -> Self {
        self.0.hot_cold_streams = true;
        self.0.hot_window = window;
        self
    }

    /// Models device end-of-life: blocks fail after `cycles` erases, and
    /// the failure surfaces as [`FtlError::Nand`](crate::FtlError::Nand)
    /// with [`NandError::BlockWornOut`](jitgc_nand::NandError::BlockWornOut).
    #[must_use]
    pub fn endurance_limit(mut self, cycles: u64) -> Self {
        self.0.endurance_limit = Some(cycles);
        self
    }

    /// Enables seeded wear-dependent fault injection (see
    /// [`FaultConfig`]). Faults surface as NAND errors the FTL recovers
    /// from: programs are retried elsewhere, erase failures retire the
    /// block, uncorrectable reads are reported to the host layer.
    #[must_use]
    pub fn fault(mut self, fault: FaultConfig) -> Self {
        self.0.fault = Some(fault);
        self
    }

    /// Sets the NAND timing model.
    #[must_use]
    pub fn timing(mut self, timing: NandTiming) -> Self {
        self.0.timing = timing;
        self
    }

    /// Blocks of the derived geometry — user pages and over-provisioning
    /// in whole blocks, plus the GC reserve — or `None` when that device
    /// would have [`MAX_PHYSICAL_PAGES`] or more. Pages per block must be
    /// non-zero.
    fn blocks(&self) -> Option<u32> {
        let k = &self.0;
        let per_block = u64::from(k.pages_per_block);
        let op_pages =
            u64::try_from(u128::from(k.user_pages) * u128::from(k.op_permille) / 1000).ok()?;
        let blocks = k
            .user_pages
            .checked_add(op_pages)?
            .div_ceil(per_block)
            .checked_add(u64::from(k.gc_reserve_blocks))?;
        let fits = blocks.checked_mul(per_block)? < MAX_PHYSICAL_PAGES;
        u32::try_from(blocks).ok().filter(|_| fits)
    }

    /// The rule on the FTL's knobs: page size, user pages, pages per
    /// block and the GC reserve are above zero, the page is at most
    /// 1 MiB, the SIP filter threshold is at most 1000 ‰ (a share of a
    /// block's valid pages; 1000 already never filters), and the derived
    /// device has fewer than [`u32::MAX`] physical pages (the per-page
    /// tables hold 32-bit entries). The error names the first knob that
    /// breaks it by its JSON key, after `prefix`.
    fn check(&self, prefix: &str) -> Result<(), String> {
        let k = &self.0;
        for (key, value) in [
            ("page_size_bytes", k.page_size_bytes),
            ("user_pages", k.user_pages),
            ("pages_per_block", u64::from(k.pages_per_block)),
            ("gc_reserve_blocks", u64::from(k.gc_reserve_blocks)),
        ] {
            if value == 0 {
                return Err(format!("`{prefix}{key}` must be greater than zero"));
            }
        }
        if k.page_size_bytes > MAX_PAGE_BYTES {
            return Err(format!(
                "`{prefix}page_size_bytes` of {} must be at most {MAX_PAGE_BYTES}",
                k.page_size_bytes
            ));
        }
        if k.sip_filter_threshold_permille > 1000 {
            return Err(format!(
                "`{prefix}sip_filter_threshold_permille` of {} must be at most 1000 \
                 (a share of a block's valid pages)",
                k.sip_filter_threshold_permille
            ));
        }
        if self.blocks().is_none() {
            return Err(format!(
                "`{prefix}user_pages` of {} (plus over-provisioning and the GC reserve) needs \
                 {MAX_PHYSICAL_PAGES} physical pages or more; the page tables hold 32-bit entries",
                k.user_pages
            ));
        }
        Ok(())
    }

    /// Finalizes the configuration, deriving the physical geometry.
    ///
    /// # Panics
    ///
    /// Panics if user pages, pages per block, page size, or the GC reserve
    /// is zero, if the page is larger than 1 MiB, if the SIP filter
    /// threshold is above 1000 ‰, or if the device would
    /// have [`u32::MAX`] physical pages or more (the per-page tables hold
    /// 32-bit entries).
    #[must_use]
    pub fn build(self) -> FtlConfig {
        if let Err(rule) = self.check("") {
            panic!("{rule}");
        }
        let geometry = Geometry::builder()
            .blocks(self.blocks().expect("checked"))
            .pages_per_block(self.0.pages_per_block)
            .page_size_bytes(self.0.page_size_bytes)
            .build();
        FtlConfig {
            knobs: self.0,
            geometry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips() {
        let c = FtlConfig::builder()
            .user_pages(5_000)
            .op_permille(150)
            .pages_per_block(64)
            .page_size_bytes(8_192)
            .gc_reserve_blocks(3)
            .sip_filter_threshold_permille(400)
            .wear_level_threshold(32)
            .hot_cold_streams(SimDuration::from_secs(7))
            .endurance_limit(3_000)
            .timing(NandTiming::legacy_130nm())
            .build();
        let back = FtlConfig::from_json(&c.to_json()).expect("parse");
        assert_eq!(back.user_pages(), c.user_pages());
        assert_eq!(back.geometry(), c.geometry());
        assert_eq!(back.timing(), c.timing());
        assert_eq!(back.hot_window(), c.hot_window());
        assert_eq!(back.endurance_limit(), c.endurance_limit());
        assert_eq!(
            back.sip_filter_threshold_permille(),
            c.sip_filter_threshold_permille()
        );
    }

    #[test]
    fn json_endurance_limit_optional() {
        let c = FtlConfig::builder().build();
        let back = FtlConfig::from_json(&c.to_json()).expect("parse");
        assert_eq!(back.endurance_limit(), None);
        assert!(back.fault().is_none());
    }

    #[test]
    fn json_fault_round_trips_and_is_omitted_when_absent() {
        let fault = FaultConfig {
            seed: 99,
            program_rate: 0.01,
            erase_rate: 0.02,
            read_rate: 0.005,
            wear_scale: 50,
        };
        let c = FtlConfig::builder().fault(fault).build();
        let back = FtlConfig::from_json(&c.to_json()).expect("parse");
        assert_eq!(back.fault(), Some(&fault));
        // A fault-free config's dump carries no `fault` key at all, so
        // pre-existing dumps stay byte-identical.
        let plain = FtlConfig::builder().build();
        assert!(plain.to_json().get("fault").is_none());
    }

    #[test]
    fn to_builder_preserves_every_setting() {
        let c = FtlConfig::builder()
            .user_pages(5_000)
            .op_permille(150)
            .pages_per_block(64)
            .page_size_bytes(8_192)
            .gc_reserve_blocks(3)
            .sip_filter_threshold_permille(400)
            .wear_level_threshold(32)
            .hot_cold_streams(SimDuration::from_secs(7))
            .endurance_limit(3_000)
            .fault(FaultConfig {
                seed: 5,
                program_rate: 0.1,
                erase_rate: 0.0,
                read_rate: 0.0,
                wear_scale: 100,
            })
            .timing(NandTiming::legacy_130nm())
            .build();
        let back = c.to_builder().build();
        assert_eq!(back.user_pages(), c.user_pages());
        assert_eq!(back.op_permille(), c.op_permille());
        assert_eq!(back.geometry(), c.geometry());
        assert_eq!(back.gc_reserve_blocks(), c.gc_reserve_blocks());
        assert_eq!(
            back.sip_filter_threshold_permille(),
            c.sip_filter_threshold_permille()
        );
        assert_eq!(back.wear_level_threshold(), c.wear_level_threshold());
        assert_eq!(back.hot_cold_streams(), c.hot_cold_streams());
        assert_eq!(back.hot_window(), c.hot_window());
        assert_eq!(back.endurance_limit(), c.endurance_limit());
        assert_eq!(back.fault(), c.fault());
        assert_eq!(back.timing(), c.timing());
        // One tweak, everything else intact.
        let tweaked = c.to_builder().op_permille(300).build();
        assert_eq!(tweaked.op_permille(), 300);
        assert_eq!(tweaked.endurance_limit(), c.endurance_limit());
        assert_eq!(tweaked.timing(), c.timing());
    }

    #[test]
    fn derives_geometry_with_op_and_reserve() {
        let c = FtlConfig::builder()
            .user_pages(1_000)
            .op_permille(70)
            .pages_per_block(100)
            .gc_reserve_blocks(2)
            .build();
        // 1000 user + 70 OP pages = 1070 → 11 data blocks + 2 reserve.
        assert_eq!(c.geometry().blocks(), 13);
        assert_eq!(c.op_pages(), 70);
    }

    #[test]
    fn user_capacity_in_bytes() {
        let c = FtlConfig::builder()
            .user_pages(1_000)
            .page_size_bytes(4_096)
            .build();
        assert_eq!(
            c.geometry().page_size() * c.user_pages(),
            ByteSize::bytes(4_096_000)
        );
    }

    #[test]
    fn op_capacity_scales_with_permille() {
        let a = FtlConfig::builder()
            .user_pages(10_000)
            .op_permille(70)
            .build();
        let b = FtlConfig::builder()
            .user_pages(10_000)
            .op_permille(140)
            .build();
        assert_eq!(b.op_pages(), 2 * a.op_pages());
    }

    #[test]
    fn defaults_are_sane() {
        let c = FtlConfig::builder().build();
        assert_eq!(c.user_pages(), 8_192);
        assert_eq!(c.op_permille(), 70);
        assert_eq!(c.gc_reserve_blocks(), 2);
        assert!(c.geometry().total_pages() > c.user_pages() + c.op_pages());
    }

    #[test]
    fn builder_defaults_are_pinned() {
        let explicit = FtlConfig::builder()
            .user_pages(8_192)
            .op_permille(70)
            .pages_per_block(128)
            .page_size_bytes(4_096)
            .gc_reserve_blocks(2)
            .sip_filter_threshold_permille(250)
            .wear_level_threshold(64)
            .timing(NandTiming::mlc_20nm())
            .build();
        let default = FtlConfig::builder().build();
        assert_eq!(default.to_json(), explicit.to_json());
        assert!(!default.hot_cold_streams());
        assert_eq!(default.hot_window(), SimDuration::from_secs(5));
        assert_eq!(default.endurance_limit(), None);
        assert!(default.fault().is_none());
    }

    #[test]
    fn json_rejects_a_device_too_large_for_the_page_tables() {
        let with_user_pages = |pages: u64| {
            let JsonValue::Object(mut fields) = FtlConfig::builder().build().to_json() else {
                panic!("config dumps as an object");
            };
            for (key, value) in &mut fields {
                if key == "user_pages" {
                    *value = JsonValue::from(pages);
                }
            }
            FtlConfig::from_json(&JsonValue::Object(fields))
        };
        // 2^33 used to die allocating 66 GB, 2^40 on `block count fits u32`.
        for pages in [1 << 33, 1 << 40, u64::MAX] {
            let err = with_user_pages(pages).expect_err("does not fit");
            assert!(err.to_string().contains("`ftl.user_pages`"), "{err}");
        }
        // The largest user space whose device still fits: 7 % OP, whole
        // blocks, two reserve blocks.
        let fits = with_user_pages(4_013_900_000).expect("fits");
        assert!(fits.geometry().total_pages() < MAX_PHYSICAL_PAGES);
        assert!(with_user_pages(4_014_100_000).is_err());
    }

    #[test]
    fn json_zeros_the_builder_panics_on_are_errors_naming_the_key() {
        for key in [
            "user_pages",
            "pages_per_block",
            "page_size_bytes",
            "gc_reserve_blocks",
        ] {
            let JsonValue::Object(mut fields) = FtlConfig::builder().build().to_json() else {
                panic!("config dumps as an object");
            };
            for (k, value) in &mut fields {
                if k == key {
                    *value = JsonValue::from(0u64);
                }
            }
            let err =
                FtlConfig::from_json(&JsonValue::Object(fields)).expect_err("a zero is refused");
            assert!(
                err.to_string()
                    .contains(&format!("`ftl.{key}` must be greater than zero")),
                "{err}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "needs 4294967295 physical pages or more")]
    fn oversized_device_panics_in_the_builder() {
        let _ = FtlConfig::builder().user_pages(1 << 33).build();
    }

    #[test]
    #[should_panic(expected = "`gc_reserve_blocks` must be greater than zero")]
    fn zero_reserve_panics() {
        let _ = FtlConfig::builder().gc_reserve_blocks(0).build();
    }

    #[test]
    #[should_panic(expected = "`user_pages` must be greater than zero")]
    fn zero_user_pages_panics() {
        let _ = FtlConfig::builder().user_pages(0).build();
    }

    /// The threshold is a share of a block's valid pages: 1000 ‰ (never
    /// filter) is the top, and a larger value once overflowed the SIP
    /// filter's `valid × threshold`.
    #[test]
    fn sip_threshold_is_at_most_a_whole_block() {
        let check = |permille| {
            FtlConfig::builder()
                .sip_filter_threshold_permille(permille)
                .check("ftl.")
        };
        assert_eq!(check(1000), Ok(()));
        for above in [1001, u64::MAX] {
            let err = check(above).unwrap_err();
            assert!(
                err.starts_with(&format!(
                    "`ftl.sip_filter_threshold_permille` of {above} must be at most 1000"
                )),
                "{err}"
            );
        }
    }
}
