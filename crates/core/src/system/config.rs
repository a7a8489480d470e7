//! System-level configuration.

use jitgc_ftl::{
    CostBenefitSelector, FifoSelector, FtlConfig, GreedySelector, RandomSelector, VictimSelector,
};
use jitgc_nand::NandTiming;
use jitgc_pagecache::PageCacheConfig;
use jitgc_sim::json::{JsonError, JsonValue, ObjectBuilder};
use jitgc_sim::{ByteSize, SimDuration};

use super::ClosedLoop;

/// Where the JIT-GC manager runs (paper Fig. 3).
///
/// The paper's *ideal* implementation (Fig. 3(a)) executes the manager in
/// the SSD controller, so only predictor output crosses the host
/// interface. Practical constraints forced the *actual* implementation
/// (Fig. 3(b)) to run the manager in the host and drive the SSD with
/// explicit commands over `SG_IO`, paying ~160 µs per exchange. The
/// placement changes only that interface cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ManagerPlacement {
    /// Fig. 3(b): manager in the host kernel; each tick pays the
    /// configured per-command overhead for the demand/SIP/C_free/BGC
    /// exchanges. This is the paper's measured configuration and the
    /// default.
    Host,
    /// Fig. 3(a): manager inside the SSD controller; no interface cost.
    Device,
}

/// Which victim-selection policy the FTL uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VictimKind {
    /// Fewest valid pages first (default).
    Greedy,
    /// Age-weighted cost-benefit.
    CostBenefit,
    /// Least recently written.
    Fifo,
    /// Uniform random with the given seed (worst-case baseline).
    Random(u64),
}

impl VictimKind {
    /// Instantiates the selector.
    #[must_use]
    pub fn build(self) -> Box<dyn VictimSelector> {
        match self {
            VictimKind::Greedy => Box::new(GreedySelector),
            VictimKind::CostBenefit => Box::new(CostBenefitSelector),
            VictimKind::Fifo => Box::new(FifoSelector),
            VictimKind::Random(seed) => Box::new(RandomSelector::new(seed)),
        }
    }

    /// The name of a seedless selector: its `--victim` value and its JSON
    /// form. `None` for [`Random`](VictimKind::Random), whose forms carry
    /// the seed (`random:<seed>` on the CLI, `{"random": <seed>}` in JSON).
    #[must_use]
    pub fn name(self) -> Option<&'static str> {
        match self {
            VictimKind::Greedy => Some("greedy"),
            VictimKind::CostBenefit => Some("cost-benefit"),
            VictimKind::Fifo => Some("fifo"),
            VictimKind::Random(_) => None,
        }
    }

    /// The seedless selector a [`name`](Self::name) names.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        [
            VictimKind::Greedy,
            VictimKind::CostBenefit,
            VictimKind::Fifo,
        ]
        .into_iter()
        .find(|kind| kind.name() == Some(name))
    }

    /// Serializes to the repository's JSON config format.
    #[must_use]
    pub fn to_json(self) -> JsonValue {
        match self {
            VictimKind::Random(seed) => ObjectBuilder::new()
                .field("random", JsonValue::U64(seed))
                .build(),
            _ => JsonValue::from(self.name().expect("a seedless selector has a name")),
        }
    }

    /// Parses the format written by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] for unknown policy names.
    pub fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        if let Some(name) = v.as_str() {
            return VictimKind::from_name(name)
                .ok_or_else(|| JsonError::new(format!("unknown victim policy `{name}`")));
        }
        Ok(VictimKind::Random(v.req_u64("random")?))
    }
}

/// Full configuration of an [`SsdSystem`](crate::system::SsdSystem).
///
/// Serializable, so whole experiment setups can be stored and replayed
/// (`ssdsim --config setup.json`).
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// FTL / device configuration.
    pub ftl: FtlConfig,
    /// Page cache configuration (its `τ_expire` is the prediction horizon).
    pub cache: PageCacheConfig,
    /// Flusher-thread period `p` (paper default 5 s).
    pub flusher_period: SimDuration,
    /// Host-side time for a page-cache hit or absorbed buffered write.
    pub cache_op_time: SimDuration,
    /// Per-command overhead of the extended host interface (the paper
    /// measured 160 µs per SG_IO exchange).
    pub host_command_overhead: SimDuration,
    /// CDH coverage target for the direct-write predictor (paper: 0.8).
    pub cdh_percentile: f64,
    /// CDH bin width in bytes.
    pub cdh_bin_bytes: u64,
    /// Victim-selection policy.
    pub victim: VictimKind,
    /// Where the JIT-GC manager runs (paper Fig. 3); determines whether
    /// ticks pay the host-interface overhead.
    pub manager_placement: ManagerPlacement,
    /// Number of concurrent application threads (closed-loop streams).
    /// Requests are dealt round-robin; each thread issues its next request
    /// a think-time after its own previous completion, all sharing the one
    /// device queue. Higher depths raise utilization and make every
    /// foreground-GC stall block more work. At most
    /// [`ClosedLoop::MAX_THREADS`].
    pub queue_depth: u32,
    /// Use the strict `τ_flush` model in the buffered predictor
    /// (ablation; the paper relaxes it).
    pub strict_tau_flush: bool,
    /// Run static wear leveling during ticks (extension beyond the paper).
    pub wear_leveling: bool,
    /// Age the device before measuring: write the workload's whole working
    /// set once (in scrambled order) and reset counters. A 2015-era SSD
    /// without TRIM converges to this state — every LBA ever written stays
    /// valid — and it is what makes `C_resv` sizing matter.
    pub prefill: bool,
    /// Record one [`IntervalSample`](crate::system::IntervalSample) per
    /// write-back interval into the report's `timeline` (costs memory
    /// proportional to the run length; off by default).
    pub record_timeline: bool,
}

impl SystemConfig {
    /// A small configuration for unit/integration tests: 2 048 user pages
    /// (8 MiB at 4 KiB), 7 % OP, 64-page blocks, a 2 048-page cache on a
    /// 5 s flusher, 64 KiB CDH bins and no aging; every other knob is
    /// [`default_sim`](Self::default_sim)'s.
    #[must_use]
    pub fn small_for_tests() -> Self {
        let ftl = FtlConfig::builder()
            .user_pages(2_048)
            .op_permille(70)
            .pages_per_block(64)
            .page_size_bytes(4_096)
            .gc_reserve_blocks(2)
            .build();
        let cache = PageCacheConfig::builder()
            .capacity_pages(2_048)
            .tau_expire(SimDuration::from_secs(30))
            .tau_flush_permille(250)
            .flusher_period(SimDuration::from_secs(5))
            .build();
        SystemConfig {
            ftl,
            cache,
            flusher_period: SimDuration::from_secs(5),
            cdh_bin_bytes: 64 * 1024,
            prefill: false,
            ..Self::default_sim()
        }
    }

    /// The benchmark-scale configuration used by the experiment harness:
    /// 24 576 user pages (96 MiB at 4 KiB), 7 % OP like the SM843T,
    /// 128-page blocks, 8 192-page cache.
    ///
    /// **Scale model.** The device is ~2 500× smaller than the paper's
    /// 240 GB SM843T but just as fast, so the host-side write-back
    /// constants are scaled down 10× to preserve the paper's governing
    /// ratios: `p = 500 ms`, `τ_expire = 3 s` (`N_wb = 6` exactly as with
    /// the paper's 5 s/30 s), keeping one write-back window's worth of write
    /// traffic small relative to `C_OP` — on the SM843T a 30 s window is
    /// ~10 % of `C_OP`; at simulator scale a 3 s window preserves that
    /// relationship. DESIGN.md documents this substitution.
    #[must_use]
    pub fn default_sim() -> Self {
        let ftl = FtlConfig::builder()
            .user_pages(24_576)
            .op_permille(70)
            .pages_per_block(128)
            .page_size_bytes(4_096)
            .gc_reserve_blocks(2)
            .build();
        let cache = PageCacheConfig::builder()
            .capacity_pages(8_192)
            .tau_expire(SimDuration::from_secs(3))
            .tau_flush_permille(100)
            .flusher_period(SimDuration::from_millis(500))
            .build();
        SystemConfig {
            ftl,
            cache,
            flusher_period: SimDuration::from_millis(500),
            cache_op_time: SimDuration::from_micros(2),
            host_command_overhead: SimDuration::from_micros(160),
            cdh_percentile: 0.8,
            cdh_bin_bytes: 256 * 1024,
            victim: VictimKind::Greedy,
            manager_placement: ManagerPlacement::Host,
            queue_depth: 1,
            strict_tau_flush: false,
            wear_leveling: false,
            prefill: true,
            record_timeline: false,
        }
    }

    /// The prediction horizon `τ_expire` (taken from the cache config).
    #[must_use]
    pub fn tau_expire(&self) -> SimDuration {
        self.cache.tau_expire()
    }

    /// The horizon in intervals, `N_wb = τ_expire / p`.
    #[must_use]
    pub fn nwb(&self) -> usize {
        self.tau_expire().div_duration(self.flusher_period) as usize
    }

    /// Initial `(B_w, B_gc)` bandwidth estimates in bytes/second, derived
    /// from the NAND timing model: `B_w` is the sustained program
    /// bandwidth; `B_gc` assumes half-valid victims (each reclaimed page
    /// costs one migration plus its share of the erase).
    #[must_use]
    pub fn default_bandwidths(&self) -> (f64, f64) {
        let timing = self.ftl.timing();
        let page = self.ftl.geometry().page_size();
        let bw = timing.program_bandwidth(page);
        let ppb = u64::from(self.ftl.geometry().pages_per_block());
        let freed = (ppb / 2).max(1);
        let gc_time =
            timing.page_migrate_cost().saturating_mul(ppb / 2) + timing.block_erase_cost();
        let gc_bw = (page.as_u64() * freed) as f64 / gc_time.as_secs_f64();
        (bw, gc_bw)
    }

    /// The over-provisioning capacity `C_OP` in bytes.
    #[must_use]
    pub fn op_capacity(&self) -> ByteSize {
        self.ftl.op_capacity()
    }

    /// The standard experiment working set in pages: the logical space
    /// minus half the over-provisioning, `C_user − 0.5 × C_OP`. Leaving
    /// exactly `0.5 × C_OP` untouched puts the paper's A-BGC
    /// (`C_resv = 1.5 × C_OP`) right on its own feasibility bound
    /// `C_resv ≤ C_unused + C_OP`. This is the one definition every
    /// driver, bench, test and example sizes its workload with.
    ///
    /// # Errors
    ///
    /// Over-provisioning of 200 % of the user capacity or more leaves no
    /// working set; the message states the page counts.
    pub fn standard_working_set(&self) -> Result<u64, String> {
        let user = self.ftl.user_pages();
        match user.checked_sub(self.ftl.op_pages() / 2) {
            Some(pages) if pages > 0 => Ok(pages),
            _ => Err(format!(
                "over-provisioning of {} pages leaves no working set on {user} user pages \
                 (the standard working set is user − OP/2, so OP must stay below 200 %)",
                self.ftl.op_pages()
            )),
        }
    }

    /// Serializes to the repository's JSON config format
    /// (`ssdsim --dump-config`).
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        ObjectBuilder::new()
            .field("ftl", self.ftl.to_json())
            .field("cache", self.cache.to_json())
            .field("flusher_period_us", self.flusher_period.as_micros())
            .field("cache_op_time_us", self.cache_op_time.as_micros())
            .field(
                "host_command_overhead_us",
                self.host_command_overhead.as_micros(),
            )
            .field("cdh_percentile", self.cdh_percentile)
            .field("cdh_bin_bytes", self.cdh_bin_bytes)
            .field("victim", self.victim.to_json())
            .field(
                "manager_placement",
                match self.manager_placement {
                    ManagerPlacement::Host => "host",
                    ManagerPlacement::Device => "device",
                },
            )
            .field("queue_depth", self.queue_depth)
            .field("strict_tau_flush", self.strict_tau_flush)
            .field("wear_leveling", self.wear_leveling)
            .field("prefill", self.prefill)
            .field("record_timeline", self.record_timeline)
            .build()
    }

    /// Checks the system-level range rules, naming the offending key as
    /// a `--config` file spells it. `from_json` applies them to every
    /// file; `ServiceConfig::validate` and `ArrayConfig::validate` apply
    /// them to configurations built in code.
    ///
    /// The flusher clock must tick: `flusher_period_us` above zero,
    /// `cache.tau_expire_us` a positive multiple of it (the paper's
    /// `τ_expire = N_wb · p`) and `cache.flusher_period_us` equal to it
    /// (the cache's flusher and the engine's tick are one clock). The
    /// direct-write predictor needs `cdh_percentile` in `(0, 1]` and a
    /// `cdh_bin_bytes` above zero, and `queue_depth` obeys
    /// [`ClosedLoop::check_threads`]. No operation, host-side
    /// (`cache_op_time_us`, `host_command_overhead_us`) or NAND
    /// ([`NandTiming::check`]), takes more than
    /// [`NandTiming::MAX_OP_TIME`].
    ///
    /// # Errors
    ///
    /// Returns the first broken rule's message.
    pub fn validate(&self) -> Result<(), String> {
        let p_us = Self::check_flusher_period(self.flusher_period)?.as_micros();
        let tau_us = self.tau_expire().as_micros();
        if !tau_us.is_multiple_of(p_us) {
            return Err(format!(
                "`cache.tau_expire_us` of {tau_us} must be a positive multiple of \
                 `flusher_period_us` ({p_us})"
            ));
        }
        let cache_p_us = self.cache.flusher_period().as_micros();
        if cache_p_us != p_us {
            return Err(format!(
                "`cache.flusher_period_us` of {cache_p_us} must equal `flusher_period_us` \
                 ({p_us}): the cache's flusher and the engine's tick share one clock"
            ));
        }
        let percentile = self.cdh_percentile;
        if !(percentile > 0.0 && percentile <= 1.0) {
            return Err(format!(
                "`cdh_percentile` of {percentile} must be in (0, 1]"
            ));
        }
        if self.cdh_bin_bytes == 0 {
            return Err("`cdh_bin_bytes` must be greater than zero".into());
        }
        ClosedLoop::check_threads(self.queue_depth.into())
            .map_err(|rule| format!("`queue_depth` {rule}"))?;
        for (key, time) in [
            ("cache_op_time_us", self.cache_op_time),
            ("host_command_overhead_us", self.host_command_overhead),
        ] {
            if time > NandTiming::MAX_OP_TIME {
                return Err(format!(
                    "`{key}` of {} must be at most {} (one second per operation)",
                    time.as_micros(),
                    NandTiming::MAX_OP_TIME.as_micros()
                ));
            }
        }
        self.ftl.timing().check()
    }

    /// The first rule of [`validate`](Self::validate): a flusher that
    /// never waits cannot tick.
    fn check_flusher_period(p: SimDuration) -> Result<SimDuration, String> {
        if p.is_zero() {
            Err("`flusher_period_us` must be greater than zero".into())
        } else {
            Ok(p)
        }
    }

    /// Parses the format written by [`to_json`](Self::to_json)
    /// (`ssdsim --config`): every key is read by type, then the whole
    /// configuration passes [`validate`](Self::validate), and the file
    /// holds no key its own dump would not write, nor one key twice in
    /// an object. A `cache` without `flusher_period_us` (files older than
    /// the field) takes the top-level `flusher_period_us`, and a `fault`
    /// of `null` is a fault-free device.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on missing or mistyped fields, on the cache
    /// and FTL rules of [`PageCacheConfig::from_json`] and
    /// [`FtlConfig::from_json`], on a broken [`validate`](Self::validate)
    /// rule, and on an unknown or repeated key, named by its dotted path.
    pub fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        let manager_placement = match v.req("manager_placement")?.as_str() {
            Some("host") => ManagerPlacement::Host,
            Some("device") => ManagerPlacement::Device,
            _ => return Err(JsonError::new("`manager_placement` must be host|device")),
        };
        // Checked before the cache is built: a cache without its own
        // period takes this one, and no cache runs on a zero period.
        let flusher_period =
            Self::check_flusher_period(SimDuration::from_micros(v.req_u64("flusher_period_us")?))
                .map_err(JsonError::new)?;
        let config = SystemConfig {
            ftl: FtlConfig::from_json(v.req("ftl")?)?,
            cache: PageCacheConfig::from_json(v.req("cache")?, flusher_period)?,
            flusher_period,
            cache_op_time: SimDuration::from_micros(v.req_u64("cache_op_time_us")?),
            host_command_overhead: SimDuration::from_micros(v.req_u64("host_command_overhead_us")?),
            cdh_percentile: v.req_f64("cdh_percentile")?,
            cdh_bin_bytes: v.req_u64("cdh_bin_bytes")?,
            victim: VictimKind::from_json(v.req("victim")?)?,
            manager_placement,
            queue_depth: u32::try_from(v.req_u64("queue_depth")?)
                .map_err(|_| JsonError::new("`queue_depth` must be an integer"))?,
            strict_tau_flush: v.req_bool("strict_tau_flush")?,
            wear_leveling: v.req_bool("wear_leveling")?,
            prefill: v.req_bool("prefill")?,
            record_timeline: v.req_bool("record_timeline")?,
        };
        config.validate().map_err(JsonError::new)?;
        check_keys(v, &config.to_json(), "")?;
        Ok(config)
    }
}

/// Holds `given`, a configuration file's object at dotted `path`, to
/// `written`, the dump of the configuration it parsed into: each of its
/// keys once, and none the dump lacks. A misspelt key would otherwise be
/// ignored and a repeated one read at its first place.
fn check_keys(given: &JsonValue, written: &JsonValue, path: &str) -> Result<(), JsonError> {
    let JsonValue::Object(fields) = given else {
        return Ok(());
    };
    for (i, (key, value)) in fields.iter().enumerate() {
        let dotted = format!("{path}{key}");
        if fields[..i].iter().any(|(k, _)| k == key) {
            return Err(JsonError::new(format!("`{dotted}` given twice")));
        }
        match written.get(key) {
            Some(written) => check_keys(value, written, &format!("{dotted}."))?,
            // A fault-free device dumps no `fault` section.
            None if dotted == "ftl.fault" && value.is_null() => {}
            None => return Err(JsonError::new(format!("unknown key `{dotted}`"))),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_coherent() {
        for cfg in [SystemConfig::small_for_tests(), SystemConfig::default_sim()] {
            assert_eq!(cfg.nwb(), 6);
            assert!(cfg.ftl.op_pages() < cfg.ftl.user_pages());
            let (bw, gc_bw) = cfg.default_bandwidths();
            assert!(bw > 0.0 && gc_bw > 0.0);
            assert!(gc_bw < bw, "GC reclaims slower than plain writes");
        }
    }

    #[test]
    fn standard_working_set_is_user_minus_half_op_and_checked() {
        for (cfg, pages) in [
            (SystemConfig::small_for_tests(), 2_048 - 143 / 2),
            (SystemConfig::default_sim(), 24_576 - 1_720 / 2),
        ] {
            assert_eq!(cfg.standard_working_set(), Ok(pages));
        }
        let with_op = |permille| {
            let mut cfg = SystemConfig::small_for_tests();
            cfg.ftl = cfg.ftl.to_builder().op_permille(permille).build();
            cfg.standard_working_set()
        };
        assert_eq!(with_op(1_999), Ok(2_048 - 4_093 / 2));
        // 200 % leaves exactly nothing, anything above would underflow.
        for permille in [2_000, 2_001, 5_000] {
            let err = with_op(permille).unwrap_err();
            assert!(err.contains("leaves no working set"), "{err}");
        }
    }

    #[test]
    fn victim_kinds_build() {
        for kind in [
            VictimKind::Greedy,
            VictimKind::CostBenefit,
            VictimKind::Fifo,
            VictimKind::Random(1),
        ] {
            let sel = kind.build();
            assert!(!sel.name().is_empty());
        }
    }

    #[test]
    fn json_round_trips() {
        let mut cfg = SystemConfig::default_sim();
        cfg.victim = VictimKind::Random(99);
        cfg.manager_placement = ManagerPlacement::Device;
        cfg.queue_depth = 4;
        cfg.strict_tau_flush = true;
        let back = SystemConfig::from_json(&cfg.to_json()).expect("parse");
        assert_eq!(back.ftl.user_pages(), cfg.ftl.user_pages());
        assert_eq!(back.ftl.geometry(), cfg.ftl.geometry());
        assert_eq!(back.cache, cfg.cache);
        assert_eq!(back.flusher_period, cfg.flusher_period);
        assert_eq!(back.victim, cfg.victim);
        assert_eq!(back.manager_placement, cfg.manager_placement);
        assert_eq!(back.queue_depth, cfg.queue_depth);
        assert_eq!(back.strict_tau_flush, cfg.strict_tau_flush);
        assert_eq!(back.prefill, cfg.prefill);
        // Text form round-trips through the parser too.
        let reparsed = jitgc_sim::json::JsonValue::parse(&cfg.to_json().to_pretty()).unwrap();
        assert_eq!(
            SystemConfig::from_json(&reparsed).unwrap().cdh_bin_bytes,
            cfg.cdh_bin_bytes
        );
    }

    #[test]
    fn victim_kind_json_forms() {
        for kind in [
            VictimKind::Greedy,
            VictimKind::CostBenefit,
            VictimKind::Fifo,
            VictimKind::Random(7),
        ] {
            assert_eq!(VictimKind::from_json(&kind.to_json()).unwrap(), kind);
            if let Some(name) = kind.name() {
                assert_eq!(VictimKind::from_name(name), Some(kind));
            }
        }
        assert_eq!(VictimKind::Random(7).name(), None);
        assert_eq!(VictimKind::from_name("lru"), None);
        assert!(VictimKind::from_json(&JsonValue::from("lru")).is_err());
    }

    #[test]
    fn tau_expire_comes_from_cache() {
        let cfg = SystemConfig::small_for_tests();
        assert_eq!(cfg.tau_expire(), cfg.cache.tau_expire());
    }
}
