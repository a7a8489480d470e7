//! The buffered-write demand predictor (paper Sec. 3.2.1).
//!
//! One poll, on one clock: the page cache owns the flusher's wake-up grid
//! (period and phase) and counts its dirty pages by the wake-up that
//! sees each first; [`BufferedWritePredictor::predict_into`] reads those
//! counters at a wake-up and refuses any other instant. The reference
//! the poll is held to — a walk over the dirty list — lives in
//! `tests/incremental_prediction_properties.rs`.

use jitgc_ftl::SipList;
use jitgc_pagecache::PageCache;
use jitgc_sim::{ByteSize, SimDuration, SimTime};

/// The sequence `D_buf(t) = (D¹_buf, …, D^Nwb_buf)` of per-interval upper
/// bounds on buffered write-back traffic, in bytes.
///
/// Index `i` (0-based `i-1`) covers the future write-back interval
/// `I^i_wb(t) = [t + i·p, t + (i+1)·p]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferedDemand {
    per_interval: Vec<u64>,
}

impl BufferedDemand {
    /// A zero demand over `nwb` intervals.
    #[must_use]
    pub fn zero(nwb: usize) -> Self {
        BufferedDemand {
            per_interval: vec![0; nwb],
        }
    }

    /// `D^i_buf` in bytes (`i` is 1-based as in the paper).
    ///
    /// # Panics
    ///
    /// Panics if `i` is 0 or beyond `N_wb`.
    #[must_use]
    pub fn interval(&self, i: usize) -> u64 {
        assert!(i >= 1 && i <= self.per_interval.len(), "interval index {i}");
        self.per_interval[i - 1]
    }

    /// All intervals, `D¹` first.
    #[must_use]
    pub fn as_slice(&self) -> &[u64] {
        &self.per_interval
    }

    /// Total demand over the horizon, `Σᵢ D^i_buf`.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.per_interval.iter().sum()
    }

    /// Number of intervals `N_wb`.
    #[must_use]
    pub fn horizon(&self) -> usize {
        self.per_interval.len()
    }
}

/// Predicts future buffered write-back traffic from the ages of the dirty
/// pages in the page cache (paper Sec. 3.2.1, Fig. 4).
///
/// A dirty page last updated at `u` expires at `u + τ_expire` and is
/// flushed at the first flusher wake-up at or after that instant; invoked
/// right after the wake-up at time `t`, the predictor assigns it to
/// interval `k = ⌈(u + τ_expire − t) / p⌉` (clamped to `[1, N_wb]`).
///
/// The flusher's second condition (total dirty data must exceed `τ_flush`
/// for expired pages to be written back) is deliberately **relaxed** by
/// default, exactly as in the paper: the predictor assumes every dirty
/// page flushes at expiry whether or not `τ_flush` will actually gate it.
/// The prediction therefore errs *high* by at most `τ_flush` worth of
/// pages — reserving slightly too much is cheaper than the foreground GC a
/// surprise flush would cause under an under-estimate. The strict variant
/// ([`BufferedWritePredictor::with_strict_tau_flush`]) checks the
/// condition instead and exists for the ablation bench.
///
/// The same poll produces the **SIP list**: every dirty page's logical
/// address, whose on-flash copy is about to become garbage.
///
/// # Example
///
/// ```
/// use jitgc_core::predictor::BufferedWritePredictor;
/// use jitgc_pagecache::{PageCache, PageCacheConfig};
/// use jitgc_nand::Lpn;
/// use jitgc_sim::{ByteSize, SimDuration, SimTime};
///
/// let predictor = BufferedWritePredictor::new(
///     SimDuration::from_secs(5),
///     SimDuration::from_secs(30),
///     ByteSize::kib(4),
/// );
/// let mut cache = PageCache::new(PageCacheConfig::builder().build());
/// cache.write(Lpn(1), SimTime::from_secs(1));
///
/// let (demand, sip) = predictor.predict(&cache, SimTime::from_secs(5));
/// assert_eq!(demand.interval(6), 4096); // flushes ~30 s out
/// assert!(sip.contains(Lpn(1)));
/// ```
#[derive(Debug, Clone)]
pub struct BufferedWritePredictor {
    p: SimDuration,
    tau_expire: SimDuration,
    page_size: ByteSize,
    strict_tau_flush: bool,
}

impl BufferedWritePredictor {
    /// Creates a predictor for a flusher period `p` and expiration
    /// threshold `τ_expire`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is zero or `τ_expire` is not a positive multiple of
    /// `p` (the paper assumes `τ_expire = N_wb · p`).
    #[must_use]
    pub fn new(p: SimDuration, tau_expire: SimDuration, page_size: ByteSize) -> Self {
        assert!(!p.is_zero(), "flusher period must be non-zero");
        assert!(
            !tau_expire.is_zero() && tau_expire.as_micros().is_multiple_of(p.as_micros()),
            "tau_expire must be a positive multiple of the flusher period"
        );
        BufferedWritePredictor {
            p,
            tau_expire,
            page_size,
            strict_tau_flush: false,
        }
    }

    /// Switches to the strict `τ_flush` model: when the cache's current
    /// dirty total is at or below the `τ_flush` threshold, the flusher's
    /// second condition gates every write-back, so the strict predictor
    /// forecasts zero flush traffic (ablation variant; the paper relaxes
    /// the condition instead).
    #[must_use]
    pub fn with_strict_tau_flush(mut self) -> Self {
        self.strict_tau_flush = true;
        self
    }

    /// The prediction horizon `N_wb = τ_expire / p`.
    #[must_use]
    pub fn horizon(&self) -> usize {
        self.tau_expire.div_duration(self.p) as usize
    }

    /// Polls `cache` at time `t` (right after a flusher wake-up) and
    /// returns the per-interval demand bound plus the SIP list.
    ///
    /// Equivalent to [`predict_into`](Self::predict_into) with a fresh
    /// SIP list, panics included; prefer `predict_into` on a hot path so
    /// the list's backing storage is reused across polls.
    #[must_use]
    pub fn predict(&self, cache: &PageCache, t: SimTime) -> (BufferedDemand, SipList) {
        let mut sip = SipList::new();
        let demand = self.predict_into(cache, t, &mut sip);
        (demand, sip)
    }

    /// Polls `cache` at the flusher wake-up `t`, refilling `sip` in place
    /// and returning the per-interval demand bound.
    ///
    /// The cache owns the flusher clock — wake-up `m` is at `φ + m·p`,
    /// its [`flusher_phase`](PageCache::flusher_phase) and
    /// [`flusher_period`](jitgc_pagecache::PageCacheConfig::flusher_period)
    /// — and keeps its dirty pages counted by the wake-up that sees each
    /// first, `e = ⌈(u − φ) / p⌉`. The demand is read off those counters
    /// and the SIP list is a bulk snapshot of the cache's dirty-LPN
    /// bitmap: O(distinct epochs + LPN-space words), no walk over the
    /// dirty pages. A standalone engine polls at multiples of `p`
    /// (`φ = 0`), a staggered array member at its own offset, which
    /// `SsdSystem::offset_tick_phase` hands to the cache; both read the
    /// same counters.
    ///
    /// Why the counters are exact: with `τ_expire = N_wb · p` (enforced
    /// by the constructor) and `t = φ + m·p`,
    /// `(u + τ_expire − t) / p = (u − φ) / p + N_wb − m`, and an integer
    /// moves through a ceiling, so
    /// `⌈(u + τ_expire − t) / p⌉ = e + N_wb − m` whenever the left side
    /// is positive and both sides clamp to interval 1 when it is not —
    /// pages sharing an epoch share a write-back interval. Off the grid
    /// `N_wb − (t − φ) / p` is no integer, the pages of one epoch split
    /// over two intervals, and the counters cannot say how: that poll is
    /// refused. `tests/incremental_prediction_properties.rs` holds the
    /// counters to a walk over the dirty list, over arbitrary cache
    /// histories and phases.
    ///
    /// # Panics
    ///
    /// Panics, naming both clocks, if the cache's flusher period is not
    /// this predictor's `p` or `t` is not one of the cache's wake-ups.
    #[must_use]
    pub fn predict_into(&self, cache: &PageCache, t: SimTime, sip: &mut SipList) -> BufferedDemand {
        let (t_us, p_us) = (t.as_micros(), self.p.as_micros());
        let phase_us = cache.flusher_phase().as_micros();
        assert!(
            cache.config().flusher_period() == self.p
                && t_us >= phase_us
                && (t_us - phase_us).is_multiple_of(p_us),
            "poll at {t_us} µs by a predictor of period {p_us} µs is off the cache's \
             flusher clock (period {} µs, phase {phase_us} µs)",
            cache.config().flusher_period().as_micros(),
        );
        let m = (t_us - phase_us) / p_us;

        let nwb = self.horizon();
        let mut demand = vec![0u64; nwb];
        // The SIP list always contains every dirty page — whenever it does
        // get flushed, the on-flash copy dies.
        sip.assign_words(cache.dirty_lpn_words(), cache.dirty_count() as usize);
        if !self.gated(cache) {
            let page_bytes = self.page_size.as_u64();
            for (e, n) in cache.dirty_epochs() {
                let k = (e + nwb as u64).saturating_sub(m).clamp(1, nwb as u64) as usize;
                demand[k - 1] += n * page_bytes;
            }
        }
        BufferedDemand {
            per_interval: demand,
        }
    }

    /// Strict model only: `τ_flush` currently blocks all write-back.
    fn gated(&self, cache: &PageCache) -> bool {
        self.strict_tau_flush && cache.dirty_count() <= cache.config().flush_threshold_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitgc_nand::Lpn;
    use jitgc_pagecache::PageCacheConfig;

    const MIB: u64 = 1024 * 1024;

    fn predictor() -> BufferedWritePredictor {
        BufferedWritePredictor::new(
            SimDuration::from_secs(5),
            SimDuration::from_secs(30),
            ByteSize::mib(1), // 1 MiB pages so sizes read directly in MiB
        )
    }

    fn big_cache() -> PageCache {
        PageCache::new(
            PageCacheConfig::builder()
                .capacity_pages(100_000)
                .tau_expire(SimDuration::from_secs(30))
                .tau_flush_permille(1_000) // pressure never fires
                .build(),
        )
    }

    fn write_mib(cache: &mut PageCache, start: u64, mib: u64, at_secs: u64) {
        for i in 0..mib {
            cache.write(Lpn(start + i), SimTime::from_secs(at_secs));
        }
    }

    /// The worked example of the paper's Fig. 4: writes A(20 MB)@1s,
    /// B(20 MB)@3s, C(20 MB)@6s, B′@8s, D(200 MB)@16s with p = 5 s and
    /// τ_expire = 30 s.
    #[test]
    fn paper_fig4_example() {
        let pred = predictor();
        let mut cache = big_cache();

        // Distinct LPN ranges per request: A=0.., B=100.., C=200.., D=300...
        write_mib(&mut cache, 0, 20, 1); // A
        write_mib(&mut cache, 100, 20, 3); // B

        // D_buf(5) = (0, 0, 0, 0, 0, 40)
        let (d5, sip5) = pred.predict(&cache, SimTime::from_secs(5));
        assert_eq!(
            d5.as_slice(),
            &[0, 0, 0, 0, 0, 40 * MIB],
            "D_buf(5) mismatch"
        );
        assert_eq!(sip5.len(), 40);

        write_mib(&mut cache, 200, 20, 6); // C
        write_mib(&mut cache, 100, 20, 8); // B′ (update resets B's age)

        // D_buf(10) = (0, 0, 0, 0, 20, 40)
        let (d10, _) = pred.predict(&cache, SimTime::from_secs(10));
        assert_eq!(
            d10.as_slice(),
            &[0, 0, 0, 0, 20 * MIB, 40 * MIB],
            "D_buf(10) mismatch: B′ delayed B, C joins it in I⁶"
        );

        write_mib(&mut cache, 300, 200, 16); // D

        // D_buf(20) = (0, 0, 20, 40, 0, 200)
        let (d20, sip20) = pred.predict(&cache, SimTime::from_secs(20));
        assert_eq!(
            d20.as_slice(),
            &[0, 0, 20 * MIB, 40 * MIB, 0, 200 * MIB],
            "D_buf(20) mismatch"
        );
        assert_eq!(sip20.len(), 20 + 20 + 20 + 200);
        assert_eq!(d20.total(), 260 * MIB);
    }

    #[test]
    fn already_expired_pages_land_in_interval_one() {
        let pred = predictor();
        let mut cache = big_cache();
        cache.write(Lpn(0), SimTime::from_secs(0));
        // At t = 40 the page expired at 30; it will flush at the next
        // wake-up, i.e. interval 1. (In the real pipeline the flusher at
        // t = 40 would already have taken it; this covers the boundary.)
        let (d, _) = pred.predict(&cache, SimTime::from_secs(40));
        assert_eq!(d.interval(1), MIB);
        assert_eq!(d.total(), MIB);
    }

    #[test]
    fn page_written_now_lands_in_last_interval() {
        let pred = predictor();
        let mut cache = big_cache();
        cache.write(Lpn(0), SimTime::from_secs(10));
        let (d, _) = pred.predict(&cache, SimTime::from_secs(10));
        assert_eq!(d.interval(6), MIB);
    }

    #[test]
    fn empty_cache_predicts_zero() {
        let pred = predictor();
        let cache = big_cache();
        let (d, sip) = pred.predict(&cache, SimTime::from_secs(5));
        assert_eq!(d.total(), 0);
        assert!(sip.is_empty());
        assert_eq!(d.horizon(), 6);
    }

    #[test]
    fn strict_variant_respects_tau_flush_gate() {
        // Threshold 2 pages (capacity 20, 10 %): with 2 dirty pages the
        // flusher's second condition blocks all write-back, so the strict
        // predictor forecasts nothing while the relaxed one forecasts the
        // expiry-time flush.
        let cache_cfg = PageCacheConfig::builder()
            .capacity_pages(20)
            .tau_expire(SimDuration::from_secs(30))
            .tau_flush_permille(100)
            .build();
        let mut cache = PageCache::new(cache_cfg);
        cache.write(Lpn(0), SimTime::from_secs(10));
        cache.write(Lpn(1), SimTime::from_secs(10));
        let relaxed = predictor();
        let strict = predictor().with_strict_tau_flush();
        let t = SimTime::from_secs(10);
        let (dr, sip_r) = relaxed.predict(&cache, t);
        let (ds, sip_s) = strict.predict(&cache, t);
        assert_eq!(dr.interval(6), 2 * MIB);
        assert_eq!(ds.total(), 0, "strict model sees the τ_flush gate");
        // The relaxed over-prediction is bounded by the threshold.
        assert!(dr.total() - ds.total() <= 2 * MIB);
        // Both still report the full SIP list.
        assert_eq!(sip_r.len(), 2);
        assert_eq!(sip_s.len(), 2);
    }

    #[test]
    fn strict_variant_predicts_once_over_threshold() {
        // Above the threshold the gate is open: both variants agree.
        let cache_cfg = PageCacheConfig::builder()
            .capacity_pages(20)
            .tau_expire(SimDuration::from_secs(30))
            .tau_flush_permille(100) // threshold 2
            .build();
        let mut cache = PageCache::new(cache_cfg);
        for i in 0..5u64 {
            cache.write(Lpn(i), SimTime::from_secs(10));
        }
        let relaxed = predictor();
        let strict = predictor().with_strict_tau_flush();
        let t = SimTime::from_secs(10);
        let (dr, _) = relaxed.predict(&cache, t);
        let (ds, _) = strict.predict(&cache, t);
        assert_eq!(dr, ds);
        assert_eq!(ds.interval(6), 5 * MIB);
    }

    #[test]
    #[should_panic(
        expected = "poll at 5000000 µs by a predictor of period 5000000 µs is off the cache's \
                    flusher clock (period 5000000 µs, phase 2000000 µs)"
    )]
    fn off_grid_poll_is_refused_naming_both_clocks() {
        let pred = predictor();
        let mut cache = big_cache();
        cache.set_flusher_phase(SimDuration::from_secs(2));
        write_mib(&mut cache, 0, 10, 2);
        // The cache wakes at 2 s, 7 s, 12 s…: its epochs cannot answer a
        // poll at 5 s, and the scan is not silently run in its place.
        let _ = pred.predict(&cache, SimTime::from_secs(5));
    }

    #[test]
    #[should_panic(
        expected = "poll at 15000000 µs by a predictor of period 5000000 µs is off the cache's \
                    flusher clock (period 3000000 µs, phase 0 µs)"
    )]
    fn poll_of_a_cache_on_another_period_is_refused_naming_both_clocks() {
        let pred = predictor(); // p = 5 s
        let mut cache = PageCache::new(
            PageCacheConfig::builder()
                .capacity_pages(1_000)
                .tau_expire(SimDuration::from_secs(30))
                .tau_flush_permille(1_000)
                .flusher_period(SimDuration::from_secs(3)) // ≠ p
                .build(),
        );
        cache.write(Lpn(0), SimTime::from_secs(1));
        // 15 s is a wake-up of both clocks; the periods still disagree on
        // what an epoch is.
        let _ = pred.predict(&cache, SimTime::from_secs(15));
    }

    #[test]
    fn predict_into_reuses_the_sip_list() {
        let pred = predictor();
        let mut cache = big_cache();
        cache.write(Lpn(7), SimTime::from_secs(1));
        let mut sip = SipList::new();
        sip.insert(Lpn(999));
        let _ = pred.predict_into(&cache, SimTime::from_secs(5), &mut sip);
        assert_eq!(sip.len(), 1);
        assert!(sip.contains(Lpn(7)));
        assert!(!sip.contains(Lpn(999)), "stale entry survived the refill");
    }

    #[test]
    #[should_panic(expected = "multiple of the flusher period")]
    fn non_multiple_tau_expire_panics() {
        let _ = BufferedWritePredictor::new(
            SimDuration::from_secs(7),
            SimDuration::from_secs(30),
            ByteSize::kib(4),
        );
    }

    #[test]
    #[should_panic(expected = "interval index 0")]
    fn interval_zero_panics() {
        let d = BufferedDemand::zero(6);
        let _ = d.interval(0);
    }

    #[test]
    fn demand_accessors() {
        let d = BufferedDemand::zero(4);
        assert_eq!(d.horizon(), 4);
        assert_eq!(d.total(), 0);
        assert_eq!(d.as_slice(), &[0, 0, 0, 0]);
    }
}
