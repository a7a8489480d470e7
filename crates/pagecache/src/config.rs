//! Page cache configuration.

use jitgc_sim::json::{JsonError, JsonValue, ObjectBuilder};
use jitgc_sim::SimDuration;

/// Static configuration of a [`PageCache`](crate::PageCache).
///
/// # Example
///
/// ```
/// use jitgc_pagecache::PageCacheConfig;
/// use jitgc_sim::SimDuration;
///
/// let config = PageCacheConfig::builder()
///     .capacity_pages(2048)
///     .tau_expire(SimDuration::from_secs(30))
///     .tau_flush_permille(100) // flush pressure above 10 % dirty
///     .build();
/// assert_eq!(config.flush_threshold_pages(), 204);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageCacheConfig {
    capacity_pages: u64,
    tau_expire: SimDuration,
    tau_flush_permille: u64,
    throttle_permille: u64,
    flusher_period: SimDuration,
}

impl PageCacheConfig {
    /// Starts building a configuration. See [`PageCacheConfigBuilder`].
    #[must_use]
    pub fn builder() -> PageCacheConfigBuilder {
        PageCacheConfigBuilder::default()
    }

    /// Maximum number of pages the cache holds.
    #[must_use]
    pub fn capacity_pages(&self) -> u64 {
        self.capacity_pages
    }

    /// Dirty-age expiration threshold `τ_expire`.
    #[must_use]
    pub fn tau_expire(&self) -> SimDuration {
        self.tau_expire
    }

    /// Dirty-pressure threshold in permille of capacity.
    #[must_use]
    pub fn tau_flush_permille(&self) -> u64 {
        self.tau_flush_permille
    }

    /// The dirty-page count that makes expired pages eligible for
    /// write-back (the flusher's second condition).
    #[must_use]
    pub fn flush_threshold_pages(&self) -> u64 {
        permille_of(self.capacity_pages, self.tau_flush_permille)
    }

    /// Hard dirty limit in permille of capacity (Linux's `dirty_ratio`).
    #[must_use]
    pub fn throttle_permille(&self) -> u64 {
        self.throttle_permille
    }

    /// The dirty-page count above which buffered writers are throttled:
    /// they must perform write-back themselves, synchronously — Linux's
    /// `balance_dirty_pages`. This is the mechanism that turns a
    /// GC-stalled flush path into application-visible stalls.
    #[must_use]
    pub fn throttle_threshold_pages(&self) -> u64 {
        permille_of(self.capacity_pages, self.throttle_permille)
    }

    /// The flusher wake-up period `p`: with the cache's
    /// [`flusher_phase`](crate::PageCache::flusher_phase) it is the grid
    /// the cache buckets dirty pages on for the predictor's demand
    /// counters. A predictor of another period cannot read those
    /// counters and refuses to poll the cache.
    #[must_use]
    pub fn flusher_period(&self) -> SimDuration {
        self.flusher_period
    }

    /// Serializes to the repository's JSON config format.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        ObjectBuilder::new()
            .field("capacity_pages", self.capacity_pages)
            .field("tau_expire_us", self.tau_expire.as_micros())
            .field("tau_flush_permille", self.tau_flush_permille)
            .field("throttle_permille", self.throttle_permille)
            .field("flusher_period_us", self.flusher_period.as_micros())
            .build()
    }

    /// Parses the format written by [`to_json`](Self::to_json).
    ///
    /// `flusher_period_us` may be absent (files older than the field);
    /// the cache then takes `flusher_period`, the clock of the system
    /// that embeds it. Whether a present one agrees with that clock is
    /// the system's rule, not the cache's.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on missing or mistyped fields, and on
    /// values [`build`](PageCacheConfigBuilder::build) would panic on,
    /// named by their path in a system configuration (`cache.…`).
    pub fn from_json(v: &JsonValue, flusher_period: SimDuration) -> Result<Self, JsonError> {
        let flusher_period = match v.get("flusher_period_us") {
            Some(_) => SimDuration::from_micros(v.req_u64("flusher_period_us")?),
            None => flusher_period,
        };
        let builder = PageCacheConfig::builder()
            .capacity_pages(v.req_u64("capacity_pages")?)
            .tau_expire(SimDuration::from_micros(v.req_u64("tau_expire_us")?))
            .tau_flush_permille(v.req_u64("tau_flush_permille")?)
            .throttle_permille(v.req_u64("throttle_permille")?)
            .flusher_period(flusher_period);
        builder.check("cache.").map_err(JsonError::new)?;
        Ok(builder.build())
    }
}

/// `permille`/1000 of `pages`, without overflow: a threshold above 1000 ‰
/// is one the cache never reaches, however large.
fn permille_of(pages: u64, permille: u64) -> u64 {
    u64::try_from(u128::from(pages) * u128::from(permille) / 1000).unwrap_or(u64::MAX)
}

impl Default for PageCacheConfig {
    /// A Linux desktop's: 2 048 pages capacity, `τ_expire` 30 s, `τ_flush`
    /// 10 % and the hard dirty limit 20 % of capacity, flusher period 5 s.
    fn default() -> Self {
        PageCacheConfig {
            capacity_pages: 2_048,
            tau_expire: SimDuration::from_secs(30),
            tau_flush_permille: 100,
            throttle_permille: 200,
            flusher_period: SimDuration::from_secs(5),
        }
    }
}

/// Builder for [`PageCacheConfig`], starting from
/// [`PageCacheConfig::default`].
#[derive(Debug, Clone, Default)]
pub struct PageCacheConfigBuilder(PageCacheConfig);

impl PageCacheConfigBuilder {
    /// Sets the cache capacity in pages.
    #[must_use]
    pub fn capacity_pages(mut self, pages: u64) -> Self {
        self.0.capacity_pages = pages;
        self
    }

    /// Sets the dirty-age expiration threshold.
    #[must_use]
    pub fn tau_expire(mut self, tau: SimDuration) -> Self {
        self.0.tau_expire = tau;
        self
    }

    /// Sets the dirty-pressure threshold in permille of capacity.
    #[must_use]
    pub fn tau_flush_permille(mut self, permille: u64) -> Self {
        self.0.tau_flush_permille = permille;
        self
    }

    /// Sets the hard dirty limit (writer throttling) in permille of
    /// capacity (Linux `dirty_ratio`; default 200 = 20 %).
    #[must_use]
    pub fn throttle_permille(mut self, permille: u64) -> Self {
        self.0.throttle_permille = permille;
        self
    }

    /// Sets the flusher wake-up period `p` used to bucket dirty pages by
    /// age (default 5 s, the paper's Linux default).
    #[must_use]
    pub fn flusher_period(mut self, p: SimDuration) -> Self {
        self.0.flusher_period = p;
        self
    }

    /// The rule on the cache's knobs: capacity, `τ_expire` and the
    /// flusher period are above zero (a zero `τ_expire` means no
    /// caching). The error names the first knob that breaks it by its
    /// JSON key, after `prefix`.
    fn check(&self, prefix: &str) -> Result<(), String> {
        let c = &self.0;
        for (key, value) in [
            ("capacity_pages", c.capacity_pages),
            ("tau_expire_us", c.tau_expire.as_micros()),
            ("flusher_period_us", c.flusher_period.as_micros()),
        ] {
            if value == 0 {
                return Err(format!("`{prefix}{key}` must be greater than zero"));
            }
        }
        Ok(())
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the capacity, `τ_expire` or the flusher period is zero.
    #[must_use]
    pub fn build(self) -> PageCacheConfig {
        if let Err(rule) = self.check("") {
            panic!("{rule}");
        }
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips() {
        let c = PageCacheConfig::builder()
            .capacity_pages(4_096)
            .tau_expire(SimDuration::from_secs(9))
            .tau_flush_permille(150)
            .throttle_permille(350)
            .flusher_period(SimDuration::from_millis(750))
            .build();
        let back =
            PageCacheConfig::from_json(&c.to_json(), SimDuration::from_secs(1)).expect("parse");
        assert_eq!(back, c, "a present period is the file's own");
    }

    #[test]
    fn json_without_flusher_period_uses_default() {
        // Files older than the field: the cache takes the period of the
        // system that embeds it.
        let c = PageCacheConfig::builder()
            .flusher_period(SimDuration::from_millis(500))
            .build();
        let mut v = c.to_json();
        if let JsonValue::Object(fields) = &mut v {
            fields.retain(|(k, _)| k != "flusher_period_us");
        }
        let back = PageCacheConfig::from_json(&v, SimDuration::from_millis(500)).expect("parse");
        assert_eq!(back, c);
    }

    #[test]
    fn defaults() {
        let c = PageCacheConfig::builder().build();
        assert_eq!(c.capacity_pages(), 2_048);
        assert_eq!(c.tau_expire(), SimDuration::from_secs(30));
        assert_eq!(c.tau_flush_permille(), 100);
        assert_eq!(c.flusher_period(), SimDuration::from_secs(5));
    }

    #[test]
    fn builder_defaults_are_pinned() {
        let explicit = PageCacheConfig::builder()
            .capacity_pages(2_048)
            .tau_expire(SimDuration::from_secs(30))
            .tau_flush_permille(100)
            .throttle_permille(200)
            .flusher_period(SimDuration::from_secs(5))
            .build();
        assert_eq!(PageCacheConfig::builder().build(), explicit);
    }

    #[test]
    fn flush_threshold_derivation() {
        let c = PageCacheConfig::builder()
            .capacity_pages(1000)
            .tau_flush_permille(250)
            .build();
        assert_eq!(c.flush_threshold_pages(), 250);
    }

    #[test]
    fn throttle_threshold_derivation() {
        let c = PageCacheConfig::builder()
            .capacity_pages(1000)
            .throttle_permille(300)
            .build();
        assert_eq!(c.throttle_threshold_pages(), 300);
        assert_eq!(c.throttle_permille(), 300);
    }

    #[test]
    fn json_zeros_the_builder_panics_on_are_errors_naming_the_key() {
        for key in ["capacity_pages", "tau_expire_us", "flusher_period_us"] {
            let JsonValue::Object(mut fields) = PageCacheConfig::builder().build().to_json() else {
                panic!("config dumps as an object");
            };
            for (k, value) in &mut fields {
                if k == key {
                    *value = JsonValue::from(0u64);
                }
            }
            let err =
                PageCacheConfig::from_json(&JsonValue::Object(fields), SimDuration::from_secs(5))
                    .expect_err("a zero is refused");
            assert!(
                err.to_string()
                    .contains(&format!("`cache.{key}` must be greater than zero")),
                "{err}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "`capacity_pages` must be greater than zero")]
    fn zero_capacity_panics() {
        let _ = PageCacheConfig::builder().capacity_pages(0).build();
    }

    #[test]
    #[should_panic(expected = "`tau_expire_us` must be greater than zero")]
    fn zero_tau_expire_panics() {
        let _ = PageCacheConfig::builder()
            .tau_expire(SimDuration::ZERO)
            .build();
    }
}
