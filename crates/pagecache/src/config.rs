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
    /// Returns a [`JsonError`] on missing or mistyped fields, and on a
    /// `capacity_pages`, `tau_expire_us` or `flusher_period_us` of zero,
    /// named by their path in a system configuration (`cache.…`) — the
    /// zeros [`build`](PageCacheConfigBuilder::build) would panic on.
    pub fn from_json(v: &JsonValue, flusher_period: SimDuration) -> Result<Self, JsonError> {
        let flusher_period = match v.get("flusher_period_us") {
            Some(_) => SimDuration::from_micros(positive(v, "flusher_period_us")?),
            None => flusher_period,
        };
        Ok(PageCacheConfig::builder()
            .capacity_pages(positive(v, "capacity_pages")?)
            .tau_expire(SimDuration::from_micros(positive(v, "tau_expire_us")?))
            .tau_flush_permille(v.req_u64("tau_flush_permille")?)
            .throttle_permille(v.req_u64("throttle_permille")?)
            .flusher_period(flusher_period)
            .build())
    }
}

/// `permille`/1000 of `pages`, without overflow: a threshold above 1000 ‰
/// is one the cache never reaches, however large.
fn permille_of(pages: u64, permille: u64) -> u64 {
    u64::try_from(u128::from(pages) * u128::from(permille) / 1000).unwrap_or(u64::MAX)
}

/// The required key `key` of a cache config, which must be above zero:
/// [`PageCacheConfigBuilder::build`] panics on a zero.
fn positive(v: &JsonValue, key: &str) -> Result<u64, JsonError> {
    match v.req_u64(key)? {
        0 => Err(JsonError::new(format!(
            "`cache.{key}` must be greater than zero"
        ))),
        value => Ok(value),
    }
}

/// Builder for [`PageCacheConfig`].
///
/// Defaults mirror a Linux desktop: 2 048 pages capacity, `τ_expire` 30 s,
/// `τ_flush` 10 % of capacity.
#[derive(Debug, Clone)]
pub struct PageCacheConfigBuilder {
    capacity_pages: u64,
    tau_expire: SimDuration,
    tau_flush_permille: u64,
    throttle_permille: u64,
    flusher_period: SimDuration,
}

impl Default for PageCacheConfigBuilder {
    fn default() -> Self {
        PageCacheConfigBuilder {
            capacity_pages: 2_048,
            tau_expire: SimDuration::from_secs(30),
            tau_flush_permille: 100,
            throttle_permille: 200,
            flusher_period: SimDuration::from_secs(5),
        }
    }
}

impl PageCacheConfigBuilder {
    /// Sets the cache capacity in pages.
    #[must_use]
    pub fn capacity_pages(mut self, pages: u64) -> Self {
        self.capacity_pages = pages;
        self
    }

    /// Sets the dirty-age expiration threshold.
    #[must_use]
    pub fn tau_expire(mut self, tau: SimDuration) -> Self {
        self.tau_expire = tau;
        self
    }

    /// Sets the dirty-pressure threshold in permille of capacity.
    #[must_use]
    pub fn tau_flush_permille(mut self, permille: u64) -> Self {
        self.tau_flush_permille = permille;
        self
    }

    /// Sets the hard dirty limit (writer throttling) in permille of
    /// capacity (Linux `dirty_ratio`; default 200 = 20 %).
    #[must_use]
    pub fn throttle_permille(mut self, permille: u64) -> Self {
        self.throttle_permille = permille;
        self
    }

    /// Sets the flusher wake-up period `p` used to bucket dirty pages by
    /// age (default 5 s, the paper's Linux default).
    #[must_use]
    pub fn flusher_period(mut self, p: SimDuration) -> Self {
        self.flusher_period = p;
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is zero or `τ_expire` is zero.
    #[must_use]
    pub fn build(self) -> PageCacheConfig {
        assert!(self.capacity_pages > 0, "cache capacity must be non-zero");
        assert!(
            !self.tau_expire.is_zero(),
            "tau_expire must be non-zero (a zero value means no caching)"
        );
        assert!(
            !self.flusher_period.is_zero(),
            "flusher_period must be non-zero"
        );
        PageCacheConfig {
            capacity_pages: self.capacity_pages,
            tau_expire: self.tau_expire,
            tau_flush_permille: self.tau_flush_permille,
            throttle_permille: self.throttle_permille,
            flusher_period: self.flusher_period,
        }
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
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_panics() {
        let _ = PageCacheConfig::builder().capacity_pages(0).build();
    }

    #[test]
    #[should_panic(expected = "tau_expire must be non-zero")]
    fn zero_tau_expire_panics() {
        let _ = PageCacheConfig::builder()
            .tau_expire(SimDuration::ZERO)
            .build();
    }
}
