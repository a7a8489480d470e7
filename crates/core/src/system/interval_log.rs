//! Bounded-memory per-interval traffic log.
//!
//! The engine records one device-traffic entry per flusher tick so that
//! horizon predictions can be scored over their full `N_wb` windows.
//! Storing that as a plain `Vec<u64>` grows one entry per tick forever —
//! an endurance run to end-of-life at a 500 ms period accumulates
//! millions of entries that are never read again once the predictions
//! covering them have been scored.
//!
//! [`IntervalLog`] keeps the same logical sequence addressable by the
//! same indices while storing only what can still matter:
//!
//! * a **base offset** — entries below it were already consumed by
//!   scoring and are gone ([`compact`](IntervalLog::compact) advances it);
//! * a short **materialized window** of explicit values;
//! * a **run-length-encoded zero tail** — idle intervals are all-zero,
//!   and the quiescence fast-forward appends them in O(1) via
//!   [`append_zeros`](IntervalLog::append_zeros) without materializing
//!   anything.
//!
//! Pushing a zero always lands in the RLE tail and pushing a non-zero
//! value first materializes the tail, so the representation is a pure
//! function of the logical content (given the same compaction calls) —
//! the per-tick path and the fast-forward bulk path converge on
//! identical structures, which the unit tests below compare with plain
//! `==`.

/// The per-interval device-traffic log: logically `Vec<u64>` with one
/// entry per elapsed flusher tick, physically a compacted window plus a
/// run-length-encoded zero tail.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct IntervalLog {
    /// Logical index of `vals[0]`; everything below was compacted away.
    base: usize,
    /// Explicit values for logical indices `[base, base + vals.len())`.
    vals: Vec<u64>,
    /// Trailing zeros for `[base + vals.len(), len())`, stored as a count.
    tail_zeros: usize,
}

impl IntervalLog {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Logical length: total intervals ever recorded.
    pub(crate) fn len(&self) -> usize {
        self.base + self.vals.len() + self.tail_zeros
    }

    /// Appends one interval's traffic.
    pub(crate) fn push(&mut self, value: u64) {
        if value == 0 {
            // Zeros always extend the RLE tail, so an idle stretch costs
            // no memory whether it arrives tick-by-tick or in bulk.
            self.tail_zeros += 1;
        } else {
            self.materialize_tail();
            self.vals.push(value);
        }
    }

    /// Appends `n` zero intervals in O(1) — the fast-forward bulk path.
    pub(crate) fn append_zeros(&mut self, n: usize) {
        self.tail_zeros += n;
    }

    /// Sum of the logical entries in `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `start < base` (the range was compacted away — the
    /// caller's compaction floor was wrong) or `end > len()`.
    pub(crate) fn sum_range(&self, start: usize, end: usize) -> u64 {
        assert!(
            start >= self.base,
            "interval log range [{start}, {end}) reaches below base {}",
            self.base
        );
        assert!(end <= self.len(), "interval log range end {end} > len");
        let stored_end = self.base + self.vals.len();
        // Entries at or past `stored_end` are RLE zeros: they contribute
        // nothing, so only the overlap with the materialized window sums.
        let lo = start.min(stored_end) - self.base;
        let hi = end.min(stored_end) - self.base;
        self.vals[lo..hi].iter().sum()
    }

    /// Drops every entry below logical index `floor` (typically the
    /// oldest still-pending prediction's start). Keeps `len()` and all
    /// indices `>= floor` intact.
    pub(crate) fn compact(&mut self, floor: usize) {
        if floor <= self.base {
            return;
        }
        let stored_end = self.base + self.vals.len();
        if floor >= stored_end {
            // The whole materialized window is dead; what survives of the
            // tail stays run-length encoded.
            self.tail_zeros = self.len() - floor;
            self.vals.clear();
        } else {
            self.vals.drain(..floor - self.base);
        }
        self.base = floor;
    }

    /// Explicitly stored entries — the quantity the boundedness
    /// regression test asserts on (logical `len()` keeps growing; this
    /// must not).
    pub(crate) fn materialized_len(&self) -> usize {
        self.vals.len()
    }

    fn materialize_tail(&mut self) {
        if self.tail_zeros > 0 {
            self.vals.resize(self.vals.len() + self.tail_zeros, 0);
            self.tail_zeros = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference model: the plain Vec the log replaces.
    fn check_against_model(log: &IntervalLog, model: &[u64], base: usize) {
        assert_eq!(log.len(), model.len());
        for start in base..model.len() {
            for end in start..=model.len() {
                assert_eq!(
                    log.sum_range(start, end),
                    model[start..end].iter().sum::<u64>(),
                    "sum_range({start}, {end})"
                );
            }
        }
    }

    #[test]
    fn behaves_like_a_vec_before_compaction() {
        let mut log = IntervalLog::new();
        let model = [5u64, 0, 0, 7, 0, 3, 0, 0, 0];
        for &v in &model {
            log.push(v);
        }
        check_against_model(&log, &model, 0);
    }

    #[test]
    fn zeros_extend_the_rle_tail_without_memory() {
        let mut log = IntervalLog::new();
        log.push(4);
        for _ in 0..1_000_000 {
            log.push(0);
        }
        assert_eq!(log.len(), 1_000_001);
        assert_eq!(log.materialized_len(), 1);
        assert_eq!(log.sum_range(0, 1_000_001), 4);
        assert_eq!(log.sum_range(500, 600), 0);
    }

    #[test]
    fn append_zeros_matches_pushing_zeros() {
        let mut bulk = IntervalLog::new();
        let mut looped = IntervalLog::new();
        for log in [&mut bulk, &mut looped] {
            log.push(9);
            log.push(0);
        }
        bulk.append_zeros(5);
        for _ in 0..5 {
            looped.push(0);
        }
        assert_eq!(bulk, looped);
    }

    #[test]
    fn nonzero_push_materializes_the_tail() {
        let mut log = IntervalLog::new();
        log.push(0);
        log.push(0);
        log.push(8);
        let model = [0u64, 0, 8];
        check_against_model(&log, &model, 0);
        assert_eq!(log.materialized_len(), 3);
    }

    #[test]
    fn compaction_preserves_surviving_indices() {
        let mut log = IntervalLog::new();
        let model = [2u64, 4, 0, 6, 0, 0, 1, 0];
        for &v in &model {
            log.push(v);
        }
        log.compact(3);
        assert_eq!(log.len(), model.len());
        check_against_model(&log, &model, 3);
        // Compacting backwards is a no-op, not a panic.
        log.compact(1);
        check_against_model(&log, &model, 3);
    }

    #[test]
    fn compaction_into_the_zero_tail_keeps_it_encoded() {
        let mut log = IntervalLog::new();
        log.push(5);
        log.append_zeros(100);
        log.compact(40);
        assert_eq!(log.len(), 101);
        assert_eq!(log.materialized_len(), 0);
        assert_eq!(log.sum_range(40, 101), 0);
    }

    #[test]
    fn compact_to_len_empties_storage() {
        let mut log = IntervalLog::new();
        for v in [1u64, 2, 3] {
            log.push(v);
        }
        log.compact(log.len());
        assert_eq!(log.len(), 3);
        assert_eq!(log.materialized_len(), 0);
        log.push(7);
        assert_eq!(log.sum_range(3, 4), 7);
    }

    #[test]
    #[should_panic(expected = "below base")]
    fn reading_a_compacted_range_panics() {
        let mut log = IntervalLog::new();
        for v in [1u64, 2, 3, 4] {
            log.push(v);
        }
        log.compact(2);
        let _ = log.sum_range(1, 3);
    }
}
