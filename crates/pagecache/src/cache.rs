//! The write-back page cache proper.
//!
//! # Data layout
//!
//! The cache is a **flat slab**: one `Vec<Slot>` of 20-byte slots holding
//! every cached page, a direct index from LPN to slot (`Vec<u32>`, one
//! entry per LPN — no hashing on any path), and two intrusive doubly
//! linked lists threaded through the slots with `u32` indices:
//!
//! * the **dirty list**, oldest first by write time and, at equal times,
//!   in write order — the flusher pops from its head, and
//!   [`PageCache::dirty_pages`] walks it without allocating;
//! * the **clean list** in LRU order — eviction pops the head, touches
//!   move a slot to the tail in O(1).
//!
//! Buffered writes almost always carry the youngest timestamp, so the
//! dirty list's sorted insert scans backward from the tail and is O(1)
//! in practice; it stays correct when the caller's clock is not
//! monotone (overlapping requests at queue depth > 1). The scan stops at
//! the first page no younger than the new one, so the list itself keeps
//! equal times in write order and a slot needs no sequence number. Freed
//! slots are recycled through a free list threaded over the same `next`
//! links, so the slab never exceeds the configured capacity.
//!
//! A direct index is sound because the LPN space is dense and small: the
//! generators, trace replay and the stripe map keep every LPN inside the
//! working set, the FTL refuses anything beyond its user space, and the
//! index costs 4 bytes per LPN of that space — less than a hash bucket
//! per *cached* page did. An LPN of `u32::MAX` or above is refused
//! outright ([`PageCache::write`] and [`PageCache::read`] panic): it
//! could never reach the 32-bit FTL below, and indexing by it would
//! allocate gigabytes.
//!
//! The index, the dirty bitmap and the slab are allocated when the first
//! page is cached. An embedder that knows its LPN space says so
//! ([`PageCache::expect_lpns`]) and all three are sized for it there and
//! then (the slab for that space or the capacity, if smaller); otherwise
//! the slab doubles as pages arrive and the other two reach the largest
//! LPN handed in so far and regrow, by doubling, whenever a higher one
//! arrives — which makes their capacity, and where the allocator puts
//! each regrowth, depend on the order the addresses happen to come in
//! (1.5 – 3 MB for the same 393 216-LPN run, DESIGN.md §8g).
//!
//! # The flusher clock and the dirty-age epoch counters
//!
//! The cache owns the flusher's wake-up grid: wake-up `m` is at
//! `φ + m·p`, with `p` the configured
//! [`flusher_period`](PageCacheConfig::flusher_period) and `φ < p` the
//! [`flusher_phase`](PageCache::flusher_phase) (zero unless
//! [`set_flusher_phase`](PageCache::set_flusher_phase) moved it before
//! the first write). It holds no clock of its own — the caller still
//! says when "now" is — but the grid decides how dirty pages are
//! bucketed: a page's *epoch* is the wake-up that sees it first,
//! `e = ⌈(last_update − φ) / p⌉` (0 for a write before `φ`). Every
//! dirty-list insert/remove adjusts one counter of a small ordered map,
//! so the buffered-write predictor reads per-write-back-interval demand
//! in O(distinct epochs) instead of walking every dirty page
//! ([`dirty_epochs`](PageCache::dirty_epochs)). Pages sharing an epoch
//! share a write-back interval at every poll on the grid, which is the
//! only place the predictor's `predict_into` accepts one.

use crate::{PageCacheConfig, PageCacheStats};
use jitgc_nand::Lpn;
use jitgc_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// What a buffered write did to the cache.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WriteEffect {
    /// Dirty pages the cache had to write back *immediately* to make room
    /// (cache full of dirty data). The caller must submit these to the
    /// device now; they are unpredictable early flushes and one source of
    /// prediction error.
    pub forced_writebacks: Vec<Lpn>,
}

/// One flusher-thread wake-up's output: the dirty pages written back.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FlushBatch {
    /// Flushed pages, oldest first. The caller submits these to the device.
    pub lpns: Vec<Lpn>,
    /// How many pages were flushed (all by `τ_expire` expiry; the paper's
    /// flusher model never writes back unexpired data).
    pub expired: usize,
}

/// Index sentinel terminating the intrusive lists.
const NIL: u32 = u32::MAX;

/// The write time a clean slot holds; [`PageCache::write`] refuses it.
const CLEAN: u64 = u64::MAX;

/// One cached page in 20 bytes, packed to 4-byte alignment. A slot is on
/// exactly one list: dirty, clean, or the free list, which reuses `next`.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(4))]
struct Slot {
    /// The cached page's LPN, which [`PageCache::alloc_slot`] checked
    /// fits.
    lpn: u32,
    prev: u32,
    next: u32,
    /// The last write's time in microseconds while dirty, `CLEAN` otherwise.
    at: u64,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 20);

impl Slot {
    fn lpn(&self) -> Lpn {
        Lpn(u64::from(self.lpn))
    }

    fn dirty(&self) -> bool {
        self.at != CLEAN
    }

    fn last_update(&self) -> SimTime {
        debug_assert!(self.dirty(), "a clean slot has no write time");
        SimTime::from_micros(self.at)
    }
}

/// A bounded write-back page cache with Linux-flusher semantics.
///
/// See the [crate documentation](crate) for the model. All mutating
/// operations take the current simulated time; the cache keeps none, only
/// the flusher's wake-up grid (module docs).
#[derive(Debug)]
pub struct PageCache {
    config: PageCacheConfig,
    slots: Vec<Slot>,
    /// Slot of every LPN expected or seen, `NIL` when not cached.
    slot_of: Vec<u32>,
    /// Cached pages: the entries of `slot_of` that are not `NIL`.
    cached: usize,
    /// Head of the free-slot list (threaded through `next`).
    free_head: u32,
    /// Dirty pages, oldest first by write time, equal times in write order.
    dirty_head: u32,
    dirty_tail: u32,
    dirty_len: u64,
    /// Clean pages, least recently used at the head.
    clean_head: u32,
    clean_tail: u32,
    /// Dirty pages per flusher epoch `⌈(last_update − φ) / p⌉`; zero
    /// counts are removed so iteration touches only live buckets (at most
    /// `N_wb` + 1 of them, plus residue stranded below `τ_flush`).
    dirty_epochs: BTreeMap<u64, u64>,
    /// The flusher clock in microseconds: period `p` and phase `φ < p`.
    period_us: u64,
    phase_us: u64,
    /// Bitmap of dirty LPNs (bit `l % 64` of word `l / 64`), maintained in
    /// lock-step with the dirty list so the predictor can snapshot the SIP
    /// set with one `memcpy` instead of walking the list.
    dirty_bits: Vec<u64>,
    /// LPNs the embedder said to expect ([`PageCache::expect_lpns`]):
    /// `slot_of` and `dirty_bits` never grow to less.
    expected_lpns: usize,
    stats: PageCacheStats,
}

impl PageCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new(config: PageCacheConfig) -> Self {
        let period_us = config.flusher_period().as_micros();
        PageCache {
            config,
            slots: Vec::new(),
            slot_of: Vec::new(),
            cached: 0,
            free_head: NIL,
            dirty_head: NIL,
            dirty_tail: NIL,
            dirty_len: 0,
            clean_head: NIL,
            clean_tail: NIL,
            dirty_epochs: BTreeMap::new(),
            period_us,
            phase_us: 0,
            dirty_bits: Vec::new(),
            expected_lpns: 0,
            stats: PageCacheStats::default(),
        }
    }

    /// The configuration this cache was built with.
    #[must_use]
    pub fn config(&self) -> &PageCacheConfig {
        &self.config
    }

    /// The flusher clock's phase `φ`: wake-up `m` is at `φ + m·p`.
    #[must_use]
    pub fn flusher_phase(&self) -> SimDuration {
        SimDuration::from_micros(self.phase_us)
    }

    /// Says that the pages to come have LPNs below `lpns`, so the
    /// LPN-indexed tables are sized for all of them when the first page
    /// is cached instead of regrowing as higher addresses arrive (module
    /// docs). Only allocation changes: a cache told nothing, too little
    /// or too much behaves the same, and an LPN at or above `lpns` is
    /// still accepted.
    pub fn expect_lpns(&mut self, lpns: u64) {
        // `alloc_slot` refuses an LPN of `NIL` or above.
        self.expected_lpns = lpns.min(u64::from(NIL)) as usize;
    }

    /// Moves the flusher clock's phase, for an embedding simulator whose
    /// wake-ups are offset from multiples of the period (a staggered
    /// array member). The epoch counters are bucketed by this grid, so it
    /// can only move while there is nothing to re-bucket.
    ///
    /// # Panics
    ///
    /// Panics if the cache holds a dirty page, or if `phase` is not
    /// shorter than the flusher period.
    pub fn set_flusher_phase(&mut self, phase: SimDuration) {
        assert_eq!(
            self.dirty_len, 0,
            "the flusher phase can only move while no page is dirty"
        );
        assert!(
            phase.as_micros() < self.period_us,
            "flusher phase {phase} must be shorter than the period {}",
            self.config.flusher_period()
        );
        self.phase_us = phase.as_micros();
    }

    /// Cache statistics.
    #[must_use]
    pub fn stats(&self) -> &PageCacheStats {
        &self.stats
    }

    /// Number of cached pages (dirty + clean).
    #[must_use]
    pub fn len(&self) -> usize {
        self.cached
    }

    /// `true` when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cached == 0
    }

    /// Number of dirty pages.
    #[must_use]
    pub fn dirty_count(&self) -> u64 {
        self.dirty_len
    }

    /// `true` if `lpn` is cached (dirty or clean).
    #[must_use]
    pub fn contains(&self, lpn: Lpn) -> bool {
        self.slot_index(lpn).is_some()
    }

    /// `true` if `lpn` is cached dirty.
    #[must_use]
    pub fn is_dirty(&self, lpn: Lpn) -> bool {
        self.slot_index(lpn)
            .is_some_and(|i| self.slots[i as usize].dirty())
    }

    /// A buffered write: marks `lpn` dirty with age zero. Rewriting an
    /// already-dirty page resets its age — the paper's `B → B′` case, which
    /// *delays* that page's flush.
    ///
    /// Returns the dirty pages (if any) that had to be force-written-back
    /// to make room.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is `u32::MAX` or above (see the module docs), or if
    /// `now` is [`SimTime::MAX`], the time a clean slot holds. A simulated
    /// run never gets there: it ends by 2^62 µs (`ArrivalError::TooLong`).
    pub fn write(&mut self, lpn: Lpn, now: SimTime) -> WriteEffect {
        assert!(now < SimTime::MAX, "a page-cache write at SimTime::MAX");
        self.stats.writes += 1;
        let mut effect = WriteEffect::default();
        let idx = if let Some(i) = self.slot_index(lpn) {
            self.unlink(i);
            i
        } else {
            if self.cached as u64 >= self.config.capacity_pages() {
                if let Some(victim) = self.evict_one() {
                    effect.forced_writebacks.push(victim);
                }
            }
            self.alloc_slot(lpn)
        };
        self.slots[idx as usize].at = now.as_micros();
        self.dirty_insert_sorted(idx);
        effect
    }

    /// A buffered read: returns `true` on a cache hit. On a miss the page
    /// is assumed fetched from the device and cached clean.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is `u32::MAX` or above (see the module docs).
    pub fn read(&mut self, lpn: Lpn, _now: SimTime) -> bool {
        if let Some(i) = self.slot_index(lpn) {
            self.stats.read_hits += 1;
            if !self.slots[i as usize].dirty() {
                // Refresh LRU position: move to the most-recent tail.
                self.unlink(i);
                Self::link_tail(
                    &mut self.slots,
                    &mut self.clean_head,
                    &mut self.clean_tail,
                    i,
                );
            }
            true
        } else {
            self.stats.read_misses += 1;
            if self.cached as u64 >= self.config.capacity_pages() {
                // Reads never force dirty writebacks; if everything is
                // dirty the fetched page simply is not cached.
                if self.clean_head == NIL {
                    return false;
                }
                self.evict_one();
            }
            let i = self.alloc_slot(lpn);
            Self::link_tail(
                &mut self.slots,
                &mut self.clean_head,
                &mut self.clean_tail,
                i,
            );
            false
        }
    }

    /// One flusher-thread wake-up at time `now`, following the paper's
    /// model of the Linux flusher (Sec. 3.2.1): dirty data is written back
    /// when **both** conditions hold — it is older than `τ_expire` *and*
    /// the total amount of dirty data exceeds the `τ_flush` threshold.
    /// When the conditions are met, every expired page is flushed
    /// (oldest first).
    ///
    /// This AND semantics is what makes the buffered-write predictor's
    /// relaxation an *over*-estimate: assuming expired pages always flush
    /// ignores that `τ_flush` may gate them, so the prediction errs high
    /// by at most `τ_flush` worth of pages — the paper's stated bound.
    ///
    /// Flushed pages stay cached clean.
    pub fn flusher_tick(&mut self, now: SimTime) -> FlushBatch {
        let mut batch = FlushBatch::default();
        let threshold = self.config.flush_threshold_pages();
        if self.dirty_len <= threshold {
            return batch;
        }
        while self.dirty_head != NIL {
            let head = self.dirty_head;
            let slot = &self.slots[head as usize];
            if now.saturating_since(slot.last_update()) < self.config.tau_expire() {
                break;
            }
            let lpn = slot.lpn();
            self.mark_clean(head);
            batch.lpns.push(lpn);
            batch.expired += 1;
        }
        self.stats.flushed_expired += batch.expired as u64;
        batch
    }

    /// Scans dirty pages oldest-first, yielding `(lpn, last_update)` — the
    /// exact information the paper's buffered-write predictor extracts.
    /// A pointer walk over the intrusive dirty list: no allocation, no
    /// tree traversal.
    pub fn dirty_pages(&self) -> impl Iterator<Item = (Lpn, SimTime)> + '_ {
        std::iter::successors(
            (self.dirty_head != NIL).then_some(self.dirty_head),
            move |&i| {
                let next = self.slots[i as usize].next;
                (next != NIL).then_some(next)
            },
        )
        .map(move |i| {
            let slot = &self.slots[i as usize];
            (slot.lpn(), slot.last_update())
        })
    }

    /// Iterates the dirty-age histogram as `(epoch, pages)` pairs, oldest
    /// epoch first, where the epoch is the index of the first flusher
    /// wake-up at or after the page's last update:
    /// `⌈(last_update − φ) / p⌉`, 0 for an update before `φ`.
    pub fn dirty_epochs(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.dirty_epochs.iter().map(|(&e, &n)| (e, n))
    }

    /// The dirty-LPN set as bitmap words: bit `l % 64` of word `l / 64`
    /// is set iff `Lpn(l)` is dirty. Exactly
    /// [`dirty_count`](Self::dirty_count) bits are set. The predictor
    /// snapshots this into the SIP list wholesale.
    #[must_use]
    pub fn dirty_lpn_words(&self) -> &[u64] {
        &self.dirty_bits
    }

    /// Writer throttling (Linux `balance_dirty_pages`): when total dirty
    /// data exceeds the hard `dirty_ratio` limit, the *writing process*
    /// must write back the oldest dirty pages itself, synchronously, until
    /// the count is back at the flush threshold. Returns the pages the
    /// caller must now submit to the device; they stay cached clean.
    pub fn throttle_excess(&mut self) -> Vec<Lpn> {
        let mut out = Vec::new();
        if self.dirty_len <= self.config.throttle_threshold_pages() {
            return out;
        }
        let floor = self.config.flush_threshold_pages();
        while self.dirty_len > floor {
            let head = self.dirty_head;
            debug_assert_ne!(head, NIL, "dirty_len over floor with empty list");
            let lpn = self.slots[head as usize].lpn();
            self.mark_clean(head);
            out.push(lpn);
        }
        self.stats.throttled_writebacks += out.len() as u64;
        out
    }

    /// Drops `lpn` from the cache without writing it back, dirty or not.
    /// Used when a direct write supersedes the cached copy (a later flush
    /// of stale data must not clobber the device) and on TRIM.
    ///
    /// Returns `true` if the page was cached.
    pub fn invalidate(&mut self, lpn: Lpn) -> bool {
        let Some(i) = self.slot_index(lpn) else {
            return false;
        };
        self.unlink(i);
        self.free_slot(i);
        true
    }

    // ------------------------------------------------------------------
    // Dirty-age epoch counters and dirty-LPN bitmap
    // ------------------------------------------------------------------

    /// Flusher epoch of a dirty timestamp: the first wake-up `φ + e·p`
    /// at or after it. `φ < p`, so saturating below `φ` is the exact
    /// ceiling there too.
    fn epoch_of(&self, at: SimTime) -> u64 {
        at.as_micros()
            .saturating_sub(self.phase_us)
            .div_ceil(self.period_us)
    }

    /// Records `lpn` entering the dirty list with timestamp `at`.
    fn dirty_track_add(&mut self, lpn: Lpn, at: SimTime) {
        let e = self.epoch_of(at);
        *self.dirty_epochs.entry(e).or_insert(0) += 1;
        let w = (lpn.0 / 64) as usize;
        if w >= self.dirty_bits.len() {
            let words = self.expected_lpns.div_ceil(64).max(w + 1);
            self.dirty_bits.resize(words, 0);
        }
        debug_assert_eq!(self.dirty_bits[w] & (1 << (lpn.0 % 64)), 0);
        self.dirty_bits[w] |= 1 << (lpn.0 % 64);
    }

    /// Records `lpn` leaving the dirty list; `at` is the timestamp it was
    /// tracked under.
    fn dirty_track_remove(&mut self, lpn: Lpn, at: SimTime) {
        let e = self.epoch_of(at);
        match self.dirty_epochs.get_mut(&e) {
            Some(n) if *n > 1 => *n -= 1,
            Some(_) => {
                self.dirty_epochs.remove(&e);
            }
            None => debug_assert!(false, "epoch counter underflow at epoch {e}"),
        }
        let w = (lpn.0 / 64) as usize;
        debug_assert_ne!(self.dirty_bits[w] & (1 << (lpn.0 % 64)), 0);
        self.dirty_bits[w] &= !(1 << (lpn.0 % 64));
    }

    // ------------------------------------------------------------------
    // Slab plumbing
    // ------------------------------------------------------------------

    /// The slot caching `lpn`, if any.
    fn slot_index(&self, lpn: Lpn) -> Option<u32> {
        let idx = *self.slot_of.get(usize::try_from(lpn.0).ok()?)?;
        (idx != NIL).then_some(idx)
    }

    /// Takes a slot for `lpn` off the free list (or grows the slab, sized
    /// by the first page) and registers it in the index, growing that to
    /// reach `lpn`. The slot is left clean, its list links NIL.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is `u32::MAX` or above.
    fn alloc_slot(&mut self, lpn: Lpn) -> u32 {
        let lpn = u32::try_from(lpn.0)
            .ok()
            .filter(|&lpn| lpn != NIL)
            .unwrap_or_else(|| panic!("{lpn} is beyond the 32-bit LPN space the cache indexes"));
        let idx = if self.free_head != NIL {
            let idx = self.free_head;
            self.free_head = self.slots[idx as usize].next;
            idx
        } else {
            if self.slots.is_empty() {
                let slots = self.config.capacity_pages().min(self.expected_lpns as u64);
                self.slots.reserve_exact(slots as usize);
            }
            let idx = self.slots.len() as u32;
            self.slots.push(Slot {
                lpn,
                prev: NIL,
                next: NIL,
                at: CLEAN,
            });
            idx
        };
        let slot = &mut self.slots[idx as usize];
        slot.lpn = lpn;
        slot.prev = NIL;
        slot.next = NIL;
        slot.at = CLEAN;
        if lpn as usize >= self.slot_of.len() {
            let lpns = self.expected_lpns.max(lpn as usize + 1);
            self.slot_of.resize(lpns, NIL);
        }
        self.slot_of[lpn as usize] = idx;
        self.cached += 1;
        idx
    }

    /// Takes an unlinked slot out of the index and returns it to the free
    /// list.
    fn free_slot(&mut self, idx: u32) {
        let slot = &mut self.slots[idx as usize];
        self.slot_of[slot.lpn as usize] = NIL;
        self.cached -= 1;
        slot.prev = NIL;
        slot.next = self.free_head;
        self.free_head = idx;
    }

    /// Unlinks `idx` from whichever list (dirty or clean) it is on.
    fn unlink(&mut self, idx: u32) {
        if self.slots[idx as usize].dirty() {
            self.dirty_detach(idx);
        } else {
            Self::detach(
                &mut self.slots,
                &mut self.clean_head,
                &mut self.clean_tail,
                idx,
            );
        }
    }

    /// Takes the dirty slot `idx` off the dirty list and out of the epoch
    /// counters and the dirty bitmap.
    fn dirty_detach(&mut self, idx: u32) {
        let slot = &self.slots[idx as usize];
        let (lpn, at) = (slot.lpn(), slot.last_update());
        Self::detach(
            &mut self.slots,
            &mut self.dirty_head,
            &mut self.dirty_tail,
            idx,
        );
        self.dirty_len -= 1;
        self.dirty_track_remove(lpn, at);
    }

    /// Moves the dirty slot `idx` (currently at the dirty head) onto the
    /// clean list's MRU tail.
    fn mark_clean(&mut self, idx: u32) {
        debug_assert!(self.slots[idx as usize].dirty());
        self.dirty_detach(idx);
        self.slots[idx as usize].at = CLEAN;
        Self::link_tail(
            &mut self.slots,
            &mut self.clean_head,
            &mut self.clean_tail,
            idx,
        );
    }

    /// Inserts the dirty slot `idx` into the dirty list, oldest first. The
    /// backward scan from the tail stops at the first page no younger than
    /// `idx`, so equal times stay in write order; new writes are almost
    /// always the youngest, so it usually stops at once.
    fn dirty_insert_sorted(&mut self, idx: u32) {
        let slot = self.slots[idx as usize];
        self.dirty_track_add(slot.lpn(), slot.last_update());
        let mut after = self.dirty_tail;
        while after != NIL {
            let other = &self.slots[after as usize];
            if other.at <= slot.at {
                break;
            }
            after = other.prev;
        }
        Self::link_after(
            &mut self.slots,
            &mut self.dirty_head,
            &mut self.dirty_tail,
            after,
            idx,
        );
        self.dirty_len += 1;
    }

    /// Evicts one page to make room: LRU clean if available, else the
    /// oldest dirty page (returned so the caller can write it back).
    fn evict_one(&mut self) -> Option<Lpn> {
        if self.clean_head != NIL {
            let idx = self.clean_head;
            Self::detach(
                &mut self.slots,
                &mut self.clean_head,
                &mut self.clean_tail,
                idx,
            );
            self.free_slot(idx);
            self.stats.clean_evictions += 1;
            None
        } else if self.dirty_head != NIL {
            let idx = self.dirty_head;
            let lpn = self.slots[idx as usize].lpn();
            self.dirty_detach(idx);
            self.free_slot(idx);
            self.stats.forced_writebacks += 1;
            Some(lpn)
        } else {
            None
        }
    }

    // ------------------------------------------------------------------
    // Intrusive-list primitives (associated fns so callers can split
    // borrows between the slab and the list heads)
    // ------------------------------------------------------------------

    /// Removes `idx` from the list rooted at `head`/`tail`.
    fn detach(slots: &mut [Slot], head: &mut u32, tail: &mut u32, idx: u32) {
        let (prev, next) = {
            let slot = &slots[idx as usize];
            (slot.prev, slot.next)
        };
        if prev != NIL {
            slots[prev as usize].next = next;
        } else {
            debug_assert_eq!(*head, idx, "slot not on the list it claims");
            *head = next;
        }
        if next != NIL {
            slots[next as usize].prev = prev;
        } else {
            debug_assert_eq!(*tail, idx, "slot not on the list it claims");
            *tail = prev;
        }
        slots[idx as usize].prev = NIL;
        slots[idx as usize].next = NIL;
    }

    /// Appends `idx` at the tail of the list rooted at `head`/`tail`.
    fn link_tail(slots: &mut [Slot], head: &mut u32, tail: &mut u32, idx: u32) {
        Self::link_after(slots, head, tail, *tail, idx);
    }

    /// Inserts `idx` right after `after` (`NIL` = at the head).
    fn link_after(slots: &mut [Slot], head: &mut u32, tail: &mut u32, after: u32, idx: u32) {
        let next = if after == NIL {
            *head
        } else {
            slots[after as usize].next
        };
        slots[idx as usize].prev = after;
        slots[idx as usize].next = next;
        if after != NIL {
            slots[after as usize].next = idx;
        } else {
            *head = idx;
        }
        if next != NIL {
            slots[next as usize].prev = idx;
        } else {
            *tail = idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitgc_sim::SimDuration;

    fn cache(capacity: u64) -> PageCache {
        PageCache::new(
            PageCacheConfig::builder()
                .capacity_pages(capacity)
                .tau_expire(SimDuration::from_secs(30))
                .tau_flush_permille(100)
                .build(),
        )
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    #[should_panic(expected = "a page-cache write at SimTime::MAX")]
    fn a_write_at_the_clean_sentinel_is_refused() {
        cache(8).write(Lpn(1), SimTime::MAX);
    }

    #[test]
    #[should_panic(expected = "beyond the 32-bit LPN space")]
    fn an_lpn_the_ftl_could_never_map_is_refused() {
        cache(8).write(Lpn(u64::from(u32::MAX)), t(0));
    }

    #[test]
    fn expected_lpns_size_the_tables_once() {
        let mut c = cache(8);
        c.expect_lpns(1_000);
        assert!(c.slot_of.is_empty() && c.dirty_bits.is_empty());
        assert_eq!(c.slots.capacity(), 0);
        // Whichever address comes first, the first page sizes all three
        // (the slab for its 8-page capacity), and no later one below the
        // expectation regrows them.
        for lpn in [700, 3, 999] {
            c.write(Lpn(lpn), t(0));
            assert_eq!(c.slot_of.len(), 1_000);
            assert_eq!(c.slot_of.capacity(), 1_000);
            assert_eq!(c.dirty_lpn_words().len(), 1_000_usize.div_ceil(64));
            assert_eq!(c.slots.capacity(), 8);
        }
        // The expectation is no limit: a higher LPN regrows them.
        c.write(Lpn(2_000), t(0));
        assert!(c.is_dirty(Lpn(2_000)) && c.is_dirty(Lpn(3)));
        assert_eq!(c.slot_of.len(), 2_001);

        // A capacity beyond the expected space reserves only that space,
        // however large the capacity.
        let mut c = cache(1 << 40);
        c.expect_lpns(1_000);
        c.read(Lpn(5), t(0));
        assert_eq!(c.slots.capacity(), 1_000);

        // Told nothing, the tables follow the addresses.
        let mut c = cache(8);
        c.write(Lpn(700), t(0));
        assert_eq!(c.slot_of.len(), 701);
        assert!(c.slots.capacity() < 8);
    }

    #[test]
    fn lookups_of_unseen_lpns_miss() {
        let mut c = cache(8);
        c.write(Lpn(3), t(0));
        for lpn in [Lpn(4), Lpn(1 << 20), Lpn(u64::MAX)] {
            assert!(!c.contains(lpn));
            assert!(!c.is_dirty(lpn));
            assert!(!c.invalidate(lpn));
        }
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn write_makes_dirty() {
        let mut c = cache(8);
        c.write(Lpn(1), t(0));
        assert!(c.is_dirty(Lpn(1)));
        assert_eq!(c.dirty_count(), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn expired_pages_flush_in_age_order() {
        let mut c = cache(8);
        c.write(Lpn(2), t(0));
        c.write(Lpn(1), t(5));
        let batch = c.flusher_tick(t(36));
        assert_eq!(batch.lpns, vec![Lpn(2), Lpn(1)]);
        assert_eq!(batch.expired, 2);
        assert_eq!(c.dirty_count(), 0);
        // Flushed pages stay cached clean.
        assert!(c.contains(Lpn(1)));
        assert!(!c.is_dirty(Lpn(1)));
    }

    #[test]
    fn unexpired_pages_stay_dirty() {
        let mut c = cache(100); // pressure threshold 10 pages
        c.write(Lpn(1), t(10));
        let batch = c.flusher_tick(t(35));
        assert!(batch.lpns.is_empty());
        assert!(c.is_dirty(Lpn(1)));
    }

    #[test]
    fn rewrite_resets_age_and_delays_flush() {
        // The paper's B → B′ case (Fig. 4): updating dirty data postpones
        // its write-back.
        let mut c = cache(8); // τ_flush threshold 0: expiry alone gates
        c.write(Lpn(1), t(0));
        c.write(Lpn(1), t(20)); // B′
        let batch = c.flusher_tick(t(35));
        assert!(batch.lpns.is_empty(), "age was reset at t=20");
        let batch = c.flusher_tick(t(50));
        assert_eq!(batch.lpns, vec![Lpn(1)]);
        // Still a single cached page, not two.
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn tau_flush_gates_expired_pages() {
        // Capacity 20 → threshold 2 pages (10 %). The paper's flusher
        // writes back expired data only when total dirty data exceeds
        // τ_flush (both conditions ANDed).
        let mut c = cache(20);
        c.write(Lpn(0), t(0));
        c.write(Lpn(1), t(0));
        // Both expired at t=31, but dirty (2) ≤ threshold (2): gated.
        assert!(c.flusher_tick(t(31)).lpns.is_empty());
        assert_eq!(c.dirty_count(), 2);
        // A third dirty page crosses the threshold: every expired page
        // flushes, the young one stays.
        c.write(Lpn(2), t(32));
        let batch = c.flusher_tick(t(33));
        assert_eq!(batch.lpns, vec![Lpn(0), Lpn(1)]);
        assert_eq!(c.dirty_count(), 1);
    }

    #[test]
    fn unexpired_pages_never_flush_even_over_threshold() {
        let mut c = cache(20); // threshold 2
        for i in 0..5u64 {
            c.write(Lpn(i), t(i));
        }
        // Over threshold but nothing expired: the flusher waits.
        assert!(c.flusher_tick(t(6)).lpns.is_empty());
        assert_eq!(c.dirty_count(), 5);
    }

    #[test]
    fn full_cache_forces_dirty_writeback() {
        let mut c = cache(2);
        c.write(Lpn(0), t(0));
        c.write(Lpn(1), t(1));
        let effect = c.write(Lpn(2), t(2));
        assert_eq!(effect.forced_writebacks, vec![Lpn(0)]);
        assert_eq!(c.len(), 2);
        assert!(!c.contains(Lpn(0)));
        assert_eq!(c.stats().forced_writebacks, 1);
    }

    #[test]
    fn clean_pages_evicted_before_dirty() {
        let mut c = cache(2);
        c.write(Lpn(0), t(0));
        c.flusher_tick(t(31)); // Lpn(0) now clean
        c.write(Lpn(1), t(32));
        let effect = c.write(Lpn(2), t(33));
        assert!(effect.forced_writebacks.is_empty());
        assert!(!c.contains(Lpn(0)), "clean page evicted silently");
        assert_eq!(c.stats().clean_evictions, 1);
    }

    #[test]
    fn read_hit_and_miss() {
        let mut c = cache(4);
        c.write(Lpn(1), t(0));
        assert!(c.read(Lpn(1), t(1)));
        assert!(!c.read(Lpn(2), t(2)));
        // Miss cached the page clean.
        assert!(c.contains(Lpn(2)));
        assert!(!c.is_dirty(Lpn(2)));
        assert_eq!(c.stats().read_hits, 1);
        assert_eq!(c.stats().read_misses, 1);
    }

    #[test]
    fn read_miss_on_all_dirty_cache_does_not_evict() {
        let mut c = cache(2);
        c.write(Lpn(0), t(0));
        c.write(Lpn(1), t(1));
        assert!(!c.read(Lpn(2), t(2)));
        assert!(!c.contains(Lpn(2)), "no room without evicting dirty data");
        assert_eq!(c.dirty_count(), 2);
    }

    #[test]
    fn lru_clean_eviction_order_respects_recency() {
        let mut c = cache(3);
        c.write(Lpn(0), t(0));
        c.write(Lpn(1), t(1));
        c.flusher_tick(t(40)); // both clean
                               // Touch Lpn(0) so Lpn(1) becomes LRU.
        assert!(c.read(Lpn(0), t(41)));
        c.write(Lpn(2), t(42));
        c.write(Lpn(3), t(43)); // must evict clean LRU = Lpn(1)
        assert!(c.contains(Lpn(0)));
        assert!(!c.contains(Lpn(1)));
    }

    #[test]
    fn dirty_pages_scan_is_oldest_first() {
        let mut c = cache(8);
        c.write(Lpn(3), t(2));
        c.write(Lpn(1), t(1));
        c.write(Lpn(2), t(3));
        let scan: Vec<(Lpn, SimTime)> = c.dirty_pages().collect();
        assert_eq!(scan, vec![(Lpn(1), t(1)), (Lpn(3), t(2)), (Lpn(2), t(3))]);
    }

    #[test]
    fn flush_exactly_at_expiry_boundary() {
        let mut c = cache(8);
        c.write(Lpn(1), t(0));
        // age == τ_expire counts as expired ("older than" is inclusive at
        // flusher granularity, matching the paper's Fig. 4 where pages
        // expire at the first wake-up at or after their deadline).
        let batch = c.flusher_tick(t(30));
        assert_eq!(batch.lpns, vec![Lpn(1)]);
    }

    #[test]
    fn same_timestamp_writes_flush_in_write_order() {
        let mut c = cache(8);
        c.write(Lpn(9), t(0));
        c.write(Lpn(4), t(0));
        c.write(Lpn(7), t(0));
        let batch = c.flusher_tick(t(30));
        assert_eq!(batch.lpns, vec![Lpn(9), Lpn(4), Lpn(7)]);
    }

    #[test]
    fn stats_total_writebacks() {
        let mut c = cache(2);
        c.write(Lpn(0), t(0));
        c.write(Lpn(1), t(1));
        c.write(Lpn(2), t(2)); // forced
        c.flusher_tick(t(40)); // expiry flushes
        let s = c.stats();
        assert_eq!(s.throttled_writebacks, 0);
        assert!(s.forced_writebacks >= 1 && s.flushed_expired >= 1);
        assert!(s.forced_writebacks + s.flushed_expired >= 2);
    }

    #[test]
    fn out_of_order_timestamps_keep_dirty_list_sorted() {
        // Requests overlapping at queue depth > 1 can reach the cache
        // with non-monotone timestamps; the dirty list must still be
        // oldest-first.
        let mut c = cache(8);
        c.write(Lpn(0), t(10));
        c.write(Lpn(1), t(5));
        c.write(Lpn(2), t(7));
        let scan: Vec<(Lpn, SimTime)> = c.dirty_pages().collect();
        assert_eq!(scan, vec![(Lpn(1), t(5)), (Lpn(2), t(7)), (Lpn(0), t(10))]);
        let batch = c.flusher_tick(t(40));
        assert_eq!(batch.lpns, vec![Lpn(1), Lpn(2), Lpn(0)]);
    }

    #[test]
    fn slots_are_recycled_not_leaked() {
        let mut c = cache(4);
        for round in 0..50u64 {
            for i in 0..4u64 {
                c.write(Lpn(i), t(round));
            }
            c.flusher_tick(t(round) + SimDuration::from_secs(31));
            for i in 0..4u64 {
                c.invalidate(Lpn(i));
            }
        }
        assert!(c.is_empty());
        // The slab never grew beyond the configured capacity.
        assert!(c.slots.len() <= 4, "slab leaked slots: {}", c.slots.len());
    }

    #[test]
    #[should_panic(expected = "the flusher phase can only move while no page is dirty")]
    fn moving_the_phase_under_a_dirty_page_panics() {
        let mut c = cache(8);
        c.write(Lpn(1), t(0));
        c.set_flusher_phase(SimDuration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "must be shorter than the period")]
    fn a_phase_of_a_whole_period_panics() {
        let mut c = cache(8);
        let p = c.config().flusher_period();
        c.set_flusher_phase(p);
    }

    #[test]
    fn epoch_is_the_first_wake_up_at_or_after_the_write() {
        let mut c = cache(8);
        c.set_flusher_phase(SimDuration::from_secs(2)); // wakes at 2, 7, 12…
        assert_eq!(c.flusher_phase(), SimDuration::from_secs(2));
        for (lpn, at_secs) in [(0, 0), (1, 2), (2, 3), (3, 7), (4, 8)] {
            c.write(Lpn(lpn), t(at_secs));
        }
        let epochs: Vec<(u64, u64)> = c.dirty_epochs().collect();
        assert_eq!(epochs, vec![(0, 2), (1, 2), (2, 1)]);
    }

    #[test]
    fn epoch_counters_match_dirty_scan_under_churn() {
        for phase_us in [0, 1, 1_300_000, 4_999_999] {
            epoch_counters_match_dirty_scan(phase_us);
        }
    }

    fn epoch_counters_match_dirty_scan(phase_us: u64) {
        let mut c = cache(6);
        c.set_flusher_phase(SimDuration::from_micros(phase_us));
        let p_us = c.config().flusher_period().as_micros();
        for step in 0..400u64 {
            let lpn = Lpn(step % 11);
            // Sub-second timestamps so epochs straddle period boundaries.
            let now = SimTime::from_micros(step * 1_700_000);
            match step % 6 {
                0..=2 => {
                    c.write(lpn, now);
                }
                3 => {
                    c.read(lpn, now);
                }
                4 => {
                    c.invalidate(lpn);
                }
                _ => {
                    c.flusher_tick(now);
                }
            }
            let mut scanned: std::collections::BTreeMap<u64, u64> = Default::default();
            for (_, at) in c.dirty_pages() {
                // The first wake-up `phase + e·p` at or after `at`.
                let e = (0..)
                    .find(|e| phase_us + e * p_us >= at.as_micros())
                    .unwrap();
                *scanned.entry(e).or_insert(0) += 1;
            }
            let mut counted: std::collections::BTreeMap<u64, u64> = Default::default();
            for (e, n) in c.dirty_epochs() {
                assert!(n > 0, "zero bucket retained at step {step}");
                counted.insert(e, n);
            }
            assert_eq!(counted, scanned, "epoch histogram desynced at {step}");
            // The dirty-LPN bitmap tracks exactly the dirty set.
            let words = c.dirty_lpn_words();
            let popcount: u64 = words.iter().map(|w| u64::from(w.count_ones())).sum();
            assert_eq!(popcount, c.dirty_count(), "bitmap popcount at {step}");
            for (lpn, _) in c.dirty_pages() {
                assert_ne!(
                    words[(lpn.0 / 64) as usize] & (1 << (lpn.0 % 64)),
                    0,
                    "dirty {lpn:?} missing from bitmap at {step}"
                );
            }
        }
    }

    #[test]
    fn mixed_churn_preserves_list_integrity() {
        // Interleave every mutating operation and re-derive the dirty
        // count from a full scan each step.
        let mut c = cache(6);
        let mut expect_present: std::collections::BTreeSet<u64> = Default::default();
        for step in 0..200u64 {
            let lpn = Lpn(step % 9);
            match step % 5 {
                0 | 1 => {
                    c.write(lpn, t(step));
                    expect_present.insert(lpn.0);
                }
                2 => {
                    c.read(lpn, t(step));
                }
                3 => {
                    c.invalidate(lpn);
                    expect_present.remove(&lpn.0);
                }
                _ => {
                    c.flusher_tick(t(step));
                }
            }
            let scanned = c.dirty_pages().count() as u64;
            assert_eq!(scanned, c.dirty_count(), "dirty list desynced at {step}");
            assert!(c.len() as u64 <= 6);
            // The scan is sorted oldest-first.
            let ages: Vec<SimTime> = c.dirty_pages().map(|(_, at)| at).collect();
            assert!(ages.windows(2).all(|w| w[0] <= w[1]));
        }
    }
}
