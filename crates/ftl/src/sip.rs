//! The soon-to-be-invalidated page (SIP) list.

use jitgc_nand::Lpn;

/// The set of logical pages expected to be invalidated shortly.
///
/// The paper's buffered-write predictor scans the page cache and reports
/// every dirty page's logical address: the flash copy of such a page will
/// become garbage as soon as the dirty page is flushed, so migrating it
/// during BGC is wasted work. The FTL uses this list to steer victim
/// selection away from blocks rich in soon-dead data (Sec. 3.3, Table 3).
///
/// # Representation
///
/// A plain bitmap over the logical page space: one bit per LPN in
/// `Vec<u64>` words, grown on demand. The predictor replaces the whole
/// set on every poll with one bulk copy of the page cache's dirty-LPN
/// bitmap ([`assign_words`](SipList::assign_words)), membership tests
/// from the victim scorer are a shift and a mask with no hashing, and the
/// backing storage is reused across polls.
///
/// # Example
///
/// ```
/// use jitgc_ftl::SipList;
/// use jitgc_nand::Lpn;
///
/// let sip: SipList = [Lpn(1), Lpn(5)].into_iter().collect();
/// assert!(sip.contains(Lpn(5)));
/// assert_eq!(sip.len(), 2);
/// ```
#[derive(Clone, Default)]
pub struct SipList {
    /// Bit `i` of `words[w]` set means `Lpn(w * 64 + i)` is on the list.
    words: Vec<u64>,
    len: usize,
}

impl SipList {
    /// Creates an empty list.
    #[must_use]
    pub fn new() -> Self {
        SipList::default()
    }

    /// Word `w` of the bitmap (0 past the backing storage).
    fn word(&self, w: usize) -> u64 {
        self.words.get(w).copied().unwrap_or(0)
    }

    /// `true` if `lpn` is expected to be invalidated soon.
    #[must_use]
    pub fn contains(&self, lpn: Lpn) -> bool {
        let (w, bit) = (lpn.0 / 64, lpn.0 % 64);
        self.word(w as usize) & (1 << bit) != 0
    }

    /// Adds a logical page; returns `false` if it was already present.
    pub fn insert(&mut self, lpn: Lpn) -> bool {
        let (w, mask) = ((lpn.0 / 64) as usize, 1 << (lpn.0 % 64));
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        if self.words[w] & mask != 0 {
            return false;
        }
        self.words[w] |= mask;
        self.len += 1;
        true
    }

    /// Removes a logical page (e.g. once the overwrite actually landed);
    /// returns `true` if it was present.
    pub fn remove(&mut self, lpn: Lpn) -> bool {
        let (w, mask) = ((lpn.0 / 64) as usize, 1 << (lpn.0 % 64));
        if self.word(w) & mask == 0 {
            return false;
        }
        self.words[w] &= !mask;
        self.len -= 1;
        true
    }

    /// Number of pages on the list.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the list is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates the listed logical pages in ascending address order.
    pub fn iter(&self) -> impl Iterator<Item = Lpn> + '_ {
        (0..self.words.len()).flat_map(move |w| {
            let mut bits = self.word(w);
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let bit = bits.trailing_zeros() as u64;
                bits &= bits - 1;
                Some(Lpn(w as u64 * 64 + bit))
            })
        })
    }

    /// Replaces the contents with a snapshot of a raw bitmap: bit
    /// `l % 64` of `words[l / 64]` set means `Lpn(l)` is present, and
    /// `len` is the number of set bits. One bulk copy instead of per-LPN
    /// inserts — this is how the predictor turns the page cache's
    /// dirty-LPN bitmap into the poll's SIP list.
    pub fn assign_words(&mut self, words: &[u64], len: usize) {
        self.words.clear();
        self.words.extend_from_slice(words);
        self.len = len;
        debug_assert_eq!(
            self.words
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>(),
            len,
            "assign_words len does not match the bitmap popcount"
        );
    }

    /// Removes every entry, keeping the backing storage.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }
}

impl PartialEq for SipList {
    /// Set equality: backing capacity is ignored.
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        let words = self.words.len().max(other.words.len());
        (0..words).all(|w| self.word(w) == other.word(w))
    }
}

impl Eq for SipList {}

impl std::fmt::Debug for SipList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<Lpn> for SipList {
    fn from_iter<T: IntoIterator<Item = Lpn>>(iter: T) -> Self {
        let mut sip = SipList::new();
        sip.extend(iter);
        sip
    }
}

impl Extend<Lpn> for SipList {
    fn extend<T: IntoIterator<Item = Lpn>>(&mut self, iter: T) {
        for lpn in iter {
            self.insert(lpn);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut sip = SipList::new();
        assert!(sip.insert(Lpn(1)));
        assert!(!sip.insert(Lpn(1)));
        assert!(sip.contains(Lpn(1)));
        assert!(sip.remove(Lpn(1)));
        assert!(!sip.remove(Lpn(1)));
        assert!(sip.is_empty());
    }

    #[test]
    fn collect_and_extend() {
        let mut sip: SipList = [Lpn(1), Lpn(2)].into_iter().collect();
        sip.extend([Lpn(3)]);
        assert_eq!(sip.len(), 3);
        let mut all: Vec<u64> = sip.iter().map(|l| l.0).collect();
        all.sort_unstable();
        assert_eq!(all, vec![1, 2, 3]);
    }

    #[test]
    fn clear_empties() {
        let mut sip: SipList = [Lpn(9)].into_iter().collect();
        sip.clear();
        assert!(sip.is_empty());
    }

    #[test]
    fn iter_is_ascending() {
        let sip: SipList = [Lpn(130), Lpn(2), Lpn(64), Lpn(63)].into_iter().collect();
        let all: Vec<u64> = sip.iter().map(|l| l.0).collect();
        assert_eq!(all, vec![2, 63, 64, 130]);
    }

    #[test]
    fn contains_past_backing_storage_is_false() {
        let sip: SipList = [Lpn(3)].into_iter().collect();
        assert!(!sip.contains(Lpn(1_000_000)));
        let mut sip = sip;
        assert!(!sip.remove(Lpn(1_000_000)));
    }

    #[test]
    fn clear_reuses_storage_without_ghosts() {
        let mut sip = SipList::new();
        for round in 0..5u64 {
            assert!(sip.is_empty());
            for i in 0..200u64 {
                assert!(
                    sip.insert(Lpn(i * 3 + round)),
                    "ghost bit from round {}",
                    round
                );
            }
            assert_eq!(sip.len(), 200);
            assert!(!sip.contains(Lpn(601 + round)));
            sip.clear();
            assert_eq!(sip, SipList::new(), "a word survived the clear");
        }
        assert!(!sip.contains(Lpn(3)));
    }

    #[test]
    fn equality_is_set_semantics() {
        let a: SipList = [Lpn(1), Lpn(200)].into_iter().collect();
        // Same contents via a different history: extra inserts + clears grow
        // the backing storage.
        let mut b = SipList::new();
        b.insert(Lpn(4_096));
        b.clear();
        b.insert(Lpn(200));
        b.insert(Lpn(1));
        assert_eq!(a, b);
        b.insert(Lpn(7));
        assert_ne!(a, b);
    }

    #[test]
    fn assign_words_snapshots_a_raw_bitmap() {
        let mut sip: SipList = [Lpn(900)].into_iter().collect();
        let words = [0b101u64, 0, 1 << 63];
        sip.assign_words(&words, 3);
        let all: Vec<u64> = sip.iter().map(|l| l.0).collect();
        assert_eq!(all, vec![0, 2, 191]);
        assert!(!sip.contains(Lpn(900)));
        // Matches the same set built by per-LPN inserts.
        let by_insert: SipList = [Lpn(0), Lpn(2), Lpn(191)].into_iter().collect();
        assert_eq!(sip, by_insert);
    }
}
