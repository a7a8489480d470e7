//! Per-block page state: the page lifecycle, the 16-byte block header and
//! the borrowed [`Block`] view over one block of the device's flat tables.

use crate::Lpn;

/// The lifecycle state of one physical page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageState {
    /// Erased and programmable (once).
    Free,
    /// Programmed and holding the live copy of some LPN.
    Valid,
    /// Programmed but superseded; space is reclaimable only by erasing the
    /// whole block.
    Invalid,
}

/// OOB entry of a page that has never been programmed. Logical page
/// numbers at or above it do not fit an OOB entry and are refused by
/// [`NandDevice::program`](crate::NandDevice::program).
pub(crate) const NO_LPN: u32 = u32::MAX;

/// What the device stores per erase block: the sequential write pointer,
/// the valid-page count and the erase counter. Pages at or past
/// `write_ptr` are free, so *Free* is never stored per page.
#[derive(Debug, Clone, Copy, Default)]
struct BlockHeader {
    write_ptr: u32,
    valid: u32,
    erase_count: u64,
}

/// Every block's page state, as three flat arrays for the whole device:
/// one OOB entry per physical page (indexed by PPN), one validity bit per
/// page, and one [`BlockHeader`] per block.
///
/// With sequential programming a page is free exactly when its offset is
/// at or past the block's write pointer, so the only per-page state left
/// to store is *Valid* vs *Invalid*. A validity bit is set only below
/// the write pointer; a block's bits start on a word boundary.
///
/// The tables hold state only: addressing, error reporting, fault
/// injection, timing and counters are [`NandDevice`](crate::NandDevice)'s.
#[derive(Debug, Clone)]
pub(crate) struct PageTables {
    headers: Vec<BlockHeader>,
    oob: Vec<u32>,
    valid_bits: Vec<u64>,
    pages_per_block: u32,
    words_per_block: u32,
}

impl PageTables {
    /// Tables of an erased device.
    ///
    /// # Panics
    ///
    /// Panics unless `blocks × pages_per_block` is below `u32::MAX`: a
    /// page index must fit the 32-bit entries the FTL maps to.
    pub(crate) fn new(blocks: u32, pages_per_block: u32) -> Self {
        let pages = u64::from(blocks) * u64::from(pages_per_block);
        assert!(
            pages < u64::from(u32::MAX),
            "device of {pages} pages does not fit 32-bit page tables"
        );
        let words_per_block = pages_per_block.div_ceil(64);
        PageTables {
            headers: vec![BlockHeader::default(); blocks as usize],
            oob: vec![NO_LPN; pages as usize],
            valid_bits: vec![0; blocks as usize * words_per_block as usize],
            pages_per_block,
            words_per_block,
        }
    }

    /// The view of block `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub(crate) fn block(&self, id: u32) -> Block<'_> {
        Block {
            tables: self,
            header: &self.headers[id as usize],
            id,
        }
    }

    /// Erase counts of every block, in block order.
    pub(crate) fn erase_counts(&self) -> impl Iterator<Item = u64> + '_ {
        self.headers.iter().map(|h| h.erase_count)
    }

    /// Device-wide `(valid, invalid, free)` page counts, summed over the
    /// block headers.
    pub(crate) fn recount(&self) -> (u64, u64, u64) {
        let (valid, programmed) = self.headers.iter().fold((0, 0), |(v, p), h| {
            (v + u64::from(h.valid), p + u64::from(h.write_ptr))
        });
        (
            valid,
            programmed - valid,
            self.oob.len() as u64 - programmed,
        )
    }

    /// Word index and mask of a page's validity bit.
    fn bit(&self, block: u32, offset: u32) -> (usize, u64) {
        debug_assert!(offset < self.pages_per_block);
        let word = block as usize * self.words_per_block as usize + (offset / 64) as usize;
        (word, 1 << (offset % 64))
    }

    /// Programs the block's next sequential page with `lpn` in its OOB
    /// entry and returns the offset programmed. With `valid` clear the
    /// page is consumed — programmed and immediately invalid — which is
    /// what a failed program leaves behind.
    ///
    /// # Panics
    ///
    /// Panics if the block is full.
    pub(crate) fn program_next(&mut self, block: u32, lpn: u32, valid: bool) -> u32 {
        let offset = self.headers[block as usize].write_ptr;
        assert!(offset < self.pages_per_block, "program of a full block");
        self.oob[block as usize * self.pages_per_block as usize + offset as usize] = lpn;
        if valid {
            let (word, mask) = self.bit(block, offset);
            self.valid_bits[word] |= mask;
        }
        let header = &mut self.headers[block as usize];
        header.write_ptr += 1;
        header.valid += u32::from(valid);
        offset
    }

    /// Marks the page at `offset` of `block` invalid; `false` (and no
    /// change) unless it was valid.
    pub(crate) fn invalidate(&mut self, block: u32, offset: u32) -> bool {
        let (word, mask) = self.bit(block, offset);
        let was_valid = self.valid_bits[word] & mask != 0;
        if was_valid {
            self.valid_bits[word] &= !mask;
            self.headers[block as usize].valid -= 1;
        }
        was_valid
    }

    /// Moves the valid pages of block `src` that `select` keeps (every one
    /// for `None`, else one mask per validity word) to the next pages of
    /// block `dst`, lowest offset first, walking `src`'s validity words
    /// once. The two blocks must differ.
    ///
    /// Before each page, `page(room)` hears how many pages `dst` has
    /// left and decides the page's fate: `None` stops the copy in front
    /// of it, changing nothing; `Some(failed)` (at most `room`) says that
    /// many programs failed before one succeeded, each consuming a
    /// destination page under the page's OOB entry — unless `failed` is
    /// `room`: then the page used up the destination without landing,
    /// stays valid in `src`, and the copy stops with [`Moved::pending`].
    /// `placed(entry, offset)` hears of each page that landed.
    ///
    /// OOB entries move page by page; validity bits are cleared in `src`
    /// and set in `dst` a word at a time, and both headers are updated
    /// once.
    pub(crate) fn copy_valid(
        &mut self,
        src: u32,
        select: Option<&[u64]>,
        dst: u32,
        mut page: impl FnMut(u32) -> Option<u32>,
        mut placed: impl FnMut(u32, u32),
    ) -> Moved {
        debug_assert_ne!(src, dst, "a block is copied into another one");
        let per_block = self.pages_per_block as usize;
        let words = self.words_per_block as usize;
        let (src_oob, dst_oob) = (src as usize * per_block, dst as usize * per_block);
        let (src_bits, dst_bits) = (src as usize * words, dst as usize * words);
        let mut write_ptr = self.headers[dst as usize].write_ptr;
        let mut out = Moved::default();
        let mut stopped = false;
        // The destination word being filled, and its bits set so far.
        let (mut dst_word, mut dst_set) = (write_ptr / 64, 0u64);
        for w in 0..words {
            let mut bits = self.valid_bits[src_bits + w] & select.map_or(u64::MAX, |s| s[w]);
            let mut cleared = 0u64;
            while bits != 0 {
                let offset = w * 64 + bits.trailing_zeros() as usize;
                let room = self.pages_per_block - write_ptr;
                let Some(failed) = page(room) else {
                    stopped = true;
                    break;
                };
                debug_assert!(failed <= room, "{failed} failed programs in {room} pages");
                let entry = self.oob[src_oob + offset];
                let at = dst_oob + write_ptr as usize;
                self.oob[at..at + failed as usize].fill(entry);
                write_ptr += failed;
                out.consumed += failed;
                if failed == room {
                    (out.pending, stopped) = (true, true);
                    break;
                }
                self.oob[at + failed as usize] = entry;
                if write_ptr / 64 != dst_word {
                    self.valid_bits[dst_bits + dst_word as usize] |= dst_set;
                    (dst_word, dst_set) = (write_ptr / 64, 0);
                }
                dst_set |= 1 << (write_ptr % 64);
                placed(entry, write_ptr);
                write_ptr += 1;
                cleared |= bits & bits.wrapping_neg();
                bits &= bits - 1;
                out.moved += 1;
            }
            self.valid_bits[src_bits + w] &= !cleared;
            if stopped {
                break;
            }
        }
        if dst_set != 0 {
            self.valid_bits[dst_bits + dst_word as usize] |= dst_set;
        }
        self.headers[src as usize].valid -= out.moved;
        let header = &mut self.headers[dst as usize];
        header.write_ptr = write_ptr;
        header.valid += out.moved;
        out
    }

    /// Erases `block`: every page becomes free, the write pointer resets
    /// and the erase counter increments. The OOB entries are left as they
    /// were — the write pointer already says they describe nothing.
    pub(crate) fn erase(&mut self, block: u32) {
        let words = self.words_per_block as usize;
        self.valid_bits[block as usize * words..][..words].fill(0);
        let header = &mut self.headers[block as usize];
        header.write_ptr = 0;
        header.valid = 0;
        header.erase_count += 1;
    }
}

/// What one [`PageTables::copy_valid`] did.
#[derive(Debug, Default)]
pub(crate) struct Moved {
    /// Pages that landed in the destination (and left the source).
    pub(crate) moved: u32,
    /// Destination pages consumed by failed programs.
    pub(crate) consumed: u32,
    /// It stopped on a page that used up the destination without landing.
    pub(crate) pending: bool,
}

/// A read-only view of one erase block: page states, OOB metadata, the
/// sequential write pointer, and the erase counter.
///
/// The device owns every block's state in flat per-page tables;
/// [`NandDevice::block`](crate::NandDevice::block) hands out this `Copy`
/// view over one block's share of them. Flash physics (sequential
/// programming, erase-before-write) is enforced by the device's mutating
/// operations.
///
/// # Example
///
/// ```
/// use jitgc_nand::{BlockId, Geometry, Lpn, NandDevice, NandTiming, PageState, Ppn};
///
/// # fn main() -> Result<(), jitgc_nand::NandError> {
/// let geometry = Geometry::builder().blocks(1).pages_per_block(4).build();
/// let mut device = NandDevice::new(geometry, NandTiming::mlc_20nm());
/// device.program(Ppn(0), Lpn(9))?;
/// let block = device.block(BlockId(0));
/// assert_eq!(block.page_state(0), PageState::Valid);
/// assert_eq!(block.page_lpn(0), Some(Lpn(9)));
/// assert_eq!(block.valid_pages(), 1);
/// device.erase(BlockId(0))?;
/// let block = device.block(BlockId(0));
/// assert_eq!(block.page_state(0), PageState::Free);
/// assert_eq!(block.erase_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Block<'a> {
    tables: &'a PageTables,
    header: &'a BlockHeader,
    id: u32,
}

impl<'a> Block<'a> {
    /// Number of pages in the block.
    #[must_use]
    pub fn pages(self) -> u32 {
        self.tables.pages_per_block
    }

    /// State of the page at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is out of range.
    #[must_use]
    pub fn page_state(self, offset: u32) -> PageState {
        assert!(offset < self.pages(), "offset {offset} beyond block");
        let (word, mask) = self.tables.bit(self.id, offset);
        if offset >= self.header.write_ptr {
            PageState::Free
        } else if self.tables.valid_bits[word] & mask != 0 {
            PageState::Valid
        } else {
            PageState::Invalid
        }
    }

    /// OOB-recorded owner LPN of the page at `offset` (present for
    /// programmed pages, `None` for free ones).
    ///
    /// # Panics
    ///
    /// Panics if `offset` is out of range.
    #[must_use]
    pub fn page_lpn(self, offset: u32) -> Option<Lpn> {
        assert!(offset < self.pages(), "offset {offset} beyond block");
        // An erase leaves the OOB table as it was: a free page's entry is
        // stale, and only the write pointer says so.
        (offset < self.header.write_ptr).then(|| Lpn(u64::from(self.oob()[offset as usize])))
    }

    /// The offset the next program must target, or `None` when full.
    #[must_use]
    pub fn next_free_offset(self) -> Option<u32> {
        (!self.is_full()).then_some(self.header.write_ptr)
    }

    /// Pages programmed since the last erase: the offsets below it hold
    /// data (valid or stale), the ones from it on are free.
    pub(crate) fn write_ptr(self) -> u32 {
        self.header.write_ptr
    }

    /// Number of program/erase cycles this block has endured.
    #[must_use]
    pub fn erase_count(self) -> u64 {
        self.header.erase_count
    }

    /// Number of pages currently valid.
    #[must_use]
    pub fn valid_pages(self) -> u32 {
        self.header.valid
    }

    /// Number of pages currently invalid.
    #[must_use]
    pub fn invalid_pages(self) -> u32 {
        self.header.write_ptr - self.header.valid
    }

    /// Number of pages still free (programmable).
    #[must_use]
    pub fn free_pages(self) -> u32 {
        self.pages() - self.header.write_ptr
    }

    /// `true` when every page has been programmed since the last erase.
    #[must_use]
    pub fn is_full(self) -> bool {
        self.header.write_ptr == self.pages()
    }

    /// `true` when no page has been programmed since the last erase.
    #[must_use]
    pub fn is_erased(self) -> bool {
        self.header.write_ptr == 0
    }

    /// Iterates `(offset, state, oob_lpn)` for every page.
    pub fn iter_pages(self) -> impl Iterator<Item = (u32, PageState, Option<Lpn>)> + 'a {
        (0..self.pages()).map(move |o| (o, self.page_state(o), self.page_lpn(o)))
    }

    /// Iterates the offsets and LPNs of all currently valid pages, in
    /// ascending offset order — the set GC must migrate before erasing
    /// this block. Walks the set bits of the block's validity words, so
    /// it costs a step per valid page, not per page.
    pub fn valid_lpns(self) -> impl Iterator<Item = (u32, Lpn)> + 'a {
        let oob = self.oob();
        let words = self.tables.words_per_block as usize;
        let mut words = self.tables.valid_bits[self.id as usize * words..][..words]
            .iter()
            .zip((0u32..).step_by(64));
        // The word being walked: its first offset, and its bits not yet
        // yielded.
        let (mut first, mut bits) = (0u32, 0u64);
        std::iter::from_fn(move || {
            while bits == 0 {
                let (&word, offset) = words.next()?;
                (first, bits) = (offset, word);
            }
            let offset = first + bits.trailing_zeros();
            bits &= bits - 1;
            Some((offset, Lpn(u64::from(oob[offset as usize]))))
        })
    }

    /// This block's share of the OOB table.
    fn oob(self) -> &'a [u32] {
        let pages = self.pages() as usize;
        &self.tables.oob[self.id as usize * pages..][..pages]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockId, Geometry, NandDevice, NandError, NandTiming, Ppn};

    /// A device of exactly one block, so a PPN is a page offset.
    fn one_block(pages: u32) -> NandDevice {
        NandDevice::new(
            Geometry::builder().blocks(1).pages_per_block(pages).build(),
            NandTiming::mlc_20nm(),
        )
    }

    fn block(dev: &NandDevice) -> Block<'_> {
        dev.block(BlockId(0))
    }

    /// Programs the block's next sequential page and returns its offset.
    fn program_next(dev: &mut NandDevice, lpn: Lpn) -> Result<u32, NandError> {
        let offset = block(dev)
            .next_free_offset()
            .unwrap_or(block(dev).pages() - 1);
        dev.program(Ppn(u64::from(offset)), lpn).map(|_| offset)
    }

    #[test]
    fn fresh_block_is_erased() {
        let dev = one_block(4);
        let b = block(&dev);
        assert!(b.is_erased());
        assert!(!b.is_full());
        assert_eq!(b.valid_pages(), 0);
        assert_eq!(b.invalid_pages(), 0);
        assert_eq!(b.free_pages(), 4);
        assert_eq!(b.erase_count(), 0);
        assert_eq!(b.next_free_offset(), Some(0));
    }

    #[test]
    fn sequential_program_fills_block() {
        let mut dev = one_block(3);
        for i in 0..3 {
            let off = program_next(&mut dev, Lpn(i)).expect("block has space");
            assert_eq!(off, i as u32);
        }
        assert!(block(&dev).is_full());
        assert_eq!(block(&dev).next_free_offset(), None);
        assert_eq!(block(&dev).valid_pages(), 3);
        assert!(matches!(
            program_next(&mut dev, Lpn(9)),
            Err(NandError::ProgramProgrammedPage { .. })
        ));
    }

    #[test]
    fn invalidate_tracks_counts() {
        let mut dev = one_block(4);
        program_next(&mut dev, Lpn(0)).expect("space");
        program_next(&mut dev, Lpn(1)).expect("space");
        dev.invalidate(Ppn(0)).expect("page 0 valid");
        let b = block(&dev);
        assert_eq!(b.valid_pages(), 1);
        assert_eq!(b.invalid_pages(), 1);
        assert_eq!(b.free_pages(), 2);
        assert_eq!(b.page_state(0), PageState::Invalid);
    }

    #[test]
    fn invalidate_rejects_free_and_invalid() {
        let mut dev = one_block(4);
        assert!(dev.invalidate(Ppn(0)).is_err()); // free
        program_next(&mut dev, Lpn(0)).expect("space");
        dev.invalidate(Ppn(0)).expect("valid");
        assert!(dev.invalidate(Ppn(0)).is_err()); // already invalid
        assert!(dev.invalidate(Ppn(99)).is_err()); // out of range
    }

    #[test]
    fn erase_resets_everything_and_counts() {
        let mut dev = one_block(2);
        program_next(&mut dev, Lpn(5)).expect("space");
        program_next(&mut dev, Lpn(6)).expect("space");
        dev.invalidate(Ppn(0)).expect("valid");
        dev.erase(BlockId(0)).expect("in range");
        let b = block(&dev);
        assert!(b.is_erased());
        assert_eq!(b.erase_count(), 1);
        assert_eq!(b.page_lpn(0), None);
        assert_eq!(b.valid_pages(), 0);
        // Programmable again after erase.
        assert_eq!(program_next(&mut dev, Lpn(7)).expect("space"), 0);
    }

    #[test]
    fn oob_records_owner() {
        let mut dev = one_block(2);
        program_next(&mut dev, Lpn(42)).expect("space");
        assert_eq!(block(&dev).page_lpn(0), Some(Lpn(42)));
        assert_eq!(block(&dev).page_lpn(1), None);
    }

    #[test]
    fn valid_lpns_lists_survivors() {
        let mut dev = one_block(4);
        for i in 0..4 {
            program_next(&mut dev, Lpn(i)).expect("space");
        }
        dev.invalidate(Ppn(1)).expect("valid");
        dev.invalidate(Ppn(3)).expect("valid");
        let survivors: Vec<(u32, Lpn)> = block(&dev).valid_lpns().collect();
        assert_eq!(survivors, vec![(0, Lpn(0)), (2, Lpn(2))]);
    }

    #[test]
    fn iter_pages_covers_all() {
        let mut dev = one_block(3);
        program_next(&mut dev, Lpn(1)).expect("space");
        let v: Vec<_> = block(&dev).iter_pages().collect();
        assert_eq!(v.len(), 3);
        assert_eq!(v[0], (0, PageState::Valid, Some(Lpn(1))));
        assert_eq!(v[1], (1, PageState::Free, None));
    }

    #[test]
    #[should_panic(expected = "`pages_per_block` must be greater than zero")]
    fn zero_page_block_panics() {
        let _ = one_block(0);
    }
}
