//! Incrementally maintained index of GC victim candidates.
//!
//! The FTL used to rebuild the full candidate list — every sealed block,
//! with its valid-page count — on **every** victim selection, an O(blocks)
//! scan plus a heap allocation on the hottest GC path. This index keeps
//! the same information up to date as a side effect of the events that
//! change it, so selection touches only the blocks that matter:
//!
//! * **seal** (an active block fills up and a fresh one is opened) —
//!   [`VictimIndex::insert`], O(1);
//! * **invalidate** (a host overwrite or TRIM kills a page) —
//!   [`VictimIndex::on_invalidate`] moves the block down one bucket, O(1);
//! * **victory** (the block is chosen for collection, or taken by wear
//!   leveling) — [`VictimIndex::remove`], O(1).
//!
//! Blocks are held in *buckets* keyed by their current valid-page count.
//! Greedy selection — the production default — reduces to "first
//! non-empty bucket below `pages_per_block`", which is O(pages_per_block)
//! worst case and O(1) in practice, independent of device size. Policies
//! that need more context (cost-benefit, FIFO, random) iterate the tracked
//! set in block-id order via [`VictimIndex::iter_ids`], which reproduces
//! the exact candidate sequence of the old full scan — the selection they
//! make is byte-identical, it just skips free/active/retired blocks
//! without querying them.
//!
//! Membership invariant: a block is tracked **iff** it is a GC candidate —
//! sealed (hence full), not free, not retired, not any active write
//! target, and not the in-progress background victim. The unit tests in
//! `ftl/mod.rs` check this against a full device scan after every operation of
//! generated streams (`victim_index_tracks_the_full_candidate_scan`).

use jitgc_nand::BlockId;

/// Sentinel in `valid_of` for blocks not currently tracked.
const UNTRACKED: u32 = u32::MAX;

/// Bucketed candidate index; see the [module docs](self).
#[derive(Debug)]
pub(crate) struct VictimIndex {
    /// `buckets[v]` holds every tracked block with exactly `v` valid
    /// pages, in arbitrary order (maintained by `swap_remove`).
    buckets: Vec<Vec<BlockId>>,
    /// Position of each tracked block inside its bucket.
    pos: Vec<u32>,
    /// Valid-page count of each tracked block, [`UNTRACKED`] otherwise.
    valid_of: Vec<u32>,
    /// Number of tracked blocks.
    tracked: usize,
}

impl VictimIndex {
    /// Creates an empty index for a device with `blocks` blocks of
    /// `pages_per_block` pages each.
    pub(crate) fn new(blocks: u32, pages_per_block: u32) -> Self {
        VictimIndex {
            buckets: vec![Vec::new(); pages_per_block as usize + 1],
            pos: vec![0; blocks as usize],
            valid_of: vec![UNTRACKED; blocks as usize],
            tracked: 0,
        }
    }

    /// Starts tracking a freshly sealed block with `valid` valid pages.
    ///
    /// # Panics
    ///
    /// Panics if the block is already tracked or `valid` exceeds the
    /// page count per block.
    pub(crate) fn insert(&mut self, block: BlockId, valid: u32) {
        let i = block.0 as usize;
        assert_eq!(
            self.valid_of[i], UNTRACKED,
            "block {block} inserted into the victim index twice"
        );
        assert!(
            (valid as usize) < self.buckets.len(),
            "valid count {valid} exceeds pages per block"
        );
        self.valid_of[i] = valid;
        self.pos[i] = self.buckets[valid as usize].len() as u32;
        self.buckets[valid as usize].push(block);
        self.tracked += 1;
    }

    /// Stops tracking `block` (it was chosen as a victim, or taken for
    /// wear leveling).
    ///
    /// # Panics
    ///
    /// Panics if the block is not tracked.
    pub(crate) fn remove(&mut self, block: BlockId) {
        let i = block.0 as usize;
        let valid = self.valid_of[i];
        assert_ne!(
            valid, UNTRACKED,
            "block {block} removed from the victim index but never tracked"
        );
        self.detach(block, valid);
        self.valid_of[i] = UNTRACKED;
        self.tracked -= 1;
    }

    /// Notes that one page of `block` was invalidated, moving it down a
    /// bucket. A no-op for untracked blocks (active blocks and the
    /// in-progress background victim take invalidations too).
    pub(crate) fn on_invalidate(&mut self, block: BlockId) {
        let i = block.0 as usize;
        let valid = self.valid_of[i];
        if valid == UNTRACKED {
            return;
        }
        debug_assert!(valid > 0, "invalidate on a block with no valid pages");
        self.detach(block, valid);
        let v = valid - 1;
        self.valid_of[i] = v;
        self.pos[i] = self.buckets[v as usize].len() as u32;
        self.buckets[v as usize].push(block);
    }

    /// Unlinks `block` from bucket `valid`, fixing up the displaced tail
    /// entry's position.
    fn detach(&mut self, block: BlockId, valid: u32) {
        let bucket = &mut self.buckets[valid as usize];
        let p = self.pos[block.0 as usize] as usize;
        debug_assert_eq!(bucket[p], block, "victim index position desynced");
        bucket.swap_remove(p);
        if let Some(&moved) = bucket.get(p) {
            self.pos[moved.0 as usize] = p as u32;
        }
    }

    /// `true` when `block` is currently tracked as a candidate.
    pub(crate) fn is_tracked(&self, block: BlockId) -> bool {
        self.valid_of[block.0 as usize] != UNTRACKED
    }

    /// Number of tracked candidate blocks.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn len(&self) -> usize {
        self.tracked
    }

    /// Number of pages per block (bucket `pages_per_block` holds the
    /// fully-valid blocks greedy selection never picks).
    pub(crate) fn pages_per_block(&self) -> u32 {
        (self.buckets.len() - 1) as u32
    }

    /// The tracked blocks holding exactly `valid` valid pages, in
    /// arbitrary order.
    pub(crate) fn bucket(&self, valid: u32) -> &[BlockId] {
        &self.buckets[valid as usize]
    }

    /// Iterates `(block, valid_count)` over all tracked blocks in
    /// ascending block-id order — the same candidate order a full device
    /// scan produces.
    pub(crate) fn iter_ids(&self) -> impl Iterator<Item = (BlockId, u32)> + '_ {
        self.valid_of
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v != UNTRACKED)
            .map(|(i, &v)| (BlockId(i as u32), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(index: &VictimIndex) -> Vec<(u32, u32)> {
        index.iter_ids().map(|(b, v)| (b.0, v)).collect()
    }

    #[test]
    fn insert_and_iterate_in_id_order() {
        let mut idx = VictimIndex::new(8, 4);
        idx.insert(BlockId(5), 2);
        idx.insert(BlockId(1), 4);
        idx.insert(BlockId(3), 0);
        assert_eq!(ids(&idx), vec![(1, 4), (3, 0), (5, 2)]);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.pages_per_block(), 4);
    }

    #[test]
    fn buckets_hold_equal_valid_counts() {
        let mut idx = VictimIndex::new(8, 4);
        idx.insert(BlockId(0), 2);
        idx.insert(BlockId(4), 2);
        idx.insert(BlockId(2), 3);
        let mut b2: Vec<u32> = idx.bucket(2).iter().map(|b| b.0).collect();
        b2.sort_unstable();
        assert_eq!(b2, vec![0, 4]);
        assert_eq!(idx.bucket(3), &[BlockId(2)]);
        assert!(idx.bucket(0).is_empty());
    }

    #[test]
    fn invalidate_moves_down_one_bucket() {
        let mut idx = VictimIndex::new(4, 4);
        idx.insert(BlockId(1), 3);
        idx.on_invalidate(BlockId(1));
        idx.on_invalidate(BlockId(1));
        assert_eq!(ids(&idx), vec![(1, 1)]);
        assert_eq!(idx.bucket(1), &[BlockId(1)]);
        assert!(idx.bucket(3).is_empty());
    }

    #[test]
    fn invalidate_of_untracked_block_is_noop() {
        let mut idx = VictimIndex::new(4, 4);
        idx.on_invalidate(BlockId(2));
        assert_eq!(idx.len(), 0);
    }

    #[test]
    fn remove_untracks_and_fixes_positions() {
        let mut idx = VictimIndex::new(8, 4);
        // Three blocks in the same bucket so swap_remove relocates one.
        idx.insert(BlockId(0), 1);
        idx.insert(BlockId(1), 1);
        idx.insert(BlockId(2), 1);
        idx.remove(BlockId(0));
        assert!(!idx.is_tracked(BlockId(0)));
        assert_eq!(idx.len(), 2);
        // The survivors must still move buckets correctly.
        idx.on_invalidate(BlockId(2));
        idx.on_invalidate(BlockId(1));
        assert_eq!(ids(&idx), vec![(1, 0), (2, 0)]);
    }

    #[test]
    fn reinsert_after_remove_is_allowed() {
        let mut idx = VictimIndex::new(4, 4);
        idx.insert(BlockId(3), 2);
        idx.remove(BlockId(3));
        idx.insert(BlockId(3), 4);
        assert_eq!(ids(&idx), vec![(3, 4)]);
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn double_insert_panics() {
        let mut idx = VictimIndex::new(4, 4);
        idx.insert(BlockId(0), 1);
        idx.insert(BlockId(0), 2);
    }

    #[test]
    #[should_panic(expected = "never tracked")]
    fn remove_of_untracked_panics() {
        let mut idx = VictimIndex::new(4, 4);
        idx.remove(BlockId(0));
    }
}
