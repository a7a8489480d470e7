//! The free-block pool, ordered by wear.
//!
//! Opening a block takes the least-worn free block, and static wear
//! leveling steers its relocation into the most-worn one; ties go to the
//! lower block id either way. Both picks used to scan the whole pool, so
//! aging a fresh device — thousands of block openings while the pool
//! drains — cost time quadratic in its size. Here the pool is ordered by
//! `(erase_count, block)`: the least-worn pick is its first entry and the
//! most-worn its last.
//!
//! The picks are exactly the scans' picks. The keys are unique (one per
//! block), and a free block's erase count cannot change while it is free:
//! only an erase changes it, and only a block in use is erased. The count
//! recorded when a block is released therefore stays its current wear
//! until the pool hands it out again.
//!
//! The pool is held in two parts. A released block has just been erased,
//! so its count is at least 1, and it goes into an ordered set. The blocks
//! never erased all have count 0, so they come before every released one.
//! They stay a contiguous range of ids: the least-worn pick takes the
//! lowest id, and the most-worn pick takes the highest id, and only when
//! the set is empty. A fresh device's pool is therefore a range, built
//! without allocating, and aging it takes blocks off the range in O(1).
//! The tests below hold the pool to the linear `min_by_key` /
//! `max_by_key` scans it replaced.

use jitgc_nand::BlockId;
use std::collections::BTreeSet;
use std::ops::Range;

/// Free blocks in `(erase_count, block)` order; see the
/// [module docs](self).
#[derive(Debug)]
pub(crate) struct FreePool {
    /// Free blocks never erased: erase count 0, ids in this range.
    unworn: Range<u32>,
    /// Free blocks erased at least once, keyed by `(erase_count, block)`.
    worn: BTreeSet<(u64, BlockId)>,
}

impl FreePool {
    /// A pool holding blocks `0..blocks`, none of them worn yet.
    pub(crate) fn unworn(blocks: u32) -> Self {
        FreePool {
            unworn: 0..blocks,
            worn: BTreeSet::new(),
        }
    }

    /// Number of free blocks.
    pub(crate) fn len(&self) -> usize {
        self.unworn.len() + self.worn.len()
    }

    /// Returns `block`, just erased for the `erase_count`-th time, to the
    /// pool.
    pub(crate) fn release(&mut self, block: BlockId, erase_count: u64) {
        debug_assert!(erase_count > 0, "block {block} released unerased");
        let fresh = self.worn.insert((erase_count, block));
        debug_assert!(fresh, "block {block} released into the free pool twice");
    }

    /// Takes out the least-worn free block, the lowest id among equals.
    pub(crate) fn take_least_worn(&mut self) -> Option<BlockId> {
        match self.unworn.next() {
            Some(b) => Some(BlockId(b)),
            None => self.worn.pop_first().map(|(_, b)| b),
        }
    }

    /// Takes out the most-worn free block, the highest id among equals.
    pub(crate) fn take_most_worn(&mut self) -> Option<BlockId> {
        match self.worn.pop_last() {
            Some((_, b)) => Some(b),
            None => self.unworn.next_back().map(BlockId),
        }
    }

    /// `true` when `block`, worn `erase_count` times, is free.
    pub(crate) fn contains(&self, block: BlockId, erase_count: u64) -> bool {
        if erase_count == 0 {
            self.unworn.contains(&block.0)
        } else {
            self.worn.contains(&(erase_count, block))
        }
    }

    /// The free blocks in the order [`take_least_worn`](Self::take_least_worn)
    /// hands them out.
    pub(crate) fn iter(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.unworn
            .clone()
            .map(BlockId)
            .chain(self.worn.iter().map(|&(_, b)| b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The linear scans the ordered pool replaced: every free block with
    /// its wear, picked by `min_by_key` / `max_by_key` on
    /// `(erase_count, id)`.
    struct Scan(Vec<(u64, BlockId)>);

    impl Scan {
        fn least_worn(&self) -> Option<BlockId> {
            self.0.iter().min_by_key(|&&key| key).map(|&(_, b)| b)
        }

        fn most_worn(&self) -> Option<BlockId> {
            self.0.iter().max_by_key(|&&key| key).map(|&(_, b)| b)
        }

        fn take(&mut self, block: BlockId) -> u64 {
            let i = self
                .0
                .iter()
                .position(|&(_, b)| b == block)
                .expect("the pool handed out a block the scan holds");
            self.0.swap_remove(i).0
        }
    }

    /// Over random sequences of allocations, wear-leveling picks, erases
    /// (each block returning with random wear accrued since it left) and
    /// retirements, the ordered pool picks the block the linear scans
    /// pick, least-worn and most-worn alike, at every step. 256 cases of
    /// up to 300 ops on up to 40 blocks.
    #[test]
    fn ordered_pool_picks_what_the_linear_scan_picks() {
        jitgc_sim::check::check(0x0F71_0006, 256, |g| {
            let blocks = g.u64(1, 41) as u32;
            let mut pool = FreePool::unworn(blocks);
            let mut scan = Scan((0..blocks).map(|b| (0, BlockId(b))).collect());
            // Blocks in use, with their wear when they left the pool.
            let mut in_use: Vec<(u64, BlockId)> = Vec::new();
            let ops = g.vec(1, 300, |g| (g.weighted(&[4, 1, 4, 1]), g.any_u64()));
            for (op, arg) in ops {
                match op {
                    0 | 1 => {
                        let (picked, expected) = if op == 0 {
                            (pool.take_least_worn(), scan.least_worn())
                        } else {
                            (pool.take_most_worn(), scan.most_worn())
                        };
                        assert_eq!(picked, expected, "op {op}");
                        if let Some(b) = picked {
                            in_use.push((scan.take(b), b));
                        }
                    }
                    _ if in_use.is_empty() => {}
                    2 => {
                        let (wear, b) = in_use.swap_remove(arg as usize % in_use.len());
                        let worn = wear + 1 + (arg >> 32) % 5;
                        pool.release(b, worn);
                        scan.0.push((worn, b));
                    }
                    _ => drop(in_use.swap_remove(arg as usize % in_use.len())),
                }
                assert_eq!(pool.len(), scan.0.len());
                assert_eq!(pool.iter().next(), scan.least_worn());
                assert_eq!(pool.iter().last(), scan.most_worn());
                for &(wear, b) in &scan.0 {
                    assert!(pool.contains(b, wear), "free block {b} not found");
                }
                for &(wear, b) in &in_use {
                    assert!(!pool.contains(b, wear), "block {b} in use and free");
                }
            }
        });
    }
}
