//! Physical device geometry.

use crate::{BlockId, Ppn};
use jitgc_sim::ByteSize;

/// The physical shape of a NAND device.
///
/// The simulator addresses pages with a flat [`Ppn`] space in block-major
/// order; `Geometry` provides the conversions and derived capacities.
/// Intra-device parallelism (the channel/chip hierarchy of a real SSD) is
/// folded into the [`NandTiming`](crate::NandTiming) parallelism factor —
/// policy comparisons are invariant to that constant-factor speedup, and a
/// flat space keeps the FTL exactly reproducible. *Inter*-device
/// parallelism is modelled explicitly one layer up: `jitgc-array` stripes
/// a logical volume over N whole devices, each with its own flat
/// geometry, and coordinates their GC (see DESIGN.md §9).
///
/// # Example
///
/// ```
/// use jitgc_nand::{BlockId, Geometry, Ppn};
///
/// let g = Geometry::builder()
///     .blocks(1024)
///     .pages_per_block(128)
///     .page_size_bytes(4096)
///     .build();
/// assert_eq!(g.total_pages(), 1024 * 128);
/// assert_eq!(g.block_of(Ppn(129)), BlockId(1));
/// assert_eq!(g.page_offset(Ppn(129)), 1);
/// assert_eq!(g.ppn(BlockId(1), 1), Ppn(129));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    blocks: u32,
    pages_per_block: u32,
    page_size: ByteSize,
}

impl Geometry {
    /// Starts building a geometry. See [`GeometryBuilder`].
    #[must_use]
    pub fn builder() -> GeometryBuilder {
        GeometryBuilder::default()
    }

    /// Number of erase blocks.
    #[must_use]
    pub const fn blocks(&self) -> u32 {
        self.blocks
    }

    /// Pages per erase block.
    #[must_use]
    pub const fn pages_per_block(&self) -> u32 {
        self.pages_per_block
    }

    /// Bytes per page.
    #[must_use]
    pub const fn page_size(&self) -> ByteSize {
        self.page_size
    }

    /// Total number of physical pages.
    #[must_use]
    pub const fn total_pages(&self) -> u64 {
        self.blocks as u64 * self.pages_per_block as u64
    }

    /// The block containing `ppn`.
    ///
    /// # Panics
    ///
    /// Panics if `ppn` is outside the device.
    #[must_use]
    pub fn block_of(&self, ppn: Ppn) -> BlockId {
        assert!(self.contains(ppn), "ppn {ppn} outside device");
        BlockId((ppn.0 / u64::from(self.pages_per_block)) as u32)
    }

    /// The page offset of `ppn` within its block.
    ///
    /// # Panics
    ///
    /// Panics if `ppn` is outside the device.
    #[must_use]
    pub fn page_offset(&self, ppn: Ppn) -> u32 {
        assert!(self.contains(ppn), "ppn {ppn} outside device");
        (ppn.0 % u64::from(self.pages_per_block)) as u32
    }

    /// The physical page at `offset` within `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` or `offset` is out of range.
    #[must_use]
    pub fn ppn(&self, block: BlockId, offset: u32) -> Ppn {
        assert!(block.0 < self.blocks, "block {block} outside device");
        assert!(
            offset < self.pages_per_block,
            "offset {offset} beyond block of {} pages",
            self.pages_per_block
        );
        Ppn(u64::from(block.0) * u64::from(self.pages_per_block) + u64::from(offset))
    }

    /// `true` if `ppn` addresses a page on this device.
    #[must_use]
    pub fn contains(&self, ppn: Ppn) -> bool {
        ppn.0 < self.total_pages()
    }

    /// Iterates every block id.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks).map(BlockId)
    }
}

/// Builder for [`Geometry`]; all fields have sensible defaults for a small
/// test device (64 blocks × 128 pages × 4 KiB = 32 MiB).
///
/// # Example
///
/// ```
/// use jitgc_nand::Geometry;
/// use jitgc_sim::ByteSize;
///
/// let g = Geometry::builder()
///     .capacity(ByteSize::mib(64))   // derives the block count
///     .pages_per_block(128)
///     .page_size_bytes(4096)
///     .build();
/// assert_eq!(g.blocks(), 128); // 64 MiB / (128 × 4 KiB)
/// ```
#[derive(Debug, Clone)]
pub struct GeometryBuilder {
    blocks: Option<u32>,
    capacity: Option<ByteSize>,
    pages_per_block: u32,
    page_size: ByteSize,
}

impl Default for GeometryBuilder {
    fn default() -> Self {
        GeometryBuilder {
            blocks: None,
            capacity: None,
            pages_per_block: 128,
            page_size: ByteSize::kib(4),
        }
    }
}

impl GeometryBuilder {
    /// Sets the number of erase blocks directly. Mutually exclusive with
    /// [`capacity`](Self::capacity) (the later call wins).
    #[must_use]
    pub fn blocks(mut self, blocks: u32) -> Self {
        self.blocks = Some(blocks);
        self.capacity = None;
        self
    }

    /// Sets the total raw capacity; the block count is derived (rounding up
    /// to whole blocks). Mutually exclusive with [`blocks`](Self::blocks)
    /// (the later call wins).
    #[must_use]
    pub fn capacity(mut self, capacity: ByteSize) -> Self {
        self.capacity = Some(capacity);
        self.blocks = None;
        self
    }

    /// Sets pages per erase block (default 128).
    #[must_use]
    pub fn pages_per_block(mut self, pages: u32) -> Self {
        self.pages_per_block = pages;
        self
    }

    /// Sets the page size in bytes (default 4096).
    #[must_use]
    pub fn page_size_bytes(mut self, bytes: u64) -> Self {
        self.page_size = ByteSize::bytes(bytes);
        self
    }

    /// Finalizes the geometry.
    ///
    /// # Panics
    ///
    /// Panics if pages per block or page size is zero, or if the resulting
    /// device would have no blocks.
    #[must_use]
    pub fn build(self) -> Geometry {
        assert!(self.pages_per_block > 0, "pages per block must be non-zero");
        assert!(!self.page_size.is_zero(), "page size must be non-zero");
        let block_capacity = self.page_size.as_u64() * u64::from(self.pages_per_block);
        let blocks = match (self.blocks, self.capacity) {
            (Some(b), _) => b,
            (None, Some(cap)) => {
                u32::try_from(cap.as_u64().div_ceil(block_capacity)).expect("block count fits u32")
            }
            (None, None) => 64,
        };
        assert!(blocks > 0, "device must have at least one block");
        Geometry {
            blocks,
            pages_per_block: self.pages_per_block,
            page_size: self.page_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Geometry {
        Geometry::builder()
            .blocks(4)
            .pages_per_block(8)
            .page_size_bytes(4096)
            .build()
    }

    #[test]
    fn derived_capacities() {
        let g = small();
        assert_eq!(g.total_pages(), 32);
        assert_eq!(g.page_size() * g.total_pages(), ByteSize::kib(128));
    }

    #[test]
    fn address_conversions_round_trip() {
        let g = small();
        for b in g.block_ids() {
            for off in 0..g.pages_per_block() {
                let ppn = g.ppn(b, off);
                assert_eq!(g.block_of(ppn), b);
                assert_eq!(g.page_offset(ppn), off);
            }
        }
    }

    #[test]
    fn contains_boundary() {
        let g = small();
        assert!(g.contains(Ppn(31)));
        assert!(!g.contains(Ppn(32)));
    }

    #[test]
    #[should_panic(expected = "outside device")]
    fn block_of_out_of_range_panics() {
        let _ = small().block_of(Ppn(32));
    }

    #[test]
    #[should_panic(expected = "beyond block")]
    fn ppn_offset_out_of_range_panics() {
        let _ = small().ppn(BlockId(0), 8);
    }

    #[test]
    fn capacity_builder_rounds_up() {
        let g = Geometry::builder()
            .capacity(ByteSize::kib(33)) // 1 block is 32 KiB
            .pages_per_block(8)
            .page_size_bytes(4096)
            .build();
        assert_eq!(g.blocks(), 2);
    }

    #[test]
    fn later_builder_call_wins() {
        let g = Geometry::builder()
            .blocks(100)
            .capacity(ByteSize::kib(32))
            .pages_per_block(8)
            .page_size_bytes(4096)
            .build();
        assert_eq!(g.blocks(), 1);
        let g2 = Geometry::builder()
            .capacity(ByteSize::kib(32))
            .blocks(100)
            .pages_per_block(8)
            .page_size_bytes(4096)
            .build();
        assert_eq!(g2.blocks(), 100);
    }

    #[test]
    fn default_build_is_valid() {
        let g = Geometry::builder().build();
        assert_eq!(g.blocks(), 64);
        assert_eq!(g.pages_per_block(), 128);
        assert_eq!(g.page_size(), ByteSize::kib(4));
    }

    #[test]
    #[should_panic(expected = "pages per block must be non-zero")]
    fn zero_pages_per_block_panics() {
        let _ = Geometry::builder().pages_per_block(0).build();
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_blocks_panics() {
        let _ = Geometry::builder().blocks(0).build();
    }
}
