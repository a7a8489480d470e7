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

impl Default for Geometry {
    /// A small test device: 64 blocks × 128 pages × 4 KiB = 32 MiB.
    fn default() -> Self {
        Geometry {
            blocks: 64,
            pages_per_block: 128,
            page_size: ByteSize::kib(4),
        }
    }
}

/// Builder for [`Geometry`], starting from [`Geometry::default`].
///
/// # Example
///
/// ```
/// use jitgc_nand::Geometry;
/// use jitgc_sim::ByteSize;
///
/// let g = Geometry::builder().blocks(128).build();
/// assert_eq!(g.pages_per_block(), 128); // the default
/// assert_eq!(g.page_size(), ByteSize::kib(4)); // the default
/// assert_eq!(g.page_size() * g.total_pages(), ByteSize::mib(64));
/// ```
#[derive(Debug, Clone, Default)]
pub struct GeometryBuilder(Geometry);

impl GeometryBuilder {
    /// Sets the number of erase blocks (default 64).
    #[must_use]
    pub fn blocks(mut self, blocks: u32) -> Self {
        self.0.blocks = blocks;
        self
    }

    /// Sets pages per erase block (default 128).
    #[must_use]
    pub fn pages_per_block(mut self, pages: u32) -> Self {
        self.0.pages_per_block = pages;
        self
    }

    /// Sets the page size in bytes (default 4096).
    #[must_use]
    pub fn page_size_bytes(mut self, bytes: u64) -> Self {
        self.0.page_size = ByteSize::bytes(bytes);
        self
    }

    /// The rule on the geometry's knobs: every one is above zero. The
    /// error names the first knob that breaks it.
    fn check(&self) -> Result<(), String> {
        let g = &self.0;
        for (key, value) in [
            ("blocks", u64::from(g.blocks)),
            ("pages_per_block", u64::from(g.pages_per_block)),
            ("page_size_bytes", g.page_size.as_u64()),
        ] {
            if value == 0 {
                return Err(format!("`{key}` must be greater than zero"));
            }
        }
        Ok(())
    }

    /// Finalizes the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the block count, pages per block or page size is zero.
    #[must_use]
    pub fn build(self) -> Geometry {
        if let Err(rule) = self.check() {
            panic!("{rule}");
        }
        self.0
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
    fn default_build_is_valid() {
        let g = Geometry::builder().build();
        assert_eq!(g.blocks(), 64);
        assert_eq!(g.pages_per_block(), 128);
        assert_eq!(g.page_size(), ByteSize::kib(4));
    }

    #[test]
    #[should_panic(expected = "`pages_per_block` must be greater than zero")]
    fn zero_pages_per_block_panics() {
        let _ = Geometry::builder().pages_per_block(0).build();
    }

    #[test]
    #[should_panic(expected = "`blocks` must be greater than zero")]
    fn zero_blocks_panics() {
        let _ = Geometry::builder().blocks(0).build();
    }
}
