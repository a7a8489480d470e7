//! Error type for NAND device operations.

use crate::{BlockId, Lpn, Ppn};
use std::error::Error;
use std::fmt;

/// A flash-physics violation or addressing error.
///
/// Every variant indicates an FTL bug (or a deliberately induced fault in a
/// failure-injection test), never a recoverable runtime condition — a
/// correct FTL can always avoid these by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NandError {
    /// The physical page address is outside the device.
    PpnOutOfRange {
        /// The offending address.
        ppn: Ppn,
        /// Total pages on the device.
        total_pages: u64,
    },
    /// The block address is outside the device.
    BlockOutOfRange {
        /// The offending block.
        block: BlockId,
        /// Total blocks on the device.
        total_blocks: u32,
    },
    /// The logical page number does not fit the 32-bit OOB entry that
    /// would record it (`u32::MAX` itself is the "no LPN" entry).
    LpnTooLarge {
        /// The offending logical page.
        lpn: Lpn,
    },
    /// Attempted to program a page that is already programmed since the
    /// last erase (the erase-before-write constraint).
    ProgramProgrammedPage {
        /// The offending address.
        ppn: Ppn,
    },
    /// Attempted to program a page out of sequential order within its block.
    ProgramOutOfOrder {
        /// The offending address.
        ppn: Ppn,
        /// The page offset that must be programmed next in this block.
        expected_offset: u32,
    },
    /// Attempted to read a page that holds no data (never programmed since
    /// the last erase).
    ReadUnwrittenPage {
        /// The offending address.
        ppn: Ppn,
    },
    /// Attempted to invalidate a page that is not currently valid.
    InvalidateNonValidPage {
        /// The offending address.
        ppn: Ppn,
    },
    /// The block reached its configured program/erase endurance limit.
    BlockWornOut {
        /// The worn-out block.
        block: BlockId,
        /// The endurance limit that was exceeded.
        limit: u64,
    },
    /// An injected transient program failure: the page is consumed
    /// (left unusable until the next erase) but holds no data.
    ProgramFailed {
        /// The page whose program operation failed.
        ppn: Ppn,
    },
    /// An injected erase failure: the block did not erase and should be
    /// retired by the FTL.
    EraseFailed {
        /// The block whose erase operation failed.
        block: BlockId,
    },
    /// An injected uncorrectable read: the page's data is beyond ECC.
    ReadFailed {
        /// The page whose read came back uncorrectable.
        ppn: Ppn,
    },
}

impl fmt::Display for NandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NandError::PpnOutOfRange { ppn, total_pages } => {
                write!(
                    f,
                    "physical page {ppn} outside device of {total_pages} pages"
                )
            }
            NandError::BlockOutOfRange {
                block,
                total_blocks,
            } => {
                write!(f, "block {block} outside device of {total_blocks} blocks")
            }
            NandError::LpnTooLarge { lpn } => {
                write!(f, "logical page {lpn} does not fit a 32-bit OOB entry")
            }
            NandError::ProgramProgrammedPage { ppn } => {
                write!(f, "program of already-programmed page {ppn} without erase")
            }
            NandError::ProgramOutOfOrder {
                ppn,
                expected_offset,
            } => write!(
                f,
                "out-of-order program of {ppn}, block expects offset {expected_offset} next"
            ),
            NandError::ReadUnwrittenPage { ppn } => {
                write!(f, "read of unwritten page {ppn}")
            }
            NandError::InvalidateNonValidPage { ppn } => {
                write!(f, "invalidate of non-valid page {ppn}")
            }
            NandError::BlockWornOut { block, limit } => {
                write!(
                    f,
                    "block {block} exceeded endurance limit of {limit} erases"
                )
            }
            NandError::ProgramFailed { ppn } => {
                write!(f, "program of page {ppn} failed (injected wear fault)")
            }
            NandError::EraseFailed { block } => {
                write!(f, "erase of block {block} failed (injected wear fault)")
            }
            NandError::ReadFailed { ppn } => {
                write!(f, "uncorrectable read of page {ppn} (injected wear fault)")
            }
        }
    }
}

impl Error for NandError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let msg = NandError::ProgramOutOfOrder {
            ppn: Ppn(10),
            expected_offset: 2,
        }
        .to_string();
        assert!(msg.contains("P10"));
        assert!(msg.contains("offset 2"));
    }

    #[test]
    fn implements_error_trait() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<NandError>();
    }

    #[test]
    fn all_variants_display() {
        let errors = [
            NandError::PpnOutOfRange {
                ppn: Ppn(1),
                total_pages: 2,
            },
            NandError::BlockOutOfRange {
                block: BlockId(1),
                total_blocks: 2,
            },
            NandError::LpnTooLarge { lpn: Lpn(1 << 32) },
            NandError::ProgramProgrammedPage { ppn: Ppn(1) },
            NandError::ProgramOutOfOrder {
                ppn: Ppn(1),
                expected_offset: 0,
            },
            NandError::ReadUnwrittenPage { ppn: Ppn(1) },
            NandError::InvalidateNonValidPage { ppn: Ppn(1) },
            NandError::BlockWornOut {
                block: BlockId(1),
                limit: 3_000,
            },
            NandError::ProgramFailed { ppn: Ppn(1) },
            NandError::EraseFailed { block: BlockId(1) },
            NandError::ReadFailed { ppn: Ppn(1) },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
