//! Error type for FTL operations.

use jitgc_nand::{Lpn, NandError};
use std::error::Error;
use std::fmt;

/// An FTL operation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtlError {
    /// The logical page is outside the host-visible address space.
    LpnOutOfRange {
        /// The offending logical page.
        lpn: Lpn,
        /// Size of the logical space.
        user_pages: u64,
    },
    /// Garbage collection cannot free any space: every reclaimable block is
    /// fully valid. With correctly sized over-provisioning this is
    /// unreachable; it indicates a misconfiguration (OP ≈ 0) or an FTL bug.
    NoReclaimableSpace,
    /// The underlying NAND device rejected an operation — always an FTL
    /// bug surfaced loudly rather than swallowed.
    Nand(NandError),
    /// The device is in read-only degraded mode: enough blocks have been
    /// retired that writes can no longer be sustained. Reads keep working.
    ReadOnly,
}

impl fmt::Display for FtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FtlError::LpnOutOfRange { lpn, user_pages } => {
                write!(
                    f,
                    "logical page {lpn} outside user space of {user_pages} pages"
                )
            }
            FtlError::NoReclaimableSpace => {
                write!(f, "garbage collection found no reclaimable block")
            }
            FtlError::Nand(e) => write!(f, "nand device error: {e}"),
            FtlError::ReadOnly => {
                write!(f, "device is in read-only degraded mode (end of life)")
            }
        }
    }
}

impl Error for FtlError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FtlError::Nand(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NandError> for FtlError {
    fn from(e: NandError) -> Self {
        FtlError::Nand(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitgc_nand::Ppn;

    #[test]
    fn display_variants() {
        assert!(FtlError::LpnOutOfRange {
            lpn: Lpn(9),
            user_pages: 4
        }
        .to_string()
        .contains("L9"));
        assert!(FtlError::NoReclaimableSpace
            .to_string()
            .contains("no reclaimable"));
        assert!(FtlError::ReadOnly.to_string().contains("read-only"));
    }

    #[test]
    fn nand_error_wraps_with_source() {
        let e = FtlError::from(NandError::ReadUnwrittenPage { ppn: Ppn(1) });
        assert!(e.to_string().contains("nand device error"));
        assert!(e.source().is_some());
    }

    #[test]
    fn implements_error_trait() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<FtlError>();
    }
}
