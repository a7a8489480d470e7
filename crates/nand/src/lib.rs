//! NAND flash device model for the JIT-GC simulator.
//!
//! This crate models the raw flash device the FTL manages: the physical
//! geometry, the per-page and per-block state machines that enforce flash
//! physics, operation timing, and wear/operation accounting.
//!
//! The two constraints that make garbage collection necessary at all are
//! enforced here as hard errors, so any FTL bug that violates them fails
//! loudly instead of silently corrupting the simulation:
//!
//! 1. **Erase-before-write** — a page can be programmed only once between
//!    block erases ([`NandError::ProgramProgrammedPage`]).
//! 2. **Sequential programming** — pages within a block must be programmed
//!    in order ([`NandError::ProgramOutOfOrder`]), as required by real MLC
//!    NAND to limit program disturb.
//!
//! # Example
//!
//! ```
//! use jitgc_nand::{Geometry, Lpn, NandDevice, NandTiming, Ppn};
//!
//! # fn main() -> Result<(), jitgc_nand::NandError> {
//! let geometry = Geometry::builder()
//!     .blocks(64)
//!     .pages_per_block(128)
//!     .page_size_bytes(4096)
//!     .build();
//! let mut device = NandDevice::new(geometry, NandTiming::mlc_20nm());
//!
//! // Program the first page of block 0 with host data for LPN 7.
//! let cost = device.program(Ppn(0), Lpn(7))?;
//! assert!(cost.as_micros() > 0);
//! assert_eq!(device.page_lpn(Ppn(0)), Some(Lpn(7)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod address;
mod block;
mod device;
mod error;
mod fault;
mod geometry;
mod stats;
mod timing;

pub use address::{BlockId, Lpn, Ppn};
pub use block::{Block, PageState};
pub use device::{CopyOutcome, NandDevice, ProgramRun};
pub use error::NandError;
pub use fault::{FaultConfig, FaultModel};
pub use geometry::{Geometry, GeometryBuilder};
pub use stats::{NandStats, WearReport};
pub use timing::NandTiming;
