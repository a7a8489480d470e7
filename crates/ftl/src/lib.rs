//! Page-mapping flash translation layer (FTL) for the JIT-GC simulator.
//!
//! The FTL owns the NAND device and exposes the host-visible view of it:
//! a flat logical page space (`Lpn`s) backed by out-of-place updates,
//! garbage collection, over-provisioning accounting, and wear leveling.
//!
//! Everything the paper measures bottoms out here:
//!
//! * **Foreground GC (FGC)** — when a host write finds the free-block pool
//!   at its floor, the write blocks while the FTL reclaims space. The cost
//!   lands on that write's latency; this is the IOPS penalty of a lazy BGC
//!   policy.
//! * **Background GC (BGC)** — [`Ftl::background_collect`] reclaims blocks
//!   up to a caller-supplied budget; the *policy* deciding when and how much
//!   lives in `jitgc-core`, keeping mechanism and policy separate.
//! * **Victim selection** — pluggable [`VictimSelector`] (greedy,
//!   cost-benefit, FIFO, random) plus the paper's **SIP filter**: a
//!   [`SipList`] of soon-to-be-invalidated logical pages steers BGC away
//!   from blocks whose valid data is about to die anyway.
//! * **WAF** — [`FtlStats::waf`] is NAND programs ÷ host page writes, the
//!   paper's lifetime proxy.
//!
//! # Example
//!
//! ```
//! use jitgc_ftl::{Ftl, FtlConfig, GreedySelector};
//! use jitgc_nand::Lpn;
//! use jitgc_sim::SimTime;
//!
//! # fn main() -> Result<(), jitgc_ftl::FtlError> {
//! let config = FtlConfig::builder()
//!     .user_pages(1024)
//!     .op_permille(70) // 7% over-provisioning like the SM843T
//!     .build();
//! let mut ftl = Ftl::new(config, Box::new(GreedySelector));
//!
//! let now = SimTime::ZERO;
//! let outcome = ftl.host_write(Lpn(42), now)?;
//! assert!(!outcome.foreground_gc);
//! assert_eq!(ftl.stats().host_pages_written, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
mod free_pool;
mod ftl;
mod mapping;
mod sip;
mod stats;
mod victim;
mod victim_index;

pub use config::{FtlConfig, FtlConfigBuilder};
pub use error::FtlError;
pub use ftl::{
    BatchReadOutcome, BatchWriteOutcome, BgcOutcome, DegradeEvent, DegradeKind, Ftl,
    WearLevelOutcome, WriteOutcome,
};
pub use sip::SipList;
pub use stats::FtlStats;
pub use victim::{
    BlockInfo, CostBenefitSelector, FifoSelector, GreedySelector, RandomSelector, VictimSelector,
};

// Re-export the address types users need to drive the FTL.
pub use jitgc_nand::{BlockId, Lpn, Ppn};
