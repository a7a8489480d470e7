//! Static wear leveling.

use super::{BgcOutcome, Ftl, Stream};
use crate::FtlError;
use jitgc_sim::{SimDuration, SimTime};

/// Result of one static wear-leveling pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WearLevelOutcome {
    /// Device time consumed.
    pub duration: SimDuration,
    /// `true` when the pass actually moved data.
    pub performed: bool,
    /// Pages relocated.
    pub moved_pages: u64,
}

impl Ftl {
    /// One static wear-leveling pass: when the erase-count spread exceeds
    /// the configured threshold, the coldest sealed block's data is
    /// relocated into the most-worn free block and the cold block is
    /// erased, putting its low-wear cells back into circulation.
    pub fn wear_level(&mut self, now: SimTime) -> Result<WearLevelOutcome, FtlError> {
        let wear = self.device.wear_report();
        if wear.max - wear.min <= self.config.wear_level_threshold() {
            return Ok(WearLevelOutcome::default());
        }
        // Coldest sealed candidate: minimum erase count.
        let Some((coldest, _)) = self
            .victim_index
            .iter_ids()
            .min_by_key(|&(b, _)| (self.device.block(b).erase_count(), b))
        else {
            return Ok(WearLevelOutcome::default());
        };
        // Steer the relocation into the most-worn free block by making it
        // the active GC block for this pass — only when no GC block is
        // currently open with room.
        if self.room(Stream::Gc).is_none() {
            if let Some(worn) = self.free_blocks.take_most_worn() {
                self.open(Stream::Gc, worn);
            }
        }
        let mut moved = BgcOutcome::default();
        self.collect_candidate(coldest, now, &mut moved)?;
        self.stats.wear_level_migrations += moved.pages_migrated;
        self.stats.wear_level_blocks += 1;
        Ok(WearLevelOutcome {
            duration: moved.duration,
            performed: true,
            moved_pages: moved.pages_migrated,
        })
    }
}
