//! Wear-out: erase or retire, and the read-only mode retirements end in.

use super::Ftl;
use crate::FtlError;
use jitgc_nand::{BlockId, NandError};
use jitgc_sim::{SimDuration, SimTime};

/// What kind of degradation a [`DegradeEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeKind {
    /// A block was retired as bad (endurance exceeded or erase failed);
    /// the device's usable capacity shrank by one block.
    BlockRetired(BlockId),
    /// The device entered read-only degraded mode: retirements left too
    /// little writable space to sustain further host writes.
    ReadOnly,
}

/// One entry of the device's failure timeline: when wear took capacity
/// away, and when it finally took write service away. The sequence is
/// fully determined by the fault seed and the operation stream, so two
/// runs with the same seed produce identical timelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradeEvent {
    /// Simulated time of the event.
    pub time: SimTime,
    /// What degraded.
    pub kind: DegradeKind,
}

impl Ftl {
    /// Erases `victim` and returns it to the free pool, or — when the
    /// block has exceeded its endurance limit or the erase itself failed —
    /// retires it as a bad block (capacity shrinks by one block) and
    /// returns `None`.
    pub(super) fn erase_or_retire(&mut self, victim: BlockId, now: SimTime) -> Option<SimDuration> {
        debug_assert!(
            !self.victim_index.is_tracked(victim),
            "erasing a block still tracked as a candidate"
        );
        match self.device.erase(victim) {
            Ok(took) => {
                self.sip_counts[victim.0 as usize] = 0;
                self.free_blocks
                    .release(victim, self.device.block(victim).erase_count());
                Some(took)
            }
            Err(NandError::BlockWornOut { .. } | NandError::EraseFailed { .. }) => {
                self.retire_block(victim, now);
                None
            }
            Err(e) => panic!("erase of selected victim failed: {e}"),
        }
    }

    /// Permanently removes `victim` from circulation as a bad block and
    /// records the capacity loss on the failure timeline. When the loss
    /// shrinks the device below the minimum writable footprint — enough
    /// live blocks to hold all valid data plus the GC scratch reserve plus
    /// one block of write headroom — GC can no longer turn over blocks and
    /// the device goes read-only.
    fn retire_block(&mut self, victim: BlockId, now: SimTime) {
        self.sip_counts[victim.0 as usize] = 0;
        self.is_retired[victim.0 as usize] = true;
        self.stats.retired_blocks += 1;
        // Victims are fully collected before erase, so every page of the
        // block sits in the device's invalid tally — and stays there
        // forever. Track the loss so space accounting can exclude it.
        self.retired_pages += u64::from(self.config.geometry().pages_per_block());
        self.degrade_events.push(DegradeEvent {
            time: now,
            kind: DegradeKind::BlockRetired(victim),
        });
        let geometry = self.config.geometry();
        let ppb = u64::from(geometry.pages_per_block());
        // Derive the retired count from `retired_pages`, not from
        // `stats.retired_blocks`: the stats counter is zeroed by
        // [`reset_counters`](Ftl::reset_counters) after aging pre-fill,
        // while retirement is permanent device state.
        let live_blocks = u64::from(geometry.blocks()) - self.retired_pages / ppb;
        let valid_pages = self.device.total_valid_pages();
        let reserve_blocks = u64::from(self.config.gc_reserve_blocks());
        if live_blocks * ppb < valid_pages + (reserve_blocks + 1) * ppb {
            self.enter_read_only(now);
        }
    }

    /// Idempotent transition into read-only degraded mode.
    fn enter_read_only(&mut self, now: SimTime) {
        if self.read_only {
            return;
        }
        self.read_only = true;
        self.degrade_events.push(DegradeEvent {
            time: now,
            kind: DegradeKind::ReadOnly,
        });
    }

    /// Number of blocks retired as bad (endurance exceeded or erase
    /// failed).
    #[must_use]
    pub fn retired_blocks(&self) -> u64 {
        self.stats.retired_blocks
    }

    /// Pages permanently lost to retired blocks.
    #[must_use]
    pub fn retired_pages(&self) -> u64 {
        self.retired_pages
    }

    /// `true` once the device has entered read-only degraded mode: writes
    /// fail with [`FtlError::ReadOnly`], reads keep working.
    #[must_use]
    pub fn read_only(&self) -> bool {
        self.read_only
    }

    /// The failure timeline: every block retirement plus the read-only
    /// transition, in event order. Deterministic for a given fault seed
    /// and operation stream.
    #[must_use]
    pub fn degrade_events(&self) -> &[DegradeEvent] {
        &self.degrade_events
    }

    /// Maps "no block to be had" (`NoReclaimableSpace`) from a host
    /// write's foreground GC or block opening onto the read-only
    /// transition: the device can no longer turn over blocks.
    pub(super) fn read_only_when_out_of_space<T>(
        &mut self,
        result: Result<T, FtlError>,
        now: SimTime,
    ) -> Result<T, FtlError> {
        match result {
            Err(FtlError::NoReclaimableSpace) => {
                self.enter_read_only(now);
                Err(FtlError::ReadOnly)
            }
            result => result,
        }
    }
}
