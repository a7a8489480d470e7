//! FTL-level statistics.

use jitgc_sim::SimDuration;

/// Cumulative counters for one [`Ftl`](crate::Ftl) instance.
///
/// The headline metric is [`waf`](FtlStats::waf): the Write Amplification
/// Factor, NAND page programs divided by host page writes — the paper's
/// lifetime proxy (Fig. 2(b), Fig. 7(b)). The SIP counters feed Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FtlStats {
    /// Pages written by the host (flushes + direct writes).
    pub host_pages_written: u64,
    /// Pages read by the host.
    pub host_pages_read: u64,
    /// TRIM commands processed.
    pub trims: u64,
    /// Pages migrated by garbage collection (foreground + background).
    pub gc_pages_migrated: u64,
    /// Foreground GC episodes (a host write had to wait for reclamation).
    pub fgc_invocations: u64,
    /// Blocks erased by foreground GC.
    pub fgc_blocks: u64,
    /// Time consumed by foreground GC (charged to host writes).
    pub fgc_time: SimDuration,
    /// Background GC invocations that collected at least one block.
    pub bgc_invocations: u64,
    /// Blocks erased by background GC.
    pub bgc_blocks: u64,
    /// Time consumed by background GC (hidden in idle periods).
    pub bgc_time: SimDuration,
    /// Victim selections performed while a SIP list was installed.
    pub sip_eligible_selections: u64,
    /// Selections where the SIP filter changed the outcome — the block the
    /// base policy would have picked was avoided because too much of its
    /// valid data was about to be invalidated (Table 3's numerator).
    pub sip_filtered_selections: u64,
    /// Host pages routed to the hot stream (0 unless hot/cold stream
    /// separation is enabled).
    pub hot_stream_pages: u64,
    /// Pages migrated by static wear leveling.
    pub wear_level_migrations: u64,
    /// Blocks erased by static wear leveling.
    pub wear_level_blocks: u64,
    /// Blocks retired as bad (endurance limit exceeded or erase failed).
    pub retired_blocks: u64,
    /// Page programs re-issued to another page after an injected program
    /// failure (host and GC writes combined).
    pub program_retries: u64,
    /// GC migrations whose source read came back uncorrectable; the page
    /// was relocated from the raw (error-laden) data anyway.
    pub gc_read_failures: u64,
    /// Host reads that came back uncorrectable — data loss unless a
    /// redundant copy exists at a higher layer (the array's mirror).
    pub host_read_failures: u64,
}

impl FtlStats {
    /// The Write Amplification Factor given the device's total program
    /// count; `None` until the host has written at least one page.
    ///
    /// WAF = (all NAND programs) ÷ (host page writes). GC migrations and
    /// wear-leveling copies inflate the numerator; 1.0 is the ideal.
    #[must_use]
    pub fn waf(&self, nand_programs: u64) -> Option<f64> {
        (self.host_pages_written > 0).then(|| nand_programs as f64 / self.host_pages_written as f64)
    }

    /// Fraction of victim selections the SIP filter redirected, as reported
    /// in the paper's Table 3; `None` until a selection has happened with a
    /// SIP list installed.
    #[must_use]
    pub fn sip_filtered_fraction(&self) -> Option<f64> {
        (self.sip_eligible_selections > 0)
            .then(|| self.sip_filtered_selections as f64 / self.sip_eligible_selections as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waf_requires_host_writes() {
        let s = FtlStats::default();
        assert_eq!(s.waf(100), None);
        let s = FtlStats {
            host_pages_written: 50,
            ..FtlStats::default()
        };
        assert_eq!(s.waf(100), Some(2.0));
    }

    #[test]
    fn sip_fraction() {
        let s = FtlStats {
            sip_eligible_selections: 200,
            sip_filtered_selections: 30,
            ..FtlStats::default()
        };
        assert_eq!(s.sip_filtered_fraction(), Some(0.15));
        assert_eq!(FtlStats::default().sip_filtered_fraction(), None);
    }
}
