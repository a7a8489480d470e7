//! Array construction.

use crate::{ArrayScheduler, GcMode, Redundancy, StripeMap};
use jitgc_core::policy::GcPolicy;
use jitgc_core::system::{SsdSystem, SystemConfig};
use jitgc_workload::{NullWorkload, Workload};

/// Configuration of a multi-SSD array.
///
/// Every member is a complete [`SsdSystem`] built from the same
/// [`SystemConfig`] — the array does not shrink devices to fit the
/// volume; it stripes the volume over full devices. A workload loads
/// each member like the standalone single-device experiments do when its
/// working set and rate are [`columns`](ArrayConfig::columns) times one
/// device's; `jitgc_bench::Experiment::workload_config` sizes it so.
#[derive(Debug, Clone)]
pub struct ArrayConfig {
    /// Number of member devices (≥ 1).
    pub members: usize,
    /// Stripe chunk size in pages.
    pub chunk_pages: u64,
    /// Data layout across members.
    pub redundancy: Redundancy,
    /// BGC coordination across members.
    pub gc_mode: GcMode,
    /// Per-member system configuration (identical for every member
    /// unless [`build_with`](ArrayConfig::build_with) tweaks it).
    pub system: SystemConfig,
}

impl ArrayConfig {
    /// Checks the geometry, returning a human-readable error for the CLI
    /// to print instead of a panic deep in the scheduler.
    /// [`build`](ArrayConfig::build) asserts this.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending knob when the member
    /// count is zero, the chunk is zero pages, mirroring gets an odd
    /// member count, or the member configuration breaks
    /// [`SystemConfig::validate`].
    pub fn validate(&self) -> Result<(), String> {
        if self.members == 0 {
            return Err("an array needs at least one member".into());
        }
        if self.chunk_pages == 0 {
            return Err("the stripe chunk must be at least one page".into());
        }
        if self.redundancy == Redundancy::Mirror && !self.members.is_multiple_of(2) {
            return Err(format!(
                "mirroring pairs members, so the member count must be even (got {})",
                self.members
            ));
        }
        self.system.validate()
    }

    /// The number of data columns the volume is striped over
    /// ([`StripeMap::columns`]); panics on a layout
    /// [`StripeMap::new`] refuses.
    #[must_use]
    pub fn columns(&self) -> usize {
        self.stripe().columns()
    }

    fn stripe(&self) -> StripeMap {
        StripeMap::new(self.members, self.chunk_pages, self.redundancy)
    }

    /// Builds the array and its scheduler around `workload`.
    ///
    /// `policy` is invoked once per member so each device gets its own
    /// policy instance (policies carry mutable prediction state).
    ///
    /// Each member's [`NullWorkload`] stub reports the workload's name and
    /// write mix plus that member's *share* of the working set (its
    /// column's [`member_extent`](StripeMap::member_extent)), so aging /
    /// prefill fills each member the way the standalone path would. A
    /// single-member array is therefore configured identically to a plain
    /// [`SsdSystem`] running the same workload.
    ///
    /// # Panics
    ///
    /// Panics if [`validate`](ArrayConfig::validate) rejects the config,
    /// the stripe geometry is invalid (see [`StripeMap::new`]) or any
    /// member's share of the working set exceeds the device's logical
    /// space.
    #[must_use]
    pub fn build<F>(&self, policy: F, workload: Box<dyn Workload>) -> ArrayScheduler
    where
        F: FnMut(&SystemConfig) -> Box<dyn GcPolicy>,
    {
        self.build_with(policy, workload, |_, _| {})
    }

    /// [`build`](ArrayConfig::build) with a per-member configuration
    /// hook: `tweak(device, &mut system)` runs once per member before
    /// the device is constructed. This is how experiments model a
    /// heterogeneous rack — one aging, fault-prone straggler among
    /// healthy members, or mixed drive batches with different endurance
    /// — without giving up the shared geometry checks.
    ///
    /// # Panics
    ///
    /// As [`build`](ArrayConfig::build).
    #[must_use]
    pub fn build_with<F, M>(
        &self,
        mut policy: F,
        workload: Box<dyn Workload>,
        mut tweak: M,
    ) -> ArrayScheduler
    where
        F: FnMut(&SystemConfig) -> Box<dyn GcPolicy>,
        M: FnMut(usize, &mut SystemConfig),
    {
        if let Err(message) = self.validate() {
            panic!("invalid array config: {message}");
        }
        let stripe = self.stripe();
        let volume = workload.working_set_pages();
        let name = workload.name();
        let mix = workload.write_mix();
        let mut members = Vec::with_capacity(self.members);
        // Columns in order, each's primary then its replica, are the
        // devices in order.
        let devices = (0..stripe.columns()).flat_map(|column| {
            let (primary, replica) = stripe.devices_of(column);
            std::iter::once((primary, column)).chain(replica.map(|r| (r, column)))
        });
        for (device, column) in devices {
            // A column the volume never reaches still needs a non-empty
            // logical space to build a device around.
            let share = stripe.member_extent(column, volume).max(1);
            assert!(
                share <= self.system.ftl.user_pages(),
                "member {device} needs {share} pages but the device exposes {}; \
                 shrink the workload or add members",
                self.system.ftl.user_pages()
            );
            let stub = NullWorkload::new(name, share, mix);
            let mut system = self.system.clone();
            // Give every member its own fault stream: identical seeds
            // would wear all replicas out in lockstep, defeating the
            // mirror (correlated failures are exactly what real arrays
            // avoid by mixing drive batches). Member 0 keeps the
            // configured seed so a 1-member array stays byte-identical to
            // the standalone engine.
            if device > 0 {
                if let Some(fault) = system.ftl.fault().copied() {
                    let mut f = fault;
                    f.seed = fault
                        .seed
                        .wrapping_add((device as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    system.ftl = system.ftl.to_builder().fault(f).build();
                }
            }
            tweak(device, &mut system);
            members.push(SsdSystem::new(
                system.clone(),
                policy(&system),
                Box::new(stub),
            ));
        }
        ArrayScheduler::new(members, stripe, self.gc_mode, workload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitgc_core::system::SystemConfig;

    fn config(members: usize, redundancy: Redundancy) -> ArrayConfig {
        ArrayConfig {
            members,
            chunk_pages: 16,
            redundancy,
            gc_mode: GcMode::Staggered,
            system: SystemConfig::small_for_tests(),
        }
    }

    #[test]
    fn validate_accepts_rack_scale_configs() {
        assert_eq!(config(1, Redundancy::None).validate(), Ok(()));
        assert_eq!(config(64, Redundancy::Mirror).validate(), Ok(()));
        assert_eq!(config(256, Redundancy::None).validate(), Ok(()));
    }

    #[test]
    fn validate_names_the_offending_knob() {
        let err = |c: ArrayConfig| c.validate().unwrap_err();
        assert!(err(config(0, Redundancy::None)).contains("at least one member"));
        let mut zero_chunk = config(2, Redundancy::None);
        zero_chunk.chunk_pages = 0;
        assert!(err(zero_chunk).contains("at least one page"));
        assert!(err(config(3, Redundancy::Mirror)).contains("even"));
        let mut no_threads = config(2, Redundancy::None);
        no_threads.system.queue_depth = 0;
        assert!(err(no_threads).contains("`queue_depth` must be greater than zero"));
    }
}
