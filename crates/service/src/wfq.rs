//! Weighted fair queueing by virtual finish time.
//!
//! The arbiter keeps a per-tenant virtual *finish tag* and a global
//! virtual clock, all in fixed-point integer arithmetic so scheduling is
//! exactly reproducible. Dispatching a request of `cost` bytes from
//! tenant `i` advances that tenant's tag by `cost / weight_i` virtual
//! units (start-time fair queueing): a tenant with twice the weight pays
//! half the virtual time per byte and therefore wins the arbiter twice
//! as often at equal demand. While a tenant stays backlogged its tag
//! evolves only through its own dispatches — that lag behind the clock
//! *is* its earned service credit. Only when an idle tenant returns
//! ([`arrive`](WfqArbiter::arrive)) is its tag clamped up to the virtual
//! clock, so nobody banks credit while away.

/// Fixed-point scale of virtual time: one byte at weight 1 costs
/// `SCALE` virtual units, so integer division by the weight keeps ~20
/// bits of fraction.
const SCALE: u128 = 1 << 20;

/// The weighted-fair-queueing arbiter.
#[derive(Debug, Clone)]
pub struct WfqArbiter {
    weights: Vec<u64>,
    finish: Vec<u128>,
    virtual_time: u128,
    served_bytes: Vec<u64>,
}

impl WfqArbiter {
    /// Creates an arbiter for the given tenant weights.
    ///
    /// # Panics
    ///
    /// Panics if any weight is zero (validated upstream by
    /// [`ServiceConfig::validate`](crate::ServiceConfig::validate)).
    #[must_use]
    pub fn new(weights: &[u64]) -> Self {
        assert!(
            weights.iter().all(|&w| w > 0),
            "fair-queueing weights must be positive"
        );
        WfqArbiter {
            weights: weights.to_vec(),
            finish: vec![0; weights.len()],
            virtual_time: 0,
            served_bytes: vec![0; weights.len()],
        }
    }

    /// Notifies the arbiter that tenant `tenant` went from idle to
    /// backlogged: its finish tag is clamped up to the virtual clock so
    /// time spent idle earns no catch-up credit. Calling this for an
    /// already-backlogged tenant would erase its earned lag — the caller
    /// invokes it only on the empty→non-empty queue transition.
    pub fn arrive(&mut self, tenant: usize) {
        self.finish[tenant] = self.finish[tenant].max(self.virtual_time);
    }

    /// The virtual finish tag tenant `tenant` would carry after serving a
    /// request of `cost_bytes`.
    #[must_use]
    pub fn finish_tag(&self, tenant: usize, cost_bytes: u64) -> u128 {
        self.finish[tenant] + u128::from(cost_bytes) * SCALE / u128::from(self.weights[tenant])
    }

    /// Picks the next tenant to serve among `candidates` (tenant index +
    /// head-of-queue cost in bytes): the minimum virtual finish tag, ties
    /// broken by the lower tenant index. Deterministic for any candidate
    /// iteration order.
    #[must_use]
    pub fn pick(&self, candidates: impl Iterator<Item = (usize, u64)>) -> Option<usize> {
        candidates
            .map(|(tenant, cost)| (self.finish_tag(tenant, cost), tenant))
            .min()
            .map(|(_, tenant)| tenant)
    }

    /// Charges tenant `tenant` for a dispatched request of `cost_bytes`
    /// and advances the virtual clock to the request's start tag (the
    /// clock never moves backward).
    pub fn dispatch(&mut self, tenant: usize, cost_bytes: u64) {
        let start = self.finish[tenant];
        self.finish[tenant] =
            start + u128::from(cost_bytes) * SCALE / u128::from(self.weights[tenant]);
        self.virtual_time = self.virtual_time.max(start);
        self.served_bytes[tenant] += cost_bytes;
    }

    /// Total bytes served to tenant `tenant` so far.
    #[must_use]
    pub fn served_bytes(&self, tenant: usize) -> u64 {
        self.served_bytes[tenant]
    }

    /// This tenant's configured weight as a fraction of the roster total.
    #[must_use]
    pub fn weight_share(&self, tenant: usize) -> f64 {
        let total: u64 = self.weights.iter().sum();
        self.weights[tenant] as f64 / total as f64
    }

    /// This tenant's served bytes as a fraction of all bytes served.
    /// `None` before the first dispatch.
    #[must_use]
    pub fn served_share(&self, tenant: usize) -> Option<f64> {
        let total: u64 = self.served_bytes.iter().sum();
        (total > 0).then(|| self.served_bytes[tenant] as f64 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Always-backlogged tenants with equal request sizes must converge
    /// to their weight shares.
    #[test]
    fn backlogged_tenants_serve_in_weight_proportion() {
        let mut wfq = WfqArbiter::new(&[1, 3]);
        for _ in 0..4_000 {
            let t = wfq
                .pick([(0usize, 4_096u64), (1, 4_096)].into_iter())
                .unwrap();
            wfq.dispatch(t, 4_096);
        }
        let share = wfq.served_share(0).unwrap();
        assert!((share - 0.25).abs() < 0.01, "weight-1 share {share}");
        assert!((wfq.weight_share(0) - 0.25).abs() < 1e-12);
    }

    /// A tenant that sat idle does not bank virtual time: on return it
    /// competes from the current clock, not from zero.
    #[test]
    fn idle_tenant_cannot_bank_credit() {
        let mut wfq = WfqArbiter::new(&[1, 1]);
        // Tenant 0 alone for a long stretch.
        for _ in 0..1_000 {
            wfq.dispatch(0, 4_096);
        }
        // Tenant 1 arrives; both backlogged from here on.
        wfq.arrive(1);
        let before = wfq.served_bytes(0);
        for _ in 0..200 {
            let t = wfq
                .pick([(0usize, 4_096u64), (1, 4_096)].into_iter())
                .unwrap();
            wfq.dispatch(t, 4_096);
        }
        let t0 = wfq.served_bytes(0) - before;
        let t1 = wfq.served_bytes(1);
        // Equal weights: the new arrival gets at most one extra quantum,
        // never a 1000-request catch-up burst.
        assert!(
            t1 <= t0 + 4_096,
            "returning tenant banked credit: {t1} vs {t0}"
        );
        assert!(t0 > 0, "incumbent starved by the returning tenant");
    }

    #[test]
    fn ties_break_to_the_lower_index() {
        let wfq = WfqArbiter::new(&[2, 2, 2]);
        assert_eq!(
            wfq.pick([(2usize, 100u64), (0, 100), (1, 100)].into_iter()),
            Some(0)
        );
    }

    #[test]
    fn empty_candidate_set_picks_nothing() {
        let wfq = WfqArbiter::new(&[1]);
        assert_eq!(wfq.pick(std::iter::empty()), None);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_weight_is_rejected() {
        let _ = WfqArbiter::new(&[1, 0]);
    }
}
