//! Deterministic in-process closed-loop driver.
//!
//! [`run_closed_loop`] stands up a [`Service`] and drives the configured
//! tenant mix against it entirely in virtual time. Each tenant runs
//! `concurrency` closed-loop application threads sharing one request
//! stream round-robin: the next request is submitted at the later of the
//! tenant's previous submission plus the request's think-time gap and the
//! moment its thread's previous request completed. That is not the
//! engine's own `queue_depth` clock
//! ([`ClosedLoop`](jitgc_core::system::ClosedLoop)), where a thread issues
//! its next request `gap` after its own previous completion.
//!
//! # Constant memory
//!
//! Each tenant's requests are pulled from its stream one ahead of
//! submission, never materialised: a stream depends only on its tenant's
//! seed, so pulling lazily yields the same requests in the same order as
//! generating the whole trace up front. The streams are generated on one
//! thread for every tenant ([`prefetch_streams`]) into a fixed set of
//! batches, so the loop's memory is O(tenants + concurrency), whatever
//! `seconds × IOPS` is. Ids are dense per tenant and slots are dealt
//! round-robin from 0, one per submission, so a completion's slot is
//! `id % concurrency` and no outstanding-request map is kept. The service
//! itself runs serially on the calling thread in one discrete-event
//! loop.

use jitgc_core::policy::GcPolicy;
use jitgc_core::system::prefetch_streams;
use jitgc_sim::SimTime;
use jitgc_workload::{IoRequest, Synthetic};

use crate::config::{ServiceConfig, TenantProfile};
use crate::report::ServiceReport;
use crate::service::Service;

/// Odd 64-bit constant (golden-ratio based) decorrelating tenant seeds.
const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Tenant `tenant`'s request generator.
fn tenant_workload(cfg: &ServiceConfig, tenant: usize) -> Synthetic {
    let wl_cfg = cfg
        .tenant_workload(tenant)
        .working_set_pages(cfg.pages_per_tenant())
        .seed(
            cfg.seed
                .wrapping_add((tenant as u64).wrapping_mul(SEED_STRIDE)),
        )
        .build();
    let builder = match cfg.tenants[tenant].profile {
        TenantProfile::Reader => Synthetic::builder().read_fraction(1.0).pages(1, 4),
        TenantProfile::Writer => Synthetic::builder()
            .read_fraction(0.0)
            .buffered_fraction(0.7)
            .pages(8, 32),
        TenantProfile::Mixed => Synthetic::builder()
            .read_fraction(0.5)
            .buffered_fraction(0.7)
            .pages(1, 8),
    };
    builder.build(wl_cfg)
}

/// One tenant's closed-loop driving state.
struct TenantLoop {
    /// The stream's next request, pulled one ahead (`None` once it ends).
    next: Option<IoRequest>,
    prev_submit: SimTime,
    /// Per application thread: when it is free to submit again
    /// (`None` while its request is outstanding).
    slots: Vec<Option<SimTime>>,
    next_slot: usize,
}

impl TenantLoop {
    fn new(next: Option<IoRequest>, concurrency: u32) -> Self {
        TenantLoop {
            next,
            prev_submit: SimTime::ZERO,
            slots: vec![Some(SimTime::ZERO); concurrency as usize],
            next_slot: 0,
        }
    }

    /// When this tenant submits next, if its stream has requests left and
    /// the round-robin slot is free.
    fn next_instant(&self) -> Option<SimTime> {
        let req = self.next.as_ref()?;
        let free = self.slots[self.next_slot]?;
        Some((self.prev_submit + req.gap).max(free))
    }
}

/// Runs the configured tenant mix to completion against a fresh service
/// and returns the report.
///
/// # Panics
///
/// Panics if [`ServiceConfig::validate`] rejects the configuration.
#[must_use]
pub fn run_closed_loop(cfg: &ServiceConfig, policy: Box<dyn GcPolicy>) -> ServiceReport {
    run_closed_loop_counting(cfg, policy).0
}

/// [`run_closed_loop`], additionally returning the engine's quiescence
/// fast-forward counters `(report, ticks_skipped, ff_spans)` — wall-clock
/// telemetry the deterministic report deliberately omits (the
/// `benchmark/` package's `jitgc-perf` records them).
///
/// # Panics
///
/// Panics if [`ServiceConfig::validate`] rejects the configuration.
#[must_use]
pub fn run_closed_loop_counting(
    cfg: &ServiceConfig,
    policy: Box<dyn GcPolicy>,
) -> (ServiceReport, u64, u64) {
    if let Err(message) = cfg.validate() {
        panic!("invalid service config: {message}");
    }
    let mut workloads: Vec<Synthetic> = (0..cfg.tenants.len())
        .map(|i| tenant_workload(cfg, i))
        .collect();
    let mut lent: Vec<&mut Synthetic> = workloads.iter_mut().collect();
    let mut service = Service::new(cfg.clone(), policy);
    prefetch_streams(&mut lent, |streams| {
        let mut loops: Vec<TenantLoop> = cfg
            .tenants
            .iter()
            .enumerate()
            .map(|(i, spec)| TenantLoop::new(streams.next(i), spec.concurrency))
            .collect();
        let mut now = SimTime::ZERO;
        loop {
            let next_submit = loops.iter().filter_map(TenantLoop::next_instant).min();
            let window_free = if service.has_queued() {
                service.next_window_free()
            } else {
                None
            };
            let event = match (next_submit, window_free) {
                (Some(a), Some(b)) => a.min(b),
                (Some(t), None) | (None, Some(t)) => t,
                (None, None) => break,
            };
            now = now.max(event);
            for (tenant, l) in loops.iter_mut().enumerate() {
                while matches!(l.next_instant(), Some(t) if t <= now) {
                    let req = std::mem::replace(&mut l.next, streams.next(tenant))
                        .expect("next_instant saw a request");
                    l.prev_submit = now;
                    let slot = l.next_slot;
                    l.next_slot = (slot + 1) % l.slots.len();
                    l.slots[slot] = None;
                    let outcome = service.submit(tenant, req.kind, req.lpn.0, req.pages, now);
                    debug_assert_eq!(outcome.id() % l.slots.len() as u64, slot as u64);
                }
            }
            service.pump(now);
            for (tenant, l) in loops.iter_mut().enumerate() {
                if !service.has_completions(tenant) {
                    continue;
                }
                let threads = l.slots.len() as u64;
                for c in service.take_completions(tenant) {
                    let slot = &mut l.slots[(c.id % threads) as usize];
                    assert!(
                        slot.is_none(),
                        "completion {} of tenant {tenant} finds its slot idle",
                        c.id
                    );
                    *slot = Some(c.completed_at);
                }
            }
        }
    });
    let report = service.finalize(SimTime::from_secs(cfg.seconds));
    (report, service.ticks_skipped(), service.ff_spans())
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitgc_core::policy::NoBgc;

    fn quick_cfg() -> ServiceConfig {
        let mut cfg = ServiceConfig::small_for_tests();
        cfg.seconds = 5;
        cfg.system.prefill = false;
        cfg
    }

    #[test]
    fn closed_loop_completes_every_request() {
        let report = run_closed_loop(&quick_cfg(), Box::new(NoBgc));
        for t in &report.tenants {
            assert!(t.submitted > 0, "{} submitted nothing", t.name);
            assert_eq!(
                t.submitted,
                t.completed + t.shed,
                "{} leaked requests",
                t.name
            );
        }
    }

    #[test]
    fn reports_are_deterministic_per_seed() {
        let a = run_closed_loop(&quick_cfg(), Box::new(NoBgc));
        let b = run_closed_loop(&quick_cfg(), Box::new(NoBgc));
        assert_eq!(a.to_json().to_pretty(), b.to_json().to_pretty());
    }
}
