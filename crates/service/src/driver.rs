//! Deterministic in-process closed-loop driver.
//!
//! [`run_closed_loop`] stands up a [`Service`] and drives the configured
//! tenant mix against it entirely in virtual time. Each tenant runs
//! `concurrency` closed-loop application threads sharing one request
//! stream round-robin (the same model the engine uses for its own
//! `queue_depth`): a thread submits its next request no earlier than the
//! previous request's think-time gap and no earlier than its own previous
//! completion.
//!
//! # Determinism across worker threads
//!
//! `worker_threads` parallelism is confined to *trace generation*: each
//! tenant's request stream depends only on its own seed, so the streams
//! are one [`run_grid`] over the tenant indices, returned in tenant order.
//! Everything that involves the shared engine — submission, arbitration,
//! stepping, accounting — runs serially on the calling thread in one
//! discrete-event loop. The report is therefore byte-identical for any
//! worker count.

use std::collections::HashMap;

use jitgc_core::policy::GcPolicy;
use jitgc_sim::{run_grid, SimTime};
use jitgc_workload::{IoRequest, Synthetic, Workload, WorkloadConfig};

use crate::config::{ServiceConfig, TenantProfile};
use crate::report::ServiceReport;
use crate::service::Service;

/// Odd 64-bit constant (golden-ratio based) decorrelating tenant seeds.
const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Synthesizes tenant `tenant`'s full request stream.
fn generate_trace(cfg: &ServiceConfig, tenant: usize) -> Vec<IoRequest> {
    let spec = &cfg.tenants[tenant];
    let wl_cfg = WorkloadConfig::builder()
        .working_set_pages(cfg.pages_per_tenant())
        .duration(jitgc_sim::SimDuration::from_secs(cfg.seconds))
        .mean_iops(spec.mean_iops)
        .seed(
            cfg.seed
                .wrapping_add((tenant as u64).wrapping_mul(SEED_STRIDE)),
        )
        .build();
    let builder = match spec.profile {
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
    let mut workload = builder.build(wl_cfg);
    let mut trace = Vec::new();
    while let Some(req) = workload.next_request() {
        trace.push(req);
    }
    trace
}

/// Generates every tenant's trace, fanning the independent streams out
/// over `cfg.worker_threads` workers.
fn generate_traces(cfg: &ServiceConfig) -> Vec<Vec<IoRequest>> {
    let tenants: Vec<usize> = (0..cfg.tenants.len()).collect();
    run_grid(&tenants, cfg.worker_threads, |&i| generate_trace(cfg, i))
}

/// One tenant's closed-loop driving state.
struct TenantLoop {
    trace: Vec<IoRequest>,
    cursor: usize,
    prev_submit: SimTime,
    /// Per application thread: when it is free to submit again
    /// (`None` while its request is outstanding).
    slots: Vec<Option<SimTime>>,
    next_slot: usize,
    /// Outstanding request id → the slot waiting on it.
    pending: HashMap<u64, usize>,
}

impl TenantLoop {
    /// When this tenant submits next, if its stream has requests left and
    /// the round-robin slot is free.
    fn next_instant(&self) -> Option<SimTime> {
        let req = self.trace.get(self.cursor)?;
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
/// telemetry the deterministic report deliberately omits (the bench
/// harness records them; see `ssdsimd --bench-json`).
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
    let traces = generate_traces(cfg);
    let mut service = Service::new(cfg.clone(), policy);
    let mut loops: Vec<TenantLoop> = traces
        .into_iter()
        .zip(&cfg.tenants)
        .map(|(trace, spec)| TenantLoop {
            trace,
            cursor: 0,
            prev_submit: SimTime::ZERO,
            slots: vec![Some(SimTime::ZERO); spec.concurrency as usize],
            next_slot: 0,
            pending: HashMap::new(),
        })
        .collect();
    let mut now = SimTime::ZERO;
    let mut last_completion = SimTime::ZERO;
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
        service.release_window(now);
        for (tenant, l) in loops.iter_mut().enumerate() {
            while matches!(l.next_instant(), Some(t) if t <= now) {
                let req = l.trace[l.cursor];
                l.cursor += 1;
                l.prev_submit = now;
                let slot = l.next_slot;
                l.next_slot = (slot + 1) % l.slots.len();
                l.slots[slot] = None;
                let outcome = service.submit(tenant, req.kind, req.lpn.0, req.pages, now);
                l.pending.insert(outcome.id(), slot);
            }
        }
        service.pump(now);
        for (tenant, l) in loops.iter_mut().enumerate() {
            for c in service.take_completions(tenant) {
                let slot = l
                    .pending
                    .remove(&c.id)
                    .expect("completion matches an outstanding request");
                l.slots[slot] = Some(c.completed_at);
                last_completion = last_completion.max(c.completed_at);
            }
        }
    }
    let end = last_completion.max(SimTime::from_secs(cfg.seconds));
    let report = service.finalize(end);
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
    fn traces_are_independent_of_worker_count() {
        let mut one = quick_cfg();
        one.worker_threads = 1;
        let mut all = quick_cfg();
        all.worker_threads = all.tenants.len();
        assert_eq!(generate_traces(&one), generate_traces(&all));
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
