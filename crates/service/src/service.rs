//! The multi-tenant service core: queue pairs, arbitration, backpressure.
//!
//! [`Service`] owns one [`SsdSystem`] engine and fronts it with NVMe-style
//! per-tenant queue pairs. Tenants [`submit`](Service::submit) requests
//! into bounded submission queues; [`pump`](Service::pump) lets the
//! weighted-fair-queueing arbiter pick among queue heads and step the
//! engine; completions appear on per-tenant completion queues. All timing
//! is virtual ([`SimTime`]), so the whole service is deterministic: the
//! same submission sequence produces byte-identical reports.
//!
//! Backpressure is tiered. The service folds two signals into one scalar
//! *pressure* — the fullest tenant's queue occupancy and the engine's
//! [GC debt](GcSignals::gc_debt) — and feeds it to a hysteretic
//! [`TierPolicy`]. Yellow defers low-weight tenants' writes while any
//! other work is runnable, Red sheds them with explicit busy completions,
//! Black admits only reads. "Low-weight" means below the roster's mean
//! weight.

use std::cmp::Reverse;
use std::collections::vec_deque::Drain;
use std::collections::{BinaryHeap, VecDeque};

use jitgc_core::policy::GcPolicy;
use jitgc_core::system::{SimReport, SsdSystem};
use jitgc_nand::Lpn;
use jitgc_sim::stats::LatencyRecorder;
use jitgc_sim::{SimDuration, SimTime};
use jitgc_workload::{IoKind, IoRequest, NullWorkload, WriteMix};

use crate::config::ServiceConfig;
use crate::queue::{Completion, CompletionStatus, Submission, SubmitOutcome};
use crate::report::{ServiceReport, TenantReport, TierReport};
use crate::tier::{Tier, TierPolicy};
use crate::wfq::WfqArbiter;

/// Per-tenant queue pair plus accounting.
#[derive(Debug)]
struct TenantState {
    /// Bounded submission queue the arbiter picks from.
    sq: VecDeque<Submission>,
    /// Submissions that found the SQ full; re-admitted in order as it
    /// drains (through a fresh tier check — pressure may have risen).
    stalled: VecDeque<Submission>,
    /// Completion queue, drained by [`Service::take_completions`].
    cq: VecDeque<Completion>,
    next_id: u64,
    submitted: u64,
    completed: u64,
    shed: u64,
    deferred: u64,
    blocked: u64,
    reads: u64,
    writes: u64,
    trims: u64,
    host_pages: u64,
    nand_pages: u64,
    latency: LatencyRecorder,
}

impl TenantState {
    fn new() -> Self {
        TenantState {
            sq: VecDeque::new(),
            stalled: VecDeque::new(),
            cq: VecDeque::new(),
            next_id: 0,
            submitted: 0,
            completed: 0,
            shed: 0,
            deferred: 0,
            blocked: 0,
            reads: 0,
            writes: 0,
            trims: 0,
            host_pages: 0,
            nand_pages: 0,
            latency: LatencyRecorder::new(),
        }
    }
}

/// The multi-tenant queue-pair frontend over one SSD engine.
pub struct Service {
    cfg: ServiceConfig,
    engine: SsdSystem,
    arbiter: WfqArbiter,
    tier: TierPolicy,
    tenants: Vec<TenantState>,
    /// Submissions in every SQ and stalled buffer.
    queued: usize,
    /// An input of the pressure signal — a queue's length or the
    /// engine's state — changed since the tier last saw it.
    pressure_stale: bool,
    low_weight: Vec<bool>,
    /// Completion times of requests dispatched to the device but not yet
    /// past their (virtual) completion — the NVMe-queue-depth analogue.
    inflight: BinaryHeap<Reverse<SimTime>>,
    pages_per_tenant: u64,
    page_bytes: u64,
    last_issue: SimTime,
    /// The latest `completed_at` posted: the run cannot end before it.
    last_completion: SimTime,
    tier_transitions: Vec<(SimTime, Tier)>,
    tier_entered: SimTime,
    tier_residency: [SimDuration; 4],
}

impl Service {
    /// Builds the service: validates the configuration, constructs the
    /// engine over the tenants' combined working set, and ages (prefills)
    /// the device if the system configuration asks for it.
    ///
    /// # Panics
    ///
    /// Panics if [`ServiceConfig::validate`] rejects the configuration.
    #[must_use]
    pub fn new(cfg: ServiceConfig, policy: Box<dyn GcPolicy>) -> Self {
        if let Err(message) = cfg.validate() {
            panic!("invalid service config: {message}");
        }
        let pages_per_tenant = cfg.pages_per_tenant();
        let working_set = pages_per_tenant * cfg.tenants.len() as u64;
        // The engine never pulls from its workload when stepped
        // externally; the stub only sizes prefill and names the report.
        let stub = NullWorkload::new("service", working_set, WriteMix::new(0.5));
        let mut engine = SsdSystem::new(cfg.system.clone(), policy, Box::new(stub));
        engine.set_fast_forward(cfg.fast_forward);
        if cfg.system.prefill {
            engine.prefill();
        }
        let page_bytes = engine.ftl().device().geometry().page_size().as_u64();
        let weights: Vec<u64> = cfg.tenants.iter().map(|t| t.weight).collect();
        let mean = cfg.mean_weight();
        let low_weight = weights.iter().map(|&w| (w as f64) < mean).collect();
        let tier = TierPolicy::new(cfg.tiers);
        Service {
            arbiter: WfqArbiter::new(&weights),
            tenants: (0..cfg.tenants.len()).map(|_| TenantState::new()).collect(),
            queued: 0,
            pressure_stale: true,
            low_weight,
            inflight: BinaryHeap::new(),
            pages_per_tenant,
            page_bytes,
            last_issue: SimTime::ZERO,
            last_completion: SimTime::ZERO,
            tier_transitions: vec![(SimTime::ZERO, Tier::Green)],
            tier_entered: SimTime::ZERO,
            tier_residency: [SimDuration::ZERO; 4],
            tier,
            engine,
            cfg,
        }
    }

    /// The service configuration.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// The current backpressure tier.
    #[must_use]
    pub fn tier(&self) -> Tier {
        self.tier.current()
    }

    /// Flusher ticks the engine's quiescence fast-forward elided so far
    /// (see [`SsdSystem::ticks_skipped`]). Not part of the report — the
    /// report stays byte-identical with the fast-forward off.
    #[must_use]
    pub fn ticks_skipped(&self) -> u64 {
        self.engine.ticks_skipped()
    }

    /// Fast-forwarded idle spans so far (see [`SsdSystem::ff_spans`]).
    #[must_use]
    pub fn ff_spans(&self) -> u64 {
        self.engine.ff_spans()
    }

    /// Pages of logical space each tenant owns.
    #[must_use]
    pub fn pages_per_tenant(&self) -> u64 {
        self.pages_per_tenant
    }

    /// Recomputes pressure and lets the tier policy react, recording the
    /// transition for the report timeline. Does nothing unless an input
    /// changed since the last call: [`TierPolicy::update`] of an unchanged
    /// pressure changes nothing.
    fn refresh_tier(&mut self, now: SimTime) {
        if !std::mem::take(&mut self.pressure_stale) {
            return;
        }
        // Dividing by the depth is monotone, so the fullest tenant's count
        // over it is the largest of their fractions, to the bit.
        let fullest = self
            .tenants
            .iter()
            .map(|t| t.sq.len() + t.stalled.len())
            .max()
            .unwrap_or(0);
        let occupancy = (fullest as f64 / self.cfg.sq_depth as f64).min(1.0);
        let pressure = occupancy.max(self.engine.gc_signals().gc_debt());
        let before = self.tier.current();
        let after = self.tier.update(pressure);
        if after != before {
            self.tier_residency[before.index()] += now.saturating_since(self.tier_entered);
            self.tier_entered = now;
            self.tier_transitions.push((now, after));
        }
    }

    /// Whether the current tier sheds a write from `tenant` at admission.
    fn sheds(&self, tenant: usize, kind: IoKind) -> bool {
        if !self.cfg.backpressure || !kind.is_write() {
            return false;
        }
        match self.tier.current() {
            Tier::Green | Tier::Yellow => false,
            Tier::Red => self.low_weight[tenant],
            Tier::Black => true,
        }
    }

    fn post(&mut self, tenant: usize, completion: Completion) {
        self.last_completion = self.last_completion.max(completion.completed_at);
        let t = &mut self.tenants[tenant];
        match completion.status {
            CompletionStatus::Done => {
                t.completed += 1;
                t.latency.record(completion.latency());
            }
            CompletionStatus::Busy => t.shed += 1,
        }
        t.cq.push_back(completion);
    }

    /// Moves stalled submissions into the SQ while room lasts, applying a
    /// fresh shed check to each (the tier may have risen since they
    /// stalled). Called right after a push or pop, which marked the
    /// pressure stale.
    fn drain_stalled(&mut self, tenant: usize, now: SimTime) {
        while self.tenants[tenant].sq.len() < self.cfg.sq_depth {
            let Some(sub) = self.tenants[tenant].stalled.pop_front() else {
                return;
            };
            if self.sheds(tenant, sub.kind) {
                self.queued -= 1;
                self.post(
                    tenant,
                    Completion {
                        id: sub.id,
                        status: CompletionStatus::Busy,
                        submitted_at: sub.submitted_at,
                        completed_at: now,
                    },
                );
            } else {
                self.tenants[tenant].sq.push_back(sub);
            }
        }
    }

    /// Submits one request on tenant `tenant`'s queue pair at virtual time
    /// `now`. The LPN is tenant-local; the service relocates it into the
    /// tenant's partition. Returns what admission control did.
    pub fn submit(
        &mut self,
        tenant: usize,
        kind: IoKind,
        lpn: u64,
        pages: u32,
        now: SimTime,
    ) -> SubmitOutcome {
        self.refresh_tier(now);
        let t = &mut self.tenants[tenant];
        let id = t.next_id;
        t.next_id += 1;
        t.submitted += 1;
        match kind {
            IoKind::Read => t.reads += 1,
            IoKind::BufferedWrite | IoKind::DirectWrite => t.writes += 1,
            IoKind::Trim => t.trims += 1,
        }
        if self.sheds(tenant, kind) {
            self.post(
                tenant,
                Completion {
                    id,
                    status: CompletionStatus::Busy,
                    submitted_at: now,
                    completed_at: now,
                },
            );
            return SubmitOutcome::Shed(id);
        }
        let sub = Submission {
            id,
            kind,
            lpn,
            pages,
            submitted_at: now,
            deferred: false,
        };
        let t = &mut self.tenants[tenant];
        if t.sq.is_empty() && t.stalled.is_empty() {
            // Idle → backlogged: the arbiter clamps this tenant's virtual
            // tag to the clock so idle time earns no catch-up credit.
            self.arbiter.arrive(tenant);
        }
        self.queued += 1;
        self.pressure_stale = true;
        let t = &mut self.tenants[tenant];
        if !t.stalled.is_empty() || t.sq.len() >= self.cfg.sq_depth {
            t.blocked += 1;
            t.stalled.push_back(sub);
            self.drain_stalled(tenant, now);
            SubmitOutcome::Blocked(id)
        } else {
            t.sq.push_back(sub);
            SubmitOutcome::Accepted(id)
        }
    }

    /// True while any submission queue or stalled buffer holds work.
    #[must_use]
    pub fn has_queued(&self) -> bool {
        self.queued > 0
    }

    /// Releases dispatch-window slots whose requests completed by `now`.
    pub fn release_window(&mut self, now: SimTime) {
        while matches!(self.inflight.peek(), Some(Reverse(t)) if *t <= now) {
            self.inflight.pop();
        }
    }

    /// When the earliest in-flight request completes, if any.
    #[must_use]
    pub fn next_window_free(&self) -> Option<SimTime> {
        self.inflight.peek().map(|Reverse(t)| *t)
    }

    /// Picks the next queue head per WFQ, honouring Yellow-tier deferral:
    /// a low-weight tenant's head write is skipped while any other
    /// candidate exists. Returns the chosen tenant.
    fn arbitrate(&mut self) -> Option<usize> {
        let deferring = self.cfg.backpressure && self.tier.current() >= Tier::Yellow;
        let low_weight = &self.low_weight;
        let held_back = |tenant: usize, head: &Submission| {
            deferring && low_weight[tenant] && head.kind.is_write()
        };
        // Below Yellow nothing is held back, so every head is a candidate.
        let mut serve_all = true;
        if deferring {
            let (mut eligible, mut held) = (0, 0);
            for (i, t) in self.tenants.iter().enumerate() {
                match t.sq.front() {
                    Some(head) if held_back(i, head) => held += 1,
                    Some(_) => eligible += 1,
                    None => {}
                }
            }
            // Everything runnable held back: serve it anyway rather than
            // deadlock — Yellow slows low-weight writers, never stops them.
            serve_all = eligible == 0;
            if !serve_all && held > 0 {
                for (i, t) in self.tenants.iter_mut().enumerate() {
                    match t.sq.front_mut() {
                        Some(head) if held_back(i, head) && !head.deferred => {
                            head.deferred = true;
                            t.deferred += 1;
                        }
                        _ => {}
                    }
                }
            }
        }
        let page_bytes = self.page_bytes;
        self.arbiter
            .pick(self.tenants.iter().enumerate().filter_map(|(i, t)| {
                let head = t.sq.front()?;
                (serve_all || !held_back(i, head)).then(|| (i, u64::from(head.pages) * page_bytes))
            }))
    }

    /// Dispatches queued submissions to the engine while the dispatch
    /// window has room, posting completions as they are computed. Returns
    /// how many requests were dispatched.
    pub fn pump(&mut self, now: SimTime) -> usize {
        self.release_window(now);
        let mut dispatched = 0;
        while self.inflight.len() < self.cfg.dispatch_window {
            self.refresh_tier(now);
            if self.queued == 0 {
                break;
            }
            let Some(tenant) = self.arbitrate() else {
                break;
            };
            let sub = self.tenants[tenant].sq.pop_front().expect("picked head");
            self.queued -= 1;
            // The pop, and the engine step below, move the pressure.
            self.pressure_stale = true;
            self.drain_stalled(tenant, now);
            let base = tenant as u64 * self.pages_per_tenant;
            let span = u64::from(sub.pages).min(self.pages_per_tenant);
            let local = sub.lpn.min(self.pages_per_tenant - span);
            let req = IoRequest {
                gap: SimDuration::ZERO,
                kind: sub.kind,
                lpn: Lpn(base + local),
                pages: span as u32,
            };
            let issue = now.max(self.last_issue);
            self.last_issue = issue;
            let host_before = self.engine.ftl().stats().host_pages_written;
            let prog_before = self.engine.ftl().device().stats().programs;
            let done = self.engine.step(req, issue);
            // Attribute the step's device work — including any flusher
            // write-back or GC it triggered — to the tenant that ran it.
            let t = &mut self.tenants[tenant];
            t.host_pages += self.engine.ftl().stats().host_pages_written - host_before;
            t.nand_pages += self.engine.ftl().device().stats().programs - prog_before;
            self.arbiter
                .dispatch(tenant, u64::from(sub.pages) * self.page_bytes);
            self.post(
                tenant,
                Completion {
                    id: sub.id,
                    status: CompletionStatus::Done,
                    submitted_at: sub.submitted_at,
                    completed_at: done,
                },
            );
            if done > now {
                self.inflight.push(Reverse(done));
            }
            dispatched += 1;
        }
        dispatched
    }

    /// True while tenant `tenant`'s completion queue holds completions.
    #[must_use]
    pub fn has_completions(&self, tenant: usize) -> bool {
        !self.tenants[tenant].cq.is_empty()
    }

    /// Drains tenant `tenant`'s completion queue, oldest first. Dropping
    /// the iterator early still empties the queue.
    pub fn take_completions(&mut self, tenant: usize) -> Drain<'_, Completion> {
        self.tenants[tenant].cq.drain(..)
    }

    /// Closes the run at virtual time `end`, or at the latest completion
    /// posted if that is later, and assembles the service report
    /// (per-tenant accounting + tier timeline + device report).
    #[must_use]
    pub fn finalize(&mut self, end: SimTime) -> ServiceReport {
        let end = end.max(self.last_completion);
        self.engine.advance_to(end);
        self.pressure_stale = true;
        let device: SimReport = self.engine.finalize(end);
        self.tier_residency[self.tier.current().index()] += end.saturating_since(self.tier_entered);
        self.tier_entered = end;
        let tenants = self
            .cfg
            .tenants
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let t = &self.tenants[i];
                let us = |q: f64| t.latency.percentile(q).map(|d| d.as_micros());
                TenantReport {
                    name: spec.name.clone(),
                    profile: spec.profile,
                    weight: spec.weight,
                    concurrency: spec.concurrency,
                    submitted: t.submitted,
                    completed: t.completed,
                    shed: t.shed,
                    deferred: t.deferred,
                    blocked: t.blocked,
                    reads: t.reads,
                    writes: t.writes,
                    trims: t.trims,
                    host_pages_written: t.host_pages,
                    nand_pages_programmed: t.nand_pages,
                    waf: (t.host_pages > 0).then(|| t.nand_pages as f64 / t.host_pages as f64),
                    served_bytes: self.arbiter.served_bytes(i),
                    served_share: self.arbiter.served_share(i),
                    weight_share: self.arbiter.weight_share(i),
                    latency_mean_us: t.latency.mean().map(|d| d.as_micros()),
                    latency_p50_us: us(0.50),
                    latency_p99_us: us(0.99),
                    latency_p999_us: us(0.999),
                    latency_max_us: t.latency.max().map(|d| d.as_micros()),
                }
            })
            .collect();
        ServiceReport {
            tenants,
            tier: TierReport {
                thresholds: self.cfg.tiers,
                transitions: self
                    .tier_transitions
                    .iter()
                    .map(|&(t, tier)| (t.as_micros(), tier))
                    .collect(),
                residency_us: [
                    self.tier_residency[0].as_micros(),
                    self.tier_residency[1].as_micros(),
                    self.tier_residency[2].as_micros(),
                    self.tier_residency[3].as_micros(),
                ],
                final_tier: self.tier.current(),
            },
            sq_depth: self.cfg.sq_depth,
            dispatch_window: self.cfg.dispatch_window,
            backpressure: self.cfg.backpressure,
            seed: self.cfg.seed,
            duration_us: end.as_micros(),
            device,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServiceConfig;

    fn policy() -> Box<dyn GcPolicy> {
        Box::new(jitgc_core::policy::NoBgc)
    }

    fn service() -> Service {
        let mut cfg = ServiceConfig::small_for_tests();
        cfg.system.prefill = false;
        Service::new(cfg, policy())
    }

    #[test]
    fn reads_complete_through_the_queue_pair() {
        let mut svc = service();
        let now = SimTime::from_millis(1);
        let out = svc.submit(1, IoKind::Read, 0, 1, now);
        assert!(matches!(out, SubmitOutcome::Accepted(0)));
        assert_eq!(svc.pump(now), 1);
        let done: Vec<Completion> = svc.take_completions(1).collect();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].status, CompletionStatus::Done);
        assert!(done[0].completed_at >= now);
    }

    #[test]
    fn full_sq_blocks_and_drains_in_order() {
        let mut svc = service();
        let now = SimTime::from_millis(1);
        let depth = svc.config().sq_depth;
        for i in 0..depth as u64 + 3 {
            let out = svc.submit(0, IoKind::Read, i, 1, now);
            if (i as usize) < depth {
                assert!(matches!(out, SubmitOutcome::Accepted(_)), "req {i}");
            } else {
                assert!(matches!(out, SubmitOutcome::Blocked(_)), "req {i}");
            }
        }
        // Pumping drains everything: stalled requests re-enter as the
        // queue empties.
        let mut total = 0;
        let mut now = now;
        while svc.has_queued() {
            total += svc.pump(now);
            now = svc
                .next_window_free()
                .unwrap_or(now + SimDuration::from_millis(1));
        }
        assert_eq!(total, depth + 3);
        let ids: Vec<u64> = svc.take_completions(0).map(|c| c.id).collect();
        assert_eq!(ids, (0..depth as u64 + 3).collect::<Vec<_>>());
    }

    #[test]
    fn black_tier_sheds_writes_but_admits_reads() {
        let mut svc = service();
        // Force Black by flooding tenant 0's queue pair far past depth.
        let now = SimTime::from_millis(1);
        for i in 0..64 {
            let _ = svc.submit(0, IoKind::Read, i, 1, now);
        }
        assert_eq!(svc.tier(), Tier::Black);
        let shed = svc.submit(1, IoKind::DirectWrite, 0, 1, now);
        assert!(matches!(shed, SubmitOutcome::Shed(_)));
        let read = svc.submit(1, IoKind::Read, 0, 1, now);
        assert!(matches!(read, SubmitOutcome::Accepted(_)));
        let done: Vec<Completion> = svc.take_completions(1).collect();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].status, CompletionStatus::Busy);
    }

    #[test]
    fn yellow_serves_other_heads_before_a_cheaper_low_weight_write() {
        let mut cfg = ServiceConfig::small_for_tests();
        cfg.system.prefill = false;
        cfg.dispatch_window = 1;
        let mut svc = Service::new(cfg, policy());
        let now = SimTime::from_millis(1);
        // Nine 32-page reads fill the reader's SQ past half: Yellow. Each
        // costs it 8 pages of virtual time; the writer's 1-page write
        // costs 1, so WFQ alone would dispatch the write first.
        for i in 0..9 {
            let _ = svc.submit(1, IoKind::Read, i * 32, 32, now);
        }
        let write = svc.submit(0, IoKind::DirectWrite, 0, 1, now);
        assert!(matches!(write, SubmitOutcome::Accepted(_)));
        assert_eq!(svc.tier(), Tier::Yellow);
        assert_eq!(svc.pump(now), 1);
        assert_eq!(
            svc.take_completions(0).count(),
            0,
            "the write was held back"
        );
        assert_eq!(svc.take_completions(1).count(), 1);
        let report = svc.finalize(SimTime::from_secs(1));
        assert_eq!(report.tenants[0].deferred, 1);
    }

    #[test]
    fn backpressure_off_never_sheds() {
        let mut cfg = ServiceConfig::small_for_tests();
        cfg.system.prefill = false;
        cfg.backpressure = false;
        let mut svc = Service::new(cfg, policy());
        let now = SimTime::from_millis(1);
        for i in 0..64 {
            let _ = svc.submit(0, IoKind::Read, i, 1, now);
        }
        assert_eq!(svc.tier(), Tier::Black, "tier still tracked for reports");
        let out = svc.submit(1, IoKind::DirectWrite, 0, 1, now);
        assert!(matches!(out, SubmitOutcome::Accepted(_)));
    }

    #[test]
    fn the_run_ends_no_earlier_than_its_last_completion() {
        let mut svc = service();
        let now = SimTime::from_secs(2);
        let _ = svc.submit(0, IoKind::DirectWrite, 0, 32, now);
        assert_eq!(svc.pump(now), 1);
        let done = svc.take_completions(0).next().expect("a completion");
        let report = svc.finalize(SimTime::from_secs(1));
        assert_eq!(report.duration_us, done.completed_at.as_micros());
        assert_eq!(
            report.tier.residency_us.iter().sum::<u64>(),
            report.duration_us,
            "tier residency partitions the run"
        );
    }

    #[test]
    fn report_accounts_every_submission() {
        let mut svc = service();
        let mut now = SimTime::from_millis(1);
        for i in 0..20 {
            let _ = svc.submit((i % 3) as usize, IoKind::Read, i, 1, now);
            now += SimDuration::from_micros(500);
            svc.pump(now);
        }
        while svc.has_queued() {
            now += SimDuration::from_millis(1);
            svc.pump(now);
        }
        let report = svc.finalize(SimTime::from_secs(1));
        let total: u64 = report.tenants.iter().map(|t| t.submitted).sum();
        assert_eq!(total, 20);
        for t in &report.tenants {
            assert_eq!(t.submitted, t.completed + t.shed);
        }
        assert_eq!(report.tier.residency_us.iter().sum::<u64>(), 1_000_000);
    }
}
