//! The array's closed-loop request engine.

use crate::{
    ArrayDegraded, ArrayManager, ArrayReport, GcMode, MemberSched, StripeExtent, StripeMap,
};
use jitgc_core::system::{ClosedLoop, FfRefusals, RunPerf, SsdSystem};
use jitgc_nand::{Lpn, WearReport};
use jitgc_sim::stats::LatencyRecorder;
use jitgc_sim::SimTime;
use jitgc_workload::{IoKind, IoRequest, Workload};

/// Splits a slice into two distinct mutable elements.
fn pair_mut<T>(xs: &mut [T], a: usize, b: usize) -> (&mut T, &mut T) {
    assert_ne!(a, b, "a mirrored pair needs two distinct members");
    if a < b {
        let (left, right) = xs.split_at_mut(b);
        (&mut left[a], &mut right[0])
    } else {
        let (left, right) = xs.split_at_mut(a);
        (&mut right[0], &mut left[b])
    }
}

/// Accumulates one logical request's sub-completions into its completion
/// time plus straggler attribution: which member finished last, by how
/// much it trailed the runner-up (the request's *exclusive* delay — the
/// part no other member can hide), and whether that member was mid-FGC.
/// Ties keep the first maximum, so attribution is deterministic.
///
/// Attribution only applies to requests that fanned out to **two or
/// more** members: a single-sub request has no runner-up, so calling its
/// one member a "straggler" would just re-measure per-member load and
/// drown the real signal (a member holding multi-member requests back).
#[derive(Debug, Clone, Copy)]
struct ReqOutcome {
    completion: SimTime,
    /// The second-slowest completion (or the issue time before one
    /// exists): the request would have finished here without the
    /// straggler.
    runner_up: SimTime,
    /// Member holding the current maximum; `usize::MAX` until the first
    /// sub-completion arrives (a zero-page request has none).
    straggler: usize,
    /// Whether the straggler's step invoked foreground GC.
    fgc: bool,
    /// Sub-completions observed; attribution needs at least two.
    subs: u32,
}

impl ReqOutcome {
    fn new(issue: SimTime) -> Self {
        ReqOutcome {
            completion: issue,
            runner_up: issue,
            straggler: usize::MAX,
            fgc: false,
            subs: 0,
        }
    }

    fn observe(&mut self, member: usize, done: SimTime, fgc: bool) {
        self.subs += 1;
        if self.straggler == usize::MAX || done > self.completion {
            self.runner_up = self.runner_up.max(self.completion);
            self.completion = self.completion.max(done);
            self.straggler = member;
            self.fgc = fgc;
        } else {
            self.runner_up = self.runner_up.max(done);
        }
    }
}

/// What routing one mirrored-read sub-request produced.
struct MirrorOutcome {
    done: SimTime,
    device: usize,
    fgc: bool,
    recovered_pages: u64,
    lost_pages: u64,
}

/// Routes and executes one mirrored-read sub-request over the two
/// replica members: the one decision in the array that reads two
/// members' live GC signals at once.
fn route_mirrored_sub(
    manager: &mut ArrayManager,
    retry: &mut Vec<Lpn>,
    member_lag: &mut [LatencyRecorder],
    primary: (usize, &mut SsdSystem),
    replica: (usize, &mut SsdSystem),
    sub: IoRequest,
    issue: SimTime,
) -> MirrorOutcome {
    let (primary, primary_sys) = primary;
    let (replica, replica_sys) = replica;
    // Lag and FGC baselines are sampled before the candidates' clocks
    // advance to the issue time, so the chosen replica's step is charged
    // for the periodic work (and any tick-driven FGC) it had pending.
    let lag_primary = issue.saturating_since(primary_sys.virtual_clock());
    let lag_replica = issue.saturating_since(replica_sys.virtual_clock());
    let fgc_primary = primary_sys.fgc_invocations();
    let fgc_replica = replica_sys.fgc_invocations();
    // Bring both candidates' clocks up to the issue time first: members
    // process periodic work lazily, so an un-advanced replica would
    // report a stale (idle) `busy_until` and attract exactly the reads
    // its overdue flush is about to stall.
    primary_sys.advance_to(issue);
    replica_sys.advance_to(issue);
    let device = manager.choose_between(primary, primary_sys, replica, replica_sys, issue);
    let (chosen, other, lag, fgc_before) = if device == primary {
        (primary_sys, replica_sys, lag_primary, fgc_primary)
    } else {
        (replica_sys, primary_sys, lag_replica, fgc_replica)
    };
    member_lag[device].record(lag);
    let mut done = chosen.step(sub, issue);
    let mut recovered_pages = 0;
    let mut lost_pages = 0;
    if !chosen.failed_read_lpns().is_empty() {
        // Uncorrectable pages on the chosen replica: repair by re-reading
        // the surviving copy. Only pages that fail on *both* replicas are
        // lost.
        retry.clear();
        retry.extend_from_slice(chosen.failed_read_lpns());
        let (repaired_at, still_failed) = other.recovery_read(retry, issue);
        done = done.max(repaired_at);
        recovered_pages = retry.len() as u64 - still_failed;
        lost_pages = still_failed;
    }
    let fgc = chosen.fgc_invocations() > fgc_before;
    MirrorOutcome {
        done,
        device,
        fgc,
        recovered_pages,
        lost_pages,
    }
}

/// Drives N member [`SsdSystem`]s in virtual-time lockstep behind one
/// logical volume.
///
/// The scheduler owns the closed loop the single-device engine runs
/// internally — `queue_depth` application threads dealing requests
/// round-robin, each issuing its next request a think-time after its own
/// previous completion — and replaces the "execute on the device" step
/// with *split, route, fan out*: the request's extent is split into one
/// sub-request per touched member via the [`StripeMap`], mirrored reads
/// are steered by the [`ArrayManager`], and the logical request completes
/// when the slowest sub-request does.
///
/// With one member and one chunk-aligned column the split is the
/// identity, the routing is trivial and the member sees the exact request
/// sequence [`SsdSystem::run`] would have produced — so a 1-member array
/// reports byte-identical per-device results to the standalone path.
///
/// # One loop, one thread
///
/// [`run`](ArrayScheduler::run) takes one request at a time on the
/// calling thread: issue it on the closed loop, split it, step each
/// touched member (route a mirrored read between its replicas), and
/// commit the slowest completion back to the issuing thread. Stepping
/// members on several host threads cannot pay here: under the closed
/// loop request *n + QD* cannot issue before request *n* completes, so
/// at most `queue_depth` requests — microseconds of member work — could
/// ever run between two synchronisations (DESIGN.md §12).
pub struct ArrayScheduler {
    members: Vec<SsdSystem>,
    stripe: StripeMap,
    manager: ArrayManager,
    workload: Box<dyn Workload>,

    /// The issue clock the single-device engine runs internally.
    closed_loop: ClosedLoop,

    // Volume-level measurements.
    latencies: LatencyRecorder,
    ops: u64,
    split_requests: u64,
    /// Pages repaired by re-reading the mirror after an uncorrectable
    /// primary read.
    recovered_pages: u64,
    /// Pages unreadable on every replica that holds them.
    lost_pages: u64,

    // Per-member scheduler accounting: functions of the simulated
    // timeline only, so they belong in the report.
    member_lag: Vec<LatencyRecorder>,
    straggler_requests: Vec<u64>,
    straggler_time_us: Vec<u64>,
    straggler_fgc: Vec<u64>,

    // Scratch reused across requests so the steady state allocates nothing.
    sub_scratch: Vec<StripeExtent>,
    retry_scratch: Vec<Lpn>,
}

impl ArrayScheduler {
    /// Builds a scheduler over already-constructed members. Use
    /// [`ArrayConfig::build`](crate::ArrayConfig::build) instead of
    /// calling this directly.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or its length disagrees with the
    /// stripe map.
    #[must_use]
    pub fn new(
        members: Vec<SsdSystem>,
        stripe: StripeMap,
        gc_mode: GcMode,
        workload: Box<dyn Workload>,
    ) -> Self {
        assert!(!members.is_empty(), "array needs at least one member");
        assert_eq!(
            members.len(),
            stripe.members(),
            "member count disagrees with the stripe map"
        );
        let closed_loop = ClosedLoop::new(members[0].config().queue_depth);
        let n = members.len();
        ArrayScheduler {
            manager: ArrayManager::new(gc_mode, n),
            members,
            stripe,
            workload,
            closed_loop,
            latencies: LatencyRecorder::new(),
            ops: 0,
            split_requests: 0,
            recovered_pages: 0,
            lost_pages: 0,
            member_lag: vec![LatencyRecorder::new(); n],
            straggler_requests: vec![0; n],
            straggler_time_us: vec![0; n],
            straggler_fgc: vec![0; n],
            sub_scratch: Vec::new(),
            retry_scratch: Vec::new(),
        }
    }

    /// Turns on wall-clock phase profiling on every member (see
    /// [`SsdSystem::enable_phase_profiling`]).
    pub fn enable_phase_profiling(&mut self) {
        for m in &mut self.members {
            m.enable_phase_profiling();
        }
    }

    /// The summed per-phase wall-clock breakdown over all members (all
    /// zero unless [`enable_phase_profiling`] was called before
    /// [`run`](ArrayScheduler::run)).
    ///
    /// [`enable_phase_profiling`]: ArrayScheduler::enable_phase_profiling
    #[must_use]
    pub fn phase_profile(&self) -> jitgc_core::system::PhaseProfile {
        let mut total = jitgc_core::system::PhaseProfile::default();
        for m in &self.members {
            let p = m.phase_profile();
            total.request_execution += p.request_execution;
            total.flush += p.flush;
            total.predictor += p.predictor;
            total.bgc += p.bgc;
            total.reporting += p.reporting;
            total.gc_copy += p.gc_copy;
            total.tick += p.tick;
        }
        total
    }

    /// Test hook: switches every member's quiescence fast-forward (see
    /// [`SsdSystem::set_fast_forward`]; on by default) so the identity
    /// tests can compare against the per-tick loop. Byte-identical
    /// reports either way: a skip only moves a member's virtual clock to
    /// where the per-tick loop would have put it.
    pub fn set_fast_forward(&mut self, enabled: bool) {
        for member in &mut self.members {
            member.set_fast_forward(enabled);
        }
    }

    /// The array-wide wall-clock facts for the `--bench-json` perf
    /// record: the members' summed phase profile and fast-forward
    /// counters under the caller's stopwatch readings (see
    /// [`SsdSystem::run_perf`]; every member shares one fast-forward
    /// setting and profiling state).
    #[must_use]
    pub fn run_perf(&self, setup_secs: f64, run_secs: f64) -> RunPerf {
        let first = self.members[0].run_perf(setup_secs, run_secs);
        RunPerf {
            profile: first.profile.map(|_| self.phase_profile()),
            ticks_skipped: self.ticks_skipped(),
            ff_spans: self.ff_spans(),
            ..first
        }
    }

    /// Total flusher ticks elided by the quiescence fast-forward across
    /// all members.
    #[must_use]
    pub fn ticks_skipped(&self) -> u64 {
        self.members.iter().map(SsdSystem::ticks_skipped).sum()
    }

    /// Total fast-forwarded idle spans across all members.
    #[must_use]
    pub fn ff_spans(&self) -> u64 {
        self.members.iter().map(SsdSystem::ff_spans).sum()
    }

    /// Idle ticks the members' fast-forwards refused, summed per gate
    /// (see [`SsdSystem::ff_refusals`]).
    #[must_use]
    pub fn ff_refusals(&self) -> FfRefusals {
        let mut total = FfRefusals::default();
        for member in &self.members {
            total += member.ff_refusals();
        }
        total
    }

    /// Per-member phase profiles, index-aligned with
    /// [`members`](ArrayScheduler::members) (all zero unless
    /// [`enable_phase_profiling`](ArrayScheduler::enable_phase_profiling)
    /// was called before the run).
    #[must_use]
    pub fn member_profiles(&self) -> Vec<jitgc_core::system::PhaseProfile> {
        self.members.iter().map(SsdSystem::phase_profile).collect()
    }

    /// Read-only access to the members (for tests and signal polling).
    #[must_use]
    pub fn members(&self) -> &[SsdSystem] {
        &self.members
    }

    /// Runs the workload to exhaustion and reports.
    ///
    /// # Panics
    ///
    /// Panics if any member's FTL signals an unrecoverable condition,
    /// which indicates a misconfigured experiment.
    pub fn run(&mut self) -> ArrayReport {
        self.manager.apply_stagger(&mut self.members);
        if self.members[0].config().prefill {
            for m in &mut self.members {
                m.prefill();
            }
        }
        while let Some(req) = self.workload.next_request() {
            let (thread, issue) = self.closed_loop.issue(req.gap);
            let outcome = self.dispatch(req, issue);
            self.commit_request(thread, issue, &outcome);
        }
        self.build_report(self.closed_loop.end())
    }

    /// Splits `req` over the stripe and hands `each` one sub-request per
    /// touched member, with the member holding it and its mirror replica,
    /// if any. The one place a logical request becomes member requests.
    fn for_each_sub(
        &mut self,
        req: IoRequest,
        mut each: impl FnMut(&mut Self, usize, Option<usize>, IoRequest),
    ) {
        self.sub_scratch.clear();
        self.stripe
            .split(req.lpn.0, req.pages, &mut self.sub_scratch);
        if self.sub_scratch.len() > 1 {
            self.split_requests += 1;
        }
        for i in 0..self.sub_scratch.len() {
            let extent = self.sub_scratch[i];
            let (primary, replica) = self.stripe.devices_of(extent.column);
            let sub = IoRequest {
                gap: req.gap,
                kind: req.kind,
                lpn: Lpn(extent.member_lpn),
                pages: extent.pages,
            };
            each(self, primary, replica, sub);
        }
    }

    /// Finishes one logical request: thread completion, volume latency,
    /// op count, and straggler attribution for the member that held the
    /// request back (multi-member requests only — see [`ReqOutcome`]).
    fn commit_request(&mut self, thread: usize, issue: SimTime, outcome: &ReqOutcome) {
        self.closed_loop.complete(thread, outcome.completion);
        self.latencies
            .record(outcome.completion.saturating_since(issue));
        self.ops += 1;
        if outcome.subs >= 2 && outcome.straggler != usize::MAX {
            self.straggler_requests[outcome.straggler] += 1;
            self.straggler_time_us[outcome.straggler] += outcome
                .completion
                .saturating_since(outcome.runner_up)
                .as_micros();
            if outcome.fgc {
                self.straggler_fgc[outcome.straggler] += 1;
            }
        }
    }

    /// Splits one logical request, fans the sub-requests out to their
    /// members at `issue`, and returns the request's outcome (completion
    /// = the slowest sub-request's, plus straggler attribution).
    fn dispatch(&mut self, req: IoRequest, issue: SimTime) -> ReqOutcome {
        let mut outcome = ReqOutcome::new(issue);
        self.for_each_sub(req, |this, primary, replica, sub| {
            match (req.kind, replica) {
                (IoKind::Read, Some(replica)) => {
                    let (p, r) = pair_mut(&mut this.members, primary, replica);
                    let routed = route_mirrored_sub(
                        &mut this.manager,
                        &mut this.retry_scratch,
                        &mut this.member_lag,
                        (primary, p),
                        (replica, r),
                        sub,
                        issue,
                    );
                    this.recovered_pages += routed.recovered_pages;
                    this.lost_pages += routed.lost_pages;
                    outcome.observe(routed.device, routed.done, routed.fgc);
                }
                (IoKind::Read, None) => {
                    let (done, fgc) = this.step_member(primary, sub, issue);
                    // No redundancy: every uncorrectable page is lost.
                    this.lost_pages += this.members[primary].failed_read_lpns().len() as u64;
                    outcome.observe(primary, done, fgc);
                }
                (_, Some(replica)) => {
                    // Writes and trims must keep the replicas coherent.
                    let (done, fgc) = this.step_member(primary, sub, issue);
                    outcome.observe(primary, done, fgc);
                    let (done, fgc) = this.step_member(replica, sub, issue);
                    outcome.observe(replica, done, fgc);
                }
                (_, None) => {
                    let (done, fgc) = this.step_member(primary, sub, issue);
                    outcome.observe(primary, done, fgc);
                }
            }
        });
        outcome
    }

    /// Steps one member, recording how far its clock trailed the issue
    /// time and whether the step invoked foreground GC.
    fn step_member(&mut self, member: usize, sub: IoRequest, issue: SimTime) -> (SimTime, bool) {
        let lag = issue.saturating_since(self.members[member].virtual_clock());
        self.member_lag[member].record(lag);
        let fgc_before = self.members[member].fgc_invocations();
        let done = self.members[member].step(sub, issue);
        (done, self.members[member].fgc_invocations() > fgc_before)
    }

    fn build_report(&mut self, end: SimTime) -> ArrayReport {
        let member_reports: Vec<_> = self.members.iter_mut().map(|m| m.finalize(end)).collect();
        let secs = end.as_secs_f64().max(f64::MIN_POSITIVE);
        let lat = |q: f64| self.latencies.percentile(q).map_or(0, |d| d.as_micros());
        let host_pages: u64 = member_reports.iter().map(|r| r.host_pages_written).sum();
        let nand_pages: u64 = member_reports.iter().map(|r| r.nand_pages_programmed).sum();
        let member_sched = (0..self.members.len())
            .map(|i| {
                let lag = &self.member_lag[i];
                MemberSched {
                    steps: lag.count(),
                    lag_mean_us: lag.mean().map_or(0, |d| d.as_micros()),
                    lag_p99_us: lag.percentile(0.99).map_or(0, |d| d.as_micros()),
                    lag_max_us: lag.max().map_or(0, |d| d.as_micros()),
                    straggler_requests: self.straggler_requests[i],
                    straggler_fgc_requests: self.straggler_fgc[i],
                    straggler_time_us: self.straggler_time_us[i],
                }
            })
            .collect();
        ArrayReport {
            members: self.members.len(),
            chunk_pages: self.stripe.chunk_pages(),
            redundancy: self.stripe.redundancy().name().to_owned(),
            gc_mode: self.manager.mode().name().to_owned(),
            policy: member_reports[0].policy.clone(),
            workload: self.workload.name().to_owned(),
            duration_secs: secs,
            ops: self.ops,
            iops: self.ops as f64 / secs,
            split_requests: self.split_requests,
            routed_reads: self.manager.routed_reads(),
            latency_mean_us: self.latencies.mean().map_or(0, |d| d.as_micros()),
            latency_p50_us: lat(0.50),
            latency_p99_us: lat(0.99),
            latency_p999_us: lat(0.999),
            latency_max_us: self.latencies.max().map_or(0, |d| d.as_micros()),
            waf: (host_pages > 0).then(|| nand_pages as f64 / host_pages as f64),
            nand_erases: member_reports.iter().map(|r| r.nand_erases).sum(),
            erase_spread: WearReport::from_counts(member_reports.iter().map(|r| r.nand_erases)),
            fgc_request_stalls: member_reports.iter().map(|r| r.fgc_request_stalls).sum(),
            bgc_blocks: member_reports.iter().map(|r| r.bgc_blocks).sum(),
            member_sched,
            degraded: {
                let any_member_degraded = member_reports.iter().any(|r| r.degraded.is_some());
                (any_member_degraded || self.recovered_pages > 0 || self.lost_pages > 0).then(
                    || ArrayDegraded {
                        degraded_members: member_reports
                            .iter()
                            .filter(|r| r.degraded.as_ref().is_some_and(|d| d.read_only))
                            .count() as u64,
                        recovered_pages: self.recovered_pages,
                        lost_pages: self.lost_pages,
                    },
                )
            },
            member_reports,
        }
    }
}

impl std::fmt::Debug for ArrayScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArrayScheduler")
            .field("members", &self.members.len())
            .field("stripe", &self.stripe)
            .field("gc_mode", &self.manager.mode())
            .field("ops", &self.ops)
            .finish_non_exhaustive()
    }
}

// The `benchmark/` package still names the retired driver selector, the
// member-thread knob and their telemetry. They are accepted and ignored
// here so it builds unchanged; a `[benchmark]` PR (ROADMAP item 7) moves
// the package off them and deletes this block.

#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArraySched {
    Serial,
    Steal,
}

#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedTelemetry {
    pub epochs: u64,
    pub steals: u64,
}

#[doc(hidden)]
impl ArrayScheduler {
    pub fn set_sched(&mut self, _sched: ArraySched) {}

    pub fn set_member_threads(&mut self, _threads: usize) {}

    #[must_use]
    pub fn sched_telemetry(&self) -> SchedTelemetry {
        SchedTelemetry {
            epochs: 0,
            steals: 0,
        }
    }
}
