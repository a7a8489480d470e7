//! Property tests for the service's scheduling invariants.
//!
//! * WFQ fairness: always-backlogged tenants converge to their weight
//!   shares and nobody starves, for arbitrary weights and request sizes.
//! * WFQ isolation: an idle tenant cannot bank credit while away.
//! * Tier hysteresis: arbitrary pressure sequences can never escalate a
//!   tier without reaching its entry threshold, never de-escalate without
//!   clearing the hysteresis margin, and never oscillate on a signal that
//!   dithers inside the margin.
//! * The streaming closed loop: `run_closed_loop` reports byte for byte
//!   what the materialising reference loop below reports.

use std::cell::Cell;
use std::collections::HashMap;

use jitgc_core::policy::PolicyKind;
use jitgc_core::system::SystemConfig;
use jitgc_service::{run_closed_loop, Service, ServiceReport};
use jitgc_service::{ServiceConfig, TenantProfile, TenantSpec, TierThresholds};
use jitgc_service::{Tier, TierPolicy, WfqArbiter};
use jitgc_sim::check::check;
use jitgc_sim::{SimDuration, SimTime};
use jitgc_workload::{IoRequest, Synthetic, Workload, WorkloadConfig};

/// Backlogged tenants with arbitrary positive weights and arbitrary
/// per-request sizes serve within a few percent of their weight
/// shares, and every tenant makes progress. The round count is a plain
/// draw, not a sized vector: a shorter run is not a smaller instance of
/// the same claim, it is a run that has not converged yet.
#[test]
fn wfq_backlogged_shares_track_weights() {
    check(0x5E41_0001, 128, |g| {
        let n = g.usize(2, 7);
        let weights: Vec<u64> = (0..n).map(|_| g.u64(1, 32)).collect();
        let mut wfq = WfqArbiter::new(&weights);
        let mut served = vec![0u64; n];
        let mut dispatched = 0u64;
        for _ in 0..g.u64(2_000, 3_000) {
            // Every tenant offers a head; sizes vary per tenant and round.
            let costs: Vec<(usize, u64)> = (0..n).map(|t| (t, g.u64(1, 33) * 4_096)).collect();
            let t = wfq.pick(costs.iter().copied()).unwrap();
            let c = costs[t].1;
            wfq.dispatch(t, c);
            served[t] += c;
            dispatched += c;
        }
        let wsum: u64 = weights.iter().sum();
        for t in 0..n {
            assert!(served[t] > 0, "tenant {t} starved");
            let share = served[t] as f64 / dispatched as f64;
            let want = weights[t] as f64 / wsum as f64;
            assert!(
                (share - want).abs() < 0.03,
                "tenant {t}: share {share:.3} vs weight {want:.3}"
            );
        }
    });
}

/// However long a tenant idles, on return it gets at most one request
/// of head start over an equally-weighted incumbent.
#[test]
fn wfq_idle_tenant_banks_no_credit() {
    check(0x5E41_0002, 128, |g| {
        let idle_rounds = g.usize(1, 2_000);
        let cost = g.u64(1, 33) * 4_096;
        let mut wfq = WfqArbiter::new(&[1, 1]);
        for _ in 0..idle_rounds {
            wfq.dispatch(0, cost);
        }
        wfq.arrive(1);
        let before = wfq.served_bytes(0);
        for _ in 0..100 {
            let t = wfq.pick([(0usize, cost), (1, cost)].into_iter()).unwrap();
            wfq.dispatch(t, cost);
        }
        let incumbent = wfq.served_bytes(0) - before;
        let returned = wfq.served_bytes(1);
        assert!(
            returned <= incumbent + cost,
            "returning tenant banked {returned} vs {incumbent}"
        );
        assert!(incumbent > 0, "incumbent starved");
    });
}

/// For any pressure sequence: escalation requires the entry
/// threshold, de-escalation requires clearing the hysteresis margin,
/// and a maximal-pressure sample always lands in Black. One sample in
/// four sits exactly on a threshold, a hysteresis exit or an end of the
/// range, where the comparisons can be wrong by one.
#[test]
fn tier_transitions_respect_thresholds() {
    let thresholds = TierThresholds::default();
    let entry = |t: Tier| match t {
        Tier::Green => 0.0,
        Tier::Yellow => thresholds.yellow,
        Tier::Red => thresholds.red,
        Tier::Black => thresholds.black,
    };
    let edges = [
        0.0,
        thresholds.yellow - thresholds.hysteresis,
        thresholds.yellow,
        thresholds.red - thresholds.hysteresis,
        thresholds.red,
        thresholds.black - thresholds.hysteresis,
        thresholds.black,
        1.0,
    ];
    check(0x5E41_0003, 128, |g| {
        let pressures = g.vec(1, 200, |g| match g.weighted(&[3, 1]) {
            0 => g.f64(0.0, 1.0),
            _ => g.pick(&edges),
        });
        let mut policy = TierPolicy::new(thresholds);
        let mut prev = Tier::Green;
        for &p in &pressures {
            let now = policy.update(p);
            if now > prev {
                assert!(p >= entry(now), "entered {now} at pressure {p}");
            }
            if now < prev {
                // Every tier left on the way down was cleared by margin.
                assert!(
                    p < entry(prev) - thresholds.hysteresis,
                    "left {prev} at pressure {p}"
                );
            }
            if p >= thresholds.black {
                assert!(now == Tier::Black);
            }
            prev = now;
        }
    });
}

/// A signal dithering inside the hysteresis band — at or above Yellow's exit
/// (0.50 − 0.05), below Red's entry, on either side of Yellow's entry —
/// causes at most one transition, ever: Green→Yellow, never back.
#[test]
fn tier_never_oscillates_inside_the_band() {
    let thresholds = TierThresholds::default();
    let exit = thresholds.yellow - thresholds.hysteresis;
    check(0x5E41_0004, 128, |g| {
        let signal = g.vec(2, 100, |g| g.f64(exit, thresholds.yellow + 0.03));
        let mut policy = TierPolicy::new(thresholds);
        let tiers: Vec<Tier> = signal.iter().map(|&p| policy.update(p)).collect();
        let transitions = tiers.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(transitions <= 1, "tier oscillated {transitions} times");
    });
}

/// `validate` accepts exactly the documented knob space for tier
/// thresholds.
#[test]
fn tier_threshold_validation_matches_docs() {
    check(0x5E41_0005, 128, |g| {
        let (yellow, red, black) = (g.f64(0.01, 1.0), g.f64(0.01, 1.0), g.f64(0.01, 1.0));
        let hysteresis = g.f64(0.0, 1.0);
        let mut cfg = ServiceConfig::small_for_tests();
        cfg.tiers = TierThresholds {
            yellow,
            red,
            black,
            hysteresis,
        };
        let ok = yellow < red && red < black && black <= 1.0 && hysteresis < yellow;
        assert_eq!(cfg.validate().is_ok(), ok);
    });
}

/// Tenant `tenant`'s whole request stream, generated up front.
fn reference_trace(cfg: &ServiceConfig, tenant: usize) -> Vec<IoRequest> {
    const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;
    let spec = &cfg.tenants[tenant];
    let wl_cfg = WorkloadConfig::builder()
        .working_set_pages(cfg.pages_per_tenant())
        .duration(SimDuration::from_secs(cfg.seconds))
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
    std::iter::from_fn(|| workload.next_request()).collect()
}

/// The reference closed loop: every tenant's trace materialised before
/// the first submit, and a map from each outstanding request id to the
/// application thread waiting on it. Also returns how many completions
/// arrived below an id their tenant had already seen complete — a shed
/// answered before an earlier accepted request.
fn reference_closed_loop(cfg: &ServiceConfig, policy: PolicyKind) -> (ServiceReport, u64) {
    struct TenantLoop {
        trace: Vec<IoRequest>,
        cursor: usize,
        prev_submit: SimTime,
        slots: Vec<Option<SimTime>>,
        next_slot: usize,
        pending: HashMap<u64, usize>,
        highest_done: Option<u64>,
    }
    impl TenantLoop {
        fn next_instant(&self) -> Option<SimTime> {
            let req = self.trace.get(self.cursor)?;
            let free = self.slots[self.next_slot]?;
            Some((self.prev_submit + req.gap).max(free))
        }
    }

    let mut loops: Vec<TenantLoop> = (0..cfg.tenants.len())
        .map(|i| TenantLoop {
            trace: reference_trace(cfg, i),
            cursor: 0,
            prev_submit: SimTime::ZERO,
            slots: vec![Some(SimTime::ZERO); cfg.tenants[i].concurrency as usize],
            next_slot: 0,
            pending: HashMap::new(),
            highest_done: None,
        })
        .collect();
    let mut service = Service::new(cfg.clone(), policy.build(&cfg.system));
    let mut now = SimTime::ZERO;
    let mut last_completion = SimTime::ZERO;
    let mut overtaken = 0;
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
                overtaken += u64::from(l.highest_done.is_some_and(|h| c.id < h));
                l.highest_done = l.highest_done.max(Some(c.id));
            }
        }
    }
    let end = last_completion.max(SimTime::from_secs(cfg.seconds));
    (service.finalize(end), overtaken)
}

/// The streaming closed loop reports byte for byte what the reference
/// reports, over 64 cases: rosters of 1-5 tenants drawn from every
/// profile with weights 1-4 and concurrency 1-8, SQ depths and dispatch
/// windows of 1-8, backpressure on and off, every policy, fresh and aged
/// devices, and arbitrary seeds. Across the cases the runs must block submissions, shed them
/// (some before an earlier accepted request completes) and defer
/// low-weight writes, or the property would not reach the paths it
/// guards.
#[test]
fn streaming_closed_loop_matches_the_materialising_reference() {
    let profiles = [
        TenantProfile::Reader,
        TenantProfile::Writer,
        TenantProfile::Mixed,
    ];
    let (blocked, shed, deferred, overtaken) =
        (Cell::new(0), Cell::new(0), Cell::new(0), Cell::new(0));
    check(0x5E41_0006, 64, |g| {
        let tenants = (0..g.usize(1, 6))
            .map(|i| TenantSpec {
                name: format!("t{i}"),
                weight: g.u64(1, 5),
                profile: g.pick(&profiles),
                mean_iops: g.f64(50.0, 1_500.0),
                concurrency: g.u64(1, 9) as u32,
            })
            .collect();
        let mut system = SystemConfig::small_for_tests();
        system.prefill = g.weighted(&[3, 1]) == 1;
        let cfg = ServiceConfig {
            tenants,
            sq_depth: g.usize(1, 9),
            dispatch_window: g.usize(1, 9),
            tiers: TierThresholds::default(),
            backpressure: g.weighted(&[1, 3]) == 1,
            worker_threads: 1,
            fast_forward: true,
            seconds: g.u64(1, 3),
            seed: g.any_u64(),
            system,
        };
        let policy = g.pick(&PolicyKind::STANDARD);
        let (reference, overtakes) = reference_closed_loop(&cfg, policy);
        let streamed = run_closed_loop(&cfg, policy.build(&cfg.system));
        let (want, got) = (
            reference.to_json().to_pretty(),
            streamed.to_json().to_pretty(),
        );
        if let Some((line, (w, s))) = want
            .lines()
            .zip(got.lines())
            .enumerate()
            .find(|(_, (w, s))| w != s)
        {
            panic!(
                "reports differ at line {}: reference `{w}`, streamed `{s}`",
                line + 1
            );
        }
        assert_eq!(want.len(), got.len(), "one report is a prefix of the other");
        let sum = |f: fn(&jitgc_service::TenantReport) -> u64| {
            reference.tenants.iter().map(f).sum::<u64>()
        };
        blocked.set(blocked.get() + sum(|t| t.blocked));
        shed.set(shed.get() + sum(|t| t.shed));
        deferred.set(deferred.get() + sum(|t| t.deferred));
        overtaken.set(overtaken.get() + overtakes);
    });
    for (what, count) in [
        ("blocked", blocked),
        ("shed", shed),
        ("deferred", deferred),
        ("overtaken by a shed", overtaken),
    ] {
        assert!(count.get() > 0, "no case had a submission {what}");
    }
}

/// The reference above shares `Service` with the loop it checks, so the
/// service core — WFQ pick, Yellow deferral, shedding, completion
/// draining — is pinned on its own: an FNV-1a hash of the `--json`
/// report of four short runs on the small device, recorded with the
/// arbiter that collected its queue heads into vectors and the driver
/// that materialised its traces. Between them the runs defer 94 writes,
/// shed 2 934 and block 2 478 submissions; a changed tie-break or
/// deferral mark fails here, where the identity property cannot see it.
#[test]
fn service_reports_are_pinned() {
    let fnv = |text: &str| {
        text.bytes().fold(0xCBF2_9CE4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        })
    };
    let quick = |sq_depth, dispatch_window, backpressure| {
        let mut cfg = ServiceConfig::small_for_tests();
        cfg.seconds = 2;
        cfg.sq_depth = sq_depth;
        cfg.dispatch_window = dispatch_window;
        cfg.backpressure = backpressure;
        cfg
    };
    let mut backup = quick(16, 8, true);
    backup.tenants.push(TenantSpec {
        name: "backup".into(),
        weight: 1,
        profile: TenantProfile::Writer,
        mean_iops: 600.0,
        concurrency: 4,
    });
    let cases = [
        quick(16, 8, true),
        quick(2, 1, true),
        quick(2, 1, false),
        backup,
    ];
    let hashes: Vec<String> = cases
        .iter()
        .map(|cfg| {
            let report = run_closed_loop(cfg, PolicyKind::Jit.build(&cfg.system));
            format!("{:#018x}", fnv(&report.to_json().to_pretty()))
        })
        .collect();
    assert_eq!(
        hashes,
        [
            "0x3fb21a55bf17eca8",
            "0xa8ea2388cac7532f",
            "0x48765ef7f3872c56",
            "0x69d077f73bf201d8",
        ],
        "report hashes of: the small roster; 2-deep SQs and window 1, \
         with and without backpressure; four tenants"
    );
}
