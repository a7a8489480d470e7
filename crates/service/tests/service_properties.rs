//! Property tests for the service's scheduling invariants.
//!
//! * WFQ fairness: always-backlogged tenants converge to their weight
//!   shares and nobody starves, for arbitrary weights and request sizes.
//! * WFQ isolation: an idle tenant cannot bank credit while away.
//! * Tier hysteresis: arbitrary pressure sequences can never escalate a
//!   tier without reaching its entry threshold, never de-escalate without
//!   clearing the hysteresis margin, and never oscillate on a signal that
//!   dithers inside the margin.

use jitgc_service::{ServiceConfig, TierThresholds};
use jitgc_service::{Tier, TierPolicy, WfqArbiter};
use jitgc_sim::check::check;

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
