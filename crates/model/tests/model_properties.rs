//! Property tests of the analytical model's invariants.

use jitgc_core::policy::{NoBgc, PolicyKind};
use jitgc_core::system::{SsdSystem, SystemConfig, VictimKind};
use jitgc_model::{predict, solve_cycle, Combo, WorkloadSpec};
use jitgc_sim::check::{check, Gen};
use jitgc_sim::SimDuration;
use jitgc_workload::{BenchmarkKind, WorkloadConfig};

/// A `small_for_tests` system with the given over-provisioning.
fn system_with_op(op_permille: u64) -> SystemConfig {
    let mut system = SystemConfig::small_for_tests();
    system.ftl = system.ftl.to_builder().op_permille(op_permille).build();
    system
}

fn any_policy(g: &mut Gen) -> PolicyKind {
    match g.u64(0, 6) {
        0 => PolicyKind::NoBgc,
        1 => PolicyKind::ReservedPermille(g.u64(100, 2000)),
        2 => PolicyKind::Idle,
        3 => PolicyKind::Adp,
        4 => PolicyKind::Jit,
        _ => PolicyKind::JitNoSip,
    }
}

fn any_benchmark(g: &mut Gen) -> BenchmarkKind {
    g.pick(&BenchmarkKind::all())
}

/// Every prediction amplifies: device programs can never be fewer than
/// host writes, and a feasible prediction's WAF is finite.
#[test]
fn waf_at_least_one() {
    check(0x30DE_0001, 64, |g| {
        let system = system_with_op(g.u64(50, 600));
        let (policy, benchmark) = (any_policy(g), any_benchmark(g));
        let spec = WorkloadSpec::for_system(&system, g.f64(50.0, 2_000.0), 512.0);
        let p = predict(&system, policy, benchmark, &spec);
        assert!(p.waf >= 1.0, "WAF {} < 1", p.waf);
        if p.feasible {
            assert!(p.waf.is_finite());
        }
    });
}

/// More room for data never hurts, less never helps: WAF is
/// non-increasing in the pages the policy leaves the log, for a fixed
/// policy and workload (the workload spec is pinned to the smaller-OP
/// system so only physical space changes). For a policy whose reserve
/// is at most the over-provisioning itself that room grows with OP —
/// Li/Lee/Lui's "WAF non-increasing in OP". A reserve above `1.0 × C_OP`
/// (A-BGC, and ADP/JIT once their demand estimate hits that ceiling)
/// outgrows the space it was given, and there added OP must not help.
#[test]
fn waf_monotone_in_the_space_over_provisioning_leaves() {
    check(0x30DE_0002, 64, |g| {
        let (op_lo, extra) = (g.u64(50, 400), g.u64(50, 600));
        let (policy, benchmark) = (any_policy(g), any_benchmark(g));
        let lo = system_with_op(op_lo);
        let hi = system_with_op(op_lo + extra);
        let spec = WorkloadSpec::for_system(&lo, 500.0, 512.0);
        let p_lo = predict(&lo, policy, benchmark, &spec);
        let p_hi = predict(&hi, policy, benchmark, &spec);
        let room_grew = hi.ftl.data_pages() as f64 - p_hi.reserve_pages
            >= lo.ftl.data_pages() as f64 - p_lo.reserve_pages;
        let reserve_within_op = match policy {
            PolicyKind::NoBgc | PolicyKind::Idle => true,
            PolicyKind::ReservedPermille(permille) => permille <= 1_000,
            PolicyKind::Adp | PolicyKind::Jit | PolicyKind::JitNoSip => false,
        };
        assert!(
            room_grew || !reserve_within_op,
            "{policy:?} lost room to OP"
        );
        // 1e-6 relative slack for bisection tolerance.
        let (roomy, tight) = if room_grew {
            (p_hi, p_lo)
        } else {
            (p_lo, p_hi)
        };
        assert!(
            roomy.waf <= tight.waf * (1.0 + 1e-6),
            "{policy:?} on {benchmark:?}: WAF {} (OP {op_lo}) -> {} (OP {})",
            p_lo.waf,
            p_hi.waf,
            op_lo + extra
        );
    });
}

/// Lifetime scales with the erase budget: doubling per-block
/// endurance never shortens predicted lifetime, and with WAF fixed it
/// scales linearly.
#[test]
fn lifetime_monotone_in_endurance() {
    check(0x30DE_0003, 64, |g| {
        let (endurance, factor) = (g.u64(100, 10_000), g.u64(2, 10));
        let benchmark = any_benchmark(g);
        let base = SystemConfig::small_for_tests();
        let mut lo = base.clone();
        lo.ftl = lo.ftl.to_builder().endurance_limit(endurance).build();
        let mut hi = base;
        hi.ftl = hi
            .ftl
            .to_builder()
            .endurance_limit(endurance * factor)
            .build();
        let spec = WorkloadSpec::for_system(&lo, 500.0, 512.0);
        let p_lo = predict(&lo, PolicyKind::NoBgc, benchmark, &spec);
        let p_hi = predict(&hi, PolicyKind::NoBgc, benchmark, &spec);
        let l_lo = p_lo.lifetime_host_bytes.expect("endurance is set");
        let l_hi = p_hi.lifetime_host_bytes.expect("endurance is set");
        assert!(
            l_hi >= l_lo,
            "lifetime fell with endurance: {l_lo} -> {l_hi}"
        );
        let ratio = l_hi / l_lo;
        assert!(
            (ratio - factor as f64).abs() < 1e-6 * factor as f64,
            "lifetime not linear in erase budget: ratio {ratio}, factor {factor}"
        );
    });
}

/// The FIFO-cycle solver reproduces the classical uniform-overwrite
/// fixed point (Desnoyers): with `x = 1/(ρ·A)` the share of a block
/// still valid when the log comes round to it is `e^(−x)`, so
/// `A = 1/(1 − e^(−x))` and `x/(1 − e^(−x)) = 1/ρ`. Feed a single
/// pure-Poisson combo and check the solved WAF against a direct
/// numerical solution of the scalar fixed point.
#[test]
fn uniform_combo_matches_desnoyers_fixed_point() {
    check(0x30DE_0004, 64, |g| {
        let utilization = g.f64(0.40, 0.95);
        let pages = g.f64(10_000.0, 1_000_000.0);
        let rate = g.f64(0.001, 10.0);
        let t_pages = pages / utilization;
        let combo = Combo {
            pages,
            det: 0.0,
            poisson: rate,
            trim: 0.0,
            buffered: 0.0,
        };
        let solution = solve_cycle(&[combo], t_pages, 0.0)
            .expect("uniform overwrite below utilization 1 is feasible");

        // Bisect the fixed point for x, then A = 1/(ρ·x).
        let rho = utilization;
        let f = |x: f64| x / (1.0 - (-x).exp()) - 1.0 / rho;
        let (mut lo, mut hi) = (1e-9, 50.0);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if f(mid) > 0.0 {
                hi = mid
            } else {
                lo = mid
            }
        }
        let x = 0.5 * (lo + hi);
        let expected_waf = 1.0 / (rho * x);
        assert!(
            (solution.waf - expected_waf).abs() <= 1e-3 * expected_waf,
            "solver WAF {} vs Desnoyers {expected_waf} at rho {rho}",
            solution.waf
        );
    });
}

/// Small-scale end-to-end sanity: under the model's control
/// conditions (No-BGC, FIFO victim) the model tracks the simulator
/// within a factor of two on the small test system, for any seed.
#[test]
fn small_scale_model_tracks_simulator() {
    let mut system = SystemConfig::small_for_tests();
    system.victim = VictimKind::Fifo;
    let spec = WorkloadSpec::for_system(&system, 500.0, 64.0);
    let model = predict(&system, PolicyKind::NoBgc, BenchmarkKind::Ycsb, &spec);
    check(0x30DE_0005, 64, |g| {
        let seed = g.u64(0, 500);
        let wl = WorkloadConfig::builder()
            .working_set_pages(spec.working_set_pages)
            .duration(SimDuration::from_secs(120))
            .mean_iops(spec.mean_iops)
            .burst_mean(spec.burst_mean)
            .seed(seed)
            .build();
        let report = SsdSystem::new(
            system.clone(),
            Box::new(NoBgc),
            BenchmarkKind::Ycsb.build(wl),
        )
        .run();
        let sim = report.waf.expect("host writes happened");
        let ratio = model.waf / sim;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "model {} vs sim {sim} (seed {seed}): ratio {ratio} outside [0.5, 2]",
            model.waf
        );
    });
}
