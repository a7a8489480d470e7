//! Analytical mean-field WAF/lifetime model for the JIT-GC simulator.
//!
//! Where the simulator replays every I/O, this crate *solves* for the
//! steady state: given the device geometry ([`FtlConfig`]), the host
//! stack constants ([`SystemConfig`]), a GC policy, and a benchmark's
//! [write profile](jitgc_workload::WriteProfile), it predicts write
//! amplification, lifetime, and a foreground-stall proxy in
//! microseconds of compute instead of minutes of simulation. That makes
//! it a *screening layer* for design-space sweeps (`ssdsim --sweep
//! --screen model` evaluates every cell analytically and simulates only
//! the predicted Pareto frontier) and an independent correctness check
//! on the simulator — the two implementations share no code beyond the
//! config types, so agreement is evidence for both.
//!
//! The model chain (in the spirit of Desnoyers' and Li/Lee/Lui's
//! mean-field GC analyses; DESIGN.md §13 has the full derivation):
//!
//! 1. Lower the benchmark's declarative write profile into homogeneous
//!    address classes with deterministic / Poisson / trim per-page
//!    rates, flattening buffered traffic through the page cache's
//!    write-back window ([`lower_profile`]).
//! 2. Solve the steady-state FIFO-cycle balance
//!    `Σ_c w_c·T/(1 − s_c(T)) = t` for the GC cycle length, which pins
//!    WAF = `t / (host writes per cycle)` ([`solve_cycle`]). JIT-GC's
//!    SIP deferral enters as an effective-survival reduction on the
//!    predictable (buffered) share of soon-to-die pages.
//! 3. Map the GC policy to the capacity reserve it withholds from the
//!    rotation, derive lifetime from the erase budget ÷ WAF, and score
//!    a stall proxy from GC debt × reserve headroom ([`predict`]).
//!
//! ```
//! use jitgc_core::system::SystemConfig;
//! use jitgc_core::policy::PolicyKind;
//! use jitgc_model::{predict, WorkloadSpec};
//! use jitgc_workload::BenchmarkKind;
//!
//! let system = SystemConfig::default_sim();
//! let spec = WorkloadSpec::for_system(&system, 250.0, 1024.0);
//! let p = predict(&system, PolicyKind::Jit, BenchmarkKind::Ycsb, &spec);
//! assert!(p.feasible && p.waf >= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lowering;
mod solver;

pub use lowering::{lower_profile, Combo};
pub use solver::{births, effective_survival, live_pages, solve_cycle, survival, CycleSolution};

use jitgc_core::policy::PolicyKind;
use jitgc_core::system::SystemConfig;
use jitgc_workload::BenchmarkKind;

/// WAF reported for configurations whose steady live data does not fit
/// in the physical space the policy leaves available (utilization pins
/// at 1, real WAF diverges). Finite so predictions stay JSON-safe and
/// sort after every feasible cell.
pub const INFEASIBLE_WAF: f64 = 1e12;

/// The workload-shape knobs the model needs beyond the benchmark kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Logical working set in pages.
    pub working_set_pages: u64,
    /// Mean request arrival rate (requests/s).
    pub mean_iops: f64,
    /// Mean macro-burst length in requests (sizes the stall proxy's
    /// headroom term).
    pub burst_mean: f64,
}

impl WorkloadSpec {
    /// The experiment harness's working-set convention: the logical
    /// space minus half the OP stays untouched (puts A-BGC exactly at
    /// its feasibility bound).
    #[must_use]
    pub fn for_system(system: &SystemConfig, mean_iops: f64, burst_mean: f64) -> Self {
        WorkloadSpec {
            working_set_pages: system
                .standard_working_set()
                .expect("over-provisioning is below 200 %"),
            mean_iops,
            burst_mean,
        }
    }
}

/// The model's output for one `(system, policy, benchmark)` cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Predicted write amplification (device programs / host device
    /// writes). [`INFEASIBLE_WAF`] when the configuration cannot reach a
    /// steady state.
    pub waf: f64,
    /// Whether a steady state exists (live data fits the available
    /// physical space).
    pub feasible: bool,
    /// Host bytes writable before the erase budget is exhausted, if the
    /// FTL models endurance. Counts device-level host bytes, matching
    /// the simulator's `lifetime_host_bytes`.
    pub lifetime_host_bytes: Option<f64>,
    /// Relative foreground-stall score: GC debt discounted by reserve
    /// headroom against bursts. Only the *ordering* across cells is
    /// meaningful.
    pub stall_proxy: f64,
    /// Pages the policy withholds from the data rotation.
    pub reserve_pages: f64,
    /// Host write-page rate before cache absorption (pages/s).
    pub host_write_rate: f64,
    /// Device write-page rate after cache absorption (pages/s).
    pub device_write_rate: f64,
    /// Steady live pages / available physical pages.
    pub utilization: f64,
}

/// Predicts WAF, lifetime, and the stall proxy for one configuration
/// cell. Pure: same inputs, same outputs, no simulation state.
///
/// The model sees a policy as the capacity it withholds from the data
/// rotation and whether SIP deferral applies: No-BGC holds no reserve
/// beyond the GC scratch blocks, a fixed reserve `permille/1000 × C_OP`,
/// idle-time BGC half the OP (it collects when idle but enforces no
/// target), ADP-GC and JIT-GC one prediction horizon of device writes,
/// and only JIT-GC with SIP defers soon-to-die buffered pages out of GC
/// copies.
#[must_use]
pub fn predict(
    system: &SystemConfig,
    policy: PolicyKind,
    benchmark: BenchmarkKind,
    spec: &WorkloadSpec,
) -> Prediction {
    let profile = benchmark.write_profile();
    let ws = spec.working_set_pages as f64;
    let host_write_rate = spec.mean_iops * profile.write_pages_per_request;
    let trim_rate = spec.mean_iops * profile.trim_pages_per_request;
    let combos = lower_profile(
        &profile,
        ws,
        host_write_rate,
        trim_rate,
        system.write_back_window(),
    );
    let device_write_rate: f64 = combos.iter().map(Combo::write_rate).sum();

    let ftl = &system.ftl;
    let op_pages = ftl.op_pages() as f64;
    let tau = system.tau_expire().as_secs_f64();
    let reserve_pages = match policy {
        PolicyKind::NoBgc => 0.0,
        PolicyKind::ReservedPermille(permille) => permille as f64 / 1000.0 * op_pages,
        PolicyKind::Idle => 0.5 * op_pages,
        // Demand-driven policies hold one prediction horizon of device
        // writes, clamped to A-BGC's feasibility ceiling.
        PolicyKind::Adp | PolicyKind::Jit | PolicyKind::JitNoSip => {
            (device_write_rate * tau).min(1.5 * op_pages)
        }
    };
    let t_pages = ftl.data_pages() as f64 - reserve_pages;
    let sip_horizon = match policy {
        PolicyKind::Jit => tau,
        _ => 0.0,
    };

    let solution = solve_cycle(&combos, t_pages, sip_horizon);
    let feasible = solution.is_some();
    let waf = solution.map_or(INFEASIBLE_WAF, |s| s.waf);
    let utilization = if t_pages > 0.0 {
        live_pages(&combos) / t_pages
    } else {
        f64::INFINITY
    };

    let page_size = ftl.geometry().page_size().as_u64() as f64;
    let lifetime_host_bytes = ftl.erase_budget().map(|erases| {
        let budget_pages = erases as f64 * f64::from(ftl.geometry().pages_per_block());
        budget_pages / waf * page_size
    });

    // Stall proxy: the chance a macro-burst overruns the free reserve
    // (forcing foreground GC), scaled by the GC debt the WAF implies.
    // JIT's reserve is *sized to* the predicted demand, so only the
    // unpredictable (direct) share of a burst can overrun it — this is
    // where TPC-C erodes JIT's edge (paper Fig. 7).
    let (_, gc_bw) = system.default_bandwidths();
    let debt = (waf - 1.0).max(0.0) * device_write_rate * page_size / gc_bw;
    let burst_pages = (spec.burst_mean * profile.write_pages_per_request).max(1.0);
    let surprise_burst = match policy {
        PolicyKind::Jit | PolicyKind::JitNoSip => {
            (burst_pages * (1.0 - profile.buffered_fraction())).max(0.02 * burst_pages)
        }
        _ => burst_pages,
    };
    let stall_proxy = if feasible {
        (-reserve_pages / surprise_burst).exp() * (1.0 + debt)
    } else {
        f64::MAX
    };

    Prediction {
        waf,
        feasible,
        lifetime_host_bytes,
        stall_proxy,
        reserve_pages,
        host_write_rate,
        device_write_rate,
        utilization,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(system: &SystemConfig) -> WorkloadSpec {
        WorkloadSpec::for_system(system, 250.0, 1024.0)
    }

    #[test]
    fn all_cells_predict_finitely() {
        let system = SystemConfig::default_sim();
        let s = spec(&system);
        for benchmark in BenchmarkKind::all() {
            for policy in [
                PolicyKind::NoBgc,
                PolicyKind::ReservedPermille(500),
                PolicyKind::ReservedPermille(1_500),
                PolicyKind::Idle,
                PolicyKind::Adp,
                PolicyKind::Jit,
                PolicyKind::JitNoSip,
            ] {
                let p = predict(&system, policy, benchmark, &s);
                assert!(p.waf.is_finite());
                assert!(p.waf >= 1.0, "{benchmark}/{policy:?}: WAF {}", p.waf);
                assert!(p.stall_proxy >= 0.0);
                assert!(p.device_write_rate > 0.0);
                assert!(p.device_write_rate <= p.host_write_rate + 1e-9);
            }
        }
    }

    #[test]
    fn bigger_reserve_raises_waf() {
        let system = SystemConfig::default_sim();
        let s = spec(&system);
        let l = predict(
            &system,
            PolicyKind::ReservedPermille(500),
            BenchmarkKind::Ycsb,
            &s,
        );
        let a = predict(
            &system,
            PolicyKind::ReservedPermille(1_500),
            BenchmarkKind::Ycsb,
            &s,
        );
        assert!(
            a.waf > l.waf,
            "A-BGC {} must cost more than L-BGC {}",
            a.waf,
            l.waf
        );
    }

    #[test]
    fn bigger_reserve_lowers_stalls_at_moderate_utilization() {
        // At A-BGC's feasibility edge the model's WAF debt explodes and
        // swamps the headroom discount, so check the paper's stall
        // ordering on a roomier device (20 % OP) where both reserves run
        // at moderate utilization.
        let mut system = SystemConfig::default_sim();
        system.ftl = system.ftl.to_builder().op_permille(200).build();
        let s = spec(&system);
        let small = predict(
            &system,
            PolicyKind::ReservedPermille(250),
            BenchmarkKind::Ycsb,
            &s,
        );
        let large = predict(
            &system,
            PolicyKind::ReservedPermille(750),
            BenchmarkKind::Ycsb,
            &s,
        );
        assert!(large.waf > small.waf);
        assert!(
            large.stall_proxy < small.stall_proxy,
            "bigger reserve must stall less: {} vs {}",
            large.stall_proxy,
            small.stall_proxy
        );
    }

    #[test]
    fn sip_helps_buffered_workloads() {
        let system = SystemConfig::default_sim();
        let s = spec(&system);
        let with = predict(&system, PolicyKind::Jit, BenchmarkKind::Ycsb, &s);
        let without = predict(&system, PolicyKind::JitNoSip, BenchmarkKind::Ycsb, &s);
        assert!(with.waf < without.waf);
        // TPC-C is 99.9 % direct: SIP has nothing to predict.
        let t_with = predict(&system, PolicyKind::Jit, BenchmarkKind::TpcC, &s);
        let t_without = predict(&system, PolicyKind::JitNoSip, BenchmarkKind::TpcC, &s);
        assert!((t_with.waf - t_without.waf).abs() / t_without.waf < 0.01);
    }

    #[test]
    fn lifetime_scales_with_endurance() {
        let mut system = SystemConfig::default_sim();
        system.ftl = system.ftl.to_builder().endurance_limit(1_000).build();
        let s = spec(&system);
        let one = predict(&system, PolicyKind::Jit, BenchmarkKind::Ycsb, &s);
        system.ftl = system.ftl.to_builder().endurance_limit(3_000).build();
        let three = predict(&system, PolicyKind::Jit, BenchmarkKind::Ycsb, &s);
        let (l1, l3) = (
            one.lifetime_host_bytes.expect("endurance set"),
            three.lifetime_host_bytes.expect("endurance set"),
        );
        assert!(
            (l3 / l1 - 3.0).abs() < 1e-6,
            "3× endurance must give 3× lifetime at equal WAF: {l1} vs {l3}"
        );
    }

    #[test]
    fn unlimited_endurance_has_no_lifetime() {
        let system = SystemConfig::default_sim();
        let p = predict(
            &system,
            PolicyKind::NoBgc,
            BenchmarkKind::TpcC,
            &spec(&system),
        );
        assert!(p.lifetime_host_bytes.is_none());
    }

    #[test]
    fn overfull_configuration_is_flagged_infeasible() {
        let system = SystemConfig::default_sim();
        // Demand a reserve so large the working set no longer fits.
        let p = predict(
            &system,
            PolicyKind::ReservedPermille(2_000),
            BenchmarkKind::Ycsb,
            &spec(&system),
        );
        assert!(!p.feasible);
        assert_eq!(p.waf, INFEASIBLE_WAF);
        assert_eq!(p.stall_proxy, f64::MAX);
    }

    #[test]
    fn ycsb_jit_waf_lands_in_the_golden_band() {
        // The simulator's golden test pins YCSB/JIT-GC WAF to [4, 7];
        // the model must land in the same band.
        let system = SystemConfig::default_sim();
        let p = predict(
            &system,
            PolicyKind::Jit,
            BenchmarkKind::Ycsb,
            &spec(&system),
        );
        assert!(
            p.waf > 3.0 && p.waf < 8.0,
            "YCSB/JIT predicted WAF {} far from the simulator's band",
            p.waf
        );
    }

    #[test]
    fn bonnie_sequential_sweeps_are_nearly_free() {
        let system = SystemConfig::default_sim();
        let p = predict(
            &system,
            PolicyKind::ReservedPermille(500),
            BenchmarkKind::Bonnie,
            &spec(&system),
        );
        assert!(
            p.waf < 2.0,
            "Bonnie++ is sweep-dominated; WAF {} should be near 1",
            p.waf
        );
    }
}
