//! Analytical pre-filtering of simulation sweeps.
//!
//! A design-space sweep (`ssdsim --benchmark all --policy all
//! --op-sweep …`) is a grid of independent simulations, and most cells
//! are nowhere near any trade-off frontier — they dominate nothing and
//! answer no question. The screening layer evaluates every cell with the
//! [`jitgc-model`](jitgc_model) mean-field model (microseconds per cell),
//! keeps the predicted Pareto frontier over (WAF ↓, lifetime ↑, stall
//! proxy ↓) plus a configurable fill fraction of runners-up, and hands
//! only those cells to the simulator. Skipped cells still appear in the
//! `--bench-json` record with their model predictions, so nothing is
//! silently dropped.
//!
//! The cells that *are* simulated run through the exact same
//! [`run_grid`](crate::run_grid) path as an exhaustive sweep, so their
//! reports are byte-identical to the same cells of an unscreened run —
//! screening changes which cells run, never what a run produces.

use crate::{Experiment, PolicyKind};
use jitgc_core::system::{SsdSystem, SystemConfig};
use jitgc_model::{predict, Prediction, WorkloadSpec};
use jitgc_workload::BenchmarkKind;

/// One cell of a CLI sweep: a GC policy × a benchmark × an optional
/// over-provisioning override (permille; `None` keeps the base config).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepCell {
    /// The GC policy under test.
    pub policy: PolicyKind,
    /// The benchmark personality driving the run.
    pub benchmark: BenchmarkKind,
    /// Over-provisioning override in permille of user capacity.
    pub op_permille: Option<u64>,
}

impl SweepCell {
    /// The system configuration this cell runs under: the base config
    /// with the cell's OP override applied (geometry rescales with it).
    #[must_use]
    pub fn system(&self, base: &SystemConfig) -> SystemConfig {
        match self.op_permille {
            None => base.clone(),
            Some(p) => {
                let mut system = base.clone();
                system.ftl = system.ftl.to_builder().op_permille(p).build();
                system
            }
        }
    }

    /// Builds this cell ready to run, the way every sweep driver does:
    /// `base` on the cell's [`system`](Self::system), through
    /// [`Experiment::build`].
    #[must_use]
    pub fn build(&self, base: &Experiment) -> SsdSystem {
        Experiment {
            system: self.system(&base.system),
            ..base.clone()
        }
        .build(self.policy, self.benchmark)
    }
}

/// Expands the `benchmarks × policies × op values` cross product in
/// deterministic order and drops exact duplicate cells (same policy,
/// benchmark, and OP — e.g. `--policy l-bgc,reserved:500` names the same
/// configuration twice). Returns the unique cells in first-occurrence
/// order and the number of duplicates dropped.
#[must_use]
pub fn expand_cells(
    benchmarks: &[BenchmarkKind],
    policies: &[PolicyKind],
    op_values: &[Option<u64>],
) -> (Vec<SweepCell>, usize) {
    let mut cells: Vec<SweepCell> = Vec::new();
    let mut dropped = 0usize;
    for &benchmark in benchmarks {
        for &policy in policies {
            for &op_permille in op_values {
                let cell = SweepCell {
                    policy,
                    benchmark,
                    op_permille,
                };
                if cells.contains(&cell) {
                    dropped += 1;
                } else {
                    cells.push(cell);
                }
            }
        }
    }
    (cells, dropped)
}

/// The screening verdict for a sweep: per-cell model predictions, the
/// predicted Pareto membership, and which cells to actually simulate.
#[derive(Debug, Clone)]
pub struct ScreenPlan {
    /// Model prediction for every cell, in cell order.
    pub predictions: Vec<Prediction>,
    /// Whether the cell sits on its benchmark's predicted Pareto frontier
    /// over (WAF ↓, lifetime ↑, stall proxy ↓).
    pub pareto: Vec<bool>,
    /// Whether the cell will be simulated (frontier + keep-fraction fill).
    pub keep: Vec<bool>,
}

impl ScreenPlan {
    /// Number of cells selected for simulation.
    #[must_use]
    pub fn simulated_cells(&self) -> usize {
        self.keep.iter().filter(|&&k| k).count()
    }

    /// Number of cells on the predicted Pareto frontier.
    #[must_use]
    pub fn pareto_cells(&self) -> usize {
        self.pareto.iter().filter(|&&p| p).count()
    }
}

/// `a` dominates `b` when it is no worse on every objective and strictly
/// better on at least one. Lifetime is maximized; missing lifetimes
/// (unlimited endurance) compare equal and drop out of the ordering.
fn dominates(a: &Prediction, b: &Prediction) -> bool {
    let life = |p: &Prediction| p.lifetime_host_bytes.unwrap_or(0.0);
    let no_worse = a.waf <= b.waf && a.stall_proxy <= b.stall_proxy && life(a) >= life(b);
    let better = a.waf < b.waf || a.stall_proxy < b.stall_proxy || life(a) > life(b);
    no_worse && better
}

/// Screens a sweep: predicts every cell analytically, marks each
/// benchmark's Pareto frontier, and keeps the frontier plus the
/// best-ranked runners-up until `max(1, ⌊keep_frac × cells⌋)` of the
/// benchmark's cells are selected, so the fill stays *within* the
/// requested budget (the whole frontier always survives, even past the
/// fraction — recovering it is the point).
///
/// Deterministic: predictions are pure functions and every tie breaks on
/// cell index.
#[must_use]
pub fn screen_cells(
    base: &SystemConfig,
    cells: &[SweepCell],
    mean_iops: f64,
    burst_mean: f64,
    keep_frac: f64,
) -> ScreenPlan {
    let predictions: Vec<Prediction> = cells
        .iter()
        .map(|cell| {
            let system = cell.system(base);
            let spec = WorkloadSpec::for_system(&system, mean_iops, burst_mean);
            predict(&system, cell.policy, cell.benchmark, &spec)
        })
        .collect();

    let mut pareto = vec![false; cells.len()];
    let mut keep = vec![false; cells.len()];
    let benchmarks: Vec<BenchmarkKind> = {
        let mut seen = Vec::new();
        for cell in cells {
            if !seen.contains(&cell.benchmark) {
                seen.push(cell.benchmark);
            }
        }
        seen
    };
    for benchmark in benchmarks {
        let group: Vec<usize> = (0..cells.len())
            .filter(|&i| cells[i].benchmark == benchmark)
            .collect();
        for &i in &group {
            // Infeasible cells never make the frontier: their WAF/stall
            // sentinels dominate nothing and simulating them answers no
            // trade-off question.
            pareto[i] = predictions[i].feasible
                && !group
                    .iter()
                    .any(|&j| j != i && dominates(&predictions[j], &predictions[i]));
            keep[i] = pareto[i];
        }
        // Fill with runners-up, best predicted WAF first (stall proxy,
        // then cell index break ties), until the fraction is met. Floor,
        // not ceil: the fill must not overshoot the requested budget
        // (`--screen-keep 0.25` on 42 cells means ≤ 10 fill cells, not
        // 11); at least one cell per benchmark always simulates.
        // (A WAF/stall-interleaved fill was tried and recovered *fewer*
        // simulated-frontier cells at every width — the model's stall
        // proxy is coarser than its WAF, so WAF rank is the better
        // spend.)
        let target = ((keep_frac * group.len() as f64).floor() as usize).max(1);
        let mut rest: Vec<usize> = group.iter().copied().filter(|&i| !keep[i]).collect();
        rest.sort_by(|&a, &b| {
            predictions[a]
                .waf
                .total_cmp(&predictions[b].waf)
                .then(
                    predictions[a]
                        .stall_proxy
                        .total_cmp(&predictions[b].stall_proxy),
                )
                .then(a.cmp(&b))
        });
        let kept = group.iter().filter(|&&i| keep[i]).count();
        for &i in rest.iter().take(target.saturating_sub(kept)) {
            keep[i] = true;
        }
    }
    ScreenPlan {
        predictions,
        pareto,
        keep,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_the_ordered_cross_product() {
        let (cells, dropped) = expand_cells(
            &[BenchmarkKind::Ycsb, BenchmarkKind::TpcC],
            &[PolicyKind::Jit, PolicyKind::NoBgc],
            &[None, Some(140)],
        );
        assert_eq!(cells.len(), 8);
        assert_eq!(dropped, 0);
        assert_eq!(cells[0].benchmark, BenchmarkKind::Ycsb);
        assert_eq!(cells[0].policy, PolicyKind::Jit);
        assert_eq!(cells[1].op_permille, Some(140));
    }

    #[test]
    fn duplicate_cells_are_dropped_and_counted() {
        let (cells, dropped) = expand_cells(
            &[BenchmarkKind::Ycsb],
            &[PolicyKind::L_BGC, PolicyKind::L_BGC, PolicyKind::Jit],
            &[None],
        );
        assert_eq!(cells.len(), 2);
        assert_eq!(dropped, 1);
    }

    #[test]
    fn op_override_rescales_the_geometry() {
        let base = SystemConfig::default_sim();
        let cell = SweepCell {
            policy: PolicyKind::Jit,
            benchmark: BenchmarkKind::Ycsb,
            op_permille: Some(200),
        };
        let system = cell.system(&base);
        assert_eq!(system.ftl.op_permille(), 200);
        assert!(system.ftl.op_pages() > base.ftl.op_pages());
        assert_eq!(system.ftl.user_pages(), base.ftl.user_pages());
        // The built cell runs on that system, not the base's.
        let sim = cell.build(&Experiment::standard());
        assert_eq!(sim.config().ftl.op_permille(), 200);
    }

    #[test]
    fn frontier_cells_are_always_kept() {
        let base = SystemConfig::default_sim();
        let (cells, _) = expand_cells(
            &[BenchmarkKind::Ycsb, BenchmarkKind::Bonnie],
            &PolicyKind::STANDARD,
            &[None],
        );
        let plan = screen_cells(&base, &cells, 250.0, 1024.0, 0.25);
        assert_eq!(plan.predictions.len(), cells.len());
        for i in 0..cells.len() {
            if plan.pareto[i] {
                assert!(plan.keep[i], "frontier cell {i} was not kept");
            }
        }
        assert!(plan.pareto_cells() >= 2, "each benchmark has a frontier");
    }

    #[test]
    fn screening_simulates_at_most_the_fill_or_the_frontier() {
        let base = SystemConfig::default_sim();
        let (cells, _) = expand_cells(
            BenchmarkKind::all().as_ref(),
            &PolicyKind::STANDARD,
            &[None, Some(140), Some(200)],
        );
        let plan = screen_cells(&base, &cells, 250.0, 1024.0, 0.25);
        // Per benchmark: kept ≤ max(frontier size, ⌊0.25 × cells⌋).
        for benchmark in BenchmarkKind::all() {
            let group: Vec<usize> = (0..cells.len())
                .filter(|&i| cells[i].benchmark == benchmark)
                .collect();
            let kept = group.iter().filter(|&&i| plan.keep[i]).count();
            let frontier = group.iter().filter(|&&i| plan.pareto[i]).count();
            let fill = ((0.25 * group.len() as f64).floor() as usize).max(1);
            assert!(
                kept <= frontier.max(fill),
                "{benchmark}: kept {kept} > max(frontier {frontier}, fill {fill})"
            );
            assert!(kept >= 1, "{benchmark}: nothing kept");
        }
    }

    #[test]
    fn infeasible_cells_are_never_on_the_frontier() {
        let base = SystemConfig::default_sim();
        let (cells, _) = expand_cells(
            &[BenchmarkKind::Ycsb],
            &[PolicyKind::ReservedPermille(2_000), PolicyKind::Jit],
            &[None],
        );
        let plan = screen_cells(&base, &cells, 250.0, 1024.0, 1.0);
        assert!(!plan.predictions[0].feasible);
        assert!(!plan.pareto[0]);
        // keep_frac 1.0 still simulates everything, feasible or not.
        assert!(plan.keep.iter().all(|&k| k));
    }

    #[test]
    fn screening_is_deterministic() {
        let base = SystemConfig::default_sim();
        let (cells, _) = expand_cells(
            BenchmarkKind::all().as_ref(),
            &PolicyKind::STANDARD,
            &[None],
        );
        let a = screen_cells(&base, &cells, 250.0, 1024.0, 0.25);
        let b = screen_cells(&base, &cells, 250.0, 1024.0, 0.25);
        assert_eq!(a.keep, b.keep);
        assert_eq!(a.pareto, b.pareto);
    }
}
