//! `--compare A B`: two set files side by side. Fails when an end-to-end
//! pair differs by more than the metric's bound, or an exact (`[x]`)
//! layer metric differs at all.

use crate::spec::{self, Better};
use jitgc_sim::json::JsonValue;

/// `setup_s` is tens of milliseconds on some workloads; below this many
/// seconds of difference its relative bound does not apply.
const SETUP_FLOOR_S: f64 = 0.05;

fn load(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    JsonValue::parse(&text).map_err(|e| format!("parse {path}: {e}"))
}

/// `set.workloads.<workload>.<mode>.result.metrics.<metric>.value`
fn value(set: &JsonValue, workload: &str, mode: &str, metric: &str) -> Option<f64> {
    set.get("workloads")?
        .get(workload)?
        .get(mode)?
        .get("result")?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// Returns the process exit code: 0 when the sets agree, 1 when they do
/// not, 2 when a file could not be read.
pub fn run(a_path: &str, b_path: &str) -> i32 {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("jitgc-perf: {e}");
            return 2;
        }
    };
    let mut disagreements = 0;
    println!(
        "{:<18} {:<36} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "A", "B", "B vs A"
    );
    for workload in &spec::WORKLOADS {
        for m in &spec::END_TO_END {
            let pair = (
                value(&a, workload.name, crate::END_TO_END, m.name),
                value(&b, workload.name, crate::END_TO_END, m.name),
            );
            let (Some(a), Some(b)) = pair else {
                continue;
            };
            let change = (b - a) / a;
            let within =
                change.abs() <= m.bound || (m.name == "setup_s" && (b - a).abs() <= SETUP_FLOOR_S);
            let worse = match m.better {
                Better::Lower => change > 0.0,
                Better::Higher => change < 0.0,
            };
            let verdict = match (within, worse) {
                (true, _) => "ok",
                (false, true) => "WORSE",
                (false, false) => "BETTER",
            };
            disagreements += u32::from(!within);
            println!(
                "{:<18} {:<36} {a:>16.6} {b:>16.6} {:>+8.2}%  {verdict} (bound {:.0}%)",
                workload.name,
                m.name,
                change * 100.0,
                m.bound * 100.0
            );
        }
        for m in spec::PER_LAYER.iter().filter(|m| m.exact) {
            let pair = (
                value(&a, workload.name, crate::PER_LAYER, m.name),
                value(&b, workload.name, crate::PER_LAYER, m.name),
            );
            let (Some(a), Some(b)) = pair else {
                continue;
            };
            if a != b {
                disagreements += 1;
                println!(
                    "{:<18} {:<36} {a:>16} {b:>16} {:>9}  DIFFERS [x]",
                    workload.name, m.name, ""
                );
            }
        }
    }
    if disagreements == 0 {
        println!("the two sets agree: every end-to-end pair within its bound, every [x] metric identical");
        0
    } else {
        println!("{disagreements} disagreement(s)");
        1
    }
}
