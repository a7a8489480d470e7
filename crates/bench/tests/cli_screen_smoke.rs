//! End-to-end CLI smoke tests of the model-screening sweep path: the
//! `ssdsim-bench/10` screened record shape, the ≤ keep-fraction cell
//! budget, and — the load-bearing guarantee — that screening only
//! changes *which* cells are simulated, never what a simulated cell
//! reports: every simulated cell of a screened sweep byte-matches the
//! same cell of an exhaustive sweep. These double as the CI screening
//! smoke step.

use jitgc_sim::json::JsonValue;
use std::process::Command;

fn ssdsim(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ssdsim"))
        .args(args)
        .output()
        .expect("ssdsim runs");
    assert!(
        out.status.success(),
        "ssdsim {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// The sweep both runs share: every policy over two benchmarks, short
/// and low-rate so the whole test stays in smoke-test territory.
const SWEEP: &[&str] = &[
    "--benchmark",
    "ycsb,bonnie",
    "--policy",
    "all",
    "--seconds",
    "30",
    "--iops",
    "1000",
    "--seed",
    "11",
    "--json",
];

#[test]
fn screened_sweep_reports_schema_7_and_byte_matches_exhaustive_cells() {
    let dir = std::env::temp_dir().join("ssdsim-screen-smoke");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let bench_path = dir.join("screened.json");
    let bench = bench_path.to_str().expect("utf-8 temp path");

    let mut screened_args = SWEEP.to_vec();
    screened_args.extend_from_slice(&[
        "--screen",
        "model",
        "--screen-keep",
        "0.25",
        "--bench-json",
        bench,
    ]);
    let screened_stdout = ssdsim(&screened_args);
    let exhaustive_stdout = ssdsim(SWEEP);

    // --- Screening record shape (the CI schema assertion). ---
    let record_text = std::fs::read_to_string(&bench_path).expect("bench JSON written");
    let record = JsonValue::parse(&record_text).expect("bench JSON parses");
    assert_eq!(
        record.get("schema").and_then(JsonValue::as_str),
        Some("ssdsim-bench/10"),
        "screened record must carry the ssdsim-bench/10 schema"
    );
    let screening = record.get("screening").expect("screening section present");
    for field in [
        "keep_frac",
        "total_cells",
        "duplicate_cells_dropped",
        "simulated_cells",
        "pareto_cells",
        "model_eval_secs",
    ] {
        assert!(
            screening.get(field).is_some(),
            "screening section missing `{field}`"
        );
    }
    assert_eq!(
        screening.get("mode").and_then(JsonValue::as_str),
        Some("model")
    );
    let cells = record
        .get("cells")
        .and_then(JsonValue::as_array)
        .expect("cells array present");
    let total = screening
        .get("total_cells")
        .and_then(JsonValue::as_u64)
        .expect("total_cells");
    assert_eq!(cells.len() as u64, total);

    // Every cell carries a model prediction; only simulated ones a perf
    // record.
    let mut simulated_flags = Vec::new();
    for cell in cells {
        let simulated = cell
            .get("simulated")
            .and_then(JsonValue::as_bool)
            .expect("simulated flag");
        assert!(cell.get("model").is_some(), "cell missing model block");
        assert_eq!(
            cell.get("perf").is_some(),
            simulated,
            "perf block must be present exactly for simulated cells"
        );
        simulated_flags.push(simulated);
    }
    let simulated_count = simulated_flags.iter().filter(|&&s| s).count() as u64;
    assert_eq!(
        screening
            .get("simulated_cells")
            .and_then(JsonValue::as_u64)
            .expect("simulated_cells"),
        simulated_count
    );

    // --- Byte-identity of the simulated cells. ---
    // Both runs expand the same cell grid in the same deterministic
    // order; `--json` prints one report per *simulated* cell in cell
    // order. So the screened array must be exactly the exhaustive array
    // with the screened-out indices removed.
    let screened_reports = JsonValue::parse(&screened_stdout)
        .expect("screened stdout parses")
        .as_array()
        .expect("screened stdout is an array")
        .iter()
        .map(JsonValue::to_pretty)
        .collect::<Vec<_>>();
    let exhaustive_reports = JsonValue::parse(&exhaustive_stdout)
        .expect("exhaustive stdout parses")
        .as_array()
        .expect("exhaustive stdout is an array")
        .iter()
        .map(JsonValue::to_pretty)
        .collect::<Vec<_>>();

    assert_eq!(exhaustive_reports.len(), simulated_flags.len());
    assert_eq!(screened_reports.len(), simulated_count as usize);
    let expected: Vec<&String> = exhaustive_reports
        .iter()
        .zip(&simulated_flags)
        .filter(|(_, &s)| s)
        .map(|(r, _)| r)
        .collect();
    for (i, (screened, exhaustive)) in screened_reports.iter().zip(&expected).enumerate() {
        assert_eq!(
            &screened, exhaustive,
            "simulated cell {i}: screened report differs from exhaustive run"
        );
    }
}

/// Screening must hit the cell budget: with `--screen-keep 0.25` at most
/// ~25 % of each benchmark's cells run, plus any extra predicted-frontier
/// cells, and at least one cell per benchmark always survives.
#[test]
fn screening_respects_keep_budget() {
    let dir = std::env::temp_dir().join("ssdsim-screen-budget");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let bench_path = dir.join("budget.json");
    let bench = bench_path.to_str().expect("utf-8 temp path");

    // Wider grid (3 OP points × 7 policies per benchmark) so the frontier
    // is a small share and the budget binds.
    ssdsim(&[
        "--benchmark",
        "ycsb",
        "--policy",
        "all",
        "--op-sweep",
        "70,150,300",
        "--seconds",
        "30",
        "--iops",
        "1000",
        "--screen",
        "model",
        "--screen-keep",
        "0.25",
        "--bench-json",
        bench,
    ]);
    let record_text = std::fs::read_to_string(&bench_path).expect("bench JSON written");
    let record = JsonValue::parse(&record_text).expect("bench JSON parses");
    let screening = record.get("screening").expect("screening section");
    let total = screening
        .get("total_cells")
        .and_then(JsonValue::as_u64)
        .expect("total_cells");
    let simulated = screening
        .get("simulated_cells")
        .and_then(JsonValue::as_u64)
        .expect("simulated_cells");
    let pareto = screening
        .get("pareto_cells")
        .and_then(JsonValue::as_u64)
        .expect("pareto_cells");
    assert_eq!(total, 21, "7 policies × 3 OP points");
    assert!(simulated >= 1);
    // The budget: ⌊0.25 × 21⌋ = 5 fill cells, plus the predicted
    // frontier which is always simulated.
    let budget = 5.max(pareto);
    assert!(
        simulated <= budget,
        "simulated {simulated} cells, budget {budget} (frontier {pareto})"
    );
}
