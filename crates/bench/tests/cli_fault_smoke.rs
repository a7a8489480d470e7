//! End-to-end CLI smoke tests of the fault-injection and end-of-life
//! flags: a short run all the way to read-only mode, the
//! `ssdsim-bench/10` perf-record schema, and the byte-identity of
//! fault-free output. These double as the CI fault smoke step.

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

/// Drives a tiny-endurance device through the CLI to read-only mode and
/// checks the report's degraded section plus the schema-7 perf record.
#[test]
fn endurance_run_reaches_read_only_and_reports_schema_7() {
    let dir = std::env::temp_dir().join("ssdsim-fault-smoke");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let bench_path = dir.join("record.json");
    let bench = bench_path.to_str().expect("utf-8 temp path");

    let stdout = ssdsim(&[
        "--benchmark",
        "ycsb",
        "--seconds",
        "60",
        "--iops",
        "2000",
        "--endurance",
        "2",
        "--seed",
        "7",
        "--json",
        "--bench-json",
        bench,
    ]);
    let report = JsonValue::parse(&stdout).expect("report is valid JSON");
    let degraded = report
        .get("degraded")
        .expect("endurance-2 run must emit a degraded section");
    assert_eq!(
        degraded.get("read_only").and_then(JsonValue::as_bool),
        Some(true)
    );
    let lifetime = degraded
        .get("lifetime_host_bytes")
        .and_then(JsonValue::as_u64)
        .expect("read-only fixes the lifetime metric");
    assert!(lifetime > 0);
    assert!(
        degraded
            .get("retired_blocks")
            .and_then(JsonValue::as_u64)
            .expect("retired_blocks present")
            > 0
    );

    let record_text = std::fs::read_to_string(&bench_path).expect("bench record written");
    let record = JsonValue::parse(&record_text).expect("bench record is valid JSON");
    assert_eq!(
        record.get("schema").and_then(JsonValue::as_str),
        Some("ssdsim-bench/10"),
        "perf record must carry the bumped schema"
    );
    assert!(
        record.get("phase_gc_copy_secs").is_some(),
        "schema 5 must report the GC copy sub-phase"
    );
    assert_eq!(
        record.get("read_only").and_then(JsonValue::as_bool),
        Some(true)
    );
    assert_eq!(
        record
            .get("lifetime_host_bytes")
            .and_then(JsonValue::as_u64),
        Some(lifetime)
    );
    std::fs::remove_file(&bench_path).ok();
}

/// With every fault knob at its default, passing the flags explicitly (or
/// just a fault seed, with all rates zero) changes nothing: stdout is
/// byte-identical. This is the CLI face of the repo-wide guarantee that
/// the fault subsystem is inert unless enabled.
#[test]
fn zero_rate_fault_flags_leave_output_byte_identical() {
    let base = &["--seconds", "10", "--iops", "500", "--seed", "3", "--json"];
    let plain = ssdsim(base);
    let mut with_flags = base.to_vec();
    with_flags.extend_from_slice(&[
        "--fault-seed",
        "99",
        "--fault-program",
        "0",
        "--fault-erase",
        "0",
        "--fault-read",
        "0",
    ]);
    assert_eq!(
        plain,
        ssdsim(&with_flags),
        "zero-rate fault flags changed the output"
    );
}

/// The same `--fault-seed` reproduces the identical failure timeline; a
/// different seed produces a different one.
#[test]
fn fault_seed_reproduces_the_failure_timeline() {
    let faulty = |seed: &str| {
        ssdsim(&[
            "--seconds",
            "30",
            "--iops",
            "1000",
            "--seed",
            "5",
            "--endurance",
            "40",
            "--fault-seed",
            seed,
            "--fault-program",
            "0.05",
            "--fault-erase",
            "0.05",
            "--fault-read",
            "0.02",
            "--json",
        ])
    };
    let first = faulty("9");
    assert_eq!(first, faulty("9"), "same fault seed diverged");
    assert_ne!(first, faulty("1234"), "fault seed had no effect");
    let report = JsonValue::parse(&first).expect("valid JSON");
    assert!(
        report.get("degraded").is_some(),
        "fault rates were too low to exercise anything"
    );
}
