//! Pins the key paths — names *and* order — of the two `--bench-json`
//! record shapes `ssdsim` writes (single device, `--array`; a sweep
//! writes an array of single-device records). Both go through the one
//! `RunPerf::record` writer, so a field dropped or reordered there fails
//! here; dashboards diff these records positionally. The third shape,
//! `ssdsimd`'s, is pinned by `crates/service/tests/cli_bench_record.rs`
//! against the same lists.

use jitgc_sim::json::JsonValue;
use std::process::Command;

const HEAD: &[&str] = &[
    "schema",
    "benchmark",
    "policy",
    "victim",
    "seed",
    "simulated_secs",
    "ops",
    "host_pages_written",
    "nand_pages_programmed",
    "wall_secs",
    "setup_secs",
    "run_secs",
    "host_pages_per_wall_sec",
    "nand_pages_per_wall_sec",
    "ops_per_wall_sec",
];
const PHASES: &[&str] = &[
    "phase_request_execution_secs",
    "phase_flush_secs",
    "phase_predictor_secs",
    "phase_bgc_secs",
    "phase_reporting_secs",
    "phase_gc_copy_secs",
    "phase_tick_secs",
];
const FAST_FORWARD: &[&str] = &["fast_forward", "ticks_skipped", "ff_spans"];

fn concat(parts: &[&[&'static str]]) -> Vec<&'static str> {
    parts.concat()
}

fn keys(value: &JsonValue) -> Vec<&str> {
    match value {
        JsonValue::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

/// Runs `ssdsim <args> --bench-json <tmp>` and parses the record.
fn bench_record(name: &str, args: &[&str]) -> JsonValue {
    let dir = std::env::temp_dir().join("ssdsim-record-shape");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(name);
    let out = Command::new(env!("CARGO_BIN_EXE_ssdsim"))
        .args(args)
        .args(["--seconds", "5", "--no-prefill", "--bench-json"])
        .arg(&path)
        .output()
        .expect("ssdsim runs");
    assert!(
        out.status.success(),
        "ssdsim {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("bench JSON written");
    JsonValue::parse(&text).expect("bench JSON parses")
}

fn single_keys() -> Vec<&'static str> {
    concat(&[
        HEAD,
        &["read_only", "lifetime_host_bytes", "retired_blocks"],
        PHASES,
        FAST_FORWARD,
        &["phase_untracked_secs"],
    ])
}

#[test]
fn bench_record_key_paths_are_pinned() {
    // --- single device ---
    let single = bench_record("single.json", &["--benchmark", "ycsb"]);
    assert_eq!(keys(&single), single_keys());
    assert_eq!(
        single.get("schema").and_then(JsonValue::as_str),
        Some("ssdsim-bench/11")
    );
    assert_eq!(
        single.get("fast_forward").and_then(JsonValue::as_bool),
        Some(true),
        "the engine fast-forwards unless a test hook says otherwise"
    );

    // --- several cells: an array of the same records ---
    let sweep = bench_record("sweep.json", &["--benchmark", "ycsb,tpcc"]);
    let sweep = sweep.as_array().expect("two cells make an array");
    assert_eq!(sweep.len(), 2);
    for record in sweep {
        assert_eq!(keys(record), single_keys());
    }

    // --- array ---
    let array = bench_record("array.json", &["--benchmark", "ycsb", "--array", "4"]);
    assert_eq!(
        keys(&array),
        concat(&[
            HEAD,
            &["degraded_members", "recovered_pages", "lost_pages"],
            PHASES,
            FAST_FORWARD,
            &["phase_untracked_secs", "array", "member_perf"],
        ])
    );
    assert_eq!(
        keys(array.get("array").expect("array section")),
        [
            "members",
            "chunk_pages",
            "redundancy",
            "gc_mode",
            "split_requests",
            "routed_reads",
        ]
    );
    let members = array
        .get("member_perf")
        .and_then(JsonValue::as_array)
        .expect("member_perf array");
    assert_eq!(members.len(), 4);
    for member in members {
        assert_eq!(
            keys(member),
            concat(&[
                &[
                    "ops",
                    "host_pages_written",
                    "nand_pages_programmed",
                    "nand_erases"
                ],
                PHASES,
                &[
                    "ticks_skipped",
                    "steps",
                    "lag_mean_us",
                    "lag_p99_us",
                    "lag_max_us",
                    "straggler_requests",
                    "straggler_fgc_requests",
                    "straggler_time_us",
                ],
            ])
        );
    }
}
