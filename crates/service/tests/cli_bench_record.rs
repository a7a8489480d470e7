//! `ssdsimd`'s `--bench-json` record: the key paths — names *and* order —
//! of the shared fields `RunPerf::record` writes for every driver (the
//! `ssdsim` shapes are pinned by
//! `crates/bench/tests/bench_record_shape.rs`), minus the ones the daemon
//! never carried (`victim`, the phase breakdown), plus its own `service`
//! block. Also the daemon's newest exit-2 paths: the retired
//! `--fast-forward` and `--worker-threads` flags, an unwritable
//! `--bench-json` path, reported before the run, and a tenant with more
//! closed-loop threads than the deepest NVMe queue.

use jitgc_sim::json::JsonValue;
use std::process::Command;

fn ssdsimd(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ssdsimd"))
        .args(args)
        .output()
        .expect("ssdsimd runs")
}

#[test]
fn bench_record_key_paths_are_pinned() {
    let dir = std::env::temp_dir().join("ssdsimd-record-shape");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("service.json");
    let out = ssdsimd(&[
        "--small",
        "--seconds",
        "2",
        "--no-prefill",
        "--json",
        "--bench-json",
        path.to_str().expect("utf-8 temp path"),
    ]);
    assert!(
        out.status.success(),
        "ssdsimd failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("bench JSON written");
    let record = JsonValue::parse(&text).expect("bench JSON parses");
    let JsonValue::Object(fields) = &record else {
        panic!("the record is an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "schema",
            "benchmark",
            "policy",
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
            "fast_forward",
            "ticks_skipped",
            "ff_spans",
            "service",
        ]
    );
    assert_eq!(
        record.get("schema").and_then(JsonValue::as_str),
        Some("ssdsim-bench/11")
    );
    assert_eq!(
        record.get("benchmark").and_then(JsonValue::as_str),
        Some("service")
    );
    assert_eq!(
        record.get("fast_forward").and_then(JsonValue::as_bool),
        Some(true)
    );
    // The `service` block is the deterministic `--json` report itself.
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert_eq!(
        record.get("service").expect("service block").to_pretty(),
        stdout.trim_end()
    );
}

#[test]
fn retired_flag_and_unwritable_record_exit_2() {
    let cases: [(&[&str], &str); 4] = [
        (&["--fast-forward", "on"], "unknown flag: --fast-forward"),
        (&["--worker-threads", "2"], "unknown flag: --worker-threads"),
        (
            &["--small", "--bench-json", "/nonexistent-dir/perf.json"],
            "cannot write /nonexistent-dir/perf.json",
        ),
        // Used to abort (exit 134) allocating 68 GB of thread slots.
        (
            &["--tenants", "w:writer:1:100:4294967295"],
            "tenant 0 (w) has concurrency 4294967295",
        ),
    ];
    for (args, mention) in cases {
        let out = ssdsimd(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "ssdsimd {args:?} must exit 2; stderr: {stderr}"
        );
        assert!(
            stderr.contains(mention),
            "ssdsimd {args:?} must mention `{mention}`; stderr: {stderr}"
        );
        assert!(out.stdout.is_empty(), "ssdsimd {args:?} printed a report");
    }
}
