//! `ssdsimd`'s flags write into one service configuration, so their
//! order on the command line does not matter; and its exit-2 paths: the
//! retired `--fast-forward`, `--worker-threads` and `--bench-json` flags,
//! and tenant or duration values the service refuses before it runs.

use std::process::{Command, Output};

fn ssdsimd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ssdsimd"))
        .args(args)
        .output()
        .expect("ssdsimd runs")
}

fn report(args: &[&str]) -> String {
    let out = ssdsimd(args);
    assert!(
        out.status.success(),
        "ssdsimd {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// `--small` swaps the device but keeps the aging choice, so it commutes
/// with `--no-prefill`; without `--no-prefill` the small device is aged.
#[test]
fn small_and_no_prefill_commute() {
    let small_first = report(&["--small", "--no-prefill", "--seconds", "2", "--json"]);
    let prefill_first = report(&["--no-prefill", "--small", "--seconds", "2", "--json"]);
    assert_eq!(small_first, prefill_first);
    let aged = report(&["--small", "--seconds", "2", "--json"]);
    assert_ne!(aged, small_first, "`--small` alone must age the device");
}

#[test]
fn retired_flags_and_refused_values_exit_2() {
    let cases: [(&[&str], &str); 7] = [
        (&["--fast-forward", "on"], "unknown flag: --fast-forward"),
        (&["--worker-threads", "2"], "unknown flag: --worker-threads"),
        // The perf record is `jitgc-perf`'s (the `benchmark/` package).
        (&["--bench-json", "x"], "unknown flag: --bench-json"),
        // Used to abort (exit 134) allocating 68 GB of thread slots.
        (
            &["--tenants", "w:writer:1:100:4294967295"],
            "tenant 0 (w) has concurrency 4294967295",
        ),
        // Used to panic (exit 101) building the tenant's workload: the
        // rate check refused NaN and zero but not infinity.
        (
            &[
                "--small",
                "--seconds",
                "1",
                "--no-prefill",
                "--tenants",
                "w:writer:1:inf:4",
            ],
            "tenant 0 (w) has mean IOPS inf",
        ),
        // Used to panic (exit 101) on a wrapped clock: the first drawn
        // gap saturated near `u64::MAX` µs.
        (
            &[
                "--small",
                "--seconds",
                "1",
                "--no-prefill",
                "--tenants",
                "w:writer:1:1e-300:1",
            ],
            "tenant 0 (w) has mean IOPS 1e-300",
        ),
        // Used to panic (exit 101) converting the seconds, or wrap them
        // in a release build.
        (
            &["--small", "--seconds", "20000000000000"],
            "seconds 20000000000000: ",
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
