//! Hostile `ssdsim` input is an error message and exit 2, never a panic:
//! zero / negative / NaN rates, fault rates that are negative or not
//! finite, and over-provisioning that leaves no working set die at parse
//! time naming their flag, a `--config` whose device would not fit the
//! 32-bit page tables names `ftl.user_pages`, an unwritable output
//! path is reported before anything runs, and the selector flags this
//! CLI no longer has are plain unknown flags.

use std::process::Command;

/// Dumps the default configuration, rewrites `ftl.user_pages` in it, and
/// returns the path of the result.
fn config_with_user_pages(pages: u64) -> String {
    let path = format!("{}/user-pages-{pages}.json", env!("CARGO_TARGET_TMPDIR"));
    let dumped = Command::new(env!("CARGO_BIN_EXE_ssdsim"))
        .args(["--dump-config", &path])
        .output()
        .expect("ssdsim runs");
    assert!(dumped.status.success());
    let config = std::fs::read_to_string(&path).expect("config was dumped");
    let default_pages = "\"user_pages\": 24576";
    assert!(config.contains(default_pages), "{config}");
    let rewritten = config.replace(default_pages, &format!("\"user_pages\": {pages}"));
    std::fs::write(&path, rewritten).expect("config is writable");
    path
}

#[test]
fn bad_flags_exit_2_with_a_message_naming_them() {
    let huge_config = config_with_user_pages(1 << 33);
    // (arguments, what stderr must mention)
    let cases: [(&[&str], &str); 18] = [
        (&["--seconds", "0"], "--seconds"),
        (&["--iops", "0"], "--iops"),
        (&["--iops", "-5"], "--iops"),
        (&["--iops", "nan"], "--iops"),
        (&["--burst", "0"], "--burst"),
        // These three used to run to completion with no fault model
        // installed (`-1` and NaN fail the `> 0` install test) or with an
        // infinite per-op probability.
        (&["--fault-program", "-1"], "--fault-program"),
        (&["--fault-read", "nan"], "--fault-read"),
        (&["--fault-erase", "inf"], "--fault-erase"),
        (
            &["--gc-migration", "looped"],
            "unknown flag: --gc-migration",
        ),
        (
            &["--array", "4", "--array-sched", "barrier"],
            "unknown flag: --array-sched",
        ),
        (&["--fast-forward", "on"], "unknown flag: --fast-forward"),
        // OP of 200 % leaves a working set of exactly zero pages; above
        // it the subtraction used to wrap.
        (&["--op-sweep", "2000"], "--op-sweep 2000"),
        (&["--op-sweep", "70,2001"], "--op-sweep 2001"),
        (&["--op-sweep", "5000"], "--op-sweep 5000"),
        (
            &["--bench-json", "/nonexistent-dir/perf.json"],
            "cannot write /nonexistent-dir/perf.json",
        ),
        (
            &["--array", "2", "--bench-json", "/nonexistent-dir/perf.json"],
            "cannot write /nonexistent-dir/perf.json",
        ),
        (
            &["--timeline", "/nonexistent-dir/timeline.csv"],
            "cannot write /nonexistent-dir/timeline.csv",
        ),
        // 2^33 user pages used to abort allocating a 66 GB mapping table
        // (and 2^40 to panic on `block count fits u32`).
        (&["--config", &huge_config], "`ftl.user_pages`"),
    ];
    for (args, mention) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_ssdsim"))
            .args(args)
            .output()
            .expect("ssdsim runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "ssdsim {args:?} must exit 2; stderr: {stderr}"
        );
        assert!(
            stderr.contains(mention),
            "ssdsim {args:?} must mention `{mention}`; stderr: {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "ssdsim {args:?} panicked: {stderr}"
        );
        assert!(out.stdout.is_empty(), "ssdsim {args:?} printed a report");
    }
}
