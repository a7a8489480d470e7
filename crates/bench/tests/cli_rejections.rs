//! Hostile `ssdsim` input is an error message and exit 2, never a panic:
//! zero / negative / NaN rates, fault rates that are negative or not
//! finite, and over-provisioning that leaves no working set die at parse
//! time naming their flag, a `--config` whose device would not fit the
//! 32-bit page tables names `ftl.user_pages`, one whose flusher clock
//! cannot tick names `flusher_period_us` / `cache.tau_expire_us`, one whose
//! cache keeps another flusher period names both period keys, one with a
//! zero the config builders would panic on names that key, and so do a
//! CDH percentile outside `(0, 1]`, a zero CDH bin, a queue depth of zero
//! or above 65 536 and a fault rate that is negative or not finite, on the
//! command line or in a `--config`;
//! an unwritable output path is reported before anything runs, and the
//! selector and screening flags this CLI no longer has are plain unknown
//! flags. A legal but outsized value runs: a cache capacity of 2^40 pages
//! is no allocation request.

use std::process::Command;

/// Dumps the default configuration to `<name>.json`, replaces the one
/// occurrence of `from` in it by `to`, and returns the path of the result.
fn config_with(name: &str, from: &str, to: &str) -> String {
    let path = format!("{}/{name}.json", env!("CARGO_TARGET_TMPDIR"));
    let dumped = Command::new(env!("CARGO_BIN_EXE_ssdsim"))
        .args(["--dump-config", &path])
        .output()
        .expect("ssdsim runs");
    assert!(dumped.status.success());
    let config = std::fs::read_to_string(&path).expect("config was dumped");
    assert_eq!(config.matches(from).count(), 1, "{from:?} in {config}");
    std::fs::write(&path, config.replace(from, to)).expect("config is writable");
    path
}

#[test]
fn bad_flags_exit_2_with_a_message_naming_them() {
    let huge_config = config_with(
        "user-pages-2-33",
        "\"user_pages\": 24576",
        "\"user_pages\": 8589934592",
    );
    // The flusher clock: top-level keys sit two spaces deep in the dump,
    // the cache's four.
    let period = "\n  \"flusher_period_us\": 500000";
    let zero_period = config_with("period-0", period, "\n  \"flusher_period_us\": 0");
    let long_period = config_with("period-7s", period, "\n  \"flusher_period_us\": 7000000");
    let ragged_tau = config_with(
        "tau-3100ms",
        "\"tau_expire_us\": 3000000",
        "\"tau_expire_us\": 3100000",
    );
    let zero_cache_period = config_with(
        "cache-period-0",
        "\n    \"flusher_period_us\": 500000",
        "\n    \"flusher_period_us\": 0",
    );
    // The cache's flusher on another clock than the engine's tick: 1 s
    // against the top level's 0.5 s.
    let split_period = config_with(
        "cache-period-1s",
        "\n    \"flusher_period_us\": 500000",
        "\n    \"flusher_period_us\": 1000000",
    );
    // The dump has no `fault` section; this one installs a program rate.
    let fault_rate = |name: &str, rate: &str| {
        config_with(
            name,
            "\"endurance_limit\": null",
            &format!(
                "\"endurance_limit\": 40, \"fault\": {{\"seed\": 9, \"program_rate\": {rate}, \
                 \"erase_rate\": 0.5, \"read_rate\": 0, \"wear_scale\": 40}}"
            ),
        )
    };
    let negative_fault = fault_rate("fault-program-neg", "-0.5");
    let infinite_fault = fault_rate("fault-program-inf", "1e999");
    // The dumped line with its value replaced by zero.
    let zeroed = |line: &str| {
        let (field, _) = line.split_once(": ").expect("a dumped line");
        config_with(&field.replace('"', ""), line, &format!("{field}: 0"))
    };
    let zero_capacity = zeroed("\"capacity_pages\": 8192");
    let zero_tau = zeroed("\"tau_expire_us\": 3000000");
    let zero_pages_per_block = zeroed("\"pages_per_block\": 128");
    let zero_page_size = zeroed("\"page_size_bytes\": 4096");
    let zero_reserve = zeroed("\"gc_reserve_blocks\": 2");
    let zero_user_pages = zeroed("\"user_pages\": 24576");
    let wide_percentile = config_with(
        "cdh-percentile-1.5",
        "\"cdh_percentile\": 0.8",
        "\"cdh_percentile\": 1.5",
    );
    let zero_cdh_bin = zeroed("\"cdh_bin_bytes\": 262144");
    let zero_queue_depth = zeroed("\"queue_depth\": 1");
    let huge_queue_depth = config_with(
        "queue-depth-2-32",
        "\"queue_depth\": 1",
        "\"queue_depth\": 4294967295",
    );
    // (arguments, what stderr must mention)
    let cases: [(&[&str], &str); 41] = [
        (&["--seconds", "0"], "--seconds"),
        // The first used to run until killed: 2e13 s wrapped the
        // microsecond conversion in a release build. The second is one
        // second past the longest run the arrival rule admits, 2^62 µs.
        (
            &["--seconds", "20000000000000", "--json"],
            "--seconds 20000000000000: ",
        ),
        (&["--seconds", "4611686018428"], "--seconds 4611686018428: "),
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
        (&["--screen", "model"], "unknown flag: --screen"),
        (&["--screen-keep", "0.25"], "unknown flag: --screen-keep"),
        (
            &["--array", "4", "--member-threads", "2"],
            "unknown flag: --member-threads",
        ),
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
        // The flusher clock's preconditions used to be three constructor
        // panics (exit 101): a period of zero, a τ_expire that is not a
        // whole number of periods, a period longer than τ_expire.
        (
            &["--config", &zero_period],
            "`flusher_period_us` must be greater than zero",
        ),
        (
            &["--config", &ragged_tau],
            "`cache.tau_expire_us` of 3100000",
        ),
        (
            &["--config", &long_period],
            "multiple of `flusher_period_us` (7000000)",
        ),
        // The cache's flusher and the engine's tick are one clock: a
        // cache period of zero cannot tick, and one that differs from the
        // top level's used to be overwritten by it, silently.
        (
            &["--config", &zero_cache_period],
            "`cache.flusher_period_us`",
        ),
        (
            &["--config", &split_period],
            "`cache.flusher_period_us` of 1000000 must equal `flusher_period_us` (500000)",
        ),
        // `--fault-program -1` was refused while these ran: the negative
        // rate fault-free, the infinite one failing every program on a
        // worn block.
        (
            &["--config", &negative_fault],
            "`ftl.fault.program_rate` of -0.5: a fault rate must be finite and not negative",
        ),
        (
            &["--config", &infinite_fault],
            "`ftl.fault.program_rate` of inf",
        ),
        // Zeros the config builders assert against used to be panics
        // (exit 101) in `PageCacheConfig` / `FtlConfig::build`.
        (
            &["--config", &zero_capacity],
            "`cache.capacity_pages` must be greater than zero",
        ),
        (
            &["--config", &zero_tau],
            "`cache.tau_expire_us` must be greater than zero",
        ),
        (
            &["--config", &zero_pages_per_block],
            "`ftl.pages_per_block` must be greater than zero",
        ),
        (
            &["--config", &zero_page_size],
            "`ftl.page_size_bytes` must be greater than zero",
        ),
        (
            &["--config", &zero_reserve],
            "`ftl.gc_reserve_blocks` must be greater than zero",
        ),
        (
            &["--config", &zero_user_pages],
            "`ftl.user_pages` must be greater than zero",
        ),
        // The direct-write predictor's constructor asserted the first two
        // (exit 101); a zero queue depth was accepted although
        // `--queue-depth 0` is refused.
        (
            &["--config", &wide_percentile],
            "`cdh_percentile` of 1.5 must be in (0, 1]",
        ),
        (
            &["--config", &zero_cdh_bin],
            "`cdh_bin_bytes` must be greater than zero",
        ),
        (
            &["--config", &zero_queue_depth],
            "`queue_depth` must be greater than zero",
        ),
        // One application thread per request in flight: beyond the
        // deepest NVMe queue these aborted (exit 134) allocating 34 GB
        // of per-thread clocks.
        (&["--queue-depth", "4294967295"], "--queue-depth 4294967295"),
        (
            &["--config", &huge_queue_depth],
            "`queue_depth` of 4294967295 must be at most 65536",
        ),
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

/// The page cache reserves its slab for the smaller of its capacity and
/// the device's LPN space, so a capacity far past memory runs like any
/// other. A failed allocation aborts the process, which only a child
/// process can observe.
#[test]
fn a_cache_capacity_of_2_to_the_40_pages_runs() {
    let config = config_with(
        "cache_capacity_2_pow_40",
        "\"capacity_pages\": 8192",
        "\"capacity_pages\": 1099511627776",
    );
    let args = [
        "--config",
        &config,
        "--benchmark",
        "ycsb",
        "--policy",
        "jit-gc",
        "--seconds",
        "30",
    ];
    let out = Command::new(env!("CARGO_BIN_EXE_ssdsim"))
        .args(args)
        .output()
        .expect("ssdsim runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "ssdsim {args:?}: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("policy          JIT-GC") && stdout.contains("WAF"),
        "ssdsim {args:?} printed no report: {stdout}"
    );
}
