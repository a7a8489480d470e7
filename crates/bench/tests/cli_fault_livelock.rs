//! A device on which every program fails still finishes its run. A
//! program rate at or above the fault model's `wear_scale` fails every
//! program on a block erased once; foreground GC hands the blocks those
//! failures fill back as free ones, and a striped array under a BGC
//! policy once retried one host write forever. Each run here is a child
//! process with a 60 s deadline, so the hang fails the test instead of
//! stalling the suite.

use jitgc_sim::json::JsonValue;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `ssdsim` with `args` and returns its stdout, or fails if the
/// process has not exited within 60 s.
fn ssdsim_within_a_minute(args: &[&str], out_name: &str) -> String {
    let dir = std::env::temp_dir().join(format!("ssdsim-livelock-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let out_path = dir.join(out_name);
    let stdout = std::fs::File::create(&out_path).expect("create stdout file");
    let mut child = Command::new(env!("CARGO_BIN_EXE_ssdsim"))
        .args(args)
        .stdout(stdout)
        .stderr(Stdio::null())
        .spawn()
        .expect("ssdsim starts");
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait on ssdsim") {
            break status;
        }
        if Instant::now() >= deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("ssdsim {args:?} had not finished after 60 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "ssdsim {args:?} exited with {status}");
    let text = std::fs::read_to_string(&out_path).expect("read stdout file");
    std::fs::remove_dir_all(&dir).ok();
    text
}

#[test]
fn a_striped_array_whose_programs_all_fail_finishes_read_only() {
    let runs: [(&str, &[&str]); 2] = [
        (
            "tiobench.json",
            &[
                "--benchmark",
                "tiobench",
                "--iops",
                "4000",
                "--seconds",
                "2",
                "--array",
                "2",
            ],
        ),
        (
            "ycsb.json",
            &[
                "--benchmark",
                "ycsb",
                "--iops",
                "4000",
                "--seconds",
                "1",
                "--array",
                "4",
            ],
        ),
    ];
    for (name, cell) in runs {
        let mut args = cell.to_vec();
        args.extend(["--fault-program", "1e4", "--json"]);
        let text = ssdsim_within_a_minute(&args, name);
        let report = JsonValue::parse(&text).expect("report is valid JSON");
        let degraded = report
            .get("degraded")
            .and_then(|d| d.get("degraded_members"))
            .and_then(JsonValue::as_u64);
        assert!(
            degraded.is_some_and(|members| members > 0),
            "{args:?}: no member went read-only"
        );
    }
}
