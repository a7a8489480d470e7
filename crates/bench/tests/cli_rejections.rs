//! Hostile `ssdsim` input is an error message and exit 2, never a panic:
//! zero / negative / NaN rates die at parse time naming their flag, and
//! the selector flags this CLI no longer has are plain unknown flags.

use std::process::Command;

#[test]
fn bad_flags_exit_2_with_a_message_naming_them() {
    // (arguments, what stderr must mention)
    let cases: [(&[&str], &str); 7] = [
        (&["--seconds", "0"], "--seconds"),
        (&["--iops", "0"], "--iops"),
        (&["--iops", "-5"], "--iops"),
        (&["--iops", "nan"], "--iops"),
        (&["--burst", "0"], "--burst"),
        (
            &["--gc-migration", "looped"],
            "unknown flag: --gc-migration",
        ),
        (
            &["--array", "4", "--array-sched", "barrier"],
            "unknown flag: --array-sched",
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
