//! `ssdsimd`'s flags write into one service configuration, so their
//! order on the command line does not matter.

use std::process::Command;

fn report(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ssdsimd"))
        .args(args)
        .output()
        .expect("ssdsimd runs");
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
