//! Every `ssdsimd --policy` spelling runs the policy it names. Each of the
//! seven runs a few simulated seconds on the small device with `--json`,
//! and the device report's `policy` field says which policy ran. The
//! SIP-less JIT-GC reports itself as JIT-GC, so for it
//! `sip_filtered_fraction` must be null on a run where JIT-GC's is not.
//! An unknown spelling exits 2 naming it, and so does a roster that
//! repeats a tenant name or whose weights overflow their total.

use jitgc_sim::json::JsonValue;
use std::process::Command;

fn ssdsimd(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ssdsimd"))
        .args(args)
        .output()
        .expect("ssdsimd runs")
}

#[test]
fn every_policy_spelling_runs_the_policy_it_names() {
    let spellings = [
        ("none", ("No-BGC", false)),
        ("lbgc", ("L-BGC", false)),
        ("abgc", ("A-BGC", false)),
        ("adp", ("ADP-GC", false)),
        ("idle", ("IDLE-GC", false)),
        ("jit", ("JIT-GC", true)),
        ("jit-nosip", ("JIT-GC", false)),
    ];
    for (spelling, policy) in spellings {
        let out = ssdsimd(&["--small", "--seconds", "3", "--json", "--policy", spelling]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "--policy {spelling}: {stderr}");
        let text = String::from_utf8(out.stdout).expect("UTF-8 output");
        let report = JsonValue::parse(&text).expect("a JSON report");
        let device = report.get("device").expect("a device report");
        let name = device.get("policy").and_then(JsonValue::as_str);
        let sip = device.get("sip_filtered_fraction").map(JsonValue::is_null);
        assert_eq!(
            (name.expect("a policy field"), !sip.expect("a SIP field")),
            policy,
            "--policy {spelling}"
        );
    }
}

#[test]
fn an_unknown_policy_spelling_exits_2_naming_it() {
    let out = ssdsimd(&["--policy", "jit-gc"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert_eq!(stderr, "unknown policy: jit-gc\n");
    assert!(out.stdout.is_empty());
}

#[test]
fn a_duplicate_tenant_name_or_an_overflowing_weight_total_exits_2_naming_it() {
    let max = u64::MAX;
    let rosters = [
        (
            "a:reader:1:100:1,a:writer:1:100:1".to_owned(),
            "tenants 0 and 1 are both named \"a\"",
        ),
        (
            format!("a:reader:{max}:100:1,b:writer:{max}:100:1"),
            "the tenant weights sum past",
        ),
    ];
    for (roster, message) in rosters {
        let args = ["--tenants", &roster, "--small", "--seconds", "1", "--json"];
        let out = ssdsimd(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--tenants {roster}: {stderr}");
        assert!(stderr.contains(message), "--tenants {roster}: {stderr}");
        assert!(out.stdout.is_empty());
    }
}
