//! Every `ssdsim --policy` spelling runs the policy it names. Each of the
//! seven, a `reserved:<permille>` sweep point and `all` run a few
//! simulated seconds with `--json`, and the report's `policy` field says
//! which policy ran. The SIP-less JIT-GC reports itself as JIT-GC, so for
//! it `sip_filtered_fraction` must be null on a run where JIT-GC's is
//! not. An unknown spelling exits 2 naming it.

use jitgc_sim::json::JsonValue;
use std::process::Command;

/// A few simulated seconds, busy enough that JIT-GC filters victims by SIP.
const RUN: [&str; 7] = [
    "--benchmark",
    "ycsb",
    "--seconds",
    "5",
    "--iops",
    "2000",
    "--json",
];

fn ssdsim(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ssdsim"))
        .args(args)
        .output()
        .expect("ssdsim runs")
}

fn run(policy: &str) -> JsonValue {
    let out = ssdsim(&[&RUN[..], &["--policy", policy]].concat());
    assert!(
        out.status.success(),
        "--policy {policy}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    JsonValue::parse(&String::from_utf8(out.stdout).expect("UTF-8 output")).expect("a JSON report")
}

/// A report's policy name, and whether it reports a SIP-filtered share.
fn ran(report: &JsonValue) -> (&str, bool) {
    let policy = report.get("policy").and_then(JsonValue::as_str);
    let sip = report.get("sip_filtered_fraction").map(JsonValue::is_null);
    (policy.expect("a policy field"), !sip.expect("a SIP field"))
}

#[test]
fn every_policy_spelling_runs_the_policy_it_names() {
    let spellings = [
        ("no-bgc", ("No-BGC", false)),
        ("l-bgc", ("L-BGC", false)),
        ("a-bgc", ("A-BGC", false)),
        ("adp-gc", ("ADP-GC", false)),
        ("idle-gc", ("IDLE-GC", false)),
        ("jit-gc", ("JIT-GC", true)),
        ("jit-nosip", ("JIT-GC", false)),
        ("reserved:750", ("C-BGC", false)),
    ];
    for (spelling, policy) in spellings {
        assert_eq!(ran(&run(spelling)), policy, "--policy {spelling}");
    }
    // `all` is the seven in their listing order.
    let all = run("all");
    let all: Vec<_> = all
        .as_array()
        .expect("one report per policy")
        .iter()
        .map(ran)
        .collect();
    let seven: Vec<_> = spellings[..7].iter().map(|&(_, policy)| policy).collect();
    assert_eq!(all, seven, "--policy all");
}

#[test]
fn an_unknown_policy_spelling_exits_2_naming_it() {
    let out = ssdsim(&["--policy", "jit"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.starts_with("unknown policy: jit\nusage: ssdsim"),
        "stderr: {stderr}"
    );
    assert!(out.stdout.is_empty());
}
