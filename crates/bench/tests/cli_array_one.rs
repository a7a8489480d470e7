//! `ssdsim --array 1` is the single-device run: the one member's report
//! equals the report of the same command without `--array`, key for key,
//! and the volume's `ops` and `iops` are the device's. Both commands size
//! their workload through the one sizing function, which must leave one
//! stripe column exactly the single-device load, and both run it on
//! `ClosedLoop::run`, at the default load and at one whose requests run
//! past the loop's inline prefix onto its generator thread.

use jitgc_sim::json::JsonValue;
use std::process::Command;

/// Runs `ssdsim --benchmark ycsb --seconds 30 --json <extra>` and parses
/// the report.
fn report(extra: &[&str]) -> JsonValue {
    let out = Command::new(env!("CARGO_BIN_EXE_ssdsim"))
        .args(["--benchmark", "ycsb", "--seconds", "30", "--json"])
        .args(extra)
        .output()
        .expect("ssdsim runs");
    assert!(
        out.status.success(),
        "ssdsim {extra:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    JsonValue::parse(&String::from_utf8_lossy(&out.stdout)).expect("the report parses")
}

#[test]
fn a_one_member_array_reports_the_single_device_run() {
    // (extra flags, requests the device run must exceed): 30 s at the
    // default rate, then ~120 000 requests, past the 2^16 the loop pulls
    // inline.
    for (load, more_than) in [(&[][..], 0), (&["--iops", "4000"], 1 << 16)] {
        let device = report(load);
        let volume = report(&[load, &["--array", "1"]].concat());
        let members = volume
            .get("member_reports")
            .and_then(JsonValue::as_array)
            .expect("an array report lists its members");
        assert_eq!(members.len(), 1);
        let (JsonValue::Object(device_fields), JsonValue::Object(member_fields)) =
            (&device, &members[0])
        else {
            panic!("both reports are objects")
        };
        assert_eq!(member_fields.len(), device_fields.len());
        for ((key, value), (member_key, member_value)) in device_fields.iter().zip(member_fields) {
            assert_eq!(member_key, key);
            assert_eq!(member_value, value, "{load:?}: member 0 differs at `{key}`");
        }
        for key in ["ops", "iops"] {
            assert_eq!(volume.get(key), device.get(key), "{load:?}: volume `{key}`");
        }
        let ops = device.get("ops").and_then(JsonValue::as_u64);
        assert!(ops > Some(more_than), "{load:?}: {ops:?} requests");
    }
}
