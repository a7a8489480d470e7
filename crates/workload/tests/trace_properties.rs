//! Property tests of trace serialization: every [`IoRequest`], across
//! all four [`IoKind`]s (including `Trim`), survives `to_json` →
//! `JsonValue::parse` → `from_json` unchanged.

use jitgc_nand::Lpn;
use jitgc_sim::check::{check, Gen};
use jitgc_sim::json::JsonValue;
use jitgc_sim::SimDuration;
use jitgc_workload::{IoKind, IoRequest};

fn any_kind(g: &mut Gen) -> IoKind {
    g.pick(&[
        IoKind::Read,
        IoKind::BufferedWrite,
        IoKind::DirectWrite,
        IoKind::Trim,
    ])
}

/// All four request kinds round-trip through the repository JSON
/// format, including `Trim`.
#[test]
fn trace_record_json_round_trips() {
    check(0x7ACE_0001, 256, |g| {
        let rec = IoRequest {
            gap: SimDuration::from_micros(g.any_u64()),
            kind: any_kind(g),
            lpn: Lpn(g.u64(0, 1_000_000)),
            pages: g.u64(1, 4_096) as u32,
        };
        let line = rec.to_json().to_compact();
        let parsed = JsonValue::parse(&line).expect("own output parses");
        let back = IoRequest::from_json(&parsed).expect("own output validates");
        assert_eq!(back, rec);
    });
}
