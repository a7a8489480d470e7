//! Property tests of trace serialization and per-device demuxing.
//!
//! Two invariants carry the array layer's trace tooling:
//!
//! * **Serialization round-trip** — every [`TraceRecord`], across all
//!   four [`IoKind`]s (including `Trim`), survives `to_json` →
//!   `JsonValue::parse` → `from_json` unchanged.
//! * **Demux/merge identity** — splitting a trace per device under a
//!   striping bijection and re-interleaving it reproduces the original
//!   record stream exactly.

use jitgc_sim::check::{check, Gen};
use jitgc_sim::json::JsonValue;
use jitgc_workload::{demux_trace, merge_traces, IoKind, TraceRecord};

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
        let rec = TraceRecord {
            gap_us: g.any_u64(),
            kind: any_kind(g),
            lpn: g.u64(0, 1_000_000),
            pages: g.u64(1, 4_096) as u32,
        };
        let line = rec.to_json().to_compact();
        let parsed = JsonValue::parse(&line).expect("own output parses");
        let back = TraceRecord::from_json(&parsed).expect("own output validates");
        assert_eq!(back, rec);
    });
}

/// Demux under RAID-0 striping then merge reproduces the trace. Gaps
/// are strictly positive, so every record has a distinct arrival time
/// and the identity is exact.
#[test]
fn demux_merge_is_identity() {
    check(0x7ACE_0002, 256, |g| {
        let (chunk, devices) = (g.u64(1, 32), g.u64(1, 8));
        let trace = g.vec(0, 60, |g| TraceRecord {
            gap_us: g.u64(1, 10_000),
            kind: any_kind(g),
            lpn: g.u64(0, 5_000),
            pages: g.u64(1, 200) as u32,
        });
        let route = |lpn: u64| {
            let stripe = lpn / chunk;
            (
                (stripe % devices) as usize,
                (stripe / devices) * chunk + lpn % chunk,
            )
        };
        let unroute = |d: usize, m: u64| ((m / chunk) * devices + d as u64) * chunk + m % chunk;
        let split = demux_trace(&trace, devices as usize, route);
        assert_eq!(split.len(), devices as usize);
        // Page count is conserved across the split.
        let split_pages: u64 = split.iter().flatten().map(|r| u64::from(r.pages)).sum();
        let pages: u64 = trace.iter().map(|r| u64::from(r.pages)).sum();
        assert_eq!(split_pages, pages);
        // Per-device absolute arrival times never exceed the original span.
        let span: u64 = trace.iter().map(|r| r.gap_us).sum();
        for device in &split {
            let device_span: u64 = device.iter().map(|r| r.gap_us).sum();
            assert!(device_span <= span);
        }
        assert_eq!(merge_traces(&split, unroute), trace);
    });
}
