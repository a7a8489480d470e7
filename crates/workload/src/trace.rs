//! Trace record/replay.
//!
//! Recording a generator's stream to a serializable trace lets experiments
//! (a) pin a workload across code changes and (b) substitute *real* block
//! traces for the synthetic personalities without touching the engine.

use crate::{IoKind, IoRequest, Workload, WriteMix};
use jitgc_nand::Lpn;
use jitgc_sim::SimDuration;
use std::error::Error;
use std::fmt;

/// Drains up to `max_requests` from `workload` into a trace.
pub fn record_trace(workload: &mut dyn Workload, max_requests: u64) -> Vec<IoRequest> {
    let mut out = Vec::new();
    while (out.len() as u64) < max_requests {
        let Some(req) = workload.next_request() else {
            break;
        };
        out.push(req);
    }
    out
}

/// An error while parsing an external trace format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    line: usize,
    reason: String,
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.reason)
    }
}

impl Error for ParseTraceError {}

/// Parses an MSR-Cambridge-style block trace into [`IoRequest`]s.
///
/// The MSR Cambridge traces (SNIA IOTTA repository) are the de-facto
/// standard block traces in storage research. Each CSV line is
///
/// ```text
/// Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
/// ```
///
/// with `Timestamp` in Windows 100 ns ticks, `Offset`/`Size` in bytes and
/// `Type` either `Read` or `Write`. This converter maps byte extents onto
/// `page_size` pages, turns timestamp deltas into think-time gaps, and
/// classifies every write as **direct** (a raw block trace is below the
/// page cache, so all of its writes already bypassed it).
///
/// Lines are expected pre-filtered to one disk; the `Hostname` and
/// `DiskNumber` columns are ignored.
///
/// # Errors
///
/// Returns [`ParseTraceError`] naming the first malformed line.
///
/// # Example
///
/// ```
/// use jitgc_workload::{parse_msr_trace, TraceWorkload, Workload};
///
/// let csv = "128166372003061629,src1,0,Write,4096,8192,1331\n\
///            128166372013061629,src1,0,Read,0,4096,554";
/// let records = parse_msr_trace(csv, 4096)?;
/// assert_eq!(records.len(), 2);
/// let mut replay = TraceWorkload::new("msr", records);
/// let first = replay.next_request().expect("two records");
/// assert_eq!(first.pages, 2); // 8192 bytes = 2 pages
/// # Ok::<(), jitgc_workload::ParseTraceError>(())
/// ```
pub fn parse_msr_trace(csv: &str, page_size: u64) -> Result<Vec<IoRequest>, ParseTraceError> {
    assert!(page_size > 0, "page size must be non-zero");
    let mut out = Vec::new();
    let mut prev_ticks: Option<u64> = None;
    for (idx, line) in csv.lines().enumerate() {
        let line_no = idx + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() < 6 {
            return Err(ParseTraceError {
                line: line_no,
                reason: format!("expected ≥ 6 comma-separated fields, got {}", fields.len()),
            });
        }
        let parse_u64 = |s: &str, what: &str| -> Result<u64, ParseTraceError> {
            s.trim().parse().map_err(|_| ParseTraceError {
                line: line_no,
                reason: format!("invalid {what}: {s:?}"),
            })
        };
        let ticks = parse_u64(fields[0], "timestamp")?;
        let kind = match fields[3].trim().to_ascii_lowercase().as_str() {
            "read" => IoKind::Read,
            "write" => IoKind::DirectWrite,
            other => {
                return Err(ParseTraceError {
                    line: line_no,
                    reason: format!("unknown request type {other:?}"),
                })
            }
        };
        let offset = parse_u64(fields[4], "offset")?;
        let size = parse_u64(fields[5], "size")?.max(1);
        let lpn = offset / page_size;
        let end = offset
            .checked_add(size)
            .ok_or_else(|| ParseTraceError {
                line: line_no,
                reason: format!("extent of {size} bytes at offset {offset} passes 2^64 bytes"),
            })?
            .div_ceil(page_size);
        let pages = u32::try_from((end - lpn).max(1)).map_err(|_| ParseTraceError {
            line: line_no,
            reason: format!("request of {size} bytes is too large"),
        })?;
        // Windows ticks are 100 ns; gaps are deltas, first request at 0.
        let gap_us = match prev_ticks {
            Some(prev) => ticks.saturating_sub(prev) / 10,
            None => 0,
        };
        prev_ticks = Some(ticks);
        out.push(IoRequest {
            gap: SimDuration::from_micros(gap_us),
            kind,
            lpn: Lpn(lpn),
            pages,
        });
    }
    Ok(out)
}

/// A workload replaying a recorded trace.
///
/// # Example
///
/// ```
/// use jitgc_workload::{record_trace, BenchmarkKind, TraceWorkload, Workload, WorkloadConfig};
///
/// let cfg = WorkloadConfig::builder().build();
/// let mut original = BenchmarkKind::Postmark.build(cfg);
/// let trace = record_trace(original.as_mut(), 1_000);
///
/// let mut replay = TraceWorkload::new("postmark-replay", trace.clone());
/// let first = replay.next_request().expect("trace is non-empty");
/// assert_eq!(TraceWorkload::new("x", trace).working_set_pages(),
///            replay.working_set_pages());
/// assert!(first.pages >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct TraceWorkload {
    name: &'static str,
    records: Vec<IoRequest>,
    cursor: usize,
    working_set_pages: u64,
    mix: WriteMix,
}

impl TraceWorkload {
    /// Wraps a trace for replay. The working set and write mix are derived
    /// from the trace contents.
    #[must_use]
    pub fn new(name: &'static str, records: Vec<IoRequest>) -> Self {
        let working_set_pages = records
            .iter()
            .map(|r| r.lpn.0 + u64::from(r.pages))
            .max()
            .unwrap_or(1);
        let buffered: u64 = records
            .iter()
            .filter(|r| r.kind == IoKind::BufferedWrite)
            .map(|r| u64::from(r.pages))
            .sum();
        let direct: u64 = records
            .iter()
            .filter(|r| r.kind == IoKind::DirectWrite)
            .map(|r| u64::from(r.pages))
            .sum();
        let mix = if buffered + direct > 0 {
            WriteMix::new(buffered as f64 / (buffered + direct) as f64)
        } else {
            WriteMix::new(1.0)
        };
        TraceWorkload {
            name,
            records,
            cursor: 0,
            working_set_pages,
            mix,
        }
    }

    /// Overrides the derived working-set size. The trace only shows which
    /// pages were *touched*; when replaying against a device configured
    /// for a larger logical space (e.g. to match the original run's aging
    /// pre-fill exactly), set the original size here.
    ///
    /// # Panics
    ///
    /// Panics if `pages` is smaller than the highest page the trace
    /// touches.
    #[must_use]
    pub fn with_working_set(mut self, pages: u64) -> Self {
        assert!(
            pages >= self.working_set_pages,
            "working set {pages} smaller than trace extent {}",
            self.working_set_pages
        );
        self.working_set_pages = pages;
        self
    }
}

impl Workload for TraceWorkload {
    fn name(&self) -> &'static str {
        self.name
    }

    fn next_request(&mut self) -> Option<IoRequest> {
        let req = self.records.get(self.cursor).copied()?;
        self.cursor += 1;
        Some(req)
    }

    fn write_mix(&self) -> WriteMix {
        self.mix
    }

    fn working_set_pages(&self) -> u64 {
        self.working_set_pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BenchmarkKind, WorkloadConfig};
    use jitgc_sim::json::JsonValue;

    fn req(gap_us: u64, kind: IoKind, lpn: u64, pages: u32) -> IoRequest {
        IoRequest {
            gap: SimDuration::from_micros(gap_us),
            kind,
            lpn: Lpn(lpn),
            pages,
        }
    }

    #[test]
    fn record_and_replay_round_trips() {
        let cfg = WorkloadConfig::builder().seed(21).build();
        let mut original = BenchmarkKind::Ycsb.build(cfg);
        let trace = record_trace(original.as_mut(), 500);
        assert_eq!(trace.len(), 500);

        let mut fresh = BenchmarkKind::Ycsb.build(cfg);
        let mut replay = TraceWorkload::new("replay", trace);
        for _ in 0..500 {
            assert_eq!(fresh.next_request(), replay.next_request());
        }
        assert_eq!(replay.next_request(), None);
    }

    #[test]
    fn derives_working_set_and_mix() {
        let trace = vec![
            req(1, IoKind::BufferedWrite, 10, 4),
            req(1, IoKind::DirectWrite, 90, 2),
        ];
        let w = TraceWorkload::new("t", trace);
        assert_eq!(w.working_set_pages(), 92);
        let frac = w.write_mix().buffered_fraction;
        assert!((frac - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(w.records.len(), 2);
    }

    #[test]
    fn json_round_trip() {
        let rec = req(123, IoKind::DirectWrite, 7, 8);
        let line = rec.to_json().to_compact();
        assert_eq!(
            line,
            r#"{"gap_us":123,"kind":"DirectWrite","lpn":7,"pages":8}"#
        );
        let back = IoRequest::from_json(&JsonValue::parse(&line).unwrap()).unwrap();
        assert_eq!(back, rec);
        assert!(IoRequest::from_json(&JsonValue::parse("{}").unwrap()).is_err());
    }

    #[test]
    fn with_working_set_overrides() {
        let trace = vec![req(1, IoKind::Read, 10, 2)];
        let w = TraceWorkload::new("t", trace).with_working_set(100);
        assert_eq!(w.working_set_pages(), 100);
    }

    #[test]
    #[should_panic(expected = "smaller than trace extent")]
    fn with_working_set_rejects_shrink() {
        let trace = vec![req(1, IoKind::Read, 10, 2)];
        let _ = TraceWorkload::new("t", trace).with_working_set(5);
    }

    #[test]
    fn msr_parse_happy_path() {
        let csv = "\
128166372003061629,src1,0,Write,4096,8192,1331
128166372013061629,src1,0,Read,0,512,554

# comment line
128166372023061629,src1,0,write,12288,4096,100";
        let records = parse_msr_trace(csv, 4096).expect("valid trace");
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].kind, IoKind::DirectWrite);
        assert_eq!(records[0].lpn, Lpn(1));
        assert_eq!(records[0].pages, 2);
        assert_eq!(
            records[0].gap,
            SimDuration::ZERO,
            "first request has no gap"
        );
        assert_eq!(records[1].kind, IoKind::Read);
        assert_eq!(records[1].pages, 1, "sub-page read rounds to one page");
        assert_eq!(
            records[1].gap,
            SimDuration::from_secs(1),
            "10^7 ticks = 1 s"
        );
        assert_eq!(records[2].kind, IoKind::DirectWrite, "case-insensitive");
    }

    #[test]
    fn msr_parse_unaligned_extents_cover_all_pages() {
        // 100 bytes at offset 4000 straddles pages 0 and 1.
        let csv = "1000,h,0,Read,4000,200,1";
        let records = parse_msr_trace(csv, 4096).expect("valid trace");
        assert_eq!(records[0].lpn, Lpn(0));
        assert_eq!(records[0].pages, 2);
    }

    #[test]
    fn msr_parse_rejects_malformed_lines() {
        let good = "1,h,0,Write,0,4096,1\n";
        // (line, what the message names); each is tried first and after a
        // good line, so the line number moves with it.
        let rows = [
            ("not,enough,fields", "got 3"),
            ("x,h,0,Write,0,4096,1", "invalid timestamp"),
            ("1,h,0,Flush,0,4096,1", "unknown request type"),
            ("1,h,0,Write,bad,4096,1", "invalid offset"),
            // The extent's end passes 2^64 bytes.
            ("1,h,0,Write,18446744073709551615,4096,1", "passes 2^64"),
            ("1,h,0,Read,18446744073709547520,4097,1", "passes 2^64"),
            // Cut off in the middle of the type and of the offset.
            ("1,h,0,Wri", "got 4"),
            ("1,h,0,Write,40", "got 5"),
        ];
        for (line, reason) in rows {
            for (csv, line_no) in [(line.to_owned(), 1), (format!("{good}{line}"), 2)] {
                let err = parse_msr_trace(&csv, 4096).expect_err(line);
                let message = err.to_string();
                assert!(
                    message.contains(&format!("line {line_no}")) && message.contains(reason),
                    "{line:?}: {message}"
                );
            }
        }
    }

    #[test]
    fn msr_trace_replays_through_workload() {
        let csv = "\
1000,h,0,Write,0,4096,1
11000,h,0,Write,4096,4096,1
21000,h,0,Read,0,4096,1";
        let records = parse_msr_trace(csv, 4096).expect("valid trace");
        let mut w = TraceWorkload::new("msr", records);
        assert_eq!(w.working_set_pages(), 2);
        let mix = w.write_mix();
        assert_eq!(mix.buffered_fraction, 0.0, "block traces are all direct");
        assert_eq!(w.next_request().expect("three records").pages, 1);
    }

    #[test]
    fn empty_trace_defaults() {
        let w = TraceWorkload::new("empty", Vec::new());
        assert!(w.records.is_empty());
        assert_eq!(w.working_set_pages(), 1);
    }
}
