//! Trace record/replay.
//!
//! Recording a generator's stream to a serializable trace lets experiments
//! (a) pin a workload across code changes and (b) substitute *real* block
//! traces for the synthetic personalities without touching the engine.

use crate::{IoKind, IoRequest, Workload, WriteMix};
use jitgc_nand::Lpn;
use jitgc_sim::json::{JsonError, JsonValue, ObjectBuilder};
use jitgc_sim::SimDuration;
use std::error::Error;
use std::fmt;

/// One serialized request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Think-time gap since the previous request, microseconds.
    pub gap_us: u64,
    /// Operation type.
    pub kind: IoKind,
    /// First logical page.
    pub lpn: u64,
    /// Page count.
    pub pages: u32,
}

impl TraceRecord {
    /// Serializes one record as a compact JSON object — one trace-file line.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let kind = match self.kind {
            IoKind::Read => "Read",
            IoKind::BufferedWrite => "BufferedWrite",
            IoKind::DirectWrite => "DirectWrite",
            IoKind::Trim => "Trim",
        };
        ObjectBuilder::new()
            .field("gap_us", self.gap_us)
            .field("kind", kind)
            .field("lpn", self.lpn)
            .field("pages", self.pages)
            .build()
    }

    /// Parses the format written by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on missing fields or unknown kinds.
    pub fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        let kind = match v.req("kind")?.as_str() {
            Some("Read") => IoKind::Read,
            Some("BufferedWrite") => IoKind::BufferedWrite,
            Some("DirectWrite") => IoKind::DirectWrite,
            Some("Trim") => IoKind::Trim,
            _ => return Err(JsonError::new("`kind` must be a known IoKind name")),
        };
        Ok(TraceRecord {
            gap_us: v
                .req("gap_us")?
                .as_u64()
                .ok_or_else(|| JsonError::new("`gap_us` must be an integer"))?,
            kind,
            lpn: v
                .req("lpn")?
                .as_u64()
                .ok_or_else(|| JsonError::new("`lpn` must be an integer"))?,
            pages: v
                .req("pages")?
                .as_u64()
                .and_then(|p| u32::try_from(p).ok())
                .ok_or_else(|| JsonError::new("`pages` must be an integer"))?,
        })
    }
}

impl From<IoRequest> for TraceRecord {
    fn from(r: IoRequest) -> Self {
        TraceRecord {
            gap_us: r.gap.as_micros(),
            kind: r.kind,
            lpn: r.lpn.0,
            pages: r.pages,
        }
    }
}

impl From<TraceRecord> for IoRequest {
    fn from(r: TraceRecord) -> Self {
        IoRequest {
            gap: SimDuration::from_micros(r.gap_us),
            kind: r.kind,
            lpn: Lpn(r.lpn),
            pages: r.pages,
        }
    }
}

/// Drains up to `max_requests` from `workload` into a trace.
pub fn record_trace(workload: &mut dyn Workload, max_requests: u64) -> Vec<TraceRecord> {
    let mut out = Vec::new();
    while (out.len() as u64) < max_requests {
        let Some(req) = workload.next_request() else {
            break;
        };
        out.push(TraceRecord::from(req));
    }
    out
}

/// Splits one trace into per-device traces under an LPN routing function.
///
/// `route` maps a global logical page to `(device, member_lpn)` — for a
/// striped array, the arithmetic of its stripe map. Each record's extent
/// is broken into maximal runs of pages that land on the same device at
/// consecutive member LPNs; every run becomes one record in that device's
/// trace. Think-time gaps are rebased per device so that each sub-trace
/// preserves the *absolute* arrival times of the original (gaps are
/// deltas between consecutive arrivals **on that device**). Runs split
/// from one record arrive at the same absolute time, so all but the first
/// on a device carry a zero gap.
///
/// [`merge_traces`] is the inverse.
///
/// # Panics
///
/// Panics if `devices` is zero or `route` returns a device index out of
/// range.
pub fn demux_trace<F>(
    records: &[TraceRecord],
    devices: usize,
    mut route: F,
) -> Vec<Vec<TraceRecord>>
where
    F: FnMut(u64) -> (usize, u64),
{
    assert!(devices > 0, "cannot demux onto zero devices");
    let mut out: Vec<Vec<TraceRecord>> = vec![Vec::new(); devices];
    let mut last_arrival = vec![0u64; devices];
    let mut now = 0u64;
    for rec in records {
        now += rec.gap_us;
        // (device, member start, run length) of the run being grown.
        let mut run: Option<(usize, u64, u32)> = None;
        let mut emit = |d: usize, start: u64, pages: u32| {
            assert!(d < devices, "route sent page to device {d} of {devices}");
            out[d].push(TraceRecord {
                gap_us: now - last_arrival[d],
                kind: rec.kind,
                lpn: start,
                pages,
            });
            last_arrival[d] = now;
        };
        for page in rec.lpn..rec.lpn + u64::from(rec.pages) {
            let (d, m) = route(page);
            run = Some(match run {
                Some((rd, rm, rl)) if rd == d && m == rm + u64::from(rl) => (rd, rm, rl + 1),
                Some((rd, rm, rl)) => {
                    emit(rd, rm, rl);
                    (d, m, 1)
                }
                None => (d, m, 1),
            });
        }
        if let Some((d, m, l)) = run {
            emit(d, m, l);
        }
    }
    out
}

/// Fixed ordering of [`IoKind`]s for deterministic merge output.
fn kind_rank(kind: IoKind) -> usize {
    match kind {
        IoKind::Read => 0,
        IoKind::BufferedWrite => 1,
        IoKind::DirectWrite => 2,
        IoKind::Trim => 3,
    }
}

/// Re-interleaves per-device traces into one global trace — the inverse
/// of [`demux_trace`].
///
/// `unroute` maps `(device, member_lpn)` back to the global logical page.
/// Sub-records are ordered by their absolute arrival time; records that
/// arrived together (runs split off one original record) have their pages
/// translated back to global LPNs and re-fused into maximal contiguous
/// extents, one output record per extent.
///
/// `merge_traces(demux_trace(t, n, route), unroute)` reproduces `t`
/// exactly whenever `route`/`unroute` are inverse bijections and no two
/// records of `t` share an arrival time (distinct cumulative gaps); with
/// shared arrival times the page sets still match but same-time records
/// of the same kind coalesce.
pub fn merge_traces<F>(traces: &[Vec<TraceRecord>], mut unroute: F) -> Vec<TraceRecord>
where
    F: FnMut(usize, u64) -> u64,
{
    // Flatten to (arrival time, device, index-on-device) so a stable sort
    // yields chronological order with a deterministic tie-break.
    let mut events: Vec<(u64, usize, usize)> = Vec::new();
    for (d, trace) in traces.iter().enumerate() {
        let mut now = 0u64;
        for (i, rec) in trace.iter().enumerate() {
            now += rec.gap_us;
            events.push((now, d, i));
        }
    }
    events.sort_unstable();

    let mut out: Vec<TraceRecord> = Vec::new();
    let mut prev_time = 0u64;
    let mut group = 0;
    while group < events.len() {
        let time = events[group].0;
        let mut group_end = group;
        while group_end < events.len() && events[group_end].0 == time {
            group_end += 1;
        }
        // Translate every page that arrived at `time` back to global LPNs,
        // bucketed by kind, then fuse each bucket into contiguous extents.
        let mut pages_by_kind: [Vec<u64>; 4] = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        let mut kinds: [Option<IoKind>; 4] = [None; 4];
        for &(_, d, i) in &events[group..group_end] {
            let rec = &traces[d][i];
            kinds[kind_rank(rec.kind)] = Some(rec.kind);
            let bucket = &mut pages_by_kind[kind_rank(rec.kind)];
            for m in rec.lpn..rec.lpn + u64::from(rec.pages) {
                bucket.push(unroute(d, m));
            }
        }
        let mut gap = time - prev_time;
        for (bucket, kind) in pages_by_kind.iter_mut().zip(kinds) {
            let Some(kind) = kind else { continue };
            bucket.sort_unstable();
            let mut start = 0;
            while start < bucket.len() {
                let mut end = start + 1;
                while end < bucket.len() && bucket[end] == bucket[end - 1] + 1 {
                    end += 1;
                }
                out.push(TraceRecord {
                    gap_us: gap,
                    kind,
                    lpn: bucket[start],
                    pages: u32::try_from(end - start).expect("extent fits u32"),
                });
                gap = 0; // later extents of the same arrival carry no gap
                start = end;
            }
        }
        prev_time = time;
        group = group_end;
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

/// Parses an MSR-Cambridge-style block trace into [`TraceRecord`]s.
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
pub fn parse_msr_trace(csv: &str, page_size: u64) -> Result<Vec<TraceRecord>, ParseTraceError> {
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
        let end = (offset + size).div_ceil(page_size);
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
        out.push(TraceRecord {
            gap_us,
            kind,
            lpn,
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
    records: Vec<TraceRecord>,
    cursor: usize,
    working_set_pages: u64,
    mix: WriteMix,
}

impl TraceWorkload {
    /// Wraps a trace for replay. The working set and write mix are derived
    /// from the trace contents.
    #[must_use]
    pub fn new(name: &'static str, records: Vec<TraceRecord>) -> Self {
        let working_set_pages = records
            .iter()
            .map(|r| r.lpn + u64::from(r.pages))
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

    /// Number of records in the trace.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` for an empty trace.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Rewinds the replay cursor to the beginning.
    pub fn rewind(&mut self) {
        self.cursor = 0;
    }
}

impl Workload for TraceWorkload {
    fn name(&self) -> &'static str {
        self.name
    }

    fn next_request(&mut self) -> Option<IoRequest> {
        let rec = self.records.get(self.cursor)?;
        self.cursor += 1;
        Some(IoRequest::from(*rec))
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
    fn rewind_restarts() {
        let trace = vec![TraceRecord {
            gap_us: 5,
            kind: IoKind::Read,
            lpn: 3,
            pages: 2,
        }];
        let mut w = TraceWorkload::new("t", trace);
        let first = w.next_request().expect("one record");
        assert_eq!(w.next_request(), None);
        w.rewind();
        assert_eq!(w.next_request(), Some(first));
    }

    #[test]
    fn derives_working_set_and_mix() {
        let trace = vec![
            TraceRecord {
                gap_us: 1,
                kind: IoKind::BufferedWrite,
                lpn: 10,
                pages: 4,
            },
            TraceRecord {
                gap_us: 1,
                kind: IoKind::DirectWrite,
                lpn: 90,
                pages: 2,
            },
        ];
        let w = TraceWorkload::new("t", trace);
        assert_eq!(w.working_set_pages(), 92);
        let frac = w.write_mix().buffered_fraction;
        assert!((frac - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(w.len(), 2);
        assert!(!w.is_empty());
    }

    #[test]
    fn json_round_trip() {
        let rec = TraceRecord {
            gap_us: 123,
            kind: IoKind::DirectWrite,
            lpn: 7,
            pages: 8,
        };
        let line = rec.to_json().to_compact();
        let back = TraceRecord::from_json(&JsonValue::parse(&line).unwrap()).unwrap();
        assert_eq!(back, rec);
        assert!(TraceRecord::from_json(&JsonValue::parse("{}").unwrap()).is_err());
    }

    #[test]
    fn with_working_set_overrides() {
        let trace = vec![TraceRecord {
            gap_us: 1,
            kind: IoKind::Read,
            lpn: 10,
            pages: 2,
        }];
        let w = TraceWorkload::new("t", trace).with_working_set(100);
        assert_eq!(w.working_set_pages(), 100);
    }

    #[test]
    #[should_panic(expected = "smaller than trace extent")]
    fn with_working_set_rejects_shrink() {
        let trace = vec![TraceRecord {
            gap_us: 1,
            kind: IoKind::Read,
            lpn: 10,
            pages: 2,
        }];
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
        assert_eq!(records[0].lpn, 1);
        assert_eq!(records[0].pages, 2);
        assert_eq!(records[0].gap_us, 0, "first request has no gap");
        assert_eq!(records[1].kind, IoKind::Read);
        assert_eq!(records[1].pages, 1, "sub-page read rounds to one page");
        assert_eq!(records[1].gap_us, 1_000_000, "10^7 ticks = 1 s");
        assert_eq!(records[2].kind, IoKind::DirectWrite, "case-insensitive");
    }

    #[test]
    fn msr_parse_unaligned_extents_cover_all_pages() {
        // 100 bytes at offset 4000 straddles pages 0 and 1.
        let csv = "1000,h,0,Read,4000,200,1";
        let records = parse_msr_trace(csv, 4096).expect("valid trace");
        assert_eq!(records[0].lpn, 0);
        assert_eq!(records[0].pages, 2);
    }

    #[test]
    fn msr_parse_rejects_malformed_lines() {
        assert!(parse_msr_trace("not,enough,fields", 4096).is_err());
        assert!(parse_msr_trace("x,h,0,Write,0,4096,1", 4096).is_err());
        assert!(parse_msr_trace("1,h,0,Flush,0,4096,1", 4096).is_err());
        let err = parse_msr_trace("1,h,0,Write,bad,4096,1", 4096).expect_err("offset is invalid");
        assert!(err.to_string().contains("line 1"));
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
        assert!(w.is_empty());
        assert_eq!(w.working_set_pages(), 1);
    }

    /// RAID-0 routing over `n` devices with `chunk`-page chunks — the
    /// same arithmetic as the array crate's stripe map, kept here so the
    /// demux tests stand alone.
    fn raid0(chunk: u64, n: u64) -> (impl Fn(u64) -> (usize, u64), impl Fn(usize, u64) -> u64) {
        let route = move |lpn: u64| {
            let stripe = lpn / chunk;
            ((stripe % n) as usize, (stripe / n) * chunk + lpn % chunk)
        };
        let unroute = move |d: usize, m: u64| ((m / chunk) * n + d as u64) * chunk + m % chunk;
        (route, unroute)
    }

    #[test]
    fn demux_splits_extents_and_rebases_gaps() {
        let (route, _) = raid0(2, 2);
        // One 8-page write at t=10 spans both devices twice; a read at
        // t=25 touches only device 1 (pages 6..8 → stripe 3).
        let records = vec![
            TraceRecord {
                gap_us: 10,
                kind: IoKind::BufferedWrite,
                lpn: 0,
                pages: 8,
            },
            TraceRecord {
                gap_us: 15,
                kind: IoKind::Read,
                lpn: 6,
                pages: 2,
            },
        ];
        let split = demux_trace(&records, 2, route);
        // Device 0: stripes 0 and 2 → member pages 0..2 and 2..4, both at
        // t=10 (the second run carries a zero gap).
        assert_eq!(split[0].len(), 2);
        assert_eq!(
            (split[0][0].lpn, split[0][0].pages, split[0][0].gap_us),
            (0, 2, 10)
        );
        assert_eq!(
            (split[0][1].lpn, split[0][1].pages, split[0][1].gap_us),
            (2, 2, 0)
        );
        // Device 1: the write's stripes 1 and 3, then the read at t=25 —
        // a gap of 15 µs after its previous arrival at t=10.
        assert_eq!(split[1].len(), 3);
        assert_eq!(split[1][2].kind, IoKind::Read);
        assert_eq!(
            (split[1][2].lpn, split[1][2].pages, split[1][2].gap_us),
            (2, 2, 15)
        );
    }

    #[test]
    fn demux_merge_identity_all_kinds() {
        let (route, unroute) = raid0(4, 3);
        // Strictly increasing arrival times, all four kinds, extents that
        // cross chunk and stripe boundaries.
        let records = vec![
            TraceRecord {
                gap_us: 1,
                kind: IoKind::BufferedWrite,
                lpn: 2,
                pages: 9,
            },
            TraceRecord {
                gap_us: 7,
                kind: IoKind::Read,
                lpn: 30,
                pages: 1,
            },
            TraceRecord {
                gap_us: 3,
                kind: IoKind::DirectWrite,
                lpn: 11,
                pages: 14,
            },
            TraceRecord {
                gap_us: 20,
                kind: IoKind::Trim,
                lpn: 0,
                pages: 24,
            },
        ];
        let split = demux_trace(&records, 3, route);
        assert_eq!(merge_traces(&split, unroute), records);
        // Page conservation: every device page maps back into the
        // original extents.
        let total: u64 = split.iter().flatten().map(|r| u64::from(r.pages)).sum();
        let original: u64 = records.iter().map(|r| u64::from(r.pages)).sum();
        assert_eq!(total, original);
    }

    #[test]
    fn single_device_demux_is_identity() {
        let records = vec![
            TraceRecord {
                gap_us: 5,
                kind: IoKind::DirectWrite,
                lpn: 17,
                pages: 40,
            },
            TraceRecord {
                gap_us: 0,
                kind: IoKind::Trim,
                lpn: 99,
                pages: 1,
            },
        ];
        let split = demux_trace(&records, 1, |lpn| (0, lpn));
        assert_eq!(split.len(), 1);
        assert_eq!(split[0], records);
        assert_eq!(merge_traces(&split, |_, m| m), records);
    }

    #[test]
    #[should_panic(expected = "zero devices")]
    fn demux_rejects_zero_devices() {
        let _ = demux_trace(&[], 0, |lpn| (0, lpn));
    }
}
