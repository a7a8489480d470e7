//! Implementing a custom [`Workload`] — here a synthetic video-recorder
//! pattern (large sequential buffered writes with periodic direct index
//! updates) — and running it through the full stack.
//!
//! ```sh
//! cargo run --release --example custom_workload
//! ```

use jitgc_repro::core::policy::JitGc;
use jitgc_repro::core::system::{SsdSystem, SystemConfig};
use jitgc_repro::nand::Lpn;
use jitgc_repro::sim::{SimDuration, SimRng};
use jitgc_repro::workload::{IoKind, IoRequest, Workload, WriteMix};

/// A security-camera recorder: a circular log of large sequential
/// buffered segments, with a small direct-written index page after each
/// segment and occasional playback reads.
struct VideoRecorder {
    working_set: u64,
    cursor: u64,
    segment_left: u32,
    emitted: u64,
    limit: u64,
    rng: SimRng,
}

impl VideoRecorder {
    const SEGMENT_PAGES: u32 = 32;
    const INDEX_REGION_PAGES: u64 = 64;

    fn new(working_set: u64, requests: u64, seed: u64) -> Self {
        VideoRecorder {
            working_set,
            cursor: Self::INDEX_REGION_PAGES,
            segment_left: 0,
            emitted: 0,
            limit: requests,
            rng: SimRng::seed(seed),
        }
    }
}

impl Workload for VideoRecorder {
    fn name(&self) -> &'static str {
        "VideoRecorder"
    }

    fn write_mix(&self) -> WriteMix {
        // One 1-page index write per 32-page segment + rare reads.
        WriteMix::new(32.0 / 33.0)
    }

    fn working_set_pages(&self) -> u64 {
        self.working_set
    }

    fn next_request(&mut self) -> Option<IoRequest> {
        if self.emitted >= self.limit {
            return None;
        }
        self.emitted += 1;
        let gap = SimDuration::from_micros(self.rng.exp_micros(4_000.0));

        // Occasionally someone reviews old footage.
        if self.rng.chance(0.05) {
            let lpn = self
                .rng
                .range_u64(Self::INDEX_REGION_PAGES, self.working_set - 8);
            return Some(IoRequest {
                gap,
                kind: IoKind::Read,
                lpn: Lpn(lpn),
                pages: 8,
            });
        }

        if self.segment_left == 0 {
            // Segment finished: commit the index (direct, durable).
            self.segment_left = Self::SEGMENT_PAGES;
            let index = self.rng.range_u64(0, Self::INDEX_REGION_PAGES);
            return Some(IoRequest {
                gap,
                kind: IoKind::DirectWrite,
                lpn: Lpn(index),
                pages: 1,
            });
        }

        // Append 8 pages of footage to the circular log.
        let pages = 8u32.min(self.segment_left);
        self.segment_left -= pages;
        if self.cursor + u64::from(pages) > self.working_set {
            self.cursor = Self::INDEX_REGION_PAGES;
        }
        let lpn = self.cursor;
        self.cursor += u64::from(pages);
        Some(IoRequest {
            gap,
            kind: IoKind::BufferedWrite,
            lpn: Lpn(lpn),
            pages,
        })
    }
}

fn main() {
    let system_config = SystemConfig::default_sim();
    let working_set = system_config
        .standard_working_set()
        .expect("over-provisioning is below 200 %");
    let workload = VideoRecorder::new(working_set, 60_000, 99);
    let policy = JitGc::from_system_config(&system_config);
    let report = SsdSystem::new(system_config, Box::new(policy), Box::new(workload)).run();

    println!("workload  : {}", report.workload);
    println!("requests  : {}", report.ops);
    println!("IOPS      : {:.0}", report.iops);
    println!(
        "WAF       : {:.3}",
        report.waf.expect("host writes happened")
    );
    println!(
        "FGC stalls: {}",
        report.fgc_request_stalls + report.fgc_flush_stalls
    );
    if let Some(acc) = report.prediction_accuracy_percent {
        println!("prediction: {acc:.1} %");
    }
    println!(
        "\nA circular sequential log is the FTL's best case: victims are \
         fully invalid by the time the log wraps, so WAF should sit near 1."
    );
}
