//! What the host tells us about itself: process CPU time and peak RSS
//! from `/proc`, a fingerprint for results files, a calibration spin.
//! How fast it runs from one moment to the next is `hostspeed`'s.

use jitgc_sim::json::{JsonValue, ObjectBuilder};
use std::hint::black_box;
use std::time::Instant;

/// Kernel clock ticks per second in `/proc/self/stat` (`USER_HZ`, 100 on
/// every Linux ABI).
const CLK_TCK: f64 = 100.0;

/// Process CPU seconds so far (utime + stime, all threads).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields are counted after its ')'.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let mut ticks = || -> f64 { fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0) };
    (ticks() + ticks()) / CLK_TCK
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn load_average_1min() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into())
}

/// Wall time of a fixed spin loop: the same number on a quiet host every
/// time, so a drift flags contention rather than a code change.
fn calib_ns() -> f64 {
    let spin = || {
        let start = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        for _ in 0..20_000_000_u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(x);
        start.elapsed().as_nanos() as f64
    };
    let mut runs = [spin(), spin(), spin()];
    runs.sort_by(f64::total_cmp);
    runs[1]
}

/// The host fingerprint written into every results file. The load
/// average and the calibration spin are read when the run starts.
pub struct Fingerprint {
    seed: u64,
    load_1min: f64,
    pub calib_ns: f64,
}

impl Fingerprint {
    pub fn start(seed: u64) -> Self {
        Fingerprint {
            seed,
            load_1min: load_average_1min(),
            calib_ns: calib_ns(),
        }
    }

    /// `slowdown`: the median host slowdown `hostspeed` measured beside
    /// the repetitions of an end-to-end run.
    pub fn to_json(&self, repetitions: u64, slowdown: Option<f64>) -> JsonValue {
        // A driver's checkout is not a git repository; asking git there
        // would make it search the directories above.
        let commit = if std::path::Path::new(".git").exists() {
            command_line("git", &["rev-parse", "HEAD"])
        } else {
            "unknown".into()
        };
        ObjectBuilder::new()
            .field("nproc", nproc())
            .field("cpu_model", cpu_model())
            .field("load_1min_at_start", self.load_1min)
            .field("rustc", command_line("rustc", &["--version"]))
            .field("git_commit", commit)
            .field("seed", self.seed)
            .field("repetitions", repetitions)
            .field("host.calib_ns", self.calib_ns)
            .field(
                "host.slowdown",
                slowdown.map_or(JsonValue::Null, JsonValue::from),
            )
            .build()
    }
}
