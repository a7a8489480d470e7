//! `jitgc-perf` — the repo's benchmark (see `benchmark/README.md`).
//!
//! ```text
//! jitgc-perf [--workload NAME] [--seed N] [--seconds N | --reps N]
//!            [--trace 0|1] [--out PATH]
//! jitgc-perf --compare A.json B.json
//! jitgc-perf --emit-spec
//! ```
//!
//! With `--workload`, runs that workload in this process and prints one
//! JSON result line: the end-to-end metrics (`--trace 0`, the default) or
//! the per-layer metrics of the traced run (`--trace 1`). Without it,
//! runs every workload both ways, one child process per run so that peak
//! RSS is per workload, and writes a results file.

mod array;
mod cells;
mod compare;
mod host;
mod hostspeed;
mod measure;
mod probes;
mod service;
mod spec;
mod trace;

use jitgc_sim::json::{JsonValue, ObjectBuilder};
use measure::{median, Metrics, Rep};
use spec::{Kind, WorkloadSpec};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::{Tracer, BENCH_LAYER};

/// Where runs leave their files (ignored by git; `baseline/` is the
/// committed copy of the first run).
const RESULTS_DIR: &str = "benchmark/results";

/// The two modes of a run, as results files and set files name them.
const END_TO_END: &str = "end_to_end";
const PER_LAYER: &str = "per_layer";

struct Args {
    workload: Option<&'static WorkloadSpec>,
    seed: Option<u64>,
    seconds: u64,
    reps: Option<u64>,
    trace: Option<bool>,
    out: String,
}

fn bad(flag: &str, value: &str, expected: &str) -> ! {
    eprintln!("jitgc-perf: bad value '{value}' for {flag}: expected {expected}");
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: None,
        seconds: spec::RUN_SECONDS,
        reps: None,
        trace: None,
        out: format!("{RESULTS_DIR}/latest.json"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || {
            argv.next().unwrap_or_else(|| {
                eprintln!("jitgc-perf: {flag} needs a value");
                std::process::exit(2)
            })
        };
        match flag.as_str() {
            "--workload" => {
                let v = value();
                let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                args.workload =
                    Some(spec::workload(&v).unwrap_or_else(|| {
                        bad(&flag, &v, &format!("one of {}", names.join(", ")))
                    }));
            }
            "--seed" => {
                let v = value();
                args.seed = Some(
                    v.parse()
                        .unwrap_or_else(|_| bad(&flag, &v, "an unsigned integer")),
                );
            }
            "--seconds" => {
                let v = value();
                args.seconds = match v.parse() {
                    Ok(s) if (1..=60).contains(&s) => s,
                    _ => bad(&flag, &v, "whole seconds from 1 to 60"),
                };
            }
            "--reps" => {
                let v = value();
                args.reps = match v.parse() {
                    // One repetition could not be checked against its repeat.
                    Ok(n) if n >= 2 => Some(n),
                    _ => bad(&flag, &v, "a repetition count of at least 2"),
                };
            }
            "--trace" => {
                let v = value();
                args.trace = match v.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => bad(&flag, &v, "0 or 1"),
                };
            }
            "--out" => args.out = value(),
            "--compare" => {
                let (a, b) = (value(), value());
                std::process::exit(compare::run(&a, &b));
            }
            "--emit-spec" => {
                println!("{}", spec::benchmark_json().to_pretty());
                std::process::exit(0);
            }
            _ => {
                eprintln!("jitgc-perf: unknown argument '{flag}'");
                eprintln!(
                    "usage: jitgc-perf [--workload NAME] [--seed N] [--seconds N | --reps N] \
                     [--trace 0|1] [--out PATH] | --compare A B | --emit-spec"
                );
                std::process::exit(2)
            }
        }
    }
    args
}

/// One repetition of `workload`; with a tracer, the traced variant.
fn repetition(
    workload: &WorkloadSpec,
    seed: u64,
    traced: Option<(&mut Tracer, &mut Metrics)>,
) -> Rep {
    match workload.kind {
        Kind::Cells(build) => cells::repetition(&build(), seed, traced),
        Kind::Array => array::repetition(seed, traced),
        Kind::Service => service::repetition(seed, traced),
    }
}

/// Sets `workload` up once more without running it.
fn setup_only(workload: &WorkloadSpec, seed: u64) -> hostspeed::HostTime {
    match workload.kind {
        Kind::Cells(build) => cells::setup_only(&build(), seed),
        Kind::Array => array::setup_only(seed),
        Kind::Service => service::setup_only(seed),
    }
}

/// Set-up samples behind one `setup_s`: every repetition gives one, and
/// set-up alone is repeated until there are at least `SETUP_SAMPLES_MIN`
/// and then for `SETUP_SAMPLING` more, up to `SETUP_SAMPLES_MAX` — a
/// millisecond set-up (`diurnal_idle`) needs hundreds of samples for its
/// median to hold still, a quarter-second one can afford a dozen.
const SETUP_SAMPLES_MIN: usize = 9;
const SETUP_SAMPLES_MAX: usize = 256;
const SETUP_SAMPLING: Duration = Duration::from_millis(500);

/// The result line a driver reads, plus everything a results file keeps.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// (name, value, unit) in spec order.
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// The host fingerprint, as every file of this run carries it.
    host: JsonValue,
}

impl Outcome {
    fn to_json(&self) -> JsonValue {
        let mut metrics = ObjectBuilder::new();
        for &(name, value, unit) in &self.metrics {
            let entry = ObjectBuilder::new()
                .field("value", value)
                .field("unit", unit)
                .build();
            metrics = metrics.field(name, entry);
        }
        ObjectBuilder::new()
            .field("correct", self.correct)
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("metrics", metrics.build())
            .build()
    }

    /// Writes this run's results file: the host fingerprint and the
    /// result line.
    fn write_file(&self, workload: &WorkloadSpec, mode: &str) {
        let file = ObjectBuilder::new()
            .field("workload", workload.name)
            .field("mode", mode)
            .field("host", self.host.clone())
            .field("result", self.to_json())
            .build();
        let path = result_path(workload, mode);
        std::fs::write(&path, file.to_pretty() + "\n")
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    }
}

/// `file` inside the results directory, which is created if missing.
pub fn results_file(file: &str) -> PathBuf {
    std::fs::create_dir_all(RESULTS_DIR).expect("create the results directory");
    Path::new(RESULTS_DIR).join(file)
}

fn result_path(workload: &WorkloadSpec, mode: &str) -> PathBuf {
    results_file(&format!("{}-{mode}.json", workload.name))
}

/// `--trace 0`: one reference repetition, then repeats the workload for
/// the measurement window and reports the median of each end-to-end
/// metric over those repetitions, timed at nominal host speed.
fn end_to_end(workload: &WorkloadSpec, seed: u64, seconds: u64, reps: Option<u64>) -> Outcome {
    let host = host::Fingerprint::start(seed);
    // The reference repetition runs before anything probes the host's
    // speed: it warms the process up, gives the peak RSS of one pass of
    // the workload alone, and every later repetition — whose engines call
    // the probe through their wrapped policies — must reproduce its
    // reports byte for byte. It is left out of the medians.
    let reference = repetition(workload, seed, None);
    let peak_rss_mb = host::peak_rss_mb();
    hostspeed::start();
    let window = Instant::now();
    let mut done: Vec<Rep> = Vec::new();
    loop {
        done.push(repetition(workload, seed, None));
        let n = done.len() as u64;
        let enough = match reps {
            Some(reps) => n >= reps,
            None => n >= 2 && window.elapsed().as_secs() >= seconds,
        };
        if enough {
            break;
        }
    }
    let mut failed: u64 = reference.failed + done.iter().map(|r| r.failed).sum::<u64>();
    for (i, rep) in done.iter().enumerate() {
        if rep.digest != reference.digest {
            eprintln!(
                "CHECK FAILED [{}]: repetition {} is not byte-identical to the reference repetition",
                workload.name,
                i + 1
            );
            failed += 1;
        }
    }
    let attempted: u64 = reference.attempted + done.iter().map(|r| r.attempted).sum::<u64>();
    let mut setups: Vec<f64> = done.iter().map(|r| r.setup.nominal_s).collect();
    let sampling = Instant::now();
    while setups.len() < SETUP_SAMPLES_MIN
        || (setups.len() < SETUP_SAMPLES_MAX && sampling.elapsed() < SETUP_SAMPLING)
    {
        setups.push(setup_only(workload, seed).nominal_s);
    }
    let over = |f: fn(&Rep) -> f64| median(done.iter().map(f));
    let values = [
        over(|r| r.wall.nominal_s),
        median(setups),
        over(Rep::sim_ops_per_s),
        over(Rep::sim_s_per_s),
        peak_rss_mb,
    ];
    let metrics: Vec<_> = spec::END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name, v, m.unit))
        .collect();

    eprintln!(
        "\n== {} (seed {seed}, {} repetitions) ==",
        workload.name,
        done.len()
    );
    for &(name, value, unit) in &metrics {
        eprintln!("{name:<40} {value:>16.6} {unit}");
    }
    let walls = |f: fn(&Rep) -> f64| -> String {
        let walls: Vec<String> = done.iter().map(|r| format!("{:.3}", f(r))).collect();
        walls.join(" ")
    };
    eprintln!("wall_s of each repetition: {}", walls(|r| r.wall.nominal_s));
    eprintln!(
        "  as the clock read them:  {}",
        walls(|r| r.wall.wall.as_secs_f64())
    );
    let slowdown = over(|r| r.wall.wall.as_secs_f64() / r.wall.nominal_s);
    eprintln!(
        "{:<40} {slowdown:>16.6} ratio  (median host slowdown against nominal speed, {} samples)",
        "host.slowdown",
        hostspeed::samples_taken()
    );
    eprintln!(
        "{:<40} {:>16.6} ratio  ({failed} of {attempted})",
        "failed_share",
        failed as f64 / attempted.max(1) as f64
    );
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        host: host.to_json(done.len() as u64, Some(slowdown)),
    }
}

/// `--trace 1`: the layer probes, one untraced repetition for reference,
/// then one repetition with spans on; writes the trace and reports the
/// per-layer metrics.
fn traced(workload: &WorkloadSpec, seed: u64) -> Outcome {
    let host = host::Fingerprint::start(seed);
    let mut tracer = Tracer::new(workload.name);
    let mut metrics = Metrics::default();
    probes::run_all(&mut tracer, &mut metrics);

    let reference = repetition(workload, seed, None);
    tracer.set_cell("");
    let root = tracer.begin(workload.name, BENCH_LAYER);
    let rep = repetition(workload, seed, Some((&mut tracer, &mut metrics)));
    tracer.end(root);

    let mut failed = reference.failed + rep.failed;
    if rep.digest != reference.digest {
        eprintln!(
            "CHECK FAILED [{}]: the traced run's reports differ from the untraced run's",
            workload.name
        );
        failed += 1;
    }
    metrics.set("trace.accounted_share", tracer.accounted_share(root));
    metrics.set("trace.untraced_run_s", reference.run.wall.as_secs_f64());
    metrics.set("trace.traced_run_s", rep.run.wall.as_secs_f64());
    metrics.set(
        "trace.overhead_share",
        rep.run.wall.as_secs_f64() / reference.run.wall.as_secs_f64() - 1.0,
    );
    metrics.set("host.calib_ns", host.calib_ns);

    let host = host.to_json(1, None);
    let path = results_file(&format!("trace-{}.jsonl", workload.name));
    let header = ObjectBuilder::new()
        .field("workload", workload.name)
        .field("host", host.clone())
        .build();
    tracer
        .write_jsonl(&path, &header)
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));

    eprintln!(
        "\n== {} traced (seed {seed}) -> {} ==",
        workload.name,
        path.display()
    );
    let values: Vec<_> = spec::PER_LAYER
        .iter()
        .map(|m| (m.name, metrics.get(m.name), m.unit))
        .collect();
    for (&(name, value, unit), m) in values.iter().zip(&spec::PER_LAYER) {
        let exact = if m.exact { "[x]" } else { "" };
        eprintln!("{name:<40} {value:>18.6} {unit} {exact}");
    }
    eprintln!("self time by layer:");
    for (layer, seconds) in tracer.layer_self_seconds() {
        eprintln!("  {layer:<20} {seconds:>10.4} s");
    }
    let attempted = reference.attempted + rep.attempted;
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: values,
        host,
    }
}

/// Runs one (workload, mode) in a child process and returns the results
/// file it wrote. One process per run keeps `VmHWM` per workload.
fn child(workload: &WorkloadSpec, args: &Args, mode: &str) -> Option<JsonValue> {
    let path = result_path(workload, mode);
    let _ = std::fs::remove_file(&path);
    let exe = std::env::current_exe().expect("own executable path");
    let mut command = std::process::Command::new(exe);
    command
        .args(["--workload", workload.name])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if mode == PER_LAYER { "1" } else { "0" }]);
    if let Some(seed) = args.seed {
        command.args(["--seed", &seed.to_string()]);
    }
    if let Some(reps) = args.reps {
        command.args(["--reps", &reps.to_string()]);
    }
    // The result line on stdout is for drivers; the file says the same.
    command
        .stdout(std::process::Stdio::null())
        .status()
        .expect("spawn the workload process");
    JsonValue::parse(&std::fs::read_to_string(path).ok()?).ok()
}

/// Every workload, each mode in its own process; one set file holding
/// every run's results file.
fn run_set(args: &Args) -> i32 {
    let load = host::load_average_1min();
    if load > host::nproc() as f64 {
        eprintln!(
            "WARNING: 1-min load {load:.2} exceeds nproc {}; timings will be noisy",
            host::nproc()
        );
    }
    let modes: &[&str] = match args.trace {
        None => &[END_TO_END, PER_LAYER],
        Some(false) => &[END_TO_END],
        Some(true) => &[PER_LAYER],
    };
    let mut all_correct = true;
    let mut calibs: Vec<f64> = Vec::new();
    let mut workloads = ObjectBuilder::new();
    for workload in &spec::WORKLOADS {
        let mut entry = ObjectBuilder::new();
        for &mode in modes {
            let Some(file) = child(workload, args, mode) else {
                eprintln!("FAILED: {} ({mode}) wrote no result", workload.name);
                all_correct = false;
                continue;
            };
            let correct = file.get("result").and_then(|r| r.get("correct"));
            all_correct &= correct.and_then(JsonValue::as_bool) == Some(true);
            let calib = file.get("host").and_then(|h| h.get("host.calib_ns"));
            calibs.extend(calib.and_then(JsonValue::as_f64));
            entry = entry.field(mode, file);
        }
        workloads = workloads.field(workload.name, entry.build());
    }
    let (low, high) = calibs
        .iter()
        .fold((f64::MAX, 0.0_f64), |(lo, hi), &c| (lo.min(c), hi.max(c)));
    if high > low * 1.10 {
        eprintln!(
            "WARNING: host.calib_ns drifted {:.1} % within the set ({low:.0} .. {high:.0} ns): \
             the host is noisy",
            (high / low - 1.0) * 100.0
        );
    }
    let set = ObjectBuilder::new()
        .field("run_seconds", args.seconds)
        .field("workloads", workloads.build())
        .build();
    if let Some(dir) = Path::new(&args.out).parent() {
        std::fs::create_dir_all(dir).expect("create the output directory");
    }
    std::fs::write(&args.out, set.to_pretty() + "\n")
        .unwrap_or_else(|e| panic!("write {}: {e}", args.out));
    eprintln!("\nwrote {}", args.out);
    i32::from(!all_correct)
}

fn main() {
    let args = parse_args();
    let Some(workload) = args.workload else {
        std::process::exit(run_set(&args));
    };
    let seed = args.seed.unwrap_or(workload.default_seed);
    let (outcome, mode) = if args.trace == Some(true) {
        (traced(workload, seed), PER_LAYER)
    } else {
        let outcome = end_to_end(workload, seed, args.seconds, args.reps);
        (outcome, END_TO_END)
    };
    outcome.write_file(workload, mode);
    println!("{}", outcome.to_json().to_compact());
    std::process::exit(i32::from(!outcome.correct));
}
