//! `ssdsim` — run one configurable simulation from the command line and
//! print the report as a table or JSON.
//!
//! ```text
//! ssdsim [OPTIONS]
//!   --benchmark <ycsb|postmark|filebench|bonnie|tiobench|tpcc|all|b1,b2,…>
//!                          one benchmark, a comma list, or `all`; with
//!                          more than one, the scenarios run as a parallel
//!                          sweep and a summary table (or a JSON array)
//!                          is printed                  (default ycsb)
//!   --threads <N>          worker threads for sweeps   (default: all cores)
//!   --policy <l-bgc|a-bgc|adp-gc|idle-gc|jit-gc|jit-nosip|no-bgc|reserved:<permille>|all|p1,p2,…>
//!                          one policy, a comma list, or `all`; with more
//!                          than one the scenarios sweep like `--benchmark`
//!                                                                (default jit-gc)
//!   --op-sweep <p1,p2,…>   sweep over-provisioning values (permille of
//!                          user capacity, below 2000: the working set is
//!                          user − OP/2); each value rebuilds the device
//!                          geometry                  (default: config's OP)
//!   --seconds <N>          simulated duration, 1 ..= 2^62 µs
//!                          (4611686018427 s)           (default 300)
//!   --iops <F>             mean arrival rate, > 0      (default 250)
//!   --burst <F>            mean burst length, ≥ 1      (default 1024)
//!   --seed <N>             RNG seed                    (default 42)
//!   --victim <greedy|cost-benefit|fifo|random:<seed>>  (default greedy)
//!   --no-prefill           start from an erased device (default: aged)
//!   --hot-cold             enable FTL hot/cold streams
//!   --strict-tau-flush     strict predictor variant
//!   --wear-leveling        enable static wear leveling
//!   --in-device-manager    paper Fig. 3(a) placement (no SG_IO cost)
//!   --endurance <N>        per-block erase endurance limit; worn-out
//!                          blocks are retired and the device eventually
//!                          degrades to read-only     (default: unlimited)
//!   --fault-seed <N>       RNG seed of the wear-fault injector (default 1)
//!   --fault-program <F>    program-failure rate coefficient, finite and
//!                          ≥ 0; the per-op probability is
//!                          F × erase_count / wear_scale     (default 0)
//!   --fault-erase <F>      erase-failure rate coefficient   (default 0)
//!   --fault-read <F>       uncorrectable-read rate coefficient (default 0)
//!                          (all three at 0 ⇒ no fault model is installed
//!                          and every report is byte-identical to a build
//!                          without fault injection)
//!   --timeline <path>      write a per-interval CSV time series
//!   --config <path>        load a full SystemConfig from JSON (flags that
//!                          modify the system still apply on top)
//!   --dump-config <path>   write the effective SystemConfig to JSON and exit
//!   --json                 emit the full SimReport as JSON
//!   --bench-json <path>    also write a machine-readable perf record (host
//!                          pages simulated per wall-clock second, per-phase
//!                          timing) for tracking simulator throughput; the
//!                          record schema is `ssdsim-bench/11`, the shared
//!                          fields (throughput, phases, the quiescence
//!                          fast-forward counters of DESIGN.md §15) come
//!                          from the one `RunPerf::record` (array runs
//!                          add an `array` section with the layout and
//!                          routing counters, plus per-member entries
//!                          with their own `phase_*_secs` breakdowns and
//!                          straggler accounting)
//!   --array <N>            simulate an N-member striped array instead of a
//!                          single device (`--array 1` reproduces the
//!                          single-device reports exactly); workload working
//!                          set and arrival rate scale with the column count
//!   --stripe-kb <K>        array stripe chunk size in KiB   (default 64)
//!   --mirror               pair members as RAID-10 mirrors (even N); reads
//!                          are routed to the replica that is idle and
//!                          furthest from foreground GC
//!   --gc-mode <staggered|unsync>
//!                          stagger member flusher/BGC phases or leave them
//!                          aligned                          (default staggered)
//!   --queue-depth <N>      closed-loop application threads, 1 to 65536
//!                                                           (default: config)
//! ```

use jitgc_array::{ArrayConfig, ArrayReport, ArrayScheduler, GcMode, Redundancy};
use jitgc_bench::{default_threads, expand_cells, run_grid, Experiment, PolicyKind, SweepCell};
use jitgc_core::system::{
    ClosedLoop, ManagerPlacement, RunPerf, RunTotals, SimReport, SystemConfig, VictimKind,
};
use jitgc_nand::FaultConfig;
use jitgc_sim::json::{JsonValue, ObjectBuilder};
use jitgc_sim::SimDuration;
use jitgc_workload::{ArrivalError, BenchmarkKind, WorkloadConfig, WorkloadConfigBuilder};
use std::time::Instant;

#[derive(Debug)]
struct Args {
    benchmarks: Vec<BenchmarkKind>,
    threads: usize,
    policies: Vec<PolicyKind>,
    op_sweep: Vec<u64>,
    seconds: u64,
    iops: f64,
    burst: f64,
    seed: u64,
    victim: VictimKind,
    prefill: bool,
    hot_cold: bool,
    strict_tau_flush: bool,
    wear_leveling: bool,
    in_device_manager: bool,
    endurance: Option<u64>,
    fault_seed: u64,
    fault_program: f64,
    fault_erase: f64,
    fault_read: f64,
    timeline: Option<String>,
    config: Option<String>,
    dump_config: Option<String>,
    json: bool,
    bench_json: Option<String>,
    array: Option<usize>,
    stripe_kb: u64,
    mirror: bool,
    gc_mode: GcMode,
    queue_depth: Option<u64>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            benchmarks: vec![BenchmarkKind::Ycsb],
            threads: default_threads(),
            policies: vec![PolicyKind::Jit],
            op_sweep: Vec::new(),
            seconds: 300,
            iops: 250.0,
            burst: 1_024.0,
            seed: 42,
            victim: VictimKind::Greedy,
            prefill: true,
            hot_cold: false,
            strict_tau_flush: false,
            wear_leveling: false,
            in_device_manager: false,
            endurance: None,
            fault_seed: 1,
            fault_program: 0.0,
            fault_erase: 0.0,
            fault_read: 0.0,
            timeline: None,
            config: None,
            dump_config: None,
            json: false,
            bench_json: None,
            array: None,
            stripe_kb: 64,
            mirror: false,
            gc_mode: GcMode::Staggered,
            queue_depth: None,
        }
    }
}

/// WAF is undefined (JSON `null`) on a run with zero host writes.
fn fmt_waf(waf: Option<f64>) -> String {
    waf.map_or_else(|| "n/a".to_owned(), |w| format!("{w:.3}"))
}

fn usage() -> ! {
    eprintln!("usage: ssdsim [--benchmark B] [--policy P] [--seconds N] [--iops F]");
    eprintln!("              [--op-sweep p1,p2,…] [--burst F] [--seed N] [--victim V]");
    eprintln!("              [--no-prefill] [--hot-cold] [--strict-tau-flush] [--wear-leveling]");
    eprintln!("              [--in-device-manager] [--json]");
    eprintln!("              [--endurance N] [--fault-seed N] [--fault-program F]");
    eprintln!("              [--fault-erase F] [--fault-read F]");
    eprintln!("              [--array N] [--stripe-kb K] [--mirror]");
    eprintln!("              [--gc-mode staggered|unsync] [--queue-depth N]");
    eprintln!("see the module docs (`ssdsim.rs`) for value sets");
    std::process::exit(2)
}

fn parse_benchmark(v: &str) -> BenchmarkKind {
    match v {
        "ycsb" => BenchmarkKind::Ycsb,
        "postmark" => BenchmarkKind::Postmark,
        "filebench" => BenchmarkKind::Filebench,
        "bonnie" => BenchmarkKind::Bonnie,
        "tiobench" => BenchmarkKind::Tiobench,
        "tpcc" => BenchmarkKind::TpcC,
        other => {
            eprintln!("unknown benchmark: {other}");
            usage()
        }
    }
}

fn parse_benchmarks(v: &str) -> Vec<BenchmarkKind> {
    if v == "all" {
        return BenchmarkKind::all().to_vec();
    }
    v.split(',').map(parse_benchmark).collect()
}

/// `all` is the standard policy matrix, [`PolicyKind::STANDARD`].
fn parse_policies(v: &str) -> Vec<PolicyKind> {
    if v == "all" {
        return PolicyKind::STANDARD.to_vec();
    }
    v.split(',').map(parse_policy).collect()
}

fn parse_policy(v: &str) -> PolicyKind {
    match v {
        "l-bgc" => PolicyKind::L_BGC,
        "a-bgc" => PolicyKind::A_BGC,
        "adp-gc" => PolicyKind::Adp,
        "idle-gc" => PolicyKind::Idle,
        "jit-gc" => PolicyKind::Jit,
        "jit-nosip" => PolicyKind::JitNoSip,
        "no-bgc" => PolicyKind::NoBgc,
        other => match other.strip_prefix("reserved:") {
            Some(p) => PolicyKind::ReservedPermille(p.parse().unwrap_or_else(|_| usage())),
            None => {
                eprintln!("unknown policy: {other}");
                usage()
            }
        },
    }
}

fn parse_victim(v: &str) -> VictimKind {
    if let Some(kind) = VictimKind::from_name(v) {
        return kind;
    }
    match v.strip_prefix("random:") {
        Some(s) => VictimKind::Random(s.parse().unwrap_or_else(|_| usage())),
        None => {
            eprintln!("unknown victim policy: {v}");
            usage()
        }
    }
}

/// A `--fault-*` rate coefficient, held to [`FaultConfig::check_rate`].
fn parse_fault_rate(flag: &str, v: &str) -> f64 {
    let rate: f64 = v.parse().unwrap_or_else(|_| usage());
    if let Err(rule) = FaultConfig::check_rate(rate) {
        eprintln!("{flag} {rate}: {rule}");
        usage()
    }
    rate
}

/// The workload's arrival knobs as `--seconds`, `--iops` and `--burst`
/// set them, the rate spread over `columns` stripe columns (1 on one
/// device).
fn arrival(args: &Args, columns: u64) -> WorkloadConfigBuilder {
    WorkloadConfig::builder()
        .seconds(args.seconds)
        .mean_iops(args.iops * columns as f64)
        .burst_mean(args.burst)
}

/// Holds the arrival flags to the workload's rule
/// ([`WorkloadConfigBuilder::check_arrival`]); a breach names the flags
/// it came from and exits 2.
fn check_arrival(args: &Args, columns: u64) {
    let Err(rule) = arrival(args, columns).check_arrival() else {
        return;
    };
    let iops = if columns == 1 {
        format!("--iops {:?}", args.iops)
    } else {
        format!("--iops {:?} on {columns} stripe columns", args.iops)
    };
    match rule {
        ArrivalError::Duration | ArrivalError::TooLong => {
            eprintln!("--seconds {}: {rule}", args.seconds)
        }
        ArrivalError::MeanIops => eprintln!("{iops}: {rule}"),
        ArrivalError::BurstMean => eprintln!("--burst {:?}: {rule}", args.burst),
        ArrivalError::IdleGap => eprintln!("{iops} --burst {:?}: {rule}", args.burst),
    }
    usage()
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--benchmark" => args.benchmarks = parse_benchmarks(&value()),
            "--threads" => args.threads = value().parse().unwrap_or_else(|_| usage()),
            "--policy" => args.policies = parse_policies(&value()),
            "--op-sweep" => {
                // Permille: a `u32` holds any meaningful value and keeps
                // the geometry arithmetic downstream from overflowing.
                args.op_sweep = value()
                    .split(',')
                    .map(|p| p.parse::<u32>().map_or_else(|_| usage(), u64::from))
                    .collect()
            }
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--iops" => args.iops = value().parse().unwrap_or_else(|_| usage()),
            "--burst" => args.burst = value().parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--victim" => args.victim = parse_victim(&value()),
            "--no-prefill" => args.prefill = false,
            "--hot-cold" => args.hot_cold = true,
            "--strict-tau-flush" => args.strict_tau_flush = true,
            "--wear-leveling" => args.wear_leveling = true,
            "--in-device-manager" => args.in_device_manager = true,
            "--endurance" => args.endurance = Some(value().parse().unwrap_or_else(|_| usage())),
            "--fault-seed" => args.fault_seed = value().parse().unwrap_or_else(|_| usage()),
            "--fault-program" => args.fault_program = parse_fault_rate(&flag, &value()),
            "--fault-erase" => args.fault_erase = parse_fault_rate(&flag, &value()),
            "--fault-read" => args.fault_read = parse_fault_rate(&flag, &value()),
            "--timeline" => args.timeline = Some(value()),
            "--config" => args.config = Some(value()),
            "--dump-config" => args.dump_config = Some(value()),
            "--json" => args.json = true,
            "--bench-json" => args.bench_json = Some(value()),
            "--array" => args.array = Some(value().parse().unwrap_or_else(|_| usage())),
            "--stripe-kb" => args.stripe_kb = value().parse().unwrap_or_else(|_| usage()),
            "--mirror" => args.mirror = true,
            "--gc-mode" => {
                let v = value();
                args.gc_mode = GcMode::from_name(&v).unwrap_or_else(|| {
                    eprintln!("unknown gc mode: {v}");
                    usage()
                })
            }
            "--queue-depth" => args.queue_depth = Some(value().parse().unwrap_or_else(|_| usage())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage()
            }
        }
    }
    check_arrival(&args, 1);
    args
}

/// An output path that cannot be written is a bad argument like any
/// other: one line on stderr and exit 2.
fn written<T>(path: &str, result: std::io::Result<T>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2)
    })
}

/// Checks an output path before the simulation runs, so a typo costs no
/// simulated hours. Creates the file if missing; never truncates.
fn check_writable(path: &str) {
    let probe = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path);
    written(path, probe);
}

/// A lone record or report prints as an object, several as an array.
fn one_or_many(mut values: Vec<JsonValue>) -> JsonValue {
    if values.len() == 1 {
        values.remove(0)
    } else {
        JsonValue::Array(values)
    }
}

/// The standard working set of one cell's system, or exit 2 naming the
/// flag that set an over-provisioning no working set survives.
fn working_set_or_exit(args: &Args, system: &SystemConfig, op_permille: Option<u64>) -> u64 {
    system.standard_working_set().unwrap_or_else(|e| {
        match (op_permille, &args.config) {
            (Some(p), _) => eprintln!("--op-sweep {p}: {e}"),
            (None, Some(path)) => eprintln!("--config {path}: {e}"),
            (None, None) => eprintln!("{e}"),
        }
        std::process::exit(2)
    })
}

/// The `--bench-json` perf record of a single-device run: how fast the
/// *simulator itself* ran, so successive commits can track the throughput
/// trajectory. [`RunPerf::record`] writes the shared fields.
fn perf_record(seed: u64, report: &SimReport, perf: &RunPerf) -> JsonValue {
    let degraded = report.degraded.as_ref();
    perf.record(&RunTotals::of(report, seed), |record| {
        // Schema 4: end-of-life outcome of the run (all-healthy runs
        // report false / null so dashboards need no special-casing).
        record
            .field("read_only", degraded.is_some_and(|d| d.read_only))
            .field(
                "lifetime_host_bytes",
                degraded.and_then(|d| d.lifetime_host_bytes),
            )
            .field("retired_blocks", degraded.map_or(0, |d| d.retired_blocks))
    })
    .build()
}

/// The `--bench-json` perf record of an array run: the shared fields of
/// [`RunPerf::record`] over the array's totals, plus an `array` section
/// with the layout and routing counters and one `member_perf` entry per
/// member with its page counts, per-phase wall-clock breakdown, and
/// straggler accounting.
fn array_perf_record(
    args: &Args,
    report: &ArrayReport,
    sim: &ArrayScheduler,
    perf: &RunPerf,
) -> JsonValue {
    let sum = |pages: fn(&SimReport) -> u64| report.member_reports.iter().map(pages).sum();
    let totals = RunTotals {
        benchmark: &report.workload,
        policy: &report.policy,
        victim: Some(&report.member_reports[0].victim_policy),
        seed: args.seed,
        simulated_secs: report.duration_secs,
        ops: report.ops,
        host_pages_written: sum(|r| r.host_pages_written),
        nand_pages_programmed: sum(|r| r.nand_pages_programmed),
    };
    let members: Vec<JsonValue> = report
        .member_reports
        .iter()
        .zip(sim.members())
        .enumerate()
        .map(|(i, (r, member))| {
            let sched = &report.member_sched[i];
            let counts = ObjectBuilder::new()
                .field("ops", r.ops)
                .field("host_pages_written", r.host_pages_written)
                .field("nand_pages_programmed", r.nand_pages_programmed)
                .field("nand_erases", r.nand_erases);
            // Schema 5: where this member's simulation time went; schema
            // 9: its elided ticks.
            member
                .phase_profile()
                .fields(counts)
                .field("ticks_skipped", member.ticks_skipped())
                // Schema 6: straggler accounting (simulated-time facts).
                .field("steps", sched.steps)
                .field("lag_mean_us", sched.lag_mean_us)
                .field("lag_p99_us", sched.lag_p99_us)
                .field("lag_max_us", sched.lag_max_us)
                .field("straggler_requests", sched.straggler_requests)
                .field("straggler_fgc_requests", sched.straggler_fgc_requests)
                .field("straggler_time_us", sched.straggler_time_us)
                .build()
        })
        .collect();
    let degraded = report.degraded.as_ref();
    perf.record(&totals, |record| {
        // Schema 4: volume-level end-of-life outcome.
        record
            .field(
                "degraded_members",
                degraded.map_or(0, |d| d.degraded_members),
            )
            .field("recovered_pages", degraded.map_or(0, |d| d.recovered_pages))
            .field("lost_pages", degraded.map_or(0, |d| d.lost_pages))
    })
    .field(
        "array",
        ObjectBuilder::new()
            .field("members", report.members as u64)
            .field("chunk_pages", report.chunk_pages)
            .field("redundancy", report.redundancy.as_str())
            .field("gc_mode", report.gc_mode.as_str())
            .field("split_requests", report.split_requests)
            .field("routed_reads", report.routed_reads)
            .build(),
    )
    .field("member_perf", JsonValue::Array(members))
    .build()
}

/// One simulated sweep cell: its report and how fast it ran.
type CellRun = (SimReport, RunPerf);

/// The extended sweep table: one row per cell, policy and OP columns
/// included.
fn print_sweep_table(system: &SystemConfig, cells: &[SweepCell], runs: &[CellRun]) {
    println!(
        "{:<12}{:<16}{:>6}{:>10}{:>8}{:>10}{:>12}",
        "benchmark", "policy", "OP\u{2030}", "IOPS", "WAF", "FGC", "p99 µs"
    );
    for (cell, (report, _)) in cells.iter().zip(runs) {
        let op = cell.op_permille.unwrap_or_else(|| system.ftl.op_permille());
        // Cell labels, not `report.policy`: ablation variants (e.g.
        // JIT-GC without SIP) self-report the base policy's name.
        println!(
            "{:<12}{:<16}{:>6}{:>10.0}{:>8}{:>10}{:>12}",
            cell.benchmark.to_string(),
            cell.policy.name(),
            op,
            report.iops,
            fmt_waf(report.waf),
            report.fgc_request_stalls + report.fgc_flush_stalls,
            report.latency_p99_us
        );
    }
}

/// Runs the `--array` path: one array simulation per requested benchmark,
/// swept across worker threads like the single-device path.
fn run_array(args: &Args, system: &SystemConfig, members: usize) {
    if args.timeline.is_some() {
        eprintln!("--timeline is not supported with --array");
        std::process::exit(2)
    }
    if args.policies.len() != 1 || !args.op_sweep.is_empty() {
        eprintln!("--array supports a single --policy and no --op-sweep");
        std::process::exit(2)
    }
    let redundancy = if args.mirror {
        Redundancy::Mirror
    } else {
        Redundancy::None
    };
    let page_size = system.ftl.geometry().page_size().as_u64();
    // The stripe chunk is a whole number of pages; a non-multiple would
    // silently truncate the requested size, so reject it up front.
    if !(args.stripe_kb * 1024).is_multiple_of(page_size) {
        eprintln!(
            "--stripe-kb {} is not a multiple of the {page_size}-byte page size",
            args.stripe_kb
        );
        std::process::exit(2)
    }
    let chunk_pages = args.stripe_kb * 1024 / page_size;
    let config = ArrayConfig {
        members,
        chunk_pages,
        redundancy,
        gc_mode: args.gc_mode,
        system: system.clone(),
    };
    // Geometry errors surface here as CLI diagnostics, not as panics deep
    // in the scheduler.
    if let Err(message) = config.validate() {
        eprintln!("invalid array configuration: {message}");
        std::process::exit(2)
    }
    let working_set = working_set_or_exit(args, system, None);
    if let Some(path) = &args.bench_json {
        check_writable(path);
    }
    let columns = match redundancy {
        Redundancy::None => members as u64,
        Redundancy::Mirror => members as u64 / 2,
    };
    // Scale the single-device sizing by the column count so each member
    // carries the load a standalone device would; with one plain member
    // this is exactly the single-device workload and the per-device
    // report is byte-identical to the non-array path.
    check_arrival(args, columns);
    let workload_config = arrival(args, columns)
        .working_set_pages(working_set * columns)
        .seed(args.seed)
        .build();

    let policy = args.policies[0];
    let threads = if args.benchmarks.len() == 1 {
        1
    } else {
        args.threads
    };
    let profile_phases = args.bench_json.is_some();
    let config = &config;
    let (reports, records): (Vec<ArrayReport>, Vec<Option<JsonValue>>) =
        run_grid(&args.benchmarks, threads, |&benchmark| {
            let setup_start = Instant::now();
            let workload = benchmark.build(workload_config);
            let mut sim = config.build(|cfg| policy.build(cfg), workload);
            if profile_phases {
                sim.enable_phase_profiling();
            }
            let setup_secs = setup_start.elapsed().as_secs_f64();
            let run_start = Instant::now();
            let report = sim.run();
            let perf = sim.run_perf(setup_secs, run_start.elapsed().as_secs_f64());
            // The record reads member profiles off the array itself, so
            // it is built before `sim` drops.
            let record = profile_phases.then(|| array_perf_record(args, &report, &sim, &perf));
            (report, record)
        })
        .into_iter()
        .unzip();

    if let Some(path) = &args.bench_json {
        let records = records.into_iter().flatten().collect();
        written(path, std::fs::write(path, one_or_many(records).to_pretty()));
        eprintln!("wrote perf record to {path}");
    }

    if args.json {
        let reports = reports.iter().map(ArrayReport::to_json).collect();
        println!("{}", one_or_many(reports).to_pretty());
        return;
    }

    if args.benchmarks.len() != 1 {
        println!(
            "{:<12}{:>10}{:>8}{:>10}{:>10}{:>12}{:>12}",
            "benchmark", "IOPS", "WAF", "FGC", "BGC blk", "p99 µs", "p999 µs"
        );
        for report in &reports {
            println!(
                "{:<12}{:>10.0}{:>8}{:>10}{:>10}{:>12}{:>12}",
                report.workload,
                report.iops,
                fmt_waf(report.waf),
                report.fgc_request_stalls,
                report.bgc_blocks,
                report.latency_p99_us,
                report.latency_p999_us
            );
        }
        return;
    }
    let report = reports.into_iter().next().expect("one benchmark ran");
    println!(
        "array           {} members, {} KiB chunks, {}, {}",
        report.members, args.stripe_kb, report.redundancy, report.gc_mode
    );
    println!("policy          {}", report.policy);
    println!("workload        {}", report.workload);
    println!("duration        {:.1} s", report.duration_secs);
    println!("requests        {}", report.ops);
    println!("IOPS            {:.0}", report.iops);
    println!("split requests  {}", report.split_requests);
    if report.redundancy == "mirror" {
        println!("routed reads    {}", report.routed_reads);
    }
    println!("WAF             {}", fmt_waf(report.waf));
    println!("erases          {}", report.nand_erases);
    println!(
        "erase spread    min {} / mean {:.1} / max {} (σ {:.2})",
        report.erase_spread.min,
        report.erase_spread.mean,
        report.erase_spread.max,
        report.erase_spread.std_dev
    );
    println!("FGC stalls      {}", report.fgc_request_stalls);
    println!("BGC blocks      {}", report.bgc_blocks);
    println!(
        "latency (µs)    mean {} / p50 {} / p99 {} / p999 {} / max {}",
        report.latency_mean_us,
        report.latency_p50_us,
        report.latency_p99_us,
        report.latency_p999_us,
        report.latency_max_us
    );
    if let Some(d) = &report.degraded {
        println!(
            "degraded        {} read-only members / {} pages recovered / {} pages lost",
            d.degraded_members, d.recovered_pages, d.lost_pages
        );
    }
    for (i, member) in report.member_reports.iter().enumerate() {
        println!(
            "member {i:<8} {:>8} ops  WAF {}  erases {}  FGC {}  p99 {} µs",
            member.ops,
            fmt_waf(member.waf),
            member.nand_erases,
            member.fgc_request_stalls,
            member.latency_p99_us
        );
    }
}

fn main() {
    let args = parse_args();

    let mut system = match &args.config {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(2)
            });
            let value = JsonValue::parse(&text).unwrap_or_else(|e| {
                eprintln!("cannot parse {path}: {e}");
                std::process::exit(2)
            });
            SystemConfig::from_json(&value).unwrap_or_else(|e| {
                eprintln!("cannot parse {path}: {e}");
                std::process::exit(2)
            })
        }
        None => SystemConfig::default_sim(),
    };
    system.victim = args.victim;
    system.prefill = args.prefill;
    system.strict_tau_flush = args.strict_tau_flush;
    system.wear_leveling = args.wear_leveling;
    if let Some(qd) = args.queue_depth {
        system.queue_depth = ClosedLoop::check_threads(qd).unwrap_or_else(|rule| {
            eprintln!("--queue-depth {qd}: the thread count {rule}");
            std::process::exit(2)
        });
    }
    if args.in_device_manager {
        system.manager_placement = ManagerPlacement::Device;
    }
    if args.timeline.is_some() {
        system.record_timeline = true;
    }
    if args.hot_cold {
        // Rebuild from the existing config so every other setting (SIP
        // threshold, timing, endurance, …) survives the flag.
        system.ftl = system
            .ftl
            .to_builder()
            .hot_cold_streams(SimDuration::from_secs(5))
            .build();
    }
    if let Some(limit) = args.endurance {
        system.ftl = system.ftl.to_builder().endurance_limit(limit).build();
    }
    if args.fault_program > 0.0 || args.fault_erase > 0.0 || args.fault_read > 0.0 {
        system.ftl = system
            .ftl
            .to_builder()
            .fault(FaultConfig {
                seed: args.fault_seed,
                program_rate: args.fault_program,
                erase_rate: args.fault_erase,
                read_rate: args.fault_read,
                ..FaultConfig::default()
            })
            .build();
    }

    if let Some(path) = &args.dump_config {
        written(path, std::fs::write(path, system.to_json().to_pretty()));
        eprintln!("wrote effective config to {path}");
        return;
    }

    if let Some(members) = args.array {
        if members == 0 {
            eprintln!("--array needs at least one member");
            std::process::exit(2)
        }
        run_array(&args, &system, members);
        return;
    }

    // Expand the benchmark × policy × OP cross product into sweep cells,
    // dropping exact duplicates before any work is dispatched.
    let op_values: Vec<Option<u64>> = if args.op_sweep.is_empty() {
        vec![None]
    } else {
        args.op_sweep.iter().map(|&p| Some(p)).collect()
    };
    let (cells, duplicates) = expand_cells(&args.benchmarks, &args.policies, &op_values);
    if duplicates > 0 {
        eprintln!("sweep: dropped {duplicates} duplicate cell(s)");
    }
    if cells.len() != 1 && args.timeline.is_some() {
        eprintln!("--timeline requires a single sweep cell");
        std::process::exit(2)
    }
    for cell in &cells {
        working_set_or_exit(&args, &cell.system(&system), cell.op_permille);
    }
    for path in args.bench_json.iter().chain(&args.timeline) {
        check_writable(path);
    }
    let base = Experiment {
        system,
        duration: SimDuration::from_secs(args.seconds),
        mean_iops: args.iops,
        burst_mean: args.burst,
        seed: args.seed,
    };

    // Each scenario is an independent simulation, so the sweep runs the
    // cells across worker threads; results come back in input order
    // regardless of the thread count. A single cell takes the plain
    // serial path inside `run_grid`.
    let threads = if cells.len() == 1 { 1 } else { args.threads };
    let profile_phases = args.bench_json.is_some();
    let runs: Vec<CellRun> = run_grid(&cells, threads, |cell| {
        let setup_start = Instant::now();
        let mut sim = cell.build(&base);
        if profile_phases {
            sim.enable_phase_profiling();
        }
        let setup_secs = setup_start.elapsed().as_secs_f64();
        let run_start = Instant::now();
        let report = sim.run();
        let perf = sim.run_perf(setup_secs, run_start.elapsed().as_secs_f64());
        (report, perf)
    });

    if let Some(path) = &args.bench_json {
        let records = runs
            .iter()
            .map(|(report, perf)| perf_record(args.seed, report, perf))
            .collect();
        written(path, std::fs::write(path, one_or_many(records).to_pretty()));
        eprintln!("wrote perf record to {path}");
    }

    if cells.len() != 1 {
        if args.json {
            let reports = runs.iter().map(|(report, _)| report.to_json()).collect();
            println!("{}", JsonValue::Array(reports).to_pretty());
        } else if args.policies.len() == 1 && args.op_sweep.is_empty() {
            // The classic benchmark-only sweep table, unchanged.
            println!(
                "{:<12}{:>10}{:>8}{:>10}{:>10}{:>12}",
                "benchmark", "IOPS", "WAF", "FGC", "BGC blk", "p99 µs"
            );
            for (report, _) in &runs {
                println!(
                    "{:<12}{:>10.0}{:>8}{:>10}{:>10}{:>12}",
                    report.workload,
                    report.iops,
                    fmt_waf(report.waf),
                    report.fgc_request_stalls + report.fgc_flush_stalls,
                    report.bgc_blocks,
                    report.latency_p99_us
                );
            }
        } else {
            print_sweep_table(&base.system, &cells, &runs);
        }
        return;
    }
    let (report, _) = runs.into_iter().next().expect("a single cell ran");

    if let Some(path) = &args.timeline {
        let mut csv = String::from(
            "t_secs,free_pages,target_pages,host_pages_interval,fgc_cumulative,bgc_blocks_cumulative,waf\n",
        );
        for s in &report.timeline {
            csv.push_str(&format!(
                "{:.3},{},{},{},{},{},{:.4}\n",
                s.t_secs,
                s.free_pages,
                s.target_pages,
                s.host_pages_interval,
                s.fgc_cumulative,
                s.bgc_blocks_cumulative,
                s.waf
            ));
        }
        written(path, std::fs::write(path, csv));
        eprintln!("wrote {} interval samples to {path}", report.timeline.len());
    }

    if args.json {
        println!("{}", report.to_json().to_pretty());
        return;
    }
    println!("policy          {}", report.policy);
    println!("workload        {}", report.workload);
    println!("victim          {}", report.victim_policy);
    println!("duration        {:.1} s", report.duration_secs);
    println!("requests        {}", report.ops);
    println!("IOPS            {:.0}", report.iops);
    println!("WAF             {}", fmt_waf(report.waf));
    println!("erases          {}", report.nand_erases);
    println!(
        "wear            min {} / mean {:.1} / max {} (σ {:.2})",
        report.wear.min, report.wear.mean, report.wear.max, report.wear.std_dev
    );
    println!(
        "FGC stalls      {} requests + {} flush episodes",
        report.fgc_request_stalls, report.fgc_flush_stalls
    );
    println!("throttled       {}", report.throttled_requests);
    println!("BGC blocks      {}", report.bgc_blocks);
    println!("GC migrations   {}", report.gc_pages_migrated);
    println!(
        "latency (µs)    mean {} / p50 {} / p99 {} / p999 {} / max {}",
        report.latency_mean_us,
        report.latency_p50_us,
        report.latency_p99_us,
        report.latency_p999_us,
        report.latency_max_us
    );
    if let Some(acc) = report.prediction_accuracy_percent {
        println!("prediction      {acc:.1} %");
    }
    if let Some(sip) = report.sip_filtered_fraction {
        println!("SIP filtered    {:.1} %", sip * 100.0);
    }
    if let Some(hit) = report.cache_hit_ratio {
        println!("cache hits      {:.1} %", hit * 100.0);
    }
    if let Some(d) = &report.degraded {
        println!(
            "degraded        read-only {} / retired {} blocks / {} program retries / {} read failures",
            d.read_only,
            d.retired_blocks,
            d.program_retries,
            d.gc_read_failures + d.host_read_failures
        );
        if let (Some(at), Some(bytes)) = (d.read_only_at_secs, d.lifetime_host_bytes) {
            println!("lifetime        {bytes} host bytes accepted before read-only at {at:.1} s");
        }
    }
}
