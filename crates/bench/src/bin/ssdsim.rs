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
//!   --hot-cold             enable FTL hot/cold streams (the config's
//!                          hot window, 5 s by default)
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
//!                          (each sets one field of the config's fault
//!                          model; with no model in the config and all
//!                          three at 0, none is installed and every report
//!                          is byte-identical to a build without fault
//!                          injection)
//!   --timeline <path>      write a per-interval CSV time series
//!   --config <path>        load a full SystemConfig from JSON (the last
//!                          one given); a flag on the command line
//!                          overrides its key in the file, and a flag left
//!                          off leaves the file's value
//!   --dump-config <path>   write the effective SystemConfig to JSON and exit
//!   --json                 emit the full SimReport as JSON
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
//!
//! The flags from `--victim` to `--timeline` and `--queue-depth` write
//! their key into the `SystemConfig` being run; their defaults above are
//! `SystemConfig::default_sim`'s, and under `--config` the file's.

use jitgc_array::{GcMode, Redundancy};
use jitgc_bench::{
    default_threads, expand_cells, run_grid, Cell, Experiment, Load, PolicyKind, Report,
    SizingError,
};
use jitgc_core::system::{ClosedLoop, ManagerPlacement, SystemConfig, VictimKind};
use jitgc_nand::FaultConfig;
use jitgc_sim::json::JsonValue;
use jitgc_sim::SimDuration;
use jitgc_workload::{ArrivalError, BenchmarkKind, WorkloadConfig};

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
    timeline: Option<String>,
    config: Option<String>,
    dump_config: Option<String>,
    json: bool,
    array: Option<usize>,
    stripe_kb: u64,
    mirror: bool,
    gc_mode: GcMode,
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
            timeline: None,
            config: None,
            dump_config: None,
            json: false,
            array: None,
            stripe_kb: 64,
            mirror: false,
            gc_mode: GcMode::Staggered,
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

/// A breach of the workload's arrival rule
/// ([`check_arrival`](jitgc_workload::WorkloadConfigBuilder::check_arrival))
/// by `--seconds`, `--iops` and `--burst`, the rate spread over `columns`
/// stripe columns (1 on one device): names the flags and exits 2.
fn arrival_rejected(args: &Args, columns: u64, rule: ArrivalError) -> ! {
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

/// The `--config` file, or exit 2 naming it.
fn load_config(path: &str) -> SystemConfig {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2)
    });
    JsonValue::parse(&text)
        .and_then(|value| SystemConfig::from_json(&value))
        .unwrap_or_else(|e| {
            eprintln!("cannot parse {path}: {e}");
            std::process::exit(2)
        })
}

/// Parses the command line into the run's flags and the system they
/// configure. The last `--config` file (or `default_sim`) loads first;
/// each system flag then writes its own key into it, so a flag on the
/// command line overrides the file and a flag left off leaves it.
fn parse_args() -> (Args, SystemConfig) {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut system = match argv.iter().rposition(|a| a == "--config") {
        Some(at) => load_config(argv.get(at + 1).unwrap_or_else(|| usage())),
        None => SystemConfig::default_sim(),
    };
    // The `--fault-*` flags edit the config's fault model, or an inert
    // default when the config has none.
    let mut fault = system.ftl.fault().copied();
    let mut args = Args::default();
    let mut it = argv.into_iter();
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
            "--victim" => system.victim = parse_victim(&value()),
            "--no-prefill" => system.prefill = false,
            "--hot-cold" => {
                let window = system.ftl.hot_window();
                system.ftl = system.ftl.to_builder().hot_cold_streams(window).build()
            }
            "--strict-tau-flush" => system.strict_tau_flush = true,
            "--wear-leveling" => system.wear_leveling = true,
            "--in-device-manager" => system.manager_placement = ManagerPlacement::Device,
            "--endurance" => {
                let limit = value().parse().unwrap_or_else(|_| usage());
                system.ftl = system.ftl.to_builder().endurance_limit(limit).build()
            }
            "--fault-seed" => {
                fault.get_or_insert_default().seed = value().parse().unwrap_or_else(|_| usage())
            }
            "--fault-program" => {
                fault.get_or_insert_default().program_rate = parse_fault_rate(&flag, &value())
            }
            "--fault-erase" => {
                fault.get_or_insert_default().erase_rate = parse_fault_rate(&flag, &value())
            }
            "--fault-read" => {
                fault.get_or_insert_default().read_rate = parse_fault_rate(&flag, &value())
            }
            "--timeline" => {
                args.timeline = Some(value());
                system.record_timeline = true
            }
            // Loaded above; the path stays for diagnostics.
            "--config" => args.config = Some(value()),
            "--dump-config" => args.dump_config = Some(value()),
            "--json" => args.json = true,
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
            "--queue-depth" => {
                let qd: u64 = value().parse().unwrap_or_else(|_| usage());
                system.queue_depth = ClosedLoop::check_threads(qd).unwrap_or_else(|rule| {
                    eprintln!("--queue-depth {qd}: the thread count {rule}");
                    std::process::exit(2)
                })
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage()
            }
        }
    }
    // Fault flags that leave every rate at zero on a device without a
    // model install none, so the run is byte-identical to a fault-free one.
    if let Some(fault) = fault.filter(|f| f.is_active() || system.ftl.fault().is_some()) {
        system.ftl = system.ftl.to_builder().fault(fault).build();
    }
    let arrival = WorkloadConfig::builder()
        .seconds(args.seconds)
        .mean_iops(args.iops)
        .burst_mean(args.burst);
    if let Err(rule) = arrival.check_arrival() {
        arrival_rejected(&args, 1, rule)
    }
    (args, system)
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

/// A lone report prints as an object, several as an array.
fn one_or_many(mut values: Vec<JsonValue>) -> JsonValue {
    if values.len() == 1 {
        values.remove(0)
    } else {
        JsonValue::Array(values)
    }
}

/// A cell whose workload cannot be sized: exits 2 naming the flag that
/// set an over-provisioning no working set survives, a rate the arrival
/// rule refuses, or an array too wide for the volume.
fn sizing_rejected(args: &Args, cell: &Cell, e: SizingError) -> ! {
    match e {
        SizingError::Arrival { columns, rule } => arrival_rejected(args, columns, rule),
        SizingError::Volume { .. } => eprintln!("--array {}: {e}", args.array.unwrap_or(1)),
        SizingError::WorkingSet(_) => match (args.op_sweep.is_empty(), &args.config) {
            (false, _) => eprintln!("--op-sweep {}: {e}", cell.exp.system.ftl.op_permille()),
            (true, Some(path)) => eprintln!("--config {path}: {e}"),
            (true, None) => eprintln!("{e}"),
        },
    }
    std::process::exit(2)
}

/// The `--stripe-kb` chunk in pages, or exit 2 naming the flag: a chunk
/// is a whole number of pages (a non-multiple would silently truncate
/// the requested size) and its byte count fits 64 bits.
fn chunk_pages(args: &Args, system: &SystemConfig) -> u64 {
    let page_size = system.ftl.geometry().page_size().as_u64();
    let Some(bytes) = args.stripe_kb.checked_mul(1024) else {
        eprintln!(
            "--stripe-kb {}: the chunk's byte count does not fit in 64 bits",
            args.stripe_kb
        );
        std::process::exit(2)
    };
    if !bytes.is_multiple_of(page_size) {
        eprintln!(
            "--stripe-kb {} is not a multiple of the {page_size}-byte page size",
            args.stripe_kb
        );
        std::process::exit(2)
    }
    bytes / page_size
}

/// The text report of device cells: the detailed report of one, a
/// summary table of several.
fn print_device_text(args: &Args, cells: &[Cell], reports: &[Report]) {
    if cells.len() != 1 {
        if args.policies.len() == 1 && args.op_sweep.is_empty() {
            // The classic benchmark-only sweep table, unchanged.
            println!(
                "{:<12}{:>10}{:>8}{:>10}{:>10}{:>12}",
                "benchmark", "IOPS", "WAF", "FGC", "BGC blk", "p99 µs"
            );
            for report in reports.iter().map(Report::device) {
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
            // The extended sweep table: policy and OP columns included.
            println!(
                "{:<12}{:<16}{:>6}{:>10}{:>8}{:>10}{:>12}",
                "benchmark", "policy", "OP\u{2030}", "IOPS", "WAF", "FGC", "p99 µs"
            );
            for (cell, report) in cells.iter().zip(reports.iter().map(Report::device)) {
                // Cell labels, not `report.policy`: ablation variants
                // (e.g. JIT-GC without SIP) self-report the base
                // policy's name.
                println!(
                    "{:<12}{:<16}{:>6}{:>10.0}{:>8}{:>10}{:>12}",
                    report.workload,
                    cell.policy.name(),
                    cell.exp.system.ftl.op_permille(),
                    report.iops,
                    fmt_waf(report.waf),
                    report.fgc_request_stalls + report.fgc_flush_stalls,
                    report.latency_p99_us
                );
            }
        }
        return;
    }
    let report = reports[0].device();
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

/// The text report of array cells: the detailed report of one, a
/// summary table of several.
fn print_array_text(args: &Args, reports: &[Report]) {
    if reports.len() != 1 {
        println!(
            "{:<12}{:>10}{:>8}{:>10}{:>10}{:>12}{:>12}",
            "benchmark", "IOPS", "WAF", "FGC", "BGC blk", "p99 µs", "p999 µs"
        );
        for report in reports.iter().map(Report::array) {
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
    let report = reports[0].array();
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
    let (args, system) = parse_args();

    if let Some(path) = &args.dump_config {
        written(path, std::fs::write(path, system.to_json().to_pretty()));
        eprintln!("wrote effective config to {path}");
        return;
    }

    // One validation pass over every cell, device or array: a bad value
    // exits 2 naming its flag before anything is built.
    let loads: Vec<Load> = match args.array {
        None => args.benchmarks.iter().map(|&b| Load::Bench(b)).collect(),
        Some(members) => {
            if members == 0 {
                eprintln!("--array needs at least one member");
                std::process::exit(2)
            }
            if args.timeline.is_some() {
                eprintln!("--timeline is not supported with --array");
                std::process::exit(2)
            }
            if args.policies.len() != 1 || !args.op_sweep.is_empty() {
                eprintln!("--array supports a single --policy and no --op-sweep");
                std::process::exit(2)
            }
            let chunk_pages = chunk_pages(&args, &system);
            let redundancy = if args.mirror {
                Redundancy::Mirror
            } else {
                Redundancy::None
            };
            let array = |benchmark| Load::Array {
                benchmark,
                members,
                chunk_pages,
                redundancy,
                gc_mode: args.gc_mode,
            };
            args.benchmarks.iter().map(|&b| array(b)).collect()
        }
    };
    let op_values: Vec<Option<u64>> = if args.op_sweep.is_empty() {
        vec![None]
    } else {
        args.op_sweep.iter().map(|&p| Some(p)).collect()
    };
    let base = Experiment {
        system,
        duration: SimDuration::from_secs(args.seconds),
        mean_iops: args.iops,
        burst_mean: args.burst,
        seed: args.seed,
    };
    let (cells, duplicates) = expand_cells(&base, &loads, &args.policies, &op_values);
    if duplicates > 0 {
        eprintln!("sweep: dropped {duplicates} duplicate cell(s)");
    }
    if cells.len() != 1 && args.timeline.is_some() {
        eprintln!("--timeline requires a single sweep cell");
        std::process::exit(2)
    }
    for cell in &cells {
        // Geometry errors surface here as CLI diagnostics, not as panics
        // deep in the scheduler.
        if let Some(Err(message)) = cell.array().map(|array| array.validate()) {
            eprintln!("invalid array configuration: {message}");
            std::process::exit(2)
        }
        if let Err(e) = cell.workload_config() {
            sizing_rejected(&args, cell, e)
        }
    }
    if let Some(path) = &args.timeline {
        check_writable(path);
    }

    // Each cell is an independent simulation, so the sweep runs the
    // cells across worker threads; results come back in input order
    // regardless of the thread count. A single cell takes the plain
    // serial path inside `run_grid`.
    let threads = if cells.len() == 1 { 1 } else { args.threads };
    let reports = run_grid(&cells, threads, Cell::run);

    if let Some(path) = &args.timeline {
        let report = reports[0].device();
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
        let reports = reports.iter().map(Report::to_json).collect();
        println!("{}", one_or_many(reports).to_pretty());
    } else if args.array.is_some() {
        print_array_text(&args, &reports);
    } else {
        print_device_text(&args, &cells, &reports);
    }
}
