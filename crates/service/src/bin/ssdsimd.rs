//! `ssdsimd` — run the multi-tenant queue-pair service from the command
//! line: either the deterministic in-process closed-loop demo mix, or a
//! wire-protocol server over TCP / Unix sockets.
//!
//! ```text
//! ssdsimd [OPTIONS]
//!   --tenants name:profile:weight:iops:conc[,…]
//!                          the tenant roster; profile is
//!                          reader|writer|mixed, weight a positive
//!                          integer, iops the mean closed-loop arrival
//!                          rate, conc the application threads
//!                          (1 to 65536)
//!                          (default writer:writer:1:1200:8,
//!                                   reader:reader:4:400:2,
//!                                   mixed:mixed:2:400:2)
//!   --policy <none|lbgc|abgc|adp|idle|jit|jit-nosip>  (default jit)
//!   --seconds <N>          simulated seconds per tenant stream (default 60),
//!                          1 ..= 2^62 µs (4611686018427 s)
//!   --seed <N>             base RNG seed                      (default 42)
//!   --sq-depth <N>         per-tenant submission-queue depth  (default 64)
//!   --dispatch-window <N>  device-side in-flight request cap  (default 32)
//!   --tier-yellow <F>      Yellow entry threshold             (default 0.50)
//!   --tier-red <F>         Red entry threshold                (default 0.75)
//!   --tier-black <F>       Black entry threshold              (default 0.90)
//!   --tier-hysteresis <F>  margin below entry to leave a tier (default 0.05)
//!   --no-backpressure      track tiers but never defer or shed
//!   --small                use the small test device (default: default_sim);
//!                          the aging choice stays, so `--small` and
//!                          `--no-prefill` commute
//!   --no-prefill           start from an erased device (default: aged)
//!   --json                 emit the deterministic service report as JSON
//!   --listen <addr>        serve the wire protocol on a TCP address
//!                          instead of running the in-process demo
//!   --unix <path>          serve on a Unix socket (unix only)
//!   --sessions <N>         wire sessions to serve before reporting
//!                          (default: the tenant count)
//! ```
//!
//! Every knob is validated up front; a bad value names the offending knob
//! on stderr and exits 2.

use jitgc_core::policy::PolicyKind;
use jitgc_core::system::SystemConfig;
use jitgc_service::{
    run_closed_loop, serve, Endpoint, Service, ServiceConfig, ServiceReport, TenantProfile,
    TenantSpec,
};
use jitgc_sim::SimTime;

struct Args {
    policy: PolicyKind,
    json: bool,
    listen: Option<String>,
    unix: Option<String>,
    sessions: Option<usize>,
}

fn usage() -> ! {
    eprintln!("usage: ssdsimd [--tenants name:profile:weight:iops:conc[,…]]");
    eprintln!("               [--policy none|lbgc|abgc|adp|idle|jit|jit-nosip]");
    eprintln!("               [--seconds N] [--seed N] [--sq-depth N]");
    eprintln!("               [--dispatch-window N] [--tier-yellow F] [--tier-red F]");
    eprintln!("               [--tier-black F] [--tier-hysteresis F]");
    eprintln!("               [--no-backpressure] [--small] [--no-prefill]");
    eprintln!("               [--json]");
    eprintln!("               [--listen ADDR | --unix PATH] [--sessions N]");
    eprintln!("see the module docs (`ssdsimd.rs`) for value sets");
    std::process::exit(2)
}

fn fail(message: String) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}

/// Maps a `--policy` value onto the policy it selects.
fn parse_policy(v: &str) -> PolicyKind {
    match v {
        "none" => PolicyKind::NoBgc,
        "lbgc" => PolicyKind::L_BGC,
        "abgc" => PolicyKind::A_BGC,
        "adp" => PolicyKind::Adp,
        "idle" => PolicyKind::Idle,
        "jit" => PolicyKind::Jit,
        "jit-nosip" => PolicyKind::JitNoSip,
        _ => fail(format!("unknown policy: {v}")),
    }
}

/// Parses one `name:profile:weight:iops:conc` tenant token, naming the
/// offending field on error.
fn parse_tenant(token: &str) -> TenantSpec {
    let parts: Vec<&str> = token.split(':').collect();
    if parts.len() != 5 {
        fail(format!(
            "tenant `{token}` must be name:profile:weight:iops:concurrency"
        ));
    }
    let profile = TenantProfile::parse(parts[1]).unwrap_or_else(|| {
        fail(format!(
            "tenant `{}` has unknown profile `{}` (reader|writer|mixed)",
            parts[0], parts[1]
        ))
    });
    let weight = parts[2].parse().unwrap_or_else(|_| {
        fail(format!(
            "tenant `{}` has non-integer weight `{}`",
            parts[0], parts[2]
        ))
    });
    let mean_iops = parts[3].parse().unwrap_or_else(|_| {
        fail(format!(
            "tenant `{}` has non-numeric mean IOPS `{}`",
            parts[0], parts[3]
        ))
    });
    let concurrency = parts[4].parse().unwrap_or_else(|_| {
        fail(format!(
            "tenant `{}` has non-integer concurrency `{}`",
            parts[0], parts[4]
        ))
    });
    TenantSpec {
        name: parts[0].to_string(),
        weight,
        profile,
        mean_iops,
        concurrency,
    }
}

/// Parses the command line into the daemon's own flags and the service
/// they configure: each service flag writes its key into one base
/// configuration (60 s on the `default_sim` device, SQ depth 64, window
/// 32, the rest as [`ServiceConfig::small_for_tests`]).
fn parse_args() -> (Args, ServiceConfig) {
    let mut args = Args {
        policy: PolicyKind::Jit,
        json: false,
        listen: None,
        unix: None,
        sessions: None,
    };
    let mut cfg = ServiceConfig {
        seconds: 60,
        sq_depth: 64,
        dispatch_window: 32,
        system: SystemConfig::default_sim(),
        ..ServiceConfig::small_for_tests()
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--tenants" => cfg.tenants = value().split(',').map(parse_tenant).collect(),
            "--policy" => args.policy = parse_policy(&value()),
            "--seconds" => cfg.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--seed" => cfg.seed = value().parse().unwrap_or_else(|_| usage()),
            "--sq-depth" => cfg.sq_depth = value().parse().unwrap_or_else(|_| usage()),
            "--dispatch-window" => {
                cfg.dispatch_window = value().parse().unwrap_or_else(|_| usage())
            }
            "--tier-yellow" => cfg.tiers.yellow = value().parse().unwrap_or_else(|_| usage()),
            "--tier-red" => cfg.tiers.red = value().parse().unwrap_or_else(|_| usage()),
            "--tier-black" => cfg.tiers.black = value().parse().unwrap_or_else(|_| usage()),
            "--tier-hysteresis" => {
                cfg.tiers.hysteresis = value().parse().unwrap_or_else(|_| usage())
            }
            "--no-backpressure" => cfg.backpressure = false,
            // The small device keeps the aging choice, so `--small` and
            // `--no-prefill` commute.
            "--small" => {
                cfg.system = SystemConfig {
                    prefill: cfg.system.prefill,
                    ..SystemConfig::small_for_tests()
                }
            }
            "--no-prefill" => cfg.system.prefill = false,
            "--json" => args.json = true,
            "--listen" => args.listen = Some(value()),
            "--unix" => args.unix = Some(value()),
            "--sessions" => args.sessions = Some(value().parse().unwrap_or_else(|_| usage())),
            "--help" | "-h" => usage(),
            other => fail(format!("unknown flag: {other}")),
        }
    }
    (args, cfg)
}

fn fmt_opt(v: Option<u64>) -> String {
    v.map_or_else(|| "n/a".to_owned(), |v| v.to_string())
}

fn print_table(report: &ServiceReport) {
    println!("policy          {}", report.device.policy);
    println!(
        "service         {} tenants, SQ depth {}, window {}, backpressure {}",
        report.tenants.len(),
        report.sq_depth,
        report.dispatch_window,
        if report.backpressure { "on" } else { "off" }
    );
    println!(
        "tiers           green {:.3}s / yellow {:.3}s / red {:.3}s / black {:.3}s ({} transitions)",
        report.tier.residency_us[0] as f64 / 1e6,
        report.tier.residency_us[1] as f64 / 1e6,
        report.tier.residency_us[2] as f64 / 1e6,
        report.tier.residency_us[3] as f64 / 1e6,
        report.tier.transitions.len() - 1
    );
    println!(
        "device          WAF {} / FGC {} / p999 {} µs",
        report
            .device
            .waf
            .map_or_else(|| "n/a".to_owned(), |w| format!("{w:.3}")),
        report.device.fgc_request_stalls + report.device.fgc_flush_stalls,
        report.device.latency_p999_us
    );
    println!(
        "{:<10}{:>7}{:>8}{:>10}{:>8}{:>9}{:>9}{:>8}{:>10}{:>10}",
        "tenant", "weight", "share", "done", "shed", "defer", "waf", "p50", "p999 µs", "max µs"
    );
    for t in &report.tenants {
        println!(
            "{:<10}{:>7}{:>8}{:>10}{:>8}{:>9}{:>9}{:>8}{:>10}{:>10}",
            t.name,
            t.weight,
            t.served_share
                .map_or_else(|| "n/a".to_owned(), |s| format!("{:.1}%", s * 100.0)),
            t.completed,
            t.shed,
            t.deferred,
            t.waf
                .map_or_else(|| "n/a".to_owned(), |w| format!("{w:.2}")),
            fmt_opt(t.latency_p50_us),
            fmt_opt(t.latency_p999_us),
            fmt_opt(t.latency_max_us),
        );
    }
}

fn main() {
    let (args, cfg) = parse_args();
    if let Err(message) = cfg.validate() {
        fail(message);
    }
    if args.listen.is_some() && args.unix.is_some() {
        fail("--listen and --unix are mutually exclusive".into());
    }
    let report = if args.listen.is_some() || args.unix.is_some() {
        let endpoint = if let Some(addr) = &args.listen {
            let listener = std::net::TcpListener::bind(addr)
                .unwrap_or_else(|e| fail(format!("cannot listen on {addr}: {e}")));
            eprintln!(
                "listening on {}",
                listener.local_addr().expect("bound socket has an address")
            );
            Endpoint::Tcp(listener)
        } else {
            #[cfg(unix)]
            {
                let path = args.unix.as_deref().expect("checked above");
                let listener = std::os::unix::net::UnixListener::bind(path)
                    .unwrap_or_else(|e| fail(format!("cannot listen on {path}: {e}")));
                eprintln!("listening on {path}");
                Endpoint::Unix(listener)
            }
            #[cfg(not(unix))]
            fail("--unix requires a unix platform".into())
        };
        let sessions = args.sessions.unwrap_or(cfg.tenants.len());
        let seconds = cfg.seconds;
        let policy = args.policy.build(&cfg.system);
        let service = Service::new(cfg, policy);
        let served = serve(endpoint, service, sessions);
        // The socket file is this run's own once bound; a file already at
        // the path when it started is never removed (it may be a live
        // server's).
        if let Some(path) = &args.unix {
            let _ = std::fs::remove_file(path);
        }
        let mut service = served.unwrap_or_else(|e| fail(format!("serve failed: {e}")));
        service.finalize(SimTime::from_secs(seconds))
    } else {
        run_closed_loop(&cfg, args.policy.build(&cfg.system))
    };
    if args.json {
        println!("{}", report.to_json().to_pretty());
    } else {
        print_table(&report);
    }
}
