//! Multi-tenant isolation demo: a heavy writer shares one device with a
//! latency-sensitive reader, and tiered backpressure sheds the writer's
//! requests, never the reader's.
//!
//! Runs the same three-tenant mix (one hot writer, one latency-sensitive
//! reader, one mixed tenant) through the queue-pair service under
//! {L-BGC, JIT-GC} × {backpressure on, off} and prints the reader's tail
//! latency next to the writer's shed/deferred counts for each cell.
//!
//! ```sh
//! cargo run --release --example service_tenants [seconds]
//! ```

use jitgc_repro::core::policy::PolicyKind;
use jitgc_repro::service::{run_closed_loop, ServiceConfig, ServiceReport};

fn cell(policy: PolicyKind, backpressure: bool, seconds: u64) -> ServiceReport {
    let mut cfg = ServiceConfig::small_for_tests();
    cfg.seconds = seconds;
    cfg.backpressure = backpressure;
    run_closed_loop(&cfg, policy.build(&cfg.system))
}

fn main() {
    let seconds: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(30);
    println!(
        "three tenants on one device: writer (w=1, 8 threads), \
         reader (w=4, 2 threads), mixed (w=2, 2 threads); {seconds}s"
    );
    println!(
        "{:<10}{:<14}{:>12}{:>12}{:>12}{:>12}{:>12}{:>10}",
        "policy",
        "backpressure",
        "rd p99 µs",
        "rd p999 µs",
        "wr shed",
        "wr defer",
        "device WAF",
        "red+blk s"
    );
    for policy in [PolicyKind::L_BGC, PolicyKind::Jit] {
        for backpressure in [false, true] {
            let report = cell(policy, backpressure, seconds);
            let reader = report.tenant("reader").expect("reader in roster");
            let writer = report.tenant("writer").expect("writer in roster");
            println!(
                "{:<10}{:<14}{:>12}{:>12}{:>12}{:>12}{:>12.3}{:>10.2}",
                report.device.policy,
                if backpressure { "on" } else { "off" },
                reader.latency_p99_us.unwrap_or(0),
                reader.latency_p999_us.unwrap_or(0),
                writer.shed,
                writer.deferred,
                report.device.waf.unwrap_or(f64::NAN),
                (report.tier.residency_us[2] + report.tier.residency_us[3]) as f64 / 1e6,
            );
        }
    }
    println!(
        "\nWith backpressure off nothing is shed or deferred; with it on, \
         only writes are shed, so the reader's requests all complete."
    );
}
