//! End-to-end smoke tests for the multi-tenant service: determinism per
//! seed, backpressure shedding, accounting invariants, and the wire
//! protocol over a Unix socket. The closed loop's identity with the
//! materialising reference is `service_properties.rs`'s.

use jitgc_service::{run_closed_loop, PolicyChoice, Service, ServiceConfig, SubmitOutcome, Tier};
use jitgc_workload::IoKind;

/// A fast configuration: short run, no prefill aging.
fn quick() -> ServiceConfig {
    let mut cfg = ServiceConfig::small_for_tests();
    cfg.seconds = 2;
    cfg.system.prefill = false;
    cfg
}

fn run(cfg: &ServiceConfig) -> jitgc_service::ServiceReport {
    run_closed_loop(cfg, PolicyChoice::Jit.build(&cfg.system))
}

#[test]
fn same_seed_reproduces_and_seeds_differ() {
    let cfg = quick();
    let a = run(&cfg).to_json().to_pretty();
    let b = run(&cfg).to_json().to_pretty();
    assert_eq!(a, b, "same seed must reproduce byte-identically");
    let mut other = quick();
    other.seed = 43;
    let c = run(&other).to_json().to_pretty();
    assert_ne!(a, c, "different seeds should produce different runs");
}

#[test]
fn shallow_queues_shed_with_busy_completions() {
    let mut cfg = quick();
    cfg.sq_depth = 2;
    cfg.dispatch_window = 1;
    let report = run(&cfg);
    let shed: u64 = report.tenants.iter().map(|t| t.shed).sum();
    assert!(shed > 0, "2-deep SQs under this mix must shed");
    // Shedding requires at least reaching Red.
    assert!(
        report.tier.residency_us[2] + report.tier.residency_us[3] > 0,
        "sheds happened, so Red or Black residency must be nonzero"
    );
    // The reader never sheds: only writes are shed and it submits none.
    let reader = report.tenant("reader").expect("reader exists");
    assert_eq!(reader.shed, 0);
}

#[test]
fn accounting_and_tier_timeline_are_consistent() {
    let report = run(&quick());
    for t in &report.tenants {
        assert_eq!(
            t.submitted,
            t.completed + t.shed,
            "tenant {}: every submission completes or sheds",
            t.name
        );
        assert_eq!(t.submitted, t.reads + t.writes + t.trims);
    }
    assert_eq!(
        report.tier.residency_us.iter().sum::<u64>(),
        report.duration_us,
        "tier residency partitions the run"
    );
    let shares: f64 = report.tenants.iter().filter_map(|t| t.served_share).sum();
    assert!((shares - 1.0).abs() < 1e-9, "served shares sum to 1");
    let weights: f64 = report.tenants.iter().map(|t| t.weight_share).sum();
    assert!((weights - 1.0).abs() < 1e-9, "weight shares sum to 1");
}

#[test]
fn backpressure_off_still_reports_tiers_but_never_sheds() {
    let mut cfg = quick();
    cfg.sq_depth = 2;
    cfg.dispatch_window = 1;
    cfg.backpressure = false;
    let report = run(&cfg);
    assert_eq!(report.tenants.iter().map(|t| t.shed).sum::<u64>(), 0);
    assert_eq!(report.tenants.iter().map(|t| t.deferred).sum::<u64>(), 0);
}

#[cfg(unix)]
#[test]
fn wire_protocol_round_trips_over_a_unix_socket() {
    use jitgc_service::{serve, Client, CompletionStatus, Endpoint};
    use jitgc_sim::SimTime;

    let mut cfg = quick();
    cfg.system.prefill = false;
    let seconds = cfg.seconds;
    let path =
        std::env::temp_dir().join(format!("jitgc-service-smoke-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let listener = std::os::unix::net::UnixListener::bind(&path).expect("bind unix socket");
    let service = Service::new(cfg, PolicyChoice::Jit.build(&quick().system));

    let client_path = path.clone();
    let client = std::thread::spawn(move || {
        let mut c = Client::connect_unix(&client_path).expect("connect");
        let tenant = c.hello("reader", 4).expect("hello");
        assert_eq!(tenant, 1, "reader is roster index 1");
        for id in 0..8u64 {
            c.submit(id, IoKind::Read, id * 4, 2).expect("submit");
        }
        let mut done = 0;
        while done < 8 {
            let (id, status) = c.next_completion().expect("completion");
            assert!(id < 8);
            assert_eq!(status, CompletionStatus::Done);
            done += 1;
        }
        c.bye().expect("bye");
    });

    let mut service = serve(Endpoint::Unix(listener), service, 1).expect("serve");
    client.join().expect("client thread");
    let report = service.finalize(SimTime::from_secs(seconds));
    let reader = report.tenant("reader").expect("reader exists");
    assert_eq!(reader.completed, 8);
    assert_eq!(reader.shed, 0);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn black_tier_is_reachable_and_recovers() {
    let mut cfg = quick();
    cfg.sq_depth = 4;
    let mut svc = Service::new(cfg, PolicyChoice::Jit.build(&quick().system));
    let now = jitgc_sim::SimTime::from_millis(1);
    for i in 0..64 {
        let _ = svc.submit(0, IoKind::Read, i, 1, now);
    }
    assert_eq!(svc.tier(), Tier::Black);
    let out = svc.submit(2, IoKind::BufferedWrite, 0, 1, now);
    assert!(matches!(out, SubmitOutcome::Shed(_)));
    // Drain everything; the tier must fall back to Green.
    let mut t = now;
    while svc.has_queued() {
        svc.pump(t);
        t = svc
            .next_window_free()
            .unwrap_or(t + jitgc_sim::SimDuration::from_millis(1));
    }
    svc.pump(t);
    let report = svc.finalize(jitgc_sim::SimTime::from_secs(1));
    assert_eq!(report.tier.final_tier, Tier::Green);
}
