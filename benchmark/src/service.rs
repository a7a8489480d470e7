//! `service_tenants`: the multi-tenant daemon, in process and on the wire.
//!
//! Phase `inproc` is the deterministic closed loop (`run_closed_loop`) on
//! the daemon's default roster; it alone feeds the end-to-end metrics.
//! Phase `wire` runs in the traced run only: one Unix-socket session is
//! served from a thread of this process while this thread plays tenant
//! `mixed` with a fixed number of requests outstanding. Every wire
//! request crosses four threads, and on a 2-core host its cost swings
//! several-fold between identical runs with how the scheduler places
//! them, so its readings are layer metrics and are not gated (README).

use crate::hostspeed::{self, HostTime};
use crate::measure::{digest_json, Metrics, Rep, SimTotals};
use crate::trace::{Tracer, BENCH_LAYER};
use jitgc_core::system::SystemConfig;
use jitgc_service::{
    run_closed_loop_counting, serve, Client, CompletionStatus, Endpoint, PolicyChoice, Service,
    ServiceConfig, ServiceReport, TenantProfile, TenantSpec, Tier, TierThresholds,
};
use jitgc_sim::{SimDuration, SimRng, SimTime};
use jitgc_workload::{IoKind, IoRequest, Synthetic, Workload, WorkloadConfig};
use std::collections::HashMap;
use std::os::unix::net::{UnixListener, UnixStream};
use std::time::{Duration, Instant};

const INPROC_SECONDS: u64 = 1_500;
const WIRE_REQUESTS: u64 = 200_000;
const WIRE_OUTSTANDING: u64 = 8;
const WIRE_TENANT: &str = "mixed";

/// `ssdsimd`'s defaults: its roster, queue depths and tiers, JIT-GC,
/// backpressure on, the aged `default_sim` device.
fn config(seed: u64) -> ServiceConfig {
    let tenant = |name: &str, weight, profile, mean_iops, concurrency| TenantSpec {
        name: name.into(),
        weight,
        profile,
        mean_iops,
        concurrency,
    };
    ServiceConfig {
        tenants: vec![
            tenant("writer", 1, TenantProfile::Writer, 1_200.0, 8),
            tenant("reader", 4, TenantProfile::Reader, 400.0, 2),
            tenant(WIRE_TENANT, 2, TenantProfile::Mixed, 400.0, 2),
        ],
        sq_depth: 64,
        dispatch_window: 32,
        tiers: TierThresholds::default(),
        backpressure: true,
        worker_threads: 1,
        fast_forward: true,
        seconds: INPROC_SECONDS,
        seed,
        system: SystemConfig::default_sim(),
    }
}

fn policy(cfg: &ServiceConfig) -> Box<dyn jitgc_core::policy::GcPolicy> {
    hostspeed::paced(PolicyChoice::Jit.build(&cfg.system))
}

/// `run_closed_loop` sets up inside its one call, so set-up is timed on
/// its own here, through the same public calls: every tenant's request
/// stream, then the service over an aged device.
pub fn setup_only(seed: u64) -> HostTime {
    let cfg = config(seed);
    let start = Instant::now();
    for tenant in 0..cfg.tenants.len() {
        std::hint::black_box(tenant_trace(&cfg, tenant));
    }
    std::hint::black_box(Service::new(cfg.clone(), policy(&cfg)));
    hostspeed::since(start)
}

fn check(report: &ServiceReport) -> u64 {
    let mut failed = crate::cells::check_report("service device", &report.device, None);
    for t in &report.tenants {
        if t.submitted != t.completed + t.shed {
            eprintln!("CHECK FAILED [{}]: submissions leaked", t.name);
            failed += 1;
        }
    }
    failed
}

/// Runs `f` — as a `service` span when the run is traced, so that the
/// untraced reference calls of the traced run are not left on the harness.
fn spanned<T>(
    traced: &mut Option<(&mut Tracer, &mut Metrics)>,
    name: &str,
    f: impl FnOnce() -> T,
) -> T {
    match traced {
        Some((tracer, _)) => tracer.span(name, "service", f),
        None => f(),
    }
}

pub fn repetition(seed: u64, mut traced: Option<(&mut Tracer, &mut Metrics)>) -> Rep {
    let setup = spanned(&mut traced, "reference: set-up alone", || setup_only(seed));
    let wall = Instant::now();
    let cfg = config(seed);
    let (report, _, _) = spanned(&mut traced, "reference: run_closed_loop", || {
        run_closed_loop_counting(&cfg, policy(&cfg))
    });
    let inproc = hostspeed::since(wall);
    let submitted: u64 = report.tenants.iter().map(|t| t.submitted).sum();
    let mut rep = Rep {
        setup,
        run: inproc,
        sim_ops: submitted,
        sim_secs: report.duration_us as f64 / 1e6,
        attempted: submitted,
        failed: check(&report),
        digest: digest_json(&[report.to_json().to_compact()]),
        ..Rep::default()
    };
    rep.wall = hostspeed::between(wall, Instant::now());

    if let Some((tracer, metrics)) = traced {
        // The traced repetition's run is the harness-owned loop, so that
        // it compares with `run_closed_loop` as traced against untraced.
        let start = Instant::now();
        let replica = replica_closed_loop(&cfg, tracer);
        rep.run = start.elapsed().into();
        if replica != report {
            eprintln!(
                "CHECK FAILED [service]: the traced closed loop's report differs from \
                 run_closed_loop's"
            );
            rep.failed += 1;
        }
        let wire = wire_phase(seed, tracer);
        rep.attempted += wire.submitted;
        rep.failed += wire.errors;
        record(metrics, &report, rep.digest, inproc.wall, &wire);
    }
    rep
}

fn record(
    m: &mut Metrics,
    report: &ServiceReport,
    digest: u64,
    inproc: Duration,
    wire: &WireOutcome,
) {
    let mut totals = SimTotals::default();
    totals.add(&report.device);
    totals.set_jit(&report.device, None);
    totals.record(m, digest);
    let sum =
        |f: fn(&jitgc_service::TenantReport) -> u64| -> u64 { report.tenants.iter().map(f).sum() };
    let submitted = sum(|t| t.submitted);
    m.set("workload.requests", submitted as f64);
    m.set(
        "service.shed_share",
        sum(|t| t.shed) as f64 / submitted.max(1) as f64,
    );
    m.set("service.deferred", sum(|t| t.deferred) as f64);
    let residency = report.tier.residency_us;
    m.set(
        "service.red_black_s",
        (residency[Tier::Red.index()] + residency[Tier::Black.index()]) as f64 / 1e6,
    );
    let reader = report.tenant("reader").and_then(|t| t.latency_p999_us);
    m.set("service.reader_p999_us", reader.unwrap_or(0) as f64);
    m.set(
        "service.svc_req_per_s",
        submitted as f64 / inproc.as_secs_f64(),
    );

    let completed = wire.completed.max(1) as f64;
    m.set("service.wire_cpu_us_per_req", wire.cpu_s * 1e6 / completed);
    m.set(
        "service.net.req_per_s",
        wire.completed as f64 / wire.run.as_secs_f64(),
    );
    let mut rtts = wire.rtts.clone();
    rtts.sort_unstable();
    let quantile = |q: f64| -> f64 {
        let at = ((rtts.len() as f64 * q) as usize).min(rtts.len().saturating_sub(1));
        rtts.get(at).map_or(0.0, |&ns| ns as f64 / 1e3)
    };
    m.set("service.net.rtt_p50_us", quantile(0.50));
    m.set("service.net.rtt_p99_us", quantile(0.99));
    m.set(
        "service.net.not_done_share",
        wire.not_done as f64 / completed,
    );
}

// ----------------------------------------------------------------------
// Wire phase (traced run only)
// ----------------------------------------------------------------------

/// What the client side of the wire phase saw.
#[derive(Default)]
struct WireOutcome {
    run: Duration,
    /// Process CPU seconds (utime + stime: server threads and client).
    cpu_s: f64,
    submitted: u64,
    completed: u64,
    not_done: u64,
    errors: u64,
    /// Client-side round trips in ns, one per completion.
    rtts: Vec<u64>,
}

/// The client side of the wire phase: a seeded request mix and the
/// bookkeeping of what was sent and what came back.
struct WireClient {
    client: Client<UnixStream>,
    rng: SimRng,
    /// Logical pages the client's tenant owns.
    pages: u64,
    sent_at: HashMap<u64, Instant>,
    out: WireOutcome,
}

impl WireClient {
    /// 70 % reads and 30 % direct writes, 1-4 pages each.
    fn submit(&mut self) {
        let kind = if self.rng.chance(0.7) {
            IoKind::Read
        } else {
            IoKind::DirectWrite
        };
        let span = self.rng.range_u64(1, 5);
        let lpn = self.rng.range_u64(0, self.pages - span);
        let id = self.out.submitted;
        self.sent_at.insert(id, Instant::now());
        match self.client.submit(id, kind, lpn, span as u32) {
            Ok(()) => self.out.submitted += 1,
            Err(_) => self.out.errors += 1,
        }
    }

    fn complete(&mut self) {
        match self.client.next_completion() {
            Ok((id, status)) => {
                self.out.completed += 1;
                self.out.not_done += u64::from(status != CompletionStatus::Done);
                if let Some(sent) = self.sent_at.remove(&id) {
                    self.out.rtts.push(sent.elapsed().as_nanos() as u64);
                }
            }
            Err(_) => self.out.errors += 1,
        }
    }
}

/// Serves one session on a Unix socket from a thread of this process and
/// drives it with one closed-loop client: `WIRE_OUTSTANDING` requests in
/// flight until `WIRE_REQUESTS` were sent.
fn wire_phase(seed: u64, tracer: &mut Tracer) -> WireOutcome {
    tracer.set_cell("wire");
    let cell = tracer.begin("cell", BENCH_LAYER);
    let cfg = config(seed);
    let service = tracer.span("Service::new", "service", || {
        Service::new(cfg.clone(), policy(&cfg))
    });
    let pages = service.pages_per_tenant();
    // Relative to the working directory, so the path stays inside the
    // checkout and well under the 108-byte socket-name limit.
    let path = crate::results_file(&format!("wire-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let connect = tracer.begin("bind + connect + hello", "service");
    let listener = UnixListener::bind(&path).expect("bind the wire socket");
    let served_since = Instant::now();
    let server = std::thread::spawn(move || serve(Endpoint::Unix(listener), service, 1));
    let mut client = Client::connect_unix(&path).expect("connect to the wire socket");
    client
        .hello(WIRE_TENANT, 2)
        .expect("hello as the mixed tenant");
    tracer.end(connect);

    let mut wire = WireClient {
        client,
        rng: SimRng::seed(seed ^ 0x0057_1BE5),
        pages,
        sent_at: HashMap::new(),
        out: WireOutcome::default(),
    };
    let closed_loop = tracer.begin("client closed loop", "service");
    let cpu_before = crate::host::cpu_seconds();
    let start = Instant::now();
    for _ in 0..WIRE_OUTSTANDING {
        wire.submit();
    }
    while wire.out.completed < wire.out.submitted && wire.out.errors == 0 {
        wire.complete();
        if wire.out.submitted < WIRE_REQUESTS && wire.out.errors == 0 {
            wire.submit();
        }
    }
    wire.out.run = start.elapsed();
    wire.out.cpu_s = crate::host::cpu_seconds() - cpu_before;
    tracer.end(closed_loop);

    let WireClient {
        client, mut out, ..
    } = wire;
    let teardown = tracer.begin("bye + join + Service::finalize", "service");
    out.errors += u64::from(client.bye().is_err());
    match server.join() {
        Ok(Ok(mut service)) => {
            // The server's virtual clock follows the wall clock.
            let end = SimTime::from_micros(served_since.elapsed().as_micros() as u64);
            let report = service.finalize(end);
            let answered: u64 = report.tenants.iter().map(|t| t.completed + t.shed).sum();
            if answered != out.submitted {
                eprintln!(
                    "CHECK FAILED [wire]: the server answered {answered} of {} submissions",
                    out.submitted
                );
                out.errors += 1;
            }
        }
        _ => {
            eprintln!("CHECK FAILED [wire]: the server thread failed");
            out.errors += 1;
        }
    }
    let _ = std::fs::remove_file(&path);
    tracer.end(teardown);
    if out.completed != out.submitted {
        eprintln!(
            "CHECK FAILED [wire]: {} completions for {} submissions",
            out.completed, out.submitted
        );
        out.errors += 1;
    }
    tracer.end(cell);
    out
}

// ----------------------------------------------------------------------
// Traced in-process pass
// ----------------------------------------------------------------------

/// Odd 64-bit constant decorrelating tenant seeds, as in the driver.
const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Tenant `tenant`'s request stream, as `run_closed_loop` synthesizes it.
fn tenant_trace(cfg: &ServiceConfig, tenant: usize) -> Vec<IoRequest> {
    let spec = &cfg.tenants[tenant];
    let wl_cfg = WorkloadConfig::builder()
        .working_set_pages(cfg.pages_per_tenant())
        .duration(SimDuration::from_secs(cfg.seconds))
        .mean_iops(spec.mean_iops)
        .seed(
            cfg.seed
                .wrapping_add((tenant as u64).wrapping_mul(SEED_STRIDE)),
        )
        .build();
    let builder = match spec.profile {
        TenantProfile::Reader => Synthetic::builder().read_fraction(1.0).pages(1, 4),
        TenantProfile::Writer => Synthetic::builder()
            .read_fraction(0.0)
            .buffered_fraction(0.7)
            .pages(8, 32),
        TenantProfile::Mixed => Synthetic::builder()
            .read_fraction(0.5)
            .buffered_fraction(0.7)
            .pages(1, 8),
    };
    let mut workload = builder.build(wl_cfg);
    std::iter::from_fn(|| workload.next_request()).collect()
}

/// One tenant's closed-loop state: `concurrency` application threads
/// sharing one stream round-robin.
struct TenantLoop {
    trace: Vec<IoRequest>,
    cursor: usize,
    prev_submit: SimTime,
    /// When each thread may submit again (`None` while it waits).
    slots: Vec<Option<SimTime>>,
    next_slot: usize,
    pending: HashMap<u64, usize>,
}

impl TenantLoop {
    fn next_instant(&self) -> Option<SimTime> {
        let req = self.trace.get(self.cursor)?;
        let free = self.slots[self.next_slot]?;
        Some((self.prev_submit + req.gap).max(free))
    }
}

/// The in-process closed loop, owned by the harness through `Service`'s
/// public API so that trace generation, `Service::new`, the three driver
/// calls and `finalize` are timed apart. Must reproduce
/// `run_closed_loop`'s report byte for byte; the caller checks.
fn replica_closed_loop(cfg: &ServiceConfig, tracer: &mut Tracer) -> ServiceReport {
    tracer.set_cell("inproc");
    let cell = tracer.begin("cell", BENCH_LAYER);
    let traces: Vec<Vec<IoRequest>> = tracer.span("tenant trace generation", "workload", || {
        (0..cfg.tenants.len())
            .map(|i| tenant_trace(cfg, i))
            .collect()
    });
    let mut service = tracer.span("Service::new", "service", || {
        Service::new(cfg.clone(), policy(cfg))
    });
    let mut loops: Vec<TenantLoop> = traces
        .into_iter()
        .zip(&cfg.tenants)
        .map(|(trace, spec)| TenantLoop {
            trace,
            cursor: 0,
            prev_submit: SimTime::ZERO,
            slots: vec![Some(SimTime::ZERO); spec.concurrency as usize],
            next_slot: 0,
            pending: HashMap::new(),
        })
        .collect();

    let run = tracer.begin("run", BENCH_LAYER);
    let (mut submitting, mut pumping, mut taking) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let (mut submits, mut pumps, mut takes) = (0u64, 0u64, 0u64);
    let mut now = SimTime::ZERO;
    let mut last_completion = SimTime::ZERO;
    loop {
        let next_submit = loops.iter().filter_map(TenantLoop::next_instant).min();
        let window_free = if service.has_queued() {
            service.next_window_free()
        } else {
            None
        };
        let event = match (next_submit, window_free) {
            (Some(a), Some(b)) => a.min(b),
            (Some(t), None) | (None, Some(t)) => t,
            (None, None) => break,
        };
        now = now.max(event);
        service.release_window(now);
        let mark = Instant::now();
        for (tenant, l) in loops.iter_mut().enumerate() {
            while matches!(l.next_instant(), Some(t) if t <= now) {
                let req = l.trace[l.cursor];
                l.cursor += 1;
                l.prev_submit = now;
                let slot = l.next_slot;
                l.next_slot = (slot + 1) % l.slots.len();
                l.slots[slot] = None;
                let outcome = service.submit(tenant, req.kind, req.lpn.0, req.pages, now);
                l.pending.insert(outcome.id(), slot);
                submits += 1;
            }
        }
        let submitted = Instant::now();
        service.pump(now);
        pumps += 1;
        let pumped = Instant::now();
        for (tenant, l) in loops.iter_mut().enumerate() {
            for c in service.take_completions(tenant) {
                let slot = l
                    .pending
                    .remove(&c.id)
                    .expect("completion matches a request");
                l.slots[slot] = Some(c.completed_at);
                last_completion = last_completion.max(c.completed_at);
                takes += 1;
            }
        }
        submitting += submitted - mark;
        pumping += pumped - submitted;
        taking += pumped.elapsed();
    }
    tracer.aggregate(
        "service",
        "Service::submit (+ slot bookkeeping)",
        submits,
        submitting,
    );
    tracer.aggregate(
        "service",
        "Service::pump (WFQ pick + engine step)",
        pumps,
        pumping,
    );
    tracer.aggregate("service", "Service::take_completions", takes, taking);
    tracer.end(run);
    let end = last_completion.max(SimTime::from_secs(cfg.seconds));
    let report = tracer.span("Service::finalize", "service", || service.finalize(end));
    tracer.end(cell);
    report
}
