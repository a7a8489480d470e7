//! The benchmark's contract: workloads and metrics by name.
//!
//! `BENCHMARK.json` at the repo root is generated from these tables
//! (`jitgc-perf --emit-spec`), so the names a run prints and the names a
//! driver gates can not drift apart.

use crate::cells::{self, Cell};
use jitgc_sim::json::{JsonValue, ObjectBuilder};
use jitgc_workload::BenchmarkKind;

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 15;

/// Direction in which a metric improves.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How a workload runs: single-device cells, the array, or the daemon.
pub enum Kind {
    Cells(fn() -> Vec<Cell>),
    Array,
    Service,
}

pub struct WorkloadSpec {
    pub name: &'static str,
    pub kind: Kind,
    /// Seed used when `--seed` is absent.
    pub default_seed: u64,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "fig7_ycsb_16x",
        kind: Kind::Cells(|| cells::fig7_grid(BenchmarkKind::Ycsb)),
        default_seed: 42,
        why: "88 % buffered writes at 16x device scale: page cache, flusher, buffered predictor and SIP install carry the tick work",
    },
    WorkloadSpec {
        name: "fig7_tpcc_16x",
        kind: Kind::Cells(|| cells::fig7_grid(BenchmarkKind::TpcC)),
        default_seed: 42,
        why: "99.9 % direct writes bypass the cache: FTL write path, FGC/BGC and GC copy dominate; a pagecache change must not move it",
    },
    WorkloadSpec {
        name: "array64_qd8",
        kind: Kind::Array,
        default_seed: 42,
        why: "64-member RAID-0 at QD 8: stripe split, agenda/epoch serial sections and per-member stepping, which single-device rows bypass",
    },
    WorkloadSpec {
        name: "diurnal_idle",
        kind: Kind::Cells(cells::diurnal_cells),
        default_seed: 29,
        why: "idle-dominated days: the tick pipeline and the fast-forward are the cost; TPC-C lets skipping engage, YCSB residue refuses it",
    },
    WorkloadSpec {
        name: "service_tenants",
        kind: Kind::Service,
        default_seed: 42,
        why: "three tenants in-process then one over a Unix socket: WFQ pick, tiers, SQ/CQ and wire frames exist nowhere else",
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Gated metrics, defined and non-zero on every workload. What each one
/// measures per workload is in the README's metric table. The timed
/// ones are stated at nominal host speed (`hostspeed`), where ten runs of
/// the same code spread 2–6 % (quartile distance over median) on the
/// baseline host, a shared 2-core VM; as the clock reads them they spread
/// 9–28 %. The timed bounds are still the largest the contract allows:
/// the correction is one kernel's view of a host with more than one way
/// of being slow (README, "Why every timed bound is still 25 %").
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_s_per_s",
        unit: "s/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Repeats bit for bit for a fixed seed; two commits compare exactly.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// Per-layer metrics of the traced run, layer = module name. A metric
/// whose layer a workload never enters reads 0 there.
pub const PER_LAYER: [Layer; 70] = [
    timed("workload.gen_ns_per_req", "ns", Lower),
    exact("workload.requests", "count", Higher),
    timed("pagecache.write_ns", "ns", Lower),
    timed("pagecache.read_ns", "ns", Lower),
    timed("pagecache.flusher_tick_ns", "ns", Lower),
    exact("pagecache.hit_ratio", "ratio", Higher),
    exact("pagecache.throttled_requests", "count", Lower),
    timed("core.predictor.poll_ns", "ns", Lower),
    timed("core.predictor.direct_ns", "ns", Lower),
    exact("core.predictor.accuracy_pct", "%", Higher),
    timed("core.policy.decide_ns", "ns", Lower),
    exact("core.policy.bgc_blocks", "count", Lower),
    timed("ftl.host_write_ns_per_page", "ns", Lower),
    timed("ftl.host_read_ns_per_page", "ns", Lower),
    timed("ftl.bgc_ns_per_block", "ns", Lower),
    exact("ftl.gc_pages_migrated", "count", Lower),
    exact("ftl.fgc_request_stalls", "count", Lower),
    exact("ftl.fgc_flush_stalls", "count", Lower),
    exact("ftl.sip_filtered_fraction", "ratio", Higher),
    timed("nand.program_ns", "ns", Lower),
    timed("nand.copy_pages_ns_per_page", "ns", Lower),
    exact("nand.pages_programmed", "count", Lower),
    exact("nand.erases", "count", Lower),
    timed("core.engine.request_execution_s", "s", Lower),
    timed("core.engine.flush_s", "s", Lower),
    timed("core.engine.predictor_s", "s", Lower),
    timed("core.engine.bgc_s", "s", Lower),
    timed("core.engine.gc_copy_s", "s", Lower),
    timed("core.engine.tick_s", "s", Lower),
    timed("core.engine.untracked_s", "s", Lower),
    timed("core.engine.accounted_share", "ratio", Higher),
    timed("core.engine.flush_predictor_share", "ratio", Lower),
    exact("core.engine.ticks_run", "count", Lower),
    exact("core.engine.ticks_skipped", "count", Higher),
    exact("core.engine.ff_spans", "count", Higher),
    timed("core.engine.tick_ns", "ns", Lower),
    timed("core.engine.tpcc_10d_s", "s", Lower),
    timed("core.engine.ycsb_3d_s", "s", Lower),
    timed("array.stripe_split_ns", "ns", Lower),
    exact("array.epochs", "count", Lower),
    timed("array.steals", "count", Lower),
    timed("array.member_phase_share", "ratio", Higher),
    timed("array.sched_overhead_s", "s", Lower),
    exact("array.straggler_requests", "count", Lower),
    timed("array.mt2_wall_ratio", "ratio", Lower),
    timed("service.wfq_pick_ns", "ns", Lower),
    timed("service.submit_pump_ns", "ns", Lower),
    timed("service.proto_encode_ns", "ns", Lower),
    timed("service.proto_decode_ns", "ns", Lower),
    exact("service.shed_share", "ratio", Lower),
    exact("service.deferred", "count", Lower),
    exact("service.red_black_s", "s", Lower),
    exact("service.reader_p999_us", "us", Lower),
    timed("service.svc_req_per_s", "1/s", Higher),
    timed("service.wire_cpu_us_per_req", "us", Lower),
    timed("service.net.req_per_s", "1/s", Higher),
    timed("service.net.rtt_p50_us", "us", Lower),
    timed("service.net.rtt_p99_us", "us", Lower),
    timed("service.net.not_done_share", "ratio", Lower),
    exact("sim.jit_waf", "ratio", Lower),
    exact("sim.jit_waf_vs_abgc", "ratio", Lower),
    exact("sim.jit_iops_vs_abgc", "ratio", Higher),
    exact("sim.jit_p99_us", "us", Lower),
    exact("sim.jit_p999_us", "us", Lower),
    exact("sim.report_digest", "hash", Higher),
    timed("trace.accounted_share", "ratio", Higher),
    timed("trace.overhead_share", "ratio", Lower),
    timed("trace.untraced_run_s", "s", Lower),
    timed("trace.traced_run_s", "s", Lower),
    timed("host.calib_ns", "ns", Lower),
];

pub fn layer(name: &str) -> Option<&'static Layer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// The content of `BENCHMARK.json`.
pub fn benchmark_json() -> JsonValue {
    let strings = |items: &[&str]| -> JsonValue {
        JsonValue::Array(items.iter().map(|&s| JsonValue::from(s)).collect())
    };
    let workloads: Vec<JsonValue> = WORKLOADS
        .iter()
        .map(|w| {
            ObjectBuilder::new()
                .field("name", w.name)
                .field("why", w.why)
                .build()
        })
        .collect();
    let end_to_end: Vec<JsonValue> = END_TO_END
        .iter()
        .map(|m| {
            ObjectBuilder::new()
                .field("name", m.name)
                .field("unit", m.unit)
                .field("better", m.better.name())
                .field("bound", m.bound)
                .build()
        })
        .collect();
    let per_layer: Vec<JsonValue> = PER_LAYER
        .iter()
        .map(|m| {
            ObjectBuilder::new()
                .field("name", m.name)
                .field("unit", m.unit)
                .field("better", m.better.name())
                .build()
        })
        .collect();
    ObjectBuilder::new()
        .field(
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        )
        .field("paths", strings(&["benchmark"]))
        .field("run_seconds", RUN_SECONDS)
        .field("workloads", JsonValue::Array(workloads))
        .field("end_to_end", JsonValue::Array(end_to_end))
        .field("per_layer", JsonValue::Array(per_layer))
        .build()
}
