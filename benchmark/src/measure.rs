//! What a repetition measures, and the arithmetic on repetitions.

use crate::hostspeed::HostTime;
use crate::spec;
use jitgc_core::system::SimReport;

/// One repetition of a workload: host-side costs, simulated work done,
/// and the operations the output checks counted.
#[derive(Default, Clone)]
pub struct Rep {
    /// Host time before the first request.
    pub setup: HostTime,
    /// Host time of the run phase(s).
    pub run: HostTime,
    /// Host time of the whole repetition: setup + run + report + checks.
    pub wall: HostTime,
    /// Simulated host requests completed.
    pub sim_ops: u64,
    /// Simulated seconds covered.
    pub sim_secs: f64,
    /// FNV-1a over every report's JSON.
    pub digest: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl Rep {
    pub fn sim_ops_per_s(&self) -> f64 {
        self.sim_ops as f64 / self.run.nominal_s
    }

    pub fn sim_s_per_s(&self) -> f64 {
        self.sim_secs / self.run.nominal_s
    }
}

pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// FNV-1a over the reports' JSON texts, folded to 52 bits so the digest
/// survives a trip through a JSON number.
pub fn digest_json(jsons: &[String]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325_u64;
    for byte in jsons.iter().flat_map(|j| j.bytes().chain([b'\n'])) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    (hash ^ (hash >> 52)) & ((1 << 52) - 1)
}

/// Per-layer metric values by name; a name never set reads 0.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// # Panics
    ///
    /// Panics if `name` is not in [`spec::PER_LAYER`] — a typo would
    /// otherwise read as a silent 0.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(spec::layer(name).is_some(), "unknown layer metric {name}");
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }
}

/// The modelled device's answers summed over a repetition's reports —
/// the `[x]` metrics a simulator speed-up must leave identical.
#[derive(Default)]
pub struct SimTotals {
    requests: u64,
    throttled: u64,
    bgc_blocks: u64,
    gc_pages_migrated: u64,
    fgc_request_stalls: u64,
    fgc_flush_stalls: u64,
    pages_programmed: u64,
    erases: u64,
    /// From the last JIT-GC report: (report, WAF and IOPS over A-BGC's).
    jit: Option<(SimReport, f64, f64)>,
}

impl SimTotals {
    pub fn add(&mut self, r: &SimReport) {
        self.requests += r.ops;
        self.throttled += r.throttled_requests;
        self.bgc_blocks += r.bgc_blocks;
        self.gc_pages_migrated += r.gc_pages_migrated;
        self.fgc_request_stalls += r.fgc_request_stalls;
        self.fgc_flush_stalls += r.fgc_flush_stalls;
        self.pages_programmed += r.nand_pages_programmed;
        self.erases += r.nand_erases;
    }

    /// Notes the JIT-GC cell, normalised to the A-BGC cell when the
    /// workload has one (the paper normalises Fig. 7 to A-BGC).
    pub fn set_jit(&mut self, jit: &SimReport, abgc: Option<&SimReport>) {
        let ratio = |own: Option<f64>, base: Option<f64>| match (own, base) {
            (Some(own), Some(base)) if base > 0.0 => own / base,
            _ => 0.0,
        };
        let waf = ratio(jit.waf, abgc.and_then(|a| a.waf));
        let iops = ratio(Some(jit.iops), abgc.map(|a| a.iops));
        self.jit = Some((jit.clone(), waf, iops));
    }

    pub fn record(&self, m: &mut Metrics, digest: u64) {
        m.set("workload.requests", self.requests as f64);
        m.set("pagecache.throttled_requests", self.throttled as f64);
        m.set("core.policy.bgc_blocks", self.bgc_blocks as f64);
        m.set("ftl.gc_pages_migrated", self.gc_pages_migrated as f64);
        m.set("ftl.fgc_request_stalls", self.fgc_request_stalls as f64);
        m.set("ftl.fgc_flush_stalls", self.fgc_flush_stalls as f64);
        m.set("nand.pages_programmed", self.pages_programmed as f64);
        m.set("nand.erases", self.erases as f64);
        m.set("sim.report_digest", digest as f64);
        if let Some((jit, waf_vs_abgc, iops_vs_abgc)) = &self.jit {
            m.set("pagecache.hit_ratio", jit.cache_hit_ratio.unwrap_or(0.0));
            m.set(
                "core.predictor.accuracy_pct",
                jit.prediction_accuracy_percent.unwrap_or(0.0),
            );
            m.set(
                "ftl.sip_filtered_fraction",
                jit.sip_filtered_fraction.unwrap_or(0.0),
            );
            m.set("sim.jit_waf", jit.waf.unwrap_or(0.0));
            m.set("sim.jit_waf_vs_abgc", *waf_vs_abgc);
            m.set("sim.jit_iops_vs_abgc", *iops_vs_abgc);
            m.set("sim.jit_p99_us", jit.latency_p99_us as f64);
            m.set("sim.jit_p999_us", jit.latency_p999_us as f64);
        }
    }
}
