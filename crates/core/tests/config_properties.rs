//! Every number a `--config` file carries obeys one rule, and
//! `SystemConfig::from_json` is where a file meets it: a configuration it
//! accepts builds an `SsdSystem` and runs, one it rejects is an error
//! that names a key. The property mutates one numeric key of a dumped
//! configuration at a time — to zero, one, the largest integer, a
//! negative and a non-integer — and holds both halves. It runs on two
//! dumps: `default_sim`, and `default_sim` with an endurance limit and
//! fault injection, whose keys the first dump does not carry. The
//! system-level rules themselves are `SystemConfig::validate`'s.

use jitgc_core::policy::PolicyKind;
use jitgc_core::system::{SsdSystem, SystemConfig};
use jitgc_nand::FaultConfig;
use jitgc_sim::check::check;
use jitgc_sim::json::JsonValue;
use jitgc_sim::SimDuration;
use jitgc_workload::{BenchmarkKind, WorkloadConfig};

/// Cases the property runs per numeric key of a dump: about four for each
/// of the five mutations.
const CASES_PER_KEY: u32 = 20;

/// The dotted path of every numeric leaf under `v`.
fn numeric_paths(v: &JsonValue, prefix: &str, out: &mut Vec<String>) {
    match v {
        JsonValue::Object(fields) => {
            for (key, value) in fields {
                let path = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}.{key}")
                };
                numeric_paths(value, &path, out);
            }
        }
        JsonValue::U64(_) | JsonValue::I64(_) | JsonValue::F64(_) => out.push(prefix.into()),
        _ => {}
    }
}

/// `v` with the leaf at the dotted `path` replaced by `value`.
fn with_leaf(v: &JsonValue, path: &str, value: &JsonValue) -> JsonValue {
    let (head, rest) = path
        .split_once('.')
        .map_or((path, None), |(h, r)| (h, Some(r)));
    let JsonValue::Object(fields) = v else {
        panic!("`{path}` runs through a non-object");
    };
    JsonValue::Object(
        fields
            .iter()
            .map(|(key, child)| {
                let child = match (key == head, rest) {
                    (false, _) => child.clone(),
                    (true, None) => value.clone(),
                    (true, Some(rest)) => with_leaf(child, rest, value),
                };
                (key.clone(), child)
            })
            .collect(),
    )
}

/// Builds the system `ssdsim` would build from `config` and runs one
/// simulated second of YCSB on it at the CLI's default rate.
fn run_one_second(config: SystemConfig) {
    let working_set = match config.standard_working_set() {
        Ok(pages) => pages,
        // The CLI refuses the run with this message (and exit 2).
        Err(e) => return assert!(e.contains("leaves no working set"), "{e}"),
    };
    let workload = BenchmarkKind::Ycsb.build(
        WorkloadConfig::builder()
            .working_set_pages(working_set)
            .duration(SimDuration::from_secs(1))
            .mean_iops(250.0)
            .burst_mean(1_024.0)
            .seed(42)
            .build(),
    );
    let policy = PolicyKind::Jit.build(&config);
    let mut system = SsdSystem::new(config, policy, workload);
    let report = system.run();
    assert!(report.duration_secs > 0.0);
}

/// `default_sim` on a device that wears out and faults, as
/// `ssdsim --endurance 40 --fault-seed 9 --fault-program 0.05
/// --fault-erase 0.05 --fault-read 0.02` builds it.
fn wearing_sim() -> SystemConfig {
    let mut config = SystemConfig::default_sim();
    config.ftl = config
        .ftl
        .to_builder()
        .endurance_limit(40)
        .fault(FaultConfig {
            seed: 9,
            program_rate: 0.05,
            erase_rate: 0.05,
            read_rate: 0.02,
            wear_scale: 40,
        })
        .build();
    config
}

/// Mutates one numeric key of `base`'s dump per case, which must hold
/// `keys` of them; `CASES_PER_KEY` cases a key.
fn mutate_each_number(base: SystemConfig, keys: usize, seed: u64) {
    let dumped = base.to_json();
    let mut paths = Vec::new();
    numeric_paths(&dumped, "", &mut paths);
    assert_eq!(paths.len(), keys, "{paths:?}");
    let leaves: Vec<&str> = paths
        .iter()
        .map(|p| p.rsplit('.').next().expect("a path has a leaf"))
        .collect();
    let mutations = [
        JsonValue::U64(0),
        JsonValue::U64(1),
        JsonValue::U64(u64::MAX),
        JsonValue::I64(-1),
        JsonValue::F64(0.5),
    ];
    check(seed, CASES_PER_KEY * keys as u32, |g| {
        let path = &paths[g.usize(0, paths.len())];
        let value = g.pick(&mutations);
        let mutated = with_leaf(&dumped, path, &value);
        match SystemConfig::from_json(&mutated) {
            Ok(config) => run_one_second(config),
            Err(e) => {
                let message = e.to_string();
                let named =
                    message.split('`').skip(1).step_by(2).any(|quoted| {
                        paths.iter().any(|p| p == quoted) || leaves.contains(&quoted)
                    });
                assert!(named, "`{path}` = {value:?}: {message} names no key");
            }
        }
    });
}

/// 480 cases on the 24 keys of `default_sim` (0.4 s), then 600 on the
/// 30 of the wearing dump: its `ftl.endurance_limit` and five
/// `ftl.fault.*` numbers are mutated too.
#[test]
fn one_mutated_number_is_either_run_or_rejected_by_name() {
    mutate_each_number(SystemConfig::default_sim(), 24, 0xC0_4F16);
    mutate_each_number(wearing_sim(), 30, 0xC0_4F17);
}

#[test]
fn validate_holds_the_system_rules() {
    for cfg in [SystemConfig::small_for_tests(), SystemConfig::default_sim()] {
        assert_eq!(cfg.validate(), Ok(()));
    }
    let err = |mutate: &dyn Fn(&mut SystemConfig)| {
        let mut cfg = SystemConfig::default_sim();
        mutate(&mut cfg);
        cfg.validate().unwrap_err()
    };
    assert!(err(&|c| c.flusher_period = SimDuration::ZERO)
        .contains("`flusher_period_us` must be greater than zero"));
    assert!(err(&|c| c.flusher_period = SimDuration::from_millis(700))
        .contains("`cache.tau_expire_us` of 3000000 must be a positive multiple"));
    let split = err(&|c| c.flusher_period = SimDuration::from_millis(250));
    assert!(
        split.contains(
            "`cache.flusher_period_us` of 500000 must equal `flusher_period_us` (250000)"
        ),
        "{split}"
    );
    assert!(err(&|c| c.cdh_percentile = f64::NAN).contains("`cdh_percentile` of NaN"));
    assert!(err(&|c| c.cdh_bin_bytes = 0).contains("`cdh_bin_bytes`"));
    assert!(err(&|c| c.queue_depth = 0).contains("`queue_depth` must be greater than zero"));
    assert!(
        err(&|c| c.queue_depth = 65_537).contains("`queue_depth` of 65537 must be at most 65536")
    );
}

#[test]
fn a_cache_without_its_own_period_takes_the_systems() {
    let cfg = SystemConfig::default_sim();
    let JsonValue::Object(mut fields) = cfg.to_json() else {
        panic!("config dumps as an object");
    };
    for (key, value) in &mut fields {
        if key == "cache" {
            if let JsonValue::Object(cache) = value {
                cache.retain(|(k, _)| k != "flusher_period_us");
            }
        }
    }
    let back = SystemConfig::from_json(&JsonValue::Object(fields)).expect("parse");
    assert_eq!(back.cache, cfg.cache);
}

/// A file holds each key once, and only keys its own dump writes, at any
/// depth. A `null` fault section is a fault-free device's, which dumps
/// none.
#[test]
fn a_file_holds_only_the_keys_its_dump_writes() {
    let dump = SystemConfig::default_sim().to_json().to_pretty();
    let load = |from: &str, to: &str| {
        assert_eq!(dump.matches(from).count(), 1, "{from:?} in {dump}");
        let text = dump.replace(from, to);
        SystemConfig::from_json(&JsonValue::parse(&text).expect("the edit parses"))
            .map(drop)
            .map_err(|e| e.to_string())
    };
    let limit = "\"endurance_limit\": null";
    assert_eq!(load(limit, &format!("{limit}, \"fault\": null")), Ok(()));
    let fault = "\"fault\": {\"seed\": 9, \"program_rate\": 0, \"erase_rate\": 0, \
                 \"read_rate\": 0, \"wear_scale\": 40";
    assert_eq!(load(limit, &format!("{limit}, {fault}}}")), Ok(()));
    let read = "\"read_us\": 50";
    for (from, to, named) in [
        (
            read,
            format!("{read}, {read}"),
            "`ftl.timing.read_us` given twice",
        ),
        (
            read,
            format!("{read}, \"write_us\": 50"),
            "unknown key `ftl.timing.write_us`",
        ),
        (
            limit,
            format!("{limit}, {fault}, \"rate\": 1}}"),
            "unknown key `ftl.fault.rate`",
        ),
        (
            "\"victim\": \"greedy\"",
            "\"victim\": {\"random\": 3, \"seed\": 1}".into(),
            "unknown key `victim.seed`",
        ),
        (
            "\"prefill\": true",
            "\"prefill\": true, \"fault\": null".into(),
            "unknown key `fault`",
        ),
    ] {
        let err = load(from, &to).expect_err(&to);
        assert!(err.contains(named), "{to}: {err}");
    }
}
