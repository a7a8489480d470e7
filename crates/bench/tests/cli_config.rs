//! `ssdsim --config` keeps every key of its file: a flag on the command
//! line overrides its own key, and a flag left off leaves the file's
//! value. Both tests go through `--dump-config`, which writes the
//! effective configuration and exits.

use jitgc_core::system::{SystemConfig, VictimKind};
use jitgc_nand::FaultConfig;
use jitgc_sim::json::JsonValue;
use std::path::{Path, PathBuf};
use std::process::Command;

fn ssdsim(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_ssdsim"))
        .args(args)
        .output()
        .expect("ssdsim runs");
    assert!(
        out.status.success(),
        "ssdsim {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn path_str(path: &Path) -> &str {
    path.to_str().expect("utf-8 temp path")
}

/// A dumped default config edited away from every default the flags have:
/// FIFO victims, no aging, the strict `τ_flush` model, wear leveling, and
/// a fault model with its own seed and wear scale. Returns its path.
fn edited_config(dir: &Path) -> PathBuf {
    let dumped = dir.join("dumped.json");
    ssdsim(&["--dump-config", path_str(&dumped)]);
    let text = std::fs::read_to_string(&dumped).expect("dump written");
    let mut system =
        SystemConfig::from_json(&JsonValue::parse(&text).expect("dump parses")).expect("valid");
    system.victim = VictimKind::Fifo;
    system.prefill = false;
    system.strict_tau_flush = true;
    system.wear_leveling = true;
    system.ftl = system
        .ftl
        .to_builder()
        .fault(FaultConfig {
            seed: 7,
            program_rate: 0.2,
            erase_rate: 0.0,
            read_rate: 0.0,
            wear_scale: 500,
        })
        .build();
    let edited = dir.join("edited.json");
    std::fs::write(&edited, system.to_json().to_pretty()).expect("write edited config");
    edited
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ssdsim-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Every leaf of a JSON document as `(key path, compact value)`, in
/// document order.
fn leaves(v: &JsonValue, path: &str, out: &mut Vec<(String, String)>) {
    match v {
        JsonValue::Object(fields) => {
            for (key, value) in fields {
                let path = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                leaves(value, &path, out);
            }
        }
        leaf => out.push((path.to_owned(), leaf.to_compact())),
    }
}

fn leaves_of(path: &Path) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(path).expect("dump written");
    let mut out = Vec::new();
    leaves(&JsonValue::parse(&text).expect("dump parses"), "", &mut out);
    out
}

/// A config file with no flags beside it reloads unchanged.
#[test]
fn a_config_without_flags_reloads_byte_identical() {
    let dir = temp_dir("config-reload");
    let edited = edited_config(&dir);
    let reloaded = dir.join("reloaded.json");
    ssdsim(&[
        "--config",
        path_str(&edited),
        "--dump-config",
        path_str(&reloaded),
    ]);
    assert_eq!(
        std::fs::read_to_string(&reloaded).expect("reload written"),
        std::fs::read_to_string(&edited).expect("edited written"),
        "`--config` changed a key no flag named"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `--victim` and `--fault-read` change their own keys and nothing else:
/// the rest of the fault model (seed, program rate, wear scale) stays the
/// file's.
#[test]
fn flags_override_only_their_own_keys() {
    let dir = temp_dir("config-flags");
    let edited = edited_config(&dir);
    let overridden = dir.join("overridden.json");
    ssdsim(&[
        "--config",
        path_str(&edited),
        "--victim",
        "greedy",
        "--fault-read",
        "0.1",
        "--dump-config",
        path_str(&overridden),
    ]);
    let before = leaves_of(&edited);
    let after = leaves_of(&overridden);
    assert_eq!(
        before.iter().map(|(k, _)| k).collect::<Vec<_>>(),
        after.iter().map(|(k, _)| k).collect::<Vec<_>>(),
        "the flags added or dropped a key"
    );
    let changed: Vec<(&str, &str)> = after
        .iter()
        .zip(&before)
        .filter(|(a, b)| a.1 != b.1)
        .map(|(a, _)| (a.0.as_str(), a.1.as_str()))
        .collect();
    assert_eq!(
        changed,
        [("ftl.fault.read_rate", "0.1"), ("victim", "\"greedy\"")]
    );
    std::fs::remove_dir_all(&dir).ok();
}
