//! Wear-dependent fault injection.
//!
//! Real NAND does not fail all at once at its rated endurance: raw bit
//! error rates climb with accumulated program/erase cycles until ECC can
//! no longer keep up, and program/erase operations start to fail
//! transiently long before a block is formally bad. The [`FaultModel`]
//! reproduces that ageing curve deterministically: every injected fault
//! is drawn from one seeded [`SimRng`] stream, and the per-operation
//! fault probability ramps linearly with the target block's erase count.
//!
//! A fresh block (zero erases) never faults, so aging pre-fill and
//! first-fill traffic are naturally immune and a run with all rates at
//! zero performs **zero** RNG draws — byte-identical to a device built
//! without a fault model.

use jitgc_sim::json::{JsonError, JsonValue, ObjectBuilder};
use jitgc_sim::SimRng;

/// Parameters of the wear-dependent fault injector.
///
/// Each `*_rate` is the fault probability an operation reaches when its
/// block has accumulated [`wear_scale`](FaultConfig::wear_scale) erases;
/// in between, the probability ramps linearly from zero (and keeps
/// growing past the scale, clamped at 1). Setting a rate to zero
/// disables that fault class entirely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the injector's private RNG stream.
    pub seed: u64,
    /// Program-failure probability at `wear_scale` erases.
    pub program_rate: f64,
    /// Erase-failure probability at `wear_scale` erases.
    pub erase_rate: f64,
    /// Uncorrectable-read probability at `wear_scale` erases.
    pub read_rate: f64,
    /// Erase count at which each rate is reached (the ageing horizon;
    /// usually the configured endurance limit).
    pub wear_scale: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 1,
            program_rate: 0.0,
            erase_rate: 0.0,
            read_rate: 0.0,
            wear_scale: 3_000,
        }
    }
}

impl FaultConfig {
    /// `true` when any fault class can actually fire.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.program_rate > 0.0 || self.erase_rate > 0.0 || self.read_rate > 0.0
    }

    /// Serializes to the repository's JSON config format.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        ObjectBuilder::new()
            .field("seed", self.seed)
            .field("program_rate", self.program_rate)
            .field("erase_rate", self.erase_rate)
            .field("read_rate", self.read_rate)
            .field("wear_scale", self.wear_scale)
            .build()
    }

    /// The range rule on a `*_rate`: finite and not negative. Zero is
    /// the default (no faults of that class); a negative or NaN rate would
    /// silently install no fault class at all, an infinite one fail every
    /// operation on a worn block. Callers prefix the knob they read.
    ///
    /// # Errors
    ///
    /// Returns the rule's wording when `rate` breaks it.
    pub fn check_rate(rate: f64) -> Result<(), &'static str> {
        if rate.is_finite() && rate >= 0.0 {
            Ok(())
        } else {
            Err("a fault rate must be finite and not negative")
        }
    }

    /// Parses the format written by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on missing or mistyped fields, and on a
    /// rate that breaks [`check_rate`](Self::check_rate), named by its
    /// path in a system configuration (`ftl.fault.…`).
    pub fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        let config = FaultConfig {
            seed: v.req_u64("seed")?,
            program_rate: v.req_f64("program_rate")?,
            erase_rate: v.req_f64("erase_rate")?,
            read_rate: v.req_f64("read_rate")?,
            wear_scale: v.req_u64("wear_scale")?,
        };
        for (key, rate) in [
            ("program_rate", config.program_rate),
            ("erase_rate", config.erase_rate),
            ("read_rate", config.read_rate),
        ] {
            Self::check_rate(rate)
                .map_err(|rule| JsonError::new(format!("`ftl.fault.{key}` of {rate}: {rule}")))?;
        }
        Ok(config)
    }
}

/// The seeded fault injector a [`NandDevice`](crate::NandDevice) consults
/// on every read, program, and erase.
///
/// Determinism contract: draws happen in device-operation order from one
/// private stream, and only when the computed probability is non-zero —
/// so two runs with the same seed and the same operation sequence inject
/// the identical fault timeline, while a zero-rate (or zero-wear) run
/// draws nothing at all.
#[derive(Debug, Clone)]
pub struct FaultModel {
    config: FaultConfig,
    rng: SimRng,
}

impl FaultModel {
    /// Creates an injector from its configuration.
    #[must_use]
    pub fn new(config: FaultConfig) -> Self {
        FaultModel {
            rng: SimRng::seed(config.seed),
            config,
        }
    }

    /// Fault probability for a class whose rate is `rate`, on a block
    /// with `erase_count` erases.
    fn probability(&self, rate: f64, erase_count: u64) -> f64 {
        if rate <= 0.0 || erase_count == 0 {
            return 0.0;
        }
        let scale = self.config.wear_scale.max(1) as f64;
        (rate * erase_count as f64 / scale).min(1.0)
    }

    fn draw(&mut self, rate: f64, erase_count: u64) -> bool {
        let p = self.probability(rate, erase_count);
        p > 0.0 && self.rng.chance(p)
    }

    /// Should the next program on a block with `erase_count` erases fail?
    pub fn program_fails(&mut self, erase_count: u64) -> bool {
        self.draw(self.config.program_rate, erase_count)
    }

    /// Should the next erase of a block with `erase_count` erases fail?
    pub fn erase_fails(&mut self, erase_count: u64) -> bool {
        self.draw(self.config.erase_rate, erase_count)
    }

    /// Should the next read from a block with `erase_count` erases come
    /// back uncorrectable?
    pub fn read_fails(&mut self, erase_count: u64) -> bool {
        self.draw(self.config.read_rate, erase_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn active() -> FaultConfig {
        FaultConfig {
            seed: 7,
            program_rate: 0.5,
            erase_rate: 0.5,
            read_rate: 0.5,
            wear_scale: 10,
        }
    }

    #[test]
    fn default_config_is_inert() {
        let c = FaultConfig::default();
        assert!(!c.is_active());
        let mut m = FaultModel::new(c);
        for _ in 0..100 {
            assert!(!m.program_fails(1_000_000));
            assert!(!m.erase_fails(1_000_000));
            assert!(!m.read_fails(1_000_000));
        }
    }

    #[test]
    fn fresh_blocks_never_fault() {
        let mut m = FaultModel::new(active());
        for _ in 0..1_000 {
            assert!(!m.program_fails(0));
            assert!(!m.erase_fails(0));
            assert!(!m.read_fails(0));
        }
    }

    #[test]
    fn worn_blocks_fault_eventually_and_deterministically() {
        let run = || {
            let mut m = FaultModel::new(active());
            (0..1_000).map(|_| m.program_fails(5)).collect::<Vec<_>>()
        };
        let a = run();
        assert!(a.iter().any(|&f| f), "rate 0.5 past scale never fired");
        assert!(!a.iter().all(|&f| f), "probability must stay below 1 here");
        assert_eq!(a, run(), "same seed must give the same fault timeline");
    }

    #[test]
    fn probability_ramps_with_wear() {
        let m = FaultModel::new(active());
        let p_low = m.probability(0.5, 1);
        let p_mid = m.probability(0.5, 5);
        let p_cap = m.probability(0.5, 1_000_000);
        assert!(p_low < p_mid);
        assert!((p_mid - 0.25).abs() < 1e-12);
        assert_eq!(p_cap, 1.0);
    }

    #[test]
    fn json_round_trips() {
        let c = FaultConfig {
            seed: 42,
            program_rate: 0.001,
            erase_rate: 0.01,
            read_rate: 0.0001,
            wear_scale: 500,
        };
        let back = FaultConfig::from_json(&c.to_json()).expect("parse");
        assert_eq!(back, c);
    }

    #[test]
    fn json_rates_obey_the_flag_rule() {
        for (text, rate) in [("-0.5", "-0.5"), ("1e999", "inf")] {
            let json = format!(
                r#"{{"seed": 1, "program_rate": {text}, "erase_rate": 0, "read_rate": 0, "wear_scale": 9}}"#
            );
            let err = FaultConfig::from_json(&JsonValue::parse(&json).unwrap()).unwrap_err();
            assert!(
                err.to_string().contains(&format!(
                    "`ftl.fault.program_rate` of {rate}: a fault rate must be finite and not negative"
                )),
                "{err}"
            );
        }
        assert_eq!(FaultConfig::check_rate(0.0), Ok(()));
        assert!(FaultConfig::check_rate(f64::NAN).is_err());
    }
}
