//! GC-policy selection for the service CLI and examples: the CLI names
//! of `jitgc-core`'s policy matrix ([`PolicyKind`]), which builds them.

use jitgc_core::policy::{GcPolicy, PolicyKind};
use jitgc_core::system::SystemConfig;

/// Which background-GC policy the service's engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyChoice {
    /// No background GC.
    NoBgc,
    /// The paper's L-BGC: fixed reserve of `0.5 × C_OP`.
    Lbgc,
    /// The paper's A-BGC: fixed reserve of `1.5 × C_OP`.
    Abgc,
    /// The adaptive device-internal baseline.
    Adp,
    /// Idle-time-exploiting BGC.
    Idle,
    /// The paper's contribution.
    Jit,
    /// JIT-GC with SIP victim filtering disabled (ablation).
    JitNoSip,
}

impl PolicyChoice {
    /// Every selectable policy, in CLI listing order.
    pub const ALL: [PolicyChoice; 7] = [
        PolicyChoice::NoBgc,
        PolicyChoice::Lbgc,
        PolicyChoice::Abgc,
        PolicyChoice::Adp,
        PolicyChoice::Idle,
        PolicyChoice::Jit,
        PolicyChoice::JitNoSip,
    ];

    /// The `--policy` flag value selecting this policy.
    #[must_use]
    pub fn flag(self) -> &'static str {
        match self {
            PolicyChoice::NoBgc => "none",
            PolicyChoice::Lbgc => "lbgc",
            PolicyChoice::Abgc => "abgc",
            PolicyChoice::Adp => "adp",
            PolicyChoice::Idle => "idle",
            PolicyChoice::Jit => "jit",
            PolicyChoice::JitNoSip => "jit-nosip",
        }
    }

    /// Parses a `--policy` flag value.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.flag() == s)
    }

    /// Instantiates the policy for the given system configuration.
    #[must_use]
    pub fn build(self, config: &SystemConfig) -> Box<dyn GcPolicy> {
        let kind = match self {
            PolicyChoice::NoBgc => PolicyKind::NoBgc,
            PolicyChoice::Lbgc => PolicyKind::ReservedPermille(500),
            PolicyChoice::Abgc => PolicyKind::ReservedPermille(1_500),
            PolicyChoice::Adp => PolicyKind::Adp,
            PolicyChoice::Idle => PolicyKind::Idle,
            PolicyChoice::Jit => PolicyKind::Jit,
            PolicyChoice::JitNoSip => PolicyKind::JitNoSip,
        };
        kind.build(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_round_trip() {
        for p in PolicyChoice::ALL {
            assert_eq!(PolicyChoice::parse(p.flag()), Some(p));
        }
        assert_eq!(PolicyChoice::parse("magic"), None);
    }

    #[test]
    fn every_choice_builds() {
        let cfg = SystemConfig::small_for_tests();
        for p in PolicyChoice::ALL {
            assert!(!p.build(&cfg).name().is_empty());
        }
    }
}
