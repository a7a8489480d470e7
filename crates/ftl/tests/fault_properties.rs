//! Property tests of the wear-fault injector: a disabled fault model is
//! perfectly inert, and an enabled one is a pure function of its seed.

use jitgc_ftl::{Ftl, FtlConfig, FtlError, GreedySelector, Lpn};
use jitgc_nand::FaultConfig;
use jitgc_sim::check::{check, Gen};
use jitgc_sim::{SimDuration, SimTime};

const USER_PAGES: u64 = 64;

fn ftl_with(fault: Option<FaultConfig>, endurance: u64) -> Ftl {
    let mut builder = FtlConfig::builder()
        .user_pages(USER_PAGES)
        .op_permille(250)
        .pages_per_block(8)
        .gc_reserve_blocks(2)
        .endurance_limit(endurance);
    if let Some(fault) = fault {
        builder = builder.fault(fault);
    }
    Ftl::new(builder.build(), Box::new(GreedySelector))
}

#[derive(Debug, Clone)]
enum Op {
    Write(u64),
    Trim(u64),
    Bgc(u64),
}

fn any_op(g: &mut Gen) -> Op {
    match g.weighted(&[4, 1, 1]) {
        0 => Op::Write(g.u64(0, USER_PAGES)),
        1 => Op::Trim(g.u64(0, USER_PAGES)),
        _ => Op::Bgc(g.u64(1, 50)),
    }
}

/// Drives one op sequence, tolerating the graceful-EOL error paths, and
/// returns a full observable fingerprint of the run.
fn drive(ftl: &mut Ftl, ops: &[Op]) -> (String, String, Vec<String>, u64, bool) {
    let mut t = 0u64;
    for op in ops {
        t += 1;
        let now = SimTime::from_millis(t);
        match op {
            Op::Write(lpn) => match ftl.host_write(Lpn(*lpn), now) {
                Ok(_) | Err(FtlError::ReadOnly) => {}
                Err(e) => panic!("unexpected write error: {e}"),
            },
            Op::Trim(lpn) => match ftl.trim(Lpn(*lpn), now) {
                Ok(_) | Err(FtlError::ReadOnly) => {}
                Err(e) => panic!("unexpected trim error: {e}"),
            },
            Op::Bgc(ms) => {
                ftl.background_collect(now, SimDuration::from_millis(*ms), None);
            }
        }
    }
    (
        format!("{:?}", ftl.stats()),
        format!("{:?}", ftl.device().stats()),
        ftl.degrade_events()
            .iter()
            .map(|e| format!("{e:?}"))
            .collect(),
        ftl.retired_pages(),
        ftl.read_only(),
    )
}

/// A fault model whose every rate is zero must not perturb anything:
/// the run is indistinguishable from one with no fault model at all,
/// op for op and counter for counter.
#[test]
fn zero_rate_fault_model_is_inert() {
    check(0xFA17_0001, 64, |g| {
        let seed = g.any_u64();
        let ops = g.vec(1, 300, any_op);
        let mut plain = ftl_with(None, 20);
        let mut zeroed = ftl_with(
            Some(FaultConfig {
                seed,
                ..FaultConfig::default()
            }),
            20,
        );
        assert_eq!(drive(&mut plain, &ops), drive(&mut zeroed, &ops));
    });
}

/// The failure timeline is a pure function of the fault seed: same
/// seed ⇒ identical counters, degrade events, and end state; the run
/// must survive (no panic) whatever the rates are.
#[test]
fn fault_timeline_is_a_function_of_the_seed() {
    check(0xFA17_0002, 64, |g| {
        let fault = FaultConfig {
            seed: g.any_u64(),
            program_rate: g.u64(0, 200) as f64 / 1_000.0,
            erase_rate: g.u64(0, 200) as f64 / 1_000.0,
            read_rate: g.u64(0, 200) as f64 / 1_000.0,
            wear_scale: 10,
        };
        let ops = g.vec(1, 300, any_op);
        let mut a = ftl_with(Some(fault), 8);
        let mut b = ftl_with(Some(fault), 8);
        assert_eq!(drive(&mut a, &ops), drive(&mut b, &ops));
    });
}
