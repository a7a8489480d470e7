//! Property tests of the FTL's core invariants.
//!
//! (The SIP-count property lives with the unit tests in `src/ftl/mod.rs`,
//! where the per-block counts are visible.)

use jitgc_ftl::{Ftl, FtlConfig, GreedySelector, Lpn};
use jitgc_sim::check::{check, Gen};
use jitgc_sim::{SimDuration, SimTime};

const USER_PAGES: u64 = 64;

fn small_ftl() -> Ftl {
    Ftl::new(
        FtlConfig::builder()
            .user_pages(USER_PAGES)
            .op_permille(250)
            .pages_per_block(8)
            .gc_reserve_blocks(2)
            .build(),
        Box::new(GreedySelector),
    )
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

fn apply(ftl: &mut Ftl, op: &Op, now: SimTime) {
    match *op {
        Op::Write(lpn) => {
            ftl.host_write(Lpn(lpn), now).expect("write in range");
        }
        Op::Trim(lpn) => ftl.trim(Lpn(lpn), now).expect("trim in range"),
        Op::Bgc(ms) => {
            ftl.background_collect(now, SimDuration::from_millis(ms), None);
        }
    }
}

/// Read-your-writes through arbitrary interleavings of writes, TRIMs
/// and background GC: the FTL must always map each written LPN, never
/// map a trimmed one, and keep exactly one valid flash page per mapped
/// LPN.
#[test]
fn mapping_stays_consistent() {
    check(0x0F71_0001, 128, |g| {
        let mut ftl = small_ftl();
        let mut shadow = vec![false; USER_PAGES as usize];
        for (t, op) in g.vec(1, 300, any_op).iter().enumerate() {
            apply(&mut ftl, op, SimTime::from_millis(t as u64 + 1));
            match *op {
                Op::Write(lpn) => shadow[lpn as usize] = true,
                Op::Trim(lpn) => shadow[lpn as usize] = false,
                Op::Bgc(_) => {}
            }
        }
        // Every shadow-live LPN is mapped and readable; dead ones read as
        // unmapped, for the host to zero-fill.
        let mut mapped = 0u64;
        for (lpn, &live) in shadow.iter().enumerate() {
            let lookup = ftl.lookup(Lpn(lpn as u64)).expect("in range");
            assert_eq!(lookup.is_some(), live, "lpn {lpn} mapping mismatch");
            let read = ftl
                .host_read_batch(&[Lpn(lpn as u64)], SimTime::from_secs(99))
                .expect("in range");
            mapped += u64::from(live);
            assert_eq!(read.unmapped, u64::from(!live), "lpn {lpn}: {read:?}");
            assert_eq!(read.failed, 0, "lpn {lpn}: {read:?}");
        }
        // One whole-space batch tallies the same split.
        let all: Vec<Lpn> = (0..USER_PAGES).map(Lpn).collect();
        let read = ftl
            .host_read_batch(&all, SimTime::from_secs(99))
            .expect("in range");
        assert_eq!(read.unmapped, USER_PAGES - mapped);
        // Exactly one valid flash page per mapped LPN.
        assert_eq!(ftl.device().total_valid_pages(), mapped);
    });
}

/// WAF is always ≥ 1 and free space never exceeds physical capacity.
#[test]
fn waf_and_free_bounds() {
    check(0x0F71_0002, 128, |g| {
        let mut ftl = small_ftl();
        let mut wrote = false;
        for (t, op) in g.vec(50, 300, any_op).iter().enumerate() {
            apply(&mut ftl, op, SimTime::from_millis(t as u64 + 1));
            wrote |= matches!(op, Op::Write(_));
            assert!(ftl.free_pages() <= ftl.device().geometry().total_pages());
            if wrote {
                let waf = ftl.waf().expect("host writes happened");
                assert!(waf >= 1.0, "waf {waf}");
            }
        }
    });
}

/// Background GC with a budget never exceeds it, and a BGC call lowers
/// the free-page count by no more than the migrations it has in flight.
fn assert_bgc_within_budget(writes: &[u64], budget_ms: u64) {
    let mut ftl = small_ftl();
    for (i, lpn) in writes.iter().enumerate() {
        ftl.host_write(Lpn(*lpn), SimTime::from_millis(i as u64))
            .expect("in range");
    }
    let before = ftl.free_pages();
    let budget = SimDuration::from_millis(budget_ms);
    let outcome = ftl.background_collect(SimTime::from_secs(10), budget, None);
    assert!(outcome.duration <= budget);
    // Page-granular BGC may be preempted mid-victim: migrations have
    // consumed GC-block pages but the erase that pays them back has
    // not happened yet. The dip is bounded by the migrations done.
    assert!(
        ftl.free_pages() + outcome.pages_migrated >= before,
        "free fell from {before} to {} with only {} migrations in flight",
        ftl.free_pages(),
        outcome.pages_migrated
    );
}

#[test]
fn bgc_budget_and_monotonicity() {
    check(0x0F71_0003, 128, |g| {
        let budget_ms = g.u64(1, 20);
        let writes = g.vec(50, 200, |g| g.u64(0, USER_PAGES));
        assert_bgc_within_budget(&writes, budget_ms);
    });
}

/// The case a property-testing run once saved: a 2 ms budget preempts
/// BGC in the middle of its first victim, so free pages dip by the
/// migrations in flight.
#[test]
fn bgc_preempted_mid_victim_dips_by_its_migrations_only() {
    let writes = [
        0, 0, 0, 0, 1, 0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 22, 2, 2, 2, 2, 2, 37, 21, 32, 2, 2, 2, 2, 2,
        46, 2, 3, 4, 4, 42, 33, 4, 8, 4, 9, 23, 5, 5, 5, 5, 10, 45, 10, 13, 5, 6, 13, 54, 24, 19,
        62, 14, 29, 27, 35, 7, 25, 52, 40, 17, 54, 30, 62, 30, 11, 12, 6, 59, 36, 58, 51, 14, 16,
        15, 61, 16, 1, 30, 6, 61, 28, 1, 55, 50, 20, 0, 6, 52, 43, 56, 41, 16, 38, 0, 38,
    ];
    assert_bgc_within_budget(&writes, 2);
}
