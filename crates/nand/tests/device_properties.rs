//! Property tests of the NAND device state machine.

use jitgc_nand::{BlockId, Geometry, Lpn, NandDevice, NandError, NandTiming, PageState, Ppn};
use jitgc_sim::check::{check, Gen};

fn small_device() -> NandDevice {
    NandDevice::new(
        Geometry::builder()
            .blocks(4)
            .pages_per_block(8)
            .page_size_bytes(4096)
            .build(),
        NandTiming::mlc_20nm(),
    )
}

/// A random operation against the device.
#[derive(Debug, Clone)]
enum Op {
    Program(u64, u64),
    Read(u64),
    Invalidate(u64),
    Erase(u32),
}

fn any_op(g: &mut Gen) -> Op {
    match g.u64(0, 4) {
        0 => Op::Program(g.u64(0, 32), g.u64(0, 64)),
        1 => Op::Read(g.u64(0, 32)),
        2 => Op::Invalidate(g.u64(0, 32)),
        _ => Op::Erase(g.u64(0, 4) as u32),
    }
}

/// Page-state accounting never drifts regardless of the op sequence:
/// valid + invalid + free always equals the device size, and each
/// block's valid count matches a recount of its page states.
#[test]
fn page_accounting_is_conserved() {
    check(0x4A4D_0001, 256, |g| {
        let mut dev = small_device();
        for op in g.vec(1, 200, any_op) {
            // Errors are fine (illegal transitions must be *rejected*,
            // not applied); state must stay consistent either way.
            let _ = match op {
                Op::Program(p, l) => dev.program(Ppn(p), Lpn(l)).err(),
                Op::Read(p) => dev.read(Ppn(p)).err(),
                Op::Invalidate(p) => dev.invalidate(Ppn(p)).err(),
                Op::Erase(b) => dev.erase(BlockId(b)).err(),
            };
            let total = dev.geometry().total_pages();
            assert_eq!(
                dev.total_valid_pages() + dev.total_invalid_pages() + dev.total_free_pages(),
                total
            );
            for b in dev.geometry().block_ids() {
                let block = dev.block(b);
                let recount = block
                    .iter_pages()
                    .filter(|(_, s, _)| *s == PageState::Valid)
                    .count() as u32;
                assert_eq!(block.valid_pages(), recount);
            }
        }
    });
}

/// A page programmed with an LPN reports exactly that LPN until erase.
#[test]
fn oob_lpn_is_faithful() {
    check(0x4A4D_0002, 256, |g| {
        let lpns = g.vec(1, 8, |g| g.u64(0, 1000));
        let mut dev = small_device();
        for (i, &lpn) in lpns.iter().enumerate() {
            dev.program(Ppn(i as u64), Lpn(lpn))
                .expect("sequential program");
        }
        for (i, &lpn) in lpns.iter().enumerate() {
            assert_eq!(dev.page_lpn(Ppn(i as u64)), Some(Lpn(lpn)));
        }
        dev.erase(BlockId(0)).expect("in range");
        assert_eq!(dev.page_lpn(Ppn(0)), None);
    });
}

/// Sequential-program enforcement: programming pages of one block in
/// any order other than 0,1,2,… fails without corrupting state. The
/// offsets are few enough to try them all.
#[test]
fn out_of_order_programs_rejected() {
    for offset in 1..8u64 {
        let mut dev = small_device();
        let result = dev.program(Ppn(offset), Lpn(0));
        let rejected = matches!(result, Err(NandError::ProgramOutOfOrder { .. }));
        assert!(rejected, "expected out-of-order rejection, got {result:?}");
        assert_eq!(dev.total_valid_pages(), 0);
        assert_eq!(dev.stats().programs, 0);
    }
}

/// Operation time accounting: busy time equals the sum of per-op costs,
/// for every program count and erase count the device has room for.
#[test]
fn busy_time_matches_op_counts() {
    for programs in 1..16u64 {
        for erases in 0..3u32 {
            let mut dev = small_device();
            for i in 0..programs {
                dev.program(Ppn(i), Lpn(i)).expect("sequential fill");
            }
            for b in 0..erases {
                dev.erase(BlockId(b)).expect("in range");
            }
            let t = *dev.timing();
            let expected =
                t.page_program_cost() * programs + t.block_erase_cost() * u64::from(erases);
            assert_eq!(dev.stats().busy_time(), expected);
        }
    }
}
