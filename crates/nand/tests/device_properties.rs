//! Property tests of the NAND device state machine.

use jitgc_nand::{
    BlockId, FaultConfig, FaultModel, Geometry, Lpn, NandDevice, NandError, NandTiming, PageState,
    Ppn,
};
use jitgc_sim::check::{check, Gen};
use jitgc_sim::SimDuration;

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

/// The naive per-page table the device's flat tables replaced: a state
/// and an OOB owner for every page, in PPN order.
struct Model {
    per_block: usize,
    pages: Vec<(PageState, Option<Lpn>)>,
}

impl Model {
    fn block(&self, block: u32) -> &[(PageState, Option<Lpn>)] {
        &self.pages[block as usize * self.per_block..][..self.per_block]
    }

    /// The block's sequential write pointer: its first free page.
    fn write_ptr(&self, block: u32) -> usize {
        let rows = self.block(block);
        rows.iter()
            .position(|&(state, _)| state == PageState::Free)
            .unwrap_or(rows.len())
    }

    fn valid_lpns(&self, block: u32) -> Vec<(u32, Lpn)> {
        self.block(block)
            .iter()
            .enumerate()
            .filter(|(_, &(state, _))| state == PageState::Valid)
            .map(|(offset, &(_, lpn))| (offset as u32, lpn.expect("programmed page has an owner")))
            .collect()
    }

    fn count(&self, state: PageState) -> u64 {
        self.pages.iter().filter(|&&(s, _)| s == state).count() as u64
    }

    /// Every read-only view the device offers, against the table.
    fn assert_matches(&self, dev: &NandDevice) {
        for b in dev.geometry().block_ids() {
            let (block, rows) = (dev.block(b), self.block(b.0));
            let expected: Vec<_> = (0u32..).zip(rows).map(|(o, &(s, l))| (o, s, l)).collect();
            assert_eq!(block.iter_pages().collect::<Vec<_>>(), expected, "{b}");
            for &(offset, state, lpn) in &expected {
                assert_eq!(block.page_state(offset), state, "{b} page {offset}");
                assert_eq!(block.page_lpn(offset), lpn, "{b} page {offset}");
                let ppn = dev.geometry().ppn(b, offset);
                assert_eq!((dev.page_state(ppn), dev.page_lpn(ppn)), (state, lpn));
            }
            // Ascending offsets: the bulk GC snapshot relies on the order.
            assert_eq!(
                block.valid_lpns().collect::<Vec<_>>(),
                self.valid_lpns(b.0),
                "{b}"
            );
            let of = |state| rows.iter().filter(|&&(s, _)| s == state).count() as u32;
            assert_eq!(block.valid_pages(), of(PageState::Valid), "{b}");
            assert_eq!(block.invalid_pages(), of(PageState::Invalid), "{b}");
            assert_eq!(block.free_pages(), of(PageState::Free), "{b}");
            let write_ptr = self.write_ptr(b.0);
            assert_eq!(
                block.next_free_offset(),
                (write_ptr < rows.len()).then_some(write_ptr as u32)
            );
            assert_eq!(block.is_full(), write_ptr == rows.len());
            assert_eq!(block.is_erased(), write_ptr == 0);
        }
        assert_eq!(dev.total_valid_pages(), self.count(PageState::Valid));
        assert_eq!(dev.total_invalid_pages(), self.count(PageState::Invalid));
        assert_eq!(dev.total_free_pages(), self.count(PageState::Free));
    }
}

/// One step of the model stream. Addresses are raw draws: many are
/// illegal on purpose.
#[derive(Debug, Clone)]
enum TableOp {
    /// Program the next sequential page of a block (always legal unless
    /// the block is full).
    ProgramNext(u32, u64),
    ProgramAt(u64, u64),
    Read(u64),
    Invalidate(u64),
    Erase(u32),
    /// `copy_pages_within` of up to `take` valid pages of `src` into
    /// `dst`, with room for `room_pages` migrations (`None` = unlimited).
    Copy {
        src: u32,
        dst: u32,
        take: usize,
        room_pages: Option<u64>,
    },
}

/// 128 cases × up to 400 ops on a 3- or 4-block device of 8, 64, 70 or
/// 130 pages a block (one, one, two and three validity words; the last
/// two not word-aligned), faults off and on: after **every** op each
/// read-only view of every block, and the three device tallies, must
/// agree with a naive per-page `Vec<(PageState, Option<Lpn>)>`. In
/// particular a page programmed, erased and not yet re-programmed reads
/// `(Free, None)` although the erase left its OOB entry in place.
#[test]
fn flat_tables_agree_with_a_per_page_model() {
    check(0x4A4D_0005, 128, |g| {
        let per_block = g.pick(&[8u32, 64, 70, 130]);
        let blocks = g.u64(3, 5) as u32;
        let faults = g.u64(0, 2) == 1;
        let fault_seed = g.any_u64();
        let total = u64::from(blocks) * u64::from(per_block);
        let ops = g.vec(1, 400, |g| match g.weighted(&[10, 1, 1, 5, 1, 2]) {
            0 => TableOp::ProgramNext(g.u64(0, u64::from(blocks)) as u32, g.u64(0, 1_000)),
            // Mostly out of order; sometimes past the device, sometimes
            // an LPN no OOB entry can hold.
            1 => TableOp::ProgramAt(
                g.u64(0, total + 2),
                g.pick(&[7, u64::from(u32::MAX) - 1, u64::from(u32::MAX), 1 << 40]),
            ),
            2 => TableOp::Read(g.u64(0, total + 2)),
            3 => TableOp::Invalidate(g.u64(0, total + 2)),
            4 => TableOp::Erase(g.u64(0, u64::from(blocks) + 1) as u32),
            _ => {
                let src = g.u64(0, u64::from(blocks)) as u32;
                TableOp::Copy {
                    src,
                    dst: (src + 1 + g.u64(0, u64::from(blocks) - 1) as u32) % blocks,
                    take: g.usize(1, per_block as usize + 1),
                    room_pages: (g.u64(0, 3) == 0).then(|| g.u64(0, 12)),
                }
            }
        });

        let geometry = Geometry::builder()
            .blocks(blocks)
            .pages_per_block(per_block)
            .build();
        let mut dev = NandDevice::new(geometry, NandTiming::mlc_20nm());
        if faults {
            dev = dev.with_fault_model(FaultModel::new(FaultConfig {
                seed: fault_seed,
                program_rate: 0.3,
                erase_rate: 0.2,
                read_rate: 0.3,
                wear_scale: 4,
            }));
        }
        let mut model = Model {
            per_block: per_block as usize,
            pages: vec![(PageState::Free, None); total as usize],
        };
        let split = |ppn: u64| {
            (
                (ppn / u64::from(per_block)) as u32,
                (ppn % u64::from(per_block)) as usize,
            )
        };

        for op in ops {
            match op {
                TableOp::ProgramNext(..) | TableOp::ProgramAt(..) => {
                    let (ppn, lpn) = match op {
                        TableOp::ProgramNext(b, lpn) => {
                            let next = model.write_ptr(b).min(per_block as usize - 1);
                            (u64::from(b) * u64::from(per_block) + next as u64, lpn)
                        }
                        TableOp::ProgramAt(ppn, lpn) => (ppn, lpn),
                        _ => unreachable!(),
                    };
                    let result = dev.program(Ppn(ppn), Lpn(lpn));
                    if ppn >= total {
                        assert!(matches!(result, Err(NandError::PpnOutOfRange { .. })));
                        continue;
                    }
                    if lpn >= u64::from(u32::MAX) {
                        assert_eq!(result, Err(NandError::LpnTooLarge { lpn: Lpn(lpn) }));
                        continue;
                    }
                    let (b, offset) = split(ppn);
                    let write_ptr = model.write_ptr(b);
                    match result {
                        Ok(_) => {
                            assert_eq!(offset, write_ptr);
                            model.pages[ppn as usize] = (PageState::Valid, Some(Lpn(lpn)));
                        }
                        // Consumed: programmed and immediately invalid.
                        Err(NandError::ProgramFailed { .. }) => {
                            assert!(faults && offset == write_ptr);
                            model.pages[ppn as usize] = (PageState::Invalid, Some(Lpn(lpn)));
                        }
                        Err(NandError::ProgramProgrammedPage { .. }) => {
                            assert!(offset < write_ptr);
                        }
                        Err(NandError::ProgramOutOfOrder {
                            expected_offset, ..
                        }) => {
                            assert!(offset > write_ptr);
                            assert_eq!(expected_offset as usize, write_ptr);
                        }
                        Err(e) => panic!("unexpected program error {e}"),
                    }
                }
                TableOp::Read(ppn) => {
                    let result = dev.read(Ppn(ppn));
                    if ppn >= total {
                        assert!(matches!(result, Err(NandError::PpnOutOfRange { .. })));
                    } else if model.pages[ppn as usize].0 == PageState::Free {
                        assert_eq!(result, Err(NandError::ReadUnwrittenPage { ppn: Ppn(ppn) }));
                    } else {
                        let failed = matches!(result, Err(NandError::ReadFailed { .. }));
                        assert!(result.is_ok() || (faults && failed), "{result:?}");
                    }
                }
                TableOp::Invalidate(ppn) => {
                    let result = dev.invalidate(Ppn(ppn));
                    if ppn >= total {
                        assert!(matches!(result, Err(NandError::PpnOutOfRange { .. })));
                    } else if model.pages[ppn as usize].0 == PageState::Valid {
                        assert_eq!(result, Ok(()));
                        model.pages[ppn as usize].0 = PageState::Invalid;
                    } else {
                        assert_eq!(
                            result,
                            Err(NandError::InvalidateNonValidPage { ppn: Ppn(ppn) })
                        );
                    }
                }
                TableOp::Erase(b) => match dev.erase(BlockId(b)) {
                    Ok(_) => {
                        let first = b as usize * per_block as usize;
                        model.pages[first..first + per_block as usize]
                            .fill((PageState::Free, None));
                    }
                    Err(NandError::BlockOutOfRange { .. }) => assert_eq!(b, blocks),
                    // A failed erase leaves the block as it was.
                    Err(NandError::EraseFailed { .. }) => assert!(faults),
                    Err(e) => panic!("unexpected erase error {e}"),
                },
                TableOp::Copy {
                    src,
                    dst,
                    take,
                    room_pages,
                } => {
                    let srcs: Vec<(Ppn, Lpn)> = model
                        .valid_lpns(src)
                        .into_iter()
                        .take(take)
                        .map(|(offset, lpn)| (geometry.ppn(BlockId(src), offset), lpn))
                        .collect();
                    let migrate = dev.timing().page_migrate_cost();
                    let room: Option<SimDuration> = room_pages.map(|pages| migrate * pages);
                    let mut dsts = Vec::new();
                    let out = dev
                        .copy_pages_within(&srcs, BlockId(dst), false, &mut dsts, room)
                        .expect("valid sources, destination in range");
                    assert_eq!(out.copied, dsts.len());
                    // Destination pages fill in order: the ones a failed
                    // program consumed carry the LPN it was writing.
                    let dst_first = dst as usize * per_block as usize;
                    let mut consumed = 0u64;
                    for (&(src_ppn, lpn), &new) in srcs.iter().zip(&dsts) {
                        for burnt in dst_first + model.write_ptr(dst)..new.0 as usize {
                            model.pages[burnt] = (PageState::Invalid, Some(lpn));
                            consumed += 1;
                        }
                        assert_eq!(new.0 as usize, dst_first + model.write_ptr(dst));
                        model.pages[new.0 as usize] = (PageState::Valid, Some(lpn));
                        model.pages[src_ppn.0 as usize].0 = PageState::Invalid;
                    }
                    if out.pending_read {
                        // The page in flight used up what was left.
                        let lpn = srcs[out.copied].1;
                        let end = dst_first + per_block as usize;
                        for burnt in dst_first + model.write_ptr(dst)..end {
                            model.pages[burnt] = (PageState::Invalid, Some(lpn));
                            consumed += 1;
                        }
                    }
                    assert_eq!(out.program_retries, consumed);
                    if !faults {
                        assert_eq!(consumed, 0);
                        if room.is_none() {
                            assert_eq!(out.pending_read, out.copied < srcs.len());
                        }
                    }
                }
            }
            model.assert_matches(&dev);
        }
    });
}

/// An LPN that does not fit a 32-bit OOB entry is an error, never a
/// wrapped entry: the page stays free and nothing is counted.
#[test]
fn oversized_lpns_are_refused_not_wrapped() {
    let mut dev = small_device();
    for lpn in [u64::from(u32::MAX), (1 << 32) + 5, u64::MAX] {
        assert_eq!(
            dev.program(Ppn(0), Lpn(lpn)),
            Err(NandError::LpnTooLarge { lpn: Lpn(lpn) })
        );
        let mut dsts = Vec::new();
        assert_eq!(
            dev.copy_pages_within(&[(Ppn(8), Lpn(lpn))], BlockId(0), true, &mut dsts, None),
            Err(NandError::LpnTooLarge { lpn: Lpn(lpn) })
        );
    }
    assert_eq!(dev.page_state(Ppn(0)), PageState::Free);
    assert_eq!(dev.stats().programs, 0);
    // The largest LPN an entry can hold is recorded faithfully.
    let largest = Lpn(u64::from(u32::MAX) - 1);
    dev.program(Ppn(0), largest).expect("fits");
    assert_eq!(dev.page_lpn(Ppn(0)), Some(largest));
}
