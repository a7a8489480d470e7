//! Property tests of the NAND device state machine.

use jitgc_nand::{
    BlockId, CopyOutcome, FaultConfig, FaultModel, Geometry, Lpn, NandDevice, NandError,
    NandTiming, PageState, Ppn,
};
use jitgc_sim::check::{check, Gen};
use jitgc_sim::SimDuration;
use std::cell::Cell;

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
    /// `program_run` of these LPNs into a block (one past the device
    /// sometimes; an LPN no OOB entry can hold sometimes).
    ProgramRun(u32, Vec<u64>),
    /// `copy_valid_pages` of `src`'s valid pages into `dst`, with room
    /// for `room_pages` migrations (`None` = unlimited).
    Copy {
        src: u32,
        dst: u32,
        room_pages: Option<u64>,
    },
}

/// How a `program_run` ended, over all cases.
#[derive(Default)]
struct RunEnds {
    full_block: Cell<u32>,
    failed_program: Cell<u32>,
}

/// A loop of `program` on `block`'s write pointer — what `program_run`
/// replaces: the PPNs programmed, whether the loop stopped at a failed
/// program, and the time the calls returned or the failures cost.
fn program_loop(
    dev: &mut NandDevice,
    block: BlockId,
    lpns: &[u64],
) -> (Vec<Ppn>, bool, SimDuration) {
    let (mut ppns, mut took) = (Vec::new(), SimDuration::ZERO);
    for &lpn in lpns {
        let Some(offset) = dev.block(block).next_free_offset() else {
            break;
        };
        let ppn = dev.geometry().ppn(block, offset);
        match dev.program(ppn, Lpn(lpn)) {
            Ok(cost) => {
                took += cost;
                ppns.push(ppn);
            }
            Err(NandError::ProgramFailed { .. }) => {
                took += dev.timing().page_program_cost();
                return (ppns, true, took);
            }
            Err(e) => panic!("a program the run could make failed: {e}"),
        }
    }
    (ppns, false, took)
}

/// Where a device's fault stream stands: the outcomes of a fixed probe
/// of erases, run on a copy. Two devices that drew a different number of
/// faults so far answer differently.
fn fault_probe(dev: &NandDevice) -> Vec<bool> {
    let mut dev = dev.clone();
    (0..24).map(|_| dev.erase(BlockId(0)).is_ok()).collect()
}

/// 128 cases × up to 400 ops on a 3- or 4-block device of 8, 64, 70 or
/// 130 pages a block (one, one, two and three validity words; the last
/// two not word-aligned), faults off and on: after **every** op each
/// read-only view of every block, and the three device tallies, must
/// agree with a naive per-page `Vec<(PageState, Option<Lpn>)>`. In
/// particular a page programmed, erased and not yet re-programmed reads
/// `(Free, None)` although the erase left its OOB entry in place.
///
/// A `program_run` is held to a loop of `program` on a copy of the
/// device taken just before it: the same PPNs, the same stop, the same
/// time, stats and tallies, and the fault stream at the same place. With
/// faults on, every block is worn by a few erases up front, so runs stop
/// at failed programs as well as at full blocks; both must happen.
#[test]
fn flat_tables_agree_with_a_per_page_model() {
    let ends = RunEnds::default();
    check(0x4A4D_0005, 128, |g| {
        let per_block = g.pick(&[8u32, 64, 70, 130]);
        let blocks = g.u64(3, 5) as u32;
        let faults = g.u64(0, 2) == 1;
        let fault_seed = g.any_u64();
        let wear: Vec<u64> = (0..blocks).map(|_| g.u64(0, 6)).collect();
        let total = u64::from(blocks) * u64::from(per_block);
        let ops = g.vec(1, 400, |g| match g.weighted(&[10, 1, 1, 5, 1, 2, 3]) {
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
            5 => {
                let mut lpns = g.vec(1, per_block as usize + 3, |g| g.u64(0, 1_000));
                if g.u64(0, 8) == 0 {
                    let at = g.usize(0, lpns.len());
                    lpns[at] = u64::from(u32::MAX);
                }
                TableOp::ProgramRun(g.u64(0, u64::from(blocks) + 1) as u32, lpns)
            }
            _ => {
                let src = g.u64(0, u64::from(blocks)) as u32;
                TableOp::Copy {
                    src,
                    dst: (src + 1 + g.u64(0, u64::from(blocks) - 1) as u32) % blocks,
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
        if faults {
            for (b, &erases) in (0..).zip(&wear) {
                for _ in 0..erases {
                    // A failed erase leaves the block erased all the same.
                    let _ = dev.erase(BlockId(b));
                }
            }
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
                TableOp::ProgramRun(b, ref lpns) => {
                    let before = dev.clone();
                    let mut dsts = Vec::new();
                    let run: Vec<Lpn> = lpns.iter().map(|&lpn| Lpn(lpn)).collect();
                    let result = dev.program_run(BlockId(b), &run, &mut dsts);
                    if b == blocks {
                        assert!(matches!(result, Err(NandError::BlockOutOfRange { .. })));
                        continue;
                    }
                    let room = (per_block as usize - model.write_ptr(b)).min(lpns.len());
                    if lpns[..room].contains(&u64::from(u32::MAX)) {
                        assert!(matches!(result, Err(NandError::LpnTooLarge { .. })));
                        assert_eq!(
                            dev.stats(),
                            before.stats(),
                            "a refused run programs nothing"
                        );
                        continue;
                    }
                    let out = result.expect("a legal run");
                    let mut looped = before;
                    let (ppns, failed, took) = program_loop(&mut looped, BlockId(b), lpns);
                    assert_eq!(dsts, ppns);
                    assert_eq!(out.programmed, ppns.len());
                    assert_eq!((out.failed, out.duration), (failed, took));
                    assert_eq!(dev.stats(), looped.stats());
                    assert_eq!(fault_probe(&dev), fault_probe(&looped));
                    // The model follows the loop; `dev` must match it below.
                    let first = b as usize * per_block as usize + model.write_ptr(b);
                    for (k, &lpn) in lpns
                        .iter()
                        .enumerate()
                        .take(ppns.len() + usize::from(failed))
                    {
                        let state = if k < ppns.len() {
                            PageState::Valid
                        } else {
                            PageState::Invalid
                        };
                        model.pages[first + k] = (state, Some(Lpn(lpn)));
                    }
                    model.assert_matches(&looped);
                    let bump = |ends: &Cell<u32>| ends.set(ends.get() + 1);
                    if failed {
                        bump(&ends.failed_program);
                    } else if ppns.len() < lpns.len() {
                        bump(&ends.full_block);
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
                    room_pages,
                } => {
                    let srcs: Vec<(Ppn, Lpn)> = model
                        .valid_lpns(src)
                        .into_iter()
                        .map(|(offset, lpn)| (geometry.ppn(BlockId(src), offset), lpn))
                        .collect();
                    let migrate = dev.timing().page_migrate_cost();
                    let room: Option<SimDuration> = room_pages.map(|pages| migrate * pages);
                    let mut moved = Vec::new();
                    let out = dev
                        .copy_valid_pages(BlockId(src), BlockId(dst), false, room, |lpn, ppn| {
                            moved.push((lpn, ppn));
                        })
                        .expect("both blocks in range");
                    assert_eq!(out.copied, moved.len());
                    let dsts: Vec<Ppn> = moved.iter().map(|&(_, ppn)| ppn).collect();
                    assert!(
                        moved.iter().zip(&srcs).all(|(m, s)| m.0 == s.1),
                        "pages move in offset order under their own LPNs"
                    );
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
    let (full, failed) = (ends.full_block.get(), ends.failed_program.get());
    assert!(
        full > 50 && failed > 50,
        "runs stopped at a full block {full} times, at a failed program {failed} times"
    );
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
            dev.copy_pages(&[(Ppn(8), Lpn(lpn))], BlockId(0), true, &mut dsts),
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

/// How the word-walk copy cases ended, over all cases.
#[derive(Default)]
struct CopyEnds {
    /// A budget stop in front of a page whose validity word also held a
    /// page this call moved.
    mid_word: Cell<u32>,
    /// The destination filled after this call read the next page.
    pending: Cell<u32>,
    /// A fault fired: an uncorrectable read or a failed program.
    faulted: Cell<u32>,
}

/// The per-page loop `copy_valid_pages` replaces, on `dev`: for each valid
/// page of `victim` in offset order, the budget gate, a read (skipped for
/// the first page when the caller read it), programs into `dst` until one
/// succeeds, then the invalidation. Returns what the word walk returns:
/// its outcome and the `(lpn, new_ppn)` of every page moved.
fn per_page_copy(
    dev: &mut NandDevice,
    victim: BlockId,
    dst: BlockId,
    first_read_done: bool,
    room: Option<SimDuration>,
) -> (CopyOutcome, Vec<(Lpn, Ppn)>) {
    let timing = *dev.timing();
    let migrate = timing.page_migrate_cost();
    let srcs: Vec<(u32, Lpn)> = dev.block(victim).valid_lpns().collect();
    let mut out = CopyOutcome::default();
    let mut moved = Vec::new();
    'pages: for (k, (offset, lpn)) in srcs.into_iter().enumerate() {
        let src = dev.geometry().ppn(victim, offset);
        let page_start = out.duration;
        if k > 0 || !first_read_done {
            if room.is_some_and(|room| out.duration + migrate > room) {
                break;
            }
            out.duration += match dev.read(src) {
                Ok(took) => took,
                Err(NandError::ReadFailed { .. }) => {
                    out.read_failures += 1;
                    timing.page_read_cost()
                }
                Err(e) => panic!("source read: {e}"),
            };
        }
        let new_ppn = loop {
            let Some(at) = dev.block(dst).next_free_offset() else {
                out.pending_read = true;
                out.pending_cost = out.duration - page_start;
                break 'pages;
            };
            let ppn = dev.geometry().ppn(dst, at);
            match dev.program(ppn, lpn) {
                Ok(took) => {
                    out.duration += took;
                    break ppn;
                }
                Err(NandError::ProgramFailed { .. }) => {
                    out.duration += timing.page_program_cost();
                    out.program_retries += 1;
                }
                Err(e) => panic!("program: {e}"),
            }
        };
        dev.invalidate(src).expect("the source page is valid");
        moved.push((lpn, new_ppn));
        out.copied += 1;
    }
    (out, moved)
}

/// 256 cases: `copy_valid_pages` on a device and the per-page read →
/// program → invalidate loop on a clone of it end in the same place —
/// the same outcome (time, pages, read failures, retries, pending read
/// and its cost), the same pages moved to the same PPNs, the same
/// counters, tallies and page tables, and the fault stream at the same
/// point. Blocks of 8 to 256 pages (one to four validity words, two not
/// word-aligned) hold a drawn share of valid pages; the destination
/// starts empty, part-full or a page or two short of full; the caller
/// has read the first page or not; and the budget is unlimited or a
/// drawn number of page migrations plus a remainder. Faults are off in
/// half the cases, and on worn blocks in the rest. Across the cases
/// budgets must stop mid-word, destinations must fill while a read is
/// pending, and faults must fire.
#[test]
fn word_walk_copy_matches_the_per_page_loop() {
    let ends = CopyEnds::default();
    check(0x4A4D_0006, 256, |g| {
        let per_block = g.pick(&[8u32, 64, 70, 130, 256]);
        let faults = g.u64(0, 2) == 1;
        let geometry = Geometry::builder()
            .blocks(3)
            .pages_per_block(per_block)
            .build();
        let mut dev = NandDevice::new(geometry, NandTiming::mlc_20nm());
        if faults {
            dev = dev.with_fault_model(FaultModel::new(FaultConfig {
                seed: g.any_u64(),
                program_rate: 0.3,
                erase_rate: 0.0,
                read_rate: 0.3,
                wear_scale: 4,
            }));
            for b in [0, 1] {
                for _ in 0..g.u64(0, 6) {
                    dev.erase(BlockId(b)).expect("erases never fail here");
                }
            }
        }
        let (victim, dst) = (BlockId(0), BlockId(1));
        // Fill the victim, LPN = offset (failed programs leave invalid
        // pages), then invalidate a drawn share of what landed.
        let keep = g.u64(1, 101);
        for lpn in 0..u64::from(per_block) {
            let at = dev.block(victim).next_free_offset().expect("room");
            let ppn = geometry.ppn(victim, at);
            if dev.program(ppn, Lpn(lpn)).is_ok() && g.u64(0, 100) >= keep {
                dev.invalidate(ppn).expect("just programmed");
            }
        }
        let filled = match g.weighted(&[2, 2, 1]) {
            0 => 0,
            1 => g.u64(0, u64::from(per_block)),
            _ => u64::from(per_block) - g.u64(1, 3),
        };
        for lpn in 0..filled {
            let at = dev.block(dst).next_free_offset().expect("room");
            let _ = dev.program(geometry.ppn(dst, at), Lpn(10_000 + lpn));
        }
        let valid = dev.block(victim).valid_pages();
        let first_read_done = valid > 0 && g.u64(0, 2) == 1;
        if first_read_done {
            let (offset, _) = dev.block(victim).valid_lpns().next().expect("valid");
            let _ = dev.read(geometry.ppn(victim, offset));
        }
        let migrate = dev.timing().page_migrate_cost();
        let room = (g.u64(0, 3) > 0).then(|| {
            migrate * g.u64(0, u64::from(valid) + 2)
                + SimDuration::from_micros(g.u64(0, migrate.as_micros()))
        });

        let mut looped = dev.clone();
        let mut moved = Vec::new();
        let out = dev
            .copy_valid_pages(victim, dst, first_read_done, room, |lpn, ppn| {
                moved.push((lpn, ppn));
            })
            .expect("both blocks in range");
        let (want, want_moved) = per_page_copy(&mut looped, victim, dst, first_read_done, room);
        assert_eq!(out, want);
        assert_eq!(moved, want_moved);
        assert_eq!(dev.stats(), looped.stats());
        assert_eq!(dev.total_valid_pages(), looped.total_valid_pages());
        assert_eq!(dev.total_invalid_pages(), looped.total_invalid_pages());
        assert_eq!(dev.total_free_pages(), looped.total_free_pages());
        for b in geometry.block_ids() {
            assert_eq!(
                dev.block(b).iter_pages().collect::<Vec<_>>(),
                looped.block(b).iter_pages().collect::<Vec<_>>(),
                "{b}"
            );
        }
        assert_eq!(fault_probe(&dev), fault_probe(&looped));

        let bump = |end: &Cell<u32>| end.set(end.get() + 1);
        if !out.pending_read && out.copied < valid as usize {
            // A budget stop in front of the first page left. Each page's
            // LPN is its victim offset, so a moved page in the refused
            // page's validity word makes the stop mid-word.
            let (refused, _) = dev.block(victim).valid_lpns().next().expect("refused");
            let word = u64::from(refused / 64);
            if moved.iter().any(|&(lpn, _)| lpn.0 / 64 == word) {
                bump(&ends.mid_word);
            }
        }
        if out.pending_read && !(first_read_done && out.copied == 0) {
            bump(&ends.pending);
        }
        if out.read_failures > 0 || out.program_retries > 0 {
            bump(&ends.faulted);
        }
    });
    let (mid_word, pending, faulted) =
        (ends.mid_word.get(), ends.pending.get(), ends.faulted.get());
    assert!(
        mid_word > 50 && pending > 30 && faulted > 50,
        "{mid_word} budget stops mid-word, {pending} pending reads, {faulted} faulted copies"
    );
}
