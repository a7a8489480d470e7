//! Per-layer probes: a fixed number of calls into one layer's public
//! functions, timed from outside, on state built at the 16x scale of the
//! Fig. 7 workloads. Each probe is a parentless span of the traced run
//! and yields one `*_ns` metric: timed nanoseconds per operation.

use crate::cells::system_16x;
use crate::measure::Metrics;
use crate::trace::Tracer;
use jitgc_array::{Redundancy, StripeMap};
use jitgc_core::manager::JitGcManager;
use jitgc_core::predictor::{BufferedWritePredictor, DirectWritePredictor};
use jitgc_core::system::SystemConfig;
use jitgc_ftl::{Ftl, SipList};
use jitgc_nand::{BlockId, Lpn, NandDevice};
use jitgc_pagecache::PageCache;
use jitgc_service::{Frame, PolicyChoice, Service, ServiceConfig, WfqArbiter};
use jitgc_sim::{ByteSize, SimDuration, SimRng, SimTime};
use jitgc_workload::{BenchmarkKind, IoKind, WorkloadConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// What a probe timed: how many operations, and for how long.
struct Timed {
    ops: u64,
    elapsed: Duration,
}

fn time(ops: u64, f: impl FnOnce()) -> Timed {
    let start = Instant::now();
    f();
    Timed {
        ops,
        elapsed: start.elapsed(),
    }
}

pub fn run_all(tracer: &mut Tracer, metrics: &mut Metrics) {
    tracer.set_cell("probes");
    let mut probe = |metric: &'static str, layer: &'static str, f: &mut dyn FnMut() -> Timed| {
        let timed = tracer.span(metric, layer, f);
        metrics.set(
            metric,
            timed.elapsed.as_nanos() as f64 / timed.ops.max(1) as f64,
        );
    };
    let system = system_16x();

    probe("workload.gen_ns_per_req", "workload", &mut || {
        workload_gen(&system)
    });

    let mut cache = PageCache::new(system.cache);
    probe("pagecache.write_ns", "pagecache", &mut || {
        cache_write(&mut cache)
    });
    probe("pagecache.read_ns", "pagecache", &mut || {
        cache_read(&mut cache)
    });
    probe("pagecache.flusher_tick_ns", "pagecache", &mut || {
        flusher_tick(&system)
    });

    probe("core.predictor.poll_ns", "core.predictor", &mut || {
        predictor_poll(&system)
    });
    probe("core.predictor.direct_ns", "core.predictor", &mut || {
        predictor_direct(&system)
    });
    probe("core.policy.decide_ns", "core.policy", &mut || {
        policy_decide(&system)
    });

    let mut ftl = aged_ftl(&system);
    probe("ftl.host_write_ns_per_page", "ftl", &mut || {
        ftl_write(&mut ftl)
    });
    probe("ftl.host_read_ns_per_page", "ftl", &mut || {
        ftl_read(&mut ftl)
    });
    probe("ftl.bgc_ns_per_block", "ftl", &mut || ftl_bgc(&mut ftl));

    probe("nand.program_ns", "nand", &mut || nand_program(&system));
    probe("nand.copy_pages_ns_per_page", "nand", &mut || {
        nand_copy(&system)
    });

    probe("array.stripe_split_ns", "array", &mut stripe_split);

    probe("service.wfq_pick_ns", "service", &mut wfq_pick);
    probe("service.submit_pump_ns", "service", &mut submit_pump);
    probe("service.proto_encode_ns", "service", &mut proto_encode);
    probe("service.proto_decode_ns", "service", &mut proto_decode);
}

fn working_set(system: &SystemConfig) -> u64 {
    system.ftl.user_pages() - system.ftl.op_pages() / 2
}

fn workload_gen(system: &SystemConfig) -> Timed {
    let mut workload = BenchmarkKind::Ycsb.build(
        WorkloadConfig::builder()
            .working_set_pages(working_set(system))
            .duration(SimDuration::from_secs(150))
            .mean_iops(4_000.0)
            .burst_mean(1_024.0)
            .seed(42)
            .build(),
    );
    let mut pulled = 0;
    let mut timed = time(0, || {
        while let Some(request) = workload.next_request() {
            black_box(request);
            pulled += 1;
        }
    });
    timed.ops = pulled;
    timed
}

const CACHE_OPS: u64 = 1_500_000;

/// Buffered writes over twice the cache's capacity: hits, allocations
/// and forced evictions all occur.
fn cache_write(cache: &mut PageCache) -> Timed {
    let span = cache.config().capacity_pages() * 2;
    let mut rng = SimRng::seed(11);
    time(CACHE_OPS, || {
        for i in 0..CACHE_OPS {
            black_box(cache.write(Lpn(rng.range_u64(0, span)), SimTime::from_micros(i)));
        }
    })
}

/// Reads over the same span on the cache the write probe left full.
fn cache_read(cache: &mut PageCache) -> Timed {
    let span = cache.config().capacity_pages() * 2;
    let mut rng = SimRng::seed(12);
    time(CACHE_OPS, || {
        for _ in 0..CACHE_OPS {
            black_box(cache.read(Lpn(rng.range_u64(0, span)), SimTime::ZERO));
        }
    })
}

/// One flusher wake-up per period, each writing back the 4 096 pages
/// that were dirtied one horizon earlier; the younger batches in between
/// hold the cache above the flush threshold. Only the wake-ups are timed.
fn flusher_tick(system: &SystemConfig) -> Timed {
    const ROUNDS: u64 = 1_000;
    const BATCH: u64 = 4_096;
    let mut cache = PageCache::new(system.cache);
    let period = system.flusher_period.as_micros();
    let span = system.cache.capacity_pages();
    let mut elapsed = Duration::ZERO;
    for round in 0..ROUNDS {
        let now = SimTime::from_micros(round * period);
        for i in 0..BATCH {
            cache.write(Lpn((round * BATCH + i) % span), now);
        }
        let start = Instant::now();
        black_box(cache.flusher_tick(now));
        elapsed += start.elapsed();
    }
    Timed {
        ops: ROUNDS,
        elapsed,
    }
}

/// `predict_into` on a half-dirty cache at a period boundary — the
/// incremental fast path the engine polls every tick.
fn predictor_poll(system: &SystemConfig) -> Timed {
    const POLLS: u64 = 40_000;
    let pages = system.cache.capacity_pages();
    let mut cache = PageCache::new(system.cache);
    let mut rng = SimRng::seed(13);
    for i in 0..pages / 2 {
        // Spread over the 4 s before the poll, oldest first.
        let at = SimTime::from_micros(1_000_000 + i * 4_000_000 / (pages / 2));
        cache.write(Lpn(rng.range_u64(0, pages * 2)), at);
    }
    let predictor = BufferedWritePredictor::new(
        system.flusher_period,
        system.tau_expire(),
        system.ftl.geometry().page_size(),
    );
    let poll = SimTime::from_secs(5);
    let mut sip = SipList::new();
    time(POLLS, || {
        for _ in 0..POLLS {
            black_box(predictor.predict_into(&cache, poll, &mut sip));
        }
    })
}

fn predictor_direct(system: &SystemConfig) -> Timed {
    const INTERVALS: u64 = 400_000;
    let mut predictor = DirectWritePredictor::new(
        system.flusher_period,
        system.tau_expire(),
        system.cdh_percentile,
        system.cdh_bin_bytes,
    );
    let mut rng = SimRng::seed(17);
    time(INTERVALS, || {
        for _ in 0..INTERVALS {
            predictor.observe_interval(rng.range_u64(0, 16 << 20));
            black_box(predictor.predict());
        }
    })
}

fn policy_decide(system: &SystemConfig) -> Timed {
    const DECISIONS: u64 = 4_000_000;
    let (write_bw, gc_bw) = system.default_bandwidths();
    let manager = JitGcManager::new(system.tau_expire(), write_bw, gc_bw);
    let mut rng = SimRng::seed(19);
    let mut d_buf = [0u64; 6];
    let d_dir = [2 << 20; 6];
    time(DECISIONS, || {
        for i in 0..DECISIONS {
            d_buf[(i % 6) as usize] = rng.range_u64(0, 64 << 20);
            black_box(manager.decide(&d_buf, &d_dir, ByteSize::mib(48)));
        }
    })
}

/// The 16x FTL with its whole working set written once in scrambled
/// order, like `SsdSystem::prefill` leaves it.
fn aged_ftl(system: &SystemConfig) -> Ftl {
    let mut ftl = Ftl::new(system.ftl.clone(), system.victim.build());
    let mut lpns: Vec<u64> = (0..working_set(system)).collect();
    let mut rng = SimRng::seed(0xA6ED);
    for i in (1..lpns.len()).rev() {
        lpns.swap(i, rng.range_u64(0, i as u64 + 1) as usize);
    }
    for lpn in lpns {
        ftl.host_write(Lpn(lpn), SimTime::ZERO)
            .expect("within user space");
    }
    ftl
}

const FTL_BATCH: usize = 4_096;
const FTL_BATCHES: u64 = 120;

fn random_batch(rng: &mut SimRng, ftl: &Ftl) -> Vec<Lpn> {
    let span = ftl.config().user_pages() - ftl.config().op_pages() / 2;
    (0..FTL_BATCH)
        .map(|_| Lpn(rng.range_u64(0, span)))
        .collect()
}

/// Random overwrites of a full device: every free-pool refill goes
/// through foreground GC, so this is the steady-state write path.
fn ftl_write(ftl: &mut Ftl) -> Timed {
    let mut rng = SimRng::seed(23);
    let mut elapsed = Duration::ZERO;
    for round in 0..FTL_BATCHES {
        let lpns = random_batch(&mut rng, ftl);
        let start = Instant::now();
        black_box(ftl.host_write_batch(&lpns, SimTime::from_secs(round)))
            .expect("within user space");
        elapsed += start.elapsed();
    }
    Timed {
        ops: FTL_BATCHES * FTL_BATCH as u64,
        elapsed,
    }
}

fn ftl_read(ftl: &mut Ftl) -> Timed {
    let mut rng = SimRng::seed(29);
    let mut elapsed = Duration::ZERO;
    for _ in 0..FTL_BATCHES * 2 {
        let lpns = random_batch(&mut rng, ftl);
        let start = Instant::now();
        black_box(ftl.host_read_batch(&lpns, SimTime::ZERO)).expect("within user space");
        elapsed += start.elapsed();
    }
    Timed {
        ops: FTL_BATCHES * 2 * FTL_BATCH as u64,
        elapsed,
    }
}

/// Background collection in 32-block strides on the device the write
/// probe fragmented, refragmenting between strides (untimed).
fn ftl_bgc(ftl: &mut Ftl) -> Timed {
    const STRIDES: u64 = 40;
    let per_block = u64::from(ftl.config().geometry().pages_per_block());
    let mut rng = SimRng::seed(31);
    let mut blocks = 0;
    let mut elapsed = Duration::ZERO;
    for stride in 0..STRIDES {
        let now = SimTime::from_secs(1_000 + stride);
        let target = ftl.free_pages() + 32 * per_block;
        let start = Instant::now();
        let out = ftl.background_collect(now, SimDuration::from_secs(3_600), Some(target));
        elapsed += start.elapsed();
        blocks += out.blocks_erased;
        let lpns = random_batch(&mut rng, ftl);
        ftl.host_write_batch(&lpns, now).expect("within user space");
    }
    Timed {
        ops: blocks,
        elapsed,
    }
}

/// Programs every page of the 16x device, erasing between passes
/// (untimed).
fn nand_program(system: &SystemConfig) -> Timed {
    const PASSES: u64 = 4;
    let geometry = *system.ftl.geometry();
    let mut device = NandDevice::new(geometry, *system.ftl.timing());
    let mut elapsed = Duration::ZERO;
    for _ in 0..PASSES {
        let start = Instant::now();
        for block in geometry.block_ids() {
            for offset in 0..geometry.pages_per_block() {
                let ppn = geometry.ppn(block, offset);
                black_box(device.program(ppn, Lpn(ppn.0))).expect("sequential program");
            }
        }
        elapsed += start.elapsed();
        for block in geometry.block_ids() {
            device.erase(block).expect("no endurance limit");
        }
    }
    Timed {
        ops: PASSES * geometry.total_pages(),
        elapsed,
    }
}

/// Bulk GC migration: whole valid blocks copied into erased ones, the
/// even half of the device into the odd half and back.
fn nand_copy(system: &SystemConfig) -> Timed {
    const PASSES: u64 = 6;
    let geometry = *system.ftl.geometry();
    let per_block = geometry.pages_per_block();
    let mut device = NandDevice::new(geometry, *system.ftl.timing());
    let pairs = geometry.blocks() / 2;
    for pair in 0..pairs {
        for offset in 0..per_block {
            let ppn = geometry.ppn(BlockId(pair * 2), offset);
            device.program(ppn, Lpn(ppn.0)).expect("sequential program");
        }
    }
    let mut elapsed = Duration::ZERO;
    let mut dst_ppns = Vec::with_capacity(per_block as usize);
    for pass in 0..PASSES {
        let (from, to) = if pass % 2 == 0 { (0, 1) } else { (1, 0) };
        for pair in 0..pairs {
            let (src, dst) = (BlockId(pair * 2 + from), BlockId(pair * 2 + to));
            let srcs: Vec<_> = (0..per_block)
                .map(|offset| {
                    let ppn = geometry.ppn(src, offset);
                    (ppn, device.page_lpn(ppn).expect("valid page"))
                })
                .collect();
            dst_ppns.clear();
            let start = Instant::now();
            black_box(device.copy_pages(&srcs, dst, false, &mut dst_ppns)).expect("valid copy");
            elapsed += start.elapsed();
            device.erase(src).expect("no endurance limit");
        }
    }
    Timed {
        ops: PASSES * u64::from(pairs) * u64::from(per_block),
        elapsed,
    }
}

/// Splitting 1-64-page extents over the 64-member, 64 KiB-chunk map.
fn stripe_split() -> Timed {
    const SPLITS: u64 = 3_000_000;
    let stripe = StripeMap::new(64, 16, Redundancy::None);
    let mut rng = SimRng::seed(37);
    let mut out = Vec::new();
    time(SPLITS, || {
        for _ in 0..SPLITS {
            out.clear();
            stripe.split(
                rng.range_u64(0, 1 << 20),
                rng.range_u64(1, 65) as u32,
                &mut out,
            );
            black_box(&out);
        }
    })
}

/// Pick among three backlogged tenants, then charge the winner.
fn wfq_pick() -> Timed {
    const PICKS: u64 = 4_000_000;
    let mut arbiter = WfqArbiter::new(&[1, 4, 2]);
    let mut rng = SimRng::seed(41);
    time(PICKS, || {
        for _ in 0..PICKS {
            let cost = rng.range_u64(1, 33) * 4_096;
            let heads = [(0, cost), (1, 4_096), (2, 8_192)];
            let tenant = arbiter.pick(heads.into_iter()).expect("three candidates");
            arbiter.dispatch(tenant, heads[tenant].1);
        }
    })
}

/// One single-page read through `submit` + `pump` + `take_completions`
/// on an otherwise idle small device, 100 µs apart in virtual time.
fn submit_pump() -> Timed {
    const REQUESTS: u64 = 400_000;
    let mut cfg = ServiceConfig::small_for_tests();
    cfg.system.prefill = false;
    let policy = PolicyChoice::Jit.build(&cfg.system);
    let mut service = Service::new(cfg, policy);
    let pages = service.pages_per_tenant();
    let mut rng = SimRng::seed(43);
    time(REQUESTS, || {
        for i in 0..REQUESTS {
            let now = SimTime::from_micros(i * 100);
            let tenant = (i % 3) as usize;
            service.submit(tenant, IoKind::Read, rng.range_u64(0, pages), 1, now);
            service.pump(now);
            black_box(service.take_completions(tenant));
        }
    })
}

const FRAMES: u64 = 3_000_000;

fn proto_encode() -> Timed {
    time(FRAMES, || {
        for id in 0..FRAMES {
            let frame = Frame::Submit {
                id,
                kind: IoKind::DirectWrite,
                lpn: id * 7,
                pages: 4,
            };
            black_box(frame.encode());
        }
    })
}

fn proto_decode() -> Timed {
    let encoded = Frame::Submit {
        id: 99,
        kind: IoKind::DirectWrite,
        lpn: 12_345,
        pages: 4,
    }
    .encode();
    // The first four bytes are the length prefix `read_frame` strips.
    let payload = &encoded[4..];
    time(FRAMES, || {
        for _ in 0..FRAMES {
            black_box(Frame::decode(black_box(payload))).expect("well-formed frame");
        }
    })
}
