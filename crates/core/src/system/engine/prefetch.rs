//! The request prefetcher of [`ClosedLoop::run`](crate::system::ClosedLoop::run)
//! and of the service's tenant streams ([`prefetch_streams`]).
//!
//! A [`Workload`] stream never depends on the simulation: `next_request`
//! takes no input, and the closed loop adds each request's `gap` itself.
//! So the loop can generate requests on a second thread while the
//! calling thread steps the earlier ones. The first [`INLINE_PREFIX`]
//! requests are pulled on the calling thread, so a short run starts no
//! thread. A run that outlasts them lends the workload to one scoped
//! generator thread, which fills [`BATCH`]-request batches and sends them
//! back through a bounded channel; the caller drains each batch and
//! returns it through a second one to be refilled, [`IN_FLIGHT`] batches
//! in circulation. The caller sees the workload's own order, so no report
//! depends on which thread generated a request.
//!
//! [`prefetch_streams`] does the same for several workloads at once, all
//! on one generator thread: each stream has its own [`IN_FLIGHT`]
//! batches, allocated before the caller's loop starts, and its own
//! channel back to the caller, while spent batches of every stream share
//! one channel to the generator, which refills them in the order they
//! come back. The caller pulls any stream at any time
//! ([`Streams::next`]), in the stream's own order.
//!
//! The generator is joined before [`drain`] (or [`prefetch_streams`])
//! returns, and a panic on it resumes on the caller with its own payload,
//! so a run never reports a truncated stream. A panic in the caller's
//! sink unwinds through the scope: the channels close first, the
//! generator's next send or receive fails and it returns, and the scope's
//! join finds it gone. A spawn the OS refuses leaves the workload with
//! the caller, which pulls the rest inline.

use jitgc_workload::{IoRequest, Workload};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::{self, ScopedJoinHandle};

/// Requests pulled on the calling thread before the generator starts.
/// Starting any thread maps ~0.3 MB more of the process's code and stack
/// resident, which a short run (an idle day holds ~43 k requests) never
/// pays.
const INLINE_PREFIX: u64 = 1 << 16;

/// Requests per batch.
const BATCH: usize = 1024;

/// Batches in circulation: one the caller drains while the generator
/// fills the other.
const IN_FLIGHT: usize = 2;

/// Hands every request of `workload` to `sink`, in order, until the
/// workload is exhausted.
pub(in crate::system) fn drain(workload: &mut dyn Workload, sink: impl FnMut(IoRequest)) {
    drain_with(
        workload,
        thread::Builder::new().name("workload".into()),
        sink,
    );
}

/// [`drain`], with the generator thread built by `generator`.
fn drain_with(
    workload: &mut dyn Workload,
    generator: thread::Builder,
    mut sink: impl FnMut(IoRequest),
) {
    for _ in 0..INLINE_PREFIX {
        match workload.next_request() {
            Some(req) => sink(req),
            None => return,
        }
    }
    // A reborrow: if no generator runs, the workload is the caller's again.
    let lent = &mut *workload;
    let spawned = thread::scope(|scope| {
        let (full_tx, full_rx) = sync_channel::<Vec<IoRequest>>(IN_FLIGHT);
        let (empty_tx, empty_rx) = sync_channel::<Vec<IoRequest>>(IN_FLIGHT);
        for _ in 0..IN_FLIGHT {
            empty_tx
                .send(Vec::with_capacity(BATCH))
                .expect("the channel holds every batch");
        }
        let Ok(handle) = generator.spawn_scoped(scope, move || generate(lent, &full_tx, &empty_rx))
        else {
            return false;
        };
        // The generator drops its sender once it has sent a short batch
        // (or panicked): then the last batch is in.
        while let Ok(mut batch) = full_rx.recv() {
            batch.drain(..).for_each(&mut sink);
            // Fails once the generator is done; the batch is freed here.
            let _ = empty_tx.send(batch);
        }
        if let Err(payload) = handle.join() {
            std::panic::resume_unwind(payload);
        }
        true
    });
    if !spawned {
        while let Some(req) = workload.next_request() {
            sink(req);
        }
    }
}

/// The generator thread: fills each batch it gets back until the
/// workload runs dry, ending with a short (possibly empty) batch.
fn generate(
    workload: &mut dyn Workload,
    full: &SyncSender<Vec<IoRequest>>,
    empty: &Receiver<Vec<IoRequest>>,
) {
    while let Ok(mut batch) = empty.recv() {
        batch.extend(std::iter::from_fn(|| workload.next_request()).take(BATCH));
        let last = batch.len() < BATCH;
        if full.send(batch).is_err() || last {
            return;
        }
    }
}

/// Runs `body` with [`Streams`] over `workloads`: stream `i` yields every
/// request of `workloads[i]`, in order, generated on one thread for all
/// of them while `body` runs on the calling thread. Returns what `body`
/// returns, once the generator has been joined.
pub fn prefetch_streams<W: Workload, R>(
    workloads: &mut [W],
    body: impl FnOnce(&mut Streams<'_, W>) -> R,
) -> R {
    prefetch_streams_with(
        workloads,
        thread::Builder::new().name("streams".into()),
        body,
    )
}

/// [`prefetch_streams`], with the generator thread built by `generator`.
fn prefetch_streams_with<W: Workload, R>(
    workloads: &mut [W],
    generator: thread::Builder,
    body: impl FnOnce(&mut Streams<'_, W>) -> R,
) -> R {
    let count = workloads.len();
    let mut body = Some(body);
    // A reborrow: if no generator runs, the workloads are the caller's again.
    let lent = &mut *workloads;
    let threaded = thread::scope(|scope| {
        let (spent_tx, spent_rx) = sync_channel::<(usize, Vec<IoRequest>)>(count * IN_FLIGHT);
        let (full_txs, lanes): (Vec<_>, Vec<_>) = (0..count)
            .map(|stream| {
                for _ in 0..IN_FLIGHT {
                    spent_tx
                        .send((stream, Vec::with_capacity(BATCH)))
                        .expect("the channel holds every batch");
                }
                let (full_tx, full_rx) = sync_channel::<Vec<IoRequest>>(IN_FLIGHT);
                let lane = Lane {
                    full: full_rx,
                    batch: Vec::new(),
                    next: 0,
                    last: false,
                };
                (full_tx, lane)
            })
            .unzip();
        let generate = move || generate_streams(lent, &full_txs, &spent_rx);
        let Ok(handle) = generator.spawn_scoped(scope, generate) else {
            return None;
        };
        let mut streams = Streams {
            source: Source::Threaded {
                lanes,
                spent: spent_tx,
                generator: Some(handle),
            },
        };
        let out = (body.take().expect("the body runs once"))(&mut streams);
        streams.join();
        Some(out)
    });
    threaded.unwrap_or_else(|| {
        let mut streams = Streams {
            source: Source::Inline(workloads),
        };
        (body.take().expect("the body runs once"))(&mut streams)
    })
}

/// The request streams [`prefetch_streams`] hands its body.
pub struct Streams<'s, W> {
    source: Source<'s, W>,
}

enum Source<'s, W> {
    /// Generated on the generator thread.
    Threaded {
        lanes: Vec<Lane>,
        /// Spent batches back to the generator, tagged with their stream.
        spent: SyncSender<(usize, Vec<IoRequest>)>,
        generator: Option<ScopedJoinHandle<'s, ()>>,
    },
    /// The spawn failed: pulled on the calling thread.
    Inline(&'s mut [W]),
}

/// One stream's end of the generator's batches.
struct Lane {
    full: Receiver<Vec<IoRequest>>,
    /// The batch being read; empty before the first.
    batch: Vec<IoRequest>,
    next: usize,
    /// `batch` is the stream's short, final one.
    last: bool,
}

impl<W: Workload> Streams<'_, W> {
    /// Stream `stream`'s next request, or `None` once it has ended.
    ///
    /// # Panics
    ///
    /// Panics if `stream` is out of range, and with the generator's own
    /// payload if the generator panicked.
    pub fn next(&mut self, stream: usize) -> Option<IoRequest> {
        let (lanes, spent, generator) = match &mut self.source {
            Source::Inline(workloads) => return workloads[stream].next_request(),
            Source::Threaded {
                lanes,
                spent,
                generator,
            } => (lanes, spent, generator),
        };
        let lane = &mut lanes[stream];
        if lane.next == lane.batch.len() {
            if lane.last {
                return None;
            }
            let batch = std::mem::take(&mut lane.batch);
            if batch.capacity() > 0 {
                // Fails once the generator is done; the batch is freed here.
                let _ = spent.send((stream, batch));
            }
            let Ok(batch) = lane.full.recv() else {
                // The generator hung up before this stream's short batch:
                // it panicked.
                let handle = generator.take().expect("the generator is joined once");
                if let Err(payload) = handle.join() {
                    std::panic::resume_unwind(payload);
                }
                unreachable!("the generator returned before stream {stream} ended");
            };
            lane.last = batch.len() < BATCH;
            lane.batch = batch;
            lane.next = 0;
        }
        let req = lane.batch.get(lane.next).copied();
        lane.next += usize::from(req.is_some());
        req
    }

    /// Hangs up on the generator and joins it, resuming its panic.
    fn join(self) {
        let Source::Threaded {
            lanes,
            spent,
            generator,
        } = self.source
        else {
            return;
        };
        drop((lanes, spent));
        if let Some(Err(payload)) = generator.map(ScopedJoinHandle::join) {
            std::panic::resume_unwind(payload);
        }
    }
}

/// The generator thread of [`prefetch_streams`]: refills each spent batch
/// from its stream's workload, ending each stream with a short (possibly
/// empty) batch, until the caller hangs up. A spent batch of an ended
/// stream is kept, not freed, so the batches stay allocated until the
/// caller is done: the run's peak heap then does not depend on when its
/// streams end.
fn generate_streams<W: Workload>(
    workloads: &mut [W],
    full: &[SyncSender<Vec<IoRequest>>],
    spent: &Receiver<(usize, Vec<IoRequest>)>,
) {
    let mut ended = vec![false; workloads.len()];
    let mut kept = Vec::with_capacity(workloads.len() * IN_FLIGHT);
    while let Ok((stream, mut batch)) = spent.recv() {
        if ended[stream] {
            kept.push(batch);
            continue;
        }
        let workload = &mut workloads[stream];
        batch.clear();
        batch.extend(std::iter::from_fn(|| workload.next_request()).take(BATCH));
        ended[stream] = batch.len() < BATCH;
        if full[stream].send(batch).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::NoBgc;
    use crate::system::{SsdSystem, SystemConfig};
    use jitgc_nand::Lpn;
    use jitgc_sim::SimDuration;
    use jitgc_workload::{IoKind, WriteMix};
    use std::cell::Cell;
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    /// `n` distinct requests, then `None`; panics at request `panic_at`,
    /// if set. Records how often it was pulled and whether any pull came
    /// from a thread other than its creator's.
    struct Numbered {
        n: u64,
        pulls: u64,
        panic_at: Option<u64>,
        home: thread::ThreadId,
        pulled_elsewhere: bool,
        /// Also held by each thread other than the creator's that pulled
        /// from this workload, until that thread exits.
        held: Arc<()>,
    }

    impl Numbered {
        fn new(n: u64) -> Self {
            Numbered {
                n,
                pulls: 0,
                panic_at: None,
                home: thread::current().id(),
                pulled_elsewhere: false,
                held: Arc::new(()),
            }
        }

        /// What a bare pull loop yields.
        fn bare(n: u64) -> Vec<IoRequest> {
            let mut workload = Numbered::new(n);
            std::iter::from_fn(|| workload.next_request()).collect()
        }
    }

    thread_local! {
        /// Dropped when its thread exits.
        static HELD: Cell<Option<Arc<()>>> = const { Cell::new(None) };
    }

    impl Workload for Numbered {
        fn name(&self) -> &'static str {
            "numbered"
        }

        fn next_request(&mut self) -> Option<IoRequest> {
            if thread::current().id() != self.home && !self.pulled_elsewhere {
                self.pulled_elsewhere = true;
                HELD.set(Some(Arc::clone(&self.held)));
            }
            let i = self.pulls;
            self.pulls += 1;
            if self.panic_at == Some(i) {
                panic!("the generator failed at request {i}");
            }
            (i < self.n).then(|| IoRequest {
                gap: SimDuration::from_micros(i % 1_000),
                kind: [IoKind::Read, IoKind::BufferedWrite, IoKind::DirectWrite][i as usize % 3],
                lpn: Lpn(i % 4_096),
                pages: 1 + (i % 4) as u32,
            })
        }

        fn write_mix(&self) -> WriteMix {
            WriteMix::new(0.5)
        }

        fn working_set_pages(&self) -> u64 {
            4_096
        }
    }

    const P: u64 = INLINE_PREFIX;
    const B: u64 = BATCH as u64;

    /// The drained stream is the bare workload's, request for request,
    /// around every edge of the inline prefix and of the first batch; the
    /// workload is pulled once past its end and no more; and a run that
    /// went threaded leaves no generator behind.
    #[test]
    fn the_stream_is_the_bare_workloads() {
        for n in [0, 1, P - 1, P, P + 1, P + B - 1, P + B, P + B + 1] {
            let mut workload = Numbered::new(n);
            let mut got = Vec::new();
            drain(&mut workload, |req| got.push(req));
            assert!(got == Numbered::bare(n), "{n} requests: the streams differ");
            assert_eq!(workload.pulls, n + 1, "{n} requests: pulled past the end");
            assert_eq!(workload.pulled_elsewhere, n >= P, "{n} requests");
            assert_eq!(
                Arc::strong_count(&workload.held),
                1,
                "{n} requests: the generator thread outlived the drain"
            );
        }
    }

    /// A generator that panics past the prefix resumes its panic on the
    /// caller instead of ending the stream early.
    #[test]
    fn a_generator_panic_resumes_on_the_caller() {
        let mut workload = Numbered::new(P + 10 * B);
        workload.panic_at = Some(70_000);
        let mut seen = 0u64;
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            drain(&mut workload, |_| seen += 1);
        }))
        .expect_err("the generator panicked");
        let message = payload.downcast_ref::<String>().map(String::as_str);
        assert_eq!(message, Some("the generator failed at request 70000"));
        assert!(workload.pulled_elsewhere, "the panic came from the caller");
        assert!(seen < 70_000, "{seen} requests reached the engine");
    }

    /// `run` panics with the generator's message, whichever thread pulled
    /// the failing request.
    #[test]
    #[should_panic(expected = "the generator failed at request 70000")]
    fn a_generator_panic_reaches_run() {
        let mut workload = Numbered::new(P + 10 * B);
        workload.panic_at = Some(70_000);
        let mut config = SystemConfig::default_sim();
        config.prefill = false;
        let mut system = SsdSystem::new(config, Box::new(NoBgc), Box::new(workload));
        drop(system.run());
    }

    /// Runs `f` on a thread of its own and gives up after 30 s, so a hang
    /// fails the test instead of stalling the suite.
    fn within_30s<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || tx.send(f()));
        rx.recv_timeout(Duration::from_secs(30))
            .expect("the drain hung")
    }

    /// An engine panic past the prefix unwinds out of the drain: the
    /// closed channels stop the generator, so the scope's join returns.
    #[test]
    fn an_engine_panic_unwinds_without_hanging() {
        let payload = within_30s(|| {
            let mut workload = Numbered::new(P + 10 * B);
            let mut seen = 0u64;
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                drain(&mut workload, |_| {
                    seen += 1;
                    if seen == P + 3 * B + 5 {
                        panic!("the engine failed at request {seen}");
                    }
                });
            }))
            .expect_err("the sink panicked");
            payload.downcast_ref::<String>().cloned()
        });
        assert_eq!(
            payload.as_deref(),
            Some("the engine failed at request 68613")
        );
    }

    /// A spawn the OS refuses (here a stack larger than any address
    /// space, which no thread gets) leaves the workload with the caller,
    /// which pulls the rest itself.
    #[test]
    fn a_failed_spawn_pulls_inline() {
        let n = P + 3 * B;
        let mut workload = Numbered::new(n);
        let mut got = Vec::new();
        let unspawnable = thread::Builder::new().stack_size(1 << 60);
        drain_with(&mut workload, unspawnable, |req| got.push(req));
        assert!(got == Numbered::bare(n), "the streams differ");
        assert!(!workload.pulled_elsewhere, "a generator thread ran");
        assert_eq!(workload.pulls, n + 1);
    }

    /// Pulls every stream to its end in a fixed, uneven interleaving (a
    /// draw of 1 – 3 requests from each live stream in turn).
    fn pull_all(streams: &mut Streams<'_, Numbered>, count: usize) -> Vec<Vec<IoRequest>> {
        let mut got = vec![Vec::new(); count];
        let mut live: Vec<usize> = (0..count).collect();
        let mut turn = 0usize;
        while !live.is_empty() {
            let at = turn % live.len();
            let stream = live[at];
            for _ in 0..1 + turn % 3 {
                match streams.next(stream) {
                    Some(req) => got[stream].push(req),
                    None => {
                        live.remove(at);
                        break;
                    }
                }
            }
            turn += 1;
        }
        got
    }

    /// Each stream is its bare workload, request for request, around
    /// every edge of a batch, whatever the interleaving of the pulls;
    /// every workload is pulled once past its end and no more, on the
    /// generator thread; and the generator is gone once the body returns.
    #[test]
    fn every_stream_is_its_bare_workload() {
        let sizes = [0, 1, B - 1, B, B + 1, 3 * B, 5 * B + 17];
        let mut workloads: Vec<Numbered> = sizes.iter().map(|&n| Numbered::new(n)).collect();
        let got = prefetch_streams(&mut workloads, |streams| {
            let got = pull_all(streams, sizes.len());
            for stream in 0..sizes.len() {
                assert_eq!(streams.next(stream), None, "stream {stream} ended");
            }
            got
        });
        for ((n, workload), got) in sizes.iter().zip(&workloads).zip(got) {
            assert!(
                got == Numbered::bare(*n),
                "{n} requests: the streams differ"
            );
            assert_eq!(workload.pulls, n + 1, "{n} requests: pulled past the end");
            assert!(workload.pulled_elsewhere, "{n} requests: pulled inline");
            assert_eq!(
                Arc::strong_count(&workload.held),
                1,
                "{n} requests: the generator thread outlived the body"
            );
        }
    }

    /// A generator that panics resumes its panic on the caller, at the
    /// pull that waits for the batch it never sent.
    #[test]
    fn a_stream_generator_panic_resumes_on_the_caller() {
        let mut workloads = vec![Numbered::new(4 * B), Numbered::new(4 * B)];
        workloads[1].panic_at = Some(2 * B + 5);
        let mut seen = 0u64;
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            prefetch_streams(&mut workloads, |streams| {
                while streams.next(1).is_some() {
                    seen += 1;
                }
            });
        }))
        .expect_err("the generator panicked");
        let message = payload.downcast_ref::<String>().map(String::as_str);
        assert_eq!(message, Some("the generator failed at request 2053"));
        assert_eq!(seen, 2 * B, "the requests before the failed batch arrived");
    }

    /// A panic in the body unwinds out of `prefetch_streams`: the closed
    /// channels stop the generator, so the scope's join returns.
    #[test]
    fn a_body_panic_unwinds_without_hanging() {
        let payload = within_30s(|| {
            let mut workloads = vec![Numbered::new(10 * B), Numbered::new(10 * B)];
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                prefetch_streams(&mut workloads, |streams| {
                    for seen in 1u64.. {
                        streams.next((seen % 2) as usize);
                        if seen == 3 * B + 5 {
                            panic!("the service failed at request {seen}");
                        }
                    }
                });
            }))
            .expect_err("the body panicked");
            payload.downcast_ref::<String>().cloned()
        });
        assert_eq!(
            payload.as_deref(),
            Some("the service failed at request 3077")
        );
    }

    /// A spawn the OS refuses leaves the workloads with the caller, which
    /// pulls every stream itself.
    #[test]
    fn a_failed_spawn_pulls_the_streams_inline() {
        let sizes = [B + 3, 2 * B];
        let mut workloads: Vec<Numbered> = sizes.iter().map(|&n| Numbered::new(n)).collect();
        let unspawnable = thread::Builder::new().stack_size(1 << 60);
        let got = prefetch_streams_with(&mut workloads, unspawnable, |streams| {
            pull_all(streams, sizes.len())
        });
        for ((n, workload), got) in sizes.iter().zip(&workloads).zip(got) {
            assert!(
                got == Numbered::bare(*n),
                "{n} requests: the streams differ"
            );
            assert!(!workload.pulled_elsewhere, "a generator thread ran");
            assert_eq!(workload.pulls, n + 1);
        }
    }
}
