//! The request prefetcher: [`prefetch_streams`], under both
//! [`ClosedLoop::run`](crate::system::ClosedLoop::run) and the service's
//! tenant streams.
//!
//! A [`Workload`] stream never depends on the simulation: `next_request`
//! takes no input, and a closed loop adds each request's `gap` itself.
//! So a loop can generate requests on a second thread while the calling
//! thread steps the earlier ones. [`prefetch_streams`] runs a body with
//! [`Streams`] over any number of workloads, all generated on one scoped
//! thread. Each stream has its own [`IN_FLIGHT`] [`BATCH`]-request
//! batches, allocated before the body starts, and its own bounded channel
//! of full batches to the caller; spent batches of every stream share one
//! channel back to the generator, which refills them in the order they
//! come back. The body pulls any stream at any time ([`Streams::next`]) in
//! the stream's own order, so no report depends on which thread
//! generated a request.
//!
//! `ClosedLoop::run` pulls its first [`INLINE_PREFIX`] requests on the
//! calling thread, so a short run starts no thread, and reads the rest as
//! one stream; the service's loop reads one stream per tenant from its
//! first request.
//!
//! The generator is joined before [`prefetch_streams`] returns, and a
//! panic on it resumes on the caller with its own payload, so a run never
//! reports a truncated stream. A panic in the body unwinds through the
//! scope: the channels close first, the generator's next send or receive
//! fails and it returns, and the scope's join finds it gone. A spawn the
//! OS refuses leaves the workloads with the caller, which pulls every
//! stream inline.

use jitgc_workload::{IoRequest, Workload};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::{self, ScopedJoinHandle};

/// Requests `ClosedLoop::run` pulls on the calling thread before it
/// starts the generator. Starting any thread maps ~0.3 MB more of the
/// process's code and stack resident, which a short run (an idle day
/// holds ~43 k requests) never pays.
pub(in crate::system) const INLINE_PREFIX: usize = 1 << 16;

/// Requests per batch.
const BATCH: usize = 1024;

/// Batches in circulation per stream: one the caller drains while the
/// generator fills the other.
const IN_FLIGHT: usize = 2;

/// Runs `body` with [`Streams`] over `workloads`: stream `i` yields every
/// request of `workloads[i]`, in order, generated on one thread for all
/// of them while `body` runs on the calling thread. Returns what `body`
/// returns, once the generator has been joined.
pub fn prefetch_streams<W: Workload + ?Sized, R>(
    workloads: &mut [&mut W],
    body: impl FnOnce(&mut Streams<'_, '_, W>) -> R,
) -> R {
    prefetch_streams_with(
        workloads,
        thread::Builder::new().name("workload".into()),
        body,
    )
}

/// [`prefetch_streams`], with the generator thread built by `generator`.
fn prefetch_streams_with<'w, W: Workload + ?Sized, R>(
    workloads: &mut [&'w mut W],
    generator: thread::Builder,
    body: impl FnOnce(&mut Streams<'_, 'w, W>) -> R,
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
        let generate = move || generate(lent, &full_txs, &spent_rx);
        let Ok(handle) = generator.spawn_scoped(scope, generate) else {
            return None;
        };
        let mut streams = Streams(Source::Threaded(Threaded {
            lanes,
            spent: spent_tx,
            generator: Some(handle),
        }));
        let out = (body.take().expect("the body runs once"))(&mut streams);
        streams.join();
        Some(out)
    });
    threaded.unwrap_or_else(|| {
        let mut streams = Streams(Source::Inline(workloads));
        (body.take().expect("the body runs once"))(&mut streams)
    })
}

/// The request streams [`prefetch_streams`] hands its body.
pub struct Streams<'s, 'w, W: ?Sized>(Source<'s, 'w, W>);

enum Source<'s, 'w, W: ?Sized> {
    /// Generated on the generator thread.
    Threaded(Threaded<'s>),
    /// The spawn failed: pulled on the calling thread.
    Inline(&'s mut [&'w mut W]),
}

/// The caller's end of the generator thread.
struct Threaded<'s> {
    lanes: Vec<Lane>,
    /// Spent batches back to the generator, tagged with their stream.
    spent: SyncSender<(usize, Vec<IoRequest>)>,
    generator: Option<ScopedJoinHandle<'s, ()>>,
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

impl<W: Workload + ?Sized> Streams<'_, '_, W> {
    /// Stream `stream`'s next request, or `None` once it has ended.
    ///
    /// # Panics
    ///
    /// Panics if `stream` is out of range, and with the generator's own
    /// payload if the generator panicked.
    pub fn next(&mut self, stream: usize) -> Option<IoRequest> {
        match &mut self.0 {
            Source::Threaded(threaded) => {
                let lane = &mut threaded.lanes[stream];
                match lane.batch.get(lane.next) {
                    Some(&req) => {
                        lane.next += 1;
                        Some(req)
                    }
                    None => threaded.refill(stream),
                }
            }
            Source::Inline(workloads) => workloads[stream].next_request(),
        }
    }

    /// Hangs up on the generator and joins it, resuming its panic.
    fn join(self) {
        if let Source::Threaded(mut threaded) = self.0 {
            let generator = threaded.generator.take();
            drop(threaded);
            if let Some(Err(payload)) = generator.map(ScopedJoinHandle::join) {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

impl Threaded<'_> {
    /// Hands `stream`'s drained batch back for its next full one, and
    /// returns that batch's first request (`None` once the stream has
    /// ended).
    #[cold]
    fn refill(&mut self, stream: usize) -> Option<IoRequest> {
        let lane = &mut self.lanes[stream];
        if lane.last {
            return None;
        }
        let spent = std::mem::take(&mut lane.batch);
        if spent.capacity() > 0 {
            // Fails only once the generator has panicked; the batch is
            // freed here.
            let _ = self.spent.send((stream, spent));
        }
        let Ok(batch) = lane.full.recv() else {
            // The generator hung up before this stream's short batch: it
            // panicked.
            let handle = self.generator.take().expect("the generator is joined once");
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
            unreachable!("the generator returned before stream {stream} ended");
        };
        lane.last = batch.len() < BATCH;
        lane.next = usize::from(!batch.is_empty());
        lane.batch = batch;
        lane.batch.first().copied()
    }
}

/// The generator thread: refills each spent batch from its stream's
/// workload, ending each stream with a short (possibly empty) batch,
/// until the caller hangs up. A spent batch of an ended stream is kept,
/// not freed, so the batches stay allocated until the caller is done:
/// the run's peak heap then does not depend on when its streams end.
fn generate<W: Workload + ?Sized>(
    workloads: &mut [&mut W],
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
        let workload = &mut *workloads[stream];
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
    use crate::system::{ClosedLoop, SsdSystem, SystemConfig};
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

        /// Checks what the caller got of this workload: every request in
        /// order, one pull past the end and no more, on a generator
        /// thread if `threaded` (else on the caller's), and no generator
        /// left holding it once the call returned.
        fn check(&self, got: &[IoRequest], threaded: bool) {
            let n = self.n;
            let mut bare = Numbered::new(n);
            let bare = std::iter::from_fn(|| bare.next_request());
            assert!(
                got.iter().copied().eq(bare),
                "{n} requests: the streams differ"
            );
            assert_eq!(self.pulls, n + 1, "{n} requests: pulled past the end");
            assert_eq!(self.pulled_elsewhere, threaded, "{n} requests: the thread");
            assert_eq!(
                Arc::strong_count(&self.held),
                1,
                "{n} requests: the generator thread outlived the call"
            );
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

    const P: u64 = INLINE_PREFIX as u64;
    const B: u64 = BATCH as u64;

    /// Steps `workload` through `ClosedLoop::run` into `got`: one stream
    /// past the inline prefix. The step panics at request `fail_at`
    /// (counting from 1), if set.
    fn run(workload: &mut Numbered, got: &mut Vec<IoRequest>, fail_at: Option<u64>) {
        ClosedLoop::run(1, workload, |req, issue| {
            got.push(req);
            let seen = got.len() as u64;
            assert!(fail_at != Some(seen), "the engine failed at request {seen}");
            issue
        });
    }

    /// `workloads` as the slice `prefetch_streams` takes.
    fn lend(workloads: &mut [Numbered]) -> Vec<&mut Numbered> {
        workloads.iter_mut().collect()
    }

    /// Pulls every stream to its end in a fixed, uneven interleaving (a
    /// draw of 1 – 3 requests from each live stream in turn).
    fn pull_all(streams: &mut Streams<'_, '_, Numbered>, count: usize) -> Vec<Vec<IoRequest>> {
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

    /// The message `f` panicked with; `None` if it returned.
    fn panic_message(f: impl FnOnce()) -> Option<String> {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).err()?;
        payload.downcast_ref::<String>().cloned()
    }

    /// A thread builder whose spawn the OS refuses: a stack larger than any
    /// address space, which no thread gets.
    fn unspawnable() -> thread::Builder {
        thread::Builder::new().stack_size(1 << 60)
    }

    /// Runs `f` on a thread of its own and gives up after 30 s, so a hang
    /// fails the test instead of stalling the suite.
    fn within_30s<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || tx.send(f()));
        rx.recv_timeout(Duration::from_secs(30))
            .expect("the streams hung")
    }

    /// One stream through `run` is the bare workload's around every edge
    /// of the inline prefix and of the first batch after it, and leaves
    /// the calling thread only past the prefix.
    #[test]
    fn the_stream_is_the_bare_workloads() {
        for n in [0, 1, P - 1, P, P + 1, P + B - 1, P + B, P + B + 1] {
            let (mut workload, mut got) = (Numbered::new(n), Vec::new());
            run(&mut workload, &mut got, None);
            workload.check(&got, n >= P);
        }
    }

    /// Interleaved streams are each their bare workload around every edge
    /// of a batch, and answer `None` again once ended.
    #[test]
    fn every_stream_is_its_bare_workload() {
        let mut workloads = [0, 1, B - 1, B, B + 1, 3 * B, 5 * B + 17].map(Numbered::new);
        let got = prefetch_streams(&mut lend(&mut workloads), |streams| {
            let got = pull_all(streams, 7);
            assert!(
                (0..7).all(|s| streams.next(s).is_none()),
                "a stream went on"
            );
            got
        });
        for (workload, got) in workloads.iter().zip(got) {
            workload.check(&got, true);
        }
    }

    /// A generator that panics past `run`'s prefix resumes its panic on
    /// the caller instead of ending the stream early.
    #[test]
    fn a_generator_panic_resumes_on_the_caller() {
        let mut workload = Numbered::new(P + 10 * B);
        workload.panic_at = Some(70_000);
        let mut got = Vec::new();
        let message = panic_message(|| run(&mut workload, &mut got, None));
        assert_eq!(
            message.as_deref(),
            Some("the generator failed at request 70000")
        );
        assert!(workload.pulled_elsewhere, "the panic came from the caller");
        assert!(
            got.len() < 70_000,
            "{} requests reached the engine",
            got.len()
        );
    }

    /// A generator that panics resumes its panic on the caller, at the
    /// pull that waits for the batch it never sent.
    #[test]
    fn a_stream_generator_panic_resumes_on_the_caller() {
        let mut workloads = [4 * B, 4 * B].map(Numbered::new);
        workloads[1].panic_at = Some(2 * B + 5);
        let mut seen = 0u64;
        let message = panic_message(|| {
            prefetch_streams(&mut lend(&mut workloads), |streams| {
                while streams.next(1).is_some() {
                    seen += 1;
                }
            });
        });
        assert_eq!(
            message.as_deref(),
            Some("the generator failed at request 2053")
        );
        assert_eq!(seen, 2 * B, "the requests before the failed batch arrived");
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

    /// An engine panic in `run`'s step past the prefix unwinds out of
    /// `prefetch_streams`: the closed channels stop the generator, so the
    /// scope's join returns.
    #[test]
    fn an_engine_panic_unwinds_without_hanging() {
        let message = within_30s(|| {
            let mut workload = Numbered::new(P + 10 * B);
            panic_message(|| run(&mut workload, &mut Vec::new(), Some(P + 3 * B + 5)))
        });
        assert_eq!(
            message.as_deref(),
            Some("the engine failed at request 68613")
        );
    }

    /// A panic in a body pulling two streams unwinds out of
    /// `prefetch_streams` the same way.
    #[test]
    fn a_body_panic_unwinds_without_hanging() {
        let message = within_30s(|| {
            let mut workloads = [10 * B, 10 * B].map(Numbered::new);
            panic_message(|| {
                prefetch_streams(&mut lend(&mut workloads), |streams| {
                    for seen in 1u64.. {
                        streams.next((seen % 2) as usize);
                        assert!(seen != 3 * B + 5, "the service failed at request {seen}");
                    }
                });
            })
        });
        assert_eq!(
            message.as_deref(),
            Some("the service failed at request 3077")
        );
    }

    /// A spawn the OS refuses (here a stack larger than any address
    /// space, which no thread gets) leaves the workload with the caller,
    /// which pulls the rest after `run`'s inline prefix itself.
    #[test]
    fn a_failed_spawn_pulls_inline() {
        let mut workload = Numbered::new(P + 3 * B);
        let mut got: Vec<IoRequest> = std::iter::from_fn(|| workload.next_request())
            .take(INLINE_PREFIX)
            .collect();
        prefetch_streams_with(&mut [&mut workload], unspawnable(), |streams| {
            got.extend(std::iter::from_fn(|| streams.next(0)));
        });
        workload.check(&got, false);
    }

    /// A spawn the OS refuses leaves the workloads with the caller, which
    /// pulls every interleaved stream itself.
    #[test]
    fn a_failed_spawn_pulls_the_streams_inline() {
        let mut workloads = [B + 3, 2 * B].map(Numbered::new);
        let got = prefetch_streams_with(&mut lend(&mut workloads), unspawnable(), |streams| {
            pull_all(streams, 2)
        });
        for (workload, got) in workloads.iter().zip(got) {
            workload.check(&got, false);
        }
    }
}
