//! The request prefetcher of [`SsdSystem::run`](super::SsdSystem::run).
//!
//! A [`Workload`] stream never depends on the simulation: `next_request`
//! takes no input, and the closed loop adds each request's `gap` itself.
//! So `run` can generate requests on a second thread while the engine
//! executes the earlier ones. The first [`INLINE_PREFIX`] requests are
//! pulled on the calling thread, so a short run starts no thread. A run
//! that outlasts them lends the workload to one scoped generator thread,
//! if a core is free for it, which fills [`BATCH`]-request batches and
//! sends them back through a bounded channel; the engine drains each
//! batch and returns it through a second one to be refilled, [`IN_FLIGHT`]
//! batches in circulation. The engine sees the workload's own order, so
//! no report depends on which path ran.
//!
//! A core is free while fewer threads of the process are in a drain,
//! engines and generators counted, than it may run at once. A grid whose
//! workers each drain a run already fills the cores, and there a second
//! thread per run would only take turns with the first; its runs pull
//! inline. Whether a generator starts is decided once, at the end of the
//! prefix.
//!
//! The generator is joined before [`drain`] returns, and a panic on it
//! resumes on the caller with its own payload, so a run never reports a
//! truncated stream. A panic in the engine unwinds through the scope:
//! the channels close first, the generator's next send or receive fails
//! and it returns, and the scope's join finds it gone. A spawn the OS
//! refuses leaves the workload with the caller, which pulls the rest
//! inline.

use jitgc_workload::{IoRequest, Workload};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread;

/// Requests pulled on the calling thread before the generator starts.
/// Starting any thread maps ~0.3 MB more of the process's code and stack
/// resident, which a short run (an idle day holds ~43 k requests) never
/// pays.
const INLINE_PREFIX: u64 = 1 << 16;

/// Requests per batch.
const BATCH: usize = 1024;

/// Batches in circulation: one the engine drains while the generator
/// fills the other.
const IN_FLIGHT: usize = 2;

/// Threads of this process in a [`drain`]: each engine, and each
/// generator.
static DRAINING: AtomicUsize = AtomicUsize::new(0);

/// A count of the threads in a drain, against the cores they may use.
#[derive(Clone, Copy)]
struct Cores<'a> {
    busy: &'a AtomicUsize,
    cores: usize,
}

impl<'a> Cores<'a> {
    /// Counts the calling thread in, whether or not a core is free.
    fn enter(self) -> Seat<'a> {
        self.busy.fetch_add(1, Ordering::Relaxed);
        Seat(self.busy)
    }

    /// Counts one more thread in if a core is free for it.
    fn take_free(self) -> Option<Seat<'a>> {
        self.busy
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |busy| {
                (busy < self.cores).then_some(busy + 1)
            })
            .ok()
            .map(|_| Seat(self.busy))
    }
}

/// A thread counted in a [`Cores`]; dropping it counts the thread out.
struct Seat<'a>(&'a AtomicUsize);

impl Drop for Seat<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Hands every request of `workload` to `sink`, in order, until the
/// workload is exhausted.
pub(super) fn drain(workload: &mut dyn Workload, sink: impl FnMut(IoRequest)) {
    let cores = Cores {
        busy: &DRAINING,
        cores: thread::available_parallelism().map_or(1, NonZeroUsize::get),
    };
    drain_with(
        workload,
        cores,
        thread::Builder::new().name("workload".into()),
        sink,
    );
}

/// [`drain`] counted in `cores`, with the generator thread built by
/// `generator`.
fn drain_with(
    workload: &mut dyn Workload,
    cores: Cores<'_>,
    generator: thread::Builder,
    mut sink: impl FnMut(IoRequest),
) {
    let _engine = cores.enter();
    for _ in 0..INLINE_PREFIX {
        match workload.next_request() {
            Some(req) => sink(req),
            None => return,
        }
    }
    // A reborrow: if no generator runs, the workload is the caller's again.
    let lent = &mut *workload;
    let spawned = match cores.take_free() {
        // The seat is held until the scope has joined the generator.
        Some(_generator) => thread::scope(|scope| {
            let (full_tx, full_rx) = sync_channel::<Vec<IoRequest>>(IN_FLIGHT);
            let (empty_tx, empty_rx) = sync_channel::<Vec<IoRequest>>(IN_FLIGHT);
            for _ in 0..IN_FLIGHT {
                empty_tx
                    .send(Vec::with_capacity(BATCH))
                    .expect("the channel holds every batch");
            }
            let Ok(handle) =
                generator.spawn_scoped(scope, move || generate(lent, &full_tx, &empty_rx))
            else {
                return false;
            };
            // The generator drops its sender once it has sent a short
            // batch (or panicked): then the last batch is in.
            while let Ok(mut batch) = full_rx.recv() {
                batch.drain(..).for_each(&mut sink);
                // Fails once the generator is done; the batch is freed here.
                let _ = empty_tx.send(batch);
            }
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
            true
        }),
        None => false,
    };
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::NoBgc;
    use crate::system::{SsdSystem, SystemConfig};
    use jitgc_nand::Lpn;
    use jitgc_sim::SimDuration;
    use jitgc_workload::{IoKind, WriteMix};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicBool, Ordering};
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
        /// Set once the last thread other than the creator's that pulled
        /// from this workload has exited.
        gone: Arc<AtomicBool>,
    }

    impl Numbered {
        fn new(n: u64) -> Self {
            Numbered {
                n,
                pulls: 0,
                panic_at: None,
                home: thread::current().id(),
                pulled_elsewhere: false,
                gone: Arc::new(AtomicBool::new(false)),
            }
        }

        /// What a bare pull loop yields.
        fn bare(n: u64) -> Vec<IoRequest> {
            let mut workload = Numbered::new(n);
            std::iter::from_fn(|| workload.next_request()).collect()
        }
    }

    /// Dropped with the thread-local it sits in, when its thread exits.
    struct OnExit(Arc<AtomicBool>);

    impl Drop for OnExit {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    thread_local! {
        static ON_EXIT: Cell<Option<OnExit>> = const { Cell::new(None) };
    }

    impl Workload for Numbered {
        fn name(&self) -> &'static str {
            "numbered"
        }

        fn next_request(&mut self) -> Option<IoRequest> {
            if thread::current().id() != self.home && !self.pulled_elsewhere {
                self.pulled_elsewhere = true;
                ON_EXIT.set(Some(OnExit(Arc::clone(&self.gone))));
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

    /// Two cores, `busy` of them taken.
    fn two_cores(busy: &AtomicUsize) -> Cores<'_> {
        Cores { busy, cores: 2 }
    }

    /// [`drain_with`] on two cores that no other drain counts in, so a run
    /// past the prefix starts a generator whatever else the suite runs.
    /// Returns the count once the drain is over.
    fn drain_on_two_cores(workload: &mut dyn Workload, sink: impl FnMut(IoRequest)) -> usize {
        let busy = AtomicUsize::new(0);
        let cores = two_cores(&busy);
        drain_with(workload, cores, thread::Builder::new(), sink);
        busy.into_inner()
    }

    /// The drained stream is the bare workload's, request for request,
    /// around every edge of the inline prefix and of the first batch; the
    /// workload is pulled once past its end and no more; and a run that
    /// went threaded leaves no generator behind, nor a thread counted.
    #[test]
    fn the_stream_is_the_bare_workloads() {
        for n in [0, 1, P - 1, P, P + 1, P + B - 1, P + B, P + B + 1] {
            let mut workload = Numbered::new(n);
            let mut got = Vec::new();
            let busy = drain_on_two_cores(&mut workload, |req| got.push(req));
            assert!(got == Numbered::bare(n), "{n} requests: the streams differ");
            assert_eq!(workload.pulls, n + 1, "{n} requests: pulled past the end");
            assert_eq!(workload.pulled_elsewhere, n >= P, "{n} requests");
            assert_eq!(
                workload.gone.load(Ordering::SeqCst),
                n >= P,
                "{n} requests: the generator thread outlived the drain"
            );
            assert_eq!(busy, 0, "{n} requests: a thread is still counted in");
        }
    }

    /// With every core taken (here by another engine's drain), a long run
    /// pulls all of its requests on the calling thread.
    #[test]
    fn a_busy_host_pulls_inline() {
        let n = P + 3 * B;
        let mut workload = Numbered::new(n);
        let mut got = Vec::new();
        let busy = AtomicUsize::new(1);
        let cores = two_cores(&busy);
        drain_with(&mut workload, cores, thread::Builder::new(), |req| {
            got.push(req);
        });
        assert!(got == Numbered::bare(n), "the streams differ");
        assert!(!workload.pulled_elsewhere, "a generator thread ran");
        assert_eq!(busy.into_inner(), 1, "the drain left its count behind");
    }

    /// A generator that panics past the prefix resumes its panic on the
    /// caller instead of ending the stream early.
    #[test]
    fn a_generator_panic_resumes_on_the_caller() {
        let mut workload = Numbered::new(P + 10 * B);
        workload.panic_at = Some(70_000);
        let mut seen = 0u64;
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            drain_on_two_cores(&mut workload, |_| seen += 1)
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
    /// closed channels stop the generator, so the scope's join returns,
    /// and both threads are counted out.
    #[test]
    fn an_engine_panic_unwinds_without_hanging() {
        let (payload, busy) = within_30s(|| {
            let mut workload = Numbered::new(P + 10 * B);
            let mut seen = 0u64;
            let busy = AtomicUsize::new(0);
            let cores = two_cores(&busy);
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                drain_with(&mut workload, cores, thread::Builder::new(), |_| {
                    seen += 1;
                    if seen == P + 3 * B + 5 {
                        panic!("the engine failed at request {seen}");
                    }
                });
            }))
            .expect_err("the sink panicked");
            let message = payload.downcast_ref::<String>().cloned();
            (message, busy.into_inner())
        });
        assert_eq!(
            payload.as_deref(),
            Some("the engine failed at request 68613")
        );
        assert_eq!(busy, 0, "a thread is still counted in");
    }

    /// A spawn the OS refuses (here a stack larger than any address
    /// space, which no thread gets) leaves the workload with the caller,
    /// which pulls the rest itself.
    #[test]
    fn a_failed_spawn_pulls_inline() {
        let n = P + 3 * B;
        let mut workload = Numbered::new(n);
        let mut got = Vec::new();
        let busy = AtomicUsize::new(0);
        let cores = two_cores(&busy);
        let unspawnable = thread::Builder::new().stack_size(1 << 60);
        drain_with(&mut workload, cores, unspawnable, |req| got.push(req));
        assert!(got == Numbered::bare(n), "the streams differ");
        assert!(!workload.pulled_elsewhere, "a generator thread ran");
        assert_eq!(workload.pulls, n + 1);
        assert_eq!(busy.into_inner(), 0, "a thread is still counted in");
    }
}
