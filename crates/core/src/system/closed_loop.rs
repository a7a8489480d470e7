//! The closed-loop issue clock, and the one loop that runs a workload on
//! it.

use super::engine::prefetch::{prefetch_streams, INLINE_PREFIX};
use jitgc_sim::{SimDuration, SimTime};
use jitgc_workload::{IoRequest, Workload};

/// When a closed-loop driver issues each request.
///
/// `queue_depth` application threads share the request stream round-robin.
/// A thread thinks for the request's `gap` after its *own* previous
/// request completed, then issues the next one — so every stall lengthens
/// the run and lowers IOPS, exactly how the paper's benchmarks observe GC,
/// and with more than one thread requests overlap at the device.
/// [`run`](Self::run) is the one loop on it:
/// [`SsdSystem::run`](super::SsdSystem::run) and the array scheduler both
/// call it, which is why a one-member array issues the exact request
/// sequence of the standalone engine.
#[derive(Debug)]
pub struct ClosedLoop {
    /// Per application thread: when its previous request completed.
    thread_completion: Vec<SimTime>,
    next_thread: usize,
    latest_issue: SimTime,
}

impl ClosedLoop {
    /// The most application threads a closed loop takes: 65 536, the
    /// deepest NVMe I/O queue (MQES is a 16-bit, zero-based field), so
    /// the most requests a host can have in flight at one device. Every
    /// input that sets a thread count is checked against it.
    pub const MAX_THREADS: u32 = 65_536;

    /// The range rule on a thread count, whichever input sets it: at
    /// least one thread and at most [`MAX_THREADS`](Self::MAX_THREADS).
    /// The wording follows the knob's name, which each caller puts first
    /// (`` `queue_depth` ``, `--queue-depth 0: the thread count`, a
    /// tenant's concurrency).
    ///
    /// # Errors
    ///
    /// Returns the rule's wording; a count above the bound is named in it.
    pub fn check_threads(threads: u64) -> Result<u32, String> {
        match u32::try_from(threads) {
            Ok(0) => Err("must be greater than zero".into()),
            Ok(n) if n <= Self::MAX_THREADS => Ok(n),
            _ => Err(format!(
                "of {threads} must be at most {} (the deepest NVMe I/O queue)",
                Self::MAX_THREADS
            )),
        }
    }

    /// A clock for `queue_depth` application threads (at least one), all
    /// idle at time zero.
    #[must_use]
    pub fn new(queue_depth: u32) -> Self {
        ClosedLoop {
            thread_completion: vec![SimTime::ZERO; queue_depth.max(1) as usize],
            next_thread: 0,
            latest_issue: SimTime::ZERO,
        }
    }

    /// Deals the next request to its thread: returns the thread and the
    /// time it issues the request, `gap` after its previous completion.
    pub fn issue(&mut self, gap: SimDuration) -> (usize, SimTime) {
        let thread = self.next_thread;
        self.next_thread = (thread + 1) % self.thread_completion.len();
        let issue = self.thread_completion[thread] + gap;
        self.latest_issue = self.latest_issue.max(issue);
        (thread, issue)
    }

    /// Records that `thread`'s outstanding request completed at `at`.
    pub fn complete(&mut self, thread: usize, at: SimTime) {
        self.thread_completion[thread] = at;
    }

    /// The run's end time: the last completion or issue, whichever is
    /// later.
    #[must_use]
    pub fn end(&self) -> SimTime {
        self.thread_completion
            .iter()
            .copied()
            .fold(self.latest_issue, SimTime::max)
    }

    /// Runs `workload` to exhaustion on `queue_depth` application
    /// threads: hands each request to `step` at its issue time, records
    /// the completion `step` returns, and returns the run's
    /// [`end`](Self::end).
    ///
    /// The first 2^16 requests are pulled on the calling thread; a longer
    /// run reads the rest as one stream of
    /// [`prefetch_streams`](super::prefetch_streams), generated on a
    /// second thread while this one steps the earlier ones (DESIGN.md
    /// §8j). `step` sees the workload's own order either way, on the
    /// calling thread.
    ///
    /// # Panics
    ///
    /// Panics with `step`'s panic, or with the workload's own message if
    /// generating a request panics.
    pub fn run(
        queue_depth: u32,
        workload: &mut dyn Workload,
        mut step: impl FnMut(IoRequest, SimTime) -> SimTime,
    ) -> SimTime {
        let mut clock = ClosedLoop::new(queue_depth);
        let mut issue = |req: IoRequest| {
            let (thread, issue) = clock.issue(req.gap);
            clock.complete(thread, step(req, issue));
        };
        let inline = std::iter::from_fn(|| workload.next_request())
            .take(INLINE_PREFIX)
            .map(&mut issue)
            .count();
        if inline == INLINE_PREFIX {
            prefetch_streams(&mut [workload], |streams| {
                std::iter::from_fn(|| streams.next(0)).for_each(&mut issue);
            });
        }
        clock.end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitgc_workload::{BenchmarkKind, WorkloadConfig};

    #[test]
    fn threads_take_turns_and_think_after_their_own_completion() {
        let mut clock = ClosedLoop::new(2);
        let gap = SimDuration::from_micros(10);
        assert_eq!(clock.issue(gap), (0, SimTime::from_micros(10)));
        assert_eq!(clock.issue(gap), (1, SimTime::from_micros(10)));
        clock.complete(0, SimTime::from_micros(500));
        clock.complete(1, SimTime::from_micros(40));
        assert_eq!(clock.issue(gap), (0, SimTime::from_micros(510)));
        assert_eq!(clock.issue(gap), (1, SimTime::from_micros(50)));
        // Thread 0's request is still outstanding: the run ends no earlier
        // than its issue.
        assert_eq!(clock.end(), SimTime::from_micros(510));
        clock.complete(0, SimTime::from_micros(900));
        assert_eq!(clock.end(), SimTime::from_micros(900));
    }

    #[test]
    fn a_zero_queue_depth_is_one_thread() {
        let mut clock = ClosedLoop::new(0);
        assert_eq!(clock.issue(SimDuration::ZERO).0, 0);
        assert_eq!(clock.issue(SimDuration::ZERO).0, 0);
        assert_eq!(clock.end(), SimTime::ZERO);
    }

    #[test]
    fn thread_counts_run_from_one_to_the_deepest_queue() {
        assert_eq!(ClosedLoop::check_threads(1), Ok(1));
        assert_eq!(ClosedLoop::check_threads(65_536), Ok(65_536));
        assert_eq!(
            ClosedLoop::check_threads(0),
            Err("must be greater than zero".into())
        );
        for too_many in [65_537, u64::from(u32::MAX), u64::MAX] {
            let err = ClosedLoop::check_threads(too_many).unwrap_err();
            assert!(
                err.starts_with(&format!("of {too_many} must be at most 65536")),
                "{err}"
            );
        }
    }

    /// Past the prefetcher's inline prefix `run` steps the bare
    /// workload's requests at the issue times a hand-written
    /// `issue`/`complete` loop gives them, and ends where that loop ends.
    #[test]
    fn run_steps_the_requests_a_hand_written_loop_issues() {
        // ~80 000 requests, past the 2^16 pulled inline.
        let workload = || {
            BenchmarkKind::Ycsb.build(
                WorkloadConfig::builder()
                    .working_set_pages(4_096)
                    .duration(SimDuration::from_secs(20))
                    .mean_iops(4_000.0)
                    .seed(5)
                    .build(),
            )
        };
        // A service time that differs by request, so the three threads
        // drift apart and a wrong deal shows in the issue times.
        let service =
            |req: &IoRequest| SimDuration::from_micros(u64::from(req.pages) * 11 + req.lpn.0 % 13);

        let mut stepped = Vec::new();
        let end = ClosedLoop::run(3, workload().as_mut(), |req, issue| {
            stepped.push((req, issue));
            issue + service(&req)
        });

        let mut expected = Vec::new();
        let mut clock = ClosedLoop::new(3);
        let mut requests = workload();
        while let Some(req) = requests.next_request() {
            let (thread, issue) = clock.issue(req.gap);
            expected.push((req, issue));
            clock.complete(thread, issue + service(&req));
        }
        assert!(expected.len() > 1 << 16, "{} requests", expected.len());
        assert!(stepped == expected, "run stepped another sequence");
        assert_eq!(end, clock.end());
    }
}
