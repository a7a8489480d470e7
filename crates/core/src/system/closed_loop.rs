//! The closed-loop issue clock.

use jitgc_sim::{SimDuration, SimTime};

/// When a closed-loop driver issues each request.
///
/// `queue_depth` application threads share the request stream round-robin.
/// A thread thinks for the request's `gap` after its *own* previous
/// request completed, then issues the next one — so every stall lengthens
/// the run and lowers IOPS, exactly how the paper's benchmarks observe GC,
/// and with more than one thread requests overlap at the device.
/// [`SsdSystem::run`](super::SsdSystem::run) and the array scheduler
/// keep the same clock, which is why a one-member array issues the exact
/// request sequence of the standalone engine.
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
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
