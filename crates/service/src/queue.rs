//! Queue-pair types: submissions, completions, and admission outcomes.

use jitgc_sim::SimTime;
use jitgc_workload::IoKind;

/// One entry in a tenant's submission queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Submission {
    /// Per-tenant monotonically increasing request id.
    pub id: u64,
    /// Operation type.
    pub kind: IoKind,
    /// First logical page, in the tenant's *local* address space; the
    /// service relocates it into the tenant's partition of the device.
    pub lpn: u64,
    /// Consecutive pages touched (≥ 1).
    pub pages: u32,
    /// When the tenant submitted the request (virtual time).
    pub submitted_at: SimTime,
    /// Set once a Yellow-tier arbiter pass has skipped this entry.
    pub deferred: bool,
}

/// How a request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionStatus {
    /// The request executed on the device.
    Done,
    /// Backpressure shed the request with an explicit busy status; it
    /// never reached the device. The client may retry later.
    Busy,
}

/// One entry in a tenant's completion queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The submission's id.
    pub id: u64,
    /// How the request ended.
    pub status: CompletionStatus,
    /// When the request was submitted (virtual time).
    pub submitted_at: SimTime,
    /// When the request completed or was shed (virtual time).
    pub completed_at: SimTime,
}

impl Completion {
    /// Submission-to-completion latency in virtual time.
    #[must_use]
    pub fn latency(&self) -> jitgc_sim::SimDuration {
        self.completed_at.saturating_since(self.submitted_at)
    }
}

/// What admission control did with a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Queued on the tenant's submission queue.
    Accepted(u64),
    /// The submission queue is full; the request waits in the tenant's
    /// stalled buffer and re-enters admission when the queue drains.
    Blocked(u64),
    /// Shed by Red/Black-tier backpressure: a [`CompletionStatus::Busy`]
    /// completion was posted immediately.
    Shed(u64),
}

impl SubmitOutcome {
    /// The request id regardless of outcome.
    #[must_use]
    pub fn id(self) -> u64 {
        match self {
            SubmitOutcome::Accepted(id) | SubmitOutcome::Blocked(id) | SubmitOutcome::Shed(id) => {
                id
            }
        }
    }
}
