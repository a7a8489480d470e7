//! Scoring horizon predictions against the traffic that followed them.
//!
//! A prediction made right after tick `i` is scored against
//! `Σ actual[i .. i + N_wb)` — the quantity the reservation is sized from
//! (`C_req`), so the error that becomes mis-reservation. Predictions
//! mature in the order they were made, each exactly `N_wb` ticks later,
//! so that sum is the growth of one running total since the prediction
//! was issued: no per-interval history is kept, on the per-tick path or
//! across a fast-forwarded span (whose intervals all carried nothing).

use crate::predictor::AccuracyTracker;
use std::collections::VecDeque;

/// The running total of device write traffic and the predictions waiting
/// on it.
#[derive(Debug, Default)]
pub(crate) struct HorizonScorer {
    /// Flusher intervals closed so far.
    intervals: u64,
    /// Device write traffic over all of them, in bytes.
    bytes_total: u64,
    /// `(made_at, predicted, bytes_total_at_issue)`, oldest first: made
    /// after `made_at` intervals, maturing at `made_at + N_wb`. Never
    /// more than `N_wb` of them after a tick.
    pending: VecDeque<(u64, u64, u64)>,
}

impl HorizonScorer {
    /// Closes one interval that carried `actual_bytes` of device writes
    /// and scores every prediction whose horizon it completes.
    pub(crate) fn close_interval(
        &mut self,
        actual_bytes: u64,
        nwb: usize,
        acc: &mut AccuracyTracker,
    ) {
        self.intervals += 1;
        self.bytes_total += actual_bytes;
        self.score_matured(nwb, acc);
    }

    /// Queues the prediction made after the interval just closed.
    pub(crate) fn issue(&mut self, predicted: u64) {
        self.pending
            .push_back((self.intervals, predicted, self.bytes_total));
    }

    /// `k` intervals without traffic, each followed by the prediction
    /// `standing` again — `k` × (`close_interval(0)`, `issue`) in
    /// O(`N_wb`): those issued and matured inside the span score against
    /// nothing in one bulk call, the last `min(k, N_wb)` stay pending.
    pub(crate) fn skip_idle(
        &mut self,
        k: u64,
        standing: Option<u64>,
        nwb: usize,
        acc: &mut AccuracyTracker,
    ) {
        self.intervals += k;
        self.score_matured(nwb, acc);
        if let Some(predicted) = standing {
            let survivors = k.min(nwb as u64);
            acc.record_idle(predicted, k - survivors);
            for made_at in self.intervals - survivors + 1..=self.intervals {
                self.pending
                    .push_back((made_at, predicted, self.bytes_total));
            }
        }
    }

    /// Predictions still waiting for their horizon to close.
    pub(crate) fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Scores, oldest first, every prediction whose `N_wb` intervals have
    /// all closed. Whatever closed after its horizon did so in the same
    /// call and carried nothing, so the total's growth since issue is the
    /// sum over the horizon.
    fn score_matured(&mut self, nwb: usize, acc: &mut AccuracyTracker) {
        while let Some(&(made_at, predicted, at_issue)) = self.pending.front() {
            if self.intervals < made_at + nwb as u64 {
                break;
            }
            acc.record(predicted, self.bytes_total - at_issue);
            self.pending.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitgc_sim::check::{check, Gen};

    #[derive(Debug)]
    enum Step {
        Tick(u64, Option<u64>),
        Idle(u64, Option<u64>),
    }

    /// The window the running total replaces: every interval's traffic in
    /// a plain `Vec`, every matured prediction scored by summing its
    /// slice.
    #[derive(Default)]
    struct NaiveLog {
        actuals: Vec<u64>,
        pending: VecDeque<(usize, u64)>,
        accuracy: AccuracyTracker,
    }

    impl NaiveLog {
        fn tick(&mut self, actual: u64, predicted: Option<u64>, nwb: usize) {
            self.actuals.push(actual);
            while let Some(&(made_at, predicted)) = self.pending.front() {
                if self.actuals.len() < made_at + nwb {
                    break;
                }
                let window = &self.actuals[made_at..made_at + nwb];
                self.accuracy.record(predicted, window.iter().sum());
                self.pending.pop_front();
            }
            if let Some(predicted) = predicted {
                self.pending.push_back((self.actuals.len(), predicted));
            }
        }
    }

    fn any_prediction(g: &mut Gen) -> Option<u64> {
        match g.weighted(&[1, 1, 4]) {
            0 => None,
            1 => Some(0),
            _ => Some(g.u64(1, 1 << 24)),
        }
    }

    /// Random ticks and idle spans — shorter than, equal to and far longer
    /// than the horizon — leave the tracker bit for bit where the naive
    /// per-interval log leaves it, after every step, with never more than
    /// `N_wb` predictions pending.
    #[test]
    fn running_total_scores_like_a_naive_log() {
        check(0x5C0E_0001, 256, |g| {
            let nwb = g.usize(1, 9);
            let steps = g.vec(1, 120, |g| match g.weighted(&[8, 1, 1, 1]) {
                0 => Step::Tick(
                    g.weighted(&[1, 2]) as u64 * g.u64(0, 1 << 24),
                    any_prediction(g),
                ),
                1 => Step::Idle(g.u64(1, nwb as u64 + 1), any_prediction(g)),
                2 => Step::Idle(nwb as u64, any_prediction(g)),
                _ => Step::Idle(nwb as u64 + g.u64(1, 3_000), any_prediction(g)),
            });
            let mut scorer = HorizonScorer::default();
            let mut accuracy = AccuracyTracker::new();
            let mut naive = NaiveLog::default();
            for (i, step) in steps.iter().enumerate() {
                match *step {
                    Step::Tick(actual, predicted) => {
                        scorer.close_interval(actual, nwb, &mut accuracy);
                        if let Some(predicted) = predicted {
                            scorer.issue(predicted);
                        }
                        naive.tick(actual, predicted, nwb);
                    }
                    Step::Idle(k, standing) => {
                        scorer.skip_idle(k, standing, nwb, &mut accuracy);
                        for _ in 0..k {
                            naive.tick(0, standing, nwb);
                        }
                    }
                }
                assert_eq!(accuracy, naive.accuracy, "step {i}: {step:?}");
                assert_eq!(
                    accuracy.sum_bits(),
                    naive.accuracy.sum_bits(),
                    "step {i}: {step:?}"
                );
                assert!(scorer.pending_len() <= nwb, "step {i}: queue outgrew N_wb");
                let pending: Vec<(usize, u64)> = scorer
                    .pending
                    .iter()
                    .map(|&(made_at, predicted, _)| (made_at as usize, predicted))
                    .collect();
                assert_eq!(pending, Vec::from(naive.pending.clone()), "step {i}");
            }
        });
    }
}
