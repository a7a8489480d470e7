//! Periodic host work (paper Sec. 3.3, Fig. 3) and BGC in the idle gaps.

use super::SsdSystem;
use crate::policy::IntervalObservation;
use jitgc_ftl::FtlError;
use jitgc_sim::SimTime;

impl SsdSystem {
    pub(super) fn process_ticks_until(&mut self, t: SimTime) {
        while self.next_tick <= t {
            // Quiescence can be *reached* partway through a long idle
            // span (the cache drains and the predictors saturate during
            // the first ticks of the gap), so the check runs before every
            // tick, not just once on entry. The first tick that verifies
            // skips the whole remainder in one bulk update.
            if self.try_fast_forward(t) {
                return;
            }
            let tick = self.next_tick;
            self.run_bgc_in_gap(tick);
            self.handle_tick(tick);
            self.next_tick = tick + self.config.flusher_period;
        }
    }

    fn handle_tick(&mut self, now: SimTime) {
        // Direct traffic of the closing interval, read before step 3
        // resets it — one input of the quiescence verdict (step 8).
        let entry_direct_bytes = self.direct_bytes_interval;

        // 1. Flusher thread: write back expired / pressured dirty pages.
        let batch_was_empty = self.timed(
            |p| &mut p.flush,
            |s| {
                let batch = s.cache.flusher_tick(now);
                if batch.lpns.is_empty() {
                    return true;
                }
                let written = s.ftl.host_write_batch(&batch.lpns, now);
                // A device that went read-only mid-batch loses the rest:
                // that dirty data has nowhere to go, exactly as on a real
                // drive that dies with a dirty page cache.
                if let Some(out) = s.accepted(written, now) {
                    s.fgc_flush_stalls += u64::from(out.fgc_writes > 0);
                    s.occupy(now, out.duration);
                    let bytes = s.page_size() * batch.lpns.len() as u64;
                    s.policy.observe_write(bytes, out.duration);
                }
                false
            },
        );

        // 2. Account the device traffic of the interval that just closed
        //    (post-flush to post-flush) and score any prediction whose
        //    full horizon has now elapsed.
        let host_pages_now = self.ftl.stats().host_pages_written;
        let actual_bytes = (host_pages_now - self.host_pages_at_tick) * self.page_size().as_u64();
        self.host_pages_at_tick = host_pages_now;
        self.scorer
            .close_interval(actual_bytes, self.config.nwb(), &mut self.accuracy);

        // 3. Kernel-side predictors (paper Sec. 3.2). The SIP list is a
        //    scratch buffer ping-ponged with the FTL (step 5), so the
        //    poll reuses its backing storage instead of reallocating.
        let (sip, buffered_demand, direct_demand) = self.timed(
            |p| &mut p.predictor,
            |s| {
                s.direct_pred.observe_interval(s.direct_bytes_interval);
                s.direct_bytes_interval = 0;
                let mut sip = std::mem::take(&mut s.sip_scratch);
                let buffered = s.buffered_pred.predict_into(&s.cache, now, &mut sip);
                let direct = s.direct_pred.predict();
                s.last_buffered_demand = buffered.total();
                s.last_direct_demand = direct.total();
                (sip, buffered, direct)
            },
        );

        // 4. Policy decision (paper Sec. 3.3).
        let obs = IntervalObservation {
            now,
            free_capacity: self.ftl.free_capacity(),
            op_capacity: self.ftl.op_capacity(),
            buffered_demand: &buffered_demand,
            direct_demand: &direct_demand,
            device_bytes_last_interval: actual_bytes,
        };
        let decision = self.policy.on_interval(&obs);
        // The paper's feasibility restriction: a reserve beyond what is
        // physically reclaimable would make BGC erase fully-valid blocks
        // for nothing ("useless BGC operations").
        self.target_free = decision.target_free.min(self.ftl.reclaimable_capacity());
        self.target_free_pages = self.target_free.as_u64() / self.page_size().as_u64();
        if let Some(predicted) = decision.predicted_next_interval {
            self.scorer.issue(predicted);
        }

        // 5. Ship the SIP list to the FTL, paying the extended-interface
        //    cost where the manager sits in the host.
        if self.policy.uses_sip() {
            // Swap the fresh list in and take last interval's back as the
            // next poll's scratch — allocation-free in steady state.
            self.sip_scratch = self.timed(|p| &mut p.predictor, |s| s.ftl.install_sip_list(sip));
            if let Some(cost) = self.sg_io_cost() {
                self.occupy(now, cost);
            }
        } else {
            self.sip_scratch = sip;
        }

        // 6. Optional timeline snapshot for time-series analysis.
        if self.config.record_timeline {
            let page = self.page_size().as_u64();
            self.timeline.push(crate::system::IntervalSample {
                t_secs: now.as_secs_f64(),
                free_pages: self.ftl.free_pages(),
                target_pages: self.target_free_pages,
                host_pages_interval: actual_bytes / page,
                fgc_cumulative: self.ftl.stats().fgc_invocations,
                bgc_blocks_cumulative: self.ftl.stats().bgc_blocks,
                waf: self.ftl.waf().unwrap_or(1.0),
            });
        }

        // 7. Optional static wear leveling (extension). A device at the
        //    end of its life has nothing left to level — and relocation
        //    itself can fail for lack of a spare block.
        if self.config.wear_leveling && !self.ftl.read_only() {
            match self.ftl.wear_level(now) {
                Ok(out) if out.performed => {
                    self.occupy(now, out.duration);
                }
                // Leveling is best-effort; a failed pass is skipped.
                Ok(_) | Err(FtlError::NoReclaimableSpace | FtlError::ReadOnly) => {}
                Err(e) => panic!("wear leveling: {e}"),
            }
        }

        // 8. Quiescence verdict.
        self.judge_tick(
            entry_direct_bytes,
            batch_was_empty,
            actual_bytes,
            &buffered_demand,
            decision.predicted_next_interval,
        );
    }

    /// Lets background GC consume device idle time in `[busy_until, t)`,
    /// reclaiming toward the policy's current target. Because the budget
    /// ends at the next known event, BGC never delays host work — the
    /// model of a perfectly preemptible collector.
    pub(super) fn run_bgc_in_gap(&mut self, t: SimTime) {
        self.timed(
            |p| &mut p.bgc,
            |s| {
                if s.device_busy_until >= t || s.ftl.free_pages() >= s.target_free_pages {
                    return;
                }
                let gap_start = s.device_busy_until;
                let budget = t.saturating_since(gap_start);
                let outcome =
                    s.ftl
                        .background_collect(gap_start, budget, Some(s.target_free_pages));
                if outcome.blocks_erased > 0 {
                    s.occupy(gap_start, outcome.duration);
                    s.policy
                        .observe_gc(s.page_size() * outcome.pages_freed, outcome.duration);
                }
            },
        );
    }
}
