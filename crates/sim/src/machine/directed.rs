//! The BTB-directed frontend driver: a discovery engine (Boomerang or
//! Shotgun) runs ahead of fetch filling the FTQ; fetch consumes FTQ
//! regions and verifies them against the trace. FTQ starvation is the
//! §III pathology — when discovery cannot recover on its own, the core
//! falls back to fetching directly, one block at a time, until the
//! blocking branch resolves.

use super::driver::{Consumed, FrontendDriver, Gate};
use super::memory::DemandOutcome;
use super::Machine;
use crate::config::{SimConfig, BTB_MISS_PENALTY, MISPREDICT_PENALTY};
use crate::metrics::SimReport;
use dcfb_frontend::{Ftq, FtqEntry, ReturnAddressStack};
use dcfb_prefetch::{DiscoveryEngine, Prefetcher};
use dcfb_telemetry::{CycleSample, StallKind};
use dcfb_trace::{Addr, Block, Instr, InstrKind};

/// Consecutive empty-FTQ cycles after which the core stops waiting for
/// discovery and falls back to direct fetch.
const EMPTY_STREAK_LIMIT: u64 = 64;

/// The BTB-directed frontend (Boomerang, Shotgun).
pub(crate) struct DirectedDriver {
    /// Boxed: held inline, the engine changes the simulator's
    /// allocation pattern enough to raise perfbench's `directed-oltp`
    /// peak RSS by about 1 MiB (7 %).
    engine: Box<DiscoveryEngine>,
    ftq: Ftq,
    /// Current FTQ region being fetched.
    region: Option<FtqEntry>,
    /// Consecutive empty-FTQ cycles (drives the core-side recovery
    /// redirect when the discovery engine cannot make progress).
    empty_streak: u64,
    /// Architectural return-address stack: used to repair the
    /// speculative RAS after a squash.
    arch_ras: ReturnAddressStack,
    /// Direct-fetch fallback engaged for the rest of this cycle (the
    /// discovery engine is wedged; reset every `begin_cycle`).
    fallback: bool,
}

impl DirectedDriver {
    pub(crate) fn new(engine: DiscoveryEngine, ftq: Ftq) -> Self {
        DirectedDriver {
            engine: Box::new(engine),
            ftq,
            region: None,
            empty_streak: 0,
            arch_ras: ReturnAddressStack::new(32),
            fallback: false,
        }
    }

    /// Squashes discovery: restart at `pc` and repair the speculative
    /// RAS from architectural state.
    fn redirect(&mut self, m: &mut Machine, pc: Addr) {
        self.region = None;
        self.engine.redirect(pc, &mut self.ftq);
        m.ras.repair_from(&self.arch_ras);
    }

    /// Tracks calls/returns on the architectural RAS (capacity 32,
    /// oldest entry dropped on overflow).
    fn arch_ras_note(&mut self, instr: &Instr) -> Option<Addr> {
        if instr.kind.is_call() {
            self.arch_ras.push(instr.fallthrough());
            None
        } else if matches!(instr.kind, InstrKind::Return) {
            self.arch_ras.pop()
        } else {
            None
        }
    }

    /// Jumps over the cycles after this one that provably repeat it.
    ///
    /// Called once discovery has run for the cycle. When the FTQ is
    /// empty, no region is open and the engine waits for a block that
    /// is in flight (in the MSHRs, not in the L1i) with nothing else to
    /// do, this cycle's gate ends the cycle as an empty-FTQ stall, and
    /// so does every following cycle until an MSHR completion is due or
    /// the empty streak reaches its limit: no fill lands, discovery
    /// stays stalled and the gate sees the same state. Those cycles are
    /// skipped here — the clock, the streak and `stall_empty_ftq` are
    /// credited in bulk, and the telemetry samples that fall among them
    /// are recorded — and this cycle's gate then runs as the last of
    /// them.
    fn skip_idle_cycles(&mut self, m: &mut Machine) {
        if self.region.is_some() || !self.ftq.is_empty() || self.engine.is_parked() {
            return;
        }
        let Some(block) = self.engine.stalled_block() else {
            return;
        };
        if !m.mshr.contains(block) || !self.engine.is_quiescent(m, &self.ftq) {
            return;
        }
        // This cycle's gate counts streak + 1; a later one falls back
        // once the count passes the limit.
        let streak_room = (EMPTY_STREAK_LIMIT - 1).saturating_sub(self.empty_streak);
        let fill_room = m.mshr.earliest_ready().saturating_sub(m.cycle + 1);
        let skip = streak_room.min(fill_room);
        if skip == 0 {
            return;
        }
        if m.telem.is_some() {
            let sample = m.cycle_sample(self.sample());
            if let Some(t) = m.telem.as_deref_mut() {
                for cycle in m.cycle + 1..=m.cycle + skip {
                    if t.sample_due() {
                        t.tick(&CycleSample { cycle, ..sample });
                    }
                }
            }
        }
        m.cycle += skip;
        self.empty_streak += skip;
        m.stats.stall_empty_ftq += skip;
    }
}

impl FrontendDriver for DirectedDriver {
    fn begin_cycle(&mut self, m: &mut Machine) {
        self.fallback = false;
        m.drain_fills::<Prefetcher>(None);
        // Discovery runs every cycle.
        self.engine.advance(m, &mut self.ftq);
        self.skip_idle_cycles(m);
    }

    fn gate(&mut self, m: &mut Machine, _cfg: &SimConfig, instr: &Instr, dispatched: u32) -> Gate {
        if self.fallback || self.region.is_some() {
            return Gate::Proceed;
        }
        match self.ftq.pop() {
            Some(r) => {
                self.empty_streak = 0;
                if r.start != instr.pc {
                    // The discovery engine went down the wrong path:
                    // redirect it to reality.
                    self.redirect(m, instr.pc);
                    return Gate::Stall {
                        until: m.cycle + MISPREDICT_PENALTY,
                        cause: StallKind::Redirect,
                    };
                }
                self.region = Some(r);
                Gate::Proceed
            }
            None => {
                // Empty FTQ: the §III pathology. When the discovery
                // engine cannot recover on its own — parked on an
                // unknown indirect target, or its reactive-fill request
                // was dropped — the core makes "forward progress one
                // block at a time": it fetches directly until the
                // blocking branch resolves at execute, then redirects
                // discovery to the resolved target.
                self.empty_streak += 1;
                let parked = self.engine.is_parked();
                let lost_fill = self
                    .engine
                    .stalled_block()
                    .is_some_and(|blk| !m.mshr.contains(blk) && !m.l1i.contains(blk));
                if parked || lost_fill || self.empty_streak > EMPTY_STREAK_LIMIT {
                    self.empty_streak = 0;
                    self.fallback = true;
                    Gate::Proceed
                } else {
                    if dispatched == 0 {
                        m.stats.stall_empty_ftq += 1;
                    }
                    Gate::EndCycle
                }
            }
        }
    }

    fn after_demand(&mut self, _m: &mut Machine, _block: Block, _outcome: &DemandOutcome) {}

    fn consume(&mut self, m: &mut Machine, _cfg: &SimConfig, instr: &Instr) -> Consumed {
        if self.fallback {
            // Direct-fetch fallback: train predictors and retire-side
            // learning, then restart discovery at the first resolved
            // control transfer.
            if let InstrKind::CondBranch { taken } = instr.kind {
                m.tage.update(instr.pc, taken);
            }
            let _ = self.arch_ras_note(instr);
            self.engine.on_retire(instr);
            if instr.redirects() {
                // The blocking branch resolved at execute: restart
                // discovery at the resolved target and charge the
                // resolution bubble.
                self.redirect(m, instr.next_pc());
                return Consumed::Stall {
                    until: m.cycle + BTB_MISS_PENALTY,
                    cause: StallKind::Btb,
                };
            }
            return Consumed::Continue;
        }
        // Retire-side learning + direction training. `would_predict`
        // captures what a history-current predictor says at consume
        // time — the accuracy a real speculatively-updated BPU
        // achieves, which our history-stale discovery pass cannot.
        let mut would_predict_correctly = false;
        if let InstrKind::CondBranch { taken } = instr.kind {
            would_predict_correctly = m.tage.update(instr.pc, taken) == taken;
        }
        // Architectural RAS (for speculative-RAS repair on squash).
        if matches!(instr.kind, InstrKind::Return) {
            let expected = self.arch_ras_note(instr);
            would_predict_correctly = expected == Some(instr.target);
        } else {
            let _ = self.arch_ras_note(instr);
        }
        self.engine.on_retire(instr);
        // Region end?
        if let Some(region) = self.region {
            if instr.pc >= region.end {
                self.region = None;
                let actual_next = instr.next_pc();
                if actual_next != region.next {
                    self.redirect(m, actual_next);
                    // Genuine mispredicts (a history-current BPU would
                    // also have been wrong) pay the full squash; mere
                    // discovery drift — the runahead pass predicting
                    // with stale history or an unrepaired RAS — is a
                    // cheap FTQ resteer, as in hardware where the BPU
                    // checkpoints history and the FTQ entry carries the
                    // correct prediction.
                    let penalty = if would_predict_correctly {
                        2
                    } else {
                        m.wrong_path_traffic(instr);
                        MISPREDICT_PENALTY
                    };
                    return Consumed::Stall {
                        until: m.cycle + penalty,
                        cause: StallKind::Redirect,
                    };
                }
                if instr.redirects() {
                    return Consumed::EndGroup; // one taken branch per cycle
                }
            }
        }
        Consumed::Continue
    }

    fn end_cycle(&mut self, _m: &mut Machine) {}

    fn pump(&mut self, m: &mut Machine) {
        m.drain_fills::<Prefetcher>(None);
        self.engine.advance(m, &mut self.ftq);
    }

    fn pump_batch(&mut self, m: &mut Machine, resume: u64, pumps: u64) {
        // Same work as `pump` in a loop, dispatched once per stall
        // instead of once per pump. Once discovery is quiescent, every
        // pump before the next MSHR completion drains nothing and
        // advances nothing, so the loop jumps to that pump.
        let mut k = 0;
        while k < pumps {
            m.cycle = resume + k + 1;
            m.drain_fills::<Prefetcher>(None);
            self.engine.advance(m, &mut self.ftq);
            k += 1;
            if self.engine.is_quiescent(m, &self.ftq) {
                k = k.max(m.mshr.earliest_ready().saturating_sub(resume + 1));
            }
        }
    }

    fn sample(&self) -> (Option<u64>, Option<(u64, u64)>) {
        (Some(self.ftq.len() as u64), None)
    }

    fn on_reset(&mut self) {
        self.engine.reset_btb_stats();
    }

    fn finish_report(&self, r: &mut SimReport) {
        r.storage_bits = self.engine.storage_bits();
        if let Some((btb, stats)) = self.engine.shotgun_split_stats() {
            r.shotgun_btb = Some(btb);
            r.shotgun = Some(stats);
        }
    }
}
