//! The conventional decoupled frontend driver: fetch follows the
//! trace, taken branches need a BTB hit to avoid a decode-detect
//! bubble, and an optional [`Prefetcher`] observes L1i events. The
//! prefetcher is held by value and its hooks take the machine itself
//! as their context, so every hook is a direct call.

use super::driver::{Consumed, FrontendDriver, Gate};
use super::fetch::class_of;
use super::memory::DemandOutcome;
use super::{Machine, SlotKeyOf};
use crate::config::{SimConfig, BTB_MISS_PENALTY, MISPREDICT_PENALTY};
use crate::metrics::SimReport;
use dcfb_frontend::BtbEntry;
use dcfb_prefetch::{InstrPrefetcher, Prefetcher};
use dcfb_telemetry::StallKind;
use dcfb_trace::{block_of, Block, Instr, InstrKind};

/// The conventional decoupled frontend (baseline, NL/NXL, SN4L, Dis,
/// SN4L+Dis(+BTB), conventional discontinuity, Confluence, and registry
/// compositions of them).
pub(crate) struct DecoupledDriver {
    pf: Option<Prefetcher>,
}

impl DecoupledDriver {
    pub(crate) fn new(pf: Option<Prefetcher>) -> Self {
        DecoupledDriver { pf }
    }

    /// Handles a branch at fetch. Returns the loop decision: a stall
    /// (misprediction or BTB bubble), the end of the fetch group (taken
    /// branch), or keep going.
    fn handle_branch(&mut self, m: &mut Machine, cfg: &SimConfig, i: &Instr) -> Consumed {
        let taken = i.redirects();
        // Direction prediction for conditionals.
        let mut mispredicted = false;
        if let InstrKind::CondBranch { taken: actual } = i.kind {
            if m.tage.update(i.pc, actual) != actual {
                mispredicted = true;
            }
        }
        // Target prediction / BTB.
        let mut btb_bubble = false;
        if taken && !cfg.perfect_btb {
            let hit = m.btb.lookup(i.pc);
            match hit {
                Some(e) => match i.kind {
                    InstrKind::Return => {
                        let pred = m.ras.pop();
                        if pred != Some(i.target) {
                            mispredicted = true;
                        }
                    }
                    InstrKind::IndirectCall | InstrKind::IndirectJump if e.target != i.target => {
                        mispredicted = true;
                        m.btb.insert(BtbEntry {
                            pc: i.pc,
                            target: i.target,
                            class: e.class,
                        });
                    }
                    _ => {}
                },
                None => {
                    // BTB miss on a taken branch: check the BTB prefetch
                    // buffer first (§V-C), otherwise pay the
                    // decode-detect bubble.
                    if let Some(span) = m.btb_buffer.take_for(i.pc, m.branches.arena()) {
                        if let Some(t) = m.telem.as_deref_mut() {
                            t.btbpf_hit(m.code.slot_key(block_of(i.pc)));
                        }
                        for b in m.branches.get(span) {
                            let class = b.class;
                            let target = if b.target != 0 { b.target } else { i.target };
                            m.btb.insert(BtbEntry {
                                pc: b.pc,
                                target,
                                class,
                            });
                        }
                        if matches!(i.kind, InstrKind::Return) {
                            let _ = m.ras.pop();
                        }
                    } else {
                        btb_bubble = true;
                        if let Some(t) = m.telem.as_deref_mut() {
                            t.btbpf_demand_miss(m.code.slot_key(block_of(i.pc)));
                        }
                        m.btb.insert(BtbEntry {
                            pc: i.pc,
                            target: i.target,
                            class: class_of(i.kind),
                        });
                        if matches!(i.kind, InstrKind::Return) {
                            let _ = m.ras.pop();
                        }
                    }
                }
            }
        } else if taken && cfg.perfect_btb && matches!(i.kind, InstrKind::Return) {
            let _ = m.ras.pop();
        }
        if i.kind.is_call() {
            m.ras.push(i.fallthrough());
        }
        if mispredicted {
            m.wrong_path_traffic(i);
            return Consumed::Stall {
                until: m.cycle + MISPREDICT_PENALTY,
                cause: StallKind::Redirect,
            };
        }
        if btb_bubble {
            return Consumed::Stall {
                until: m.cycle + BTB_MISS_PENALTY,
                cause: StallKind::Btb,
            };
        }
        if taken {
            // At most one taken branch per fetch group.
            return Consumed::EndGroup;
        }
        Consumed::Continue
    }
}

impl FrontendDriver for DecoupledDriver {
    fn begin_cycle(&mut self, m: &mut Machine) {
        m.drain_fills(self.pf.as_mut());
    }

    fn gate(&mut self, _m: &mut Machine, _cfg: &SimConfig, _instr: &Instr, _d: u32) -> Gate {
        Gate::Proceed
    }

    fn after_demand(&mut self, m: &mut Machine, block: Block, outcome: &DemandOutcome) {
        let (hit, was_pref) = match outcome {
            DemandOutcome::Hit { was_prefetched } => (true, *was_prefetched),
            _ => (false, false),
        };
        if let Some(pf) = &mut self.pf {
            let recent = m.recent;
            pf.on_demand(m, block, hit, was_pref, &recent);
        }
    }

    fn consume(&mut self, m: &mut Machine, cfg: &SimConfig, instr: &Instr) -> Consumed {
        if instr.kind.is_branch() {
            self.handle_branch(m, cfg, instr)
        } else {
            Consumed::Continue
        }
    }

    fn end_cycle(&mut self, m: &mut Machine) {
        if let Some(pf) = &mut self.pf {
            pf.tick(m);
        }
    }

    fn pump(&mut self, m: &mut Machine) {
        m.drain_fills(self.pf.as_mut());
        if let Some(pf) = &mut self.pf {
            pf.tick(m);
        }
    }

    fn pump_batch(&mut self, m: &mut Machine, resume: u64, pumps: u64) {
        // Same work as `pump` in a loop, with the prefetcher `Option`
        // resolved once for the whole stall instead of twice per pump.
        if let Some(pf) = self.pf.as_mut() {
            for k in 0..pumps {
                m.cycle = resume + k + 1;
                m.drain_fills(Some(&mut *pf));
                pf.tick(m);
            }
        } else {
            for k in 0..pumps {
                m.cycle = resume + k + 1;
                m.drain_fills::<Prefetcher>(None);
            }
        }
    }

    fn sample(&self) -> (Option<u64>, Option<(u64, u64)>) {
        (None, self.pf.as_ref().and_then(|p| p.rlu_counters()))
    }

    fn finish_report(&self, r: &mut SimReport) {
        if let Some(pf) = &self.pf {
            r.storage_bits = pf.storage_bits();
        }
    }
}
