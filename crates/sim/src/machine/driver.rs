//! The [`FrontendDriver`] trait: everything method-specific about the
//! per-cycle fetch loop, factored out of the (single) loop in
//! [`sim`](super::sim).
//!
//! Each simulated cycle, [`Simulator::step`](super::Simulator) runs:
//!
//! 1. [`begin_cycle`](FrontendDriver::begin_cycle) — drain fills,
//!    advance discovery;
//! 2. per instruction, up to the fetch width:
//!    [`gate`](FrontendDriver::gate) (may the frontend fetch this
//!    instruction now?), then the shared demand access, then
//!    [`after_demand`](FrontendDriver::after_demand) (prefetcher
//!    hooks), then — once the instruction is consumed —
//!    [`consume`](FrontendDriver::consume) (branch handling,
//!    retire-side learning);
//! 3. [`end_cycle`](FrontendDriver::end_cycle) — pump prefetcher
//!    queues — unless a stall ended the cycle early.
//!
//! During a stall the loop calls [`pump`](FrontendDriver::pump) up to
//! 16 times so background engines keep working while fetch waits.

use super::decoupled::DecoupledDriver;
use super::directed::DirectedDriver;
use super::memory::DemandOutcome;
use super::Machine;
use crate::config::{SimConfig, FTQ_ENTRIES};
use crate::metrics::SimReport;
use dcfb_frontend::Ftq;
use dcfb_prefetch::DriverPlan;
use dcfb_telemetry::StallKind;
use dcfb_trace::{Addr, Block, Instr};

/// What [`FrontendDriver::gate`] decided about fetching the next
/// instruction this cycle.
pub enum Gate {
    /// Fetch may proceed with this instruction.
    Proceed,
    /// Nothing fetchable this cycle (e.g. the FTQ is empty); end the
    /// cycle normally.
    EndCycle,
    /// The driver scheduled a stall (e.g. an FTQ-region mismatch forced
    /// a resteer); end the cycle via the stall path.
    Stall {
        /// Cycle the stall ends.
        until: u64,
        /// Attribution of the stalled cycles.
        cause: StallKind,
    },
}

/// What [`FrontendDriver::consume`] decided after an instruction
/// retired through the frontend.
pub enum Consumed {
    /// Keep fetching within this cycle's group.
    Continue,
    /// End this fetch group (at most one taken branch per group) but
    /// finish the cycle normally.
    EndGroup,
    /// The instruction triggered a stall (misprediction, BTB bubble,
    /// discovery resteer); end the cycle via the stall path.
    Stall {
        /// Cycle the stall ends.
        until: u64,
        /// Attribution of the stalled cycles.
        cause: StallKind,
    },
}

/// One frontend style: the method-specific half of the per-cycle loop.
///
/// Two production implementations exist — the conventional decoupled
/// frontend ([`decoupled`](super::decoupled)) and the BTB-directed
/// frontend ([`directed`](super::directed)) — plus mock drivers in the
/// test suite. The shared loop owns cycle counting, the demand access,
/// retire accounting, and stall bookkeeping; drivers own everything
/// else.
pub trait FrontendDriver {
    /// Start-of-cycle work: drain MSHR fills and advance any discovery
    /// engine. Runs exactly once per simulated cycle.
    fn begin_cycle(&mut self, m: &mut Machine);

    /// Decides whether `instr` may be fetched now (`dispatched`
    /// instructions already went this cycle). The BTB-directed driver
    /// pops and verifies FTQ regions here.
    fn gate(&mut self, m: &mut Machine, cfg: &SimConfig, instr: &Instr, dispatched: u32) -> Gate;

    /// Observes the demand access for `block` (called for every
    /// outcome, including misses and retries). The decoupled driver
    /// feeds its prefetcher's `on_demand` hook from here.
    fn after_demand(&mut self, m: &mut Machine, block: Block, outcome: &DemandOutcome);

    /// Handles a just-consumed instruction: branch prediction, BTB
    /// maintenance, retire-side learning, and redirect/squash
    /// decisions.
    fn consume(&mut self, m: &mut Machine, cfg: &SimConfig, instr: &Instr) -> Consumed;

    /// End-of-cycle work for cycles that did not stall (the decoupled
    /// driver pumps its prefetcher queues once here).
    fn end_cycle(&mut self, m: &mut Machine);

    /// One background pump while fetch is stalled: drain fills and tick
    /// the prefetcher / advance discovery. The loop bounds this to at
    /// most 16 pumps per stall.
    fn pump(&mut self, m: &mut Machine);

    /// Runs `pumps` background pumps for a stall that began at cycle
    /// `resume`, advancing `m.cycle` one cycle per pump. Equivalent to
    /// calling [`pump`](FrontendDriver::pump) in a loop; production
    /// drivers override it so the simulator dispatches to the driver
    /// once per stall rather than once per pump (and the decoupled
    /// driver tests its prefetcher `Option` once).
    fn pump_batch(&mut self, m: &mut Machine, resume: u64, pumps: u64) {
        for k in 0..pumps {
            m.cycle = resume + k + 1;
            self.pump(m);
        }
    }

    /// Telemetry sample: (FTQ occupancy if this driver has an FTQ, RLU
    /// lookup/hit counters if its prefetcher exposes them).
    fn sample(&self) -> (Option<u64>, Option<(u64, u64)>);

    /// Called when measurement starts (after warmup) so drivers can
    /// reset engine-local statistics.
    fn on_reset(&mut self) {}

    /// Contributes driver-specific fields (metadata storage, Shotgun's
    /// split-BTB statistics) to the finished report.
    fn finish_report(&self, r: &mut SimReport);
}

/// Builds the [`FrontendDriver`] for `cfg.prefetcher` via the method
/// registry's [`DriverPlan`].
pub fn build_driver(cfg: &SimConfig, start_pc: Addr) -> Box<dyn FrontendDriver> {
    match Driver::build(cfg, start_pc) {
        Driver::Decoupled(d) => Box::new(d),
        Driver::Directed(d) => Box::new(d),
        Driver::Boxed(d) => d,
    }
}

/// The driver a [`Simulator`](super::Simulator) runs: the two
/// production drivers as enum variants, so the shared loop's
/// per-instruction hooks are direct (inlinable) calls, plus a boxed
/// variant for an explicit driver handed to
/// [`Simulator::try_with_driver`](super::Simulator::try_with_driver).
#[allow(clippy::large_enum_variant)] // one per simulator, holding its prefetcher inline
pub(crate) enum Driver {
    Decoupled(DecoupledDriver),
    Directed(DirectedDriver),
    Boxed(Box<dyn FrontendDriver>),
}

impl Driver {
    /// The production driver for `cfg.prefetcher`.
    pub(crate) fn build(cfg: &SimConfig, start_pc: Addr) -> Driver {
        match cfg.prefetcher.build(cfg.isa, start_pc) {
            DriverPlan::Decoupled(pf) => Driver::Decoupled(DecoupledDriver::new(pf)),
            DriverPlan::Directed(engine) => {
                Driver::Directed(DirectedDriver::new(engine, Ftq::new(FTQ_ENTRIES)))
            }
        }
    }
}

/// Forwards one [`FrontendDriver`] call to whichever driver `$driver`
/// holds.
macro_rules! dispatch {
    ($driver:expr, $d:ident => $call:expr) => {
        match $driver {
            Driver::Decoupled($d) => $call,
            Driver::Directed($d) => $call,
            Driver::Boxed($d) => $call,
        }
    };
}

impl FrontendDriver for Driver {
    #[inline]
    fn begin_cycle(&mut self, m: &mut Machine) {
        dispatch!(self, d => d.begin_cycle(m))
    }

    #[inline]
    fn gate(&mut self, m: &mut Machine, cfg: &SimConfig, instr: &Instr, dispatched: u32) -> Gate {
        dispatch!(self, d => d.gate(m, cfg, instr, dispatched))
    }

    #[inline]
    fn after_demand(&mut self, m: &mut Machine, block: Block, outcome: &DemandOutcome) {
        dispatch!(self, d => d.after_demand(m, block, outcome))
    }

    #[inline]
    fn consume(&mut self, m: &mut Machine, cfg: &SimConfig, instr: &Instr) -> Consumed {
        dispatch!(self, d => d.consume(m, cfg, instr))
    }

    #[inline]
    fn end_cycle(&mut self, m: &mut Machine) {
        dispatch!(self, d => d.end_cycle(m))
    }

    fn pump(&mut self, m: &mut Machine) {
        dispatch!(self, d => d.pump(m))
    }

    fn pump_batch(&mut self, m: &mut Machine, resume: u64, pumps: u64) {
        dispatch!(self, d => d.pump_batch(m, resume, pumps))
    }

    fn sample(&self) -> (Option<u64>, Option<(u64, u64)>) {
        dispatch!(self, d => d.sample())
    }

    fn on_reset(&mut self) {
        dispatch!(self, d => d.on_reset())
    }

    fn finish_report(&self, r: &mut SimReport) {
        dispatch!(self, d => d.finish_report(r))
    }
}
