//! The BTB-directed driver skips the cycles in which nothing can
//! change (an empty FTQ while discovery waits for an in-flight block).
//! The conformance goldens pin that the skip is exact; this test pins
//! that it happens, by counting the steps the shared loop takes.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use dcfb_sim::machine::{
    build_driver, Consumed, DemandOutcome, FrontendDriver, Gate, Machine, Simulator,
};
use dcfb_sim::{SimConfig, SimReport};
use dcfb_trace::{Block, Instr, IsaMode};
use dcfb_workloads::{ProgramImage, ResolvedWorkload, WorkloadParams};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

/// Counts `begin_cycle` calls (one per simulated step) of the wrapped
/// driver.
struct CountingDriver {
    inner: Box<dyn FrontendDriver>,
    steps: Rc<Cell<u64>>,
}

impl FrontendDriver for CountingDriver {
    fn begin_cycle(&mut self, m: &mut Machine) {
        self.steps.set(self.steps.get() + 1);
        self.inner.begin_cycle(m);
    }

    fn gate(&mut self, m: &mut Machine, cfg: &SimConfig, instr: &Instr, dispatched: u32) -> Gate {
        self.inner.gate(m, cfg, instr, dispatched)
    }

    fn after_demand(&mut self, m: &mut Machine, block: Block, outcome: &DemandOutcome) {
        self.inner.after_demand(m, block, outcome);
    }

    fn consume(&mut self, m: &mut Machine, cfg: &SimConfig, instr: &Instr) -> Consumed {
        self.inner.consume(m, cfg, instr)
    }

    fn end_cycle(&mut self, m: &mut Machine) {
        self.inner.end_cycle(m);
    }

    fn pump(&mut self, m: &mut Machine) {
        self.inner.pump(m);
    }

    fn pump_batch(&mut self, m: &mut Machine, resume: u64, pumps: u64) {
        self.inner.pump_batch(m, resume, pumps);
    }

    fn sample(&self) -> (Option<u64>, Option<(u64, u64)>) {
        self.inner.sample()
    }

    fn on_reset(&mut self) {
        self.inner.on_reset();
    }

    fn finish_report(&self, r: &mut SimReport) {
        self.inner.finish_report(r);
    }
}

#[test]
fn directed_driver_skips_idle_cycles() {
    // The simulator tests' image and shrunken L1i: the directed
    // engines starve their FTQ on it.
    let params = WorkloadParams {
        functions: 500,
        root_functions: 32,
        zipf_s: 0.9,
        ..WorkloadParams::default()
    };
    let image = Arc::new(ProgramImage::build(&params, 3, IsaMode::Fixed4));
    let w = ResolvedWorkload::from_image(image);
    for method in ["Boomerang", "Shotgun"] {
        let mut cfg = SimConfig::for_method(method).expect("registered");
        cfg.l1i = dcfb_cache::CacheConfig::from_kib(8, 8);
        let steps = Rc::new(Cell::new(0));
        let driver = Box::new(CountingDriver {
            inner: build_driver(&cfg, w.start_pc()),
            steps: Rc::clone(&steps),
        });
        let mut sim = Simulator::try_with_driver(cfg, w.code(), w.name().to_owned(), driver)
            .expect("valid config");
        sim.run_instrs(&mut w.stream(5), 120_000);
        let r = sim.report();
        assert!(r.stall_empty_ftq > 0, "{method} must starve its FTQ");
        // Stepped one cycle at a time, every empty-FTQ cycle is a step
        // of its own, and so is every cycle that fetches (at most 3
        // instructions each).
        let stepped_lower_bound = r.stall_empty_ftq + r.instrs / 3;
        assert!(
            steps.get() < stepped_lower_bound,
            "{method}: {} steps, {stepped_lower_bound} when stepped",
            steps.get()
        );
    }
}
