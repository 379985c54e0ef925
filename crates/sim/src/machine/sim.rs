//! The trace-driven simulator: the single per-cycle loop shared by
//! every frontend driver, plus warmup/measurement orchestration, the
//! decoupled-core retire model, stall accounting, and report assembly.

use super::driver::{Consumed, Driver, FrontendDriver, Gate};
use super::memory::DemandOutcome;
use super::{Machine, RawStats};
use crate::config::{SimConfig, FETCH_WIDTH};
use crate::metrics::SimReport;
use dcfb_errors::DcfbError;
use dcfb_telemetry::{RunCounts, RunMeta, StallKind, TelemetryReport};
use dcfb_trace::{Addr, CodeMemory, Instr, InstrStream};
use std::sync::Arc;

/// The trace-driven frontend simulator.
pub struct Simulator {
    cfg: SimConfig,
    machine: Machine,
    driver: Driver,
    /// One-instruction lookahead from the trace.
    pending: Option<Instr>,
    /// Retire-side clock of the decoupled-core model: each retired
    /// instruction costs `1 / backend_ipc` cycles, but can never retire
    /// before it was fetched. Fetch may run ahead by at most a ROB's
    /// worth of work; the measured execution time is the retire clock.
    retire_clock: f64,
    /// Retire clock at the start of the measurement window.
    retire_mark: f64,
    /// Instructions retired before the current measurement window
    /// (`stats.instrs` resets at the warmup/measure boundary; the
    /// lifetime count is `instrs_base + stats.instrs`).
    instrs_base: u64,
}

impl Simulator {
    /// Creates a simulator over any [`CodeMemory`] after validating
    /// `cfg`. `start_pc` seeds the BTB-directed discovery engines;
    /// `workload_name` labels the report. [`crate::run`] builds one
    /// from a resolved workload source; build one directly only to
    /// drive it by hand (a custom stream, or a look at it after the
    /// run).
    ///
    /// # Errors
    ///
    /// Returns [`DcfbError::Config`] if `cfg` fails
    /// [`SimConfig::validate`].
    pub fn try_with_code(
        cfg: SimConfig,
        code: Arc<dyn CodeMemory + Send + Sync>,
        start_pc: Addr,
        workload_name: String,
    ) -> Result<Self, DcfbError> {
        cfg.validate()?;
        let driver = Driver::build(&cfg, start_pc);
        Ok(Simulator::assemble(cfg, code, workload_name, driver))
    }

    /// Creates a simulator with an explicit [`FrontendDriver`],
    /// bypassing the method registry. This is the seam the driver test
    /// suite uses to exercise the shared per-cycle loop with a mock
    /// driver; `cfg.prefetcher` only labels the report.
    ///
    /// # Errors
    ///
    /// Returns [`DcfbError::Config`] if `cfg` fails
    /// [`SimConfig::validate`].
    pub fn try_with_driver(
        cfg: SimConfig,
        code: Arc<dyn CodeMemory + Send + Sync>,
        workload_name: String,
        driver: Box<dyn FrontendDriver>,
    ) -> Result<Self, DcfbError> {
        cfg.validate()?;
        Ok(Simulator::assemble(
            cfg,
            code,
            workload_name,
            Driver::Boxed(driver),
        ))
    }

    fn assemble(
        cfg: SimConfig,
        code: Arc<dyn CodeMemory + Send + Sync>,
        workload_name: String,
        driver: Driver,
    ) -> Self {
        let machine = Machine::new(&cfg, code, workload_name);
        Simulator {
            cfg,
            machine,
            driver,
            pending: None,
            retire_clock: 0.0,
            retire_mark: 0.0,
            instrs_base: 0,
        }
    }

    /// Instructions retired over the simulator's lifetime (warmup +
    /// measurement).
    pub fn instrs_retired(&self) -> u64 {
        self.instrs_base + self.machine.stats.instrs
    }

    /// Runs warmup then measurement over `stream`, returning the
    /// measured report.
    pub fn run<S: InstrStream>(&mut self, stream: &mut S) -> SimReport {
        self.run_instrs(stream, self.cfg.warmup_instrs);
        self.reset_measurement();
        self.run_instrs(stream, self.cfg.measure_instrs);
        self.report()
    }

    /// Sustainable retire rate of the backend (server workloads are
    /// data-bound well below the 3-wide width; Table III's 128-entry
    /// ROB is what lets fetch run ahead and hide instruction misses).
    pub(crate) const BACKEND_IPC: f64 = 0.75;
    /// How far fetch may run ahead of retire (ROB capacity in cycles of
    /// backend work).
    const ROB_CYCLES: f64 = 128.0 / Self::BACKEND_IPC;

    #[inline]
    fn note_retired(&mut self) {
        let fetched_at = self.machine.cycle as f64;
        self.retire_clock = (self.retire_clock + 1.0 / Self::BACKEND_IPC).max(fetched_at);
        // ROB backpressure: fetch cannot lead retire by more than the
        // window; stall fetch (backend-bound, not a frontend stall).
        let min_fetch = self.retire_clock - Self::ROB_CYCLES;
        if (self.machine.cycle as f64) < min_fetch {
            // `min_fetch.ceil()` without the libm call: `min_fetch` is
            // positive here, so the cast truncates to its floor.
            let floor = min_fetch as u64;
            self.machine.cycle = floor + u64::from((floor as f64) < min_fetch);
        }
    }

    /// Per-cycle telemetry sample; with telemetry off this is a single
    /// never-taken branch. With telemetry on, the (comparatively
    /// expensive) machine/driver state sample is built only on the
    /// cycles the recorder samples; it weights each observation by the
    /// stride so occupancy statistics still estimate per-cycle totals.
    fn telemetry_tick(&mut self) {
        let Some(t) = self.machine.telem.as_deref_mut() else {
            return;
        };
        if !t.sample_due() {
            return;
        }
        let s = self.machine.cycle_sample(self.driver.sample());
        if let Some(t) = self.machine.telem.as_deref_mut() {
            t.tick(&s);
        }
    }

    /// Detaches the telemetry recorder (if the run was configured with
    /// [`SimConfig::telemetry`]) and finalizes it into an exportable
    /// report: metrics document, time series, and trace events. After
    /// this call the simulator records no further telemetry.
    pub fn take_telemetry(&mut self) -> Option<TelemetryReport> {
        let final_sample = self.machine.cycle_sample(self.driver.sample());
        let telem = self.machine.telem.take()?;
        let r = self.report();
        let (s, l1i) = (&self.machine.stats, self.machine.l1i.stats());
        let counts = RunCounts {
            demand_accesses: l1i.demand_accesses,
            demand_hits: l1i.demand_hits,
            demand_misses: l1i.demand_misses.saturating_sub(s.buffer_hits),
            buffer_hits: s.buffer_hits,
            seq_misses: s.seq_misses,
            disc_misses: s.disc_misses,
            uncovered_misses: s.uncovered_misses,
            pf_issued: s.issued_prefetches,
            pf_dropped: s.dropped_prefetches,
            pf_late: s.late_prefetches,
            stall_events: s.stall_events,
            stall_cycles: [s.stall_l1i, s.stall_btb, s.stall_redirect],
            stall_empty_ftq_cycles: s.stall_empty_ftq,
        };
        let meta = RunMeta {
            workload: r.workload,
            method: r.method,
            cycles: r.cycles,
            instrs: r.instrs,
            counts,
        };
        Some(telem.finalize(&meta, &final_sample))
    }

    fn reset_measurement(&mut self) {
        self.retire_clock = self.retire_clock.max(self.machine.cycle as f64);
        self.retire_mark = self.retire_clock;
        if let Some(t) = self.machine.telem.as_deref_mut() {
            t.reset();
        }
        self.instrs_base += self.machine.stats.instrs;
        self.machine.stats = RawStats::default();
        self.machine.l1i.reset_stats();
        self.machine.uncore.reset_stats();
        self.machine.btb.reset_stats();
        self.machine.tage.reset_stats();
        self.driver.on_reset();
    }

    /// Runs until `limit` further instructions retire (or the stream
    /// ends).
    pub fn run_instrs<S: InstrStream>(&mut self, stream: &mut S, limit: u64) {
        let target = self.machine.stats.instrs + limit;
        while self.machine.stats.instrs < target {
            if self.pending.is_none() {
                self.pending = stream.next_instr();
                if self.pending.is_none() {
                    break;
                }
            }
            self.step(stream, target);
        }
    }

    /// Builds the measured report.
    pub fn report(&self) -> SimReport {
        let m = &self.machine;
        // Execution time is the retire clock (decoupled-core model);
        // fall back to fetch cycles if nothing retired.
        let retire_cycles = (self.retire_clock.max(m.cycle as f64) - self.retire_mark) as u64;
        // Re-credit prefetch-buffer absorptions as hits.
        let mut l1i_stats = m.l1i.stats();
        l1i_stats.demand_misses -= m.stats.buffer_hits.min(l1i_stats.demand_misses);
        l1i_stats.demand_hits += m.stats.buffer_hits;
        let mut r = SimReport {
            method: self.cfg.prefetcher.name().into_owned(),
            workload: m.workload_name.clone(),
            cycles: retire_cycles.max(1),
            instrs: m.stats.instrs,
            l1i: l1i_stats,
            seq_misses: m.stats.seq_misses,
            disc_misses: m.stats.disc_misses,
            stall_l1i: m.stats.stall_l1i,
            stall_btb: m.stats.stall_btb,
            stall_redirect: m.stats.stall_redirect,
            stall_empty_ftq: m.stats.stall_empty_ftq,
            cmal_covered: m.stats.cmal_covered,
            cmal_total: m.stats.cmal_total,
            late_prefetches: m.stats.late_prefetches,
            uncovered_misses: m.stats.uncovered_misses,
            cache_lookups: l1i_stats.demand_accesses + l1i_stats.probes,
            external_requests: m.uncore.stats().requests,
            uncore: m.uncore.stats(),
            btb: m.btb.stats(),
            shotgun_btb: None,
            shotgun: None,
            storage_bits: 0,
            branch_accuracy: m.tage.accuracy(),
            dropped_prefetches: m.stats.dropped_prefetches,
            buffer_hits: m.stats.buffer_hits,
        };
        self.driver.finish_report(&mut r);
        r
    }

    // ---- the shared per-cycle loop ----

    /// One simulated cycle: begin-cycle driver work, then fetch up to
    /// [`FETCH_WIDTH`] instructions gated and post-processed by the
    /// driver, then end-of-cycle driver work (unless a stall ended the
    /// cycle early).
    fn step<S: InstrStream>(&mut self, stream: &mut S, target: u64) {
        self.machine.cycle += 1;
        self.telemetry_tick();
        self.driver.begin_cycle(&mut self.machine);
        let mut dispatched = 0u32;
        while dispatched < FETCH_WIDTH && self.machine.stats.instrs < target {
            if self.pending.is_none() {
                self.pending = stream.next_instr();
            }
            let Some(instr) = self.pending else { break };
            match self
                .driver
                .gate(&mut self.machine, &self.cfg, &instr, dispatched)
            {
                Gate::Proceed => {}
                Gate::EndCycle => break,
                Gate::Stall { until, cause } => {
                    self.stall(until, cause);
                    return;
                }
            }
            let block = instr.block();
            // Block transition -> demand access.
            if self.machine.prev_demand_block != Some(block) {
                let outcome = self.machine.demand(block);
                self.driver.after_demand(&mut self.machine, block, &outcome);
                match outcome {
                    DemandOutcome::Hit { .. } => {}
                    DemandOutcome::Miss {
                        ready_at,
                        had_prefetch,
                    } => {
                        if had_prefetch {
                            self.machine.account_late_prefetch(ready_at);
                        }
                        self.stall(ready_at, StallKind::L1i);
                        return;
                    }
                    DemandOutcome::Retry => {
                        self.stall(self.machine.cycle + 1, StallKind::L1i);
                        return;
                    }
                }
                self.machine.prev_demand_block = Some(block);
            }
            // Consume the instruction.
            self.pending = None;
            self.machine.stats.instrs += 1;
            self.note_retired();
            dispatched += 1;
            self.machine.recent.push(instr);
            match self.driver.consume(&mut self.machine, &self.cfg, &instr) {
                Consumed::Continue => {}
                Consumed::EndGroup => break,
                Consumed::Stall { until, cause } => {
                    self.stall(until, cause);
                    return;
                }
            }
        }
        self.driver.end_cycle(&mut self.machine);
    }

    /// Advances to `until`, attributing stall cycles and pumping the
    /// prefetcher/discovery engines while waiting.
    fn stall(&mut self, until: u64, cause: StallKind) {
        let from = self.machine.cycle;
        if until <= from {
            return;
        }
        let span = until - from;
        if let Some(t) = self.machine.telem.as_deref_mut() {
            t.stall(cause, from, until);
        }
        self.machine.stats.stall_events[cause as usize] += 1;
        match cause {
            StallKind::L1i => self.machine.stats.stall_l1i += span,
            // Squashes (undetected taken branches, mispredictions)
            // restart the pipeline: the backend refills for ~penalty
            // cycles and retires nothing, so the cost is visible at the
            // retire clock no matter how much fetch-ahead was buffered.
            StallKind::Btb => {
                self.machine.stats.stall_btb += span;
                self.retire_clock += span as f64;
            }
            StallKind::Redirect => {
                self.machine.stats.stall_redirect += span;
                self.retire_clock += span as f64;
            }
        }
        // Pump background engines a bounded number of times during the
        // stall, then jump the clock.
        let resume = self.machine.cycle;
        let pumps = span.min(16);
        self.driver.pump_batch(&mut self.machine, resume, pumps);
        self.machine.cycle = until;
    }
}
