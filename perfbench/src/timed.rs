//! Sampled hook timing from outside the simulator.
//!
//! [`TimedDriver`] wraps the [`FrontendDriver`] that
//! `dcfb_sim::machine::build_driver` builds and forwards every method to
//! it; [`TimedStream`] wraps the instruction stream. Both report into one
//! shared [`Ledger`].
//!
//! Reading a clock costs tens of nanoseconds, about as much as the
//! shorter hooks take, so timing every call would distort what it
//! measures. Instead the ledger opens a *window* on a pseudo-random
//! subset of simulated cycles (one in [`SAMPLE_PERIOD`] on average, in
//! bursts of [`BURST`] consecutive cycles). A
//! window runs from one `begin_cycle` call to the next, i.e. exactly one
//! pass of `Simulator::step` plus the run loop around it. Inside a window
//! every hook call and every `next_instr` call is timed, and one
//! back-to-back pair of clock reads measures the clock's own cost in
//! place. Calls are counted outside windows too, so per-call figures
//! divide by exact counts.
//!
//! Every window also times one empty region and the reads around it,
//! which measures in place what the instrumentation itself costs;
//! [`Ledger::layer_times`] subtracts that, then scales window sums by
//! `cycles / sampled cycles`.

use dcfb_sim::machine::{Consumed, DemandOutcome, FrontendDriver, Gate, Machine};
use dcfb_sim::{SimConfig, SimReport};
use dcfb_trace::{Block, Instr, InstrStream};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// One cycle in this many is sampled, on average.
pub const SAMPLE_PERIOD: u64 = 64;
/// Sampled cycles come in bursts of this many consecutive cycles, so
/// that the branches of the instrumentation are predictable inside a
/// burst; an isolated sampled cycle would pay a misprediction at every
/// timed region that the in-place calibration does not see.
pub const BURST: u64 = 32;

/// The timed hooks, in report order. `Walk` is the instruction stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Hook {
    BeginCycle,
    Gate,
    AfterDemand,
    Consume,
    EndCycle,
    PumpBatch,
    Walk,
}

impl Hook {
    pub const ALL: [Hook; 7] = [
        Hook::BeginCycle,
        Hook::Gate,
        Hook::AfterDemand,
        Hook::Consume,
        Hook::EndCycle,
        Hook::PumpBatch,
        Hook::Walk,
    ];

    /// Metric-name prefix: repo module, then hook.
    pub fn metric_prefix(self) -> &'static str {
        match self {
            Hook::BeginCycle => "machine.begin_cycle",
            Hook::Gate => "machine.gate",
            Hook::AfterDemand => "machine.after_demand",
            Hook::Consume => "machine.consume",
            Hook::EndCycle => "machine.end_cycle",
            Hook::PumpBatch => "machine.pump_batch",
            Hook::Walk => "workloads.walk",
        }
    }
}

/// A cheap monotonic tick source, calibrated to nanoseconds.
///
/// On x86-64 this is the time-stamp counter (about half the cost of
/// `Instant::now` on a virtualised host); elsewhere it is `Instant`.
#[derive(Clone, Copy, Debug)]
pub struct Clock {
    #[cfg_attr(target_arch = "x86_64", allow(dead_code))]
    origin: Instant,
    ns_per_tick: f64,
}

impl Clock {
    /// Calibrates ticks against `Instant` over about 20 ms.
    pub fn calibrate() -> Clock {
        let mut clock = Clock {
            origin: Instant::now(),
            ns_per_tick: 1.0,
        };
        let (t0, i0) = (clock.ticks(), Instant::now());
        while i0.elapsed().as_millis() < 20 {
            std::hint::spin_loop();
        }
        let (t1, ns) = (clock.ticks(), i0.elapsed().as_nanos() as f64);
        clock.ns_per_tick = ns / t1.saturating_sub(t0).max(1) as f64;
        clock
    }

    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    pub fn ticks(&self) -> u64 {
        // SAFETY: RDTSC only reads the time-stamp counter. It touches no
        // memory and exists on every x86-64 processor.
        unsafe { std::arch::x86_64::_rdtsc() }
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[inline(always)]
    pub fn ticks(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn ns(&self, ticks: f64) -> f64 {
        ticks * self.ns_per_tick
    }
}

/// Per-hook tallies: every call is counted; calls inside sampled windows
/// are also timed.
#[derive(Clone, Copy, Debug, Default)]
pub struct HookStat {
    pub calls: u64,
    /// Stall pumps requested (only `pump_batch`).
    pub pumps: u64,
    pub sampled_calls: u64,
    pub sampled_ticks: u64,
}

/// Slots: the seven [`Hook::ALL`] entries, then the empty calibration
/// region.
const SLOTS: usize = 8;
const NULL: usize = 7;

/// What one open window has accumulated; merged into the ledger only
/// when the window closes, so a window cut off by the end of a run is
/// dropped whole.
#[derive(Clone, Copy, Debug, Default)]
struct Window {
    start: u64,
    pair_ticks: u64,
    full_ticks: u64,
    calls: [u64; SLOTS],
    ticks: [u64; SLOTS],
}

/// Shared tallies of one or more traced runs.
#[derive(Debug)]
pub struct Ledger {
    clock: Clock,
    rng: u64,
    countdown: u64,
    burst_left: u64,
    open: Option<Window>,
    slots: [HookStat; SLOTS],
    /// `begin_cycle` calls: one per `Simulator::step`.
    pub cycles: u64,
    pub windows: u64,
    window_ticks: u64,
    /// Timed hook regions inside closed windows.
    window_regions: u64,
    /// Back-to-back clock-read pairs, one per window.
    pair_ticks: u64,
    /// One empty timed region plus the pair of reads around it, one per
    /// window.
    full_ticks: u64,
}

impl Ledger {
    pub fn new(clock: Clock, seed: u64) -> Ledger {
        let mut l = Ledger {
            clock,
            rng: seed | 1,
            countdown: 0,
            burst_left: 0,
            open: None,
            slots: [HookStat::default(); SLOTS],
            cycles: 0,
            windows: 0,
            window_ticks: 0,
            window_regions: 0,
            pair_ticks: 0,
            full_ticks: 0,
        };
        l.countdown = l.next_gap();
        l
    }

    pub fn hook(&self, h: Hook) -> HookStat {
        self.slots[h as usize]
    }

    /// Cycles between bursts: uniform in `[1, 2 * BURST * (P - 1) - 1]`
    /// (xorshift64), so that one cycle in `P = SAMPLE_PERIOD` is sampled
    /// on average and the bursts cannot alias with periodic behaviour.
    fn next_gap(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        1 + self.rng % (2 * BURST * (SAMPLE_PERIOD - 1) - 1)
    }

    /// Called at the top of every `begin_cycle`: closes the open window
    /// and decides whether this cycle opens a new one. Returns whether
    /// it did.
    fn cycle_boundary(&mut self) -> bool {
        self.cycles += 1;
        if let Some(w) = self.open.take() {
            let end = self.clock.ticks();
            self.windows += 1;
            self.window_ticks += end.saturating_sub(w.start);
            self.pair_ticks += w.pair_ticks;
            self.full_ticks += w.full_ticks;
            for (i, h) in self.slots.iter_mut().enumerate() {
                h.sampled_calls += w.calls[i];
                h.sampled_ticks += w.ticks[i];
            }
            self.window_regions += w.calls[..NULL].iter().sum::<u64>();
        }
        if self.burst_left == 0 {
            self.countdown -= 1;
            if self.countdown > 0 {
                return false;
            }
            self.countdown = self.next_gap();
            self.burst_left = BURST;
        }
        self.burst_left -= 1;
        let start = self.clock.ticks();
        let a = self.clock.ticks();
        let b = self.clock.ticks();
        self.open = Some(Window {
            start,
            pair_ticks: b.saturating_sub(a),
            ..Window::default()
        });
        true
    }

    /// Drops a window that the end of a run left open.
    pub fn end_run(&mut self) {
        self.open = None;
    }

    #[inline(always)]
    fn is_open(&self) -> bool {
        self.open.is_some()
    }

    #[inline(always)]
    fn record(&mut self, slot: usize, start: Option<u64>) {
        self.slots[slot].calls += 1;
        if let (Some(t0), Some(w)) = (start, self.open.as_mut()) {
            let t1 = self.clock.ticks();
            w.calls[slot] += 1;
            w.ticks[slot] += t1.saturating_sub(t0);
        }
    }

    /// Estimated untraced times, corrected and scaled to all cycles.
    /// `untraced_ns` is the measured wall time of the same runs without
    /// tracing.
    ///
    /// With `c` one clock read, `r` what an empty region reads as, and
    /// `f` the whole cost of an empty timed region (read as `full - c`):
    /// a hook's reading is its time plus `r`, and a window's length is
    /// its time plus `5c` (boundary halves, the read pair, the reads
    /// around the calibration region) plus `f` per timed region, the
    /// calibration region included.
    ///
    /// Those corrections still leave the window total above the
    /// untraced wall time: a timed call also loses the overlap that
    /// out-of-order execution gives an untimed call with the code
    /// around it. That loss is taken as the same for every call and
    /// calibrated so that the window total matches `untraced_ns`; it is
    /// then subtracted from every timed call. The replay differential
    /// of the walk, which this calibration does not use, checks it.
    pub fn layer_times(&self, untraced_ns: f64) -> LayerTimes {
        let per_window = |x: u64| x as f64 / self.windows.max(1) as f64;
        let c = per_window(self.pair_ticks);
        let null = self.slots[NULL];
        let r = null.sampled_ticks as f64 / null.sampled_calls.max(1) as f64;
        let f = per_window(self.full_ticks) - c;
        let scale = self.cycles as f64 / self.windows.max(1) as f64;
        let overhead =
            5.0 * c * self.windows as f64 + f * (self.window_regions + self.windows) as f64;
        let loop_ns = self
            .clock
            .ns((self.window_ticks as f64 - overhead).max(0.0))
            * scale;
        let calls: u64 = self.slots[..NULL].iter().map(|h| h.calls).sum();
        let bias_ns = ((loop_ns - untraced_ns) / calls.max(1) as f64).max(0.0);
        let mut hook_ns = [0.0; 7];
        for (i, h) in self.slots[..NULL].iter().enumerate() {
            let t = self
                .clock
                .ns((h.sampled_ticks as f64 - r * h.sampled_calls as f64).max(0.0))
                * scale;
            hook_ns[i] = (t - bias_ns * h.calls as f64).max(0.0);
        }
        LayerTimes {
            hook_ns,
            loop_ns,
            timer_ns: self.clock.ns(c),
            region_ns: self.clock.ns(f),
            bias_ns,
        }
    }
}

/// Untraced-cost estimates derived from a [`Ledger`].
#[derive(Clone, Copy, Debug)]
pub struct LayerTimes {
    /// Per [`Hook::ALL`] entry: estimated self time over all cycles.
    pub hook_ns: [f64; 7],
    /// Estimated time of the whole stepping loop over all cycles, before
    /// the overlap correction.
    pub loop_ns: f64,
    /// In-place cost of one clock read.
    pub timer_ns: f64,
    /// In-place cost of one timed region, bookkeeping included.
    pub region_ns: f64,
    /// Overlap lost per timed call.
    pub bias_ns: f64,
}

pub type SharedLedger = Rc<RefCell<Ledger>>;

/// Times `f` in `slot` if a window is open; counts it either way.
#[inline(always)]
fn timed<R>(ledger: &SharedLedger, slot: usize, f: impl FnOnce() -> R) -> R {
    let start = {
        let l = ledger.borrow();
        l.is_open().then(|| l.clock.ticks())
    };
    let r = f();
    ledger.borrow_mut().record(slot, start);
    r
}

/// Times one empty region, and the reads around it, in the window just
/// opened: the in-place cost of the instrumentation itself.
fn calibrate_in_place(ledger: &SharedLedger) {
    let clock = ledger.borrow().clock;
    let a = clock.ticks();
    timed(ledger, NULL, || ());
    let b = clock.ticks();
    if let Some(w) = ledger.borrow_mut().open.as_mut() {
        w.full_ticks = b.saturating_sub(a);
    }
}

/// A [`FrontendDriver`] decorator that forwards every method and times
/// the six per-cycle hooks.
pub struct TimedDriver {
    inner: Box<dyn FrontendDriver>,
    ledger: SharedLedger,
}

impl TimedDriver {
    pub fn new(inner: Box<dyn FrontendDriver>, ledger: SharedLedger) -> TimedDriver {
        TimedDriver { inner, ledger }
    }
}

impl FrontendDriver for TimedDriver {
    fn begin_cycle(&mut self, m: &mut Machine) {
        if self.ledger.borrow_mut().cycle_boundary() {
            calibrate_in_place(&self.ledger);
        }
        let inner = &mut self.inner;
        timed(&self.ledger, Hook::BeginCycle as usize, || {
            inner.begin_cycle(m)
        });
    }

    fn gate(&mut self, m: &mut Machine, cfg: &SimConfig, instr: &Instr, dispatched: u32) -> Gate {
        let inner = &mut self.inner;
        timed(&self.ledger, Hook::Gate as usize, || {
            inner.gate(m, cfg, instr, dispatched)
        })
    }

    fn after_demand(&mut self, m: &mut Machine, block: Block, outcome: &DemandOutcome) {
        let inner = &mut self.inner;
        timed(&self.ledger, Hook::AfterDemand as usize, || {
            inner.after_demand(m, block, outcome)
        });
    }

    fn consume(&mut self, m: &mut Machine, cfg: &SimConfig, instr: &Instr) -> Consumed {
        let inner = &mut self.inner;
        timed(&self.ledger, Hook::Consume as usize, || {
            inner.consume(m, cfg, instr)
        })
    }

    fn end_cycle(&mut self, m: &mut Machine) {
        let inner = &mut self.inner;
        timed(&self.ledger, Hook::EndCycle as usize, || inner.end_cycle(m));
    }

    fn pump(&mut self, m: &mut Machine) {
        self.inner.pump(m);
    }

    fn pump_batch(&mut self, m: &mut Machine, resume: u64, pumps: u64) {
        self.ledger.borrow_mut().slots[Hook::PumpBatch as usize].pumps += pumps;
        let inner = &mut self.inner;
        timed(&self.ledger, Hook::PumpBatch as usize, || {
            inner.pump_batch(m, resume, pumps)
        });
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

/// An [`InstrStream`] decorator that times `next_instr` as
/// [`Hook::Walk`].
pub struct TimedStream<S> {
    inner: S,
    ledger: SharedLedger,
}

impl<S: InstrStream> TimedStream<S> {
    pub fn new(inner: S, ledger: SharedLedger) -> TimedStream<S> {
        TimedStream { inner, ledger }
    }
}

impl<S: InstrStream> InstrStream for TimedStream<S> {
    fn next_instr(&mut self) -> Option<Instr> {
        let inner = &mut self.inner;
        timed(&self.ledger, Hook::Walk as usize, || inner.next_instr())
    }
}
