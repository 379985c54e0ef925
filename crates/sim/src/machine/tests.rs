//! Simulator tests: end-to-end method runs ported from the original
//! monolithic engine, plus mock-driver tests that exercise the shared
//! per-cycle loop in isolation.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use super::{Consumed, DemandOutcome, FrontendDriver, Gate, Machine, Simulator};
use crate::config::SimConfig;
use crate::metrics::SimReport;
use dcfb_prefetch::Prefetcher;
use dcfb_telemetry::StallKind;
use dcfb_trace::{Block, Instr, IsaMode};
use dcfb_workloads::{ProgramImage, ResolvedWorkload, WorkloadParams};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

fn tiny_image() -> Arc<ProgramImage> {
    // Large enough that the dynamic hot set thrashes the shrunken
    // test L1i (the paper's phenomena need instruction-bound
    // workloads).
    let params = WorkloadParams {
        functions: 500,
        root_functions: 32,
        zipf_s: 0.9,
        ..WorkloadParams::default()
    };
    Arc::new(ProgramImage::build(&params, 3, IsaMode::Fixed4))
}

fn quick_cfg(method: &str) -> SimConfig {
    let mut cfg = SimConfig::for_method(method).expect("method");
    cfg.warmup_instrs = 60_000;
    cfg.measure_instrs = 120_000;
    // The tiny test image must still thrash the L1i for the paper's
    // phenomena to appear, so shrink the cache instead of growing
    // the image (keeps tests fast).
    cfg.l1i = dcfb_cache::CacheConfig::from_kib(8, 8);
    cfg
}

/// Runs `cfg` on the tiny image through the one run path.
fn run_cfg(cfg: SimConfig) -> crate::Run {
    crate::run(&ResolvedWorkload::from_image(tiny_image()), cfg, 5).expect("valid config")
}

fn run(method: &str) -> SimReport {
    run_cfg(quick_cfg(method)).report
}

/// A simulator over the tiny image, for the tests that drive it by
/// hand or look at it after the run.
fn tiny_simulator(cfg: SimConfig) -> Simulator {
    let w = ResolvedWorkload::from_image(tiny_image());
    Simulator::try_with_code(cfg, w.code(), w.start_pc(), w.name().to_owned())
        .expect("valid config")
}

#[test]
fn baseline_runs_and_reports() {
    let r = run("Baseline");
    assert_eq!(r.instrs, 120_000);
    assert!(r.cycles > 0);
    let ipc = r.ipc();
    assert!(ipc > 0.1 && ipc <= 3.0, "ipc {ipc}");
    assert!(r.l1i.demand_misses > 0, "workload must thrash the L1i");
    assert!(r.frontend_stalls() > 0);
}

#[test]
fn nl_reduces_misses_vs_baseline() {
    let base = run("Baseline");
    let nl = run("NL");
    assert!(
        nl.miss_coverage_over(&base) > 0.2,
        "NL coverage {}",
        nl.miss_coverage_over(&base)
    );
    assert!(nl.ipc() > base.ipc(), "NL should speed up");
}

#[test]
fn n8l_uses_much_more_bandwidth() {
    let base = run("Baseline");
    let n8 = run("N8L");
    assert!(
        n8.bandwidth_over(&base) > 2.0,
        "N8L bandwidth {}",
        n8.bandwidth_over(&base)
    );
}

#[test]
fn sn4l_issues_less_traffic_than_n4l() {
    let n4 = run("N4L");
    let sn4 = run("SN4L");
    let base = run("Baseline");
    assert!(
        sn4.bandwidth_over(&base) < n4.bandwidth_over(&base),
        "SN4L {} vs N4L {}",
        sn4.bandwidth_over(&base),
        n4.bandwidth_over(&base)
    );
}

#[test]
fn full_system_beats_baseline() {
    let base = run("Baseline");
    let full = run("SN4L+Dis+BTB");
    assert!(
        full.speedup_over(&base) > 1.02,
        "speedup {}",
        full.speedup_over(&base)
    );
    assert!(
        full.fscr_over(&base) > 0.1,
        "fscr {}",
        full.fscr_over(&base)
    );
}

#[test]
fn directed_frontends_run() {
    for m in ["Boomerang", "Shotgun"] {
        let r = run(m);
        assert_eq!(r.instrs, 120_000, "{m}");
        assert!(r.ipc() > 0.1, "{m} ipc {}", r.ipc());
    }
}

#[test]
fn shotgun_reports_split_btb_stats() {
    let r = run("Shotgun");
    let s = r.shotgun_btb.expect("shotgun split-BTB stats");
    assert!(s.u_lookups > 0);
    let e = r.shotgun.expect("shotgun engine stats");
    assert!(e.dyn_uncond > 0, "no unconditional branches retired");
    let fmr = e.footprint_miss_ratio();
    assert!((0.0..=1.0).contains(&fmr), "fmr {fmr}");
}

#[test]
fn perfect_l1i_removes_l1i_stalls() {
    let mut cfg = quick_cfg("Baseline");
    cfg.perfect_l1i = true;
    let r = run_cfg(cfg).report;
    assert_eq!(r.stall_l1i, 0);
    assert_eq!(r.l1i.demand_misses, 0);
    let base = run("Baseline");
    assert!(r.ipc() > base.ipc());
}

#[test]
fn perfect_btb_removes_btb_stalls() {
    let mut cfg = quick_cfg("Baseline");
    cfg.perfect_l1i = true;
    cfg.perfect_btb = true;
    let r = run_cfg(cfg).report;
    assert_eq!(r.stall_btb, 0);
    assert_eq!(r.frontend_stalls(), 0);
}

#[test]
fn deterministic_given_seed() {
    let a = run("SN4L+Dis+BTB");
    let b = run("SN4L+Dis+BTB");
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.l1i.demand_misses, b.l1i.demand_misses);
    assert_eq!(a.external_requests, b.external_requests);
}

#[test]
fn confluence_covers_misses() {
    let base = run("Baseline");
    let conf = run("Confluence");
    assert!(
        conf.miss_coverage_over(&base) > 0.3,
        "coverage {}",
        conf.miss_coverage_over(&base)
    );
}

#[test]
fn prefetch_buffer_mode_absorbs_misses() {
    // The Fig. 5 methodology: NXL prefetches land in a 64-entry
    // buffer instead of the cache; demand misses that hit the
    // buffer are re-credited as hits.
    let mut cfg = quick_cfg("N4L");
    cfg.use_prefetch_buffer = true;
    let buffered = run_cfg(cfg).report;
    let direct = run("N4L");
    // Both configurations must cover misses; the buffered one keeps
    // useless prefetches out of the cache entirely.
    assert!(buffered.l1i_mpki() < run("Baseline").l1i_mpki());
    assert_eq!(direct.method, "N4L");
    assert!(buffered.l1i.useless_prefetch_evictions <= direct.l1i.useless_prefetch_evictions);
}

#[test]
fn variable_isa_simulation_runs_with_dvllc() {
    let params = WorkloadParams {
        functions: 300,
        root_functions: 12,
        ..WorkloadParams::default()
    };
    let image = Arc::new(ProgramImage::build(&params, 9, IsaMode::Variable));
    let mut cfg = quick_cfg("SN4L+Dis+BTB");
    cfg.isa = IsaMode::Variable;
    cfg.uncore.dvllc = true;
    let r = crate::run(&ResolvedWorkload::from_image(image), cfg, 5)
        .expect("valid config")
        .report;
    assert_eq!(r.instrs, 120_000);
    assert!(r.ipc() > 0.1);
}

#[test]
fn exhausted_stream_ends_the_run() {
    let mut cfg = quick_cfg("Baseline");
    cfg.warmup_instrs = 1_000;
    cfg.measure_instrs = u64::MAX; // more than the trace offers
    let mut walker = dcfb_workloads::Walker::new(tiny_image(), 5);
    let trace = dcfb_trace::VecTrace::capture(&mut walker, 5_000);
    let mut sim = tiny_simulator(cfg);
    let mut replay = trace.replay();
    let r = sim.run(&mut replay);
    assert_eq!(r.instrs, 4_000, "measured = total - warmup");
}

#[test]
fn wrong_path_traffic_consumes_bandwidth() {
    // Wrong-path fetches must show up below the L1i but never
    // pollute it: external requests exceed fills.
    let r = run("Baseline");
    assert!(r.stall_redirect > 0, "no mispredicts in test workload?");
    assert!(
        r.external_requests > r.l1i.fills,
        "wrong-path traffic missing: ext {} vs fills {}",
        r.external_requests,
        r.l1i.fills
    );
}

#[test]
fn ipc_never_exceeds_backend_rate_when_frontend_is_perfect() {
    let mut cfg = quick_cfg("Baseline");
    cfg.perfect_l1i = true;
    cfg.perfect_btb = true;
    let r = run_cfg(cfg).report;
    // The decoupled-core model caps sustained IPC at the backend
    // rate (plus redirect effects pulling it below).
    assert!(r.ipc() <= Simulator::BACKEND_IPC + 1e-9, "ipc {}", r.ipc());
}

#[test]
fn telemetry_off_by_default_and_detachable() {
    let mut sim = tiny_simulator(quick_cfg("SN4L"));
    sim.run(&mut dcfb_workloads::Walker::new(tiny_image(), 5));
    assert!(sim.take_telemetry().is_none(), "telemetry must default off");
}

#[test]
fn telemetry_does_not_perturb_the_run() {
    let plain = run("SN4L+Dis+BTB");
    let mut cfg = quick_cfg("SN4L+Dis+BTB");
    cfg.telemetry = true;
    let observed = run_cfg(cfg).report;
    assert_eq!(observed.cycles, plain.cycles);
    assert_eq!(observed.l1i.demand_misses, plain.l1i.demand_misses);
    assert_eq!(observed.external_requests, plain.external_requests);
}

#[test]
fn telemetry_classifies_every_issued_prefetch() {
    let mut cfg = quick_cfg("SN4L+Dis+BTB");
    cfg.telemetry = true;
    let mut sim = tiny_simulator(cfg);
    let r = sim.run(&mut dcfb_workloads::Walker::new(tiny_image(), 5));
    let report = sim.take_telemetry().expect("telemetry enabled");
    report.doc.validate().expect("schema + sum invariant");
    // A second take returns nothing.
    assert!(sim.take_telemetry().is_none());
    // The run context matches the simulation report.
    assert_eq!(report.doc.instrs, r.instrs);
    assert_eq!(report.doc.method, "SN4L+Dis+BTB");
    // Per-source: the four classes account for every issue.
    let mut issued_total = 0;
    for row in &report.doc.timeliness {
        assert_eq!(
            row.accurate + row.late + row.early_evicted + row.useless,
            row.issued,
            "{} classes must sum to issued",
            row.source
        );
        issued_total += row.issued;
    }
    assert!(issued_total > 0, "the full system must issue prefetches");
    // The proactive engine's first-level streams are attributed.
    assert!(
        report
            .doc
            .timeliness
            .iter()
            .any(|t| t.source == "sn4l" && t.accurate > 0),
        "SN4L should land accurate prefetches: {:?}",
        report.doc.timeliness
    );
    // BTB prefetching is on in the full system.
    assert!(
        report.doc.timeliness.iter().any(|t| t.source == "btb_pf"),
        "BTB-prefetch rows missing"
    );
    // Every counter telemetry reports that the simulation report also
    // carries is the same count (no prefetch buffer here, so the
    // report's re-credit leaves the L1i demand misses unchanged).
    assert_eq!(r.buffer_hits, 0);
    for (name, want) in [
        ("demand_accesses", r.l1i.demand_accesses),
        ("demand_hits", r.l1i.demand_hits),
        ("demand_misses", r.l1i.demand_misses),
        ("buffer_hits", r.buffer_hits),
        ("seq_misses", r.seq_misses),
        ("disc_misses", r.disc_misses),
        ("uncovered_misses", r.uncovered_misses),
        ("pf_dropped", r.dropped_prefetches),
        ("pf_late", r.late_prefetches),
        ("stall_l1i_cycles", r.stall_l1i),
        ("stall_btb_cycles", r.stall_btb),
        ("stall_redirect_cycles", r.stall_redirect),
        ("stall_empty_ftq_cycles", r.stall_empty_ftq),
    ] {
        assert_eq!(report.doc.counter(name), Some(want), "{name}");
    }
    assert!(r.late_prefetches > 0 && r.stall_btb > 0 && r.stall_redirect > 0);
    // Issued prefetches are the sum of the timeliness rows' MSHR
    // issues (the BTB prefetch buffer's fills are not MSHR issues).
    let btb_pf_issued: u64 = report
        .doc
        .timeliness
        .iter()
        .filter(|t| t.source == "btb_pf")
        .map(|t| t.issued)
        .sum();
    assert_eq!(
        report.doc.counter("pf_issued"),
        Some(issued_total - btb_pf_issued)
    );
    // Time series covers the measured instructions.
    let series_instrs: u64 = report.doc.series.iter().map(|row| row[2]).sum();
    assert_eq!(series_instrs, r.instrs, "windows must partition the run");
    // Trace export is valid JSON.
    let trace = report.chrome_trace();
    dcfb_telemetry::JsonValue::parse(&trace).expect("valid Chrome trace JSON");
}

#[test]
fn telemetry_tracks_directed_frontend_ftq() {
    let mut cfg = quick_cfg("Boomerang");
    cfg.telemetry = true;
    let crate::Run {
        report: r,
        telemetry,
    } = run_cfg(cfg);
    let report = telemetry.expect("telemetry enabled");
    report.doc.validate().expect("valid doc");
    assert!(r.stall_empty_ftq > 0, "Boomerang must starve its FTQ");
    assert_eq!(
        report.doc.counter("stall_empty_ftq_cycles"),
        Some(r.stall_empty_ftq)
    );
    // FTQ occupancy is only observable on the directed frontend.
    let ftq = report
        .doc
        .histograms
        .iter()
        .find(|h| h.name == "ftq_occupancy")
        .expect("ftq histogram");
    assert!(ftq.count > 0, "directed frontend must sample the FTQ");
    let row = report
        .doc
        .timeliness
        .iter()
        .find(|t| t.source == "boomerang")
        .expect("boomerang prefetches");
    assert_eq!(
        row.accurate + row.late + row.early_evicted + row.useless,
        row.issued
    );
}

#[test]
fn telemetry_buffer_mode_attributes_buffer_hits() {
    let mut cfg = quick_cfg("N4L");
    cfg.use_prefetch_buffer = true;
    cfg.telemetry = true;
    let crate::Run {
        report: r,
        telemetry,
    } = run_cfg(cfg);
    assert!(r.buffer_hits > 0, "buffer must absorb misses");
    let report = telemetry.expect("telemetry enabled");
    report.doc.validate().expect("valid doc");
    assert_eq!(report.doc.counter("buffer_hits"), Some(r.buffer_hits));
    // The report re-credits buffer absorptions as L1i hits; telemetry
    // reports the raw L1i hits and the misses the buffer left over.
    assert_eq!(
        report.doc.counter("demand_hits"),
        Some(r.l1i.demand_hits - r.buffer_hits)
    );
    assert_eq!(
        report.doc.counter("demand_misses"),
        Some(r.l1i.demand_misses)
    );
    assert_eq!(
        report.doc.counter("demand_accesses"),
        Some(r.l1i.demand_accesses)
    );
    let row = report
        .doc
        .timeliness
        .iter()
        .find(|t| t.source == "next_line")
        .expect("next-line prefetches");
    assert!(row.accurate > 0, "buffer hits must count as accurate");
}

#[test]
fn cmal_is_a_sane_fraction() {
    for m in ["NL", "N4L", "SN4L"] {
        let r = run(m);
        let c = r.cmal();
        assert!((0.0..=1.0).contains(&c), "{m} cmal {c}");
        assert!(r.cmal_total > 0.0, "{m} had no prefetched misses");
    }
}

// ---- mock-driver tests: the shared loop in isolation ----

/// Shared observation log for the mock driver (the simulator owns the
/// driver, so the test reads through an `Rc`).
#[derive(Default)]
struct MockLog {
    pumps: Cell<u64>,
    /// Longest consecutive run of `pump` calls (i.e. most pumps the
    /// loop granted within a single stall).
    max_pump_run: Cell<u64>,
    cur_pump_run: Cell<u64>,
    begin_cycles: Cell<u64>,
    end_cycles: Cell<u64>,
}

impl MockLog {
    fn break_pump_run(&self) {
        self.cur_pump_run.set(0);
    }
}

/// A minimal [`FrontendDriver`]: no prefetcher, no branch handling.
/// It injects one `Gate`-side redirect stall, one empty cycle, and one
/// `Consumed`-side BTB stall at fixed points so the test can check the
/// shared loop's stall attribution, retire-clock penalties, and the
/// 16-pumps-per-stall budget.
struct MockDriver {
    log: Rc<MockLog>,
    gate_calls: u64,
    consume_calls: u64,
}

const MOCK_REDIRECT_SPAN: u64 = 40;
const MOCK_BTB_SPAN: u64 = 5;
/// Gate/consume call counts at which the mock injects its events. Every
/// consumed instruction takes at least one gate call, so with a 100-
/// instruction warmup these all land inside the measurement window
/// (where the report's stall counters accumulate).
const MOCK_GATE_STALL_AT: u64 = 200;
const MOCK_CONSUME_STALL_AT: u64 = 300;
const MOCK_END_GROUP_AT: u64 = 305;

impl FrontendDriver for MockDriver {
    fn begin_cycle(&mut self, m: &mut Machine) {
        self.log.break_pump_run();
        self.log.begin_cycles.set(self.log.begin_cycles.get() + 1);
        m.drain_fills::<Prefetcher>(None);
    }

    fn gate(&mut self, m: &mut Machine, _cfg: &SimConfig, _instr: &Instr, dispatched: u32) -> Gate {
        self.log.break_pump_run();
        self.gate_calls += 1;
        match self.gate_calls {
            MOCK_GATE_STALL_AT => Gate::Stall {
                until: m.cycle + MOCK_REDIRECT_SPAN,
                cause: StallKind::Redirect,
            },
            c if c == MOCK_GATE_STALL_AT + 1 => {
                assert_eq!(dispatched, 0, "fresh cycle after a Gate stall");
                Gate::EndCycle
            }
            _ => Gate::Proceed,
        }
    }

    fn after_demand(&mut self, _m: &mut Machine, _block: Block, _outcome: &DemandOutcome) {}

    fn consume(&mut self, m: &mut Machine, _cfg: &SimConfig, _instr: &Instr) -> Consumed {
        self.log.break_pump_run();
        self.consume_calls += 1;
        match self.consume_calls {
            MOCK_CONSUME_STALL_AT => Consumed::Stall {
                until: m.cycle + MOCK_BTB_SPAN,
                cause: StallKind::Btb,
            },
            MOCK_END_GROUP_AT => Consumed::EndGroup,
            _ => Consumed::Continue,
        }
    }

    fn end_cycle(&mut self, _m: &mut Machine) {
        self.log.break_pump_run();
        self.log.end_cycles.set(self.log.end_cycles.get() + 1);
    }

    fn pump(&mut self, m: &mut Machine) {
        let run = self.log.cur_pump_run.get() + 1;
        self.log.cur_pump_run.set(run);
        if run > self.log.max_pump_run.get() {
            self.log.max_pump_run.set(run);
        }
        self.log.pumps.set(self.log.pumps.get() + 1);
        m.drain_fills::<Prefetcher>(None);
    }

    fn sample(&self) -> (Option<u64>, Option<(u64, u64)>) {
        (None, None)
    }

    fn finish_report(&self, _r: &mut SimReport) {}
}

/// Runs the mock driver over 100 warmup + 5 000 measured
/// instructions, with telemetry on or off.
fn run_mock(telemetry: bool) -> (Simulator, SimReport, Rc<MockLog>) {
    let image = tiny_image();
    let mut cfg = quick_cfg("Baseline");
    cfg.warmup_instrs = 100;
    cfg.measure_instrs = 5_000;
    cfg.telemetry = telemetry;
    let log = Rc::new(MockLog::default());
    let driver = Box::new(MockDriver {
        log: Rc::clone(&log),
        gate_calls: 0,
        consume_calls: 0,
    });
    let name = image.params().name.clone();
    let code: Arc<dyn dcfb_trace::CodeMemory + Send + Sync> = Arc::clone(&image) as _;
    let mut sim = Simulator::try_with_driver(cfg, code, name, driver).expect("valid config");
    let mut walker = dcfb_workloads::Walker::new(image, 5);
    let r = sim.run(&mut walker);
    (sim, r, log)
}

#[test]
fn mock_driver_exercises_the_shared_loop() {
    let (_, r, log) = run_mock(false);

    // The loop ran to the instruction target with no real frontend.
    assert_eq!(r.instrs, 5_000);
    // Stall attribution comes straight from the driver's decisions:
    // the mock is the only source of redirect and BTB stalls.
    assert_eq!(r.stall_redirect, MOCK_REDIRECT_SPAN);
    assert_eq!(r.stall_btb, MOCK_BTB_SPAN);
    assert!(r.stall_l1i > 0, "demand misses still stall the loop");
    // Redirect/BTB stalls restart the backend: both spans must be
    // visible in the retire-clock execution time, which can otherwise
    // not beat the backend rate.
    let floor = (5_000.0 / Simulator::BACKEND_IPC) as u64 + MOCK_REDIRECT_SPAN + MOCK_BTB_SPAN;
    assert!(r.cycles >= floor, "cycles {} < floor {floor}", r.cycles);
    // The pump budget: at most 16 pumps per stall, and the 40-cycle
    // redirect stall must have been granted exactly 16.
    assert_eq!(log.max_pump_run.get(), 16);
    assert!(log.pumps.get() >= 16 + MOCK_BTB_SPAN);
    // begin/end pair up only on cycles that did not end in a stall.
    assert!(log.begin_cycles.get() > log.end_cycles.get());
    assert!(
        log.end_cycles.get() > 0,
        "EndCycle path must complete cycles"
    );
}

#[test]
fn telemetry_counts_each_driver_stall_once() {
    // The mock injects exactly one redirect and one BTB stall in the
    // measured window: the document's stall counters are the loop's
    // own statistics, and each stall is one trace span.
    let (mut sim, r, _) = run_mock(true);
    let report = sim.take_telemetry().expect("telemetry enabled");
    let doc = &report.doc;
    assert_eq!(doc.counter("stall_redirect_events"), Some(1));
    assert_eq!(
        doc.counter("stall_redirect_cycles"),
        Some(MOCK_REDIRECT_SPAN)
    );
    assert_eq!(doc.counter("stall_btb_events"), Some(1));
    assert_eq!(doc.counter("stall_btb_cycles"), Some(MOCK_BTB_SPAN));
    assert_eq!(doc.counter("stall_l1i_cycles"), Some(r.stall_l1i));
    let spans = |name: &str| report.events.iter().filter(|e| e.name == name).count() as u64;
    assert_eq!(spans("redirect_stall"), 1);
    assert_eq!(spans("btb_stall"), 1);
    assert_eq!(Some(spans("l1i_stall")), doc.counter("stall_l1i_events"));
    // The run itself is the telemetry-off run.
    assert_eq!(r.cycles, run_mock(false).1.cycles);
}

/// The branch store against the uncached pre-decoder it replaces, for
/// every block in `blocks` of `code` under `isa`:
///
/// * the store-served pre-decode equals `Predecoder::decode` — on
///   Fixed4 with no footprint, on a variable-length ISA first with no
///   DV-LLC footprint and then with the footprint a fill deposits;
/// * Dis replay (`decode_branch_at`) equals `Predecoder::decode_at` at
///   every byte offset.
///
/// Returns `(branches replayed, blocks checked with a footprint)`.
fn assert_store_matches_predecoder(
    label: &str,
    isa: IsaMode,
    code: Arc<dyn dcfb_trace::CodeMemory + Send + Sync>,
    blocks: &[Block],
) -> (usize, usize) {
    use dcfb_cache::BranchFootprint;
    use dcfb_frontend::Predecoder;
    use dcfb_prefetch::PrefetchContext;
    let mut cfg = SimConfig::for_method("SN4L+Dis+BTB").expect("method");
    cfg.isa = isa;
    cfg.uncore.dvllc = isa == IsaMode::Variable;
    let mut m = Machine::new(&cfg, Arc::clone(&code), label.to_string());
    let mut reference = Predecoder::new(isa);
    let mut replay_reference = Predecoder::new(isa);
    let mut predecode_checked = |m: &mut Machine, block: Block| {
        // Peek the footprint the machine's own lookup will find.
        let bf = m.uncore.dvllc_mut().and_then(|dv| dv.bf_lookup(block));
        let span = m.predecode_span(block, code.block_slot(block));
        assert_eq!(
            m.branches.get(span),
            reference.decode(&code, block, bf.as_ref()).branches,
            "{label}: predecode of block {block:#x} (footprint {bf:?})"
        );
        bf.is_some()
    };
    let (mut branches, mut with_footprint) = (0, 0);
    for &block in blocks {
        predecode_checked(&mut m, block);
        if isa == IsaMode::Variable {
            // Deposit the footprint as an L1i fill does: the block
            // enters the DV-LLC (switching its set to BF-holder mode),
            // then its footprint goes in beside it.
            let (bf, _) = BranchFootprint::from_block(&code.instrs_in_block(block));
            assert_eq!(m.footprint_of(block), bf, "{label}: footprint {block:#x}");
            let now = m.cycle;
            let _ = m.uncore.access(now, block, false, true);
            if let Some(dv) = m.uncore.dvllc_mut() {
                dv.insert_bf(block, bf);
            }
            with_footprint += usize::from(predecode_checked(&mut m, block));
        }
        for off in 0..64 {
            let replayed = m.decode_branch_at(block, off);
            assert_eq!(
                replayed,
                replay_reference.decode_at(&code, block, off),
                "{label}: block {block:#x} offset {off}"
            );
            branches += usize::from(replayed.is_some());
        }
    }
    (branches, with_footprint)
}

/// Every block of each tenant's image, rebased as a `mix:` source
/// rebases it (tenant `i` by `i * TENANT_STRIDE`), plus one block of
/// margin on each side (decodes to nothing).
fn tenant_blocks(tenants: &[&str], isa: IsaMode) -> Vec<Block> {
    use dcfb_trace::block_of;
    use dcfb_workloads::image::IMAGE_BASE;
    let mut blocks = Vec::new();
    for (i, name) in tenants.iter().enumerate() {
        let image = dcfb_workloads::workload(name)
            .expect("catalog workload")
            .image(isa);
        let offset = i as u64 * dcfb_workloads::TENANT_STRIDE;
        blocks.extend(block_of(IMAGE_BASE + offset) - 1..=block_of(image.end() + offset));
    }
    blocks
}

/// Runs the store check over a resolved workload source on both ISAs.
fn assert_source_matches_predecoder(source: &str, tenants: &[&str]) {
    for isa in [IsaMode::Fixed4, IsaMode::Variable] {
        let resolved = dcfb_workloads::resolve_workload(source, isa).expect("workload");
        let blocks = tenant_blocks(tenants, isa);
        let (branches, with_fp) =
            assert_store_matches_predecoder(source, isa, resolved.code(), &blocks);
        assert!(
            branches > 1_000,
            "{source} {isa:?}: only {branches} branches"
        );
        if isa == IsaMode::Variable {
            assert!(with_fp > 1_000, "{source}: only {with_fp} footprints");
        }
    }
}

#[test]
fn cached_dis_replay_matches_predecoder_on_catalog_image() {
    assert_source_matches_predecoder("Web Frontend", &["Web Frontend"]);
}

#[test]
fn cached_dis_replay_matches_predecoder_on_mix() {
    assert_source_matches_predecoder(
        "mix:Web Frontend+Web Search",
        &["Web Frontend", "Web Search"],
    );
}

/// A `RecordedCode` reconstructed from a walked trace: every recorded
/// block plus its unrecorded neighbours (no slot, decode empty).
#[test]
fn cached_dis_replay_matches_predecoder_on_recorded_trace() {
    use dcfb_trace::{InstrStream, RecordedCode};
    for isa in [IsaMode::Fixed4, IsaMode::Variable] {
        let image = dcfb_workloads::workload("Web Frontend")
            .expect("catalog workload")
            .image(isa);
        let mut walker = dcfb_workloads::Walker::new(image, 7);
        let trace: Vec<Instr> = (0..200_000).filter_map(|_| walker.next_instr()).collect();
        let mut blocks: Vec<Block> = trace
            .iter()
            .flat_map(|i| [i.block() - 1, i.block(), i.block() + 1])
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        let code = Arc::new(RecordedCode::from_trace(&trace));
        let (branches, with_fp) = assert_store_matches_predecoder("trace", isa, code, &blocks);
        assert!(branches > 500, "{isa:?}: only {branches} branches");
        if isa == IsaMode::Variable {
            assert!(with_fp > 500, "only {with_fp} footprints");
        }
    }
}

/// A prefetch of a block past the image's end has no slot: its CMAL
/// latency and timeliness record live in the side tables' fallback
/// maps, and the prefetch is still classified (here: used, so
/// accurate; a second one, never demanded, ends useless).
#[test]
fn prefetch_past_the_image_end_is_tracked_and_classified() {
    use dcfb_telemetry::{CycleSample, PfSource, RunMeta, SlotKey};
    let image = tiny_image();
    let mut cfg = quick_cfg("NL");
    cfg.telemetry = true;
    let mut m = Machine::new(&cfg, Arc::clone(&image) as _, "past-end".into());
    let past = dcfb_trace::block_of(image.end()) + 2;
    assert_eq!(dcfb_trace::CodeMemory::block_slot(&*image, past), None);
    for block in [past, past + 1] {
        assert!(m.request_below(block, PfSource::NextLine, 0).is_some());
    }
    while !m.l1i.contains(past) {
        m.cycle += 1;
        m.drain_fills::<Prefetcher>(None);
    }
    assert!(m.cmal_latency.get(SlotKey::Block(past)).is_some());
    let outcome = m.demand(past);
    assert!(matches!(
        outcome,
        DemandOutcome::Hit {
            was_prefetched: true
        }
    ));
    assert_eq!(m.cmal_latency.get(SlotKey::Block(past)), None);
    assert!(m.stats.cmal_covered > 0.0);
    let telem = m.telem.take().expect("telemetry on");
    let doc = telem
        .finalize(&RunMeta::default(), &CycleSample::default())
        .doc;
    doc.validate().expect("four classes sum to issued");
    let row = doc.timeliness.iter().find(|r| r.source == "next_line");
    let row = row.expect("next_line row");
    assert_eq!((row.issued, row.accurate, row.useless), (2, 1, 1));
}
