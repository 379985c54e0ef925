//! `RunTelemetry`: one run's recording state and the engine-facing
//! event vocabulary.
//!
//! The simulator holds `Option<Box<RunTelemetry>>`; with telemetry
//! off the option is `None` and every instrumentation site reduces to
//! one never-taken branch.
//!
//! The recorder counts nothing the machine already counts: the
//! document's scalar counters are the machine's own statistics, handed
//! over in [`RunMeta::counts`] when the run is finalized. What it adds
//! is the prefetch-timeliness taxonomy, the histograms, the window
//! series and the trace events.

use crate::counters::{RunCounts, StallKind};
use crate::doc::{HistDump, MetricsDoc, TimelinessRow, METRICS_SCHEMA, SERIES_COLUMNS};
use crate::hist::{Hist, HistSet};
use crate::series::{WindowSample, WindowSeries};
use crate::slot_table::SlotKey;
use crate::source::PfSource;
use crate::timeliness::{TimelinessCounts, TimelinessTracker};
use crate::trace_event::{chrome_trace_json, TraceEvent};

/// Nominal time-series window width in cycles.
const WINDOW_CYCLES: u64 = 1024;
/// Maximum retained windows before pairwise coalescing.
const SERIES_CAPACITY: usize = 512;
/// Maximum retained trace events; overflow increments
/// [`Ctr::TraceEventsDropped`](crate::Ctr::TraceEventsDropped).
const MAX_TRACE_EVENTS: usize = 50_000;
/// Early-evicted FIFO window size (per tracker).
const EVICTED_WINDOW: usize = 4096;

/// Occupancy sampling stride: the per-cycle sampler calls
/// [`RunTelemetry::tick`] once every `SAMPLE_EVERY` cycles, and the
/// recorder weights each observation by the stride so histogram counts
/// and occupancy sums still estimate per-cycle totals. Window series
/// stay *exact* regardless (they difference cumulative counters at
/// window boundaries, which telescope), as do timeliness events and
/// stall spans, which are recorded per-event, not per-cycle.
pub const SAMPLE_EVERY: u64 = 16;

/// Cumulative pipeline state sampled once per simulated cycle.
/// All fields except the occupancies are running totals; the recorder
/// differences them at window boundaries.
#[derive(Clone, Copy, Debug, Default)]
pub struct CycleSample {
    /// Current cycle.
    pub cycle: u64,
    /// Instructions fetched so far.
    pub instrs: u64,
    /// L1i demand misses so far.
    pub demand_misses: u64,
    /// Prefetches that allocated an MSHR so far.
    pub pf_issued: u64,
    /// BTB lookups so far.
    pub btb_lookups: u64,
    /// BTB hits so far.
    pub btb_hits: u64,
    /// RLU lookups so far (0 when the method has no RLU).
    pub rlu_lookups: u64,
    /// RLU hits so far.
    pub rlu_hits: u64,
    /// FTQ occupancy this cycle; `None` on the conventional frontend.
    pub ftq_occupancy: Option<u64>,
    /// MSHR occupancy this cycle.
    pub mshr_occupancy: u64,
}

/// Identity and totals of the finished run, supplied at
/// [`RunTelemetry::finalize`] time.
#[derive(Clone, Debug, Default)]
pub struct RunMeta {
    /// Workload name.
    pub workload: String,
    /// Prefetch method name.
    pub method: String,
    /// Measured cycles.
    pub cycles: u64,
    /// Measured instructions.
    pub instrs: u64,
    /// The measured window's machine statistics, reported as the
    /// document's counters.
    pub counts: RunCounts,
}

/// Everything a finished run exports.
#[derive(Clone, Debug)]
pub struct TelemetryReport {
    /// The structured metrics document.
    pub doc: MetricsDoc,
    /// Raw trace events (render with
    /// [`TelemetryReport::chrome_trace`]).
    pub events: Vec<TraceEvent>,
}

impl TelemetryReport {
    /// The Chrome trace-event JSON for this run.
    pub fn chrome_trace(&self) -> String {
        chrome_trace_json(&self.events)
    }
}

/// Recording state for one simulated run.
#[derive(Clone, Debug)]
pub struct RunTelemetry {
    hists: HistSet,
    /// MSHR-mediated (L1i) prefetches, keyed by cache block.
    timeliness: TimelinessTracker,
    /// BTB prefetch-buffer fills — a separate tracker because its
    /// block keyspace overlaps the L1i one but means something else.
    btbpf: TimelinessTracker,
    series: WindowSeries,
    started: bool,
    window_start: u64,
    /// The sample that opened the current window.
    snap: CycleSample,
    ftq_occ_sum: u64,
    ftq_samples: u64,
    events: Vec<TraceEvent>,
    dropped_events: u64,
    /// Cycles counted by [`RunTelemetry::sample_due`] since the last
    /// sampled one.
    phase: u64,
}

impl Default for RunTelemetry {
    fn default() -> Self {
        RunTelemetry::new()
    }
}

impl RunTelemetry {
    /// A fresh recorder.
    pub fn new() -> RunTelemetry {
        RunTelemetry {
            hists: HistSet::new(),
            timeliness: TimelinessTracker::new(EVICTED_WINDOW),
            btbpf: TimelinessTracker::new(EVICTED_WINDOW),
            series: WindowSeries::new(WINDOW_CYCLES, SERIES_CAPACITY),
            started: false,
            window_start: 0,
            snap: CycleSample::default(),
            ftq_occ_sum: 0,
            ftq_samples: 0,
            events: Vec::new(),
            dropped_events: 0,
            phase: SAMPLE_EVERY - 1,
        }
    }

    /// Counts one simulated cycle and returns whether it is sampled:
    /// the first cycle after construction or [`reset`](Self::reset),
    /// then every [`SAMPLE_EVERY`]th. The simulator calls this once per
    /// cycle, including cycles it skips in bulk, and calls
    /// [`tick`](Self::tick) with that cycle's sample when it says so.
    #[inline]
    pub fn sample_due(&mut self) -> bool {
        self.phase += 1;
        if self.phase < SAMPLE_EVERY {
            return false;
        }
        self.phase = 0;
        true
    }

    /// Sampled-cycle observation: occupancy histograms plus window
    /// rollover. Call once every [`SAMPLE_EVERY`] cycles; each
    /// observation is weighted by the stride.
    pub fn tick(&mut self, s: &CycleSample) {
        let weight = SAMPLE_EVERY;
        if let Some(occ) = s.ftq_occupancy {
            self.hists.record_n(Hist::FtqOccupancy, occ, weight);
            self.ftq_occ_sum += occ * weight;
            self.ftq_samples += weight;
        }
        self.hists
            .record_n(Hist::MshrOccupancy, s.mshr_occupancy, weight);
        if !self.started {
            self.started = true;
            self.window_start = s.cycle;
            self.snap = *s;
            return;
        }
        if s.cycle.saturating_sub(self.window_start) >= self.series.window_cycles() {
            self.close_window(s);
        }
    }

    fn close_window(&mut self, s: &CycleSample) {
        let w = WindowSample {
            start_cycle: self.window_start,
            cycles: s.cycle - self.window_start,
            instrs: s.instrs.saturating_sub(self.snap.instrs),
            demand_misses: s.demand_misses.saturating_sub(self.snap.demand_misses),
            pf_issued: s.pf_issued.saturating_sub(self.snap.pf_issued),
            btb_lookups: s.btb_lookups.saturating_sub(self.snap.btb_lookups),
            btb_hits: s.btb_hits.saturating_sub(self.snap.btb_hits),
            rlu_lookups: s.rlu_lookups.saturating_sub(self.snap.rlu_lookups),
            rlu_hits: s.rlu_hits.saturating_sub(self.snap.rlu_hits),
            ftq_occ_sum: self.ftq_occ_sum,
            ftq_samples: self.ftq_samples,
        };
        self.push_event(TraceEvent::counter(
            "window",
            self.window_start,
            vec![
                ("instrs", w.instrs),
                ("demand_misses", w.demand_misses),
                ("pf_issued", w.pf_issued),
            ],
        ));
        self.series.push(w);
        self.window_start = s.cycle;
        self.snap = *s;
        self.ftq_occ_sum = 0;
        self.ftq_samples = 0;
    }

    fn push_event(&mut self, e: TraceEvent) {
        if self.events.len() < MAX_TRACE_EVENTS {
            self.events.push(e);
        } else {
            self.dropped_events += 1;
        }
    }

    // --- L1i prefetch lifecycle -------------------------------------

    /// A prefetch for `block` allocated an MSHR.
    #[inline]
    pub fn pf_issued(&mut self, block: SlotKey, source: PfSource) {
        self.timeliness.issue(block, source);
    }

    /// A demand request merged onto the in-flight prefetch of `block`.
    #[inline]
    pub fn pf_late(&mut self, block: SlotKey) {
        self.timeliness.late(block);
    }

    /// The prefetch of `block` filled (L1i or prefetch buffer) with
    /// no demand waiting; `latency` is issue-to-fill cycles.
    #[inline]
    pub fn pf_fill(&mut self, block: SlotKey, latency: u64) {
        self.hists.record(Hist::PrefetchLatency, latency);
        self.timeliness.fill(block);
    }

    /// A demand fetch hit the still-unused prefetched `block`.
    #[inline]
    pub fn pf_hit(&mut self, block: SlotKey) {
        self.timeliness.hit(block);
    }

    /// The unused prefetched `block` was evicted.
    #[inline]
    pub fn pf_evict_unused(&mut self, block: SlotKey) {
        self.timeliness.evict_unused(block);
    }

    /// A demand miss on `block` (checks the early-evicted window).
    #[inline]
    pub fn pf_demand_miss(&mut self, block: SlotKey) {
        self.timeliness.demand_miss(block);
    }

    // --- BTB prefetch-buffer lifecycle ------------------------------

    /// A pre-decoded branch set for `block` was staged into the BTB
    /// prefetch buffer; `evicted` is the displaced block, if any. The
    /// fill is immediate, so the record starts out resident.
    #[inline]
    pub fn btbpf_fill(&mut self, block: SlotKey, evicted: Option<SlotKey>) {
        self.btbpf.issue_resident(block, PfSource::BtbPf);
        if let Some(ev) = evicted {
            self.btbpf.evict_unused(ev);
        }
    }

    /// A BTB miss was served from the prefetch buffer.
    #[inline]
    pub fn btbpf_hit(&mut self, block: SlotKey) {
        self.btbpf.hit(block);
    }

    /// A BTB miss on `block` missed the prefetch buffer too.
    #[inline]
    pub fn btbpf_demand_miss(&mut self, block: SlotKey) {
        self.btbpf.demand_miss(block);
    }

    // --- Generic recording ------------------------------------------

    /// Records `value` into histogram `h`.
    #[inline]
    pub fn observe(&mut self, h: Hist, value: u64) {
        self.hists.record(h, value);
    }

    /// Records a stall of `kind` spanning `[from, to)` cycles as a
    /// trace span, one thread id per kind.
    pub fn stall(&mut self, kind: StallKind, from: u64, to: u64) {
        let tid = kind as u32 + 1;
        self.push_event(TraceEvent::span(
            kind.name(),
            from,
            to.saturating_sub(from),
            tid,
        ));
    }

    /// Discards everything recorded so far (measurement-window
    /// reset). Prefetches in flight across the reset are forgotten,
    /// keeping the timeliness sum invariant intact.
    pub fn reset(&mut self) {
        self.hists.reset();
        self.timeliness.reset();
        self.btbpf.reset();
        self.series.reset();
        self.started = false;
        self.window_start = 0;
        self.snap = CycleSample::default();
        self.ftq_occ_sum = 0;
        self.ftq_samples = 0;
        self.events.clear();
        self.dropped_events = 0;
        // The first cycle of the new window is sampled, so its first
        // tick re-snaps the cumulative counters at the window start.
        self.phase = SAMPLE_EVERY - 1;
    }

    /// Combined timeliness tallies for `source` (L1i + BTB trackers).
    pub fn timeliness_counts(&self, source: PfSource) -> TimelinessCounts {
        let a = self.timeliness.counts(source);
        let b = self.btbpf.counts(source);
        TimelinessCounts {
            issued: a.issued + b.issued,
            accurate: a.accurate + b.accurate,
            late: a.late + b.late,
            early_evicted: a.early_evicted + b.early_evicted,
            useless: a.useless + b.useless,
        }
    }

    /// Closes the run: flushes the partial window, finalizes
    /// timeliness, and builds the export document.
    pub fn finalize(mut self, meta: &RunMeta, final_sample: &CycleSample) -> TelemetryReport {
        if self.started && final_sample.cycle > self.window_start {
            self.close_window(final_sample);
        }
        self.timeliness.finalize();
        self.btbpf.finalize();

        let histograms = Hist::ALL
            .iter()
            .map(|h| {
                let hist = self.hists.get(*h);
                HistDump {
                    name: h.name().to_owned(),
                    count: hist.count(),
                    sum: hist.sum(),
                    buckets: hist.sparse(),
                }
            })
            .collect();

        let timeliness = PfSource::ALL
            .iter()
            .filter(|s| s.is_prefetch())
            .map(|s| (s, self.timeliness_counts(*s)))
            .filter(|(_, c)| c.issued > 0 || c.classified() > 0)
            .map(|(s, c)| TimelinessRow {
                source: s.name().to_owned(),
                issued: c.issued,
                accurate: c.accurate,
                late: c.late,
                early_evicted: c.early_evicted,
                useless: c.useless,
            })
            .collect();

        let series = self
            .series
            .windows()
            .iter()
            .map(|w| {
                let row = vec![
                    w.start_cycle,
                    w.cycles,
                    w.instrs,
                    w.demand_misses,
                    w.pf_issued,
                    w.btb_lookups,
                    w.btb_hits,
                    w.rlu_lookups,
                    w.rlu_hits,
                    w.ftq_occ_sum,
                    w.ftq_samples,
                ];
                debug_assert_eq!(row.len(), SERIES_COLUMNS.len());
                row
            })
            .collect();

        let doc = MetricsDoc {
            schema: METRICS_SCHEMA.to_owned(),
            workload: meta.workload.clone(),
            method: meta.method.clone(),
            cycles: meta.cycles,
            instrs: meta.instrs,
            counters: meta.counts.dump(self.dropped_events),
            histograms,
            timeliness,
            window_cycles: self.series.window_cycles(),
            series,
        };
        TelemetryReport {
            doc,
            events: self.events,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    /// Even blocks hold a slot; odd ones exercise the fallback map.
    fn k(block: u64) -> SlotKey {
        SlotKey::new(block, block.is_multiple_of(2).then_some(block as usize / 2))
    }

    fn sample(cycle: u64, instrs: u64) -> CycleSample {
        CycleSample {
            cycle,
            instrs,
            ftq_occupancy: Some(instrs % 8),
            ..CycleSample::default()
        }
    }

    fn finalize(rt: RunTelemetry, cycle: u64, instrs: u64, counts: RunCounts) -> TelemetryReport {
        let meta = RunMeta {
            workload: "synthetic".to_owned(),
            method: "SN4L+Dis+BTB".to_owned(),
            cycles: cycle,
            instrs,
            counts,
        };
        rt.finalize(&meta, &sample(cycle, instrs))
    }

    #[test]
    fn windows_roll_and_doc_validates() {
        // Ten windows' worth of cycles.
        let cycles = 10 * WINDOW_CYCLES;
        let mut rt = RunTelemetry::new();
        for c in 0..cycles {
            rt.tick(&sample(c, c * 2));
        }
        rt.pf_issued(k(5), PfSource::Sn4l);
        rt.pf_fill(k(5), 20);
        rt.pf_hit(k(5));
        rt.stall(StallKind::L1i, 50, 80);
        let counts = RunCounts {
            stall_events: [1, 0, 0],
            stall_cycles: [30, 0, 0],
            ..RunCounts::default()
        };
        let report = finalize(rt, cycles, 2 * cycles, counts);
        report.doc.validate().expect("valid doc");
        assert!(report.doc.series.len() >= 9);
        let total_instrs: u64 = report.doc.series.iter().map(|r| r[2]).sum();
        assert_eq!(total_instrs, 2 * cycles);
        // Counters are the machine's statistics, passed through.
        assert_eq!(report.doc.counter("stall_l1i_cycles"), Some(30));
        assert_eq!(report.doc.counter("stall_l1i_events"), Some(1));
        // The stall itself is a span on the L1i lane.
        assert!(report
            .events
            .iter()
            .any(|e| (e.name, e.ph, e.ts, e.dur, e.tid) == ("l1i_stall", 'X', 50, 30, 1)));
        let row = &report.doc.timeliness[0];
        assert_eq!(row.source, "sn4l");
        assert_eq!((row.issued, row.accurate), (1, 1));
    }

    #[test]
    fn sum_invariant_after_messy_run() {
        let mut rt = RunTelemetry::new();
        // accurate, late, early-evicted, useless, in-flight-at-end.
        rt.pf_issued(k(1), PfSource::Sn4l);
        rt.pf_fill(k(1), 10);
        rt.pf_hit(k(1));
        rt.pf_issued(k(2), PfSource::Dis);
        rt.pf_late(k(2));
        rt.pf_issued(k(3), PfSource::ProactiveChain);
        rt.pf_fill(k(3), 10);
        rt.pf_evict_unused(k(3));
        rt.pf_demand_miss(k(3));
        rt.pf_issued(k(4), PfSource::Sn4l);
        rt.pf_fill(k(4), 10);
        rt.pf_evict_unused(k(4));
        rt.pf_issued(k(5), PfSource::Dis); // still in flight
        rt.btbpf_fill(k(100), None);
        rt.btbpf_hit(k(100));
        rt.btbpf_fill(k(101), Some(k(102)));
        let report = finalize(rt, 10, 10, RunCounts::default());
        report.doc.validate().expect("sum invariant");
        let issued: u64 = report.doc.timeliness.iter().map(|t| t.issued).sum();
        assert_eq!(issued, 7);
        let btb = report
            .doc
            .timeliness
            .iter()
            .find(|t| t.source == "btb_pf")
            .expect("btb_pf row");
        assert_eq!(btb.issued, 2);
        assert_eq!(btb.accurate, 1);
    }

    #[test]
    fn reset_clears_state() {
        let mut rt = RunTelemetry::new();
        for c in 0..5000 {
            rt.tick(&sample(c, c));
        }
        rt.pf_issued(k(1), PfSource::Sn4l);
        rt.stall(StallKind::Btb, 1, 4);
        rt.reset();
        let report = finalize(rt, 10, 0, RunCounts::default());
        assert!(report.doc.timeliness.is_empty());
        assert!(report.events.iter().all(|e| e.name != "btb_stall"));
        assert!(report.events.is_empty() || report.events.len() == 1);
    }

    #[test]
    fn event_cap_counts_drops() {
        let mut rt = RunTelemetry::new();
        for i in 0..MAX_TRACE_EVENTS as u64 + 3 {
            rt.stall(StallKind::Redirect, i * 10, i * 10 + 3);
        }
        let report = finalize(rt, 100, 0, RunCounts::default());
        assert_eq!(report.events.len(), MAX_TRACE_EVENTS);
        assert_eq!(report.doc.counter("trace_events_dropped"), Some(3));
        // Trace is still valid JSON with sorted timestamps.
        let text = report.chrome_trace();
        crate::json::JsonValue::parse(&text).expect("valid trace JSON");
    }
}
