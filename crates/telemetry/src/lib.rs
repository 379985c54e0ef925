//! `dcfb-telemetry` — zero-overhead-when-off observability for the
//! DCFB simulator.
//!
//! The subsystem has four layers:
//!
//! 1. **Primitives** — log2-bucketed fixed-size [`Log2Histogram`]s
//!    and a bounded flight-recorder [`WindowSeries`] of per-window
//!    samples. Neither allocates on the hot path. The document's
//!    scalar counters ([`Ctr`]) are not recorded here: they are the
//!    simulator's own statistics ([`RunCounts`]), read once when the
//!    run is finalized.
//! 2. **Classification** — [`TimelinessTracker`] implements the
//!    FDIP-Revisited prefetch-timeliness taxonomy: every issued
//!    prefetch ends up in exactly one of *accurate*, *late*,
//!    *early-evicted*, or *useless*, so the four classes always sum to
//!    the number issued (see `timeliness` module docs for the state
//!    machine).
//! 3. **Recording** — [`RunTelemetry`] owns one run's primitives and
//!    exposes the event vocabulary the simulator calls into. The
//!    engine holds it as `Option<Box<RunTelemetry>>`: when telemetry
//!    is off the option is `None` and every instrumentation site is a
//!    single never-taken branch.
//! 4. **Export** — [`MetricsDoc`] (versioned JSON schema
//!    [`METRICS_SCHEMA`], round-trips through [`MetricsDoc::to_json`]
//!    / [`MetricsDoc::from_json`]), CSV time-series
//!    ([`MetricsDoc::to_csv`]), and Chrome trace-event JSON
//!    ([`chrome_trace_json`]) loadable in `chrome://tracing` or
//!    Perfetto.

pub mod counters;
pub mod doc;
pub mod hist;
pub mod json;
pub mod series;
pub mod slot_table;
pub mod source;
pub mod timeliness;
pub mod trace_event;

mod recorder;

pub use counters::{Ctr, RunCounts, StallKind};
pub use doc::{HistDump, MetricsDoc, TimelinessRow, METRICS_SCHEMA, SERIES_COLUMNS};
pub use hist::{Hist, HistSet, Log2Histogram};
pub use json::JsonValue;
pub use recorder::{CycleSample, RunMeta, RunTelemetry, TelemetryReport, SAMPLE_EVERY};
pub use series::{WindowSample, WindowSeries};
pub use slot_table::{SlotKey, SlotTable};
pub use source::PfSource;
pub use timeliness::{TimelinessCounts, TimelinessTracker};
pub use trace_event::{chrome_trace_json, TraceEvent};
