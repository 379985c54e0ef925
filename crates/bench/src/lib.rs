//! # dcfb-bench
//!
//! The experiment harness behind the one batch binary,
//! `all_experiments`, which regenerates the paper's tables and figures
//! and emits `EXPERIMENTS.md`-ready markdown.
//!
//! Figures are data ([`figures`]): a simulated figure declares its run
//! specs and renders its table from their reports. The batch gathers
//! every selected figure's specs, drops duplicates by their typed key
//! (workload, [`dcfb_sim::SimConfig`]) and runs each distinct spec once
//! on the worker pool ([`runs`], [`sweep`]), so figures that read the
//! same run share it. Simulator throughput is measured by the
//! repository benchmark (`perfbench/`), not here.
//!
//! Run scale is read once, into a [`Scale`], so CI can be quick and a
//! full reproduction can be thorough:
//!
//! * `DCFB_WARMUP` — warmup instructions per run (default 1,000,000),
//! * `DCFB_MEASURE` — measured instructions per run (default 2,000,000),
//! * `DCFB_WORKLOADS` — restrict to the first N workloads (default all 7),
//! * `DCFB_JOBS` — worker threads (default = available parallelism;
//!   1 forces the sequential path). Results are merged in item order,
//!   so the output is byte-identical for every job count.
//!
//! A value that is not an unsigned integer is an error.

pub mod figures;
pub mod runs;
pub mod sweep;
pub mod table;

pub use runs::{RunSpec, Scale};
pub use table::Table;
