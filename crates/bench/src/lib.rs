//! # dcfb-bench
//!
//! The experiment harness: one generator per table and figure of the
//! paper, shared by the `fig*`/`tab*` binaries and by
//! `all_experiments`, which regenerates everything and emits
//! `EXPERIMENTS.md`-ready markdown. The figure sweeps share one worker
//! pool ([`sweep`]).
//! Simulator throughput is measured by the repository benchmark
//! (`perfbench/`), not here.
//!
//! Run scale is controlled by environment variables so CI can be quick
//! and a full reproduction can be thorough:
//!
//! * `DCFB_WARMUP` — warmup instructions per run (default 1,000,000),
//! * `DCFB_MEASURE` — measured instructions per run (default 2,000,000),
//! * `DCFB_WORKLOADS` — restrict to the first N workloads (default all 7),
//! * `DCFB_JOBS` — worker threads for the parallel sweep (default =
//!   available parallelism; 1 forces the sequential path). Results are
//!   merged in item order, so the output is byte-identical for every
//!   job count.

pub mod figures;
pub mod runs;
pub mod sweep;
pub mod table;

pub use runs::{measure_instrs, warmup_instrs, workloads};
pub use table::Table;
