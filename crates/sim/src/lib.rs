//! # dcfb-sim
//!
//! The cycle-approximate, trace-driven frontend simulator used to
//! reproduce every experiment in "Divide and Conquer Frontend
//! Bottleneck" (ISCA 2020).
//!
//! The simulator models one core of the paper's 16-core CMP (Table III):
//! a 3-wide frontend fed by a 32 KB L1i (4-cycle load-to-use, 2 ports,
//! 32 MSHRs), a 2 K-entry BTB with TAGE direction prediction and a RAS,
//! an FTQ-decoupled fetch engine for the BTB-directed prefetchers, and
//! the shared-LLC/NoC/memory model of `dcfb-uncore`. The backend is
//! idealized (the paper's metrics are all frontend-bound); wrong-path
//! effects appear as redirect penalties plus bounded wrong-path fetch
//! traffic.
//!
//! Two frontend drivers share the machine (see [`machine`]):
//!
//! * the conventional decoupled frontend used by the baseline, the
//!   sequential/discontinuity prefetchers, SN4L+Dis+BTB, Confluence,
//!   and registry compositions of them;
//! * the BTB-directed driver that runs Boomerang or Shotgun ahead of
//!   fetch through the FTQ.
//!
//! Both implement the `machine::FrontendDriver` trait, so the per-cycle
//! loop is written once; methods are constructed through the
//! `dcfb-prefetch` method registry.
//!
//! [`analysis`] hosts the timing-free trace analyses behind Figs. 2 and
//! 6–9; [`experiment`] packages warmup + measurement + baselines for
//! the figure/table binaries in `dcfb-bench`.

//! # Examples
//!
//! Run the paper's prefetcher against the baseline on a small custom
//! workload:
//!
//! ```
//! use dcfb_sim::{run_workload, SimConfig};
//! use dcfb_workloads::{Workload, WorkloadParams};
//!
//! let workload = Workload {
//!     name: "demo",
//!     params: WorkloadParams {
//!         name: "demo".to_owned(),
//!         functions: 120,
//!         root_functions: 8,
//!         ..WorkloadParams::default()
//!     },
//!     image_seed: 1,
//! };
//! let mut cfg = SimConfig::for_method("SN4L+Dis+BTB").unwrap();
//! cfg.warmup_instrs = 10_000;
//! cfg.measure_instrs = 20_000;
//! let result = run_workload(&workload, cfg, 42);
//! assert_eq!(result.report.instrs, 20_000);
//! assert!(result.speedup() > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod config;
pub mod experiment;
pub mod machine;
pub mod metrics;

pub use config::{PrefetcherKind, SimConfig};
pub use experiment::{
    geomean, run_config, run_config_profiled, run_multi_seed, run_resolved, run_resolved_profiled,
    run_workload, ExperimentResult, Measurement,
};
pub use machine::{RunControl, Simulator};
pub use metrics::{SimReport, StallKind};
