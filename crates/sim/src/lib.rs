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
//! 6–9; [`run`] is the one way to run a configuration on a resolved
//! workload source (warmup + measurement, optional telemetry), shared
//! by the CLI and the `dcfb-bench` harness.

//! # Examples
//!
//! Run the paper's prefetcher and the baseline on a small custom
//! workload and compare them:
//!
//! ```
//! use dcfb_sim::{run, SimConfig};
//! use dcfb_workloads::{ResolvedWorkload, Workload, WorkloadParams};
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
//! let mut base_cfg = SimConfig::baseline();
//! base_cfg.warmup_instrs = cfg.warmup_instrs;
//! base_cfg.measure_instrs = cfg.measure_instrs;
//! let source = ResolvedWorkload::from_image(workload.image(cfg.isa));
//! let base = run(&source, base_cfg, 42).unwrap().report;
//! let report = run(&source, cfg, 42).unwrap().report;
//! assert_eq!(report.instrs, 20_000);
//! assert!(report.speedup_over(&base) > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod config;
pub mod experiment;
pub mod machine;
pub mod metrics;

pub use config::{PrefetcherKind, SimConfig};
pub use experiment::{geomean, run, Run};
pub use machine::Simulator;
pub use metrics::SimReport;
