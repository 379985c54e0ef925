//! # dcfb-workloads
//!
//! Synthetic server-workload generator for the DCFB reproduction.
//!
//! The paper evaluates on commercial server stacks (Oracle/DB2 TPC-C,
//! SPECweb99 Apache/Zeus, CloudSuite Media Streaming / Web Frontend /
//! Web Search) running under full-system simulation. Those stacks and
//! checkpoints are not redistributable, so this crate builds the closest
//! synthetic equivalent: a *program image* with server-like static
//! structure (thousands of functions, structured control flow, cold
//! error/exception paths interleaved with hot code, loops, skewed call
//! graphs) and a deterministic *walker* that executes it to produce an
//! instruction trace.
//!
//! The generator is calibrated against the characteristics the paper
//! measures rather than against any particular binary:
//!
//! * massive instruction footprints (hundreds of KiB to MiB, Table IV),
//! * 65–80 % of L1i misses are sequential (Fig. 2),
//! * rare-path pollution that makes deep NXL prefetching inaccurate
//!   (Algorithm 1, Fig. 5),
//! * ~80 % of per-block discontinuities caused by one stable branch
//!   (Fig. 7),
//! * ≤ 4 branches per 64-byte block for almost all blocks (Fig. 8),
//! * heavy unconditional-branch populations that overflow a 1.5 K-entry
//!   U-BTB (Fig. 1).
//!
//! Everything is seeded: `(WorkloadParams, seed)` fully determines both
//! the image and the trace.

//! # Examples
//!
//! ```
//! use dcfb_trace::{InstrStream, IsaMode, StreamStats};
//! use dcfb_workloads::workload;
//!
//! let w = workload("Web Search").expect("catalog workload");
//! let mut walker = w.walker(IsaMode::Fixed4, /* trace seed */ 7);
//! let stats = StreamStats::measure(&mut walker, 50_000);
//! assert_eq!(stats.instrs, 50_000);
//! assert!(stats.branch_density() > 0.03);
//! assert!(stats.footprint_blocks > 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod image;
pub mod mix;
pub mod params;
pub mod source;
pub mod synth;

pub use catalog::{all_workloads, workload, workload_names, Workload};
pub use image::{ProgramImage, Terminator};
pub use mix::{MixCode, MixStream, DEFAULT_QUANTUM, TENANT_STRIDE};
pub use params::WorkloadParams;
pub use source::{
    load_trace, resolve_workload, source_names, ArcReplay, ResolvedWorkload, SourceSpec,
    SourceStream, MIX_PREFIX, MIX_SYNTAX, TRACE_PREFIX, TRACE_SYNTAX,
};
pub use synth::Walker;
