//! # dcfb-uncore
//!
//! The memory system below the L1i: a shared-LLC slice, an analytic
//! mesh-NoC latency model with load-dependent queueing, and main memory.
//!
//! The paper's CMP (Table III) is a 16-core 4×4 mesh with a 32 MB shared
//! LLC (18-cycle bank access), 3 cycles per mesh hop, and 60 ns main
//! memory. We model a single core's view of that system: every request
//! leaving the L1i crosses the NoC (average-hop latency both ways),
//! possibly queues behind other traffic, accesses an LLC bank, and on an
//! LLC miss pays the memory latency.
//!
//! The *contention* term is what couples useless prefetches to
//! performance: Fig. 5 shows an N8L prefetcher inflating average LLC
//! access latency by ~28 % at 7.2× external bandwidth, and Fig. 4 shows
//! that this inflation is why N8L's timeliness falls below N4L's. We
//! reproduce that coupling with an M/D/1-style queueing delay driven by
//! the measured request rate over a sliding window.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod latency;
pub mod uncore;

pub use latency::{ContentionModel, NOC_ROUND_TRIP_CYCLES};
pub use uncore::{AccessResult, Uncore, UncoreConfig, UncoreStats, LLC_LATENCY, MEMORY_LATENCY};
