//! # dcfb-cache
//!
//! Cache substrate for the DCFB reproduction: the one true-LRU table
//! ([`LruSets`]) every frontend array is built on, generic
//! set-associative caches with the per-line metadata the paper's
//! prefetchers need (prefetch flag, `isInstruction` bit, 4-bit local
//! prefetch status), a miss-status holding register (MSHR) file,
//! branch footprints (BFs), and the dynamically-virtualized LLC
//! (DV-LLC) of §V-D that stores BFs in the LRU way of sets holding
//! instruction blocks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod dvllc;
pub mod footprint;
pub mod lru;
pub mod mshr;
pub mod prefetch_buffer;

pub use cache::{CacheConfig, CacheStats, Evicted, LineFlags, SetAssocCache};
pub use dvllc::{DvLlc, DvLlcStats};
pub use footprint::BranchFootprint;
pub use lru::LruSets;
pub use mshr::{Completion, MshrFile, MshrOutcome};
pub use prefetch_buffer::PrefetchBuffer;
