//! # dcfb-prefetch
//!
//! Every prefetcher studied in "Divide and Conquer Frontend Bottleneck":
//!
//! **The paper's proposal**
//! * [`Sn4l`] — the selective next-four-line sequential prefetcher
//!   (16 K-entry tagless `SeqTable`),
//! * [`Dis`] — the lightweight discontinuity prefetcher (4 K-entry,
//!   4-bit partially-tagged `DisTable`, targets recovered by
//!   pre-decoding),
//! * [`Sn4lDisBtb`] — the combined proactive engine: SeqQueue, DisQueue,
//!   RLU + RLUQueue, depth-limited chaining, SN1L past discontinuities,
//!   and Confluence-like BTB prefilling into a [`BtbPrefetchBuffer`].
//!
//! **Baselines (implemented from scratch)**
//! * [`NextLine`] — NL/N2L/N4L/N8L sequential prefetchers,
//! * [`DiscontinuityPrefetcher`] — the conventional full-address
//!   discontinuity table of Spracklen et al.,
//! * [`Confluence`] — SHIFT-style temporal streaming (the paper models
//!   Confluence as SHIFT plus a 16 K-entry BTB upper bound),
//! * [`Boomerang`] — BTB-directed runahead with reactive BTB prefills,
//! * [`Shotgun`] — footprint-driven BTB-directed prefetching over the
//!   split U-BTB/C-BTB/RIB.
//!
//! All L1i-event-driven prefetchers implement [`InstrPrefetcher`] and
//! interact with the machine through [`PrefetchContext`], a generic
//! parameter of every hook. The registry builds them as one
//! [`Prefetcher`] enum (compositions as a [`Composite`] of parts), so
//! the simulator in `dcfb-sim` dispatches each hook statically and
//! gets a copy of every prefetcher specialised to its own context. The
//! BTB-directed engines (Boomerang, Shotgun) also drive the FTQ and
//! are given a richer interface, [`RunaheadContext`] (see their
//! modules); the registry builds them as one [`DiscoveryEngine`] enum,
//! generic over that context in the same way.

//! # Examples
//!
//! Drive SN4L by hand with the scriptable [`context::MockContext`]:
//!
//! ```
//! use dcfb_prefetch::context::MockContext;
//! use dcfb_prefetch::{InstrPrefetcher, RecentInstrs, Sn4l};
//!
//! let mut sn4l = Sn4l::paper_sized();
//! let mut ctx = MockContext::default();
//! // First touch of block 100: all four successors look useful.
//! sn4l.on_demand(&mut ctx, 100, false, false, &RecentInstrs::default());
//! let blocks: Vec<u64> = ctx.issued.iter().map(|&(b, _)| b).collect();
//! assert_eq!(blocks, vec![101, 102, 103, 104]);
//!
//! // Block 102 gets evicted unused: SN4L learns to skip it.
//! sn4l.on_evict(&mut ctx, 102, true);
//! ctx.issued.clear();
//! ctx.resident.clear();
//! sn4l.on_demand(&mut ctx, 100, true, false, &RecentInstrs::default());
//! let blocks: Vec<u64> = ctx.issued.iter().map(|&(b, _)| b).collect();
//! assert_eq!(blocks, vec![101, 103, 104]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boomerang;
pub mod btb_pf;
pub mod composite;
pub mod confluence;
pub mod context;
pub mod dis;
pub mod discontinuity;
pub mod nextline;
pub mod proactive;
pub mod registry;
pub mod shotgun;
pub mod sn4l;
pub mod tables;

pub use boomerang::Boomerang;
pub use btb_pf::BtbPrefetchBuffer;
pub use composite::{Composite, Prefetcher};
pub use confluence::{Confluence, ConfluenceConfig};
pub use context::{InstrPrefetcher, PrefetchContext, RecentInstrs, RunaheadContext};
pub use dis::Dis;
pub use discontinuity::DiscontinuityPrefetcher;
pub use nextline::NextLine;
pub use proactive::{Sn4lDisBtb, Sn4lDisConfig};
pub use registry::{
    find_method, method_names, registry, DiscoveryEngine, DriverPlan, MethodRow, PrefetcherKind,
};
pub use shotgun::Shotgun;
pub use sn4l::Sn4l;
pub use tables::{DisTable, Rlu, SeqTable, TagPolicy};
