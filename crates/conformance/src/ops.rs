//! The operation vocabularies shared by the reference models, the
//! production adapters, and the fuzzer.
//!
//! Every lockstep harness replays a `Vec<Op>` against two
//! [`Model`](crate::lockstep::Model)s and compares the rendered
//! observable after each step, so ops must be plain data: cloneable,
//! debuggable, and free of shared state. Anything both sides need to
//! agree on up front (the program's branch layout, the deterministic
//! branch sets used for BTB-buffer fills) lives here too.

use dcfb_frontend::{BranchClass, BtbEntry};
use dcfb_telemetry::PfSource;
use dcfb_trace::{block_offset, Addr, Block};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Operations on a SeqTable (the SN4L 1-bit usefulness predictor).
#[derive(Clone, Debug)]
pub enum SeqOp {
    /// Query the usefulness bit.
    IsUseful(Block),
    /// Mark the block useful.
    Set(Block),
    /// Mark the block useless.
    Reset(Block),
}

/// Operations on a DisTable (the discontinuity branch-offset table).
#[derive(Clone, Debug)]
pub enum DisTableOp {
    /// Record a discontinuity branch at `offset` within `block`.
    Record(Block, u8),
    /// Look up the recorded offset for `block`.
    Lookup(Block),
}

/// Operations on the RLU lookup filter.
#[derive(Clone, Debug)]
pub enum RluOp {
    /// Filter check + FIFO insert (the prefetcher path).
    CheckInsert(Block),
    /// Demand-side population (no counters).
    NoteDemand(Block),
}

/// Operations on the BTB prefetch buffer.
#[derive(Clone, Debug)]
pub enum BtbBufOp {
    /// Deposit the deterministic branch set [`branch_set`]`(block, n)`.
    Fill {
        /// Block whose branches are deposited.
        block: Block,
        /// Number of branches in the set (0 exercises the empty-fill
        /// path).
        n: u8,
    },
    /// Destructive lookup of the branch at `pc`.
    Take(Addr),
    /// Non-destructive residency check for the branch at `pc`.
    Contains(Addr),
}

/// Operations on the fully-associative L1i prefetch buffer.
#[derive(Clone, Debug)]
pub enum PfBufOp {
    /// Insert a prefetched block attributed to `source`.
    Insert(Block, PfSource),
    /// Demand lookup (removes on hit).
    Take(Block),
    /// Non-destructive residency check.
    Contains(Block),
}

/// The branch the processor most recently retired, as the Dis recording
/// path sees it. The production side wraps this into a `RecentInstrs`;
/// the reference side uses the fields directly.
#[derive(Clone, Copy, Debug)]
pub struct RecentBranch {
    /// Branch pc.
    pub pc: Addr,
    /// Resolved target.
    pub target: Addr,
}

/// Event-level operations driving a whole prefetcher (SN4L, Dis, or the
/// combined proactive engine). One vocabulary serves all three: hooks a
/// prefetcher does not implement observe the empty string on both
/// sides.
///
/// Driver convention for the resident set (mirrored exactly by the
/// reference models and the production `MockContext` adapters):
///
/// * `Demand { hit: true }` inserts the block into the resident set,
///   `hit: false` removes it (the access is what establishes the
///   scenario);
/// * `Fill` inserts the block (it arrived);
/// * `Evict` removes the block, then runs the prefetcher's evict hook;
/// * every issued prefetch makes its block resident immediately (the
///   `MockContext` in-flight-counts-as-resident convention).
#[derive(Clone, Debug)]
pub enum EngineOp {
    /// A demand access.
    Demand {
        /// Accessed block.
        block: Block,
        /// Whether the access hit.
        hit: bool,
        /// Whether the hit line still carried its prefetch flag.
        hit_was_prefetched: bool,
        /// The most recent branch, for the Dis recording path.
        branch: Option<RecentBranch>,
    },
    /// A block arrived in the L1i.
    Fill {
        /// Arriving block.
        block: Block,
        /// Whether it was a prefetch fill.
        was_prefetch: bool,
    },
    /// A block left the L1i.
    Evict {
        /// Evicted block.
        block: Block,
        /// Whether it was a never-demanded prefetch.
        useless: bool,
    },
    /// One engine cycle (pumps the proactive queues).
    Tick,
}

/// The static program both sides of an engine harness agree on: which
/// branches each block contains and what the core BTB knows about
/// indirect targets. Immutable for the duration of a run.
#[derive(Clone, Debug, Default)]
pub struct CodeLayout {
    /// Pre-decode results by block.
    pub code: BTreeMap<Block, Vec<BtbEntry>>,
    /// Core-BTB targets by branch pc (for entries whose encoding has no
    /// target).
    pub btb: BTreeMap<Addr, Addr>,
}

impl CodeLayout {
    /// The branch at `byte_offset` within `block`, if any — the same
    /// match rule as `MockContext::decode_branch_at`.
    pub fn decode_branch_at(&self, block: Block, byte_offset: u32) -> Option<BtbEntry> {
        self.code
            .get(&block)?
            .iter()
            .find(|e| block_offset(e.pc) == byte_offset)
            .copied()
    }

    /// The BTB target recorded for the branch at `pc`.
    pub fn btb_target(&self, pc: Addr) -> Option<Addr> {
        self.btb.get(&pc).copied()
    }
}

/// The deterministic branch set used by [`BtbBufOp::Fill`]: `n`
/// conditional branches at the first `n` instruction slots of `block`.
/// Both sides construct it from `(block, n)` alone, so the op stays
/// plain data.
pub fn branch_set(block: Block, n: u8) -> Arc<[BtbEntry]> {
    let entries: Vec<BtbEntry> = (0..u64::from(n))
        .map(|i| BtbEntry {
            pc: block * 64 + i * 4,
            target: (block + 7 + i) * 64,
            class: BranchClass::Conditional,
        })
        .collect();
    Arc::from(entries.as_slice())
}
