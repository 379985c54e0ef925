//! Executable reference models of the paper's structures.
//!
//! Each model is written for *obviousness*, not speed: plain `Vec`s and
//! `VecDeque`s, recency kept by physical order instead of stamps,
//! modulo indexing instead of masks, no shared state, no caching.
//! They re-derive the §V semantics from the paper's text so the
//! production structures in `crates/prefetch` / `crates/cache` can be
//! checked against an independent oracle, step by step, in
//! [`crate::lockstep`].
//!
//! The engine-level models ([`RefSn4l`], [`RefDisEngine`],
//! [`RefProactive`]) also model the *machine* surface the production
//! side sees through `MockContext`: a resident-block set where every
//! issued prefetch lands immediately, and a static [`CodeLayout`] for
//! pre-decoding.

use crate::lockstep::Model;
use crate::ops::{
    branch_set, BtbBufOp, CodeLayout, DisTableOp, EngineOp, PfBufOp, RecentBranch, RluOp, SeqOp,
};
use dcfb_frontend::BtbEntry;
use dcfb_prefetch::Sn4lDisConfig;
use dcfb_telemetry::PfSource;
use dcfb_trace::{block_of, block_offset, Addr, Block};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

// ---------------------------------------------------------------------
// Table-level models
// ---------------------------------------------------------------------

/// Reference SeqTable: one bit per entry, all starting at 1, indexed by
/// `block mod entries` (§V-A).
#[derive(Clone, Debug)]
pub struct RefSeqTable {
    bits: Vec<bool>,
}

impl RefSeqTable {
    /// Creates a table with `entries` slots, all useful.
    pub fn new(entries: usize) -> Self {
        RefSeqTable {
            bits: vec![true; entries],
        }
    }

    fn slot(&self, block: Block) -> usize {
        (block % self.bits.len() as u64) as usize
    }

    /// Whether `block` is predicted useful.
    pub fn is_useful(&self, block: Block) -> bool {
        self.bits[self.slot(block)]
    }

    /// Marks `block` useful.
    pub fn set(&mut self, block: Block) {
        let i = self.slot(block);
        self.bits[i] = true;
    }

    /// Marks `block` useless.
    pub fn reset(&mut self, block: Block) {
        let i = self.slot(block);
        self.bits[i] = false;
    }

    /// Indices of the disabled entries, for end-of-run comparison.
    pub fn disabled(&self) -> Vec<usize> {
        (0..self.bits.len()).filter(|&i| !self.bits[i]).collect()
    }
}

impl Model for RefSeqTable {
    type Op = SeqOp;

    fn apply(&mut self, op: &SeqOp) -> String {
        match op {
            SeqOp::IsUseful(b) => self.is_useful(*b).to_string(),
            SeqOp::Set(b) => {
                self.set(*b);
                String::new()
            }
            SeqOp::Reset(b) => {
                self.reset(*b);
                String::new()
            }
        }
    }

    fn finish(&mut self) -> String {
        format!("disabled={:?}", self.disabled())
    }
}

/// The [`dcfb_prefetch::TagPolicy`] mirror, spelled out arithmetically.
#[derive(Clone, Copy, Debug)]
pub enum RefTag {
    /// No tag stored; any alias matches.
    Tagless,
    /// The low `n` bits of `block / entries`.
    Partial(u32),
    /// All of `block / entries`.
    Full,
}

impl RefTag {
    fn of(self, block: Block, entries: u64) -> u64 {
        let above = block / entries;
        match self {
            RefTag::Tagless => 0,
            RefTag::Partial(bits) => above % (1u64 << bits),
            RefTag::Full => above,
        }
    }
}

/// Reference DisTable: direct-mapped slots of `(tag, offset)` (§V-B).
#[derive(Clone, Debug)]
pub struct RefDisTable {
    slots: Vec<Option<(u64, u8)>>,
    tag: RefTag,
}

impl RefDisTable {
    /// Creates a table with `entries` slots and tagging policy `tag`.
    pub fn new(entries: usize, tag: RefTag) -> Self {
        RefDisTable {
            slots: vec![None; entries],
            tag,
        }
    }

    fn slot(&self, block: Block) -> usize {
        (block % self.slots.len() as u64) as usize
    }

    /// Overwrites the slot for `block` with the branch `offset`.
    pub fn record(&mut self, block: Block, offset: u8) {
        let i = self.slot(block);
        self.slots[i] = Some((self.tag.of(block, self.slots.len() as u64), offset));
    }

    /// The recorded offset, if the slot is valid and the tag matches.
    pub fn lookup(&self, block: Block) -> Option<u8> {
        let (tag, offset) = self.slots[self.slot(block)]?;
        (tag == self.tag.of(block, self.slots.len() as u64)).then_some(offset)
    }
}

impl Model for RefDisTable {
    type Op = DisTableOp;

    fn apply(&mut self, op: &DisTableOp) -> String {
        match op {
            DisTableOp::Record(b, off) => {
                self.record(*b, *off);
                String::new()
            }
            DisTableOp::Lookup(b) => format!("{:?}", self.lookup(*b)),
        }
    }
}

/// Reference RLU: a FIFO of the last `capacity` looked-up blocks
/// (§V-B).
#[derive(Clone, Debug)]
pub struct RefRlu {
    fifo: VecDeque<Block>,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl RefRlu {
    /// Creates an RLU holding `capacity` blocks.
    pub fn new(capacity: usize) -> Self {
        RefRlu {
            fifo: VecDeque::new(),
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Membership check + FIFO insert; `true` means "recently looked
    /// up, skip the cache".
    pub fn check_insert(&mut self, block: Block) -> bool {
        if self.fifo.contains(&block) {
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        self.push(block);
        false
    }

    /// Demand-side population: insert without touching the counters.
    pub fn note_demand(&mut self, block: Block) {
        if !self.fifo.contains(&block) {
            self.push(block);
        }
    }

    fn push(&mut self, block: Block) {
        if self.fifo.len() == self.capacity {
            self.fifo.pop_front();
        }
        self.fifo.push_back(block);
    }
}

impl Model for RefRlu {
    type Op = RluOp;

    fn apply(&mut self, op: &RluOp) -> String {
        match op {
            RluOp::CheckInsert(b) => {
                if self.check_insert(*b) {
                    "hit".to_owned()
                } else {
                    "miss".to_owned()
                }
            }
            RluOp::NoteDemand(b) => {
                self.note_demand(*b);
                String::new()
            }
        }
    }

    fn finish(&mut self) -> String {
        format!("hits={} misses={}", self.hits, self.misses)
    }
}

/// Reference BTB prefetch buffer: per-set lists kept in recency order
/// (front = LRU), one entry per block (§V-C).
#[derive(Clone, Debug)]
pub struct RefBtbBuffer {
    sets: Vec<Vec<(Block, Arc<[BtbEntry]>)>>,
    ways: usize,
    fills: u64,
    lookups: u64,
    hits: u64,
}

impl RefBtbBuffer {
    /// Creates a buffer of `entries` block slots, `ways` per set.
    pub fn new(entries: usize, ways: usize) -> Self {
        RefBtbBuffer {
            sets: vec![Vec::new(); entries / ways],
            ways,
            fills: 0,
            lookups: 0,
            hits: 0,
        }
    }

    fn set_of(&self, block: Block) -> usize {
        (block % self.sets.len() as u64) as usize
    }

    /// Deposits `branches` for `block`; returns the displaced block, if
    /// the set was full of other blocks.
    pub fn fill(&mut self, block: Block, branches: Arc<[BtbEntry]>) -> Option<Block> {
        if branches.is_empty() {
            return None;
        }
        self.fills += 1;
        let ways = self.ways;
        let set_idx = self.set_of(block);
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|(b, _)| *b == block) {
            // Update in place; refreshing recency moves it to the back.
            set.remove(pos);
            set.push((block, branches));
            return None;
        }
        let displaced = if set.len() == ways {
            Some(set.remove(0).0)
        } else {
            None
        };
        set.push((block, branches));
        displaced
    }

    /// Destructive lookup: a hit removes the whole block entry.
    pub fn take_for(&mut self, pc: Addr) -> Option<Arc<[BtbEntry]>> {
        self.lookups += 1;
        let block = block_of(pc);
        let set_idx = self.set_of(block);
        let set = &mut self.sets[set_idx];
        let pos = set
            .iter()
            .position(|(b, br)| *b == block && br.iter().any(|e| e.pc == pc))?;
        self.hits += 1;
        Some(set.remove(pos).1)
    }

    /// Non-destructive residency check for the branch at `pc`.
    pub fn contains_branch(&self, pc: Addr) -> bool {
        let block = block_of(pc);
        self.sets[self.set_of(block)]
            .iter()
            .any(|(b, br)| *b == block && br.iter().any(|e| e.pc == pc))
    }
}

impl Model for RefBtbBuffer {
    type Op = BtbBufOp;

    fn apply(&mut self, op: &BtbBufOp) -> String {
        match op {
            BtbBufOp::Fill { block, n } => {
                format!("displaced={:?}", self.fill(*block, branch_set(*block, *n)))
            }
            BtbBufOp::Take(pc) => match self.take_for(*pc) {
                Some(branches) => format!("took={}", branches.len()),
                None => "took=none".to_owned(),
            },
            BtbBufOp::Contains(pc) => self.contains_branch(*pc).to_string(),
        }
    }

    fn finish(&mut self) -> String {
        format!(
            "fills={} lookups={} hits={}",
            self.fills, self.lookups, self.hits
        )
    }
}

/// Reference L1i prefetch buffer: one fully-associative list in recency
/// order (front = LRU).
#[derive(Clone, Debug)]
pub struct RefPrefetchBuffer {
    entries: Vec<(Block, PfSource)>,
    capacity: usize,
    lookups: u64,
    hits: u64,
    inserted: u64,
    replaced: u64,
}

impl RefPrefetchBuffer {
    /// Creates a buffer holding `capacity` blocks.
    pub fn new(capacity: usize) -> Self {
        RefPrefetchBuffer {
            entries: Vec::new(),
            capacity,
            lookups: 0,
            hits: 0,
            inserted: 0,
            replaced: 0,
        }
    }

    /// Inserts `block`; a resident block is refreshed, otherwise the
    /// LRU entry is evicted when full. Returns the eviction.
    pub fn insert(&mut self, block: Block, source: PfSource) -> Option<(Block, PfSource)> {
        self.inserted += 1;
        if let Some(pos) = self.entries.iter().position(|(b, _)| *b == block) {
            let entry = self.entries.remove(pos);
            self.entries.push(entry);
            return None;
        }
        let evicted = if self.entries.len() == self.capacity {
            self.replaced += 1;
            Some(self.entries.remove(0))
        } else {
            None
        };
        self.entries.push((block, source));
        evicted
    }

    /// Demand lookup; a hit removes the block and returns its filler.
    pub fn take(&mut self, block: Block) -> Option<PfSource> {
        self.lookups += 1;
        let pos = self.entries.iter().position(|(b, _)| *b == block)?;
        self.hits += 1;
        Some(self.entries.remove(pos).1)
    }
}

impl Model for RefPrefetchBuffer {
    type Op = PfBufOp;

    fn apply(&mut self, op: &PfBufOp) -> String {
        match op {
            PfBufOp::Insert(b, src) => format!("evicted={:?}", self.insert(*b, *src)),
            PfBufOp::Take(b) => format!("{:?}", self.take(*b)),
            PfBufOp::Contains(b) => self.entries.iter().any(|(e, _)| e == b).to_string(),
        }
    }

    fn finish(&mut self) -> String {
        let order: Vec<Block> = self.entries.iter().map(|(b, _)| *b).collect();
        format!(
            "lookups={} hits={} inserted={} replaced={} order={:?}",
            self.lookups, self.hits, self.inserted, self.replaced, order
        )
    }
}

// ---------------------------------------------------------------------
// Engine-level models
// ---------------------------------------------------------------------

fn render_issued(items: &[String]) -> String {
    format!("issued=[{}]", items.join(","))
}

/// Reference SN4L over [`EngineOp`]s: §V-A followed literally, with the
/// driver's resident-set convention (see [`EngineOp`]).
#[derive(Clone, Debug)]
pub struct RefSn4l {
    table: RefSeqTable,
    resident: BTreeSet<Block>,
    issued: u64,
    suppressed: u64,
}

impl RefSn4l {
    /// Creates the model over a `entries`-slot SeqTable.
    pub fn new(entries: usize) -> Self {
        RefSn4l {
            table: RefSeqTable::new(entries),
            resident: BTreeSet::new(),
            issued: 0,
            suppressed: 0,
        }
    }
}

impl Model for RefSn4l {
    type Op = EngineOp;

    fn apply(&mut self, op: &EngineOp) -> String {
        match op {
            EngineOp::Demand {
                block,
                hit,
                hit_was_prefetched,
                ..
            } => {
                if *hit {
                    self.resident.insert(*block);
                } else {
                    self.resident.remove(block);
                }
                // Metadata: a miss or a still-flagged prefetched hit
                // marks the block useful.
                if !*hit || *hit_was_prefetched {
                    self.table.set(*block);
                }
                // Prefetch the next four blocks whose status bit is 1.
                let mut out = Vec::new();
                for d in 1..=4u64 {
                    let cand = block + d;
                    if !self.table.is_useful(cand) {
                        self.suppressed += 1;
                        continue;
                    }
                    if !self.resident.contains(&cand) {
                        self.resident.insert(cand);
                        self.issued += 1;
                        out.push(format!("{cand}+0:{:?}", PfSource::Sn4l));
                    }
                }
                render_issued(&out)
            }
            EngineOp::Fill { block, .. } => {
                self.resident.insert(*block);
                render_issued(&[])
            }
            EngineOp::Tick => render_issued(&[]),
            EngineOp::Evict { block, useless } => {
                self.resident.remove(block);
                if *useless {
                    self.table.reset(*block);
                }
                String::new()
            }
        }
    }

    fn finish(&mut self) -> String {
        format!(
            "issued={} suppressed={} disabled={:?}",
            self.issued,
            self.suppressed,
            self.table.disabled()
        )
    }
}

/// The Dis recording + replay core, shared by [`RefDisEngine`] and
/// [`RefProactive`]: record the branch offset under the branch's own
/// block, recover the target by pre-decoding at the stored offset, fall
/// back to the BTB for indirect targets (§V-B).
#[derive(Clone, Debug)]
struct RefDisCore {
    table: RefDisTable,
    layout: CodeLayout,
    records: u64,
    decode_mismatches: u64,
    unresolved_indirects: u64,
}

impl RefDisCore {
    fn new(entries: usize, layout: CodeLayout) -> Self {
        RefDisCore {
            table: RefDisTable::new(entries, RefTag::Partial(4)),
            layout,
            records: 0,
            decode_mismatches: 0,
            unresolved_indirects: 0,
        }
    }

    /// Records `branch` under its own block; the stored offset is the
    /// instruction slot (fixed-length ISA).
    fn record(&mut self, branch: RecentBranch) {
        let slot = (block_offset(branch.pc) / 4) as u8;
        self.table.record(block_of(branch.pc), slot);
        self.records += 1;
    }

    /// Recovers the discontinuity target recorded for `block`, if any.
    fn peek_target(&mut self, block: Block) -> Option<Block> {
        let slot = self.table.lookup(block)?;
        let byte_offset = u32::from(slot) * 4;
        let Some(entry) = self.layout.decode_branch_at(block, byte_offset) else {
            // Alias or stale entry: the slot holds no branch — do
            // nothing (§V-B).
            self.decode_mismatches += 1;
            return None;
        };
        let target = if entry.target != 0 {
            entry.target
        } else {
            match self.layout.btb_target(entry.pc) {
                Some(t) => t,
                None => {
                    self.unresolved_indirects += 1;
                    return None;
                }
            }
        };
        Some(block_of(target))
    }

    fn counters(&self) -> String {
        format!(
            "records={} decode_mismatches={} unresolved_indirects={}",
            self.records, self.decode_mismatches, self.unresolved_indirects
        )
    }
}

/// Reference standalone Dis prefetcher over [`EngineOp`]s.
#[derive(Clone, Debug)]
pub struct RefDisEngine {
    core: RefDisCore,
    resident: BTreeSet<Block>,
    issued: u64,
    issue_delay: u64,
}

impl RefDisEngine {
    /// Creates the model over an `entries`-slot DisTable and the agreed
    /// program layout.
    pub fn new(entries: usize, layout: CodeLayout) -> Self {
        RefDisEngine {
            core: RefDisCore::new(entries, layout),
            resident: BTreeSet::new(),
            issued: 0,
            issue_delay: 3,
        }
    }

    /// Replays the table for `block`; returns the rendered issue, if
    /// the recovered target was prefetched.
    fn replay(&mut self, block: Block) -> Vec<String> {
        let Some(target) = self.core.peek_target(block) else {
            return Vec::new();
        };
        if self.resident.contains(&target) {
            return Vec::new();
        }
        self.resident.insert(target);
        self.issued += 1;
        vec![format!("{target}+{}:{:?}", self.issue_delay, PfSource::Dis)]
    }
}

impl Model for RefDisEngine {
    type Op = EngineOp;

    fn apply(&mut self, op: &EngineOp) -> String {
        match op {
            EngineOp::Demand {
                block, hit, branch, ..
            } => {
                if *hit {
                    self.resident.insert(*block);
                } else {
                    self.resident.remove(block);
                }
                if !*hit {
                    if let Some(b) = branch {
                        self.core.record(*b);
                    }
                }
                // Replay on every fetch request, hit or miss (§V-B).
                let out = self.replay(*block);
                render_issued(&out)
            }
            EngineOp::Fill {
                block,
                was_prefetch,
            } => {
                self.resident.insert(*block);
                let out = if *was_prefetch {
                    self.replay(*block)
                } else {
                    Vec::new()
                };
                render_issued(&out)
            }
            EngineOp::Tick => render_issued(&[]),
            EngineOp::Evict { block, .. } => {
                self.resident.remove(block);
                String::new()
            }
        }
    }

    fn finish(&mut self) -> String {
        format!("issued={} {}", self.issued, self.core.counters())
    }
}

/// Which engine produced a chained candidate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ChainSource {
    Seq,
    Dis,
}

/// Reference SN4L+Dis+BTB proactive chaining engine (§V-B/§V-C): the
/// SeqQueue / DisQueue / RLUQueue pipeline with SN4L at depth 0, SN1L
/// past discontinuities, the RLU filter, BTB-buffer pre-decoding, and
/// the depth-4 chain cutoff — restated queue by queue.
#[derive(Clone, Debug)]
pub struct RefProactive {
    cfg: Sn4lDisConfig,
    seq: RefSeqTable,
    dis: RefDisCore,
    rlu: RefRlu,
    seq_q: VecDeque<(Block, u8)>,
    dis_q: VecDeque<(Block, u8)>,
    rlu_q: VecDeque<(Block, u8, ChainSource)>,
    resident: BTreeSet<Block>,
    seq_issued: u64,
    dis_issued: u64,
    rlu_filtered: u64,
    queue_drops: u64,
    depth_terminations: u64,
    predecoded: u64,
    /// Deepest trigger depth ever accepted — the chain-depth invariant
    /// witness (must stay ≤ `cfg.max_depth`).
    pub max_trigger_depth: u8,
}

impl RefProactive {
    /// Creates the model from the production configuration struct
    /// (reused as plain data) and the agreed program layout.
    pub fn new(cfg: Sn4lDisConfig, layout: CodeLayout) -> Self {
        RefProactive {
            seq: RefSeqTable::new(cfg.seq_entries),
            dis: RefDisCore::new(cfg.dis_entries, layout),
            rlu: RefRlu::new(cfg.rlu_entries),
            seq_q: VecDeque::new(),
            dis_q: VecDeque::new(),
            rlu_q: VecDeque::new(),
            resident: BTreeSet::new(),
            seq_issued: 0,
            dis_issued: 0,
            rlu_filtered: 0,
            queue_drops: 0,
            depth_terminations: 0,
            predecoded: 0,
            max_trigger_depth: 0,
            cfg,
        }
    }

    /// Chains terminated by the depth limit so far (invariant checks
    /// use this to prove the cutoff actually fired).
    pub fn depth_terminations(&self) -> u64 {
        self.depth_terminations
    }

    fn push_candidate(&mut self, block: Block, depth: u8, src: ChainSource) {
        if self.rlu_q.len() == self.cfg.queue_capacity {
            self.queue_drops += 1;
            return;
        }
        self.rlu_q.push_back((block, depth, src));
    }

    fn push_trigger(&mut self, block: Block, depth: u8, also_seq: bool) {
        if depth > self.cfg.max_depth {
            self.depth_terminations += 1;
            return;
        }
        self.max_trigger_depth = self.max_trigger_depth.max(depth);
        if also_seq {
            if self.seq_q.len() == self.cfg.queue_capacity {
                self.queue_drops += 1;
            } else {
                self.seq_q.push_back((block, depth));
            }
        }
        if self.dis_q.len() == self.cfg.queue_capacity {
            self.queue_drops += 1;
        } else {
            self.dis_q.push_back((block, depth));
        }
    }

    fn pump_seq(&mut self) {
        for _ in 0..self.cfg.engine_per_cycle {
            let Some((block, depth)) = self.seq_q.pop_front() else {
                break;
            };
            // SN4L on the demand trigger, SN1L deeper in the chain.
            let span = if depth == 0 {
                4
            } else {
                self.cfg.deep_seq_degree
            };
            for d in 1..=span {
                let cand = block + d;
                if self.seq.is_useful(cand) {
                    self.push_candidate(cand, depth.saturating_add(1), ChainSource::Seq);
                }
            }
        }
    }

    fn pump_dis(&mut self) {
        for _ in 0..self.cfg.engine_per_cycle {
            let Some((block, depth)) = self.dis_q.pop_front() else {
                break;
            };
            if let Some(target) = self.dis.peek_target(block) {
                self.push_candidate(target, depth.saturating_add(1), ChainSource::Dis);
            }
        }
    }

    fn pump_rlu(&mut self, issued: &mut Vec<String>, fills: &mut Vec<Block>) {
        for _ in 0..self.cfg.rlu_per_cycle {
            let Some((block, depth, src)) = self.rlu_q.pop_front() else {
                break;
            };
            if self.rlu.check_insert(block) {
                self.rlu_filtered += 1;
                continue;
            }
            if !self.resident.contains(&block) {
                let delay = match src {
                    ChainSource::Seq => 0,
                    ChainSource::Dis => self.cfg.dis_issue_delay,
                };
                let tag = match (src, depth) {
                    (ChainSource::Seq, 0..=1) => PfSource::Sn4l,
                    (ChainSource::Dis, 0..=1) => PfSource::Dis,
                    _ => PfSource::ProactiveChain,
                };
                self.resident.insert(block);
                match src {
                    ChainSource::Seq => self.seq_issued += 1,
                    ChainSource::Dis => self.dis_issued += 1,
                }
                issued.push(format!("{block}+{delay}:{tag:?}"));
            }
            if self.cfg.btb_prefetch {
                self.predecoded += 1;
                fills.push(block);
            }
            self.push_trigger(block, depth, src == ChainSource::Dis);
        }
    }

    fn render(&self, issued: &[String], fills: &[Block]) -> String {
        let fills: Vec<String> = fills.iter().map(u64::to_string).collect();
        format!(
            "{} fills=[{}] q=({},{},{})",
            render_issued(issued),
            fills.join(","),
            self.seq_q.len(),
            self.dis_q.len(),
            self.rlu_q.len()
        )
    }
}

impl Model for RefProactive {
    type Op = EngineOp;

    fn apply(&mut self, op: &EngineOp) -> String {
        match op {
            EngineOp::Demand {
                block,
                hit,
                hit_was_prefetched,
                branch,
            } => {
                if *hit {
                    self.resident.insert(*block);
                } else {
                    self.resident.remove(block);
                }
                if !*hit || *hit_was_prefetched {
                    self.seq.set(*block);
                }
                if !*hit {
                    if let Some(b) = branch {
                        self.dis.record(*b);
                    }
                }
                self.rlu.note_demand(*block);
                let mut fills = Vec::new();
                if self.cfg.btb_prefetch && !*hit {
                    self.predecoded += 1;
                    fills.push(*block);
                }
                self.push_trigger(*block, 0, true);
                self.render(&[], &fills)
            }
            EngineOp::Fill { block, .. } => {
                self.resident.insert(*block);
                self.render(&[], &[])
            }
            EngineOp::Tick => {
                let mut issued = Vec::new();
                let mut fills = Vec::new();
                self.pump_seq();
                self.pump_dis();
                self.pump_rlu(&mut issued, &mut fills);
                self.render(&issued, &fills)
            }
            EngineOp::Evict { block, useless } => {
                self.resident.remove(block);
                if *useless {
                    self.seq.reset(*block);
                }
                String::new()
            }
        }
    }

    fn finish(&mut self) -> String {
        format!(
            "seq_issued={} dis_issued={} rlu_filtered={} queue_drops={} depth_terminations={} predecoded={} rlu=({}) dis=({})",
            self.seq_issued,
            self.dis_issued,
            self.rlu_filtered,
            self.queue_drops,
            self.depth_terminations,
            self.predecoded,
            format_args!("hits={} misses={}", self.rlu.hits, self.rlu.misses),
            self.dis.counters(),
        )
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use dcfb_frontend::BranchClass;

    #[test]
    fn ref_seqtable_aliases_and_initial_state() {
        let mut t = RefSeqTable::new(16);
        assert!(t.is_useful(3));
        t.reset(3);
        assert!(!t.is_useful(3 + 16), "aliased entry shares the bit");
        t.set(3 + 32);
        assert!(t.is_useful(3));
        assert!(t.disabled().is_empty());
    }

    #[test]
    fn ref_distable_partial_tag_wraps() {
        let mut t = RefDisTable::new(16, RefTag::Partial(4));
        t.record(5, 3);
        assert_eq!(t.lookup(5), Some(3));
        assert_eq!(t.lookup(5 + 16), None, "different partial tag");
        assert_eq!(t.lookup(5 + 16 * 16), Some(3), "tag bits wrap");
    }

    #[test]
    fn ref_rlu_is_a_fifo() {
        let mut r = RefRlu::new(2);
        assert!(!r.check_insert(1));
        assert!(!r.check_insert(2));
        assert!(!r.check_insert(3), "3 evicts 1");
        assert!(!r.check_insert(1), "1 was evicted");
        assert!(r.check_insert(3));
    }

    #[test]
    fn ref_btb_buffer_lru_and_whole_entry_take() {
        let mut b = RefBtbBuffer::new(4, 2);
        assert_eq!(b.fill(0, branch_set(0, 1)), None);
        assert_eq!(b.fill(2, branch_set(2, 2)), None);
        // Refresh block 0, making 2 the LRU.
        assert_eq!(b.fill(0, branch_set(0, 1)), None);
        assert_eq!(b.fill(4, branch_set(4, 1)), Some(2));
        // Take removes the whole entry.
        let taken = b.take_for(4 * 64).expect("hit");
        assert_eq!(taken.len(), 1);
        assert!(!b.contains_branch(4 * 64));
    }

    #[test]
    fn ref_pf_buffer_lru() {
        let mut pb = RefPrefetchBuffer::new(2);
        assert!(pb.insert(1, PfSource::NextLine).is_none());
        assert!(pb.insert(2, PfSource::NextLine).is_none());
        assert!(pb.insert(1, PfSource::NextLine).is_none(), "refresh");
        assert_eq!(
            pb.insert(3, PfSource::Sn4l),
            Some((2, PfSource::NextLine)),
            "2 is the LRU after 1's refresh"
        );
        assert_eq!(pb.take(1), Some(PfSource::NextLine));
        assert_eq!(pb.take(1), None);
    }

    #[test]
    fn ref_sn4l_first_touch_prefetches_four() {
        let mut m = RefSn4l::new(64);
        let out = m.apply(&EngineOp::Demand {
            block: 100,
            hit: false,
            hit_was_prefetched: false,
            branch: None,
        });
        assert_eq!(out, "issued=[101+0:Sn4l,102+0:Sn4l,103+0:Sn4l,104+0:Sn4l]");
    }

    #[test]
    fn ref_dis_engine_records_and_replays() {
        let mut layout = CodeLayout::default();
        layout.code.insert(
            10,
            vec![BtbEntry {
                pc: 10 * 64 + 8,
                target: 50 * 64,
                class: BranchClass::Jump,
            }],
        );
        let mut m = RefDisEngine::new(64, layout);
        let miss = m.apply(&EngineOp::Demand {
            block: 50,
            hit: false,
            hit_was_prefetched: false,
            branch: Some(RecentBranch {
                pc: 10 * 64 + 8,
                target: 50 * 64,
            }),
        });
        assert_eq!(miss, "issued=[]", "target already demanded, not issued");
        // Evict 50 so the replay has something to prefetch.
        m.apply(&EngineOp::Evict {
            block: 50,
            useless: false,
        });
        let replay = m.apply(&EngineOp::Demand {
            block: 10,
            hit: true,
            hit_was_prefetched: false,
            branch: None,
        });
        assert_eq!(replay, "issued=[50+3:Dis]");
    }

    #[test]
    fn ref_proactive_depth_limit_holds() {
        // A long jump chain: block b jumps to b+10.
        let mut layout = CodeLayout::default();
        for k in 0..12u64 {
            let b = 100 + k * 10;
            layout.code.insert(
                b,
                vec![BtbEntry {
                    pc: b * 64 + 4,
                    target: (b + 10) * 64,
                    class: BranchClass::Jump,
                }],
            );
        }
        let cfg = Sn4lDisConfig {
            btb_prefetch: false,
            ..Sn4lDisConfig::default()
        };
        let mut m = RefProactive::new(cfg, layout);
        for k in 0..12u64 {
            let b = 100 + k * 10;
            m.apply(&EngineOp::Demand {
                block: b + 10,
                hit: false,
                hit_was_prefetched: false,
                branch: Some(RecentBranch {
                    pc: b * 64 + 4,
                    target: (b + 10) * 64,
                }),
            });
            for _ in 0..4 {
                m.apply(&EngineOp::Tick);
            }
        }
        // Re-demand the chain head (mirrors the production unit test):
        // the replay walks the whole recorded chain in one go.
        m.apply(&EngineOp::Demand {
            block: 100,
            hit: true,
            hit_was_prefetched: false,
            branch: None,
        });
        for _ in 0..64 {
            m.apply(&EngineOp::Tick);
        }
        assert!(m.max_trigger_depth <= 4, "chain exceeded the depth limit");
        assert!(m.depth_terminations > 0, "the cutoff never fired");
    }
}
