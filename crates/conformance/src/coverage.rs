//! The behavioral coverage map.
//!
//! Fuzzing the lockstep harnesses with a blind generator replays the
//! same adversarial families forever; the campaign in [`crate::corpus`]
//! needs to know whether an input exercised anything *new*. Coverage
//! here is behavioral, not structural: a fixed-width array of event
//! slots fed by the reference models (per-structure events — issues,
//! evictions, wrap-around offsets, partial-tag alias hits, queue
//! overflows, chain-depth cutoffs, pre-decode recoveries), with the
//! per-input event counts bucketed log2 the way AFL buckets edge hits.
//! An input's coverage is the set of `(slot, bucket)` bits it lit; the
//! campaign map is the bitwise OR over all evaluated inputs. Everything
//! is a pure function of the op sequence, allocation-light, and merges
//! associatively, so parallel campaigns can fold per-input maps in
//! candidate order and land on the same final map at any job count.

use crate::fuzz::fuzz_proactive_config;
use crate::lockstep::Model;
use crate::ops::{CodeLayout, EngineOp};
use crate::reference::{ProactiveStats, RefProactive};
use dcfb_trace::{block_of, block_offset, Block};
use std::fmt::Write as _;

/// Number of behavioral event slots (one per named event below).
pub const COVERAGE_SLOTS: usize = 42;

/// Log2 count buckets per slot (1, 2–3, 4–7, 8–15, 16–31, 32–127,
/// 128–511, 512+).
pub const COUNT_BUCKETS: usize = 8;

/// Total coverage bits: every `(slot, bucket)` pair.
pub const COVERAGE_BITS: usize = COVERAGE_SLOTS * COUNT_BUCKETS;

// Op-shape events (derived from the op itself).
const DEMAND_HIT: usize = 0;
const DEMAND_MISS: usize = 1;
const DEMAND_HIT_PREFETCHED: usize = 2;
const DEMAND_WITH_BRANCH: usize = 3;
const FILL_DEMAND: usize = 4;
const FILL_PREFETCH: usize = 5;
const EVICT_CLEAN: usize = 6;
const EVICT_USELESS: usize = 7;
// Block-family events (which adversarial family the op touched).
const FAM_CHAIN: usize = 8;
const FAM_CHAIN_OVERRUN: usize = 9;
const FAM_ALIAS: usize = 10;
const FAM_STORM: usize = 11;
const FAM_INDIRECT: usize = 12;
const FAM_ALIAS_TARGET: usize = 13;
const FAM_DENSE: usize = 14;
const FAM_FAR: usize = 15;
// Branch-shape events.
const WRAP_AROUND_BRANCH: usize = 16;
const PHANTOM_BRANCH: usize = 17;
// Engine events (diffed from [`ProactiveStats`] snapshots).
const SEQ_ISSUE: usize = 18;
const DIS_ISSUE: usize = 19;
const RLU_FILTERED: usize = 20;
const RLU_HIT: usize = 21;
const RLU_MISS: usize = 22;
const QUEUE_OVERFLOW: usize = 23;
const DEPTH_CUTOFF: usize = 24;
const PREDECODE: usize = 25;
const DIS_RECORD: usize = 26;
const ALIAS_DECODE_MISMATCH: usize = 27;
const UNRESOLVED_INDIRECT: usize = 28;
// Chain-depth watermarks (max trigger depth reached d).
const DEPTH_BASE: usize = 29; // 29..=32 for depths 1..=4
                              // Queue-occupancy events (sampled after every op): busy (≥1),
                              // half (≥capacity/2), full (=capacity), per queue.
const SEQ_Q_BASE: usize = 33;
const DIS_Q_BASE: usize = 36;
const RLU_Q_BASE: usize = 39;

/// Human-readable slot names, in slot order (DESIGN.md documents the
/// same layout).
pub const SLOT_NAMES: [&str; COVERAGE_SLOTS] = [
    "demand-hit",
    "demand-miss",
    "demand-hit-prefetched",
    "demand-with-branch",
    "fill-demand",
    "fill-prefetch",
    "evict-clean",
    "evict-useless",
    "fam-chain",
    "fam-chain-overrun",
    "fam-alias",
    "fam-storm",
    "fam-indirect",
    "fam-alias-target",
    "fam-dense",
    "fam-far",
    "wrap-around-branch",
    "phantom-branch",
    "seq-issue",
    "dis-issue",
    "rlu-filtered",
    "rlu-hit",
    "rlu-miss",
    "queue-overflow",
    "depth-cutoff",
    "predecode",
    "dis-record",
    "alias-decode-mismatch",
    "unresolved-indirect",
    "depth-1",
    "depth-2",
    "depth-3",
    "depth-4",
    "seq-q-busy",
    "seq-q-half",
    "seq-q-full",
    "dis-q-busy",
    "dis-q-half",
    "dis-q-full",
    "rlu-q-busy",
    "rlu-q-half",
    "rlu-q-full",
];

/// The log2 bucket a per-input event count falls in.
fn bucket_of(count: u32) -> u8 {
    match count {
        0 => unreachable!("bucket_of is only called for counts >= 1"),
        1 => 0,
        2..=3 => 1,
        4..=7 => 2,
        8..=15 => 3,
        16..=31 => 4,
        32..=127 => 5,
        128..=511 => 6,
        _ => 7,
    }
}

/// A fixed-width coverage bitmap: one byte per slot, one bit per count
/// bucket. Merging is bitwise OR, so folds are associative and
/// order-independent — the campaign still folds in candidate order for
/// clarity, but any order lands on the same map.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoverageMap {
    bits: [u8; COVERAGE_SLOTS],
}

impl Default for CoverageMap {
    fn default() -> Self {
        CoverageMap {
            bits: [0; COVERAGE_SLOTS],
        }
    }
}

impl CoverageMap {
    /// The all-empty map.
    pub fn new() -> Self {
        CoverageMap::default()
    }

    /// Builds the map from per-slot event counts (one input's worth).
    pub fn from_counts(counts: &[u32; COVERAGE_SLOTS]) -> Self {
        let mut bits = [0u8; COVERAGE_SLOTS];
        for (b, &c) in bits.iter_mut().zip(counts.iter()) {
            if c > 0 {
                *b = 1 << bucket_of(c);
            }
        }
        CoverageMap { bits }
    }

    /// Folds `other` in (bitwise OR).
    pub fn merge(&mut self, other: &CoverageMap) {
        for (a, b) in self.bits.iter_mut().zip(other.bits.iter()) {
            *a |= b;
        }
    }

    /// Total `(slot, bucket)` bits set.
    pub fn bit_count(&self) -> u32 {
        self.bits.iter().map(|b| b.count_ones()).sum()
    }

    /// Slots with at least one bucket hit.
    pub fn slot_count(&self) -> u32 {
        self.bits.iter().filter(|b| **b != 0).count() as u32
    }

    /// Fraction of the [`COVERAGE_SLOTS`] event slots hit, in [0, 1].
    pub fn slot_fraction(&self) -> f64 {
        f64::from(self.slot_count()) / COVERAGE_SLOTS as f64
    }

    /// Whether `self` lights any bit `base` does not.
    pub fn has_novel_bits_over(&self, base: &CoverageMap) -> bool {
        self.bits
            .iter()
            .zip(base.bits.iter())
            .any(|(a, b)| a & !b != 0)
    }

    /// How many bits `self` lights that `base` does not.
    pub fn novel_bits_over(&self, base: &CoverageMap) -> u32 {
        self.bits
            .iter()
            .zip(base.bits.iter())
            .map(|(a, b)| (a & !b).count_ones())
            .sum()
    }

    /// Hex rendering of the raw bitmap — doubles as the canonical
    /// digest (two hex chars per slot, slot order).
    pub fn to_hex(&self) -> String {
        let mut out = String::with_capacity(COVERAGE_SLOTS * 2);
        for b in &self.bits {
            let _ = write!(out, "{b:02x}");
        }
        out
    }

    /// Parses a [`to_hex`](Self::to_hex) rendering.
    ///
    /// # Errors
    ///
    /// A one-line description when the string is not exactly
    /// `2 * COVERAGE_SLOTS` hex chars.
    pub fn from_hex(s: &str) -> Result<Self, String> {
        let s = s.trim();
        if s.len() != COVERAGE_SLOTS * 2 {
            return Err(format!(
                "coverage hex must be {} chars, got {}",
                COVERAGE_SLOTS * 2,
                s.len()
            ));
        }
        let mut bits = [0u8; COVERAGE_SLOTS];
        for (i, b) in bits.iter_mut().enumerate() {
            let pair = s
                .get(2 * i..2 * i + 2)
                .ok_or_else(|| "coverage hex is not ASCII".to_owned())?;
            *b = u8::from_str_radix(pair, 16)
                .map_err(|e| format!("coverage hex byte {i} ({pair:?}): {e}"))?;
        }
        Ok(CoverageMap { bits })
    }

    /// The slots hit, by name (diagnostics / DESIGN examples).
    pub fn hit_slot_names(&self) -> Vec<&'static str> {
        self.bits
            .iter()
            .zip(SLOT_NAMES.iter())
            .filter(|(b, _)| **b != 0)
            .map(|(_, n)| *n)
            .collect()
    }
}

/// Which adversarial layout family a block belongs to (the families the
/// PR-4 generator builds; see [`crate::fuzz::Fuzzer::layout`]).
fn family_slot(block: Block) -> usize {
    match block {
        1000..=1031 => FAM_CHAIN,
        1032..=1035 => FAM_CHAIN_OVERRUN,
        b if (8..=8 + 7 * 64).contains(&b) && (b - 8).is_multiple_of(64) => FAM_ALIAS,
        500..=515 => FAM_STORM,
        700..=707 => FAM_INDIRECT,
        300..=315 => FAM_ALIAS_TARGET,
        0..=63 => FAM_DENSE,
        _ => FAM_FAR,
    }
}

/// Streams an op sequence through an instrumented [`RefProactive`] and
/// accumulates behavioral event counts. One probe per input; the
/// campaign buckets the counts into a [`CoverageMap`] when the input
/// ends.
pub struct CoverageProbe {
    engine: RefProactive,
    layout: CodeLayout,
    prev: ProactiveStats,
    counts: [u32; COVERAGE_SLOTS],
    ops: u64,
}

impl CoverageProbe {
    /// Creates a probe over the fuzz-scale proactive configuration and
    /// the given program layout.
    pub fn new(layout: &CodeLayout) -> Self {
        let engine = RefProactive::new(fuzz_proactive_config(), layout.clone());
        let prev = engine.stats();
        CoverageProbe {
            engine,
            layout: layout.clone(),
            prev,
            counts: [0; COVERAGE_SLOTS],
            ops: 0,
        }
    }

    fn bump(&mut self, slot: usize, by: u64) {
        if by > 0 {
            let c = &mut self.counts[slot];
            *c = c.saturating_add(u32::try_from(by).unwrap_or(u32::MAX));
        }
    }

    /// Feeds one op: records its shape, replays it on the reference
    /// engine, and diffs the counter snapshot into engine events.
    pub fn feed(&mut self, op: &EngineOp) {
        self.ops += 1;
        match op {
            EngineOp::Demand {
                block,
                hit,
                hit_was_prefetched,
                branch,
            } => {
                self.bump(if *hit { DEMAND_HIT } else { DEMAND_MISS }, 1);
                if *hit_was_prefetched {
                    self.bump(DEMAND_HIT_PREFETCHED, 1);
                }
                self.bump(family_slot(*block), 1);
                if let Some(b) = branch {
                    self.bump(DEMAND_WITH_BRANCH, 1);
                    let offset = block_offset(b.pc);
                    if offset == 60 {
                        self.bump(WRAP_AROUND_BRANCH, 1);
                    }
                    if self
                        .layout
                        .decode_branch_at(block_of(b.pc), offset)
                        .is_none()
                    {
                        self.bump(PHANTOM_BRANCH, 1);
                    }
                }
            }
            EngineOp::Fill {
                block,
                was_prefetch,
            } => {
                self.bump(
                    if *was_prefetch {
                        FILL_PREFETCH
                    } else {
                        FILL_DEMAND
                    },
                    1,
                );
                self.bump(family_slot(*block), 1);
            }
            EngineOp::Evict { block, useless } => {
                self.bump(if *useless { EVICT_USELESS } else { EVICT_CLEAN }, 1);
                self.bump(family_slot(*block), 1);
            }
            EngineOp::Tick => {}
        }

        let _ = self.engine.apply(op);
        let now = self.engine.stats();
        let prev = self.prev;
        self.bump(SEQ_ISSUE, now.seq_issued - prev.seq_issued);
        self.bump(DIS_ISSUE, now.dis_issued - prev.dis_issued);
        self.bump(RLU_FILTERED, now.rlu_filtered - prev.rlu_filtered);
        self.bump(RLU_HIT, now.rlu_hits - prev.rlu_hits);
        self.bump(RLU_MISS, now.rlu_misses - prev.rlu_misses);
        self.bump(QUEUE_OVERFLOW, now.queue_drops - prev.queue_drops);
        self.bump(
            DEPTH_CUTOFF,
            now.depth_terminations - prev.depth_terminations,
        );
        self.bump(PREDECODE, now.predecoded - prev.predecoded);
        self.bump(DIS_RECORD, now.dis_records - prev.dis_records);
        self.bump(
            ALIAS_DECODE_MISMATCH,
            now.decode_mismatches - prev.decode_mismatches,
        );
        self.bump(
            UNRESOLVED_INDIRECT,
            now.unresolved_indirects - prev.unresolved_indirects,
        );
        for d in prev.max_trigger_depth + 1..=now.max_trigger_depth {
            if (1..=4).contains(&d) {
                self.bump(DEPTH_BASE + usize::from(d) - 1, 1);
            }
        }
        let cap = self.engine.queue_capacity();
        for (len, base) in [
            (now.seq_q, SEQ_Q_BASE),
            (now.dis_q, DIS_Q_BASE),
            (now.rlu_q, RLU_Q_BASE),
        ] {
            if len >= 1 {
                self.bump(base, 1);
            }
            if len >= cap.div_ceil(2) {
                self.bump(base + 1, 1);
            }
            if len >= cap {
                self.bump(base + 2, 1);
            }
        }
        self.prev = now;
    }

    /// Ops fed so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Buckets the accumulated counts into this input's coverage map.
    pub fn map(&self) -> CoverageMap {
        CoverageMap::from_counts(&self.counts)
    }
}

/// The coverage map of one op sequence over `layout` (fresh engine,
/// whole sequence, one bucketing).
pub fn coverage_of(layout: &CodeLayout, ops: &[EngineOp]) -> CoverageMap {
    let mut probe = CoverageProbe::new(layout);
    for op in ops {
        probe.feed(op);
    }
    probe.map()
}

/// The PR-4 fixed-seed generator baseline: the coverage of one
/// continuous `total_ops`-long generated sequence from `seed` —
/// exactly what `dcfb conformance` replays. Campaigns must strictly
/// exceed this at equal op budget to justify their existence; the
/// `dcfb fuzz --quick` smoke asserts it. Streams in chunks so multi-M
/// budgets never materialize the whole sequence.
pub fn baseline_coverage(seed: u64, total_ops: u64) -> CoverageMap {
    let mut fz = crate::fuzz::Fuzzer::new(seed);
    let layout = fz.layout();
    let mut probe = CoverageProbe::new(&layout);
    let mut left = total_ops;
    while left > 0 {
        let chunk = left.min(4096) as usize;
        for op in fz.engine_ops(&layout, chunk) {
            probe.feed(&op);
        }
        left -= chunk as u64;
    }
    probe.map()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::fuzz::Fuzzer;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(15), 3);
        assert_eq!(bucket_of(16), 4);
        assert_eq!(bucket_of(127), 5);
        assert_eq!(bucket_of(511), 6);
        assert_eq!(bucket_of(u32::MAX), 7);
    }

    #[test]
    fn slot_names_cover_every_slot_uniquely() {
        let mut names: Vec<&str> = SLOT_NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), COVERAGE_SLOTS, "duplicate slot name");
    }

    #[test]
    fn coverage_is_deterministic_and_merge_is_or() {
        let mut fz = Fuzzer::new(11);
        let layout = fz.layout();
        let ops = fz.engine_ops(&layout, 500);
        let a = coverage_of(&layout, &ops);
        let b = coverage_of(&layout, &ops);
        assert_eq!(a, b, "same ops, same map");
        assert!(a.bit_count() > 0);
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged, a, "self-merge is identity");
        assert!(!a.has_novel_bits_over(&merged));
    }

    #[test]
    fn hex_round_trips_and_rejects_garbage() {
        let mut fz = Fuzzer::new(3);
        let layout = fz.layout();
        let ops = fz.engine_ops(&layout, 800);
        let map = coverage_of(&layout, &ops);
        let hex = map.to_hex();
        assert_eq!(hex.len(), COVERAGE_SLOTS * 2);
        assert_eq!(CoverageMap::from_hex(&hex).unwrap(), map);
        assert!(CoverageMap::from_hex("zz").is_err());
        assert!(CoverageMap::from_hex(&hex[1..]).is_err());
        let mut bad = hex;
        bad.replace_range(0..2, "zz");
        assert!(CoverageMap::from_hex(&bad).is_err());
    }

    #[test]
    fn generator_run_hits_the_interesting_slots() {
        // 10k generated ops must light the events the families were
        // built to provoke: issues, filtering, overflow, chain depth,
        // alias mismatches, wrap-around branches.
        let map = baseline_coverage(0xDCFB, 10_000);
        let hit = map.hit_slot_names();
        for want in [
            "demand-miss",
            "seq-issue",
            "dis-issue",
            "rlu-filtered",
            "queue-overflow",
            "depth-cutoff",
            "alias-decode-mismatch",
            "unresolved-indirect",
            "wrap-around-branch",
            "fam-alias",
        ] {
            assert!(hit.contains(&want), "missing {want}; hit: {hit:?}");
        }
        assert!(map.slot_fraction() > 0.5, "{}", map.slot_fraction());
    }

    #[test]
    fn baseline_streaming_matches_single_shot() {
        // The chunked baseline must equal a one-shot generation of the
        // same budget (rng consumption is sequential either way).
        let mut fz = Fuzzer::new(9);
        let layout = fz.layout();
        let ops = fz.engine_ops(&layout, 6000);
        assert_eq!(baseline_coverage(9, 6000), coverage_of(&layout, &ops));
    }

    #[test]
    fn novelty_detects_new_bits() {
        let mut fz = Fuzzer::new(5);
        let layout = fz.layout();
        let small = coverage_of(&layout, &fz.engine_ops(&layout, 20));
        let mut fz2 = Fuzzer::new(5);
        let layout2 = fz2.layout();
        let big = coverage_of(&layout2, &fz2.engine_ops(&layout2, 5_000));
        assert!(big.has_novel_bits_over(&small));
        assert!(big.novel_bits_over(&small) > 0);
        assert_eq!(small.novel_bits_over(&small), 0);
    }
}
