//! The deterministic trace fuzzer.
//!
//! Seeded from the vendored `rand` (xoshiro256++ behind
//! `SmallRng::seed_from_u64`), so the same seed always produces the
//! same op sequences — replays are bit-identical, and a divergence
//! reported by `dcfb conformance --seed N` reproduces under the same
//! `N` forever.
//!
//! The generators are adversarial on purpose, aimed at the places the
//! paper's structures can go subtly wrong:
//!
//! * **aliasing sets** — blocks congruent modulo the (deliberately
//!   small) table sizes, so direct-mapped slots and partial tags are
//!   hammered with conflicting residents;
//! * **wrap-around offsets** — branches in the last instruction slot of
//!   a block (byte offset 60), the boundary the offset arithmetic has
//!   to get right;
//! * **dense call/return chains** — block *b* calls *b+1* from its
//!   final slot, chaining across the whole family;
//! * **discontinuity storms** — every storm block jumps to another
//!   random storm block, so the DisTable churns and proactive chains
//!   fan out;
//! * **indirect branches** — encodings with no target, only sometimes
//!   resolvable through the BTB.

use crate::ops::{BtbBufOp, CodeLayout, DisTableOp, EngineOp, PfBufOp, RecentBranch, RluOp, SeqOp};
use dcfb_frontend::{BranchClass, BtbEntry};
use dcfb_telemetry::PfSource;
use dcfb_trace::{splitmix64, Block};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Table sizes the structure harnesses use: small enough that 10 k
/// fuzzed ops revisit every slot many times over.
pub const FUZZ_TABLE_ENTRIES: usize = 64;

/// Queue capacity for the fuzzed proactive engine (small enough to
/// overflow).
pub const FUZZ_QUEUE_CAPACITY: usize = 8;

/// Capacity of the fuzzed L1i prefetch buffer.
pub const FUZZ_PF_BUFFER_CAPACITY: usize = 16;

/// Geometry of the fuzzed BTB prefetch buffer (the paper's 32×2).
pub const FUZZ_BTB_BUF: (usize, usize) = (32, 2);

/// The proactive-engine configuration the fuzz harnesses run: paper
/// semantics (depth 4, RLU 8, per-cycle budgets) over deliberately
/// tiny tables and queues so aliasing and overflow happen within a
/// 10 k-op run.
pub fn fuzz_proactive_config() -> dcfb_prefetch::Sn4lDisConfig {
    dcfb_prefetch::Sn4lDisConfig {
        seq_entries: FUZZ_TABLE_ENTRIES,
        dis_entries: FUZZ_TABLE_ENTRIES,
        queue_capacity: FUZZ_QUEUE_CAPACITY,
        ..dcfb_prefetch::Sn4lDisConfig::default()
    }
}

/// Derives an independent sub-seed from `(base, a, b)` — the campaign
/// seeds every `(round, candidate)` cell with this, so candidate
/// generation is a pure function of the campaign seed and the cell
/// coordinates, never of the job count or evaluation order.
pub fn derive_seed(base: u64, a: u64, b: u64) -> u64 {
    splitmix64(splitmix64(splitmix64(base) ^ a) ^ b)
}

/// The deterministic op-sequence generator.
pub struct Fuzzer {
    rng: SmallRng,
}

impl Fuzzer {
    /// Creates a fuzzer; everything it emits is a pure function of
    /// `seed` and the call sequence.
    pub fn new(seed: u64) -> Self {
        Fuzzer {
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// A block biased toward collisions in a `entries`-slot
    /// direct-mapped table: dense low blocks, aliases of a fixed base,
    /// and occasional far-away giants (tag-width stress).
    fn table_block(&mut self, entries: u64) -> Block {
        match self.rng.gen_range(0..4u32) {
            // Dense region: every slot of a small window.
            0 => self.rng.gen_range(0..entries / 2),
            // Aliasing set: same slot, climbing tags.
            1 => {
                let base = self.rng.gen_range(0..8u64);
                base + self.rng.gen_range(0..32u64) * entries
            }
            // Tag wrap: aliases whose partial tag also collides
            // (tag bits wrap every 16 × entries for a 4-bit tag).
            2 => {
                let base = self.rng.gen_range(0..8u64);
                base + self.rng.gen_range(0..4u64) * entries * 16
            }
            // Far block: large addresses, still safely below overflow.
            _ => self.rng.gen_range(0..1u64 << 38),
        }
    }

    /// Ops for the SeqTable harness.
    pub fn seq_ops(&mut self, n: usize) -> Vec<SeqOp> {
        let entries = FUZZ_TABLE_ENTRIES as u64;
        (0..n)
            .map(|_| {
                let b = self.table_block(entries);
                match self.rng.gen_range(0..4u32) {
                    0 | 1 => SeqOp::IsUseful(b),
                    2 => SeqOp::Set(b),
                    _ => SeqOp::Reset(b),
                }
            })
            .collect()
    }

    /// Ops for the DisTable harness.
    pub fn dis_table_ops(&mut self, n: usize) -> Vec<DisTableOp> {
        let entries = FUZZ_TABLE_ENTRIES as u64;
        (0..n)
            .map(|_| {
                let b = self.table_block(entries);
                if self.rng.gen_bool(0.5) {
                    DisTableOp::Record(b, self.rng.gen_range(0..16u32) as u8)
                } else {
                    DisTableOp::Lookup(b)
                }
            })
            .collect()
    }

    /// Ops for the RLU harness: a pool barely larger than the filter,
    /// so hits, misses, and FIFO evictions all happen constantly.
    pub fn rlu_ops(&mut self, n: usize) -> Vec<RluOp> {
        (0..n)
            .map(|_| {
                let b = self.rng.gen_range(0..12u64);
                if self.rng.gen_bool(0.6) {
                    RluOp::CheckInsert(b)
                } else {
                    RluOp::NoteDemand(b)
                }
            })
            .collect()
    }

    /// Ops for the BTB-prefetch-buffer harness: blocks spanning four
    /// aliases per set, fills of 0–4 branches (0 = the ignored empty
    /// fill), and takes/probes at slot boundaries including misses.
    pub fn btb_buf_ops(&mut self, n: usize) -> Vec<BtbBufOp> {
        let sets = (FUZZ_BTB_BUF.0 / FUZZ_BTB_BUF.1) as u64;
        (0..n)
            .map(|_| {
                let block = self.rng.gen_range(0..4 * sets);
                match self.rng.gen_range(0..3u32) {
                    0 => BtbBufOp::Fill {
                        block,
                        n: self.rng.gen_range(0..5u32) as u8,
                    },
                    1 => BtbBufOp::Take(block * 64 + self.rng.gen_range(0..6u64) * 4),
                    _ => BtbBufOp::Contains(block * 64 + self.rng.gen_range(0..6u64) * 4),
                }
            })
            .collect()
    }

    /// Ops for the L1i prefetch-buffer harness.
    pub fn pf_buf_ops(&mut self, n: usize) -> Vec<PfBufOp> {
        const SOURCES: [PfSource; 4] = [
            PfSource::NextLine,
            PfSource::Sn4l,
            PfSource::Dis,
            PfSource::ProactiveChain,
        ];
        (0..n)
            .map(|_| {
                let b = self
                    .rng
                    .gen_range(0..(FUZZ_PF_BUFFER_CAPACITY as u64 * 5 / 2));
                match self.rng.gen_range(0..4u32) {
                    0 | 1 => PfBufOp::Insert(b, SOURCES[self.rng.gen_range(0..4u32) as usize]),
                    2 => PfBufOp::Take(b),
                    _ => PfBufOp::Contains(b),
                }
            })
            .collect()
    }

    /// Builds the adversarial program layout the engine harnesses run
    /// over (see the module docs for the families).
    pub fn layout(&mut self) -> CodeLayout {
        let mut layout = CodeLayout::default();
        let entries = FUZZ_TABLE_ENTRIES as u64;

        // Dense call/return chain, branching from the final slot
        // (byte offset 60 — the wrap-around boundary). Block range kept
        // clear of the alias family (8 + k*64) and the storm.
        for b in 1000..1032u64 {
            layout.code.insert(
                b,
                vec![BtbEntry {
                    pc: b * 64 + 60,
                    target: (b + 1) * 64,
                    class: if b % 2 == 0 {
                        BranchClass::Call
                    } else {
                        BranchClass::Return
                    },
                }],
            );
        }

        // DisTable aliasing family: same slot modulo `entries`, branch
        // slots differing per alias so stale entries decode to nothing.
        for k in 0..8u64 {
            let b = 8 + k * entries;
            layout.code.insert(
                b,
                vec![BtbEntry {
                    pc: b * 64 + (k % 16) * 4,
                    target: (300 + k) * 64,
                    class: BranchClass::Jump,
                }],
            );
        }

        // Discontinuity storm: every storm block jumps somewhere else
        // in the storm.
        for b in 500..516u64 {
            let target = 500 + self.rng.gen_range(0..16u64);
            layout.code.insert(
                b,
                vec![BtbEntry {
                    pc: b * 64 + self.rng.gen_range(0..16u64) * 4,
                    target: target * 64,
                    class: BranchClass::Jump,
                }],
            );
        }

        // Indirect branches: no target in the encoding; only the even
        // ones are resolvable through the BTB.
        for i in 0..8u64 {
            let b = 700 + i;
            let pc = b * 64 + 28;
            layout.code.insert(
                b,
                vec![BtbEntry {
                    pc,
                    target: 0,
                    class: BranchClass::IndirectCall,
                }],
            );
            if i % 2 == 0 {
                layout.btb.insert(pc, (600 + i) * 64);
            }
        }

        layout
    }

    /// A block an engine harness might demand: drawn from the layout
    /// families, their targets, or the dense low region.
    fn engine_block(&mut self, layout: &CodeLayout) -> Block {
        match self.rng.gen_range(0..5u32) {
            0 => {
                // A block that has code (replay + pre-decode paths).
                let keys: Vec<Block> = layout.code.keys().copied().collect();
                keys[self.rng.gen_range(0..keys.len() as u64) as usize]
            }
            1 => 300 + self.rng.gen_range(0..16u64), // alias-family targets
            2 => 500 + self.rng.gen_range(0..20u64), // storm + neighbors
            3 => 1000 + self.rng.gen_range(0..36u64), // chain + overrun
            _ => self.rng.gen_range(0..64u64),       // dense low region
        }
    }

    /// A recent-branch event: usually a real branch from the layout,
    /// sometimes a bogus one (records that later decode to nothing).
    fn recent_branch(&mut self, layout: &CodeLayout) -> RecentBranch {
        if self.rng.gen_bool(0.8) {
            let branches: Vec<&BtbEntry> = layout.code.values().flatten().collect();
            let e = branches[self.rng.gen_range(0..branches.len() as u64) as usize];
            RecentBranch {
                pc: e.pc,
                target: e.target,
            }
        } else {
            let b = self.engine_block(layout);
            RecentBranch {
                pc: b * 64 + self.rng.gen_range(0..16u64) * 4,
                target: self.engine_block(layout) * 64,
            }
        }
    }

    /// Event-level ops for the SN4L / Dis / proactive harnesses.
    pub fn engine_ops(&mut self, layout: &CodeLayout, n: usize) -> Vec<EngineOp> {
        (0..n)
            .map(|_| match self.rng.gen_range(0..20u32) {
                0..=8 => {
                    let hit = self.rng.gen_bool(0.5);
                    EngineOp::Demand {
                        block: self.engine_block(layout),
                        hit,
                        hit_was_prefetched: hit && self.rng.gen_bool(0.3),
                        branch: if self.rng.gen_bool(0.7) {
                            Some(self.recent_branch(layout))
                        } else {
                            None
                        },
                    }
                }
                9..=15 => EngineOp::Tick,
                16 | 17 => EngineOp::Fill {
                    block: self.engine_block(layout),
                    was_prefetch: self.rng.gen_bool(0.5),
                },
                _ => EngineOp::Evict {
                    block: self.engine_block(layout),
                    useless: self.rng.gen_bool(0.5),
                },
            })
            .collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_ops() {
        let mk = |seed| {
            let mut f = Fuzzer::new(seed);
            let layout = f.layout();
            format!("{:?} {:?}", f.engine_ops(&layout, 200), f.seq_ops(50))
        };
        assert_eq!(mk(7), mk(7));
        assert_ne!(mk(7), mk(8));
    }

    #[test]
    fn layout_has_all_families() {
        let layout = Fuzzer::new(1).layout();
        assert!(layout.code.contains_key(&1000), "call/return chain");
        assert!(layout.code.contains_key(&8), "alias family base");
        assert!(
            layout.code.contains_key(&(8 + 7 * 64)),
            "alias family depth"
        );
        assert!(layout.code.contains_key(&500), "storm");
        assert!(layout.code.contains_key(&700), "indirects");
        assert!(layout.btb.contains_key(&(700 * 64 + 28)), "resolvable");
        assert!(!layout.btb.contains_key(&(701 * 64 + 28)), "unresolvable");
        // Wrap-around slot: chain branches sit in the final slot.
        assert_eq!(layout.code[&1000][0].pc % 64, 60);
    }

    #[test]
    fn engine_ops_mix_all_kinds() {
        let mut f = Fuzzer::new(3);
        let layout = f.layout();
        let ops = f.engine_ops(&layout, 2_000);
        let demands = ops
            .iter()
            .filter(|o| matches!(o, EngineOp::Demand { .. }))
            .count();
        let ticks = ops.iter().filter(|o| matches!(o, EngineOp::Tick)).count();
        let evicts = ops
            .iter()
            .filter(|o| matches!(o, EngineOp::Evict { .. }))
            .count();
        let fills = ops
            .iter()
            .filter(|o| matches!(o, EngineOp::Fill { .. }))
            .count();
        assert!(demands > 500 && ticks > 400 && evicts > 50 && fills > 50);
    }
}
