//! Program-image construction: server-like static code structure.
//!
//! An image is a population of functions laid out contiguously in the
//! simulated address space. Function 0 is the *dispatcher*: an endless
//! loop that indirect-calls one of the root handler functions per
//! "transaction", mimicking a server's request loop. Every other
//! function is a chain of segments (straight code, if/else with a cold
//! alternative, loops, call sites) ending in a single `Return`.
//!
//! # Storage
//!
//! The image keeps its program as basic blocks plus one size byte per
//! static instruction. Everything else about an instruction follows
//! from its basic block: a block's instructions are contiguous from its
//! start, and only its last instruction can be a branch, whose kind and
//! target the block's [`Terminator`] gives. A per-slot index names the
//! first instruction of every 64-byte block (with its basic block and
//! address), so [`CodeMemory::for_each_in_block`] builds each
//! [`StaticInstr`] on the fly.

use crate::params::WorkloadParams;
use dcfb_trace::{
    block_base, block_of, Addr, Block, CodeMemory, IsaMode, StaticInstr, StaticKind, BLOCK_BYTES,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::mem::size_of;

/// Base address of the code image.
pub const IMAGE_BASE: Addr = 0x0040_0000;

/// Resolved terminator of a basic block.
///
/// Basic-block targets are indexes into [`ProgramImage::blocks`] (always
/// a block of the owning function); calls name a callee function.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Terminator {
    /// No branch: execution continues into the next basic block.
    FallThrough,
    /// Conditional branch (forward skip), taken with a fixed
    /// probability.
    Cond {
        /// Probability the branch is taken.
        p_taken: f64,
        /// Basic-block index jumped to when taken.
        taken_to: u32,
    },
    /// Backward loop edge with a *fixed* trip count: the walker takes
    /// it `iters - 1` times, then falls through. Fixed trip counts make
    /// loop exits learnable by a history-based predictor, as in real
    /// server code.
    Loop {
        /// Total body executions per loop entry (≥ 2).
        iters: u32,
        /// Basic-block index of the loop head (the block itself).
        taken_to: u32,
    },
    /// Direct unconditional jump to a basic block of the same function.
    Jump {
        /// Target basic-block index.
        to: u32,
    },
    /// Direct call; execution resumes at the next basic block.
    Call {
        /// Callee function index.
        callee: u32,
    },
    /// Indirect call through a dispatch table: candidates
    /// `first..first + len` of the image's call table.
    IndirectCall {
        /// First candidate.
        first: u32,
        /// Number of candidates (≥ 1).
        len: u32,
    },
    /// Function return.
    Return,
}

/// One basic block: a run of instructions ending (optionally) in a
/// branch.
#[derive(Clone, Copy, Debug)]
pub struct BasicBlock {
    /// Address of the first instruction.
    pub start: Addr,
    /// Index of the first instruction in the image's address-ordered
    /// instruction sequence.
    pub first_instr: u32,
    /// Number of instructions (≥ 1), including the terminator branch
    /// (if the terminator is not [`Terminator::FallThrough`]).
    pub n_instrs: u32,
    /// Whether this is a cold alternative block (else / catch path).
    pub cold: bool,
    /// How the block ends.
    pub term: Terminator,
}

/// One function of the image.
#[derive(Clone, Copy, Debug)]
pub struct Function {
    /// Entry address (start of its first basic block).
    pub entry: Addr,
    /// Index in [`ProgramImage::blocks`] of its first basic block.
    pub first_block: u32,
    /// Number of basic blocks; the last one ends in `Return` (the
    /// dispatcher's in its back edge).
    pub n_blocks: u32,
}

/// Where a block slot's code starts: its first instruction, that
/// instruction's basic block and its offset from [`IMAGE_BASE`]. A slot
/// in which no instruction starts names the next instruction, which
/// lies past the slot (or, after the last one, the instruction count).
#[derive(Clone, Copy, Debug)]
struct SlotStart {
    instr: u32,
    bb: u32,
    off: u32,
}

// Memory tripwires: per static instruction the image stores one size
// byte; per 64-byte block one `SlotStart`; per basic block one
// `BasicBlock`. Growing any of them is a memory regression.
const _: () = assert!(size_of::<SlotStart>() == 12);
const _: () = assert!(size_of::<Terminator>() <= 16);
const _: () = assert!(size_of::<BasicBlock>() <= 40);
const _: () = assert!(size_of::<Function>() <= 16);

/// A fully laid-out synthetic program.
pub struct ProgramImage {
    params: WorkloadParams,
    isa: IsaMode,
    functions: Box<[Function]>,
    /// Every function's basic blocks, in layout (address) order.
    blocks: Box<[BasicBlock]>,
    /// The encoded size of every static instruction, in address order.
    sizes: Box<[u8]>,
    /// Indirect-call candidates, and their cumulative selection weights
    /// (each call's run ends at 1.0).
    callees: Box<[u32]>,
    cum_weights: Box<[f64]>,
    roots: Vec<u32>,
    end: Addr,
    /// One entry per block slot (see [`ProgramImage::block_slots`]).
    slots: Box<[SlotStart]>,
}

/// Pass-1 output: the program's basic blocks in layout order, their
/// instruction sizes in one flat buffer, and the indirect-call table.
#[derive(Default)]
struct Plan {
    sizes: Vec<u8>,
    blocks: Vec<BasicBlock>,
    callees: Vec<u32>,
    cum_weights: Vec<f64>,
}

impl Plan {
    /// Index the next planned block gets.
    fn next_block(&self) -> u32 {
        self.blocks.len() as u32
    }

    /// Plans a block of `n` instructions with freshly drawn sizes.
    fn block(&mut self, rng: &mut SmallRng, isa: IsaMode, n: u32, cold: bool, term: Terminator) {
        debug_assert!(n >= 1, "empty basic block");
        let first_instr = self.sizes.len() as u32;
        self.sizes.extend((0..n).map(|_| isa.draw_size(rng.gen())));
        self.blocks.push(BasicBlock {
            start: 0, // laid out in pass 2
            first_instr,
            n_instrs: n,
            cold,
            term,
        });
    }

    /// Appends an indirect call's candidates to the call table.
    fn indirect_call(&mut self, callees: &[u32], cum_weights: &[f64]) -> Terminator {
        let first = self.callees.len() as u32;
        self.callees.extend_from_slice(callees);
        self.cum_weights.extend_from_slice(cum_weights);
        Terminator::IndirectCall {
            first,
            len: callees.len() as u32,
        }
    }
}

fn geometric(rng: &mut SmallRng, mean: f64) -> u32 {
    debug_assert!(mean >= 1.0);
    if mean <= 1.0 {
        return 1;
    }
    let p = 1.0 / mean;
    let u: f64 = rng.gen_range(0.0..1.0);
    let draw = 1.0 + (1.0 - u).ln() / (1.0 - p).ln();
    (draw as u32).clamp(1, 2000)
}

/// Zipf sampler over `n` ranks with skew `s`, via precomputed cumulative
/// weights.
pub(crate) struct Zipf {
    cum: Vec<f64>,
}

impl Zipf {
    pub(crate) fn new(n: usize, s: f64) -> Self {
        let mut cum = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cum.push(total);
        }
        for c in &mut cum {
            *c /= total;
        }
        Zipf { cum }
    }

    pub(crate) fn sample(&self, rng: &mut SmallRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cum.partition_point(|&c| c < u).min(self.cum.len() - 1)
    }
}

impl ProgramImage {
    /// Builds a program image from `params` with the given `seed` and
    /// ISA mode. The result is fully deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `params` do not validate, or if the laid-out code does
    /// not fit the `u32` offset range from [`IMAGE_BASE`] that the
    /// image's indexes use.
    pub fn build(params: &WorkloadParams, seed: u64, isa: IsaMode) -> Self {
        params.validate();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_cafe_f00d_0001);
        let n_fns = params.functions + 1; // + dispatcher

        // Heat ranks: permute function ids so Zipf rank -> id is random.
        let mut heat_order: Vec<u32> = (1..n_fns as u32).collect();
        for i in (1..heat_order.len()).rev() {
            let j = rng.gen_range(0..=i);
            heat_order.swap(i, j);
        }
        // Call-graph levels: an independent random permutation. A call
        // site in `f` may only target functions of strictly higher
        // level, making the call graph a DAG — the walker's stack depth
        // is then structurally bounded (expected O(log n)) and
        // call/return pairing is exact.
        let mut by_level: Vec<u32> = (1..n_fns as u32).collect();
        for i in (1..by_level.len()).rev() {
            let j = rng.gen_range(0..=i);
            by_level.swap(i, j);
        }
        let mut level_of = vec![0u32; n_fns];
        for (level, &fid) in by_level.iter().enumerate() {
            level_of[fid as usize] = level as u32;
        }
        let zipf = Zipf::new(heat_order.len(), params.zipf_s);
        let n_levels = by_level.len();
        // Call-site targets: mostly *uniform* over eligible functions —
        // server transaction paths plow through large amounts of
        // distinct code — with a minority of Zipf-hot picks modeling
        // shared utility routines. (A fully Zipf-skewed call graph
        // concentrates execution in a cache-resident hot set and kills
        // the instruction-miss behaviour the paper studies.)
        let pick_callee = |rng: &mut SmallRng, caller: u32| -> Option<u32> {
            let caller_level = level_of[caller as usize] as usize;
            if rng.gen_range(0.0..1.0) < 0.25 {
                for _ in 0..8 {
                    let id = heat_order[zipf.sample(rng)];
                    if (level_of[id as usize] as usize) > caller_level {
                        return Some(id);
                    }
                }
            }
            if caller_level + 1 >= n_levels {
                return None;
            }
            Some(by_level[rng.gen_range(caller_level + 1..n_levels)])
        };

        // Root handlers sit at the bottom of the level DAG so each
        // transaction traverses a deep, wide subtree of mostly-unique
        // code (level-ordered calls can reach everything above them).
        let roots: Vec<u32> = by_level
            .iter()
            .copied()
            .take(params.root_functions)
            .collect();

        // ---- Pass 1: plan structure, in layout order. ----
        let mut plan = Plan::default();
        let mut functions: Vec<Function> = Vec::with_capacity(n_fns);
        // Function 0: dispatcher — one block ending in an indirect call
        // over the roots, followed by a jump back (modelled as a
        // 2-block loop: [body + IndirectCall][Jump back to block 0]).
        {
            let root_zipf = Zipf::new(roots.len(), 0.3);
            let call = plan.indirect_call(&roots, &root_zipf.cum);
            plan.block(&mut rng, isa, 6, false, call);
            plan.block(&mut rng, isa, 1, false, Terminator::Jump { to: 0 });
            functions.push(Function {
                entry: 0,
                first_block: 0,
                n_blocks: 2,
            });
        }
        for fid in 1..n_fns as u32 {
            let first_block = plan.next_block();
            // Function size scales down with DAG level: root-side logic
            // is large and executed once per transaction, while deep
            // (heavily shared) utility leaves are small — so repeated
            // subtrees stay small and the instruction stream keeps
            // plowing through cold code, as in real server stacks.
            let level_frac = f64::from(level_of[fid as usize]) / n_levels.max(1) as f64;
            let seg_mean = (params.avg_segments * (1.7 - 1.5 * level_frac)).max(1.0);
            let n_segments = geometric(&mut rng, seg_mean);
            for _ in 0..n_segments {
                let hot_n = geometric(&mut rng, params.avg_bb_instrs);
                let roll: f64 = rng.gen_range(0.0..1.0);
                let own = plan.next_block();
                if roll < params.cold_frac {
                    // Hot block ends with a biased branch skipping a cold
                    // alternative.
                    let p_skip = 1.0 - params.cold_taken_prob;
                    let term = Terminator::Cond {
                        p_taken: p_skip,
                        taken_to: own + 2,
                    };
                    plan.block(&mut rng, isa, hot_n + 1, false, term);
                    let cold_n = geometric(&mut rng, params.avg_cold_instrs);
                    plan.block(&mut rng, isa, cold_n, true, Terminator::FallThrough);
                } else if roll < params.cold_frac + params.loop_frac {
                    // Loop body: longer run, backward edge with a fixed
                    // per-site trip count (learnable exit).
                    let body_n = geometric(&mut rng, params.avg_bb_instrs * 3.0);
                    let iters = geometric(&mut rng, params.avg_loop_iters).max(2);
                    let term = Terminator::Loop {
                        iters,
                        taken_to: own,
                    };
                    plan.block(&mut rng, isa, body_n + 1, false, term);
                } else if roll < params.cold_frac + params.loop_frac + params.call_frac {
                    let indirect = rng.gen_range(0.0..1.0) < params.indirect_frac;
                    if indirect {
                        let k = rng.gen_range(2..=4usize);
                        let callees: Vec<u32> =
                            (0..k).filter_map(|_| pick_callee(&mut rng, fid)).collect();
                        if callees.is_empty() {
                            plan.block(&mut rng, isa, hot_n, false, Terminator::FallThrough);
                            continue;
                        }
                        // Skewed weights: 0.57, 0.29, 0.14 style.
                        let k = callees.len();
                        let mut w: Vec<f64> = (0..k).map(|i| 0.5f64.powi(i as i32)).collect();
                        let total: f64 = w.iter().sum();
                        let mut acc = 0.0;
                        for x in &mut w {
                            acc += *x / total;
                            *x = acc;
                        }
                        let call = plan.indirect_call(&callees, &w);
                        plan.block(&mut rng, isa, hot_n + 1, false, call);
                    } else if let Some(callee) = pick_callee(&mut rng, fid) {
                        let call = Terminator::Call { callee };
                        plan.block(&mut rng, isa, hot_n + 1, false, call);
                    } else {
                        plan.block(&mut rng, isa, hot_n, false, Terminator::FallThrough);
                    }
                } else {
                    // Straight code, occasionally biased/noisy branch to
                    // next block (pure fall-through otherwise).
                    plan.block(&mut rng, isa, hot_n, false, Terminator::FallThrough);
                }
            }
            // Epilogue block with the single return.
            let epi_n = geometric(&mut rng, 3.0);
            plan.block(&mut rng, isa, epi_n + 1, false, Terminator::Return);
            functions.push(Function {
                entry: 0,
                first_block,
                n_blocks: plan.next_block() - first_block,
            });
        }
        let Plan {
            sizes,
            mut blocks,
            callees,
            cum_weights,
        } = plan;

        // ---- Pass 2: layout. ----
        let mut cursor: Addr = IMAGE_BASE;
        for f in &mut functions {
            // Align function entries to 16 bytes.
            cursor = (cursor + 15) & !15;
            f.entry = cursor;
            for bb in &mut blocks[f.first_block as usize..][..f.n_blocks as usize] {
                bb.start = cursor;
                let bytes = &sizes[bb.first_instr as usize..][..bb.n_instrs as usize];
                cursor += bytes.iter().map(|&s| Addr::from(s)).sum::<Addr>();
            }
        }
        let end = cursor;
        assert!(
            end - IMAGE_BASE < Addr::from(u32::MAX),
            "image of {} bytes exceeds the u32 offset range",
            end - IMAGE_BASE
        );

        // ---- Pass 3: index each block slot's first instruction. ----
        let block_slots = (end - IMAGE_BASE).div_ceil(BLOCK_BYTES) as usize;
        let mut slots: Vec<SlotStart> = Vec::with_capacity(block_slots);
        for (bb, b) in blocks.iter().enumerate() {
            let mut pc = b.start;
            for instr in b.first_instr..b.first_instr + b.n_instrs {
                let slot = (block_of(pc) - block_of(IMAGE_BASE)) as usize;
                while slots.len() <= slot {
                    slots.push(SlotStart {
                        instr,
                        bb: bb as u32,
                        off: (pc - IMAGE_BASE) as u32,
                    });
                }
                pc += Addr::from(sizes[instr as usize]);
            }
        }
        // The last instruction may end in a block where none starts.
        slots.resize(
            block_slots,
            SlotStart {
                instr: sizes.len() as u32,
                bb: blocks.len() as u32,
                off: (end - IMAGE_BASE) as u32,
            },
        );

        ProgramImage {
            params: params.clone(),
            isa,
            functions: functions.into_boxed_slice(),
            blocks: blocks.into_boxed_slice(),
            sizes: sizes.into_boxed_slice(),
            callees: callees.into_boxed_slice(),
            cum_weights: cum_weights.into_boxed_slice(),
            roots,
            end,
            slots: slots.into_boxed_slice(),
        }
    }

    /// The parameters this image was built from.
    pub fn params(&self) -> &WorkloadParams {
        &self.params
    }

    /// The ISA mode of the image.
    pub fn isa(&self) -> IsaMode {
        self.isa
    }

    /// All functions; index 0 is the dispatcher.
    pub fn functions(&self) -> &[Function] {
        &self.functions
    }

    /// Every basic block, in layout order; a function's blocks are
    /// [`ProgramImage::blocks_of`].
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// The basic blocks of `f`, in layout order.
    pub fn blocks_of(&self, f: &Function) -> &[BasicBlock] {
        &self.blocks[f.first_block as usize..][..f.n_blocks as usize]
    }

    /// Basic block `bb` (an index into [`ProgramImage::blocks`]).
    #[inline]
    pub(crate) fn block(&self, bb: u32) -> &BasicBlock {
        &self.blocks[bb as usize]
    }

    /// Encoded size of static instruction `idx` (see
    /// [`BasicBlock::first_instr`]).
    #[inline]
    pub(crate) fn instr_size(&self, idx: u32) -> u8 {
        self.sizes[idx as usize]
    }

    /// The candidates of an indirect call
    /// ([`Terminator::IndirectCall`]) and their cumulative selection
    /// weights, which end at 1.0.
    #[inline]
    pub(crate) fn call_table(&self, first: u32, len: u32) -> (&[u32], &[f64]) {
        let range = first as usize..(first + len) as usize;
        (&self.callees[range.clone()], &self.cum_weights[range])
    }

    /// Root handler function indexes.
    pub fn roots(&self) -> &[u32] {
        &self.roots
    }

    /// One-past-the-end address of the image.
    pub fn end(&self) -> Addr {
        self.end
    }

    /// Static code size in bytes.
    pub fn code_bytes(&self) -> u64 {
        self.end - IMAGE_BASE
    }

    /// Number of distinct 64-byte blocks holding code.
    pub fn code_blocks(&self) -> usize {
        // An instruction starts in a slot iff the slot's first
        // instruction comes before the next slot's.
        let next = self.slots.iter().skip(1).map(|s| s.instr);
        let next = next.chain([self.sizes.len() as u32]);
        self.slots
            .iter()
            .zip(next)
            .filter(|(s, next)| s.instr < *next)
            .count()
    }

    /// Counts static branch sites by class:
    /// `(conditional, unconditional_direct, indirect, returns)`.
    pub fn branch_census(&self) -> (usize, usize, usize, usize) {
        let mut counts = [0usize; 4];
        for bb in self.blocks.iter() {
            let class = match bb.term {
                Terminator::FallThrough => continue,
                Terminator::Cond { .. } | Terminator::Loop { .. } => 0,
                Terminator::Jump { .. } | Terminator::Call { .. } => 1,
                Terminator::IndirectCall { .. } => 2,
                Terminator::Return => 3,
            };
            counts[class] += 1;
        }
        let [cond, uncond, indirect, rets] = counts;
        (cond, uncond, indirect, rets)
    }

    /// Number of block slots: one per 64-byte block from
    /// [`IMAGE_BASE`] up to [`ProgramImage::end`]. Block `b` of the
    /// image has slot `b - block_of(IMAGE_BASE)`.
    pub fn block_slots(&self) -> usize {
        self.slots.len()
    }

    /// The kind and encoded target of the instruction that ends a block
    /// with `term`.
    fn terminator_instr(&self, term: Terminator) -> (StaticKind, Option<Addr>) {
        match term {
            Terminator::FallThrough => (StaticKind::Other, None),
            Terminator::Cond { taken_to, .. } | Terminator::Loop { taken_to, .. } => {
                (StaticKind::CondBranch, Some(self.block(taken_to).start))
            }
            Terminator::Jump { to } => (StaticKind::Jump, Some(self.block(to).start)),
            Terminator::Call { callee } => (
                StaticKind::Call,
                Some(self.functions[callee as usize].entry),
            ),
            Terminator::IndirectCall { .. } => (StaticKind::IndirectCall, None),
            Terminator::Return => (StaticKind::Return, None),
        }
    }
}

impl CodeMemory for ProgramImage {
    /// Walks the block's instructions from the slot index: a pc runs on
    /// by each size byte and restarts at each basic block's start (a
    /// function's entry may be aligned past its predecessor's end).
    fn for_each_in_block(&self, block: Block, f: &mut dyn FnMut(&StaticInstr)) {
        let Some(slot) = self.block_slot(block) else {
            return;
        };
        let SlotStart { instr, bb, off } = self.slots[slot];
        let limit = block_base(block) + BLOCK_BYTES;
        let mut bb = bb;
        let mut pc = IMAGE_BASE + Addr::from(off);
        for idx in instr..self.sizes.len() as u32 {
            let b = self.block(bb);
            if idx == b.first_instr {
                pc = b.start;
            }
            if pc >= limit {
                break;
            }
            let (kind, target) = if idx + 1 == b.first_instr + b.n_instrs {
                bb += 1;
                self.terminator_instr(b.term)
            } else {
                (StaticKind::Other, None)
            };
            let size = self.instr_size(idx);
            f(&StaticInstr {
                pc,
                size,
                kind,
                target,
            });
            pc += Addr::from(size);
        }
    }

    /// The block's offset from the image base, for blocks inside the
    /// image.
    #[inline]
    fn block_slot(&self, block: Block) -> Option<usize> {
        let slot = block.checked_sub(block_of(IMAGE_BASE))? as usize;
        (slot < self.slots.len()).then_some(slot)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests;
