//! Program-image construction: server-like static code structure.
//!
//! An image is a population of functions laid out contiguously in the
//! simulated address space. Function 0 is the *dispatcher*: an endless
//! loop that indirect-calls one of the root handler functions per
//! "transaction", mimicking a server's request loop. Every other
//! function is a chain of segments (straight code, if/else with a cold
//! alternative, loops, call sites) ending in a single `Return`.

use crate::params::WorkloadParams;
use dcfb_trace::{
    block_of, Addr, Block, CodeMemory, IsaMode, StaticInstr, StaticKind, BLOCK_BYTES,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Base address of the code image.
pub const IMAGE_BASE: Addr = 0x0040_0000;

/// Resolved terminator of a basic block.
///
/// Targets are *basic-block indexes within the owning function*, except
/// for calls, which name a callee function.
#[derive(Clone, Debug, PartialEq)]
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
    /// Indirect call through a dispatch table.
    IndirectCall {
        /// Candidate callee function indexes.
        callees: Vec<u32>,
        /// Cumulative selection weights, same length as `callees`,
        /// ending at 1.0.
        cum_weights: Vec<f64>,
    },
    /// Function return.
    Return,
}

/// One basic block: a run of instructions ending (optionally) in a
/// branch.
#[derive(Clone, Debug)]
pub struct BasicBlock {
    /// Address of the first instruction.
    pub start: Addr,
    /// Index of the first instruction in [`ProgramImage::instrs`].
    pub first_instr: u32,
    /// Number of instructions, including the terminator branch (if the
    /// terminator is not [`Terminator::FallThrough`]).
    pub n_instrs: u32,
    /// Whether this is a cold alternative block (else / catch path).
    pub cold: bool,
    /// How the block ends.
    pub term: Terminator,
}

/// One function of the image.
#[derive(Clone, Debug)]
pub struct Function {
    /// Entry address (start of basic block 0).
    pub entry: Addr,
    /// Basic blocks in layout order.
    pub blocks: Vec<BasicBlock>,
}

impl Function {
    /// The address of this function's `Return` instruction.
    pub fn return_pc(&self, image: &ProgramImage) -> Addr {
        // Construction guarantees at least one block ending in `Return`;
        // an empty function would be a builder bug, caught loudly in
        // debug builds and degraded to the entry address in release.
        let Some(last) = self.blocks.last() else {
            debug_assert!(false, "function has no blocks");
            return self.entry;
        };
        debug_assert!(matches!(last.term, Terminator::Return));
        image.instrs[(last.first_instr + last.n_instrs - 1) as usize].pc
    }
}

/// A fully laid-out synthetic program.
pub struct ProgramImage {
    params: WorkloadParams,
    isa: IsaMode,
    functions: Vec<Function>,
    instrs: Vec<StaticInstr>,
    roots: Vec<u32>,
    end: Addr,
    /// Number of block slots (see [`ProgramImage::block_slots`]).
    block_slots: usize,
    /// Index into `instrs` of each slot's first instruction, plus one
    /// trailing entry (`instrs.len()`): slot `s` holds
    /// `instrs[slot_first[s]..slot_first[s + 1]]`.
    slot_first: Vec<u32>,
}

/// Internal plan for one basic block before layout.
struct PlanBb {
    sizes: Vec<u8>,
    cold: bool,
    term: PlanTerm,
}

enum PlanTerm {
    FallThrough,
    CondSkip {
        p_taken: f64,
        skip: u32,
    }, // taken_to = own index + 1 + skip
    LoopBack {
        iters: u32,
    }, // taken_to = own index
    DispatchJump, // dispatcher's back edge
    Call {
        callee: u32,
    },
    IndirectCall {
        callees: Vec<u32>,
        cum_weights: Vec<f64>,
    },
    Return,
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

        // ---- Pass 1: plan structure. ----
        let mut plans: Vec<Vec<PlanBb>> = Vec::with_capacity(n_fns);
        // Function 0: dispatcher — one block ending in an indirect call
        // over the roots, followed by a jump back (modelled as a
        // 2-block loop: [body + IndirectCall][Jump back to 0]).
        {
            let root_zipf = Zipf::new(roots.len(), 0.3);
            let cum = root_zipf.cum.clone();
            let body_sizes: Vec<u8> = (0..6).map(|_| isa.draw_size(rng.gen())).collect();
            let jump_sizes: Vec<u8> = vec![isa.draw_size(rng.gen())];
            plans.push(vec![
                PlanBb {
                    sizes: body_sizes,
                    cold: false,
                    term: PlanTerm::IndirectCall {
                        callees: roots.clone(),
                        cum_weights: cum,
                    },
                },
                PlanBb {
                    sizes: jump_sizes,
                    cold: false,
                    term: PlanTerm::DispatchJump,
                },
            ]);
        }
        for fid in 1..n_fns as u32 {
            // Function size scales down with DAG level: root-side logic
            // is large and executed once per transaction, while deep
            // (heavily shared) utility leaves are small — so repeated
            // subtrees stay small and the instruction stream keeps
            // plowing through cold code, as in real server stacks.
            let level_frac = f64::from(level_of[fid as usize]) / n_levels.max(1) as f64;
            let seg_mean = (params.avg_segments * (1.7 - 1.5 * level_frac)).max(1.0);
            let n_segments = geometric(&mut rng, seg_mean);
            let mut bbs: Vec<PlanBb> = Vec::new();
            for _ in 0..n_segments {
                let hot_n = geometric(&mut rng, params.avg_bb_instrs);
                let roll: f64 = rng.gen_range(0.0..1.0);
                let mk_sizes = |rng: &mut SmallRng, n: u32, extra_branch: bool| -> Vec<u8> {
                    let total = n + u32::from(extra_branch);
                    (0..total).map(|_| isa.draw_size(rng.gen())).collect()
                };
                if roll < params.cold_frac {
                    // Hot block ends with a biased branch skipping a cold
                    // alternative.
                    let p_skip = 1.0 - params.cold_taken_prob;
                    let sizes = mk_sizes(&mut rng, hot_n, true);
                    bbs.push(PlanBb {
                        sizes,
                        cold: false,
                        term: PlanTerm::CondSkip {
                            p_taken: p_skip,
                            skip: 1,
                        },
                    });
                    let cold_n = geometric(&mut rng, params.avg_cold_instrs);
                    bbs.push(PlanBb {
                        sizes: mk_sizes(&mut rng, cold_n, false),
                        cold: true,
                        term: PlanTerm::FallThrough,
                    });
                } else if roll < params.cold_frac + params.loop_frac {
                    // Loop body: longer run, backward edge with a fixed
                    // per-site trip count (learnable exit).
                    let body_n = geometric(&mut rng, params.avg_bb_instrs * 3.0);
                    let iters = geometric(&mut rng, params.avg_loop_iters).max(2);
                    bbs.push(PlanBb {
                        sizes: mk_sizes(&mut rng, body_n, true),
                        cold: false,
                        term: PlanTerm::LoopBack { iters },
                    });
                } else if roll < params.cold_frac + params.loop_frac + params.call_frac {
                    let indirect = rng.gen_range(0.0..1.0) < params.indirect_frac;
                    if indirect {
                        let k = rng.gen_range(2..=4usize);
                        let callees: Vec<u32> =
                            (0..k).filter_map(|_| pick_callee(&mut rng, fid)).collect();
                        if callees.is_empty() {
                            bbs.push(PlanBb {
                                sizes: mk_sizes(&mut rng, hot_n, false),
                                cold: false,
                                term: PlanTerm::FallThrough,
                            });
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
                        bbs.push(PlanBb {
                            sizes: mk_sizes(&mut rng, hot_n, true),
                            cold: false,
                            term: PlanTerm::IndirectCall {
                                callees,
                                cum_weights: w,
                            },
                        });
                    } else if let Some(callee) = pick_callee(&mut rng, fid) {
                        bbs.push(PlanBb {
                            sizes: mk_sizes(&mut rng, hot_n, true),
                            cold: false,
                            term: PlanTerm::Call { callee },
                        });
                    } else {
                        bbs.push(PlanBb {
                            sizes: mk_sizes(&mut rng, hot_n, false),
                            cold: false,
                            term: PlanTerm::FallThrough,
                        });
                    }
                } else {
                    // Straight code, occasionally biased/noisy branch to
                    // next block (pure fall-through otherwise).
                    bbs.push(PlanBb {
                        sizes: mk_sizes(&mut rng, hot_n, false),
                        cold: false,
                        term: PlanTerm::FallThrough,
                    });
                }
            }
            // Epilogue block with the single return.
            let epi_n = geometric(&mut rng, 3.0);
            let sizes: Vec<u8> = (0..epi_n + 1).map(|_| isa.draw_size(rng.gen())).collect();
            bbs.push(PlanBb {
                sizes,
                cold: false,
                term: PlanTerm::Return,
            });
            plans.push(bbs);
        }

        // ---- Pass 2: layout. ----
        let mut cursor: Addr = IMAGE_BASE;
        let mut fn_entries: Vec<Addr> = Vec::with_capacity(n_fns);
        let mut bb_starts: Vec<Vec<Addr>> = Vec::with_capacity(n_fns);
        for plan in &plans {
            // Align function entries to 16 bytes.
            cursor = (cursor + 15) & !15;
            fn_entries.push(cursor);
            let mut starts = Vec::with_capacity(plan.len());
            for bb in plan {
                starts.push(cursor);
                cursor += bb.sizes.iter().map(|&s| Addr::from(s)).sum::<Addr>();
            }
            bb_starts.push(starts);
        }
        let end = cursor;

        // ---- Pass 3: materialize instructions. ----
        let mut instrs: Vec<StaticInstr> = Vec::new();
        let block_slots = end.saturating_sub(IMAGE_BASE).div_ceil(BLOCK_BYTES) as usize;
        let mut slot_first: Vec<u32> = Vec::with_capacity(block_slots + 1);
        let mut functions: Vec<Function> = Vec::with_capacity(n_fns);
        for (fid, plan) in plans.iter().enumerate() {
            let mut blocks = Vec::with_capacity(plan.len());
            for (bid, bb) in plan.iter().enumerate() {
                let start = bb_starts[fid][bid];
                let first_instr = instrs.len() as u32;
                let mut pc = start;
                let n = bb.sizes.len();
                for (i, &size) in bb.sizes.iter().enumerate() {
                    let is_term = i + 1 == n;
                    let (kind, target) = if is_term {
                        match &bb.term {
                            PlanTerm::FallThrough => (StaticKind::Other, None),
                            PlanTerm::CondSkip { skip, .. } => {
                                let tgt = bb_starts[fid][bid + 1 + *skip as usize];
                                (StaticKind::CondBranch, Some(tgt))
                            }
                            PlanTerm::LoopBack { .. } => (StaticKind::CondBranch, Some(start)),
                            PlanTerm::DispatchJump => (StaticKind::CondBranch, Some(start)),
                            PlanTerm::Call { callee } => {
                                (StaticKind::Call, Some(fn_entries[*callee as usize]))
                            }
                            PlanTerm::IndirectCall { .. } => (StaticKind::IndirectCall, None),
                            PlanTerm::Return => (StaticKind::Return, None),
                        }
                    } else {
                        (StaticKind::Other, None)
                    };
                    // Index each block slot's first instruction as the
                    // (address-ordered) instructions are laid down.
                    let slot = (block_of(pc) - block_of(IMAGE_BASE)) as usize;
                    while slot_first.len() <= slot {
                        slot_first.push(instrs.len() as u32);
                    }
                    instrs.push(StaticInstr {
                        pc,
                        size,
                        kind,
                        target,
                    });
                    pc += Addr::from(size);
                }
                let term = match &bb.term {
                    PlanTerm::FallThrough => Terminator::FallThrough,
                    PlanTerm::CondSkip { p_taken, skip } => Terminator::Cond {
                        p_taken: *p_taken,
                        taken_to: bid as u32 + 1 + skip,
                    },
                    PlanTerm::LoopBack { iters } => Terminator::Loop {
                        iters: *iters,
                        taken_to: bid as u32,
                    },
                    PlanTerm::DispatchJump => Terminator::Cond {
                        p_taken: 1.0,
                        taken_to: bid as u32,
                    },
                    PlanTerm::Call { callee } => Terminator::Call { callee: *callee },
                    PlanTerm::IndirectCall {
                        callees,
                        cum_weights,
                    } => Terminator::IndirectCall {
                        callees: callees.clone(),
                        cum_weights: cum_weights.clone(),
                    },
                    PlanTerm::Return => Terminator::Return,
                };
                blocks.push(BasicBlock {
                    start,
                    first_instr,
                    n_instrs: bb.sizes.len() as u32,
                    cold: bb.cold,
                    term,
                });
            }
            functions.push(Function {
                entry: fn_entries[fid],
                blocks,
            });
        }

        // Dispatcher's loop-back is a Jump in spirit; rewrite bb1's
        // terminator instruction to an unconditional Jump back to bb0.
        {
            let disp = &functions[0];
            let bb1 = &disp.blocks[1];
            let idx = (bb1.first_instr + bb1.n_instrs - 1) as usize;
            instrs[idx].kind = StaticKind::Jump;
            instrs[idx].target = Some(disp.entry);
        }
        slot_first.resize(block_slots + 1, instrs.len() as u32);
        let mut image = ProgramImage {
            params: params.clone(),
            isa,
            functions,
            instrs,
            roots,
            end,
            block_slots,
            slot_first,
        };
        image.functions[0].blocks[1].term = Terminator::Jump { to: 0 };
        debug_assert!(image.instrs.windows(2).all(|w| w[0].pc < w[1].pc));
        image
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

    /// The flat, address-sorted static instruction array.
    pub fn instrs(&self) -> &[StaticInstr] {
        &self.instrs
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
        let mut n = 0;
        let mut last = None;
        for i in &self.instrs {
            let b = block_of(i.pc);
            if last != Some(b) {
                n += 1;
                last = Some(b);
            }
        }
        n
    }

    /// Counts static branch sites by class:
    /// `(conditional, unconditional_direct, indirect, returns)`.
    pub fn branch_census(&self) -> (usize, usize, usize, usize) {
        let mut cond = 0;
        let mut uncond = 0;
        let mut indirect = 0;
        let mut rets = 0;
        for i in &self.instrs {
            match i.kind {
                StaticKind::CondBranch => cond += 1,
                StaticKind::Jump | StaticKind::Call => uncond += 1,
                StaticKind::IndirectJump | StaticKind::IndirectCall => indirect += 1,
                StaticKind::Return => rets += 1,
                StaticKind::Other => {}
            }
        }
        (cond, uncond, indirect, rets)
    }

    /// Number of block slots: one per 64-byte block from
    /// [`IMAGE_BASE`] up to [`ProgramImage::end`]. Block `b` of the
    /// image has slot `b - block_of(IMAGE_BASE)`.
    pub fn block_slots(&self) -> usize {
        self.block_slots
    }

    /// The instructions of `block` as a slice (no allocation): two
    /// loads from the per-slot index built with the image.
    pub fn block_slice(&self, block: Block) -> &[StaticInstr] {
        match self.block_slot(block) {
            Some(slot) => {
                &self.instrs[self.slot_first[slot] as usize..self.slot_first[slot + 1] as usize]
            }
            None => &[],
        }
    }
}

impl CodeMemory for ProgramImage {
    fn for_each_in_block(&self, block: Block, f: &mut dyn FnMut(&StaticInstr)) {
        self.block_slice(block).iter().for_each(f);
    }

    /// The block's offset from the image base, for blocks inside the
    /// image.
    #[inline]
    fn block_slot(&self, block: Block) -> Option<usize> {
        let slot = block.checked_sub(block_of(IMAGE_BASE))? as usize;
        (slot < self.block_slots).then_some(slot)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests;
