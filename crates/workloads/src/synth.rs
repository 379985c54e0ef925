//! The trace walker: executes a [`ProgramImage`] to produce a dynamic
//! instruction stream.
//!
//! The walker starts in the dispatcher (function 0), which indirect-calls
//! a root handler per transaction; control flow then follows the image's
//! terminators, with conditional directions and indirect-call targets
//! drawn from a seeded RNG. Because the call graph is a DAG (see
//! [`crate::image`]), the call stack is bounded and every `Call` is
//! matched by exactly one `Return`.

use crate::image::{ProgramImage, Terminator};
use dcfb_trace::{Addr, Instr, InstrKind, InstrStream};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A deterministic, endless instruction stream over a program image.
pub struct Walker {
    image: Arc<ProgramImage>,
    rng: SmallRng,
    cur_fn: u32,
    /// Index in [`ProgramImage::blocks`] of the current basic block.
    cur_bb: u32,
    /// Index of the next instruction (see
    /// [`ProgramImage::instr_size`]).
    cur_idx: u32,
    /// Address of the next instruction.
    pc: Addr,
    /// Index of the current basic block's last instruction (its
    /// terminator): every instruction before it is a plain
    /// fall-through, emitted from its size byte alone.
    bb_last: u32,
    stack: Vec<(u32, u32)>, // (function, resume bb)
    /// Trips left of the active loop, 0 when none. A `Loop` terminator
    /// targets its own block, which makes no call, so at most one loop
    /// is active and it is the current block.
    loop_left: u32,
    emitted: u64,
    transactions: u64,
    max_depth_seen: usize,
    #[cfg(debug_assertions)]
    expected_pc: Option<Addr>,
}

impl Walker {
    /// Creates a walker over `image` seeded with `seed`.
    pub fn new(image: Arc<ProgramImage>, seed: u64) -> Self {
        let mut w = Walker {
            image,
            rng: SmallRng::seed_from_u64(seed ^ 0x00a1_7e57_0000_0001),
            cur_fn: 0,
            cur_bb: 0,
            cur_idx: 0,
            pc: 0,
            bb_last: 0,
            stack: Vec::with_capacity(64),
            loop_left: 0,
            emitted: 0,
            transactions: 0,
            max_depth_seen: 0,
            #[cfg(debug_assertions)]
            expected_pc: None,
        };
        // The dispatcher's first block is the image's first.
        w.enter(0, 0);
        w
    }

    /// The image this walker executes.
    pub fn image(&self) -> &Arc<ProgramImage> {
        &self.image
    }

    /// Instructions emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Completed dispatcher transactions (root handler invocations).
    pub fn transactions(&self) -> u64 {
        self.transactions
    }

    /// Deepest call stack observed.
    pub fn max_depth_seen(&self) -> usize {
        self.max_depth_seen
    }

    /// Moves to the start of basic block `bb` (an index into
    /// [`ProgramImage::blocks`]) of function `f`.
    #[inline]
    fn enter(&mut self, f: u32, bb: u32) {
        let b = self.image.block(bb);
        self.cur_fn = f;
        self.cur_bb = bb;
        self.cur_idx = b.first_instr;
        self.pc = b.start;
        self.bb_last = b.first_instr + b.n_instrs - 1;
    }

    /// Debug-build check that the stream is control-flow consistent.
    #[inline]
    fn check_continuity(&mut self, out: &Instr) {
        #[cfg(debug_assertions)]
        {
            if let Some(exp) = self.expected_pc {
                debug_assert_eq!(exp, out.pc, "trace discontinuity at {:#x}", out.pc);
            }
            self.expected_pc = Some(out.next_pc());
        }
        let _ = out;
    }
}

/// Where the walker goes after emitting a block terminator.
enum Next {
    Bb(u32),       // another bb of the same function
    CallInto(u32), // push frame, enter callee
    Pop,           // return to caller frame
}

impl InstrStream for Walker {
    /// Inlinable fast path: inside a basic block every instruction
    /// before the terminator is a plain fall-through, emitted from the
    /// running pc and one size byte.
    #[inline]
    fn next_instr(&mut self) -> Option<Instr> {
        if self.cur_idx < self.bb_last {
            let size = self.image.instr_size(self.cur_idx);
            let out = Instr::other(self.pc, size);
            self.cur_idx += 1;
            self.pc += Addr::from(size);
            self.check_continuity(&out);
            self.emitted += 1;
            return Some(out);
        }
        Some(self.terminator())
    }
}

impl Walker {
    /// Emits the current basic block's terminator and moves to the
    /// next basic block.
    fn terminator(&mut self) -> Instr {
        // Borrowed, not cloned: the image `Arc` is shared with the
        // machine's code memory and with concurrent runs of the same
        // workload, so a per-instruction refcount write would bounce
        // its cache line between cores.
        let image: &ProgramImage = &self.image;
        let (pc, size) = (self.pc, image.instr_size(self.cur_idx));
        let bb_start = |bb: u32| image.block(bb).start;
        let (out, next) = match image.block(self.cur_bb).term {
            Terminator::FallThrough => (Instr::other(pc, size), Next::Bb(self.cur_bb + 1)),
            Terminator::Cond { p_taken, taken_to } => {
                let taken = self.rng.gen_range(0.0..1.0) < p_taken;
                let instr = Instr::branch(
                    pc,
                    size,
                    InstrKind::CondBranch { taken },
                    bb_start(taken_to),
                );
                let next = if taken {
                    Next::Bb(taken_to)
                } else {
                    Next::Bb(self.cur_bb + 1)
                };
                (instr, next)
            }
            Terminator::Loop { iters, taken_to } => {
                let remaining = if self.loop_left == 0 {
                    iters
                } else {
                    self.loop_left
                };
                let taken = remaining > 1;
                self.loop_left = if taken { remaining - 1 } else { 0 };
                let instr = Instr::branch(
                    pc,
                    size,
                    InstrKind::CondBranch { taken },
                    bb_start(taken_to),
                );
                let next = if taken {
                    Next::Bb(taken_to)
                } else {
                    Next::Bb(self.cur_bb + 1)
                };
                (instr, next)
            }
            Terminator::Jump { to } => (
                Instr::branch(pc, size, InstrKind::Jump, bb_start(to)),
                Next::Bb(to),
            ),
            Terminator::Call { callee } => (
                Instr::branch(
                    pc,
                    size,
                    InstrKind::Call,
                    image.functions()[callee as usize].entry,
                ),
                Next::CallInto(callee),
            ),
            Terminator::IndirectCall { first, len } => {
                let (callees, cum_weights) = image.call_table(first, len);
                let u: f64 = self.rng.gen_range(0.0..1.0);
                let pick = cum_weights
                    .partition_point(|&c| c < u)
                    .min(callees.len() - 1);
                let callee = callees[pick];
                (
                    Instr::branch(
                        pc,
                        size,
                        InstrKind::IndirectCall,
                        image.functions()[callee as usize].entry,
                    ),
                    Next::CallInto(callee),
                )
            }
            Terminator::Return => {
                // Safety net (0, 0): never hit, the dispatcher never
                // returns.
                let (_, rbb) = self.stack.last().copied().unwrap_or((0, 0));
                (
                    Instr::branch(pc, size, InstrKind::Return, bb_start(rbb)),
                    Next::Pop,
                )
            }
        };

        self.check_continuity(&out);

        match next {
            Next::Bb(b) => self.enter(self.cur_fn, b),
            Next::CallInto(callee) => {
                self.stack.push((self.cur_fn, self.cur_bb + 1));
                self.max_depth_seen = self.max_depth_seen.max(self.stack.len());
                if self.cur_fn == 0 {
                    self.transactions += 1;
                }
                let first = self.image.functions()[callee as usize].first_block;
                self.enter(callee, first);
            }
            Next::Pop => {
                let (rf, rbb) = self.stack.pop().unwrap_or((0, 0));
                self.enter(rf, rbb);
            }
        }

        self.emitted += 1;
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::params::WorkloadParams;
    use dcfb_trace::{IsaMode, StreamStats};

    fn walker(seed: u64) -> Walker {
        let params = WorkloadParams {
            functions: 60,
            root_functions: 8,
            ..WorkloadParams::default()
        };
        let image = Arc::new(ProgramImage::build(&params, 11, IsaMode::Fixed4));
        Walker::new(image, seed)
    }

    #[test]
    fn trace_is_control_flow_consistent() {
        let mut w = walker(1);
        let mut prev: Option<Instr> = None;
        for _ in 0..200_000 {
            let i = w.next_instr().unwrap();
            if let Some(p) = prev {
                assert_eq!(p.next_pc(), i.pc, "discontinuity after {:#x}", p.pc);
            }
            prev = Some(i);
        }
    }

    #[test]
    fn walker_is_deterministic() {
        let mut a = walker(5);
        let mut b = walker(5);
        for _ in 0..50_000 {
            assert_eq!(a.next_instr(), b.next_instr());
        }
    }

    /// FNV-1a over the first `n` instructions of `w`.
    fn stream_digest(w: &mut Walker, n: usize) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for _ in 0..n {
            let i = w.next_instr().unwrap();
            let taken = matches!(i.kind, InstrKind::CondBranch { taken: true });
            let mut bytes = [0u8; 18];
            bytes[..8].copy_from_slice(&i.pc.to_le_bytes());
            bytes[8] = i.size;
            bytes[9] = i.kind.static_kind() as u8 | u8::from(taken) << 4;
            bytes[10..].copy_from_slice(&i.target.to_le_bytes());
            for b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// Stream digests of the seven catalog workloads (200 K
    /// instructions, trace seed 1), `(fixed, variable)`, in
    /// `workload_names()` order; pinned so that a change to how the
    /// image or the walker stores its state cannot move the stream.
    const CATALOG_STREAM_DIGESTS: [(u64, u64); 7] = [
        (0x0682_c01d_2d7c_a03e, 0x0276_3402_a718_be74),
        (0xd0d2_21f6_b153_e395, 0xca12_1dd8_2e10_dfb8),
        (0x9383_ee29_efdf_f29a, 0xdfad_7b62_ffed_10c8),
        (0xfdab_c81a_27af_065a, 0xef45_ad09_111c_4328),
        (0xaa6d_d3d9_4d9f_f8eb, 0x0cc9_7545_1ed0_09b9),
        (0x61c5_5bbf_b7de_28e2, 0x3981_fe7e_42d4_84be),
        (0xcf13_2990_0c31_06b6, 0x9aa7_0627_1467_d8c0),
    ];

    #[test]
    fn catalog_streams_match_pinned_digests() {
        let got: Vec<(u64, u64)> = crate::all_workloads()
            .iter()
            .map(|w| {
                let mut f = w.walker(IsaMode::Fixed4, 1);
                let mut v = w.walker(IsaMode::Variable, 1);
                (
                    stream_digest(&mut f, 200_000),
                    stream_digest(&mut v, 200_000),
                )
            })
            .collect();
        assert_eq!(got, CATALOG_STREAM_DIGESTS);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = walker(1);
        let mut b = walker(2);
        let diverged = (0..50_000).any(|_| a.next_instr() != b.next_instr());
        assert!(diverged);
    }

    #[test]
    fn calls_and_returns_balance() {
        let mut w = walker(3);
        let stats = StreamStats::measure(&mut w, 500_000);
        assert!(stats.calls > 0);
        assert!(stats.returns > 0);
        // Calls and returns match within the residual open stack depth.
        let open = stats.calls as i64 - stats.returns as i64;
        assert!(open >= 0, "more returns than calls");
        assert!(open <= w.max_depth_seen() as i64 + 1);
    }

    #[test]
    fn stack_depth_is_bounded() {
        let mut w = walker(4);
        for _ in 0..500_000 {
            w.next_instr();
        }
        assert!(
            w.max_depth_seen() < 64,
            "depth {} too deep",
            w.max_depth_seen()
        );
        assert!(w.transactions() > 0, "no transactions completed");
    }

    #[test]
    fn pcs_stay_inside_image() {
        let mut w = walker(6);
        let image = Arc::clone(w.image());
        for _ in 0..100_000 {
            let i = w.next_instr().unwrap();
            assert!(i.pc >= crate::image::IMAGE_BASE);
            assert!(i.pc < image.end());
        }
    }

    #[test]
    fn branch_mix_is_server_like() {
        let mut w = walker(7);
        let stats = StreamStats::measure(&mut w, 1_000_000);
        let density = stats.branch_density();
        // Server code: roughly 1 branch per 4-8 instructions.
        assert!((0.05..0.35).contains(&density), "branch density {density}");
        // Conditionals are mostly biased-taken or not-taken, but both
        // directions occur.
        assert!(stats.cond_taken > 0);
        assert!(stats.cond_taken < stats.cond_branches);
    }

    #[test]
    fn footprint_touches_many_blocks() {
        let mut w = walker(8);
        let stats = StreamStats::measure(&mut w, 1_000_000);
        assert!(
            stats.footprint_blocks > 200,
            "footprint {} blocks too small",
            stats.footprint_blocks
        );
    }

    #[test]
    fn variable_isa_trace_is_consistent_too() {
        let params = WorkloadParams {
            functions: 40,
            root_functions: 6,
            ..WorkloadParams::default()
        };
        let image = Arc::new(ProgramImage::build(&params, 13, IsaMode::Variable));
        let mut w = Walker::new(image, 9);
        let mut prev: Option<Instr> = None;
        for _ in 0..100_000 {
            let i = w.next_instr().unwrap();
            if let Some(p) = prev {
                assert_eq!(p.next_pc(), i.pc);
            }
            prev = Some(i);
        }
    }
}
