//! Multi-tenant interleaving: several synthetic program images sharing
//! one frontend, round-robined on a fixed instruction quantum.
//!
//! Each tenant keeps its own [`Walker`] (own control-flow state, own
//! per-lane seed) but the interleaved stream runs through a *single*
//! simulator instance, so BTB/RLU/SeqTable/L1i state is carried across
//! context switches — the pollution effect commercial frontends see
//! when many services share a core (cf. ISSUE 10 / ROADMAP item 4).
//!
//! Address layout: every synthetic image is laid out from
//! [`IMAGE_BASE`], so tenant `i` is rebased by `i *` [`TENANT_STRIDE`]
//! (256 MiB apart — far larger than any catalog image). [`MixCode`]
//! dispatches block lookups to the owning tenant and rebases the
//! returned static instructions; [`MixStream`] rebases the dynamic
//! stream the same way. Determinism: the interleaving depends only on
//! `(images, quantum, trace_seed)` — never on wall clock or `--jobs`.

use crate::image::{ProgramImage, IMAGE_BASE};
use crate::synth::Walker;
use dcfb_trace::{
    block_base, Addr, Block, CodeMemory, Instr, InstrStream, StaticInstr, BLOCK_BITS,
};
use std::sync::Arc;

/// Address distance between consecutive tenants (256 MiB).
pub const TENANT_STRIDE: Addr = 1 << 28;

/// Default context-switch quantum (instructions per tenant turn).
pub const DEFAULT_QUANTUM: u64 = 10_000;

/// One tenant's image plus its rebased address range.
struct Tenant {
    image: Arc<ProgramImage>,
    /// Address offset added to every pc/target of this tenant.
    offset: Addr,
    /// Rebased half-open code range `[lo, hi)`.
    lo: Addr,
    hi: Addr,
    /// First block slot of this tenant: the tenants' slot ranges are
    /// laid end to end in tenant order.
    slot_base: usize,
}

/// A [`CodeMemory`] that unions several rebased program images.
///
/// Tenant address ranges are disjoint by construction (stride far
/// exceeds image size, validated by the workload-source resolver), so
/// every block belongs to at most one tenant.
pub struct MixCode {
    tenants: Vec<Tenant>,
}

impl MixCode {
    /// Builds the union code memory. Tenant `i` is rebased by
    /// `i * TENANT_STRIDE`; tenant 0 keeps its native addresses. Each
    /// image must span less than a stride (the workload-source
    /// resolver rejects larger ones), so tenants never overlap.
    pub fn new(images: &[Arc<ProgramImage>]) -> Self {
        debug_assert!(images
            .iter()
            .all(|image| image.end().saturating_sub(IMAGE_BASE) < TENANT_STRIDE));
        let mut slot_base = 0;
        let tenants = images
            .iter()
            .enumerate()
            .map(|(i, image)| {
                let offset = (i as Addr) * TENANT_STRIDE;
                let t = Tenant {
                    lo: IMAGE_BASE + offset,
                    hi: image.end() + offset,
                    offset,
                    image: Arc::clone(image),
                    slot_base,
                };
                slot_base += image.block_slots();
                t
            })
            .collect();
        MixCode { tenants }
    }

    /// The tenant owning `block`, with the block's tenant-local number.
    ///
    /// Tenant `i` is rebased into stripe `i` (`i * TENANT_STRIDE`
    /// onwards) and its code starts [`IMAGE_BASE`] into the stripe; an
    /// image shorter than a stride may run past its stripe's end but
    /// never reaches the next tenant's code. So the owner is the
    /// address's stripe tenant or the one before it: two range checks,
    /// whatever the number of tenants.
    #[inline]
    fn locate(&self, block: Block) -> Option<(&Tenant, Block)> {
        let addr = block_base(block);
        let stripe = (addr / TENANT_STRIDE) as usize;
        let owns = |i: usize| self.tenants.get(i).filter(|t| addr >= t.lo && addr < t.hi);
        owns(stripe)
            .or_else(|| owns(stripe.checked_sub(1)?))
            .map(|t| (t, block - (t.offset >> BLOCK_BITS)))
    }
}

/// `s` rebased by a tenant's address `offset`.
fn rebased(s: &StaticInstr, offset: Addr) -> StaticInstr {
    StaticInstr {
        pc: s.pc + offset,
        target: s.target.map(|t| t + offset),
        ..*s
    }
}

impl CodeMemory for MixCode {
    fn for_each_in_block(&self, block: Block, f: &mut dyn FnMut(&StaticInstr)) {
        if let Some((t, inner)) = self.locate(block) {
            t.image
                .for_each_in_block(inner, &mut |s| f(&rebased(s, t.offset)));
        }
    }

    /// The owning tenant's slot base plus the block's slot in the
    /// tenant's own image.
    #[inline]
    fn block_slot(&self, block: Block) -> Option<usize> {
        let (t, inner) = self.locate(block)?;
        t.image.block_slot(inner).map(|s| t.slot_base + s)
    }
}

/// One tenant's dynamic-stream state.
struct Lane {
    walker: Walker,
    offset: Addr,
}

/// Round-robin interleaver over per-tenant [`Walker`]s.
///
/// Emits `quantum` instructions from one tenant, then switches to the
/// next (wrapping). Instruction pcs are always rebased; branch targets
/// are rebased only for branch kinds (non-branches carry `target == 0`,
/// which must stay 0).
pub struct MixStream {
    lanes: Vec<Lane>,
    quantum: u64,
    active: usize,
    /// Instructions left in the active tenant's quantum.
    left: u64,
    switches: u64,
}

/// splitmix64 finalizer — derives statistically independent per-lane
/// seeds from the run's trace seed without coupling lanes.
fn lane_seed(trace_seed: u64, lane: usize) -> u64 {
    let mut z = trace_seed.wrapping_add((lane as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl MixStream {
    /// Builds the interleaver. `quantum` must be ≥ 1 (enforced upstream
    /// by the source parser; clamped defensively here).
    pub fn new(images: &[Arc<ProgramImage>], quantum: u64, trace_seed: u64) -> Self {
        let lanes = images
            .iter()
            .enumerate()
            .map(|(i, image)| Lane {
                walker: Walker::new(Arc::clone(image), lane_seed(trace_seed, i)),
                offset: (i as Addr) * TENANT_STRIDE,
            })
            .collect();
        let quantum = quantum.max(1);
        MixStream {
            lanes,
            quantum,
            active: 0,
            left: quantum,
            switches: 0,
        }
    }

    /// Context switches performed so far.
    pub fn switches(&self) -> u64 {
        self.switches
    }
}

impl InstrStream for MixStream {
    fn next_instr(&mut self) -> Option<Instr> {
        if self.lanes.is_empty() {
            return None;
        }
        if self.left == 0 {
            self.active = (self.active + 1) % self.lanes.len();
            self.left = self.quantum;
            self.switches += 1;
        }
        let lane = &mut self.lanes[self.active];
        let mut i = lane.walker.next_instr()?;
        i.pc += lane.offset;
        if i.kind.is_branch() {
            i.target += lane.offset;
        }
        self.left -= 1;
        Some(i)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::catalog::workload;
    use dcfb_trace::{block_of, IsaMode};

    fn two_images() -> Vec<Arc<ProgramImage>> {
        vec![
            workload("Web (Apache)").unwrap().image(IsaMode::Fixed4),
            workload("Web Search").unwrap().image(IsaMode::Fixed4),
        ]
    }

    #[test]
    fn mix_code_rebases_blocks_and_targets() {
        let images = two_images();
        let code = MixCode::new(&images);
        // Tenant 0 is identity-mapped.
        let b0 = block_of(images[0].functions()[0].entry);
        assert_eq!(code.instrs_in_block(b0), images[0].instrs_in_block(b0));
        // Tenant 1 is rebased by TENANT_STRIDE, targets included.
        let entry1 = images[1].functions()[0].entry;
        let inner = block_of(entry1);
        let rebased = code.instrs_in_block(inner + (TENANT_STRIDE >> BLOCK_BITS));
        let native = images[1].instrs_in_block(inner);
        assert_eq!(rebased.len(), native.len());
        for (r, n) in rebased.iter().zip(&native) {
            assert_eq!(r.pc, n.pc + TENANT_STRIDE);
            assert_eq!(r.size, n.size);
            assert_eq!(r.kind, n.kind);
            assert_eq!(r.target, n.target.map(|t| t + TENANT_STRIDE));
        }
        // A block in neither tenant decodes to nothing.
        assert!(code.instrs_in_block(0).is_empty());
        assert_eq!(code.block_slot(0), None);
    }

    #[test]
    fn locate_matches_a_linear_scan_of_the_tenants() {
        let mut images = two_images();
        images.push(workload("Web Frontend").unwrap().image(IsaMode::Fixed4));
        let code = MixCode::new(&images);
        let scan = |block: Block| {
            let addr = block_base(block);
            code.tenants
                .iter()
                .position(|t| addr >= t.lo && addr < t.hi)
        };
        let stripe_blocks = TENANT_STRIDE >> BLOCK_BITS;
        for i in 0..=images.len() as u64 {
            let first = block_of(IMAGE_BASE) + i * stripe_blocks;
            let edges = [
                i * stripe_blocks,
                first - 1,
                first,
                first + 3,
                block_of(images[0].end()) + i * stripe_blocks,
                (i + 1) * stripe_blocks - 1,
            ];
            for b in edges {
                let found = code.locate(b).map(|(t, _)| t.slot_base);
                let want = scan(b).map(|k| code.tenants[k].slot_base);
                assert_eq!(found, want, "block {b:#x}");
            }
        }
    }

    #[test]
    fn mix_code_slots_are_dense_and_disjoint() {
        let images = two_images();
        let code = MixCode::new(&images);
        let total = images[0].block_slots() + images[1].block_slots();
        let mut seen = vec![false; total];
        for (i, image) in images.iter().enumerate() {
            let shift = (i as Addr * TENANT_STRIDE) >> BLOCK_BITS;
            let first = block_of(IMAGE_BASE) + shift;
            for b in first..first + image.block_slots() as u64 {
                let slot = code.block_slot(b).unwrap();
                assert!(!seen[slot], "slot {slot} assigned twice");
                seen[slot] = true;
            }
            assert_eq!(code.block_slot(first - 1), None);
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn mix_stream_round_robins_on_quantum() {
        let images = two_images();
        let mut s = MixStream::new(&images, 8, 42);
        let lo1 = IMAGE_BASE + TENANT_STRIDE;
        for turn in 0..6u64 {
            for _ in 0..8 {
                let i = s.next_instr().unwrap();
                let in_tenant1 = i.pc >= lo1;
                assert_eq!(in_tenant1, turn % 2 == 1, "pc {:#x} turn {turn}", i.pc);
            }
        }
        assert_eq!(s.switches(), 5);
    }

    #[test]
    fn mix_stream_is_deterministic_and_seed_sensitive() {
        let images = two_images();
        let take = |seed: u64| -> Vec<Instr> {
            let mut s = MixStream::new(&images, 50, seed);
            (0..500).map(|_| s.next_instr().unwrap()).collect()
        };
        assert_eq!(take(7), take(7));
        assert_ne!(take(7), take(8));
    }

    #[test]
    fn mix_stream_targets_stay_inside_owning_tenant() {
        let images = two_images();
        let mut s = MixStream::new(&images, 100, 3);
        for _ in 0..5_000 {
            let i = s.next_instr().unwrap();
            if i.kind.is_branch() {
                let tenant_pc = i.pc / TENANT_STRIDE;
                let tenant_tg = i.target / TENANT_STRIDE;
                assert_eq!(tenant_pc, tenant_tg, "branch escaped its tenant");
            } else {
                assert_eq!(i.target, 0, "non-branch must keep target 0");
            }
        }
    }
}
