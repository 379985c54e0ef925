//! Unit tests of program-image construction and block lookup.

use super::*;

fn small_params() -> WorkloadParams {
    WorkloadParams {
        functions: 50,
        root_functions: 8,
        ..WorkloadParams::default()
    }
}

fn build() -> ProgramImage {
    ProgramImage::build(&small_params(), 42, IsaMode::Fixed4)
}

/// Every instruction of the image, through the production path: each
/// block slot's [`CodeMemory::for_each_in_block`] in turn. In address
/// order, so element `i` is static instruction `i`.
fn all_instrs(img: &ProgramImage) -> Vec<StaticInstr> {
    let first = block_of(IMAGE_BASE);
    let mut out = Vec::new();
    for block in first..first + img.block_slots() as u64 {
        img.for_each_in_block(block, &mut |s| out.push(*s));
    }
    out
}

/// The same instructions materialized basic block by basic block: an
/// oracle that does not use the slot index.
fn reference_instrs(img: &ProgramImage) -> Vec<StaticInstr> {
    let mut out = Vec::new();
    for bb in img.blocks() {
        let mut pc = bb.start;
        for idx in bb.first_instr..bb.first_instr + bb.n_instrs {
            let (kind, target) = if idx + 1 < bb.first_instr + bb.n_instrs {
                (StaticKind::Other, None)
            } else {
                match bb.term {
                    Terminator::FallThrough => (StaticKind::Other, None),
                    Terminator::Cond { taken_to, .. } | Terminator::Loop { taken_to, .. } => (
                        StaticKind::CondBranch,
                        Some(img.blocks()[taken_to as usize].start),
                    ),
                    Terminator::Jump { to } => {
                        (StaticKind::Jump, Some(img.blocks()[to as usize].start))
                    }
                    Terminator::Call { callee } => (
                        StaticKind::Call,
                        Some(img.functions()[callee as usize].entry),
                    ),
                    Terminator::IndirectCall { .. } => (StaticKind::IndirectCall, None),
                    Terminator::Return => (StaticKind::Return, None),
                }
            };
            let size = img.instr_size(idx);
            out.push(StaticInstr {
                pc,
                size,
                kind,
                target,
            });
            pc += Addr::from(size);
        }
    }
    out
}

/// The instruction that ends `bb`, out of [`all_instrs`].
fn terminator_of(instrs: &[StaticInstr], bb: &BasicBlock) -> StaticInstr {
    instrs[(bb.first_instr + bb.n_instrs - 1) as usize]
}

#[test]
fn build_is_deterministic() {
    let a = build();
    let b = build();
    assert_eq!(a.end(), b.end());
    assert_eq!(all_instrs(&a), all_instrs(&b));
}

#[test]
fn different_seeds_differ() {
    let a = ProgramImage::build(&small_params(), 1, IsaMode::Fixed4);
    let b = ProgramImage::build(&small_params(), 2, IsaMode::Fixed4);
    assert_ne!(all_instrs(&a).len(), all_instrs(&b).len());
}

#[test]
fn instrs_are_sorted_and_contiguous_within_bbs() {
    let img = build();
    let instrs = all_instrs(&img);
    assert_eq!(instrs.len(), img.sizes.len());
    for w in instrs.windows(2) {
        assert!(w[0].pc < w[1].pc);
        assert!(w[0].pc + u64::from(w[0].size) <= w[1].pc);
    }
    for bb in img.blocks() {
        let run = &instrs[bb.first_instr as usize..(bb.first_instr + bb.n_instrs) as usize];
        assert_eq!(run[0].pc, bb.start);
        for w in run.windows(2) {
            assert_eq!(w[0].pc + u64::from(w[0].size), w[1].pc);
            assert_eq!(w[0].kind, StaticKind::Other);
        }
    }
}

#[test]
fn fixed_isa_instrs_are_4_bytes() {
    let img = build();
    assert!(all_instrs(&img).iter().all(|i| i.size == 4));
}

#[test]
fn variable_isa_instrs_vary() {
    let img = ProgramImage::build(&small_params(), 42, IsaMode::Variable);
    let sizes: std::collections::HashSet<u8> = all_instrs(&img).iter().map(|i| i.size).collect();
    assert!(sizes.len() > 3);
}

#[test]
fn every_function_ends_with_return() {
    let img = build();
    let instrs = all_instrs(&img);
    for (fid, f) in img.functions().iter().enumerate().skip(1) {
        let last = img.blocks_of(f).last().unwrap();
        assert!(
            matches!(last.term, Terminator::Return),
            "function {fid} does not end in Return"
        );
        assert_eq!(terminator_of(&instrs, last).kind, StaticKind::Return);
    }
}

#[test]
fn dispatcher_loops_over_roots() {
    let img = build();
    let disp = img.blocks_of(&img.functions()[0]);
    assert_eq!(disp.len(), 2);
    match disp[0].term {
        Terminator::IndirectCall { first, len } => {
            let (callees, cum_weights) = img.call_table(first, len);
            assert_eq!(callees, img.roots());
            assert!((cum_weights.last().unwrap() - 1.0).abs() < 1e-9);
        }
        t => panic!("dispatcher bb0 has {t:?}"),
    }
    assert!(matches!(disp[1].term, Terminator::Jump { to: 0 }));
    let back = terminator_of(&all_instrs(&img), &disp[1]);
    assert_eq!(back.kind, StaticKind::Jump);
    assert_eq!(back.target, Some(img.functions()[0].entry));
}

#[test]
fn cond_targets_point_at_bb_starts() {
    let img = build();
    let instrs = all_instrs(&img);
    for f in img.functions() {
        let own = f.first_block..f.first_block + f.n_blocks;
        for (bid, bb) in img.blocks_of(f).iter().enumerate() {
            if let Terminator::Cond { taken_to, .. } = bb.term {
                assert!(own.contains(&taken_to), "bb {bid} leaves its function");
                let term_instr = terminator_of(&instrs, bb);
                assert_eq!(term_instr.kind, StaticKind::CondBranch);
                assert_eq!(
                    term_instr.target.unwrap(),
                    img.blocks()[taken_to as usize].start,
                    "bb {bid} cond target mismatch"
                );
            }
        }
    }
}

#[test]
fn call_targets_point_at_function_entries() {
    let img = build();
    let instrs = all_instrs(&img);
    for bb in img.blocks() {
        if let Terminator::Call { callee } = bb.term {
            let term_instr = terminator_of(&instrs, bb);
            assert_eq!(term_instr.kind, StaticKind::Call);
            assert_eq!(
                term_instr.target.unwrap(),
                img.functions()[callee as usize].entry
            );
        }
    }
}

#[test]
fn code_memory_yields_the_blocks_instructions() {
    let img = build();
    let some_block = block_of(img.functions()[3].entry);
    let via_trait = img.instrs_in_block(some_block);
    assert!(!via_trait.is_empty());
    for i in &via_trait {
        assert_eq!(block_of(i.pc), some_block);
    }
}

#[test]
fn for_each_in_block_matches_a_binary_search_for_every_block() {
    for isa in [IsaMode::Fixed4, IsaMode::Variable] {
        let img = ProgramImage::build(&small_params(), 42, isa);
        let reference = reference_instrs(&img);
        assert_eq!(all_instrs(&img), reference);
        let search = |block: Block| {
            let base = block << dcfb_trace::BLOCK_BITS;
            let lo = reference.partition_point(|i| i.pc < base);
            let hi = reference.partition_point(|i| i.pc < base + BLOCK_BYTES);
            &reference[lo..hi]
        };
        let first = block_of(IMAGE_BASE);
        for block in first - 2..=block_of(img.end()) + 2 {
            assert_eq!(
                img.instrs_in_block(block).as_slice(),
                search(block),
                "block {block:#x}"
            );
        }
    }
}

#[test]
fn block_slots_cover_exactly_the_code_blocks() {
    let img = build();
    let first = block_of(IMAGE_BASE);
    let last = block_of(img.end() - 1);
    assert_eq!(img.block_slots() as u64, last - first + 1);
    assert_eq!(img.block_slot(first), Some(0));
    assert_eq!(img.block_slot(last), Some(img.block_slots() - 1));
    assert_eq!(img.block_slot(first - 1), None);
    assert_eq!(img.block_slot(last + 1), None);
    assert_eq!(img.block_slot(0), None);
    let instrs = all_instrs(&img);
    for i in &instrs {
        assert!(img.block_slot(block_of(i.pc)).is_some());
    }
    let mut code_blocks: Vec<Block> = instrs.iter().map(|i| block_of(i.pc)).collect();
    code_blocks.dedup();
    assert_eq!(img.code_blocks(), code_blocks.len());
}

#[test]
fn last_block_holding_only_a_straddling_tail_has_a_slot() {
    // At the variable-length ISA the last instruction can start in one
    // block and end in the next, where no instruction starts.
    let img = (0..400)
        .map(|seed| ProgramImage::build(&small_params(), seed, IsaMode::Variable))
        .find(|img| {
            let last = *all_instrs(img).last().unwrap();
            block_of(last.pc) != block_of(img.end() - 1)
        })
        .expect("some seed ends in a straddling instruction");
    let last_block = block_of(img.end() - 1);
    assert_eq!(
        img.block_slots() as u64,
        last_block - block_of(IMAGE_BASE) + 1
    );
    assert!(img.block_slot(last_block).is_some());
    assert!(img.instrs_in_block(last_block).is_empty());
    let mut code_blocks: Vec<Block> = all_instrs(&img).iter().map(|i| block_of(i.pc)).collect();
    code_blocks.dedup();
    assert_eq!(img.code_blocks(), code_blocks.len());
}

#[test]
fn empty_block_outside_image() {
    let img = build();
    assert!(img.instrs_in_block(0).is_empty());
    assert!(img.instrs_in_block(block_of(img.end()) + 100).is_empty());
}

#[test]
fn footprint_scales_with_functions() {
    let small = ProgramImage::build(&small_params(), 7, IsaMode::Fixed4);
    let mut big_params = small_params();
    big_params.functions = 400;
    let big = ProgramImage::build(&big_params, 7, IsaMode::Fixed4);
    assert!(big.code_blocks() > 4 * small.code_blocks());
}

#[test]
fn branch_census_sums() {
    let img = build();
    let (cond, uncond, indirect, rets) = img.branch_census();
    assert!(cond > 0 && uncond > 0 && indirect > 0 && rets > 0);
    // One return per non-dispatcher function.
    assert_eq!(rets, img.functions().len() - 1);
    let branches = all_instrs(&img)
        .iter()
        .filter(|i| i.kind.is_branch())
        .count();
    assert_eq!(branches, cond + uncond + indirect + rets);
}

#[test]
fn cold_blocks_exist_and_are_marked() {
    let img = build();
    let cold = img.blocks().iter().filter(|b| b.cold).count();
    assert!(cold > 0, "no cold blocks generated");
}

/// Heap bytes the image holds per static instruction, all of its
/// tables counted.
fn bytes_per_instr(img: &ProgramImage) -> f64 {
    let bytes = img.sizes.len()
        + img.blocks.len() * size_of::<BasicBlock>()
        + img.functions.len() * size_of::<Function>()
        + img.slots.len() * size_of::<SlotStart>()
        + img.callees.len() * size_of::<u32>()
        + img.cum_weights.len() * size_of::<f64>()
        + img.roots.len() * size_of::<u32>();
    bytes as f64 / img.sizes.len() as f64
}

#[test]
fn catalog_images_stay_within_12_bytes_per_instruction() {
    for w in crate::all_workloads() {
        for isa in [IsaMode::Fixed4, IsaMode::Variable] {
            let img = ProgramImage::build(&w.params, w.image_seed, isa);
            let b = bytes_per_instr(&img);
            assert!(b <= 12.0, "{} {isa:?}: {b:.2} B per instruction", w.name);
        }
    }
}

#[test]
fn zipf_is_skewed() {
    let mut rng = SmallRng::seed_from_u64(3);
    let z = Zipf::new(100, 1.2);
    let mut counts = [0u32; 100];
    for _ in 0..10_000 {
        counts[z.sample(&mut rng)] += 1;
    }
    assert!(counts[0] > counts[50].max(1) * 5);
}

/// Streaming 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Digest of everything an image describes: each block slot's
/// instructions as [`CodeMemory::for_each_in_block`] yields them, then
/// each function's entry and basic blocks (start, length, cold flag,
/// terminator). Independent of how the image stores them.
fn image_digest(img: &ProgramImage) -> u64 {
    let mut h = Fnv::new();
    let first = block_of(IMAGE_BASE);
    for block in first..first + img.block_slots() as u64 {
        h.u64(block);
        img.for_each_in_block(block, &mut |s| {
            h.u64(s.pc);
            h.bytes(&[s.size, s.kind as u8]);
            h.u64(s.target.unwrap_or(u64::MAX));
        });
    }
    for f in img.functions() {
        h.u64(f.entry);
        h.u32(f.n_blocks);
        // Block targets as indexes within the function.
        let local = |bb: u32| bb - f.first_block;
        for bb in img.blocks_of(f) {
            h.u64(bb.start);
            h.u32(bb.n_instrs);
            h.bytes(&[u8::from(bb.cold)]);
            match bb.term {
                Terminator::FallThrough => h.bytes(&[0]),
                Terminator::Cond { p_taken, taken_to } => {
                    h.bytes(&[1]);
                    h.u64(p_taken.to_bits());
                    h.u32(local(taken_to));
                }
                Terminator::Loop { iters, taken_to } => {
                    h.bytes(&[2]);
                    h.u32(iters);
                    h.u32(local(taken_to));
                }
                Terminator::Jump { to } => {
                    h.bytes(&[3]);
                    h.u32(local(to));
                }
                Terminator::Call { callee } => {
                    h.bytes(&[4]);
                    h.u32(callee);
                }
                Terminator::IndirectCall { first, len } => {
                    let (callees, cum_weights) = img.call_table(first, len);
                    h.bytes(&[5]);
                    h.u32(callees.len() as u32);
                    callees.iter().for_each(|&c| h.u32(c));
                    cum_weights.iter().for_each(|w| h.u64(w.to_bits()));
                }
                Terminator::Return => h.bytes(&[6]),
            }
        }
    }
    h.0
}

/// FNV-1a digests of the seven catalog images, `(fixed, variable)`, in
/// `workload_names()` order. Captured from the 32-byte-per-instruction
/// layout the compact one replaced: a layout change that alters the
/// program fails here.
const CATALOG_IMAGE_DIGESTS: [(u64, u64); 7] = [
    (0xf5ca_86dc_bb32_3736, 0xe69c_e9fb_fde3_ad6a), // Media Streaming
    (0xfbd8_186d_6123_a5a9, 0xcdda_f38c_1a17_fc64), // OLTP (DB A)
    (0x2cc6_fa79_0b46_4e48, 0x2d55_c852_3070_ed10), // OLTP (DB B)
    (0x205a_4a95_c0c6_c1c4, 0xe7bc_e02c_7060_4ecb), // Web (Apache)
    (0xc3f6_8d62_484f_31ef, 0x0964_44d7_5558_a71a), // Web (Zeus)
    (0x0022_26a7_2d11_eb24, 0x45fd_9024_9b0f_9ee0), // Web Frontend
    (0xa26a_b6e7_9505_ec20, 0x0b70_1e03_d2b1_9128), // Web Search
];

#[test]
fn catalog_images_match_pinned_digests() {
    let got: Vec<(u64, u64)> = crate::all_workloads()
        .iter()
        .map(|w| {
            let fixed = ProgramImage::build(&w.params, w.image_seed, IsaMode::Fixed4);
            let var = ProgramImage::build(&w.params, w.image_seed, IsaMode::Variable);
            (image_digest(&fixed), image_digest(&var))
        })
        .collect();
    assert_eq!(got, CATALOG_IMAGE_DIGESTS);
}
