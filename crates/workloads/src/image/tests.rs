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

#[test]
fn build_is_deterministic() {
    let a = build();
    let b = build();
    assert_eq!(a.instrs().len(), b.instrs().len());
    assert_eq!(a.end(), b.end());
    for (x, y) in a.instrs().iter().zip(b.instrs()) {
        assert_eq!(x, y);
    }
}

#[test]
fn different_seeds_differ() {
    let a = ProgramImage::build(&small_params(), 1, IsaMode::Fixed4);
    let b = ProgramImage::build(&small_params(), 2, IsaMode::Fixed4);
    assert_ne!(a.instrs().len(), b.instrs().len());
}

#[test]
fn instrs_are_sorted_and_contiguous_within_bbs() {
    let img = build();
    for w in img.instrs().windows(2) {
        assert!(w[0].pc < w[1].pc);
        assert!(w[0].pc + u64::from(w[0].size) <= w[1].pc);
    }
}

#[test]
fn fixed_isa_instrs_are_4_bytes() {
    let img = build();
    assert!(img.instrs().iter().all(|i| i.size == 4));
}

#[test]
fn variable_isa_instrs_vary() {
    let img = ProgramImage::build(&small_params(), 42, IsaMode::Variable);
    let sizes: std::collections::HashSet<u8> = img.instrs().iter().map(|i| i.size).collect();
    assert!(sizes.len() > 3);
}

#[test]
fn every_function_ends_with_return() {
    let img = build();
    for (fid, f) in img.functions().iter().enumerate().skip(1) {
        let last = f.blocks.last().unwrap();
        assert!(
            matches!(last.term, Terminator::Return),
            "function {fid} does not end in Return"
        );
        let ret = &img.instrs()[(last.first_instr + last.n_instrs - 1) as usize];
        assert_eq!(ret.kind, StaticKind::Return);
        assert_eq!(f.return_pc(&img), ret.pc);
    }
}

#[test]
fn dispatcher_loops_over_roots() {
    let img = build();
    let disp = &img.functions()[0];
    assert_eq!(disp.blocks.len(), 2);
    match &disp.blocks[0].term {
        Terminator::IndirectCall {
            callees,
            cum_weights,
        } => {
            assert_eq!(callees.len(), img.roots().len());
            assert!((cum_weights.last().unwrap() - 1.0).abs() < 1e-9);
        }
        t => panic!("dispatcher bb0 has {t:?}"),
    }
    assert!(matches!(disp.blocks[1].term, Terminator::Jump { to: 0 }));
}

#[test]
fn cond_targets_point_at_bb_starts() {
    let img = build();
    for f in img.functions() {
        for (bid, bb) in f.blocks.iter().enumerate() {
            if let Terminator::Cond { taken_to, .. } = bb.term {
                let term_instr = &img.instrs()[(bb.first_instr + bb.n_instrs - 1) as usize];
                assert_eq!(term_instr.kind, StaticKind::CondBranch);
                assert_eq!(
                    term_instr.target.unwrap(),
                    f.blocks[taken_to as usize].start,
                    "bb {bid} cond target mismatch"
                );
            }
        }
    }
}

#[test]
fn call_targets_point_at_function_entries() {
    let img = build();
    for f in img.functions() {
        for bb in &f.blocks {
            if let Terminator::Call { callee } = bb.term {
                let term_instr = &img.instrs()[(bb.first_instr + bb.n_instrs - 1) as usize];
                assert_eq!(term_instr.kind, StaticKind::Call);
                assert_eq!(
                    term_instr.target.unwrap(),
                    img.functions()[callee as usize].entry
                );
            }
        }
    }
}

#[test]
fn block_slice_matches_code_memory() {
    let img = build();
    let some_block = block_of(img.functions()[3].entry);
    let via_trait = img.instrs_in_block(some_block);
    let via_slice = img.block_slice(some_block);
    assert_eq!(via_trait.as_slice(), via_slice);
    assert!(!via_trait.is_empty());
    for i in &via_trait {
        assert_eq!(block_of(i.pc), some_block);
    }
}

#[test]
fn block_slice_matches_a_binary_search_for_every_block() {
    let img = build();
    let search = |block: Block| {
        let base = block << dcfb_trace::BLOCK_BITS;
        let lo = img.instrs().partition_point(|i| i.pc < base);
        let hi = img.instrs().partition_point(|i| i.pc < base + BLOCK_BYTES);
        &img.instrs()[lo..hi]
    };
    let first = block_of(IMAGE_BASE);
    for block in first - 2..=block_of(img.end()) + 2 {
        assert_eq!(img.block_slice(block), search(block), "block {block:#x}");
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
    for i in img.instrs() {
        assert!(img.block_slot(block_of(i.pc)).is_some());
    }
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
    let branches = img.instrs().iter().filter(|i| i.kind.is_branch()).count();
    assert_eq!(branches, cond + uncond + indirect + rets);
}

#[test]
fn cold_blocks_exist_and_are_marked() {
    let img = build();
    let cold: usize = img
        .functions()
        .iter()
        .flat_map(|f| &f.blocks)
        .filter(|b| b.cold)
        .count();
    assert!(cold > 0, "no cold blocks generated");
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
