//! Timing-free trace analyses behind the paper's motivation figures.
//!
//! These passes replay a trace against a functional L1i model and
//! measure structural properties of the workload:
//!
//! * [`sequential_miss_fraction`] — Fig. 2 (65–80 % of L1i misses are
//!   sequential),
//! * [`pattern_predictability`] — Fig. 6 (the 4-subsequent-block access
//!   pattern repeats with ≈ 92 % accuracy),
//! * [`discontinuity_stability`] — Fig. 7 (≈ 80 % of per-block
//!   discontinuities are caused by the same branch as last time),
//! * [`branch_footprint_coverage`] — Fig. 8 (uncovered branches vs.
//!   branches stored per BF),
//! * [`bf_per_set_coverage`] — Fig. 9 (uncovered BFs vs. BF slots per
//!   LLC set).

use dcfb_cache::{CacheConfig, LineFlags, SetAssocCache};
use dcfb_trace::{block_of, Block, CodeMemory, Instr, InstrStream};
use dcfb_workloads::ProgramImage;
use fxhash::FxHashMap;

/// Replays `stream` (up to `limit` instructions) against a functional
/// L1i and returns `(sequential_misses, discontinuity_misses)`.
///
/// A miss is *sequential* when its block is spatially right after the
/// last accessed block (§IV).
pub fn sequential_miss_fraction<S: InstrStream>(
    stream: &mut S,
    l1i: CacheConfig,
    limit: u64,
) -> (u64, u64) {
    let mut cache = SetAssocCache::new(l1i);
    let mut prev: Option<Block> = None;
    let mut seq = 0;
    let mut disc = 0;
    let mut n = 0;
    while n < limit {
        let Some(i) = stream.next_instr() else { break };
        n += 1;
        let block = i.block();
        if prev == Some(block) {
            continue;
        }
        if !cache.demand_access(block) {
            if prev == Some(block.wrapping_sub(1)) {
                seq += 1;
            } else {
                disc += 1;
            }
            cache.fill(block, LineFlags::demand_instruction());
        }
        prev = Some(block);
    }
    (seq, disc)
}

/// Fig. 6: for each block, from insertion to eviction, record which of
/// the four subsequent blocks are accessed; compare each generation's
/// pattern with the previous one. Returns the fraction of pattern bits
/// that repeat.
pub fn pattern_predictability<S: InstrStream>(stream: &mut S, l1i: CacheConfig, limit: u64) -> f64 {
    let mut cache = SetAssocCache::new(l1i);
    // Live pattern per resident block, last completed pattern per block.
    let mut live: FxHashMap<Block, u8> = FxHashMap::default();
    let mut last: FxHashMap<Block, u8> = FxHashMap::default();
    let mut matches = 0u64;
    let mut total = 0u64;
    let mut prev: Option<Block> = None;
    let mut n = 0;
    while n < limit {
        let Some(i) = stream.next_instr() else { break };
        n += 1;
        let block = i.block();
        if prev == Some(block) {
            continue;
        }
        prev = Some(block);
        // Mark this block in the live pattern of its four predecessors.
        for d in 1..=4u64 {
            let anchor = block.wrapping_sub(d);
            if let Some(p) = live.get_mut(&anchor) {
                *p |= 1 << (d - 1);
            }
        }
        if !cache.demand_access(block) {
            if let Some(ev) = cache.fill(block, LineFlags::demand_instruction()) {
                if let Some(pattern) = live.remove(&ev.block) {
                    if let Some(prior) = last.insert(ev.block, pattern) {
                        total += 4;
                        let differing = ((pattern ^ prior) & 0xF).count_ones();
                        matches += u64::from(4 - differing);
                    }
                }
            }
            live.insert(block, 0);
        }
    }
    if total == 0 {
        0.0
    } else {
        matches as f64 / total as f64
    }
}

/// Fig. 7: for each block, compare the branch (by pc) that caused
/// consecutive discontinuities out of that block. Returns the fraction
/// of discontinuities caused by the same branch as the previous one
/// from the same block.
pub fn discontinuity_stability<S: InstrStream>(stream: &mut S, limit: u64) -> f64 {
    let mut last_branch_from: FxHashMap<Block, u64> = FxHashMap::default();
    let mut same = 0u64;
    let mut total = 0u64;
    let mut prev_instr: Option<Instr> = None;
    let mut n = 0;
    while n < limit {
        let Some(i) = stream.next_instr() else { break };
        n += 1;
        if let Some(p) = prev_instr {
            if p.redirects() && block_of(p.pc) != i.block() {
                // A discontinuity out of p's block into i's block.
                let from = block_of(p.pc);
                if let Some(prev_pc) = last_branch_from.insert(from, p.pc) {
                    total += 1;
                    same += u64::from(prev_pc == p.pc);
                }
            }
        }
        prev_instr = Some(i);
    }
    if total == 0 {
        0.0
    } else {
        same as f64 / total as f64
    }
}

/// Fig. 8: the fraction of *static* branches left uncovered when each
/// block's branch footprint stores only `per_bf` offsets. Returns the
/// uncovered fraction in `[0, 1]`.
pub fn branch_footprint_coverage(image: &ProgramImage, per_bf: usize) -> f64 {
    let mut covered = 0usize;
    let mut total = 0usize;
    let mut block = block_of(dcfb_workloads::image::IMAGE_BASE);
    let end_block = block_of(image.end());
    while block <= end_block {
        let mut branches = 0;
        image.for_each_in_block(block, &mut |i| branches += usize::from(i.kind.is_branch()));
        total += branches;
        covered += branches.min(per_bf);
        block += 1;
    }
    if total == 0 {
        0.0
    } else {
        1.0 - covered as f64 / total as f64
    }
}

/// Fig. 9: replays the instruction-block stream into an LLC-shaped set
/// mapping and measures the fraction of *distinct instruction blocks
/// per set* beyond `bf_slots` — i.e. footprints that would not fit in
/// the BF-holder. Returns the uncovered fraction in `[0, 1]`.
pub fn bf_per_set_coverage<S: InstrStream>(
    stream: &mut S,
    llc_sets: usize,
    bf_slots: usize,
    limit: u64,
) -> f64 {
    assert!(
        llc_sets.is_power_of_two(),
        "LLC sets must be a power of two"
    );
    // LRU-ish per-set tracking of instruction blocks with a bounded
    // window per set (models which BFs compete for slots).
    let mut sets: FxHashMap<usize, Vec<Block>> = FxHashMap::default();
    let mut covered = 0u64;
    let mut total = 0u64;
    let mut prev: Option<Block> = None;
    let mut n = 0;
    while n < limit {
        let Some(i) = stream.next_instr() else { break };
        n += 1;
        let block = i.block();
        if prev == Some(block) {
            continue;
        }
        prev = Some(block);
        let set = (block as usize) & (llc_sets - 1);
        let v = sets.entry(set).or_default();
        total += 1;
        if let Some(pos) = v.iter().position(|&b| b == block) {
            // MRU update.
            let b = v.remove(pos);
            v.insert(0, b);
            covered += 1;
        } else {
            v.insert(0, block);
            // A BF lookup succeeds if the block ranks within the
            // BF-holder's capacity; new blocks always displace LRU.
            if v.len() <= bf_slots {
                covered += 1;
            }
            if v.len() > 16 {
                v.pop();
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        1.0 - covered as f64 / total as f64
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use dcfb_trace::IsaMode;
    use dcfb_workloads::{Walker, WorkloadParams};
    use std::sync::Arc;

    fn image() -> Arc<ProgramImage> {
        let params = WorkloadParams {
            functions: 80,
            root_functions: 8,
            ..WorkloadParams::default()
        };
        Arc::new(ProgramImage::build(&params, 21, IsaMode::Fixed4))
    }

    #[test]
    fn sequential_misses_dominate() {
        let mut w = Walker::new(image(), 1);
        let (seq, disc) = sequential_miss_fraction(&mut w, CacheConfig::l1i(), 600_000);
        assert!(seq + disc > 100, "too few misses: {seq}+{disc}");
        let frac = seq as f64 / (seq + disc) as f64;
        // The paper's Fig. 2 band is 65-80 %; allow generous slack for
        // the small test image.
        assert!((0.4..0.95).contains(&frac), "seq fraction {frac}");
    }

    #[test]
    fn patterns_are_predictable() {
        let mut w = Walker::new(image(), 2);
        // Small cache so the test image generates enough evictions to
        // complete pattern generations.
        let small = CacheConfig::from_kib(8, 8);
        let p = pattern_predictability(&mut w, small, 1_000_000);
        assert!(p > 0.6, "pattern predictability {p}");
        assert!(p <= 1.0);
    }

    #[test]
    fn discontinuities_are_stable() {
        let mut w = Walker::new(image(), 3);
        let s = discontinuity_stability(&mut w, 600_000);
        assert!(s > 0.5, "stability {s}");
        assert!(s <= 1.0);
    }

    #[test]
    fn four_branches_cover_almost_all() {
        let img = image();
        let none = branch_footprint_coverage(&img, 0);
        let one = branch_footprint_coverage(&img, 1);
        let four = branch_footprint_coverage(&img, 4);
        let sixteen = branch_footprint_coverage(&img, 16);
        assert!(none > one && one > four, "{none} {one} {four}");
        assert!(four < 0.10, "4-branch BF leaves {four} uncovered");
        assert!(sixteen < 1e-9);
    }

    #[test]
    fn bf_slots_sweep_is_monotonic() {
        let img = image();
        let mut last = 1.0;
        for slots in [1usize, 2, 3, 4] {
            let mut w = Walker::new(Arc::clone(&img), 4);
            let uncovered = bf_per_set_coverage(&mut w, 2048, slots, 400_000);
            assert!(
                uncovered <= last + 1e-9,
                "slots {slots}: {uncovered} > {last}"
            );
            last = uncovered;
        }
        assert!(last < 0.2, "4 BF slots leave {last} uncovered");
    }

    // --- Ground-truth fixtures: tiny hand-built streams where the
    // --- expected Fig. 2/6/7 fractions are computable by hand.

    use dcfb_trace::{InstrKind, VecTrace, BLOCK_BYTES};

    /// One non-branch instruction at the base of `block`.
    fn step(block: Block) -> Instr {
        Instr::other(block * BLOCK_BYTES, 4)
    }

    #[test]
    fn seq_miss_ground_truth() {
        // Cold misses in order: 10 (disc: no predecessor), 11, 12, 13
        // (seq), a jump to 50 (disc), 51, 52 (seq). A second
        // instruction inside block 12 and a re-access of the cached
        // block 11 must not add misses.
        let mut instrs: Vec<Instr> = [10u64, 11, 12].iter().map(|&b| step(b)).collect();
        instrs.push(Instr::other(12 * BLOCK_BYTES + 4, 4));
        instrs.extend([13u64, 50, 51, 52].iter().map(|&b| step(b)));
        instrs.push(step(11));
        let mut t = VecTrace::new(instrs.clone());
        assert_eq!(
            sequential_miss_fraction(&mut t, CacheConfig::l1i(), 1_000),
            (5, 2)
        );
        // The limit truncates the stream: only blocks 10, 11, 12 run.
        let mut t = VecTrace::new(instrs);
        assert_eq!(
            sequential_miss_fraction(&mut t, CacheConfig::l1i(), 3),
            (2, 1)
        );
    }

    #[test]
    fn pattern_predictability_is_one_for_a_periodic_loop() {
        // 20 blocks cycling through a 16-line fully-associative cache:
        // LRU thrash misses on every access, and the periodic stream
        // makes every generation of every block identical, so every
        // compared pattern bit repeats.
        let instrs: Vec<Instr> = (0..8).flat_map(|_| (0u64..20).map(step)).collect();
        let mut t = VecTrace::new(instrs);
        let tiny = CacheConfig { sets: 1, ways: 16 };
        let p = pattern_predictability(&mut t, tiny, u64::MAX);
        assert!((p - 1.0).abs() < 1e-12, "{p}");
    }

    #[test]
    fn pattern_predictability_counts_changed_bits() {
        // Direct-mapped, 16 sets. Each round touches block 0, then one
        // of its four successors (alternating +1 / +2), then a fresh
        // evictor block ≡ 0 (mod 16) that ends block 0's generation.
        // Consecutive generations therefore differ in exactly 2 of 4
        // pattern bits; the one-shot evictor blocks never complete a
        // second generation and contribute nothing.
        let mut instrs = Vec::new();
        for round in 0u64..6 {
            instrs.push(step(0));
            instrs.push(step(1 + round % 2));
            instrs.push(step(32 + 16 * round));
        }
        let mut t = VecTrace::new(instrs);
        let dm = CacheConfig { sets: 16, ways: 1 };
        let p = pattern_predictability(&mut t, dm, u64::MAX);
        assert!((p - 0.5).abs() < 1e-12, "{p}");
    }

    #[test]
    fn discontinuity_stability_is_one_for_a_steady_loop() {
        // One branch per block ever causes the discontinuity, so after
        // the first sighting every repeat matches. A not-taken
        // conditional and an intra-block jump must not register.
        let mut instrs = Vec::new();
        for _ in 0..5 {
            instrs.push(Instr::branch(0x40, 4, InstrKind::Jump, 0x140));
            instrs.push(Instr::other(0x140, 4));
            instrs.push(Instr::branch(
                0x144,
                4,
                InstrKind::CondBranch { taken: false },
                0x180,
            ));
            instrs.push(Instr::branch(0x148, 4, InstrKind::Jump, 0x160));
            instrs.push(Instr::other(0x160, 4));
            instrs.push(Instr::branch(0x164, 4, InstrKind::Jump, 0x40));
        }
        let mut t = VecTrace::new(instrs);
        let s = discontinuity_stability(&mut t, u64::MAX);
        assert!((s - 1.0).abs() < 1e-12, "{s}");
    }

    #[test]
    fn discontinuity_stability_tracks_the_last_branch_exactly() {
        // Branches out of block 1 follow the pc pattern A,A,B repeated
        // three times; consecutive-pair agreement is exactly 3/8. Every
        // round detours through a fresh block, so the way back never
        // repeats a (block, branch) pair and contributes nothing.
        let (a, b) = (0x40u64, 0x48u64);
        let mut instrs = Vec::new();
        for (round, &pc) in [a, a, b, a, a, b, a, a, b].iter().enumerate() {
            let detour = (100 + round as u64) * BLOCK_BYTES;
            instrs.push(Instr::branch(pc, 4, InstrKind::Jump, detour));
            instrs.push(Instr::other(detour, 4));
            instrs.push(Instr::branch(detour + 4, 4, InstrKind::Jump, a));
        }
        instrs.push(Instr::other(a, 4));
        let mut t = VecTrace::new(instrs);
        let s = discontinuity_stability(&mut t, u64::MAX);
        assert!((s - 3.0 / 8.0).abs() < 1e-12, "{s}");
    }

    #[test]
    fn empty_stream_edge_cases() {
        let mut empty = dcfb_trace::VecTrace::default();
        assert_eq!(
            sequential_miss_fraction(&mut empty, CacheConfig::l1i(), 100),
            (0, 0)
        );
        let mut empty = dcfb_trace::VecTrace::default();
        assert_eq!(
            pattern_predictability(&mut empty, CacheConfig::l1i(), 10),
            0.0
        );
        let mut empty = dcfb_trace::VecTrace::default();
        assert_eq!(discontinuity_stability(&mut empty, 10), 0.0);
        let mut empty = dcfb_trace::VecTrace::default();
        assert_eq!(bf_per_set_coverage(&mut empty, 64, 2, 10), 0.0);
    }
}
