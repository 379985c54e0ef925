//! Integration-test host crate; see tests/ directory. Holds the helpers
//! several test files share.

use dcfb_trace::{block_of, CodeMemory, StaticInstr};
use dcfb_workloads::{image::IMAGE_BASE, ProgramImage};

/// Every static instruction of `image` in address order, read block
/// slot by block slot through [`CodeMemory::for_each_in_block`].
pub fn image_instrs(image: &ProgramImage) -> Vec<StaticInstr> {
    let first = block_of(IMAGE_BASE);
    let mut out = Vec::new();
    for block in first..first + image.block_slots() as u64 {
        image.for_each_in_block(block, &mut |s| out.push(*s));
    }
    out
}
