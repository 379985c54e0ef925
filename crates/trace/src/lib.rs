//! # dcfb-trace
//!
//! Instruction, address, and trace model for the Divide-and-Conquer
//! Frontend Bottleneck (DCFB) reproduction.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace:
//!
//! * [`Addr`] / [`Block`] — byte addresses and cache-block numbers,
//! * [`Instr`] / [`InstrKind`] — one *dynamic* (executed) instruction,
//! * [`StaticInstr`] / [`StaticKind`] — one *static* instruction as seen
//!   by a pre-decoder looking at the bytes of a cache block,
//! * [`CodeMemory`] — the interface a pre-decoder uses to inspect the
//!   contents of an instruction block,
//! * [`InstrStream`] — a (possibly lazily generated) dynamic instruction
//!   trace,
//! * [`IsaMode`] — fixed-length (SPARC-like, 4 B) vs. variable-length
//!   (x86-like, 1–15 B) instruction encodings.
//!
//! The paper's prefetchers never look at raw instruction bytes; they only
//! need block addresses, intra-block instruction/byte offsets, branch
//! kinds, and branch targets. These types capture exactly that surface.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc;
pub mod fault;
pub mod file;
pub mod import;
pub mod instr;
pub mod isa;
pub mod memory;
pub mod stream;

pub use fault::FaultyReader;
pub use file::{read_binary_checked, read_text, write_binary_v2, write_text, ReadMode, ReadReport};
pub use import::{import_champsim, ImportReport, IMPORT_RECORD_BYTES};
pub use instr::{Instr, InstrKind, StaticInstr, StaticKind};
pub use isa::IsaMode;
pub use memory::{CodeMemory, RecordedCode};
pub use stream::{InstrStream, ReplayStream, StreamStats, VecTrace};

/// A byte address in the simulated (virtual) address space.
pub type Addr = u64;

/// A cache-block number: [`Addr`] with the block-offset bits stripped.
pub type Block = u64;

/// Log2 of the cache-block size used throughout the workspace (64 B).
pub const BLOCK_BITS: u32 = 6;

/// Cache-block size in bytes (64 B, as in the paper's Table III).
pub const BLOCK_BYTES: u64 = 1 << BLOCK_BITS;

/// Returns the block number containing byte address `addr`.
///
/// # Examples
///
/// ```
/// use dcfb_trace::{block_of, BLOCK_BYTES};
/// assert_eq!(block_of(0), 0);
/// assert_eq!(block_of(BLOCK_BYTES - 1), 0);
/// assert_eq!(block_of(BLOCK_BYTES), 1);
/// ```
#[inline]
pub fn block_of(addr: Addr) -> Block {
    addr >> BLOCK_BITS
}

/// One splitmix64 step (the standard 64-bit finalizer, public-domain
/// constants): the seed mixer behind every seeded choice in the
/// workspace's fuzz and fault-injection tooling.
///
/// # Examples
///
/// ```
/// use dcfb_trace::splitmix64;
/// assert_eq!(splitmix64(7), splitmix64(7));
/// assert_ne!(splitmix64(7), splitmix64(8));
/// ```
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Returns the first byte address of block `block`.
#[inline]
pub fn block_base(block: Block) -> Addr {
    block << BLOCK_BITS
}

/// Returns the byte offset of `addr` within its cache block (`0..64`).
#[inline]
pub fn block_offset(addr: Addr) -> u32 {
    (addr & (BLOCK_BYTES - 1)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_helpers_roundtrip() {
        for addr in [0u64, 1, 63, 64, 65, 4096, 0xdead_beef] {
            let b = block_of(addr);
            assert!(block_base(b) <= addr);
            assert!(addr < block_base(b) + BLOCK_BYTES);
            assert_eq!(block_base(b) + u64::from(block_offset(addr)), addr);
        }
    }

    #[test]
    fn block_constants_consistent() {
        assert_eq!(BLOCK_BYTES, 64);
        assert_eq!(1u64 << BLOCK_BITS, BLOCK_BYTES);
    }
}
