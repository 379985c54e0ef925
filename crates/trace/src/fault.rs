//! Fault injection for robustness tests.
//!
//! [`FaultyReader`] wraps any [`Read`] and injects byte-level damage —
//! deterministic bit-flips, truncation, short reads, or I/O errors —
//! so tests can prove the trace readers *detect* damage rather than
//! silently replaying a different instruction stream.
//!
//! All faults are positioned explicitly or derived from a seed via
//! [`splitmix64`], so every injected failure is reproducible from the
//! test's constants.

use crate::splitmix64;
use std::io::{self, Read};

/// One injected byte-stream fault.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Fault {
    /// XOR `mask` into the byte at `offset`.
    FlipBits {
        /// Absolute byte offset into the stream.
        offset: u64,
        /// Bit mask to XOR in (nonzero).
        mask: u8,
    },
    /// End the stream (clean EOF) at `offset` bytes.
    TruncateAt(u64),
    /// Fail with an I/O error once `offset` bytes have been delivered.
    IoErrorAt(u64),
}

/// A [`Read`] adapter that injects deterministic faults into the bytes
/// flowing through it.
#[derive(Debug)]
pub struct FaultyReader<R> {
    inner: R,
    pos: u64,
    faults: Vec<Fault>,
    /// Cap on bytes returned per `read` call (short reads), if any.
    max_read: Option<usize>,
}

impl<R: Read> FaultyReader<R> {
    /// Wraps `inner` with no faults (a transparent pass-through).
    pub fn new(inner: R) -> Self {
        FaultyReader {
            inner,
            pos: 0,
            faults: Vec::new(),
            max_read: None,
        }
    }

    /// XORs `mask` into the byte at absolute `offset`.
    pub fn flip_bits(mut self, offset: u64, mask: u8) -> Self {
        self.faults.push(Fault::FlipBits { offset, mask });
        self
    }

    /// Delivers a clean EOF after `offset` bytes.
    pub fn truncate_at(mut self, offset: u64) -> Self {
        self.faults.push(Fault::TruncateAt(offset));
        self
    }

    /// Fails with `io::ErrorKind::Other` once `offset` bytes have been
    /// delivered.
    pub fn io_error_at(mut self, offset: u64) -> Self {
        self.faults.push(Fault::IoErrorAt(offset));
        self
    }

    /// Caps every `read` call at `n` bytes, exercising callers' short-
    /// read handling without altering the delivered bytes.
    pub fn max_read(mut self, n: usize) -> Self {
        self.max_read = Some(n.max(1));
        self
    }

    /// Convenience: a reader that flips one seeded-random bit somewhere
    /// in the first `len` bytes of the stream.
    pub fn with_random_bit_flip(inner: R, len: usize, seed: u64) -> Self {
        let (offset, bit) = seeded_flip(len, seed);
        FaultyReader::new(inner).flip_bits(offset, 1 << bit)
    }

    /// Convenience: a reader capped at `n` bytes per call.
    pub fn with_max_read(inner: R, n: usize) -> Self {
        FaultyReader::new(inner).max_read(n)
    }

    /// Convenience: a reader that errors after `offset` bytes.
    pub fn with_io_error_at(inner: R, offset: u64) -> Self {
        FaultyReader::new(inner).io_error_at(offset)
    }
}

/// Derives a (byte offset, bit index) pair from `seed` covering the
/// first `len` bytes, via splitmix64.
fn seeded_flip(len: usize, seed: u64) -> (u64, u32) {
    let mixed = splitmix64(seed);
    let offset = if len == 0 { 0 } else { mixed % len as u64 };
    let bit = (splitmix64(mixed) % 8) as u32;
    (offset, bit)
}

impl<R: Read> Read for FaultyReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        // Faults that gate how far this call may deliver.
        let mut limit = buf.len() as u64;
        if let Some(cap) = self.max_read {
            limit = limit.min(cap as u64);
        }
        for f in &self.faults {
            match *f {
                Fault::TruncateAt(at) if at >= self.pos => {
                    limit = limit.min(at - self.pos);
                }
                Fault::TruncateAt(_) => return Ok(0),
                Fault::IoErrorAt(at) => {
                    if at <= self.pos {
                        return Err(io::Error::other("injected fault"));
                    }
                    limit = limit.min(at - self.pos);
                }
                Fault::FlipBits { .. } => {}
            }
        }
        if limit == 0 {
            // A truncation fault is pinned at this offset: clean EOF.
            return Ok(0);
        }
        let upto = limit.min(buf.len() as u64) as usize;
        let n = self.inner.read(&mut buf[..upto])?;
        // Apply bit-flips that landed inside the delivered window.
        for f in &self.faults {
            if let Fault::FlipBits { offset, mask } = *f {
                if offset >= self.pos && offset < self.pos + n as u64 {
                    buf[(offset - self.pos) as usize] ^= mask;
                }
            }
        }
        self.pos += n as u64;
        Ok(n)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn bytes(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 7 + 3) as u8).collect()
    }

    fn drain<R: Read>(mut r: R) -> io::Result<Vec<u8>> {
        let mut out = Vec::new();
        r.read_to_end(&mut out)?;
        Ok(out)
    }

    #[test]
    fn passthrough_is_transparent() {
        let data = bytes(100);
        let got = drain(FaultyReader::new(data.as_slice())).unwrap();
        assert_eq!(got, data);
    }

    #[test]
    fn flip_bits_damages_exactly_one_byte() {
        let data = bytes(100);
        let got = drain(FaultyReader::new(data.as_slice()).flip_bits(42, 0x10)).unwrap();
        assert_eq!(got.len(), data.len());
        let diffs: Vec<usize> = (0..data.len()).filter(|&i| got[i] != data[i]).collect();
        assert_eq!(diffs, vec![42]);
        assert_eq!(got[42], data[42] ^ 0x10);
    }

    #[test]
    fn flip_applies_even_across_read_boundaries() {
        let data = bytes(100);
        let r = FaultyReader::new(data.as_slice())
            .flip_bits(50, 0x01)
            .max_read(3);
        let got = drain(r).unwrap();
        assert_eq!(got[50], data[50] ^ 0x01);
        assert_eq!(&got[..50], &data[..50]);
        assert_eq!(&got[51..], &data[51..]);
    }

    #[test]
    fn truncate_delivers_clean_eof() {
        let data = bytes(100);
        let got = drain(FaultyReader::new(data.as_slice()).truncate_at(33)).unwrap();
        assert_eq!(got, &data[..33]);
    }

    #[test]
    fn short_reads_deliver_intact_bytes() {
        let data = bytes(100);
        let got = drain(FaultyReader::with_max_read(data.as_slice(), 1)).unwrap();
        assert_eq!(got, data);
    }

    #[test]
    fn io_error_fires_at_offset() {
        let data = bytes(100);
        let mut r = FaultyReader::with_io_error_at(data.as_slice(), 10);
        let mut out = Vec::new();
        let err = r.read_to_end(&mut out).unwrap_err();
        assert_eq!(err.to_string(), "injected fault");
        assert_eq!(out, &data[..10]);
    }

    #[test]
    fn seeded_flip_is_deterministic_and_in_range() {
        for seed in 0..64 {
            let (a, abit) = seeded_flip(100, seed);
            let (b, bbit) = seeded_flip(100, seed);
            assert_eq!((a, abit), (b, bbit));
            assert!(a < 100);
            assert!(abit < 8);
        }
        // Seeds actually spread over the buffer.
        let offsets: std::collections::HashSet<u64> =
            (0..64).map(|s| seeded_flip(100, s).0).collect();
        assert!(offsets.len() > 16);
    }
}
