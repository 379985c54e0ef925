//! Trace (de)serialization: record a trace to a file and replay it.
//!
//! Two on-disk layouts are supported:
//!
//! * **Binary v2** (`.dcfbt`, magic `DCFBTRC2`) — the native format:
//!   a checksummed header (version, ISA mode, declared record count)
//!   followed by fixed-width records grouped into chunks, each chunk
//!   closed by a CRC-32 footer. Corruption and truncation are
//!   *detected*, never silently replayed; in [`ReadMode::Lenient`] the
//!   reader salvages the longest fully-verified prefix instead of
//!   failing.
//! * **Text** — one instruction per line,
//!   `pc size kind [target [taken]]`, with `#` comments; easy to
//!   generate from other simulators' traces (e.g. a ChampSim trace
//!   converted by a script).
//!
//! Both formats round-trip exactly through [`Instr`], so a recorded
//! synthetic trace and a replayed one drive the simulator identically.
//! The unchecked v1 binary layout (magic `DCFBTRC1`) is no longer read:
//! it fails with [`TraceErrorKind::BadMagic`].
//!
//! # Binary v2 layout
//!
//! ```text
//! header (24 B):  "DCFBTRC2" | version u8 (=2) | isa u8 | chunk u16 LE
//!                 | records u64 LE | crc32(header[0..20]) u32 LE
//! chunk (×N):     k × 18 B records | crc32(payload) u32 LE
//!                 where k = min(chunk, records remaining)
//! record (18 B):  pc u64 LE | target u64 LE | size u8 | kind u8
//! ```
//!
//! Readers return [`DcfbError::Trace`] with a [`TraceErrorKind`] and a
//! byte/chunk location on any malformed input — they never panic.

use crate::crc::crc32;
use crate::instr::{Instr, InstrKind};
use crate::isa::IsaMode;
use crate::stream::{InstrStream, VecTrace};
use dcfb_errors::{DcfbError, TraceErrorKind, TraceLocation};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};

/// Magic bytes at the start of a v2 binary trace file.
pub const MAGIC_V2: &[u8; 8] = b"DCFBTRC2";

/// Whether `data` starts like a binary trace of any version (`DCFBTRC`
/// and a version byte). Such input goes to [`read_binary_checked`],
/// which rejects every version but 2 with a typed error, rather than
/// to the text parser.
pub fn is_binary(data: &[u8]) -> bool {
    data.starts_with(&MAGIC_V2[..7])
}

/// One encoded record: pc (8) + target (8) + size (1) + kind (1).
const RECORD_BYTES: usize = 18;

/// Records per chunk written by default (9 KiB payload + 4 B footer).
pub const DEFAULT_CHUNK_RECORDS: u16 = 512;

/// v2 header length in bytes.
const V2_HEADER_BYTES: usize = 24;

/// ISA-mode byte meaning "not recorded" in a v2 header.
const ISA_UNSPECIFIED: u8 = 0xFF;

fn kind_code(kind: InstrKind) -> u8 {
    match kind {
        InstrKind::Other => 0,
        InstrKind::CondBranch { taken: false } => 1,
        InstrKind::CondBranch { taken: true } => 2,
        InstrKind::Jump => 3,
        InstrKind::Call => 4,
        InstrKind::IndirectJump => 5,
        InstrKind::IndirectCall => 6,
        InstrKind::Return => 7,
    }
}

fn kind_from_code(code: u8) -> Option<InstrKind> {
    Some(match code {
        0 => InstrKind::Other,
        1 => InstrKind::CondBranch { taken: false },
        2 => InstrKind::CondBranch { taken: true },
        3 => InstrKind::Jump,
        4 => InstrKind::Call,
        5 => InstrKind::IndirectJump,
        6 => InstrKind::IndirectCall,
        7 => InstrKind::Return,
        _ => return None,
    })
}

fn isa_to_code(isa: Option<IsaMode>) -> u8 {
    match isa {
        None => ISA_UNSPECIFIED,
        Some(IsaMode::Fixed4) => 0,
        Some(IsaMode::Variable) => 1,
    }
}

fn isa_from_code(code: u8) -> Option<Option<IsaMode>> {
    match code {
        ISA_UNSPECIFIED => Some(None),
        0 => Some(Some(IsaMode::Fixed4)),
        1 => Some(Some(IsaMode::Variable)),
        _ => None,
    }
}

/// Infallible fixed-width little-endian reads from a checked slice
/// (`b` must hold at least the required bytes at `at`).
#[inline]
fn le_u64_at(b: &[u8], at: usize) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[at..at + 8]);
    u64::from_le_bytes(a)
}

#[inline]
fn le_u32_at(b: &[u8], at: usize) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(&b[at..at + 4]);
    u32::from_le_bytes(a)
}

#[inline]
fn le_u16_at(b: &[u8], at: usize) -> u16 {
    let mut a = [0u8; 2];
    a.copy_from_slice(&b[at..at + 2]);
    u16::from_le_bytes(a)
}

fn encode_record(i: &Instr, buf: &mut [u8; RECORD_BYTES]) {
    buf[0..8].copy_from_slice(&i.pc.to_le_bytes());
    buf[8..16].copy_from_slice(&i.target.to_le_bytes());
    buf[16] = i.size;
    buf[17] = kind_code(i.kind);
}

fn decode_record(buf: &[u8]) -> Result<Instr, TraceErrorKind> {
    let pc = le_u64_at(buf, 0);
    let target = le_u64_at(buf, 8);
    let size = buf[16];
    let kind = kind_from_code(buf[17]).ok_or(TraceErrorKind::BadKindCode(buf[17]))?;
    if size == 0 {
        return Err(TraceErrorKind::ZeroSize);
    }
    Ok(Instr {
        pc,
        size,
        kind,
        target,
    })
}

// ---------------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------------

/// Writes up to `limit` instructions from `stream` to `out` in the
/// binary v2 format with default options (ISA unspecified,
/// [`DEFAULT_CHUNK_RECORDS`] per chunk). Returns the number written.
pub fn write_binary<S: InstrStream, W: Write>(
    stream: &mut S,
    out: W,
    limit: u64,
) -> io::Result<u64> {
    write_binary_v2(stream, out, limit, None, DEFAULT_CHUNK_RECORDS)
}

/// Writes up to `limit` instructions in the binary v2 format,
/// recording `isa` in the header and grouping `chunk_records` records
/// per CRC-checked chunk. Returns the number written.
///
/// The record stream is staged in memory so the header can declare the
/// exact record count (streams may end before `limit`).
pub fn write_binary_v2<S: InstrStream, W: Write>(
    stream: &mut S,
    out: W,
    limit: u64,
    isa: Option<IsaMode>,
    chunk_records: u16,
) -> io::Result<u64> {
    let chunk_records = chunk_records.max(1);
    let mut payload = Vec::new();
    let mut n = 0u64;
    let mut buf = [0u8; RECORD_BYTES];
    while n < limit {
        let Some(i) = stream.next_instr() else { break };
        encode_record(&i, &mut buf);
        payload.extend_from_slice(&buf);
        n += 1;
    }

    let mut w = BufWriter::new(out);
    let mut header = [0u8; V2_HEADER_BYTES];
    header[0..8].copy_from_slice(MAGIC_V2);
    header[8] = 2;
    header[9] = isa_to_code(isa);
    header[10..12].copy_from_slice(&chunk_records.to_le_bytes());
    header[12..20].copy_from_slice(&n.to_le_bytes());
    let hcrc = crc32(&header[0..20]);
    header[20..24].copy_from_slice(&hcrc.to_le_bytes());
    w.write_all(&header)?;

    for chunk in payload.chunks(usize::from(chunk_records) * RECORD_BYTES) {
        w.write_all(chunk)?;
        w.write_all(&crc32(chunk).to_le_bytes())?;
    }
    w.flush()?;
    Ok(n)
}

// ---------------------------------------------------------------------------
// Readers
// ---------------------------------------------------------------------------

/// How strictly a reader treats damaged input.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReadMode {
    /// Fail fast on the first sign of corruption or truncation.
    #[default]
    Strict,
    /// Salvage the longest fully-verified prefix; the reason reading
    /// stopped early is reported in [`ReadReport::salvage`].
    Lenient,
}

/// What a binary read observed (alongside the decoded trace).
#[derive(Clone, Debug)]
pub struct ReadReport {
    /// ISA mode recorded in the header, when present.
    pub isa: Option<IsaMode>,
    /// Records actually decoded.
    pub records: u64,
    /// Record count declared by the header.
    pub declared_records: u64,
    /// In lenient mode: why reading stopped before the declared end
    /// (`None` means the stream was fully intact).
    pub salvage: Option<DcfbError>,
}

impl ReadReport {
    /// True when the stream was damaged and a prefix was salvaged.
    pub fn is_salvaged(&self) -> bool {
        self.salvage.is_some()
    }
}

/// Tracks the byte offset so diagnostics can name where input broke.
struct CountingReader<R> {
    inner: R,
    pos: u64,
}

/// What one fixed-size read produced.
enum Fill {
    /// The buffer was filled.
    Full,
    /// Clean EOF before any byte of this item.
    Eof,
    /// EOF partway through this item (after at least one byte).
    Partial,
}

impl<R: Read> CountingReader<R> {
    fn new(inner: R) -> Self {
        CountingReader { inner, pos: 0 }
    }

    /// Reads exactly `buf.len()` bytes or reports how far it got.
    fn fill(&mut self, buf: &mut [u8]) -> Result<Fill, DcfbError> {
        let mut got = 0usize;
        while got < buf.len() {
            match self.inner.read(&mut buf[got..]) {
                Ok(0) => {
                    return Ok(if got == 0 { Fill::Eof } else { Fill::Partial });
                }
                Ok(n) => {
                    got += n;
                    self.pos += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    return Err(DcfbError::trace_at(
                        TraceErrorKind::Io(e.to_string()),
                        TraceLocation::at_byte(self.pos),
                    ));
                }
            }
        }
        Ok(Fill::Full)
    }
}

/// Reads a binary v2 trace in strict mode: any corruption or
/// truncation is an error.
///
/// # Errors
///
/// Returns [`DcfbError::Trace`] describing what was wrong and where;
/// see [`TraceErrorKind`].
pub fn read_binary<R: Read>(input: R) -> Result<VecTrace, DcfbError> {
    read_binary_checked(input, ReadMode::Strict).map(|(t, _)| t)
}

/// Reads a binary v2 trace under `mode`, returning the decoded trace
/// plus a [`ReadReport`] describing what was observed.
///
/// In [`ReadMode::Lenient`], damage *after* the header degrades to a
/// salvaged prefix: every chunk whose CRC verified before the damage
/// is kept, and [`ReadReport::salvage`] carries the error that stopped
/// reading. A damaged header is fatal in both modes — nothing after it
/// can be trusted.
pub fn read_binary_checked<R: Read>(
    input: R,
    mode: ReadMode,
) -> Result<(VecTrace, ReadReport), DcfbError> {
    let mut r = CountingReader::new(BufReader::new(input));
    let mut magic = [0u8; 8];
    match r.fill(&mut magic)? {
        Fill::Full => {}
        Fill::Eof | Fill::Partial => {
            return Err(DcfbError::trace_at(
                TraceErrorKind::Truncated,
                TraceLocation::at_byte(0),
            ));
        }
    }
    if &magic == MAGIC_V2 {
        read_v2_body(r, mode)
    } else {
        Err(DcfbError::trace_at(
            TraceErrorKind::BadMagic,
            TraceLocation::at_byte(0),
        ))
    }
}

fn read_v2_body<R: Read>(
    mut r: CountingReader<R>,
    mode: ReadMode,
) -> Result<(VecTrace, ReadReport), DcfbError> {
    // Rebuild the full header buffer (magic already consumed) so the
    // header CRC can be verified.
    let mut header = [0u8; V2_HEADER_BYTES];
    header[0..8].copy_from_slice(MAGIC_V2);
    match r.fill(&mut header[8..])? {
        Fill::Full => {}
        Fill::Eof | Fill::Partial => {
            return Err(DcfbError::trace_at(
                TraceErrorKind::Truncated,
                TraceLocation::at_byte(r.pos),
            ));
        }
    }
    // A damaged header is fatal even in lenient mode: the chunk
    // geometry and record count below it can't be trusted.
    let stored_hcrc = le_u32_at(&header, 20);
    let computed_hcrc = crc32(&header[0..20]);
    if stored_hcrc != computed_hcrc {
        return Err(DcfbError::trace_at(
            TraceErrorKind::BadHeader(format!(
                "header checksum mismatch (stored {stored_hcrc:#010x}, computed {computed_hcrc:#010x})"
            )),
            TraceLocation::at_byte(20),
        ));
    }
    let version = header[8];
    if version != 2 {
        return Err(DcfbError::trace_at(
            TraceErrorKind::BadVersion(version),
            TraceLocation::at_byte(8),
        ));
    }
    let isa = isa_from_code(header[9]).ok_or_else(|| {
        DcfbError::trace_at(
            TraceErrorKind::BadHeader(format!("bad ISA code {}", header[9])),
            TraceLocation::at_byte(9),
        )
    })?;
    let chunk_records = le_u16_at(&header, 10);
    if chunk_records == 0 {
        return Err(DcfbError::trace_at(
            TraceErrorKind::BadHeader("zero chunk size".to_owned()),
            TraceLocation::at_byte(10),
        ));
    }
    let declared = le_u64_at(&header, 12);

    let mut instrs: Vec<Instr> = Vec::new();
    let mut salvage = None;
    let mut remaining = declared;
    let mut chunk_idx = 0u64;
    let mut payload = vec![0u8; usize::from(chunk_records) * RECORD_BYTES];

    'chunks: while remaining > 0 {
        let k = u64::from(chunk_records).min(remaining) as usize;
        let chunk_at = r.pos;
        let body = &mut payload[..k * RECORD_BYTES];
        let fail = |err: DcfbError, salvage: &mut Option<DcfbError>| -> Result<bool, DcfbError> {
            match mode {
                ReadMode::Strict => Err(err),
                ReadMode::Lenient => {
                    *salvage = Some(err);
                    Ok(true) // stop
                }
            }
        };
        match r.fill(body)? {
            Fill::Full => {}
            Fill::Eof => {
                let err = DcfbError::trace_at(
                    TraceErrorKind::RecordCountMismatch {
                        declared,
                        actual: instrs.len() as u64,
                    },
                    TraceLocation::in_chunk(chunk_idx, chunk_at),
                );
                if fail(err, &mut salvage)? {
                    break 'chunks;
                }
            }
            Fill::Partial => {
                let err = DcfbError::trace_at(
                    TraceErrorKind::Truncated,
                    TraceLocation::in_chunk(chunk_idx, chunk_at),
                );
                if fail(err, &mut salvage)? {
                    break 'chunks;
                }
            }
        }
        let mut footer = [0u8; 4];
        match r.fill(&mut footer)? {
            Fill::Full => {}
            Fill::Eof | Fill::Partial => {
                let err = DcfbError::trace_at(
                    TraceErrorKind::Truncated,
                    TraceLocation::in_chunk(chunk_idx, r.pos),
                );
                if fail(err, &mut salvage)? {
                    break 'chunks;
                }
            }
        }
        let stored = u32::from_le_bytes(footer);
        let computed = crc32(body);
        if stored != computed {
            let err = DcfbError::trace_at(
                TraceErrorKind::ChecksumMismatch { stored, computed },
                TraceLocation::in_chunk(chunk_idx, chunk_at),
            );
            if fail(err, &mut salvage)? {
                break 'chunks;
            }
        }
        // CRC verified: decode the chunk. A decode error here means the
        // file was *written* corrupt (bad kind/size behind a valid
        // checksum) — still rejected, or salvaged up to the bad record.
        for (ri, rec) in body.chunks_exact(RECORD_BYTES).enumerate() {
            match decode_record(rec) {
                Ok(i) => instrs.push(i),
                Err(kind) => {
                    let err = DcfbError::trace_at(
                        kind,
                        TraceLocation {
                            byte_offset: Some(chunk_at + (ri * RECORD_BYTES) as u64),
                            record: Some(instrs.len() as u64),
                            chunk: Some(chunk_idx),
                        },
                    );
                    if fail(err, &mut salvage)? {
                        break 'chunks;
                    }
                }
            }
        }
        remaining -= k as u64;
        chunk_idx += 1;
    }

    let records = instrs.len() as u64;
    Ok((
        VecTrace::new(instrs),
        ReadReport {
            isa,
            records,
            declared_records: declared,
            salvage,
        },
    ))
}

// ---------------------------------------------------------------------------
// Text format
// ---------------------------------------------------------------------------

fn kind_name(kind: InstrKind) -> &'static str {
    match kind {
        InstrKind::Other => "other",
        InstrKind::CondBranch { .. } => "cond",
        InstrKind::Jump => "jump",
        InstrKind::Call => "call",
        InstrKind::IndirectJump => "ijump",
        InstrKind::IndirectCall => "icall",
        InstrKind::Return => "ret",
    }
}

/// Writes up to `limit` instructions as text, one per line:
/// `pc size kind [target [taken]]` (hex pc/target). Returns the number
/// written.
pub fn write_text<S: InstrStream, W: Write>(stream: &mut S, out: W, limit: u64) -> io::Result<u64> {
    let mut w = BufWriter::new(out);
    writeln!(w, "# dcfb text trace v1: pc size kind [target [taken]]")?;
    let mut n = 0u64;
    while n < limit {
        let Some(i) = stream.next_instr() else { break };
        match i.kind {
            InstrKind::Other => writeln!(w, "{:#x} {} other", i.pc, i.size)?,
            InstrKind::CondBranch { taken } => writeln!(
                w,
                "{:#x} {} cond {:#x} {}",
                i.pc,
                i.size,
                i.target,
                u8::from(taken)
            )?,
            k => writeln!(w, "{:#x} {} {} {:#x}", i.pc, i.size, kind_name(k), i.target)?,
        }
        n += 1;
    }
    w.flush()?;
    Ok(n)
}

/// Parses a text trace written by [`write_text`] (or hand-made in the
/// same format). Blank lines and `#` comments are skipped.
///
/// # Errors
///
/// Returns [`DcfbError::Trace`] with [`TraceErrorKind::BadTextLine`]
/// naming the offending line on malformed input.
pub fn read_text<R: Read>(input: R) -> Result<VecTrace, DcfbError> {
    let r = BufReader::new(input);
    let mut instrs = Vec::new();
    for (lineno, line) in r.lines().enumerate() {
        let line = line.map_err(|e| DcfbError::trace(TraceErrorKind::Io(e.to_string())))?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = |msg: &str| {
            DcfbError::trace(TraceErrorKind::BadTextLine {
                line: lineno as u64 + 1,
                message: format!("{msg}: {line}"),
            })
        };
        let mut parts = line.split_whitespace();
        let pc = parse_u64(parts.next().ok_or_else(|| bad("missing pc"))?)
            .ok_or_else(|| bad("bad pc"))?;
        let size: u8 = parts
            .next()
            .ok_or_else(|| bad("missing size"))?
            .parse()
            .map_err(|_| bad("bad size"))?;
        if size == 0 {
            return Err(bad("zero size"));
        }
        let kind_str = parts.next().ok_or_else(|| bad("missing kind"))?;
        let mut target = 0u64;
        let kind = match kind_str {
            "other" => InstrKind::Other,
            "cond" => {
                target = parse_u64(parts.next().ok_or_else(|| bad("cond needs target"))?)
                    .ok_or_else(|| bad("bad target"))?;
                let taken: u8 = parts
                    .next()
                    .ok_or_else(|| bad("cond needs taken flag"))?
                    .parse()
                    .map_err(|_| bad("bad taken flag"))?;
                InstrKind::CondBranch { taken: taken != 0 }
            }
            other => {
                target = parse_u64(parts.next().ok_or_else(|| bad("branch needs target"))?)
                    .ok_or_else(|| bad("bad target"))?;
                match other {
                    "jump" => InstrKind::Jump,
                    "call" => InstrKind::Call,
                    "ijump" => InstrKind::IndirectJump,
                    "icall" => InstrKind::IndirectCall,
                    "ret" => InstrKind::Return,
                    _ => return Err(bad("unknown kind")),
                }
            }
        };
        instrs.push(Instr {
            pc,
            size,
            kind,
            target,
        });
    }
    Ok(VecTrace::new(instrs))
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::fault::FaultyReader;

    fn sample() -> Vec<Instr> {
        vec![
            Instr::other(0x1000, 4),
            Instr::branch(0x1004, 4, InstrKind::CondBranch { taken: true }, 0x2000),
            Instr::branch(0x2000, 2, InstrKind::Call, 0x3000),
            Instr::branch(0x3000, 7, InstrKind::Return, 0x2002),
            Instr::branch(0x2002, 4, InstrKind::IndirectJump, 0x4000),
            Instr::branch(0x4000, 1, InstrKind::CondBranch { taken: false }, 0x9999),
        ]
    }

    /// `n` synthetic-but-valid records (varied kinds and fields).
    fn many(n: usize) -> Vec<Instr> {
        (0..n)
            .map(|i| {
                let pc = 0x1_0000 + (i as u64) * 4;
                match i % 4 {
                    0 => Instr::other(pc, 4),
                    1 => Instr::branch(pc, 4, InstrKind::CondBranch { taken: i % 8 == 1 }, pc + 64),
                    2 => Instr::branch(pc, 4, InstrKind::Call, pc + 128),
                    _ => Instr::branch(pc, 4, InstrKind::Return, pc.wrapping_sub(32)),
                }
            })
            .collect()
    }

    fn v2_bytes(instrs: &[Instr], chunk: u16) -> Vec<u8> {
        let mut src = VecTrace::new(instrs.to_vec());
        let mut buf = Vec::new();
        write_binary_v2(&mut src, &mut buf, u64::MAX, Some(IsaMode::Fixed4), chunk).unwrap();
        buf
    }

    fn trace_kind(err: &DcfbError) -> &TraceErrorKind {
        match err {
            DcfbError::Trace { kind, .. } => kind,
            other => panic!("expected trace error, got {other:?}"),
        }
    }

    #[test]
    fn binary_round_trip() {
        let mut src = VecTrace::new(sample());
        let mut buf = Vec::new();
        let n = write_binary(&mut src, &mut buf, u64::MAX).unwrap();
        assert_eq!(n, 6);
        assert!(buf.starts_with(MAGIC_V2));
        let back = read_binary(buf.as_slice()).unwrap();
        assert_eq!(back.instrs(), sample().as_slice());
    }

    #[test]
    fn v2_header_records_metadata() {
        let buf = v2_bytes(&many(100), 16);
        let (t, rep) = read_binary_checked(buf.as_slice(), ReadMode::Strict).unwrap();
        assert_eq!(rep.isa, Some(IsaMode::Fixed4));
        assert_eq!(rep.declared_records, 100);
        assert_eq!(rep.records, 100);
        assert!(!rep.is_salvaged());
        assert_eq!(t.len(), 100);
    }

    #[test]
    fn text_round_trip() {
        let mut src = VecTrace::new(sample());
        let mut buf = Vec::new();
        let n = write_text(&mut src, &mut buf, u64::MAX).unwrap();
        assert_eq!(n, 6);
        let back = read_text(buf.as_slice()).unwrap();
        assert_eq!(back.instrs(), sample().as_slice());
    }

    #[test]
    fn limit_truncates() {
        let mut src = VecTrace::new(sample());
        let mut buf = Vec::new();
        assert_eq!(write_binary(&mut src, &mut buf, 2).unwrap(), 2);
        let back = read_binary(buf.as_slice()).unwrap();
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let err = read_binary(&b"NOTATRCE"[..]).unwrap_err();
        assert_eq!(trace_kind(&err), &TraceErrorKind::BadMagic);
    }

    #[test]
    fn binary_rejects_flipped_magic_byte() {
        let mut buf = v2_bytes(&sample(), 4);
        buf[3] ^= 0x20; // DCFBTRC2 -> DCfBTRC2
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert_eq!(trace_kind(&err), &TraceErrorKind::BadMagic);
    }

    #[test]
    fn binary_rejects_empty_file() {
        let err = read_binary(&b""[..]).unwrap_err();
        assert_eq!(trace_kind(&err), &TraceErrorKind::Truncated);
        // A bare magic is a truncated header.
        let err = read_binary(&MAGIC_V2[..]).unwrap_err();
        assert_eq!(trace_kind(&err), &TraceErrorKind::Truncated);
    }

    #[test]
    fn binary_rejects_mid_record_truncation() {
        // Chop inside a chunk payload.
        let mut buf = v2_bytes(&many(40), 16);
        buf.truncate(buf.len() - 7);
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert_eq!(trace_kind(&err), &TraceErrorKind::Truncated);
    }

    #[test]
    fn binary_rejects_bad_kind_code() {
        // A bad kind *behind a valid checksum* (written corrupt, not
        // transmission damage) must still be rejected.
        let mut bad = sample();
        bad[2] = Instr::other(0x2000, 2);
        let mut buf = v2_bytes(&bad, 4);
        // Rewrite record 2's kind byte and fix up its chunk CRC.
        let rec_off = V2_HEADER_BYTES + 2 * RECORD_BYTES;
        buf[rec_off + 17] = 99;
        let payload_start = V2_HEADER_BYTES;
        let payload_len = 4 * RECORD_BYTES;
        let crc = crc32(&buf[payload_start..payload_start + payload_len]);
        buf[payload_start + payload_len..payload_start + payload_len + 4]
            .copy_from_slice(&crc.to_le_bytes());
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert_eq!(trace_kind(&err), &TraceErrorKind::BadKindCode(99));
    }

    #[test]
    fn binary_rejects_zero_size() {
        let mut bad = sample();
        bad[1] = Instr {
            pc: 0x1004,
            size: 0,
            kind: InstrKind::Other,
            target: 0,
        };
        let buf = v2_bytes(&bad, 4);
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert_eq!(trace_kind(&err), &TraceErrorKind::ZeroSize);
    }

    #[test]
    fn v2_detects_payload_bit_flip_strict() {
        let mut buf = v2_bytes(&many(64), 16);
        let flip_at = V2_HEADER_BYTES + 5; // inside chunk 0's payload
        buf[flip_at] ^= 0x01;
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert!(
            matches!(trace_kind(&err), TraceErrorKind::ChecksumMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn v2_salvages_prefix_in_lenient_mode() {
        let instrs = many(64);
        let mut buf = v2_bytes(&instrs, 16);
        // Damage chunk 2 (records 32..48).
        let chunk_bytes = 16 * RECORD_BYTES + 4;
        let flip_at = V2_HEADER_BYTES + 2 * chunk_bytes + 9;
        buf[flip_at] ^= 0x80;
        let (t, rep) = read_binary_checked(buf.as_slice(), ReadMode::Lenient).unwrap();
        assert_eq!(t.len(), 32, "salvage stops at the last valid chunk");
        assert_eq!(t.instrs(), &instrs[..32]);
        assert!(rep.is_salvaged());
        assert!(matches!(
            trace_kind(rep.salvage.as_ref().unwrap()),
            TraceErrorKind::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn v2_salvages_truncated_tail_in_lenient_mode() {
        let instrs = many(64);
        let mut buf = v2_bytes(&instrs, 16);
        buf.truncate(buf.len() - 30); // mid-chunk 3
        let (t, rep) = read_binary_checked(buf.as_slice(), ReadMode::Lenient).unwrap();
        assert_eq!(t.len(), 48);
        assert_eq!(t.instrs(), &instrs[..48]);
        assert!(rep.is_salvaged());
    }

    #[test]
    fn v2_detects_missing_records_at_chunk_boundary() {
        let instrs = many(64);
        let mut buf = v2_bytes(&instrs, 16);
        let chunk_bytes = 16 * RECORD_BYTES + 4;
        buf.truncate(V2_HEADER_BYTES + 2 * chunk_bytes); // exactly 2 chunks
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert_eq!(
            trace_kind(&err),
            &TraceErrorKind::RecordCountMismatch {
                declared: 64,
                actual: 32
            }
        );
        let (t, rep) = read_binary_checked(buf.as_slice(), ReadMode::Lenient).unwrap();
        assert_eq!(t.len(), 32);
        assert!(rep.is_salvaged());
    }

    #[test]
    fn v2_header_damage_is_fatal_even_lenient() {
        let mut buf = v2_bytes(&many(32), 16);
        buf[12] ^= 0x01; // declared-count byte; caught by the header CRC
        for mode in [ReadMode::Strict, ReadMode::Lenient] {
            let err = read_binary_checked(buf.as_slice(), mode).unwrap_err();
            assert!(
                matches!(trace_kind(&err), TraceErrorKind::BadHeader(_)),
                "{err}"
            );
        }
    }

    /// Satellite: any single-bit corruption of a valid v2 trace is
    /// either detected by the strict reader or provably harmless (the
    /// decoded stream is identical). With every byte covered by the
    /// magic, the header CRC, or a chunk CRC, nothing may silently
    /// change the instruction stream.
    #[test]
    fn v2_single_bit_corruption_never_silently_alters_the_stream() {
        let instrs = many(50);
        let buf = v2_bytes(&instrs, 16);
        let mut silent_accepts = 0u32;
        for byte in 0..buf.len() {
            for bit in 0..8 {
                let mut dam = buf.clone();
                dam[byte] ^= 1 << bit;
                match read_binary(dam.as_slice()) {
                    Err(_) => {} // detected
                    Ok(t) => {
                        assert_eq!(
                            t.instrs(),
                            instrs.as_slice(),
                            "flip at byte {byte} bit {bit} silently changed the stream"
                        );
                        silent_accepts += 1;
                    }
                }
            }
        }
        // Every byte is integrity-covered, so nothing should be
        // accepted at all — document that expectation.
        assert_eq!(silent_accepts, 0, "v2 has no padding; all flips detected");
    }

    #[test]
    fn faulty_reader_corruption_is_detected() {
        let buf = v2_bytes(&many(64), 16);
        // Deterministically sweep fault offsets with the FaultyReader.
        for seed in 0..32u64 {
            let reader = FaultyReader::with_random_bit_flip(buf.as_slice(), buf.len(), seed);
            match read_binary(reader) {
                Err(_) => {}
                Ok(t) => assert_eq!(t.len(), 64, "seed {seed} silently altered the stream"),
            }
        }
    }

    #[test]
    fn faulty_reader_short_reads_are_harmless() {
        let buf = v2_bytes(&many(64), 16);
        // Short reads exercise the retry loop but deliver intact bytes.
        let reader = FaultyReader::with_max_read(buf.as_slice(), 3);
        let t = read_binary(reader).unwrap();
        assert_eq!(t.len(), 64);
    }

    #[test]
    fn faulty_reader_io_error_surfaces_as_trace_io() {
        let buf = v2_bytes(&many(64), 16);
        let reader = FaultyReader::with_io_error_at(buf.as_slice(), 100);
        let err = read_binary(reader).unwrap_err();
        assert!(matches!(trace_kind(&err), TraceErrorKind::Io(_)), "{err}");
    }

    #[test]
    fn text_accepts_comments_and_decimal() {
        let text = "# comment\n\n4096 4 other\n0x1004 4 jump 8192\n";
        let t = read_text(text.as_bytes()).unwrap();
        assert_eq!(t.instrs().len(), 2);
        assert_eq!(t.instrs()[0].pc, 4096);
        assert_eq!(t.instrs()[1].target, 8192);
    }

    #[test]
    fn text_reports_line_numbers() {
        let text = "0x1000 4 other\n0x1004 4 zorp\n";
        let err = read_text(text.as_bytes()).unwrap_err();
        assert!(
            matches!(
                trace_kind(&err),
                TraceErrorKind::BadTextLine { line: 2, .. }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn text_rejects_missing_fields() {
        assert!(read_text(&b"0x1000"[..]).is_err());
        assert!(read_text(&b"0x1000 4 cond 0x2000"[..]).is_err()); // no taken
        assert!(read_text(&b"0x1000 0 other"[..]).is_err()); // zero size
    }

    #[test]
    fn replayed_trace_drives_streams_identically() {
        let mut src = VecTrace::new(sample());
        let mut buf = Vec::new();
        write_binary(&mut src, &mut buf, u64::MAX).unwrap();
        let mut a = VecTrace::new(sample());
        let mut b = read_binary(buf.as_slice()).unwrap();
        loop {
            let (x, y) = (a.next_instr(), b.next_instr());
            assert_eq!(x, y);
            if x.is_none() {
                break;
            }
        }
    }
}
