//! On-disk trace format contracts, end to end: v2 files must decode
//! back to the exact instruction sequence that was encoded, a
//! flipped byte anywhere past the header must be *detected* (strict
//! mode rejects; lenient mode salvages only the CRC-verified prefix),
//! and a damaged header must be fatal in both modes.

use dcfb_errors::{DcfbError, TraceErrorKind};
use dcfb_trace::{read_binary, read_binary_checked, write_binary_v2, IsaMode, ReadMode, VecTrace};
use dcfb_workloads::{Walker, Workload, WorkloadParams};

/// v2 header length (see the layout doc in `dcfb_trace::file`).
const HEADER: usize = 24;
/// Bytes per record: pc (8) + target (8) + size (1) + kind (1).
const RECORD: usize = 18;
/// Small chunks so a handful of records spans several CRC footers.
const CHUNK: u16 = 8;

fn workload() -> Workload {
    Workload {
        name: "roundtrip",
        params: WorkloadParams {
            name: "roundtrip".to_owned(),
            functions: 200,
            root_functions: 8,
            ..WorkloadParams::default()
        },
        image_seed: 17,
    }
}

fn capture(n: usize) -> VecTrace {
    let image = workload().image(IsaMode::Fixed4);
    let mut walker = Walker::new(image, 9);
    VecTrace::capture(&mut walker, n)
}

fn encode_v2(trace: &VecTrace, chunk: u16) -> Vec<u8> {
    let mut bytes = Vec::new();
    let n = write_binary_v2(
        &mut trace.replay(),
        &mut bytes,
        u64::MAX,
        Some(IsaMode::Fixed4),
        chunk,
    )
    .expect("in-memory write");
    assert_eq!(n as usize, trace.len());
    bytes
}

#[test]
fn v2_round_trips_exactly() {
    let trace = capture(5_000);
    let bytes = encode_v2(&trace, 512);
    let (back, report) = read_binary_checked(bytes.as_slice(), ReadMode::Strict).unwrap();
    assert_eq!(back.instrs(), trace.instrs());
    assert_eq!(report.isa, Some(IsaMode::Fixed4));
    assert_eq!(report.records, 5_000);
    assert_eq!(report.declared_records, 5_000);
    assert!(!report.is_salvaged());
}

#[test]
fn corrupted_chunk_is_rejected_strict() {
    let trace = capture(30);
    let mut bytes = encode_v2(&trace, CHUNK);
    // Flip one payload byte inside the third chunk (two full 8-record
    // chunks precede it).
    let chunk_bytes = usize::from(CHUNK) * RECORD + 4;
    bytes[HEADER + 2 * chunk_bytes + 5] ^= 0x01;
    let err = read_binary(bytes.as_slice()).expect_err("strict mode must reject");
    match err {
        DcfbError::Trace { kind, .. } => {
            assert!(
                matches!(kind, TraceErrorKind::ChecksumMismatch { .. }),
                "expected a checksum mismatch, got {kind:?}"
            );
        }
        other => panic!("expected DcfbError::Trace, got {other:?}"),
    }
}

#[test]
fn corrupted_chunk_salvages_verified_prefix_lenient() {
    let trace = capture(30);
    let mut bytes = encode_v2(&trace, CHUNK);
    let chunk_bytes = usize::from(CHUNK) * RECORD + 4;
    bytes[HEADER + 2 * chunk_bytes + 5] ^= 0x01;
    let (back, report) = read_binary_checked(bytes.as_slice(), ReadMode::Lenient).unwrap();
    // Exactly the two CRC-verified chunks before the damage survive;
    // nothing from the damaged chunk leaks through.
    assert_eq!(report.records, 2 * u64::from(CHUNK));
    assert_eq!(back.instrs(), &trace.instrs()[..2 * usize::from(CHUNK)]);
    assert!(report.is_salvaged());
    assert!(matches!(
        report.salvage,
        Some(DcfbError::Trace {
            kind: TraceErrorKind::ChecksumMismatch { .. },
            ..
        })
    ));
}

#[test]
fn truncated_v2_salvages_whole_chunks_lenient() {
    let trace = capture(30);
    let bytes = encode_v2(&trace, CHUNK);
    // Cut mid-way through the final (6-record) chunk.
    let cut = bytes.len() - 40;
    assert!(
        read_binary(&bytes[..cut]).is_err(),
        "strict mode must reject a truncated stream"
    );
    let (back, report) = read_binary_checked(&bytes[..cut], ReadMode::Lenient).unwrap();
    assert_eq!(report.records, 3 * u64::from(CHUNK));
    assert_eq!(back.instrs(), &trace.instrs()[..3 * usize::from(CHUNK)]);
    assert!(report.is_salvaged());
}

#[test]
fn damaged_header_is_fatal_even_lenient() {
    let trace = capture(30);
    let mut bytes = encode_v2(&trace, CHUNK);
    bytes[12] ^= 0x01; // declared-record-count field: header CRC breaks
    assert!(read_binary(bytes.as_slice()).is_err());
    assert!(
        read_binary_checked(bytes.as_slice(), ReadMode::Lenient).is_err(),
        "nothing after a damaged header can be trusted"
    );
}
