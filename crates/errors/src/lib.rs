//! # dcfb-errors
//!
//! The typed error hierarchy shared by every crate in the workspace,
//! plus the process exit-code policy for the `dcfb` CLI.
//!
//! Design rules (see DESIGN.md, "Trace format v2 & failure handling"):
//!
//! * Libraries never call `panic!`/`unwrap` on fallible input paths —
//!   they return [`DcfbError`]. The trace and CLI crates enforce this
//!   with `clippy::unwrap_used`-family deny lints.
//! * Every error formats as a one-line human-readable diagnostic; the
//!   CLI prints `error: {e}` and exits with [`DcfbError::exit_code`],
//!   never a backtrace.
//! * Exit codes: `2` usage errors, `3` bad input (malformed trace,
//!   unknown workload/method, invalid configuration), `4` run failures
//!   (a simulation panicked or produced an unusable result), `5` I/O
//!   on the host filesystem. Codes `6`, `7` and `8` are retired and
//!   must not be reused.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// Exit code for usage errors (bad flags, missing arguments).
pub const EXIT_USAGE: i32 = 2;
/// Exit code for bad input: corrupt/truncated traces, unknown
/// workloads/methods, invalid configuration.
pub const EXIT_BAD_INPUT: i32 = 3;
/// Exit code for run failures (a simulation died or diverged).
pub const EXIT_RUN_FAILURE: i32 = 4;
/// Exit code for host I/O failures (cannot read/write files).
pub const EXIT_IO: i32 = 5;

/// Where in a trace byte stream a problem was found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceLocation {
    /// Byte offset into the stream, when known.
    pub byte_offset: Option<u64>,
    /// Record index into the stream, when known.
    pub record: Option<u64>,
    /// Chunk index (format v2), when known.
    pub chunk: Option<u64>,
}

impl TraceLocation {
    /// An unknown location.
    pub const UNKNOWN: TraceLocation = TraceLocation {
        byte_offset: None,
        record: None,
        chunk: None,
    };

    /// A location known only by byte offset.
    pub fn at_byte(byte_offset: u64) -> Self {
        TraceLocation {
            byte_offset: Some(byte_offset),
            record: None,
            chunk: None,
        }
    }

    /// A location known by chunk index and byte offset.
    pub fn in_chunk(chunk: u64, byte_offset: u64) -> Self {
        TraceLocation {
            byte_offset: Some(byte_offset),
            record: None,
            chunk: Some(chunk),
        }
    }
}

impl fmt::Display for TraceLocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut wrote = false;
        if let Some(c) = self.chunk {
            write!(f, "chunk {c}")?;
            wrote = true;
        }
        if let Some(r) = self.record {
            if wrote {
                write!(f, ", ")?;
            }
            write!(f, "record {r}")?;
            wrote = true;
        }
        if let Some(b) = self.byte_offset {
            if wrote {
                write!(f, ", ")?;
            }
            write!(f, "byte {b}")?;
            wrote = true;
        }
        if !wrote {
            write!(f, "unknown offset")?;
        }
        Ok(())
    }
}

/// Why a trace stream was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceErrorKind {
    /// The stream does not start with a known magic header.
    BadMagic,
    /// The header declares an unsupported format version.
    BadVersion(u8),
    /// A header field is malformed (bad ISA code, header CRC, …).
    BadHeader(String),
    /// The stream ends mid-header, mid-chunk, or mid-record.
    Truncated,
    /// A chunk checksum does not match its payload.
    ChecksumMismatch {
        /// CRC32 stored in the chunk footer.
        stored: u32,
        /// CRC32 computed over the received payload.
        computed: u32,
    },
    /// A record carries an unknown instruction-kind code.
    BadKindCode(u8),
    /// A record carries a zero instruction size.
    ZeroSize,
    /// The stream holds fewer records than the header declares.
    RecordCountMismatch {
        /// Record count declared in the header.
        declared: u64,
        /// Records actually decoded.
        actual: u64,
    },
    /// A malformed record in an imported (foreign-format) trace.
    BadRecord(String),
    /// Malformed text-format line.
    BadTextLine {
        /// 1-based line number.
        line: u64,
        /// What was wrong with it.
        message: String,
    },
    /// The underlying reader failed.
    Io(String),
}

impl fmt::Display for TraceErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceErrorKind::BadMagic => write!(f, "not a DCFB trace (bad magic)"),
            TraceErrorKind::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceErrorKind::BadHeader(m) => write!(f, "bad trace header: {m}"),
            TraceErrorKind::Truncated => write!(f, "truncated trace"),
            TraceErrorKind::ChecksumMismatch { stored, computed } => write!(
                f,
                "chunk checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            TraceErrorKind::BadKindCode(c) => write!(f, "bad instruction kind code {c}"),
            TraceErrorKind::ZeroSize => write!(f, "zero instruction size"),
            TraceErrorKind::RecordCountMismatch { declared, actual } => write!(
                f,
                "record count mismatch (header declares {declared}, decoded {actual})"
            ),
            TraceErrorKind::BadRecord(m) => write!(f, "bad record: {m}"),
            TraceErrorKind::BadTextLine { line, message } => {
                write!(f, "line {line}: {message}")
            }
            TraceErrorKind::Io(m) => write!(f, "read failed: {m}"),
        }
    }
}

/// The workspace-wide error type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DcfbError {
    /// Command-line usage error (exit 2).
    Usage(String),
    /// Malformed or corrupt trace input (exit 3).
    Trace {
        /// What was wrong.
        kind: TraceErrorKind,
        /// Where it was found.
        location: TraceLocation,
    },
    /// Invalid simulation configuration (exit 3).
    Config(String),
    /// Unknown workload name (exit 3).
    UnknownWorkload {
        /// The requested name.
        name: String,
        /// The valid names, for the diagnostic.
        available: Vec<String>,
    },
    /// Unknown method name (exit 3).
    UnknownMethod {
        /// The requested name.
        name: String,
        /// The valid names, for the diagnostic.
        available: Vec<String>,
    },
    /// A simulation run failed — panicked, diverged, or produced an
    /// unusable report (exit 4).
    Run {
        /// Workload the run was on.
        workload: String,
        /// Method the run was testing.
        method: String,
        /// One-line failure description (panic payload or diagnosis).
        message: String,
    },
    /// Host filesystem I/O failure (exit 5).
    Io {
        /// Path being read or written.
        path: String,
        /// OS-level failure description.
        message: String,
    },
}

impl DcfbError {
    /// Builds a trace error at an unknown location.
    pub fn trace(kind: TraceErrorKind) -> Self {
        DcfbError::Trace {
            kind,
            location: TraceLocation::UNKNOWN,
        }
    }

    /// Builds a trace error at a known location.
    pub fn trace_at(kind: TraceErrorKind, location: TraceLocation) -> Self {
        DcfbError::Trace { kind, location }
    }

    /// Builds an I/O error for `path`.
    pub fn io(path: impl Into<String>, err: &std::io::Error) -> Self {
        DcfbError::Io {
            path: path.into(),
            message: err.to_string(),
        }
    }

    /// The process exit code the CLI maps this error to.
    pub fn exit_code(&self) -> i32 {
        match self {
            DcfbError::Usage(_) => EXIT_USAGE,
            DcfbError::Trace { .. }
            | DcfbError::Config(_)
            | DcfbError::UnknownWorkload { .. }
            | DcfbError::UnknownMethod { .. } => EXIT_BAD_INPUT,
            DcfbError::Run { .. } => EXIT_RUN_FAILURE,
            DcfbError::Io { .. } => EXIT_IO,
        }
    }
}

impl fmt::Display for DcfbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DcfbError::Usage(m) => write!(f, "{m}"),
            DcfbError::Trace { kind, location } => write!(f, "{kind} (at {location})"),
            DcfbError::Config(m) => write!(f, "invalid configuration: {m}"),
            DcfbError::UnknownWorkload { name, available } => {
                write!(f, "unknown workload {name:?}; available: {available:?}")
            }
            DcfbError::UnknownMethod { name, available } => {
                write!(f, "unknown method {name:?}; available: {available:?}")
            }
            DcfbError::Run {
                workload,
                method,
                message,
            } => write!(f, "run failed ({method} on {workload}): {message}"),
            DcfbError::Io { path, message } => write!(f, "{path}: {message}"),
        }
    }
}

impl std::error::Error for DcfbError {}

/// Extracts a one-line message from a `catch_unwind` panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_owned()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_match_policy() {
        assert_eq!(DcfbError::Usage("x".into()).exit_code(), 2);
        assert_eq!(DcfbError::trace(TraceErrorKind::BadMagic).exit_code(), 3);
        assert_eq!(DcfbError::Config("x".into()).exit_code(), 3);
        assert_eq!(
            DcfbError::UnknownMethod {
                name: "x".into(),
                available: vec![]
            }
            .exit_code(),
            3
        );
        assert_eq!(
            DcfbError::Run {
                workload: "w".into(),
                method: "m".into(),
                message: "boom".into()
            }
            .exit_code(),
            4
        );
        assert_eq!(
            DcfbError::Io {
                path: "p".into(),
                message: "denied".into()
            }
            .exit_code(),
            5
        );
    }

    #[test]
    fn diagnostics_are_one_line() {
        let errors = [
            DcfbError::trace_at(
                TraceErrorKind::ChecksumMismatch {
                    stored: 1,
                    computed: 2,
                },
                TraceLocation::in_chunk(3, 4096),
            ),
            DcfbError::trace(TraceErrorKind::RecordCountMismatch {
                declared: 100,
                actual: 7,
            }),
            DcfbError::Config("measure_instrs must be nonzero".into()),
        ];
        for e in errors {
            let s = e.to_string();
            assert!(!s.contains('\n'), "multi-line diagnostic: {s}");
            assert!(!s.is_empty());
        }
    }

    #[test]
    fn trace_location_formats() {
        assert_eq!(TraceLocation::UNKNOWN.to_string(), "unknown offset");
        assert_eq!(TraceLocation::at_byte(16).to_string(), "byte 16");
        assert_eq!(
            TraceLocation::in_chunk(2, 9234).to_string(),
            "chunk 2, byte 9234"
        );
    }

    #[test]
    fn panic_messages_extract() {
        let payload = std::panic::catch_unwind(|| panic!("boom {}", 1)).unwrap_err();
        assert_eq!(panic_message(payload.as_ref()), "boom 1");
        let payload = std::panic::catch_unwind(|| std::panic::panic_any(42u32)).unwrap_err();
        assert_eq!(
            panic_message(payload.as_ref()),
            "panic with non-string payload"
        );
    }
}
