//! Workload-source registry: one resolution path for every way a
//! workload can reach the simulator.
//!
//! Mirrors the prefetch-method registry: a spec string parses into a
//! [`SourceSpec`] and resolves into a [`ResolvedWorkload`] — a code
//! memory, a start pc, and a deterministic instruction-stream factory.
//! Three sources:
//!
//! * **synthetic** — the seven catalog workloads, unchanged. Resolution
//!   reuses the exact `Arc<ProgramImage>` + [`Walker`] pair the direct
//!   path uses, so report digests are byte-identical (gated by the
//!   `invariant/workload-source` conformance check).
//! * **mix** — `mix:NAME_A+NAME_B[,quantum=N]`: a multi-tenant
//!   round-robin interleaving of ≥ 2 catalog images through one
//!   simulator instance (see [`crate::mix`]).
//! * **trace** — `trace:PATH`: an on-disk trace (v2 binary or text,
//!   including `dcfb import` output), replayed over a [`RecordedCode`]
//!   reconstruction. [`load_trace`] is the one trace loader (`dcfb
//!   replay` calls it directly to salvage), and
//!   [`ResolvedWorkload::window`] is the one rule fitting a run's
//!   window to a finite trace.
//!
//! Every consumer (CLI run/compare/profile/record and the bench sweep)
//! funnels through [`SourceSpec::parse`] +
//! [`SourceSpec::resolve`], so mixes and imported traces are first-class
//! everywhere a workload name is accepted.

use crate::catalog::{workload, workload_names};
use crate::image::ProgramImage;
use crate::mix::{MixCode, MixStream, DEFAULT_QUANTUM, TENANT_STRIDE};
use crate::synth::Walker;
use dcfb_errors::DcfbError;
use dcfb_trace::{
    read_binary_checked, read_text, Addr, CodeMemory, Instr, InstrStream, IsaMode, ReadMode,
    ReadReport, RecordedCode, VecTrace,
};
use std::sync::Arc;

/// Spec prefix selecting the multi-tenant interleaver.
pub const MIX_PREFIX: &str = "mix:";
/// Spec prefix selecting on-disk trace replay.
pub const TRACE_PREFIX: &str = "trace:";
/// Syntax summary for the mix source (shown in errors and `dcfb list`).
pub const MIX_SYNTAX: &str = "mix:NAME_A+NAME_B[,quantum=N]";
/// Syntax summary for the trace source (shown in errors and `dcfb list`).
pub const TRACE_SYNTAX: &str = "trace:PATH (binary v2 or text; see `dcfb import`)";

/// Every way to name a workload: the seven synthetic names plus the
/// `mix:` and `trace:` source syntaxes. This is the `available` list
/// attached to unknown-workload errors.
pub fn source_names() -> Vec<String> {
    let mut names: Vec<String> = workload_names().iter().map(|s| (*s).to_owned()).collect();
    names.push(MIX_SYNTAX.to_owned());
    names.push(TRACE_SYNTAX.to_owned());
    names
}

/// A parsed (but not yet resolved) workload spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SourceSpec {
    /// One of the seven synthetic catalog workloads.
    Synthetic(String),
    /// Multi-tenant interleaving of ≥ 2 synthetic images.
    Mix {
        /// Catalog names, in round-robin order.
        tenants: Vec<String>,
        /// Instructions per tenant turn (≥ 1).
        quantum: u64,
    },
    /// Replay of an on-disk trace file.
    Trace {
        /// Path to the trace (binary v2 or text).
        path: String,
    },
}

impl SourceSpec {
    /// Parses a workload spec string. Purely syntactic — no file I/O;
    /// `trace:` path existence is checked at [`SourceSpec::resolve`]
    /// time. Unknown names produce the registry-wide enumerating
    /// [`DcfbError::UnknownWorkload`].
    pub fn parse(name: &str) -> Result<SourceSpec, DcfbError> {
        if let Some(rest) = name.strip_prefix(MIX_PREFIX) {
            return Self::parse_mix(rest);
        }
        if let Some(path) = name.strip_prefix(TRACE_PREFIX) {
            if path.is_empty() {
                return Err(DcfbError::Config(format!(
                    "trace source needs a path: {TRACE_SYNTAX}"
                )));
            }
            return Ok(SourceSpec::Trace {
                path: path.to_owned(),
            });
        }
        if workload(name).is_some() {
            Ok(SourceSpec::Synthetic(name.to_owned()))
        } else {
            Err(DcfbError::UnknownWorkload {
                name: name.to_owned(),
                available: source_names(),
            })
        }
    }

    fn parse_mix(rest: &str) -> Result<SourceSpec, DcfbError> {
        let mut pieces = rest.split(',');
        let tenant_part = pieces.next().unwrap_or_default();
        let mut quantum = DEFAULT_QUANTUM;
        for opt in pieces {
            let opt = opt.trim();
            if let Some(v) = opt.strip_prefix("quantum=") {
                quantum = v.parse::<u64>().map_err(|_| {
                    DcfbError::Config(format!("mix quantum must be a positive integer, got {v:?}"))
                })?;
                if quantum == 0 {
                    return Err(DcfbError::Config(
                        "mix quantum must be at least 1".to_owned(),
                    ));
                }
            } else {
                return Err(DcfbError::Config(format!(
                    "unknown mix option {opt:?}; supported: quantum=N"
                )));
            }
        }
        let tenants: Vec<String> = tenant_part
            .split('+')
            .map(str::trim)
            .filter(|t| !t.is_empty())
            .map(str::to_owned)
            .collect();
        if tenants.len() < 2 {
            return Err(DcfbError::Config(format!(
                "a mix needs at least two tenants: {MIX_SYNTAX}"
            )));
        }
        for t in &tenants {
            if workload(t).is_none() {
                return Err(DcfbError::UnknownWorkload {
                    name: t.clone(),
                    available: source_names(),
                });
            }
        }
        Ok(SourceSpec::Mix { tenants, quantum })
    }

    /// Canonical spec string: parse-stable, options fully spelled out.
    /// This is the name that labels reports and enters job digests, so
    /// `mix:A+B` and `mix:A+B,quantum=500` cache as distinct jobs.
    pub fn canonical_name(&self) -> String {
        match self {
            SourceSpec::Synthetic(name) => name.clone(),
            SourceSpec::Mix { tenants, quantum } => {
                format!("{MIX_PREFIX}{},quantum={quantum}", tenants.join("+"))
            }
            SourceSpec::Trace { path } => format!("{TRACE_PREFIX}{path}"),
        }
    }

    /// Which registry source this spec selects.
    pub fn source_kind(&self) -> &'static str {
        match self {
            SourceSpec::Synthetic(_) => "synthetic",
            SourceSpec::Mix { .. } => "mix",
            SourceSpec::Trace { .. } => "trace",
        }
    }

    /// Resolves the spec into code memory + stream factory. `trace:`
    /// specs read the file here through [`load_trace`] (strict mode —
    /// damaged traces are rejected; use `dcfb replay --lenient` to
    /// salvage interactively).
    pub fn resolve(&self, isa: IsaMode) -> Result<ResolvedWorkload, DcfbError> {
        match self {
            SourceSpec::Synthetic(name) => {
                let w = workload(name).ok_or_else(|| DcfbError::UnknownWorkload {
                    name: name.clone(),
                    available: source_names(),
                })?;
                Ok(ResolvedWorkload::from_image(w.image(isa)))
            }
            SourceSpec::Mix { tenants, quantum } => {
                if tenants.len() < 2 {
                    return Err(DcfbError::Config(format!(
                        "a mix needs at least two tenants: {MIX_SYNTAX}"
                    )));
                }
                let mut images = Vec::with_capacity(tenants.len());
                for t in tenants {
                    let w = workload(t).ok_or_else(|| DcfbError::UnknownWorkload {
                        name: t.clone(),
                        available: source_names(),
                    })?;
                    let image = w.image(isa);
                    let span = image.end().saturating_sub(crate::image::IMAGE_BASE);
                    if span >= TENANT_STRIDE {
                        return Err(DcfbError::Config(format!(
                            "tenant {t:?} image spans {span:#x} bytes, too large for the \
                             {TENANT_STRIDE:#x}-byte tenant stride"
                        )));
                    }
                    images.push(image);
                }
                let start_pc = images[0].functions()[0].entry;
                Ok(ResolvedWorkload {
                    name: self.canonical_name(),
                    kind: "mix",
                    code: Arc::new(MixCode::new(&images)),
                    start_pc,
                    factory: StreamFactory::Mix {
                        images,
                        quantum: *quantum,
                    },
                })
            }
            SourceSpec::Trace { path } => {
                load_trace(path, ReadMode::Strict, self.canonical_name()).map(|(w, _)| w)
            }
        }
    }
}

/// Loads an on-disk trace (binary v2 or text, sniffed by magic) as
/// a workload labelled `name`: the trace is replayed verbatim over a
/// [`RecordedCode`] reconstruction. Binary reads also return their
/// [`ReadReport`]; under [`ReadMode::Lenient`] its `salvage` says why
/// only a prefix was kept.
///
/// # Errors
///
/// [`DcfbError::Io`] if the file cannot be read, [`DcfbError::Trace`]
/// for damage `mode` does not salvage, and [`DcfbError::Config`] for a
/// trace with no records.
pub fn load_trace(
    path: &str,
    mode: ReadMode,
    name: impl Into<String>,
) -> Result<(ResolvedWorkload, Option<ReadReport>), DcfbError> {
    let data = std::fs::read(path).map_err(|e| DcfbError::io(path, &e))?;
    let (trace, report) = if dcfb_trace::file::is_binary(&data) {
        let (trace, report) = read_binary_checked(data.as_slice(), mode)?;
        (trace, Some(report))
    } else {
        (read_text(data.as_slice())?, None)
    };
    let Some(first) = trace.instrs().first() else {
        let damage = report
            .as_ref()
            .and_then(|r| r.salvage.as_ref())
            .map_or_else(String::new, |reason| format!(" (damaged: {reason})"));
        return Err(DcfbError::Config(format!(
            "{path}: trace holds no records{damage}; nothing to run"
        )));
    };
    let start_pc = first.pc;
    let trace = Arc::new(trace);
    let workload = ResolvedWorkload {
        name: name.into(),
        kind: "trace",
        code: Arc::new(RecordedCode::from_trace(trace.instrs())),
        start_pc,
        factory: StreamFactory::Replay(trace),
    };
    Ok((workload, report))
}

/// Parses and resolves in one step — the common consumer entry point.
pub fn resolve_workload(name: &str, isa: IsaMode) -> Result<ResolvedWorkload, DcfbError> {
    SourceSpec::parse(name)?.resolve(isa)
}

/// How a [`ResolvedWorkload`] manufactures instruction streams.
enum StreamFactory {
    /// One synthetic image; streams are [`Walker`]s.
    Synthetic(Arc<ProgramImage>),
    /// Tenant images round-robined by [`MixStream`].
    Mix {
        images: Vec<Arc<ProgramImage>>,
        quantum: u64,
    },
    /// A captured trace, replayed verbatim (trace seed is ignored —
    /// replay is deterministic by construction).
    Replay(Arc<VecTrace>),
}

/// A workload resolved through the registry: everything a simulator
/// needs (code memory, start pc, display name) plus a factory for
/// independent, deterministic instruction streams.
pub struct ResolvedWorkload {
    name: String,
    kind: &'static str,
    code: Arc<dyn CodeMemory + Send + Sync>,
    start_pc: Addr,
    factory: StreamFactory,
}

impl std::fmt::Debug for ResolvedWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResolvedWorkload")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .field("start_pc", &self.start_pc)
            .finish_non_exhaustive()
    }
}

impl ResolvedWorkload {
    /// Wraps a synthetic image. Start pc and name match what
    /// `Simulator::new` derives directly from the image, so the
    /// resolved path is digest-identical to the legacy path.
    pub fn from_image(image: Arc<ProgramImage>) -> Self {
        let start_pc = image.functions()[0].entry;
        let name = image.params().name.clone();
        ResolvedWorkload {
            name,
            kind: "synthetic",
            code: image.clone() as Arc<dyn CodeMemory + Send + Sync>,
            start_pc,
            factory: StreamFactory::Synthetic(image),
        }
    }

    /// Display/digest name (canonical spec string).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Registry source kind: `"synthetic"`, `"mix"`, or `"trace"`.
    pub fn source_kind(&self) -> &'static str {
        self.kind
    }

    /// The code memory backing static decode.
    pub fn code(&self) -> Arc<dyn CodeMemory + Send + Sync> {
        Arc::clone(&self.code)
    }

    /// First fetched pc.
    pub fn start_pc(&self) -> Addr {
        self.start_pc
    }

    /// For synthetic sources, the underlying image (used by callers
    /// that need image-level analyses, e.g. `dcfb analyze`).
    pub fn image(&self) -> Option<&Arc<ProgramImage>> {
        match &self.factory {
            StreamFactory::Synthetic(image) => Some(image),
            _ => None,
        }
    }

    /// Total instructions available, if the source is finite.
    pub fn trace_len(&self) -> Option<u64> {
        match &self.factory {
            StreamFactory::Replay(trace) => Some(trace.instrs().len() as u64),
            _ => None,
        }
    }

    /// Fits a requested `(warmup, measure)` window to the source.
    /// Synthetic and mix streams never end, so the request stands. A
    /// finite trace warms up on at most half its records and measures
    /// at most the rest; each part stays at least 1, so a valid request
    /// stays valid.
    pub fn window(&self, warmup: u64, measure: u64) -> (u64, u64) {
        match self.trace_len() {
            None => (warmup, measure),
            Some(total) => {
                let warmup = warmup.min(total / 2);
                let measure = (total - warmup).min(measure);
                (warmup.max(1), measure.max(1))
            }
        }
    }

    /// Builds a fresh instruction stream. Streams from the same
    /// `(spec, trace_seed)` are bit-identical; synthetic streams match
    /// `Walker::new(image, trace_seed)` exactly.
    pub fn stream(&self, trace_seed: u64) -> SourceStream {
        match &self.factory {
            StreamFactory::Synthetic(image) => {
                SourceStream::Synthetic(Walker::new(Arc::clone(image), trace_seed))
            }
            StreamFactory::Mix { images, quantum } => {
                SourceStream::Mix(MixStream::new(images, *quantum, trace_seed))
            }
            StreamFactory::Replay(trace) => SourceStream::Replay(ArcReplay {
                trace: Arc::clone(trace),
                pos: 0,
            }),
        }
    }
}

/// The instruction stream of a [`ResolvedWorkload`], one variant per
/// source kind. A concrete type rather than a boxed trait object, so a
/// simulator run over a synthetic source inlines the walker's
/// per-instruction fast path into its fetch loop.
pub enum SourceStream {
    /// A synthetic workload's walker.
    Synthetic(Walker),
    /// A multi-tenant interleaving.
    Mix(MixStream),
    /// A recorded trace, replayed from the start.
    Replay(ArcReplay),
}

impl InstrStream for SourceStream {
    #[inline]
    fn next_instr(&mut self) -> Option<Instr> {
        match self {
            SourceStream::Synthetic(w) => w.next_instr(),
            SourceStream::Mix(m) => m.next_instr(),
            SourceStream::Replay(r) => r.next_instr(),
        }
    }
}

/// Owned replay cursor over a shared trace — the owning counterpart of
/// the borrowing [`dcfb_trace::ReplayStream`].
pub struct ArcReplay {
    trace: Arc<VecTrace>,
    pos: usize,
}

impl InstrStream for ArcReplay {
    fn next_instr(&mut self) -> Option<Instr> {
        let i = self.trace.instrs().get(self.pos).copied()?;
        self.pos += 1;
        Some(i)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::catalog::workload_names;

    #[test]
    fn parses_all_synthetic_names() {
        for name in workload_names() {
            let spec = SourceSpec::parse(name).unwrap();
            assert_eq!(spec, SourceSpec::Synthetic((*name).to_owned()));
            assert_eq!(spec.canonical_name(), *name);
            assert_eq!(spec.source_kind(), "synthetic");
        }
    }

    #[test]
    fn unknown_name_enumerates_all_sources() {
        let err = SourceSpec::parse("No Such Workload").unwrap_err();
        let DcfbError::UnknownWorkload { name, available } = err else {
            panic!("expected UnknownWorkload, got {err:?}");
        };
        assert_eq!(name, "No Such Workload");
        assert_eq!(available.len(), workload_names().len() + 2);
        assert!(available.iter().any(|s| s.starts_with("mix:")));
        assert!(available.iter().any(|s| s.starts_with("trace:")));
    }

    #[test]
    fn parses_mix_with_options() {
        let spec = SourceSpec::parse("mix:Web (Apache)+Web Search").unwrap();
        assert_eq!(
            spec,
            SourceSpec::Mix {
                tenants: vec!["Web (Apache)".to_owned(), "Web Search".to_owned()],
                quantum: DEFAULT_QUANTUM,
            }
        );
        let spec = SourceSpec::parse("mix:Web (Apache)+Web Search,quantum=500").unwrap();
        assert_eq!(
            spec,
            SourceSpec::Mix {
                tenants: vec!["Web (Apache)".to_owned(), "Web Search".to_owned()],
                quantum: 500,
            }
        );
        assert_eq!(
            spec.canonical_name(),
            "mix:Web (Apache)+Web Search,quantum=500"
        );
        assert_eq!(spec.source_kind(), "mix");
    }

    #[test]
    fn mix_parse_rejections_are_typed() {
        for bad in [
            "mix:Web (Apache)",
            "mix:",
            "mix:Web (Apache)+Web Search,quantum=0",
            "mix:Web (Apache)+Web Search,quantum=many",
            "mix:Web (Apache)+Web Search,slice=4",
        ] {
            let err = SourceSpec::parse(bad).unwrap_err();
            assert!(
                matches!(err, DcfbError::Config(_)),
                "{bad}: expected Config, got {err:?}"
            );
        }
        let err = SourceSpec::parse("mix:Web (Apache)+Nope").unwrap_err();
        assert!(matches!(err, DcfbError::UnknownWorkload { .. }));
    }

    #[test]
    fn trace_spec_parses_and_missing_file_is_io() {
        let spec = SourceSpec::parse("trace:/no/such/file.dcfbt").unwrap();
        assert_eq!(spec.source_kind(), "trace");
        assert_eq!(spec.canonical_name(), "trace:/no/such/file.dcfbt");
        let err = spec.resolve(IsaMode::Fixed4).unwrap_err();
        assert!(matches!(err, DcfbError::Io { .. }), "got {err:?}");
        let err = SourceSpec::parse("trace:").unwrap_err();
        assert!(matches!(err, DcfbError::Config(_)));
    }

    #[test]
    fn synthetic_resolution_matches_direct_walker() {
        let resolved = resolve_workload("Web Search", IsaMode::Fixed4).unwrap();
        assert_eq!(resolved.name(), "Web Search");
        assert_eq!(resolved.source_kind(), "synthetic");
        let w = workload("Web Search").unwrap();
        let image = w.image(IsaMode::Fixed4);
        assert_eq!(resolved.start_pc(), image.functions()[0].entry);
        let mut direct = Walker::new(Arc::clone(&image), 99);
        let mut via = resolved.stream(99);
        for _ in 0..2_000 {
            assert_eq!(via.next_instr(), direct.next_instr());
        }
    }

    #[test]
    fn window_fits_finite_traces_and_leaves_endless_sources_alone() {
        let dir = std::env::temp_dir().join(format!("dcfb-window-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let image = workload("Web Search").unwrap().image(IsaMode::Fixed4);
        let load = |total: u64| {
            let path = dir.join(format!("t{total}.txt"));
            let mut walker = Walker::new(Arc::clone(&image), 3);
            let file = std::fs::File::create(&path).unwrap();
            dcfb_trace::write_text(&mut walker, file, total).unwrap();
            let (w, report) =
                load_trace(path.to_str().unwrap(), ReadMode::Strict, "trace").unwrap();
            assert!(report.is_none(), "text traces carry no read report");
            assert_eq!(w.trace_len(), Some(total));
            w
        };
        // (total, requested warmup, requested measure, expected window)
        let cases: &[(u64, u64, u64, (u64, u64))] = &[
            (1, 1, 1, (1, 1)),
            (1, 500, 1_000, (1, 1)),
            (2, 1, 1, (1, 1)),
            (2, 2, 2, (1, 1)),
            (2, 9, 9, (1, 1)),
            (5_000, 1_000, 2_000, (1_000, 2_000)),
            (5_000, 2_500, 2_500, (2_500, 2_500)),
            (5_000, 2_000, 5_000, (2_000, 3_000)),
            (5_000, 4_999, 1, (2_500, 1)),
            (5_000, 5_000, 5_000, (2_500, 2_500)),
            (5_000, 500_000, 1_000_000, (2_500, 2_500)),
        ];
        for &total in &[1, 2, 5_000] {
            let w = load(total);
            for &(_, warmup, measure, want) in cases.iter().filter(|c| c.0 == total) {
                assert_eq!(w.window(warmup, measure), want, "total {total}");
            }
        }
        for spec in ["Web Search", "mix:Web (Apache)+Web Search"] {
            let w = resolve_workload(spec, IsaMode::Fixed4).unwrap();
            assert_eq!(w.trace_len(), None);
            for (warmup, measure) in [(1, 1), (2_500, 2_500), (500_000, 1_000_000)] {
                assert_eq!(w.window(warmup, measure), (warmup, measure), "{spec}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mix_resolution_streams_deterministically() {
        let resolved =
            resolve_workload("mix:Web (Apache)+Web Search,quantum=64", IsaMode::Fixed4).unwrap();
        assert_eq!(resolved.source_kind(), "mix");
        let mut a = resolved.stream(5);
        let mut b = resolved.stream(5);
        for _ in 0..1_000 {
            assert_eq!(a.next_instr(), b.next_instr());
        }
    }
}
