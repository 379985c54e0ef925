//! Minimal dependency-free argument parsing.

use dcfb_errors::DcfbError;
use dcfb_trace::IsaMode;

/// Usage text shown on `help` and argument errors.
pub const USAGE: &str = "\
dcfb — Divide-and-Conquer Frontend Bottleneck simulator

USAGE:
    dcfb <COMMAND> [OPTIONS]

COMMANDS:
    list                 List workloads and prefetch methods
    run                  Run one method on one workload
    compare              Compare several methods on one workload
    analyze              Timing-free trace analyses for one workload
    profile              Run one method with telemetry on and export
                         <prefix>.metrics.json (versioned schema),
                         <prefix>.series.csv (windowed time series) and
                         <prefix>.trace.json (Chrome trace events);
                         --out sets the prefix (default \"profile\")
    sweep-btb            Ours-vs-Shotgun as the BTB shrinks (Fig. 18)
    record               Write a workload trace to a file (any source:
                         synthetic, mix:, or trace:)
    replay               Simulate an external trace file
    import               Convert a ChampSim-style record file (--trace)
                         into a checksummed v2 trace (--out); the result
                         runs everywhere via --workload trace:PATH.
                         --lenient salvages the longest well-formed
                         prefix of a damaged input
    conformance          Lockstep-check the prefetch structures against
                         executable reference models over fuzzed op
                         streams, plus cross-prefetcher invariants;
                         exits 4 with a shrunk counterexample on the
                         first divergence
    chaos                Run the seeded fault campaign through the real
                         stack (trace truncation under the strict and
                         lenient loaders, checkpoint salvage) and check
                         its invariants; exits 4 on any violation.
                         --seed reproduces a campaign, --quick runs the
                         tier-1 smoke subset
    fuzz                 Coverage-guided conformance fuzzing: mutate op
                         sequences on the worker pool, keep only
                         coverage-increasing inputs (ddmin-minimized),
                         and lockstep-check every candidate against the
                         reference models; exits 4 with a shrunk
                         counterexample on the first divergence. The
                         result is bit-identical at any --jobs; --quick
                         runs the bounded smoke campaign (and requires
                         the guided coverage to beat the fixed-seed
                         generator), --state persists/resumes the
                         campaign, --corpus-out writes the minimized
                         corpus text
    help                 Show this message

OPTIONS:
    --workload <SPEC>    Workload source (required except `list`): a
                         Table IV workload name, a multi-tenant mix
                         `mix:NAME_A+NAME_B[,quantum=N]`, or an on-disk
                         trace `trace:PATH` (see `dcfb import`)
    --method <NAME>      Method for `run` (default SN4L+Dis+BTB)
    --methods <A,B,C>    Comma-separated list for `compare`
    --warmup <N>         Warmup instructions (default 500000)
    --measure <N>        Measured instructions (default 1000000)
    --seed <N>           Trace seed (default 42)
    --isa <fixed|variable>  Instruction encoding (default fixed)
    --json               Machine-readable output (for `run`)
    --out <FILE>         Output path for `record` / prefix for `profile`
    --trace <FILE>       Input path for `replay` / `import`
    --format <binary|text>  Trace format for `record` (default binary)
    --ops <N>            Fuzzed ops per structure for `conformance`,
                         total op budget for `fuzz` (default 10000;
                         zero is a configuration error, exit 3)
    --lenient            For `replay` / `import`: salvage the valid
                         prefix of a damaged input instead of failing
                         (default is strict: any corruption is an
                         error, exit 3)
    --quick              For `chaos` / `fuzz`: run the reduced smoke
                         campaign
    --jobs <N>           For `fuzz`: worker threads for candidate
                         evaluation (default 0 = DCFB_JOBS, which
                         itself defaults to the host's parallelism);
                         any value yields bit-identical results
    --corpus-out <FILE>  For `fuzz`: write the minimized corpus in the
                         replayable text form (the source of the
                         checked-in seed corpus)
    --state <FILE>       For `fuzz`: campaign checkpoint file, saved
                         every round and resumed when present
";

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Cli {
    /// Subcommand name.
    pub command: String,
    /// `--workload`.
    pub workload: Option<String>,
    /// `--method`.
    pub method: String,
    /// `--methods`.
    pub methods: Vec<String>,
    /// `--warmup`.
    pub warmup: u64,
    /// `--measure`.
    pub measure: u64,
    /// `--seed`.
    pub seed: u64,
    /// `--isa`.
    pub isa: IsaMode,
    /// `--json`.
    pub json: bool,
    /// `--out` (for `record`).
    pub out: Option<String>,
    /// `--trace` (for `replay`).
    pub trace: Option<String>,
    /// `--format` for `record`: `"binary"` or `"text"`.
    pub format: String,
    /// `--lenient` for `replay`: salvage damaged traces.
    pub lenient: bool,
    /// `--ops` for `conformance` / `fuzz`: op budget. Positivity is a
    /// typed config rule checked at run time, not here.
    pub ops: usize,
    /// `--quick` for `chaos` / `fuzz`: reduced smoke campaign.
    pub quick: bool,
    /// `--jobs` for `fuzz`: worker threads (0 = `DCFB_JOBS`).
    pub jobs: usize,
    /// `--corpus-out` for `fuzz`: minimized-corpus output path.
    pub corpus_out: Option<String>,
    /// `--state` for `fuzz`: campaign checkpoint file.
    pub state: Option<String>,
}

impl Cli {
    /// Parses arguments (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Cli, String> {
        let mut it = args.into_iter();
        let command = it.next().ok_or("missing command")?;
        let mut cli = Cli {
            command,
            workload: None,
            method: "SN4L+Dis+BTB".to_owned(),
            methods: vec![
                "NL".into(),
                "N4L".into(),
                "SN4L".into(),
                "SN4L+Dis".into(),
                "SN4L+Dis+BTB".into(),
                "Shotgun".into(),
                "Confluence".into(),
            ],
            warmup: 500_000,
            measure: 1_000_000,
            seed: 42,
            isa: IsaMode::Fixed4,
            json: false,
            out: None,
            trace: None,
            format: "binary".to_owned(),
            lenient: false,
            ops: 10_000,
            quick: false,
            jobs: 0,
            corpus_out: None,
            state: None,
        };
        while let Some(flag) = it.next() {
            let mut value = |name: &str| -> Result<String, String> {
                it.next().ok_or_else(|| format!("{name} needs a value"))
            };
            match flag.as_str() {
                "--workload" => cli.workload = Some(value("--workload")?),
                "--method" => cli.method = value("--method")?,
                "--methods" => {
                    cli.methods = value("--methods")?
                        .split(',')
                        .map(|s| s.trim().to_owned())
                        .filter(|s| !s.is_empty())
                        .collect();
                    if cli.methods.is_empty() {
                        return Err("--methods list is empty".into());
                    }
                }
                "--warmup" => {
                    cli.warmup = value("--warmup")?
                        .parse()
                        .map_err(|_| "--warmup must be an integer")?;
                }
                "--measure" => {
                    cli.measure = value("--measure")?
                        .parse()
                        .map_err(|_| "--measure must be an integer")?;
                }
                "--seed" => {
                    cli.seed = value("--seed")?
                        .parse()
                        .map_err(|_| "--seed must be an integer")?;
                }
                "--isa" => {
                    cli.isa = match value("--isa")?.as_str() {
                        "fixed" => IsaMode::Fixed4,
                        "variable" => IsaMode::Variable,
                        other => return Err(format!("unknown --isa {other:?}")),
                    };
                }
                "--ops" => {
                    // `--ops 0` parses; the commands reject it at run
                    // time as a typed config error (exit 3), so a
                    // zero budget never silently "passes" by checking
                    // nothing.
                    cli.ops = value("--ops")?
                        .parse()
                        .map_err(|_| "--ops must be an integer")?;
                }
                "--jobs" => {
                    cli.jobs = value("--jobs")?
                        .parse()
                        .map_err(|_| "--jobs must be an integer")?;
                }
                "--corpus-out" => cli.corpus_out = Some(value("--corpus-out")?),
                "--state" => cli.state = Some(value("--state")?),
                "--json" => cli.json = true,
                "--lenient" => cli.lenient = true,
                "--quick" => cli.quick = true,
                "--out" => cli.out = Some(value("--out")?),
                "--trace" => cli.trace = Some(value("--trace")?),
                "--format" => {
                    cli.format = value("--format")?;
                    if cli.format != "binary" && cli.format != "text" {
                        return Err(format!("unknown --format {:?}", cli.format));
                    }
                }
                other => return Err(format!("unknown option {other:?}")),
            }
        }
        Ok(cli)
    }

    /// The workload-source spec, as a typed error when missing or
    /// unknown. Both error paths enumerate every registry source —
    /// the seven synthetic names plus the `mix:` and `trace:`
    /// syntaxes — not just the synthetic catalog.
    ///
    /// # Errors
    ///
    /// [`DcfbError::Usage`] when `--workload` was not given (exit 2),
    /// [`DcfbError::UnknownWorkload`] for an unrecognized name and
    /// [`DcfbError::Config`] for a malformed `mix:`/`trace:` spec
    /// (exit 3).
    pub fn require_source(&self) -> Result<dcfb_workloads::SourceSpec, DcfbError> {
        let Some(name) = &self.workload else {
            return Err(DcfbError::Usage(format!(
                "--workload is required for this command; available: {:?}",
                dcfb_workloads::source_names()
            )));
        };
        dcfb_workloads::SourceSpec::parse(name)
    }

    /// Like [`Cli::require_source`], but restricted to the synthetic
    /// catalog — for commands that need the program image itself
    /// (`analyze`).
    ///
    /// # Errors
    ///
    /// Everything [`Cli::require_source`] returns, plus
    /// [`DcfbError::Config`] when the spec names a non-synthetic
    /// source.
    pub fn require_synthetic(&self) -> Result<dcfb_workloads::Workload, DcfbError> {
        let spec = self.require_source()?;
        let dcfb_workloads::SourceSpec::Synthetic(name) = &spec else {
            return Err(DcfbError::Config(format!(
                "this command needs a synthetic workload image; {:?} is a {} source",
                spec.canonical_name(),
                spec.source_kind()
            )));
        };
        dcfb_workloads::workload(name).ok_or_else(|| DcfbError::UnknownWorkload {
            name: name.clone(),
            available: dcfb_workloads::source_names(),
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        Cli::parse(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_run_with_options() {
        let cli = parse(&[
            "run",
            "--workload",
            "Web (Apache)",
            "--method",
            "Shotgun",
            "--warmup",
            "1000",
            "--measure",
            "2000",
            "--seed",
            "7",
            "--isa",
            "variable",
            "--json",
        ])
        .unwrap();
        assert_eq!(cli.command, "run");
        assert_eq!(cli.workload.as_deref(), Some("Web (Apache)"));
        assert_eq!(cli.method, "Shotgun");
        assert_eq!(cli.warmup, 1000);
        assert_eq!(cli.measure, 2000);
        assert_eq!(cli.seed, 7);
        assert_eq!(cli.isa, IsaMode::Variable);
        assert!(cli.json);
    }

    #[test]
    fn defaults_are_sensible() {
        let cli = parse(&["compare", "--workload", "x"]).unwrap();
        assert_eq!(cli.method, "SN4L+Dis+BTB");
        assert!(cli.methods.len() >= 5);
        assert!(!cli.json);
    }

    #[test]
    fn rejects_unknown_flags_and_bad_values() {
        assert!(parse(&["run", "--bogus"]).is_err());
        assert!(parse(&["run", "--warmup", "abc"]).is_err());
        assert!(parse(&["run", "--isa", "thumb"]).is_err());
        assert!(parse(&["run", "--methods", ""]).is_err());
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn parses_and_validates_ops() {
        let cli = parse(&["conformance", "--seed", "9", "--ops", "500"]).unwrap();
        assert_eq!(cli.command, "conformance");
        assert_eq!(cli.seed, 9);
        assert_eq!(cli.ops, 500);
        assert_eq!(parse(&["conformance"]).unwrap().ops, 10_000);
        // Zero parses here; the command rejects it at run time as a
        // typed config error (exit 3), not a usage error.
        assert_eq!(parse(&["conformance", "--ops", "0"]).unwrap().ops, 0);
        assert!(parse(&["conformance", "--ops", "many"]).is_err());
    }

    #[test]
    fn parses_fuzz_flags() {
        let cli = parse(&[
            "fuzz",
            "--seed",
            "7",
            "--ops",
            "50000",
            "--jobs",
            "4",
            "--state",
            "fuzz.json",
            "--corpus-out",
            "corpus.txt",
            "--quick",
        ])
        .unwrap();
        assert_eq!(cli.command, "fuzz");
        assert_eq!(cli.seed, 7);
        assert_eq!(cli.ops, 50_000);
        assert_eq!(cli.jobs, 4);
        assert_eq!(cli.state.as_deref(), Some("fuzz.json"));
        assert_eq!(cli.corpus_out.as_deref(), Some("corpus.txt"));
        assert!(cli.quick);
        let defaults = parse(&["fuzz"]).unwrap();
        assert_eq!(defaults.jobs, 0);
        assert_eq!(defaults.corpus_out, None);
        assert!(parse(&["fuzz", "--jobs", "many"]).is_err());
    }

    #[test]
    fn parses_chaos_flags() {
        let cli = parse(&["chaos", "--seed", "42", "--quick"]).unwrap();
        assert_eq!(cli.command, "chaos");
        assert_eq!(cli.seed, 42);
        assert!(cli.quick);
        assert!(!parse(&["chaos"]).unwrap().quick);
    }

    #[test]
    fn require_source_errors_enumerate_registry_sources() {
        // Missing --workload: usage error (exit 2) listing all sources.
        let err = parse(&["run"]).unwrap().require_source().unwrap_err();
        assert_eq!(err.exit_code(), 2);
        let DcfbError::Usage(msg) = &err else {
            panic!("expected Usage, got {err:?}");
        };
        assert!(msg.contains("mix:NAME_A+NAME_B"), "{msg}");
        assert!(msg.contains("trace:PATH"), "{msg}");
        // Unknown name: typed error (exit 3) listing all sources.
        let err = parse(&["run", "--workload", "nope"])
            .unwrap()
            .require_source()
            .unwrap_err();
        assert_eq!(err.exit_code(), 3);
        let DcfbError::UnknownWorkload { available, .. } = &err else {
            panic!("expected UnknownWorkload, got {err:?}");
        };
        assert!(available.iter().any(|s| s.starts_with("mix:")));
        assert!(available.iter().any(|s| s.starts_with("trace:")));
        // Well-formed specs parse.
        let spec = parse(&["run", "--workload", "mix:Web (Apache)+Web Search"])
            .unwrap()
            .require_source()
            .unwrap();
        assert_eq!(spec.source_kind(), "mix");
    }

    #[test]
    fn require_synthetic_rejects_other_sources_with_typed_error() {
        let err = parse(&["analyze", "--workload", "mix:Web (Apache)+Web Search"])
            .unwrap()
            .require_synthetic()
            .unwrap_err();
        assert!(matches!(err, DcfbError::Config(_)), "got {err:?}");
        let w = parse(&["analyze", "--workload", "Web Search"])
            .unwrap()
            .require_synthetic()
            .unwrap();
        assert_eq!(w.name, "Web Search");
    }

    #[test]
    fn parses_method_lists() {
        let cli = parse(&["compare", "--methods", "NL, Shotgun ,Confluence"]).unwrap();
        assert_eq!(cli.methods, vec!["NL", "Shotgun", "Confluence"]);
    }
}
