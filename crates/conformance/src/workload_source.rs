//! Tenant-mix golden: the 15th conformance check.
//!
//! A fixed two-tenant `mix:` spec runs once sequentially and is pinned
//! against the blessed `# tenant-mix` digest in `golden_digests.txt`;
//! the same resolved mix must then reproduce that digest on
//! [`MIX_WORKERS`] concurrent threads sharing it (the interleaver
//! schedule depends only on the quantum and the trace seed, never on
//! host parallelism). Synthetic sources need no check of their own:
//! the method goldens already run through [`dcfb_sim::run`] on
//! [`ResolvedWorkload::from_image`], the path `dcfb run` and the bench
//! sweep take.
//!
//! Re-bless after an intentional timing-model change with
//! `DCFB_BLESS=1 cargo test -p dcfb-conformance golden`.

use crate::golden;
use dcfb_sim::SimConfig;
use dcfb_trace::IsaMode;
use dcfb_workloads::{ResolvedWorkload, SourceSpec};

/// The pinned tenant-mix spec: the two smallest catalog workloads, with
/// an explicit quantum small enough to force dozens of context switches
/// inside the golden fixture's 180k-instruction window.
pub const TENANT_MIX_SPEC: &str = "mix:Web Frontend+Web Search,quantum=2500";

/// The method the tenant-mix golden is captured with (the paper's
/// headline composition).
pub const TENANT_MIX_METHOD: &str = "SN4L+Dis+BTB";

/// Concurrent runs of the pinned mix in the schedule-independence half
/// of the check.
pub const MIX_WORKERS: usize = 4;

/// Runs `cfg` on `source` at the golden fixture's trace seed and
/// returns the report digest.
fn digest(source: &ResolvedWorkload, cfg: SimConfig) -> Result<String, String> {
    dcfb_sim::run(source, cfg, golden::FIXTURE_TRACE_SEED)
        .map(|run| run.report.digest())
        .map_err(|e| e.to_string())
}

/// Runs the pinned tenant-mix spec sequentially and returns the report
/// digest. `bless` uses this to recapture the `# tenant-mix` golden.
pub fn tenant_mix_digest() -> Result<String, String> {
    let spec = SourceSpec::parse(TENANT_MIX_SPEC).map_err(|e| e.to_string())?;
    let mix = spec.resolve(IsaMode::Fixed4).map_err(|e| e.to_string())?;
    let cfg = golden::fixture_config(TENANT_MIX_METHOD)?;
    digest(&mix, cfg)
}

/// The `invariant/workload-source` check: the blessed tenant-mix
/// digest, sequentially and on concurrent workers sharing one resolved
/// mix.
pub fn check_workload_source() -> Result<String, String> {
    let spec = SourceSpec::parse(TENANT_MIX_SPEC).map_err(|e| e.to_string())?;
    let mix = spec.resolve(IsaMode::Fixed4).map_err(|e| e.to_string())?;
    let cfg = golden::fixture_config(TENANT_MIX_METHOD)?;
    let seq = digest(&mix, cfg.clone())?;
    let want = golden::tenant_mix_golden()?;
    if seq != want {
        return Err(format!(
            "tenant-mix digest drifted from the blessed golden (re-bless with DCFB_BLESS=1 \
             if the change is intentional): got {seq}"
        ));
    }
    let concurrent: Vec<Result<String, String>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..MIX_WORKERS)
            .map(|_| s.spawn(|| digest(&mix, cfg.clone())))
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| Err("tenant-mix worker panicked".to_owned()))
            })
            .collect()
    });
    for got in concurrent {
        if got? != want {
            return Err(
                "tenant-mix digest varies when runs share the resolved mix concurrently \
                 (the interleaver must be schedule-independent)"
                    .to_owned(),
            );
        }
    }
    Ok(format!(
        "tenant-mix golden holds sequentially and on {MIX_WORKERS} concurrent workers"
    ))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    /// The simulator calls its two production drivers through an enum;
    /// `try_with_driver(build_driver(..))` runs the same drivers boxed
    /// behind the `FrontendDriver` trait object. Both must produce the
    /// same report for every registry method and the pinned tenant mix.
    #[test]
    fn static_dispatch_matches_the_boxed_driver_seam() {
        use dcfb_sim::machine::build_driver;
        use dcfb_sim::Simulator;
        let mix = SourceSpec::parse(TENANT_MIX_SPEC)
            .unwrap()
            .resolve(IsaMode::Fixed4)
            .unwrap();
        let fixture = ResolvedWorkload::from_image(golden::fixture_image());
        let cases = dcfb_prefetch::method_names()
            .map(|m| (m, &fixture))
            .chain([(TENANT_MIX_METHOD, &mix)]);
        let mut checked = 0;
        for (method, w) in cases {
            let mut cfg = golden::fixture_config(method).unwrap();
            cfg.warmup_instrs = 10_000;
            cfg.measure_instrs = 20_000;
            let digest = |mut sim: Simulator| {
                let mut stream = w.stream(golden::FIXTURE_TRACE_SEED);
                sim.run(&mut stream).digest()
            };
            let name = w.name().to_owned();
            let direct =
                Simulator::try_with_code(cfg.clone(), w.code(), w.start_pc(), name.clone());
            let driver = build_driver(&cfg, w.start_pc());
            let boxed = Simulator::try_with_driver(cfg, w.code(), name, driver);
            assert_eq!(
                digest(direct.unwrap()),
                digest(boxed.unwrap()),
                "{method} on {}",
                w.name()
            );
            checked += 1;
        }
        assert_eq!(checked, 16, "15 registry methods plus the tenant mix");
    }

    #[test]
    fn workload_source_check_passes() {
        let summary = check_workload_source().unwrap_or_else(|e| panic!("{e}"));
        println!("{summary}");
    }

    #[test]
    fn tenant_mix_digest_is_stable_across_calls() {
        // Resolution builds fresh images each call; the digest must not
        // depend on allocation order or any other run-to-run state.
        let a = tenant_mix_digest().expect("mix digest");
        let b = tenant_mix_digest().expect("mix digest");
        assert_eq!(a, b);
    }
}
