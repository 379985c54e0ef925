//! Cross-prefetcher invariant checks.
//!
//! Where the lockstep harnesses ask "do reference and production agree
//! step by step?", these checks ask "do the *semantics* hold at all?"
//! — properties the paper states outright:
//!
//! * SN4L never prefetches a block whose SeqTable status bit is 0
//!   (§V-A: "SN4L looks up ... and prefetches them only if their status
//!   bits show 1");
//! * proactive chaining never accepts a trigger past depth 4 (§V-B:
//!   "our experiments show that four is a reasonable threshold");
//! * every issued prefetch lands in exactly one timeliness class, so
//!   the classes sum to `issued` (the Fig. 13 accounting);
//! * replaying the same seed — fuzzer or full simulation — is
//!   bit-identical.
//!
//! Each check returns `Ok(summary)` with the evidence it gathered, or
//! `Err(description)` pinpointing the violation.

use crate::adapters::apply_engine_op;
use crate::fuzz::{fuzz_proactive_config, Fuzzer, FUZZ_TABLE_ENTRIES};
use crate::lockstep::Model;
use crate::ops::EngineOp;
use crate::reference::RefProactive;
use dcfb_prefetch::context::MockContext;
use dcfb_prefetch::{SeqTable, Sn4l};
use dcfb_sim::SimConfig;
use dcfb_workloads::{workload, ResolvedWorkload};

/// The workload the simulation-level invariants run on.
const INVARIANT_WORKLOAD: &str = "Web (Apache)";

/// Instruction budget for the simulation-level invariants: small enough
/// to finish in milliseconds, long enough to issue prefetches in every
/// timeliness class.
const INVARIANT_WARMUP: u64 = 2_000;
const INVARIANT_MEASURE: u64 = 3_000;

fn invariant_config(method: &str) -> Result<SimConfig, String> {
    let mut cfg =
        SimConfig::for_method(method).ok_or_else(|| format!("unknown method {method:?}"))?;
    cfg.warmup_instrs = INVARIANT_WARMUP;
    cfg.measure_instrs = INVARIANT_MEASURE;
    Ok(cfg)
}

/// Runs `cfg` on the invariant workload with the given trace seed.
fn invariant_run(cfg: SimConfig, seed: u64) -> Result<dcfb_sim::Run, String> {
    let w = workload(INVARIANT_WORKLOAD)
        .ok_or_else(|| format!("workload {INVARIANT_WORKLOAD:?} missing from catalog"))?;
    let source = ResolvedWorkload::from_image(w.image(cfg.isa));
    dcfb_sim::run(&source, cfg, seed).map_err(|e| e.to_string())
}

/// SN4L gating: drive the production SN4L over a fuzzed op stream and
/// verify that no issued prefetch targets a block whose SeqTable bit
/// was 0 when the demand arrived.
///
/// # Errors
///
/// The first gating violation (step, block, candidate window).
pub fn check_sn4l_gating(seed: u64, n_ops: usize) -> Result<String, String> {
    let mut fz = Fuzzer::new(seed);
    let layout = fz.layout();
    let ops = fz.engine_ops(&layout, n_ops);

    let mut p = Sn4l::with_table(SeqTable::new(FUZZ_TABLE_ENTRIES));
    let mut ctx = MockContext::default();
    let mut checked = 0u64;
    for (step, op) in ops.iter().enumerate() {
        // Snapshot the candidate window's status bits before the event;
        // the event itself may only set the *demanded* block's bit,
        // which never aliases block+1..block+4 in a 64-entry table.
        let snapshot: Vec<(u64, bool)> = if let EngineOp::Demand { block, .. } = op {
            (1..=4u64)
                .map(|d| (block + d, p.table().is_useful(block + d)))
                .collect()
        } else {
            Vec::new()
        };
        let seen = ctx.issued.len();
        apply_engine_op(&mut p, &mut ctx, op);
        for &(b, _) in &ctx.issued[seen..] {
            checked += 1;
            match snapshot.iter().find(|&&(cand, _)| cand == b) {
                Some(&(_, true)) => {}
                Some(&(_, false)) => {
                    return Err(format!(
                        "step {step}: SN4L prefetched block {b} whose status bit was 0 \
                         (op {op:?})"
                    ));
                }
                None => {
                    return Err(format!(
                        "step {step}: SN4L prefetched block {b} outside the \
                         next-4 window (op {op:?})"
                    ));
                }
            }
        }
    }
    let (issued, suppressed) = p.counters();
    Ok(format!(
        "{checked} issues gated correctly (issued={issued} suppressed={suppressed})"
    ))
}

/// Chain depth: run the reference proactive engine over a fuzzed op
/// stream and a dedicated deep jump chain; the deepest accepted trigger
/// must stay within the configured limit, and the deep chain must
/// actually exercise the cutoff.
///
/// # Errors
///
/// A depth-limit breach, or a deep chain that never hit the cutoff
/// (which would mean the invariant was checked vacuously).
pub fn check_chain_depth(seed: u64, n_ops: usize) -> Result<String, String> {
    let cfg = fuzz_proactive_config();
    let max_depth = cfg.max_depth;

    // Fuzzed stream.
    let mut fz = Fuzzer::new(seed);
    let layout = fz.layout();
    let ops = fz.engine_ops(&layout, n_ops);
    let mut m = RefProactive::new(cfg.clone(), layout);
    for op in &ops {
        m.apply(op);
    }
    if m.max_trigger_depth > max_depth {
        return Err(format!(
            "fuzzed run accepted a depth-{} trigger (limit {max_depth})",
            m.max_trigger_depth
        ));
    }
    let fuzzed_depth = m.max_trigger_depth;

    // Dedicated deep chain: block b jumps to b+10, twelve hops — far
    // past the limit, so the cutoff must fire.
    let mut deep_layout = crate::ops::CodeLayout::default();
    for k in 0..12u64 {
        let b = 100 + k * 10;
        deep_layout.code.insert(
            b,
            vec![dcfb_frontend::BtbEntry {
                pc: b * 64 + 4,
                target: (b + 10) * 64,
                class: dcfb_frontend::BranchClass::Jump,
            }],
        );
    }
    let mut deep = RefProactive::new(cfg, deep_layout);
    for k in 0..12u64 {
        let b = 100 + k * 10;
        deep.apply(&EngineOp::Demand {
            block: b + 10,
            hit: false,
            hit_was_prefetched: false,
            branch: Some(crate::ops::RecentBranch {
                pc: b * 64 + 4,
                target: (b + 10) * 64,
            }),
        });
        for _ in 0..4 {
            deep.apply(&EngineOp::Tick);
        }
    }
    // Re-demand the chain head and let the chain run dry.
    deep.apply(&EngineOp::Demand {
        block: 100,
        hit: false,
        hit_was_prefetched: false,
        branch: None,
    });
    for _ in 0..128 {
        deep.apply(&EngineOp::Tick);
    }
    if deep.max_trigger_depth > max_depth {
        return Err(format!(
            "deep chain accepted a depth-{} trigger (limit {max_depth})",
            deep.max_trigger_depth
        ));
    }
    if deep.depth_terminations() == 0 {
        return Err("deep chain never hit the depth cutoff — vacuous check".to_owned());
    }
    Ok(format!(
        "fuzzed max depth {fuzzed_depth} ≤ {max_depth}; deep chain cut off as required"
    ))
}

/// Timeliness accounting: run a profiled simulation and verify the
/// metrics document's structural invariants, most importantly that
/// `accurate + late + early_evicted + useless == issued` for every
/// prefetch source.
///
/// # Errors
///
/// The first row whose classes don't sum to `issued`, any other
/// [`dcfb_telemetry::MetricsDoc::validate`] failure, or a run that
/// issued no prefetches at all (vacuous).
pub fn check_timeliness_sums(seed: u64) -> Result<String, String> {
    let mut rows = 0usize;
    let mut issued_total = 0u64;
    for method in ["SN4L+Dis+BTB", "SN4L", "Dis"] {
        let mut cfg = invariant_config(method)?;
        cfg.telemetry = true;
        let telemetry = invariant_run(cfg, seed)?
            .telemetry
            .ok_or_else(|| format!("{method}: no telemetry recorded"))?;
        telemetry
            .doc
            .validate()
            .map_err(|e| format!("{method}: metrics document invalid: {e}"))?;
        for t in &telemetry.doc.timeliness {
            if t.classified() != t.issued {
                return Err(format!(
                    "{method}/{}: classes sum to {} but issued={}",
                    t.source,
                    t.classified(),
                    t.issued
                ));
            }
            rows += 1;
            issued_total += t.issued;
        }
    }
    if issued_total == 0 {
        return Err("no prefetches issued across any method — vacuous check".to_owned());
    }
    Ok(format!(
        "{rows} timeliness rows balanced ({issued_total} prefetches classified)"
    ))
}

/// Replay determinism: the same seed must reproduce bit-identical
/// results, both for the fuzzer's op streams and for a full simulation
/// run.
///
/// # Errors
///
/// A fuzzer or simulation replay that differed from its first run.
pub fn check_replay_deterministic(seed: u64, n_ops: usize) -> Result<String, String> {
    // Fuzzer replay.
    let render = |s: u64| {
        let mut fz = Fuzzer::new(s);
        let layout = fz.layout();
        format!("{layout:?} {:?}", fz.engine_ops(&layout, n_ops))
    };
    if render(seed) != render(seed) {
        return Err(format!("fuzzer replay of seed {seed} diverged"));
    }

    // Full-simulation replay.
    let cfg = invariant_config("SN4L+Dis+BTB")?;
    let a = invariant_run(cfg.clone(), seed)?.report;
    let b = invariant_run(cfg, seed)?.report;
    if a.digest() != b.digest() {
        return Err(format!(
            "simulation replay of seed {seed} diverged on {INVARIANT_WORKLOAD:?}"
        ));
    }
    Ok(format!(
        "fuzzer and simulation replays of seed {seed} are bit-identical"
    ))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn sn4l_gating_holds_on_fuzzed_stream() {
        let summary = check_sn4l_gating(11, 2_000).expect("gating holds");
        assert!(summary.contains("gated correctly"), "{summary}");
    }

    #[test]
    fn chain_depth_holds_and_cutoff_fires() {
        let summary = check_chain_depth(12, 2_000).expect("depth limit holds");
        assert!(summary.contains("cut off"), "{summary}");
    }

    #[test]
    fn replay_is_deterministic() {
        check_replay_deterministic(13, 500).expect("replays identical");
    }

    #[test]
    fn timeliness_classes_sum_to_issued() {
        let summary = check_timeliness_sums(14).expect("rows balanced");
        assert!(summary.contains("balanced"), "{summary}");
    }
}
