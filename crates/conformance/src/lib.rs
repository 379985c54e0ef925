//! # dcfb-conformance
//!
//! The conformance subsystem: executable reference models, lockstep
//! differential runs, and a deterministic trace fuzzer for the paper's
//! frontend-prefetch structures.
//!
//! The production structures in `crates/prefetch` / `crates/cache` are
//! written for the simulator's hot path; the reference models in
//! [`reference`] re-derive the same §V semantics for *obviousness* —
//! plain containers, no caching, no shared state. [`lockstep`] replays
//! identical op sequences against both sides and reports the first
//! observable mismatch, minimized by [`shrink`] into a reproducible
//! counterexample. [`fuzz`] generates the adversarial op sequences
//! (aliasing sets, wrap-around offsets, call/return chains,
//! discontinuity storms) deterministically from a seed, and
//! [`invariants`] checks the cross-cutting properties the paper states
//! outright (SeqTable gating, the depth-4 chain cutoff, timeliness
//! accounting, replay determinism), and [`golden`] replays one
//! fixed-seed trace through every method in the prefetch registry and
//! pins the report digests bit-for-bit against checked-in goldens.
//! [`corpus`] replays a frozen, hand-edited list of engine-op
//! sequences through the engine harnesses.
//!
//! [`run_full_suite`] packages all of it behind one call; the
//! `dcfb conformance` CLI subcommand is a thin wrapper around it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapters;
pub mod corpus;
pub mod directed_golden;
pub mod fuzz;
pub mod golden;
pub mod invariants;
pub mod lockstep;
pub mod ops;
pub mod reference;
pub mod shrink;
pub mod telemetry_golden;
pub mod workload_source;

pub use fuzz::Fuzzer;
pub use lockstep::{Counterexample, Divergence, Harness, Model};
pub use shrink::shrink;

use crate::adapters::{
    ProdBtbBuffer, ProdDis, ProdDisTable, ProdPrefetchBuffer, ProdProactive, ProdRlu, ProdSeqTable,
    ProdSn4l,
};
use crate::fuzz::{
    fuzz_proactive_config, FUZZ_BTB_BUF, FUZZ_PF_BUFFER_CAPACITY, FUZZ_TABLE_ENTRIES,
};
use crate::ops::{CodeLayout, EngineOp};
use crate::reference::{
    RefBtbBuffer, RefDisEngine, RefDisTable, RefPrefetchBuffer, RefProactive, RefRlu, RefSeqTable,
    RefSn4l, RefTag,
};
use dcfb_cache::PrefetchBuffer;
use dcfb_prefetch::{BtbPrefetchBuffer, DisTable, Rlu, SeqTable, TagPolicy};
use std::fmt::Debug;

/// Outcome of one conformance check.
#[derive(Clone, Debug)]
pub struct CheckResult {
    /// Check name, e.g. `lockstep/sn4l` or `invariant/chain-depth`.
    pub name: String,
    /// Whether the check passed.
    pub passed: bool,
    /// Evidence on success, the failure (often a shrunk
    /// counterexample) otherwise.
    pub detail: String,
}

/// Everything one `run_full_suite` call produced.
#[derive(Clone, Debug)]
pub struct ConformanceReport {
    /// The seed every generator was derived from.
    pub seed: u64,
    /// Ops fed to each lockstep harness.
    pub ops_per_structure: usize,
    /// All check outcomes, in execution order.
    pub checks: Vec<CheckResult>,
}

impl ConformanceReport {
    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// The failed checks.
    pub fn failures(&self) -> Vec<&CheckResult> {
        self.checks.iter().filter(|c| !c.passed).collect()
    }

    /// Renders the human-readable report table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "conformance: seed={} ops={} checks={}\n",
            self.seed,
            self.ops_per_structure,
            self.checks.len()
        ));
        for c in &self.checks {
            let mark = if c.passed { "PASS" } else { "FAIL" };
            out.push_str(&format!("  [{mark}] {:<28} {}\n", c.name, c.detail));
        }
        let failed = self.failures().len();
        if failed == 0 {
            out.push_str("all checks passed\n");
        } else {
            out.push_str(&format!("{failed} check(s) FAILED\n"));
        }
        out
    }
}

fn lockstep_result<Op: Clone + Debug>(h: &Harness<Op>, ops: &[Op]) -> CheckResult {
    match h.check(ops) {
        Ok(()) => CheckResult {
            name: format!("lockstep/{}", h.name()),
            passed: true,
            detail: format!("{} ops, zero divergences", ops.len()),
        },
        Err(ce) => CheckResult {
            name: format!("lockstep/{}", h.name()),
            passed: false,
            detail: format!("\n{ce}"),
        },
    }
}

fn invariant_result(name: &str, outcome: Result<String, String>) -> CheckResult {
    match outcome {
        Ok(detail) => CheckResult {
            name: format!("invariant/{name}"),
            passed: true,
            detail,
        },
        Err(detail) => CheckResult {
            name: format!("invariant/{name}"),
            passed: false,
            detail,
        },
    }
}

/// The three engine-level lockstep harnesses (SN4L, Dis, proactive)
/// over `layout`: [`run_full_suite`] drives them with fuzzed ops, and
/// [`corpus::check_corpus_replay`] with the checked-in corpus.
pub fn engine_harnesses(layout: &CodeLayout) -> Vec<Harness<EngineOp>> {
    let mut harnesses = Vec::new();
    harnesses.push(Harness::new("sn4l", || {
        (
            Box::new(RefSn4l::new(FUZZ_TABLE_ENTRIES)) as _,
            Box::new(ProdSn4l::new(FUZZ_TABLE_ENTRIES)) as _,
        )
    }));
    let dis_layout = layout.clone();
    harnesses.push(Harness::new("dis", move || {
        (
            Box::new(RefDisEngine::new(FUZZ_TABLE_ENTRIES, dis_layout.clone())) as _,
            Box::new(ProdDis::new(FUZZ_TABLE_ENTRIES, &dis_layout)) as _,
        )
    }));
    let pro_layout = layout.clone();
    harnesses.push(Harness::new("proactive", move || {
        (
            Box::new(RefProactive::new(
                fuzz_proactive_config(),
                pro_layout.clone(),
            )) as _,
            Box::new(ProdProactive::new(fuzz_proactive_config(), &pro_layout)) as _,
        )
    }));
    harnesses
}

/// Runs every lockstep harness over `n_ops` freshly fuzzed ops, then
/// the cross-prefetcher invariant checks, digest parity, corpus replay
/// and the tenant-mix golden. Everything derives deterministically
/// from `seed`.
pub fn run_full_suite(seed: u64, n_ops: usize) -> ConformanceReport {
    let mut checks = Vec::new();
    let mut fz = Fuzzer::new(seed);

    // ---- table/buffer-level lockstep ----
    let h = Harness::new("seq-table", || {
        (
            Box::new(RefSeqTable::new(FUZZ_TABLE_ENTRIES)) as _,
            Box::new(ProdSeqTable(SeqTable::new(FUZZ_TABLE_ENTRIES))) as _,
        )
    });
    checks.push(lockstep_result(&h, &fz.seq_ops(n_ops)));

    let h = Harness::new("dis-table", || {
        (
            Box::new(RefDisTable::new(FUZZ_TABLE_ENTRIES, RefTag::Partial(4))) as _,
            Box::new(ProdDisTable(DisTable::new(
                FUZZ_TABLE_ENTRIES,
                TagPolicy::Partial(4),
                4,
            ))) as _,
        )
    });
    checks.push(lockstep_result(&h, &fz.dis_table_ops(n_ops)));

    let h = Harness::new("rlu", || {
        (
            Box::new(RefRlu::new(8)) as _,
            Box::new(ProdRlu(Rlu::new(8))) as _,
        )
    });
    checks.push(lockstep_result(&h, &fz.rlu_ops(n_ops)));

    let h = Harness::new("btb-buffer", || {
        (
            Box::new(RefBtbBuffer::new(FUZZ_BTB_BUF.0, FUZZ_BTB_BUF.1)) as _,
            Box::new(ProdBtbBuffer::new(BtbPrefetchBuffer::new(
                FUZZ_BTB_BUF.0,
                FUZZ_BTB_BUF.1,
            ))) as _,
        )
    });
    checks.push(lockstep_result(&h, &fz.btb_buf_ops(n_ops)));

    let h = Harness::new("prefetch-buffer", || {
        (
            Box::new(RefPrefetchBuffer::new(FUZZ_PF_BUFFER_CAPACITY)) as _,
            Box::new(ProdPrefetchBuffer(PrefetchBuffer::new(
                FUZZ_PF_BUFFER_CAPACITY,
            ))) as _,
        )
    });
    checks.push(lockstep_result(&h, &fz.pf_buf_ops(n_ops)));

    // ---- engine-level lockstep (shared adversarial layout; the same
    // harness trio the corpus replays through) ----
    let layout = fz.layout();
    for h in engine_harnesses(&layout) {
        checks.push(lockstep_result(&h, &fz.engine_ops(&layout, n_ops)));
    }

    // ---- cross-prefetcher invariants ----
    checks.push(invariant_result(
        "sn4l-gating",
        invariants::check_sn4l_gating(seed, n_ops),
    ));
    checks.push(invariant_result(
        "chain-depth",
        invariants::check_chain_depth(seed, n_ops),
    ));
    checks.push(invariant_result(
        "timeliness-sums",
        invariants::check_timeliness_sums(seed),
    ));
    checks.push(invariant_result(
        "replay-deterministic",
        invariants::check_replay_deterministic(seed, n_ops.min(2_000)),
    ));
    // ---- whole-simulator digest parity vs checked-in goldens ----
    checks.push(invariant_result(
        "digest-parity",
        golden::check_digest_parity(),
    ));
    // ---- checked-in corpus still passes lockstep ----
    checks.push(invariant_result(
        "corpus-replay",
        corpus::check_corpus_replay(),
    ));
    // ---- workload-source: the blessed tenant-mix digest holds
    // sequentially and on concurrent workers ----
    checks.push(invariant_result(
        "workload-source",
        workload_source::check_workload_source(),
    ));

    ConformanceReport {
        seed,
        ops_per_structure: n_ops,
        checks,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn small_suite_passes_and_renders() {
        let report = run_full_suite(5, 300);
        let rendered = report.render();
        assert!(report.passed(), "conformance suite failed:\n{rendered}");
        assert_eq!(report.checks.len(), 15);
        assert!(rendered.contains("lockstep/proactive"));
        assert!(rendered.contains("invariant/digest-parity"));
        assert!(rendered.contains("invariant/corpus-replay"));
        assert!(rendered.contains("invariant/workload-source"));
        assert!(rendered.contains("all checks passed"));
    }
}
