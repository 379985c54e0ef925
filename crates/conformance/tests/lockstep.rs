//! Full-scale conformance runs: every lockstep harness over 10 k+
//! fuzzed ops, the invariant suite, and the injected-bug demonstration
//! (an off-by-one in a scratch copy of SN4L must be caught and shrunk
//! to a minimal counterexample).

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use dcfb_conformance::adapters::ProdSn4l;
use dcfb_conformance::fuzz::FUZZ_TABLE_ENTRIES;
use dcfb_conformance::ops::EngineOp;
use dcfb_conformance::reference::RefSeqTable;
use dcfb_conformance::{run_full_suite, Fuzzer, Harness, Model};
use dcfb_telemetry::PfSource;
use std::collections::BTreeSet;

const SEED: u64 = 0xDCFB;
const OPS: usize = 10_000;

#[test]
fn full_suite_runs_clean_at_10k_ops() {
    let report = run_full_suite(SEED, OPS);
    assert!(
        report.passed(),
        "conformance suite failed:\n{}",
        report.render()
    );
    assert_eq!(report.ops_per_structure, OPS);
    // 8 lockstep harnesses + 4 invariants + digest parity + corpus
    // replay + the tenant-mix golden.
    assert_eq!(report.checks.len(), 15);
}

#[test]
fn different_seed_also_clean() {
    // A second seed, smaller budget: guards against one lucky seed.
    let report = run_full_suite(20_260_807, 3_000);
    assert!(
        report.passed(),
        "conformance suite failed:\n{}",
        report.render()
    );
}

/// A scratch copy of the reference SN4L with an intentionally injected
/// off-by-one: the §V-A next-4 window is coded as `1..4`, so the
/// fourth successor is never prefetched. The lockstep harness must
/// catch this against the production SN4L and shrink the failing trace
/// to (essentially) a single demand.
struct BuggySn4l {
    table: RefSeqTable,
    resident: BTreeSet<u64>,
    issued: u64,
    suppressed: u64,
}

impl BuggySn4l {
    fn new(entries: usize) -> Self {
        BuggySn4l {
            table: RefSeqTable::new(entries),
            resident: BTreeSet::new(),
            issued: 0,
            suppressed: 0,
        }
    }
}

impl Model for BuggySn4l {
    type Op = EngineOp;

    fn apply(&mut self, op: &EngineOp) -> String {
        match op {
            EngineOp::Demand {
                block,
                hit,
                hit_was_prefetched,
                ..
            } => {
                if *hit {
                    self.resident.insert(*block);
                } else {
                    self.resident.remove(block);
                }
                if !*hit || *hit_was_prefetched {
                    self.table.set(*block);
                }
                let mut out = Vec::new();
                for d in 1..4u64 {
                    // BUG: should be 1..=4 — SN4L, not SN3L.
                    let cand = block + d;
                    if !self.table.is_useful(cand) {
                        self.suppressed += 1;
                        continue;
                    }
                    if !self.resident.contains(&cand) {
                        self.resident.insert(cand);
                        self.issued += 1;
                        out.push(format!("{cand}+0:{:?}", PfSource::Sn4l));
                    }
                }
                format!("issued=[{}]", out.join(","))
            }
            EngineOp::Fill { block, .. } => {
                self.resident.insert(*block);
                "issued=[]".to_owned()
            }
            EngineOp::Tick => "issued=[]".to_owned(),
            EngineOp::Evict { block, useless } => {
                self.resident.remove(block);
                if *useless {
                    self.table.reset(*block);
                }
                String::new()
            }
        }
    }

    fn finish(&mut self) -> String {
        format!(
            "issued={} suppressed={} disabled={:?}",
            self.issued,
            self.suppressed,
            self.table.disabled()
        )
    }
}

#[test]
fn injected_off_by_one_is_caught_and_shrunk() {
    let harness = Harness::new("sn4l-injected-bug", || {
        (
            Box::new(BuggySn4l::new(FUZZ_TABLE_ENTRIES)) as _,
            Box::new(ProdSn4l::new(FUZZ_TABLE_ENTRIES)) as _,
        )
    });
    let mut fz = Fuzzer::new(SEED);
    let layout = fz.layout();
    let ops = fz.engine_ops(&layout, OPS);

    let ce = harness
        .check(&ops)
        .expect_err("the off-by-one must diverge from production SN4L");

    // The minimal reproducer is a single demand: production issues
    // block+4, the buggy copy stops at block+3.
    assert_eq!(
        ce.ops.len(),
        1,
        "expected a 1-op shrunk counterexample:\n{ce}"
    );
    assert!(
        ce.ops[0].starts_with("Demand"),
        "minimal op must be a demand:\n{ce}"
    );
    assert_eq!(ce.original_len, OPS);
    let d = &ce.divergence;
    assert_eq!(d.step, Some(0), "diverges on the first surviving op");
    assert_ne!(d.reference, d.production);
    // Production (the correct side here) issues one more prefetch than
    // the buggy reference copy.
    let issues = |s: &str| s.matches("Sn4l").count();
    assert_eq!(
        issues(&d.production),
        issues(&d.reference) + 1,
        "production must issue exactly one more block:\n{ce}"
    );
}

#[test]
fn counterexample_renders_readably() {
    let harness = Harness::new("sn4l-injected-bug", || {
        (
            Box::new(BuggySn4l::new(FUZZ_TABLE_ENTRIES)) as _,
            Box::new(ProdSn4l::new(FUZZ_TABLE_ENTRIES)) as _,
        )
    });
    let mut fz = Fuzzer::new(7);
    let layout = fz.layout();
    let ops = fz.engine_ops(&layout, 2_000);
    let ce = harness.check(&ops).expect_err("must diverge");
    let text = ce.to_string();
    assert!(text.contains("sn4l-injected-bug"));
    assert!(text.contains("shrunk from 2000"));
    assert!(text.contains("reference:"));
    assert!(text.contains("production:"));
}
