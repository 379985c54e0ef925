//! Self-tests of the benchmark. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use crate::host::nproc;
use crate::plan::{Plan, Scale, WORKLOADS};
use crate::timed::{Clock, Ledger, TimedDriver, TimedStream};
use crate::{measure, traced};
use dcfb_sim::machine::build_driver;
use dcfb_sim::{SimConfig, Simulator};
use dcfb_workloads::resolve_workload;
use std::cell::RefCell;
use std::rc::Rc;

const TINY: Scale = Scale {
    warmup: 2_000,
    measure: 3_000,
};

/// The quoted values of `key` inside the array that follows `section`
/// in BENCHMARK.json.
fn declared(section: &str, key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("array end")];
    body.split(&format!("\"{key}\""))
        .skip(1)
        .map(|rest| {
            let open = rest.find('"').expect("opening quote") + 1;
            let len = rest[open..].find('"').expect("closing quote");
            rest[open..open + len].to_owned()
        })
        .collect()
}

#[test]
fn decorator_is_digest_identical_for_every_registry_method() {
    let w = resolve_workload("Web (Apache)", SimConfig::default().isa).unwrap();
    let ledger = Rc::new(RefCell::new(Ledger::new(Clock::calibrate(), 7)));
    let (mut methods, mut directed) = (0, 0);
    for method in dcfb_prefetch::method_names() {
        let mut cfg = SimConfig::for_method(method).unwrap();
        cfg.warmup_instrs = TINY.warmup;
        cfg.measure_instrs = TINY.measure;
        let mut plain =
            Simulator::try_with_code(cfg.clone(), w.code(), w.start_pc(), w.name().to_owned())
                .unwrap();
        let want = plain.run(&mut w.stream(3)).digest();
        let driver = TimedDriver::new(build_driver(&cfg, w.start_pc()), Rc::clone(&ledger));
        directed += usize::from(cfg.prefetcher.is_btb_directed());
        let mut traced =
            Simulator::try_with_driver(cfg, w.code(), w.name().to_owned(), Box::new(driver))
                .unwrap();
        let got = traced
            .run(&mut TimedStream::new(w.stream(3), Rc::clone(&ledger)))
            .digest();
        ledger.borrow_mut().end_run();
        assert_eq!(got, want, "{method}: traced digest differs");
        methods += 1;
    }
    assert_eq!(methods, 15, "registry size");
    assert!(directed > 0 && directed < methods, "both drivers covered");
    assert!(ledger.borrow().windows > 0, "some cycles were sampled");
}

#[test]
fn every_declared_metric_is_emitted_for_every_workload() {
    let end_to_end = declared("end_to_end", "name");
    let per_layer = declared("per_layer", "name");
    assert_eq!(declared("workloads", "name"), WORKLOADS);
    for name in WORKLOADS {
        let plan = Plan::new(name, 5, TINY, nproc()).unwrap();
        let (m, ck) = measure(&plan, 0.0, 2);
        assert_eq!(ck.failed, 0, "{name}: {:?}", ck.errors);
        assert_eq!(
            m.names().collect::<Vec<_>>(),
            end_to_end,
            "{name} end-to-end"
        );
        let (m, ck) = traced::trace(&plan, 2, nproc());
        assert_eq!(ck.failed, 0, "{name}: {:?}", ck.errors);
        assert_eq!(m.names().collect::<Vec<_>>(), per_layer, "{name} per-layer");
        assert!(m.get("trace.timer_ns").unwrap() > 0.0);
    }
}

#[test]
fn names_and_units_are_well_formed() {
    let mut names = declared("workloads", "name");
    names.extend(declared("end_to_end", "name"));
    names.extend(declared("per_layer", "name"));
    for n in &names {
        assert!(
            n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()),
            "{n}"
        );
        assert!(
            n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{n}"
        );
    }
    let mut unique = names.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "names are used once");
    for section in ["end_to_end", "per_layer"] {
        for u in declared(section, "unit") {
            assert!(!u.is_empty() && u.len() <= 16, "{u}");
            assert!(
                u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{u}"
            );
        }
    }
}

#[test]
fn fig16_plan_is_the_documented_sweep() {
    let plan = Plan::new("fig16-sweep", 99, Scale::DOCUMENTED, 2).unwrap();
    assert_eq!(plan.jobs.len(), 14);
    assert!(plan
        .jobs
        .iter()
        .all(|j| j.trace_seed == crate::plan::FIG16_TRACE_SEED));
    assert_eq!(plan.pool, 2);
    let directed = Plan::new("directed-oltp", 99, TINY, 2).unwrap();
    assert!(directed.jobs.iter().all(|j| j.trace_seed == 99));
    assert!(Plan::new("no-such-workload", 1, TINY, 2).is_none());
}
