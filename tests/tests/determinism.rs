//! Reproducibility: every layer of the stack is a pure function of
//! (parameters, seed).

use dcfb_integration::image_instrs;
use dcfb_sim::{SimConfig, SimReport};
use dcfb_trace::{InstrStream, IsaMode};
use dcfb_workloads::{all_workloads, ResolvedWorkload, Walker, Workload, WorkloadParams};

fn small_workload(seed: u64) -> Workload {
    Workload {
        name: "det",
        params: WorkloadParams {
            name: "det".to_owned(),
            functions: 300,
            root_functions: 12,
            ..WorkloadParams::default()
        },
        image_seed: seed,
    }
}

fn simulate(w: &Workload, cfg: SimConfig, trace_seed: u64) -> SimReport {
    let source = ResolvedWorkload::from_image(w.image(cfg.isa));
    dcfb_sim::run(&source, cfg, trace_seed).unwrap().report
}

#[test]
fn images_are_bit_identical_across_builds() {
    let w = small_workload(5);
    let a = w.image(IsaMode::Fixed4);
    let b = w.image(IsaMode::Fixed4);
    assert_eq!(image_instrs(&a), image_instrs(&b));
    assert_eq!(a.end(), b.end());
    assert_eq!(a.roots(), b.roots());
}

#[test]
fn traces_replay_identically() {
    let w = small_workload(5);
    let image = w.image(IsaMode::Fixed4);
    let mut x = Walker::new(image.clone(), 9);
    let mut y = Walker::new(image, 9);
    for _ in 0..300_000 {
        assert_eq!(x.next_instr(), y.next_instr());
    }
}

#[test]
fn full_simulations_are_deterministic() {
    let w = small_workload(5);
    for method in ["Baseline", "SN4L+Dis+BTB", "Shotgun", "Confluence"] {
        let mut cfg = SimConfig::for_method(method).unwrap();
        cfg.warmup_instrs = 100_000;
        cfg.measure_instrs = 200_000;
        let a = simulate(&w, cfg.clone(), 3);
        let b = simulate(&w, cfg, 3);
        assert_eq!(a.cycles, b.cycles, "{method} cycles");
        assert_eq!(a.instrs, b.instrs, "{method} instrs");
        assert_eq!(a.l1i.demand_misses, b.l1i.demand_misses, "{method} misses");
        assert_eq!(a.external_requests, b.external_requests, "{method} ext");
        assert_eq!(a.stall_empty_ftq, b.stall_empty_ftq, "{method} ftq");
    }
}

#[test]
fn different_trace_seeds_differ_but_stay_in_family() {
    let w = small_workload(5);
    let mut cfg = SimConfig::for_method("Baseline").unwrap();
    cfg.warmup_instrs = 100_000;
    cfg.measure_instrs = 200_000;
    let a = simulate(&w, cfg.clone(), 1);
    let b = simulate(&w, cfg, 2);
    assert_ne!(a.cycles, b.cycles, "seeds should change the trace");
    // Same workload: characteristics must be in the same family.
    let (ma, mb) = (a.l1i_mpki(), b.l1i_mpki());
    assert!(
        (ma - mb).abs() / ma.max(mb) < 0.4,
        "mpki unstable across seeds: {ma} vs {mb}"
    );
}

#[test]
fn catalog_images_build_in_both_isa_modes() {
    for w in all_workloads() {
        let fixed = w.image(IsaMode::Fixed4);
        assert!(
            image_instrs(&fixed).iter().all(|i| i.size == 4),
            "{}",
            w.name
        );
        let var = w.image(IsaMode::Variable);
        assert!(
            image_instrs(&var).iter().any(|i| i.size != 4),
            "{} variable image has no variable sizes",
            w.name
        );
        // Both expose the same function count (same structure plan).
        assert_eq!(fixed.functions().len(), var.functions().len());
    }
}
