//! Variable-length-ISA support (§V-D / §VII-J) end to end: branch
//! footprints virtualized in the DV-LLC are what make BTB prefilling
//! (and Dis target extraction) possible when instruction boundaries are
//! not self-describing.

use dcfb_sim::SimConfig;
use dcfb_trace::IsaMode;
use dcfb_workloads::{ResolvedWorkload, Workload, WorkloadParams};

fn vl_workload() -> Workload {
    Workload {
        name: "vl",
        params: WorkloadParams {
            name: "vl".to_owned(),
            functions: 700,
            root_functions: 16,
            zipf_s: 0.9,
            ..WorkloadParams::default()
        },
        image_seed: 13,
    }
}

fn run(dvllc: bool) -> dcfb_sim::SimReport {
    let mut cfg = SimConfig::for_method("SN4L+Dis+BTB").unwrap();
    cfg.isa = IsaMode::Variable;
    cfg.uncore.dvllc = dvllc;
    cfg.warmup_instrs = 200_000;
    cfg.measure_instrs = 400_000;
    let source = ResolvedWorkload::from_image(vl_workload().image(cfg.isa));
    dcfb_sim::run(&source, cfg, 9).unwrap().report
}

#[test]
fn dvllc_enables_btb_prefilling_on_vl_isa() {
    let with = run(true);
    let without = run(false);
    assert_eq!(with.instrs, without.instrs);
    // Without a BF source the pre-decoder cannot find boundaries, so
    // the BTB prefetch buffer starves and BTB-miss bubbles return.
    assert!(
        with.stall_btb * 3 < without.stall_btb,
        "DV-LLC should slash BTB stalls: {} vs {}",
        with.stall_btb,
        without.stall_btb
    );
    assert!(with.ipc() > without.ipc(), "DV-LLC should help IPC");
}

#[test]
fn vl_isa_prefetching_still_covers_misses() {
    let mut base_cfg = SimConfig::for_method("Baseline").unwrap();
    base_cfg.isa = IsaMode::Variable;
    base_cfg.warmup_instrs = 200_000;
    base_cfg.measure_instrs = 400_000;
    let source = ResolvedWorkload::from_image(vl_workload().image(base_cfg.isa));
    let base = dcfb_sim::run(&source, base_cfg, 9).unwrap().report;
    let with = run(true);
    assert!(
        with.miss_coverage_over(&base) > 0.4,
        "VL coverage {}",
        with.miss_coverage_over(&base)
    );
    assert!(with.speedup_over(&base) > 1.05);
}

#[test]
fn paper_dvllc_claim_instruction_hits_unaffected() {
    // §VII-J: the DV-LLC "remains as effective as a conventional LLC" —
    // instruction hit ratio unchanged, tiny data-side cost.
    let with = run(true);
    let without = run(false);
    let hit = |r: &dcfb_sim::SimReport| r.uncore.llc_hits as f64 / r.uncore.requests.max(1) as f64;
    assert!(
        (hit(&with) - hit(&without)).abs() < 0.03,
        "LLC hit ratio shifted: {} vs {}",
        hit(&with),
        hit(&without)
    );
}
