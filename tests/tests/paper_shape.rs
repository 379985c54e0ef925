//! End-to-end checks that the reproduction exhibits the paper's
//! headline *shapes* at a reduced (CI-friendly) scale: who wins, in
//! which order, and where the pathologies appear.

use dcfb_sim::{SimConfig, SimReport};
use dcfb_workloads::{workload, ResolvedWorkload, Workload, WorkloadParams};

const WARMUP: u64 = 300_000;
const MEASURE: u64 = 600_000;

fn test_workload() -> Workload {
    // A mid-sized instruction-bound workload, cheap enough for CI.
    Workload {
        name: "ci-server",
        params: WorkloadParams {
            name: "ci-server".to_owned(),
            functions: 1200,
            avg_segments: 14.0,
            avg_bb_instrs: 6.0,
            cold_frac: 0.30,
            cold_taken_prob: 0.04,
            avg_cold_instrs: 10.0,
            loop_frac: 0.10,
            avg_loop_iters: 3.0,
            call_frac: 0.30,
            indirect_frac: 0.12,
            zipf_s: 0.9,
            root_functions: 24,
        },
        image_seed: 77,
    }
}

fn run(w: &Workload, method: &str) -> SimReport {
    let mut cfg = SimConfig::for_method(method).expect("method");
    cfg.warmup_instrs = WARMUP;
    cfg.measure_instrs = MEASURE;
    let source = ResolvedWorkload::from_image(w.image(cfg.isa));
    dcfb_sim::run(&source, cfg, 42)
        .expect("valid config")
        .report
}

#[test]
fn headline_ordering_ours_beats_btb_directed_beats_baseline() {
    let w = test_workload();
    let base = run(&w, "Baseline");
    let ours = run(&w, "SN4L+Dis+BTB");
    let shotgun = run(&w, "Shotgun");
    assert!(base.l1i_mpki() > 5.0, "workload not instruction-bound");
    let ours_speedup = ours.speedup_over(&base);
    let shotgun_speedup = shotgun.speedup_over(&base);
    assert!(ours_speedup > 1.05, "ours {ours_speedup}");
    assert!(shotgun_speedup > 1.0, "shotgun {shotgun_speedup}");
    assert!(
        ours_speedup > shotgun_speedup,
        "ours {ours_speedup} <= shotgun {shotgun_speedup} (Fig. 16 ordering)"
    );
}

#[test]
fn component_breakdown_is_monotonic() {
    // Fig. 17: N4L <= SN4L <= SN4L+Dis <= SN4L+Dis+BTB (within noise,
    // each addition should not hurt).
    let w = test_workload();
    let base = run(&w, "Baseline");
    let stages = ["N4L", "SN4L", "SN4L+Dis", "SN4L+Dis+BTB"];
    let speedups: Vec<f64> = stages
        .iter()
        .map(|m| run(&w, m).speedup_over(&base))
        .collect();
    for pair in speedups.windows(2) {
        assert!(
            pair[1] > pair[0] - 0.02,
            "breakdown regressed: {stages:?} -> {speedups:?}"
        );
    }
    assert!(
        speedups[3] > speedups[0],
        "full system must beat plain N4L: {speedups:?}"
    );
}

#[test]
fn sn4l_matches_n4l_coverage_with_far_less_traffic() {
    let w = test_workload();
    let base = run(&w, "Baseline");
    let n4l = run(&w, "N4L");
    let sn4l = run(&w, "SN4L");
    let n4l_bw = n4l.bandwidth_over(&base);
    let sn4l_bw = sn4l.bandwidth_over(&base);
    assert!(
        sn4l_bw < n4l_bw * 0.8,
        "SN4L bandwidth {sn4l_bw:.2}x not much below N4L {n4l_bw:.2}x"
    );
    let n4l_cov = n4l.miss_coverage_over(&base);
    let sn4l_cov = sn4l.miss_coverage_over(&base);
    assert!(
        sn4l_cov > n4l_cov - 0.12,
        "SN4L coverage {sn4l_cov} collapsed vs N4L {n4l_cov}"
    );
}

#[test]
fn n8l_hurts_itself_with_useless_prefetches() {
    // Fig. 4/5: deeper is not better — N8L's traffic erodes its edge.
    let w = test_workload();
    let base = run(&w, "Baseline");
    let n4l = run(&w, "N4L");
    let n8l = run(&w, "N8L");
    assert!(
        n8l.bandwidth_over(&base) > n4l.bandwidth_over(&base) * 1.2,
        "N8L must generate much more traffic"
    );
    assert!(
        n8l.speedup_over(&base) < n4l.speedup_over(&base) + 0.05,
        "N8L should not meaningfully beat N4L"
    );
}

#[test]
fn sequential_misses_dominate_the_baseline() {
    // Fig. 2 band (65-80%), with slack for the CI workload.
    let w = test_workload();
    let base = run(&w, "Baseline");
    let f = base.seq_miss_fraction();
    assert!((0.55..0.95).contains(&f), "sequential fraction {f}");
}

#[test]
fn fscr_orders_like_the_paper() {
    // Fig. 15: ours covers the most frontend stalls.
    let w = test_workload();
    let base = run(&w, "Baseline");
    let ours = run(&w, "SN4L+Dis+BTB").fscr_over(&base);
    let shotgun = run(&w, "Shotgun").fscr_over(&base);
    assert!(ours > 0.3, "ours FSCR {ours}");
    assert!(ours > shotgun, "ours {ours} <= shotgun {shotgun}");
}

#[test]
fn shotgun_exhibits_footprint_misses_and_ftq_stalls() {
    // Fig. 1 / Table I: the §III pathology must be observable.
    let w = test_workload();
    let rep = run(&w, "Shotgun");
    let engine = rep.shotgun.expect("engine stats");
    let fmr = engine.footprint_miss_ratio();
    assert!(
        (0.01..0.6).contains(&fmr),
        "footprint miss ratio {fmr} outside plausible band"
    );
    assert!(
        rep.empty_ftq_fraction() > 0.01,
        "no empty-FTQ stalls observed"
    );
}

#[test]
fn web_frontend_is_least_frontend_bound() {
    // Fig. 16: the smallest workload gains the least.
    let fe = workload("Web Frontend").expect("catalog");
    let base = run(&fe, "Baseline");
    let ours = run(&fe, "SN4L+Dis+BTB");
    let fe_speedup = ours.speedup_over(&base);
    let w = test_workload();
    let big_base = run(&w, "Baseline");
    let big_speedup = run(&w, "SN4L+Dis+BTB").speedup_over(&big_base);
    assert!(
        fe_speedup < big_speedup,
        "Web Frontend ({fe_speedup}) should gain less than a big workload ({big_speedup})"
    );
}

#[test]
fn storage_budgets_match_table_ii() {
    let w = test_workload();
    let ours = run(&w, "SN4L+Dis+BTB");
    let kb = ours.storage_bits as f64 / 8.0 / 1024.0;
    assert!((6.5..8.5).contains(&kb), "ours {kb} KB, paper 7.6 KB");
    let shotgun = run(&w, "Shotgun");
    assert_eq!(shotgun.storage_bits / 8 / 1024, 6, "Shotgun 6 KB");
    let confl = run(&w, "Confluence");
    assert!(
        confl.storage_bits / 8 / 1024 > 100,
        "Confluence metadata must be orders larger"
    );
}
