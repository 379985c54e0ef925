//! Build a *custom* synthetic server workload, inspect its static and
//! dynamic structure, and measure how prefetchable it is.
//!
//! ```sh
//! cargo run --release -p dcfb-examples --example custom_workload
//! ```

use dcfb_cache::CacheConfig;
use dcfb_sim::analysis;
use dcfb_sim::{run, SimConfig};
use dcfb_trace::{IsaMode, StreamStats};
use dcfb_workloads::{ResolvedWorkload, Walker, Workload, WorkloadParams};
use std::sync::Arc;

fn main() {
    // A microservice-style workload: mid-sized footprint, heavy error
    // handling, shallow call graph.
    let params = WorkloadParams {
        name: "microservice".to_owned(),
        functions: 900,
        avg_segments: 12.0,
        avg_bb_instrs: 5.0,
        cold_frac: 0.40,
        cold_taken_prob: 0.03,
        avg_cold_instrs: 14.0,
        loop_frac: 0.08,
        avg_loop_iters: 3.0,
        call_frac: 0.30,
        indirect_frac: 0.15,
        zipf_s: 0.9,
        root_functions: 20,
    };
    let w = Workload {
        name: "microservice",
        params,
        image_seed: 2026,
    };

    // --- Static structure. ---
    let image = w.image(IsaMode::Fixed4);
    let (cond, uncond, indirect, rets) = image.branch_census();
    println!("static image:");
    println!("  code size        : {} KiB", image.code_bytes() / 1024);
    println!("  functions        : {}", image.functions().len());
    println!("  code blocks      : {}", image.code_blocks());
    println!("  branch sites     : {cond} cond, {uncond} uncond, {indirect} indirect, {rets} ret");

    // --- Dynamic structure. ---
    let mut walker = Walker::new(Arc::clone(&image), 7);
    let stats = StreamStats::measure(&mut walker, 1_000_000);
    println!("\ndynamic trace (1M instructions):");
    println!(
        "  branch density   : {:.1}%",
        stats.branch_density() * 100.0
    );
    println!("  touched footprint: {:.0} KiB", stats.footprint_kib());
    println!("  transactions     : {}", walker.transactions());

    let mut walker = Walker::new(Arc::clone(&image), 7);
    let (seq, disc) =
        analysis::sequential_miss_fraction(&mut walker, CacheConfig::l1i(), 1_000_000);
    println!(
        "  L1i misses       : {} sequential / {} discontinuity ({:.0}% sequential)",
        seq,
        disc,
        100.0 * seq as f64 / (seq + disc).max(1) as f64
    );
    let mut walker = Walker::new(Arc::clone(&image), 7);
    let stability = analysis::discontinuity_stability(&mut walker, 1_000_000);
    println!(
        "  disc. stability  : {:.0}% (same branch as last time)",
        stability * 100.0
    );

    // --- How well does the paper's prefetcher do on it? ---
    let mut cfg = SimConfig::for_method("SN4L+Dis+BTB").expect("method");
    cfg.warmup_instrs = 400_000;
    cfg.measure_instrs = 800_000;
    let mut base_cfg = SimConfig::baseline();
    base_cfg.warmup_instrs = cfg.warmup_instrs;
    base_cfg.measure_instrs = cfg.measure_instrs;
    let source = ResolvedWorkload::from_image(image);
    let base = run(&source, base_cfg, 7).expect("valid config").report;
    let r = run(&source, cfg, 7).expect("valid config").report;
    println!("\nSN4L+Dis+BTB on this workload:");
    println!("  speedup       : {:.2}x", r.speedup_over(&base));
    println!(
        "  miss coverage : {:.1}%",
        r.miss_coverage_over(&base) * 100.0
    );
    println!("  FSCR          : {:.1}%", r.fscr_over(&base) * 100.0);
}
