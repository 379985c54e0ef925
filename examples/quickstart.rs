//! Quickstart: run the paper's SN4L+Dis+BTB prefetcher against the
//! no-prefetcher baseline on one server workload.
//!
//! ```sh
//! cargo run --release -p dcfb-examples --example quickstart
//! ```

use dcfb_sim::{run, SimConfig};
use dcfb_workloads::{workload, ResolvedWorkload};

fn main() {
    // 1. Pick a calibrated synthetic server workload (Table IV).
    let w = workload("Web (Apache)").expect("catalog workload");
    println!(
        "workload: {} (~{:.0} KiB of code)",
        w.name,
        w.params.approx_footprint_kib()
    );

    // 2. Configure the paper's full proposal. `for_method` knows every
    //    evaluated configuration by its figure name.
    let mut cfg = SimConfig::for_method("SN4L+Dis+BTB").expect("known method");
    cfg.warmup_instrs = 500_000;
    cfg.measure_instrs = 1_000_000;

    // 3. Run it and the baseline on the same image and trace seed.
    let mut base_cfg = SimConfig::baseline();
    base_cfg.warmup_instrs = cfg.warmup_instrs;
    base_cfg.measure_instrs = cfg.measure_instrs;
    let source = ResolvedWorkload::from_image(w.image(cfg.isa));
    let b = &run(&source, base_cfg, /* trace seed */ 42)
        .expect("valid config")
        .report;
    let r = &run(&source, cfg, 42).expect("valid config").report;
    println!("\n                      baseline    SN4L+Dis+BTB");
    println!("IPC                   {:8.3}    {:8.3}", b.ipc(), r.ipc());
    println!(
        "L1i MPKI              {:8.1}    {:8.1}",
        b.l1i_mpki(),
        r.l1i_mpki()
    );
    println!(
        "frontend stall frac   {:8.3}    {:8.3}",
        b.frontend_stalls() as f64 / b.cycles as f64,
        r.frontend_stalls() as f64 / r.cycles as f64,
    );
    println!("\nspeedup         : {:.2}x", r.speedup_over(b));
    println!("miss coverage   : {:.1}%", r.miss_coverage_over(b) * 100.0);
    println!("FSCR            : {:.1}%", r.fscr_over(b) * 100.0);
    println!("CMAL            : {:.1}%", r.cmal() * 100.0);
    println!(
        "metadata budget : {:.1} KB (paper: 7.6 KB)",
        r.storage_bits as f64 / 8.0 / 1024.0
    );
}
