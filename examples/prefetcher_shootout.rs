//! Shootout: every prefetcher in the paper on one workload.
//!
//! ```sh
//! cargo run --release -p dcfb-examples --example prefetcher_shootout [workload]
//! ```
//!
//! The optional argument is a Table IV workload name
//! (default: "OLTP (DB B)").

use dcfb_sim::{run, SimConfig};
use dcfb_workloads::{workload, workload_names, ResolvedWorkload};

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "OLTP (DB B)".to_owned());
    let Some(w) = workload(&name) else {
        eprintln!(
            "unknown workload {name:?}; choose one of {:?}",
            workload_names()
        );
        std::process::exit(1);
    };

    let methods = [
        "Baseline",
        "NL",
        "N2L",
        "N4L",
        "N8L",
        "Discontinuity",
        "SN4L",
        "Dis",
        "SN4L+Dis",
        "SN4L+Dis+BTB",
        "Boomerang",
        "Shotgun",
        "Confluence",
    ];

    println!("workload: {}\n", w.name);
    println!(
        "{:14} {:>7} {:>7} {:>8} {:>9} {:>9} {:>10}",
        "method", "IPC", "MPKI", "speedup", "CMAL", "ext BW", "storage"
    );

    let source = ResolvedWorkload::from_image(w.image(SimConfig::default().isa));
    let mut baseline_ipc = 0.0;
    let mut baseline_bw = 0.0;
    for m in methods {
        let mut cfg = SimConfig::for_method(m).expect("known method");
        cfg.warmup_instrs = 500_000;
        cfg.measure_instrs = 1_000_000;
        let r = run(&source, cfg, 42).expect("valid config").report;
        let bw_rate = r.external_requests as f64 / r.instrs.max(1) as f64;
        if m == "Baseline" {
            baseline_ipc = r.ipc();
            baseline_bw = bw_rate;
        }
        println!(
            "{:14} {:7.3} {:7.1} {:7.2}x {:8.1}% {:8.2}x {:7.1} KB",
            m,
            r.ipc(),
            r.l1i_mpki(),
            if baseline_ipc > 0.0 {
                r.ipc() / baseline_ipc
            } else {
                0.0
            },
            r.cmal() * 100.0,
            if baseline_bw > 0.0 {
                bw_rate / baseline_bw
            } else {
                0.0
            },
            r.storage_bits as f64 / 8.0 / 1024.0,
        );
    }
}
