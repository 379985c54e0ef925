//! The paper's headline argument (Fig. 18): BTB-directed prefetching
//! degrades as BTB capacity shrinks relative to the workload's branch
//! working set, while SN4L+Dis+BTB — whose instruction prefetching does
//! not depend on BTB content — keeps its gains.
//!
//! ```sh
//! cargo run --release -p dcfb-examples --example btb_pressure
//! ```

use dcfb_frontend::ShotgunBtbConfig;
use dcfb_sim::{run, PrefetcherKind, SimConfig};
use dcfb_workloads::{workload, ResolvedWorkload};

fn main() {
    let w = workload("OLTP (DB A)").expect("catalog workload");
    println!("workload: {} (largest instruction footprint)\n", w.name);
    let source = ResolvedWorkload::from_image(w.image(SimConfig::default().isa));
    println!(
        "{:>10} {:>14} {:>10} {:>12} {:>16}",
        "BTB scale", "SN4L+Dis+BTB", "Shotgun", "ours/Shotgun", "footprint miss"
    );

    for scale in [1.0f64, 0.5, 0.25, 0.125] {
        // Our proposal with a scaled conventional BTB.
        let mut ours = SimConfig::for_method("SN4L+Dis+BTB").expect("method");
        ours.warmup_instrs = 400_000;
        ours.measure_instrs = 800_000;
        ours.btb.entries = ((ours.btb.entries as f64 * scale) as usize).max(64) / 4 * 4;
        let ours_rep = run(&source, ours, 42).expect("valid config").report;

        // Shotgun with all three split-BTB components scaled.
        let mut shot = SimConfig::for_method("Shotgun").expect("method");
        shot.warmup_instrs = 400_000;
        shot.measure_instrs = 800_000;
        shot.prefetcher = PrefetcherKind::Shotgun(ShotgunBtbConfig::scaled(scale));
        let shot_rep = run(&source, shot, 42).expect("valid config").report;

        println!(
            "{:>10} {:>13.3} {:>10.3} {:>11.2}x {:>15.1}%",
            format!("{scale:.3}x"),
            ours_rep.ipc(),
            shot_rep.ipc(),
            ours_rep.ipc() / shot_rep.ipc().max(1e-9),
            shot_rep
                .shotgun
                .map(|s| s.footprint_miss_ratio() * 100.0)
                .unwrap_or(0.0),
        );
    }
    println!("\nExpected shape: the ours/Shotgun ratio grows as the BTB shrinks (Fig. 18).");
}
