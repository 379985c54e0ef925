//! Variable-length ISA support (§V-D): branch footprints virtualized in
//! the DV-LLC make BTB pre-decoding possible when instruction
//! boundaries are not self-describing.
//!
//! ```sh
//! cargo run --release -p dcfb-examples --example vl_isa
//! ```

use dcfb_cache::BranchFootprint;
use dcfb_sim::{run, SimConfig};
use dcfb_trace::{CodeMemory, IsaMode};
use dcfb_workloads::{workload, ResolvedWorkload};

fn main() {
    let w = workload("Web (Zeus)").expect("catalog workload");

    // --- Branch footprints on a variable-length image. ---
    let image = w.image(IsaMode::Variable);
    let mut covered = 0usize;
    let mut overflowed = 0usize;
    let mut code_blocks = 0usize;
    let end = dcfb_trace::block_of(image.end());
    for block in dcfb_trace::block_of(dcfb_workloads::image::IMAGE_BASE)..=end {
        let instrs = image.instrs_in_block(block);
        if instrs.is_empty() {
            continue;
        }
        code_blocks += 1;
        let (_bf, overflow) = BranchFootprint::from_block(&instrs);
        if overflow == 0 {
            covered += 1;
        } else {
            overflowed += 1;
        }
    }
    println!("variable-length image of {}:", w.name);
    println!("  code blocks                : {code_blocks}");
    println!(
        "  fully covered by 4-entry BF : {covered} ({:.1}%)",
        100.0 * covered as f64 / code_blocks.max(1) as f64
    );
    println!("  blocks with >4 branches     : {overflowed} (Fig. 8: should be rare)");

    // --- DV-LLC on vs. off under the full prefetcher. ---
    println!("\nSN4L+Dis+BTB with branch footprints virtualized in the DV-LLC:");
    let source = ResolvedWorkload::from_image(image);
    for (label, dvllc) in [("DV-LLC on", true), ("DV-LLC off (no BF source)", false)] {
        let mut cfg = SimConfig::for_method("SN4L+Dis+BTB").expect("method");
        cfg.isa = IsaMode::Variable;
        cfg.uncore.dvllc = dvllc;
        cfg.warmup_instrs = 400_000;
        cfg.measure_instrs = 800_000;
        let r = run(&source, cfg, 42).expect("valid config").report;
        let llc_hit = r.uncore.llc_hits as f64 / r.uncore.requests.max(1) as f64;
        println!(
            "  {label:28}: IPC {:.3}, BTB-miss stalls {:>7}, LLC hit {:.1}%",
            r.ipc(),
            r.stall_btb,
            llc_hit * 100.0
        );
    }
    println!("\nWithout the DV-LLC the pre-decoder cannot find instruction boundaries,");
    println!("so BTB prefilling stops and BTB-miss bubbles return (§V-D).");
}
