//! Property-based cross-crate invariants: any valid workload
//! configuration must produce structurally sound images, traces, and
//! simulation reports.

use dcfb_integration::image_instrs;
use dcfb_sim::SimConfig;
use dcfb_trace::{block_of, CodeMemory, InstrStream, IsaMode};
use dcfb_workloads::{ResolvedWorkload, Terminator, Walker, Workload, WorkloadParams};
use proptest::prelude::*;

fn arb_params() -> impl Strategy<Value = WorkloadParams> {
    (
        60usize..400,
        2.0f64..18.0,
        2.0f64..10.0,
        0.0f64..0.4,
        0.0f64..0.3,
        0.0f64..0.3,
        0.4f64..1.4,
        2usize..24,
    )
        .prop_map(
            |(functions, segments, bb, cold, loops, calls, zipf, roots)| WorkloadParams {
                name: "prop".to_owned(),
                functions,
                avg_segments: segments,
                avg_bb_instrs: bb,
                cold_frac: cold,
                cold_taken_prob: 0.05,
                avg_cold_instrs: 6.0,
                loop_frac: loops,
                avg_loop_iters: 3.0,
                call_frac: calls,
                indirect_frac: 0.1,
                zipf_s: zipf,
                root_functions: roots.min(functions),
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_image_is_structurally_sound(params in arb_params(), seed in 0u64..1000) {
        let image = dcfb_workloads::ProgramImage::build(&params, seed, IsaMode::Fixed4);
        // Block enumeration yields every instruction once, strictly
        // ordered and non-overlapping.
        let instrs = image_instrs(&image);
        for w in instrs.windows(2) {
            prop_assert!(w[0].pc + u64::from(w[0].size) <= w[1].pc);
        }
        let total: u64 = image.blocks().iter().map(|b| u64::from(b.n_instrs)).sum();
        prop_assert_eq!(instrs.len() as u64, total);
        let mid = instrs[instrs.len() / 2];
        let blk = image.instrs_in_block(block_of(mid.pc));
        prop_assert!(blk.contains(&mid));
        // Every function ends in Return (except the dispatcher).
        for f in image.functions().iter().skip(1) {
            prop_assert!(matches!(
                image.blocks_of(f).last().unwrap().term,
                Terminator::Return
            ));
        }
        // Each basic block starts at its first instruction and ends in
        // a branch exactly when its terminator is one.
        for bb in image.blocks() {
            prop_assert_eq!(instrs[bb.first_instr as usize].pc, bb.start);
            let last = instrs[(bb.first_instr + bb.n_instrs - 1) as usize];
            prop_assert_eq!(
                last.kind.is_branch(),
                !matches!(bb.term, Terminator::FallThrough)
            );
        }
    }

    #[test]
    fn any_trace_is_control_flow_consistent(params in arb_params(), seed in 0u64..1000) {
        let image = std::sync::Arc::new(
            dcfb_workloads::ProgramImage::build(&params, seed, IsaMode::Fixed4),
        );
        let mut w = Walker::new(image, seed ^ 0xabc);
        let mut prev: Option<dcfb_trace::Instr> = None;
        for _ in 0..20_000 {
            let i = w.next_instr().unwrap();
            if let Some(p) = prev {
                prop_assert_eq!(p.next_pc(), i.pc);
            }
            prev = Some(i);
        }
    }

    #[test]
    fn any_simulation_report_is_coherent(params in arb_params(), seed in 0u64..100) {
        let workload = Workload { name: "prop", params, image_seed: seed };
        let mut cfg = SimConfig::for_method("SN4L+Dis+BTB").unwrap();
        cfg.warmup_instrs = 20_000;
        cfg.measure_instrs = 50_000;
        let source = ResolvedWorkload::from_image(workload.image(cfg.isa));
        let r = dcfb_sim::run(&source, cfg, seed).unwrap().report;
        prop_assert_eq!(r.instrs, 50_000);
        prop_assert!(r.cycles > 0);
        // Hits + misses = accesses.
        prop_assert_eq!(
            r.l1i.demand_hits + r.l1i.demand_misses,
            r.l1i.demand_accesses
        );
        // Miss classification covers all misses (buffer re-credits aside).
        prop_assert!(r.seq_misses + r.disc_misses >= r.l1i.demand_misses);
        // CMAL is a valid fraction.
        let c = r.cmal();
        prop_assert!((0.0..=1.0).contains(&c), "cmal {}", c);
        // IPC can never exceed the fetch width.
        prop_assert!(r.ipc() <= 3.0 + 1e-9);
        // The uncore saw at least every uncovered miss.
        prop_assert!(r.external_requests >= r.uncovered_misses);
    }
}
