//! External-trace replay: record a synthetic trace, rebuild the
//! pre-decode oracle from the observed stream, and verify the simulator
//! behaves equivalently to the image-backed run.

use dcfb_sim::{SimConfig, Simulator};
use dcfb_trace::file::DEFAULT_CHUNK_RECORDS;
use dcfb_trace::{
    read_binary_checked, write_binary_v2, CodeMemory, InstrStream, IsaMode, ReadMode, RecordedCode,
    VecTrace,
};
use dcfb_workloads::{ResolvedWorkload, Walker, Workload, WorkloadParams};
use std::sync::Arc;

fn workload() -> Workload {
    Workload {
        name: "replay",
        params: WorkloadParams {
            name: "replay".to_owned(),
            functions: 400,
            root_functions: 12,
            ..WorkloadParams::default()
        },
        image_seed: 31,
    }
}

fn capture(n: usize) -> VecTrace {
    let image = workload().image(IsaMode::Fixed4);
    let mut walker = Walker::new(image, 5);
    VecTrace::capture(&mut walker, n)
}

#[test]
fn recorded_trace_round_trips_through_files() {
    let trace = capture(200_000);
    let mut replay = trace.replay();
    let mut bytes = Vec::new();
    let n = write_binary_v2(
        &mut replay,
        &mut bytes,
        u64::MAX,
        None,
        DEFAULT_CHUNK_RECORDS,
    )
    .unwrap();
    assert_eq!(n, 200_000);
    let (back, _) = read_binary_checked(bytes.as_slice(), ReadMode::Strict).unwrap();
    assert_eq!(back.instrs(), trace.instrs());
}

#[test]
fn replayed_trace_simulates_like_the_image_backed_run() {
    let trace = capture(300_000);
    let w = workload();
    let image = w.image(IsaMode::Fixed4);

    let mut cfg = SimConfig::for_method("SN4L+Dis+BTB").unwrap();
    cfg.warmup_instrs = 100_000;
    cfg.measure_instrs = 200_000;

    // Image-backed run over the SAME instruction stream: the image's
    // walker at the capture's seed.
    let img_rep = dcfb_sim::run(&ResolvedWorkload::from_image(image), cfg.clone(), 5)
        .unwrap()
        .report;

    // Trace-backed run: pre-decode oracle reconstructed from the trace.
    let code: Arc<dyn CodeMemory + Send + Sync> =
        Arc::new(RecordedCode::from_trace(trace.instrs()));
    let start = trace.instrs()[0].pc;
    let mut sim_trc = Simulator::try_with_code(cfg, code, start, "trace".into()).unwrap();
    let mut replay2 = trace.replay();
    let trc_rep = sim_trc.run(&mut replay2);

    assert_eq!(img_rep.instrs, trc_rep.instrs);
    // The recorded oracle only knows executed code, so pre-decoding can
    // differ slightly (cold blocks decode empty); the overall timing
    // must still agree closely.
    let ratio = trc_rep.ipc() / img_rep.ipc();
    assert!(
        (0.9..1.1).contains(&ratio),
        "trace-backed IPC {} vs image-backed {}",
        trc_rep.ipc(),
        img_rep.ipc()
    );
    assert!(trc_rep.l1i.demand_misses > 0);
}

#[test]
fn recorded_code_covers_the_executed_footprint() {
    let trace = capture(100_000);
    let rec = RecordedCode::from_trace(trace.instrs());
    // Every executed block must decode non-empty.
    let mut replay = trace.replay();
    while let Some(i) = replay.next_instr() {
        assert!(
            !rec.instrs_in_block(i.block()).is_empty(),
            "block {:#x} missing",
            i.block()
        );
    }
}
