//! The seven server workloads of Table IV, as calibrated synthetic
//! equivalents.
//!
//! Parameter choices encode what the paper reports about each workload:
//!
//! * **OLTP (DB A)** — Oracle TPC-C: the largest instruction footprint
//!   and the highest Shotgun U-BTB footprint miss ratio (31 %, Fig. 1);
//!   deep call chains, many functions.
//! * **OLTP (DB B)** — DB2 TPC-C: large footprint, somewhat smaller than
//!   DB A (Fig. 1 shows a much lower footprint miss ratio).
//! * **Web (Apache)** / **Web (Zeus)** — SPECweb99: mid-sized footprints
//!   with abundant error-handling cold paths.
//! * **Media Streaming** — Darwin: the most frontend-bound workload
//!   (50 % speedup with SN4L+Dis+BTB); long streaming loops make it very
//!   sequential and prefetch-friendly.
//! * **Web Frontend** — Nginx/PHP: the least frontend-bound workload
//!   (7 % speedup); modest footprint.
//! * **Web Search** — Nutch/Lucene: mid-sized, index-traversal loops.

use crate::image::ProgramImage;
use crate::params::WorkloadParams;
use crate::synth::Walker;
use dcfb_trace::IsaMode;
use std::sync::Arc;

/// A named, calibrated synthetic workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Display name (matches the paper's figures).
    pub name: &'static str,
    /// Generator parameters.
    pub params: WorkloadParams,
    /// Seed used for image construction (trace seeds are separate).
    pub image_seed: u64,
}

impl Workload {
    /// Builds this workload's program image in the given ISA mode.
    pub fn image(&self, isa: IsaMode) -> Arc<ProgramImage> {
        Arc::new(ProgramImage::build(&self.params, self.image_seed, isa))
    }

    /// Builds an image and a walker over it in one step.
    pub fn walker(&self, isa: IsaMode, trace_seed: u64) -> Walker {
        Walker::new(self.image(isa), trace_seed)
    }
}

fn base(name: &'static str) -> WorkloadParams {
    WorkloadParams {
        name: name.to_owned(),
        ..WorkloadParams::default()
    }
}

/// The canonical workload names, in the paper's figure order.
pub fn workload_names() -> [&'static str; 7] {
    [
        "Media Streaming",
        "OLTP (DB A)",
        "OLTP (DB B)",
        "Web (Apache)",
        "Web (Zeus)",
        "Web Frontend",
        "Web Search",
    ]
}

/// Returns every calibrated workload, in the paper's figure order.
pub fn all_workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "Media Streaming",
            params: WorkloadParams {
                // Streaming: many small transactions rotating over a
                // large population of root handlers — the instruction
                // stream plows through mostly-sequential cold code,
                // making this the most frontend-bound (and most
                // prefetch-friendly) workload, as in the paper (+50%).
                functions: 2600,
                avg_segments: 22.0,
                avg_bb_instrs: 6.0,
                cold_frac: 0.22,
                cold_taken_prob: 0.02,
                avg_cold_instrs: 10.0,
                loop_frac: 0.05,
                avg_loop_iters: 3.0,
                call_frac: 0.20,
                indirect_frac: 0.18,
                zipf_s: 0.45,
                root_functions: 96,
                ..base("Media Streaming")
            },
            image_seed: 0xA11CE,
        },
        Workload {
            name: "OLTP (DB A)",
            params: WorkloadParams {
                // Oracle: the biggest footprint, deep call graph, the
                // most unconditional-branch sites (worst case for a
                // 1.5 K-entry U-BTB).
                functions: 4200,
                avg_segments: 13.0,
                avg_bb_instrs: 6.0,
                cold_frac: 0.30,
                cold_taken_prob: 0.04,
                avg_cold_instrs: 11.0,
                loop_frac: 0.10,
                avg_loop_iters: 3.0,
                call_frac: 0.38,
                indirect_frac: 0.14,
                zipf_s: 0.85,
                root_functions: 48,
                ..base("OLTP (DB A)")
            },
            image_seed: 0x0DBA,
        },
        Workload {
            name: "OLTP (DB B)",
            params: WorkloadParams {
                functions: 2100,
                avg_segments: 20.0,
                avg_bb_instrs: 6.5,
                cold_frac: 0.28,
                cold_taken_prob: 0.04,
                avg_cold_instrs: 10.0,
                loop_frac: 0.12,
                avg_loop_iters: 3.5,
                call_frac: 0.16,
                indirect_frac: 0.10,
                zipf_s: 1.05,
                root_functions: 40,
                ..base("OLTP (DB B)")
            },
            image_seed: 0x0DBB,
        },
        Workload {
            name: "Web (Apache)",
            params: WorkloadParams {
                // Many rarely-taken error/config paths: the cold-path
                // pollution that defeats deep NXL prefetching.
                functions: 1500,
                avg_segments: 11.0,
                avg_bb_instrs: 6.0,
                cold_frac: 0.36,
                cold_taken_prob: 0.05,
                avg_cold_instrs: 12.0,
                loop_frac: 0.10,
                avg_loop_iters: 3.0,
                call_frac: 0.28,
                indirect_frac: 0.12,
                zipf_s: 1.0,
                root_functions: 24,
                ..base("Web (Apache)")
            },
            image_seed: 0xA9AC_0001,
        },
        Workload {
            name: "Web (Zeus)",
            params: WorkloadParams {
                functions: 1250,
                avg_segments: 16.0,
                avg_bb_instrs: 6.5,
                cold_frac: 0.32,
                cold_taken_prob: 0.04,
                avg_cold_instrs: 10.0,
                loop_frac: 0.12,
                avg_loop_iters: 3.0,
                call_frac: 0.20,
                indirect_frac: 0.10,
                zipf_s: 1.05,
                root_functions: 20,
                ..base("Web (Zeus)")
            },
            image_seed: 0x2E05,
        },
        Workload {
            name: "Web Frontend",
            params: WorkloadParams {
                // Nginx/PHP: the least frontend-bound workload — small
                // enough that the L1i captures much of the hot path.
                functions: 420,
                avg_segments: 9.0,
                avg_bb_instrs: 6.0,
                cold_frac: 0.26,
                cold_taken_prob: 0.04,
                avg_cold_instrs: 9.0,
                loop_frac: 0.14,
                avg_loop_iters: 4.0,
                call_frac: 0.22,
                indirect_frac: 0.10,
                zipf_s: 1.25,
                root_functions: 12,
                ..base("Web Frontend")
            },
            image_seed: 0x0FE0,
        },
        Workload {
            name: "Web Search",
            params: WorkloadParams {
                functions: 950,
                avg_segments: 15.0,
                avg_bb_instrs: 7.5,
                cold_frac: 0.24,
                cold_taken_prob: 0.03,
                avg_cold_instrs: 9.0,
                loop_frac: 0.20,
                avg_loop_iters: 5.0,
                call_frac: 0.20,
                indirect_frac: 0.08,
                zipf_s: 1.1,
                root_functions: 16,
                ..base("Web Search")
            },
            image_seed: 0x5EAC_0004,
        },
    ]
}

/// Looks up a workload by its display name.
pub fn workload(name: &str) -> Option<Workload> {
    all_workloads().into_iter().find(|w| w.name == name)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use dcfb_trace::{InstrStream, StreamStats};

    #[test]
    fn all_workloads_validate() {
        for w in all_workloads() {
            w.params.validate();
            assert_eq!(w.params.name, w.name);
        }
    }

    #[test]
    fn names_match_catalog_order() {
        let names = workload_names();
        let all = all_workloads();
        assert_eq!(all.len(), names.len());
        for (w, n) in all.iter().zip(names.iter()) {
            assert_eq!(w.name, *n);
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(workload("OLTP (DB A)").is_some());
        assert!(workload("nope").is_none());
    }

    #[test]
    fn oltp_a_has_the_biggest_footprint() {
        let sizes: Vec<(String, f64)> = all_workloads()
            .iter()
            .map(|w| (w.name.to_owned(), w.params.approx_footprint_kib()))
            .collect();
        let dba = sizes.iter().find(|(n, _)| n == "OLTP (DB A)").unwrap().1;
        for (name, kib) in &sizes {
            if name != "OLTP (DB A)" {
                assert!(dba > *kib, "{name} ({kib} KiB) >= DB A ({dba} KiB)");
            }
        }
    }

    #[test]
    fn web_frontend_is_the_smallest() {
        let sizes: Vec<(String, f64)> = all_workloads()
            .iter()
            .map(|w| (w.name.to_owned(), w.params.approx_footprint_kib()))
            .collect();
        let fe = sizes.iter().find(|(n, _)| n == "Web Frontend").unwrap().1;
        for (name, kib) in &sizes {
            if name != "Web Frontend" {
                assert!(fe < *kib, "{name} ({kib} KiB) <= Web Frontend ({fe} KiB)");
            }
        }
    }

    #[test]
    fn footprints_exceed_l1i_capacity() {
        // Every workload must thrash a 32 KiB L1i for the paper's
        // phenomena to appear.
        for w in all_workloads() {
            assert!(
                w.params.approx_footprint_kib() > 96.0,
                "{} footprint too small",
                w.name
            );
        }
    }

    #[test]
    fn each_workload_produces_a_live_trace() {
        for w in all_workloads() {
            let mut walker = w.walker(dcfb_trace::IsaMode::Fixed4, 1);
            let stats = StreamStats::measure(&mut walker, 50_000);
            assert_eq!(stats.instrs, 50_000, "{} trace too short", w.name);
            assert!(stats.redirects > 1000, "{} too straight-line", w.name);
        }
    }

    #[test]
    fn walker_streams_are_reproducible_per_workload() {
        let w = workload("Web Search").unwrap();
        let mut a = w.walker(dcfb_trace::IsaMode::Fixed4, 7);
        let mut b = w.walker(dcfb_trace::IsaMode::Fixed4, 7);
        for _ in 0..10_000 {
            assert_eq!(a.next_instr(), b.next_instr());
        }
    }
}
