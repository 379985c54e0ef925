//! Tunable parameters of the synthetic workload generator.

/// Shape parameters for one synthetic server workload.
///
/// A workload is a population of functions; each function is a chain of
/// *segments*, and each segment is one of: a straight basic block, an
/// if/else whose alternative is cold, a loop, or a call site. The walker
/// (see [`crate::synth`]) executes transactions by walking root handler
/// functions to completion.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadParams {
    /// Human-readable workload name.
    pub name: String,
    /// Number of functions in the image (footprint driver).
    pub functions: usize,
    /// Mean segments per function (geometric, ≥ 1).
    pub avg_segments: f64,
    /// Mean instructions per hot basic block (geometric, ≥ 1).
    pub avg_bb_instrs: f64,
    /// Fraction of segments that carry a cold alternative block
    /// (else-branches, exception handlers, error paths).
    pub cold_frac: f64,
    /// Probability that a cold alternative actually executes.
    pub cold_taken_prob: f64,
    /// Mean instructions in a cold block (usually longer than hot BBs —
    /// error handling and logging code).
    pub avg_cold_instrs: f64,
    /// Fraction of segments that are loop bodies.
    pub loop_frac: f64,
    /// Mean loop iteration count (geometric, ≥ 1).
    pub avg_loop_iters: f64,
    /// Fraction of segments that end in a call.
    pub call_frac: f64,
    /// Fraction of calls that are indirect (virtual dispatch).
    pub indirect_frac: f64,
    /// Zipf skew for callee selection (higher = hotter hot functions).
    pub zipf_s: f64,
    /// Number of root handler functions (transaction entry points).
    pub root_functions: usize,
}

impl WorkloadParams {
    /// Validates internal consistency; called by the image builder.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range fields, with the offending field named.
    pub fn validate(&self) {
        assert!(self.functions >= 2, "functions must be >= 2");
        assert!(self.avg_segments >= 1.0, "avg_segments must be >= 1");
        assert!(self.avg_bb_instrs >= 1.0, "avg_bb_instrs must be >= 1");
        for (v, n) in [
            (self.cold_frac, "cold_frac"),
            (self.cold_taken_prob, "cold_taken_prob"),
            (self.loop_frac, "loop_frac"),
            (self.call_frac, "call_frac"),
            (self.indirect_frac, "indirect_frac"),
        ] {
            assert!((0.0..=1.0).contains(&v), "{n} must be in [0,1], got {v}");
        }
        assert!(
            self.cold_frac + self.loop_frac + self.call_frac <= 1.0,
            "segment-kind fractions exceed 1"
        );
        assert!(self.avg_cold_instrs >= 1.0, "avg_cold_instrs must be >= 1");
        assert!(self.avg_loop_iters >= 1.0, "avg_loop_iters must be >= 1");
        assert!(self.zipf_s > 0.0, "zipf_s must be positive");
        assert!(
            (1..=self.functions).contains(&self.root_functions),
            "root_functions out of range"
        );
    }

    /// Rough static instruction count implied by these parameters
    /// (hot + cold code), before layout padding.
    pub fn approx_static_instrs(&self) -> f64 {
        let per_segment =
            self.avg_bb_instrs + self.cold_frac * self.avg_cold_instrs + 1.0 /* terminator */;
        self.functions as f64 * self.avg_segments * per_segment
    }

    /// Rough instruction footprint in KiB for a fixed-length (4 B) ISA.
    pub fn approx_footprint_kib(&self) -> f64 {
        self.approx_static_instrs() * 4.0 / 1024.0
    }
}

impl Default for WorkloadParams {
    /// A mid-sized server-like workload, useful for tests and examples.
    fn default() -> Self {
        WorkloadParams {
            name: "default".to_owned(),
            functions: 600,
            avg_segments: 10.0,
            avg_bb_instrs: 6.0,
            cold_frac: 0.30,
            cold_taken_prob: 0.03,
            avg_cold_instrs: 10.0,
            loop_frac: 0.15,
            avg_loop_iters: 4.0,
            call_frac: 0.30,
            indirect_frac: 0.10,
            zipf_s: 1.1,
            root_functions: 24,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn default_params_validate() {
        WorkloadParams::default().validate();
    }

    #[test]
    #[should_panic(expected = "cold_frac")]
    fn bad_cold_frac_panics() {
        let mut p = WorkloadParams::default();
        p.cold_frac = 1.5;
        p.validate();
    }

    #[test]
    #[should_panic(expected = "exceed 1")]
    fn segment_fractions_must_fit() {
        let mut p = WorkloadParams::default();
        p.cold_frac = 0.5;
        p.loop_frac = 0.4;
        p.call_frac = 0.4;
        p.validate();
    }

    #[test]
    #[should_panic(expected = "root_functions")]
    fn too_many_roots_panics() {
        let mut p = WorkloadParams::default();
        p.root_functions = p.functions + 1;
        p.validate();
    }

    #[test]
    fn footprint_estimate_scales_with_functions() {
        let small = WorkloadParams {
            functions: 100,
            ..WorkloadParams::default()
        };
        let large = WorkloadParams {
            functions: 1000,
            ..WorkloadParams::default()
        };
        assert!(large.approx_footprint_kib() > 5.0 * small.approx_footprint_kib());
    }
}
