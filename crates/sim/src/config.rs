//! Simulation configuration (Table III defaults).
//!
//! Method names resolve through the `dcfb-prefetch` method registry
//! ([`dcfb_prefetch::registry`]): one row per evaluated method carrying
//! its display name, its [`PrefetcherKind`], and any machine overrides
//! (e.g. Confluence's 16 K-entry BTB). [`SimConfig::for_method`] is the
//! single entry point; adding a method — including a config-only
//! composition of existing prefetchers — means adding one registry row.

use dcfb_cache::CacheConfig;
use dcfb_errors::DcfbError;
use dcfb_frontend::{BtbConfig, ShotgunBtbConfig};
use dcfb_trace::IsaMode;
use dcfb_uncore::UncoreConfig;

pub use dcfb_prefetch::PrefetcherKind;

/// Frontend width (3-wide dispatch, Table III).
pub const FETCH_WIDTH: u32 = 3;
/// MSHR entries (32, Table III).
pub const MSHRS: usize = 32;
/// Frontend bubble on a BTB miss for a taken branch (≥ 6 cycles,
/// §VI-A).
pub const BTB_MISS_PENALTY: u64 = 9;
/// Redirect penalty on a direction/target misprediction.
pub const MISPREDICT_PENALTY: u64 = 9;
/// Wrong-path blocks fetched past a misprediction (bandwidth
/// pollution).
pub const WRONG_PATH_BLOCKS: u64 = 2;
/// FTQ capacity for the BTB-directed driver (32).
pub const FTQ_ENTRIES: usize = 32;
/// Prefetch-buffer capacity when [`SimConfig::use_prefetch_buffer`] is
/// set.
pub const PREFETCH_BUFFER_ENTRIES: usize = 64;

/// Full machine + experiment configuration. The fixed Table III
/// parameters that no experiment varies are the constants above.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SimConfig {
    /// L1i geometry (32 KB, 8-way).
    pub l1i: CacheConfig,
    /// Conventional BTB (2 K entries baseline; 16 K for Confluence;
    /// swept in Fig. 18).
    pub btb: BtbConfig,
    /// Hold prefetches in a [`PREFETCH_BUFFER_ENTRIES`]-entry buffer
    /// next to the L1i instead of filling the cache directly (the
    /// Fig. 5 NXL methodology).
    pub use_prefetch_buffer: bool,
    /// All demand accesses hit in the L1i (Fig. 17 "Perfect L1i").
    pub perfect_l1i: bool,
    /// No BTB-miss penalties (Fig. 17 "+ BTB∞").
    pub perfect_btb: bool,
    /// The memory system below the L1i.
    pub uncore: UncoreConfig,
    /// Instruction encoding mode.
    pub isa: IsaMode,
    /// The prefetcher under test.
    pub prefetcher: PrefetcherKind,
    /// Instructions to run before statistics are reset (cache/BTB/
    /// predictor warmup).
    pub warmup_instrs: u64,
    /// Instructions measured after warmup.
    pub measure_instrs: u64,
    /// Record detailed telemetry (counters, histograms,
    /// prefetch-timeliness classification, time series, trace events).
    /// Off by default: the recorder is then never allocated and each
    /// instrumentation site costs one never-taken branch.
    pub telemetry: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            l1i: CacheConfig::l1i(),
            btb: BtbConfig::baseline_2k(),
            use_prefetch_buffer: false,
            perfect_l1i: false,
            perfect_btb: false,
            uncore: UncoreConfig::default(),
            isa: IsaMode::Fixed4,
            prefetcher: PrefetcherKind::None,
            warmup_instrs: 2_000_000,
            measure_instrs: 3_000_000,
            telemetry: false,
        }
    }
}

impl SimConfig {
    /// Baseline with no prefetcher.
    pub fn baseline() -> Self {
        SimConfig::default()
    }

    /// The standard configuration for a named method, resolved through
    /// the method registry (§VI-D): `"Baseline"`, `"NL"`/`"N2L"`/
    /// `"N4L"`/`"N8L"`, `"SN4L"`, `"Dis"`, `"SN4L+Dis"`,
    /// `"SN4L+Dis+BTB"`, `"Discontinuity"`, `"Confluence"`,
    /// `"Boomerang"`, `"Shotgun"`, plus registry compositions such as
    /// `"N2L+Dis"`. [`dcfb_prefetch::method_names`] lists them all.
    ///
    /// Returns `None` for unknown names.
    pub fn for_method(name: &str) -> Option<Self> {
        let row = dcfb_prefetch::find_method(name)?;
        let mut cfg = SimConfig {
            prefetcher: row.kind(),
            ..SimConfig::default()
        };
        if let Some(btb) = row.btb_override() {
            cfg.btb = btb;
        }
        Some(cfg)
    }

    /// Scales the BTB budget by `scale`, as Fig. 18's BTB-size sweep
    /// does: Shotgun's split BTB shrinks every component
    /// ([`ShotgunBtbConfig::scaled`]); any other method's conventional
    /// BTB keeps at least 64 entries, rounded down to a multiple of 4.
    pub fn scale_btb(&mut self, scale: f64) {
        if let PrefetcherKind::Shotgun(sc) = &mut self.prefetcher {
            *sc = ShotgunBtbConfig::scaled(scale);
        } else {
            self.btb.entries = ((self.btb.entries as f64 * scale) as usize).max(64) / 4 * 4;
        }
    }

    /// Checks the configuration for values the simulator cannot run
    /// with, returning [`DcfbError::Config`] naming the first problem.
    ///
    /// Called by [`crate::run`], the simulator constructors and the
    /// CLI before a run, so a bad sweep or hand-edited config fails
    /// with a one-line diagnostic (exit 3) instead of an index panic
    /// deep in a table model.
    pub fn validate(&self) -> Result<(), DcfbError> {
        fn pow2(what: &str, n: usize) -> Result<(), DcfbError> {
            if n == 0 || !n.is_power_of_two() {
                return Err(DcfbError::Config(format!(
                    "{what} must be a nonzero power of two (got {n})"
                )));
            }
            Ok(())
        }
        fn nonzero(what: &str, n: u64) -> Result<(), DcfbError> {
            if n == 0 {
                return Err(DcfbError::Config(format!("{what} must be nonzero")));
            }
            Ok(())
        }
        fn set_assoc(what: &str, entries: usize, ways: usize) -> Result<(), DcfbError> {
            nonzero(&format!("{what} ways"), ways as u64)?;
            if entries == 0 || !entries.is_multiple_of(ways) {
                return Err(DcfbError::Config(format!(
                    "{what} entries ({entries}) must be a nonzero multiple of ways ({ways})"
                )));
            }
            pow2(&format!("{what} sets"), entries / ways)
        }
        fn check_prefetcher(p: &PrefetcherKind) -> Result<(), DcfbError> {
            match p {
                PrefetcherKind::None | PrefetcherKind::Discontinuity => Ok(()),
                PrefetcherKind::NextLine(d) => {
                    if !(1..=MAX_PREFETCH_DEGREE).contains(&(*d as usize)) {
                        return Err(DcfbError::Config(format!(
                            "next-line degree must be 1..={MAX_PREFETCH_DEGREE} (got {d})"
                        )));
                    }
                    Ok(())
                }
                PrefetcherKind::Sn4l { seq_entries } => pow2("SeqTable entries", *seq_entries),
                PrefetcherKind::Dis { dis_entries, .. } => pow2("DisTable entries", *dis_entries),
                PrefetcherKind::Sn4lDis(c) => {
                    pow2("SeqTable entries", c.seq_entries)?;
                    pow2("DisTable entries", c.dis_entries)?;
                    nonzero("RLU entries", c.rlu_entries as u64)?;
                    // `max_depth` 0 is valid: first-level prefetches only,
                    // no chaining (the ablation's "chain depth 0" row).
                    nonzero("queue_capacity", c.queue_capacity as u64)
                }
                PrefetcherKind::Confluence(c) => {
                    nonzero("SHIFT history entries", c.history_entries as u64)?;
                    if !(1..=MAX_PREFETCH_DEGREE).contains(&c.degree) {
                        return Err(DcfbError::Config(format!(
                            "Confluence degree must be 1..={MAX_PREFETCH_DEGREE} (got {})",
                            c.degree
                        )));
                    }
                    nonzero("Confluence lookahead", c.lookahead as u64)
                }
                PrefetcherKind::Boomerang { btb_entries } => pow2("BB-BTB entries", *btb_entries),
                PrefetcherKind::Shotgun(sc) => {
                    // The split BTB indexes by modulo, so sets need not be
                    // powers of two — only nonzero and way-divisible.
                    nonzero("shotgun ways", sc.ways as u64)?;
                    for (what, entries) in [
                        ("U-BTB", sc.u_entries),
                        ("C-BTB", sc.c_entries),
                        ("RIB", sc.r_entries),
                    ] {
                        if entries == 0 || entries % sc.ways != 0 {
                            return Err(DcfbError::Config(format!(
                                "{what} entries ({entries}) must be a nonzero multiple of ways ({})",
                                sc.ways
                            )));
                        }
                    }
                    Ok(())
                }
                PrefetcherKind::Composed { label, parts } => {
                    if parts.is_empty() {
                        return Err(DcfbError::Config(format!(
                            "composition {label} has no parts"
                        )));
                    }
                    for part in parts {
                        if matches!(part, PrefetcherKind::Composed { .. }) {
                            return Err(DcfbError::Config(format!(
                                "composition {label} nests another composition"
                            )));
                        }
                        if part.is_btb_directed() {
                            return Err(DcfbError::Config(format!(
                                "composition {label} includes BTB-directed engine {}",
                                part.name()
                            )));
                        }
                        check_prefetcher(part)?;
                    }
                    Ok(())
                }
            }
        }

        pow2("l1i sets", self.l1i.sets)?;
        nonzero("l1i ways", self.l1i.ways as u64)?;
        set_assoc("btb", self.btb.entries, self.btb.ways)?;
        nonzero("warmup_instrs", self.warmup_instrs)?;
        nonzero("measure_instrs", self.measure_instrs)?;
        check_prefetcher(&self.prefetcher)
    }
}

/// Largest sequential prefetch degree the frontend models sensibly
/// (beyond this, a degree sweep stops resembling the paper's Fig. 4).
pub const MAX_PREFETCH_DEGREE: usize = 64;

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_iii() {
        let c = SimConfig::default();
        assert_eq!(FETCH_WIDTH, 3);
        assert_eq!(c.l1i.size_kib(), 32);
        assert_eq!(MSHRS, 32);
        assert_eq!(c.btb.entries, 2048);
        assert_eq!(FTQ_ENTRIES, 32);
        const { assert!(BTB_MISS_PENALTY >= 6) };
        assert_eq!(MISPREDICT_PENALTY, 9);
    }

    #[test]
    fn method_names_resolve() {
        for m in [
            "Baseline",
            "NL",
            "N2L",
            "N4L",
            "N8L",
            "SN4L",
            "Dis",
            "SN4L+Dis",
            "SN4L+Dis+BTB",
            "Discontinuity",
            "Confluence",
            "Boomerang",
            "Shotgun",
        ] {
            let cfg = SimConfig::for_method(m).unwrap_or_else(|| panic!("{m} missing"));
            assert_eq!(cfg.prefetcher.name(), m, "name mismatch for {m}");
        }
        assert!(SimConfig::for_method("bogus").is_none());
    }

    #[test]
    fn every_registry_method_round_trips_and_validates() {
        // The satellite invariant: registry name -> config -> display
        // label -> same name, and every row is runnable.
        for m in dcfb_prefetch::method_names() {
            let cfg = SimConfig::for_method(m).unwrap_or_else(|| panic!("{m} missing"));
            assert_eq!(cfg.prefetcher.name(), m, "round trip broke for {m}");
            cfg.validate().unwrap_or_else(|e| panic!("{m}: {e}"));
        }
    }

    #[test]
    fn confluence_gets_the_16k_btb() {
        let cfg = SimConfig::for_method("Confluence").unwrap();
        assert_eq!(cfg.btb.entries, 16 * 1024);
    }

    #[test]
    fn validate_rejects_bad_table_sizes() {
        let mut cfg = SimConfig::default();
        cfg.l1i.sets = 65; // not a power of two
        assert!(matches!(cfg.validate(), Err(DcfbError::Config(_))));

        let mut cfg = SimConfig::default();
        cfg.btb.entries = 2047; // sets not a power of two
        assert!(cfg.validate().is_err());

        let mut cfg = SimConfig::default();
        cfg.prefetcher = PrefetcherKind::Sn4l { seq_entries: 3000 };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_zero_windows() {
        let mut cfg = SimConfig::default();
        cfg.warmup_instrs = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = SimConfig::default();
        cfg.measure_instrs = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_bounds_prefetch_degree() {
        let mut cfg = SimConfig::default();
        cfg.prefetcher = PrefetcherKind::NextLine(0);
        assert!(cfg.validate().is_err());
        cfg.prefetcher = PrefetcherKind::NextLine(MAX_PREFETCH_DEGREE as u32 + 1);
        assert!(cfg.validate().is_err());
        cfg.prefetcher = PrefetcherKind::NextLine(MAX_PREFETCH_DEGREE as u32);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validate_checks_composition_parts() {
        let mut cfg = SimConfig::default();
        cfg.prefetcher = PrefetcherKind::Composed {
            label: "bad",
            parts: vec![PrefetcherKind::NextLine(0)],
        };
        assert!(cfg.validate().is_err(), "part checks must recurse");

        cfg.prefetcher = PrefetcherKind::Composed {
            label: "bad",
            parts: vec![],
        };
        assert!(cfg.validate().is_err(), "empty composition");

        cfg.prefetcher = PrefetcherKind::Composed {
            label: "bad",
            parts: vec![PrefetcherKind::Boomerang { btb_entries: 2048 }],
        };
        assert!(cfg.validate().is_err(), "directed engines cannot compose");

        cfg.prefetcher = PrefetcherKind::Composed {
            label: "ok",
            parts: vec![PrefetcherKind::NextLine(2), PrefetcherKind::Discontinuity],
        };
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validate_accepts_chain_depth_zero() {
        let cfg = SimConfig {
            prefetcher: PrefetcherKind::Sn4lDis(dcfb_prefetch::Sn4lDisConfig {
                max_depth: 0,
                ..Default::default()
            }),
            ..SimConfig::default()
        };
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validate_diagnostics_name_the_field() {
        let mut cfg = SimConfig::default();
        cfg.warmup_instrs = 0;
        let msg = cfg.validate().unwrap_err().to_string();
        assert!(msg.contains("warmup_instrs"), "{msg}");
        assert!(!msg.contains('\n'), "one-line diagnostic expected: {msg}");
    }

    #[test]
    fn btb_directed_classification() {
        assert!(SimConfig::for_method("Shotgun")
            .unwrap()
            .prefetcher
            .is_btb_directed());
        assert!(SimConfig::for_method("Boomerang")
            .unwrap()
            .prefetcher
            .is_btb_directed());
        assert!(!SimConfig::for_method("SN4L+Dis+BTB")
            .unwrap()
            .prefetcher
            .is_btb_directed());
    }
}
