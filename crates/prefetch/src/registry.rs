//! The method registry: one row per evaluated method.
//!
//! Every way the harness names a prefetching method — the CLI's
//! `--method` flag, `SimConfig::for_method`, the bench sweep's method
//! lists, the conformance digest-parity check — resolves through this
//! single table. A row carries the paper-facing name, a builder for the
//! [`PrefetcherKind`] configuration, and an optional BTB override
//! (Confluence pairs SHIFT with a 16 K-entry BTB).
//!
//! Adding a method — including a *composition* of existing conventional
//! prefetchers, via [`PrefetcherKind::Composed`] — is one new row here;
//! the CLI, sweep, and conformance suites pick it up automatically.

use crate::composite::{Composite, Prefetcher};
use crate::shotgun::ShotgunStats;
use crate::{
    Boomerang, Confluence, ConfluenceConfig, Dis, DisTable, DiscontinuityPrefetcher, NextLine,
    RunaheadContext, SeqTable, Shotgun, Sn4l, Sn4lDisBtb, Sn4lDisConfig, TagPolicy,
};
use dcfb_frontend::{BtbConfig, Ftq, ShotgunBtbConfig, ShotgunBtbStats};
use dcfb_trace::{Addr, Block, Instr, IsaMode};
use std::borrow::Cow;

/// Which prefetcher drives the frontend.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum PrefetcherKind {
    /// No instruction/BTB prefetcher (the speedup baseline).
    None,
    /// Next-X-line sequential prefetcher.
    NextLine(u32),
    /// SN4L alone (Fig. 17's second bar).
    Sn4l {
        /// SeqTable entries (16 K in the paper; swept in Fig. 11).
        seq_entries: usize,
    },
    /// The standalone Dis prefetcher (Fig. 13).
    Dis {
        /// DisTable entries.
        dis_entries: usize,
        /// DisTable tagging policy.
        tag: TagPolicy,
    },
    /// The combined proactive engine; `btb` selects SN4L+Dis vs
    /// SN4L+Dis+BTB.
    Sn4lDis(Sn4lDisConfig),
    /// The conventional discontinuity prefetcher baseline.
    Discontinuity,
    /// Confluence = SHIFT + a 16 K-entry BTB (set `btb` accordingly!).
    Confluence(ConfluenceConfig),
    /// Boomerang (BTB-directed driver).
    Boomerang {
        /// BB-BTB entries.
        btb_entries: usize,
    },
    /// Shotgun (BTB-directed driver with the split BTB).
    Shotgun(ShotgunBtbConfig),
    /// A named composition of conventional (L1i-event-driven)
    /// prefetchers: every part observes the same demand/fill/evict
    /// stream and issues into the same memory hierarchy. BTB-directed
    /// engines cannot be composed this way.
    Composed {
        /// Display label (one registry row per composition).
        label: &'static str,
        /// The composed parts, in hook order.
        parts: Vec<PrefetcherKind>,
    },
}

impl PrefetcherKind {
    /// Display name matching the paper's figures.
    ///
    /// Borrowed for every fixed-name method (the sweep hot path calls
    /// this per run); only degree-parameterized next-line variants
    /// beyond `NL` allocate.
    pub fn name(&self) -> Cow<'static, str> {
        match self {
            PrefetcherKind::None => Cow::Borrowed("Baseline"),
            PrefetcherKind::NextLine(1) => Cow::Borrowed("NL"),
            PrefetcherKind::NextLine(2) => Cow::Borrowed("N2L"),
            PrefetcherKind::NextLine(4) => Cow::Borrowed("N4L"),
            PrefetcherKind::NextLine(8) => Cow::Borrowed("N8L"),
            PrefetcherKind::NextLine(d) => Cow::Owned(format!("N{d}L")),
            PrefetcherKind::Sn4l { .. } => Cow::Borrowed("SN4L"),
            PrefetcherKind::Dis { .. } => Cow::Borrowed("Dis"),
            PrefetcherKind::Sn4lDis(c) if c.btb_prefetch => Cow::Borrowed("SN4L+Dis+BTB"),
            PrefetcherKind::Sn4lDis(_) => Cow::Borrowed("SN4L+Dis"),
            PrefetcherKind::Discontinuity => Cow::Borrowed("Discontinuity"),
            PrefetcherKind::Confluence(_) => Cow::Borrowed("Confluence"),
            PrefetcherKind::Boomerang { .. } => Cow::Borrowed("Boomerang"),
            PrefetcherKind::Shotgun(_) => Cow::Borrowed("Shotgun"),
            PrefetcherKind::Composed { label, .. } => Cow::Borrowed(label),
        }
    }

    /// Whether this prefetcher drives the FTQ (BTB-directed frontend).
    pub fn is_btb_directed(&self) -> bool {
        matches!(
            self,
            PrefetcherKind::Boomerang { .. } | PrefetcherKind::Shotgun(_)
        )
    }

    /// Builds the frontend driver plan this kind configures: either a
    /// conventional decoupled frontend with an optional [`Prefetcher`],
    /// or a BTB-directed [`DiscoveryEngine`].
    ///
    /// `isa` selects the DisTable offset width (§V-D); `start_pc` seeds
    /// the BTB-directed discovery engines.
    pub fn build(&self, isa: IsaMode, start_pc: Addr) -> DriverPlan {
        match self {
            PrefetcherKind::None => DriverPlan::Decoupled(None),
            PrefetcherKind::Boomerang { btb_entries } => DriverPlan::Directed(
                DiscoveryEngine::Boomerang(Boomerang::new(*btb_entries, start_pc)),
            ),
            PrefetcherKind::Shotgun(sc) => {
                DriverPlan::Directed(DiscoveryEngine::Shotgun(Shotgun::new(*sc, start_pc)))
            }
            conventional => DriverPlan::Decoupled(conventional.build_prefetcher(isa)),
        }
    }

    /// The conventional prefetcher this kind configures; `None` for
    /// the baseline and the BTB-directed kinds.
    fn build_prefetcher(&self, isa: IsaMode) -> Option<Prefetcher> {
        Some(match self {
            PrefetcherKind::None
            | PrefetcherKind::Boomerang { .. }
            | PrefetcherKind::Shotgun(_) => return None,
            PrefetcherKind::NextLine(d) => Prefetcher::NextLine(NextLine::new(*d)),
            PrefetcherKind::Sn4l { seq_entries } => {
                Prefetcher::Sn4l(Sn4l::with_table(SeqTable::new(*seq_entries)))
            }
            PrefetcherKind::Dis { dis_entries, tag } => Prefetcher::Dis(Dis::with_table(
                DisTable::new(*dis_entries, *tag, isa.dis_offset_bits()),
            )),
            PrefetcherKind::Sn4lDis(c) => Prefetcher::Sn4lDisBtb(Sn4lDisBtb::new(c.clone(), isa)),
            PrefetcherKind::Discontinuity => {
                Prefetcher::Discontinuity(DiscontinuityPrefetcher::paper_baseline())
            }
            PrefetcherKind::Confluence(c) => Prefetcher::Confluence(Confluence::new(*c)),
            PrefetcherKind::Composed { label, parts } => {
                // BTB-directed parts cannot ride a decoupled frontend;
                // `SimConfig::validate` rejects them before a run, and
                // the builder simply skips them for defense in depth.
                let built = parts
                    .iter()
                    .filter_map(|p| p.build_prefetcher(isa))
                    .collect();
                Prefetcher::Composite(Composite::new(label, built))
            }
        })
    }
}

/// What a [`PrefetcherKind`] builds: the two frontend driver shapes the
/// simulator knows how to run.
#[allow(clippy::large_enum_variant)] // built once per run, then moved into the driver
pub enum DriverPlan {
    /// Conventional decoupled frontend; prefetchers (if any) observe
    /// L1i events through [`InstrPrefetcher`](crate::InstrPrefetcher).
    Decoupled(Option<Prefetcher>),
    /// BTB-directed frontend: the engine runs ahead of fetch, filling
    /// the FTQ.
    Directed(DiscoveryEngine),
}

/// A BTB-directed discovery engine (Boomerang or Shotgun): runs ahead
/// of fetch filling the FTQ, and is steered by redirects when fetch
/// catches it on the wrong path. An enum, so the directed driver calls
/// each engine directly and the engines are compiled against the
/// driver's context type.
#[allow(clippy::large_enum_variant)] // one per directed driver, built once per run
pub enum DiscoveryEngine {
    /// Boomerang over its basic-block BTB.
    Boomerang(Boomerang),
    /// Shotgun over the split U-BTB/C-BTB/RIB.
    Shotgun(Shotgun),
}

impl DiscoveryEngine {
    /// One discovery cycle: follow the BTB/predictors ahead of fetch,
    /// pushing regions into `ftq` and issuing prefetches through `ctx`.
    #[inline]
    pub fn advance<C: RunaheadContext + ?Sized>(&mut self, ctx: &mut C, ftq: &mut Ftq) {
        match self {
            DiscoveryEngine::Boomerang(e) => e.advance(ctx, ftq),
            DiscoveryEngine::Shotgun(e) => e.advance(ctx, ftq),
        }
    }

    /// Whether [`advance`](Self::advance) would change nothing until
    /// the L1i fills again: the engine is parked, waits for a block
    /// that is not present, or faces a full FTQ with no reactive fill
    /// pending.
    #[inline]
    pub fn is_quiescent<C: RunaheadContext + ?Sized>(&self, ctx: &C, ftq: &Ftq) -> bool {
        match self {
            DiscoveryEngine::Boomerang(e) => e.is_quiescent(ctx, ftq),
            DiscoveryEngine::Shotgun(e) => e.is_quiescent(ctx, ftq),
        }
    }

    /// Squash: restart discovery at `pc`, clearing `ftq`.
    pub fn redirect(&mut self, pc: Addr, ftq: &mut Ftq) {
        match self {
            DiscoveryEngine::Boomerang(e) => e.redirect(pc, ftq),
            DiscoveryEngine::Shotgun(e) => e.redirect(pc, ftq),
        }
    }

    /// Observes a retired instruction (retire-side BTB learning).
    #[inline]
    pub fn on_retire(&mut self, i: &Instr) {
        match self {
            DiscoveryEngine::Boomerang(e) => e.on_retire(i),
            DiscoveryEngine::Shotgun(e) => e.on_retire(i),
        }
    }

    /// Whether discovery is parked on an unresolvable branch (e.g. an
    /// unknown indirect target) and cannot make progress alone.
    pub fn is_parked(&self) -> bool {
        match self {
            DiscoveryEngine::Boomerang(e) => e.is_parked(),
            DiscoveryEngine::Shotgun(e) => e.is_parked(),
        }
    }

    /// The block whose arrival discovery is stalled on, if any.
    pub fn stalled_block(&self) -> Option<Block> {
        match self {
            DiscoveryEngine::Boomerang(e) => e.stalled_block(),
            DiscoveryEngine::Shotgun(e) => e.stalled_block(),
        }
    }

    /// Total metadata storage in bits (Table II accounting).
    pub fn storage_bits(&self) -> u64 {
        match self {
            DiscoveryEngine::Boomerang(e) => e.storage_bits(),
            DiscoveryEngine::Shotgun(e) => e.storage_bits(),
        }
    }

    /// Shotgun's split-BTB and engine statistics; `None` for Boomerang.
    pub fn shotgun_split_stats(&self) -> Option<(ShotgunBtbStats, ShotgunStats)> {
        match self {
            DiscoveryEngine::Boomerang(_) => None,
            DiscoveryEngine::Shotgun(e) => Some((e.btb_stats(), e.stats())),
        }
    }

    /// Resets split-BTB statistics at the start of the measurement
    /// window (Boomerang has none).
    pub fn reset_btb_stats(&mut self) {
        if let DiscoveryEngine::Shotgun(e) = self {
            e.reset_btb_stats();
        }
    }
}

/// One registry row: a named method and how to configure it.
pub struct MethodRow {
    /// The paper-facing method name (`"SN4L+Dis+BTB"`, `"Shotgun"`, …).
    pub name: &'static str,
    kind: fn() -> PrefetcherKind,
    btb: Option<fn() -> BtbConfig>,
}

impl MethodRow {
    /// Builds this row's prefetcher configuration.
    pub fn kind(&self) -> PrefetcherKind {
        (self.kind)()
    }

    /// The BTB configuration this method requires, when it deviates
    /// from the Table III baseline (Confluence's 16 K-entry BTB).
    pub fn btb_override(&self) -> Option<BtbConfig> {
        self.btb.map(|f| f())
    }
}

fn sn4l_paper() -> PrefetcherKind {
    PrefetcherKind::Sn4l {
        seq_entries: 16 * 1024,
    }
}

fn dis_paper() -> PrefetcherKind {
    PrefetcherKind::Dis {
        dis_entries: 4 * 1024,
        tag: TagPolicy::Partial(4),
    }
}

/// The method registry, in canonical presentation order (§VI-D names
/// first, registered compositions after).
pub fn registry() -> &'static [MethodRow] {
    static ROWS: &[MethodRow] = &[
        MethodRow {
            name: "Baseline",
            kind: || PrefetcherKind::None,
            btb: None,
        },
        MethodRow {
            name: "NL",
            kind: || PrefetcherKind::NextLine(1),
            btb: None,
        },
        MethodRow {
            name: "N2L",
            kind: || PrefetcherKind::NextLine(2),
            btb: None,
        },
        MethodRow {
            name: "N4L",
            kind: || PrefetcherKind::NextLine(4),
            btb: None,
        },
        MethodRow {
            name: "N8L",
            kind: || PrefetcherKind::NextLine(8),
            btb: None,
        },
        MethodRow {
            name: "SN4L",
            kind: sn4l_paper,
            btb: None,
        },
        MethodRow {
            name: "Dis",
            kind: dis_paper,
            btb: None,
        },
        MethodRow {
            name: "SN4L+Dis",
            kind: || PrefetcherKind::Sn4lDis(Sn4lDisConfig::without_btb()),
            btb: None,
        },
        MethodRow {
            name: "SN4L+Dis+BTB",
            kind: || PrefetcherKind::Sn4lDis(Sn4lDisConfig::default()),
            btb: None,
        },
        MethodRow {
            name: "Discontinuity",
            kind: || PrefetcherKind::Discontinuity,
            btb: None,
        },
        MethodRow {
            name: "Confluence",
            kind: || PrefetcherKind::Confluence(ConfluenceConfig::default()),
            btb: Some(BtbConfig::confluence_16k),
        },
        MethodRow {
            name: "Boomerang",
            kind: || PrefetcherKind::Boomerang { btb_entries: 2048 },
            btb: None,
        },
        MethodRow {
            name: "Shotgun",
            kind: || PrefetcherKind::Shotgun(ShotgunBtbConfig::default()),
            btb: None,
        },
        MethodRow {
            name: "N2L+Dis",
            kind: || PrefetcherKind::Composed {
                label: "N2L+Dis",
                parts: vec![PrefetcherKind::NextLine(2), dis_paper()],
            },
            btb: None,
        },
        MethodRow {
            name: "SN4L+Discontinuity",
            kind: || PrefetcherKind::Composed {
                label: "SN4L+Discontinuity",
                parts: vec![sn4l_paper(), PrefetcherKind::Discontinuity],
            },
            btb: None,
        },
    ];
    ROWS
}

/// Looks up a registry row by method name.
pub fn find_method(name: &str) -> Option<&'static MethodRow> {
    registry().iter().find(|r| r.name == name)
}

/// Every registered method name, in registry order.
pub fn method_names() -> impl Iterator<Item = &'static str> {
    registry().iter().map(|r| r.name)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::InstrPrefetcher;

    #[test]
    fn names_are_unique_and_round_trip() {
        let mut seen = std::collections::HashSet::new();
        for row in registry() {
            assert!(seen.insert(row.name), "duplicate registry row {}", row.name);
            // name -> config -> label -> same name, for every row.
            assert_eq!(
                row.kind().name(),
                row.name,
                "label mismatch for {}",
                row.name
            );
        }
    }

    #[test]
    fn fixed_names_do_not_allocate() {
        for row in registry() {
            assert!(
                matches!(row.kind().name(), Cow::Borrowed(_)),
                "{} should have a borrowed label",
                row.name
            );
        }
        // Unregistered degrees still format.
        assert_eq!(PrefetcherKind::NextLine(16).name(), "N16L");
    }

    #[test]
    fn build_shapes_match_direction() {
        for row in registry() {
            let kind = row.kind();
            match kind.build(IsaMode::Fixed4, 0x1000) {
                DriverPlan::Decoupled(_) => assert!(!kind.is_btb_directed(), "{}", row.name),
                DriverPlan::Directed(_) => assert!(kind.is_btb_directed(), "{}", row.name),
            }
        }
    }

    #[test]
    fn compositions_build_every_part() {
        let row = find_method("N2L+Dis").expect("registered");
        let DriverPlan::Decoupled(Some(pf)) = row.kind().build(IsaMode::Fixed4, 0) else {
            panic!("composition must build a conventional prefetcher");
        };
        // Storage is the sum of the parts (N2L itself is stateless).
        let dis_bits = match dis_paper().build(IsaMode::Fixed4, 0) {
            DriverPlan::Decoupled(Some(d)) => d.storage_bits(),
            _ => unreachable!("Dis is decoupled"),
        };
        assert_eq!(pf.storage_bits(), dis_bits);
        assert_eq!(pf.name(), "N2L+Dis");
    }

    #[test]
    fn unknown_method_misses() {
        assert!(find_method("bogus").is_none());
        assert!(method_names().count() >= 15);
    }
}
