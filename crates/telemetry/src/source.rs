//! Prefetch-source tags.
//!
//! Every prefetch issued anywhere in the pipeline carries a
//! [`PfSource`] so downstream classification (MSHR fills, cache and
//! prefetch-buffer evictions, demand hits) can attribute timeliness
//! per prefetcher rather than as one undifferentiated pool.

/// Who issued a memory request.
///
/// `Demand` tags ordinary fetch misses so MSHR entries are uniformly
/// labelled; all other variants are prefetcher components. The
/// composite SN4L+Dis+BTB method issues under three distinct tags
/// (`Sn4l`, `Dis`, `ProactiveChain`) plus `BtbPf` for BTB
/// prefetch-buffer fills, matching the paper's decomposition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum PfSource {
    /// A demand fetch miss (not a prefetch).
    #[default]
    Demand = 0,
    /// Simple next-line / next-4-line prefetchers (NL, N4L).
    NextLine,
    /// Shifted next-4-line (SN4L, §IV-A).
    Sn4l,
    /// Discontinuity prefetcher (Dis, §IV-B).
    Dis,
    /// Proactive RLU chain walks beyond the triggering block (§V-B).
    ProactiveChain,
    /// BTB prefetch: pre-decoded branch sets staged into the BTB
    /// prefetch buffer (§V-C). Lives in a separate block keyspace
    /// from L1i prefetches.
    BtbPf,
    /// Standalone discontinuity baseline (Spracklen-style).
    Discontinuity,
    /// Confluence baseline.
    Confluence,
    /// Boomerang baseline.
    Boomerang,
    /// Shotgun baseline.
    Shotgun,
}

impl PfSource {
    /// Number of variants (array-index space).
    pub const COUNT: usize = 10;

    /// All variants, in index order.
    pub const ALL: [PfSource; PfSource::COUNT] = [
        PfSource::Demand,
        PfSource::NextLine,
        PfSource::Sn4l,
        PfSource::Dis,
        PfSource::ProactiveChain,
        PfSource::BtbPf,
        PfSource::Discontinuity,
        PfSource::Confluence,
        PfSource::Boomerang,
        PfSource::Shotgun,
    ];

    /// Stable machine-readable name (used in the metrics schema).
    pub fn name(self) -> &'static str {
        match self {
            PfSource::Demand => "demand",
            PfSource::NextLine => "next_line",
            PfSource::Sn4l => "sn4l",
            PfSource::Dis => "dis",
            PfSource::ProactiveChain => "proactive_chain",
            PfSource::BtbPf => "btb_pf",
            PfSource::Discontinuity => "discontinuity",
            PfSource::Confluence => "confluence",
            PfSource::Boomerang => "boomerang",
            PfSource::Shotgun => "shotgun",
        }
    }

    /// Inverse of [`PfSource::name`].
    pub fn from_name(name: &str) -> Option<PfSource> {
        PfSource::ALL.iter().copied().find(|s| s.name() == name)
    }

    /// Array index for per-source tables.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Whether this tag denotes a prefetch (everything but `Demand`).
    pub fn is_prefetch(self) -> bool {
        self != PfSource::Demand
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_indices_are_dense() {
        for (i, s) in PfSource::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
            assert_eq!(PfSource::from_name(s.name()), Some(*s));
        }
        assert_eq!(PfSource::from_name("bogus"), None);
    }

    #[test]
    fn only_demand_is_not_a_prefetch() {
        let non_pf: Vec<_> = PfSource::ALL.iter().filter(|s| !s.is_prefetch()).collect();
        assert_eq!(non_pf, vec![&PfSource::Demand]);
    }
}
