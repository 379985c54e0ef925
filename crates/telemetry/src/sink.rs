//! [`StallKind`]: the fetch-stall causes the recorder tracks and
//! names in trace events.

/// Why the fetch engine stalled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StallKind {
    /// Waiting on an L1i miss.
    L1i,
    /// Waiting on BTB fill / misfetch recovery.
    Btb,
    /// Pipeline redirect (branch misprediction) penalty.
    Redirect,
}

impl StallKind {
    /// Display name used in trace events.
    pub fn name(self) -> &'static str {
        match self {
            StallKind::L1i => "l1i_stall",
            StallKind::Btb => "btb_stall",
            StallKind::Redirect => "redirect_stall",
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn stall_kind_names_are_distinct() {
        let names = [
            StallKind::L1i.name(),
            StallKind::Btb.name(),
            StallKind::Redirect.name(),
        ];
        let mut dedup = names.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}
