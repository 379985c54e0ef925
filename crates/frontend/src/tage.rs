//! A TAGE conditional-branch direction predictor (Table III cites
//! Seznec & Michaud's TAGE [25]).
//!
//! This is a faithful small-scale TAGE: a bimodal base predictor plus
//! `N` partially-tagged components indexed with geometrically growing
//! global-history lengths, provider/alternate selection, usefulness
//! counters with periodic aging, and allocation on mispredictions.

use dcfb_trace::Addr;

/// TAGE geometry.
#[derive(Clone, Debug, PartialEq)]
pub struct TageConfig {
    /// Log2 of bimodal table entries.
    pub bimodal_bits: u32,
    /// Log2 of each tagged table's entries.
    pub tagged_bits: u32,
    /// Tag width in bits.
    pub tag_bits: u32,
    /// History length per tagged component (ascending).
    pub history_lengths: Vec<u32>,
    /// Aging period: every `age_period` allocations, usefulness
    /// counters are halved.
    pub age_period: u64,
}

impl Default for TageConfig {
    fn default() -> Self {
        TageConfig {
            bimodal_bits: 12,
            tagged_bits: 10,
            tag_bits: 9,
            history_lengths: vec![5, 15, 44, 130],
            age_period: 256 * 1024,
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct TageEntry {
    tag: u16,
    ctr: i8, // 3-bit signed counter, -4..=3
    useful: u8,
}

/// Folded history register: compresses an arbitrary-length global
/// history into `out_bits` via circular XOR folding, updated
/// incrementally.
#[derive(Clone, Debug)]
struct Folded {
    value: u32,
    out_bits: u32,
    hist_len: u32,
}

impl Folded {
    fn new(hist_len: u32, out_bits: u32) -> Self {
        Folded {
            value: 0,
            out_bits,
            hist_len,
        }
    }

    fn update(&mut self, new_bit: bool, dropped_bit: bool) {
        // Shift in the new bit at position 0.
        self.value = (self.value << 1) | u32::from(new_bit);
        // XOR out the bit leaving the history window.
        self.value ^= u32::from(dropped_bit) << (self.hist_len % self.out_bits);
        // Re-fold the carry-out.
        let carry = (self.value >> self.out_bits) & 1;
        self.value ^= carry;
        self.value &= (1 << self.out_bits) - 1;
    }
}

/// The TAGE predictor.
///
/// # Examples
///
/// ```
/// use dcfb_frontend::Tage;
///
/// let mut tage = Tage::default_sized();
/// for _ in 0..64 {
///     tage.update(0x4000, true); // strongly biased taken
/// }
/// assert!(tage.predict(0x4000));
/// assert!(tage.accuracy() > 0.9);
/// ```
#[derive(Clone, Debug)]
pub struct Tage {
    cfg: TageConfig,
    bimodal: Vec<i8>,
    tables: Vec<Vec<TageEntry>>,
    idx_fold: Vec<Folded>,
    tag_fold_a: Vec<Folded>,
    tag_fold_b: Vec<Folded>,
    ghr: Vec<bool>, // most recent at the back
    allocs: u64,
    predictions: u64,
    correct: u64,
}

/// Internal per-prediction bookkeeping returned to the updater.
#[derive(Clone, Copy, Debug)]
struct Lookup {
    provider: Option<usize>,
    provider_idx: usize,
    provider_pred: bool,
    alt_pred: bool,
}

impl Tage {
    /// Creates a TAGE predictor with the given configuration.
    pub fn new(cfg: TageConfig) -> Self {
        let n = cfg.history_lengths.len();
        let tagged = 1usize << cfg.tagged_bits;
        let max_hist = *cfg.history_lengths.last().unwrap_or(&1) as usize;
        Tage {
            bimodal: vec![0; 1 << cfg.bimodal_bits],
            tables: vec![vec![TageEntry::default(); tagged]; n],
            idx_fold: cfg
                .history_lengths
                .iter()
                .map(|&h| Folded::new(h, cfg.tagged_bits))
                .collect(),
            tag_fold_a: cfg
                .history_lengths
                .iter()
                .map(|&h| Folded::new(h, cfg.tag_bits))
                .collect(),
            tag_fold_b: cfg
                .history_lengths
                .iter()
                .map(|&h| Folded::new(h, cfg.tag_bits.saturating_sub(1).max(1)))
                .collect(),
            ghr: vec![false; max_hist + 1],
            cfg,
            allocs: 0,
            predictions: 0,
            correct: 0,
        }
    }

    /// Creates the default-sized predictor.
    pub fn default_sized() -> Self {
        Tage::new(TageConfig::default())
    }

    /// `(predictions, correct)` counters.
    pub fn accuracy_counters(&self) -> (u64, u64) {
        (self.predictions, self.correct)
    }

    /// Resets the accuracy counters, keeping the tables and history.
    pub fn reset_stats(&mut self) {
        self.predictions = 0;
        self.correct = 0;
    }

    /// Prediction accuracy so far, in `[0, 1]`.
    pub fn accuracy(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.correct as f64 / self.predictions as f64
        }
    }

    fn bimodal_index(&self, pc: Addr) -> usize {
        ((pc >> 2) as usize) & ((1 << self.cfg.bimodal_bits) - 1)
    }

    fn table_index(&self, pc: Addr, t: usize) -> usize {
        let mask = (1usize << self.cfg.tagged_bits) - 1;
        let pc_bits = (pc >> 2) as u32;
        ((pc_bits ^ (pc_bits >> self.cfg.tagged_bits) ^ self.idx_fold[t].value) as usize) & mask
    }

    fn table_tag(&self, pc: Addr, t: usize) -> u16 {
        let mask = (1u32 << self.cfg.tag_bits) - 1;
        let pc_bits = (pc >> 2) as u32;
        ((pc_bits ^ self.tag_fold_a[t].value ^ (self.tag_fold_b[t].value << 1)) & mask) as u16
    }

    fn lookup(&self, pc: Addr) -> Lookup {
        let mut provider = None;
        let mut provider_idx = 0;
        let mut provider_pred = false;
        let mut alt_pred = self.bimodal[self.bimodal_index(pc)] >= 0;
        // Scan from the longest history down; first match is provider,
        // second is alternate.
        for t in (0..self.tables.len()).rev() {
            let idx = self.table_index(pc, t);
            let e = &self.tables[t][idx];
            if e.tag == self.table_tag(pc, t) && e.useful != u8::MAX {
                if provider.is_none() {
                    provider = Some(t);
                    provider_idx = idx;
                    provider_pred = e.ctr >= 0;
                } else {
                    alt_pred = e.ctr >= 0;
                    break;
                }
            }
        }
        Lookup {
            provider,
            provider_idx,
            provider_pred,
            alt_pred,
        }
    }

    /// Predicts the direction of the conditional branch at `pc`.
    pub fn predict(&self, pc: Addr) -> bool {
        let l = self.lookup(pc);
        match l.provider {
            Some(_) => l.provider_pred,
            None => l.alt_pred,
        }
    }

    /// Updates the predictor with the resolved direction and advances
    /// the global history. Call once per retired conditional branch.
    ///
    /// Returns the prediction the predictor held before the update —
    /// exactly what [`Tage::predict`] would have returned — so a caller
    /// that scores accuracy walks the tables once instead of twice.
    pub fn update(&mut self, pc: Addr, taken: bool) -> bool {
        let l = self.lookup(pc);
        let pred = match l.provider {
            Some(_) => l.provider_pred,
            None => l.alt_pred,
        };
        self.predictions += 1;
        if pred == taken {
            self.correct += 1;
        }

        match l.provider {
            Some(t) => {
                let e = &mut self.tables[t][l.provider_idx];
                e.ctr = (e.ctr + if taken { 1 } else { -1 }).clamp(-4, 3);
                if l.provider_pred != l.alt_pred {
                    if l.provider_pred == taken {
                        e.useful = e.useful.saturating_add(1).min(3);
                    } else {
                        e.useful = e.useful.saturating_sub(1);
                    }
                }
                // Allocate on misprediction in a longer table.
                if pred != taken && t + 1 < self.tables.len() {
                    self.allocate(pc, taken, t + 1);
                }
            }
            None => {
                let idx = self.bimodal_index(pc);
                let c = &mut self.bimodal[idx];
                *c = (*c + if taken { 1 } else { -1 }).clamp(-2, 1);
                if pred != taken && !self.tables.is_empty() {
                    self.allocate(pc, taken, 0);
                }
            }
        }
        self.push_history(taken);
        pred
    }

    fn allocate(&mut self, pc: Addr, taken: bool, from: usize) {
        self.allocs += 1;
        if self.allocs % self.cfg.age_period == 0 {
            for table in &mut self.tables {
                for e in table.iter_mut() {
                    e.useful >>= 1;
                }
            }
        }
        // Find a not-useful entry in tables [from..], preferring shorter
        // histories.
        for t in from..self.tables.len() {
            let idx = self.table_index(pc, t);
            let tag = self.table_tag(pc, t);
            let e = &mut self.tables[t][idx];
            if e.useful == 0 {
                e.tag = tag;
                e.ctr = if taken { 0 } else { -1 };
                e.useful = 0;
                return;
            }
        }
        // All candidates useful: decay them so a future allocation
        // succeeds.
        for t in from..self.tables.len() {
            let idx = self.table_index(pc, t);
            self.tables[t][idx].useful -= 1;
        }
    }

    fn push_history(&mut self, taken: bool) {
        // ghr: index 0 = oldest within window, back = newest.
        self.ghr.rotate_left(1);
        let len = self.ghr.len();
        self.ghr[len - 1] = taken;
        for t in 0..self.idx_fold.len() {
            let h = self.cfg.history_lengths[t] as usize;
            let dropped = self.ghr[len - 1 - h];
            self.idx_fold[t].update(taken, dropped);
            self.tag_fold_a[t].update(taken, dropped);
            self.tag_fold_b[t].update(taken, dropped);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    /// A deliberately tiny geometry: 4-bit partial tags make aliasing
    /// easy to construct deterministically.
    fn tiny_cfg() -> TageConfig {
        TageConfig {
            bimodal_bits: 12,
            tagged_bits: 4,
            tag_bits: 4,
            history_lengths: vec![5],
            age_period: 1 << 30,
        }
    }

    #[test]
    fn partial_tags_alias_distant_pcs() {
        let mut t = Tage::new(tiny_cfg());
        // pc_bits 0x011 and 0x211 agree in the low 4 tag bits and fold
        // to the same table index, yet are distinct branches. With an
        // all-false history the folded registers stay zero, so both
        // stay colliding throughout the test.
        let (pc_a, pc_b) = (0x011u64 << 2, 0x211u64 << 2);
        assert_ne!(pc_a, pc_b);
        assert_eq!(t.table_tag(pc_a, 0), t.table_tag(pc_b, 0));
        assert_eq!(t.table_index(pc_a, 0), t.table_index(pc_b, 0));
        // Train A not-taken: the first misprediction allocates a tagged
        // entry under the shared partial tag.
        for _ in 0..8 {
            t.update(pc_a, false);
        }
        assert!(!t.predict(pc_a));
        // B has never been seen, but the 4-bit tag cannot tell it from
        // A: the aliased provider overrides B's (taken) bimodal default.
        assert!(!t.predict(pc_b), "partial-tag alias must capture pc_b");
        // A pc with a different tag nibble is unaffected.
        let pc_c = 0x012u64 << 2;
        assert_ne!(t.table_tag(pc_a, 0), t.table_tag(pc_c, 0));
        assert!(t.predict(pc_c));
    }

    #[test]
    fn allocation_prefers_not_useful_entries() {
        let mut t = Tage::new(tiny_cfg());
        let pc = 0x011u64 << 2;
        let idx = t.table_index(pc, 0);
        let tag = t.table_tag(pc, 0);
        // The only candidate slot is held by a maximally useful entry
        // belonging to some other branch.
        t.tables[0][idx] = TageEntry {
            tag: 0xf,
            ctr: 3,
            useful: 3,
        };
        t.update(pc, false); // mispredict: no victim available
        assert_eq!(t.tables[0][idx].tag, 0xf, "useful entry survives");
        assert_eq!(t.tables[0][idx].useful, 2, "and is decayed instead");
        // Once the usefulness drains, the next mispredict claims it.
        t.tables[0][idx].useful = 0;
        t.update(pc, true); // bimodal now says not-taken: mispredict
        assert_eq!(t.tables[0][idx].tag, tag);
        assert_eq!(t.tables[0][idx].ctr, 0, "fresh entry starts weak");
    }

    #[test]
    fn useful_counters_age_with_allocations() {
        let mut t = Tage::new(TageConfig {
            age_period: 2,
            ..tiny_cfg()
        });
        t.tables[0][7].useful = 3; // an unrelated mature entry
        t.update(0x011u64 << 2, false); // allocation #1: no aging yet
        assert_eq!(t.tables[0][7].useful, 3);
        t.update(0x012u64 << 2, false); // allocation #2 crosses period
        assert_eq!(t.tables[0][7].useful, 1, "aging halves usefulness");
    }

    #[test]
    fn learns_a_biased_branch() {
        let mut t = Tage::default_sized();
        for _ in 0..200 {
            t.update(0x1000, true);
        }
        assert!(t.predict(0x1000));
        assert!(t.accuracy() > 0.9);
    }

    #[test]
    fn learns_alternating_pattern_via_history() {
        let mut t = Tage::default_sized();
        // Strict alternation: bimodal alone cannot learn this; tagged
        // history components must.
        let mut correct_tail = 0;
        for i in 0..4000u32 {
            let taken = i % 2 == 0;
            if i >= 3000 && t.predict(0x2000) == taken {
                correct_tail += 1;
            }
            t.update(0x2000, taken);
        }
        assert!(
            correct_tail > 900,
            "alternation accuracy {correct_tail}/1000"
        );
    }

    #[test]
    fn learns_period_four_pattern() {
        let mut t = Tage::default_sized();
        let pattern = [true, true, false, true];
        let mut correct_tail = 0;
        for i in 0..8000usize {
            let taken = pattern[i % 4];
            if i >= 7000 && t.predict(0x3000) == taken {
                correct_tail += 1;
            }
            t.update(0x3000, taken);
        }
        assert!(correct_tail > 900, "period-4 accuracy {correct_tail}/1000");
    }

    #[test]
    fn distinguishes_many_branches() {
        let mut t = Tage::default_sized();
        // 64 branches with fixed alternating biases.
        for round in 0..100 {
            for b in 0..64u64 {
                let taken = b % 2 == 0;
                let _ = round;
                t.update(0x4000 + b * 4, taken);
            }
        }
        // Tagged-table aliasing can cost a couple of branches; a real
        // TAGE tolerates the same. Require near-perfect separation.
        let correct = (0..64u64)
            .filter(|&b| t.predict(0x4000 + b * 4) == (b % 2 == 0))
            .count();
        assert!(correct >= 58, "only {correct}/64 branches separated");
    }

    #[test]
    fn random_noise_accuracy_is_mediocre() {
        // A deterministic "pseudo-random" direction stream: accuracy must
        // stay well below the biased case (sanity check against
        // over-fitting bugs like always-predict-taken).
        let mut t = Tage::default_sized();
        let mut x = 0x12345678u64;
        let mut correct = 0;
        let n = 20_000;
        for _ in 0..n {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let taken = (x >> 62) & 1 == 1;
            if t.predict(0x5000) == taken {
                correct += 1;
            }
            t.update(0x5000, taken);
        }
        let acc = correct as f64 / n as f64;
        assert!(acc < 0.65, "noise accuracy suspiciously high: {acc}");
    }

    #[test]
    fn accuracy_counters_track() {
        let mut t = Tage::default_sized();
        assert_eq!(t.accuracy(), 0.0);
        t.update(0x100, true);
        let (preds, _) = t.accuracy_counters();
        assert_eq!(preds, 1);
    }

    /// `update`'s returned prediction must equal a prior `predict` on
    /// every branch of a seeded sequence (many pcs, biased and noisy
    /// directions, enough allocations to age the useful bits), and the
    /// accuracy counters of a predictor driven only through `update`
    /// must equal the externally scored ones.
    #[test]
    fn update_returns_the_prior_prediction() {
        let mut split = Tage::default_sized();
        let mut fused = Tage::default_sized();
        let (mut preds, mut correct) = (0u64, 0u64);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..50_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pc = 0x4000 + ((x >> 33) % 97) * 4;
            let taken = (x >> 20) % 100 < 30 + (pc % 50);
            let prior = split.predict(pc);
            split.update(pc, taken);
            let returned = fused.update(pc, taken);
            assert_eq!(returned, prior, "pc {pc:#x}");
            preds += 1;
            correct += u64::from(returned == taken);
        }
        assert_eq!(fused.accuracy_counters(), (preds, correct));
        assert_eq!(fused.accuracy_counters(), split.accuracy_counters());
        assert!(correct > preds / 2 && correct < preds);
        // A stats reset zeroes the counters but keeps what was learned.
        fused.reset_stats();
        assert_eq!(fused.accuracy_counters(), (0, 0));
        assert_eq!(fused.predict(0x4000), split.predict(0x4000));
    }

    #[test]
    fn biased_branches_converge_quickly() {
        let mut t = Tage::default_sized();
        // 95/5 bias, like the workload generator's cold-path skips.
        let mut correct = 0;
        let mut total = 0;
        let mut x = 7u64;
        for i in 0..10_000u32 {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            let taken = (x % 100) < 95;
            if i > 1000 {
                total += 1;
                if t.predict(0x6000) == taken {
                    correct += 1;
                }
            }
            t.update(0x6000, taken);
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.85, "biased accuracy {acc}");
    }
}
