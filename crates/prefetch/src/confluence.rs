//! Confluence, modeled as SHIFT temporal streaming plus a 16 K-entry
//! BTB (§VI-D1).
//!
//! SHIFT [21] records the sequence of instruction blocks the core
//! touches into a history buffer (virtualized in the LLC) with an index
//! from block → most recent history position. On a miss, the stream is
//! located in the history and *replayed*: the next several blocks of
//! the recorded sequence are prefetched, and the replay pointer chases
//! the demand stream as long as it keeps matching.
//!
//! The DCFB paper models Confluence's BTB side as a 16 K-entry BTB
//! ("shown to offer an upper bound", §VI-D1) — that part lives in the
//! simulator configuration; this type implements the instruction
//! prefetch engine and its ~200 KB metadata accounting.

use crate::context::{InstrPrefetcher, PrefetchContext, RecentInstrs};
use dcfb_telemetry::PfSource;
use dcfb_trace::Block;
use fxhash::FxHashMap;

/// SHIFT engine configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ConfluenceConfig {
    /// History buffer length in blocks (32 K in SHIFT).
    pub history_entries: usize,
    /// Blocks prefetched when a stream is (re)located.
    pub degree: usize,
    /// How far the replay pointer runs ahead of the demand stream.
    pub lookahead: usize,
}

impl Default for ConfluenceConfig {
    fn default() -> Self {
        ConfluenceConfig {
            history_entries: 32 * 1024,
            degree: 8,
            lookahead: 24,
        }
    }
}

/// The SHIFT-style temporal instruction prefetcher.
pub struct Confluence {
    cfg: ConfluenceConfig,
    history: Vec<Block>,
    head: usize,
    filled: bool,
    /// block → most recent history position; FxHash keyed by the
    /// simulator's own block ids (hot on every record/locate).
    index: FxHashMap<Block, usize>,
    last_recorded: Option<Block>,
    /// Active replay pointer into `history` (next position to prefetch).
    replay: Option<usize>,
    /// How many stream blocks the pointer may still run ahead.
    credits: usize,
    issued: u64,
    stream_hits: u64,
    stream_starts: u64,
}

impl Confluence {
    /// Creates the engine.
    ///
    /// # Panics
    ///
    /// Panics if `history_entries` or `degree` is zero.
    pub fn new(cfg: ConfluenceConfig) -> Self {
        assert!(cfg.history_entries > 0, "history must be non-empty");
        assert!(cfg.degree > 0, "degree must be non-zero");
        Confluence {
            cfg,
            history: vec![0; cfg.history_entries],
            head: 0,
            filled: false,
            index: FxHashMap::default(),
            last_recorded: None,
            replay: None,
            credits: 0,
            issued: 0,
            stream_hits: 0,
            stream_starts: 0,
        }
    }

    /// The paper-scale configuration.
    pub fn paper_sized() -> Self {
        Confluence::new(ConfluenceConfig::default())
    }

    /// `(issued, stream_starts, stream_follow_hits)`.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.issued, self.stream_starts, self.stream_hits)
    }

    fn record(&mut self, block: Block) {
        if self.last_recorded == Some(block) {
            return;
        }
        self.last_recorded = Some(block);
        self.history[self.head] = block;
        self.index.insert(block, self.head);
        self.head += 1;
        if self.head == self.history.len() {
            self.head = 0;
            self.filled = true;
        }
    }

    fn replay_some<C: PrefetchContext + ?Sized>(&mut self, ctx: &mut C, n: usize) {
        let len = self.history.len();
        let limit = if self.filled { len } else { self.head };
        if limit == 0 {
            return;
        }
        // The most recently recorded position: replaying into it would
        // "predict" the present, so the stream ends there.
        let newest = (self.head + len - 1) % len;
        let mut issued = 0;
        // Resident blocks are skipped without consuming run-ahead
        // credits; bound the scan so one call stays cheap.
        let mut scanned = 0;
        while issued < n && scanned < 4 * n {
            scanned += 1;
            let Some(pos) = self.replay else { break };
            if pos >= limit || pos == newest {
                self.replay = None;
                break;
            }
            if self.credits == 0 {
                break;
            }
            let block = self.history[pos];
            self.replay = Some((pos + 1) % limit);
            if !ctx.l1i_lookup(block) {
                // Temporal metadata lives in the LLC: charge the two-step
                // LLC pointer-chase with a modest extra delay.
                ctx.issue_prefetch(block, PfSource::Confluence, 4);
                self.issued += 1;
                issued += 1;
                self.credits -= 1;
            }
        }
    }
}

impl InstrPrefetcher for Confluence {
    fn name(&self) -> String {
        "Confluence".to_owned()
    }

    fn storage_bits(&self) -> u64 {
        // History: ~34 bits/block; index modeled as SHIFT's virtualized
        // LLC pointers (~16 bits per entry over a 16 K-entry bucketed
        // index). Totals ≈ 170 KB: the "200 KB metadata virtualized in
        // LLC" row of Table II.
        (self.history.len() as u64 * 34) + (16 * 1024 * 16)
    }

    fn on_demand<C: PrefetchContext + ?Sized>(
        &mut self,
        ctx: &mut C,
        block: Block,
        hit: bool,
        _hit_was_prefetched: bool,
        _recent: &RecentInstrs,
    ) {
        // Locate the previous occurrence BEFORE recording this one, then
        // record the access stream (PIF/SHIFT record accesses, not
        // misses).
        let prev_pos = if hit {
            None
        } else {
            self.index.get(&block).copied()
        };
        self.record(block);
        if !hit {
            // Locate the stream at the missed block and start replaying
            // ahead of it.
            if let Some(pos) = prev_pos {
                let limit = if self.filled {
                    self.history.len()
                } else {
                    self.head
                };
                if limit > 0 {
                    self.replay = Some((pos + 1) % limit);
                    self.credits = self.cfg.lookahead;
                    self.stream_starts += 1;
                    self.replay_some(ctx, self.cfg.degree);
                }
            }
        } else if self.replay.is_some() {
            // Stream following: each demand that keeps the stream alive
            // grants another credit.
            self.stream_hits += 1;
            self.credits = (self.credits + 1).min(self.cfg.lookahead);
            self.replay_some(ctx, 1);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::context::MockContext;

    fn demand(c: &mut Confluence, ctx: &mut MockContext, block: Block, hit: bool) {
        c.on_demand(ctx, block, hit, false, &RecentInstrs::default());
    }

    fn small() -> Confluence {
        Confluence::new(ConfluenceConfig {
            history_entries: 256,
            degree: 4,
            lookahead: 8,
        })
    }

    #[test]
    fn learns_and_replays_a_temporal_stream() {
        let mut c = small();
        let mut ctx = MockContext::default();
        let stream = [10u64, 11, 40, 41, 90, 91, 13, 200];
        // First pass: record (all misses, no predictions yet).
        for &b in &stream {
            demand(&mut c, &mut ctx, b, false);
        }
        ctx.issued.clear();
        ctx.resident.clear();
        // Second pass: miss on the stream head replays the successors.
        demand(&mut c, &mut ctx, 10, false);
        let blocks: Vec<Block> = ctx.issued.iter().map(|&(b, _)| b).collect();
        assert_eq!(blocks, vec![11, 40, 41, 90]);
        assert_eq!(c.counters().1, 1);
    }

    #[test]
    fn stream_following_extends_replay() {
        let mut c = small();
        let mut ctx = MockContext::default();
        let stream: Vec<u64> = (0..20).map(|i| 100 + i * 7).collect();
        for &b in &stream {
            demand(&mut c, &mut ctx, b, false);
        }
        ctx.issued.clear();
        ctx.resident.clear();
        demand(&mut c, &mut ctx, stream[0], false);
        let initial = ctx.issued.len();
        // Following the stream (hits) keeps pulling new blocks.
        demand(&mut c, &mut ctx, stream[1], true);
        demand(&mut c, &mut ctx, stream[2], true);
        assert!(ctx.issued.len() > initial);
        assert!(c.counters().2 >= 2);
    }

    #[test]
    fn unknown_miss_does_nothing() {
        let mut c = small();
        let mut ctx = MockContext::default();
        demand(&mut c, &mut ctx, 999, false);
        assert!(ctx.issued.is_empty());
    }

    #[test]
    fn consecutive_duplicates_not_recorded() {
        let mut c = small();
        let mut ctx = MockContext::default();
        demand(&mut c, &mut ctx, 5, false);
        demand(&mut c, &mut ctx, 5, true);
        demand(&mut c, &mut ctx, 6, false);
        ctx.issued.clear();
        ctx.resident.clear();
        demand(&mut c, &mut ctx, 5, false);
        let blocks: Vec<Block> = ctx.issued.iter().map(|&(b, _)| b).collect();
        assert_eq!(blocks, vec![6]);
    }

    #[test]
    fn history_wraps_without_panicking() {
        let mut c = Confluence::new(ConfluenceConfig {
            history_entries: 16,
            degree: 2,
            lookahead: 4,
        });
        let mut ctx = MockContext::default();
        for i in 0..100u64 {
            demand(&mut c, &mut ctx, i, false);
        }
        // Most recent entries are intact.
        demand(&mut c, &mut ctx, 98, false);
    }

    #[test]
    fn storage_is_hundreds_of_kb() {
        let c = Confluence::paper_sized();
        let kb = c.storage_bits() / 8 / 1024;
        assert!(kb > 100, "Confluence metadata should be large, got {kb} KB");
    }

    #[test]
    fn prefetches_charged_llc_chase_delay() {
        let mut c = small();
        let mut ctx = MockContext::default();
        demand(&mut c, &mut ctx, 1, false);
        demand(&mut c, &mut ctx, 2, false);
        ctx.issued.clear();
        ctx.resident.clear();
        demand(&mut c, &mut ctx, 1, false);
        assert!(ctx.issued.iter().all(|&(_, d)| d == 4));
    }
}
