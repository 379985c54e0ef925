//! The frozen fuzz corpus: hand-maintained test data for the 15th
//! `dcfb conformance` check.
//!
//! `corpus_seed.txt` holds short engine-op sequences, one per line (one
//! token per op), over the program layout its header names. Each entry
//! replays through every engine harness in [`check_corpus_replay`]. The
//! file is edited by hand: add a line to pin a behaviour, and keep the
//! header's layout seed, since every entry's branch addresses refer to
//! that layout.

use crate::ops::{EngineOp, RecentBranch};

/// Schema tag on the corpus header line.
const CORPUS_SCHEMA: &str = "dcfb-corpus-v1";

/// The checked-in corpus.
const BUILTIN: &str = include_str!("corpus_seed.txt");

fn parse_flag(s: &str, what: &str) -> Result<bool, String> {
    match s {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("bad {what} flag {s:?} (want 0/1)")),
    }
}

fn parse_u64(s: &str, what: &str) -> Result<u64, String> {
    s.parse::<u64>()
        .map_err(|e| format!("bad {what} {s:?}: {e}"))
}

/// Parses one corpus line into ops: space-separated tokens, `T` for
/// ticks, `D:block:hp[:pc:target]` demands (`h`/`p` are 0/1 flags),
/// `F:block:p` fills, `E:block:u` evicts.
///
/// # Errors
///
/// A one-line description naming the offending token.
pub fn parse_ops(line: &str) -> Result<Vec<EngineOp>, String> {
    let mut ops = Vec::new();
    for tok in line.split_whitespace() {
        let mut parts = tok.split(':');
        let kind = parts.next().unwrap_or_default();
        let op = match kind {
            "T" => EngineOp::Tick,
            "D" => {
                let block = parse_u64(parts.next().unwrap_or_default(), "demand block")?;
                let flags = parts.next().unwrap_or_default();
                if flags.len() != 2 {
                    return Err(format!("bad demand flags in {tok:?} (want two 0/1 chars)"));
                }
                let hit = parse_flag(&flags[0..1], "hit")?;
                let hit_was_prefetched = parse_flag(&flags[1..2], "hit_was_prefetched")?;
                let branch = match parts.next() {
                    None => None,
                    Some(pc) => {
                        let pc = parse_u64(pc, "branch pc")?;
                        let target = parse_u64(parts.next().unwrap_or_default(), "branch target")?;
                        Some(RecentBranch { pc, target })
                    }
                };
                EngineOp::Demand {
                    block,
                    hit,
                    hit_was_prefetched,
                    branch,
                }
            }
            "F" => EngineOp::Fill {
                block: parse_u64(parts.next().unwrap_or_default(), "fill block")?,
                was_prefetch: parse_flag(parts.next().unwrap_or_default(), "was_prefetch")?,
            },
            "E" => EngineOp::Evict {
                block: parse_u64(parts.next().unwrap_or_default(), "evict block")?,
                useless: parse_flag(parts.next().unwrap_or_default(), "useless")?,
            },
            _ => return Err(format!("unknown op token {tok:?}")),
        };
        if parts.next().is_some() {
            return Err(format!("trailing fields in op token {tok:?}"));
        }
        ops.push(op);
    }
    if ops.is_empty() {
        return Err("empty op line".to_owned());
    }
    Ok(ops)
}

/// Parses a corpus text (the checked-in form): a header naming the
/// schema and the layout seed, then one entry line per input.
///
/// # Errors
///
/// A one-line description of the malformed header or entry.
pub fn parse_corpus_text(text: &str) -> Result<(u64, Vec<Vec<EngineOp>>), String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty corpus file")?;
    let rest = header
        .strip_prefix(&format!("# {CORPUS_SCHEMA} layout-seed="))
        .ok_or_else(|| format!("bad corpus header {header:?}"))?;
    let layout_seed = parse_u64(rest.trim(), "layout seed")?;
    let mut entries = Vec::new();
    for line in lines {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        entries.push(parse_ops(line)?);
    }
    Ok((layout_seed, entries))
}

/// The checked-in corpus: `(layout_seed, entries)`.
///
/// # Errors
///
/// A one-line description if `corpus_seed.txt` is malformed.
pub fn builtin_corpus() -> Result<(u64, Vec<Vec<EngineOp>>), String> {
    parse_corpus_text(BUILTIN)
}

/// The 15th conformance check: every checked-in corpus entry still
/// passes lockstep through every engine harness (a regression here
/// means a reference/production divergence on a previously-conforming
/// behavior).
pub fn check_corpus_replay() -> Result<String, String> {
    let (layout_seed, entries) = builtin_corpus()?;
    let layout = crate::fuzz::Fuzzer::new(layout_seed).layout();
    let harnesses = crate::engine_harnesses(&layout);
    let mut replayed = 0usize;
    for (i, ops) in entries.iter().enumerate() {
        for h in &harnesses {
            if let Some(d) = h.run(ops) {
                return Err(format!(
                    "corpus entry {i} ({} ops) diverged on {}:\n{d}",
                    ops.len(),
                    h.name()
                ));
            }
            replayed += 1;
        }
    }
    Ok(format!(
        "{} entries × {} harnesses replay clean ({replayed} runs)",
        entries.len(),
        harnesses.len()
    ))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn ops_parse_from_text() {
        let ops = parse_ops("T D:5:10 D:9:01:320:640 F:7:1 E:7:0").unwrap();
        let want = vec![
            EngineOp::Tick,
            EngineOp::Demand {
                block: 5,
                hit: true,
                hit_was_prefetched: false,
                branch: None,
            },
            EngineOp::Demand {
                block: 9,
                hit: false,
                hit_was_prefetched: true,
                branch: Some(RecentBranch {
                    pc: 320,
                    target: 640,
                }),
            },
            EngineOp::Fill {
                block: 7,
                was_prefetch: true,
            },
            EngineOp::Evict {
                block: 7,
                useless: false,
            },
        ];
        assert_eq!(format!("{ops:?}"), format!("{want:?}"));
        let (seed, entries) =
            parse_corpus_text("# dcfb-corpus-v1 layout-seed=29\n\n# note\nT T\n").unwrap();
        assert_eq!((seed, entries.len()), (29, 1));
        assert!(parse_corpus_text("no header\n").is_err());
        assert!(parse_corpus_text("# dcfb-corpus-v1 layout-seed=x\n").is_err());
    }

    #[test]
    fn malformed_op_lines_error() {
        for bad in [
            "",
            "X:1:0",
            "D:abc:00",
            "D:5:2",
            "D:5:001",
            "D:5:01:12",
            "D:5:01:12:13:14",
            "F:1:7",
            "E::1",
            "T:1",
        ] {
            assert!(parse_ops(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn builtin_corpus_parses_and_replays_clean() {
        let (seed, entries) = builtin_corpus().expect("well-formed seed corpus");
        assert!(seed > 0);
        assert!(!entries.is_empty(), "seed corpus must ship entries");
        let msg = check_corpus_replay().expect("replay clean");
        assert!(msg.contains("replay clean"), "{msg}");
    }
}
