//! Batch-run checkpointing for `all_experiments`.
//!
//! A [`Checkpoint`] is an ordered map from figure id to its rendered
//! markdown, persisted as a flat JSON object of strings
//! (`{"fig01": "…", …}`). Completed figures are saved after each one
//! finishes; a later invocation with `DCFB_RESUME=1` loads the file and
//! skips everything already present, so a batch killed halfway (or one
//! with a crashing figure) does not redo hours of simulation.
//!
//! Reading and writing go through the workspace's one JSON codec,
//! [`dcfb_telemetry::json`]; the reader accepts only an object whose
//! values are strings. Checkpoints written by a different build are
//! safe to load — worst case the markdown is regenerated.
//!
//! Mirroring the trace v2 strict/lenient split, there are two readers:
//! [`Checkpoint::from_json`] rejects any damage (the safe default for
//! untrusted files), while [`Checkpoint::from_json_lenient`] salvages
//! every complete `"figure": "markdown"` entry before the first syntax
//! problem — so a checkpoint truncated by a mid-write kill costs only
//! the torn tail entry, not the whole batch's progress.

use dcfb_errors::DcfbError;
use dcfb_telemetry::json::{self, JsonValue};
use std::path::{Path, PathBuf};

/// Environment variable enabling resume from a checkpoint.
pub const RESUME_ENV: &str = "DCFB_RESUME";

/// Environment variable overriding the checkpoint file location.
pub const CHECKPOINT_PATH_ENV: &str = "DCFB_CHECKPOINT";

/// The default checkpoint location.
pub const DEFAULT_CHECKPOINT_PATH: &str = "target/all_experiments.checkpoint.json";

/// Completed (figure id → markdown) results of a batch run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Checkpoint {
    entries: Vec<(String, String)>,
}

impl Checkpoint {
    /// An empty checkpoint.
    pub fn new() -> Self {
        Checkpoint::default()
    }

    /// The checkpoint path from the environment (or the default).
    pub fn default_path() -> PathBuf {
        std::env::var_os(CHECKPOINT_PATH_ENV)
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from(DEFAULT_CHECKPOINT_PATH))
    }

    /// Whether `DCFB_RESUME=1` is set.
    pub fn resume_requested() -> bool {
        std::env::var(RESUME_ENV).is_ok_and(|v| v == "1")
    }

    /// Number of completed figures recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has completed yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The markdown recorded for `id`, if that figure completed.
    pub fn get(&self, id: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(k, _)| k == id)
            .map(|(_, v)| v.as_str())
    }

    /// Records (or replaces) the markdown for `id`.
    pub fn put(&mut self, id: &str, markdown: &str) {
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| k == id) {
            slot.1 = markdown.to_owned();
        } else {
            self.entries.push((id.to_owned(), markdown.to_owned()));
        }
    }

    /// Serializes to the flat JSON object format.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (k, v)) in self.entries.iter().enumerate() {
            out.push_str("  ");
            json::write_escaped(&mut out, k);
            out.push_str(": ");
            json::write_escaped(&mut out, v);
            if i + 1 < self.entries.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push('}');
        out
    }

    /// Parses the flat JSON object format.
    ///
    /// # Errors
    ///
    /// Returns [`DcfbError::Config`] naming the byte offset of the
    /// first syntax problem.
    pub fn from_json(text: &str) -> Result<Self, DcfbError> {
        let mut cp = Checkpoint::new();
        parse_into(text, &mut cp)?;
        Ok(cp)
    }

    /// Parses the flat JSON object format leniently: every complete
    /// `"key": "value"` entry before the first syntax problem is
    /// salvaged. Returns the salvaged checkpoint plus the one-line
    /// reason parsing stopped early (`None` for an undamaged file).
    pub fn from_json_lenient(text: &str) -> (Self, Option<String>) {
        let mut cp = Checkpoint::new();
        let reason = parse_into(text, &mut cp).err().map(|e| e.to_string());
        (cp, reason)
    }

    /// Writes the checkpoint to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Returns [`DcfbError::Io`] on filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), DcfbError> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| DcfbError::io(dir.display().to_string(), &e))?;
            }
        }
        std::fs::write(path, self.to_json())
            .map_err(|e| DcfbError::io(path.display().to_string(), &e))
    }

    /// Loads a checkpoint from `path`. A missing file is an empty
    /// checkpoint (nothing completed yet); a malformed one is an error,
    /// not silently discarded progress.
    ///
    /// # Errors
    ///
    /// Returns [`DcfbError::Io`] on read failure (other than
    /// not-found) and [`DcfbError::Config`] on malformed JSON.
    pub fn load(path: &Path) -> Result<Self, DcfbError> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(Checkpoint::new());
            }
            Err(e) => return Err(DcfbError::io(path.display().to_string(), &e)),
        };
        Checkpoint::from_json(&text)
    }

    /// Loads a checkpoint from `path` leniently: a truncated or corrupt
    /// file yields the salvageable prefix plus the reason, instead of
    /// discarding all recorded progress. A missing file is an empty
    /// checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`DcfbError::Io`] on read failure other than not-found
    /// (damage is salvaged, but an unreadable file is still an error).
    pub fn load_lenient(path: &Path) -> Result<(Self, Option<String>), DcfbError> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok((Checkpoint::new(), None));
            }
            Err(e) => return Err(DcfbError::io(path.display().to_string(), &e)),
        };
        Ok(Checkpoint::from_json_lenient(&text))
    }
}

/// Feeds every `"key": "string"` pair of `text` into `cp` as it is
/// parsed, so on error `cp` holds exactly the salvageable prefix: the
/// strict path discards it, the lenient path keeps it.
fn parse_into(text: &str, cp: &mut Checkpoint) -> Result<(), DcfbError> {
    json::parse_object_entries(text, |key, value| match value {
        JsonValue::Str(markdown) => {
            cp.put(&key, &markdown);
            Ok(())
        }
        _ => Err("expected '\"'".to_owned()),
    })
    .map_err(|e| {
        DcfbError::Config(format!(
            "malformed checkpoint JSON at byte {}: {}",
            e.at, e.what
        ))
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_plain_and_tricky_strings() {
        let mut cp = Checkpoint::new();
        cp.put("fig01", "| a | b |\n|---|---|\n| 1 | 2 |\n");
        cp.put("tab1", "quotes \" and \\ backslashes\tand tabs");
        cp.put("fig02", "unicode: §VII-D — 88% ✓");
        let json = cp.to_json();
        let back = Checkpoint::from_json(&json).unwrap();
        assert_eq!(back, cp);
    }

    #[test]
    fn on_disk_bytes_and_torn_file_error_are_pinned() {
        let mut cp = Checkpoint::new();
        cp.put("fig\"01", "a\\b\nc");
        cp.put("tab1", "ctl\u{1}");
        let json = cp.to_json();
        assert_eq!(
            json,
            "{\n  \"fig\\\"01\": \"a\\\\b\\nc\",\n  \"tab1\": \"ctl\\u0001\"\n}"
        );
        let torn = &json[..json.len() - 3];
        assert_eq!(
            Checkpoint::from_json(torn).unwrap_err().to_string(),
            format!(
                "invalid configuration: malformed checkpoint JSON at byte {}: unterminated string",
                torn.len()
            )
        );
    }

    #[test]
    fn put_replaces_existing_entries() {
        let mut cp = Checkpoint::new();
        cp.put("fig01", "old");
        cp.put("fig01", "new");
        assert_eq!(cp.len(), 1);
        assert_eq!(cp.get("fig01"), Some("new"));
        assert_eq!(cp.get("missing"), None);
    }

    #[test]
    fn empty_object_round_trips() {
        let cp = Checkpoint::new();
        let back = Checkpoint::from_json(&cp.to_json()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn malformed_json_is_rejected() {
        // The wording is part of the interface: `dcfb chaos` prints it.
        for (bad, at, what) in [
            ("", 0, "expected '{'"),
            ("{", 1, "expected '\"'"),
            ("[\"a\"]", 0, "expected '{'"),
            ("{\"a\"}", 4, "expected ':'"),
            ("{\"a\": 1}", 6, "expected '\"'"),
            ("{\"a\": \"b\",}", 10, "expected '\"'"),
            ("{\"a\": \"b\" \"c\"}", 10, "expected ',' or '}'"),
            ("{\"a\": \"b\"} trailing", 11, "trailing data"),
            ("{\"a\": \"unterminated}", 20, "unterminated string"),
            ("{\"a\": \"b\\", 9, "unterminated escape"),
            ("{\"a\": \"\\q\"}", 9, "unknown escape"),
            ("{\"a\": \"\\u12\"}", 9, "bad \\u escape"),
            ("{\"a\": \"\\ud800\"}", 13, "bad \\u code point"),
        ] {
            let err = Checkpoint::from_json(bad).unwrap_err();
            assert!(matches!(err, DcfbError::Config(_)), "{bad:?} gave {err:?}");
            assert_eq!(
                err.to_string(),
                format!("invalid configuration: malformed checkpoint JSON at byte {at}: {what}"),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn lenient_parse_salvages_valid_prefix() {
        let mut cp = Checkpoint::new();
        cp.put("fig01", "one\ntwo");
        cp.put("fig02", "quotes \" and \\");
        cp.put("fig03", "tail");
        let json = cp.to_json();
        // Truncate at every byte offset: the salvage must never error,
        // never invent entries, and always keep a prefix of the
        // original entry list with intact values.
        for cut in 0..json.len() {
            let (got, reason) = Checkpoint::from_json_lenient(&json[..cut]);
            assert!(reason.is_some(), "truncation at {cut} reported no damage");
            assert!(got.len() <= cp.len());
            for (i, (k, v)) in got.entries.iter().enumerate() {
                assert_eq!((k, v), (&cp.entries[i].0, &cp.entries[i].1), "cut {cut}");
            }
        }
        // Cutting just past the last value's closing quote keeps all
        // three entries even though the object never closed.
        let cut = json.rfind('"').unwrap() + 1;
        let (got, reason) = Checkpoint::from_json_lenient(&json[..cut]);
        assert_eq!(got, cp);
        assert!(reason.unwrap().contains("byte"), "reason names the offset");
        // An undamaged file salvages completely with no reason.
        let (got, reason) = Checkpoint::from_json_lenient(&json);
        assert_eq!(got, cp);
        assert!(reason.is_none());
    }

    #[test]
    fn lenient_parse_of_garbage_is_empty_with_reason() {
        for bad in ["", "not json", "[\"a\"]", "{\"a\": 1}"] {
            let (got, reason) = Checkpoint::from_json_lenient(bad);
            assert!(got.is_empty(), "{bad:?}");
            assert!(reason.is_some(), "{bad:?}");
        }
    }

    #[test]
    fn load_lenient_handles_missing_and_truncated_files() {
        let (cp, reason) =
            Checkpoint::load_lenient(Path::new("/nonexistent/dcfb/checkpoint.json")).unwrap();
        assert!(cp.is_empty());
        assert!(reason.is_none());

        let dir = std::env::temp_dir().join(format!("dcfb-ckpt-lenient-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.json");
        let mut full = Checkpoint::new();
        full.put("fig01", "alpha");
        full.put("fig02", "beta");
        let json = full.to_json();
        // Cut inside the second value: only fig01 survives.
        let cut = json.find("beta").unwrap() + 2;
        std::fs::write(&path, &json[..cut]).unwrap();
        let (cp, reason) = Checkpoint::load_lenient(&path).unwrap();
        assert_eq!(cp.len(), 1);
        assert_eq!(cp.get("fig01"), Some("alpha"));
        assert!(reason.unwrap().contains("malformed checkpoint JSON"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_and_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("dcfb-checkpoint-test-{}", std::process::id()));
        let path = dir.join("nested/checkpoint.json");
        let mut cp = Checkpoint::new();
        cp.put("fig16", "## Fig 16\nspeedups\n");
        cp.save(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(back, cp);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_loads_empty() {
        let cp = Checkpoint::load(Path::new("/nonexistent/dcfb/checkpoint.json")).unwrap();
        assert!(cp.is_empty());
    }
}
