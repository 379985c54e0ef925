//! The versioned JSON metrics document emitted by `dcfb profile`.
//!
//! Schema `dcfb-metrics-v1` (see DESIGN.md "Telemetry & metrics
//! schema" for the field-by-field description). The document
//! round-trips losslessly through [`MetricsDoc::to_json`] /
//! [`MetricsDoc::from_json`]; [`MetricsDoc::validate`] checks the
//! structural invariants, most importantly that every timeliness row
//! satisfies `accurate + late + early_evicted + useless == issued`.

use crate::json::{write_escaped, JsonValue};

/// Current metrics document schema identifier.
pub const METRICS_SCHEMA: &str = "dcfb-metrics-v1";

/// Column names of the time-series table, in emission order.
pub const SERIES_COLUMNS: [&str; 11] = [
    "window_start",
    "cycles",
    "instrs",
    "demand_misses",
    "pf_issued",
    "btb_lookups",
    "btb_hits",
    "rlu_lookups",
    "rlu_hits",
    "ftq_occ_sum",
    "ftq_samples",
];

/// A sparse histogram dump: `buckets[i] = (log2 bucket index, count)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistDump {
    /// Histogram name.
    pub name: String,
    /// Sample count.
    pub count: u64,
    /// Sample sum.
    pub sum: u64,
    /// Non-empty buckets, ascending by index.
    pub buckets: Vec<(u8, u64)>,
}

/// Per-source prefetch-timeliness tallies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimelinessRow {
    /// Prefetch source name ([`crate::PfSource::name`]).
    pub source: String,
    /// Prefetches issued.
    pub issued: u64,
    /// Used after filling in time.
    pub accurate: u64,
    /// Demanded while still in flight.
    pub late: u64,
    /// Evicted unused, then demanded again soon.
    pub early_evicted: u64,
    /// Never useful.
    pub useless: u64,
}

impl TimelinessRow {
    /// Sum of the four timeliness classes. A well-formed row has
    /// `classified() == issued` — every issued prefetch lands in
    /// exactly one class.
    pub fn classified(&self) -> u64 {
        self.accurate + self.late + self.early_evicted + self.useless
    }
}

/// One run's exported metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsDoc {
    /// Schema identifier; [`METRICS_SCHEMA`] for documents we write.
    pub schema: String,
    /// Workload name.
    pub workload: String,
    /// Prefetch method name.
    pub method: String,
    /// Measured cycles.
    pub cycles: u64,
    /// Measured instructions.
    pub instrs: u64,
    /// `(name, value)` scalar counters, stable order.
    pub counters: Vec<(String, u64)>,
    /// Histograms.
    pub histograms: Vec<HistDump>,
    /// Per-source timeliness rows (all-zero sources omitted).
    pub timeliness: Vec<TimelinessRow>,
    /// Aggregation width of the time-series windows, in cycles.
    pub window_cycles: u64,
    /// Time-series rows; each row has [`SERIES_COLUMNS`] entries.
    pub series: Vec<Vec<u64>>,
}

impl MetricsDoc {
    /// Serializes the document as pretty-stable JSON (fixed field
    /// order, no floats).
    pub fn to_json(&self) -> String {
        let mut o = String::with_capacity(4096);
        o.push_str("{\n  \"schema\": ");
        write_escaped(&mut o, &self.schema);
        o.push_str(",\n  \"workload\": ");
        write_escaped(&mut o, &self.workload);
        o.push_str(",\n  \"method\": ");
        write_escaped(&mut o, &self.method);
        o.push_str(&format!(",\n  \"cycles\": {}", self.cycles));
        o.push_str(&format!(",\n  \"instrs\": {}", self.instrs));
        o.push_str(",\n  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            o.push_str(if i > 0 { ", " } else { "" });
            write_escaped(&mut o, name);
            o.push_str(&format!(": {value}"));
        }
        o.push_str("},\n  \"histograms\": [");
        for (i, h) in self.histograms.iter().enumerate() {
            o.push_str(if i > 0 { ", " } else { "" });
            o.push_str("{\"name\": ");
            write_escaped(&mut o, &h.name);
            o.push_str(&format!(
                ", \"count\": {}, \"sum\": {}, \"buckets\": [",
                h.count, h.sum
            ));
            for (j, (idx, c)) in h.buckets.iter().enumerate() {
                o.push_str(if j > 0 { ", " } else { "" });
                o.push_str(&format!("[{idx}, {c}]"));
            }
            o.push_str("]}");
        }
        o.push_str("],\n  \"timeliness\": [");
        for (i, t) in self.timeliness.iter().enumerate() {
            o.push_str(if i > 0 { ", " } else { "" });
            o.push_str("{\"source\": ");
            write_escaped(&mut o, &t.source);
            o.push_str(&format!(
                ", \"issued\": {}, \"accurate\": {}, \"late\": {}, \"early_evicted\": {}, \"useless\": {}}}",
                t.issued, t.accurate, t.late, t.early_evicted, t.useless
            ));
        }
        o.push_str(&format!("],\n  \"window_cycles\": {}", self.window_cycles));
        o.push_str(",\n  \"series_columns\": [");
        for (i, c) in SERIES_COLUMNS.iter().enumerate() {
            o.push_str(if i > 0 { ", " } else { "" });
            write_escaped(&mut o, c);
        }
        o.push_str("],\n  \"series\": [");
        for (i, row) in self.series.iter().enumerate() {
            o.push_str(if i > 0 { ",\n    " } else { "\n    " });
            o.push('[');
            for (j, v) in row.iter().enumerate() {
                o.push_str(if j > 0 { ", " } else { "" });
                o.push_str(&v.to_string());
            }
            o.push(']');
        }
        o.push_str("\n  ]\n}\n");
        o
    }

    /// Parses a document previously written by [`MetricsDoc::to_json`].
    ///
    /// # Errors
    ///
    /// A descriptive message on malformed JSON, a missing field, or a
    /// schema identifier this version does not understand.
    pub fn from_json(text: &str) -> Result<MetricsDoc, String> {
        let v = JsonValue::parse(text).map_err(|e| e.to_string())?;
        let schema = req_str(&v, "schema")?;
        if schema != METRICS_SCHEMA {
            return Err(format!(
                "unsupported metrics schema {schema:?} (expected {METRICS_SCHEMA:?})"
            ));
        }
        let counters = match v.get("counters") {
            Some(JsonValue::Obj(fields)) => fields
                .iter()
                .map(|(k, val)| {
                    val.as_u64()
                        .map(|u| (k.clone(), u))
                        .ok_or_else(|| format!("counter {k:?} is not a u64"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("missing counters object".to_owned()),
        };
        let histograms = v
            .get("histograms")
            .and_then(JsonValue::as_array)
            .ok_or("missing histograms array")?
            .iter()
            .map(parse_hist)
            .collect::<Result<Vec<_>, _>>()?;
        let timeliness = v
            .get("timeliness")
            .and_then(JsonValue::as_array)
            .ok_or("missing timeliness array")?
            .iter()
            .map(parse_timeliness)
            .collect::<Result<Vec<_>, _>>()?;
        let series = v
            .get("series")
            .and_then(JsonValue::as_array)
            .ok_or("missing series array")?
            .iter()
            .map(|row| {
                row.as_array()
                    .ok_or_else(|| "series row is not an array".to_owned())?
                    .iter()
                    .map(|x| {
                        x.as_u64()
                            .ok_or_else(|| "series cell is not a u64".to_owned())
                    })
                    .collect::<Result<Vec<u64>, String>>()
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(MetricsDoc {
            schema,
            workload: req_str(&v, "workload")?,
            method: req_str(&v, "method")?,
            cycles: req_u64(&v, "cycles")?,
            instrs: req_u64(&v, "instrs")?,
            counters,
            histograms,
            timeliness,
            window_cycles: req_u64(&v, "window_cycles")?,
            series,
        })
    }

    /// Checks structural invariants.
    ///
    /// # Errors
    ///
    /// The first violated invariant: schema mismatch, a timeliness
    /// row whose classes don't sum to `issued`, duplicate counter
    /// names, or a series row of the wrong width.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != METRICS_SCHEMA {
            return Err(format!("schema is {:?}", self.schema));
        }
        let mut names: Vec<&str> = self.counters.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        if names.len() != before {
            return Err("duplicate counter names".to_owned());
        }
        for t in &self.timeliness {
            let classified = t.classified();
            if classified != t.issued {
                return Err(format!(
                    "timeliness row {:?}: accurate {} + late {} + early_evicted {} + useless {} = {} != issued {}",
                    t.source, t.accurate, t.late, t.early_evicted, t.useless, classified, t.issued
                ));
            }
        }
        for (i, row) in self.series.iter().enumerate() {
            if row.len() != SERIES_COLUMNS.len() {
                return Err(format!(
                    "series row {i} has {} columns, expected {}",
                    row.len(),
                    SERIES_COLUMNS.len()
                ));
            }
        }
        Ok(())
    }

    /// Renders the time-series table as CSV (header + one row per
    /// window).
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(64 + self.series.len() * 64);
        out.push_str(&SERIES_COLUMNS.join(","));
        out.push('\n');
        for row in &self.series {
            let cells: Vec<String> = row.iter().map(u64::to_string).collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

fn req_str(v: &JsonValue, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

fn req_u64(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing u64 field {key:?}"))
}

fn parse_hist(v: &JsonValue) -> Result<HistDump, String> {
    let buckets = v
        .get("buckets")
        .and_then(JsonValue::as_array)
        .ok_or("histogram missing buckets")?
        .iter()
        .map(|pair| {
            let p = pair.as_array().ok_or("bucket is not a pair")?;
            match (
                p.first().and_then(JsonValue::as_u64),
                p.get(1).and_then(JsonValue::as_u64),
            ) {
                (Some(i), Some(c)) if i < 65 && p.len() == 2 => Ok((i as u8, c)),
                _ => Err("bad bucket pair".to_owned()),
            }
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(HistDump {
        name: req_str(v, "name")?,
        count: req_u64(v, "count")?,
        sum: req_u64(v, "sum")?,
        buckets,
    })
}

fn parse_timeliness(v: &JsonValue) -> Result<TimelinessRow, String> {
    Ok(TimelinessRow {
        source: req_str(v, "source")?,
        issued: req_u64(v, "issued")?,
        accurate: req_u64(v, "accurate")?,
        late: req_u64(v, "late")?,
        early_evicted: req_u64(v, "early_evicted")?,
        useless: req_u64(v, "useless")?,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn sample_doc() -> MetricsDoc {
        MetricsDoc {
            schema: METRICS_SCHEMA.to_owned(),
            workload: "Web (Apache)".to_owned(),
            method: "SN4L+Dis+BTB".to_owned(),
            cycles: 123_456,
            instrs: 120_000,
            counters: vec![
                ("demand_accesses".to_owned(), 120_000),
                ("demand_misses".to_owned(), u64::MAX),
            ],
            histograms: vec![HistDump {
                name: "miss_latency".to_owned(),
                count: 10,
                sum: 300,
                buckets: vec![(5, 7), (6, 3)],
            }],
            timeliness: vec![TimelinessRow {
                source: "sn4l".to_owned(),
                issued: 10,
                accurate: 4,
                late: 3,
                early_evicted: 1,
                useless: 2,
            }],
            window_cycles: 1024,
            series: vec![vec![0; SERIES_COLUMNS.len()], {
                let mut r = vec![1; SERIES_COLUMNS.len()];
                r[0] = 1024;
                r
            }],
        }
    }

    #[test]
    fn round_trips_exactly() {
        let doc = sample_doc();
        let text = doc.to_json();
        let back = MetricsDoc::from_json(&text).expect("parses");
        assert_eq!(doc, back);
        // And twice more, to be sure serialization is stable.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn validate_accepts_good_and_rejects_bad() {
        let doc = sample_doc();
        doc.validate().expect("valid");

        let mut bad = doc.clone();
        bad.timeliness[0].useless += 1;
        assert!(bad.validate().is_err());

        let mut bad = doc.clone();
        bad.series[0].pop();
        assert!(bad.validate().is_err());

        let mut bad = doc.clone();
        bad.counters.push(("demand_accesses".to_owned(), 1));
        assert!(bad.validate().is_err());

        let mut bad = doc;
        bad.schema = "dcfb-metrics-v0".to_owned();
        assert!(bad.validate().is_err());
    }

    #[test]
    fn from_json_rejects_wrong_schema_and_missing_fields() {
        let mut doc = sample_doc();
        doc.schema = "other".to_owned();
        assert!(MetricsDoc::from_json(&doc.to_json()).is_err());
        assert!(MetricsDoc::from_json("{}").is_err());
        assert!(MetricsDoc::from_json("not json").is_err());
    }

    #[test]
    fn csv_has_header_and_rows() {
        let doc = sample_doc();
        let csv = doc.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("window_start,cycles,instrs"));
        assert_eq!(lines[0].split(',').count(), SERIES_COLUMNS.len());
        assert_eq!(lines[2].split(',').count(), SERIES_COLUMNS.len());
    }

    #[test]
    fn counter_lookup() {
        let doc = sample_doc();
        assert_eq!(doc.counter("demand_misses"), Some(u64::MAX));
        assert_eq!(doc.counter("nope"), None);
    }
}
