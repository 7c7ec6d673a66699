//! Data-set persistence: save/load a data set (records + locations) as
//! JSON-lines, so an engine can be restarted without re-importing from the
//! original source.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use storm_connector::StRecord;
use storm_geo::StPoint;
use storm_store::{json, DocId, Value};

use crate::dataset::DatasetConfig;
use crate::{EngineError, StormEngine};

/// Reserved keys carrying the indexed location in the persisted format.
const KEY_X: &str = "_x";
const KEY_Y: &str = "_y";
const KEY_T: &str = "_t";

impl StormEngine {
    /// Writes a data set as JSON-lines: the record body plus `_x`/`_y`/`_t`
    /// location keys per line.
    pub fn save_dataset(&self, name: &str, path: &Path) -> Result<(), EngineError> {
        let ds = self.dataset(name)?;
        let file = std::fs::File::create(path).map_err(|e| io_err(&e))?;
        let mut out = BufWriter::new(file);
        // Deterministic order: by record id.
        let mut items: Vec<_> = ds.items().to_vec();
        items.sort_by_key(|it| it.id);
        for item in items {
            let doc = ds
                .collection()
                .get(DocId(item.id))
                .ok_or(EngineError::Internal(
                    "scan file and collection out of sync",
                ))?;
            let mut map = match &doc.body {
                Value::Object(map) => map.clone(),
                other => {
                    let mut m = std::collections::BTreeMap::new();
                    m.insert("_value".to_owned(), other.clone());
                    m
                }
            };
            map.insert(KEY_X.to_owned(), Value::Float(item.point.get(0)));
            map.insert(KEY_Y.to_owned(), Value::Float(item.point.get(1)));
            map.insert(KEY_T.to_owned(), Value::Int(item.point.get(2) as i64));
            writeln!(out, "{}", json::to_string(&Value::Object(map))).map_err(|e| io_err(&e))?;
        }
        out.flush().map_err(|e| io_err(&e))
    }

    /// Loads a data set saved by [`StormEngine::save_dataset`], rebuilding
    /// storage and every index.
    pub fn load_dataset(
        &mut self,
        name: &str,
        path: &Path,
        cfg: DatasetConfig,
    ) -> Result<usize, EngineError> {
        if self.dataset(name).is_ok() {
            return Err(EngineError::DatasetExists(name.to_owned()));
        }
        let file = std::fs::File::open(path).map_err(|e| io_err(&e))?;
        let reader = BufReader::new(file);
        let mut records = Vec::new();
        for (line_no, line) in reader.lines().enumerate() {
            let line = line.map_err(|e| io_err(&e))?;
            if !line.trim().is_empty() {
                records.push(parse_record(&line, line_no + 1)?);
            }
        }
        let n = records.len();
        self.create_dataset(name, records, cfg)?;
        Ok(n)
    }
}

/// Parses one saved line back into a record. A present location key must
/// hold what `save_dataset` writes: a finite number for `_x`/`_y` (a
/// non-finite one would be saved as `null` and fail the next load), an
/// integer for `_t`; a missing `_t` means time 0.
fn parse_record(line: &str, record: usize) -> Result<StRecord, EngineError> {
    use storm_connector::ConnectorError::{MissingField, Parse};
    let parse = |message: String| EngineError::Connector(Parse { record, message });
    let invalid = |key: &str, v: &Value, want: &str| {
        parse(format!(
            "'{key}' must be {want}, got {}",
            json::to_string(v)
        ))
    };
    let Value::Object(mut map) = json::parse(line).map_err(|e| parse(e.to_string()))? else {
        return Err(parse("expected a JSON object per line".into()));
    };
    let mut coord = |key: &str| match map.remove(key) {
        None => Err(EngineError::Connector(MissingField {
            record,
            field: key.to_owned(),
        })),
        Some(v) => (v.as_float().filter(|c| c.is_finite()))
            .ok_or_else(|| invalid(key, &v, "a finite number")),
    };
    let (x, y) = (coord(KEY_X)?, coord(KEY_Y)?);
    let t = match map.remove(KEY_T) {
        None => 0,
        Some(v) => v.as_int().ok_or_else(|| invalid(KEY_T, &v, "an integer"))?,
    };
    Ok(StRecord {
        point: StPoint::new(x, y, t),
        body: Value::Object(map),
    })
}

fn io_err(e: &std::io::Error) -> EngineError {
    EngineError::Connector(storm_connector::ConnectorError::Io(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::TaskResult;
    use storm_connector::ConnectorError;

    fn engine_with_data() -> StormEngine {
        let records: Vec<StRecord> = (0..800)
            .map(|i| StRecord {
                point: StPoint::new((i % 40) as f64, (i / 40) as f64, i as i64),
                body: Value::object([
                    ("v".into(), Value::Float((i % 9) as f64)),
                    ("tag".into(), Value::from(format!("t{}", i % 4))),
                ]),
            })
            .collect();
        let mut e = StormEngine::new(31);
        e.create_dataset("src", records, DatasetConfig::default())
            .unwrap();
        e
    }

    fn tmp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("storm-engine-persist-{tag}-{}", std::process::id()))
    }

    #[test]
    fn save_load_round_trip_preserves_answers() {
        let mut e = engine_with_data();
        let path = tmp("roundtrip");
        e.save_dataset("src", &path).unwrap();
        let n = e
            .load_dataset("copy", &path, DatasetConfig::default())
            .unwrap();
        assert_eq!(n, 800);
        let a = e
            .execute("ESTIMATE AVG(v) FROM src RANGE 3 3 30 15 TIME 100 700")
            .unwrap();
        let b = e
            .execute("ESTIMATE AVG(v) FROM copy RANGE 3 3 30 15 TIME 100 700")
            .unwrap();
        // Both exhaust → exact up to summation order.
        assert!((a.estimate().unwrap().value - b.estimate().unwrap().value).abs() < 1e-9);
        assert_eq!(a.q, b.q);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn loading_over_an_existing_name_fails() {
        let mut e = engine_with_data();
        let path = tmp("dup");
        e.save_dataset("src", &path).unwrap();
        assert!(matches!(
            e.load_dataset("src", &path, DatasetConfig::default()),
            Err(EngineError::DatasetExists(_))
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bad_lines_are_refused_at_their_line() {
        // `1e999` parses to +inf: loading it used to succeed, and the data
        // set's own save (`"_x":null`) then failed to load.
        assert_eq!(
            json::parse("1e999").unwrap().as_float(),
            Some(f64::INFINITY)
        );
        let path = tmp("bad-lines");
        let mut e = StormEngine::new(1);
        for (bad, missing) in [
            ("not json", false),
            ("[1.0, 2.0]", false),
            (r#"{"_x":1e999,"_y":2.0}"#, false),
            (r#"{"_x":1.0,"_y":-1e999}"#, false),
            (r#"{"_x":1.0,"_y":"north"}"#, false),
            (r#"{"_x":1.0,"_y":2.0,"_t":5.0}"#, false),
            (r#"{"_x":1.0,"_y":2.0,"_t":"x"}"#, false),
            (r#"{"v":1}"#, true),
            (r#"{"_x":1.0,"v":1}"#, true),
        ] {
            std::fs::write(&path, format!("{{\"_x\":1.0,\"_y\":2.0}}\n{bad}\n")).unwrap();
            let record = match e.load_dataset("bad", &path, DatasetConfig::default()) {
                Err(EngineError::Connector(ConnectorError::Parse { record, .. })) if !missing => {
                    record
                }
                Err(EngineError::Connector(ConnectorError::MissingField { record, .. }))
                    if missing =>
                {
                    record
                }
                other => panic!("{bad}: {other:?}"),
            };
            assert_eq!(record, 2, "{bad}");
        }
        // A missing `_t` still means time 0.
        std::fs::write(&path, "{\"_x\":1.0,\"_y\":2.0}\n").unwrap();
        assert_eq!(
            e.load_dataset("ok", &path, DatasetConfig::default())
                .unwrap(),
            1
        );
        let ds = e.dataset("ok").unwrap();
        assert_eq!(
            ds.point_of(DocId(ds.items()[0].id)),
            Some(StPoint::new(1.0, 2.0, 0))
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn explain_reports_the_optimizers_view() {
        let e = engine_with_data();
        let text = e
            .explain("ESTIMATE AVG(v) FROM src RANGE 0 0 10 10 SAMPLES 50")
            .unwrap();
        assert!(text.contains("dataset: src"));
        assert!(text.contains("chosen"));
        assert!(text.contains("QueryFirst"));
        assert!(text.contains("RS-tree"));
        assert!(!text.contains("LS-tree"), "{text}");
        // The rows are the scores the optimizer compared: the chosen row
        // is the cheapest one printed.
        let rows: Vec<(f64, bool)> = text
            .lines()
            .filter(|l| l.starts_with("  "))
            .map(|l| {
                let cost = l.split_whitespace().nth(1).unwrap().parse().unwrap();
                (cost, l.contains("chosen"))
            })
            .collect();
        assert_eq!(rows.len(), 4, "{text}");
        // The method column is padded, so every score ends at one column.
        let ends: Vec<usize> = text
            .lines()
            .filter(|l| l.starts_with("  "))
            .map(|l| l.trim_end_matches("  ← chosen").chars().count())
            .collect();
        assert!(ends.windows(2).all(|w| w[0] == w[1]), "{text}");
        let cheapest = rows.iter().map(|r| r.0).fold(f64::INFINITY, f64::min);
        assert!(
            rows.iter().any(|&(c, chosen)| chosen && c == cheapest),
            "{text}"
        );
        // Forcing a method is reported.
        let text = e
            .explain("ESTIMATE COUNT FROM src METHOD randompath")
            .unwrap();
        assert!(text.contains("forced"));
        // COUNT queries still explain fine (they short-circuit at run time).
        let _ = e.explain("ESTIMATE COUNT FROM src").unwrap();
    }

    #[test]
    fn loaded_dataset_supports_all_tasks() {
        let mut e = engine_with_data();
        let path = tmp("alltasks");
        e.save_dataset("src", &path).unwrap();
        e.load_dataset("copy", &path, DatasetConfig::default())
            .unwrap();
        let outcome = e.execute("DENSITY FROM copy GRID 8 8 SAMPLES 300").unwrap();
        assert!(matches!(outcome.result, TaskResult::Density { .. }));
        let outcome = e.execute("CLUSTER 2 FROM copy SAMPLES 200").unwrap();
        assert!(matches!(outcome.result, TaskResult::Cluster { .. }));
        std::fs::remove_file(path).ok();
    }
}
