//! Results: what a workload reports, how it is printed and stored, and how
//! two result files are judged against the bounds in `BENCHMARK.json`.

use std::collections::BTreeMap;

use storm_store::{json, Value};

/// The benchmark's contract, baked in at build time so the binary and the
/// file the driver reads cannot disagree about names, units or bounds.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

pub fn obj<const N: usize>(pairs: [(&str, Value); N]) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// A JSON number; a value that is not finite becomes `null`.
pub fn num(x: f64) -> Value {
    if x.is_finite() {
        Value::Float(x)
    } else {
        Value::Null
    }
}

fn float(v: Option<&Value>) -> Option<f64> {
    v.and_then(|v| v.as_float().or_else(|| v.as_int().map(|i| i as f64)))
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's value by which the metric may get worse.
    /// Per-layer metrics have none.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

pub fn spec() -> Spec {
    parse_spec(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed")
}

fn parse_spec(text: &str) -> Result<Spec, String> {
    let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let list = |key: &str| -> Result<&[Value], String> {
        doc.get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("BENCHMARK.json: no array '{key}'"))
    };
    let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
        list(key)?
            .iter()
            .map(|m| {
                let text = |k: &str| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .map(str::to_owned)
                        .ok_or_else(|| format!("BENCHMARK.json: metric without '{k}'"))
                };
                Ok(MetricSpec {
                    name: text("name")?,
                    unit: text("unit")?,
                    higher_is_better: text("better")? == "higher",
                    bound: float(m.get("bound")),
                })
            })
            .collect()
    };
    Ok(Spec {
        run_seconds: float(doc.get("run_seconds")).ok_or("BENCHMARK.json: no run_seconds")?,
        workloads: list("workloads")?
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_owned))
            .collect(),
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many observations stand behind the value (sessions for a
    /// percentile, set-ups for `setup_s`).
    pub n: Option<usize>,
    /// `(max − min) / median` of the value across the run's three
    /// segments: within-run noise.
    pub spread: Option<f64>,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            n: None,
            spread: None,
        }
    }

    pub fn n(mut self, n: usize) -> Self {
        self.n = Some(n);
        self
    }

    pub fn spread(mut self, spread: f64) -> Self {
        self.spread = Some(spread);
        self
    }

    fn to_value(&self) -> Value {
        let mut m = BTreeMap::new();
        m.insert("value".to_owned(), num(self.value));
        m.insert("unit".to_owned(), Value::Str(self.unit.to_owned()));
        if let Some(n) = self.n {
            m.insert("n".to_owned(), Value::Int(n as i64));
        }
        if let Some(s) = self.spread {
            m.insert("spread".to_owned(), num(s));
        }
        Value::Object(m)
    }
}

/// Requests sent, succeeded and failed in one phase of a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    pub name: &'static str,
    pub sent: u64,
    /// Operations that did not succeed: refused, I/O error, too slow, or
    /// a wrong output.
    pub failed: u64,
    /// Of those, the ones whose output failed a correctness check.
    pub wrong: u64,
}

impl Phase {
    /// A phase with nothing sent yet.
    pub fn new(name: &'static str) -> Self {
        Phase {
            name,
            sent: 0,
            failed: 0,
            wrong: 0,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub workload: &'static str,
    /// Items in the index when the timed phase began.
    pub n: usize,
    pub seconds: f64,
    /// The metrics `BENCHMARK.json` lists (end-to-end for a plain run,
    /// per-layer for a traced one).
    pub metrics: Vec<Metric>,
    /// Everything else worth reading: tails, spreads, counts, and for a
    /// traced run the named per-layer measurements.
    pub diagnostics: Vec<Metric>,
    pub phases: Vec<Phase>,
    pub notes: Vec<String>,
}

impl WorkloadResult {
    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.sent).sum()
    }

    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }

    /// Outputs that failed a correctness check.
    pub fn wrong(&self) -> u64 {
        self.phases.iter().map(|p| p.wrong).sum()
    }

    pub fn fail_share(&self) -> f64 {
        self.failed() as f64 / self.attempted().max(1) as f64
    }

    /// The line the driver reads: last on standard output.
    pub fn driver_line(&self) -> String {
        let metrics: BTreeMap<String, Value> = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    obj([
                        ("value", num(m.value)),
                        ("unit", Value::Str(m.unit.to_owned())),
                    ]),
                )
            })
            .collect();
        json::to_string(&obj([
            ("correct", Value::Bool(self.wrong() == 0)),
            ("attempted", Value::Int(self.attempted().max(1) as i64)),
            ("failed", Value::Int(self.failed() as i64)),
            ("metrics", Value::Object(metrics)),
        ]))
    }

    pub fn to_value(&self) -> Value {
        let metrics = |ms: &[Metric]| {
            Value::Object(ms.iter().map(|m| (m.name.clone(), m.to_value())).collect())
        };
        obj([
            ("workload", Value::Str(self.workload.to_owned())),
            ("n", Value::Int(self.n as i64)),
            ("seconds", num(self.seconds)),
            ("metrics", metrics(&self.metrics)),
            ("diagnostics", metrics(&self.diagnostics)),
            ("fail_share", num(self.fail_share())),
            (
                "phases",
                Value::Array(
                    self.phases
                        .iter()
                        .map(|p| {
                            obj([
                                ("name", Value::Str(p.name.to_owned())),
                                ("sent", Value::Int(p.sent as i64)),
                                ("succeeded", Value::Int((p.sent - p.failed) as i64)),
                                ("failed", Value::Int(p.failed as i64)),
                                ("wrong", Value::Int(p.wrong as i64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "notes",
                Value::Array(self.notes.iter().cloned().map(Value::Str).collect()),
            ),
        ])
    }

    /// The table a person reads.
    pub fn print(&self) {
        println!(
            "== {} (n = {}, {:.1} s measured)",
            self.workload, self.n, self.seconds
        );
        let row = |m: &Metric| {
            let mut extra = Vec::new();
            if let Some(n) = m.n {
                extra.push(format!("n={n}"));
            }
            if let Some(s) = m.spread {
                extra.push(format!("segment spread {:.1}%", s * 100.0));
            }
            let extra = if extra.is_empty() {
                String::new()
            } else {
                format!("  ({})", extra.join(", "))
            };
            println!("  {:<34} {:>14.4} {}{}", m.name, m.value, m.unit, extra);
        };
        self.metrics.iter().for_each(row);
        if !self.diagnostics.is_empty() {
            println!("  -- diagnostics");
            self.diagnostics.iter().for_each(row);
        }
        for p in &self.phases {
            println!(
                "  phase {:<12} sent {:>8}  succeeded {:>8}  failed {:>6}  (wrong output {})",
                p.name,
                p.sent,
                p.sent - p.failed,
                p.failed,
                p.wrong
            );
        }
        println!("  fail_share {:.6}", self.fail_share());
        for note in &self.notes {
            println!("  note: {note}");
        }
    }
}

/// Where and when a result was taken.
pub fn meta(seed: u64) -> Value {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned());
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    obj([
        ("commit", Value::Str(commit)),
        ("cores", Value::Int(cores as i64)),
        ("seed", Value::Int(seed as i64)),
        ("date", Value::Str(utc_date(secs))),
    ])
}

/// `YYYY-MM-DD` (UTC) of a Unix time, by the days-to-civil algorithm.
fn utc_date(unix_secs: u64) -> String {
    let z = (unix_secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

/// One complete run as stored in a result file: where and when, and each
/// workload's [`WorkloadResult::to_value`].
pub fn run_value(meta: Value, workloads: Vec<Value>) -> Value {
    obj([("meta", meta), ("workloads", Value::Array(workloads))])
}

/// Appends `run` to a trajectory file's text (`{"runs": [...]}`, one run
/// per line) and returns the new text. Earlier runs are kept as they are.
pub fn append_run(existing: Option<&str>, run: &Value) -> Result<String, String> {
    let mut runs: Vec<Value> = match existing {
        None => Vec::new(),
        Some(text) => json::parse(text)
            .map_err(|e| format!("trajectory file: {e:?}"))?
            .get("runs")
            .and_then(Value::as_array)
            .ok_or("trajectory file: no 'runs' array")?
            .to_vec(),
    };
    runs.push(run.clone());
    let lines: Vec<String> = runs.iter().map(json::to_string).collect();
    Ok(format!("{{\"runs\": [\n{}\n]}}\n", lines.join(",\n")))
}

/// Reads a result file: either one run, or a trajectory whose last run is
/// taken.
pub fn load_run(text: &str) -> Result<Value, String> {
    let doc = json::parse(text).map_err(|e| format!("{e:?}"))?;
    match doc.get("runs").and_then(Value::as_array) {
        Some(runs) => runs.last().cloned().ok_or_else(|| "no runs in file".into()),
        None => Ok(doc),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    /// The within-run spread of either side exceeds the bound, so a
    /// difference of the bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// By how much `b` is worse than `a`, as a share of `a` (negative when
    /// it is better).
    pub worse_by: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

pub fn judge(
    a: f64,
    b: f64,
    spread: Option<f64>,
    higher_is_better: bool,
    bound: f64,
) -> (f64, Verdict) {
    let worse_by = if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    };
    let verdict = if spread.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (worse_by, verdict)
}

/// Compares run `b` against run `a`: one row per workload and end-to-end
/// metric present in both.
pub fn compare(a: &Value, b: &Value, spec: &Spec) -> Vec<Comparison> {
    let by_name = |run: &Value| -> BTreeMap<String, Value> {
        run.get("workloads")
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|w| Some((w.get("workload")?.as_str()?.to_owned(), w.clone())))
            .collect()
    };
    let (wa, wb) = (by_name(a), by_name(b));
    let mut rows = Vec::new();
    for (workload, ra) in &wa {
        let Some(rb) = wb.get(workload) else { continue };
        for m in &spec.end_to_end {
            let Some(bound) = m.bound else { continue };
            let field = |run: &Value, key: &str| {
                float(run.get_path(&format!("metrics.{}", m.name))?.get(key))
            };
            let (Some(va), Some(vb)) = (field(ra, "value"), field(rb, "value")) else {
                continue;
            };
            let spread = match (field(ra, "spread"), field(rb, "spread")) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            };
            let (worse_by, verdict) = judge(va, vb, spread, m.higher_is_better, bound);
            rows.push(Comparison {
                workload: workload.clone(),
                metric: m.name.clone(),
                a: va,
                b: vb,
                worse_by,
                bound,
                verdict,
            });
        }
    }
    rows
}

pub fn print_comparison(rows: &[Comparison]) {
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for r in rows {
        println!(
            "{:<14} {:<16} {:>14.4} {:>14.4} {:>8.1}% {:>6.0}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.bound * 100.0,
            r.verdict.as_str()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_contract_parses_and_has_the_required_shape() {
        let s = spec();
        assert!((1.0..=60.0).contains(&s.run_seconds));
        assert!((2..=8).contains(&s.workloads.len()));
        let setup = s.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        assert!(s
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(!s.per_layer.is_empty());
        assert!(s.per_layer.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        use Verdict::*;
        // Lower is better (a latency), bound 10 %.
        assert_eq!(judge(10.0, 10.9, Some(0.02), false, 0.1).1, Same);
        assert_eq!(judge(10.0, 11.1, Some(0.02), false, 0.1).1, Worse);
        assert_eq!(judge(10.0, 8.9, None, false, 0.1).1, Better);
        // Higher is better (a throughput): a drop is worse.
        assert_eq!(judge(1000.0, 880.0, Some(0.05), true, 0.1).1, Worse);
        assert_eq!(judge(1000.0, 1200.0, Some(0.05), true, 0.1).1, Better);
        assert_eq!(judge(1000.0, 950.0, Some(0.05), true, 0.1).1, Same);
        // Noise wider than the bound: no verdict either way.
        assert_eq!(judge(1000.0, 500.0, Some(0.3), true, 0.1).1, Unresolved);
        let (by, _) = judge(200.0, 150.0, None, true, 0.1);
        assert!((by - 0.25).abs() < 1e-12);
    }

    fn run_with(value: f64, spread: f64) -> Value {
        let m = Metric::new("sessions_per_s", value, "1/s").spread(spread);
        let r = WorkloadResult {
            workload: "serve_short",
            n: 8,
            seconds: 1.0,
            metrics: vec![m, Metric::new("not_in_contract", 1.0, "ms")],
            diagnostics: vec![],
            phases: vec![Phase {
                name: "closed",
                sent: 10,
                failed: 0,
                wrong: 0,
            }],
            notes: vec![],
        };
        run_value(obj([("seed", Value::Int(1))]), vec![r.to_value()])
    }

    #[test]
    fn compare_reads_stored_runs_and_skips_unknown_metrics() {
        let s = spec();
        let rows = compare(&run_with(1000.0, 0.01), &run_with(700.0, 0.02), &s);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].metric, "sessions_per_s");
        assert_eq!(rows[0].verdict, Verdict::Worse);
        let rows = compare(&run_with(1000.0, 0.01), &run_with(700.0, 0.5), &s);
        assert_eq!(rows[0].verdict, Verdict::Unresolved);
    }

    #[test]
    fn append_keeps_earlier_runs_and_load_takes_the_last() {
        let first = append_run(None, &run_with(1.0, 0.0)).unwrap();
        let second = append_run(Some(&first), &run_with(2.0, 0.0)).unwrap();
        assert!(second.starts_with(first.trim_end_matches("\n]}\n")));
        let doc = json::parse(&second).unwrap();
        assert_eq!(doc.get("runs").unwrap().as_array().unwrap().len(), 2);
        let last = load_run(&second).unwrap();
        let v = last.get("workloads").unwrap().as_array().unwrap()[0]
            .get_path("metrics.sessions_per_s.value")
            .and_then(Value::as_float);
        assert_eq!(v, Some(2.0));
        assert!(append_run(Some("{\"nope\": 1}"), &run_with(1.0, 0.0)).is_err());
        // A single-run file loads as itself.
        let single = json::to_string(&run_with(3.0, 0.0));
        assert_eq!(load_run(&single).unwrap(), run_with(3.0, 0.0));
    }

    #[test]
    fn driver_line_has_exactly_the_four_keys() {
        let r = WorkloadResult {
            workload: "w",
            n: 1,
            seconds: 1.0,
            metrics: vec![Metric::new("setup_s", 0.5, "s")],
            diagnostics: vec![Metric::new("x", 1.0, "ms")],
            phases: vec![Phase {
                name: "p",
                sent: 4,
                failed: 1,
                wrong: 0,
            }],
            notes: vec![],
        };
        let line = json::parse(&r.driver_line()).unwrap();
        let keys: Vec<&String> = line.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(
            line.get("correct"),
            Some(&Value::Bool(true)),
            "slow is not wrong"
        );
        assert_eq!(line.get("failed"), Some(&Value::Int(1)));
        assert_eq!(line.get("attempted"), Some(&Value::Int(4)));
        assert_eq!(
            line.get_path("metrics.setup_s.unit"),
            Some(&Value::Str("s".into()))
        );
    }

    #[test]
    fn dates_come_out_right() {
        assert_eq!(utc_date(0), "1970-01-01");
        assert_eq!(utc_date(951_782_400), "2000-02-29");
        assert_eq!(utc_date(1_790_294_400), "2026-09-25");
    }
}
