//! `engine_ql`: the kernel reached through the query language, over 3-D
//! (x, y, t) records with document attributes. Closed loop, one thread.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use storm_connector::StRecord;
use storm_core::{SampleMode, SamplerKind, SpatialSampler};
use storm_engine::{CancelToken, DatasetConfig, QueryOutcome, StopReason, StormEngine, TaskResult};
use storm_estimators::OnlineStat;
use storm_geo::{Rect2, StPoint, StQuery, TimeRange};
use storm_rtree::Item;
use storm_store::Value;

use super::{
    layer_metrics, rate_metric, segment_medians, segment_rates, set_up_repeatedly, tail_diagnostic,
    Opts, Overhead,
};
use crate::gen::{self, Record, Window};
use crate::report::{Metric, Phase, WorkloadResult};
use crate::stats::{self, summarize};
use crate::trace::Tracer;

const DATASET: &str = "bench";
/// Relative CI half-width every sampled statement asks for.
const ERROR: f64 = 0.002;
/// An `insert_batch` of this many records follows every `INSERT_EVERY`
/// statements.
const INSERT_BATCH: usize = 256;
const INSERT_EVERY: usize = 64;
/// Insert batches of the timed phase that `inserts_per_s` is taken over.
const RATED_BATCHES: usize = 32;
/// Spatial windows: a 4 × 4 lattice of a fifth of the extent per axis,
/// each with half of the time span.
const LATTICE: usize = 4;
const FRAC: f64 = 0.2;
/// Records kept aside for the insert batches.
const SPARE: usize = 1 << 16;

fn n_records(opts: &Opts) -> usize {
    if opts.smoke {
        30_000
    } else {
        500_000
    }
}

/// The four statement shapes, cycled: what is computed, how it is sampled,
/// and whether the planner or the statement picks the method.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Template {
    AvgWr,
    SumWor,
    AvgWorRstree,
    CountRstree,
}

const TEMPLATES: [Template; 4] = [
    Template::AvgWr,
    Template::SumWor,
    Template::AvgWorRstree,
    Template::CountRstree,
];

/// A query box: window plus time range `[t0, t1)`.
#[derive(Debug, Clone, Copy)]
struct QBox {
    w: Window,
    t0: i64,
    t1: i64,
}

impl QBox {
    fn contains(&self, r: &Record) -> bool {
        self.w.contains(r.x, r.y) && r.t >= self.t0 && r.t < self.t1
    }
}

fn boxes(seed: u64) -> Vec<QBox> {
    gen::windows(LATTICE, FRAC, seed)
        .into_iter()
        .enumerate()
        .map(|(i, w)| {
            let t0 = (i as i64 % 3) * gen::T_SPAN / 4;
            QBox {
                w,
                t0,
                t1: t0 + gen::T_SPAN / 2,
            }
        })
        .collect()
}

fn statement(t: Template, b: &QBox) -> String {
    let head = match t {
        Template::AvgWr | Template::AvgWorRstree => "ESTIMATE AVG(v)",
        Template::SumWor => "ESTIMATE SUM(v)",
        Template::CountRstree => "ESTIMATE COUNT",
    };
    let tail = match t {
        Template::AvgWr => format!("ERROR {ERROR} MODE wr"),
        Template::SumWor => format!("ERROR {ERROR} MODE wor"),
        Template::AvgWorRstree => format!("ERROR {ERROR} MODE wor METHOD rstree"),
        Template::CountRstree => "METHOD rstree".to_owned(),
    };
    format!(
        "{head} FROM {DATASET} RANGE {} {} {} {} TIME {} {} {tail}",
        b.w.x0, b.w.y0, b.w.x1, b.w.y1, b.t0, b.t1
    )
}

fn st_record(r: &Record) -> StRecord {
    StRecord {
        point: StPoint::new(r.x, r.y, r.t),
        body: Value::object([("v".to_owned(), Value::Float(r.v))]),
    }
}

/// Data handed over → data set stored, indexed and frozen.
fn set_up(records: &[Record], seed: u64) -> StormEngine {
    let mut engine = StormEngine::new(seed);
    engine
        .create_dataset(
            DATASET,
            records.iter().map(st_record).collect(),
            DatasetConfig::default(),
        )
        .expect("fresh engine has no data set of this name");
    engine
}

/// Brute-force `(count, sum of v)` per box over the benchmark's own list.
fn oracle(records: &[Record], boxes: &[QBox]) -> Vec<(u64, f64)> {
    let mut acc = vec![(0u64, 0.0f64); boxes.len()];
    for r in records {
        for (b, a) in boxes.iter().zip(acc.iter_mut()) {
            if b.contains(r) {
                a.0 += 1;
                a.1 += r.v;
            }
        }
    }
    acc
}

/// One executed statement, kept for checking after the clock stops.
struct Executed {
    template: Template,
    qbox: usize,
    /// Spare records inserted before this statement ran.
    inserted: usize,
    done_ns: u64,
    ttfe_ms: f64,
    tte_ms: f64,
    outcome: QueryOutcome,
}

#[derive(Default)]
struct Loop {
    executed: Vec<Executed>,
    /// `(records, seconds)` per insert batch.
    inserts: Vec<(usize, f64)>,
    sent: u64,
    failed: u64,
    notes: Vec<String>,
}

/// Statements (and the insert batches between them) for `seconds`.
fn drive(
    engine: &mut StormEngine,
    boxes: &[QBox],
    spare: &[Record],
    inserted: &mut usize,
    issued: &mut usize,
    seconds: f64,
    tracer: &mut Tracer,
) -> Loop {
    let mut out = Loop::default();
    let dur_ns = (seconds * 1e9) as u64;
    let t0 = Instant::now();
    let cancel = CancelToken::new();
    while (t0.elapsed().as_nanos() as u64) < dur_ns {
        let j = *issued;
        *issued += 1;
        let template = TEMPLATES[j % TEMPLATES.len()];
        let qbox = (j / TEMPLATES.len()) % boxes.len();
        let ql = statement(template, &boxes[qbox]);
        let t = Instant::now();
        let mut first = None;
        let s = tracer.begin();
        let result = engine.execute_with(&ql, &cancel, &mut |_| {
            first.get_or_insert_with(|| t.elapsed());
        });
        tracer.end("engine", "execute", j as u64, None, s);
        let tte = t.elapsed();
        out.sent += 1;
        match result {
            Ok(outcome) => out.executed.push(Executed {
                template,
                qbox,
                inserted: *inserted,
                done_ns: t0.elapsed().as_nanos() as u64,
                ttfe_ms: first.unwrap_or(tte).as_secs_f64() * 1e3,
                tte_ms: tte.as_secs_f64() * 1e3,
                outcome,
            }),
            Err(e) => {
                out.failed += 1;
                out.notes.push(format!("{ql}: {e}"));
            }
        }
        if (j + 1).is_multiple_of(INSERT_EVERY) && *inserted + INSERT_BATCH <= spare.len() {
            let batch: Vec<StRecord> = spare[*inserted..*inserted + INSERT_BATCH]
                .iter()
                .map(st_record)
                .collect();
            let t = Instant::now();
            let s = tracer.begin();
            let result = engine.insert_batch(DATASET, batch);
            tracer.end("engine", "insert_batch", j as u64, None, s);
            out.sent += 1;
            match result {
                Ok(_) => {
                    *inserted += INSERT_BATCH;
                    out.inserts.push((INSERT_BATCH, t.elapsed().as_secs_f64()));
                }
                Err(e) => {
                    out.failed += 1;
                    out.notes.push(format!("insert_batch: {e}"));
                }
            }
        }
    }
    out
}

/// Checks every outcome against the oracle; returns how many were wrong
/// and the pooled CI coverage.
fn check(
    executed: &[Executed],
    boxes: &[QBox],
    base: &[(u64, f64)],
    spare: &[Record],
    notes: &mut Vec<String>,
) -> (u64, f64) {
    let mut wrong = 0u64;
    let (mut checkable, mut covered) = (0u64, 0u64);
    for e in executed {
        let b = &boxes[e.qbox];
        let (mut count, mut sum) = base[e.qbox];
        for r in spare[..e.inserted].iter().filter(|r| b.contains(r)) {
            count += 1;
            sum += r.v;
        }
        let stopped_right = match e.outcome.reason {
            StopReason::QualityReached => e.template != Template::CountRstree,
            StopReason::Exhausted => {
                e.template == Template::CountRstree || e.outcome.samples >= count.min(1)
            }
            _ => false,
        };
        let value_right = match (&e.outcome.result, e.template) {
            (TaskResult::Count { q }, Template::CountRstree) => *q as u64 == count,
            (TaskResult::Aggregate { estimate, .. }, t) if t != Template::CountRstree => {
                let truth = if t == Template::SumWor {
                    sum
                } else {
                    sum / count.max(1) as f64
                };
                if count > 0 {
                    checkable += 1;
                    let slack = 1e-9 * truth.abs();
                    covered += u64::from(
                        (estimate.value - truth).abs() <= estimate.half_width(0.95) + slack,
                    );
                }
                true
            }
            _ => false,
        };
        if !(stopped_right && value_right) {
            wrong += 1;
            notes.push(format!(
                "{:?} on box {}: {:?} after {} samples, result {:?} (oracle count {count})",
                e.template, e.qbox, e.outcome.reason, e.outcome.samples, e.outcome.result
            ));
        }
    }
    let needed = (0.9 * checkable as f64).ceil() as u64;
    (
        wrong + needed.saturating_sub(covered),
        covered as f64 / checkable.max(1) as f64,
    )
}

pub fn run(opts: &Opts) -> WorkloadResult {
    let n = n_records(opts);
    let all = gen::records(n + SPARE, opts.seed);
    let (records, spare) = all.split_at(n);
    let boxes = boxes(opts.seed);
    let t = Instant::now();
    let base = oracle(records, &boxes);
    let oracle_s = t.elapsed().as_secs_f64();
    if opts.trace {
        return trace(records, spare, &boxes, opts);
    }

    let (mut engine, setup_s) = set_up_repeatedly(|| set_up(records, opts.seed));
    let mut off = Tracer::new(false);
    let (mut inserted, mut issued) = (0usize, 0usize);
    let warm = drive(
        &mut engine,
        &boxes,
        spare,
        &mut inserted,
        &mut issued,
        opts.warmup_s(),
        &mut off,
    );
    let run = drive(
        &mut engine,
        &boxes,
        spare,
        &mut inserted,
        &mut issued,
        opts.seconds,
        &mut off,
    );
    let dur_ns = (opts.seconds * 1e9) as u64;

    let mut notes: Vec<String> = warm.notes.iter().chain(&run.notes).cloned().collect();
    let (warm_wrong, _) = check(&warm.executed, &boxes, &base, spare, &mut notes);
    let (run_wrong, coverage) = check(&run.executed, &boxes, &base, spare, &mut notes);
    notes.truncate(8);

    let mut metrics = Vec::new();
    let mut diagnostics = Vec::new();
    for (name, pick) in [
        ("ttfe", (|e: &Executed| e.ttfe_ms) as fn(&Executed) -> f64),
        ("tte", |e: &Executed| e.tte_ms),
    ] {
        let mut values: Vec<f64> = run.executed.iter().map(pick).collect();
        let s = summarize(&mut values).expect("at least one statement completes");
        let stamped: Vec<(u64, f64)> = run.executed.iter().map(|e| (e.done_ns, pick(e))).collect();
        metrics.push(
            Metric::new(format!("{name}_p50_ms"), s.p50, "ms")
                .n(s.n)
                .spread(stats::rel_spread(&segment_medians(&stamped, dur_ns))),
        );
        tail_diagnostic(name, Some(s), &mut diagnostics);
    }
    metrics.push(rate_metric(
        "sessions_per_s",
        segment_rates(run.executed.iter().map(|e| (e.done_ns, 1.0)), dur_ns),
    ));
    metrics.push(rate_metric(
        "samples_per_s",
        segment_rates(
            run.executed
                .iter()
                .map(|e| (e.done_ns, e.outcome.samples as f64)),
            dur_ns,
        ),
    ));
    // Records acknowledged per second inside insert_batch: the median
    // batch, so the odd batch that splits many nodes does not decide it.
    // Batches speed up through a run (the bulk-loaded nodes start full and
    // split on the first inserts): a trend, not noise, so there is no
    // segment spread, and only the first `RATED_BATCHES` count, so that a
    // run that fits more statements in does not reach further up the trend.
    let batch_rates: Vec<f64> = run
        .inserts
        .iter()
        .take(RATED_BATCHES)
        .map(|&(records, s)| records as f64 / s)
        .collect();
    metrics.push(if batch_rates.is_empty() {
        Metric::new("inserts_per_s", f64::NAN, "1/s")
    } else {
        Metric::new("inserts_per_s", stats::median(&batch_rates), "1/s").n(batch_rates.len())
    });
    metrics.push(Metric::new("setup_s", setup_s, "s").n(super::SETUPS));
    metrics.push(Metric::new("peak_rss_mb", super::peak_rss_mb(), "MiB"));

    diagnostics.push(Metric::new("ci_coverage", coverage, "share"));
    diagnostics.push(Metric::new("records_inserted", inserted as f64, "count"));
    diagnostics.push(Metric::new("oracle_s", oracle_s, "s"));
    for t in TEMPLATES {
        let mut v: Vec<f64> = run
            .executed
            .iter()
            .filter(|e| e.template == t)
            .map(|e| e.tte_ms)
            .collect();
        if let Some(s) = summarize(&mut v) {
            diagnostics.push(Metric::new(format!("tte_p50_ms.{t:?}"), s.p50, "ms").n(s.n));
        }
    }
    WorkloadResult {
        workload: "engine_ql",
        n,
        seconds: opts.seconds,
        metrics,
        diagnostics,
        phases: vec![
            Phase {
                name: "warm-up",
                sent: warm.sent,
                failed: warm.failed + warm_wrong,
                wrong: warm_wrong,
            },
            Phase {
                name: "closed-loop",
                sent: run.sent,
                failed: run.failed + run_wrong,
                wrong: run_wrong,
            },
        ],
        notes,
    }
}

/// The per-layer run. `query` is parse + plan, `frozen` the kernel draws
/// of the `METHOD rstree` statements, `estimators` the pushes; what is
/// left of a statement — executor loop, attribute reads from `store`, and
/// the LS-tree draws of planner-chosen statements, which have no layer of
/// their own — is `engine`.
fn trace(records: &[Record], spare: &[Record], boxes: &[QBox], opts: &Opts) -> WorkloadResult {
    let mut tracer = Tracer::new(true);
    let mut off = Tracer::new(false);
    let mut engine = set_up(records, opts.seed);
    let (mut inserted, mut issued) = (0usize, 0usize);
    let warm = drive(
        &mut engine,
        boxes,
        spare,
        &mut inserted,
        &mut issued,
        opts.warmup_s() / 2.0,
        &mut off,
    );

    // The statement list, replayed at each entry point. No inserts inside
    // the ladder: the re-freeze they cause is measured on its own below.
    let statements = if opts.smoke { 64 } else { 512 };
    let list: Vec<(Template, usize)> = (0..statements)
        .map(|j| {
            (
                TEMPLATES[j % TEMPLATES.len()],
                (j / TEMPLATES.len()) % boxes.len(),
            )
        })
        .collect();
    let mut failed = 0u64;

    // Top rung: StormEngine::execute.
    let mut outcomes: Vec<Option<QueryOutcome>> = Vec::with_capacity(statements);
    let t = Instant::now();
    for (j, &(template, b)) in list.iter().enumerate() {
        let s = tracer.begin();
        let outcome = engine.execute(&statement(template, &boxes[b])).ok();
        tracer.end("engine", "statement", j as u64, None, s);
        failed += u64::from(outcome.is_none());
        outcomes.push(outcome);
    }
    let engine_s = t.elapsed().as_secs_f64();

    // storm-query: parse and plan (the plan asks the index for an exact
    // count, as execute does).
    let t = Instant::now();
    for (j, &(template, b)) in list.iter().enumerate() {
        let s = tracer.begin();
        let planned = storm_query::parse(&statement(template, &boxes[b]))
            .map_err(|e| e.to_string())
            .and_then(|q| engine.plan_only(q).map_err(|e| e.to_string()));
        tracer.end("query", "parse_plan", j as u64, None, s);
        failed += u64::from(planned.is_err());
    }
    let query_s = t.elapsed().as_secs_f64();

    // The frozen kernel under the METHOD rstree statements: the same box,
    // the same number of samples, in the executor's block size.
    let frozen = engine
        .dataset(DATASET)
        .expect("data set exists")
        .frozen()
        .cloned();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut drawn: Vec<Item<3>> = Vec::new();
    let mut ids: Vec<u64> = Vec::new();
    let mut frozen_s = 0.0;
    let mut kernel_samples = 0u64;
    if let Some(frozen) = &frozen {
        for (j, &(template, b)) in list.iter().enumerate() {
            let Some(outcome) = &outcomes[j] else {
                continue;
            };
            if template != Template::AvgWorRstree {
                continue;
            }
            let qb = &boxes[b];
            let rect3 = StQuery::new(
                Rect2::from_corners(
                    storm_geo::Point2::xy(qb.w.x0, qb.w.y0),
                    storm_geo::Point2::xy(qb.w.x1, qb.w.y1),
                ),
                TimeRange::new(qb.t0, qb.t1),
            )
            .to_rect3()
            .expect("non-empty time range");
            let s = tracer.begin();
            let t = Instant::now();
            let mut sampler = frozen.sampler(&rect3, SampleMode::WithoutReplacement);
            drawn.clear();
            while (drawn.len() as u64) < outcome.samples {
                if sampler.next_batch(&mut rng, &mut drawn, 16) == 0 {
                    break;
                }
            }
            frozen_s += t.elapsed().as_secs_f64();
            tracer.end("frozen", "draws", j as u64, None, s);
            kernel_samples += drawn.len() as u64;
            ids.extend(drawn.iter().map(|it| it.id));
        }
    } else {
        failed += 1;
    }

    // Attribute reads: Dataset::number on the ids the kernel drew.
    let ds = engine.dataset(DATASET).expect("data set exists");
    let t = Instant::now();
    let mut column: Vec<f64> = Vec::with_capacity(ids.len());
    for &id in &ids {
        column.push(ds.number(id, "v").unwrap_or(f64::NAN));
    }
    let lookup_ns = t.elapsed().as_secs_f64() * 1e9 / ids.len().max(1) as f64;

    // Estimators: one push per sample any statement consumed.
    let total_samples: u64 = outcomes.iter().flatten().map(|o| o.samples).sum();
    let t = Instant::now();
    let mut stat = OnlineStat::new();
    let mut sink = 0.0;
    for i in 0..total_samples as usize {
        stat.push(column.get(i % column.len().max(1)).copied().unwrap_or(1.0));
        if i % 16 == 15 {
            sink += stat.mean_estimate().std_err;
        }
    }
    let est_s = t.elapsed().as_secs_f64();
    std::hint::black_box(sink);

    // An insert batch, then the first METHOD rstree statement after it
    // (which pays the re-freeze), three times.
    let mut insert_us = Vec::new();
    let mut first_after_ms = Vec::new();
    for qbox in &boxes[..3] {
        let batch: Vec<StRecord> = spare[inserted..inserted + INSERT_BATCH]
            .iter()
            .map(st_record)
            .collect();
        let t = Instant::now();
        failed += u64::from(engine.insert_batch(DATASET, batch).is_err());
        insert_us.push(t.elapsed().as_secs_f64() * 1e6 / INSERT_BATCH as f64);
        inserted += INSERT_BATCH;
        let t = Instant::now();
        failed += u64::from(
            engine
                .execute(&statement(Template::AvgWorRstree, qbox))
                .is_err(),
        );
        first_after_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }

    // The generator, spans off and on.
    let mut notes = warm.notes.clone();
    let overhead = Overhead::measure(opts.seconds, &mut tracer, |slice_s, recorder, phase| {
        let out = drive(
            &mut engine,
            boxes,
            spare,
            &mut inserted,
            &mut issued,
            slice_s,
            recorder,
        );
        let slice_ns = (slice_s * 1e9) as u64;
        let done = out.executed.iter().filter(|e| e.done_ns < slice_ns).count();
        phase.sent += out.sent;
        phase.failed += out.failed;
        notes.extend(out.notes);
        done as f64 / slice_s
    });

    // Not a ladder of nested entry points (parse + plan, kernel draws and
    // estimator pushes are siblings under `execute`), so the self times
    // are the measurements themselves and `engine` is the remainder.
    let rest_s = (engine_s - query_s - frozen_s - est_s).max(0.0);
    let selfs = [
        ("engine", rest_s),
        ("query", query_s),
        ("frozen", frozen_s),
        ("estimators", est_s),
    ];
    let metrics = layer_metrics(&selfs, engine_s, statements, &overhead);

    let mut d = vec![
        Metric::new(
            "query.parse_plan_us",
            query_s * 1e6 / statements as f64,
            "us",
        )
        .n(statements),
        Metric::new(
            "engine.self_us_per_statement",
            rest_s * 1e6 / statements as f64,
            "us",
        ),
        Metric::new(
            "engine.insert_us_per_record",
            stats::median(&insert_us),
            "us",
        )
        .n(insert_us.len()),
        Metric::new(
            "engine.first_query_after_insert_ms",
            stats::median(&first_after_ms),
            "ms",
        )
        .n(first_after_ms.len()),
        Metric::new("engine.attr_lookup_ns", lookup_ns, "ns").n(ids.len()),
        Metric::new(
            "frozen.ns_per_sample_wor",
            frozen_s * 1e9 / kernel_samples.max(1) as f64,
            "ns",
        )
        .n(kernel_samples as usize),
        Metric::new(
            "estimators.ns_per_sample",
            est_s * 1e9 / total_samples.max(1) as f64,
            "ns",
        ),
        Metric::new(
            "samples_per_statement",
            total_samples as f64 / statements as f64,
            "count",
        ),
        Metric::new("untraced_statements_per_s", overhead.plain_rate, "1/s"),
        Metric::new("traced_statements_per_s", overhead.traced_rate, "1/s"),
        Metric::new("spans", tracer.len() as f64, "count"),
    ];
    for kind in [
        SamplerKind::QueryFirst,
        SamplerKind::SampleFirst,
        SamplerKind::RandomPath,
        SamplerKind::LsTree,
        SamplerKind::RsTree,
    ] {
        let served = outcomes
            .iter()
            .flatten()
            .filter(|o| o.sampler == kind)
            .count();
        d.push(Metric::new(
            format!("statements_served_by.{kind}"),
            served as f64,
            "count",
        ));
    }

    let result = WorkloadResult {
        workload: "engine_ql",
        n: records.len(),
        seconds: opts.seconds,
        metrics,
        diagnostics: d,
        phases: [
            Phase {
                name: "warm-up",
                sent: warm.sent,
                failed: warm.failed,
                wrong: 0,
            },
            Phase {
                name: "ladder",
                sent: 2 * statements as u64 + 6,
                failed,
                wrong: 0,
            },
        ]
        .into_iter()
        .chain(overhead.phases)
        .collect(),
        notes: notes.into_iter().take(8).collect(),
    };
    super::write_trace(&tracer, &result);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statements_parse_and_name_their_box() {
        let b = boxes(7)[0];
        for t in TEMPLATES {
            let q = storm_query::parse(&statement(t, &b)).expect("statement parses");
            let r = q.range.expect("has a range");
            assert_eq!(
                (r.lo().x(), r.hi().y()),
                (b.w.x0, b.w.y1),
                "coordinates survive the text"
            );
            assert_eq!(q.time, Some(TimeRange::new(b.t0, b.t1)));
            assert_eq!(
                q.method.is_some(),
                matches!(t, Template::AvgWorRstree | Template::CountRstree)
            );
        }
    }

    #[test]
    fn oracle_honours_the_half_open_time_range() {
        let b = QBox {
            w: Window::FULL,
            t0: 10,
            t1: 20,
        };
        let at = |t| Record {
            x: 1500.0,
            y: 1500.0,
            t,
            v: 2.0,
        };
        let got = oracle(&[at(9), at(10), at(19), at(20)], &[b]);
        assert_eq!(got, vec![(2, 4.0)]);
    }
}
