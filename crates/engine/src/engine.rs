//! The `StormEngine` facade.

use std::collections::HashMap;

use rand::{rngs::StdRng, SeedableRng};
use storm_connector::{DataSource, FieldMapping, StRecord};
use storm_query::{plan::plan, Plan, Query};
use storm_store::DocId;

use crate::dataset::{check_point, Dataset, DatasetConfig};
use crate::exec;
use crate::session::{CancelToken, Progress, QueryOutcome};
use crate::EngineError;

/// Summary of a data import.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImportReport {
    /// Records successfully imported and indexed.
    pub imported: usize,
    /// Records skipped by a lenient mapping.
    pub skipped: usize,
}

/// The STORM engine: data sets, import, updates, and online queries.
///
/// All randomness flows through one seeded generator, so an engine built
/// with the same seed over the same data replays identically — essential
/// for the reproducibility of the experiments in `storm-bench`.
#[derive(Debug)]
pub struct StormEngine {
    datasets: HashMap<String, Dataset>,
    rng: StdRng,
}

impl StormEngine {
    /// Creates an engine with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        StormEngine {
            datasets: HashMap::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Registers a data set built from already-mapped records (refused
    /// whole if a record's location is not finite).
    pub fn create_dataset(
        &mut self,
        name: &str,
        records: Vec<StRecord>,
        cfg: DatasetConfig,
    ) -> Result<&Dataset, EngineError> {
        if self.datasets.contains_key(name) {
            return Err(EngineError::DatasetExists(name.to_owned()));
        }
        let ds = Dataset::build(name, records, cfg)?;
        Ok(self.datasets.entry(name.to_owned()).or_insert(ds))
    }

    /// Imports a data source through the connector: stream records, map
    /// them onto the spatio-temporal schema, build storage and indexes —
    /// the paper's "data import" demo component.
    pub fn import(
        &mut self,
        name: &str,
        source: &mut dyn DataSource,
        mapping: &FieldMapping,
        cfg: DatasetConfig,
    ) -> Result<ImportReport, EngineError> {
        if self.datasets.contains_key(name) {
            return Err(EngineError::DatasetExists(name.to_owned()));
        }
        let mut records = Vec::new();
        let mut skipped = 0usize;
        let mut record_no = 0usize;
        while let Some(raw) = source.next_record() {
            record_no += 1;
            let raw = raw?;
            match mapping.extract(&raw, record_no)? {
                Some(record) => records.push(record),
                None => skipped += 1,
            }
        }
        let imported = records.len();
        self.create_dataset(name, records, cfg)?;
        Ok(ImportReport { imported, skipped })
    }

    /// Names of all registered data sets.
    pub fn dataset_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.datasets.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// A registered data set.
    pub fn dataset(&self, name: &str) -> Result<&Dataset, EngineError> {
        self.datasets
            .get(name)
            .ok_or_else(|| EngineError::NoSuchDataset(name.to_owned()))
    }

    fn dataset_mut(&mut self, name: &str) -> Result<&mut Dataset, EngineError> {
        self.datasets
            .get_mut(name)
            .ok_or_else(|| EngineError::NoSuchDataset(name.to_owned()))
    }

    /// Installs a fault-injection hook on a data set's storage read path
    /// (chaos/test runs); pass the plan as `Arc<FaultPlan>`. Queries keep
    /// running under faults and report `io_faults` in their outcomes.
    pub fn set_fault_hook(
        &mut self,
        dataset: &str,
        hook: std::sync::Arc<dyn crate::FaultHook>,
    ) -> Result<(), EngineError> {
        self.dataset_mut(dataset)?.set_fault_hook(hook);
        Ok(())
    }

    /// Removes a data set's storage fault hook.
    pub fn clear_fault_hook(&mut self, dataset: &str) -> Result<(), EngineError> {
        self.dataset_mut(dataset)?.clear_fault_hook();
        Ok(())
    }

    /// Inserts one record into a data set (the update manager keeps every
    /// index consistent); a location that is not finite is refused.
    pub fn insert(&mut self, dataset: &str, record: StRecord) -> Result<DocId, EngineError> {
        self.dataset_mut(dataset)?.insert(record)
    }

    /// Inserts a batch of records into a data set — the streaming-ingest
    /// entry point: a live feed (e.g. `storm_workload::tweets::TweetStream`
    /// arrival batches) is absorbed one batch at a time while queries
    /// between batches see every record inserted so far. A batch holding a
    /// record whose location is not finite is refused whole.
    pub fn insert_batch(
        &mut self,
        dataset: &str,
        records: Vec<StRecord>,
    ) -> Result<Vec<DocId>, EngineError> {
        let ds = self.dataset_mut(dataset)?;
        records.iter().try_for_each(|r| check_point(&r.point))?;
        records.into_iter().map(|r| ds.insert(r)).collect()
    }

    /// Removes one record from a data set.
    pub fn remove(&mut self, dataset: &str, id: DocId) -> Result<bool, EngineError> {
        Ok(self.dataset_mut(dataset)?.remove(id))
    }

    /// Parses, plans, and runs a STORM-QL query to completion (no progress
    /// callback, no cancellation).
    pub fn execute(&mut self, ql: &str) -> Result<QueryOutcome, EngineError> {
        self.execute_with(ql, &CancelToken::new(), &mut |_| {})
    }

    /// Parses, plans, and runs a STORM-QL query with progress streaming and
    /// cooperative cancellation — the full interactive lifecycle.
    pub fn execute_with(
        &mut self,
        ql: &str,
        cancel: &CancelToken,
        on_progress: &mut dyn FnMut(&Progress),
    ) -> Result<QueryOutcome, EngineError> {
        let query = storm_query::parse(ql)?;
        self.execute_query(query, cancel, on_progress)
    }

    /// Plans and runs an already-parsed query.
    pub fn execute_query(
        &mut self,
        query: Query,
        cancel: &CancelToken,
        on_progress: &mut dyn FnMut(&Progress),
    ) -> Result<QueryOutcome, EngineError> {
        let rng = &mut self.rng;
        let ds = self
            .datasets
            .get_mut(&query.dataset)
            .ok_or_else(|| EngineError::NoSuchDataset(query.dataset.clone()))?;
        let plan = plan_on(ds, query)?;
        exec::run_plan(ds, &plan, rng, cancel, on_progress)
    }

    /// `EXPLAIN`: parses and plans a query without running it, returning a
    /// human-readable report of what the optimizer saw and chose.
    pub fn explain(&self, ql: &str) -> Result<String, EngineError> {
        use std::fmt::Write;
        use storm_core::cost::{self, CostInputs};

        let query = storm_query::parse(ql)?;
        let ds = self.dataset(&query.dataset)?;
        let stats = ds.stats();
        let plan = self.plan_only(query)?;
        let inputs = CostInputs {
            n: stats.n,
            q_est: plan.q_est,
            k_est: plan.k_est,
            block: stats.block,
            height: stats.height,
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "dataset: {} (N={}, height={}, B={})",
            plan.query.dataset, stats.n, stats.height, stats.block
        );
        let _ = writeln!(out, "task:    {:?}", plan.query.task);
        let _ = writeln!(
            out,
            "range:   {} | time {:?}",
            plan.st_query.rect, plan.query.time
        );
        let _ = writeln!(
            out,
            "q (exact from counts) = {} | expected k = {}",
            plan.q_est, plan.k_est
        );
        let _ = writeln!(out, "estimated I/O cost per method:");
        for (kind, cost) in cost::scores(&inputs, plan.query.mode) {
            let marker = if kind == plan.sampler {
                "  ← chosen"
            } else {
                ""
            };
            let _ = writeln!(out, "  {kind:<12} {cost:>14.1}{marker}");
        }
        if plan.query.method.is_some() {
            let _ = writeln!(out, "(method forced by the query's METHOD clause)");
        } else if plan.k_est >= plan.q_est {
            let _ = writeln!(out, "(k >= q: the whole result is read, so QueryFirst)");
        }
        Ok(out)
    }

    /// Convenience used by tests and benches: plan a query without running
    /// it (exposes the optimizer's choice).
    pub fn plan_only(&self, query: Query) -> Result<Plan, EngineError> {
        plan_on(self.dataset(&query.dataset)?, query)
    }
}

/// Plans `query` against `ds`: exact `q` from aggregate counts (an
/// `O(r(N))` count-only pass), then the optimizer's method choice.
fn plan_on(ds: &Dataset, query: Query) -> Result<Plan, EngineError> {
    let stats = ds.stats();
    let probe = storm_geo::StQuery::new(query.range.unwrap_or(stats.bounds), query.time_range());
    let q_est = match probe.to_rect3() {
        Some(rect3) => ds.exact_count(&rect3),
        None => 0,
    };
    Ok(plan(query, &stats, q_est)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{StopReason, TaskResult};
    use storm_geo::StPoint;
    use storm_store::Value;

    fn weather_records(n: usize) -> Vec<StRecord> {
        (0..n)
            .map(|i| StRecord {
                point: StPoint::new((i % 100) as f64, ((i / 100) % 100) as f64, i as i64),
                body: Value::object([
                    ("temp".into(), Value::Float(20.0 + (i % 10) as f64)),
                    ("text".into(), Value::from("sunny day in slc")),
                    ("user".into(), Value::from(format!("u{}", i % 7))),
                ]),
            })
            .collect()
    }

    fn engine_with_data(n: usize) -> StormEngine {
        let mut e = StormEngine::new(42);
        e.create_dataset(
            "weather",
            weather_records(n),
            DatasetConfig {
                fanout: 16,
                ..Default::default()
            },
        )
        .unwrap();
        e
    }

    #[test]
    fn avg_estimate_converges_to_truth() {
        let mut e = engine_with_data(10_000);
        let outcome = e
            .execute("ESTIMATE AVG(temp) FROM weather SAMPLES 2000")
            .unwrap();
        let est = outcome.estimate().unwrap();
        // True mean of 20 + (i % 10) = 24.5.
        assert!(
            (est.value - 24.5).abs() < 0.3,
            "estimate {} too far from 24.5",
            est.value
        );
        assert_eq!(outcome.reason, StopReason::SampleBudget);
        assert!(outcome.samples >= 2000);
        assert!(outcome.io_reads > 0);
    }

    #[test]
    fn error_target_stops_early() {
        let mut e = engine_with_data(20_000);
        let outcome = e
            .execute("ESTIMATE AVG(temp) FROM weather CONFIDENCE 0.95 ERROR 0.02")
            .unwrap();
        assert_eq!(outcome.reason, StopReason::QualityReached);
        let est = outcome.estimate().unwrap();
        assert!(est.relative_error(0.95) <= 0.02 * 1.05);
        assert!(
            (outcome.samples as usize) < 20_000 / 2,
            "should stop well before exhaustion, used {}",
            outcome.samples
        );
    }

    #[test]
    fn count_is_exact_and_immediate() {
        let mut e = engine_with_data(5_000);
        let outcome = e
            .execute("ESTIMATE COUNT FROM weather RANGE 0 0 49 99")
            .unwrap();
        match outcome.result {
            TaskResult::Count { q } => assert_eq!(q, 2500),
            other => panic!("expected count, got {other:?}"),
        }
        assert_eq!(outcome.samples, 0);
    }

    #[test]
    fn sum_scales_with_q() {
        let mut e = engine_with_data(5_000);
        let outcome = e
            .execute("ESTIMATE SUM(temp) FROM weather SAMPLES 3000")
            .unwrap();
        let est = outcome.estimate().unwrap();
        let truth: f64 = (0..5000).map(|i| 20.0 + (i % 10) as f64).sum();
        assert!(
            (est.value - truth).abs() / truth < 0.02,
            "sum {} vs {truth}",
            est.value
        );
    }

    #[test]
    fn every_method_answers_the_same_query() {
        let mut e = engine_with_data(4_000);
        let mut means = Vec::new();
        for method in ["queryfirst", "samplefirst", "randompath", "rstree"] {
            let outcome = e
                .execute(&format!(
                    "ESTIMATE AVG(temp) FROM weather RANGE 10 10 80 80 SAMPLES 800 METHOD {method}"
                ))
                .unwrap_or_else(|err| panic!("{method}: {err}"));
            means.push(outcome.estimate().unwrap().value);
        }
        for m in &means {
            assert!((m - means[0]).abs() < 1.0, "means diverge: {means:?}");
        }
        // The engine keeps no LS-tree: naming it is a plan error in both
        // modes (a planner pick of it is served by the RS-tree instead).
        for mode in ["wor", "wr"] {
            let forced = e.execute(&format!(
                "ESTIMATE AVG(temp) FROM weather SAMPLES 64 METHOD lstree MODE {mode}"
            ));
            assert!(matches!(forced, Err(EngineError::Ql(_))), "{forced:?}");
        }
    }

    #[test]
    fn group_by_estimates_every_group() {
        let mut e = engine_with_data(7_000);
        let outcome = e
            .execute("ESTIMATE AVG(temp) FROM weather BY user SAMPLES 3500")
            .unwrap();
        match outcome.result {
            TaskResult::Groups { groups, .. } => {
                assert_eq!(groups.len(), 7, "one group per user");
                for (key, est) in &groups {
                    assert!(key.starts_with('u'));
                    // Every user's true mean is within a few degrees of the
                    // global mean 24.5 (temp = 20 + i%10, users = i%7).
                    assert!((est.value - 24.5).abs() < 3.0, "{key}: {}", est.value);
                    assert!(est.n > 100);
                }
            }
            other => panic!("expected groups, got {other:?}"),
        }
        // Quality-target mode: all substantial groups converge.
        let outcome = e
            .execute("ESTIMATE AVG(temp) FROM weather BY user CONFIDENCE 0.95 ERROR 0.05")
            .unwrap();
        assert_eq!(outcome.reason, StopReason::QualityReached);
    }

    #[test]
    fn median_and_quantile_queries_converge() {
        let mut e = engine_with_data(10_000);
        // temp = 20 + (i % 10): median = 24 or 25, q90 ≈ 29.
        let outcome = e
            .execute("ESTIMATE MEDIAN(temp) FROM weather SAMPLES 3000")
            .unwrap();
        let med = outcome.estimate().unwrap();
        assert!((24.0..=25.0).contains(&med.value), "median {}", med.value);
        let outcome = e
            .execute("ESTIMATE QUANTILE(temp, 0.9) FROM weather SAMPLES 3000")
            .unwrap();
        let q90 = outcome.estimate().unwrap();
        assert!((28.0..=29.0).contains(&q90.value), "q90 {}", q90.value);
        // Quality-target mode works for quantiles too.
        let outcome = e
            .execute("ESTIMATE MEDIAN(temp) FROM weather CONFIDENCE 0.95 ERROR 0.05")
            .unwrap();
        assert_eq!(outcome.reason, StopReason::QualityReached);
    }

    #[test]
    fn density_query_runs() {
        let mut e = engine_with_data(5_000);
        let outcome = e
            .execute("DENSITY FROM weather GRID 16 16 SAMPLES 1000")
            .unwrap();
        match outcome.result {
            TaskResult::Density { grid, map, .. } => {
                assert_eq!(grid, (16, 16));
                assert_eq!(map.len(), 256);
                assert!(map.iter().any(|&v| v > 0.0));
            }
            other => panic!("expected density, got {other:?}"),
        }
    }

    #[test]
    fn cluster_query_runs() {
        let mut e = engine_with_data(5_000);
        let outcome = e.execute("CLUSTER 3 FROM weather SAMPLES 500").unwrap();
        match outcome.result {
            TaskResult::Cluster { centers, .. } => assert_eq!(centers.len(), 3),
            other => panic!("expected clusters, got {other:?}"),
        }
    }

    #[test]
    fn trajectory_query_filters_by_user() {
        let mut e = engine_with_data(2_000);
        let outcome = e.execute("TRAJECTORY u3 FROM weather").unwrap();
        match outcome.result {
            TaskResult::Trajectory { waypoints } => {
                // u3 ⇔ i % 7 == 3 → ~285 points; WOR exhausts all 2000.
                assert!(!waypoints.is_empty());
                // Waypoints are time-ordered.
                for w in waypoints.windows(2) {
                    assert!(w[0].t <= w[1].t);
                }
            }
            other => panic!("expected trajectory, got {other:?}"),
        }
    }

    #[test]
    fn terms_query_surfaces_vocabulary() {
        let mut e = engine_with_data(2_000);
        let outcome = e.execute("TERMS 3 FROM weather SAMPLES 500").unwrap();
        match outcome.result {
            TaskResult::Terms { top } => {
                let words: Vec<&str> = top.iter().map(|h| h.term.as_str()).collect();
                assert!(words.contains(&"sunny"), "{words:?}");
            }
            other => panic!("expected terms, got {other:?}"),
        }
    }

    #[test]
    fn time_budget_is_respected() {
        let mut e = engine_with_data(50_000);
        // With replacement the stream never exhausts, so the time budget is
        // the only stopping rule in play — the batched kernels are fast
        // enough to drain a 50k WOR result inside 30ms.
        let outcome = e
            .execute("ESTIMATE AVG(temp) FROM weather WITHIN 30 MODE WR")
            .unwrap();
        assert_eq!(outcome.reason, StopReason::TimeBudget);
        assert!(outcome.elapsed.as_millis() < 500);
    }

    #[test]
    fn cancellation_stops_the_loop() {
        let mut e = engine_with_data(10_000);
        let cancel = CancelToken::new();
        let cancel2 = cancel.clone();
        let mut ticks = 0;
        let outcome = e
            .execute_with("ESTIMATE AVG(temp) FROM weather", &cancel, &mut |_p| {
                ticks += 1;
                if ticks >= 2 {
                    cancel2.cancel();
                }
            })
            .unwrap();
        assert_eq!(outcome.reason, StopReason::Cancelled);
        assert!(outcome.samples < 10_000);
    }

    #[test]
    fn updates_change_query_answers() {
        let mut e = engine_with_data(1_000);
        let before = e
            .execute("ESTIMATE COUNT FROM weather RANGE 200 200 300 300")
            .unwrap();
        assert!(matches!(before.result, TaskResult::Count { q: 0 }));
        // Insert 5 records in that region.
        for j in 0..5 {
            e.insert(
                "weather",
                StRecord {
                    point: StPoint::new(250.0 + j as f64, 250.0, 10 + j),
                    body: Value::object([("temp".into(), Value::Float(99.0))]),
                },
            )
            .unwrap();
        }
        let after = e
            .execute("ESTIMATE COUNT FROM weather RANGE 200 200 300 300")
            .unwrap();
        assert!(matches!(after.result, TaskResult::Count { q: 5 }));
    }

    #[test]
    fn non_finite_locations_are_refused_and_change_nothing() {
        let at = |x: f64, y: f64| StRecord {
            point: StPoint::new(x, y, 0),
            body: Value::object([("temp".into(), Value::Float(1.0))]),
        };
        let mut e = engine_with_data(100);
        let bounds = e.dataset("weather").unwrap().bounds2();
        for bad in [
            at(f64::INFINITY, 1.0),
            at(1.0, f64::NEG_INFINITY),
            at(f64::NAN, 1.0),
        ] {
            let one = e.insert("weather", bad.clone());
            assert!(
                matches!(one, Err(EngineError::NonFinitePoint(_))),
                "{one:?}"
            );
            // A batch is refused whole: its good record is not inserted.
            let batch = e.insert_batch("weather", vec![at(5.0, 5.0), bad.clone()]);
            assert!(
                matches!(batch, Err(EngineError::NonFinitePoint(_))),
                "{batch:?}"
            );
            let built = e.create_dataset("bad", vec![at(5.0, 5.0), bad], DatasetConfig::default());
            assert!(
                matches!(built, Err(EngineError::NonFinitePoint(_))),
                "{built:?}"
            );
        }
        let ds = e.dataset("weather").unwrap();
        assert_eq!((ds.len(), ds.tree().len()), (100, 100));
        assert_eq!(ds.bounds2(), bounds);
        assert_eq!(e.dataset_names(), ["weather"]);
    }

    #[test]
    fn streamed_tweet_feed_is_queryable_between_batches() {
        use storm_workload::tweets::{TweetConfig, TweetStream};
        // A true streaming scenario: open the synthetic firehose, absorb it
        // batch by batch through the update manager, and query mid-stream —
        // every count must equal exactly the records delivered so far.
        let cfg = TweetConfig {
            users: 20,
            tweets: 2_000,
            ..Default::default()
        };
        let mut e = StormEngine::new(11);
        e.create_dataset("tweets", Vec::new(), DatasetConfig::default())
            .unwrap();
        let mut delivered = 0usize;
        for batch in TweetStream::new(&cfg, 500) {
            let arrived = batch.len();
            delivered += arrived;
            let ids = e.insert_batch("tweets", batch).unwrap();
            assert_eq!(ids.len(), arrived);
            let outcome = e.execute("ESTIMATE COUNT FROM tweets").unwrap();
            match outcome.result {
                TaskResult::Count { q } => assert_eq!(q, delivered),
                other => panic!("expected count, got {other:?}"),
            }
        }
        assert_eq!(delivered, 2_000);
        // The fully-streamed data set answers the same aggregate as a
        // bulk-loaded one over the identical timeline.
        let mut bulk = StormEngine::new(11);
        bulk.create_dataset(
            "tweets",
            storm_workload::tweets::generate(&cfg),
            DatasetConfig::default(),
        )
        .unwrap();
        let a = e.execute("ESTIMATE COUNT FROM tweets").unwrap();
        let b = bulk.execute("ESTIMATE COUNT FROM tweets").unwrap();
        match (a.result, b.result) {
            (TaskResult::Count { q: qa }, TaskResult::Count { q: qb }) => assert_eq!(qa, qb),
            other => panic!("expected counts, got {other:?}"),
        }
    }

    #[test]
    fn missing_dataset_and_bad_attribute_error() {
        let mut e = engine_with_data(1_000);
        assert!(matches!(
            e.execute("ESTIMATE COUNT FROM nope"),
            Err(EngineError::NoSuchDataset(_))
        ));
        assert!(matches!(
            e.execute("ESTIMATE AVG(nonexistent) FROM weather SAMPLES 500"),
            Err(EngineError::BadAttribute(_))
        ));
    }

    #[test]
    fn import_via_csv_connector() {
        let csv = "lon,lat,ts,temp\n\
                   -111.9,40.7,100,21.5\n\
                   -111.8,40.8,200,22.5\n\
                   bad,40.9,300,23.5\n";
        let mut source = storm_connector::CsvSource::new(csv.as_bytes());
        let mapping = FieldMapping::new("lon", "lat", Some("ts")).lenient();
        let mut e = StormEngine::new(7);
        let report = e
            .import("obs", &mut source, &mapping, DatasetConfig::default())
            .unwrap();
        assert_eq!(
            report,
            ImportReport {
                imported: 2,
                skipped: 1
            }
        );
        let outcome = e.execute("ESTIMATE AVG(temp) FROM obs").unwrap();
        assert!((outcome.estimate().unwrap().value - 22.0).abs() < 1e-9);
        assert_eq!(outcome.reason, StopReason::Exhausted);
    }

    #[test]
    fn same_seed_replays_identically() {
        let run = || {
            let mut e = engine_with_data(3_000);
            e.execute("ESTIMATE AVG(temp) FROM weather SAMPLES 100")
                .unwrap()
                .estimate()
                .unwrap()
                .value
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn queries_survive_storage_faults_and_report_them() {
        use std::sync::Arc;
        let mut e = engine_with_data(3_000);
        e.set_fault_hook(
            "weather",
            Arc::new(crate::FaultPlan::seeded(9).with_transient_io(400)),
        )
        .unwrap();
        let outcome = e
            .execute("ESTIMATE AVG(temp) FROM weather SAMPLES 500")
            .unwrap();
        // 40% transient faults with bounded retries: the query still
        // completes near the truth, and the incidents are reported.
        assert!(outcome.io_faults > 0, "chaos run recorded no faults");
        assert!(outcome.is_degraded());
        assert!((outcome.estimate().unwrap().value - 24.5).abs() < 1.5);
        // Replay determinism: the same plan yields the same fault count.
        let mut e2 = engine_with_data(3_000);
        e2.set_fault_hook(
            "weather",
            Arc::new(crate::FaultPlan::seeded(9).with_transient_io(400)),
        )
        .unwrap();
        let outcome2 = e2
            .execute("ESTIMATE AVG(temp) FROM weather SAMPLES 500")
            .unwrap();
        assert_eq!(outcome.io_faults, outcome2.io_faults);
        assert_eq!(
            outcome.estimate().unwrap().value,
            outcome2.estimate().unwrap().value
        );
        // Clearing the hook restores clean execution.
        e.clear_fault_hook("weather").unwrap();
        let clean = e
            .execute("ESTIMATE AVG(temp) FROM weather SAMPLES 200")
            .unwrap();
        assert_eq!(clean.io_faults, 0);
        assert!(!clean.is_degraded());
        assert!(e
            .set_fault_hook("nope", Arc::new(crate::FaultPlan::seeded(1)))
            .is_err());
    }
}
