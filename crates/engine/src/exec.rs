//! The query and analytics evaluator: binds a plan to a data set and runs
//! the online sampling loop.

use std::time::{Duration, Instant};

use rand::Rng;
use storm_core::{QueryFirst, RandomPath, SampleFirst, SampleMode, SamplerKind, SpatialSampler};
use storm_estimators::cluster::OnlineKMeans;
use storm_estimators::groupby::GroupedMeans;
use storm_estimators::kde::{KdeEstimator, Kernel};
use storm_estimators::quantile::QuantileEstimator;
use storm_estimators::text::SpaceSaving;
use storm_estimators::trajectory::TrajectoryBuilder;
use storm_estimators::OnlineStat;
use storm_faultkit::DegradedInfo;
use storm_geo::{Rect3, StPoint};
use storm_query::{AggFunc, Plan, Task};
use storm_rtree::Item;
use storm_store::{Collection, DocId, Document};

use crate::dataset::{Dataset, DatasetConfig};
use crate::session::{CancelToken, Progress, QueryOutcome, StopCheck, StopReason, TaskResult};
use crate::EngineError;

/// How often (in samples) the loop re-evaluates budgets, quality, and
/// cancellation, and emits progress.
const CHECK_EVERY: u64 = 16;
const PROGRESS_EVERY: u64 = 64;

/// Bounded retries for a transiently failing block read before the
/// sample's record is given up on (corrupt blocks are never retried:
/// corruption is a property of the block, not the attempt).
const READ_RETRIES: u32 = 3;

/// Fault-aware document fetch: the degraded-ingest read path. Transient
/// failures retry up to [`READ_RETRIES`] times; corrupt blocks (and
/// exhausted retries) drop this sample's record — a failed read degrades
/// the estimate, it never kills the query. Every failed attempt is
/// tallied into `io_faults`.
fn fetch<'c>(collection: &'c Collection, id: DocId, io_faults: &mut u64) -> Option<&'c Document> {
    let mut attempts = 0u32;
    loop {
        match collection.try_get(id) {
            Ok(doc) => return doc,
            Err(e) => {
                *io_faults += 1;
                attempts += 1;
                if !e.is_transient() || attempts > READ_RETRIES {
                    return None;
                }
            }
        }
    }
}

/// Per-task estimator state.
enum TaskState {
    Aggregate {
        agg: AggFunc,
        field: String,
        stat: OnlineStat,
        q: usize,
        misses: u64,
    },
    Quantile {
        field: String,
        est: QuantileEstimator,
        misses: u64,
    },
    Grouped {
        agg: AggFunc,
        field: String,
        by: String,
        means: GroupedMeans<String>,
        q: usize,
    },
    Density {
        kde: KdeEstimator,
    },
    Cluster {
        km: OnlineKMeans,
    },
    Trajectory {
        user: String,
        field: String,
        builder: TrajectoryBuilder,
    },
    Terms {
        ss: SpaceSaving,
        field: String,
        k: usize,
    },
}

impl TaskState {
    fn new(plan: &Plan, cfg: &DatasetConfig, q: usize) -> Result<Self, EngineError> {
        Ok(match &plan.query.task {
            Task::Aggregate {
                agg: AggFunc::Quantile(p),
                field,
                ..
            } => TaskState::Quantile {
                field: field.clone(),
                est: QuantileEstimator::new(*p),
                misses: 0,
            },
            Task::Aggregate {
                agg,
                field,
                by: Some(by),
            } => TaskState::Grouped {
                agg: *agg,
                field: field.clone(),
                by: by.clone(),
                means: GroupedMeans::new(),
                q,
            },
            Task::Aggregate { agg, field, .. } => {
                let stat = match plan.query.mode {
                    SampleMode::WithoutReplacement => OnlineStat::without_replacement(q),
                    SampleMode::WithReplacement => OnlineStat::new(),
                };
                TaskState::Aggregate {
                    agg: *agg,
                    field: field.clone(),
                    stat,
                    q,
                    misses: 0,
                }
            }
            Task::Density { grid } => {
                let rect = plan.st_query.rect;
                let bandwidth = (rect.extent(0).max(rect.extent(1)) * 0.06).max(f64::MIN_POSITIVE);
                let kde =
                    KdeEstimator::new(rect, grid.0, grid.1, Kernel::Epanechnikov { bandwidth })
                        .with_population(q);
                TaskState::Density { kde }
            }
            Task::Cluster { k } => TaskState::Cluster {
                km: OnlineKMeans::new(*k),
            },
            Task::Trajectory { user } => {
                let field = cfg
                    .user_field
                    .clone()
                    .ok_or(EngineError::IndexUnavailable("user-field"))?;
                TaskState::Trajectory {
                    user: user.clone(),
                    field,
                    builder: TrajectoryBuilder::new(),
                }
            }
            Task::Terms { k } => {
                let field = cfg
                    .text_field
                    .clone()
                    .ok_or(EngineError::IndexUnavailable("text-field"))?;
                TaskState::Terms {
                    ss: SpaceSaving::new((*k * 30).max(256)),
                    field,
                    k: *k,
                }
            }
        })
    }

    /// Folds a degraded-stream missing-mass fraction into the estimator
    /// so reported intervals stay honest about written-off shards. Only
    /// the scalar-aggregate estimator supports widening today; other task
    /// states surface degradation through the outcome report alone.
    fn apply_missing_mass(&mut self, phi: f64) {
        if let TaskState::Aggregate { stat, .. } = self {
            stat.set_missing_mass(phi);
        }
    }

    /// Consumes one sample (reading the record body from storage — one
    /// block read, exactly like the deployed system).
    fn ingest(
        &mut self,
        collection: &Collection,
        item: Item<3>,
        io_faults: &mut u64,
    ) -> Result<(), EngineError> {
        match self {
            TaskState::Aggregate {
                field,
                stat,
                misses,
                ..
            } => {
                let value =
                    fetch(collection, DocId(item.id), io_faults).and_then(|doc| doc.number(field));
                match value {
                    Some(v) => stat.push(v),
                    None => {
                        *misses += 1;
                        // All misses so far? The field is probably wrong.
                        if *misses >= 64 && stat.n() == 0 {
                            return Err(EngineError::BadAttribute(field.clone()));
                        }
                    }
                }
            }
            TaskState::Quantile { field, est, misses } => {
                let value =
                    fetch(collection, DocId(item.id), io_faults).and_then(|doc| doc.number(field));
                match value {
                    Some(v) => est.push(v),
                    None => {
                        *misses += 1;
                        if *misses >= 64 && est.n() == 0 {
                            return Err(EngineError::BadAttribute(field.clone()));
                        }
                    }
                }
            }
            TaskState::Grouped {
                field, by, means, ..
            } => {
                if let Some(doc) = fetch(collection, DocId(item.id), io_faults) {
                    if let Some(v) = doc.number(field) {
                        // Group keys stringify so numeric and text grouping
                        // columns both work.
                        let key = doc
                            .text(by)
                            .map(str::to_owned)
                            .or_else(|| doc.number(by).map(|n| n.to_string()))
                            .unwrap_or_else(|| "<null>".to_owned());
                        means.push(key, v);
                    }
                }
            }
            TaskState::Density { kde } => {
                kde.push(&storm_geo::Point2::xy(item.point.get(0), item.point.get(1)));
            }
            TaskState::Cluster { km } => {
                km.push(&storm_geo::Point2::xy(item.point.get(0), item.point.get(1)));
            }
            TaskState::Trajectory {
                user,
                field,
                builder,
            } => {
                let matches = fetch(collection, DocId(item.id), io_faults)
                    .and_then(|doc| doc.text(field))
                    .is_some_and(|u| u == user);
                if matches {
                    builder.push(StPoint::new(
                        item.point.get(0),
                        item.point.get(1),
                        item.point.get(2) as i64,
                    ));
                }
            }
            TaskState::Terms { ss, field, .. } => {
                if let Some(text) =
                    fetch(collection, DocId(item.id), io_faults).and_then(|doc| doc.text(field))
                {
                    ss.push_text(text);
                }
            }
        }
        Ok(())
    }

    fn snapshot(&self, confidence: f64) -> TaskResult {
        match self {
            TaskState::Aggregate { agg, stat, q, .. } => {
                let estimate = match agg {
                    AggFunc::Avg => stat.mean_estimate(),
                    AggFunc::Sum => stat.sum_estimate(*q),
                    AggFunc::Count | AggFunc::Quantile(_) => {
                        unreachable!("handled before/aside the mean path")
                    }
                };
                TaskResult::Aggregate {
                    estimate,
                    confidence,
                }
            }
            TaskState::Quantile { est, .. } => TaskResult::Aggregate {
                // Cheap clone: the estimator needs &mut to sort lazily.
                estimate: est.clone().estimate(confidence),
                confidence,
            },
            TaskState::Grouped { agg, means, q, .. } => {
                let total = means.n().max(1);
                let groups = means
                    .estimates()
                    .into_iter()
                    .map(|(key, est)| match agg {
                        // Per-group SUM scales by the group's share of q.
                        AggFunc::Sum => {
                            let share = est.n as f64 / total as f64;
                            let scale = *q as f64 * share;
                            (
                                key,
                                storm_estimators::Estimate {
                                    value: est.value * scale,
                                    std_err: est.std_err * scale,
                                    n: est.n,
                                },
                            )
                        }
                        _ => (key, est),
                    })
                    .collect();
                TaskResult::Groups { groups, confidence }
            }
            TaskState::Density { kde } => {
                let map = kde.density_map();
                let peak = map
                    .iter()
                    .cloned()
                    .fold(0.0, f64::max)
                    .max(f64::MIN_POSITIVE);
                let mut total_ci = 0.0;
                for iy in 0..kde.ny() {
                    for ix in 0..kde.nx() {
                        total_ci += kde.cell_estimate(ix, iy).half_width(confidence);
                    }
                }
                let cells = (kde.nx() * kde.ny()) as f64;
                TaskResult::Density {
                    grid: (kde.nx(), kde.ny()),
                    map,
                    mean_ci: total_ci / cells / peak,
                }
            }
            TaskState::Cluster { km } => TaskResult::Cluster {
                centers: km.centers().to_vec(),
                inertia: km.mean_inertia(),
            },
            TaskState::Trajectory { builder, .. } => TaskResult::Trajectory {
                waypoints: builder.waypoints().to_vec(),
            },
            TaskState::Terms { ss, k, .. } => TaskResult::Terms { top: ss.top(*k) },
        }
    }

    /// Current relative error, for the `ERROR` stopping rule (only defined
    /// for aggregates and density maps).
    fn rel_error(&self, confidence: f64) -> Option<f64> {
        match self {
            TaskState::Aggregate { agg, stat, q, .. } => {
                let estimate = match agg {
                    AggFunc::Avg => stat.mean_estimate(),
                    AggFunc::Sum => stat.sum_estimate(*q),
                    AggFunc::Count => return Some(0.0),
                    AggFunc::Quantile(_) => unreachable!("separate state"),
                };
                Some(estimate.relative_error(confidence))
            }
            TaskState::Quantile { est, .. } => {
                Some(est.clone().estimate(confidence).relative_error(confidence))
            }
            TaskState::Grouped { means, .. } => {
                // Converged when every *substantial* group (≥2% of the
                // samples) meets the target; tiny groups would otherwise
                // hold the query open indefinitely.
                let total = means.n().max(1);
                let worst = means
                    .estimates()
                    .into_iter()
                    .filter(|(_, est)| est.n * 50 >= total)
                    .map(|(_, est)| est.relative_error(confidence))
                    .fold(0.0f64, f64::max);
                Some(worst)
            }
            TaskState::Density { kde } => {
                if kde.n() < 2 {
                    return Some(f64::INFINITY);
                }
                if let TaskResult::Density { mean_ci, .. } = self.snapshot(confidence) {
                    Some(mean_ci)
                } else {
                    None
                }
            }
            _ => None,
        }
    }
}

/// Runs a planned query on a data set.
pub(crate) fn run_plan(
    ds: &mut Dataset,
    plan: &Plan,
    rng: &mut dyn Rng,
    cancel: &CancelToken,
    on_progress: &mut dyn FnMut(&Progress),
) -> Result<QueryOutcome, EngineError> {
    let rect3: Rect3 = plan.st_query.to_rect3().ok_or(EngineError::Internal(
        "planned query has an empty time range",
    ))?;
    let start = Instant::now();
    let confidence = plan.query.termination.confidence_level();
    let q = plan.q_est;

    // Index + storage I/O baselines (per-query accounting on shared
    // counters).
    let index_io = ds.tree.io_handle();
    let io_before = index_io.reads() + ds.collection.stats().reads();

    // COUNT is exact from aggregate counts — no sampling loop at all.
    if matches!(
        plan.query.task,
        Task::Aggregate {
            agg: AggFunc::Count,
            ..
        }
    ) {
        let outcome = QueryOutcome {
            result: TaskResult::Count { q },
            samples: 0,
            elapsed: start.elapsed(),
            sampler: plan.sampler,
            io_reads: index_io.reads() + ds.collection.stats().reads() - io_before,
            q: Some(q),
            io_faults: 0,
            degraded: None,
            reason: StopReason::Exhausted,
        };
        return Ok(outcome);
    }

    let mut state = TaskState::new(plan, &ds.cfg, q)?;

    // Each arm borrows only the fields its method reads, so the estimator
    // can still read the collection while the stream is open.
    let mode = plan.query.mode;
    let mut sampler: Box<dyn SpatialSampler<3> + '_> = match plan.sampler {
        SamplerKind::QueryFirst => Box::new(QueryFirst::new(&ds.tree, &rect3, mode)),
        SamplerKind::SampleFirst => {
            Box::new(SampleFirst::new(&ds.items, rect3, mode).with_io(ds.tree.io_handle()))
        }
        SamplerKind::RandomPath => Box::new(RandomPath::new(&ds.tree, rect3, mode)),
        // RS-tree plans run the frozen kernel over a snapshot (re)built
        // here if an update invalidated the last one.
        SamplerKind::RsTree => Box::new(ds.ensure_frozen().sampler(&rect3, mode)),
        // The planner refuses `METHOD lstree` and never picks it.
        _ => {
            return Err(EngineError::Internal(
                "plan names a method the engine lacks",
            ))
        }
    };

    let term = plan.query.termination;
    let mut samples: u64 = 0;
    let mut io_faults: u64 = 0;
    // The ingest loop pulls one block per iteration (the batched sampling
    // kernel), re-checking budgets/quality/cancellation between blocks —
    // the same cadence the one-at-a-time loop checked at, with the
    // per-draw dispatch amortised away. The block buffer is reused.
    let mut block: Vec<Item<3>> = Vec::with_capacity(CHECK_EVERY as usize);
    let mut next_progress = PROGRESS_EVERY;
    let reason = loop {
        let check = StopCheck {
            cancelled: cancel.is_cancelled(),
            samples,
            sample_budget: term.sample_budget.map(|b| b as u64),
            elapsed: start.elapsed(),
            time_budget: term.time_budget_ms.map(Duration::from_millis),
            // Only pay the snapshot when an ERROR clause can use it.
            rel_error: if term.target_error.is_some() {
                state.rel_error(confidence)
            } else {
                None
            },
            target_error: term.target_error,
        };
        if let Some(reason) = check.decide() {
            break reason;
        }
        let mut want = CHECK_EVERY;
        if let Some(budget) = term.sample_budget {
            // Clamp the block so the budget is hit exactly.
            want = want.min(budget as u64 - samples);
        }
        block.clear();
        if sampler.next_batch(rng, &mut block, want as usize) == 0 {
            break StopReason::Exhausted;
        }
        for &item in &block {
            samples += 1;
            state.ingest(&ds.collection, item, &mut io_faults)?;
        }
        if samples >= next_progress {
            let degraded = sampler.degraded().filter(DegradedInfo::is_degraded);
            if let Some(d) = &degraded {
                state.apply_missing_mass(d.missing_fraction());
            }
            on_progress(&Progress {
                samples,
                elapsed: start.elapsed(),
                result: state.snapshot(confidence),
                degraded,
            });
            next_progress = (samples / PROGRESS_EVERY + 1) * PROGRESS_EVERY;
        }
    };
    let degraded = sampler.degraded().filter(DegradedInfo::is_degraded);
    if let Some(d) = &degraded {
        state.apply_missing_mass(d.missing_fraction());
    }
    drop(sampler);

    Ok(QueryOutcome {
        result: state.snapshot(confidence),
        samples,
        elapsed: start.elapsed(),
        sampler: plan.sampler,
        io_reads: index_io.reads() + ds.collection.stats().reads() - io_before,
        q: Some(q),
        io_faults,
        degraded,
        reason,
    })
}
