//! Crash/recovery matrix for minor freezes and compactions: a fault
//! injected at **any** step of the merge — entry, delta drain, each run
//! concatenation, pre-publish (sort and build are one step between the
//! last two) — must leave the run registry
//! on exactly the old epoch or exactly the new one. A half-merged state
//! (some runs swapped, delta partially drained, epoch bumped without the
//! new run-set) must be unobservable, and no item may ever be lost or
//! duplicated.
//!
//! Two injection kinds cover the two crash shapes: `WorkerPanic` unwinds
//! out of the build mid-merge (a crash), `DropReply` abandons it silently
//! (a cancelled background job). Both the exhaustive step sweep and a
//! proptest-driven matrix over index shapes run every case under a
//! watchdog and finish by draining the union without replacement — the
//! strongest "nothing torn" witness available.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use storm_core::{IngestConfig, IngestIndex, SampleMode, SpatialSampler};
use storm_faultkit::{FaultKind, StepFault};
use storm_geo::{Point2, Rect2};
use storm_rtree::Item;
use storm_testkit::watchdog;

fn grid_item(i: usize) -> Item<2> {
    Item::new(Point2::xy((i % 64) as f64, (i / 64) as f64), i as u64)
}

fn everything() -> Rect2 {
    Rect2::from_corners(Point2::xy(-1.0, -1.0), Point2::xy(1e6, 1e6))
}

/// Builds an index with `runs` frozen runs of `per_run` items plus
/// `delta` unfrozen items (ids are consecutive from 0).
fn build_index(runs: usize, per_run: usize, delta: usize) -> IngestIndex<2> {
    let idx = IngestIndex::new(IngestConfig {
        fanout: 8,
        delta_limit: 100_000,
        max_runs: usize::MAX >> 1, // no surprise auto-merges during setup
    });
    let mut next = 0usize;
    for _ in 0..runs {
        idx.insert_batch((next..next + per_run).map(grid_item));
        next += per_run;
        idx.minor_freeze();
    }
    idx.insert_batch((next..next + delta).map(grid_item));
    assert_eq!(idx.run_count(), runs);
    assert_eq!(idx.delta_len(), delta);
    idx
}

/// What one epoch looks like from outside, for old-vs-new comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Shape {
    epoch: u64,
    run_lens: Vec<usize>,
    delta_len: usize,
    total: usize,
}

fn shape(idx: &IngestIndex<2>) -> Shape {
    let (epoch, state) = idx.pin();
    Shape {
        epoch,
        run_lens: state.runs.iter().map(|r| r.len()).collect(),
        delta_len: state.delta.len(),
        total: state.len(),
    }
}

/// Drains the index without replacement and asserts the stream emits
/// exactly `0..total` — every item once, nothing lost, nothing invented.
fn assert_union_intact(idx: &IngestIndex<2>, total: usize, label: &str) {
    let mut s = idx.sampler(&everything(), SampleMode::WithoutReplacement);
    let mut rng = StdRng::seed_from_u64(7);
    let mut seen = HashSet::new();
    while let Some(item) = s.next_sample(&mut rng) {
        assert!(seen.insert(item.id), "{label}: duplicate id {}", item.id);
    }
    let expect: HashSet<u64> = (0..total as u64).collect();
    assert_eq!(seen, expect, "{label}: drained union diverged");
}

/// Runs one crash case: inject `kind` at merge step `step` of a
/// minor-freeze (or full compaction), then check the epoch is either the
/// untouched old one or the complete new one.
fn crash_case(runs: usize, per_run: usize, delta: usize, step: u64, kind: FaultKind, full: bool) {
    let total = runs * per_run + delta;
    let before = shape(&build_index(runs, per_run, delta));
    let idx = build_index(runs, per_run, delta)
        .with_fault_hook(Arc::new(StepFault::at_compaction_step(step, kind)));
    assert_eq!(shape(&idx), before, "setup must be deterministic");

    let label = format!(
        "{}x{}+{delta} {kind:?}@step{step} {}",
        runs,
        per_run,
        if full { "compact" } else { "freeze" }
    );
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if full {
            idx.compact()
        } else {
            idx.minor_freeze()
        }
    }));

    let after = shape(&idx);
    match outcome {
        Err(payload) => {
            // Unwound mid-merge: only WorkerPanic does that, and the old
            // epoch must be byte-for-byte what it was.
            assert_eq!(kind, FaultKind::WorkerPanic, "{label}: unexpected unwind");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(
                msg.contains("injected compaction fault"),
                "{label}: foreign panic {msg:?}"
            );
            assert_eq!(after, before, "{label}: crash mutated the old epoch");
        }
        Ok(None) => {
            // Abandoned (DropReply fired before publish): nothing changed.
            assert_eq!(after, before, "{label}: abandoned build left residue");
        }
        Ok(Some(epoch)) => {
            // Published: the fault step was past the build's last
            // checkpoint, so the new epoch must be complete.
            assert_eq!(epoch, before.epoch + 1, "{label}: epoch must bump by one");
            assert_eq!(after.epoch, epoch);
            assert_eq!(after.total, total, "{label}: publish lost items");
            assert_eq!(after.delta_len, 0, "{label}: publish must drain the delta");
            if full {
                assert_eq!(
                    after.run_lens,
                    vec![total],
                    "{label}: compaction must merge all"
                );
            }
        }
    }
    // Whatever epoch won, the union is whole and the index still ingests.
    assert_union_intact(&idx, total, &label);
    idx.insert(grid_item(total));
    assert_eq!(idx.len(), total + 1, "{label}: index wedged after fault");
}

/// Exhaustive sweep: every merge step of a 3-run + delta compaction, both
/// crash kinds, freeze and compact paths. Steps beyond the build's last
/// checkpoint simply publish — also asserted.
#[test]
fn every_crash_point_leaves_old_or_new_epoch_never_torn() {
    watchdog(Duration::from_secs(300), "exhaustive crash sweep", || {
        for full in [false, true] {
            for kind in [FaultKind::WorkerPanic, FaultKind::DropReply] {
                for step in 0..10u64 {
                    crash_case(3, 40, 17, step, kind, full);
                }
            }
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The matrix property: arbitrary index shapes, arbitrary crash
    // coordinates, both kinds, both merge paths — the epoch is never torn.
    #[test]
    fn crash_matrix_never_tears_an_epoch(
        runs in 1usize..5,
        per_run in 1usize..60,
        delta in 1usize..40,
        step in 0u64..12,
        panics in 0u8..2,
        full_merge in 0u8..2,
    ) {
        let kind = if panics == 1 { FaultKind::WorkerPanic } else { FaultKind::DropReply };
        let full = full_merge == 1;
        watchdog(Duration::from_secs(120), "crash matrix case", move || {
            crash_case(runs, per_run, delta, step, kind, full);
        });
    }
}
