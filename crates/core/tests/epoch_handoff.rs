//! Epoch-handoff determinism for the parallel executor: a sampling
//! session opened before [`ParallelRsCluster::install_epoch`] swaps the
//! worker pool must keep serving its open-time snapshot — polled across
//! the swap it is byte-identical to a solo run that never swapped —
//! while sessions opened after the swap see only the new data.
//!
//! The contract rests on two mechanisms, both exercised here: streams
//! that already materialised pin the frozen arena through their sampler,
//! and streams that have *not* been polled yet pin it through the arena
//! `Arc` captured at open. Command-channel FIFO makes "before/after the
//! swap" exact, not approximate.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use storm_core::{
    DistributedRsTree, FrozenRsTree, ParallelRsCluster, RsTreeConfig, SampleMode, SpatialSampler,
};
use storm_geo::{Point2, Rect2};
use storm_rtree::Item;

const N_OLD: usize = 1_200;
const N_NEW: usize = 900;
const NEW_BASE: u64 = 100_000;

/// Epoch-0 data: ids `0..N_OLD` on a 100-wide grid.
fn old_items() -> Vec<Item<2>> {
    (0..N_OLD)
        .map(|i| Item::new(Point2::xy((i % 100) as f64, (i / 100) as f64), i as u64))
        .collect()
}

/// Epoch-1 data: distinct ids at the same coordinates, so every query
/// that matched old data also matches new data — any leak across the
/// swap shows up as a foreign id, not as an empty result.
fn new_items() -> Vec<Item<2>> {
    (0..N_NEW)
        .map(|i| {
            Item::new(
                Point2::xy((i % 100) as f64, (i / 100) as f64),
                NEW_BASE + i as u64,
            )
        })
        .collect()
}

fn cluster() -> ParallelRsCluster {
    DistributedRsTree::bulk_load(old_items(), 4, RsTreeConfig::with_fanout(16)).into_parallel()
}

fn frozen_shards(items: Vec<Item<2>>) -> Vec<Arc<FrozenRsTree<2>>> {
    DistributedRsTree::bulk_load(items, 4, RsTreeConfig::with_fanout(16)).freeze_shards()
}

fn next_epoch() -> Vec<Arc<FrozenRsTree<2>>> {
    frozen_shards(new_items())
}

fn query() -> Rect2 {
    Rect2::from_corners(Point2::xy(0.0, 0.0), Point2::xy(59.0, 9.0))
}

/// Drains a WOR stream in 32-item batches; `swap_after` installs the new
/// epoch once that many batches have been delivered.
fn drain(c: &ParallelRsCluster, swap_after: Option<usize>) -> Vec<u64> {
    let mut s = c.sampler(query(), SampleMode::WithoutReplacement, 7);
    let mut rng = StdRng::seed_from_u64(13);
    let mut ids = Vec::new();
    let mut buf = Vec::new();
    let mut batches = 0usize;
    loop {
        buf.clear();
        if s.next_batch(&mut rng, &mut buf, 32) == 0 {
            break;
        }
        ids.extend(buf.iter().map(|item| item.id));
        batches += 1;
        if Some(batches) == swap_after {
            assert_eq!(
                c.install_epoch(next_epoch()),
                Ok(1),
                "first swap is epoch 1"
            );
        }
    }
    ids
}

#[test]
fn stream_polled_across_swap_matches_the_solo_run_exactly() {
    let swapped_cluster = cluster();
    let across_swap = drain(&swapped_cluster, Some(2));
    let solo = drain(&cluster(), None);
    assert_eq!(
        across_swap, solo,
        "session opened before the swap must replay the no-swap run byte-identically"
    );
    assert!(
        across_swap.iter().all(|&id| id < N_OLD as u64),
        "pinned stream leaked post-swap data"
    );

    // A session opened after the swap sees only — and exactly — the new
    // epoch's result set.
    let post = drain(&swapped_cluster, None);
    assert!(
        post.iter().all(|&id| id >= NEW_BASE),
        "post-swap session served old-epoch items"
    );
    let expect = new_items()
        .iter()
        .filter(|item| query().contains_point(&item.point))
        .count();
    assert_eq!(
        post.len(),
        expect,
        "post-swap session must cover the new result set"
    );

    // Cluster-wide counters follow the new epoch.
    assert_eq!(swapped_cluster.epoch(), 1);
    assert_eq!(swapped_cluster.len(), N_NEW);
}

#[test]
fn stream_opened_but_never_polled_before_swap_still_pins_its_epoch() {
    let c = cluster();
    // Open (the coordinator round-trips shard counts) but do not fill:
    // every shard slot is still lazy when the swap lands.
    let mut s = c.sampler(query(), SampleMode::WithoutReplacement, 7);
    assert_eq!(c.install_epoch(next_epoch()), Ok(1));

    let mut rng = StdRng::seed_from_u64(13);
    let mut ids = Vec::new();
    let mut buf = Vec::new();
    loop {
        buf.clear();
        if s.next_batch(&mut rng, &mut buf, 32) == 0 {
            break;
        }
        ids.extend(buf.iter().map(|item| item.id));
    }
    drop(s);
    assert!(
        ids.iter().all(|&id| id < N_OLD as u64),
        "lazily-materialised stream must use its open-time arena"
    );
    let solo = drain(&cluster(), None);
    assert_eq!(
        ids, solo,
        "unpolled-at-swap stream must still replay the solo run"
    );
}

#[test]
fn repeated_swaps_bump_the_epoch_and_retarget_new_sessions() {
    let c = cluster();
    assert_eq!(c.epoch(), 0);
    assert_eq!(c.install_epoch(next_epoch()), Ok(1));
    assert_eq!(c.install_epoch(frozen_shards(old_items())), Ok(2));
    assert_eq!(c.epoch(), 2);
    // Back on the old data set: a fresh session serves it again.
    let ids = drain(&c, None);
    assert!(ids.iter().all(|&id| id < N_OLD as u64));
    assert_eq!(c.len(), N_OLD);
}
