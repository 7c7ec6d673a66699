//! Stream identity across executor refactors: the seeded
//! [`storm_core::ParallelSampler`] stream is pinned by fingerprint, so a
//! change to the shard protocol or the gather code that alters *what* a
//! seeded query emits — not merely how the messages travel — fails here.
//!
//! The constants were computed at commit `83c2732` (the last commit with
//! the single-session `Open`/`Fill`/`Close` commands) and must never be
//! regenerated to make a refactor pass. A quiet fault hook switches the
//! gathers to the timeout/retry path without injecting anything, so the
//! same constants pin the recovery path too.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use storm_core::{DistributedRsTree, RsTreeConfig, SampleMode, SpatialSampler};
use storm_faultkit::{FaultPlan, RetryPolicy};
use storm_geo::{Point2, Rect2};
use storm_rtree::Item;

/// Ids fingerprinted per stream.
const PREFIX: usize = 4_096;

fn grid_items(n: usize) -> Vec<Item<2>> {
    (0..n)
        .map(|i| Item::new(Point2::xy((i % 200) as f64, (i / 200) as f64), i as u64))
        .collect()
}

/// FNV-1a over the little-endian bytes of `words`.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Fingerprint of the first [`PREFIX`] ids of one seeded stream, with the
/// declared result size folded in last.
fn fingerprint(mode: SampleMode, shards: usize, hooked: bool) -> u64 {
    let mut c = DistributedRsTree::bulk_load(grid_items(20_000), shards, RsTreeConfig::default())
        .into_parallel();
    if hooked {
        c.set_fault_hook(Arc::new(FaultPlan::seeded(1)));
        c.set_retry_policy(RetryPolicy::default());
    }
    // 141 x 43 = 6 063 points: more than the prefix, so WOR never runs dry.
    let q = Rect2::from_corners(Point2::xy(20.0, 10.0), Point2::xy(160.0, 52.0));
    let mut s = c.sampler(q, mode, 2015);
    let mut rng = StdRng::seed_from_u64(83);
    let mut ids = Vec::with_capacity(PREFIX);
    let mut buf = Vec::new();
    while ids.len() < PREFIX {
        buf.clear();
        let want = 64.min(PREFIX - ids.len());
        assert_eq!(
            s.next_batch(&mut rng, &mut buf, want),
            want,
            "stream ran dry"
        );
        ids.extend(buf.iter().map(|it| it.id));
    }
    let size = s
        .result_size()
        .expect("parallel streams declare their size") as u64;
    fnv(ids.into_iter().chain([size]))
}

const WOR: SampleMode = SampleMode::WithoutReplacement;
const WR: SampleMode = SampleMode::WithReplacement;

/// `(mode, shards, fingerprint at 83c2732)`.
const PINNED: [(SampleMode, usize, u64); 6] = [
    (WOR, 1, 0xBCB4_61EF_CA88_EFFA),
    (WOR, 4, 0x13C7_980D_A229_2486),
    (WOR, 8, 0x0FF2_3C93_6642_5CEF),
    (WR, 1, 0xC99E_B758_B7E4_C959),
    (WR, 4, 0xEF7A_11E7_EA6A_5575),
    (WR, 8, 0x95B7_F007_EA8C_ACC3),
];

#[test]
fn seeded_streams_match_the_pinned_fingerprints() {
    let want: Vec<u64> = PINNED.iter().map(|p| p.2).collect();
    for hooked in [false, true] {
        let got: Vec<u64> = PINNED
            .iter()
            .map(|&(mode, shards, _)| fingerprint(mode, shards, hooked))
            .collect();
        assert_eq!(got, want, "hooked: {hooked}; emitted {got:#018X?}");
    }
}
