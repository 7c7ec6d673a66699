//! A sampler's stream does not depend on how it is drained.
//!
//! Every sampler has one draw body, `next_batch`; `next_sample` is a batch
//! of one (the frozen kernel keeps its own `next_sample`, which must draw
//! the same ids). Draining one seeded stream in blocks of 1, 7 or 64, or in
//! an alternating 1/7/64 mix, must therefore yield the identical id
//! sequence. Blocks of one are drawn through `next_sample`, so the mix also
//! interleaves the two entry points. The boxed RS-tree is the exception:
//! its grouped pops run buffer refills after a block's part picks, so only
//! the set a WOR drain emits is pinned for it.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use storm_core::{
    IngestConfig, IngestIndex, LsTree, QueryFirst, RandomPath, RsTree, RsTreeConfig, SampleFirst,
    SampleMode, SpatialSampler,
};
use storm_geo::{Point2, Rect2};
use storm_rtree::{BulkMethod, Item, RTree, RTreeConfig};

const N: usize = 3_000;
const FANOUT: usize = 16;
const SEEDS: [u64; 3] = [1, 2, 3];
/// Blocks of 1, 7 and 64, then the alternating mix.
const DRAINS: [&[usize]; 4] = [&[1], &[7], &[64], &[1, 7, 64]];
/// Draws taken from streams that never end on their own (with
/// replacement) or end only by a probe budget (SampleFirst and RandomPath
/// without replacement); `q` is about 750, so this stays well inside it.
const PREFIX: usize = 500;

const WOR: SampleMode = SampleMode::WithoutReplacement;
const WR: SampleMode = SampleMode::WithReplacement;

fn items() -> Vec<Item<2>> {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    (0..N)
        .map(|i| {
            let p = Point2::xy(rng.random_range(0.0..100.0), rng.random_range(0.0..100.0));
            Item::new(p, i as u64)
        })
        .collect()
}

/// A 50 × 50 window: about a quarter of the points.
fn query() -> Rect2 {
    Rect2::from_corners(Point2::xy(10.0, 20.0), Point2::xy(60.0, 70.0))
}

/// Drains up to `limit` ids from `s`, cycling through `blocks`; a block
/// of one is drawn through `next_sample`.
fn drain(s: &mut dyn SpatialSampler<2>, seed: u64, blocks: &[usize], limit: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for &k in blocks.iter().cycle() {
        let want = k.min(limit - out.len());
        if want == 0 {
            break;
        }
        let got = if want == 1 {
            match s.next_sample(&mut rng) {
                Some(item) => {
                    out.push(item);
                    1
                }
                None => 0,
            }
        } else {
            s.next_batch(&mut rng, &mut out, want)
        };
        if got < want {
            break;
        }
    }
    out.iter().map(|it| it.id).collect()
}

type Open<'a> = Box<dyn Fn() -> Box<dyn SpatialSampler<2> + 'a> + 'a>;

#[test]
fn every_drain_pattern_yields_the_same_stream() {
    let data = items();
    let q = query();
    let q_size = data.iter().filter(|it| q.contains_point(&it.point)).count();
    assert!(q_size > PREFIX, "q = {q_size}");
    let tree = RTree::bulk_load(
        data.clone(),
        RTreeConfig::with_fanout(FANOUT),
        BulkMethod::Str,
    );
    let ls = LsTree::bulk_load(data.clone(), RTreeConfig::with_fanout(FANOUT), 0xC0FFEE);
    let frozen =
        Arc::new(RsTree::bulk_load(data.clone(), RsTreeConfig::with_fanout(FANOUT)).freeze());
    // Two frozen runs plus a delta, so the composite stream picks among
    // three components.
    let ingest = IngestIndex::<2>::new(IngestConfig {
        fanout: FANOUT,
        delta_limit: 100_000,
        max_runs: 8,
    });
    let (first, rest) = data.split_at(N / 3);
    let (second, delta) = rest.split_at(N / 3);
    ingest.insert_batch(first.iter().copied());
    ingest.minor_freeze();
    ingest.insert_batch(second.iter().copied());
    ingest.minor_freeze();
    ingest.insert_batch(delta.iter().copied());
    assert_eq!(ingest.run_count(), 2);

    // A full drain asks for one more than `q`: a stream that fails to end
    // shows as a length mismatch instead of running on.
    let full = q_size + 1;
    let table: Vec<(&str, SampleMode, usize, Open<'_>)> = vec![
        (
            "QueryFirst",
            WOR,
            full,
            Box::new(|| Box::new(QueryFirst::new(&tree, &q, WOR))),
        ),
        (
            "QueryFirst",
            WR,
            PREFIX,
            Box::new(|| Box::new(QueryFirst::new(&tree, &q, WR))),
        ),
        (
            "SampleFirst",
            WOR,
            PREFIX,
            Box::new(|| Box::new(SampleFirst::new(&data, q, WOR))),
        ),
        (
            "SampleFirst",
            WR,
            PREFIX,
            Box::new(|| Box::new(SampleFirst::new(&data, q, WR))),
        ),
        (
            "RandomPath",
            WOR,
            PREFIX,
            Box::new(|| Box::new(RandomPath::new(&tree, q, WOR))),
        ),
        (
            "RandomPath",
            WR,
            PREFIX,
            Box::new(|| Box::new(RandomPath::new(&tree, q, WR))),
        ),
        ("LS-tree", WOR, full, Box::new(|| Box::new(ls.sampler(q)))),
        (
            "frozen",
            WOR,
            full,
            Box::new(|| Box::new(frozen.sampler(&q, WOR))),
        ),
        (
            "frozen",
            WR,
            PREFIX,
            Box::new(|| Box::new(frozen.sampler(&q, WR))),
        ),
        (
            "composite",
            WOR,
            full,
            Box::new(|| Box::new(ingest.sampler(&q, WOR))),
        ),
        (
            "composite",
            WR,
            PREFIX,
            Box::new(|| Box::new(ingest.sampler(&q, WR))),
        ),
    ];

    for (name, mode, limit, open) in &table {
        let expected_len = (*limit).min(q_size);
        for seed in SEEDS {
            let reference = drain(&mut *open(), seed, DRAINS[0], *limit);
            assert_eq!(reference.len(), expected_len, "{name} {mode:?} seed {seed}");
            for blocks in &DRAINS[1..] {
                let ids = drain(&mut *open(), seed, blocks, *limit);
                assert_eq!(
                    ids, reference,
                    "{name} {mode:?} seed {seed}: drained in blocks {blocks:?}"
                );
            }
        }
    }
}

#[test]
fn boxed_rs_tree_wor_drains_the_same_set_whatever_the_blocks() {
    let data = items();
    let q = query();
    let mut expected: Vec<u64> = data
        .iter()
        .filter(|it| q.contains_point(&it.point))
        .map(|it| it.id)
        .collect();
    expected.sort_unstable();
    for seed in SEEDS {
        for blocks in DRAINS {
            let mut rs = RsTree::bulk_load(data.clone(), RsTreeConfig::with_fanout(FANOUT));
            let limit = expected.len() + 1;
            let mut ids = drain(&mut rs.sampler(q, WOR), seed, blocks, limit);
            ids.sort_unstable();
            assert_eq!(ids, expected, "seed {seed}: drained in blocks {blocks:?}");
        }
    }
}
