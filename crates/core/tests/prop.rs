//! Property tests: every sampling method, on arbitrary point sets and
//! queries, agrees exactly with a brute-force reference.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::collections::HashSet;
use storm_core::{
    DistributedRsTree, LsTree, QueryFirst, RandomPath, RsTree, RsTreeConfig, SampleFirst,
    SampleMode, SpatialSampler,
};
use storm_geo::{Point2, Rect2};
use storm_rtree::{BulkMethod, Item, RTree, RTreeConfig};

fn items_strategy() -> impl Strategy<Value = Vec<Item<2>>> {
    prop::collection::vec((0.0..100.0f64, 0.0..100.0f64), 0..250).prop_map(|pts| {
        pts.into_iter()
            .enumerate()
            .map(|(i, (x, y))| Item::new(Point2::xy(x, y), i as u64))
            .collect()
    })
}

fn query_strategy() -> impl Strategy<Value = Rect2> {
    (0.0..100.0f64, 0.0..100.0f64, 0.0..60.0f64, 0.0..60.0f64)
        .prop_map(|(x, y, w, h)| Rect2::from_corners(Point2::xy(x, y), Point2::xy(x + w, y + h)))
}

fn reference(items: &[Item<2>], query: &Rect2) -> HashSet<u64> {
    items
        .iter()
        .filter(|it| query.contains_point(&it.point))
        .map(|it| it.id)
        .collect()
}

fn drain(sampler: &mut dyn SpatialSampler<2>, rng: &mut StdRng) -> Option<HashSet<u64>> {
    let mut out = HashSet::new();
    while let Some(item) = sampler.next_sample(rng) {
        if !out.insert(item.id) {
            return None; // duplicate — WOR violation
        }
    }
    Some(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn query_first_and_ls_exhaust_exactly(
        items in items_strategy(),
        query in query_strategy(),
        seed in 0u64..1000,
    ) {
        let expected = reference(&items, &query);
        let mut rng = StdRng::seed_from_u64(seed);

        let tree = RTree::bulk_load(items.clone(), RTreeConfig::with_fanout(8), BulkMethod::Str);
        let mut qf = QueryFirst::new(&tree, &query, SampleMode::WithoutReplacement);
        prop_assert_eq!(drain(&mut qf, &mut rng).expect("no dupes"), expected.clone());

        let ls = LsTree::bulk_load(items.clone(), RTreeConfig::with_fanout(8), seed);
        let mut lss = ls.sampler(query);
        prop_assert_eq!(drain(&mut lss, &mut rng).expect("no dupes"), expected);
    }

    #[test]
    fn rs_and_distributed_exhaust_exactly(
        items in items_strategy(),
        query in query_strategy(),
        seed in 0u64..1000,
        shards in 1usize..6,
    ) {
        let expected = reference(&items, &query);
        let mut rng = StdRng::seed_from_u64(seed);

        let mut rs = RsTree::bulk_load(items.clone(), RsTreeConfig::with_fanout(8));
        let mut rss = rs.sampler(query, SampleMode::WithoutReplacement);
        prop_assert_eq!(rss.result_size(), Some(expected.len()));
        prop_assert_eq!(drain(&mut rss, &mut rng).expect("no dupes"), expected.clone());
        drop(rss);

        let cluster = DistributedRsTree::bulk_load(items, shards, RsTreeConfig::with_fanout(8));
        let mut ds = cluster.sampler(query, SampleMode::WithoutReplacement, seed);
        prop_assert_eq!(drain(&mut ds, &mut rng).expect("no dupes"), expected);
    }

    #[test]
    fn random_path_and_sample_first_stay_inside_the_query(
        items in items_strategy(),
        query in query_strategy(),
        seed in 0u64..1000,
    ) {
        prop_assume!(!items.is_empty());
        let expected = reference(&items, &query);
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = RTree::bulk_load(items.clone(), RTreeConfig::with_fanout(8), BulkMethod::Hilbert);

        let mut rp = RandomPath::new(&tree, query, SampleMode::WithReplacement)
            .with_attempt_budget(50_000);
        let mut sf = SampleFirst::new(&items, query, SampleMode::WithReplacement)
            .with_probe_budget(50_000);
        for _ in 0..32 {
            if let Some(item) = rp.next_sample(&mut rng) {
                prop_assert!(expected.contains(&item.id));
            }
            if let Some(item) = sf.next_sample(&mut rng) {
                prop_assert!(expected.contains(&item.id));
            }
        }
    }

    #[test]
    fn rs_updates_then_streams_match_reference(
        initial in items_strategy(),
        inserts in prop::collection::vec((0.0..100.0f64, 0.0..100.0f64), 0..60),
        delete_every in 2usize..5,
        query in query_strategy(),
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rs = RsTree::bulk_load(initial.clone(), RsTreeConfig::with_fanout(8));
        let mut live: Vec<Item<2>> = initial;
        // Interleave inserts and deletes.
        for (j, (x, y)) in inserts.into_iter().enumerate() {
            let item = Item::new(Point2::xy(x, y), 1_000_000 + j as u64);
            rs.insert(item, &mut rng);
            live.push(item);
            if j % delete_every == 0 && !live.is_empty() {
                let victim = live.swap_remove(j * 7919 % live.len());
                prop_assert!(rs.remove(&victim.point, victim.id, &mut rng));
            }
        }
        let expected = reference(&live, &query);
        let mut s = rs.sampler(query, SampleMode::WithoutReplacement);
        prop_assert_eq!(s.result_size(), Some(expected.len()));
        prop_assert_eq!(drain(&mut s, &mut rng).expect("no dupes"), expected);
    }

    #[test]
    fn ls_updates_then_streams_match_reference(
        initial in items_strategy(),
        inserts in prop::collection::vec((0.0..100.0f64, 0.0..100.0f64), 0..60),
        query in query_strategy(),
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ls = LsTree::bulk_load(initial.clone(), RTreeConfig::with_fanout(8), seed);
        let mut live: Vec<Item<2>> = initial;
        for (j, (x, y)) in inserts.into_iter().enumerate() {
            let item = Item::new(Point2::xy(x, y), 1_000_000 + j as u64);
            ls.insert(item);
            live.push(item);
            if j % 3 == 0 {
                let victim = live.swap_remove(j * 31 % live.len());
                prop_assert!(ls.remove(&victim.point, victim.id));
            }
        }
        let expected = reference(&live, &query);
        let mut s = ls.sampler(query);
        prop_assert_eq!(drain(&mut s, &mut rng).expect("no dupes"), expected);
    }
}
