//! Experiment implementations for every figure of the STORM paper.
//!
//! Each `run_*` function regenerates one paper artifact (see DESIGN.md §3)
//! and returns printable rows; the `figures` binary formats them as the
//! same series the paper plots, and the Criterion benches reuse the same
//! setup code for statistically rigorous timing of the hot paths.
//!
//! Absolute numbers will differ from the paper (their testbed was a
//! MongoDB cluster over 1B+ OSM points; this is an in-process simulator) —
//! the *shapes* are what must match: who wins, by how much, where the
//! crossovers sit.

#![forbid(unsafe_code)]

use std::time::Instant;

use rand::{rngs::StdRng, SeedableRng};
use storm_core::{
    LsTree, QueryFirst, RandomPath, RsTree, RsTreeConfig, SampleFirst, SampleMode, SamplerKind,
    SelectorKind, SpatialSampler,
};
use storm_estimators::kde::{KdeEstimator, Kernel};
use storm_estimators::text::SpaceSaving;
use storm_estimators::trajectory::TrajectoryBuilder;
use storm_estimators::OnlineStat;
use storm_geo::{Point2, Rect2, StPoint, TimeRange};
use storm_rtree::{BulkMethod, Item, RTree, RTreeConfig};
use storm_workload::{osm, queries, tweets};

/// Standard fanout (block size `B`) for experiment trees.
pub const FANOUT: usize = 64;

/// A generic result row: a label plus named numeric columns.
#[derive(Debug, Clone)]
pub struct Row {
    /// Series / method name.
    pub label: String,
    /// `(column name, value)` pairs.
    pub values: Vec<(&'static str, f64)>,
}

impl Row {
    /// Creates a row.
    pub fn new(label: impl Into<String>, values: Vec<(&'static str, f64)>) -> Self {
        Row {
            label: label.into(),
            values,
        }
    }
}

/// Renders rows as an aligned text table.
pub fn format_table(title: &str, rows: &[Row]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "## {title}");
    if rows.is_empty() {
        let _ = writeln!(out, "(no rows)");
        return out;
    }
    let label_w = rows.iter().map(|r| r.label.len()).max().unwrap_or(5).max(6);
    let _ = write!(out, "{:<label_w$}", "series");
    for (name, _) in &rows[0].values {
        let _ = write!(out, " {name:>14}");
    }
    let _ = writeln!(out);
    for row in rows {
        let _ = write!(out, "{:<label_w$}", row.label);
        for (_, v) in &row.values {
            if v.abs() >= 1e6 || (v.abs() < 1e-3 && *v != 0.0) {
                let _ = write!(out, " {v:>14.3e}");
            } else {
                let _ = write!(out, " {v:>14.4}");
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// The prepared Figure-3 workload: OSM-like points indexed every way the
/// experiment needs, plus a fixed query at the requested selectivity.
pub struct Fig3Setup {
    /// The generated data.
    pub data: osm::OsmData,
    /// Plain Hilbert R-tree (RandomPath + RangeReport).
    pub plain: RTree<2>,
    /// The RS-tree.
    pub rs: RsTree<2>,
    /// The LS forest.
    pub ls: LsTree<2>,
    /// The fixed query rectangle.
    pub query: Rect2,
    /// Exact `q = |P ∩ Q|`.
    pub q: usize,
}

/// Builds the Figure-3 workload: `n` OSM-like points and a query with
/// selectivity `q_frac` (the paper fixes a query with `q = 10^9`; we fix
/// the same *relative* size, `q/N ≈ 10%`).
pub fn fig3_setup(n: usize, q_frac: f64, seed: u64) -> Fig3Setup {
    let data = osm::generate(n, seed);
    let (query, q) =
        queries::rect_with_selectivity(&data.items, q_frac, seed ^ 0xABCD).expect("non-empty");
    let plain = RTree::bulk_load(
        data.items.clone(),
        RTreeConfig::with_fanout(FANOUT),
        BulkMethod::Hilbert,
    );
    let mut rs = RsTree::bulk_load(data.items.clone(), RsTreeConfig::with_fanout(FANOUT));
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
    rs.prefill(&mut rng);
    let ls = LsTree::bulk_load(
        data.items.clone(),
        RTreeConfig::with_fanout(FANOUT),
        seed ^ 0x15,
    );
    Fig3Setup {
        data,
        plain,
        rs,
        ls,
        query,
        q,
    }
}

/// The four methods of Figure 3(a) (plus SampleFirst as a bonus series).
pub const FIG3A_METHODS: &[SamplerKind] = &[
    SamplerKind::RandomPath,
    SamplerKind::RsTree,
    SamplerKind::QueryFirst,
    SamplerKind::LsTree,
    SamplerKind::SampleFirst,
];

/// Draws `k` samples with the given method; returns `(seconds, io_reads)`.
pub fn draw_k(setup: &mut Fig3Setup, method: SamplerKind, k: usize, seed: u64) -> (f64, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let io = match method {
        SamplerKind::LsTree => setup.ls.io_handle(),
        SamplerKind::RsTree => setup.rs.io_handle(),
        _ => setup.plain.io_handle(),
    };
    let before = io.reads();
    let start = Instant::now();
    let drawn = match method {
        SamplerKind::QueryFirst => {
            let mut s = QueryFirst::new(&setup.plain, &setup.query, SampleMode::WithoutReplacement);
            s.draw(k, &mut rng).len()
        }
        SamplerKind::SampleFirst => {
            let mut s = SampleFirst::new(
                &setup.data.items,
                setup.query,
                SampleMode::WithoutReplacement,
            )
            .with_io(setup.plain.io_handle());
            s.draw(k, &mut rng).len()
        }
        SamplerKind::RandomPath => {
            let mut s = RandomPath::new(&setup.plain, setup.query, SampleMode::WithoutReplacement);
            s.draw(k, &mut rng).len()
        }
        SamplerKind::LsTree => {
            let mut s = setup.ls.sampler(setup.query);
            s.draw(k, &mut rng).len()
        }
        SamplerKind::RsTree => {
            let mut s = setup
                .rs
                .sampler(setup.query, SampleMode::WithoutReplacement);
            s.draw(k, &mut rng).len()
        }
    };
    let secs = start.elapsed().as_secs_f64();
    assert!(
        drawn >= k.min(setup.q) * 9 / 10,
        "{method} drew only {drawn}/{k}"
    );
    (secs, io.reads() - before)
}

/// E1 / Figure 3(a): time and simulated I/Os to draw increasing `k`, as a
/// fraction of `q`.
pub fn run_fig3a(n: usize, fractions: &[f64], seed: u64) -> Vec<Row> {
    let mut setup = fig3_setup(n, 0.10, seed);
    let q = setup.q;
    let mut rows = Vec::new();
    for method in FIG3A_METHODS {
        for &f in fractions {
            let k = ((q as f64 * f) as usize).max(1);
            let (secs, ios) = draw_k(&mut setup, *method, k, seed ^ k as u64);
            rows.push(Row::new(
                format!("{method}"),
                vec![
                    ("k/q(%)", f * 100.0),
                    ("k", k as f64),
                    ("time(s)", secs),
                    ("sim-IOs", ios as f64),
                ],
            ));
        }
    }
    rows
}

/// E2 / Figure 3(b): relative error of `AVG(altitude)` vs elapsed time for
/// the LS-tree and RS-tree, averaged over `FIG3B_REPS` independent runs
/// (a single run's absolute error fluctuates; the paper plots the trend).
pub fn run_fig3b(n: usize, checkpoints_ms: &[f64], seed: u64) -> Vec<Row> {
    let mut setup = fig3_setup(n, 0.10, seed);
    let truth = setup
        .data
        .exact_avg_altitude(&setup.query)
        .expect("non-empty query");
    let mut rows = Vec::new();
    for method in [SamplerKind::LsTree, SamplerKind::RsTree] {
        // err_sum[i], n_sum[i] accumulate over repetitions.
        let mut err_sum = vec![0.0f64; checkpoints_ms.len()];
        let mut n_sum = vec![0.0f64; checkpoints_ms.len()];
        for rep in 0..FIG3B_REPS {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF ^ (rep as u64) << 32);
            let altitudes = &setup.data.altitudes;
            let mut stat = OnlineStat::without_replacement(setup.q);
            let mut checkpoint = 0usize;
            let start = Instant::now();
            // The two samplers have different types; run the identical
            // loop on a trait object.
            let mut ls_sampler;
            let mut rs_sampler;
            let sampler: &mut dyn SpatialSampler<2> = match method {
                SamplerKind::LsTree => {
                    ls_sampler = setup.ls.sampler(setup.query);
                    &mut ls_sampler
                }
                _ => {
                    rs_sampler = setup
                        .rs
                        .sampler(setup.query, SampleMode::WithoutReplacement);
                    &mut rs_sampler
                }
            };
            let mut record = |i: usize, stat: &OnlineStat| {
                err_sum[i] += (stat.mean() - truth).abs() / truth.abs().max(f64::MIN_POSITIVE);
                n_sum[i] += stat.n() as f64;
            };
            // Per-draw pull into one reused slot, so the loop times draws
            // rather than an allocation per draw.
            let mut one: Vec<Item<2>> = Vec::with_capacity(1);
            while checkpoint < checkpoints_ms.len() {
                one.clear();
                if sampler.next_batch(&mut rng, &mut one, 1) == 0 {
                    break;
                }
                stat.push(altitudes[one[0].id as usize]);
                while checkpoint < checkpoints_ms.len()
                    && start.elapsed().as_secs_f64() * 1e3 >= checkpoints_ms[checkpoint]
                {
                    record(checkpoint, &stat);
                    checkpoint += 1;
                }
            }
            // Flush checkpoints the stream ended before reaching (exact
            // now: all q points consumed).
            while checkpoint < checkpoints_ms.len() {
                record(checkpoint, &stat);
                checkpoint += 1;
            }
        }
        for (i, &ms) in checkpoints_ms.iter().enumerate() {
            rows.push(Row::new(
                format!("{method}"),
                vec![
                    ("time(ms)", ms),
                    ("samples", n_sum[i] / FIG3B_REPS as f64),
                    ("rel-err(%)", err_sum[i] / FIG3B_REPS as f64 * 100.0),
                ],
            ));
        }
    }
    rows
}

/// Repetitions averaged by [`run_fig3b`].
pub const FIG3B_REPS: usize = 5;

/// E3 / Figure 5: online KDE density quality vs samples, at a city zoom
/// (Atlanta) and country zoom (USA).
pub fn run_fig5(n_tweets: usize, sample_counts: &[usize], seed: u64) -> Vec<Row> {
    let cfg = tweets::TweetConfig {
        tweets: n_tweets,
        seed,
        ..Default::default()
    };
    let records = tweets::generate(&cfg);
    let regions: [(&str, Rect2); 2] = [
        (
            "Atlanta",
            Rect2::from_corners(Point2::xy(-85.4, 32.8), Point2::xy(-83.4, 34.8)),
        ),
        ("USA", tweets::us_bounds()),
    ];
    let mut rows = Vec::new();
    for (name, rect) in regions {
        let in_region: Vec<Point2> = records
            .iter()
            .filter(|r| rect.contains_point(&r.point.xy))
            .map(|r| r.point.xy)
            .collect();
        if in_region.is_empty() {
            continue;
        }
        let bandwidth = rect.extent(0).max(rect.extent(1)) * 0.05;
        let kernel = Kernel::Epanechnikov { bandwidth };
        let exact = KdeEstimator::exact_map(rect, 32, 32, kernel, &in_region);
        let peak = exact
            .iter()
            .cloned()
            .fold(0.0, f64::max)
            .max(f64::MIN_POSITIVE);
        // Sample in random order (the estimator sees a WOR stream).
        let mut order: Vec<usize> = (0..in_region.len()).collect();
        use rand::seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51);
        order.shuffle(&mut rng);
        let mut kde = KdeEstimator::new(rect, 32, 32, kernel).with_population(in_region.len());
        let mut consumed = 0usize;
        for &target in sample_counts {
            let target = target.min(in_region.len());
            while consumed < target {
                kde.push(&in_region[order[consumed]]);
                consumed += 1;
            }
            rows.push(Row::new(
                name,
                vec![
                    ("samples", consumed as f64),
                    ("L1-err(rel)", kde.l1_distance(&exact) / peak),
                ],
            ));
        }
    }
    rows
}

/// E4 / Figure 6(a): trajectory reconstruction deviation vs sampled
/// fraction of one user's tweets.
pub fn run_fig6a(n_tweets: usize, fractions: &[f64], seed: u64) -> Vec<Row> {
    let cfg = tweets::TweetConfig {
        tweets: n_tweets,
        users: 20, // few users → long per-user histories
        with_anomaly: false,
        seed,
        ..Default::default()
    };
    let records = tweets::generate(&cfg);
    let user_points: Vec<StPoint> = records
        .iter()
        .filter(|r| r.body.get("user").and_then(|v| v.as_str()) == Some("user_3"))
        .map(|r| r.point)
        .collect();
    assert!(user_points.len() > 50, "user_3 has too few tweets");
    let mut reference = TrajectoryBuilder::new();
    for p in &user_points {
        reference.push(*p);
    }
    let (t0, t1) = (user_points[0].t, user_points[user_points.len() - 1].t);
    use rand::seq::SliceRandom;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6A);
    let mut order: Vec<usize> = (0..user_points.len()).collect();
    order.shuffle(&mut rng);
    let mut rows = Vec::new();
    let mut builder = TrajectoryBuilder::new();
    let mut consumed = 0usize;
    for &f in fractions {
        let target = ((user_points.len() as f64 * f) as usize).clamp(2, user_points.len());
        while consumed < target {
            builder.push(user_points[order[consumed]]);
            consumed += 1;
        }
        let deviation = builder
            .mean_deviation(&reference, t0, t1, 256)
            .expect("both trajectories non-empty");
        rows.push(Row::new(
            "user_3",
            vec![
                ("sampled(%)", f * 100.0),
                ("waypoints", consumed as f64),
                ("deviation(deg)", deviation),
            ],
        ));
    }
    rows
}

/// E5 / Figure 6(b): top-term precision on the Atlanta snowstorm window vs
/// number of sampled tweets.
pub fn run_fig6b(n_tweets: usize, sample_counts: &[usize], seed: u64) -> Vec<Row> {
    let cfg = tweets::TweetConfig {
        tweets: n_tweets,
        seed,
        ..Default::default()
    };
    let records = tweets::generate(&cfg);
    let window = tweets::atlanta_snow_window();
    let atlanta = Rect2::from_corners(Point2::xy(-84.6, 33.5), Point2::xy(-84.2, 34.0));
    let texts: Vec<&str> = records
        .iter()
        .filter(|r| window.contains(r.point.t) && atlanta.contains_point(&r.point.xy))
        .filter_map(|r| r.body.get("text").and_then(|v| v.as_str()))
        .collect();
    assert!(!texts.is_empty(), "anomaly window empty");
    // Ground truth top-10 terms over all window tweets.
    let mut exact = SpaceSaving::new(4096);
    for t in &texts {
        exact.push_text(t);
    }
    let truth: std::collections::HashSet<String> =
        exact.top(10).into_iter().map(|h| h.term).collect();
    use rand::seq::SliceRandom;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6B);
    let mut order: Vec<usize> = (0..texts.len()).collect();
    order.shuffle(&mut rng);
    let mut ss = SpaceSaving::new(512);
    let mut consumed = 0usize;
    let mut rows = Vec::new();
    for &target in sample_counts {
        let target = target.min(texts.len());
        while consumed < target {
            ss.push_text(texts[order[consumed]]);
            consumed += 1;
        }
        let got: std::collections::HashSet<String> =
            ss.top(10).into_iter().map(|h| h.term).collect();
        let hit = got.intersection(&truth).count();
        rows.push(Row::new(
            "atlanta-snow",
            vec![
                ("samples", consumed as f64),
                ("precision@10", hit as f64 / 10.0),
            ],
        ));
    }
    rows
}

/// E7: update throughput for the two ST-indexes.
pub fn run_updates(n: usize, batch: usize, seed: u64) -> Vec<Row> {
    let data = osm::generate(n, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0D);
    let mut rows = Vec::new();

    // LS-tree updates.
    let mut ls = LsTree::bulk_load(data.items.clone(), RTreeConfig::with_fanout(FANOUT), seed);
    let start = Instant::now();
    for i in 0..batch {
        ls.insert(Item::new(
            Point2::xy((i % 360) as f64 - 180.0, (i % 180) as f64 - 90.0),
            (n + i) as u64,
        ));
    }
    let ins = start.elapsed().as_secs_f64();
    let start = Instant::now();
    for item in data.items.iter().take(batch) {
        assert!(ls.remove(&item.point, item.id));
    }
    let del = start.elapsed().as_secs_f64();
    rows.push(Row::new(
        "LS-tree",
        vec![
            ("inserts/s", batch as f64 / ins),
            ("deletes/s", batch as f64 / del),
        ],
    ));

    // RS-tree updates (with reservoir buffer maintenance).
    let mut rs = RsTree::bulk_load(data.items.clone(), RsTreeConfig::with_fanout(FANOUT));
    rs.prefill(&mut rng);
    let start = Instant::now();
    for i in 0..batch {
        rs.insert(
            Item::new(
                Point2::xy((i % 360) as f64 - 180.0, (i % 180) as f64 - 90.0),
                (n + i) as u64,
            ),
            &mut rng,
        );
    }
    let ins = start.elapsed().as_secs_f64();
    let start = Instant::now();
    for item in data.items.iter().take(batch) {
        assert!(rs.remove(&item.point, item.id, &mut rng));
    }
    let del = start.elapsed().as_secs_f64();
    rows.push(Row::new(
        "RS-tree",
        vec![
            ("inserts/s", batch as f64 / ins),
            ("deletes/s", batch as f64 / del),
        ],
    ));
    rows
}

/// E8: simulated I/O per method as `k` grows (the `O(k/B)` vs `Ω(k)`
/// analysis), for two block sizes.
pub fn run_io(n: usize, ks: &[usize], seed: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for fanout in [32usize, 128] {
        let data = osm::generate(n, seed);
        let (query, q) =
            queries::rect_with_selectivity(&data.items, 0.10, seed ^ 0xABCD).expect("non-empty");
        let plain = RTree::bulk_load(
            data.items.clone(),
            RTreeConfig::with_fanout(fanout),
            BulkMethod::Hilbert,
        );
        let mut rs = RsTree::bulk_load(data.items.clone(), {
            let mut cfg = RsTreeConfig::with_fanout(fanout);
            cfg.buffer_size = fanout;
            cfg
        });
        let mut rng = StdRng::seed_from_u64(seed);
        rs.prefill(&mut rng);
        let ls = LsTree::bulk_load(data.items.clone(), RTreeConfig::with_fanout(fanout), seed);
        for &k in ks {
            let k = k.min(q);
            // RandomPath
            let before = plain.io().reads();
            let mut s = RandomPath::new(&plain, query, SampleMode::WithoutReplacement);
            s.draw(k, &mut rng);
            let rp = plain.io().reads() - before;
            // LS
            let before = ls.io().reads();
            let mut s = ls.sampler(query);
            s.draw(k, &mut rng);
            let lsio = ls.io().reads() - before;
            // RS
            let rs_io = rs.io_handle();
            let before = rs_io.reads();
            let mut s = rs.sampler(query, SampleMode::WithoutReplacement);
            s.draw(k, &mut rng);
            drop(s);
            let rsio = rs_io.reads() - before;
            for (label, ios) in [("RandomPath", rp), ("LS-tree", lsio), ("RS-tree", rsio)] {
                rows.push(Row::new(
                    format!("{label}/B={fanout}"),
                    vec![
                        ("k", k as f64),
                        ("sim-IOs", ios as f64),
                        ("IOs/sample", ios as f64 / k as f64),
                    ],
                ));
            }
        }
    }
    rows
}

/// E9 ablation: RS-tree design choices — part selector and buffering.
pub fn run_ablation(n: usize, k: usize, seed: u64) -> Vec<Row> {
    let data = osm::generate(n, seed);
    let (query, q) =
        queries::rect_with_selectivity(&data.items, 0.10, seed ^ 0xABCD).expect("non-empty");
    let k = k.min(q);
    let mut rows = Vec::new();
    for (label, selector, prefill) in [
        ("alias+buffers", SelectorKind::Alias, true),
        ("A/R+buffers", SelectorKind::AcceptReject, true),
        ("linear+buffers", SelectorKind::Linear, true),
        ("alias,cold", SelectorKind::Alias, false),
    ] {
        let mut cfg = RsTreeConfig::with_fanout(FANOUT);
        cfg.selector = selector;
        let mut rs = RsTree::bulk_load(data.items.clone(), cfg);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x42);
        if prefill {
            rs.prefill(&mut rng);
        }
        let before = rs.io().reads();
        let start = Instant::now();
        let mut s = rs.sampler(query, SampleMode::WithoutReplacement);
        let drawn = s.draw(k, &mut rng).len();
        let secs = start.elapsed().as_secs_f64();
        drop(s);
        rows.push(Row::new(
            label,
            vec![
                ("k", drawn as f64),
                ("time(s)", secs),
                ("sim-IOs", (rs.io().reads() - before) as f64),
            ],
        ));
    }
    rows
}

/// E10: the SampleFirst / index-sampler crossover as selectivity rises,
/// plus what the optimizer picks at each point.
pub fn run_crossover(n: usize, k: usize, seed: u64) -> Vec<Row> {
    use storm_core::cost::{self, CostInputs};
    let data = osm::generate(n, seed);
    let plain = RTree::bulk_load(
        data.items.clone(),
        RTreeConfig::with_fanout(FANOUT),
        BulkMethod::Hilbert,
    );
    let mut rs = RsTree::bulk_load(data.items.clone(), RsTreeConfig::with_fanout(FANOUT));
    let mut rng = StdRng::seed_from_u64(seed);
    rs.prefill(&mut rng);
    let mut rows = Vec::new();
    for frac in [0.01, 0.05, 0.2, 0.5, 0.9] {
        let Some((query, q)) = queries::rect_with_selectivity(&data.items, frac, seed ^ 7) else {
            continue;
        };
        let k = k.min(q).max(1);
        // SampleFirst wall time.
        let start = Instant::now();
        let mut s = SampleFirst::new(&data.items, query, SampleMode::WithReplacement);
        let got = s.draw(k, &mut rng).len();
        let sf = if got == k {
            start.elapsed().as_secs_f64()
        } else {
            f64::INFINITY
        };
        // RS wall time.
        let start = Instant::now();
        let mut s = rs.sampler(query, SampleMode::WithReplacement);
        s.draw(k, &mut rng);
        let rst = start.elapsed().as_secs_f64();
        drop(s);
        let pick = cost::recommend(
            &CostInputs {
                n,
                q_est: q,
                k_est: k,
                block: FANOUT,
                height: plain.height(),
            },
            SampleMode::WithReplacement,
        );
        rows.push(Row::new(
            format!("q/N={frac}"),
            vec![
                ("SampleFirst(s)", sf),
                ("RS-tree(s)", rst),
                (
                    "opt=SF",
                    if pick == SamplerKind::SampleFirst {
                        1.0
                    } else {
                        0.0
                    },
                ),
            ],
        ));
    }
    rows
}

/// E11: distributed scaling — total cluster work vs critical-path I/O as
/// the shard count grows (the paper's "cluster of commodity machines").
pub fn run_scaling(n: usize, k: usize, seed: u64) -> Vec<Row> {
    use storm_core::DistributedRsTree;
    let data = osm::generate(n, seed);
    let (query, q) =
        queries::rect_with_selectivity(&data.items, 0.10, seed ^ 0xABCD).expect("non-empty");
    let k = k.min(q);
    let mut rows = Vec::new();
    for shards in [1usize, 2, 4, 8, 16, 32] {
        let cluster = DistributedRsTree::bulk_load(
            data.items.clone(),
            shards,
            RsTreeConfig::with_fanout(FANOUT),
        );
        let mut rng = StdRng::seed_from_u64(seed ^ shards as u64);
        cluster.reset_io();
        let start = Instant::now();
        let mut s = cluster.sampler(query, SampleMode::WithoutReplacement, seed);
        let drawn = s.draw(k, &mut rng).len();
        let secs = start.elapsed().as_secs_f64();
        drop(s);
        rows.push(Row::new(
            format!("{shards} shards"),
            vec![
                ("k", drawn as f64),
                ("time(s)", secs),
                ("total-IOs", cluster.total_reads() as f64),
                ("critical-path", cluster.max_shard_reads() as f64),
            ],
        ));
    }
    rows
}

/// One measured configuration of the batched scatter-gather experiment
/// (E12): how fast a fixed WOR sample stream drains from a sharded
/// RS-tree, per executor, batch size, and shard count.
#[derive(Debug, Clone)]
pub struct BatchPoint {
    /// `"inline"` (the coordinator stepping the same frozen shards on the
    /// caller's thread, one draw per call — no worker threads, so no
    /// channel round-trip per fill), `"sequential"` (the same stream,
    /// same seeds, through the threaded executor: a fill is a channel
    /// round-trip to a worker, the distributed paper setting's network
    /// hop), or
    /// `"parallel"` (batched scatter-gather: round-trips amortised over
    /// `batch` draws, shard work overlapping across workers).
    pub method: &'static str,
    /// Data-set size `N`.
    pub n: usize,
    /// Exact result size `q = |P ∩ Q|`.
    pub q: usize,
    /// Batch size `k` per `next_batch` call (1 for the sequential baseline).
    pub batch: usize,
    /// Shard count.
    pub shards: usize,
    /// Samples actually drawn.
    pub samples: usize,
    /// Wall-clock seconds.
    pub secs: f64,
}

impl BatchPoint {
    /// Throughput in samples per second.
    pub fn samples_per_sec(&self) -> f64 {
        self.samples as f64 / self.secs.max(1e-12)
    }
}

/// E12: batched-kernel + parallel scatter-gather throughput on the
/// Figure-3(a) workload (q/N = 10% WOR stream), over a grid of shard
/// counts × batch sizes, against the sequential one-at-a-time baseline.
///
/// Each configuration drains `min(q, 65536)` samples from a fresh stream
/// over the *same* frozen shards, so rows are directly comparable.
/// The acceptance comparison is `parallel` (batched) vs `sequential`
/// (one draw per call through the same executor) — the pair that
/// isolates what batching buys a shard-gather protocol. The `inline`
/// series drains the identical stream as `sequential` (same coordinator
/// RNG seed, same session seed) with the shards stepped on the caller's
/// thread, so the two differ only in transport: what the worker threads'
/// channel round-trips cost, or on a many-core host buy.
pub fn run_batch_throughput(
    n: usize,
    shard_counts: &[usize],
    batch_sizes: &[usize],
    seed: u64,
) -> Vec<BatchPoint> {
    use storm_core::DistributedRsTree;
    let data = osm::generate(n, seed);
    let (query, q) =
        queries::rect_with_selectivity(&data.items, 0.10, seed ^ 0xABCD).expect("non-empty");
    let total = q.min(65_536);
    let mut points = Vec::new();
    for &shards in shard_counts {
        let cluster = DistributedRsTree::bulk_load(
            data.items.clone(),
            shards,
            RsTreeConfig::with_fanout(FANOUT),
        );

        // Inline: the coordinator steps the same shards on this thread,
        // draining the stream the sequential row drains (same seeds).
        let (rng_seed, session_seed) = (seed ^ 0xBA ^ 1, seed ^ 1);
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let start = Instant::now();
        let mut s = cluster.sampler(query, SampleMode::WithoutReplacement, session_seed);
        let drawn = drain_blocks(&mut s, &mut rng, 1, total);
        let secs = start.elapsed().as_secs_f64();
        drop(s);
        points.push(BatchPoint {
            method: "inline",
            n,
            q,
            batch: 1,
            shards,
            samples: drawn,
            secs,
        });

        // Executor runs over the same shards (a stream consumes no shard
        // state: a fresh sampler restarts the stream).
        // First sequential one-at-a-time gather, then the batched
        // configurations.
        let parallel = cluster.into_parallel();
        // Untimed warm-up: on a small host each worker thread's start-up
        // cost would land on whichever timed series runs first. One tiny
        // drain forces an Open/Fill round-trip through every worker, so
        // all of them are serving before the clock starts.
        {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x33AA);
            let mut s = parallel.sampler(query, SampleMode::WithReplacement, seed ^ 0x77);
            let mut buf: Vec<Item<2>> = Vec::with_capacity(8);
            let _ = s.next_batch(&mut rng, &mut buf, 8);
        }
        for (method, batches) in [("sequential", &[1usize][..]), ("parallel", batch_sizes)] {
            for &batch in batches {
                let mut rng = StdRng::seed_from_u64(seed ^ 0xBA ^ batch as u64);
                let start = Instant::now();
                let mut s =
                    parallel.sampler(query, SampleMode::WithoutReplacement, seed ^ batch as u64);
                let drawn = drain_blocks(&mut s, &mut rng, batch, total);
                let secs = start.elapsed().as_secs_f64();
                drop(s);
                points.push(BatchPoint {
                    method,
                    n,
                    q,
                    batch,
                    shards,
                    samples: drawn,
                    secs,
                });
            }
        }
    }
    points
}

/// Draws up to `total` samples from `s` in `next_batch` blocks of
/// `batch`; returns how many it drew.
fn drain_blocks(
    s: &mut dyn SpatialSampler<2>,
    rng: &mut StdRng,
    batch: usize,
    total: usize,
) -> usize {
    let mut buf: Vec<Item<2>> = Vec::with_capacity(batch);
    let mut drawn = 0usize;
    while drawn < total {
        buf.clear();
        let got = s.next_batch(rng, &mut buf, batch.min(total - drawn));
        if got == 0 {
            break;
        }
        drawn += got;
    }
    drawn
}

/// E14: the single-thread frozen-kernel microbenchmark. One shard, the
/// Figure-3(a) workload (q/N = 10% WOR stream), comparing the boxed
/// RS-tree sampler against the frozen flat-array kernel — same tree
/// contents, same stream semantics, no executor or messaging in either
/// series, so the ratio isolates what
/// the SoA arena + implicit indexing + alias descents buy a single core.
///
/// Points: `kernel-boxed` (per-draw `next_batch(…, 1)` loop into one
/// reused slot, batch column 1),
/// then `kernel-frozen` once per entry of `batches` (arena `next_batch`
/// drains; batch 1 shows the layout win alone, larger batches add the
/// amortised-dispatch win).
pub fn run_kernel_bench(n: usize, batches: &[usize], seed: u64) -> Vec<BatchPoint> {
    let data = osm::generate(n, seed);
    let (query, q) =
        queries::rect_with_selectivity(&data.items, 0.10, seed ^ 0xABCD).expect("non-empty");
    let total = q.min(65_536);
    let mut rs = RsTree::bulk_load(data.items.clone(), RsTreeConfig::with_fanout(FANOUT));
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
    rs.prefill(&mut rng);
    let mut points = Vec::new();

    // Boxed baseline: one draw per pass through the buffered cone.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E0);
    let start = Instant::now();
    let mut s = rs.sampler(query, SampleMode::WithoutReplacement);
    let mut one: Vec<Item<2>> = Vec::with_capacity(1);
    let mut drawn = 0usize;
    while drawn < total {
        one.clear();
        if s.next_batch(&mut rng, &mut one, 1) == 0 {
            break;
        }
        drawn += 1;
    }
    let secs = start.elapsed().as_secs_f64();
    drop(s);
    points.push(BatchPoint {
        method: "kernel-boxed",
        n,
        q,
        batch: 1,
        shards: 1,
        samples: drawn,
        secs,
    });

    // Frozen kernel over the same tree contents.
    let frozen = std::sync::Arc::new(rs.freeze());
    for &batch in batches {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5E0);
        let start = Instant::now();
        let mut s = frozen.sampler(&query, SampleMode::WithoutReplacement);
        let mut buf: Vec<Item<2>> = Vec::with_capacity(batch);
        let mut drawn = 0usize;
        while drawn < total {
            buf.clear();
            let got = s.next_batch(&mut rng, &mut buf, batch.min(total - drawn));
            if got == 0 {
                break;
            }
            drawn += got;
        }
        let secs = start.elapsed().as_secs_f64();
        points.push(BatchPoint {
            method: "kernel-frozen",
            n,
            q,
            batch,
            shards: 1,
            samples: drawn,
            secs,
        });
    }
    points
}

/// Formats batch points as printable [`Row`]s.
pub fn batch_rows(points: &[BatchPoint]) -> Vec<Row> {
    points
        .iter()
        .map(|p| {
            Row::new(
                format!("{}/s={}", p.method, p.shards),
                vec![
                    ("batch", p.batch as f64),
                    ("samples", p.samples as f64),
                    ("time(s)", p.secs),
                    ("samples/s", p.samples_per_sec()),
                ],
            )
        })
        .collect()
}

/// Where a measurement was taken, as JSON fields: `"commit"` (the
/// checkout's `git describe --always --dirty`) and `"cores"` (the host's
/// available parallelism).
pub fn run_stamp() -> String {
    let commit = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned());
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    format!("\"commit\": \"{commit}\", \"cores\": {cores}")
}

/// Serialises batch points as the machine-readable `BENCH_results.json`
/// payload, each entry carrying `stamp` (see [`run_stamp`]). Hand-rolled
/// writer — the workspace vendors no serde — with a stable field order so
/// downstream diffs stay readable.
pub fn batch_json(points: &[BatchPoint], stamp: &str) -> String {
    use std::fmt::Write;
    let mut out = String::from("[\n");
    for (i, p) in points.iter().enumerate() {
        let _ = write!(
            out,
            "  {{\"method\": \"{}\", \"n\": {}, \"q\": {}, \"batch\": {}, \"shards\": {}, \
             \"samples\": {}, \"samples_per_sec\": {:.1}, \"wall_time_s\": {:.6}, {stamp}}}",
            p.method,
            p.n,
            p.q,
            p.batch,
            p.shards,
            p.samples,
            p.samples_per_sec(),
            p.secs
        );
        out.push_str(if i + 1 == points.len() { "\n" } else { ",\n" });
    }
    out.push_str("]\n");
    out
}

/// One measured configuration of the multi-session serving experiment
/// (E15): `sessions` concurrent online-aggregation queries drained to a
/// fixed per-session sample budget, either through the shared-pool
/// [`storm_server::SessionServer`] (`"serve"`) or a naive
/// one-query-at-a-time loop over [`storm_core::ParallelSampler`]
/// (`"naive"`, the pre-server serving story: each query pays its own
/// open/fill round-trips and no work overlaps across queries).
#[derive(Debug, Clone)]
pub struct ServePoint {
    /// `"serve"` or `"naive"`.
    pub method: &'static str,
    /// Data-set size `N`.
    pub n: usize,
    /// Concurrent sessions submitted at `t = 0`.
    pub sessions: usize,
    /// Shard-worker count.
    pub shards: usize,
    /// Per-session sample budget.
    pub budget: u64,
    /// Total samples delivered across all sessions.
    pub samples: u64,
    /// Wall-clock seconds until every session finished.
    pub secs: f64,
    /// Median time from batch submission to a session's first estimate.
    pub p50_first_ms: f64,
    /// 99th-percentile time to first estimate.
    pub p99_first_ms: f64,
}

impl ServePoint {
    /// Completed queries per second.
    pub fn queries_per_sec(&self) -> f64 {
        self.sessions as f64 / self.secs.max(1e-12)
    }
}

/// Percentile (nearest-rank on the sorted copy) of `values`, in place.
fn percentile_ms(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let idx = ((p / 100.0) * (values.len() - 1) as f64).round() as usize;
    values[idx.min(values.len() - 1)]
}

/// The deterministic per-session workload: a window covering ~10% of the
/// data extent per axis at a seed-chosen position, plus the session seed.
fn serve_session_query(lo: Point2, hi: Point2, seed: u64, i: usize) -> (Rect2, u64) {
    use rand::RngExt;
    let qseed = seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut rng = StdRng::seed_from_u64(qseed);
    let mut corner = [0.0f64; 2];
    let mut side = [0.0f64; 2];
    for axis in 0..2 {
        let span = hi.get(axis) - lo.get(axis);
        side[axis] = span * 0.02;
        corner[axis] = lo.get(axis) + rng.random::<f64>() * (span - side[axis]);
    }
    let a = Point2::new(corner);
    let b = Point2::new([corner[0] + side[0], corner[1] + side[1]]);
    (Rect2::from_corners(a, b), qseed)
}

/// E15: multi-session serving throughput and time-to-first-estimate.
///
/// All `sessions` queries "arrive" at `t = 0` (the interactive burst the
/// paper's multi-user setting implies). The `naive` leg serves them one
/// query at a time through a fresh [`storm_core::ParallelSampler`] each —
/// per query it pays the open scatter-gather, the first fill round-trip,
/// and the merge, with every co-tenant queued behind it, so its
/// first-estimate tail is the whole batch wall time. The `serve` leg
/// submits all of them to one [`storm_server::SessionServer`] over the
/// *same* worker pool: admissions settle in one batched gather, per-tick
/// fills coalesce into one `FillMany` per shard, and deficit-round-robin
/// credit advances every session together, so first estimates land within
/// a tick or two of submission for the whole population.
///
/// Both legs drain the identical per-session budget in identical block
/// sizes over the same shards (equal total sample throughput); the
/// acceptance ratio is `serve` vs `naive` queries/sec at the largest
/// session count.
pub fn run_serve_bench(n: usize, session_counts: &[usize], seed: u64) -> Vec<ServePoint> {
    use storm_core::DistributedRsTree;
    use storm_server::{QuerySpec, ServeConfig, SessionEvent, SessionServer};
    const SHARDS: usize = 16;
    const BUDGET: u64 = 64;
    const BLOCK: usize = 16;
    let data = osm::generate(n, seed);
    let (mut lo, mut hi) = (data.items[0].point, data.items[0].point);
    for item in &data.items {
        for axis in 0..2 {
            lo = lo.with(axis, lo.get(axis).min(item.point.get(axis)));
            hi = hi.with(axis, hi.get(axis).max(item.point.get(axis)));
        }
    }
    let cluster = DistributedRsTree::bulk_load(
        data.items.clone(),
        SHARDS,
        RsTreeConfig::with_fanout(FANOUT),
    );
    // Moved into each serve leg's server and handed back by `shutdown`.
    let mut parallel = cluster.into_parallel();
    // Untimed warm-up (worker start-up; see run_batch_throughput).
    {
        let (query, qseed) = serve_session_query(lo, hi, seed, usize::MAX);
        let mut rng = StdRng::seed_from_u64(qseed);
        let mut s = parallel.sampler(query, SampleMode::WithReplacement, qseed);
        let mut buf: Vec<Item<2>> = Vec::with_capacity(8);
        let _ = s.next_batch(&mut rng, &mut buf, 8);
    }
    let mut points = Vec::new();
    for &sessions in session_counts {
        // Naive leg: one query at a time over the shared pool.
        let t0 = Instant::now();
        let mut first_ms: Vec<f64> = Vec::with_capacity(sessions);
        let mut total = 0u64;
        for i in 0..sessions {
            let (query, qseed) = serve_session_query(lo, hi, seed, i);
            let mut rng = StdRng::seed_from_u64(qseed);
            let mut s = parallel.sampler(query, SampleMode::WithReplacement, qseed);
            let mut stat = OnlineStat::new();
            let mut buf: Vec<Item<2>> = Vec::with_capacity(BLOCK);
            let mut drawn = 0u64;
            let mut first: Option<f64> = None;
            while drawn < BUDGET {
                buf.clear();
                let want = BLOCK.min((BUDGET - drawn) as usize);
                let got = s.next_batch(&mut rng, &mut buf, want);
                if got == 0 {
                    break;
                }
                for item in &buf {
                    stat.push(item.point.get(0));
                }
                drawn += got as u64;
                if first.is_none() {
                    let _ = stat.mean_estimate();
                    first = Some(t0.elapsed().as_secs_f64() * 1e3);
                }
            }
            total += drawn;
            first_ms.push(first.unwrap_or_else(|| t0.elapsed().as_secs_f64() * 1e3));
        }
        let secs = t0.elapsed().as_secs_f64();
        points.push(ServePoint {
            method: "naive",
            n,
            sessions,
            shards: SHARDS,
            budget: BUDGET,
            samples: total,
            secs,
            p50_first_ms: percentile_ms(&mut first_ms, 50.0),
            p99_first_ms: percentile_ms(&mut first_ms, 99.0),
        });

        // Serve leg: the same burst through the session scheduler.
        let server = SessionServer::start(
            parallel,
            ServeConfig {
                max_sessions: sessions,
                queue_limit: sessions,
                // A whole budget of credit per tick: every session's four
                // 16-sample rounds run back-to-back inside one tick, so
                // the per-tick costs (grant scan, progress emission) are
                // paid once per session instead of once per round. Round
                // *sizes* stay `block` — quantum only gates when rounds
                // run, so the determinism contract is untouched.
                quantum: BUDGET as usize,
                block: BLOCK,
                confidence: 0.95,
            },
        );
        let t0 = Instant::now();
        let handles: Vec<_> = (0..sessions)
            .map(|i| {
                let (query, qseed) = serve_session_query(lo, hi, seed, i);
                server.open(QuerySpec {
                    query,
                    mode: SampleMode::WithReplacement,
                    seed: qseed,
                    sample_budget: Some(BUDGET),
                    time_budget_ms: None,
                    target_error: None,
                })
            })
            .collect();
        // Drain handle by handle with blocking recvs: every session has
        // its own event channel, so events queue while the collector is
        // busy elsewhere and the scheduler thread keeps the core. The
        // observed first-event time is an upper bound on the true
        // first-estimate latency (late-walked handles are charged the
        // drain skew), which keeps the serve percentiles conservative.
        let mut first_ms: Vec<f64> = Vec::with_capacity(sessions);
        let mut total = 0u64;
        for h in &handles {
            let mut first: Option<f64> = None;
            while let Some(ev) = h.recv_event() {
                match ev {
                    SessionEvent::Progress { .. } => {
                        if first.is_none() {
                            first = Some(t0.elapsed().as_secs_f64() * 1e3);
                        }
                    }
                    SessionEvent::Done { outcome, .. } => {
                        if first.is_none() {
                            first = Some(t0.elapsed().as_secs_f64() * 1e3);
                        }
                        total += outcome.samples;
                        break;
                    }
                    SessionEvent::Admitted { .. } => {}
                    SessionEvent::Rejected { .. } => break,
                }
            }
            first_ms.push(first.unwrap_or_else(|| t0.elapsed().as_secs_f64() * 1e3));
        }
        let secs = t0.elapsed().as_secs_f64();
        points.push(ServePoint {
            method: "serve",
            n,
            sessions,
            shards: SHARDS,
            budget: BUDGET,
            samples: total,
            secs,
            p50_first_ms: percentile_ms(&mut first_ms, 50.0),
            p99_first_ms: percentile_ms(&mut first_ms, 99.0),
        });
        parallel = server.shutdown();
    }
    let _ = parallel;
    points
}

/// Formats serve points as printable [`Row`]s.
pub fn serve_rows(points: &[ServePoint]) -> Vec<Row> {
    points
        .iter()
        .map(|p| {
            Row::new(
                format!("{}/S={}", p.method, p.sessions),
                vec![
                    ("queries/s", p.queries_per_sec()),
                    ("samples", p.samples as f64),
                    ("time(s)", p.secs),
                    ("p50-first(ms)", p.p50_first_ms),
                    ("p99-first(ms)", p.p99_first_ms),
                ],
            )
        })
        .collect()
}

/// Serialises serve points in the `BENCH_results.json` entry format
/// (hand-rolled like [`batch_json`]; `sessions` marks E15 entries).
pub fn serve_json(points: &[ServePoint]) -> String {
    use std::fmt::Write;
    let mut out = String::from("[\n");
    for (i, p) in points.iter().enumerate() {
        let _ = write!(
            out,
            "  {{\"method\": \"{}\", \"n\": {}, \"sessions\": {}, \"shards\": {}, \
             \"budget\": {}, \"samples\": {}, \"queries_per_sec\": {:.1}, \
             \"wall_time_s\": {:.6}, \"p50_first_ms\": {:.3}, \"p99_first_ms\": {:.3}}}",
            p.method,
            p.n,
            p.sessions,
            p.shards,
            p.budget,
            p.samples,
            p.queries_per_sec(),
            p.secs,
            p.p50_first_ms,
            p.p99_first_ms
        );
        out.push_str(if i + 1 == points.len() { "\n" } else { ",\n" });
    }
    out.push_str("]\n");
    out
}

/// Merges a freshly produced entry array into an existing
/// `BENCH_results.json` payload: prior entries of the same experiment
/// (matched by `marker`, e.g. `"sessions"` for E15) are replaced, entries
/// of other experiments are kept. Both inputs must be in the one-entry-
/// per-line format the writers here produce.
pub fn merge_results_json(existing: Option<&str>, new_entries: &str, marker: &str) -> String {
    let key = format!("\"{marker}\":");
    let mut entries: Vec<String> = Vec::new();
    let keep = |line: &str| {
        let t = line.trim().trim_end_matches(',');
        (t.starts_with('{') && t.ends_with('}')).then(|| t.to_owned())
    };
    if let Some(text) = existing {
        entries.extend(text.lines().filter_map(keep).filter(|e| !e.contains(&key)));
    }
    entries.extend(new_entries.lines().filter_map(keep));
    let mut out = String::from("[\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str("  ");
        out.push_str(e);
        out.push_str(if i + 1 == entries.len() { "\n" } else { ",\n" });
    }
    out.push_str("]\n");
    out
}

/// One measured configuration of the live-ingestion experiment (E16):
/// the LSM-style delta+runs [`storm_core::IngestIndex`] absorbing the
/// synthetic tweet firehose, alone or while a query thread keeps drawing.
#[derive(Debug, Clone)]
pub struct IngestPoint {
    /// `"stream-ingest"` (writer only), `"query-frozen"` (reader only,
    /// fully ingested + compacted data), or `"ingest+query"` (both at
    /// once — the live-ingestion setting).
    pub method: &'static str,
    /// Total records in the feed.
    pub n: usize,
    /// Inserts performed inside the timed window.
    pub inserts: usize,
    /// Samples drawn inside the timed window.
    pub samples: u64,
    /// Epochs published (minor freezes + compactions) inside the window.
    pub epochs: u64,
    /// Wall-clock seconds.
    pub secs: f64,
}

impl IngestPoint {
    /// Ingest throughput in inserts per second.
    pub fn inserts_per_sec(&self) -> f64 {
        self.inserts as f64 / self.secs.max(1e-12)
    }

    /// Sampling throughput in samples per second.
    pub fn samples_per_sec(&self) -> f64 {
        self.samples as f64 / self.secs.max(1e-12)
    }
}

/// E16: ingest-while-query throughput on the tweet firehose.
///
/// Three timed windows over the same `n`-tweet feed:
///
/// 1. `stream-ingest` — the whole feed streamed batch-by-batch into a
///    fresh [`storm_core::IngestIndex`] (auto minor-freezes included):
///    pure writer throughput through the delta+runs path.
/// 2. `query-frozen` — WR samples drawn from the fully ingested and
///    compacted index: pure reader throughput, the no-writer baseline.
/// 3. `ingest+query` — the second half of the feed streamed in by a
///    writer thread while the query thread draws continuously, reopening
///    its stream whenever a freeze publishes a new epoch (open sessions
///    pin their epoch; new opens get the latest). Both rates measured
///    over the same overlap window.
pub fn run_ingest_bench(n: usize, seed: u64) -> Vec<IngestPoint> {
    use storm_core::{IngestConfig, IngestIndex};
    let cfg = tweets::TweetConfig {
        tweets: n,
        seed,
        ..Default::default()
    };
    let items: Vec<Item<2>> = tweets::generate(&cfg)
        .iter()
        .enumerate()
        .map(|(i, r)| Item::new(r.point.xy, i as u64))
        .collect();
    let query = tweets::us_bounds();
    let index_cfg = IngestConfig::default();
    let mut points = Vec::new();

    // 1. Pure streaming ingest.
    let idx = IngestIndex::<2>::new(index_cfg);
    let start = Instant::now();
    for batch in items.chunks(512) {
        idx.insert_batch(batch.iter().copied());
    }
    let secs = start.elapsed().as_secs_f64();
    points.push(IngestPoint {
        method: "stream-ingest",
        n,
        inserts: n,
        samples: 0,
        epochs: idx.epoch(),
        secs,
    });

    // 2. Reader baseline over the compacted result.
    idx.compact();
    let target = (n as u64).min(262_144);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xE16);
    let mut s = idx.sampler(&query, SampleMode::WithReplacement);
    let mut buf: Vec<Item<2>> = Vec::with_capacity(256);
    let mut drawn = 0u64;
    let start = Instant::now();
    while drawn < target {
        buf.clear();
        let want = 256.min((target - drawn) as usize);
        let got = s.next_batch(&mut rng, &mut buf, want);
        if got == 0 {
            break;
        }
        drawn += got as u64;
    }
    let secs = start.elapsed().as_secs_f64();
    points.push(IngestPoint {
        method: "query-frozen",
        n,
        inserts: 0,
        samples: drawn,
        epochs: 0,
        secs,
    });

    // 3. The live setting: ingest and query concurrently.
    let idx = std::sync::Arc::new(IngestIndex::<2>::new(index_cfg));
    let half = items.len() / 2;
    for batch in items[..half].chunks(512) {
        idx.insert_batch(batch.iter().copied());
    }
    let epoch_before = idx.epoch();
    let done = std::sync::atomic::AtomicBool::new(false);
    let mut samples = 0u64;
    let tail = &items[half..];
    let start = Instant::now();
    std::thread::scope(|scope| {
        let idx_w = std::sync::Arc::clone(&idx);
        let done_w = &done;
        scope.spawn(move || {
            for batch in tail.chunks(512) {
                idx_w.insert_batch(batch.iter().copied());
            }
            done_w.store(true, std::sync::atomic::Ordering::Release);
        });
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1E16);
        let mut s = idx.sampler(&query, SampleMode::WithReplacement);
        let mut buf: Vec<Item<2>> = Vec::with_capacity(256);
        // Draw-then-check: even if the writer wins the race outright the
        // reader still measures at least one mid-ingest batch.
        loop {
            if s.epoch() != idx.epoch() {
                s = idx.sampler(&query, SampleMode::WithReplacement);
            }
            buf.clear();
            samples += s.next_batch(&mut rng, &mut buf, 256) as u64;
            if done.load(std::sync::atomic::Ordering::Acquire) {
                break;
            }
        }
    });
    let secs = start.elapsed().as_secs_f64();
    points.push(IngestPoint {
        method: "ingest+query",
        n,
        inserts: items.len() - half,
        samples,
        epochs: idx.epoch() - epoch_before,
        secs,
    });
    points
}

/// Formats ingest points as printable [`Row`]s.
pub fn ingest_rows(points: &[IngestPoint]) -> Vec<Row> {
    points
        .iter()
        .map(|p| {
            Row::new(
                p.method,
                vec![
                    ("inserts", p.inserts as f64),
                    ("inserts/s", p.inserts_per_sec()),
                    ("samples", p.samples as f64),
                    ("samples/s", p.samples_per_sec()),
                    ("epochs", p.epochs as f64),
                    ("time(s)", p.secs),
                ],
            )
        })
        .collect()
}

/// Serialises ingest points in the machine-readable `BENCH_ingest.json`
/// format (hand-rolled like [`batch_json`]).
pub fn ingest_json(points: &[IngestPoint]) -> String {
    use std::fmt::Write;
    let mut out = String::from("[\n");
    for (i, p) in points.iter().enumerate() {
        let _ = write!(
            out,
            "  {{\"method\": \"{}\", \"n\": {}, \"inserts\": {}, \"inserts_per_sec\": {:.1}, \
             \"samples\": {}, \"samples_per_sec\": {:.1}, \"epochs\": {}, \"wall_time_s\": {:.6}}}",
            p.method,
            p.n,
            p.inserts,
            p.inserts_per_sec(),
            p.samples,
            p.samples_per_sec(),
            p.epochs,
            p.secs
        );
        out.push_str(if i + 1 == points.len() { "\n" } else { ",\n" });
    }
    out.push_str("]\n");
    out
}

/// E13 — degraded-mode recovery vs injected fault rate.
///
/// For each per-mille fault rate, a 4-shard parallel cluster runs the
/// Figure-3(a) workload (q/N = 10% WOR stream) under a deterministic
/// [`storm_engine::FaultPlan`] that drops shard replies at `rate` and
/// panics workers at `rate / 4`, with a 20 ms timeout + 2-retry recovery
/// policy. Columns: delivered samples, written-off mass, dead shards,
/// wall time, and recovery latency per 1 000 delivered samples. Rate 0
/// is the E12 no-fault baseline for overhead comparison.
pub fn run_fault_recovery(n: usize, rates_permille: &[u16], seed: u64) -> Vec<Row> {
    use std::sync::Arc;
    use storm_core::DistributedRsTree;
    use storm_engine::{FaultPlan, RetryPolicy};
    let data = osm::generate(n, seed);
    let (query, q) =
        queries::rect_with_selectivity(&data.items, 0.10, seed ^ 0xFA17).expect("non-empty");
    let total = q.min(16_384);
    let mut rows = Vec::new();
    for &rate in rates_permille {
        let mut cluster =
            DistributedRsTree::bulk_load(data.items.clone(), 4, RsTreeConfig::with_fanout(FANOUT))
                .into_parallel();
        cluster.set_retry_policy(RetryPolicy {
            max_retries: 2,
            timeout_ms: 20,
            backoff: 2,
        });
        if rate > 0 {
            cluster.set_fault_hook(Arc::new(
                FaultPlan::seeded(seed ^ u64::from(rate))
                    .with_drops(rate)
                    .with_panics(rate / 4),
            ));
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0xE13);
        let start = Instant::now();
        let mut s = cluster.sampler(query, SampleMode::WithoutReplacement, seed);
        let mut buf: Vec<Item<2>> = Vec::with_capacity(64);
        let mut drawn = 0usize;
        while drawn < total {
            buf.clear();
            let got = s.next_batch(&mut rng, &mut buf, 64.min(total - drawn));
            if got == 0 {
                break;
            }
            drawn += got;
        }
        let secs = start.elapsed().as_secs_f64();
        let d = s.degraded().unwrap_or_default();
        drop(s);
        rows.push(Row::new(
            format!("{rate}permille"),
            vec![
                ("q", q as f64),
                ("samples", drawn as f64),
                ("lost", d.lost_mass() as f64),
                ("dead", d.dead_shards().len() as f64),
                ("time(s)", secs),
                ("ms/1k", secs * 1e6 / drawn.max(1) as f64),
            ],
        ));
    }
    rows
}

/// Formats a [`TimeRange`] compactly (shared by examples).
pub fn fmt_time(range: TimeRange) -> String {
    format!("[{}, {})", range.start(), range.end())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3a_shapes_hold_at_small_scale() {
        // LS and RS beat RandomPath and RangeReport on I/Os at small k/q.
        let rows = run_fig3a(30_000, &[0.001, 0.01], 42);
        let io_of = |method: &str, frac: f64| -> f64 {
            rows.iter()
                .find(|r| r.label == method && (r.values[0].1 - frac * 100.0).abs() < 1e-9)
                .map(|r| r.values[3].1)
                .expect("row exists")
        };
        for frac in [0.001, 0.01] {
            let rs = io_of("RS-tree", frac);
            let ls = io_of("LS-tree", frac);
            let rp = io_of("RandomPath", frac);
            let rr = io_of("QueryFirst", frac);
            assert!(rs < rp, "RS {rs} !< RandomPath {rp} at {frac}");
            assert!(ls < rr, "LS {ls} !< RangeReport {rr} at {frac}");
        }
    }

    #[test]
    fn fig3b_error_decreases_over_time() {
        let rows = run_fig3b(30_000, &[2.0, 20.0, 120.0], 42);
        for method in ["LS-tree", "RS-tree"] {
            let series: Vec<f64> = rows
                .iter()
                .filter(|r| r.label == method)
                .map(|r| r.values[2].1)
                .collect();
            assert_eq!(series.len(), 3);
            assert!(
                series[2] <= series[0] + 1e-9,
                "{method} error grew: {series:?}"
            );
        }
    }

    #[test]
    fn fig5_error_shrinks_with_samples() {
        let rows = run_fig5(20_000, &[50, 2000], 42);
        for region in ["Atlanta", "USA"] {
            let series: Vec<f64> = rows
                .iter()
                .filter(|r| r.label == region)
                .map(|r| r.values[1].1)
                .collect();
            assert!(series.len() >= 2);
            assert!(series[1] < series[0], "{region}: {series:?}");
        }
    }

    #[test]
    fn fig6a_deviation_shrinks() {
        let rows = run_fig6a(20_000, &[0.05, 0.8], 42);
        assert!(rows[1].values[2].1 <= rows[0].values[2].1);
    }

    #[test]
    fn fig6b_precision_improves() {
        let rows = run_fig6b(30_000, &[20, 500], 42);
        let first = rows[0].values[1].1;
        let last = rows[rows.len() - 1].values[1].1;
        assert!(last >= first);
        assert!(last >= 0.7, "final precision {last}");
    }

    #[test]
    fn io_per_sample_shapes() {
        // RandomPath pays ≥1 I/O per sample; LS/RS pay ≪ 1 amortised.
        let rows = run_io(30_000, &[256], 42);
        for fanout in [32, 128] {
            let get = |m: &str| {
                rows.iter()
                    .find(|r| r.label == format!("{m}/B={fanout}"))
                    .unwrap()
                    .values[2]
                    .1
            };
            assert!(get("RandomPath") >= 1.0);
            assert!(get("LS-tree") < get("RandomPath"));
            assert!(get("RS-tree") < get("RandomPath"));
        }
    }

    #[test]
    fn scaling_critical_path_improves() {
        // With a compact query only the shards overlapping it share the
        // load, so the curve plateaus — but the BEST multi-shard
        // configuration must beat the single machine.
        let rows = run_scaling(30_000, 1024, 42);
        let single = rows[0].values[3].1;
        let best = rows[1..]
            .iter()
            .map(|r| r.values[3].1)
            .fold(f64::INFINITY, f64::min);
        assert!(
            best < single,
            "no multi-shard config beat 1 shard: {single} vs best {best}"
        );
    }

    #[test]
    fn fault_recovery_is_accountable_at_every_rate() {
        let rows = run_fault_recovery(20_000, &[0, 200], 42);
        assert_eq!(rows.len(), 2);
        // Rate 0: nothing lost, no dead shards, full delivery.
        assert_eq!(rows[0].values[2].1, 0.0, "clean run lost mass");
        assert_eq!(rows[0].values[3].1, 0.0, "clean run killed shards");
        assert_eq!(rows[0].values[1].1, rows[0].values[0].1.min(16_384.0));
        // Rate 200‰ (+50‰ panics): delivered + lost still covers the
        // stream target — degradation is declared, never silent.
        let q = rows[1].values[0].1;
        let target = q.min(16_384.0);
        assert!(
            rows[1].values[1].1 + rows[1].values[2].1 >= target,
            "delivered {} + lost {} < target {target}",
            rows[1].values[1].1,
            rows[1].values[2].1
        );
    }

    #[test]
    fn batch_harness_replays_deterministically() {
        // Fixed-seed replay across the full multi-threaded harness: the
        // drained sample counts (everything but wall-clock) are identical
        // run to run regardless of thread scheduling.
        storm_testkit::assert_deterministic(2, "batch-throughput points", || {
            run_batch_throughput(10_000, &[4], &[64], 7)
                .into_iter()
                .map(|p| (p.method, p.shards, p.batch, p.samples))
                .collect::<Vec<_>>()
        });
    }

    #[test]
    fn batch_throughput_drains_every_configuration() {
        let points = run_batch_throughput(20_000, &[1, 4], &[16, 256], 42);
        // 2 shard counts × (1 inline + 1 sequential + 2 parallel) rows.
        assert_eq!(points.len(), 8);
        let total = points[0].q.min(65_536);
        for p in &points {
            // WOR completeness: every configuration drains the full target
            // regardless of executor, batch size, or shard count.
            assert_eq!(
                p.samples, total,
                "{}/s={} b={}",
                p.method, p.shards, p.batch
            );
            assert!(p.samples_per_sec() > 0.0);
        }
        let json = batch_json(&points, &run_stamp());
        assert_eq!(json.matches("\"method\"").count(), 8);
        for field in [
            "\"n\":",
            "\"q\":",
            "\"batch\":",
            "\"shards\":",
            "\"samples\":",
            "\"samples_per_sec\":",
            "\"wall_time_s\":",
            "\"commit\":",
            "\"cores\":",
        ] {
            assert_eq!(json.matches(field).count(), 8, "missing {field}");
        }
        assert!(json.trim_start().starts_with('[') && json.trim_end().ends_with(']'));
    }

    #[test]
    fn kernel_bench_drains_every_configuration() {
        let points = run_kernel_bench(20_000, &[1, 1024], 42);
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].method, "kernel-boxed");
        let total = points[0].q.min(65_536);
        for p in &points {
            assert_eq!(p.shards, 1);
            assert_eq!(p.samples, total, "{} b={}", p.method, p.batch);
            assert!(p.samples_per_sec() > 0.0);
        }
    }

    #[test]
    fn ingest_bench_measures_all_three_windows() {
        let points = run_ingest_bench(6_000, 42);
        assert_eq!(points.len(), 3);
        let by = |m: &str| points.iter().find(|p| p.method == m).unwrap();
        let stream = by("stream-ingest");
        assert_eq!(stream.inserts, 6_000);
        assert!(stream.inserts_per_sec() > 0.0);
        assert!(
            stream.epochs >= 1,
            "6k inserts at delta_limit 4096 must freeze"
        );
        let frozen = by("query-frozen");
        assert_eq!(frozen.samples, 6_000);
        assert!(frozen.samples_per_sec() > 0.0);
        let live = by("ingest+query");
        assert_eq!(live.inserts, 3_000);
        assert!(live.samples_per_sec() > 0.0, "reader starved during ingest");
        let json = ingest_json(&points);
        assert_eq!(json.matches("\"method\"").count(), 3);
        for field in [
            "\"inserts_per_sec\":",
            "\"samples_per_sec\":",
            "\"epochs\":",
        ] {
            assert_eq!(json.matches(field).count(), 3, "missing {field}");
        }
    }

    #[test]
    fn table_formatting_is_stable() {
        let rows = vec![
            Row::new("a", vec![("x", 1.0), ("y", 2.5)]),
            Row::new("bb", vec![("x", 1e-9), ("y", 3e7)]),
        ];
        let s = format_table("demo", &rows);
        assert!(s.contains("## demo"));
        assert!(s.contains("series"));
        assert!(s.lines().count() >= 4);
    }
}
