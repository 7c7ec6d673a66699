//! Server-level epoch handoff: `SessionServer::install_epoch` swaps the
//! worker pool between scheduler ticks. Sessions admitted before the
//! install keep their pinned shard snapshots and finish with the exact
//! estimate sequence a no-swap run produces; sessions admitted after it
//! aggregate the new data.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use storm_core::{
    DistributedRsTree, EpochError, FrozenRsTree, IngestConfig, IngestIndex, ParallelRsCluster,
    RsTreeConfig, SampleMode, SpatialSampler,
};
use storm_engine::session::StopReason;
use storm_geo::{Point2, Rect2};
use storm_rtree::Item;
use storm_server::{
    QuerySpec, ServeConfig, SessionEvent, SessionServer, WireClient, WireEvent, WireServer,
};

const N: usize = 8_000;

/// Epoch-0 data: x-coordinates in `0..100`, so AVG(x) over the full
/// range is ≈ 49.5.
fn old_items() -> Vec<Item<2>> {
    (0..N)
        .map(|i| Item::new(Point2::xy((i % 100) as f64, (i / 100) as f64), i as u64))
        .collect()
}

/// Epoch-1 data: the same grid shifted by +500 in x — any session that
/// aggregates it is unmistakable from one on the old data.
fn new_items() -> Vec<Item<2>> {
    (0..N)
        .map(|i| {
            Item::new(
                Point2::xy(500.0 + (i % 100) as f64, (i / 100) as f64),
                (N + i) as u64,
            )
        })
        .collect()
}

const SHARDS: usize = 4;

/// `items` as one frozen snapshot per shard — an installable epoch.
fn frozen_shards(items: Vec<Item<2>>, shards: usize) -> Vec<Arc<FrozenRsTree<2>>> {
    DistributedRsTree::bulk_load(items, shards, RsTreeConfig::with_fanout(16)).shards()
}

fn cluster(items: Vec<Item<2>>) -> ParallelRsCluster {
    ParallelRsCluster::from_frozen(frozen_shards(items, SHARDS))
}

fn everything() -> Rect2 {
    Rect2::from_corners(Point2::xy(-10.0, -10.0), Point2::xy(1_000.0, 1_000.0))
}

fn spec(seed: u64) -> QuerySpec {
    QuerySpec {
        seed,
        mode: SampleMode::WithoutReplacement,
        sample_budget: Some(1_024),
        ..QuerySpec::new(everything())
    }
}

/// Collects one session's whole estimate history (bit-exact) plus its
/// final value and stop reason.
fn fingerprint(handle: &storm_server::SessionHandle) -> (Vec<(u64, u64)>, f64, StopReason) {
    let mut ticks = Vec::new();
    loop {
        match handle
            .recv_event_timeout(Duration::from_secs(30))
            .expect("server event before timeout")
        {
            SessionEvent::Admitted { .. } => {}
            SessionEvent::Rejected { .. } => panic!("unexpected rejection"),
            SessionEvent::Progress { progress, .. } => {
                if let storm_engine::TaskResult::Aggregate { estimate, .. } = progress.result {
                    ticks.push((progress.samples, estimate.value.to_bits()));
                }
            }
            SessionEvent::Done { outcome, .. } => {
                let est = outcome.estimate().expect("aggregate outcome");
                return (ticks, est.value, outcome.reason);
            }
        }
    }
}

#[test]
fn session_admitted_before_install_replays_the_no_swap_run() {
    // Solo reference: same seed, no swap ever happens.
    let server = SessionServer::start(cluster(old_items()), ServeConfig::default());
    let solo = fingerprint(&server.open(spec(21)));
    drop(server);

    // Same query, but a new epoch is installed while it runs. The
    // install lands at some tick boundary relative to the session's
    // progress — the point of the pinning contract is that *any*
    // interleaving leaves the session's sequence untouched.
    let server = SessionServer::start(cluster(old_items()), ServeConfig::default());
    let target = server.open(spec(21));
    let epoch = server.install_epoch(frozen_shards(new_items(), SHARDS));
    assert_eq!(epoch, Some(Ok(1)));
    let across = fingerprint(&target);
    assert_eq!(across, solo, "pre-install session must be swap-invariant");
    // The old data's x-range tops out at 99: the session aggregated the
    // epoch it opened on.
    assert!(
        across.1 < 100.0,
        "AVG(x) {} came from new-epoch data",
        across.1
    );

    // A session admitted after the install aggregates the shifted data.
    let (_, value, reason) = fingerprint(&server.open(spec(22)));
    assert_eq!(reason, StopReason::SampleBudget);
    assert!(
        value > 500.0,
        "post-install session still on old data: AVG(x) = {value}"
    );
}

#[test]
fn shutdown_returns_the_last_installed_epoch() {
    let server = SessionServer::start(cluster(old_items()), ServeConfig::default());
    // Install a *differently sized* data set so the returned cluster is
    // unambiguous about which epoch it ended on.
    let half: Vec<Item<2>> = new_items().into_iter().take(N / 2).collect();
    assert_eq!(
        server.install_epoch(frozen_shards(half, SHARDS)),
        Some(Ok(1))
    );
    // The cluster handed back on shutdown is the swapped one.
    let cluster = server.shutdown();
    assert_eq!(cluster.epoch(), 1);
    assert_eq!(cluster.len(), N / 2);
}

#[test]
fn a_mismatched_install_is_refused_and_the_scheduler_lives() {
    let server = SessionServer::start(cluster(old_items()), ServeConfig::default());
    let solo = fingerprint(&server.open(spec(31)));
    drop(server);

    let server = SessionServer::start(cluster(old_items()), ServeConfig::default());
    let target = server.open(spec(31));
    // One shard short. The count is checked on the scheduler thread
    // before any worker is told to swap, and comes back as a value.
    assert_eq!(
        server.install_epoch(frozen_shards(new_items(), SHARDS - 1)),
        Some(Err(EpochError {
            expected: SHARDS,
            got: SHARDS - 1
        }))
    );
    // The session opened before the refusal is untouched by it …
    assert_eq!(fingerprint(&target), solo);
    // … the server still serves the epoch it started on …
    let (_, value, _) = fingerprint(&server.open(spec(32)));
    assert!(value < 100.0, "refused epoch leaked: AVG(x) = {value}");
    // … and a well-formed install afterwards goes through as epoch 1.
    assert_eq!(
        server.install_epoch(frozen_shards(new_items(), SHARDS)),
        Some(Ok(1))
    );
    let (_, value, reason) = fingerprint(&server.open(spec(33)));
    assert_eq!(reason, StopReason::SampleBudget);
    assert!(value > 500.0, "post-install AVG(x) = {value}");
}

/// The write path's representation is the served one: each shard's
/// `IngestIndex` compacts to one frozen run, and that very `Arc` is what
/// the worker serves after the install.
#[test]
fn ingest_runs_install_uncopied_and_serve_over_the_socket() {
    let server = SessionServer::start(cluster(old_items()), ServeConfig::default());
    let solo = fingerprint(&server.open(spec(41)));
    drop(server);

    // One ingest index per shard, filled round-robin: any partition into
    // one shard per worker is a valid epoch.
    let inserted = new_items();
    let indexes: Vec<IngestIndex<2>> = (0..SHARDS)
        .map(|_| {
            IngestIndex::new(IngestConfig {
                fanout: 16,
                ..IngestConfig::default()
            })
        })
        .collect();
    for (i, item) in inserted.iter().enumerate() {
        indexes[i % SHARDS].insert(*item);
    }
    let runs: Vec<Arc<FrozenRsTree<2>>> = indexes
        .iter()
        .map(|idx| {
            idx.compact().expect("delta is not empty");
            let (_, state) = idx.pin();
            assert_eq!(state.runs.len(), 1);
            assert!(state.delta.is_empty());
            Arc::clone(&state.runs[0])
        })
        .collect();
    // Two owners each: the index's epoch state, and `runs`.
    assert!(runs.iter().all(|run| Arc::strong_count(run) == 2));

    let server = Arc::new(SessionServer::start(
        cluster(old_items()),
        ServeConfig::default(),
    ));
    let before = server.open(spec(41));
    let epoch = server.install_epoch(runs.iter().map(Arc::clone).collect());
    assert_eq!(epoch, Some(Ok(1)));
    for (idx, run) in indexes.iter().zip(&runs) {
        // What was handed over is the index's own run, and the third owner
        // is the worker (or its command queue): no copy was made.
        assert!(Arc::ptr_eq(run, &idx.pin().1.runs[0]));
        assert_eq!(Arc::strong_count(run), 3);
    }
    // The determinism contract holds with ingest-built shards as well.
    assert_eq!(fingerprint(&before), solo);

    // A session over the unix socket drains the new epoch: it stops only
    // when the WOR stream is exhausted, so its sample count is the exact
    // q and its AVG(x) is the exact mean of what was inserted.
    let path = std::env::temp_dir().join(format!("storm-handoff-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let wire = WireServer::bind_unix(Arc::clone(&server), &path).expect("bind unix socket");
    let mut client = WireClient::connect_unix(&path).expect("connect");
    let session = client
        .open(&QuerySpec {
            seed: 42,
            ..QuerySpec::new(everything())
        })
        .expect("open over the wire");
    let (reason, samples, value) = loop {
        match client.poll(session).expect("poll over the wire") {
            Some(WireEvent::Done {
                reason,
                samples,
                value,
                ..
            }) => break (reason, samples, value),
            Some(WireEvent::Rejected { .. }) => panic!("unexpected rejection"),
            Some(_) => {}
            None => std::thread::sleep(Duration::from_millis(1)),
        }
    };
    assert_eq!(reason, StopReason::Exhausted);
    assert_eq!(samples, inserted.len() as u64);
    let mean = inserted.iter().map(|it| it.point.x()).sum::<f64>() / inserted.len() as f64;
    assert!(
        (value - mean).abs() < 1e-9,
        "AVG(x) {value} vs exact {mean}"
    );
    drop(client);
    drop(wire);
    let _ = std::fs::remove_file(&path);

    // The same drain item by item: the runs start an executor as they are.
    let direct = ParallelRsCluster::from_frozen(runs.iter().map(Arc::clone).collect());
    let mut s = direct.sampler(everything(), SampleMode::WithoutReplacement, 7);
    assert_eq!(s.result_size(), Some(inserted.len()));
    let mut rng = StdRng::seed_from_u64(7);
    let drained: HashSet<u64> = s
        .draw(2 * inserted.len(), &mut rng)
        .iter()
        .map(|it| it.id)
        .collect();
    assert_eq!(drained, inserted.iter().map(|it| it.id).collect());
}
