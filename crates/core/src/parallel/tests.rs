//! Executor-level tests: stream exactness, determinism, co-tenancy, fault
//! recovery, and the worker's dead-coordinator cleanup.
#![cfg(test)]

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::unbounded;
use rand::rngs::StdRng;
use rand::SeedableRng;
use storm_faultkit::{FailReason, FaultHook, FaultKind, FaultPlan, FaultSite, RetryPolicy};
use storm_geo::{Point2, Rect2};
use storm_rtree::Item;

use super::coordinator::Answer;
use super::protocol::{FillReq, OpenManyArgs, OpenReq, ShardCmd, ShardReply};
use super::worker::{serve_fill_many, serve_open_many};
use super::*;
use crate::rs_tree::RsTree;
use crate::{DistributedRsTree, RsTreeConfig, SampleMode, SpatialSampler};

fn grid_items(n: usize) -> Vec<Item<2>> {
    (0..n)
        .map(|i| Item::new(Point2::xy((i % 100) as f64, (i / 100) as f64), i as u64))
        .collect()
}

fn cluster(n: usize, shards: usize) -> ParallelRsCluster {
    DistributedRsTree::bulk_load(grid_items(n), shards, RsTreeConfig::with_fanout(16))
        .into_parallel()
}

#[test]
fn parallel_wor_stream_is_exactly_the_query_result() {
    let c = cluster(5_000, 8);
    let q = Rect2::from_corners(Point2::xy(13.0, 7.0), Point2::xy(61.0, 29.0));
    let expected: HashSet<u64> = grid_items(5_000)
        .iter()
        .filter(|it| q.contains_point(&it.point))
        .map(|it| it.id)
        .collect();
    let mut s = c.sampler(q, SampleMode::WithoutReplacement, 42);
    assert_eq!(s.result_size(), Some(expected.len()));
    let mut rng = StdRng::seed_from_u64(1);
    let mut got = HashSet::new();
    let mut buf = Vec::new();
    loop {
        buf.clear();
        if s.next_batch(&mut rng, &mut buf, 64) == 0 {
            break;
        }
        for item in &buf {
            assert!(got.insert(item.id), "duplicate across shards: {}", item.id);
        }
    }
    assert!(
        s.degraded().is_some_and(|d| !d.is_degraded()),
        "clean run must not be degraded"
    );
    assert_eq!(got, expected);
}

#[test]
fn stream_is_deterministic_under_a_fixed_seed() {
    let q = Rect2::from_corners(Point2::xy(5.0, 2.0), Point2::xy(70.0, 40.0));
    let run = |batch: usize| -> Vec<u64> {
        let c = cluster(4_000, 8);
        let mut s = c.sampler(q, SampleMode::WithoutReplacement, 7);
        let mut rng = StdRng::seed_from_u64(9);
        let mut out = Vec::new();
        let mut buf = Vec::new();
        while out.len() < 512 {
            buf.clear();
            if s.next_batch(&mut rng, &mut buf, batch) == 0 {
                break;
            }
            out.extend(buf.iter().map(|it| it.id));
        }
        out
    };
    // Same seeds, different runs: identical sequences despite thread
    // scheduling differences.
    assert_eq!(run(64), run(64));
}

#[test]
fn concurrent_sessions_cannot_perturb_each_other() {
    // The multi-tenant determinism contract at the executor level: a
    // stream's emitted sequence is identical whether it runs alone or
    // interleaved round-for-round with co-tenant streams over the
    // same workers.
    let q = Rect2::from_corners(Point2::xy(5.0, 2.0), Point2::xy(70.0, 40.0));
    let solo = {
        let c = cluster(4_000, 4);
        let mut s = c.sampler(q, SampleMode::WithoutReplacement, 7);
        let mut rng = StdRng::seed_from_u64(9);
        let mut buf = Vec::new();
        for _ in 0..6 {
            s.next_batch(&mut rng, &mut buf, 48);
        }
        buf.iter().map(|it| it.id).collect::<Vec<_>>()
    };
    let shared = {
        let c = cluster(4_000, 4);
        // Same stream plus 7 co-tenants with different seeds, all
        // open at once and filled in interleaved rounds.
        let mut target = c.sampler(q, SampleMode::WithoutReplacement, 7);
        let mut tenants: Vec<ParallelSampler<'_>> = (0..7)
            .map(|t| c.sampler(q, SampleMode::WithoutReplacement, 100 + t))
            .collect();
        let mut rng = StdRng::seed_from_u64(9);
        let mut tenant_rng = StdRng::seed_from_u64(1000);
        let mut buf = Vec::new();
        let mut scratch = Vec::new();
        for _ in 0..6 {
            target.next_batch(&mut rng, &mut buf, 48);
            for t in &mut tenants {
                scratch.clear();
                t.next_batch(&mut tenant_rng, &mut scratch, 32);
            }
        }
        buf.iter().map(|it| it.id).collect::<Vec<_>>()
    };
    assert_eq!(solo, shared);
}

#[test]
fn a_kept_tree_feeds_inserts_to_new_opens_through_install_epoch() {
    // The executor serves reads only. A caller that keeps updating keeps
    // its boxed cluster, and hands each re-frozen epoch to the workers.
    let mut d = DistributedRsTree::bulk_load(grid_items(2_000), 4, RsTreeConfig::with_fanout(16));
    let c = ParallelRsCluster::from_frozen(d.freeze_shards());
    assert_eq!(c.num_shards(), 4);
    assert_eq!(c.len(), 2_000);
    assert_eq!(c.dropped_sends(), 0);
    // Off-grid inserts, so the probe rectangle holds nothing before them.
    let q = Rect2::from_corners(Point2::xy(50.01, 9.9), Point2::xy(50.99, 10.1));
    let mut rng = StdRng::seed_from_u64(3);
    let mut before = c.sampler(q, SampleMode::WithoutReplacement, 1);
    assert_eq!(before.result_size(), Some(0));
    for j in 0..100u64 {
        let p = Point2::xy(50.05 + (j % 9) as f64 * 0.1, 10.0 + (j / 9) as f64 * 1e-4);
        d.insert(Item::new(p, 10_000 + j), &mut rng);
    }
    // Not installed yet: the cluster still serves the epoch it started on.
    assert_eq!(
        c.sampler(q, SampleMode::WithoutReplacement, 2)
            .result_size(),
        Some(0)
    );
    assert_eq!(c.install_epoch(d.freeze_shards()), Ok(1));
    assert_eq!(c.len(), 2_100);
    let mut s = c.sampler(q, SampleMode::WithoutReplacement, 3);
    assert_eq!(s.result_size(), Some(100));
    let got: HashSet<u64> = s.draw(1_000, &mut rng).iter().map(|it| it.id).collect();
    assert_eq!(got, (10_000..10_100).collect::<HashSet<u64>>());
    // A stream opened before the install stays on its (empty) epoch.
    assert!(before.next_sample(&mut rng).is_none());
}

#[test]
fn a_mismatched_epoch_is_refused_before_any_worker_swaps() {
    let c = cluster(2_000, 4);
    let three = DistributedRsTree::bulk_load(grid_items(300), 3, RsTreeConfig::with_fanout(16));
    assert_eq!(
        c.install_epoch(three.freeze_shards()),
        Err(EpochError {
            expected: 4,
            got: 3
        })
    );
    // Nothing moved: same epoch, same data, on every shard.
    assert_eq!(c.epoch(), 0);
    assert_eq!(c.len(), 2_000);
    let everything = Rect2::from_corners(Point2::xy(-1.0, -1.0), Point2::xy(100.0, 100.0));
    let s = c.sampler(everything, SampleMode::WithoutReplacement, 1);
    assert_eq!(s.result_size(), Some(2_000));
}

#[test]
fn with_replacement_batches_stream_indefinitely() {
    let c = cluster(1_000, 3);
    let q = Rect2::from_corners(Point2::xy(0.0, 0.0), Point2::xy(50.0, 9.0));
    let mut s = c.sampler(q, SampleMode::WithReplacement, 5);
    let mut rng = StdRng::seed_from_u64(6);
    let mut buf = Vec::new();
    for _ in 0..10 {
        buf.clear();
        assert_eq!(s.next_batch(&mut rng, &mut buf, 256), 256);
        for item in &buf {
            assert!(q.contains_point(&item.point));
        }
    }
}

#[test]
fn empty_query_yields_empty_stream() {
    let c = cluster(500, 4);
    let q = Rect2::from_corners(Point2::xy(900.0, 900.0), Point2::xy(901.0, 901.0));
    let mut s = c.sampler(q, SampleMode::WithoutReplacement, 1);
    let mut rng = StdRng::seed_from_u64(7);
    assert!(s.next_sample(&mut rng).is_none());
    assert_eq!(s.result_size(), Some(0));
}

#[test]
fn sequential_and_parallel_agree_on_first_draw_distribution() {
    // Chi-square on the first parallel draw against uniform — the same
    // bar the sequential gather's test holds itself to.
    let items = grid_items(900);
    let q = Rect2::from_corners(Point2::xy(0.0, 0.0), Point2::xy(99.0, 0.0)); // 100 pts
    let trials = 20_000;
    let mut rng = StdRng::seed_from_u64(8);
    let mut counts = std::collections::HashMap::new();
    let c = DistributedRsTree::bulk_load(items, 6, RsTreeConfig::with_fanout(8)).into_parallel();
    for t in 0..trials {
        let mut s = c.sampler(q, SampleMode::WithoutReplacement, t as u64);
        let Some(first) = s.next_sample(&mut rng) else {
            panic!("non-empty query produced no sample");
        };
        *counts.entry(first.id).or_insert(0usize) += 1;
    }
    assert_eq!(counts.len(), 100);
    let expected = trials as f64 / 100.0;
    let chi: f64 = counts
        .values()
        .map(|&c| {
            let d = c as f64 - expected;
            d * d / expected
        })
        .sum();
    // 99 dof, p = 0.001 critical ≈ 148.2.
    assert!(chi < 148.2, "chi² = {chi}");
}

#[test]
fn dropped_replies_recover_via_replay_without_duplicates() {
    // 20% dropped replies: every drop forces a timeout + retry, and
    // the worker's replay cache must hand back the *same* batch — the
    // stream stays an exact WOR enumeration, no loss, no duplicates.
    let mut c = cluster(2_000, 4);
    c.set_retry_policy(RetryPolicy {
        max_retries: 4,
        timeout_ms: 40,
        backoff: 2,
    });
    c.set_fault_hook(Arc::new(FaultPlan::seeded(21).with_drops(200)));
    let q = Rect2::from_corners(Point2::xy(0.0, 0.0), Point2::xy(59.0, 19.0));
    let expected: HashSet<u64> = grid_items(2_000)
        .iter()
        .filter(|it| q.contains_point(&it.point))
        .map(|it| it.id)
        .collect();
    let mut s = c.sampler(q, SampleMode::WithoutReplacement, 3);
    let mut rng = StdRng::seed_from_u64(5);
    let mut got = HashSet::new();
    let mut buf = Vec::new();
    loop {
        buf.clear();
        if s.next_batch(&mut rng, &mut buf, 32) == 0 {
            break;
        }
        for item in &buf {
            assert!(got.insert(item.id), "duplicate after replay: {}", item.id);
        }
    }
    // Drop probability per attempt is 20%; five attempts never all
    // drop under this seed, so no shard dies and nothing is lost.
    let d = s.degraded().unwrap_or_default();
    assert!(!d.is_degraded(), "unexpected write-offs: {d}");
    assert_eq!(got, expected);
}

#[test]
fn worker_panics_degrade_the_stream_but_spare_the_cluster() {
    // Panic on every fill of shard-site decisions: the panicking
    // shards abort, the stream continues over the survivors, the
    // losses are reported, and the worker keeps serving its shard.
    #[derive(Debug)]
    struct PanicShard0;
    impl FaultHook for PanicShard0 {
        fn fault(&self, site: FaultSite, shard: usize, _op: u64) -> Option<FaultKind> {
            (site == FaultSite::Fill && shard == 0).then_some(FaultKind::WorkerPanic)
        }
    }
    let mut c = cluster(3_000, 4);
    c.set_fault_hook(Arc::new(PanicShard0));
    let q = Rect2::from_corners(Point2::xy(0.0, 0.0), Point2::xy(99.0, 29.0));
    let mut s = c.sampler(q, SampleMode::WithoutReplacement, 11);
    let declared = s.result_size().unwrap_or(0);
    let mut rng = StdRng::seed_from_u64(2);
    let mut got = HashSet::new();
    let mut buf = Vec::new();
    loop {
        buf.clear();
        if s.next_batch(&mut rng, &mut buf, 64) == 0 {
            break;
        }
        for item in &buf {
            assert!(got.insert(item.id), "duplicate: {}", item.id);
        }
    }
    let d = s.degraded().expect("parallel streams always report");
    assert!(d.is_degraded(), "shard 0 should have been written off");
    assert_eq!(d.dead_shards(), vec![0]);
    assert_eq!(d.failures[0].reason, FailReason::Aborted);
    // Surviving samples + reported loss account for the whole result.
    assert_eq!(got.len() as u64 + d.lost_mass(), declared as u64);
    drop(s);
    // The panicked worker contained the unwind: with the hook gone, a
    // fresh stream on the same cluster still counts — and drains — all
    // 3 000 points, shard 0's included.
    c.clear_fault_hook();
    let mut s = c.sampler(q, SampleMode::WithoutReplacement, 12);
    assert_eq!(s.result_size(), Some(3_000));
    let all: HashSet<u64> = s.draw(4_000, &mut rng).iter().map(|it| it.id).collect();
    assert_eq!(all.len(), 3_000);
    assert!(s.degraded().is_some_and(|d| !d.is_degraded()));
}

#[test]
fn degraded_write_off_is_deterministic_across_runs() {
    // Same plan + seeds → byte-identical stream and identical
    // dead-shard reporting, three runs in a row.
    let run = || -> (Vec<u64>, Vec<usize>) {
        let mut c = cluster(2_000, 4);
        c.set_fault_hook(Arc::new(FaultPlan::seeded(77).with_panics(80)));
        let q = Rect2::from_corners(Point2::xy(0.0, 0.0), Point2::xy(79.0, 19.0));
        let mut s = c.sampler(q, SampleMode::WithoutReplacement, 13);
        let mut rng = StdRng::seed_from_u64(17);
        let mut out = Vec::new();
        let mut buf = Vec::new();
        loop {
            buf.clear();
            if s.next_batch(&mut rng, &mut buf, 48) == 0 {
                break;
            }
            out.extend(buf.iter().map(|it| it.id));
        }
        let dead = s.degraded().unwrap_or_default().dead_shards();
        (out, dead)
    };
    let a = run();
    let b = run();
    let c3 = run();
    assert_eq!(a, b);
    assert_eq!(b, c3);
}

#[test]
fn close_on_live_worker_succeeds_and_counts_nothing() {
    let c = cluster(400, 2);
    // Closing a session no worker has heard of is a no-op the channel
    // still carries: live workers, nothing counted.
    c.close_many(&[12345]);
    assert_eq!(c.dropped_sends(), 0);
}

#[test]
fn open_site_faults_are_retried_onto_the_identical_stream() {
    // Every shard's first open is lost (dropped reply) or stillborn
    // (panic); the retry re-opens the same session with the same seed,
    // so the stream is the unfaulted one and nothing is written off.
    #[derive(Debug)]
    struct FirstOpenFails(FaultKind);
    impl FaultHook for FirstOpenFails {
        fn fault(&self, site: FaultSite, _shard: usize, op: u64) -> Option<FaultKind> {
            (site == FaultSite::Open && op == 0).then_some(self.0)
        }
    }
    let q = Rect2::from_corners(Point2::xy(5.0, 2.0), Point2::xy(70.0, 30.0));
    let drain = |hook: Option<FaultKind>| -> Vec<u64> {
        let mut c = cluster(3_000, 4);
        if let Some(kind) = hook {
            c.set_fault_hook(Arc::new(FirstOpenFails(kind)));
            c.set_retry_policy(RetryPolicy {
                max_retries: 2,
                timeout_ms: 40,
                backoff: 2,
            });
        }
        let mut s = c.sampler(q, SampleMode::WithoutReplacement, 19);
        let mut rng = StdRng::seed_from_u64(23);
        let mut buf = Vec::new();
        while s.next_batch(&mut rng, &mut buf, 64) > 0 {}
        let d = s.degraded().unwrap_or_default();
        assert!(!d.is_degraded(), "{hook:?}: unexpected write-offs: {d}");
        buf.iter().map(|it| it.id).collect()
    };
    let clean = drain(None);
    assert!(!clean.is_empty());
    assert_eq!(drain(Some(FaultKind::DropReply)), clean);
    assert_eq!(drain(Some(FaultKind::WorkerPanic)), clean);
}

#[test]
fn a_reply_to_a_dropped_receiver_forgets_the_stream() {
    // The worker's side of a dead coordinator: a stream whose reply
    // cannot be delivered is dropped from the session table instead of
    // pinning its snapshot until a close that will never come.
    let tree = RsTree::bulk_load(grid_items(400), RsTreeConfig::with_fanout(16));
    let frozen = Arc::new(tree.freeze());
    let query = Rect2::from_corners(Point2::xy(0.0, 0.0), Point2::xy(99.0, 3.0));
    let mut streams = HashMap::new();
    let (tx, rx) = unbounded();
    let open = |session: u64| OpenManyArgs {
        reqs: Arc::from([OpenReq {
            session,
            query,
            mode: SampleMode::WithoutReplacement,
            seed: 1,
        }]),
        hook: None,
        recover: false,
        reply: tx.clone(),
    };
    let fill = |seq: u64| FillReq {
        session: 7,
        n: 8,
        seq,
    };
    assert_eq!(serve_open_many(&frozen, 0, 0, open(7), &mut streams), 1);
    // Serving is synchronous: the reply is already queued.
    assert!(matches!(rx.try_recv(), Ok(ShardReply::Opens { .. })));
    // A live coordinator keeps its stream across fills.
    serve_fill_many(0, &[fill(0)], &mut streams);
    assert!(matches!(rx.try_recv(), Ok(ShardReply::Batches { .. })));
    assert!(streams.contains_key(&7));
    drop(rx);
    serve_fill_many(0, &[fill(1)], &mut streams);
    assert!(!streams.contains_key(&7), "orphaned stream survived a fill");
    // And an open whose coordinator is already gone leaves nothing.
    serve_open_many(&frozen, 0, 1, open(8), &mut streams);
    assert!(streams.is_empty(), "orphaned open was tabled");
}

#[test]
fn dropped_send_counter_is_exact_under_contention() {
    // The documented Relaxed-ordering policy in action: Relaxed RMWs
    // are still atomic, so hammering close_many on a shut-down
    // cluster from many threads must count every dropped send exactly
    // — no torn or lost increments, no ordering needed.
    let c = cluster(200, 2);
    // Kill the workers (join their threads) while keeping the handles.
    for w in &c.workers {
        w.cmd.send(ShardCmd::Shutdown).expect("worker still alive");
    }
    for w in &c.workers {
        // Safety valve: joining via the handle requires &mut; instead
        // wait until the channel reports disconnect.
        while w.cmd.send(ShardCmd::CloseMany(Arc::from([0]))).is_ok() {
            std::thread::yield_now();
        }
    }
    let before = c.dropped_sends();
    let threads = 8;
    let iters = 250;
    storm_testkit::stress_concurrent(threads, iters, |_, _| {
        c.close_many(&[7]);
    });
    // Every close_many on a dead 2-shard cluster counts exactly 2.
    assert_eq!(
        c.dropped_sends() - before,
        (threads * iters * c.num_shards()) as u64
    );
}

/// A scripted fill-site hook: every stream's first fill on shard 1 loses
/// its reply, on shard 2 it is held past the gather timeout. Records the
/// highest fill op each shard saw, so a test can prove re-sends happened.
#[derive(Debug, Default)]
struct DropThenDelay {
    max_op: [std::sync::atomic::AtomicU64; 4],
}

impl FaultHook for DropThenDelay {
    fn fault(&self, site: FaultSite, shard: usize, op: u64) -> Option<FaultKind> {
        if site != FaultSite::Fill {
            return None;
        }
        self.max_op[shard].fetch_max(op, std::sync::atomic::Ordering::Relaxed);
        match (shard, op) {
            (1, 0) => Some(FaultKind::DropReply),
            (2, 0) => Some(FaultKind::DelayReplyMs(80)),
            _ => None,
        }
    }
}

#[test]
fn one_gather_routes_two_sessions_by_tag() {
    storm_testkit::watchdog(Duration::from_secs(60), "one gather, two sessions", || {
        // Two sessions drained in lockstep on one coordinator, plus a third
        // closed mid-round. Shard 1's lost replies force same-seq re-sends
        // whose replays must land exactly once; shard 2's held replies come
        // back *and* are replayed, so duplicates reach the gather — as do
        // replies for the closed session. Any double delivery would repeat
        // an id; any misrouted one would break a drain's exactness.
        let hook = Arc::new(DropThenDelay::default());
        let mut c = cluster(1_200, 4);
        c.set_fault_hook(Arc::clone(&hook) as Arc<dyn FaultHook>);
        c.set_retry_policy(RetryPolicy {
            max_retries: 4,
            timeout_ms: 40,
            backoff: 2,
        });
        let q = Rect2::from_corners(Point2::xy(0.0, 0.0), Point2::xy(59.0, 9.0));
        let expected: HashSet<u64> = grid_items(1_200)
            .iter()
            .filter(|it| q.contains_point(&it.point))
            .map(|it| it.id)
            .collect();
        let mut coord = Coordinator::new(&c);
        let ids: Vec<u64> = (0..3).map(|_| c.allocate_session()).collect();
        let mut streams = coord.open_sessions(
            ids.iter()
                .map(|&id| (id, q, SampleMode::WithoutReplacement, id)),
        );
        let mut closed = streams.pop().expect("three streams opened");
        let mut rngs = [StdRng::seed_from_u64(1), StdRng::seed_from_u64(2)];
        let mut got = [HashSet::new(), HashSet::new()];
        let mut buf = Vec::new();
        let mut first = true;
        loop {
            let mut pending = [false; 2];
            let mut drawn = 0;
            for (i, s) in streams.iter_mut().enumerate() {
                let d = s.draw(&mut rngs[i], 32);
                drawn += d;
                pending[i] = d > 0 && coord.queue_fill(s) > 0;
            }
            if first {
                closed.draw(&mut StdRng::seed_from_u64(3), 32);
                assert!(coord.queue_fill(&mut closed) > 0);
            }
            if drawn == 0 {
                break;
            }
            coord.fill_round();
            if first {
                // Closed after its round settled but before it was applied:
                // the settled batches are forgotten, and the replays still in
                // flight for it must be dropped by later gathers.
                coord.close_sessions(&[closed.session]);
                first = false;
            }
            for (i, s) in streams.iter_mut().enumerate() {
                if pending[i] {
                    coord.apply_round(s);
                }
                buf.clear();
                s.merge_into(&mut buf);
                for item in &buf {
                    assert!(got[i].insert(item.id), "session {i}: duplicate {}", item.id);
                }
            }
        }
        for (i, s) in streams.iter().enumerate() {
            assert_eq!(got[i], expected, "session {i} drain");
            assert_eq!(s.degraded(), None, "session {i}");
        }
        // Both faults really forced re-sends (a clean first fill covers each
        // shard's whole share, so any later op on shards 1-2 is a re-send).
        for shard in [1, 2] {
            let ops = hook.max_op[shard].load(std::sync::atomic::Ordering::Relaxed);
            assert!(ops >= 1, "shard {shard} saw no re-send");
        }
        assert!(coord.expect.is_empty() && coord.waiting == 0);
    });
}

#[test]
fn round_write_offs_apply_in_ascending_shard_order() {
    storm_testkit::watchdog(Duration::from_secs(60), "ascending write-offs", || {
        // Shard 2's fill aborts at once while shard 1's reply is held past
        // the only attempt: the abort *arrives* first, but the write-offs
        // are applied in shard order once the round settles.
        #[derive(Debug)]
        struct AbortTwoHoldOne;
        impl FaultHook for AbortTwoHoldOne {
            fn fault(&self, site: FaultSite, shard: usize, op: u64) -> Option<FaultKind> {
                match (site, shard, op) {
                    (FaultSite::Fill, 2, _) => Some(FaultKind::WorkerPanic),
                    (FaultSite::Fill, 1, 0) => Some(FaultKind::DelayReplyMs(150)),
                    _ => None,
                }
            }
        }
        let mut c = cluster(1_200, 4);
        c.set_fault_hook(Arc::new(AbortTwoHoldOne));
        c.set_retry_policy(RetryPolicy {
            max_retries: 0,
            timeout_ms: 40,
            backoff: 2,
        });
        let q = Rect2::from_corners(Point2::xy(0.0, 0.0), Point2::xy(59.0, 9.0));
        let mut s = c.sampler(q, SampleMode::WithoutReplacement, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let mut got = HashSet::new();
        let mut buf = Vec::new();
        loop {
            buf.clear();
            if s.next_batch(&mut rng, &mut buf, 32) == 0 {
                break;
            }
            for item in &buf {
                assert!(got.insert(item.id), "duplicate: {}", item.id);
            }
        }
        let d = s.degraded().unwrap_or_default();
        assert_eq!(d.dead_shards(), vec![1, 2]);
        let reasons: Vec<FailReason> = d.failures.iter().map(|f| f.reason).collect();
        assert_eq!(reasons, vec![FailReason::Timeout, FailReason::Aborted]);
        assert_eq!(got.len() as u64 + d.lost_mass(), 600);
    });
}

#[test]
fn recovery_off_never_resends() {
    // With no hook and no retry policy a gather has one attempt: a fill
    // that is never answered is written off at the safety valve, sent
    // exactly once, and its shard is condemned.
    storm_testkit::watchdog(Duration::from_secs(60), "recovery off", || {
        let c = cluster(400, 2);
        let q = Rect2::from_corners(Point2::xy(0.0, 0.0), Point2::xy(99.0, 3.0));
        let mut coord = Coordinator::new(&c);
        let id = c.allocate_session();
        let mut streams = coord.open_sessions([(id, q, SampleMode::WithoutReplacement, 1)]);
        let s = &mut streams[0];
        // The workers forget the stream behind the coordinator's back, so
        // they drop its fills unanswered.
        c.close_many(&[id]);
        s.draw(&mut StdRng::seed_from_u64(2), 16);
        assert!(coord.queue_fill(s) > 0);
        coord.fill_round();
        for shard in (0..2).filter(|&k| s.plan[k] > 0) {
            let e = &coord.expect[&(id, shard)];
            assert_eq!(e.sends, 1, "shard {shard} was re-sent");
            assert!(matches!(
                e.answer,
                Some(Answer::Failed(FailReason::Timeout))
            ));
            assert!(coord.dead[shard]);
        }
    });
}
