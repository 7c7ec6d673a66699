//! Served sessions follow the cluster's fault policy: with a fault hook
//! and a retry policy installed, a dropped reply is re-sent and replayed,
//! never written off, and never condemns a shard for later sessions. A
//! shard that is condemned still counts against every later session's
//! declared mass, so its loss widens their intervals.

use std::sync::Arc;
use std::time::{Duration, Instant};

use storm_core::{DistributedRsTree, RsTreeConfig, SampleMode};
use storm_engine::session::StopReason;
use storm_faultkit::{FaultHook, FaultKind, FaultPlan, FaultSite, RetryPolicy};
use storm_geo::{Point2, Rect2};
use storm_rtree::Item;
use storm_server::{QuerySpec, ServeConfig, SessionServer};
use storm_testkit::watchdog;

fn grid_items(n: usize) -> Vec<Item<2>> {
    (0..n)
        .map(|i| Item::new(Point2::xy((i % 100) as f64, (i / 100) as f64), i as u64))
        .collect()
}

/// Two WOR sessions, one after the other, on a 4-shard cluster that drops
/// a fifth of all replies: each drains every one of its 600 points with
/// the exact mean, undegraded, well inside the 5 s safety valve.
#[test]
fn dropped_replies_are_retried_for_every_served_session() {
    watchdog(Duration::from_secs(60), "served fault policy", || {
        let mut cluster =
            DistributedRsTree::bulk_load(grid_items(1_200), 4, RsTreeConfig::with_fanout(16))
                .into_parallel();
        cluster.set_fault_hook(Arc::new(FaultPlan::seeded(21).with_drops(200)));
        cluster.set_retry_policy(RetryPolicy {
            max_retries: 4,
            timeout_ms: 40,
            backoff: 2,
        });
        let server = SessionServer::start(cluster, ServeConfig::default());
        // x in 0..=59 over ten rows: 600 points, AVG(x) = 29.5 exactly.
        let query = Rect2::from_corners(Point2::xy(0.0, 0.0), Point2::xy(59.0, 9.0));
        for seed in [7, 8] {
            let started = Instant::now();
            let outcome = server
                .open(QuerySpec {
                    mode: SampleMode::WithoutReplacement,
                    seed,
                    ..QuerySpec::new(query)
                })
                .wait()
                .expect("session admitted and finished");
            let elapsed = started.elapsed();
            assert_eq!(outcome.reason, StopReason::Exhausted, "seed {seed}");
            assert_eq!(outcome.q, Some(600), "seed {seed}");
            assert_eq!(outcome.samples, 600, "seed {seed}");
            assert_eq!(outcome.degraded, None, "seed {seed}");
            let avg = outcome.estimate().expect("aggregate outcome").value;
            assert!(
                ((avg - 29.5) / 29.5).abs() < 1e-9,
                "seed {seed}: AVG(x) = {avg}"
            );
            assert!(
                elapsed < Duration::from_secs(2),
                "seed {seed}: took {elapsed:?}"
            );
        }
        server.shutdown();
    });
}

/// Drops every fill reply from one shard: no retry can save it.
#[derive(Debug)]
struct SilentFills(usize);

impl FaultHook for SilentFills {
    fn fault(&self, site: FaultSite, shard: usize, _op: u64) -> Option<FaultKind> {
        (site == FaultSite::Fill && shard == self.0).then_some(FaultKind::DropReply)
    }
}

/// The first session exhausts its retries on shard 1 and condemns it; the
/// second still opens on shard 1, so its declared mass is lost — not
/// silently left out of `q` — and both sessions report it.
#[test]
fn a_condemned_shard_is_lost_mass_for_every_later_session() {
    watchdog(Duration::from_secs(60), "condemned shard", || {
        let mut cluster =
            DistributedRsTree::bulk_load(grid_items(1_200), 4, RsTreeConfig::with_fanout(16))
                .into_parallel();
        cluster.set_fault_hook(Arc::new(SilentFills(1)));
        cluster.set_retry_policy(RetryPolicy {
            max_retries: 1,
            timeout_ms: 20,
            backoff: 1,
        });
        let server = SessionServer::start(cluster, ServeConfig::default());
        let query = Rect2::from_corners(Point2::xy(0.0, 0.0), Point2::xy(99.0, 11.0));
        for seed in [7, 8] {
            let outcome = server
                .open(QuerySpec {
                    mode: SampleMode::WithoutReplacement,
                    seed,
                    ..QuerySpec::new(query)
                })
                .wait()
                .expect("session admitted and finished");
            assert_eq!(outcome.q, Some(1_200), "seed {seed}");
            let degraded = outcome.degraded.expect("shard 1 written off");
            assert_eq!(degraded.dead_shards(), vec![1], "seed {seed}");
            assert!(degraded.lost_mass() > 0, "seed {seed}: {degraded:?}");
            assert_eq!(
                outcome.samples + degraded.lost_mass(),
                1_200,
                "seed {seed}: samples + lost == q"
            );
        }
        server.shutdown();
    });
}
