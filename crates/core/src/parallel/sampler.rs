//! The single-query coordinator: a session of one over the cluster's
//! entry points, with blocking (or timeout/retry) per-shard gathers.

use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError};
use rand::Rng;
use storm_faultkit::{DegradedInfo, FailReason, RetryPolicy};
use storm_geo::Rect2;
use storm_rtree::Item;

use super::cluster::ParallelRsCluster;
use super::protocol::{FillReq, OpenReq, SessionOpen, ShardReply};
use super::stream_core::StreamCore;
use crate::{SampleMode, SamplerKind, SpatialSampler};

/// The coordinator side of a parallel scatter-gather sample stream: a
/// session of one over the same cluster entry points the multi-session
/// scheduler uses (`OpenMany`/`FillMany`/`CloseMany` batches of length 1).
///
/// Implements [`SpatialSampler`]; `next_batch` is the intended entry point
/// (`next_sample` degenerates to blocks of one and pays a channel
/// round-trip per draw). [`SpatialSampler::degraded`] reports any shards
/// written off while the stream ran. Holds only a shared borrow of the
/// cluster: any number of samplers can stream concurrently, each over its
/// own private reply channels.
#[derive(Debug)]
pub struct ParallelSampler<'a> {
    cluster: &'a ParallelRsCluster,
    /// This stream's private per-shard reply channels. Once the open phase
    /// is over their only senders live in the workers' stream tables, so a
    /// dead worker disconnects its channel and wakes even a blocking
    /// (recovery-off) gather.
    replies: Vec<Receiver<ShardReply>>,
    /// The sans-I/O round state machine.
    core: StreamCore,
    /// Scratch: per-shard request size actually sent this round (0 when
    /// the round was served entirely from the prefetch buffer).
    fills: Vec<usize>,
    /// This stream's identity; every protocol message echoes it.
    session: u64,
    /// Next scatter-round number (the retry/replay key).
    next_seq: u64,
}

impl<'a> ParallelSampler<'a> {
    /// Opens the stream: scatters the open to every shard (each worker
    /// computes its partial count concurrently), then gathers the counts.
    pub(super) fn open(
        cluster: &'a ParallelRsCluster,
        query: Rect2,
        mode: SampleMode,
        seed: u64,
    ) -> Self {
        let session = cluster.allocate_session();
        let policy = cluster.recovery();
        let n = cluster.num_shards();
        let req = Arc::from([OpenReq {
            session,
            query,
            mode,
            seed,
        }]);
        let mut replies = Vec::with_capacity(n);
        // Our own sender ends, kept only while an open may be re-sent.
        let mut retry_txs = Vec::new();
        for s in 0..n {
            let (tx, rx) = unbounded();
            cluster.open_shard(s, &req, &tx);
            replies.push(rx);
            if policy.is_some() {
                retry_txs.push(tx);
            }
        }
        let mut weights = Vec::with_capacity(n);
        let mut open_failures = Vec::new();
        for (s, rx) in replies.iter().enumerate() {
            // Open-phase retry: restart the stream (same seed → identical
            // stream, nothing served yet).
            let resend = || cluster.open_shard(s, &req, &retry_txs[s]);
            let count =
                gather_open(rx, session, policy.as_ref(), resend).unwrap_or_else(|reason| {
                    // A shard whose open failed contributes nothing.
                    open_failures.push((s, reason));
                    0
                });
            weights.push(count as u64);
        }
        ParallelSampler {
            cluster,
            replies,
            core: StreamCore::new(mode, weights, open_failures),
            fills: vec![0; n],
            session,
            next_seq: 0,
        }
    }

    /// Phase 2: scatter fill requests per the planned sizes and gather the
    /// batches into the core. Returns `false` when every contacted shard
    /// is gone.
    fn scatter_gather(&mut self) -> bool {
        let seq = self.next_seq;
        self.next_seq += 1;
        let policy = self.cluster.recovery();
        let session = self.session;
        let cluster = self.cluster;
        // One fill per shard per round requests a whole batch (and a
        // prefetched surplus); most rounds have no traffic at all.
        let send = |s: usize, n: usize| cluster.fill_many(s, vec![FillReq { session, n, seq }]);
        let mut fills = std::mem::take(&mut self.fills);
        self.core.plan_requests(&mut fills);
        for (s, &n) in fills.iter().enumerate() {
            if n > 0 {
                send(s, n);
            }
        }
        let mut any = false;
        for (s, &n) in fills.iter().enumerate() {
            if n == 0 {
                // Owed but not requested: served from the prefetch buffer.
                any |= self.core.owed(s) > 0;
                continue;
            }
            // A retry re-sends the same seq: a worker that already served
            // this round replays its cache instead of advancing the stream.
            match gather_fill(&self.replies[s], session, seq, policy.as_ref(), || {
                send(s, n)
            }) {
                Ok(items) => {
                    self.core.deliver(s, items);
                    any = true;
                }
                Err(reason) => self.core.fail(s, reason),
            }
        }
        self.fills = fills;
        any
    }
}

/// One wait on a stream's private reply channel: bounded by the attempt's
/// timeout under a retry policy, blocking without one.
fn recv_reply(
    rx: &Receiver<ShardReply>,
    policy: Option<&RetryPolicy>,
    attempt: u32,
) -> Result<ShardReply, RecvTimeoutError> {
    match policy {
        Some(p) => rx.recv_timeout(p.timeout_for(attempt)),
        // storm-analyzer: allow(A13): recovery-off gather; the channel's only senders live in the worker's stream table, so worker death wakes this recv with Err
        None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
    }
}

/// Open gather for one shard: waits for `session`'s count, re-opening via
/// `resend` when the open was stillborn or went unanswered. Without a
/// policy (recovery off) that is one blocking attempt.
fn gather_open(
    rx: &Receiver<ShardReply>,
    session: u64,
    policy: Option<&RetryPolicy>,
    mut resend: impl FnMut() -> bool,
) -> Result<usize, FailReason> {
    let attempts = policy.map_or(1, RetryPolicy::attempts);
    let mut attempt = 0u32;
    loop {
        match recv_reply(rx, policy, attempt) {
            Ok(ShardReply::Opens { opens, .. }) => {
                match opens.iter().find(|o| o.session == session) {
                    Some(SessionOpen { count: Some(c), .. }) => return Ok(*c),
                    // Stillborn: the open itself panicked. A fresh open is
                    // a new fault decision, so fall through and retry.
                    Some(_) => {}
                    // Our slice was dropped: as good as no reply yet.
                    None => continue,
                }
            }
            // A stale batch from before an open retry restarted the stream.
            Ok(ShardReply::Batches { .. }) => continue,
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return Err(FailReason::Disconnected),
        }
        attempt += 1;
        if attempt >= attempts || !resend() {
            return Err(FailReason::OpenFailed);
        }
    }
}

/// Fill gather for one shard: waits for the batch tagged `(session, seq)`,
/// re-sending the *same* `seq` via `resend` on timeout (the worker replays
/// its cache) and discarding stale replies. Without a policy (recovery
/// off) that is one blocking attempt.
fn gather_fill(
    rx: &Receiver<ShardReply>,
    session: u64,
    seq: u64,
    policy: Option<&RetryPolicy>,
    mut resend: impl FnMut() -> bool,
) -> Result<Vec<Item<2>>, FailReason> {
    let attempts = policy.map_or(1, RetryPolicy::attempts);
    let mut attempt = 0u32;
    loop {
        match recv_reply(rx, policy, attempt) {
            Ok(ShardReply::Batches { replies, .. }) => {
                for b in replies {
                    if b.session != session {
                        continue;
                    }
                    match b.items {
                        // The stream died worker-side; retrying cannot
                        // revive it (there is no stream left to replay).
                        None => return Err(FailReason::Aborted),
                        Some(items) if b.seq == seq => return Ok(items),
                        // A stale batch (a delayed duplicate the retry
                        // already superseded): discard, keep waiting.
                        Some(_) => {}
                    }
                }
            }
            // A stale count from an open retry: discard.
            Ok(ShardReply::Opens { .. }) => {}
            Err(RecvTimeoutError::Timeout) => {
                attempt += 1;
                if attempt >= attempts {
                    return Err(FailReason::Timeout);
                }
                if !resend() {
                    return Err(FailReason::Disconnected);
                }
            }
            Err(RecvTimeoutError::Disconnected) => return Err(FailReason::Disconnected),
        }
    }
}

impl SpatialSampler<2> for ParallelSampler<'_> {
    fn next_sample(&mut self, rng: &mut dyn Rng) -> Option<Item<2>> {
        // A block of one: correct, but the channel round-trip per draw is
        // exactly what `next_batch` amortises away.
        let mut one = Vec::with_capacity(1);
        self.next_batch(rng, &mut one, 1);
        one.pop()
    }

    fn next_batch(&mut self, rng: &mut dyn Rng, buf: &mut Vec<Item<2>>, k: usize) -> usize {
        let rng = &mut *rng;
        let before = buf.len();
        if self.cluster.num_shards() == 0 {
            return 0;
        }
        loop {
            let done = buf.len() - before;
            if done >= k {
                break;
            }
            // Phase 1: draw the shard sequence — the same per-draw
            // bookkeeping as the sequential gather, run as a block.
            let drawn = self.core.draw(rng, k - done);
            if drawn == 0 {
                break;
            }
            // Phase 2: scatter the planned requests, gather the batches. A
            // round where *every* contacted shard died delivers nothing,
            // but its mass is already written off — re-enter phase 1 and
            // re-draw from the survivors (phase 1 terminates the stream
            // itself once no mass remains; each all-dead round kills at
            // least one live shard, so this cannot loop unboundedly).
            if !self.scatter_gather() {
                continue;
            }
            // Phase 3: merge in drawn order.
            let merged = self.core.merge_into(buf);
            if self.core.mode() == SampleMode::WithReplacement && merged < drawn {
                // With replacement a full retry can only repeat the same
                // shortfall (weights are static); stop instead of looping.
                break;
            }
        }
        buf.len() - before
    }

    fn kind(&self) -> SamplerKind {
        SamplerKind::RsTree
    }

    fn result_size(&self) -> Option<usize> {
        Some(self.core.result_count())
    }

    fn degraded(&self) -> Option<DegradedInfo> {
        Some(self.core.degraded_info())
    }
}

impl Drop for ParallelSampler<'_> {
    fn drop(&mut self) {
        // All gathers complete before next_batch returns, so there are no
        // in-flight replies; the close tears this session's worker streams
        // down (dead workers are counted by close_many itself).
        let _ = self.cluster.close_many(&[self.session]);
    }
}
