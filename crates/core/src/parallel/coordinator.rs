//! The one coordinator: every open, fill round and close a caller makes
//! against the shards, gathered over one reply channel under one fault
//! policy — whether the shards are served by worker threads or stepped
//! on the caller's thread.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use storm_faultkit::{FailReason, RetryPolicy};
use storm_geo::Rect2;
use storm_rtree::Item;

use super::cluster::ParallelRsCluster;
use super::protocol::{FillReq, OpenReq, ShardCmd, ShardReply};
use super::stream::SessionStream;
use super::worker::ShardServer;
use crate::{FrozenRsTree, SampleMode};

/// Safety valve on a gather with recovery off: a shard that answers
/// nothing for this long is written off and never asked to fill again.
const GATHER_TIMEOUT: Duration = Duration::from_secs(5);

/// What one `(session, shard)` request asked for — enough to re-send it
/// unchanged.
#[derive(Debug, Clone, Copy)]
enum Ask {
    Open(OpenReq),
    Fill(FillReq),
}

/// What a settled request came back with.
#[derive(Debug)]
pub(super) enum Answer {
    Count(usize),
    Items(Vec<Item<2>>),
    Failed(FailReason),
}

/// One request of the current open batch or fill round.
#[derive(Debug)]
pub(super) struct Expect {
    ask: Ask,
    /// Sends so far, the first included: what the policy's attempts bound.
    pub(super) sends: u32,
    /// `None` while the gather still waits for it.
    pub(super) answer: Option<Answer>,
}

/// How a [`Coordinator`] reaches its shards.
#[derive(Debug)]
enum Transport<'a> {
    /// Down each worker thread's command channel.
    Workers(&'a ParallelRsCluster),
    /// Served on the caller's thread; replies land on the coordinator's
    /// own reply channel before the send returns.
    Local(Vec<ShardServer>),
}

impl Transport<'_> {
    /// Delivers `cmd` to `shard`. Returns `false` when the worker is gone.
    fn send(&mut self, shard: usize, cmd: ShardCmd) -> bool {
        match self {
            Transport::Workers(cluster) => cluster.send(shard, cmd),
            Transport::Local(servers) => servers.get_mut(shard).is_some_and(|s| s.serve(cmd)),
        }
    }
}

/// The coordinator of any number of sessions over one set of shards: it
/// opens them, runs their fill rounds and closes them, over one reply
/// channel. The shards are a cluster's workers ([`Coordinator::new`]) or,
/// for [`crate::DistributedRsTree::sampler`], servers stepped on the
/// caller's thread; either way every command and reply takes the same
/// path through this type.
///
/// Replies are routed by their `(session, shard, seq)` tags against the
/// requests this coordinator still expects; anything else — a duplicate,
/// a stale reply from before a re-send, a reply for a closed session — is
/// dropped. The cluster's recovery setting, read once when the coordinator
/// is built, is the one fault policy (in-thread shards run with recovery
/// off): with recovery off a gather makes one attempt bounded by a 5 s
/// safety valve; with it on, unanswered requests are re-sent unchanged on
/// each timeout of the [`RetryPolicy`](storm_faultkit::RetryPolicy)
/// backoff. A shard whose channel is gone, or that stays silent through
/// every attempt, is dead for the rest of this coordinator's life: later
/// opens still ask it for its count, so each session declares the shard's
/// mass, and every fill planned on it is written off with that mass (the
/// interval widens).
#[derive(Debug)]
pub struct Coordinator<'a> {
    shards: Transport<'a>,
    /// The retry policy gathers run under; `None` = recovery off.
    recovery: Option<RetryPolicy>,
    reply_tx: Sender<ShardReply>,
    reply_rx: Receiver<ShardReply>,
    pub(super) dead: Vec<bool>,
    /// The outstanding open batch or fill round by `(session, shard)`;
    /// ordered, so re-sends and write-offs replay deterministically.
    pub(super) expect: BTreeMap<(u64, usize), Expect>,
    /// Entries of `expect` still unanswered.
    pub(super) waiting: usize,
    /// Scratch: per-shard requests queued for the next send.
    fills: Vec<Vec<FillReq>>,
    opens: Vec<Vec<OpenReq>>,
    /// The next fill round's number: every fill it carries is tagged
    /// with it, and a re-send keeps it (the worker's replay key).
    seq: u64,
}

impl<'a> Coordinator<'a> {
    /// A coordinator over `cluster`'s workers with its own reply channel.
    pub fn new(cluster: &'a ParallelRsCluster) -> Self {
        let n = cluster.num_shards();
        Self::over(Transport::Workers(cluster), n, cluster.recovery())
    }

    /// A coordinator that serves `shards` itself, on the caller's thread.
    pub(crate) fn local(shards: Vec<Arc<FrozenRsTree<2>>>) -> Self {
        let n = shards.len();
        let servers = shards.into_iter().enumerate();
        let servers = servers.map(|(s, frozen)| ShardServer::new(frozen, s));
        Self::over(Transport::Local(servers.collect()), n, None)
    }

    fn over(shards: Transport<'a>, n: usize, recovery: Option<RetryPolicy>) -> Self {
        let (reply_tx, reply_rx) = unbounded();
        Coordinator {
            shards,
            recovery,
            reply_tx,
            reply_rx,
            dead: vec![false; n],
            expect: BTreeMap::new(),
            waiting: 0,
            fills: vec![Vec::new(); n],
            opens: vec![Vec::new(); n],
            seq: 0,
        }
    }

    /// Opens a batch of `(session, query, mode, seed)` sessions: one
    /// `OpenMany` per shard carries the whole batch, the counts are
    /// gathered, and stillborn or unanswered opens are re-opened while the
    /// policy allows. Returns one stream per session, in batch order.
    pub fn open_sessions(
        &mut self,
        batch: impl IntoIterator<Item = (u64, Rect2, SampleMode, u64)>,
    ) -> Vec<SessionStream> {
        let reqs: Arc<[OpenReq]> = batch
            .into_iter()
            .map(|(session, query, mode, seed)| OpenReq {
                session,
                query,
                mode,
                seed,
            })
            .collect();
        for s in 0..self.dead.len() {
            // A dead shard is still asked: if it answers, every session
            // declares its share, and its fills are written off with that
            // mass (see `queue_fill`).
            let sent = self.send_open(s, &reqs);
            self.dead[s] |= !sent;
            let failed = (!sent).then_some(FailReason::Disconnected);
            for r in reqs.iter() {
                self.expect_one(r.session, s, Ask::Open(*r), failed);
            }
        }
        self.gather();
        reqs.iter().map(|r| self.take_open(r)).collect()
    }

    /// Builds one settled session's stream from its per-shard counts.
    fn take_open(&mut self, req: &OpenReq) -> SessionStream {
        let n = self.dead.len();
        let mut weights = Vec::with_capacity(n);
        let mut failures = Vec::new();
        for s in 0..n {
            let reason = match self.expect.remove(&(req.session, s)).and_then(|e| e.answer) {
                Some(Answer::Count(c)) => {
                    weights.push(c as u64);
                    continue;
                }
                Some(Answer::Failed(reason)) => reason,
                _ => FailReason::OpenFailed,
            };
            weights.push(0);
            failures.push((s, reason));
        }
        SessionStream::new(req.session, req.mode, weights, failures)
    }

    /// Plans `stream`'s drawn round and queues a fill for every shard it
    /// must ask. Returns how many shards the round asks — each answered or
    /// written off by the next [`Coordinator::fill_round`]; 0 means the
    /// banked surplus covers the round and it can merge at once.
    pub fn queue_fill(&mut self, stream: &mut SessionStream) -> usize {
        stream.plan_requests();
        let (session, seq) = (stream.session, self.seq);
        let mut asked = 0;
        for (s, &n) in stream.plan.iter().enumerate().filter(|&(_, &n)| n > 0) {
            asked += 1;
            let req = FillReq { session, n, seq };
            let failed = self.dead[s].then_some(FailReason::Disconnected);
            if failed.is_none() {
                self.fills[s].push(req);
            }
            self.expect_one(session, s, Ask::Fill(req), failed);
        }
        asked
    }

    /// Runs the fill round every queued session planned: one coalesced
    /// `FillMany` per shard, then the gather, re-sending the *same* `seq`
    /// on timeout (a worker that already served it replays its cache).
    pub fn fill_round(&mut self) {
        self.send_queued();
        self.gather();
        self.seq += 1;
    }

    /// Applies `stream`'s settled round — deliveries and write-offs, in
    /// ascending shard order — once [`Coordinator::fill_round`] returned.
    /// Returns whether any shard delivered.
    pub fn apply_round(&mut self, stream: &mut SessionStream) -> bool {
        let mut delivered = false;
        for s in 0..stream.plan.len() {
            if stream.plan[s] == 0 {
                continue;
            }
            let answer = self.expect.remove(&(stream.session, s));
            match answer.and_then(|e| e.answer) {
                Some(Answer::Items(items)) => {
                    stream.deliver(s, items);
                    delivered = true;
                }
                Some(Answer::Failed(reason)) => stream.fail(s, reason),
                _ => {}
            }
        }
        delivered
    }

    /// Closes a batch of sessions: one `CloseMany` per shard. Whatever the
    /// coordinator still expected for them is forgotten, so a late reply
    /// is dropped.
    pub fn close_sessions(&mut self, sessions: &[u64]) {
        if sessions.is_empty() {
            return;
        }
        let waiting = &mut self.waiting;
        self.expect.retain(|(id, _), e| {
            let closed = sessions.contains(id);
            *waiting -= usize::from(closed && e.answer.is_none());
            !closed
        });
        let sessions: Arc<[u64]> = sessions.into();
        for s in 0..self.dead.len() {
            self.send_close(s, &sessions);
        }
    }

    /// Sends `shard` one `OpenMany` for `reqs`, answered on this
    /// coordinator's reply channel.
    fn send_open(&mut self, shard: usize, reqs: &Arc<[OpenReq]>) -> bool {
        let reply = self.reply_tx.clone();
        self.shards
            .send(shard, ShardCmd::OpenMany(Arc::clone(reqs), reply))
    }

    /// Sends `shard` its queued fills as one coalesced `FillMany`.
    fn send_fill(&mut self, shard: usize) -> bool {
        let reqs = std::mem::take(&mut self.fills[shard]);
        self.shards.send(shard, ShardCmd::FillMany(reqs))
    }

    /// Sends `shard` one `CloseMany` (no reply).
    fn send_close(&mut self, shard: usize, sessions: &Arc<[u64]>) {
        self.shards
            .send(shard, ShardCmd::CloseMany(Arc::clone(sessions)));
    }

    /// Records one `(session, shard)` request of the batch or round in
    /// flight; `failed` settles it at once (its shard is already dead).
    fn expect_one(&mut self, session: u64, shard: usize, ask: Ask, failed: Option<FailReason>) {
        self.waiting += usize::from(failed.is_none());
        let e = Expect {
            ask,
            sends: 1,
            answer: failed.map(Answer::Failed),
        };
        self.expect.insert((session, shard), e);
    }

    /// Sends every queued request, one message per shard and kind. A send
    /// that finds the worker gone writes the shard off.
    fn send_queued(&mut self) {
        for s in 0..self.fills.len() {
            let mut sent = true;
            if !self.opens[s].is_empty() {
                let reqs: Arc<[OpenReq]> = std::mem::take(&mut self.opens[s]).into();
                sent &= self.send_open(s, &reqs);
            }
            if !self.fills[s].is_empty() {
                sent &= self.send_fill(s);
            }
            if !sent {
                self.dead[s] = true;
                for (&(_, es), e) in &mut self.expect {
                    if es == s && e.answer.is_none() {
                        e.answer = Some(Answer::Failed(FailReason::Disconnected));
                        self.waiting -= 1;
                    }
                }
            }
        }
    }

    /// Waits until every expected request is answered or written off.
    fn gather(&mut self) {
        let policy = self.recovery;
        let attempts = policy.map_or(1, |p| p.attempts());
        let mut timeouts = 0;
        while self.waiting > 0 {
            let wait = policy.map_or(GATHER_TIMEOUT, |p| p.timeout_for(timeouts));
            match self.next_reply(wait) {
                Some(reply) => self.route(reply, attempts),
                None => {
                    timeouts += 1;
                    self.resend_waiting(attempts);
                }
            }
        }
    }

    /// The one wait on the reply channel. The coordinator holds a sender
    /// itself, so `None` always means the wait timed out.
    fn next_reply(&self, wait: Duration) -> Option<ShardReply> {
        self.reply_rx.recv_timeout(wait).ok()
    }

    /// Banks one reply's slices against the requests they answer; a slice
    /// whose tag is not expected is dropped. A stillborn open is re-opened
    /// at once while attempts remain (a fresh open is a new fault
    /// decision, and restarts the identical stream).
    fn route(&mut self, reply: ShardReply, attempts: u32) {
        match reply {
            ShardReply::Opens { shard, opens } => {
                for o in opens {
                    let Some(e) = self.expect.get_mut(&(o.session, shard)) else {
                        continue;
                    };
                    let (Ask::Open(req), None) = (e.ask, &e.answer) else {
                        continue;
                    };
                    e.answer = match o.count {
                        Some(c) => Some(Answer::Count(c)),
                        None if e.sends < attempts => {
                            e.sends += 1;
                            self.opens[shard].push(req);
                            continue;
                        }
                        None => Some(Answer::Failed(FailReason::OpenFailed)),
                    };
                    self.waiting -= 1;
                }
                self.send_queued();
            }
            ShardReply::Batches { shard, replies } => {
                for b in replies {
                    let Some(e) = self.expect.get_mut(&(b.session, shard)) else {
                        continue;
                    };
                    if !matches!((e.ask, &e.answer), (Ask::Fill(req), None) if req.seq == b.seq) {
                        continue;
                    }
                    e.answer = Some(match b.items {
                        Some(items) => Answer::Items(items),
                        // The stream died worker-side; a retry cannot
                        // revive it.
                        None => Answer::Failed(FailReason::Aborted),
                    });
                    self.waiting -= 1;
                }
            }
        }
    }

    /// A gather timeout: every unanswered request is re-sent unchanged or,
    /// out of attempts, written off with its shard marked dead.
    fn resend_waiting(&mut self, attempts: u32) {
        for (&(_, s), e) in &mut self.expect {
            if e.answer.is_some() {
                continue;
            }
            if e.sends >= attempts {
                e.answer = Some(Answer::Failed(match e.ask {
                    Ask::Open(_) => FailReason::OpenFailed,
                    Ask::Fill(_) => FailReason::Timeout,
                }));
                self.waiting -= 1;
                self.dead[s] = true;
                continue;
            }
            e.sends += 1;
            match e.ask {
                Ask::Open(req) => self.opens[s].push(req),
                Ask::Fill(req) => self.fills[s].push(req),
            }
        }
        self.send_queued();
    }
}
