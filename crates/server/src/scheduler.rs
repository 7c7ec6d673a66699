//! The multi-session tick scheduler over one shared shard-worker pool.
//!
//! ## Tick anatomy
//!
//! The scheduler thread runs discrete *ticks*. Each tick:
//!
//! 1. **Control drain** — admissions, terminations, and stats requests are
//!    applied at tick boundaries only, when no fills are in flight, so a
//!    cancellation can always reclaim its in-flight credit in O(live
//!    sessions) bookkeeping (no protocol drain race). Admissions are
//!    *coalesced* like fills: every open drained this boundary rides in
//!    one `OpenMany` per shard and the per-shard count replies come back
//!    as one `Opens` each, gathered together in [`Sched::settle_opens`] —
//!    a burst of `S` opens costs `2 · shards` channel messages and one
//!    gather wait, not `2 · shards · S` messages and `S` round-trips.
//!    Teardown coalesces symmetrically: sessions finished during a tick
//!    are closed with one `CloseMany` per shard at the tick's end.
//! 2. **Credit grant** — every live session's deficit counter gains
//!    [`ServeConfig::quantum`] samples (deficit round robin; the carryover
//!    is capped at `quantum + block` so an idle session cannot hoard).
//! 3. **Round fixpoint** — sessions with at least [`ServeConfig::block`]
//!    credit run rounds of their [`StreamCore`] state machine: draw →
//!    plan → coalesce → gather → merge, repeating until every session is
//!    out of credit or finished.
//! 4. **Progress emission** — one [`SessionEvent::Progress`] per session
//!    that merged samples this tick.
//!
//! ## Coalescing math
//!
//! A naive serving loop pays ~2 channel messages per session per round (a
//! `FillMany` of one, a `Batches` of one), so `S` sessions cost
//! `O(S · rounds)` messages and as many scheduler/worker context switches.
//! The tick
//! scheduler instead merges every runnable session's round-`r` request for
//! shard `s` into **one** `FillMany` batch, answered by one `Batches`
//! reply: per tick the channel cost is `O(shards)`, not
//! `O(sessions · shards)`. With `StreamCore`'s request amplification
//! (surplus banked per session, most rounds served bufferside with zero
//! I/O) the amortized message cost per session round drops well below
//! one, which is where the E15 throughput multiple comes from.
//!
//! ## Fairness invariant
//!
//! Every runnable session receives exactly `quantum` samples of credit
//! per tick and rounds are a fixed `block` draw, so each tick a session
//! merges `⌊deficit/block⌋` blocks **independent of co-tenant count or
//! query size**: a 10⁸-row scan and a 10³-row lookup get the same sample
//! bandwidth share. Credit gates *when* a round runs, never its *size* —
//! sizes are pure functions of session-local state, which is the
//! determinism contract (`StreamCore` docs) pinned by the
//! solo-vs-co-tenant tests.
//!
//! ## Fault policy
//!
//! The scheduler is deliberately fail-soft (no retry machinery in the
//! tick loop, unlike the single-query [`storm_core::ParallelSampler`]
//! path): an unreachable worker or a gather timeout writes the shard off
//! for the affected sessions (missing-mass widening takes over) and the
//! tick proceeds. Chaos testing of retry/replay stays on the single-query
//! executor path.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use storm_core::{
    EpochError, FillReq, FrozenRsTree, OpenReq, ParallelRsCluster, SampleMode, SamplerKind,
    ShardReply, StreamCore,
};
use storm_engine::session::{Progress, QueryOutcome, StopCheck, StopReason, TaskResult};
use storm_estimators::OnlineStat;
use storm_faultkit::FailReason;
use storm_geo::Rect2;

/// Safety valve on the gather loop: a shard that answers nothing for this
/// long is written off for every session waiting on it.
const GATHER_TIMEOUT: Duration = Duration::from_secs(5);

/// Scheduler sizing and policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Bound on concurrently live sessions (the session table).
    pub max_sessions: usize,
    /// Bound on the admission wait queue; opens beyond it are rejected.
    pub queue_limit: usize,
    /// Samples of deficit-round-robin credit granted per session per tick.
    pub quantum: usize,
    /// Fixed per-round draw size. Part of the determinism contract: a
    /// session's round sizes never depend on co-tenant load.
    pub block: usize,
    /// Confidence level used for reported estimates.
    pub confidence: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_sessions: 1024,
            queue_limit: 4096,
            quantum: 256,
            block: 64,
            confidence: 0.95,
        }
    }
}

/// One online-aggregation query as submitted by a client: AVG of the
/// x-coordinate over the query rectangle, refined until a budget or the
/// client stops it.
#[derive(Debug, Clone, Copy)]
pub struct QuerySpec {
    /// The spatial range.
    pub query: Rect2,
    /// Sampling mode.
    pub mode: SampleMode,
    /// The session's RNG seed. The whole estimate sequence is a pure
    /// function of this (plus the dataset), never of co-tenants.
    pub seed: u64,
    /// Stop after this many samples, if set.
    pub sample_budget: Option<u64>,
    /// Stop after this much wall-clock time, if set.
    pub time_budget_ms: Option<u64>,
    /// Stop once the relative CI half-width reaches this, if set.
    pub target_error: Option<f64>,
}

impl QuerySpec {
    /// A spec with defaults: without replacement, seed 0, no budgets
    /// (runs until terminated).
    pub fn new(query: Rect2) -> Self {
        QuerySpec {
            query,
            mode: SampleMode::WithoutReplacement,
            seed: 0,
            sample_budget: None,
            time_budget_ms: None,
            target_error: None,
        }
    }
}

/// Events delivered to a session's [`SessionHandle`].
#[derive(Debug)]
pub enum SessionEvent {
    /// The session entered the live table; sampling starts this tick.
    Admitted {
        /// The session id.
        session: u64,
    },
    /// Admission control turned the open away (table and queue full).
    Rejected {
        /// The session id.
        session: u64,
    },
    /// A progress tick: the estimate refined.
    Progress {
        /// The session id.
        session: u64,
        /// The snapshot (same type the single-query engine emits).
        progress: Progress,
    },
    /// The session finished; no further events follow.
    Done {
        /// The session id.
        session: u64,
        /// The final outcome (same type the single-query engine returns).
        outcome: Box<QueryOutcome>,
    },
}

/// A live-counter snapshot returned by [`SessionServer::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Sessions currently in the live table.
    pub live: usize,
    /// Sessions waiting in the admission queue.
    pub queued: usize,
    /// Sessions admitted over the server's lifetime.
    pub admitted: u64,
    /// Opens rejected by admission control.
    pub rejected: u64,
    /// Sessions finished (any [`StopReason`]).
    pub done: u64,
}

/// Control-plane messages into the scheduler thread.
enum Ctrl {
    Open {
        session: u64,
        spec: QuerySpec,
        events: Sender<SessionEvent>,
    },
    Terminate {
        session: u64,
    },
    Stats {
        reply: Sender<ServerStats>,
    },
    /// Epoch handoff: swap the worker pool to a new set of frozen shards
    /// at the next tick boundary. Applied between ticks — never mid-round
    /// — so no fill is in flight when the swap commands go out; live
    /// sessions keep their pinned shard snapshots, new admissions open on
    /// the new epoch.
    Install {
        shards: Vec<Arc<FrozenRsTree<2>>>,
        /// Acked with the cluster's new epoch number once applied, or
        /// with the refusal when the shard count does not fit.
        reply: Sender<Result<u64, EpochError>>,
    },
    Shutdown,
}

/// The multi-session online-aggregation server.
///
/// Owns the shared [`ParallelRsCluster`] and the scheduler thread.
/// Cheap to share by reference; every method takes `&self`.
#[derive(Debug)]
pub struct SessionServer {
    cluster: Option<Arc<ParallelRsCluster>>,
    ctrl: Sender<Ctrl>,
    thread: Option<JoinHandle<()>>,
}

impl SessionServer {
    /// Starts the scheduler thread over `cluster`'s worker pool.
    pub fn start(cluster: ParallelRsCluster, cfg: ServeConfig) -> Self {
        let mut cfg = cfg;
        cfg.block = cfg.block.max(1);
        cfg.quantum = cfg.quantum.max(cfg.block);
        let cluster = Arc::new(cluster);
        let (ctrl_tx, ctrl_rx) = unbounded();
        let sched_cluster = Arc::clone(&cluster);
        let thread = std::thread::Builder::new()
            .name("storm-scheduler".into())
            .spawn(move || Sched::new(sched_cluster, cfg, ctrl_rx).run())
            .expect("spawn scheduler thread");
        SessionServer {
            cluster: Some(cluster),
            ctrl: ctrl_tx,
            thread: Some(thread),
        }
    }

    /// Submits a query. Fire-and-forget: the returned handle's first
    /// event is [`SessionEvent::Admitted`] or [`SessionEvent::Rejected`],
    /// applied at the next tick boundary.
    pub fn open(&self, spec: QuerySpec) -> SessionHandle {
        let cluster = self.cluster.as_ref().expect("server not shut down");
        let session = cluster.allocate_session();
        let (events_tx, events_rx) = unbounded();
        let _ = self.ctrl.send(Ctrl::Open {
            session,
            spec,
            events: events_tx,
        });
        SessionHandle {
            session,
            events: events_rx,
            ctrl: self.ctrl.clone(),
        }
    }

    /// Installs a new data epoch: worker `s` swaps to `shards[s]` at the
    /// next tick boundary (between rounds, never mid-fill). Sessions open
    /// across the swap keep their pinned shard snapshots and finish on
    /// the epoch they started with; sessions admitted after it serve the
    /// new data. Blocks until the scheduler has answered: `Some(Ok(epoch))`
    /// once the swap is applied, `Some(Err(_))` when `shards` is not one
    /// per worker (nothing is swapped and every session carries on),
    /// `None` if the server is gone.
    pub fn install_epoch(
        &self,
        shards: Vec<Arc<FrozenRsTree<2>>>,
    ) -> Option<Result<u64, EpochError>> {
        let (tx, rx) = unbounded();
        self.ctrl.send(Ctrl::Install { shards, reply: tx }).ok()?;
        // storm-analyzer: allow(A13): install ack barrier — the reply Sender lives only inside the Ctrl message, so scheduler death drops it and this recv wakes with Err -> None
        rx.recv().ok()
    }

    /// Round-trips the scheduler for its live counters (also a barrier:
    /// the reply proves every control message sent before this call has
    /// been applied).
    pub fn stats(&self) -> Option<ServerStats> {
        let (tx, rx) = unbounded();
        self.ctrl.send(Ctrl::Stats { reply: tx }).ok()?;
        // storm-analyzer: allow(A13): stats round-trip barrier — same drop-wakes contract as install_epoch; the scheduler going away yields None, never a hang
        rx.recv().ok()
    }

    /// Stops the scheduler and returns the worker cluster, still running
    /// and still on the last installed epoch.
    pub fn shutdown(mut self) -> ParallelRsCluster {
        self.stop();
        let arc = self.cluster.take().expect("shutdown called once");
        drop(self);
        Arc::into_inner(arc).expect("scheduler thread joined; no other cluster handles remain")
    }

    fn stop(&mut self) {
        let _ = self.ctrl.send(Ctrl::Shutdown);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for SessionServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A client's handle to one submitted session.
#[derive(Debug)]
pub struct SessionHandle {
    session: u64,
    events: Receiver<SessionEvent>,
    ctrl: Sender<Ctrl>,
}

impl SessionHandle {
    /// The session id (echoed in every event).
    pub fn id(&self) -> u64 {
        self.session
    }

    /// Non-blocking event poll.
    pub fn try_event(&self) -> Option<SessionEvent> {
        self.events.try_recv().ok()
    }

    /// Blocks for the next event; `None` means the server is gone.
    pub fn recv_event(&self) -> Option<SessionEvent> {
        // storm-analyzer: allow(A13): documented blocking client API; recv_event_timeout below is the bounded form, and server drop disconnects this recv
        self.events.recv().ok()
    }

    /// Blocks up to `timeout` for the next event.
    pub fn recv_event_timeout(&self, timeout: Duration) -> Option<SessionEvent> {
        self.events.recv_timeout(timeout).ok()
    }

    /// Requests cancellation. Applied at the next tick boundary; the
    /// session's final event is [`SessionEvent::Done`] with
    /// [`StopReason::Cancelled`] and its in-flight worker credit is
    /// reclaimed within that tick.
    pub fn terminate(&self) {
        let _ = self.ctrl.send(Ctrl::Terminate {
            session: self.session,
        });
    }

    /// Drains events until the session ends, returning the final outcome
    /// (`None` if the open was rejected or the server died).
    pub fn wait(&self) -> Option<Box<QueryOutcome>> {
        loop {
            match self.events.recv().ok()? {
                SessionEvent::Done { outcome, .. } => return Some(outcome),
                SessionEvent::Rejected { .. } => return None,
                SessionEvent::Admitted { .. } | SessionEvent::Progress { .. } => {}
            }
        }
    }
}

/// One live session's scheduler-side state.
struct Session {
    events: Sender<SessionEvent>,
    rng: StdRng,
    core: StreamCore,
    stat: OnlineStat,
    started: Instant,
    sample_budget: Option<u64>,
    time_budget: Option<Duration>,
    target_error: Option<f64>,
    /// Samples merged so far.
    samples: u64,
    /// Scatter-round number (the fill replay key; unused for replay here
    /// — the fail-soft scheduler never retries — but still unique per
    /// round as the protocol requires).
    seq: u64,
    /// DRR credit, in samples.
    deficit: usize,
    /// Shard replies still outstanding for the current round.
    awaiting: usize,
    /// A drawn round is pending merge.
    round_open: bool,
    /// Merged at least one sample this tick (Progress is owed).
    progressed: bool,
    /// Coalesced fill messages this session has ridden in (io accounting).
    fills_sent: u64,
}

/// A pending admission, queued between its control drain and the
/// boundary's [`Sched::settle_opens`], which scatters the whole batch as
/// one `OpenMany` per shard and gathers every count in one shared wait.
struct Opening {
    spec: QuerySpec,
    events: Sender<SessionEvent>,
    counts: Vec<Option<u64>>,
    failures: Vec<(usize, FailReason)>,
}

/// The scheduler thread state.
struct Sched {
    cluster: Arc<ParallelRsCluster>,
    cfg: ServeConfig,
    ctrl: Receiver<Ctrl>,
    /// The one shared reply channel every session is opened with; workers
    /// echo `(shard, session, seq)` tags and the scheduler routes here.
    reply_tx: Sender<ShardReply>,
    reply_rx: Receiver<ShardReply>,
    table: HashMap<u64, Session>,
    /// Round-robin order over live sessions.
    run_queue: VecDeque<u64>,
    wait_queue: VecDeque<(u64, QuerySpec, Sender<SessionEvent>)>,
    /// Open gathers in progress: scattered but not yet settled.
    opening: HashMap<u64, Opening>,
    /// Admission order of `opening` entries (run-queue insertion order).
    opening_order: Vec<u64>,
    /// Coalesced `Opens` shard replies the current settle still owes.
    open_left: usize,
    /// Sessions finished since the last `CloseMany` flush.
    pending_close: Vec<u64>,
    /// `(session, shard)` fill replies the current tick still owes.
    expected: HashSet<(u64, usize)>,
    /// Shards whose workers died; never asked again.
    dead: Vec<bool>,
    admitted: u64,
    rejected: u64,
    done: u64,
    // Reused scratch (the tick loop must not allocate per session; see
    // storm-analyzer A9).
    ids: Vec<u64>,
    plan: Vec<usize>,
    shard_reqs: Vec<Vec<FillReq>>,
    merged: Vec<storm_rtree::Item<2>>,
    timed_out: Vec<(u64, usize)>,
}

impl Sched {
    fn new(cluster: Arc<ParallelRsCluster>, cfg: ServeConfig, ctrl: Receiver<Ctrl>) -> Self {
        let shards = cluster.num_shards();
        let (reply_tx, reply_rx) = unbounded();
        Sched {
            cluster,
            cfg,
            ctrl,
            reply_tx,
            reply_rx,
            table: HashMap::new(),
            run_queue: VecDeque::new(),
            wait_queue: VecDeque::new(),
            opening: HashMap::new(),
            opening_order: Vec::new(),
            open_left: 0,
            pending_close: Vec::new(),
            expected: HashSet::new(),
            dead: vec![false; shards],
            admitted: 0,
            rejected: 0,
            done: 0,
            ids: Vec::new(),
            plan: Vec::new(),
            shard_reqs: vec![Vec::new(); shards],
            merged: Vec::new(),
            timed_out: Vec::new(),
        }
    }

    fn run(mut self) {
        'serve: loop {
            // Idle: block on control instead of spinning.
            if self.table.is_empty() && self.wait_queue.is_empty() {
                // storm-analyzer: allow(A13): idle parking — blocks only when no session is live; every client handle dropping disconnects the recv and exits the serve loop
                match self.ctrl.recv() {
                    Ok(c) => {
                        if !self.handle_ctrl(c) {
                            break 'serve;
                        }
                    }
                    Err(_) => break 'serve,
                }
            }
            // Tick boundary: apply all queued control.
            loop {
                match self.ctrl.try_recv() {
                    Ok(c) => {
                        if !self.handle_ctrl(c) {
                            break 'serve;
                        }
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => break 'serve,
                }
            }
            // Late replies from cancelled rounds: drain and drop.
            while let Ok(r) = self.reply_rx.try_recv() {
                self.dispatch(r);
            }
            while self.table.len() + self.opening.len() < self.cfg.max_sessions {
                match self.wait_queue.pop_front() {
                    Some((id, spec, events)) => self.begin_admit(id, spec, events),
                    None => break,
                }
            }
            self.settle_opens();
            if !self.table.is_empty() {
                self.tick();
            }
            self.flush_closes();
        }
        // Don't leave finished sessions' streams in the worker tables —
        // the cluster outlives this thread (shutdown hands it back).
        self.flush_closes();
    }

    /// Tears down every session finished since the last flush with one
    /// coalesced `CloseMany` per shard.
    fn flush_closes(&mut self) {
        if self.pending_close.is_empty() {
            return;
        }
        let _ = self.cluster.close_many(&self.pending_close);
        self.pending_close.clear();
    }

    /// Applies one control message; `false` means shut down.
    fn handle_ctrl(&mut self, c: Ctrl) -> bool {
        match c {
            Ctrl::Open {
                session,
                spec,
                events,
            } => {
                if self.table.len() + self.opening.len() < self.cfg.max_sessions {
                    self.begin_admit(session, spec, events);
                } else if self.wait_queue.len() < self.cfg.queue_limit {
                    self.wait_queue.push_back((session, spec, events));
                } else {
                    self.rejected += 1;
                    let _ = events.send(SessionEvent::Rejected { session });
                }
            }
            Ctrl::Terminate { session } => self.terminate(session),
            Ctrl::Install { shards, reply } => {
                // handle_ctrl runs only at tick boundaries ("on entry no
                // fills are in flight"), so the swap slots cleanly between
                // rounds: every stream already open has pinned its shard
                // snapshots, every open after this sees the new epoch.
                // Sessions admitted earlier in this same drain open first,
                // so "admitted before the install" means "old epoch".
                self.settle_opens();
                let _ = reply.send(self.cluster.install_epoch(shards));
            }
            Ctrl::Stats { reply } => {
                let _ = reply.send(ServerStats {
                    live: self.table.len() + self.opening.len(),
                    queued: self.wait_queue.len(),
                    admitted: self.admitted,
                    rejected: self.rejected,
                    done: self.done,
                });
            }
            Ctrl::Shutdown => return false,
        }
        true
    }

    /// Queues `session` for the boundary's coalesced open. The whole
    /// admission batch is scattered as one `OpenMany` per shard and its
    /// counts gathered in one shared wait in [`Sched::settle_opens`] — a
    /// burst of opens costs O(shards) messages, not O(shards · opens).
    fn begin_admit(&mut self, session: u64, spec: QuerySpec, events: Sender<SessionEvent>) {
        if events.send(SessionEvent::Admitted { session }).is_err() {
            // Client already gone; don't burn worker credit on it.
            return;
        }
        let shards = self.cluster.num_shards();
        self.opening.insert(
            session,
            Opening {
                spec,
                events,
                counts: vec![None; shards],
                failures: Vec::new(),
            },
        );
        self.opening_order.push(session);
        self.admitted += 1;
    }

    /// Scatters the pending admission batch (one `OpenMany` per shard),
    /// gathers the per-shard `Opens` count replies in one shared wait,
    /// then moves the settled sessions into the live table in admission
    /// order. Shards that never answered are written off as
    /// [`FailReason::OpenFailed`] (weight 0, missing-mass widening takes
    /// over).
    fn settle_opens(&mut self) {
        if self.opening.is_empty() {
            return;
        }
        let reqs: Vec<OpenReq> = self
            .opening_order
            .iter()
            .map(|&session| {
                let spec = &self.opening[&session].spec;
                OpenReq {
                    session,
                    query: spec.query,
                    mode: spec.mode,
                    seed: spec.seed,
                }
            })
            .collect();
        self.open_left = self.cluster.open_many(&reqs, &self.reply_tx);
        while self.open_left > 0 {
            match self.reply_rx.recv_timeout(GATHER_TIMEOUT) {
                Ok(r) => self.dispatch(r),
                Err(_) => break,
            }
        }
        self.open_left = 0;
        self.ids.clear();
        self.ids.append(&mut self.opening_order);
        for i in 0..self.ids.len() {
            let id = self.ids[i];
            if let Some(op) = self.opening.remove(&id) {
                self.finalize_open(id, op);
            }
        }
    }

    /// Builds the live [`Session`] from a settled opening.
    fn finalize_open(&mut self, session: u64, op: Opening) {
        let mut weights = Vec::with_capacity(op.counts.len());
        let mut failures = op.failures;
        for (s, c) in op.counts.iter().enumerate() {
            match c {
                Some(n) => weights.push(*n),
                None => {
                    weights.push(0);
                    failures.push((s, FailReason::OpenFailed));
                }
            }
        }
        let spec = op.spec;
        let core = StreamCore::new(spec.mode, weights, failures);
        let stat = match spec.mode {
            SampleMode::WithoutReplacement => OnlineStat::without_replacement(core.result_count()),
            SampleMode::WithReplacement => OnlineStat::new(),
        };
        self.table.insert(
            session,
            Session {
                events: op.events,
                rng: StdRng::seed_from_u64(spec.seed),
                core,
                stat,
                started: Instant::now(),
                sample_budget: spec.sample_budget,
                time_budget: spec.time_budget_ms.map(Duration::from_millis),
                target_error: spec.target_error,
                samples: 0,
                seq: 0,
                deficit: 0,
                awaiting: 0,
                round_open: false,
                progressed: false,
                fills_sent: 0,
            },
        );
        self.run_queue.push_back(session);
    }

    /// Cancels a session wherever it currently is (wait queue, opening, or
    /// live).
    fn terminate(&mut self, session: u64) {
        if let Some(pos) = self.wait_queue.iter().position(|(id, _, _)| *id == session) {
            let (_, _, events) = self.wait_queue.remove(pos).expect("position just found");
            self.cancel_unstarted(session, &events);
        } else if let Some(op) = self.opening.remove(&session) {
            // Cancelled in the same control drain that admitted it: the
            // batch has not scattered yet (settle runs after the drain),
            // so no worker stream exists to release.
            self.opening_order.retain(|&id| id != session);
            self.cancel_unstarted(session, &op.events);
        } else if self.table.contains_key(&session) {
            self.finish(session, StopReason::Cancelled);
        }
    }

    /// Emits the zero-sample `Cancelled` outcome of a session that never
    /// reached a worker.
    fn cancel_unstarted(&mut self, session: u64, events: &Sender<SessionEvent>) {
        let outcome = QueryOutcome {
            result: TaskResult::Aggregate {
                estimate: OnlineStat::new().mean_estimate(),
                confidence: self.cfg.confidence,
            },
            samples: 0,
            elapsed: Duration::ZERO,
            sampler: SamplerKind::RsTree,
            io_reads: 0,
            q: None,
            io_faults: 0,
            degraded: None,
            reason: StopReason::Cancelled,
        };
        self.done += 1;
        let _ = events.send(SessionEvent::Done {
            session,
            outcome: Box::new(outcome),
        });
    }

    /// One scheduler tick: credit grant, then the round fixpoint, then
    /// progress emission. On entry no fills are in flight (the previous
    /// tick gathered everything it sent).
    fn tick(&mut self) {
        // Finished sessions leave the run queue lazily: compact only when
        // dead ids outnumber live ones, so teardown is amortized O(1) per
        // session instead of an O(live) scan per finish.
        if self.run_queue.len() > self.table.len().saturating_mul(2) {
            let table = &self.table;
            self.run_queue.retain(|id| table.contains_key(id));
        }
        let quantum = self.cfg.quantum;
        let cap = self.cfg.quantum + self.cfg.block;
        for sess in self.table.values_mut() {
            sess.deficit = (sess.deficit + quantum).min(cap);
        }
        loop {
            let started = self.start_rounds();
            self.flush_fills();
            self.gather();
            let completed = self.complete_rounds();
            if started == 0 && completed == 0 {
                break;
            }
        }
        self.emit_progress();
    }

    /// Starts rounds for every runnable session with credit, *fusing*
    /// bufferside rounds: a round whose draw is fully covered by the
    /// session's banked surplus needs no shard requests, so it is merged
    /// on the spot and the session immediately tries its next round —
    /// only a round that actually needs fills parks as `round_open` for
    /// the flush/gather barrier. The fusion changes scheduling *latency*
    /// only (fewer fixpoint sweeps), never round sizes or their order,
    /// so the determinism contract is untouched. Returns how many rounds
    /// were started or fused.
    fn start_rounds(&mut self) -> usize {
        let block = self.cfg.block;
        let confidence = self.cfg.confidence;
        let mut started = 0;
        self.ids.clear();
        self.ids.extend(self.run_queue.iter().copied());
        for i in 0..self.ids.len() {
            let id = self.ids[i];
            while let Some(sess) = self.table.get_mut(&id) {
                if sess.round_open {
                    break;
                }
                // The stop check runs before the credit gate so a session
                // that just hit its budget finishes this tick instead of
                // idling until the next grant.
                let check = StopCheck {
                    cancelled: false,
                    samples: sess.samples,
                    sample_budget: sess.sample_budget,
                    elapsed: sess.started.elapsed(),
                    time_budget: sess.time_budget,
                    rel_error: if sess.target_error.is_some() {
                        Some(sess.stat.mean_estimate().relative_error(confidence))
                    } else {
                        None
                    },
                    target_error: sess.target_error,
                };
                if let Some(reason) = check.decide() {
                    self.finish(id, reason);
                    break;
                }
                if sess.deficit < block {
                    break;
                }
                // Round sizes are pure functions of session-local state: a
                // fixed block, clamped only by the session's own remaining
                // budget (the determinism contract).
                let mut want = block;
                if let Some(budget) = sess.sample_budget {
                    want = want.min((budget - sess.samples) as usize);
                }
                let drawn = sess.core.draw(&mut sess.rng, want);
                if drawn == 0 {
                    self.finish(id, StopReason::Exhausted);
                    break;
                }
                if let Some(budget) = sess.sample_budget {
                    // Budget-aware prefetch: cap amplification by the draws
                    // this session can still consume after this round. Pure
                    // session-local state, so the determinism contract holds.
                    let after = budget.saturating_sub(sess.samples + drawn as u64);
                    sess.core.set_fetch_hint(after);
                }
                sess.deficit -= block;
                sess.seq += 1;
                sess.core.plan_requests(&mut self.plan);
                let mut requested = false;
                for (s, &req) in self.plan.iter().enumerate() {
                    if req == 0 {
                        continue;
                    }
                    if self.dead[s] {
                        sess.core.fail(s, FailReason::Disconnected);
                        continue;
                    }
                    self.shard_reqs[s].push(FillReq {
                        session: id,
                        n: req,
                        seq: sess.seq,
                    });
                    self.expected.insert((id, s));
                    sess.awaiting += 1;
                    sess.fills_sent += 1;
                    requested = true;
                }
                started += 1;
                if requested {
                    sess.round_open = true;
                    break;
                }
                // Bufferside round: merge inline and keep going.
                Self::merge_round(sess, &mut self.merged);
            }
        }
        started
    }

    /// Merges one gathered (or bufferside) round into its session's
    /// estimator.
    fn merge_round(sess: &mut Session, merged: &mut Vec<storm_rtree::Item<2>>) {
        merged.clear();
        let m = sess.core.merge_into(merged);
        for item in merged.iter() {
            sess.stat.push(item.point.get(0));
        }
        sess.samples += m as u64;
        if sess.core.is_degraded() {
            sess.stat.set_missing_mass(sess.core.missing_fraction());
        }
        if m > 0 {
            sess.progressed = true;
        }
    }

    /// Sends one coalesced `FillMany` per shard with pending requests.
    fn flush_fills(&mut self) {
        for s in 0..self.shard_reqs.len() {
            if self.shard_reqs[s].is_empty() {
                continue;
            }
            let reqs = std::mem::take(&mut self.shard_reqs[s]);
            if !self.cluster.fill_many(s, reqs) {
                // Worker gone: write the shard off for everyone waiting.
                self.dead[s] = true;
                self.fail_shard_expected(s, FailReason::Disconnected);
            }
        }
    }

    /// Blocks until every expected fill reply arrived (or the safety
    /// valve fires and writes the stragglers off).
    fn gather(&mut self) {
        while !self.expected.is_empty() {
            match self.reply_rx.recv_timeout(GATHER_TIMEOUT) {
                Ok(r) => self.dispatch(r),
                Err(_) => {
                    self.timed_out.clear();
                    self.timed_out.extend(self.expected.iter().copied());
                    for i in 0..self.timed_out.len() {
                        let (id, s) = self.timed_out[i];
                        self.dead[s] = true;
                        self.fail_expected(id, s, FailReason::Timeout);
                    }
                    break;
                }
            }
        }
    }

    /// Routes one worker reply by its echoed tags.
    fn dispatch(&mut self, reply: ShardReply) {
        match reply {
            ShardReply::Opens { shard, opens } => {
                // One shard's slice of the admission batch: bank every
                // count (sessions cancelled mid-settle are simply absent
                // from `opening` and their counts dropped).
                for o in opens {
                    let Some(op) = self.opening.get_mut(&o.session) else {
                        continue;
                    };
                    match o.count {
                        Some(n) => op.counts[shard] = Some(n as u64),
                        None => {
                            op.counts[shard] = Some(0);
                            op.failures.push((shard, FailReason::Aborted));
                        }
                    }
                }
                self.open_left = self.open_left.saturating_sub(1);
            }
            ShardReply::Batches { shard, replies } => {
                for b in replies {
                    self.deliver(b.session, shard, b.items);
                }
            }
        }
    }

    /// Banks one session's batch (or per-session abort) if it is still
    /// expected; replies for cancelled rounds are dropped here.
    fn deliver(&mut self, session: u64, shard: usize, items: Option<Vec<storm_rtree::Item<2>>>) {
        if !self.expected.remove(&(session, shard)) {
            return;
        }
        let Some(sess) = self.table.get_mut(&session) else {
            return;
        };
        match items {
            Some(items) => sess.core.deliver(shard, items),
            None => sess.core.fail(shard, FailReason::Aborted),
        }
        sess.awaiting -= 1;
    }

    /// Writes one expected `(session, shard)` fill off as failed.
    fn fail_expected(&mut self, session: u64, shard: usize, reason: FailReason) {
        if !self.expected.remove(&(session, shard)) {
            return;
        }
        if let Some(sess) = self.table.get_mut(&session) {
            sess.core.fail(shard, reason);
            sess.awaiting -= 1;
        }
    }

    /// Writes every expected fill on `shard` off (worker death).
    fn fail_shard_expected(&mut self, shard: usize, reason: FailReason) {
        self.timed_out.clear();
        self.timed_out
            .extend(self.expected.iter().copied().filter(|&(_, s)| s == shard));
        for i in 0..self.timed_out.len() {
            let (id, s) = self.timed_out[i];
            self.fail_expected(id, s, reason);
        }
    }

    /// Merges every gathered request round into its session's estimator
    /// (bufferside rounds merged inline by [`Sched::start_rounds`] never
    /// park here). Returns how many rounds completed.
    fn complete_rounds(&mut self) -> usize {
        let mut completed = 0;
        for i in 0..self.ids.len() {
            let id = self.ids[i];
            let Some(sess) = self.table.get_mut(&id) else {
                continue;
            };
            if !sess.round_open || sess.awaiting > 0 {
                continue;
            }
            sess.round_open = false;
            Self::merge_round(sess, &mut self.merged);
            completed += 1;
        }
        completed
    }

    /// Emits one Progress per session that merged samples this tick;
    /// sessions whose client dropped the handle are garbage-collected.
    fn emit_progress(&mut self) {
        let confidence = self.cfg.confidence;
        self.ids.clear();
        self.ids.extend(self.run_queue.iter().copied());
        for i in 0..self.ids.len() {
            let id = self.ids[i];
            let Some(sess) = self.table.get_mut(&id) else {
                continue;
            };
            if !sess.progressed {
                continue;
            }
            sess.progressed = false;
            let degraded = sess.core.is_degraded().then(|| sess.core.degraded_info());
            let progress = Progress {
                samples: sess.samples,
                elapsed: sess.started.elapsed(),
                result: TaskResult::Aggregate {
                    estimate: sess.stat.mean_estimate(),
                    confidence,
                },
                degraded,
            };
            let event = SessionEvent::Progress {
                session: id,
                progress,
            };
            if sess.events.send(event).is_err() {
                // Client hung up without terminating.
                self.finish(id, StopReason::Cancelled);
            }
        }
    }

    /// Ends a live session: reclaims its in-flight credit (outstanding
    /// expectations dropped, worker streams closed) and emits `Done`.
    fn finish(&mut self, id: u64, reason: StopReason) {
        let Some(sess) = self.table.remove(&id) else {
            return;
        };
        self.expected.retain(|&(sid, _)| sid != id);
        // The run queue is compacted lazily (tick start) — the scan loops
        // skip ids no longer in the table — and the worker streams are
        // torn down by the tick's coalesced `CloseMany` flush.
        self.pending_close.push(id);
        let degraded = sess.core.is_degraded().then(|| sess.core.degraded_info());
        let outcome = QueryOutcome {
            result: TaskResult::Aggregate {
                estimate: sess.stat.mean_estimate(),
                confidence: self.cfg.confidence,
            },
            samples: sess.samples,
            elapsed: sess.started.elapsed(),
            sampler: SamplerKind::RsTree,
            io_reads: sess.fills_sent,
            q: Some(sess.core.result_count()),
            io_faults: 0,
            degraded,
            reason,
        };
        self.done += 1;
        let _ = sess.events.send(SessionEvent::Done {
            session: id,
            outcome: Box::new(outcome),
        });
    }
}
