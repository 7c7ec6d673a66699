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
//!    *coalesced* like fills: every open drained this boundary is one
//!    [`Coordinator::open_sessions`] batch — one `OpenMany` per shard, one
//!    gather wait — so a burst of `S` opens costs `2 · shards` channel
//!    messages, not `2 · shards · S` messages and `S` round-trips.
//!    Teardown coalesces symmetrically: sessions finished during a tick
//!    are closed in one [`Coordinator::close_sessions`] batch at the
//!    tick's end.
//! 2. **Credit grant** — every live session's deficit counter gains
//!    [`ServeConfig::quantum`] samples (deficit round robin; the carryover
//!    is capped at `quantum + block` so an idle session cannot hoard).
//! 3. **Round fixpoint** — sessions with at least [`ServeConfig::block`]
//!    credit run rounds of their [`SessionStream`]: draw → queue → one
//!    [`Coordinator::fill_round`] for all of them → apply → merge,
//!    repeating until every session is out of credit or finished.
//! 4. **Progress emission** — one [`SessionEvent::Progress`] per session
//!    that merged samples this tick.
//!
//! ## Coalescing math
//!
//! A naive serving loop pays ~2 channel messages per session per round (a
//! `FillMany` of one, a `Batches` of one), so `S` sessions cost
//! `O(S · rounds)` messages and as many scheduler/worker context switches.
//! The tick scheduler instead queues every runnable session's round on
//! the one coordinator, which merges the round's requests for shard `s`
//! into **one** `FillMany` batch, answered by one `Batches` reply: per
//! tick the channel cost is `O(shards)`, not `O(sessions · shards)`. With
//! each stream's request amplification (surplus banked per session, most
//! rounds served bufferside with zero I/O) the amortized message cost per
//! session round drops well below one, which is where the E15 throughput
//! multiple comes from.
//!
//! ## Fairness invariant
//!
//! Every runnable session receives exactly `quantum` samples of credit
//! per tick and rounds are a fixed `block` draw, so each tick a session
//! merges `⌊deficit/block⌋` blocks **independent of co-tenant count or
//! query size**: a 10⁸-row scan and a 10³-row lookup get the same sample
//! bandwidth share. Credit gates *when* a round runs, never its *size* —
//! sizes are pure functions of session-local state, which is the
//! determinism contract (`storm_core::parallel` docs) pinned by the
//! solo-vs-co-tenant tests.
//!
//! ## Fault policy
//!
//! The scheduler owns no protocol: every worker exchange goes through the
//! one [`Coordinator`], so served sessions follow the cluster's fault
//! policy exactly as a [`storm_core::ParallelSampler`] does. With recovery
//! off a tick's gather makes one attempt bounded by a safety valve; with a
//! fault hook or retry policy installed, a dropped or late reply is
//! re-sent with the same `seq` (the worker replays its cache) and a
//! stillborn open is re-opened. A shard is written off for a session on
//! abort, disconnect or exhausted attempts (missing-mass widening takes
//! over) and the tick proceeds.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use storm_core::{
    Coordinator, EpochError, FrozenRsTree, ParallelRsCluster, SampleMode, SamplerKind,
    SessionStream,
};
use storm_engine::session::{Progress, QueryOutcome, StopCheck, StopReason, TaskResult};
use storm_estimators::OnlineStat;
use storm_geo::Rect2;

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
            .spawn(move || Sched::new(&sched_cluster, cfg, ctrl_rx).run())
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
    stream: SessionStream,
    stat: OnlineStat,
    started: Instant,
    /// The submitted query: its budgets are the stop checks.
    spec: QuerySpec,
    /// Samples merged so far.
    samples: u64,
    /// DRR credit, in samples.
    deficit: usize,
    /// A drawn round awaits the tick's fill round.
    round_open: bool,
    /// Merged at least one sample this tick (Progress is owed).
    progressed: bool,
    /// Shard requests this session's rounds have made (io accounting).
    fills_sent: u64,
}

/// The scheduler thread state.
struct Sched<'a> {
    /// The worker pool, for epoch installs.
    cluster: &'a ParallelRsCluster,
    /// Every worker exchange: opens, fill rounds, closes.
    coord: Coordinator<'a>,
    cfg: ServeConfig,
    ctrl: Receiver<Ctrl>,
    table: HashMap<u64, Session>,
    /// Round-robin order over live sessions.
    run_queue: VecDeque<u64>,
    wait_queue: VecDeque<(u64, QuerySpec, Sender<SessionEvent>)>,
    /// Admissions drained this boundary, in admission order, awaiting the
    /// boundary's coalesced open ([`Sched::open_admitted`]).
    opening: Vec<(u64, QuerySpec, Sender<SessionEvent>)>,
    /// Sessions finished since the last close flush.
    pending_close: Vec<u64>,
    admitted: u64,
    rejected: u64,
    done: u64,
    // Reused scratch (the tick loop must not allocate per session; see
    // storm-analyzer A9).
    ids: Vec<u64>,
    merged: Vec<storm_rtree::Item<2>>,
}

impl<'a> Sched<'a> {
    fn new(cluster: &'a ParallelRsCluster, cfg: ServeConfig, ctrl: Receiver<Ctrl>) -> Self {
        Sched {
            cluster,
            coord: Coordinator::new(cluster),
            cfg,
            ctrl,
            table: HashMap::new(),
            run_queue: VecDeque::new(),
            wait_queue: VecDeque::new(),
            opening: Vec::new(),
            pending_close: Vec::new(),
            admitted: 0,
            rejected: 0,
            done: 0,
            ids: Vec::new(),
            merged: Vec::new(),
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
            while self.table.len() + self.opening.len() < self.cfg.max_sessions {
                match self.wait_queue.pop_front() {
                    Some((id, spec, events)) => self.begin_admit(id, spec, events),
                    None => break,
                }
            }
            self.open_admitted();
            if !self.table.is_empty() {
                self.tick();
            }
            self.flush_closes();
        }
        // Don't leave finished sessions' streams in the worker tables —
        // the cluster outlives this thread (shutdown hands it back).
        self.flush_closes();
    }

    /// Tears down every session finished since the last flush in one
    /// coalesced close.
    fn flush_closes(&mut self) {
        self.coord.close_sessions(&self.pending_close);
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
                self.open_admitted();
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

    /// Queues `session` for the boundary's coalesced open
    /// ([`Sched::open_admitted`]): a burst of opens costs O(shards)
    /// messages, not O(shards · opens).
    fn begin_admit(&mut self, session: u64, spec: QuerySpec, events: Sender<SessionEvent>) {
        if events.send(SessionEvent::Admitted { session }).is_err() {
            // Client already gone; don't burn worker credit on it.
            return;
        }
        self.opening.push((session, spec, events));
        self.admitted += 1;
    }

    /// Opens the boundary's admission batch in one coordinator call and
    /// moves the sessions into the live table in admission order.
    fn open_admitted(&mut self) {
        if self.opening.is_empty() {
            return;
        }
        let batch = self
            .opening
            .iter()
            .map(|(id, spec, _)| (*id, spec.query, spec.mode, spec.seed));
        let streams = self.coord.open_sessions(batch);
        for ((session, spec, events), stream) in self.opening.drain(..).zip(streams) {
            let stat = match spec.mode {
                SampleMode::WithoutReplacement => {
                    OnlineStat::without_replacement(stream.result_count())
                }
                SampleMode::WithReplacement => OnlineStat::new(),
            };
            self.table.insert(
                session,
                Session {
                    events,
                    rng: StdRng::seed_from_u64(spec.seed),
                    stream,
                    stat,
                    started: Instant::now(),
                    spec,
                    samples: 0,
                    deficit: 0,
                    round_open: false,
                    progressed: false,
                    fills_sent: 0,
                },
            );
            self.run_queue.push_back(session);
        }
    }

    /// Cancels a session wherever it currently is (wait queue, opening, or
    /// live).
    fn terminate(&mut self, session: u64) {
        if let Some(pos) = self.wait_queue.iter().position(|(id, _, _)| *id == session) {
            let (_, _, events) = self.wait_queue.remove(pos).expect("position just found");
            self.cancel_unstarted(session, &events);
        } else if let Some(pos) = self.opening.iter().position(|(id, _, _)| *id == session) {
            // Cancelled in the same control drain that admitted it: the
            // batch has not scattered yet (the open runs after the drain),
            // so no worker stream exists to release.
            let (_, _, events) = self.opening.remove(pos);
            self.cancel_unstarted(session, &events);
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
        while self.start_rounds() > 0 {
            self.coord.fill_round();
            self.complete_rounds();
        }
        self.emit_progress();
    }

    /// Starts rounds for every runnable session with credit, *fusing*
    /// bufferside rounds: a round whose draw is fully covered by the
    /// session's banked surplus needs no shard requests, so it is merged
    /// on the spot and the session immediately tries its next round —
    /// only a round that actually needs fills parks as `round_open` for
    /// the tick's fill round. The fusion changes scheduling *latency*
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
                    sample_budget: sess.spec.sample_budget,
                    elapsed: sess.started.elapsed(),
                    time_budget: sess.spec.time_budget_ms.map(Duration::from_millis),
                    rel_error: (sess.spec.target_error)
                        .map(|_| sess.stat.mean_estimate().relative_error(confidence)),
                    target_error: sess.spec.target_error,
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
                if let Some(budget) = sess.spec.sample_budget {
                    want = want.min((budget - sess.samples) as usize);
                }
                let drawn = sess.stream.draw(&mut sess.rng, want);
                if drawn == 0 {
                    self.finish(id, StopReason::Exhausted);
                    break;
                }
                if let Some(budget) = sess.spec.sample_budget {
                    // Budget-aware prefetch: cap amplification by the draws
                    // this session can still consume after this round. Pure
                    // session-local state, so the determinism contract holds.
                    let after = budget.saturating_sub(sess.samples + drawn as u64);
                    sess.stream.set_fetch_hint(after);
                }
                sess.deficit -= block;
                let asked = self.coord.queue_fill(&mut sess.stream);
                sess.fills_sent += asked as u64;
                started += 1;
                if asked > 0 {
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
        let m = sess.stream.merge_into(merged);
        for item in merged.iter() {
            sess.stat.push(item.point.get(0));
        }
        sess.samples += m as u64;
        sess.stat.set_missing_mass(sess.stream.missing_fraction());
        sess.progressed |= m > 0;
    }

    /// Merges every gathered request round into its session's estimator
    /// (bufferside rounds merged inline by [`Sched::start_rounds`] never
    /// park here).
    fn complete_rounds(&mut self) {
        for i in 0..self.ids.len() {
            let id = self.ids[i];
            let Some(sess) = self.table.get_mut(&id) else {
                continue;
            };
            if !sess.round_open {
                continue;
            }
            sess.round_open = false;
            self.coord.apply_round(&mut sess.stream);
            Self::merge_round(sess, &mut self.merged);
        }
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
            let progress = Progress {
                samples: sess.samples,
                elapsed: sess.started.elapsed(),
                result: TaskResult::Aggregate {
                    estimate: sess.stat.mean_estimate(),
                    confidence,
                },
                degraded: sess.stream.degraded(),
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

    /// Ends a live session: reclaims its credit (worker streams closed at
    /// the tick's close flush) and emits `Done`.
    fn finish(&mut self, id: u64, reason: StopReason) {
        let Some(sess) = self.table.remove(&id) else {
            return;
        };
        // The run queue is compacted lazily (tick start) — the scan loops
        // skip ids no longer in the table — and the worker streams are
        // torn down by the tick's coalesced close flush.
        self.pending_close.push(id);
        let outcome = QueryOutcome {
            result: TaskResult::Aggregate {
                estimate: sess.stat.mean_estimate(),
                confidence: self.cfg.confidence,
            },
            samples: sess.samples,
            elapsed: sess.started.elapsed(),
            sampler: SamplerKind::RsTree,
            io_reads: sess.fills_sent,
            q: Some(sess.stream.result_count()),
            io_faults: 0,
            degraded: sess.stream.degraded(),
            reason,
        };
        self.done += 1;
        let _ = sess.events.send(SessionEvent::Done {
            session: id,
            outcome: Box::new(outcome),
        });
    }
}
