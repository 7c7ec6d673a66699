//! The cluster handle: worker threads, the coordinator-facing entry points
//! of the shard protocol, epoch installs, and fail-soft teardown.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Sender};
use storm_faultkit::{FaultHook, RetryPolicy};
use storm_geo::Rect2;

use super::protocol::{FillReq, OpenManyArgs, OpenReq, ShardCmd, ShardReply};
use super::sampler::ParallelSampler;
use super::worker::run_shard;
use crate::{FrozenRsTree, SampleMode};

/// Typed refusal from [`ParallelRsCluster::install_epoch`]: the offered
/// epoch does not have exactly one shard per worker. Nothing was swapped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochError {
    /// Shard workers in the cluster.
    pub expected: usize,
    /// Shards in the refused epoch.
    pub got: usize,
}

impl std::fmt::Display for EpochError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "epoch install needs one shard per worker: cluster has {}, epoch has {}",
            self.expected, self.got
        )
    }
}

impl std::error::Error for EpochError {}

/// One shard server: the command channel plus the thread serving the
/// shard's frozen snapshot. Replies travel over the channel carried in
/// each open, so the handle itself is send-only and freely shared by
/// concurrent coordinators.
pub(super) struct WorkerHandle {
    pub(super) cmd: Sender<ShardCmd>,
    thread: Option<JoinHandle<()>>,
    /// Points in this shard's current snapshot (refreshed by epoch swaps
    /// — Relaxed, see the cluster's counter ordering policy).
    len: AtomicUsize,
    /// This shard's index (for fault coordinates and error reporting).
    shard: usize,
    /// Cluster-wide count of control sends that found a dead worker.
    /// Ordering policy: `Relaxed` everywhere (see the module docs).
    dropped_sends: Arc<AtomicU64>,
}

impl WorkerHandle {
    /// Sends one control message, logging and counting (rather than
    /// swallowing) a send that finds the worker gone. Returns whether the
    /// message was delivered.
    fn send(&self, cmd: ShardCmd, what: &str) -> bool {
        let delivered = self.cmd.send(cmd).is_ok();
        if !delivered {
            self.dropped_sends.fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "storm-core: parallel: {what} to shard {} dropped (worker gone)",
                self.shard
            );
        }
        delivered
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        self.send(ShardCmd::Shutdown, "shutdown");
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl std::fmt::Debug for WorkerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerHandle")
            .field("shard", &self.shard)
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

/// A pool of frozen shards, each served by its own worker thread.
///
/// Build one with [`ParallelRsCluster::from_frozen`] — the boxed
/// reference cluster's `into_parallel` ([`crate::distributed`]) is that
/// over its frozen shards, and an [`crate::IngestIndex`] run is already
/// the shard type. The cluster serves reads only: a caller that keeps
/// updating keeps its mutable index and hands each new frozen epoch to
/// [`ParallelRsCluster::install_epoch`]. Streams opened by
/// [`ParallelRsCluster::sampler`] produce the same distribution as the
/// sequential gather, and are deterministic under a fixed seed (see the
/// module docs). Any number of streams may be open concurrently —
/// `sampler` takes `&self`, per-query state lives in the
/// [`ParallelSampler`], and the workers multiplex their session tables.
///
/// By default the cluster runs the zero-overhead fail-soft path. Installing
/// a [`FaultHook`] ([`ParallelRsCluster::set_fault_hook`]) or a
/// [`RetryPolicy`] ([`ParallelRsCluster::set_retry_policy`]) activates the
/// timeout/retry recovery machinery described in the module docs.
///
/// ## Counter ordering policy
///
/// All atomic counters on the cluster (`dropped_sends`, `next_session`)
/// use `Ordering::Relaxed` for every load and RMW — they are monotonic
/// statistics/allocators that publish no other memory. Do not mix in
/// stronger orderings: a reader must never infer cross-thread
/// happens-before from these values.
#[derive(Debug)]
pub struct ParallelRsCluster {
    pub(super) workers: Vec<WorkerHandle>,
    /// Fault-injection hook handed to workers per stream.
    fault_hook: Option<Arc<dyn FaultHook>>,
    /// Explicit retry policy; `None` means recovery is off unless a hook
    /// is installed (in which case the default policy applies).
    retry: Option<RetryPolicy>,
    /// Next stream session id (Relaxed; see the ordering policy above).
    next_session: AtomicU64,
    /// Count of control sends that found a dead worker (see
    /// [`ParallelRsCluster::dropped_sends`]).
    dropped_sends: Arc<AtomicU64>,
    /// Count of epoch installs (Relaxed; a statistic, not a fence — the
    /// real handoff ordering is the per-worker channel FIFO).
    epoch: AtomicU64,
}

impl ParallelRsCluster {
    /// Starts one worker thread per frozen shard.
    pub fn from_frozen(shards: Vec<Arc<FrozenRsTree<2>>>) -> Self {
        let dropped_sends = Arc::new(AtomicU64::new(0));
        let workers = shards
            .into_iter()
            .enumerate()
            .map(|(s, frozen)| {
                let (cmd_tx, cmd_rx) = unbounded();
                let len = frozen.len();
                let thread = std::thread::spawn(move || run_shard(frozen, s, &cmd_rx));
                WorkerHandle {
                    cmd: cmd_tx,
                    thread: Some(thread),
                    len: AtomicUsize::new(len),
                    shard: s,
                    dropped_sends: Arc::clone(&dropped_sends),
                }
            })
            .collect();
        ParallelRsCluster {
            workers,
            fault_hook: None,
            retry: None,
            next_session: AtomicU64::new(0),
            dropped_sends,
            epoch: AtomicU64::new(0),
        }
    }

    /// Installs a new data epoch: worker `s` swaps to `shards[s]` (one
    /// [`ShardCmd::Swap`] carrying the `Arc` — nothing is copied or
    /// re-frozen) and subsequent opens snapshot the new data. Open
    /// sessions are never broken: each stream pinned its shard snapshots
    /// at open and keeps drawing from them until it closes,
    /// byte-identically to a run with no swap (the epoch-handoff
    /// determinism contract, certified by `tests/epoch_handoff.rs`).
    ///
    /// The open/fill protocol asks workers — not routing metadata — for
    /// per-shard counts, so any partition of the new data into one shard
    /// per worker is a valid epoch. Returns the new epoch number, or an
    /// [`EpochError`] — before any worker is touched — when the shard
    /// count does not match.
    pub fn install_epoch(&self, shards: Vec<Arc<FrozenRsTree<2>>>) -> Result<u64, EpochError> {
        if shards.len() != self.workers.len() {
            return Err(EpochError {
                expected: self.workers.len(),
                got: shards.len(),
            });
        }
        for (w, frozen) in self.workers.iter().zip(shards) {
            w.len.store(frozen.len(), Ordering::Relaxed);
            // storm-analyzer: allow(A5): a scatter, not per-item traffic — one Swap per worker per install, each on that worker's own channel with that worker's own snapshot
            w.send(ShardCmd::Swap(frozen), "epoch swap");
        }
        Ok(self.epoch.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// How many epochs have been installed (0 = still serving the build
    /// the cluster started with).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Number of shard workers.
    pub fn num_shards(&self) -> usize {
        self.workers.len()
    }

    /// Total points across the cluster's current epoch.
    pub fn len(&self) -> usize {
        self.workers
            .iter()
            .map(|w| w.len.load(Ordering::Relaxed))
            .sum()
    }

    /// True when the cluster holds no data.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Installs a fault-injection hook: every subsequent stream hands it
    /// to the workers, and gathers switch to the timeout/retry path.
    pub fn set_fault_hook(&mut self, hook: Arc<dyn FaultHook>) {
        self.fault_hook = Some(hook);
    }

    /// Removes the fault hook (recovery stays on if a retry policy is set).
    pub fn clear_fault_hook(&mut self) {
        self.fault_hook = None;
    }

    /// Sets the timeout/retry policy and activates the recovery gather
    /// path even without a fault hook (for production fail-soft serving).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = Some(policy);
    }

    /// The retry policy gathers run under, or `None` when recovery is off
    /// (no hook, no explicit policy): one attempt per gather, bounded by
    /// the coordinator's 5 s safety valve.
    pub(super) fn recovery(&self) -> Option<RetryPolicy> {
        (self.fault_hook.is_some() || self.retry.is_some()).then(|| self.retry.unwrap_or_default())
    }

    /// How many control-plane sends (close/shutdown/open/fill) found a
    /// dead worker and were counted instead of silently dropped.
    pub fn dropped_sends(&self) -> u64 {
        self.dropped_sends.load(Ordering::Relaxed)
    }

    /// Allocates a cluster-unique stream session id.
    pub fn allocate_session(&self) -> u64 {
        self.next_session.fetch_add(1, Ordering::Relaxed)
    }

    /// Sends one [`ShardCmd::OpenMany`] carrying `reqs` to `shard`, whose
    /// [`ShardReply::Opens`] answer arrives on `reply`. Returns `false`
    /// (and counts a dropped send) when the worker is gone.
    pub(super) fn open_shard(
        &self,
        shard: usize,
        reqs: &Arc<[OpenReq]>,
        reply: &Sender<ShardReply>,
    ) -> bool {
        let args = OpenManyArgs {
            reqs: Arc::clone(reqs),
            hook: self.fault_hook.clone(),
            recover: self.recovery().is_some(),
            reply: reply.clone(),
        };
        self.workers[shard].send(ShardCmd::OpenMany(Box::new(args)), "open-many")
    }

    /// Sends one [`ShardCmd::FillMany`] to `shard`. Every named
    /// session must have been opened on this cluster with the *same* reply
    /// channel (the worker answers all of them in one
    /// [`ShardReply::Batches`] on the first named stream's channel).
    /// Returns `false` (and counts a dropped send) when the worker is gone.
    pub(super) fn fill_many(&self, shard: usize, reqs: Vec<FillReq>) -> bool {
        self.workers[shard].send(ShardCmd::FillMany(reqs), "fill-many")
    }

    /// Tears down every named session's stream on every shard with one
    /// [`ShardCmd::CloseMany`] per shard (no replies); an unreachable
    /// worker is counted in [`ParallelRsCluster::dropped_sends`].
    pub(super) fn close_many(&self, sessions: &[u64]) {
        let sessions: Arc<[u64]> = sessions.into();
        for w in &self.workers {
            // storm-analyzer: allow(A5): one CloseMany control message per shard carries every finished session since the last flush
            w.send(ShardCmd::CloseMany(Arc::clone(&sessions)), "close-many");
        }
    }

    /// Opens a parallel scatter-gather stream for `query`.
    ///
    /// `seed` derives each shard's stream RNG; together with the
    /// coordinator RNG handed to `next_batch`/`next_sample`, it fully
    /// determines the emitted sequence (neither thread scheduling nor
    /// concurrently open co-tenant streams can affect it). Takes `&self`:
    /// per-query state lives entirely in the returned sampler, whose
    /// replies travel over its own coordinator's channel.
    pub fn sampler(&self, query: Rect2, mode: SampleMode, seed: u64) -> ParallelSampler<'_> {
        ParallelSampler::open(self, query, mode, seed)
    }
}
