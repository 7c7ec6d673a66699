//! The shard protocol's message types: one command set, one reply per
//! request kind (see the [module docs](super) for the protocol table).

use std::sync::Arc;

use crossbeam::channel::Sender;
use storm_faultkit::FaultHook;
use storm_geo::Rect2;
use storm_rtree::Item;

use crate::{FrozenRsTree, SampleMode};

/// One session's slice of a coalesced [`ShardCmd::FillMany`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct FillReq {
    /// The stream to draw from.
    pub(super) session: u64,
    /// Samples owed to this session this round.
    pub(super) n: usize,
    /// The session's scatter-round number (its retry/replay key).
    pub(super) seq: u64,
}

/// One session's slice of a coalesced [`ShardCmd::OpenMany`].
#[derive(Debug, Clone, Copy)]
pub(super) struct OpenReq {
    /// Coordinator-assigned stream identity.
    pub(super) session: u64,
    /// The range query.
    pub(super) query: Rect2,
    /// With or without replacement.
    pub(super) mode: SampleMode,
    /// The *session* seed; every shard worker derives its own stream
    /// seed from it, so a session's stream never depends on which batch
    /// its open rode in.
    pub(super) seed: u64,
}

/// One session's slice of a coalesced [`ShardReply::Opens`].
#[derive(Debug, Clone, Copy)]
pub(super) struct SessionOpen {
    /// The opened stream.
    pub(super) session: u64,
    /// The shard's exact `|P_s ∩ Q|`, or `None` when the open panicked
    /// and the stream is stillborn.
    pub(super) count: Option<usize>,
}

/// One session's slice of a coalesced [`ShardReply::Batches`].
#[derive(Debug, Clone)]
pub(super) struct SessionBatch {
    /// The stream the batch belongs to.
    pub(super) session: u64,
    /// Echo of the fill's scatter-round number.
    pub(super) seq: u64,
    /// The drawn (or replayed) samples — possibly short when the shard's
    /// stream ended — or `None` when the stream died to a contained
    /// panic: the shard's snapshot survives for other streams, but this
    /// one is over and the coordinator writes the shard off.
    pub(super) items: Option<Vec<Item<2>>>,
}

/// Coordinator → shard-worker messages. One command set serves every
/// session batch: a [`super::ParallelSampler`]'s coordinator sends
/// batches of one, the multi-session scheduler's a tick's worth.
pub(super) enum ShardCmd {
    /// Open every named session's stream on this shard, answered by one
    /// [`ShardReply::Opens`] carrying every count. Re-opening a session
    /// restarts its stream (identical seed → identical stream), which is
    /// how open-phase retries work. Workers derive their own stream seeds,
    /// so one request list is shared by the whole scatter; every named
    /// stream replies on the one channel sent along — the opening
    /// coordinator's, which routes by the echoed tags.
    OpenMany(Arc<[OpenReq]>, Sender<ShardReply>),
    /// Draw for every named session, answered by one
    /// [`ShardReply::Batches`] on the first named stream's channel (all
    /// sessions in one `FillMany` must share a reply channel). A repeated
    /// `seq` replays that stream's cached batch instead of advancing it.
    FillMany(Vec<FillReq>),
    /// Tear down every named session's stream (no reply). One list is
    /// shared by the whole scatter.
    CloseMany(Arc<[u64]>),
    /// Epoch handoff: replace this shard's frozen snapshot (no reply).
    /// Channel FIFO order is the handoff contract: opens sent before the
    /// swap see the old snapshot, opens sent after see the new one, and
    /// in-flight streams keep the snapshot `Arc` they pinned at open, so
    /// no open session ever observes the switch.
    Swap(Arc<FrozenRsTree<2>>),
    /// The cluster's fault setting (no reply): the injection hook, and
    /// whether coordinators may retry fills (which turns on the replay
    /// cache). Applies to every later open and fill on this shard.
    Faults(Option<Arc<dyn FaultHook>>, bool),
    /// Exit the worker loop.
    Shutdown,
}

/// Shard-worker → coordinator messages, one per request kind, gathered
/// by the [`super::Coordinator`] alone.
#[derive(Debug)]
pub(super) enum ShardReply {
    /// The answer to one [`ShardCmd::FillMany`]: one entry per served
    /// session (per-session aborts ride along as `items: None`; a session
    /// whose reply was dropped by fault injection is simply absent).
    Batches {
        /// The replying shard (the coordinator routes by this).
        shard: usize,
        /// One slice per session named in the request.
        replies: Vec<SessionBatch>,
    },
    /// The answer to one [`ShardCmd::OpenMany`]: one entry per opened
    /// session (stillborn opens ride along as `count: None`).
    Opens {
        /// The replying shard.
        shard: usize,
        /// One slice per session named in the request.
        opens: Vec<SessionOpen>,
    },
}
