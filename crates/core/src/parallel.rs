//! Parallel shard scatter-gather execution for the distributed RS-tree.
//!
//! [`crate::DistributedRsTree`] gathers its shards sequentially on the
//! caller's thread; this module is the production-shaped executor: every
//! shard is an immutable frozen snapshot (`Arc<FrozenRsTree<2>>`) served
//! by its own long-lived worker thread, queries are scattered as
//! messages, and sample batches are gathered over channels. The frozen
//! snapshot is the only shard currency here — what a cluster is built
//! from ([`ParallelRsCluster::from_frozen`]), what a worker holds, and
//! what an epoch install swaps in — so a boxed tree's
//! [`freeze`](crate::RsTree::freeze) and an [`crate::IngestIndex`] run
//! enter the same way, uncopied. The protocol mirrors the paper's cluster
//! deployment — the coordinator talks to shard servers, each of which
//! does its own I/O.
//!
//! ## Protocol
//!
//! There is one conversation — a coordinator asks shard workers for counts
//! and sample batches — one command set for it, and one coordinator that
//! speaks it. Every command names a *batch* of sessions, so the same three
//! messages serve a single query (batches of one) and the multi-session
//! scheduler (a tick's worth):
//!
//! | command (`ShardCmd`)    | carries                            | reply (`ShardReply`)                 |
//! |-------------------------|------------------------------------|--------------------------------------|
//! | `OpenMany`              | `OpenReq`s + hook, reply sender    | `Opens`: one `SessionOpen` count each |
//! | `FillMany`              | `FillReq`s `{session, n, seq}`     | `Batches`: one `SessionBatch` each    |
//! | `CloseMany`             | session ids                        | —                                    |
//! | `Swap`                  | the next frozen snapshot (`Arc`)   | —                                    |
//! | `Shutdown`              | nothing; the worker exits          | —                                    |
//!
//! Every stream carries a cluster-unique **session** id (allocated from an
//! atomic counter, so [`ParallelRsCluster::sampler`] needs only `&self`
//! and any number of streams can run concurrently over the same worker
//! pool). A worker keeps a table of open streams keyed by session: the
//! frozen-shard sampler, its seeded RNG, and its replay cache all live in
//! the table entry, and every entry carries the reply channel handed over
//! in its open, so concurrent coordinators can never steal each other's
//! replies. Replies echo `(shard, session, seq)`; the coordinator routes
//! by those tags, never by arrival order.
//!
//! Per query the coordinator opens the session on every shard (query,
//! mode, session seed — each worker derives its own stream seed) and
//! collects each shard's exact partial count. Each round then runs three
//! phases:
//!
//! 1. **draw** — the session's stream draws `k` shard indices from the
//!    remaining-count multinomial (the identical bookkeeping the sequential
//!    gather applies per draw, just run as a block);
//! 2. **scatter/gather** — each shard owing `n > 0` samples receives a
//!    fill `{session, n, seq}` and answers with a batch drawn by its local
//!    batched kernel ([`crate::SpatialSampler::next_batch`]);
//! 3. **merge** — replies are interleaved following the drawn index
//!    sequence, *not* arrival order.
//!
//! Phases 1 and 3 — plus the prefetch request arithmetic — live in the
//! sans-I/O `StreamCore` state machine inside each [`SessionStream`].
//! Phase 2 and everything else that touches a worker live in the one
//! [`Coordinator`]: it opens a batch of sessions (one `OpenMany` per
//! shard), queues every session's planned requests for a round and sends
//! one coalesced `FillMany` per shard, gathers over its one reply channel,
//! applies each session's settled round in ascending shard order, and
//! closes a batch of sessions. It has two drivers. [`ParallelSampler`] is
//! a coordinator with one session. The multi-session scheduler in
//! `storm-server` queues a tick's worth of sessions per round, which
//! amortizes channel and wakeup overhead across co-tenant queries:
//! per-session channel cost is O(1) amortized rather than O(shards).
//!
//! The module is split along those seams: `protocol` (message types),
//! `worker` (the shard loop and stream table), `cluster` (the handle and
//! its per-shard senders), `stream_core` (the round state machine),
//! `coordinator` (the one gather) and `sampler` (its session of one).
//!
//! ## Why the distribution is unchanged
//!
//! Shards partition `P`, so the merged without-replacement stream needs no
//! deduplication; conditioned on the drawn shard sequence, each shard's
//! batch is a uniform WOR run of its remaining points, and re-interleaving
//! by the drawn sequence reproduces the sequential gather's joint
//! distribution exactly.
//!
//! ## Determinism under a fixed seed
//!
//! Merge order is a pure function of the coordinator's RNG (phase 1) and
//! each shard's batch is a pure function of that shard's seeded RNG, so the
//! emitted stream is identical across runs regardless of thread
//! scheduling. Only I/O-counter interleavings vary. Crucially this holds
//! *per session* under co-tenancy: a worker's per-stream state is keyed by
//! session, request sizes are a pure function of session-local
//! `StreamCore` state, and the worker's batched WOR kernel sees exactly
//! the same fill-size sequence whether the stream runs alone or
//! interleaved with a thousand others — so a session's emitted sequence
//! depends only on its own seed, never on co-tenant scheduling.
//!
//! ## Fault tolerance
//!
//! The executor is fail-soft, not fail-stop. Three mechanisms cooperate
//! (see `DESIGN.md` §9 for the full failure model):
//!
//! - **Panic containment** — a worker serves each open and each fill under
//!   `catch_unwind`, so a panic (genuine or injected) poisons only the one
//!   stream it hit, never the shard's snapshot or any co-tenant stream:
//!   the poisoned entry keeps its reply channel, answers every later fill
//!   with `items: None`, and the worker keeps serving everything else —
//!   a fresh stream on the same shard is whole again.
//! - **Timeout + bounded retry** — one policy, applied by the one
//!   coordinator to single queries and served sessions alike. When
//!   recovery is active (a [`FaultHook`](storm_faultkit::FaultHook) is
//!   installed or a [`RetryPolicy`](storm_faultkit::RetryPolicy) was
//!   set), a gather waits with exponential backoff and on each timeout
//!   re-sends every unanswered request unchanged: a fill keeps its `seq`,
//!   and workers cache the last served batch per stream and replay it on
//!   a duplicate `seq`, so a retried fill can never advance a
//!   without-replacement stream twice; a stillborn or unanswered open is
//!   re-opened onto the identical stream. With recovery inactive a gather
//!   makes one attempt, bounded by a 5 s safety valve. A request still
//!   unanswered after its last attempt is written off and its shard is
//!   dead for that coordinator: it is never asked to fill again, but later
//!   opens still ask its count, so a session declares the shard's mass
//!   and each fill planned on it is written off with that mass. A send
//!   that finds the worker gone kills the shard at once.
//! - **Graceful degradation** — a shard that exhausts its retries (or
//!   aborts, or disconnects) is written out of the query: its remaining
//!   mass is removed from the draw weights, the stream continues over the
//!   survivors, and the loss is recorded in a [`DegradedInfo`](storm_faultkit::DegradedInfo) surfaced
//!   through [`crate::SpatialSampler::degraded`] so the estimator layer
//!   can widen its confidence interval by the missing-mass bound.
//!
//! Fault injection itself lives in `storm-faultkit`: a [`FaultHook`](storm_faultkit::FaultHook) is a
//! pure function of `(site, shard, op)`, so an injected schedule of drops,
//! panics, and delays replays identically run over run — the fault-matrix
//! suite exercises exactly that.
//!
//! ## Atomic-counter ordering policy
//!
//! Every statistics counter in this module (`dropped_sends`, the session
//! allocator) uses `Ordering::Relaxed`, and only `Relaxed` — the single
//! policy documented on [`ParallelRsCluster`]. These atomics publish no
//! other memory: exactness comes from the atomic RMW itself, and no
//! consumer infers "happened-before" from a counter value. Reads are
//! point-in-time snapshots. The policy is pinned by an assertion-based
//! stress test (`dropped_send_counter_is_exact_under_contention`) driven
//! by `storm_testkit::stress_concurrent`.

mod cluster;
mod coordinator;
mod protocol;
mod sampler;
mod stream_core;
mod tests;
mod worker;

pub use cluster::{EpochError, ParallelRsCluster};
pub use coordinator::{Coordinator, SessionStream};
pub use sampler::ParallelSampler;
