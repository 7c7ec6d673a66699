//! The shard worker: the command loop, its session table of lazily
//! materialised streams, and panic-contained open/fill serving.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crossbeam::channel::{Receiver, Sender};
use rand::rngs::StdRng;
use rand::SeedableRng;
use storm_faultkit::{FaultHook, FaultKind, FaultSite};
use storm_geo::Rect2;
use storm_rtree::Item;

use super::protocol::{
    FillReq, OpenManyArgs, OpenReq, SessionBatch, SessionOpen, ShardCmd, ShardReply,
};
use crate::{mix64, FrozenRsTree, FrozenSampler, SampleMode, SpatialSampler};

/// Live per-stream state in a worker's session table.
struct StreamState {
    /// The frozen-kernel sampler for this stream's query.
    sampler: FrozenSampler<2>,
    /// The stream-local seeded RNG.
    rng: StdRng,
    /// Fault-injection hook (test/chaos runs only).
    hook: Option<Arc<dyn FaultHook>>,
    /// Whether to populate the replay cache.
    recover: bool,
    /// Monotone count of fills received on this stream: the op coordinate
    /// for fill-site fault decisions. A retried fill is a new op, so a
    /// transient injected fault doesn't condemn every retry with it.
    fill_ops: u64,
    /// Replay cache: the last served scatter-round and its batch. A
    /// duplicate seq means the coordinator never saw our reply and
    /// retried; replaying the cache keeps the WOR stream exact (drawing
    /// afresh would silently discard the cached samples). Only populated
    /// when the coordinator can actually retry.
    cache: Option<(u64, Vec<Item<2>>)>,
}

/// A stream's lifecycle slot in a worker's session table.
///
/// Streams materialise lazily: the open answers its count from an
/// allocation-free descent ([`crate::FrozenRsTree::exact_count`]) and
/// parks the spec; the sampler — cone carve, alias selector, stream RNG —
/// is built on the *first fill*. Shards outside a query's support have
/// weight 0, are never asked for samples, and therefore never build any
/// stream state: for selective queries over many shards the open cost
/// collapses from O(shards · sampler builds) to O(shards · count
/// descents) + O(touched shards · sampler builds).
enum StreamSlot {
    /// Opened, never filled: everything needed to build the sampler on
    /// first touch. Rebuilding from the parked spec is exact — no RNG
    /// state advances at open time, so the stream drawn later is
    /// identical to one built eagerly.
    Lazy {
        /// The shard snapshot this stream is pinned to. Captured at open
        /// time so an epoch swap ([`ShardCmd::Swap`]) between open and
        /// first fill cannot change the stream's view: a session always
        /// samples the epoch it opened against, byte-identically.
        frozen: Arc<FrozenRsTree<2>>,
        /// The range query.
        query: Rect2,
        /// With or without replacement.
        mode: SampleMode,
        /// Stream seed (already shard-derived).
        seed: u64,
        /// Fault-injection hook (test/chaos runs only).
        hook: Option<Arc<dyn FaultHook>>,
        /// Whether to populate the replay cache.
        recover: bool,
    },
    /// Materialised and serving fills.
    Ready(Box<StreamState>),
    /// Dead to a contained panic; the entry (and its reply channel)
    /// survives so later fills are answered `items: None` promptly
    /// instead of timing out.
    Poisoned,
}

/// One entry in a worker's session table.
pub(super) struct StreamEntry {
    /// Where this stream's replies go.
    reply: Sender<ShardReply>,
    /// The stream's lifecycle slot.
    slot: StreamSlot,
}

/// What one fill against one stream produced.
enum FillOutcome {
    /// A batch to send back.
    Served(Vec<Item<2>>),
    /// An injected DropReply: the stream advanced but the reply is lost.
    DroppedReply,
    /// The stream is poisoned (was already, or this fill's panic was
    /// contained and poisoned it).
    Poisoned,
}

/// The worker loop: serve any number of concurrently open streams over
/// the shard's frozen snapshot until shutdown (or until every coordinator
/// has dropped its command sender).
///
/// Opens and fills run under `catch_unwind`, so a panic while serving —
/// injected by a [`FaultHook`] or genuine — poisons only the stream it
/// hit. The snapshot is immutable and survives, the stream's coordinator
/// is told (`count: None` / `items: None`), and the worker keeps serving
/// every other stream.
pub(super) fn run_shard(mut frozen: Arc<FrozenRsTree<2>>, shard: usize, cmd: &Receiver<ShardCmd>) {
    // The session table: every open stream (or poisoned husk thereof).
    let mut streams: HashMap<u64, StreamEntry> = HashMap::new();
    // Monotone count of streams opened on this worker: the op coordinate
    // for open-site fault decisions.
    let mut open_ops: u64 = 0;
    loop {
        // storm-analyzer: allow(A5): worker command loop — each recv is one control message (OpenMany/FillMany/CloseMany/Swap/Shutdown); items never travel here
        // storm-analyzer: allow(A13): parking on the command channel IS the worker's idle state; every coordinator dropping disconnects the recv and exits below
        let Ok(msg) = cmd.recv() else {
            return; // every coordinator dropped: exit
        };
        match msg {
            ShardCmd::Shutdown => return,
            // Epoch handoff: subsequent opens snapshot the new frozen
            // form; streams already tabled keep their pinned Arcs (in
            // `StreamSlot::Lazy` or inside their `FrozenSampler`), so
            // open sessions are untouched. The old snapshot is freed
            // when its last pinning stream closes.
            ShardCmd::Swap(next) => frozen = next,
            ShardCmd::CloseMany(sessions) => {
                for session in sessions.iter() {
                    streams.remove(session);
                }
            }
            ShardCmd::OpenMany(args) => {
                open_ops = serve_open_many(&frozen, shard, open_ops, *args, &mut streams);
            }
            ShardCmd::FillMany(reqs) => serve_fill_many(shard, &reqs, &mut streams),
        }
    }
}

/// Serves one [`ShardCmd::OpenMany`]: every named session's stream is
/// opened (count + table insert) in admission order, answered with one
/// [`ShardReply::Opens`] on the batch's shared channel. Panic containment
/// is per session — a stillborn open rides along as `count: None` and the
/// rest of the batch opens normally. An injected `DropReply` omits that
/// session from the reply (the stream itself still opens; the coordinator
/// retries or writes the shard off). A batch whose coordinator is already
/// gone leaves nothing behind. Returns the advanced open-op counter.
pub(super) fn serve_open_many(
    frozen: &Arc<FrozenRsTree<2>>,
    shard: usize,
    mut open_ops: u64,
    args: OpenManyArgs,
    streams: &mut HashMap<u64, StreamEntry>,
) -> u64 {
    let OpenManyArgs {
        reqs,
        hook,
        recover,
        reply,
    } = args;
    let mut opens = Vec::with_capacity(reqs.len());
    for &OpenReq {
        session,
        query,
        mode,
        seed,
    } in reqs.iter()
    {
        let op = open_ops;
        open_ops += 1;
        let built = catch_unwind(AssertUnwindSafe(|| {
            let mut drop_reply = false;
            if let Some(hook) = &hook {
                match hook.fault(FaultSite::Open, shard, op) {
                    Some(FaultKind::WorkerPanic) => {
                        panic!(
                            "storm-faultkit: injected worker panic (open, shard {shard}, op {op})"
                        )
                    }
                    Some(FaultKind::DelayReplyMs(ms)) => {
                        std::thread::sleep(std::time::Duration::from_millis(ms));
                    }
                    Some(FaultKind::DropReply) => drop_reply = true,
                    _ => {}
                }
            }
            // Count-only descent; the sampler is built lazily on first
            // fill (see [`StreamSlot`]), so a shard this query never
            // touches never pays a sampler build. The descent visits
            // exactly the nodes the cone carve would, so this count equals
            // the eager sampler's `result_size`.
            let count = frozen.exact_count(&query);
            (count, drop_reply)
        }));
        match built {
            Ok((count, drop_reply)) => {
                // A zero-count stream can never be filled (its weight is 0
                // in every coordinator), so it is not tabled at all: its
                // close is a no-op remove and the session costs this shard
                // nothing beyond the count descent.
                if count > 0 {
                    streams.insert(
                        session,
                        StreamEntry {
                            reply: reply.clone(),
                            slot: StreamSlot::Lazy {
                                frozen: Arc::clone(frozen),
                                query,
                                mode,
                                seed: shard_seed(seed, shard),
                                hook: hook.clone(),
                                recover,
                            },
                        },
                    );
                }
                if !drop_reply {
                    opens.push(SessionOpen {
                        session,
                        count: Some(count),
                    });
                }
            }
            Err(_) => {
                // Contained: this stream is stillborn, the batch and the
                // snapshot are fine. Keep a poisoned entry so straggler fills
                // are answered instead of timing out.
                streams.insert(
                    session,
                    StreamEntry {
                        reply: reply.clone(),
                        slot: StreamSlot::Poisoned,
                    },
                );
                opens.push(SessionOpen {
                    session,
                    count: None,
                });
            }
        }
    }
    if reply.send(ShardReply::Opens { shard, opens }).is_err() {
        // Coordinator already gone: nobody is left to fill or close these.
        for r in reqs.iter() {
            streams.remove(&r.session);
        }
    }
    open_ops
}

/// Serves one fill against one table entry, containing panics by
/// poisoning the entry. A first fill against a [`StreamSlot::Lazy`] entry
/// materialises the sampler here (a panic during the build poisons the
/// entry, same as a panic mid-fill) — from the snapshot `Arc` the entry
/// pinned at open, never the worker's current one, so an epoch swap
/// between open and first fill is invisible to the stream.
fn fill_stream(shard: usize, n: usize, seq: u64, entry: &mut StreamEntry) -> FillOutcome {
    if let StreamSlot::Lazy {
        frozen,
        query,
        mode,
        seed,
        hook,
        recover,
    } = &entry.slot
    {
        let (query, mode, seed, recover) = (*query, *mode, *seed, *recover);
        let hook = hook.clone();
        let frozen = Arc::clone(frozen);
        let built = catch_unwind(AssertUnwindSafe(|| frozen.sampler(&query, mode)));
        match built {
            Ok(sampler) => {
                entry.slot = StreamSlot::Ready(Box::new(StreamState {
                    sampler,
                    rng: StdRng::seed_from_u64(seed),
                    hook,
                    recover,
                    fill_ops: 0,
                    cache: None,
                }));
            }
            Err(_) => {
                entry.slot = StreamSlot::Poisoned;
                return FillOutcome::Poisoned;
            }
        }
    }
    let StreamSlot::Ready(state) = &mut entry.slot else {
        return FillOutcome::Poisoned;
    };
    let op = state.fill_ops;
    state.fill_ops += 1;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut drop_reply = false;
        if let Some(hook) = &state.hook {
            match hook.fault(FaultSite::Fill, shard, op) {
                Some(FaultKind::WorkerPanic) => {
                    panic!("storm-faultkit: injected worker panic (fill, shard {shard}, op {op})")
                }
                Some(FaultKind::DelayReplyMs(ms)) => {
                    std::thread::sleep(std::time::Duration::from_millis(ms));
                }
                Some(FaultKind::DropReply) => drop_reply = true,
                _ => {}
            }
        }
        let items = match &state.cache {
            Some((cached_seq, cached)) if *cached_seq == seq => cached.clone(),
            _ => {
                let mut batch = Vec::with_capacity(n);
                state.sampler.next_batch(&mut state.rng, &mut batch, n);
                if state.recover {
                    state.cache = Some((seq, batch.clone()));
                }
                batch
            }
        };
        if drop_reply {
            FillOutcome::DroppedReply
        } else {
            FillOutcome::Served(items)
        }
    }));
    match outcome {
        Ok(o) => o,
        Err(_) => {
            entry.slot = StreamSlot::Poisoned;
            FillOutcome::Poisoned
        }
    }
}

/// Serves one [`ShardCmd::FillMany`]: every named session's fill in
/// request order, answered with one [`ShardReply::Batches`] on the first
/// named stream's reply channel (all sessions in one `FillMany` share a
/// channel). A reply that finds the coordinator gone drops the named
/// streams.
pub(super) fn serve_fill_many(
    shard: usize,
    reqs: &[FillReq],
    streams: &mut HashMap<u64, StreamEntry>,
) {
    let mut replies = Vec::with_capacity(reqs.len());
    let mut reply_to: Option<Sender<ShardReply>> = None;
    for r in reqs {
        // A fill for an unknown session is a straggler for a stream
        // already closed; with no reply channel left there is nobody to
        // tell, and nobody waiting.
        let Some(entry) = streams.get_mut(&r.session) else {
            continue;
        };
        if reply_to.is_none() {
            // storm-analyzer: allow(A4): one Arc bump per FillMany round (first request only), amortised across the batch
            reply_to = Some(entry.reply.clone());
        }
        let items = match fill_stream(shard, r.n, r.seq, entry) {
            FillOutcome::Served(items) => Some(items),
            FillOutcome::DroppedReply => continue,
            FillOutcome::Poisoned => None,
        };
        replies.push(SessionBatch {
            session: r.session,
            seq: r.seq,
            items,
        });
    }
    let coordinator_gone =
        reply_to.is_some_and(|tx| tx.send(ShardReply::Batches { shard, replies }).is_err());
    if coordinator_gone {
        for r in reqs {
            streams.remove(&r.session);
        }
    }
}

/// Derives shard `s`'s stream-RNG seed from the query seed.
fn shard_seed(seed: u64, s: usize) -> u64 {
    mix64(
        seed ^ (s as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(1),
    )
}
