//! The shard server: one shard's snapshot, its session table of lazily
//! materialised streams, and panic-contained open/fill serving — stepped
//! by a worker thread's command loop or, in process, by the coordinator
//! itself.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crossbeam::channel::{Receiver, Sender};
use rand::rngs::StdRng;
use rand::SeedableRng;
use storm_faultkit::{FaultHook, FaultKind, FaultSite};
use storm_geo::Rect2;
use storm_rtree::Item;

use super::protocol::{FillReq, OpenReq, SessionBatch, SessionOpen, ShardCmd, ShardReply};
use crate::{mix64, FrozenRsTree, FrozenSampler, SampleMode, SpatialSampler};

/// Live per-stream state in a worker's session table.
#[derive(Debug)]
struct StreamState {
    /// The frozen-kernel sampler for this stream's query.
    sampler: FrozenSampler<2>,
    /// The stream-local seeded RNG.
    rng: StdRng,
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
#[derive(Debug)]
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
    },
    /// Materialised and serving fills.
    Ready(Box<StreamState>),
    /// Dead to a contained panic; the entry (and its reply channel)
    /// survives so later fills are answered `items: None` promptly
    /// instead of timing out.
    Poisoned,
}

/// One entry in a worker's session table.
#[derive(Debug)]
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

/// One shard's server: its frozen snapshot, its session table and the
/// cluster's fault setting. A worker thread steps it from its command
/// channel ([`ShardServer::run`]); an in-process coordinator steps it on
/// its own thread. Both go through [`ShardServer::serve`], so a stream is
/// the same whichever transport carries it.
///
/// Opens and fills run under `catch_unwind`, so a panic while serving —
/// injected by a [`FaultHook`] or genuine — poisons only the stream it
/// hit. The snapshot is immutable and survives, the stream's coordinator
/// is told (`count: None` / `items: None`), and the server keeps serving
/// every other stream.
#[derive(Debug)]
pub(super) struct ShardServer {
    /// The snapshot new opens pin.
    frozen: Arc<FrozenRsTree<2>>,
    /// This shard's index (reply tag and fault coordinate).
    shard: usize,
    /// Monotone count of streams opened here: the op coordinate for
    /// open-site fault decisions.
    pub(super) open_ops: u64,
    /// The session table: every open stream (or poisoned husk thereof).
    pub(super) streams: HashMap<u64, StreamEntry>,
    /// Fault-injection hook (test/chaos runs only).
    hook: Option<Arc<dyn FaultHook>>,
    /// Whether coordinators may retry fills: enables the per-stream batch
    /// replay cache (skipped entirely on the fast path).
    recover: bool,
}

impl ShardServer {
    /// A server for shard `shard` over `frozen`, with no stream open and
    /// no fault setting.
    pub(super) fn new(frozen: Arc<FrozenRsTree<2>>, shard: usize) -> Self {
        ShardServer {
            frozen,
            shard,
            open_ops: 0,
            streams: HashMap::new(),
            hook: None,
            recover: false,
        }
    }

    /// The worker loop: serves any number of concurrently open streams
    /// until shutdown, or until every coordinator has dropped its command
    /// sender.
    pub(super) fn run(mut self, cmd: &Receiver<ShardCmd>) {
        // storm-analyzer: allow(A5): worker command loop — each recv is one control message (OpenMany/FillMany/CloseMany/Swap/Faults/Shutdown); items never travel here
        // storm-analyzer: allow(A13): parking on the command channel IS the worker's idle state; every coordinator dropping disconnects the recv and exits the loop
        while let Ok(msg) = cmd.recv() {
            if !self.serve(msg) {
                return;
            }
        }
    }

    /// Serves one command; `false` means shut down.
    pub(super) fn serve(&mut self, cmd: ShardCmd) -> bool {
        match cmd {
            ShardCmd::Shutdown => return false,
            // Epoch handoff: later opens pin the new snapshot; streams
            // already tabled keep their pinned Arcs (in `StreamSlot::Lazy`
            // or inside their `FrozenSampler`), so open sessions are
            // untouched. The old snapshot is freed when its last pinning
            // stream closes.
            ShardCmd::Swap(next) => self.frozen = next,
            ShardCmd::Faults(hook, recover) => (self.hook, self.recover) = (hook, recover),
            ShardCmd::CloseMany(sessions) => {
                for session in sessions.iter() {
                    self.streams.remove(session);
                }
            }
            ShardCmd::OpenMany(reqs, reply) => self.open_many(&reqs, &reply),
            ShardCmd::FillMany(reqs) => self.fill_many(&reqs),
        }
        true
    }

    /// Serves one [`ShardCmd::OpenMany`]: every named session's stream is
    /// opened (count + table insert) in admission order, answered with one
    /// [`ShardReply::Opens`] on `reply`. Panic containment is per session —
    /// a stillborn open rides along as `count: None` and the rest of the
    /// batch opens normally. An injected `DropReply` omits that session
    /// from the reply (the stream itself still opens; the coordinator
    /// retries or writes the shard off). A batch whose coordinator is
    /// already gone leaves nothing behind.
    fn open_many(&mut self, reqs: &[OpenReq], reply: &Sender<ShardReply>) {
        let shard = self.shard;
        let mut opens = Vec::with_capacity(reqs.len());
        for &OpenReq {
            session,
            query,
            mode,
            seed,
        } in reqs
        {
            let op = self.open_ops;
            self.open_ops += 1;
            let (frozen, hook) = (&self.frozen, self.hook.as_deref());
            let built = catch_unwind(AssertUnwindSafe(|| {
                let drop_reply = inject(hook, FaultSite::Open, shard, op);
                // Count-only descent; the sampler is built lazily on first
                // fill (see [`StreamSlot`]), so a shard this query never
                // touches never pays a sampler build. The descent visits
                // exactly the nodes the cone carve would, so this count
                // equals the eager sampler's `result_size`.
                (frozen.exact_count(&query), drop_reply)
            }));
            match built {
                Ok((count, drop_reply)) => {
                    // A zero-count stream can never be filled (its weight
                    // is 0 in every coordinator), so it is not tabled: its
                    // close is a no-op remove.
                    if count > 0 {
                        let seed = shard_seed(seed, shard);
                        let frozen = Arc::clone(&self.frozen);
                        let slot = StreamSlot::Lazy {
                            frozen,
                            query,
                            mode,
                            seed,
                        };
                        self.table(session, reply, slot);
                    }
                    if !drop_reply {
                        opens.push(SessionOpen {
                            session,
                            count: Some(count),
                        });
                    }
                }
                Err(_) => {
                    // Contained: this stream is stillborn, the batch and
                    // the snapshot are fine. Keep a poisoned entry so
                    // straggler fills are answered instead of timing out.
                    self.table(session, reply, StreamSlot::Poisoned);
                    opens.push(SessionOpen {
                        session,
                        count: None,
                    });
                }
            }
        }
        if reply.send(ShardReply::Opens { shard, opens }).is_err() {
            // Coordinator already gone: nobody is left to fill or close these.
            for r in reqs {
                self.streams.remove(&r.session);
            }
        }
    }

    /// Tables `session`'s stream with its own handle on `reply`.
    fn table(&mut self, session: u64, reply: &Sender<ShardReply>, slot: StreamSlot) {
        let reply = reply.clone();
        self.streams.insert(session, StreamEntry { reply, slot });
    }

    /// Serves one [`ShardCmd::FillMany`]: every named session's fill in
    /// request order, answered with one [`ShardReply::Batches`] on the
    /// first named stream's reply channel (all sessions in one `FillMany`
    /// share a channel). A reply that finds the coordinator gone drops the
    /// named streams.
    fn fill_many(&mut self, reqs: &[FillReq]) {
        let mut replies = Vec::with_capacity(reqs.len());
        let mut reply_to: Option<Sender<ShardReply>> = None;
        for r in reqs {
            // A fill for an unknown session is a straggler for a stream
            // already closed; with no reply channel left there is nobody
            // to tell, and nobody waiting.
            let Some(entry) = self.streams.get_mut(&r.session) else {
                continue;
            };
            if reply_to.is_none() {
                // storm-analyzer: allow(A4): one Arc bump per FillMany round (first request only), amortised across the batch
                reply_to = Some(entry.reply.clone());
            }
            let hook = self.hook.as_deref();
            let items = match fill_stream(self.shard, hook, self.recover, r, entry) {
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
        let shard = self.shard;
        let coordinator_gone =
            reply_to.is_some_and(|tx| tx.send(ShardReply::Batches { shard, replies }).is_err());
        if coordinator_gone {
            for r in reqs {
                self.streams.remove(&r.session);
            }
        }
    }
}

/// Applies `hook`'s decision for `(site, shard, op)`: panics (to be
/// contained by the caller), sleeps, or returns `true` when the reply is
/// to be dropped.
fn inject(hook: Option<&dyn FaultHook>, site: FaultSite, shard: usize, op: u64) -> bool {
    match hook.and_then(|h| h.fault(site, shard, op)) {
        Some(FaultKind::WorkerPanic) => {
            panic!("storm-faultkit: injected worker panic ({site:?}, shard {shard}, op {op})")
        }
        Some(FaultKind::DelayReplyMs(ms)) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            false
        }
        Some(FaultKind::DropReply) => true,
        _ => false,
    }
}

/// Serves one fill against one table entry, containing panics by
/// poisoning the entry. A first fill against a [`StreamSlot::Lazy`] entry
/// materialises the sampler here (a panic during the build poisons the
/// entry, same as a panic mid-fill) — from the snapshot `Arc` the entry
/// pinned at open, never the server's current one, so an epoch swap
/// between open and first fill is invisible to the stream.
fn fill_stream(
    shard: usize,
    hook: Option<&dyn FaultHook>,
    recover: bool,
    req: &FillReq,
    entry: &mut StreamEntry,
) -> FillOutcome {
    if let StreamSlot::Lazy {
        frozen,
        query,
        mode,
        seed,
    } = &entry.slot
    {
        let rng = StdRng::seed_from_u64(*seed);
        match catch_unwind(AssertUnwindSafe(|| frozen.sampler(query, *mode))) {
            Ok(sampler) => {
                entry.slot = StreamSlot::Ready(Box::new(StreamState {
                    sampler,
                    rng,
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
        let drop_reply = inject(hook, FaultSite::Fill, shard, op);
        let items = match &state.cache {
            Some((cached_seq, cached)) if *cached_seq == req.seq => cached.clone(),
            _ => {
                let mut batch = Vec::with_capacity(req.n);
                state.sampler.next_batch(&mut state.rng, &mut batch, req.n);
                if recover {
                    state.cache = Some((req.seq, batch.clone()));
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
    outcome.unwrap_or_else(|_| {
        entry.slot = StreamSlot::Poisoned;
        FillOutcome::Poisoned
    })
}

/// Derives shard `s`'s stream-RNG seed from the query seed.
fn shard_seed(seed: u64, s: usize) -> u64 {
    mix64(
        seed ^ (s as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(1),
    )
}
