//! The sans-I/O round state machine shared by every coordinator.

use rand::{Rng, RngExt};
use storm_faultkit::{DegradedInfo, FailReason};
use storm_rtree::Item;

use crate::SampleMode;

/// Fast-path request amplification: a contacted shard is asked for up to
/// this many rounds' worth of items instead of exactly this round's owed
/// count, and the surplus is banked coordinator-side. One channel
/// round-trip then serves ~this many rounds; on a single-CPU host (where
/// every message is a context switch) this is the difference between the
/// executor tracking the inline sampler and trailing it by an order of
/// magnitude (see E12 in results/BENCH_results.json).
const PREFETCH_AMPLIFY: usize = 32;

/// Upper bound on one amplified request, so a huge `next_batch` cannot ask
/// a worker to materialize an unbounded batch in one message.
const PREFETCH_MAX: usize = 1024;

/// The sans-I/O per-stream coordinator state machine: the multinomial
/// draw, prefetch request sizing, buffered-batch bookkeeping, drawn-order
/// merge, and degraded-mode write-off for **one** scatter-gather stream.
///
/// Every session's core lives in a [`super::SessionStream`] that the one
/// [`super::Coordinator`] drives, whether the caller is a
/// [`super::ParallelSampler`] (one session) or the `storm-server`
/// scheduler (a tick's worth, requests coalesced per shard). Keeping the
/// round-planning arithmetic here — and nowhere else — is what pins the
/// multi-tenant determinism contract: every quantity a worker's batched
/// kernel can observe (which shard is asked, for how much, in which
/// round) is a pure function of this session-local state and the
/// session's own RNG, so a stream chunked under 1 000 co-tenants is
/// byte-identical to the same stream running alone. (The worker's WOR
/// kernel draws a part sequence *per fill*, so 64 + 64 ≠ 128: request
/// *sizes* must never depend on co-tenant load — schedulers may delay a
/// round, never resize it.)
///
/// The round protocol, in order: [`StreamCore::draw`] →
/// [`StreamCore::plan_requests`] → (caller I/O) →
/// [`StreamCore::deliver`]/[`StreamCore::fail`] per contacted shard →
/// [`StreamCore::merge_into`].
#[derive(Debug)]
pub(super) struct StreamCore {
    mode: SampleMode,
    /// Initial per-shard result counts.
    weights: Vec<u64>,
    /// Unemitted counts (without-replacement bookkeeping).
    remaining: Vec<u64>,
    total_remaining: u64,
    total: usize,
    /// Scratch: the drawn shard sequence for the current round.
    seq: Vec<usize>,
    /// Scratch: per-shard owed counts for the current round.
    need: Vec<usize>,
    /// Per-shard gathered batches. Unlike the owed counts these persist
    /// *across* rounds: the planner over-requests ([`PREFETCH_AMPLIFY`])
    /// and the surplus waits here for later rounds, which is what keeps
    /// the per-round channel round-trip off the per-sample cost.
    batches: Vec<Vec<Item<2>>>,
    /// Per-shard merge cursors into `batches`.
    cursors: Vec<usize>,
    /// Items received from each shard over the stream's lifetime; with
    /// `weights` this bounds WOR prefetch to the mass the worker can
    /// still serve.
    fetched: Vec<u64>,
    /// Shards written off this stream, and the mass lost with them.
    degraded: DegradedInfo,
    /// Per-shard dead flags (never plan a request to a written-off shard).
    dead: Vec<bool>,
    /// Budget-aware prefetch cap: draws the stream still owes its caller
    /// after the current round (see [`StreamCore::set_fetch_hint`]).
    fetch_hint: Option<u64>,
}

impl StreamCore {
    /// Builds the state machine from the gathered per-shard counts, with
    /// open-phase failures already recorded (failed shards carry weight 0,
    /// so they are never drawn).
    pub fn new(mode: SampleMode, weights: Vec<u64>, failures: Vec<(usize, FailReason)>) -> Self {
        let total: u64 = weights.iter().sum();
        // Shards dead at open never reported a count, so their mass cannot
        // enter `initial_total`; they are recorded with zero lost mass and
        // the missing-mass bound under-counts accordingly (documented in
        // DESIGN.md §9).
        let mut degraded = DegradedInfo::new(total);
        for (s, reason) in failures {
            degraded.record(s, reason, 0);
        }
        let n = weights.len();
        StreamCore {
            mode,
            remaining: weights.clone(),
            weights,
            total_remaining: total,
            total: total as usize,
            seq: Vec::new(),
            need: vec![0; n],
            batches: vec![Vec::new(); n],
            cursors: vec![0; n],
            fetched: vec![0; n],
            degraded,
            dead: vec![false; n],
            fetch_hint: None,
        }
    }

    /// Declares how many draws the stream still owes its caller *after*
    /// the current round, capping request amplification so a short-budget
    /// stream does not prefetch [`PREFETCH_AMPLIFY`] rounds it will never
    /// consume. The cap is apportioned per shard by weight share (a
    /// shard is asked for this round's deficit plus its share of the
    /// future draws, plus one for rounding); under-apportionment only
    /// costs a later fill round, never correctness.
    ///
    /// Part of the deterministic protocol: the hint must be a pure
    /// function of session-local state (its sample budget and draws so
    /// far), exactly like the draw sizes — the `storm-server` scheduler
    /// sets it from the session's declared budget, which is why serving
    /// budgeted sessions fetches ~1x their budget while the budget-blind
    /// single-query [`super::ParallelSampler`] fetches the full amplification.
    pub fn set_fetch_hint(&mut self, remaining: u64) {
        self.fetch_hint = Some(remaining);
    }

    /// The sampling mode this stream was opened with.
    pub fn mode(&self) -> SampleMode {
        self.mode
    }

    /// The exact result count gathered at open (`|P ∩ Q|`).
    pub fn result_count(&self) -> usize {
        self.total
    }

    /// This round's owed count for shard `s` (valid between
    /// [`StreamCore::draw`] and the next round's draw).
    pub fn owed(&self, s: usize) -> usize {
        self.need[s]
    }

    /// A snapshot of the stream's degraded-mode report.
    pub fn degraded_info(&self) -> DegradedInfo {
        self.degraded.clone()
    }

    /// True once any shard has been written off — a cheap check so
    /// per-round callers (the multi-session scheduler) only pay the
    /// [`StreamCore::degraded_info`] clone on streams that actually
    /// degraded.
    pub fn is_degraded(&self) -> bool {
        self.degraded.is_degraded()
    }

    /// The fraction of the declared result mass lost to written-off
    /// shards (the estimator's missing-mass widening input), without
    /// cloning the report.
    pub fn missing_fraction(&self) -> f64 {
        self.degraded.missing_fraction()
    }

    /// Phase 1: draws up to `want` shard indices from the remaining-count
    /// multinomial into the round's owed tallies. Returns the number
    /// drawn; 0 means the stream is exhausted (or empty) and no round
    /// should run.
    pub fn draw(&mut self, rng: &mut dyn Rng, want: usize) -> usize {
        let rng = &mut *rng;
        self.seq.clear();
        self.need.fill(0);
        match self.mode {
            SampleMode::WithReplacement => {
                let total: u64 = self.weights.iter().sum();
                if total == 0 {
                    return 0;
                }
                for _ in 0..want {
                    let mut target = rng.random_range(0..total);
                    for (s, &w) in self.weights.iter().enumerate() {
                        if target < w {
                            self.need[s] += 1;
                            self.seq.push(s);
                            break;
                        }
                        target -= w;
                    }
                }
            }
            SampleMode::WithoutReplacement => {
                if self.total_remaining == 0 {
                    return 0;
                }
                for _ in 0..want {
                    if self.total_remaining == 0 {
                        break;
                    }
                    let mut target = rng.random_range(0..self.total_remaining);
                    for (s, &w) in self.remaining.iter().enumerate() {
                        if target < w {
                            self.remaining[s] -= 1;
                            self.total_remaining -= 1;
                            self.need[s] += 1;
                            self.seq.push(s);
                            break;
                        }
                        target -= w;
                    }
                }
            }
        }
        self.seq.len()
    }

    /// Phase 2 planning: computes this round's per-shard request sizes
    /// into `out` (index = shard, 0 = no I/O needed), compacting consumed
    /// buffer prefixes as it goes.
    ///
    /// Requests are *amplified*: instead of exactly this round's owed
    /// count, a shard is asked for up to [`PREFETCH_AMPLIFY`] rounds'
    /// worth and the surplus is banked in the buffer, so most rounds are
    /// served with no channel traffic at all. One subtlety makes this
    /// formula part of the deterministic protocol: the worker's batched
    /// WOR kernel draws a part sequence *per fill* and pops grouped per
    /// part, so a shard's item order depends on the fill sizes it receives
    /// (64 + 64 ≠ 128). Recovery rounds therefore use the *same* amplified
    /// formula as the fast path — a quiet-hooked run must chunk
    /// identically to an unhooked one — and every input here is
    /// session-local, so co-tenant load cannot perturb the sizes either.
    /// WOR prefetch is capped by the mass the worker can still serve so
    /// over-requesting can never masquerade as under-delivery.
    pub fn plan_requests(&mut self, out: &mut Vec<usize>) {
        out.clear();
        // Budget-aware cap (see `set_fetch_hint`): per shard, this round's
        // deficit plus the shard's weight share of the declared future
        // draws. `None` hint = no cap (the long-stream default).
        let hint = self.fetch_hint.map(|h| {
            let total: u64 = self.weights.iter().sum();
            (h, total.max(1))
        });
        for s in 0..self.need.len() {
            // Compact the consumed prefix so the buffer holds only
            // unemitted items and this round's merge cursor restarts at 0.
            if self.cursors[s] > 0 {
                self.batches[s].drain(..self.cursors[s]);
                self.cursors[s] = 0;
            }
            let need = self.need[s];
            let deficit = need.saturating_sub(self.batches[s].len());
            let req = if deficit == 0 {
                0
            } else {
                let mut amplified = deficit.max((need * PREFETCH_AMPLIFY).min(PREFETCH_MAX));
                if let Some((h, total)) = hint {
                    let share = (h * self.weights[s] / total) as usize + 1;
                    amplified = amplified.min(deficit + share);
                }
                match self.mode {
                    SampleMode::WithoutReplacement => {
                        let cap = self.weights[s].saturating_sub(self.fetched[s]) as usize;
                        amplified.min(cap)
                    }
                    SampleMode::WithReplacement => amplified,
                }
            };
            out.push(req);
        }
    }

    /// Banks one contacted shard's gathered batch for merging.
    pub fn deliver(&mut self, s: usize, items: Vec<Item<2>>) {
        self.fetched[s] += items.len() as u64;
        if self.batches[s].is_empty() {
            self.batches[s] = items;
        } else {
            self.batches[s].extend(items);
        }
    }

    /// Records that shard `s`'s gather failed this round and writes it out
    /// of the stream. Already-buffered items are still valid output and
    /// will be merged; only the part of this round's draw the buffer
    /// cannot cover is lost.
    pub fn fail(&mut self, s: usize, reason: FailReason) {
        let shortfall = self.need[s].saturating_sub(self.batches[s].len()) as u64;
        self.write_off(s, reason, shortfall);
    }

    /// Phase 3: merges the round's buffered items into `buf` in drawn
    /// order — deterministic regardless of which worker answered first —
    /// and (WOR) writes off under-delivering shards so the caller's retry
    /// loop re-draws their shortfall elsewhere instead of spinning.
    /// Returns the number of items merged.
    pub fn merge_into(&mut self, buf: &mut Vec<Item<2>>) -> usize {
        let before = buf.len();
        for i in 0..self.seq.len() {
            let s = self.seq[i];
            if self.cursors[s] < self.batches[s].len() {
                buf.push(self.batches[s][self.cursors[s]]);
                self.cursors[s] += 1;
            }
        }
        // Under-delivery (a shard's stream dried before its count): write
        // off the shortfall so phase 1 re-draws it from the survivors.
        if self.mode == SampleMode::WithoutReplacement {
            for s in 0..self.need.len() {
                let n = self.need[s];
                if n > 0 && !self.dead[s] && self.batches[s].len() < n {
                    let shortfall = (n - self.batches[s].len()) as u64;
                    self.write_off(s, FailReason::UnderDelivered, shortfall);
                }
            }
        }
        buf.len() - before
    }

    /// Writes shard `s` out of the stream: removes its mass from the draw
    /// weights and records the loss. `shortfall` is the current round's
    /// drawn-but-undelivered count — already subtracted from `remaining`
    /// in phase 1, so it must be added back into the reported loss.
    fn write_off(&mut self, s: usize, reason: FailReason, shortfall: u64) {
        if self.dead[s] {
            return;
        }
        self.dead[s] = true;
        let lost = match self.mode {
            SampleMode::WithoutReplacement => self.remaining[s] + shortfall,
            // With replacement nothing is "consumed"; the shard's whole
            // weight becomes unreachable.
            SampleMode::WithReplacement => self.weights[s],
        };
        self.total_remaining -= self.remaining[s];
        self.remaining[s] = 0;
        self.weights[s] = 0;
        self.degraded.record(s, reason, lost);
    }
}
