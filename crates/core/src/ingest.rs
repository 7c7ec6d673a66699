//! Live ingestion: an LSM-style delta-plus-runs index whose sampler stays
//! unbiased while inserts land mid-query.
//!
//! The frozen kernels ([`crate::FrozenRsTree`]) are build-once; STORM's
//! headline scenario is a *feed*. This module puts a mutable tier in front
//! of them:
//!
//! * a **delta buffer** — an append-only in-memory vector absorbing
//!   concurrent inserts (unsorted recent items, scanned linearly);
//! * a stack of immutable **Hilbert-packed frozen runs** behind it, each a
//!   full [`FrozenRsTree`] built from one drained delta (or a merge);
//! * **minor freeze** rolls the delta into a new run when it exceeds its
//!   limit, and **compaction** merges the run stack back into one run —
//!   both publish a whole replacement epoch through the crash-safe
//!   [`RunRegistry`] (build aside, install last), so a panic or abandon
//!   mid-merge leaves the previous epoch fully intact and queries can
//!   never observe a half-merged run-set;
//! * a **composite sampler** ([`CompositeSampler`]) that draws across
//!   delta + runs with probability proportional to each component's *live*
//!   size, so WR draws are uniform over the union as it stands at the
//!   moment of the draw and WOR draws are uniform over the union's unseen
//!   remainder — unbiased mid-ingest, which is the property the
//!   statistical suite in `tests/ingest_stat.rs` certifies.
//!
//! Epoch discipline: a sampler pins the `Arc`'d epoch state it was opened
//! against. Freezes and compactions publish *new* states and never mutate
//! a published one (the delta of a retired epoch stops growing because
//! inserts go through the registry's read lock to the *current* state), so
//! an open stream keeps a stable view while the index moves on — the same
//! pinning contract `storm_core::parallel` workers get via
//! [`ShardCmd`-level swaps](crate::ParallelRsCluster::install_epoch).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rand::{Rng, RngExt};
use storm_faultkit::{FaultHook, FaultKind, FaultSite};
use storm_geo::Rect;
use storm_rtree::{IoStats, Item};
use storm_store::runs::RunRegistry;

use crate::frozen::{FrozenRsTree, FrozenSampler};
use crate::weighted::{SelectorKind, WeightedSelector};
use crate::{SampleMode, SamplerKind, SpatialSampler};

/// The append-only in-memory write buffer of one epoch.
///
/// Writers push under the mutex; readers observe a *prefix*: the atomic
/// `len` is published after the push, so any index below a loaded `len`
/// is safe to read (under the same mutex — the backing `Vec` may move on
/// growth). Published (retired) deltas stop growing, because inserts are
/// routed to the registry's current epoch under its read lock.
#[derive(Debug, Default)]
pub struct DeltaBuffer<const D: usize> {
    items: Mutex<Vec<Item<D>>>,
    len: AtomicUsize,
}

impl<const D: usize> DeltaBuffer<D> {
    /// Appends one item.
    pub fn push(&self, item: Item<D>) {
        let mut g = self.items.lock();
        // `items` is a leaf lock: the only work under it is `Vec::push` plus
        // an atomic store, so the registry lock is never taken from here (the
        // reported cycle comes from name-aliased callees).
        // storm-analyzer: allow(A1): leaf lock — no registry acquisition is reachable while `items` is held
        g.push(item);
        // Pairing invariant (A10): this Release store publishes the push
        // above, and the Acquire load in `len()` synchronizes with it —
        // every index below a loaded `len` therefore reads a fully settled
        // item. Relaxed on either side would let a reader observe the new
        // count before the item's bytes.
        self.len.store(g.len(), Ordering::Release);
    }

    /// The published length: every index below it holds a settled item.
    pub fn len(&self) -> usize {
        // Acquire side of the settled-prefix pair — see `push`.
        self.len.load(Ordering::Acquire)
    }

    /// True when no items have been published.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies the settled prefix.
    pub fn snapshot(&self) -> Vec<Item<D>> {
        let n = self.len();
        self.items.lock()[..n].to_vec()
    }

    /// Scans settled items `from..len()` and appends the ones inside
    /// `query` to `out`; returns the new watermark (`len()` at scan time).
    /// This is the sampler's incremental matcher: each call only touches
    /// the suffix that arrived since the previous call.
    pub fn scan_matches(&self, from: usize, query: &Rect<D>, out: &mut Vec<Item<D>>) -> usize {
        let n = self.len();
        if n > from {
            let g = self.items.lock();
            for item in &g[from..n] {
                if query.contains_point(&item.point) {
                    out.push(*item);
                }
            }
        }
        n
    }
}

/// One epoch's immutable view: the run stack plus that epoch's delta.
///
/// Published via [`RunRegistry`]; never mutated after publication except
/// for appends to `delta` *while this is the current epoch*.
#[derive(Debug)]
pub struct EpochState<const D: usize> {
    /// Immutable Hilbert-packed runs, oldest first.
    pub runs: Vec<Arc<FrozenRsTree<D>>>,
    /// This epoch's write buffer.
    pub delta: Arc<DeltaBuffer<D>>,
}

impl<const D: usize> EpochState<D> {
    /// Live union cardinality: run lengths plus the settled delta prefix.
    pub fn len(&self) -> usize {
        self.runs.iter().map(|r| r.len()).sum::<usize>() + self.delta.len()
    }

    /// True when the epoch holds no items at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Tuning knobs for an [`IngestIndex`].
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    /// Arena fanout for frozen runs (blocks of this many items).
    pub fanout: usize,
    /// Inserts that trigger an automatic minor freeze of the delta.
    pub delta_limit: usize,
    /// Run-stack depth that triggers a full merge during the next freeze.
    pub max_runs: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            fanout: 64,
            delta_limit: 4096,
            max_runs: 6,
        }
    }
}

/// The mutable ingest tier: delta + runs + epoch registry.
///
/// All methods take `&self`; the index is `Send + Sync` and intended to be
/// shared (`Arc`) between writer threads and query threads. See the
/// [module docs](self) for the consistency protocol.
#[derive(Debug)]
pub struct IngestIndex<const D: usize> {
    registry: RunRegistry<EpochState<D>>,
    cfg: IngestConfig,
    io: Arc<IoStats>,
    /// Compaction fault hook (tests only): consulted at every merge step
    /// with [`FaultSite::Compaction`].
    fault: Option<Arc<dyn FaultHook>>,
}

/// Internal: the abandon signal a [`FaultKind::DropReply`] injection turns
/// a run build into.
struct Abandon;

impl<const D: usize> IngestIndex<D> {
    /// An empty index with the given knobs.
    pub fn new(cfg: IngestConfig) -> Self {
        assert!(cfg.fanout >= 2 && cfg.delta_limit >= 1 && cfg.max_runs >= 1);
        IngestIndex {
            registry: RunRegistry::new(EpochState {
                runs: Vec::new(),
                delta: Arc::new(DeltaBuffer::default()),
            }),
            cfg,
            io: Arc::new(IoStats::default()),
            fault: None,
        }
    }

    /// Installs a fault hook consulted at [`FaultSite::Compaction`] during
    /// freezes/compactions (crash-matrix tests).
    pub fn with_fault_hook(mut self, hook: Arc<dyn FaultHook>) -> Self {
        self.fault = Some(hook);
        self
    }

    /// The shared simulated-I/O counter all runs charge to.
    pub fn io_handle(&self) -> Arc<IoStats> {
        Arc::clone(&self.io)
    }

    /// Current epoch number (bumps once per published freeze/compaction).
    pub fn epoch(&self) -> u64 {
        self.registry.epoch()
    }

    /// Pins the current epoch: `(epoch, state)`. The state stays valid —
    /// and its delta stops growing the moment a newer epoch is published.
    pub fn pin(&self) -> (u64, Arc<EpochState<D>>) {
        let p = self.registry.pin();
        (p.epoch, p.state)
    }

    /// Live union cardinality.
    pub fn len(&self) -> usize {
        self.registry.with_current(|p| p.state.len())
    }

    /// True when the index holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of frozen runs in the current epoch.
    pub fn run_count(&self) -> usize {
        self.registry.with_current(|p| p.state.runs.len())
    }

    /// Settled size of the current delta.
    pub fn delta_len(&self) -> usize {
        self.registry.with_current(|p| p.state.delta.len())
    }

    /// Inserts one item. The append happens under the registry's read
    /// lock, so it always lands in the epoch a future freeze will drain —
    /// never in a retired one. When the delta crosses `delta_limit` the
    /// insert triggers an automatic [`minor_freeze`](Self::minor_freeze).
    pub fn insert(&self, item: Item<D>) {
        let full = self.registry.with_current(|p| {
            p.state.delta.push(item);
            p.state.delta.len() >= self.cfg.delta_limit
        });
        if full {
            self.minor_freeze();
        }
    }

    /// Inserts a batch (each item through the same path as [`insert`](Self::insert)).
    pub fn insert_batch(&self, items: impl IntoIterator<Item = Item<D>>) {
        for item in items {
            self.insert(item);
        }
    }

    /// Rolls the current delta into a new frozen run, publishing a new
    /// epoch. If the run stack would exceed `max_runs`, the whole stack is
    /// merged into a single run in the same (still atomic) publish.
    /// Returns the new epoch, or `None` when nothing was published (empty
    /// delta, or a fault hook abandoned the build). Panics injected by the
    /// hook unwind out of here with the old epoch intact.
    pub fn minor_freeze(&self) -> Option<u64> {
        self.registry
            .try_publish(|cur| {
                let state = &cur.state;
                if state.delta.is_empty() {
                    return None;
                }
                self.build_next(state, false).ok()
            })
            .map(|p| p.epoch)
    }

    /// Merges every run plus the delta into one run, publishing a new
    /// epoch. Returns the new epoch, or `None` when there was nothing to
    /// merge or a fault hook abandoned the build.
    pub fn compact(&self) -> Option<u64> {
        self.registry
            .try_publish(|cur| {
                let state = &cur.state;
                if state.delta.is_empty() && state.runs.len() <= 1 {
                    return None;
                }
                self.build_next(state, true).ok()
            })
            .map(|p| p.epoch)
    }

    /// Builds the replacement epoch state **aside** (registry write lock
    /// held by the caller). Every fallible step — including each injected
    /// fault point — happens in here, before anything is published.
    fn build_next(&self, state: &EpochState<D>, merge_all: bool) -> Result<EpochState<D>, Abandon> {
        let mut step = 0u64;
        self.fault_step(&mut step)?; // step 0: build entry
        let mut drained = state.delta.snapshot();
        self.fault_step(&mut step)?; // step 1: delta drained

        let merge = merge_all || state.runs.len() + 1 > self.cfg.max_runs;
        let mut runs: Vec<Arc<FrozenRsTree<D>>> = Vec::new();
        if merge {
            // Concatenate every run's arena into the new item set. Hilbert
            // keys are bbox-relative, so merged runs must be re-sorted and
            // rebuilt — run order cannot be zipper-merged.
            for run in &state.runs {
                let tree = run.tree();
                drained.reserve(tree.len());
                for i in 0..tree.len() {
                    drained.push(tree.item(i));
                }
                self.fault_step(&mut step)?; // one step per merged run
            }
        } else {
            runs.extend(state.runs.iter().map(Arc::clone));
        }
        if !drained.is_empty() {
            let run = FrozenRsTree::build_run(&mut drained, self.cfg.fanout, self.io_handle());
            runs.push(Arc::new(run));
        }
        self.fault_step(&mut step)?; // final step: built, about to publish
        Ok(EpochState {
            runs,
            delta: Arc::new(DeltaBuffer::default()),
        })
    }

    /// One compaction fault point: consults the hook at `(Compaction, 0,
    /// *step)`, then advances the step counter. `WorkerPanic` unwinds,
    /// `DropReply` abandons the build; anything else is ignored here.
    fn fault_step(&self, step: &mut u64) -> Result<(), Abandon> {
        let op = *step;
        *step += 1;
        if let Some(hook) = &self.fault {
            match hook.fault(FaultSite::Compaction, 0, op) {
                Some(FaultKind::WorkerPanic) => {
                    panic!("injected compaction fault at merge step {op}")
                }
                Some(FaultKind::DropReply) => return Err(Abandon),
                _ => {}
            }
        }
        Ok(())
    }

    /// Exact `|P ∩ Q|` over the live union (runs by implicit counts, delta
    /// by scan) — the `q` the estimator layer's finite-population
    /// correction needs.
    pub fn exact_count(&self, query: &Rect<D>) -> usize {
        let (_, state) = self.pin();
        let mut n: usize = state.runs.iter().map(|r| r.exact_count(query)).sum();
        let mut matched = Vec::new();
        state.delta.scan_matches(0, query, &mut matched);
        n += matched.len();
        n
    }

    /// Opens a composite sampling stream for `query`, pinned to the
    /// current epoch. The stream keeps tracking delta growth *within* its
    /// epoch (that is the live-ingest property); it does not follow
    /// subsequent freezes — reopen to pick up a new epoch.
    pub fn sampler(&self, query: &Rect<D>, mode: SampleMode) -> CompositeSampler<D> {
        let (epoch, state) = self.pin();
        CompositeSampler::open(epoch, state, *query, mode)
    }
}

/// One frozen run's slice of a composite stream.
#[derive(Debug)]
struct RunStream<const D: usize> {
    sampler: FrozenSampler<D>,
    /// `|run ∩ Q|` at open — the component's (fixed) live size.
    original: u64,
    /// Items already emitted from this run (without replacement).
    drawn: u64,
}

impl<const D: usize> RunStream<D> {
    fn remaining(&self) -> u64 {
        self.original - self.drawn
    }
}

/// A sampling stream over the delta+runs union of one pinned epoch.
///
/// Each draw picks a component (each frozen run, or the delta) with
/// probability proportional to its **live** matched size, then draws
/// uniformly within it, so the overall draw is uniform over the union as
/// it stands *at that moment*:
///
/// * **with replacement** — the component pick uses a cached alias
///   selector over live sizes, rebuilt whenever the delta has grown since
///   it was built;
/// * **without replacement** — the selector stays proportional to
///   *original* (open/refresh-time) sizes and a dynamic thinning step
///   accepts a component with probability `remaining/original`, making
///   the effective weight the remaining count (the same
///   static-selector-plus-thinning bookkeeping as [`FrozenSampler`],
///   lifted one level). Newly inserted matches enlarge the delta
///   component's original on the next rebuild, and land in its unemitted
///   region, so they are immediately drawable and never double-emitted.
///
/// Delta matching is incremental: each draw checks the delta's atomic
/// length and scans only the suffix that arrived since the last check. A
/// batch is a loop of such draws, each refreshed; a draw from a run is one
/// [`FrozenSampler`] `next_sample`, charged through that run's per-draw
/// block ledger.
#[derive(Debug)]
pub struct CompositeSampler<const D: usize> {
    epoch: u64,
    state: Arc<EpochState<D>>,
    query: Rect<D>,
    mode: SampleMode,
    runs: Vec<RunStream<D>>,
    /// Delta items matching the query, discovery order. Without
    /// replacement, `matched[..emitted]` is the emitted prefix and draws
    /// swap into position `emitted`; appends land in the unemitted tail.
    matched: Vec<Item<D>>,
    emitted: usize,
    /// Delta prefix already scanned for matches.
    scanned: usize,
    /// Component selector: one weight per run plus the delta last.
    selector: Option<WeightedSelector>,
    /// `matched.len()` when `selector` was built; a mismatch after a scan
    /// triggers a rebuild (the "rebuilt on size change" contract).
    selector_basis: usize,
}

impl<const D: usize> CompositeSampler<D> {
    fn open(epoch: u64, state: Arc<EpochState<D>>, query: Rect<D>, mode: SampleMode) -> Self {
        let runs: Vec<RunStream<D>> = state
            .runs
            .iter()
            .map(|run| {
                let sampler = run.sampler(&query, mode);
                // The opened cone already holds `|run ∩ Q|`; a frozen
                // sampler always reports it.
                let original = sampler.result_size().unwrap_or_default() as u64;
                RunStream {
                    sampler,
                    original,
                    drawn: 0,
                }
            })
            .collect();
        let mut s = CompositeSampler {
            epoch,
            state,
            query,
            mode,
            runs,
            matched: Vec::new(),
            emitted: 0,
            scanned: 0,
            selector: None,
            selector_basis: usize::MAX,
        };
        s.refresh();
        s
    }

    /// The epoch this stream is pinned to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Folds any delta growth into the stream: scans the new suffix for
    /// matches and rebuilds the component selector if the delta
    /// component's size changed.
    fn refresh(&mut self) {
        if self.state.delta.len() > self.scanned {
            self.scanned =
                self.state
                    .delta
                    .scan_matches(self.scanned, &self.query, &mut self.matched);
        }
        if self.selector_basis != self.matched.len() {
            let mut weights: Vec<u64> = self.runs.iter().map(|r| r.original).collect();
            weights.push(self.matched.len() as u64);
            self.selector = WeightedSelector::new(weights, SelectorKind::Alias);
            self.selector_basis = self.matched.len();
        }
    }

    /// Live matched-union size right now (runs fixed + delta matches).
    fn live_total(&self) -> u64 {
        self.runs.iter().map(|r| r.original).sum::<u64>() + self.matched.len() as u64
    }

    /// Unemitted live size (without replacement).
    fn live_remaining(&self) -> u64 {
        self.runs.iter().map(RunStream::remaining).sum::<u64>()
            + (self.matched.len() - self.emitted) as u64
    }

    fn draw_wr(&mut self, rng: &mut dyn Rng) -> Option<Item<D>> {
        let rng = &mut *rng;
        let selector = self.selector.as_ref()?;
        let i = selector.pick(rng);
        match self.runs.get_mut(i) {
            Some(run) => run.sampler.next_sample(rng),
            None => {
                let j = rng.random_range(0..self.matched.len());
                Some(self.matched[j])
            }
        }
    }

    fn draw_wor(&mut self, rng: &mut dyn Rng) -> Option<Item<D>> {
        let rng = &mut *rng;
        loop {
            if self.live_remaining() == 0 {
                return None;
            }
            let selector = self.selector.as_ref()?;
            let i = selector.pick(rng);
            // Dynamic thinning: the selector draws ∝ original size;
            // accepting with probability remaining/original makes the
            // effective component weight its remaining count, i.e. the
            // draw is uniform over the union's unseen items.
            let original = selector.weight(i);
            let rem = match self.runs.get(i) {
                Some(run) => run.remaining(),
                None => (self.matched.len() - self.emitted) as u64,
            };
            if rem == 0 {
                continue;
            }
            if rem < original && rng.random_range(0..original) >= rem {
                continue;
            }
            match self.runs.get_mut(i) {
                Some(run) => match run.sampler.next_sample(rng) {
                    Some(item) => {
                        run.drawn += 1;
                        return Some(item);
                    }
                    None => {
                        // Defensive: our ledger said items remained; trust
                        // the run's own stream and retire the component.
                        run.drawn = run.original;
                        continue;
                    }
                },
                None => {
                    let left = self.matched.len() - self.emitted;
                    let j = self.emitted + rng.random_range(0..left);
                    self.matched.swap(self.emitted, j);
                    let item = self.matched[self.emitted];
                    self.emitted += 1;
                    return Some(item);
                }
            }
        }
    }
}

impl<const D: usize> SpatialSampler<D> for CompositeSampler<D> {
    /// Refreshes before every draw, so each draw is uniform over the union
    /// as it stands at that moment.
    fn next_batch(&mut self, rng: &mut dyn Rng, buf: &mut Vec<Item<D>>, k: usize) -> usize {
        let before = buf.len();
        while buf.len() - before < k {
            self.refresh();
            let item = match self.mode {
                SampleMode::WithReplacement if self.live_total() == 0 => None,
                SampleMode::WithReplacement => self.draw_wr(rng),
                SampleMode::WithoutReplacement => self.draw_wor(rng),
            };
            let Some(item) = item else { break };
            buf.push(item);
        }
        // Delta draws charge no simulated I/O: the delta is the in-memory
        // tier by construction. Run draws charge through each run's own
        // per-draw block ledger (one read per fanout draws, shared
        // `IoStats`).
        buf.len() - before
    }

    fn kind(&self) -> SamplerKind {
        SamplerKind::RsTree
    }

    /// The **live** union cardinality `q = |P ∩ Q|` — grows as matching
    /// inserts land, which is exactly what the estimator layer's
    /// finite-population correction must see for unbiased mid-ingest CIs.
    fn result_size(&self) -> Option<usize> {
        Some(self.live_total() as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use storm_geo::{Point2, Rect2};

    fn grid_items(n: usize) -> Vec<Item<2>> {
        // A √n × √n grid with ids = index, deterministic.
        let side = (n as f64).sqrt().ceil() as usize;
        (0..n)
            .map(|i| {
                let (x, y) = ((i % side) as f64, (i / side) as f64);
                Item::new(Point2::xy(x, y), i as u64)
            })
            .collect()
    }

    fn everything() -> Rect2 {
        Rect2::from_corners(Point2::xy(-1.0, -1.0), Point2::xy(1e9, 1e9))
    }

    #[test]
    fn inserts_accumulate_and_freeze_rolls_runs() {
        let idx = IngestIndex::<2>::new(IngestConfig {
            fanout: 8,
            delta_limit: 100,
            max_runs: 3,
        });
        for item in grid_items(250) {
            idx.insert(item);
        }
        // 250 inserts at limit 100 → two automatic freezes, 50 left over.
        assert_eq!(idx.len(), 250);
        assert_eq!(idx.run_count(), 2);
        assert_eq!(idx.delta_len(), 50);
        assert_eq!(idx.epoch(), 2);
        assert_eq!(idx.exact_count(&everything()), 250);

        let e = idx.minor_freeze().expect("non-empty delta");
        assert_eq!(e, 3);
        assert_eq!(idx.run_count(), 3);
        assert_eq!(idx.delta_len(), 0);
        // Empty delta → freeze is a no-op, epoch unchanged.
        assert_eq!(idx.minor_freeze(), None);
        assert_eq!(idx.epoch(), 3);

        let e = idx.compact().expect("multiple runs");
        assert_eq!(e, 4);
        assert_eq!(idx.run_count(), 1);
        assert_eq!(idx.len(), 250);
        // Single run + empty delta → compact is a no-op.
        assert_eq!(idx.compact(), None);
    }

    #[test]
    fn freeze_beyond_max_runs_merges_in_one_publish() {
        let idx = IngestIndex::<2>::new(IngestConfig {
            fanout: 8,
            delta_limit: 50,
            max_runs: 2,
        });
        for item in grid_items(500) {
            idx.insert(item);
        }
        assert!(idx.run_count() <= 2, "stack depth {}", idx.run_count());
        assert_eq!(idx.len(), 500);
        assert_eq!(idx.exact_count(&everything()), 500);
    }

    #[test]
    fn wor_drains_exactly_the_union() {
        let idx = IngestIndex::<2>::new(IngestConfig {
            fanout: 8,
            delta_limit: 64,
            max_runs: 4,
        });
        let items = grid_items(300);
        for item in &items[..280] {
            idx.insert(*item);
        }
        let mut s = idx.sampler(&everything(), SampleMode::WithoutReplacement);
        let mut rng = StdRng::seed_from_u64(7);
        // Drain half, then insert the rest mid-stream.
        let mut got: Vec<u64> = s.draw(140, &mut rng).iter().map(|i| i.id).collect();
        for item in &items[280..] {
            idx.insert(*item);
        }
        while let Some(item) = s.next_sample(&mut rng) {
            got.push(item.id);
        }
        got.sort_unstable();
        let want: Vec<u64> = (0..300).collect();
        assert_eq!(got, want, "WOR must drain the live union exactly once");
        assert_eq!(s.result_size(), Some(300));
    }

    #[test]
    fn wr_draws_cover_delta_and_runs_proportionally() {
        let idx = IngestIndex::<2>::new(IngestConfig {
            fanout: 8,
            delta_limit: 200,
            max_runs: 4,
        });
        let items = grid_items(400);
        // 200 frozen into a run, 100 left in delta.
        for item in &items[..300] {
            idx.insert(*item);
        }
        assert_eq!((idx.run_count(), idx.delta_len()), (1, 100));
        let mut s = idx.sampler(&everything(), SampleMode::WithReplacement);
        let mut rng = StdRng::seed_from_u64(11);
        let mut delta_hits = 0usize;
        let draws = 30_000;
        for _ in 0..draws {
            let item = s.next_sample(&mut rng).unwrap();
            if item.id >= 200 {
                delta_hits += 1;
            }
        }
        // Delta is 1/3 of the union; allow generous slack (±5 σ ≈ ±0.014).
        let frac = delta_hits as f64 / draws as f64;
        assert!((frac - 1.0 / 3.0).abs() < 0.02, "delta fraction {frac}");
    }

    #[test]
    fn sampler_query_filters_all_tiers() {
        let idx = IngestIndex::<2>::new(IngestConfig {
            fanout: 8,
            delta_limit: 128,
            max_runs: 4,
        });
        for item in grid_items(256) {
            idx.insert(item);
        }
        // Quarter-plane query over the 16×16 grid: x,y ∈ [0,7].
        let q = Rect2::from_corners(Point2::xy(-0.5, -0.5), Point2::xy(7.5, 7.5));
        let expect = idx.exact_count(&q);
        assert!(expect > 0 && expect < 256);
        let mut s = idx.sampler(&q, SampleMode::WithoutReplacement);
        let mut rng = StdRng::seed_from_u64(3);
        let drained = s.draw(1000, &mut rng);
        assert_eq!(drained.len(), expect);
        assert!(drained.iter().all(|i| q.contains_point(&i.point)));
    }

    #[test]
    fn pinned_epoch_survives_freeze() {
        let idx = IngestIndex::<2>::new(IngestConfig {
            fanout: 8,
            delta_limit: 1000,
            max_runs: 4,
        });
        for item in grid_items(100) {
            idx.insert(item);
        }
        let mut s = idx.sampler(&everything(), SampleMode::WithoutReplacement);
        // Freeze after the stream opened: the stream's pinned delta stops
        // growing (inserts go to the new epoch) but stays fully drainable.
        idx.minor_freeze().expect("delta had items");
        for item in grid_items(150).into_iter().skip(100) {
            idx.insert(item);
        }
        let mut rng = StdRng::seed_from_u64(5);
        let mut ids: Vec<u64> = s.draw(1000, &mut rng).iter().map(|i| i.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..100).collect::<Vec<u64>>());
        // A fresh stream sees the post-freeze world.
        let mut s2 = idx.sampler(&everything(), SampleMode::WithoutReplacement);
        assert_eq!(s2.draw(1000, &mut rng).len(), 150);
    }

    #[test]
    fn mid_stream_inserts_are_uniformly_represented() {
        // Chi-square over the union while half the items arrive mid-draw:
        // tallies of WR draws after all inserts landed must be uniform.
        // The delta limit stays above the insert volume so the stream's
        // pinned epoch is the one the writer lands in (a stream never
        // follows a freeze — that is the epoch-pinning contract).
        for seed in [1u64, 2, 3] {
            let idx = IngestIndex::<2>::new(IngestConfig {
                fanout: 8,
                delta_limit: 10_000,
                max_runs: 3,
            });
            let n = 200usize;
            let items = grid_items(n);
            for item in &items[..n / 2] {
                idx.insert(*item);
            }
            // Roll the first half into a frozen run; the second half will
            // land in the (pinned) delta while the stream is open.
            idx.minor_freeze().expect("non-empty delta");
            let mut s = idx.sampler(&everything(), SampleMode::WithReplacement);
            let mut rng = StdRng::seed_from_u64(seed);
            // Interleave: draw a bit (warms caches), insert the rest.
            let _ = s.draw(500, &mut rng);
            for item in &items[n / 2..] {
                idx.insert(*item);
            }
            let mut tallies = vec![0u64; n];
            for _ in 0..n * 200 {
                let item = s.next_sample(&mut rng).unwrap();
                tallies[item.id as usize] += 1;
            }
            storm_testkit::assert_uniform(&tallies, &format!("mid-ingest WR seed {seed}"));
        }
    }

    #[test]
    fn compaction_panic_leaves_old_epoch_intact() {
        use storm_faultkit::StepFault;
        for step in 0..8 {
            let idx = IngestIndex::<2>::new(IngestConfig {
                fanout: 8,
                delta_limit: 10_000,
                max_runs: 8,
            })
            .with_fault_hook(Arc::new(StepFault::at_compaction_step(
                step,
                FaultKind::WorkerPanic,
            )));
            for item in grid_items(120) {
                idx.insert(item);
            }
            let before = (idx.epoch(), idx.len(), idx.run_count(), idx.delta_len());
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| idx.minor_freeze()));
            match r {
                Ok(Some(_)) => {
                    // Steps past the build's length never fired: published.
                    assert_eq!(idx.run_count(), 1);
                    assert_eq!(idx.delta_len(), 0);
                }
                Ok(None) => panic!("delta was non-empty"),
                Err(_) => {
                    // Crashed mid-build: nothing torn, nothing lost.
                    let after = (idx.epoch(), idx.len(), idx.run_count(), idx.delta_len());
                    assert_eq!(before, after, "torn state after crash at step {step}");
                    // And the index still works.
                    assert_eq!(idx.exact_count(&everything()), 120);
                }
            }
        }
    }
}
