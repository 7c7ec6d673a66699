//! The RS-tree: a sample-buffered Hilbert R-tree.

use std::collections::{HashMap, HashSet};

use rand::seq::SliceRandom;
use rand::{Rng, RngExt};
use storm_geo::{Point, Rect};
use storm_rtree::{
    BulkMethod, CanonicalPart, IoStats, Item, NodeId, RTree, RTreeConfig, UpdateEvent,
};

use crate::weighted::{SelectorKind, WeightedSelector};
use crate::{SampleMode, SamplerKind, SpatialSampler};

/// Tuning for the [`RsTree`].
#[derive(Debug, Clone, Copy)]
pub struct RsTreeConfig {
    /// Configuration of the underlying Hilbert R-tree.
    pub rtree: RTreeConfig,
    /// Target size of each node's sample buffer `S(u)` (one block's worth
    /// by default, so reading a buffer costs one I/O like any node).
    pub buffer_size: usize,
    /// Part-selection algorithm over the canonical set.
    pub selector: SelectorKind,
    /// Subtrees at or below this count are materialised whole on refill
    /// instead of sampled by repeated descent.
    pub small_subtree: usize,
}

impl Default for RsTreeConfig {
    fn default() -> Self {
        let rtree = RTreeConfig::default();
        RsTreeConfig {
            rtree,
            buffer_size: rtree.max_entries,
            selector: SelectorKind::default(),
            small_subtree: rtree.max_entries * 4,
        }
    }
}

impl RsTreeConfig {
    /// Config with a given R-tree fanout; buffers sized to one block.
    pub fn with_fanout(fanout: usize) -> Self {
        let rtree = RTreeConfig::with_fanout(fanout);
        RsTreeConfig {
            rtree,
            buffer_size: fanout,
            selector: SelectorKind::default(),
            small_subtree: fanout * 4,
        }
    }
}

/// The second ST-indexing structure of paper §3.1: a **single Hilbert
/// R-tree** over `P` where each node `u` carries a buffer `S(u)` of random
/// samples of `P(u)`, integrating the paper's three ideas:
///
/// * **Sample buffering** — `S(u)` is consumed by queries and replenished
///   by count-weighted descent, so most samples cost one block read;
/// * **Lazy exploration** — per-node counts let the sampler decide *how
///   many* samples each canonical subtree owes without opening it;
/// * **Acceptance/rejection sampling** — canonical parts are drawn
///   proportional to `|P(u)|` with A/R (or the alias method), so large
///   subtrees are located quickly and small ones are rarely explored.
///
/// Buffer entries deplete across queries — by design: consuming
/// precomputed randomness is what makes successive queries' samples
/// independent of each other (the inter-query independence property of
/// Hu et al. [8] that the paper cites).
///
/// Ad-hoc updates keep every surviving buffer a uniform sample of its
/// subtree: inserts perform a reservoir replacement along the update path,
/// deletes evict the removed record, and splits/frees drop the affected
/// buffers (they are rebuilt lazily on next use).
#[derive(Debug)]
pub struct RsTree<const D: usize> {
    pub(crate) tree: RTree<D>,
    pub(crate) buffers: HashMap<NodeId, Vec<Item<D>>>,
    pub(crate) cfg: RsTreeConfig,
    /// Mutation counter driving the sampled debug audit cadence.
    #[cfg(debug_assertions)]
    audit_ops: u64,
    /// Refill scratch (descent frontier), reused across buffer refills so
    /// the hot path allocates nothing after warm-up.
    scratch_stack: Vec<NodeId>,
    /// Refill scratch (distinct-draw dedup set), reused across refills.
    scratch_ids: HashSet<u64>,
}

impl<const D: usize> RsTree<D> {
    /// Bulk loads the Hilbert R-tree; buffers are created lazily on first
    /// use (call [`RsTree::prefill`] to precompute them instead).
    pub fn bulk_load(items: Vec<Item<D>>, cfg: RsTreeConfig) -> Self {
        RsTree {
            tree: RTree::bulk_load(items, cfg.rtree, BulkMethod::Hilbert),
            buffers: HashMap::new(),
            cfg,
            #[cfg(debug_assertions)]
            audit_ops: 0,
            scratch_stack: Vec::new(),
            scratch_ids: HashSet::new(),
        }
    }

    /// Debug-build audit: re-validates tree and buffers after a mutation
    /// (every mutation while small, sampled once the tree grows — see
    /// [`crate::validate`]). Release builds compile this to nothing.
    #[inline]
    fn debug_audit(&mut self) {
        #[cfg(debug_assertions)]
        {
            self.audit_ops = self.audit_ops.wrapping_add(1);
            if self.len() <= crate::validate::AUDIT_EVERY_OP_LIMIT
                || self
                    .audit_ops
                    .is_multiple_of(crate::validate::AUDIT_SAMPLE_PERIOD)
            {
                debug_assert_eq!(
                    crate::validate::check_rs_tree(self),
                    Ok(()),
                    "RS-tree invariant audit failed after mutation {}",
                    self.audit_ops
                );
            }
        }
    }

    /// Number of data points.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True when no points are stored.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// The underlying R-tree (read-only).
    pub fn tree(&self) -> &RTree<D> {
        &self.tree
    }

    /// The simulated-I/O counter.
    pub fn io(&self) -> &IoStats {
        self.tree.io()
    }

    /// A shared handle to the I/O counter.
    pub fn io_handle(&self) -> std::sync::Arc<IoStats> {
        self.tree.io_handle()
    }

    /// Exact `|P ∩ Q|` from aggregate counts.
    pub fn exact_count(&self, query: &Rect<D>) -> usize {
        self.tree.count_in(query)
    }

    /// Number of nodes currently holding a non-empty buffer.
    pub fn buffered_nodes(&self) -> usize {
        self.buffers.values().filter(|b| !b.is_empty()).count()
    }

    /// Eagerly fills the sample buffer of every inner node (the
    /// construction-time behaviour of the paper's RS-tree, where `S(u)` is
    /// computed from the canonical cover of `u` at build time).
    pub fn prefill(&mut self, rng: &mut dyn Rng) {
        let Some(root) = self.tree.root_id() else {
            return;
        };
        let empty = HashSet::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            let needs_fill = {
                // storm-analyzer: allow(A8): one-time prefill walk at build, not the per-draw kernel
                let view = self.tree.view_free_of_charge(id);
                stack.extend(view.children());
                view.count > self.cfg.small_subtree
            };
            if needs_fill {
                let mut buf = self.buffers.remove(&id).unwrap_or_default();
                self.fill_buffer_into(id, rng, &empty, &mut buf);
                self.buffers.insert(id, buf);
            }
        }
    }

    /// Inserts a point, maintaining buffers along the way (reservoir
    /// replacement on the insertion path, eviction on splits).
    pub fn insert(&mut self, item: Item<D>, rng: &mut dyn Rng) {
        let mut events = Vec::new();
        self.tree.insert_with(item, &mut |e| events.push(e));
        self.apply_events(&events, Some(item), None, rng);
        self.debug_audit();
    }

    /// Removes a point, evicting it from any buffer that holds it.
    pub fn remove(&mut self, point: &Point<D>, id: u64, rng: &mut dyn Rng) -> bool {
        let mut events = Vec::new();
        let removed = self.tree.remove_with(point, id, &mut |e| events.push(e));
        if removed {
            self.apply_events(&events, None, Some(id), rng);
            self.debug_audit();
        }
        removed
    }

    fn apply_events(
        &mut self,
        events: &[UpdateEvent],
        inserted: Option<Item<D>>,
        removed: Option<u64>,
        rng: &mut dyn Rng,
    ) {
        let rng = &mut *rng;
        for &event in events {
            match event {
                UpdateEvent::Gained(u) => {
                    if !self.tree.is_live(u) {
                        continue;
                    }
                    let Some(item) = inserted else { continue };
                    // storm-analyzer: allow(A8): update/maintenance path, not the per-draw kernel
                    let n = self.tree.view_free_of_charge(u).count as u64;
                    if let Some(buf) = self.buffers.get_mut(&u) {
                        if buf.is_empty() || buf.iter().any(|b| b.id == item.id) {
                            continue;
                        }
                        // Reservoir: keep `S(u)` a uniform |buf|-sample of
                        // the grown subtree.
                        if n > 0 && rng.random_range(0..n) < buf.len() as u64 {
                            let victim = rng.random_range(0..buf.len());
                            buf[victim] = item;
                        }
                    }
                }
                UpdateEvent::Lost(u) => {
                    let Some(id) = removed else { continue };
                    if let Some(buf) = self.buffers.get_mut(&u) {
                        buf.retain(|b| b.id != id);
                    }
                }
                UpdateEvent::Split { from, new } => {
                    self.buffers.remove(&from);
                    self.buffers.remove(&new);
                }
                UpdateEvent::Freed(u) => {
                    self.buffers.remove(&u);
                }
            }
        }
    }

    /// Pops one not-yet-`seen` sample of `P(u)`, refilling `S(u)` when dry.
    ///
    /// Reading the buffer is charged as one block access; refills charge
    /// their descent/materialisation reads through the tree.
    fn pop_from_node(
        &mut self,
        u: NodeId,
        rng: &mut dyn Rng,
        seen: &HashSet<u64>,
    ) -> Option<Item<D>> {
        self.tree.io().record_reads(1);
        loop {
            match self.buffers.entry(u).or_default().pop() {
                Some(item) if !seen.contains(&item.id) => return Some(item),
                Some(_) => continue, // consumed stale entry
                None => {
                    // Refill in place, reusing the drained vector's
                    // allocation.
                    let mut fresh = self.buffers.remove(&u).unwrap_or_default();
                    self.fill_buffer_into(u, rng, seen, &mut fresh);
                    if fresh.is_empty() {
                        return None;
                    }
                    self.buffers.insert(u, fresh);
                }
            }
        }
    }

    /// Pops up to `n` not-yet-`seen` samples of `P(u)` into `out`, marking
    /// each popped id as seen. Returns how many were appended.
    ///
    /// This is the batched analogue of [`RsTree::pop_from_node`]: the whole
    /// run over one buffer costs a single block read (plus one per refill),
    /// instead of one read per popped sample — the I/O amortisation that
    /// makes `next_batch` worth having.
    fn pop_many_from_node(
        &mut self,
        u: NodeId,
        n: usize,
        rng: &mut dyn Rng,
        seen: &mut HashSet<u64>,
        out: &mut Vec<Item<D>>,
    ) -> usize {
        if n == 0 {
            return 0;
        }
        self.tree.io().record_reads(1);
        let mut got = 0;
        while got < n {
            match self.buffers.entry(u).or_default().pop() {
                Some(item) if !seen.contains(&item.id) => {
                    seen.insert(item.id);
                    out.push(item);
                    got += 1;
                }
                Some(_) => continue, // consumed stale entry
                None => {
                    let mut fresh = self.buffers.remove(&u).unwrap_or_default();
                    self.fill_buffer_into(u, rng, seen, &mut fresh);
                    if fresh.is_empty() {
                        break;
                    }
                    // The refilled buffer is another block to read.
                    self.tree.io().record_reads(1);
                    self.buffers.insert(u, fresh);
                }
            }
        }
        got
    }

    /// Builds a fresh buffer for `u` into `buf` (cleared first): small
    /// subtrees are materialised in full; large ones are sampled by
    /// repeated count-weighted descent. Entries are distinct, exclude
    /// `seen`, and arrive pre-shuffled. The caller's vector and the tree's
    /// scratch frontier/dedup set are reused, so steady-state refills do
    /// not allocate.
    fn fill_buffer_into(
        &mut self,
        u: NodeId,
        rng: &mut dyn Rng,
        seen: &HashSet<u64>,
        buf: &mut Vec<Item<D>>,
    ) {
        let rng = &mut *rng;
        buf.clear();
        let count = self.tree.visit(u).count;
        if count <= self.cfg.small_subtree {
            self.materialise_unseen_into(u, seen, buf);
            buf.shuffle(rng);
        } else {
            buf.reserve(self.cfg.buffer_size);
            let mut in_buf = std::mem::take(&mut self.scratch_ids);
            in_buf.clear();
            // Distinct draws get rare only when the buffer approaches the
            // subtree size; `small_subtree >= 4 * buffer_size` keeps the
            // collision rate below 25%, so a modest attempt cap suffices.
            let max_attempts = self.cfg.buffer_size * 8;
            for _ in 0..max_attempts {
                if buf.len() >= self.cfg.buffer_size {
                    break;
                }
                let Some(item) = self.descend_uniform(u, rng) else {
                    break;
                };
                if !seen.contains(&item.id) && in_buf.insert(item.id) {
                    buf.push(item);
                }
            }
            self.scratch_ids = in_buf;
            if buf.is_empty() {
                // A large subtree consumed to its tail rejects nearly every
                // descent; the attempt cap alone would end the stream with
                // unseen points still inside (breaking WOR completeness).
                // Fall back to the exact walk — it only runs when the
                // rejection path has already proven the tail is tiny.
                self.materialise_unseen_into(u, seen, buf);
                buf.shuffle(rng);
            }
        }
    }

    /// Collects every not-yet-`seen` point of `P(u)` into `buf` by walking
    /// the whole subtree (exact; used for small subtrees and as the
    /// completeness fallback for consumed large ones).
    fn materialise_unseen_into(&mut self, u: NodeId, seen: &HashSet<u64>, buf: &mut Vec<Item<D>>) {
        let mut stack = std::mem::take(&mut self.scratch_stack);
        stack.clear();
        stack.push(u);
        while let Some(id) = stack.pop() {
            // storm-analyzer: allow(A8): WOR tail materialisation walks each subtree node once and charges that read deliberately
            let view = self.tree.visit(id);
            if view.is_leaf() {
                buf.extend(view.items().iter().filter(|it| !seen.contains(&it.id)));
            } else {
                stack.extend(view.children());
            }
        }
        self.scratch_stack = stack;
    }

    /// Exact uniform draw from `P(u)` by count-weighted root-to-leaf
    /// descent (no query restriction needed: canonical nodes are fully
    /// inside `Q`).
    /// Returns `None` only if the count invariants are broken (an empty
    /// leaf or child counts not summing to the node count) — conditions
    /// [`crate::validate`] audits in debug builds.
    fn descend_uniform(&self, u: NodeId, rng: &mut dyn Rng) -> Option<Item<D>> {
        let rng = &mut *rng;
        let mut id = u;
        loop {
            // storm-analyzer: allow(A8): boxed mutable-tree descent; the frozen kernel replaces this for read-mostly streams
            let view = self.tree.visit(id);
            if view.is_leaf() {
                let items = view.items();
                if items.is_empty() {
                    return None;
                }
                return items.get(rng.random_range(0..items.len())).copied();
            }
            let total = view.count as u64;
            let mut target = rng.random_range(0..total);
            let mut next = None;
            for &c in view.children() {
                // storm-analyzer: allow(A8): boxed mutable-tree descent; the frozen kernel replaces this for read-mostly streams
                let cnt = self.tree.view_free_of_charge(c).count as u64;
                if target < cnt {
                    next = Some(c);
                    break;
                }
                target -= cnt;
            }
            id = next?;
        }
    }

    /// Opens a sampling stream for `query`.
    ///
    /// The stream borrows the RS-tree mutably because it consumes buffer
    /// entries — precomputed randomness is spent, never reused, which is
    /// what makes samples independent across queries.
    pub fn sampler(&mut self, query: Rect<D>, mode: SampleMode) -> RsSampler<'_, D> {
        let canonical = self.tree.canonical_set(&query);
        let mut parts = Vec::with_capacity(canonical.parts.len());
        let mut weights = Vec::with_capacity(canonical.parts.len());
        for part in canonical.parts {
            match part {
                CanonicalPart::Node { id, count } => {
                    parts.push(Part::Node(id));
                    weights.push(count as u64);
                }
                CanonicalPart::Item(item) => {
                    parts.push(Part::Single(item));
                    weights.push(1);
                }
            }
        }
        // The selector takes the weight vector by value — no per-query
        // clone. Only the without-replacement stream needs a second,
        // mutable copy (the remaining counts); with-replacement queries
        // skip it entirely.
        let selector = WeightedSelector::new(weights, self.cfg.selector);
        let remaining = match (mode, &selector) {
            (SampleMode::WithoutReplacement, Some(s)) => s.weights().to_vec(),
            _ => Vec::new(),
        };
        RsSampler {
            rs: self,
            mode,
            parts,
            remaining,
            total_remaining: canonical.total as u64,
            total: canonical.total,
            selector,
            seen: HashSet::new(),
            batch_seq: Vec::new(),
            batch_groups: Vec::new(),
            batch_index: HashMap::new(),
            batch_pop: Vec::new(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Part<const D: usize> {
    Node(NodeId),
    Single(Item<D>),
}

/// One part's slice of a batched draw: how many samples the block owes the
/// part, where its popped items start in the batch scratch, how many were
/// actually delivered, and how many the merge has consumed.
#[derive(Debug, Clone, Copy)]
struct BatchGroup {
    part: usize,
    need: usize,
    start: usize,
    len: usize,
    cursor: usize,
}

/// The RS-tree's online sample stream for one query.
#[derive(Debug)]
pub struct RsSampler<'a, const D: usize> {
    rs: &'a mut RsTree<D>,
    mode: SampleMode,
    parts: Vec<Part<D>>,
    /// Unemitted points left in each part (without-replacement only; empty
    /// for with-replacement streams, which never consume counts).
    remaining: Vec<u64>,
    total_remaining: u64,
    total: usize,
    selector: Option<WeightedSelector>,
    seen: HashSet<u64>,
    /// Batch scratch: the drawn part sequence (as `batch_groups` indices),
    /// reused across `next_batch` calls.
    batch_seq: Vec<usize>,
    /// Batch scratch: per-part tallies for the current block.
    batch_groups: Vec<BatchGroup>,
    /// Batch scratch: part index → `batch_groups` slot for the current
    /// block.
    batch_index: HashMap<usize, usize>,
    /// Batch scratch: items popped for the current block, grouped by part.
    batch_pop: Vec<Item<D>>,
}

impl<const D: usize> SpatialSampler<D> for RsSampler<'_, D> {
    fn next_sample(&mut self, rng: &mut dyn Rng) -> Option<Item<D>> {
        let selector = self.selector.as_ref()?;
        let rng2 = &mut *rng;
        match self.mode {
            SampleMode::WithReplacement => {
                // Independent draws: part ∝ count, then an exact uniform
                // element of the part (descent; buffers are not consumed so
                // repeated draws stay independent).
                let i = selector.pick(rng2);
                match self.parts[i] {
                    Part::Single(item) => Some(item),
                    Part::Node(u) => self.rs.descend_uniform(u, rng2),
                }
            }
            SampleMode::WithoutReplacement => {
                let mut spins = 0u64;
                loop {
                    spins += 1;
                    assert!(
                        spins <= 100_000_000,
                        "RS-tree WOR sampling failed to make progress \
                         (remaining {} of {}; {} parts)",
                        self.total_remaining,
                        self.total,
                        self.parts.len()
                    );
                    if self.total_remaining == 0 {
                        return None;
                    }
                    let i = selector.pick(rng2);
                    // Dynamic thinning: the static selector draws ∝ the
                    // original count; accepting with probability
                    // remaining/original makes the effective weight the
                    // *remaining* count, which is what keeps the stream
                    // uniform over the unseen points.
                    let original = selector.weight(i);
                    let rem = self.remaining[i];
                    if rem == 0 {
                        continue;
                    }
                    if rem < original && rng2.random_range(0..original) >= rem {
                        continue;
                    }
                    let item = match self.parts[i] {
                        Part::Single(item) => item,
                        Part::Node(u) => match self.rs.pop_from_node(u, rng2, &self.seen) {
                            Some(item) => item,
                            None => {
                                // Defensive: bookkeeping says points remain
                                // but the subtree is exhausted (possible
                                // when a refill's distinct-draw attempt cap
                                // is hit on a nearly-consumed subtree).
                                self.total_remaining -= self.remaining[i];
                                self.remaining[i] = 0;
                                continue;
                            }
                        },
                    };
                    self.remaining[i] -= 1;
                    self.total_remaining -= 1;
                    self.seen.insert(item.id);
                    return Some(item);
                }
            }
        }
    }

    /// Batched draw: groups the block's work by canonical part so each
    /// part's samples are popped in one run (one buffer-block read per run
    /// instead of one per sample), then merges the runs back in draw order.
    ///
    /// Distribution equivalence with `k × next_sample`: phase 1 draws the
    /// *part sequence* with exactly the sequential bookkeeping (static
    /// selector + dynamic thinning + remaining-count decrements), consuming
    /// the same decisions a one-at-a-time loop would make. Conditioned on
    /// that sequence, without-replacement pops within one part are uniform
    /// over its remaining points, so popping them grouped and re-ordering by
    /// the drawn sequence yields the same joint distribution as interleaved
    /// draw-then-pop.
    fn next_batch(&mut self, rng: &mut dyn Rng, buf: &mut Vec<Item<D>>, k: usize) -> usize {
        let Some(selector) = self.selector.as_ref() else {
            return 0;
        };
        let rng = &mut *rng;
        let before = buf.len();
        match self.mode {
            SampleMode::WithReplacement => {
                // Independent draws; nothing to merge. The win over
                // next_sample is the hoisted selector borrow and the
                // caller's reused buffer.
                buf.reserve(k);
                for _ in 0..k {
                    let i = selector.pick(rng);
                    match self.parts[i] {
                        Part::Single(item) => buf.push(item),
                        Part::Node(u) => {
                            if let Some(item) = self.rs.descend_uniform(u, rng) {
                                buf.push(item);
                            }
                        }
                    }
                }
            }
            SampleMode::WithoutReplacement => {
                let mut seq = std::mem::take(&mut self.batch_seq);
                let mut groups = std::mem::take(&mut self.batch_groups);
                let mut index = std::mem::take(&mut self.batch_index);
                let mut pop = std::mem::take(&mut self.batch_pop);
                // A pop run can under-deliver (attempt-capped refill on a
                // nearly-consumed subtree zeroes the part); retry whole
                // blocks until the budget is met or the stream truly ends.
                while buf.len() - before < k && self.total_remaining > 0 {
                    let want = k - (buf.len() - before);
                    seq.clear();
                    groups.clear();
                    index.clear();
                    pop.clear();
                    // Phase 1: draw the part sequence with the sequential
                    // stream's exact bookkeeping.
                    let mut spins = 0u64;
                    while seq.len() < want && self.total_remaining > 0 {
                        spins += 1;
                        assert!(
                            spins <= 100_000_000,
                            "RS-tree batched WOR sampling failed to make \
                             progress (remaining {} of {}; {} parts)",
                            self.total_remaining,
                            self.total,
                            self.parts.len()
                        );
                        let i = selector.pick(rng);
                        let original = selector.weight(i);
                        let rem = self.remaining[i];
                        if rem == 0 {
                            continue;
                        }
                        if rem < original && rng.random_range(0..original) >= rem {
                            continue;
                        }
                        self.remaining[i] -= 1;
                        self.total_remaining -= 1;
                        let slot = *index.entry(i).or_insert_with(|| {
                            groups.push(BatchGroup {
                                part: i,
                                need: 0,
                                start: 0,
                                len: 0,
                                cursor: 0,
                            });
                            groups.len() - 1
                        });
                        groups[slot].need += 1;
                        seq.push(slot);
                    }
                    // Phase 2: pop each group's owed samples in one run.
                    for g in groups.iter_mut() {
                        g.start = pop.len();
                        match self.parts[g.part] {
                            Part::Single(item) => {
                                // Weight 1 ⇒ thinning admits it at most
                                // once per stream, so need == 1 here.
                                self.seen.insert(item.id);
                                pop.push(item);
                                g.len = 1;
                            }
                            Part::Node(u) => {
                                g.len = self.rs.pop_many_from_node(
                                    u,
                                    g.need,
                                    rng,
                                    &mut self.seen,
                                    &mut pop,
                                );
                                if g.len < g.need {
                                    // Subtree exhausted despite the counts:
                                    // same defensive zeroing as the
                                    // sequential stream.
                                    self.total_remaining -= self.remaining[g.part];
                                    self.remaining[g.part] = 0;
                                }
                            }
                        }
                    }
                    // Phase 3: merge the runs back in drawn order.
                    for &slot in &seq {
                        let g = &mut groups[slot];
                        if g.cursor < g.len {
                            buf.push(pop[g.start + g.cursor]);
                            g.cursor += 1;
                        }
                    }
                }
                self.batch_seq = seq;
                self.batch_groups = groups;
                self.batch_index = index;
                self.batch_pop = pop;
            }
        }
        buf.len() - before
    }

    fn kind(&self) -> SamplerKind {
        SamplerKind::RsTree
    }

    fn result_size(&self) -> Option<usize> {
        Some(self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use storm_geo::{Point2, Rect2};

    fn grid_items(n: usize) -> Vec<Item<2>> {
        (0..n)
            .map(|i| Item::new(Point2::xy((i % 100) as f64, (i / 100) as f64), i as u64))
            .collect()
    }

    fn rs(n: usize) -> RsTree<2> {
        RsTree::bulk_load(grid_items(n), RsTreeConfig::with_fanout(16))
    }

    #[test]
    fn result_size_is_exact() {
        let mut t = rs(5000);
        let q = Rect2::from_corners(Point2::xy(10.0, 5.0), Point2::xy(60.0, 30.0));
        let expected = t.tree().query(&q).len();
        let s = t.sampler(q, SampleMode::WithoutReplacement);
        assert_eq!(s.result_size(), Some(expected));
    }

    #[test]
    fn without_replacement_is_a_permutation() {
        let mut t = rs(3000);
        let q = Rect2::from_corners(Point2::xy(7.0, 3.0), Point2::xy(55.0, 21.0));
        let expected: std::collections::HashSet<u64> =
            t.tree().query(&q).iter().map(|i| i.id).collect();
        let mut s = t.sampler(q, SampleMode::WithoutReplacement);
        let mut rng = StdRng::seed_from_u64(1);
        let mut got = std::collections::HashSet::new();
        while let Some(item) = s.next_sample(&mut rng) {
            assert!(q.contains_point(&item.point));
            assert!(got.insert(item.id), "duplicate {}", item.id);
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn batched_wor_is_exactly_the_result_set() {
        // The batched kernel must cover P ∩ Q exactly, like the
        // one-at-a-time stream, for every block size.
        for (seed, k) in [(11u64, 1usize), (12, 7), (13, 64), (14, 256)] {
            let mut t = rs(3000);
            let q = Rect2::from_corners(Point2::xy(7.0, 3.0), Point2::xy(55.0, 21.0));
            let expected: std::collections::HashSet<u64> =
                t.tree().query(&q).iter().map(|i| i.id).collect();
            let mut s = t.sampler(q, SampleMode::WithoutReplacement);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut got = std::collections::HashSet::new();
            let mut buf = Vec::new();
            loop {
                buf.clear();
                if s.next_batch(&mut rng, &mut buf, k) == 0 {
                    break;
                }
                for item in &buf {
                    assert!(q.contains_point(&item.point));
                    assert!(got.insert(item.id), "k={k}: duplicate {}", item.id);
                }
            }
            assert_eq!(got.len(), expected.len(), "k={k}");
            assert_eq!(got, expected, "k={k}");
        }
    }

    #[test]
    fn batched_wr_draws_are_uniform() {
        // Chi-square: WR samples drawn through the batched kernel keep the
        // one-at-a-time stream's uniform-over-P∩Q distribution (batching
        // only reorders the bookkeeping, never the draws).
        let items = grid_items(400);
        let q = Rect2::from_corners(Point2::xy(0.0, 0.0), Point2::xy(19.0, 1.0));
        let mut t = RsTree::bulk_load(items, RsTreeConfig::with_fanout(8));
        let mut rng = StdRng::seed_from_u64(21);
        let mut s = t.sampler(q, SampleMode::WithReplacement);
        let mut counts = std::collections::HashMap::new();
        let trials = 20_000usize;
        let mut drawn = 0usize;
        let mut buf = Vec::new();
        while drawn < trials {
            buf.clear();
            assert!(s.next_batch(&mut rng, &mut buf, 128.min(trials - drawn)) > 0);
            for item in &buf {
                *counts.entry(item.id).or_insert(0usize) += 1;
            }
            drawn += buf.len();
        }
        let q_size = 40;
        assert_eq!(counts.len(), q_size);
        let expected = trials as f64 / q_size as f64;
        let chi: f64 = counts
            .values()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        // chi² 39 dof, p=0.001 critical ≈ 72.05.
        assert!(chi < 72.05, "chi² = {chi}");
    }

    #[test]
    fn with_replacement_streams_independently() {
        let mut t = rs(1000);
        let q = Rect2::everything();
        let mut s = t.sampler(q, SampleMode::WithReplacement);
        let mut rng = StdRng::seed_from_u64(2);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..500 {
            let item = s.next_sample(&mut rng).unwrap();
            distinct.insert(item.id);
        }
        // Birthday bound: 500 WR draws from 1000 should repeat sometimes
        // but cover a lot.
        assert!(distinct.len() > 300 && distinct.len() < 500);
    }

    #[test]
    fn empty_query_returns_none() {
        let mut t = rs(500);
        let q = Rect2::from_corners(Point2::xy(1e6, 1e6), Point2::xy(1e6 + 1.0, 1e6 + 1.0));
        let mut s = t.sampler(q, SampleMode::WithoutReplacement);
        let mut rng = StdRng::seed_from_u64(3);
        assert!(s.next_sample(&mut rng).is_none());
        assert_eq!(s.result_size(), Some(0));
    }

    #[test]
    fn first_sample_is_uniform_over_the_result() {
        // Chi-square over the first emitted sample across many queries on a
        // fresh tree each time (buffers consumed across repeats would skew
        // *which entries* come first but not their distribution; fresh
        // trees isolate the per-query guarantee).
        let items = grid_items(400);
        let q = Rect2::from_corners(Point2::xy(0.0, 0.0), Point2::xy(19.0, 1.0));
        let mut rng = StdRng::seed_from_u64(4);
        let mut counts = std::collections::HashMap::new();
        let trials = 20_000;
        for _ in 0..trials {
            let mut t = RsTree::bulk_load(items.clone(), RsTreeConfig::with_fanout(8));
            let mut s = t.sampler(q, SampleMode::WithoutReplacement);
            let item = s.next_sample(&mut rng).unwrap();
            *counts.entry(item.id).or_insert(0usize) += 1;
        }
        let q_size = 40;
        assert_eq!(counts.len(), q_size);
        let expected = trials as f64 / q_size as f64;
        let chi: f64 = counts
            .values()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        // chi² 39 dof, p=0.001 critical ≈ 72.05.
        assert!(chi < 72.05, "chi² = {chi}");
    }

    #[test]
    fn buffers_amortise_io_across_queries() {
        let mut t = rs(100_000);
        let q = Rect2::from_corners(Point2::xy(0.0, 0.0), Point2::xy(99.0, 600.0));
        let mut rng = StdRng::seed_from_u64(5);
        // First query pays for refills.
        t.io().reset();
        let mut s = t.sampler(q, SampleMode::WithoutReplacement);
        for _ in 0..32 {
            s.next_sample(&mut rng).unwrap();
        }
        drop(s);
        let first = t.io().reads();
        // Second identical query mostly rides the buffers.
        t.io().reset();
        let mut s = t.sampler(q, SampleMode::WithoutReplacement);
        for _ in 0..32 {
            s.next_sample(&mut rng).unwrap();
        }
        drop(s);
        let second = t.io().reads();
        assert!(
            second < first,
            "second query ({second}) should be cheaper than first ({first})"
        );
    }

    #[test]
    fn prefill_builds_buffers_up_front() {
        let mut t = rs(20_000);
        assert_eq!(t.buffered_nodes(), 0);
        let mut rng = StdRng::seed_from_u64(6);
        t.prefill(&mut rng);
        assert!(t.buffered_nodes() > 0);
        // Prefilled queries need almost no descent I/O.
        let q = Rect2::from_corners(Point2::xy(0.0, 0.0), Point2::xy(99.0, 150.0));
        t.io().reset();
        let mut s = t.sampler(q, SampleMode::WithoutReplacement);
        for _ in 0..16 {
            s.next_sample(&mut rng).unwrap();
        }
        drop(s);
        let reads = t.io().reads();
        assert!(reads < 200, "prefilled sampling cost {reads} reads");
    }

    #[test]
    fn updates_keep_the_stream_correct() {
        let mut t = rs(2000);
        let mut rng = StdRng::seed_from_u64(7);
        t.prefill(&mut rng);
        let q = Rect2::from_corners(Point2::xy(0.0, 0.0), Point2::xy(15.0, 10.0));
        // Delete everything in Q, insert 7 fresh points.
        for it in t.tree().query(&q) {
            assert!(t.remove(&it.point, it.id, &mut rng));
        }
        for j in 0..7u64 {
            t.insert(
                Item::new(Point2::xy(2.0 + j as f64, 3.0), 900_000 + j),
                &mut rng,
            );
        }
        let mut s = t.sampler(q, SampleMode::WithoutReplacement);
        let mut got = std::collections::HashSet::new();
        while let Some(item) = s.next_sample(&mut rng) {
            got.insert(item.id);
        }
        let expected: std::collections::HashSet<u64> = (0..7).map(|j| 900_000 + j).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn reservoir_keeps_buffers_fresh_under_inserts() {
        // Insert a block of new points; the root buffer should eventually
        // contain some of them (reservoir property), without rebuilding.
        let mut t = rs(4000);
        let mut rng = StdRng::seed_from_u64(8);
        t.prefill(&mut rng);
        let root = t.tree().root_id().unwrap();
        for j in 0..4000u64 {
            t.insert(
                Item::new(
                    Point2::xy((j % 100) as f64 + 0.5, (j / 100) as f64 + 0.5),
                    500_000 + j,
                ),
                &mut rng,
            );
        }
        // Root may have split; find the current root's buffer.
        let root_now = t.tree().root_id().unwrap();
        let buf = t.buffers.get(&root_now).or_else(|| t.buffers.get(&root));
        if let Some(buf) = buf {
            let fresh = buf.iter().filter(|it| it.id >= 500_000).count();
            // Half the data is new; a uniform buffer should reflect that.
            assert!(
                fresh * 10 >= buf.len(),
                "only {fresh}/{} fresh entries in root buffer",
                buf.len()
            );
        }
        // Regardless of buffers, streams must be exact.
        let q = Rect2::from_corners(Point2::xy(0.0, 0.0), Point2::xy(3.0, 3.0));
        let expected = t.tree().query(&q).len();
        let mut s = t.sampler(q, SampleMode::WithoutReplacement);
        let mut n = 0usize;
        while s.next_sample(&mut rng).is_some() {
            n += 1;
        }
        assert_eq!(n, expected);
    }

    #[test]
    fn selector_variants_all_work() {
        for kind in [
            SelectorKind::Linear,
            SelectorKind::AcceptReject,
            SelectorKind::Alias,
        ] {
            let mut cfg = RsTreeConfig::with_fanout(8);
            cfg.selector = kind;
            let mut t = RsTree::bulk_load(grid_items(1000), cfg);
            let q = Rect2::from_corners(Point2::xy(5.0, 1.0), Point2::xy(40.0, 8.0));
            let expected = t.tree().query(&q).len();
            let mut s = t.sampler(q, SampleMode::WithoutReplacement);
            let mut rng = StdRng::seed_from_u64(9);
            let got = s.draw(10_000, &mut rng);
            assert_eq!(got.len(), expected, "{kind:?}");
        }
    }
}
