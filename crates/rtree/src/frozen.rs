//! Read-optimized frozen tree layout: SoA leaves, implicit node indexing.
//!
//! The mutable [`RTree`](crate::RTree) is the build/ingest-facing form:
//! `Vec<Node>`-indirected nodes whose `Entries::Leaf(Vec<Item>)` /
//! `Entries::Inner(Vec<NodeId>)` each own a heap allocation, so every
//! descent step chases two pointers and every leaf read lands on a cold
//! cache line. [`FrozenRTree`] is the read-optimized form produced by an
//! explicit [`RTree::freeze`] step:
//!
//! * **SoA arena** — every item is Hilbert-sorted into one contiguous
//!   arena; record ids live in one column (`ids`) and coordinates in a
//!   column-major block (`coords[axis * n + i]`), so a sampling kernel
//!   that only touches ids streams a single dense array;
//! * **implicit node indexing** — level `l` node `i` covers the arena
//!   range `[i·span(l), min(n, (i+1)·span(l)))` with
//!   `span(l) = fanout^(l+1)`, and its children are level `l-1` nodes
//!   `i·fanout ..`; child addressing, subtree counts, and canonical-range
//!   extraction are all arithmetic — no `NodeId` indirection, no per-node
//!   count field, no hash lookups;
//! * **bounding rects only** — the sole per-node storage is one `Rect`
//!   per node, packed level-by-level (leaves first) in `rects` with a
//!   `level_off` directory, because rects are the only node attribute the
//!   arithmetic cannot derive.
//!
//! A fully-contained canonical node is therefore a *contiguous arena
//! range*, and a uniform draw from it is one `random_range` plus one
//! array read — the constant-factor win the paper's O(k/B) sampling
//! bound needs to show up in wall-clock terms.
//!
//! I/O accounting: freezing shares the source tree's [`IoStats`] handle.
//! Structure walks (`query`, `for_each_in`, `count_in`, `cone`) charge
//! one read per visited node, like the boxed tree; arena reads are
//! charged by the samplers at block (`fanout`) granularity, which is the
//! frozen analogue of the boxed buffer-block reads.

use std::sync::Arc;

use storm_geo::{Point, Rect};

use crate::io::IoStats;
use crate::node::Item;
use crate::tree::RTree;

/// A read-only, cache-dense snapshot of an [`RTree`]'s items.
///
/// Build one with [`RTree::freeze`] or [`FrozenRTree::build`]. The frozen
/// form does not support updates: re-freeze after mutating the source
/// tree.
#[derive(Debug, Clone)]
pub struct FrozenRTree<const D: usize> {
    fanout: usize,
    /// Record ids, Hilbert order.
    ids: Vec<u64>,
    /// Column-major coordinates: axis `a` of item `i` is `coords[a*n+i]`.
    coords: Vec<f64>,
    /// Node bounding rects, levels concatenated bottom-up (leaves first).
    rects: Vec<Rect<D>>,
    /// Start of each level's run in `rects`; `level_off.len()` = height.
    level_off: Vec<usize>,
    /// `span(l) = fanout^(l+1)` (saturating): items per level-`l` node.
    spans: Vec<usize>,
    io: Arc<IoStats>,
}

/// One fully-contained canonical node in a [`FrozenCone`]: its implicit
/// coordinates plus the arena range it covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrozenConeEntry {
    /// Level of the node (leaves are 0).
    pub level: usize,
    /// Index of the node within its level.
    pub idx: usize,
    /// First arena index covered (inclusive).
    pub lo: usize,
    /// One past the last arena index covered.
    pub hi: usize,
}

/// The frozen analogue of the canonical set `R_Q`: maximal fully-contained
/// nodes as contiguous arena ranges, plus the qualifying items of cut
/// leaves as individual arena indices.
#[derive(Debug, Clone, Default)]
pub struct FrozenCone {
    /// Maximal nodes fully inside the query, as arena ranges.
    pub nodes: Vec<FrozenConeEntry>,
    /// Arena indices of qualifying items in partially-overlapped leaves.
    pub singles: Vec<usize>,
    /// Exact `|P ∩ Q|` = sum of node ranges + singles.
    pub total: usize,
}

impl<const D: usize> FrozenRTree<D> {
    /// Packs `items` (any order; they are Hilbert-sorted internally) into
    /// a frozen arena with the given leaf fanout, charging build reads to
    /// the shared `io` counter.
    ///
    /// # Panics
    /// Panics if `fanout < 2` or `items.len() > u32::MAX` (samplers use
    /// `u32` arena offsets).
    pub fn build(mut items: Vec<Item<D>>, fanout: usize, io: Arc<IoStats>) -> Self {
        crate::bulk::hilbert_sort(&mut items);
        Self::build_presorted(&items, fanout, io)
    }

    /// Packs already-ordered `items` into a frozen arena **without
    /// re-sorting** — the ingest tier's run builder uses this when it has
    /// presorted a batch itself via [`hilbert_sort`](crate::hilbert_sort).
    ///
    /// Caller contract: `items` must be in the order [`hilbert_sort`]
    /// would produce **for this exact item set** — Hilbert keys are
    /// computed over the set's own bounding box, so an order inherited
    /// from a different (e.g. larger or merged) set is *not* valid here.
    /// Structure invariants (rect containment) hold for any order, but
    /// range-query locality degrades if the contract is broken.
    ///
    /// # Panics
    /// Panics if `fanout < 2` or `items.len() > u32::MAX` (samplers use
    /// `u32` arena offsets).
    pub fn build_presorted(items: &[Item<D>], fanout: usize, io: Arc<IoStats>) -> Self {
        assert!(fanout >= 2, "frozen fanout must be at least 2");
        assert!(
            u32::try_from(items.len()).is_ok(),
            "frozen arena limited to u32::MAX items"
        );
        let n = items.len();
        let mut ids = Vec::with_capacity(n);
        let mut coords = vec![0.0f64; n * D];
        for (i, item) in items.iter().enumerate() {
            ids.push(item.id);
            for axis in 0..D {
                coords[axis * n + i] = item.point.get(axis);
            }
        }

        // Leaf rects: one per fanout-chunk of the arena.
        let mut rects: Vec<Rect<D>> = Vec::new();
        let mut level_off = Vec::new();
        let mut spans = Vec::new();
        if n > 0 {
            level_off.push(0);
            spans.push(fanout);
            for chunk in items.chunks(fanout) {
                rects.push(bounding_rect(chunk));
            }
            // Upper levels: union runs of `fanout` child rects until one
            // node remains.
            let mut lo = 0usize;
            while rects.len() - lo > 1 {
                let hi = rects.len();
                level_off.push(hi);
                spans.push(
                    spans
                        .last()
                        .copied()
                        .unwrap_or(fanout)
                        .saturating_mul(fanout),
                );
                let mut i = lo;
                while i < hi {
                    let end = (i + fanout).min(hi);
                    let mut r = rects[i];
                    for other in &rects[i + 1..end] {
                        r = r.union(other);
                    }
                    rects.push(r);
                    i = end;
                }
                lo = hi;
            }
        }
        FrozenRTree {
            fanout,
            ids,
            coords,
            rects,
            level_off,
            spans,
            io,
        }
    }

    /// Number of items in the arena.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Leaf capacity / inner-node child count.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Number of levels (leaves are level 0); 0 for an empty tree.
    pub fn height(&self) -> usize {
        self.level_off.len()
    }

    /// The simulated-I/O counter this arena was built with: the source
    /// tree's after [`RTree::freeze`], otherwise whatever handle the
    /// builder passed in.
    pub fn io(&self) -> &IoStats {
        &self.io
    }

    /// A shared handle to the I/O counter.
    pub fn io_handle(&self) -> Arc<IoStats> {
        Arc::clone(&self.io)
    }

    /// Number of nodes at `level`.
    pub fn nodes_at(&self, level: usize) -> usize {
        let end = self
            .level_off
            .get(level + 1)
            .copied()
            .unwrap_or(self.rects.len());
        end - self.level_off[level]
    }

    /// Total node count across all levels.
    pub fn node_count(&self) -> usize {
        self.rects.len()
    }

    /// Arena range `[lo, hi)` covered by level-`level` node `idx`.
    pub fn node_range(&self, level: usize, idx: usize) -> (usize, usize) {
        let span = self.spans[level];
        let lo = idx.saturating_mul(span).min(self.len());
        let hi = lo.saturating_add(span).min(self.len());
        (lo, hi)
    }

    /// Bounding rect of level-`level` node `idx`.
    pub fn node_rect(&self, level: usize, idx: usize) -> &Rect<D> {
        &self.rects[self.level_off[level] + idx]
    }

    /// Record id of arena slot `i`.
    pub fn id(&self, i: usize) -> u64 {
        self.ids[i]
    }

    /// Location of arena slot `i`, gathered from the coordinate columns.
    pub fn point(&self, i: usize) -> Point<D> {
        let n = self.len();
        let mut c = [0.0f64; D];
        for (axis, slot) in c.iter_mut().enumerate() {
            *slot = self.coords[axis * n + i];
        }
        Point::new(c)
    }

    /// The item at arena slot `i`, reassembled from the SoA columns.
    pub fn item(&self, i: usize) -> Item<D> {
        Item::new(self.point(i), self.ids[i])
    }

    /// True when arena slot `i` falls inside `query`, answered straight
    /// from the coordinate columns without assembling a `Point`.
    #[inline]
    pub fn slot_in(&self, i: usize, query: &Rect<D>) -> bool {
        let n = self.len();
        for axis in 0..D {
            let c = self.coords[axis * n + i];
            if c < query.lo().get(axis) || c > query.hi().get(axis) {
                return false;
            }
        }
        true
    }

    /// Every item intersecting `query`, in arena (Hilbert) order.
    pub fn query(&self, query: &Rect<D>) -> Vec<Item<D>> {
        let mut out = Vec::new();
        self.for_each_in(query, |item| out.push(item));
        out
    }

    /// Calls `f` for every item inside `query`, charging one read per
    /// visited node (the boxed tree's traversal accounting).
    pub fn for_each_in<F: FnMut(Item<D>)>(&self, query: &Rect<D>, mut f: F) {
        let Some(root_level) = self.height().checked_sub(1) else {
            return;
        };
        let mut visits = 0usize;
        let mut stack = vec![(root_level, 0usize)];
        while let Some((level, idx)) = stack.pop() {
            visits += 1;
            let rect = self.node_rect(level, idx);
            if !rect.intersects(query) {
                continue;
            }
            let (lo, hi) = self.node_range(level, idx);
            if query.contains_rect(rect) {
                // Whole subtree qualifies: emit the arena range directly,
                // charging the leaf blocks it spans.
                visits += (hi - lo).div_ceil(self.fanout);
                for i in lo..hi {
                    f(self.item(i));
                }
            } else if level == 0 {
                for i in lo..hi {
                    if self.slot_in(i, query) {
                        f(self.item(i));
                    }
                }
            } else {
                for child in self.children(level, idx) {
                    stack.push((level - 1, child));
                }
            }
        }
        self.io.record_reads(visits as u64);
    }

    /// Child index range (at `level - 1`) of level-`level` node `idx`.
    pub fn children(&self, level: usize, idx: usize) -> std::ops::Range<usize> {
        let below = self.nodes_at(level - 1);
        let lo = (idx * self.fanout).min(below);
        let hi = (lo + self.fanout).min(below);
        lo..hi
    }

    /// Exact `|P ∩ Q|` from the implicit counts (free of charge, like the
    /// boxed tree's aggregate-count path).
    pub fn count_in(&self, query: &Rect<D>) -> usize {
        let Some(root_level) = self.height().checked_sub(1) else {
            return 0;
        };
        let mut count = 0usize;
        let mut stack = vec![(root_level, 0usize)];
        while let Some((level, idx)) = stack.pop() {
            let rect = self.node_rect(level, idx);
            if !rect.intersects(query) {
                continue;
            }
            let (lo, hi) = self.node_range(level, idx);
            if query.contains_rect(rect) {
                count += hi - lo;
            } else if level == 0 {
                for i in lo..hi {
                    if self.slot_in(i, query) {
                        count += 1;
                    }
                }
            } else {
                for child in self.children(level, idx) {
                    stack.push((level - 1, child));
                }
            }
        }
        count
    }

    /// The canonical decomposition of `query` over the frozen layout:
    /// maximal fully-contained nodes become arena *ranges*, qualifying
    /// items of cut leaves become individual arena indices. Charges one
    /// read per node visited while carving the cone (the stream's open
    /// cost); drawing from the cone afterwards is pure arithmetic.
    pub fn cone(&self, query: &Rect<D>) -> FrozenCone {
        let mut cone = FrozenCone::default();
        let Some(root_level) = self.height().checked_sub(1) else {
            return cone;
        };
        let mut visits = 0usize;
        let mut stack = vec![(root_level, 0usize)];
        while let Some((level, idx)) = stack.pop() {
            visits += 1;
            let rect = self.node_rect(level, idx);
            if !rect.intersects(query) {
                continue;
            }
            let (lo, hi) = self.node_range(level, idx);
            if query.contains_rect(rect) {
                cone.total += hi - lo;
                cone.nodes.push(FrozenConeEntry { level, idx, lo, hi });
            } else if level == 0 {
                for i in lo..hi {
                    if self.slot_in(i, query) {
                        cone.singles.push(i);
                        cone.total += 1;
                    }
                }
            } else {
                for child in self.children(level, idx) {
                    stack.push((level - 1, child));
                }
            }
        }
        self.io.record_reads(visits as u64);
        cone
    }
}

impl<const D: usize> RTree<D> {
    /// Snapshots this tree into the read-optimized [`FrozenRTree`] form:
    /// items are re-packed Hilbert-sorted into a contiguous SoA arena
    /// with implicitly-indexed nodes. The frozen view shares this tree's
    /// I/O counter; the walk that extracts the items charges its reads
    /// here as the one-time freeze cost.
    pub fn freeze(&self) -> FrozenRTree<D> {
        FrozenRTree::build(self.items(), self.cfg.max_entries, self.io_handle())
    }
}

fn bounding_rect<const D: usize>(items: &[Item<D>]) -> Rect<D> {
    let mut rect = Rect::from_point(items[0].point);
    for item in &items[1..] {
        rect = rect.enlarged_to_point(&item.point);
    }
    rect
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{BulkMethod, RTreeConfig};
    use storm_geo::{Point2, Rect2};

    fn random_items(n: usize, seed: u64) -> Vec<Item<2>> {
        let mut s = seed.max(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|i| Item::new(Point2::xy(next() * 1000.0, next() * 1000.0), i as u64))
            .collect()
    }

    fn freeze(n: usize, fanout: usize, seed: u64) -> (RTree<2>, FrozenRTree<2>) {
        let t = RTree::bulk_load(
            random_items(n, seed),
            RTreeConfig::with_fanout(fanout),
            BulkMethod::Hilbert,
        );
        let f = t.freeze();
        (t, f)
    }

    #[test]
    fn build_presorted_matches_build_on_sorted_input() {
        for n in [1usize, 7, 64, 513] {
            let items = random_items(n, 99);
            let via_build = FrozenRTree::build(items.clone(), 8, Arc::new(IoStats::default()));
            let mut sorted = items;
            crate::bulk::hilbert_sort(&mut sorted);
            let via_presorted =
                FrozenRTree::build_presorted(&sorted, 8, Arc::new(IoStats::default()));
            assert_eq!(via_build.len(), via_presorted.len());
            for i in 0..n {
                assert_eq!(via_build.id(i), via_presorted.id(i), "n={n} slot {i}");
                assert_eq!(via_build.point(i), via_presorted.point(i), "n={n} slot {i}");
            }
            for level in 0..via_build.height() {
                for idx in 0..via_build.nodes_at(level) {
                    assert_eq!(
                        via_build.node_rect(level, idx),
                        via_presorted.node_rect(level, idx),
                        "n={n} level={level} node={idx}"
                    );
                }
            }
        }
    }

    #[test]
    fn implicit_arithmetic_is_consistent() {
        for n in [0usize, 1, 7, 8, 9, 64, 65, 513, 4096] {
            let (_, f) = freeze(n, 8, 42);
            assert_eq!(f.len(), n);
            if n == 0 {
                assert_eq!(f.height(), 0);
                continue;
            }
            // Top level is a single root covering everything.
            let top = f.height() - 1;
            assert_eq!(f.nodes_at(top), 1);
            assert_eq!(f.node_range(top, 0), (0, n));
            // Every level tiles the arena exactly.
            for level in 0..f.height() {
                let mut covered = 0usize;
                for i in 0..f.nodes_at(level) {
                    let (lo, hi) = f.node_range(level, i);
                    assert_eq!(lo, covered, "n={n} level={level} node={i}");
                    assert!(hi > lo);
                    covered = hi;
                }
                assert_eq!(covered, n, "n={n} level={level}");
            }
            // Children partition the parent's range.
            for level in 1..f.height() {
                for i in 0..f.nodes_at(level) {
                    let (lo, hi) = f.node_range(level, i);
                    let kids = f.children(level, i);
                    assert!(!kids.is_empty());
                    assert_eq!(f.node_range(level - 1, kids.start).0, lo);
                    assert_eq!(f.node_range(level - 1, kids.end - 1).1, hi);
                }
            }
        }
    }

    #[test]
    fn rects_cover_their_ranges() {
        let (_, f) = freeze(2000, 16, 7);
        for level in 0..f.height() {
            for i in 0..f.nodes_at(level) {
                let rect = f.node_rect(level, i);
                let (lo, hi) = f.node_range(level, i);
                for j in lo..hi {
                    assert!(rect.contains_point(&f.point(j)), "level={level} node={i}");
                }
            }
        }
    }

    #[test]
    fn query_matches_boxed_tree() {
        let (t, f) = freeze(3000, 16, 11);
        for (a, b, c, d) in [
            (100.0, 100.0, 600.0, 500.0),
            (0.0, 0.0, 1000.0, 1000.0),
            (400.0, 400.0, 401.0, 401.0),
            (2000.0, 2000.0, 2100.0, 2100.0),
        ] {
            let q = Rect2::from_corners(Point2::xy(a, b), Point2::xy(c, d));
            let mut boxed: Vec<u64> = t.query(&q).iter().map(|i| i.id).collect();
            let mut frozen: Vec<u64> = f.query(&q).iter().map(|i| i.id).collect();
            boxed.sort_unstable();
            frozen.sort_unstable();
            assert_eq!(boxed, frozen);
            assert_eq!(f.count_in(&q), boxed.len());
        }
    }

    #[test]
    fn cone_partitions_the_result_set() {
        let (t, f) = freeze(5000, 8, 3);
        let q = Rect2::from_corners(Point2::xy(120.0, 80.0), Point2::xy(770.0, 640.0));
        let cone = f.cone(&q);
        let expected: std::collections::HashSet<u64> = t.query(&q).iter().map(|i| i.id).collect();
        let mut got = std::collections::HashSet::new();
        for e in &cone.nodes {
            assert!(q.contains_rect(f.node_rect(e.level, e.idx)));
            for i in e.lo..e.hi {
                assert!(got.insert(f.id(i)), "range overlap at {i}");
            }
        }
        for &i in &cone.singles {
            assert!(q.contains_point(&f.point(i)));
            assert!(got.insert(f.id(i)), "single duplicates a range at {i}");
        }
        assert_eq!(got, expected);
        assert_eq!(cone.total, expected.len());
    }

    #[test]
    fn cone_nodes_are_maximal() {
        // Everything-query collapses to the root alone.
        let (_, f) = freeze(1000, 8, 9);
        let cone = f.cone(&Rect2::everything());
        assert_eq!(cone.nodes.len(), 1);
        assert_eq!(cone.nodes[0].level, f.height() - 1);
        assert!(cone.singles.is_empty());
        assert_eq!(cone.total, 1000);
    }

    #[test]
    fn soa_columns_round_trip() {
        let items = random_items(257, 5);
        let t = RTree::bulk_load(
            items.clone(),
            RTreeConfig::with_fanout(8),
            BulkMethod::Hilbert,
        );
        let f = t.freeze();
        let mut expect: Vec<(u64, [f64; 2])> =
            items.iter().map(|i| (i.id, i.point.coords())).collect();
        let mut got: Vec<(u64, [f64; 2])> = (0..f.len())
            .map(|i| (f.id(i), f.point(i).coords()))
            .collect();
        expect.sort_by_key(|e| e.0);
        got.sort_by_key(|e| e.0);
        assert_eq!(expect, got);
    }

    #[test]
    fn freeze_shares_the_io_counter() {
        let (t, f) = freeze(500, 8, 13);
        t.io().reset();
        let _ = f.query(&Rect2::everything());
        assert!(
            t.io().reads() > 0,
            "frozen reads must land on the shared counter"
        );
    }
}
