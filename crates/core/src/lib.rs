//! STORM's primary contribution: **spatial online sampling**.
//!
//! Paper Definition 1: *given a set of `N` points `P` in a d-dimensional
//! space, store them in an index such that, for a given range query `Q`,
//! return sampled points from `Q ∩ P` (with or without replacement) until
//! the user terminates the query.* Crucially, the sample size `k` is never
//! given up front — the evaluator keeps pulling samples until an accuracy or
//! time requirement is met, so every method here exposes a pull-based
//! [`SpatialSampler::next_sample`] — a batch of one of the single draw
//! body each sampler implements, [`SpatialSampler::next_batch`].
//!
//! Five methods are implemented, exactly the ones the paper discusses in
//! §3.1:
//!
//! | method | type | cost (paper) |
//! |---|---|---|
//! | [`QueryFirst`] | baseline | `O(r(N) + q)` up-front |
//! | [`SampleFirst`] | baseline | `O(k·N/q)` expected; diverges at `q = 0` |
//! | [`RandomPath`] | Olken's walk | `O(k log N)` time, `Ω(k)` I/Os |
//! | [`LsTree`] / [`LsSampler`] | level sampling | `O(k/B)` I/Os + level overhead |
//! | [`RsTree`] / [`RsSampler`] | sample-buffered Hilbert R-tree | `O(k/B)` I/Os amortised |
//!
//! The [`cost`] module contains the cost model the STORM query optimizer
//! uses to pick among them per query.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod distributed;
mod frozen;
pub mod ingest;
mod ls_tree;
pub mod parallel;
mod query_first;
mod random_path;
mod rs_tree;
mod sample_first;
pub mod validate;
mod weighted;

pub use distributed::DistributedRsTree;
pub use frozen::{FrozenRsTree, FrozenSampler};
pub use ingest::{CompositeSampler, DeltaBuffer, EpochState, IngestConfig, IngestIndex};
pub use ls_tree::{LsSampler, LsTree};
pub use parallel::{Coordinator, EpochError, ParallelRsCluster, ParallelSampler, SessionStream};
pub use query_first::QueryFirst;
pub use random_path::RandomPath;
pub use rs_tree::{RsSampler, RsTree, RsTreeConfig};
pub use sample_first::SampleFirst;
pub use weighted::{SelectorKind, WeightedSelector};

use rand::Rng;
use storm_rtree::Item;

/// Whether repeated samples may return the same point twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SampleMode {
    /// Every draw is independent; duplicates possible.
    WithReplacement,
    /// Each point of `P ∩ Q` is returned at most once; the stream ends when
    /// the query result is exhausted. This is the default STORM mode (the
    /// LS-tree's permutation stream is inherently without replacement).
    #[default]
    WithoutReplacement,
}

/// Identifies a sampling method (used by the optimizer and in reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SamplerKind {
    /// Materialise `P ∩ Q`, then sample from the buffer.
    QueryFirst,
    /// Rejection-sample uniformly from all of `P`.
    SampleFirst,
    /// Olken's count-weighted random root-to-leaf walk.
    RandomPath,
    /// Level-sampling forest of R-trees.
    LsTree,
    /// Sample-buffered Hilbert R-tree.
    RsTree,
}

impl std::fmt::Display for SamplerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SamplerKind::QueryFirst => "QueryFirst",
            SamplerKind::SampleFirst => "SampleFirst",
            SamplerKind::RandomPath => "RandomPath",
            SamplerKind::LsTree => "LS-tree",
            SamplerKind::RsTree => "RS-tree",
        };
        f.pad(s)
    }
}

/// A spatial online sampler bound to one range query.
///
/// Implementations return samples indefinitely (with replacement) or until
/// exhaustion (without replacement). A short batch — or `None` from
/// [`Self::next_sample`] — means the stream has ended: the result set is
/// exhausted, the query is empty, or a per-draw effort budget was hit
/// (SampleFirst on tiny queries).
///
/// Each sampler has one draw body, [`Self::next_batch`]; the paper's
/// one-at-a-time pull ([`Self::next_sample`]) is a batch of one. A batch
/// of `k` emits the same *distribution* as `k` single draws, so callers
/// may mix the two freely. For every sampler except the boxed RS-tree it
/// also emits the same *stream*, whatever the batch sizes; the boxed
/// RS-tree's grouped pops run buffer refills after the block's part
/// picks, so its RNG interleaving depends on `k` (DESIGN.md §8.1).
pub trait SpatialSampler<const D: usize> {
    /// Draws up to `k` samples into `buf`, returning how many were
    /// appended. Fewer than `k` (including 0) means the stream ended.
    ///
    /// This is the batched sampling kernel: implementations amortise
    /// per-draw work — tree descents, buffer-block reads, selector walks —
    /// across the whole block, which is what makes sample generation keep
    /// up with the estimator loop.
    fn next_batch(&mut self, rng: &mut dyn Rng, buf: &mut Vec<Item<D>>, k: usize) -> usize;

    /// Draws the next online sample: a batch of one.
    fn next_sample(&mut self, rng: &mut dyn Rng) -> Option<Item<D>> {
        let mut one = Vec::with_capacity(1);
        self.next_batch(rng, &mut one, 1);
        one.pop()
    }

    /// Which method this is.
    fn kind(&self) -> SamplerKind;

    /// Exact `q = |P ∩ Q|` when the method learns it as a side effect
    /// (QueryFirst materialises it; RS computes it from the canonical set).
    fn result_size(&self) -> Option<usize> {
        None
    }

    /// Degraded-execution report: which shards (if any) this stream wrote
    /// off and how much declared result mass went with them. `None` means
    /// the sampler cannot degrade (single-node samplers); `Some` with an
    /// empty failure list means a distributed stream that is still whole.
    /// See [`storm_faultkit::DegradedInfo`] for the missing-mass bound the
    /// estimator layer applies.
    fn degraded(&self) -> Option<storm_faultkit::DegradedInfo> {
        None
    }

    /// Convenience: draws up to `k` samples into a vector (one batch).
    fn draw(&mut self, k: usize, rng: &mut dyn Rng) -> Vec<Item<D>> {
        let mut out = Vec::with_capacity(k);
        self.next_batch(rng, &mut out, k);
        out
    }
}

/// 64-bit mix (SplitMix64 finaliser) used wherever the samplers need a
/// deterministic hash of a record id (LS-tree level assignment).
#[inline]
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}
