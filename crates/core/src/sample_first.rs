//! The `SampleFirst` baseline.

use std::collections::HashSet;
use std::sync::Arc;

use rand::{Rng, RngExt};
use storm_geo::Rect;
use storm_rtree::{IoStats, Item};

use crate::{SampleMode, SamplerKind, SpatialSampler};

/// Upon request, pick a point randomly from `P` and test whether it lies in
/// `Q`; dispose and repeat otherwise (paper §3.1).
///
/// Expected `O(N/q)` probes per sample — excellent when the query covers a
/// large constant fraction of `P`, catastrophic for selective queries, and
/// non-terminating when `q = 0`. The non-termination hazard is made finite
/// here by a per-sample probe budget ([`SampleFirst::with_probe_budget`]);
/// hitting the budget ends the stream.
///
/// The sampler reads records directly from the base data (a flat scan file
/// in STORM's storage engine), so each probe is charged as one block read
/// against the supplied [`IoStats`].
#[derive(Debug)]
pub struct SampleFirst<'a, const D: usize> {
    data: &'a [Item<D>],
    query: Rect<D>,
    mode: SampleMode,
    probe_budget: usize,
    io: Option<Arc<IoStats>>,
    seen: HashSet<u64>,
}

/// Default number of probes one sample may spend; a batch of `k` shares
/// `k` times this budget.
pub const DEFAULT_PROBE_BUDGET: usize = 1_000_000;

impl<'a, const D: usize> SampleFirst<'a, D> {
    /// Creates a sampler over the raw data array.
    pub fn new(data: &'a [Item<D>], query: Rect<D>, mode: SampleMode) -> Self {
        SampleFirst {
            data,
            query,
            mode,
            probe_budget: DEFAULT_PROBE_BUDGET,
            io: None,
            seen: HashSet::new(),
        }
    }

    /// Sets the per-sample probe budget (the divergence guard).
    #[must_use]
    pub fn with_probe_budget(mut self, budget: usize) -> Self {
        self.probe_budget = budget.max(1);
        self
    }

    /// Charges one block read per probe against `io`.
    #[must_use]
    pub fn with_io(mut self, io: Arc<IoStats>) -> Self {
        self.io = Some(io);
        self
    }
}

impl<const D: usize> SpatialSampler<D> for SampleFirst<'_, D> {
    /// Runs the probe loop for the whole block, charging the I/O counter
    /// once per block instead of once per probe (one atomic add amortised
    /// over up to `k` accepted samples and all their rejected probes).
    fn next_batch(&mut self, rng: &mut dyn Rng, buf: &mut Vec<Item<D>>, k: usize) -> usize {
        let rng = &mut *rng;
        if self.data.is_empty() {
            return 0;
        }
        let before = buf.len();
        let mut probes = 0u64;
        // One shared budget for the block: `k` samples are expected to cost
        // `k·N/q` probes, so the guard scales with the block.
        let budget = self.probe_budget.saturating_mul(k) as u64;
        while buf.len() - before < k && probes < budget {
            if self.mode == SampleMode::WithoutReplacement && self.seen.len() == self.data.len() {
                break;
            }
            probes += 1;
            let item = self.data[rng.random_range(0..self.data.len())];
            if !self.query.contains_point(&item.point) {
                continue;
            }
            match self.mode {
                SampleMode::WithReplacement => buf.push(item),
                SampleMode::WithoutReplacement => {
                    if self.seen.insert(item.id) {
                        buf.push(item);
                    }
                }
            }
        }
        if let Some(io) = &self.io {
            io.record_reads(probes);
        }
        buf.len() - before
    }

    fn kind(&self) -> SamplerKind {
        SamplerKind::SampleFirst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use storm_geo::{Point2, Rect2};

    fn grid(n: usize) -> Vec<Item<2>> {
        (0..n)
            .map(|i| Item::new(Point2::xy((i % 100) as f64, (i / 100) as f64), i as u64))
            .collect()
    }

    #[test]
    fn samples_lie_inside_the_query() {
        let data = grid(10_000);
        let q = Rect2::from_corners(Point2::xy(10.0, 10.0), Point2::xy(60.0, 60.0));
        let mut s = SampleFirst::new(&data, q, SampleMode::WithReplacement);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let item = s.next_sample(&mut rng).unwrap();
            assert!(q.contains_point(&item.point));
        }
    }

    #[test]
    fn empty_query_hits_the_probe_budget() {
        let data = grid(1000);
        let q = Rect2::from_corners(Point2::xy(5000.0, 5000.0), Point2::xy(5001.0, 5001.0));
        let mut s = SampleFirst::new(&data, q, SampleMode::WithReplacement).with_probe_budget(500);
        let mut rng = StdRng::seed_from_u64(2);
        assert!(s.next_sample(&mut rng).is_none());
    }

    #[test]
    fn io_cost_scales_inversely_with_selectivity() {
        let data = grid(10_000);
        let io = IoStats::shared();
        let mut rng = StdRng::seed_from_u64(3);

        // ~1% selective query.
        let narrow = Rect2::from_corners(Point2::xy(0.0, 0.0), Point2::xy(9.0, 9.0));
        let mut s =
            SampleFirst::new(&data, narrow, SampleMode::WithReplacement).with_io(Arc::clone(&io));
        for _ in 0..50 {
            s.next_sample(&mut rng).unwrap();
        }
        let narrow_io = io.reads();

        io.reset();
        // 100% selective query.
        let wide = Rect2::everything();
        let mut s =
            SampleFirst::new(&data, wide, SampleMode::WithReplacement).with_io(Arc::clone(&io));
        for _ in 0..50 {
            s.next_sample(&mut rng).unwrap();
        }
        let wide_io = io.reads();
        assert!(
            narrow_io > wide_io * 10,
            "narrow {narrow_io} vs wide {wide_io}"
        );
    }

    #[test]
    fn without_replacement_exhausts_exactly_once() {
        let data = grid(100);
        let q = Rect2::from_corners(Point2::xy(0.0, 0.0), Point2::xy(4.0, 0.0));
        let mut s = SampleFirst::new(&data, q, SampleMode::WithoutReplacement);
        let mut rng = StdRng::seed_from_u64(4);
        let mut ids = Vec::new();
        while let Some(item) = s.next_sample(&mut rng) {
            ids.push(item.id);
        }
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn empty_dataset_returns_none() {
        let data: Vec<Item<2>> = Vec::new();
        let mut s = SampleFirst::new(&data, Rect2::everything(), SampleMode::WithReplacement);
        let mut rng = StdRng::seed_from_u64(5);
        assert!(s.next_sample(&mut rng).is_none());
    }
}
