//! The single-query sampler: a [`Coordinator`] with one session.

use rand::Rng;
use storm_faultkit::DegradedInfo;
use storm_geo::Rect2;
use storm_rtree::Item;

use super::coordinator::Coordinator;
use super::stream::SessionStream;
use crate::{SampleMode, SamplerKind, SpatialSampler};

/// The coordinator side of a parallel scatter-gather sample stream: a
/// [`Coordinator`] driving one session — open, then `draw → round →
/// merge` per [`SpatialSampler::next_batch`], then close on drop.
///
/// `next_batch` is its one draw body; the provided `next_sample` is a
/// block of one and pays a fill round per draw.
/// [`SpatialSampler::degraded`] reports any shards written off while the
/// stream ran. Over a cluster ([`crate::ParallelRsCluster::sampler`]) it
/// holds only a shared borrow: any number of samplers can stream
/// concurrently, each over its own reply channel. Over a partition
/// ([`crate::DistributedRsTree::sampler`]) its coordinator steps the
/// shards on the caller's thread and emits the identical stream.
#[derive(Debug)]
pub struct ParallelSampler<'a> {
    coord: Coordinator<'a>,
    stream: SessionStream,
}

impl<'a> ParallelSampler<'a> {
    /// Opens `session`'s stream on `coord`: scatters the open to every
    /// shard, then gathers the counts.
    pub(crate) fn open(
        mut coord: Coordinator<'a>,
        session: u64,
        query: Rect2,
        mode: SampleMode,
        seed: u64,
    ) -> Self {
        // One session in, one stream out.
        let stream = coord
            .open_sessions([(session, query, mode, seed)])
            .swap_remove(0);
        ParallelSampler { coord, stream }
    }

    /// Phase 2: one fill round for the drawn block. Returns `false` when
    /// the round can merge nothing: every contacted shard is gone and no
    /// banked surplus covers the draw.
    fn round(&mut self) -> bool {
        let stream = &mut self.stream;
        if self.coord.queue_fill(stream) > 0 {
            self.coord.fill_round();
            if self.coord.apply_round(stream) {
                return true;
            }
        }
        // Owed but not requested: served from the prefetch buffer.
        (0..stream.plan.len()).any(|s| stream.plan[s] == 0 && stream.owed(s) > 0)
    }
}

impl SpatialSampler<2> for ParallelSampler<'_> {
    fn next_batch(&mut self, rng: &mut dyn Rng, buf: &mut Vec<Item<2>>, k: usize) -> usize {
        let rng = &mut *rng;
        let before = buf.len();
        loop {
            let done = buf.len() - before;
            if done >= k {
                break;
            }
            // Phase 1: draw the shard sequence — the same per-draw
            // bookkeeping as the sequential gather, run as a block.
            let drawn = self.stream.draw(rng, k - done);
            if drawn == 0 {
                break;
            }
            // Phase 2: scatter the planned requests, gather the batches. A
            // round where *every* contacted shard died delivers nothing,
            // but its mass is already written off — re-enter phase 1 and
            // re-draw from the survivors (phase 1 terminates the stream
            // itself once no mass remains; each all-dead round kills at
            // least one live shard, so this cannot loop unboundedly).
            if !self.round() {
                continue;
            }
            // Phase 3: merge in drawn order.
            let merged = self.stream.merge_into(buf);
            if self.stream.mode() == SampleMode::WithReplacement && merged < drawn {
                // With replacement a full retry can only repeat the same
                // shortfall (weights are static); stop instead of looping.
                break;
            }
        }
        buf.len() - before
    }

    fn kind(&self) -> SamplerKind {
        SamplerKind::RsTree
    }

    fn result_size(&self) -> Option<usize> {
        Some(self.stream.result_count())
    }

    fn degraded(&self) -> Option<DegradedInfo> {
        Some(self.stream.degraded_info())
    }
}

impl Drop for ParallelSampler<'_> {
    fn drop(&mut self) {
        // Every round settles before next_batch returns; the close tears
        // this session's worker streams down.
        self.coord.close_sessions(&[self.stream.session]);
    }
}
