//! Criterion bench for the batched sampling kernels and the parallel
//! scatter-gather executor: samples/sec vs batch size × shard count.
//!
//! Two groups:
//!   * `batch_kernel` — single-tree RS sampler, `next_batch(k)` at
//!     `k = 1` (the one-at-a-time pull) and larger `k`, isolating the
//!     kernel's amortisation.
//!   * `batch_cluster` — sharded stream through the parallel executor vs
//!     the same coordinator stepping the shards on the caller's thread,
//!     isolating what the worker threads cost or buy.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{rngs::StdRng, SeedableRng};
use storm_bench::FANOUT;
use storm_core::{DistributedRsTree, RsTreeConfig, SampleMode, SpatialSampler};
use storm_rtree::Item;
use storm_workload::{osm, queries};

const N: usize = 100_000;
const DRAW: usize = 4_096;

fn batch_kernel(c: &mut Criterion) {
    let data = osm::generate(N, 42);
    let (query, _q) = queries::rect_with_selectivity(&data.items, 0.10, 42 ^ 0xABCD).unwrap();
    let mut rs = storm_core::RsTree::bulk_load(data.items, RsTreeConfig::with_fanout(FANOUT));
    let mut rng = StdRng::seed_from_u64(7);
    rs.prefill(&mut rng);
    let mut group = c.benchmark_group("batch_kernel");
    group.sample_size(10);
    for batch in [1usize, 16, 64, 256] {
        group.bench_with_input(BenchmarkId::new("rs_wor", batch), &batch, |b, &batch| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut rng = StdRng::seed_from_u64(seed);
                let mut s = rs.sampler(query, SampleMode::WithoutReplacement);
                let mut buf: Vec<Item<2>> = Vec::with_capacity(batch);
                let mut drawn = 0usize;
                while drawn < DRAW {
                    buf.clear();
                    let got = s.next_batch(&mut rng, &mut buf, batch.min(DRAW - drawn));
                    if got == 0 {
                        break;
                    }
                    drawn += got;
                }
                drawn
            });
        });
    }
    group.finish();
}

fn batch_cluster(c: &mut Criterion) {
    let data = osm::generate(N, 42);
    let (query, _q) = queries::rect_with_selectivity(&data.items, 0.10, 42 ^ 0xABCD).unwrap();
    let mut group = c.benchmark_group("batch_cluster");
    group.sample_size(10);
    for shards in [1usize, 4, 8] {
        let cluster = DistributedRsTree::bulk_load(
            data.items.clone(),
            shards,
            RsTreeConfig::with_fanout(FANOUT),
        );

        // Sequential baseline: the in-process gather (the coordinator
        // stepping the shards on this thread), one draw per call.
        group.bench_with_input(BenchmarkId::new("sequential", shards), &shards, |b, _| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut rng = StdRng::seed_from_u64(seed);
                let mut s = cluster.sampler(query, SampleMode::WithoutReplacement, seed);
                let mut one: Vec<Item<2>> = Vec::with_capacity(1);
                let mut drawn = 0usize;
                while drawn < DRAW {
                    one.clear();
                    if s.next_batch(&mut rng, &mut one, 1) == 0 {
                        break;
                    }
                    drawn += 1;
                }
                drawn
            });
        });

        // Parallel batched scatter-gather over the same shards.
        let parallel = cluster.into_parallel();
        for batch in [16usize, 256] {
            group.bench_with_input(
                BenchmarkId::new(format!("parallel/k={batch}"), shards),
                &batch,
                |b, &batch| {
                    let mut seed = 0u64;
                    b.iter(|| {
                        seed += 1;
                        let mut rng = StdRng::seed_from_u64(seed);
                        let mut s = parallel.sampler(query, SampleMode::WithoutReplacement, seed);
                        let mut buf: Vec<Item<2>> = Vec::with_capacity(batch);
                        let mut drawn = 0usize;
                        while drawn < DRAW {
                            buf.clear();
                            let got = s.next_batch(&mut rng, &mut buf, batch.min(DRAW - drawn));
                            if got == 0 {
                                break;
                            }
                            drawn += got;
                        }
                        drawn
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, batch_kernel, batch_cluster);
criterion_main!(benches);
