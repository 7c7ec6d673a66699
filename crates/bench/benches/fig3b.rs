//! Criterion bench for Figure 3(b): time for the online AVG(altitude)
//! estimate to absorb a batch of samples through the LS/RS samplers, one
//! draw per call into a reused slot.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::{rngs::StdRng, SeedableRng};
use storm_bench::fig3_setup;
use storm_core::{SampleMode, SpatialSampler};
use storm_estimators::OnlineStat;
use storm_rtree::Item;

fn fig3b(c: &mut Criterion) {
    let mut setup = fig3_setup(100_000, 0.10, 42);
    let mut group = c.benchmark_group("fig3b");
    group.sample_size(20);

    group.bench_function("ls-avg-512-samples", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut stat = OnlineStat::without_replacement(setup.q);
            let mut one: Vec<Item<2>> = Vec::with_capacity(1);
            let mut s = setup.ls.sampler(setup.query);
            for _ in 0..512 {
                one.clear();
                assert_eq!(s.next_batch(&mut rng, &mut one, 1), 1, "q >> 512");
                stat.push(setup.data.altitudes[one[0].id as usize]);
            }
            stat.mean_estimate()
        });
    });

    group.bench_function("rs-avg-512-samples", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut stat = OnlineStat::without_replacement(setup.q);
            let mut one: Vec<Item<2>> = Vec::with_capacity(1);
            let mut s = setup
                .rs
                .sampler(setup.query, SampleMode::WithoutReplacement);
            for _ in 0..512 {
                one.clear();
                assert_eq!(s.next_batch(&mut rng, &mut one, 1), 1, "q >> 512");
                stat.push(setup.data.altitudes[one[0].id as usize]);
            }
            stat.mean_estimate()
        });
    });
    group.finish();
}

criterion_group!(benches, fig3b);
criterion_main!(benches);
