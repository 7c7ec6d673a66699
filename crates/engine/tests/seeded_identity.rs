//! Seeded replay identity of the engine's sampling plans across update
//! churn.
//!
//! A fixed script of statements — every method forced by `METHOD` in both
//! modes, plus planner-chosen with-replacement statements — runs over six
//! rounds, with an insert batch and a run of removals between rounds. Each
//! round's outcomes (estimate and CI bits, sample count, simulated I/O,
//! serving method, stop reason) are folded into one FNV-1a fingerprint.
//! The constants were computed once and are never edited: a change to the
//! data set's index, its update path or the executor that alters any
//! seeded result, down to one bit or one block read, fails here.

use rand::{rngs::StdRng, RngExt, SeedableRng};
use storm_connector::StRecord;
use storm_engine::{DatasetConfig, QueryOutcome, StormEngine};
use storm_geo::StPoint;
use storm_store::{DocId, Value};

const DATASET: &str = "churn";
const ROUNDS: usize = 6;

/// One fingerprint per round, computed before the engine's index was
/// reduced to one tree and kept unchanged since.
const EXPECTED: [u64; ROUNDS] = [
    0xf3c0_0d49_0f7b_23b8,
    0xd78a_1a16_a2ba_ae56,
    0x757f_8bf8_a747_3b54,
    0x236d_6552_a64e_9856,
    0x1a75_1925_7e3d_5c80,
    0xdc25_6bce_2f36_e952,
];

fn record(rng: &mut StdRng) -> StRecord {
    let x: f64 = rng.random_range(0.0..100.0);
    let y: f64 = rng.random_range(0.0..100.0);
    let t: i64 = rng.random_range(0..10_000);
    let v: f64 = rng.random_range(0.0..50.0) + x * 0.1;
    StRecord {
        point: StPoint::new(x, y, t),
        body: Value::object([("v".into(), Value::Float(v))]),
    }
}

/// Folds everything seeded in an outcome (not its wall time) into an
/// FNV-1a hash.
fn fold(hash: &mut u64, o: &QueryOutcome) {
    let line = format!(
        "{:?}|{}|{}|{}|{:?}|{:?}|{}",
        o.result, o.samples, o.io_reads, o.sampler, o.reason, o.q, o.io_faults,
    );
    for b in line.bytes() {
        *hash = (*hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn statements(rng: &mut StdRng) -> Vec<String> {
    let x0: f64 = rng.random_range(0.0..60.0);
    let y0: f64 = rng.random_range(0.0..60.0);
    let x1 = x0 + rng.random_range(20.0..40.0);
    let y1 = y0 + rng.random_range(20.0..40.0);
    let t0: i64 = rng.random_range(0..4_000);
    let t1 = t0 + rng.random_range(3_000..6_000);
    let range = format!("RANGE {x0:.3} {y0:.3} {x1:.3} {y1:.3}");
    vec![
        format!("ESTIMATE AVG(v) FROM {DATASET} {range} SAMPLES 500 METHOD rstree MODE wor"),
        format!("ESTIMATE AVG(v) FROM {DATASET} {range} SAMPLES 200 METHOD queryfirst MODE wor"),
        format!("ESTIMATE AVG(v) FROM {DATASET} {range} SAMPLES 200 METHOD samplefirst MODE wr"),
        format!("ESTIMATE SUM(v) FROM {DATASET} {range} TIME {t0} {t1} SAMPLES 300 METHOD rstree MODE wr"),
        format!("ESTIMATE AVG(v) FROM {DATASET} {range} TIME {t0} {t1} SAMPLES 200 METHOD randompath MODE wor"),
        format!("ESTIMATE MEDIAN(v) FROM {DATASET} {range} SAMPLES 400 MODE wr"),
    ]
}

#[test]
fn seeded_statements_replay_the_pinned_fingerprints_across_churn() {
    let mut data = StdRng::seed_from_u64(0x5eed);
    let records = (0..20_000).map(|_| record(&mut data)).collect();
    let mut engine = StormEngine::new(0xC0FFEE);
    engine
        .create_dataset(DATASET, records, DatasetConfig::default())
        .expect("fresh engine");
    let mut prints = [0u64; ROUNDS];
    for print in &mut prints {
        *print = 0xcbf2_9ce4_8422_2325;
        for (i, ql) in statements(&mut data).into_iter().enumerate() {
            if i == 3 {
                // An insert batch mid-round, so the RS-tree statement after
                // it must see the new records.
                let batch = (0..500).map(|_| record(&mut data)).collect();
                engine
                    .insert_batch(DATASET, batch)
                    .expect("data set exists");
            }
            let outcome = engine.execute(&ql).unwrap_or_else(|e| panic!("{ql}: {e}"));
            fold(print, &outcome);
        }
        // Removals last, so the next round opens on an RS-tree statement
        // that must not see them.
        let ds = engine.dataset(DATASET).expect("data set exists");
        let live: Vec<u64> = ds.items().iter().map(|it| it.id).collect();
        for _ in 0..300 {
            let id = live[data.random_range(0..live.len())];
            // A repeated pick is simply a no-op the second time.
            engine.remove(DATASET, DocId(id)).expect("data set exists");
        }
    }
    assert_eq!(prints, EXPECTED, "seeded results moved: {prints:#018x?}");
}
