//! `ingest_mixed`: one writer and one reader on the same `IngestIndex`.
//!
//! The write is a fixed amount of work (so that many freeze and compaction
//! cycles complete, and the same cycles on every commit), sized from
//! `--seconds` to take about that long on the seed. Rates are work over
//! the wall time of the whole mixed phase. No within-run spread is
//! reported: the index grows through the run and a few dozen compactions
//! carry most of the time, so thirds of the run differ by design, not by
//! noise.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use storm_core::{IngestConfig, IngestIndex, SampleMode, SpatialSampler};
use storm_estimators::OnlineStat;
use storm_rtree::Item;

use super::{
    distinct_inside, items2 as items, layer_metrics, rect2 as rect, set_up_repeatedly,
    tail_diagnostic, Opts, Overhead,
};
use crate::gen::{self, Window};
use crate::report::{Metric, Phase, WorkloadResult};
use crate::stats::{self, summarize};
use crate::trace::{ladder_self, Rung, Tracer};

const BATCH: usize = 1024;
/// Items the writer inserts per second of `--seconds`: the rate the seed
/// sustains beside the reader, so the fixed work takes about `--seconds`.
const WRITE_PER_RUN_SECOND: f64 = 56_000.0;
/// The least the writer inserts, however short the run: enough for the
/// traced run's own measurements and for several compactions.
const MIN_WRITE: usize = 96 * BATCH;
/// A reader session: this many samples without replacement, in blocks.
const SESSION_SAMPLES: usize = 4096;
const BLOCK: usize = 256;
/// Window side of the reader's queries, per axis; pool is a 4 × 4 lattice.
const FRAC: f64 = 0.2;
const LATTICE: usize = 4;
/// A reader session whose first estimate took longer than this was
/// stalled behind a freeze or compaction.
const STALL_MS: f64 = 10.0;
/// Every this-many-th reader session has its ids checked for distinctness
/// and containment (checking all would slow the reader it measures).
const CHECK_EVERY: usize = 8;

fn preload(opts: &Opts) -> usize {
    if opts.smoke {
        1 << 14
    } else {
        1 << 19
    }
}

/// Whole batches of write work for `seconds`.
fn write_items(seconds: f64) -> usize {
    let batches = (WRITE_PER_RUN_SECOND * seconds / BATCH as f64).floor() as usize;
    (batches * BATCH).max(MIN_WRITE)
}

/// Data handed over → index holding it in one compacted run.
fn set_up(preloaded: &[Item<2>]) -> IngestIndex<2> {
    let idx = IngestIndex::<2>::new(IngestConfig::default());
    idx.insert_batch(preloaded.iter().copied());
    idx.compact();
    idx
}

/// One reader session.
#[derive(Debug, Clone, Copy)]
struct Read {
    ttfe_ms: f64,
    tte_ms: f64,
    samples: usize,
}

#[derive(Default)]
struct Mixed {
    items: usize,
    batch_ms: Vec<f64>,
    reads: Vec<Read>,
    check_failed: u64,
    wall_s: f64,
    epochs: u64,
    notes: Vec<String>,
}

/// Draws one reader session from `idx`; returns `(ttfe_ms, tte_ms)` and
/// leaves the items in `keep`.
fn read_session(
    idx: &IngestIndex<2>,
    window: &Window,
    rng: &mut StdRng,
    keep: &mut Vec<Item<2>>,
    tracer: &mut Tracer,
    query_id: u64,
) -> (f64, f64, f64) {
    let t = Instant::now();
    let span = tracer.open_span("ingest", "session", query_id);
    let s = tracer.begin();
    let mut sampler = idx.sampler(&rect(window), SampleMode::WithoutReplacement);
    tracer.end("ingest", "sampler_open", query_id, span, s);
    let mut stat = OnlineStat::without_replacement(sampler.result_size().unwrap_or(0));
    keep.clear();
    let mut ttfe_ms = None;
    let mut sink = 0.0;
    while keep.len() < SESSION_SAMPLES {
        let before = keep.len();
        let s = tracer.begin();
        let got = sampler.next_batch(rng, keep, BLOCK);
        tracer.end("ingest", "next_batch", query_id, span, s);
        if got == 0 {
            break;
        }
        for item in &keep[before..] {
            stat.push(item.point.get(0));
        }
        sink += stat.mean_estimate().std_err;
        ttfe_ms.get_or_insert_with(|| t.elapsed().as_secs_f64() * 1e3);
    }
    tracer.close_span(span);
    let tte_ms = t.elapsed().as_secs_f64() * 1e3;
    (ttfe_ms.unwrap_or(tte_ms), tte_ms, sink)
}

/// The mixed phase: the writer inserts `extra` in batches on its own
/// thread while this thread reads, until the writer is done.
fn mixed(
    idx: &IngestIndex<2>,
    extra: &[Item<2>],
    windows: &[Window],
    seed: u64,
    tracer: &mut Tracer,
) -> Mixed {
    let done = AtomicBool::new(false);
    let mut out = Mixed {
        items: extra.len(),
        ..Default::default()
    };
    let epoch_before = idx.epoch();
    let mut writer_tracer = tracer.fork();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut batch_ms = Vec::with_capacity(extra.len() / BATCH + 1);
            for (b, batch) in extra.chunks(BATCH).enumerate() {
                let t = Instant::now();
                let s = writer_tracer.begin();
                idx.insert_batch(batch.iter().copied());
                writer_tracer.end("ingest", "insert_batch", b as u64, None, s);
                batch_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            done.store(true, Ordering::Release);
            batch_ms
        });
        let mut rng = StdRng::seed_from_u64(seed ^ 0x16E57);
        let mut keep: Vec<Item<2>> = Vec::with_capacity(SESSION_SAMPLES + BLOCK);
        let mut sink = 0.0;
        // Read-then-check, so even a writer that wins the race outright
        // leaves one session measured.
        loop {
            let i = out.reads.len();
            let window = &windows[i % windows.len()];
            let (ttfe_ms, tte_ms, s) =
                read_session(idx, window, &mut rng, &mut keep, tracer, i as u64);
            sink += s;
            out.reads.push(Read {
                ttfe_ms,
                tte_ms,
                samples: keep.len(),
            });
            if i.is_multiple_of(CHECK_EVERY) && !distinct_inside(&keep, window, true) {
                out.check_failed += 1;
                out.notes
                    .push(format!("reader session {i}: repeated or outside id"));
            }
            if done.load(Ordering::Acquire) {
                break;
            }
        }
        std::hint::black_box(sink);
        out.batch_ms = writer.join().expect("writer thread");
    });
    out.wall_s = t0.elapsed().as_secs_f64();
    out.epochs = idx.epoch() - epoch_before;
    tracer.absorb(writer_tracer);
    out
}

impl Mixed {
    fn inserts_per_s(&self) -> f64 {
        self.items as f64 / self.wall_s
    }
}

pub fn run(opts: &Opts) -> WorkloadResult {
    let n_pre = preload(opts);
    let n_write = write_items(opts.seconds);
    let points = gen::points(n_pre + n_write, opts.seed);
    let preloaded = items(&points[..n_pre], 0);
    let extra = items(&points[n_pre..], n_pre);
    let windows = gen::windows(LATTICE, FRAC, opts.seed);
    if opts.trace {
        return trace(&preloaded, &extra, &windows, opts);
    }

    let (idx, setup_s) = set_up_repeatedly(|| set_up(&preloaded));
    let mut off = Tracer::new(false);
    // Warm-up: reader sessions alone (the writer's work is fixed, so it
    // cannot be warmed without being spent).
    {
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let mut keep = Vec::with_capacity(SESSION_SAMPLES + BLOCK);
        let t = Instant::now();
        let mut i = 0;
        while t.elapsed().as_secs_f64() < opts.warmup_s() / 2.0 {
            read_session(
                &idx,
                &windows[i % windows.len()],
                &mut rng,
                &mut keep,
                &mut off,
                0,
            );
            i += 1;
        }
    }
    let m = mixed(&idx, &extra, &windows, opts.seed, &mut off);

    let mut metrics = Vec::new();
    let mut diagnostics = Vec::new();
    let mut ttfe: Vec<f64> = m.reads.iter().map(|r| r.ttfe_ms).collect();
    let mut tte: Vec<f64> = m.reads.iter().map(|r| r.tte_ms).collect();
    for (name, values) in [("ttfe", &mut ttfe), ("tte", &mut tte)] {
        let s = summarize(values).expect("the reader completes at least one session");
        metrics.push(Metric::new(format!("{name}_p50_ms"), s.p50, "ms").n(s.n));
        tail_diagnostic(name, Some(s), &mut diagnostics);
    }
    let samples: usize = m.reads.iter().map(|r| r.samples).sum();
    metrics.push(
        Metric::new("sessions_per_s", m.reads.len() as f64 / m.wall_s, "1/s").n(m.reads.len()),
    );
    metrics.push(Metric::new("samples_per_s", samples as f64 / m.wall_s, "1/s").n(m.reads.len()));
    metrics.push(Metric::new("inserts_per_s", m.inserts_per_s(), "1/s").n(m.batch_ms.len()));
    metrics.push(Metric::new("setup_s", setup_s, "s").n(super::SETUPS));
    metrics.push(Metric::new("peak_rss_mb", super::peak_rss_mb(), "MiB"));

    let mut batch_ms = m.batch_ms.clone();
    let batches = summarize(&mut batch_ms);
    if let Some(s) = batches {
        diagnostics.push(Metric::new("insert_batch_p50_ms", s.p50, "ms").n(s.n));
    }
    tail_diagnostic("insert_batch", batches, &mut diagnostics);
    let stalled_ms: f64 = m
        .reads
        .iter()
        .filter(|r| r.ttfe_ms > STALL_MS)
        .map(|r| r.ttfe_ms)
        .sum();
    diagnostics.push(Metric::new(
        "stall_share",
        stalled_ms / 1e3 / m.wall_s,
        "share",
    ));
    diagnostics.push(Metric::new("mixed_wall_s", m.wall_s, "s"));
    diagnostics.push(Metric::new("items_written", n_write as f64, "count"));
    diagnostics.push(Metric::new("epochs", m.epochs as f64, "count"));
    diagnostics.push(Metric::new(
        "run_count_at_end",
        idx.run_count() as f64,
        "count",
    ));

    // Nothing the writer was acknowledged for may be missing.
    let expected = n_pre + n_write;
    let mut end_failed = 0;
    let mut notes = m.notes.clone();
    if idx.len() != expected {
        end_failed += 1;
        notes.push(format!("len() = {}, expected {expected}", idx.len()));
    }
    let counted = idx.exact_count(&rect(&Window::FULL));
    if counted != expected {
        end_failed += 1;
        notes.push(format!(
            "full-extent exact_count = {counted}, expected {expected}"
        ));
    }
    WorkloadResult {
        workload: "ingest_mixed",
        n: n_pre,
        seconds: opts.seconds,
        metrics,
        diagnostics,
        phases: vec![
            Phase {
                name: "insert_batch",
                sent: m.batch_ms.len() as u64,
                failed: 0,
                wrong: 0,
            },
            Phase {
                name: "reader",
                sent: m.reads.len() as u64,
                failed: m.check_failed,
                wrong: m.check_failed,
            },
            Phase {
                name: "end-state",
                sent: 2,
                failed: end_failed,
                wrong: end_failed,
            },
        ],
        notes,
    }
}

/// The per-layer run. Only two layers are on this workload's path:
/// `ingest` (delta, runs, composite sampler) and `estimators`.
fn trace(
    preloaded: &[Item<2>],
    extra: &[Item<2>],
    windows: &[Window],
    opts: &Opts,
) -> WorkloadResult {
    let mut tracer = Tracer::new(true);
    let mut off = Tracer::new(false);
    let mut d = Vec::new();
    let cfg = IngestConfig::default();

    // Writer alone: insert cost including the freezes it triggers.
    let idx = set_up(preloaded);
    let solo = &extra[..64 * BATCH];
    let t = Instant::now();
    for batch in solo.chunks(BATCH) {
        idx.insert_batch(batch.iter().copied());
    }
    let insert_ns = t.elapsed().as_secs_f64() * 1e9 / solo.len() as f64;
    // One delta short of an automatic freeze, then the freeze by hand.
    let mut freeze_ms = Vec::new();
    let mut next = solo.len();
    for _ in 0..3 {
        let room = cfg.delta_limit - 1 - idx.delta_len();
        idx.insert_batch(extra[next..next + room].iter().copied());
        next += room;
        let t = Instant::now();
        idx.minor_freeze();
        freeze_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let t = Instant::now();
    idx.compact();
    let compact_ms = t.elapsed().as_secs_f64() * 1e3;
    let compacted_len = idx.len();

    // The ladder: reader sessions over a typical mid-cycle state (half the
    // run stack, half a delta), then the estimator alone on what they drew.
    for _ in 0..cfg.max_runs / 2 {
        idx.insert_batch(extra[next..next + cfg.delta_limit].iter().copied());
        next += cfg.delta_limit;
    }
    idx.insert_batch(extra[next..next + cfg.delta_limit / 2].iter().copied());
    let run_count = idx.run_count();
    let sessions = if opts.smoke { 32 } else { 256 };
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut keep = Vec::with_capacity(SESSION_SAMPLES + BLOCK);
    let mut columns: Vec<Vec<f64>> = Vec::with_capacity(sessions);
    let mut failed = 0;
    let t = Instant::now();
    for i in 0..sessions {
        let w = &windows[i % windows.len()];
        read_session(&idx, w, &mut rng, &mut keep, &mut tracer, i as u64);
        columns.push(keep.iter().map(|it| it.point.get(0)).collect());
    }
    let ingest_s = t.elapsed().as_secs_f64();
    failed += columns.iter().filter(|c| c.is_empty()).count() as u64;
    let mut sink = 0.0;
    let t = Instant::now();
    for (i, column) in columns.iter().enumerate() {
        let s = tracer.begin();
        let mut stat = OnlineStat::new();
        for (j, &x) in column.iter().enumerate() {
            stat.push(x);
            if j % BLOCK == BLOCK - 1 {
                sink += stat.mean_estimate().std_err;
            }
        }
        tracer.end("estimators", "session", i as u64, None, s);
    }
    let est_s = t.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    let samples: usize = columns.iter().map(Vec::len).sum();
    let (open_s, opens) = tracer.total("ingest", "sampler_open");
    let (draw_s, _) = tracer.total("ingest", "next_batch");
    drop(idx);

    // The mixed phase twice on fresh indexes, half the work each, spans
    // off then on: what recording costs the end-to-end numbers.
    let half = extra.len() / 2;
    let idx = set_up(preloaded);
    let plain = mixed(&idx, &extra[..half], windows, opts.seed, &mut off);
    drop(idx);
    let idx = set_up(preloaded);
    let traced = mixed(&idx, &extra[..half], windows, opts.seed, &mut tracer);
    drop(idx);
    let phase_of = |name, m: &Mixed| Phase {
        name,
        sent: (m.batch_ms.len() + m.reads.len()) as u64,
        failed: m.check_failed,
        wrong: m.check_failed,
    };
    let overhead = Overhead {
        plain_rate: plain.inserts_per_s(),
        traced_rate: traced.inserts_per_s(),
        phases: [phase_of("untraced", &plain), phase_of("traced", &traced)],
    };

    let rungs = [
        Rung::new("ingest", ingest_s),
        Rung::new("estimators", est_s),
    ];
    let metrics = layer_metrics(&ladder_self(&rungs), ingest_s, sessions, &overhead);

    d.push(Metric::new("ingest.insert_ns_per_item", insert_ns, "ns").n(solo.len()));
    d.push(
        Metric::new("ingest.minor_freeze_ms", stats::median(&freeze_ms), "ms").n(freeze_ms.len()),
    );
    d.push(Metric::new("ingest.compact_ms", compact_ms, "ms").n(compacted_len));
    d.push(
        Metric::new(
            "ingest.sampler_open_us",
            open_s * 1e6 / opens.max(1) as f64,
            "us",
        )
        .n(opens),
    );
    d.push(
        Metric::new(
            "ingest.composite_ns_per_sample",
            draw_s * 1e9 / samples.max(1) as f64,
            "ns",
        )
        .n(samples),
    );
    d.push(Metric::new("ingest.run_count", run_count as f64, "count"));
    d.push(Metric::new(
        "ingest.epochs_mixed",
        traced.epochs as f64,
        "count",
    ));
    d.push(Metric::new(
        "estimators.ns_per_sample",
        est_s * 1e9 / samples.max(1) as f64,
        "ns",
    ));
    d.push(Metric::new(
        "untraced_inserts_per_s",
        overhead.plain_rate,
        "1/s",
    ));
    d.push(Metric::new(
        "traced_inserts_per_s",
        overhead.traced_rate,
        "1/s",
    ));
    d.push(Metric::new("spans", tracer.len() as f64, "count"));

    let result = WorkloadResult {
        workload: "ingest_mixed",
        n: preloaded.len(),
        seconds: opts.seconds,
        metrics,
        diagnostics: d,
        phases: [Phase {
            name: "ladder",
            sent: 2 * sessions as u64,
            failed,
            wrong: failed,
        }]
        .into_iter()
        .chain(overhead.phases)
        .collect(),
        notes: plain.notes.iter().chain(&traced.notes).cloned().collect(),
    };
    super::write_trace(&tracer, &result);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_work_is_whole_batches_and_never_too_little_for_the_traced_run() {
        assert_eq!(write_items(0.1), MIN_WRITE);
        let items = write_items(15.0);
        assert_eq!(items % BATCH, 0);
        assert!(items as f64 <= WRITE_PER_RUN_SECOND * 15.0);
        // The traced run spends this much outside its two mixed phases.
        let cfg = IngestConfig::default();
        let spent = 64 * BATCH
            + 3 * cfg.delta_limit
            + (cfg.max_runs / 2) * cfg.delta_limit
            + cfg.delta_limit / 2;
        assert!(spent <= MIN_WRITE);
    }
}
