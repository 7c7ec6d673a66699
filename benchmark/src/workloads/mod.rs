//! The four workloads and what they share.

pub mod engine;
pub mod ingest;
pub mod serve;

use std::path::Path;
use std::time::Instant;

use storm_geo::{Point2, Rect2};
use storm_rtree::Item;

use crate::gen::Window;
use crate::report::{Metric, Phase, WorkloadResult};
use crate::stats::{self, Summary};
use crate::trace::Tracer;

/// What one invocation asks of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    /// Length of the timed phase(s), in seconds.
    pub seconds: f64,
    /// Small inputs and short phases: a functional check, not a measurement.
    pub smoke: bool,
    /// Per-layer run (ladder plus traced generator) instead of end-to-end.
    pub trace: bool,
}

impl Opts {
    /// Untimed warm-up before the timed phase: lets lazily built state
    /// (worker snapshots, allocator pools, the page cache of the arena)
    /// settle, which users pay once, not per query.
    pub fn warmup_s(&self) -> f64 {
        if self.smoke {
            0.3
        } else {
            2.0
        }
    }
}

/// The program's layers, outermost first, by module: `server::wire`,
/// `server::scheduler`, `core::parallel`, `core::frozen` + `rtree::frozen`,
/// `estimators`, `core::ingest` + `store::runs`, `storm-query`, and
/// `engine::exec`/`dataset` + `store` reads. Every traced run reports a
/// self-time share for each; a layer off the workload's path reads zero.
pub const LAYERS: [&str; 8] = [
    "wire",
    "scheduler",
    "parallel",
    "frozen",
    "estimators",
    "ingest",
    "query",
    "engine",
];

/// Writes a traced run's spans and summary under `benchmark/out/`.
pub fn write_trace(tracer: &Tracer, result: &WorkloadResult) {
    let path = format!("benchmark/out/trace-{}.json", result.workload);
    if let Err(e) = tracer.write(Path::new(&path), result.workload, result.to_value()) {
        eprintln!("warning: could not write {path}: {e}");
    }
}

/// A timed phase is cut into this many equal segments. A throughput is the
/// median of its per-segment values; their spread is the within-run noise.
pub const SEGMENTS: usize = 3;

/// A traced run drives the generator in this many slices, alternately
/// without and with span recording, and compares the medians of each kind.
pub const OVERHEAD_SLICES: usize = 6;

/// Whether slice `i` records spans (1) or not (0): off, on, on, off, off,
/// on — so a steady drift over the run favours neither kind.
pub fn overhead_slice_traced(i: usize) -> usize {
    i.div_ceil(2) % 2
}

/// Set-ups per run. `setup_s` is their median, so one slow page-fault
/// storm does not decide it.
pub const SETUPS: usize = 3;

/// Per-segment rates (per second) of weighted events stamped with the time
/// they completed, over a phase of `dur_ns`. Events after the end are left
/// out.
pub fn segment_rates(events: impl Iterator<Item = (u64, f64)>, dur_ns: u64) -> [f64; SEGMENTS] {
    let mut sums = [0.0; SEGMENTS];
    for (t_ns, weight) in events {
        if t_ns < dur_ns {
            let seg = (t_ns as u128 * SEGMENTS as u128 / dur_ns as u128) as usize;
            sums[seg] += weight;
        }
    }
    let seg_s = dur_ns as f64 / 1e9 / SEGMENTS as f64;
    sums.map(|s| s / seg_s)
}

/// Per-segment medians of latencies stamped with their completion time.
pub fn segment_medians(events: &[(u64, f64)], dur_ns: u64) -> Vec<f64> {
    let mut segs: [Vec<f64>; SEGMENTS] = Default::default();
    for &(t_ns, v) in events {
        if t_ns < dur_ns {
            segs[(t_ns as u128 * SEGMENTS as u128 / dur_ns as u128) as usize].push(v);
        }
    }
    segs.iter()
        .filter(|s| !s.is_empty())
        .map(|s| stats::median(s))
        .collect()
}

/// Runs `build` [`SETUPS`] times, keeping the last product; returns it
/// with the median build time.
pub fn set_up_repeatedly<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("SETUPS >= 1"), stats::median(&times))
}

/// A window as the program's query rectangle.
pub fn rect2(w: &Window) -> Rect2 {
    Rect2::from_corners(Point2::xy(w.x0, w.y0), Point2::xy(w.x1, w.y1))
}

/// Points as the program's items; point `i` gets id `first_id + i`.
pub fn items2(points: &[[f64; 2]], first_id: usize) -> Vec<Item<2>> {
    points
        .iter()
        .enumerate()
        .map(|(i, p)| Item::new(Point2::xy(p[0], p[1]), (first_id + i) as u64))
        .collect()
}

/// What a sample stream owes its reader: every item inside the window
/// and, without replacement, no id twice.
pub fn distinct_inside(items: &[Item<2>], w: &Window, without_replacement: bool) -> bool {
    let inside = items
        .iter()
        .all(|it| w.contains(it.point.get(0), it.point.get(1)));
    if !without_replacement {
        return inside;
    }
    let mut ids: Vec<u64> = items.iter().map(|it| it.id).collect();
    ids.sort_unstable();
    inside && ids.windows(2).all(|p| p[0] != p[1])
}

/// A throughput from its per-segment values: their median, with their
/// spread as within-run noise.
pub fn rate_metric(name: &str, rates: [f64; SEGMENTS]) -> Metric {
    Metric::new(name, stats::median(&rates), "1/s")
        .n(SEGMENTS)
        .spread(stats::rel_spread(&rates))
}

/// The supported tail of a summarised latency, named by its level.
pub fn tail_diagnostic(name: &str, summary: Option<Summary>, diagnostics: &mut Vec<Metric>) {
    if let Some((s, (level, value))) = summary.and_then(|s| Some((s, s.tail?))) {
        diagnostics.push(Metric::new(format!("{name}_p{level}_ms"), value, "ms").n(s.n));
    }
}

/// The per-layer metrics of the contract from a ladder's self times:
/// every layer's share of the top rung (zero for a layer not on it), the
/// top rung per operation, and the recording overhead.
pub fn layer_metrics(
    selfs: &[(&'static str, f64)],
    top_s: f64,
    ops: usize,
    overhead: &Overhead,
) -> Vec<Metric> {
    let mut metrics: Vec<Metric> = LAYERS
        .iter()
        .map(|&layer| {
            let self_s = selfs.iter().find(|s| s.0 == layer).map_or(0.0, |s| s.1);
            Metric::new(format!("{layer}.self_share"), self_s / top_s * 100.0, "%")
        })
        .collect();
    metrics.push(Metric::new("ladder.top_us_per_op", top_s * 1e6 / ops as f64, "us").n(ops));
    metrics.push(Metric::new("trace_overhead_pct", overhead.pct(), "%"));
    metrics
}

/// What span recording costs the generator: its rate without and with.
pub struct Overhead {
    pub plain_rate: f64,
    pub traced_rate: f64,
    /// Requests of the untraced and of the traced slices.
    pub phases: [Phase; 2],
}

impl Overhead {
    pub fn pct(&self) -> f64 {
        (self.plain_rate - self.traced_rate) / self.plain_rate * 100.0
    }

    /// Runs the generator in [`OVERHEAD_SLICES`] slices of `seconds`
    /// altogether, handing `slice` the recorder to use (off, on, on, off,
    /// off, on). `slice` returns its completion rate and adds what it sent
    /// to the phase it is given.
    pub fn measure(
        seconds: f64,
        tracer: &mut Tracer,
        mut slice: impl FnMut(f64, &mut Tracer, &mut Phase) -> f64,
    ) -> Overhead {
        let slice_s = seconds / OVERHEAD_SLICES as f64;
        let mut off = Tracer::new(false);
        let mut rates: [Vec<f64>; 2] = Default::default();
        let mut phases = [Phase::new("untraced"), Phase::new("traced")];
        for i in 0..OVERHEAD_SLICES {
            let on = overhead_slice_traced(i);
            let recorder = if on == 1 { &mut *tracer } else { &mut off };
            rates[on].push(slice(slice_s, recorder, &mut phases[on]));
        }
        Overhead {
            plain_rate: stats::median(&rates[0]),
            traced_rate: stats::median(&rates[1]),
            phases,
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fall_into_their_segment_and_late_ones_are_left_out() {
        let dur = 3_000_000_000u64;
        let events = [
            (0u64, 1.0),
            (999_999_999, 1.0),
            (1_000_000_000, 5.0),
            (2_999_999_999, 2.0),
            (3_000_000_000, 100.0),
        ];
        assert_eq!(segment_rates(events.into_iter(), dur), [2.0, 5.0, 2.0]);
        let meds = segment_medians(&[(0, 4.0), (1, 6.0), (2_500_000_000, 9.0)], dur);
        assert_eq!(meds, vec![5.0, 9.0]);
    }

    #[test]
    fn overhead_slices_alternate_in_mirrored_pairs() {
        let kinds: Vec<usize> = (0..OVERHEAD_SLICES).map(overhead_slice_traced).collect();
        assert_eq!(kinds, vec![0, 1, 1, 0, 0, 1]);
    }

    #[test]
    fn repeated_set_up_keeps_the_last_and_reports_the_median() {
        let mut calls = 0;
        let (last, median) = set_up_repeatedly(|| {
            calls += 1;
            calls
        });
        assert_eq!((last, calls), (SETUPS, SETUPS));
        assert!(median >= 0.0);
    }
}
