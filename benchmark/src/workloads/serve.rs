//! The two workloads that cross the socket: `serve_short` and
//! `converge_ci`. One process, one generator thread, one connection; the
//! server runs in-process with two shards behind a unix socket under
//! `benchmark/out/`.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use storm_core::{
    DistributedRsTree, FrozenRsTree, ParallelRsCluster, RsTree, RsTreeConfig, SampleMode,
    SpatialSampler,
};
use storm_engine::StopReason;
use storm_estimators::OnlineStat;
use storm_rtree::Item;
use storm_server::{
    QuerySpec, ServeConfig, SessionEvent, SessionServer, WireClient, WireEvent, WireServer,
};

use super::{
    distinct_inside, items2, layer_metrics, rate_metric, rect2 as rect, segment_medians,
    segment_rates, set_up_repeatedly, tail_diagnostic, Opts, Overhead,
};
use crate::gen::{self, Truth, Window};
use crate::report::{Metric, Phase, WorkloadResult};
use crate::sched::{Lateness, Schedule};
use crate::stats::{self, summarize};
use crate::trace::{ladder_self, Rung, Tracer};

const SHARDS: usize = 2;
const FANOUT: usize = 64;
/// After a POLL sweep that found nothing, the generator sleeps this long
/// so that, on two cores, it does not starve the server it is measuring.
const IDLE_SLEEP: Duration = Duration::from_micros(100);
/// A session not done this long after it was opened counts as failed.
const SESSION_TIMEOUT_NS: u64 = 5_000_000_000;

/// What distinguishes the two workloads.
#[derive(Debug, Clone, Copy)]
pub struct Kind {
    pub name: &'static str,
    /// The window pool is a `lattice × lattice` grid.
    lattice: usize,
    /// Window side as a share of the extent, per axis.
    frac: f64,
    mode: SampleMode,
    sample_budget: Option<u64>,
    target_error: Option<f64>,
    /// Sessions replayed at each rung of the ladder.
    ladder_sessions: usize,
}

/// Many analysts, short looks: per-session fixed costs dominate.
pub const SERVE_SHORT: Kind = Kind {
    name: "serve_short",
    lattice: 16,
    frac: 0.02,
    mode: SampleMode::WithReplacement,
    sample_budget: Some(256),
    target_error: None,
    ladder_sessions: 2000,
};

/// One analyst watching one estimate converge: per-sample costs dominate.
pub const CONVERGE_CI: Kind = Kind {
    name: "converge_ci",
    lattice: 8,
    frac: 0.2,
    mode: SampleMode::WithoutReplacement,
    sample_budget: None,
    target_error: Some(2e-4),
    ladder_sessions: 96,
};

/// `serve_short`'s open-loop phase: arrivals per second, about a third of
/// what the burst phase sustains on the seed, and the limit a first
/// estimate should meet (beyond it an analyst notices the wait). The share
/// of sessions over the limit is reported, not counted as failed: one time
/// slice lost by this process on a shared box puts a few hundred sessions
/// over it, which says nothing about their outputs.
const OPEN_RATE: f64 = 2500.0;
const TTFE_LIMIT_MS: f64 = 100.0;
/// `serve_short`'s closed-loop phase: this many analysts arrive together,
/// and the next burst arrives when the last of them has its answer.
const BURST: usize = 256;

fn n_points(opts: &Opts) -> usize {
    if opts.smoke {
        1 << 16
    } else {
        1 << 21
    }
}

/// The running system: index built and frozen, server listening, client
/// connected. Dropping it stops every thread it started.
struct Served {
    server: Option<Arc<SessionServer>>,
    wire: Option<WireServer>,
    client: Option<WireClient>,
    sock: PathBuf,
}

impl Served {
    /// Data handed over → first request could be sent.
    fn set_up(points: &[[f64; 2]]) -> Served {
        let items = items2(points, 0);
        let cluster =
            DistributedRsTree::bulk_load(items, SHARDS, RsTreeConfig::with_fanout(FANOUT))
                .into_parallel();
        // Workers freeze their shard when they start; one draw through
        // every shard returns only once all of them have.
        {
            let mut rng = StdRng::seed_from_u64(0);
            let mut s = cluster.sampler(rect(&Window::FULL), SampleMode::WithReplacement, 0);
            let mut buf = Vec::with_capacity(64);
            s.next_batch(&mut rng, &mut buf, 64);
        }
        let server = Arc::new(SessionServer::start(cluster, ServeConfig::default()));
        std::fs::create_dir_all("benchmark/out").expect("create benchmark/out");
        // Relative, so the path fits a socket address however deep the
        // checkout lies.
        let sock = PathBuf::from(format!("benchmark/out/e2e-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&sock);
        let wire = WireServer::bind_unix(Arc::clone(&server), &sock).expect("bind unix socket");
        let client = WireClient::connect_unix(&sock).expect("connect to own server");
        Served {
            server: Some(server),
            wire: Some(wire),
            client: Some(client),
            sock,
        }
    }

    fn client(&mut self) -> &mut WireClient {
        self.client.as_mut().expect("client lives until drop")
    }

    fn server(&self) -> &SessionServer {
        self.server.as_ref().expect("server lives until shutdown")
    }

    /// Hangs up, stops the listener and the scheduler, and hands back the
    /// worker cluster (still running) for the ladder's lower rungs.
    fn shut_down(&mut self) -> Option<ParallelRsCluster> {
        drop(self.client.take());
        drop(self.wire.take());
        let _ = std::fs::remove_file(&self.sock);
        let mut server = self.server.take()?;
        // The connection thread holds the other reference until it sees
        // the hang-up.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match Arc::try_unwrap(server) {
                Ok(s) => return Some(s.shutdown()),
                Err(still_shared) => {
                    if Instant::now() > deadline {
                        return None;
                    }
                    server = still_shared;
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        // Dropping the cluster joins its workers.
        drop(self.shut_down());
    }
}

#[derive(Debug, Clone, Copy)]
enum Loop {
    /// OPENs on a schedule, whatever the server is doing.
    Open { rate: f64 },
    /// A fixed number of sessions in flight; a new one opens when one ends.
    Closed { in_flight: usize },
    /// `size` sessions opened together; the next burst when all are done.
    Bursts { size: usize },
}

/// One finished session as the client saw it. Times are nanoseconds since
/// the phase began.
#[derive(Debug, Clone, Copy)]
struct Finished {
    done_ns: u64,
    ttfe_ms: f64,
    tte_ms: f64,
    samples: u64,
}

struct Flight {
    id: u64,
    query: usize,
    /// Open loop: when the OPEN was due. Closed loop: when it was sent.
    start_ns: u64,
    first_ns: Option<u64>,
    span: Option<usize>,
}

#[derive(Default)]
struct PhaseOut {
    finished: Vec<Finished>,
    sent: u64,
    failed: u64,
    /// Of `failed`: outputs that broke the budget rule or missed the oracle.
    wrong: u64,
    lateness: Lateness,
    /// Sessions whose 95 % interval could be checked, and how many held
    /// the oracle's value.
    checkable: u64,
    covered: u64,
    /// `(when it ended, milliseconds it took)` per completed burst.
    bursts: Vec<(u64, f64)>,
    polls: u64,
    notes: Vec<String>,
}

/// The load generator: queries, truth, and the connection they go over.
struct Generator<'a> {
    kind: Kind,
    windows: &'a [Window],
    truth: &'a [Truth],
    seed: u64,
    opened: u64,
}

impl Generator<'_> {
    fn spec(&self, query: usize, session_seed: u64) -> QuerySpec {
        QuerySpec {
            query: rect(&self.windows[query]),
            mode: self.kind.mode,
            seed: session_seed,
            sample_budget: self.kind.sample_budget,
            time_budget_ms: None,
            target_error: self.kind.target_error,
        }
    }

    /// The next query in pool order and a seed for its session.
    fn next(&mut self) -> (usize, u64) {
        let i = self.opened;
        self.opened += 1;
        (
            (i % self.windows.len() as u64) as usize,
            self.seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        )
    }

    /// Checks one outcome against the budget rule and the oracle. Returns
    /// `Err(why)` for a wrong output; `Ok(Some(covered))` when the 95 %
    /// interval could be checked.
    fn check(
        &self,
        query: usize,
        reason: StopReason,
        samples: u64,
        value: f64,
        std_err: f64,
    ) -> Result<Option<bool>, String> {
        let truth = self.truth[query];
        let exhausted_exactly = reason == StopReason::Exhausted
            && match self.kind.mode {
                SampleMode::WithoutReplacement => samples == truth.count,
                // With replacement never runs dry unless the window is empty.
                SampleMode::WithReplacement => truth.count == 0 && samples == 0,
            };
        let stopped_right = match (self.kind.sample_budget, self.kind.target_error) {
            (Some(budget), _) => reason == StopReason::SampleBudget && samples == budget,
            (None, Some(_)) => reason == StopReason::QualityReached && samples <= truth.count,
            (None, None) => false,
        };
        if !(exhausted_exactly || stopped_right) {
            return Err(format!(
                "query {query}: stopped with {reason:?} after {samples} samples (window holds {})",
                truth.count
            ));
        }
        if truth.count == 0 {
            return Ok(None);
        }
        let slack = 1e-9 * truth.avg_x.abs();
        Ok(Some((value - truth.avg_x).abs() <= 1.96 * std_err + slack))
    }

    /// Drives sessions over `client` for `seconds`, then waits for those
    /// in flight. With `tracer` recording, each call into the wire client
    /// gets a span under its session's span.
    fn drive(
        &mut self,
        client: &mut WireClient,
        how: Loop,
        seconds: f64,
        tracer: &mut Tracer,
    ) -> PhaseOut {
        let dur_ns = (seconds * 1e9) as u64;
        let mut out = PhaseOut::default();
        let mut schedule = match how {
            Loop::Open { rate } => Some(Schedule::new(rate, dur_ns)),
            Loop::Closed { .. } | Loop::Bursts { .. } => None,
        };
        let mut flights: Vec<Flight> = Vec::new();
        // Bursts: when the burst in flight began, and whether its last
        // session (the only one polled while the server works) is pending.
        let mut burst_began: Option<u64> = None;
        let mut watching_last = false;
        let t0 = Instant::now();
        let now = || t0.elapsed().as_nanos() as u64;

        macro_rules! open {
            ($start_ns:expr) => {{
                let (query, session_seed) = self.next();
                let spec = self.spec(query, session_seed);
                let span = tracer.open_span("wire", "session", self.opened);
                let s = tracer.begin();
                let opened = client.open(&spec);
                tracer.end("wire", "open", self.opened, span, s);
                out.sent += 1;
                match opened {
                    Ok(id) => flights.push(Flight {
                        id,
                        query,
                        start_ns: $start_ns,
                        first_ns: None,
                        span,
                    }),
                    Err(e) => {
                        out.failed += 1;
                        out.notes.push(format!("OPEN failed: {e}"));
                    }
                }
            }};
        }

        loop {
            let issuing = now() < dur_ns;
            let mut active = false;
            if flights.is_empty() {
                if let Some(began) = burst_began.take() {
                    let at = now();
                    out.bursts.push((at, (at - began) as f64 / 1e6));
                }
                if !issuing {
                    break;
                }
            }
            if issuing {
                match how {
                    Loop::Closed { in_flight } => {
                        while flights.len() < in_flight {
                            open!(now());
                            active = true;
                        }
                    }
                    Loop::Bursts { size } => {
                        if flights.is_empty() {
                            burst_began = Some(now());
                            while flights.len() < size {
                                open!(now());
                            }
                            watching_last = true;
                            active = true;
                        }
                    }
                    Loop::Open { .. } => {
                        let sched = schedule.as_mut().expect("open loop has a schedule");
                        while let Some(due) = sched.take_due(now()) {
                            out.lateness.note(due, now());
                            open!(due);
                            active = true;
                        }
                    }
                }
            }

            // While a burst's last session is pending, poll only that one:
            // sessions finish in admission order, so the rest need no
            // polling until it is done, and the server keeps the cores.
            let mut i = if watching_last {
                flights.len().saturating_sub(1)
            } else {
                0
            };
            while i < flights.len() {
                let s = tracer.begin();
                let polled = client.poll(flights[i].id);
                tracer.end("wire", "poll", flights[i].id, flights[i].span, s);
                out.polls += 1;
                let at = now();
                let mut ended = false;
                // An event may have more behind it: stay on this session
                // until it has nothing pending.
                let mut pending = true;
                match polled {
                    Ok(None) => pending = false,
                    Ok(Some(WireEvent::Admitted { .. })) => active = true,
                    Ok(Some(WireEvent::Progress { .. })) => {
                        active = true;
                        flights[i].first_ns.get_or_insert(at);
                    }
                    Ok(Some(WireEvent::Rejected { .. })) => {
                        active = true;
                        ended = true;
                        out.failed += 1;
                        out.notes.push("session rejected".into());
                    }
                    Ok(Some(WireEvent::Done {
                        reason,
                        samples,
                        value,
                        std_err,
                        ..
                    })) => {
                        active = true;
                        ended = true;
                        let f = &flights[i];
                        let first = f.first_ns.unwrap_or(at);
                        let ttfe_ms = first.saturating_sub(f.start_ns) as f64 / 1e6;
                        let mut ok = true;
                        match self.check(f.query, reason, samples, value, std_err) {
                            Err(why) => {
                                ok = false;
                                out.wrong += 1;
                                out.notes.push(why);
                            }
                            Ok(None) => {}
                            Ok(Some(covered)) => {
                                out.checkable += 1;
                                out.covered += u64::from(covered);
                            }
                        }
                        if ok {
                            out.finished.push(Finished {
                                done_ns: at,
                                ttfe_ms,
                                tte_ms: at.saturating_sub(f.start_ns) as f64 / 1e6,
                                samples,
                            });
                        } else {
                            out.failed += 1;
                        }
                    }
                    Err(e) => {
                        ended = true;
                        out.failed += 1;
                        out.notes.push(format!("POLL failed: {e}"));
                    }
                }
                if !ended && at.saturating_sub(flights[i].start_ns) > SESSION_TIMEOUT_NS {
                    let _ = client.terminate(flights[i].id);
                    ended = true;
                    out.failed += 1;
                    out.notes.push("session not done within 5 s".into());
                }
                if ended {
                    if i + 1 == flights.len() {
                        watching_last = false;
                    }
                    tracer.close_span(flights[i].span);
                    flights.swap_remove(i);
                    // Closed loop: the replacement opens at once, in the
                    // finished session's place in the sweep.
                    if matches!(how, Loop::Closed { .. }) && now() < dur_ns {
                        open!(now());
                        let last = flights.len() - 1;
                        flights.swap(i, last);
                        i += 1;
                    }
                } else if !pending {
                    i += 1;
                }
                // Keep to the schedule inside a long sweep.
                if let Some(sched) = schedule.as_mut() {
                    while let Some(due) = sched.take_due(now()) {
                        out.lateness.note(due, now());
                        open!(due);
                    }
                }
            }
            if !active {
                std::thread::sleep(IDLE_SLEEP);
            }
        }
        out.notes.sort();
        out.notes.dedup();
        out.notes.truncate(5);
        out
    }
}

/// Sessions whose interval missed the truth beyond the 10 % a pooled 95 %
/// interval is allowed (these count as failed operations), and the share
/// that covered it.
fn coverage_failures(out: &PhaseOut) -> (u64, f64) {
    let needed = (0.9 * out.checkable as f64).ceil() as u64;
    (
        needed.saturating_sub(out.covered),
        out.covered as f64 / out.checkable.max(1) as f64,
    )
}

fn phase(name: &'static str, out: &PhaseOut) -> Phase {
    Phase {
        name,
        sent: out.sent,
        failed: out.failed,
        wrong: out.wrong,
    }
}

/// Median and supported tail of one latency, as a contract metric plus a
/// diagnostic.
fn latency_metrics(
    name: &str,
    finished: &[Finished],
    pick: impl Fn(&Finished) -> f64,
    dur_ns: u64,
    metrics: &mut Vec<Metric>,
    diagnostics: &mut Vec<Metric>,
) {
    let mut values: Vec<f64> = finished.iter().map(&pick).collect();
    let summary = summarize(&mut values);
    let stamped: Vec<(u64, f64)> = finished.iter().map(|f| (f.done_ns, pick(f))).collect();
    let spread = stats::rel_spread(&segment_medians(&stamped, dur_ns));
    let p50 = summary.map_or(f64::NAN, |s| s.p50);
    metrics.push(
        Metric::new(format!("{name}_p50_ms"), p50, "ms")
            .n(values.len())
            .spread(spread),
    );
    tail_diagnostic(name, summary, diagnostics);
}

/// Sessions per second through bursts: burst size over the median time a
/// burst took, open to last answer. The median of many bursts shrugs off
/// the odd burst that a time slice cut in two.
fn burst_rate(bursts: &[(u64, f64)], size: usize, dur_ns: u64) -> Option<(f64, f64)> {
    if bursts.is_empty() {
        return None;
    }
    let all: Vec<f64> = bursts.iter().map(|b| b.1).collect();
    let per_s = |ms: f64| size as f64 / (ms / 1e3);
    let segments: Vec<f64> = segment_medians(bursts, dur_ns)
        .into_iter()
        .map(per_s)
        .collect();
    Some((per_s(stats::median(&all)), stats::rel_spread(&segments)))
}

pub fn run(kind: Kind, opts: &Opts) -> WorkloadResult {
    let n = n_points(opts);
    let points = gen::points(n, opts.seed);
    let windows = gen::windows(kind.lattice, kind.frac, opts.seed);
    let t = Instant::now();
    let truth = gen::oracle(&points, &windows);
    let oracle_s = t.elapsed().as_secs_f64();
    let mut generator = Generator {
        kind,
        windows: &windows,
        truth: &truth,
        seed: opts.seed,
        opened: 0,
    };
    if opts.trace {
        return trace(&mut generator, &points, opts, oracle_s);
    }

    let (mut served, setup_s) = set_up_repeatedly(|| Served::set_up(&points));
    let mut off = Tracer::new(false);
    let mut metrics = Vec::new();
    let mut diagnostics = Vec::new();
    let mut phases = Vec::new();

    // `timed` is the phase whose sessions give the latencies.
    let (warm, mut timed, dur_ns) = if kind.sample_budget.is_some() {
        // serve_short: an open-loop phase for latency, then bursts for
        // throughput, half of the time each.
        let half = opts.seconds / 2.0;
        let dur_ns = (half * 1e9) as u64;
        let bursts = Loop::Bursts { size: BURST };
        let open = Loop::Open { rate: OPEN_RATE };
        let warm = generator.drive(served.client(), bursts, opts.warmup_s(), &mut off);
        let a = generator.drive(served.client(), open, half, &mut off);
        let b = generator.drive(served.client(), bursts, half, &mut off);
        let (rate, spread) = burst_rate(&b.bursts, BURST, dur_ns).unwrap_or((f64::NAN, 0.0));
        let budget = kind.sample_budget.unwrap_or(0) as f64;
        let bursts_n = b.bursts.len();
        metrics.push(
            Metric::new("sessions_per_s", rate, "1/s")
                .n(bursts_n)
                .spread(spread),
        );
        metrics.push(
            Metric::new("samples_per_s", rate * budget, "1/s")
                .n(bursts_n)
                .spread(spread),
        );
        let mut burst_ms: Vec<f64> = b.bursts.iter().map(|x| x.1).collect();
        tail_diagnostic("burst", summarize(&mut burst_ms), &mut diagnostics);
        let polls_per_session = b.polls as f64 / b.sent.max(1) as f64;
        diagnostics.push(Metric::new(
            "burst_polls_per_session",
            polls_per_session,
            "count",
        ));
        diagnostics.push(Metric::new("open_loop_rate", OPEN_RATE, "1/s"));
        let late = a.lateness;
        diagnostics
            .push(Metric::new("late_share", late.late_share(), "share").n(late.sent as usize));
        diagnostics.push(Metric::new("late_max_ms", late.max_ns as f64 / 1e6, "ms"));
        let over = a
            .finished
            .iter()
            .filter(|f| f.ttfe_ms > TTFE_LIMIT_MS)
            .count();
        let over_share = over as f64 / a.finished.len().max(1) as f64;
        diagnostics.push(Metric::new("ttfe_over_limit_share", over_share, "share").n(over));
        phases.push(phase("bursts", &b));
        // The bursts' outputs are checked with the timed phase's.
        let mut a = a;
        a.checkable += b.checkable;
        a.covered += b.covered;
        a.notes.extend(b.notes);
        (warm, a, dur_ns)
    } else {
        // converge_ci: one analyst, one session in flight, the whole time.
        let dur_ns = (opts.seconds * 1e9) as u64;
        let one = Loop::Closed { in_flight: 1 };
        let warm = generator.drive(served.client(), one, opts.warmup_s(), &mut off);
        let a = generator.drive(served.client(), one, opts.seconds, &mut off);
        let per_segment = |weight: fn(&Finished) -> f64| {
            segment_rates(a.finished.iter().map(|f| (f.done_ns, weight(f))), dur_ns)
        };
        metrics.push(rate_metric("sessions_per_s", per_segment(|_| 1.0)));
        metrics.push(rate_metric(
            "samples_per_s",
            per_segment(|f| f.samples as f64),
        ));
        let samples: Vec<f64> = a.finished.iter().map(|f| f.samples as f64).collect();
        if !samples.is_empty() {
            let p50 = stats::median(&samples);
            diagnostics.push(Metric::new("samples_per_session_p50", p50, "count").n(samples.len()));
        }
        let polls_per_session = a.polls as f64 / a.sent.max(1) as f64;
        diagnostics.push(Metric::new("polls_per_session", polls_per_session, "count"));
        (warm, a, dur_ns)
    };
    let sessions = &timed.finished;
    latency_metrics(
        "ttfe",
        sessions,
        |f| f.ttfe_ms,
        dur_ns,
        &mut metrics,
        &mut diagnostics,
    );
    latency_metrics(
        "tte",
        sessions,
        |f| f.tte_ms,
        dur_ns,
        &mut metrics,
        &mut diagnostics,
    );
    let (missed, coverage) = coverage_failures(&timed);
    timed.failed += missed;
    timed.wrong += missed;
    phases.insert(0, phase("warm-up", &warm));
    phases.insert(
        1,
        phase(
            if kind.sample_budget.is_some() {
                "open-loop"
            } else {
                "closed-loop"
            },
            &timed,
        ),
    );

    // The write path these workloads have is the bulk load of set-up.
    metrics.push(Metric::new("inserts_per_s", n as f64 / setup_s, "1/s").n(super::SETUPS));
    metrics.push(Metric::new("setup_s", setup_s, "s").n(super::SETUPS));
    metrics.push(Metric::new("peak_rss_mb", super::peak_rss_mb(), "MiB"));
    diagnostics.push(Metric::new("ci_coverage", coverage, "share"));
    diagnostics.push(Metric::new("oracle_s", oracle_s, "s"));
    drop(served);
    let mut notes = warm.notes;
    notes.extend(timed.notes);
    WorkloadResult {
        workload: kind.name,
        n,
        seconds: opts.seconds,
        metrics,
        diagnostics,
        phases,
        notes,
    }
}

/// One session through the scheduler without the wire: `open`, then block
/// on events until `Done`. Returns samples drawn and µs to first estimate.
fn session_direct(server: &SessionServer, spec: QuerySpec) -> Option<(u64, f64)> {
    let t = Instant::now();
    let handle = server.open(spec);
    let mut first = None;
    loop {
        match handle.recv_event()? {
            SessionEvent::Admitted { .. } => {}
            SessionEvent::Rejected { .. } => return None,
            SessionEvent::Progress { .. } => {
                first.get_or_insert_with(|| t.elapsed());
            }
            SessionEvent::Done { outcome, .. } => {
                let first = first.unwrap_or_else(|| t.elapsed());
                return Some((outcome.samples, first.as_secs_f64() * 1e6));
            }
        }
    }
}

/// Draws `want` samples in blocks of the scheduler's round size, feeding
/// x into the estimator and reading it once per scheduler quantum, as a
/// session does. Returns the items drawn.
fn draw_session(
    sampler: &mut dyn SpatialSampler<2>,
    mode: SampleMode,
    want: u64,
    seed: u64,
    keep: &mut Vec<Item<2>>,
) -> f64 {
    let cfg = ServeConfig::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stat = match (mode, sampler.result_size()) {
        (SampleMode::WithoutReplacement, Some(q)) => OnlineStat::without_replacement(q),
        _ => OnlineStat::new(),
    };
    keep.clear();
    let mut since_read = 0;
    let mut sink = 0.0;
    while (keep.len() as u64) < want {
        let before = keep.len();
        let k = cfg.block.min((want - before as u64) as usize);
        if sampler.next_batch(&mut rng, keep, k) == 0 {
            break;
        }
        for item in &keep[before..] {
            stat.push(item.point.get(0));
        }
        since_read += keep.len() - before;
        if since_read >= cfg.quantum {
            since_read = 0;
            sink += stat.mean_estimate().std_err;
        }
    }
    sink + stat.mean_estimate().value
}

/// What the ladder's two sampler rungs share: the query list, how many
/// samples each session drew at the scheduler rung, and where spans,
/// failures and notes go.
struct Replay<'a> {
    list: &'a [(usize, u64)],
    drawn: &'a [u64],
    windows: &'a [Window],
    mode: SampleMode,
    tracer: &'a mut Tracer,
    parents: &'a mut [Option<usize>],
    phase: &'a mut Phase,
    notes: &'a mut Vec<String>,
    sink: f64,
}

impl Replay<'_> {
    /// Replays the list on samplers made by `open`, each session drawing
    /// what the scheduler rung drew for it; `after` sees each session's
    /// items. Returns total seconds, mean µs to open, and samples drawn.
    fn rung<S: SpatialSampler<2>>(
        &mut self,
        layer: &'static str,
        mut open: impl FnMut(&Window, u64) -> S,
        mut after: impl FnMut(&[Item<2>]),
    ) -> (f64, f64, u64) {
        let mut keep: Vec<Item<2>> = Vec::new();
        let (mut total_s, mut open_us, mut samples) = (0.0, 0.0, 0u64);
        for (i, &(query, seed)) in self.list.iter().enumerate() {
            let window = &self.windows[query];
            let s = self.tracer.begin();
            let t = Instant::now();
            let mut sampler = open(window, seed);
            open_us += t.elapsed().as_secs_f64() * 1e6;
            self.sink += draw_session(&mut sampler, self.mode, self.drawn[i], seed, &mut keep);
            drop(sampler);
            total_s += t.elapsed().as_secs_f64();
            self.parents[i] = self
                .tracer
                .end(layer, "session", i as u64, self.parents[i], s);
            samples += keep.len() as u64;
            self.phase.sent += 1;
            let wor = self.mode == SampleMode::WithoutReplacement;
            if keep.len() as u64 != self.drawn[i] || !distinct_inside(&keep, window, wor) {
                self.phase.failed += 1;
                self.phase.wrong += 1;
                self.notes.push(format!(
                    "{layer} rung: query {query} drew {} of {} distinct-inside",
                    keep.len(),
                    self.drawn[i]
                ));
            }
            after(&keep);
        }
        (total_s, open_us / self.list.len() as f64, samples)
    }
}

/// Bytes of one frame on the socket: 4-byte length prefix plus payload, by
/// the layout documented in `server::wire`. Computed, not captured.
mod frame {
    pub const OPEN_REQ: u64 = 4 + 1 + 32 + 1 + 8 + 8 + 8 + 8;
    pub const OPEN_RESP: u64 = 4 + 1 + 8;
    pub const POLL_REQ: u64 = 4 + 1 + 8;
    pub const POLL_NONE: u64 = 4 + 2;
    pub const POLL_ADMIT: u64 = 4 + 2 + 8;
    pub const POLL_PROGRESS: u64 = 4 + 2 + 8 + 8 + 8 + 8;
    pub const POLL_DONE: u64 = 4 + 2 + 8 + 1 + 8 + 8 + 8;
}

/// The per-layer run: the ladder, top down, then the generator untraced
/// and traced for the recording overhead.
fn trace(
    generator: &mut Generator<'_>,
    points: &[[f64; 2]],
    opts: &Opts,
    oracle_s: f64,
) -> WorkloadResult {
    let kind = generator.kind;
    let n = points.len();
    let sessions = if opts.smoke {
        kind.ladder_sessions / 8
    } else {
        kind.ladder_sessions
    };
    let mut served = Served::set_up(points);
    let mut tracer = Tracer::new(true);
    let mut d = Vec::new();
    let mut notes = Vec::new();
    let mut ladder_phase = Phase::new("ladder");
    let how = match kind.sample_budget {
        Some(_) => Loop::Bursts { size: BURST },
        None => Loop::Closed { in_flight: 1 },
    };
    let warm = generator.drive(
        served.client(),
        how,
        opts.warmup_s(),
        &mut Tracer::new(false),
    );

    // The ladder's query list: fixed here, replayed at every rung.
    let list: Vec<(usize, u64)> = (0..sessions).map(|_| generator.next()).collect();
    let stats_before = served.server().stats();

    // Each rung's span names the same query's span one rung up as parent.
    let mut parents: Vec<Option<usize>> = vec![None; sessions];

    // Rung 1, wire: WireClient::open / poll, one session at a time.
    let mut frames = 0u64;
    let mut bytes = 0u64;
    let mut open_us = 0.0;
    let t = Instant::now();
    for (i, &(query, seed)) in list.iter().enumerate() {
        let spec = generator.spec(query, seed);
        let span = tracer.open_span("wire", "session", i as u64);
        parents[i] = span;
        let t_open = Instant::now();
        let Ok(id) = served.client().open(&spec) else {
            ladder_phase.failed += 1;
            continue;
        };
        open_us += t_open.elapsed().as_secs_f64() * 1e6;
        frames += 2;
        bytes += frame::OPEN_REQ + frame::OPEN_RESP;
        loop {
            let event = served.client().poll(id);
            frames += 2;
            bytes += frame::POLL_REQ;
            match event {
                Ok(None) => {
                    bytes += frame::POLL_NONE;
                    std::thread::sleep(IDLE_SLEEP);
                }
                Ok(Some(WireEvent::Admitted { .. })) => bytes += frame::POLL_ADMIT,
                Ok(Some(WireEvent::Progress { .. })) => bytes += frame::POLL_PROGRESS,
                Ok(Some(WireEvent::Done { .. })) => {
                    bytes += frame::POLL_DONE;
                    break;
                }
                Ok(Some(WireEvent::Rejected { .. })) | Err(_) => {
                    ladder_phase.failed += 1;
                    break;
                }
            }
        }
        tracer.close_span(span);
    }
    let wire_s = t.elapsed().as_secs_f64();
    ladder_phase.sent += sessions as u64;

    // POLL on a session the server no longer knows: the bare round trip.
    let rtt_polls = if opts.smoke { 500 } else { 5000 };
    let t = Instant::now();
    for _ in 0..rtt_polls {
        let _ = served.client().poll(u64::MAX);
    }
    let poll_rtt_us = t.elapsed().as_secs_f64() * 1e6 / rtt_polls as f64;

    // Rung 2, scheduler: SessionServer::open + recv_event, no socket.
    let mut drawn: Vec<u64> = Vec::with_capacity(sessions);
    let mut sched_ttfe_us: Vec<f64> = Vec::with_capacity(sessions);
    let t = Instant::now();
    for (i, &(query, seed)) in list.iter().enumerate() {
        let s = tracer.begin();
        match session_direct(served.server(), generator.spec(query, seed)) {
            Some((samples, ttfe_us)) => {
                drawn.push(samples);
                sched_ttfe_us.push(ttfe_us);
            }
            None => {
                drawn.push(0);
                ladder_phase.failed += 1;
            }
        }
        parents[i] = tracer.end("scheduler", "session", i as u64, parents[i], s);
    }
    let sched_s = t.elapsed().as_secs_f64();
    ladder_phase.sent += sessions as u64;
    let stats_after = served.server().stats();

    // The generator over the same server, spans off and on: what
    // recording costs the end-to-end numbers.
    let overhead = Overhead::measure(opts.seconds, &mut tracer, |slice_s, recorder, phase| {
        let out = generator.drive(served.client(), how, slice_s, recorder);
        let slice_ns = (slice_s * 1e9) as u64;
        let done = out.finished.iter().filter(|f| f.done_ns < slice_ns).count();
        phase.sent += out.sent;
        phase.failed += out.failed;
        phase.wrong += out.wrong;
        notes.extend(out.notes);
        done as f64 / slice_s
    });
    let (open_span_s, open_spans) = tracer.total("wire", "open");
    let (poll_span_s, poll_spans) = tracer.total("wire", "poll");

    // Rungs 3 and 4 replay the list on samplers they open themselves.
    let mut replay = Replay {
        list: &list,
        drawn: &drawn,
        windows: generator.windows,
        mode: kind.mode,
        tracer: &mut tracer,
        parents: &mut parents,
        phase: &mut ladder_phase,
        notes: &mut notes,
        sink: 0.0,
    };

    // Rung 3, parallel: ParallelRsCluster::sampler + next_batch.
    let Some(cluster) = served.shut_down() else {
        panic!("server still shared five seconds after its client hung up");
    };
    let (par_s, parallel_open_us, total_samples) = replay.rung(
        "parallel",
        |w, seed| cluster.sampler(rect(w), kind.mode, seed),
        |_| {},
    );

    // Rung 4, frozen: FrozenRsTree::sampler + next_batch on a one-shard
    // freeze of the same data.
    let boxed = RsTree::bulk_load(items2(points, 0), RsTreeConfig::with_fanout(FANOUT));
    let t = Instant::now();
    let frozen: Arc<FrozenRsTree<2>> = Arc::new(boxed.freeze());
    let freeze_s = t.elapsed().as_secs_f64();
    drop(boxed);
    let mut columns: Vec<Vec<f64>> = Vec::with_capacity(sessions);
    let (frozen_s, frozen_open_us, _) = replay.rung(
        "frozen",
        |w, _| frozen.sampler(&rect(w), kind.mode),
        |drawn| columns.push(drawn.iter().map(|it| it.point.get(0)).collect()),
    );
    let mut sink = replay.sink;
    drop(cluster);
    let t = Instant::now();
    let mut counted = 0usize;
    for &(query, _) in &list {
        counted += frozen.exact_count(&rect(&generator.windows[query]));
    }
    let exact_count_us = t.elapsed().as_secs_f64() * 1e6 / sessions as f64;
    sink += counted as f64;

    // The kernel alone, both modes, blocks of 256 over the pool.
    let kernel_ns = |mode: SampleMode| {
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let per_window = if opts.smoke { 256 } else { 4096 };
        let mut buf: Vec<Item<2>> = Vec::with_capacity(256);
        let mut got = 0usize;
        let t = Instant::now();
        for w in generator.windows {
            let mut s = frozen.sampler(&rect(w), mode);
            for _ in 0..per_window / 256 {
                buf.clear();
                got += s.next_batch(&mut rng, &mut buf, 256);
            }
        }
        t.elapsed().as_secs_f64() * 1e9 / got.max(1) as f64
    };
    let (kernel_wr_ns, kernel_wor_ns) = (
        kernel_ns(SampleMode::WithReplacement),
        kernel_ns(SampleMode::WithoutReplacement),
    );
    let tree = frozen.tree();
    let node_bytes: usize = (0..tree.height()).map(|l| tree.nodes_at(l) * 4 * 8).sum();
    let arena_bytes_per_item = (n * (2 * 8 + 8) + node_bytes) as f64 / n as f64;

    // Rung 5, estimators: OnlineStat::push / mean_estimate on the column.
    let t = Instant::now();
    for (i, column) in columns.iter().enumerate() {
        let s = tracer.begin();
        let mut stat = OnlineStat::new();
        for (j, &x) in column.iter().enumerate() {
            stat.push(x);
            if j % 256 == 255 {
                sink += stat.mean_estimate().std_err;
            }
        }
        sink += stat.mean_estimate().value;
        tracer.end("estimators", "session", i as u64, parents[i], s);
    }
    let est_s = t.elapsed().as_secs_f64();
    std::hint::black_box(sink);

    let rungs = [
        Rung::new("wire", wire_s),
        Rung::new("scheduler", sched_s),
        Rung::new("parallel", par_s),
        Rung::new("frozen", frozen_s),
        Rung::new("estimators", est_s),
    ];
    let selfs = ladder_self(&rungs);
    let per_session = |s: f64| s * 1e6 / sessions as f64;
    let samples = total_samples.max(1) as f64;
    let metrics = layer_metrics(&selfs, wire_s, sessions, &overhead);

    for (rung, (layer, self_s)) in rungs.iter().zip(&selfs) {
        d.push(
            Metric::new(
                format!("{layer}.rung_us_per_session"),
                per_session(rung.total_s),
                "us",
            )
            .n(sessions),
        );
        d.push(Metric::new(
            format!("{layer}.self_us_per_session"),
            per_session(*self_s),
            "us",
        ));
        d.push(Metric::new(
            format!("{layer}.self_ns_per_sample"),
            self_s * 1e9 / samples,
            "ns",
        ));
    }
    d.push(Metric::new("wire.open_us", open_us / sessions as f64, "us").n(sessions));
    d.push(Metric::new("wire.poll_rtt_us", poll_rtt_us, "us").n(rtt_polls));
    d.push(Metric::new(
        "wire.frames_per_session",
        frames as f64 / sessions as f64,
        "count",
    ));
    d.push(Metric::new(
        "wire.bytes_per_session",
        bytes as f64 / sessions as f64,
        "B",
    ));
    d.push(
        Metric::new(
            "wire.traced_open_us",
            open_span_s * 1e6 / open_spans.max(1) as f64,
            "us",
        )
        .n(open_spans),
    );
    d.push(
        Metric::new(
            "wire.traced_poll_us",
            poll_span_s * 1e6 / poll_spans.max(1) as f64,
            "us",
        )
        .n(poll_spans),
    );
    if !sched_ttfe_us.is_empty() {
        d.push(
            Metric::new("scheduler.ttfe_us", stats::median(&sched_ttfe_us), "us")
                .n(sched_ttfe_us.len()),
        );
    }
    if let (Some(b), Some(a)) = (stats_before, stats_after) {
        d.push(Metric::new(
            "scheduler.admitted",
            (a.admitted - b.admitted) as f64,
            "count",
        ));
        d.push(Metric::new(
            "scheduler.rejected",
            (a.rejected - b.rejected) as f64,
            "count",
        ));
        d.push(Metric::new(
            "scheduler.done",
            (a.done - b.done) as f64,
            "count",
        ));
    }
    d.push(Metric::new("parallel.open_us", parallel_open_us, "us"));
    d.push(Metric::new("frozen.open_us", frozen_open_us, "us"));
    d.push(Metric::new("frozen.exact_count_us", exact_count_us, "us"));
    d.push(Metric::new("frozen.ns_per_sample_wr", kernel_wr_ns, "ns"));
    d.push(Metric::new("frozen.ns_per_sample_wor", kernel_wor_ns, "ns"));
    d.push(Metric::new("frozen.freeze_s", freeze_s, "s"));
    d.push(Metric::new(
        "frozen.arena_bytes_per_item",
        arena_bytes_per_item,
        "B",
    ));
    d.push(Metric::new(
        "estimators.ns_per_sample",
        est_s * 1e9 / samples,
        "ns",
    ));
    d.push(Metric::new(
        "samples_per_session",
        samples / sessions as f64,
        "count",
    ));
    d.push(Metric::new(
        "untraced_sessions_per_s",
        overhead.plain_rate,
        "1/s",
    ));
    d.push(Metric::new(
        "traced_sessions_per_s",
        overhead.traced_rate,
        "1/s",
    ));
    d.push(Metric::new("spans", tracer.len() as f64, "count"));
    d.push(Metric::new("oracle_s", oracle_s, "s"));

    notes.extend(warm.notes.iter().cloned());
    notes.truncate(8);
    let result = WorkloadResult {
        workload: kind.name,
        n,
        seconds: opts.seconds,
        metrics,
        diagnostics: d,
        phases: [phase("warm-up", &warm), ladder_phase]
            .into_iter()
            .chain(overhead.phases)
            .collect(),
        notes,
    };
    super::write_trace(&tracer, &result);
    result
}
