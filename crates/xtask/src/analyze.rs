//! `storm-analyzer` — the A1–A3 structural passes over [`crate::front`]
//! facts and the [`crate::callgraph`] workspace call graph, the A4–A9
//! hot-path cost passes over the [`crate::cfg`] loop-aware CFG, and the
//! A10–A13 concurrency passes over the [`crate::conc`] thread-role facts.
//!
//! | pass | name | guards against |
//! |------|------|----------------|
//! | A1 | `lock-order` | cycles in the lock-acquisition graph of `storm-core`/`storm-store`/`storm-engine` — potential deadlocks |
//! | A2 | `determinism-taint` | `HashMap`/`HashSet` iteration order, wall-clock (`Instant`/`SystemTime`), or thread-id values reachable from the sampler/estimator API — silent seeded-replay breaks (lint R2's structural sibling) |
//! | A3 | `protocol-conformance` | shard-protocol enums (those sent over a channel) with variants never constructed or never consumed by a match arm anywhere in their module unit |
//! | A4 | `hot-loop-alloc` | allocation/`.clone()`/`.collect()` inside a loop of a function the core sampling API can reach — per-sample constant-factor cost on the hot path |
//! | A5 | `per-item-channel` | per-item channel `send`/`recv` inside a loop when a batched protocol variant is in scope — each message is a context switch the batch variant amortizes |
//! | A6 | `lock-across-blocking` | a lock guard held across a blocking call (`send`/`recv`/`recv_timeout`/`join`/`sleep`) — every contending thread stalls behind the block |
//! | A7 | `unconfined-worker-panic` | panic-capable ops (`unwrap`/`expect`/indexing/integer div) on a spawned worker thread with no `catch_unwind` between — a panic silently kills the shard and wedges the gather |
//! | A8 | `node-view-in-loop` | `NodeView` construction (`.visit(…)`/`.view_free_of_charge(…)`) inside a loop of a function the core sampling API reaches — per-iteration boxed-node pointer chases the frozen flat-array layout answers arithmetically |
//! | A9 | `tick-loop-alloc` | allocation/`.clone()`/`.collect()` inside a loop of a function the session scheduler's tick path reaches — the tick loops iterate live sessions, so each such site is a per-session-per-tick cost that caps serving throughput |
//! | A10 | `atomic-ordering` | half-synchronized atomic publish/guard pairs: a `Relaxed` load of a location stored with Release, or a `Relaxed` store of a location loaded with Acquire — the settled-prefix contract the delta buffer's samplers rely on |
//! | A11 | `epoch-pin` | registry snapshot discipline: publish-class calls inside a `with_current` closure (read→write self-deadlock) and pin-class calls in a sampling-cone loop (mid-stream epoch re-read biases the draw) |
//! | A12 | `protocol-fsm` | per-path protocol automaton: no Fill-class op after a Close-class op on any acyclic path, and `Swap` issued only from tick-boundary code |
//! | A13 | `blocking-channel` | blocking channel ops under a held lock, timeout-less `recv` on the tick path, and channel results unwrapped at the call site (peer-drop panics) |
//!
//! All passes are *over-approximate*: the call graph links by name, lock
//! identity is the receiver's textual path (qualified by the impl type for
//! `self.…` receivers), and guard lifetimes are assumed to extend to the end
//! of the acquiring block. A finding is therefore a *potential* problem;
//! the escape hatches are the analyzer's own allow directive
//!
//! ```text
//! // storm-analyzer: allow(A2): count() over values() is order-independent
//! ```
//!
//! and the findings baseline (`crates/xtask/analyze.baseline`), which holds
//! accepted pre-existing findings so CI only fails on *new* ones.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::Duration;

use crate::callgraph::{self, CallGraph, FnId};
use crate::cfg::{self, Cfg, CostKind};
use crate::conc;
use crate::front::{self, FactKind, FileFacts};
use crate::rules::DirectiveSpec;
use crate::Diagnostic;

/// One analyzer pass, for `--list` output and CI rationale printing.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    /// Short id (`A1`…`A3`).
    pub id: &'static str,
    /// Kebab-case name usable in allow directives.
    pub name: &'static str,
    /// What the pass enforces (one line).
    pub rationale: &'static str,
}

/// All passes, in id order.
pub const PASSES: [Pass; 13] = [
    Pass {
        id: "A1",
        name: "lock-order",
        rationale: "two threads taking the same locks in different orders can \
                    deadlock the executor; the lock-acquisition graph across \
                    core/store/engine must stay acyclic",
    },
    Pass {
        id: "A2",
        name: "determinism-taint",
        rationale: "HashMap/HashSet iteration order, wall-clock reads, and \
                    thread ids reaching the sampler/estimator output cone \
                    break replay-under-seed — the substrate of the paper's \
                    any-time sampling guarantee",
    },
    Pass {
        id: "A3",
        name: "protocol-conformance",
        rationale: "every shard-protocol variant must be both constructed and \
                    consumed by a match arm in its defining module, or the \
                    scatter-gather executor can wedge on a message nobody \
                    sends or nobody handles",
    },
    Pass {
        id: "A4",
        name: "hot-loop-alloc",
        rationale: "an allocation, clone, or collect inside a loop of a \
                    function the core sampling API reaches is a per-sample \
                    constant-factor cost — hoist it out of the loop or reuse \
                    a buffer",
    },
    Pass {
        id: "A5",
        name: "per-item-channel",
        rationale: "a per-item channel send/recv in a loop, with a batched \
                    protocol variant in scope, pays one context switch per \
                    item where the batch variant pays one per round",
    },
    Pass {
        id: "A6",
        name: "lock-across-blocking",
        rationale: "a lock guard held across send/recv/recv_timeout/join/\
                    sleep stalls every thread contending on that lock for \
                    the full blocking duration — drop the guard first",
    },
    Pass {
        id: "A7",
        name: "unconfined-worker-panic",
        rationale: "unwrap/expect/indexing/integer-div on a spawned worker \
                    thread with no catch_unwind between kills the shard \
                    silently; the executor's gather then waits on a corpse",
    },
    Pass {
        id: "A8",
        name: "node-view-in-loop",
        rationale: "a NodeView built per loop iteration on a sampling-cone \
                    path chases a boxed-node pointer per item; the frozen \
                    flat-array layout answers the same counts and ranges \
                    arithmetically — descend on the frozen tree or hoist \
                    the view",
    },
    Pass {
        id: "A9",
        name: "tick-loop-alloc",
        rationale: "the session scheduler's tick loops iterate every live \
                    session, so an allocation, clone, or collect inside one \
                    is a per-session-per-tick cost that caps multi-tenant \
                    serving throughput — hoist it into reused scheduler \
                    scratch",
    },
    Pass {
        id: "A10",
        name: "atomic-ordering",
        rationale: "a Relaxed load guarding data published by a Release \
                    store (or a Relaxed store feeding an Acquire load) is \
                    half a synchronization: the settled-prefix and handoff \
                    contracts need the full Release/Acquire pair",
    },
    Pass {
        id: "A11",
        name: "epoch-pin",
        rationale: "publishing from inside with_current self-deadlocks on \
                    the registry lock, and re-pinning the epoch inside a \
                    sampling loop mixes epochs mid-draw — in-flight streams \
                    must keep their open-time snapshot",
    },
    Pass {
        id: "A12",
        name: "protocol-fsm",
        rationale: "on every acyclic path, session protocol ops must \
                    respect Open before Fill before Close — no Fill after \
                    Close — and Swap may only be issued from tick-boundary \
                    code, or an epoch swap can tear an in-flight session's \
                    pinned snapshot",
    },
    Pass {
        id: "A13",
        name: "blocking-channel",
        rationale: "a blocking channel op under a lock stalls every \
                    contender, a timeout-less recv on the tick path stalls \
                    every live session, and an unwrapped channel result \
                    panics the thread when its peer endpoint drops",
    },
];

/// Renders a finding with the analyzer's own tool prefix
/// ([`Diagnostic`]'s `Display` belongs to storm-lint).
pub fn render(d: &Diagnostic) -> String {
    format!(
        "{}:{}:{}: storm-analyzer[{}]: {}",
        d.path, d.line, d.col, d.rule, d.message
    )
}

/// The storm-analyzer directive dialect
/// (`// storm-analyzer: allow(A2): why`).
pub fn analyzer_directives() -> DirectiveSpec {
    DirectiveSpec {
        tool: "storm-analyzer",
        known: PASSES.iter().map(|p| (p.id, p.name)).collect(),
        hint: "A1..A13 or their names",
    }
}

/// Path prefixes A1 builds its lock graph from.
const A1_SCOPE: [&str; 3] = [
    "crates/core/src/",
    "crates/store/src/",
    "crates/engine/src/",
];

/// Path prefixes whose determinism facts A2 reports.
const A2_SCOPE: [&str; 3] = [
    "crates/core/src/",
    "crates/estimators/src/",
    "crates/rtree/src/",
];

/// Core sampling-API names that root the A2 output cone (alongside every
/// public estimator function).
const A2_CORE_ROOTS: [&str; 5] = ["next_sample", "next_batch", "draw", "prefill", "sampler"];

/// Path prefixes whose hot-loop costs A4 reports (the A2 scope plus the
/// store, whose scan loops feed the executor).
const A4_SCOPE: [&str; 4] = [
    "crates/core/src/",
    "crates/estimators/src/",
    "crates/rtree/src/",
    "crates/store/src/",
];

/// Paths A5 examines for per-item channel traffic: the scatter-gather
/// executor — its workers and its one coordinator — and the store (the
/// two places the workspace does channel IO).
const A5_SCOPE: [&str; 2] = ["crates/core/src/parallel", "crates/store/src/"];

/// Path prefixes A7 scans for worker-thread panic exposure (where threads
/// are spawned: executor, store, engine).
const A7_SCOPE: [&str; 3] = [
    "crates/core/src/",
    "crates/store/src/",
    "crates/engine/src/",
];

/// Path prefixes A8 scans for per-iteration `NodeView` construction (the
/// boxed tree and the samplers over it).
const A8_SCOPE: [&str; 2] = ["crates/rtree/src/", "crates/core/src/"];

/// Path prefixes A9 scans: the serving layer, whose scheduler tick loops
/// iterate live sessions, and the shard coordinator, whose rounds and
/// gather every tick drives over those sessions' requests.
const A9_SCOPE: [&str; 2] = [
    "crates/server/src/",
    "crates/core/src/parallel/coordinator.rs",
];

/// Function names rooting the A9 tick cone within [`A9_SCOPE`]: the
/// scheduler thread's entry loop and its per-tick driver, and the
/// coordinator's round entry points (whose gather they reach).
const A9_ROOTS: [&str; 5] = ["run", "tick", "queue_fill", "fill_round", "apply_round"];

/// Roots of the scheduler tick cone ([`A9_ROOTS`] within [`A9_SCOPE`]).
/// Shared by A9 (tick-loop-alloc) and A13 (blocking-channel).
pub(crate) fn tick_roots(g: &CallGraph<'_>) -> Vec<FnId> {
    let mut roots: Vec<FnId> = Vec::new();
    for id in g.all_fns() {
        let f = g.fun(id);
        if f.in_test || !in_scope(g.path(id), &A9_SCOPE) {
            continue;
        }
        if A9_ROOTS.contains(&f.name.as_str()) {
            roots.push(id);
        }
    }
    roots.sort();
    roots
}

pub(crate) fn in_scope(path: &str, scope: &[&str]) -> bool {
    scope.iter().any(|s| path.starts_with(s))
}

/// Wall-clock spent in each pass of one analysis run, in [`PASSES`] order.
#[derive(Debug, Clone, Default)]
pub struct PassTimings {
    /// `(pass id, duration)` pairs, one per pass.
    pub per_pass: Vec<(&'static str, Duration)>,
    /// Lex + fact extraction + call-graph + CFG construction time.
    pub front_end: Duration,
    /// Whole-run wall clock (front end + passes + directive application).
    pub total: Duration,
}

/// Analyzes a set of `(rel_path, source)` files: extracts facts, builds the
/// call graph, per-fn CFGs, and concurrency fact tables, runs A1–A13, and
/// applies analyzer allow directives per file.
pub fn analyze_sources(files: &[(String, String)]) -> Vec<Diagnostic> {
    analyze_sources_opts(files, false).0
}

/// [`analyze_sources`] plus per-pass wall-clock timings (for `--timings`
/// and the CI time budget).
pub fn analyze_sources_timed(files: &[(String, String)]) -> (Vec<Diagnostic>, PassTimings) {
    analyze_sources_opts(files, false)
}

/// [`analyze_sources_timed`] with optional pass-level parallelism: the
/// fact tables are built once (they dominate the wall clock and are
/// inherently sequential per file), then every pass reads them from its
/// own thread. Findings and per-pass timings are identical either way —
/// passes share no mutable state and results are collected in [`PASSES`]
/// order; each pass times itself on its own thread, so `--timings` stays
/// honest about per-pass cost while `total` reflects the parallel wall
/// clock.
pub fn analyze_sources_opts(
    files: &[(String, String)],
    parallel: bool,
) -> (Vec<Diagnostic>, PassTimings) {
    let t_start = std::time::Instant::now();
    let lexed: Vec<crate::lexer::Lexed> = files.iter().map(|(_, s)| crate::lexer::lex(s)).collect();
    // A module split over files is one protocol unit: each file also sees
    // the enums its unit siblings declare (see `front::module_unit`).
    let decls: Vec<Vec<front::EnumDecl>> = lexed
        .iter()
        .map(|l| front::extract_enums(&l.tokens))
        .collect();
    let facts: Vec<FileFacts> = files
        .iter()
        .zip(&lexed)
        .enumerate()
        .map(|(i, ((p, _), l))| {
            let siblings = files
                .iter()
                .zip(&decls)
                .enumerate()
                .filter(|(j, ((q, _), _))| {
                    *j != i && front::module_unit(q) == front::module_unit(p)
                })
                .flat_map(|(_, (_, d))| d.iter().cloned())
                .collect();
            front::extract_in_unit(p, l, siblings)
        })
        .collect();
    let graph = callgraph::build(&facts);
    let cfgs: Vec<Vec<Cfg>> = facts
        .iter()
        .zip(&lexed)
        .map(|(file, lex)| {
            file.fns
                .iter()
                .map(|f| cfg::build(&lex.tokens, f.body_span))
                .collect()
        })
        .collect();
    let concs: Vec<conc::ConcFacts> = facts
        .iter()
        .zip(&lexed)
        .map(|(file, lex)| conc::extract(file, lex))
        .collect();
    let mut timings = PassTimings {
        front_end: t_start.elapsed(),
        ..PassTimings::default()
    };

    let run_pass = |id: &'static str| -> Vec<Diagnostic> {
        match id {
            "A1" => pass_lock_order(&graph),
            "A2" => pass_determinism_taint(&graph),
            "A3" => pass_protocol_conformance(&graph),
            "A4" => pass_hot_loop_alloc(&graph, &cfgs),
            "A5" => pass_per_item_channel(&graph, &cfgs),
            "A6" => pass_lock_across_blocking(&graph, &cfgs),
            "A7" => pass_unconfined_worker_panic(&graph, &cfgs),
            "A8" => pass_node_view_in_loop(&graph, &cfgs),
            "A9" => pass_tick_loop_alloc(&graph, &cfgs),
            "A10" => conc::pass_atomic_ordering(&graph, &concs),
            "A11" => conc::pass_epoch_pin(&graph, &cfgs, &concs),
            "A12" => conc::pass_protocol_fsm(&graph, &cfgs, &concs),
            "A13" => conc::pass_channel_blocking(&graph, &cfgs, &concs),
            other => unreachable!("unknown pass id {other}"),
        }
    };
    let timed = |id: &'static str| -> (Vec<Diagnostic>, (&'static str, Duration)) {
        let t = std::time::Instant::now();
        let d = run_pass(id);
        (d, (id, t.elapsed()))
    };

    let mut diags = Vec::new();
    if parallel {
        // The fact tables are shared immutably; one scoped thread per pass.
        let results = std::thread::scope(|s| {
            let handles: Vec<_> = PASSES.iter().map(|p| s.spawn(|| timed(p.id))).collect();
            handles
                .into_iter()
                // storm-lint: allow(R6): a panicking analyzer pass must fail the xtask run loudly — re-raising here is the point, there is no gather to wedge
                .map(|h| h.join().expect("analyzer pass panicked"))
                .collect::<Vec<_>>()
        });
        for (d, t) in results {
            diags.extend(d);
            timings.per_pass.push(t);
        }
    } else {
        for p in &PASSES {
            let (d, t) = timed(p.id);
            diags.extend(d);
            timings.per_pass.push(t);
        }
    }

    // Allow directives are per file: partition, apply, re-merge.
    let mut final_diags = Vec::new();
    let spec = analyzer_directives();
    for ((path, _), lex) in files.iter().zip(&lexed) {
        let mut file_diags: Vec<Diagnostic> =
            diags.iter().filter(|d| &d.path == path).cloned().collect();
        crate::rules::apply_allow_directives(&spec, path, lex, &mut file_diags);
        final_diags.extend(file_diags);
    }
    final_diags.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
    timings.total = t_start.elapsed();
    (final_diags, timings)
}

/// Walks the workspace sources (same roots as [`crate::lint_workspace`])
/// and analyzes every `.rs` file together, so the call graph crosses crate
/// boundaries.
pub fn analyze_workspace(repo_root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    Ok(analyze_workspace_timed(repo_root)?.0)
}

/// [`analyze_workspace`] with per-pass timings.
pub fn analyze_workspace_timed(
    repo_root: &Path,
) -> std::io::Result<(Vec<Diagnostic>, PassTimings)> {
    analyze_workspace_opts(repo_root, false)
}

/// [`analyze_workspace_timed`] with optional pass-level parallelism
/// (`cargo xtask analyze --parallel`).
pub fn analyze_workspace_opts(
    repo_root: &Path,
    parallel: bool,
) -> std::io::Result<(Vec<Diagnostic>, PassTimings)> {
    let mut sources = Vec::new();
    for file in crate::workspace_rs_files(repo_root)? {
        let rel = file
            .strip_prefix(repo_root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, std::fs::read_to_string(&file)?));
    }
    Ok(analyze_sources_opts(&sources, parallel))
}

// ---------------------------------------------------------------------------
// A1: lock-order
// ---------------------------------------------------------------------------

/// Identity of a lock for graph purposes: the receiver's textual path,
/// prefixed by the impl type for `self.…` receivers so `self.meta` in two
/// different types stays two locks.
pub(crate) fn lock_key(f: &front::FnSummary, recv: &str) -> String {
    if recv == "self" || recv.starts_with("self.") {
        if let Some(q) = &f.qual {
            return format!("{q}::{recv}");
        }
    }
    recv.to_string()
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct EdgeProv {
    path: String,
    line: u32,
    col: u32,
    fn_key: String,
}

/// Builds the lock-acquisition graph and reports every strongly-connected
/// component containing a cycle (including interprocedural self-loops: a
/// function re-acquiring, via a callee, a lock it already holds).
fn pass_lock_order(g: &CallGraph<'_>) -> Vec<Diagnostic> {
    // edges[a][b] = example provenance for "b acquired while a held".
    let mut edges: BTreeMap<String, BTreeMap<String, EdgeProv>> = BTreeMap::new();
    let mut trans_locks: BTreeMap<FnId, BTreeSet<String>> = BTreeMap::new();
    let mut locks_of = |g: &CallGraph<'_>, id: FnId| -> BTreeSet<String> {
        if let Some(cached) = trans_locks.get(&id) {
            return cached.clone();
        }
        let mut set = BTreeSet::new();
        for r in g.reachable_from(&[id]) {
            if !in_scope(g.path(r), &A1_SCOPE) {
                continue;
            }
            let rf = g.fun(r);
            for l in &rf.locks {
                set.insert(lock_key(rf, &l.recv));
            }
        }
        trans_locks.insert(id, set.clone());
        set
    };

    for id in g.all_fns() {
        let f = g.fun(id);
        if f.in_test || !in_scope(g.path(id), &A1_SCOPE) || f.locks.is_empty() {
            continue;
        }
        let fn_key = f.key();
        // Intra: later acquisitions while earlier guards (lexically) held.
        for (i, held) in f.locks.iter().enumerate() {
            let held_key = lock_key(f, &held.recv);
            for later in &f.locks[i + 1..] {
                let later_key = lock_key(f, &later.recv);
                if later_key == held_key {
                    continue; // drop/re-lock of the same lock, not an order
                }
                edges
                    .entry(held_key.clone())
                    .or_default()
                    .entry(later_key)
                    .or_insert_with(|| EdgeProv {
                        path: g.path(id).to_string(),
                        line: later.line,
                        col: later.col,
                        fn_key: fn_key.clone(),
                    });
            }
            // Inter: locks acquired by callees invoked after this point.
            for call in &f.calls {
                if call.order <= held.order {
                    continue;
                }
                for callee in g.resolve_call(call) {
                    if callee == id {
                        continue;
                    }
                    for callee_lock in locks_of(g, callee) {
                        edges
                            .entry(held_key.clone())
                            .or_default()
                            .entry(callee_lock)
                            .or_insert_with(|| EdgeProv {
                                path: g.path(id).to_string(),
                                line: call.line,
                                col: 1,
                                fn_key: fn_key.clone(),
                            });
                    }
                }
            }
        }
    }

    // Cycle detection: node n is cyclic when n reaches itself through >= 1
    // edge. Group mutually-reaching cyclic nodes into one report.
    let reach = |from: &str| -> BTreeSet<String> {
        let mut seen = BTreeSet::new();
        let mut stack: Vec<&str> = edges
            .get(from)
            .map(|m| m.keys().map(String::as_str).collect())
            .unwrap_or_default();
        while let Some(n) = stack.pop() {
            if seen.insert(n.to_string()) {
                if let Some(next) = edges.get(n) {
                    stack.extend(next.keys().map(String::as_str));
                }
            }
        }
        seen
    };
    let reachable: BTreeMap<&String, BTreeSet<String>> =
        edges.keys().map(|n| (n, reach(n))).collect();

    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    let mut out = Vec::new();
    for (node, reached) in &reachable {
        if !reached.contains(node.as_str()) {
            continue; // not on a cycle
        }
        // SCC of `node`: every cyclic partner that also reaches back.
        let mut scc: Vec<String> = reached
            .iter()
            .filter(|m| reachable.get(m).is_some_and(|r| r.contains(node.as_str())))
            .cloned()
            .collect();
        scc.sort();
        if !reported.insert(scc.clone()) {
            continue;
        }
        // Anchor the report at the smallest in-SCC edge provenance.
        let prov = scc
            .iter()
            .filter_map(|a| edges.get(a))
            .flat_map(|m| m.iter())
            .filter(|(b, _)| scc.contains(b))
            .map(|(_, p)| p)
            .min()
            .cloned()
            .expect("cyclic SCC has at least one internal edge");
        out.push(Diagnostic {
            path: prov.path,
            line: prov.line,
            col: prov.col,
            rule: "A1",
            message: format!(
                "lock-order cycle between {{{}}} — e.g. acquired in \
                 conflicting order in `{}`; threads interleaving these \
                 acquisitions can deadlock [lock-order]",
                scc.join(", "),
                prov.fn_key
            ),
        });
    }
    out
}

// ---------------------------------------------------------------------------
// A2: determinism taint
// ---------------------------------------------------------------------------

/// Roots of the sampling-API cone: the core sampling API by name, plus
/// every public estimator fn. Shared by A2 (taint cone) and A4 (hot-path
/// cone).
pub(crate) fn sampling_api_roots(g: &CallGraph<'_>) -> Vec<FnId> {
    let mut roots: Vec<FnId> = Vec::new();
    for id in g.all_fns() {
        let f = g.fun(id);
        if f.in_test {
            continue;
        }
        let path = g.path(id);
        let core_root =
            path.starts_with("crates/core/src/") && A2_CORE_ROOTS.contains(&f.name.as_str());
        let est_root = path.starts_with("crates/estimators/src/") && f.is_pub;
        if core_root || est_root {
            roots.push(id);
        }
    }
    roots.sort();
    roots
}

/// Flags nondeterministic inputs (hash iteration order, wall clock, thread
/// ids) in any function the sampler/estimator API can reach.
fn pass_determinism_taint(g: &CallGraph<'_>) -> Vec<Diagnostic> {
    let roots = sampling_api_roots(g);

    // BFS from each root in order; first root to reach a function names it
    // in the diagnostic (deterministic because roots are sorted).
    let mut cone: BTreeMap<FnId, FnId> = BTreeMap::new();
    for &root in &roots {
        for id in g.reachable_from(&[root]) {
            cone.entry(id).or_insert(root);
        }
    }

    let mut out = Vec::new();
    for (&id, &root) in &cone {
        let f = g.fun(id);
        if f.in_test || !in_scope(g.path(id), &A2_SCOPE) {
            continue;
        }
        let root_key = g.fun(root).key();
        for fact in &f.facts {
            let message = match &fact.kind {
                FactKind::HashIter { var, method } => format!(
                    "`{var}` ({method}) iterates a HashMap/HashSet inside \
                     `{}`, which the sampler/estimator API `{root_key}` can \
                     reach — RandomState ordering differs per process and \
                     breaks seeded replay; use BTreeMap or insertion-ordered \
                     storage [determinism-taint]",
                    f.key()
                ),
                FactKind::TimeSource { what } => format!(
                    "`{what}::now()` inside `{}`, which the \
                     sampler/estimator API `{root_key}` can reach — \
                     wall-clock values differ per run and break seeded \
                     replay [determinism-taint]",
                    f.key()
                ),
                FactKind::ThreadId => format!(
                    "thread-id inside `{}`, which the sampler/estimator API \
                     `{root_key}` can reach — scheduler-dependent values \
                     break seeded replay [determinism-taint]",
                    f.key()
                ),
                FactKind::FloatAccum => continue, // summarised, not reported
            };
            out.push(Diagnostic {
                path: g.path(id).to_string(),
                line: fact.line,
                col: fact.col,
                rule: "A2",
                message,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// A3: protocol conformance
// ---------------------------------------------------------------------------

/// Checks shard-protocol enums — any enum some non-test function sends over
/// a channel — for produced-and-consumed conformance. Uses are pooled over
/// the declaring file's module unit ([`front::module_unit`]), so a protocol
/// declared in `parallel/protocol.rs`, sent from `parallel/cluster.rs` and
/// matched in `parallel/worker.rs` is checked as the one protocol it is.
fn pass_protocol_conformance(g: &CallGraph<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in g.files {
        if file.enums.is_empty() {
            continue;
        }
        let unit = front::module_unit(&file.path);
        let uses: Vec<&front::VariantUse> = g
            .files
            .iter()
            .filter(|f| front::module_unit(&f.path) == unit)
            .flat_map(|f| &f.fns)
            .filter(|f| !f.in_test)
            .flat_map(|f| &f.variant_uses)
            .collect();
        for decl in &file.enums {
            // Protocol enums: declared here and sent by some non-test fn.
            if !uses.iter().any(|u| u.in_send && u.enum_name == decl.name) {
                continue;
            }
            for variant in &decl.variants {
                let of_variant = |consume: bool| {
                    uses.iter().any(|u| {
                        u.enum_name == decl.name && &u.variant == variant && u.is_consume == consume
                    })
                };
                let missing = match (of_variant(false), of_variant(true)) {
                    (true, true) => continue,
                    (false, true) => "constructed by no producer site",
                    (true, false) => "consumed by no match arm",
                    (false, false) => "neither constructed nor consumed",
                };
                out.push(Diagnostic {
                    path: file.path.clone(),
                    line: decl.line,
                    col: 1,
                    rule: "A3",
                    message: format!(
                        "protocol variant `{}::{variant}` is {missing} in \
                         this module — a half-wired protocol arm wedges or \
                         leaks shard workers [protocol-conformance]",
                        decl.name
                    ),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// A4: hot-loop-alloc
// ---------------------------------------------------------------------------

/// Flags allocations, `.clone()`, and `.collect()` at loop depth >= 1 in
/// functions the core sampling API can reach — per-sample constant-factor
/// costs on the hot path. Cold sites (assertion/panic macro arguments) are
/// skipped by policy: failure-path formatting is not hot-path work.
fn pass_hot_loop_alloc(g: &CallGraph<'_>, cfgs: &[Vec<Cfg>]) -> Vec<Diagnostic> {
    let roots = sampling_api_roots(g);
    let cone = g.reachable_from(&roots);
    let mut out = Vec::new();
    for &id in &cone {
        let f = g.fun(id);
        if f.in_test || !in_scope(g.path(id), &A4_SCOPE) {
            continue;
        }
        let body = &cfgs[id.0][id.1];
        for site in &body.sites {
            if site.loop_depth == 0 || site.cold {
                continue;
            }
            let what = match &site.kind {
                CostKind::Alloc(w) => format!("allocation `{w}`"),
                CostKind::Clone => "`.clone()`".to_string(),
                CostKind::Collect => "`.collect()`".to_string(),
                _ => continue,
            };
            out.push(Diagnostic {
                path: g.path(id).to_string(),
                line: site.line,
                col: site.col,
                rule: "A4",
                message: format!(
                    "{what} at loop depth {} inside `{}`, which the core \
                     sampling API reaches — a per-item constant cost on the \
                     hot path; hoist it out of the loop or reuse a buffer \
                     [hot-loop-alloc]",
                    site.loop_depth,
                    f.key()
                ),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// A5: per-item-channel
// ---------------------------------------------------------------------------

/// Flags channel `send`/`recv` ops inside a loop when a batched protocol
/// variant is in scope in the same file (an enum variant or function whose
/// name contains "batch"): the batch variant amortizes one context switch
/// per round where the per-item op pays one per item.
///
/// A send whose payload mentions the batched variant by name is the batch
/// path itself — telling it to batch would be circular — so those sites
/// are exempt.
fn pass_per_item_channel(g: &CallGraph<'_>, cfgs: &[Vec<Cfg>]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (fi, file) in g.files.iter().enumerate() {
        if !in_scope(&file.path, &A5_SCOPE) {
            continue;
        }
        // "Batched variant in scope": a same-unit protocol-enum variant or
        // same-file fn named after batching. Purely lexical, like the rest of the
        // front end — the point is to fire only where a batched
        // alternative demonstrably exists.
        let batched: Option<String> = file
            .visible_enums()
            .flat_map(|e| e.variants.iter().map(move |v| format!("{}::{v}", e.name)))
            .find(|v| v.to_lowercase().contains("batch"))
            .or_else(|| {
                file.fns
                    .iter()
                    .find(|f| f.name.to_lowercase().contains("batch"))
                    .map(front::FnSummary::key)
            });
        let Some(batched) = batched else { continue };
        for (gi, f) in file.fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            for site in &cfgs[fi][gi].sites {
                if site.loop_depth == 0 || site.cold || site.sends_batch {
                    continue;
                }
                let op = match &site.kind {
                    CostKind::ChannelSend(m) | CostKind::ChannelRecv(m) => m,
                    _ => continue,
                };
                out.push(Diagnostic {
                    path: file.path.clone(),
                    line: site.line,
                    col: site.col,
                    rule: "A5",
                    message: format!(
                        "per-item `.{op}(…)` at loop depth {} inside `{}` \
                         while a batched variant (`{batched}`) is in scope — \
                         every message is a channel round-trip the batch \
                         variant amortizes; send/receive batches per round \
                         [per-item-channel]",
                        site.loop_depth,
                        f.key()
                    ),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// A6: lock-across-blocking
// ---------------------------------------------------------------------------

/// Flags blocking calls (`send`, `recv`, `recv_timeout`, `recv_deadline`,
/// `join`, `sleep` — never the `try_*` variants) made while a lock guard is
/// held. The held region is the CFG's lexical approximation: acquisition to
/// `drop(guard)`, statement end (temporary guards), or enclosing block
/// close.
fn pass_lock_across_blocking(g: &CallGraph<'_>, cfgs: &[Vec<Cfg>]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for id in g.all_fns() {
        let f = g.fun(id);
        if f.in_test || !in_scope(g.path(id), &A1_SCOPE) {
            continue;
        }
        let body = &cfgs[id.0][id.1];
        for region in &body.lock_regions {
            for site in &body.sites {
                if !site.kind.is_blocking() || !(region.held.0..=region.held.1).contains(&site.tok)
                {
                    continue;
                }
                let op = match &site.kind {
                    CostKind::ChannelSend(m) | CostKind::ChannelRecv(m) | CostKind::Blocking(m) => {
                        m
                    }
                    _ => unreachable!("is_blocking() admits only channel/blocking kinds"),
                };
                out.push(Diagnostic {
                    path: g.path(id).to_string(),
                    line: site.line,
                    col: site.col,
                    rule: "A6",
                    message: format!(
                        "blocking `.{op}(…)` inside `{}` while the `{}` \
                         guard (acquired line {}) is held — every thread \
                         contending on that lock stalls for the full \
                         blocking duration; drop the guard first \
                         [lock-across-blocking]",
                        f.key(),
                        region.recv,
                        region.line
                    ),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// A7: unconfined-worker-panic
// ---------------------------------------------------------------------------

/// Flags panic-capable ops that run on a spawned worker thread with no
/// `catch_unwind` between the spawn and the op. Two layers:
///
/// 1. **lexical** — panic sites directly inside a `spawn(…)` argument list
///    and not inside a `catch_unwind(…)` argument list;
/// 2. **spawn entry** — one interprocedural hop: functions called directly
///    from an unprotected spawn closure (the `spawn(move || run_shard(…))`
///    pattern) have their own panic sites flagged too.
///
/// Propagation deliberately stops at one hop: the call graph links method
/// calls by bare name, so following the spawn entry's calls transitively
/// (e.g. `serve_stream` calling `.next_batch(…)`) would mark every
/// same-named sampler method in the workspace — including coordinator-side
/// code — as worker code. One precise hop plus the lexical layer keeps the
/// pass honest; R1 (`no-unwrap`) covers general library-path panic hygiene.
///
/// Cold sites (assertion/panic macro arguments) are skipped: deliberate
/// panics are the containment mechanism's job, not an accident.
fn pass_unconfined_worker_panic(g: &CallGraph<'_>, cfgs: &[Vec<Cfg>]) -> Vec<Diagnostic> {
    // Spawn entries: targets of unprotected calls inside spawn args.
    let mut worker: BTreeSet<FnId> = BTreeSet::new();
    let resolve = |c: &cfg::CfgCall| -> Vec<FnId> {
        let synth = front::CallSite {
            name: c.name.clone(),
            qual: c.qual.clone(),
            is_method: c.is_method,
            line: c.line,
            order: 0,
        };
        g.resolve_call(&synth)
    };
    for id in g.all_fns() {
        if g.fun(id).in_test {
            continue;
        }
        for c in &cfgs[id.0][id.1].calls {
            if c.in_spawn && !c.in_catch {
                worker.extend(resolve(c));
            }
        }
    }

    let mut seen: BTreeSet<(String, u32, u32)> = BTreeSet::new();
    let mut out = Vec::new();
    let mut report = |path: &str, f: &front::FnSummary, site: &cfg::CostSite, how: &str| {
        let CostKind::PanicOp(op) = &site.kind else {
            return;
        };
        if !seen.insert((path.to_string(), site.line, site.col)) {
            return;
        }
        out.push(Diagnostic {
            path: path.to_string(),
            line: site.line,
            col: site.col,
            rule: "A7",
            message: format!(
                "panic-capable `{op}` {how} `{}` with no catch_unwind \
                 between — a panic here kills the worker silently and the \
                 gather waits on a corpse; contain it or return a Result \
                 [unconfined-worker-panic]",
                f.key()
            ),
        });
    };
    for id in g.all_fns() {
        let f = g.fun(id);
        let path = g.path(id);
        if f.in_test || !in_scope(path, &A7_SCOPE) {
            continue;
        }
        let body = &cfgs[id.0][id.1];
        let in_worker_fn = worker.contains(&id);
        for site in &body.sites {
            if site.cold || !matches!(site.kind, CostKind::PanicOp(_)) {
                continue;
            }
            let in_catch = cfg::in_ranges(&body.catch_args, site.tok);
            if in_catch {
                continue;
            }
            if cfg::in_ranges(&body.spawn_args, site.tok) {
                report(path, f, site, "in the spawn closure of");
            } else if in_worker_fn {
                report(path, f, site, "on the worker-thread path through");
            }
        }
    }
    out.sort_by(|a, b| (a.path.as_str(), a.line, a.col).cmp(&(b.path.as_str(), b.line, b.col)));
    out
}

// ---------------------------------------------------------------------------
// A8: node-view-in-loop
// ---------------------------------------------------------------------------

/// Methods that materialise a boxed-tree `NodeView`.
const NODE_VIEW_CTORS: [&str; 2] = ["visit", "view_free_of_charge"];

/// Flags `NodeView` construction at loop depth >= 1 in functions the core
/// sampling API can reach. Each view is a boxed-node pointer chase (plus a
/// simulated block read for the charged `visit`); the frozen flat-array
/// layout (`FrozenRTree`) answers the same child counts and item ranges
/// with index arithmetic over contiguous columns. A view built per
/// iteration on the sampling cone is therefore exactly the cost the frozen
/// kernel exists to remove — descend on the frozen tree, or hoist the view
/// out of the loop when the node is loop-invariant.
fn pass_node_view_in_loop(g: &CallGraph<'_>, cfgs: &[Vec<Cfg>]) -> Vec<Diagnostic> {
    let roots = sampling_api_roots(g);
    let cone = g.reachable_from(&roots);
    let mut out = Vec::new();
    for &id in &cone {
        let f = g.fun(id);
        if f.in_test || !in_scope(g.path(id), &A8_SCOPE) {
            continue;
        }
        for call in &cfgs[id.0][id.1].calls {
            if call.loop_depth == 0
                || !call.is_method
                || !NODE_VIEW_CTORS.contains(&call.name.as_str())
            {
                continue;
            }
            out.push(Diagnostic {
                path: g.path(id).to_string(),
                line: call.line,
                col: call.col,
                rule: "A8",
                message: format!(
                    "NodeView built by `.{}(…)` at loop depth {} inside \
                     `{}`, which the core sampling API reaches — one boxed-\
                     node pointer chase per iteration; the frozen flat-array \
                     layout answers the same counts/ranges arithmetically \
                     [node-view-in-loop]",
                    call.name,
                    call.loop_depth,
                    f.key()
                ),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// A9: tick-loop-alloc
// ---------------------------------------------------------------------------

/// Flags allocations, `.clone()`, and `.collect()` at loop depth >= 1 in
/// functions the session scheduler's tick path ([`A9_ROOTS`] within the
/// server crate) can reach. The scheduler's loops iterate live sessions,
/// so each such site is a per-session-per-tick cost: at S sessions it
/// scales the tick by S allocator round-trips, exactly the overhead the
/// scheduler's reused scratch buffers exist to avoid (A4's sibling for the
/// serving layer). Cold sites (assertion/panic macro arguments) are
/// skipped, as in A4.
fn pass_tick_loop_alloc(g: &CallGraph<'_>, cfgs: &[Vec<Cfg>]) -> Vec<Diagnostic> {
    let cone = g.reachable_from(&tick_roots(g));
    let mut out = Vec::new();
    for &id in &cone {
        let f = g.fun(id);
        if f.in_test || !in_scope(g.path(id), &A9_SCOPE) {
            continue;
        }
        let body = &cfgs[id.0][id.1];
        for site in &body.sites {
            if site.loop_depth == 0 || site.cold {
                continue;
            }
            let what = match &site.kind {
                CostKind::Alloc(w) => format!("allocation `{w}`"),
                CostKind::Clone => "`.clone()`".to_string(),
                CostKind::Collect => "`.collect()`".to_string(),
                _ => continue,
            };
            out.push(Diagnostic {
                path: g.path(id).to_string(),
                line: site.line,
                col: site.col,
                rule: "A9",
                message: format!(
                    "{what} at loop depth {} inside `{}`, which the session \
                     scheduler's tick path reaches — a per-session cost paid \
                     every tick; hoist it into reused scheduler scratch \
                     [tick-loop-alloc]",
                    site.loop_depth,
                    f.key()
                ),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Baseline
// ---------------------------------------------------------------------------

/// One accepted finding: `<pass> <path> <message>` (the line number is
/// deliberately absent so accepted findings survive unrelated edits).
fn baseline_entry(d: &Diagnostic) -> String {
    format!("{} {} {}", d.rule, d.path, d.message)
}

/// Parses a baseline file: one entry per line, `#` comments and blank
/// lines skipped.
pub fn parse_baseline(text: &str) -> BTreeSet<String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(ToString::to_string)
        .collect()
}

/// Splits findings against a baseline: `(new, accepted, stale_entries)`.
pub fn apply_baseline(
    diags: Vec<Diagnostic>,
    baseline: &BTreeSet<String>,
) -> (Vec<Diagnostic>, Vec<Diagnostic>, Vec<String>) {
    let mut matched: BTreeSet<&str> = BTreeSet::new();
    let mut new = Vec::new();
    let mut accepted = Vec::new();
    for d in diags {
        let entry = baseline_entry(&d);
        if let Some(hit) = baseline.iter().find(|b| **b == entry) {
            matched.insert(hit.as_str());
            accepted.push(d);
        } else {
            new.push(d);
        }
    }
    let stale = baseline
        .iter()
        .filter(|b| !matched.contains(b.as_str()))
        .cloned()
        .collect();
    (new, accepted, stale)
}

/// Renders findings as baseline-file content (with a header comment).
pub fn render_baseline(diags: &[Diagnostic]) -> String {
    let mut out = String::from(
        "# storm-analyzer findings baseline.\n\
         # One accepted finding per line: `<pass> <path> <message>`.\n\
         # Regenerate with `cargo xtask analyze --update-baseline`; prefer\n\
         # fixing findings or justifying them with an allow directive, and\n\
         # keep an explanatory comment above anything accepted here.\n",
    );
    let mut entries: Vec<String> = diags.iter().map(baseline_entry).collect();
    entries.sort();
    entries.dedup();
    for e in entries {
        out.push_str(&e);
        out.push('\n');
    }
    out
}

/// JSON string escaping per RFC 8259 (the workspace is offline, no serde).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

fn json_finding(d: &Diagnostic) -> String {
    format!(
        "{{\"pass\":\"{}\",\"path\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\"}}",
        json_escape(d.rule),
        json_escape(&d.path),
        d.line,
        d.col,
        json_escape(&d.message)
    )
}

/// Renders one analysis run as the machine-readable `--json` artifact CI
/// uploads: new and baselined findings, stale baseline entries, and
/// per-pass wall-clock timings (milliseconds).
pub fn render_json(
    new: &[Diagnostic],
    accepted: &[Diagnostic],
    stale: &[String],
    timings: &PassTimings,
) -> String {
    let ms = |d: Duration| d.as_secs_f64() * 1000.0;
    let list = |diags: &[Diagnostic]| diags.iter().map(json_finding).collect::<Vec<_>>().join(",");
    let stale_list = stale
        .iter()
        .map(|s| format!("\"{}\"", json_escape(s)))
        .collect::<Vec<_>>()
        .join(",");
    let per_pass = timings
        .per_pass
        .iter()
        .map(|(id, d)| format!("\"{}\":{:.3}", id, ms(*d)))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\n  \"clean\": {},\n  \"new\": [{}],\n  \"baselined\": [{}],\n  \
         \"stale_baseline\": [{}],\n  \"timings_ms\": {{\"front_end\":{:.3},\
         \"total\":{:.3},\"per_pass\":{{{}}}}}\n}}\n",
        new.is_empty(),
        list(new),
        list(accepted),
        stale_list,
        ms(timings.front_end),
        ms(timings.total),
        per_pass
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze_one(path: &str, src: &str) -> Vec<Diagnostic> {
        analyze_sources(&[(path.to_string(), src.to_string())])
    }

    #[test]
    fn a2_allow_directive_suppresses() {
        let src = "\
pub struct S { counts: HashMap<u32, u32> }
impl S {
    // storm-analyzer: allow(A2): count() is order-independent
    pub fn total(&self) -> u32 { self.counts.values().sum() }
}
";
        let diags = analyze_one("crates/estimators/src/demo.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn stacked_allow_directives_chain_to_the_code_line_below() {
        let src = "\
// storm-analyzer: allow(A5): upper directive in the stack
// storm-analyzer: allow(A13): lower directive in the stack
fn f() {}
";
        let lexed = crate::lexer::lex(src);
        let at = |rule: &'static str| crate::Diagnostic {
            path: "crates/core/src/demo.rs".to_string(),
            line: 3,
            col: 1,
            rule,
            message: "synthetic".to_string(),
        };
        let mut diags = vec![at("A5"), at("A13")];
        crate::rules::apply_allow_directives(
            &analyzer_directives(),
            "crates/core/src/demo.rs",
            &lexed,
            &mut diags,
        );
        // Both findings on the code line are suppressed — the upper
        // directive's coverage chains through the lower directive's line —
        // and neither allow is reported unused.
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn a2_unknown_rule_in_directive_is_flagged() {
        let src = "// storm-analyzer: allow(A99): nope\nfn f() {}\n";
        let diags = analyze_one("crates/core/src/demo.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "allow");
        assert!(diags[0].message.contains("A1..A13"), "{}", diags[0].message);
    }

    #[test]
    fn a8_flags_node_view_in_sampling_loop() {
        let src = "\
impl S {
    pub fn next_sample(&mut self) -> u32 {
        self.descend()
    }
    fn descend(&self) -> u32 {
        let mut id = 0;
        loop {
            let view = self.tree.visit(id);
            if view.is_leaf() { return id; }
            id += 1;
        }
    }
}
";
        let diags = analyze_one("crates/core/src/demo.rs", src);
        let a8: Vec<_> = diags.iter().filter(|d| d.rule == "A8").collect();
        assert_eq!(a8.len(), 1, "{diags:?}");
        assert!(a8[0].message.contains("node-view-in-loop"));
    }

    #[test]
    fn a8_ignores_views_outside_loops_and_allows() {
        // Straight-line view: not flagged. Looped view under an allow
        // directive: suppressed.
        let src = "\
impl S {
    pub fn next_sample(&mut self) -> u32 {
        let v = self.tree.visit(0);
        loop {
            // storm-analyzer: allow(A8): boxed baseline by design
            let w = self.tree.view_free_of_charge(1);
            if w.is_leaf() { return 1; }
        }
    }
}
";
        let diags = analyze_one("crates/core/src/demo.rs", src);
        assert!(diags.iter().all(|d| d.rule != "A8"), "{diags:?}");
    }

    #[test]
    fn baseline_roundtrip_and_staleness() {
        let d = Diagnostic {
            path: "crates/core/src/x.rs".into(),
            line: 10,
            col: 2,
            rule: "A2",
            message: "msg [determinism-taint]".into(),
        };
        let baseline = parse_baseline(&render_baseline(std::slice::from_ref(&d)));
        // Line drift must not invalidate the entry.
        let mut moved = d.clone();
        moved.line = 99;
        let (new, accepted, stale) = apply_baseline(vec![moved], &baseline);
        assert!(new.is_empty());
        assert_eq!(accepted.len(), 1);
        assert!(stale.is_empty());
        // A fixed finding leaves its entry stale.
        let (new, accepted, stale) = apply_baseline(Vec::new(), &baseline);
        assert!(new.is_empty() && accepted.is_empty());
        assert_eq!(stale.len(), 1);
    }

    #[test]
    fn json_report_escapes_and_carries_timings() {
        let d = Diagnostic {
            path: "crates/core/src/x.rs".into(),
            line: 3,
            col: 7,
            rule: "A4",
            message: "allocation `vec!` in \"hot\" loop\nsecond line \\ tab\t".into(),
        };
        let timings = PassTimings {
            per_pass: vec![
                ("A1", Duration::from_millis(2)),
                ("A4", Duration::from_micros(1500)),
            ],
            front_end: Duration::from_millis(10),
            total: Duration::from_millis(14),
        };
        let json = render_json(&[d], &[], &["A2 gone.rs old".into()], &timings);
        // Escaping: the quote, newline, backslash, and tab survive as JSON.
        assert!(
            json.contains(r#"in \"hot\" loop\nsecond line \\ tab\t"#),
            "{json}"
        );
        assert!(json.contains("\"clean\": false"), "{json}");
        assert!(json.contains("\"line\":3"), "{json}");
        assert!(json.contains("\"A4\":1.500"), "{json}");
        assert!(json.contains("\"front_end\":10.000"), "{json}");
        assert!(
            json.contains("\"stale_baseline\": [\"A2 gone.rs old\"]"),
            "{json}"
        );
        // No raw control characters may remain in the document.
        assert!(
            !json.chars().any(|c| (c as u32) < 0x20 && c != '\n'),
            "{json}"
        );
    }
}
