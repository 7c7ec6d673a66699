//! `conc` — thread-role extraction and the A10–A13 concurrency passes.
//!
//! The front end ([`crate::front`]) records *what* each function does;
//! the CFG ([`crate::cfg`]) records *where* inside the body. This module
//! adds the concurrency-specific facts neither keeps — who publishes and
//! who guards an atomic (and with which `Ordering`), where a registry
//! snapshot is held open (`with_current` closure regions), which protocol
//! variants a channel send actually carries, and which channel results are
//! unwrapped — and runs four passes over them:
//!
//! * **A10 `atomic-ordering`** — cross-thread publish/guard pairs must be
//!   Release/Acquire. Sites are grouped by qualified receiver (the A1 lock
//!   identity: `Type::self.field`); a group is *mixed* when one side uses a
//!   synchronizing ordering and the other side stays `Relaxed`. Both pure-
//!   Relaxed groups (statistics counters, by documented policy in
//!   `storm_core::parallel`) and fully-paired groups are clean; only the
//!   half-synchronized ones are flagged, because there the stronger side
//!   *documents* an ordering contract the weaker side silently breaks.
//! * **A11 `epoch-pin`** — registry snapshot discipline: no publish-class
//!   call (`publish`/`try_publish`/`install_epoch`/`minor_freeze`/
//!   `compact`) inside a `with_current(…)` closure (the closure runs under
//!   the registry read lock; publish takes the write lock — the writer
//!   waits on this very reader), and no pin-class call (`pin`/
//!   `with_current`/`epoch`) at loop depth ≥ 1 in the sampling cone (an
//!   in-flight stream must keep its open-time epoch; re-pinning mid-stream
//!   can mix epochs within one draw and bias the estimate).
//! * **A12 `protocol-fsm`** — upgrades A3's produce/consume matching to a
//!   per-path automaton over the CFG: on every acyclic path through a
//!   function, no Fill-class protocol op may follow a Close-class one, and
//!   Swap may only be issued from tick-boundary code (`install_epoch`
//!   itself, called from `handle_ctrl`).
//! * **A13 `blocking-channel`** — a blocking channel op under a held lock
//!   guard, a timeout-less `recv` on the scheduler tick path, and
//!   `.send(…)`/`.recv(…)` results unwrapped (panics when the peer
//!   endpoint has dropped).
//!
//! Soundness caveats (all deliberate, see DESIGN.md §15):
//!
//! * A10 recognizes orderings spelled `Ordering::X` (the workspace style);
//!   a bare imported `Relaxed` is not parsed, so such a site is skipped
//!   (a false negative, never a false positive). RMW sites (`fetch_*`,
//!   `compare_exchange*`, `swap`) classify their *group* but are not
//!   themselves flagged — their mixed success/failure orderings need
//!   per-algorithm judgment.
//! * A11 has no escape analysis: a `Pinned` that outlives its region is
//!   lifetime-safe by construction (`Arc`-held state), so escape is not an
//!   error; the two genuinely unsafe shapes — publish under the read lock
//!   and mid-stream re-pin — are exactly what the two sub-rules cover.
//! * A12's dataflow is forward and acyclic: loop back edges are ignored,
//!   so the automaton checks *per-iteration* discipline. A Close in one
//!   tick iteration followed by a Fill in the next is legal by
//!   construction (ops are per-session-keyed; the scheduler closes session
//!   A and fills session B), and flagging it would condemn every tick
//!   fixpoint loop. Calls into same-file functions carry their transitive
//!   op *set* as one event; a set cannot create a violation internally
//!   (the callee's own body is checked separately).
//! * A13 treats `recv_timeout`/`recv_deadline` as time-bounded and exempt,
//!   and flags only `recv` (not `send`) on the tick cone: the scheduler's
//!   dispatch sends ride unbounded channels and cannot block.

use std::collections::{BTreeMap, BTreeSet};

use crate::analyze::{in_scope, sampling_api_roots, tick_roots};
use crate::callgraph::CallGraph;
use crate::cfg::{Cfg, CostKind};
use crate::front::{self, FileFacts};
use crate::lexer::Lexed;
use crate::Diagnostic;

/// Path prefixes A10 groups atomic sites over: every crate that shares
/// atomics across threads.
const A10_SCOPE: [&str; 4] = [
    "crates/core/src/",
    "crates/store/src/",
    "crates/server/src/",
    "crates/engine/src/",
];

/// Path prefixes A11 checks for registry pin/publish discipline.
const A11_SCOPE: [&str; 3] = [
    "crates/core/src/",
    "crates/store/src/",
    "crates/server/src/",
];

/// Paths A12 runs the protocol automaton over: the shard protocol's one
/// issuing side (the executor's coordinator) and its two drivers
/// (`ParallelSampler` beside it, the scheduler in the server).
const A12_SCOPE: [&str; 2] = ["crates/core/src/parallel", "crates/server/src/"];

/// Path prefixes A13 checks for blocking-channel hazards: the executor,
/// whose coordinator holds the one wait on shard replies, the store, and
/// the server.
const A13_SCOPE: [&str; 3] = [
    "crates/core/src/parallel",
    "crates/store/src/",
    "crates/server/src/",
];

/// Methods on `std::sync::atomic` types whose argument list carries an
/// `Ordering`.
const ATOMIC_METHODS: [&str; 14] = [
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
    "compare_and_swap",
];

/// Calls that install a new epoch (directly or via a wrapper that takes
/// the registry write lock).
const PUBLISH_CLASS: [&str; 5] = [
    "publish",
    "try_publish",
    "install_epoch",
    "minor_freeze",
    "compact",
];

/// Calls that (re-)read the current epoch.
const PIN_CLASS: [&str; 3] = ["pin", "with_current", "epoch"];

/// One atomic operation with its receiver identity and parsed orderings.
#[derive(Debug, Clone)]
pub struct AtomicSite {
    /// Index of the enclosing fn in [`FileFacts::fns`].
    pub fn_idx: usize,
    /// Qualified receiver (the A1 lock identity: `Type::self.field`).
    pub key: String,
    /// Method name (`load`, `store`, `fetch_add`, …).
    pub method: String,
    /// `Ordering::X` idents found in the argument list, in order.
    pub orderings: Vec<String>,
    /// 1-based line of the method name.
    pub line: u32,
    /// 1-based column of the method name.
    pub col: u32,
}

/// The token range of one `with_current(…)` argument list — the region
/// that runs under the registry read lock.
#[derive(Debug, Clone)]
pub struct WithCurrentRegion {
    /// Index of the enclosing fn in [`FileFacts::fns`].
    pub fn_idx: usize,
    /// `(` .. `)` token indexes of the argument list, inclusive.
    pub args: (usize, usize),
    /// 1-based line of the `with_current` ident.
    pub line: u32,
}

/// A protocol-enum variant inside the argument list of a channel send.
#[derive(Debug, Clone)]
pub struct ProtoSend {
    /// Index of the enclosing fn in [`FileFacts::fns`].
    pub fn_idx: usize,
    /// Token index of the `send`/`try_send` ident (joins to
    /// [`crate::cfg::CfgCall::tok`] for the basic block).
    pub send_tok: usize,
    /// The enum, declared in this file's module unit.
    pub enum_name: String,
    /// The variant named in the payload.
    pub variant: String,
    /// 1-based line of the variant ident.
    pub line: u32,
    /// 1-based column of the variant ident.
    pub col: u32,
}

/// A channel op whose `Result` is unwrapped at the call site.
#[derive(Debug, Clone)]
pub struct CheckedChanOp {
    /// Index of the enclosing fn in [`FileFacts::fns`].
    pub fn_idx: usize,
    /// `send` or `recv`.
    pub op: String,
    /// `unwrap` or `expect`.
    pub checker: String,
    /// 1-based line of the unwrap/expect ident.
    pub line: u32,
    /// 1-based column of the unwrap/expect ident.
    pub col: u32,
}

/// Per-file concurrency fact table. Spawn-closure and lock-held regions
/// already live on the [`Cfg`] (`spawn_args`, `lock_regions`); this table
/// adds what the CFG does not keep.
#[derive(Debug, Clone, Default)]
pub struct ConcFacts {
    /// Atomic ops with receiver identity and orderings.
    pub atomics: Vec<AtomicSite>,
    /// `with_current(…)` argument regions (registry read lock held).
    pub with_current: Vec<WithCurrentRegion>,
    /// Protocol-enum variants carried by channel sends.
    pub proto_sends: Vec<ProtoSend>,
    /// Channel ops with unwrapped results.
    pub checked_chan: Vec<CheckedChanOp>,
}

/// Extracts the concurrency facts of one file.
pub fn extract(facts: &FileFacts, lex: &Lexed) -> ConcFacts {
    let toks = &lex.tokens;
    let mut out = ConcFacts::default();
    // Enum declarations of this file's module unit, for send-payload
    // variant matching.
    let enums: BTreeMap<&str, BTreeSet<&str>> = facts
        .visible_enums()
        .map(|e| {
            (
                e.name.as_str(),
                e.variants.iter().map(String::as_str).collect(),
            )
        })
        .collect();
    for (fn_idx, f) in facts.fns.iter().enumerate() {
        let (open, close) = f.body_span;
        if open >= close || close >= toks.len() {
            continue;
        }
        for i in (open + 1)..close {
            let Some(name) = front::ident_at(toks, i) else {
                continue;
            };
            if !(i > 0 && front::is_punct(toks, i - 1, '.') && front::is_punct(toks, i + 1, '(')) {
                continue;
            }
            let Some(end) = front::match_delim(toks, i + 1) else {
                continue;
            };
            if ATOMIC_METHODS.contains(&name) {
                // Orderings: every `Ordering::X` in the argument list.
                let mut orderings = Vec::new();
                for j in (i + 2)..end {
                    if front::ident_at(toks, j) == Some("Ordering")
                        && front::is_op(toks, j + 1, "::")
                    {
                        if let Some(o) = front::ident_at(toks, j + 2) {
                            orderings.push(o.to_string());
                        }
                    }
                }
                if !orderings.is_empty() {
                    let recv = front::receiver_chain(toks, i - 1);
                    out.atomics.push(AtomicSite {
                        fn_idx,
                        key: crate::analyze::lock_key(f, &recv),
                        method: name.to_string(),
                        orderings,
                        line: toks[i].line,
                        col: toks[i].col,
                    });
                }
            }
            if name == "with_current" {
                out.with_current.push(WithCurrentRegion {
                    fn_idx,
                    args: (i + 1, end),
                    line: toks[i].line,
                });
            }
            if name == "send" || name == "try_send" {
                for j in (i + 2)..end {
                    let Some(en) = front::ident_at(toks, j) else {
                        continue;
                    };
                    if !front::is_op(toks, j + 1, "::") {
                        continue;
                    }
                    let Some(v) = front::ident_at(toks, j + 2) else {
                        continue;
                    };
                    if enums.get(en).is_some_and(|vs| vs.contains(v)) {
                        out.proto_sends.push(ProtoSend {
                            fn_idx,
                            send_tok: i,
                            enum_name: en.to_string(),
                            variant: v.to_string(),
                            line: toks[j + 2].line,
                            col: toks[j + 2].col,
                        });
                    }
                }
            }
            if (name == "send" || name == "recv")
                && front::is_punct(toks, end + 1, '.')
                && front::is_punct(toks, end + 3, '(')
            {
                if let Some(checker @ ("unwrap" | "expect")) = front::ident_at(toks, end + 2) {
                    out.checked_chan.push(CheckedChanOp {
                        fn_idx,
                        op: name.to_string(),
                        checker: checker.to_string(),
                        line: toks[end + 2].line,
                        col: toks[end + 2].col,
                    });
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// A10: atomic-ordering
// ---------------------------------------------------------------------------

/// Orderings that make a write a publish.
const RELEASING: [&str; 3] = ["Release", "AcqRel", "SeqCst"];
/// Orderings that make a read a guard.
const ACQUIRING: [&str; 3] = ["Acquire", "AcqRel", "SeqCst"];

/// Flags half-synchronized atomic publish/guard pairs: a `Relaxed` load of
/// a location somebody stores with Release (guard-without-Acquire), and a
/// `Relaxed` store of a location somebody loads with Acquire
/// (publish-without-Release). See the module docs for the grouping rule.
pub fn pass_atomic_ordering(g: &CallGraph<'_>, concs: &[ConcFacts]) -> Vec<Diagnostic> {
    struct SiteRef<'a> {
        file: usize,
        site: &'a AtomicSite,
    }
    let mut groups: BTreeMap<&str, Vec<SiteRef<'_>>> = BTreeMap::new();
    for (fi, cf) in concs.iter().enumerate() {
        let file = &g.files[fi];
        if !in_scope(&file.path, &A10_SCOPE) {
            continue;
        }
        for site in &cf.atomics {
            if file.fns[site.fn_idx].in_test {
                continue;
            }
            groups
                .entry(site.key.as_str())
                .or_default()
                .push(SiteRef { file: fi, site });
        }
    }
    let mut out = Vec::new();
    for (key, sites) in &groups {
        let strong = |s: &AtomicSite, class: &[&str]| {
            s.orderings.iter().any(|o| class.contains(&o.as_str()))
        };
        // Writes: everything but a pure load; reads: everything but a pure
        // store. RMWs classify the group but are never flagged themselves.
        let released = sites
            .iter()
            .any(|r| r.site.method != "load" && strong(r.site, &RELEASING));
        let acquired = sites
            .iter()
            .any(|r| r.site.method != "store" && strong(r.site, &ACQUIRING));
        for r in sites {
            if !r.site.orderings.iter().all(|o| o == "Relaxed") {
                continue;
            }
            let f = &g.files[r.file].fns[r.site.fn_idx];
            let message = if r.site.method == "load" && released {
                format!(
                    "guard-without-Acquire: `{key}.load(Relaxed)` in `{}`, \
                     but `{key}` is published with a Release-class store \
                     elsewhere — without Acquire the data guarded by this \
                     load may be observed pre-publish; use \
                     `load(Ordering::Acquire)` [atomic-ordering]",
                    f.key()
                )
            } else if r.site.method == "store" && acquired {
                format!(
                    "publish-without-Release: `{key}.store(…, Relaxed)` in \
                     `{}`, but `{key}` is guarded with an Acquire-class \
                     load elsewhere — the loader's Acquire has nothing to \
                     synchronize with; use `store(…, Ordering::Release)` \
                     [atomic-ordering]",
                    f.key()
                )
            } else {
                continue;
            };
            out.push(Diagnostic {
                path: g.files[r.file].path.clone(),
                line: r.site.line,
                col: r.site.col,
                rule: "A10",
                message,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// A11: epoch-pin
// ---------------------------------------------------------------------------

/// Flags (1) publish-class calls inside a `with_current(…)` closure — the
/// registry read lock is held there and publish wants the write lock — and
/// (2) pin-class calls at loop depth ≥ 1 in the sampling cone, where an
/// in-flight stream must keep its open-time epoch.
pub fn pass_epoch_pin(
    g: &CallGraph<'_>,
    cfgs: &[Vec<Cfg>],
    concs: &[ConcFacts],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (fi, file) in g.files.iter().enumerate() {
        if !in_scope(&file.path, &A11_SCOPE) {
            continue;
        }
        for region in &concs[fi].with_current {
            let f = &file.fns[region.fn_idx];
            if f.in_test {
                continue;
            }
            for c in &cfgs[fi][region.fn_idx].calls {
                if c.tok > region.args.0
                    && c.tok < region.args.1
                    && PUBLISH_CLASS.contains(&c.name.as_str())
                {
                    out.push(Diagnostic {
                        path: file.path.clone(),
                        line: c.line,
                        col: c.col,
                        rule: "A11",
                        message: format!(
                            "publish-class `{}` inside the `with_current(…)` \
                             closure opened at line {} in `{}` — with_current \
                             holds the registry read lock and `{}` takes the \
                             write lock, which waits for this very reader: \
                             self-deadlock; publish after the closure returns \
                             [epoch-pin]",
                            c.name,
                            region.line,
                            f.key(),
                            c.name
                        ),
                    });
                }
            }
        }
    }
    let cone = g.reachable_from(&sampling_api_roots(g));
    for &id in &cone {
        let f = g.fun(id);
        if f.in_test || !in_scope(g.path(id), &A11_SCOPE) {
            continue;
        }
        for c in &cfgs[id.0][id.1].calls {
            if c.loop_depth >= 1 && c.is_method && PIN_CLASS.contains(&c.name.as_str()) {
                out.push(Diagnostic {
                    path: g.path(id).to_string(),
                    line: c.line,
                    col: c.col,
                    rule: "A11",
                    message: format!(
                        "epoch re-read: `.{}(…)` at loop depth {} inside \
                         `{}`, which the sampling API reaches — an in-flight \
                         stream must keep the epoch it pinned at open; \
                         re-reading mid-stream can mix epochs within one \
                         draw and bias the estimate [epoch-pin]",
                        c.name,
                        c.loop_depth,
                        f.key()
                    ),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// A12: protocol-fsm
// ---------------------------------------------------------------------------

/// Protocol operation classes, by exact variant / method name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ProtoOp {
    /// The `OpenMany` variant, `open_shard`/`open_sessions` calls.
    Open,
    /// The `FillMany` variant, `fill_many`/`queue_fill`/`fill_round`
    /// calls.
    Fill,
    /// The `CloseMany` variant, `close_many`/`close_sessions` calls.
    Close,
    /// `Swap` variants, `install_epoch` calls.
    Swap,
}

/// Exact variant-name classification (substrings would misread replies
/// like `Opens`).
fn variant_op(v: &str) -> Option<ProtoOp> {
    match v {
        "OpenMany" => Some(ProtoOp::Open),
        "FillMany" => Some(ProtoOp::Fill),
        "CloseMany" => Some(ProtoOp::Close),
        "Swap" => Some(ProtoOp::Swap),
        _ => None,
    }
}

/// Protocol wrapper methods, by exact name — never bare `open`/`close`,
/// which the name-linked call graph would over-resolve: the cluster's
/// per-shard senders and the coordinator's entry points every driver
/// calls.
const PROTO_METHODS: [(&str, ProtoOp); 8] = [
    ("open_shard", ProtoOp::Open),
    ("open_sessions", ProtoOp::Open),
    ("fill_many", ProtoOp::Fill),
    ("queue_fill", ProtoOp::Fill),
    ("fill_round", ProtoOp::Fill),
    ("close_many", ProtoOp::Close),
    ("close_sessions", ProtoOp::Close),
    ("install_epoch", ProtoOp::Swap),
];

/// Functions allowed to send a `Swap` variant directly.
const SWAP_SENDERS: [&str; 1] = ["install_epoch"];

/// Functions allowed to call `install_epoch`: the epoch installer's own
/// wrappers and the scheduler's tick-boundary control handler.
const SWAP_CALLERS: [&str; 2] = ["handle_ctrl", "install_epoch"];

#[derive(Debug)]
enum EvKind {
    /// A protocol variant inside a direct channel send.
    Sent(ProtoOp, String),
    /// A call to a protocol wrapper method.
    Called(ProtoOp, String),
    /// A call into a same-file fn whose transitive op set is non-empty.
    CallInto(BTreeSet<ProtoOp>, String),
}

#[derive(Debug)]
struct Ev {
    tok: usize,
    block: usize,
    line: u32,
    col: u32,
    kind: EvKind,
}

impl Ev {
    fn closes(&self) -> bool {
        match &self.kind {
            EvKind::Sent(op, _) | EvKind::Called(op, _) => *op == ProtoOp::Close,
            EvKind::CallInto(set, _) => set.contains(&ProtoOp::Close),
        }
    }
    fn fills(&self) -> bool {
        match &self.kind {
            EvKind::Sent(op, _) | EvKind::Called(op, _) => *op == ProtoOp::Fill,
            EvKind::CallInto(set, _) => set.contains(&ProtoOp::Fill),
        }
    }
}

/// Runs the per-path protocol automaton over every fn in [`A12_SCOPE`]:
/// no Fill-class op after a Close-class op on any acyclic path, and Swap
/// only from tick-boundary code. See the module docs for event sources
/// and the back-edge caveat.
pub fn pass_protocol_fsm(
    g: &CallGraph<'_>,
    cfgs: &[Vec<Cfg>],
    concs: &[ConcFacts],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (fi, file) in g.files.iter().enumerate() {
        if !in_scope(&file.path, &A12_SCOPE) {
            continue;
        }
        let proto_method = |name: &str| {
            PROTO_METHODS
                .iter()
                .find(|(m, _)| *m == name)
                .map(|(_, op)| *op)
        };
        // Direct ops per fn: variants sent + wrapper methods called.
        let direct: Vec<BTreeSet<ProtoOp>> = file
            .fns
            .iter()
            .enumerate()
            .map(|(gi, _)| {
                let mut set = BTreeSet::new();
                for s in concs[fi].proto_sends.iter().filter(|s| s.fn_idx == gi) {
                    set.extend(variant_op(&s.variant));
                }
                for c in &cfgs[fi][gi].calls {
                    set.extend(proto_method(&c.name));
                }
                set
            })
            .collect();
        // Same-file call resolution by bare name. `drop` is excluded:
        // an explicit `drop(x)` is `std::mem::drop`, not a same-file
        // `Drop::drop` impl (which is never called by name).
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (gi, f) in file.fns.iter().enumerate() {
            if f.name != "drop" {
                by_name.entry(f.name.as_str()).or_default().push(gi);
            }
        }
        // Transitive op sets, to a fixpoint (sets only grow, so this
        // terminates).
        let mut emits = direct.clone();
        loop {
            let mut changed = false;
            for gi in 0..file.fns.len() {
                let mut add = BTreeSet::new();
                for c in &cfgs[fi][gi].calls {
                    if let Some(callees) = by_name.get(c.name.as_str()) {
                        for &cal in callees {
                            if cal != gi {
                                add.extend(emits[cal].iter().copied());
                            }
                        }
                    }
                }
                let before = emits[gi].len();
                emits[gi].extend(add);
                changed |= emits[gi].len() != before;
            }
            if !changed {
                break;
            }
        }

        for (gi, f) in file.fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            let cfg = &cfgs[fi][gi];
            // Events of this fn, in token order.
            let mut events: Vec<Ev> = Vec::new();
            for s in concs[fi].proto_sends.iter().filter(|s| s.fn_idx == gi) {
                let Some(op) = variant_op(&s.variant) else {
                    continue;
                };
                // The send's CfgCall carries the basic block.
                let Some(call) = cfg.calls.iter().find(|c| c.tok == s.send_tok) else {
                    continue;
                };
                events.push(Ev {
                    tok: s.send_tok,
                    block: call.block,
                    line: s.line,
                    col: s.col,
                    kind: EvKind::Sent(op, format!("{}::{}", s.enum_name, s.variant)),
                });
            }
            for c in &cfg.calls {
                if let Some(op) = proto_method(&c.name) {
                    events.push(Ev {
                        tok: c.tok,
                        block: c.block,
                        line: c.line,
                        col: c.col,
                        kind: EvKind::Called(op, c.name.clone()),
                    });
                } else if let Some(callees) = by_name.get(c.name.as_str()) {
                    let mut set = BTreeSet::new();
                    for &cal in callees {
                        if cal != gi {
                            set.extend(emits[cal].iter().copied());
                        }
                    }
                    if !set.is_empty() {
                        events.push(Ev {
                            tok: c.tok,
                            block: c.block,
                            line: c.line,
                            col: c.col,
                            kind: EvKind::CallInto(set, c.name.clone()),
                        });
                    }
                }
            }
            events.sort_by_key(|e| e.tok);

            // Swap gating: direct issuing sites only (a transitive set
            // would condemn every caller of the scheduler loop).
            for ev in &events {
                match &ev.kind {
                    EvKind::Sent(ProtoOp::Swap, what)
                        if !SWAP_SENDERS.contains(&f.name.as_str()) =>
                    {
                        out.push(Diagnostic {
                            path: file.path.clone(),
                            line: ev.line,
                            col: ev.col,
                            rule: "A12",
                            message: format!(
                                "`{what}` sent from `{}` — epoch swaps may \
                                 only be issued by `install_epoch`, which \
                                 runs at a tick boundary; a swap from any \
                                 other path can replace a shard snapshot \
                                 mid-fill [protocol-fsm]",
                                f.key()
                            ),
                        });
                    }
                    EvKind::Called(ProtoOp::Swap, name)
                        if !SWAP_CALLERS.contains(&f.name.as_str()) =>
                    {
                        out.push(Diagnostic {
                            path: file.path.clone(),
                            line: ev.line,
                            col: ev.col,
                            rule: "A12",
                            message: format!(
                                "`{name}` called from `{}` — epochs install \
                                 only from tick-boundary control code \
                                 (`handle_ctrl`); any other caller can swap \
                                 a snapshot while fills are in flight \
                                 [protocol-fsm]",
                                f.key()
                            ),
                        });
                    }
                    _ => {}
                }
            }

            // Fill-after-Close: forward may-closed dataflow over the
            // acyclic CFG (back edges dropped).
            let nb = cfg.blocks.len();
            let back: BTreeSet<(usize, usize)> = cfg.back_edges.iter().copied().collect();
            let mut preds: Vec<Vec<usize>> = vec![Vec::new(); nb];
            for (b, blk) in cfg.blocks.iter().enumerate() {
                for &s in &blk.succs {
                    if !back.contains(&(b, s)) && s < nb {
                        preds[s].push(b);
                    }
                }
            }
            let mut by_block: Vec<Vec<&Ev>> = vec![Vec::new(); nb];
            for ev in &events {
                if ev.block < nb {
                    by_block[ev.block].push(ev);
                }
            }
            let mut closed_in = vec![false; nb];
            let mut closed_out = vec![false; nb];
            loop {
                let mut changed = false;
                for b in 0..nb {
                    let cin = preds[b].iter().any(|&p| closed_out[p]);
                    let cout = cin || by_block[b].iter().any(|e| e.closes());
                    if cin != closed_in[b] || cout != closed_out[b] {
                        closed_in[b] = cin;
                        closed_out[b] = cout;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
            for b in 0..nb {
                let mut closed = closed_in[b];
                for ev in &by_block[b] {
                    if closed && ev.fills() {
                        let what = match &ev.kind {
                            EvKind::Sent(_, w) => format!("`{w}` sent"),
                            EvKind::Called(_, n) => format!("`{n}` called"),
                            EvKind::CallInto(_, n) => {
                                format!("call into Fill-issuing `{n}`")
                            }
                        };
                        out.push(Diagnostic {
                            path: file.path.clone(),
                            line: ev.line,
                            col: ev.col,
                            rule: "A12",
                            message: format!(
                                "{what} after a Close-class op on the same \
                                 path through `{}` — the session is already \
                                 torn down on some execution reaching this \
                                 point, so the fill targets a freed session \
                                 slot [protocol-fsm]",
                                f.key()
                            ),
                        });
                    }
                    if ev.closes() {
                        closed = true;
                    }
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// A13: blocking-channel
// ---------------------------------------------------------------------------

/// Flags (1) blocking channel ops under a held lock guard, (2) timeout-less
/// `recv` on the scheduler tick path, and (3) channel results unwrapped at
/// the call site (panics when the peer endpoint has dropped).
pub fn pass_channel_blocking(
    g: &CallGraph<'_>,
    cfgs: &[Vec<Cfg>],
    concs: &[ConcFacts],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for id in g.all_fns() {
        let f = g.fun(id);
        if f.in_test || !in_scope(g.path(id), &A13_SCOPE) {
            continue;
        }
        let body = &cfgs[id.0][id.1];
        for region in &body.lock_regions {
            for site in &body.sites {
                let op = match &site.kind {
                    CostKind::ChannelSend(m) | CostKind::ChannelRecv(m)
                        // recv_timeout/recv_deadline are time-bounded:
                        // they cannot stall the lock past the deadline.
                        if site.kind.is_blocking()
                            && m != "recv_timeout"
                            && m != "recv_deadline" =>
                    {
                        m
                    }
                    _ => continue,
                };
                if !(region.held.0..=region.held.1).contains(&site.tok) {
                    continue;
                }
                out.push(Diagnostic {
                    path: g.path(id).to_string(),
                    line: site.line,
                    col: site.col,
                    rule: "A13",
                    message: format!(
                        "blocking `.{op}(…)` inside `{}` while the `{}` \
                         guard (acquired line {}) is held — a full buffer or \
                         a gone peer stalls every thread contending on that \
                         lock; drop the guard before the channel op \
                         [blocking-channel]",
                        f.key(),
                        region.recv,
                        region.line
                    ),
                });
            }
        }
    }
    // Timeout-less recv in the tick cone: one lost worker reply stalls
    // every live session. Sends are exempt — dispatch rides unbounded
    // channels and cannot block.
    let cone = g.reachable_from(&tick_roots(g));
    for &id in &cone {
        let f = g.fun(id);
        if f.in_test || !in_scope(g.path(id), &A13_SCOPE) {
            continue;
        }
        for site in &cfgs[id.0][id.1].sites {
            if let CostKind::ChannelRecv(m) = &site.kind {
                if m == "recv" {
                    out.push(Diagnostic {
                        path: g.path(id).to_string(),
                        line: site.line,
                        col: site.col,
                        rule: "A13",
                        message: format!(
                            "timeout-less `.recv()` inside `{}`, which the \
                             scheduler tick path reaches — a lost or slow \
                             peer stalls every live session for the full \
                             wait; use recv_timeout with the gather \
                             deadline [blocking-channel]",
                            f.key()
                        ),
                    });
                }
            }
        }
    }
    for (fi, cf) in concs.iter().enumerate() {
        let file = &g.files[fi];
        if !in_scope(&file.path, &A13_SCOPE) {
            continue;
        }
        for cop in &cf.checked_chan {
            if file.fns[cop.fn_idx].in_test {
                continue;
            }
            out.push(Diagnostic {
                path: file.path.clone(),
                line: cop.line,
                col: cop.col,
                rule: "A13",
                message: format!(
                    "`.{}(…).{}(…)` in `{}` panics when the peer endpoint \
                     has dropped — a worker or scheduler shutdown then takes \
                     this thread down with it; handle the disconnect `Err` \
                     [blocking-channel]",
                    cop.op,
                    cop.checker,
                    file.fns[cop.fn_idx].key()
                ),
            });
        }
    }
    out.sort_by(|a, b| (a.path.as_str(), a.line, a.col).cmp(&(b.path.as_str(), b.line, b.col)));
    out
}
