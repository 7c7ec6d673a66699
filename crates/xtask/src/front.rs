//! storm-analyzer's structural front-end: per-function fact extraction.
//!
//! The analyzer passes (A1–A3, see [`crate::analyze`]) need *structure* the
//! token-pattern lint rules cannot see: which function a fact occurs in,
//! which functions it calls, which locks it takes and in what order, which
//! protocol-enum variants it constructs or matches. A full Rust grammar is
//! not required for any of that — brace-matched item extraction over the
//! existing lexer ([`crate::lexer`]) recovers enough shape:
//!
//! * **functions** — every `fn name` with its body span, enclosing `impl`
//!   type (for `Type::method` keys), visibility, and `#[cfg(test)]` status;
//! * **call sites** — `name(`, `.name(`, `Path::name(` inside each body;
//! * **lock facts** — zero-argument `.lock()` / `.read()` / `.write()` /
//!   `.try_*()` receiver chains, in textual order (the zero-argument
//!   requirement is what separates `guard.read()` from `file.read(&mut
//!   buf)`);
//! * **channel protocol facts** — `Enum::Variant` uses for enums *declared
//!   in the same module unit* (the file, plus its siblings when a module is
//!   split over `foo.rs` + `foo/*.rs` — see [`module_unit`]), classified
//!   producer vs consumer (a use whose
//!   following tokens reach `=>` is a match arm) and flagged when they sit
//!   inside a `send(…)`/`try_send(…)` argument list;
//! * **determinism facts** — iteration over variables declared as
//!   `HashMap`/`HashSet` in the file, `Instant::now`/`SystemTime::now`,
//!   `thread::current`, and visibly-float `+=` accumulation.
//!
//! Everything here is a lexical approximation and is documented as such in
//! DESIGN.md §10: types are never inferred, lock identity is the receiver's
//! textual path, and call resolution is by name. The passes compensate with
//! allow directives and the findings baseline.

use std::collections::BTreeSet;

use crate::lexer::{Lexed, TokKind, Token};
use crate::rules;

/// Kinds of lock-acquisition methods A1 tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    /// `.lock()` / `.try_lock()` (Mutex).
    Lock,
    /// `.read()` / `.try_read()` (RwLock shared).
    Read,
    /// `.write()` / `.try_write()` (RwLock exclusive).
    Write,
}

/// One lock acquisition site.
#[derive(Debug, Clone)]
pub struct LockSite {
    /// Textual receiver path (`self.meta`, `shard.index`, …).
    pub recv: String,
    /// Which acquisition method.
    pub kind: LockKind,
    /// 1-based line.
    pub line: u32,
    /// 1-based column of the method name.
    pub col: u32,
    /// Body-order position (shared counter with call sites, so lock and
    /// call events interleave correctly).
    pub order: u32,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Called name (`push`, `gather_batch`, …).
    pub name: String,
    /// For `Path::name(…)`, the path segment directly before the `::`.
    pub qual: Option<String>,
    /// Whether this is a `.name(…)` method call.
    pub is_method: bool,
    /// 1-based line.
    pub line: u32,
    /// Body-order position (shared with lock sites).
    pub order: u32,
}

/// A determinism-relevant fact inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FactKind {
    /// Iteration over a `HashMap`/`HashSet`-declared variable: the
    /// receiver name and the iterating method (`iter`, `values`, `drain`,
    /// `for … in`).
    HashIter {
        /// The hash-declared variable.
        var: String,
        /// The iterating method (or `for-in`).
        method: String,
    },
    /// `Instant::now` / `SystemTime::now`.
    TimeSource {
        /// Which clock type.
        what: String,
    },
    /// `thread::current` (thread-id values).
    ThreadId,
    /// `+=` whose right-hand side is visibly floating-point.
    FloatAccum,
}

/// A fact with its position.
#[derive(Debug, Clone)]
pub struct Fact {
    /// What was observed.
    pub kind: FactKind,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// One `Enum::Variant` use of a same-unit enum.
#[derive(Debug, Clone)]
pub struct VariantUse {
    /// The enum's name.
    pub enum_name: String,
    /// The variant used.
    pub variant: String,
    /// True when the use is a match-arm pattern (tokens after it reach
    /// `=>`), false when it constructs a value.
    pub is_consume: bool,
    /// True when the use sits inside a `send(…)`/`try_send(…)` argument
    /// list.
    pub in_send: bool,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// Per-function summary: identity plus every extracted fact.
#[derive(Debug, Clone)]
pub struct FnSummary {
    /// Simple name.
    pub name: String,
    /// Enclosing `impl` type, when any.
    pub qual: Option<String>,
    /// Whether the fn carries a `pub` marker (any restriction form).
    pub is_pub: bool,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Last line of the body.
    pub end_line: u32,
    /// Whether the fn sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
    /// Call sites, in body order.
    pub calls: Vec<CallSite>,
    /// Lock acquisitions, in body order.
    pub locks: Vec<LockSite>,
    /// Determinism facts.
    pub facts: Vec<Fact>,
    /// Same-unit protocol-enum variant uses.
    pub variant_uses: Vec<VariantUse>,
    /// Token-index span of the body braces (`{` .. `}`, inclusive) in the
    /// file's token stream — [`crate::cfg`] rebuilds block structure from
    /// the retained tokens rather than duplicating them here.
    pub body_span: (usize, usize),
}

impl FnSummary {
    /// `Type::name` or plain `name` — the human-facing key.
    pub fn key(&self) -> String {
        match &self.qual {
            Some(q) => format!("{q}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// An `enum` declaration found in a file.
#[derive(Debug, Clone)]
pub struct EnumDecl {
    /// The enum's name.
    pub name: String,
    /// Declared variant names, in order.
    pub variants: Vec<String>,
    /// Line of the `enum` keyword.
    pub line: u32,
}

/// Everything the passes need from one source file.
#[derive(Debug, Clone)]
pub struct FileFacts {
    /// Repo-relative path.
    pub path: String,
    /// Extracted functions.
    pub fns: Vec<FnSummary>,
    /// Enum declarations (for protocol conformance).
    pub enums: Vec<EnumDecl>,
    /// Enums declared by the other files of this file's [`module_unit`].
    pub unit_enums: Vec<EnumDecl>,
    /// Variable/field names declared with a `HashMap`/`HashSet` type or
    /// initializer anywhere in the file.
    pub hash_vars: BTreeSet<String>,
}

/// Keywords that look like calls when followed by `(`.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "break", "continue", "in", "let", "else",
    "move", "unsafe", "as", "fn", "impl", "where", "pub", "use", "mod", "ref", "mut", "dyn",
    "struct", "enum", "trait", "type", "const", "static", "await", "async", "yield", "box",
];

/// Zero-argument method names that acquire a lock.
fn lock_kind(name: &str) -> Option<LockKind> {
    match name {
        "lock" | "try_lock" => Some(LockKind::Lock),
        "read" | "try_read" => Some(LockKind::Read),
        "write" | "try_write" => Some(LockKind::Write),
        _ => None,
    }
}

/// Methods whose call on a hash collection observes its iteration order.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

impl FileFacts {
    /// Every enum whose variants this file can name as protocol traffic:
    /// its own declarations, then its unit siblings'.
    pub fn visible_enums(&self) -> impl Iterator<Item = &EnumDecl> {
        self.enums.iter().chain(&self.unit_enums)
    }
}

/// The module a file belongs to for protocol purposes: a module split over
/// `a/parallel.rs` + `a/parallel/*.rs` is one unit (`a/parallel`), so the
/// enum declared in one of its files is matched against sends and match
/// arms in the others. A file directly under `src/` is its own unit.
pub fn module_unit(path: &str) -> &str {
    let stem = path.strip_suffix(".rs").unwrap_or(path);
    match stem.rsplit_once('/') {
        Some((dir, _)) if dir.rsplit('/').next() != Some("src") => dir,
        _ => stem,
    }
}

/// Extracts [`FileFacts`] from one lexed source file that is its whole
/// module unit.
pub fn extract(rel_path: &str, lexed: &Lexed) -> FileFacts {
    extract_in_unit(rel_path, lexed, Vec::new())
}

/// [`extract`] for a file whose unit siblings declare `unit_enums`.
pub fn extract_in_unit(rel_path: &str, lexed: &Lexed, unit_enums: Vec<EnumDecl>) -> FileFacts {
    let toks = &lexed.tokens;
    let test_regions = rules::test_regions(toks);
    let enums = extract_enums(toks);
    let visible: Vec<EnumDecl> = enums.iter().chain(&unit_enums).cloned().collect();
    let hash_vars = extract_hash_vars(toks);
    let impls = extract_impl_regions(toks);

    let mut fns = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if ident_at(toks, i) == Some("fn") {
            if let Some(TokKind::Ident(name)) = toks.get(i + 1).map(|t| &t.kind) {
                if let Some((body_start, body_end)) = fn_body_span(toks, i + 2) {
                    let qual = impls
                        .iter()
                        .filter(|(s, e, _)| (*s..=*e).contains(&i))
                        .min_by_key(|(s, e, _)| e - s)
                        .map(|(_, _, ty)| ty.clone());
                    let mut summary = FnSummary {
                        name: name.clone(),
                        qual,
                        is_pub: fn_is_pub(toks, i),
                        line: toks[i].line,
                        end_line: toks[body_end].line,
                        in_test: rules::in_regions(&test_regions, toks[i].line),
                        calls: Vec::new(),
                        locks: Vec::new(),
                        facts: Vec::new(),
                        variant_uses: Vec::new(),
                        body_span: (body_start, body_end),
                    };
                    extract_body_facts(
                        toks,
                        body_start,
                        body_end,
                        &visible,
                        &hash_vars,
                        &mut summary,
                    );
                    fns.push(summary);
                    // Nested fns/closures: bodies are rescanned from inside
                    // the outer body too, so continue right after the `fn`
                    // name rather than skipping the whole body.
                    i += 2;
                    continue;
                }
            }
        }
        i += 1;
    }
    FileFacts {
        path: rel_path.to_string(),
        fns,
        enums,
        unit_enums,
        hash_vars,
    }
}

/// Convenience: lex then extract.
pub fn extract_source(rel_path: &str, source: &str) -> FileFacts {
    extract(rel_path, &crate::lexer::lex(source))
}

pub(crate) fn ident_at(toks: &[Token], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

pub(crate) fn is_punct(toks: &[Token], i: usize, want: char) -> bool {
    matches!(toks.get(i).map(|t| &t.kind), Some(TokKind::Punct(c)) if *c == want)
}

pub(crate) fn is_op(toks: &[Token], i: usize, want: &str) -> bool {
    matches!(toks.get(i).map(|t| &t.kind), Some(TokKind::Op(op)) if *op == want)
}

/// Finds the matching close for the open delimiter at `open` (`{`/`(`/`[`).
pub(crate) fn match_delim(toks: &[Token], open: usize) -> Option<usize> {
    let (o, c) = match toks.get(open).map(|t| &t.kind) {
        Some(TokKind::Punct('{')) => ('{', '}'),
        Some(TokKind::Punct('(')) => ('(', ')'),
        Some(TokKind::Punct('[')) => ('[', ']'),
        _ => return None,
    };
    let mut depth = 0i32;
    for (j, tok) in toks.iter().enumerate().skip(open) {
        match &tok.kind {
            TokKind::Punct(p) if *p == o => depth += 1,
            TokKind::Punct(p) if *p == c => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

/// From just after `fn name`, locates the body `{ … }`, skipping the
/// signature (parens, return type, where clause). Returns `None` for
/// bodyless trait-method declarations.
fn fn_body_span(toks: &[Token], mut i: usize) -> Option<(usize, usize)> {
    while i < toks.len() {
        match &toks[i].kind {
            TokKind::Punct('{') => {
                let end = match_delim(toks, i)?;
                return Some((i, end));
            }
            TokKind::Punct(';') => return None,
            TokKind::Punct('(') | TokKind::Punct('[') => {
                i = match_delim(toks, i)? + 1;
            }
            _ => i += 1,
        }
    }
    None
}

/// Whether the `fn` at `i` carries a `pub` marker (walking back over
/// `const`/`unsafe`/`async`/`extern "abi"` and a `pub(restriction)` group).
fn fn_is_pub(toks: &[Token], fn_idx: usize) -> bool {
    let mut j = fn_idx;
    while j > 0 {
        j -= 1;
        match &toks[j].kind {
            TokKind::Ident(w) if matches!(w.as_str(), "const" | "unsafe" | "async" | "extern") => {}
            TokKind::Literal => {} // extern "C"
            TokKind::Punct(')') => {
                // Possibly the close of `pub(crate)`: walk to its `(`.
                let mut depth = 1i32;
                while j > 0 && depth > 0 {
                    j -= 1;
                    match &toks[j].kind {
                        TokKind::Punct(')') => depth += 1,
                        TokKind::Punct('(') => depth -= 1,
                        _ => {}
                    }
                }
            }
            TokKind::Ident(w) if w == "pub" => return true,
            _ => return false,
        }
    }
    false
}

/// `impl` regions as `(start_tok, end_tok, self_type_name)`.
fn extract_impl_regions(toks: &[Token]) -> Vec<(usize, usize, String)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if ident_at(toks, i) == Some("impl") {
            // Tokens between `impl` and its `{` name the (optional) trait
            // and the self type; the self type follows `for` when present.
            // Generic parameters (`impl<K: Eq + Hash> …`) are skipped so a
            // type parameter is never mistaken for the self type.
            let mut j = i + 1;
            if is_punct(toks, j, '<') {
                let mut angle = 0i32;
                while j < toks.len() {
                    match &toks[j].kind {
                        TokKind::Punct('<') => angle += 1,
                        TokKind::Punct('>') => {
                            angle -= 1;
                            if angle == 0 {
                                j += 1;
                                break;
                            }
                        }
                        TokKind::Punct('{' | ';') => break, // malformed; tolerate
                        _ => {}
                    }
                    j += 1;
                }
            }
            let mut names: Vec<(usize, String)> = Vec::new();
            let mut for_at: Option<usize> = None;
            while j < toks.len() && !is_punct(toks, j, '{') {
                match &toks[j].kind {
                    TokKind::Ident(w) if w == "for" => for_at = Some(j),
                    TokKind::Ident(w) if w == "where" => break,
                    TokKind::Ident(w) => names.push((j, w.clone())),
                    _ => {}
                }
                j += 1;
            }
            while j < toks.len() && !is_punct(toks, j, '{') {
                j += 1;
            }
            if let Some(end) = match_delim(toks, j) {
                let ty = match for_at {
                    Some(f) => names.iter().find(|(p, _)| *p > f).map(|(_, n)| n.clone()),
                    None => names.first().map(|(_, n)| n.clone()),
                };
                if let Some(ty) = ty {
                    out.push((j, end, ty));
                }
                // Impl bodies nest fns but never other impls we care to
                // separate; scan on from just inside.
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// All `enum Name { Variant, … }` declarations.
pub(crate) fn extract_enums(toks: &[Token]) -> Vec<EnumDecl> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if ident_at(toks, i) == Some("enum") {
            if let Some(name) = ident_at(toks, i + 1) {
                let name = name.to_string();
                let line = toks[i].line;
                // Skip generics to the `{`.
                let mut j = i + 2;
                while j < toks.len() && !is_punct(toks, j, '{') && !is_punct(toks, j, ';') {
                    j += 1;
                }
                if let Some(end) = match_delim(toks, j) {
                    let mut variants = Vec::new();
                    let mut k = j + 1;
                    let mut expect_variant = true;
                    while k < end {
                        match &toks[k].kind {
                            // Skip attributes on variants.
                            TokKind::Punct('#') if is_punct(toks, k + 1, '[') => {
                                k = match_delim(toks, k + 1).map_or(end, |c| c + 1);
                                continue;
                            }
                            TokKind::Ident(v) if expect_variant => {
                                variants.push(v.clone());
                                expect_variant = false;
                                k += 1;
                            }
                            // Payload or discriminant: skip to the comma.
                            TokKind::Punct('{') | TokKind::Punct('(') => {
                                k = match_delim(toks, k).map_or(end, |c| c + 1);
                            }
                            TokKind::Punct(',') => {
                                expect_variant = true;
                                k += 1;
                            }
                            _ => k += 1,
                        }
                    }
                    out.push(EnumDecl {
                        name,
                        variants,
                        line,
                    });
                    i = end;
                    continue;
                }
            }
        }
        i += 1;
    }
    out
}

/// Names declared as `HashMap`/`HashSet` anywhere in the file, via a type
/// ascription (`name: HashMap<…>`, fields and params alike) or a `let`
/// initializer (`let name = HashMap::new()`).
fn extract_hash_vars(toks: &[Token]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for i in 0..toks.len() {
        let Some(hash) = ident_at(toks, i) else {
            continue;
        };
        if hash != "HashMap" && hash != "HashSet" {
            continue;
        }
        // Walk back over `std :: collections ::` to the declaring token.
        let mut j = i;
        while j >= 2
            && is_op(toks, j - 1, "::")
            && matches!(ident_at(toks, j - 2), Some("std" | "collections"))
        {
            j -= 2;
        }
        if j == 0 {
            continue;
        }
        // `name : HashMap` (field, param, or typed let).
        if is_punct(toks, j - 1, ':') {
            // `let x: HashMap`, `buffers: HashMap`, `&self, map: HashMap`…
            if let Some(name) = ident_at(toks, j.wrapping_sub(2)) {
                out.insert(name.to_string());
            }
            continue;
        }
        // `let [mut] name = HashMap::…`.
        if is_punct(toks, j - 1, '=') && j >= 2 {
            if let Some(name) = ident_at(toks, j - 2) {
                let prev = j.checked_sub(3).and_then(|p| ident_at(toks, p));
                let prev2 = j.checked_sub(4).and_then(|p| ident_at(toks, p));
                if prev == Some("let") || (prev == Some("mut") && prev2 == Some("let")) {
                    out.insert(name.to_string());
                }
            }
        }
    }
    out
}

/// Walks back from the `.` before a method name, reconstructing the
/// receiver's trailing path (`self.meta`, `shard.index`, `foo()`).
pub(crate) fn receiver_chain(toks: &[Token], dot_idx: usize) -> String {
    let mut parts: Vec<String> = Vec::new();
    let mut j = dot_idx; // at the `.`
    loop {
        if j == 0 {
            break;
        }
        // Expect an ident (or `)` for a call-expression receiver) before
        // the current `.`.
        match &toks[j - 1].kind {
            TokKind::Ident(name) => {
                parts.push(name.clone());
                j -= 1;
                // Continue the chain over a preceding `.`.
                if j > 0 && is_punct(toks, j - 1, '.') {
                    j -= 1;
                    continue;
                }
                break;
            }
            TokKind::Punct(')') => {
                // `foo(…).lock()` — find the call's name.
                let mut depth = 1i32;
                let mut k = j - 1;
                while k > 0 && depth > 0 {
                    k -= 1;
                    match &toks[k].kind {
                        TokKind::Punct(')') => depth += 1,
                        TokKind::Punct('(') => depth -= 1,
                        _ => {}
                    }
                }
                if k > 0 {
                    if let Some(name) = ident_at(toks, k - 1) {
                        parts.push(format!("{name}()"));
                    }
                }
                break;
            }
            _ => break,
        }
    }
    parts.reverse();
    if parts.is_empty() {
        "<expr>".to_string()
    } else {
        parts.join(".")
    }
}

/// Scans one fn body (`toks[start..=end]`), filling `summary`.
#[allow(clippy::too_many_lines)]
fn extract_body_facts(
    toks: &[Token],
    start: usize,
    end: usize,
    enums: &[EnumDecl],
    hash_vars: &BTreeSet<String>,
    summary: &mut FnSummary,
) {
    // Pre-pass: token ranges of `send(…)`/`try_send(…)` argument lists.
    let mut send_ranges: Vec<(usize, usize)> = Vec::new();
    for i in start..=end {
        if matches!(ident_at(toks, i), Some("send" | "try_send")) && is_punct(toks, i + 1, '(') {
            if let Some(close) = match_delim(toks, i + 1) {
                send_ranges.push((i + 1, close));
            }
        }
    }
    let in_send = |i: usize| send_ranges.iter().any(|&(s, e)| (s..=e).contains(&i));

    let mut order = 0u32;
    let mut i = start;
    while i <= end {
        let line = toks[i].line;
        let col = toks[i].col;
        match &toks[i].kind {
            TokKind::Ident(name) if is_punct(toks, i + 1, '(') => {
                if NON_CALL_KEYWORDS.contains(&name.as_str()) {
                    i += 1;
                    continue;
                }
                let is_method = i > 0 && is_punct(toks, i - 1, '.');
                let qual = if i >= 2 && is_op(toks, i - 1, "::") {
                    ident_at(toks, i - 2).map(ToString::to_string)
                } else {
                    None
                };
                // Lock acquisition: zero-argument `.lock()`-family method.
                if let Some(kind) = lock_kind(name) {
                    if is_method && is_punct(toks, i + 2, ')') {
                        summary.locks.push(LockSite {
                            recv: receiver_chain(toks, i - 1),
                            kind,
                            line,
                            col,
                            order,
                        });
                        order += 1;
                        i += 3;
                        continue;
                    }
                }
                // Hash-collection iteration.
                if is_method && HASH_ITER_METHODS.contains(&name.as_str()) {
                    let recv = receiver_chain(toks, i - 1);
                    let last = recv.rsplit('.').next().unwrap_or(&recv);
                    if hash_vars.contains(last) {
                        summary.facts.push(Fact {
                            kind: FactKind::HashIter {
                                var: last.to_string(),
                                method: name.clone(),
                            },
                            line,
                            col,
                        });
                    }
                }
                // Time sources.
                if name == "now" && matches!(qual.as_deref(), Some("Instant" | "SystemTime")) {
                    summary.facts.push(Fact {
                        kind: FactKind::TimeSource {
                            what: qual.clone().expect("matched Some"),
                        },
                        line,
                        col,
                    });
                }
                if name == "current" && qual.as_deref() == Some("thread") {
                    summary.facts.push(Fact {
                        kind: FactKind::ThreadId,
                        line,
                        col,
                    });
                }
                // Same-file enum variant use (`Enum::Variant(…)`).
                if let Some(q) = &qual {
                    if let Some(decl) = enums.iter().find(|e| &e.name == q) {
                        if decl.variants.iter().any(|v| v == name) {
                            summary.variant_uses.push(VariantUse {
                                enum_name: q.clone(),
                                variant: name.clone(),
                                is_consume: is_match_arm_use(toks, i, end),
                                in_send: in_send(i),
                                line,
                                col,
                            });
                        }
                    }
                }
                summary.calls.push(CallSite {
                    name: name.clone(),
                    qual,
                    is_method,
                    line,
                    order,
                });
                order += 1;
                i += 1;
            }
            // `Enum::Variant` without a call-paren (unit or struct-literal
            // payload): the variant token is *not* followed by `(`.
            TokKind::Ident(name) if i >= 2 && is_op(toks, i - 1, "::") => {
                if let Some(q) = ident_at(toks, i - 2) {
                    if let Some(decl) = enums.iter().find(|e| e.name == q) {
                        if decl.variants.iter().any(|v| v == name) {
                            summary.variant_uses.push(VariantUse {
                                enum_name: q.to_string(),
                                variant: name.clone(),
                                is_consume: is_match_arm_use(toks, i, end),
                                in_send: in_send(i),
                                line,
                                col,
                            });
                        }
                    }
                }
                i += 1;
            }
            // `for pat in [&][mut] var {` over a hash-declared var.
            TokKind::Ident(name) if name == "in" => {
                let mut j = i + 1;
                while is_punct(toks, j, '&') || ident_at(toks, j) == Some("mut") {
                    j += 1;
                }
                if let Some(var) = ident_at(toks, j) {
                    if hash_vars.contains(var) && is_punct(toks, j + 1, '{') {
                        summary.facts.push(Fact {
                            kind: FactKind::HashIter {
                                var: var.to_string(),
                                method: "for-in".to_string(),
                            },
                            line: toks[j].line,
                            col: toks[j].col,
                        });
                    }
                }
                i += 1;
            }
            // Visibly-float `+=` accumulation: `x += 1.5`, `x += y as f64`.
            TokKind::Punct('+') if is_punct(toks, i + 1, '=') => {
                let floatish = matches!(
                    toks.get(i + 2).map(|t| &t.kind),
                    Some(TokKind::Num { is_float: true, .. })
                ) || matches!(ident_at(toks, i + 2), Some("f32" | "f64"));
                if floatish {
                    summary.facts.push(Fact {
                        kind: FactKind::FloatAccum,
                        line,
                        col,
                    });
                }
                i += 2;
            }
            _ => i += 1,
        }
    }
}

/// Whether the `Enum::Variant` use at `i` is a match-arm pattern: skip the
/// optional payload group, then closing delimiters and an optional guard,
/// and look for `=>`.
///
/// The forward scan alone misreads a construction in a non-block arm body
/// (`Ok(v) => Event::Done { v }, Err(e) => …`) as a pattern, because the
/// *next* arm's `=>` is ahead of it. A backward pre-check catches that
/// shape: when the nearest preceding significant token is `=>` or `=`, the
/// use starts an expression, not a pattern.
fn is_match_arm_use(toks: &[Token], variant_idx: usize, body_end: usize) -> bool {
    if starts_expression(toks, variant_idx) {
        return false;
    }
    let mut j = variant_idx + 1;
    // Payload group directly after the variant name.
    if is_punct(toks, j, '(') || is_punct(toks, j, '{') {
        match match_delim(toks, j) {
            Some(close) => j = close + 1,
            None => return false,
        }
    }
    // Unwind enclosing pattern delimiters and sibling patterns: `)`, `]`,
    // `|` (or-patterns), `,` (tuple siblings), `&`/`::` and idents with an
    // optional payload group (`Err(_)`, `Point { .. }`). Anything
    // expression-like (`;`, `.`, operators) means this was a construction.
    let limit = (variant_idx + 64).min(body_end);
    while j <= limit {
        match &toks[j].kind {
            TokKind::Punct(')' | ']' | '|' | ',' | '&') | TokKind::Op("::") => j += 1,
            TokKind::Op("=>") => return true,
            // Guard: `Pat if cond => …` — scan ahead for the arrow before
            // a statement end.
            TokKind::Ident(w) if w == "if" => {
                while j <= limit {
                    match &toks[j].kind {
                        TokKind::Op("=>") => return true,
                        TokKind::Punct(';' | '{') => return false,
                        _ => j += 1,
                    }
                }
                return false;
            }
            TokKind::Ident(_) => {
                j += 1;
                // A sibling pattern's payload: `Err(_)`, `S { .. }`.
                if is_punct(toks, j, '(') || is_punct(toks, j, '{') {
                    match match_delim(toks, j) {
                        Some(close) => j = close + 1,
                        None => return false,
                    }
                }
            }
            _ => return false,
        }
    }
    false
}

/// Backward scan from the `Enum` token of an `Enum::Variant` use (the
/// variant token sits at `variant_idx`, the enum name two before it):
/// skipping tokens that look the same in patterns and expressions (idents,
/// `(`/`[`, `&`, `.`, `::`), does the use follow `=>`, `=`, or `return` —
/// i.e. start an expression?
fn starts_expression(toks: &[Token], variant_idx: usize) -> bool {
    let mut j = variant_idx.saturating_sub(2); // the enum-name token
    while j > 0 {
        j -= 1;
        match &toks[j].kind {
            // Pattern context for sure: `let P = …`, `match`/`for` keywords.
            TokKind::Ident(w) if matches!(w.as_str(), "let" | "match" | "for" | "while" | "if") => {
                return false;
            }
            TokKind::Ident(w) if w == "return" => return true,
            TokKind::Ident(_) | TokKind::Punct('(' | '[' | '&' | '.' | '_') | TokKind::Op("::") => {
            }
            TokKind::Op("=>") => return true,
            TokKind::Punct('=') => return true,
            _ => return false,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facts(src: &str) -> FileFacts {
        extract_source("crates/demo/src/lib.rs", src)
    }

    #[test]
    fn fn_extraction_finds_methods_and_frees() {
        let f = facts(
            "pub fn free() {}\n\
             struct S;\n\
             impl S {\n    pub(crate) fn method(&self) { helper(); }\n}\n\
             fn helper() {}\n",
        );
        let keys: Vec<String> = f.fns.iter().map(FnSummary::key).collect();
        assert_eq!(keys, vec!["free", "S::method", "helper"]);
        assert!(f.fns[0].is_pub);
        assert!(f.fns[1].is_pub);
        assert!(!f.fns[2].is_pub);
        assert_eq!(f.fns[1].calls.len(), 1);
        assert_eq!(f.fns[1].calls[0].name, "helper");
    }

    #[test]
    fn impl_for_takes_the_self_type() {
        let f = facts(
            "trait T { fn go(&self); }\n\
             struct W;\n\
             impl T for W {\n    fn go(&self) {}\n}\n",
        );
        let w = f.fns.iter().find(|f| f.qual.is_some()).expect("impl fn");
        assert_eq!(w.key(), "W::go");
    }

    #[test]
    fn lock_sites_record_receiver_and_order() {
        let f = facts(
            "fn f(&self) {\n\
             \x20   let a = self.meta.lock();\n\
             \x20   let b = self.data.write();\n\
             \x20   file.read(&mut buf);\n\
             }\n",
        );
        let locks = &f.fns[0].locks;
        assert_eq!(locks.len(), 2, "{locks:?}");
        assert_eq!(locks[0].recv, "self.meta");
        assert_eq!(locks[0].kind, LockKind::Lock);
        assert_eq!(locks[1].recv, "self.data");
        assert_eq!(locks[1].kind, LockKind::Write);
        assert!(locks[0].order < locks[1].order);
    }

    #[test]
    fn hash_iteration_is_detected_only_for_hash_vars() {
        let f = facts(
            "struct S { counts: HashMap<u32, u32> }\n\
             fn f(s: &S, v: &Vec<u32>) {\n\
             \x20   for x in v.iter() {}\n\
             \x20   for (k, c) in s.counts.iter() {}\n\
             \x20   let t: u32 = s.counts.values().sum();\n\
             }\n",
        );
        let hash_facts: Vec<&Fact> = f.fns[0]
            .facts
            .iter()
            .filter(|x| matches!(x.kind, FactKind::HashIter { .. }))
            .collect();
        assert_eq!(hash_facts.len(), 2, "{hash_facts:?}");
    }

    #[test]
    fn let_bound_hash_and_for_in_detected() {
        let f = facts(
            "fn f() {\n\
             \x20   let mut seen = HashSet::new();\n\
             \x20   for id in &seen {}\n\
             }\n",
        );
        assert!(f.hash_vars.contains("seen"));
        assert_eq!(f.fns[0].facts.len(), 1);
    }

    #[test]
    fn enum_decl_and_variant_classification() {
        let f = facts(
            "enum Cmd { Open(u32), Fill { n: usize }, Close }\n\
             fn produce(tx: &Sender<Cmd>) {\n\
             \x20   tx.send(Cmd::Open(1)).unwrap();\n\
             \x20   tx.send(Cmd::Fill { n: 3 }).ok();\n\
             \x20   let c = Cmd::Close;\n\
             }\n\
             fn consume(rx: &Receiver<Cmd>) {\n\
             \x20   match rx.recv() {\n\
             \x20       Ok(Cmd::Open(n)) => {}\n\
             \x20       Ok(Cmd::Fill { n }) => {}\n\
             \x20       Ok(Cmd::Close) | Err(_) => {}\n\
             \x20   }\n\
             }\n",
        );
        assert_eq!(f.enums.len(), 1);
        assert_eq!(f.enums[0].variants, vec!["Open", "Fill", "Close"]);
        let produce = &f.fns[0];
        assert_eq!(produce.variant_uses.len(), 3);
        assert!(produce.variant_uses.iter().all(|u| !u.is_consume));
        assert!(produce.variant_uses[0].in_send);
        assert!(produce.variant_uses[1].in_send);
        assert!(!produce.variant_uses[2].in_send);
        let consume = &f.fns[1];
        assert_eq!(consume.variant_uses.len(), 3);
        assert!(consume.variant_uses.iter().all(|u| u.is_consume));
    }

    #[test]
    fn time_and_thread_facts() {
        let f = facts(
            "fn f() {\n\
             \x20   let t = Instant::now();\n\
             \x20   let id = std::thread::current().id();\n\
             }\n",
        );
        let kinds: Vec<&FactKind> = f.fns[0].facts.iter().map(|x| &x.kind).collect();
        assert_eq!(kinds.len(), 2, "{kinds:?}");
        assert!(matches!(kinds[0], FactKind::TimeSource { .. }));
        assert!(matches!(kinds[1], FactKind::ThreadId));
    }

    #[test]
    fn module_unit_groups_a_split_module_only() {
        assert_eq!(
            module_unit("crates/core/src/parallel.rs"),
            "crates/core/src/parallel"
        );
        assert_eq!(
            module_unit("crates/core/src/parallel/worker.rs"),
            "crates/core/src/parallel"
        );
        assert_eq!(
            module_unit("crates/core/src/ingest.rs"),
            "crates/core/src/ingest"
        );
        assert_eq!(module_unit("src/lib.rs"), "src/lib");
    }

    #[test]
    fn cfg_test_region_marks_its_fns() {
        let f = facts(
            "fn g(rx: &Receiver<u8>) { let _ = rx.recv_timeout(d); }\n\
             #[cfg(test)]\nmod tests {\n    fn t() { let m = x.lock(); }\n}\n",
        );
        assert!(!f.fns[0].in_test);
        let t = f.fns.iter().find(|f| f.name == "t").expect("test fn");
        assert!(t.in_test);
    }
}
