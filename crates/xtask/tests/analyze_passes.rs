//! Per-pass fixtures for storm-analyzer: each pass gets one known-bad
//! fixture proving it fires (with exact diagnostic id and span) and one
//! known-clean fixture proving it stays quiet, plus a whole-workspace run
//! mirroring `whole_workspace_is_lint_clean`.

use std::path::Path;

use xtask::analyze::{analyze_sources, apply_baseline, parse_baseline, render_baseline};
use xtask::Diagnostic;

/// Loads a fixture from `tests/fixtures/` and analyzes it under a synthetic
/// in-scope workspace path (the passes scope by path prefix, so the fixture
/// must pretend to live in a real crate).
fn analyze_fixture(fixture: &str, as_path: &str) -> Vec<Diagnostic> {
    let disk = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(fixture);
    let src = std::fs::read_to_string(&disk)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", disk.display()));
    analyze_sources(&[(as_path.to_string(), src)])
}

// ---------------------------------------------------------------- A1

#[test]
fn a1_fires_on_conflicting_lock_order() {
    let diags = analyze_fixture("a1_bad.rs", "crates/core/src/a1_bad.rs");
    assert_eq!(diags.len(), 1, "{diags:?}");
    let d = &diags[0];
    // Anchored at the second acquisition of the first conflicting pair:
    // `data.lock()` on line 6, column of the `lock` token.
    assert_eq!(
        (d.rule, d.path.as_str(), d.line, d.col),
        ("A1", "crates/core/src/a1_bad.rs", 6, 19)
    );
    assert!(
        d.message.contains("lock-order cycle between {data, meta}"),
        "{}",
        d.message
    );
    assert!(d.message.contains("`meta_then_data`"), "{}", d.message);
}

#[test]
fn a1_quiet_on_consistent_lock_order() {
    let diags = analyze_fixture("a1_clean.rs", "crates/core/src/a1_clean.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------- A2

#[test]
fn a2_fires_on_hash_iteration_in_the_output_cone() {
    let diags = analyze_fixture("a2_bad.rs", "crates/estimators/src/a2_bad.rs");
    assert_eq!(diags.len(), 1, "{diags:?}");
    let d = &diags[0];
    // `self.counts.iter()` on line 17, column of the `iter` token.
    assert_eq!(
        (d.rule, d.path.as_str(), d.line, d.col),
        ("A2", "crates/estimators/src/a2_bad.rs", 17, 35)
    );
    assert!(d.message.contains("`counts` (iter)"), "{}", d.message);
    // The diagnostic names both the tainted helper and the public API
    // function whose callers observe the nondeterminism.
    assert!(d.message.contains("`Totals::sum_groups`"), "{}", d.message);
    assert!(d.message.contains("`Totals::grand_total`"), "{}", d.message);
}

#[test]
fn a2_quiet_on_point_lookups() {
    let diags = analyze_fixture("a2_clean.rs", "crates/estimators/src/a2_clean.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn a2_quiet_outside_the_output_cone() {
    // The same tainted code, analyzed under a path A2 does not scope to
    // (xtask itself): scoping, not luck, is what keeps the pass quiet.
    let diags = analyze_fixture("a2_bad.rs", "crates/xtask/src/a2_bad.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------- A3

#[test]
fn a3_fires_on_unconsumed_variant() {
    let diags = analyze_fixture("a3_bad.rs", "crates/engine/src/a3_bad.rs");
    assert_eq!(diags.len(), 1, "{diags:?}");
    let unconsumed = &diags[0];
    assert_eq!(
        (
            unconsumed.rule,
            unconsumed.path.as_str(),
            unconsumed.line,
            unconsumed.col
        ),
        ("A3", "crates/engine/src/a3_bad.rs", 3, 1)
    );
    assert!(
        unconsumed
            .message
            .contains("`ShardCmd::Drain` is consumed by no match arm"),
        "{}",
        unconsumed.message
    );
}

#[test]
fn a3_pools_a_protocol_over_its_module_unit() {
    // The enum lives in one file of a split module, its producer and
    // consumer in two others: one protocol, checked as one. Drop the
    // consumer file and the declaring file is flagged; move the producer
    // outside the unit and the enum is no protocol at all.
    let decl = "enum Cmd {\n    Go,\n}\n";
    let produce = "fn scatter(tx: &Sender) {\n    let _ = tx.send(Cmd::Go);\n}\n";
    let consume = "fn worker(rx: &Receiver) {\n    match rx.recv() {\n        Ok(Cmd::Go) => {}\n        _ => {}\n    }\n}\n";
    let file = |path: &str, src: &str| (path.to_string(), src.to_string());
    let unit = [
        file("crates/engine/src/proto.rs", decl),
        file("crates/engine/src/proto/chan.rs", produce),
        file("crates/engine/src/proto/worker.rs", consume),
    ];
    assert!(analyze_sources(&unit).is_empty());
    let diags = analyze_sources(&unit[..2]);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(
        (diags[0].rule, diags[0].path.as_str(), diags[0].line),
        ("A3", "crates/engine/src/proto.rs", 1)
    );
    let outside = [
        file("crates/engine/src/proto.rs", decl),
        file("crates/engine/src/other.rs", produce),
    ];
    assert!(analyze_sources(&outside).is_empty());
}

#[test]
fn a3_quiet_on_fully_wired_protocol() {
    let diags = analyze_fixture("a3_clean.rs", "crates/engine/src/a3_clean.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------- A4

#[test]
fn a4_fires_on_loop_allocation_in_the_sampling_cone() {
    let diags = analyze_fixture("a4_bad.rs", "crates/core/src/a4_bad.rs");
    assert_eq!(diags.len(), 1, "{diags:?}");
    let d = &diags[0];
    // `vec![0u8; 16]` on line 19, column of the `vec` token — inside
    // `fill_one`, reached from the `next_batch` root through the graph.
    assert_eq!(
        (d.rule, d.path.as_str(), d.line, d.col),
        ("A4", "crates/core/src/a4_bad.rs", 19, 19)
    );
    assert!(d.message.contains("allocation `vec!`"), "{}", d.message);
    assert!(d.message.contains("loop depth 1"), "{}", d.message);
    assert!(d.message.contains("`fill_one`"), "{}", d.message);
}

#[test]
fn a4_quiet_when_the_buffer_is_hoisted() {
    let diags = analyze_fixture("a4_clean.rs", "crates/core/src/a4_clean.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn a4_quiet_outside_the_scoped_crates() {
    // The same hot-loop allocation, analyzed under a path A4 does not
    // scope to: scoping, not luck, keeps the pass quiet.
    let diags = analyze_fixture("a4_bad.rs", "crates/xtask/src/a4_bad.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------- A5

#[test]
fn a5_fires_on_per_item_send_with_batched_variant_in_scope() {
    let diags = analyze_fixture("a5_bad.rs", "crates/store/src/a5_bad.rs");
    assert_eq!(diags.len(), 1, "{diags:?}");
    let d = &diags[0];
    // `tx.send(Reply::Item(it))` on line 11, column of the `send` token.
    assert_eq!(
        (d.rule, d.path.as_str(), d.line, d.col),
        ("A5", "crates/store/src/a5_bad.rs", 11, 12)
    );
    assert!(d.message.contains("per-item `.send(…)`"), "{}", d.message);
    assert!(d.message.contains("`stream_items`"), "{}", d.message);
    // The diagnostic names the batched alternative it found in scope.
    assert!(d.message.contains("`Reply::Batch`"), "{}", d.message);
}

#[test]
fn a5_quiet_when_the_loop_sends_the_batched_variant() {
    let diags = analyze_fixture("a5_clean.rs", "crates/store/src/a5_clean.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn a5_quiet_outside_the_channel_io_scope() {
    let diags = analyze_fixture("a5_bad.rs", "crates/engine/src/a5_bad.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------- A6

#[test]
fn a6_fires_on_send_while_guard_held() {
    let diags = analyze_fixture("a6_bad.rs", "crates/core/src/a6_bad.rs");
    assert_eq!(diags.len(), 1, "{diags:?}");
    let d = &diags[0];
    // `tx.send(v)` on line 7, column of the `send` token, inside the
    // `guard = m.lock()` held region opened on line 5.
    assert_eq!(
        (d.rule, d.path.as_str(), d.line, d.col),
        ("A6", "crates/core/src/a6_bad.rs", 7, 12)
    );
    assert!(d.message.contains("blocking `.send(…)`"), "{}", d.message);
    assert!(d.message.contains("`flush`"), "{}", d.message);
    assert!(
        d.message.contains("`m` guard (acquired line 5)"),
        "{}",
        d.message
    );
}

#[test]
fn a6_quiet_when_guard_dropped_before_blocking() {
    let diags = analyze_fixture("a6_clean.rs", "crates/core/src/a6_clean.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------- A7

#[test]
fn a7_fires_lexically_and_one_hop_into_the_spawn_entry() {
    let diags = analyze_fixture("a7_bad.rs", "crates/core/src/a7_bad.rs");
    assert_eq!(diags.len(), 2, "{diags:?}");
    // Sorted by line: the lexical spawn-closure site first, the one-hop
    // spawn-entry site second.
    let lexical = &diags[0];
    // `xs[0]` on line 7, column of the `[` token.
    assert_eq!(
        (
            lexical.rule,
            lexical.path.as_str(),
            lexical.line,
            lexical.col
        ),
        ("A7", "crates/core/src/a7_bad.rs", 7, 23)
    );
    assert!(
        lexical
            .message
            .contains("`index` in the spawn closure of `launch`"),
        "{}",
        lexical.message
    );
    let one_hop = &diags[1];
    // `xs[i]` on line 16 inside `run_worker`, the fn the closure calls.
    assert_eq!(
        (
            one_hop.rule,
            one_hop.path.as_str(),
            one_hop.line,
            one_hop.col
        ),
        ("A7", "crates/core/src/a7_bad.rs", 16, 20)
    );
    assert!(
        one_hop
            .message
            .contains("`index` on the worker-thread path through `run_worker`"),
        "{}",
        one_hop.message
    );
}

#[test]
fn a7_quiet_when_catch_unwind_dominates() {
    let diags = analyze_fixture("a7_clean.rs", "crates/core/src/a7_clean.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------- A9

#[test]
fn a9_fires_on_per_session_alloc_in_tick_loop() {
    let diags = analyze_fixture("a9_bad.rs", "crates/server/src/a9_bad.rs");
    assert_eq!(diags.len(), 1, "{diags:?}");
    let d = &diags[0];
    // `vec![0u64; 16]` on line 19, column of the `vec` token — inside
    // `tick`, the scheduler's per-tick driver rooting the A9 cone.
    assert_eq!(
        (d.rule, d.path.as_str(), d.line, d.col),
        ("A9", "crates/server/src/a9_bad.rs", 19, 25)
    );
    assert!(d.message.contains("allocation `vec!`"), "{}", d.message);
    assert!(d.message.contains("loop depth 1"), "{}", d.message);
    assert!(d.message.contains("per-session cost"), "{}", d.message);
}

#[test]
fn a9_quiet_when_scratch_is_hoisted() {
    let diags = analyze_fixture("a9_clean.rs", "crates/server/src/a9_clean.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn a9_quiet_outside_the_serving_layer() {
    // The same tick-loop allocation, analyzed under a path A9 does not
    // scope to: scoping, not luck, keeps the pass quiet (and no other
    // pass roots at `run`/`tick`, so the whole run is silent).
    let diags = analyze_fixture("a9_bad.rs", "crates/core/src/a9_bad.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------- A10

#[test]
fn a10_fires_on_half_synchronized_atomic_pairs() {
    let diags = analyze_fixture("a10_bad.rs", "crates/core/src/a10_bad.rs");
    assert_eq!(diags.len(), 2, "{diags:?}");
    // Sorted by line: the Relaxed guard load first, the Relaxed publish
    // store second — each anchored at the method-name token.
    let guard = &diags[0];
    assert_eq!(
        (guard.rule, guard.path.as_str(), guard.line, guard.col),
        ("A10", "crates/core/src/a10_bad.rs", 16, 18)
    );
    assert!(
        guard.message.contains("guard-without-Acquire"),
        "{}",
        guard.message
    );
    assert!(
        guard.message.contains("`Buf::self.len`"),
        "{}",
        guard.message
    );
    let publish = &diags[1];
    assert_eq!(
        (
            publish.rule,
            publish.path.as_str(),
            publish.line,
            publish.col
        ),
        ("A10", "crates/core/src/a10_bad.rs", 20, 18)
    );
    assert!(
        publish.message.contains("publish-without-Release"),
        "{}",
        publish.message
    );
    assert!(
        publish.message.contains("`Buf::self.seq`"),
        "{}",
        publish.message
    );
}

#[test]
fn a10_quiet_on_paired_and_pure_relaxed_groups() {
    let diags = analyze_fixture("a10_clean.rs", "crates/core/src/a10_clean.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn a10_quiet_outside_the_shared_atomics_scope() {
    // The same half-synchronized pairs, analyzed under a path A10 does not
    // scope to: scoping, not luck, keeps the pass quiet.
    let diags = analyze_fixture("a10_bad.rs", "crates/xtask/src/a10_bad.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------- A11

#[test]
fn a11_fires_on_publish_under_read_lock_and_loop_repin() {
    let diags = analyze_fixture("a11_bad.rs", "crates/core/src/a11_bad.rs");
    assert_eq!(diags.len(), 2, "{diags:?}");
    // Sorted by line: the publish-in-closure site first, the loop re-pin
    // second.
    let publish = &diags[0];
    assert_eq!(
        (
            publish.rule,
            publish.path.as_str(),
            publish.line,
            publish.col
        ),
        ("A11", "crates/core/src/a11_bad.rs", 14, 31)
    );
    assert!(
        publish.message.contains("publish-class `try_publish`"),
        "{}",
        publish.message
    );
    assert!(
        publish.message.contains("opened at line 12"),
        "{}",
        publish.message
    );
    let repin = &diags[1];
    assert_eq!(
        (repin.rule, repin.path.as_str(), repin.line, repin.col),
        ("A11", "crates/core/src/a11_bad.rs", 28, 34)
    );
    assert!(
        repin.message.contains("epoch re-read: `.pin(…)`"),
        "{}",
        repin.message
    );
    assert!(
        repin.message.contains("`Sampler::draw`"),
        "{}",
        repin.message
    );
}

#[test]
fn a11_quiet_on_publish_after_closure_and_hoisted_pin() {
    let diags = analyze_fixture("a11_clean.rs", "crates/core/src/a11_clean.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------- A12

#[test]
fn a12_fires_on_untimely_swap_and_fill_after_close() {
    let diags = analyze_fixture("a12_bad.rs", "crates/server/src/a12_bad.rs");
    assert_eq!(diags.len(), 3, "{diags:?}");
    // Sorted by line: the rogue Swap send, the Fill after Close, the
    // rogue install_epoch call.
    let swap = &diags[0];
    assert_eq!(
        (swap.rule, swap.path.as_str(), swap.line, swap.col),
        ("A12", "crates/server/src/a12_bad.rs", 25, 28)
    );
    assert!(
        swap.message
            .contains("`Cmd::Swap` sent from `Lane::hot_swap`"),
        "{}",
        swap.message
    );
    let fill = &diags[1];
    assert_eq!(
        (fill.rule, fill.path.as_str(), fill.line, fill.col),
        ("A12", "crates/server/src/a12_bad.rs", 30, 28)
    );
    assert!(
        fill.message
            .contains("`Cmd::FillMany` sent after a Close-class op"),
        "{}",
        fill.message
    );
    assert!(
        fill.message.contains("`Lane::teardown`"),
        "{}",
        fill.message
    );
    let install = &diags[2];
    assert_eq!(
        (
            install.rule,
            install.path.as_str(),
            install.line,
            install.col
        ),
        ("A12", "crates/server/src/a12_bad.rs", 41, 22)
    );
    assert!(
        install
            .message
            .contains("`install_epoch` called from `Rebuilder::rebuild`"),
        "{}",
        install.message
    );
}

#[test]
fn a12_quiet_on_disciplined_protocol_paths() {
    // Fill-then-close, close-then-fill across a loop back edge (legal
    // per-iteration discipline), and Swap from install_epoch only.
    let diags = analyze_fixture("a12_clean.rs", "crates/server/src/a12_clean.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn a12_quiet_outside_the_protocol_scope() {
    let diags = analyze_fixture("a12_bad.rs", "crates/core/src/a12_bad.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------- A13

#[test]
fn a13_fires_on_blocked_lock_tick_recv_and_unwrap() {
    let diags = analyze_fixture("a13_bad.rs", "crates/server/src/a13_bad.rs");
    assert_eq!(diags.len(), 3, "{diags:?}");
    // Sorted by line: send under guard, timeout-less tick recv, unwrapped
    // channel result.
    let under_lock = &diags[0];
    assert_eq!(
        (
            under_lock.rule,
            under_lock.path.as_str(),
            under_lock.line,
            under_lock.col
        ),
        ("A13", "crates/server/src/a13_bad.rs", 14, 17)
    );
    assert!(
        under_lock.message.contains("blocking `.send(…)`"),
        "{}",
        under_lock.message
    );
    let tick_recv = &diags[1];
    assert_eq!(
        (
            tick_recv.rule,
            tick_recv.path.as_str(),
            tick_recv.line,
            tick_recv.col
        ),
        ("A13", "crates/server/src/a13_bad.rs", 19, 37)
    );
    assert!(
        tick_recv.message.contains("timeout-less `.recv()`"),
        "{}",
        tick_recv.message
    );
    assert!(
        tick_recv.message.contains("`Hub::run`"),
        "{}",
        tick_recv.message
    );
    let unwrapped = &diags[2];
    assert_eq!(
        (
            unwrapped.rule,
            unwrapped.path.as_str(),
            unwrapped.line,
            unwrapped.col
        ),
        ("A13", "crates/server/src/a13_bad.rs", 25, 25)
    );
    assert!(
        unwrapped.message.contains("`.send(…).unwrap(…)`"),
        "{}",
        unwrapped.message
    );
}

#[test]
fn a13_quiet_on_bounded_and_handled_channel_ops() {
    let diags = analyze_fixture("a13_clean.rs", "crates/server/src/a13_clean.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------- baseline

#[test]
fn baseline_suppresses_fixture_findings_end_to_end() {
    let diags = analyze_fixture("a3_bad.rs", "crates/engine/src/a3_bad.rs");
    assert!(!diags.is_empty());
    let baseline = parse_baseline(&render_baseline(&diags));
    let (new, accepted, stale) = apply_baseline(diags, &baseline);
    assert!(new.is_empty(), "{new:?}");
    assert_eq!(accepted.len(), 1);
    assert!(stale.is_empty(), "{stale:?}");
}

// ---------------------------------------------------------------- workspace

#[test]
fn whole_workspace_is_analyze_clean() {
    // Mirrors CI's `analyze --deny-new`: every finding must be fixed,
    // justified with an inline allow directive, or accepted into the
    // shipped baseline (each baseline block carries a written rationale) —
    // and the baseline must hold no stale entries for findings already
    // fixed.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("xtask lives two levels below the repo root")
        .to_path_buf();
    let diags = xtask::analyze::analyze_workspace(&root).expect("workspace read");
    let baseline_text = std::fs::read_to_string(root.join("crates/xtask/analyze.baseline"))
        .expect("baseline file ships with the repo");
    let (new, _accepted, stale) = apply_baseline(diags, &parse_baseline(&baseline_text));
    assert!(
        new.is_empty(),
        "analyzer findings not in the shipped baseline:\n{}",
        new.iter()
            .map(xtask::analyze::render)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        stale.is_empty(),
        "stale baseline entries (finding fixed, entry not removed):\n{}",
        stale.join("\n")
    );
}
