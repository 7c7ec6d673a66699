//! Invariant validators for the sampling indexes, modeled on
//! `storm_rtree::validate`.
//!
//! Each `check_*` function walks one structure and returns a description of
//! the **first** violated invariant, or `Ok(())`. They exist because the
//! estimators' unbiasedness proofs lean on structural properties the type
//! system cannot express — per-node counts that are exactly subtree sizes,
//! alias tables whose probability mass reconstructs the input weights,
//! hash-level membership that makes an item's survival geometric(½). A
//! silent violation does not crash anything; it just skews every estimate
//! produced afterwards, which is far worse.
//!
//! Mutation paths call these through debug-assert-gated audit hooks
//! (release builds pay nothing); the property tests in
//! `tests/validate_prop.rs` drive random insert/delete/sample sequences
//! against them directly.

use std::collections::HashSet;

use storm_geo::Rect;
use storm_rtree::NodeId;

use crate::ls_tree::{level_of, LsTree};
use crate::rs_tree::RsTree;
use crate::weighted::{SelectorKind, WeightedSelector};

/// Checks every LS-tree invariant:
///
/// * each level's R-tree is structurally valid ([`storm_rtree::validate`]);
/// * level sizes are monotone non-increasing (each `P_{i+1} ⊆ P_i`);
/// * membership matches the hash exactly: for `i >= 1`, level `i` holds
///   precisely the items of level `i-1` with `level_of(id) >= i` — the
///   geometric(½) survival that makes a level-`i` hit a `2^-i` coin flip;
/// * no duplicate ids within a level.
pub fn check_ls_tree<const D: usize>(ls: &LsTree<D>) -> Result<(), String> {
    if ls.levels.is_empty() {
        return Err("LS-tree has no levels (level 0 must always exist)".into());
    }
    let mut prev: Option<HashSet<u64>> = None;
    for (i, tree) in ls.levels.iter().enumerate() {
        // storm-analyzer: allow(A4): failure-path error formatting — allocates only when an audit fails, never per draw; the sampling-cone link is type-sharing, not a hot path
        storm_rtree::validate::check(tree).map_err(|e| format!("level {i}: {e}"))?;
        let items = tree.items();
        // storm-analyzer: allow(A4): failure-path error formatting — allocates only when an audit fails, never per draw; the sampling-cone link is type-sharing, not a hot path
        let ids: HashSet<u64> = items.iter().map(|it| it.id).collect();
        if ids.len() != items.len() {
            // storm-analyzer: allow(A4): failure-path error formatting — allocates only when an audit fails, never per draw; the sampling-cone link is type-sharing, not a hot path
            return Err(format!("level {i} holds duplicate ids"));
        }
        if let Some(below) = &prev {
            if below.len() < ids.len() {
                // storm-analyzer: allow(A4): failure-path error formatting — allocates only when an audit fails, never per draw; the sampling-cone link is type-sharing, not a hot path
                return Err(format!(
                    "level {i} larger than level {} ({} > {})",
                    i - 1,
                    ids.len(),
                    below.len()
                ));
            }
            let expect_u32 = u32::try_from(i).unwrap_or(u32::MAX);
            // storm-analyzer: allow(A2): order only picks which violating id the error names; whether an error exists is order-independent, and audits never feed estimates
            for id in &ids {
                if !below.contains(id) {
                    // storm-analyzer: allow(A4): failure-path error formatting — allocates only when an audit fails, never per draw; the sampling-cone link is type-sharing, not a hot path
                    return Err(format!("level {i} id {id} missing from level {}", i - 1));
                }
            }
            for id in below {
                let survives = level_of(*id, ls.salt) >= expect_u32;
                if survives && !ids.contains(id) {
                    // storm-analyzer: allow(A4): failure-path error formatting — allocates only when an audit fails, never per draw; the sampling-cone link is type-sharing, not a hot path
                    return Err(format!(
                        "id {id} hashes to level >= {i} but is absent from level {i}"
                    ));
                }
                if !survives && ids.contains(id) {
                    // storm-analyzer: allow(A4): failure-path error formatting — allocates only when an audit fails, never per draw; the sampling-cone link is type-sharing, not a hot path
                    return Err(format!(
                        "id {id} hashes below level {i} but is present in level {i}"
                    ));
                }
            }
        }
        prev = Some(ids);
    }
    Ok(())
}

/// Checks every RS-tree invariant:
///
/// * the backing R-tree is structurally valid (covers the per-node
///   weight/count sums sampling descent relies on);
/// * every buffered node id is reachable from the root;
/// * buffers respect `buffer_size`, hold no duplicate ids, and every
///   buffered item lies inside its node's rectangle and really exists in
///   that node's subtree (spent randomness must come from `P(u)`).
pub fn check_rs_tree<const D: usize>(rs: &RsTree<D>) -> Result<(), String> {
    storm_rtree::validate::check(&rs.tree)?;
    let mut reachable: HashSet<NodeId> = HashSet::new();
    if let Some(root) = rs.tree.root_id() {
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if reachable.insert(id) {
                // storm-analyzer: allow(A8): debug invariant checker, not a sampling path
                stack.extend(rs.tree.view_free_of_charge(id).children());
            }
        }
    }
    for (&node, buf) in &rs.buffers {
        if !reachable.contains(&node) {
            // storm-analyzer: allow(A4): failure-path error formatting — allocates only when an audit fails, never per draw; the sampling-cone link is type-sharing, not a hot path
            return Err(format!("buffer attached to unreachable node {node:?}"));
        }
        if buf.len() > rs.cfg.buffer_size {
            // storm-analyzer: allow(A4): failure-path error formatting — allocates only when an audit fails, never per draw; the sampling-cone link is type-sharing, not a hot path
            return Err(format!(
                "buffer of node {node:?} overflows: {} > {}",
                buf.len(),
                rs.cfg.buffer_size
            ));
        }
        // storm-analyzer: allow(A8): debug invariant checker, not a sampling path
        let view = rs.tree.view_free_of_charge(node);
        // storm-analyzer: allow(A4): failure-path error formatting — allocates only when an audit fails, never per draw; the sampling-cone link is type-sharing, not a hot path
        let mut seen: HashSet<u64> = HashSet::with_capacity(buf.len());
        for item in buf {
            if !seen.insert(item.id) {
                // storm-analyzer: allow(A4): failure-path error formatting — allocates only when an audit fails, never per draw; the sampling-cone link is type-sharing, not a hot path
                return Err(format!("buffer of node {node:?} repeats id {}", item.id));
            }
            if !view.rect.contains_point(&item.point) {
                // storm-analyzer: allow(A4): failure-path error formatting — allocates only when an audit fails, never per draw; the sampling-cone link is type-sharing, not a hot path
                return Err(format!(
                    "buffered item {} outside the rect of node {node:?}",
                    item.id
                ));
            }
            let mut found = false;
            rs.tree.for_each_in(&Rect::from_point(item.point), |it| {
                found |= it.id == item.id;
            });
            if !found {
                // storm-analyzer: allow(A4): failure-path error formatting — allocates only when an audit fails, never per draw; the sampling-cone link is type-sharing, not a hot path
                return Err(format!(
                    "buffered item {} no longer exists in the tree",
                    item.id
                ));
            }
        }
    }
    Ok(())
}

/// Tolerance for alias-table probability mass checks. Vose's construction
/// moves O(n) rounded f64 slices around; 1e-6 of slack per slot absorbs
/// that while still catching any real bookkeeping bug.
const MASS_EPS: f64 = 1e-6;

/// Checks every weighted-selector invariant:
///
/// * cached `total` and `max` match the weights;
/// * for the alias kind: tables are full-length, probabilities sit in
///   `[0, 1]`, alias targets are in range, and the reconstructed per-index
///   mass `prob[i] + Σ_{alias[j]=i}(1-prob[j])` equals `n·w_i/total` — i.e.
///   the table's total probability mass is 1 and every index draws with
///   exactly its weight share.
pub fn check_selector(sel: &WeightedSelector) -> Result<(), String> {
    let n = sel.weights.len();
    if n == 0 {
        return Err("selector with no weights".into());
    }
    let total: u64 = sel.weights.iter().sum();
    if total != sel.total {
        return Err(format!("cached total {} != sum {}", sel.total, total));
    }
    let max = sel.weights.iter().copied().max().unwrap_or(0);
    if max != sel.max {
        return Err(format!("cached max {} != max {}", sel.max, max));
    }
    if sel.kind != SelectorKind::Alias {
        return Ok(());
    }
    if sel.alias_prob.len() != n || sel.alias_idx.len() != n {
        return Err(format!(
            "alias tables sized {}/{} for {n} weights",
            sel.alias_prob.len(),
            sel.alias_idx.len()
        ));
    }
    let mut mass: Vec<f64> = sel.alias_prob.clone();
    for (j, &target) in sel.alias_idx.iter().enumerate() {
        let p = sel.alias_prob[j];
        if !(0.0..=1.0 + MASS_EPS).contains(&p) {
            // storm-analyzer: allow(A4): failure-path error formatting — allocates only when an audit fails, never per draw; the sampling-cone link is type-sharing, not a hot path
            return Err(format!("alias probability {p} of slot {j} outside [0, 1]"));
        }
        let target = target as usize;
        if target >= n {
            // storm-analyzer: allow(A4): failure-path error formatting — allocates only when an audit fails, never per draw; the sampling-cone link is type-sharing, not a hot path
            return Err(format!("alias target {target} of slot {j} out of range"));
        }
        if p < 1.0 {
            mass[target] += 1.0 - p;
        }
    }
    let mut mass_sum = 0.0;
    for (i, (&m, &w)) in mass.iter().zip(&sel.weights).enumerate() {
        let expected = n as f64 * w as f64 / total as f64;
        if (m - expected).abs() > MASS_EPS * n as f64 {
            // storm-analyzer: allow(A4): failure-path error formatting — allocates only when an audit fails, never per draw; the sampling-cone link is type-sharing, not a hot path
            return Err(format!(
                "index {i} draws with mass {m:.9} instead of {expected:.9}"
            ));
        }
        mass_sum += m;
    }
    if (mass_sum - n as f64).abs() > MASS_EPS * n as f64 {
        return Err(format!(
            "alias table total mass {mass_sum:.9} != {n} (probability mass must be 1)"
        ));
    }
    Ok(())
}

/// How large a structure may grow before the per-mutation audit switches
/// from every operation to a sampled cadence (audits are `O(n log n)`; at
/// every mutation that compounds to `O(n^2 log n)` over a workload).
pub const AUDIT_EVERY_OP_LIMIT: usize = 512;

/// Sampled cadence beyond [`AUDIT_EVERY_OP_LIMIT`]: one audit per this many
/// mutations.
pub const AUDIT_SAMPLE_PERIOD: u64 = 64;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use storm_geo::Point;
    use storm_rtree::{Item, RTreeConfig};

    fn pts(n: u64) -> Vec<Item<2>> {
        (0..n)
            .map(|i| Item {
                id: i,
                point: Point::new([(i % 97) as f64, (i / 97) as f64]),
            })
            .collect()
    }

    #[test]
    fn fresh_structures_validate() {
        let ls = LsTree::bulk_load(pts(600), RTreeConfig::default(), 7);
        assert_eq!(check_ls_tree(&ls), Ok(()));

        let mut rs = RsTree::bulk_load(pts(600), crate::rs_tree::RsTreeConfig::default());
        let mut rng = StdRng::seed_from_u64(3);
        rs.prefill(&mut rng);
        assert_eq!(check_rs_tree(&rs), Ok(()));

        let sel = WeightedSelector::new(vec![3, 1, 4, 1, 5, 9, 2, 6], SelectorKind::Alias)
            .expect("positive weights");
        assert_eq!(check_selector(&sel), Ok(()));
    }

    #[test]
    fn corrupted_alias_table_is_caught() {
        let mut sel = WeightedSelector::new(vec![3, 1, 4, 1, 5], SelectorKind::Alias)
            .expect("positive weights");
        // Promote a partial slot to certainty: its alias target silently
        // loses the complementary mass.
        let j = sel
            .alias_prob
            .iter()
            .position(|&p| p < 1.0)
            .expect("uneven weights leave partial slots");
        sel.alias_prob[j] = 1.0;
        let err = check_selector(&sel).expect_err("mass mismatch");
        assert!(err.contains("mass"), "{err}");
    }

    #[test]
    fn corrupted_buffer_is_caught() {
        let mut rs = RsTree::bulk_load(pts(600), crate::rs_tree::RsTreeConfig::default());
        let mut rng = StdRng::seed_from_u64(4);
        rs.prefill(&mut rng);
        let node = *rs
            .buffers
            .keys()
            .next()
            .expect("600 points buffer something");
        rs.buffers.get_mut(&node).expect("present").push(Item {
            id: 1 << 40, // not a real item
            point: Point::new([0.0, 0.0]),
        });
        assert!(check_rs_tree(&rs).is_err());
    }
}
