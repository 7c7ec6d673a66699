//! Invariant validators for the document store, modeled on
//! `storm_rtree::validate`.
//!
//! The store feeds the samplers: the engine resolves sampled record ids
//! back to documents, and the paper's I/O accounting charges whole blocks.
//! Both silently break if the id → block bookkeeping drifts, so the checks
//! here pin it down: ids agree with their documents, no id reaches
//! `next_id`, and the per-block document counts sum back to the collection
//! length and respect the block capacity.

use std::collections::HashMap;

use crate::collection::Collection;

/// Checks every collection invariant:
///
/// * every map key equals its document's own id;
/// * every id is below `next_id` (ids are append-only, never recycled);
/// * per-block doc counts never exceed `docs_per_block`, and their sum
///   equals `len()`.
pub fn check_collection(c: &Collection) -> Result<(), String> {
    let mut per_block: HashMap<u64, usize> = HashMap::new();
    for (&key, doc) in &c.docs {
        if doc.id.0 != key {
            // storm-analyzer: allow(A4): failure-path error formatting — allocates only when an audit fails, never per draw; the sampling-cone link is type-sharing, not a hot path
            return Err(format!("doc stored under key {key} claims id {}", doc.id.0));
        }
        if key >= c.next_id {
            // storm-analyzer: allow(A4): failure-path error formatting — allocates only when an audit fails, never per draw; the sampling-cone link is type-sharing, not a hot path
            return Err(format!(
                "id {key} >= next_id {} (ids are append-only)",
                c.next_id
            ));
        }
        *per_block.entry(c.block_of(doc.id)).or_insert(0) += 1;
    }
    let mut total = 0usize;
    for (&block, &count) in &per_block {
        if count > c.docs_per_block {
            // storm-analyzer: allow(A4): failure-path error formatting — allocates only when an audit fails, never per draw; the sampling-cone link is type-sharing, not a hot path
            return Err(format!(
                "block {block} holds {count} docs, capacity {}",
                c.docs_per_block
            ));
        }
        total += count;
    }
    if total != c.len() {
        return Err(format!(
            "block doc counts sum to {total}, len() is {}",
            c.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use crate::DocId;

    #[test]
    fn live_collection_validates() {
        let mut c = Collection::with_block_size("t", 4);
        let ids: Vec<DocId> = (0..23).map(|i| c.insert(Value::Int(i))).collect();
        assert_eq!(check_collection(&c), Ok(()));
        for id in ids.iter().step_by(3) {
            c.remove(*id);
        }
        assert_eq!(check_collection(&c), Ok(()));
    }

    #[test]
    fn id_drift_is_caught() {
        let mut c = Collection::with_block_size("t", 4);
        c.insert(Value::Int(1));
        c.next_id = 0; // simulate id-counter rollback / corruption
        let err = check_collection(&c).expect_err("id >= next_id");
        assert!(err.contains("next_id"), "{err}");
    }
}
