//! Property tests for the store validators: arbitrary insert/remove/update
//! interleavings keep the block bookkeeping consistent.

use proptest::prelude::*;
use storm_store::validate::check_collection;
use storm_store::{Collection, Value};

#[derive(Debug, Clone)]
enum Op {
    Insert(i64),
    /// Remove the `i % live`-th live id.
    Remove(usize),
    /// Update the `i % live`-th live id.
    Update(usize, i64),
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            3 => (-1_000i64..1_000).prop_map(Op::Insert),
            1 => (0usize..1024).prop_map(Op::Remove),
            1 => ((0usize..1024), -1_000i64..1_000).prop_map(|(i, v)| Op::Update(i, v)),
        ],
        0..80,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn collection_block_bookkeeping_survives_random_workloads(
        ops in ops_strategy(),
        block_size in 1usize..9,
    ) {
        let mut c = Collection::with_block_size("prop", block_size);
        let mut live = Vec::new();
        for op in &ops {
            match op {
                Op::Insert(v) => live.push(c.insert(Value::Int(*v))),
                Op::Remove(i) => {
                    if !live.is_empty() {
                        let id = live.swap_remove(i % live.len());
                        prop_assert!(c.remove(id).is_some());
                    }
                }
                Op::Update(i, v) => {
                    if !live.is_empty() {
                        let id = live[i % live.len()];
                        prop_assert!(c.update(id, Value::Int(*v)).is_ok());
                    }
                }
            }
            if let Err(e) = check_collection(&c) {
                return Err(TestCaseError::fail(format!("after {op:?}: {e}")));
            }
        }
        prop_assert_eq!(c.len(), live.len());
    }
}
