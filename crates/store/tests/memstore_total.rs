//! Differential property: `MemStore::used_total` is a running sum that
//! must always equal Σ `used(wf)` over every workflow, whatever mix of
//! puts, deletes, invocation releases, wipes and budget changes ran.

use faasflow_sim::{FunctionId, InvocationId, WorkflowId};
use faasflow_store::{DataKey, MemStore};
use proptest::prelude::*;
use proptest::strategy::Union;

const WORKFLOWS: u32 = 4;

#[derive(Debug, Clone)]
enum Op {
    Budget { wf: u32, bytes: u64 },
    Put { key: (u32, u32, u32), bytes: u64 },
    Delete { key: (u32, u32, u32) },
    Release { wf: u32, inv: u32 },
    Wipe,
}

fn key((wf, inv, f): (u32, u32, u32)) -> DataKey {
    DataKey::new(
        WorkflowId::new(wf),
        InvocationId::new(inv),
        FunctionId::new(f),
    )
}

fn op() -> impl Strategy<Value = Op> {
    let k = (0..WORKFLOWS, 0u32..3, 0u32..4);
    let budget = (0..WORKFLOWS, 0u64..4_000).prop_map(|(wf, bytes)| Op::Budget { wf, bytes });
    let put = (k.clone(), 0u64..1_500).prop_map(|(key, bytes)| Op::Put { key, bytes });
    let delete = k.prop_map(|key| Op::Delete { key });
    let release = (0..WORKFLOWS, 0u32..3).prop_map(|(wf, inv)| Op::Release { wf, inv });
    Union::weighted(vec![
        (2, budget.boxed()),
        (6, put.boxed()),
        (3, delete.boxed()),
        (2, release.boxed()),
        (1, Just(Op::Wipe).boxed()),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn used_total_is_the_sum_of_per_workflow_usage(
        ops in proptest::collection::vec(op(), 1..120),
    ) {
        let mut s = MemStore::new();
        for op in ops {
            match op {
                Op::Budget { wf, bytes } => s.set_budget(WorkflowId::new(wf), bytes),
                Op::Put { key: k, bytes } => {
                    s.try_put(key(k), bytes);
                }
                Op::Delete { key: k } => {
                    s.delete(key(k));
                }
                Op::Release { wf, inv } => {
                    s.release_invocation(WorkflowId::new(wf), InvocationId::new(inv));
                }
                Op::Wipe => {
                    s.wipe();
                }
            }
            let sum: u64 = (0..WORKFLOWS).map(|wf| s.used(WorkflowId::new(wf))).sum();
            prop_assert_eq!(s.used_total(), sum);
        }
    }
}
