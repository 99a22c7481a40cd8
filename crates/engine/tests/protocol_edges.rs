//! Edge cases of the engine protocols that the unit tests don't reach:
//! out-of-order state syncs, a newer deployment becoming current
//! mid-flight (partition iterations), any-join deduplication, and
//! multi-invocation isolation.

use std::sync::Arc;

use faasflow_engine::{Deployed, WorkerAction, WorkerEngine};
use faasflow_scheduler::{Assignment, Group};
use faasflow_sim::{FunctionId, GroupId, InvocationId, NodeId, WorkflowId};
use faasflow_wdl::{DagParser, FunctionProfile, Step, SwitchCase, Workflow, WorkflowDag};

const WF: WorkflowId = WorkflowId::new(0);

fn p() -> FunctionProfile {
    FunctionProfile::with_millis(1, 1000)
}

/// A fan-in: {a, b} -> c, with a+c on worker 1 and b on worker 2.
fn fan_in() -> Deployed {
    let wf = Workflow::steps(
        "fan",
        Step::sequence(vec![
            Step::parallel(vec![Step::task("a", p()), Step::task("b", p())]),
            Step::task("c", p()),
        ]),
    );
    let dag = Arc::new(DagParser::default().parse(&wf).unwrap());
    let (w1, w2) = (NodeId::new(1), NodeId::new(2));
    // Nodes: vs, a, b, ve, c (ids in parse order).
    let by_name = |n: &str| dag.nodes().iter().find(|x| x.name == n).unwrap().id;
    let (a, b, c) = (by_name("a"), by_name("b"), by_name("c"));
    let mut node_of = vec![w1; dag.node_count()];
    node_of[b.index()] = w2;
    let mut members_w1: Vec<FunctionId> = (0..dag.node_count())
        .map(FunctionId::from)
        .filter(|f| *f != b)
        .collect();
    members_w1.sort_unstable();
    let assignment = Arc::new(Assignment {
        groups: vec![
            Group {
                id: GroupId::new(0),
                members: members_w1,
                worker: w1,
                capacity_needed: 2,
            },
            Group {
                id: GroupId::new(1),
                members: vec![b],
                worker: w2,
                capacity_needed: 1,
            },
        ],
        node_of,
        group_of: (0..dag.node_count())
            .map(|i| {
                if FunctionId::from(i) == b {
                    GroupId::new(1)
                } else {
                    GroupId::new(0)
                }
            })
            .collect(),
        storage_local: vec![false; dag.node_count()],
        mem_consume: 0,
        quota: 0,
    });
    let _ = (a, c);
    Deployed {
        dag,
        assignment,
        seed: 3,
    }
}

/// Every node of `dag` in one group on `worker`.
fn on_one_worker(dag: &Arc<WorkflowDag>, worker: NodeId) -> Arc<Assignment> {
    Arc::new(Assignment {
        groups: vec![Group {
            id: GroupId::new(0),
            members: (0..dag.node_count()).map(FunctionId::from).collect(),
            worker,
            capacity_needed: 3,
        }],
        node_of: vec![worker; dag.node_count()],
        group_of: vec![GroupId::new(0); dag.node_count()],
        storage_local: vec![false; dag.node_count()],
        mem_consume: 0,
        quota: 0,
    })
}

fn engines() -> (WorkerEngine, WorkerEngine) {
    (
        WorkerEngine::new(NodeId::new(1)),
        WorkerEngine::new(NodeId::new(2)),
    )
}

/// Walks an action list, completing any local virtual/function trigger
/// inline, and returns every TriggerFunction target seen.
fn drain_local(
    engine: &mut WorkerEngine,
    inv: InvocationId,
    mut actions: Vec<WorkerAction>,
) -> (Vec<FunctionId>, Vec<WorkerAction>) {
    let mut triggered = Vec::new();
    let mut external = Vec::new();
    while let Some(action) = actions.pop() {
        match action {
            WorkerAction::TriggerFunction { function, .. } => {
                triggered.push(function);
                actions.extend(engine.on_instance_complete(WF, inv, function));
            }
            other => external.push(other),
        }
    }
    (triggered, external)
}

#[test]
fn sync_arriving_before_begin_still_works() {
    // Worker 2 learns about a remote completion before it ever saw the
    // invocation begin — §3.1's decentralized engines must cope, because
    // message timing across workers is unordered.
    let d = fan_in();
    let (mut e1, mut e2) = engines();
    let inv = InvocationId::new(9);
    // Worker 1 runs the virtual start and `a`; worker 2 has NOT begun.
    let begin = e1.begin_invocation(WF, inv, &d);
    let (_, external) = drain_local(&mut e1, inv, begin);
    // The virtual start's completion must have produced a sync to w2.
    let sync = external
        .iter()
        .find_map(|a| match a {
            WorkerAction::SyncState { to, completed, .. } if to.index() == 2 => Some(*completed),
            _ => None,
        })
        .expect("cross-worker successor b needs a sync");
    // Deliver it to worker 2 *before* any begin call.
    let actions = e2.on_state_sync(WF, inv, &d, sync);
    let (triggered, _) = drain_local(&mut e2, inv, actions);
    let b = d.dag.nodes().iter().find(|x| x.name == "b").unwrap().id;
    assert_eq!(triggered, vec![b], "b triggers from the sync alone");
}

#[test]
fn newer_deployment_leaves_a_live_invocation_on_its_pinned_one() {
    // A partition iteration makes a newer version current mid-flight and
    // later calls carry it; an invocation this engine already holds keeps
    // routing by the version it was pinned to (red-black deployment).
    let pinned = fan_in();
    let newer = Deployed {
        assignment: on_one_worker(&pinned.dag, NodeId::new(1)),
        ..pinned.clone()
    };
    let by_name = |n: &str| pinned.dag.nodes().iter().find(|x| x.name == n).unwrap().id;
    let (b, c) = (by_name("b"), by_name("c"));
    let (mut e1, _e2) = engines();
    let inv = InvocationId::new(0);
    let begin = e1.begin_invocation(WF, inv, &pinned);
    // A repeated begin under the newer version neither re-triggers nor
    // re-pins.
    assert!(e1.begin_invocation(WF, inv, &newer).is_empty());
    let (triggered, external) = drain_local(&mut e1, inv, begin);
    // Under the newer version b would run here; pinned, it stays remote.
    assert!(!triggered.contains(&b), "b moved to the newer placement");
    assert!(
        external.iter().any(|a| matches!(
            a,
            WorkerAction::SyncState { to, .. } if *to == NodeId::new(2)
        )),
        "b's worker must get the sync of the pinned placement"
    );
    // b's completion arrives from worker 2 with the newer version current:
    // the join and c still run here, and the exit is reported.
    let actions = e1.on_state_sync(WF, inv, &newer, b);
    let (triggered, external) = drain_local(&mut e1, inv, actions);
    assert!(triggered.contains(&c), "existing invocation keeps running");
    assert!(external
        .iter()
        .any(|a| matches!(a, WorkerAction::ExitComplete { function, .. } if *function == c)));
}

#[test]
fn any_join_triggers_once_for_multiple_arms() {
    // A switch where both arms' workers race their completions at the
    // virtual end: the end node must trigger exactly once.
    let wf = Workflow::steps(
        "sw",
        Step::sequence(vec![
            Step::switch(vec![
                SwitchCase::new("x", Step::task("x", p())),
                SwitchCase::new("y", Step::task("y", p())),
            ]),
            Step::task("after", p()),
        ]),
    );
    let dag = Arc::new(DagParser::default().parse(&wf).unwrap());
    let w1 = NodeId::new(1);
    let d = Deployed {
        dag: dag.clone(),
        assignment: on_one_worker(&dag, w1),
        seed: 3,
    };
    let mut engine = WorkerEngine::new(w1);
    for inv_idx in 0..16 {
        let inv = InvocationId::new(inv_idx);
        let begin = engine.begin_invocation(WF, inv, &d);
        let (triggered, external) = drain_local(&mut engine, inv, begin);
        // Exactly one arm + brackets + after; never both arms.
        let x = dag.nodes().iter().find(|n| n.name == "x").unwrap().id;
        let y = dag.nodes().iter().find(|n| n.name == "y").unwrap().id;
        let ran_x = triggered.contains(&x);
        let ran_y = triggered.contains(&y);
        assert!(ran_x ^ ran_y, "exactly one switch arm per invocation");
        let after = dag.nodes().iter().find(|n| n.name == "after").unwrap().id;
        assert_eq!(
            triggered.iter().filter(|&&f| f == after).count(),
            1,
            "the any-join must fire exactly once"
        );
        assert!(
            external
                .iter()
                .all(|a| matches!(a, WorkerAction::ExitComplete { .. })),
            "single-worker run emits no syncs"
        );
        engine.release_invocation(WF, inv);
    }
    assert_eq!(engine.live_invocations(), 0);
}

#[test]
fn concurrent_invocations_do_not_interfere() {
    let d = fan_in();
    let (mut e1, _) = engines();
    // Interleave two invocations through worker 1 only.
    let i0 = InvocationId::new(0);
    let i1 = InvocationId::new(1);
    let b0 = e1.begin_invocation(WF, i0, &d);
    let b1 = e1.begin_invocation(WF, i1, &d);
    let (t0, _) = drain_local(&mut e1, i0, b0);
    let (t1, _) = drain_local(&mut e1, i1, b1);
    assert_eq!(t0, t1, "identical workflows take identical local paths");
    assert_eq!(e1.live_invocations(), 2);
    e1.release_invocation(WF, i0);
    assert_eq!(e1.live_invocations(), 1);
}
