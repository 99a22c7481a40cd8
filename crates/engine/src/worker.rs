//! The per-worker workflow engine — WorkerSP (§3.1, §4.2).
//!
//! Each worker node runs one [`WorkerEngine`]. It maintains the
//! `Workflow{State, FunctionInfo}` structures for the sub-graphs assigned
//! to it, triggers *local* functions, and when a completed function has
//! cross-worker successors it "passes the executed state to the remote
//! worker engine through TCP connections" — one state-sync message per
//! remote worker, never a task assignment.
//!
//! The engine is a pure state machine: it consumes completion/sync events
//! and emits [`WorkerAction`]s for the cluster simulation to time. It keeps
//! no deployment table: the runtime passes the [`Deployed`] context into
//! the calls that create an invocation's state.

use std::collections::HashMap;

use faasflow_sim::stats::Counter;
use faasflow_sim::{FunctionId, InvocationId, NodeId, WorkflowId};

use crate::trigger::TriggerTracker;
use crate::Deployed;

/// What the worker engine asks the runtime to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerAction {
    /// Run a local function node (spawn its `parallelism` instances). For
    /// virtual nodes the runtime completes them immediately.
    TriggerFunction {
        /// The workflow.
        workflow: WorkflowId,
        /// The invocation.
        invocation: InvocationId,
        /// The node to run (guaranteed local to this worker).
        function: FunctionId,
    },
    /// Send an execution-state update to a remote worker engine over TCP.
    SyncState {
        /// Destination worker.
        to: NodeId,
        /// The workflow.
        workflow: WorkflowId,
        /// The invocation.
        invocation: InvocationId,
        /// The function whose completion is being propagated.
        completed: FunctionId,
    },
    /// A DAG exit node completed on this worker — report towards the
    /// client (the invocation is complete when every exit node reported).
    ExitComplete {
        /// The workflow.
        workflow: WorkflowId,
        /// The invocation.
        invocation: InvocationId,
        /// The completed exit node.
        function: FunctionId,
    },
}

/// Counters for §5.2's message accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerEngineStats {
    /// Cross-worker state-sync messages sent.
    pub syncs_sent: Counter,
    /// State updates applied via local (in-process) RPC.
    pub local_updates: Counter,
    /// Local function triggers performed.
    pub triggers: Counter,
}

/// One in-flight invocation: its trigger tracker plus the deployment it
/// was pinned to when it first touched this engine. Routing a live
/// invocation through a *newer* deployment would strand it — the
/// data-placement decisions and the other engines' sync targets all follow
/// the pinned version (red-black deployment).
#[derive(Debug)]
struct LiveInvocation {
    tracker: TriggerTracker,
    ctx: Deployed,
}

impl LiveInvocation {
    fn new(invocation: InvocationId, ctx: &Deployed) -> Self {
        LiveInvocation {
            tracker: TriggerTracker::new(ctx.dag.clone(), invocation, ctx.seed),
            ctx: ctx.clone(),
        }
    }
}

/// The decentralized engine of one worker node.
#[derive(Debug)]
pub struct WorkerEngine {
    node: NodeId,
    invocations: HashMap<(WorkflowId, InvocationId), LiveInvocation>,
    stats: WorkerEngineStats,
}

impl WorkerEngine {
    /// Creates the engine for `node`.
    pub fn new(node: NodeId) -> Self {
        WorkerEngine {
            node,
            invocations: HashMap::new(),
            stats: WorkerEngineStats::default(),
        }
    }

    /// The hosting worker node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Message counters.
    pub fn stats(&self) -> &WorkerEngineStats {
        &self.stats
    }

    /// Live per-invocation state structures (for §5.7's memory accounting).
    pub fn live_invocations(&self) -> usize {
        self.invocations.len()
    }

    /// Starts an invocation on this worker: triggers every *local* entry
    /// node of the workflow DAG. `pinned` is the deployment the invocation
    /// was pinned to at arrival; it is read only if this is the first event
    /// of the invocation here (a sync may have arrived first).
    pub fn begin_invocation(
        &mut self,
        workflow: WorkflowId,
        invocation: InvocationId,
        pinned: &Deployed,
    ) -> Vec<WorkerAction> {
        let live = self
            .invocations
            .entry((workflow, invocation))
            .or_insert_with(|| LiveInvocation::new(invocation, pinned));
        let ctx = live.ctx.clone();
        let mut actions = Vec::new();
        for entry in ctx.dag.entry_nodes() {
            if ctx.assignment.worker_of(entry) == self.node && live.tracker.force_trigger(entry) {
                self.stats.triggers.inc();
                actions.push(WorkerAction::TriggerFunction {
                    workflow,
                    invocation,
                    function: entry,
                });
            }
        }
        actions
    }

    /// Handles completion of a single executor instance of a local node.
    /// When the last instance finishes, the node completes and its state
    /// propagates (locally and/or via sync messages).
    ///
    /// An unknown invocation is ignored (returns no actions): after a
    /// crash-and-restart this engine comes back blank, and a completion
    /// message for a pre-crash invocation may still be in flight — the
    /// cluster's recovery layer owns that invocation now.
    pub fn on_instance_complete(
        &mut self,
        workflow: WorkflowId,
        invocation: InvocationId,
        function: FunctionId,
    ) -> Vec<WorkerAction> {
        let Some(live) = self.invocations.get_mut(&(workflow, invocation)) else {
            return Vec::new();
        };
        if live.tracker.instance_done(function) {
            self.propagate_completion(workflow, invocation, function)
        } else {
            Vec::new()
        }
    }

    /// Handles a state-sync message from a remote engine: `completed` (a
    /// function hosted elsewhere) finished; update local successors.
    ///
    /// A duplicate sync about a node whose completion this engine already
    /// processed is ignored — crash recovery re-sends syncs whose durable
    /// record was lost, and counting a predecessor twice would trigger
    /// successors prematurely.
    ///
    /// `pinned` is read as in [`WorkerEngine::begin_invocation`].
    pub fn on_state_sync(
        &mut self,
        workflow: WorkflowId,
        invocation: InvocationId,
        pinned: &Deployed,
        completed: FunctionId,
    ) -> Vec<WorkerAction> {
        let live = self
            .invocations
            .entry((workflow, invocation))
            .or_insert_with(|| LiveInvocation::new(invocation, pinned));
        let ctx = live.ctx.clone();
        if !live.tracker.mark_propagated(completed) {
            return Vec::new();
        }
        let mut actions = Vec::new();
        let successors = live.tracker.successors_to_notify(completed);
        for s in successors {
            if ctx.assignment.worker_of(s) != self.node {
                continue; // another worker owns this successor
            }
            let live = self
                .invocations
                .get_mut(&(workflow, invocation))
                .expect("tracker created above");
            if live.tracker.predecessor_done(s) {
                self.stats.triggers.inc();
                actions.push(WorkerAction::TriggerFunction {
                    workflow,
                    invocation,
                    function: s,
                });
            }
        }
        actions
    }

    /// Releases the invocation's `State` structure (§4.2.1: "the per-worker
    /// engine should release the *State* object at the end of each
    /// invocation").
    pub fn release_invocation(&mut self, workflow: WorkflowId, invocation: InvocationId) {
        self.invocations.remove(&(workflow, invocation));
    }

    /// Whether this engine has recorded `function` as fully completed for
    /// the invocation (all instances done). Used by the journal layer to
    /// decide when a `NodeDone` record should be appended.
    pub fn node_done(
        &self,
        workflow: WorkflowId,
        invocation: InvocationId,
        function: FunctionId,
    ) -> bool {
        self.invocations
            .get(&(workflow, invocation))
            .is_some_and(|li| li.tracker.is_done(function))
    }

    /// Crash recovery: rebuilds this invocation's tracker from durable
    /// history and returns the actions needed to resume it.
    ///
    /// * `completed` — nodes known (cluster-wide) to have fully completed.
    /// * `already_propagated` — the subset whose downstream effects this
    ///   engine durably recorded (journaled `NodeDone`); their syncs and
    ///   exit reports are *not* re-emitted. Unrecorded completions re-emit
    ///   and rely on receiver-side dedup.
    /// * `inflight` — `(node, completions)` seeds for nodes still running,
    ///   covering completions reported while the engine was down.
    ///
    /// Emitted `TriggerFunction` actions may duplicate pre-crash
    /// dispatches; the runtime's dispatch dedup drops those.
    ///
    /// `current` is the workflow's current deployment: replay deliberately
    /// re-pins to it, because the recovery layer redeployed before
    /// replaying and the restarted invocation follows the fresh version.
    pub fn replay_invocation(
        &mut self,
        workflow: WorkflowId,
        invocation: InvocationId,
        current: &Deployed,
        completed: &[FunctionId],
        already_propagated: &[FunctionId],
        inflight: &[(FunctionId, u32)],
    ) -> Vec<WorkerAction> {
        let ctx = current.clone();
        let mut tracker = TriggerTracker::new(ctx.dag.clone(), invocation, ctx.seed);
        // Mark every known completion up front so the cascade below can
        // neither re-trigger nor re-complete them.
        for &f in completed {
            tracker.force_done(f);
        }
        let mut actions = Vec::new();
        // Local entry nodes that never completed need (re)triggering.
        for entry in ctx.dag.entry_nodes() {
            if ctx.assignment.worker_of(entry) == self.node && tracker.force_trigger(entry) {
                self.stats.triggers.inc();
                actions.push(WorkerAction::TriggerFunction {
                    workflow,
                    invocation,
                    function: entry,
                });
            }
        }
        // Re-run each completed node's downstream effects through the
        // fresh tracker: local predecessor counts always (they are this
        // tracker's private state), external effects (syncs, exit reports)
        // only when no durable record says they already went out.
        for &f in completed {
            tracker.mark_propagated(f);
            let home = ctx.assignment.worker_of(f) == self.node;
            let suppress_external = !home || already_propagated.contains(&f);
            if !suppress_external && ctx.dag.successors(f).is_empty() {
                actions.push(WorkerAction::ExitComplete {
                    workflow,
                    invocation,
                    function: f,
                });
            }
            let mut remote_workers: Vec<NodeId> = Vec::new();
            for s in tracker.successors_to_notify(f) {
                let w = ctx.assignment.worker_of(s);
                if w == self.node {
                    self.stats.local_updates.inc();
                    if tracker.predecessor_done(s) {
                        self.stats.triggers.inc();
                        actions.push(WorkerAction::TriggerFunction {
                            workflow,
                            invocation,
                            function: s,
                        });
                    }
                } else if !suppress_external && !remote_workers.contains(&w) {
                    remote_workers.push(w);
                }
            }
            for w in remote_workers {
                self.stats.syncs_sent.inc();
                actions.push(WorkerAction::SyncState {
                    to: w,
                    workflow,
                    invocation,
                    completed: f,
                });
            }
        }
        // Seed in-flight instance counts: completions that were reported
        // while the engine was down will never be re-sent.
        for &(f, done) in inflight {
            tracker.set_instances_done(f, done);
        }
        self.invocations
            .insert((workflow, invocation), LiveInvocation { tracker, ctx });
        actions
    }

    /// Node completion: notify local successors inline (in-process RPC) and
    /// remote workers by one sync message each.
    fn propagate_completion(
        &mut self,
        workflow: WorkflowId,
        invocation: InvocationId,
        function: FunctionId,
    ) -> Vec<WorkerAction> {
        let live = self
            .invocations
            .get_mut(&(workflow, invocation))
            .expect("completion for unknown invocation");
        let ctx = live.ctx.clone();
        let mut actions = Vec::new();
        if ctx.dag.successors(function).is_empty() {
            actions.push(WorkerAction::ExitComplete {
                workflow,
                invocation,
                function,
            });
        }
        let successors = live.tracker.successors_to_notify(function);
        let mut remote_workers: Vec<NodeId> = Vec::new();
        let mut local: Vec<FunctionId> = Vec::new();
        for s in successors {
            let w = ctx.assignment.worker_of(s);
            if w == self.node {
                local.push(s);
            } else if !remote_workers.contains(&w) {
                remote_workers.push(w);
            }
        }
        // Local successors: inner-RPC state updates, possibly triggering.
        let mut to_run = Vec::new();
        for s in local {
            self.stats.local_updates.inc();
            let live = self
                .invocations
                .get_mut(&(workflow, invocation))
                .expect("tracker alive during propagation");
            if live.tracker.predecessor_done(s) {
                to_run.push(s);
            }
        }
        // Virtual nodes among the triggered set are the runtime's concern
        // (it completes them instantly); the engine only reports triggers.
        for s in to_run {
            self.stats.triggers.inc();
            actions.push(WorkerAction::TriggerFunction {
                workflow,
                invocation,
                function: s,
            });
        }
        // One TCP state sync per remote worker hosting successors.
        for w in remote_workers {
            self.stats.syncs_sent.inc();
            actions.push(WorkerAction::SyncState {
                to: w,
                workflow,
                invocation,
                completed: function,
            });
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use faasflow_scheduler::Assignment;
    use faasflow_scheduler::{ContentionSet, GraphScheduler, RuntimeMetrics, WorkerInfo};
    use faasflow_sim::SimRng;
    use faasflow_wdl::{DagParser, FunctionProfile, Step, Workflow};

    /// Builds a 3-function chain partitioned across two workers:
    /// a, b on worker 1 and c on worker 2 (forced by zero quota + capacity).
    fn setup() -> (Deployed, WorkerEngine, WorkerEngine) {
        let wf = Workflow::steps(
            "chain",
            Step::sequence(vec![
                Step::task("a", FunctionProfile::with_millis(1, 10 << 20)),
                Step::task("b", FunctionProfile::with_millis(1, 10 << 20)),
                Step::task("c", FunctionProfile::with_millis(1, 0)),
            ]),
        );
        let dag = Arc::new(DagParser::default().parse(&wf).unwrap());
        // Hand-built placement: {a, b} on worker 1, {c} on worker 2, so the
        // b -> c edge is the one cross-worker hop.
        let (w_ab, w_c) = (NodeId::new(1), NodeId::new(2));
        use faasflow_scheduler::Group;
        use faasflow_sim::GroupId;
        let assignment = Arc::new(Assignment {
            groups: vec![
                Group {
                    id: GroupId::new(0),
                    members: vec![FunctionId::new(0), FunctionId::new(1)],
                    worker: w_ab,
                    capacity_needed: 2,
                },
                Group {
                    id: GroupId::new(1),
                    members: vec![FunctionId::new(2)],
                    worker: w_c,
                    capacity_needed: 1,
                },
            ],
            node_of: vec![w_ab, w_ab, w_c],
            group_of: vec![GroupId::new(0), GroupId::new(0), GroupId::new(1)],
            storage_local: vec![true, false, false],
            mem_consume: 10 << 20,
            quota: 10 << 20,
        });
        let deployed = Deployed {
            dag,
            assignment,
            seed: 7,
        };
        (deployed, WorkerEngine::new(w_ab), WorkerEngine::new(w_c))
    }

    const WF: WorkflowId = WorkflowId::new(0);
    const INV: InvocationId = InvocationId::new(0);

    #[test]
    fn begin_triggers_only_local_entries() {
        let (d, mut e1, mut e2) = setup();
        let a1 = e1.begin_invocation(WF, INV, &d);
        assert_eq!(
            a1,
            vec![WorkerAction::TriggerFunction {
                workflow: WF,
                invocation: INV,
                function: FunctionId::new(0)
            }]
        );
        let a2 = e2.begin_invocation(WF, INV, &d);
        assert!(a2.is_empty(), "entry node is not on worker 2");
    }

    #[test]
    fn local_successor_triggers_without_network() {
        let (d, mut e1, _e2) = setup();
        e1.begin_invocation(WF, INV, &d);
        let actions = e1.on_instance_complete(WF, INV, FunctionId::new(0));
        assert_eq!(
            actions,
            vec![WorkerAction::TriggerFunction {
                workflow: WF,
                invocation: INV,
                function: FunctionId::new(1)
            }]
        );
        assert_eq!(e1.stats().local_updates.get(), 1);
        assert_eq!(e1.stats().syncs_sent.get(), 0);
    }

    #[test]
    fn cross_worker_successor_produces_one_sync() {
        let (d, mut e1, mut e2) = setup();
        e1.begin_invocation(WF, INV, &d);
        e1.on_instance_complete(WF, INV, FunctionId::new(0));
        let actions = e1.on_instance_complete(WF, INV, FunctionId::new(1));
        let w_c = d.assignment.worker_of(FunctionId::new(2));
        assert_eq!(
            actions,
            vec![WorkerAction::SyncState {
                to: w_c,
                workflow: WF,
                invocation: INV,
                completed: FunctionId::new(1)
            }]
        );
        assert_eq!(e1.stats().syncs_sent.get(), 1);
        // Worker 2 receives the sync and triggers c.
        let actions = e2.on_state_sync(WF, INV, &d, FunctionId::new(1));
        assert_eq!(
            actions,
            vec![WorkerAction::TriggerFunction {
                workflow: WF,
                invocation: INV,
                function: FunctionId::new(2)
            }]
        );
    }

    #[test]
    fn exit_completion_is_reported() {
        let (d, mut e1, mut e2) = setup();
        e1.begin_invocation(WF, INV, &d);
        e1.on_instance_complete(WF, INV, FunctionId::new(0));
        e1.on_instance_complete(WF, INV, FunctionId::new(1));
        e2.on_state_sync(WF, INV, &d, FunctionId::new(1));
        let actions = e2.on_instance_complete(WF, INV, FunctionId::new(2));
        assert_eq!(
            actions,
            vec![WorkerAction::ExitComplete {
                workflow: WF,
                invocation: INV,
                function: FunctionId::new(2)
            }]
        );
    }

    #[test]
    fn release_frees_state() {
        let (d, mut e1, _e2) = setup();
        e1.begin_invocation(WF, INV, &d);
        assert_eq!(e1.live_invocations(), 1);
        e1.release_invocation(WF, INV);
        assert_eq!(e1.live_invocations(), 0);
    }

    #[test]
    fn foreach_node_completes_after_all_instances() {
        let wf = Workflow::steps(
            "fe",
            Step::foreach("work", FunctionProfile::with_millis(1, 0), 3),
        );
        let dag = Arc::new(DagParser::default().parse(&wf).unwrap());
        let metrics = RuntimeMetrics::initial(&dag);
        let workers = vec![WorkerInfo::new(NodeId::new(1), 64)];
        let mut rng = SimRng::seed_from(1);
        let asg = Arc::new(
            GraphScheduler::default()
                .partition(
                    &dag,
                    &workers,
                    &metrics,
                    &ContentionSet::default(),
                    u64::MAX,
                    &mut rng,
                )
                .unwrap(),
        );
        let d = Deployed {
            dag: dag.clone(),
            assignment: asg,
            seed: 7,
        };
        let mut eng = WorkerEngine::new(NodeId::new(1));
        let first = eng.begin_invocation(WF, INV, &d);
        // Entry is the virtual start; runtime completes it instantly:
        let vs = match &first[0] {
            WorkerAction::TriggerFunction { function, .. } => *function,
            other => panic!("unexpected action {other:?}"),
        };
        // The runtime would call instance-complete for the virtual node.
        let actions = eng.on_instance_complete(WF, INV, vs);
        let work = match &actions[0] {
            WorkerAction::TriggerFunction { function, .. } => *function,
            other => panic!("unexpected action {other:?}"),
        };
        assert_eq!(dag.node(work).parallelism, 3);
        assert!(eng.on_instance_complete(WF, INV, work).is_empty());
        assert!(eng.on_instance_complete(WF, INV, work).is_empty());
        let done = eng.on_instance_complete(WF, INV, work);
        assert!(!done.is_empty(), "third instance completes the node");
    }
}
