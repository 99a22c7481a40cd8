//! Per-invocation runtime bookkeeping on the cluster side.

use std::collections::{HashMap, HashSet};

use faasflow_engine::Deployed;
use faasflow_sim::{ContainerId, EventId, FunctionId, InvocationId, SimTime, WorkflowId};
use faasflow_store::Placement;

use crate::metrics::TransferLedger;

/// Identifies one executor instance of a function node within an
/// invocation — the unit the container runtime admits and runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceToken {
    /// The workflow.
    pub workflow: WorkflowId,
    /// The invocation.
    pub invocation: InvocationId,
    /// The function node.
    pub function: FunctionId,
    /// Instance index in `0..parallelism`.
    pub instance: u32,
    /// Recovery epoch of the invocation when the instance was spawned.
    /// Crash recovery restarts an invocation under a bumped epoch, so
    /// events carrying pre-crash tokens miss every lookup keyed by token
    /// and are discarded as stale.
    pub epoch: u32,
}

/// Lifecycle state of one admitted instance.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InstanceState {
    /// The container executing this instance.
    pub container: ContainerId,
    /// Worker index hosting it.
    pub worker: usize,
    /// Worker index whose engine triggered the instance and tracks its
    /// node's state. Equal to `worker` unless a hedge win transplanted
    /// execution elsewhere — the completion must still report back here.
    pub home: usize,
    /// Input transfers still in flight.
    pub pending_inputs: u32,
    /// Execution attempts that failed and were retried.
    pub retries: u32,
    /// Cluster-wide admission sequence number. A crashed worker can
    /// restart and re-admit the *same* token on the same worker before a
    /// stale `ExecDone` from the pre-crash admission drains; the sequence
    /// number fences those events where token+worker matching cannot.
    pub seq: u64,
    /// The compute phase finished (output writes may still be in flight).
    /// A hedge arriving after this point has lost the race.
    pub exec_done: bool,
    /// When the current compute attempt started (adaptive-hedge latency
    /// sample; meaningless until the first `ExecStarted`).
    pub exec_started: SimTime,
}

/// Cluster-side state of one in-flight invocation.
#[derive(Debug)]
pub(crate) struct InvState {
    /// The deployment the invocation is pinned to at arrival (red-black):
    /// its DAG snapshot, placement and switch-arm seed. WorkerSP hands it
    /// to an engine with each `begin`/`sync` delivery, and an engine seeing
    /// the invocation for the first time adopts it, so an incremental
    /// rebalance landing between the arrival and a delayed sync cannot make
    /// the receiving engine route the invocation by the *new* assignment —
    /// which would strand successors and break the data-placement contract
    /// (a `LocalMem` put whose consumer moved elsewhere).
    pub deployed: Deployed,
    /// Arrival instant (latency measurement start).
    pub started: SimTime,
    /// Exit nodes still to complete.
    pub exits_remaining: usize,
    /// The scheduled timeout event.
    pub timeout_event: Option<EventId>,
    /// Whether the timeout fired before completion (latency already
    /// recorded at the cap).
    pub timed_out: bool,
    /// Whether the invocation completed.
    pub completed: bool,
    /// Nodes whose every instance finished (core-side mirror of the
    /// engines' state, used to know which producers actually ran).
    pub completed_nodes: HashSet<FunctionId>,
    /// Remaining instance completions per spawned node.
    pub instances_remaining: HashMap<FunctionId, u32>,
    /// Live instance lifecycle states.
    pub instances: HashMap<InstanceToken, InstanceState>,
    /// Output placement decided per producer node.
    pub placements: HashMap<FunctionId, Placement>,
    /// Transfer accounting.
    pub ledger: TransferLedger,
    /// Function nodes whose dispatch was already accepted (engine-crash
    /// replay can re-issue `AssignTask`/`TriggerFunction`; the second copy
    /// is a duplicate-suppression, not a second spawn).
    pub dispatched: HashSet<FunctionId>,
    /// Exit nodes whose completion report was already accepted (replay can
    /// re-emit `ExitComplete`; exactly-once terminal accounting depends on
    /// dropping the duplicates).
    pub reported_exits: HashSet<FunctionId>,
    /// Current recovery epoch; bumped each time crash recovery restarts
    /// the invocation (stale-event fencing).
    pub epoch: u32,
    /// Crash recoveries performed for this invocation (dead-letter once it
    /// exceeds the plan's `max_recovery_attempts`).
    pub recovery_attempts: u32,
    /// Admitted as a degradation recovery probe: its terminal outcome
    /// feeds the controller's restore/relapse decision.
    pub degrade_probe: bool,
}

impl InvState {
    pub(crate) fn new(deployed: Deployed, started: SimTime) -> Self {
        let exits_remaining = deployed.dag.exit_nodes().len();
        InvState {
            deployed,
            started,
            exits_remaining,
            timeout_event: None,
            timed_out: false,
            completed: false,
            completed_nodes: HashSet::new(),
            instances_remaining: HashMap::new(),
            instances: HashMap::new(),
            placements: HashMap::new(),
            ledger: TransferLedger::default(),
            dispatched: HashSet::new(),
            reported_exits: HashSet::new(),
            epoch: 0,
            recovery_attempts: 0,
            degrade_probe: false,
        }
    }

    /// Splits `total` bytes across `parallelism` instances; instance 0
    /// takes the remainder so shares sum exactly to `total`.
    pub(crate) fn share(total: u64, parallelism: u32, instance: u32) -> u64 {
        let k = u64::from(parallelism.max(1));
        let base = total / k;
        if instance == 0 {
            total - base * (k - 1)
        } else {
            base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_total() {
        for total in [0u64, 1, 7, 100, 1 << 20] {
            for k in [1u32, 2, 3, 7] {
                let sum: u64 = (0..k).map(|i| InvState::share(total, k, i)).sum();
                assert_eq!(sum, total, "total={total} k={k}");
            }
        }
    }

    #[test]
    fn instance_zero_takes_remainder() {
        assert_eq!(InvState::share(10, 3, 0), 4);
        assert_eq!(InvState::share(10, 3, 1), 3);
        assert_eq!(InvState::share(10, 3, 2), 3);
    }
}
