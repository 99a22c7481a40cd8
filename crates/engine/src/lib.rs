//! # faasflow-engine
//!
//! The two workflow schedule patterns of the paper, as sans-IO state
//! machines:
//!
//! * [`WorkerEngine`] — the **worker-side schedule pattern (WorkerSP)**,
//!   FaaSFlow's contribution (§3.1, §4.2). One engine runs on every worker
//!   node, holds the `Workflow{State, FunctionInfo}` structures for its
//!   sub-graph, triggers local functions when
//!   `PredecessorsDone == PredecessorsCount`, and exchanges *only
//!   execution states* with other workers (TCP cross-node, in-process RPC
//!   locally). No task assignment ever crosses the network.
//!
//! * [`MasterEngine`] — the **master-side schedule pattern (MasterSP)**,
//!   the HyperFlow-serverless baseline (§2.2–2.3). A central engine keeps
//!   all state, assigns every triggered task to a worker, and receives
//!   every execution state back. Each function invocation therefore pays
//!   stages 1 and 3 of §2.3 on the network and queues on the master's CPU.
//!
//! Both engines are sans-IO: they emit [`worker::WorkerAction`]s /
//! [`master::MasterAction`]s instead of doing IO, and the cluster
//! simulation in `faasflow-core` turns actions into timed events. Neither
//! keeps a deployment table either: the runtime owns each workflow's
//! [`Deployed`] context and passes it into the calls that need it (an
//! invocation's pinned version for WorkerSP, the current one for the
//! master and for crash replay). This keeps the protocol logic synchronous,
//! deterministic, and unit-testable without a simulator.

use std::sync::Arc;

use faasflow_scheduler::Assignment;
use faasflow_wdl::WorkflowDag;

pub mod master;
pub mod trigger;
pub mod worker;

pub use master::{MasterAction, MasterEngine};
pub use trigger::TriggerTracker;
pub use worker::{WorkerAction, WorkerEngine};

/// One deployed version of a workflow: the DAG snapshot and placement the
/// Graph Scheduler produced, plus the workflow's seed for switch-arm draws.
/// Cloning it bumps two reference counts; a worker engine keeps one clone
/// per live invocation, pinned for the invocation's lifetime.
#[derive(Debug, Clone)]
pub struct Deployed {
    /// The DAG snapshot of this version.
    pub dag: Arc<WorkflowDag>,
    /// The placement of this version.
    pub assignment: Arc<Assignment>,
    /// Seed of the per-invocation trigger trackers' switch-arm draws.
    pub seed: u64,
}
