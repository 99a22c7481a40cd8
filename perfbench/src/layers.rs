//! Per-layer measurements, named after the crates they measure.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use faasflow_core::{ClusterConfig, LoopProfile, RunReport, TraceEvent};
use faasflow_net::{FlowNet, NicSpec};
use faasflow_obs::{aggregate, build_forest, chrome_trace, extract, CritPhase, SpanForest};
use faasflow_scheduler::{
    ContentionSet, GraphScheduler, PartitionConfig, RuntimeMetrics, WorkerInfo,
};
use faasflow_sim::{NodeId, SimDuration, SimRng, SimTime, WorkflowId};
use faasflow_wdl::{DagParser, ParserConfig};

use crate::workload::Workload;
use crate::{median, Output};

/// Which layer's handler-time bucket each event of the loop profile falls
/// into. Events not listed (arrivals, timeouts, sampling) count towards
/// the loop total only.
const EVENT_LAYERS: &[(&str, &str)] = &[
    ("FlowTick", "net"),
    ("StartRemoteRead", "net"),
    ("StartRemoteWrite", "net"),
    ("InstanceReady", "container"),
    ("ExecDone", "container"),
    ("ContainerExpiry", "container"),
    ("DeliverBegin", "engine"),
    ("DeliverSync", "engine"),
    ("DeliverAssign", "engine"),
    ("MasterArrive", "engine"),
    ("MasterDone", "engine"),
    ("VirtualDone", "engine"),
    ("WorkerInstanceDone", "engine"),
    ("DeliverExitReport", "completion"),
    ("WorkerCrash", "recovery"),
    ("WorkerRestart", "recovery"),
    ("LeaseExpired", "recovery"),
    ("RecoverInvocation", "recovery"),
    ("StorageFaultStart", "recovery"),
    ("StorageFaultEnd", "recovery"),
    ("NetFaultStart", "recovery"),
    ("NetFaultEnd", "recovery"),
    ("RetryRemoteRead", "recovery"),
    ("RetryRemoteWrite", "recovery"),
    ("EngineCrash", "recovery"),
    ("EngineRestart", "recovery"),
    ("EngineRecovered", "recovery"),
    ("GrayFaultStart", "recovery"),
    ("GrayFaultEnd", "recovery"),
    ("HealthReopen", "recovery"),
    ("HedgeFire", "recovery"),
    ("HedgeReady", "recovery"),
    ("HedgeExecDone", "recovery"),
    ("BackpressureRetry", "recovery"),
];

/// Counters the replicas' `RunReport`s already carry, summed over the
/// replicas and grouped by layer.
pub fn report_counters(out: &mut Output, reports: &[RunReport]) {
    let total = |f: &dyn Fn(&RunReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let per_wf = |f: &dyn Fn(&faasflow_core::WorkflowReport) -> u64| {
        total(&|r| r.workflows.values().map(f).sum())
    };
    let sent = per_wf(&|w| w.sent);
    let remote = per_wf(&|w| w.remote_bytes);
    let local = per_wf(&|w| w.local_bytes);
    let cold = total(&|r| r.cold_starts);
    let warm = total(&|r| r.warm_starts);
    out.put(
        "placement.load_aware_partitions",
        total(&|r| r.placement.load_aware_partitions),
    );
    out.put(
        "placement.skew_rebalances",
        total(&|r| r.placement.skew_rebalances),
    );
    out.put("container.cold_starts", cold);
    out.put("container.warm_ratio", warm / (cold + warm).max(1.0));
    out.put("store.remote_mb_per_inv", remote / 1e6 / sent);
    out.put("store.local_share", local / (remote + local).max(1.0));
    out.put(
        "store.backoff_waits",
        total(&|r| r.faults.storage_backoff_waits),
    );
    out.put("engine.master_tasks", total(&|r| r.master_tasks_assigned));
    out.put("engine.state_returns", total(&|r| r.master_state_returns));
    out.put("engine.worker_syncs", total(&|r| r.worker_syncs));
    out.put("engine.local_updates", total(&|r| r.worker_local_updates));
    out.put(
        "engine.master_busy",
        reports.iter().map(|r| r.master_busy_fraction).sum::<f64>() / reports.len() as f64,
    );
    out.put("fault.dead_letters", total(&|r| r.faults.dead_letters));
    out.put(
        "fault.redispatches",
        total(&|r| r.faults.crash_redispatches),
    );
    out.put("journal.appends", total(&|r| r.recovery.journal_appends));
    out.put(
        "journal.replayed_records",
        total(&|r| r.recovery.journal_replayed_records),
    );
    out.put("health.quarantines", total(&|r| r.health.quarantines));
    out.put("overload.shed", total(&|r| r.overload.shed));
}

/// `DagParser::parse` and `GraphScheduler::partition` timed from outside,
/// on the workload's own workflows and the first replica's nominal worker
/// list.
pub fn wdl_and_scheduler(out: &mut Output, wl: &Workload, reps: usize) {
    let config = &wl.replicas[0];
    let parser = DagParser::new(ParserConfig {
        reference_bandwidth: config.storage_bandwidth,
        ..ParserConfig::default()
    });
    let mut parse_s = Vec::with_capacity(reps);
    let mut dags = Vec::new();
    for _ in 0..reps {
        let start = Instant::now();
        dags = wl
            .workflows
            .iter()
            .map(|(wf, _)| parser.parse(black_box(wf)).expect("workflow parses"))
            .collect();
        parse_s.push(start.elapsed().as_secs_f64());
    }
    out.put("wdl.parse_s", median(&mut parse_s));
    out.put(
        "wdl.functions",
        dags.iter().map(|d| d.function_count()).sum::<usize>() as f64,
    );

    let scheduler = GraphScheduler::new(PartitionConfig {
        placement: config.placement,
        placement_config: config.placement_config,
        ..PartitionConfig::default()
    });
    let workers: Vec<WorkerInfo> = (0..config.workers)
        .map(|i| WorkerInfo::new(config.worker_node(i), config.worker_capacity()))
        .collect();
    let inputs: Vec<_> = dags
        .iter()
        .map(|d| {
            let quota = faasflow_store::quota::workflow_quota(d, config.mu);
            (RuntimeMetrics::initial(d), quota)
        })
        .collect();
    let contention = ContentionSet::default();
    let mut partition_s = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut rng = SimRng::seed_from(config.seed);
        let start = Instant::now();
        for (dag, (metrics, quota)) in dags.iter().zip(&inputs) {
            let assignment = scheduler
                .partition(dag, &workers, metrics, &contention, *quota, &mut rng)
                .expect("workflow partitions");
            black_box(assignment);
        }
        partition_s.push(start.elapsed().as_secs_f64());
    }
    out.put("scheduler.partition_s", median(&mut partition_s));
}

/// Invocations whose spans the Chrome export is timed on.
const CHROME_INVOCATIONS: usize = 512;

/// The traced pass's per-layer figures, accumulated over the replicas.
#[derive(Default)]
pub struct Traced {
    pub run_s: f64,
    handler_secs: HashMap<String, f64>,
    overhead_ms: Vec<f64>,
    trace_events: usize,
    forest_s: f64,
    critpath_s: f64,
    chrome_s: f64,
    phase_ms: HashMap<&'static str, f64>,
    chain_ms: f64,
    flows_remote: usize,
    flows_local: usize,
    replay_s: f64,
    peak_flows: usize,
}

impl Traced {
    /// Adds one replica's per-event handler times (the `loop-profile`
    /// feature's figures).
    pub fn add_profile(&mut self, profile: &LoopProfile) {
        for e in &profile.per_event {
            *self.handler_secs.entry(e.name.clone()).or_default() += e.total_secs;
        }
    }

    /// Adds the modelled scheduling overhead of each invocation that
    /// finished within the timeout: end-to-end latency (arrival to
    /// completion) minus the workflow's static critical-path execution
    /// time.
    pub fn add_overhead(
        &mut self,
        out: &mut Output,
        events: &[TraceEvent],
        critical_exec: impl Fn(WorkflowId) -> Option<SimDuration>,
    ) {
        self.trace_events += events.len();
        let mut arrived = HashMap::new();
        for ev in events {
            match ev {
                TraceEvent::InvocationArrived {
                    workflow,
                    invocation,
                    at,
                } => {
                    arrived.insert((*workflow, *invocation), *at);
                }
                TraceEvent::InvocationCompleted {
                    workflow,
                    invocation,
                    at,
                    timed_out: false,
                } => {
                    let Some(start) = arrived.get(&(*workflow, *invocation)) else {
                        out.errors.push(format!(
                            "{workflow}/{invocation} completed but never arrived"
                        ));
                        continue;
                    };
                    let exec = critical_exec(*workflow).expect("registered workflow");
                    self.overhead_ms
                        .push((*at - *start).as_millis_f64() - exec.as_millis_f64());
                }
                _ => {}
            }
        }
    }

    /// Times the span forest, critical-path extraction and Chrome export
    /// from outside on one replica's trace, and checks the first two.
    pub fn add_obs(
        &mut self,
        out: &mut Output,
        events: &[TraceEvent],
        report: &RunReport,
        chrome: bool,
    ) {
        let start = Instant::now();
        let forest = build_forest(events);
        self.forest_s += start.elapsed().as_secs_f64();
        if let Err(e) = forest.validate() {
            out.errors.push(format!("span forest: {e}"));
        }

        let start = Instant::now();
        let paths = extract(&forest);
        let rows = aggregate(&paths);
        self.critpath_s += start.elapsed().as_secs_f64();
        for (path, tree) in paths.iter().zip(&forest.trees) {
            if let Err(e) = path.validate(tree) {
                out.errors.push(format!("critical path: {e}"));
            }
        }
        for row in &rows {
            self.chain_ms += row.total_ms;
            for (phase, name) in PHASES {
                *self.phase_ms.entry(name).or_default() += row.phase_ms(phase);
            }
        }

        if chrome {
            let head = SpanForest {
                trees: forest
                    .trees
                    .iter()
                    .take(CHROME_INVOCATIONS)
                    .cloned()
                    .collect(),
                node_events: forest.node_events.clone(),
            };
            let start = Instant::now();
            let json = chrome_trace(&head, report.resources.as_ref());
            self.chrome_s += start.elapsed().as_secs_f64();
            black_box(json.len());
        }
    }

    /// Replays one replica's data transfers through a standalone `FlowNet`
    /// with the cluster's NICs: each traced `Transferred` event becomes a
    /// flow of its bytes, direction and worker, started at its start
    /// instant.
    pub fn add_net_replay(
        &mut self,
        out: &mut Output,
        events: &[TraceEvent],
        config: &ClusterConfig,
    ) {
        let storage = ClusterConfig::MASTER_NODE;
        let mut flows: Vec<(SimTime, NodeId, NodeId, u64)> = events
            .iter()
            .filter_map(|ev| match *ev {
                TraceEvent::Transferred {
                    worker,
                    bytes,
                    remote,
                    read,
                    started,
                    ..
                } => Some(match (remote, read) {
                    (true, true) => (started, storage, worker, bytes),
                    (true, false) => (started, worker, storage, bytes),
                    (false, _) => (started, worker, worker, bytes),
                }),
                _ => None,
            })
            .collect();
        flows.sort_by_key(|f| f.0);
        let remote = flows.iter().filter(|f| f.1 != f.2).count();
        self.flows_remote += remote;
        self.flows_local += flows.len() - remote;

        let mut nics = vec![NicSpec::symmetric(config.storage_bandwidth)];
        nics.extend((0..config.workers).map(|_| NicSpec::symmetric(config.worker_bandwidth)));
        let start = Instant::now();
        let mut net: FlowNet<()> = FlowNet::new(nics);
        let (mut next, mut done) = (0, 0);
        let mut buf = Vec::new();
        loop {
            let due = net.next_completion();
            match flows.get(next) {
                Some(&(at, src, dst, bytes)) if due.is_none_or(|d| at <= d) => {
                    net.start_flow(src, dst, bytes, (), at);
                    self.peak_flows = self.peak_flows.max(net.active_flows());
                    next += 1;
                }
                _ => match due {
                    Some(d) => {
                        net.take_completed_into(d, &mut buf);
                        done += buf.len();
                        buf.clear();
                    }
                    None => break,
                },
            }
        }
        self.replay_s += start.elapsed().as_secs_f64();
        out.check(done == flows.len(), || {
            format!("net replay completed {done} of {} flows", flows.len())
        });
    }

    /// Writes the accumulated figures, checking there were enough overhead
    /// samples for a p99.
    pub fn finish(mut self, out: &mut Output) {
        out.put("core.run_s_traced", self.run_s);
        out.check(!self.handler_secs.is_empty(), || {
            "traced pass has no per-event profile (built without loop-profile?)".into()
        });
        let total: f64 = self.handler_secs.values().sum();
        let mut buckets: HashMap<&str, f64> = HashMap::new();
        for (name, secs) in &self.handler_secs {
            if let Some((_, layer)) = EVENT_LAYERS.iter().find(|(n, _)| n == name) {
                *buckets.entry(layer).or_default() += secs;
            }
        }
        for (layer, metric) in [
            ("net", "net.handler_share"),
            ("container", "container.handler_share"),
            ("engine", "engine.handler_share"),
            ("completion", "core.completion_share"),
            ("recovery", "recovery.handler_share"),
        ] {
            out.put(
                metric,
                buckets.get(layer).copied().unwrap_or(0.0) / total.max(f64::MIN_POSITIVE),
            );
        }

        let samples = &mut self.overhead_ms;
        out.check(samples.len() >= 1000, || {
            format!(
                "only {} overhead samples (need at least 1000)",
                samples.len()
            )
        });
        samples.sort_by(f64::total_cmp);
        let rank = |q: f64| {
            let i = (q * samples.len() as f64).ceil() as usize;
            samples.get(i.max(1) - 1).copied().unwrap_or(0.0)
        };
        out.put("sim_overhead_p50_ms", rank(0.50));
        out.put("sim_overhead_p99_ms", rank(0.99));
        out.put("sim_overhead.samples", samples.len() as f64);

        out.put("trace.events", self.trace_events as f64);
        out.put("obs.forest_s", self.forest_s);
        out.put("obs.critpath_s", self.critpath_s);
        out.put("obs.chrome_s", self.chrome_s);
        for (_, name) in PHASES {
            let ms = self.phase_ms.get(name).copied().unwrap_or(0.0);
            out.put(
                &format!("critpath.{name}_share"),
                ms / self.chain_ms.max(f64::MIN_POSITIVE),
            );
        }

        out.put("net.flows_remote", self.flows_remote as f64);
        out.put("net.flows_local", self.flows_local as f64);
        out.put("net.replay_s", self.replay_s);
        out.put("net.peak_active_flows", self.peak_flows as f64);
    }
}

/// Critical-path phases and their metric names.
const PHASES: [(CritPhase, &str); 8] = [
    (CritPhase::Exec, "exec"),
    (CritPhase::ColdStart, "cold"),
    (CritPhase::TransferRemote, "xfer_rem"),
    (CritPhase::TransferLocal, "xfer_loc"),
    (CritPhase::QueueWait, "queue"),
    (CritPhase::Control, "control"),
    (CritPhase::EngineDown, "down"),
    (CritPhase::Retry, "retry"),
];
