//! Algorithm 1: functions grouping and scheduling.
//!
//! A faithful transcription of the paper's listing. Each function node
//! starts as its own group on a hash/random worker (line 1, the
//! "hash-based partition" of the first iteration, §4.1.2). The algorithm
//! then repeatedly:
//!
//! 1. computes the critical path of the DAG under *effective* weights
//!    (edges inside one group are local and cheap),
//! 2. walks its cross-group edges in descending weight order,
//! 3. merges the first pair of groups that passes every constraint:
//!    * the merged group's container demand `Σ ⌈Scale(v)⌉` must fit some
//!      worker (line 12),
//!    * localising the edge must not overrun the workflow's in-memory
//!      quota `Quota(G)` (lines 13–18) — on success the producer's
//!      `StorageType` flips to `MEM`,
//!    * no contention pair `cont(G)` may end up co-grouped (lines 19–20),
//! 4. bin-packs the merged group onto a worker (line 21),
//!
//! and stops when a full pass makes no merge (line 26).

use std::cmp::Reverse;
use std::collections::{BTreeSet, HashSet};

use faasflow_sim::{FunctionId, GroupId, NodeId, SimDuration, SimRng};
use faasflow_wdl::{EdgeId, WorkflowDag};
use serde::{Deserialize, Serialize};

use crate::error::ScheduleError;
use crate::feedback::{RuntimeMetrics, WorkerLoad};

#[cfg(test)]
mod reference;

/// How merged groups are placed onto workers (Algorithm 1 line 21).
///
/// Note on ties: in legacy mode (see [`PlacementConfig`]) both strategies
/// break capacity ties toward the lowest worker index, so on a fresh
/// cluster every small workflow's merged group lands on worker 0 and the
/// cluster serializes on that node. The load-aware mode replaces the index
/// tie-break with least-loaded/locality scoring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PlacementStrategy {
    /// Best fit: the worker with the *least* sufficient residual capacity.
    /// Packs tightly, concentrating groups on few nodes.
    BestFit,
    /// Worst fit: the worker with the *most* residual capacity. This is the
    /// load balancer of §4.1.3 ("function nodes with less data movement
    /// will be scheduled to balance the load and resource") and reproduces
    /// Figure 15's distribution: large multi-group workflows spread across
    /// all workers, small single-group applications stay on one.
    #[default]
    WorstFit,
}

/// Cluster-wide placement tuning: the load- and locality-aware layer on top
/// of Algorithm 1's bin-packing.
///
/// `Default` is the tested least-loaded configuration. The simulated
/// cluster opts *out* explicitly via [`PlacementConfig::legacy`], which
/// keeps the original behavior — random initial placement and the
/// worker-0-biased capacity tie-break — bit-identical so historical goldens
/// stay stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacementConfig {
    /// Master switch. When false, placement is byte-identical to the
    /// pre-placement-layer builds (same comparisons, same RNG draws).
    pub enabled: bool,
    /// Data-edge affinity below this many bytes is ignored when scoring a
    /// merged group's candidate workers; above it, co-locating the edge
    /// (a FaaStore local hit) outranks residual capacity.
    pub locality_threshold_bytes: u64,
    /// The cluster's incremental rebalancer fires when the most-loaded
    /// worker holds more than this percentage of the mean per-worker placed
    /// group count (e.g. 200 = twice the mean). Must be ≥ 100.
    pub skew_threshold_pct: u32,
    /// Minimum completed invocations between skew-triggered rebalance
    /// sweeps. Must be ≥ 1 when enabled.
    pub rebalance_cooldown: u32,
}

impl Default for PlacementConfig {
    fn default() -> Self {
        PlacementConfig {
            enabled: true,
            locality_threshold_bytes: 64 << 10,
            skew_threshold_pct: 200,
            rebalance_cooldown: 16,
        }
    }
}

impl PlacementConfig {
    /// The pre-placement-layer behavior: random initial placement and the
    /// lowest-index capacity tie-break. Bit-identical to builds that
    /// predate the placement layer.
    pub fn legacy() -> Self {
        PlacementConfig {
            enabled: false,
            ..PlacementConfig::default()
        }
    }
}

/// Partitioner tunables.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PartitionConfig {
    /// Effective weight of an edge whose endpoints share a group (local
    /// memory transfer — nearly free compared to the network).
    pub local_edge_weight: SimDuration,
    /// Safety bound on merge iterations (the algorithm terminates after at
    /// most `n-1` merges anyway; this guards against regressions).
    pub max_merges: u32,
    /// Group placement policy.
    pub placement: PlacementStrategy,
    /// Load- and locality-aware placement tuning.
    #[serde(default)]
    pub placement_config: PlacementConfig,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            local_edge_weight: SimDuration::from_micros(200),
            max_merges: 100_000,
            placement: PlacementStrategy::WorstFit,
            placement_config: PlacementConfig::default(),
        }
    }
}

/// One worker node and its container capacity — the paper's `Cap[node]`,
/// "a list of the capacity of containers left to be created on each node".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerInfo {
    /// The worker's node id in the cluster.
    pub node: NodeId,
    /// Containers this node can still host. The cluster passes *residual*
    /// capacity here when load-aware placement is enabled (nominal minus
    /// live instances), nominal capacity otherwise.
    pub capacity: u32,
    /// Live load snapshot used to score otherwise-equal candidates.
    #[serde(default)]
    pub load: WorkerLoad,
}

impl WorkerInfo {
    /// Creates an unloaded worker descriptor.
    pub fn new(node: NodeId, capacity: u32) -> Self {
        WorkerInfo {
            node,
            capacity,
            load: WorkerLoad::default(),
        }
    }

    /// Attaches a live load snapshot.
    pub fn with_load(mut self, load: WorkerLoad) -> Self {
        self.load = load;
        self
    }
}

/// Function pairs that must not share a group — the paper's
/// `cont(G) = {(f_i, f_j)}`, fed by orthogonal interference predictors.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ContentionSet {
    pairs: HashSet<(FunctionId, FunctionId)>,
}

impl ContentionSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        ContentionSet::default()
    }

    /// Declares `a` and `b` conflicting (order-insensitive).
    pub fn declare(&mut self, a: FunctionId, b: FunctionId) {
        let pair = if a <= b { (a, b) } else { (b, a) };
        self.pairs.insert(pair);
    }

    /// True when `a` and `b` conflict.
    pub fn conflicts(&self, a: FunctionId, b: FunctionId) -> bool {
        let pair = if a <= b { (a, b) } else { (b, a) };
        self.pairs.contains(&pair)
    }

    /// Number of declared pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when no pair is declared.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// One function group (sub-graph) assigned to a worker.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Group {
    /// Stable group id.
    pub id: GroupId,
    /// Member DAG nodes (functions and virtual brackets), ascending.
    pub members: Vec<FunctionId>,
    /// The worker hosting the group.
    pub worker: NodeId,
    /// Container demand `Σ ⌈Scale(v)⌉` of the members.
    pub capacity_needed: u32,
}

/// The partitioner's output: groups, per-node placement, and per-function
/// storage classes. The default is the empty placement (no groups), which
/// stands for "nothing deployed yet".
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Assignment {
    /// The function groups, in stable id order.
    pub groups: Vec<Group>,
    /// Worker of each DAG node, indexed by [`FunctionId::index`].
    pub node_of: Vec<NodeId>,
    /// Group of each DAG node.
    pub group_of: Vec<GroupId>,
    /// Algorithm 1's `f.StorageType == 'MEM'`: whether the node's output
    /// may reside in local memory.
    pub storage_local: Vec<bool>,
    /// Bytes of edge data localised in memory (`mem_consume`).
    pub mem_consume: u64,
    /// The quota the partition ran under.
    pub quota: u64,
}

impl Assignment {
    /// The worker hosting a DAG node.
    pub fn worker_of(&self, node: FunctionId) -> NodeId {
        self.node_of[node.index()]
    }

    /// True when a control edge's endpoints share a worker.
    pub fn is_local_edge(&self, dag: &WorkflowDag, edge: EdgeId) -> bool {
        let e = dag.edge(edge);
        self.worker_of(e.from) == self.worker_of(e.to)
    }

    /// True when at least one DAG node is routed to `worker` — i.e. the
    /// worker's engine plays a part in invocations pinned to this
    /// assignment (crash recovery skips uninvolved engines).
    pub fn involves(&self, worker: NodeId) -> bool {
        self.node_of.contains(&worker)
    }

    /// Per-worker group distribution (Figure 15): `(worker, group count,
    /// function count)` sorted by worker.
    pub fn distribution(&self, dag: &WorkflowDag) -> Vec<(NodeId, usize, usize)> {
        let mut per: std::collections::BTreeMap<NodeId, (usize, usize)> =
            std::collections::BTreeMap::new();
        for g in &self.groups {
            let funcs = g
                .members
                .iter()
                .filter(|&&m| dag.node(m).kind.is_function())
                .count();
            let entry = per.entry(g.worker).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += funcs;
        }
        per.into_iter().map(|(n, (g, f))| (n, g, f)).collect()
    }

    /// Bytes per invocation that must cross workers under this placement —
    /// the data a FaaStore deployment cannot localise even with unlimited
    /// quota (each data edge whose producer and consumer live on different
    /// workers, plus every output whose consumer *set* spans workers,
    /// since FaaStore's placement rule is all-or-nothing).
    pub fn cross_worker_bytes(&self, dag: &WorkflowDag) -> u64 {
        use std::collections::HashMap;
        // Group data edges by producer to apply the all-consumers rule.
        let mut by_producer: HashMap<_, Vec<_>> = HashMap::new();
        for d in dag.data_edges() {
            by_producer.entry(d.producer).or_default().push(d);
        }
        let mut total = 0;
        for (producer, edges) in by_producer {
            let home = self.worker_of(producer);
            let co_located = edges.iter().all(|d| self.worker_of(d.consumer) == home);
            if !co_located {
                total += edges.iter().map(|d| d.bytes).sum::<u64>();
            }
        }
        total
    }

    /// Rough resident size of this assignment (Figure 16's scheduler memory
    /// series): sums the owned buffers.
    pub fn approx_memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.groups
            .iter()
            .map(|g| size_of::<Group>() + g.members.len() * size_of::<FunctionId>())
            .sum::<usize>()
            + self.node_of.len() * size_of::<NodeId>()
            + self.group_of.len() * size_of::<GroupId>()
            + self.storage_local.len()
    }
}

/// The Graph Scheduler's partitioner.
#[derive(Debug, Clone, Default)]
pub struct GraphScheduler {
    config: PartitionConfig,
}

/// The residual capacity `Cap[node]` of one partition run, plus, in
/// load-aware mode, the candidate index over it.
struct Bins {
    cap: Vec<i64>,
    index: Option<CandidateIndex>,
}

/// Every worker ordered exactly as load-aware placement prefers it: by
/// capacity, then, among equal capacities, the calmest — the lowest
/// recent p99, then the least resident memory, then the rotated index.
///
/// The calm order does not change within a partition, so it is computed
/// once as a rank (larger is calmer), unique because the rotated index
/// is. A worker's key packs its capacity above its rank; capacity stays
/// within `0..=WorkerInfo::capacity` (a `u32`) for the whole partition,
/// so comparing keys compares `(cap, rank)`, and the roomiest worker and
/// the tightest fit are O(log W) lookups.
struct CandidateIndex {
    rank: Vec<u32>,
    /// The worker holding each rank.
    worker_of_rank: Vec<usize>,
    keys: BTreeSet<u64>,
}

impl CandidateIndex {
    fn new(workers: &[WorkerInfo], cap: &[i64], rot: usize) -> Self {
        let n = workers.len();
        // One packed key per worker, sorted once: descending (p99, memory,
        // rotated index) is ascending in the complement. The rotated index
        // is unique, so the keys are too, and it maps back to the worker.
        let mut calm: Vec<u128> = (0..n)
            .map(|w| {
                let l = workers[w].load;
                let rotated = ((w + n - rot) % n) as u128;
                !(u128::from(l.recent_p99_ms) << 96 | u128::from(l.mem_used_bytes) << 32 | rotated)
            })
            .collect();
        calm.sort_unstable();
        let worker_of_rank: Vec<usize> = calm
            .iter()
            .map(|&k| (!k as u32 as usize + rot) % n)
            .collect();
        let mut rank = vec![0; n];
        for (r, &w) in worker_of_rank.iter().enumerate() {
            rank[w] = r as u32;
        }
        let mut index = CandidateIndex {
            rank,
            worker_of_rank,
            keys: BTreeSet::new(),
        };
        index.keys = (0..n).map(|w| index.key(w, cap[w])).collect();
        index
    }

    fn key(&self, worker: usize, cap: i64) -> u64 {
        debug_assert!((0..=i64::from(u32::MAX)).contains(&cap));
        (cap as u64) << 32 | u64::from(self.rank[worker])
    }

    fn worker(&self, key: u64) -> usize {
        self.worker_of_rank[(key & u64::from(u32::MAX)) as usize]
    }
}

impl Bins {
    fn new(workers: &[WorkerInfo], rot: usize, indexed: bool) -> Self {
        let cap: Vec<i64> = workers.iter().map(|w| i64::from(w.capacity)).collect();
        let index = indexed.then(|| CandidateIndex::new(workers, &cap, rot));
        Bins { cap, index }
    }

    /// Changes one worker's capacity, keeping the index in step.
    fn adjust(&mut self, worker: usize, delta: i64) {
        if let Some(index) = &mut self.index {
            if delta != 0 {
                index.keys.remove(&index.key(worker, self.cap[worker]));
                index
                    .keys
                    .insert(index.key(worker, self.cap[worker] + delta));
            }
        }
        self.cap[worker] += delta;
    }

    fn max_cap(&self) -> i64 {
        match &self.index {
            Some(index) => index.keys.last().map_or(0, |&k| (k >> 32) as i64),
            None => self.cap.iter().copied().max().unwrap_or(0),
        }
    }

    /// The worker with the most capacity, calmest among equals, if it
    /// holds `need`. Load-aware worst fit; also load-aware initial
    /// placement.
    fn roomiest(&self, need: i64) -> Option<usize> {
        let index = self.index.as_ref()?;
        let &top = index.keys.last()?;
        ((top >> 32) as i64 >= need).then(|| index.worker(top))
    }

    /// The worker with the least capacity that still holds `need`,
    /// calmest among equals. Load-aware best fit.
    fn tightest(&self, need: i64) -> Option<usize> {
        let index = self.index.as_ref()?;
        let need = u64::try_from(need.max(0))
            .ok()
            .filter(|&n| n <= u64::from(u32::MAX))?;
        let &fit = index.keys.range(need << 32..).next()?;
        let last_of_cap = fit | u64::from(u32::MAX);
        let &calmest = index.keys.range(..=last_of_cap).next_back()?;
        Some(index.worker(calmest))
    }
}

/// The data affinity of a merged group: how many bytes each worker
/// exchanges with it over data edges that cross the group's boundary.
/// Lives for one partition; each merge clears only the workers it touched.
struct Affinity {
    /// Per worker; non-zero only for the workers in `touched`.
    bytes: Vec<u64>,
    touched: Vec<usize>,
}

impl Affinity {
    fn new(workers: usize) -> Self {
        Affinity {
            bytes: vec![0; workers],
            touched: Vec::new(),
        }
    }

    /// Sums the affinity of `gs ∪ ge`.
    fn collect(
        &mut self,
        dag: &WorkflowDag,
        group_of: &[usize],
        worker_of_group: &[usize],
        gs: usize,
        ge: usize,
    ) {
        for d in dag.data_edges() {
            let p = d.producer.index();
            let c = d.consumer.index();
            let p_in = group_of[p] == gs || group_of[p] == ge;
            let c_in = group_of[c] == gs || group_of[c] == ge;
            if p_in != c_in && d.bytes > 0 {
                let outside = if p_in { c } else { p };
                let w = worker_of_group[group_of[outside]];
                if self.bytes[w] == 0 {
                    self.touched.push(w);
                }
                self.bytes[w] += d.bytes;
            }
        }
    }

    fn clear(&mut self) {
        for w in self.touched.drain(..) {
            self.bytes[w] = 0;
        }
    }
}

/// Longest paths under Algorithm 1's effective edge weights (line 4), kept
/// across merges instead of recomputed per iteration.
///
/// Merging only ever localises edges, and a localised edge only gets
/// cheaper, so after a merge just the heads of the edges it localised can
/// change. Those are re-relaxed in topological order, and a node whose
/// distance moved passes the change on to its successors. Every relaxation
/// recomputes the node from all its predecessors with
/// [`WorkflowDag::critical_path_with`]'s rule — the first predecessor with
/// the strictly largest distance — so `dist` and `via` always equal a full
/// recomputation's.
struct LongestPaths {
    local_w: SimDuration,
    /// Effective weight of each control edge: `min(local_w, weight)` once
    /// its endpoints share a group, its stored weight until then.
    weight: Vec<SimDuration>,
    /// `exec_mean` of each node.
    exec: Vec<SimDuration>,
    /// Topological position of each node.
    pos: Vec<usize>,
    /// Cost of the heaviest path ending at each node, inclusive.
    dist: Vec<SimDuration>,
    /// The edge that heaviest path enters each node by.
    via: Vec<Option<EdgeId>>,
    /// Nodes awaiting re-relaxation.
    dirty: Vec<bool>,
    /// The lowest topological position of a dirty node.
    first_dirty: usize,
}

impl LongestPaths {
    /// Singleton groups, every node dirty: the first
    /// [`LongestPaths::critical_edges`] runs the full pass.
    fn new(dag: &WorkflowDag, local_w: SimDuration) -> Self {
        let n = dag.node_count();
        let mut pos = vec![0; n];
        for (p, v) in dag.topo_order().iter().enumerate() {
            pos[v.index()] = p;
        }
        LongestPaths {
            local_w,
            weight: dag.edges().iter().map(|e| e.weight).collect(),
            exec: dag.nodes().iter().map(|v| v.exec_mean()).collect(),
            pos,
            dist: vec![SimDuration::ZERO; n],
            via: vec![None; n],
            dirty: vec![true; n],
            first_dirty: 0,
        }
    }

    fn mark(&mut self, v: usize) {
        self.dirty[v] = true;
        self.first_dirty = self.first_dirty.min(self.pos[v]);
    }

    /// Before `small` (the members of one group) merges with group
    /// `other`: makes the control edges between the two local and marks
    /// the heads of those that get cheaper. Scanning the smaller side finds
    /// them all.
    fn localise(&mut self, dag: &WorkflowDag, group_of: &[usize], small: &[usize], other: usize) {
        for &m in small {
            let v = FunctionId::from(m);
            for &(eid, t) in dag.successors(v) {
                if group_of[t.index()] == other && self.weight[eid.index()] > self.local_w {
                    self.weight[eid.index()] = self.local_w;
                    self.mark(t.index());
                }
            }
            for &(eid, u) in dag.predecessors(v) {
                if group_of[u.index()] == other && self.weight[eid.index()] > self.local_w {
                    self.weight[eid.index()] = self.local_w;
                    self.mark(m);
                }
            }
        }
    }

    /// Re-relaxes the dirty nodes, then writes the critical path's edges,
    /// entry to exit, into `edges`: the path ends at the lowest-index node
    /// of maximum distance.
    fn critical_edges(&mut self, dag: &WorkflowDag, edges: &mut Vec<EdgeId>) {
        let topo = dag.topo_order();
        for &v in &topo[self.first_dirty.min(topo.len())..] {
            let v = v.index();
            if !std::mem::take(&mut self.dirty[v]) {
                continue;
            }
            let mut best = SimDuration::ZERO;
            let mut best_via = None;
            for &(eid, u) in dag.predecessors(FunctionId::from(v)) {
                let d = self.dist[u.index()] + self.weight[eid.index()];
                if best_via.is_none() || d > best {
                    best = d;
                    best_via = Some(eid);
                }
            }
            let d = best + self.exec[v];
            self.via[v] = best_via;
            if d != self.dist[v] {
                self.dist[v] = d;
                for &(_, s) in dag.successors(FunctionId::from(v)) {
                    self.dirty[s.index()] = true;
                }
            }
        }
        self.first_dirty = topo.len();

        let mut end = 0;
        for (i, &d) in self.dist.iter().enumerate() {
            if d > self.dist[end] {
                end = i;
            }
        }
        edges.clear();
        while let Some(eid) = self.via[end] {
            edges.push(eid);
            end = dag.edge(eid).from.index();
        }
        edges.reverse();
    }
}

impl GraphScheduler {
    /// A scheduler with explicit configuration.
    pub fn new(config: PartitionConfig) -> Self {
        GraphScheduler { config }
    }

    /// Runs Algorithm 1.
    ///
    /// `quota` is `Quota(G)` from Eq. (2) (pass `u64::MAX` to disable the
    /// memory constraint, `0` to forbid localisation entirely — the plain
    /// FaaSFlow-without-FaaStore configuration).
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] when no worker exists, the metrics don't
    /// match the DAG, or the initial singleton groups cannot be placed.
    pub fn partition(
        &self,
        dag: &WorkflowDag,
        workers: &[WorkerInfo],
        metrics: &RuntimeMetrics,
        contention: &ContentionSet,
        quota: u64,
        rng: &mut SimRng,
    ) -> Result<Assignment, ScheduleError> {
        if workers.is_empty() {
            return Err(ScheduleError::NoWorkers);
        }
        if metrics.scale.len() != dag.node_count() {
            return Err(ScheduleError::MetricsMismatch {
                expected: dag.node_count(),
                actual: metrics.scale.len(),
            });
        }
        let load_aware = self.config.placement_config.enabled;

        // Load-aware mode rotates the deterministic tie-break order once
        // per partition (a single RNG draw), so equal-score ties land on
        // different workers across successive partitions instead of always
        // on index 0. Legacy mode draws nothing here, keeping the RNG
        // stream — and therefore every historical golden — bit-identical.
        let rot = if load_aware {
            (rng.next_u64() % workers.len() as u64) as usize
        } else {
            0
        };

        let n = dag.node_count();
        // Container demand of each node: ⌈Scale(v)⌉ (0 for virtual nodes).
        let demand: Vec<u32> = (0..n)
            .map(|i| {
                let node = dag.node(FunctionId::from(i));
                if node.kind.is_function() {
                    metrics.scale[i].ceil().max(1.0) as u32
                } else {
                    0
                }
            })
            .collect();

        // Line 1: singleton groups on random workers (hash partition).
        let mut bins = Bins::new(workers, rot, load_aware);
        let mut group_of: Vec<usize> = (0..n).collect();
        // members[g] empty ⇒ group g was absorbed.
        let mut members: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        // Container demand Σ ⌈Scale(v)⌉ of each live group.
        let mut group_demand = demand.clone();
        let mut worker_of_group: Vec<usize> = Vec::with_capacity(n);
        let mut feasible: Vec<usize> = Vec::new();
        for &node_demand in &demand {
            let need = i64::from(node_demand);
            let w = if load_aware {
                // The least-loaded feasible worker: most residual capacity,
                // then the calmest tail and memory, then the rotated index.
                bins.roomiest(need)
            } else {
                feasible.clear();
                feasible.extend((0..workers.len()).filter(|&w| bins.cap[w] >= need));
                rng.pick(&feasible).copied()
            }
            .ok_or_else(|| ScheduleError::InsufficientCapacity {
                required: node_demand,
                largest_free: bins.max_cap().max(0) as u32,
            })?;
            bins.adjust(w, -need);
            worker_of_group.push(w);
        }

        // Line 2.
        let mut storage_local = vec![false; n];
        let mut mem_consume: u64 = 0;

        let mut affinity: Option<Affinity> = None;
        let mut paths = LongestPaths::new(dag, self.config.local_edge_weight);
        let mut edges: Vec<EdgeId> = Vec::new();

        // Lines 3–26.
        let mut merges = 0;
        loop {
            if merges >= self.config.max_merges {
                break;
            }
            // Line 4: critical path under effective weights.
            paths.critical_edges(dag, &mut edges);
            // Line 5: descending weight.
            edges.sort_by_key(|&e| Reverse(dag.edge(e).weight));

            let mut merged = false;
            for &eid in &edges {
                let e = dag.edge(eid);
                let (fs, fe) = (e.from.index(), e.to.index());
                let (gs, ge) = (group_of[fs], group_of[fe]);
                if gs == ge {
                    continue; // line 9
                }
                // Lines 10–12: capacity feasibility. Free both groups'
                // demands, then check the best fit.
                let n_start = i64::from(group_demand[gs]);
                let n_end = i64::from(group_demand[ge]);
                let need = n_start + n_end;
                let (ws, we) = (worker_of_group[gs], worker_of_group[ge]);
                let freed = |w: usize| {
                    let mut free = bins.cap[w];
                    if w == ws {
                        free += n_start;
                    }
                    if w == we {
                        free += n_end;
                    }
                    free
                };
                let fits_somewhere = if load_aware {
                    // Freeing raises only ws and we, so the roomiest worker
                    // afterwards is one of them or the index's top.
                    freed(ws).max(freed(we)).max(bins.max_cap()) >= need
                } else {
                    (0..workers.len()).any(|w| freed(w) >= need)
                };
                if !fits_somewhere {
                    continue;
                }
                // Lines 13–18: in-memory quota for localising this edge.
                // Virtual bracket nodes only *relay* a function's output;
                // the quota is charged once, on the real producer's edge,
                // or a single logical transfer routed through a bracket
                // would be double-billed.
                if dag.node(e.from).kind.is_function() && !storage_local[fs] {
                    if mem_consume.saturating_add(e.bytes) > quota {
                        continue;
                    }
                    mem_consume += e.bytes;
                    storage_local[fs] = true;
                }
                // Lines 19–20: contention pairs must not be co-grouped.
                let conflict = !contention.is_empty()
                    && members[gs].iter().any(|&a| {
                        members[ge].iter().any(|&b| {
                            contention.conflicts(FunctionId::from(a), FunctionId::from(b))
                        })
                    });
                if conflict {
                    continue;
                }
                // Line 21: bin-pack the merged group onto a worker. Most
                // load-aware merges join two groups on one worker, so one
                // index update frees both.
                if ws == we {
                    bins.adjust(ws, need);
                } else {
                    bins.adjust(ws, n_start);
                    bins.adjust(we, n_end);
                }
                let target = if load_aware {
                    let affinity = affinity.get_or_insert_with(|| Affinity::new(workers.len()));
                    affinity.collect(dag, &group_of, &worker_of_group, gs, ge);
                    let target = self.place_merged(&bins, affinity, need);
                    affinity.clear();
                    target
                } else {
                    let cap = &bins.cap;
                    let candidates = (0..workers.len()).filter(|&w| cap[w] >= need);
                    match self.config.placement {
                        PlacementStrategy::BestFit => candidates.min_by_key(|&w| (cap[w], w)),
                        PlacementStrategy::WorstFit => {
                            candidates.max_by_key(|&w| (cap[w], Reverse(w)))
                        }
                    }
                }
                .expect("fits_somewhere guaranteed a target");
                bins.adjust(target, -need);
                // Lines 22–24: merge ge into gs.
                if members[ge].len() <= members[gs].len() {
                    paths.localise(dag, &group_of, &members[ge], gs);
                } else {
                    paths.localise(dag, &group_of, &members[gs], ge);
                }
                let moved = std::mem::take(&mut members[ge]);
                for &m in &moved {
                    group_of[m] = gs;
                }
                members[gs].extend(moved);
                group_demand[gs] += group_demand[ge];
                worker_of_group[gs] = target;
                merges += 1;
                merged = true;
                break;
            }
            if !merged {
                break; // line 26
            }
        }

        // Assemble the output in stable order.
        let mut groups = Vec::new();
        let mut group_ids = vec![GroupId::new(0); n];
        let mut node_of = vec![NodeId::new(0); n];
        for g in 0..n {
            if members[g].is_empty() {
                continue;
            }
            let gid = GroupId::new(groups.len() as u32);
            let ms = &mut members[g];
            ms.sort_unstable();
            let worker = workers[worker_of_group[g]].node;
            for &m in ms.iter() {
                group_ids[m] = gid;
                node_of[m] = worker;
            }
            groups.push(Group {
                id: gid,
                members: ms.iter().map(|&m| FunctionId::from(m)).collect(),
                worker,
                capacity_needed: group_demand[g],
            });
        }

        Ok(Assignment {
            groups,
            node_of,
            group_of: group_ids,
            storage_local,
            mem_consume,
            quota,
        })
    }

    /// Load- and locality-aware variant of Algorithm 1's line 21: among the
    /// workers that can host the merged group `gs ∪ ge`, prefer (1) the
    /// worker already holding the heaviest data traffic with the merged
    /// members — placing the group there turns those edges into FaaStore
    /// local hits — then (2) the strategy's capacity preference and calmest
    /// live load, with the rotated index as the final deterministic
    /// tie-break. Affinity below `locality_threshold_bytes` is ignored so
    /// trivial edges cannot override load balancing.
    ///
    /// Only the few workers holding affinity are scored one by one; when
    /// none qualifies every candidate ties on affinity, and the pick is one
    /// index lookup.
    fn place_merged(&self, bins: &Bins, affinity: &Affinity, need: i64) -> Option<usize> {
        let Affinity { bytes, touched } = affinity;
        let threshold = self.config.placement_config.locality_threshold_bytes;
        let local = touched
            .iter()
            .copied()
            .filter(|&w| bytes[w] >= threshold && bins.cap[w] >= need);
        let rank = &bins.index.as_ref()?.rank;
        let strategy = self.config.placement;
        let best_local = match strategy {
            PlacementStrategy::BestFit => {
                local.max_by_key(|&w| (bytes[w], Reverse(bins.cap[w]), rank[w]))
            }
            PlacementStrategy::WorstFit => local.max_by_key(|&w| (bytes[w], bins.cap[w], rank[w])),
        };
        best_local.or_else(|| match strategy {
            PlacementStrategy::BestFit => bins.tightest(need),
            PlacementStrategy::WorstFit => bins.roomiest(need),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasflow_wdl::{DagParser, FunctionProfile, Step, Workflow};

    fn parse(wf: &Workflow) -> WorkflowDag {
        DagParser::default().parse(wf).expect("valid workflow")
    }

    fn workers(n: u32, capacity: u32) -> Vec<WorkerInfo> {
        (0..n)
            .map(|i| WorkerInfo::new(NodeId::new(i + 1), capacity))
            .collect()
    }

    fn chain(names_out: &[(&str, u64)]) -> Workflow {
        Workflow::steps(
            "chain",
            Step::sequence(
                names_out
                    .iter()
                    .map(|(n, out)| Step::task(*n, FunctionProfile::with_millis(10, *out)))
                    .collect(),
            ),
        )
    }

    fn run(dag: &WorkflowDag, ws: &[WorkerInfo], cont: &ContentionSet, quota: u64) -> Assignment {
        let metrics = RuntimeMetrics::initial(dag);
        let mut rng = SimRng::seed_from(42);
        GraphScheduler::default()
            .partition(dag, ws, &metrics, cont, quota, &mut rng)
            .expect("partition succeeds")
    }

    #[test]
    fn heavy_chain_collapses_into_one_group() {
        let wf = chain(&[("a", 50 << 20), ("b", 50 << 20), ("c", 0)]);
        let dag = parse(&wf);
        let a = run(&dag, &workers(4, 64), &ContentionSet::default(), u64::MAX);
        assert_eq!(a.groups.len(), 1, "all three merge along heavy edges");
        let w = a.node_of[0];
        assert!(a.node_of.iter().all(|&n| n == w));
        // Both producers flipped to MEM.
        assert!(a.storage_local[0] && a.storage_local[1]);
        assert_eq!(a.mem_consume, 100 << 20);
    }

    #[test]
    fn zero_quota_blocks_localisation() {
        let wf = chain(&[("a", 50 << 20), ("b", 50 << 20), ("c", 0)]);
        let dag = parse(&wf);
        let a = run(&dag, &workers(4, 64), &ContentionSet::default(), 0);
        assert!(
            a.groups.len() > 1,
            "no merge is possible when nothing can be localised"
        );
        assert!(a.storage_local.iter().all(|&s| !s));
        assert_eq!(a.mem_consume, 0);
    }

    #[test]
    fn quota_limits_how_much_merges() {
        let wf = chain(&[("a", 50 << 20), ("b", 50 << 20), ("c", 0)]);
        let dag = parse(&wf);
        // Quota admits exactly one 50MB edge.
        let a = run(&dag, &workers(4, 64), &ContentionSet::default(), 50 << 20);
        assert_eq!(a.mem_consume, 50 << 20);
        assert_eq!(
            a.storage_local.iter().filter(|&&s| s).count(),
            1,
            "only one producer localises"
        );
        assert_eq!(a.groups.len(), 2);
    }

    #[test]
    fn contention_pair_never_cogrouped() {
        let wf = chain(&[("a", 50 << 20), ("b", 50 << 20), ("c", 0)]);
        let dag = parse(&wf);
        let a_id = dag.nodes().iter().find(|n| n.name == "a").unwrap().id;
        let b_id = dag.nodes().iter().find(|n| n.name == "b").unwrap().id;
        let mut cont = ContentionSet::new();
        cont.declare(a_id, b_id);
        let a = run(&dag, &workers(4, 64), &cont, u64::MAX);
        assert_ne!(
            a.group_of[a_id.index()],
            a.group_of[b_id.index()],
            "conflicting functions stay apart"
        );
    }

    #[test]
    fn capacity_forces_spreading() {
        // Each function demands 1 container; workers hold only 1 each, so
        // no merge can ever fit 2.
        let wf = chain(&[("a", 50 << 20), ("b", 50 << 20), ("c", 0)]);
        let dag = parse(&wf);
        let a = run(&dag, &workers(3, 1), &ContentionSet::default(), u64::MAX);
        assert_eq!(a.groups.len(), 3);
    }

    #[test]
    fn no_workers_is_an_error() {
        let wf = chain(&[("a", 0)]);
        let dag = parse(&wf);
        let metrics = RuntimeMetrics::initial(&dag);
        let mut rng = SimRng::seed_from(1);
        let res = GraphScheduler::default().partition(
            &dag,
            &[],
            &metrics,
            &ContentionSet::default(),
            u64::MAX,
            &mut rng,
        );
        assert_eq!(res.unwrap_err(), ScheduleError::NoWorkers);
    }

    #[test]
    fn insufficient_capacity_is_an_error() {
        let wf = chain(&[("a", 0), ("b", 0)]);
        let dag = parse(&wf);
        let metrics = RuntimeMetrics::initial(&dag);
        let mut rng = SimRng::seed_from(1);
        let res = GraphScheduler::default().partition(
            &dag,
            &workers(1, 1), // only 1 container total, 2 needed
            &metrics,
            &ContentionSet::default(),
            u64::MAX,
            &mut rng,
        );
        assert!(matches!(
            res,
            Err(ScheduleError::InsufficientCapacity { .. })
        ));
    }

    #[test]
    fn scale_feedback_raises_demand() {
        let wf = chain(&[("a", 1 << 20), ("b", 0)]);
        let dag = parse(&wf);
        let mut metrics = RuntimeMetrics::initial(&dag);
        metrics.scale[0] = 5.0; // a scaled to ~5 instances at runtime
        let mut rng = SimRng::seed_from(1);
        let a = GraphScheduler::default()
            .partition(
                &dag,
                &workers(2, 6),
                &metrics,
                &ContentionSet::default(),
                u64::MAX,
                &mut rng,
            )
            .expect("fits");
        let ga = &a.groups[a.group_of[0].index()];
        assert!(ga.capacity_needed >= 5);
    }

    #[test]
    fn every_node_lands_in_exactly_one_group() {
        let wf = Workflow::steps(
            "mix",
            Step::sequence(vec![
                Step::task("s", FunctionProfile::with_millis(5, 4 << 20)),
                Step::parallel(vec![
                    Step::task("p0", FunctionProfile::with_millis(5, 1 << 20)),
                    Step::task("p1", FunctionProfile::with_millis(5, 2 << 20)),
                ]),
                Step::foreach("fe", FunctionProfile::with_millis(5, 8 << 20), 4),
                Step::task("t", FunctionProfile::with_millis(5, 0)),
            ]),
        );
        let dag = parse(&wf);
        let a = run(&dag, &workers(3, 32), &ContentionSet::default(), u64::MAX);
        let mut seen = vec![0usize; dag.node_count()];
        for g in &a.groups {
            for m in &g.members {
                seen[m.index()] += 1;
            }
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "partition covers every node once"
        );
        // Consistency between group list and lookup vectors.
        for g in &a.groups {
            for m in &g.members {
                assert_eq!(a.group_of[m.index()], g.id);
                assert_eq!(a.node_of[m.index()], g.worker);
            }
        }
    }

    #[test]
    fn distribution_reports_all_groups() {
        let wf = chain(&[("a", 1), ("b", 1), ("c", 0)]);
        let dag = parse(&wf);
        let a = run(&dag, &workers(2, 64), &ContentionSet::default(), u64::MAX);
        let dist = a.distribution(&dag);
        let groups: usize = dist.iter().map(|&(_, g, _)| g).sum();
        assert_eq!(groups, a.groups.len());
        let funcs: usize = dist.iter().map(|&(_, _, f)| f).sum();
        assert_eq!(funcs, dag.function_count());
        assert!(a.approx_memory_bytes() > 0);
    }

    #[test]
    fn cross_worker_bytes_follows_the_placement() {
        let wf = chain(&[("a", 50 << 20), ("b", 50 << 20), ("c", 0)]);
        let dag = parse(&wf);
        // Full merge: nothing crosses.
        let merged = run(&dag, &workers(4, 64), &ContentionSet::default(), u64::MAX);
        assert_eq!(merged.cross_worker_bytes(&dag), 0);
        // Forced spread (capacity 1 each): everything crosses.
        let spread = run(&dag, &workers(3, 1), &ContentionSet::default(), u64::MAX);
        assert_eq!(
            spread.cross_worker_bytes(&dag),
            dag.total_data_bytes(),
            "singleton groups ship every edge"
        );
    }

    #[test]
    fn default_placement_config_is_least_loaded() {
        // Satellite: the new least-loaded tie-break is the *default* of
        // PlacementConfig; legacy() is the explicit opt-out.
        assert!(PlacementConfig::default().enabled);
        assert!(!PlacementConfig::legacy().enabled);
        assert!(PartitionConfig::default().placement_config.enabled);
    }

    fn legacy_scheduler() -> GraphScheduler {
        GraphScheduler::new(PartitionConfig {
            placement_config: PlacementConfig::legacy(),
            ..PartitionConfig::default()
        })
    }

    #[test]
    fn legacy_tiebreak_piles_merges_onto_worker_zero() {
        // Documents the worker-0 bias: on a fresh cluster all capacities
        // tie, both strategies break toward the lowest index, and every
        // small workflow's merged group lands on the first worker.
        let wf = chain(&[("a", 50 << 20), ("b", 50 << 20), ("c", 0)]);
        let dag = parse(&wf);
        let metrics = RuntimeMetrics::initial(&dag);
        for seed in 0..8 {
            let mut rng = SimRng::seed_from(seed);
            let a = legacy_scheduler()
                .partition(
                    &dag,
                    &workers(4, 64),
                    &metrics,
                    &ContentionSet::default(),
                    u64::MAX,
                    &mut rng,
                )
                .expect("partition succeeds");
            assert_eq!(a.groups.len(), 1);
            assert!(
                a.node_of.iter().all(|&w| w == NodeId::new(1)),
                "legacy merge always targets the first worker"
            );
        }
    }

    #[test]
    fn load_aware_tiebreak_avoids_hot_worker() {
        // Equal residual capacity everywhere, but workers 0 and 2 carry a
        // hot recent tail: the merged group must land on the calm worker 1.
        let wf = chain(&[("a", 50 << 20), ("b", 50 << 20), ("c", 0)]);
        let dag = parse(&wf);
        let metrics = RuntimeMetrics::initial(&dag);
        let hot = WorkerLoad {
            recent_p99_ms: 900,
            ..WorkerLoad::default()
        };
        let ws = vec![
            WorkerInfo::new(NodeId::new(1), 64).with_load(hot),
            WorkerInfo::new(NodeId::new(2), 64),
            WorkerInfo::new(NodeId::new(3), 64).with_load(hot),
        ];
        let mut rng = SimRng::seed_from(42);
        let a = GraphScheduler::default()
            .partition(
                &dag,
                &ws,
                &metrics,
                &ContentionSet::default(),
                u64::MAX,
                &mut rng,
            )
            .expect("partition succeeds");
        assert_eq!(a.groups.len(), 1);
        assert!(a.node_of.iter().all(|&w| w == NodeId::new(2)));
    }

    #[test]
    fn load_aware_respects_residual_capacity() {
        // Worker 0 reports almost no residual room (the cluster already
        // subtracted its live load); the whole chain must go elsewhere.
        let wf = chain(&[("a", 50 << 20), ("b", 50 << 20), ("c", 0)]);
        let dag = parse(&wf);
        let metrics = RuntimeMetrics::initial(&dag);
        let ws = vec![
            WorkerInfo::new(NodeId::new(1), 1).with_load(WorkerLoad {
                running: 11,
                ..WorkerLoad::default()
            }),
            WorkerInfo::new(NodeId::new(2), 64),
        ];
        let mut rng = SimRng::seed_from(42);
        let a = GraphScheduler::default()
            .partition(
                &dag,
                &ws,
                &metrics,
                &ContentionSet::default(),
                u64::MAX,
                &mut rng,
            )
            .expect("partition succeeds");
        assert_eq!(a.groups.len(), 1);
        assert!(a.node_of.iter().all(|&w| w == NodeId::new(2)));
    }

    #[test]
    fn locality_pulls_merge_toward_its_data() {
        // Only one merge is allowed. {a,b} merge along the 50MB edge; the
        // 10MB edge b→c should pull the merged group onto whichever worker
        // already hosts c, co-locating the heavy data edge.
        let wf = chain(&[("a", 50 << 20), ("b", 10 << 20), ("c", 0)]);
        let dag = parse(&wf);
        let metrics = RuntimeMetrics::initial(&dag);
        let sched = GraphScheduler::new(PartitionConfig {
            max_merges: 1,
            ..PartitionConfig::default()
        });
        for seed in 0..8 {
            let mut rng = SimRng::seed_from(seed);
            let a = sched
                .partition(
                    &dag,
                    &workers(3, 64),
                    &metrics,
                    &ContentionSet::default(),
                    u64::MAX,
                    &mut rng,
                )
                .expect("partition succeeds");
            assert_eq!(a.groups.len(), 2, "exactly one merge happened");
            let ca = a.worker_of(dag.nodes().iter().find(|n| n.name == "a").unwrap().id);
            let cb = a.worker_of(dag.nodes().iter().find(|n| n.name == "b").unwrap().id);
            let cc = a.worker_of(dag.nodes().iter().find(|n| n.name == "c").unwrap().id);
            assert_eq!(ca, cb, "a and b merged");
            assert_eq!(ca, cc, "the merged group moved onto c's worker");
        }
    }

    #[test]
    fn load_aware_partition_is_deterministic_for_a_seed() {
        let wf = chain(&[("a", 9 << 20), ("b", 3 << 20), ("c", 0)]);
        let dag = parse(&wf);
        let metrics = RuntimeMetrics::initial(&dag);
        let hot = WorkerLoad {
            queued: 3,
            running: 2,
            mem_used_bytes: 5 << 20,
            recent_p99_ms: 120,
        };
        let mk = || {
            let mut rng = SimRng::seed_from(123);
            GraphScheduler::default()
                .partition(
                    &dag,
                    &[
                        WorkerInfo::new(NodeId::new(1), 16).with_load(hot),
                        WorkerInfo::new(NodeId::new(2), 16),
                        WorkerInfo::new(NodeId::new(3), 9),
                    ],
                    &metrics,
                    &ContentionSet::default(),
                    u64::MAX,
                    &mut rng,
                )
                .expect("partition succeeds")
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn partition_is_deterministic_for_a_seed() {
        let wf = chain(&[("a", 9 << 20), ("b", 3 << 20), ("c", 0)]);
        let dag = parse(&wf);
        let metrics = RuntimeMetrics::initial(&dag);
        let mk = || {
            let mut rng = SimRng::seed_from(123);
            GraphScheduler::default()
                .partition(
                    &dag,
                    &workers(4, 16),
                    &metrics,
                    &ContentionSet::default(),
                    u64::MAX,
                    &mut rng,
                )
                .expect("partition succeeds")
        };
        assert_eq!(mk(), mk());
    }
}
