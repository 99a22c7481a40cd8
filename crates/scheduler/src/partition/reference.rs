//! The reference partitioner, and the differential properties that hold
//! the production one to it.
//!
//! [`run`] is Algorithm 1 stated directly: a full critical-path pass per
//! merge iteration, group demands summed member by member on every tried
//! edge, and every placement answered by an O(W) scan that scores each
//! worker by the full preference tuple. The production
//! [`GraphScheduler::partition`](super::GraphScheduler::partition) keeps
//! longest paths, demands and the candidate index incrementally; it must
//! return exactly what this returns — the same `Assignment` or error, and
//! the same RNG draws — in both placement modes.

use std::cmp::Reverse;

use faasflow_sim::{FunctionId, GroupId, NodeId, SimRng};
use faasflow_wdl::{EdgeId, WorkflowDag};

use super::{Assignment, ContentionSet, Group, PartitionConfig, PlacementStrategy, WorkerInfo};
use crate::error::ScheduleError;
use crate::feedback::RuntimeMetrics;

/// Algorithm 1 by full recomputation and linear scans.
pub(super) fn run(
    config: &PartitionConfig,
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
    let load_aware = config.placement_config.enabled;
    let rot = if load_aware {
        (rng.next_u64() % workers.len() as u64) as usize
    } else {
        0
    };

    let n = dag.node_count();
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

    // Line 1: singleton groups on random (legacy) or least-loaded workers.
    let mut cap: Vec<i64> = workers.iter().map(|w| i64::from(w.capacity)).collect();
    let mut group_of: Vec<usize> = (0..n).collect();
    let mut members: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    let mut worker_of_group: Vec<usize> = Vec::with_capacity(n);
    for &node_demand in &demand {
        let need = i64::from(node_demand);
        let w = if load_aware {
            place_initial(workers, &cap, node_demand, rot)
        } else {
            let feasible: Vec<usize> = (0..workers.len()).filter(|&w| cap[w] >= need).collect();
            rng.pick(&feasible).copied()
        }
        .ok_or_else(|| ScheduleError::InsufficientCapacity {
            required: node_demand,
            largest_free: cap.iter().copied().max().unwrap_or(0).max(0) as u32,
        })?;
        cap[w] -= need;
        worker_of_group.push(w);
    }

    // Line 2.
    let mut storage_local = vec![false; n];
    let mut mem_consume: u64 = 0;
    let group_demand = |members: &[usize]| -> u32 { members.iter().map(|&m| demand[m]).sum() };

    // Lines 3–26.
    let mut merges = 0;
    loop {
        if merges >= config.max_merges {
            break;
        }
        // Line 4: critical path under effective weights.
        let local_w = config.local_edge_weight;
        let (_, cpath_edges) = dag.critical_path_with(|e| {
            if group_of[e.from.index()] == group_of[e.to.index()] {
                local_w.min(e.weight)
            } else {
                e.weight
            }
        });
        // Line 5: descending weight.
        let mut edges: Vec<EdgeId> = cpath_edges;
        edges.sort_by_key(|&e| Reverse(dag.edge(e).weight));

        let mut merged = false;
        for eid in edges {
            let e = dag.edge(eid);
            let (fs, fe) = (e.from.index(), e.to.index());
            let (gs, ge) = (group_of[fs], group_of[fe]);
            if gs == ge {
                continue; // line 9
            }
            // Lines 10–12: capacity feasibility.
            let n_start = i64::from(group_demand(&members[gs]));
            let n_end = i64::from(group_demand(&members[ge]));
            let need = n_start + n_end;
            let (ws, we) = (worker_of_group[gs], worker_of_group[ge]);
            let freed = |w: usize| {
                let mut free = cap[w];
                if w == ws {
                    free += n_start;
                }
                if w == we {
                    free += n_end;
                }
                free
            };
            if !(0..workers.len()).any(|w| freed(w) >= need) {
                continue;
            }
            // Lines 13–18: in-memory quota, charged on real producers only.
            if dag.node(e.from).kind.is_function() && !storage_local[fs] {
                if mem_consume.saturating_add(e.bytes) > quota {
                    continue;
                }
                mem_consume += e.bytes;
                storage_local[fs] = true;
            }
            // Lines 19–20: contention pairs must not be co-grouped.
            let conflict = members[gs].iter().any(|&a| {
                members[ge]
                    .iter()
                    .any(|&b| contention.conflicts(FunctionId::from(a), FunctionId::from(b)))
            });
            if conflict {
                continue;
            }
            // Line 21: bin-pack the merged group onto a worker.
            cap[ws] += n_start;
            cap[we] += n_end;
            let target = if load_aware {
                place_merged(
                    config,
                    dag,
                    workers,
                    &cap,
                    &group_of,
                    &worker_of_group,
                    gs,
                    ge,
                    need,
                    rot,
                )
            } else {
                let candidates = (0..workers.len()).filter(|&w| cap[w] >= need);
                match config.placement {
                    PlacementStrategy::BestFit => candidates.min_by_key(|&w| (cap[w], w)),
                    PlacementStrategy::WorstFit => candidates.max_by_key(|&w| (cap[w], Reverse(w))),
                }
            }
            .expect("a worker fits the merged group");
            cap[target] -= need;
            // Lines 22–24: merge ge into gs.
            let moved = std::mem::take(&mut members[ge]);
            for &m in &moved {
                group_of[m] = gs;
            }
            members[gs].extend(moved);
            worker_of_group[gs] = target;
            merges += 1;
            merged = true;
            break;
        }
        if !merged {
            break; // line 26
        }
    }

    let mut groups = Vec::new();
    let mut group_ids = vec![GroupId::new(0); n];
    let mut node_of = vec![NodeId::new(0); n];
    for g in 0..n {
        if members[g].is_empty() {
            continue;
        }
        let gid = GroupId::new(groups.len() as u32);
        let mut ms = members[g].clone();
        ms.sort_unstable();
        let worker = workers[worker_of_group[g]].node;
        for &m in &ms {
            group_ids[m] = gid;
            node_of[m] = worker;
        }
        groups.push(Group {
            id: gid,
            members: ms.iter().map(|&m| FunctionId::from(m)).collect(),
            worker,
            capacity_needed: group_demand(&members[g]),
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

/// Load-aware initial placement (Algorithm 1 line 1): the least-loaded
/// feasible worker — most residual capacity, then the calmest recent tail
/// and memory pressure, then the rotated index.
fn place_initial(workers: &[WorkerInfo], cap: &[i64], demand: u32, rot: usize) -> Option<usize> {
    let n = cap.len();
    (0..n)
        .filter(|&w| cap[w] >= i64::from(demand))
        .max_by_key(|&w| {
            let l = workers[w].load;
            (
                cap[w],
                Reverse(l.recent_p99_ms),
                Reverse(l.mem_used_bytes),
                Reverse((w + n - rot) % n),
            )
        })
}

/// Load- and locality-aware merged-group placement (Algorithm 1 line 21),
/// scoring every worker.
#[allow(clippy::too_many_arguments)]
fn place_merged(
    config: &PartitionConfig,
    dag: &WorkflowDag,
    workers: &[WorkerInfo],
    cap: &[i64],
    group_of: &[usize],
    worker_of_group: &[usize],
    gs: usize,
    ge: usize,
    need: i64,
    rot: usize,
) -> Option<usize> {
    let n = workers.len();
    let mut affinity = vec![0u64; n];
    for d in dag.data_edges() {
        let p = d.producer.index();
        let c = d.consumer.index();
        let p_in = group_of[p] == gs || group_of[p] == ge;
        let c_in = group_of[c] == gs || group_of[c] == ge;
        if p_in != c_in {
            let outside = if p_in { c } else { p };
            affinity[worker_of_group[group_of[outside]]] += d.bytes;
        }
    }
    let threshold = config.placement_config.locality_threshold_bytes;
    let aff = |w: usize| {
        if affinity[w] >= threshold {
            affinity[w]
        } else {
            0
        }
    };
    let candidates = (0..n).filter(|&w| cap[w] >= need);
    match config.placement {
        PlacementStrategy::BestFit => candidates.max_by_key(|&w| {
            let l = workers[w].load;
            (
                aff(w),
                Reverse(cap[w]),
                Reverse(l.recent_p99_ms),
                Reverse(l.mem_used_bytes),
                Reverse((w + n - rot) % n),
            )
        }),
        PlacementStrategy::WorstFit => candidates.max_by_key(|&w| {
            let l = workers[w].load;
            (
                aff(w),
                cap[w],
                Reverse(l.recent_p99_ms),
                Reverse(l.mem_used_bytes),
                Reverse((w + n - rot) % n),
            )
        }),
    }
}

mod tests {
    use faasflow_sim::{FunctionId, NodeId, SimDuration, SimRng};
    use faasflow_wdl::{DagParser, DagSpec, EdgeId, FunctionProfile, Workflow, WorkflowDag};
    use faasflow_workloads::scientific;
    use proptest::prelude::*;

    use super::super::{
        ContentionSet, GraphScheduler, PartitionConfig, PlacementConfig, PlacementStrategy,
        WorkerInfo,
    };
    use crate::error::ScheduleError;
    use crate::feedback::{RuntimeMetrics, WorkerLoad};

    /// Partitions with the production scheduler and with [`super::run`]
    /// from the same seed; asserts the same `Assignment` or error and the
    /// same next RNG draw.
    fn check(
        config: PartitionConfig,
        dag: &WorkflowDag,
        workers: &[WorkerInfo],
        metrics: &RuntimeMetrics,
        contention: &ContentionSet,
        quota: u64,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let mut rng = SimRng::seed_from(seed);
        let fast = GraphScheduler::new(config)
            .partition(dag, workers, metrics, contention, quota, &mut rng);
        let fast_rng = rng.next_u64();
        let mut rng = SimRng::seed_from(seed);
        let reference = super::run(&config, dag, workers, metrics, contention, quota, &mut rng);
        let reference_rng = rng.next_u64();
        if let Err(e) = &reference {
            prop_assert!(
                matches!(e, ScheduleError::InsufficientCapacity { .. }),
                "unexpected error {e:?}"
            );
        }
        prop_assert_eq!(fast, reference);
        prop_assert_eq!(fast_rng, reference_rng);
        Ok(())
    }

    fn config(load_aware: bool, best_fit: bool, threshold: u64) -> PartitionConfig {
        PartitionConfig {
            placement: if best_fit {
                PlacementStrategy::BestFit
            } else {
                PlacementStrategy::WorstFit
            },
            placement_config: PlacementConfig {
                enabled: load_aware,
                locality_threshold_bytes: threshold,
                ..PlacementConfig::default()
            },
            ..PartitionConfig::default()
        }
    }

    #[derive(Debug, Clone)]
    struct Case {
        /// (exec ms, output bytes, scale) per task.
        tasks: Vec<(u64, u64, f64)>,
        /// Forward edges by task index.
        edges: Vec<(usize, usize)>,
        contention: Vec<(usize, usize)>,
        /// (capacity, recent p99, resident memory) per worker, drawn from
        /// small sets so ties on every field are common.
        workers: Vec<(u32, u32, u64)>,
        load_aware: bool,
        best_fit: bool,
        threshold: u64,
        quota: u64,
        /// Local edge weight in µs; near the edge weights so some edges
        /// get cheaper when localised and some do not.
        local_us: u64,
        max_merges: u32,
        seed: u64,
    }

    fn case() -> impl Strategy<Value = Case> {
        (1usize..120, 1usize..257).prop_flat_map(|(n, w)| {
            let tasks = proptest::collection::vec(
                (
                    1u64..200,
                    prop_oneof![Just(0u64), 0u64..(8 << 20), Just(1 << 20)],
                    prop_oneof![Just(1.0f64), Just(1.0), Just(1.0), 1.0f64..4.0],
                ),
                n,
            );
            let edges = proptest::collection::vec((0..n, 0..n), 0..(n * 2));
            let contention = proptest::collection::vec((0..n, 0..n), 0..4);
            let workers = proptest::collection::vec(
                (
                    prop_oneof![Just(0u32), Just(1), Just(4), 0u32..12, Just(64)],
                    prop_oneof![Just(0u32), Just(100), 0u32..300],
                    prop_oneof![Just(0u64), Just(1 << 20), 0u64..(4 << 20)],
                ),
                w,
            );
            // 1 MiB is also a common output size, so affinity often lands
            // exactly on the threshold.
            let threshold = prop_oneof![Just(0u64), Just(64 << 10), Just(1 << 20), 0u64..(4 << 20)];
            let quota = prop_oneof![Just(0u64), Just(u64::MAX), 0u64..(32 << 20)];
            let local_us = prop_oneof![Just(200u64), Just(0), 0u64..80_000];
            let max_merges = prop_oneof![Just(100_000u32), 0u32..8];
            (
                (tasks, edges, contention, workers),
                (any::<bool>(), any::<bool>(), threshold, quota),
                (local_us, max_merges, any::<u64>()),
            )
                .prop_map(
                    |(
                        (tasks, edges, contention, workers),
                        (load_aware, best_fit, threshold, quota),
                        (local_us, max_merges, seed),
                    )| {
                        let mut edges: Vec<(usize, usize)> = edges
                            .into_iter()
                            .filter(|&(a, b)| a != b)
                            .map(|(a, b)| (a.min(b), a.max(b)))
                            .collect();
                        edges.sort_unstable();
                        edges.dedup();
                        Case {
                            tasks,
                            edges,
                            contention,
                            workers,
                            load_aware,
                            best_fit,
                            threshold,
                            quota,
                            local_us,
                            max_merges,
                            seed,
                        }
                    },
                )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The production partitioner — incremental longest paths, running
        /// group demands, the candidate index — and the reference return
        /// the same `Assignment`, or the same error, and leave the RNG in
        /// the same state, in legacy and load-aware mode alike.
        #[test]
        fn partition_matches_the_reference(c in case()) {
            let mut spec = DagSpec::new();
            for (i, &(ms, out, _)) in c.tasks.iter().enumerate() {
                spec.task(format!("t{i}"), FunctionProfile::with_millis(ms, out));
            }
            for &(a, b) in &c.edges {
                spec.edge(format!("t{a}"), format!("t{b}"));
            }
            let Ok(dag) = DagParser::default().parse(&Workflow::dag("diff", spec)) else {
                return Ok(());
            };
            let mut metrics = RuntimeMetrics::initial(&dag);
            for (i, &(_, _, scale)) in c.tasks.iter().enumerate() {
                if let Some(node) = dag.nodes().iter().find(|n| n.name == format!("t{i}")) {
                    metrics.scale[node.id.index()] = scale;
                }
            }
            let mut contention = ContentionSet::new();
            for &(a, b) in &c.contention {
                if a != b && a < dag.node_count() && b < dag.node_count() {
                    contention.declare(FunctionId::from(a), FunctionId::from(b));
                }
            }
            let workers: Vec<WorkerInfo> = c
                .workers
                .iter()
                .enumerate()
                .map(|(i, &(capacity, p99, mem))| {
                    WorkerInfo::new(NodeId::new(i as u32 + 1), capacity).with_load(WorkerLoad {
                        recent_p99_ms: p99,
                        mem_used_bytes: mem,
                        ..WorkerLoad::default()
                    })
                })
                .collect();
            let config = PartitionConfig {
                local_edge_weight: SimDuration::from_micros(c.local_us),
                max_merges: c.max_merges,
                ..config(c.load_aware, c.best_fit, c.threshold)
            };
            check(config, &dag, &workers, &metrics, &contention, c.quota, c.seed)?;
        }
    }

    /// The corpus DAGs the simulator partitions most, on the paper's 7
    /// workers and at fleet scale, under random loads, scales, observed
    /// edge weights and quotas, in every placement mode.
    #[test]
    fn corpus_partitions_match_the_reference() {
        let corpus = [
            scientific::genome(50),
            scientific::genome(200),
            scientific::cycles(),
            scientific::epigenomics(),
            scientific::soykb(),
        ];
        let mut rng = SimRng::seed_from(17);
        for wf in &corpus {
            let parsed = DagParser::default().parse(wf).expect("corpus DAG parses");
            for workers in [7u32, 128, 512] {
                for round in 0..4 {
                    let mut dag = parsed.clone();
                    // Feedback replaces edge weights with observed
                    // latencies: some fall below the local edge weight,
                    // and repeated values make ties.
                    for i in 0..dag.edges().len() {
                        if rng.next_below(3) == 0 {
                            let us = [0, 150, 200, 5_000, 5_000, rng.next_below(400_000)]
                                [rng.next_below(6) as usize];
                            dag.set_edge_weight(
                                EdgeId::from_index(i),
                                SimDuration::from_micros(us),
                            );
                        }
                    }
                    let mut metrics = RuntimeMetrics::initial(&dag);
                    for s in &mut metrics.scale {
                        if rng.next_below(4) == 0 {
                            *s = 1.0 + rng.next_below(300) as f64 / 100.0;
                        }
                    }
                    let ws: Vec<WorkerInfo> = (0..workers)
                        .map(|i| {
                            let capacity = [2, 8, 16, 64][rng.next_below(4) as usize];
                            WorkerInfo::new(NodeId::new(i + 1), capacity).with_load(WorkerLoad {
                                recent_p99_ms: [0, 0, 100, rng.next_below(400) as u32]
                                    [rng.next_below(4) as usize],
                                mem_used_bytes: [0, 1 << 20, rng.next_below(8 << 20)]
                                    [rng.next_below(3) as usize],
                                ..WorkerLoad::default()
                            })
                        })
                        .collect();
                    let quota = [u64::MAX, 0, rng.next_below(64 << 20)][round % 3];
                    let mut contention = ContentionSet::new();
                    if round == 3 {
                        for _ in 0..4 {
                            let n = dag.node_count() as u64;
                            let (a, b) = (rng.next_below(n), rng.next_below(n));
                            if a != b {
                                contention.declare(
                                    FunctionId::from(a as usize),
                                    FunctionId::from(b as usize),
                                );
                            }
                        }
                    }
                    for load_aware in [false, true] {
                        for best_fit in [false, true] {
                            let config = config(load_aware, best_fit, 64 << 10);
                            let seed = rng.next_u64();
                            check(config, &dag, &ws, &metrics, &contention, quota, seed)
                                .unwrap_or_else(|e| {
                                    panic!("{} on {workers} workers, round {round}: {e}", wf.name)
                                });
                        }
                    }
                }
            }
        }
    }
}
