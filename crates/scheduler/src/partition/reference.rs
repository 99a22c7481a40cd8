//! The linear-scan reference for load-aware placement, and the
//! differential property that holds the candidate index to it.
//!
//! These O(W) scans state load-aware placement directly: every candidate
//! scored by the full preference tuple. The candidate index must pick
//! exactly what they pick. `GraphScheduler::run` takes them under
//! `Placer::Scan`, sharing everything else with the indexed path, so any
//! difference between the two runs is a difference in worker choice.

use std::cmp::Reverse;

use faasflow_wdl::WorkflowDag;

use super::{PartitionConfig, PlacementStrategy, WorkerInfo};

/// Load-aware initial placement (Algorithm 1 line 1): the least-loaded
/// feasible worker — most residual capacity, then the calmest recent tail
/// and memory pressure, then the rotated index.
pub(super) fn place_initial(
    workers: &[WorkerInfo],
    cap: &[i64],
    demand: u32,
    rot: usize,
) -> Option<usize> {
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
pub(super) fn place_merged(
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
    use faasflow_sim::{FunctionId, NodeId, SimRng};
    use faasflow_wdl::{DagParser, DagSpec, FunctionProfile, Workflow};
    use proptest::prelude::*;

    use super::super::{
        ContentionSet, GraphScheduler, PartitionConfig, PlacementConfig, PlacementStrategy, Placer,
        WorkerInfo,
    };
    use crate::error::ScheduleError;
    use crate::feedback::{RuntimeMetrics, WorkerLoad};

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
        best_fit: bool,
        threshold: u64,
        quota: u64,
        seed: u64,
    }

    fn case() -> impl Strategy<Value = Case> {
        (1usize..20, 1usize..257).prop_flat_map(|(n, w)| {
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
            (
                tasks,
                edges,
                contention,
                workers,
                any::<bool>(),
                threshold,
                quota,
                any::<u64>(),
            )
                .prop_map(
                    |(tasks, edges, contention, workers, best_fit, threshold, quota, seed)| {
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
                            best_fit,
                            threshold,
                            quota,
                            seed,
                        }
                    },
                )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The indexed load-aware partitioner and the linear-scan reference
        /// return the same `Assignment`, or the same error, and leave the
        /// RNG in the same state.
        #[test]
        fn indexed_placement_matches_the_linear_scan(c in case()) {
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
            let sched = GraphScheduler::new(PartitionConfig {
                placement: if c.best_fit {
                    PlacementStrategy::BestFit
                } else {
                    PlacementStrategy::WorstFit
                },
                placement_config: PlacementConfig {
                    locality_threshold_bytes: c.threshold,
                    ..PlacementConfig::default()
                },
                ..PartitionConfig::default()
            });
            let run = |placer| {
                let mut rng = SimRng::seed_from(c.seed);
                let result =
                    sched.run(&dag, &workers, &metrics, &contention, c.quota, &mut rng, placer);
                (result, rng.next_u64())
            };
            let (indexed, indexed_rng) = run(Placer::Indexed);
            let (scan, scan_rng) = run(Placer::Scan);
            if let Err(e) = &scan {
                prop_assert!(
                    matches!(e, ScheduleError::InsufficientCapacity { .. }),
                    "unexpected error {e:?}"
                );
            }
            prop_assert_eq!(indexed, scan);
            prop_assert_eq!(indexed_rng, scan_rng);
        }
    }
}
