//! The benchmark's workloads: a cluster configuration plus the workflows
//! and open-loop clients registered on it, all generated from the seed.

use faasflow_core::{
    AdmissionConfig, ClientConfig, ClusterConfig, EngineCrash, EngineTarget, FaultPlan, GrayFault,
    GrayFaultKind, HealthConfig, JournalConfig, NetFault, NodeCrash, OverloadConfig,
    PlacementConfig, ScheduleMode, StorageFault, StorageFaultKind,
};
use faasflow_sim::{SimDuration, SimRng};
use faasflow_wdl::Workflow;
use faasflow_workloads::Benchmark;

/// One named workload: the same workflows and clients on several
/// independent replicas of the cluster, which differ in seed (and, where
/// the workload has one, in fault schedule). Pooling replicas averages out
/// the seed's effect on placement, so a run's figures vary less with the
/// seed than one long simulation's would.
pub struct Workload {
    pub replicas: Vec<ClusterConfig>,
    pub workflows: Vec<(Workflow, ClientConfig)>,
}

/// `n` replica seeds derived from the run's seed.
fn replica_seeds(seed: u64, n: usize) -> impl Iterator<Item = u64> {
    let mut rng = SimRng::seed_from(seed);
    (0..n).map(move |_| rng.next_u64())
}

impl Workload {
    /// Invocations one replica's clients are configured to send.
    pub fn configured_invocations(&self) -> u64 {
        self.workflows
            .iter()
            .map(|(_, c)| u64::from(c.total_invocations()))
            .sum()
    }
}

pub const NAMES: [&str; 3] = ["paper7", "fleet128", "mastersp-chaos"];

/// Builds workload `name` for `seed`, or `None` for an unknown name.
pub fn build(name: &str, seed: u64) -> Option<Workload> {
    match name {
        "paper7" => Some(paper7(seed)),
        "fleet128" => Some(fleet128(seed)),
        "mastersp-chaos" => Some(mastersp_chaos(seed)),
        _ => None,
    }
}

fn open_loop(per_minute: f64, invocations: u32) -> ClientConfig {
    ClientConfig::OpenLoop {
        per_minute,
        invocations,
    }
}

/// `copies` renamed copies of each benchmark, interleaved so that every
/// benchmark is spread over the registration order.
fn copies(
    benches: &[Benchmark],
    copies: usize,
    client: ClientConfig,
) -> Vec<(Workflow, ClientConfig)> {
    (0..copies)
        .flat_map(|c| {
            benches.iter().map(move |b| {
                let mut wf = b.workflow();
                if copies > 1 {
                    wf.name = format!("{}-{c}", b.short_name());
                }
                (wf, client)
            })
        })
        .collect()
}

/// The paper's testbed: 7 workers, 50 MB/s storage NIC, WorkerSP with
/// FaaStore and legacy placement, all eight benchmarks at 4 invocations
/// per minute each (6/min builds a backlog that times most of them out).
fn paper7(seed: u64) -> Workload {
    Workload {
        replicas: replica_seeds(seed, 10)
            .map(|seed| ClusterConfig {
                seed,
                ..ClusterConfig::default()
            })
            .collect(),
        workflows: copies(&Benchmark::ALL, 1, open_loop(4.0, 160)),
    }
}

/// The scale target: 128 workers with load-aware placement, 16 copies each
/// of WC/Vid/FP/Gen, and a 300 MB/s storage NIC (200 MB/s times a quarter
/// of the invocations out). At 4/min per workflow, concurrent invocations
/// of one workflow force bursts of extra cold starts and the p99 overhead
/// swings with the seed; 2/min keeps it steady.
fn fleet128(seed: u64) -> Workload {
    let benches = [
        Benchmark::WordCount,
        Benchmark::VideoFfmpeg,
        Benchmark::FileProcessing,
        Benchmark::Genome,
    ];
    Workload {
        replicas: replica_seeds(seed, 6)
            .map(|seed| ClusterConfig {
                seed,
                workers: 128,
                storage_bandwidth: 300e6,
                placement_config: PlacementConfig::default(),
                ..ClusterConfig::default()
            })
            .collect(),
        workflows: copies(&benches, 16, open_loop(2.0, 20)),
    }
}

/// Invocations per workflow and rate of `mastersp-chaos`.
const CHAOS_INVOCATIONS: u32 = 150;
const CHAOS_PER_MINUTE: f64 = 4.0;

/// The MasterSP baseline without FaaStore under a periodic fault schedule,
/// with journal, health detection and admission on. Two copies of the
/// real-world benchmarks; Cycles is left out because MasterSP cannot finish
/// it within the timeout at 50 MB/s.
///
/// Sized so that no invocation fails: the default health detector flags
/// MasterSP workers whose function mix differs (and its drains dead-letter
/// invocations), so it gets a wider window and a higher MAD threshold; a
/// 2 ms write-behind journal lag lets a master crash tear an `Admitted`
/// record and orphan the invocation, so appends are durable at once.
fn mastersp_chaos(seed: u64) -> Workload {
    let workers = 7;
    let horizon = f64::from(CHAOS_INVOCATIONS) / CHAOS_PER_MINUTE * 60.0;
    Workload {
        replicas: replica_seeds(seed, 16)
            .map(|seed| ClusterConfig {
                seed,
                workers,
                mode: ScheduleMode::MasterSp,
                faastore: false,
                fault: chaos_plan(seed, workers, horizon),
                journal: JournalConfig {
                    enabled: true,
                    append_overhead: SimDuration::ZERO,
                    ..JournalConfig::default()
                },
                health: Some(HealthConfig {
                    window: 64,
                    mad_threshold: 10.0,
                    ..HealthConfig::default()
                }),
                overload: OverloadConfig {
                    admission: Some(AdmissionConfig {
                        queue_capacity: 64,
                        ..AdmissionConfig::default()
                    }),
                    ..OverloadConfig::default()
                },
                ..ClusterConfig::default()
            })
            .collect(),
        workflows: copies(
            &Benchmark::REAL_WORLD,
            2,
            open_loop(CHAOS_PER_MINUTE, CHAOS_INVOCATIONS),
        ),
    }
}

/// A fault every `PERIOD` seconds of simulated time (jittered from the
/// seed) up to `horizon`, cycling through worker crash + restart, storage
/// brownout, link loss, gray slowdown and master-engine crash.
fn chaos_plan(seed: u64, workers: u32, horizon: f64) -> FaultPlan {
    const PERIOD: f64 = 40.0;
    let mut rng = SimRng::seed_from(seed ^ 0xC4A0_5EED);
    let secs = SimDuration::from_secs_f64;
    let mut plan = FaultPlan {
        max_recovery_attempts: 20,
        ..FaultPlan::default()
    };
    let mut k = 0u32;
    loop {
        let at = f64::from(k) * PERIOD + rng.range_f64(5.0, PERIOD - 15.0);
        if at >= horizon {
            break;
        }
        let worker = rng.next_below(u64::from(workers)) as u32;
        match k % 5 {
            0 => plan.node_crashes.push(NodeCrash {
                worker,
                at: secs(at),
                restart_after: Some(secs(rng.range_f64(3.0, 6.0))),
            }),
            1 => plan.storage_faults.push(StorageFault {
                at: secs(at),
                duration: secs(rng.range_f64(3.0, 6.0)),
                kind: StorageFaultKind::Brownout {
                    slowdown: rng.range_f64(2.0, 4.0),
                },
            }),
            2 => plan.net_faults.push(NetFault {
                worker,
                at: secs(at),
                duration: secs(rng.range_f64(4.0, 8.0)),
                loss: rng.range_f64(0.1, 0.3),
                latency_factor: 2.0,
                bandwidth_factor: 0.5,
            }),
            3 => plan.gray_faults.push(GrayFault {
                worker,
                at: secs(at),
                duration: secs(rng.range_f64(10.0, 20.0)),
                kind: GrayFaultKind::ExecSlowdown {
                    factor: rng.range_f64(4.0, 8.0),
                },
            }),
            _ => plan.engine_crashes.push(EngineCrash {
                target: EngineTarget::Master,
                at: secs(at),
                restart_after: secs(rng.range_f64(2.0, 4.0)),
            }),
        }
        k += 1;
    }
    plan
}
