//! Prometheus text-exposition snapshot.
//!
//! Renders a [`RunReport`] (and, when sampling was on, the *last* sample
//! of each resource series) in the Prometheus text format — the shape a
//! scrape of a real FaaSFlow cluster would return. The output is
//! deterministic: workflows come from a sorted map and nodes in id order,
//! so same-seed runs produce byte-identical snapshots.

use std::fmt::Write as _;

use faasflow_core::{EngineLoad, RunReport, WorkerLoad};
use faasflow_sim::NodeId;

fn header(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Renders the snapshot.
pub fn prometheus_snapshot(report: &RunReport) -> String {
    let mut out = String::new();

    // --- Per-workflow counters and latency summaries --------------------
    header(
        &mut out,
        "faasflow_invocations_total",
        "Invocations by terminal state.",
        "counter",
    );
    for (name, wf) in &report.workflows {
        for (state, value) in [
            ("sent", wf.sent),
            ("completed", wf.completed),
            ("timeout", wf.timeouts),
            ("dead_lettered", wf.dead_lettered),
            ("shed", wf.shed),
        ] {
            let _ = writeln!(
                out,
                "faasflow_invocations_total{{workflow=\"{name}\",state=\"{state}\"}} {value}"
            );
        }
    }
    for (metric, help, pick) in [
        (
            "faasflow_e2e_latency_ms",
            "End-to-end invocation latency.",
            0usize,
        ),
        (
            "faasflow_sched_overhead_ms",
            "Scheduling overhead (e2e minus critical-path execution).",
            1,
        ),
        (
            "faasflow_transfer_latency_ms",
            "Per-invocation total data-movement latency.",
            2,
        ),
    ] {
        header(&mut out, metric, help, "summary");
        for (name, wf) in &report.workflows {
            let s = match pick {
                0 => &wf.e2e,
                1 => &wf.sched_overhead,
                _ => &wf.transfer_total,
            };
            let _ = writeln!(out, "{metric}_sum{{workflow=\"{name}\"}} {}", s.sum);
            let _ = writeln!(out, "{metric}_count{{workflow=\"{name}\"}} {}", s.count);
            let _ = writeln!(
                out,
                "{metric}{{workflow=\"{name}\",quantile=\"0.5\"}} {}",
                s.median
            );
            let _ = writeln!(
                out,
                "{metric}{{workflow=\"{name}\",quantile=\"0.99\"}} {}",
                s.p99
            );
        }
    }
    header(
        &mut out,
        "faasflow_store_bytes_total",
        "Bytes moved, by store path.",
        "counter",
    );
    for (name, wf) in &report.workflows {
        let _ = writeln!(
            out,
            "faasflow_store_bytes_total{{workflow=\"{name}\",path=\"remote\"}} {}",
            wf.remote_bytes
        );
        let _ = writeln!(
            out,
            "faasflow_store_bytes_total{{workflow=\"{name}\",path=\"local\"}} {}",
            wf.local_bytes
        );
    }

    // --- Cluster-wide gauges and counters --------------------------------
    for (name, help, value) in [
        (
            "faasflow_sim_time_seconds",
            "Simulated time at report generation.",
            report.sim_time_secs,
        ),
        (
            "faasflow_master_busy_fraction",
            "Master engine CPU busy fraction.",
            report.master_busy_fraction,
        ),
    ] {
        header(&mut out, name, help, "gauge");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, help, value) in [
        (
            "faasflow_cold_starts_total",
            "Container cold starts.",
            report.cold_starts,
        ),
        (
            "faasflow_warm_starts_total",
            "Container warm starts.",
            report.warm_starts,
        ),
        (
            "faasflow_worker_syncs_total",
            "WorkerSP cross-worker state syncs.",
            report.worker_syncs,
        ),
        (
            "faasflow_worker_local_updates_total",
            "WorkerSP in-process state updates.",
            report.worker_local_updates,
        ),
        (
            "faasflow_master_tasks_assigned_total",
            "MasterSP task assignments.",
            report.master_tasks_assigned,
        ),
        (
            "faasflow_master_state_returns_total",
            "MasterSP state returns.",
            report.master_state_returns,
        ),
        (
            "faasflow_storage_node_bytes_total",
            "Bytes through the storage-node NIC.",
            report.storage_node_bytes,
        ),
        (
            "faasflow_faastore_local_bytes_total",
            "Bytes served from worker-local memory.",
            report.faastore_local_bytes,
        ),
        (
            "faasflow_exec_retries_total",
            "Executor attempts retried after injected failure.",
            report.exec_retries,
        ),
        (
            "faasflow_trace_events_dropped_total",
            "Trace events rejected by the capacity cap.",
            report.trace_dropped,
        ),
    ] {
        header(&mut out, name, help, "counter");
        let _ = writeln!(out, "{name} {value}");
    }
    header(
        &mut out,
        "faasflow_faults_total",
        "Fault-injection and recovery actions.",
        "counter",
    );
    let f = &report.faults;
    for (kind, value) in [
        ("worker_crashes", f.worker_crashes),
        ("worker_restarts", f.worker_restarts),
        ("lease_expiries", f.lease_expiries),
        ("crash_redispatches", f.crash_redispatches),
        ("flows_killed", f.flows_killed),
        ("storage_backoff_waits", f.storage_backoff_waits),
        ("message_retransmits", f.message_retransmits),
        ("dead_letters", f.dead_letters),
    ] {
        let _ = writeln!(out, "faasflow_faults_total{{kind=\"{kind}\"}} {value}");
    }
    header(
        &mut out,
        "faasflow_dead_letters_total",
        "Dead-lettered invocations by attributed reason.",
        "counter",
    );
    for (reason, value) in [
        ("retries_exhausted", f.dead_letter_retries_exhausted),
        ("engine_crash_orphan", f.dead_letter_crash_orphan),
        ("journal_unrecoverable", f.dead_letter_journal_unrecoverable),
        ("quarantine_orphan", f.dead_letter_quarantine_orphan),
    ] {
        let _ = writeln!(
            out,
            "faasflow_dead_letters_total{{reason=\"{reason}\"}} {value}"
        );
    }
    header(
        &mut out,
        "faasflow_recovery_total",
        "Engine crash injection and journaled recovery actions.",
        "counter",
    );
    let r = &report.recovery;
    for (kind, value) in [
        ("engine_crashes", r.engine_crashes),
        ("master_engine_crashes", r.master_engine_crashes),
        ("worker_engine_crashes", r.worker_engine_crashes),
        ("engine_recoveries", r.engine_recoveries),
        ("journal_appends", r.journal_appends),
        ("journal_lost_appends", r.journal_lost_appends),
        ("journal_replays", r.journal_replays),
        ("journal_replayed_records", r.journal_replayed_records),
        ("replay_backoffs", r.replay_backoffs),
        ("messages_lost", r.messages_lost),
        ("duplicate_suppressions", r.duplicate_suppressions),
    ] {
        let _ = writeln!(out, "faasflow_recovery_total{{kind=\"{kind}\"}} {value}");
    }
    header(
        &mut out,
        "faasflow_engine_downtime_seconds",
        "Cumulative scheduling-engine outage time.",
        "gauge",
    );
    let _ = writeln!(
        out,
        "faasflow_engine_downtime_seconds {}",
        r.engine_downtime_secs
    );
    header(
        &mut out,
        "faasflow_overload_total",
        "Overload-protection actions (admission control, breaker, hedges, backpressure).",
        "counter",
    );
    let o = &report.overload;
    for (kind, value) in [
        ("admitted", o.admitted),
        ("shed", o.shed),
        ("shed_newest", o.shed_newest),
        ("shed_oldest", o.shed_oldest),
        ("shed_deadline", o.shed_deadline),
        ("breaker_opens", o.breaker_opens),
        ("breaker_half_opens", o.breaker_half_opens),
        ("breaker_closes", o.breaker_closes),
        ("breaker_fast_fails", o.breaker_fast_fails),
        ("breaker_local_serves", o.breaker_local_serves),
        ("hedges_launched", o.hedges_launched),
        ("hedge_wins", o.hedge_wins),
        ("hedge_losses", o.hedge_losses),
        ("backpressure_deferrals", o.backpressure_deferrals),
        ("master_requeues", o.master_requeues),
    ] {
        let _ = writeln!(out, "faasflow_overload_total{{kind=\"{kind}\"}} {value}");
    }

    // --- Placement layer --------------------------------------------------
    // Only rendered when the layer acted, mirroring the report's own
    // omit-when-zero behaviour (legacy snapshots stay byte-identical).
    if !report.placement.is_zero() {
        header(
            &mut out,
            "faasflow_placement_total",
            "Load- and locality-aware placement actions.",
            "counter",
        );
        let p = &report.placement;
        for (kind, value) in [
            ("load_aware_partitions", p.load_aware_partitions),
            ("capacity_fallbacks", p.capacity_fallbacks),
            ("skew_rebalances", p.skew_rebalances),
            ("recovery_rebalances", p.recovery_rebalances),
            ("rebalanced_workflows", p.rebalanced_workflows),
        ] {
            let _ = writeln!(out, "faasflow_placement_total{{kind=\"{kind}\"}} {value}");
        }
    }

    // --- SLO burn-rate monitor --------------------------------------------
    // Only rendered when an SloConfig was set, mirroring the report's own
    // omit-when-zero behaviour (pre-SLO snapshots stay byte-identical).
    if !report.slo.is_zero() {
        header(
            &mut out,
            "faasflow_slo_total",
            "SLO evaluations, violations and alert transitions.",
            "counter",
        );
        let slo = &report.slo;
        for (kind, value) in [
            ("objectives", u64::from(slo.objectives)),
            ("evaluations", slo.evaluations),
            ("violations", slo.violations),
            ("alerts_fired", slo.alerts_fired),
            ("alerts_resolved", slo.alerts_resolved),
        ] {
            let _ = writeln!(out, "faasflow_slo_total{{kind=\"{kind}\"}} {value}");
        }
        header(
            &mut out,
            "faasflow_slo_worst_burn_rate",
            "Highest burn rate observed per sliding window.",
            "gauge",
        );
        let _ = writeln!(
            out,
            "faasflow_slo_worst_burn_rate{{window=\"fast\"}} {}",
            slo.worst_fast_burn
        );
        let _ = writeln!(
            out,
            "faasflow_slo_worst_burn_rate{{window=\"slow\"}} {}",
            slo.worst_slow_burn
        );
        if !slo.per_objective.is_empty() {
            header(
                &mut out,
                "faasflow_slo_burn_rate",
                "Final burn rate per objective and sliding window.",
                "gauge",
            );
            for o in &slo.per_objective {
                let wf = &o.workflow;
                let _ = writeln!(
                    out,
                    "faasflow_slo_burn_rate{{workflow=\"{wf}\",window=\"fast\"}} {}",
                    o.fast_burn
                );
                let _ = writeln!(
                    out,
                    "faasflow_slo_burn_rate{{workflow=\"{wf}\",window=\"slow\"}} {}",
                    o.slow_burn
                );
            }
            header(
                &mut out,
                "faasflow_slo_alert_active",
                "Whether the objective's alert was firing at report time.",
                "gauge",
            );
            for o in &slo.per_objective {
                let _ = writeln!(
                    out,
                    "faasflow_slo_alert_active{{workflow=\"{}\"}} {}",
                    o.workflow,
                    u8::from(o.alert)
                );
            }
        }
    }

    // --- SLO-driven degradation -------------------------------------------
    // Only rendered when a DegradeConfig was set, mirroring the report's
    // own omit-when-zero behaviour.
    if !report.degrade.is_zero() {
        header(
            &mut out,
            "faasflow_degrade_total",
            "Degradation state-machine actions.",
            "counter",
        );
        let d = &report.degrade;
        for (kind, value) in [
            ("workflows_tracked", u64::from(d.workflows_tracked)),
            ("throttles", d.throttles),
            ("escalations", d.escalations),
            ("tightenings", d.tightenings),
            ("recoveries", d.recoveries),
            ("relapses", d.relapses),
            ("restores", d.restores),
            ("sheds", d.sheds),
            ("probes", d.probes),
            ("probe_failures", d.probe_failures),
            ("hedges_suppressed", d.hedges_suppressed),
            ("demoted_sheds", d.demoted_sheds),
        ] {
            let _ = writeln!(out, "faasflow_degrade_total{{kind=\"{kind}\"}} {value}");
        }
        if !d.workflows.is_empty() {
            header(
                &mut out,
                "faasflow_degrade_state",
                "Final degradation level per tracked workflow \
                 (0 normal, 1 recovering, 2 throttled, 3 shedding).",
                "gauge",
            );
            for w in &d.workflows {
                let _ = writeln!(
                    out,
                    "faasflow_degrade_state{{workflow=\"{}\"}} {}",
                    w.workflow,
                    w.level.as_level()
                );
            }
            header(
                &mut out,
                "faasflow_degrade_sheds_total",
                "Arrivals refused at the degradation gate per workflow.",
                "counter",
            );
            for w in &d.workflows {
                let _ = writeln!(
                    out,
                    "faasflow_degrade_sheds_total{{workflow=\"{}\"}} {}",
                    w.workflow, w.sheds
                );
            }
        }
    }

    // --- Gray-failure detection -------------------------------------------
    // Mirrors `HealthReport`'s own omit-when-zero behaviour.
    if !report.health.is_zero() {
        header(
            &mut out,
            "faasflow_health_total",
            "Gray-failure detector actions and injection effects.",
            "counter",
        );
        let h = &report.health;
        for (kind, value) in [
            ("evaluations", h.evaluations),
            ("probations", h.probations),
            ("quarantines", h.quarantines),
            ("relapses", h.relapses),
            ("reinstatements", h.reinstatements),
            ("zombies_fenced", h.zombie_fenced),
            ("quarantine_orphans", h.quarantine_orphans),
            ("stalled_flows", h.stalled_flows),
            ("stuck_deferrals", h.stuck_deferrals),
        ] {
            let _ = writeln!(out, "faasflow_health_total{{kind=\"{kind}\"}} {value}");
        }
        if !h.workers.is_empty() {
            header(
                &mut out,
                "faasflow_worker_health",
                "Final health level per worker \
                 (0 healthy, 1 probation, 2 reinstating, 3 quarantined).",
                "gauge",
            );
            for w in &h.workers {
                let _ = writeln!(
                    out,
                    "faasflow_worker_health{{worker=\"{}\"}} {}",
                    w.worker,
                    w.level.as_level()
                );
            }
            header(
                &mut out,
                "faasflow_worker_health_detail",
                "Per-worker detector window statistics.",
                "gauge",
            );
            for w in &h.workers {
                for (gauge, value) in [
                    ("median_exec_us", w.median_exec_us as f64),
                    ("failure_rate", w.failure_rate),
                    ("quarantines", w.quarantines as f64),
                ] {
                    let _ = writeln!(
                        out,
                        "faasflow_worker_health_detail{{worker=\"{}\",gauge=\"{gauge}\"}} {value}",
                        w.worker
                    );
                }
            }
        }
    }

    // --- Last resource sample per node -----------------------------------
    if let Some(res) = &report.resources {
        header(
            &mut out,
            "faasflow_node_resource",
            "Last sampled per-node gauges.",
            "gauge",
        );
        for series in &res.nodes {
            let Some(last) = series.samples.last() else {
                continue;
            };
            let node = series.node;
            for (gauge, value) in [
                ("containers", last.containers as f64),
                ("containers_busy", last.busy as f64),
                ("queued_admissions", last.queued_admissions as f64),
                ("memstore_used_bytes", last.memstore_used_bytes as f64),
                ("memstore_budget_bytes", last.memstore_budget_bytes as f64),
                ("nic_tx_bytes_per_sec", last.nic_tx_bytes_per_sec),
                ("nic_rx_bytes_per_sec", last.nic_rx_bytes_per_sec),
            ] {
                let _ = writeln!(
                    out,
                    "faasflow_node_resource{{node=\"{node}\",gauge=\"{gauge}\"}} {value}"
                );
            }
        }
        header(
            &mut out,
            "faasflow_resource_samples_dropped_total",
            "Samples evicted from full ring buffers.",
            "counter",
        );
        let _ = writeln!(
            out,
            "faasflow_resource_samples_dropped_total {}",
            res.dropped_samples
        );
        if let Some(last) = res.cluster.last() {
            header(
                &mut out,
                "faasflow_cluster_load",
                "Last sampled cluster-wide depths.",
                "gauge",
            );
            let _ = writeln!(
                out,
                "faasflow_cluster_load{{gauge=\"pending_events\"}} {}",
                last.pending_events
            );
            let _ = writeln!(
                out,
                "faasflow_cluster_load{{gauge=\"inflight_invocations\"}} {}",
                last.inflight_invocations
            );
        }
    }
    out
}

/// Renders the live per-worker load gauges — the placement layer's input
/// signal, scraped via [`faasflow_core::Cluster::worker_load_snapshot`].
pub fn prometheus_worker_loads(loads: &[(NodeId, WorkerLoad, EngineLoad)]) -> String {
    let mut out = String::new();
    header(
        &mut out,
        "faasflow_worker_load",
        "Live per-worker load as seen by the placement layer.",
        "gauge",
    );
    for (node, load, engine) in loads {
        for (gauge, value) in [
            ("queued", u64::from(load.queued)),
            ("running", u64::from(load.running)),
            ("mem_used_bytes", load.mem_used_bytes),
            ("recent_p99_ms", u64::from(load.recent_p99_ms)),
            ("engine_live_invocations", engine.live_invocations as u64),
            ("engine_local_groups", engine.local_groups as u64),
        ] {
            let _ = writeln!(
                out,
                "faasflow_worker_load{{node=\"{node}\",gauge=\"{gauge}\"}} {value}"
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasflow_core::{ClientConfig, Cluster, ClusterConfig, ScheduleMode};
    use faasflow_sim::SimDuration;
    use faasflow_wdl::{FunctionProfile, Step, Workflow};

    fn snapshot_of_a_small_run() -> String {
        let mut cluster = Cluster::new(ClusterConfig {
            sample_every: Some(SimDuration::from_millis(20)),
            ..ClusterConfig::default()
        })
        .expect("valid config");
        cluster
            .register(
                &Workflow::steps(
                    "p",
                    Step::task("a", FunctionProfile::with_millis(30, 1 << 20)),
                ),
                ClientConfig::ClosedLoop { invocations: 3 },
            )
            .expect("registers");
        cluster.run_until_idle();
        prometheus_snapshot(&cluster.report())
    }

    #[test]
    fn exposition_is_structurally_sound() {
        let text = snapshot_of_a_small_run();
        assert!(text.contains("faasflow_invocations_total{workflow=\"p\",state=\"completed\"} 3"));
        assert!(text.contains("# TYPE faasflow_e2e_latency_ms summary"));
        assert!(text.contains("faasflow_node_resource{node=\"node"));
        // Every non-comment line is `name{labels} value` or `name value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (metric, value) = line.rsplit_once(' ').expect("metric and value");
            assert!(!metric.is_empty());
            assert!(value.parse::<f64>().is_ok(), "unparsable value: {line}");
        }
    }

    #[test]
    fn snapshot_is_deterministic() {
        assert_eq!(snapshot_of_a_small_run(), snapshot_of_a_small_run());
    }

    /// Sum of one `faasflow_worker_load` gauge over every node.
    fn gauge_sum(text: &str, gauge: &str) -> u64 {
        let label = format!("gauge=\"{gauge}\"}}");
        text.lines()
            .filter(|line| line.contains(&label))
            .map(|line| {
                let (_, value) = line.rsplit_once(' ').expect("metric and value");
                value.parse::<u64>().expect("integer gauge")
            })
            .sum()
    }

    /// The per-worker load gauges of a drained run: engines hold no live
    /// invocation, and under WorkerSP the engines' local groups add up to
    /// the groups of the current deployments (the central MasterSP engine
    /// hosts none, so every worker engine reports 0).
    #[test]
    fn worker_load_gauges_match_the_deployments() {
        for mode in [ScheduleMode::WorkerSp, ScheduleMode::MasterSp] {
            let mut cluster = Cluster::new(ClusterConfig {
                mode,
                faastore: mode == ScheduleMode::WorkerSp,
                workers: 4,
                partition_capacity: 3,
                ..ClusterConfig::default()
            })
            .expect("valid config");
            let mut ids = Vec::new();
            for name in ["x", "y"] {
                let wf = Workflow::steps(
                    name,
                    Step::sequence(vec![
                        Step::foreach("fan", FunctionProfile::with_millis(20, 1 << 20), 2),
                        Step::task("join", FunctionProfile::with_millis(10, 0)),
                    ]),
                );
                ids.push(
                    cluster
                        .register(&wf, ClientConfig::ClosedLoop { invocations: 3 })
                        .expect("registers"),
                );
            }
            cluster.run_until_idle();
            let snapshot = cluster.worker_load_snapshot();
            assert_eq!(snapshot.len(), 4);
            let text = prometheus_worker_loads(&snapshot);
            let groups: usize = ids
                .iter()
                .flat_map(|&wf| cluster.distribution(wf))
                .map(|row| row.groups)
                .sum();
            assert!(groups >= 2, "{mode:?}: {groups} groups");
            let expected = match mode {
                ScheduleMode::WorkerSp => groups,
                ScheduleMode::MasterSp => 0,
            };
            let local: usize = snapshot.iter().map(|(_, _, e)| e.local_groups).sum();
            assert_eq!(local, expected, "{mode:?}");
            assert_eq!(gauge_sum(&text, "engine_local_groups"), expected as u64);
            assert!(snapshot.iter().all(|(_, _, e)| e.live_invocations == 0));
            assert_eq!(gauge_sum(&text, "engine_live_invocations"), 0, "{mode:?}");
        }
    }
}
