//! One pass kind of the FaaSFlow benchmark on one workload.
//!
//! ```text
//! faasflow-perfbench --workload <name> --seed <n> --seconds <s> --pass untraced|traced
//! ```
//!
//! `untraced` (build without `loop-profile`) runs every replica of the
//! workload once to warm up, check the reports and read peak RSS, then
//! repeats timed passes over all replicas until `--seconds` have passed. It
//! reports medians of the host timings, rescaled by a reference kernel
//! timed between replicas, plus the report counters and the
//! `wdl`/`scheduler` layers timed from outside. `traced` (build with
//! `loop-profile`) runs every replica once with `config.trace` on and
//! reports the modelled latency distribution, the per-event handler shares
//! and the `net`/`obs` layers timed from outside on the replicas' traces.
//!
//! Both print one JSON line: `errors` (failed correctness checks),
//! `digest` (FNV-1a of the replicas' `RunReport` JSON), `sent`, `failed`,
//! `passes` and `metrics`. `run.py` combines the two and prints the result.

mod layers;
mod workload;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use faasflow_core::{Cluster, ClusterConfig, RunReport};

use workload::Workload;

/// Fewest timed untraced passes per run, however long they take.
const MIN_PASSES: usize = 5;
/// The reference kernel's time on the machine the bounds were set on (a
/// 2-vCPU Xeon VM whose speed varies by up to ±30% for tens of seconds
/// with its neighbours' load). `host_us_per_inv` and `setup_s` are
/// rescaled to the speed at which the kernel takes this long.
const REF_NOMINAL_S: f64 = 0.020;
/// Set-up-only repetitions added to the per-pass set-ups for `setup_s`.
const SETUP_REPS: usize = 20;
/// Repetitions of the outside timings of the wdl and scheduler layers.
const LAYER_REPS: usize = 15;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut pass) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--pass" => pass = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let traced = match pass.as_deref() {
        Some("untraced") => false,
        Some("traced") => true,
        _ => return Err("--pass must be untraced or traced".into()),
    };
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("faasflow-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(wl) = workload::build(&args.workload, args.seed) else {
        eprintln!(
            "faasflow-perfbench: unknown workload {:?} (expected one of {:?})",
            args.workload,
            workload::NAMES
        );
        std::process::exit(2);
    };
    let out = if args.traced {
        traced(&wl)
    } else {
        untraced(&wl, Duration::from_secs_f64(args.seconds))
    };
    println!("{}", out.to_json());
}

/// What one pass kind reports.
#[derive(Default)]
pub struct Output {
    errors: Vec<String>,
    digest: u64,
    sent: u64,
    failed: u64,
    passes: usize,
    metrics: BTreeMap<String, f64>,
}

impl Output {
    fn put(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(msg());
        }
    }

    fn to_json(&self) -> String {
        let mut errors = self.errors.clone();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v)| {
                if !v.is_finite() {
                    errors.push(format!("metric {k} is not finite: {v}"));
                }
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{k}\":{v}")
            })
            .collect();
        format!(
            "{{\"errors\":{},\"digest\":\"{:016x}\",\"sent\":{},\"failed\":{},\"passes\":{},\"metrics\":{{{}}}}}",
            serde_json::to_string(&errors).expect("strings serialize"),
            self.digest,
            self.sent,
            self.failed,
            self.passes,
            metrics.join(",")
        )
    }
}

/// One replica's set-up and run, with its host timings.
struct Replica {
    cluster: Cluster,
    report: RunReport,
    new_s: f64,
    register_s: f64,
    run_s: f64,
    report_s: f64,
}

/// Builds one replica's cluster and registers every workflow (the span
/// `setup_s` measures).
fn set_up(wl: &Workload, config: &ClusterConfig, trace: bool) -> (Cluster, f64, f64) {
    let start = Instant::now();
    let mut cluster = Cluster::new(ClusterConfig {
        trace,
        trace_capacity: if trace {
            1 << 28
        } else {
            config.trace_capacity
        },
        ..config.clone()
    })
    .expect("workload configuration is valid");
    let new_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    for (wf, client) in &wl.workflows {
        cluster.register(wf, *client).expect("workflow registers");
    }
    (cluster, new_s, start.elapsed().as_secs_f64())
}

fn run_replica(wl: &Workload, config: &ClusterConfig, trace: bool) -> Replica {
    let (mut cluster, new_s, register_s) = set_up(wl, config, trace);
    let start = Instant::now();
    cluster.run_until_idle();
    let run_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let report = cluster.report();
    let report_s = start.elapsed().as_secs_f64();
    Replica {
        cluster,
        report,
        new_s,
        register_s,
        run_s,
        report_s,
    }
}

/// Folds one report's JSON into an FNV-1a 64 digest: equal digests mean
/// bit-identical simulations.
fn digest(hash: u64, report: &RunReport) -> u64 {
    let json = serde_json::to_string(report).expect("report serializes");
    json.bytes().fold(hash, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn sent(report: &RunReport) -> u64 {
    report.workflows.values().map(|r| r.sent).sum()
}

/// Conservation and completeness checks on one report.
fn check_report(out: &mut Output, wl: &Workload, report: &RunReport) {
    let mut sent = 0;
    for (wf, client) in &wl.workflows {
        let Some(r) = report.workflows.get(&wf.name) else {
            out.errors
                .push(format!("{}: missing from the report", wf.name));
            continue;
        };
        sent += r.sent;
        out.check(r.sent == u64::from(client.total_invocations()), || {
            format!(
                "{}: sent {} of {}",
                wf.name,
                r.sent,
                client.total_invocations()
            )
        });
        out.check(r.sent == r.completed + r.dead_lettered + r.shed, || {
            format!(
                "{}: sent {} != completed {} + dead-lettered {} + shed {}",
                wf.name, r.sent, r.completed, r.dead_lettered, r.shed
            )
        });
    }
    out.check(sent == wl.configured_invocations(), || {
        format!("sent {sent} of {}", wl.configured_invocations())
    });
    out.check(report.live_invocation_states == 0, || {
        format!("{} invocation states leaked", report.live_invocation_states)
    });
}

/// Invocations that timed out, were dead-lettered or were shed.
fn failures(report: &RunReport) -> u64 {
    report
        .workflows
        .values()
        .map(|r| r.timeouts + r.dead_lettered + r.shed)
        .sum()
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&mut items.iter().map(f).collect::<Vec<_>>())
}

/// Peak resident set of this process (VmHWM), in KiB.
fn peak_rss_kb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Host timings of one untraced pass, summed over its replicas.
#[derive(Default)]
struct PassTimes {
    /// Reference-kernel runs interleaved with the replicas, and their time.
    refs: usize,
    ref_s: f64,
    /// Set-up and run times rescaled to the reference speed.
    scaled_setup_s: f64,
    scaled_run_s: f64,
    new_s: f64,
    register_s: f64,
    run_s: f64,
    report_s: f64,
    events: u64,
    partition_s: f64,
    partition_runs: u32,
}

/// Runs every replica once, untraced. With `refs`, times the reference
/// kernel before the first replica and after each one, and rescales each
/// replica's set-up and run times by the mean of the two kernel times
/// around it. Each replica is dropped before the next is built, so peak
/// RSS is one replica's high-water mark.
fn untraced_pass(wl: &Workload, refs: bool) -> (PassTimes, u64, Vec<RunReport>) {
    let mut t = PassTimes::default();
    let mut hash = FNV_OFFSET;
    let mut reports = Vec::with_capacity(wl.replicas.len());
    let mut before = if refs { reference_kernel() } else { 0.0 };
    for config in &wl.replicas {
        let r = run_replica(wl, config, false);
        if refs {
            let after = reference_kernel();
            let scale = 2.0 * REF_NOMINAL_S / (before + after);
            t.scaled_setup_s += (r.new_s + r.register_s) * scale;
            t.scaled_run_s += r.run_s * scale;
            t.refs += 1;
            t.ref_s += after;
            before = after;
        }
        t.new_s += r.new_s;
        t.register_s += r.register_s;
        t.run_s += r.run_s;
        t.report_s += r.report_s;
        t.events += r.cluster.loop_profile().events_processed;
        let (partition_s, partition_runs) = r.cluster.partition_wall_time();
        t.partition_s += partition_s;
        t.partition_runs += partition_runs;
        hash = digest(hash, &r.report);
        reports.push(r.report);
    }
    (t, hash, reports)
}

fn untraced(wl: &Workload, budget: Duration) -> Output {
    let mut out = Output::default();
    // The warm-up pass fills caches and gives the reports that are checked
    // and counted, and the peak RSS, before the reference kernel's buffer
    // can raise VmHWM. It is not timed.
    let (warm_up, warm_digest, reports) = untraced_pass(wl, false);
    out.digest = warm_digest;
    for r in &reports {
        check_report(&mut out, wl, r);
        out.sent += sent(r);
        out.failed += failures(r);
    }
    let rss_kb = peak_rss_kb();
    out.check(rss_kb.is_some(), || "VmHWM unavailable".into());
    let rss_kb = rss_kb.unwrap_or(0.0);
    // The kernel's first run is slower than the rest (fresh pages).
    reference_kernel();

    let start = Instant::now();
    let mut passes: Vec<PassTimes> = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed() < budget {
        let (t, hash, pass_reports) = untraced_pass(wl, true);
        for r in &pass_reports {
            out.sent += sent(r);
            out.failed += failures(r);
        }
        let n = passes.len() + 1;
        out.check(hash == warm_digest, || {
            format!("pass {n} digest {hash:016x} differs from {warm_digest:016x}")
        });
        out.check(t.events == warm_up.events, || {
            format!("pass {n} dispatched a different number of events")
        });
        passes.push(t);
    }
    out.passes = passes.len();

    let mut setups: Vec<f64> = passes.iter().map(|p| p.scaled_setup_s).collect();
    for _ in 0..SETUP_REPS {
        let scale = REF_NOMINAL_S / reference_kernel();
        let mut s = 0.0;
        for config in &wl.replicas {
            let (cluster, new_s, register_s) = set_up(wl, config, false);
            drop(black_box(cluster));
            s += new_s + register_s;
        }
        setups.push(s * scale);
    }

    let sent = reports.iter().map(sent).sum::<u64>() as f64;
    let failed = reports.iter().map(failures).sum::<u64>() as f64;
    let events = warm_up.events as f64;
    let run_s = median_of(&passes, |p| p.run_s);
    out.put("setup_s", median(&mut setups));
    out.put(
        "host_us_per_inv",
        median_of(&passes, |p| p.scaled_run_s) / sent * 1e6,
    );
    out.put("peak_rss_mb", rss_kb / 1024.0);
    out.put("ok_share", (sent - failed) / sent);

    out.put("sim.events", events);
    out.put("sim.events_per_inv", events / sent);
    out.put("sim.ns_per_event", run_s / events * 1e9);
    out.put("core.new_s", median_of(&passes, |p| p.new_s));
    out.put("core.register_s", median_of(&passes, |p| p.register_s));
    out.put("core.run_s", run_s);
    out.put("core.report_s", median_of(&passes, |p| p.report_s));
    out.put(
        "host.ref_s",
        median_of(&passes, |p| p.ref_s / p.refs as f64),
    );
    out.put(
        "core.rss_kb_per_inv",
        rss_kb / (sent / wl.replicas.len() as f64),
    );
    out.put(
        "scheduler.partition_runs",
        f64::from(warm_up.partition_runs),
    );
    out.put(
        "scheduler.partition_in_run_s",
        median_of(&passes, |p| p.partition_s),
    );
    layers::wdl_and_scheduler(&mut out, wl, LAYER_REPS);
    layers::report_counters(&mut out, &reports);
    out
}

fn traced(wl: &Workload) -> Output {
    let mut out = Output::default();
    let mut acc = layers::Traced::default();
    out.digest = FNV_OFFSET;
    out.passes = 1;
    for (i, config) in wl.replicas.iter().enumerate() {
        let mut r = run_replica(wl, config, true);
        check_report(&mut out, wl, &r.report);
        out.check(r.report.trace_dropped == 0, || {
            format!("{} trace events dropped", r.report.trace_dropped)
        });
        out.digest = digest(out.digest, &r.report);
        out.sent += sent(&r.report);
        out.failed += failures(&r.report);
        acc.run_s += r.run_s;
        acc.add_profile(&r.cluster.loop_profile());
        let events = r.cluster.take_trace();
        acc.add_overhead(&mut out, &events, |wf| r.cluster.critical_exec(wf));
        acc.add_obs(&mut out, &events, &r.report, i == 0);
        acc.add_net_replay(&mut out, &events, config);
    }
    acc.finish(&mut out);
    out
}

/// A fixed, program-independent workload with the simulator's memory
/// behaviour (random access over 16 MiB, a binary heap of timed events, a
/// churning hash map). Host times measured between two of its runs are
/// rescaled by its speed, which cancels most of the machine's speed drift:
/// over six seeds of `paper7` on a loaded VM, the spread of
/// `host_us_per_inv` was 2% while that of the raw run time was 19%.
fn reference_kernel() -> f64 {
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};
    const SLOTS: usize = 1 << 21;
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut slots = vec![0u64; SLOTS];
    let mut heap = BinaryHeap::new();
    let mut map: HashMap<u64, u64> = HashMap::new();
    let mut acc = 0u64;
    for i in 0..60_000u64 {
        let a = next() as usize % SLOTS;
        slots[a] = slots[a].wrapping_add(i);
        acc = acc.wrapping_add(slots[next() as usize % SLOTS]);
        heap.push(Reverse((next() % 1_000_000, i)));
        if i % 3 != 0 {
            if let Some(Reverse((t, id))) = heap.pop() {
                acc = acc.wrapping_add(t ^ id);
            }
        }
        map.insert(next() % 100_000, i);
        if let Some(v) = map.remove(&(next() % 100_000)) {
            acc = acc.wrapping_add(v);
        }
    }
    black_box((acc, &slots));
    start.elapsed().as_secs_f64()
}
