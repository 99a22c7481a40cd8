//! Per-worker gray-fault and quarantine state.
//!
//! A gray failure leaves a worker alive and heartbeating while it
//! misbehaves. [`WorkerFaultState`] holds the effects open on one worker.
//! Every exec attempt the worker runs, primary or hedge, goes through the
//! same methods, so a speculative copy is exactly as gray as its host.

use faasflow_sim::{SimDuration, SimTime};

use crate::fault::GrayFaultKind;

/// The gray-fault windows open on one worker, and whether the health
/// detector holds it in quarantine.
#[derive(Debug, Clone)]
pub(crate) struct WorkerFaultState {
    /// The detector holds the worker in quarantine: it is excluded from
    /// the partition target set and from hedge candidate rings.
    pub(crate) quarantined: bool,
    /// Exec slowdown multiplier (1.0 nominally).
    slowdown: f64,
    /// Stuck-executor window end: completions inside the window defer to
    /// its closing edge.
    stuck_until: Option<SimTime>,
    /// Injected exec failure rate (0.0 nominally).
    flaky: f64,
    /// Asymmetric data-plane partition: `Some(true)` drops flows toward
    /// the worker's node, `Some(false)` drops flows from it.
    pub(crate) partition: Option<bool>,
    /// The lease was force-expired while the worker was still alive: its
    /// late completions die on the admission fences and are counted as
    /// fenced zombies.
    pub(crate) zombie: bool,
}

impl Default for WorkerFaultState {
    fn default() -> Self {
        WorkerFaultState {
            quarantined: false,
            slowdown: 1.0,
            stuck_until: None,
            flaky: 0.0,
            partition: None,
            zombie: false,
        }
    }
}

impl WorkerFaultState {
    /// Opens a window of `kind` that closes at `end`. The zombie flag is
    /// left to the caller, which knows whether the worker is alive.
    pub(crate) fn open(&mut self, kind: GrayFaultKind, end: SimTime) {
        match kind {
            GrayFaultKind::ExecSlowdown { factor } => self.slowdown = factor,
            GrayFaultKind::StuckExecutor => self.stuck_until = Some(end),
            GrayFaultKind::FlakyExec { failure_rate } => self.flaky = failure_rate,
            GrayFaultKind::AsymmetricPartition { inbound, .. } => self.partition = Some(inbound),
        }
    }

    /// Closes a window of `kind`, lifting its effect.
    pub(crate) fn close(&mut self, kind: GrayFaultKind) {
        match kind {
            GrayFaultKind::ExecSlowdown { .. } => self.slowdown = 1.0,
            GrayFaultKind::StuckExecutor => self.stuck_until = None,
            GrayFaultKind::FlakyExec { .. } => self.flaky = 0.0,
            GrayFaultKind::AsymmetricPartition { .. } => {
                self.partition = None;
                self.zombie = false;
            }
        }
    }

    /// Stretches a sampled exec time by the slowdown. The RNG draw that
    /// produced `exec` is the same with or without a window.
    pub(crate) fn stretch(&self, exec: SimDuration) -> SimDuration {
        if self.slowdown != 1.0 {
            exec.mul_f64(self.slowdown)
        } else {
            exec
        }
    }

    /// The instant a completion at `now` must defer to, when a stuck
    /// executor window is open.
    pub(crate) fn stuck_edge(&self, now: SimTime) -> Option<SimTime> {
        self.stuck_until.filter(|&end| now < end)
    }

    /// The exec failure rate on this worker: a flaky window raises the
    /// configured `base` rate, and leaves it alone outside the window.
    pub(crate) fn failure_rate(&self, base: f64) -> f64 {
        if self.flaky > 0.0 {
            base.max(self.flaky)
        } else {
            base
        }
    }

    /// A fail-stop crash supersedes any gray suspicion: the corpse is not
    /// a zombie, and the lease path owns the worker from now on.
    pub(crate) fn on_crash(&mut self) {
        self.zombie = false;
        self.quarantined = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_apply_until_their_closing_edge() {
        let mut s = WorkerFaultState::default();
        let end = SimTime::ZERO + SimDuration::from_secs(5);
        let ms = SimDuration::from_millis;
        s.open(GrayFaultKind::ExecSlowdown { factor: 4.0 }, end);
        s.open(GrayFaultKind::StuckExecutor, end);
        s.open(GrayFaultKind::FlakyExec { failure_rate: 0.5 }, end);
        assert_eq!(s.stretch(ms(10)), ms(40));
        assert_eq!(s.stuck_edge(SimTime::ZERO), Some(end));
        assert_eq!(s.stuck_edge(end), None, "the closing edge itself proceeds");
        assert_eq!(s.failure_rate(0.05), 0.5);
        assert_eq!(s.failure_rate(0.9), 0.9, "a window never lowers the rate");
        s.close(GrayFaultKind::ExecSlowdown { factor: 4.0 });
        s.close(GrayFaultKind::StuckExecutor);
        s.close(GrayFaultKind::FlakyExec { failure_rate: 0.5 });
        assert_eq!(s.stretch(ms(10)), ms(10));
        assert_eq!(s.stuck_edge(SimTime::ZERO), None);
        assert_eq!(s.failure_rate(0.05), 0.05);
    }

    #[test]
    fn partition_close_and_crash_clear_suspicion() {
        let kind = GrayFaultKind::AsymmetricPartition {
            inbound: true,
            expire_lease: true,
        };
        let mut s = WorkerFaultState::default();
        s.open(kind, SimTime::ZERO);
        s.zombie = true;
        assert_eq!(s.partition, Some(true));
        s.close(kind);
        assert_eq!((s.partition, s.zombie), (None, false));
        s.zombie = true;
        s.quarantined = true;
        s.on_crash();
        assert!(!s.zombie && !s.quarantined);
    }
}
