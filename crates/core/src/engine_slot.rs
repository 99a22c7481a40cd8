//! Per-engine crash/recovery state.
//!
//! WorkerSP runs a scheduling engine on every worker and MasterSP one
//! central engine, but all of them follow one protocol: crash, restart
//! with journal replay (backing off while the journal store is dark),
//! reconcile with cluster-visible progress, resume under a new generation.
//! [`EngineSlot`] is the state that protocol needs for one engine, so the
//! cluster drives every engine through the same code path.

use faasflow_sim::{SimDuration, SimTime};

use crate::fault::EngineTarget;
use crate::journal::{Journal, JournalConfig};

/// Crash/recovery state of one engine: the central MasterSP engine or
/// one worker's engine.
#[derive(Debug)]
pub(crate) struct EngineSlot {
    /// False between a crash and the end of recovery. Messages reaching a
    /// down engine are lost.
    pub(crate) down: bool,
    /// Bumped at each completed recovery; stale stamps fence pre-recovery
    /// messages.
    pub(crate) gen: u64,
    /// Bumped at each crash; fences restart/recovery chains orphaned by a
    /// second crash mid-recovery.
    pub(crate) era: u32,
    /// Instant the engine went down (downtime accounting).
    pub(crate) down_since: SimTime,
    /// The restart gave up reading the journal back during this outage
    /// (cleared when the next outage begins).
    pub(crate) journal_unreadable: bool,
    /// The engine's write-ahead journal. The central engine's also
    /// witnesses gateway-side admissions and terminal outcomes in both
    /// modes.
    pub(crate) journal: Journal,
}

impl EngineSlot {
    pub(crate) fn new(journal: JournalConfig) -> Self {
        EngineSlot {
            down: false,
            gen: 0,
            era: 0,
            down_since: SimTime::ZERO,
            journal_unreadable: false,
            journal: Journal::new(journal),
        }
    }

    /// The fence every message to the engine passes: it dies if the engine
    /// is down or, when generation-stamped, predates the last recovery.
    pub(crate) fn fences(&self, gen: Option<u64>) -> bool {
        self.down || gen.is_some_and(|g| g != self.gen)
    }

    /// Recovery can replay the journal.
    pub(crate) fn readable(&self) -> bool {
        self.journal.enabled() && !self.journal_unreadable
    }

    /// Durable records a replay reads back (none when journal-blind).
    pub(crate) fn replayed_len(&self) -> u64 {
        if self.readable() {
            self.journal.durable_len() as u64
        } else {
            0
        }
    }

    /// The engine process dies: in-flight journal appends that never
    /// became durable are torn. Returns the new era.
    pub(crate) fn crash(&mut self, now: SimTime) -> u32 {
        self.down = true;
        self.down_since = now;
        self.era += 1;
        self.journal_unreadable = false;
        let _torn = self.journal.crash(now);
        self.era
    }

    /// The engine is back up under a bumped generation, so messages sent
    /// to the previous incarnation are fenced. Returns the outage's length.
    pub(crate) fn revive(&mut self, now: SimTime) -> SimDuration {
        self.down = false;
        self.gen += 1;
        now - self.down_since
    }

    /// The engine's host node dies under it: appends tear, and a pending
    /// restart chain (if the engine was already down) is fenced — the node
    /// restart, if any, brings the engine back.
    pub(crate) fn host_crash(&mut self, now: SimTime) {
        let _torn = self.journal.crash(now);
        if self.down {
            self.era += 1;
        }
    }
}

impl EngineTarget {
    /// Index into `Cluster::engine_slots`: the central engine, then the
    /// workers in order.
    pub(crate) fn slot(self) -> usize {
        match self {
            EngineTarget::Master => 0,
            EngineTarget::Worker(w) => w as usize + 1,
        }
    }

    pub(crate) fn worker(w: usize) -> Self {
        EngineTarget::Worker(w as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JournalRecord;
    use faasflow_sim::{InvocationId, WorkflowId};

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn journaled() -> EngineSlot {
        EngineSlot::new(JournalConfig {
            enabled: true,
            ..JournalConfig::default()
        })
    }

    #[test]
    fn fence_drops_messages_to_a_down_engine_or_a_stale_generation() {
        let mut slot = journaled();
        assert!(!slot.fences(None));
        assert!(!slot.fences(Some(0)));
        slot.crash(at(1));
        assert!(slot.fences(None), "down engine hears nothing");
        assert_eq!(slot.revive(at(4)), SimDuration::from_millis(3));
        assert!(!slot.fences(None));
        assert!(slot.fences(Some(0)), "pre-recovery stamp is stale");
        assert!(!slot.fences(Some(1)));
    }

    #[test]
    fn each_crash_opens_a_new_era_and_clears_journal_blindness() {
        let mut slot = journaled();
        slot.journal_unreadable = true;
        assert_eq!(slot.crash(at(5)), 1);
        assert_eq!(slot.down_since, at(5));
        assert!(!slot.journal_unreadable);
        assert!(slot.readable());
    }

    #[test]
    fn host_crash_fences_a_pending_restart_only_while_down() {
        let mut slot = journaled();
        slot.host_crash(at(1));
        assert_eq!(slot.era, 0, "an up engine has no restart chain to fence");
        let era = slot.crash(at(2));
        slot.host_crash(at(3));
        assert_ne!(slot.era, era);
    }

    #[test]
    fn a_journal_blind_restart_replays_nothing() {
        let mut slot = journaled();
        slot.journal.append(
            at(0),
            1.0,
            JournalRecord::Admitted {
                workflow: WorkflowId::new(0),
                invocation: InvocationId::new(0),
            },
        );
        assert_eq!(slot.replayed_len(), 1);
        slot.journal_unreadable = true;
        assert_eq!(slot.replayed_len(), 0);
        assert_eq!(EngineSlot::new(JournalConfig::default()).replayed_len(), 0);
    }
}
