//! Stage watchdogs: per-stage progress deadlines enforced by a monitor
//! thread over the world abort flag.
//!
//! Every node heartbeats at each CPI boundary, and a source node also
//! while it waits for credit (see [`crate::runner`]). A monitor thread checks
//! each live rank's time-since-last-beat against its stage's deadline;
//! the first expiry records the stage and raises the abort flag, which
//! unblocks every receive in the world. The runner then surfaces
//! [`crate::error::PipelineError::Timeout`] naming the hung stage instead
//! of the bare `Aborted` teardown fallout — a hung read or receive can
//! stall a run for at most one deadline, never forever.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Per-stage progress deadlines (one per stage, full-iteration bound: a
/// node must finish each CPI within its stage's deadline).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchdogSpec {
    /// Deadline for each stage, indexed by `StageId`.
    pub deadlines: Vec<Duration>,
}

impl WatchdogSpec {
    /// The same deadline for every one of `stages` stages.
    pub fn uniform(stages: usize, deadline: Duration) -> Self {
        Self { deadlines: vec![deadline; stages] }
    }
}

/// Sentinel beat value: the rank finished its run loop.
const DONE: u64 = u64::MAX;

/// Per-rank last-progress timestamps (milliseconds since the run epoch).
pub(crate) struct Heartbeats {
    epoch: Instant,
    beats: Vec<AtomicU64>,
}

impl Heartbeats {
    pub(crate) fn new(ranks: usize) -> Self {
        Self { epoch: Instant::now(), beats: (0..ranks).map(|_| AtomicU64::new(0)).collect() }
    }

    fn now_ms(&self) -> u64 {
        // Saturate rather than wrap: DONE is reserved.
        (self.epoch.elapsed().as_millis() as u64).min(DONE - 1)
    }

    /// Records progress for `rank`.
    pub(crate) fn beat(&self, rank: usize) {
        self.beats[rank].store(self.now_ms(), Ordering::Release);
    }

    /// Marks `rank` as finished: the watchdog stops tracking it.
    pub(crate) fn mark_done(&self, rank: usize) {
        self.beats[rank].store(DONE, Ordering::Release);
    }
}

/// The first watchdog expiry, when one fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Expiry {
    pub(crate) stage: String,
    pub(crate) deadline_ms: u64,
}

/// How often the monitor re-checks deadlines and the stop flag.
const MONITOR_TICK: Duration = Duration::from_millis(5);

/// Monitor loop body: runs until `stop` is set or a deadline expires.
/// `stage_of` maps a rank to its `(stage name, stage index)`.
pub(crate) fn monitor(
    spec: &WatchdogSpec,
    beats: &Heartbeats,
    stage_of: &[(String, usize)],
    abort: &stap_comm::AbortHandle,
    stop: &std::sync::atomic::AtomicBool,
    expiry: &Mutex<Option<Expiry>>,
) {
    while !stop.load(Ordering::Acquire) {
        let now = beats.now_ms();
        for (rank, (stage_name, stage_idx)) in stage_of.iter().enumerate() {
            let beat = beats.beats[rank].load(Ordering::Acquire);
            if beat == DONE {
                continue;
            }
            let deadline = spec.deadlines[*stage_idx];
            let deadline_ms = deadline.as_millis() as u64;
            if now.saturating_sub(beat) > deadline_ms {
                let mut slot = expiry.lock();
                if slot.is_none() {
                    *slot = Some(Expiry { stage: stage_name.clone(), deadline_ms });
                }
                abort.trigger();
                return;
            }
        }
        std::thread::sleep(MONITOR_TICK);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_spec_covers_all_stages() {
        let s = WatchdogSpec::uniform(3, Duration::from_secs(2));
        assert_eq!(s.deadlines.len(), 3);
        assert!(s.deadlines.iter().all(|d| *d == Duration::from_secs(2)));
    }

    #[test]
    fn done_ranks_are_ignored() {
        let beats = Heartbeats::new(2);
        beats.mark_done(0);
        beats.mark_done(1);
        let spec = WatchdogSpec::uniform(1, Duration::from_millis(0));
        let stage_of = vec![("s".to_string(), 0), ("s".to_string(), 0)];
        let eps = stap_comm::CommWorld::create(1);
        let abort = eps[0].abort_handle();
        let stop = std::sync::atomic::AtomicBool::new(false);
        let expiry = Mutex::new(None);
        std::thread::sleep(Duration::from_millis(5));
        // Stop immediately after one pass: no expiry may fire for done ranks.
        stop.store(true, Ordering::Release);
        monitor(&spec, &beats, &stage_of, &abort, &stop, &expiry);
        assert!(expiry.lock().is_none());
        assert!(!abort.is_aborted());
    }

    #[test]
    fn stale_rank_trips_the_watchdog() {
        let beats = Heartbeats::new(1);
        beats.beat(0);
        std::thread::sleep(Duration::from_millis(30));
        let spec = WatchdogSpec::uniform(1, Duration::from_millis(10));
        let stage_of = vec![("reader".to_string(), 0)];
        let eps = stap_comm::CommWorld::create(1);
        let abort = eps[0].abort_handle();
        let stop = std::sync::atomic::AtomicBool::new(false);
        let expiry = Mutex::new(None);
        monitor(&spec, &beats, &stage_of, &abort, &stop, &expiry);
        let fired = expiry.lock().clone().expect("watchdog must fire");
        assert_eq!(fired.stage, "reader");
        assert_eq!(fired.deadline_ms, 10);
        assert!(abort.is_aborted());
    }
}
