//! The fleet event loop behind both `ppstap serve` and `ppstap serve --sim`.
//!
//! One loop replays a workload script against the [`Scheduler`]. It owns
//! the script cursor, one queue of events ordered by time and sequence
//! number (script events and backend wake-ups alike), the reject/cancel
//! bookkeeping, and the shape of every [`MissionReport`]. What *running* a
//! mission means belongs to a `Backend`: the DES backend
//! ([`crate::sim`]) prices each CPI against a shared FCFS stripe store in
//! virtual time, and the executing backend ([`crate::executor`]) runs real
//! pipelines on worker threads under a wall or virtual clock.
//!
//! The ordering contract, pinned by the tests below:
//! - script events at the same instant fire in file order, and missions
//!   dispatch only after the instant's last script event;
//! - at equal times script events precede backend events, and backend
//!   events fire in the order they were posted (the order the DES's
//!   golden fleet fingerprints were recorded under).

use crate::mission::{
    fleet_table, MissionOutcome, MissionReport, MissionSpec, PlanChoice, SlaVerdict,
};
use crate::scheduler::{Counters, Dispatch, Scheduler, ServeConfig};
use crate::script::{ScriptAction, WorkloadScript};
use stap_des::SimTime;
use stap_trace::{fleet_chrome_trace, FleetTrack};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt::Write as _;

/// What a queue entry wakes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Item {
    /// Script event `i` (index into the script's events).
    Script(usize),
    /// A wake-up the backend posted for a running mission.
    Wake(u64),
}

/// The loop's event queue: earliest time first, ties in posting order.
#[derive(Debug, Default)]
pub(crate) struct Queue {
    heap: BinaryHeap<Reverse<(SimTime, u64, Item)>>,
    seq: u64,
}

impl Queue {
    fn post(&mut self, at: SimTime, item: Item) {
        self.heap.push(Reverse((at, self.seq, item)));
        self.seq += 1;
    }

    /// Posts a wake-up for running mission `id` at `at`.
    pub(crate) fn wake_at(&mut self, at: SimTime, id: u64) {
        self.post(at, Item::Wake(id));
    }

    /// Time of the earliest queued event.
    pub(crate) fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }

    /// Whether the next queued event is a script event due at `at`.
    fn script_next_at(&self, at: SimTime) -> bool {
        matches!(self.heap.peek(), Some(Reverse((t, _, Item::Script(_)))) if *t == at)
    }

    fn pop(&mut self) -> Option<(SimTime, Item)> {
        self.heap.pop().map(|Reverse((t, _, item))| (t, item))
    }
}

/// What a backend may touch while starting or waking a mission.
pub(crate) struct Cx<'a> {
    /// The loop's current time.
    pub now: SimTime,
    /// The fleet scheduler (failover marks lost stripe servers and
    /// re-plans through it).
    pub sched: &'a mut Scheduler,
    /// Where the backend posts its wake-ups.
    pub queue: &'a mut Queue,
}

/// How missions run: the one thing the two serve modes do differently.
pub(crate) trait Backend {
    /// A submission was admitted as mission `id`.
    fn admitted(&mut self, _id: u64, _spec: &MissionSpec) {}

    /// Queued mission `id` was cancelled before dispatch.
    fn cancelled(&mut self, _id: u64) {}

    /// Starts a dispatched mission at `cx.now`.
    fn start(&mut self, d: &Dispatch, cx: &mut Cx<'_>);

    /// Handles a wake-up posted for mission `d.id`; returns its report
    /// once the mission has finished.
    fn wake(&mut self, d: &Dispatch, cx: &mut Cx<'_>) -> Option<MissionReport>;

    /// Posts every wake-up the backend can know of before the queue's next
    /// event, blocking as long as its clock requires. Backends that post
    /// their wake-ups as they go need nothing here.
    fn settle(&mut self, _queue: &mut Queue) {}

    /// The time at which an event due at `due` is handled.
    fn clock(&self, due: SimTime) -> SimTime {
        due
    }

    /// Adds the backend's fleet-wide figures to the finished report.
    fn finish(self, report: &mut FleetReport);
}

/// Replays `script` on `backend` and reports the fleet.
pub(crate) fn run<B: Backend>(
    script: &WorkloadScript,
    cfg: &ServeConfig,
    mut backend: B,
) -> FleetReport {
    let mut sched = Scheduler::new(cfg.clone());
    let mut queue = Queue::default();
    for (i, ev) in script.events.iter().enumerate() {
        queue.post(SimTime::from_secs_f64(ev.at), Item::Script(i));
    }
    let mut running: HashMap<u64, Dispatch> = HashMap::new();
    let (mut rows, mut rejected, mut cancelled) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = SimTime::ZERO;
    let mut now = SimTime::ZERO;
    loop {
        backend.settle(&mut queue);
        let Some((due, item)) = queue.pop() else { break };
        last = last.max(due);
        now = now.max(backend.clock(due));
        match item {
            Item::Script(i) => {
                match &script.events[i].action {
                    ScriptAction::Submit(spec) => {
                        match sched.submit(spec.clone(), now.as_secs_f64()) {
                            Ok(id) => backend.admitted(id, spec),
                            Err(e) => rejected.push((spec.name.clone(), e.to_string())),
                        }
                    }
                    ScriptAction::Cancel { name } => {
                        if let Some(id) = sched.cancel(name) {
                            cancelled.push(name.clone());
                            backend.cancelled(id);
                        }
                    }
                }
                // The instant's remaining script events fire before any
                // mission dispatches.
                if queue.script_next_at(due) {
                    continue;
                }
            }
            Item::Wake(id) => {
                let d = running.get(&id).expect("wake-ups are posted for running missions");
                let mut cx = Cx { now, sched: &mut sched, queue: &mut queue };
                if let Some(row) = backend.wake(d, &mut cx) {
                    running.remove(&id);
                    let failed = matches!(row.outcome, MissionOutcome::Failed(_));
                    sched.complete(id, failed);
                    rows.push(row);
                }
            }
        }
        while let Some(d) = sched.next_ready(now.as_secs_f64()) {
            backend.start(&d, &mut Cx { now, sched: &mut sched, queue: &mut queue });
            running.insert(d.id, d);
        }
    }
    let mut report = FleetReport {
        rows,
        rejected,
        cancelled,
        counters: sched.counters(),
        makespan: last.as_secs_f64(),
        store: None,
        tracks: Vec::new(),
    };
    backend.finish(&mut report);
    report
}

/// The report of mission `d` ended at `end` under `plan` (its admitted
/// plan, or the degraded one it failed over to): scheduling fields filled
/// in, run metrics zero, outcome completed, SLA ungraded.
pub(crate) fn mission_report(d: &Dispatch, plan: PlanChoice, end: f64) -> MissionReport {
    MissionReport {
        id: d.id,
        name: d.spec.name.clone(),
        priority: d.spec.priority,
        requested_nodes: d.spec.nodes,
        plan,
        submit: d.submit,
        start: d.start,
        end,
        queue_wait: d.start - d.submit,
        read_contention: d.read_contention,
        throughput: 0.0,
        latency: 0.0,
        drops: 0,
        retries: 0,
        slowdown: 0.0,
        staging_peak: 0,
        sla: SlaVerdict::Unbounded,
        outcome: MissionOutcome::Completed,
        failover: None,
    }
}

/// Use of the shared stripe store over the makespan (modelled by the DES
/// backend only).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreUse {
    /// Mean utilization of the store's servers.
    pub utilization: f64,
    /// Stripe-unit read jobs the store served.
    pub jobs: u64,
}

/// A fleet run's report, from either backend.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Finished missions, in completion order.
    pub rows: Vec<MissionReport>,
    /// `(name, typed reason)` for rejected submissions.
    pub rejected: Vec<(String, String)>,
    /// Names of missions cancelled while queued.
    pub cancelled: Vec<String>,
    /// Mission-conservation counters.
    pub counters: Counters,
    /// Time of the fleet's last event (a completion or a script event),
    /// seconds from the fleet epoch.
    pub makespan: f64,
    /// Shared-store use, when the backend models the store.
    pub store: Option<StoreUse>,
    pub(crate) tracks: Vec<FleetTrack>,
}

impl FleetReport {
    /// The merged Chrome trace of executed missions: one process track per
    /// mission, tagged `mission <id> · <name>`.
    pub fn chrome_trace(&self) -> String {
        fleet_chrome_trace(&self.tracks)
    }

    /// Fraction of SLA-bounded missions that met their bound (`None` when
    /// no mission carried an SLA).
    pub fn sla_hit_rate(&self) -> Option<f64> {
        hit_rate(self.rows.iter().filter_map(|m| m.sla.hit()))
    }

    /// The counterfactual SLA hit-rate without the failover machinery: a
    /// mission that needed failover would have aborted at the fleet fault,
    /// so every bounded failed-over mission counts as a miss. The spread
    /// between this and [`Self::sla_hit_rate`] is what redundancy bought.
    pub fn sla_hit_rate_no_failover(&self) -> Option<f64> {
        hit_rate(self.rows.iter().filter_map(|m| m.sla.hit().map(|h| h && m.failover.is_none())))
    }

    /// Missions that survived a fleet fault by failing over.
    pub fn failovers(&self) -> usize {
        self.rows.iter().filter(|m| m.failover.is_some()).count()
    }

    /// Mean queue wait over finished missions, seconds.
    pub fn mean_queue_wait(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows.iter().map(|m| m.queue_wait).sum::<f64>() / self.rows.len() as f64
    }

    /// The human-readable fleet report: the mission table, every
    /// failover, rejection and cancellation, then the fleet figures.
    pub fn render_text(&self) -> String {
        let mut out = fleet_table(&self.rows);
        for m in &self.rows {
            if let Some(note) = &m.failover {
                let _ = writeln!(out, "failover {}: {note}", m.name);
            }
        }
        for (name, why) in &self.rejected {
            let _ = writeln!(out, "rejected {name}: {why}");
        }
        for name in &self.cancelled {
            let _ = writeln!(out, "cancelled {name} while queued");
        }
        let _ = writeln!(out, "makespan       : {:>9.3} s", self.makespan);
        let _ = writeln!(out, "mean queue wait: {:>9.3} s", self.mean_queue_wait());
        if let Some(s) = self.store {
            let _ = writeln!(
                out,
                "store util     : {:>8.1}% over {} read jobs",
                s.utilization * 100.0,
                s.jobs
            );
        }
        let sla = self.sla_hit_rate().map_or("n/a (no bounded missions)".to_string(), |rate| {
            format!("{:>8.0}%", rate * 100.0)
        });
        let _ = writeln!(out, "SLA hit-rate   : {sla}");
        if let (true, Some(rate)) = (self.failovers() > 0, self.sla_hit_rate_no_failover()) {
            let _ =
                writeln!(out, "SLA hit-rate (no failover) : {:>8.0}% counterfactual", rate * 100.0);
        }
        out
    }

    /// The machine-readable fleet report: fleet figures plus a root
    /// `missions` array in the shared mission-report schema (what
    /// `render_phase_report` turns back into the fleet table). `mode` is
    /// `sim` when the store was modelled, `serve` when missions executed.
    pub fn to_json(&self) -> String {
        let rate = |r: Option<f64>| r.map_or("null".to_string(), |r| format!("{r:.4}"));
        let (mode, utilization, jobs) = match self.store {
            Some(s) => (
                "sim",
                format!(" \"fleet_utilization\": {:.6},", s.utilization),
                format!(" \"store_jobs\": {},", s.jobs),
            ),
            None => ("serve", String::new(), String::new()),
        };
        let missions: Vec<String> = self.rows.iter().map(MissionReport::to_json).collect();
        let c = &self.counters;
        format!(
            "{{\"mode\": \"{mode}\", \"makespan\": {:.9},{utilization} \"mean_queue_wait\": {:.9}, \
             \"sla_hit_rate\": {}, \"sla_hit_rate_no_failover\": {}, \"failovers\": {},{jobs} \
             \"submitted\": {}, \"rejected\": {}, \"cancelled\": {}, \"completed\": {}, \
             \"failed\": {}, \"missions\": [{}]}}",
            self.makespan,
            self.mean_queue_wait(),
            rate(self.sla_hit_rate()),
            rate(self.sla_hit_rate_no_failover()),
            self.failovers(),
            c.submitted,
            c.rejected,
            c.cancelled,
            c.completed,
            c.failed,
            missions.join(", ")
        )
    }
}

/// Fraction of `true` among graded verdicts (`None` when none were graded).
fn hit_rate(graded: impl Iterator<Item = bool>) -> Option<f64> {
    let (hits, total) = graded.fold((0usize, 0usize), |(h, n), hit| (h + hit as usize, n + 1));
    (total > 0).then(|| hits as f64 / total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A backend whose missions each take a scripted time, posted as one
    /// wake-up at dispatch.
    struct Fake {
        runtime: HashMap<String, f64>,
    }

    impl Backend for Fake {
        fn start(&mut self, d: &Dispatch, cx: &mut Cx<'_>) {
            let end = cx.now.as_secs_f64() + self.runtime[&d.spec.name];
            cx.queue.wake_at(SimTime::from_secs_f64(end), d.id);
        }

        fn wake(&mut self, d: &Dispatch, cx: &mut Cx<'_>) -> Option<MissionReport> {
            Some(mission_report(d, d.plan.clone(), cx.now.as_secs_f64()))
        }

        fn finish(self, _report: &mut FleetReport) {}
    }

    fn run_fake(text: &str, runtimes: &[(&str, f64)]) -> FleetReport {
        let script = WorkloadScript::parse(text).expect("valid script");
        let cfg =
            ServeConfig { pool_nodes: 60, workers: 1, stripe_servers: 64, ..Default::default() };
        let runtime = runtimes.iter().map(|(n, t)| (n.to_string(), *t)).collect();
        run(&script, &cfg, Fake { runtime })
    }

    fn dispatch_order(r: &FleetReport) -> Vec<&str> {
        let mut rows: Vec<&MissionReport> = r.rows.iter().collect();
        rows.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.end.total_cmp(&b.end)));
        rows.iter().map(|m| m.name.as_str()).collect()
    }

    #[test]
    fn same_instant_script_events_fire_in_file_order_before_any_dispatch() {
        // One worker: were `first` dispatched on its own submit, it would
        // run first; fired as one instant, priority picks `high`, and the
        // cancel removes `doomed` before the worker ever sees it.
        let r = run_fake(
            "at 0 submit name=first nodes=25 cpis=2\n\
             at 0 submit name=doomed nodes=25 cpis=2 priority=9\n\
             at 0 submit name=high nodes=25 cpis=2 priority=7\n\
             at 0 cancel name=doomed\n",
            &[("first", 1.0), ("doomed", 1.0), ("high", 1.0)],
        );
        assert_eq!(dispatch_order(&r), ["high", "first"]);
        assert_eq!(r.cancelled, ["doomed"]);
        assert_eq!(r.rows[1].start, 1.0, "first starts when high releases the worker");
    }

    #[test]
    fn script_events_precede_backend_events_at_equal_times() {
        // `a` finishes at 1.0, the instant `c` is submitted. The submit
        // fires first, so the freed worker goes to `c` (priority 9), not to
        // `b`, which has waited since 0.5.
        let r = run_fake(
            "at 0 submit name=a nodes=25 cpis=2\n\
             at 0.5 submit name=b nodes=25 cpis=2\n\
             at 1.0 submit name=c nodes=25 cpis=2 priority=9\n",
            &[("a", 1.0), ("b", 1.0), ("c", 1.0)],
        );
        assert_eq!(dispatch_order(&r), ["a", "c", "b"]);
        let c = &r.rows[1];
        assert_eq!((c.name.as_str(), c.start, c.end), ("c", 1.0, 2.0));
        assert_eq!(r.makespan, 3.0);
        assert!(r.counters.completed == 3 && r.counters.submitted == 3);
    }
}
