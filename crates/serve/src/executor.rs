//! The executing backend of the fleet loop: admitted missions run as real
//! [`stap_core`] pipelines on worker threads.
//!
//! `ppstap serve --script FILE` drives a workload script through the same
//! [fleet loop](crate::fleet) and [`Scheduler`](crate::Scheduler) as the
//! simulator, but each dispatched mission becomes a real pipeline run
//! (threads, staged CPI files, watchdogs) on the host. The scheduler's
//! plan still governs admission, placement, and the file-system stripe
//! factor; the workstation run itself uses the repository's small fixed
//! node set (as `ppstap run` does), since one laptop cannot fan out to 25
//! Paragon nodes.
//!
//! Every mission runs under the pipeline watchdog
//! ([`stap_core::WatchdogPolicy`], riding on `stap-pipeline`'s watchdog
//! threads), so a wedged mission becomes a typed failure instead of a hung
//! fleet. Phase spans come back tagged with the mission id and merge into
//! one Chrome trace — open it and see the whole fleet on a shared timeline.

use crate::fleet::{self, Backend, Cx, FleetReport, Queue};
use crate::mission::{
    MissionOutcome, MissionReport, MissionSource, MissionSpec, PlanChoice, SlaVerdict,
};
use crate::scheduler::{Dispatch, FleetFault, ServeConfig};
use crate::script::WorkloadScript;
use stap_core::{
    SourceSpec, StapConfig, StapRunOutput, StapSystem, StreamSettings, WatchdogPolicy,
};
use stap_des::SimTime;
use stap_ingest::{CpiRing, Frontend};
use stap_kernels::CubeDims;
use stap_pfs::{FsConfig, Pfs};
use stap_pipeline::{PipelineError, INFRASTRUCTURE_LOSS_MARKER};
use stap_store::CubeAccess;
use stap_trace::{ClockSpec, FleetTrack};
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A pipeline run's result, errors rendered.
type RunResult = Result<Box<StapRunOutput>, String>;

/// What one worker thread sends back when its pipeline run returns.
struct WorkerDone {
    id: u64,
    /// When the run ended, fleet-epoch seconds: stamped by the worker on
    /// the wall clock, or the run's start plus its virtual span end.
    end: f64,
    /// `(stripe units, bytes)` migrated by online restriping during a
    /// degraded re-run (store-tier missions only).
    restriped: Option<(u64, u64)>,
    result: RunResult,
}

/// An in-flight failover: the fleet fault a mission observed, when its
/// first attempt died and its degraded re-run started (fleet-epoch
/// seconds), and the plan it re-runs under.
struct Failover {
    fault: FleetFault,
    fail_time: f64,
    restart_time: f64,
    plan: PlanChoice,
}

/// The pipeline configuration a mission executes with: the repository's
/// small real-mode cube (seconds per mission on a workstation) and a
/// default watchdog, before any plan is chosen. A stream mission's radar
/// frontend is built from this alone, so its cubes are bit-identical to
/// the ones file staging would write.
fn base_config(spec: &MissionSpec) -> StapConfig {
    let cpis = spec.cpis.max(2);
    StapConfig {
        dims: CubeDims::new(16, 4, 64),
        fanout: 2,
        cpis,
        warmup: (cpis / 3).max(1),
        watchdog: Some(WatchdogPolicy::default()),
        ..StapConfig::default()
    }
}

/// [`base_config`] under the plan's I/O strategy, tail structure, and
/// stripe factor.
fn mission_config(spec: &MissionSpec, plan: &PlanChoice) -> StapConfig {
    let fs = FsConfig::paragon_pfs(plan.stripe_factor);
    StapConfig { io: plan.io, tail: plan.tail, fs, ..base_config(spec) }
}

/// Stages and runs one mission's pipeline under `clock`, returning the
/// run result and the `(stripe units, bytes)` any online restripe
/// migrated. `degraded_from` marks a failed-over re-run whose admitted
/// plan striped that wide.
///
/// A plain mission simply (re-)stages its cubes on the current stripe
/// directories. A failed-over store-tier mission (`cached:`/`prefetch:`
/// plan, or out-of-core access) exercises the paper-scale recovery
/// instead: its staged data comes up at the pre-loss layout, and the
/// storage tier migrates it onto the degraded mount by online restriping
/// (copy-then-swap per stripe unit) before the pipeline starts — the
/// re-run then reads the surviving layout through the same live handles,
/// the way a real fleet drains a lost server without re-ingesting from
/// the radar.
fn run_mission(
    config: StapConfig,
    degraded_from: Option<usize>,
    clock: ClockSpec,
) -> (RunResult, Option<(u64, u64)>) {
    let store_tier = config.io.uses_store_tier() || config.access != CubeAccess::Resident;
    let Some(from_sf) = degraded_from.filter(|_| store_tier) else {
        let result = StapSystem::prepare(config)
            .and_then(|sys| sys.run_with_clock(clock))
            .map(Box::new)
            .map_err(|e| e.to_string());
        return (result, None);
    };
    let degraded_fs = config.fs.clone();
    let staged = StapConfig { fs: FsConfig::paragon_pfs(from_sf), ..config };
    let mut restriped = None;
    let result = StapSystem::prepare(staged)
        .and_then(|sys| {
            let dst = Pfs::mount(degraded_fs);
            let store = sys.store_source().expect("store-tier configs route through stap-store");
            let reports = store.restripe_to(&dst).map_err(|e| PipelineError::Stage {
                stage: "restripe".to_string(),
                message: e.to_string(),
            })?;
            restriped = Some((
                reports.iter().map(|r| r.units_copied).sum(),
                reports.iter().map(|r| r.bytes).sum(),
            ));
            sys.run_with_clock(clock)
        })
        .map(Box::new)
        .map_err(|e| e.to_string());
    (result, restriped)
}

/// A stream mission's staging ring and radar frontend. Created at
/// admission (the radar starts transmitting as soon as the mission is
/// accepted, whether or not compute has dispatched yet) and torn down on
/// completion, failure, or cancellation.
struct StreamFeed {
    ring: Arc<CpiRing>,
    frontend: Frontend,
}

impl StreamFeed {
    /// Closes the ring (unblocking a parked producer), joins the producer
    /// thread, and returns the ring's peak occupancy.
    fn drain(self) -> u64 {
        self.ring.close();
        self.frontend.join();
        self.ring.stats().peak_depth as u64
    }
}

/// Replays a workload script against a real worker pool on the wall clock
/// and returns the executed fleet. Blocks until every admitted mission has
/// completed (or failed under its watchdog); never hangs — admission
/// guarantees every queued mission fits an empty pool, so the queue always
/// drains.
pub fn run_fleet(script: &WorkloadScript, cfg: &ServeConfig) -> FleetReport {
    run_fleet_with_clock(script, cfg, ClockSpec::Wall)
}

/// [`run_fleet`] with an explicit clock. On [`ClockSpec::Wall`] the fleet
/// replays the script in real time. On a virtual clock every mission's
/// pipeline runs under that clock, a mission ends at its start plus its
/// run's virtual span, and the fleet waits for running missions before
/// ordering their completions against the next script event — so the
/// scheduling outcome depends only on the script, not on how busy the
/// host is. A run that fails on the virtual clock has no spans and ends
/// where it started.
pub fn run_fleet_with_clock(
    script: &WorkloadScript,
    cfg: &ServeConfig,
    clock: ClockSpec,
) -> FleetReport {
    let (tx, rx) = channel();
    let exec = Exec {
        clock,
        epoch: Instant::now(),
        tx,
        rx,
        workers: HashMap::new(),
        done: HashMap::new(),
        feeds: HashMap::new(),
        failovers: HashMap::new(),
        tracks: Vec::new(),
    };
    fleet::run(script, cfg, exec)
}

/// The executing backend: each dispatched mission is a real pipeline run
/// on its own worker thread.
struct Exec {
    clock: ClockSpec,
    epoch: Instant,
    tx: Sender<WorkerDone>,
    rx: Receiver<WorkerDone>,
    /// Worker threads whose result has not been received yet.
    workers: HashMap<u64, JoinHandle<()>>,
    /// Received results not yet handed to the loop.
    done: HashMap<u64, WorkerDone>,
    feeds: HashMap<u64, StreamFeed>,
    failovers: HashMap<u64, Failover>,
    tracks: Vec<FleetTrack>,
}

impl Exec {
    /// Runs mission `id` on a worker thread from fleet time `origin` (see
    /// [`run_mission`] for `degraded_from`).
    fn spawn(&mut self, id: u64, config: StapConfig, origin: f64, degraded_from: Option<usize>) {
        let (tx, clock, epoch) = (self.tx.clone(), self.clock, self.epoch);
        let handle = std::thread::spawn(move || {
            let (result, restriped) = run_mission(config, degraded_from, clock);
            let end = match clock {
                ClockSpec::Wall => epoch.elapsed().as_secs_f64(),
                ClockSpec::Virtual { .. } => {
                    let span = result.as_ref().map_or(0.0, |out| {
                        out.timing.spans.iter().map(|s| s.end).fold(0.0, f64::max)
                    });
                    origin + span
                }
            };
            let _ = tx.send(WorkerDone { id, end, restriped, result });
        });
        self.workers.insert(id, handle);
    }

    /// Builds the report (and trace track) for one finished mission. A
    /// failed-over mission's spans are shifted onto its restart time, and
    /// the recovery interval itself becomes a typed `failover` span on its
    /// own track, so the Chrome trace shows the loss, the gap, and the
    /// degraded re-run on one timeline.
    fn report(&mut self, d: &Dispatch, done: WorkerDone) -> MissionReport {
        // Tear the mission's stream down (a failed run may leave the
        // producer parked) and keep its peak occupancy.
        let staging_peak = self.feeds.remove(&d.id).map_or(0, StreamFeed::drain);
        let failover = self.failovers.remove(&d.id);
        let plan = failover.as_ref().map_or_else(|| d.plan.clone(), |f| f.plan.clone());
        let note = failover.as_ref().map(|f| {
            let migrated = done.restriped.map_or(String::new(), |(units, bytes)| {
                format!("; restriped {units} stripe units ({bytes} B) onto the survivors")
            });
            format!(
                "stripe server {} lost at CPI {}; re-planned from sf={} onto {} (degraded){}",
                f.fault.server,
                f.fault.at_cpi,
                d.plan.stripe_factor,
                plan.summary(),
                migrated
            )
        });
        let base = MissionReport {
            staging_peak,
            failover: note,
            ..fleet::mission_report(d, plan, done.end)
        };
        let out = match done.result {
            Ok(out) => out,
            Err(msg) => return MissionReport { outcome: MissionOutcome::Failed(msg), ..base },
        };
        // Spans are on the mission's own run epoch; shift them onto the
        // fleet epoch so the merged trace shows queueing and overlap. A
        // failed-over mission's surviving output is its re-run, so its
        // spans sit on the restart time.
        let origin = failover.as_ref().map_or(d.start, |f| f.restart_time);
        let mut spans: Vec<stap_trace::Span> = out
            .timing
            .spans
            .iter()
            .map(|s| stap_trace::Span { start: s.start + origin, end: s.end + origin, ..*s })
            .collect();
        let mut stage_names = out.timing.stage_names.clone();
        if let Some(f) = &failover {
            let stage = stage_names.len();
            stage_names.push("failover".to_string());
            spans.push(stap_trace::Span {
                stage,
                node: 0,
                cpi: f.fault.at_cpi,
                attempt: 1,
                phase: stap_trace::Phase::Failover,
                start: f.fail_time,
                end: f.restart_time,
            });
        }
        self.tracks.push(FleetTrack {
            mission_id: d.id,
            name: d.spec.name.clone(),
            stage_names,
            spans,
        });
        MissionReport {
            throughput: out.throughput(),
            latency: out.latency(),
            drops: out.dropped.len() as u64,
            retries: out.retries,
            sla: SlaVerdict::grade(d.spec.max_latency, out.latency()),
            ..base
        }
    }
}

impl Backend for Exec {
    /// Admitted stream missions start receiving data immediately: the
    /// radar does not wait for the scheduler to find compute.
    fn admitted(&mut self, id: u64, spec: &MissionSpec) {
        if let MissionSource::Stream { depth, policy, rate } = spec.source {
            let ring = Arc::new(CpiRing::new(&spec.name, depth, policy));
            let frontend = Frontend::spawn(Arc::clone(&ring), base_config(spec).frontend(rate));
            self.feeds.insert(id, StreamFeed { ring, frontend });
        }
    }

    /// Drains a cancelled mission's stream: closing the ring is what
    /// unblocks a producer parked on a full ring — without it the frontend
    /// thread would hang forever, since no consumer will ever attach.
    fn cancelled(&mut self, id: u64) {
        if let Some(feed) = self.feeds.remove(&id) {
            feed.drain();
        }
    }

    fn start(&mut self, d: &Dispatch, cx: &mut Cx<'_>) {
        let mut config = mission_config(&d.spec, &d.plan);
        // A configured fleet fault is observed by every file-fed mission:
        // reads of the lost server's stripe units fail permanently from
        // `at_cpi` on, surfacing as a typed infrastructure loss that
        // `wake` fails over. Stream missions bypass the striped store and
        // never see it.
        if let (Some(f), MissionSource::File) = (cx.sched.config().fault, &d.spec.source) {
            config.fault_plan = Some(
                stap_pfs::FaultPlan::new(0)
                    .with(stap_pfs::Fault::ServerLoss { server: f.server, from: f.at_cpi }),
            );
        }
        if let MissionSource::Stream { depth, policy, rate } = d.spec.source {
            let feed = self.feeds.get(&d.id).expect("stream feeds are created at admission");
            let ring = Arc::clone(&feed.ring);
            config.source = SourceSpec::Stream(StreamSettings {
                depth,
                policy,
                rate,
                strict_lag: false,
                attach: Some(ring),
            });
        }
        self.spawn(d.id, config, cx.now.as_secs_f64(), None);
    }

    fn wake(&mut self, d: &Dispatch, cx: &mut Cx<'_>) -> Option<MissionReport> {
        let done = self.done.remove(&d.id).expect("wake-ups follow a received result");
        let infra_loss =
            done.result.as_ref().err().is_some_and(|m| m.contains(INFRASTRUCTURE_LOSS_MARKER));
        if let (true, Some(fault), false) =
            (infra_loss, cx.sched.config().fault, self.failovers.contains_key(&d.id))
        {
            // Fleet fault observed mid-mission: mark the store degraded
            // (survivors absorb the lost directory, the plan cache is
            // flushed), re-plan inside the nodes the mission already holds,
            // and restart it on the surviving stripe directories instead of
            // failing it.
            cx.sched.mark_server_lost(fault.server);
            let surviving = d.plan.stripe_factor.saturating_sub(1).max(1);
            let plan = cx
                .sched
                .degraded_plan(&d.spec, surviving, d.plan.total_nodes)
                .unwrap_or_else(|| PlanChoice { stripe_factor: surviving, ..d.plan.clone() });
            let restart = cx.now.as_secs_f64();
            self.spawn(d.id, mission_config(&d.spec, &plan), restart, Some(d.plan.stripe_factor));
            let (fail_time, restart_time) = (done.end, restart);
            self.failovers.insert(d.id, Failover { fault, fail_time, restart_time, plan });
            return None;
        }
        Some(self.report(d, done))
    }

    fn settle(&mut self, queue: &mut Queue) {
        let mut batch = Vec::new();
        match self.clock {
            // Every running mission's end is known once its worker returns:
            // collect them all before the loop orders them against the
            // next script event.
            ClockSpec::Virtual { .. } => {
                while batch.len() < self.workers.len() {
                    batch.push(self.rx.recv().expect("the backend holds a sender"));
                }
            }
            // Sleep until the next script event is due, or take the first
            // completion that arrives before it. (Receiving cannot fail:
            // the backend holds a sender.)
            ClockSpec::Wall => batch.extend(match queue.next_time() {
                Some(due) => {
                    let wait = due.as_secs_f64() - self.epoch.elapsed().as_secs_f64();
                    if wait <= 0.0 {
                        return;
                    }
                    self.rx.recv_timeout(Duration::from_secs_f64(wait)).ok()
                }
                None if self.workers.is_empty() => None,
                None => self.rx.recv().ok(),
            }),
        }
        // Mission-id order, whatever order the threads finished in.
        batch.sort_by_key(|done| done.id);
        for mut done in batch {
            if let Some(handle) = self.workers.remove(&done.id) {
                handle.join().expect("a worker exits right after sending its result");
            }
            // On the queue's nanosecond grid, so a mission dispatched onto
            // the freed worker starts exactly when this one ended.
            let end = SimTime::from_secs_f64(done.end);
            done.end = end.as_secs_f64();
            queue.wake_at(end, done.id);
            self.done.insert(done.id, done);
        }
    }

    fn clock(&self, due: SimTime) -> SimTime {
        match self.clock {
            ClockSpec::Wall => due.max(SimTime::from_secs_f64(self.epoch.elapsed().as_secs_f64())),
            ClockSpec::Virtual { .. } => due,
        }
    }

    fn finish(mut self, report: &mut FleetReport) {
        // Whatever streams are still attached (none, unless a mission
        // slipped through every path above) must not leak producer threads.
        for (_, feed) in self.feeds.drain() {
            feed.drain();
        }
        self.tracks.sort_by_key(|t| t.mission_id);
        report.tracks = self.tracks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ServeConfig {
        ServeConfig {
            pool_nodes: 60,
            workers: 2,
            queue_capacity: 8,
            stripe_servers: 64,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn two_mission_fleet_completes_with_tagged_trace() {
        let script = WorkloadScript::parse(
            "at 0 submit name=alpha nodes=25 cpis=2\n\
             at 0 submit name=beta nodes=25 cpis=2 priority=3\n",
        )
        .expect("valid script");
        let out = run_fleet(&script, &cfg());
        assert_eq!(out.rows.len(), 2, "both missions complete: {:?}", out.rows);
        assert!(out.rows.iter().all(|m| m.outcome == MissionOutcome::Completed));
        assert!(out.counters.completed == 2 && out.counters.submitted == 2);
        let trace = out.chrome_trace();
        let v = stap_trace::json::parse(&trace).expect("valid trace JSON");
        let names: Vec<String> = v
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("events")
            .iter()
            .filter(|ev| ev.get("name").and_then(|n| n.as_str()) == Some("process_name"))
            .filter_map(|ev| Some(ev.get("args")?.get("name")?.as_str()?.to_string()))
            .collect();
        assert!(names.iter().any(|n| n.contains("alpha")), "{names:?}");
        assert!(names.iter().any(|n| n.contains("beta")), "{names:?}");
        let table = out.render_text();
        assert!(table.contains("alpha") && table.contains("beta"));
        let json = stap_trace::json::parse(&out.to_json()).expect("valid fleet JSON");
        assert_eq!(json.get("missions").and_then(|m| m.as_array().map(|a| a.len())), Some(2));
    }

    #[test]
    fn virtual_clock_fleet_repeats_exactly() {
        // Three missions on two workers: `late` queues behind the first
        // two and starts when one of them frees its worker. On the virtual
        // clock that instant — and so every start, end and the completion
        // order — depends only on the script.
        let script = WorkloadScript::parse(
            "at 0 submit name=a nodes=25 cpis=3\n\
             at 0.001 submit name=b nodes=25 cpis=5\n\
             at 0.002 submit name=late nodes=25 cpis=2 priority=3\n",
        )
        .expect("valid script");
        let rows = || {
            let out = run_fleet_with_clock(&script, &cfg(), ClockSpec::virtual_default());
            assert!(out.rows.iter().all(|m| m.outcome == MissionOutcome::Completed));
            out.rows
                .iter()
                .map(|m| (m.id, m.name.clone(), m.start, m.end, m.plan.clone()))
                .collect::<Vec<_>>()
        };
        let first = rows();
        assert_eq!(first.len(), 3);
        let end_of = |name: &str| first.iter().find(|r| r.1 == name).map(|r| r.3).expect(name);
        let late = first.iter().find(|r| r.1 == "late").expect("late runs");
        assert_eq!(late.2, end_of("a").min(end_of("b")), "late takes the first freed worker");
        assert_eq!(rows(), first, "same script, same rows, same order");
    }

    #[test]
    fn oversubscribed_fleet_queues_and_drains_in_priority_order() {
        // One worker, three same-instant missions: the fleet must serialize
        // without rejecting anything, dispatch the high-priority mission
        // first, and keep FIFO order within a priority.
        let script = WorkloadScript::parse(
            "at 0.0 submit name=first nodes=25 cpis=2\n\
             at 0.0 submit name=low nodes=25 cpis=2\n\
             at 0.0 submit name=high nodes=25 cpis=2 priority=7\n",
        )
        .expect("valid script");
        let serve = ServeConfig { workers: 1, ..cfg() };
        let out = run_fleet(&script, &serve);
        assert_eq!(out.rows.len(), 3);
        assert!(out.rejected.is_empty(), "feasible-later missions queue: {:?}", out.rejected);
        let start_of =
            |name: &str| out.rows.iter().find(|m| m.name == name).map(|m| m.start).expect(name);
        assert!(
            start_of("high") < start_of("first") && start_of("first") < start_of("low"),
            "dispatch order must be high, first, low (high={}, first={}, low={})",
            start_of("high"),
            start_of("first"),
            start_of("low")
        );
        let waited = out.rows.iter().filter(|m| m.queue_wait > 0.0).count();
        assert!(waited >= 2, "serialized missions report queue wait");
    }

    #[test]
    fn stream_fed_mission_completes_and_reports_staging_peak() {
        let script = WorkloadScript::parse(
            "at 0 submit name=live nodes=25 cpis=3 source=stream staging=2\n",
        )
        .expect("valid script");
        let out = run_fleet(&script, &cfg());
        assert_eq!(out.rows.len(), 1, "{:?}", out.rows);
        let m = &out.rows[0];
        assert_eq!(m.outcome, MissionOutcome::Completed, "{:?}", m.outcome);
        assert!(
            m.staging_peak >= 1 && m.staging_peak <= 2,
            "peak bounded by ring depth, got {}",
            m.staging_peak
        );
        let json = stap_trace::json::parse(&out.to_json()).expect("valid fleet JSON");
        let missions = json.get("missions").and_then(|m| m.as_array()).expect("missions");
        assert!(missions[0].get("staging_peak").and_then(|v| v.as_f64()).expect("peak") >= 1.0);
    }

    #[test]
    fn fleet_fault_fails_over_instead_of_aborting() {
        // A stripe server dies mid-mission. The pipeline's first attempt
        // fails with a typed infrastructure loss; the fleet must complete
        // the mission degraded (re-planned over the survivors), grade its
        // SLA from the re-run, and expose the recovery as a typed failover
        // span — abort is the wrong answer.
        let script =
            WorkloadScript::parse("at 0 submit name=victim nodes=25 cpis=3 max-latency=60\n")
                .expect("valid script");
        let serve = ServeConfig { fault: Some(FleetFault { server: 0, at_cpi: 1 }), ..cfg() };
        let out = run_fleet(&script, &serve);
        assert_eq!(out.rows.len(), 1, "{:?}", out.rows);
        let m = &out.rows[0];
        assert_eq!(m.outcome, MissionOutcome::Completed, "failover, not abort: {:?}", m.outcome);
        let note = m.failover.as_ref().expect("failover recorded");
        assert!(note.contains("stripe server 0"), "{note}");
        assert!(
            m.plan.stripe_factor < 64,
            "re-planned onto the surviving directories: {}",
            m.plan.summary()
        );
        assert!(m.throughput > 0.0, "metrics come from the degraded re-run");
        assert_eq!(out.counters.completed, 1);
        assert_eq!(out.failovers(), 1);
        assert_eq!(out.sla_hit_rate(), Some(1.0), "the degraded run still meets a loose SLA");
        assert_eq!(
            out.sla_hit_rate_no_failover(),
            Some(0.0),
            "without the failover machinery the mission dies"
        );
        let trace = out.chrome_trace();
        assert!(trace.contains("\"failover\""), "typed failover span in the Chrome trace");
        let json = stap_trace::json::parse(&out.to_json()).expect("valid fleet JSON");
        assert_eq!(json.get("failovers").and_then(|v| v.as_f64()), Some(1.0));
        let missions = json.get("missions").and_then(|m| m.as_array()).expect("missions");
        assert!(missions[0].get("failover").and_then(|f| f.as_str()).is_some());
    }

    #[test]
    fn store_tier_mission_fails_over_by_online_restriping() {
        // A cached-plan mission loses a stripe server. Unlike a plain
        // mission (which re-stages from scratch), the store tier must
        // carry the staged cubes onto the surviving layout by online
        // restriping — the failover note records the migration, and the
        // degraded re-run still completes through the swapped handles.
        let script = WorkloadScript::parse("at 0 submit name=keeper nodes=25 cpis=3 io=cached:8\n")
            .expect("valid script");
        let serve = ServeConfig { fault: Some(FleetFault { server: 0, at_cpi: 1 }), ..cfg() };
        let out = run_fleet(&script, &serve);
        assert_eq!(out.rows.len(), 1, "{:?}", out.rows);
        let m = &out.rows[0];
        assert_eq!(m.outcome, MissionOutcome::Completed, "failover, not abort: {:?}", m.outcome);
        assert_eq!(m.plan.io, stap_core::IoStrategy::Cached { mb: 8 }, "{}", m.plan.summary());
        let note = m.failover.as_ref().expect("failover recorded");
        assert!(
            note.contains("restriped") && note.contains("stripe units"),
            "online restripe recorded in the failover note: {note}"
        );
        assert!(m.plan.stripe_factor < 64, "degraded layout: {}", m.plan.summary());
        assert_eq!(out.failovers(), 1);
    }

    #[test]
    fn cancelling_a_queued_stream_mission_unblocks_its_producer() {
        // Regression: the doomed mission's unpaced producer fills its
        // 2-slot blocking ring immediately and parks. Cancellation must
        // close the ring so the producer thread exits — without the drain,
        // run_fleet would leak a forever-blocked thread and the final feed
        // sweep would hang this test.
        let script = WorkloadScript::parse(
            "at 0.0 submit name=runner nodes=25 cpis=2\n\
             at 0.0 submit name=doomed nodes=25 cpis=64 source=stream staging=2\n\
             at 0.0 cancel name=doomed\n",
        )
        .expect("valid script");
        let serve = ServeConfig { workers: 1, ..cfg() };
        let out = run_fleet(&script, &serve);
        assert_eq!(out.cancelled, vec!["doomed".to_string()]);
        assert_eq!(out.rows.len(), 1, "only runner executes");
        assert_eq!(out.counters.cancelled, 1);
    }

    #[test]
    fn cancel_removes_queued_mission_before_it_runs() {
        // Same-instant events are processed in file order before any
        // dispatch, so the cancellation is deterministic: doomed is queued
        // and removed before the worker pool ever sees it.
        let script = WorkloadScript::parse(
            "at 0.0 submit name=runner nodes=25 cpis=2\n\
             at 0.0 submit name=doomed nodes=25 cpis=2\n\
             at 0.0 cancel name=doomed\n",
        )
        .expect("valid script");
        let serve = ServeConfig { workers: 1, ..cfg() };
        let out = run_fleet(&script, &serve);
        assert_eq!(out.cancelled, vec!["doomed".to_string()]);
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.counters.cancelled, 1);
    }
}
