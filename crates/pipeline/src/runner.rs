//! Launching a pipeline: one thread per node, CPIs driven in order,
//! timing collected into a [`PipelineReport`].
//!
//! A credit window bounds the CPIs in flight: a node of a source stage may
//! start CPI `k` only after every node of every sink stage has finished CPI
//! `k − W`, with `W` the topology's stage count
//! ([`Topology::credit_window`], Pipeflow's fixed number of
//! "lines"). Without it an unpaced front turns its speed into a backlog
//! held in the unbounded comm channels. The wait happens before the CPI's
//! record opens, so it never shows up in `T_i` or latency; it is reported
//! per source node in [`PipelineReport::credit_wait_secs`].

use crate::error::PipelineError;
use crate::stage::{Stage, StageCtx};
use crate::timing::{PipelineReport, StageTracer};
use crate::topology::{StageId, Topology};
use crate::watchdog::{monitor, Expiry, Heartbeats, WatchdogSpec};
use parking_lot::Mutex;
use stap_comm::CommWorld;
use stap_trace::ClockSpec;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

/// Builds the per-node [`Stage`] value for a stage; called once per node
/// with the node's local index.
pub type StageFactory = Box<dyn Fn(usize) -> Box<dyn Stage> + Send + Sync>;

/// Collective tag of the end-of-run drain barrier.
const DRAIN_BARRIER_TAG: u32 = 0x7FFF_FFFF;

/// How often a node waiting for credit heartbeats and re-checks the world
/// abort flag.
const CREDIT_POLL: Duration = Duration::from_millis(5);

/// The credit gate: CPIs finished by each sink node, plus a condvar that
/// wakes waiting source nodes when the slowest sink node moves on.
struct CreditWindow {
    window: u64,
    finished: StdMutex<Vec<u64>>,
    freed: Condvar,
}

impl CreditWindow {
    fn new(window: u64, sink_nodes: usize) -> Self {
        Self { window, finished: StdMutex::new(vec![0; sink_nodes]), freed: Condvar::new() }
    }

    /// Blocks until CPI `cpi` holds a credit, i.e. every sink node has
    /// finished CPI `cpi − window`, and returns the wall seconds spent
    /// blocked. `keep_waiting` runs every [`CREDIT_POLL`] while blocked
    /// (heartbeat plus abort check); the wait gives up, returning `None`,
    /// as soon as it says stop.
    fn acquire(&self, cpi: u64, mut keep_waiting: impl FnMut() -> bool) -> Option<f64> {
        let Some(needed) = (cpi + 1).checked_sub(self.window) else {
            return Some(0.0);
        };
        let mut finished = self.finished.lock().expect("credit lock poisoned");
        let mut blocked_since = None;
        while finished.iter().copied().min().unwrap_or(u64::MAX) < needed {
            blocked_since.get_or_insert_with(Instant::now);
            if !keep_waiting() {
                return None;
            }
            finished =
                self.freed.wait_timeout(finished, CREDIT_POLL).expect("credit lock poisoned").0;
        }
        Some(blocked_since.map_or(0.0, |t| t.elapsed().as_secs_f64()))
    }

    /// Sink node `slot` finished one more CPI.
    fn release(&self, slot: usize) {
        self.finished.lock().expect("credit lock poisoned")[slot] += 1;
        self.freed.notify_all();
    }
}

/// A runnable pipeline: topology + one factory per stage.
pub struct Pipeline {
    topology: Topology,
    factories: Vec<StageFactory>,
}

impl Pipeline {
    /// Creates a pipeline.
    ///
    /// # Panics
    /// Panics when the factory count differs from the stage count.
    pub fn new(topology: Topology, factories: Vec<StageFactory>) -> Self {
        assert_eq!(factories.len(), topology.stage_count(), "one factory per stage required");
        Self { topology, factories }
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Runs `cpis` CPIs through the pipeline on real threads and returns
    /// the measured report (with `warmup` leading CPIs excluded from the
    /// steady-state metrics).
    pub fn run(&self, cpis: u64, warmup: u64) -> Result<PipelineReport, PipelineError> {
        self.run_inner(cpis, warmup, None, ClockSpec::Wall)
    }

    /// Like [`Self::run`], but with per-stage watchdog deadlines: a stage
    /// that fails to complete a CPI within its deadline tears the world
    /// down and the run returns [`PipelineError::Timeout`] naming it.
    pub fn run_with_watchdog(
        &self,
        cpis: u64,
        warmup: u64,
        spec: &WatchdogSpec,
    ) -> Result<PipelineReport, PipelineError> {
        self.run_configured(cpis, warmup, Some(spec), ClockSpec::Wall)
    }

    /// Fully configured run: optional watchdog plus an explicit
    /// [`ClockSpec`]. Under `ClockSpec::Virtual` every node traces against
    /// its own deterministic clock, making the report's records and spans
    /// bit-reproducible (the golden-trace tests run this way).
    pub fn run_configured(
        &self,
        cpis: u64,
        warmup: u64,
        watchdog: Option<&WatchdogSpec>,
        clocks: ClockSpec,
    ) -> Result<PipelineReport, PipelineError> {
        if let Some(spec) = watchdog {
            assert_eq!(
                spec.deadlines.len(),
                self.topology.stage_count(),
                "one watchdog deadline per stage required"
            );
        }
        self.run_inner(cpis, warmup, watchdog, clocks)
    }

    fn run_inner(
        &self,
        cpis: u64,
        warmup: u64,
        watchdog: Option<&WatchdogSpec>,
        clocks: ClockSpec,
    ) -> Result<PipelineReport, PipelineError> {
        self.topology.validate()?;
        assert!(cpis > warmup, "need more CPIs ({cpis}) than warmup ({warmup})");
        let epoch = Instant::now();
        let topology = &self.topology;
        let factories = &self.factories;
        let n = topology.total_nodes();

        let endpoints = CommWorld::create(n);
        let beats = Heartbeats::new(n);
        let expiry: Mutex<Option<Expiry>> = Mutex::new(None);
        let monitor_stop = AtomicBool::new(false);
        let stage_of: Vec<(String, usize)> = (0..n)
            .map(|rank| {
                let (stage, _) = topology.locate(rank).expect("every rank belongs to a stage");
                (topology.stage(stage).name.clone(), stage.0)
            })
            .collect();
        let abort_handle = endpoints[0].abort_handle();
        let sources = topology.sources();
        let sinks = topology.sinks();
        // Sink ranks get consecutive credit slots in world order.
        let mut sink_slot = vec![None; n];
        let mut sink_nodes = 0;
        for (slot, (_, stage)) in sink_slot.iter_mut().zip(&stage_of) {
            if sinks.contains(&StageId(*stage)) {
                *slot = Some(sink_nodes);
                sink_nodes += 1;
            }
        }
        let credits = CreditWindow::new(topology.credit_window(), sink_nodes);
        // Virtual-clock reports must be bit-reproducible, so the wall-time
        // credit wait is only measured on the wall clock.
        let measure_wait = matches!(clocks, ClockSpec::Wall);

        type NodeTiming = (Vec<crate::timing::CpiRecord>, Vec<crate::timing::Span>, f64);
        let results: Vec<Result<NodeTiming, PipelineError>> = std::thread::scope(|scope| {
            let monitor_handle = watchdog.map(|spec| {
                let beats = &beats;
                let stage_of = &stage_of;
                let abort = &abort_handle;
                let stop = &monitor_stop;
                let expiry = &expiry;
                scope.spawn(move || monitor(spec, beats, stage_of, abort, stop, expiry))
            });

            let handles: Vec<_> = endpoints
                .into_iter()
                .map(|mut ep| {
                    let beats = &beats;
                    let credits = &credits;
                    let sources = &sources;
                    let sink_slot = &sink_slot;
                    scope.spawn(move || {
                        let rank = ep.rank();
                        let (stage, local) =
                            topology.locate(rank).expect("every rank belongs to a stage");
                        let is_source = sources.contains(&stage);
                        let slot = sink_slot[rank];
                        let mut behavior = factories[stage.0](local);
                        let mut clock =
                            StageTracer::new(stage.0, local, clocks.clock(epoch), cpis as usize);
                        let mut outcome = Ok(());
                        let mut credit_wait = 0.0;
                        for cpi in 0..cpis {
                            beats.beat(rank);
                            if is_source {
                                let granted = credits.acquire(cpi, || {
                                    beats.beat(rank);
                                    !ep.aborted()
                                });
                                let Some(waited) = granted else {
                                    outcome = Err(stap_comm::CommError::Aborted.into());
                                    break;
                                };
                                if measure_wait {
                                    credit_wait += waited;
                                }
                            }
                            clock.start_cpi(cpi);
                            let mut ctx = StageCtx {
                                ep: &mut ep,
                                topology,
                                stage,
                                local,
                                cpi,
                                clock: &mut clock,
                            };
                            outcome = behavior.run_cpi(&mut ctx);
                            clock.end_cpi();
                            if outcome.is_err() {
                                break;
                            }
                            if let Some(slot) = slot {
                                credits.release(slot);
                            }
                        }
                        // The watchdog stops tracking this rank whether
                        // it finished or failed — either way it is no
                        // longer "hung".
                        beats.mark_done(rank);
                        // A failing node raises the world abort flag so
                        // peers blocked in receives unblock with
                        // `Aborted` instead of hanging forever.
                        if outcome.is_err() {
                            ep.trigger_abort();
                        }
                        // Drain barrier: no endpoint may drop until every
                        // node has finished (or failed) its last
                        // iteration, so trailing sends (e.g. the weight
                        // tasks' final, never-consumed weight sets)
                        // always find a live receiver. Skipped once the
                        // world is aborting — everyone is exiting anyway.
                        let barrier_outcome = if ep.aborted() {
                            Err(stap_comm::CommError::Aborted.into())
                        } else {
                            let world = stap_comm::Group::contiguous(0, n);
                            stap_comm::collective::barrier(&mut ep, &world, DRAIN_BARRIER_TAG)
                                .map_err(PipelineError::from)
                        };
                        outcome?;
                        barrier_outcome?;
                        let (records, spans) = clock.finish();
                        Ok((records, spans, credit_wait))
                    })
                })
                .collect();
            let results =
                handles.into_iter().map(|h| h.join().expect("rank thread panicked")).collect();
            monitor_stop.store(true, Ordering::Release);
            if let Some(m) = monitor_handle {
                m.join().expect("watchdog monitor panicked");
            }
            results
        });

        // Prefer the root-cause error: stage failures first, then
        // communication failures, then a watchdog expiry, with `Aborted`
        // teardown fallout last.
        let rank = |e: &PipelineError| match e {
            PipelineError::Stage { .. } | PipelineError::Topology(_) => 0,
            PipelineError::Comm(c) if *c != stap_comm::CommError::Aborted => 1,
            PipelineError::Timeout { .. } => 2,
            PipelineError::Comm(_) => 3,
        };
        let fired = expiry.into_inner();
        if let Some(err) = results.iter().filter_map(|r| r.as_ref().err()).min_by_key(|e| rank(e)) {
            // Everything failing with bare `Aborted` while the watchdog
            // fired means the expiry *is* the root cause.
            if let (PipelineError::Comm(stap_comm::CommError::Aborted), Some(exp)) = (err, &fired) {
                return Err(PipelineError::Timeout {
                    stage: exp.stage.clone(),
                    deadline_ms: exp.deadline_ms,
                });
            }
            return Err(err.clone());
        }
        let mut per_node = Vec::with_capacity(results.len());
        let mut spans = Vec::new();
        let mut waits = Vec::with_capacity(results.len());
        for r in results {
            let (records, node_spans, wait) = r.expect("errors handled above");
            per_node.push(records);
            spans.extend(node_spans);
            waits.push(wait);
        }
        // Ranks are collected in world order, which is (stage, node) order,
        // so the concatenated span list is already deterministic for a
        // deterministic per-node sequence.
        let mut report = PipelineReport::new(topology, per_node, spans, cpis, warmup);
        report.set_credit_waits(waits);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::Phase;
    use crate::topology::StageId;

    /// A trivial 3-stage pipeline: source generates `cpi*10 + local`,
    /// middle doubles, sink sums across middle nodes.
    fn arithmetic_pipeline() -> Pipeline {
        let mut t = Topology::new();
        let src = t.add_stage("src", 1);
        let mid = t.add_stage("mid", 2);
        let snk = t.add_stage("snk", 1);
        t.add_edge(src, mid);
        t.add_edge(mid, snk);

        let f_src: StageFactory = Box::new(move |_local| {
            Box::new(move |ctx: &mut StageCtx<'_>| {
                ctx.phase(Phase::Compute);
                let v = ctx.cpi * 10;
                ctx.phase(Phase::Send);
                for dst in 0..2 {
                    ctx.send_to(StageId(1), dst, 0, v + dst as u64)?;
                }
                Ok(())
            })
        });
        let f_mid: StageFactory = Box::new(move |local| {
            Box::new(move |ctx: &mut StageCtx<'_>| {
                ctx.phase(Phase::Recv);
                let v: u64 = ctx.recv_from(StageId(0), 0, 0)?;
                ctx.phase(Phase::Compute);
                let out = v * 2;
                ctx.phase(Phase::Send);
                let _ = local;
                ctx.send_to(StageId(2), 0, 0, out)?;
                Ok(())
            })
        });
        let f_snk: StageFactory = Box::new(move |_local| {
            Box::new(move |ctx: &mut StageCtx<'_>| {
                ctx.phase(Phase::Recv);
                let a: u64 = ctx.recv_from(StageId(1), 0, 0)?;
                let b: u64 = ctx.recv_from(StageId(1), 1, 0)?;
                ctx.phase(Phase::Compute);
                let sum = a + b;
                // (cpi*10)*2 + (cpi*10+1)*2 = 40*cpi + 2
                assert_eq!(sum, 40 * ctx.cpi + 2);
                Ok(())
            })
        });
        Pipeline::new(t, vec![f_src, f_mid, f_snk])
    }

    #[test]
    fn pipeline_moves_data_correctly() {
        let p = arithmetic_pipeline();
        let report = p.run(5, 1).unwrap();
        assert_eq!(report.cpis, 5);
        assert_eq!(report.records.len(), 3);
        assert_eq!(report.records[1].len(), 2); // two middle nodes
        assert_eq!(report.records[1][0].len(), 5); // five CPIs each
    }

    #[test]
    fn report_metrics_are_positive() {
        let p = arithmetic_pipeline();
        let report = p.run(6, 2).unwrap();
        let latency = report.latency(StageId(0), StageId(2));
        assert!(latency > 0.0);
        let tput = report.throughput(StageId(2));
        assert!(tput > 0.0);
    }

    #[test]
    fn stage_error_propagates() {
        let mut t = Topology::new();
        let _ = t.add_stage("solo", 1);
        let f: StageFactory =
            Box::new(|_| Box::new(|ctx: &mut StageCtx<'_>| Err(ctx.fail("deliberate"))));
        let p = Pipeline::new(t, vec![f]);
        let err = p.run(1, 0).unwrap_err();
        assert!(matches!(err, PipelineError::Stage { .. }));
    }

    #[test]
    #[should_panic(expected = "one factory per stage")]
    fn factory_count_must_match() {
        let mut t = Topology::new();
        t.add_stage("a", 1);
        Pipeline::new(t, vec![]);
    }

    #[test]
    fn mid_pipeline_failure_does_not_hang_downstream() {
        // Source feeds a sink; the source dies on CPI 1 while the sink is
        // blocked waiting for its input. The abort flag must unblock the
        // sink and surface the root-cause stage error.
        let mut t = Topology::new();
        let src = t.add_stage("src", 1);
        let snk = t.add_stage("snk", 1);
        t.add_edge(src, snk);
        let f_src: StageFactory = Box::new(|_| {
            Box::new(|ctx: &mut StageCtx<'_>| {
                if ctx.cpi >= 1 {
                    return Err(ctx.fail("disk on fire"));
                }
                ctx.send_to(StageId(1), 0, 0, ctx.cpi)?;
                Ok(())
            })
        });
        let f_snk: StageFactory = Box::new(|_| {
            Box::new(|ctx: &mut StageCtx<'_>| {
                let _: u64 = ctx.recv_from(StageId(0), 0, 0)?;
                Ok(())
            })
        });
        let p = Pipeline::new(t, vec![f_src, f_snk]);
        let err = p.run(4, 0).unwrap_err();
        match err {
            PipelineError::Stage { stage, message } => {
                assert_eq!(stage, "src");
                assert!(message.contains("disk on fire"));
            }
            other => panic!("expected the root-cause stage error, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_converts_a_hang_into_a_typed_timeout() {
        use std::time::Duration;
        // The source never sends for CPI >= 1, so the sink blocks forever
        // on its receive; without the watchdog this run would never return.
        let mut t = Topology::new();
        let src = t.add_stage("src", 1);
        let snk = t.add_stage("snk", 1);
        t.add_edge(src, snk);
        let f_src: StageFactory = Box::new(|_| {
            Box::new(|ctx: &mut StageCtx<'_>| {
                if ctx.cpi == 0 {
                    ctx.send_to(StageId(1), 0, 0, ctx.cpi)?;
                }
                Ok(())
            })
        });
        let f_snk: StageFactory = Box::new(|_| {
            Box::new(|ctx: &mut StageCtx<'_>| {
                let _: u64 = ctx.recv_from(StageId(0), 0, 0)?;
                Ok(())
            })
        });
        let p = Pipeline::new(t, vec![f_src, f_snk]);
        let spec = crate::watchdog::WatchdogSpec::uniform(2, Duration::from_millis(100));
        let err = p.run_with_watchdog(4, 0, &spec).unwrap_err();
        match err {
            PipelineError::Timeout { stage, deadline_ms } => {
                assert_eq!(stage, "snk", "the hung receiver is the root cause");
                assert_eq!(deadline_ms, 100);
            }
            other => panic!("expected a watchdog timeout, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_stays_quiet_on_a_healthy_run() {
        use std::time::Duration;
        let p = arithmetic_pipeline();
        let spec = crate::watchdog::WatchdogSpec::uniform(3, Duration::from_secs(30));
        let report = p.run_with_watchdog(5, 1, &spec).unwrap();
        assert_eq!(report.cpis, 5);
    }

    #[test]
    fn stage_error_beats_watchdog_expiry_as_root_cause() {
        use std::time::Duration;
        // The failing source triggers the abort itself; even with a very
        // tight watchdog racing it, the surfaced error must stay typed.
        let mut t = Topology::new();
        let src = t.add_stage("src", 1);
        let snk = t.add_stage("snk", 1);
        t.add_edge(src, snk);
        let f_src: StageFactory = Box::new(|_| {
            Box::new(|ctx: &mut StageCtx<'_>| {
                std::thread::sleep(Duration::from_millis(30));
                Err(ctx.fail("disk on fire"))
            })
        });
        let f_snk: StageFactory = Box::new(|_| {
            Box::new(|ctx: &mut StageCtx<'_>| {
                let _: u64 = ctx.recv_from(StageId(0), 0, 0)?;
                Ok(())
            })
        });
        let p = Pipeline::new(t, vec![f_src, f_snk]);
        let spec = crate::watchdog::WatchdogSpec::uniform(2, Duration::from_millis(2000));
        match p.run_with_watchdog(2, 0, &spec).unwrap_err() {
            PipelineError::Stage { stage, .. } => assert_eq!(stage, "src"),
            other => panic!("expected the stage error, got {other:?}"),
        }
    }

    #[test]
    fn virtual_clock_runs_are_bit_reproducible() {
        let run = || {
            let p = arithmetic_pipeline();
            p.run_configured(4, 1, None, ClockSpec::Virtual { tick: 1e-3 }).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.records, b.records, "virtual-clock records must be identical");
        assert_eq!(a.spans, b.spans, "virtual-clock spans must be identical");
        assert_eq!(a.chrome_trace(), b.chrome_trace(), "chrome export must be byte-stable");
    }

    #[test]
    fn wall_run_collects_spans_for_every_stage() {
        let p = arithmetic_pipeline();
        let report = p.run(4, 1).unwrap();
        for stage in 0..3 {
            assert!(
                report.spans.iter().any(|s| s.stage == stage),
                "stage {stage} produced no spans"
            );
        }
        // Sink never sends: the registry reflects that.
        let reg = report.registry();
        assert!(reg.stats(2, Phase::Send).is_none());
        assert!(reg.stats(1, Phase::Recv).is_some());
    }

    /// Source → sink where the sink sleeps `sink_ms` per CPI and fails at
    /// CPI `fail_at` (if any). The source sends `Some(cpi)` except on CPIs
    /// divisible by 3, where it ships a `None` gap bubble, as the STAP
    /// stages do under `SkipCpi`.
    fn slow_sink_pipeline(sink_nodes: usize, sink_ms: u64, fail_at: Option<u64>) -> Pipeline {
        use std::time::Duration;
        let mut t = Topology::new();
        let src = t.add_stage("src", 1);
        let snk = t.add_stage("snk", sink_nodes);
        t.add_edge(src, snk);
        let f_src: StageFactory = Box::new(move |_| {
            Box::new(move |ctx: &mut StageCtx<'_>| {
                ctx.phase(Phase::Send);
                let msg = (!ctx.cpi.is_multiple_of(3)).then_some(ctx.cpi);
                for dst in 0..sink_nodes {
                    ctx.send_to(StageId(1), dst, 0, msg)?;
                }
                Ok(())
            })
        });
        let f_snk: StageFactory = Box::new(move |_| {
            Box::new(move |ctx: &mut StageCtx<'_>| {
                ctx.phase(Phase::Recv);
                let got: Option<u64> = ctx.recv_from(StageId(0), 0, 0)?;
                assert_eq!(got, (!ctx.cpi.is_multiple_of(3)).then_some(ctx.cpi));
                ctx.phase(Phase::Compute);
                std::thread::sleep(Duration::from_millis(sink_ms));
                if Some(ctx.cpi) == fail_at {
                    return Err(ctx.fail("sink gave up"));
                }
                Ok(())
            })
        });
        Pipeline::new(t, vec![f_src, f_snk])
    }

    #[test]
    fn credit_window_holds_the_source_behind_a_slow_sink() {
        let cpis = 12;
        let report = slow_sink_pipeline(2, 4, None).run(cpis, 0).unwrap();
        let w = report.credit_window;
        assert_eq!(w, 2, "window is the stage count");
        let src = &report.records[0][0];
        for k in w..cpis {
            let start = src.iter().find(|r| r.cpi == k).unwrap().start;
            for node in &report.records[1] {
                let done = node.iter().find(|r| r.cpi == k - w).unwrap().end;
                assert!(
                    start >= done,
                    "source started CPI {k} at {start} before a sink finished CPI {} at {done}",
                    k - w
                );
            }
        }
        // The source outran the sink, so it waited, outside its records.
        assert!(report.credit_wait_secs[0][0] > 0.0);
        assert!(report.credit_wait_secs[1].iter().all(|&w| w == 0.0));
        assert!(report.credit_wait_text().contains("src"));
    }

    #[test]
    fn credit_wait_aborts_when_a_sink_fails() {
        // The sink dies on CPI 5 while the source blocks on credit for CPI
        // 7; the abort must wake it and surface the sink's error.
        match slow_sink_pipeline(1, 2, Some(5)).run(40, 0).unwrap_err() {
            PipelineError::Stage { stage, message } => {
                assert_eq!(stage, "snk");
                assert!(message.contains("sink gave up"));
            }
            other => panic!("expected the sink's stage error, got {other:?}"),
        }
    }

    #[test]
    fn waiting_for_credit_keeps_the_watchdog_quiet() {
        use std::time::Duration;
        // Each sink CPI takes 150 ms, so the source waits about that long
        // per CPI, well past its own 60 ms deadline; its heartbeats while
        // waiting keep the watchdog from firing.
        let spec =
            WatchdogSpec { deadlines: vec![Duration::from_millis(60), Duration::from_secs(5)] };
        let report = slow_sink_pipeline(1, 150, None).run_with_watchdog(5, 0, &spec).unwrap();
        assert!(report.credit_wait_secs[0][0] > 0.1);
    }

    #[test]
    fn virtual_clock_reports_no_credit_wait() {
        let report = slow_sink_pipeline(1, 2, None)
            .run_configured(8, 0, None, ClockSpec::Virtual { tick: 1e-3 })
            .unwrap();
        assert!(report.credit_wait_secs.iter().flatten().all(|&w| w == 0.0));
        assert_eq!(report.credit_wait_text(), "credit wait    : none (window 2 CPIs)\n");
    }

    #[test]
    fn cpis_run_in_order_per_node() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let mut t = Topology::new();
        t.add_stage("solo", 1);
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        let f: StageFactory = Box::new(move |_| {
            let seen = Arc::clone(&seen2);
            Box::new(move |ctx: &mut StageCtx<'_>| {
                assert_eq!(seen.fetch_add(1, Ordering::SeqCst), ctx.cpi);
                Ok(())
            })
        });
        let p = Pipeline::new(t, vec![f]);
        p.run(4, 0).unwrap();
        assert_eq!(seen.load(Ordering::SeqCst), 4);
    }
}
