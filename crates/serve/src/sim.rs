//! The DES backend of the fleet loop: predict fleet behaviour without
//! running pipelines.
//!
//! `ppstap serve --sim` replays a workload script through the same
//! [fleet loop](crate::fleet) and [`Scheduler`](crate::Scheduler) as the
//! real executor, but runs missions as discrete-event processes: each CPI
//! posts its stripe-unit reads to one shared multi-server FCFS store
//! ([`stap_des::FcfsResource`]) and then computes for the plan's residual
//! cycle time. Co-located missions queue behind each other on the stripe
//! directories they share, so the simulation reports contention-stretched
//! runtimes (slowdown), queue waits, SLA hit-rate, and fleet store
//! utilization — the capacity-planning questions — in milliseconds of wall
//! time.
//!
//! Two read models are available: [`ReadModel::Planned`] derives per-unit
//! service times from the machine profile's file system (pure prediction),
//! while [`ReadModel::Measured`] is calibrated from an uncontended executed
//! run (used by the serve-conformance suite to compare prediction against
//! execution on the same footing).

use crate::fleet::{self, Backend, Cx, FleetReport, StoreUse};
use crate::mission::{MissionReport, MissionSource, PlanChoice, SlaVerdict};
use crate::scheduler::{Dispatch, ServeConfig};
use crate::script::WorkloadScript;
use stap_des::{FcfsResource, SimTime, StagingModel, StagingPolicy};
use stap_ingest::BackpressurePolicy;
use stap_model::workload::ShapeParams;
use stap_pfs::{FsConfig, StripeLayout};
use std::collections::HashMap;

/// How the simulator prices a mission's per-CPI read.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ReadModel {
    /// Derive stripe-unit service times from the plan's file-system profile
    /// (prediction from first principles).
    #[default]
    Planned,
    /// Calibrated against an executed uncontended run: each CPI costs
    /// `runtime_per_cpi`, of which `read_fraction` is read time on the
    /// shared store.
    Measured {
        /// Executed seconds per CPI, uncontended.
        runtime_per_cpi: f64,
        /// Fraction of that spent reading (0..1).
        read_fraction: f64,
    },
}

/// Simulation configuration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimConfig {
    /// Fleet configuration (pool, workers, queue bound, stripe servers).
    pub serve: ServeConfig,
    /// Read-pricing model.
    pub read_model: ReadModel,
}

/// The simulated fleet's report: every mission's predicted service
/// record (drops and retries are always zero in simulation, `slowdown` is
/// the contention stretch) and the shared store's use.
pub type SimFleetReport = FleetReport;

/// A running simulated mission.
struct Active {
    cpis: u64,
    cpis_done: u64,
    nominal_runtime: f64,
    /// `(stripe server, service seconds)` per read request, one CPI's worth.
    reads: Vec<(usize, f64)>,
    /// Residual compute per CPI after the uncontended read, seconds.
    compute: f64,
    /// Virtual staging ring gating each CPI of a stream-fed mission
    /// (file-fed missions: `None`).
    staging: Option<StagingModel>,
    /// What happened when the fault fired.
    failover: Option<String>,
}

/// The DES backend: every CPI posts its reads to one shared FCFS store,
/// then computes; the mission wakes at each CPI's cycle end.
struct Des {
    model: ReadModel,
    store: FcfsResource,
    active: HashMap<u64, Active>,
}

/// Replays a workload script in virtual time and reports the predicted
/// per-mission service and fleet capacity figures.
pub fn simulate_fleet(script: &WorkloadScript, cfg: &SimConfig) -> SimFleetReport {
    let des = Des {
        model: cfg.read_model.clone(),
        store: FcfsResource::new("stripe-store", cfg.serve.stripe_servers.max(1)),
        active: HashMap::new(),
    };
    fleet::run(script, &cfg.serve, des)
}

impl Backend for Des {
    fn start(&mut self, d: &Dispatch, cx: &mut Cx<'_>) {
        let cpis = d.spec.cpis.max(2);
        let (mut reads, compute, mut nominal_per_cpi) = price_cpi(&d.plan, &self.model);
        let staging = match d.spec.source {
            MissionSource::File => None,
            MissionSource::Stream { depth, policy, rate } => {
                // Stream missions bypass the striped store: their per-CPI
                // gate is cube arrival through the staging ring, not a
                // stripe read, so the nominal cycle is compute only.
                reads.clear();
                nominal_per_cpi = compute;
                let period =
                    if rate > 0.0 { SimTime::from_secs_f64(1.0 / rate) } else { SimTime::ZERO };
                Some(StagingModel::new(depth, period, cpis, staging_policy(policy)))
            }
        };
        let active = Active {
            cpis,
            cpis_done: 0,
            nominal_runtime: nominal_per_cpi * cpis as f64,
            reads,
            compute,
            staging,
            failover: None,
        };
        self.active.insert(d.id, active);
        self.step_cpi(d, cx);
    }

    fn wake(&mut self, d: &Dispatch, cx: &mut Cx<'_>) -> Option<MissionReport> {
        let a = self.active.get(&d.id).expect("running missions are active");
        if a.cpis_done < a.cpis {
            self.step_cpi(d, cx);
            return None;
        }
        let a = self.active.remove(&d.id).expect("running missions are active");
        let end = cx.now.as_secs_f64();
        let runtime = (end - d.start).max(1e-12);
        // Contention stretches every CPI cycle; the achieved latency is the
        // plan's pipeline latency plus the per-CPI stretch.
        let stretch = (runtime - a.nominal_runtime).max(0.0) / a.cpis as f64;
        let latency = d.plan.latency + stretch;
        Some(MissionReport {
            throughput: a.cpis as f64 / runtime,
            latency,
            slowdown: runtime / a.nominal_runtime.max(1e-12),
            staging_peak: a.staging.as_ref().map_or(0, |s| s.counters().peak),
            sla: SlaVerdict::grade(d.spec.max_latency, latency),
            failover: a.failover,
            ..fleet::mission_report(d, d.plan.clone(), end)
        })
    }

    fn finish(self, report: &mut SimFleetReport) {
        let utilization = self.store.utilization(SimTime::from_secs_f64(report.makespan));
        report.store = Some(StoreUse { utilization, jobs: self.store.jobs() });
    }
}

impl Des {
    /// Runs the next CPI of mission `d`: queue its reads on the shared
    /// store, then compute; wakes the mission at the cycle end.
    fn step_cpi(&mut self, d: &Dispatch, cx: &mut Cx<'_>) {
        let now = cx.now;
        let servers = self.store.servers();
        let a = self.active.get_mut(&d.id).expect("running missions are active");
        // A configured fleet fault fires once, the moment a file-fed
        // mission reaches its CPI (stream missions bypass the striped
        // store): the attempt so far is discarded (the executor's first
        // pipeline dies on the infrastructure-loss error), the store is
        // marked degraded, and the mission restarts with its reads
        // re-striped over the survivors — failover, not abort.
        if let (Some(f), None, None) = (cx.sched.config().fault, &a.staging, &a.failover) {
            if a.cpis_done >= f.at_cpi {
                a.cpis_done = 0;
                let sf = d.plan.stripe_factor.max(2);
                let stretch = sf as f64 / (sf as f64 - 1.0);
                for r in &mut a.reads {
                    r.1 *= stretch;
                }
                a.failover = Some(format!(
                    "stripe server {} lost at CPI {}; re-striped over {} surviving directories \
                     (degraded)",
                    f.server,
                    f.at_cpi,
                    sf - 1
                ));
                cx.sched.mark_server_lost(f.server);
            }
        }
        let rotate = match self.model {
            // Planned requests already carry their stripe directory.
            ReadModel::Planned => 0,
            // Measured aggregates rotate over the plan's directories so
            // co-located missions still collide on shared servers.
            ReadModel::Measured { .. } => (a.cpis_done as usize) % d.plan.stripe_factor.max(1),
        };
        let mut read_done = now;
        for &(srv, svc) in &a.reads {
            let (_, done) =
                self.store.submit_to((srv + rotate) % servers, now, SimTime::from_secs_f64(svc));
            read_done = read_done.max(done);
        }
        // Stream missions gate on the staging ring instead: the CPI starts
        // when its cube has arrived (a lossy ring delivers what survives;
        // an exhausted one stops gating).
        if let Some(staging) = a.staging.as_mut() {
            if let Some(ready) = staging.pop(now) {
                read_done = read_done.max(ready);
            }
        }
        a.cpis_done += 1;
        cx.queue.wake_at(read_done + SimTime::from_secs_f64(a.compute), d.id);
    }
}

/// Maps the real staging tier's backpressure policy onto the DES model's.
fn staging_policy(p: BackpressurePolicy) -> StagingPolicy {
    match p {
        BackpressurePolicy::Block => StagingPolicy::Block,
        BackpressurePolicy::DropOldest => StagingPolicy::DropOldest,
        BackpressurePolicy::Reject => StagingPolicy::Reject,
    }
}

/// Prices one CPI of a plan: the stripe-read request list, the residual
/// compute, and the uncontended per-CPI cycle time.
fn price_cpi(plan: &PlanChoice, model: &ReadModel) -> (Vec<(usize, f64)>, f64, f64) {
    match model {
        ReadModel::Planned => {
            let fs = FsConfig::paragon_pfs(plan.stripe_factor);
            let layout = StripeLayout::new(fs.stripe_unit, fs.stripe_factor);
            let bytes = ShapeParams::paper_default().cube_bytes();
            let reads: Vec<(usize, f64)> = layout
                .map_extent(0, bytes)
                .into_iter()
                .map(|r| {
                    let service =
                        fs.request_latency.as_secs_f64() + r.len as f64 / fs.server_bandwidth;
                    (r.server, service)
                })
                .collect();
            // Uncontended read: each of the sf directories serves its share
            // of the units back-to-back.
            let servers = plan.stripe_factor.max(1);
            let mut per_server = vec![0.0f64; servers];
            for &(srv, svc) in &reads {
                per_server[srv % servers] += svc;
            }
            let read_alone = per_server.iter().copied().fold(0.0, f64::max);
            // The plan's steady-state cycle is 1/throughput; whatever the
            // read does not account for is modelled as compute.
            let cycle = 1.0 / plan.throughput.max(1e-9);
            let compute = (cycle - read_alone).max(0.0);
            (reads, compute, read_alone + compute)
        }
        ReadModel::Measured { runtime_per_cpi, read_fraction } => {
            let read = runtime_per_cpi * read_fraction.clamp(0.0, 1.0);
            let compute = runtime_per_cpi - read;
            // One aggregate read per CPI, pinned (in `step_cpi`) to the
            // mission's stripe directories round-robin.
            (vec![(0, read)], compute, *runtime_per_cpi)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::FleetFault;

    fn cfg(workers: usize) -> SimConfig {
        SimConfig {
            serve: ServeConfig {
                pool_nodes: 60,
                workers,
                queue_capacity: 16,
                stripe_servers: 64,
                ..ServeConfig::default()
            },
            read_model: ReadModel::Planned,
        }
    }

    fn script(text: &str) -> WorkloadScript {
        WorkloadScript::parse(text).expect("valid script")
    }

    #[test]
    fn lone_mission_has_no_queue_wait_and_unit_slowdown() {
        let s = script("at 0 submit name=solo nodes=25 cpis=8\n");
        let r = simulate_fleet(&s, &cfg(2));
        assert_eq!(r.rows.len(), 1);
        let row = &r.rows[0];
        assert_eq!(row.queue_wait, 0.0);
        assert!(
            (row.slowdown - 1.0).abs() < 1e-6,
            "uncontended mission runs at nominal speed, got {}",
            row.slowdown
        );
        assert!(r.counters.completed == 1 && r.sched_conserved());
    }

    impl SimFleetReport {
        fn sched_conserved(&self) -> bool {
            let c = self.counters;
            c.submitted == c.rejected + c.cancelled + c.completed + c.failed
        }
    }

    #[test]
    fn co_located_missions_slow_each_other_down() {
        // Four tenants on the narrow-stripe machine: their reads pile onto
        // the same 16 directories, so everyone's cycles stretch.
        let s = script(
            "at 0 submit name=a machine=paragon16 nodes=25 cpis=8\n\
             at 0 submit name=b machine=paragon16 nodes=25 cpis=8\n\
             at 0 submit name=c machine=paragon16 nodes=25 cpis=8\n\
             at 0 submit name=d machine=paragon16 nodes=25 cpis=8\n",
        );
        let mut c = cfg(4);
        c.serve.pool_nodes = 200;
        let r = simulate_fleet(&s, &c);
        assert_eq!(r.rows.len(), 4);
        assert!(
            r.rows.iter().any(|row| row.slowdown > 1.2),
            "sharing stripe servers must stretch the fleet: {:?}",
            r.rows.iter().map(|x| x.slowdown).collect::<Vec<_>>()
        );
    }

    #[test]
    fn single_worker_serializes_and_reports_queue_wait() {
        let s = script(
            "at 0 submit name=a nodes=25 cpis=4\n\
             at 0 submit name=b nodes=25 cpis=4\n",
        );
        let r = simulate_fleet(&s, &cfg(1));
        let b = r.rows.iter().find(|x| x.name == "b").expect("b completes");
        let a = r.rows.iter().find(|x| x.name == "a").expect("a completes");
        assert!(b.queue_wait > 0.5 * (a.end - a.start), "b waits for a: {}", b.queue_wait);
        assert!((b.start - a.end).abs() < 1e-9, "b starts when a releases the worker");
    }

    #[test]
    fn priority_preempts_queue_order_not_running_missions() {
        let s = script(
            "at 0.0 submit name=lo nodes=25 cpis=4\n\
             at 0.1 submit name=mid nodes=25 cpis=4 priority=1\n\
             at 0.2 submit name=hi nodes=25 cpis=4 priority=9\n",
        );
        let r = simulate_fleet(&s, &cfg(1));
        let order: Vec<&str> = {
            let mut rows: Vec<&MissionReport> = r.rows.iter().collect();
            rows.sort_by(|x, y| x.start.total_cmp(&y.start));
            rows.iter().map(|x| x.name.as_str()).collect()
        };
        assert_eq!(order, vec!["lo", "hi", "mid"], "hi jumps the queue, lo keeps running");
    }

    #[test]
    fn rejections_and_cancellations_are_reported() {
        let s = script(
            "at 0 submit name=big nodes=500\n\
             at 0 submit name=a nodes=25 cpis=4\n\
             at 0 submit name=b nodes=25 cpis=4\n\
             at 0.01 cancel name=b\n",
        );
        let r = simulate_fleet(
            &s,
            &SimConfig { serve: ServeConfig { workers: 1, ..cfg(1).serve }, ..cfg(1) },
        );
        assert_eq!(r.rejected.len(), 1);
        assert!(r.rejected[0].1.contains("pool"), "{}", r.rejected[0].1);
        assert_eq!(r.cancelled, vec!["b".to_string()]);
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn sla_hit_rate_grades_bounded_missions_only() {
        let s = script(
            "at 0 submit name=loose nodes=25 cpis=4 max-latency=30\n\
             at 0 submit name=free nodes=25 cpis=4\n",
        );
        let r = simulate_fleet(&s, &cfg(2));
        assert_eq!(r.sla_hit_rate(), Some(1.0), "loose bound is met; unbounded not graded");
    }

    #[test]
    fn measured_model_honours_calibration() {
        let s = script("at 0 submit name=a nodes=25 cpis=10\n");
        let c = SimConfig {
            serve: cfg(2).serve,
            read_model: ReadModel::Measured { runtime_per_cpi: 0.5, read_fraction: 0.3 },
        };
        let r = simulate_fleet(&s, &c);
        let row = &r.rows[0];
        assert!((row.end - row.start - 5.0).abs() < 1e-6, "uncontended = nominal");
        assert!((row.slowdown - 1.0).abs() < 1e-6, "{}", row.slowdown);
    }

    #[test]
    fn report_renders_text_and_json() {
        let s = script(
            "at 0 submit name=a nodes=25 cpis=4 max-latency=30\n\
             at 0 submit name=b nodes=25 cpis=4\n",
        );
        let r = simulate_fleet(&s, &cfg(2));
        let text = r.render_text();
        assert!(text.contains("SLA hit-rate"));
        assert!(text.contains("store util"));
        let v = stap_trace::json::parse(&r.to_json()).expect("valid JSON");
        assert_eq!(v.get("mode").unwrap().as_str(), Some("sim"));
        let missions = v.get("missions").unwrap().as_array().unwrap();
        assert_eq!(missions.len(), 2);
        assert!(missions[0].get("queue_wait").is_some());
    }

    #[test]
    fn streamed_mission_gates_on_arrivals_not_the_store() {
        // A slow frontend (2 cubes/s) paces the mission: its predicted
        // runtime is at least arrivals' span, and it posts no store reads.
        let s = script("at 0 submit name=slow nodes=25 cpis=8 source=stream staging=4 rate=2\n");
        let r = simulate_fleet(&s, &cfg(2));
        assert_eq!(r.rows.len(), 1);
        let row = &r.rows[0];
        assert!(row.end - row.start >= 3.4, "8 cubes at 2/s pace the run: {}", row.end);
        assert!(row.staging_peak >= 1);
        assert_eq!(r.store.map(|s| s.jobs), Some(0), "stream missions bypass the striped store");
        assert!(row.slowdown >= 1.0);

        // An unpaced frontend fills the ring instead: peak hits the depth
        // and the mission runs at compute speed.
        let s = script("at 0 submit name=fast nodes=25 cpis=8 source=stream staging=4\n");
        let r2 = simulate_fleet(&s, &cfg(2));
        assert!(r2.rows[0].staging_peak <= 4, "peak bounded by ring depth");
        assert!(r2.rows[0].end <= row.end, "unpaced stream is never slower than paced");
        let v = stap_trace::json::parse(&r2.to_json()).expect("valid JSON");
        let missions = v.get("missions").unwrap().as_array().unwrap();
        assert!(missions[0].get("staging_peak").unwrap().as_f64().unwrap() >= 1.0);
    }

    #[test]
    fn simulated_fleet_fault_fails_over_and_grades_the_counterfactual() {
        let s = script(
            "at 0 submit name=a nodes=25 cpis=8 max-latency=60\n\
             at 0 submit name=b nodes=25 cpis=8\n",
        );
        let mut c = cfg(2);
        c.serve.fault = Some(FleetFault { server: 0, at_cpi: 2 });
        let r = simulate_fleet(&s, &c);
        assert_eq!(r.rows.len(), 2, "both missions complete degraded");
        assert!(r.rows.iter().all(|row| row.failover.is_some()), "{:?}", r.rows);
        assert_eq!(r.failovers(), 2);
        let a = r.rows.iter().find(|x| x.name == "a").expect("a completes");
        assert!(a.slowdown > 1.0, "lost work plus degraded reads stretch the run: {}", a.slowdown);
        assert_eq!(r.sla_hit_rate(), Some(1.0), "degraded run still meets the loose bound");
        assert_eq!(r.sla_hit_rate_no_failover(), Some(0.0), "counterfactual death");
        let text = r.render_text();
        assert!(text.contains("failover a:"), "{text}");
        assert!(text.contains("no failover"), "{text}");
        let v = stap_trace::json::parse(&r.to_json()).expect("valid JSON");
        assert_eq!(v.get("failovers").and_then(|x| x.as_f64()), Some(2.0));
        assert_eq!(v.get("sla_hit_rate_no_failover").and_then(|x| x.as_f64()), Some(0.0));
    }

    #[test]
    fn healthy_fleet_predictions_are_unchanged_by_the_fault_field() {
        let s = script("at 0 submit name=solo nodes=25 cpis=8\n");
        let healthy = simulate_fleet(&s, &cfg(2));
        let mut c = cfg(2);
        c.serve.fault = None;
        let with_field = simulate_fleet(&s, &c);
        assert_eq!(healthy.rows, with_field.rows, "None fault is byte-identical behavior");
        assert_eq!(healthy.failovers(), 0);
    }

    #[test]
    fn store_utilization_is_positive_and_bounded() {
        let s = script("at 0 submit name=a nodes=25 cpis=4\n");
        let r = simulate_fleet(&s, &cfg(2));
        let store = r.store.expect("the DES models the store");
        assert!(store.utilization > 0.0 && store.utilization <= 1.0);
        assert!(store.jobs > 0);
    }
}
