//! The control plane, timed from outside: Pareto planning over every paper
//! machine with the widened I/O menu and DES validation, then a simulated
//! fleet on a seeded bursty arrival trace. These calls run `stap-model`,
//! `stap-des`, `stap-planner` and `stap-serve`; a traced run times them
//! after its pipeline windows and checks their answers.

use crate::report::Outcome;
use crate::stats::{self, median};
use ppstap::model::machines::MachineModel;
use ppstap::planner::{plan, PlannerConfig, SearchReport};
use ppstap::serve::sim::{SimConfig, SimFleetReport};
use ppstap::serve::{generate_script, simulate_fleet, ArrivalSpec, MissionSpec, WorkloadScript};
use std::hint::black_box;
use std::time::Instant;

/// Compute-node budget of the planning request.
pub const BUDGET: usize = 25;
/// The fleet's arrival process: bursts of 1.5 missions/s between lulls of
/// 0.25/s, dwelling 10 s on average in each. Bursts overrun the default
/// fleet, so missions queue and a few are rejected.
pub const ARRIVALS: ArrivalSpec = ArrivalSpec::Bursty { lo: 0.25, hi: 1.5, dwell: 10.0 };
/// Seconds of simulated arrivals (about 250 missions).
pub const DURATION_S: f64 = 300.0;
/// Repetitions of each timed call; the median is reported.
const REPS: usize = 5;
/// Committed fingerprints, hex: a `plan FP` line for the (seed-free)
/// planning request, then one `SEED FP` line per tabled fleet seed.
const GOLDEN: &str = include_str!("../fingerprints.txt");

/// The planning request: all paper machines, `--io auto` menu, DES on.
pub fn planner_config() -> PlannerConfig {
    let mut cfg = PlannerConfig::new(MachineModel::paper_machines(), BUDGET);
    cfg.ios = ppstap::cli::auto_io_menu();
    cfg
}

/// The seeded arrival trace the fleet simulator replays.
pub fn fleet_script(seed: u64) -> WorkloadScript {
    generate_script(&ARRIVALS, DURATION_S, seed, &MissionSpec::new("m"))
}

/// Fingerprint of the Pareto front: every front plan's identity and exact
/// metrics.
pub fn plan_fingerprint(r: &SearchReport) -> u64 {
    let text: String = r
        .front()
        .iter()
        .map(|p| {
            format!(
                "{} sf={} {} {} [{}] {:?} an={:e}/{:e} des={:?}\n",
                p.machine,
                p.stripe_factor,
                p.io.label(),
                p.tail.label(),
                p.assignment_str(),
                p.redundancy,
                p.analytic.throughput,
                p.analytic.latency,
                p.des.map(|m| (m.throughput, m.latency)),
            )
        })
        .collect();
    stats::fnv1a(text.as_bytes())
}

/// Fingerprint of the simulated fleet: every mission row, rejection and
/// counter.
pub fn fleet_fingerprint(r: &SimFleetReport) -> u64 {
    let mut text: String = r
        .rows
        .iter()
        .map(|m| {
            format!(
                "{} {} {:e} {:e} {:e} {} {:e} {:e} {} {:?}\n",
                m.id,
                m.name,
                m.submit,
                m.start,
                m.end,
                m.plan.summary(),
                m.throughput,
                m.latency,
                m.staging_peak,
                m.sla
            )
        })
        .collect();
    for (name, why) in &r.rejected {
        text.push_str(&format!("rejected {name}: {why}\n"));
    }
    text.push_str(&format!("{:?} makespan={:e}\n", r.counters, r.makespan));
    stats::fnv1a(text.as_bytes())
}

/// The committed fingerprint under `key` (`plan`, or a fleet seed).
fn golden(key: &str) -> Option<u64> {
    GOLDEN.lines().find_map(|line| {
        let (k, fp) = line.split_once(' ')?;
        (k == key).then(|| u64::from_str_radix(fp, 16).ok()).flatten()
    })
}

/// Times `plan` (with and without DES validation) and `simulate_fleet`,
/// pushes the control-plane layer metrics, and returns how many answers
/// were checked and how many mismatched the committed fingerprints (or,
/// for a fleet seed the table lacks, the first answer).
pub fn layers(o: &mut Outcome, seed: u64) -> (u64, u64) {
    let (pcfg, script, sim) = (planner_config(), fleet_script(seed), SimConfig::default());
    let search_cfg = pcfg.clone().without_des();
    let (mut plan_s, mut search_s, mut fleet_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut plans, mut fleets) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..REPS {
        let t = Instant::now();
        let report = black_box(plan(black_box(&pcfg)));
        plan_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        black_box(plan(black_box(&search_cfg)));
        search_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let fleet = black_box(simulate_fleet(&script, &sim));
        fleet_s.push(t.elapsed().as_secs_f64());
        plans.push(plan_fingerprint(&report));
        fleets.push(fleet_fingerprint(&fleet));
        last = Some((report, fleet));
    }
    let (report, fleet) = last.expect("REPS > 0");
    let golden_fleet = golden(&seed.to_string());
    let want_plan = golden("plan").unwrap_or(plans[0]);
    let want_fleet = golden_fleet.unwrap_or(fleets[0]);
    let failed = stats::mismatches(want_plan, &plans) + stats::mismatches(want_fleet, &fleets);
    o.note(format!(
        "control plane: budget={BUDGET} machines=paper io=auto arrivals={} duration={DURATION_S}s \
         fleet_seed={seed} fleet_reference={}",
        ARRIVALS.label(),
        if golden_fleet.is_some() { "golden" } else { "first-answer" }
    ));

    let (p, s, f) = (
        median(&plan_s).unwrap_or(0.0),
        median(&search_s).unwrap_or(0.0),
        median(&fleet_s).unwrap_or(0.0),
    );
    let st = report.stats;
    o.push("planner.plan_s", p, "s", REPS);
    o.push("planner.search_s", s, "s", REPS);
    o.push("planner.labels_created", st.labels_created as f64, "count", 1);
    o.push("planner.labels_pruned", st.labels_pruned as f64, "count", 1);
    o.push("planner.exact_evals", st.exact_evals as f64, "count", 1);
    o.push("des.validate_s", p - s, "s", REPS);
    o.push("des.evals", st.des_evals as f64, "count", 1);
    o.note(format!(
        "split planner.plan_s {p} = planner.search_s {s} + des.validate_s {} \
         (the DES share is defined as the difference, so no residual)",
        p - s
    ));
    let c = fleet.counters;
    o.push("serve.fleet_sim_s", f, "s", REPS);
    o.push("serve.admitted", (c.submitted - c.rejected) as f64, "count", 1);
    o.push("serve.rejected", c.rejected as f64, "count", 1);
    o.push("serve.sim_s_per_mission", f / c.submitted.max(1) as f64, "s", REPS);
    (2 * REPS as u64, failed as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regenerates the table with `UPDATE_GOLDEN=1`; otherwise checks the
    /// first tabled seeds still reproduce.
    #[test]
    fn fingerprints_match_the_golden_table() {
        let pcfg = planner_config();
        let plan_fp = plan_fingerprint(&plan(&pcfg));
        let sim = SimConfig::default();
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            let mut table = format!("plan {plan_fp:016x}\n");
            for s in 0..=GOLDEN_SEEDS {
                let f = fleet_fingerprint(&simulate_fleet(&fleet_script(s), &sim));
                table.push_str(&format!("{s} {f:016x}\n"));
            }
            std::fs::write(concat!(env!("CARGO_MANIFEST_DIR"), "/fingerprints.txt"), table)
                .expect("write fingerprints.txt");
            return;
        }
        assert_eq!(golden("plan"), Some(plan_fp), "plan front changed");
        for seed in [0, 1, 7] {
            let f = fleet_fingerprint(&simulate_fleet(&fleet_script(seed), &sim));
            assert_eq!(golden(&seed.to_string()), Some(f), "fleet rows changed for seed {seed}");
        }
    }

    /// Highest seed the committed table covers.
    const GOLDEN_SEEDS: u64 = 1023;

    #[test]
    fn a_changed_front_or_fleet_changes_the_fingerprint() {
        let sim = SimConfig::default();
        let a = simulate_fleet(&fleet_script(1), &sim);
        let mut b = a.clone();
        assert_eq!(fleet_fingerprint(&a), fleet_fingerprint(&b));
        b.rows[0].end += 1e-9;
        assert_ne!(fleet_fingerprint(&a), fleet_fingerprint(&b));
        let mut r = plan(&planner_config().without_des());
        let before = plan_fingerprint(&r);
        let id = r.front_ids[0];
        r.plans[id].analytic.latency *= 1.0 + 1e-12;
        assert_ne!(before, plan_fingerprint(&r));
    }
}
