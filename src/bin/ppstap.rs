//! `ppstap` — the command-line driver.
//!
//! See `ppstap help` (or [`ppstap::cli::HELP`]) for usage.

use ppstap::cli::{
    machine_for, parse, Command, PlanArgs, RunArgs, ServeArgs, SimArgs, SubmitArgs, TraceMode,
    VerifyArgs, HELP,
};
use ppstap::core::config::StapConfig;
use ppstap::core::desmodel::{render_gantt, DesExperiment};
use ppstap::core::experiments::ablation::sweep_stripe_factor;
use ppstap::core::StapSystem;
use ppstap::pfs::FsConfig;
use ppstap::pipeline::timing::Phase;
use ppstap::pipeline::topology::StageId;
use ppstap::pipeline::ClockSpec;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg_refs: Vec<&str> = args.iter().map(|s| s.as_str()).collect();
    match parse(&arg_refs) {
        Ok(Command::Help) => print!("{HELP}"),
        Ok(Command::Run(a)) => run(a),
        Ok(Command::Sim(a)) => sim(a),
        Ok(Command::Tables { out }) => tables(out),
        Ok(Command::Sweep { nodes }) => sweep(nodes),
        Ok(Command::Plan(a)) => plan_cmd(a),
        Ok(Command::Serve(a)) => serve_cmd(a),
        Ok(Command::Submit(a)) => submit_cmd(a),
        Ok(Command::Verify(a)) => verify_cmd(a),
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{HELP}");
            std::process::exit(2);
        }
    }
}

fn fs_for(key: &str) -> FsConfig {
    match key {
        "pfs16" => FsConfig::paragon_pfs(16),
        "pfs64" => FsConfig::paragon_pfs(64),
        "piofs" => FsConfig::piofs(),
        _ => unreachable!("validated by the parser"),
    }
}

fn run(a: RunArgs) {
    let source = a
        .source
        .as_deref()
        .map(|s| ppstap::core::SourceSpec::parse(s).expect("validated by the parser"))
        .unwrap_or_default();
    let config = StapConfig {
        io: a.io,
        access: a.access,
        tail: a.tail,
        cpis: a.cpis,
        warmup: (a.cpis / 3).max(1),
        fs: fs_for(&a.fs),
        record_reports: a.record_reports,
        fault_plan: a.fault_plan.clone(),
        failure_policy: a.failure_policy,
        watchdog: a.watchdog.then(ppstap::core::WatchdogPolicy::default),
        source,
        kernel_path: a.kernels,
        schedule: a.schedule,
        copy_comm: a.copy_comm,
        ..StapConfig::default()
    };
    println!("structure : {} / {}", config.io.label(), config.tail.label());
    if config.io.uses_store_tier() || config.access != ppstap::store::CubeAccess::Resident {
        println!("store tier: io={} access={}", config.io.describe(), config.access.label());
    }
    println!(
        "data plane: kernels={} schedule={} comm={}",
        config.kernel_path,
        config.schedule.label(),
        if config.copy_comm { "copy" } else { "zero-copy" }
    );
    println!(
        "files     : {} x {} KiB on {}",
        config.fanout,
        config.dims.bytes() / 1024,
        config.fs.name
    );
    let system = match StapSystem::prepare(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let clocks = if a.virtual_clock { ClockSpec::virtual_default() } else { ClockSpec::Wall };
    let out = match system.run_with_clock(clocks) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "\n{:<16}{:>7}{:>10}{:>10}{:>10}{:>10}{:>10}{:>10}{:>10}{:>10}{:>10}{:>10}{:>10}",
        "task",
        "nodes",
        "read",
        "recv",
        "wwait",
        "compute",
        "send",
        "backoff",
        "ingest",
        "failover",
        "steal",
        "cachehit",
        "total"
    );
    for (i, stage) in system.topology().stages().iter().enumerate() {
        let id = StageId(i);
        print!("{:<16}{:>7}", stage.name, stage.nodes);
        for phase in Phase::ALL {
            print!("{:>10.4}", out.timing.phase_time(id, phase));
        }
        println!("{:>10.4}", out.timing.task_time(id));
    }
    print!("{}", out.timing.credit_wait_text());
    if let Some(ing) = &out.ingest {
        println!(
            "\ningest ({})  : {} accepted, {} delivered, {} dropped, {} rejected, peak depth {}",
            ing.policy.label(),
            ing.ring.accepted,
            ing.ring.delivered,
            ing.ring.dropped,
            ing.ring.rejected,
            ing.ring.peak_depth
        );
    }
    if let Some(st) = &out.store {
        println!(
            "\ncache hit-rate : {:>8.0}%  ({} hits, {} misses, {} readaheads, {} evictions)",
            st.hit_rate * 100.0,
            st.hits,
            st.misses,
            st.readaheads,
            st.evictions
        );
        if let Some((peak, bound)) = st.footprint {
            println!("ooc footprint  : peak {peak} B within the {bound} B bound");
        }
    }
    println!("\nthroughput     : {:>9.2} CPIs/s", out.throughput());
    println!("latency (mean) : {:>9.4} s", out.latency());
    println!(
        "latency (p95)  : {:>9.4} s",
        out.timing.latency_percentile(out.source, out.sink, 95.0)
    );
    if a.fault_plan.is_some() || !out.dropped.is_empty() || out.retries > 0 {
        println!("delivered      : {:>9.2} CPIs/s", out.delivered_throughput());
        println!("read retries   : {:>9}", out.retries);
        for g in &out.dropped {
            println!("dropped CPI {} at {}: {}", g.cpi, g.origin, g.reason);
        }
    }
    for r in &out.reports {
        println!("CPI {}: {} detections", r.cpi, r.cluster(4).len());
    }
    if a.record_reports {
        println!("\nreports written to report_<cpi>.dat on the parallel file system");
    }
    match &a.trace {
        Some(TraceMode::Text) => {
            println!("\nphase statistics (all nodes, all CPIs):");
            print!("{}", out.timing.phase_table_text());
        }
        Some(TraceMode::Chrome(path)) => {
            if let Err(e) = std::fs::write(path, out.timing.chrome_trace()) {
                eprintln!("error: writing trace to {path}: {e}");
                std::process::exit(1);
            }
            println!("\nChrome trace written to {path} (load in chrome://tracing or Perfetto)");
        }
        None => {}
    }
}

fn sim(a: SimArgs) {
    let machine = machine_for(&a.machine).expect("validated by the parser");
    let mut exp = DesExperiment::new(machine, a.io, a.tail, a.nodes);
    if a.fault_rate > 0.0 {
        exp.faults = Some(ppstap::core::DesFaultModel::transient(
            ppstap::core::FaultSource::Random { rate: a.fault_rate, seed: a.fault_seed },
            u32::MAX,
            0.002,
            2,
            0.002,
        ));
    }
    if a.trace {
        exp.cpis = 24;
        let (result, trace) = exp.run_traced();
        print_result(&result);
        let horizon = trace
            .iter()
            .map(|e| e.end)
            .fold(0.0, f64::max)
            .min(3.0 * result.latency + 1.0 / result.throughput * 10.0);
        println!("\n{}", render_gantt(&result, &trace, horizon));
    } else {
        print_result(&exp.run());
    }
}

fn print_result(r: &ppstap::core::DesResult) {
    println!("{} — {} total nodes", r.machine, r.total_nodes);
    println!("{:<16}{:>7}{:>12}", "task", "nodes", "T_i (s)");
    for t in &r.tasks {
        println!("{:<16}{:>7}{:>12.4}", t.label, t.nodes, t.time);
    }
    println!(
        "\nthroughput       : {:>8.3} CPIs/s  (analytic {:>8.3})",
        r.throughput,
        r.analytic_throughput()
    );
    println!(
        "latency          : {:>8.4} s       (analytic {:>8.4})",
        r.latency,
        r.analytic_latency()
    );
    println!("I/O utilization  : {:>8.2}", r.io_utilization);
    if !r.dropped.is_empty() || r.retries > 0 {
        println!("delivered        : {:>8.3} CPIs/s", r.delivered_throughput);
        println!("read retries     : {:>8}", r.retries);
        let cpis: Vec<String> = r.dropped.iter().map(u64::to_string).collect();
        println!("dropped CPIs     : [{}]", cpis.join(", "));
    }
}

fn tables(out: Option<String>) {
    if let Some(dir) = &out {
        std::fs::create_dir_all(dir).expect("create output dir");
    }
    for artifact in stap_bench_shim::regenerate_all() {
        println!("{}", "=".repeat(100));
        println!("{}", artifact.1);
        if let Some(dir) = &out {
            let path = format!("{dir}/{}.txt", artifact.0);
            std::fs::write(&path, &artifact.1).expect("write artifact");
            eprintln!("wrote {path}");
        }
    }
}

/// Local re-implementation of the bench crate's artifact list (the umbrella
/// crate does not depend on `stap-bench`, which is a leaf).
mod stap_bench_shim {
    use ppstap::core::experiments::degradation::{
        fault_degradation, recoverable_degradation, render_degradation,
    };
    use ppstap::core::experiments::phases::phase_breakdown_report;
    use ppstap::core::experiments::render::{
        render_fig8, render_figure, render_table, render_table4,
    };
    use ppstap::core::experiments::validation::{render_validation, validate_embedded_grid};
    use ppstap::core::experiments::{fig8_from, table1, table2, table3, table4_from};

    pub fn regenerate_all() -> Vec<(&'static str, String)> {
        let t1 = table1();
        let t2 = table2();
        let t3 = table3();
        let t4 = table4_from(&t1, &t3);
        let mut out = vec![
            ("table1", render_table(&t1)),
            ("fig5", render_figure("Figure 5. Results corresponding to Table 1.", &t1)),
            ("table2", render_table(&t2)),
            ("fig6", render_figure("Figure 6. Results corresponding to Table 2.", &t2)),
            ("table3", render_table(&t3)),
            ("fig7", render_figure("Figure 7. Results corresponding to Table 3.", &t3)),
            ("table4", render_table4(&t4)),
        ];
        let f8 = fig8_from(t1, t3);
        out.push(("fig8", render_fig8(&f8)));
        out.push(("validation", render_validation(&validate_embedded_grid())));
        let rates = [0.0, 0.05, 0.1, 0.2, 0.3];
        out.push((
            "fault_degradation",
            render_degradation(&fault_degradation(&rates), &recoverable_degradation(&rates)),
        ));
        out.push(("phase_breakdown", phase_breakdown_report()));
        out.push(("serve_contention", ppstap::serve::experiments::contention_report()));
        out.push(("ingest_backpressure", ppstap::core::experiments::ingest::backpressure_report()));
        out.push(("detection_quality", ppstap::scenario::experiments::detection_quality()));
        out.push(("store_cache", ppstap::core::experiments::store::store_cache_report()));
        // Same rates as stap-bench's RELIABILITY_RATES (the umbrella crate
        // cannot depend on the leaf bench crate).
        out.push((
            "reliability_tradeoff",
            ppstap::planner::reliability::tradeoff_report(&[1e-5, 1e-4, 5e-4, 1e-3, 5e-3]),
        ));
        out
    }
}

fn plan_cmd(a: PlanArgs) {
    let machines = a.machines().expect("validated by the parser");
    let mut cfg = ppstap::planner::PlannerConfig::new(machines, a.nodes);
    if let Some(ios) = a.ios.clone() {
        cfg.ios = ios;
    }
    if a.no_des {
        cfg.validate_des = false;
    }
    cfg.max_latency = a.max_latency;
    if let Some(rate) = a.fault_rate {
        cfg = cfg.with_fault_rate(rate);
    }
    if let Some(bound) = a.max_failure_prob {
        cfg = cfg.with_max_failure_prob(bound);
    }
    let report = ppstap::planner::plan(&cfg);
    if a.json {
        println!("{}", ppstap::planner::to_json(&report));
    } else {
        print!("{}", ppstap::planner::render_text(&report));
    }
}

fn serve_config_from(a: &ServeArgs) -> ppstap::serve::ServeConfig {
    ppstap::serve::ServeConfig {
        pool_nodes: a.pool_nodes,
        workers: a.workers,
        queue_capacity: a.queue_capacity,
        staging_capacity: a.staging,
        fault: a.fault,
        ..ppstap::serve::ServeConfig::default()
    }
}

/// Maps a validated `--source` spec to the mission-script source.
fn mission_source_from(spec: &str) -> ppstap::serve::MissionSource {
    match ppstap::core::SourceSpec::parse(spec).expect("validated by the parser") {
        ppstap::core::SourceSpec::File => ppstap::serve::MissionSource::File,
        ppstap::core::SourceSpec::Stream(s) => {
            ppstap::serve::MissionSource::Stream { depth: s.depth, policy: s.policy, rate: s.rate }
        }
    }
}

fn serve_cmd(a: ServeArgs) {
    let script = if let Some(spec) = &a.arrivals {
        let mut template = ppstap::serve::MissionSpec::new("template");
        if let Some(src) = &a.source {
            template.source = mission_source_from(src);
        }
        let script = ppstap::serve::generate_script(spec, a.duration, a.arrival_seed, &template);
        eprintln!(
            "arrivals {}: {} missions over {} s (seed {})",
            spec.label(),
            script.submissions(),
            a.duration,
            a.arrival_seed
        );
        script
    } else {
        let text = match std::fs::read_to_string(&a.script) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: reading {}: {e}", a.script);
                std::process::exit(1);
            }
        };
        match ppstap::serve::WorkloadScript::parse(&text) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {}: {e}", a.script);
                std::process::exit(1);
            }
        }
    };
    let cfg = serve_config_from(&a);
    let out = if a.sim {
        let sim = ppstap::serve::sim::SimConfig {
            serve: cfg,
            read_model: ppstap::serve::sim::ReadModel::Planned,
        };
        ppstap::serve::simulate_fleet(&script, &sim)
    } else {
        ppstap::serve::run_fleet(&script, &cfg)
    };
    print!("{}", if a.json { out.to_json() + "\n" } else { out.render_text() });
    // Parsing rejects `--trace` with `--sim`: only executed fleets trace.
    if let Some(path) = &a.trace {
        if let Err(e) = std::fs::write(path, out.chrome_trace()) {
            eprintln!("error: writing trace to {path}: {e}");
            std::process::exit(1);
        }
        println!("fleet trace written to {path} (one mission-tagged track per mission)");
    }
    if out.rows.iter().any(|m| matches!(m.outcome, ppstap::serve::MissionOutcome::Failed(_))) {
        std::process::exit(1);
    }
}

fn submit_cmd(a: SubmitArgs) {
    let script = match ppstap::serve::WorkloadScript::parse(&a.script_text()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let out = ppstap::serve::run_fleet(&script, &ppstap::serve::ServeConfig::default());
    if let Some((name, why)) = out.rejected.first() {
        eprintln!("rejected {name}: {why}");
        std::process::exit(1);
    }
    if a.json {
        match out.rows.first() {
            Some(m) => println!("{}", m.to_json()),
            None => println!("{}", out.to_json()),
        }
    } else {
        print!("{}", ppstap::serve::fleet_table(&out.rows));
    }
    if out.rows.iter().any(|m| matches!(m.outcome, ppstap::serve::MissionOutcome::Failed(_))) {
        std::process::exit(1);
    }
}

fn verify_cmd(a: VerifyArgs) {
    use ppstap::scenario as sc;
    if a.list {
        println!("{:<14} {:<8} summary", "scenario", "targets");
        for s in sc::catalog() {
            println!("{:<14} {:<8} {}", s.name, s.scene.targets.len(), s.summary);
        }
        return;
    }
    let mut scenario = sc::find(&a.scenario).expect("validated by the parser");
    if let Some(path) = &a.requirements {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: reading {path}: {e}");
                std::process::exit(1);
            }
        };
        match sc::Requirement::parse(&text) {
            Ok(req) => scenario.requirement = req,
            Err(e) => {
                eprintln!("error: {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    let source = a
        .source
        .as_deref()
        .map(|s| ppstap::core::SourceSpec::parse(s).expect("validated by the parser"))
        .unwrap_or_default();
    if let Some(spec) = &a.sweep {
        let sweep = sc::Sweep::parse(spec).expect("validated by the parser");
        let points = match sc::sweep::run(&scenario, &sweep, &source) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        };
        let passed = points.iter().all(|p| p.report.passed());
        if a.json {
            let body: Vec<String> = points
                .iter()
                .map(|p| format!("{{\"value\": {}, \"report\": {}}}", p.value, p.report.to_json()))
                .collect();
            println!(
                "{{\"scenario\": \"{}\", \"axis\": \"{}\", \"passed\": {passed}, \
                 \"points\": [{}]}}",
                scenario.name,
                sweep.axis.name(),
                body.join(", ")
            );
        } else {
            print!("{}", sc::sweep::table(&scenario.name, &sweep, &points));
        }
        if !passed {
            std::process::exit(1);
        }
        return;
    }
    let evaluation = match sc::evaluate_with_source(&scenario, source) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let report = sc::check(&scenario.name, &scenario.requirement, &evaluation);
    if a.json {
        println!("{}", report.to_json());
    } else {
        println!("{}", evaluation.summary());
        print!("{}", report.table());
    }
    if !report.passed() {
        std::process::exit(1);
    }
}

fn sweep(nodes: usize) {
    println!("Paragon PFS stripe-factor sweep, {nodes} compute nodes, embedded I/O:\n");
    println!("{:<6}{:>12}{:>12}{:>10}", "sf", "CPI/s", "latency", "io util");
    for (sf, r) in sweep_stripe_factor(&[2, 4, 8, 16, 32, 64, 128], nodes) {
        println!("{:<6}{:>12.3}{:>12.4}{:>10.2}", sf, r.throughput, r.latency, r.io_utilization);
    }
}
