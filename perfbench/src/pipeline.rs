//! The three pipeline workloads: `file-closed`, `stream-open` and
//! `io-bound`. Each prepares the real threaded STAP pipeline, measures it
//! for a fixed time, and checks every detection report against the scalar
//! reference data plane.

use crate::report::Outcome;
use crate::rss::RssSampler;
use crate::stats::{self, median, percentile};
use ppstap::core::config::NodeCounts;
use ppstap::core::{
    IoStrategy, KernelPath, SourceSpec, StapConfig, StapRunOutput, StapSystem, StreamSettings,
    TailStructure,
};
use ppstap::ingest::ring::{BackpressurePolicy, CpiRing, RingStats, StampedCube};
use ppstap::kernels::{CubeDims, DetectionReport};
use ppstap::pfs::FsConfig;
use ppstap::pipeline::timing::{Phase, PipelineReport};
use ppstap::pipeline::topology::StageId;
use ppstap::radar::{CubeGenerator, Scene};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cube geometry of every pipeline workload: 64 pulses × 16 channels ×
/// 256 ranges, 2 MiB. At the default 32×8×128 per-CPI cost is thread and
/// message overhead; at paper size synthesis alone takes seconds a cube.
pub const DIMS: CubeDims = CubeDims::new(64, 16, 256);
/// Distinct staged cubes, cycled round-robin (the paper's four files).
pub const FANOUT: usize = 4;
/// Leading CPIs of every run excluded from steady-state figures.
const WARMUP: u64 = 4;
/// CPIs the reference run pushes: the warmup CPI 0 plus two full fanout
/// periods, enough to prove the report sequence periodic.
const REF_CPIS: u64 = 1 + 2 * FANOUT as u64;
/// Times `prepare` runs in set-up; `setup_s` is the median.
const SETUP_REPS: usize = 5;
/// Staging-ring depth of the stream workload.
const RING_DEPTH: usize = 4;
/// Delay from starting the pipeline to the stream's first due time.
const LEAD: Duration = Duration::from_millis(50);

/// How a pipeline workload feeds its CPIs.
#[derive(Debug, Clone, Copy)]
pub enum Feed {
    /// File-fed embedded I/O on Paragon PFS, unpaced closed loop: the
    /// front reads the next CPI as soon as it is free.
    File {
        /// PFS stripe factor.
        stripe_factor: usize,
        /// Reads paced at this multiple of their modeled service time
        /// (0 = as fast as memory copies).
        read_pacing: f64,
        /// CPIs per `run` call; the window repeats runs until it ends.
        cpis_per_run: u64,
    },
    /// Stream-fed open loop: the benchmark pushes cube `k` into a
    /// blocking staging ring at due time `t0 + k / rate`.
    Stream {
        /// Offered rate, CPIs per second.
        rate: f64,
    },
}

/// `file-closed`: the paper's design at stripe factor 16.
pub const FILE_CLOSED: Feed = Feed::File { stripe_factor: 16, read_pacing: 0.0, cpis_per_run: 48 };
/// `io-bound`: stripe factor 4 with reads paced at their modeled time.
pub const IO_BOUND: Feed = Feed::File { stripe_factor: 4, read_pacing: 1.0, cpis_per_run: 24 };
/// `stream-open`: 40 CPI/s, under half of `file-closed` capacity. At 60
/// (~70%) the latencies tracked the shared host's speed: a slow spell
/// raised p95 by up to 80%, beyond any bound the benchmark may set.
pub const STREAM_OPEN: Feed = Feed::Stream { rate: 40.0 };

/// The pipeline configuration of a workload (before the source is set).
/// I/O design, tail and node counts are pinned rather than defaulted, so a
/// change of the program's defaults cannot silently change the workload.
pub fn config(seed: u64, feed: Feed) -> StapConfig {
    let fs = match feed {
        Feed::File { stripe_factor, read_pacing, .. } => {
            FsConfig::paragon_pfs(stripe_factor).with_read_pacing(read_pacing)
        }
        Feed::Stream { .. } => FsConfig::paragon_pfs(16),
    };
    StapConfig {
        dims: DIMS,
        scene: Scene::benchmark_small(),
        fanout: FANOUT,
        fs,
        io: IoStrategy::Embedded,
        tail: TailStructure::Split,
        nodes: NodeCounts::default(),
        warmup: WARMUP,
        seed,
        ..StapConfig::default()
    }
}

/// Per-layer sums over the steady CPIs of every run in a window.
#[derive(Debug, Default)]
struct Tally {
    steady_cpis: u64,
    cpis: u64,
    /// Σ over CPIs of the slowest front node's Read phase.
    read_s: f64,
    /// Σ over CPIs of the slowest front node's Ingest phase.
    ingest_s: f64,
    /// Σ over CPIs, stages and nodes of the Send phase.
    send_s: f64,
    /// Per stage: Σ over nodes and CPIs of the record time, of the
    /// receive and weight waits, and of the ingest wait; and node count.
    stage_total: Vec<f64>,
    stage_wait: Vec<f64>,
    stage_ingest: Vec<f64>,
    stage_nodes: Vec<usize>,
    reads: u64,
    bytes_read: u64,
    /// `run` wall time minus what its CPIs cost at the steady rate.
    fixed_s: Vec<f64>,
    /// Σ and count of source-start-to-sink-finish latencies.
    latency_sum: f64,
    latency_n: u64,
}

/// What one measured window produced.
#[derive(Debug, Default)]
struct Window {
    /// Steady-state CPI intervals at the sink and their seconds, summed
    /// over runs, and the run count.
    steady: (f64, f64),
    runs: usize,
    /// Per steady CPI latency, seconds: the paper's latency over measured
    /// task times in closed loop, due time to sink finish in open loop.
    latency: Vec<f64>,
    /// `(cpi, report fingerprint)` per delivered report, per run.
    reports: Vec<Vec<(u64, u64)>>,
    /// CPIs each run was asked for.
    asked: Vec<u64>,
    /// Peak RSS (median over runs of each run's peak), MB.
    peak_rss_mb: f64,
    /// Runs the peak RSS summarizes.
    rss_runs: usize,
    tally: Tally,
    gen_late_s: Vec<f64>,
    ring: Option<RingStats>,
}

impl Window {
    /// The steady-state sink rate over every run of the window, CPI/s.
    fn rate(&self) -> f64 {
        if self.steady.1 > 0.0 {
            self.steady.0 / self.steady.1
        } else {
            0.0
        }
    }
}

/// The stage roles of the embedded/split topology, with short keys.
fn stages(sys: &StapSystem) -> Vec<(&'static str, StageId)> {
    let r = &sys.plan().roles;
    let mut v = vec![("df", r.doppler), ("ew", r.easy_weight), ("hw", r.hard_weight)];
    v.extend([("eb", r.easy_bf), ("hb", r.hard_bf), ("pc", r.pulse)]);
    v.extend(r.cfar.map(|c| ("cf", c)));
    v
}

/// Per CPI, the slowest node's value of `f` on `stage`.
fn per_cpi_max(
    t: &PipelineReport,
    stage: StageId,
    f: impl Fn(&ppstap::trace::CpiRecord) -> f64,
) -> Vec<f64> {
    let mut v = vec![0.0f64; t.cpis as usize];
    for node in &t.records[stage.0] {
        for r in node {
            if let Some(slot) = v.get_mut(r.cpi as usize) {
                *slot = slot.max(f(r));
            }
        }
    }
    v
}

/// Order-independent fingerprint of one detection report's contents
/// (the CPI number is compared separately).
pub fn report_fingerprint(r: &DetectionReport) -> u64 {
    let mut dets: Vec<[u64; 6]> = r
        .detections
        .iter()
        .map(|d| {
            [
                d.beam as u64,
                d.bin as u64,
                d.range as u64,
                d.power.to_bits(),
                d.noise.to_bits(),
                d.snr_db.to_bits(),
            ]
        })
        .collect();
    dets.sort_unstable();
    let bytes: Vec<u8> = dets.iter().flatten().flat_map(|x| x.to_le_bytes()).collect();
    stats::fnv1a(&bytes)
}

/// Which reference report CPI `k` of a run must equal. Weights for CPI
/// `k` come from CPI `k-1`, and cube `k mod FANOUT` is read, so from CPI
/// 1 on the report sequence repeats with period `FANOUT`.
fn reference_index(k: u64) -> usize {
    let f = FANOUT as u64;
    if k < REF_CPIS {
        k as usize
    } else {
        ((k - 1) % f + 1 + f) as usize
    }
}

/// Detection fingerprints of the scalar reference data plane
/// (`KernelPath::Reference` with deep-copy sends) on the same inputs.
fn reference(cfg: &StapConfig) -> Result<Vec<u64>, String> {
    let rcfg = StapConfig {
        kernel_path: KernelPath::Reference,
        copy_comm: true,
        source: SourceSpec::File,
        fs: FsConfig::paragon_pfs(16),
        cpis: REF_CPIS,
        warmup: 1,
        ..cfg.clone()
    };
    let sys = StapSystem::prepare(rcfg).map_err(|e| format!("reference prepare: {e}"))?;
    let out = sys.run().map_err(|e| format!("reference run: {e}"))?;
    if out.reports.len() as u64 != REF_CPIS {
        return Err(format!("reference produced {} of {REF_CPIS} reports", out.reports.len()));
    }
    let fps: Vec<u64> = out.reports.iter().map(report_fingerprint).collect();
    let f = FANOUT;
    if (1..=f).any(|k| fps[k] != fps[k + f]) {
        return Err("reference reports are not periodic in the fanout".into());
    }
    Ok(fps)
}

/// Folds one finished run into the window. `closed_loop` runs report
/// the paper's latency; `layers` also tallies the per-layer figures.
fn absorb(
    w: &mut Window,
    sys: &StapSystem,
    out: &StapRunOutput,
    wall: f64,
    closed_loop: bool,
    layers: bool,
) {
    let t = &out.timing;
    let keys = stages(sys);
    let warm = out.warmup as usize;
    w.reports.push(out.reports.iter().map(|r| (r.cpi, report_fingerprint(r))).collect());
    w.asked.push(out.cpis);
    let per_stage: Vec<Vec<f64>> =
        keys.iter().map(|&(_, s)| per_cpi_max(t, s, |r| r.total())).collect();
    if closed_loop {
        // The paper's latency, T_DF + max(T_eBF, T_hBF) + T_PC + T_CFAR,
        // over each CPI's measured task times (slowest node per task).
        let at = |key: &str, k: usize| {
            keys.iter().position(|&(n, _)| n == key).map_or(0.0, |i| per_stage[i][k])
        };
        for k in warm..out.cpis as usize {
            w.latency.push(at("df", k) + at("eb", k).max(at("hb", k)) + at("pc", k) + at("cf", k));
        }
    }
    let tput = out.throughput();
    if tput > 0.0 {
        let intervals = out.cpis.saturating_sub(out.warmup + 1) as f64;
        w.steady.0 += intervals;
        w.steady.1 += intervals / tput;
    }
    w.runs += 1;
    if !layers {
        return;
    }
    let tally = &mut w.tally;
    tally.stage_total.resize(keys.len(), 0.0);
    tally.stage_wait.resize(keys.len(), 0.0);
    tally.stage_ingest.resize(keys.len(), 0.0);
    tally.stage_nodes = keys.iter().map(|&(_, s)| t.records[s.0].len()).collect();
    for (i, &(_, s)) in keys.iter().enumerate() {
        for r in t.records[s.0].iter().flatten().filter(|r| r.cpi >= out.warmup) {
            tally.stage_total[i] += r.total();
            tally.stage_wait[i] += r.phase(Phase::Recv) + r.phase(Phase::WeightWait);
            tally.stage_ingest[i] += r.phase(Phase::Ingest);
            tally.send_s += r.phase(Phase::Send);
        }
    }
    let front = sys.plan().roles.doppler;
    let front_sum = |p: Phase| per_cpi_max(t, front, |r| r.phase(p)).iter().skip(warm).sum::<f64>();
    tally.read_s += front_sum(Phase::Read);
    tally.ingest_s += front_sum(Phase::Ingest);
    tally.steady_cpis += out.cpis.saturating_sub(out.warmup);
    tally.cpis += out.cpis;
    tally.reads += out.io.total_reads();
    tally.bytes_read += out.io.bytes_read;
    if tput > 0.0 {
        tally.fixed_s.push(wall - out.cpis as f64 / tput);
    }
    let actual = t.latencies(out.source, out.sink);
    tally.latency_sum += actual.iter().sum::<f64>();
    tally.latency_n += actual.len() as u64;
}

/// Repeats closed-loop runs until `seconds` have passed.
fn closed_window(sys: &StapSystem, seconds: f64, layers: bool) -> Result<Window, String> {
    let mut w = Window::default();
    let rss = RssSampler::start();
    let start = Instant::now();
    let mut peaks = Vec::new();
    while start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let out = sys.run().map_err(|e| format!("run: {e}"))?;
        peaks.push(rss.take_peak());
        absorb(&mut w, sys, &out, t.elapsed().as_secs_f64(), true, layers);
    }
    rss.finish();
    // In-flight CPIs, and so memory, are unbounded within a run; the
    // median over runs keeps one deep backlog from setting the figure.
    w.peak_rss_mb = median(&peaks).unwrap_or(0.0);
    w.rss_runs = peaks.len();
    Ok(w)
}

/// One open-loop run of `cpis` CPIs: this thread pushes cube `k` at its
/// due time `t0 + k / rate` while the pipeline runs on another thread.
fn open_window(
    sys: &StapSystem,
    ring: &Arc<CpiRing>,
    cubes: &[Arc<Vec<u8>>],
    rate: f64,
    cpis: u64,
    layers: bool,
) -> Result<Window, String> {
    let mut w = Window::default();
    ring.reopen();
    let rss = RssSampler::start();
    let start = Instant::now();
    let (t_call, out, t0) = std::thread::scope(|s| {
        let runner = s.spawn(|| {
            let t_call = Instant::now();
            (t_call, sys.run())
        });
        let t0 = Instant::now() + LEAD;
        for k in 0..cpis {
            // Absolute due times: a slow push delays later pushes only
            // until the schedule is caught up, never shifts it.
            let due = t0 + Duration::from_secs_f64(k as f64 / rate);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            w.gen_late_s.push(Instant::now().saturating_duration_since(due).as_secs_f64());
            let bytes = Arc::clone(&cubes[(k % cubes.len() as u64) as usize]);
            if ring.push(StampedCube { seq: k, bytes }).is_err() {
                break;
            }
        }
        ring.close();
        let (t_call, out) = runner.join().expect("pipeline thread panicked");
        (t_call, out, t0)
    });
    let wall = start.elapsed().as_secs_f64();
    w.peak_rss_mb = rss.finish();
    w.rss_runs = 1;
    let out = out.map_err(|e| format!("run: {e}"))?;
    absorb(&mut w, sys, &out, wall, false, layers);
    // The pipeline clock's epoch is taken inside `run`, microseconds after
    // `t_call`, so latencies are understated by at most that gap.
    let epoch_minus_t0 = if t_call >= t0 {
        t_call.duration_since(t0).as_secs_f64()
    } else {
        -t0.duration_since(t_call).as_secs_f64()
    };
    let finish = per_cpi_max(&out.timing, out.sink, |r| r.end);
    for k in out.warmup..out.cpis {
        w.latency.push(stats::latency_from_due(finish[k as usize], epoch_minus_t0, k, rate));
    }
    w.ring = out.ingest.map(|i| i.ring);
    Ok(w)
}

/// Checks every report of the window against the reference and counts
/// attempted CPIs and failures (mismatched or missing reports).
fn check(w: &Window, reference: &[u64]) -> (u64, u64) {
    let mut attempted = 0;
    let mut failed = 0;
    for (reports, &asked) in w.reports.iter().zip(&w.asked) {
        attempted += asked;
        let good = reports
            .iter()
            .filter(|&&(cpi, fp)| cpi < asked && reference[reference_index(cpi)] == fp)
            .count() as u64;
        failed += asked - good.min(asked);
    }
    (attempted, failed)
}

/// Prepares `reps` systems, returning them with each `prepare` time.
fn setup(cfg: &StapConfig, reps: usize) -> Result<(Vec<StapSystem>, Vec<f64>), String> {
    let mut systems = Vec::new();
    let mut times = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        let sys = StapSystem::prepare(cfg.clone()).map_err(|e| format!("prepare: {e}"))?;
        times.push(t.elapsed().as_secs_f64());
        systems.push(sys);
    }
    Ok((systems, times))
}

/// The staged cube sequence, synthesized exactly as file staging does.
fn synthesize(cfg: &StapConfig) -> Vec<Arc<Vec<u8>>> {
    let mut g = CubeGenerator::new(cfg.dims, cfg.scene.clone(), cfg.waveform_len, cfg.seed)
        .with_motion(cfg.motion.clone());
    (0..cfg.fanout).map(|_| Arc::new(g.next_cube().to_range_major_bytes())).collect()
}

/// End-to-end metrics of one window.
fn end_to_end(o: &mut Outcome, w: &Window, setup: &[f64]) {
    let lat_ms: Vec<f64> = w.latency.iter().map(|l| l * 1e3).collect();
    let n = lat_ms.len();
    o.push("setup_s", median(setup).unwrap_or(0.0), "s", setup.len());
    o.push("throughput_per_s", w.rate(), "1/s", w.runs);
    o.push("latency_p50_ms", median(&lat_ms).unwrap_or(0.0), "ms", n);
    let (p95, windows) = stats::windowed_percentile(&lat_ms, 95.0).unwrap_or((0.0, 0));
    o.push("latency_p95_ms", p95, "ms", n);
    o.note(format!("latency_p95_ms is the median over {windows} windows of each window's p95"));
    o.push("peak_rss_mb", w.peak_rss_mb, "MB", w.rss_runs);
    if let Some(p) = stats::supported_tail(n) {
        o.note(format!(
            "latency_tail p{p} = {} ms (n={n}, {} beyond)",
            percentile(&lat_ms, p).unwrap_or(0.0),
            stats::beyond(n, p)
        ));
    }
}

/// Per-layer metrics of one traced window.
fn per_layer(o: &mut Outcome, w: &Window, sys: &StapSystem, slab_fresh_before: u64) {
    let t = &w.tally;
    let per = |x: f64| if t.steady_cpis > 0 { x / t.steady_cpis as f64 } else { 0.0 };
    let n = t.steady_cpis as usize;
    o.push("pfs.read_s_per_cpi", per(t.read_s), "s", n);
    let cpis = t.cpis.max(1) as f64;
    o.push("pfs.reads_per_cpi", t.reads as f64 / cpis, "count", t.cpis as usize);
    o.push("pfs.bytes_read_per_cpi", t.bytes_read as f64 / cpis, "B", t.cpis as usize);
    o.push("ingest.wait_s_per_cpi", per(t.ingest_s), "s", n);
    let ring = w.ring.unwrap_or_default();
    o.push("ingest.peak_depth", ring.peak_depth as f64, "count", 1);
    o.push("ingest.mean_occupancy", ring.mean_occupancy(), "count", ring.depth_samples as usize);
    let late_ms: Vec<f64> = w.gen_late_s.iter().map(|l| l * 1e3).collect();
    o.push("gen.late_p95_ms", percentile(&late_ms, 95.0).unwrap_or(0.0), "ms", late_ms.len());
    o.push("comm.send_s_per_cpi", per(t.send_s), "s", n);
    let pools = &sys.plan().pools;
    let fresh = fresh_slabs(sys).saturating_sub(slab_fresh_before);
    o.push("comm.slab_fresh", fresh as f64, "count", 1);
    let peak = pools.samples.stats().peak_outstanding + pools.bytes.stats().peak_outstanding;
    o.push("comm.slab_peak_outstanding", peak as f64, "count", 1);
    let keys = stages(sys);
    // The bottleneck is the stage whose nodes are busiest per CPI; waits
    // are excluded, since stages behind the bottleneck wait at its pace.
    let mut bottleneck = (0usize, 0.0f64);
    for (i, (key, _)) in keys.iter().enumerate() {
        let total = t.stage_total[i].max(f64::MIN_POSITIVE);
        let wait = t.stage_wait[i];
        let busy = total - wait - t.stage_ingest[i];
        o.push(format!("pipeline.{key}.busy_frac"), busy / total, "1", n);
        o.push(format!("pipeline.{key}.wait_frac"), wait / total, "1", n);
        let per_node = busy / t.stage_nodes[i].max(1) as f64;
        if per_node > bottleneck.1 {
            bottleneck = (i, per_node);
        }
    }
    o.note(format!(
        "pipeline.bottleneck = {} (stage index {})",
        keys[bottleneck.0].0, bottleneck.0
    ));
    o.push("pipeline.bottleneck", bottleneck.0 as f64, "index", n);
    o.push("pipeline.fixed_s", median(&t.fixed_s).unwrap_or(0.0), "s", t.fixed_s.len());
    let mean_latency = if t.latency_n > 0 { t.latency_sum / t.latency_n as f64 } else { 0.0 };
    let tput = w.rate();
    o.push(
        "pipeline.inflight_cpis",
        stats::inflight(tput, mean_latency),
        "count",
        t.latency_n as usize,
    );
    o.push("pipeline.peak_rss_mb", w.peak_rss_mb, "MB", w.rss_runs);
}

/// Runs one pipeline workload and returns everything it reports.
pub fn run(feed: Feed, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let mut cfg = config(seed, feed);
    // A traced run measures an untraced and a traced half-window, so the
    // tracing overhead is measured, not assumed.
    let window = if trace { seconds / 2.0 } else { seconds };
    let ring = match feed {
        Feed::File { cpis_per_run, .. } => {
            cfg.cpis = cpis_per_run;
            None
        }
        Feed::Stream { rate } => {
            let ring = Arc::new(CpiRing::new("bench", RING_DEPTH, BackpressurePolicy::Block));
            cfg.cpis = (rate * window).ceil() as u64 + WARMUP;
            cfg.source = SourceSpec::Stream(StreamSettings {
                depth: RING_DEPTH,
                policy: BackpressurePolicy::Block,
                attach: Some(Arc::clone(&ring)),
                ..StreamSettings::default()
            });
            Some(ring)
        }
    };
    crate::describe(&mut o, seed);
    o.note(format!(
        "cube={}x{}x{} fanout={FANOUT} nodes={:?} stripe_factor={} read_pacing={} cpis_per_run={}",
        DIMS.pulses,
        DIMS.channels,
        DIMS.ranges,
        cfg.nodes,
        cfg.fs.stripe_factor,
        cfg.fs.pace_reads,
        cfg.cpis
    ));

    let (mut systems, setup_times) = setup(&cfg, SETUP_REPS)?;
    let cubes = ring.as_ref().map(|_| synthesize(&cfg));
    let measure = |sys: &StapSystem, layers: bool| -> Result<Window, String> {
        match (feed, &ring, &cubes) {
            (Feed::Stream { rate }, Some(ring), Some(cubes)) => {
                open_window(sys, ring, cubes, rate, cfg.cpis, layers)
            }
            _ => closed_window(sys, window, layers),
        }
    };
    if let Feed::Stream { rate } = feed {
        o.note(format!("offered_rate={rate} CPI/s ring_depth={RING_DEPTH} policy=block"));
    }

    // Keep only the systems the windows use, so idle staged copies do not
    // count in the measured RSS. A traced stream run needs a fresh system
    // per half: an attached ring's source keeps its delivery cursor.
    let keep = if trace && ring.is_some() { 2 } else { 1 };
    systems.drain(..systems.len() - keep);
    let first = systems.pop().expect("set-up prepared a system");
    let untraced = measure(&first, false)?;
    let traced = if trace {
        let sys = if ring.is_some() {
            systems.pop().expect("set-up prepared two systems")
        } else {
            first
        };
        let slab_fresh = fresh_slabs(&sys);
        let w = measure(&sys, true)?;
        Some((w, sys, slab_fresh))
    } else {
        None
    };

    let reference = reference(&cfg)?;
    let (a, f) = check(&untraced, &reference);
    o.attempted = a;
    o.failed = f;
    match traced {
        None => end_to_end(&mut o, &untraced, &setup_times),
        Some((w, sys, slab_fresh)) => {
            let (a, f) = check(&w, &reference);
            o.attempted += a;
            o.failed += f;
            per_layer(&mut o, &w, &sys, slab_fresh);
            let mut base = Outcome::default();
            end_to_end(&mut base, &untraced, &setup_times);
            let mut with = Outcome::default();
            end_to_end(&mut with, &w, &setup_times);
            crate::overhead(&mut o, &base, &with);
            let setup_s = median(&setup_times).unwrap_or(0.0);
            crate::layers::radar_and_pfs(&mut o, &cfg, setup_s);
            crate::layers::kernels(&mut o, &cfg);
            let (a, f) = crate::control::layers(&mut o, seed);
            o.attempted += a;
            o.failed += f;
        }
    }
    Ok(o)
}

/// Fresh (allocating) slab checkouts so far, over both comm pools.
fn fresh_slabs(sys: &StapSystem) -> u64 {
    let p = &sys.plan().pools;
    p.samples.stats().fresh + p.bytes.stats().fresh
}
