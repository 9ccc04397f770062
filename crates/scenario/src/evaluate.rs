//! The detection-quality evaluator: runs the real seven-task pipeline over
//! a scenario and scores what actually came out of it.
//!
//! Nothing here calls a kernel in place of the pipeline. Pd/Pfa come from
//! truth-matching the CFAR detection reports the sink collected; the
//! angle-Doppler map is the post-pulse-compression surface the CFAR stage
//! really scanned (captured by the [`QualityTap`]); SINR loss compares the
//! weight vectors the pipeline really applied against the optimal weights
//! for an interference-only regeneration of the same seeded world.

use crate::catalog::Scenario;
use stap_core::config::SourceSpec;
use stap_core::{QualityTap, StapSystem};
use stap_kernels::covariance::{estimate_covariance, TrainingConfig};
use stap_kernels::cube::DopplerCube;
use stap_kernels::diagnostics::{optimal_sinr, sinr};
use stap_kernels::report::DetectionReport;
use stap_kernels::truth::{score, TruthError, TruthGate};
use stap_kernels::DopplerFilter;
use stap_math::{MathError, C64};
use stap_pipeline::{ClockSpec, PipelineError};
use stap_radar::CubeGenerator;
use std::collections::BTreeMap;

/// Why an evaluation could not be completed.
#[derive(Debug)]
pub enum EvalError {
    /// The pipeline run itself failed.
    Pipeline(PipelineError),
    /// Truth matching was inconsistent with the detection surface.
    Truth(TruthError),
    /// A SINR solve failed (singular covariance etc.).
    Math(MathError),
    /// An expected pipeline product was missing (tap empty, no reports).
    Missing(String),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Pipeline(e) => write!(f, "pipeline: {e}"),
            EvalError::Truth(e) => write!(f, "truth matching: {e}"),
            EvalError::Math(e) => write!(f, "sinr solve: {e:?}"),
            EvalError::Missing(what) => write!(f, "missing pipeline product: {what}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<PipelineError> for EvalError {
    fn from(e: PipelineError) -> Self {
        EvalError::Pipeline(e)
    }
}

impl From<TruthError> for EvalError {
    fn from(e: TruthError) -> Self {
        EvalError::Truth(e)
    }
}

impl From<MathError> for EvalError {
    fn from(e: MathError) -> Self {
        EvalError::Math(e)
    }
}

/// SINR bookkeeping for one target.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetQuality {
    /// Index into the scenario's target list.
    pub index: usize,
    /// Doppler bin the target sat in at the scored CPI.
    pub bin: usize,
    /// Beam whose look direction is nearest the target.
    pub beam: usize,
    /// Whether the bin is processed by the hard (PRI-staggered) chain.
    pub hard: bool,
    /// SINR (dB) the pipeline's applied weight achieved.
    pub achieved_sinr_db: f64,
    /// SINR (dB) of the optimal (MVDR on true interference) weight.
    pub optimal_sinr_db: f64,
    /// `optimal − achieved`, clamped at zero.
    pub loss_db: f64,
}

/// Everything the evaluator measured about one scenario run.
#[derive(Debug)]
pub struct Evaluation {
    /// Scenario name.
    pub scenario: String,
    /// CPIs scored (reports with `cpi >= max(warmup, 1)`).
    pub cpis_scored: u64,
    /// (target, CPI) detection opportunities.
    pub truth_pairs: usize,
    /// Opportunities converted into at least one matching detection.
    pub hits: usize,
    /// Detections matching no truth at all.
    pub false_alarms: usize,
    /// Resolution cells scanned over the scored CPIs
    /// (`beams × bins × ranges × cpis_scored`).
    pub cells: u64,
    /// Measured probability of false alarm (`false_alarms / cells`).
    pub pfa: f64,
    /// The CFAR design Pfa the scenario ran with.
    pub design_pfa: f64,
    /// Per-target SINR quality at the newest fully-weighted CPI.
    pub sinr: Vec<TargetQuality>,
    /// CPI whose angle-Doppler surface is in `map`.
    pub map_cpi: u64,
    /// The angle-Doppler power surface the CFAR stage scanned at
    /// `map_cpi`: (bin, beam) → power summed over range.
    pub map: BTreeMap<(usize, usize), f64>,
    /// Doppler bins of the surface.
    pub nbins: usize,
    /// Beams of the surface.
    pub beams: usize,
    /// Every detection report the run produced (ascending CPI).
    pub reports: Vec<DetectionReport>,
}

impl Evaluation {
    /// Probability of detection (None when the scenario has no targets).
    pub fn pd(&self) -> Option<f64> {
        (self.truth_pairs > 0).then(|| self.hits as f64 / self.truth_pairs as f64)
    }

    /// Worst SINR loss across targets (None without targets).
    pub fn max_sinr_loss_db(&self) -> Option<f64> {
        self.sinr
            .iter()
            .map(|t| t.loss_db)
            .fold(None, |acc: Option<f64>, l| Some(acc.map_or(l, |a| a.max(l))))
    }

    /// Distance between measured and design Pfa in binomial standard
    /// deviations: `|p̂ − p| / sqrt(p(1−p)/cells)`.
    pub fn pfa_sigmas(&self) -> f64 {
        let p = self.design_pfa;
        let sigma = (p * (1.0 - p) / self.cells.max(1) as f64).sqrt();
        (self.pfa - p).abs() / sigma.max(f64::MIN_POSITIVE)
    }

    /// One-line headline summary.
    pub fn summary(&self) -> String {
        format!(
            "pd={} pfa={:.3e} sinr_loss_db={} over {} cpis ({} cells)",
            self.pd().map_or_else(|| "n/a".into(), |p| format!("{p:.3}")),
            self.pfa,
            self.max_sinr_loss_db().map_or_else(|| "n/a".into(), |l| format!("{l:.2}")),
            self.cpis_scored,
            self.cells
        )
    }

    /// Deterministic golden-file rendering: the truth-matched detection
    /// lists of every scored CPI followed by the angle-Doppler surface.
    /// Powers print with `{}` (shortest round-trip), so the text is
    /// bit-faithful to the `f64`/`f32` values.
    pub fn golden_text(&self) -> String {
        let mut s = format!("scenario: {}\n", self.scenario);
        s.push_str(&format!("bins: {} beams: {}\n", self.nbins, self.beams));
        for r in &self.reports {
            s.push_str(&format!("cpi {} detections: {}\n", r.cpi, r.detections.len()));
            let mut dets = r.detections.clone();
            dets.sort_by_key(|d| (d.beam, d.bin, d.range));
            for d in dets {
                s.push_str(&format!(
                    "  beam={} bin={} range={} power={} snr_db={}\n",
                    d.beam, d.bin, d.range, d.power, d.snr_db
                ));
            }
        }
        s.push_str(&format!("angle-doppler map (cpi {}):\n", self.map_cpi));
        for (&(bin, beam), &p) in &self.map {
            s.push_str(&format!("  bin={bin} beam={beam} power={p}\n"));
        }
        s
    }
}

/// The truth gates of a scenario at one CPI: each target's drifted range
/// gate widened by the pulse-compression spread.
///
/// Matching is keyed on the range window, which pulse compression keeps
/// sharp. The Doppler bin is recorded (it is exact under CPI 0's uniform
/// weights) but accepted with full tolerance: the adaptive weights train
/// on strided range gates that include the target itself, so from CPI 1
/// they partially null the target at its own bin and the surviving
/// response at the target's range smears across neighboring bins — a real
/// property of the pipeline the evaluator measures rather than hides (it
/// also shows up as SINR loss).
pub fn truth_gates(s: &Scenario, cpi: u64, nbins: usize, ranges: usize) -> Vec<TruthGate> {
    let waveform_len = s.config().waveform_len;
    s.scene
        .targets
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let drift = s.motion.targets.get(i).copied().unwrap_or_default();
            let gate = drift.gate_at(t.range_gate, cpi, ranges);
            let dop = drift.doppler_at(t.doppler, cpi);
            TruthGate {
                bin: nearest_bin(dop, nbins),
                range_lo: gate.saturating_sub(3),
                range_hi: (gate + waveform_len + 3).min(ranges.saturating_sub(1)),
                bin_tol: nbins / 2,
            }
        })
        .collect()
}

/// The Doppler bin label nearest normalized frequency `dop`.
pub fn nearest_bin(dop: f64, nbins: usize) -> usize {
    ((dop * nbins as f64).round() as i64).rem_euclid(nbins as i64) as usize
}

/// Runs `scenario` through the real pipeline (file-fed) and scores it.
///
/// # Errors
/// [`EvalError`] when the run fails, the truth set is inconsistent with
/// the detection surface, or a SINR solve breaks down.
pub fn evaluate(scenario: &Scenario) -> Result<Evaluation, EvalError> {
    evaluate_with_source(scenario, SourceSpec::File)
}

/// [`evaluate`] with an explicit data-plane choice (`--source file|stream`):
/// the scenario is scored identically however its cubes arrive.
pub fn evaluate_with_source(
    scenario: &Scenario,
    source: SourceSpec,
) -> Result<Evaluation, EvalError> {
    let mut config = scenario.config();
    config.source = source;
    let nbins = config.nbins();
    let ranges = config.dims.ranges;
    let beams = config.beams.len();

    let sys = StapSystem::prepare(config)?;
    let out = sys.run_with_clock(ClockSpec::virtual_default())?;
    let tap = sys
        .quality_tap()
        .ok_or_else(|| EvalError::Missing("quality tap (config.quality_tap off)".into()))?;

    // Pd / Pfa: truth-match every steady-state report. CPI 0 beamforms
    // with cold-start uniform weights, so scoring starts at CPI 1 even
    // when warmup is 0.
    let first = scenario.warmup.max(1);
    let mut truth_pairs = 0usize;
    let mut hits = 0usize;
    let mut false_alarms = 0usize;
    let mut cpis_scored = 0u64;
    for r in out.reports.iter().filter(|r| r.cpi >= first) {
        let gates = truth_gates(scenario, r.cpi, nbins, ranges);
        let s = score(&r.detections, &gates, nbins, ranges)?;
        truth_pairs += gates.len();
        hits += s.hit_count();
        false_alarms += s.false_alarms;
        cpis_scored += 1;
    }
    if cpis_scored == 0 {
        return Err(EvalError::Missing(format!(
            "no steady-state reports (got {} reports, scoring starts at cpi {first})",
            out.reports.len()
        )));
    }
    let cells = (beams * nbins * ranges) as u64 * cpis_scored;
    let pfa = false_alarms as f64 / cells as f64;

    // The angle-Doppler surface of the newest scored CPI.
    let map_cpi = *tap
        .map_cpis()
        .last()
        .ok_or_else(|| EvalError::Missing("angle-Doppler surface (tap empty)".into()))?;
    let map = tap.map_for(map_cpi);

    let sinr = sinr_losses(scenario, tap)?;

    Ok(Evaluation {
        scenario: scenario.name.clone(),
        cpis_scored,
        truth_pairs,
        hits,
        false_alarms,
        cells,
        pfa,
        design_pfa: scenario.cfar.pfa,
        sinr,
        map_cpi,
        map,
        nbins,
        beams,
        reports: out.reports,
    })
}

/// SINR loss of the weights the pipeline actually published, per target.
///
/// The weights captured at CPI `k` were trained on CPI `k`'s Doppler
/// output, so they are scored against the interference covariance of CPI
/// `k`: the same seeded world regenerated without its targets (weight
/// training saw targets as part of the data; the quality question is how
/// well the result suppresses the *interference*). Optimal SINR is
/// `vᴴR⁻¹v` for the same steering vector, so loss = 0 dB means the
/// pipeline matched the clairvoyant adaptive weight.
fn sinr_losses(scenario: &Scenario, tap: &QualityTap) -> Result<Vec<TargetQuality>, EvalError> {
    if scenario.scene.targets.is_empty() {
        return Ok(Vec::new());
    }
    let config = scenario.config();
    let nbins = config.nbins();
    let k = tap
        .latest_weight_cpi()
        .ok_or_else(|| EvalError::Missing("published weight sets (tap empty)".into()))?;

    // Interference-only regeneration of CPI k: same dims, seed and
    // kinematics, targets removed.
    let mut interference = scenario.scene.clone();
    interference.targets.clear();
    let mut generator =
        CubeGenerator::new(config.dims, interference, config.waveform_len, config.seed)
            .with_motion(scenario.motion.clone());
    let mut cube = generator.next_cube();
    for _ in 0..k {
        cube = generator.next_cube();
    }
    let stagger_offset = config.doppler.stagger_offset;
    let filter = DopplerFilter::new(config.dims.pulses, config.doppler.clone());
    let mut doppler_cubes: BTreeMap<bool, DopplerCube> = BTreeMap::new();

    let hard_bins = config.doppler.bins.hard_bins(nbins);
    let training = TrainingConfig::default();
    let mut quality = Vec::with_capacity(scenario.scene.targets.len());
    for (index, t) in scenario.scene.targets.iter().enumerate() {
        let drift = scenario.motion.targets.get(index).copied().unwrap_or_default();
        let bin = nearest_bin(drift.doppler_at(t.doppler, k), nbins);
        let hard = hard_bins.contains(&bin);
        let beam = config
            .beams
            .spatial_freqs
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                (*a - t.spatial_freq).abs().total_cmp(&(*b - t.spatial_freq).abs())
            })
            .map(|(i, _)| i)
            .ok_or_else(|| EvalError::Missing("beam set is empty".into()))?;
        let ws = tap
            .weights_for(k, hard)
            .ok_or_else(|| EvalError::Missing(format!("weights for cpi {k} (hard={hard})")))?;
        let w32 = ws
            .for_bin(bin)
            .ok_or_else(|| EvalError::Missing(format!("weights for bin {bin} at cpi {k}")))?;
        let w: Vec<C64> = w32[beam].iter().map(|z| z.cast()).collect();

        let dcube = doppler_cubes.entry(hard).or_insert_with(|| {
            if hard {
                filter.filter_staggered(&cube)
            } else {
                filter.filter_easy(&cube)
            }
        });
        let r = estimate_covariance(&dcube.rows(), bin, training);
        let v = config.beams.space_time_steering(
            beam,
            dcube.channels(),
            dcube.staggers(),
            bin,
            nbins,
            stagger_offset,
        );
        let achieved = sinr(&w, &v, &r)?;
        let optimal = optimal_sinr(&v, &r)?;
        let loss_db = (10.0 * (optimal / achieved.max(f64::MIN_POSITIVE)).log10()).max(0.0);
        quality.push(TargetQuality {
            index,
            bin,
            beam,
            hard,
            achieved_sinr_db: 10.0 * achieved.log10(),
            optimal_sinr_db: 10.0 * optimal.log10(),
            loss_db,
        });
    }
    Ok(quality)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn nearest_bin_wraps_negative_dopplers() {
        assert_eq!(nearest_bin(0.25, 32), 8);
        assert_eq!(nearest_bin(-0.25, 32), 24);
        assert_eq!(nearest_bin(0.02, 32), 1);
        assert_eq!(nearest_bin(-0.015, 32), 0); // rounds up across the wrap
    }

    #[test]
    fn truth_gates_follow_the_motion() {
        let s = catalog::find("maneuvering").unwrap();
        let g0 = truth_gates(&s, 0, 32, 128);
        let g2 = truth_gates(&s, 2, 32, 128);
        assert_eq!(g0.len(), 1);
        assert_eq!(g2[0].range_lo, g0[0].range_lo + 16, "8 gates/cpi × 2 cpis");
        assert_eq!(g0[0].bin, g2[0].bin, "no doppler drift in this scenario");
    }

    #[test]
    fn two_target_scenario_detects_cleanly_with_low_sinr_loss() {
        let s = catalog::find("two-target").unwrap();
        let e = evaluate(&s).unwrap();
        assert_eq!(e.pd(), Some(1.0), "{}", e.summary());
        assert!(e.pfa < 1e-3, "{}", e.summary());
        assert_eq!(e.sinr.len(), 2);
        assert!(e.sinr.iter().any(|t| t.hard) && e.sinr.iter().any(|t| !t.hard));
        let worst = e.max_sinr_loss_db().unwrap();
        assert!(worst < 10.0, "sinr loss {worst} dB");
        assert_eq!(e.map.len(), e.nbins * e.beams, "full angle-Doppler surface");
        assert!(e.golden_text().contains("angle-doppler map"));
    }

    /// Calibration aid, not a check: prints every catalog scenario's
    /// measured quality so requirement thresholds can be set with margin.
    /// Run with `cargo test -p stap-scenario calibrate -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn calibrate_catalog_thresholds() {
        for s in catalog::catalog() {
            match evaluate(&s) {
                Ok(e) => eprintln!("{:<16} {}", s.name, e.summary()),
                Err(e) => eprintln!("{:<16} ERROR: {e}", s.name),
            }
        }
    }

    #[test]
    fn evaluation_is_identical_under_file_and_stream_sources() {
        let s = catalog::find("jammer-blink").unwrap();
        let file = evaluate(&s).unwrap();
        let stream = evaluate_with_source(&s, SourceSpec::Stream(Default::default())).unwrap();
        assert_eq!(file.golden_text(), stream.golden_text());
        assert_eq!(file.hits, stream.hits);
        assert_eq!(file.false_alarms, stream.false_alarms);
    }
}
