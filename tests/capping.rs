//! Adaptive capping on the case study: an uncapped evaluation through the
//! running fold is bit-identical to scoring the full simulated vectors the
//! way the objectives always have, and a capped RANDOM calibration returns
//! exactly the uncapped one's result while skipping ICD runs.

use std::sync::{Arc, OnceLock};

use simcal::calib::{
    calibrate_with_workers, Budget, CalibrationResult, EvalContext, Evaluation, Objective,
    RandomSearch,
};
use simcal::groundtruth::TruthParams;
use simcal::platform::PlatformKind;
use simcal::sim::{ScenarioRegistry, SimSession};
use simcal::storage::XRootDConfig;
use simcal::study::{param_space, CaseObjective, CaseStudy, FamilyObjective, Metric};

fn case() -> Arc<CaseStudy> {
    static CASE: OnceLock<Arc<CaseStudy>> = OnceLock::new();
    CASE.get_or_init(|| Arc::new(CaseStudy::generate_reduced())).clone()
}

/// The MRE in percent as the objectives computed it before the fold.
fn reference_mre(sim: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(sim.len(), truth.len());
    100.0 * sim.iter().zip(truth).map(|(&s, &t)| (s - t).abs() / t.abs()).sum::<f64>()
        / sim.len() as f64
}

/// The MAE as the objectives computed it before the fold.
fn reference_mae(sim: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(sim.len(), truth.len());
    sim.iter().zip(truth).map(|(&s, &t)| (s - t).abs()).sum::<f64>() / sim.len() as f64
}

/// A family member's masked MRE as computed before the fold: positions
/// with a non-finite truth are skipped, non-finite sims count as zero.
fn reference_masked_mre(sim: &[f64], truth: &[f64]) -> f64 {
    let n = truth.iter().filter(|t| t.is_finite()).count();
    100.0
        * sim
            .iter()
            .zip(truth)
            .filter(|(_, t)| t.is_finite())
            .map(|(&s, &t)| {
                let s = if s.is_finite() { s } else { 0.0 };
                (s - t).abs() / t.abs()
            })
            .sum::<f64>()
        / n as f64
}

/// Evaluate through the calibration hot path at `cap = +∞`.
fn uncapped(obj: &dyn Objective, v: &[f64]) -> Evaluation {
    obj.evaluate_capped(&mut EvalContext::new(), v, f64::INFINITY)
}

const POINTS: [[f64; 4]; 2] = [[2e9, 5e9, 1.25e9, 1.4e8], [1e9, 17e6, 1e9, 1e8]];

#[test]
fn uncapped_folds_equal_the_full_vector_metrics() {
    let case = case();
    let icds = [0.0, 0.5, 1.0];
    let obj = CaseObjective::new(&case, PlatformKind::Fcsn, &icds, XRootDConfig::paper_1s());
    let member = obj.member();
    let mut session = SimSession::new();
    // Per-job truth: the job times at another point (all positive).
    let job_truth = member.simulate_job_times_session(&mut session, &obj.hardware_from(&POINTS[1]));
    let per_job = CaseObjective::new(&case, PlatformKind::Fcsn, &icds, XRootDConfig::paper_1s())
        .with_per_job_truth(job_truth.clone());
    let mae = CaseObjective::new(&case, PlatformKind::Fcsn, &icds, XRootDConfig::paper_1s())
        .with_metric(Metric::MaeSeconds);
    for v in POINTS {
        let hw = obj.hardware_from(&v);
        let sim = member.simulate_metrics_session(&mut session, &hw);
        let jobs = member.simulate_job_times_session(&mut session, &hw);
        let cases = [
            (&obj, reference_mre(&sim, member.truth_metrics())),
            (&mae, reference_mae(&sim, member.truth_metrics())),
            (&per_job, reference_mre(&jobs, &job_truth)),
        ];
        for (o, want) in cases {
            assert_eq!(uncapped(o, &v), Evaluation::done(want), "{v:?}");
            assert_eq!(uncapped(o, &v).error.to_bits(), want.to_bits());
        }
    }

    let mut truth = TruthParams::case_study();
    truth.granularity = XRootDConfig::new(8e6, 2e6);
    let fam = FamilyObjective::from_registry(&ScenarioRegistry::reduced(), "hetero", &icds, &truth)
        .unwrap();
    for v in POINTS {
        let scores: Vec<f64> = fam
            .members()
            .iter()
            .map(|m| {
                let sim = m.simulate_metrics_session(&mut session, &m.hardware_from(&v));
                reference_masked_mre(&sim, m.truth_metrics())
            })
            .collect();
        let want = scores.iter().sum::<f64>() / scores.len() as f64;
        assert_eq!(uncapped(&fam, &v).error.to_bits(), want.to_bits(), "{v:?}");
        assert!(!uncapped(&fam, &v).capped);
    }
}

/// The case objective with capping hidden: every point runs all its ICDs.
struct Uncapped<'a>(&'a CaseObjective);

impl Objective for Uncapped<'_> {
    fn evaluate(&self, v: &[f64]) -> f64 {
        self.0.evaluate(v)
    }

    fn evaluate_capped(&self, ctx: &mut EvalContext, v: &[f64], _cap: f64) -> Evaluation {
        self.0.evaluate_capped(ctx, v, f64::INFINITY)
    }
}

fn bits(r: &CalibrationResult) -> (Vec<u64>, u64, Vec<u64>) {
    (
        r.best_values.iter().map(|v| v.to_bits()).collect(),
        r.best_error.to_bits(),
        r.curve.iter().map(|&(_, e)| e.to_bits()).collect(),
    )
}

#[test]
fn capped_random_calibration_matches_the_uncapped_one() {
    let case = case();
    let obj = CaseObjective::full(&case, PlatformKind::Fcsn, XRootDConfig::paper_1s());
    let space = param_space();
    let budget = Budget::Evaluations(48);
    let run = |o: &dyn Objective, workers| {
        calibrate_with_workers(&mut RandomSearch::new(1), o, &space, budget, Some(workers))
    };
    let reference = run(&Uncapped(&obj), 1);
    assert_eq!(reference.capped, 0);
    let capped: Vec<CalibrationResult> = [1, 2].into_iter().map(|w| run(&obj, w)).collect();
    for r in &capped {
        assert_eq!(bits(r), bits(&reference));
        assert_eq!(r.evaluations, 48);
        assert!(r.capped > 0, "nothing capped");
    }
    assert_eq!(capped[0].capped, capped[1].capped, "capped points depend on the worker count");
}
