//! `calib-reduced` and `calib-paper`: a roster of calibrations at fixed
//! evaluation budgets — the paper's loop.
//!
//! The two differ in what an evaluation costs. On the reduced case a
//! simulation takes ~0.1 ms, so the algorithms' proposal cost, the
//! objective's glue and the simulator's fixed per-run cost carry the wall
//! time; on the paper-scale CMS workload an evaluation is a few ms of
//! kernel work and everything above the simulator all but vanishes.
//!
//! `--seed` seeds the emulator's noise streams, so every seed calibrates
//! against its own ground truth. The algorithms' own seeds are constants: a
//! gradient descent spends its whole budget in one corner of the parameter
//! space, and what an evaluation costs varies by half across corners, so
//! seeding the walk would make throughput depend on the seed more than on
//! the code.

use std::sync::{Arc, Mutex};

use simcal_calib::{
    calibrate_with_workers, BayesianOpt, Budget, Calibrator, GradientDescent, GridSearch,
    Objective, ParamSpace, RandomSearch,
};
use simcal_groundtruth::{ground_truth_scenarios, TruthParams};
use simcal_platform::PlatformKind;
use simcal_sim::{Scenario, SimSession};
use simcal_storage::{CachePlan, XRootDConfig};
use simcal_study::{param_space, CaseObjective};
use simcal_workload::{cms_workload, scaled_cms_workload, Workload as JobSet};

use super::{Cfg, LayerOut, Metrics, PassOut, Workload, REPLAYS};
use crate::counters::KernelCounters;
use crate::inputs::sub_seed;
use crate::stats;
use crate::trace::{self_times, Recorder, Span};

#[derive(Clone, Copy)]
enum Algo {
    Random,
    Grid,
    GdFix,
    BayesOpt,
}

impl Algo {
    fn key(self) -> &'static str {
        match self {
            Algo::Random => "random",
            Algo::Grid => "grid",
            Algo::GdFix => "gdfix",
            Algo::BayesOpt => "bayesopt",
        }
    }

    fn build(self) -> Box<dyn Calibrator> {
        match self {
            Algo::Random => Box::new(RandomSearch::new(1)),
            Algo::Grid => Box::new(GridSearch::new()),
            Algo::GdFix => Box::new(GradientDescent::fixed(2)),
            Algo::BayesOpt => Box::new(BayesianOpt::new(3)),
        }
    }
}

const KIND: PlatformKind = PlatformKind::Fcsn;

pub struct Calib {
    objective: CaseObjective,
    space: ParamSpace,
    /// `(algorithm, evaluation budget)`.
    roster: Vec<(Algo, u64)>,
    /// The ground-truth scenarios set-up ran, for the emulator event count.
    truth_runs: Vec<Scenario>,
    /// Points the first traced pass evaluated, in evaluation order.
    traced_points: Vec<Vec<f64>>,
    /// Best error per roster entry in the last 1-worker pass.
    last_best: Vec<f64>,
}

/// Ground truth for `workload` on FCSN over `icds` from a seeded emulator,
/// and the objective that scores 1 s-granularity simulations against it.
fn build(
    cfg: &Cfg,
    rec: &Recorder,
    parent: Option<u32>,
    workload: JobSet,
    truth: TruthParams,
    icds: &[f64],
    roster: &[(Algo, u64)],
) -> Calib {
    let truth = TruthParams { seed: sub_seed(cfg.seed, 1), ..truth };
    let (gt, _) = rec.time("groundtruth", "generate", parent, |_| {
        simcal_groundtruth::generate(KIND, &workload, &truth, icds)
    });
    let workload = Arc::new(workload);
    let (objective, _) = rec.time("study", "CaseObjective::from_parts", parent, |_| {
        CaseObjective::from_parts(workload.clone(), &gt, KIND, icds, XRootDConfig::paper_1s())
    });
    let div = if cfg.quick { 10 } else { 1 };
    Calib {
        objective,
        space: param_space(),
        roster: roster.iter().map(|&(a, n)| (a, (n / div).max(1))).collect(),
        truth_runs: ground_truth_scenarios(KIND, &workload, &truth, icds),
        traced_points: Vec::new(),
        last_best: Vec::new(),
    }
}

/// The reduced case (30 jobs x 4 files x 40 MB, coarse emulator) over all
/// 11 ICD values: 33 metrics, 11 simulations per evaluation.
pub fn reduced(cfg: &Cfg, rec: &Recorder, parent: Option<u32>) -> Calib {
    let (workload, _) =
        rec.time("workload", "scaled_cms_workload", parent, |_| scaled_cms_workload(30, 4, 40e6));
    let truth =
        TruthParams { granularity: XRootDConfig::new(8e6, 2e6), ..TruthParams::case_study() };
    build(
        cfg,
        rec,
        parent,
        workload,
        truth,
        &CachePlan::paper_icd_values(),
        &[(Algo::Random, 150), (Algo::Grid, 150), (Algo::GdFix, 150), (Algo::BayesOpt, 100)],
    )
}

/// The full CMS workload (48 x 20 x 427 MB) over ICD {0, 0.5, 1}, a Table V
/// subset: 9 metrics, 3 simulations per evaluation.
pub fn paper(cfg: &Cfg, rec: &Recorder, parent: Option<u32>) -> Calib {
    let (workload, _) = rec.time("workload", "cms_workload", parent, |_| cms_workload());
    build(
        cfg,
        rec,
        parent,
        workload,
        TruthParams::case_study(),
        &[0.0, 0.5, 1.0],
        &[(Algo::Random, 60), (Algo::Grid, 60), (Algo::GdFix, 60)],
    )
}

/// Delegates to the objective under test, recording one `study` span per
/// evaluation and the point evaluated. It implements only `evaluate`, so a
/// traced evaluation builds its simulation session afresh where the plain
/// run reuses one per worker; `trace.overhead_pct` includes that.
struct TracedObjective<'a> {
    inner: &'a CaseObjective,
    rec: &'a Recorder,
    parent: u32,
    points: Mutex<Vec<Vec<f64>>>,
}

impl Objective for TracedObjective<'_> {
    fn evaluate(&self, values: &[f64]) -> f64 {
        let open = self.rec.open("study", Some(self.parent));
        let error = self.inner.evaluate(values);
        self.rec.close(open, "objective");
        self.points.lock().expect("pushing a point cannot panic").push(values.to_vec());
        error
    }
}

impl Calib {
    /// Simulate every traced point straight through the simulator, one
    /// session per point as a cold evaluation does. Returns the seconds
    /// inside the simulator, the kernel events, and the kernel's counters
    /// (read after every simulation).
    fn replay_points(&self, rec: &Recorder, parent: u32) -> (f64, u64, KernelCounters) {
        let member = self.objective.member();
        let mut kernel = KernelCounters::default();
        let (mut events, mut sim_secs) = (0u64, 0.0);
        let mut config = member.config().clone();
        let open = rec.open("sim", Some(parent));
        for values in &self.traced_points {
            config.hardware = self.objective.hardware_from(values);
            let mut session = SimSession::new();
            for (_, plan) in member.plans() {
                let (trace, secs) = rec.time("sim", "simulate", Some(open.id), |_| {
                    session.run(member.platform(), member.workload(), plan, &config)
                });
                sim_secs += secs;
                events += trace.engine_events;
                kernel.add_debug(&format!("{:?}", session.engine_stats()));
            }
        }
        rec.close(open, "replay-points");
        (sim_secs, events, kernel)
    }
}

impl Workload for Calib {
    fn unit(&self) -> &'static str {
        "evaluations"
    }

    fn seed_note(&self) -> &'static str {
        "seed -> the emulator's noise seed, so the ground truth (algorithm seeds are constants)"
    }

    fn par_metric(&self) -> &'static str {
        "calib.par_efficiency"
    }

    fn pass(&mut self, workers: usize, rec: &Recorder, parent: Option<u32>) -> PassOut {
        let mut out = PassOut { items: Vec::new(), ops: 0, failed: 0 };
        let mut best = Vec::new();
        let mut points = Vec::new();
        for &(algo, evals) in &self.roster {
            let mut calibrator = algo.build();
            let budget = Budget::Evaluations(evals);
            let open = rec.open("calib", parent);
            let result = if rec.enabled() {
                let traced = TracedObjective {
                    inner: &self.objective,
                    rec,
                    parent: open.id,
                    points: Mutex::new(Vec::new()),
                };
                let r = calibrate_with_workers(
                    calibrator.as_mut(),
                    &traced,
                    &self.space,
                    budget,
                    Some(workers),
                );
                points.extend(traced.points.into_inner().expect("pushing a point cannot panic"));
                r
            } else {
                calibrate_with_workers(
                    calibrator.as_mut(),
                    &self.objective,
                    &self.space,
                    budget,
                    Some(workers),
                )
            };
            rec.close(open, format!("calibrate:{}", algo.key()));
            out.ops += evals;
            // Evaluations the budget promised but the run did not deliver,
            // and a calibration that found no finite error, are failures.
            out.failed += evals.saturating_sub(result.evaluations);
            out.failed += u64::from(!result.best_error.is_finite());
            out.items.push(result.best_error.to_bits());
            best.push(result.best_error);
        }
        if rec.enabled() && self.traced_points.is_empty() {
            self.traced_points = points;
        }
        if workers == 1 {
            self.last_best = best;
        }
        out
    }

    fn layer_metrics(
        &mut self,
        rec: &Recorder,
        parent: u32,
        spans: &[Span],
        traced_passes: usize,
    ) -> LayerOut {
        let mut m = Metrics::new();

        // calib: each calibrate span minus the objective spans under it.
        let self_ns = self_times(spans);
        for &(algo, evals) in &self.roster {
            let name = format!("calibrate:{}", algo.key());
            let ns: Vec<u64> =
                spans.iter().filter(|s| s.name == name).map(|s| self_ns[&s.id]).collect();
            if !ns.is_empty() {
                let us = ns.iter().sum::<u64>() as f64 / 1e3 / (ns.len() as u64 * evals) as f64;
                m.push((format!("calib.{}.self_us_per_eval", algo.key()), us));
            }
        }
        let eval_ms: Vec<f64> = spans
            .iter()
            .filter(|s| s.layer == "study" && s.name == "objective")
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect();
        let evals_per_pass = self.traced_points.len() as f64;
        m.push(("calib.evals".into(), evals_per_pass));
        if !eval_ms.is_empty() {
            m.push(("calib.eval_ms_p50".into(), stats::median(&eval_ms)));
            let (tail, p) = stats::tail(&eval_ms);
            m.push(("calib.eval_ms_tail".into(), tail));
            m.push(("calib.eval_tail_percentile".into(), p));
        }
        if !self.last_best.is_empty() {
            let mean = self.last_best.iter().sum::<f64>() / self.last_best.len() as f64;
            m.push(("calib.best_mre_pct".into(), mean));
        }

        // study / sim / des: what one pass's evaluations cost inside the
        // simulator; the rest of the objective spans is the objective's own.
        let replays: Vec<_> = (0..REPLAYS).map(|_| self.replay_points(rec, parent)).collect();
        let sim_secs = stats::median(&replays.iter().map(|r| r.0).collect::<Vec<_>>());
        let objective_secs = eval_ms.iter().sum::<f64>() / 1e3 / traced_passes.max(1) as f64;
        if evals_per_pass > 0.0 {
            m.push((
                "study.objective.self_us_per_eval".into(),
                (objective_secs - sim_secs) * 1e6 / evals_per_pass,
            ));
        }
        let (_, events, kernel) = &replays[0];
        m.push(("sim.events".into(), *events as f64));
        m.extend(kernel.metrics().into_iter().map(|(k, v)| (k.to_string(), v)));

        // groundtruth: what set-up spent generating truth, and the kernel
        // events the emulator needed for it (its scenarios, run again).
        let generate_ns: u64 =
            spans.iter().filter(|s| s.layer == "groundtruth").map(Span::dur_ns).sum();
        m.push(("groundtruth.generate_s".into(), generate_ns as f64 / 1e9));
        let mut session = SimSession::new();
        let (emulator_events, _) = rec.time("groundtruth", "replay-emulator", Some(parent), |_| {
            self.truth_runs.iter().map(|sc| sc.run(&mut session).engine_events).sum::<u64>()
        });
        m.push(("groundtruth.emulator_events".into(), emulator_events as f64));
        LayerOut { metrics: m, failed: 0 }
    }
}
