//! The case-study calibration objective.
//!
//! Four calibrated parameters (§IV-B), each ranging over the paper's
//! `2^20..2^36`: compute-core speed, **local read bandwidth** (the paper's
//! "disk bandwidth" — the HDD on SC platforms, the page cache on FC
//! platforms), LAN bandwidth, and WAN bandwidth. Evaluating one candidate
//! runs the simulator once per calibration ICD value and compares the
//! per-node mean job times against the ground truth with the MRE (or, for
//! Figure 2, the mean absolute error).
//!
//! Every metric is one running [`MeanFold`] over the ICD runs, so a capped
//! evaluation ([`Objective::evaluate_capped`]) stops after any run but the
//! last once the fold's prefix reaches the cap, and a finished one is
//! bit-identical to [`simcal_calib::mre_percent`] / [`simcal_calib::mae`]
//! of the full vectors.

use std::sync::Arc;

use simcal_calib::{relative_error, EvalContext, Evaluation, MeanFold, Objective, ParamSpace};
use simcal_groundtruth::{cache_plan_for, GroundTruthSet};
use simcal_platform::{HardwareParams, PlatformKind};
use simcal_sim::{SimConfig, SimSession};
use simcal_storage::XRootDConfig;
use simcal_workload::{ExecutionTrace, Workload};

use crate::case::CaseStudy;
use crate::family::{FamilyMember, Sample};

/// The four calibrated parameter names, in space order.
pub const PARAM_NAMES: [&str; 4] = ["core_speed", "local_read_bw", "lan_bw", "wan_bw"];

/// The paper's 4-parameter space with the `2^20..2^36` range.
pub fn param_space() -> ParamSpace {
    ParamSpace::paper(&PARAM_NAMES)
}

/// Which discrepancy the objective reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Mean Relative Error in percent (the paper's accuracy metric).
    MrePercent,
    /// Mean absolute error in seconds (Figure 2's y-axis).
    MaeSeconds,
    /// MRE in percent over *per-job* execution times instead of per-node
    /// means — a metric that captures more of the execution's temporal
    /// structure. The paper (§IV-C2) proposes exactly this family of
    /// richer metrics to force the calibration to constrain more than the
    /// bottleneck-resource parameters.
    PerJobMrePercent,
}

/// The calibration objective for one platform and a set of ICD values —
/// the 1-member degenerate case of the scenario-family calibration: all
/// platform/truth plumbing lives in the wrapped [`FamilyMember`]; this
/// type adds the paper's metric variants on top.
pub struct CaseObjective {
    kind: PlatformKind,
    member: FamilyMember,
    /// Ground-truth per-job durations (ICD-major, job-minor), used by
    /// [`Metric::PerJobMrePercent`]. Empty unless provided via
    /// [`CaseObjective::with_per_job_truth`].
    truth_job_times: Vec<f64>,
    metric: Metric,
}

impl CaseObjective {
    /// An objective over the given calibration ICD values.
    ///
    /// Panics if an ICD value has no ground truth.
    pub fn new(
        case: &CaseStudy,
        kind: PlatformKind,
        icds: &[f64],
        granularity: XRootDConfig,
    ) -> Self {
        Self::from_parts(case.workload.clone(), case.gt(kind), kind, icds, granularity)
    }

    /// An objective over all ground-truth ICD values (the 11-value grid).
    pub fn full(case: &CaseStudy, kind: PlatformKind, granularity: XRootDConfig) -> Self {
        let icds = case.gt(kind).icds();
        Self::new(case, kind, &icds, granularity)
    }

    /// Build from explicit parts (used by examples with custom workloads).
    pub fn from_parts(
        workload: Arc<Workload>,
        gt: &GroundTruthSet,
        kind: PlatformKind,
        icds: &[f64],
        granularity: XRootDConfig,
    ) -> Self {
        let subset = gt.subset(icds);
        let plans = icds.iter().map(|&icd| (icd, cache_plan_for(&workload, icd))).collect();
        let member = FamilyMember::from_parts(
            format!("case-{}", kind.label().to_lowercase()),
            kind.spec(),
            workload,
            plans,
            subset.metric_vector(),
            SimConfig::new(HardwareParams::defaults(), granularity),
        );
        Self { kind, member, truth_job_times: Vec::new(), metric: Metric::MrePercent }
    }

    /// Attach per-job ground-truth durations (ICD-major, job-minor) and
    /// switch to the temporal-structure metric. The vector length must be
    /// `n_icds * n_jobs`.
    pub fn with_per_job_truth(mut self, job_times: Vec<f64>) -> Self {
        assert_eq!(
            job_times.len(),
            self.member.plans().len() * self.member.workload().len(),
            "expected n_icds * n_jobs per-job truths"
        );
        self.truth_job_times = job_times;
        self.metric = Metric::PerJobMrePercent;
        self
    }

    /// Switch the reported discrepancy (MRE by default).
    pub fn with_metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// The platform this objective calibrates.
    pub fn kind(&self) -> PlatformKind {
        self.kind
    }

    /// The underlying family member (the 1-member-family view of this
    /// objective — what `calibrate --family` aggregates over).
    pub fn member(&self) -> &FamilyMember {
        &self.member
    }

    /// The data-movement granularity candidates are simulated at.
    pub fn granularity(&self) -> XRootDConfig {
        self.member.config().granularity
    }

    /// The ground-truth metric vector this objective compares against.
    pub fn truth_metrics(&self) -> &[f64] {
        self.member.truth_metrics()
    }

    /// Map the 4 calibrated values onto a full hardware parameter set.
    /// Non-calibrated parameters keep framework defaults, as in the paper.
    pub fn hardware_from(&self, values: &[f64]) -> HardwareParams {
        self.member.hardware_from(values)
    }

    /// Score a complete hardware parameter set against the ground truth.
    pub fn score_hardware(&self, hw: &HardwareParams) -> f64 {
        self.evaluate_hw(&mut SimSession::new(), hw, f64::INFINITY).error
    }

    /// The one evaluation path: the metric's terms folded ICD run by ICD
    /// run, with `mre_percent` / `mae` semantics — a non-finite simulated
    /// value makes the error non-finite, and a NaN bound never caps.
    fn evaluate_hw(&self, session: &mut SimSession, hw: &HardwareParams, cap: f64) -> Evaluation {
        let (sample, truth): (Sample, &[f64]) = match self.metric {
            Metric::PerJobMrePercent => (job_times, &self.truth_job_times),
            _ => (ExecutionTrace::mean_job_time_by_node, self.member.truth_metrics()),
        };
        let (scale, term): (f64, fn(f64, f64) -> f64) = match self.metric {
            Metric::MaeSeconds => (1.0, |s, t| (s - t).abs()),
            _ => (100.0, relative_error),
        };
        let mut fold = MeanFold::new(scale, truth.len());
        let blocks =
            self.member.runs(session, hw, sample, truth).map(|b| b.map(|(s, t)| term(s, t)));
        match fold.fold_capped(blocks, cap, MeanFold::value) {
            Some(bound) => Evaluation::capped(bound),
            None => Evaluation::done(fold.value()),
        }
    }
}

/// Per-job durations of a trace, in job order.
fn job_times(trace: &ExecutionTrace) -> Vec<f64> {
    trace.jobs.iter().map(|j| j.duration()).collect()
}

impl Objective for CaseObjective {
    fn evaluate(&self, values: &[f64]) -> f64 {
        self.evaluate_with(&mut EvalContext::new(), values)
    }

    /// The calibration hot path: the evaluator threads each worker's
    /// [`EvalContext`] through here, so the `SimSession` parked in it is
    /// built once per worker and reused for every candidate point (and
    /// every per-ICD simulation within a point).
    fn evaluate_capped(&self, ctx: &mut EvalContext, values: &[f64], cap: f64) -> Evaluation {
        let session = ctx.get_or_insert_with(SimSession::new);
        self.evaluate_hw(session, &self.hardware_from(values), cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcal_units as units;

    fn reduced() -> CaseStudy {
        CaseStudy::generate_reduced()
    }

    #[test]
    fn truth_parameters_score_near_zero_is_impossible_but_low() {
        // Evaluating at the *true* effective parameters cannot reach MRE 0
        // (the calibrated simulator lacks the emulator's noise and HDD
        // model) but must be far better than defaults — the calibration
        // problem is well-posed.
        let case = reduced();
        let g = XRootDConfig::paper_3s();
        let obj = CaseObjective::full(&case, PlatformKind::Fcfn, g);
        let truth_values = [
            case.truth.core_speed,
            case.truth.page_cache_bw, // FC platform: local read = page cache
            case.truth.lan_bw,
            case.truth.wan_bw(PlatformKind::Fcfn),
        ];
        let at_truth = obj.evaluate(&truth_values);
        let at_defaults = obj.evaluate(&[
            units::gflops(1.0),
            units::gbytes_per_sec(1.0),
            units::gbps(10.0),
            units::gbps(10.0),
        ]);
        assert!(at_truth < 20.0, "MRE at truth too high: {at_truth}%");
        assert!(at_truth < at_defaults, "truth {at_truth} vs defaults {at_defaults}");
    }

    #[test]
    fn subset_objective_uses_fewer_metrics() {
        let case = reduced();
        let g = XRootDConfig::paper_1s();
        let full = CaseObjective::full(&case, PlatformKind::Scsn, g);
        let sub = CaseObjective::new(&case, PlatformKind::Scsn, &[0.0, 0.5], g);
        assert_eq!(full.truth_metrics().len(), 33);
        assert_eq!(sub.truth_metrics().len(), 6);
    }

    #[test]
    fn hardware_mapping_respects_page_cache_flag() {
        let case = reduced();
        let g = XRootDConfig::paper_1s();
        let fc = CaseObjective::full(&case, PlatformKind::Fcsn, g);
        let sc = CaseObjective::full(&case, PlatformKind::Scsn, g);
        let values = [2e9, 5e9, 1.25e9, 1.4e8];
        assert_eq!(fc.hardware_from(&values).page_cache_bw, 5e9);
        assert_eq!(sc.hardware_from(&values).disk_bw, 5e9);
    }

    #[test]
    fn session_evaluation_matches_cold_evaluation() {
        // The calibration hot path (reused per-worker SimSession) must be
        // numerically identical to one-shot evaluation.
        let case = reduced();
        let g = XRootDConfig::paper_1s();
        let obj = CaseObjective::new(&case, PlatformKind::Scsn, &[0.0, 1.0], g);
        let v = [2e9, 17e6, 1.25e9, 1.4e8];
        let cold = obj.evaluate(&v);
        let mut ctx = EvalContext::new();
        let warm1 = Objective::evaluate_with(&obj, &mut ctx, &v);
        let warm2 = Objective::evaluate_with(&obj, &mut ctx, &v);
        assert_eq!(cold.to_bits(), warm1.to_bits());
        assert_eq!(warm1.to_bits(), warm2.to_bits());
        assert!(ctx.holds::<SimSession>(), "session parked in the worker context");
    }

    #[test]
    fn single_platform_is_the_one_member_family_degenerate_case() {
        // The re-cut contract: a CaseObjective's MRE is bit-identical to a
        // FamilyObjective over its single member.
        use crate::family::FamilyObjective;
        let case = reduced();
        let g = XRootDConfig::paper_1s();
        let obj = CaseObjective::new(&case, PlatformKind::Fcsn, &[0.0, 0.5], g);
        let fam = FamilyObjective::new(vec![obj.member().clone()]);
        for v in [[2e9, 5e9, 1.25e9, 1.4e8], [1e9, 17e6, 1e9, 1e8]] {
            assert_eq!(obj.evaluate(&v).to_bits(), fam.evaluate(&v).to_bits());
        }
    }

    #[test]
    fn mae_metric_reports_seconds() {
        let case = reduced();
        let g = XRootDConfig::paper_1s();
        let obj = CaseObjective::full(&case, PlatformKind::Scsn, g).with_metric(Metric::MaeSeconds);
        let v = [2e9, 17e6, 1.25e9, 1.4e8];
        let e = obj.evaluate(&v);
        assert!(e.is_finite() && e >= 0.0);
    }
}
