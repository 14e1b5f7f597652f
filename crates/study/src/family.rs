//! Scenario-family calibration: one parameter set fitted against a whole
//! registry family.
//!
//! The paper calibrates one platform at a time against one ground-truth
//! grid (§IV). Its §IV-C2 observation — richer metrics constrain more
//! parameters — taken to the scenario level says: calibrate one hardware
//! parameterization against *every* scenario in a family at once, so
//! parameters that are off-bottleneck on one member are constrained by
//! another (a heterogeneous fat-node member exercises the page cache, a
//! 1 Gbps member pins the WAN, …).
//!
//! The building block is the [`FamilyMember`]: one scenario's calibration
//! surface — platform, workload, per-ICD cache plans, ground-truth metric
//! vector, and the simulator-side [`SimConfig`] template. A
//! [`FamilyObjective`] aggregates the member discrepancies (mean MRE, the
//! paper's accuracy metric per member) over a shared 4-parameter space,
//! with the usual pooled per-worker [`SimSession`]s. The single-platform
//! [`CaseObjective`](crate::CaseObjective) is the 1-member degenerate
//! case — it delegates all its simulation plumbing to a `FamilyMember`.
//!
//! Every discrepancy is one running [`MeanFold`] over a member's plans,
//! ICD-major (`FamilyMember::runs`), so an evaluation can stop
//! after any ICD run but the last once the fold's prefix reaches the
//! calibration's cap ([`simcal_calib::objective`] has the contract). A
//! family folds its member scores the same way, and its bound after `j`
//! members and part of the next is `(Σ first j scores + partial) / k`.
//!
//! Ground truth is **scenario-driven**: each member's truth metrics come
//! from running the member scenario's *emulator twin* —
//! [`scenario_truth_config`] builds the fine-grained, noisy, hidden-truth
//! configuration for an arbitrary platform, generalizing
//! `simcal_groundtruth::ground_truth_config` beyond the paper's four
//! [`PlatformKind`](simcal_platform::PlatformKind)s.

use std::sync::Arc;

use simcal_calib::{cap_reached, relative_error, EvalContext, Evaluation, MeanFold, Objective};
use simcal_groundtruth::{noise::compute_factors, TruthParams};
use simcal_platform::{HardwareParams, PlatformSpec};
use simcal_sim::{CacheSpec, NoiseConfig, Scenario, ScenarioRegistry, SimConfig, SimSession};
use simcal_storage::CachePlan;
use simcal_units as units;
use simcal_workload::{ExecutionTrace, Workload};

use crate::sweep::fnv1a;

/// The emulator-twin configuration of a scenario: the hidden "true"
/// hardware on the scenario's platform, the emulator's fine granularity
/// and stochastic realism, and the scenario's own structural knobs
/// (scheduler policy, per-connection caps — properties of the runtime
/// system, present on both sides of the calibration gap).
///
/// The effective WAN bandwidth scales the platform's nominal interface
/// speed by the truth's slow-WAN factor (1.15×, which also reproduces the
/// fast-WAN truth value on 10 Gbps platforms).
pub fn scenario_truth_config(sc: &Scenario, truth: &TruthParams, n_jobs: usize) -> SimConfig {
    let wan_factor = truth.wan_bw_slow / units::gbps(1.0);
    let hardware = HardwareParams {
        core_speed: truth.core_speed,
        disk_bw: truth.disk_bw,
        page_cache_bw: truth.page_cache_bw,
        lan_bw: truth.lan_bw,
        wan_bw: sc.platform.nominal_wan_bw * wan_factor,
        remote_storage_bw: truth.remote_storage_bw,
        disk_contention_alpha: truth.disk_contention_alpha,
        wan_latency: truth.wan_latency,
        disk_latency: truth.disk_latency,
    };
    let mut cfg = SimConfig::new(hardware, truth.granularity);
    cfg.cache_write_through = true;
    cfg.per_connection_cap = sc.config.per_connection_cap;
    cfg.scheduler = sc.config.scheduler;
    cfg.noise = NoiseConfig {
        compute_factors: compute_factors(n_jobs, truth.compute_noise_sigma, truth.seed),
        read_jitter_sigma: truth.read_jitter_sigma,
        // Per-member jitter stream, like the per-platform streams of the
        // paper-grid generator.
        seed: truth.seed ^ fnv1a(sc.name.as_bytes()),
    };
    cfg
}

/// Reads the simulated values one plan's run contributes to a
/// discrepancy off its trace (per-node mean job times, per-job durations).
pub(crate) type Sample = fn(&ExecutionTrace) -> Vec<f64>;

/// One scenario's calibration surface: everything needed to simulate a
/// hardware candidate on that scenario's platform/workload and score it
/// against the member's ground truth.
#[derive(Debug, Clone)]
pub struct FamilyMember {
    name: String,
    platform: PlatformSpec,
    workload: Arc<Workload>,
    /// (icd, cache plan) pairs the member is scored over.
    plans: Vec<(f64, CachePlan)>,
    /// Ground-truth metric vector (per-node mean job times, ICD-major).
    truth_metrics: Vec<f64>,
    /// Simulator-side configuration template; `hardware` is replaced by
    /// each candidate (noise-free, as the calibrated simulator).
    config: SimConfig,
}

impl FamilyMember {
    /// Assemble a member from explicit parts (the single-platform
    /// [`CaseObjective`](crate::CaseObjective) path, whose truth metrics
    /// come from the case study's ground-truth sets).
    pub fn from_parts(
        name: String,
        platform: PlatformSpec,
        workload: Arc<Workload>,
        plans: Vec<(f64, CachePlan)>,
        truth_metrics: Vec<f64>,
        config: SimConfig,
    ) -> Self {
        assert_eq!(
            truth_metrics.len(),
            plans.len() * platform.node_count(),
            "need one truth metric per (ICD, node)"
        );
        Self { name, platform, workload, plans, truth_metrics, config }
    }

    /// Build a member from a scenario, generating its ground truth by
    /// running the scenario's emulator twin over the calibration ICD grid
    /// on the caller's session.
    pub fn from_scenario(
        sc: &Scenario,
        icds: &[f64],
        truth: &TruthParams,
        session: &mut SimSession,
    ) -> Self {
        assert!(!icds.is_empty(), "need at least one calibration ICD value");
        let workload = sc.workload.workload();
        let plans: Vec<(f64, CachePlan)> =
            icds.iter().map(|&icd| (icd, CacheSpec::canonical(icd).plan(&workload))).collect();
        let truth_cfg = scenario_truth_config(sc, truth, workload.len());
        let mut truth_metrics = Vec::with_capacity(plans.len() * sc.platform.node_count());
        for (_, plan) in &plans {
            let trace = session.run(&sc.platform, &workload, plan, &truth_cfg);
            truth_metrics.extend(trace.mean_job_time_by_node());
        }
        // The simulator side keeps the scenario's structural knobs but
        // none of the emulator realism: candidates run noise-free at the
        // scenario's own granularity, exactly like the paper's simulator.
        let mut config = SimConfig::new(HardwareParams::defaults(), sc.config.granularity);
        config.per_connection_cap = sc.config.per_connection_cap;
        config.scheduler = sc.config.scheduler;
        Self {
            name: sc.name.clone(),
            platform: sc.platform.clone(),
            workload,
            plans,
            truth_metrics,
            config,
        }
    }

    /// The member's (scenario) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The member's platform.
    pub fn platform(&self) -> &PlatformSpec {
        &self.platform
    }

    /// The member's workload.
    pub fn workload(&self) -> &Arc<Workload> {
        &self.workload
    }

    /// The (icd, cache plan) pairs the member is scored over.
    pub fn plans(&self) -> &[(f64, CachePlan)] {
        &self.plans
    }

    /// The member's ground-truth metric vector.
    pub fn truth_metrics(&self) -> &[f64] {
        &self.truth_metrics
    }

    /// The simulator-side configuration template.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Map the 4 calibrated values onto a full hardware parameter set:
    /// `[core_speed, local_read_bw, lan_bw, wan_bw]`, with the local read
    /// bandwidth routed to the page cache or the HDD by the member
    /// platform's flavour. Non-calibrated parameters keep framework
    /// defaults, as in the paper.
    pub fn hardware_from(&self, values: &[f64]) -> HardwareParams {
        assert_eq!(values.len(), 4, "expected [core, local_read, lan, wan]");
        let mut hw = HardwareParams::defaults();
        hw.core_speed = values[0];
        hw.set_local_read_bw(self.platform.page_cache_enabled, values[1]);
        hw.lan_bw = values[2];
        hw.wan_bw = values[3];
        hw
    }

    /// Simulate the member at a full hardware parameter set and return the
    /// metric vector (per-node mean job times, ICD-major).
    pub fn simulate_metrics_session(
        &self,
        session: &mut SimSession,
        hw: &HardwareParams,
    ) -> Vec<f64> {
        let mut config = self.config.clone();
        config.hardware = *hw;
        let mut out = Vec::with_capacity(self.truth_metrics.len());
        for (_, plan) in &self.plans {
            let trace = session.run(&self.platform, &self.workload, plan, &config);
            out.extend(trace.mean_job_time_by_node());
        }
        out
    }

    /// Simulate the member and return per-job durations (ICD-major).
    pub fn simulate_job_times_session(
        &self,
        session: &mut SimSession,
        hw: &HardwareParams,
    ) -> Vec<f64> {
        let mut config = self.config.clone();
        config.hardware = *hw;
        let mut out = Vec::with_capacity(self.plans.len() * self.workload.len());
        for (_, plan) in &self.plans {
            let trace = session.run(&self.platform, &self.workload, plan, &config);
            out.extend(trace.jobs.iter().map(|j| j.duration()));
        }
        out
    }

    /// Simulate the member plan by plan at `hw`, lazily: each item runs
    /// the next plan and pairs the values `sample` reads off its trace
    /// with that plan's block of `truth` (ICD-major, one equal block per
    /// plan). A fold that stops early ([`MeanFold::fold_capped`]) never
    /// runs the remaining plans.
    pub(crate) fn runs<'a>(
        &'a self,
        session: &'a mut SimSession,
        hw: &HardwareParams,
        sample: Sample,
        truth: &'a [f64],
    ) -> impl ExactSizeIterator<Item = impl Iterator<Item = (f64, f64)> + 'a> + 'a {
        assert_eq!(truth.len() % self.plans.len(), 0, "truth is not one block per plan");
        let mut config = self.config.clone();
        config.hardware = *hw;
        let blocks = truth.chunks(truth.len() / self.plans.len());
        self.plans.iter().zip(blocks).map(move |((_, plan), truth)| {
            let sim = sample(&session.run(&self.platform, &self.workload, plan, &config));
            assert_eq!(sim.len(), truth.len(), "metric vectors differ in length");
            sim.into_iter().zip(truth.iter().copied())
        })
    }

    /// The member's discrepancy (MRE %, the paper's accuracy metric) at
    /// `values`, folded into a fresh [`MeanFold`] that is returned
    /// finished, or capped with the bound that reached `cap` (see
    /// [`MeanFold::fold_capped`]).
    ///
    /// Scenario members may leave nodes unused (small workloads on wide
    /// platforms), which makes their per-node truth metric NaN; those
    /// positions are masked out. A candidate that leaves a *truth-used*
    /// node idle scores a 100% relative error on that position. With no
    /// NaN anywhere this is exactly [`simcal_calib::mre_percent`]
    /// (bit-identical — the degenerate single-platform case relies on it).
    fn masked_mre_session(
        &self,
        session: &mut SimSession,
        values: &[f64],
        cap: f64,
        bound: impl Fn(&MeanFold) -> f64,
    ) -> (MeanFold, Option<f64>) {
        let n = self.truth_metrics.iter().filter(|t| t.is_finite()).count();
        assert!(n > 0, "no finite truth metric");
        let mut fold = MeanFold::new(100.0, n);
        let hw = self.hardware_from(values);
        let blocks = self
            .runs(session, &hw, ExecutionTrace::mean_job_time_by_node, &self.truth_metrics)
            .map(|block| {
                block
                    .filter(|(_, t)| t.is_finite())
                    .map(|(s, t)| relative_error(if s.is_finite() { s } else { 0.0 }, t))
            });
        let capped = fold.fold_capped(blocks, cap, bound);
        (fold, capped)
    }

    /// The member's masked MRE % at the 4 calibrated values (see
    /// `masked_mre_session`).
    pub fn score_session(&self, session: &mut SimSession, values: &[f64]) -> f64 {
        self.masked_mre_session(session, values, f64::INFINITY, MeanFold::value).0.value()
    }
}

/// The scenario-family calibration objective: the mean member MRE over a
/// shared 4-parameter hardware space.
pub struct FamilyObjective {
    members: Vec<FamilyMember>,
}

impl FamilyObjective {
    /// An objective over explicit members (panics if empty).
    pub fn new(members: Vec<FamilyMember>) -> Self {
        assert!(!members.is_empty(), "a family needs at least one member");
        Self { members }
    }

    /// Build the objective for every registry scenario matching `pattern`
    /// (same matching rules as `scenarios list`), generating each member's
    /// scenario-driven ground truth over `icds`. `Err` if nothing matches.
    pub fn from_registry(
        reg: &ScenarioRegistry,
        pattern: &str,
        icds: &[f64],
        truth: &TruthParams,
    ) -> Result<Self, String> {
        let entries = reg.matching(pattern);
        if entries.is_empty() {
            return Err(format!("no scenario matches {pattern:?}"));
        }
        let mut session = SimSession::new();
        let members = entries
            .iter()
            .map(|e| FamilyMember::from_scenario(&e.scenario, icds, truth, &mut session))
            .collect();
        Ok(Self { members })
    }

    /// The family's members.
    pub fn members(&self) -> &[FamilyMember] {
        &self.members
    }

    /// Per-member discrepancies at `values` (for the per-member report).
    pub fn member_scores_session(&self, session: &mut SimSession, values: &[f64]) -> Vec<f64> {
        self.members.iter().map(|m| m.score_session(session, values)).collect()
    }

    /// Aggregate a member-score vector (unweighted mean — every member
    /// scenario constrains the shared parameters equally).
    pub fn aggregate(scores: &[f64]) -> f64 {
        let mut total = MeanFold::new(1.0, scores.len());
        scores.iter().for_each(|&s| total.add(s));
        total.value()
    }
}

impl Objective for FamilyObjective {
    fn evaluate(&self, values: &[f64]) -> f64 {
        self.evaluate_with(&mut EvalContext::new(), values)
    }

    /// The calibration hot path: one parked [`SimSession`] per worker,
    /// shared across every member simulation of every candidate point. The
    /// aggregate folds the member scores in order, and the evaluation stops
    /// after any ICD run but the family's last once `(Σ finished scores +
    /// the current member's partial score) / k` reaches `cap`.
    fn evaluate_capped(&self, ctx: &mut EvalContext, values: &[f64], cap: f64) -> Evaluation {
        let session = ctx.get_or_insert_with(SimSession::new);
        let mut total = MeanFold::new(1.0, self.members.len());
        let last = self.members.len() - 1;
        for (i, m) in self.members.iter().enumerate() {
            let bound = |f: &MeanFold| total.value_with(f.value());
            let (score, capped) = m.masked_mre_session(session, values, cap, bound);
            if let Some(bound) = capped {
                return Evaluation::capped(bound);
            }
            total.add(score.value());
            if i < last && cap_reached(total.value(), cap) {
                return Evaluation::capped(total.value());
            }
        }
        Evaluation::done(total.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcal_storage::XRootDConfig;

    fn reduced_truth() -> TruthParams {
        let mut truth = TruthParams::case_study();
        truth.granularity = XRootDConfig::new(8e6, 2e6);
        truth
    }

    fn hetero_family() -> FamilyObjective {
        FamilyObjective::from_registry(
            &ScenarioRegistry::reduced(),
            "hetero",
            &[0.0, 0.5, 1.0],
            &reduced_truth(),
        )
        .unwrap()
    }

    #[test]
    fn family_covers_every_matching_scenario() {
        let fam = hetero_family();
        assert_eq!(fam.members().len(), 4);
        for m in fam.members() {
            assert!(m.name().starts_with("hetero-"));
            assert_eq!(m.truth_metrics().len(), 3 * m.platform().node_count());
            // Unused nodes (small reduced workloads on wide platforms)
            // are NaN and masked at scoring time; used nodes must be
            // positive and there must be some.
            let finite: Vec<f64> =
                m.truth_metrics().iter().copied().filter(|v| v.is_finite()).collect();
            assert!(!finite.is_empty(), "{}: no used node", m.name());
            assert!(finite.iter().all(|&v| v > 0.0));
        }
    }

    #[test]
    fn unknown_pattern_is_an_error() {
        let r = FamilyObjective::from_registry(
            &ScenarioRegistry::reduced(),
            "no-such-family",
            &[0.5],
            &reduced_truth(),
        );
        assert!(r.is_err());
    }

    #[test]
    fn truth_values_beat_defaults_across_the_family() {
        let fam = hetero_family();
        let truth = reduced_truth();
        // Shared candidate at the true effective values (page-cache read
        // bandwidth — the hetero family has page-cache members).
        let at_truth = fam.evaluate(&[
            truth.core_speed,
            truth.page_cache_bw,
            truth.lan_bw,
            units::gbps(10.0) * 1.15,
        ]);
        let at_defaults = fam.evaluate(&[
            units::gflops(1.0),
            units::gbytes_per_sec(1.0),
            units::gbps(10.0),
            units::gbps(10.0),
        ]);
        assert!(at_truth.is_finite() && at_defaults.is_finite());
        assert!(at_truth < at_defaults, "truth {at_truth} vs defaults {at_defaults}");
    }

    #[test]
    fn aggregate_is_the_member_mean_and_session_reuse_is_exact() {
        let fam = hetero_family();
        let v = [2e9, 5e9, 1.25e9, 1.4e8];
        let mut session = SimSession::new();
        let scores = fam.member_scores_session(&mut session, &v);
        assert_eq!(scores.len(), 4);
        let agg = FamilyObjective::aggregate(&scores);
        let cold = fam.evaluate(&v);
        assert_eq!(agg.to_bits(), cold.to_bits());
        // Reused-session evaluation (the evaluator hot path) is identical.
        let mut ctx = EvalContext::new();
        let warm = Objective::evaluate_with(&fam, &mut ctx, &v);
        assert_eq!(warm.to_bits(), cold.to_bits());
        assert!(ctx.holds::<SimSession>());
    }

    #[test]
    fn member_ground_truth_is_deterministic() {
        let truth = reduced_truth();
        let reg = ScenarioRegistry::reduced();
        let sc = reg.get("hetero-fat").unwrap();
        let a = FamilyMember::from_scenario(sc, &[0.0, 1.0], &truth, &mut SimSession::new());
        let b = FamilyMember::from_scenario(sc, &[0.0, 1.0], &truth, &mut SimSession::new());
        assert_eq!(a.truth_metrics(), b.truth_metrics());
    }

    #[test]
    fn truth_config_mirrors_the_paper_grid_emulator() {
        // On a paper platform the generic twin must equal the
        // PlatformKind-based ground-truth configuration (modulo the noise
        // seed, which is per-member rather than per-kind).
        use simcal_platform::PlatformKind;
        let truth = TruthParams::case_study();
        let reg = ScenarioRegistry::builtin();
        let sc = reg.get("cms-scsn").unwrap();
        let generic = scenario_truth_config(sc, &truth, 48);
        let kind_based = simcal_groundtruth::ground_truth_config(PlatformKind::Scsn, &truth, 48);
        assert_eq!(generic.hardware, kind_based.hardware);
        assert_eq!(generic.granularity, kind_based.granularity);
        assert_eq!(generic.cache_write_through, kind_based.cache_write_through);
        assert_eq!(generic.noise.compute_factors, kind_based.noise.compute_factors);
        assert_eq!(generic.noise.read_jitter_sigma, kind_based.noise.read_jitter_sigma);
    }
}
