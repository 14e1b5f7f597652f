//! First-class simulation scenarios.
//!
//! A [`Scenario`] bundles everything one simulation execution needs —
//! platform spec, workload source, initially-cached-data plan, hardware /
//! granularity / noise configuration, and scheduler policy — into a single
//! self-describing value. The ground-truth generator, the case study, the
//! sweep driver, and the CLI all run the *same* scenario machinery, so a
//! scenario defined once is runnable everywhere.
//!
//! Scenarios are **deterministic by construction**: the workload is drawn
//! from a seeded [`WorkloadSpec`] (or is a concrete workload), the cache
//! plan seed is a pure function of the ICD value (or pinned explicitly),
//! and all stochastic elements live behind seeds in the [`SimConfig`].
//! Materializing or running the same scenario twice is bit-identical, no
//! matter which thread or worker does it — the property the sharded
//! [`SweepRunner`](../../simcal_study/sweep) relies on.

use std::sync::Arc;

use simcal_platform::{MultiSiteSpec, PlatformSpec};
use simcal_storage::CachePlan;
use simcal_workload::{ExecutionTrace, Workload, WorkloadSpec};

use crate::config::SimConfig;
use crate::multisite::try_simulate_multisite;
use crate::simulator::{SimError, SimSession};
use crate::stream::{HorizonReport, HorizonSpec};

/// Where a scenario's workload comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSource {
    /// Generate from a distribution-driven spec with a fixed seed
    /// (registry scenarios; deterministic per seed).
    Spec {
        /// The generative specification.
        spec: WorkloadSpec,
        /// Seed for [`WorkloadSpec::generate`].
        seed: u64,
    },
    /// An already-concrete workload (the ground-truth pipeline, which
    /// shares one workload across many scenarios).
    Concrete(Arc<Workload>),
}

impl WorkloadSource {
    /// Materialize the workload (generates `Spec` sources; clones the
    /// `Arc` for concrete ones).
    pub fn workload(&self) -> Arc<Workload> {
        match self {
            WorkloadSource::Spec { spec, seed } => Arc::new(spec.generate(*seed)),
            WorkloadSource::Concrete(w) => w.clone(),
        }
    }

    /// Number of jobs the source will produce (no generation needed).
    pub fn n_jobs(&self) -> usize {
        match self {
            WorkloadSource::Spec { spec, .. } => spec.n_jobs,
            WorkloadSource::Concrete(w) => w.len(),
        }
    }
}

/// The initially-cached-data part of a scenario: an ICD fraction plus the
/// seed its per-(job, file) placement is drawn from.
///
/// The canonical seed is a pure function of the ICD value (the rule the
/// ground-truth generator and the calibration objective have always
/// shared — the placement is part of the scenario, known to both sides).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheSpec {
    /// Fraction of input files initially cached, in `[0, 1]`.
    pub icd: f64,
    /// Explicit placement seed; `None` = the canonical ICD-derived seed.
    pub seed: Option<u64>,
}

impl CacheSpec {
    /// The canonical plan for an ICD value (seed derived from the ICD).
    pub fn canonical(icd: f64) -> Self {
        Self { icd, seed: None }
    }

    /// A plan with an explicitly pinned placement seed.
    pub fn seeded(icd: f64, seed: u64) -> Self {
        Self { icd, seed: Some(seed) }
    }

    /// The effective placement seed.
    pub fn placement_seed(&self) -> u64 {
        self.seed.unwrap_or(7_700 + (self.icd * 1000.0).round() as u64)
    }

    /// Materialize the deterministic per-(job, file) cache plan.
    pub fn plan(&self, workload: &Workload) -> CachePlan {
        CachePlan::new(workload, self.icd, self.placement_seed())
    }
}

/// One complete, runnable simulation scenario.
///
/// ```
/// use simcal_sim::{CacheSpec, Scenario, SimConfig, SimSession, WorkloadSource};
/// use simcal_platform::catalog;
/// use simcal_workload::WorkloadSpec;
///
/// let sc = Scenario {
///     name: "demo".into(),
///     platform: catalog::scsn(),
///     workload: WorkloadSource::Spec {
///         spec: WorkloadSpec::constant(6, 4, 10e6, 6.0, 1e6),
///         seed: 0,
///     },
///     cache: CacheSpec::canonical(0.5),
///     config: SimConfig::default(),
///     multisite: None,
///     horizon: None,
/// };
/// let trace = sc.run(&mut SimSession::new());
/// assert_eq!(trace.jobs.len(), 6);
/// // Deterministic: a second run is bit-identical.
/// assert_eq!(sc.run(&mut SimSession::new()).jobs, trace.jobs);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Unique, CLI-addressable name (e.g. `"cms-scsn"`).
    pub name: String,
    /// The platform to simulate on.
    pub platform: PlatformSpec,
    /// The workload to execute.
    pub workload: WorkloadSource,
    /// Initially-cached-data placement.
    pub cache: CacheSpec,
    /// Hardware, granularity, noise, and scheduler-policy configuration.
    pub config: SimConfig,
    /// Multi-site topology: when set, the scenario runs on the multi-site
    /// simulator ([`crate::multisite`]) — the single-site `platform` field
    /// is ignored. `None` = the classic single-site path, byte-identical
    /// to what it always produced.
    pub multisite: Option<MultiSiteSpec>,
    /// Steady-state horizon mode: when set, the scenario runs its seeded
    /// arrival stream open-loop over `[0, duration)` and reports
    /// streaming percentiles and SLO attainment instead of requiring
    /// every job to finish ([`SimSession::try_run_horizon`]). `None` =
    /// the classic run-to-completion mode. Mutually exclusive with
    /// `multisite`.
    pub horizon: Option<HorizonSpec>,
}

/// A scenario with its workload and cache plan materialized, ready to run
/// repeatedly without regenerating inputs.
#[derive(Debug, Clone)]
pub struct MaterializedScenario<'a> {
    /// The scenario this was materialized from.
    pub scenario: &'a Scenario,
    /// The concrete workload.
    pub workload: Arc<Workload>,
    /// The concrete cache plan.
    pub plan: CachePlan,
}

impl Scenario {
    /// Panic unless the scenario is structurally valid.
    pub fn validate(&self) {
        self.platform.validate();
        self.config.validate();
        if let Some(ms) = &self.multisite {
            ms.validate();
        }
        if let Some(h) = &self.horizon {
            h.validate();
            assert!(
                self.multisite.is_none(),
                "scenario {:?}: horizon mode and multisite are mutually exclusive",
                self.name
            );
        }
        assert!(
            (0.0..=1.0).contains(&self.cache.icd),
            "scenario {:?}: ICD {} outside [0, 1]",
            self.name,
            self.cache.icd
        );
        assert!(!self.name.is_empty(), "scenario needs a name");
    }

    /// Materialize the workload and cache plan once (deterministic).
    pub fn materialize(&self) -> MaterializedScenario<'_> {
        let workload = self.workload.workload();
        let plan = self.cache.plan(&workload);
        MaterializedScenario { scenario: self, workload, plan }
    }

    /// Run the scenario on a caller-owned session (panics on the
    /// simulator logic errors [`SimError`] reports).
    pub fn run(&self, session: &mut SimSession) -> ExecutionTrace {
        self.materialize().run(session)
    }

    /// Run the scenario, reporting simulator logic errors.
    pub fn try_run(&self, session: &mut SimSession) -> Result<ExecutionTrace, SimError> {
        self.materialize().try_run(session)
    }

    /// Run the scenario and return the full report: the execution trace
    /// plus, for horizon-mode scenarios, the streaming steady-state
    /// summary. Run-to-completion scenarios report `horizon: None`.
    ///
    /// `_shards` is ignored: every scenario runs on one thread. The
    /// argument stays so existing callers keep compiling.
    pub fn try_run_report(
        &self,
        session: &mut SimSession,
        _shards: usize,
    ) -> Result<RunReport, SimError> {
        self.materialize().try_run_report(session, 1)
    }
}

/// What a scenario run produced: always a trace, plus the steady-state
/// report when the scenario ran in horizon mode.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The execution trace (completed jobs only under horizon mode).
    pub trace: ExecutionTrace,
    /// The streaming steady-state summary (horizon-mode scenarios only).
    pub horizon: Option<HorizonReport>,
}

impl MaterializedScenario<'_> {
    /// Run on a caller-owned session (see [`Scenario::run`]).
    pub fn run(&self, session: &mut SimSession) -> ExecutionTrace {
        self.try_run(session).unwrap_or_else(|e| panic!("simulation failed: {e}"))
    }

    /// Run, reporting simulator logic errors.
    pub fn try_run(&self, session: &mut SimSession) -> Result<ExecutionTrace, SimError> {
        self.try_run_report(session, 1).map(|r| r.trace)
    }

    /// Run and return the full report (see [`Scenario::try_run_report`];
    /// `_shards` is ignored there too).
    pub fn try_run_report(
        &self,
        session: &mut SimSession,
        _shards: usize,
    ) -> Result<RunReport, SimError> {
        if let Some(h) = &self.scenario.horizon {
            assert!(
                self.scenario.multisite.is_none(),
                "horizon mode and multisite are mutually exclusive"
            );
            let run = session.try_run_horizon(
                &self.scenario.platform,
                &self.workload,
                &self.plan,
                &self.scenario.config,
                h,
            )?;
            return Ok(RunReport { trace: run.trace, horizon: Some(run.report) });
        }
        let trace = match &self.scenario.multisite {
            Some(ms) => {
                try_simulate_multisite(ms, &self.workload, &self.plan, &self.scenario.config)?
            }
            None => session.try_run(
                &self.scenario.platform,
                &self.workload,
                &self.plan,
                &self.scenario.config,
            )?,
        };
        Ok(RunReport { trace, horizon: None })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcal_platform::catalog;

    fn demo(icd: f64) -> Scenario {
        Scenario {
            name: "demo".into(),
            platform: catalog::scsn(),
            workload: WorkloadSource::Spec {
                spec: WorkloadSpec::constant(6, 4, 10e6, 6.0, 1e6),
                seed: 3,
            },
            cache: CacheSpec::canonical(icd),
            config: SimConfig::default(),
            multisite: None,
            horizon: None,
        }
    }

    #[test]
    fn canonical_cache_seed_matches_icd_rule() {
        assert_eq!(CacheSpec::canonical(0.0).placement_seed(), 7_700);
        assert_eq!(CacheSpec::canonical(0.5).placement_seed(), 8_200);
        assert_eq!(CacheSpec::canonical(1.0).placement_seed(), 8_700);
        assert_eq!(CacheSpec::seeded(0.5, 42).placement_seed(), 42);
    }

    #[test]
    fn materialization_is_deterministic() {
        let sc = demo(0.5);
        let a = sc.materialize();
        let b = sc.materialize();
        assert_eq!(a.workload.jobs, b.workload.jobs);
        assert_eq!(a.plan, b.plan);
    }

    #[test]
    fn run_is_deterministic_and_matches_materialized_run() {
        let sc = demo(0.3);
        let mut session = SimSession::new();
        let direct = sc.run(&mut session);
        let mat = sc.materialize();
        let via_mat = mat.run(&mut session);
        assert_eq!(direct.jobs, via_mat.jobs);
        assert_eq!(direct.engine_events, via_mat.engine_events);
    }

    #[test]
    fn concrete_source_shares_the_workload() {
        let w = Arc::new(WorkloadSpec::constant(4, 2, 1e6, 6.0, 1e5).generate(0));
        let src = WorkloadSource::Concrete(w.clone());
        assert!(Arc::ptr_eq(&src.workload(), &w));
        assert_eq!(src.n_jobs(), 4);
    }

    #[test]
    #[should_panic(expected = "ICD")]
    fn invalid_icd_rejected() {
        let mut sc = demo(0.5);
        sc.cache.icd = 1.5;
        sc.validate();
    }
}
