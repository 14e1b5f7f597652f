//! `sweep-steady` and `sweep-mixed`: scenario grids through `SweepRunner`.
//!
//! `sweep-steady` is the three open-loop `steady-*` horizon scenarios: a
//! release-timer population thousands deep, FCFS queueing and streaming
//! percentile folds, so an event-list or scheduler change that helps
//! shallow run-to-completion queues and hurts deep ones shows here.
//! `sweep-mixed` is every other builtin scenario at five ICD values:
//! many small and medium run-to-completion simulations across every model
//! variant, where per-scenario set-up and the sweep's own folding carry
//! weight they carry nowhere else.

use std::collections::BTreeMap;

use simcal_sim::{CacheSpec, Scenario, ScenarioRegistry, SimSession};
use simcal_study::{SweepResult, SweepRunner};

use super::{Cfg, LayerOut, Metrics, PassOut, Workload, REPLAYS};
use crate::counters::KernelCounters;
use crate::inputs::{sub_seed, Fnv};
use crate::stats;
use crate::trace::{Recorder, Span};

pub struct Sweep {
    grid: Vec<Scenario>,
    /// Registry family of each grid scenario.
    families: Vec<&'static str>,
    /// Digest per scenario from the last pass, for the replay cross-check.
    last_items: Vec<u64>,
    seed_note: &'static str,
}

/// What is checked of one scenario's result: its kernel event count and
/// the hash over every job record.
pub(super) fn result_digest(r: &SweepResult) -> u64 {
    let mut h = Fnv::new();
    h.u64(r.events);
    h.u64(r.trace_hash);
    h.finish()
}

fn builtin(rec: &Recorder, parent: Option<u32>) -> ScenarioRegistry {
    rec.time("sim", "ScenarioRegistry::builtin", parent, |_| ScenarioRegistry::builtin()).0
}

/// The three builtin `steady-*` scenarios, as registered (self-seeded).
pub fn steady(_cfg: &Cfg, rec: &Recorder, parent: Option<u32>) -> Sweep {
    let registry = builtin(rec, parent);
    let entries: Vec<_> = registry.entries().iter().filter(|e| e.family == "steady").collect();
    Sweep {
        grid: entries.iter().map(|e| e.scenario.clone()).collect(),
        families: entries.iter().map(|e| e.family).collect(),
        last_items: Vec::new(),
        seed_note: "seed unused: the steady scenarios carry the registry's own seeds",
    }
}

/// Every builtin scenario outside the `steady` family at ICD 0.1, 0.3, 0.5,
/// 0.7 and 0.9 (0.5 only under `--quick`), each with a cache placement drawn
/// from the seed: which files start out cached changes with the seed, how
/// many does not, so the work in a sweep barely depends on it.
pub fn mixed(cfg: &Cfg, rec: &Recorder, parent: Option<u32>) -> Sweep {
    let registry = builtin(rec, parent);
    let icds: &[f64] = if cfg.quick { &[0.5] } else { &[0.1, 0.3, 0.5, 0.7, 0.9] };
    let (mut grid, mut families) = (Vec::new(), Vec::new());
    for e in registry.entries().iter().filter(|e| e.family != "steady") {
        for &icd in icds {
            let mut sc = e.scenario.clone();
            sc.name = format!("{}@icd{icd}", sc.name);
            sc.cache = CacheSpec::seeded(icd, sub_seed(cfg.seed, 100 + grid.len() as u64));
            grid.push(sc);
            families.push(e.family);
        }
    }
    Sweep {
        grid,
        families,
        last_items: Vec::new(),
        seed_note: "seed -> every scenario's cache-placement seed (workloads carry the registry's)",
    }
}

/// What running a grid's scenarios directly, without the sweep driver,
/// measured.
pub(super) struct DirectReplay {
    /// Digest per scenario (`None` where the simulator reported an error).
    pub digests: Vec<Option<u64>>,
    /// Seconds in `Scenario::materialize` over the grid.
    pub materialize_s: f64,
    /// Seconds materializing and simulating over the grid.
    pub total_s: f64,
    /// Milliseconds materializing and simulating, per registry family.
    pub family_ms: BTreeMap<&'static str, f64>,
    pub events: u64,
    pub kernel: KernelCounters,
}

/// Materialize and simulate every scenario of `grid` on one session,
/// reading the kernel's counters after each single-site run (multi-site
/// scenarios run on per-site engines of their own, which are gone by then).
pub(super) fn replay_direct(
    grid: &[Scenario],
    families: &[&'static str],
    rec: &Recorder,
    parent: u32,
) -> DirectReplay {
    let mut session = SimSession::new();
    let mut out = DirectReplay {
        digests: Vec::new(),
        materialize_s: 0.0,
        total_s: 0.0,
        family_ms: BTreeMap::new(),
        events: 0,
        kernel: KernelCounters::default(),
    };
    let open = rec.open("sim", Some(parent));
    for (sc, &family) in grid.iter().zip(families) {
        let (mat, mat_s) = rec.time("sim", "materialize", Some(open.id), |_| sc.materialize());
        let (report, run_s) = rec.time("sim", &format!("run:{family}"), Some(open.id), |_| {
            mat.try_run_report(&mut session, 1)
        });
        out.materialize_s += mat_s;
        out.total_s += mat_s + run_s;
        *out.family_ms.entry(family).or_default() += (mat_s + run_s) * 1e3;
        out.digests.push(report.ok().map(|report| {
            if sc.multisite.is_none() {
                out.kernel.add_debug(&format!("{:?}", session.engine_stats()));
            }
            let direct = SweepResult::from_report(&sc.name, &report);
            out.events += direct.events;
            result_digest(&direct)
        }));
    }
    rec.close(open, "replay-scenarios");
    out
}

impl DirectReplay {
    /// The `sim` and `des` metrics of the replay, and how many scenarios
    /// differ from `expected` (the sweep driver's digests).
    pub(super) fn metrics(&self, expected: &[u64]) -> LayerOut {
        let n = self.digests.len() as f64;
        let mut metrics = Metrics::new();
        metrics.push(("sim.materialize_us".into(), self.materialize_s * 1e6 / n));
        for (family, ms) in &self.family_ms {
            metrics.push((format!("sim.family_ms.{family}"), *ms));
        }
        metrics.push(("sim.events".into(), self.events as f64));
        metrics.extend(self.kernel.metrics().into_iter().map(|(k, v)| (k.to_string(), v)));
        let failed = self
            .digests
            .iter()
            .enumerate()
            .filter(|&(i, d)| d.is_none() || *d != expected.get(i).copied())
            .count() as u64;
        LayerOut { metrics, failed }
    }
}

impl Workload for Sweep {
    fn unit(&self) -> &'static str {
        "scenarios"
    }

    fn seed_note(&self) -> &'static str {
        self.seed_note
    }

    fn par_metric(&self) -> &'static str {
        "study.sweep.par_efficiency"
    }

    fn pass(&mut self, workers: usize, rec: &Recorder, parent: Option<u32>) -> PassOut {
        let runner = SweepRunner::new().with_workers(workers);
        let (results, _) =
            rec.time("study", "SweepRunner::run", parent, |_| runner.run(&self.grid));
        let failed = results
            .iter()
            .filter(|r| !(r.makespan.is_finite() && r.mean_job_time.is_finite()))
            .count() as u64;
        self.last_items = results.iter().map(result_digest).collect();
        PassOut { items: self.last_items.clone(), ops: self.grid.len() as u64, failed }
    }

    fn layer_metrics(
        &mut self,
        rec: &Recorder,
        parent: u32,
        spans: &[Span],
        _traced_passes: usize,
    ) -> LayerOut {
        let replays: Vec<_> =
            (0..REPLAYS).map(|_| replay_direct(&self.grid, &self.families, rec, parent)).collect();
        let direct_s = stats::median(&replays.iter().map(|r| r.total_s).collect::<Vec<_>>());
        let mut out = replays[0].metrics(&self.last_items);
        let runner_s: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "SweepRunner::run")
            .map(|s| s.dur_ns() as f64 / 1e9)
            .collect();
        if !runner_s.is_empty() {
            out.metrics.push((
                "study.sweep.self_us_per_scenario".into(),
                (stats::median(&runner_s) - direct_s) * 1e6 / self.grid.len() as f64,
            ));
        }
        out
    }
}
