//! The six workloads and what they share.
//!
//! A workload is set up once from the seed, then run in *passes*: one pass
//! does a fixed amount of work (a roster of calibrations, the four
//! granularities, one sweep of a grid, one trio of fleet sweeps) at a given
//! worker count and returns a digest per result, which the driver checks
//! against the first pass.

mod calib;
mod granularity;
mod sweep;
mod wire;

use std::path::PathBuf;

use crate::trace::{Recorder, Span};

pub use wire::list_scenarios;

/// The workload names, in the order the whole set runs.
pub const NAMES: [&str; 6] = [
    "calib-reduced",
    "calib-paper",
    "sim-granularity",
    "sweep-steady",
    "sweep-mixed",
    "sweep-wire",
];

/// The workload that is run and reported but that `BENCHMARK.json` does not
/// list, so that its end-to-end metrics are held to no bound. A fleet sweep
/// is several processes at once; when a small shared machine takes its
/// second core away for half a minute, which it does every few minutes, the
/// same sweep takes three times as long, and ten runs spread by 40%.
pub const UNGATED: &str = "sweep-wire";

/// What a workload is built from.
pub struct Cfg {
    pub seed: u64,
    /// One repeat, budgets ÷ 10: results are not comparable with full runs.
    pub quick: bool,
    /// The `simcal-exp` binary (`sweep-wire` only).
    pub exp_bin: PathBuf,
    /// A directory of this process's own for spools and artifacts.
    pub scratch: PathBuf,
}

/// The outcome of one pass.
pub struct PassOut {
    /// One digest per result, in a fixed order that does not depend on the
    /// worker count.
    pub items: Vec<u64>,
    /// Operations attempted.
    pub ops: u64,
    /// Operations that failed inside the pass.
    pub failed: u64,
}

/// Named measurements.
pub type Metrics = Vec<(String, f64)>;

/// What the traced run's replay produced.
pub struct LayerOut {
    pub metrics: Metrics,
    /// Cross-checks that failed during the replay.
    pub failed: u64,
}

pub trait Workload {
    /// What one operation is.
    fn unit(&self) -> &'static str;

    /// How `--seed` reaches this workload's inputs.
    fn seed_note(&self) -> &'static str;

    /// The per-layer metric that holds this workload's parallel efficiency
    /// (P-worker throughput over P times 1-worker throughput), named after
    /// the layer that does the fan-out.
    fn par_metric(&self) -> &'static str;

    /// Run one pass at `workers` workers. With an enabled recorder the pass
    /// records a span around each call into a layer, under `parent`.
    fn pass(&mut self, workers: usize, rec: &Recorder, parent: Option<u32>) -> PassOut;

    /// Traced run only, after the passes: replay what the traced passes did
    /// directly against the lower layers (recording under `parent`) and
    /// derive this workload's per-layer metrics from `spans`, the spans of
    /// `traced_passes` traced passes.
    fn layer_metrics(
        &mut self,
        rec: &Recorder,
        parent: u32,
        spans: &[Span],
        traced_passes: usize,
    ) -> LayerOut;
}

/// Set up workload `name`, recording set-up spans under `parent`.
pub fn setup(
    name: &str,
    cfg: &Cfg,
    rec: &Recorder,
    parent: Option<u32>,
) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "calib-reduced" => Box::new(calib::reduced(cfg, rec, parent)),
        "calib-paper" => Box::new(calib::paper(cfg, rec, parent)),
        "sim-granularity" => Box::new(granularity::setup(cfg, rec, parent)),
        "sweep-steady" => Box::new(sweep::steady(cfg, rec, parent)),
        "sweep-mixed" => Box::new(sweep::mixed(cfg, rec, parent)),
        "sweep-wire" => Box::new(wire::setup(cfg, rec, parent)?),
        _ => return Err(format!("unknown workload {name:?} (one of {})", NAMES.join(", "))),
    })
}

/// How often the traced run replays a pass directly against the lower
/// layers. A layer's self time is the small difference of two large
/// timings; the median of a few replays steadies it.
const REPLAYS: usize = 3;
