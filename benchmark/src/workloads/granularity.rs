//! `sim-granularity`: Table VI's column — one CMS simulation on FCSN at ICD
//! 0.5 at each of the paper's four data-movement granularities.
//!
//! Events per run grow from thousands (1 s) to millions (5 min), nearly all
//! of them identical pipelined chunk completions the kernel settles without
//! a solve: the event machinery and the simulator's per-chunk reissue carry
//! the time and the max-min solver almost none — the opposite split from
//! `calib-paper`, inside the same crates.

use simcal_platform::{catalog, HardwareParams, PlatformSpec};
use simcal_sim::{simulate, SimConfig, SimSession};
use simcal_storage::{CachePlan, XRootDConfig};
use simcal_workload::{cms_workload, Workload as JobSet};

use super::{Cfg, LayerOut, Metrics, PassOut, Workload};
use crate::counters::KernelCounters;
use crate::inputs::{sub_seed, trace_digest};
use crate::stats;
use crate::trace::{Recorder, Span};

pub struct Granularity {
    platform: PlatformSpec,
    workload: JobSet,
    cache: CachePlan,
    /// `(label, configuration)`, fastest first.
    configs: Vec<(&'static str, SimConfig)>,
}

pub fn setup(cfg: &Cfg, rec: &Recorder, parent: Option<u32>) -> Granularity {
    let (workload, _) = rec.time("workload", "cms_workload", parent, |_| cms_workload());
    let (platform, _) = rec.time("platform", "catalog::fcsn", parent, |_| catalog::fcsn());
    let (cache, _) = rec.time("storage", "CachePlan::new", parent, |_| {
        CachePlan::new(&workload, 0.5, sub_seed(cfg.seed, 2))
    });
    // The hardware values the paper's calibrations converged to.
    let hardware = HardwareParams {
        core_speed: 1.97e9,
        disk_bw: 17e6,
        page_cache_bw: 10e9,
        wan_bw: 1.15e9 / 8.0,
        ..HardwareParams::defaults()
    };
    let mut table = vec![
        ("1s", XRootDConfig::paper_1s()),
        ("3s", XRootDConfig::paper_3s()),
        ("30s", XRootDConfig::paper_30s()),
        ("5min", XRootDConfig::paper_5min()),
    ];
    if cfg.quick {
        // The 5 min setting is nine tenths of the pass.
        table.pop();
    }
    let configs = table.into_iter().map(|(l, g)| (l, SimConfig::new(hardware, g))).collect();
    Granularity { platform, workload, cache, configs }
}

impl Granularity {
    /// The four simulations, in order; one digest each.
    fn run_all(&self, rec: &Recorder, parent: Option<u32>) -> Vec<u64> {
        self.configs
            .iter()
            .map(|(label, config)| {
                let (trace, _) = rec.time("sim", &format!("simulate:{label}"), parent, |_| {
                    simulate(&self.platform, &self.workload, &self.cache, config)
                });
                trace_digest(&trace)
            })
            .collect()
    }
}

impl Workload for Granularity {
    fn unit(&self) -> &'static str {
        "simulations"
    }

    fn seed_note(&self) -> &'static str {
        "seed -> cache-placement seed"
    }

    fn par_metric(&self) -> &'static str {
        "sim.par_efficiency"
    }

    /// At one worker, the four simulations in sequence. At `workers` > 1,
    /// that many threads each run the same four at once — what a parallel
    /// calibration's evaluator does to the simulator.
    fn pass(&mut self, workers: usize, rec: &Recorder, parent: Option<u32>) -> PassOut {
        let n = self.configs.len() as u64;
        if workers == 1 {
            return PassOut { items: self.run_all(rec, parent), ops: n, failed: 0 };
        }
        let this = &*self;
        let mut per_thread: Vec<Vec<u64>> = std::thread::scope(|scope| {
            let handles: Vec<_> =
                (0..workers).map(|_| scope.spawn(|| this.run_all(rec, parent))).collect();
            handles.into_iter().map(|h| h.join().expect("simulation thread panicked")).collect()
        });
        let items = per_thread.pop().expect("workers > 1");
        let failed = per_thread
            .iter()
            .map(|other| other.iter().zip(&items).filter(|(a, b)| a != b).count() as u64)
            .sum();
        PassOut { items, ops: n * workers as u64, failed }
    }

    fn layer_metrics(
        &mut self,
        rec: &Recorder,
        parent: u32,
        spans: &[Span],
        _traced_passes: usize,
    ) -> LayerOut {
        let mut m = Metrics::new();
        let mut kernel = KernelCounters::default();
        let mut total_events = 0u64;
        // One more run of each setting on a session, for its counters.
        for (label, config) in &self.configs {
            let mut session = SimSession::new();
            let (trace, _) = rec.time("sim", &format!("replay:{label}"), Some(parent), |_| {
                session.run(&self.platform, &self.workload, &self.cache, config)
            });
            kernel.add_debug(&format!("{:?}", session.engine_stats()));
            total_events += trace.engine_events;

            let name = format!("simulate:{label}");
            let ms: Vec<f64> =
                spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e6).collect();
            if !ms.is_empty() {
                let median = stats::median(&ms);
                m.push((format!("sim.simulate_ms.{label}"), median));
                m.push((
                    format!("sim.ns_per_event.{label}"),
                    median * 1e6 / trace.engine_events as f64,
                ));
            }
        }
        m.push(("sim.events".into(), total_events as f64));
        m.extend(kernel.metrics().into_iter().map(|(k, v)| (k.to_string(), v)));
        LayerOut { metrics: m, failed: 0 }
    }
}
