//! Simulation configuration: hardware parameters, granularity, noise.

use simcal_des::FlowLevelParams;
use simcal_platform::HardwareParams;
use simcal_storage::XRootDConfig;

use crate::scheduler::SchedulerPolicy;

/// Bandwidth model for the WAN: the paper's scalar max–min cap, or a
/// flow-level model with propagation delay, windowed congestion control
/// and FIFO-QDisc queueing feedback.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum WanModel {
    /// Fluid max–min sharing of the scalar WAN capacity (the paper's
    /// emulator and this repo's historical behaviour).
    #[default]
    MaxMin,
    /// Flow-level WAN: each remote transfer carries a propagation delay
    /// and an AIMD congestion window; the WAN resource's FIFO QDisc feeds
    /// queueing delay back into effective rates.
    FlowLevel(FlowLevelCfg),
}

impl WanModel {
    /// Short stable name (CLI columns, sweep headers).
    pub fn name(&self) -> &'static str {
        match self {
            WanModel::MaxMin => "maxmin",
            WanModel::FlowLevel(_) => "flow-level",
        }
    }

    /// Lower the selection to the engine's
    /// [`set_wan_model`](simcal_des::Engine::set_wan_model) argument
    /// (`None` = max–min).
    pub fn to_engine(&self) -> Option<FlowLevelParams> {
        match self {
            WanModel::MaxMin => None,
            WanModel::FlowLevel(cfg) => Some(FlowLevelParams {
                window: cfg.window,
                gain: cfg.gain,
                additive_increase: cfg.additive_increase,
                mark_threshold: cfg.mark_threshold,
                ..FlowLevelParams::default()
            }),
        }
    }
}

/// Parameters of the flow-level WAN model, simulator-facing.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowLevelCfg {
    /// Base one-way WAN propagation delay, seconds (on top of the start
    /// latency the hardware parameters already charge).
    pub prop_delay: f64,
    /// Extra per-node propagation-delay step, seconds: node `i` sees
    /// `prop_delay + i * per_node_delay_step`. A nonzero step makes the
    /// WAN RTT-heterogeneous, the regime where windowed senders share
    /// unfairly.
    pub per_node_delay_step: f64,
    /// Initial congestion window, bytes; `None` = unbounded (degenerate:
    /// collapses to max–min when `prop_delay` is also zero).
    pub window: Option<f64>,
    /// Multiplicative-decrease gain in (0, 2): a congestion signal cuts
    /// the window by `gain / 2`.
    pub gain: f64,
    /// Additive increase, bytes per RTT, applied while unmarked.
    pub additive_increase: f64,
    /// Queueing delay (seconds) above which the QDisc marks flows.
    pub mark_threshold: f64,
}

impl Default for FlowLevelCfg {
    fn default() -> Self {
        let p = FlowLevelParams::default();
        Self {
            prop_delay: 0.02,
            per_node_delay_step: 0.0,
            window: p.window,
            gain: p.gain,
            additive_increase: p.additive_increase,
            mark_threshold: p.mark_threshold,
        }
    }
}

impl FlowLevelCfg {
    /// The degenerate configuration: zero delay, unbounded window. By the
    /// degeneracy guarantee this reproduces max–min bit for bit.
    pub fn degenerate() -> Self {
        Self { prop_delay: 0.0, per_node_delay_step: 0.0, window: None, ..Self::default() }
    }

    /// One-way propagation delay seen by node `node`.
    pub fn delay_for_node(&self, node: usize) -> f64 {
        self.prop_delay + node as f64 * self.per_node_delay_step
    }

    /// Panic unless the configuration is valid.
    pub fn validate(&self) {
        assert!(
            self.prop_delay.is_finite() && self.prop_delay >= 0.0,
            "WAN propagation delay must be non-negative"
        );
        assert!(
            self.per_node_delay_step.is_finite() && self.per_node_delay_step >= 0.0,
            "per-node delay step must be non-negative"
        );
        // Window/gain/increase/threshold invariants live with the engine
        // params; lower and let them check.
        FlowLevelParams {
            window: self.window,
            gain: self.gain,
            additive_increase: self.additive_increase,
            mark_threshold: self.mark_threshold,
            ..FlowLevelParams::default()
        }
        .validate();
    }
}

/// Stochastic-realism configuration.
///
/// The calibrated simulator runs with [`NoiseConfig::none`] — it is fully
/// deterministic, like the paper's WRENCH simulator. The ground-truth
/// emulator injects per-job compute-speed variation and per-block local-read
/// jitter (HDD seek variance), the effects the paper observes in its real
/// traces but that the simulator "does not produce".
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseConfig {
    /// Per-job multiplicative factors on compute volume (empty = all 1.0).
    pub compute_factors: Vec<f64>,
    /// Log-normal sigma of per-block local-read demand jitter (0 = off).
    pub read_jitter_sigma: f64,
    /// RNG seed for the jitter stream.
    pub seed: u64,
}

impl NoiseConfig {
    /// No noise: the deterministic calibrated simulator.
    pub fn none() -> Self {
        Self { compute_factors: Vec::new(), read_jitter_sigma: 0.0, seed: 0 }
    }

    /// Compute factor for job `j` (1.0 when not configured).
    pub fn compute_factor(&self, job: usize) -> f64 {
        self.compute_factors.get(job).copied().unwrap_or(1.0)
    }

    /// Whether any stochastic element is active.
    pub fn is_noisy(&self) -> bool {
        self.read_jitter_sigma > 0.0 || self.compute_factors.iter().any(|&f| f != 1.0)
    }
}

impl Default for NoiseConfig {
    fn default() -> Self {
        Self::none()
    }
}

/// Full configuration for one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Hardware parameter values (the calibration target).
    pub hardware: HardwareParams,
    /// Data-movement granularity: block size `B` and buffer size `b`.
    pub granularity: XRootDConfig,
    /// Optional per-connection cap on storage-service streams, bytes/s.
    pub per_connection_cap: Option<f64>,
    /// Write fetched remote chunks through to the node-local cache device
    /// (XRootD proxy-cache behaviour). The calibrated simulator does *not*
    /// model this — it is a ground-truth-only realism knob and one of the
    /// systematic model gaps that keeps the case study's MRE floor nonzero
    /// on the HDD platforms.
    pub cache_write_through: bool,
    /// Stochastic realism (ground truth only).
    pub noise: NoiseConfig,
    /// Slot-selection policy of the FCFS scheduler. The paper's setup is
    /// [`SchedulerPolicy::FirstFreeSlot`]; scenarios may vary it.
    pub scheduler: SchedulerPolicy,
    /// Multiplier applied to every job release time (default 1.0). Lets a
    /// scenario family compress or stretch an arrival pattern — sweeping
    /// the load intensity of one seeded workload — without regenerating
    /// it. Workloads with all releases at 0 are unaffected by any value.
    pub release_time_scale: f64,
    /// Bandwidth model for the WAN resource. [`WanModel::MaxMin`] (the
    /// default) reproduces the historical traces byte for byte.
    pub wan_model: WanModel,
}

impl SimConfig {
    /// Deterministic configuration with the given hardware and granularity.
    pub fn new(hardware: HardwareParams, granularity: XRootDConfig) -> Self {
        Self {
            hardware,
            granularity,
            per_connection_cap: None,
            cache_write_through: false,
            noise: NoiseConfig::none(),
            scheduler: SchedulerPolicy::default(),
            release_time_scale: 1.0,
            wan_model: WanModel::default(),
        }
    }

    /// The effective release instant of a job with spec release time
    /// `release` (seconds).
    pub fn release_time(&self, release: f64) -> f64 {
        release * self.release_time_scale
    }

    /// Panic unless the configuration is valid.
    pub fn validate(&self) {
        self.hardware.validate();
        self.granularity.validate();
        if let Some(c) = self.per_connection_cap {
            assert!(c.is_finite() && c > 0.0, "per-connection cap must be positive");
        }
        for (j, &f) in self.noise.compute_factors.iter().enumerate() {
            assert!(f.is_finite() && f > 0.0, "compute factor for job {j} must be positive");
        }
        assert!(self.noise.read_jitter_sigma >= 0.0);
        assert!(
            self.release_time_scale.is_finite() && self.release_time_scale >= 0.0,
            "release time scale must be non-negative"
        );
        if let WanModel::FlowLevel(cfg) = &self.wan_model {
            cfg.validate();
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::new(HardwareParams::defaults(), XRootDConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_deterministic_paper_30s() {
        let c = SimConfig::default();
        assert!(!c.noise.is_noisy());
        assert_eq!(c.granularity, XRootDConfig::paper_30s());
        c.validate();
    }

    #[test]
    fn noise_factor_defaults_to_one() {
        let n = NoiseConfig::none();
        assert_eq!(n.compute_factor(17), 1.0);
        let n = NoiseConfig { compute_factors: vec![1.1, 0.9], read_jitter_sigma: 0.0, seed: 0 };
        assert_eq!(n.compute_factor(1), 0.9);
        assert_eq!(n.compute_factor(5), 1.0);
        assert!(n.is_noisy());
    }

    #[test]
    #[should_panic(expected = "compute factor")]
    fn bad_noise_rejected() {
        let mut c = SimConfig::default();
        c.noise.compute_factors = vec![0.0];
        c.validate();
    }

    #[test]
    fn release_scale_defaults_to_identity() {
        let c = SimConfig::default();
        assert_eq!(c.release_time_scale, 1.0);
        assert_eq!(c.release_time(12.5), 12.5);
        let c2 = SimConfig { release_time_scale: 0.5, ..c };
        assert_eq!(c2.release_time(12.5), 6.25);
        c2.validate();
    }

    #[test]
    #[should_panic(expected = "release time scale")]
    fn negative_release_scale_rejected() {
        let c = SimConfig { release_time_scale: -1.0, ..SimConfig::default() };
        c.validate();
    }
}
