//! The bandwidth-model seam: a first-class trait behind which the engine's
//! rate-assignment machinery lives.
//!
//! The engine's incremental max–min solver ([`crate::sharing`]) is one
//! *implementation* of a bandwidth model, not the model itself. This module
//! defines the [`BandwidthModel`] trait — the vocabulary a model needs to
//! plug into the engine's dirty-mark / settle / swap machinery — plus the
//! default [`MaxMinModel`] implementation, whose hooks are all identity
//! no-ops so the engine's behaviour (and every trace) is bit-identical to
//! the pre-seam engine.
//!
//! ## The trait contract
//!
//! A model participates in the engine's lifecycle at five points:
//!
//! 1. **Admission** ([`BandwidthModel::extra_latency`],
//!    [`BandwidthModel::on_start`]): a flow carrying a WAN annotation
//!    ([`crate::WanSpec`]) may be given extra start latency (propagation
//!    delay) and registered with the model's per-flow state.
//! 2. **Rate capping** ([`BandwidthModel::effective_cap`]): every place the
//!    solver reads a flow's `rate_cap` goes through the model, which may
//!    tighten the cap dynamically (a congestion window divided by the
//!    current RTT). The max–min progressive filling then runs *under* those
//!    caps, so a dynamic model reuses the entire component-scoped solver
//!    spine unchanged.
//! 3. **Dirty-mark vocabulary** ([`BandwidthModel::is_dynamic`]): flows
//!    whose caps are dynamic must not take the identical-signature swap
//!    fast path (an inherited rate would bake in a stale cap) and their
//!    completions must be re-solved, never parked (removing a window
//!    changes the queue occupancy other flows see). The engine asks the
//!    model per flow; the answer is `false` for every flow of a static
//!    model, preserving all fast paths.
//! 4. **Settle hooks** ([`BandwidthModel::wants_window_update`],
//!    [`BandwidthModel::update_windows`]): before a settle pass the model
//!    may evolve its internal state (AIMD window updates) and report which
//!    flows' caps changed; the engine marks those flows' routes dirty so
//!    the very same settle re-solves them.
//! 5. **Teardown** ([`BandwidthModel::on_end`], [`BandwidthModel::reset`]):
//!    completions/cancellations deregister per-flow state; `reset` clears
//!    everything while keeping allocations (mirroring [`crate::Engine::reset`]).
//!
//! Counters ([`BandwidthModel::counters`]) are merged into [`crate::Stats`]
//! at read time, exactly like the event-queue counters.

use crate::ids::ResourceId;
pub use crate::wan::FlowLevelParams;
use crate::wan::FlowLevelWan;

/// Per-flow WAN annotation carried by a [`crate::FlowSpec`]. Ignored by
/// static models ([`MaxMinModel`]); consumed by flow-level models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WanSpec {
    /// One-way propagation delay of this flow's WAN path, seconds.
    pub delay: f64,
    /// The bottleneck resource whose QDisc this flow queues at (must be on
    /// the flow's route).
    pub bottleneck: ResourceId,
}

/// Counters a bandwidth model accumulates; merged into [`crate::Stats`] at
/// read time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelCounters {
    /// WAN-annotated flows registered with the model.
    pub wan_flows: u64,
    /// Multiplicative window decreases applied (congestion signals).
    pub wan_window_cuts: u64,
    /// Additive window increases applied.
    pub wan_window_bumps: u64,
}

/// The seam between the engine and its rate-assignment physics.
///
/// All hooks default to the static no-op behaviour, so a minimal model is
/// `struct M; impl BandwidthModel for M { fn name(&self) -> &'static str
/// { "m" } }` — exactly [`MaxMinModel`].
pub trait BandwidthModel {
    /// Short stable name (CLI columns, logs).
    fn name(&self) -> &'static str;

    /// Extra start latency for a flow with the given WAN propagation
    /// delay. Static models add none.
    #[inline]
    fn extra_latency(&self, delay: f64) -> f64 {
        let _ = delay;
        0.0
    }

    /// Register a WAN-annotated flow occupying flow-table slot `slot`.
    /// `bottleneck_cap` is the base capacity of its bottleneck resource.
    #[inline]
    fn on_start(&mut self, slot: usize, wan: WanSpec, bottleneck_cap: f64, now: f64) {
        let _ = (slot, wan, bottleneck_cap, now);
    }

    /// Deregister a flow (completion or cancellation). Must be a no-op for
    /// slots that were never registered.
    #[inline]
    fn on_end(&mut self, slot: usize) {
        let _ = slot;
    }

    /// Whether the flow in `slot` has a *dynamic* effective cap. Dynamic
    /// flows are excluded from the identical-signature swap fast path:
    /// their completions are detached and re-solved, never parked.
    #[inline]
    fn is_dynamic(&self, slot: usize) -> bool {
        let _ = slot;
        false
    }

    /// The flow's effective rate cap given its static cap `base`
    /// (`f64::INFINITY` = uncapped). Must return `base` exactly for flows
    /// the model does not constrain — the degeneracy guarantee rides on
    /// this being the identical float.
    #[inline]
    fn effective_cap(&self, slot: usize, base: f64) -> f64 {
        let _ = slot;
        base
    }

    /// Whether the model wants [`update_windows`](Self::update_windows)
    /// before the next settle at time `now`.
    #[inline]
    fn wants_window_update(&self, now: f64) -> bool {
        let _ = now;
        false
    }

    /// Evolve internal state to `now` (AIMD steps); push the slots whose
    /// effective caps changed onto `changed` so the engine can dirty-mark
    /// their routes.
    #[inline]
    fn update_windows(&mut self, now: f64, changed: &mut Vec<u32>) {
        let _ = (now, changed);
    }

    /// Accumulated model counters.
    #[inline]
    fn counters(&self) -> ModelCounters {
        ModelCounters::default()
    }

    /// Clear all per-run state, keeping allocations.
    #[inline]
    fn reset(&mut self) {}
}

/// The default static model: max–min fair sharing with no WAN physics.
/// Every hook is the identity no-op, so the engine behaves — bit for bit —
/// exactly as it did before the seam existed.
#[derive(Debug, Default, Clone, Copy)]
pub struct MaxMinModel;

impl BandwidthModel for MaxMinModel {
    fn name(&self) -> &'static str {
        "maxmin"
    }
}

/// Selection of a bandwidth model, engine-facing (see
/// [`crate::Engine::set_bandwidth_model`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub enum BandwidthModelConfig {
    /// The default incremental component-scoped max–min solver.
    #[default]
    MaxMin,
    /// The flow-level WAN backend: per-flow propagation delay, windowed
    /// AIMD congestion control, FIFO QDisc queueing feedback.
    FlowLevel(FlowLevelParams),
}

/// Statically-dispatched model holder. Hot-path hooks compile to direct
/// calls (and the `MaxMin` arms inline to nothing), so the seam costs the
/// default model no indirection.
// One value per engine, so the variant size gap is irrelevant — boxing
// would instead put a pointer deref on every solver-hot-path hook.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub(crate) enum ModelDispatch {
    MaxMin(MaxMinModel),
    FlowLevel(FlowLevelWan),
}

impl Default for ModelDispatch {
    fn default() -> Self {
        ModelDispatch::MaxMin(MaxMinModel)
    }
}

impl ModelDispatch {
    pub fn from_config(cfg: BandwidthModelConfig) -> Self {
        match cfg {
            BandwidthModelConfig::MaxMin => ModelDispatch::MaxMin(MaxMinModel),
            BandwidthModelConfig::FlowLevel(p) => ModelDispatch::FlowLevel(FlowLevelWan::new(p)),
        }
    }

    /// Whether a WAN-annotated flow started now would be dynamic.
    #[inline]
    pub fn is_windowed(&self) -> bool {
        matches!(self, ModelDispatch::FlowLevel(m) if m.is_windowed())
    }
}

macro_rules! dispatch {
    ($self:expr, $m:ident => $body:expr) => {
        match $self {
            ModelDispatch::MaxMin($m) => $body,
            ModelDispatch::FlowLevel($m) => $body,
        }
    };
}

impl BandwidthModel for ModelDispatch {
    #[inline]
    fn name(&self) -> &'static str {
        dispatch!(self, m => m.name())
    }
    #[inline]
    fn extra_latency(&self, delay: f64) -> f64 {
        dispatch!(self, m => m.extra_latency(delay))
    }
    #[inline]
    fn on_start(&mut self, slot: usize, wan: WanSpec, bottleneck_cap: f64, now: f64) {
        dispatch!(self, m => m.on_start(slot, wan, bottleneck_cap, now))
    }
    #[inline]
    fn on_end(&mut self, slot: usize) {
        dispatch!(self, m => m.on_end(slot))
    }
    #[inline]
    fn is_dynamic(&self, slot: usize) -> bool {
        dispatch!(self, m => m.is_dynamic(slot))
    }
    #[inline]
    fn effective_cap(&self, slot: usize, base: f64) -> f64 {
        dispatch!(self, m => m.effective_cap(slot, base))
    }
    #[inline]
    fn wants_window_update(&self, now: f64) -> bool {
        dispatch!(self, m => m.wants_window_update(now))
    }
    #[inline]
    fn update_windows(&mut self, now: f64, changed: &mut Vec<u32>) {
        dispatch!(self, m => m.update_windows(now, changed))
    }
    #[inline]
    fn counters(&self) -> ModelCounters {
        dispatch!(self, m => m.counters())
    }
    #[inline]
    fn reset(&mut self) {
        dispatch!(self, m => m.reset())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxmin_hooks_are_identity() {
        let mut m = MaxMinModel;
        assert_eq!(m.name(), "maxmin");
        assert_eq!(m.extra_latency(1.5), 0.0);
        assert_eq!(m.effective_cap(3, 42.0), 42.0);
        assert_eq!(m.effective_cap(3, f64::INFINITY), f64::INFINITY);
        assert!(!m.is_dynamic(0));
        assert!(!m.wants_window_update(10.0));
        let mut changed = Vec::new();
        m.update_windows(10.0, &mut changed);
        assert!(changed.is_empty());
        assert_eq!(m.counters(), ModelCounters::default());
    }

    #[test]
    fn default_config_is_maxmin() {
        assert_eq!(BandwidthModelConfig::default(), BandwidthModelConfig::MaxMin);
        let d = ModelDispatch::default();
        assert_eq!(d.name(), "maxmin");
    }
}
