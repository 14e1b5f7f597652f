//! Flow specifications and runtime state.

use crate::ids::{ResourceId, Tag};
use crate::route::Route;
use crate::wan::WanSpec;

/// Lifecycle of a flow inside the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowStatus {
    /// Waiting for its start latency to elapse; holds no bandwidth.
    Pending,
    /// Progressing; holds a max–min fair share of every route resource.
    Active,
    /// Demand fully served; the completion event has been delivered.
    Completed,
    /// Cancelled by the caller before completion.
    Cancelled,
}

/// Specification of a flow to start on the engine.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Total demand: bytes for data flows, flops for compute flows.
    pub demand: f64,
    /// Resources used *simultaneously* while the flow progresses. Stored
    /// inline (see [`Route`]) so building a spec does not allocate for the
    /// short routes simulators issue in their steady state.
    pub(crate) route: Route,
    /// Opaque payload returned with the completion event.
    pub tag: Tag,
    /// Optional per-flow rate cap (e.g. a per-connection limit).
    pub rate_cap: Option<f64>,
    /// Delay before the flow starts consuming bandwidth (network latency,
    /// disk seek, protocol overhead). The completion event therefore fires
    /// at `start + latency + demand / harmonic-mean-rate`.
    pub latency: f64,
    /// Optional WAN annotation: propagation delay and bottleneck resource,
    /// consumed by the flow-level WAN model ([`crate::Engine::set_wan_model`]).
    /// Inert under the default max–min model.
    pub wan: Option<WanSpec>,
}

impl FlowSpec {
    /// A plain flow: no cap, no latency.
    #[inline]
    pub fn new(demand: f64, route: &[ResourceId], tag: Tag) -> Self {
        Self {
            demand,
            route: Route::from_slice(route),
            tag,
            rate_cap: None,
            latency: 0.0,
            wan: None,
        }
    }

    /// The route the flow will hold while active.
    pub fn route(&self) -> &[ResourceId] {
        self.route.as_slice()
    }

    /// Set a per-flow rate cap.
    #[inline]
    pub fn with_cap(mut self, cap: f64) -> Self {
        assert!(cap.is_finite() && cap > 0.0, "rate cap must be positive");
        self.rate_cap = Some(cap);
        self
    }

    /// Set a start latency.
    #[inline]
    pub fn with_latency(mut self, latency: f64) -> Self {
        assert!(latency.is_finite() && latency >= 0.0, "latency must be non-negative");
        self.latency = latency;
        self
    }

    /// Annotate the flow as a WAN transfer with one-way propagation
    /// `delay` whose QDisc bottleneck is `bottleneck` (must be on the
    /// route). Ignored under max–min.
    #[inline]
    pub fn with_wan(mut self, delay: f64, bottleneck: ResourceId) -> Self {
        assert!(delay.is_finite() && delay >= 0.0, "WAN delay must be non-negative");
        self.wan = Some(WanSpec { delay, bottleneck });
        self
    }

    /// Panic unless every numeric field is usable. The fields are `pub`,
    /// so a literal `FlowSpec { .. }` bypasses the builders' asserts: a NaN
    /// cap would reach the cap sweep's sort, a NaN latency the timer heap.
    pub(crate) fn validate(&self) {
        assert!(
            self.demand.is_finite() && self.demand >= 0.0,
            "flow demand must be non-negative and finite, got {}",
            self.demand
        );
        if let Some(cap) = self.rate_cap {
            assert!(cap.is_finite() && cap > 0.0, "rate cap must be positive, got {cap}");
        }
        assert!(
            self.latency.is_finite() && self.latency >= 0.0,
            "latency must be non-negative, got {}",
            self.latency
        );
    }
}

/// [`FlowState::class`] of a flow that is scheduled on its own.
pub(crate) const NO_CLASS: u32 = u32::MAX;

/// Internal runtime state of a flow.
///
/// Progress is settled lazily: `remaining` is the demand left as of
/// `last_settled`; the true remaining at engine time `t` is
/// `remaining - rate * (t - last_settled)`. The engine settles a flow
/// whenever its rate changes or it is observed.
///
/// While the flow is a member of a component class (`class != NO_CLASS`)
/// the class clock carries its rate and progress instead: `remaining`
/// holds the flow's constant finish tag in the class's virtual time, and
/// `rate` / `last_settled` are not read.
#[derive(Debug, Clone)]
pub(crate) struct FlowState {
    pub demand: f64,
    pub remaining: f64,
    pub rate: f64,
    /// Engine time at which `remaining` was last brought up to date.
    pub last_settled: f64,
    /// Per-flow rate cap; `f64::INFINITY` when uncapped (stored raw so the
    /// hot flow table stays at 80 bytes per entry).
    pub rate_cap: f64,
    pub route: Route,
    pub tag: Tag,
    pub status: FlowStatus,
    /// The component class (cache slot index) the flow is a member of, or
    /// [`NO_CLASS`]. Sits in the padding after `status`.
    pub class: u32,
}

impl FlowState {
    /// Consume a spec, moving its route buffer into the runtime state.
    #[inline]
    pub fn from_spec(spec: FlowSpec) -> Self {
        Self {
            demand: spec.demand,
            remaining: spec.demand,
            rate: 0.0,
            last_settled: 0.0,
            rate_cap: spec.rate_cap.unwrap_or(f64::INFINITY),
            route: spec.route,
            tag: spec.tag,
            status: if spec.latency > 0.0 { FlowStatus::Pending } else { FlowStatus::Active },
            class: NO_CLASS,
        }
    }

    /// Whether the remaining demand is numerically zero.
    #[inline]
    pub fn is_done(&self) -> bool {
        self.remaining <= crate::ABS_EPS.max(self.demand * crate::REL_EPS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_state_stays_within_80_bytes() {
        // The flow table is append-only and grows to one entry per started
        // flow; its entry size is cold-build memory traffic.
        assert!(std::mem::size_of::<FlowState>() <= 80);
    }

    #[test]
    fn builder_sets_fields() {
        let spec = FlowSpec::new(100.0, &[ResourceId(0)], Tag(7)).with_cap(10.0).with_latency(0.5);
        assert_eq!(spec.demand, 100.0);
        assert_eq!(spec.rate_cap, Some(10.0));
        assert_eq!(spec.latency, 0.5);
        assert_eq!(spec.tag, Tag(7));
    }

    #[test]
    fn latency_makes_flow_pending() {
        let spec = FlowSpec::new(1.0, &[], Tag(0)).with_latency(1.0);
        assert_eq!(FlowState::from_spec(spec.clone()).status, FlowStatus::Pending);
        let spec = FlowSpec::new(1.0, &[], Tag(0));
        assert_eq!(FlowState::from_spec(spec.clone()).status, FlowStatus::Active);
    }

    #[test]
    fn done_uses_relative_epsilon() {
        let spec = FlowSpec::new(1e12, &[], Tag(0));
        let mut st = FlowState::from_spec(spec.clone());
        st.remaining = 100.0; // 1e-10 of demand: below REL_EPS * demand = 1000
        assert!(st.is_done());
        st.remaining = 1e6;
        assert!(!st.is_done());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_demand_rejected() {
        FlowSpec::new(-1.0, &[], Tag(0)).validate();
    }

    #[test]
    #[should_panic(expected = "rate cap must be positive")]
    fn nan_rate_cap_rejected() {
        FlowSpec { rate_cap: Some(f64::NAN), ..FlowSpec::new(1.0, &[], Tag(0)) }.validate();
    }

    #[test]
    #[should_panic(expected = "rate cap must be positive")]
    fn non_positive_rate_cap_rejected() {
        FlowSpec { rate_cap: Some(0.0), ..FlowSpec::new(1.0, &[], Tag(0)) }.validate();
    }

    #[test]
    #[should_panic(expected = "latency must be non-negative")]
    fn nan_latency_rejected() {
        FlowSpec { latency: f64::NAN, ..FlowSpec::new(1.0, &[], Tag(0)) }.validate();
    }
}
