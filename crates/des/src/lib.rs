//! # simcal-des — fluid discrete-event simulation kernel
//!
//! A small, fast discrete-event simulation kernel in the style of SimGrid's
//! validated *flow-level* ("fluid") models. Activities are **flows**: each
//! flow has a demand (bytes or flops) and a **route** — the set of resources
//! it uses simultaneously (e.g. a network transfer crosses a storage service,
//! a WAN link and a node NIC). At any instant, flow rates are the **max–min
//! fair** allocation over all resources, computed by progressive filling
//! (see [`solve_max_min`]). Simulated time advances from one flow
//! completion or timer to the next.
//!
//! The kernel is deliberately callback-free: the caller drives the loop and
//! owns all domain state, so borrow-checking stays trivial:
//!
//! ```
//! use simcal_des::{Engine, Event, FlowSpec, ResourceSpec, Tag};
//!
//! let mut engine = Engine::new();
//! let link = engine.add_resource(ResourceSpec::constant(125e6)); // 1 Gbps
//! engine.start_flow(FlowSpec::new(125e6, &[link], Tag(1)));
//! engine.start_flow(FlowSpec::new(125e6, &[link], Tag(2)));
//!
//! // Two equal flows share the link: both complete at t = 2 s.
//! while let Some(ev) = engine.next() {
//!     if let Event::FlowCompleted { tag, .. } = ev {
//!         assert!((engine.now() - 2.0).abs() < 1e-9);
//!         let _ = tag;
//!     }
//! }
//! ```
//!
//! Features used by the simulators built on top:
//! * [`CapacityModel::Degrading`] — effective capacity shrinks with the
//!   number of concurrent flows (HDD seek contention in the ground truth);
//! * per-flow rate caps (per-connection limits);
//! * per-flow latencies (the flow holds no bandwidth until the latency
//!   elapses — network round-trip or disk seek setup);
//! * engine statistics ([`Stats`]) counting events and rate recomputations,
//!   used to verify the O(s/B + s/b) event-count scaling of the paper's
//!   speed/accuracy trade-off (Table VI).

mod engine;
mod eventlist;
mod flow;
mod ids;
mod resource;
mod route;
mod sharing;
mod stats;
mod timer;
mod wan;

pub use engine::{Engine, Event};
pub use flow::{FlowSpec, FlowStatus};
pub use ids::{FlowId, ResourceId, Tag, TimerId};
pub use resource::{CapacityModel, ResourceSpec};
pub use sharing::{solve_max_min, FlowInput, ResourceInput, SolveScratch, MAX_RATE};
pub use stats::Stats;
pub use wan::{FlowLevelParams, FlowLevelWan, ModelCounters, WanSpec};

/// Relative numerical tolerance used when deciding a flow's demand is done.
pub const REL_EPS: f64 = 1e-9;

/// Absolute numerical tolerance (in demand units) for flow completion.
pub const ABS_EPS: f64 = 1e-6;
