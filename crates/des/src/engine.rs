//! The simulation engine: virtual clock, flow table, incremental rate
//! recomputation, and the caller-driven event loop.
//!
//! ## Incremental max–min recomputation
//!
//! The engine maintains a **resource ↔ flow incidence index**
//! (`flows_on[r]` = the active flows crossing resource `r`). When flows
//! start, complete, or are cancelled, only the resources on the touched
//! routes are marked dirty. Before the next event is computed, the engine
//! re-solves the max–min allocation **per connected component** of the
//! dirty resources in the flow/resource bipartite graph: rates in
//! untouched components are provably unchanged (max–min fair allocations
//! decompose across connected components), so they are not recomputed.
//!
//! Route-less flows (the simulator's dedicated-core compute blocks) form
//! singleton components and are assigned their cap in O(1), so the
//! steady-state pattern of pipelined compute/chunk streams never triggers
//! a global solve.
//!
//! ## Same-timestamp settle batching
//!
//! Chunk-pipelined workloads finish many flows at the same instant. The
//! event loop therefore pops **every** completion sharing the
//! earliest timestamp in one gulp: all of them are marked completed up
//! front, the events are delivered one per [`Engine::next`] call from an
//! internal buffer, and the allocation is settled **once** for the whole
//! batch — at most one solve per (component, timestamp) instead of one per
//! event. Same-instant flow *activations* (latency timers expiring
//! together) are gulped the same way. This is sound because zero simulated
//! time passes inside a batch: no flow makes progress between the batched
//! changes, so only the final allocation is ever observable.
//!
//! ## Parked completions: the identical-signature swap
//!
//! When the caller reacts to a completion by starting a flow with the same
//! (route, cap) signature — the steady state of pipelined block/chunk
//! streams, 97% of the events of the finest Table VI granularity — the
//! allocation is provably unchanged: it depends only on the multiset of
//! signatures. So a routed completion is not detached, it is **parked**:
//! marked `Completed` (every query on its id says so), its scheduling
//! entry taken, but its flow-table slot not freed and its incidence
//! entries left where they are, with `{slot, rate}` noted in
//! `batch_candidates`. A start whose signature matches a parked twin
//! **renews** it in place: the slot's generation is bumped (retiring every
//! id of the twin), demand / tag / status are overwritten, the `FlowId` in
//! its incidence entries is rewritten through the position table, and the
//! new flow takes the twin's rate — its seat in the twin's class, if it
//! had one. No list is touched, nothing is marked dirty, and when every
//! completion of a batch has been renewed the settle that follows has
//! nothing to do (the classic single-flow swap is the size-1 case).
//! Whatever is still parked when the next settle starts did change the
//! allocation and is **expired** first — detached for real, its resources
//! marked dirty, its slot freed.
//!
//! Between a batch's completions and that settle, `flows_on` therefore
//! holds entries of flows that are not active. That is harmless only
//! because nothing reads the incidence index in that window: attaches
//! append to it, cancels remove from it by position, and its readers —
//! the component gather, the cached slots' counts (which count a parked
//! flow until it expires) and the solvers' `flows_on[r].len()` share
//! counts — all run inside the settle, after the expiry. Anything new
//! that reads `flows_on` must run after [`Engine::settle_rates`]' first
//! step too.
//! Route-less churn between a completion and its reissue does not disturb
//! a parked twin; a foreign routed start or cancel marks its resources
//! dirty, so the component is re-solved and the renewed flow's inherited
//! rate overwritten. Flows whose cap the flow-level WAN model drives
//! never park and never renew.
//!
//! ## Scheduling completions: solo entries and component clocks
//!
//! A flow's completion time `t0 + remaining/rate` is constant while its
//! rate is constant, so completions live in an addressable min-heap
//! (`eventlist::CompletionList`) and flow progress is settled lazily:
//! `remaining` is only brought up to date when a flow's rate changes or
//! the flow is observed — advancing the clock touches no per-flow state at
//! all. A flow is scheduled in one of two ways.
//!
//! **Solo.** The flow holds one entry of its own, re-keyed in place per
//! rate change and removed on cancel. This is the path of every flow the
//! solver rates individually: route-less flows, flows a cap binds, flows
//! of a component with more than one share.
//!
//! **As a member of its component's class.** Nearly every re-solve is
//! *uniform* — the single-resource closed form with no binding cap and the
//! warm re-fill hand every flow of the component the same share — which is
//! processor sharing, and processor sharing needs no per-flow work: each
//! cached component slot carries a **component clock** (`CompClock`) with
//! the common share `rho`, the virtual service `v` (bytes served to each
//! member since the class formed) and the instant `t_last` at which `v`
//! was current. A member holds a constant *finish tag* — `v` when it
//! joined plus what it had left — in the class's own small
//! `CompletionList`, and the class holds **one** entry in a second list,
//! filed under its earliest member, due at `t_last + (min tag − v) / rho`.
//! A uniform re-solve advances `v` to now, stores the new `rho`, joins the
//! flows that are not yet members and re-keys that one entry: O(1) in the
//! population instead of a multiply, a divide and a heap sift per member.
//! The event loop merges the two lists in `(time, FlowId)` order; a
//! completing member *sets* the clock to its tag (equal tags pop as one
//! lock-step batch, and no error accumulates); the renewal of a parked
//! member takes its twin's place at `v + demand`.
//!
//! A class **dissolves** — every member back to an entry of its own, at
//! the class's share, with `remaining = tag − v(now)` — when a solve's
//! outcome is not one share (the cap sweep, the two-resource form, the
//! general solver, where a binding window of the flow-level WAN model
//! also lands) and when an attach retires the cached membership the class
//! hangs off. The next uniform solve re-forms it.
//!
//! Two rules keep every same-binary identity (fresh ≡ reused engine,
//! degenerate flow-level ≡ max–min) exact: a re-solve that returns the
//! share a class already has leaves its clock bit-untouched (`set_rate`'s
//! early return, lifted to the class), and `v`
//! moves only at a change of share and at a member completion — never in
//! [`Engine::peek_time`] or [`Engine::advance_clock`]. So redundant settles
//! and clock moves change nothing; a settle *between* two same-instant
//! changes is not redundant (it can form or dissolve a class on the
//! intermediate population), and drivers that interleave settles (the
//! multi-site driver, via `peek_time`) do so identically on every run.
//!
//! Which flows join is known without reading the component: each cached
//! component slot counts its live routed flows, the capped ones and those
//! with a repeated hop, and lists its solo (non-member) flows, all updated
//! where membership changes (attach, detach, capture, invalidation, class
//! dissolution — never at a renewal). A cap-free uniform re-solve thus
//! costs O(joiners), not O(component), and not a heap operation per
//! member; only a component where a cap might bind or the shape is not
//! uniform is *gathered* (one pass over its incidence lists). Timers sit
//! beside the two lists in one `std` heap with lazy generation-tagged
//! cancellation (`timer::TimerQueue`).
//!
//! ## Component solve fast paths
//!
//! Dirty components are dispatched by shape: one resource (with or
//! without caps) and two uncapped resources take closed forms; a
//! multi-resource component whose previous solve froze everything against
//! a single bottleneck takes a **warm-start re-fill** — the uniform share
//! is recomputed for the new membership and verified feasible against
//! each resource, which is the steady state of the big shared WAN/storage
//! component whose flow set changes by ±k flows per timestamp. Everything
//! else runs the allocation-free [`SolveScratch`] solver. A cached
//! component's counts pick the path before any flow is read: with no
//! capped flow, one resource takes the closed form and a multi-resource
//! component with no repeated hop tries the re-fill, straight from the
//! counts; anything else is gathered first.

use crate::eventlist::{Completion, CompletionList};
use crate::flow::{FlowSpec, FlowState, FlowStatus, NO_CLASS};
use crate::ids::{FlowId, ResourceId, Tag, TimerId};
use crate::resource::ResourceSpec;
use crate::route::Route;
use crate::sharing::{SolveScratch, MAX_RATE};
use crate::stats::Stats;
use crate::timer::{TimerKind, TimerQueue};
use crate::wan::{FlowLevelParams, FlowLevelWan, ModelCounters, WanSpec};

/// An event delivered to the caller by [`Engine::next`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A flow served its full demand.
    FlowCompleted {
        /// The completed flow.
        flow: FlowId,
        /// The tag the flow was started with.
        tag: Tag,
    },
    /// A user timer fired.
    TimerFired {
        /// The fired timer.
        timer: TimerId,
        /// The tag the timer was set with.
        tag: Tag,
    },
}

impl Event {
    /// The user tag carried by this event.
    #[inline]
    pub fn tag(&self) -> Tag {
        match *self {
            Event::FlowCompleted { tag, .. } | Event::TimerFired { tag, .. } => tag,
        }
    }
}

/// A parked completion: one routed, statically-capped completion of the
/// current same-timestamp batch (see the module docs). Its flow-table
/// slot still holds the finished flow's route and cap, and its incidence
/// entries are still in place; a start with the same (route, cap) renews
/// the slot at `rate`, and the next settle expires whatever is left.
#[derive(Debug)]
struct Parked {
    slot: u32,
    /// The rate the flow completed at: its own, or its class's share.
    rate: f64,
}

/// Shape summary of a collected component, gathered during the walk.
struct CompInfo {
    /// Whether any component flow carries a rate cap.
    has_cap: bool,
    /// Smallest cap among component flows (`INFINITY` when none).
    min_cap: f64,
    /// Component flows whose incidence entries have `capped` set.
    capped: usize,
}

/// One incidence entry: a flow crossing a resource via its `hop`-th route
/// element. Carrying the hop lets `detach` maintain the per-flow position
/// table under `swap_remove` moves, making removal O(route length).
#[derive(Debug, Clone, Copy)]
struct OnEntry {
    flow: FlowId,
    hop: u32,
    /// Whether the flow can be capped at all (a static cap, or a window
    /// the flow-level model drives): the gather reads the flow table only
    /// for these.
    capped: bool,
}

/// A cached component membership: the resource set a previous
/// [`Engine::collect_component`] walk discovered. The set is kept *closed
/// under the incidence relation* — any attach that would connect a member
/// resource to a non-member invalidates the slot (see
/// [`Engine::note_attach_route`]) — so gathering the flows of every member
/// resource reproduces the component without re-walking flow routes.
/// Detaches never invalidate: they can only split the component, and
/// solving the cached superset jointly is still exact (max–min fair
/// allocations decompose across connected components).
///
/// Because the set is closed, every routed flow indexed on a member
/// resource lies wholly inside it, and the slot keeps counts over those
/// flows where membership changes — attach, detach (expiry, cancel),
/// capture, invalidation and class dissolution; a renewal changes none.
/// From the counts alone a uniform re-solve knows the population, that no
/// cap can bind, and which flows it must join (see
/// [`Engine::resolve_from_counts`]).
#[derive(Debug, Default)]
struct CompSlot {
    /// Validity stamp; labels carrying an older stamp are dead. Bumped on
    /// capture and on invalidation.
    stamp: u64,
    /// The member resources, in solver-local index order.
    resources: Vec<ResourceId>,
    /// The component's clock: its flows, while one share serves them all.
    clock: CompClock,
    /// Routed flows indexed on the member resources (each once, however
    /// many hops it has there): the gather's flow count.
    live: usize,
    /// Those whose incidence entries have `capped` set.
    capped: usize,
    /// Those whose route lists some resource more than once.
    dups: usize,
    /// Flow-table slots of the indexed flows that are not class members —
    /// the joiners of the next uniform re-solve — minus parked completions
    /// that completed as members. Positions are kept in
    /// [`Engine::solo_pos`].
    solo: Vec<u32>,
}

impl CompSlot {
    /// Drop the counts of a slot whose membership is retired.
    fn forget_counts(&mut self) {
        (self.live, self.capped, self.dups) = (0, 0, 0);
        self.solo.clear();
    }
}

/// A component clock — processor sharing's virtual time for one cached
/// component (see the module docs): while one share `rho` serves every
/// flow of the component, each is a *member* with a constant finish tag,
/// and the class is scheduled once, for when its smallest tag is served.
#[derive(Debug, Default)]
struct CompClock {
    /// The share every member runs at; 0 while no class is formed (a
    /// formed class on a collapsed resource has 0 too: nothing completes
    /// there either way).
    rho: f64,
    /// Virtual service: bytes served to each member since the class
    /// formed, as of `t_last`.
    v: f64,
    /// The instant `v` was last brought current: the last change of `rho`
    /// or the last member completion.
    t_last: f64,
    /// The members, keyed `(tag, FlowId)`.
    members: CompletionList,
    /// The member the class's one scheduling entry is filed under, if it
    /// holds one.
    filed: Option<FlowId>,
}

impl CompClock {
    /// Virtual service as of `now`, without moving the clock.
    #[inline]
    fn v_at(&self, now: f64) -> f64 {
        self.v + self.rho * (now - self.t_last)
    }

    /// The instant a member with finish tag `tag` has been served in full
    /// (`rho > 0`).
    #[inline]
    fn due(&self, tag: f64) -> f64 {
        if tag == self.v {
            // What the division yields, without it: the next member of a
            // lock-step batch, due the instant the clock was set.
            return self.t_last;
        }
        self.t_last + (tag - self.v) / self.rho
    }
}

/// A resource's pointer into the membership cache: valid while the slot's
/// stamp still matches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct CompLabel {
    slot: u32,
    stamp: u64,
}

/// The cap the solver sees for the flow in `slot` with static cap `base`:
/// `base` itself under max–min, tightened by the flow's window under the
/// flow-level model. A free function so that split-borrow passes over the
/// engine's fields can call it.
#[inline]
fn effective_cap(wan: &Option<FlowLevelWan>, slot: usize, base: f64) -> f64 {
    match wan {
        Some(m) => m.effective_cap(slot, base),
        None => base,
    }
}

/// Fluid discrete-event simulation engine. See the crate docs for the model.
#[derive(Debug, Default)]
pub struct Engine {
    time: f64,
    resources: Vec<ResourceSpec>,
    flows: Vec<FlowState>,
    /// Slots of finished (completed/cancelled) flows available for reuse
    /// (a parked completion's is not: its matching start renews it in
    /// place, or the settle frees it). Recycling keeps the flow table
    /// sized by the number of *live* flows — cache-resident — instead of
    /// growing by every flow ever started.
    free_slots: Vec<u32>,
    /// Current generation of each slot (bumped when a slot is recycled);
    /// ids carry the generation they were issued under, so queries with
    /// ids of recycled flows read as retired instead of aliasing the
    /// slot's new occupant.
    slot_gen: Vec<u32>,
    /// Number of flows in `Pending` or `Active` state.
    live_count: usize,
    timers: TimerQueue,
    stats: Stats,

    /// Incidence index: the flows crossing each resource — active ones,
    /// and between a batch's completions and the next settle the parked
    /// completions of `batch_candidates`, which nothing but the settle's
    /// solvers reads and the settle expires first. A flow whose route lists
    /// a resource `k` times appears `k` times (it consumes `k` shares, and
    /// the count feeds [`crate::CapacityModel::effective`]).
    flows_on: Vec<Vec<OnEntry>>,
    /// Position of each flow's first [`Route::INLINE`] incidence entries
    /// inside `flows_on` (indexed by slot), so detaching and renewing need
    /// no scan; hops beyond the inline window fall back to a scan (spilled
    /// routes are rare).
    flow_pos: Vec<[u32; Route::INLINE]>,
    /// Whether the resource's component must be re-solved at the next
    /// settle (it is queued in `dirty_queue`).
    dirty_res: Vec<bool>,
    dirty_queue: Vec<ResourceId>,
    /// Newly-activated route-less flows awaiting their O(1) rate.
    dirty_routeless: Vec<FlowId>,
    /// Parked completions of the current same-timestamp batch: renewed by
    /// matching starts, the rest detached for real when the next settle
    /// begins.
    batch_candidates: Vec<Parked>,
    /// Completion events of the current batch not yet handed to the
    /// caller, delivered before anything else by [`Engine::next`].
    pending_events: Vec<Event>,
    pending_head: usize,
    /// Solo completions: exactly one entry per active flow with a positive
    /// rate that is not a class member, re-keyed in place when the rate
    /// changes.
    completions: CompletionList,
    /// Class completions: exactly one entry per class with members and a
    /// positive share, filed under the class's earliest member and due
    /// when that member's tag is served.
    class_entries: CompletionList,
    /// Classes a reissue joined as their new earliest member; re-filed at
    /// the next settle — once per lock-step batch, not once per reissue.
    unfiled: Vec<u32>,
    /// Cache slot of the component being solved (set when it is loaded
    /// from the cache or captured).
    comp_slot: usize,
    /// Number of flows with a non-empty route in the incidence index: the
    /// active ones once a settle has expired the parked (used to classify
    /// component solves as full/partial in [`Stats`]).
    n_active_routed: usize,

    // Generation-stamped visit marks for the component walk (no clearing
    // between recomputations).
    visit_gen: u64,
    flow_mark: Vec<u64>,
    res_mark: Vec<u64>,
    /// Local solver index of each component resource (valid under
    /// `res_mark[r] == visit_gen`).
    res_local: Vec<usize>,
    /// Per-resource warm-start flag: the last solve of a component
    /// containing this resource froze every flow against it alone.
    warm_bneck: Vec<bool>,

    // Incremental component-membership cache: resource sets captured by
    // previous component walks, so repeated solves of a stable component
    // skip the `collect_component` BFS entirely (the flows are gathered
    // straight from the member resources' incidence lists).
    comp_cache: Vec<CompSlot>,
    free_comp_slots: Vec<u32>,
    /// Per-resource label into `comp_cache` (stamp-checked).
    res_comp: Vec<CompLabel>,
    /// Position of each flow slot in its cached component's `solo` list;
    /// meaningful only where that list holds the slot at that position.
    solo_pos: Vec<u32>,

    // Scratch buffers reused across recomputations.
    comp_stack: Vec<ResourceId>,
    comp_resources: Vec<ResourceId>,
    comp_flows: Vec<FlowId>,
    scratch: SolveScratch,
    cap_sort: Vec<(f64, u32)>,

    /// The flow-level WAN model, when selected: every cap the solver
    /// reads, the parking gate, per-flow WAN latency and the pre-settle
    /// window hook consult it. `None` is plain max–min, under which a
    /// flow's WAN annotation is inert.
    wan: Option<FlowLevelWan>,
    /// Scratch: slots whose effective caps changed in a window update.
    wan_changed: Vec<u32>,
}

impl Engine {
    /// A fresh engine at time 0 with no resources or flows.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time in seconds.
    #[inline]
    pub fn now(&self) -> f64 {
        self.time
    }

    /// Engine statistics so far. The event-queue counters (pushes, pops,
    /// re-keys, stale drops) and the WAN model's counters are merged in
    /// from their owners at read time.
    #[inline]
    pub fn stats(&self) -> Stats {
        let mut s = self.stats;
        let (c, k, t) = (&self.completions, &self.class_entries, &self.timers);
        s.event_pushes = c.pushes + k.pushes + t.pushes;
        s.event_pops = c.pops + k.pops + t.pops;
        s.event_rekeys = c.rekeys + k.rekeys;
        s.event_stale_drops = t.stale_drops;
        let m = self.wan.as_ref().map_or_else(ModelCounters::default, FlowLevelWan::counters);
        s.wan_flows = m.wan_flows;
        s.wan_window_cuts = m.wan_window_cuts;
        s.wan_window_bumps = m.wan_window_bumps;
        s
    }

    /// Select the rate model: `None` for the default incremental max–min
    /// solver, or the flow-level WAN model on top of it (propagation delay,
    /// AIMD windows, QDisc queueing feedback — see [`FlowLevelWan`]).
    /// Selecting discards the previous model's per-flow state, so callers
    /// set it right after construction or [`Engine::reset`], before
    /// starting flows.
    pub fn set_wan_model(&mut self, params: Option<FlowLevelParams>) {
        self.wan = params.map(FlowLevelWan::new);
    }

    /// Short stable name of the active rate model (`"maxmin"` /
    /// `"flow-level"`).
    pub fn bandwidth_model_name(&self) -> &'static str {
        if self.wan.is_some() {
            "flow-level"
        } else {
            "maxmin"
        }
    }

    /// Clear all simulation state — flows, timers, resources, clock, and
    /// statistics — while keeping every internal allocation, so a reused
    /// engine pays no warm-up cost. This is the kernel half of the
    /// session-reuse machinery (`simcal-sim`'s `SimSession`).
    pub fn reset(&mut self) {
        self.time = 0.0;
        self.resources.clear();
        self.flows.clear();
        self.free_slots.clear();
        self.slot_gen.clear();
        self.live_count = 0;
        self.timers.clear();
        self.stats = Stats::default();
        for v in &mut self.flows_on {
            v.clear();
        }
        self.dirty_queue.clear();
        self.dirty_res.clear();
        self.dirty_routeless.clear();
        self.batch_candidates.clear();
        self.pending_events.clear();
        self.pending_head = 0;
        self.completions.clear();
        self.class_entries.clear();
        self.unfiled.clear();
        self.n_active_routed = 0;
        self.flow_mark.clear();
        self.flow_pos.clear();
        for w in &mut self.warm_bneck {
            *w = false;
        }
        // Retire every cached membership (stamp bump kills all labels)
        // while keeping the slot allocations for the next run.
        self.free_comp_slots.clear();
        for (s, slot) in self.comp_cache.iter_mut().enumerate() {
            slot.stamp += 1;
            slot.resources.clear();
            slot.clock.members.clear();
            slot.clock.filed = None;
            slot.clock.rho = 0.0;
            slot.forget_counts();
            self.free_comp_slots.push(s as u32);
        }
        self.solo_pos.clear();
        // The model selection survives the reset; only its per-run flow
        // state is cleared.
        if let Some(w) = &mut self.wan {
            w.reset();
        }
        // res_mark/res_local stay valid: marks are generation-stamped.
    }

    /// Register a resource.
    pub fn add_resource(&mut self, spec: ResourceSpec) -> ResourceId {
        let id = ResourceId(u32::try_from(self.resources.len()).expect("too many resources"));
        self.resources.push(spec);
        self.stats.resources += 1;
        if self.flows_on.len() < self.resources.len() {
            self.flows_on.push(Vec::new());
            self.res_mark.push(0);
            self.res_local.push(0);
            self.warm_bneck.push(false);
            self.res_comp.push(CompLabel::default());
        }
        self.dirty_res.resize(self.resources.len().max(self.dirty_res.len()), false);
        id
    }

    /// Start a flow; returns its id. The flow begins consuming bandwidth
    /// after its latency (if any) elapses. A WAN-annotated flow
    /// ([`FlowSpec::with_wan`]) additionally pays its propagation delay and
    /// is registered with the flow-level model's per-flow state; under the
    /// default max–min the annotation is inert.
    pub fn start_flow(&mut self, mut spec: FlowSpec) -> FlowId {
        spec.validate();
        for r in spec.route.as_slice() {
            assert!(r.index() < self.resources.len(), "unknown resource in route");
        }
        let wan = spec.wan;
        if let Some(w) = wan {
            assert!(w.bottleneck.index() < self.resources.len(), "unknown WAN bottleneck");
            if self.wan.is_some() {
                spec.latency += w.delay;
            }
        }
        if let Some(k) = self.match_parked(&spec) {
            return self.renew(k, &spec);
        }
        let latency = spec.latency;
        let mut state = FlowState::from_spec(spec);
        state.last_settled = self.time;
        let pending = state.status == FlowStatus::Pending;
        let slot = match self.free_slots.pop() {
            Some(s) => {
                // Recycle a finished flow's slot in place; bumping the
                // generation retires every id issued for it before.
                self.slot_gen[s as usize] += 1;
                self.flows[s as usize] = state;
                s
            }
            None => {
                let s = u32::try_from(self.flows.len()).expect("too many flows");
                self.flows.push(state);
                self.flow_mark.push(0);
                self.slot_gen.push(0);
                self.flow_pos.push([0; Route::INLINE]);
                self.solo_pos.push(0);
                s
            }
        };
        let id = FlowId::compose(slot, self.slot_gen[slot as usize]);
        self.live_count += 1;
        self.stats.flows_started += 1;
        if let Some(w) = wan {
            self.register_wan(slot, w);
        }
        if pending {
            // A pending flow does not change the current allocation.
            self.timers.schedule(self.time + latency, TimerKind::ActivateFlow(id));
        } else {
            self.attach(id);
        }
        id
    }

    /// Register a WAN-annotated flow with the flow-level model, if any.
    fn register_wan(&mut self, slot: u32, w: WanSpec) {
        if let Some(m) = &mut self.wan {
            let cap = self.resources[w.bottleneck.index()].capacity.effective(1);
            m.on_start(slot as usize, w, cap, self.time);
        }
    }

    /// Deregister the flow in `slot` from the flow-level model, if any.
    fn deregister_wan(&mut self, slot: usize) {
        if let Some(m) = &mut self.wan {
            m.on_end(slot);
        }
    }

    /// Whether the flow-level model drives the cap of the flow in `slot`.
    #[inline]
    fn is_dynamic(&self, slot: usize) -> bool {
        self.wan.as_ref().is_some_and(|m| m.is_dynamic(slot))
    }

    /// Index of a parked completion with this spec's exact (route, cap)
    /// signature, for a flow that starts consuming at once. Identical
    /// signatures always receive identical max–min rates, so any match is
    /// valid — except for a flow whose effective cap the flow-level model
    /// will drive dynamically: an inherited rate would bake in the twin's
    /// (stale) cap, so it always takes a real attach.
    fn match_parked(&self, spec: &FlowSpec) -> Option<usize> {
        if self.batch_candidates.is_empty() || spec.route.is_empty() || spec.latency > 0.0 {
            return None;
        }
        if spec.wan.is_some() && self.wan.as_ref().is_some_and(FlowLevelWan::is_windowed) {
            return None;
        }
        let cap = spec.rate_cap.unwrap_or(f64::INFINITY);
        self.batch_candidates.iter().position(|p| {
            let twin = &self.flows[p.slot as usize];
            twin.rate_cap == cap && twin.route == spec.route
        })
    }

    /// Identical-signature swap: start `spec` as the renewal of parked
    /// completion `k`. The allocation depends only on the multiset of
    /// (route, cap) pairs, which the pair leaves unchanged, so nothing is
    /// marked dirty and the new flow takes over its twin's slot (under a
    /// new generation: every id of the twin is retired), its incidence
    /// entries, and its rate — the twin's seat in its class, if it had one.
    /// If something else *did* change the component, that change's dirty
    /// marks make the next settle re-solve it and overwrite the
    /// provisional rate.
    fn renew(&mut self, k: usize, spec: &FlowSpec) -> FlowId {
        let Parked { slot, rate } = self.batch_candidates.swap_remove(k);
        let s = slot as usize;
        self.slot_gen[s] += 1;
        let id = FlowId::compose(slot, self.slot_gen[s]);
        let f = &mut self.flows[s];
        debug_assert!(f.status == FlowStatus::Completed && f.class == NO_CLASS && f.rate == 0.0);
        (f.demand, f.remaining, f.tag) = (spec.demand, spec.demand, spec.tag);
        (f.status, f.last_settled) = (FlowStatus::Active, self.time);
        for (hop, &r) in f.route.as_slice().iter().enumerate() {
            let pos = Self::incidence_pos(&self.flows_on[r.index()], &self.flow_pos[s], s, hop);
            self.flows_on[r.index()][pos].flow = id;
        }
        let r0 = f.route.as_slice()[0];
        // No settle has run since the twin completed, so its route still
        // lies in one cached slot or in none, and the flows of a cached
        // component are all members of its class or all solo: a class that
        // still holds the twin's rate is one the twin was a member of.
        let class = self.comp_label_of(r0).map(|label| label.slot);
        self.live_count += 1;
        self.stats.flows_started += 1;
        if let Some(w) = spec.wan {
            self.register_wan(slot, w);
        }
        match class.filter(|&c| self.comp_cache[c as usize].clock.rho == rate) {
            Some(c) => {
                // Take the twin's place under the clock its completion
                // just set.
                self.join_class(c as usize, id);
                let earliest = self.comp_cache[c as usize].clock.members.peek().map(|m| m.flow);
                if earliest == Some(id) && !self.unfiled.contains(&c) {
                    self.unfiled.push(c);
                }
            }
            None => {
                self.flows[s].rate = rate;
                self.schedule_completion(id);
            }
        }
        self.stats.swap_inherits += 1;
        if self.batch_candidates.is_empty() && self.dirty_queue.is_empty() {
            // Every completion of the batch has been renewed and nothing
            // foreign touched the routed incidence: the settle that
            // follows finds nothing to do.
            self.stats.clean_batch_settles += 1;
        }
        id
    }

    /// Where the `hop`-th incidence entry of the flow in `slot` sits in
    /// `on`, its hop's resource list.
    #[inline]
    fn incidence_pos(on: &[OnEntry], pos: &[u32; Route::INLINE], slot: usize, hop: usize) -> usize {
        if hop < Route::INLINE {
            pos[hop] as usize
        } else {
            // Spilled long routes: positions beyond the inline window are
            // not tracked; fall back to a scan.
            on.iter()
                .position(|e| e.flow.index() == slot && e.hop as usize == hop)
                .expect("flow indexed on its route")
        }
    }

    /// Whether `id`'s slot still belongs to the flow it was issued for
    /// (its state — including a terminal status — is still readable).
    #[inline]
    fn is_live_id(&self, id: FlowId) -> bool {
        let s = id.index();
        s < self.slot_gen.len() && self.slot_gen[s] == id.generation()
    }

    /// Cancel a live flow. Completed/cancelled flows are ignored — in
    /// particular a flow whose completion was already batched at the
    /// current instant (its event is still pending delivery) stays
    /// completed: the completion happened at this timestamp.
    pub fn cancel_flow(&mut self, id: FlowId) {
        if !self.is_live_id(id) {
            return;
        }
        match self.flows[id.index()].status {
            FlowStatus::Active => {
                // Freeze progress as of now before the rate disappears.
                if self.flows[id.index()].class != NO_CLASS {
                    self.leave_class(id);
                } else {
                    self.settle_progress(id);
                    self.completions.remove(id.index());
                }
                let f = &mut self.flows[id.index()];
                f.status = FlowStatus::Cancelled;
                f.rate = 0.0;
                self.deregister_wan(id.index());
                self.detach(id);
                self.free_slots.push(id.index() as u32);
                self.live_count -= 1;
                self.stats.flows_cancelled += 1;
            }
            FlowStatus::Pending => {
                let f = &mut self.flows[id.index()];
                f.status = FlowStatus::Cancelled;
                f.rate = 0.0;
                self.deregister_wan(id.index());
                self.free_slots.push(id.index() as u32);
                self.live_count -= 1;
                self.stats.flows_cancelled += 1;
            }
            _ => {}
        }
    }

    /// Set a timer firing `delay` seconds from now.
    pub fn set_timer(&mut self, delay: f64, tag: Tag) -> TimerId {
        assert!(delay.is_finite() && delay >= 0.0, "timer delay must be non-negative");
        self.timers.schedule(self.time + delay, TimerKind::User(tag))
    }

    /// Cancel a timer (no-op if already fired).
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.timers.cancel(id);
    }

    /// Remaining demand of a flow (0 for completed flows). Progress is
    /// settled lazily, so this derives the up-to-date value from the
    /// flow's rate and last settlement time.
    pub fn flow_remaining(&self, id: FlowId) -> f64 {
        if !self.is_live_id(id) {
            return 0.0;
        }
        let f = &self.flows[id.index()];
        if f.class != NO_CLASS {
            let served = self.comp_cache[f.class as usize].clock.v_at(self.time);
            (f.remaining - served).max(0.0)
        } else if f.status == FlowStatus::Active && f.rate > 0.0 {
            (f.remaining - f.rate * (self.time - f.last_settled)).max(0.0)
        } else {
            f.remaining.max(0.0)
        }
    }

    /// Current rate of a flow (0 for retired flows). Rates are settled
    /// lazily before each event; call [`Engine::settle_rates`] first to
    /// observe a consistent allocation mid-update.
    pub fn flow_rate(&self, id: FlowId) -> f64 {
        if self.is_live_id(id) {
            self.rate_of(id.index())
        } else {
            0.0
        }
    }

    /// Status of a flow. Terminal states stay exact until the flow's slot
    /// is recycled by a later start — for a completed routed flow that can
    /// be the very next one: a start with its (route, cap) signature at the
    /// same instant renews its slot in place. After that, the flow reads as
    /// [`FlowStatus::Completed`] (cancelled-then-recycled flows collapse
    /// into it — callers needing the distinction must query before
    /// starting new flows).
    pub fn flow_status(&self, id: FlowId) -> FlowStatus {
        if self.is_live_id(id) {
            self.flows[id.index()].status
        } else {
            FlowStatus::Completed
        }
    }

    /// Number of live (pending or active) flows. Completions batched at
    /// the current instant but not yet delivered are already excluded.
    pub fn live_flows(&self) -> usize {
        self.live_count
    }

    /// Re-solve the allocation for every dirty component now, so that
    /// [`Engine::flow_rate`] reflects the current max–min fair shares.
    /// Called automatically by [`Engine::next`]; public so callers (and
    /// the differential property tests) can observe settled rates without
    /// advancing time.
    pub fn settle_rates(&mut self) {
        // First of all: nothing below may see a parked completion in the
        // incidence index.
        if !self.batch_candidates.is_empty() {
            self.expire_parked();
        }
        while let Some(c) = self.unfiled.pop() {
            self.file_class(c as usize);
        }
        if self.wan.as_ref().is_some_and(|m| m.wants_window_update(self.time)) {
            self.update_wan_windows();
        }
        if !self.dirty_routeless.is_empty() || !self.dirty_queue.is_empty() {
            self.recompute_rates();
        }
    }

    /// Detach for real every completion still parked: no start renewed
    /// it, so it did change the allocation.
    fn expire_parked(&mut self) {
        for k in 0..self.batch_candidates.len() {
            let slot = self.batch_candidates[k].slot;
            self.detach(FlowId::compose(slot, self.slot_gen[slot as usize]));
            self.free_slots.push(slot);
        }
        self.stats.parked_expired += self.batch_candidates.len() as u64;
        self.batch_candidates.clear();
    }

    /// Let the flow-level model evolve its congestion windows to `now`, then
    /// mark the routes of every flow whose effective cap changed dirty so
    /// the settle that follows re-solves them under the new caps.
    fn update_wan_windows(&mut self) {
        let mut changed = std::mem::take(&mut self.wan_changed);
        changed.clear();
        if let Some(m) = &mut self.wan {
            m.update_windows(self.time, &mut changed);
        }
        for &slot in &changed {
            if self.flows[slot as usize].status != FlowStatus::Active {
                continue;
            }
            let route = std::mem::take(&mut self.flows[slot as usize].route);
            for &r in route.as_slice() {
                self.mark_dirty(r);
            }
            self.flows[slot as usize].route = route;
        }
        self.wan_changed = changed;
    }

    /// Lower bound on the time of the engine's next event, without
    /// delivering anything.
    ///
    /// Settles rates (so completion times are current), exactly as
    /// [`Engine::next`] would. The value is a *lower bound*, not
    /// necessarily the next delivered event's time: a pending flow's
    /// activation counts (the engine does internal work at that instant
    /// and the events it leads to come no earlier), which is precisely the
    /// conservative guarantee a multi-engine driver needs.
    /// Returns `None` when no flows or timers remain.
    pub fn peek_time(&mut self) -> Option<f64> {
        if self.pending_head < self.pending_events.len() {
            // The rest of a same-timestamp batch is still due at `now`.
            return Some(self.time);
        }
        self.settle_rates();
        let t_flow = self.peek_completion().map_or(f64::INFINITY, |e| e.time);
        let t = self.timers.peek_time().unwrap_or(f64::INFINITY).min(t_flow);
        t.is_finite().then_some(t)
    }

    /// Advance the clock to `t` without delivering an event.
    ///
    /// `t` must not lie beyond the engine's next event
    /// ([`Engine::peek_time`]); active flows progress lazily, so moving
    /// the clock inside the current inter-event gap is always sound. This
    /// is how a multi-engine driver injects cross-engine arrivals: advance
    /// to the delivery timestamp, then start flows / set timers there.
    pub fn advance_clock(&mut self, t: f64) {
        assert!(t.is_finite() && t >= self.time, "clock must advance monotonically");
        if let Some(nt) = self.peek_time() {
            assert!(t <= nt, "advance_clock({t}) would skip an event at {nt}");
        }
        self.time = t;
    }

    /// Advance simulated time to the next event and return it, or `None`
    /// when no flows or timers remain.
    #[allow(clippy::should_implement_trait)] // established kernel API name
    pub fn next(&mut self) -> Option<Event> {
        self.next_event(f64::INFINITY)
    }

    /// As [`Engine::next`], but only delivers the event if it occurs
    /// **strictly before** `bound`; otherwise leaves it in place and
    /// returns `None`. Internal work strictly before the bound (flow
    /// activations) is still performed, so a `None` means the next
    /// caller-visible event, if any, is at or after `bound`.
    ///
    /// [`Engine::next`] is `next_before(∞)`. The simulator's one run loop
    /// passes its horizon (or ∞) as the bound, and the multi-site driver
    /// the edge of its conservative lookahead window.
    pub fn next_before(&mut self, bound: f64) -> Option<Event> {
        self.next_event(bound)
    }

    fn next_event(&mut self, bound: f64) -> Option<Event> {
        // Deliver the rest of the current same-timestamp batch first. A
        // timer the caller set at exactly this instant fires before the
        // remaining completions, preserving the `t_timer <= t_flow` tie
        // rule of sequential delivery.
        while self.pending_head < self.pending_events.len() {
            if self.time >= bound {
                return None;
            }
            match self.timers.peek_time() {
                Some(tt) if tt <= self.time => {
                    let (timer, _, kind) = self.timers.pop().expect("peeked non-empty");
                    match kind {
                        TimerKind::User(tag) => {
                            self.stats.timer_firings += 1;
                            return Some(Event::TimerFired { timer, tag });
                        }
                        TimerKind::ActivateFlow(id) => self.activate_flow(id, self.time),
                    }
                }
                _ => {
                    let ev = self.pending_events[self.pending_head];
                    self.pending_head += 1;
                    if self.pending_head == self.pending_events.len() {
                        self.pending_events.clear();
                        self.pending_head = 0;
                    }
                    return Some(ev);
                }
            }
        }

        loop {
            self.settle_rates();

            let next_flow = self.peek_completion();
            let t_flow = next_flow.map_or(f64::INFINITY, |e| e.time);
            let t_timer = self.timers.peek_time().unwrap_or(f64::INFINITY);

            if t_flow.is_infinite() && t_timer.is_infinite() {
                debug_assert!(
                    (0..self.flows.len()).all(
                        |s| self.flows[s].status != FlowStatus::Active || self.rate_of(s) > 0.0
                    ),
                    "deadlock: active flows with zero rate and no timers"
                );
                return None;
            }

            if t_timer.min(t_flow) >= bound {
                // Next event lies outside the caller's window: deliver
                // nothing and leave the clock inside the window.
                return None;
            }

            if t_timer <= t_flow {
                self.advance_to(t_timer);
                let (timer, _, kind) = self.timers.pop().expect("peeked non-empty");
                match kind {
                    TimerKind::User(tag) => {
                        self.stats.timer_firings += 1;
                        return Some(Event::TimerFired { timer, tag });
                    }
                    TimerKind::ActivateFlow(id) => {
                        self.activate_flow(id, t_timer);
                        // Gulp every further activation at this exact
                        // instant into the same settle pass (latency
                        // timers of simultaneous chunk reissues expire
                        // together).
                        while let Some(id2) = self.timers.pop_activation_at(t_timer) {
                            self.activate_flow(id2, t_timer);
                            self.stats.batched_activations += 1;
                        }
                        continue;
                    }
                }
            } else {
                // Batch-pop every completion at this timestamp: the first
                // is returned directly (so size-1 batches — the tiny-
                // simulation steady state — bypass the buffer entirely),
                // the rest are delivered by subsequent calls.
                let first = next_flow.expect("t_flow is finite");
                self.advance_to(first.time);
                let t = first.time;
                let tag = self.complete_flow(first.flow, t);
                let first_ev = Event::FlowCompleted { flow: first.flow, tag };
                let mut extra = 0u64;
                while let Some(e) = self.peek_completion().filter(|e| e.time == t) {
                    let tag = self.complete_flow(e.flow, t);
                    self.pending_events.push(Event::FlowCompleted { flow: e.flow, tag });
                    extra += 1;
                }
                if extra > 0 {
                    self.stats.batched_settles += 1;
                    self.stats.batched_completions += extra + 1;
                }
                return Some(first_ev);
            }
        }
    }

    /// Run the simulation to completion, discarding events. Returns the
    /// final time. Mostly useful in tests.
    pub fn drain(&mut self) -> f64 {
        while self.next().is_some() {}
        self.time
    }

    /// Transition a pending flow to active at `t` (its latency elapsed)
    /// and hook it into the allocation. Cancelled (possibly recycled)
    /// flows are skipped.
    fn activate_flow(&mut self, id: FlowId, t: f64) {
        if self.is_live_id(id) && self.flows[id.index()].status == FlowStatus::Pending {
            self.flows[id.index()].status = FlowStatus::Active;
            self.flows[id.index()].last_settled = t;
            self.attach(id);
        }
    }

    /// The earliest scheduled completion, a solo flow's entry or a
    /// class's. The two lists merge in `(time, FlowId)` order, so
    /// same-instant completions are delivered in id order whichever list
    /// holds them.
    #[inline]
    fn peek_completion(&self) -> Option<Completion> {
        match (self.completions.peek(), self.class_entries.peek()) {
            (Some(s), Some(c)) => Some(if c.before(&s) { c } else { s }),
            (s, c) => s.or(c),
        }
    }

    /// Finalize the flow [`Engine::peek_completion`] reported, the clock
    /// standing at its time `t`: take its entry, settle it at zero
    /// remaining, and park it for a matching start of the current batch to
    /// renew (or, route-less or dynamically capped, detach it and free its
    /// slot). Returns the flow's tag for event delivery.
    ///
    /// A class member is its class's earliest: the class clock is *set* to
    /// the member's tag at this instant — not accumulated up to it, so
    /// members with equal tags stay due at the same instant and pop as one
    /// batch — and the class is re-filed under its next member.
    fn complete_flow(&mut self, id: FlowId, t: f64) -> Tag {
        let f = &mut self.flows[id.index()];
        debug_assert_eq!(f.status, FlowStatus::Active);
        let rate = if f.class == NO_CLASS {
            self.completions.pop();
            f.rate
        } else {
            let k = &mut self.comp_cache[f.class as usize].clock;
            let m = k.members.pop().expect("a filed class has members");
            debug_assert_eq!(m.flow, id, "a class is filed under its earliest member");
            (k.v, k.t_last) = (m.time, t);
            // Counted as what it replaces: this event pops the class's
            // entry, the next member pushes a new one.
            self.class_entries.pops += 1;
            let next = k.members.peek();
            match next {
                Some(next) => {
                    self.class_entries.pushes += 1;
                    self.class_entries.replace(id.index(), next.flow, k.due(next.time));
                }
                None => self.class_entries.remove(id.index()),
            }
            k.filed = next.map(|next| next.flow);
            k.rho
        };
        f.class = NO_CLASS;
        f.remaining = 0.0;
        f.last_settled = t;
        f.rate = 0.0;
        f.status = FlowStatus::Completed;
        let tag = f.tag;
        // Route-less completions leave no dirty marks and their reissues
        // are O(1) anyway. A dynamically-capped flow's departure changes
        // the queue occupancy every co-bottlenecked flow sees, so it must
        // be re-solved and must not offer its (stale-capped) rate for
        // inheritance. Every other completion parks.
        let park = !f.route.is_empty() && !self.is_dynamic(id.index());
        self.deregister_wan(id.index());
        if park {
            self.batch_candidates.push(Parked { slot: id.index() as u32, rate });
        } else {
            self.detach(id);
            self.free_slots.push(id.index() as u32);
        }
        self.live_count -= 1;
        self.stats.flow_completions += 1;
        tag
    }

    /// Whether anything can cap the flow: a static cap, or a window the
    /// flow-level model drives.
    #[inline]
    fn is_capped(&self, id: FlowId) -> bool {
        self.flows[id.index()].rate_cap.is_finite() || self.is_dynamic(id.index())
    }

    /// Append one incidence entry, recording its position for O(1) removal.
    #[inline(always)]
    fn index_on(&mut self, id: FlowId, hop: usize, r: ResourceId, capped: bool) {
        let on = &mut self.flows_on[r.index()];
        if hop < Route::INLINE {
            self.flow_pos[id.index()][hop] = on.len() as u32;
        }
        on.push(OnEntry { flow: id, hop: hop as u32, capped });
    }

    /// Hook a newly-active flow into the incidence index and mark the
    /// touched part of the allocation dirty.
    fn attach(&mut self, id: FlowId) {
        debug_assert_eq!(self.flows[id.index()].status, FlowStatus::Active);
        if self.flows[id.index()].route.is_empty() {
            // A route-less flow shares nothing, so it cannot change the
            // routed multiset: parked completions stay renewable.
            self.dirty_routeless.push(id);
            return;
        }
        self.n_active_routed += 1;
        let route = std::mem::take(&mut self.flows[id.index()].route);
        let kept = self.note_attach_route(&route);
        let capped = self.is_capped(id);
        for (hop, &r) in route.as_slice().iter().enumerate() {
            self.index_on(id, hop, r, capped);
            self.mark_dirty(r);
        }
        if let Some(c) = kept {
            let slot = &mut self.comp_cache[c as usize];
            slot.live += 1;
            slot.capped += usize::from(capped);
            slot.dups += usize::from(route.repeats_a_hop());
            self.list_solo(c as usize, id.index() as u32);
        }
        self.flows[id.index()].route = route;
    }

    /// Membership-cache maintenance for a routed attach. A route lying
    /// entirely inside one cached resource set keeps that set closed (the
    /// new flow adds no outside connectivity), so the cache stays valid;
    /// any other shape — spanning two cached sets, or touching an uncached
    /// resource — may merge components, so every cached set the route
    /// touches is retired. Detaches need no bookkeeping beyond the counts:
    /// removing a flow can only *split* a component, and solving the cached
    /// superset jointly is still exact. Returns the slot that stays valid.
    fn note_attach_route(&mut self, route: &Route) -> Option<u32> {
        let hops = route.as_slice();
        if let Some(first) = self.comp_label_of(hops[0]) {
            if hops[1..].iter().all(|&r| self.comp_label_of(r) == Some(first)) {
                return Some(first.slot);
            }
        }
        for &r in hops {
            self.invalidate_comp(r);
        }
        None
    }

    /// The resource's membership label, if it still points at a live slot.
    #[inline]
    fn comp_label_of(&self, r: ResourceId) -> Option<CompLabel> {
        let label = self.res_comp[r.index()];
        let s = label.slot as usize;
        (s < self.comp_cache.len() && self.comp_cache[s].stamp == label.stamp).then_some(label)
    }

    /// Retire the cached membership `r` belongs to (no-op when none).
    fn invalidate_comp(&mut self, r: ResourceId) {
        if let Some(label) = self.comp_label_of(r) {
            let s = label.slot as usize;
            self.dissolve_class(s);
            self.comp_cache[s].stamp += 1;
            self.comp_cache[s].resources.clear();
            self.comp_cache[s].forget_counts();
            self.free_comp_slots.push(label.slot);
        }
    }

    /// Append the flow in `slot` to cached component `c`'s solo list.
    #[inline]
    fn list_solo(&mut self, c: usize, slot: u32) {
        let solo = &mut self.comp_cache[c].solo;
        self.solo_pos[slot as usize] = solo.len() as u32;
        solo.push(slot);
    }

    /// Take the flow in `slot` off cached component `c`'s solo list, if it
    /// is there.
    #[inline]
    fn unlist_solo(&mut self, c: usize, slot: u32) {
        let solo = &mut self.comp_cache[c].solo;
        let pos = self.solo_pos[slot as usize] as usize;
        if solo.get(pos) == Some(&slot) {
            solo.swap_remove(pos);
            if let Some(&moved) = solo.get(pos) {
                self.solo_pos[moved as usize] = pos as u32;
            }
        }
    }

    /// Remove a no-longer-active flow from the incidence index (and from
    /// the counts of the cached component it lies in) and mark what it
    /// crossed dirty.
    fn detach(&mut self, id: FlowId) {
        let route = std::mem::take(&mut self.flows[id.index()].route);
        if !route.is_empty() {
            self.n_active_routed -= 1;
        }
        for (hop, &r) in route.as_slice().iter().enumerate() {
            let on = &mut self.flows_on[r.index()];
            let pos = Self::incidence_pos(on, &self.flow_pos[id.index()], id.index(), hop);
            debug_assert!(on[pos].flow == id && on[pos].hop as usize == hop);
            if hop == 0 {
                if let Some(label) = self.comp_label_of(r) {
                    let slot = &mut self.comp_cache[label.slot as usize];
                    slot.live -= 1;
                    slot.capped -= usize::from(self.flows_on[r.index()][pos].capped);
                    slot.dups -= usize::from(route.repeats_a_hop());
                    self.unlist_solo(label.slot as usize, id.index() as u32);
                }
            }
            let on = &mut self.flows_on[r.index()];
            on.swap_remove(pos);
            if pos < on.len() {
                let moved = on[pos];
                if (moved.hop as usize) < Route::INLINE {
                    self.flow_pos[moved.flow.index()][moved.hop as usize] = pos as u32;
                }
            }
            self.mark_dirty(r);
        }
        self.flows[id.index()].route = route;
    }

    #[inline]
    fn mark_dirty(&mut self, r: ResourceId) {
        if !self.dirty_res[r.index()] {
            self.dirty_res[r.index()] = true;
            self.dirty_queue.push(r);
        }
    }

    /// Advance the clock. Flow progress is settled lazily (see the module
    /// docs), so this touches no per-flow state.
    fn advance_to(&mut self, t: f64) {
        debug_assert!(t >= self.time - 1e-12, "time went backwards: {} -> {t}", self.time);
        self.time = self.time.max(t);
    }

    /// Bring a flow's `remaining` up to date with the clock.
    fn settle_progress(&mut self, id: FlowId) {
        let t = self.time;
        let f = &mut self.flows[id.index()];
        if f.rate > 0.0 && t > f.last_settled {
            f.remaining = (f.remaining - f.rate * (t - f.last_settled)).max(0.0);
        }
        f.last_settled = t;
    }

    /// Current rate of the flow in `slot`: its own, or its class's share.
    #[inline]
    fn rate_of(&self, slot: usize) -> f64 {
        let f = &self.flows[slot];
        if f.class == NO_CLASS {
            f.rate
        } else {
            self.comp_cache[f.class as usize].clock.rho
        }
    }

    /// Assign a solo flow's rate, settling its progress and (re)scheduling
    /// its completion. Skips entirely when the rate is unchanged: the
    /// completion prediction `last_settled + remaining/rate` is invariant
    /// under clock advances at a constant rate.
    fn set_rate(&mut self, id: FlowId, rate: f64) {
        debug_assert_eq!(self.flows[id.index()].class, NO_CLASS);
        if self.flows[id.index()].rate == rate {
            return;
        }
        self.settle_progress(id);
        self.flows[id.index()].rate = rate;
        self.schedule_completion(id);
    }

    /// (Re-)key an active flow's completion entry from its current
    /// (settled) remaining and rate. A flow with no rate can never finish,
    /// so it holds no entry until it is re-rated.
    fn schedule_completion(&mut self, id: FlowId) {
        let f = &self.flows[id.index()];
        debug_assert_eq!(f.status, FlowStatus::Active);
        debug_assert_eq!(f.last_settled, self.time, "schedule requires settled progress");
        if f.rate <= 0.0 {
            self.completions.remove(id.index());
            return;
        }
        let remaining = if f.is_done() { 0.0 } else { f.remaining };
        self.completions.set(id, self.time + remaining / f.rate);
    }

    /// Write back a *uniform* outcome: every flow of the component being
    /// solved runs at `share`. One clock update serves them all (`v`
    /// advanced to now under the old share, the share replaced, the class's
    /// one entry re-keyed); only the slot's solo flows — the joiners — are
    /// touched, and no member is read. A share the class already has leaves
    /// its clock bit-untouched, as `set_rate`'s early return leaves a solo
    /// flow: redundant settles are idempotent.
    fn assign_uniform(&mut self, share: f64) {
        let c = self.comp_slot;
        let now = self.time;
        let slot = &mut self.comp_cache[c];
        debug_assert_eq!(slot.clock.members.len() + slot.solo.len(), slot.live);
        let k = &mut slot.clock;
        if k.members.len() == 0 {
            (k.rho, k.v, k.t_last) = (share, 0.0, now);
        } else if k.rho != share {
            (k.rho, k.v, k.t_last) = (share, k.v_at(now), now);
            self.stats.class_rerates += 1;
        } else if slot.solo.is_empty() {
            return;
        }
        let mut solo = std::mem::take(&mut self.comp_cache[c].solo);
        for &s in &solo {
            let fid = FlowId::compose(s, self.slot_gen[s as usize]);
            self.settle_progress(fid);
            self.completions.remove(s as usize);
            self.join_class(c, fid);
        }
        solo.clear();
        self.comp_cache[c].solo = solo;
        self.file_class(c);
    }

    /// Make the active solo flow `id` — settled, and holding no entry of
    /// its own — a member of class `c`: from here on the class clock
    /// carries its progress, under the finish tag `v(now) + remaining`.
    /// The caller re-files the class.
    fn join_class(&mut self, c: usize, id: FlowId) {
        let f = &mut self.flows[id.index()];
        debug_assert_eq!(f.last_settled, self.time, "joining requires settled progress");
        let remaining = if f.is_done() { 0.0 } else { f.remaining };
        let k = &mut self.comp_cache[c].clock;
        let tag = k.v_at(self.time) + remaining;
        k.members.set(id, tag);
        f.remaining = tag;
        f.class = c as u32;
        self.stats.class_joins += 1;
    }

    /// Take the cancelled member `id` out of its class, freezing its
    /// remaining demand as of now. The clock does not move.
    fn leave_class(&mut self, id: FlowId) {
        let f = &mut self.flows[id.index()];
        let c = f.class as usize;
        let k = &mut self.comp_cache[c].clock;
        k.members.remove(id.index());
        f.remaining = (f.remaining - k.v_at(self.time)).max(0.0);
        f.last_settled = self.time;
        f.class = NO_CLASS;
        if k.filed == Some(id) {
            self.file_class(c);
        }
    }

    /// Re-file class `c`'s one scheduling entry after its clock or its
    /// membership changed: under the class's earliest member, due when
    /// that member's tag is served and never in the past; an empty or
    /// share-less class holds none.
    fn file_class(&mut self, c: usize) {
        let k = &mut self.comp_cache[c].clock;
        let min = k.members.peek().filter(|_| k.rho > 0.0);
        let due = |m: Completion| k.due(m.time).max(self.time);
        match (k.filed, min) {
            (Some(w), Some(m)) if w != m.flow => {
                self.class_entries.replace(w.index(), m.flow, due(m));
            }
            (Some(w), None) => self.class_entries.remove(w.index()),
            (_, Some(m)) => self.class_entries.set(m.flow, due(m)),
            (None, None) => {}
        }
        k.filed = min.map(|m| m.flow);
    }

    /// Hand class `c`'s members back to entries of their own, each at the
    /// class's share with the remaining demand its tag implies now: before
    /// a write-back a single share cannot represent, and when the cached
    /// membership the class hangs off is retired.
    fn dissolve_class(&mut self, c: usize) {
        let k = &mut self.comp_cache[c].clock;
        let (rho, served) = (k.rho, k.v_at(self.time));
        // No share from here until a uniform solve re-forms the class (a
        // reissue tells a member twin by the share its class holds).
        k.rho = 0.0;
        if k.members.len() == 0 {
            return;
        }
        if let Some(w) = k.filed.take() {
            self.class_entries.remove(w.index());
        }
        while let Some(m) = self.comp_cache[c].clock.members.pop_tail() {
            let f = &mut self.flows[m.flow.index()];
            f.class = NO_CLASS;
            f.remaining = (m.time - served).max(0.0);
            f.rate = rho;
            f.last_settled = self.time;
            self.schedule_completion(m.flow);
            self.list_solo(c, m.flow.index() as u32);
        }
        self.stats.class_dissolves += 1;
    }

    fn recompute_rates(&mut self) {
        self.stats.rate_recomputes += 1;

        // Route-less flows are singleton components: rate = cap (or the
        // solver's unconstrained maximum), assigned in O(1).
        while let Some(id) = self.dirty_routeless.pop() {
            if self.is_live_id(id) && self.flows[id.index()].status == FlowStatus::Active {
                let cap = effective_cap(&self.wan, id.index(), self.flows[id.index()].rate_cap);
                let rate = if cap.is_finite() { cap } else { MAX_RATE };
                self.set_rate(id, rate);
                self.stats.routeless_assigns += 1;
            }
        }

        // Walk each dirty connected component once and re-solve it.
        self.visit_gen += 1;
        let gen = self.visit_gen;
        while let Some(r0) = self.dirty_queue.pop() {
            if !self.dirty_res[r0.index()] {
                continue; // already solved as part of an earlier component
            }
            let walked = match self.comp_label_of(r0) {
                Some(label) => {
                    self.load_cached_component(label.slot as usize);
                    None
                }
                None => {
                    let info = self.collect_component(r0, gen);
                    self.capture_component(&info);
                    Some(info)
                }
            };
            for k in 0..self.comp_resources.len() {
                self.dirty_res[self.comp_resources[k].index()] = false;
            }
            let live = self.comp_cache[self.comp_slot].live;
            self.stats.component_solves += 1;
            self.stats.flows_resolved += live as u64;
            if live >= self.n_active_routed {
                self.stats.full_solves += 1;
            }
            if live == 0 {
                continue;
            }
            let info = match walked {
                Some(info) => info,
                None if self.resolve_from_counts() => continue,
                None => {
                    let info = self.gather_flows(gen);
                    self.check_counts(&info);
                    info
                }
            };
            if self.comp_resources.len() == 1 && self.solve_single_resource(info.min_cap) {
                continue;
            }
            if self.comp_resources.len() > 1 {
                if self.try_warm_refill(info.min_cap) {
                    continue;
                }
                if self.comp_resources.len() == 2 && !info.has_cap && self.try_two_resource() {
                    continue;
                }
            }
            self.solve_general(gen);
        }
    }

    /// The O(joiners) re-solve of a cached component, decided by its
    /// counts alone: when no flow can be capped, a single resource takes
    /// the closed form and a multi-resource component with no repeated hop
    /// tries the warm re-fill. Either hands every flow the same share,
    /// so the clock moves and the solo flows join without any member being
    /// read. Returns `false` — the caller gathers and takes the general
    /// dispatch — whenever a cap might bind or the shape is not uniform.
    fn resolve_from_counts(&mut self) -> bool {
        let slot = &self.comp_cache[self.comp_slot];
        let single = slot.resources.len() == 1;
        if slot.capped > 0 || (!single && slot.dups > 0) {
            return false;
        }
        if cfg!(debug_assertions) {
            // Differential check: the gather this path skips must agree
            // with the counts. A fresh visit generation keeps its marks
            // from hiding flows from a fallback gather of the same settle.
            self.visit_gen += 1;
            let info = self.gather_flows(self.visit_gen);
            self.check_counts(&info);
        }
        let solved = if single {
            self.solve_single_resource(f64::INFINITY)
        } else {
            self.try_warm_refill(f64::INFINITY)
        };
        if solved {
            self.stats.joiner_resolves += 1;
        }
        solved
    }

    /// Assert that the counts of the component in `comp_slot` describe the
    /// flows just gathered into `comp_flows` (debug builds only).
    fn check_counts(&self, info: &CompInfo) {
        if !cfg!(debug_assertions) {
            return;
        }
        let slot = &self.comp_cache[self.comp_slot];
        let flows = &self.comp_flows;
        assert_eq!(slot.live, flows.len(), "live count");
        assert_eq!(slot.capped, info.capped, "capped count");
        let dups = flows.iter().filter(|f| self.flows[f.index()].route.repeats_a_hop()).count();
        assert_eq!(slot.dups, dups, "repeated-hop count");
        let mut solo: Vec<u32> = flows
            .iter()
            .filter(|f| self.flows[f.index()].class == NO_CLASS)
            .map(|f| f.index() as u32)
            .collect();
        let mut listed = slot.solo.clone();
        solo.sort_unstable();
        listed.sort_unstable();
        assert_eq!(listed, solo, "solo list");
    }

    /// Closed-form max–min for the most common component shape: a single
    /// resource. Without binding caps (every cap at least `min_cap`) every
    /// flow runs at `effective_capacity / n_shares`; with caps, a sorted
    /// sweep over the gathered flows freezes capped flows in ascending
    /// order exactly as progressive filling would. Returns `false`
    /// (punting to the general solver) only for the pathological
    /// duplicate-route-entry case with binding caps.
    fn solve_single_resource(&mut self, min_cap: f64) -> bool {
        let r = self.comp_resources[0];
        let n = self.flows_on[r.index()].len();
        debug_assert!(n > 0, "non-empty component has flows on its resource");
        // `n` counts route occurrences: a flow listing the resource twice
        // consumes two shares but still runs at one share's rate, exactly
        // as in the general solver.
        let share = self.resources[r.index()].capacity.effective(n).max(0.0) / n as f64;
        if min_cap >= share {
            // No cap binds: the uniform fair share.
            self.stats.closed_form_solves += 1;
            self.assign_uniform(share);
            return true;
        }
        if n != self.comp_flows.len() {
            return false; // duplicate entries with binding caps: general solver
        }
        // Sorted cap sweep: freeze caps below the running share (each such
        // freeze only raises the share), then give the rest the remainder.
        self.stats.closed_form_solves += 1;
        self.dissolve_class(self.comp_slot);
        self.cap_sort.clear();
        for (k, &fid) in self.comp_flows.iter().enumerate() {
            let cap = effective_cap(&self.wan, fid.index(), self.flows[fid.index()].rate_cap);
            self.cap_sort.push((cap, k as u32));
        }
        self.cap_sort.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut rem = self.resources[r.index()].capacity.effective(n);
        let mut left = n;
        let mut i = 0usize;
        while i < self.cap_sort.len() {
            let share = rem.max(0.0) / left as f64;
            let (c, k) = self.cap_sort[i];
            if c > share {
                break;
            }
            self.set_rate(self.comp_flows[k as usize], c);
            rem = (rem - c).max(0.0);
            left -= 1;
            i += 1;
        }
        if i < self.cap_sort.len() {
            let share = rem.max(0.0) / left as f64;
            for j in i..self.cap_sort.len() {
                let (_, k) = self.cap_sort[j];
                self.set_rate(self.comp_flows[k as usize], share);
            }
        }
        true
    }

    /// Warm-start re-fill: if some component resource was the sole
    /// bottleneck of its previous solve, try the uniform allocation
    /// `share = eff / n` against it and verify that (a) every component
    /// flow crosses it exactly once, (b) no cap binds (every cap at least
    /// `min_cap`), and (c) every other resource stays feasible. When the
    /// verification holds, that allocation *is* the max–min (all rates
    /// equal and a common saturated bottleneck), assigned without
    /// progressive filling. This is the ±k-flow steady state of the big
    /// shared WAN component. (a) is the counts' `n == live` when no route
    /// repeats a hop; only otherwise are the gathered routes read.
    fn try_warm_refill(&mut self, min_cap: f64) -> bool {
        let mut cand = None;
        for &r in &self.comp_resources {
            if self.warm_bneck[r.index()] {
                cand = Some(r);
                break;
            }
        }
        let Some(r) = cand else { return false };
        let n = self.flows_on[r.index()].len();
        let slot = &self.comp_cache[self.comp_slot];
        if n != slot.live {
            return false;
        }
        if slot.dups > 0 {
            for &fid in &self.comp_flows {
                let hops = self.flows[fid.index()].route.as_slice();
                if hops.iter().filter(|&&h| h == r).count() != 1 {
                    return false;
                }
            }
        }
        let share = self.resources[r.index()].capacity.effective(n).max(0.0) / n as f64;
        if min_cap < share {
            return false;
        }
        for &q in &self.comp_resources {
            if q == r {
                continue;
            }
            let m = self.flows_on[q.index()].len();
            if share * m as f64 > self.resources[q.index()].capacity.effective(m) {
                return false;
            }
        }
        self.stats.warm_refills += 1;
        self.assign_uniform(share);
        true
    }

    /// Closed-form max–min for an uncapped two-resource component with no
    /// duplicate route entries: at most two progressive-filling rounds,
    /// solved directly. Returns `false` to punt odd shapes to the general
    /// solver.
    fn try_two_resource(&mut self) -> bool {
        let a = self.comp_resources[0];
        let b = self.comp_resources[1];
        let na = self.flows_on[a.index()].len();
        let nb = self.flows_on[b.index()].len();
        if na == 0 || nb == 0 {
            return false;
        }
        let mut n_both = 0usize;
        for &fid in &self.comp_flows {
            match *self.flows[fid.index()].route.as_slice() {
                [x] if x == a || x == b => {}
                [x, y] if (x == a && y == b) || (x == b && y == a) => n_both += 1,
                _ => return false, // duplicates or foreign hops
            }
        }
        self.stats.closed_form_solves += 1;
        self.dissolve_class(self.comp_slot);
        let eff_a = self.resources[a.index()].capacity.effective(na);
        let eff_b = self.resources[b.index()].capacity.effective(nb);
        let sa = eff_a.max(0.0) / na as f64;
        let sb = eff_b.max(0.0) / nb as f64;
        // First bottleneck: the smaller share; ties pick `a`, matching the
        // general solver's strict-less argmin over local indices.
        let (s1, second, eff2, n2_entries) =
            if sb < sa { (sb, a, eff_a, na) } else { (sa, b, eff_b, nb) };
        // Round 2 share for flows only on `second`, after the crossing
        // flows' frozen bandwidth is released (clamped per subtraction,
        // as the general solver does).
        let n2_only = n2_entries - n_both;
        let mut rem2 = eff2;
        for _ in 0..n_both {
            rem2 = (rem2 - s1).max(0.0);
        }
        let s2 = if n2_only > 0 { rem2.max(0.0) / n2_only as f64 } else { 0.0 };
        for k in 0..self.comp_flows.len() {
            let fid = self.comp_flows[k];
            let only_second = matches!(*self.flows[fid.index()].route.as_slice(),
                [x] if x == second);
            let rate = if only_second { s2 } else { s1 };
            self.set_rate(fid, rate);
        }
        true
    }

    /// Load cached slot `slot`'s resource set into `comp_resources`,
    /// skipping the BFS. Valid whenever the slot is live: no attach has
    /// crossed the cached set's boundary since capture, so the set is
    /// still closed under the incidence relation and its counts describe
    /// the component (possibly a superset union of post-split components,
    /// which solves to the same rates). The flows are read only by
    /// [`Engine::gather_flows`], when the counts cannot answer.
    fn load_cached_component(&mut self, slot: usize) {
        self.stats.memb_cache_hits += 1;
        self.comp_slot = slot;
        self.comp_resources.clear();
        self.comp_resources.extend_from_slice(&self.comp_cache[slot].resources);
        debug_assert!(!self.comp_resources.is_empty(), "live slots hold their capture root");
    }

    /// Gather the flows of the loaded cached component into `comp_flows`
    /// (and give its resources their solver-local indices): one pass over
    /// its incidence lists, taken only when a cap might bind or the shape
    /// is not uniform (see [`Engine::resolve_from_counts`]).
    fn gather_flows(&mut self, gen: u64) -> CompInfo {
        for (k, r) in self.comp_resources.iter().enumerate() {
            self.res_mark[r.index()] = gen;
            self.res_local[r.index()] = k;
        }
        self.comp_flows.clear();
        let mut info = CompInfo { has_cap: false, min_cap: f64::INFINITY, capped: 0 };
        // Split the borrows so the pass runs over plain slices.
        let Engine { flows_on, flow_mark, comp_flows, flows, wan, comp_resources, .. } = self;
        for r in comp_resources.iter() {
            for on in &flows_on[r.index()] {
                let mark = &mut flow_mark[on.flow.index()];
                if *mark == gen {
                    continue;
                }
                *mark = gen;
                comp_flows.push(on.flow);
                if on.capped {
                    let slot = on.flow.index();
                    info.capped += 1;
                    info.min_cap = info.min_cap.min(effective_cap(wan, slot, flows[slot].rate_cap));
                }
            }
        }
        info.has_cap = info.min_cap < f64::INFINITY;
        info
    }

    /// Store the just-walked component's resource set in the membership
    /// cache, label its resources, and count its flows — every one solo:
    /// no class survives the retirement of the labels the walk crossed.
    /// Every walked resource necessarily had a dead label (a live one would
    /// have answered the walk from the cache), so capturing never strands a
    /// live slot.
    fn capture_component(&mut self, info: &CompInfo) {
        let s = match self.free_comp_slots.pop() {
            Some(s) => s as usize,
            None => {
                self.comp_cache.push(CompSlot::default());
                self.comp_cache.len() - 1
            }
        };
        self.comp_slot = s;
        self.comp_cache[s].stamp += 1;
        let stamp = self.comp_cache[s].stamp;
        let mut resources = std::mem::take(&mut self.comp_cache[s].resources);
        resources.clear();
        resources.extend_from_slice(&self.comp_resources);
        for &r in &resources {
            self.res_comp[r.index()] = CompLabel { slot: s as u32, stamp };
        }
        self.comp_cache[s].resources = resources;
        debug_assert!(self.comp_cache[s].solo.is_empty(), "free slots hold no counts");
        let mut dups = 0;
        for k in 0..self.comp_flows.len() {
            let f = &self.flows[self.comp_flows[k].index()];
            debug_assert_eq!(f.class, NO_CLASS, "captured flows are solo");
            dups += usize::from(f.route.repeats_a_hop());
            self.list_solo(s, self.comp_flows[k].index() as u32);
        }
        let slot = &mut self.comp_cache[s];
        (slot.live, slot.capped, slot.dups) = (self.comp_flows.len(), info.capped, dups);
        self.stats.memb_cache_builds += 1;
    }

    /// Breadth-first walk of the flow/resource bipartite graph from `r0`,
    /// filling `comp_resources` / `comp_flows` with the connected
    /// component and stamping visit marks with `gen`. Returns the
    /// component's shape summary.
    fn collect_component(&mut self, r0: ResourceId, gen: u64) -> CompInfo {
        self.comp_resources.clear();
        self.comp_flows.clear();
        self.comp_stack.clear();
        self.comp_stack.push(r0);
        self.res_mark[r0.index()] = gen;
        let mut info = CompInfo { has_cap: false, min_cap: f64::INFINITY, capped: 0 };
        while let Some(r) = self.comp_stack.pop() {
            self.res_local[r.index()] = self.comp_resources.len();
            self.comp_resources.push(r);
            for k in 0..self.flows_on[r.index()].len() {
                let fid = self.flows_on[r.index()][k].flow;
                if self.flow_mark[fid.index()] == gen {
                    continue;
                }
                self.flow_mark[fid.index()] = gen;
                self.comp_flows.push(fid);
                info.capped += usize::from(self.flows_on[r.index()][k].capped);
                let cap = effective_cap(&self.wan, fid.index(), self.flows[fid.index()].rate_cap);
                info.min_cap = info.min_cap.min(cap);
                let route = std::mem::take(&mut self.flows[fid.index()].route);
                for &r2 in route.as_slice() {
                    if self.res_mark[r2.index()] != gen {
                        self.res_mark[r2.index()] = gen;
                        self.comp_stack.push(r2);
                    }
                }
                self.flows[fid.index()].route = route;
            }
        }
        info.has_cap = info.min_cap < f64::INFINITY;
        info
    }

    /// General max–min solve restricted to the collected component via the
    /// allocation-free scratch solver, writing the resulting rates back
    /// into the flow table and updating the warm-start flags.
    fn solve_general(&mut self, gen: u64) {
        {
            let Engine {
                ref mut scratch,
                ref flows,
                ref flows_on,
                ref resources,
                ref comp_resources,
                ref comp_flows,
                ref res_local,
                ref res_mark,
                ref wan,
                ..
            } = *self;
            scratch.clear();
            for &r in comp_resources {
                let n = flows_on[r.index()].len();
                scratch.push_resource(resources[r.index()].capacity.effective(n));
            }
            for &fid in comp_flows {
                let f = &flows[fid.index()];
                debug_assert!(f.route.as_slice().iter().all(|r| res_mark[r.index()] == gen));
                scratch.push_flow_raw(
                    effective_cap(wan, fid.index(), f.rate_cap),
                    f.route.as_slice().iter().map(|r| res_local[r.index()]),
                );
            }
            scratch.solve();
        }
        self.dissolve_class(self.comp_slot);
        let sole = self.scratch.sole_bottleneck();
        for local in 0..self.comp_resources.len() {
            let r = self.comp_resources[local];
            self.warm_bneck[r.index()] = Some(local) == sole;
        }
        for k in 0..self.comp_flows.len() {
            let fid = self.comp_flows[k];
            let rate = self.scratch.rates[k];
            self.set_rate(fid, rate);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::ResourceSpec;

    #[test]
    fn single_flow_duration_is_demand_over_capacity() {
        let mut e = Engine::new();
        let r = e.add_resource(ResourceSpec::constant(10.0));
        e.start_flow(FlowSpec::new(100.0, &[r], Tag(1)));
        let ev = e.next().unwrap();
        assert_eq!(ev.tag(), Tag(1));
        assert!((e.now() - 10.0).abs() < 1e-9);
        assert!(e.next().is_none());
    }

    #[test]
    fn two_flows_share_then_speed_up() {
        // Flow A: 100 units, flow B: 50 units on a 10-capacity resource.
        // Phase 1: both at rate 5 until B finishes at t=10.
        // Phase 2: A at rate 10 for its remaining 50 units -> done at t=15.
        let mut e = Engine::new();
        let r = e.add_resource(ResourceSpec::constant(10.0));
        e.start_flow(FlowSpec::new(100.0, &[r], Tag(0xA)));
        e.start_flow(FlowSpec::new(50.0, &[r], Tag(0xB)));
        let ev1 = e.next().unwrap();
        assert_eq!(ev1.tag(), Tag(0xB));
        assert!((e.now() - 10.0).abs() < 1e-9);
        let ev2 = e.next().unwrap();
        assert_eq!(ev2.tag(), Tag(0xA));
        assert!((e.now() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn latency_delays_start() {
        let mut e = Engine::new();
        let r = e.add_resource(ResourceSpec::constant(10.0));
        e.start_flow(FlowSpec::new(100.0, &[r], Tag(1)).with_latency(2.5));
        e.next().unwrap();
        assert!((e.now() - 12.5).abs() < 1e-9);
    }

    #[test]
    fn rate_cap_limits_single_flow() {
        let mut e = Engine::new();
        let r = e.add_resource(ResourceSpec::constant(100.0));
        e.start_flow(FlowSpec::new(100.0, &[r], Tag(1)).with_cap(4.0));
        e.next().unwrap();
        assert!((e.now() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn timers_interleave_with_flows() {
        let mut e = Engine::new();
        let r = e.add_resource(ResourceSpec::constant(10.0));
        e.start_flow(FlowSpec::new(100.0, &[r], Tag(1)));
        e.set_timer(4.0, Tag(99));
        let ev = e.next().unwrap();
        assert_eq!(ev.tag(), Tag(99));
        assert!((e.now() - 4.0).abs() < 1e-9);
        let ev = e.next().unwrap();
        assert_eq!(ev.tag(), Tag(1));
        assert!((e.now() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn flow_added_midway_shares_remaining() {
        // A starts alone at rate 10. At t=5, B (50 units) arrives; both run
        // at 5. A has 50 left at t=5 -> both finish at t=15.
        let mut e = Engine::new();
        let r = e.add_resource(ResourceSpec::constant(10.0));
        e.start_flow(FlowSpec::new(100.0, &[r], Tag(0xA)));
        e.set_timer(5.0, Tag(0));
        let ev = e.next().unwrap();
        assert_eq!(ev.tag(), Tag(0));
        e.start_flow(FlowSpec::new(50.0, &[r], Tag(0xB)));
        let t1 = e.next().unwrap();
        let t2 = e.next().unwrap();
        assert!((e.now() - 15.0).abs() < 1e-9);
        let tags = [t1.tag().0, t2.tag().0];
        assert!(tags.contains(&0xA) && tags.contains(&0xB));
    }

    #[test]
    fn cancel_flow_frees_bandwidth() {
        let mut e = Engine::new();
        let r = e.add_resource(ResourceSpec::constant(10.0));
        let a = e.start_flow(FlowSpec::new(100.0, &[r], Tag(0xA)));
        e.start_flow(FlowSpec::new(100.0, &[r], Tag(0xB)));
        e.set_timer(2.0, Tag(0));
        e.next().unwrap(); // timer at t=2; both flows have 90 left
        e.cancel_flow(a);
        let ev = e.next().unwrap();
        assert_eq!(ev.tag(), Tag(0xB));
        // B had 90 left at t=2, now alone at rate 10 -> finishes at t=11.
        assert!((e.now() - 11.0).abs() < 1e-9, "now={}", e.now());
        assert_eq!(e.flow_status(a), FlowStatus::Cancelled);
    }

    #[test]
    fn cancel_pending_flow_never_activates() {
        let mut e = Engine::new();
        let r = e.add_resource(ResourceSpec::constant(10.0));
        let a = e.start_flow(FlowSpec::new(100.0, &[r], Tag(0xA)).with_latency(1.0));
        e.start_flow(FlowSpec::new(100.0, &[r], Tag(0xB)));
        e.cancel_flow(a);
        let ev = e.next().unwrap();
        assert_eq!(ev.tag(), Tag(0xB));
        assert!((e.now() - 10.0).abs() < 1e-9, "B alone at rate 10, now={}", e.now());
        assert_eq!(e.flow_status(a), FlowStatus::Cancelled);
    }

    #[test]
    fn zero_demand_flow_completes_immediately() {
        let mut e = Engine::new();
        let r = e.add_resource(ResourceSpec::constant(10.0));
        e.start_flow(FlowSpec::new(0.0, &[r], Tag(1)));
        let ev = e.next().unwrap();
        assert_eq!(ev.tag(), Tag(1));
        assert_eq!(e.now(), 0.0);
    }

    #[test]
    fn degrading_resource_slows_under_load() {
        // base 20, alpha 1.0: two flows -> aggregate 20*2/3 = 13.33, each 6.67.
        let mut e = Engine::new();
        let r = e.add_resource(ResourceSpec::degrading(20.0, 1.0));
        e.start_flow(FlowSpec::new(100.0, &[r], Tag(1)));
        e.start_flow(FlowSpec::new(100.0, &[r], Tag(2)));
        e.next().unwrap();
        let expected = 100.0 / (20.0 * 2.0 / 3.0 / 2.0);
        assert!((e.now() - expected).abs() < 1e-6, "now={} expected={expected}", e.now());
    }

    #[test]
    fn multi_resource_route_bound_by_tightest() {
        let mut e = Engine::new();
        let fast = e.add_resource(ResourceSpec::constant(100.0));
        let slow = e.add_resource(ResourceSpec::constant(10.0));
        e.start_flow(FlowSpec::new(100.0, &[fast, slow], Tag(1)));
        e.next().unwrap();
        assert!((e.now() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn drain_returns_final_time() {
        let mut e = Engine::new();
        let r = e.add_resource(ResourceSpec::constant(1.0));
        e.start_flow(FlowSpec::new(3.0, &[r], Tag(1)));
        e.start_flow(FlowSpec::new(5.0, &[r], Tag(2)));
        let t = e.drain();
        assert!((t - 8.0).abs() < 1e-9); // work-conserving: total 8 units at rate 1
    }

    #[test]
    fn stats_count_events() {
        let mut e = Engine::new();
        let r = e.add_resource(ResourceSpec::constant(1.0));
        e.start_flow(FlowSpec::new(1.0, &[r], Tag(1)));
        e.set_timer(0.5, Tag(2));
        e.drain();
        let s = e.stats();
        assert_eq!(s.flow_completions, 1);
        assert_eq!(s.timer_firings, 1);
        assert_eq!(s.flows_started, 1);
        assert_eq!(s.resources, 1);
        assert_eq!(s.events(), 2);
    }

    #[test]
    fn simultaneous_completions_all_delivered() {
        let mut e = Engine::new();
        let r = e.add_resource(ResourceSpec::constant(10.0));
        for i in 0..4 {
            e.start_flow(FlowSpec::new(25.0, &[r], Tag(i)));
        }
        let mut tags = Vec::new();
        while let Some(ev) = e.next() {
            assert!((e.now() - 10.0).abs() < 1e-9);
            tags.push(ev.tag().0);
        }
        tags.sort_unstable();
        assert_eq!(tags, vec![0, 1, 2, 3]);
        // The four simultaneous completions were drained as one batch.
        let s = e.stats();
        assert_eq!(s.batched_settles, 1);
        assert_eq!(s.batched_completions, 4);
    }

    #[test]
    fn fully_matched_batch_settles_without_solve() {
        let mut e = Engine::new();
        let r = e.add_resource(ResourceSpec::constant(10.0));
        for i in 0..4 {
            e.start_flow(FlowSpec::new(25.0, &[r], Tag(i)));
        }
        e.settle_rates();
        let base = e.stats();
        // All four complete at t=10; reissue an identical flow per event.
        for _ in 0..4 {
            let ev = e.next().unwrap();
            e.start_flow(FlowSpec::new(25.0, &[r], Tag(10 + ev.tag().0)));
        }
        e.settle_rates();
        let s = e.stats();
        assert_eq!(s.swap_inherits, 4, "every reissue inherited its twin's rate");
        assert_eq!(s.batched_settles - base.batched_settles, 1);
        assert_eq!(s.clean_batch_settles, 1, "matched batch settled with no solve");
        assert_eq!(s.component_solves, base.component_solves);
    }

    #[test]
    fn simultaneous_activations_share_one_settle() {
        let mut e = Engine::new();
        let r = e.add_resource(ResourceSpec::constant(12.0));
        for i in 0..3 {
            e.start_flow(FlowSpec::new(12.0, &[r], Tag(i)).with_latency(1.0));
        }
        // All three activate at t=1 (rate 4 each) and finish at t=4.
        let ev = e.next().unwrap();
        assert!((e.now() - 4.0).abs() < 1e-9, "now={}", e.now());
        let s = e.stats();
        assert_eq!(s.batched_activations, 2, "two activations gulped with the first");
        assert_eq!(s.component_solves, 1, "one solve for the whole activation burst");
        let _ = ev;
    }

    #[test]
    fn warm_refill_serves_stable_bottleneck_component() {
        // WAN-like shape: a shared bottleneck plus per-node links.
        let mut e = Engine::new();
        let wan = e.add_resource(ResourceSpec::constant(10.0));
        let l1 = e.add_resource(ResourceSpec::constant(100.0));
        let l2 = e.add_resource(ResourceSpec::constant(100.0));
        e.start_flow(FlowSpec::new(50.0, &[wan, l1], Tag(1)));
        e.start_flow(FlowSpec::new(80.0, &[wan, l2], Tag(2)));
        e.settle_rates(); // full solve; wan detected as sole bottleneck
        assert_eq!(e.stats().warm_refills, 0);
        // Membership changes by +1 flow: the next solve is a warm re-fill.
        e.start_flow(FlowSpec::new(80.0, &[wan, l2], Tag(3)));
        e.settle_rates();
        let s = e.stats();
        assert_eq!(s.warm_refills, 1);
        for i in 0..3 {
            assert!((e.flow_rate(FlowId(i)) - 10.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn warm_refill_bails_when_link_becomes_bottleneck() {
        let mut e = Engine::new();
        let wan = e.add_resource(ResourceSpec::constant(10.0));
        let l1 = e.add_resource(ResourceSpec::constant(4.0));
        let l2 = e.add_resource(ResourceSpec::constant(100.0));
        e.start_flow(FlowSpec::new(50.0, &[wan, l2], Tag(1)));
        e.start_flow(FlowSpec::new(80.0, &[wan, l2], Tag(2)));
        e.settle_rates(); // wan flagged as sole bottleneck (5 each)
                          // The newcomer crosses the tiny l1: uniform share 10/3 would
                          // exceed l1's capacity 4? No - 3.33 < 4. Use a smaller l1 share:
                          // two flows through l1 at share 10/4=2.5 each... keep it simple:
                          // add two flows on l1 so l1's load at wan-uniform share busts it.
        e.start_flow(FlowSpec::new(80.0, &[wan, l1], Tag(3)));
        e.start_flow(FlowSpec::new(80.0, &[wan, l1], Tag(4)));
        e.settle_rates();
        // Uniform share would be 10/4 = 2.5; l1 load 2*2.5 = 5 > 4, so the
        // warm path must bail and the full solver give l1's flows 2 each.
        let s = e.stats();
        assert_eq!(s.warm_refills, 0);
        assert!((e.flow_rate(FlowId(2)) - 2.0).abs() < 1e-9);
        assert!((e.flow_rate(FlowId(3)) - 2.0).abs() < 1e-9);
        assert!((e.flow_rate(FlowId(0)) - 3.0).abs() < 1e-9, "rest split the remaining wan");
        assert!((e.flow_rate(FlowId(1)) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn two_resource_component_closed_form() {
        let mut e = Engine::new();
        let a = e.add_resource(ResourceSpec::constant(10.0));
        let b = e.add_resource(ResourceSpec::constant(100.0));
        e.start_flow(FlowSpec::new(1e3, &[a, b], Tag(1)));
        e.start_flow(FlowSpec::new(1e3, &[a], Tag(2)));
        e.start_flow(FlowSpec::new(1e3, &[b], Tag(3)));
        e.settle_rates();
        let s = e.stats();
        assert_eq!(s.closed_form_solves, 1);
        assert!((e.flow_rate(FlowId(0)) - 5.0).abs() < 1e-9);
        assert!((e.flow_rate(FlowId(1)) - 5.0).abs() < 1e-9);
        assert!((e.flow_rate(FlowId(2)) - 95.0).abs() < 1e-9);
    }

    #[test]
    fn capped_single_resource_closed_form() {
        let mut e = Engine::new();
        let r = e.add_resource(ResourceSpec::constant(30.0));
        e.start_flow(FlowSpec::new(100.0, &[r], Tag(1)).with_cap(3.0));
        e.start_flow(FlowSpec::new(100.0, &[r], Tag(2)).with_cap(50.0));
        e.start_flow(FlowSpec::new(100.0, &[r], Tag(3)));
        e.settle_rates();
        let s = e.stats();
        assert_eq!(s.closed_form_solves, 1);
        assert_eq!(s.component_solves, 1);
        assert!((e.flow_rate(FlowId(0)) - 3.0).abs() < 1e-12, "tight cap binds");
        assert!((e.flow_rate(FlowId(1)) - 13.5).abs() < 1e-9, "(30-3)/2 each");
        assert!((e.flow_rate(FlowId(2)) - 13.5).abs() < 1e-9);
    }

    #[test]
    fn uniform_caps_bind_in_closed_form() {
        // The storage-service shape: one resource, equal per-connection caps.
        let mut e = Engine::new();
        let r = e.add_resource(ResourceSpec::constant(100.0));
        for i in 0..4 {
            e.start_flow(FlowSpec::new(10.0, &[r], Tag(i)).with_cap(5.0));
        }
        e.settle_rates();
        for i in 0..4 {
            assert!((e.flow_rate(FlowId(i)) - 5.0).abs() < 1e-12);
        }
        assert_eq!(e.stats().closed_form_solves, 1);
    }

    #[test]
    fn disjoint_components_solve_independently() {
        // Two resources with no shared flows: completing a flow on one must
        // re-solve only that component.
        let mut e = Engine::new();
        let r1 = e.add_resource(ResourceSpec::constant(10.0));
        let r2 = e.add_resource(ResourceSpec::constant(10.0));
        e.start_flow(FlowSpec::new(100.0, &[r1], Tag(1)));
        e.start_flow(FlowSpec::new(100.0, &[r1], Tag(2)));
        e.start_flow(FlowSpec::new(50.0, &[r2], Tag(3)));
        e.settle_rates();
        let s0 = e.stats();
        // One settle pass; r1 and r2 are separate components.
        assert_eq!(s0.component_solves, 2);
        assert_eq!(s0.full_solves, 0, "neither component spans all routed flows");

        // Completing the r2 flow (t=5) must only re-solve r2's component.
        let ev = e.next().unwrap();
        assert_eq!(ev.tag(), Tag(3));
        e.settle_rates();
        let s1 = e.stats();
        assert_eq!(s1.component_solves - s0.component_solves, 1);
        assert_eq!(s1.flows_resolved - s0.flows_resolved, 0, "r2's component is now empty");
        // r1's flows kept their old rate without a solve.
        assert!((e.flow_rate(FlowId(0)) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn routeless_flows_never_trigger_component_solves() {
        let mut e = Engine::new();
        for i in 0..8 {
            e.start_flow(FlowSpec::new(10.0, &[], Tag(i)).with_cap(1.0 + i as f64));
        }
        e.settle_rates();
        let s = e.stats();
        assert_eq!(s.component_solves, 0);
        assert_eq!(s.routeless_assigns, 8);
        assert!((e.flow_rate(FlowId(0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uncapped_routeless_flow_completes_instantly() {
        let mut e = Engine::new();
        e.start_flow(FlowSpec::new(1e9, &[], Tag(7)));
        let ev = e.next().unwrap();
        assert_eq!(ev.tag(), Tag(7));
        assert!(e.now() < 1e-9, "MAX_RATE makes the duration negligible");
    }

    #[test]
    fn shared_resource_merges_components() {
        // f1 on {a}, f2 on {a, b}, f3 on {b}: one component through f2.
        let mut e = Engine::new();
        let a = e.add_resource(ResourceSpec::constant(10.0));
        let b = e.add_resource(ResourceSpec::constant(10.0));
        e.start_flow(FlowSpec::new(100.0, &[a], Tag(1)));
        e.start_flow(FlowSpec::new(100.0, &[a, b], Tag(2)));
        e.start_flow(FlowSpec::new(100.0, &[b], Tag(3)));
        e.settle_rates();
        let s = e.stats();
        assert_eq!(s.component_solves, 1);
        assert_eq!(s.full_solves, 1);
        assert_eq!(s.flows_resolved, 3);
        for i in 0..3 {
            assert!((e.flow_rate(FlowId(i)) - 5.0).abs() < 1e-9);
        }
    }

    #[test]
    fn reset_clears_state_but_reuses_allocations() {
        let mut e = Engine::new();
        let r = e.add_resource(ResourceSpec::constant(10.0));
        e.start_flow(FlowSpec::new(100.0, &[r], Tag(1)));
        e.set_timer(1000.0, Tag(9));
        e.drain();
        assert!(e.now() > 0.0);

        e.reset();
        assert_eq!(e.now(), 0.0);
        assert_eq!(e.live_flows(), 0);
        assert_eq!(e.stats(), Stats::default());

        // A fresh run on the reused engine behaves like a new engine.
        let r = e.add_resource(ResourceSpec::constant(10.0));
        e.start_flow(FlowSpec::new(100.0, &[r], Tag(2)));
        let ev = e.next().unwrap();
        assert_eq!(ev.tag(), Tag(2));
        assert!((e.now() - 10.0).abs() < 1e-9);
        assert!(e.next().is_none());
    }

    #[test]
    fn reset_with_fewer_resources_is_sound() {
        let mut e = Engine::new();
        let r1 = e.add_resource(ResourceSpec::constant(10.0));
        let r2 = e.add_resource(ResourceSpec::constant(20.0));
        e.start_flow(FlowSpec::new(10.0, &[r1, r2], Tag(1)));
        e.drain();
        e.reset();
        let r = e.add_resource(ResourceSpec::constant(5.0));
        e.start_flow(FlowSpec::new(50.0, &[r], Tag(2)));
        e.next().unwrap();
        assert!((e.now() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn pipelined_reissue_stays_component_scoped() {
        // The pattern that motivated the old swap fast path: a stream of
        // identical flows on one resource, reissued on completion, while an
        // unrelated resource hosts its own flows. The unrelated component
        // must never be re-solved.
        let mut e = Engine::new();
        let hot = e.add_resource(ResourceSpec::constant(10.0));
        let cold = e.add_resource(ResourceSpec::constant(1.0));
        e.start_flow(FlowSpec::new(1e6, &[cold], Tag(999)));
        e.start_flow(FlowSpec::new(10.0, &[hot], Tag(0)));
        e.settle_rates();
        let base = e.stats();
        for k in 1..=50 {
            let ev = e.next().unwrap();
            assert_eq!(ev.tag(), Tag(k - 1));
            e.start_flow(FlowSpec::new(10.0, &[hot], Tag(k)));
        }
        e.settle_rates();
        let s = e.stats();
        // Every reissue hit the identical-signature swap: no solver work
        // at all, and the cold component was never touched.
        assert_eq!(s.swap_inherits - base.swap_inherits, 50);
        assert_eq!(s.flows_resolved, base.flows_resolved);
        assert_eq!(s.full_solves, base.full_solves);
    }

    #[test]
    fn swap_survives_routeless_churn() {
        // The documented steady state: a chunk completes, a route-less
        // compute block starts, then the identical chunk is reissued. The
        // compute start must not disturb the parked twin.
        let mut e = Engine::new();
        let r = e.add_resource(ResourceSpec::constant(10.0));
        e.start_flow(FlowSpec::new(10.0, &[r], Tag(0)));
        e.start_flow(FlowSpec::new(1e4, &[r], Tag(9)));
        e.next().unwrap(); // Tag(0) completes and parks
        e.start_flow(FlowSpec::new(5.0, &[], Tag(50)).with_cap(2.0)); // route-less churn
        let twin = e.start_flow(FlowSpec::new(10.0, &[r], Tag(1))); // identical twin
        assert_eq!(e.stats().swap_inherits, 1, "still parked after the route-less start");
        e.settle_rates();
        assert!((e.flow_rate(twin) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn swap_requires_identical_signature() {
        let mut e = Engine::new();
        let r = e.add_resource(ResourceSpec::constant(10.0));
        e.start_flow(FlowSpec::new(10.0, &[r], Tag(0)).with_cap(3.0));
        e.start_flow(FlowSpec::new(100.0, &[r], Tag(9)));
        e.next().unwrap(); // capped flow completes
                           // Different cap: must NOT inherit; a real solve gives it the full
                           // remaining share.
        let newcomer = e.start_flow(FlowSpec::new(10.0, &[r], Tag(1)).with_cap(8.0));
        e.settle_rates();
        assert_eq!(e.stats().swap_inherits, 0);
        assert!((e.flow_rate(newcomer) - 5.0).abs() < 1e-9, "fair share, not old cap");
    }

    #[test]
    fn swap_candidate_dies_on_settle() {
        // A settle between the completion and the identical start expires
        // the parked completion; the start must trigger a fresh solve, not
        // inherit a stale rate.
        let mut e = Engine::new();
        let r = e.add_resource(ResourceSpec::constant(10.0));
        e.start_flow(FlowSpec::new(10.0, &[r], Tag(0)));
        let long = e.start_flow(FlowSpec::new(100.0, &[r], Tag(9)));
        e.next().unwrap(); // Tag(0) completes at t=2 (rate 5 each)
        e.settle_rates(); // Tag(9) re-solved alone: rate 10
        let late = e.start_flow(FlowSpec::new(10.0, &[r], Tag(1)));
        e.settle_rates();
        assert_eq!(e.stats().swap_inherits, 0);
        assert!((e.flow_rate(late) - 5.0).abs() < 1e-9);
        assert!((e.flow_rate(long) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn partially_matched_batch_resolves_dirty_components() {
        // Two identical flows complete together; only one is reissued. The
        // other expires at the settle and forces a real solve, which must
        // override the inherited rate with the fresh allocation.
        let mut e = Engine::new();
        let r = e.add_resource(ResourceSpec::constant(10.0));
        e.start_flow(FlowSpec::new(20.0, &[r], Tag(0)));
        e.start_flow(FlowSpec::new(20.0, &[r], Tag(1)));
        let ev = e.next().unwrap(); // both complete at t=4; batch of 2
        assert_eq!(ev.tag(), Tag(0));
        let reissue = e.start_flow(FlowSpec::new(30.0, &[r], Tag(2))); // matches; inherits 5
        assert_eq!(e.stats().swap_inherits, 1);
        let ev = e.next().unwrap();
        assert_eq!(ev.tag(), Tag(1)); // second half of the batch
        e.settle_rates(); // one completion still parked: expired, re-solved
        assert!((e.flow_rate(reissue) - 10.0).abs() < 1e-9, "alone now: full capacity");
        // 30 units at rate 10 from t=4 -> completes at t=7.
        let ev = e.next().unwrap();
        assert_eq!(ev.tag(), Tag(2));
        assert!((e.now() - 7.0).abs() < 1e-9, "now={}", e.now());
    }

    #[test]
    fn renewal_retires_every_id_of_its_twin() {
        let mut e = Engine::new();
        let r = e.add_resource(ResourceSpec::constant(10.0));
        let twin = e.start_flow(FlowSpec::new(10.0, &[r], Tag(0)));
        e.start_flow(FlowSpec::new(100.0, &[r], Tag(9)));
        e.next().unwrap(); // the twin completes at t=2 and parks
        let retired = |e: &Engine| {
            (e.flow_status(twin), e.flow_rate(twin), e.flow_remaining(twin))
                == (FlowStatus::Completed, 0.0, 0.0)
        };
        assert!(retired(&e), "a parked completion is completed");
        e.cancel_flow(twin);
        assert_eq!(e.batch_candidates.len(), 1, "cancelling a completed flow is a no-op");
        let renewed = e.start_flow(FlowSpec::new(20.0, &[r], Tag(1)));
        assert_eq!((renewed.index(), e.stats().swap_inherits), (twin.index(), 1));
        assert_ne!(renewed, twin, "same slot, next generation");
        assert!(retired(&e), "the old id does not alias the slot's new occupant");
        e.cancel_flow(twin);
        assert_eq!(e.flow_status(renewed), FlowStatus::Active);
        assert_eq!((e.flow_rate(renewed), e.flow_remaining(renewed)), (5.0, 20.0));
        assert_eq!((e.live_flows(), e.stats().flows_cancelled), (2, 0));
        // 20 units at 5/s from t=2: nothing was re-solved on the way.
        assert_eq!(e.next().unwrap().tag(), Tag(1));
        assert!((e.now() - 6.0).abs() < 1e-12, "now = {}", e.now());
        assert_eq!(e.stats().parked_expired, 0);
    }

    #[test]
    fn zero_demand_renewal_completes_at_the_same_instant() {
        let mut e = Engine::new();
        let r = e.add_resource(ResourceSpec::constant(10.0));
        e.start_flow(FlowSpec::new(10.0, &[r], Tag(0)));
        e.start_flow(FlowSpec::new(100.0, &[r], Tag(9)));
        e.next().unwrap();
        let t = e.now();
        e.start_flow(FlowSpec::new(0.0, &[r], Tag(1)));
        assert_eq!(e.stats().swap_inherits, 1);
        assert_eq!(e.next().unwrap().tag(), Tag(1));
        assert_eq!(e.now(), t);
        // Nothing renews the zero-demand flow: it expires, and the long
        // flow is re-solved alone.
        assert_eq!(e.next().unwrap().tag(), Tag(9));
        assert_eq!(e.stats().parked_expired, 1);
        assert!((e.now() - 11.0).abs() < 1e-12, "90 left at t=2, alone at 10/s: {}", e.now());
    }

    #[test]
    fn wan_annotation_is_registered_again_on_renewal() {
        // Degenerate flow-level: annotated flows are registered with the
        // model but not windowed, so they park and renew like any other.
        let mut e = Engine::new();
        e.set_wan_model(Some(FlowLevelParams::degenerate()));
        let wan = e.add_resource(ResourceSpec::constant(10.0));
        let mk = |i: u64| FlowSpec::new(10.0, &[wan], Tag(i)).with_wan(0.0, wan);
        e.start_flow(mk(0));
        for i in 1..5 {
            e.next().unwrap();
            e.start_flow(mk(i));
        }
        let s = e.stats();
        assert_eq!((s.swap_inherits, s.wan_flows), (4, 5));
        e.drain();
    }

    #[test]
    fn stable_component_resolves_from_membership_cache() {
        // WAN-like component: two links behind a shared bottleneck. The
        // first solve walks and captures the membership; a cancellation
        // (dirty marks, same resource set) re-solves it from the cache.
        let mut e = Engine::new();
        let wan = e.add_resource(ResourceSpec::constant(10.0));
        let l1 = e.add_resource(ResourceSpec::constant(100.0));
        let l2 = e.add_resource(ResourceSpec::constant(100.0));
        e.start_flow(FlowSpec::new(50.0, &[wan, l1], Tag(1)));
        let f2 = e.start_flow(FlowSpec::new(80.0, &[wan, l2], Tag(2)));
        e.settle_rates();
        let s0 = e.stats();
        assert_eq!(s0.memb_cache_builds, 1, "first walk captured");
        assert_eq!(s0.memb_cache_hits, 0);

        e.cancel_flow(f2);
        e.settle_rates();
        let s1 = e.stats();
        assert_eq!(s1.memb_cache_builds, 1, "no re-walk");
        assert_eq!(s1.memb_cache_hits, 1, "stable membership served from cache");
        assert!((e.flow_rate(FlowId(0)) - 10.0).abs() < 1e-9, "survivor gets the full WAN");
    }

    #[test]
    fn attach_inside_cached_component_keeps_cache_valid() {
        let mut e = Engine::new();
        let wan = e.add_resource(ResourceSpec::constant(10.0));
        let l1 = e.add_resource(ResourceSpec::constant(100.0));
        e.start_flow(FlowSpec::new(50.0, &[wan, l1], Tag(1)));
        e.settle_rates();
        // A new flow whose route stays inside the cached set: membership
        // is unchanged, the next settle hits the cache.
        e.start_flow(FlowSpec::new(50.0, &[wan, l1], Tag(2)));
        e.settle_rates();
        let s = e.stats();
        assert_eq!(s.memb_cache_builds, 1);
        assert_eq!(s.memb_cache_hits, 1);
        assert!((e.flow_rate(FlowId(1)) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn merging_attach_invalidates_membership_cache() {
        // Two separately-captured components; a bridging flow must force a
        // fresh walk (the cached sets are no longer closed).
        let mut e = Engine::new();
        let a = e.add_resource(ResourceSpec::constant(10.0));
        let b = e.add_resource(ResourceSpec::constant(20.0));
        e.start_flow(FlowSpec::new(1e3, &[a], Tag(1)));
        e.start_flow(FlowSpec::new(1e3, &[b], Tag(2)));
        e.settle_rates();
        assert_eq!(e.stats().memb_cache_builds, 2);

        e.start_flow(FlowSpec::new(1e3, &[a, b], Tag(3)));
        e.settle_rates();
        let s = e.stats();
        assert_eq!(s.memb_cache_hits, 0, "bridge must not reuse stale memberships");
        assert_eq!(s.memb_cache_builds, 3, "merged component re-walked and captured");
        // Max–min over the merged component: bridge and a-flow at 5,
        // b-flow at 15.
        assert!((e.flow_rate(FlowId(0)) - 5.0).abs() < 1e-9);
        assert!((e.flow_rate(FlowId(2)) - 5.0).abs() < 1e-9);
        assert!((e.flow_rate(FlowId(1)) - 15.0).abs() < 1e-9);

        // The merged membership is cached in turn: a cancellation now
        // re-solves from the cache.
        e.cancel_flow(FlowId(2));
        e.settle_rates();
        let s = e.stats();
        assert_eq!(s.memb_cache_hits, 1);
        assert_eq!(s.memb_cache_builds, 3);
    }

    #[test]
    fn cached_superset_after_split_still_solves_exactly() {
        // Capture {a, b} via a bridging flow, detach the bridge (split),
        // then re-solve from the cached superset: rates must match the
        // per-component ground truth.
        let mut e = Engine::new();
        let a = e.add_resource(ResourceSpec::constant(10.0));
        let b = e.add_resource(ResourceSpec::constant(20.0));
        let bridge = e.start_flow(FlowSpec::new(1e3, &[a, b], Tag(0)));
        e.start_flow(FlowSpec::new(1e3, &[a], Tag(1)));
        e.start_flow(FlowSpec::new(1e3, &[b], Tag(2)));
        e.settle_rates();
        let builds = e.stats().memb_cache_builds;
        e.cancel_flow(bridge); // dirty marks on both; membership splits
        e.settle_rates();
        let s = e.stats();
        assert_eq!(s.memb_cache_builds, builds, "superset reused, no walk");
        assert!(s.memb_cache_hits >= 1);
        assert!((e.flow_rate(FlowId(1)) - 10.0).abs() < 1e-9, "a alone");
        assert!((e.flow_rate(FlowId(2)) - 20.0).abs() < 1e-9, "b alone");
    }

    #[test]
    fn reset_retires_membership_cache() {
        let mut e = Engine::new();
        let r = e.add_resource(ResourceSpec::constant(10.0));
        e.start_flow(FlowSpec::new(10.0, &[r], Tag(1)));
        e.settle_rates();
        assert_eq!(e.stats().memb_cache_builds, 1);
        e.reset();
        let r = e.add_resource(ResourceSpec::constant(10.0));
        e.start_flow(FlowSpec::new(10.0, &[r], Tag(1)));
        e.settle_rates();
        // The stale pre-reset membership must not be resurrected.
        let s = e.stats();
        assert_eq!(s.memb_cache_hits, 0);
        assert_eq!(s.memb_cache_builds, 1);
        assert!((e.flow_rate(FlowId(0)) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn timer_set_mid_batch_fires_before_remaining_completions() {
        let mut e = Engine::new();
        let r = e.add_resource(ResourceSpec::constant(10.0));
        for i in 0..3 {
            e.start_flow(FlowSpec::new(10.0, &[r], Tag(i)));
        }
        let ev = e.next().unwrap(); // batch of 3 at t=3; first delivered
        assert_eq!(ev.tag(), Tag(0));
        assert!((e.now() - 3.0).abs() < 1e-9);
        e.set_timer(0.0, Tag(99)); // lands at exactly the batch instant
        let ev = e.next().unwrap();
        assert_eq!(ev.tag(), Tag(99), "tie rule: timers before completions");
        let ev = e.next().unwrap();
        assert_eq!(ev.tag(), Tag(1));
        let ev = e.next().unwrap();
        assert_eq!(ev.tag(), Tag(2));
    }

    #[test]
    fn peek_time_previews_next_without_delivering() {
        let mut e = Engine::new();
        assert_eq!(e.peek_time(), None);
        let r = e.add_resource(ResourceSpec::constant(10.0));
        e.start_flow(FlowSpec::new(20.0, &[r], Tag(1)));
        e.set_timer(1.0, Tag(2));
        assert_eq!(e.peek_time(), Some(1.0));
        assert_eq!(e.next().unwrap().tag(), Tag(2));
        assert_eq!(e.peek_time(), Some(2.0));
        assert_eq!(e.next().unwrap().tag(), Tag(1));
        assert_eq!(e.peek_time(), None);
    }

    #[test]
    fn peek_time_reports_pending_batch_at_now() {
        let mut e = Engine::new();
        let r = e.add_resource(ResourceSpec::constant(10.0));
        e.start_flow(FlowSpec::new(10.0, &[r], Tag(0)));
        e.start_flow(FlowSpec::new(10.0, &[r], Tag(1)));
        let _ = e.next().unwrap(); // batch of 2 at t=2; one still pending
        assert_eq!(e.peek_time(), Some(e.now()));
    }

    #[test]
    fn next_before_respects_the_bound() {
        let mut e = Engine::new();
        let r = e.add_resource(ResourceSpec::constant(10.0));
        e.start_flow(FlowSpec::new(20.0, &[r], Tag(1))); // completes at 2
        assert_eq!(e.next_before(1.5), None);
        assert!(e.now() < 1.5);
        assert_eq!(e.next_before(2.0), None, "bound is exclusive");
        let ev = e.next_before(2.5).unwrap();
        assert_eq!(ev.tag(), Tag(1));
        assert!((e.now() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn advance_clock_moves_time_between_events() {
        let mut e = Engine::new();
        let r = e.add_resource(ResourceSpec::constant(10.0));
        e.start_flow(FlowSpec::new(20.0, &[r], Tag(1))); // completes at 2
        e.advance_clock(1.0);
        assert_eq!(e.now(), 1.0);
        assert!((e.flow_remaining(FlowId(0)) - 10.0).abs() < 1e-6);
        // A flow started at the advanced clock finishes relative to it.
        e.start_flow(FlowSpec::new(5.0, &[r], Tag(2)));
        let ev = e.next().unwrap();
        assert_eq!(ev.tag(), Tag(2));
        assert!((e.now() - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "skip an event")]
    fn advance_clock_cannot_skip_events() {
        let mut e = Engine::new();
        e.set_timer(1.0, Tag(1));
        e.advance_clock(1.5);
    }

    #[test]
    fn event_queue_counters_track_pushes_pops_and_rekeys() {
        let mut e = Engine::new();
        let r = e.add_resource(ResourceSpec::constant(10.0));
        // Two flows share, so B's completion re-rates A: A's one entry is
        // re-keyed in place, never duplicated.
        e.start_flow(FlowSpec::new(100.0, &[r], Tag(0xA)));
        e.start_flow(FlowSpec::new(50.0, &[r], Tag(0xB)));
        let t = e.set_timer(1.0, Tag(9));
        e.cancel_timer(t);
        e.drain();
        let s = e.stats();
        // A and B share one clock from the first solve on: its entry is
        // filed under B, handed to A when B completes, and moved once when
        // A's share doubles.
        assert_eq!((s.class_joins, s.class_rerates, s.class_dissolves), (2, 1, 0), "{s:?}");
        assert_eq!(s.event_pushes, 3, "the class's entry under B, then under A, + 1 timer: {s:?}");
        assert_eq!(s.event_rekeys, 1, "the class re-keyed when B left: {s:?}");
        assert_eq!(s.event_stale_drops, 1, "only the cancelled timer is ever stale: {s:?}");
        assert_eq!(
            s.event_pops - s.event_stale_drops,
            s.flow_completions,
            "every completion pop delivers an event: {s:?}"
        );
    }

    /// The clock of the component `r` belongs to, as raw bits.
    fn clock_bits(e: &Engine, r: ResourceId) -> (u64, u64, u64, usize) {
        let k = &e.comp_cache[e.res_comp[r.index()].slot as usize].clock;
        (k.rho.to_bits(), k.v.to_bits(), k.t_last.to_bits(), k.members.len())
    }

    #[test]
    fn resolve_to_the_same_share_leaves_the_clock_untouched() {
        const SWAP: Tag = Tag(100);
        let mut e = Engine::new();
        let r = e.add_resource(ResourceSpec::constant(12.0));
        let a = e.start_flow(FlowSpec::new(60.0, &[r], Tag(0xA)));
        let b = e.start_flow(FlowSpec::new(90.0, &[r], Tag(0xB)));
        e.start_flow(FlowSpec::new(120.0, &[r], Tag(0xC)));
        e.set_timer(2.5, SWAP);
        assert_eq!(e.next().unwrap().tag(), SWAP);
        let before = clock_bits(&e, r);
        let due = e.class_entries.peek();
        // One leaves, one arrives, in one settle: three flows still share
        // `r`, so the solve returns the share the class already has.
        e.cancel_flow(b);
        let d = e.start_flow(FlowSpec::new(100.0, &[r], Tag(0xD)));
        e.settle_rates();
        assert_eq!(clock_bits(&e, r), before, "only the membership changed");
        assert_eq!(e.class_entries.peek(), due, "A is still the earliest, due when it was");
        assert_eq!(e.stats().class_rerates, 0);
        // The newcomer joined at the virtual time of the instant it came:
        // 100 units at 4/s from t = 2.5.
        assert!((e.flow_remaining(d) - 100.0).abs() < 1e-12);
        assert!((e.flow_remaining(a) - 50.0).abs() < 1e-12);
        assert_eq!(e.next().unwrap().tag(), Tag(0xA));
        assert_eq!(e.next().unwrap().tag(), Tag(0xD));
        // A left at t = 15; D had 50 left, C 60, at 6/s each from there.
        assert!((e.now() - (15.0 + 50.0 / 6.0)).abs() < 1e-12, "now = {}", e.now());
    }

    #[test]
    fn binding_cap_dissolves_the_class_and_a_uniform_solve_reforms_it() {
        let mut e = Engine::new();
        let r = e.add_resource(ResourceSpec::constant(30.0));
        let a = e.start_flow(FlowSpec::new(300.0, &[r], Tag(0xA)));
        let b = e.start_flow(FlowSpec::new(300.0, &[r], Tag(0xB)));
        e.settle_rates();
        assert_eq!(clock_bits(&e, r).3, 2, "two members at 15 each");
        e.set_timer(4.0, Tag(1));
        e.next().unwrap();
        // A cap below the fair share: a single share no longer describes
        // the component, so its flows go back to entries of their own.
        let c = e.start_flow(FlowSpec::new(50.0, &[r], Tag(0xC)).with_cap(5.0));
        e.settle_rates();
        let s = e.stats();
        assert_eq!((s.class_dissolves, clock_bits(&e, r).3), (1, 0));
        assert_eq!((e.completions.len(), e.class_entries.len()), (3, 0));
        assert!((e.flow_rate(a) - 12.5).abs() < 1e-12 && (e.flow_rate(c) - 5.0).abs() < 1e-12);
        assert!((e.flow_remaining(a) - 240.0).abs() < 1e-9, "15/s for 4 s before the cap bound");
        // The capped flow leaves at t = 14; the rest share uniformly again.
        assert_eq!(e.next().unwrap().tag(), Tag(0xC));
        e.settle_rates();
        assert_eq!((clock_bits(&e, r).3, e.completions.len(), e.class_entries.len()), (2, 0, 1));
        assert!((e.flow_remaining(b) - 115.0).abs() < 1e-9, "240 - 12.5 * 10");
        e.next().unwrap();
        assert!((e.now() - (14.0 + 115.0 / 15.0)).abs() < 1e-9, "now = {}", e.now());
    }

    /// A resource whose effective capacity is exactly 0 under contention
    /// (`ResourceSpec::degrading` rejects the infinite coefficient; the
    /// public fields do not).
    fn collapsing(base: f64) -> ResourceSpec {
        ResourceSpec { capacity: crate::CapacityModel::Degrading { base, alpha: f64::INFINITY } }
    }

    #[test]
    fn zero_rated_flow_holds_no_completion_until_rerated() {
        const START_B: Tag = Tag(100);
        const CANCEL_B: Tag = Tag(101);
        let mut e = Engine::new();
        let r = e.add_resource(collapsing(10.0));
        e.start_flow(FlowSpec::new(100.0, &[r], Tag(0xA))); // alone: rate 10, due at t=10
        e.set_timer(1.0, START_B);
        e.set_timer(5.0, CANCEL_B);
        assert_eq!(e.next().unwrap().tag(), START_B);
        let b = e.start_flow(FlowSpec::new(100.0, &[r], Tag(0xB)));
        // Two flows collapse the resource: A stalls at 90 remaining and must
        // not complete on the prediction made under its old rate.
        assert_eq!(e.next().unwrap().tag(), CANCEL_B);
        assert_eq!(
            (e.completions.len(), e.class_entries.len()),
            (0, 0),
            "stalled flows hold no entry, nor does their share-less class"
        );
        e.cancel_flow(b);
        let ev = e.next().unwrap();
        assert_eq!(ev.tag(), Tag(0xA));
        assert!((e.now() - 14.0).abs() < 1e-9, "A finished at {}, expected 5 + 90/10", e.now());
    }

    mod completion_list_invariant {
        use super::*;
        use proptest::prelude::*;

        /// One step: `(op, a, b)` — see the match in the property.
        fn schedule() -> impl Strategy<Value = Vec<(u32, u32, u32)>> {
            proptest::collection::vec((0u32..6, 0u32..64, 0u32..16), 1..200)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// After any schedule of starts (routed, route-less, latent,
            /// capped, and onto a resource that collapses to zero capacity
            /// under contention), cancels and event deliveries, every
            /// active flow with a positive rate is scheduled exactly once —
            /// an entry of its own xor membership in exactly one class —
            /// and every class with members and a positive share holds
            /// exactly one entry, filed under its earliest member. And the
            /// incidence index holds active flows and parked completions
            /// only — parked ones never on the free list — and after a
            /// settle, active flows only.
            #[test]
            fn one_entry_per_rated_active_flow(steps in schedule()) {
                const GUARD: Tag = Tag(u64::MAX);
                let mut e = Engine::new();
                let shared = e.add_resource(ResourceSpec::constant(100.0));
                let nic = e.add_resource(ResourceSpec::constant(40.0));
                let zero = e.add_resource(collapsing(25.0));
                // A far-future timer keeps an all-stalled engine out of the
                // deadlock debug-assert; it is re-armed whenever it fires.
                e.set_timer(1e6, GUARD);
                let mut started = Vec::new();
                for (i, &(op, a, b)) in steps.iter().enumerate() {
                    match op {
                        0 | 1 => {
                            let route: &[ResourceId] = match a % 5 {
                                0 => &[shared],
                                1 => &[shared, nic],
                                2 => &[nic],
                                3 => &[zero],
                                _ => &[],
                            };
                            let mut spec =
                                FlowSpec::new(f64::from(b + 1) * 12.5, route, Tag(i as u64));
                            if route.is_empty() || a % 7 == 0 {
                                spec = spec.with_cap(f64::from(a % 4 + 1) * 7.0);
                            }
                            if a % 3 == 0 {
                                spec = spec.with_latency(f64::from(b % 4) * 0.25);
                            }
                            started.push(e.start_flow(spec));
                        }
                        2 if !started.is_empty() => {
                            e.cancel_flow(started[a as usize % started.len()]);
                        }
                        5 => {
                            e.settle_rates();
                            prop_assert!(e.batch_candidates.is_empty(), "parked past a settle");
                            for (r, on) in e.flows_on.iter().enumerate() {
                                let hops = e
                                    .flows
                                    .iter()
                                    .filter(|f| f.status == FlowStatus::Active)
                                    .flat_map(|f| f.route.as_slice())
                                    .filter(|h| h.index() == r)
                                    .count();
                                prop_assert_eq!(on.len(), hops, "resource {} after step {}", r, i);
                            }
                        }
                        _ => {
                            if e.next().map(|ev| ev.tag()) == Some(GUARD) {
                                e.set_timer(1e6, GUARD);
                            }
                        }
                    }
                    let parked: Vec<usize> =
                        e.batch_candidates.iter().map(|p| p.slot as usize).collect();
                    for on in e.flows_on.iter().flatten() {
                        let s = on.flow.index();
                        prop_assert_eq!(e.slot_gen[s], on.flow.generation(), "stale id, step {}", i);
                        let parked_here = e.flows[s].status == FlowStatus::Completed
                            && parked.contains(&s)
                            && !e.free_slots.contains(&(s as u32));
                        prop_assert!(
                            e.flows[s].status == FlowStatus::Active || parked_here,
                            "slot {} indexed as {:?} after step {}", s, e.flows[s].status, i
                        );
                    }
                    let (mut solo, mut members) = (0, 0);
                    for (s, f) in e.flows.iter().enumerate() {
                        let in_classes =
                            e.comp_cache.iter().filter(|c| c.clock.members.holds(s)).count();
                        if f.status != FlowStatus::Active || f.class == NO_CLASS {
                            prop_assert_eq!(in_classes, 0, "slot {} after step {}", s, i);
                            let rated = f.status == FlowStatus::Active && f.rate > 0.0;
                            prop_assert_eq!(e.completions.holds(s), rated, "slot {} step {}", s, i);
                            solo += usize::from(rated);
                        } else {
                            let own = &e.comp_cache[f.class as usize].clock.members;
                            prop_assert!(in_classes == 1 && own.holds(s), "slot {} step {}", s, i);
                            prop_assert!(!e.completions.holds(s), "slot {} step {}", s, i);
                            members += 1;
                        }
                    }
                    prop_assert_eq!(e.completions.len(), solo, "after step {} {:?}", i, steps[i]);
                    let mut filed = 0;
                    for (slot, c) in e.comp_cache.iter().enumerate() {
                        let k = &c.clock;
                        members -= k.members.len();
                        let earliest = k.members.peek().filter(|_| k.rho > 0.0).map(|m| m.flow);
                        // A class a reissue joined as its earliest member
                        // is re-filed at the next settle; until then its
                        // entry sits under another member, or nowhere.
                        if !e.unfiled.contains(&(slot as u32)) {
                            prop_assert_eq!(k.filed, earliest, "step {}", i);
                        }
                        if let Some(w) = k.filed {
                            let w = w.index();
                            prop_assert!(e.class_entries.holds(w) && k.members.holds(w), "step {}", i);
                            filed += 1;
                        }
                    }
                    prop_assert_eq!(members, 0, "every member heap entry is a live member");
                    prop_assert_eq!(e.class_entries.len(), filed, "after step {} {:?}", i, steps[i]);
                }
            }
        }
    }

    #[test]
    fn reset_clears_event_queue_counters() {
        let mut e = Engine::new();
        let r = e.add_resource(ResourceSpec::constant(10.0));
        e.start_flow(FlowSpec::new(10.0, &[r], Tag(1)));
        e.drain();
        assert!(e.stats().event_pushes > 0);
        e.reset();
        let s = e.stats();
        assert_eq!((s.event_pushes, s.event_pops, s.event_stale_drops), (0, 0, 0));
    }

    /// A chunk-pipelined, timer-heavy schedule run to the end: the event
    /// sequence and timestamps it delivered.
    fn pipelined_run(e: &mut Engine) -> Vec<(u64, u64)> {
        let shared = e.add_resource(ResourceSpec::constant(100.0));
        let spare = e.add_resource(ResourceSpec::constant(40.0));
        for i in 0..40u64 {
            let route: &[ResourceId] = if i % 3 == 0 { &[shared, spare] } else { &[shared] };
            let mut spec = FlowSpec::new(50.0 + (i % 7) as f64 * 12.5, route, Tag(i));
            if i % 4 == 1 {
                spec = spec.with_latency(0.25 * (i % 5) as f64);
            }
            if i % 5 == 2 {
                spec = spec.with_cap(6.0);
            }
            e.start_flow(spec);
        }
        for i in 0..10u64 {
            e.set_timer(0.375 * i as f64, Tag(1000 + i));
        }
        let mut log = Vec::new();
        while let Some(ev) = e.next() {
            log.push((ev.tag().0, e.now().to_bits()));
            // Reissue work on some completions to recycle flow slots.
            if let Event::FlowCompleted { tag, .. } = ev {
                if tag.0 % 6 == 0 && tag.0 < 60 {
                    e.start_flow(FlowSpec::new(30.0, &[shared], Tag(tag.0 + 100)));
                }
            }
        }
        log.push((u64::MAX, e.now().to_bits()));
        log
    }

    /// Whole-engine reuse oracle: the same chunk-pipelined, timer-heavy
    /// schedule must produce the identical event sequence and timestamps
    /// on a fresh engine and on one that already ran it and was `reset()`
    /// (recycled flow/timer slots, bumped generations, kept allocations).
    #[test]
    fn reset_engine_replays_the_fresh_event_sequence() {
        let fresh = pipelined_run(&mut Engine::new());
        assert_eq!(fresh.len(), 40 + 10 + 7 + 1, "every flow, timer and reissue delivers");
        let mut reused = Engine::new();
        assert_eq!(pipelined_run(&mut reused), fresh);
        let first_stats = reused.stats();
        reused.reset();
        assert_eq!(pipelined_run(&mut reused), fresh, "a reset engine diverged from a fresh one");
        assert_eq!(reused.stats(), first_stats, "counters restart from zero on reset");
    }

    #[test]
    fn reset_with_completions_still_parked_replays_the_fresh_event_sequence() {
        let fresh = pipelined_run(&mut Engine::new());
        let mut e = Engine::new();
        let r = e.add_resource(ResourceSpec::constant(10.0));
        for i in 0..3 {
            e.start_flow(FlowSpec::new(10.0, &[r], Tag(i)));
        }
        e.next().unwrap(); // a batch of 3 at t=3, one delivered
        e.start_flow(FlowSpec::new(10.0, &[r], Tag(3))); // one renewed, two still parked
        assert_eq!((e.batch_candidates.len(), e.flows_on[r.index()].len()), (2, 3));
        e.reset();
        assert_eq!(pipelined_run(&mut e), fresh, "parked completions leaked through reset");
    }

    /// The degeneracy oracle at engine level: a flow-level model with zero
    /// propagation delay and an unbounded window must replay the max–min
    /// trace bit for bit, including on a workload full of WAN annotations,
    /// reissues, caps and latencies.
    #[test]
    fn degenerate_flow_level_matches_maxmin_bit_for_bit() {
        fn run(config: Option<FlowLevelParams>) -> Vec<(u64, u64)> {
            let mut e = Engine::new();
            e.set_wan_model(config);
            let wan = e.add_resource(ResourceSpec::constant(100.0));
            let nic = e.add_resource(ResourceSpec::constant(40.0));
            for i in 0..40u64 {
                let route: &[ResourceId] = if i % 3 == 0 { &[wan, nic] } else { &[wan] };
                let mut spec = FlowSpec::new(50.0 + (i % 7) as f64 * 12.5, route, Tag(i));
                if i % 4 == 1 {
                    spec = spec.with_latency(0.25 * (i % 5) as f64);
                }
                if i % 5 == 2 {
                    spec = spec.with_cap(6.0);
                }
                if i % 2 == 0 {
                    spec = spec.with_wan(0.0, wan); // zero-delay WAN annotation
                }
                e.start_flow(spec);
            }
            for i in 0..10u64 {
                e.set_timer(0.375 * i as f64, Tag(1000 + i));
            }
            let mut log = Vec::new();
            while let Some(ev) = e.next() {
                log.push((ev.tag().0, e.now().to_bits()));
                if let Event::FlowCompleted { tag, .. } = ev {
                    if tag.0 % 6 == 0 && tag.0 < 60 {
                        let spec = FlowSpec::new(30.0, &[wan], Tag(tag.0 + 100)).with_wan(0.0, wan);
                        e.start_flow(spec);
                    }
                }
            }
            log.push((u64::MAX, e.now().to_bits()));
            log
        }
        let maxmin = run(None);
        let degen = run(Some(FlowLevelParams::degenerate()));
        assert_eq!(maxmin, degen, "degenerate flow-level diverged from max-min");
    }

    #[test]
    fn windowed_wan_flow_is_capped_at_window_over_rtt() {
        let mut e = Engine::new();
        let params = FlowLevelParams {
            window: Some(1e6),
            additive_increase: 0.0, // freeze the window so the cap is exact
            ..FlowLevelParams::default()
        };
        e.set_wan_model(Some(params));
        let wan = e.add_resource(ResourceSpec::constant(1e9));
        let id = e.start_flow(FlowSpec::new(1e9, &[wan], Tag(1)).with_wan(0.01, wan));
        // The propagation delay defers the start; step past the activation.
        assert!(e.next_before(0.02).is_none());
        e.settle_rates();
        // window / (2 * prop delay) = 1e6 / 0.02 = 5e7, far below the 1e9 link.
        assert!((e.flow_rate(id) - 5e7).abs() < 1.0, "rate = {}", e.flow_rate(id));
    }

    #[test]
    fn wan_propagation_delay_defers_completion() {
        // Under flow-level, the WAN annotation's delay adds start latency;
        // under max-min it is inert.
        for (cfg, expect) in [(None, 1.0), (Some(FlowLevelParams::degenerate()), 1.5)] {
            let mut e = Engine::new();
            e.set_wan_model(cfg);
            let wan = e.add_resource(ResourceSpec::constant(1.0));
            e.start_flow(FlowSpec::new(1.0, &[wan], Tag(1)).with_wan(0.5, wan));
            let t = e.drain();
            assert!((t - expect).abs() < 1e-9, "finished at {t}, expected {expect}");
        }
    }

    #[test]
    fn dynamic_wan_flows_skip_swap_fast_path() {
        // A pipelined stream of identical windowed flows must never take the
        // inherit fast path: each departure changes the QDisc occupancy.
        fn run(cfg: Option<FlowLevelParams>) -> Stats {
            let mut e = Engine::new();
            e.set_wan_model(cfg);
            let wan = e.add_resource(ResourceSpec::constant(100.0));
            let mk = |i: u64| FlowSpec::new(10.0, &[wan], Tag(i)).with_wan(0.001, wan);
            e.start_flow(mk(0));
            e.start_flow(mk(1));
            let mut next = 2u64;
            while let Some(ev) = e.next() {
                if let Event::FlowCompleted { .. } = ev {
                    if next < 20 {
                        e.start_flow(mk(next));
                        next += 1;
                    }
                }
            }
            e.stats()
        }
        let maxmin = run(None);
        assert!(maxmin.swap_inherits > 0, "max-min should take the fast path");
        let windowed = run(Some(FlowLevelParams::default()));
        assert_eq!(windowed.swap_inherits, 0, "windowed flows must not inherit rates");
        assert_eq!(windowed.wan_flows, 20);
    }

    mod degeneracy_oracle {
        use super::*;
        use proptest::prelude::*;

        /// A random workload: per flow (demand grid, route selector, cap
        /// selector, latency grid, WAN-annotation flag). Demands sit on a
        /// coarse grid so identical-signature swaps and same-timestamp
        /// batches actually occur.
        fn workload() -> impl Strategy<Value = Vec<(u32, u32, u32, u32, u32)>> {
            proptest::collection::vec((1u32..80, 0u32..3, 0u32..3, 0u32..4, 0u32..2), 1..60)
        }

        /// Random AIMD knobs (all irrelevant once the window is unbounded
        /// and the delay zero — that irrelevance is the property).
        fn knobs() -> impl Strategy<Value = (u32, u32, u32)> {
            (1u32..19, 0u32..5, 0u32..4)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The degeneracy guarantee, randomized: any flow-level config
            /// collapsed to zero delay + unbounded window replays the
            /// max–min trace bit for bit, whatever its AIMD knobs and
            /// whichever flows carry WAN annotations.
            #[test]
            fn collapsed_flow_level_replays_maxmin((flows, (g, ai, thr)) in (workload(), knobs())) {
                let params = FlowLevelParams {
                    window: None, // unbounded: the collapse
                    gain: f64::from(g) * 0.1,
                    additive_increase: f64::from(ai) * 5e4,
                    mark_threshold: f64::from(thr) * 2.5e-3,
                    ..FlowLevelParams::default()
                };
                fn run(
                    config: Option<FlowLevelParams>,
                    flows: &[(u32, u32, u32, u32, u32)],
                ) -> Vec<(u64, u64)> {
                    let mut e = Engine::new();
                    e.set_wan_model(config);
                    let wan = e.add_resource(ResourceSpec::constant(100.0));
                    let nic = e.add_resource(ResourceSpec::constant(40.0));
                    for (i, &(d, route, cap, lat, w)) in flows.iter().enumerate() {
                        let route: &[ResourceId] = match route {
                            0 => &[wan],
                            1 => &[wan, nic],
                            _ => &[nic],
                        };
                        let mut spec =
                            FlowSpec::new(f64::from(d) * 12.5, route, Tag(i as u64));
                        if cap > 0 {
                            spec = spec.with_cap(f64::from(cap) * 7.0);
                        }
                        if lat > 0 {
                            spec = spec.with_latency(f64::from(lat) * 0.25);
                        }
                        if w > 0 {
                            spec = spec.with_wan(0.0, wan); // zero delay: the collapse
                        }
                        e.start_flow(spec);
                    }
                    let mut log = Vec::new();
                    while let Some(ev) = e.next() {
                        log.push((ev.tag().0, e.now().to_bits()));
                    }
                    log
                }
                let maxmin = run(None, &flows);
                let degen = run(Some(params), &flows);
                prop_assert_eq!(maxmin, degen, "collapsed flow-level diverged");
            }
        }
    }

    #[test]
    fn model_selection_survives_reset_but_counters_clear() {
        let mut e = Engine::new();
        e.set_wan_model(Some(FlowLevelParams::default()));
        assert_eq!(e.bandwidth_model_name(), "flow-level");
        let wan = e.add_resource(ResourceSpec::constant(10.0));
        e.start_flow(FlowSpec::new(5.0, &[wan], Tag(1)).with_wan(0.01, wan));
        e.drain();
        assert_eq!(e.stats().wan_flows, 1);
        e.reset();
        assert_eq!(e.bandwidth_model_name(), "flow-level", "selection survives reset");
        assert_eq!(e.stats(), Stats::default(), "per-run model state cleared");
    }

    #[test]
    fn capped_attach_falls_back_to_the_gather() {
        let mut e = Engine::new();
        let r = e.add_resource(ResourceSpec::constant(30.0));
        e.start_flow(FlowSpec::new(300.0, &[r], Tag(1)));
        e.start_flow(FlowSpec::new(300.0, &[r], Tag(2)));
        e.settle_rates(); // the walk captures the component
        assert_eq!(e.stats().joiner_resolves, 0);
        e.start_flow(FlowSpec::new(300.0, &[r], Tag(3)));
        e.settle_rates();
        assert_eq!(e.stats().joiner_resolves, 1, "a cap-free joiner re-solves from the counts");
        // A cap that cannot bind still sends the solve through the gather.
        let c = e.start_flow(FlowSpec::new(300.0, &[r], Tag(4)).with_cap(100.0));
        e.settle_rates();
        let s = e.stats();
        assert_eq!((s.joiner_resolves, s.closed_form_solves, s.memb_cache_hits), (1, 3, 2));
        assert_eq!((clock_bits(&e, r).3, e.flow_rate(c)), (4, 7.5), "still one class");
        // Its departure makes the component cap-free again.
        e.cancel_flow(c);
        e.settle_rates();
        assert_eq!(e.stats().joiner_resolves, 2);
        assert_eq!(e.flow_rate(FlowId(0)), 10.0);
    }

    #[test]
    fn repeated_hop_route_falls_back_from_the_warm_counts() {
        let mut e = Engine::new();
        let wan = e.add_resource(ResourceSpec::constant(10.0));
        let l1 = e.add_resource(ResourceSpec::constant(100.0));
        let l2 = e.add_resource(ResourceSpec::constant(100.0));
        e.start_flow(FlowSpec::new(50.0, &[wan, l1], Tag(1)));
        e.start_flow(FlowSpec::new(80.0, &[wan, l2], Tag(2)));
        e.settle_rates(); // general solve: wan is the sole bottleneck
        e.start_flow(FlowSpec::new(80.0, &[wan, l2], Tag(3)));
        e.settle_rates();
        let s = e.stats();
        assert_eq!((s.warm_refills, s.joiner_resolves), (1, 1), "a warm multi-resource joiner");
        // Crossing l1 twice still crosses wan once: the re-fill holds, but
        // only the gathered routes can tell.
        let dup = e.start_flow(FlowSpec::new(80.0, &[wan, l1, l1], Tag(4)));
        e.settle_rates();
        let s = e.stats();
        assert_eq!((s.warm_refills, s.joiner_resolves), (2, 1));
        assert_eq!(e.flow_rate(dup), 2.5);
        e.cancel_flow(dup);
        e.start_flow(FlowSpec::new(80.0, &[wan, l1], Tag(5)));
        e.settle_rates();
        let s = e.stats();
        assert_eq!((s.warm_refills, s.joiner_resolves), (3, 2), "no repeated hop left");
        assert_eq!(e.flow_rate(FlowId(0)), 2.5);
    }

    #[test]
    fn dissolved_class_reforms_from_the_counts() {
        let mut e = Engine::new();
        let r = e.add_resource(ResourceSpec::constant(30.0));
        let q = e.add_resource(ResourceSpec::constant(30.0));
        let a = e.start_flow(FlowSpec::new(300.0, &[r], Tag(0xA)));
        e.start_flow(FlowSpec::new(300.0, &[r], Tag(0xB)));
        e.settle_rates();
        // A binding cap dissolves the class: every flow goes solo.
        e.start_flow(FlowSpec::new(50.0, &[r], Tag(0xC)).with_cap(5.0));
        e.settle_rates();
        assert_eq!((e.stats().class_dissolves, clock_bits(&e, r).3), (1, 0));
        // The capped flow leaves at t = 10: the solo flows re-form the
        // class from the counts, both joining.
        assert_eq!(e.next().unwrap().tag(), Tag(0xC));
        e.settle_rates();
        let s = e.stats();
        assert_eq!((s.joiner_resolves, s.class_joins, clock_bits(&e, r).3), (1, 4, 2));
        assert_eq!(e.flow_rate(a), 15.0);
        // A flow across two cached components retires both (their classes
        // dissolve) and the walk re-captures the merged one with fresh
        // counts. Two resources and no sole bottleneck on record: the next
        // joiner goes through the gather.
        e.start_flow(FlowSpec::new(300.0, &[q], Tag(0xD)));
        e.settle_rates();
        e.start_flow(FlowSpec::new(300.0, &[r, q], Tag(0xE)));
        e.settle_rates();
        let s = e.stats();
        assert_eq!((s.class_dissolves, s.memb_cache_builds, s.joiner_resolves), (3, 3, 1));
        let f = e.start_flow(FlowSpec::new(300.0, &[q], Tag(0xF)));
        e.settle_rates();
        let s = e.stats();
        assert_eq!((s.joiner_resolves, s.memb_cache_hits, e.flow_rate(f)), (1, 3, 10.0));
    }

    #[test]
    fn solo_renewal_joins_at_the_next_uniform_resolve() {
        let mut e = Engine::new();
        let r = e.add_resource(ResourceSpec::constant(30.0));
        let k = e.start_flow(FlowSpec::new(1000.0, &[r], Tag(0)).with_cap(5.0));
        e.start_flow(FlowSpec::new(25.0, &[r], Tag(1)));
        let b = e.start_flow(FlowSpec::new(1000.0, &[r], Tag(2)));
        e.settle_rates(); // cap sweep: no class, every flow solo
        assert_eq!(e.next().unwrap().tag(), Tag(1));
        // The renewal inherits its solo twin's rate and keeps its slot's
        // place among the solo flows.
        let a = e.start_flow(FlowSpec::new(25.0, &[r], Tag(1)));
        e.settle_rates();
        let s = e.stats();
        assert_eq!((s.swap_inherits, s.component_solves, e.flow_rate(a)), (1, 1, 12.5));
        // Without the cap, both solo flows join the re-formed class.
        e.cancel_flow(k);
        e.settle_rates();
        let s = e.stats();
        assert_eq!((s.joiner_resolves, s.class_joins, clock_bits(&e, r).3), (1, 2, 2));
        assert_eq!((e.flow_rate(a), e.flow_rate(b)), (15.0, 15.0));
    }

    #[test]
    fn rerate_storm_resolves_from_the_counts() {
        // The kernel bench's storm in small: distinct sizes on one
        // resource, each completion reissued after a latency, so every
        // event re-solves the component with one flow fewer or one more.
        let n = 16;
        let mut e = Engine::new();
        let r = e.add_resource(ResourceSpec::constant(100.0));
        let size = |i: usize| 1.0 + i as f64 / n as f64;
        let mut remaining = vec![3u32; n];
        for i in 0..n {
            e.start_flow(FlowSpec::new(size(i), &[r], Tag(i as u64)));
        }
        while let Some(ev) = e.next() {
            let i = ev.tag().0 as usize;
            if remaining[i] > 0 {
                remaining[i] -= 1;
                e.start_flow(FlowSpec::new(size(i), &[r], Tag(i as u64)).with_latency(1e-3));
            }
        }
        let s = e.stats();
        assert_eq!(s.flow_completions, 4 * n as u64);
        assert!(s.joiner_resolves > 2 * n as u64, "{s:?}");
        // Every cached re-solve with flows left read only its joiners.
        assert_eq!(s.memb_cache_hits - s.joiner_resolves, 1, "{s:?}");
    }
}
