//! Flow-level WAN backend: propagation delay, windowed congestion control,
//! and a FIFO QDisc bottleneck with queueing-delay feedback.
//!
//! This is the minim-style flow-level model recast onto the fluid engine.
//! Each WAN-annotated flow carries a one-way propagation delay `d` and a
//! congestion window `w` (bytes). The shared bottleneck is modelled as an
//! *algebraic* FIFO queue: with bottleneck capacity `C` and the windowed
//! flows' bandwidth-delay product `BDP = 2·C·mean(dᵢ)`, the standing queue
//! is
//!
//! ```text
//! Q = max(0, Σ wᵢ − BDP)        (bytes)
//! q = Q / C                     (queueing delay, seconds)
//! ```
//!
//! and a flow's effective rate cap is its window paced over its RTT,
//! `w / (2d + q)` — the classic window-limited sender. The max–min solver
//! then allocates *under* these caps, so link sharing, cross-traffic from
//! unwindowed flows, and multi-resource routes all still resolve through
//! the engine's component-scoped machinery. Queueing delay feeds back into
//! effective rates purely algebraically: no per-packet events, so the event
//! count stays O(chunks), not O(bytes).
//!
//! ## Congestion control
//!
//! Windows evolve by AIMD at settle instants (the engine's natural clock:
//! every event boundary). With elapsed time `dt` since the flow's last
//! update:
//!
//! * `q > mark_threshold` → multiplicative decrease, `w ← w·(1 − gain/2)`
//!   (the DCTCP-shaped cut; `gain = 1` halves the window), at most one cut
//!   per settle instant;
//! * otherwise → additive increase, `w ← w + additive_increase·dt/rtt`
//!   (one `additive_increase` per RTT of smooth time).
//!
//! Updates are event-driven rather than per-RTT — between events no flow
//! completes and the allocation is constant, so evolving windows there
//! would be unobservable anyway.
//!
//! ## Degeneracy guarantee
//!
//! With `window: None` (unbounded) every flow's effective cap is exactly
//! its static cap and no window ever evolves; with propagation delay 0 no
//! extra latency is added. Under that configuration the model's hooks
//! return the identical floats an engine without the model uses (the
//! static cap, zero extra latency), the engine takes the identical
//! branches (parked renewals, warm refills), and traces are
//! **bit-identical** to max–min. The integration suite pins this across
//! the whole scenario registry.

use crate::ids::ResourceId;

/// Per-flow WAN annotation carried by a [`crate::FlowSpec`]. Inert under
/// max–min; consumed by the flow-level model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WanSpec {
    /// One-way propagation delay of this flow's WAN path, seconds.
    pub delay: f64,
    /// The bottleneck resource whose QDisc this flow queues at (must be on
    /// the flow's route).
    pub bottleneck: ResourceId,
}

/// Counters the flow-level model accumulates; merged into [`crate::Stats`]
/// at read time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelCounters {
    /// WAN-annotated flows registered with the model.
    pub wan_flows: u64,
    /// Multiplicative window decreases applied (congestion signals).
    pub wan_window_cuts: u64,
    /// Additive window increases applied.
    pub wan_window_bumps: u64,
}

/// Parameters of the flow-level WAN model ([`crate::Engine::set_wan_model`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FlowLevelParams {
    /// Initial congestion window, bytes. `None` = unbounded (windowing
    /// disabled — the degenerate configuration).
    pub window: Option<f64>,
    /// Multiplicative-decrease gain in `(0, 2)`: a congestion signal cuts
    /// the window by `gain/2` (1.0 halves it, DCTCP-style fractions cut
    /// less).
    pub gain: f64,
    /// Additive increase, bytes per RTT of uncongested smooth time.
    pub additive_increase: f64,
    /// Queueing delay (seconds) above which the bottleneck marks
    /// congestion.
    pub mark_threshold: f64,
    /// Floor the window never decreases below, bytes.
    pub min_window: f64,
}

impl Default for FlowLevelParams {
    fn default() -> Self {
        Self {
            window: Some(2e6),      // 2 MB initial window
            gain: 1.0,              // classic halving
            additive_increase: 1e5, // 100 kB per RTT
            mark_threshold: 5e-3,   // 5 ms of standing queue
            min_window: 1e4,        // 10 kB floor
        }
    }
}

impl FlowLevelParams {
    /// The degenerate configuration: unbounded window, used with zero
    /// propagation delay it reproduces max–min bit-for-bit.
    pub fn degenerate() -> Self {
        Self { window: None, ..Self::default() }
    }

    /// Panic unless the parameters are valid.
    pub fn validate(&self) {
        if let Some(w) = self.window {
            assert!(w.is_finite() && w > 0.0, "initial window must be positive");
        }
        assert!(self.gain > 0.0 && self.gain < 2.0, "gain must lie in (0, 2), got {}", self.gain);
        assert!(
            self.additive_increase.is_finite() && self.additive_increase >= 0.0,
            "additive increase must be non-negative"
        );
        assert!(
            self.mark_threshold.is_finite() && self.mark_threshold >= 0.0,
            "mark threshold must be non-negative"
        );
        assert!(
            self.min_window.is_finite() && self.min_window > 0.0,
            "min window must be positive"
        );
    }
}

/// Per-bottleneck aggregate state (one per distinct WAN resource; found by
/// linear scan — platforms have a handful of WAN links at most).
#[derive(Debug, Clone)]
struct Btl {
    resource: ResourceId,
    /// Base capacity, bytes/s (captured at first registration).
    cap: f64,
    /// Σ window over windowed flows queued here.
    sum_w: f64,
    /// Σ propagation delay over windowed flows (for the mean in the BDP).
    sum_delay: f64,
    /// Number of windowed flows queued here.
    n_windowed: u32,
}

impl Btl {
    /// Standing queueing delay `q = max(0, Σw − 2·C·mean(d)) / C`, seconds.
    fn queueing_delay(&self) -> f64 {
        if self.n_windowed == 0 || self.cap <= 0.0 {
            return 0.0;
        }
        let mean_d = self.sum_delay / f64::from(self.n_windowed);
        let bdp = 2.0 * self.cap * mean_d;
        (self.sum_w - bdp).max(0.0) / self.cap
    }
}

/// Per-flow WAN state, indexed by engine flow-table slot.
#[derive(Debug, Clone, Copy)]
struct WanFlow {
    delay: f64,
    /// Current congestion window, bytes (`f64::INFINITY` when unbounded).
    window: f64,
    /// Whether windowing is active (false = degenerate, cap passes through).
    windowed: bool,
    /// Index into `btls`.
    btl: u32,
    /// Engine time of the last AIMD step for this flow.
    updated_at: f64,
    /// Index into `active` (for O(1) deregistration).
    pos: u32,
}

/// The flow-level WAN bandwidth model. See the module docs.
#[derive(Debug)]
pub struct FlowLevelWan {
    params: FlowLevelParams,
    /// Slot-indexed per-flow state (model-side, so the engine's hot
    /// 80-byte flow table is untouched).
    entries: Vec<Option<WanFlow>>,
    /// Dense list of registered slots, iterated by AIMD updates.
    active: Vec<u32>,
    btls: Vec<Btl>,
    /// Scratch: per-bottleneck queueing delay snapshot for one update pass.
    q_snapshot: Vec<f64>,
    /// Scratch: per-bottleneck Σ window delta of one update pass.
    w_delta: Vec<f64>,
    /// Last instant windows were evolved (gates one update per instant).
    last_evolve: f64,
    n_windowed: usize,
    counters: ModelCounters,
}

impl FlowLevelWan {
    /// A fresh model with the given parameters.
    pub fn new(params: FlowLevelParams) -> Self {
        params.validate();
        Self {
            params,
            entries: Vec::new(),
            active: Vec::new(),
            btls: Vec::new(),
            q_snapshot: Vec::new(),
            w_delta: Vec::new(),
            last_evolve: 0.0,
            n_windowed: 0,
            counters: ModelCounters::default(),
        }
    }

    /// Whether the flows this model registers are windowed — what
    /// [`is_dynamic`](Self::is_dynamic) will say of a flow not yet started.
    pub(crate) fn is_windowed(&self) -> bool {
        self.params.window.is_some()
    }

    fn btl_index(&mut self, resource: ResourceId, cap: f64) -> u32 {
        if let Some(i) = self.btls.iter().position(|b| b.resource == resource) {
            return i as u32;
        }
        self.btls.push(Btl { resource, cap, sum_w: 0.0, sum_delay: 0.0, n_windowed: 0 });
        (self.btls.len() - 1) as u32
    }

    /// Register a WAN-annotated flow occupying flow-table slot `slot`.
    /// `bottleneck_cap` is the base capacity of its bottleneck resource.
    pub(crate) fn on_start(&mut self, slot: usize, wan: WanSpec, bottleneck_cap: f64, now: f64) {
        debug_assert!(wan.delay >= 0.0, "propagation delay must be non-negative");
        let btl = self.btl_index(wan.bottleneck, bottleneck_cap);
        let windowed = self.params.window.is_some();
        let window = self.params.window.unwrap_or(f64::INFINITY);
        if self.entries.len() <= slot {
            self.entries.resize(slot + 1, None);
        }
        debug_assert!(self.entries[slot].is_none(), "slot registered twice");
        let pos = self.active.len() as u32;
        self.active.push(slot as u32);
        self.entries[slot] =
            Some(WanFlow { delay: wan.delay, window, windowed, btl, updated_at: now, pos });
        if windowed {
            let b = &mut self.btls[btl as usize];
            b.sum_w += window;
            b.sum_delay += wan.delay;
            b.n_windowed += 1;
            self.n_windowed += 1;
        }
        self.counters.wan_flows += 1;
    }

    /// Deregister a flow (completion or cancellation); a no-op for slots
    /// that were never registered.
    pub(crate) fn on_end(&mut self, slot: usize) {
        let Some(e) = self.entries.get_mut(slot).and_then(Option::take) else {
            return;
        };
        if e.windowed {
            let b = &mut self.btls[e.btl as usize];
            b.n_windowed -= 1;
            if b.n_windowed == 0 {
                // Kill accumulated float drift whenever the queue empties.
                b.sum_w = 0.0;
                b.sum_delay = 0.0;
            } else {
                b.sum_w -= e.window;
                b.sum_delay -= e.delay;
            }
            self.n_windowed -= 1;
        }
        let pos = e.pos as usize;
        self.active.swap_remove(pos);
        if pos < self.active.len() {
            let moved = self.active[pos] as usize;
            self.entries[moved].as_mut().expect("active slot registered").pos = pos as u32;
        }
    }

    /// Whether the flow in `slot` has a *dynamic* effective cap. Dynamic
    /// flows are excluded from the identical-signature swap fast path:
    /// their completions are detached and re-solved, never parked.
    #[inline]
    pub(crate) fn is_dynamic(&self, slot: usize) -> bool {
        matches!(self.entries.get(slot), Some(Some(e)) if e.windowed)
    }

    /// The flow's effective rate cap given its static cap `base`
    /// (`f64::INFINITY` = uncapped). Returns `base` exactly for flows the
    /// model does not constrain — the degeneracy guarantee rides on this
    /// being the identical float.
    #[inline]
    pub(crate) fn effective_cap(&self, slot: usize, base: f64) -> f64 {
        match self.entries.get(slot) {
            Some(Some(e)) if e.windowed => {
                let q = self.btls[e.btl as usize].queueing_delay();
                let rtt = 2.0 * e.delay + q;
                if rtt > 0.0 {
                    base.min(e.window / rtt)
                } else {
                    base
                }
            }
            _ => base,
        }
    }

    /// Whether [`update_windows`](Self::update_windows) has work to do
    /// before the settle at time `now`.
    #[inline]
    pub(crate) fn wants_window_update(&self, now: f64) -> bool {
        self.n_windowed > 0 && now > self.last_evolve
    }

    /// Evolve the windows to `now` (AIMD steps); push the slots whose
    /// effective caps changed onto `changed` so the engine can dirty-mark
    /// their routes.
    pub(crate) fn update_windows(&mut self, now: f64, changed: &mut Vec<u32>) {
        if self.n_windowed == 0 || now <= self.last_evolve {
            return;
        }
        self.last_evolve = now;
        // Phase 1: snapshot every bottleneck's queueing delay, so each
        // flow's step sees the same pre-update queue regardless of
        // iteration order.
        self.q_snapshot.clear();
        self.w_delta.clear();
        for b in &self.btls {
            self.q_snapshot.push(b.queueing_delay());
            self.w_delta.push(0.0);
        }
        // Phase 2: per-flow AIMD against the snapshot.
        for i in 0..self.active.len() {
            let slot = self.active[i] as usize;
            let e = self.entries[slot].as_mut().expect("active slot registered");
            if !e.windowed {
                continue;
            }
            let dt = now - e.updated_at;
            e.updated_at = now;
            if dt <= 0.0 {
                continue;
            }
            let q = self.q_snapshot[e.btl as usize];
            let rtt = (2.0 * e.delay + q).max(1e-9);
            let w_new = if q > self.params.mark_threshold {
                (e.window * (1.0 - self.params.gain / 2.0)).max(self.params.min_window)
            } else {
                e.window + self.params.additive_increase * dt / rtt
            };
            if w_new != e.window {
                if w_new < e.window {
                    self.counters.wan_window_cuts += 1;
                } else {
                    self.counters.wan_window_bumps += 1;
                }
                self.w_delta[e.btl as usize] += w_new - e.window;
                e.window = w_new;
                changed.push(slot as u32);
            }
        }
        // Phase 3: fold the window deltas into the bottleneck aggregates.
        for (b, &d) in self.btls.iter_mut().zip(&self.w_delta) {
            if d != 0.0 {
                b.sum_w += d;
            }
        }
    }

    /// Accumulated model counters.
    #[inline]
    pub(crate) fn counters(&self) -> ModelCounters {
        self.counters
    }

    /// Clear all per-run state, keeping allocations.
    pub(crate) fn reset(&mut self) {
        self.entries.clear();
        self.active.clear();
        self.btls.clear();
        self.last_evolve = 0.0;
        self.n_windowed = 0;
        self.counters = ModelCounters::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wan(delay: f64) -> WanSpec {
        WanSpec { delay, bottleneck: ResourceId(0) }
    }

    #[test]
    fn degenerate_params_pass_caps_through() {
        let mut m = FlowLevelWan::new(FlowLevelParams::degenerate());
        m.on_start(0, wan(0.0), 100.0, 0.0);
        assert_eq!(m.effective_cap(0, 42.0), 42.0);
        assert_eq!(m.effective_cap(0, f64::INFINITY), f64::INFINITY);
        assert!(!m.is_dynamic(0));
        assert!(!m.wants_window_update(5.0), "no windowed flows, nothing to evolve");
        assert_eq!(m.counters().wan_flows, 1);
    }

    #[test]
    fn windowed_cap_is_window_over_rtt() {
        // One flow, window 1e6 B, delay 10 ms, capacity 1e9 B/s:
        // BDP = 2*1e9*0.01 = 2e7 > 1e6 => q = 0, cap = 1e6/0.02 = 5e7.
        let params = FlowLevelParams { window: Some(1e6), ..FlowLevelParams::default() };
        let mut m = FlowLevelWan::new(params);
        m.on_start(0, wan(0.01), 1e9, 0.0);
        assert!(m.is_dynamic(0));
        let cap = m.effective_cap(0, f64::INFINITY);
        assert!((cap - 5e7).abs() < 1e-3, "cap {cap}");
    }

    #[test]
    fn standing_queue_feeds_back_into_rtt() {
        // Two flows with zero delay: BDP = 0, so q = (w1+w2)/C and each cap
        // is w / q = w*C/(w1+w2) — the queue paces the aggregate to C.
        let params = FlowLevelParams { window: Some(4e6), ..FlowLevelParams::default() };
        let mut m = FlowLevelWan::new(params);
        m.on_start(0, wan(0.0), 1e8, 0.0);
        m.on_start(1, wan(0.0), 1e8, 0.0);
        let q = 8e6 / 1e8; // 80 ms
        let cap = m.effective_cap(0, f64::INFINITY);
        assert!((cap - 4e6 / q).abs() < 1e-3, "cap {cap}");
        // Both flows together exactly fill the bottleneck.
        assert!((2.0 * cap - 1e8).abs() < 1e-3);
    }

    #[test]
    fn aimd_cuts_under_congestion_and_grows_when_idle() {
        let params = FlowLevelParams {
            window: Some(1e7),
            gain: 1.0,
            additive_increase: 1e5,
            mark_threshold: 5e-3,
            min_window: 1e4,
        };
        let mut m = FlowLevelWan::new(params);
        // Congested: zero delay, so q = 1e7/1e8 = 100 ms > 5 ms threshold.
        m.on_start(0, wan(0.0), 1e8, 0.0);
        assert!(m.wants_window_update(1.0));
        let mut changed = Vec::new();
        m.update_windows(1.0, &mut changed);
        assert_eq!(changed, vec![0]);
        let cap = m.effective_cap(0, f64::INFINITY);
        // Window halved to 5e6; q = 5e6/1e8 = 50 ms; cap = 5e6/0.05 = 1e8.
        assert!((cap - 1e8).abs() < 1e-3, "cap {cap}");
        assert_eq!(m.counters().wan_window_cuts, 1);

        // Uncongested: large delay makes the BDP dwarf the window.
        let mut m2 = FlowLevelWan::new(FlowLevelParams {
            window: Some(1e5),
            additive_increase: 1e5,
            ..FlowLevelParams::default()
        });
        m2.on_start(0, wan(0.05), 1e9, 0.0);
        let before = m2.effective_cap(0, f64::INFINITY);
        let mut changed = Vec::new();
        m2.update_windows(0.1, &mut changed); // one RTT of smooth time
        assert_eq!(changed, vec![0]);
        let after = m2.effective_cap(0, f64::INFINITY);
        assert!(after > before, "window grew: {before} -> {after}");
        assert_eq!(m2.counters().wan_window_bumps, 1);
    }

    #[test]
    fn no_double_update_at_the_same_instant() {
        let params = FlowLevelParams { window: Some(1e7), ..FlowLevelParams::default() };
        let mut m = FlowLevelWan::new(params);
        m.on_start(0, wan(0.0), 1e8, 0.0);
        let mut changed = Vec::new();
        m.update_windows(1.0, &mut changed);
        assert_eq!(changed.len(), 1);
        changed.clear();
        assert!(!m.wants_window_update(1.0));
        m.update_windows(1.0, &mut changed);
        assert!(changed.is_empty(), "same-instant update must be a no-op");
    }

    #[test]
    fn deregistration_empties_the_queue() {
        let params = FlowLevelParams { window: Some(1e6), ..FlowLevelParams::default() };
        let mut m = FlowLevelWan::new(params);
        m.on_start(0, wan(0.0), 1e8, 0.0);
        m.on_start(1, wan(0.0), 1e8, 0.0);
        m.on_end(0);
        // Survivor's q now reflects only its own window.
        let cap = m.effective_cap(1, f64::INFINITY);
        assert!((cap - 1e8).abs() < 1e-3, "cap {cap}");
        m.on_end(1);
        assert!(!m.wants_window_update(9.0));
        // Double-end and never-registered slots are no-ops.
        m.on_end(1);
        m.on_end(17);
    }

    #[test]
    #[should_panic(expected = "gain")]
    fn invalid_gain_rejected() {
        FlowLevelParams { gain: 2.5, ..FlowLevelParams::default() }.validate();
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = FlowLevelWan::new(FlowLevelParams::default());
        m.on_start(0, wan(0.01), 1e8, 0.0);
        m.reset();
        assert_eq!(m.counters(), ModelCounters::default());
        assert!(!m.is_dynamic(0));
        assert_eq!(m.effective_cap(0, 7.0), 7.0);
    }
}
