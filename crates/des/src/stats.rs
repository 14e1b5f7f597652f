//! Engine statistics.
//!
//! The event counters are load-bearing for the reproduction: the paper's
//! speed/accuracy trade-off (Table VI) rests on the simulated event count
//! scaling as O(s/B + s/b) with the block size `B` and buffer size `b`.
//! Integration tests assert that scaling against these counters.

/// Counters accumulated by an [`crate::Engine`] over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Flow-completion events delivered to the caller.
    pub flow_completions: u64,
    /// User timer events delivered to the caller.
    pub timer_firings: u64,
    /// Flows started (including pending ones).
    pub flows_started: u64,
    /// Flows cancelled before completion.
    pub flows_cancelled: u64,
    /// Rate-settling passes (each may solve several dirty components).
    pub rate_recomputes: u64,
    /// Component-scoped max–min solves (one per dirty connected component
    /// per settling pass).
    pub component_solves: u64,
    /// Component solves whose component spanned *every* active routed
    /// flow — i.e. solves that were effectively global. A healthy
    /// incremental workload keeps this far below `component_solves`.
    pub full_solves: u64,
    /// Route-less flows assigned their cap rate in O(1), bypassing the
    /// solver entirely.
    pub routeless_assigns: u64,
    /// Identical-signature swap fast paths taken: a flow started right
    /// after an identically-shaped completion renewed its parked slot and
    /// inherited its rate, with no solve at all (the steady state of
    /// pipelined chunk streams).
    pub swap_inherits: u64,
    /// Cumulative component populations across all component solves — the
    /// flows a gather would collect — whichever path answered (a
    /// global-recompute engine would accumulate live-flows x events here).
    /// A solve in `joiner_resolves` counts its population without reading
    /// it; re-rating it is `class_rerates` + `event_rekeys`.
    pub flows_resolved: u64,
    /// Resources registered.
    pub resources: u64,
    /// Same-timestamp completion batches (two or more completions sharing
    /// an instant) drained and settled together — one settle pass and at
    /// most one solve per touched component instead of one per event.
    pub batched_settles: u64,
    /// Completions delivered out of such batches (including the first of
    /// each batch).
    pub batched_completions: u64,
    /// Pending-flow activations gulped together with an earlier activation
    /// at the same instant, sharing its settle pass.
    pub batched_activations: u64,
    /// Parked completions no start renewed: detached for real (dirty
    /// marks, slot freed) when the next settle began.
    /// `swap_inherits / (swap_inherits + parked_expired)` is the share of
    /// parked completions that were renewed.
    pub parked_expired: u64,
    /// Fully-renewed batches: the last parked completion of a batch was
    /// renewed with nothing marked dirty, so the settle that followed had
    /// no component to solve (unless the caller went on to start or cancel
    /// a routed flow at the same instant).
    pub clean_batch_settles: u64,
    /// Component solves answered by the warm-start re-fill: the previous
    /// solve's sole bottleneck still dominates, so rates are re-filled
    /// uniformly in one verified pass with no progressive filling.
    pub warm_refills: u64,
    /// Component solves answered by a closed form (single resource with or
    /// without caps, two uncapped resources) instead of the general solver.
    pub closed_form_solves: u64,
    /// Uniform re-solves of a cached component answered from its counts
    /// alone (cap-free, and one resource or no repeated hop): the share is
    /// computed and only the solo flows join, no member read and no
    /// incidence list gathered. A subset of `closed_form_solves` +
    /// `warm_refills`.
    pub joiner_resolves: u64,
    /// Component solves whose membership came from the incremental
    /// component-membership cache — the `collect_component` BFS (route
    /// chasing and resource discovery) was skipped, and only the member
    /// resources' incidence lists were gathered.
    pub memb_cache_hits: u64,
    /// Membership-cache captures: BFS walks whose resource set was stored
    /// for subsequent solves of the same (stable) component.
    pub memb_cache_builds: u64,
    /// Entries inserted into the event queues: a completion entry for a
    /// solo flow that held none (its first rate, or its first positive
    /// one after a zero), a class's entry (filed for a class that held
    /// none, or under its next member when its earliest is delivered), plus
    /// every timer scheduled. Joining a class's member heap is
    /// `class_joins`, not a push.
    pub event_pushes: u64,
    /// Entries popped off the event queues: one per delivered completion
    /// (a solo flow's entry or its class's — every one is live) plus timer
    /// entries, stale ones included.
    pub event_pops: u64,
    /// Completion entries moved in place: a solo flow's because its rate
    /// changed, a class's because the class's share did — one move
    /// however many members the class has.
    pub event_rekeys: u64,
    /// Cancelled timer entries skimmed off on pop. Timer-only: a
    /// cancelled flow's completion entry is removed on the spot.
    pub event_stale_drops: u64,
    /// Uniform re-solves answered by an O(1) component-clock update: the
    /// class's virtual time was advanced and its share replaced, and no
    /// member was touched.
    pub class_rerates: u64,
    /// Flows that became members of a component class (a uniform solve
    /// reached them, or they inherited a member twin's place).
    pub class_joins: u64,
    /// Classes handed back to per-flow entries: a solve outcome the class
    /// cannot represent (a binding cap, two shares, the general solver) or
    /// a retired cached membership.
    pub class_dissolves: u64,
    /// WAN-annotated flows registered with the flow-level WAN model (zero
    /// under the default max–min).
    pub wan_flows: u64,
    /// Multiplicative congestion-window decreases applied by a flow-level
    /// WAN model (congestion signals observed).
    pub wan_window_cuts: u64,
    /// Additive congestion-window increases applied by a flow-level WAN
    /// model.
    pub wan_window_bumps: u64,
}

impl Stats {
    /// Total events delivered to the caller.
    pub fn events(&self) -> u64 {
        self.flow_completions + self.timer_firings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_sums_completions_and_timers() {
        let s = Stats { flow_completions: 3, timer_firings: 4, ..Stats::default() };
        assert_eq!(s.events(), 7);
    }
}
