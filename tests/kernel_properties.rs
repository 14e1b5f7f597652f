//! Property-based tests of the fluid kernel through the public API:
//! max–min fairness invariants, engine conservation laws, and two oracles
//! that share none of the engine's progress bookkeeping (the textbook
//! processor-sharing recurrence; a rate × time integral per flow).

use proptest::prelude::*;

use simcal::des::{
    solve_max_min, Engine, Event, FlowId, FlowInput, FlowSpec, FlowStatus, ResourceId,
    ResourceInput, ResourceSpec, Tag,
};

/// Strategy: a random sharing problem with up to 6 resources and 20 flows.
#[allow(clippy::type_complexity)]
fn sharing_problem() -> impl Strategy<Value = (Vec<f64>, Vec<(Vec<usize>, Option<f64>)>)> {
    (1usize..=6).prop_flat_map(|n_res| {
        let caps = proptest::collection::vec(1.0f64..1000.0, n_res);
        let flows = proptest::collection::vec(
            (
                proptest::collection::btree_set(0..n_res, 0..=n_res.min(3)),
                proptest::option::of(0.5f64..500.0),
            ),
            1..20,
        );
        (caps, flows).prop_map(|(caps, flows)| {
            let flows = flows
                .into_iter()
                .map(|(route, cap)| (route.into_iter().collect::<Vec<_>>(), cap))
                .collect();
            (caps, flows)
        })
    })
}

fn solve(caps: &[f64], flows: &[(Vec<usize>, Option<f64>)]) -> Vec<f64> {
    let rs: Vec<ResourceInput> = caps.iter().map(|&c| ResourceInput { capacity: c }).collect();
    let fs: Vec<FlowInput> =
        flows.iter().map(|(route, cap)| FlowInput { route: route.clone(), cap: *cap }).collect();
    let mut rates = Vec::new();
    solve_max_min(&rs, &fs, &mut rates);
    rates
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Feasibility: no resource is oversubscribed, no cap is violated,
    /// and all rates are non-negative.
    #[test]
    fn max_min_allocation_is_feasible((caps, flows) in sharing_problem()) {
        let rates = solve(&caps, &flows);
        prop_assert_eq!(rates.len(), flows.len());
        for (r, &cap) in caps.iter().enumerate() {
            let used: f64 = flows
                .iter()
                .zip(&rates)
                .map(|((route, _), &rate)| route.iter().filter(|&&x| x == r).count() as f64 * rate)
                .sum();
            prop_assert!(used <= cap * (1.0 + 1e-6) + 1e-6, "resource {} oversubscribed", r);
        }
        for ((_, cap), &rate) in flows.iter().zip(&rates) {
            prop_assert!(rate >= 0.0);
            if let Some(c) = cap {
                prop_assert!(rate <= c * (1.0 + 1e-9));
            }
        }
    }

    /// Every flow is bottlenecked: it runs at its cap, at the solver's
    /// unconstrained maximum, or crosses at least one saturated resource.
    #[test]
    fn every_flow_has_a_bottleneck((caps, flows) in sharing_problem()) {
        let rates = solve(&caps, &flows);
        let used: Vec<f64> = (0..caps.len())
            .map(|r| {
                flows
                    .iter()
                    .zip(&rates)
                    .map(|((route, _), &rate)| {
                        route.iter().filter(|&&x| x == r).count() as f64 * rate
                    })
                    .sum()
            })
            .collect();
        for ((route, cap), &rate) in flows.iter().zip(&rates) {
            let at_cap = cap.map(|c| rate >= c * (1.0 - 1e-9)).unwrap_or(false);
            let unconstrained = route.is_empty();
            let saturated = route
                .iter()
                .any(|&r| used[r] >= caps[r] * (1.0 - 1e-6));
            prop_assert!(
                at_cap || unconstrained || saturated,
                "flow with rate {} has no bottleneck",
                rate
            );
        }
    }

    /// Pareto efficiency on a single resource: uncapped flows saturate it.
    #[test]
    fn single_resource_is_work_conserving(
        cap in 1.0f64..1000.0,
        n_flows in 1usize..20,
    ) {
        let flows: Vec<(Vec<usize>, Option<f64>)> =
            (0..n_flows).map(|_| (vec![0], None)).collect();
        let rates = solve(&[cap], &flows);
        let used: f64 = rates.iter().sum();
        prop_assert!((used - cap).abs() < 1e-6 * cap);
        // And fairness: all equal.
        for &r in &rates {
            prop_assert!((r - cap / n_flows as f64).abs() < 1e-6 * cap);
        }
    }

    /// Engine conservation: total service time for sequential flows on one
    /// resource equals total demand / capacity regardless of arrival mix.
    #[test]
    fn engine_conserves_work(
        demands in proptest::collection::vec(1.0f64..100.0, 1..12),
        cap in 1.0f64..50.0,
    ) {
        let mut engine = Engine::new();
        let r = engine.add_resource(ResourceSpec::constant(cap));
        for (i, &d) in demands.iter().enumerate() {
            engine.start_flow(FlowSpec::new(d, &[r], Tag(i as u64)));
        }
        let end = engine.drain();
        let expected = demands.iter().sum::<f64>() / cap;
        prop_assert!((end - expected).abs() < 1e-6 * expected.max(1.0),
            "end {} vs expected {}", end, expected);
    }

    /// Engine monotonicity: events are delivered at non-decreasing times.
    #[test]
    fn engine_time_is_monotone(
        demands in proptest::collection::vec(1.0f64..100.0, 1..10),
        latencies in proptest::collection::vec(0.0f64..5.0, 1..10),
    ) {
        let mut engine = Engine::new();
        let r = engine.add_resource(ResourceSpec::constant(10.0));
        for (i, (&d, &l)) in demands.iter().zip(&latencies).enumerate() {
            engine.start_flow(FlowSpec::new(d, &[r], Tag(i as u64)).with_latency(l));
        }
        let mut last = 0.0;
        while engine.next().is_some() {
            prop_assert!(engine.now() >= last - 1e-12);
            last = engine.now();
        }
    }
}

/// Egalitarian processor sharing on one server of capacity `c`, stepped
/// from one population change to the next on plain per-job remaining work:
/// `jobs` are `(arrival, size)`, `cancel` is `(time, job)`. Returns each
/// job's completion time (`None` for the cancelled one).
fn ps_oracle(c: f64, jobs: &[(f64, f64)], cancel: Option<(f64, usize)>) -> Vec<Option<f64>> {
    let mut left: Vec<Option<f64>> = vec![None; jobs.len()]; // Some = present
    let mut done = vec![None; jobs.len()];
    let mut cancel = cancel;
    let mut arrived = vec![false; jobs.len()];
    let mut now = 0.0;
    loop {
        for (j, &(at, size)) in jobs.iter().enumerate() {
            if !arrived[j] && at <= now {
                arrived[j] = true;
                left[j] = Some(size);
            }
        }
        if let Some((at, j)) = cancel.filter(|&(at, _)| at <= now) {
            assert!(at == now && left[j].is_some(), "the cancel hits a present job");
            left[j] = None;
            cancel = None;
        }
        let n = left.iter().flatten().count() as f64;
        let next_change = jobs
            .iter()
            .enumerate()
            .filter(|&(j, _)| !arrived[j])
            .map(|(_, &(at, _))| at)
            .chain(cancel.map(|(at, _)| at))
            .fold(f64::INFINITY, f64::min);
        let first = (0..jobs.len())
            .filter(|&j| left[j].is_some())
            .min_by(|&a, &b| left[a].partial_cmp(&left[b]).expect("sizes are finite"));
        let t_done = first.map_or(f64::INFINITY, |j| now + left[j].expect("present") * n / c);
        if t_done.is_infinite() && next_change.is_infinite() {
            return done;
        }
        let t = t_done.min(next_change);
        for rem in left.iter_mut().flatten() {
            *rem -= (t - now) * c / n;
        }
        now = t;
        if t_done <= next_change {
            let j = first.expect("a finite completion has a job");
            left[j] = None;
            done[j] = Some(t);
        }
    }
}

/// Drive `jobs` (and the cancel) through the engine on one constant
/// resource, one user timer per instant the population changes (a cancel
/// and an arrival at the same instant reach the engine back to back, with
/// no settle between them); returns each job's completion time.
fn ps_engine(c: f64, jobs: &[(f64, f64)], cancel: Option<(f64, usize)>) -> Vec<Option<f64>> {
    let mut e = Engine::new();
    let r = e.add_resource(ResourceSpec::constant(c));
    let mut instants: Vec<f64> = jobs.iter().map(|j| j.0).chain(cancel.map(|c| c.0)).collect();
    instants.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    instants.dedup();
    for (k, &at) in instants.iter().enumerate() {
        e.set_timer(at, Tag((jobs.len() + k) as u64));
    }
    let mut ids: Vec<Option<FlowId>> = vec![None; jobs.len()];
    let mut done = vec![None; jobs.len()];
    while let Some(ev) = e.next() {
        match ev {
            Event::FlowCompleted { tag, .. } => done[tag.0 as usize] = Some(e.now()),
            Event::TimerFired { tag, .. } => {
                let at = instants[tag.0 as usize - jobs.len()];
                if let Some((_, j)) = cancel.filter(|c| c.0 == at) {
                    e.cancel_flow(ids[j].expect("the cancelled job has started"));
                }
                for (j, job) in jobs.iter().enumerate().filter(|(_, job)| job.0 == at) {
                    ids[j] = Some(e.start_flow(FlowSpec::new(job.1, &[r], Tag(j as u64))));
                }
            }
        }
    }
    done
}

fn assert_times_match(got: &[Option<f64>], want: &[Option<f64>]) {
    assert_eq!(got.len(), want.len());
    for (j, (g, w)) in got.iter().zip(want).enumerate() {
        match (g, w) {
            (Some(g), Some(w)) => assert!((g - w).abs() <= 1e-9 * w, "job {j}: {g} vs {w}"),
            (None, None) => {}
            _ => panic!("job {j}: engine {g:?}, oracle {w:?}"),
        }
    }
}

/// N distinct-sized uncapped flows on one constant resource: completion k
/// lands at `T_k = T_{k-1} + (s_k - s_{k-1}) (N - k + 1) / C`.
#[test]
fn processor_sharing_matches_the_closed_form() {
    let (n, c) = (24usize, 37.5);
    // Distinct sizes, started in a scrambled order.
    let sizes: Vec<f64> = (0..n).map(|i| 10.0 + ((i * 7) % n) as f64 * 3.25).collect();
    let jobs: Vec<(f64, f64)> = sizes.iter().map(|&s| (0.0, s)).collect();
    let got = ps_engine(c, &jobs, None);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| sizes[a].partial_cmp(&sizes[b]).expect("finite"));
    let (mut t, mut prev) = (0.0, 0.0);
    for (k, &j) in order.iter().enumerate() {
        t += (sizes[j] - prev) * (n - k) as f64 / c;
        prev = sizes[j];
        let g = got[j].expect("every job completes");
        assert!((g - t).abs() <= 1e-9 * t, "completion {k} (job {j}): {g} vs {t}");
    }
    assert_times_match(&got, &ps_oracle(c, &jobs, None));
}

/// The same population with a mid-run arrival and a mid-run cancel,
/// against the stepped oracle.
#[test]
fn processor_sharing_survives_an_arrival_and_a_cancel() {
    let (n, c) = (16usize, 20.0);
    let mut jobs: Vec<(f64, f64)> =
        (0..n).map(|i| (0.0, 8.0 + ((i * 5) % n) as f64 * 2.5)).collect();
    jobs.push((6.125, 19.0)); // arrives while all but the smallest few still run
    jobs.push((9.75, 11.0)); // arrives the instant of the cancel: the share stands
    for cancel in [None, Some((9.75, 3usize)), Some((9.75, n))] {
        let got = ps_engine(c, &jobs, cancel);
        assert_times_match(&got, &ps_oracle(c, &jobs, cancel));
        assert_eq!(got.iter().flatten().count(), jobs.len() - usize::from(cancel.is_some()));
    }
}

/// One step of a random engine schedule: `(op, a, b)`.
fn schedule() -> impl Strategy<Value = (Vec<f64>, Vec<(u32, u32, u32)>)> {
    (
        proptest::collection::vec(20.0f64..200.0, 4),
        proptest::collection::vec((0u32..6, 0u32..64, 0u32..16), 1..160),
    )
}

/// The flow step `(a, b)` of a schedule starts on `res`: shared and
/// disjoint resources, a bridging route that merges two components, caps
/// sized to bind only while few flows share (so classes dissolve and
/// re-form as the population moves), and latency starts.
fn scheduled_flow(res: &[ResourceId], caps: &[f64], a: u32, b: u32, tag: u64) -> FlowSpec {
    let route: &[ResourceId] = match a % 6 {
        0 | 1 => &res[0..1],
        2 => &res[1..2],
        3 => &res[0..2], // bridges the first two
        4 => &res[2..3],
        _ => &res[2..4],
    };
    let mut spec = FlowSpec::new(f64::from(b + 1) * 6.5, route, Tag(tag));
    if a.is_multiple_of(5) {
        spec = spec.with_cap(caps[a as usize % 4] / 3.5);
    }
    if a % 4 == 1 {
        spec = spec.with_latency(f64::from(b % 3 + 1) * 0.125);
    }
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Work conservation, per flow: integrate `flow_rate x dt` over every
    /// gap in which rates are constant (event to event, internal
    /// activations included). `flow_remaining` equals the demand minus the
    /// integral at every step, and the integral equals the demand when
    /// the flow completes.
    #[test]
    fn rates_integrate_to_demands((caps, steps) in schedule()) {
        let mut e = Engine::new();
        let res: Vec<ResourceId> =
            caps.iter().map(|&c| e.add_resource(ResourceSpec::constant(c))).collect();
        // (id, demand, integral) of every flow started and not yet retired.
        let mut live: Vec<(FlowId, f64, f64)> = Vec::new();
        let check = |e: &Engine, live: &[(FlowId, f64, f64)], at: &str| {
            for &(id, demand, served) in live {
                let left = e.flow_remaining(id);
                prop_assert!(
                    (left - (demand - served)).abs() <= 1e-9 * demand,
                    "{}: flow {:?} remaining {} vs {} - {}", at, id, left, demand, served
                );
            }
            Ok(())
        };
        // Advance to the engine's next instant (an event or an internal
        // activation), integrating the settled rates over the gap.
        let step = |e: &mut Engine, live: &mut Vec<(FlowId, f64, f64)>| {
            let Some(t) = e.peek_time() else { return Ok(false) };
            let dt = t - e.now();
            for f in live.iter_mut() {
                f.2 += e.flow_rate(f.0) * dt;
            }
            e.advance_clock(t);
            check(e, live, "after the gap")?;
            if let Some(Event::FlowCompleted { flow, .. }) = e.next_before(t.next_up()) {
                let k = live.iter().position(|f| f.0 == flow).expect("a live flow completed");
                let (_, demand, served) = live.swap_remove(k);
                prop_assert!(
                    (served - demand).abs() <= 1e-9 * demand,
                    "flow {:?} completed having been served {} of {}", flow, served, demand
                );
            }
            Ok(true)
        };
        for (i, &(op, a, b)) in steps.iter().enumerate() {
            match op {
                0..=2 => {
                    let spec = scheduled_flow(&res, &caps, a, b, i as u64);
                    let demand = spec.demand;
                    live.push((e.start_flow(spec), demand, 0.0));
                }
                3 if !live.is_empty() => {
                    // A completion already batched at this instant stands:
                    // its event is still to come.
                    let k = a as usize % live.len();
                    if e.flow_status(live[k].0) != FlowStatus::Completed {
                        e.cancel_flow(live.swap_remove(k).0);
                    }
                }
                _ => {
                    step(&mut e, &mut live)?;
                }
            }
            // Not after every step, so that one settle also sees several
            // changes at once (a cancel and a start can leave a share as
            // it was).
            if a % 3 != 0 {
                e.settle_rates();
            }
            check(&e, &live, "after the step")?;
        }
        while step(&mut e, &mut live)? {}
        prop_assert!(live.is_empty(), "{} flows never completed", live.len());
    }

    /// Redundant settles, peeks and clock advances move no state: the same
    /// schedule — arrivals at fixed instants, cancels tied to the
    /// completion count — delivers bit-identical `(time, flow)`
    /// completions whether the arrivals ride user timers, or they are
    /// injected with `advance_clock` (as the multi-site driver does) with
    /// further `settle_rates()`, `peek_time()` and `advance_clock(peek)`
    /// calls sprinkled between the operations. Both runs settle after
    /// every arrival and cancel, as the multi-site driver's loop does by
    /// peeking between messages: a settle *between* two
    /// same-instant changes is itself a change (it can form or dissolve a
    /// class on the intermediate population), only a repeated one is not.
    #[test]
    fn sprinkled_settles_and_clock_advances_change_nothing(
        (caps, steps) in schedule(),
        sprinkle in proptest::collection::vec(0u32..8, 64),
    ) {
        // Arrival instants on a coarse grid, in schedule order; cancels
        // keyed to the number of completions delivered so far.
        let mut arrivals: Vec<(f64, u32, u32)> = Vec::new();
        let mut cancels: Vec<(usize, u32)> = Vec::new();
        for &(op, a, b) in &steps {
            match op {
                0..=3 => arrivals.push((f64::from(arrivals.len() as u32 / 3) * 0.375, a, b)),
                _ => cancels.push((arrivals.len(), a)),
            }
        }
        let run = |sprinkle: Option<&[u32]>| {
            let mut e = Engine::new();
            let res: Vec<ResourceId> =
                caps.iter().map(|&c| e.add_resource(ResourceSpec::constant(c))).collect();
            let mut started: Vec<FlowId> = Vec::new();
            let mut log: Vec<(u64, FlowId)> = Vec::new();
            let mut calls = 0usize;
            let mut bits = |mask: u32| {
                calls += 1;
                sprinkle.is_some_and(|s| s[calls % s.len()] & mask != 0)
            };
            if sprinkle.is_none() {
                for (i, &(at, ..)) in arrivals.iter().enumerate() {
                    e.set_timer(at, Tag(i as u64));
                }
            }
            let mut next_arrival = 0usize;
            loop {
                let arrive = |e: &mut Engine, started: &mut Vec<FlowId>, i: usize| {
                    let (_, a, b) = arrivals[i];
                    started.push(e.start_flow(scheduled_flow(&res, &caps, a, b, 1000 + i as u64)));
                };
                // The injecting run delivers only what precedes its next
                // arrival (an arrival goes before a same-instant event, as
                // its timer would).
                let mut bound = f64::INFINITY;
                if sprinkle.is_some() {
                    let peek = e.peek_time();
                    if let Some(&(at, ..)) = arrivals.get(next_arrival) {
                        if peek.is_none_or(|p| at <= p) {
                            e.advance_clock(at);
                            arrive(&mut e, &mut started, next_arrival);
                            next_arrival += 1;
                            e.settle_rates();
                            if bits(1) {
                                e.settle_rates();
                            }
                            continue;
                        }
                        bound = at;
                    }
                    if let Some(p) = peek.filter(|&p| p < bound && bits(2)) {
                        e.advance_clock(p);
                    }
                    if bits(4) {
                        e.peek_time();
                    }
                }
                match e.next_before(bound) {
                    // Only internal activations preceded the arrival.
                    None if bound.is_finite() => {}
                    None => break,
                    Some(Event::TimerFired { tag, .. }) => {
                        arrive(&mut e, &mut started, tag.0 as usize);
                        e.settle_rates();
                    }
                    Some(Event::FlowCompleted { flow, .. }) => {
                        log.push((e.now().to_bits(), flow));
                        for &(_, a) in cancels.iter().filter(|c| c.0 == log.len()) {
                            if !started.is_empty() {
                                e.cancel_flow(started[a as usize % started.len()]);
                                e.settle_rates();
                                if bits(1) {
                                    e.settle_rates();
                                }
                            }
                        }
                    }
                }
            }
            log
        };
        let plain = run(None);
        prop_assert_eq!(run(Some(&sprinkle)), plain);
    }
}
