//! Differential oracle for the incremental component-scoped rate solver.
//!
//! The engine recomputes max–min rates per dirty connected component; a
//! correct implementation is indistinguishable from re-solving the whole
//! allocation globally after every change. This test drives randomized
//! flow/resource topologies through the engine — starts (with latencies,
//! caps, duplicate route entries, empty routes, zero demands), bursts of
//! identical flows that complete in same-timestamp batches, completions,
//! whole batches reacted to with no settle in between (while the batch's
//! completions sit parked in the engine's incidence index), and
//! cancellations — and after every step compares every active flow's
//! rate against a fresh **global** `solve_max_min` over the full live
//! set. `solve_max_min` is an independently-written reference
//! implementation (one constraint frozen per round), so the engine's
//! batched settling, swap inheritance, warm re-fills, and closed-form
//! component solves are all checked against code sharing none of their
//! structure.
//!
//! Well over 1000 randomized cases run per invocation.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use simcal::des::{
    solve_max_min, Engine, FlowId, FlowInput, FlowSpec, FlowStatus, ResourceId, ResourceInput,
    ResourceSpec, Tag,
};

/// The flow id carried by an event (completions only in these scenarios).
fn ev_flow_id(ev: &simcal::des::Event) -> FlowId {
    match *ev {
        simcal::des::Event::FlowCompleted { flow, .. } => flow,
        simcal::des::Event::TimerFired { .. } => unreachable!("no user timers in this test"),
    }
}

/// Test-side record of a started flow (the oracle's view of the topology).
struct FlowRecord {
    id: FlowId,
    /// Route as indices into the test's resource table.
    route: Vec<usize>,
    cap: Option<f64>,
}

/// Global max–min oracle over all currently-active flows, reproducing the
/// engine's effective-capacity computation (per-resource active flow
/// counts, duplicates included).
fn oracle_rates(
    engine: &Engine,
    specs: &[ResourceSpec],
    flows: &[FlowRecord],
) -> Vec<(FlowId, f64)> {
    let active: Vec<&FlowRecord> =
        flows.iter().filter(|f| engine.flow_status(f.id) == FlowStatus::Active).collect();
    let mut counts = vec![0usize; specs.len()];
    for f in &active {
        for &r in &f.route {
            counts[r] += 1;
        }
    }
    let resources: Vec<ResourceInput> = specs
        .iter()
        .zip(&counts)
        .map(|(s, &n)| ResourceInput { capacity: s.capacity.effective(n) })
        .collect();
    let inputs: Vec<FlowInput> =
        active.iter().map(|f| FlowInput { route: f.route.clone(), cap: f.cap }).collect();
    let mut rates = Vec::new();
    solve_max_min(&resources, &inputs, &mut rates);
    active.into_iter().map(|f| f.id).zip(rates).collect()
}

fn assert_rates_match(
    engine: &Engine,
    specs: &[ResourceSpec],
    flows: &[FlowRecord],
    context: &str,
) {
    for (id, expected) in oracle_rates(engine, specs, flows) {
        let got = engine.flow_rate(id);
        let tol = 1e-9 * expected.abs().max(1.0);
        assert!(
            (got - expected).abs() <= tol,
            "{context}: flow {id:?} rate {got} != oracle {expected}"
        );
    }
}

/// What the randomized cases did inside the window the whole-batch op
/// exists for — after a delivery with more of its batch still pending.
#[derive(Default)]
struct Coverage {
    mid_batch_reactions: u64,
    renewed: u64,
    expired: u64,
}

/// One reaction to a delivered completion of `done` (an index into
/// `flows`), with no settle: reissue the twin, start a flow of another
/// signature on the same resources, start a latent flow, cancel a flow
/// started earlier in this batch (or any flow, a completed batch-mate
/// included: a no-op), or do nothing.
fn react_mid_batch(
    engine: &mut Engine,
    rng: &mut StdRng,
    res_ids: &[ResourceId],
    flows: &mut Vec<FlowRecord>,
    done: usize,
    batch_start: usize,
    tag: Tag,
) {
    let mut route = flows[done].route.clone();
    let mut cap = flows[done].cap;
    let mut latency = None;
    match rng.random_range(0..6u32) {
        0 | 1 => {} // the twin
        2 => match rng.random_range(0..3u32) {
            1 if !res_ids.is_empty() => route.push(rng.random_range(0..res_ids.len())),
            2 if !route.is_empty() => route.push(route[0]), // a duplicate hop
            _ => cap = Some(rng.random_range(0.5..500.0f64)),
        },
        3 => latency = Some(rng.random_range(0.0..2.0f64)),
        4 => {
            let lo = if batch_start < flows.len() && rng.random::<f64>() < 0.7 {
                batch_start
            } else {
                0
            };
            engine.cancel_flow(flows[rng.random_range(lo..flows.len())].id);
            return;
        }
        _ => return,
    }
    let demand = if rng.random::<f64>() < 0.1 { 0.0 } else { rng.random_range(1.0..200.0f64) };
    let ids: Vec<ResourceId> = route.iter().map(|&r| res_ids[r]).collect();
    let mut spec = FlowSpec::new(demand, &ids, tag);
    if let Some(c) = cap {
        spec = spec.with_cap(c);
    }
    if let Some(l) = latency {
        spec = spec.with_latency(l);
    }
    let id = engine.start_flow(spec);
    flows.push(FlowRecord { id, route, cap });
}

fn check_case(case: u64, rng: &mut StdRng, cov: &mut Coverage) {
    let mut engine = Engine::new();
    let n_res = rng.random_range(0..6usize);
    let mut specs: Vec<ResourceSpec> = Vec::new();
    let mut res_ids: Vec<ResourceId> = Vec::new();
    for _ in 0..n_res {
        let cap = rng.random_range(1.0..1000.0f64);
        let spec = if rng.random::<f64>() < 0.3 {
            ResourceSpec::degrading(cap, rng.random_range(0.0..2.0f64))
        } else {
            ResourceSpec::constant(cap)
        };
        res_ids.push(engine.add_resource(spec));
        specs.push(spec);
    }

    let mut flows: Vec<FlowRecord> = Vec::new();
    let n_ops = rng.random_range(4..40usize);
    for op in 0..n_ops {
        let roll: f64 = rng.random();
        if roll < 0.4 || flows.is_empty() {
            // Start a flow: random route (possibly empty, possibly with a
            // duplicated resource), optional cap, optional latency.
            let route_len = if n_res == 0 { 0 } else { rng.random_range(0..=n_res.min(3)) };
            let mut route: Vec<usize> =
                (0..route_len).map(|_| rng.random_range(0..n_res)).collect();
            if route.len() > 1 && rng.random::<f64>() < 0.15 {
                route[1] = route[0]; // duplicate entry: consumes two shares
            }
            let cap = if rng.random::<f64>() < 0.4 {
                Some(rng.random_range(0.5..500.0f64))
            } else {
                None
            };
            let demand =
                if rng.random::<f64>() < 0.1 { 0.0 } else { rng.random_range(1.0..500.0f64) };
            let ids: Vec<ResourceId> = route.iter().map(|&r| res_ids[r]).collect();
            let mut spec = FlowSpec::new(demand, &ids, Tag(op as u64));
            if let Some(c) = cap {
                spec = spec.with_cap(c);
            }
            if rng.random::<f64>() < 0.25 {
                spec = spec.with_latency(rng.random_range(0.0..3.0f64));
            }
            let id = engine.start_flow(spec);
            flows.push(FlowRecord { id, route, cap });
        } else if roll < 0.55 && n_res > 0 {
            // A burst of identical flows on one resource: equal signatures
            // mean equal rates forever, so they complete in a
            // same-timestamp batch (zero demands batch at the current
            // instant). This exercises batch-pop, batched settling, and
            // the multi-candidate swap list against the oracle.
            let r = rng.random_range(0..n_res);
            let m = rng.random_range(2..=4usize);
            let demand =
                if rng.random::<f64>() < 0.2 { 0.0 } else { rng.random_range(1.0..100.0f64) };
            let cap =
                if rng.random::<f64>() < 0.3 { Some(rng.random_range(0.5..50.0f64)) } else { None };
            for j in 0..m {
                let mut spec =
                    FlowSpec::new(demand, &[res_ids[r]], Tag(5000 + (op * 10 + j) as u64));
                if let Some(c) = cap {
                    spec = spec.with_cap(c);
                }
                let id = engine.start_flow(spec);
                flows.push(FlowRecord { id, route: vec![r], cap });
            }
        } else if roll < 0.75 {
            // Advance one event; after a completion, sometimes immediately
            // reissue an identically-shaped flow (the pipelined steady
            // state), exercising the swap fast path against the oracle.
            if let Some(ev) = engine.next() {
                let completed = flows.iter().position(|f| {
                    engine.flow_status(f.id) == FlowStatus::Completed && f.id == ev_flow_id(&ev)
                });
                if let Some(i) = completed {
                    if rng.random::<f64>() < 0.4 {
                        let route = flows[i].route.clone();
                        let cap = flows[i].cap;
                        let ids: Vec<ResourceId> = route.iter().map(|&r| res_ids[r]).collect();
                        let mut spec = FlowSpec::new(
                            rng.random_range(1.0..200.0f64),
                            &ids,
                            Tag(1000 + op as u64),
                        );
                        if let Some(c) = cap {
                            spec = spec.with_cap(c);
                        }
                        let id = engine.start_flow(spec);
                        flows.push(FlowRecord { id, route, cap });
                    }
                }
            }
        } else if roll < 0.88 {
            // A whole batch: deliver every event of the next instant and
            // react to each with no settle in between, so that starts and
            // cancels land while the rest of the batch is still parked.
            // (`peek_time` settles only once the batch is drained; a
            // zero-demand reaction then opens a further batch at the same
            // instant, which the loop takes too.)
            let batch_start = flows.len();
            let mut delivered = 0u64;
            while let Some(ev) = engine.next() {
                let id = ev_flow_id(&ev);
                let done = flows.iter().position(|f| f.id == id).expect("a started flow");
                assert_eq!(engine.flow_status(id), FlowStatus::Completed);
                let pending = engine.peek_time() == Some(engine.now());
                for _ in 0..rng.random_range(1..=2u32) {
                    cov.mid_batch_reactions += u64::from(pending);
                    let tag = Tag(9000 + (op as u64) * 100 + delivered);
                    react_mid_batch(&mut engine, rng, &res_ids, &mut flows, done, batch_start, tag);
                }
                delivered += 1;
                if delivered == 24 || engine.peek_time() != Some(engine.now()) {
                    break;
                }
            }
        } else {
            // Cancel a random flow (possibly already finished: no-op).
            let i = rng.random_range(0..flows.len());
            engine.cancel_flow(flows[i].id);
        }

        // Differential check: settled incremental rates == global solve.
        engine.settle_rates();
        assert_rates_match(&engine, &specs, &flows, &format!("case {case} op {op}"));
    }

    // Drain to completion: the engine must terminate and keep matching the
    // oracle at every completion.
    let mut guard = 0usize;
    while engine.next().is_some() {
        engine.settle_rates();
        assert_rates_match(&engine, &specs, &flows, &format!("case {case} drain"));
        guard += 1;
        assert!(guard < 10_000, "case {case}: drain did not terminate");
    }
    let s = engine.stats();
    cov.renewed += s.swap_inherits;
    cov.expired += s.parked_expired;
}

#[test]
fn incremental_solver_matches_global_oracle_on_1500_random_topologies() {
    let mut rng = StdRng::seed_from_u64(0x1ec0_5eed);
    let mut cov = Coverage::default();
    for case in 0..1500 {
        check_case(case, &mut rng, &mut cov);
    }
    // The cases did reach the window between a batch's completions and the
    // next settle, and both ways out of it.
    assert!(cov.mid_batch_reactions > 1000, "mid-batch reactions: {}", cov.mid_batch_reactions);
    assert!(
        cov.renewed > 1000 && cov.expired > 1000,
        "{} renewed, {} expired",
        cov.renewed,
        cov.expired
    );
}

/// Deterministic regression of the subsumed swap fast path: pipelined
/// identical start/complete pairs interleaved with a foreign component.
#[test]
fn pipelined_chunk_stream_matches_oracle() {
    let mut engine = Engine::new();
    let specs = [ResourceSpec::constant(100.0), ResourceSpec::degrading(50.0, 1.0)];
    let hot = engine.add_resource(specs[0]);
    let cold = engine.add_resource(specs[1]);
    let mut flows: Vec<FlowRecord> = Vec::new();

    // Two long-lived flows on the degrading resource.
    for _ in 0..2 {
        let id = engine.start_flow(FlowSpec::new(1e5, &[cold], Tag(99)));
        flows.push(FlowRecord { id, route: vec![1], cap: None });
    }
    // A pipelined stream of identical capped chunks on the hot resource.
    let id = engine.start_flow(FlowSpec::new(10.0, &[hot], Tag(0)).with_cap(25.0));
    flows.push(FlowRecord { id, route: vec![0], cap: Some(25.0) });
    for k in 1..200u64 {
        let ev = engine.next().expect("stream continues");
        if ev.tag() == Tag(99) {
            break; // the cold flows only finish long after the stream
        }
        let id = engine.start_flow(FlowSpec::new(10.0, &[hot], Tag(k)).with_cap(25.0));
        flows.push(FlowRecord { id, route: vec![0], cap: Some(25.0) });
        engine.settle_rates();
        assert_rates_match(&engine, &specs, &flows, &format!("step {k}"));
    }
    // The whole stream ran component-scoped: every solve touched only the
    // hot component's single flow, never the cold pair.
    let s = engine.stats();
    assert!(s.full_solves <= 1, "at most the initial settle may span everything");
}

/// Deterministic regression for same-timestamp batches and zero-demand
/// flows: a burst of identical chunks completes as one batch (with the
/// background flows' rates re-settling correctly), and zero-demand flows
/// batch-complete at the instant they start.
#[test]
fn simultaneous_batches_and_zero_demand_flows_match_oracle() {
    let mut engine = Engine::new();
    let specs = [ResourceSpec::constant(60.0), ResourceSpec::constant(40.0)];
    let a = engine.add_resource(specs[0]);
    let b = engine.add_resource(specs[1]);
    let mut flows: Vec<FlowRecord> = Vec::new();
    // One long-lived background flow per resource.
    for (i, &r) in [a, b].iter().enumerate() {
        let id = engine.start_flow(FlowSpec::new(1e4, &[r], Tag(900 + i as u64)));
        flows.push(FlowRecord { id, route: vec![i], cap: None });
    }
    // Four identical chunks on `a`: equal rates, one completion batch.
    for k in 0..4u64 {
        let id = engine.start_flow(FlowSpec::new(30.0, &[a], Tag(k)));
        flows.push(FlowRecord { id, route: vec![0], cap: None });
    }
    // Three zero-demand flows on `b`: batch-complete at t = 0.
    for k in 10..13u64 {
        let id = engine.start_flow(FlowSpec::new(0.0, &[b], Tag(k)));
        flows.push(FlowRecord { id, route: vec![1], cap: None });
    }

    let mut events = 0usize;
    while let Some(ev) = engine.next() {
        engine.settle_rates();
        assert_rates_match(&engine, &specs, &flows, &format!("event {events} tag {:?}", ev.tag()));
        events += 1;
        assert!(events <= 9, "exactly 9 completions expected");
    }
    assert_eq!(events, 9);
    let s = engine.stats();
    assert!(s.batched_settles >= 2, "zero-demand and chunk batches both drained as batches");
    assert_eq!(s.batched_completions, 7, "4 chunks + 3 zero-demand flows");
}

/// A batch of three identical completions, two of them reissued: the two
/// renew their twins in place, the third expires at the settle, and the
/// component is re-solved for what is left.
#[test]
fn batch_of_three_with_two_renewed_and_one_expired_matches_oracle() {
    let mut engine = Engine::new();
    let specs = [ResourceSpec::constant(60.0)];
    let r = engine.add_resource(specs[0]);
    let mut flows: Vec<FlowRecord> = Vec::new();
    for (k, demand) in [(0u64, 30.0), (1, 30.0), (2, 30.0), (9, 1e4)] {
        let id = engine.start_flow(FlowSpec::new(demand, &[r], Tag(k)));
        flows.push(FlowRecord { id, route: vec![0], cap: None });
    }
    for k in 0..3u64 {
        assert_eq!(engine.next().expect("the batch").tag(), Tag(k));
        assert!((engine.now() - 2.0).abs() < 1e-12, "four flows at 15/s");
        if k < 2 {
            let id = engine.start_flow(FlowSpec::new(45.0, &[r], Tag(10 + k)));
            assert_eq!(engine.flow_rate(id), 15.0, "the twin's rate, before any settle");
            flows.push(FlowRecord { id, route: vec![0], cap: None });
        }
    }
    let before = engine.stats();
    assert_eq!((before.swap_inherits, before.parked_expired), (2, 0));
    engine.settle_rates();
    let s = engine.stats();
    assert_eq!((s.swap_inherits, s.parked_expired), (2, 1));
    assert_eq!(s.component_solves - before.component_solves, 1, "the expiry forces one solve");
    assert_eq!(s.clean_batch_settles, 0);
    assert_rates_match(&engine, &specs, &flows, "after the batch");
    assert_eq!(engine.flow_rate(flows[4].id), 20.0, "three flows left on 60");
    // 45 units at 20/s from t=2, both renewals together.
    assert_eq!(engine.next().expect("a renewal").tag(), Tag(10));
    assert!((engine.now() - 4.25).abs() < 1e-12, "now = {}", engine.now());
}

/// A foreign start in the middle of a batch crosses out of the cached
/// component, which dissolves the class the batch's flows were members
/// of. The reissues that follow still renew their twins — solo, at the
/// twin's rate, since there is no class to rejoin — and the foreign
/// start's dirty marks have the settle re-solve all of them.
#[test]
fn renewal_after_its_class_dissolved_mid_batch_is_solo_and_resolved() {
    let mut engine = Engine::new();
    let specs = [ResourceSpec::constant(30.0), ResourceSpec::constant(100.0)];
    let a = engine.add_resource(specs[0]);
    let b = engine.add_resource(specs[1]);
    let mut flows: Vec<FlowRecord> = Vec::new();
    for (k, demand) in [(0u64, 10.0), (1, 10.0), (9, 1e4)] {
        let id = engine.start_flow(FlowSpec::new(demand, &[a], Tag(k)));
        flows.push(FlowRecord { id, route: vec![0], cap: None });
    }
    engine.settle_rates();
    assert_eq!(engine.stats().class_joins, 3, "one class at 10/s");

    assert_eq!(engine.next().expect("batch of two").tag(), Tag(0));
    let dissolves = engine.stats().class_dissolves;
    let id = engine.start_flow(FlowSpec::new(500.0, &[a, b], Tag(50)));
    flows.push(FlowRecord { id, route: vec![0, 1], cap: None });
    assert_eq!(engine.stats().class_dissolves, dissolves + 1, "`b` lies outside the cached set");
    for k in 0..2u64 {
        if k == 1 {
            assert_eq!(engine.next().expect("rest of the batch").tag(), Tag(1));
        }
        let joins = engine.stats().class_joins;
        let id = engine.start_flow(FlowSpec::new(60.0, &[a], Tag(10 + k)));
        flows.push(FlowRecord { id, route: vec![0], cap: None });
        assert_eq!(engine.stats().swap_inherits, k + 1, "still a renewal");
        assert_eq!(engine.stats().class_joins, joins, "but not into a class");
        assert_eq!(engine.flow_rate(id), 10.0, "the twin's rate, provisionally");
    }
    engine.settle_rates();
    assert_eq!(engine.stats().parked_expired, 0);
    assert_rates_match(&engine, &specs, &flows, "after the batch");
    assert_eq!(engine.flow_rate(flows[4].id), 7.5, "four flows on 30 now");
    let mut guard = 0;
    while engine.next().is_some() {
        engine.settle_rates();
        assert_rates_match(&engine, &specs, &flows, "drain");
        guard += 1;
        assert!(guard < 10, "five flows left");
    }
}
