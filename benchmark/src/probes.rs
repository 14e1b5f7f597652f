//! Direct timings of single layers on fixed inputs.
//!
//! These do not depend on the workload: every traced run measures them, so
//! a change to the kernel, the simulator's fixed per-run cost, the input
//! builders, the wire codecs or the binary's start-up shows as a number of
//! its own next to the workload it should (or should not) move.

use std::hint::black_box;
use std::time::Instant;

use simcal_des::{solve_max_min, Engine, FlowInput, FlowSpec, ResourceInput, ResourceSpec, Tag};
use simcal_platform::{catalog, HardwareParams};
use simcal_sim::{decode_scenario, encode_scenario, simulate, ScenarioRegistry, SimConfig};
use simcal_storage::{CachePlan, XRootDConfig};
use simcal_study::dist::{decode_sweep_result, encode_sweep_result};
use simcal_study::SweepRunner;
use simcal_workload::{cms_workload, scaled_cms_workload};

use crate::stats::median;
use crate::workloads::{list_scenarios, Cfg, Metrics};

/// Nanoseconds per unit of work of `f`, which does `units` units per call:
/// the median of five timed calls after one untimed.
fn ns_per_unit<T>(units: u64, mut f: impl FnMut() -> T) -> f64 {
    black_box(f());
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64() * 1e9 / units as f64
        })
        .collect();
    median(&samples)
}

/// Run `e` dry, restarting the flow `respawn` describes for a tag while
/// that tag has restarts left; returns the events delivered.
fn drain(e: &mut Engine, remaining: &mut [u32], respawn: impl Fn(usize) -> FlowSpec) -> u64 {
    let mut events = 0;
    while let Some(ev) = e.next() {
        events += 1;
        let i = ev.tag().0 as usize;
        if remaining.get(i).is_some_and(|&left| left > 0) {
            remaining[i] -= 1;
            e.start_flow(respawn(i));
        }
    }
    events
}

/// 32 sequential streams of unit flows on one resource: every completion
/// starts an identical successor, the pipelined-chunk steady state.
fn engine_stream() -> u64 {
    let mut e = Engine::new();
    let r = e.add_resource(ResourceSpec::constant(100.0));
    let stream = |i: usize| FlowSpec::new(1.0, &[r], Tag(i as u64));
    for i in 0..32 {
        e.start_flow(stream(i));
    }
    drain(&mut e, &mut [3125; 32], stream)
}

/// 64 disjoint node components, each a chunk stream plus a route-less
/// capped compute flow of a different period, so completions keep dirtying
/// single components that need a solve.
fn engine_components() -> u64 {
    const NODES: usize = 64;
    let mut e = Engine::new();
    let nodes: Vec<_> = (0..NODES).map(|_| e.add_resource(ResourceSpec::constant(100.0))).collect();
    let flow = |i: usize| {
        if i < NODES {
            FlowSpec::new(1.0, &[nodes[i]], Tag(i as u64))
        } else {
            FlowSpec::new(1.0, &[], Tag(i as u64)).with_cap(50.0)
        }
    };
    for i in 0..2 * NODES {
        e.start_flow(flow(i));
    }
    drain(&mut e, &mut [400; 2 * NODES], flow)
}

/// Set 10^5 timers at scattered delays, then drain them.
fn timers() -> u64 {
    const TIMERS: u64 = 100_000;
    let mut e = Engine::new();
    for i in 0..TIMERS {
        // A multiplicative scatter over [0, 1000): no two timers share an
        // instant and insertion order is unrelated to firing order.
        e.set_timer((i * 7919 % TIMERS) as f64 / 100.0, Tag(i));
    }
    drain(&mut e, &mut [], |_| unreachable!("no timer has restarts"))
}

/// Every probe, as per-layer metrics.
pub fn run(cfg: &Cfg) -> Metrics {
    let mut m = Metrics::new();
    let mut put = |name: &str, value: f64| m.push((name.to_string(), value));

    // des: the event loop on two flow shapes, the timers, the solver alone.
    put("des.engine.ns_per_event.stream", ns_per_unit(engine_stream(), engine_stream));
    put("des.engine.ns_per_event.components", ns_per_unit(engine_components(), engine_components));
    put("des.timer.ns_per_timer", ns_per_unit(timers(), timers));
    // 8 resources x 256 two-hop flows, a third of them capped.
    let resources: Vec<ResourceInput> =
        (0..8).map(|i| ResourceInput { capacity: 10.0 + i as f64 }).collect();
    let flows: Vec<FlowInput> = (0..256usize)
        .map(|i| FlowInput { route: vec![i % 8, (i / 2) % 8], cap: (i % 3 == 0).then_some(1.5) })
        .collect();
    let mut rates = Vec::new();
    let solve = ns_per_unit(200 * flows.len() as u64, || {
        for _ in 0..200 {
            solve_max_min(black_box(&resources), black_box(&flows), &mut rates);
        }
    });
    put("des.solver.ns_per_flow", solve);

    // sim: one job reading one small cached file — validation, reset,
    // resource build and trace assembly, with next to no events.
    let platform = catalog::fcsn();
    let tiny = scaled_cms_workload(1, 1, 1e6);
    let cache = CachePlan::new(&tiny, 1.0, 1);
    let config = SimConfig::new(HardwareParams::defaults(), XRootDConfig::paper_1s());
    let fixed = ns_per_unit(2000, || {
        (0..2000).map(|_| simulate(&platform, &tiny, &cache, &config).jobs.len()).sum::<usize>()
    });
    put("sim.fixed_us_per_run", fixed / 1e3);

    // The input builders behind every set-up.
    let cms = cms_workload();
    let fifty = |f: &dyn Fn()| ns_per_unit(50, || (0..50).for_each(|_| f())) / 1e3;
    put("workload.cms_build_us", fifty(&|| drop(black_box(cms_workload()))));
    put("storage.cache_plan_us", fifty(&|| drop(black_box(CachePlan::new(&cms, 0.5, 1)))));
    put("platform.spec_build_us", fifty(&|| drop(black_box(catalog::fcsn()))));

    // What a fleet sweep puts on the wire: the reduced registry's scenarios
    // out, their results back.
    let scenarios = ScenarioRegistry::reduced().scenarios();
    let results = SweepRunner::new().with_workers(1).run(&scenarios);
    let encoded: Vec<String> = scenarios.iter().map(encode_scenario).collect();
    let n = scenarios.len() as u64;
    let encode =
        ns_per_unit(n, || scenarios.iter().map(|sc| encode_scenario(sc).len()).sum::<usize>());
    let decode =
        ns_per_unit(n, || encoded.iter().filter(|text| decode_scenario(text).is_ok()).count());
    let result_codec = ns_per_unit(n, || {
        results.iter().filter(|r| decode_sweep_result(&encode_sweep_result(r)).is_ok()).count()
    });
    put("sim.codec.encode_us", encode / 1e3);
    put("sim.codec.decode_us", decode / 1e3);
    put(
        "sim.codec.bytes_per_scenario",
        encoded.iter().map(String::len).sum::<usize>() as f64 / n as f64,
    );
    put("study.dist.result_codec_us", result_codec / 1e3);

    // exp: one start of the binary, where there is one (only `sweep-wire`
    // needs it to exist).
    if cfg.exp_bin.is_file() {
        put("exp.startup_ms", ns_per_unit(1, || list_scenarios(&cfg.exp_bin)) / 1e6);
    }
    m
}
