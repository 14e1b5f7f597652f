//! Kernel microbenchmarks: max–min solver and engine event throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use simcal_des::{solve_max_min, Engine, FlowInput, FlowSpec, ResourceInput, ResourceSpec, Tag};

fn bench_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("max_min_solver");
    for &(n_res, n_flows) in &[(4usize, 16usize), (8, 64), (8, 256)] {
        let resources: Vec<ResourceInput> =
            (0..n_res).map(|i| ResourceInput { capacity: 10.0 + i as f64 }).collect();
        let flows: Vec<FlowInput> = (0..n_flows)
            .map(|i| FlowInput {
                route: vec![i % n_res, (i / 2) % n_res],
                cap: if i % 3 == 0 { Some(1.5) } else { None },
            })
            .collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{n_res}r_{n_flows}f")),
            &(resources, flows),
            |b, (resources, flows)| {
                let mut rates = Vec::new();
                b.iter(|| {
                    solve_max_min(black_box(resources), black_box(flows), &mut rates);
                    black_box(rates.len())
                });
            },
        );
    }
    group.finish();
}

fn bench_engine_events(c: &mut Criterion) {
    c.bench_function("engine_100k_events", |b| {
        b.iter(|| {
            let mut e = Engine::new();
            let r = e.add_resource(ResourceSpec::constant(100.0));
            // 32 streams of sequential unit flows: ~100k completions.
            let mut remaining = [3125u32; 32];
            for i in 0..32 {
                e.start_flow(FlowSpec::new(1.0, &[r], Tag(i)));
            }
            let mut n = 0u64;
            while let Some(ev) = e.next() {
                n += 1;
                let i = ev.tag().0 as usize;
                if remaining[i] > 0 {
                    remaining[i] -= 1;
                    e.start_flow(FlowSpec::new(1.0, &[r], Tag(i as u64)));
                }
            }
            black_box(n)
        });
    });
}

/// The incremental path's sweet spot: many disjoint components (one per
/// "node"), each hosting a pipelined stream plus a route-less capped
/// compute flow. A global-recompute engine re-solves every flow on every
/// event; the component-scoped engine touches one node's flows at a time.
fn bench_engine_components(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_components");
    for &n_nodes in &[4usize, 16, 64] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{n_nodes}n")),
            &n_nodes,
            |b, &n_nodes| {
                b.iter(|| {
                    let mut e = Engine::new();
                    let nodes: Vec<_> = (0..n_nodes)
                        .map(|_| e.add_resource(ResourceSpec::constant(100.0)))
                        .collect();
                    // Per node: one chunk stream + one capped compute flow.
                    let mut remaining = vec![2000u32 / n_nodes as u32; 2 * n_nodes];
                    for (i, &r) in nodes.iter().enumerate() {
                        e.start_flow(FlowSpec::new(1.0, &[r], Tag(i as u64)));
                        e.start_flow(
                            FlowSpec::new(1.0, &[], Tag((n_nodes + i) as u64)).with_cap(50.0),
                        );
                    }
                    let mut n = 0u64;
                    while let Some(ev) = e.next() {
                        n += 1;
                        let i = ev.tag().0 as usize;
                        if remaining[i] > 0 {
                            remaining[i] -= 1;
                            let (route, cap) = if i < n_nodes {
                                (vec![nodes[i]], None)
                            } else {
                                (Vec::new(), Some(50.0))
                            };
                            let mut spec = FlowSpec::new(1.0, &route, Tag(i as u64));
                            if let Some(cp) = cap {
                                spec = spec.with_cap(cp);
                            }
                            e.start_flow(spec);
                        }
                    }
                    black_box((n, e.stats().flows_resolved))
                });
            },
        );
    }
    group.finish();
}

/// The completion list's worst case, which the equal-sized streams above
/// never produce: N flows of *distinct* sizes on one shared resource, so
/// no two completions coincide and each one re-rates the other N−1 flows
/// — twice, because the reissue waits out a latency and re-joins as a
/// fresh attach instead of inheriting its twin's share. Every re-rate
/// moves a completion time, and a list that cannot re-key in place
/// strands one entry per move, so this row is where completion-list cost
/// shows: ~2·(N−1) re-keys per event.
fn bench_engine_rerate_storm(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_rerate_storm");
    for &n_flows in &[16usize, 64, 256] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{n_flows}f")),
            &n_flows,
            |b, &n_flows| {
                b.iter(|| {
                    let mut e = Engine::new();
                    let r = e.add_resource(ResourceSpec::constant(100.0));
                    let size = |i: usize| 1.0 + i as f64 / n_flows as f64;
                    // 2048 completions in all, whatever the population.
                    let mut remaining = vec![2048u32 / n_flows as u32 - 1; n_flows];
                    for i in 0..n_flows {
                        e.start_flow(FlowSpec::new(size(i), &[r], Tag(i as u64)));
                    }
                    let mut n = 0u64;
                    while let Some(ev) = e.next() {
                        n += 1;
                        let i = ev.tag().0 as usize;
                        if remaining[i] > 0 {
                            remaining[i] -= 1;
                            let spec = FlowSpec::new(size(i), &[r], Tag(i as u64));
                            e.start_flow(spec.with_latency(1e-3));
                        }
                    }
                    black_box((n, e.stats().flows_resolved))
                });
            },
        );
    }
    group.finish();
}

/// The reissue cycle at batch size 1, the shape of the finest Table VI
/// granularity: 32 streams on one resource whose first flows differ in
/// size, so that — unlike the lock-step `engine_100k_events` — no two
/// completions ever coincide, each answered by one unit flow. `renewed`
/// reissues the completed flow's signature, so every completion parks and
/// is renewed in place with no solve. `foreign` alternates a cap that
/// never binds, so no reissue matches its twin: every completion parks,
/// expires at the settle, and the fresh attach is re-solved. The same-run
/// ratio renewed : foreign is what the matching path is worth; a matching
/// path that silently stops matching reads ≈ 1.
fn bench_engine_reissue(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_reissue");
    for (name, caps) in [("renewed", [1e6, 1e6]), ("foreign", [1e6, 2e6])] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut e = Engine::new();
                let r = e.add_resource(ResourceSpec::constant(100.0));
                let mut remaining = [3125u32; 32];
                for i in 0..32 {
                    let first = FlowSpec::new(1.0 + i as f64 / 32.0, &[r], Tag(i));
                    e.start_flow(first.with_cap(caps[0]));
                }
                let mut n = 0u64;
                while let Some(ev) = e.next() {
                    n += 1;
                    let i = ev.tag().0 as usize;
                    if remaining[i] > 0 {
                        let cap = caps[remaining[i] as usize % 2];
                        remaining[i] -= 1;
                        e.start_flow(FlowSpec::new(1.0, &[r], Tag(i as u64)).with_cap(cap));
                    }
                }
                black_box((n, e.stats().swap_inherits))
            });
        });
    }
    group.finish();
}

/// A processor-sharing class's member order at scale: the
/// `engine_reissue/renewed` cycle (first sizes 1 + i/N, unit reissues, no
/// cap) at N = 32 and N = 512 streams, 100 000 completions in all either
/// way. Every completion pops the class's earliest member and its renewal
/// joins at `v + 1`, past every tag still queued, so the pop and the join
/// are O(1) in N; the same-run ratio 512s : 32s is what class size costs
/// per event (≈ 1; a member heap read 1.40–1.46 with `nproc` 2, since
/// each of its pops sinks the newest, largest tag through every level).
fn bench_engine_class_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_class_size");
    for &n_streams in &[32usize, 512] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{n_streams}s")),
            &n_streams,
            |b, &n_streams| {
                b.iter(|| {
                    let mut e = Engine::new();
                    let r = e.add_resource(ResourceSpec::constant(100.0));
                    for i in 0..n_streams {
                        let size = 1.0 + i as f64 / n_streams as f64;
                        e.start_flow(FlowSpec::new(size, &[r], Tag(i as u64)));
                    }
                    let (mut started, mut n) = (n_streams, 0u64);
                    while let Some(ev) = e.next() {
                        n += 1;
                        if started < 100_000 {
                            started += 1;
                            e.start_flow(FlowSpec::new(1.0, &[r], ev.tag()));
                        }
                    }
                    black_box((n, e.stats().swap_inherits))
                });
            },
        );
    }
    group.finish();
}

/// The member queue's worst case: N flows of distinct sizes started in a
/// scrambled order on one resource, so when the first settle forms the
/// class, every join lands mid-queue instead of at the back; then the
/// class drains, one completion and one re-rate at a time.
fn bench_engine_class_formation(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_class_formation");
    for &n_flows in &[64usize, 4096] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{n_flows}f")),
            &n_flows,
            |b, &n_flows| {
                b.iter(|| {
                    let mut e = Engine::new();
                    let r = e.add_resource(ResourceSpec::constant(100.0));
                    for i in 0..n_flows {
                        // An odd multiplier permutes 0..N for N a power of two.
                        let j = i.wrapping_mul(0x9E37_79B1) % n_flows;
                        let size = 1.0 + j as f64 / n_flows as f64;
                        e.start_flow(FlowSpec::new(size, &[r], Tag(i as u64)));
                    }
                    let mut n = 0u64;
                    while e.next().is_some() {
                        n += 1;
                    }
                    black_box((n, e.stats().class_joins))
                });
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_solver,
        bench_engine_events,
        bench_engine_components,
        bench_engine_rerate_storm,
        bench_engine_reissue,
        bench_engine_class_size,
        bench_engine_class_formation
}
criterion_main!(benches);
