//! Scenario-sweep throughput: the sharded parallel driver at 1 worker vs
//! 8 workers over the built-in registry's ICD grid.
//!
//! The per-scenario results are bit-identical regardless of the worker
//! count (asserted by `tests/scenario_sweep.rs`); this bench records the
//! throughput side of that bargain in `BENCH_sweep.json` — scenarios/sec
//! should scale near-linearly until the grid's largest scenario
//! serializes the tail.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

use simcal_sim::{Scenario, ScenarioRegistry};
use simcal_study::SweepRunner;

/// The benched grid: every builtin registry scenario at five ICD points.
fn grid() -> Vec<Scenario> {
    ScenarioRegistry::builtin().icd_grid(&[0.0, 0.25, 0.5, 0.75, 1.0])
}

fn bench_sweep(c: &mut Criterion) {
    let grid = grid();
    let mut group = c.benchmark_group("sweep");
    group.sample_size(10).measurement_time(Duration::from_secs(8));
    let n = grid.len();
    for workers in [1usize, 8] {
        let runner = SweepRunner::new().with_workers(workers);
        group.bench_function(&format!("registry{n}_{workers}w"), |b| {
            b.iter(|| {
                let results = runner.run(black_box(&grid));
                debug_assert_eq!(results.len(), n);
                results.len()
            });
        });
    }
    group.finish();
}

/// The raw builtin registry (no ICD expansion): the small-grid regime
/// where per-shard overhead is most visible.
fn bench_sweep_registry_only(c: &mut Criterion) {
    let grid = ScenarioRegistry::builtin().scenarios();
    let mut group = c.benchmark_group("sweep_small");
    group.sample_size(10).measurement_time(Duration::from_secs(4));
    let n = grid.len();
    for workers in [1usize, 8] {
        let runner = SweepRunner::new().with_workers(workers);
        group.bench_function(&format!("registry{n}_{workers}w"), |b| {
            b.iter(|| runner.run(black_box(&grid)).len());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sweep, bench_sweep_registry_only);
criterion_main!(benches);
