//! Steady-state horizon throughput by timer depth: the cost of the
//! kernel's one timer store at 6 k and at 10⁵ pending release timers.
//!
//! An open-loop horizon run front-loads one release timer per arrival, so
//! the timer heap starts `n_jobs` deep and drains over the horizon. The
//! arrival rate is fixed at 5 jobs/s and the horizon scales with `n_jobs`,
//! so the two rows differ in depth, not in load. `6k` is the depth of the
//! registry's deepest scenarios (`steady-*` at full scale); `100k` is the
//! depth ROADMAP named for the one-store-or-two verdict, kept on record so
//! a change to the store is measured where its O(log n) would show. The
//! printed event counts plus the per-run medians in `BENCH_steady.json`
//! give events/sec directly.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

use simcal_platform::PlatformBuilder;
use simcal_sim::{CacheSpec, HorizonSpec, Scenario, SimConfig, SimSession, WorkloadSource};
use simcal_workload::{ArrivalProcess, Distribution, WorkloadSpec};

/// Submission rate of every row, jobs per simulated second.
const ARRIVAL_RATE: f64 = 5.0;

/// A serving-style scenario with a deep pending-event population:
/// `n_jobs` Poisson arrivals at [`ARRIVAL_RATE`] onto a 4x8-core pool,
/// every release timer scheduled up front.
fn steady_scenario(label: &str, n_jobs: usize) -> Scenario {
    let horizon = n_jobs as f64 / ARRIVAL_RATE;
    let platform = PlatformBuilder::new("STEADY-BENCH")
        .node("b0", 8)
        .node("b1", 8)
        .node("b2", 8)
        .node("b3", 8)
        .wan_gbps(1.0)
        .build();
    Scenario {
        name: format!("steady-bench-{label}"),
        platform,
        workload: WorkloadSource::Spec {
            spec: WorkloadSpec {
                n_jobs,
                files_per_job: 2,
                file_size: Distribution::Constant(8e6),
                flops_per_byte: Distribution::Constant(6.0),
                output_bytes: Distribution::Constant(1e6),
                arrival: ArrivalProcess::Poisson { rate: ARRIVAL_RATE },
            },
            seed: 0x0057_ead7,
        },
        cache: CacheSpec::canonical(0.5),
        config: SimConfig::default(),
        multisite: None,
        horizon: Some(HorizonSpec::new(horizon)),
    }
}

fn bench_steady_horizon(c: &mut Criterion) {
    let mut group = c.benchmark_group("steady_horizon");
    group.sample_size(10).measurement_time(Duration::from_secs(10));
    for (label, n_jobs) in [("6k", 6_000), ("100k", 100_000)] {
        let sc = steady_scenario(label, n_jobs);
        let mut session = SimSession::new();
        // One warm-up run prints the per-run event count the JSON medians
        // divide into.
        let report = sc.try_run_report(&mut session, 1).expect("steady bench run failed");
        let events = report.trace.engine_events;
        println!(
            "steady_horizon/{label}: {events} engine events/run, {} of {n_jobs} jobs done in horizon",
            report.trace.jobs.len()
        );
        group.bench_function(label, |b| {
            b.iter(|| {
                let r = black_box(&sc).run_sharded(&mut session, 1);
                debug_assert_eq!(r.engine_events, events);
                r.engine_events
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_steady_horizon);
criterion_main!(benches);
