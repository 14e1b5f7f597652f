//! Steady-state horizon throughput: events/sec under the three
//! timer-queue backends.
//!
//! An open-loop horizon run front-loads one release timer per arrival,
//! so the timer queue starts thousands deep — exactly the regime the
//! Brown calendar queue targets (O(1) amortized push/pop vs the binary
//! heap's O(log n)). Pop order is backend-invariant, so every variant
//! here produces the same trace and the same engine-event count; only
//! wall time moves. The printed `events=` line plus the per-run medians
//! in `BENCH_steady.json` give events/sec directly.
//!
//! Honest-numbers note: the backend holds the timers only (flow
//! completions sit in the engine's addressable heap whatever the knob
//! says), and a 6000-deep timer population is one timer pop per ~20
//! engine events — the bench exists to keep the calendar from
//! regressing, not to flatter it.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

use simcal_des::EventListBackend;
use simcal_platform::PlatformBuilder;
use simcal_sim::{CacheSpec, HorizonSpec, Scenario, SimConfig, SimSession, WorkloadSource};
use simcal_workload::{ArrivalProcess, Distribution, WorkloadSpec};

/// A serving-style scenario with a deep pending-event population:
/// `n_jobs` Poisson arrivals over `horizon` seconds onto a 4x8-core
/// pool, every release timer scheduled up front.
fn steady_scenario(n_jobs: usize, horizon: f64, backend: EventListBackend) -> Scenario {
    let platform = PlatformBuilder::new("STEADY-BENCH")
        .node("b0", 8)
        .node("b1", 8)
        .node("b2", 8)
        .node("b3", 8)
        .wan_gbps(1.0)
        .build();
    let config = SimConfig { event_list: backend, ..SimConfig::default() };
    Scenario {
        name: format!("steady-bench-{}", backend.as_str()),
        platform,
        workload: WorkloadSource::Spec {
            spec: WorkloadSpec {
                n_jobs,
                files_per_job: 2,
                file_size: Distribution::Constant(8e6),
                flops_per_byte: Distribution::Constant(6.0),
                output_bytes: Distribution::Constant(1e6),
                arrival: ArrivalProcess::Poisson { rate: n_jobs as f64 / horizon },
            },
            seed: 0x0057_ead7,
        },
        cache: CacheSpec::canonical(0.5),
        config,
        multisite: None,
        horizon: Some(HorizonSpec::new(horizon)),
    }
}

fn bench_steady_horizon(c: &mut Criterion) {
    const N_JOBS: usize = 6_000;
    const HORIZON: f64 = 1_200.0;
    let mut group = c.benchmark_group("steady_horizon");
    group.sample_size(10).measurement_time(Duration::from_secs(10));
    let mut reference: Option<(u64, u64)> = None;
    for backend in [EventListBackend::Heap, EventListBackend::Calendar, EventListBackend::Auto] {
        let sc = steady_scenario(N_JOBS, HORIZON, backend);
        let mut session = SimSession::new();
        // One warm-up run pins the backend-invariance claim and prints
        // the per-run event count the JSON medians divide into.
        let report = sc.try_run_report(&mut session, 1).expect("steady bench run failed");
        let events = report.trace.engine_events;
        let hash = simcal_study::SweepResult::from_trace(&sc.name, &report.trace).trace_hash;
        match reference {
            None => {
                println!(
                    "steady_horizon: {events} engine events/run, {} of {N_JOBS} jobs done in horizon",
                    report.trace.jobs.len()
                );
                reference = Some((events, hash));
            }
            Some(r) => assert_eq!(
                (events, hash),
                r,
                "{}: trace diverged from the heap reference",
                backend.as_str()
            ),
        }
        group.bench_function(backend.as_str(), |b| {
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
