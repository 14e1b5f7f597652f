//! Distributed-driver overhead: the coordinator draining alone
//! (`--distributed --spawn 0`) and with dialed-in workers vs the
//! in-process `SweepRunner`, every executor single-threaded, over the
//! reduced registry.
//!
//! The delta between the in-process and `spawn0` entries is the whole
//! fixed cost of the distribution machinery — the journal (manifest,
//! one checksummed result file per task, the merge), the listener and
//! the coordinator's threads — and `BENCH_dist.json` tracks it across
//! PRs. It is pure overhead at one process; it buys scaling across
//! processes/machines. The one-worker TCP entries add the framed protocol
//! on top at the two windows worth comparing: one task per claim, and the
//! default window. The two-worker entry shares the grid between
//! siblings, so the tail of the sweep — one worker still holding granted
//! tasks while the other waits parked — is part of what it measures; CI
//! gates its ratio to the one-worker entry.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

use simcal_sim::ScenarioRegistry;
use simcal_study::{SweepRunner, TcpSweep, TcpWorker};

fn bench_dist(c: &mut Criterion) {
    let grid = ScenarioRegistry::reduced().scenarios();
    let n = grid.len();
    let mut group = c.benchmark_group("dist");
    group.sample_size(10).measurement_time(Duration::from_secs(8));

    let runner = SweepRunner::new().with_workers(1);
    group.bench_function(&format!("registry{n}_inprocess_1w"), |b| {
        b.iter(|| runner.run(black_box(&grid)).len());
    });

    let spool_base = std::env::temp_dir().join(format!("simcal-bench-dist-{}", std::process::id()));
    let iter_count = std::cell::Cell::new(0u64);
    group.bench_function(&format!("registry{n}_spawn0"), |b| {
        b.iter(|| {
            // A fresh spool per iteration: starting the journal is part
            // of the measured coordinator cost.
            let spool = spool_base.join(format!("iter-{}", iter_count.get()));
            iter_count.set(iter_count.get() + 1);
            let driver = TcpSweep::new(&spool, "127.0.0.1:0").with_threads(1).with_spawn(0);
            let results = driver.run(black_box(&grid)).unwrap().0;
            std::fs::remove_dir_all(&spool).ok();
            results.len()
        });
    });
    // The socket transport on loopback: coordinator + `workers` dialed-in
    // worker threads, at a given claim window. The delta over the spawn0
    // entry is the cost of the framed TCP protocol — accept,
    // Hello/ClaimN/TaskBatch/Result round trips, heartbeats — on top of
    // the same journal.
    let tcp_fleet = |workers: usize, window: Option<usize>, iter: u64| {
        let spool = spool_base.join(format!("iter-{iter}"));
        let driver = TcpSweep::new(&spool, "127.0.0.1:0".to_string())
            .with_threads(1)
            .with_claim_window(window);
        let n_results = std::thread::scope(|scope| {
            let coord = scope.spawn(|| driver.run(black_box(&grid)).unwrap().0.len());
            let addr = loop {
                if let Some(a) = simcal_study::net::read_addr(&spool) {
                    break a;
                }
                // A fine-grained poll: a 1ms sleep here puts up to a
                // millisecond of harness dead time between bind and
                // dial on every iteration, which would be charged to
                // the transport.
                std::thread::sleep(Duration::from_micros(100));
            };
            let fleet: Vec<_> = (0..workers)
                .map(|_| {
                    let addr = addr.clone();
                    scope.spawn(move || {
                        TcpWorker::new(addr)
                            .with_threads(1)
                            .with_claim_window(window)
                            .run()
                            .unwrap()
                    })
                })
                .collect();
            for worker in fleet {
                worker.join().unwrap();
            }
            coord.join().unwrap()
        });
        std::fs::remove_dir_all(&spool).ok();
        n_results
    };
    // Window 1: one task per claim, so every task pays a full claim
    // round trip on the critical path.
    group.bench_function(&format!("registry{n}_tcp_1worker_window1"), |b| {
        b.iter(|| {
            iter_count.set(iter_count.get() + 1);
            tcp_fleet(1, Some(1), iter_count.get())
        });
    });
    // The default window: claims pipeline ahead of results, so the
    // per-task round trip leaves the critical path. The gap to the
    // window-1 entry is what the window buys.
    group.bench_function(&format!("registry{n}_tcp_1worker_default"), |b| {
        b.iter(|| {
            iter_count.set(iter_count.get() + 1);
            tcp_fleet(1, None, iter_count.get())
        });
    });
    group.bench_function(&format!("registry{n}_tcp_2workers_default"), |b| {
        b.iter(|| {
            iter_count.set(iter_count.get() + 1);
            tcp_fleet(2, None, iter_count.get())
        });
    });

    group.finish();
    std::fs::remove_dir_all(&spool_base).ok();
}

criterion_group!(benches, bench_dist);
criterion_main!(benches);
