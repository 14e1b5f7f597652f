//! Window-size × fault-schedule product property for the TCP transport.
//!
//! The windowed protocol must be **window-invariant**: whatever claim
//! window the fleet runs at — one task per claim, any pinned size, or the
//! default — and whatever seeded fault schedule one worker suffers
//! mid-window, the merged sweep results are bit-identical to the
//! single-process local runner. The window is a throughput knob, never a
//! correctness knob.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use proptest::prelude::*;

use simcal::sim::{Scenario, ScenarioRegistry};
use simcal::study::net::read_addr;
use simcal::study::{FaultPlan, SweepResult, SweepRunner, TcpSweep, TcpWorker};

fn grid() -> Vec<Scenario> {
    ScenarioRegistry::reduced().scenarios().into_iter().take(4).collect()
}

fn fingerprints(rs: &[SweepResult]) -> Vec<(String, Vec<u64>, u64, u64)> {
    rs.iter().map(SweepResult::fingerprint).collect()
}

fn fresh_spool(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("simcal-tcp-window-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn wait_addr(spool: &Path) -> String {
    let start = Instant::now();
    loop {
        if let Some(addr) = read_addr(spool) {
            return addr;
        }
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "coordinator never published an address"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Run one coordinator and two workers — one sabotaged by `plan` — at
/// the given claim window (`None` = the default) and return the merged
/// result fingerprints.
fn run_fleet(
    tag: &str,
    window: Option<usize>,
    seed: u64,
    plan: FaultPlan,
) -> Vec<(String, Vec<u64>, u64, u64)> {
    let grid = grid();
    let spool = fresh_spool(tag);
    let coord = TcpSweep::new(&spool, "127.0.0.1:0")
        .with_stall_timeout(Duration::from_millis(1500))
        .with_seed(seed)
        .with_claim_window(window);
    let results = std::thread::scope(|scope| {
        let coord = scope.spawn(|| coord.run(&grid));
        let addr = wait_addr(&spool);
        let worker = |seed: u64, plan: FaultPlan| {
            TcpWorker::new(addr.clone())
                .with_heartbeat(Duration::from_millis(25))
                .with_patience(Duration::from_millis(600))
                .with_seed(seed)
                .with_claim_window(window)
                .with_fault(plan)
        };
        let saboteur = worker(seed, plan);
        let healthy = worker(seed ^ 0xFFFF, FaultPlan::none());
        let w1 = scope.spawn(move || saboteur.run());
        let w2 = scope.spawn(move || healthy.run());
        let (results, _summary) = coord.join().expect("coordinator").expect("sweep");
        w1.join().expect("saboteur").ok();
        w2.join().expect("healthy").ok();
        results
    });
    std::fs::remove_dir_all(&spool).ok();
    fingerprints(&results)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any claim window (0 stands for the default window) crossed with
    /// any seeded fault schedule merges bit-identically to the local
    /// runner.
    #[test]
    fn any_window_times_any_fault_seed_merges_bit_identically(
        window in 0usize..=8,
        seed in 0u64..1024,
    ) {
        let expected = fingerprints(&SweepRunner::new().with_workers(2).run(&grid()));
        let window = (window > 0).then_some(window);
        let tag = format!("{}-{seed}", window.map_or("default".into(), |w| w.to_string()));
        let got = run_fleet(&tag, window, seed, FaultPlan::seeded(seed));
        prop_assert_eq!(
            got,
            expected,
            "window {:?} x fault seed {} diverged from the local artifact",
            window,
            seed
        );
    }
}
