//! Distributed-equals-local oracle: sweeping the reduced registry through
//! `sweep --distributed --spawn N` — the coordinator on a loopback port,
//! draining alongside N spawned `sweep-worker --connect` processes, each
//! with 2 sweep threads — must produce merged CSV artifacts that are
//! **byte-identical** to the single-process `SweepRunner` path, and hence
//! identical per-scenario FNV trace hashes.
//!
//! This drives the real binary (`CARGO_BIN_EXE_simcal-exp`), so the
//! coordinator genuinely `exec`s its workers and the protocol runs across
//! real process boundaries over real sockets.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::{Duration, Instant};

fn exe() -> &'static str {
    env!("CARGO_BIN_EXE_simcal-exp")
}

fn output(args: &[&str]) -> Output {
    Command::new(exe()).args(args).output().expect("spawn simcal-exp")
}

fn run(args: &[&str]) {
    let out = output(args);
    assert!(
        out.status.success(),
        "simcal-exp {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn base_dir() -> PathBuf {
    std::env::temp_dir().join(format!("simcal-exp-dist-oracle-{}", std::process::id()))
}

/// Extract the trace-hash column (scenario -> hash) from a sweep CSV.
fn hashes(csv: &Path) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(csv).unwrap();
    let mut lines = text.lines().filter(|l| !l.starts_with('#'));
    let header = lines.next().expect("header row");
    let cols: Vec<&str> = header.split(',').collect();
    let name_col = cols.iter().position(|c| *c == "scenario").unwrap();
    let hash_col = cols.iter().position(|c| *c == "trace_hash").unwrap();
    lines
        .map(|l| {
            let cells: Vec<&str> = l.split(',').collect();
            (cells[name_col].to_string(), cells[hash_col].to_string())
        })
        .collect()
}

#[test]
fn distributed_sweep_is_bit_identical_to_local_at_any_process_count() {
    let base = base_dir();
    std::fs::remove_dir_all(&base).ok();

    // Reference: the in-process sharded driver at 2 threads.
    let local_out = base.join("local");
    run(&["sweep", "--reduced", "--workers", "2", "--out", local_out.to_str().unwrap()]);
    let local_csv = std::fs::read(local_out.join("sweep.csv")).unwrap();
    let local_hashes = hashes(&local_out.join("sweep.csv"));
    assert!(!local_hashes.is_empty());

    // Distributed: --spawn N spawns N worker processes and the
    // coordinator drains too, so total processes = N + 1.
    for spawn in [0usize, 1, 2] {
        let tag = format!("p{}", spawn + 1);
        let spool = base.join(format!("spool-{tag}"));
        let out = base.join(format!("out-{tag}"));
        run(&[
            "sweep",
            "--reduced",
            "--distributed",
            "--spool",
            spool.to_str().unwrap(),
            "--spawn",
            &spawn.to_string(),
            "--workers",
            "2",
            "--out",
            out.to_str().unwrap(),
        ]);
        let dist_csv = std::fs::read(out.join("sweep.csv")).unwrap();
        assert_eq!(
            dist_csv,
            local_csv,
            "{} process(es) x 2 threads: sweep.csv differs from the local driver",
            spawn + 1
        );
        assert_eq!(hashes(&out.join("sweep.csv")), local_hashes, "{tag}: trace hashes differ");
        // The spool is a journal only: one result per task, and no task
        // queue on disk.
        let count = |dir: &str| std::fs::read_dir(spool.join(dir)).unwrap().count();
        assert_eq!(count("results"), local_hashes.len(), "{tag}: results");
        assert!(!spool.join("tasks").exists(), "{tag}: a tasks/ directory");
        assert!(!spool.join("claimed").exists(), "{tag}: a claimed/ directory");
    }

    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn external_workers_can_join_a_spawning_coordinator() {
    // A worker attached by hand: a `--distributed --spawn 1` coordinator
    // publishes its loopback address in SPOOL/addr, and a `sweep-worker
    // --connect` started from here dials it. Between the three executors
    // the sweep must still merge to the local driver's artifact. The
    // full-size steady family (~0.1 s per scenario) keeps the sweep
    // running long enough for the late worker to reach it.
    let base = base_dir().join("external");
    std::fs::remove_dir_all(&base).ok();

    let local_out = base.join("local");
    run(&["sweep", "steady", "--out", local_out.to_str().unwrap()]);

    let spool = base.join("spool");
    let out = base.join("out");
    let mut coordinator = Command::new(exe())
        .args([
            "sweep",
            "steady",
            "--distributed",
            "--spool",
            spool.to_str().unwrap(),
            "--spawn",
            "1",
            "--out",
            out.to_str().unwrap(),
        ])
        .spawn()
        .expect("spawn coordinator");
    // Dial the published address from outside the coordinator's process
    // tree. The sweep may already be over when we get there: a worker
    // that finds nobody listening is not a failure of the sweep.
    let deadline = Instant::now() + Duration::from_secs(20);
    let addr = loop {
        match std::fs::read_to_string(spool.join("addr")) {
            Ok(addr) if !addr.trim().is_empty() => break Some(addr.trim().to_string()),
            _ if Instant::now() > deadline => break None,
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    if let Some(addr) = addr {
        let worker = output(&["sweep-worker", "--connect", &addr, "--workers", "1"]);
        let stderr = String::from_utf8_lossy(&worker.stderr);
        assert!(worker.status.success() || stderr.contains(&addr), "worker: {stderr}");
    }
    assert!(coordinator.wait().expect("coordinator exits").success());
    assert_eq!(
        std::fs::read(out.join("sweep.csv")).unwrap(),
        std::fs::read(local_out.join("sweep.csv")).unwrap(),
        "externally-assisted sweep must merge to the local artifact"
    );
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn a_spool_path_is_not_a_way_to_reach_a_coordinator() {
    // A spool path is no way to reach a coordinator: `sweep-worker SPOOL`
    // fails and names the flag that is.
    let spool = base_dir().join("no-connect");
    let out = output(&["sweep-worker", spool.to_str().unwrap(), "--workers", "1"]);
    assert!(!out.status.success(), "sweep-worker SPOOL ran");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--connect"), "unhelpful error: {stderr}");
}
