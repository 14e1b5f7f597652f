//! TCP chaos oracle over the real binary: a coordinator listening on a
//! loopback socket, real worker *processes* dialing in — one of them
//! sabotaged by a seeded fault plan — and the merged CSV artifact must
//! still come out **byte-identical** to the single-process local driver.
//!
//! This is the end-to-end version of the in-crate `net::tests` chaos
//! oracle: real `exec`, real sockets, real process death.

use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

fn exe() -> &'static str {
    env!("CARGO_BIN_EXE_simcal-exp")
}

fn run(args: &[&str]) {
    let out = Command::new(exe()).args(args).output().expect("spawn simcal-exp");
    assert!(
        out.status.success(),
        "simcal-exp {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn base_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("simcal-exp-tcp-chaos-{}-{tag}", std::process::id()))
}

/// Poll the coordinator's spool for the advertised listen address.
fn wait_addr(spool: &Path) -> String {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if let Ok(addr) = std::fs::read_to_string(spool.join("addr")) {
            let addr = addr.trim().to_string();
            if !addr.is_empty() {
                return addr;
            }
        }
        assert!(Instant::now() < deadline, "coordinator never published its address");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn spawn_coordinator(spool: &Path, out: &Path, extra: &[&str]) -> Child {
    let mut args = vec![
        "sweep",
        "straggler",
        "--reduced",
        "--listen",
        "127.0.0.1:0",
        "--spool",
        spool.to_str().unwrap(),
        "--stall-timeout",
        "15",
        "--out",
        out.to_str().unwrap(),
    ];
    args.extend_from_slice(extra);
    Command::new(exe()).args(&args).spawn().expect("spawn coordinator")
}

fn spawn_worker(addr: &str, extra: &[&str]) -> Child {
    let mut args = vec!["sweep-worker", "--connect", addr, "--workers", "1"];
    args.extend_from_slice(extra);
    Command::new(exe()).args(&args).spawn().expect("spawn worker")
}

#[test]
fn tcp_fleet_with_a_killed_worker_matches_the_local_artifact() {
    let base = base_dir("kill");
    std::fs::remove_dir_all(&base).ok();

    let local_out = base.join("local");
    run(&["sweep", "straggler", "--reduced", "--out", local_out.to_str().unwrap()]);

    let spool = base.join("spool");
    let out = base.join("out");
    let mut coordinator = spawn_coordinator(&spool, &out, &[]);
    let addr = wait_addr(&spool);

    // One saboteur that dies after its first completed task, one healthy
    // worker that carries the rest. The saboteur's non-zero exit is
    // expected — that's the fault firing.
    let mut doomed = spawn_worker(&addr, &["--fault", "kill-after=1"]);
    let mut healthy = spawn_worker(&addr, &[]);

    assert!(coordinator.wait().expect("coordinator exits").success());
    doomed.wait().expect("doomed worker exits");
    healthy.wait().expect("healthy worker exits");

    assert_eq!(
        std::fs::read(out.join("sweep.csv")).unwrap(),
        std::fs::read(local_out.join("sweep.csv")).unwrap(),
        "a killed worker must not change the merged artifact"
    );
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn batched_fleet_with_mid_window_faults_matches_the_local_artifact() {
    let base = base_dir("batched");
    std::fs::remove_dir_all(&base).ok();

    let local_out = base.join("local");
    run(&["sweep", "straggler", "--reduced", "--out", local_out.to_str().unwrap()]);

    // Windowed handout on both ends: the coordinator pins a 4-task
    // window so the saboteur's dropped frame lands mid-window, and the
    // whole fleet speaks the pipelined protocol under an auth token.
    let spool = base.join("spool");
    let out = base.join("out");
    let mut coordinator =
        spawn_coordinator(&spool, &out, &["--claim-window", "4", "--auth-token", "chaos-secret"]);
    let addr = wait_addr(&spool);

    // The saboteur drops its second result frame (Hello(1), ClaimN(2),
    // AuthProof(3), Result(4), Result(5) — frame 5 vanishes mid-window),
    // then keeps serving; the holding list on its next claim betrays the
    // loss.
    let mut saboteur = spawn_worker(
        &addr,
        &["--claim-window", "4", "--auth-token", "chaos-secret", "--fault", "drop-frame=5"],
    );
    let mut healthy = spawn_worker(&addr, &["--auth-token", "chaos-secret"]);

    assert!(coordinator.wait().expect("coordinator exits").success());
    saboteur.wait().expect("saboteur exits");
    healthy.wait().expect("healthy worker exits");

    assert_eq!(
        std::fs::read(out.join("sweep.csv")).unwrap(),
        std::fs::read(local_out.join("sweep.csv")).unwrap(),
        "mid-window frame loss must not change the merged artifact"
    );
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn tcp_resume_finishes_what_a_first_coordinator_started() {
    let base = base_dir("resume");
    std::fs::remove_dir_all(&base).ok();

    let local_out = base.join("local");
    run(&["sweep", "straggler", "--reduced", "--out", local_out.to_str().unwrap()]);

    // First coordinator: a drive-by worker computes exactly one task and
    // leaves cleanly; the coordinator drains the rest locally and exits.
    let spool = base.join("spool");
    let out1 = base.join("out1");
    // A short stall window: once the one-shot worker leaves, the
    // coordinator should fall back to a local drain promptly. (The last
    // --stall-timeout on the command line wins.)
    let mut first = spawn_coordinator(&spool, &out1, &["--stall-timeout", "2"]);
    let addr = wait_addr(&spool);
    let mut one_shot = spawn_worker(&addr, &["--max-tasks", "1"]);
    assert!(first.wait().expect("first coordinator exits").success());
    one_shot.wait().expect("one-shot worker exits");

    // Second coordinator on the same spool with --resume: every result
    // is already on disk, so it merges without recomputing and without
    // tripping the spool-in-use guard.
    let out2 = base.join("out2");
    let mut second = spawn_coordinator(&spool, &out2, &["--resume"]);
    assert!(second.wait().expect("second coordinator exits").success());

    let local_csv = std::fs::read(local_out.join("sweep.csv")).unwrap();
    assert_eq!(std::fs::read(out1.join("sweep.csv")).unwrap(), local_csv);
    assert_eq!(
        std::fs::read(out2.join("sweep.csv")).unwrap(),
        local_csv,
        "a resumed coordinator must reproduce the identical artifact"
    );
    std::fs::remove_dir_all(&base).ok();
}
