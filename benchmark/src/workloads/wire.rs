//! `sweep-wire`: the real `simcal-exp` binary sweeping the reduced registry
//! (a few ms of simulation) three ways, with the flag sets of the CI
//! smokes: in-process, through the spooled multi-process driver, and over
//! TCP loopback with dialled-in workers.
//!
//! The scenario codec, the spool and socket drivers and the binary's
//! start-up carry the time here and the simulator under a third. The
//! sweeps go through the CLI because its flags are what later changes must
//! keep, while the driver types behind them may not survive.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use simcal_sim::{Scenario, ScenarioRegistry};
use simcal_study::SweepRunner;

use super::sweep::{replay_direct, result_digest};
use super::{Cfg, LayerOut, PassOut, Workload};
use crate::inputs::Fnv;
use crate::stats;
use crate::trace::{Recorder, Span};

pub struct Wire {
    exp: PathBuf,
    scratch: PathBuf,
    /// Trios of sweeps run so far: each gets directories of its own, because
    /// a spool refuses to start over leftover state.
    sweeps: u64,
    grid: Vec<Scenario>,
    families: Vec<&'static str>,
}

pub fn setup(cfg: &Cfg, rec: &Recorder, parent: Option<u32>) -> Result<Wire, String> {
    let (registry, _) =
        rec.time("sim", "ScenarioRegistry::reduced", parent, |_| ScenarioRegistry::reduced());
    let wire = Wire {
        exp: cfg.exp_bin.clone(),
        scratch: cfg.scratch.clone(),
        sweeps: 0,
        grid: registry.scenarios(),
        families: registry.entries().iter().map(|e| e.family).collect(),
    };
    // One start of the binary, so a missing or broken one fails set-up
    // instead of every sweep.
    rec.time("exp", "scenarios list", parent, |_| list_scenarios(&wire.exp)).0?;
    Ok(wire)
}

/// `exp` with all three standard streams closed.
fn quiet(exp: &Path) -> Command {
    let mut cmd = Command::new(exp);
    cmd.stdin(Stdio::null()).stdout(Stdio::null()).stderr(Stdio::null());
    cmd
}

/// One start of the binary: `simcal-exp scenarios list --reduced`.
pub fn list_scenarios(exp: &Path) -> Result<(), String> {
    let status = quiet(exp)
        .args(["scenarios", "list", "--reduced"])
        .status()
        .map_err(|e| format!("cannot run {}: {e}", exp.display()))?;
    status.success().then_some(()).ok_or_else(|| format!("{} failed: {status}", exp.display()))
}

/// Wait for `child`; `false` unless it exited with success.
fn finished_ok(mut child: Child) -> bool {
    child.wait().is_ok_and(|status| status.success())
}

fn csv_digest(dir: &Path) -> Option<u64> {
    let bytes = std::fs::read(dir.join("sweep.csv")).ok()?;
    let mut h = Fnv::new();
    h.bytes(&bytes);
    Some(h.finish())
}

impl Wire {
    fn sweep(&self, out: &Path) -> Command {
        let mut cmd = quiet(&self.exp);
        cmd.args(["sweep", "--reduced", "--out"]).arg(out);
        cmd
    }

    fn local(&self, dir: &Path, workers: usize) -> bool {
        self.sweep(&dir.join("local"))
            .args(["--workers", &workers.to_string()])
            .spawn()
            .is_ok_and(finished_ok)
    }

    fn spooled(&self, dir: &Path, workers: usize) -> bool {
        self.sweep(&dir.join("spooled"))
            .arg("--distributed")
            .arg("--spool")
            .arg(dir.join("spool-files"))
            .args(["--spawn", &workers.to_string()])
            .spawn()
            .is_ok_and(finished_ok)
    }

    /// A coordinator listening on an ephemeral loopback port, and `workers`
    /// worker processes dialling the address it publishes in its spool.
    fn tcp(&self, dir: &Path, workers: usize) -> bool {
        let spool = dir.join("spool-tcp");
        let Ok(mut coordinator) = self
            .sweep(&dir.join("tcp"))
            .args(["--listen", "127.0.0.1:0", "--spool"])
            .arg(&spool)
            .spawn()
        else {
            return false;
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        let addr = loop {
            match std::fs::read_to_string(spool.join("addr")) {
                Ok(addr) if !addr.trim().is_empty() => break Some(addr.trim().to_string()),
                _ => {}
            }
            let gone = !matches!(coordinator.try_wait(), Ok(None));
            if gone || Instant::now() > deadline {
                break None;
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        let Some(addr) = addr else {
            coordinator.kill().ok();
            coordinator.wait().ok();
            return false;
        };
        let dialled: Vec<_> = (0..workers)
            .map(|_| quiet(&self.exp).args(["sweep-worker", "--connect", &addr]).spawn())
            .collect();
        let mut ok = true;
        for worker in dialled {
            ok &= worker.is_ok_and(finished_ok);
        }
        ok & finished_ok(coordinator)
    }
}

impl Workload for Wire {
    fn unit(&self) -> &'static str {
        "scenarios"
    }

    fn seed_note(&self) -> &'static str {
        "seed unused: the reduced registry carries its own seeds"
    }

    fn par_metric(&self) -> &'static str {
        "exp.par_efficiency"
    }

    /// `TRIOS` times over: one local, one spooled and one TCP sweep. A
    /// sweep whose process fails, or whose `sweep.csv` differs from the
    /// first local one by a byte, fails all its scenarios.
    ///
    /// A spooled or TCP sweep takes one of a few distinct times, depending
    /// on how the processes' polling intervals happen to line up; several
    /// trios per pass let each timing sample average over that.
    fn pass(&mut self, workers: usize, rec: &Recorder, parent: Option<u32>) -> PassOut {
        const TRIOS: u64 = 4;
        type Mode = fn(&Wire, &Path, usize) -> bool;
        let modes: [(&str, Mode); 3] =
            [("local", Wire::local), ("spooled", Wire::spooled), ("tcp", Wire::tcp)];
        let n = self.grid.len() as u64;
        let mut out = PassOut { items: Vec::new(), ops: TRIOS * 3 * n, failed: 0 };
        for _ in 0..TRIOS {
            self.sweeps += 1;
            let dir = self.scratch.join(format!("sweeps-{}", self.sweeps));
            if std::fs::create_dir_all(&dir).is_err() {
                out.failed += 3 * n;
                continue;
            }
            for (mode, run) in modes {
                let (ok, _) =
                    rec.time("exp", &format!("sweep:{mode}"), parent, |_| run(self, &dir, workers));
                let digest = csv_digest(&dir.join(mode)).filter(|_| ok);
                // The first local sweep of the pass is the reference.
                let reference = *out.items.first().unwrap_or(&digest.unwrap_or(0));
                if digest != Some(reference) {
                    out.failed += n;
                }
                if out.items.len() < modes.len() {
                    out.items.push(digest.unwrap_or(0));
                }
            }
            std::fs::remove_dir_all(&dir).ok();
        }
        out
    }

    fn layer_metrics(
        &mut self,
        rec: &Recorder,
        parent: u32,
        spans: &[Span],
        _traced_passes: usize,
    ) -> LayerOut {
        // sim / des: the registry the binary swept, run in this process.
        let (results, _) = rec.time("study", "SweepRunner::run", Some(parent), |_| {
            SweepRunner::new().with_workers(1).run(&self.grid)
        });
        let expected: Vec<u64> = results.iter().map(result_digest).collect();
        let mut out = replay_direct(&self.grid, &self.families, rec, parent).metrics(&expected);
        let m = &mut out.metrics;

        // exp / study: the three sweeps of the traced passes.
        let median_ms = |name: &str| {
            let ms: Vec<f64> =
                spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e6).collect();
            (!ms.is_empty()).then(|| stats::median(&ms))
        };
        if let (Some(local), Some(spooled), Some(tcp)) =
            (median_ms("sweep:local"), median_ms("sweep:spooled"), median_ms("sweep:tcp"))
        {
            m.push(("exp.sweep_local_ms".into(), local));
            m.push(("study.dist.overhead_ms".into(), spooled - local));
            m.push(("study.net.overhead_ms".into(), tcp - local));
        }
        out
    }
}
