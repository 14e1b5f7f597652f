//! One run of one workload: set-up, timed passes, output checks, and in the
//! traced run the spans, the replay and the probes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::inputs::fingerprint;
use crate::json::Json;
use crate::spec::{MetricSpec, END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::trace::{chrome_trace, Recorder};
use crate::workloads::{self, Cfg, Metrics, PassOut, Workload};
use crate::{machine, probes};

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
    pub exp_bin: PathBuf,
    pub out_dir: PathBuf,
}

/// What one run produced: the contract's fields, plus what the result
/// files keep next to them.
pub struct RunRecord {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub fingerprint: u64,
    /// `(name, value, unit, samples)` in specification order.
    pub metrics: Vec<(&'static str, f64, &'static str, usize)>,
    pub traced: bool,
}

impl RunRecord {
    /// The one-line result the driver reads.
    pub fn contract_line(&self) -> String {
        let metrics = self.metrics.iter().map(|&(name, value, unit, _)| {
            (name, Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]))
        });
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .to_line()
    }

    /// The record kept in `results.json`.
    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|&(name, value, unit, n)| {
            (
                name,
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::str(unit)),
                    ("n", Json::Num(n as f64)),
                ]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("ops_attempted", Json::Num(self.attempted as f64)),
            ("ops_failed", Json::Num(self.failed as f64)),
            ("fingerprint", Json::str(format!("{:016x}", self.fingerprint))),
            (if self.traced { "per_layer" } else { "end_to_end" }, Json::obj(metrics)),
        ])
    }
}

/// This process's directory for spools and artifacts, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn create(out_dir: &Path) -> Result<Self, String> {
        let dir = out_dir.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Passes run so far, the reference digests and the failure count.
struct Ledger {
    reference: Option<Vec<u64>>,
    attempted: u64,
    failed: u64,
}

impl Ledger {
    /// Run one pass and time it; a panic fails every operation of the
    /// pass, and every digest that differs from the first pass's is one
    /// more failure. Returns `(operations, seconds)`.
    fn pass(
        &mut self,
        w: &mut dyn Workload,
        workers: usize,
        rec: &Recorder,
        parent: Option<u32>,
    ) -> (u64, f64) {
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| w.pass(workers, rec, parent)));
        let secs = t0.elapsed().as_secs_f64();
        let out = out.unwrap_or_else(|_| {
            let ops = self.reference.as_ref().map_or(1, |r| r.len() as u64);
            PassOut { items: Vec::new(), ops, failed: ops }
        });
        self.attempted += out.ops;
        self.failed += out.failed;
        match &self.reference {
            None => self.reference = Some(out.items),
            Some(reference) if out.failed < out.ops => {
                self.failed += reference.iter().zip(&out.items).filter(|(a, b)| a != b).count()
                    as u64
                    + reference.len().abs_diff(out.items.len()) as u64;
            }
            Some(_) => {}
        }
        (out.ops, secs)
    }
}

fn print_metric(spec: &MetricSpec, value: f64, note: &str) {
    println!("  {:<38} {:>16.6} {:<6} {note}", spec.name, value, spec.unit);
}

pub fn run(args: &RunArgs) -> Result<RunRecord, String> {
    let scratch = Scratch::create(&args.out_dir)?;
    let cfg = Cfg {
        seed: args.seed,
        quick: args.quick,
        exp_bin: args.exp_bin.clone(),
        scratch: scratch.0.clone(),
    };
    println!(
        "== {} seed {} {}{}",
        args.workload,
        args.seed,
        if args.traced { "traced" } else { "untraced" },
        if args.quick {
            " QUICK (one repeat, budgets / 10: not comparable with full runs)"
        } else {
            ""
        }
    );
    println!("  machine {}", machine::describe(&scratch.0).to_line());
    if args.workload == workloads::UNGATED {
        println!("  not listed in BENCHMARK.json: reported, but held to no bound");
    }
    if args.traced {
        traced(args, &cfg)
    } else {
        untraced(args, &cfg)
    }
}

/// Set up repeatedly (at least 3 times and for half a second, so that a
/// microsecond set-up is the median of thousands of samples), check one
/// pass at each worker count, then time 1-worker passes for `seconds`.
///
/// Parallel throughput is not an end-to-end metric: on a small shared
/// machine the second core comes and goes for tens of seconds at a time,
/// so no bound on it would hold. The traced run reports it per layer.
fn untraced(args: &RunArgs, cfg: &Cfg) -> Result<RunRecord, String> {
    let off = Recorder::new(false);
    let p = machine::parallel_workers();
    let mut setups = Vec::new();
    let setup_start = Instant::now();
    let mut w = loop {
        let t0 = Instant::now();
        let w = workloads::setup(&args.workload, cfg, &off, None)?;
        setups.push(t0.elapsed().as_secs_f64());
        let enough = setups.len() >= 3 && setup_start.elapsed() >= Duration::from_millis(500);
        if args.quick || enough || setups.len() >= 100_000 {
            break w;
        }
    };
    println!("  unit: {}; {}", w.unit(), w.seed_note());

    let mut ledger = Ledger { reference: None, attempted: 0, failed: 0 };
    // The first pass fills caches and fixes the reference digests, and the
    // second shows that P workers reproduce them; both are checked but not
    // timed.
    ledger.pass(w.as_mut(), 1, &off, None);
    ledger.pass(w.as_mut(), p, &off, None);
    let mut throughput = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    loop {
        let (ops, secs) = ledger.pass(w.as_mut(), 1, &off, None);
        throughput.push(ops as f64 / secs);
        if args.quick || Instant::now() >= deadline {
            break;
        }
    }

    let rss = machine::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let values = [
        (median(&setups), setups.len(), "set-up, median".to_string()),
        (
            median(&throughput),
            throughput.len(),
            format!("{}/s at 1 worker, median of passes", w.unit()),
        ),
        (rss, 1, "VmHWM of this process".to_string()),
    ];
    let mut metrics = Vec::new();
    for (spec, (value, n, note)) in END_TO_END.iter().zip(values) {
        print_metric(spec, value, &format!("n={n}  {note}"));
        metrics.push((spec.name, value, spec.unit, n));
    }
    Ok(finish(ledger, metrics, false))
}

fn finish(
    ledger: Ledger,
    metrics: Vec<(&'static str, f64, &'static str, usize)>,
    traced: bool,
) -> RunRecord {
    let record = RunRecord {
        correct: ledger.failed == 0,
        attempted: ledger.attempted,
        failed: ledger.failed,
        fingerprint: fingerprint(ledger.reference.as_deref().unwrap_or(&[])),
        metrics,
        traced,
    };
    println!(
        "  ops_attempted {}  ops_failed {}  fingerprint {:016x}",
        record.attempted, record.failed, record.fingerprint
    );
    record
}

/// One traced set-up, then plain 1-worker, traced 1-worker and plain
/// P-worker passes in turn for `seconds`, then the replay and the probes.
/// Everything happens under top-level spans, which must cover the run.
fn traced(args: &RunArgs, cfg: &Cfg) -> Result<RunRecord, String> {
    let rec = Recorder::new(true);
    let off = Recorder::new(false);
    let p = machine::parallel_workers();
    let run_start = Instant::now();

    let open = rec.open("harness", None);
    let mut w = workloads::setup(&args.workload, cfg, &rec, Some(open.id))?;
    rec.close(open, "setup");
    println!("  unit: {}; {}", w.unit(), w.seed_note());

    let mut ledger = Ledger { reference: None, attempted: 0, failed: 0 };
    rec.time("harness", "pass:warm-up", None, |_| ledger.pass(w.as_mut(), 1, &off, None));
    let (mut plain, mut with_spans, mut parallel) = (Vec::new(), Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    loop {
        let ((ops, secs), _) =
            rec.time("harness", "pass:plain", None, |_| ledger.pass(w.as_mut(), 1, &off, None));
        plain.push(ops as f64 / secs);
        let ((ops, secs), _) = rec
            .time("harness", "pass:traced", None, |id| ledger.pass(w.as_mut(), 1, &rec, Some(id)));
        with_spans.push(ops as f64 / secs);
        let ((ops, secs), _) =
            rec.time("harness", "pass:parallel", None, |_| ledger.pass(w.as_mut(), p, &off, None));
        parallel.push(ops as f64 / secs);
        if args.quick || Instant::now() >= deadline {
            break;
        }
    }

    let spans = rec.spans();
    let mut measured = Metrics::new();
    let ((), _) = rec.time("harness", "replay", None, |id| {
        let out = w.layer_metrics(&rec, id, &spans, with_spans.len());
        ledger.failed += out.failed;
        measured.extend(out.metrics);
    });
    rec.time("harness", "probes", None, |_| measured.extend(probes::run(cfg)));
    let run_secs = run_start.elapsed().as_secs_f64();

    measured.push((w.par_metric().to_string(), median(&parallel) / (p as f64 * median(&plain))));
    measured.push((
        "trace.overhead_pct".to_string(),
        (median(&plain) / median(&with_spans) - 1.0) * 100.0,
    ));

    // The trace file, and the check that its top-level spans account for
    // the run.
    let spans = rec.spans();
    let trace_path = args.out_dir.join(format!("trace-{}.json", args.workload));
    std::fs::write(&trace_path, chrome_trace(&spans))
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    let top_secs: f64 =
        spans.iter().filter(|s| s.parent.is_none()).map(|s| s.dur_ns() as f64 / 1e9).sum();
    let coverage = top_secs / run_secs;
    println!(
        "  trace: {} spans -> {}; top-level spans cover {:.2}% of {:.3} s; {} traced passes",
        spans.len(),
        trace_path.display(),
        coverage * 100.0,
        run_secs,
        with_spans.len()
    );
    if !(0.98..=1.0001).contains(&coverage) {
        println!("  FAILED: top-level spans must sum to within 2% of the run's wall time");
        ledger.failed += 1;
    }

    let mut metrics = Vec::new();
    let mut absent = Vec::new();
    for spec in &PER_LAYER {
        match measured.iter().find(|(name, _)| name == spec.name) {
            Some(&(_, value)) => {
                print_metric(spec, value, if spec.exact { "exact" } else { "" });
                metrics.push((spec.name, value, spec.unit, 1));
            }
            None => {
                absent.push(spec.name);
                metrics.push((spec.name, 0.0, spec.unit, 0));
            }
        }
    }
    println!("  not exercised here (reported as 0): {}", absent.join(" "));
    for (name, _) in measured.iter().filter(|(n, _)| PER_LAYER.iter().all(|s| s.name != n)) {
        println!("  FAILED: measured {name}, which BENCHMARK.json does not list");
        ledger.failed += 1;
    }
    Ok(finish(ledger, metrics, true))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--quick` arguments for `workload`, writing under a directory of the
    /// test's own inside the (ignored) output directory.
    fn quick(workload: &str, traced: bool, test: &str) -> RunArgs {
        let out = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        RunArgs {
            workload: workload.to_string(),
            seed: 7,
            seconds: 1.0,
            traced,
            quick: true,
            // No workload run here starts the binary.
            exp_bin: PathBuf::from("no-such-simcal-exp"),
            out_dir: Path::new(out).join(format!("test-{test}-{}", std::process::id())),
        }
    }

    fn metric_names(line: &str) -> Vec<String> {
        let result = Json::parse(line).unwrap();
        let keys: Vec<&str> = result.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(result.get("failed").unwrap().as_f64(), Some(0.0));
        assert!(result.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
        let metrics = result.get("metrics").unwrap().members();
        for (name, m) in metrics {
            let keys: Vec<&str> = m.members().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["value", "unit"], "{name}");
        }
        metrics.iter().map(|(k, _)| k.clone()).collect()
    }

    #[test]
    fn quick_untraced_run_reports_every_end_to_end_metric() {
        let args = quick("sim-granularity", false, "untraced");
        let record = run(&args).unwrap();
        let expected: Vec<&str> = END_TO_END.iter().map(|s| s.name).collect();
        assert_eq!(metric_names(&record.contract_line()), expected);
        assert!(record.metrics.iter().all(|&(_, value, _, _)| value > 0.0));
        // The same seed gives the same inputs, so the same simulated results.
        assert_eq!(run(&args).unwrap().fingerprint, record.fingerprint);
        let other =
            run(&RunArgs { seed: 8, ..quick("sim-granularity", false, "untraced") }).unwrap();
        assert_ne!(other.fingerprint, record.fingerprint);
        std::fs::remove_dir_all(&args.out_dir).unwrap();
    }

    #[test]
    fn quick_traced_run_reports_every_per_layer_metric_and_writes_the_trace() {
        let args = quick("sim-granularity", true, "traced");
        let record = run(&args).unwrap();
        let expected: Vec<&str> = PER_LAYER.iter().map(|s| s.name).collect();
        assert_eq!(metric_names(&record.contract_line()), expected);
        let value = |name: &str| record.metrics.iter().find(|m| m.0 == name).unwrap().1;
        assert!(value("sim.simulate_ms.30s") > 0.0 && value("des.events") > 0.0);
        // `--quick` drops the 5 min setting, and nothing here calibrates.
        assert_eq!(value("sim.simulate_ms.5min"), 0.0);
        assert_eq!(value("calib.evals"), 0.0);
        let trace =
            std::fs::read_to_string(args.out_dir.join("trace-sim-granularity.json")).unwrap();
        let events = Json::parse(&trace).unwrap();
        assert!(events.get("traceEvents").unwrap().elements().len() > 10);
        std::fs::remove_dir_all(&args.out_dir).unwrap();
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let args = quick("no-such-workload", false, "unknown");
        assert!(run(&args).is_err_and(|e| e.contains("unknown workload")));
        std::fs::remove_dir_all(&args.out_dir).unwrap();
    }
}
