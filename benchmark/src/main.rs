//! `simcal-perf` — the repository's end-to-end performance ledger.
//!
//! ```text
//! simcal-perf --workload NAME --seed N --seconds S --trace 0|1   one run; the last
//!                                                stdout line is the JSON result
//! simcal-perf [--seed N] [--seconds S] [--traced] [--quick] [--out DIR]
//!             [--check-against PREV.json]        every workload, each in a fresh
//!                                                process; writes DIR/results.json
//! simcal-perf agree A.json B.json                do two result sets agree?
//! ```
//!
//! Run it through `benchmark/run.sh`, which builds it and `simcal-exp`
//! first. See `benchmark/README.md` for the workloads and metrics.

mod compare;
mod counters;
mod driver;
mod inputs;
mod json;
mod machine;
mod probes;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use driver::RunArgs;
use json::Json;

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `--trace 1`: this run is the traced one.
    trace: bool,
    /// `--traced`: the whole set runs untraced, then traced.
    traced_set: bool,
    quick: bool,
    out_dir: PathBuf,
    exp_bin: PathBuf,
    check_against: Option<PathBuf>,
    /// Where a child of the whole-set run leaves its record.
    record: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        traced_set: false,
        quick: false,
        out_dir: PathBuf::from("benchmark/out"),
        exp_bin: std::env::var_os("SIMCAL_EXP_BIN").map(PathBuf::from).unwrap_or_default(),
        check_against: None,
        record: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?.clone()),
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => o.traced_set = true,
            "--quick" => o.quick = true,
            "--out" => o.out_dir = PathBuf::from(value()?),
            "--exp-bin" => o.exp_bin = PathBuf::from(value()?),
            "--check-against" => o.check_against = Some(PathBuf::from(value()?)),
            "--record" => o.record = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if o.exp_bin.as_os_str().is_empty() {
        return Err("no simcal-exp binary: pass --exp-bin or set SIMCAL_EXP_BIN \
                    (benchmark/run.sh does)"
            .into());
    }
    Ok(o)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload, in this process. `Ok(false)` when a check failed.
fn run_one(o: &Options, workload: &str) -> Result<bool, String> {
    let record = driver::run(&RunArgs {
        workload: workload.to_string(),
        seed: o.seed,
        seconds: o.seconds,
        traced: o.trace,
        quick: o.quick,
        exp_bin: o.exp_bin.clone(),
        out_dir: o.out_dir.clone(),
    })?;
    match &o.record {
        // A child of the whole-set run: the parent reads the record.
        Some(path) => write_file(path, &record.to_json().to_pretty())?,
        None => println!("{}", record.contract_line()),
    }
    Ok(record.correct)
}

/// Every workload, each in a fresh process of this executable, untraced
/// and (with `--traced`) traced; merges their records into `results.json`.
fn run_set(o: &Options) -> Result<bool, String> {
    std::fs::create_dir_all(&o.out_dir).map_err(|e| format!("{}: {e}", o.out_dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut all_correct = true;
    let mut per_workload = Vec::new();
    for name in workloads::NAMES {
        let mut merged: Vec<(String, Json)> = Vec::new();
        for trace in [false, true] {
            if trace && !o.traced_set {
                continue;
            }
            let record = o.out_dir.join(format!("record-{}-{name}.json", std::process::id()));
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name, "--seed", &o.seed.to_string()])
                .args([
                    "--seconds",
                    &o.seconds.to_string(),
                    "--trace",
                    if trace { "1" } else { "0" },
                ])
                .arg("--out")
                .arg(&o.out_dir)
                .arg("--exp-bin")
                .arg(&o.exp_bin)
                .arg("--record")
                .arg(&record);
            if o.quick {
                cmd.arg("--quick");
            }
            let status = cmd.status().map_err(|e| format!("{}: {e}", exe.display()))?;
            all_correct &= status.success();
            let json = read_json(&record);
            std::fs::remove_file(&record).ok();
            for (key, value) in json?.members() {
                // The traced run's counts and fingerprint go under their
                // own keys; both runs check the same outputs.
                let key =
                    if trace && key != "per_layer" { format!("traced_{key}") } else { key.clone() };
                merged.push((key, value.clone()));
            }
        }
        per_workload.push((name, Json::Obj(merged)));
    }
    let results = Json::obj([
        ("schema", Json::Num(1.0)),
        ("comparable", Json::Bool(!o.quick)),
        ("seed", Json::Num(o.seed as f64)),
        ("seconds", Json::Num(o.seconds)),
        ("machine", machine::describe(&o.out_dir)),
        ("workloads", Json::obj(per_workload)),
    ]);
    let path = o.out_dir.join("results.json");
    write_file(&path, &results.to_pretty())?;
    println!("== wrote {}", path.display());
    if let Some(prev) = &o.check_against {
        let problems = compare::check_against(&read_json(prev)?, &results);
        for p in &problems {
            println!("CHECK FAILED: {p}");
        }
        if problems.is_empty() {
            println!("== fingerprints and exact counters match {}", prev.display());
        }
        all_correct &= problems.is_empty();
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("agree") {
        match &args[1..] {
            [a, b] => read_json(Path::new(a)).and_then(|a| {
                let b = read_json(Path::new(b))?;
                let bounds = read_json(Path::new("BENCHMARK.json"))?;
                let (report, agree) = compare::agree(&bounds, &a, &b)?;
                print!("{report}");
                Ok(agree)
            }),
            _ => Err("usage: simcal-perf agree A.json B.json".to_string()),
        }
    } else {
        parse(&args).and_then(|o| match &o.workload {
            Some(name) => run_one(&o, name),
            None => run_set(&o),
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("simcal-perf: {e}");
            ExitCode::from(2)
        }
    }
}
