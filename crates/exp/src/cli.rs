//! Argument parsing and experiment dispatch.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use simcal_calib::{
    calibrate_with_workers, BayesianOpt, Budget, Calibrator, CoordinateDescent, GridSearch,
    NelderMead, RandomSearch, SimulatedAnnealing,
};
use simcal_groundtruth::TruthParams;
use simcal_platform::PlatformKind;
use simcal_sim::{ScenarioRegistry, SimSession};
use simcal_storage::XRootDConfig;
use simcal_study::experiments::{
    ablation, fig2, generalization, table1, table2, table3, table4, table5, table6,
};
use simcal_study::report::{ascii_table, write_csv, write_csv_commented};
use simcal_study::sweep::SWEEP_CSV_SCHEMA;
use simcal_study::{
    param_space, CaseObjective, CaseStudy, ExperimentContext, FamilyObjective, FaultPlan,
    SweepResult, SweepRunner, TcpSweep, TcpWorker, WorkerOutcome, PARAM_NAMES,
};

/// Parsed command line.
pub struct Options {
    pub command: String,
    /// Positional words after the command (e.g. a scenario filter).
    pub args: Vec<String>,
    pub scale: String,
    pub evals: Option<u64>,
    pub granularity: Option<XRootDConfig>,
    pub t5_cost: Option<f64>,
    pub t6_cost: Option<f64>,
    pub fig2_cost: Option<f64>,
    pub seed: Option<u64>,
    pub workers: Option<usize>,
    /// `sweep --distributed|--listen --stall-timeout SECS`: zero-progress
    /// window before the coordinator presumes task holders dead.
    pub stall_timeout: Option<u64>,
    pub data_dir: PathBuf,
    pub out: Option<PathBuf>,
    pub reduced: bool,
    /// `sweep --distributed`: a loopback coordinator with spawned workers.
    pub distributed: bool,
    /// The coordinator's journal directory (`--distributed`/`--listen`).
    pub spool: Option<PathBuf>,
    /// Worker processes the distributed coordinator spawns.
    pub spawn: Option<usize>,
    /// `sweep --listen ADDR`: serve the sweep over TCP on this address.
    pub listen: Option<String>,
    /// `sweep-worker --connect ADDR`: dial a TCP coordinator.
    pub connect: Option<String>,
    /// Resume a crashed coordinator's spool instead of demanding a fresh
    /// directory.
    pub resume: bool,
    /// `sweep-worker --fault SPEC`: deterministic fault injection.
    pub fault: Option<String>,
    /// `sweep-worker --max-tasks N`: leave gracefully after N tasks.
    pub max_tasks: Option<u64>,
    /// `--claim-window N|auto`: pin the TCP task-handout window to N
    /// (`None` = `auto`, the transport's default window).
    pub claim_window: Option<usize>,
    /// `--auth-token TOKEN`: shared secret for the TCP transport's
    /// challenge/response handshake (mandatory for non-loopback
    /// `--listen`).
    pub auth_token: Option<String>,
    /// `calibrate --family PATTERN`: scenario-family calibration.
    pub family: Option<String>,
    /// Calibration algorithm name for `calibrate`.
    pub algo: String,
    /// `sweep --horizon SECS`: run each matching single-site scenario
    /// open-loop to this horizon with streaming SLO percentiles instead
    /// of to completion.
    pub horizon: Option<f64>,
    /// `sweep --wan-model MODEL`: force every matching scenario onto this
    /// bandwidth model (`maxmin`, `flow-level`, or `flow-level-degenerate`
    /// — the collapsed flow-level configuration that is bit-identical to
    /// max–min, used for artifact comparison).
    pub wan_model: Option<simcal_sim::WanModel>,
    /// Every [`FLAG_MODES`] entry whose flag was given, in order.
    given: Vec<(&'static str, &'static [Mode])>,
}

/// Which driver an invocation runs. Each flag in [`FLAG_MODES`] is read
/// by some of these and rejected by the rest.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mode {
    /// `sweep` through the in-process driver.
    Local,
    /// `sweep --distributed`.
    Distributed,
    /// `sweep --listen`.
    Listen,
    /// `sweep-worker --connect`.
    Connect,
    /// Any other command.
    Other,
}

impl Mode {
    fn label(self, command: &str) -> String {
        match self {
            Mode::Local => "`sweep`".to_string(),
            Mode::Distributed => "`sweep --distributed`".to_string(),
            Mode::Listen => "`sweep --listen`".to_string(),
            Mode::Connect => "`sweep-worker --connect`".to_string(),
            Mode::Other => format!("`{command}`"),
        }
    }
}

/// The flags only some drivers read, and the modes that read them. Any
/// other mode rejects them: accepting a flag nothing reads would silently
/// run something other than what was asked for.
const FLAG_MODES: &[(&str, &[Mode])] = {
    use Mode::{Connect, Distributed, Listen, Local};
    &[
        ("--horizon", &[Local, Distributed, Listen]),
        ("--wan-model", &[Local, Distributed, Listen]),
        ("--distributed", &[Distributed]),
        ("--listen", &[Listen]),
        ("--connect", &[Connect]),
        ("--spool", &[Distributed, Listen]),
        ("--spawn", &[Distributed]),
        ("--resume", &[Distributed, Listen]),
        ("--stall-timeout", &[Distributed, Listen, Connect]),
        ("--claim-window", &[Listen, Connect]),
        ("--auth-token", &[Listen, Connect]),
        ("--fault", &[Connect]),
        ("--max-tasks", &[Connect]),
    ]
};

impl Options {
    /// Parse a raw argument list.
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut opts = Options {
            command: String::new(),
            args: Vec::new(),
            scale: "default".to_string(),
            evals: None,
            granularity: None,
            t5_cost: None,
            t6_cost: None,
            fig2_cost: None,
            seed: None,
            workers: None,
            stall_timeout: None,
            data_dir: PathBuf::from("data/groundtruth"),
            out: None,
            reduced: false,
            distributed: false,
            spool: None,
            spawn: None,
            listen: None,
            connect: None,
            resume: false,
            fault: None,
            max_tasks: None,
            claim_window: None,
            auth_token: None,
            family: None,
            algo: "random".to_string(),
            horizon: None,
            wan_model: None,
            given: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(&entry) = FLAG_MODES.iter().find(|(flag, _)| flag == a) {
                opts.given.push(entry);
            }
            let mut take = |name: &str| -> Result<String, String> {
                it.next().cloned().ok_or_else(|| format!("{name} needs a value"))
            };
            match a.as_str() {
                "--scale" => opts.scale = take("--scale")?,
                "--evals" => {
                    let n: u64 = take("--evals")?.parse().map_err(|e| format!("--evals: {e}"))?;
                    if n == 0 {
                        return Err("--evals must be at least 1".to_string());
                    }
                    opts.evals = Some(n);
                }
                "--granularity" => {
                    opts.granularity = Some(parse_granularity(&take("--granularity")?)?)
                }
                "--t5-cost" => opts.t5_cost = Some(seconds("--t5-cost", &take("--t5-cost")?)?),
                "--t6-cost" => opts.t6_cost = Some(seconds("--t6-cost", &take("--t6-cost")?)?),
                "--fig2-cost" => {
                    opts.fig2_cost = Some(seconds("--fig2-cost", &take("--fig2-cost")?)?)
                }
                "--seed" => {
                    opts.seed = Some(take("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?)
                }
                "--workers" => {
                    let n: usize =
                        take("--workers")?.parse().map_err(|e| format!("--workers: {e}"))?;
                    if n == 0 {
                        return Err("--workers must be at least 1".to_string());
                    }
                    opts.workers = Some(n);
                }
                "--stall-timeout" => {
                    opts.stall_timeout = Some(
                        take("--stall-timeout")?
                            .parse()
                            .map_err(|e| format!("--stall-timeout: {e}"))?,
                    )
                }
                "--data-dir" => opts.data_dir = PathBuf::from(take("--data-dir")?),
                "--out" => opts.out = Some(PathBuf::from(take("--out")?)),
                "--reduced" => opts.reduced = true,
                "--distributed" => opts.distributed = true,
                "--spool" => opts.spool = Some(PathBuf::from(take("--spool")?)),
                "--listen" => opts.listen = Some(take("--listen")?),
                "--connect" => opts.connect = Some(take("--connect")?),
                "--resume" => opts.resume = true,
                "--fault" => opts.fault = Some(take("--fault")?),
                "--claim-window" => {
                    let v = take("--claim-window")?;
                    if v != "auto" {
                        let n: usize = v.parse().map_err(|e| format!("--claim-window: {e}"))?;
                        if n == 0 {
                            return Err("--claim-window must be at least 1 (or `auto`)".to_string());
                        }
                        opts.claim_window = Some(n);
                    }
                }
                "--auth-token" => opts.auth_token = Some(take("--auth-token")?),
                "--max-tasks" => {
                    opts.max_tasks = Some(
                        take("--max-tasks")?.parse().map_err(|e| format!("--max-tasks: {e}"))?,
                    )
                }
                "--spawn" => {
                    opts.spawn =
                        Some(take("--spawn")?.parse().map_err(|e| format!("--spawn: {e}"))?)
                }
                "--family" => opts.family = Some(take("--family")?),
                "--algo" => opts.algo = take("--algo")?,
                "--horizon" => opts.horizon = Some(seconds("--horizon", &take("--horizon")?)?),
                "--wan-model" => opts.wan_model = Some(parse_wan_model(&take("--wan-model")?)?),
                cmd if opts.command.is_empty() && !cmd.starts_with('-') => {
                    opts.command = cmd.to_string()
                }
                // Only the scenario commands take positional words; a
                // stray positional after a paper command stays an error
                // (e.g. `table3 quick` with a forgotten `--scale`).
                word if matches!(
                    opts.command.as_str(),
                    "scenarios" | "sweep" | "sweep-worker" | "calibrate"
                ) && !word.starts_with('-') =>
                {
                    opts.args.push(word.to_string())
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if opts.command.is_empty() {
            opts.command = "help".to_string();
        }
        Ok(opts)
    }

    /// The driver this invocation runs.
    fn mode(&self) -> Result<Mode, String> {
        Ok(match self.command.as_str() {
            "sweep" => match (self.listen.is_some(), self.distributed) {
                (true, true) => {
                    return Err("--listen and --distributed select different sweep drivers; \
                                pass one"
                        .to_string())
                }
                (true, false) => Mode::Listen,
                (false, true) => Mode::Distributed,
                (false, false) => Mode::Local,
            },
            "sweep-worker" => Mode::Connect,
            _ => Mode::Other,
        })
    }

    /// Reject every given flag the invocation's driver does not read.
    fn reject_unread_flags(&self) -> Result<(), String> {
        let mode = self.mode()?;
        for (flag, modes) in &self.given {
            if !modes.contains(&mode) {
                let readers: Vec<String> = modes.iter().map(|m| m.label("")).collect();
                return Err(format!(
                    "{flag} is read only by {}; {} does not take it",
                    readers.join(", "),
                    mode.label(&self.command)
                ));
            }
        }
        Ok(())
    }

    /// Build the experiment context this invocation asks for.
    pub fn context(&self) -> Result<ExperimentContext, String> {
        let case = if self.reduced {
            Arc::new(CaseStudy::generate_reduced())
        } else {
            Arc::new(
                CaseStudy::load_or_generate(&self.data_dir)
                    .map_err(|e| format!("ground truth: {e}"))?,
            )
        };
        let mut ctx = match self.scale.as_str() {
            "quick" => ExperimentContext::quick(case),
            "default" => ExperimentContext::new(case),
            "full" => ExperimentContext::full(case),
            other => return Err(format!("unknown scale {other:?}")),
        };
        if let Some(n) = self.evals {
            ctx.budget = Budget::Evaluations(n);
        }
        if let Some(g) = self.granularity {
            ctx.granularity = g;
        }
        if let Some(c) = self.t5_cost {
            ctx.t5_cost_secs = c;
        }
        if let Some(c) = self.t6_cost {
            ctx.t6_cost_secs = c;
        }
        if let Some(c) = self.fig2_cost {
            ctx.fig2_cost_secs = c;
        }
        if let Some(s) = self.seed {
            ctx.seed = s;
        }
        if let Some(w) = self.workers {
            ctx.workers = Some(w);
        }
        Ok(ctx)
    }
}

/// Parse a flag's value as a positive, finite number of seconds.
fn seconds(flag: &str, v: &str) -> Result<f64, String> {
    let s: f64 = v.parse().map_err(|e| format!("{flag}: {e}"))?;
    if !(s > 0.0 && s.is_finite()) {
        return Err(format!("{flag} must be a positive number of seconds"));
    }
    Ok(s)
}

fn parse_wan_model(s: &str) -> Result<simcal_sim::WanModel, String> {
    use simcal_sim::{FlowLevelCfg, WanModel};
    match s {
        "maxmin" => Ok(WanModel::MaxMin),
        "flow-level" => Ok(WanModel::FlowLevel(FlowLevelCfg::default())),
        "flow-level-degenerate" => Ok(WanModel::FlowLevel(FlowLevelCfg::degenerate())),
        other => Err(format!(
            "--wan-model: unknown model {other:?} (use maxmin|flow-level|flow-level-degenerate)"
        )),
    }
}

fn parse_granularity(s: &str) -> Result<XRootDConfig, String> {
    match s {
        "1s" => Ok(XRootDConfig::paper_1s()),
        "3s" => Ok(XRootDConfig::paper_3s()),
        "30s" => Ok(XRootDConfig::paper_30s()),
        "5min" => Ok(XRootDConfig::paper_5min()),
        other => Err(format!("unknown granularity {other:?} (use 1s|3s|30s|5min)")),
    }
}

const HELP: &str = "\
simcal-exp — regenerate the tables and figures of
\"Automated Calibration of Parallel and Distributed Computing Simulators\"

Usage: simcal-exp <command> [args] [options]

Paper commands:
  table1..table6 | fig2 | ablation | generalization | all | gt

Scenario commands:
  scenarios list [PATTERN]      list registry scenarios (name/family filter;
                                case-insensitive substring; any * is an
                                anchored glob: cms-*, *-backlog, arr*poisson)
  sweep [PATTERN]               run matching registry scenarios through the
                                sharded parallel sweep driver
  sweep [PATTERN] --distributed --spool DIR [--spawn N]
                                serve the sweep on a loopback port to N
                                spawned `sweep-worker --connect` processes,
                                draining it alongside them; results are
                                journaled to DIR and bit-identical to the
                                local driver
  sweep [PATTERN] --listen ADDR --spool DIR
                                serve the sweep over TCP: an elastic fleet of
                                `sweep-worker --connect` processes dials in;
                                the bound address is published to DIR/addr
                                (host:0 picks a free port)
  sweep-worker --connect ADDR   dial a coordinator (its DIR/addr), claim tasks
                                over the socket, stream results back
                                (reconnects with backoff; heartbeats keep the
                                claim alive)
  calibrate PLATFORM            fit the 4-parameter space to one platform's
                                ground truth (scfn|fcfn|scsn|fcsn)
  calibrate --family PATTERN    fit one parameter set against every matching
                                registry scenario at once (scenario-driven
                                ground truth per member)

Options:
  --scale quick|default|full    scale preset (budgets, granularity)
  --evals N                     Table III/IV / calibrate evaluation budget
  --granularity 1s|3s|30s|5min  simulator granularity for Tables III-V
  --t5-cost S                   Table V per-calibration cost budget (s)
  --t6-cost S                   Table VI per-calibration cost budget (s)
  --fig2-cost S                 Figure 2 per-calibration cost budget (s)
  --seed N                      algorithm RNG seed
  --workers N                   parallel evaluation / sweep workers
                                (threads per process when --distributed)
  --horizon SECS                sweep scenarios open-loop to this horizon with
                                streaming P2 wait/slowdown percentiles and SLO
                                attainment instead of running to completion
                                (single-site scenarios only; `sweep` only)
  --wan-model MODEL             sweep bandwidth-model override: maxmin (the
                                incremental max-min solver), flow-level (per-
                                flow propagation delay, FIFO bottleneck queue,
                                windowed AIMD congestion control), or
                                flow-level-degenerate (flow-level collapsed to
                                zero delay / unbounded window — bit-identical
                                to maxmin, for artifact comparison); `sweep`
                                only
  --stall-timeout SECS          distributed sweep zero-progress window before
                                unfinished tasks are requeued and drained
                                locally (default 30); also the per-connection
                                heartbeat deadline (and the worker's reply
                                patience)
  --resume                      reuse a crashed coordinator's spool: validate
                                the manifest, keep finished results, queue
                                the rest (with --distributed/--listen)
  --fault SPEC                  sweep-worker fault injection: kill-after=N,
                                drop-frame=N, truncate-frame=N,
                                partition-after=N, delay-every=KxMS,
                                corrupt-result=N, or seed=N (derive one fault)
  --max-tasks N                 sweep-worker leaves gracefully after N tasks
  --claim-window N|auto         TCP task-handout window: at most N granted
                                tasks without a result per connection (1 =
                                one task per claim); auto is the default of 4
                                (sweep --listen / sweep-worker --connect)
  --auth-token TOKEN            TCP transport shared secret (HMAC challenge/
                                response; required to --listen on an interface
                                other than loopback)
  --algo NAME                   calibrate algorithm (random|grid|coordinate|
                                anneal|nelder-mead|bayes; default random)
  --spool DIR / --spawn N       distributed sweep journal and worker count
  --data-dir PATH               ground-truth CSV cache (default data/groundtruth)
  --out DIR                     also write CSV artifacts to DIR
  --reduced                     reduced-scale case study / scenario registry
";

/// The registry this invocation addresses (`--reduced` selects the
/// scaled-down twin).
fn registry_for(opts: &Options) -> ScenarioRegistry {
    if opts.reduced {
        ScenarioRegistry::reduced()
    } else {
        ScenarioRegistry::builtin()
    }
}

/// The scenario filter: the first positional after the command, with the
/// `list` keyword of `scenarios list` skipped (for that command only —
/// `sweep list` filters for a scenario literally named like "list").
fn scenario_pattern(opts: &Options) -> &str {
    let args: &[String] = &opts.args;
    let rest = match args.first().map(String::as_str) {
        Some("list") if opts.command == "scenarios" => &args[1..],
        _ => args,
    };
    rest.first().map(String::as_str).unwrap_or("")
}

/// `scenarios list [PATTERN]`: print the registry as a table.
fn run_scenarios(opts: &Options) -> Result<(), String> {
    let reg = registry_for(opts);
    let pat = scenario_pattern(opts);
    let entries = reg.matching(pat);
    if entries.is_empty() {
        return Err(format!("no scenario matches {pat:?}"));
    }
    let headers: Vec<String> = [
        "name", "family", "platform", "nodes", "cores", "jobs", "icd", "policy", "arrival", "wan",
        "horizon", "summary",
    ]
    .map(String::from)
    .to_vec();
    let rows: Vec<Vec<String>> = entries
        .iter()
        .map(|e| {
            let sc = &e.scenario;
            let arrival = match &sc.workload {
                simcal_sim::WorkloadSource::Spec { spec, .. } => spec.arrival.label(),
                simcal_sim::WorkloadSource::Concrete(w) => {
                    if w.has_releases() {
                        "concrete"
                    } else {
                        "immediate"
                    }
                }
            };
            vec![
                sc.name.clone(),
                e.family.to_string(),
                sc.platform.name.clone(),
                sc.platform.node_count().to_string(),
                sc.platform.total_cores().to_string(),
                sc.workload.n_jobs().to_string(),
                format!("{:.1}", sc.cache.icd),
                sc.config.scheduler.label().to_string(),
                arrival.to_string(),
                sc.config.wan_model.name().to_string(),
                match &sc.horizon {
                    Some(h) => format!("{:.0}s", h.duration),
                    None => "-".to_string(),
                },
                e.summary.clone(),
            ]
        })
        .collect();
    print!("{}", ascii_table(&headers, &rows));
    println!("\n{} scenarios ({} shown)", reg.len(), rows.len());
    Ok(())
}

/// `sweep [PATTERN]`: run matching scenarios through the in-process sweep
/// driver, or through the TCP coordinator — serving a fleet that dials in
/// (`--listen ADDR`), or a loopback fleet it spawns and drains alongside
/// (`--distributed --spawn N`). Every path produces bit-identical results
/// and byte-identical `--out` artifacts.
fn run_sweep(opts: &Options) -> Result<(), String> {
    let reg = registry_for(opts);
    let pat = scenario_pattern(opts);
    let mut grid: Vec<_> = reg.matching(pat).into_iter().map(|e| e.scenario.clone()).collect();
    if grid.is_empty() {
        return Err(format!("no scenario matches {pat:?}"));
    }
    if let Some(model) = &opts.wan_model {
        if matches!(model, simcal_sim::WanModel::FlowLevel(_)) {
            let offenders: Vec<&str> = grid
                .iter()
                .filter(|sc| !scenario_has_wan_traffic(sc))
                .map(|sc| sc.name.as_str())
                .collect();
            if !offenders.is_empty() {
                return Err(format!(
                    "--wan-model flow-level: scenario(s) {} have no WAN component (every \
                     input is cached and no job writes output) — the flow-level model \
                     would never see a flow; narrow the pattern or use --wan-model maxmin",
                    offenders.join(", ")
                ));
            }
        }
        for sc in &mut grid {
            sc.config.wan_model = model.clone();
        }
    }
    if let Some(dur) = opts.horizon {
        // Horizon mode and the multi-site path are mutually
        // exclusive (Scenario::validate enforces it); reject the
        // combination up front instead of silently dropping matches or
        // panicking mid-sweep.
        let offenders: Vec<&str> =
            grid.iter().filter(|sc| sc.multisite.is_some()).map(|sc| sc.name.as_str()).collect();
        if !offenders.is_empty() {
            return Err(format!(
                "--horizon cannot run multi-site scenario(s) {}: open-loop horizon mode \
                 streams percentiles from a single engine, which the \
                 multi-site driver does not provide — narrow the pattern to exclude them",
                offenders.join(", ")
            ));
        }
        for sc in &mut grid {
            let slo = sc.horizon.map(|h| h.slo_wait);
            let mut h = simcal_sim::HorizonSpec::new(dur);
            if let Some(slo) = slo {
                h = h.with_slo_wait(slo);
            }
            sc.horizon = Some(h);
        }
    }
    let t0 = Instant::now();
    let (results, mode) = if opts.listen.is_some() || opts.distributed {
        let spool = opts.spool.as_ref().ok_or(if opts.distributed {
            "--distributed needs --spool DIR"
        } else {
            "--listen needs --spool DIR"
        })?;
        let threads = opts.workers.unwrap_or(1);
        let listen = opts.listen.clone().unwrap_or_else(|| "127.0.0.1:0".to_string());
        let mut driver = TcpSweep::new(spool, listen)
            .with_threads(threads)
            .with_resume(opts.resume)
            .with_claim_window(opts.claim_window);
        if let Some(secs) = opts.stall_timeout {
            driver = driver.with_stall_timeout(std::time::Duration::from_secs(secs));
        }
        if let Some(seed) = opts.seed {
            driver = driver.with_seed(seed);
        }
        if let Some(token) = &opts.auth_token {
            driver = driver.with_auth_token(token.clone());
        }
        let spawn = opts.spawn.unwrap_or(0);
        if opts.distributed {
            let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
            let worker_args = ["sweep-worker", "--workers", &threads.to_string()];
            driver = driver
                .with_spawn(spawn)
                .with_worker_command(exe, worker_args.map(String::from).to_vec());
        }
        let (results, summary) = driver.run(&grid).map_err(|e| e.to_string())?;
        if !summary.is_clean() {
            eprintln!("[simcal-exp] recovery summary: {summary}");
        }
        if opts.distributed {
            (results, format!("{} worker process(es) x {threads} thread(s)", spawn + 1))
        } else {
            for report in &summary.per_worker {
                eprintln!("[simcal-exp] worker {report}");
            }
            (
                results,
                format!(
                    "tcp fleet ({} connection(s), {} left cleanly, {} dead)",
                    summary.workers_joined, summary.workers_left, summary.dead_workers
                ),
            )
        }
    } else {
        let mut runner = SweepRunner::new();
        if let Some(w) = opts.workers {
            runner = runner.with_workers(w);
        }
        let workers = runner.workers().min(grid.len());
        (runner.run(&grid), format!("{workers} workers"))
    };
    let wall = t0.elapsed().as_secs_f64();

    let headers: Vec<String> = [
        "scenario",
        "makespan_s",
        "mean_job_s",
        "mean_wait_s",
        "max_wait_s",
        "wait_p50_s",
        "wait_p99_s",
        "slowdown_p99",
        "slo",
        "events",
        "trace_hash",
        "sim_wall_ms",
    ]
    .map(String::from)
    .to_vec();
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("{:.2}", r.makespan),
                format!("{:.2}", r.mean_job_time),
                format!("{:.2}", r.mean_queue_wait),
                format!("{:.2}", r.max_queue_wait),
                format!("{:.2}", r.wait_p50),
                format!("{:.2}", r.wait_p99),
                format!("{:.2}", r.slowdown_p99),
                format!("{:.3}", r.slo_attained),
                r.events.to_string(),
                format!("{:016x}", r.trace_hash),
                format!("{:.2}", r.wall_seconds * 1e3),
            ]
        })
        .collect();
    let mut model_names: Vec<&str> = grid.iter().map(|sc| sc.config.wan_model.name()).collect();
    model_names.sort_unstable();
    model_names.dedup();
    println!(
        "wan model: {}{}",
        model_names.join(", "),
        if opts.wan_model.is_some() { " (forced by --wan-model)" } else { "" }
    );
    print!("{}", ascii_table(&headers, &rows));
    println!(
        "\n{} scenarios in {:.2} s on {mode} ({:.1} scenarios/s)",
        results.len(),
        wall,
        results.len() as f64 / wall
    );
    // Event-queue health, summed over the sweep. Counters are only
    // captured for in-process single-site runs (zero elsewhere), so the
    // line stays quiet for distributed and multi-site-only sweeps.
    let pushes: u64 = results.iter().map(|r| r.event_pushes).sum();
    if pushes > 0 {
        println!(
            "event queue: {pushes} pushes, {} stale drops",
            results.iter().map(|r| r.event_stale_drops).sum::<u64>(),
        );
    }
    if let Some(dir) = &opts.out {
        write_sweep_csv(&dir.join("sweep.csv"), &results)?;
    }
    Ok(())
}

/// Whether a scenario's workload ever crosses the WAN: any uncached input
/// file streams in over it, and any job output writes back over it. A
/// scenario with every input cached and zero output bytes never starts a
/// WAN flow, so requesting the flow-level model for it is a user error.
fn scenario_has_wan_traffic(sc: &simcal_sim::Scenario) -> bool {
    if sc.cache.icd < 1.0 {
        return true;
    }
    match &sc.workload {
        simcal_sim::WorkloadSource::Spec { spec, .. } => spec.output_bytes.mean() > 0.0,
        simcal_sim::WorkloadSource::Concrete(w) => w.jobs.iter().any(|j| j.output_bytes > 0.0),
    }
}

/// Write the deterministic sweep artifact (identical bytes for identical
/// results, whichever driver produced them).
fn write_sweep_csv(path: &std::path::Path, results: &[SweepResult]) -> Result<(), String> {
    let rows: Vec<Vec<String>> = results.iter().map(SweepResult::csv_row).collect();
    write_csv_commented(path, SWEEP_CSV_SCHEMA, &SweepResult::csv_headers(), &rows)
        .map_err(|e| e.to_string())
}

/// The `sweep-worker` subcommand: dial the coordinator at `--connect ADDR`,
/// claim tasks over the socket, run them, stream results back, exit when
/// drained.
fn run_sweep_worker(opts: &Options) -> Result<(), String> {
    let addr = opts.connect.as_ref().ok_or(
        "sweep-worker needs --connect ADDR (the coordinator's address, published in its \
         SPOOL/addr)",
    )?;
    let mut worker = TcpWorker::new(addr.clone())
        .with_threads(opts.workers.unwrap_or(1))
        .with_name(format!("pid-{}", std::process::id()))
        .with_claim_window(opts.claim_window);
    if let Some(seed) = opts.seed {
        worker = worker.with_seed(seed);
    }
    if let Some(token) = &opts.auth_token {
        worker = worker.with_auth_token(token.clone());
    }
    if let Some(n) = opts.max_tasks {
        worker = worker.with_max_tasks(n);
    }
    if let Some(secs) = opts.stall_timeout {
        worker = worker.with_patience(std::time::Duration::from_secs(secs));
    }
    if let Some(spec) = &opts.fault {
        let plan = FaultPlan::parse(spec).map_err(|e| format!("--fault: {e}"))?;
        eprintln!("[simcal-exp] sweep-worker fault plan: {plan}");
        worker = worker.with_fault(plan);
    }
    match worker.run().map_err(|e| e.to_string())? {
        WorkerOutcome::Drained { completed } => {
            eprintln!("[simcal-exp] sweep-worker drained after {completed} task(s) via {addr}")
        }
        WorkerOutcome::Killed { completed } => {
            eprintln!(
                "[simcal-exp] sweep-worker killed by its fault plan after {completed} task(s)"
            )
        }
    }
    Ok(())
}

/// Construct the named calibration algorithm.
fn make_algo(name: &str, seed: u64) -> Result<Box<dyn Calibrator>, String> {
    Ok(match name {
        "random" => Box::new(RandomSearch::new(seed)),
        "grid" => Box::new(GridSearch::new()),
        "coordinate" => Box::new(CoordinateDescent::new(seed)),
        "anneal" => Box::new(SimulatedAnnealing::new(seed)),
        "nelder-mead" => Box::new(NelderMead::new(seed)),
        "bayes" => Box::new(BayesianOpt::new(seed)),
        other => {
            return Err(format!(
                "unknown algorithm {other:?} (use random|grid|coordinate|anneal|nelder-mead|bayes)"
            ))
        }
    })
}

/// The calibration ICD grid for `calibrate --family`: the endpoints plus
/// the midpoint (each member's ground truth is generated over these).
const FAMILY_ICDS: [f64; 3] = [0.0, 0.5, 1.0];

/// `calibrate PLATFORM | calibrate --family PATTERN`: fit the paper's
/// 4-parameter space against one platform's ground truth, or against every
/// scenario in a registry family at once.
fn run_calibrate(opts: &Options) -> Result<(), String> {
    let seed = opts.seed.unwrap_or(42);
    let evals = opts.evals.unwrap_or(40);
    let mut algo = make_algo(&opts.algo, seed)?;
    let space = param_space();
    let value_rows = |values: &[f64]| -> Vec<Vec<String>> {
        PARAM_NAMES
            .iter()
            .zip(values)
            .map(|(name, v)| vec![name.to_string(), format!("{v:.4e}")])
            .collect()
    };

    if let Some(pattern) = &opts.family {
        if !opts.args.is_empty() {
            return Err("calibrate takes a platform or --family, not both".to_string());
        }
        let reg = registry_for(opts);
        let mut truth = TruthParams::case_study();
        if opts.reduced {
            // The reduced registry's workloads are small; match them with
            // the reduced emulator granularity (as the reduced case study).
            truth.granularity = XRootDConfig::new(8e6, 2e6);
        }
        let t0 = Instant::now();
        let fam = FamilyObjective::from_registry(&reg, pattern, &FAMILY_ICDS, &truth)?;
        eprintln!(
            "[simcal-exp] family ground truth ({} members x {} ICDs) in {:.1?}",
            fam.members().len(),
            FAMILY_ICDS.len(),
            t0.elapsed()
        );
        let result = calibrate_with_workers(
            algo.as_mut(),
            &fam,
            &space,
            Budget::Evaluations(evals),
            opts.workers,
        );
        let mut session = SimSession::new();
        let scores = fam.member_scores_session(&mut session, &result.best_values);
        let mut rows: Vec<Vec<String>> = fam
            .members()
            .iter()
            .zip(&scores)
            .map(|(m, &s)| vec![m.name().to_string(), format!("{s:.2}")])
            .collect();
        rows.push(vec!["(aggregate)".to_string(), format!("{:.2}", result.best_error)]);
        println!(
            "family {:?}: {} calibrated over {} members, {} evaluations ({} capped)",
            pattern,
            result.algorithm,
            fam.members().len(),
            result.evaluations,
            result.capped
        );
        print!("{}", ascii_table(&["member".to_string(), "mre_pct".to_string()], &rows));
        println!();
        print!(
            "{}",
            ascii_table(
                &["parameter".to_string(), "value".to_string()],
                &value_rows(&result.best_values)
            )
        );
        debug_assert!(
            (FamilyObjective::aggregate(&scores) - result.best_error).abs() < 1e-9,
            "reported member scores must reproduce the best error"
        );
        Ok(())
    } else {
        let label = opts
            .args
            .first()
            .ok_or("calibrate needs a platform (scfn|fcfn|scsn|fcsn) or --family PATTERN")?;
        let kind = PlatformKind::parse(label)
            .ok_or_else(|| format!("unknown platform {label:?} (use scfn|fcfn|scsn|fcsn)"))?;
        let ctx = opts.context()?;
        let obj = CaseObjective::full(&ctx.case, kind, ctx.granularity);
        let result = calibrate_with_workers(
            algo.as_mut(),
            &obj,
            &space,
            Budget::Evaluations(evals),
            ctx.workers,
        );
        println!(
            "{}: {} calibrated, {} evaluations ({} capped), best MRE {:.2}%",
            kind.label(),
            result.algorithm,
            result.evaluations,
            result.capped,
            result.best_error
        );
        print!(
            "{}",
            ascii_table(
                &["parameter".to_string(), "value".to_string()],
                &value_rows(&result.best_values)
            )
        );
        Ok(())
    }
}

/// Entry point used by `main`.
pub fn run(args: &[String]) -> Result<(), String> {
    let opts = Options::parse(args)?;
    opts.reject_unread_flags()?;
    match opts.command.as_str() {
        "help" | "--help" | "-h" => {
            println!("{HELP}");
            return Ok(());
        }
        "table1" => {
            // No simulation needed.
            println!("{}", table1::render(&table1::run()));
            return Ok(());
        }
        "table2" => {
            println!("{}", table2::render(&table2::run()));
            return Ok(());
        }
        // The scenario subsystem needs no ground truth: dispatch before
        // the (potentially expensive) context construction. (`calibrate`
        // builds a context itself only in single-platform mode.)
        "scenarios" => return run_scenarios(&opts),
        "sweep" => return run_sweep(&opts),
        "sweep-worker" => return run_sweep_worker(&opts),
        "calibrate" => return run_calibrate(&opts),
        _ => {}
    }

    let t0 = Instant::now();
    let ctx = opts.context()?;
    eprintln!("[simcal-exp] case study ready in {:.1?}", t0.elapsed());

    let run_one = |name: &str, ctx: &ExperimentContext| -> Result<(), String> {
        let t = Instant::now();
        match name {
            "table3" => {
                let r = table3::run(ctx);
                println!("{}", table3::render(&r));
                if let Some(dir) = &opts.out {
                    let headers: Vec<String> = std::iter::once("method".to_string())
                        .chain(r.platforms.iter().map(|p| p.label().to_lowercase()))
                        .collect();
                    let rows: Vec<Vec<String>> = r
                        .methods
                        .iter()
                        .zip(&r.mre)
                        .map(|(m, row)| {
                            std::iter::once(m.clone())
                                .chain(row.iter().map(|v| format!("{v:.4}")))
                                .collect()
                        })
                        .collect();
                    write_csv(&dir.join("table3.csv"), &headers, &rows)
                        .map_err(|e| e.to_string())?;
                }
            }
            "table4" => {
                let r = table4::run(ctx);
                println!("{}", table4::render(&r));
                if let Some(dir) = &opts.out {
                    let headers: Vec<String> =
                        ["method", "core_speed", "local_read_bw", "lan_bw", "wan_bw", "mre"]
                            .map(String::from)
                            .to_vec();
                    let rows: Vec<Vec<String>> = r
                        .rows
                        .iter()
                        .map(|row| {
                            vec![
                                row.method.clone(),
                                format!("{:.1}", row.values[0]),
                                format!("{:.1}", row.values[1]),
                                format!("{:.1}", row.values[2]),
                                format!("{:.1}", row.values[3]),
                                format!("{:.4}", row.mre),
                            ]
                        })
                        .collect();
                    write_csv(&dir.join("table4.csv"), &headers, &rows)
                        .map_err(|e| e.to_string())?;
                }
            }
            "table5" => {
                let r = table5::run(ctx);
                println!("{}", table5::render(&r));
                if let Some(dir) = &opts.out {
                    let headers: Vec<String> = ["icds", "full_mre"].map(String::from).to_vec();
                    let rows: Vec<Vec<String>> = r
                        .subsets
                        .iter()
                        .map(|s| {
                            vec![
                                s.icds.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(";"),
                                format!("{:.4}", s.full_mre),
                            ]
                        })
                        .collect();
                    write_csv(&dir.join("table5.csv"), &headers, &rows)
                        .map_err(|e| e.to_string())?;
                }
            }
            "table6" => {
                let r = table6::run(ctx);
                println!("{}", table6::render(&r));
                if let Some(dir) = &opts.out {
                    let headers: Vec<String> =
                        ["block_size", "buffer_size", "mean_sim_s", "method", "mre", "evals"]
                            .map(String::from)
                            .to_vec();
                    let mut rows = Vec::new();
                    for row in &r.rows {
                        for c in &row.cells {
                            rows.push(vec![
                                format!("{:.0}", row.granularity.block_size),
                                format!("{:.0}", row.granularity.buffer_size),
                                format!("{:.4}", row.mean_sim_seconds),
                                c.method.clone(),
                                format!("{:.4}", c.mre),
                                c.evaluations.to_string(),
                            ]);
                        }
                    }
                    write_csv(&dir.join("table6.csv"), &headers, &rows)
                        .map_err(|e| e.to_string())?;
                }
            }
            "ablation" => {
                let r = ablation::run(ctx);
                println!("{}", ablation::render(&r));
            }
            "generalization" => {
                let r = generalization::run(ctx);
                println!("{}", generalization::render(&r));
            }
            "fig2" => {
                let r = fig2::run(ctx);
                println!("{}", fig2::render(&r));
                if let Some(dir) = &opts.out {
                    let (headers, rows) = fig2::to_csv(&r);
                    write_csv(&dir.join("fig2.csv"), &headers, &rows).map_err(|e| e.to_string())?;
                }
            }
            other => return Err(format!("unknown command {other:?}")),
        }
        eprintln!("[simcal-exp] {name} done in {:.1?}", t.elapsed());
        Ok(())
    };

    match opts.command.as_str() {
        "gt" => {
            // Context construction above already generated + cached it.
            println!(
                "ground truth for 4 platforms x {} ICD values written to {}",
                ctx.case.ground_truth[0].points.len(),
                opts.data_dir.display()
            );
            Ok(())
        }
        "all" => {
            println!("{}", table1::render(&table1::run()));
            println!("{}", table2::render(&table2::run()));
            for name in ["table3", "table4", "table5", "table6", "fig2"] {
                run_one(name, &ctx)?;
            }
            Ok(())
        }
        name => run_one(name, &ctx),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_command_and_flags() {
        let o = parse(&["table3", "--evals", "50", "--seed", "7", "--reduced"]).unwrap();
        assert_eq!(o.command, "table3");
        assert_eq!(o.evals, Some(50));
        assert_eq!(o.seed, Some(7));
        assert!(o.reduced);
    }

    #[test]
    fn rejects_unknown_flags() {
        assert!(parse(&["table3", "--bogus"]).is_err());
        assert!(parse(&["table3", "--evals"]).is_err());
        assert!(parse(&["table3", "--evals", "abc"]).is_err());
    }

    #[test]
    fn granularity_names() {
        assert_eq!(parse_granularity("1s").unwrap(), XRootDConfig::paper_1s());
        assert_eq!(parse_granularity("5min").unwrap(), XRootDConfig::paper_5min());
        assert!(parse_granularity("2s").is_err());
    }

    #[test]
    fn empty_args_mean_help() {
        assert_eq!(parse(&[]).unwrap().command, "help");
    }

    #[test]
    fn scenario_commands_parse_positionals() {
        let o = parse(&["scenarios", "list", "straggler"]).unwrap();
        assert_eq!(o.command, "scenarios");
        assert_eq!(o.args, vec!["list", "straggler"]);
        assert_eq!(scenario_pattern(&o), "straggler");
        let o = parse(&["sweep", "hetero", "--workers", "8"]).unwrap();
        assert_eq!(scenario_pattern(&o), "hetero");
        assert_eq!(o.workers, Some(8));
        let o = parse(&["scenarios"]).unwrap();
        assert_eq!(scenario_pattern(&o), "");
        // `list` is a keyword only for `scenarios`; `sweep list` filters.
        let o = parse(&["sweep", "list"]).unwrap();
        assert_eq!(scenario_pattern(&o), "list");
        // Paper commands still reject stray positionals.
        assert!(parse(&["table3", "quick"]).is_err());
    }

    #[test]
    fn scenarios_list_renders() {
        let o = parse(&["scenarios", "list", "--reduced"]).unwrap();
        run_scenarios(&o).unwrap();
        let bad = parse(&["scenarios", "list", "nope-nothing"]).unwrap();
        assert!(run_scenarios(&bad).is_err());
    }

    #[test]
    fn sweep_runs_reduced_registry() {
        let o = parse(&["sweep", "straggler", "--reduced", "--workers", "2"]).unwrap();
        run_sweep(&o).unwrap();
    }

    #[test]
    fn parses_distributed_and_calibrate_flags() {
        let o = parse(&[
            "sweep",
            "hetero",
            "--distributed",
            "--spool",
            "/tmp/spool",
            "--spawn",
            "3",
            "--workers",
            "2",
        ])
        .unwrap();
        assert!(o.distributed);
        assert_eq!(o.spool.as_deref(), Some(std::path::Path::new("/tmp/spool")));
        assert_eq!(o.spawn, Some(3));
        let o =
            parse(&["calibrate", "--family", "hetero", "--algo", "grid", "--evals", "9"]).unwrap();
        assert_eq!(o.family.as_deref(), Some("hetero"));
        assert_eq!(o.algo, "grid");
        assert_eq!(o.evals, Some(9));
        let o = parse(&["calibrate", "scsn"]).unwrap();
        assert_eq!(o.args, vec!["scsn"]);
        // The spool-reading worker is gone: a spool path is no way to
        // reach a coordinator, and the error says what is.
        let o = parse(&["sweep-worker", "/tmp/spool", "--workers", "2"]).unwrap();
        assert!(run_sweep_worker(&o).unwrap_err().contains("--connect ADDR"));
        assert!(parse(&["sweep", "--spawn", "x"]).is_err());
    }

    #[test]
    fn parses_stall_timeout() {
        let o =
            parse(&["sweep", "--distributed", "--spool", "/tmp/spool", "--stall-timeout", "120"])
                .unwrap();
        assert_eq!(o.stall_timeout, Some(120));
        assert!(parse(&["sweep", "--stall-timeout", "soon"]).is_err());
    }

    #[test]
    fn zero_and_non_finite_budgets_are_rejected_while_parsing() {
        // Each of these used to parse, then panic mid-run (exit 101).
        let cases: &[(&[&str], &str)] = &[
            (&["calibrate", "scsn", "--reduced", "--evals", "0"], "--evals"),
            (&["sweep", "--reduced", "--workers", "0"], "--workers"),
            (&["calibrate", "scsn", "--reduced", "--evals", "5", "--workers", "0"], "--workers"),
            (&["table5", "--reduced", "--scale", "quick", "--t5-cost", "0"], "--t5-cost"),
            (&["table5", "--reduced", "--scale", "quick", "--t5-cost", "-1"], "--t5-cost"),
            (&["table5", "--reduced", "--scale", "quick", "--t5-cost", "nan"], "--t5-cost"),
            (&["table6", "--t6-cost", "0"], "--t6-cost"),
            (&["table6", "--t6-cost", "-2.5"], "--t6-cost"),
            (&["table6", "--t6-cost", "NaN"], "--t6-cost"),
            (&["table6", "--t6-cost", "inf"], "--t6-cost"),
            (&["fig2", "--fig2-cost", "0"], "--fig2-cost"),
            (&["fig2", "--fig2-cost", "-1"], "--fig2-cost"),
            (&["fig2", "--fig2-cost", "nan"], "--fig2-cost"),
        ];
        for (args, flag) in cases {
            let err = parse(args).err().unwrap_or_else(|| panic!("{args:?} parsed"));
            assert!(err.starts_with(flag), "{args:?}: {err}");
        }
        // Positive finite values still parse.
        let o = parse(&["table5", "--t5-cost", "0.5", "--evals", "1", "--workers", "1"]).unwrap();
        assert_eq!((o.t5_cost, o.evals, o.workers), (Some(0.5), Some(1), Some(1)));
    }

    #[test]
    fn scenario_patterns_glob_and_ignore_case() {
        let o = parse(&["scenarios", "list", "CMS-*", "--reduced"]).unwrap();
        run_scenarios(&o).unwrap();
        let reg = registry_for(&o);
        assert_eq!(reg.matching(scenario_pattern(&o)).len(), 4);
        let o = parse(&["scenarios", "list", "StRaGgLeR"]).unwrap();
        assert_eq!(registry_for(&o).matching(scenario_pattern(&o)).len(), 3);
    }

    #[test]
    fn distributed_needs_a_spool() {
        let o = parse(&["sweep", "--reduced", "--distributed"]).unwrap();
        assert!(run_sweep(&o).unwrap_err().contains("--spool"));
        let o = parse(&["sweep", "--reduced", "--listen", "127.0.0.1:0"]).unwrap();
        assert!(run_sweep(&o).unwrap_err().contains("--spool"));
    }

    #[test]
    fn parses_tcp_transport_flags() {
        let o = parse(&[
            "sweep",
            "deepcache",
            "--listen",
            "0.0.0.0:7070",
            "--spool",
            "/tmp/spool",
            "--resume",
        ])
        .unwrap();
        assert_eq!(o.listen.as_deref(), Some("0.0.0.0:7070"));
        assert!(o.resume);
        let o = parse(&[
            "sweep-worker",
            "--connect",
            "coord:7070",
            "--fault",
            "kill-after=2",
            "--max-tasks",
            "5",
            "--workers",
            "2",
        ])
        .unwrap();
        assert_eq!(o.connect.as_deref(), Some("coord:7070"));
        assert_eq!(o.fault.as_deref(), Some("kill-after=2"));
        assert_eq!(o.max_tasks, Some(5));
        assert!(parse(&["sweep-worker", "--max-tasks", "x"]).is_err());
        assert!(parse(&["sweep", "--listen"]).is_err());
        // The claim window: a number pins it, `auto` (the default) adapts.
        let o = parse(&["sweep", "--listen", "127.0.0.1:0", "--claim-window", "8"]).unwrap();
        assert_eq!(o.claim_window, Some(8));
        let o = parse(&["sweep-worker", "--connect", "x:1", "--claim-window", "auto"]).unwrap();
        assert_eq!(o.claim_window, None);
        assert!(parse(&["sweep", "--claim-window", "0"]).is_err(), "0 in flight is a stall");
        assert!(parse(&["sweep", "--claim-window", "many"]).is_err());
        // The shared secret rides on both ends.
        let o = parse(&["sweep", "--listen", "0.0.0.0:0", "--auth-token", "sesame"]).unwrap();
        assert_eq!(o.auth_token.as_deref(), Some("sesame"));
        let o = parse(&["sweep-worker", "--connect", "x:1", "--auth-token", "sesame"]).unwrap();
        assert_eq!(o.auth_token.as_deref(), Some("sesame"));
        // A bad fault spec is a structured error from the worker runner.
        let o = parse(&["sweep-worker", "--connect", "x:1", "--fault", "bogus=1"]).unwrap();
        assert!(run_sweep_worker(&o).unwrap_err().contains("--fault"));
        // No spool and no --connect is still an error.
        let o = parse(&["sweep-worker"]).unwrap();
        assert!(run_sweep_worker(&o).unwrap_err().contains("--connect"));
    }

    #[test]
    fn tcp_sweep_cli_writes_the_same_artifact_as_local() {
        let base = std::env::temp_dir().join(format!("simcal-cli-tcp-{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let spool = base.join("spool");
        let out_local = base.join("local");
        let out_tcp = base.join("tcp");
        let o = parse(&[
            "sweep",
            "deepcache",
            "--reduced",
            "--workers",
            "2",
            "--out",
            out_local.to_str().unwrap(),
        ])
        .unwrap();
        run_sweep(&o).unwrap();
        // Coordinator in one thread, a dialed-in worker in another —
        // the same wiring the real binaries use, minus the processes.
        let coordinator = parse(&[
            "sweep",
            "deepcache",
            "--reduced",
            "--listen",
            "127.0.0.1:0",
            "--spool",
            spool.to_str().unwrap(),
            "--stall-timeout",
            "30",
            "--auth-token",
            "cli-secret",
            "--out",
            out_tcp.to_str().unwrap(),
        ])
        .unwrap();
        let spool_dir = spool.clone();
        std::thread::scope(|scope| {
            let coord = scope.spawn(move || run_sweep(&coordinator));
            let addr = loop {
                if let Some(a) = simcal_study::net::read_addr(&spool_dir) {
                    break a;
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
            };
            let worker = parse(&[
                "sweep-worker",
                "--connect",
                &addr,
                "--workers",
                "2",
                "--reduced",
                "--claim-window",
                "4",
                "--auth-token",
                "cli-secret",
            ])
            .unwrap();
            run_sweep_worker(&worker).unwrap();
            coord.join().expect("coordinator thread").unwrap();
        });
        let a = std::fs::read(out_local.join("sweep.csv")).unwrap();
        let b = std::fs::read(out_tcp.join("sweep.csv")).unwrap();
        assert_eq!(a, b, "TCP sweep artifact must be byte-identical to local");
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn distributed_sweep_writes_the_same_artifact_as_local() {
        let base = std::env::temp_dir().join(format!("simcal-cli-dist-{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let spool = base.join("spool");
        let out_local = base.join("local");
        let out_dist = base.join("dist");
        let o = parse(&[
            "sweep",
            "deepcache",
            "--reduced",
            "--workers",
            "2",
            "--out",
            out_local.to_str().unwrap(),
        ])
        .unwrap();
        run_sweep(&o).unwrap();
        // Spawn 0: the coordinator drains the queue itself (the spawned
        // multi-process path is exercised end-to-end in tests/distributed.rs).
        let o = parse(&[
            "sweep",
            "deepcache",
            "--reduced",
            "--distributed",
            "--spool",
            spool.to_str().unwrap(),
            "--workers",
            "2",
            "--out",
            out_dist.to_str().unwrap(),
        ])
        .unwrap();
        run_sweep(&o).unwrap();
        let a = std::fs::read(out_local.join("sweep.csv")).unwrap();
        let b = std::fs::read(out_dist.join("sweep.csv")).unwrap();
        assert_eq!(a, b, "distributed artifact must be byte-identical");
        let text = String::from_utf8(a).unwrap();
        assert!(text.starts_with("# simcal sweep csv v3"), "schema comment present");
        assert!(text.lines().nth(1).unwrap().contains("trace_hash"));
        assert!(text.lines().nth(1).unwrap().contains("mean_wait_s"));
        assert!(text.lines().nth(1).unwrap().contains("wait_p99_s"));
        assert!(text.lines().nth(1).unwrap().contains("slo_attained"));
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn interior_glob_patterns_reach_the_cli() {
        // `cms*fast`-style interior globs used to silently degrade to an
        // exact match and report "no scenario matches".
        let o = parse(&["scenarios", "list", "arr*-poisson", "--reduced"]).unwrap();
        run_scenarios(&o).unwrap();
        assert_eq!(registry_for(&o).matching(scenario_pattern(&o)).len(), 1);
        let o = parse(&["scenarios", "list", "straggler*utput"]).unwrap();
        assert_eq!(registry_for(&o).matching(scenario_pattern(&o)).len(), 1);
        // A glob that matches nothing is still a clean error.
        let o = parse(&["scenarios", "list", "cms*fast", "--reduced"]).unwrap();
        assert!(run_scenarios(&o).unwrap_err().contains("no scenario matches"));
    }

    #[test]
    fn sweeping_the_arrival_family_reports_queue_wait() {
        let base = std::env::temp_dir().join(format!("simcal-cli-wait-{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let o = parse(&[
            "sweep",
            "arrival",
            "--reduced",
            "--workers",
            "2",
            "--out",
            base.to_str().unwrap(),
        ])
        .unwrap();
        run_sweep(&o).unwrap();
        let text = std::fs::read_to_string(base.join("sweep.csv")).unwrap();
        let mut data = text.lines().skip(2); // schema comment + header
        let overcommitted: Vec<&str> = data.by_ref().collect();
        assert_eq!(overcommitted.len(), 4, "four arrival scenarios");
        for line in overcommitted {
            let wait: f64 = line.split(',').nth(3).unwrap().parse().unwrap();
            assert!(wait > 0.0, "queue wait must be positive in {line:?}");
        }
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn horizon_flag_parses() {
        let o = parse(&["sweep", "--reduced", "--horizon", "90"]).unwrap();
        assert_eq!(o.horizon, Some(90.0));
        assert!(parse(&["sweep", "--horizon", "-3"]).err().unwrap().contains("--horizon"));
        assert!(parse(&["sweep", "--horizon", "nan"]).err().unwrap().contains("--horizon"));
    }

    #[test]
    fn scenario_editing_flags_are_rejected_outside_sweep() {
        let run = |args: &[&str]| run(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let err =
            run(&["calibrate", "scfn", "--reduced", "--wan-model", "flow-level"]).unwrap_err();
        assert!(err.contains("--wan-model") && err.contains("`calibrate`"), "{err}");
        let err = run(&["scenarios", "list", "--reduced", "--horizon", "5"]).unwrap_err();
        assert!(err.contains("--horizon") && err.contains("`scenarios`"), "{err}");
        // The retired timer-store and engine-shard knobs are not flags any
        // more, on any command.
        for cmd in ["sweep", "sweep-worker", "scenarios"] {
            let err = run(&[cmd, "--reduced", "--event-list", "calendar"]).unwrap_err();
            assert_eq!(err, "unknown argument \"--event-list\"");
            let err = run(&[cmd, "--reduced", "--engine-shards", "2"]).unwrap_err();
            assert_eq!(err, "unknown argument \"--engine-shards\"");
        }
    }

    #[test]
    fn transport_flags_no_driver_reads_are_rejected() {
        let run = |args: &[&str]| run(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let dir = std::env::temp_dir().join(format!("simcal-cli-unread-{}", std::process::id()));
        let spool = dir.to_str().unwrap();
        let local = ["sweep", "straggler", "--reduced"];
        for extra in [
            &["--claim-window", "8"][..],
            &["--claim-window", "auto"],
            &["--auth-token", "x"],
            &["--fault", "kill-after=1"],
            &["--max-tasks", "3"],
            &["--spawn", "2"],
            &["--resume"],
            &["--stall-timeout", "5"],
            &["--spool", spool],
            &["--connect", "1.2.3.4:5"],
        ] {
            let args: Vec<&str> = local.iter().chain(extra).copied().collect();
            let err = run(&args).expect_err(&format!("{args:?} ran a local sweep"));
            assert!(err.starts_with(extra[0]), "{args:?}: {err}");
            assert!(err.ends_with("`sweep` does not take it"), "{args:?}: {err}");
        }
        // Two drivers at once is an error, not a silent pick of one.
        let both = [&local[..], &["--listen", "127.0.0.1:0", "--distributed", "--spool", spool]];
        let err = run(&[&both.concat()[..], &["--stall-timeout", "1"]].concat()).unwrap_err();
        assert!(err.contains("--listen and --distributed"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn each_driver_accepts_exactly_the_flags_it_reads() {
        let check = |args: &[&str]| parse(args).unwrap().reject_unread_flags();
        for args in [
            &["sweep", "--distributed", "--spool", "d", "--spawn", "2", "--resume"][..],
            &["sweep", "--distributed", "--spool", "d", "--stall-timeout", "5", "--horizon", "9"],
            &["sweep", "--listen", "a:1", "--spool", "d", "--resume", "--stall-timeout", "5"],
            &["sweep", "--listen", "a:1", "--claim-window", "auto", "--auth-token", "t"],
            &["sweep", "--wan-model", "maxmin", "--horizon", "9"],
            &["sweep-worker", "--connect", "a:1", "--stall-timeout", "5", "--claim-window", "4"],
            &["sweep-worker", "--connect", "a:1", "--auth-token", "t", "--fault", "seed=1"],
            &["sweep-worker", "--connect", "a:1", "--max-tasks", "2", "--workers", "2"],
        ] {
            assert_eq!(check(args), Ok(()), "{args:?}");
        }
        for (args, flag, mode) in [
            (&["sweep", "--distributed", "--auth-token", "t"][..], "--auth-token", "distributed"),
            (&["sweep", "--distributed", "--max-tasks", "1"], "--max-tasks", "distributed"),
            (&["sweep", "--listen", "a:1", "--spawn", "2"], "--spawn", "listen"),
            (&["sweep", "--listen", "a:1", "--fault", "seed=1"], "--fault", "listen"),
            (&["sweep-worker", "--connect", "a:1", "--spool", "d"], "--spool", "--connect"),
            (&["sweep-worker", "--connect", "a:1", "--resume"], "--resume", "--connect"),
            (&["sweep-worker", "--connect", "a:1", "--distributed"], "--distributed", "--connect"),
            (&["sweep-worker", "--spool", "d", "--workers", "2"], "--spool", "--connect"),
            (&["sweep-worker", "--listen", "a:1"], "--listen", "--connect"),
            (&["table3", "--spool", "d"], "--spool", "`table3`"),
        ] {
            let err = check(args).unwrap_err();
            assert!(err.starts_with(flag) && err.contains(mode), "{args:?}: {err}");
        }
    }

    #[test]
    fn horizon_sweep_reports_streaming_percentiles() {
        // `--horizon` runs the match open-loop: the steady family reports
        // its streaming percentiles and SLO attainment through the CSV.
        let base = std::env::temp_dir().join(format!("simcal-cli-horiz-{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let o = parse(&[
            "sweep",
            "arr*-poisson",
            "--reduced",
            "--horizon",
            "60",
            "--out",
            base.to_str().unwrap(),
        ])
        .unwrap();
        run_sweep(&o).unwrap();
        let text = std::fs::read_to_string(base.join("sweep.csv")).unwrap();
        let rows = simcal_study::sweep::parse_sweep_csv(&text).unwrap();
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.slo_attained >= 0.0 && r.slo_attained <= 1.0);
        assert!(r.wait_p999 >= r.wait_p50 - 1e-9);
        assert!(r.slowdown_p50 >= 1.0);
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn horizon_on_multisite_is_a_structured_error() {
        let o = parse(&["sweep", "ms-*", "--reduced", "--horizon", "60"]).unwrap();
        let err = run_sweep(&o).unwrap_err();
        assert!(err.contains("--horizon") && err.contains("multi-site"), "got: {err}");
        // A mixed match errors too — the offending scenarios are named
        // instead of being silently dropped from the grid.
        let o = parse(&["sweep", "--reduced", "--horizon", "60"]).unwrap();
        let err = run_sweep(&o).unwrap_err();
        assert!(err.contains("ms-"), "got: {err}");
    }

    #[test]
    fn wan_model_flag_parses_and_rejects_unknown_models() {
        let o = parse(&["sweep", "--reduced", "--wan-model", "maxmin"]).unwrap();
        assert_eq!(o.wan_model, Some(simcal_sim::WanModel::MaxMin));
        let o = parse(&["sweep", "--reduced", "--wan-model", "flow-level"]).unwrap();
        assert!(matches!(o.wan_model, Some(simcal_sim::WanModel::FlowLevel(_))));
        let o = parse(&["sweep", "--reduced", "--wan-model", "flow-level-degenerate"]).unwrap();
        match o.wan_model {
            Some(simcal_sim::WanModel::FlowLevel(cfg)) => {
                assert_eq!(cfg, simcal_sim::FlowLevelCfg::degenerate())
            }
            other => panic!("unexpected: {other:?}"),
        }
        let err = parse(&["sweep", "--wan-model", "token-bucket"]).err().unwrap();
        assert!(err.contains("--wan-model"), "got: {err}");
    }

    #[test]
    fn degenerate_wan_model_sweep_artifact_matches_maxmin_byte_for_byte() {
        // The CI cmp smoke step in miniature: forcing the collapsed
        // flow-level configuration produces the same sweep.csv bytes as
        // forcing max-min.
        let base = std::env::temp_dir().join(format!("simcal-cli-wancmp-{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        for (model, dir) in [("maxmin", "a"), ("flow-level-degenerate", "b")] {
            let o = parse(&[
                "sweep",
                "arr*-poisson",
                "--reduced",
                "--wan-model",
                model,
                "--out",
                base.join(dir).to_str().unwrap(),
            ])
            .unwrap();
            run_sweep(&o).unwrap();
        }
        let a = std::fs::read(base.join("a").join("sweep.csv")).unwrap();
        let b = std::fs::read(base.join("b").join("sweep.csv")).unwrap();
        assert_eq!(a, b, "degenerate flow-level sweep artifact diverged from max-min");
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn flow_level_requires_a_wan_component() {
        // Every registry scenario moves bytes over the WAN (uncached reads
        // or output writes), so the flag is usable across the board...
        let reg = ScenarioRegistry::reduced();
        for e in reg.matching("") {
            assert!(
                scenario_has_wan_traffic(&e.scenario),
                "{} unexpectedly has no WAN traffic",
                e.scenario.name
            );
        }
        // ...but an all-cached, zero-output scenario has none, and asking
        // for the flow-level model there is the structured error case.
        let mut sc = reg.matching("arr*-poisson")[0].scenario.clone();
        sc.cache.icd = 1.0;
        if let simcal_sim::WorkloadSource::Spec { spec, .. } = &mut sc.workload {
            spec.output_bytes = simcal_sim::Distribution::Constant(0.0);
        } else {
            panic!("registry scenario should be spec-driven");
        }
        assert!(!scenario_has_wan_traffic(&sc));
    }

    #[test]
    fn family_calibration_runs_end_to_end() {
        let o = parse(&[
            "calibrate",
            "--family",
            "paper",
            "--reduced",
            "--evals",
            "4",
            "--workers",
            "1",
        ])
        .unwrap();
        run_calibrate(&o).unwrap();
        // Unknown families and bad algorithms are structured errors.
        let o = parse(&["calibrate", "--family", "nothing-here", "--reduced"]).unwrap();
        assert!(run_calibrate(&o).is_err());
        let o = parse(&["calibrate", "--family", "paper", "--algo", "nope"]).unwrap();
        assert!(run_calibrate(&o).is_err());
        let o = parse(&["calibrate"]).unwrap();
        assert!(run_calibrate(&o).unwrap_err().contains("platform"));
        let o = parse(&["calibrate", "bogus"]).unwrap();
        assert!(run_calibrate(&o).unwrap_err().contains("unknown platform"));
    }

    #[test]
    fn quick_reduced_context_builds() {
        let o = parse(&["table2", "--scale", "quick", "--reduced"]).unwrap();
        let ctx = o.context().unwrap();
        assert_eq!(ctx.case.ground_truth.len(), 4);
    }
}
