//! Multi-process distributed sweep execution over a spooled file queue.
//!
//! The distributed tier of the two-tier sweep stack: a **coordinator**
//! serializes a scenario grid into a spool directory (one encoded
//! [`Scenario`] per claimable task file), any number of **worker
//! processes** on a shared filesystem steal tasks by atomic rename and run
//! them through the ordinary in-process [`SweepRunner`] (pooled
//! [`SimSession`](simcal_sim::SimSession)s and all), and a **merge** step
//! reassembles the spooled [`SweepResult`]s in grid order.
//!
//! ## Spool layout and claim protocol
//!
//! ```text
//! spool/
//!   manifest.json          {"v":1,"names":[...]}      written last
//!   tasks/task-00007.json  {"v":1,"index":7,"scenario":{...}}
//!   claimed/task-00007.json  a task some worker owns
//!   results/result-00007.json {"v":1,"index":7,"sum":"<fnv>","result":{...}}
//! ```
//!
//! A worker claims `tasks/task-N.json` by renaming it into `claimed/`.
//! `rename(2)` is atomic on a POSIX filesystem, so exactly one claimer
//! succeeds; the losers see `ENOENT` and move to the next entry. Results
//! are written to a temp name and renamed into `results/`, so readers
//! never observe a torn file; each result record carries an FNV-1a
//! checksum over its encoded payload that the merge step re-verifies.
//!
//! ## Determinism
//!
//! Scenarios are self-deterministic and the workers run the same pooled
//! session machinery as the in-process sweep, so the merged result vector
//! is **bit-identical to a single-process [`SweepRunner::run`]** at any
//! (worker process × thread) count — the oracle tests in
//! `crates/exp/tests/distributed.rs` assert byte-equal CSVs for 1/2/3
//! processes.
//!
//! ## Failure handling
//!
//! Workers write each result **as its task completes**, so a worker that
//! dies mid-drain loses only its in-flight tasks; finished ones stay on
//! disk. After all spawned workers exit, the coordinator **requeues**
//! every claimed-but-unfinished task (renames it back into `tasks/`) and
//! drains the queue itself, so a crashed worker degrades throughput,
//! never correctness. Externally-attached workers still computing get a
//! short progress-aware grace window before the merge fails loudly
//! ([`DistError::Incomplete`]) on missing results. Spool directories are
//! single-use: spooling refuses a directory with any leftover sweep
//! state, manifest or not.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use simcal_sim::codec::{
    check_version, json_f64, json_u64, obj, scenario_from_json, scenario_to_json, CodecError, Json,
    ObjReader, CODEC_VERSION,
};
use simcal_sim::Scenario;

use crate::backoff::Backoff;
use crate::sweep::{Claimed, ShardSource, SweepResult, SweepRunner};

/// A distributed-sweep failure.
#[derive(Debug)]
pub enum DistError {
    /// Filesystem operation failed.
    Io {
        /// The path being operated on.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A spool file failed to decode.
    Codec {
        /// The offending file.
        path: PathBuf,
        /// The codec error.
        source: CodecError,
    },
    /// The driver was misconfigured (e.g. spawn > 0 with no worker
    /// command).
    Config(String),
    /// The spool directory already holds sweep state (a manifest, or
    /// leftover task/claim/result files from a crashed attempt).
    SpoolInUse(PathBuf),
    /// A spool file decoded but is inconsistent (bad checksum, result for
    /// an unknown task, name mismatch against the manifest).
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What is wrong with it.
        msg: String,
    },
    /// The merge found tasks with no result (workers died and recovery
    /// also failed).
    Incomplete {
        /// Grid indices with no result.
        missing: Vec<usize>,
        /// How many spawned workers exited unsuccessfully.
        failed_workers: usize,
    },
    /// A TCP transport failure (bind, dial, or a broken peer).
    Net {
        /// The address involved.
        addr: String,
        /// What went wrong.
        msg: String,
    },
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            DistError::Codec { path, source } => write!(f, "{}: {source}", path.display()),
            DistError::Config(msg) => write!(f, "distributed sweep misconfigured: {msg}"),
            DistError::SpoolInUse(p) => {
                write!(
                    f,
                    "spool {} already holds sweep state (a manifest or leftover task/claim/result \
                     files); point the coordinator at a fresh directory",
                    p.display()
                )
            }
            DistError::Corrupt { path, msg } => write!(f, "{}: {msg}", path.display()),
            DistError::Incomplete { missing, failed_workers } => write!(
                f,
                "{} task(s) produced no result (indices {:?}; {} worker process(es) failed)",
                missing.len(),
                missing,
                failed_workers
            ),
            DistError::Net { addr, msg } => write!(f, "{addr}: {msg}"),
        }
    }
}

impl std::error::Error for DistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DistError::Io { source, .. } => Some(source),
            DistError::Codec { source, .. } => Some(source),
            _ => None,
        }
    }
}

fn io_err(path: &Path, source: std::io::Error) -> DistError {
    DistError::Io { path: path.to_path_buf(), source }
}

// Re-exported so spool users keep one import path for the checksum hash.
pub use crate::sweep::fnv1a;

// ---- SweepResult codec ----------------------------------------------------

/// Encode a [`SweepResult`] as a versioned JSON payload.
pub fn encode_sweep_result(r: &SweepResult) -> String {
    sweep_result_to_json(r).write()
}

/// Decode a [`SweepResult`] payload (unknown fields ignored, missing
/// fields are structured errors).
pub fn decode_sweep_result(text: &str) -> Result<SweepResult, CodecError> {
    sweep_result_from_json(&Json::parse(text)?)
}

pub(crate) fn sweep_result_to_json(r: &SweepResult) -> Json {
    obj(vec![
        ("v", Json::Num(CODEC_VERSION as f64)),
        ("name", Json::Str(r.name.clone())),
        ("makespan", json_f64(r.makespan)),
        ("mean_job_time", json_f64(r.mean_job_time)),
        ("mean_queue_wait", json_f64(r.mean_queue_wait)),
        ("max_queue_wait", json_f64(r.max_queue_wait)),
        ("node_means", Json::Arr(r.node_means.iter().map(|&v| json_f64(v)).collect())),
        ("node_stds", Json::Arr(r.node_stds.iter().map(|&v| json_f64(v)).collect())),
        ("events", json_u64(r.events)),
        ("trace_hash", Json::Str(format!("{:016x}", r.trace_hash))),
        ("wall_seconds", json_f64(r.wall_seconds)),
        ("wait_p50", json_f64(r.wait_p50)),
        ("wait_p99", json_f64(r.wait_p99)),
        ("wait_p999", json_f64(r.wait_p999)),
        ("slowdown_p50", json_f64(r.slowdown_p50)),
        ("slowdown_p99", json_f64(r.slowdown_p99)),
        ("slowdown_p999", json_f64(r.slowdown_p999)),
        ("slo_attained", json_f64(r.slo_attained)),
        ("event_pushes", json_u64(r.event_pushes)),
        ("event_stale_drops", json_u64(r.event_stale_drops)),
    ])
}

pub(crate) fn sweep_result_from_json(json: &Json) -> Result<SweepResult, CodecError> {
    let r = ObjReader::new("SweepResult", json)?;
    let v = check_version("SweepResult", &r)?;
    let hash_text = r.str("trace_hash")?;
    let trace_hash = u64::from_str_radix(hash_text, 16).map_err(|_| CodecError::Invalid {
        ty: "SweepResult",
        msg: format!("bad trace hash {hash_text:?}"),
    })?;
    // The queue-wait columns arrived with codec v2; v1 results (written
    // before jobs had release times) decode as wait-free. From v2 on the
    // fields are required — a truncated payload is a structured error.
    let wait = |field: &'static str| -> Result<f64, CodecError> {
        if v >= 2 {
            r.f64(field)
        } else {
            Ok(0.0)
        }
    };
    // Percentile/SLO metrics and event-queue counters arrived with codec
    // v6 (steady-state horizon runs). Older payloads decode with the same
    // defaults `parse_sweep_csv` uses for v2 CSV rows: zero waits,
    // unit slowdowns, vacuously-attained SLO, zero counters.
    let v6_f64 = |field: &'static str, default: f64| -> Result<f64, CodecError> {
        if v >= 6 {
            r.f64(field)
        } else {
            Ok(default)
        }
    };
    let v6_u64 = |field: &'static str| -> Result<u64, CodecError> {
        if v >= 6 {
            r.u64(field)
        } else {
            Ok(0)
        }
    };
    Ok(SweepResult {
        name: r.str("name")?.to_string(),
        makespan: r.f64("makespan")?,
        mean_job_time: r.f64("mean_job_time")?,
        mean_queue_wait: wait("mean_queue_wait")?,
        max_queue_wait: wait("max_queue_wait")?,
        node_means: r.f64_arr("node_means")?,
        node_stds: r.f64_arr("node_stds")?,
        events: r.u64("events")?,
        trace_hash,
        wall_seconds: r.f64("wall_seconds")?,
        wait_p50: v6_f64("wait_p50", 0.0)?,
        wait_p99: v6_f64("wait_p99", 0.0)?,
        wait_p999: v6_f64("wait_p999", 0.0)?,
        slowdown_p50: v6_f64("slowdown_p50", 1.0)?,
        slowdown_p99: v6_f64("slowdown_p99", 1.0)?,
        slowdown_p999: v6_f64("slowdown_p999", 1.0)?,
        slo_attained: v6_f64("slo_attained", 1.0)?,
        event_pushes: v6_u64("event_pushes")?,
        event_stale_drops: v6_u64("event_stale_drops")?,
    })
}

// ---- spool primitives -----------------------------------------------------

pub(crate) fn tasks_dir(spool: &Path) -> PathBuf {
    spool.join("tasks")
}

pub(crate) fn claimed_dir(spool: &Path) -> PathBuf {
    spool.join("claimed")
}

pub(crate) fn results_dir(spool: &Path) -> PathBuf {
    spool.join("results")
}

fn manifest_path(spool: &Path) -> PathBuf {
    spool.join("manifest.json")
}

pub(crate) fn task_file_name(index: usize) -> String {
    format!("task-{index:05}.json")
}

pub(crate) fn result_path(spool: &Path, index: usize) -> PathBuf {
    results_dir(spool).join(format!("result-{index:05}.json"))
}

/// Write `text` to a temp name in `spool` and atomically rename it to
/// `target`, so concurrent readers never see a torn file.
pub(crate) fn write_atomic(spool: &Path, target: &Path, text: &str) -> Result<(), DistError> {
    let tmp = spool.join(format!(
        ".tmp-{}-{}",
        std::process::id(),
        target.file_name().and_then(|n| n.to_str()).unwrap_or("file")
    ));
    std::fs::write(&tmp, text).map_err(|e| io_err(&tmp, e))?;
    std::fs::rename(&tmp, target).map_err(|e| io_err(target, e))
}

/// Serialize a scenario grid into a fresh spool directory: the claimable
/// per-scenario task files first, the manifest last (workers may treat the
/// manifest's existence as "the spool is fully written").
///
/// Refuses a spool that already holds sweep state — a manifest, *or* any
/// leftover task/claim/result file (e.g. from a previous coordinator that
/// crashed before writing its manifest): stale task files would be
/// claimable by this sweep's workers and poison its merge.
pub fn spool_tasks(spool: &Path, grid: &[Scenario]) -> Result<(), DistError> {
    if manifest_path(spool).exists() {
        return Err(DistError::SpoolInUse(spool.to_path_buf()));
    }
    for dir in [tasks_dir(spool), claimed_dir(spool), results_dir(spool)] {
        std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        let mut entries = std::fs::read_dir(&dir).map_err(|e| io_err(&dir, e))?;
        if entries.next().is_some() {
            return Err(DistError::SpoolInUse(spool.to_path_buf()));
        }
    }
    let manifest = manifest_path(spool);
    for (index, sc) in grid.iter().enumerate() {
        let record = obj(vec![
            ("v", Json::Num(CODEC_VERSION as f64)),
            ("index", Json::Num(index as f64)),
            ("scenario", scenario_to_json(sc)),
        ]);
        let target = tasks_dir(spool).join(task_file_name(index));
        write_atomic(spool, &target, &record.write())?;
    }
    let names = Json::Arr(grid.iter().map(|sc| Json::Str(sc.name.clone())).collect());
    let record = obj(vec![("v", Json::Num(CODEC_VERSION as f64)), ("names", names)]);
    write_atomic(spool, &manifest, &record.write())
}

/// Read the spool manifest back: the grid's scenario names in order.
pub fn read_manifest(spool: &Path) -> Result<Vec<String>, DistError> {
    let path = manifest_path(spool);
    let text = std::fs::read_to_string(&path).map_err(|e| io_err(&path, e))?;
    let json =
        Json::parse(&text).map_err(|source| DistError::Codec { path: path.clone(), source })?;
    let to_codec = |source| DistError::Codec { path: path.clone(), source };
    let r = ObjReader::new("Manifest", &json).map_err(to_codec)?;
    check_version("Manifest", &r).map_err(to_codec)?;
    let names = r.arr("names").map_err(to_codec)?;
    names
        .iter()
        .map(|n| match n {
            Json::Str(s) => Ok(s.clone()),
            _ => Err(DistError::Corrupt {
                path: path.clone(),
                msg: "manifest names must be strings".to_string(),
            }),
        })
        .collect()
}

/// The spooled [`ShardSource`]: claims task files by atomic rename into
/// `claimed/`, decodes them, and hands them to the sweep workers one at a
/// time (the finest stealing granularity). I/O and decode failures poison
/// the source — it stops claiming and reports via
/// [`finish`](SpoolSource::finish).
///
/// Candidate names are cached per source: the tasks directory is listed
/// once per refill, not once per claim (a claim's rename either wins or
/// learns the file is gone — no relisting needed), so a whole drain costs
/// O(tasks) directory scans across all of a worker's threads instead of
/// O(tasks²).
pub struct SpoolSource {
    spool: PathBuf,
    /// Locally-cached unclaimed candidates (popped back-to-front).
    queue: Mutex<Vec<String>>,
    error: Mutex<Option<DistError>>,
}

impl SpoolSource {
    /// A source over an existing spool directory.
    pub fn open(spool: impl Into<PathBuf>) -> Self {
        Self { spool: spool.into(), queue: Mutex::new(Vec::new()), error: Mutex::new(None) }
    }

    /// Surface any I/O or decode failure recorded during claiming.
    pub fn finish(self) -> Result<(), DistError> {
        match self.error.into_inner() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn poison(&self, e: DistError) {
        let mut slot = self.error.lock();
        if slot.is_none() {
            *slot = Some(e);
        }
    }

    /// List the currently-unclaimed task file names, sorted.
    fn pending(&self) -> Result<Vec<String>, DistError> {
        let dir = tasks_dir(&self.spool);
        let entries = std::fs::read_dir(&dir).map_err(|e| io_err(&dir, e))?;
        let mut names = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| io_err(&dir, e))?;
            if let Some(name) = entry.file_name().to_str() {
                if name.starts_with("task-") && name.ends_with(".json") {
                    names.push(name.to_string());
                }
            }
        }
        names.sort_unstable();
        Ok(names)
    }

    /// Pop up to `n` candidate names under **one** lock acquisition,
    /// refilling the cache from the tasks directory when it runs dry.
    /// Empty when the directory really is empty. A candidate that loses
    /// its claim race is simply dropped — its file moved out of `tasks/`,
    /// so a refill never resurrects it.
    fn next_candidates(&self, n: usize) -> Result<Vec<String>, DistError> {
        let mut queue = self.queue.lock();
        if queue.is_empty() {
            let mut names = self.pending()?;
            if names.is_empty() {
                return Ok(Vec::new());
            }
            // Rotate by a process-specific offset so co-located workers
            // don't all fight over the same lowest-numbered file, then
            // reverse: candidates pop from the back.
            let offset = std::process::id() as usize % names.len();
            names.rotate_left(offset);
            names.reverse();
            *queue = names;
        }
        let take = n.min(queue.len());
        let split = queue.len() - take;
        Ok(queue.split_off(split))
    }

    /// Claim one named candidate: atomic rename into `claimed/`, then
    /// validate the task envelope (version, index) but leave the
    /// scenario in wire form. The TCP coordinator forwards the scenario
    /// verbatim inside a `TaskBatch`, so decoding it to a `Scenario`
    /// struct here — only to re-encode it onto the socket — would be
    /// pure per-task overhead. `None` when the race was lost — the file
    /// is gone (another worker's claim, or a coordinator requeue racing
    /// the read).
    fn claim_named_raw(&self, name: &str) -> Result<Option<(usize, String)>, DistError> {
        let from = tasks_dir(&self.spool).join(name);
        let to = claimed_dir(&self.spool).join(name);
        match std::fs::rename(&from, &to) {
            Ok(()) => {
                let text = match std::fs::read_to_string(&to) {
                    Ok(text) => text,
                    // A coordinator's requeue can move our claim back
                    // into tasks/ between the rename and this read (it
                    // cannot tell a slow worker from a dead one). The
                    // task isn't lost — it is back in the queue for
                    // whoever claims it next — so treat it like a
                    // lost race, not an error.
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
                    Err(e) => return Err(io_err(&to, e)),
                };
                // Fast path: a record laid out exactly as [`spool_tasks`]
                // writes it — `{"v":V,"index":N,"scenario":<sc>}` with
                // `N` also derivable from the file name — proves version
                // and index textually, so the scenario text splices out
                // without a parse. Anything else (foreign layout, older
                // version) takes the full parse-and-validate path below.
                if let Some(index) = name
                    .strip_prefix("task-")
                    .and_then(|s| s.strip_suffix(".json"))
                    .and_then(|s| s.parse::<usize>().ok())
                {
                    let prefix = format!("{{\"v\":{CODEC_VERSION},\"index\":{index},\"scenario\":");
                    if let Some(scenario) =
                        text.strip_prefix(&prefix).and_then(|rest| rest.strip_suffix('}'))
                    {
                        if !scenario.is_empty() {
                            return Ok(Some((index, scenario.to_string())));
                        }
                    }
                }
                let json = Json::parse(&text)
                    .map_err(|source| DistError::Codec { path: to.clone(), source })?;
                let to_codec = |source| DistError::Codec { path: to.clone(), source };
                let r = ObjReader::new("Task", &json).map_err(to_codec)?;
                check_version("Task", &r).map_err(to_codec)?;
                let index = r.usize("index").map_err(to_codec)?;
                let scenario = r.req("scenario").map_err(to_codec)?.write();
                Ok(Some((index, scenario)))
            }
            // Another worker stole it between listing and rename.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err(&from, e)),
        }
    }

    /// [`claim_named_raw`], fully decoded — what a worker that will
    /// *run* the scenario (rather than forward it) wants.
    fn claim_named(&self, name: &str) -> Result<Option<(usize, Scenario)>, DistError> {
        match self.claim_named_raw(name)? {
            Some((index, text)) => {
                let to_codec =
                    |source| DistError::Codec { path: claimed_dir(&self.spool).join(name), source };
                let json = Json::parse(&text).map_err(to_codec)?;
                let sc = scenario_from_json(&json).map_err(to_codec)?;
                Ok(Some((index, sc)))
            }
            None => Ok(None),
        }
    }

    pub(crate) fn try_claim(&self) -> Result<Option<(usize, Scenario)>, DistError> {
        loop {
            let Some(name) = self.next_candidates(1)?.pop() else {
                return Ok(None);
            };
            if let Some(claimed) = self.claim_named(&name)? {
                return Ok(Some(claimed));
            }
        }
    }

    /// Claim up to `max` tasks in one sweep: the candidate queue is
    /// locked once per refill rather than once per task, and lost races
    /// are replaced until the spool runs dry or the batch fills. This is
    /// the journal-side amortization behind the TCP transport's windowed
    /// handout — the in-process [`ShardSource`] path keeps claiming one
    /// at a time (the finest stealing granularity). Scenarios stay in
    /// wire form; the caller is forwarding them, not running them.
    pub(crate) fn try_claim_batch(&self, max: usize) -> Result<Vec<(usize, String)>, DistError> {
        let mut out = Vec::new();
        while out.len() < max {
            let names = self.next_candidates(max - out.len())?;
            if names.is_empty() {
                break;
            }
            for name in names {
                if let Some(claimed) = self.claim_named_raw(&name)? {
                    out.push(claimed);
                }
            }
        }
        Ok(out)
    }
}

impl ShardSource for SpoolSource {
    fn claim(&self) -> Option<Vec<Claimed<'_>>> {
        if self.error.lock().is_some() {
            return None;
        }
        match self.try_claim() {
            Ok(Some((index, sc))) => Some(vec![Claimed::Owned(index, Box::new(sc))]),
            Ok(None) => None,
            Err(e) => {
                self.poison(e);
                None
            }
        }
    }
}

/// Drain a spool as one worker process: claim tasks until the queue is
/// empty, run each on the in-process [`SweepRunner`] with `threads`
/// workers, and write one checksummed result file **as each task
/// completes** — a worker killed mid-drain loses only its in-flight
/// tasks, never finished ones. Returns the number of tasks this worker
/// completed.
///
/// This is what the hidden `sweep-worker` CLI subcommand runs; the
/// coordinator also calls it to participate in its own sweep.
pub fn run_worker(spool: &Path, threads: usize) -> Result<usize, DistError> {
    let source = SpoolSource::open(spool);
    let runner = SweepRunner::new().with_workers(threads.max(1));
    let write_error: Mutex<Option<DistError>> = Mutex::new(None);
    let tagged = runner.run_source_each(&source, |index, result| {
        if let Err(e) = write_result(spool, index, result) {
            let mut slot = write_error.lock();
            if slot.is_none() {
                *slot = Some(e);
            }
        }
    });
    source.finish()?;
    if let Some(e) = write_error.into_inner() {
        return Err(e);
    }
    Ok(tagged.len())
}

/// Write one result record (atomic rename; payload checksummed).
pub(crate) fn write_result(
    spool: &Path,
    index: usize,
    result: &SweepResult,
) -> Result<(), DistError> {
    write_result_text(spool, index, &sweep_result_to_json(result).write())
}

/// [`write_result`] from an already-serialized payload: the record is
/// spliced around the given text instead of re-encoded through the
/// `Json` tree, so a coordinator journaling a checksum-verified wire
/// payload serializes nothing. The spliced bytes match what the tree
/// writer would produce (`Json::Num` prints integral values bare), and
/// the embedded `sum` is computed over exactly the embedded text, which
/// is all the resume/merge verifier ever checks.
pub(crate) fn write_result_text(
    spool: &Path,
    index: usize,
    payload: &str,
) -> Result<(), DistError> {
    let record = format!(
        "{{\"v\":{CODEC_VERSION},\"index\":{index},\"sum\":\"{:016x}\",\"result\":{payload}}}",
        fnv1a(payload.as_bytes())
    );
    write_atomic(spool, &result_path(spool, index), &record)
}

/// Requeue claimed-but-unfinished tasks (a crashed worker's leftovers):
/// every file in `claimed/` whose result is missing is renamed back into
/// `tasks/`. Returns how many tasks were requeued. Only safe once no
/// worker is running.
pub fn requeue_orphans(spool: &Path) -> Result<usize, DistError> {
    let dir = claimed_dir(spool);
    let entries = std::fs::read_dir(&dir).map_err(|e| io_err(&dir, e))?;
    let mut requeued = 0;
    for entry in entries {
        let entry = entry.map_err(|e| io_err(&dir, e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(index) = name
            .strip_prefix("task-")
            .and_then(|s| s.strip_suffix(".json"))
            .and_then(|s| s.parse::<usize>().ok())
        else {
            continue;
        };
        if result_path(spool, index).exists() {
            // Finished: the claim file is just a tombstone.
            continue;
        }
        let from = dir.join(name);
        let to = tasks_dir(spool).join(name);
        std::fs::rename(&from, &to).map_err(|e| io_err(&from, e))?;
        requeued += 1;
    }
    Ok(requeued)
}

/// Requeue one claimed task by index: rename `claimed/task-N` back into
/// `tasks/`. Returns `false` (without touching anything) when the task
/// already has a result, is already queued, or the claim file is gone —
/// all benign races. Used by the corrupt-result recovery path and the TCP
/// coordinator's dead-worker handling.
pub(crate) fn requeue_task(spool: &Path, index: usize) -> Result<bool, DistError> {
    if result_path(spool, index).exists() {
        return Ok(false);
    }
    let name = task_file_name(index);
    let to = tasks_dir(spool).join(&name);
    if to.exists() {
        return Ok(false);
    }
    let from = claimed_dir(spool).join(&name);
    match std::fs::rename(&from, &to) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
        Err(e) => Err(io_err(&from, e)),
    }
}

/// If `path` is a result file in this spool's results directory, the task
/// index its name encodes (the corrupt-result recovery key).
pub(crate) fn corrupt_result_index(spool: &Path, path: &Path) -> Option<usize> {
    if path.parent() != Some(results_dir(spool).as_path()) {
        return None;
    }
    path.file_name()?
        .to_str()?
        .strip_prefix("result-")?
        .strip_suffix(".json")?
        .parse::<usize>()
        .ok()
}

/// Discard a corrupt result file and put its task back in the queue. The
/// task must land back in `tasks/` one way or another — a corrupt result
/// whose task has vanished entirely is unrecoverable.
pub(crate) fn discard_corrupt_result(spool: &Path, index: usize) -> Result<(), DistError> {
    let result = result_path(spool, index);
    if let Err(e) = std::fs::remove_file(&result) {
        if e.kind() != std::io::ErrorKind::NotFound {
            return Err(io_err(&result, e));
        }
    }
    requeue_task(spool, index)?;
    let name = task_file_name(index);
    if tasks_dir(spool).join(&name).exists() || claimed_dir(spool).join(&name).exists() {
        Ok(())
    } else {
        Err(DistError::Corrupt {
            path: result,
            msg: format!("corrupt result discarded but task {index} has no task file to requeue"),
        })
    }
}

/// Reassemble the spooled results in grid order, verifying each record's
/// FNV payload checksum and its scenario name against the manifest.
pub fn merge_results(spool: &Path) -> Result<Vec<SweepResult>, DistError> {
    merge_with_failures(spool, 0)
}

fn merge_with_failures(spool: &Path, failed_workers: usize) -> Result<Vec<SweepResult>, DistError> {
    let names = read_manifest(spool)?;
    let mut slots: Vec<Option<SweepResult>> = vec![None; names.len()];
    let dir = results_dir(spool);
    let entries = std::fs::read_dir(&dir).map_err(|e| io_err(&dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err(&dir, e))?;
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).map_err(|e| io_err(&path, e))?;
        let json =
            Json::parse(&text).map_err(|source| DistError::Codec { path: path.clone(), source })?;
        let to_codec = |source| DistError::Codec { path: path.clone(), source };
        let r = ObjReader::new("ResultRecord", &json).map_err(to_codec)?;
        check_version("ResultRecord", &r).map_err(to_codec)?;
        let index = r.usize("index").map_err(to_codec)?;
        if index >= names.len() {
            return Err(DistError::Corrupt {
                path,
                msg: format!("result index {index} beyond the {}-task manifest", names.len()),
            });
        }
        let payload = r.req("result").map_err(to_codec)?;
        let sum_text = r.str("sum").map_err(to_codec)?;
        let sum = u64::from_str_radix(sum_text, 16).map_err(|_| DistError::Corrupt {
            path: path.clone(),
            msg: format!("bad checksum {sum_text:?}"),
        })?;
        let actual = fnv1a(payload.write().as_bytes());
        if actual != sum {
            return Err(DistError::Corrupt {
                path,
                msg: format!("payload checksum {actual:016x} != recorded {sum:016x}"),
            });
        }
        let result = sweep_result_from_json(payload).map_err(to_codec)?;
        if result.name != names[index] {
            return Err(DistError::Corrupt {
                path,
                msg: format!(
                    "result names scenario {:?} but the manifest's task {index} is {:?}",
                    result.name, names[index]
                ),
            });
        }
        slots[index] = Some(result);
    }
    let missing: Vec<usize> =
        slots.iter().enumerate().filter(|(_, s)| s.is_none()).map(|(i, _)| i).collect();
    if !missing.is_empty() {
        return Err(DistError::Incomplete { missing, failed_workers });
    }
    Ok(slots.into_iter().map(|s| s.expect("missing checked above")).collect())
}

// ---- the coordinator ------------------------------------------------------

/// What happened during a distributed sweep, beyond the results
/// themselves: the recovery counters every robustness path increments.
/// Returned by [`DistSweep::run_summarized`] (and the TCP coordinator),
/// surfaced by the CLI when any counter is nonzero.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct DistSummary {
    /// Result files (or frames) that failed their checksum / decode /
    /// manifest check and whose tasks were requeued and rerun.
    pub corrupt_results: usize,
    /// Tasks put back in the queue: orphans recovered on resume plus
    /// claims requeued on stall/death deadlines.
    pub requeued_tasks: usize,
    /// Spawned worker processes that exited unsuccessfully.
    pub failed_workers: usize,
    /// Stall-deadline recovery rounds the coordinator ran.
    pub recoveries: u32,
}

impl DistSummary {
    /// True when every counter is zero — nothing went wrong.
    pub fn is_clean(&self) -> bool {
        *self == Self::default()
    }
}

impl std::fmt::Display for DistSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "corrupt_results={} requeued_tasks={} failed_workers={} recoveries={}",
            self.corrupt_results, self.requeued_tasks, self.failed_workers, self.recoveries
        )
    }
}

/// The distributed sweep coordinator: spools the grid, spawns worker
/// processes, participates in the drain itself, recovers crashed **and
/// hung** workers' claims on a progress deadline, and merges the results.
pub struct DistSweep {
    spool: PathBuf,
    spawn: usize,
    threads: usize,
    worker_cmd: Option<(PathBuf, Vec<String>)>,
    /// How long the coordinator tolerates zero progress (no new result
    /// files) while claims are in flight or workers are alive before it
    /// presumes the claim holders dead, requeues their tasks, and runs
    /// them itself. This is the liveness bound: one hung worker delays the
    /// sweep by at most this window, it can no longer stall it forever.
    stall_timeout: std::time::Duration,
    /// The shorter settle window applied when nothing can still be
    /// producing (no claims in flight, no live children).
    settle_timeout: std::time::Duration,
    /// Reopen a spool left behind by a crashed coordinator instead of
    /// refusing it: validate the manifest, requeue orphans, respool
    /// missing tasks, and continue from the persisted results.
    resume: bool,
    /// Seed for the polling backoff jitter (replay determinism).
    seed: u64,
}

impl DistSweep {
    /// A coordinator over `spool` that drains the queue itself (no child
    /// processes) with one thread.
    pub fn new(spool: impl Into<PathBuf>) -> Self {
        Self {
            spool: spool.into(),
            spawn: 0,
            threads: 1,
            worker_cmd: None,
            stall_timeout: std::time::Duration::from_secs(30),
            settle_timeout: std::time::Duration::from_secs(2),
            resume: false,
            seed: 0,
        }
    }

    /// Override the zero-progress window after which in-flight claims are
    /// presumed orphaned and requeued (default 30 s). Lower it in tests;
    /// raise it for sweeps whose single scenarios legitimately run long.
    pub fn with_stall_timeout(mut self, stall: std::time::Duration) -> Self {
        self.stall_timeout = stall;
        self
    }

    /// Resume a crashed coordinator's spool instead of refusing it:
    /// validate the manifest, requeue orphans, respool missing tasks, and
    /// continue from the persisted results. The grid must be the same one
    /// the spool was created for — validated against the manifest.
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Seed the polling-backoff jitter stream (default 0). Sweeps pass
    /// their sweep seed through so recovery timing replays.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Spawn `n` worker processes in addition to the coordinator's own
    /// drain loop (requires [`with_worker_command`](Self::with_worker_command)
    /// when `n > 0`).
    pub fn with_spawn(mut self, n: usize) -> Self {
        self.spawn = n;
        self
    }

    /// Sweep threads per worker process (including the coordinator).
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        self.threads = threads;
        self
    }

    /// The command spawned worker processes run (typically the current
    /// executable with the hidden `sweep-worker <SPOOL>` arguments).
    pub fn with_worker_command(mut self, program: impl Into<PathBuf>, args: Vec<String>) -> Self {
        self.worker_cmd = Some((program.into(), args));
        self
    }

    /// Run the full coordinator protocol. The returned results are in
    /// grid order and bit-identical to `SweepRunner::run(grid)`.
    pub fn run(&self, grid: &[Scenario]) -> Result<Vec<SweepResult>, DistError> {
        self.run_summarized(grid).map(|(results, _)| results)
    }

    /// [`run`](Self::run), also returning the recovery counters.
    pub fn run_summarized(
        &self,
        grid: &[Scenario],
    ) -> Result<(Vec<SweepResult>, DistSummary), DistError> {
        let mut summary = DistSummary::default();
        if grid.is_empty() {
            return Ok((Vec::new(), summary));
        }
        if self.resume {
            summary.requeued_tasks += resume_spool(&self.spool, grid)?;
        } else {
            spool_tasks(&self.spool, grid)?;
        }
        let mut children: Vec<Child> = Vec::new();
        if self.spawn > 0 {
            let (program, args) = self.worker_cmd.as_ref().ok_or_else(|| {
                DistError::Config("spawn > 0 but no worker command configured".to_string())
            })?;
            for _ in 0..self.spawn {
                let spawned = Command::new(program)
                    .args(args)
                    .stdin(std::process::Stdio::null())
                    .spawn()
                    .map_err(|e| io_err(program, e));
                match spawned {
                    Ok(child) => children.push(child),
                    Err(e) => {
                        reap_children(&mut children, true);
                        return Err(e);
                    }
                }
            }
        }
        // The coordinator is a worker too: it steals from the same queue,
        // so a sweep makes progress even if every child dies at exec.
        // On ANY failure from here on the children must still be reaped
        // (killed on the error path) — a zombie worker would keep
        // mutating a spool directory the caller believes is settled.
        if let Err(e) = run_worker(&self.spool, self.threads) {
            reap_children(&mut children, true);
            return Err(e);
        }
        let outcome = self.settle(&mut children, &mut summary);
        // Whatever happened, no child may outlive the sweep: anything
        // still running at this point is hung (the queue is drained and
        // its claims were recovered) — kill it rather than block on it.
        reap_children(&mut children, true);
        outcome.map(|results| (results, summary))
    }

    /// Post-drain completion protocol. The queue is empty; what remains is
    /// waiting for results from spawned children and externally-attached
    /// workers, recovering claims whose holders crashed *or hung*, and
    /// merging. Children are polled non-blockingly — the coordinator
    /// never does a blocking `wait` on a child that may never exit (the
    /// pre-deadline design did exactly that, so one hung worker stalled
    /// the sweep indefinitely).
    fn settle(
        &self,
        children: &mut Vec<Child>,
        summary: &mut DistSummary,
    ) -> Result<Vec<SweepResult>, DistError> {
        /// Recovery attempts before the coordinator gives up and reports
        /// the sweep incomplete (guards against a pathological external
        /// worker that keeps re-claiming tasks and hanging).
        const MAX_RECOVERIES: u32 = 3;
        let mut last_done = count_results(&self.spool)?;
        let mut idle_since = Instant::now();
        // Jittered capped-exponential polling instead of a fixed sleep:
        // quick reaction right after progress, settling toward ~100 ms
        // waits while results trickle in. Seeded so runs replay.
        let mut poll =
            Backoff::new(Duration::from_millis(5), Duration::from_millis(100), self.seed);
        // Tasks whose corrupt result was already discarded once: a second
        // corruption of the same task is a real error, not a retry.
        let mut corrupt_seen: HashSet<usize> = HashSet::new();
        loop {
            summary.failed_workers += poll_children(children);
            match merge_with_failures(&self.spool, summary.failed_workers) {
                Err(e @ (DistError::Corrupt { .. } | DistError::Codec { .. })) => {
                    // A corrupt or truncated result file: discard it,
                    // requeue its task once, and drain the requeue
                    // ourselves. A repeat offender (or a corruption with
                    // no recoverable task) propagates.
                    let path = match &e {
                        DistError::Corrupt { path, .. } | DistError::Codec { path, .. } => path,
                        _ => unreachable!("matched above"),
                    };
                    let Some(index) = corrupt_result_index(&self.spool, path) else {
                        return Err(e);
                    };
                    if !corrupt_seen.insert(index) {
                        return Err(e);
                    }
                    discard_corrupt_result(&self.spool, index)?;
                    summary.corrupt_results += 1;
                    summary.requeued_tasks += 1;
                    run_worker(&self.spool, self.threads)?;
                    idle_since = Instant::now();
                    poll.reset();
                }
                Err(DistError::Incomplete { .. }) if summary.recoveries < MAX_RECOVERIES => {
                    // While a claim without a result exists (or a child is
                    // still alive) results may yet appear, so the wait is
                    // generous — but bounded by the stall deadline. With
                    // nothing in flight only a short settle window
                    // applies. A crashed worker's claims are requeued
                    // immediately: no children remain and no results can
                    // appear, so waiting would be pure stall.
                    let in_flight = unfinished_claims(&self.spool)?;
                    let busy = in_flight > 0 || !children.is_empty();
                    let deadline = if !busy {
                        self.settle_timeout
                    } else if children.is_empty() && in_flight > 0 && summary.recoveries == 0 {
                        // Every spawned worker is gone yet claims linger:
                        // their holders are dead (or are external workers,
                        // which re-claim safely). Recover right away.
                        Duration::ZERO
                    } else {
                        self.stall_timeout
                    };
                    if idle_since.elapsed() >= deadline {
                        // The claim holders made no progress for the whole
                        // window: presume them dead, requeue their tasks,
                        // and run them here. A merely-glacial holder will
                        // write an identical result; both outcomes merge.
                        summary.recoveries += 1;
                        idle_since = Instant::now();
                        poll.reset();
                        let requeued = requeue_orphans(&self.spool)?;
                        if requeued > 0 {
                            summary.requeued_tasks += requeued;
                            run_worker(&self.spool, self.threads)?;
                        }
                        continue;
                    }
                    poll.sleep();
                    let done = count_results(&self.spool)?;
                    if done > last_done {
                        last_done = done;
                        idle_since = Instant::now();
                        poll.reset();
                    }
                }
                outcome => return outcome,
            }
        }
    }
}

/// Reopen a spool a crashed coordinator left behind: validate that its
/// manifest names exactly the given grid, requeue orphaned claims, and
/// respool any task that has vanished from all three directories (so the
/// merge can complete from persisted results plus rerun work). Returns
/// how many tasks were put back in the queue.
pub(crate) fn resume_spool(spool: &Path, grid: &[Scenario]) -> Result<usize, DistError> {
    let names = read_manifest(spool)?;
    let grid_names: Vec<&str> = grid.iter().map(|sc| sc.name.as_str()).collect();
    if names.len() != grid.len() || names.iter().zip(&grid_names).any(|(a, b)| a != b) {
        return Err(DistError::Corrupt {
            path: manifest_path(spool),
            msg: format!(
                "resume grid does not match the spool manifest ({} tasks vs {}): refusing to \
                 mix sweeps",
                grid.len(),
                names.len()
            ),
        });
    }
    let mut requeued = requeue_orphans(spool)?;
    for (index, sc) in grid.iter().enumerate() {
        let name = task_file_name(index);
        if tasks_dir(spool).join(&name).exists()
            || claimed_dir(spool).join(&name).exists()
            || result_path(spool, index).exists()
        {
            continue;
        }
        let record = obj(vec![
            ("v", Json::Num(CODEC_VERSION as f64)),
            ("index", Json::Num(index as f64)),
            ("scenario", scenario_to_json(sc)),
        ]);
        write_atomic(spool, &tasks_dir(spool).join(&name), &record.write())?;
        requeued += 1;
    }
    Ok(requeued)
}

/// Non-blockingly reap children that have exited, removing them from the
/// list. Returns how many exited unsuccessfully since the last poll.
fn poll_children(children: &mut Vec<Child>) -> usize {
    let mut failed = 0;
    children.retain_mut(|child| match child.try_wait() {
        Ok(Some(status)) => {
            if !status.success() {
                failed += 1;
            }
            false
        }
        Ok(None) => true,
        Err(_) => {
            failed += 1;
            false
        }
    });
    failed
}

/// Wait on every child (killing them first when `kill` is set — the
/// coordinator is abandoning the sweep and must stop them mutating the
/// spool). Returns how many exited unsuccessfully.
fn reap_children(children: &mut Vec<Child>, kill: bool) -> usize {
    let mut failed = 0;
    for mut child in children.drain(..) {
        if kill {
            let _ = child.kill();
        }
        match child.wait() {
            Ok(status) if status.success() => {}
            _ => failed += 1,
        }
    }
    failed
}

/// Number of result files currently in the spool (progress signal for the
/// coordinator's merge grace window).
pub(crate) fn count_results(spool: &Path) -> Result<usize, DistError> {
    let dir = results_dir(spool);
    let entries = std::fs::read_dir(&dir).map_err(|e| io_err(&dir, e))?;
    Ok(entries.filter_map(|e| e.ok()).count())
}

/// Number of claims whose result has not been written yet — tasks some
/// worker (live or dead) holds in flight.
pub(crate) fn unfinished_claims(spool: &Path) -> Result<usize, DistError> {
    let dir = claimed_dir(spool);
    let entries = std::fs::read_dir(&dir).map_err(|e| io_err(&dir, e))?;
    let mut unfinished = 0;
    for entry in entries.filter_map(|e| e.ok()) {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(index) = name
            .strip_prefix("task-")
            .and_then(|s| s.strip_suffix(".json"))
            .and_then(|s| s.parse::<usize>().ok())
        {
            if !result_path(spool, index).exists() {
                unfinished += 1;
            }
        }
    }
    Ok(unfinished)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcal_sim::ScenarioRegistry;

    fn grid(n: usize) -> Vec<Scenario> {
        ScenarioRegistry::reduced().scenarios().into_iter().take(n).collect()
    }

    fn fresh_spool(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("simcal-dist-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn fingerprints(rs: &[SweepResult]) -> Vec<(String, Vec<u64>, u64, u64)> {
        rs.iter().map(SweepResult::fingerprint).collect()
    }

    #[test]
    fn sweep_result_codec_round_trips_with_nan_nodes() {
        let r = SweepResult {
            name: "demo".to_string(),
            makespan: 123.456,
            mean_job_time: 7.89,
            mean_queue_wait: 1.25,
            max_queue_wait: 4.5,
            node_means: vec![1.0, f64::NAN, 3.0],
            node_stds: vec![0.5, f64::NAN, f64::INFINITY],
            events: u64::MAX - 3,
            trace_hash: 0xDEAD_BEEF_0123_4567,
            wall_seconds: 0.25,
            wait_p50: 0.75,
            wait_p99: 3.5,
            wait_p999: 4.25,
            slowdown_p50: 1.5,
            slowdown_p99: 8.0,
            slowdown_p999: 12.0,
            slo_attained: 0.875,
            event_pushes: 42,
            event_stale_drops: 7,
        };
        let text = encode_sweep_result(&r);
        let back = decode_sweep_result(&text).unwrap();
        assert_eq!(back.fingerprint(), r.fingerprint());
        assert_eq!(back.events, r.events);
        assert_eq!(back.event_pushes, r.event_pushes);
        assert_eq!(back.event_stale_drops, r.event_stale_drops);
        assert_eq!(encode_sweep_result(&back), text, "re-encode is byte-identical");
    }

    #[test]
    fn pre_v6_sweep_result_payloads_decode_with_defaults() {
        // A v5-shaped payload (no percentile/SLO fields, no counters)
        // must still decode — remote workers running older builds feed
        // the same spool.
        let sc = ScenarioRegistry::reduced().scenarios().remove(0);
        let r = SweepResult::from_trace("old", &sc.run(&mut simcal_sim::SimSession::new()));
        let mut json = sweep_result_to_json(&r);
        let fields = json.fields_mut().unwrap();
        fields.retain(|(k, _)| {
            !matches!(
                k.as_str(),
                "wait_p50"
                    | "wait_p99"
                    | "wait_p999"
                    | "slowdown_p50"
                    | "slowdown_p99"
                    | "slowdown_p999"
                    | "slo_attained"
                    | "event_pushes"
                    | "event_stale_drops"
            )
        });
        for (k, v) in fields.iter_mut() {
            if k == "v" {
                *v = Json::Num(5.0);
            }
        }
        let back = sweep_result_from_json(&json).unwrap();
        assert_eq!(back.name, r.name);
        assert_eq!(back.trace_hash, r.trace_hash);
        assert_eq!(back.wait_p50, 0.0);
        assert_eq!(back.slowdown_p50, 1.0);
        assert_eq!(back.slo_attained, 1.0);
        assert_eq!(back.event_pushes, 0);
    }

    #[test]
    fn retired_timer_store_fields_still_decode_and_are_not_re_emitted() {
        // A spool journaled by the previous binary carries `event_list` on
        // every scenario's config and `calendar_*` on every result;
        // `--resume` must read both, ignore the fields, and write neither.
        use simcal_sim::codec::{decode_scenario, encode_scenario};
        let sc = ScenarioRegistry::reduced().scenarios().remove(0);
        let r = SweepResult::from_trace("old", &sc.run(&mut simcal_sim::SimSession::new()));
        let (task, result) = (encode_scenario(&sc), encode_sweep_result(&r));
        assert!(!task.contains("event_list") && !result.contains("calendar"));
        let old_task = task.replace(r#""wan_model":"#, r#""event_list":"calendar","wan_model":"#);
        let old_result = result.replacen(
            r#""event_pushes":"#,
            r#""calendar_resizes":"3","calendar_overflow_hits":"1","event_pushes":"#,
            1,
        );
        assert!(old_task.len() > task.len() && old_result.len() > result.len());
        for v in [r#""v":6"#, r#""v":7"#] {
            let back = decode_scenario(&old_task.replacen(r#""v":7"#, v, 1)).unwrap();
            assert_eq!(encode_scenario(&back), task, "{v}: scenario re-encode differs");
            let back = decode_sweep_result(&old_result.replacen(r#""v":7"#, v, 1)).unwrap();
            assert_eq!(encode_sweep_result(&back), result, "{v}: result re-encode differs");
        }
    }

    #[test]
    fn spooled_sweep_matches_in_process_run() {
        let grid = grid(5);
        let spool = fresh_spool("basic");
        let merged = DistSweep::new(&spool).with_threads(2).run(&grid).unwrap();
        let local = SweepRunner::new().with_workers(2).run(&grid);
        assert_eq!(fingerprints(&merged), fingerprints(&local));
        // The queue is fully drained and every task accounted for.
        assert_eq!(SpoolSource::open(&spool).pending().unwrap().len(), 0);
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn concurrent_worker_drains_share_the_queue() {
        let grid = grid(6);
        let spool = fresh_spool("steal");
        spool_tasks(&spool, &grid).unwrap();
        // Two "processes" (independent worker drains over the shared
        // spool) running concurrently; between them they must complete
        // every task exactly once.
        let counts: Vec<usize> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> =
                (0..2).map(|_| scope.spawn(|_| run_worker(&spool, 1).unwrap())).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
        .unwrap();
        assert_eq!(counts.iter().sum::<usize>(), grid.len());
        let merged = merge_results(&spool).unwrap();
        assert_eq!(
            fingerprints(&merged),
            fingerprints(&SweepRunner::new().with_workers(1).run(&grid))
        );
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn orphaned_claims_are_requeued_and_recovered() {
        let grid = grid(4);
        let spool = fresh_spool("orphan");
        spool_tasks(&spool, &grid).unwrap();
        // Simulate a worker that claimed a task and died.
        let name = task_file_name(2);
        std::fs::rename(tasks_dir(&spool).join(&name), claimed_dir(&spool).join(&name)).unwrap();
        // A worker drain completes everything *except* the orphan…
        assert_eq!(run_worker(&spool, 1).unwrap(), grid.len() - 1);
        assert!(matches!(
            merge_results(&spool),
            Err(DistError::Incomplete { ref missing, .. }) if missing == &[2]
        ));
        // …requeueing recovers it.
        assert_eq!(requeue_orphans(&spool).unwrap(), 1);
        assert_eq!(run_worker(&spool, 1).unwrap(), 1);
        let merged = merge_results(&spool).unwrap();
        assert_eq!(
            fingerprints(&merged),
            fingerprints(&SweepRunner::new().with_workers(1).run(&grid))
        );
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn merge_rejects_corrupt_checksums() {
        let grid = grid(2);
        let spool = fresh_spool("corrupt");
        DistSweep::new(&spool).run(&grid).unwrap();
        // Flip a byte inside the checksummed payload of one result.
        let path = result_path(&spool, 0);
        let text = std::fs::read_to_string(&path).unwrap();
        let tampered = text.replacen("\"makespan\":", "\"makespan_x\":", 1);
        assert_ne!(text, tampered);
        std::fs::write(&path, tampered).unwrap();
        assert!(matches!(merge_results(&spool), Err(DistError::Corrupt { .. })));
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn spool_refuses_to_overwrite_a_live_sweep() {
        let grid = grid(2);
        let spool = fresh_spool("inuse");
        spool_tasks(&spool, &grid).unwrap();
        assert!(matches!(spool_tasks(&spool, &grid), Err(DistError::SpoolInUse(_))));
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn spool_refuses_stale_manifestless_leftovers() {
        // A previous coordinator crashed after writing task files but
        // before the manifest: those stale tasks would be claimable by a
        // new sweep and poison its merge, so spooling must refuse.
        let spool = fresh_spool("stale");
        std::fs::create_dir_all(tasks_dir(&spool)).unwrap();
        std::fs::write(tasks_dir(&spool).join(task_file_name(17)), "{}").unwrap();
        assert!(matches!(spool_tasks(&spool, &grid(2)), Err(DistError::SpoolInUse(_))));
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn workers_write_results_incrementally() {
        // Results must appear as tasks complete, not in one batch at the
        // end of the drain — the crash-loss bound the module doc claims.
        let grid = grid(3);
        let spool = fresh_spool("incremental");
        spool_tasks(&spool, &grid).unwrap();
        let source = SpoolSource::open(&spool);
        let runner = SweepRunner::new().with_workers(1);
        let seen = Mutex::new(Vec::new());
        runner.run_source_each(&source, |index, result| {
            write_result(&spool, index, result).unwrap();
            // At the moment each task completes, its own result file (and
            // those of all previously-finished tasks) are already on disk.
            let done = std::fs::read_dir(results_dir(&spool)).unwrap().count();
            let mut seen = seen.lock();
            seen.push(index);
            assert_eq!(done, seen.len(), "result files lag completed tasks");
        });
        assert_eq!(seen.into_inner().len(), grid.len());
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn empty_grid_is_fine() {
        let spool = fresh_spool("empty");
        assert!(DistSweep::new(&spool).run(&[]).unwrap().is_empty());
    }

    #[test]
    fn sweep_result_codec_tolerates_v1_payloads_without_wait_columns() {
        let grid = grid(1);
        let r = SweepRunner::new().with_workers(1).run(&grid).remove(0);
        let text = encode_sweep_result(&r);
        // Strip the v2 queue-wait fields and mark the payload v1.
        let stripped = text
            .replace(&format!(",\"mean_queue_wait\":{}", r.mean_queue_wait), "")
            .replace(&format!(",\"max_queue_wait\":{}", r.max_queue_wait), "")
            .replacen(&format!("{{\"v\":\"{CODEC_VERSION}\""), "{\"v\":\"1\"", 1)
            .replacen(&format!("{{\"v\":{CODEC_VERSION}"), "{\"v\":1", 1);
        assert!(!stripped.contains("queue_wait"), "fields stripped: {stripped}");
        let back = decode_sweep_result(&stripped).unwrap();
        assert_eq!(back.mean_queue_wait, 0.0);
        assert_eq!(back.max_queue_wait, 0.0);
        assert_eq!(back.trace_hash, r.trace_hash);
    }

    #[test]
    fn corrupt_results_are_requeued_once_and_counted() {
        // Drain a spool, corrupt one persisted result, then resume: the
        // coordinator must discard the bad record, requeue the task, rerun
        // it, and report one corrupt result — not fail the merge.
        let grid = grid(3);
        let spool = fresh_spool("corrupt-requeue");
        DistSweep::new(&spool).run(&grid).unwrap();
        let path = result_path(&spool, 1);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replacen("\"makespan\":", "\"makespan_x\":", 1)).unwrap();
        let (merged, summary) =
            DistSweep::new(&spool).with_resume(true).run_summarized(&grid).unwrap();
        assert_eq!(summary.corrupt_results, 1, "{summary}");
        assert!(!summary.is_clean());
        assert_eq!(
            fingerprints(&merged),
            fingerprints(&SweepRunner::new().with_workers(1).run(&grid))
        );
        // A truncated (unparseable) result is recovered the same way.
        std::fs::write(result_path(&spool, 0), &text[..text.len() / 2]).unwrap();
        let (merged, summary) =
            DistSweep::new(&spool).with_resume(true).run_summarized(&grid).unwrap();
        assert_eq!(summary.corrupt_results, 1);
        assert_eq!(
            fingerprints(&merged),
            fingerprints(&SweepRunner::new().with_workers(1).run(&grid))
        );
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn corruption_with_no_recoverable_task_is_an_error() {
        let grid = grid(2);
        let spool = fresh_spool("corrupt-lost");
        DistSweep::new(&spool).run(&grid).unwrap();
        // Corrupt a result AND delete its claim tombstone: there is no
        // task file anywhere to requeue, so recovery must fail loudly.
        let path = result_path(&spool, 0);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replacen("\"makespan\":", "\"makespan_x\":", 1)).unwrap();
        std::fs::remove_file(claimed_dir(&spool).join(task_file_name(0))).unwrap();
        assert!(matches!(
            DistSweep::new(&spool).with_resume(true).run_summarized(&grid),
            Err(DistError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn resume_recovers_a_crashed_coordinators_spool() {
        let grid = grid(4);
        let spool = fresh_spool("resume");
        spool_tasks(&spool, &grid).unwrap();
        // Simulate the crash: one claim orphaned, the rest drained.
        let name = task_file_name(2);
        std::fs::rename(tasks_dir(&spool).join(&name), claimed_dir(&spool).join(&name)).unwrap();
        run_worker(&spool, 1).unwrap();
        // A fresh coordinator refuses the dirty spool...
        assert!(matches!(DistSweep::new(&spool).run(&grid), Err(DistError::SpoolInUse(_))));
        // ...but --resume picks it up: requeues the orphan and finishes.
        let (merged, summary) =
            DistSweep::new(&spool).with_resume(true).run_summarized(&grid).unwrap();
        assert_eq!(summary.requeued_tasks, 1, "{summary}");
        assert_eq!(summary.corrupt_results, 0);
        assert_eq!(
            fingerprints(&merged),
            fingerprints(&SweepRunner::new().with_workers(1).run(&grid))
        );
        // Resuming a settled spool is idempotent: nothing to requeue.
        let (merged, summary) =
            DistSweep::new(&spool).with_resume(true).run_summarized(&grid).unwrap();
        assert!(summary.is_clean(), "{summary}");
        assert_eq!(merged.len(), grid.len());
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn resume_rejects_a_mismatched_grid() {
        let grid = grid(3);
        let spool = fresh_spool("resume-mismatch");
        spool_tasks(&spool, &grid).unwrap();
        let other = grid.iter().take(2).cloned().collect::<Vec<_>>();
        assert!(matches!(
            DistSweep::new(&spool).with_resume(true).run_summarized(&other),
            Err(DistError::Corrupt { .. })
        ));
        // Resume on a spool that never existed is an error, not a fresh
        // sweep (the caller asked to continue something).
        let missing = fresh_spool("resume-missing");
        assert!(DistSweep::new(&missing).with_resume(true).run_summarized(&grid).is_err());
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn hung_worker_does_not_stall_the_sweep() {
        // A worker that (possibly) claims a task and then hangs forever.
        // The pre-deadline coordinator did a blocking wait on every child
        // before recovering claims, so this test would hang; the
        // deadline-based coordinator requeues the stale claim, finishes
        // the work itself, and kills the hung child on the way out.
        let grid = grid(4);
        let spool = fresh_spool("hung");
        let script = format!(
            "f=$(ls {spool}/tasks 2>/dev/null | head -n 1); \
             [ -n \"$f\" ] && mv {spool}/tasks/$f {spool}/claimed/$f 2>/dev/null; \
             sleep 300",
            spool = spool.display()
        );
        let t0 = std::time::Instant::now();
        let merged = DistSweep::new(&spool)
            .with_stall_timeout(std::time::Duration::from_millis(300))
            .with_spawn(1)
            .with_worker_command("/bin/sh", vec!["-c".to_string(), script])
            .run(&grid)
            .unwrap();
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(60),
            "sweep must not wait out the child's 300 s sleep"
        );
        assert_eq!(
            fingerprints(&merged),
            fingerprints(&SweepRunner::new().with_workers(1).run(&grid)),
            "recovered results are bit-identical to a local sweep"
        );
        std::fs::remove_dir_all(&spool).ok();
    }
}
