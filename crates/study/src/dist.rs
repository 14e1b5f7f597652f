//! The sweep journal: the spool directory a distributed sweep persists
//! its results to, and the `SweepResult` wire codec.
//!
//! The coordinator ([`crate::net::TcpSweep`]) hands tasks out from an
//! in-memory queue; the spool is only its durable record:
//!
//! ```text
//! spool/
//!   manifest.json              {"v":7,"names":[...]}   the grid, in order
//!   results/result-00007.json  {"v":7,"index":7,"sum":"<fnv>","result":{...}}
//!   addr                       the coordinator's bound host:port
//! ```
//!
//! Results are written to a temp name and renamed into `results/`, so a
//! reader never observes a torn file; each record carries an FNV-1a
//! checksum over its encoded payload that the merge re-verifies, along
//! with the scenario name against the manifest. A coordinator that
//! crashes leaves its finished results behind, and a resumed one
//! ([`TcpSweep::with_resume`](crate::net::TcpSweep::with_resume)) queues
//! only the tasks without one. Spool directories are single-use: a fresh
//! sweep refuses a directory that holds a manifest or any result.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use simcal_sim::codec::{
    check_version, json_f64, json_u64, obj, CodecError, Json, ObjReader, CODEC_VERSION,
};
use simcal_sim::Scenario;

use crate::sweep::SweepResult;

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
    /// leftover result files from a crashed attempt).
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
                    "spool {} already holds sweep state (a manifest or leftover result files); \
                     point the coordinator at a fresh directory",
                    p.display()
                )
            }
            DistError::Corrupt { path, msg } => write!(f, "{}: {msg}", path.display()),
            DistError::Incomplete { missing } => {
                write!(f, "{} task(s) produced no result (indices {missing:?})", missing.len())
            }
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

// Re-exported so journal users keep one import path for the checksum hash.
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
    check_version("SweepResult", &r)?;
    let hash_text = r.str("trace_hash")?;
    let trace_hash = u64::from_str_radix(hash_text, 16).map_err(|_| CodecError::Invalid {
        ty: "SweepResult",
        msg: format!("bad trace hash {hash_text:?}"),
    })?;
    Ok(SweepResult {
        name: r.str("name")?.to_string(),
        makespan: r.f64("makespan")?,
        mean_job_time: r.f64("mean_job_time")?,
        mean_queue_wait: r.f64("mean_queue_wait")?,
        max_queue_wait: r.f64("max_queue_wait")?,
        node_means: r.f64_arr("node_means")?,
        node_stds: r.f64_arr("node_stds")?,
        events: r.u64("events")?,
        trace_hash,
        wall_seconds: r.f64("wall_seconds")?,
        wait_p50: r.f64("wait_p50")?,
        wait_p99: r.f64("wait_p99")?,
        wait_p999: r.f64("wait_p999")?,
        slowdown_p50: r.f64("slowdown_p50")?,
        slowdown_p99: r.f64("slowdown_p99")?,
        slowdown_p999: r.f64("slowdown_p999")?,
        slo_attained: r.f64("slo_attained")?,
        event_pushes: r.u64("event_pushes")?,
        event_stale_drops: r.u64("event_stale_drops")?,
    })
}

// ---- the journal -----------------------------------------------------------

fn results_dir(spool: &Path) -> PathBuf {
    spool.join("results")
}

fn manifest_path(spool: &Path) -> PathBuf {
    spool.join("manifest.json")
}

pub(crate) fn result_path(spool: &Path, index: usize) -> PathBuf {
    results_dir(spool).join(format!("result-{index:05}.json"))
}

/// Write `text` to a temp name in `spool` and atomically rename it to
/// `target`, so concurrent readers never see a torn file. Every write gets
/// a temp name of its own: two threads journaling the same task (a
/// requeued task's second result) must not share one.
pub(crate) fn write_atomic(spool: &Path, target: &Path, text: &str) -> Result<(), DistError> {
    static WRITES: AtomicU64 = AtomicU64::new(0);
    let tmp = spool.join(format!(
        ".tmp-{}-{}-{}",
        std::process::id(),
        WRITES.fetch_add(1, Ordering::Relaxed),
        target.file_name().and_then(|n| n.to_str()).unwrap_or("file")
    ));
    std::fs::write(&tmp, text).map_err(|e| io_err(&tmp, e))?;
    std::fs::rename(&tmp, target).map_err(|e| io_err(target, e))
}

/// Start a journal in a fresh spool directory: create `results/` and
/// write the manifest naming the grid. Refuses a spool that already holds
/// sweep state — a manifest, *or* any leftover result (e.g. from a
/// previous coordinator that crashed before writing its manifest), which
/// would poison this sweep's merge.
pub fn create_spool(spool: &Path, grid: &[Scenario]) -> Result<(), DistError> {
    let dir = results_dir(spool);
    if manifest_path(spool).exists() {
        return Err(DistError::SpoolInUse(spool.to_path_buf()));
    }
    std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
    if std::fs::read_dir(&dir).map_err(|e| io_err(&dir, e))?.next().is_some() {
        return Err(DistError::SpoolInUse(spool.to_path_buf()));
    }
    let names = Json::Arr(grid.iter().map(|sc| Json::Str(sc.name.clone())).collect());
    let record = obj(vec![("v", Json::Num(CODEC_VERSION as f64)), ("names", names)]);
    write_atomic(spool, &manifest_path(spool), &record.write())
}

/// Reopen the journal a crashed coordinator left behind: check that its
/// manifest names exactly `grid`, and return which tasks already have a
/// result file. Whether those files are sound is the merge's to judge.
pub fn reopen_spool(spool: &Path, grid: &[Scenario]) -> Result<Vec<bool>, DistError> {
    let names = read_manifest(spool)?;
    if names.len() != grid.len() || names.iter().zip(grid).any(|(a, sc)| *a != sc.name) {
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
    Ok((0..grid.len()).map(|index| result_path(spool, index).exists()).collect())
}

/// Read the spool manifest back: the grid's scenario names in order.
pub fn read_manifest(spool: &Path) -> Result<Vec<String>, DistError> {
    let path = manifest_path(spool);
    let text = std::fs::read_to_string(&path).map_err(|e| io_err(&path, e))?;
    let to_codec = |source| DistError::Codec { path: path.clone(), source };
    let json = Json::parse(&text).map_err(to_codec)?;
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

/// Journal one result from its serialized payload: the record is spliced
/// around the given text instead of re-encoded through the `Json` tree, so
/// a coordinator journaling a checksum-verified wire payload serializes
/// nothing. The spliced bytes match what the tree writer would produce
/// (`Json::Num` prints integral values bare), and the embedded `sum` is
/// computed over exactly the embedded text, which is all the merge ever
/// checks.
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

/// Delete a corrupt result file, so its task can be queued and rerun.
pub(crate) fn discard_result(spool: &Path, index: usize) -> Result<(), DistError> {
    let path = result_path(spool, index);
    match std::fs::remove_file(&path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(io_err(&path, e)),
        _ => Ok(()),
    }
}

/// Reassemble the journaled results in grid order, verifying each record's
/// FNV payload checksum and its scenario name against the manifest.
pub fn merge_results(spool: &Path) -> Result<Vec<SweepResult>, DistError> {
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
        return Err(DistError::Incomplete { missing });
    }
    Ok(slots.into_iter().map(|s| s.expect("missing checked above")).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcal_sim::ScenarioRegistry;

    fn fresh_spool(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("simcal-dist-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
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
    fn pre_current_result_records_fail_the_merge_with_a_version_error() {
        // A journaled result record stamped with an older codec version
        // is a structured version error, not a record read with
        // defaulted columns.
        use simcal_sim::codec::{CodecError, CODEC_VERSION};
        let sc = ScenarioRegistry::reduced().scenarios().remove(0);
        let r = SweepResult::from_trace(&sc.name, &sc.run(&mut simcal_sim::SimSession::new()));
        let spool = fresh_spool("old-record");
        create_spool(&spool, std::slice::from_ref(&sc)).unwrap();
        write_result_text(&spool, 0, &encode_sweep_result(&r)).unwrap();
        let path = result_path(&spool, 0);
        let current = format!(r#""v":{CODEC_VERSION}"#);
        let record = std::fs::read_to_string(&path).unwrap();
        assert!(record.starts_with(&format!("{{{current},")), "{record}");
        let old = CODEC_VERSION - 1;
        std::fs::write(&path, record.replacen(&current, &format!(r#""v":{old}"#), 1)).unwrap();
        match merge_results(&spool) {
            Err(DistError::Codec {
                source: CodecError::UnsupportedVersion { ty: "ResultRecord", version, .. },
                ..
            }) => assert_eq!(version, old),
            other => panic!("an old result record gave {other:?}"),
        }
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn retired_timer_store_fields_still_decode_and_are_not_re_emitted() {
        // The timer-store fields were retired in place at v7: a v7 payload
        // still carrying `event_list` on a scenario's config or
        // `calendar_*` on a result decodes, ignores them, and re-encodes
        // without them. The same payload stamped v6 is a version error.
        use simcal_sim::codec::{decode_scenario, encode_scenario, CodecError};
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
        let back = decode_scenario(&old_task).unwrap();
        assert_eq!(encode_scenario(&back), task, "scenario re-encode differs");
        let back = decode_sweep_result(&old_result).unwrap();
        assert_eq!(encode_sweep_result(&back), result, "result re-encode differs");
        let v6 = |text: &str| text.replacen(r#""v":7"#, r#""v":6"#, 1);
        assert!(matches!(
            decode_scenario(&v6(&old_task)),
            Err(CodecError::UnsupportedVersion { ty: "Scenario", version: 6, supported: 7 })
        ));
        assert!(matches!(
            decode_sweep_result(&v6(&old_result)),
            Err(CodecError::UnsupportedVersion { ty: "SweepResult", version: 6, supported: 7 })
        ));
    }
}
