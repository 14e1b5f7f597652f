//! The machine line recorded next to every result, and the process's peak
//! memory.

use std::path::Path;
use std::process::Command;

use crate::json::Json;

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The parallel worker count `P`: the only thread count besides 1.
pub fn parallel_workers() -> usize {
    nproc().min(4)
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None` where
/// `/proc` does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Filesystem type of the mount holding `path` (longest matching mount
/// point in `/proc/mounts`), or `"unknown"`.
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else { return "unknown".into() };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else { return "unknown".into() };
    mounts
        .lines()
        .filter_map(|l| {
            let mut cols = l.split_whitespace();
            let (_, mount, fs) = (cols.next()?, cols.next()?, cols.next()?);
            path.starts_with(mount).then_some((mount.len(), fs))
        })
        .max_by_key(|&(len, _)| len)
        .map_or("unknown".into(), |(_, fs)| fs.to_string())
}

fn first_line_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    Some(String::from_utf8_lossy(&out.stdout).lines().next()?.trim().to_string())
}

/// `{nproc, p, spool_fs, rustc, commit}` for the output files.
///
/// The commit is read only when the working directory is a git checkout
/// (the driver's copy is not), so `git` never searches parent directories.
pub fn describe(spool_dir: &Path) -> Json {
    let commit = Path::new(".git")
        .exists()
        .then(|| first_line_of(Command::new("git").args(["rev-parse", "--short=12", "HEAD"])))
        .flatten();
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("p", Json::Num(parallel_workers() as f64)),
        ("spool_fs", Json::str(filesystem_of(spool_dir))),
        (
            "rustc",
            Json::str(
                first_line_of(Command::new("rustc").arg("-V")).unwrap_or_else(|| "unknown".into()),
            ),
        ),
        ("commit", Json::str(commit.unwrap_or_else(|| "unknown".into()))),
    ])
}
