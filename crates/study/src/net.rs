//! TCP transport for the spooled distributed sweep: an elastic worker
//! fleet over sockets, with heartbeats and deterministic fault injection.
//!
//! The spool protocol in [`crate::dist`] shares work through a
//! filesystem; this module adds the transport the paper's WAN-scale
//! deployments need: the coordinator ([`TcpSweep`]) listens on a socket,
//! workers ([`TcpWorker`]) dial in from anywhere, and tasks, results, and
//! heartbeats flow as length-prefixed [`simcal_sim::codec`] frames
//! ([`WireMsg`]). The spool stays underneath as the durable journal —
//! every accepted result is written through [`crate::dist`]'s checksummed,
//! atomically-renamed result files, so a crashed coordinator resumes with
//! [`TcpSweep::with_resume`] exactly like the filesystem transport does.
//!
//! ## Protocol
//!
//! Each connection is **windowed and pipelined** (codec v5): the worker
//! sends `Hello` once (advertising its `threads`), then
//! loops `ClaimN { max, holding }` → (`TaskBatch` | `Heartbeat` |
//! `Drain`), streaming a `Result` back as each task finishes and
//! re-claiming *before* its queue drains so the claim round trip hides
//! behind compute. The coordinator tracks a per-connection in-flight
//! *set* and sizes each grant from an adaptive
//! [`ClaimWindow`]: start at 1, double on a
//! full accepted window, halve on any requeue, cap from observed
//! claim→result latency vs per-task duration — so sub-millisecond tasks
//! batch aggressively while long calibration tasks degrade to the old
//! lock-step cadence. A claim the window (or a momentarily dry spool)
//! cannot satisfy is **parked**, not refused: the coordinator withholds
//! the grant and retries it on every accepted result, heartbeat, and
//! poll tick, answering dry spells with `Heartbeat` liveness frames so
//! the waiting worker never burns a backoff sleep (v4 peers, which block
//! on every claim, still get their immediate `Heartbeat` "back off and
//! re-claim" answer). `Drain` means "no work will ever come; goodbye",
//! answered with `Bye`. A background ticker on each
//! worker connection sends `Heartbeat` frames at a fixed interval so the
//! coordinator can tell slow from dead. v4 workers still interoperate:
//! their lock-step `Claim` is served as `ClaimN { max: 1, holding: [] }`
//! with single-`Task` replies.
//!
//! When the coordinator is started with an auth token it opens every
//! connection with `AuthChallenge { nonce }` and serves no tasks (and
//! journals no results) until the worker proves the shared secret with
//! `AuthProof` ([`crate::auth`], HMAC-SHA256 over the nonce). A wrong or
//! missing proof earns a structured `Reject` and a counted close.
//! Listening on a non-loopback interface *requires* a token; loopback
//! stays zero-config.
//!
//! ## Failure handling
//!
//! The in-flight-set generalization of PR 7's race-free loss argument:
//! a worker's `ClaimN.holding` lists every task it has claimed on this
//! connection but not yet resulted, and frames on one socket are
//! ordered, so any outstanding task *missing* from an arriving claim's
//! `holding` can no longer produce a result — its `Result` frame was
//! lost. Those tasks are requeued on the spot (shrinking the window).
//! The *whole* outstanding window is requeued when the connection dies,
//! the heartbeat deadline lapses with no frame (the same
//! `--stall-timeout` knob the process transport uses), or a corrupt
//! repeat-offender gets cut. Corrupt `Result` frames (bad checksum,
//! undecodable payload, name mismatch) are counted, requeued once, and
//! cut the connection on a repeat. If the whole fleet goes quiet for a
//! stall window the coordinator requeues all orphans and drains the
//! spool locally, so the sweep terminates within one stall window of
//! the last external progress no matter what the workers do. Workers
//! reconnect through the shared seeded
//! [`Backoff`] dialer, dropping their local
//! queue (the coordinator requeues that window — recomputing is safe,
//! double-journaling is impossible).
//!
//! ## Fault injection
//!
//! [`FaultPlan`] deterministically injures a worker's outbound frame
//! stream — kill after N tasks, drop/truncate exactly one frame,
//! partition (shut down) the connection, delay every k-th frame, corrupt
//! a result checksum. Plans parse from compact `key=value` specs (the
//! CLI's `--fault`) or derive from a seed, and the chaos tests assert the
//! merged results stay bit-identical to a local [`SweepRunner`] run under
//! every schedule.

use std::collections::{HashSet, VecDeque};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use simcal_sim::codec::{
    encode_msg, encode_result_msg, encode_task_batch_msg, encode_task_msg, read_frame,
    scenario_from_json, write_frame, write_frame_text, FrameError, Json, WireMsg,
};
use simcal_sim::Scenario;

use crate::auth;
use crate::backoff::{Backoff, ClaimWindow, MAX_CLAIM_WINDOW};
use crate::dist::{
    count_results, fnv1a, merge_results, requeue_orphans, requeue_task, result_path, resume_spool,
    run_worker, spool_tasks, sweep_result_from_json, sweep_result_to_json, unfinished_claims,
    write_atomic, write_result_text, DistError, SpoolSource,
};
use crate::sweep::{SweepResult, SweepRunner};

/// How often a connection handler wakes from a blocked read to check the
/// done flag and the heartbeat deadline.
const HANDLER_POLL: Duration = Duration::from_millis(25);

/// Ceiling on the monitor loop's condvar wait: the longest a dialing
/// worker can sit in the non-blocking listener's backlog before the
/// monitor's next `accept` picks it up. Result progress wakes the
/// monitor immediately; this cap only bounds accept latency.
const ACCEPT_POLL_CAP: Duration = Duration::from_millis(5);

/// How long a handler waits for a worker's `Bye` after sending `Drain`.
/// Longer than the worker's idle re-claim backoff cap, so a worker
/// sleeping between claims still sees the `Drain` inside the window.
const DRAIN_WAIT: Duration = Duration::from_secs(1);

/// Local-drain recovery rounds before the coordinator gives up and lets
/// the merge report what is missing (mirrors `dist::MAX_RECOVERIES`).
const MAX_RECOVERIES: u32 = 3;

fn net_err(addr: &str, msg: impl Into<String>) -> DistError {
    DistError::Net { addr: addr.to_string(), msg: msg.into() }
}

// ---- fault injection -------------------------------------------------------

/// A deterministic fault schedule for one [`TcpWorker`].
///
/// Frame ordinals are 1-based and count every frame the worker *attempts*
/// to send, across all of its threads and reconnects (heartbeats
/// included), so a given plan injures the same point in the stream on
/// every run with the same timing-insensitive schedule. All faults are
/// one-shot except `delay_every`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Abruptly kill the whole worker (no `Drain`, no `Bye`, sockets
    /// reset) after it has completed this many tasks.
    pub kill_after_tasks: Option<u64>,
    /// Silently swallow the Nth outbound frame (the peer never sees it).
    pub drop_frame: Option<u64>,
    /// Send only half of the Nth outbound frame, then break the
    /// connection mid-frame.
    pub truncate_frame: Option<u64>,
    /// Shut the connection down (both directions, once) after this many
    /// outbound frames — a network partition the worker heals by
    /// redialing.
    pub partition_after: Option<u64>,
    /// Sleep `ms` before every `k`-th outbound frame: `(k, ms)` — a slow
    /// worker, not a broken one.
    pub delay_every: Option<(u64, u64)>,
    /// Flip the checksum on the Nth `Result` frame the worker sends, so
    /// the coordinator sees a corrupt result.
    pub corrupt_result: Option<u64>,
}

impl FaultPlan {
    /// No faults at all.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }

    /// Derive one fault deterministically from a seed — the chaos oracle
    /// iterates seeds to sweep the fault space.
    pub fn seeded(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA17_1A17);
        let mut plan = Self::default();
        match rng.random_range(0..6u64) {
            0 => plan.kill_after_tasks = Some(rng.random_range(1..3u64)),
            1 => plan.drop_frame = Some(rng.random_range(2..8u64)),
            2 => plan.truncate_frame = Some(rng.random_range(2..8u64)),
            3 => plan.partition_after = Some(rng.random_range(1..6u64)),
            4 => plan.delay_every = Some((rng.random_range(2..5u64), rng.random_range(10..40u64))),
            _ => plan.corrupt_result = Some(rng.random_range(1..3u64)),
        }
        plan
    }

    /// Parse a compact spec: comma-separated `key=value` pairs from
    /// `kill-after`, `drop-frame`, `truncate-frame`, `partition-after`,
    /// `delay-every` (value `KxMS`), `corrupt-result` — or a lone
    /// `seed=N` which expands through [`FaultPlan::seeded`].
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = Self::default();
        let mut seed = None;
        for part in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (key, val) =
                part.split_once('=').ok_or_else(|| format!("fault {part:?} is not key=value"))?;
            let num = |v: &str| {
                v.parse::<u64>()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| format!("fault {part:?} needs a positive integer"))
            };
            match key {
                "kill-after" => plan.kill_after_tasks = Some(num(val)?),
                "drop-frame" => plan.drop_frame = Some(num(val)?),
                "truncate-frame" => plan.truncate_frame = Some(num(val)?),
                "partition-after" => plan.partition_after = Some(num(val)?),
                "delay-every" => {
                    let (k, ms) = val
                        .split_once('x')
                        .ok_or_else(|| format!("fault {part:?} wants delay-every=KxMS"))?;
                    plan.delay_every = Some((num(k)?, num(ms)?));
                }
                "corrupt-result" => plan.corrupt_result = Some(num(val)?),
                "seed" => seed = Some(num(val)?),
                other => return Err(format!("unknown fault key {other:?}")),
            }
        }
        match seed {
            Some(s) if plan.is_empty() => Ok(Self::seeded(s)),
            Some(_) => Err("fault seed=N cannot be combined with explicit faults".to_string()),
            None => Ok(plan),
        }
    }

    /// The spec string [`FaultPlan::parse`] round-trips (empty for no
    /// faults).
    pub fn spec(&self) -> String {
        let mut parts = Vec::new();
        if let Some(n) = self.kill_after_tasks {
            parts.push(format!("kill-after={n}"));
        }
        if let Some(n) = self.drop_frame {
            parts.push(format!("drop-frame={n}"));
        }
        if let Some(n) = self.truncate_frame {
            parts.push(format!("truncate-frame={n}"));
        }
        if let Some(n) = self.partition_after {
            parts.push(format!("partition-after={n}"));
        }
        if let Some((k, ms)) = self.delay_every {
            parts.push(format!("delay-every={k}x{ms}"));
        }
        if let Some(n) = self.corrupt_result {
            parts.push(format!("corrupt-result={n}"));
        }
        parts.join(",")
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            write!(f, "none")
        } else {
            write!(f, "{}", self.spec())
        }
    }
}

// ---- the coordinator -------------------------------------------------------

/// Per-connection transport observability: who served what, at what
/// cost. One report per connection that introduced itself, pushed into
/// [`TcpSummary::per_worker`] when the connection closes.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct WorkerReport {
    /// The worker's `Hello` name.
    pub name: String,
    /// Advertised worker threads (0 = unadvertised, e.g. a v4 peer).
    pub threads: u64,
    /// Results this connection delivered (accepted or corrupt).
    pub tasks: usize,
    /// Frames read from this connection.
    pub frames_in: u64,
    /// Frames written to this connection.
    pub frames_out: u64,
    /// Bytes read from this connection.
    pub bytes_in: u64,
    /// Bytes written to this connection.
    pub bytes_out: u64,
    /// Mean claim→first-result latency in whole microseconds (`None`
    /// before any result).
    pub mean_rtt_us: Option<u64>,
    /// The claim window when the connection closed.
    pub final_window: usize,
}

impl std::fmt::Display for WorkerReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: caps={}t tasks={} frames={}in/{}out bytes={}in/{}out window={}",
            self.name,
            self.threads,
            self.tasks,
            self.frames_in,
            self.frames_out,
            self.bytes_in,
            self.bytes_out,
            self.final_window,
        )?;
        match self.mean_rtt_us {
            Some(us) => write!(f, " rtt={us}us"),
            None => write!(f, " rtt=n/a"),
        }
    }
}

/// What happened during a TCP sweep beyond the results: fleet membership
/// and every recovery path's counter.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TcpSummary {
    /// Corrupt `Result` frames (or spooled records) discarded.
    pub corrupt_results: usize,
    /// Tasks put back in the queue after their worker lost them.
    pub requeued_tasks: usize,
    /// `Hello` frames received (connections that introduced themselves).
    pub workers_joined: usize,
    /// Connections that left cleanly (`Drain`/`Bye`).
    pub workers_left: usize,
    /// Connections declared dead: heartbeat deadline passed, broken
    /// socket, or cut for repeated corruption.
    pub dead_workers: usize,
    /// Connections refused for a wrong or missing auth proof.
    pub auth_rejects: usize,
    /// Stall-recovery rounds where the coordinator drained the spool
    /// locally because the fleet went quiet.
    pub recoveries: u32,
    /// One transport report per connection that said `Hello`, in
    /// connection order.
    pub per_worker: Vec<WorkerReport>,
}

impl TcpSummary {
    /// True when no fault-recovery path fired (fleet membership counters
    /// aside).
    pub fn is_clean(&self) -> bool {
        self.corrupt_results == 0
            && self.requeued_tasks == 0
            && self.dead_workers == 0
            && self.auth_rejects == 0
            && self.recoveries == 0
    }
}

impl std::fmt::Display for TcpSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "corrupt_results={} requeued_tasks={} workers_joined={} workers_left={} \
             dead_workers={} auth_rejects={} recoveries={}",
            self.corrupt_results,
            self.requeued_tasks,
            self.workers_joined,
            self.workers_left,
            self.dead_workers,
            self.auth_rejects,
            self.recoveries
        )
    }
}

/// Why a connection handler stopped.
enum Close {
    /// We drained the worker (or it said goodbye after our `Drain`).
    Drained,
    /// The worker left on its own terms (`Drain`/`Bye`, or a clean close
    /// with nothing in flight).
    Left,
    /// Heartbeat deadline passed, socket broke, frames corrupted, or the
    /// worker repeatedly sent corrupt results.
    Dead,
    /// Refused: wrong or missing auth proof (counted separately — a
    /// stranger turned away is not a worker lost).
    Rejected,
}

/// A claim's answer, from the coordinator's shared state.
enum Grant {
    /// Hand out these tasks (scenarios still in wire text; never empty).
    Tasks(Vec<(usize, String)>),
    /// Queue empty but claims still unfinished: worker should back off
    /// and re-claim.
    Wait,
    /// Everything is done; drain the worker.
    Drain,
    /// Shared state hit a fatal error; close the connection.
    Fatal,
}

/// A byte-and-frame-counting wrapper around one connection's stream.
/// The handler is the only reader *and* only writer of its socket, so
/// plain counters suffice.
struct Metered<'a> {
    stream: &'a TcpStream,
    frames_in: u64,
    frames_out: u64,
    bytes_in: u64,
    bytes_out: u64,
}

impl<'a> Metered<'a> {
    fn new(stream: &'a TcpStream) -> Self {
        Self { stream, frames_in: 0, frames_out: 0, bytes_in: 0, bytes_out: 0 }
    }

    fn read_msg(&mut self) -> Result<WireMsg, FrameError> {
        let msg = read_frame(self)?;
        self.frames_in += 1;
        Ok(msg)
    }

    fn send(&mut self, msg: &WireMsg) -> std::io::Result<()> {
        write_frame(self, msg)?;
        self.frames_out += 1;
        Ok(())
    }

    /// Send an already-encoded frame body (the spliced grant path).
    fn send_text(&mut self, body: &str) -> std::io::Result<()> {
        write_frame_text(self, body)?;
        self.frames_out += 1;
        Ok(())
    }
}

impl std::io::Read for Metered<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = std::io::Read::read(&mut self.stream, buf)?;
        self.bytes_in += n as u64;
        Ok(n)
    }
}

impl std::io::Write for Metered<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = std::io::Write::write(&mut self.stream, buf)?;
        self.bytes_out += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        std::io::Write::flush(&mut self.stream)
    }
}

/// Per-connection coordinator state: the in-flight set, the adaptive
/// window, the latency probes, and the auth gate.
struct ConnState {
    /// Task indices granted on this connection with no result yet.
    outstanding: HashSet<usize>,
    window: ClaimWindow,
    /// Head task of the latest grant, with its grant instant: the
    /// claim→first-result RTT probe (queueing behind batch siblings
    /// would pollute per-task RTT, so only the head is timed).
    rtt_probe: Option<(usize, Instant)>,
    /// When the previous result arrived, for per-task-duration samples.
    last_result_at: Option<Instant>,
    name: String,
    threads: u64,
    tasks_served: usize,
    /// True once the shared secret is proven (or never demanded).
    authed: bool,
    /// Pre-auth claims tolerated so far (exactly one is legal: a v5
    /// worker's first claim races its own auth proof on the wire).
    preauth_claims: u32,
    nonce: u64,
    /// Unsatisfied demand from the worker's last claim. When the window
    /// is full at claim time the reply is *withheld*, not refused: the
    /// next accepted result frees a slot and triggers the grant, so
    /// lock-step never pays a backoff sleep between tasks.
    deferred: u64,
    /// The worker speaks v4 (`Claim`/`Task`/`Heartbeat` shapes).
    legacy: bool,
}

impl ConnState {
    fn new(window: Option<usize>, authed: bool, nonce: u64) -> Self {
        Self {
            outstanding: HashSet::new(),
            window: make_window(window, 0),
            rtt_probe: None,
            last_result_at: None,
            name: String::new(),
            threads: 0,
            tasks_served: 0,
            authed,
            preauth_claims: 0,
            nonce,
            deferred: 0,
            legacy: false,
        }
    }

    fn report(&self, m: &Metered<'_>) -> WorkerReport {
        WorkerReport {
            name: self.name.clone(),
            threads: self.threads,
            tasks: self.tasks_served,
            frames_in: m.frames_in,
            frames_out: m.frames_out,
            bytes_in: m.bytes_in,
            bytes_out: m.bytes_out,
            mean_rtt_us: self.window.mean_rtt_us(),
            final_window: self.window.window(),
        }
    }
}

/// The connection's window controller: pinned when `--claim-window N`,
/// otherwise adaptive with a starting cap from the worker's advertised
/// thread count (unadvertised ⇒ a modest default).
fn make_window(fixed: Option<usize>, threads: u64) -> ClaimWindow {
    match fixed {
        Some(n) => ClaimWindow::fixed(n),
        None => ClaimWindow::auto(((threads as usize) * 2).max(4)),
    }
}

/// State shared between the accept/monitor loop and every connection
/// handler thread.
struct CoordShared {
    spool: PathBuf,
    /// Manifest scenario names, indexed by task index.
    names: Vec<String>,
    source: SpoolSource,
    done: AtomicBool,
    stall: Duration,
    /// `Some(n)` pins every connection's claim window to `n`; `None` is
    /// adaptive (the default).
    claim_window: Option<usize>,
    /// The shared secret workers must prove; `None` = zero-config.
    auth_token: Option<String>,
    fatal: Mutex<Option<DistError>>,
    /// Task indices already forgiven one corrupt result.
    corrupt_seen: Mutex<HashSet<usize>>,
    /// Results journaled over the socket — the monitor loop's cue to
    /// re-scan the results directory, so an idle tick costs an atomic
    /// load instead of a directory walk.
    journaled: AtomicUsize,
    /// Distinct result files on disk (seeded with what a resume found).
    /// When it reaches `names.len()`, the journaling handler flips
    /// `done` itself — completion is detected the moment the last
    /// result lands, not a poll tick later. Requeue races can in theory
    /// overcount (two connections journaling the same index between
    /// each other's existence checks); the monitor's directory scan
    /// stays authoritative, so a premature `done` only costs a
    /// recovery pass, never a wrong artifact.
    done_results: AtomicUsize,
    /// Wakes the monitor loop out of its poll sleep the moment a
    /// handler journals a result.
    progress_lock: Mutex<()>,
    progress: std::sync::Condvar,
    corrupt_results: AtomicUsize,
    requeued: AtomicUsize,
    joined: AtomicUsize,
    left: AtomicUsize,
    dead: AtomicUsize,
    rejected: AtomicUsize,
    conn_seq: AtomicU64,
    reports: Mutex<Vec<WorkerReport>>,
}

impl CoordShared {
    fn fatal(&self, e: DistError) {
        let mut slot = self.fatal.lock();
        if slot.is_none() {
            *slot = Some(e);
        }
    }

    /// Put a lost task back in the queue (benign if it already has a
    /// result or is already queued).
    fn requeue(&self, index: usize) {
        match requeue_task(&self.spool, index) {
            Ok(true) => {
                self.requeued.fetch_add(1, Ordering::SeqCst);
            }
            Ok(false) => {}
            Err(e) => self.fatal(e),
        }
    }

    /// Claim up to `max` tasks for one grant.
    fn next_batch(&self, max: usize) -> Grant {
        if self.done.load(Ordering::SeqCst) || max == 0 {
            return if max == 0 { Grant::Wait } else { Grant::Drain };
        }
        match self.source.try_claim_batch(max) {
            Ok(tasks) if !tasks.is_empty() => Grant::Tasks(tasks),
            Ok(_) => match unfinished_claims(&self.spool) {
                Ok(0) => Grant::Drain,
                Ok(_) => Grant::Wait,
                Err(e) => {
                    self.fatal(e);
                    Grant::Fatal
                }
            },
            Err(e) => {
                self.fatal(e);
                Grant::Fatal
            }
        }
    }

    /// Validate and journal one `Result` frame. Returns `false` when the
    /// connection should be cut (repeated corruption, nonsense index, or
    /// a fatal spool error).
    fn accept_result(&self, index: usize, sum: u64, payload: &Json) -> bool {
        // One serialization pass covers both the checksum and the
        // journal write: a payload whose text survives the fnv check is
        // exactly the worker's canonical encoding, so it can be spliced
        // into the result record verbatim. The struct decode stays — it
        // is what proves the payload is a well-formed `SweepResult` for
        // the advertised scenario before anything touches the spool.
        let text = payload.write();
        let valid = index < self.names.len()
            && fnv1a(text.as_bytes()) == sum
            && sweep_result_from_json(payload).is_ok_and(|r| r.name == self.names[index]);
        if valid {
            let fresh = !result_path(&self.spool, index).exists();
            return match write_result_text(&self.spool, index, &text) {
                Ok(()) => {
                    self.journaled.fetch_add(1, Ordering::SeqCst);
                    if fresh
                        && self.done_results.fetch_add(1, Ordering::SeqCst) + 1 >= self.names.len()
                    {
                        // The final result: flip `done` and wake the
                        // monitor now, not a poll tick later. Only this
                        // flip notifies — waking the monitor per result
                        // would trade a context switch plus directory
                        // scan for every frame on a busy box. Flag
                        // first, then lock-and-notify: the monitor
                        // re-checks `done` under this lock before it
                        // waits, so the wakeup cannot be lost.
                        self.done.store(true, Ordering::SeqCst);
                        drop(self.progress_lock.lock());
                        self.progress.notify_all();
                    }
                    true
                }
                Err(e) => {
                    self.fatal(e);
                    false
                }
            };
        }
        self.corrupt_results.fetch_add(1, Ordering::SeqCst);
        if index < self.names.len() && self.corrupt_seen.lock().insert(index) {
            // First offense for this task: requeue and keep the
            // connection (the corruption may have been in transit).
            self.requeue(index);
            true
        } else {
            false
        }
    }

    /// Send a structured refusal and count it.
    fn reject(&self, m: &mut Metered<'_>, reason: &str) -> Close {
        let _ = m.send(&WireMsg::Reject { reason: reason.to_string() });
        self.rejected.fetch_add(1, Ordering::SeqCst);
        Close::Rejected
    }

    /// Serve one claim: requeue what the `holding` list proves lost,
    /// record the demand, and grant what the window allows. `legacy`
    /// selects the v4 single-`Task`/`Heartbeat` reply shapes.
    fn serve_claim(
        &self,
        m: &mut Metered<'_>,
        ctl: &mut ConnState,
        max: u64,
        holding: &[u64],
        legacy: bool,
    ) -> Option<Close> {
        ctl.legacy = legacy;
        if !ctl.authed {
            // A v5 worker's first claim legitimately races its own auth
            // proof (Hello, ClaimN, AuthProof arrive in that order), so
            // one pre-auth claim parks its demand until the proof lands
            // (the verified `AuthProof` pumps it); a second claim proves
            // the peer is not going to authenticate. Legacy workers
            // cannot authenticate at all — nudge the first claim so
            // their lock-step loop re-claims into the reject.
            if ctl.preauth_claims > 0 {
                return Some(self.reject(m, "authentication required"));
            }
            ctl.preauth_claims += 1;
            if legacy {
                let nudge = WireMsg::Heartbeat { inflight: None };
                return m.send(&nudge).is_err().then_some(Close::Dead);
            }
            ctl.deferred = max;
            return None;
        }
        // The loss detector: any outstanding task missing from `holding`
        // can no longer produce a result on this ordered socket — the
        // worker sends every Result before the ClaimN that omits it.
        let held: HashSet<usize> = holding.iter().map(|i| *i as usize).collect();
        let lost: Vec<usize> =
            ctl.outstanding.iter().filter(|i| !held.contains(i)).copied().collect();
        if !lost.is_empty() {
            ctl.window.on_requeue();
            for index in lost {
                ctl.outstanding.remove(&index);
                if ctl.rtt_probe.is_some_and(|(probe, _)| probe == index) {
                    ctl.rtt_probe = None;
                }
                self.requeue(index);
            }
        }
        ctl.deferred = max;
        self.pump(m, ctl)
    }

    /// Try to satisfy the connection's recorded demand. A full window or
    /// a momentarily dry spool *withholds* the grant (v5 workers keep
    /// computing; the next result, heartbeat, or poll tick retries it) —
    /// a dry spool additionally answers with a `Heartbeat` so the
    /// waiting worker can tell a busy coordinator from a dead one. A v4
    /// worker never lands in the withhold path: its claim empties
    /// `outstanding` first, so the allowance is never zero and it always
    /// gets its `Task`-or-`Heartbeat` answer immediately.
    fn pump(&self, m: &mut Metered<'_>, ctl: &mut ConnState) -> Option<Close> {
        if ctl.deferred == 0 || !ctl.authed {
            return None;
        }
        let allowance = ctl.window.window().saturating_sub(ctl.outstanding.len());
        let want = (ctl.deferred as usize).min(allowance).min(MAX_CLAIM_WINDOW);
        if want == 0 {
            return None;
        }
        match self.next_batch(want) {
            Grant::Tasks(tasks) => {
                ctl.deferred = 0;
                if ctl.outstanding.is_empty() {
                    // A grant after an idle pipe: duration samples across
                    // the gap would count idle time as compute.
                    ctl.last_result_at = None;
                }
                let indices: Vec<usize> = tasks.iter().map(|(i, _)| *i).collect();
                // Scenario texts splice straight from the spool records
                // into the frame — the raw-encoding twin of the worker's
                // `Result` path, pinned byte-identical to the structured
                // encoder by the codec tests.
                let body = if ctl.legacy {
                    let (index, scenario) = tasks.into_iter().next().expect("non-empty grant");
                    encode_task_msg(index as u64, &scenario)
                } else {
                    let wire: Vec<(u64, String)> =
                        tasks.into_iter().map(|(i, sc)| (i as u64, sc)).collect();
                    encode_task_batch_msg(&wire)
                };
                if m.send_text(&body).is_err() {
                    for index in indices {
                        self.requeue(index);
                    }
                    return Some(Close::Dead);
                }
                if ctl.rtt_probe.is_none() {
                    ctl.rtt_probe = Some((indices[0], Instant::now()));
                }
                ctl.outstanding.extend(indices);
                None
            }
            Grant::Wait => {
                // "Claimed-but-unfinished tasks exist elsewhere": a v4
                // worker needs its lock-step answer now; a v5 worker's
                // demand stays parked — requeued orphans reach it within
                // a poll tick — with a liveness heartbeat so its
                // patience timer keeps finding frames.
                if ctl.legacy {
                    ctl.deferred = 0;
                }
                let nudge = WireMsg::Heartbeat { inflight: None };
                m.send(&nudge).is_err().then_some(Close::Dead)
            }
            Grant::Drain => {
                ctl.deferred = 0;
                Some(self.drain_peer(m))
            }
            Grant::Fatal => Some(Close::Dead),
        }
    }

    /// Drive one worker connection until it drains, leaves, or dies.
    fn handle(&self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        if stream.set_read_timeout(Some(HANDLER_POLL)).is_err() {
            return;
        }
        let mut m = Metered::new(&stream);
        let require_auth = self.auth_token.is_some();
        // The nonce only needs per-connection uniqueness (it salts the
        // MAC against replay across connections), not unpredictability
        // of a CSPRNG grade: time + pid + connection ordinal suffice.
        let nonce = {
            let t = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_nanos() as u64);
            let seq = self.conn_seq.fetch_add(1, Ordering::SeqCst);
            t ^ seq.rotate_left(32) ^ u64::from(std::process::id()).rotate_left(17)
        };
        let mut ctl = ConnState::new(self.claim_window, !require_auth, nonce);
        if require_auth && m.send(&WireMsg::AuthChallenge { nonce }).is_err() {
            return;
        }
        let mut last_alive = Instant::now();
        let close = loop {
            if self.done.load(Ordering::SeqCst) && ctl.outstanding.is_empty() {
                break self.drain_peer(&mut m);
            }
            match m.read_msg() {
                Ok(msg) => {
                    last_alive = Instant::now();
                    match msg {
                        WireMsg::Hello { worker, threads } => {
                            self.joined.fetch_add(1, Ordering::SeqCst);
                            ctl.name = worker;
                            ctl.threads = threads;
                            // Hello precedes any grant, so re-deriving
                            // the window from the advertised capability
                            // loses nothing.
                            ctl.window = make_window(self.claim_window, threads);
                        }
                        WireMsg::Claim => {
                            if let Some(close) = self.serve_claim(&mut m, &mut ctl, 1, &[], true) {
                                break close;
                            }
                        }
                        WireMsg::ClaimN { max, holding } => {
                            if let Some(close) =
                                self.serve_claim(&mut m, &mut ctl, max, &holding, false)
                            {
                                break close;
                            }
                        }
                        WireMsg::AuthProof { mac } => match &self.auth_token {
                            Some(token) if auth::verify(token, ctl.nonce, &mac) => {
                                ctl.authed = true;
                                // The claim that raced this proof may be
                                // parked; grant it now.
                                if let Some(close) = self.pump(&mut m, &mut ctl) {
                                    break close;
                                }
                            }
                            Some(_) => break self.reject(&mut m, "bad auth token"),
                            // A tokened worker against an open
                            // coordinator: proof of nothing, harmless.
                            None => {}
                        },
                        WireMsg::Result { index, sum, payload } => {
                            if !ctl.authed {
                                break self.reject(&mut m, "authentication required");
                            }
                            let index = index as usize;
                            let now = Instant::now();
                            if ctl.outstanding.remove(&index) {
                                let rtt = ctl
                                    .rtt_probe
                                    .take_if(|(probe, _)| *probe == index)
                                    .map(|(_, granted)| now - granted);
                                // A duration sample is only honest when
                                // the worker provably had queued work
                                // since the last result.
                                let task = ctl
                                    .last_result_at
                                    .filter(|_| !ctl.outstanding.is_empty())
                                    .map(|prev| now - prev);
                                ctl.window.on_result(rtt, task);
                                ctl.last_result_at = Some(now);
                            }
                            ctl.tasks_served += 1;
                            if !self.accept_result(index, sum, &payload) {
                                break Close::Dead;
                            }
                            // A freed window slot may unblock a
                            // withheld grant.
                            if let Some(close) = self.pump(&mut m, &mut ctl) {
                                break close;
                            }
                        }
                        WireMsg::Heartbeat { .. } => {
                            // A parked grant may have become servable
                            // (another connection's orphans requeued).
                            if let Some(close) = self.pump(&mut m, &mut ctl) {
                                break close;
                            }
                        }
                        WireMsg::Drain => {
                            for index in ctl.outstanding.drain() {
                                self.requeue(index);
                            }
                            let _ = m.send(&WireMsg::Bye);
                            break Close::Left;
                        }
                        WireMsg::Bye => break Close::Left,
                        // A worker has no business sending coordinator
                        // frames.
                        WireMsg::Task { .. }
                        | WireMsg::TaskBatch { .. }
                        | WireMsg::AuthChallenge { .. }
                        | WireMsg::Reject { .. } => break Close::Dead,
                    }
                }
                Err(FrameError::TimedOut) => {
                    if let Some(close) = self.pump(&mut m, &mut ctl) {
                        break close;
                    }
                    if last_alive.elapsed() > self.stall {
                        break Close::Dead;
                    }
                }
                // A close without a goodbye is unclean, whatever was in
                // flight (clean leaves go through Drain/Bye above), and
                // so is any framing error.
                Err(_) => break Close::Dead,
            }
        };
        // Whole-window recovery: everything this connection still holds
        // goes back in the queue.
        for index in ctl.outstanding.drain() {
            self.requeue(index);
        }
        match close {
            Close::Drained | Close::Left => {
                self.left.fetch_add(1, Ordering::SeqCst);
            }
            Close::Dead => {
                self.dead.fetch_add(1, Ordering::SeqCst);
            }
            Close::Rejected => {}
        }
        if !ctl.name.is_empty() {
            self.reports.lock().push(ctl.report(&m));
        }
        let _ = stream.shutdown(Shutdown::Both);
    }

    /// Tell a worker no more work is coming and wait briefly for its
    /// `Bye`, answering any frames already in flight.
    fn drain_peer(&self, m: &mut Metered<'_>) -> Close {
        if m.send(&WireMsg::Drain).is_err() {
            return Close::Dead;
        }
        let start = Instant::now();
        while start.elapsed() < DRAIN_WAIT {
            match m.read_msg() {
                Ok(WireMsg::Bye) => return Close::Drained,
                Ok(WireMsg::Drain) => {
                    let _ = m.send(&WireMsg::Bye);
                    return Close::Drained;
                }
                // A claim crossed our drain on the wire: repeat it.
                Ok(WireMsg::Claim | WireMsg::ClaimN { .. }) => {
                    if m.send(&WireMsg::Drain).is_err() {
                        return Close::Drained;
                    }
                }
                // A late result is still a result.
                Ok(WireMsg::Result { index, sum, payload }) => {
                    let _ = self.accept_result(index as usize, sum, &payload);
                }
                Ok(_) => {}
                Err(FrameError::TimedOut) => {}
                Err(_) => return Close::Drained,
            }
        }
        Close::Drained
    }
}

/// The TCP sweep coordinator: spools the grid, listens on a socket, and
/// drives an elastic fleet of [`TcpWorker`]s to drain it. Results land in
/// the same durable spool as [`DistSweep`](crate::dist::DistSweep), so
/// every recovery invariant (checksums, atomic renames, resume) carries
/// over; the transport only changes how tasks and results travel.
#[derive(Debug)]
pub struct TcpSweep {
    spool: PathBuf,
    listen: String,
    threads: usize,
    stall_timeout: Duration,
    seed: u64,
    resume: bool,
    claim_window: Option<usize>,
    auth_token: Option<String>,
}

impl TcpSweep {
    /// A coordinator spooling into `spool` and listening on `listen`
    /// (e.g. `"127.0.0.1:0"` — port 0 picks a free port, published in
    /// the spool's `addr` file).
    pub fn new(spool: impl Into<PathBuf>, listen: impl Into<String>) -> Self {
        Self {
            spool: spool.into(),
            listen: listen.into(),
            threads: 1,
            stall_timeout: Duration::from_secs(30),
            seed: 0,
            resume: false,
            claim_window: None,
            auth_token: None,
        }
    }

    /// Threads for the coordinator's own local drain (the stall-recovery
    /// fallback).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// How long the fleet may go without producing a single result (and a
    /// single connection may go without a frame) before recovery kicks
    /// in.
    pub fn with_stall_timeout(mut self, stall: Duration) -> Self {
        self.stall_timeout = stall;
        self
    }

    /// Seed for the coordinator's polling-backoff jitter.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Resume a crashed coordinator's spool instead of demanding a fresh
    /// directory (validates the manifest against the grid and requeues
    /// orphans first).
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Pin every connection's claim window to `Some(n)` (clamped to
    /// `1..=`[`MAX_CLAIM_WINDOW`]; `Some(1)` is the v4 lock-step
    /// protocol), or `None` for the adaptive controller (the default).
    pub fn with_claim_window(mut self, window: Option<usize>) -> Self {
        self.claim_window = window.map(|n| n.clamp(1, MAX_CLAIM_WINDOW));
        self
    }

    /// Require workers to prove knowledge of this shared secret before
    /// any task is granted or result accepted. Mandatory when listening
    /// on a non-loopback interface.
    pub fn with_auth_token(mut self, token: impl Into<String>) -> Self {
        self.auth_token = Some(token.into());
        self
    }

    /// Run the sweep: spool (or resume), listen, serve workers until
    /// every task has a result, then merge. Returns the results in grid
    /// order plus the recovery counters.
    pub fn run(&self, grid: &[Scenario]) -> Result<(Vec<SweepResult>, TcpSummary), DistError> {
        let resumed_requeues = if self.resume {
            resume_spool(&self.spool, grid)?
        } else {
            spool_tasks(&self.spool, grid)?;
            0
        };
        let listener = TcpListener::bind(&self.listen)
            .map_err(|e| net_err(&self.listen, format!("bind failed: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| net_err(&self.listen, format!("no local addr: {e}")))?;
        if !local.ip().is_loopback() && self.auth_token.is_none() {
            return Err(net_err(
                &local.to_string(),
                "refusing to serve a non-loopback interface without --auth-token",
            ));
        }
        let addr = local.to_string();
        write_atomic(&self.spool, &self.spool.join("addr"), &addr)?;
        listener
            .set_nonblocking(true)
            .map_err(|e| net_err(&addr, format!("nonblocking accept unavailable: {e}")))?;

        let initial_results = count_results(&self.spool)?;
        let shared = CoordShared {
            spool: self.spool.clone(),
            names: crate::dist::read_manifest(&self.spool)?,
            source: SpoolSource::open(&self.spool),
            done: AtomicBool::new(false),
            stall: self.stall_timeout,
            fatal: Mutex::new(None),
            corrupt_seen: Mutex::new(HashSet::new()),
            journaled: AtomicUsize::new(0),
            done_results: AtomicUsize::new(initial_results),
            progress_lock: Mutex::new(()),
            progress: std::sync::Condvar::new(),
            corrupt_results: AtomicUsize::new(0),
            requeued: AtomicUsize::new(resumed_requeues),
            joined: AtomicUsize::new(0),
            left: AtomicUsize::new(0),
            dead: AtomicUsize::new(0),
            rejected: AtomicUsize::new(0),
            conn_seq: AtomicU64::new(0),
            claim_window: self.claim_window,
            auth_token: self.auth_token.clone(),
            reports: Mutex::new(Vec::new()),
        };
        let shared = &shared;
        let n_tasks = shared.names.len();
        let mut recoveries = 0u32;

        let served: Result<(), DistError> = crossbeam::thread::scope(|scope| {
            let mut poll =
                Backoff::new(Duration::from_millis(2), Duration::from_millis(40), self.seed);
            let mut last_count = initial_results;
            // The monitor only walks the results directory when a
            // handler journaled something since the last walk (or a
            // local drain may have, below) — an idle tick is an atomic
            // load, not a directory scan racing the handlers for disk.
            let mut seen_journaled = shared.journaled.load(Ordering::SeqCst);
            let mut force_scan = false;
            let mut idle_since = Instant::now();
            let outcome = loop {
                if let Some(e) = shared.fatal.lock().take() {
                    break Err(e);
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        scope.spawn(move |_| shared.handle(stream));
                        poll.reset();
                        continue;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                    // Transient accept errors (e.g. aborted handshakes)
                    // are not fatal to the sweep.
                    Err(_) => {}
                }
                let journaled_now = shared.journaled.load(Ordering::SeqCst);
                let done_now = if force_scan || journaled_now != seen_journaled {
                    force_scan = false;
                    seen_journaled = journaled_now;
                    match count_results(&self.spool) {
                        Ok(n) => n,
                        Err(e) => break Err(e),
                    }
                } else {
                    last_count
                };
                if done_now >= n_tasks {
                    break Ok(());
                }
                if done_now > last_count {
                    last_count = done_now;
                    idle_since = Instant::now();
                    poll.reset();
                }
                if idle_since.elapsed() >= self.stall_timeout {
                    // The fleet went quiet for a whole stall window:
                    // steal everything back and drain locally, so the
                    // sweep terminates no matter what the workers do.
                    recoveries += 1;
                    match requeue_orphans(&self.spool) {
                        Ok(n) => {
                            shared.requeued.fetch_add(n, Ordering::SeqCst);
                        }
                        Err(e) => break Err(e),
                    }
                    if let Err(e) = run_worker(&self.spool, self.threads) {
                        break Err(e);
                    }
                    // The local drain wrote results the journaled
                    // counter never saw; the next tick must re-scan.
                    force_scan = true;
                    idle_since = Instant::now();
                    poll.reset();
                    if recoveries >= MAX_RECOVERIES {
                        // Let the merge report whatever is still missing.
                        break Ok(());
                    }
                    continue;
                }
                // Sleep on the progress condvar instead of blind: the
                // handler journaling the final result wakes the monitor
                // immediately, so completion is never stuck behind a
                // poll tick. The re-check under the lock closes the
                // lost-wakeup race (handlers flip `done` before locking
                // to notify). The backoff cap is clamped low enough
                // that a freshly dialing worker never waits long on
                // the non-blocking accept either.
                let guard = shared.progress_lock.lock();
                if !shared.done.load(Ordering::SeqCst) {
                    let waited = shared
                        .progress
                        .wait_timeout(guard, poll.next_delay().min(ACCEPT_POLL_CAP))
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    drop(waited.0);
                } else {
                    drop(guard);
                }
            };
            shared.done.store(true, Ordering::SeqCst);
            // Closing the listener resets any un-accepted backlog
            // connections so late dialers fail fast instead of hanging.
            drop(listener);
            outcome
        })
        .expect("connection handler panicked");
        served?;

        // Merge, recovering from corrupt spool records the same way the
        // process transport does: discard + requeue once per task, drain
        // locally, retry.
        let results = loop {
            match merge_results(&self.spool) {
                Ok(results) => break results,
                Err(e @ (DistError::Corrupt { .. } | DistError::Codec { .. })) => {
                    let path = match &e {
                        DistError::Corrupt { path, .. } | DistError::Codec { path, .. } => path,
                        _ => unreachable!(),
                    };
                    let Some(index) = crate::dist::corrupt_result_index(&self.spool, path) else {
                        return Err(e);
                    };
                    if !shared.corrupt_seen.lock().insert(index) {
                        return Err(e);
                    }
                    crate::dist::discard_corrupt_result(&self.spool, index)?;
                    shared.corrupt_results.fetch_add(1, Ordering::SeqCst);
                    shared.requeued.fetch_add(1, Ordering::SeqCst);
                    run_worker(&self.spool, self.threads)?;
                }
                Err(DistError::Incomplete { .. }) if recoveries < MAX_RECOVERIES => {
                    // Workers that died at the very end may have left
                    // claims behind after the monitor loop exited.
                    recoveries += 1;
                    let n = requeue_orphans(&self.spool)?;
                    shared.requeued.fetch_add(n, Ordering::SeqCst);
                    run_worker(&self.spool, self.threads)?;
                }
                Err(e) => return Err(e),
            }
        };

        let summary = TcpSummary {
            corrupt_results: shared.corrupt_results.load(Ordering::SeqCst),
            requeued_tasks: shared.requeued.load(Ordering::SeqCst),
            workers_joined: shared.joined.load(Ordering::SeqCst),
            workers_left: shared.left.load(Ordering::SeqCst),
            dead_workers: shared.dead.load(Ordering::SeqCst),
            auth_rejects: shared.rejected.load(Ordering::SeqCst),
            recoveries,
            per_worker: std::mem::take(&mut *shared.reports.lock()),
        };
        Ok((results, summary))
    }
}

/// The coordinator's published address, once it has bound (the spool's
/// `addr` file) — how same-host tooling and tests discover a port-0
/// listener.
pub fn read_addr(spool: &Path) -> Option<String> {
    let text = std::fs::read_to_string(spool.join("addr")).ok()?;
    let addr = text.trim().to_string();
    (!addr.is_empty()).then_some(addr)
}

// ---- the worker ------------------------------------------------------------

/// How a [`TcpWorker`] run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerOutcome {
    /// The coordinator drained us (or `max_tasks` led to a graceful
    /// leave): every connection said goodbye cleanly.
    Drained {
        /// Tasks completed across all threads.
        completed: usize,
    },
    /// The fault plan killed the worker abruptly mid-sweep.
    Killed {
        /// Tasks completed before the kill.
        completed: usize,
    },
}

impl WorkerOutcome {
    /// Tasks completed, however the run ended.
    pub fn completed(&self) -> usize {
        match self {
            WorkerOutcome::Drained { completed } | WorkerOutcome::Killed { completed } => {
                *completed
            }
        }
    }
}

/// Why one worker connection ended.
enum ConnEnd {
    /// Coordinator drained us: stop for good.
    Drained,
    /// Fault plan kill: stop abruptly.
    Killed,
    /// Connection broke: redial and continue.
    Reconnect,
    /// The coordinator refused us (auth): stop with an error, redialing
    /// would only be rejected again.
    Rejected(String),
}

/// Counters shared across a worker's threads (and with the fault layer:
/// frame ordinals are global so a plan injures a fixed point in the
/// stream).
#[derive(Default)]
struct WorkerShared {
    killed: AtomicBool,
    frames: AtomicU64,
    results_sent: AtomicU64,
    tasks_done: AtomicU64,
    partition_fired: AtomicBool,
}

/// Outcome of one fault-filtered send.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Sent {
    Ok,
    Broken,
}

/// The write half of one worker connection, with the fault plan applied
/// to every outbound frame. Shared between the protocol loop and the
/// heartbeat ticker behind a mutex, so frames never interleave.
struct Conn<'a> {
    writer: Mutex<TcpStream>,
    plan: &'a FaultPlan,
    shared: &'a WorkerShared,
}

impl<'a> Conn<'a> {
    fn new(stream: &TcpStream, plan: &'a FaultPlan, shared: &'a WorkerShared) -> Option<Conn<'a>> {
        stream.try_clone().ok().map(|w| Conn { writer: Mutex::new(w), plan, shared })
    }

    fn send(&self, msg: &WireMsg) -> Sent {
        self.send_text(&encode_msg(msg))
    }

    /// Send an already-encoded frame body. The hot path — `Result`
    /// frames whose payload text the worker also checksums — encodes
    /// once and comes through here; every fault-plan decision operates
    /// on the final body text either way.
    fn send_text(&self, body: &str) -> Sent {
        let mut writer = self.writer.lock();
        let n = self.shared.frames.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some((k, ms)) = self.plan.delay_every {
            if n.is_multiple_of(k) {
                std::thread::sleep(Duration::from_millis(ms));
            }
        }
        if self.plan.drop_frame == Some(n) {
            // Pretend the frame went out; the peer never sees it.
            return Sent::Ok;
        }
        if self.plan.truncate_frame == Some(n) {
            let len = (body.len() as u32).to_be_bytes();
            let half = &body.as_bytes()[..body.len() / 2];
            let _ = std::io::Write::write_all(&mut *writer, &len);
            let _ = std::io::Write::write_all(&mut *writer, half);
            let _ = std::io::Write::flush(&mut *writer);
            let _ = writer.shutdown(Shutdown::Both);
            return Sent::Broken;
        }
        if let Some(p) = self.plan.partition_after {
            if n > p && !self.shared.partition_fired.swap(true, Ordering::SeqCst) {
                let _ = writer.shutdown(Shutdown::Both);
                return Sent::Broken;
            }
        }
        match write_frame_text(&mut *writer, body) {
            Ok(()) => Sent::Ok,
            Err(_) => Sent::Broken,
        }
    }

    fn abrupt_close(&self) {
        let _ = self.writer.lock().shutdown(Shutdown::Both);
    }
}

/// A TCP sweep worker: dials the coordinator, claims tasks one at a time
/// per thread, and streams results back. Reconnects through seeded
/// backoff when the connection breaks; leaves gracefully (`Drain`/`Bye`)
/// when the coordinator drains it or `max_tasks` is reached.
#[derive(Debug)]
pub struct TcpWorker {
    addr: String,
    name: String,
    threads: usize,
    seed: u64,
    heartbeat: Duration,
    patience: Duration,
    dial_attempts: u32,
    max_tasks: Option<u64>,
    fault: FaultPlan,
    claim_window: Option<usize>,
    auth_token: Option<String>,
}

impl TcpWorker {
    /// A worker dialing `addr` (`host:port`).
    pub fn new(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            name: format!("pid-{}", std::process::id()),
            threads: 1,
            seed: 0,
            heartbeat: Duration::from_millis(500),
            patience: Duration::from_secs(30),
            dial_attempts: 40,
            max_tasks: None,
            fault: FaultPlan::default(),
            claim_window: None,
            auth_token: None,
        }
    }

    /// Display name the coordinator sees in `Hello` frames.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Concurrent connections (one task in flight per thread).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Seed for the dial/claim backoff jitter (and anything else this
    /// worker randomizes).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Heartbeat interval (also the read-poll granularity).
    pub fn with_heartbeat(mut self, heartbeat: Duration) -> Self {
        self.heartbeat = heartbeat.max(Duration::from_millis(1));
        self
    }

    /// How long to wait for a claim's reply before giving up on the
    /// connection and redialing.
    pub fn with_patience(mut self, patience: Duration) -> Self {
        self.patience = patience.max(Duration::from_millis(1));
        self
    }

    /// Consecutive failed dials before the worker gives up entirely.
    pub fn with_dial_attempts(mut self, attempts: u32) -> Self {
        self.dial_attempts = attempts.max(1);
        self
    }

    /// Leave gracefully (send `Drain`) after completing this many tasks
    /// across all threads — the elastic scale-down path.
    pub fn with_max_tasks(mut self, max_tasks: u64) -> Self {
        self.max_tasks = Some(max_tasks);
        self
    }

    /// Inject this fault schedule into the worker's outbound frames.
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// Cap the local task queue at `Some(n)` (clamped to
    /// `1..=`[`MAX_CLAIM_WINDOW`]), or `None` for the default. The
    /// coordinator's window still governs how much is actually granted.
    pub fn with_claim_window(mut self, window: Option<usize>) -> Self {
        self.claim_window = window.map(|n| n.clamp(1, MAX_CLAIM_WINDOW));
        self
    }

    /// Shared secret for the coordinator's auth challenge.
    pub fn with_auth_token(mut self, token: impl Into<String>) -> Self {
        self.auth_token = Some(token.into());
        self
    }

    /// Run until drained, killed by the fault plan, or unable to reach
    /// the coordinator.
    pub fn run(&self) -> Result<WorkerOutcome, DistError> {
        let shared = WorkerShared::default();
        let shared = &shared;
        let outcomes: Vec<Result<(ConnEnd, usize), DistError>> =
            crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = (0..self.threads)
                    .map(|t| scope.spawn(move |_| self.worker_thread(t, shared)))
                    .collect();
                handles.into_iter().map(|h| h.join().expect("worker thread panicked")).collect()
            })
            .expect("worker scope failed");
        let mut completed = 0;
        let mut killed = false;
        let mut first_err = None;
        for outcome in outcomes {
            match outcome {
                Ok((ConnEnd::Killed, n)) => {
                    killed = true;
                    completed += n;
                }
                Ok((_, n)) => completed += n,
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        if killed {
            Ok(WorkerOutcome::Killed { completed })
        } else if let Some(e) = first_err {
            Err(e)
        } else {
            Ok(WorkerOutcome::Drained { completed })
        }
    }

    /// One thread: dial, drive the connection, redial on breakage.
    fn worker_thread(
        &self,
        t: usize,
        shared: &WorkerShared,
    ) -> Result<(ConnEnd, usize), DistError> {
        let runner = SweepRunner::new().with_workers(1);
        let thread_seed = self.seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut dial = Backoff::new(Duration::from_millis(20), Duration::from_secs(2), thread_seed);
        let mut completed = 0usize;
        loop {
            if shared.killed.load(Ordering::SeqCst) {
                return Ok((ConnEnd::Killed, completed));
            }
            let stream = match TcpStream::connect(&self.addr) {
                Ok(s) => s,
                Err(e) => {
                    if dial.attempt() >= self.dial_attempts {
                        return Err(net_err(
                            &self.addr,
                            format!("gave up dialing after {} attempts: {e}", dial.attempt()),
                        ));
                    }
                    dial.sleep();
                    continue;
                }
            };
            dial.reset();
            let _ = stream.set_nodelay(true);
            // Poll reads finely regardless of the heartbeat cadence, so
            // patience/drain windows are honored promptly.
            let poll = self.heartbeat.min(Duration::from_millis(50));
            if stream.set_read_timeout(Some(poll)).is_err() {
                dial.sleep();
                continue;
            }
            let Some(conn) = Conn::new(&stream, &self.fault, shared) else {
                dial.sleep();
                continue;
            };
            match self.drive_connection(t, &stream, &conn, &runner, shared, &mut completed) {
                ConnEnd::Drained => return Ok((ConnEnd::Drained, completed)),
                ConnEnd::Killed => {
                    conn.abrupt_close();
                    return Ok((ConnEnd::Killed, completed));
                }
                ConnEnd::Reconnect => {
                    let _ = stream.shutdown(Shutdown::Both);
                }
                ConnEnd::Rejected(reason) => {
                    let _ = stream.shutdown(Shutdown::Both);
                    return Err(net_err(&self.addr, reason));
                }
            }
        }
    }

    /// Introduce ourselves, start the heartbeat ticker, and run the
    /// claim/compute/result loop until the connection ends.
    fn drive_connection(
        &self,
        t: usize,
        stream: &TcpStream,
        conn: &Conn<'_>,
        runner: &SweepRunner,
        shared: &WorkerShared,
        completed: &mut usize,
    ) -> ConnEnd {
        let hello =
            WireMsg::Hello { worker: format!("{}/t{t}", self.name), threads: self.threads as u64 };
        if conn.send(&hello) == Sent::Broken {
            return ConnEnd::Reconnect;
        }
        // -1 encodes "nothing in flight" (task indices are small).
        let inflight = AtomicI64::new(-1);
        let stop = AtomicBool::new(false);
        // The ticker sleeps on a condvar, not in sliced naps: the
        // protocol loop's notify ends it the instant the connection
        // does, so a drained worker's exit never trails by a nap slice.
        let stop_lock = Mutex::new(());
        let stop_cv = std::sync::Condvar::new();
        crossbeam::thread::scope(|scope| {
            scope.spawn(|_| {
                let interrupted =
                    || stop.load(Ordering::SeqCst) || shared.killed.load(Ordering::SeqCst);
                loop {
                    let guard = stop_lock.lock();
                    let waited = stop_cv
                        .wait_timeout(guard, self.heartbeat)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    drop(waited.0);
                    if interrupted() {
                        break;
                    }
                    let cur = inflight.load(Ordering::SeqCst);
                    let beat = WireMsg::Heartbeat { inflight: u64::try_from(cur).ok() };
                    if conn.send(&beat) == Sent::Broken {
                        break;
                    }
                }
            });
            let end = self.protocol_loop(stream, conn, runner, shared, &inflight, completed);
            stop.store(true, Ordering::SeqCst);
            drop(stop_lock.lock());
            stop_cv.notify_all();
            end
        })
        .expect("heartbeat ticker panicked")
    }

    /// The pipelined claim/compute/result loop. A local queue of granted
    /// tasks decouples claiming from computing: the next `ClaimN` goes
    /// out *before* the head of the queue is computed, so the refill
    /// rides back over the wire while this thread is busy, and the queue
    /// only drains when the coordinator has nothing to grant. Every
    /// `ClaimN` carries the queue's indices as `holding` — the
    /// coordinator's loss detector needs to know what we still owe it.
    #[allow(clippy::too_many_lines)]
    fn protocol_loop(
        &self,
        stream: &TcpStream,
        conn: &Conn<'_>,
        runner: &SweepRunner,
        shared: &WorkerShared,
        inflight: &AtomicI64,
        completed: &mut usize,
    ) -> ConnEnd {
        let mut claim_pause =
            Backoff::new(Duration::from_millis(25), Duration::from_millis(250), self.seed ^ 0x5EED);
        let capacity = self.claim_window.unwrap_or(32).clamp(1, MAX_CLAIM_WINDOW);
        let mut queue: VecDeque<(u64, Scenario)> = VecDeque::new();
        let mut claim_inflight = false;
        loop {
            if shared.killed.load(Ordering::SeqCst) {
                return ConnEnd::Killed;
            }
            if self.max_tasks.is_some_and(|m| shared.tasks_done.load(Ordering::SeqCst) >= m) {
                // Graceful scale-down: announce the leave and wait for
                // the goodbye. Anything still queued is abandoned — the
                // coordinator requeues the window when the socket dies.
                let _ = conn.send(&WireMsg::Drain);
                self.await_bye(stream);
                return ConnEnd::Drained;
            }
            // Keep exactly one claim in flight, re-claiming once the
            // queue is half-drained (earlier would thrash the window
            // accounting, later would let the pipe run dry).
            if !claim_inflight && queue.len() <= capacity / 2 {
                let claim = WireMsg::ClaimN {
                    max: (capacity - queue.len()) as u64,
                    holding: queue.iter().map(|(i, _)| *i).collect(),
                };
                if conn.send(&claim) == Sent::Broken {
                    return ConnEnd::Reconnect;
                }
                claim_inflight = true;
            }
            if let Some((index, sc)) = queue.pop_front() {
                inflight.store(index as i64, Ordering::SeqCst);
                let result = runner.run_scenario(&sc);
                inflight.store(-1, Ordering::SeqCst);
                if shared.killed.load(Ordering::SeqCst) {
                    return ConnEnd::Killed;
                }
                // One serialization serves the checksum and the frame:
                // the payload text goes straight into a spliced Result
                // body (`encode_result_msg` is pinned byte-identical to
                // the structured encoder) instead of being re-written
                // from the `Json` tree by a generic `send`.
                let text = sweep_result_to_json(&result).write();
                let mut sum = fnv1a(text.as_bytes());
                let nth_result = shared.results_sent.fetch_add(1, Ordering::SeqCst) + 1;
                if self.fault.corrupt_result == Some(nth_result) {
                    sum ^= 0xBAD_F00D;
                }
                let sent = conn.send_text(&encode_result_msg(index, sum, &text));
                *completed += 1;
                let total = shared.tasks_done.fetch_add(1, Ordering::SeqCst) + 1;
                if self.fault.kill_after_tasks == Some(total) {
                    shared.killed.store(true, Ordering::SeqCst);
                    return ConnEnd::Killed;
                }
                if sent == Sent::Broken {
                    return ConnEnd::Reconnect;
                }
                claim_pause.reset();
                continue;
            }
            // Queue empty: block on the claim's reply (one is always in
            // flight by the time we get here).
            let reply = match self.await_reply(stream, shared) {
                Ok(msg) => msg,
                Err(end) => return end,
            };
            match reply {
                WireMsg::TaskBatch { tasks } => {
                    claim_inflight = false;
                    if tasks.is_empty() {
                        // "Nothing to grant right now": back off, then
                        // re-claim.
                        claim_pause.sleep();
                        continue;
                    }
                    for (index, scenario) in tasks {
                        let Ok(sc) = scenario_from_json(&scenario) else {
                            // An undecodable task is a protocol failure;
                            // break the connection so the coordinator
                            // requeues the window.
                            return ConnEnd::Reconnect;
                        };
                        queue.push_back((index, sc));
                    }
                }
                // A lock-step (v4) coordinator answers with single
                // tasks; the pipeline degenerates gracefully.
                WireMsg::Task { index, scenario } => {
                    claim_inflight = false;
                    let Ok(sc) = scenario_from_json(&scenario) else {
                        return ConnEnd::Reconnect;
                    };
                    queue.push_back((index, sc));
                }
                // "Alive, nothing to grant yet": the claim stays parked
                // on the coordinator and a `TaskBatch`/`Drain` answer is
                // still coming — keep waiting, no backoff burned.
                WireMsg::Heartbeat { .. } => {}
                WireMsg::AuthChallenge { nonce } => match &self.auth_token {
                    // The claim reply is still coming; answer the
                    // challenge and keep waiting.
                    Some(token) => {
                        let proof = WireMsg::AuthProof { mac: auth::proof(token, nonce) };
                        if conn.send(&proof) == Sent::Broken {
                            return ConnEnd::Reconnect;
                        }
                    }
                    None => {
                        let _ = conn.send(&WireMsg::Bye);
                        return ConnEnd::Rejected(
                            "coordinator requires an auth token (--auth-token)".to_string(),
                        );
                    }
                },
                WireMsg::Reject { reason } => return ConnEnd::Rejected(reason),
                WireMsg::Drain => {
                    let _ = conn.send(&WireMsg::Bye);
                    return ConnEnd::Drained;
                }
                WireMsg::Bye => return ConnEnd::Drained,
                _ => return ConnEnd::Reconnect,
            }
        }
    }

    /// Wait for the coordinator's answer to a claim, up to `patience`.
    fn await_reply(&self, stream: &TcpStream, shared: &WorkerShared) -> Result<WireMsg, ConnEnd> {
        let start = Instant::now();
        loop {
            if shared.killed.load(Ordering::SeqCst) {
                return Err(ConnEnd::Killed);
            }
            match read_frame(&mut (&*stream)) {
                Ok(msg) => return Ok(msg),
                Err(FrameError::TimedOut) => {
                    if start.elapsed() > self.patience {
                        return Err(ConnEnd::Reconnect);
                    }
                }
                Err(_) => return Err(ConnEnd::Reconnect),
            }
        }
    }

    /// Wait briefly for `Bye` after announcing our own drain.
    fn await_bye(&self, stream: &TcpStream) {
        let start = Instant::now();
        while start.elapsed() < self.patience.min(DRAIN_WAIT) {
            match read_frame(&mut (&*stream)) {
                Ok(WireMsg::Bye) | Err(FrameError::Closed) => return,
                Ok(_) | Err(FrameError::TimedOut) => {}
                Err(_) => return,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::spool_tasks;
    use simcal_sim::ScenarioRegistry;

    fn grid(n: usize) -> Vec<Scenario> {
        ScenarioRegistry::reduced().scenarios().into_iter().take(n).collect()
    }

    fn fresh_spool(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("simcal-net-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn fingerprints(rs: &[SweepResult]) -> Vec<(String, Vec<u64>, u64, u64)> {
        rs.iter().map(SweepResult::fingerprint).collect()
    }

    fn local(grid: &[Scenario]) -> Vec<SweepResult> {
        SweepRunner::new().with_workers(2).run(grid)
    }

    /// A coordinator on a fresh port with test-scale timeouts.
    fn coordinator(spool: &Path) -> TcpSweep {
        TcpSweep::new(spool, "127.0.0.1:0")
            .with_stall_timeout(Duration::from_millis(1500))
            .with_seed(7)
    }

    /// A worker with test-scale timeouts (fast heartbeats, short
    /// patience so dropped-reply recovery doesn't dominate the test).
    fn fast_worker(addr: String, seed: u64) -> TcpWorker {
        TcpWorker::new(addr)
            .with_heartbeat(Duration::from_millis(25))
            .with_patience(Duration::from_millis(600))
            .with_seed(seed)
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

    type WorkerBuilder = Box<dyn FnOnce(String) -> TcpWorker + Send>;

    fn worker(f: impl FnOnce(String) -> TcpWorker + Send + 'static) -> WorkerBuilder {
        Box::new(f)
    }

    type TcpRun =
        (Result<(Vec<SweepResult>, TcpSummary), DistError>, Vec<Result<WorkerOutcome, DistError>>);

    /// Run a coordinator and a fleet of workers (each built once the
    /// listen address is published) to completion.
    fn run_tcp(
        spool: &Path,
        grid: &[Scenario],
        coord: TcpSweep,
        fleet: Vec<WorkerBuilder>,
    ) -> TcpRun {
        crossbeam::thread::scope(|scope| {
            let coord = scope.spawn(|_| coord.run(grid));
            let addr = wait_addr(spool);
            let handles: Vec<_> = fleet
                .into_iter()
                .map(|build| {
                    let addr = addr.clone();
                    scope.spawn(move |_| build(addr).run())
                })
                .collect();
            let outcomes = handles.into_iter().map(|h| h.join().expect("worker")).collect();
            (coord.join().expect("coordinator"), outcomes)
        })
        .expect("tcp test scope")
    }

    #[test]
    fn tcp_sweep_matches_the_local_runner() {
        let grid = grid(4);
        let spool = fresh_spool("basic");
        let (coord, outcomes) = run_tcp(
            &spool,
            &grid,
            coordinator(&spool),
            vec![worker(|a| fast_worker(a, 1)), worker(|a| fast_worker(a, 2).with_threads(2))],
        );
        let (results, summary) = coord.unwrap();
        assert_eq!(fingerprints(&results), fingerprints(&local(&grid)));
        assert!(summary.is_clean(), "clean run fired a recovery path: {summary}");
        assert_eq!(summary.workers_joined, 3, "two workers, three connections");
        let drained: usize = outcomes.iter().map(|o| o.as_ref().unwrap().completed()).sum();
        assert_eq!(drained, grid.len(), "every task completed over TCP, none locally");
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn killed_worker_loses_nothing() {
        let grid = grid(4);
        let spool = fresh_spool("kill");
        let plan = FaultPlan { kill_after_tasks: Some(1), ..FaultPlan::default() };
        let (coord, outcomes) = run_tcp(
            &spool,
            &grid,
            coordinator(&spool),
            vec![
                worker(move |a| fast_worker(a, 3).with_fault(plan)),
                worker(|a| fast_worker(a, 4)),
            ],
        );
        let (results, summary) = coord.unwrap();
        assert_eq!(fingerprints(&results), fingerprints(&local(&grid)));
        assert_eq!(outcomes[0].as_ref().unwrap(), &WorkerOutcome::Killed { completed: 1 });
        assert_eq!(outcomes[1].as_ref().unwrap().completed(), grid.len() - 1);
        assert!(summary.dead_workers >= 1, "the kill went unnoticed: {summary}");
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn dropped_result_frame_is_requeued_on_the_next_claim() {
        let grid = grid(3);
        let spool = fresh_spool("drop");
        // Long heartbeat so the frame ordinals are deterministic:
        // Hello(1), ClaimN(2), ClaimN(3), Result(4) — the pipelined
        // worker re-claims before computing, and the first result
        // vanishes.
        let plan = FaultPlan { drop_frame: Some(4), ..FaultPlan::default() };
        let (coord, outcomes) = run_tcp(
            &spool,
            &grid,
            coordinator(&spool),
            vec![worker(move |a| {
                fast_worker(a, 5).with_heartbeat(Duration::from_secs(5)).with_fault(plan)
            })],
        );
        let (results, summary) = coord.unwrap();
        assert_eq!(fingerprints(&results), fingerprints(&local(&grid)));
        assert!(summary.requeued_tasks >= 1, "dropped result was not requeued: {summary}");
        assert!(outcomes[0].is_ok());
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn truncated_frame_breaks_the_connection_not_the_sweep() {
        let grid = grid(3);
        let spool = fresh_spool("trunc");
        let plan = FaultPlan { truncate_frame: Some(3), ..FaultPlan::default() };
        let (coord, _) = run_tcp(
            &spool,
            &grid,
            coordinator(&spool),
            vec![worker(move |a| {
                fast_worker(a, 6).with_heartbeat(Duration::from_secs(5)).with_fault(plan)
            })],
        );
        let (results, summary) = coord.unwrap();
        assert_eq!(fingerprints(&results), fingerprints(&local(&grid)));
        assert!(
            summary.requeued_tasks >= 1 || summary.dead_workers >= 1,
            "truncation left no trace: {summary}"
        );
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn partition_heals_by_redialing() {
        let grid = grid(3);
        let spool = fresh_spool("part");
        let plan = FaultPlan { partition_after: Some(2), ..FaultPlan::default() };
        let (coord, outcomes) = run_tcp(
            &spool,
            &grid,
            coordinator(&spool),
            vec![worker(move |a| fast_worker(a, 8).with_fault(plan))],
        );
        let (results, _) = coord.unwrap();
        assert_eq!(fingerprints(&results), fingerprints(&local(&grid)));
        // The partitioned result is recomputed, so the worker may count
        // more completions than there are tasks.
        assert!(outcomes[0].as_ref().unwrap().completed() >= grid.len());
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn corrupt_result_frame_is_requeued_once_and_counted() {
        let grid = grid(3);
        let spool = fresh_spool("corrupt-frame");
        let plan = FaultPlan { corrupt_result: Some(1), ..FaultPlan::default() };
        let (coord, _) = run_tcp(
            &spool,
            &grid,
            coordinator(&spool),
            vec![worker(move |a| fast_worker(a, 9).with_fault(plan))],
        );
        let (results, summary) = coord.unwrap();
        assert_eq!(fingerprints(&results), fingerprints(&local(&grid)));
        assert_eq!(summary.corrupt_results, 1);
        assert!(summary.requeued_tasks >= 1);
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn slow_worker_is_not_mistaken_for_a_dead_one() {
        let grid = grid(3);
        let spool = fresh_spool("slow");
        let plan = FaultPlan { delay_every: Some((2, 30)), ..FaultPlan::default() };
        let (coord, outcomes) = run_tcp(
            &spool,
            &grid,
            coordinator(&spool),
            vec![worker(move |a| fast_worker(a, 10).with_fault(plan))],
        );
        let (results, summary) = coord.unwrap();
        assert_eq!(fingerprints(&results), fingerprints(&local(&grid)));
        assert_eq!(summary.dead_workers, 0, "slow worker misdeclared dead: {summary}");
        assert_eq!(outcomes[0].as_ref().unwrap().completed(), grid.len());
        std::fs::remove_dir_all(&spool).ok();
    }

    /// The chaos oracle: every seeded fault schedule terminates within
    /// the stall window and merges bit-identically to a local run.
    #[test]
    fn seeded_fault_schedules_all_converge_bit_identically() {
        let grid = grid(3);
        let expected = fingerprints(&local(&grid));
        for seed in 0..6u64 {
            let plan = FaultPlan::seeded(seed);
            let spool = fresh_spool(&format!("chaos-{seed}"));
            let (coord, _) = run_tcp(
                &spool,
                &grid,
                coordinator(&spool).with_seed(seed),
                vec![
                    worker(move |a| fast_worker(a, seed).with_fault(plan)),
                    worker(move |a| fast_worker(a, seed ^ 0xFFFF)),
                ],
            );
            let (results, summary) =
                coord.unwrap_or_else(|e| panic!("chaos seed {seed} failed: {e}"));
            assert_eq!(
                fingerprints(&results),
                expected,
                "chaos seed {seed} ({}) diverged: {summary}",
                FaultPlan::seeded(seed)
            );
            std::fs::remove_dir_all(&spool).ok();
        }
    }

    #[test]
    fn worker_leaves_gracefully_after_max_tasks() {
        let grid = grid(3);
        let spool = fresh_spool("leave");
        let (coord, outcomes) = run_tcp(
            &spool,
            &grid,
            coordinator(&spool),
            vec![worker(|a| fast_worker(a, 11).with_max_tasks(1)), worker(|a| fast_worker(a, 12))],
        );
        let (results, summary) = coord.unwrap();
        assert_eq!(fingerprints(&results), fingerprints(&local(&grid)));
        assert_eq!(outcomes[0].as_ref().unwrap(), &WorkerOutcome::Drained { completed: 1 });
        assert!(summary.workers_left >= 2);
        assert_eq!(summary.dead_workers, 0, "graceful leave counted as death: {summary}");
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn elastic_worker_joins_mid_sweep() {
        let grid = grid(4);
        let spool = fresh_spool("elastic");
        // The early worker drags every frame out, so the sweep is still
        // running when the second worker dials in.
        let slow = FaultPlan { delay_every: Some((1, 60)), ..FaultPlan::default() };
        let (coord, outcomes) = crossbeam::thread::scope(|scope| {
            let coord = scope.spawn(|_| coordinator(&spool).run(&grid));
            let addr = wait_addr(&spool);
            let early = {
                let addr = addr.clone();
                scope.spawn(move |_| fast_worker(addr, 13).with_fault(slow).run())
            };
            let late = scope.spawn(move |_| {
                std::thread::sleep(Duration::from_millis(100));
                fast_worker(addr, 14).run()
            });
            let outcomes = vec![early.join().expect("early"), late.join().expect("late")];
            (coord.join().expect("coordinator"), outcomes)
        })
        .expect("tcp test scope");
        let (results, _) = coord.unwrap();
        assert_eq!(fingerprints(&results), fingerprints(&local(&grid)));
        for o in &outcomes {
            assert!(o.is_ok(), "worker failed: {o:?}");
        }
        let late_share = outcomes[1].as_ref().unwrap().completed();
        assert!(late_share >= 1, "the late joiner never got a task");
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn no_workers_at_all_falls_back_to_a_local_drain() {
        let grid = grid(3);
        let spool = fresh_spool("fallback");
        let (results, summary) = TcpSweep::new(&spool, "127.0.0.1:0")
            .with_stall_timeout(Duration::from_millis(200))
            .with_threads(2)
            .run(&grid)
            .unwrap();
        assert_eq!(fingerprints(&results), fingerprints(&local(&grid)));
        assert!(summary.recoveries >= 1, "local fallback never fired: {summary}");
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn tcp_resume_continues_a_crashed_coordinators_spool() {
        let grid = grid(3);
        let spool = fresh_spool("resume");
        // A "crashed" coordinator: tasks spooled, one claimed but never
        // finished.
        spool_tasks(&spool, &grid).unwrap();
        let source = SpoolSource::open(&spool);
        source.try_claim().unwrap().expect("a task to orphan");
        drop(source);
        let (coord, outcomes) = run_tcp(
            &spool,
            &grid,
            coordinator(&spool).with_resume(true),
            vec![worker(|a| fast_worker(a, 15))],
        );
        let (results, summary) = coord.unwrap();
        assert_eq!(fingerprints(&results), fingerprints(&local(&grid)));
        assert!(summary.requeued_tasks >= 1, "orphaned claim not requeued: {summary}");
        assert!(outcomes[0].is_ok());
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn mid_window_result_loss_is_detected_by_the_holding_list() {
        let grid = grid(6);
        let spool = fresh_spool("midwin");
        // Fixed window 4 on both ends makes the ordinals deterministic:
        // Hello(1), ClaimN(2) → TaskBatch[t0..t3], Result(3), Result(4)
        // — the second result vanishes mid-window — then ClaimN(5)
        // holds only [t2,t3], proving the loss while the socket stays
        // healthy.
        let plan = FaultPlan { drop_frame: Some(4), ..FaultPlan::default() };
        let (coord, outcomes) = run_tcp(
            &spool,
            &grid,
            coordinator(&spool).with_claim_window(Some(4)),
            vec![worker(move |a| {
                fast_worker(a, 21)
                    .with_claim_window(Some(4))
                    .with_heartbeat(Duration::from_secs(5))
                    .with_fault(plan)
            })],
        );
        let (results, summary) = coord.unwrap();
        assert_eq!(fingerprints(&results), fingerprints(&local(&grid)));
        assert!(summary.requeued_tasks >= 1, "mid-window loss not requeued: {summary}");
        assert_eq!(
            summary.dead_workers, 0,
            "holding-based recovery should not kill the connection: {summary}"
        );
        assert!(outcomes[0].is_ok());
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn authed_fleet_drains_cleanly() {
        let grid = grid(4);
        let spool = fresh_spool("auth-ok");
        let (coord, outcomes) = run_tcp(
            &spool,
            &grid,
            coordinator(&spool).with_auth_token("sesame"),
            vec![
                worker(|a| fast_worker(a, 31).with_auth_token("sesame")),
                worker(|a| fast_worker(a, 32).with_auth_token("sesame")),
            ],
        );
        let (results, summary) = coord.unwrap();
        assert_eq!(fingerprints(&results), fingerprints(&local(&grid)));
        assert!(summary.is_clean(), "authed run fired a recovery path: {summary}");
        for o in &outcomes {
            assert!(o.is_ok(), "authed worker failed: {o:?}");
        }
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn wrong_or_missing_tokens_are_rejected() {
        let grid = grid(2);
        let spool = fresh_spool("auth-bad");
        let (coord, outcomes) = run_tcp(
            &spool,
            &grid,
            coordinator(&spool).with_auth_token("sesame"),
            vec![
                worker(|a| {
                    fast_worker(a, 33)
                        .with_auth_token("not-sesame")
                        .with_patience(Duration::from_millis(300))
                        .with_dial_attempts(2)
                }),
                worker(|a| fast_worker(a, 34).with_dial_attempts(2)),
            ],
        );
        // The sweep still finishes — the stall fallback drains locally
        // once the strangers are turned away.
        let (results, summary) = coord.unwrap();
        assert_eq!(fingerprints(&results), fingerprints(&local(&grid)));
        assert!(summary.auth_rejects >= 1, "bad token went uncounted: {summary}");
        // The rejected worker usually errs out on the Reject frame, but
        // if its redial crosses the sweep's end it is drained like any
        // other stranger — either way it must never be granted a task.
        match &outcomes[0] {
            Err(_) => {}
            Ok(outcome) => {
                assert_eq!(outcome.completed(), 0, "wrong token was granted a task");
            }
        }
        let tokenless = outcomes[1].as_ref().expect_err("missing token was accepted");
        assert!(tokenless.to_string().contains("auth token"), "unhelpful rejection: {tokenless}");
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn non_loopback_listen_without_a_token_is_refused() {
        let grid = grid(1);
        let spool = fresh_spool("nonloop");
        let err = TcpSweep::new(&spool, "0.0.0.0:0").run(&grid).unwrap_err();
        assert!(err.to_string().contains("auth-token"), "wrong refusal: {err}");
        std::fs::remove_dir_all(&spool).ok();
        // With a token the same bind is allowed (no workers dial in, so
        // the stall fallback drains it).
        let spool = fresh_spool("nonloop-ok");
        let (results, _) = TcpSweep::new(&spool, "0.0.0.0:0")
            .with_auth_token("sesame")
            .with_stall_timeout(Duration::from_millis(200))
            .run(&grid)
            .unwrap();
        assert_eq!(fingerprints(&results), fingerprints(&local(&grid)));
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn summary_reports_per_worker_transport_counters() {
        let grid = grid(4);
        let spool = fresh_spool("reports");
        let (coord, _) = run_tcp(
            &spool,
            &grid,
            coordinator(&spool),
            vec![worker(|a| fast_worker(a, 23).with_name("obs"))],
        );
        let (results, summary) = coord.unwrap();
        assert_eq!(fingerprints(&results), fingerprints(&local(&grid)));
        assert_eq!(summary.per_worker.len(), 1, "one connection, one report");
        let r = &summary.per_worker[0];
        assert_eq!(r.name, "obs/t0");
        assert_eq!(r.threads, 1);
        assert_eq!(r.tasks, grid.len());
        assert!(r.frames_in > 0 && r.frames_out > 0, "frame counters never moved: {r}");
        assert!(r.bytes_in > 0 && r.bytes_out > 0, "byte counters never moved: {r}");
        assert!(r.final_window >= 1);
        assert!(r.mean_rtt_us.is_some(), "no RTT probe landed: {r}");
        let line = r.to_string();
        assert!(line.contains("obs/t0") && line.contains("tasks=4"), "report line: {line}");
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn a_v4_lock_step_worker_interops_with_the_v5_coordinator() {
        let grid = grid(3);
        let spool = fresh_spool("v4-interop");
        // A hand-rolled worker speaking the exact v4 wire text: single
        // `claim`s, no capability fields, no `holding` lists.
        let send_v4 = |stream: &TcpStream, text: &str| {
            use std::io::Write;
            let mut w = stream;
            w.write_all(&(text.len() as u32).to_be_bytes()).unwrap();
            w.write_all(text.as_bytes()).unwrap();
            w.flush().unwrap();
        };
        let (coord, served) = crossbeam::thread::scope(|scope| {
            let coord = scope.spawn(|_| coordinator(&spool).run(&grid));
            let addr = wait_addr(&spool);
            let runner = SweepRunner::new().with_workers(1);
            let stream = TcpStream::connect(&addr).unwrap();
            stream.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
            send_v4(&stream, r#"{"v":4,"type":"hello","worker":"legacy"}"#);
            let mut served = 0usize;
            loop {
                send_v4(&stream, r#"{"v":4,"type":"claim"}"#);
                let reply = loop {
                    match read_frame(&mut (&stream)) {
                        Ok(msg) => break msg,
                        Err(FrameError::TimedOut) => {}
                        Err(e) => panic!("v4 worker read failed: {e}"),
                    }
                };
                match reply {
                    WireMsg::Task { index, scenario } => {
                        let sc = scenario_from_json(&scenario).unwrap();
                        let text = sweep_result_to_json(&runner.run_scenario(&sc)).write();
                        let sum = fnv1a(text.as_bytes());
                        send_v4(
                            &stream,
                            &format!(
                                r#"{{"v":4,"type":"result","index":"{index}","sum":"{sum}","payload":{text}}}"#
                            ),
                        );
                        served += 1;
                    }
                    WireMsg::Heartbeat { .. } => std::thread::sleep(Duration::from_millis(5)),
                    WireMsg::Drain => {
                        send_v4(&stream, r#"{"v":4,"type":"bye"}"#);
                        break;
                    }
                    WireMsg::Bye => break,
                    other => panic!("unexpected reply to a v4 claim: {other:?}"),
                }
            }
            (coord.join().expect("coordinator"), served)
        })
        .expect("tcp test scope");
        let (results, summary) = coord.unwrap();
        assert_eq!(fingerprints(&results), fingerprints(&local(&grid)));
        assert_eq!(served, grid.len(), "the v4 worker did not drain the sweep");
        assert_eq!(summary.dead_workers, 0, "v4 interop broke the connection: {summary}");
        assert!(summary.is_clean(), "v4 interop fired a recovery path: {summary}");
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn fault_plan_specs_round_trip() {
        let plan = FaultPlan {
            kill_after_tasks: Some(2),
            drop_frame: Some(5),
            truncate_frame: None,
            partition_after: Some(4),
            delay_every: Some((3, 50)),
            corrupt_result: Some(1),
        };
        let spec = plan.spec();
        assert_eq!(FaultPlan::parse(&spec).unwrap(), plan);
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::none());
        assert_eq!(FaultPlan::parse("seed=3").unwrap(), FaultPlan::seeded(3));
        assert!(!FaultPlan::seeded(3).is_empty(), "a seeded plan always injects something");
        assert!(FaultPlan::parse("kill-after=0").is_err(), "ordinals are 1-based");
        assert!(FaultPlan::parse("bogus=1").is_err());
        assert!(FaultPlan::parse("kill-after").is_err());
        assert!(FaultPlan::parse("delay-every=3").is_err());
        assert!(FaultPlan::parse("seed=1,kill-after=2").is_err());
    }
}
