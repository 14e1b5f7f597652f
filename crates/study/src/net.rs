//! The distributed sweep: one coordinator handing tasks out over TCP to
//! an elastic worker fleet, with heartbeats and deterministic fault
//! injection.
//!
//! The coordinator ([`TcpSweep`]) keeps the grid's task queue in memory
//! and listens on a socket; workers ([`TcpWorker`]) dial in from anywhere
//! and tasks, results, and heartbeats flow as length-prefixed
//! [`simcal_sim::codec`] frames ([`WireMsg`]). `sweep --listen ADDR`
//! serves whoever dials in; `sweep --distributed --spawn N` listens on
//! loopback, spawns N `sweep-worker --connect` processes and drains the
//! queue alongside them. The spool ([`crate::dist`]) is only the durable
//! journal: every accepted result is written to a checksummed,
//! atomically-renamed result file, and a crashed coordinator resumes with
//! [`TcpSweep::with_resume`], queueing only the tasks without one.
//!
//! ## Protocol
//!
//! Each connection is **windowed and pipelined**: the worker sends
//! `Hello` once (advertising its `threads`), then loops
//! `ClaimN { max, holding }` → (`TaskBatch` | `Heartbeat` | `Drain`),
//! streaming a `Result` back as each task finishes and re-claiming
//! *before* its queue drains so the claim round trip hides behind
//! compute. The coordinator tracks a per-connection in-flight *set* and
//! never lets it grow past the connection's claim window: one fixed size,
//! [`DEFAULT_CLAIM_WINDOW`] unless `--claim-window N` pins another, set
//! when the connection opens and never changed. A claim the window (or an
//! empty queue) cannot satisfy is **parked**, not refused: the
//! coordinator withholds the grant and retries it on every accepted
//! result, heartbeat, and poll tick, answering an empty queue with
//! `Heartbeat` liveness frames so the waiting worker never burns a
//! backoff sleep. Whoever journals the sweep's final result sends every
//! parked connection `Drain` at once, so a fleet of any size finishes
//! when its last result lands. `Drain` means "no work will ever come;
//! goodbye", answered with `Bye`. A background ticker on each worker
//! connection sends `Heartbeat` frames at a fixed interval so the
//! coordinator can tell slow from dead. Every frame is checked against
//! the codec version policy ([`simcal_sim::codec::CODEC_VERSION`]): a
//! peer speaking an older wire version (such as the retired lock-step
//! `claim`/`task` protocol) fails to decode and its connection is cut and
//! counted dead.
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
//! A worker's `ClaimN.holding` lists every task it has claimed on this
//! connection but not yet resulted, and frames on one socket are
//! ordered, so any outstanding task *missing* from an arriving claim's
//! `holding` can no longer produce a result — its `Result` frame was
//! lost. Those tasks are requeued on the spot.
//! The *whole* outstanding window is requeued when the connection dies,
//! the heartbeat deadline lapses with no frame (`--stall-timeout`), or a
//! corrupt repeat-offender gets cut. Corrupt `Result` frames (bad
//! checksum, undecodable payload, name mismatch) are counted, requeued
//! once, and cut the connection on a repeat. If the whole fleet goes
//! quiet for a stall window the coordinator queues every unfinished task
//! again and drains it locally, so the sweep terminates within one stall
//! window of the last progress no matter what the workers do. Workers
//! reconnect through the shared seeded [`Backoff`] dialer, dropping their
//! local queue (the coordinator requeues that window — recomputing is
//! safe, and a second result for a task is not journaled twice).
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

use std::collections::{HashMap, HashSet, VecDeque};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use simcal_sim::codec::{
    encode_msg, encode_result_msg, encode_scenario, encode_task_batch_msg, read_frame,
    scenario_from_json, write_frame, write_frame_text, FrameError, Json, WireMsg,
};
use simcal_sim::Scenario;

use crate::auth;
use crate::backoff::Backoff;
use crate::dist::{
    corrupt_result_index, create_spool, discard_result, fnv1a, merge_results, reopen_spool,
    sweep_result_from_json, sweep_result_to_json, write_atomic, write_result_text, DistError,
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
/// the merge report what is missing.
const MAX_RECOVERIES: u32 = 3;

/// The claim window of every connection that `--claim-window N` does not
/// pin: at most this many granted tasks without a result, per
/// connection. Enough to hide a loopback claim round trip behind compute;
/// small enough that the tail of a sweep still spreads across the fleet.
///
/// Measured on a 2-vCPU box, loopback, the 28-task reduced registry
/// (`benches/dist`, medians of alternated recordings against the adaptive
/// controller this constant replaced): one worker 21.1 ms against 25.4 ms
/// (window 1: 29.2 ms); two workers 47.8 ms against 47.1 ms over 12
/// pairs, inside either side's spread (44–57 and 42–51 ms). Ten
/// ~0.45 s tasks over two single-thread workers (debug build) finished in
/// 3.5–4.8 s against 3.9–4.5 s.
pub const DEFAULT_CLAIM_WINDOW: usize = 4;

/// Hard ceiling on a pinned claim window. Far above the point of
/// diminishing returns for pipelining, far below anything that would hurt
/// fleet load balance catastrophically.
pub const MAX_CLAIM_WINDOW: usize = 256;

/// Resolve a `--claim-window` choice: `Some(n)` clamped to
/// `1..=`[`MAX_CLAIM_WINDOW`], `None` the default.
fn claim_window(window: Option<usize>) -> usize {
    window.map_or(DEFAULT_CLAIM_WINDOW, |n| n.clamp(1, MAX_CLAIM_WINDOW))
}

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
    /// Advertised worker threads.
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
    /// The connection's claim window.
    pub window: usize,
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
            self.window,
        )
    }
}

/// What happened during a TCP sweep beyond the results: fleet membership
/// and every recovery path's counter.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TcpSummary {
    /// Corrupt `Result` frames (or journal records) discarded.
    pub corrupt_results: usize,
    /// Tasks put back in the queue after their worker lost them (on
    /// resume: every task without a journaled result).
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
    /// Stall-recovery rounds where the coordinator requeued every
    /// unfinished task because no result landed for a stall window.
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

/// A claim's answer, from the coordinator's task queue.
enum Grant {
    /// Hand out these task indices (never empty).
    Tasks(Vec<usize>),
    /// Queue empty but tasks still unfinished: the claim stays parked.
    Wait,
    /// Every task has a result (or the coordinator gave up); drain the
    /// worker.
    Drain,
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

/// Per-connection coordinator state: the in-flight set, the window, and
/// the auth gate.
struct ConnState {
    /// The connection's ordinal, its key among the parked connections.
    id: u64,
    /// Task indices granted on this connection with no result yet.
    outstanding: HashSet<usize>,
    /// Most tasks `outstanding` may hold at once.
    window: usize,
    name: String,
    threads: u64,
    tasks_served: usize,
    /// True once the shared secret is proven (or never demanded).
    authed: bool,
    /// Pre-auth claims tolerated so far (exactly one is legal: a
    /// worker's first claim races its own auth proof on the wire).
    preauth_claims: u32,
    nonce: u64,
    /// Unsatisfied demand from the worker's last claim. When the window
    /// is full at claim time the reply is *withheld*, not refused: the
    /// next accepted result frees a slot and triggers the grant, so
    /// a window of 1 never pays a backoff sleep between tasks.
    deferred: u64,
    /// The last grant attempt found the queue empty: the demand is
    /// parked until a task is requeued or the sweep ends.
    waiting: bool,
}

impl ConnState {
    fn new(id: u64, window: usize, authed: bool, nonce: u64) -> Self {
        Self {
            id,
            outstanding: HashSet::new(),
            window,
            name: String::new(),
            threads: 0,
            tasks_served: 0,
            authed,
            preauth_claims: 0,
            nonce,
            deferred: 0,
            waiting: false,
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
            window: self.window,
        }
    }
}

/// The sweep's task queue and completion record, behind one lock.
struct Tasks {
    /// Task indices waiting to be handed out, oldest first.
    pending: VecDeque<usize>,
    /// `queued[i]`: task `i` is in `pending`.
    queued: Vec<bool>,
    /// `journaled[i]`: task `i` has a result in the spool.
    journaled: Vec<bool>,
    /// How many tasks have a result.
    results: usize,
    /// Every task has a result, or the coordinator gave up: claims are
    /// answered with `Drain` from here on.
    done: bool,
}

impl Tasks {
    /// The queue of every task `journaled` marks as still without a result.
    fn new(journaled: Vec<bool>) -> Self {
        let pending: VecDeque<usize> = (0..journaled.len()).filter(|&i| !journaled[i]).collect();
        let queued = journaled.iter().map(|j| !j).collect();
        let results = journaled.len() - pending.len();
        Self { done: pending.is_empty(), pending, queued, journaled, results }
    }

    /// The next queued task still without a result.
    fn pop(&mut self) -> Option<usize> {
        while let Some(index) = self.pending.pop_front() {
            self.queued[index] = false;
            if !self.journaled[index] {
                return Some(index);
            }
        }
        None
    }

    /// Queue `index` again, unless it has a result or is queued already.
    fn requeue(&mut self, index: usize) -> bool {
        if self.journaled[index] || self.queued[index] {
            return false;
        }
        self.queued[index] = true;
        self.pending.push_back(index);
        true
    }
}

/// State shared between the accept/monitor loop, every connection handler
/// thread, and the local drain.
struct CoordShared<'g> {
    spool: PathBuf,
    grid: &'g [Scenario],
    /// Each scenario's wire text, encoded on its first grant and reused by
    /// every later one.
    texts: Vec<OnceLock<String>>,
    tasks: Mutex<Tasks>,
    /// Signalled when a task is requeued and when the sweep ends: wakes
    /// idle local-drain threads and the monitor.
    changed: Condvar,
    /// Connections whose claim is parked on an empty queue, blocked in a
    /// read. The thread that ends the sweep sends each of them `Drain`
    /// under this lock, so a parked worker learns of the end the moment
    /// the last result lands, not a [`HANDLER_POLL`] later. A handler
    /// leaves the map (taking the lock, so a `Drain` being written to its
    /// socket completes first) before it writes anything itself.
    parked: Mutex<HashMap<u64, Arc<TcpStream>>>,
    /// The runner for tasks this process executes itself.
    runner: SweepRunner,
    /// Threads of the local drain.
    threads: usize,
    stall: Duration,
    /// Every connection's claim window.
    claim_window: usize,
    /// The shared secret workers must prove; `None` = zero-config.
    auth_token: Option<String>,
    fatal: Mutex<Option<DistError>>,
    /// Task indices already forgiven one corrupt result.
    corrupt_seen: Mutex<HashSet<usize>>,
    corrupt_results: AtomicUsize,
    requeued: AtomicUsize,
    joined: AtomicUsize,
    left: AtomicUsize,
    dead: AtomicUsize,
    rejected: AtomicUsize,
    conn_seq: AtomicU64,
    reports: Mutex<Vec<WorkerReport>>,
}

impl CoordShared<'_> {
    fn lock_tasks(&self) -> std::sync::MutexGuard<'_, Tasks> {
        self.tasks.lock().expect("task queue poisoned")
    }

    /// Record the first fatal error and end the sweep.
    fn fatal(&self, e: DistError) {
        self.fatal.lock().expect("fatal slot poisoned").get_or_insert(e);
        self.finish();
    }

    /// End the sweep: claims drain from now on, idle local-drain threads
    /// and the monitor wake, and every parked connection gets its `Drain`.
    fn finish(&self) {
        self.lock_tasks().done = true;
        self.changed.notify_all();
        let mut parked = self.parked.lock().expect("parked map poisoned");
        for (_, stream) in parked.drain() {
            let _ = write_frame(&mut &*stream, &WireMsg::Drain);
        }
    }

    /// Register a connection as parked. Refused once the sweep has ended:
    /// the end's `Drain` round has already gone out.
    fn park(&self, ctl: &ConnState, stream: &Arc<TcpStream>) -> bool {
        let mut parked = self.parked.lock().expect("parked map poisoned");
        if self.lock_tasks().done {
            return false;
        }
        parked.insert(ctl.id, Arc::clone(stream));
        true
    }

    fn unpark(&self, ctl: &ConnState) {
        self.parked.lock().expect("parked map poisoned").remove(&ctl.id);
    }

    /// Put a lost task back in the queue (benign if it already has a
    /// result or is already queued).
    fn requeue(&self, index: usize) {
        if self.lock_tasks().requeue(index) {
            self.requeued.fetch_add(1, Ordering::SeqCst);
            self.changed.notify_all();
        }
    }

    /// Queue every task that is neither queued nor finished — whoever
    /// holds it is presumed dead.
    fn requeue_unfinished(&self) {
        let mut tasks = self.lock_tasks();
        let n = (0..self.grid.len()).filter(|&i| tasks.requeue(i)).count();
        drop(tasks);
        self.requeued.fetch_add(n, Ordering::SeqCst);
        self.changed.notify_all();
    }

    /// Journal one result payload and mark its task finished; the final
    /// result ends the sweep. `false` when the spool write failed (the
    /// sweep is over then, with that error).
    fn journal(&self, index: usize, payload: &str) -> bool {
        if self.lock_tasks().journaled[index] {
            // A requeued task's second result: the journal already has
            // an identical one.
            return true;
        }
        if let Err(e) = write_result_text(&self.spool, index, payload) {
            self.fatal(e);
            return false;
        }
        let mut tasks = self.lock_tasks();
        if !tasks.journaled[index] {
            tasks.journaled[index] = true;
            tasks.results += 1;
            if tasks.results == self.grid.len() {
                drop(tasks);
                self.finish();
            }
        }
        true
    }

    /// Claim up to `max` tasks for one grant.
    fn next_batch(&self, max: usize) -> Grant {
        let mut tasks = self.lock_tasks();
        if tasks.done {
            return Grant::Drain;
        }
        let batch: Vec<usize> = std::iter::from_fn(|| tasks.pop()).take(max).collect();
        if batch.is_empty() {
            Grant::Wait
        } else {
            Grant::Tasks(batch)
        }
    }

    /// The next task for the local drain. With `wait`, an idle thread
    /// sleeps until a task is requeued or the sweep ends; without, an
    /// empty queue ends the drain.
    fn next_local(&self, wait: bool) -> Option<usize> {
        let mut tasks = self.lock_tasks();
        loop {
            if wait && tasks.done {
                return None;
            }
            if let Some(index) = tasks.pop() {
                return Some(index);
            }
            if !wait {
                return None;
            }
            tasks = self.changed.wait(tasks).expect("task queue poisoned");
        }
    }

    /// Run queued tasks on this process's own threads, journaling each
    /// result as it completes. A `--spawn` coordinator drains this way
    /// alongside its fleet from the start (`wait`: idle threads wait for
    /// requeued tasks until the sweep ends); stall and merge recovery
    /// drain what is queued and return.
    fn drain_locally(&self, wait: bool) {
        let drain = || {
            while let Some(index) = self.next_local(wait) {
                let result = self.runner.run_scenario(&self.grid[index]);
                if !self.journal(index, &sweep_result_to_json(&result).write()) {
                    return;
                }
            }
        };
        std::thread::scope(|scope| {
            for _ in 1..self.threads {
                scope.spawn(drain);
            }
            drain();
        });
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
        let valid = index < self.grid.len()
            && fnv1a(text.as_bytes()) == sum
            && sweep_result_from_json(payload).is_ok_and(|r| r.name == self.grid[index].name);
        if valid {
            return self.journal(index, &text);
        }
        self.corrupt_results.fetch_add(1, Ordering::SeqCst);
        if index < self.grid.len() && self.corrupt_seen.lock().expect("poisoned").insert(index) {
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
    /// record the demand, and grant what the window allows.
    fn serve_claim(
        &self,
        m: &mut Metered<'_>,
        ctl: &mut ConnState,
        max: u64,
        holding: &[u64],
    ) -> Option<Close> {
        if !ctl.authed {
            // A worker's first claim legitimately races its own auth
            // proof (Hello, ClaimN, AuthProof arrive in that order), so
            // one pre-auth claim parks its demand until the proof lands
            // (the verified `AuthProof` pumps it); a second claim proves
            // the peer is not going to authenticate.
            if ctl.preauth_claims > 0 {
                return Some(self.reject(m, "authentication required"));
            }
            ctl.preauth_claims += 1;
            ctl.deferred = max;
            return None;
        }
        // The loss detector: any outstanding task missing from `holding`
        // can no longer produce a result on this ordered socket — the
        // worker sends every Result before the ClaimN that omits it.
        let held: HashSet<usize> = holding.iter().map(|i| *i as usize).collect();
        let lost: Vec<usize> =
            ctl.outstanding.iter().filter(|i| !held.contains(i)).copied().collect();
        for index in lost {
            ctl.outstanding.remove(&index);
            self.requeue(index);
        }
        ctl.deferred = max;
        self.pump(m, ctl)
    }

    /// Try to satisfy the connection's recorded demand. A full window or
    /// an empty queue *withholds* the grant (the worker keeps computing;
    /// the next result, heartbeat, or poll tick retries it) — an empty
    /// queue additionally answers with a `Heartbeat` so the waiting worker
    /// can tell a busy coordinator from a dead one, and parks the
    /// connection until the sweep ends.
    fn pump(&self, m: &mut Metered<'_>, ctl: &mut ConnState) -> Option<Close> {
        ctl.waiting = false;
        if ctl.deferred == 0 || !ctl.authed {
            return None;
        }
        let allowance = ctl.window.saturating_sub(ctl.outstanding.len());
        let want = (ctl.deferred as usize).min(allowance);
        if want == 0 {
            return None;
        }
        match self.next_batch(want) {
            Grant::Tasks(indices) => {
                ctl.deferred = 0;
                // Scenario texts splice straight into the frame — the
                // raw-encoding twin of the worker's `Result` path, pinned
                // byte-identical to the structured encoder by the codec
                // tests.
                let text = |i: usize| self.texts[i].get_or_init(|| encode_scenario(&self.grid[i]));
                let wire: Vec<(u64, &str)> =
                    indices.iter().map(|&i| (i as u64, text(i).as_str())).collect();
                if m.send_text(&encode_task_batch_msg(&wire)).is_err() {
                    for index in indices {
                        self.requeue(index);
                    }
                    return Some(Close::Dead);
                }
                ctl.outstanding.extend(indices);
                None
            }
            Grant::Wait => {
                // Tasks are still unfinished elsewhere: the demand stays
                // parked — requeued tasks reach it within a poll tick,
                // the sweep's end at once — with a liveness heartbeat so
                // the worker's patience timer keeps finding frames.
                ctl.waiting = true;
                let nudge = WireMsg::Heartbeat { inflight: None };
                m.send(&nudge).is_err().then_some(Close::Dead)
            }
            Grant::Drain => {
                ctl.deferred = 0;
                Some(self.drain_peer(m))
            }
        }
    }

    /// Drive one worker connection until it drains, leaves, or dies.
    fn handle(&self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        // The write timeout bounds how long a peer that stopped reading
        // can block a write — the end-of-sweep `Drain` round included.
        if stream.set_read_timeout(Some(HANDLER_POLL)).is_err()
            || stream.set_write_timeout(Some(DRAIN_WAIT)).is_err()
        {
            return;
        }
        let stream = Arc::new(stream);
        let mut m = Metered::new(&stream);
        let require_auth = self.auth_token.is_some();
        let id = self.conn_seq.fetch_add(1, Ordering::SeqCst);
        // The nonce only needs per-connection uniqueness (it salts the
        // MAC against replay across connections), not unpredictability
        // of a CSPRNG grade: time + pid + connection ordinal suffice.
        let nonce = {
            let t = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_nanos() as u64);
            t ^ id.rotate_left(32) ^ u64::from(std::process::id()).rotate_left(17)
        };
        let mut ctl = ConnState::new(id, self.claim_window, !require_auth, nonce);
        if require_auth && m.send(&WireMsg::AuthChallenge { nonce }).is_err() {
            return;
        }
        let mut last_alive = Instant::now();
        let close = loop {
            if self.lock_tasks().done && ctl.outstanding.is_empty() {
                break self.drain_peer(&mut m);
            }
            // A parked connection is reachable by the sweep's end while
            // it blocks in the read below, and only then.
            if ctl.waiting && !self.park(&ctl, &stream) {
                match self.pump(&mut m, &mut ctl) {
                    Some(close) => break close,
                    None => continue,
                }
            }
            let read = m.read_msg();
            if ctl.waiting {
                self.unpark(&ctl);
            }
            match read {
                Ok(msg) => {
                    last_alive = Instant::now();
                    match msg {
                        WireMsg::Hello { worker, threads } => {
                            self.joined.fetch_add(1, Ordering::SeqCst);
                            ctl.name = worker;
                            ctl.threads = threads;
                        }
                        WireMsg::ClaimN { max, holding } => {
                            if let Some(close) = self.serve_claim(&mut m, &mut ctl, max, &holding) {
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
                            ctl.outstanding.remove(&index);
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
                            // (another connection's tasks requeued).
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
                        WireMsg::TaskBatch { .. }
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
            self.reports.lock().expect("reports poisoned").push(ctl.report(&m));
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
                Ok(WireMsg::ClaimN { .. }) => {
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

/// Spawned worker processes, killed and reaped when dropped: no child
/// outlives the sweep, on any exit path. A child that was drained has
/// already said `Bye`; one still dialing or hung is stopped here.
struct Fleet(Vec<Child>);

impl Drop for Fleet {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The sweep coordinator: journals into a spool, hands tasks out from an
/// in-memory queue over a TCP listener, and drives an elastic fleet of
/// [`TcpWorker`]s to drain it — dialing in from anywhere (`--listen`), or
/// spawned on this host (`--distributed --spawn N`, see
/// [`with_spawn`](Self::with_spawn)). Results are bit-identical to
/// [`SweepRunner::run`] whoever computes them.
#[derive(Debug)]
pub struct TcpSweep {
    spool: PathBuf,
    listen: String,
    threads: usize,
    stall_timeout: Duration,
    seed: u64,
    resume: bool,
    claim_window: usize,
    auth_token: Option<String>,
    /// `Some(n)`: spawn `n` workers and drain alongside them.
    spawn: Option<usize>,
    worker_cmd: Option<(PathBuf, Vec<String>)>,
}

impl TcpSweep {
    /// A coordinator journaling into `spool` and listening on `listen`
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
            claim_window: DEFAULT_CLAIM_WINDOW,
            auth_token: None,
            spawn: None,
            worker_cmd: None,
        }
    }

    /// Threads for the coordinator's own local drain.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// How long the fleet may go without producing a single result (and a
    /// single connection may go without a frame) before recovery kicks
    /// in: every unfinished task is queued again and drained locally.
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
    /// directory: the manifest must name the same grid, and only the
    /// tasks without a journaled result are queued.
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Pin every connection's claim window to `Some(n)` (clamped to
    /// `1..=`[`MAX_CLAIM_WINDOW`]; `Some(1)` grants one task per claim),
    /// or `None` for [`DEFAULT_CLAIM_WINDOW`].
    pub fn with_claim_window(mut self, window: Option<usize>) -> Self {
        self.claim_window = claim_window(window);
        self
    }

    /// Require workers to prove knowledge of this shared secret before
    /// any task is granted or result accepted. Mandatory when listening
    /// on a non-loopback interface.
    pub fn with_auth_token(mut self, token: impl Into<String>) -> Self {
        self.auth_token = Some(token.into());
        self
    }

    /// Spawn `n` worker processes that dial this coordinator, and drain
    /// the queue alongside them from the start, so the sweep has `n + 1`
    /// executors (`n = 0`: the coordinator drains alone). Requires
    /// [`with_worker_command`](Self::with_worker_command) when `n > 0`.
    /// Without this, the coordinator serves whoever dials in and drains
    /// locally only when the fleet stalls.
    pub fn with_spawn(mut self, n: usize) -> Self {
        self.spawn = Some(n);
        self
    }

    /// The command spawned workers run — typically the current executable
    /// with `sweep-worker` arguments. The coordinator appends
    /// `--connect ADDR` once it has bound.
    pub fn with_worker_command(mut self, program: impl Into<PathBuf>, args: Vec<String>) -> Self {
        self.worker_cmd = Some((program.into(), args));
        self
    }

    /// Run the sweep: start (or resume) the journal, listen, serve
    /// workers until every task has a result, then merge. Returns the
    /// results in grid order plus the recovery counters.
    pub fn run(&self, grid: &[Scenario]) -> Result<(Vec<SweepResult>, TcpSummary), DistError> {
        if grid.is_empty() {
            return Ok((Vec::new(), TcpSummary::default()));
        }
        let journaled = if self.resume {
            reopen_spool(&self.spool, grid)?
        } else {
            create_spool(&self.spool, grid)?;
            vec![false; grid.len()]
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
        let fleet = self.spawn_fleet(&addr)?;

        let tasks = Tasks::new(journaled);
        let shared = CoordShared {
            spool: self.spool.clone(),
            grid,
            texts: grid.iter().map(|_| OnceLock::new()).collect(),
            // On resume, every task without a result is queued again.
            requeued: AtomicUsize::new(if self.resume { tasks.pending.len() } else { 0 }),
            tasks: Mutex::new(tasks),
            changed: Condvar::new(),
            parked: Mutex::new(HashMap::new()),
            runner: SweepRunner::new().with_workers(self.threads),
            threads: self.threads,
            stall: self.stall_timeout,
            claim_window: self.claim_window,
            auth_token: self.auth_token.clone(),
            fatal: Mutex::new(None),
            corrupt_seen: Mutex::new(HashSet::new()),
            corrupt_results: AtomicUsize::new(0),
            joined: AtomicUsize::new(0),
            left: AtomicUsize::new(0),
            dead: AtomicUsize::new(0),
            rejected: AtomicUsize::new(0),
            conn_seq: AtomicU64::new(0),
            reports: Mutex::new(Vec::new()),
        };
        let shared = &shared;
        let draining_alongside = self.spawn.is_some();
        let mut recoveries = 0u32;

        let served: Result<(), DistError> = std::thread::scope(|scope| {
            if draining_alongside {
                scope.spawn(|| shared.drain_locally(true));
            }
            let mut poll =
                Backoff::new(Duration::from_millis(2), Duration::from_millis(40), self.seed);
            let mut last_count = usize::MAX;
            let mut idle_since = Instant::now();
            let outcome = loop {
                if let Some(e) = shared.fatal.lock().expect("fatal slot poisoned").take() {
                    break Err(e);
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        scope.spawn(move || shared.handle(stream));
                        poll.reset();
                        continue;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                    // Transient accept errors (e.g. aborted handshakes)
                    // are not fatal to the sweep.
                    Err(_) => {}
                }
                let tasks = shared.lock_tasks();
                if tasks.done {
                    break Ok(());
                }
                if tasks.results != last_count {
                    last_count = tasks.results;
                    idle_since = Instant::now();
                    poll.reset();
                }
                if idle_since.elapsed() >= self.stall_timeout {
                    // The fleet went quiet for a whole stall window:
                    // queue everything unfinished again and drain it
                    // here, so the sweep terminates no matter what the
                    // workers do.
                    drop(tasks);
                    recoveries += 1;
                    shared.requeue_unfinished();
                    if !draining_alongside {
                        shared.drain_locally(false);
                    }
                    idle_since = Instant::now();
                    poll.reset();
                    if recoveries >= MAX_RECOVERIES {
                        // Let the merge report whatever is still missing.
                        break Ok(());
                    }
                    continue;
                }
                // Sleep on the queue's condvar: the end of the sweep wakes
                // the monitor at once. The cap bounds how long a freshly
                // dialing worker waits on the non-blocking accept.
                let nap = poll.next_delay().min(ACCEPT_POLL_CAP);
                drop(shared.changed.wait_timeout(tasks, nap).expect("task queue poisoned"));
            };
            shared.finish();
            // Closing the listener resets any un-accepted backlog
            // connections so late dialers fail fast instead of hanging.
            drop(listener);
            outcome
        });
        drop(fleet);
        served?;

        // Merge, recovering from corrupt journal records: discard the
        // record, queue its task once, drain locally, retry.
        let results = loop {
            match merge_results(&self.spool) {
                Ok(results) => break results,
                Err(e @ (DistError::Corrupt { .. } | DistError::Codec { .. })) => {
                    let path = match &e {
                        DistError::Corrupt { path, .. } | DistError::Codec { path, .. } => path,
                        _ => unreachable!(),
                    };
                    let Some(index) = corrupt_result_index(&self.spool, path) else {
                        return Err(e);
                    };
                    if index >= grid.len()
                        || !shared.corrupt_seen.lock().expect("poisoned").insert(index)
                    {
                        return Err(e);
                    }
                    discard_result(&self.spool, index)?;
                    {
                        let mut tasks = shared.lock_tasks();
                        if std::mem::take(&mut tasks.journaled[index]) {
                            tasks.results -= 1;
                        }
                        tasks.requeue(index);
                    }
                    shared.corrupt_results.fetch_add(1, Ordering::SeqCst);
                    shared.requeued.fetch_add(1, Ordering::SeqCst);
                    shared.drain_locally(false);
                    if let Some(e) = shared.fatal.lock().expect("fatal slot poisoned").take() {
                        return Err(e);
                    }
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
            per_worker: std::mem::take(&mut *shared.reports.lock().expect("reports poisoned")),
        };
        Ok((results, summary))
    }

    /// Start the `--spawn` workers, each dialing `addr`.
    fn spawn_fleet(&self, addr: &str) -> Result<Fleet, DistError> {
        let mut fleet = Fleet(Vec::new());
        let n = self.spawn.unwrap_or(0);
        if n == 0 {
            return Ok(fleet);
        }
        let (program, args) = self.worker_cmd.as_ref().ok_or_else(|| {
            DistError::Config("spawn > 0 but no worker command configured".to_string())
        })?;
        for _ in 0..n {
            let child = Command::new(program)
                .args(args)
                .args(["--connect", addr])
                .stdin(Stdio::null())
                .spawn()
                .map_err(|source| DistError::Io { path: program.clone(), source })?;
            fleet.0.push(child);
        }
        Ok(fleet)
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
        let mut writer = self.writer.lock().expect("writer poisoned");
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
        let _ = self.writer.lock().expect("writer poisoned").shutdown(Shutdown::Both);
    }
}

/// A TCP sweep worker: dials the coordinator, claims windows of tasks per
/// thread, and streams results back. Reconnects through seeded
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
    claim_window: usize,
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
            claim_window: DEFAULT_CLAIM_WINDOW,
            auth_token: None,
        }
    }

    /// Display name the coordinator sees in `Hello` frames.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Concurrent connections (one task computing per thread).
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
    /// `1..=`[`MAX_CLAIM_WINDOW`]), or `None` for [`DEFAULT_CLAIM_WINDOW`].
    /// The coordinator's window still governs how much is actually
    /// granted.
    pub fn with_claim_window(mut self, window: Option<usize>) -> Self {
        self.claim_window = claim_window(window);
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
        let outcomes: Vec<Result<(ConnEnd, usize), DistError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.threads)
                .map(|t| scope.spawn(move || self.worker_thread(t, shared)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker thread panicked")).collect()
        });
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
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let interrupted =
                    || stop.load(Ordering::SeqCst) || shared.killed.load(Ordering::SeqCst);
                loop {
                    let guard = stop_lock.lock().expect("ticker lock poisoned");
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
        let capacity = self.claim_window;
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
    use crate::dist::result_path;
    use simcal_sim::ScenarioRegistry;

    /// A grid larger than two default-window grants, so that in a
    /// two-worker fleet one worker's grants cannot leave its sibling
    /// nothing to do.
    const FLEET_GRID: usize = 2 * DEFAULT_CLAIM_WINDOW + 2;

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
        std::thread::scope(|scope| {
            let coord = scope.spawn(|| coord.run(grid));
            let addr = wait_addr(spool);
            let handles: Vec<_> = fleet
                .into_iter()
                .map(|build| {
                    let addr = addr.clone();
                    scope.spawn(move || build(addr).run())
                })
                .collect();
            let outcomes = handles.into_iter().map(|h| h.join().expect("worker")).collect();
            (coord.join().expect("coordinator"), outcomes)
        })
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
        let grid = grid(FLEET_GRID);
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
        // Hello(1), ClaimN(2) → TaskBatch[t0..t2], Result(3) — the first
        // result vanishes — then ClaimN(4) holds only [t1,t2].
        let plan = FaultPlan { drop_frame: Some(3), ..FaultPlan::default() };
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
        let grid = grid(FLEET_GRID);
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
        let grid = grid(FLEET_GRID);
        let spool = fresh_spool("elastic");
        // The early worker drags every frame out, so the sweep is still
        // running when the second worker dials in.
        let slow = FaultPlan { delay_every: Some((1, 60)), ..FaultPlan::default() };
        let (coord, outcomes) = std::thread::scope(|scope| {
            let coord = scope.spawn(|| coordinator(&spool).run(&grid));
            let addr = wait_addr(&spool);
            let early = {
                let addr = addr.clone();
                scope.spawn(move || fast_worker(addr, 13).with_fault(slow).run())
            };
            let late = scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(100));
                fast_worker(addr, 14).run()
            });
            let outcomes = vec![early.join().expect("early"), late.join().expect("late")];
            (coord.join().expect("coordinator"), outcomes)
        });
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
        // A "crashed" coordinator: the journal started, two of the three
        // results written, the third never.
        create_spool(&spool, &grid).unwrap();
        for (index, r) in local(&grid).iter().enumerate().filter(|(i, _)| *i != 1) {
            write_result_text(&spool, index, &sweep_result_to_json(r).write()).unwrap();
        }
        // A fresh coordinator refuses the dirty spool...
        assert!(matches!(coordinator(&spool).run(&grid), Err(DistError::SpoolInUse(_))));
        // ...but a resumed one queues the missing task and finishes.
        let (coord, outcomes) = run_tcp(
            &spool,
            &grid,
            coordinator(&spool).with_resume(true),
            vec![worker(|a| fast_worker(a, 15))],
        );
        let (results, summary) = coord.unwrap();
        assert_eq!(fingerprints(&results), fingerprints(&local(&grid)));
        assert_eq!(summary.requeued_tasks, 1, "the missing task was not queued: {summary}");
        assert_eq!(outcomes[0].as_ref().unwrap().completed(), 1, "finished tasks were rerun");
        // Resuming a settled spool is idempotent: nothing to queue.
        let (results, summary) =
            coordinator(&spool).with_resume(true).with_spawn(0).run(&grid).unwrap();
        assert!(summary.is_clean(), "{summary}");
        assert_eq!(fingerprints(&results), fingerprints(&local(&grid)));
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn results_are_journaled_as_they_land() {
        // A result is on disk once its frame is accepted, not at the end
        // of the sweep: after a worker leaves with two results, two
        // result files exist while the sweep is still short of tasks.
        let grid = grid(FLEET_GRID);
        let spool = fresh_spool("incremental");
        let (coord, journaled) = std::thread::scope(|scope| {
            let coord = scope.spawn(|| coordinator(&spool).run(&grid));
            let addr = wait_addr(&spool);
            let early = fast_worker(addr.clone(), 16).with_max_tasks(2).run().unwrap();
            assert_eq!(early, WorkerOutcome::Drained { completed: 2 });
            let journaled = (0..grid.len()).filter(|&i| result_path(&spool, i).exists()).count();
            fast_worker(addr, 17).run().unwrap();
            (coord.join().expect("coordinator"), journaled)
        });
        assert_eq!(journaled, 2, "results waited for the end of the sweep");
        assert_eq!(fingerprints(&coord.unwrap().0), fingerprints(&local(&grid)));
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn local_drain_matches_the_in_process_run_and_journals_only_results() {
        let grid = grid(5);
        let spool = fresh_spool("local");
        let (results, summary) =
            TcpSweep::new(&spool, "127.0.0.1:0").with_spawn(0).with_threads(2).run(&grid).unwrap();
        assert_eq!(fingerprints(&results), fingerprints(&local(&grid)));
        assert!(summary.is_clean(), "{summary}");
        assert_eq!(summary.workers_joined, 0, "nobody dialed in");
        // The spool is a journal: a manifest, one result per task, the
        // address — and no task queue on disk.
        let results_dir = std::fs::read_dir(spool.join("results")).unwrap().count();
        assert_eq!(results_dir, grid.len());
        assert!(!spool.join("tasks").exists() && !spool.join("claimed").exists());
        assert_eq!(fingerprints(&merge_results(&spool).unwrap()), fingerprints(&results));
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn merge_rejects_corrupt_checksums() {
        let grid = grid(2);
        let spool = fresh_spool("corrupt");
        coordinator(&spool).with_spawn(0).run(&grid).unwrap();
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
    fn spool_refuses_to_overwrite_a_finished_sweep_or_stale_leftovers() {
        let grid = grid(2);
        let spool = fresh_spool("inuse");
        coordinator(&spool).with_spawn(0).run(&grid).unwrap();
        assert!(matches!(
            coordinator(&spool).with_spawn(0).run(&grid),
            Err(DistError::SpoolInUse(_))
        ));
        std::fs::remove_dir_all(&spool).ok();
        // A previous coordinator crashed after journaling a result but
        // before its manifest: that stale result would poison this
        // sweep's merge, so the fresh sweep must refuse.
        let spool = fresh_spool("stale");
        std::fs::create_dir_all(spool.join("results")).unwrap();
        std::fs::write(result_path(&spool, 17), "{}").unwrap();
        assert!(matches!(
            coordinator(&spool).with_spawn(0).run(&grid),
            Err(DistError::SpoolInUse(_))
        ));
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn empty_grid_is_fine() {
        let spool = fresh_spool("empty");
        let (results, summary) = coordinator(&spool).with_spawn(0).run(&[]).unwrap();
        assert!(results.is_empty() && summary.is_clean());
        assert!(!spool.exists(), "an empty sweep needs no journal");
    }

    #[test]
    fn corrupt_journal_files_are_rerun_once_on_resume() {
        // Finish a sweep, corrupt one journaled result, then resume: the
        // coordinator must discard the bad record, rerun its task, and
        // report one corrupt result — not fail the merge.
        let grid = grid(3);
        let spool = fresh_spool("corrupt-resume");
        coordinator(&spool).with_spawn(0).run(&grid).unwrap();
        let path = result_path(&spool, 1);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replacen("\"makespan\":", "\"makespan_x\":", 1)).unwrap();
        let resume = || coordinator(&spool).with_resume(true).with_spawn(0).run(&grid);
        let (merged, summary) = resume().unwrap();
        assert_eq!(summary.corrupt_results, 1, "{summary}");
        assert!(!summary.is_clean());
        assert_eq!(fingerprints(&merged), fingerprints(&local(&grid)));
        // A truncated (unparseable) result is recovered the same way.
        std::fs::write(result_path(&spool, 0), &text[..text.len() / 2]).unwrap();
        let (merged, summary) = resume().unwrap();
        assert_eq!(summary.corrupt_results, 1, "{summary}");
        assert_eq!(fingerprints(&merged), fingerprints(&local(&grid)));
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn resume_rejects_a_mismatched_grid() {
        let grid = grid(3);
        let spool = fresh_spool("resume-mismatch");
        create_spool(&spool, &grid).unwrap();
        let other = &grid[..2];
        assert!(matches!(
            coordinator(&spool).with_resume(true).with_spawn(0).run(other),
            Err(DistError::Corrupt { .. })
        ));
        // Resume on a spool that never existed is an error, not a fresh
        // sweep (the caller asked to continue something).
        let missing = fresh_spool("resume-missing");
        assert!(coordinator(&missing).with_resume(true).with_spawn(0).run(&grid).is_err());
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn a_hung_spawned_worker_does_not_stall_the_sweep() {
        // A spawned worker that never dials and never exits. The
        // coordinator drains the queue itself and kills the child on the
        // way out instead of waiting out its 300 s sleep.
        let grid = grid(4);
        let spool = fresh_spool("hung");
        let t0 = Instant::now();
        let (results, _) = coordinator(&spool)
            .with_spawn(1)
            .with_worker_command("/bin/sh", vec!["-c".to_string(), "exec sleep 300".to_string()])
            .run(&grid)
            .unwrap();
        assert!(t0.elapsed() < Duration::from_secs(60), "the sweep waited on its hung child");
        assert_eq!(fingerprints(&results), fingerprints(&local(&grid)));
        std::fs::remove_dir_all(&spool).ok();
        // Spawning needs a command to spawn.
        let spool = fresh_spool("no-cmd");
        let err = coordinator(&spool).with_spawn(1).run(&grid).unwrap_err();
        assert!(matches!(err, DistError::Config(_)), "{err}");
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
        assert_eq!(r.window, DEFAULT_CLAIM_WINDOW);
        let line = r.to_string();
        assert!(line.contains("obs/t0") && line.contains("tasks=4"), "report line: {line}");
        assert!(line.ends_with("window=4"), "report line: {line}");
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn a_v4_lock_step_claim_is_cut_and_the_sweep_still_merges() {
        let grid = grid(3);
        let spool = fresh_spool("v4-claim");
        // A hand-rolled peer that introduces itself at the current
        // version, then sends the retired v4 lock-step `claim` frame.
        let send = |stream: &TcpStream, text: &str| {
            use std::io::Write;
            let mut w = stream;
            w.write_all(&(text.len() as u32).to_be_bytes()).unwrap();
            w.write_all(text.as_bytes()).unwrap();
            w.flush().unwrap();
        };
        let (coord, cut) = std::thread::scope(|scope| {
            let coord = scope.spawn(|| coordinator(&spool).run(&grid));
            let addr = wait_addr(&spool);
            let stream = TcpStream::connect(&addr).unwrap();
            stream.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
            send(&stream, r#"{"v":7,"type":"hello","worker":"v4-peer","threads":"1"}"#);
            send(&stream, r#"{"v":4,"type":"claim"}"#);
            // The coordinator answers nothing and hangs up.
            let start = Instant::now();
            let cut = loop {
                match read_frame(&mut (&stream)) {
                    Err(FrameError::TimedOut) if start.elapsed() < Duration::from_secs(10) => {}
                    other => break other,
                }
            };
            // A current worker then drains the whole sweep.
            let outcome = fast_worker(addr, 41).run();
            assert!(outcome.is_ok(), "worker failed: {outcome:?}");
            (coord.join().expect("coordinator"), cut)
        });
        assert!(
            matches!(cut, Err(FrameError::Closed | FrameError::Io(_))),
            "v4 claim was answered: {cut:?}"
        );
        let (results, summary) = coord.unwrap();
        assert_eq!(fingerprints(&results), fingerprints(&local(&grid)));
        assert_eq!(summary.dead_workers, 1, "the v4 connection was not counted dead: {summary}");
        assert_eq!(summary.workers_joined, 2, "{summary}");
        let peer = summary.per_worker.iter().find(|r| r.name == "v4-peer").expect("v4 report");
        assert_eq!(peer.tasks, 0, "the v4 peer was served: {peer}");
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
