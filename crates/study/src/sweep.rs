//! The sharded parallel scenario-sweep driver.
//!
//! A [`SweepRunner`] executes a grid of [`Scenario`]s across a scoped
//! worker pool. The grid is split into contiguous **shards** (of
//! [`SweepRunner::with_shard_size`] scenarios each); workers claim shards
//! from an atomic cursor, so load-balancing is dynamic while per-shard
//! work stays cache-friendly. Each worker owns a pooled
//! [`EvalContext`] with a [`SimSession`] parked in it — the same
//! session-reuse machinery the calibration evaluator uses — so arena
//! building is paid once per worker, not once per scenario.
//!
//! **Determinism contract:** every scenario materializes its own inputs
//! from per-scenario seeds and a reused session is bit-identical to a
//! cold build, so the result vector is bit-for-bit independent of the
//! worker count, the shard size, and the order in which workers claim
//! shards. A property test sweeps the registry at 1/2/8 workers and
//! several shard sizes and asserts exactly that.
//!
//! The distributed tier ([`crate::net`]) runs every task it hands out
//! through [`SweepRunner::run_scenario`], the same pooled-session path, so
//! the local and the multi-process sweep cannot drift apart.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use std::sync::Mutex;

use simcal_calib::EvalContext;
use simcal_sim::{Scenario, SimSession};
use simcal_workload::ExecutionTrace;

/// The deterministic outcome of one scenario execution.
///
/// `wall_seconds` is measurement, not simulation, and is excluded from
/// [`SweepResult::fingerprint`].
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Scenario name (copied from the grid).
    pub name: String,
    /// Simulated makespan, seconds.
    pub makespan: f64,
    /// Mean job time over all jobs, seconds.
    pub mean_job_time: f64,
    /// Mean queue wait over all jobs, seconds (0 unless jobs had to wait
    /// for a core — the queueing/overcommit scenarios).
    pub mean_queue_wait: f64,
    /// Largest queue wait any job saw, seconds.
    pub max_queue_wait: f64,
    /// Per-node mean job times (NaN for unused nodes).
    pub node_means: Vec<f64>,
    /// Per-node job-time standard deviations (NaN for unused nodes).
    pub node_stds: Vec<f64>,
    /// Kernel events the execution took.
    pub events: u64,
    /// FNV-1a hash over every job record's bit pattern — a whole-trace
    /// bit-identity witness.
    pub trace_hash: u64,
    /// Median queue wait, seconds (exact nearest-rank for
    /// run-to-completion scenarios, streaming P² for horizon runs).
    pub wait_p50: f64,
    /// p99 queue wait, seconds.
    pub wait_p99: f64,
    /// p99.9 queue wait, seconds.
    pub wait_p999: f64,
    /// Median slowdown ((end - release) / service time, >= 1).
    pub slowdown_p50: f64,
    /// p99 slowdown.
    pub slowdown_p99: f64,
    /// p99.9 slowdown.
    pub slowdown_p999: f64,
    /// Fraction of completed jobs meeting the scenario's queue-wait SLO
    /// target (1.0 for run-to-completion scenarios, which carry none).
    pub slo_attained: f64,
    /// Entries pushed onto the engine's event queues (0 for multi-site
    /// scenarios, whose per-site engines are dropped after the run).
    pub event_pushes: u64,
    /// Cancelled timer entries skimmed off on pop (completion entries
    /// are never stale).
    pub event_stale_drops: u64,
    /// Wall-clock seconds this scenario's simulation took.
    pub wall_seconds: f64,
}

/// The `sweep --out` CSV schema, written as the artifact's header comment
/// so cross-machine sweep outputs are self-describing and diffable:
/// deterministic columns only (no wall-clock), floats in their shortest
/// round-trip form, and the FNV-1a trace hash as the one-column
/// bit-identity witness.
pub const SWEEP_CSV_SCHEMA: &str = "# simcal sweep csv v3: scenario,makespan_s,mean_job_s,\
mean_wait_s,max_wait_s,events,trace_hash,wait_p50_s,wait_p99_s,wait_p999_s,slowdown_p50,\
slowdown_p99,slowdown_p999,slo_attained; simulated seconds (shortest f64 round-trip repr), \
mean/max released-to-start queue wait, kernel event count, FNV-1a64 over all job records \
(hex) - two runs agree iff trace_hash columns agree; v3 appends queue-wait/slowdown \
percentiles (exact for run-to-completion scenarios, streaming P2 for horizon runs) and \
SLO attainment (1 when no target); v2 rows (7 columns) still parse";

impl SweepResult {
    /// The CSV column headers matching [`csv_row`](Self::csv_row).
    pub fn csv_headers() -> Vec<String> {
        [
            "scenario",
            "makespan_s",
            "mean_job_s",
            "mean_wait_s",
            "max_wait_s",
            "events",
            "trace_hash",
            "wait_p50_s",
            "wait_p99_s",
            "wait_p999_s",
            "slowdown_p50",
            "slowdown_p99",
            "slowdown_p999",
            "slo_attained",
        ]
        .map(String::from)
        .to_vec()
    }

    /// The result as a deterministic CSV row (excludes `wall_seconds`,
    /// which varies run to run). The v2 column prefix is unchanged; the
    /// v3 percentile/SLO columns are appended after `trace_hash`.
    pub fn csv_row(&self) -> Vec<String> {
        vec![
            self.name.clone(),
            format!("{}", self.makespan),
            format!("{}", self.mean_job_time),
            format!("{}", self.mean_queue_wait),
            format!("{}", self.max_queue_wait),
            self.events.to_string(),
            format!("{:016x}", self.trace_hash),
            format!("{}", self.wait_p50),
            format!("{}", self.wait_p99),
            format!("{}", self.wait_p999),
            format!("{}", self.slowdown_p50),
            format!("{}", self.slowdown_p99),
            format!("{}", self.slowdown_p999),
            format!("{}", self.slo_attained),
        ]
    }

    /// Condense a trace (does not consume it; the sweep drops traces to
    /// keep result memory bounded on large grids). Percentiles are exact
    /// (nearest-rank over the full trace); SLO attainment is the vacuous
    /// 1.0 — run-to-completion scenarios carry no target.
    pub fn from_trace(name: &str, trace: &ExecutionTrace) -> Self {
        let n_nodes = trace.n_nodes;
        let mut waits: Vec<f64> =
            trace.jobs.iter().map(|j| (j.start - j.release).max(0.0)).collect();
        let mut slowdowns: Vec<f64> = trace
            .jobs
            .iter()
            .map(|j| ((j.end - j.release) / (j.end - j.start).max(f64::EPSILON)).max(1.0))
            .collect();
        waits.sort_by(f64::total_cmp);
        slowdowns.sort_by(f64::total_cmp);
        Self {
            name: name.to_string(),
            makespan: trace.makespan(),
            mean_job_time: trace.mean_job_time(),
            mean_queue_wait: trace.mean_queue_wait(),
            max_queue_wait: trace.max_queue_wait(),
            node_means: trace.mean_job_time_by_node(),
            node_stds: (0..n_nodes).map(|n| trace.job_time_std_dev_on_node(n)).collect(),
            events: trace.engine_events,
            trace_hash: trace_hash(trace),
            wait_p50: nearest_rank(&waits, 0.5),
            wait_p99: nearest_rank(&waits, 0.99),
            wait_p999: nearest_rank(&waits, 0.999),
            slowdown_p50: nearest_rank(&slowdowns, 0.5),
            slowdown_p99: nearest_rank(&slowdowns, 0.99),
            slowdown_p999: nearest_rank(&slowdowns, 0.999),
            slo_attained: 1.0,
            event_pushes: 0,
            event_stale_drops: 0,
            wall_seconds: trace.wall_seconds,
        }
    }

    /// Condense a full run report: trace metrics from the (possibly
    /// partial) trace, percentile/SLO columns from the streaming horizon
    /// report when the scenario ran in horizon mode.
    pub fn from_report(name: &str, report: &simcal_sim::RunReport) -> Self {
        let mut r = Self::from_trace(name, &report.trace);
        if let Some(h) = &report.horizon {
            r.wait_p50 = h.wait_p50;
            r.wait_p99 = h.wait_p99;
            r.wait_p999 = h.wait_p999;
            r.slowdown_p50 = h.slowdown_p50;
            r.slowdown_p99 = h.slowdown_p99;
            r.slowdown_p999 = h.slowdown_p999;
            r.slo_attained = h.slo_attained;
        }
        r
    }

    /// The deterministic content as raw bits (name, metrics, hash) —
    /// everything except `wall_seconds` and the engine-queue counters
    /// (which the CSV artifact does not carry). Two runs of the same
    /// scenario must produce equal fingerprints regardless of worker
    /// placement.
    pub fn fingerprint(&self) -> (String, Vec<u64>, u64, u64) {
        let mut bits: Vec<u64> = vec![
            self.makespan.to_bits(),
            self.mean_job_time.to_bits(),
            self.mean_queue_wait.to_bits(),
            self.max_queue_wait.to_bits(),
            self.wait_p50.to_bits(),
            self.wait_p99.to_bits(),
            self.wait_p999.to_bits(),
            self.slowdown_p50.to_bits(),
            self.slowdown_p99.to_bits(),
            self.slowdown_p999.to_bits(),
            self.slo_attained.to_bits(),
        ];
        bits.extend(self.node_means.iter().map(|v| v.to_bits()));
        bits.extend(self.node_stds.iter().map(|v| v.to_bits()));
        (self.name.clone(), bits, self.events, self.trace_hash)
    }
}

/// Nearest-rank percentile of an ascending-sorted slice (0 when empty).
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Parse a sweep CSV written by [`SWEEP_CSV_SCHEMA`] (or its v2
/// predecessor) back into results. Comment lines (`#`) and the header row
/// are skipped. v2 rows (7 columns) parse with vacuous percentile/SLO
/// defaults; v3 rows carry them explicitly. Node-level columns and wall
/// clock are not in the CSV, so they come back empty/zero.
pub fn parse_sweep_csv(text: &str) -> Result<Vec<SweepResult>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with("scenario,") {
            continue;
        }
        let cols: Vec<&str> = line.split(',').collect();
        if cols.len() != 7 && cols.len() != 14 {
            return Err(format!(
                "line {}: expected 7 (v2) or 14 (v3) columns, got {}",
                lineno + 1,
                cols.len()
            ));
        }
        let f = |i: usize| -> Result<f64, String> {
            cols[i]
                .parse::<f64>()
                .map_err(|e| format!("line {}: column {}: {e}", lineno + 1, i + 1))
        };
        let hash = u64::from_str_radix(cols[6], 16)
            .map_err(|e| format!("line {}: trace hash: {e}", lineno + 1))?;
        out.push(SweepResult {
            name: cols[0].to_string(),
            makespan: f(1)?,
            mean_job_time: f(2)?,
            mean_queue_wait: f(3)?,
            max_queue_wait: f(4)?,
            node_means: Vec::new(),
            node_stds: Vec::new(),
            events: cols[5]
                .parse::<u64>()
                .map_err(|e| format!("line {}: events: {e}", lineno + 1))?,
            trace_hash: hash,
            wait_p50: if cols.len() > 7 { f(7)? } else { 0.0 },
            wait_p99: if cols.len() > 7 { f(8)? } else { 0.0 },
            wait_p999: if cols.len() > 7 { f(9)? } else { 0.0 },
            slowdown_p50: if cols.len() > 7 { f(10)? } else { 1.0 },
            slowdown_p99: if cols.len() > 7 { f(11)? } else { 1.0 },
            slowdown_p999: if cols.len() > 7 { f(12)? } else { 1.0 },
            slo_attained: if cols.len() > 7 { f(13)? } else { 1.0 },
            event_pushes: 0,
            event_stale_drops: 0,
            wall_seconds: 0.0,
        });
    }
    Ok(out)
}

/// Streaming FNV-1a 64-bit hasher — shared by the trace hash, the
/// distributed spool's payload checksums, and the family-calibration
/// per-member noise-seed derivation.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Absorb bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a 64 over one byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// FNV-1a over every job record's identifying bits. Release times are
/// deliberately excluded: they are workload inputs (already pinned by the
/// scenario seed), and `start`/`end` witness their effect — so legacy
/// all-at-t=0 scenarios keep their historical hashes.
fn trace_hash(trace: &ExecutionTrace) -> u64 {
    let mut h = Fnv1a::new();
    for j in &trace.jobs {
        h.write(&(j.job as u64).to_le_bytes());
        h.write(&(j.node as u64).to_le_bytes());
        h.write(&(j.core as u64).to_le_bytes());
        h.write(&j.start.to_bits().to_le_bytes());
        h.write(&j.end.to_bits().to_le_bytes());
    }
    h.finish()
}

/// Sharded parallel executor for scenario grids.
pub struct SweepRunner {
    workers: usize,
    shard_size: usize,
    /// Idle per-worker contexts (each parks a [`SimSession`]), reused
    /// across `run` calls exactly like the calibration evaluator's pool.
    contexts: Mutex<Vec<EvalContext>>,
}

impl Default for SweepRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepRunner {
    /// A runner using one worker per available core, shard size 1.
    pub fn new() -> Self {
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Self { workers, shard_size: 1, contexts: Mutex::new(Vec::new()) }
    }

    /// Override the worker count (1 = serial).
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        self.workers = workers;
        self
    }

    /// Override the shard size (scenarios claimed per worker grab).
    pub fn with_shard_size(mut self, shard_size: usize) -> Self {
        assert!(shard_size > 0, "need a positive shard size");
        self.shard_size = shard_size;
        self
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Execute every scenario; results are index-aligned with the input
    /// grid and bit-identical regardless of worker count or shard order.
    pub fn run(&self, scenarios: &[Scenario]) -> Vec<SweepResult> {
        self.run_map(scenarios, |_, _| {})
    }

    /// Execute one scenario on a pooled session. The TCP transport's
    /// workers and the coordinator's local drain take tasks one at a time
    /// from the sweep queue, but must produce results bit-identical to
    /// [`run`](Self::run) — so they come through the same pooled-context
    /// path.
    pub fn run_scenario(&self, sc: &Scenario) -> SweepResult {
        let mut ctx = self.checkout_context();
        let r = Self::run_one(&mut ctx, sc, 0, &|_, _| {});
        self.return_context(ctx);
        r
    }

    /// As [`run`](Self::run), additionally invoking `observe` with each
    /// scenario's index and full trace *on the worker thread* before the
    /// trace is dropped. `observe` must be deterministic-safe: it sees
    /// scenarios in claim order, not grid order.
    pub fn run_map<F>(&self, scenarios: &[Scenario], observe: F) -> Vec<SweepResult>
    where
        F: Fn(usize, &ExecutionTrace) + Sync,
    {
        let n = scenarios.len();
        let n_workers = self.workers.min(n.div_ceil(self.shard_size));
        if n_workers <= 1 {
            let mut ctx = self.checkout_context();
            let out: Vec<SweepResult> = (0..)
                .zip(scenarios)
                .map(|(i, sc)| Self::run_one(&mut ctx, sc, i, &observe))
                .collect();
            self.return_context(ctx);
            return out;
        }
        // Workers claim contiguous shards from an atomic cursor and keep
        // their `(index, result)` pairs; the pairs are slotted back into
        // grid order once every worker has joined.
        let cursor = AtomicUsize::new(0);
        let shard = self.shard_size;
        let mut slots: Vec<Option<SweepResult>> = vec![None; n];
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..n_workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut ctx = self.checkout_context();
                        let mut done = Vec::new();
                        loop {
                            let lo = cursor.fetch_add(shard, Ordering::Relaxed);
                            let Some(rest) = scenarios.get(lo..).filter(|r| !r.is_empty()) else {
                                break;
                            };
                            for (i, sc) in (lo..).zip(rest.iter().take(shard)) {
                                done.push((i, Self::run_one(&mut ctx, sc, i, &observe)));
                            }
                        }
                        self.return_context(ctx);
                        done
                    })
                })
                .collect();
            for worker in workers {
                for (i, r) in worker.join().expect("sweep worker panicked") {
                    slots[i] = Some(r);
                }
            }
        });
        slots.into_iter().map(|s| s.expect("every scenario produced a result")).collect()
    }

    /// Simulate one scenario on the worker's pooled session.
    fn run_one(
        ctx: &mut EvalContext,
        sc: &Scenario,
        index: usize,
        observe: &impl Fn(usize, &ExecutionTrace),
    ) -> SweepResult {
        let session = ctx.get_or_insert_with(SimSession::new);
        let t0 = Instant::now();
        let report =
            sc.try_run_report(session, 1).unwrap_or_else(|e| panic!("simulation failed: {e}"));
        let wall = t0.elapsed().as_secs_f64();
        observe(index, &report.trace);
        let mut r = SweepResult::from_report(&sc.name, &report);
        if sc.multisite.is_none() {
            // The session's engine ran this scenario: surface its event-
            // queue counters (multi-site runs use per-site engines that
            // are already gone; their counters stay 0).
            let st = session.engine_stats();
            r.event_pushes = st.event_pushes;
            r.event_stale_drops = st.event_stale_drops;
        }
        r.wall_seconds = wall;
        r
    }

    fn checkout_context(&self) -> EvalContext {
        self.contexts.lock().expect("context pool poisoned").pop().unwrap_or_default()
    }

    fn return_context(&self, ctx: EvalContext) {
        self.contexts.lock().expect("context pool poisoned").push(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcal_sim::ScenarioRegistry;

    fn fingerprints(rs: &[SweepResult]) -> Vec<(String, Vec<u64>, u64, u64)> {
        rs.iter().map(SweepResult::fingerprint).collect()
    }

    #[test]
    fn sweep_results_are_worker_count_invariant() {
        let grid = ScenarioRegistry::reduced().scenarios();
        let serial = SweepRunner::new().with_workers(1).run(&grid);
        let parallel = SweepRunner::new().with_workers(4).run(&grid);
        assert_eq!(serial.len(), grid.len());
        assert_eq!(fingerprints(&serial), fingerprints(&parallel));
    }

    #[test]
    fn shard_size_does_not_change_results() {
        let grid = ScenarioRegistry::reduced().scenarios();
        let a = SweepRunner::new().with_workers(3).with_shard_size(1).run(&grid);
        let b = SweepRunner::new().with_workers(3).with_shard_size(4).run(&grid);
        assert_eq!(fingerprints(&a), fingerprints(&b));
    }

    #[test]
    fn runner_pools_contexts_across_runs() {
        let grid = ScenarioRegistry::reduced().scenarios();
        let runner = SweepRunner::new().with_workers(2);
        let a = runner.run(&grid[..3]);
        // Second run reuses the parked sessions; results stay identical.
        let b = runner.run(&grid[..3]);
        assert_eq!(fingerprints(&a), fingerprints(&b));
        assert!(!runner.contexts.lock().unwrap().is_empty(), "contexts returned to the pool");
    }

    #[test]
    fn empty_grid_is_fine() {
        assert!(SweepRunner::new().run(&[]).is_empty());
        assert!(SweepRunner::new().with_workers(4).with_shard_size(3).run(&[]).is_empty());
    }

    #[test]
    fn queue_wait_metrics_surface_in_results() {
        let reg = ScenarioRegistry::reduced();
        let grid = reg.scenarios();
        let results = SweepRunner::new().with_workers(2).run(&grid);
        for r in &results {
            let is_arrival = r.name.starts_with("arrival-");
            let is_multisite = r.name.starts_with("ms-");
            let is_steady = r.name.starts_with("steady-");
            if is_arrival {
                assert!(r.mean_queue_wait > 0.0, "{}: overcommitted member must queue", r.name);
                assert!(r.max_queue_wait >= r.mean_queue_wait);
            } else if is_steady {
                // Horizon runs: streaming percentiles must be ordered
                // and the loaded pool must actually queue somewhere.
                assert!(r.max_queue_wait > 0.0, "{}: loaded pool must queue", r.name);
                assert!(r.wait_p999 >= r.wait_p50 - 1e-9, "{}", r.name);
                assert!((0.0..=1.0).contains(&r.slo_attained), "{}", r.name);
            } else if is_multisite {
                // Stage-in time counts as release-to-start wait here. The
                // mean is sum/n and may land one ulp above the max when
                // every job waits the same time, hence the tolerance.
                assert!(r.mean_queue_wait > 0.0, "{}: stage-in must show as wait", r.name);
                assert!(r.max_queue_wait >= r.mean_queue_wait * (1.0 - 1e-12));
            } else {
                assert_eq!(r.mean_queue_wait, 0.0, "{}: legacy scenarios never wait", r.name);
            }
            let row = r.csv_row();
            assert_eq!(row.len(), SweepResult::csv_headers().len());
            assert_eq!(row[3], format!("{}", r.mean_queue_wait));
        }
    }

    #[test]
    fn v3_csv_rows_round_trip_through_parse() {
        let grid = ScenarioRegistry::reduced().scenarios();
        let results = SweepRunner::new().with_workers(2).run(&grid[..6]);
        let mut text = String::new();
        text.push_str(SWEEP_CSV_SCHEMA);
        text.push('\n');
        text.push_str(&SweepResult::csv_headers().join(","));
        text.push('\n');
        for r in &results {
            text.push_str(&r.csv_row().join(","));
            text.push('\n');
        }
        let parsed = parse_sweep_csv(&text).unwrap();
        assert_eq!(parsed.len(), results.len());
        for (p, r) in parsed.iter().zip(&results) {
            assert_eq!(p.name, r.name);
            assert_eq!(p.trace_hash, r.trace_hash);
            assert_eq!(p.events, r.events);
            // f64 columns survive the text round trip exactly: csv_row
            // prints with `{}` (shortest representation that reparses
            // to the same bits).
            assert_eq!(p.wait_p999.to_bits(), r.wait_p999.to_bits(), "{}", r.name);
            assert_eq!(p.slo_attained.to_bits(), r.slo_attained.to_bits(), "{}", r.name);
        }
    }

    #[test]
    fn v2_csv_rows_still_parse_with_defaults() {
        // A canned pre-percentile artifact (the 7-column v2 layout):
        // parsing must succeed and fill the new columns with the same
        // defaults pre-v6 wire payloads decode to.
        let text = "\
# simcal sweep csv v2: scenario,makespan_s,mean_job_s,mean_wait_s,max_wait_s,events,trace_hash
scenario,makespan_s,mean_job_s,mean_wait_s,max_wait_s,events,trace_hash
cms-scsn,6799.25,1694.5,0,0,4242,00c0ffee00c0ffee

arrival-backlog,120.5,30.25,12.5,40,1234,deadbeefdeadbeef
";
        let rows = parse_sweep_csv(text).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "cms-scsn");
        assert_eq!(rows[0].trace_hash, 0x00c0_ffee_00c0_ffee);
        assert_eq!(rows[0].makespan, 6799.25);
        assert_eq!(rows[1].mean_queue_wait, 12.5);
        for r in &rows {
            assert_eq!(r.wait_p50, 0.0);
            assert_eq!(r.slowdown_p99, 1.0);
            assert_eq!(r.slo_attained, 1.0);
            assert_eq!(r.event_pushes, 0);
        }
        assert!(parse_sweep_csv("a,b,c\n").is_err(), "wrong column count is an error");
    }

    #[test]
    fn observe_sees_every_trace() {
        use std::sync::atomic::AtomicU64;
        let grid = ScenarioRegistry::reduced().scenarios();
        let seen = AtomicU64::new(0);
        let rs = SweepRunner::new().with_workers(4).run_map(&grid[..5], |i, trace| {
            assert!(!trace.jobs.is_empty());
            seen.fetch_add(1 << i, Ordering::Relaxed);
        });
        assert_eq!(seen.load(Ordering::Relaxed), 0b11111);
        assert_eq!(rs.len(), 5);
    }
}
