//! The top-level simulation loop: reusable sessions and the one-shot
//! [`simulate`] wrapper.
//!
//! A [`SimSession`] owns the engine, the scheduler, and the per-run
//! arenas. Its [`run`](SimSession::run) method clears state **without
//! freeing allocations**, so callers that evaluate many configurations —
//! the calibration framework above all — pay the arena-building cost once
//! per worker instead of once per simulation. [`simulate`] stays as the
//! thin cold-build wrapper for one-off use.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use simcal_des::{Engine, Event, Tag};
use simcal_platform::PlatformSpec;
use simcal_storage::CachePlan;
use simcal_workload::{ExecutionTrace, JobRecord, Workload};

use crate::config::SimConfig;
use crate::jobrun::{Ctx, JobRun};
use crate::resources::PlatformResources;
use crate::scheduler::Scheduler;
use crate::stream::{HorizonReport, HorizonSpec, HorizonStats};
use crate::tags;

/// A structured simulation failure.
///
/// The simulator's event vocabulary is flow completions plus job-release
/// timers; anything else is a logic error that previously crashed with
/// `unreachable!` in release builds. These variants let embedding layers
/// (calibration fleets, services) report the failure instead of aborting
/// the process.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The engine delivered a user-timer event whose tag is not a job
    /// release — the only timer kind the simulator sets. A future feature
    /// that introduces more timers must extend the event dispatch in
    /// [`SimSession::try_run`].
    UnexpectedTimer {
        /// The tag carried by the rogue timer.
        tag: Tag,
        /// Simulated time at which it fired.
        at: f64,
    },
    /// A flow completed for a job that is not running: never started, or
    /// already finished and recorded. The one flow that may outlive its
    /// job — a write-through cache write — is dropped before this check.
    OrphanFlow {
        /// The tag carried by the flow.
        tag: Tag,
        /// Simulated time at which it completed.
        at: f64,
    },
    /// The event loop drained with jobs still unfinished (a scheduling or
    /// pipelining deadlock).
    UnfinishedJobs {
        /// Jobs that did finish.
        finished: usize,
        /// Jobs in the workload.
        total: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            SimError::UnexpectedTimer { tag, at } => write!(
                f,
                "unexpected user timer (tag {tag:?}) fired at t={at}: the simulator only sets job-release timers"
            ),
            SimError::OrphanFlow { tag, at } => {
                let (kind, job) = tags::decode(tag);
                write!(f, "{kind:?} flow completed at t={at} for job {job}, which is not running")
            }
            SimError::UnfinishedJobs { finished, total } => write!(
                f,
                "simulation ended with unfinished jobs: {finished}/{total} completed (deadlock?)"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Build and start a run on its assigned slot (shared by the three
/// dispatch points: t=0 submission, release-timer dispatch, and queue
/// pops on slot release — in both the run-to-completion and horizon
/// loops).
fn start_job(
    job: usize,
    node: usize,
    core: u32,
    workload: &Workload,
    cache: &CachePlan,
    runs: &mut [Option<JobRun>],
    ctx: &mut Ctx<'_>,
) {
    let mut run =
        JobRun::new(job, node, core, &workload.jobs[job], cache, ctx.cfg.noise.compute_factor(job));
    run.begin(ctx);
    runs[job] = Some(run);
}

/// The outcome of one steady-state horizon run: the (partial) execution
/// trace of the jobs that completed within the horizon, plus the
/// streaming steady-state report.
#[derive(Debug, Clone)]
pub struct HorizonRun {
    /// Records of the jobs that completed strictly inside the horizon, in
    /// job-index order. Unlike the run-to-completion path this is allowed
    /// to be a subset of the workload.
    pub trace: ExecutionTrace,
    /// Streaming percentile / SLO / utilization summary.
    pub report: HorizonReport,
}

/// A reusable simulation context: engine + scheduler + run arenas.
///
/// ```
/// use simcal_platform::catalog;
/// use simcal_storage::CachePlan;
/// use simcal_sim::{SimConfig, SimSession};
/// use simcal_workload::scaled_cms_workload;
///
/// let workload = scaled_cms_workload(6, 4, 10e6);
/// let cache = CachePlan::new(&workload, 0.5, 42);
/// let mut session = SimSession::new();
/// // Every `run` reuses the buffers grown by the previous one.
/// for _ in 0..3 {
///     let trace = session.run(&catalog::scsn(), &workload, &cache, &SimConfig::default());
///     assert_eq!(trace.jobs.len(), 6);
/// }
/// ```
#[derive(Debug, Default)]
pub struct SimSession {
    engine: Engine,
    scheduler: Option<Scheduler>,
    runs: Vec<Option<JobRun>>,
}

impl SimSession {
    /// A fresh session with empty arenas.
    pub fn new() -> Self {
        Self::default()
    }

    /// Simulate one execution, panicking on [`SimError`] (which indicates
    /// a simulator logic error, not bad input).
    pub fn run(
        &mut self,
        platform: &PlatformSpec,
        workload: &Workload,
        cache: &CachePlan,
        config: &SimConfig,
    ) -> ExecutionTrace {
        self.try_run(platform, workload, cache, config)
            .unwrap_or_else(|e| panic!("simulation failed: {e}"))
    }

    /// Simulate one execution of `workload` on `platform` with the given
    /// initially-cached-data plan and configuration; returns the trace.
    ///
    /// The simulation is deterministic for a deterministic configuration
    /// (no noise), and deterministic given `config.noise.seed` otherwise.
    /// Reuses all internal allocations from previous runs.
    pub fn try_run(
        &mut self,
        platform: &PlatformSpec,
        workload: &Workload,
        cache: &CachePlan,
        config: &SimConfig,
    ) -> Result<ExecutionTrace, SimError> {
        let wall_start = Instant::now();
        config.validate();
        platform.validate();
        workload.validate();
        assert_eq!(
            cache.total_files(),
            workload.total_files(),
            "cache plan does not match workload"
        );

        let engine = &mut self.engine;
        engine.reset();
        engine.set_bandwidth_model(config.wan_model.to_engine());
        let resources = PlatformResources::build(engine, platform, &config.hardware);
        let cores: Vec<u32> = platform.nodes.iter().map(|n| n.cores).collect();
        let scheduler = match self.scheduler.as_mut() {
            Some(s) => {
                s.reset(&cores, config.scheduler);
                s
            }
            None => self.scheduler.insert(Scheduler::with_policy(&cores, config.scheduler)),
        };
        let mut rng = StdRng::seed_from_u64(config.noise.seed);

        self.runs.clear();
        self.runs.resize_with(workload.len(), || None);
        let runs = &mut self.runs;
        let mut records: Vec<JobRecord> = Vec::with_capacity(workload.len());

        // Submit every job released at t = 0 now (the legacy hot path —
        // with no release times this is the entire submission phase);
        // later releases arrive through engine timers, making the
        // scheduler's queue/release machinery the dispatch path.
        #[allow(clippy::needless_range_loop)] // `job` is an id, not just an index
        for job in 0..workload.len() {
            let release = config.release_time(workload.jobs[job].release);
            if release > 0.0 {
                engine.set_timer(release, tags::encode(tags::Kind::Release, job));
            } else if let Some((node, core)) = scheduler.submit(job) {
                start_job(
                    job,
                    node,
                    core,
                    workload,
                    cache,
                    runs,
                    &mut Ctx { engine, res: &resources, cfg: config, rng: &mut rng },
                );
            }
        }

        while let Some(event) = engine.next() {
            let tag = match event {
                Event::FlowCompleted { tag, .. } => tag,
                Event::TimerFired { tag, .. } => {
                    let (kind, job) = tags::decode(tag);
                    if kind != tags::Kind::Release {
                        debug_assert!(false, "unknown user timer (tag {tag:?})");
                        return Err(SimError::UnexpectedTimer { tag, at: engine.now() });
                    }
                    // The job's release instant: submit it. FCFS order is
                    // preserved because timers fire in (time, scheduling
                    // sequence) order and jobs schedule timers in index
                    // order.
                    if let Some((node, core)) = scheduler.submit(job) {
                        start_job(
                            job,
                            node,
                            core,
                            workload,
                            cache,
                            runs,
                            &mut Ctx { engine, res: &resources, cfg: config, rng: &mut rng },
                        );
                    }
                    continue;
                }
            };
            let (kind, job) = tags::decode(tag);
            let Some(run) = runs[job].as_mut() else {
                return Err(SimError::OrphanFlow { tag, at: engine.now() });
            };
            let finished = run
                .on_event(kind, &mut Ctx { engine, res: &resources, cfg: config, rng: &mut rng });
            if finished {
                let (node, core) = (run.node, run.core);
                let release = config.release_time(workload.jobs[job].release);
                records.push(JobRecord {
                    job,
                    node,
                    core,
                    release,
                    start: run.start,
                    end: run.end,
                });
                if let Some((next_job, (n_node, n_core))) = scheduler.release(node, core) {
                    start_job(
                        next_job,
                        n_node,
                        n_core,
                        workload,
                        cache,
                        runs,
                        &mut Ctx { engine, res: &resources, cfg: config, rng: &mut rng },
                    );
                }
            }
        }

        if records.len() != workload.len() {
            return Err(SimError::UnfinishedJobs {
                finished: records.len(),
                total: workload.len(),
            });
        }
        records.sort_by_key(|r| r.job);

        let trace = ExecutionTrace {
            jobs: records,
            n_nodes: platform.node_count(),
            engine_events: engine.stats().events(),
            wall_seconds: wall_start.elapsed().as_secs_f64(),
        };
        trace.validate();
        Ok(trace)
    }

    /// Simulate an open-loop steady-state horizon: run the workload's
    /// seeded arrival stream over `[0, horizon.duration)` and stop the
    /// clock there, whether or not every job finished. Queue-wait and
    /// slowdown percentiles are folded streaming (P²) in completion
    /// order; jobs still running when the horizon closes contribute their
    /// partial busy time to the utilization timeline but no percentile
    /// samples. Deterministic like [`try_run`](Self::try_run).
    pub fn try_run_horizon(
        &mut self,
        platform: &PlatformSpec,
        workload: &Workload,
        cache: &CachePlan,
        config: &SimConfig,
        horizon: &HorizonSpec,
    ) -> Result<HorizonRun, SimError> {
        let wall_start = Instant::now();
        config.validate();
        horizon.validate();
        platform.validate();
        workload.validate();
        assert_eq!(
            cache.total_files(),
            workload.total_files(),
            "cache plan does not match workload"
        );

        let engine = &mut self.engine;
        engine.reset();
        engine.set_bandwidth_model(config.wan_model.to_engine());
        let resources = PlatformResources::build(engine, platform, &config.hardware);
        let cores: Vec<u32> = platform.nodes.iter().map(|n| n.cores).collect();
        let scheduler = match self.scheduler.as_mut() {
            Some(s) => {
                s.reset(&cores, config.scheduler);
                s
            }
            None => self.scheduler.insert(Scheduler::with_policy(&cores, config.scheduler)),
        };
        let mut rng = StdRng::seed_from_u64(config.noise.seed);

        self.runs.clear();
        self.runs.resize_with(workload.len(), || None);
        let runs = &mut self.runs;
        let mut records: Vec<JobRecord> = Vec::with_capacity(workload.len());
        let mut stats = HorizonStats::new(
            horizon.duration,
            horizon.slo_wait,
            u64::from(platform.total_cores()),
        );

        #[allow(clippy::needless_range_loop)] // `job` is an id, not just an index
        for job in 0..workload.len() {
            let release = config.release_time(workload.jobs[job].release);
            if release < horizon.duration {
                stats.on_release();
            }
            if release > 0.0 {
                // Timers at or past the horizon simply never fire.
                engine.set_timer(release, tags::encode(tags::Kind::Release, job));
            } else if let Some((node, core)) = scheduler.submit(job) {
                start_job(
                    job,
                    node,
                    core,
                    workload,
                    cache,
                    runs,
                    &mut Ctx { engine, res: &resources, cfg: config, rng: &mut rng },
                );
            }
        }

        while let Some(event) = engine.next_before(horizon.duration) {
            let tag = match event {
                Event::FlowCompleted { tag, .. } => tag,
                Event::TimerFired { tag, .. } => {
                    let (kind, job) = tags::decode(tag);
                    if kind != tags::Kind::Release {
                        debug_assert!(false, "unknown user timer (tag {tag:?})");
                        return Err(SimError::UnexpectedTimer { tag, at: engine.now() });
                    }
                    if let Some((node, core)) = scheduler.submit(job) {
                        start_job(
                            job,
                            node,
                            core,
                            workload,
                            cache,
                            runs,
                            &mut Ctx { engine, res: &resources, cfg: config, rng: &mut rng },
                        );
                    }
                    continue;
                }
            };
            let (kind, job) = tags::decode(tag);
            let Some(run) = runs[job].as_mut() else {
                if kind == tags::Kind::CacheWrite {
                    // A fire-and-forget cache write that outlasted its job:
                    // the run was taken when the job was recorded, and
                    // nothing waits on the write.
                    continue;
                }
                return Err(SimError::OrphanFlow { tag, at: engine.now() });
            };
            let finished = run
                .on_event(kind, &mut Ctx { engine, res: &resources, cfg: config, rng: &mut rng });
            if finished {
                // Take the run so the post-horizon sweep only sees jobs
                // still in flight.
                let run = runs[job].take().unwrap();
                let release = config.release_time(workload.jobs[job].release);
                records.push(JobRecord {
                    job,
                    node: run.node,
                    core: run.core,
                    release,
                    start: run.start,
                    end: run.end,
                });
                stats.on_completion(release, run.start, run.end);
                if let Some((next_job, (n_node, n_core))) = scheduler.release(run.node, run.core) {
                    start_job(
                        next_job,
                        n_node,
                        n_core,
                        workload,
                        cache,
                        runs,
                        &mut Ctx { engine, res: &resources, cfg: config, rng: &mut rng },
                    );
                }
            }
        }

        // Jobs caught mid-run by the closing horizon: partial busy credit.
        for run in runs.iter().flatten() {
            stats.on_busy_interval(run.start, horizon.duration);
        }

        records.sort_by_key(|r| r.job);
        let trace = ExecutionTrace {
            jobs: records,
            n_nodes: platform.node_count(),
            engine_events: engine.stats().events(),
            wall_seconds: wall_start.elapsed().as_secs_f64(),
        };
        trace.validate();
        Ok(HorizonRun { trace, report: stats.finish() })
    }

    /// Kernel statistics of the most recent run (component-vs-global solve
    /// counters and event totals).
    pub fn engine_stats(&self) -> simcal_des::Stats {
        self.engine.stats()
    }
}

/// Simulate one execution of `workload` on `platform` with the given
/// initially-cached-data plan and configuration; returns the trace.
///
/// One-shot wrapper over [`SimSession`]: builds a fresh session, runs it
/// once, and drops it. Callers evaluating many configurations should hold
/// a session instead and amortize the arena building.
pub fn simulate(
    platform: &PlatformSpec,
    workload: &Workload,
    cache: &CachePlan,
    config: &SimConfig,
) -> ExecutionTrace {
    SimSession::new().run(platform, workload, cache, config)
}

/// As [`simulate`], but reporting simulator logic errors as [`SimError`]
/// instead of panicking.
pub fn try_simulate(
    platform: &PlatformSpec,
    workload: &Workload,
    cache: &CachePlan,
    config: &SimConfig,
) -> Result<ExecutionTrace, SimError> {
    SimSession::new().try_run(platform, workload, cache, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcal_platform::{catalog, HardwareParams};
    use simcal_storage::XRootDConfig;
    use simcal_units as units;
    use simcal_workload::{scaled_cms_workload, WorkloadSpec};

    fn small_workload() -> Workload {
        scaled_cms_workload(6, 4, 10e6)
    }

    fn config() -> SimConfig {
        let mut hw = HardwareParams::defaults();
        hw.core_speed = units::mflops(1970.0);
        hw.disk_bw = units::mbytes_per_sec(17.0);
        hw.page_cache_bw = units::gbytes_per_sec(10.0);
        hw.wan_bw = units::mbps(1150.0);
        SimConfig::new(hw, XRootDConfig::new(5e6, 1e6))
    }

    #[test]
    fn all_jobs_complete_with_positive_durations() {
        let w = small_workload();
        let cache = CachePlan::new(&w, 0.5, 1);
        let trace = simulate(&catalog::scsn(), &w, &cache, &config());
        assert_eq!(trace.jobs.len(), 6);
        for j in &trace.jobs {
            assert!(j.duration() > 0.0);
            assert_eq!(j.start, 0.0, "48-core site: every job starts at t=0");
        }
    }

    #[test]
    fn deterministic_without_noise() {
        let w = small_workload();
        let cache = CachePlan::new(&w, 0.3, 1);
        let a = simulate(&catalog::fcsn(), &w, &cache, &config());
        let b = simulate(&catalog::fcsn(), &w, &cache, &config());
        assert_eq!(a.jobs, b.jobs);
    }

    #[test]
    fn session_reuse_reproduces_cold_build_traces() {
        // The load-bearing property of SimSession: a reused session is
        // bit-identical to a cold build, across different platforms,
        // cache plans, and hardware configurations.
        let w = small_workload();
        let mut session = SimSession::new();
        let cfgs = [config(), {
            let mut c = config();
            c.hardware.wan_bw = units::mbps(5000.0);
            c
        }];
        for cfg in &cfgs {
            for icd in [0.0, 0.5, 1.0] {
                let cache = CachePlan::new(&w, icd, 3);
                for platform in [catalog::scsn(), catalog::fcfn()] {
                    let cold = simulate(&platform, &w, &cache, cfg);
                    let warm = session.run(&platform, &w, &cache, cfg);
                    assert_eq!(cold.jobs, warm.jobs, "icd={icd}");
                    assert_eq!(cold.engine_events, warm.engine_events);
                }
            }
        }
    }

    #[test]
    fn session_reuse_with_noise_matches_cold_build() {
        let w = small_workload();
        let cache = CachePlan::new(&w, 0.7, 2);
        let mut cfg = config();
        cfg.noise.read_jitter_sigma = 0.25;
        cfg.noise.seed = 11;
        let mut session = SimSession::new();
        let warm1 = session.run(&catalog::scsn(), &w, &cache, &cfg);
        let warm2 = session.run(&catalog::scsn(), &w, &cache, &cfg);
        let cold = simulate(&catalog::scsn(), &w, &cache, &cfg);
        assert_eq!(warm1.jobs, cold.jobs, "seeded noise restarts per run");
        assert_eq!(warm1.jobs, warm2.jobs);
    }

    #[test]
    fn compute_bound_job_matches_analytic_time() {
        // One job, one cached file, fast everything except the core:
        // duration ~ file * fpb / core_speed + output time (tiny).
        let w = WorkloadSpec::constant(1, 1, 100e6, 10.0, 1.0).generate(0);
        let cache = CachePlan::new(&w, 1.0, 0);
        let mut cfg = config();
        cfg.hardware.core_speed = 1e9;
        cfg.hardware.page_cache_bw = 1e12;
        cfg.granularity = XRootDConfig::new(1e6, 1e5);
        let trace = simulate(&catalog::fcfn(), &w, &cache, &cfg);
        let expected = 100e6 * 10.0 / 1e9; // 1 s of compute
        let d = trace.jobs[0].duration();
        // Pipeline bubble: one block read at the front; output of 1 byte.
        assert!(
            d >= expected && d < expected * 1.05,
            "duration {d} not within 5% above {expected}"
        );
    }

    #[test]
    fn io_bound_job_matches_analytic_time() {
        // One job, one cached file on an SC platform: disk-bound.
        let w = WorkloadSpec::constant(1, 1, 170e6, 0.001, 1.0).generate(0);
        let cache = CachePlan::new(&w, 1.0, 0);
        let mut cfg = config();
        cfg.hardware.disk_bw = 17e6; // 10 s to read the file
        cfg.granularity = XRootDConfig::new(10e6, 1e6);
        let trace = simulate(&catalog::scfn(), &w, &cache, &cfg);
        let d = trace.jobs[0].duration();
        assert!((10.0..10.5).contains(&d), "duration {d} should be ~10 s");
    }

    #[test]
    fn remote_job_is_wan_bound_on_slow_network() {
        // ICD 0: everything crosses the 1.15 Gbps WAN.
        let w = WorkloadSpec::constant(1, 2, 143.75e6, 0.001, 1.0).generate(0);
        let cache = CachePlan::new(&w, 0.0, 0);
        let cfg = config(); // wan = 1150 Mbps = 143.75 MB/s
        let trace = simulate(&catalog::scsn(), &w, &cache, &cfg);
        let d = trace.jobs[0].duration();
        // 287.5 MB over 143.75 MB/s = 2 s + pipeline bubbles.
        assert!((2.0..2.3).contains(&d), "duration {d} should be ~2 s");
    }

    #[test]
    fn higher_icd_shifts_load_from_wan_to_disk() {
        let w = small_workload();
        let cfg = config();
        let t0 = simulate(&catalog::scsn(), &w, &CachePlan::new(&w, 0.0, 1), &cfg);
        let t1 = simulate(&catalog::scsn(), &w, &CachePlan::new(&w, 1.0, 1), &cfg);
        // On SCSN the 17 MB/s per-node HDD shared by concurrent jobs is far
        // slower than the WAN share: fully-cached runs are *slower* (the
        // paper's SC-platform regime).
        assert!(t1.makespan() > t0.makespan(), "icd1 {} <= icd0 {}", t1.makespan(), t0.makespan());
    }

    #[test]
    fn fc_platform_speeds_up_cached_reads() {
        let w = small_workload();
        let cfg = config();
        let sc = simulate(&catalog::scsn(), &w, &CachePlan::new(&w, 1.0, 1), &cfg);
        let fc = simulate(&catalog::fcsn(), &w, &CachePlan::new(&w, 1.0, 1), &cfg);
        assert!(fc.makespan() < sc.makespan() / 2.0);
    }

    #[test]
    fn event_count_scales_with_granularity() {
        let w = small_workload();
        let cache = CachePlan::new(&w, 0.0, 1);
        let mut coarse = config();
        coarse.granularity = XRootDConfig::new(10e6, 2e6);
        let mut fine = config();
        fine.granularity = XRootDConfig::new(2.5e6, 0.5e6);
        let tc = simulate(&catalog::scsn(), &w, &cache, &coarse);
        let tf = simulate(&catalog::scsn(), &w, &cache, &fine);
        let ratio = tf.engine_events as f64 / tc.engine_events as f64;
        // 4x finer granularity in both B and b -> ~4x the events.
        assert!(ratio > 3.0 && ratio < 5.0, "ratio {ratio}");
    }

    #[test]
    fn queued_jobs_run_after_cores_free() {
        // 2 jobs on a 1-core platform must serialize.
        use simcal_platform::PlatformBuilder;
        let p = PlatformBuilder::new("tiny").node("n", 1).wan_gbps(10.0).build();
        let w = WorkloadSpec::constant(2, 1, 10e6, 1.0, 1.0).generate(0);
        let cache = CachePlan::new(&w, 1.0, 0);
        let trace = simulate(&p, &w, &cache, &config());
        assert_eq!(trace.jobs.len(), 2);
        let (a, b) = (&trace.jobs[0], &trace.jobs[1]);
        assert!(b.start >= a.end - 1e-9, "second job must wait for the core");
        assert_eq!(b.queue_wait(), b.start, "released at 0, waited the whole time");
    }

    #[test]
    fn released_job_starts_exactly_at_its_release_on_a_free_platform() {
        // 2 cores, 2 jobs, second released long after the first finishes:
        // no queueing, the start time IS the release time.
        use simcal_platform::PlatformBuilder;
        let p = PlatformBuilder::new("tiny").node("n", 2).wan_gbps(10.0).build();
        let mut w = WorkloadSpec::constant(2, 1, 10e6, 1.0, 1.0).generate(0);
        w.jobs[1].release = 1e4;
        let cache = CachePlan::new(&w, 1.0, 0);
        let trace = simulate(&p, &w, &cache, &config());
        assert_eq!(trace.jobs[0].start, 0.0);
        assert_eq!(trace.jobs[1].start, 1e4);
        assert_eq!(trace.jobs[1].release, 1e4);
        assert_eq!(trace.jobs[1].queue_wait(), 0.0);
        assert_eq!(trace.mean_queue_wait(), 0.0);
    }

    #[test]
    fn released_job_queues_on_a_busy_platform() {
        // 1 core; the second job is released mid-flight of the first, so
        // it must wait from its release until the core frees.
        use simcal_platform::PlatformBuilder;
        let p = PlatformBuilder::new("tiny").node("n", 1).wan_gbps(10.0).build();
        let mut w = WorkloadSpec::constant(2, 1, 100e6, 10.0, 1.0).generate(0);
        w.jobs[1].release = 0.01;
        let cache = CachePlan::new(&w, 1.0, 0);
        let trace = simulate(&p, &w, &cache, &config());
        let (a, b) = (&trace.jobs[0], &trace.jobs[1]);
        assert!(a.end > 0.01, "first job must still be running at the release");
        assert!((b.start - a.end).abs() < 1e-9, "queued job inherits the freed core");
        assert!((b.queue_wait() - (a.end - 0.01)).abs() < 1e-9);
        assert!(trace.mean_queue_wait() > 0.0);
        assert_eq!(trace.max_queue_wait(), b.queue_wait());
    }

    #[test]
    fn zero_releases_match_the_legacy_path_exactly() {
        // Explicit all-zero release times must take the direct-submission
        // path: traces (including event counts — timers would add events)
        // are bit-identical to the same workload without the field set.
        let w = small_workload();
        assert!(!w.has_releases());
        let cache = CachePlan::new(&w, 0.5, 1);
        let base = simulate(&catalog::scsn(), &w, &cache, &config());
        let mut explicit = w.clone();
        for j in &mut explicit.jobs {
            j.release = 0.0;
        }
        let again = simulate(&catalog::scsn(), &explicit, &cache, &config());
        assert_eq!(base.jobs, again.jobs);
        assert_eq!(base.engine_events, again.engine_events);
    }

    #[test]
    fn release_time_scale_compresses_arrivals() {
        use simcal_platform::PlatformBuilder;
        let p = PlatformBuilder::new("tiny").node("n", 2).wan_gbps(10.0).build();
        let mut w = WorkloadSpec::constant(2, 1, 10e6, 1.0, 1.0).generate(0);
        w.jobs[1].release = 1e4;
        let cache = CachePlan::new(&w, 1.0, 0);
        let mut cfg = config();
        cfg.release_time_scale = 0.5;
        let trace = simulate(&p, &w, &cache, &cfg);
        assert_eq!(trace.jobs[1].start, 5e3);
        assert_eq!(trace.jobs[1].release, 5e3, "records carry the effective release");
        // Scale 0 collapses to the legacy everything-at-zero behaviour.
        cfg.release_time_scale = 0.0;
        let collapsed = simulate(&p, &w, &cache, &cfg);
        assert_eq!(collapsed.jobs[1].start, 0.0);
        assert_eq!(collapsed.jobs[1].release, 0.0);
    }

    #[test]
    fn staggered_releases_dispatch_fcfs() {
        // 1 core, 4 jobs released in order with gaps smaller than the
        // service time: dispatch (start) order must follow release order.
        use simcal_platform::PlatformBuilder;
        let p = PlatformBuilder::new("tiny").node("n", 1).wan_gbps(10.0).build();
        let mut w = WorkloadSpec::constant(4, 1, 100e6, 10.0, 1.0).generate(0);
        for (i, j) in w.jobs.iter_mut().enumerate() {
            j.release = i as f64 * 0.005;
        }
        let cache = CachePlan::new(&w, 1.0, 0);
        let trace = simulate(&p, &w, &cache, &config());
        for pair in trace.jobs.windows(2) {
            assert!(
                pair[0].start < pair[1].start,
                "job {} must start before job {}",
                pair[0].job,
                pair[1].job
            );
            assert!(pair[1].start >= pair[0].end - 1e-9, "single core serializes");
        }
    }

    #[test]
    fn noise_perturbs_but_seed_reproduces() {
        let w = small_workload();
        let cache = CachePlan::new(&w, 1.0, 1);
        let mut cfg = config();
        cfg.noise.read_jitter_sigma = 0.3;
        cfg.noise.seed = 9;
        let a = simulate(&catalog::scsn(), &w, &cache, &cfg);
        let b = simulate(&catalog::scsn(), &w, &cache, &cfg);
        assert_eq!(a.jobs, b.jobs);
        cfg.noise.seed = 10;
        let c = simulate(&catalog::scsn(), &w, &cache, &cfg);
        assert_ne!(a.jobs, c.jobs);
    }

    #[test]
    fn sim_error_displays_helpfully() {
        let e = SimError::UnfinishedJobs { finished: 3, total: 5 };
        assert!(e.to_string().contains("3/5"));
        let t = SimError::UnexpectedTimer { tag: Tag(7), at: 1.5 };
        assert!(t.to_string().contains("timer"));
        let o = SimError::OrphanFlow { tag: tags::encode(tags::Kind::NetChunk, 4), at: 2.0 };
        assert!(o.to_string().contains("NetChunk") && o.to_string().contains("job 4"));
    }
}
