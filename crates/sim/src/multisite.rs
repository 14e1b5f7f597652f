//! Multi-site simulation: one [`Engine`] per site under conservative
//! parallel synchronization.
//!
//! A [`simcal_platform::MultiSiteSpec`] couples N sites **only** through
//! WAN links with strictly positive latency, so each site runs its own
//! engine as one [`simcal_des::Partition`] and the set executes under the
//! null-message protocol (`simcal_des::partition`) — sequentially or
//! across threads, with bit-identical results at any shard count.
//!
//! ## Execution model
//!
//! Jobs are assigned round-robin over the compute sites (job `j` runs on
//! `compute_sites[j % k]`) and scheduled by each site's own FCFS
//! scheduler. Cross-site data movement is **store-and-forward staging**,
//! so every fluid flow lives wholly inside one engine:
//!
//! * at a job's release, its non-cached input bytes are requested from
//!   the storage hub (`StageMsg::InReq`, delivered after the shortest-
//!   path WAN latency); the hub reads them through its storage service
//!   and WAN interface (one *serve* flow), ships them back
//!   (`StageMsg::InData`), and the site absorbs them through its WAN
//!   interface (one *deliver* flow) into the site-level store — only then
//!   is the job submitted to the site scheduler;
//! * the job then executes **fully locally** (its inner cache plan marks
//!   every file cached: block reads hit the node-local device, never the
//!   WAN);
//! * at job finish its output replicates back asynchronously
//!   (`StageMsg::Out` → one hub *ingest* flow); job records end at the
//!   compute finish, matching the staged execution model where output
//!   replication is off the critical path.
//!
//! Jobs whose inputs are fully cached (and released at a site) skip the
//! staging round-trip entirely.
//!
//! ## Determinism
//!
//! Sites interact only via timestamped [`Envelope`]s. Each site processes
//! its pending messages and engine events in a canonical order — messages
//! by `(time, src, seq)` and *before* engine events at the same instant —
//! so a site's evolution is a pure function of the message multiset it
//! receives, which both partition runners reproduce exactly. The traces
//! (and summed engine event counts) are therefore bit-identical at any
//! shard count; only the [`SyncStats`] protocol counters vary.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use simcal_des::{run_parallel, run_sequential, Engine, Envelope, Event, Partition, SyncStats};
use simcal_platform::MultiSiteSpec;
use simcal_storage::CachePlan;
use simcal_workload::{ExecutionTrace, JobRecord, JobSpec, Workload};

use crate::config::SimConfig;
use crate::jobrun::{Ctx, JobRun};
use crate::resources::PlatformResources;
use crate::scheduler::Scheduler;
use crate::simulator::SimError;
use crate::tags::{self, StageKind, STAGE_BIT};

/// Cross-site staging messages (the only inter-engine coupling).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StageMsg {
    /// Compute site -> hub: stage in a job's non-cached input bytes.
    InReq {
        /// Global job index.
        job: usize,
        /// Bytes to stage.
        bytes: f64,
    },
    /// Hub -> compute site: the served bytes arrive at the site edge.
    InData {
        /// Global job index.
        job: usize,
        /// Bytes served.
        bytes: f64,
    },
    /// Compute site -> hub: replicate a finished job's output.
    Out {
        /// Global job index.
        job: usize,
        /// Output bytes.
        bytes: f64,
    },
}

/// A delivered-but-unprocessed message, ordered by the canonical
/// `(time, src, seq)` triple (earliest first under `Reverse`).
#[derive(Debug)]
struct PendingMsg {
    time: f64,
    src: usize,
    seq: u64,
    payload: StageMsg,
}

impl PartialEq for PendingMsg {
    fn eq(&self, other: &Self) -> bool {
        (self.src, self.seq) == (other.src, other.seq)
    }
}
impl Eq for PendingMsg {}
impl PartialOrd for PendingMsg {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingMsg {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then_with(|| self.src.cmp(&other.src))
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// One site of a multi-site simulation: an engine plus the site's domain
/// state, implementing [`Partition`] for the conservative runners.
struct SiteSim<'a> {
    /// This site's index in the [`MultiSiteSpec`].
    site: usize,
    /// The storage hub's site index.
    hub: usize,
    engine: Engine,
    res: PlatformResources,
    cfg: &'a SimConfig,
    workload: &'a Workload,
    /// Shortest-path message latency from this site to every site.
    lat: Vec<f64>,
    /// Round-robin job owner table (`job -> site`), shared by all sites.
    site_of: &'a [usize],
    /// Bytes each job must stage in (input bytes not initially cached
    /// under the scenario's cache plan). Indexed by global job id.
    stage_in: &'a [f64],
    /// Messages delivered by the runner, awaiting processing.
    pending: BinaryHeap<Reverse<PendingMsg>>,

    // ---- compute-site state (empty/None on the hub) ----
    scheduler: Option<Scheduler>,
    /// Zero-output clones of the owned jobs' specs: the inner run covers
    /// read+compute only; output replication is the staging layer's job.
    specs: Vec<Option<JobSpec>>,
    /// All-files-cached plan driving the inner runs (local reads only).
    inner_plan: &'a CachePlan,
    runs: Vec<Option<JobRun>>,
    records: Vec<JobRecord>,
    owned_jobs: usize,
    rng: StdRng,

    // ---- hub state ----
    /// Stage-in requests + stage-outs the hub will receive in total
    /// (computable at setup), and how many have arrived. Grounds the
    /// hub's `done()` promise.
    expected_inbound: u64,
    seen_inbound: u64,
}

impl<'a> SiteSim<'a> {
    #[allow(clippy::too_many_arguments)]
    fn build(
        ms: &MultiSiteSpec,
        site: usize,
        workload: &'a Workload,
        site_of: &'a [usize],
        stage_in: &'a [f64],
        inner_plan: &'a CachePlan,
        cfg: &'a SimConfig,
        lat: Vec<f64>,
    ) -> Self {
        let mut engine = Engine::new();
        engine.set_bandwidth_model(cfg.wan_model.to_engine());
        let res = PlatformResources::build(&mut engine, &ms.sites[site], &cfg.hardware);
        let is_hub = site == ms.storage_site;

        let mut scheduler = None;
        let mut specs: Vec<Option<JobSpec>> = Vec::new();
        let mut owned_jobs = 0;
        let mut expected_inbound = 0;
        if is_hub {
            for (job, spec) in workload.jobs.iter().enumerate() {
                expected_inbound += u64::from(stage_in[job] > 0.0);
                expected_inbound += u64::from(spec.output_bytes > 0.0);
            }
        } else {
            let cores: Vec<u32> = ms.sites[site].nodes.iter().map(|n| n.cores).collect();
            scheduler = Some(Scheduler::with_policy(&cores, cfg.scheduler));
            specs.resize_with(workload.len(), || None);
            for (job, spec) in workload.jobs.iter().enumerate() {
                if site_of[job] == site {
                    let mut local = spec.clone();
                    local.output_bytes = 0.0;
                    specs[job] = Some(local);
                    owned_jobs += 1;
                    // Uniform release timers (even at t = 0) keep the
                    // dispatch order a pure function of simulated time.
                    engine.set_timer(
                        cfg.release_time(spec.release),
                        tags::encode(tags::Kind::Release, job),
                    );
                }
            }
        }

        let mut runs = Vec::new();
        runs.resize_with(if is_hub { 0 } else { workload.len() }, || None);
        Self {
            site,
            hub: ms.storage_site,
            engine,
            res,
            cfg,
            workload,
            lat,
            site_of,
            stage_in,
            pending: BinaryHeap::new(),
            scheduler,
            specs,
            inner_plan,
            runs,
            records: Vec::with_capacity(owned_jobs),
            owned_jobs,
            rng: StdRng::seed_from_u64(
                cfg.noise.seed ^ (site as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            expected_inbound,
            seen_inbound: 0,
        }
    }

    /// Queue a message to `dst`, delivered after the shortest-path WAN
    /// latency (the runner stamps the sequence number).
    fn send(&self, dst: usize, payload: StageMsg, out: &mut Vec<Envelope<StageMsg>>) {
        out.push(Envelope {
            time: self.engine.now() + self.lat[dst],
            src: self.site,
            dst,
            seq: 0,
            payload,
        });
    }

    /// A job's release instant arrived: stage its inputs in, or submit it
    /// directly when everything it reads is already cached at the site.
    fn on_release(&mut self, job: usize, out: &mut Vec<Envelope<StageMsg>>) {
        let bytes = self.stage_in[job];
        if bytes > 0.0 {
            self.send(self.hub, StageMsg::InReq { job, bytes }, out);
        } else {
            self.submit(job);
        }
    }

    /// Submit a job to the site scheduler, starting it if a slot is free.
    fn submit(&mut self, job: usize) {
        let slot = self.scheduler.as_mut().expect("hub schedules no jobs").submit(job);
        if let Some((node, core)) = slot {
            self.start_run(job, node, core);
        }
    }

    fn start_run(&mut self, job: usize, node: usize, core: u32) {
        let spec = self.specs[job].as_ref().expect("job owned by this site");
        let mut run =
            JobRun::new(job, node, core, spec, self.inner_plan, self.cfg.noise.compute_factor(job));
        run.begin(&mut Ctx {
            engine: &mut self.engine,
            res: &self.res,
            cfg: self.cfg,
            rng: &mut self.rng,
        });
        self.runs[job] = Some(run);
    }

    /// Process one delivered staging message (the engine clock already
    /// stands at its delivery time). Replies go out later, when the flow
    /// the message starts completes — never directly from here.
    fn handle_msg(&mut self, msg: PendingMsg) {
        match msg.payload {
            StageMsg::InReq { job, bytes } => {
                // Hub: serve the bytes through storage + WAN interface.
                self.seen_inbound += 1;
                let mut spec = simcal_des::FlowSpec::new(
                    bytes,
                    &[self.res.storage, self.res.wan],
                    tags::encode_stage(StageKind::Serve, job),
                );
                if let Some(cap) = self.cfg.per_connection_cap {
                    spec = spec.with_cap(cap);
                }
                self.engine.start_flow(spec);
            }
            StageMsg::InData { job, bytes } => {
                // Compute site: absorb the staged bytes at the site edge.
                self.engine.start_flow(simcal_des::FlowSpec::new(
                    bytes,
                    &[self.res.wan],
                    tags::encode_stage(StageKind::Deliver, job),
                ));
            }
            StageMsg::Out { job, bytes } => {
                // Hub: ingest a replicated output.
                self.seen_inbound += 1;
                let mut spec = simcal_des::FlowSpec::new(
                    bytes,
                    &[self.res.wan, self.res.storage],
                    tags::encode_stage(StageKind::Ingest, job),
                );
                if let Some(cap) = self.cfg.per_connection_cap {
                    spec = spec.with_cap(cap);
                }
                self.engine.start_flow(spec);
            }
        }
    }

    /// Process one engine event.
    fn handle_event(&mut self, event: Event, out: &mut Vec<Envelope<StageMsg>>) {
        let tag = match event {
            Event::TimerFired { tag, .. } => {
                let (kind, job) = tags::decode(tag);
                assert_eq!(kind, tags::Kind::Release, "multisite sets only release timers");
                self.on_release(job, out);
                return;
            }
            Event::FlowCompleted { tag, .. } => tag,
        };
        if tag.0 & STAGE_BIT != 0 {
            let (kind, job) = tags::decode_stage(tag);
            match kind {
                StageKind::Serve => {
                    // Hub: served bytes head back to the job's site.
                    let bytes = self.stage_in[job];
                    self.send(self.site_of[job], StageMsg::InData { job, bytes }, out);
                }
                StageKind::Ingest => {} // stage-out fully absorbed
                StageKind::Deliver => self.submit(job),
            }
            return;
        }
        let (kind, job) = tags::decode(tag);
        let run =
            self.runs[job].as_mut().unwrap_or_else(|| panic!("event for unstarted job {job}"));
        let finished = run.on_event(
            kind,
            &mut Ctx {
                engine: &mut self.engine,
                res: &self.res,
                cfg: self.cfg,
                rng: &mut self.rng,
            },
        );
        if finished {
            let (node, core, start, end) = (run.node, run.core, run.start, run.end);
            let spec = &self.workload.jobs[job];
            self.records.push(JobRecord {
                job,
                node,
                core,
                release: self.cfg.release_time(spec.release),
                start,
                end,
            });
            if spec.output_bytes > 0.0 {
                self.send(self.hub, StageMsg::Out { job, bytes: spec.output_bytes }, out);
            }
            if let Some((next_job, (n_node, n_core))) =
                self.scheduler.as_mut().expect("hub runs no jobs").release(node, core)
            {
                self.start_run(next_job, n_node, n_core);
            }
        }
    }
}

impl Partition for SiteSim<'_> {
    type Msg = StageMsg;

    fn next_time(&mut self) -> f64 {
        let msg = self.pending.peek().map_or(f64::INFINITY, |Reverse(m)| m.time);
        msg.min(self.engine.peek_time().unwrap_or(f64::INFINITY))
    }

    fn advance(&mut self, bound: f64, out: &mut Vec<Envelope<StageMsg>>) {
        loop {
            let msg_t = self.pending.peek().map_or(f64::INFINITY, |Reverse(m)| m.time);
            let eng_t = self.engine.peek_time().unwrap_or(f64::INFINITY);
            // `>=` also stops the INF-vs-INF case (nothing pending at all).
            if msg_t.min(eng_t) >= bound {
                break;
            }
            if msg_t <= eng_t {
                // Canonical tie rule: messages before same-instant engine
                // events, in (time, src, seq) order.
                let Reverse(msg) = self.pending.pop().expect("peeked");
                self.engine.advance_clock(msg.time);
                self.handle_msg(msg);
            } else if let Some(ev) = self.engine.next_before(msg_t.min(bound)) {
                self.handle_event(ev, out);
            }
            // next_before may return None after settling internal
            // activations; the loop re-peeks with the updated frontier.
        }
    }

    fn deliver(&mut self, env: Envelope<StageMsg>) {
        self.pending.push(Reverse(PendingMsg {
            time: env.time,
            src: env.src,
            seq: env.seq,
            payload: env.payload,
        }));
    }

    fn done(&mut self) -> bool {
        let idle = self.pending.is_empty() && self.engine.peek_time().is_none();
        if self.site == self.hub {
            idle && self.seen_inbound == self.expected_inbound
        } else {
            idle && self.records.len() == self.owned_jobs
        }
    }
}

/// Run a workload on a multi-site platform with `shards` parallel engine
/// shards, also returning the synchronization-protocol counters.
///
/// The trace is **bit-identical for every `shards` value** (1 = the
/// sequential reference driver); the [`SyncStats`] are diagnostics and
/// vary with sharding.
pub fn try_simulate_multisite_with_stats(
    ms: &MultiSiteSpec,
    workload: &Workload,
    cache: &CachePlan,
    config: &SimConfig,
    shards: usize,
) -> Result<(ExecutionTrace, SyncStats), SimError> {
    let wall_start = Instant::now();
    ms.validate();
    config.validate();
    workload.validate();
    assert_eq!(cache.total_files(), workload.total_files(), "cache plan does not match workload");

    let compute_sites = ms.compute_sites();
    let site_of: Vec<usize> =
        (0..workload.len()).map(|j| compute_sites[j % compute_sites.len()]).collect();
    let stage_in: Vec<f64> = (0..workload.len())
        .map(|j| {
            let total: f64 = workload.jobs[j].input_files.iter().map(|f| f.size).sum();
            (total - cache.cached_bytes(workload, j)).max(0.0)
        })
        .collect();
    // The inner (per-site) runs read every file from the local tier; the
    // non-cached bytes were already staged in at the site level.
    let inner_plan = CachePlan::new(workload, 1.0, 0);
    let lat = ms.path_latencies();

    let mut sites: Vec<SiteSim<'_>> = (0..ms.site_count())
        .map(|s| {
            SiteSim::build(
                ms,
                s,
                workload,
                &site_of,
                &stage_in,
                &inner_plan,
                config,
                lat[s].clone(),
            )
        })
        .collect();

    let lookahead = ms.lookahead();
    let stats = if shards <= 1 {
        run_sequential(&mut sites, lookahead)
    } else {
        let (back, stats) = run_parallel(sites, shards, lookahead);
        sites = back;
        stats
    };

    let mut records: Vec<JobRecord> = Vec::with_capacity(workload.len());
    let mut engine_events = 0;
    for site in &mut sites {
        engine_events += site.engine.stats().events();
        let offset = if site.site == ms.storage_site { 0 } else { ms.node_offset(site.site) };
        for mut r in site.records.drain(..) {
            r.node += offset;
            records.push(r);
        }
    }
    if records.len() != workload.len() {
        return Err(SimError::UnfinishedJobs { finished: records.len(), total: workload.len() });
    }
    records.sort_by_key(|r| r.job);

    let trace = ExecutionTrace {
        jobs: records,
        n_nodes: ms.compute_node_count(),
        engine_events,
        wall_seconds: wall_start.elapsed().as_secs_f64(),
    };
    trace.validate();
    Ok((trace, stats))
}

/// As [`try_simulate_multisite_with_stats`], dropping the protocol
/// counters.
pub fn try_simulate_multisite(
    ms: &MultiSiteSpec,
    workload: &Workload,
    cache: &CachePlan,
    config: &SimConfig,
    shards: usize,
) -> Result<ExecutionTrace, SimError> {
    try_simulate_multisite_with_stats(ms, workload, cache, config, shards).map(|(t, _)| t)
}

/// Panicking wrapper over [`try_simulate_multisite`] (a [`SimError`] is a
/// simulator logic error, not bad input).
pub fn simulate_multisite(
    ms: &MultiSiteSpec,
    workload: &Workload,
    cache: &CachePlan,
    config: &SimConfig,
    shards: usize,
) -> ExecutionTrace {
    try_simulate_multisite(ms, workload, cache, config, shards)
        .unwrap_or_else(|e| panic!("multi-site simulation failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcal_platform::{MultiSiteBuilder, PlatformBuilder, PlatformSpec};
    use simcal_units as units;
    use simcal_workload::WorkloadSpec;

    fn tiny_site(name: &str, cores: u32) -> PlatformSpec {
        PlatformBuilder::new(name).node("n0", cores).node("n1", cores).wan_gbps(10.0).build()
    }

    fn star(compute: usize) -> MultiSiteSpec {
        let mut b = MultiSiteBuilder::new("test-star")
            .site(PlatformBuilder::new("hub").node("h", 1).wan_gbps(10.0).build());
        for i in 0..compute {
            b = b.site(tiny_site(&format!("c{i}"), 2)).link(0, i + 1, units::gbps(10.0), 0.010);
        }
        b.build()
    }

    fn workload(jobs: usize) -> Workload {
        WorkloadSpec::constant(jobs, 3, 20e6, 4.0, 2e6).generate(7)
    }

    fn cfg() -> SimConfig {
        SimConfig::default()
    }

    #[test]
    fn all_jobs_complete_and_spread_over_sites() {
        let ms = star(3);
        let w = workload(9);
        let cache = CachePlan::new(&w, 0.5, 1);
        let trace = simulate_multisite(&ms, &w, &cache, &cfg(), 1);
        assert_eq!(trace.jobs.len(), 9);
        assert_eq!(trace.n_nodes, 6);
        // Round-robin: jobs 0,3,6 on site 1 (nodes 0-1), 1,4,7 on site 2
        // (nodes 2-3), 2,5,8 on site 3 (nodes 4-5).
        for r in &trace.jobs {
            let site_ord = r.job % 3;
            assert!(
                r.node / 2 == site_ord,
                "job {} on node {} (expected site ordinal {site_ord})",
                r.job,
                r.node
            );
        }
    }

    #[test]
    fn traces_are_bit_identical_at_every_shard_count() {
        let ms = star(4);
        let w = workload(12);
        let cache = CachePlan::new(&w, 0.4, 3);
        let (reference, _) = try_simulate_multisite_with_stats(&ms, &w, &cache, &cfg(), 1).unwrap();
        for shards in [2, 3, 4, 5, 8] {
            let (t, stats) =
                try_simulate_multisite_with_stats(&ms, &w, &cache, &cfg(), shards).unwrap();
            assert_eq!(t.jobs, reference.jobs, "shards={shards}");
            assert_eq!(t.engine_events, reference.engine_events, "shards={shards}");
            assert!(stats.shards >= 1);
        }
    }

    #[test]
    fn fully_cached_jobs_start_at_release() {
        let ms = star(2);
        let w = workload(4);
        let cache = CachePlan::new(&w, 1.0, 0); // nothing to stage
        let trace = simulate_multisite(&ms, &w, &cache, &cfg(), 1);
        for r in &trace.jobs {
            assert_eq!(r.start, 0.0, "job {} should start at its release", r.job);
        }
    }

    #[test]
    fn staging_delays_job_start_by_at_least_the_round_trip() {
        let ms = star(2);
        let w = workload(4);
        let cache = CachePlan::new(&w, 0.0, 0); // everything staged
        let trace = simulate_multisite(&ms, &w, &cache, &cfg(), 1);
        for r in &trace.jobs {
            // Two message hops (request + data) at 10 ms each, plus the
            // serve and deliver flow times.
            assert!(
                r.start >= 0.020,
                "job {} started at {} before the staging round trip",
                r.job,
                r.start
            );
        }
    }

    #[test]
    fn staged_runs_finish_later_than_cached_runs() {
        // Same local work either way; staging only adds a front delay, so
        // compare absolute completion times (makespan would cancel the
        // common shift since staged jobs also *start* later).
        let ms = star(2);
        let w = workload(6);
        let cached = simulate_multisite(&ms, &w, &CachePlan::new(&w, 1.0, 0), &cfg(), 1);
        let staged = simulate_multisite(&ms, &w, &CachePlan::new(&w, 0.0, 0), &cfg(), 1);
        let last = |t: &ExecutionTrace| t.jobs.iter().map(|j| j.end).fold(0.0, f64::max);
        assert!(last(&staged) > last(&cached));
    }

    #[test]
    fn parallel_run_announces_horizons() {
        let ms = star(4);
        let w = workload(8);
        let cache = CachePlan::new(&w, 0.0, 2);
        let (_, stats) = try_simulate_multisite_with_stats(&ms, &w, &cache, &cfg(), 4).unwrap();
        assert!(stats.horizon_announcements > 0);
        assert_eq!(stats.partitions, 5);
    }

    #[test]
    fn queueing_works_inside_a_site() {
        // 4 cores per site, 2 sites, 16 jobs: each site queues 8 jobs on
        // 4 cores and must still drain them all.
        let ms = star(2);
        let w = workload(16);
        let cache = CachePlan::new(&w, 1.0, 0);
        let trace = simulate_multisite(&ms, &w, &cache, &cfg(), 2);
        assert_eq!(trace.jobs.len(), 16);
        assert!(trace.mean_queue_wait() > 0.0, "oversubscribed sites must queue");
    }
}
