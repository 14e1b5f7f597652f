//! Multi-site simulation properties over the real multi-site simulator.
//!
//! Each site runs its own engine under one conservative global-min driver
//! (`sim::multisite`); these tests pin its guarantees end-to-end through
//! the public scenario path:
//!
//! 1. **Lookahead safety**: the WAN-derived lookahead is exactly the
//!    narrowest link latency, strictly positive, and no staged job starts
//!    before its request and its data have each crossed the WAN;
//! 2. **Completion**: ring and star topologies complete every job, once,
//!    on its round-robin compute site;
//! 3. the same holds on **randomized** star topologies and workloads
//!    (proptest), and two runs give the same trace.

use proptest::prelude::*;

use simcal::platform::{catalog, MultiSiteBuilder, MultiSiteSpec, PlatformKind};
use simcal::sim::{CacheSpec, Scenario, ScenarioRegistry, SimConfig, SimSession, WorkloadSource};
use simcal::workload::{ArrivalProcess, Distribution, ExecutionTrace, WorkloadSpec};

/// One job record, flattened to bit-exact comparable form.
type JobBits = (usize, usize, u32, u64, u64);

/// Job-trace fingerprint: everything the sweep's trace hash covers.
fn fingerprint(trace: &ExecutionTrace) -> (Vec<JobBits>, usize, u64) {
    let jobs = trace
        .jobs
        .iter()
        .map(|j| (j.job, j.node, j.core, j.start.to_bits(), j.end.to_bits()))
        .collect();
    (jobs, trace.n_nodes, trace.engine_events)
}

/// Assert every job completed exactly once, on a node of the compute site
/// round-robin assignment gives it (job `j` on `compute_sites[j % k]`).
fn assert_jobs_on_their_sites(ms: &MultiSiteSpec, trace: &ExecutionTrace, n_jobs: usize) {
    let sites = ms.compute_sites();
    assert_eq!(trace.jobs.len(), n_jobs, "{}: every job completes", ms.name);
    assert_eq!(trace.n_nodes, ms.compute_node_count());
    for (j, r) in trace.jobs.iter().enumerate() {
        assert_eq!(r.job, j, "{}: job {j} recorded once, in order", ms.name);
        let site = sites[j % sites.len()];
        let lo = ms.node_offset(site);
        let hi = lo + ms.sites[site].node_count();
        assert!(
            (lo..hi).contains(&r.node),
            "{}: job {j} ran on node {} outside site {site}'s nodes {lo}..{hi}",
            ms.name,
            r.node
        );
    }
}

#[test]
fn lookahead_is_the_narrowest_wan_latency_and_the_protocol_runs_inside_it() {
    let mut staged = 0;
    for e in ScenarioRegistry::reduced().entries() {
        let Some(ms) = &e.scenario.multisite else { continue };
        let min_latency = ms.links.iter().map(|l| l.latency).fold(f64::INFINITY, f64::min);
        assert!(min_latency > 0.0, "{}: WAN latency must be positive", e.scenario.name);
        assert_eq!(
            ms.lookahead(),
            min_latency,
            "{}: lookahead must be the provable minimum WAN delay",
            e.scenario.name
        );

        // A staged job's request and data each cross the WAN, so it can
        // start no earlier than its release plus the round trip to the
        // hub — at least twice the lookahead.
        let m = e.scenario.materialize();
        let trace = m.run(&mut SimSession::new());
        let lat = ms.path_latencies();
        let sites = ms.compute_sites();
        for r in &trace.jobs {
            let inputs: f64 = m.workload.jobs[r.job].input_files.iter().map(|f| f.size).sum();
            if inputs - m.plan.cached_bytes(&m.workload, r.job) <= 0.0 {
                continue;
            }
            staged += 1;
            let site = sites[r.job % sites.len()];
            let round_trip = lat[site][ms.storage_site] + lat[ms.storage_site][site];
            assert!(round_trip >= 2.0 * min_latency);
            assert!(
                r.start >= r.release + round_trip,
                "{}: job {} started at {} before its staging round trip ({} + {round_trip})",
                e.scenario.name,
                r.job,
                r.start,
                r.release
            );
        }
    }
    assert!(staged > 0, "the reduced multi-site family must stage some inputs");
}

#[test]
fn ring_and_star_topologies_complete_at_maximal_sharding() {
    // Cyclic (ring) and hub-and-spoke (star) WAN graphs: every job
    // completes once on its round-robin site.
    for ms in [
        catalog::multisite_ring(PlatformKind::Fcsn, 4),
        catalog::multisite_ring(PlatformKind::Scsn, 3),
        catalog::multisite_star(PlatformKind::Fcfn, 4),
    ] {
        let n_jobs = 2 * ms.compute_sites().len();
        let sc = scenario_on(ms.clone(), n_jobs, 3, 0x5eed);
        assert_jobs_on_their_sites(&ms, &sc.run(&mut SimSession::new()), n_jobs);
    }
}

/// Wrap a topology and a small constant workload into a scenario.
fn scenario_on(ms: MultiSiteSpec, n_jobs: usize, files_per_job: usize, seed: u64) -> Scenario {
    Scenario {
        name: format!("pdes-{}", ms.name),
        platform: ms.sites[ms.compute_sites()[0]].clone(),
        workload: WorkloadSource::Spec {
            spec: WorkloadSpec {
                n_jobs,
                files_per_job,
                file_size: Distribution::Constant(24e6),
                flops_per_byte: Distribution::Constant(6.0),
                output_bytes: Distribution::Constant(2e6),
                arrival: ArrivalProcess::Immediate,
            },
            seed,
        },
        cache: CacheSpec { icd: 0.5, seed: Some(seed) },
        config: SimConfig::default(),
        multisite: Some(ms),
        horizon: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized star topologies: site count, per-link latencies and
    /// bandwidths, workload shape and cache depth are all drawn — every
    /// job completes once on its site, and a second run (on a reused
    /// session) reproduces the trace bit for bit.
    #[test]
    fn random_star_topologies_are_shard_invariant(
        k in 2usize..5,
        lat_millis in proptest::collection::vec(1u64..200, 4),
        bw_mbps in proptest::collection::vec(50u64..2000, 4),
        n_jobs in 1usize..12,
        files in 1usize..4,
        icd_milli in 0u64..1000,
        wseed in 0u64..u64::MAX,
    ) {
        let hub = catalog::storage_hub();
        let mut b = MultiSiteBuilder::new("prop-star").site(hub);
        for i in 0..k {
            let kind = PlatformKind::ALL[i % PlatformKind::ALL.len()];
            b = b.site(catalog::ms_compute_site(kind, i)).link(
                0,
                i + 1,
                bw_mbps[i % bw_mbps.len()] as f64 * 1e6 / 8.0,
                lat_millis[i % lat_millis.len()] as f64 / 1000.0,
            );
        }
        let ms = b.build();
        let mut sc = scenario_on(ms.clone(), n_jobs, files, wseed);
        sc.cache.icd = icd_milli as f64 / 1000.0;
        let mut session = SimSession::new();
        let first = sc.run(&mut session);
        assert_jobs_on_their_sites(&ms, &first, n_jobs);
        prop_assert_eq!(fingerprint(&sc.run(&mut session)), fingerprint(&first));
    }
}
