//! The built-in scenario registry.
//!
//! Everything the repository knows how to simulate, discoverable by name:
//! the paper's four Table II platforms running the CMS workload, plus
//! scenario families beyond the paper — heterogeneous-node platforms,
//! straggler/heavy-tail workloads built on the [`Distribution`] machinery,
//! and deeper cache-tier variants. Every scenario carries a deterministic
//! per-scenario seed derived from its (family, index), so regenerating the
//! registry — on any worker, in any order — yields bit-identical
//! scenarios.
//!
//! [`ScenarioRegistry::builtin`] is the full-size registry the CLI lists
//! and sweeps; [`ScenarioRegistry::reduced`] scales every workload down
//! (same families, same shapes) for tests and benches.

use simcal_platform::{
    catalog, HardwareParams, MultiSiteBuilder, MultiSiteSpec, PlatformBuilder, PlatformKind,
    PlatformSpec,
};
use simcal_storage::XRootDConfig;
use simcal_workload::{cms_workload_spec, ArrivalProcess, Distribution, WorkloadSpec};

use crate::config::{FlowLevelCfg, NoiseConfig, SimConfig, WanModel};
use crate::scenario::{CacheSpec, Scenario, WorkloadSource};
use crate::scheduler::SchedulerPolicy;
use crate::stream::HorizonSpec;

/// One registry entry: the scenario plus discovery metadata.
#[derive(Debug, Clone)]
pub struct ScenarioEntry {
    /// Family the scenario belongs to (`"paper"`, `"hetero"`, …).
    pub family: &'static str,
    /// One-line human description for `scenarios list`.
    pub summary: String,
    /// The scenario itself.
    pub scenario: Scenario,
}

/// A named collection of runnable scenarios.
#[derive(Debug, Clone, Default)]
pub struct ScenarioRegistry {
    entries: Vec<ScenarioEntry>,
}

/// Registry scale: full-size scenarios or scaled-down test/bench twins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scale {
    Full,
    Reduced,
}

/// Deterministic per-scenario seed: a splitmix64-style mix of the family
/// salt and the scenario's index within it. Pure function of its inputs —
/// the root of the registry's reproducibility guarantee.
fn scenario_seed(salt: u64, index: u64) -> u64 {
    let mut z = salt ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The paper-calibrated hardware values (the effective parameters all the
/// paper's calibrations converged to) — the registry's default hardware.
fn calibrated_hardware() -> HardwareParams {
    let mut hw = HardwareParams::defaults();
    hw.core_speed = 1.97e9; // 1,970 Mflops
    hw.disk_bw = 17e6; // ~17 MBps effective HDD
    hw.page_cache_bw = 10e9; // 10 GBps page cache
    hw
}

/// Effective WAN bandwidth for a nominal interface speed (the paper's
/// HUMAN found ~1.15x the nominal 1 Gbps; scale the same factor).
fn effective_wan(nominal: f64) -> f64 {
    nominal * 1.15
}

impl ScenarioRegistry {
    /// The full built-in registry (paper + hetero + straggler + deepcache).
    pub fn builtin() -> Self {
        Self::build(Scale::Full)
    }

    /// The scaled-down twin of [`builtin`](Self::builtin): same families
    /// and shapes, small workloads and coarse-but-finite granularity, so
    /// tests and benches can sweep the whole registry in milliseconds.
    pub fn reduced() -> Self {
        Self::build(Scale::Reduced)
    }

    fn build(scale: Scale) -> Self {
        let mut reg = Self::default();
        reg.push_paper_family(scale);
        reg.push_hetero_family(scale);
        reg.push_straggler_family(scale);
        reg.push_deepcache_family(scale);
        reg.push_arrival_family(scale);
        reg.push_multisite_family(scale);
        reg.push_steady_family(scale);
        reg.push_wan_family(scale);
        reg
    }

    /// All entries, in registration order.
    pub fn entries(&self) -> &[ScenarioEntry] {
        &self.entries
    }

    /// Number of registered scenarios.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look a scenario up by exact name.
    pub fn get(&self, name: &str) -> Option<&Scenario> {
        self.entries.iter().find(|e| e.scenario.name == name).map(|e| &e.scenario)
    }

    /// Entries whose name or family matches `pat` (empty = all).
    ///
    /// Matching is case-insensitive. A plain pattern is a substring match;
    /// a pattern containing `*` is an anchored glob where each `*` matches
    /// any (possibly empty) sequence: `"cms-*"` matches every paper
    /// scenario (but not `"xcms-scsn"`), `"arrival*poisson"` matches
    /// `arrival-poisson`, and `"*"` matches everything. Interior and
    /// leading `*` are fully supported — they used to silently degrade to
    /// an exact match and return nothing.
    pub fn matching(&self, pat: &str) -> Vec<&ScenarioEntry> {
        let lowered = pat.to_lowercase();
        let hit = |hay: &str| {
            let hay = hay.to_lowercase();
            if lowered.contains('*') {
                glob_match(&lowered, &hay)
            } else {
                hay.contains(lowered.as_str())
            }
        };
        self.entries.iter().filter(|e| hit(&e.scenario.name) || hit(e.family)).collect()
    }

    /// Clone the registered scenarios into a flat sweepable grid.
    pub fn scenarios(&self) -> Vec<Scenario> {
        self.entries.iter().map(|e| e.scenario.clone()).collect()
    }

    /// Expand every registered scenario over an ICD grid: one scenario per
    /// (entry, ICD) with the canonical per-ICD cache plan and the ICD
    /// value suffixed to the name. This is the scenario-grid shape the
    /// sweep driver shards.
    pub fn icd_grid(&self, icds: &[f64]) -> Vec<Scenario> {
        let mut out = Vec::with_capacity(self.entries.len() * icds.len());
        for e in &self.entries {
            for &icd in icds {
                let mut sc = e.scenario.clone();
                sc.name = format!("{}@icd{icd}", sc.name);
                sc.cache = CacheSpec::canonical(icd);
                out.push(sc);
            }
        }
        out
    }

    /// Register a scenario (validates it; names must be unique).
    pub fn register(&mut self, family: &'static str, summary: String, scenario: Scenario) {
        scenario.validate();
        assert!(self.get(&scenario.name).is_none(), "duplicate scenario name {:?}", scenario.name);
        self.entries.push(ScenarioEntry { family, summary, scenario });
    }

    // ---- built-in families ------------------------------------------------

    /// The paper's four Table II platforms running the CMS workload at the
    /// calibrated effective hardware values.
    fn push_paper_family(&mut self, scale: Scale) {
        const SALT: u64 = 0x7070_6572; // "pper"
        for (i, kind) in PlatformKind::ALL.iter().enumerate() {
            let seed = scenario_seed(SALT, i as u64);
            let spec = match scale {
                // cms_workload() == this spec at seed 0: the scenario path
                // reproduces the case-study workload bit-for-bit.
                Scale::Full => cms_workload_spec(),
                Scale::Reduced => WorkloadSpec::constant(12, 4, 40e6, 6.0, 4e6),
            };
            let mut hw = calibrated_hardware();
            hw.wan_bw = effective_wan(kind.nominal_wan_bw());
            let mut config = SimConfig::new(hw, granularity(scale));
            config.scheduler = SchedulerPolicy::FirstFreeSlot;
            self.register(
                "paper",
                format!("CMS workload on Table II {} at calibrated hardware", kind.label()),
                Scenario {
                    name: format!("cms-{}", kind.label().to_lowercase()),
                    platform: kind.spec(),
                    workload: WorkloadSource::Spec {
                        spec,
                        seed: if scale == Scale::Full { 0 } else { seed },
                    },
                    cache: CacheSpec::canonical(0.5),
                    config,
                    multisite: None,
                    horizon: None,
                },
            );
        }
    }

    /// Heterogeneous-node platforms: asymmetric core counts, fat/thin
    /// mixes, and a widest-node-first scheduling variant.
    fn push_hetero_family(&mut self, scale: Scale) {
        const SALT: u64 = 0x6865_7465; // "hete"
        let shapes: [(&str, &str, PlatformSpec, SchedulerPolicy); 4] = [
            (
                "hetero-asym",
                "asymmetric 4/8/16/32-core nodes, page cache on",
                PlatformBuilder::new("HETERO-ASYM")
                    .node("n4", 4)
                    .node("n8", 8)
                    .node("n16", 16)
                    .node("n32", 32)
                    .page_cache(true)
                    .wan_gbps(10.0)
                    .build(),
                SchedulerPolicy::FirstFreeSlot,
            ),
            (
                "hetero-wide",
                "eight alternating 4/12-core nodes behind a 1 Gbps WAN",
                {
                    let mut b = PlatformBuilder::new("HETERO-WIDE").wan_gbps(1.0);
                    for i in 0..8 {
                        b = b.node(format!("w{i}"), if i % 2 == 0 { 4 } else { 12 });
                    }
                    b.build()
                },
                SchedulerPolicy::FirstFreeSlot,
            ),
            (
                "hetero-fat",
                "one 8-core and one 56-core node sharing the WAN",
                PlatformBuilder::new("HETERO-FAT")
                    .node("thin", 8)
                    .node("fat", 56)
                    .page_cache(true)
                    .wan_gbps(10.0)
                    .build(),
                SchedulerPolicy::FirstFreeSlot,
            ),
            (
                "hetero-packed",
                "asymmetric nodes under the widest-node-first policy",
                PlatformBuilder::new("HETERO-PACKED")
                    .node("n4", 4)
                    .node("n8", 8)
                    .node("n16", 16)
                    .node("n32", 32)
                    .wan_gbps(1.0)
                    .build(),
                SchedulerPolicy::WidestNodeFirst,
            ),
        ];
        for (i, (name, summary, platform, policy)) in shapes.into_iter().enumerate() {
            let seed = scenario_seed(SALT, i as u64);
            // Oversubscribe the platform slightly so queueing (and hence
            // the scheduler policy) matters.
            let n_jobs = match scale {
                Scale::Full => platform.total_cores() as usize + platform.node_count(),
                Scale::Reduced => (platform.total_cores() as usize / 4).max(4),
            };
            let (files, bytes) = match scale {
                Scale::Full => (8, 120e6),
                Scale::Reduced => (3, 24e6),
            };
            let mut config = SimConfig::new(calibrated_hardware(), granularity(scale));
            config.hardware.wan_bw = effective_wan(platform.nominal_wan_bw);
            config.scheduler = policy;
            self.register(
                "hetero",
                summary.to_string(),
                Scenario {
                    name: name.to_string(),
                    platform,
                    workload: WorkloadSource::Spec {
                        spec: WorkloadSpec::constant(n_jobs, files, bytes, 6.0, bytes * 0.1),
                        seed,
                    },
                    cache: CacheSpec::canonical(0.5),
                    config,
                    multisite: None,
                    horizon: None,
                },
            );
        }
    }

    /// Straggler / heavy-tail workloads: per-job volumes drawn from
    /// long-tailed distributions, so a few jobs dominate the makespan.
    fn push_straggler_family(&mut self, scale: Scale) {
        const SALT: u64 = 0x7374_7261; // "stra"
        let (n_jobs, files, bytes) = match scale {
            Scale::Full => (48, 8, 150e6),
            Scale::Reduced => (8, 3, 24e6),
        };
        let uniform_files = Distribution::Uniform { lo: bytes * 0.5, hi: bytes * 1.5 };
        let variants: [(&str, &str, WorkloadSpec); 3] = [
            (
                "straggler-compute",
                "log-normal per-job compute intensity (sigma 0.8)",
                WorkloadSpec {
                    n_jobs,
                    files_per_job: files,
                    file_size: Distribution::Constant(bytes),
                    flops_per_byte: Distribution::LogNormal { mu: 6.0f64.ln(), sigma: 0.8 },
                    output_bytes: Distribution::Constant(bytes * 0.1),
                    arrival: ArrivalProcess::Immediate,
                },
            ),
            (
                "straggler-files",
                "log-normal input file sizes (sigma 1.0): rare giant files",
                WorkloadSpec {
                    n_jobs,
                    files_per_job: files,
                    file_size: Distribution::LogNormal { mu: bytes.ln(), sigma: 1.0 },
                    flops_per_byte: Distribution::Constant(6.0),
                    output_bytes: Distribution::Constant(bytes * 0.1),
                    arrival: ArrivalProcess::Immediate,
                },
            ),
            (
                "straggler-output",
                "uniform inputs, exponential output sizes (heavy write tail)",
                WorkloadSpec {
                    n_jobs,
                    files_per_job: files,
                    file_size: uniform_files,
                    flops_per_byte: Distribution::Constant(6.0),
                    output_bytes: Distribution::Exponential { rate: 1.0 / (bytes * 0.2) },
                    arrival: ArrivalProcess::Immediate,
                },
            ),
        ];
        for (i, (name, summary, spec)) in variants.into_iter().enumerate() {
            let seed = scenario_seed(SALT, i as u64);
            let kind = PlatformKind::Scsn;
            let mut config = SimConfig::new(calibrated_hardware(), granularity(scale));
            config.hardware.wan_bw = effective_wan(kind.nominal_wan_bw());
            self.register(
                "straggler",
                summary.to_string(),
                Scenario {
                    name: name.to_string(),
                    platform: kind.spec(),
                    workload: WorkloadSource::Spec { spec, seed },
                    cache: CacheSpec::canonical(0.3),
                    config,
                    multisite: None,
                    horizon: None,
                },
            );
        }
    }

    /// Deeper cache-tier variants: write-through proxy caching, capped
    /// storage-service streams, and a contended jittery HDD tier.
    fn push_deepcache_family(&mut self, scale: Scale) {
        const SALT: u64 = 0x6361_6368; // "cach"
        let (n_jobs, files, bytes) = match scale {
            Scale::Full => (48, 10, 200e6),
            Scale::Reduced => (8, 3, 24e6),
        };
        let spec = WorkloadSpec::constant(n_jobs, files, bytes, 6.0, bytes * 0.1);
        struct Variant {
            name: &'static str,
            summary: &'static str,
            kind: PlatformKind,
            icd: f64,
            tune: fn(&mut SimConfig, u64),
        }
        let variants: [Variant; 3] = [
            Variant {
                name: "deepcache-writethrough",
                summary: "remote reads written through to the local cache tier",
                kind: PlatformKind::Fcsn,
                icd: 0.2,
                tune: |c, _| c.cache_write_through = true,
            },
            Variant {
                name: "deepcache-capped",
                summary: "all-remote reads under a per-connection stream cap",
                kind: PlatformKind::Scfn,
                icd: 0.0,
                tune: |c, _| c.per_connection_cap = Some(40e6),
            },
            Variant {
                name: "deepcache-hdd-jitter",
                summary: "fully-cached contended HDD tier with read jitter",
                kind: PlatformKind::Scsn,
                icd: 1.0,
                tune: |c, seed| {
                    c.hardware.disk_contention_alpha = 0.25;
                    c.hardware.disk_latency = 5e-3;
                    c.noise =
                        NoiseConfig { compute_factors: Vec::new(), read_jitter_sigma: 0.12, seed };
                },
            },
        ];
        for (i, v) in variants.into_iter().enumerate() {
            let seed = scenario_seed(SALT, i as u64);
            let mut config = SimConfig::new(calibrated_hardware(), granularity(scale));
            config.hardware.wan_bw = effective_wan(v.kind.nominal_wan_bw());
            (v.tune)(&mut config, seed);
            self.register(
                "deepcache",
                v.summary.to_string(),
                Scenario {
                    name: v.name.to_string(),
                    platform: v.kind.spec(),
                    workload: WorkloadSource::Spec { spec: spec.clone(), seed },
                    cache: CacheSpec::canonical(v.icd),
                    config,
                    multisite: None,
                    horizon: None,
                },
            );
        }
    }

    /// Arrival-pattern scenarios on overcommitted platforms: twice as many
    /// jobs as cores, released by the [`ArrivalProcess`] layer, so the
    /// scheduler's queue/release path is the hot dispatch path. The paper
    /// gates its scenario-diversity wave on exactly these shapes
    /// (HTCondor-style FCFS pools with real submission streams).
    fn push_arrival_family(&mut self, scale: Scale) {
        const SALT: u64 = 0x6172_766C; // "arvl"
                                       // Full scale: 96 jobs on the 48-core SCSN site (the issue's
                                       // canonical overcommit). Reduced: 16 jobs on a 2x4-core pool so
                                       // tests exercise the same 2x overcommit in milliseconds.
        let (platform, n_jobs, files, bytes) = match scale {
            Scale::Full => (PlatformKind::Scsn.spec(), 96, 8, 120e6),
            Scale::Reduced => (
                PlatformBuilder::new("ARRIVAL-POOL")
                    .node("q0", 4)
                    .node("q1", 4)
                    .wan_gbps(1.0)
                    .build(),
                16,
                3,
                24e6,
            ),
        };
        // Arrival horizons sized against the family's service times: jobs
        // keep arriving while earlier ones still run, so the queue stays
        // populated at every scale.
        // Under full 48-slot load the SCSN pool drains ~0.1 jobs/s (shared
        // HDD + WAN contention), so a 300 s submission span (~0.32 jobs/s)
        // keeps arrivals ahead of completions and the queue populated.
        let (span, period, batch, interval) = match scale {
            Scale::Full => (300.0, 900.0, 24, 60.0),
            Scale::Reduced => (12.0, 30.0, 8, 5.0),
        };
        let rate = n_jobs as f64 / span;
        let variants: [(&str, &str, ArrivalProcess); 4] = [
            (
                "arrival-backlog",
                "2x overcommitted backlog: every job released at t=0",
                ArrivalProcess::Immediate,
            ),
            (
                "arrival-poisson",
                "memoryless Poisson submission stream onto a full pool",
                ArrivalProcess::Poisson { rate },
            ),
            (
                "arrival-diurnal",
                "sinusoid-modulated Poisson day/night submission cycle",
                ArrivalProcess::Diurnal { base_rate: rate, amplitude: 0.9, period },
            ),
            (
                "arrival-bursty",
                "campaign-style batch submissions at fixed intervals",
                ArrivalProcess::Bursty { batch_size: batch, batch_interval: interval },
            ),
        ];
        for (i, (name, summary, arrival)) in variants.into_iter().enumerate() {
            let seed = scenario_seed(SALT, i as u64);
            let mut config = SimConfig::new(calibrated_hardware(), granularity(scale));
            config.hardware.wan_bw = effective_wan(platform.nominal_wan_bw);
            self.register(
                "arrival",
                summary.to_string(),
                Scenario {
                    name: name.to_string(),
                    platform: platform.clone(),
                    workload: WorkloadSource::Spec {
                        spec: WorkloadSpec::constant(n_jobs, files, bytes, 6.0, bytes * 0.1)
                            .with_arrival(arrival),
                        seed,
                    },
                    cache: CacheSpec::canonical(0.5),
                    config,
                    multisite: None,
                    horizon: None,
                },
            );
        }
    }

    /// Multi-site topologies around a storage hub, run on the partitioned
    /// conservative-parallel simulator ([`crate::multisite`]) — the family
    /// `sweep --engine-shards N` parallelizes. Traces are bit-identical at
    /// every shard count, so these scenarios double as the
    /// shard-invariance oracle fixtures.
    fn push_multisite_family(&mut self, scale: Scale) {
        const SALT: u64 = 0x6D73_6974; // "msit"
        let mixed = MultiSiteBuilder::new("MIXED-MS")
            .site(PlatformBuilder::new("ms-hub").node("hub-node", 1).wan_gbps(10.0).build())
            .site(PlatformKind::Fcsn.spec())
            .site(
                PlatformBuilder::new("ms-asym").node("a8", 8).node("a24", 24).wan_gbps(1.0).build(),
            )
            .link(0, 1, PlatformKind::Fcsn.nominal_wan_bw(), 0.012)
            .link(0, 2, PlatformKind::Scsn.nominal_wan_bw(), 0.030)
            .build();
        let variants: [(&str, &str, PlatformKind, MultiSiteSpec); 4] = [
            (
                "ms-star2",
                "two FCSN sites star-linked to the storage hub (20 ms hops)",
                PlatformKind::Fcsn,
                catalog::multisite_star(PlatformKind::Fcsn, 2),
            ),
            (
                "ms-star4",
                "four SCSN sites star-linked to the storage hub (20 ms hops)",
                PlatformKind::Scsn,
                catalog::multisite_star(PlatformKind::Scsn, 4),
            ),
            (
                "ms-ring4",
                "hub plus four FCFN sites on a 10/15 ms ring (multi-hop staging)",
                PlatformKind::Fcfn,
                catalog::multisite_ring(PlatformKind::Fcfn, 4),
            ),
            (
                "ms-mixed",
                "unequal compute sites behind unequal 12/30 ms WAN latencies",
                PlatformKind::Fcsn,
                mixed,
            ),
        ];
        for (i, (name, summary, kind, ms)) in variants.into_iter().enumerate() {
            let seed = scenario_seed(SALT, i as u64);
            // Full scale: one job per compute core — every site fully
            // occupied once, the case-study load generalized per site.
            let n_jobs = match scale {
                Scale::Full => ms.compute_cores() as usize,
                Scale::Reduced => 4 * ms.compute_sites().len(),
            };
            let (files, bytes) = match scale {
                Scale::Full => (6, 100e6),
                Scale::Reduced => (3, 24e6),
            };
            let mut config = SimConfig::new(calibrated_hardware(), granularity(scale));
            config.hardware.wan_bw = effective_wan(kind.nominal_wan_bw());
            // The single-site `platform` field is ignored by the
            // partitioned path; carry a representative compute site so
            // every tool that inspects it sees the right shape.
            let platform = ms.sites[ms.compute_sites()[0]].clone();
            self.register(
                "multisite",
                summary.to_string(),
                Scenario {
                    name: name.to_string(),
                    platform,
                    workload: WorkloadSource::Spec {
                        spec: WorkloadSpec::constant(n_jobs, files, bytes, 6.0, bytes * 0.1),
                        seed,
                    },
                    cache: CacheSpec::canonical(0.5),
                    config,
                    multisite: Some(ms),
                    horizon: None,
                },
            );
        }
    }

    /// Steady-state serving scenarios: multi-day horizons on an
    /// overcommitted pool, run open-loop ([`HorizonSpec`]) instead of to
    /// completion. The submission stream is sized so the diurnal peak
    /// saturates the pool and the trough drains it — the shape that makes
    /// tail queue-wait percentiles and SLO attainment meaningful. These
    /// are also the deepest timer populations in the registry: one
    /// release timer per arrival, thousands pending at once.
    fn push_steady_family(&mut self, scale: Scale) {
        const SALT: u64 = 0x7374_6479; // "stdy"
                                       // Full scale: two simulated days on the 48-core SCSN pool. The
                                       // pool drains ~0.06 jobs/s under full contention for this job
                                       // shape, so a 0.04 jobs/s mean rate puts the diurnal peak
                                       // (1.9x mean) above capacity and the trough well below it.
                                       // Reduced: two "days" of 60 s on a 2x4-core pool, loaded to
                                       // ~0.8 of drain capacity so the diurnal peak (1.9x mean) queues
                                       // hard and the percentile columns carry real signal.
        let (platform, horizon, n_jobs, files, bytes, slo_wait, day) = match scale {
            Scale::Full => {
                (PlatformKind::Scsn.spec(), 172_800.0, 6_912, 10, 200e6, 1_800.0, 86_400.0)
            }
            Scale::Reduced => (
                PlatformBuilder::new("STEADY-POOL")
                    .node("s0", 4)
                    .node("s1", 4)
                    .wan_gbps(1.0)
                    .build(),
                120.0,
                144,
                3,
                24e6,
                10.0,
                60.0,
            ),
        };
        let rate = n_jobs as f64 / horizon;
        let batches = 16;
        let variants: [(&str, &str, ArrivalProcess); 3] = [
            (
                "steady-diurnal",
                "two-day day/night serving cycle, peak load past pool capacity",
                ArrivalProcess::Diurnal { base_rate: rate, amplitude: 0.9, period: day },
            ),
            (
                "steady-bursty",
                "campaign bursts every eighth of a day on a draining pool",
                ArrivalProcess::Bursty {
                    batch_size: n_jobs / batches,
                    batch_interval: horizon / batches as f64,
                },
            ),
            (
                "steady-poisson",
                "memoryless steady submission stream near pool capacity",
                ArrivalProcess::Poisson { rate },
            ),
        ];
        for (i, (name, summary, arrival)) in variants.into_iter().enumerate() {
            let seed = scenario_seed(SALT, i as u64);
            let mut config = SimConfig::new(calibrated_hardware(), granularity(scale));
            config.hardware.wan_bw = effective_wan(platform.nominal_wan_bw);
            self.register(
                "steady",
                summary.to_string(),
                Scenario {
                    name: name.to_string(),
                    platform: platform.clone(),
                    workload: WorkloadSource::Spec {
                        spec: WorkloadSpec::constant(n_jobs, files, bytes, 6.0, bytes * 0.1)
                            .with_arrival(arrival),
                        seed,
                    },
                    cache: CacheSpec::canonical(0.5),
                    config,
                    multisite: None,
                    horizon: Some(HorizonSpec { duration: horizon, slo_wait }),
                },
            );
        }
    }

    /// Flow-level WAN scenarios: the regimes a scalar max–min cap cannot
    /// express, each keyed to one failure mode of the fluid model. All
    /// three run the flow-level bandwidth model ([`WanModel::FlowLevel`])
    /// with windows sized so the congestion machinery actually binds —
    /// their makespans measurably diverge from the max–min answer (the
    /// divergence is asserted in a test and surfaced in `BENCH_wan.json`).
    fn push_wan_family(&mut self, scale: Scale) {
        const SALT: u64 = 0x7761_6E66; // "wanf"
        let (n_jobs, files, bytes) = match scale {
            Scale::Full => (48, 8, 150e6),
            Scale::Reduced => (8, 3, 24e6),
        };
        // A multi-node pool behind a thin shared WAN: enough concurrent
        // senders that windows and queueing, not the scalar cap, decide
        // who gets what.
        let platform = match scale {
            Scale::Full => PlatformKind::Scsn.spec(),
            Scale::Reduced => {
                let mut b = PlatformBuilder::new("WAN-POOL").wan_gbps(1.0);
                for i in 0..4 {
                    b = b.node(format!("w{i}"), 2);
                }
                b.build()
            }
        };
        struct Variant {
            name: &'static str,
            summary: &'static str,
            icd: f64,
            cfg: FlowLevelCfg,
        }
        let variants: [Variant; 3] = [
            Variant {
                name: "wan-miss-storm",
                summary: "all-remote cache-miss storm under windowed senders",
                icd: 0.0,
                cfg: FlowLevelCfg {
                    prop_delay: 0.02,
                    window: Some(2e6),
                    ..FlowLevelCfg::default()
                },
            },
            Variant {
                name: "wan-rtt-unfair",
                summary: "per-node RTT ladder: near nodes out-window far ones",
                icd: 0.2,
                cfg: FlowLevelCfg {
                    prop_delay: 0.01,
                    per_node_delay_step: 0.015,
                    window: Some(2e6),
                    ..FlowLevelCfg::default()
                },
            },
            Variant {
                name: "wan-bufferbloat",
                summary: "oversized windows, late marking: standing-queue WAN",
                icd: 0.0,
                cfg: FlowLevelCfg {
                    prop_delay: 0.005,
                    window: Some(8e6),
                    mark_threshold: 0.25,
                    ..FlowLevelCfg::default()
                },
            },
        ];
        for (i, v) in variants.into_iter().enumerate() {
            let seed = scenario_seed(SALT, i as u64);
            let mut config = SimConfig::new(calibrated_hardware(), granularity(scale));
            config.hardware.wan_bw = effective_wan(platform.nominal_wan_bw);
            config.wan_model = WanModel::FlowLevel(v.cfg);
            self.register(
                "wan",
                v.summary.to_string(),
                Scenario {
                    name: v.name.to_string(),
                    platform: platform.clone(),
                    workload: WorkloadSource::Spec {
                        spec: WorkloadSpec::constant(n_jobs, files, bytes, 6.0, bytes * 0.1),
                        seed,
                    },
                    cache: CacheSpec::canonical(v.icd),
                    config,
                    multisite: None,
                    horizon: None,
                },
            );
        }
    }
}

/// Anchored glob match: `pat` (which contains at least one `*`) matches
/// `hay` iff the literal segments between `*`s appear in order, with the
/// first anchored at the start and the last at the end. Both strings must
/// already be case-folded by the caller.
fn glob_match(pat: &str, hay: &str) -> bool {
    let parts: Vec<&str> = pat.split('*').collect();
    let (first, last) = (parts[0], parts[parts.len() - 1]);
    if !hay.starts_with(first) {
        return false;
    }
    let mut pos = first.len();
    for mid in &parts[1..parts.len() - 1] {
        if mid.is_empty() {
            continue;
        }
        match hay[pos..].find(mid) {
            Some(i) => pos += i + mid.len(),
            None => return false,
        }
    }
    hay.len() >= pos + last.len() && hay[pos..].ends_with(last)
}

/// Registry-wide granularity per scale: the paper's coarsest (fastest)
/// setting at full scale, a finer small-file setting when reduced.
fn granularity(scale: Scale) -> XRootDConfig {
    match scale {
        Scale::Full => XRootDConfig::paper_1s(),
        Scale::Reduced => XRootDConfig::new(8e6, 2e6),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_registry_has_all_families() {
        let reg = ScenarioRegistry::builtin();
        assert!(reg.len() >= 16, "need >= 16 scenarios, have {}", reg.len());
        for family in
            ["paper", "hetero", "straggler", "deepcache", "arrival", "multisite", "steady", "wan"]
        {
            assert!(
                reg.entries().iter().filter(|e| e.family == family).count() >= 3,
                "family {family} too small"
            );
        }
    }

    #[test]
    fn arrival_family_overcommits_its_platform() {
        for reg in [ScenarioRegistry::builtin(), ScenarioRegistry::reduced()] {
            for e in reg.entries().iter().filter(|e| e.family == "arrival") {
                let slots = e.scenario.platform.total_cores() as usize;
                assert_eq!(
                    e.scenario.workload.n_jobs(),
                    2 * slots,
                    "{}: arrival scenarios are 2x overcommitted",
                    e.scenario.name
                );
            }
        }
    }

    #[test]
    fn arrival_scenarios_queue_jobs() {
        // The overcommitted members must exercise the scheduler's queue
        // path: strictly positive queue wait end-to-end.
        let reg = ScenarioRegistry::reduced();
        let mut session = crate::SimSession::new();
        for name in ["arrival-backlog", "arrival-poisson", "arrival-diurnal", "arrival-bursty"] {
            let sc = reg.get(name).expect(name);
            let trace = sc.run(&mut session);
            assert!(
                trace.mean_queue_wait() > 0.0,
                "{name}: expected queueing, mean wait {}",
                trace.mean_queue_wait()
            );
        }
        // The non-backlog members stagger their releases too.
        for name in ["arrival-poisson", "arrival-diurnal", "arrival-bursty"] {
            let w = reg.get(name).unwrap().workload.workload();
            assert!(w.has_releases(), "{name} must release jobs after t=0");
        }
    }

    #[test]
    fn multisite_family_is_shard_invariant() {
        // The family's registry twins are the shard-invariance oracle:
        // 2 shards must reproduce the sequential reference bit-for-bit.
        let reg = ScenarioRegistry::reduced();
        let mut session = crate::SimSession::new();
        for e in reg.entries().iter().filter(|e| e.family == "multisite") {
            let ms = e.scenario.multisite.as_ref().expect("multisite family");
            let one = e.scenario.run_sharded(&mut session, 1);
            let two = e.scenario.run_sharded(&mut session, 2);
            assert_eq!(one.jobs, two.jobs, "{}", e.scenario.name);
            assert_eq!(one.engine_events, two.engine_events, "{}", e.scenario.name);
            assert_eq!(one.jobs.len(), e.scenario.workload.n_jobs());
            assert_eq!(one.n_nodes, ms.compute_node_count());
        }
    }

    #[test]
    fn names_are_unique_and_resolvable() {
        let reg = ScenarioRegistry::builtin();
        for e in reg.entries() {
            assert!(std::ptr::eq(reg.get(&e.scenario.name).unwrap(), &e.scenario));
        }
    }

    #[test]
    fn registry_generation_is_deterministic() {
        let a = ScenarioRegistry::builtin();
        let b = ScenarioRegistry::builtin();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.entries().iter().zip(b.entries()) {
            assert_eq!(x.scenario, y.scenario);
        }
    }

    #[test]
    fn paper_scenario_reproduces_cms_workload() {
        let reg = ScenarioRegistry::builtin();
        let sc = reg.get("cms-scsn").expect("paper scenario");
        let w = sc.workload.workload();
        assert_eq!(w.jobs, simcal_workload::cms_workload().jobs);
    }

    #[test]
    fn reduced_registry_mirrors_builtin_names() {
        let full = ScenarioRegistry::builtin();
        let red = ScenarioRegistry::reduced();
        assert_eq!(full.len(), red.len());
        for (f, r) in full.entries().iter().zip(red.entries()) {
            assert_eq!(f.scenario.name, r.scenario.name);
            assert!(r.scenario.workload.n_jobs() <= f.scenario.workload.n_jobs());
        }
    }

    #[test]
    fn icd_grid_expands_names_and_plans() {
        let reg = ScenarioRegistry::reduced();
        let grid = reg.icd_grid(&[0.0, 1.0]);
        assert_eq!(grid.len(), 2 * reg.len());
        assert!(grid[0].name.ends_with("@icd0"));
        assert_eq!(grid[1].cache.icd, 1.0);
    }

    #[test]
    fn matching_filters_by_family_and_name() {
        let reg = ScenarioRegistry::builtin();
        assert_eq!(reg.matching("straggler").len(), 3);
        assert_eq!(reg.matching("cms-fcfn").len(), 1);
        assert_eq!(reg.matching("").len(), reg.len());
    }

    #[test]
    fn matching_is_case_insensitive() {
        let reg = ScenarioRegistry::builtin();
        assert_eq!(reg.matching("STRAGGLER").len(), 3);
        assert_eq!(reg.matching("Cms-Fcfn").len(), 1);
        assert_eq!(reg.matching("HeTeRo").len(), 4);
    }

    #[test]
    fn trailing_star_is_a_prefix_glob() {
        let reg = ScenarioRegistry::builtin();
        // "cms-*" prefix-matches the four paper scenarios by name.
        assert_eq!(reg.matching("cms-*").len(), 4);
        // Plain "cms" also substring-matches nothing extra here, but a
        // mid-name fragment shows the difference: "cache*" matches the
        // family prefix while "*-less" style infixes need no glob.
        assert_eq!(reg.matching("eepcache*").len(), 0, "glob anchors at the start");
        assert!(!reg.matching("eepcache").is_empty(), "substring match still works");
        // "*" alone matches everything.
        assert_eq!(reg.matching("*").len(), reg.len());
    }

    #[test]
    fn interior_and_leading_globs_match() {
        // Interior `*` used to silently degrade to an exact-name match and
        // return nothing; it is now a real glob segment.
        let reg = ScenarioRegistry::builtin();
        assert_eq!(reg.matching("straggler*compute").len(), 1);
        assert_eq!(reg.matching("Arrival*Poisson").len(), 1, "still case-insensitive");
        assert_eq!(reg.matching("cms*n").len(), 4, "all paper scenarios end in n");
        // Leading `*` anchors at the end.
        assert_eq!(reg.matching("*-backlog").len(), 1);
        assert_eq!(reg.matching("*backlog-").len(), 0, "suffix anchor holds");
        // Multiple interior stars: segments must appear in order.
        assert_eq!(reg.matching("arr*al-p*sson").len(), 1);
        assert_eq!(reg.matching("p*sson-arr*al").len(), 0, "order matters");
        // The glob must consume disjoint regions (no overlap).
        assert_eq!(reg.matching("deepcache*deepcache").len(), 0);
    }

    #[test]
    fn steady_family_runs_open_loop_and_reports_percentiles() {
        let reg = ScenarioRegistry::reduced();
        let mut session = crate::SimSession::new();
        for e in reg.entries().iter().filter(|e| e.family == "steady") {
            let sc = &e.scenario;
            let h = sc.horizon.expect("steady scenarios carry a horizon");
            let report = sc.try_run_report(&mut session, 1).expect(&sc.name);
            let hr = report.horizon.expect("horizon report");
            assert_eq!(hr.horizon, h.duration);
            assert!(hr.released > 0, "{}: nothing released", sc.name);
            assert!(hr.completed > 0, "{}: nothing completed", sc.name);
            assert!(hr.completed as usize >= report.trace.jobs.len());
            assert!((0.0..=1.0).contains(&hr.slo_attained), "{}", sc.name);
            assert!(hr.wait_p999 >= hr.wait_p50 - 1e-9, "{}", sc.name);
            assert!(hr.mean_utilization() > 0.0, "{}", sc.name);
            // Deterministic: a second run is bit-identical.
            let again = sc.try_run_report(&mut session, 1).expect(&sc.name);
            assert_eq!(again.trace.jobs, report.trace.jobs, "{}", sc.name);
            assert_eq!(again.horizon.unwrap(), hr, "{}", sc.name);
        }
    }

    #[test]
    fn degenerate_flow_level_is_bit_identical_across_reduced_registry() {
        // The tentpole's correctness anchor: zero propagation delay plus an
        // unbounded window collapses the flow-level WAN to max–min *bit for
        // bit* — on every reduced scenario, including multisite (partitioned
        // engines) and steady (horizon) members.
        let reg = ScenarioRegistry::reduced();
        let mut session = crate::SimSession::new();
        for e in reg.entries() {
            let name = &e.scenario.name;
            let mut maxmin = e.scenario.clone();
            maxmin.config.wan_model = WanModel::MaxMin;
            let mut degen = e.scenario.clone();
            degen.config.wan_model = WanModel::FlowLevel(FlowLevelCfg::degenerate());
            let a = maxmin.try_run_report(&mut session, 1).expect(name);
            let b = degen.try_run_report(&mut session, 1).expect(name);
            assert_eq!(a.trace.jobs, b.trace.jobs, "{name}: job traces diverged");
            assert_eq!(
                a.trace.engine_events, b.trace.engine_events,
                "{name}: event counts diverged"
            );
            assert_eq!(a.horizon, b.horizon, "{name}: horizon reports diverged");
        }
    }

    #[test]
    fn wan_family_exercises_the_flow_level_model() {
        // Every member runs the flow-level model; at least one member's
        // makespan must measurably diverge from the same scenario under
        // max–min — otherwise the family exercises nothing the scalar cap
        // couldn't express.
        let reg = ScenarioRegistry::reduced();
        let mut session = crate::SimSession::new();
        let mut diverged = 0usize;
        for e in reg.entries().iter().filter(|e| e.family == "wan") {
            let sc = &e.scenario;
            assert!(
                matches!(sc.config.wan_model, WanModel::FlowLevel(_)),
                "{}: wan scenarios run the flow-level model",
                sc.name
            );
            let flow = sc.run(&mut session);
            let mut alt = sc.clone();
            alt.config.wan_model = WanModel::MaxMin;
            let maxmin = alt.run(&mut session);
            assert_eq!(flow.jobs.len(), maxmin.jobs.len(), "{}", sc.name);
            let rel = (flow.makespan() - maxmin.makespan()).abs() / maxmin.makespan();
            if rel > 1e-3 {
                diverged += 1;
            }
        }
        assert!(diverged >= 1, "no wan scenario diverged from max-min");
    }

    #[test]
    fn scenario_seeds_differ_across_entries() {
        // The per-scenario seed mix must not collide across (family, index).
        let a = scenario_seed(1, 0);
        let b = scenario_seed(1, 1);
        let c = scenario_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
