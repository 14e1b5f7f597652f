//! Cross-crate behavioural tests of the simulator: event-count scaling
//! (the paper's O(s/B + s/b) law), bottleneck physics, and determinism.

use simcal::platform::{catalog, HardwareParams, PlatformKind};
use simcal::sim::{check_trace, simulate, HorizonSpec, SimConfig, SimSession};
use simcal::storage::{CachePlan, XRootDConfig};
use simcal::units;
use simcal::workload::{cms_workload, scaled_cms_workload};

fn tuned_hardware() -> HardwareParams {
    let mut hw = HardwareParams::defaults();
    hw.core_speed = units::mflops(1970.0);
    hw.disk_bw = units::mbytes_per_sec(17.0);
    hw.page_cache_bw = units::gbytes_per_sec(10.0);
    hw.wan_bw = units::mbps(1150.0);
    hw
}

/// The Table VI mechanism: simulated event count scales ~linearly with
/// s/B + s_remote/b on the full CMS workload.
#[test]
fn event_count_follows_granularity_law() {
    let w = cms_workload();
    let cache = CachePlan::new(&w, 0.0, 1); // all remote: chunk-dominated
    let hw = tuned_hardware();

    let mut events = Vec::new();
    for g in [XRootDConfig::paper_1s(), XRootDConfig::paper_3s()] {
        let trace = simulate(&catalog::scsn(), &w, &cache, &SimConfig::new(hw, g));
        events.push(trace.engine_events as f64);
    }
    // B and b both shrink 10x from paper_1s to paper_3s; chunk events
    // dominate at ICD 0, so the ratio should be ~10 (within 2x slack for
    // fixed per-job overheads).
    let ratio = events[1] / events[0];
    assert!((5.0..20.0).contains(&ratio), "event ratio {ratio}");
}

/// Each platform's documented bottleneck drives its fully-cached regime.
#[test]
fn platform_bottlenecks_match_table_ii_expectations() {
    let w = scaled_cms_workload(30, 4, 40e6);
    let hw = tuned_hardware();
    let g = XRootDConfig::new(8e6, 2e6);
    let cache = CachePlan::new(&w, 1.0, 1);

    let mut means = std::collections::HashMap::new();
    for kind in PlatformKind::ALL {
        let trace = simulate(&kind.spec(), &w, &cache, &SimConfig::new(hw, g));
        means.insert(kind, trace.mean_job_time());
    }
    // Fully cached: FC platforms (page cache) are far faster than SC
    // platforms (17 MBps HDD), and the network flavour is irrelevant.
    assert!(means[&PlatformKind::Fcfn] * 5.0 < means[&PlatformKind::Scfn]);
    assert!(means[&PlatformKind::Fcsn] * 5.0 < means[&PlatformKind::Scsn]);
    let fc_ratio = means[&PlatformKind::Fcfn] / means[&PlatformKind::Fcsn];
    assert!((0.95..1.05).contains(&fc_ratio), "WAN must not matter at ICD 1: {fc_ratio}");
}

/// The WAN flavour dominates at ICD 0 (everything remote).
#[test]
fn network_flavour_dominates_at_icd_zero() {
    let w = scaled_cms_workload(30, 4, 40e6);
    let hw_slow = tuned_hardware();
    let mut hw_fast = hw_slow;
    hw_fast.wan_bw = units::mbps(11_500.0);
    let g = XRootDConfig::new(8e6, 2e6);
    let cache = CachePlan::new(&w, 0.0, 1);
    let slow = simulate(&catalog::scsn(), &w, &cache, &SimConfig::new(hw_slow, g));
    let fast = simulate(&catalog::scfn(), &w, &cache, &SimConfig::new(hw_fast, g));
    assert!(
        fast.mean_job_time() * 2.0 < slow.mean_job_time(),
        "fast WAN {} vs slow WAN {}",
        fast.mean_job_time(),
        slow.mean_job_time()
    );
}

/// Full-pipeline determinism: identical configurations produce identical
/// traces, including through the validator.
#[test]
fn full_pipeline_is_deterministic() {
    let w = scaled_cms_workload(30, 4, 40e6);
    let p = catalog::fcsn();
    let cache = CachePlan::new(&w, 0.5, 9);
    let cfg = SimConfig::new(tuned_hardware(), XRootDConfig::new(8e6, 2e6));
    let a = simulate(&p, &w, &cache, &cfg);
    let b = simulate(&p, &w, &cache, &cfg);
    assert_eq!(a.jobs, b.jobs);
    assert_eq!(a.engine_events, b.engine_events);
    check_trace(&a, &w, &p);
}

/// Write-through (ground-truth realism) slows cached reads on HDD
/// platforms at intermediate ICD — the systematic gap the calibrated
/// simulator cannot represent.
#[test]
fn write_through_loads_the_hdd() {
    let w = scaled_cms_workload(30, 4, 40e6);
    let p = catalog::scsn();
    let cache = CachePlan::new(&w, 0.5, 9);
    let mut cfg = SimConfig::new(tuned_hardware(), XRootDConfig::new(8e6, 2e6));
    let without = simulate(&p, &w, &cache, &cfg);
    cfg.cache_write_through = true;
    let with = simulate(&p, &w, &cache, &cfg);
    assert!(
        with.mean_job_time() > without.mean_job_time() * 1.02,
        "write-through should slow the run: {} vs {}",
        with.mean_job_time(),
        without.mean_job_time()
    );
}

/// A write-through cache write is fire-and-forget and, on a slow disk,
/// outlasts the job that issued it. The horizon loop takes a finished
/// job's run, so the late completion finds none: it must be dropped, as
/// the run-to-completion loop (the control) in effect does.
#[test]
fn cache_write_outlasting_its_job_is_dropped_by_the_horizon_loop() {
    let w = scaled_cms_workload(4, 2, 50e6);
    let p = catalog::scsn();
    let cache = CachePlan::new(&w, 0.0, 1);
    let mut hw = HardwareParams::defaults();
    hw.disk_bw = 1e5;
    let mut cfg = SimConfig::new(hw, XRootDConfig::new(25e6, 25e6));
    cfg.cache_write_through = true;
    let mut session = SimSession::new();
    let control = session.try_run(&p, &w, &cache, &cfg).expect("run to completion");
    assert_eq!(control.jobs.len(), 4);
    let horizon = session
        .try_run_horizon(&p, &w, &cache, &cfg, &HorizonSpec::new(1e7))
        .expect("a late cache write is not an error");
    assert_eq!(horizon.trace.jobs, control.jobs, "the horizon outlasts every job");
}
