//! Simulator benchmark: one CMS-workload execution per paper granularity.
//!
//! The measured times are the per-simulation costs behind the paper's
//! Table VI "Sim. time" column (1 s / 3 s / 30 s / 5 min on the authors'
//! machine; proportionally scaled here). `emulator_fcsn` is the other
//! regime of the same simulator: the jittered ground-truth emulator, whose
//! chunks never finish in lock step, so nearly every event re-rates the
//! shared components instead of swapping into a twin's place.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use simcal_groundtruth::{ground_truth_scenario, TruthParams};
use simcal_platform::{catalog, HardwareParams, PlatformKind};
use simcal_sim::{simulate, SimConfig, SimSession};
use simcal_storage::{CachePlan, XRootDConfig};
use simcal_units as units;
use simcal_workload::{cms_workload, scaled_cms_workload};

fn bench_granularities(c: &mut Criterion) {
    let workload = cms_workload();
    let cache = CachePlan::new(&workload, 0.5, 1);
    let platform = catalog::fcsn();
    let mut hw = HardwareParams::defaults();
    hw.core_speed = units::mflops(1970.0);
    hw.disk_bw = units::mbytes_per_sec(17.0);
    hw.page_cache_bw = units::gbytes_per_sec(10.0);
    hw.wan_bw = units::mbps(1150.0);

    let mut group = c.benchmark_group("cms_simulation");
    group.sample_size(10).measurement_time(Duration::from_secs(8));
    for (label, g) in [
        ("paper_1s", XRootDConfig::paper_1s()),
        ("paper_3s", XRootDConfig::paper_3s()),
        ("paper_30s", XRootDConfig::paper_30s()),
    ] {
        let cfg = SimConfig::new(hw, g);
        group.bench_with_input(BenchmarkId::from_parameter(label), &cfg, |b, cfg| {
            b.iter(|| black_box(simulate(&platform, &workload, &cache, cfg)).makespan());
        });
    }

    // The reduced-scale case the calibration tests sweep (30 jobs x 4
    // files x 40 MB at coarse granularity): a few hundred kernel events
    // per run, so fixed per-event and per-solve machinery costs dominate.
    // PR 1 left this class ~25% slower than the seed engine; this entry
    // keeps the tiny-simulation regression observable.
    let reduced_wl = scaled_cms_workload(30, 4, 40e6);
    let reduced_cache = CachePlan::new(&reduced_wl, 0.5, 1);
    let reduced_cfg = SimConfig::new(hw, XRootDConfig::new(8e6, 2e6));
    group.bench_with_input(BenchmarkId::from_parameter("reduced"), &reduced_cfg, |b, cfg| {
        b.iter(|| black_box(simulate(&platform, &reduced_wl, &reduced_cache, cfg)).makespan());
    });
    group.finish();

    // The 5-minute setting is too slow for statistical sampling; measure a
    // single run so the Table VI cost ratios are still on record.
    let mut slow = c.benchmark_group("cms_simulation_slow");
    slow.sample_size(10).measurement_time(Duration::from_secs(20));
    let cfg = SimConfig::new(hw, XRootDConfig::paper_5min());
    slow.bench_function("paper_5min", |b| {
        b.iter(|| black_box(simulate(&platform, &workload, &cache, &cfg)).makespan());
    });
    slow.finish();
}

/// The ground-truth emulator on the full CMS workload: what every
/// full-scale table, figure and `calib-paper` set-up runs per (platform,
/// ICD) point before anything is calibrated. Per-chunk read jitter keeps
/// completions apart (≈1 in 4 reissues finds a twin to swap with, against
/// 97% at `paper_5min`), so each event re-solves a ~27-flow component —
/// the regime the component clocks exist for.
fn bench_emulator(c: &mut Criterion) {
    let workload = Arc::new(cms_workload());
    let truth = TruthParams::case_study();
    let mut group = c.benchmark_group("emulator_fcsn");
    group.sample_size(10).measurement_time(Duration::from_secs(8));
    for (label, icd) in [("icd0", 0.0), ("icd0.5", 0.5)] {
        let scenario = ground_truth_scenario(PlatformKind::Fcsn, &workload, &truth, icd);
        let mut session = SimSession::new();
        group.bench_with_input(BenchmarkId::from_parameter(label), &scenario, |b, sc| {
            b.iter(|| black_box(sc.run(&mut session)).makespan());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_granularities, bench_emulator);
criterion_main!(benches);
