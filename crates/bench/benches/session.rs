//! Cold-build vs session-reuse evaluation cost.
//!
//! The calibration hot loop evaluates one candidate parameter set by
//! running the simulator once per calibration ICD value. Before the
//! `SimSession` refactor every evaluation rebuilt the engine, platform
//! resources, and scheduler from cold allocations; with per-worker
//! sessions those arenas are built once and reset between runs. This
//! bench records both paths so the speedup stays on the record
//! (`BENCH_session.json`).
//!
//! One level up, `calibration_reduced_150evals` times whole calibrations —
//! the paper's loop — on the reduced FCSN objective (11 ICD simulations
//! per point). RANDOM keeps only its best point, so it caps each point
//! once its partial MRE reaches the incumbent; GDFix needs every value and
//! never caps, which makes it the same-run reference for CI's ratio gate.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

use simcal_calib::{
    calibrate_with_workers, Budget, Calibrator, EvalContext, GradientDescent, Objective,
    RandomSearch,
};
use simcal_platform::{catalog, HardwareParams, PlatformKind};
use simcal_sim::{simulate, SimConfig, SimSession};
use simcal_storage::{CachePlan, XRootDConfig};
use simcal_study::{param_space, CaseObjective};
use simcal_units as units;
use simcal_workload::cms_workload;

fn paper_hardware() -> HardwareParams {
    let mut hw = HardwareParams::defaults();
    hw.core_speed = units::mflops(1970.0);
    hw.disk_bw = units::mbytes_per_sec(17.0);
    hw.page_cache_bw = units::gbytes_per_sec(10.0);
    hw.wan_bw = units::mbps(1150.0);
    hw
}

/// One full CMS simulation at the paper's fastest granularity: the
/// pipelined-chunk workload (half the files stream remotely in b-chunks,
/// half read locally in B-blocks, all overlapped with capped compute).
fn bench_simulate_paths(c: &mut Criterion) {
    let workload = cms_workload();
    let cache = CachePlan::new(&workload, 0.5, 1);
    let platform = catalog::scsn();
    let cfg = SimConfig::new(paper_hardware(), XRootDConfig::paper_1s());

    let mut group = c.benchmark_group("simulate_pipelined_chunks");
    group.sample_size(10).measurement_time(Duration::from_secs(8));
    group.bench_function("cold_build", |b| {
        b.iter(|| black_box(simulate(&platform, &workload, &cache, &cfg)).makespan());
    });
    group.bench_function("session_reuse", |b| {
        let mut session = SimSession::new();
        b.iter(|| black_box(session.run(&platform, &workload, &cache, &cfg)).makespan());
    });
    group.finish();
}

/// One objective evaluation (simulator run per calibration ICD value) —
/// the unit of work the evaluator's worker pool performs per candidate.
fn bench_objective_evaluation(c: &mut Criterion) {
    let case = simcal_bench::reduced_case();
    let obj =
        CaseObjective::new(&case, PlatformKind::Scsn, &[0.0, 0.5, 1.0], XRootDConfig::paper_1s());
    let values = [units::mflops(1970.0), units::mbytes_per_sec(17.0), 1.25e9, 1.4375e8];

    let mut group = c.benchmark_group("objective_evaluation");
    group.sample_size(10).measurement_time(Duration::from_secs(8));
    group.bench_function("cold_build", |b| {
        b.iter(|| black_box(obj.evaluate(&values)));
    });
    group.bench_function("session_reuse", |b| {
        let mut ctx = EvalContext::new();
        b.iter(|| black_box(Objective::evaluate_with(&obj, &mut ctx, &values)));
    });
    group.finish();
}

/// A whole 150-evaluation calibration on one worker, per algorithm.
fn bench_calibration(c: &mut Criterion) {
    let case = simcal_bench::reduced_case();
    let obj = CaseObjective::full(&case, PlatformKind::Fcsn, XRootDConfig::paper_1s());
    let space = param_space();
    let calibrate = |algo: &mut dyn Calibrator| {
        calibrate_with_workers(algo, &obj, &space, Budget::Evaluations(150), Some(1))
    };

    let mut group = c.benchmark_group("calibration_reduced_150evals");
    group.sample_size(10).measurement_time(Duration::from_secs(10));
    group.bench_function("random", |b| b.iter(|| black_box(calibrate(&mut RandomSearch::new(1)))));
    group.bench_function("gdfix", |b| {
        b.iter(|| black_box(calibrate(&mut GradientDescent::fixed(2))));
    });
    group.finish();
}

criterion_group!(benches, bench_simulate_paths, bench_objective_evaluation, bench_calibration);
criterion_main!(benches);
