//! Property-based tests of the calibration framework through the public
//! API: parameter-space transforms, history invariants, budget
//! accounting, worker-count invariance, and non-finite objective values.

use proptest::prelude::*;

use simcal::calib::{
    calibrate_with_workers, BayesianOpt, Budget, CalibrationResult, Calibrator, CoordinateDescent,
    FnObjective, GradientDescent, GridSearch, History, NelderMead, ParamSpace, ParamSpec,
    RandomSearch, SimulatedAnnealing,
};

/// All eight algorithms, seeded.
fn every_algorithm(seed: u64) -> Vec<Box<dyn Calibrator>> {
    vec![
        Box::new(RandomSearch::new(seed)),
        Box::new(GridSearch::new()),
        Box::new(GradientDescent::fixed(seed)),
        Box::new(GradientDescent::dynamic(seed)),
        Box::new(SimulatedAnnealing::new(seed)),
        Box::new(NelderMead::new(seed)),
        Box::new(CoordinateDescent::new(seed)),
        Box::new(BayesianOpt::new(seed)),
    ]
}

/// The smooth bowl in log2 space, minimum 0 at `2^28` on every axis.
fn log_sphere(v: &[f64]) -> f64 {
    v.iter().map(|x| (x.log2() - 28.0).powi(2)).sum()
}

/// Everything about a result that must not depend on the worker count:
/// the best point and error, and the error column of the convergence
/// curve (its cost column is measured wall time).
fn outcome(r: &CalibrationResult) -> (Vec<u64>, u64, Vec<u64>) {
    (
        r.best_values.iter().map(|v| v.to_bits()).collect(),
        r.best_error.to_bits(),
        r.curve.iter().map(|&(_, e)| e.to_bits()).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Log2 unit-cube transform round-trips for arbitrary positive ranges.
    #[test]
    fn space_round_trips(
        lo_exp in -10.0f64..20.0,
        width_exp in 0.1f64..30.0,
        u in 0.0f64..1.0,
    ) {
        let lo = lo_exp.exp2();
        let hi = (lo_exp + width_exp).exp2();
        let spec = ParamSpec::new("p", lo, hi);
        let v = spec.value_of(u);
        prop_assert!(v >= lo * (1.0 - 1e-9) && v <= hi * (1.0 + 1e-9));
        prop_assert!((spec.unit_of(v) - u).abs() < 1e-6);
    }

    /// The geometric-mean property of log sampling: the unit midpoint of
    /// [a, b] maps to sqrt(a*b).
    #[test]
    fn log_midpoint_is_geometric_mean(lo_exp in -5.0f64..10.0, width in 0.5f64..20.0) {
        let lo = lo_exp.exp2();
        let hi = (lo_exp + width).exp2();
        let spec = ParamSpec::new("p", lo, hi);
        let mid = spec.value_of(0.5);
        prop_assert!(((mid * mid) / (lo * hi) - 1.0).abs() < 1e-6);
    }

    /// Budget accounting: any algorithm on any evaluation budget uses
    /// exactly that many evaluations (when the search space is non-trivial).
    #[test]
    fn budgets_are_exact(evals in 1u64..60, seed in 0u64..1000) {
        let space = ParamSpace::paper(&["a", "b"]);
        let obj = FnObjective(|v: &[f64]| v[0].log2() + v[1].log2());
        let mut algo = RandomSearch::new(seed);
        let r = calibrate_with_workers(
            &mut algo, &obj, &space, Budget::Evaluations(evals), Some(1));
        prop_assert_eq!(r.evaluations, evals);
        prop_assert_eq!(r.curve.len() as u64, evals);
    }

    /// Convergence curves are non-increasing in error and non-decreasing
    /// in cost.
    #[test]
    fn curves_are_monotone(evals in 2u64..80, seed in 0u64..1000) {
        let space = ParamSpace::paper(&["a", "b", "c"]);
        let obj = FnObjective(|v: &[f64]| (v[0].log2() - 27.0).abs() * (v[1].log2() - 29.0).abs());
        let mut algo: Box<dyn Calibrator> = if seed % 2 == 0 {
            Box::new(RandomSearch::new(seed))
        } else {
            Box::new(GridSearch::new())
        };
        let r = calibrate_with_workers(
            algo.as_mut(), &obj, &space, Budget::Evaluations(evals), Some(1));
        for w in r.curve.windows(2) {
            prop_assert!(w[1].1 <= w[0].1 + 1e-12);
            prop_assert!(w[1].0 >= w[0].0 - 1e-12);
        }
        prop_assert!((r.curve.last().unwrap().1 - r.best_error).abs() < 1e-12);
    }

    /// History best() agrees with a linear scan.
    #[test]
    fn history_best_is_min(errors in proptest::collection::vec(0.0f64..1e6, 1..50)) {
        let h = History::new();
        for (i, &e) in errors.iter().enumerate() {
            h.push(i as f64, vec![e], e);
        }
        let best = h.best().unwrap();
        let min = errors.iter().copied().fold(f64::INFINITY, f64::min);
        prop_assert_eq!(best.error, min);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every algorithm gives the same best point, best error and
    /// convergence curve at 1 worker as at 2, 3 or 4.
    #[test]
    fn results_are_worker_count_invariant(
        seed in 0u64..1000,
        evals in 1u64..60,
        workers in 2usize..=4,
    ) {
        let space = ParamSpace::paper(&["a", "b", "c"]);
        // A point-dependent sleep makes parallel workers finish out of
        // order, as real simulations do.
        let obj = FnObjective(|v: &[f64]| {
            std::thread::sleep(std::time::Duration::from_micros(v[0].to_bits() % 200));
            log_sphere(v)
        });
        let serial = every_algorithm(seed);
        for (mut one, mut many) in serial.into_iter().zip(every_algorithm(seed)) {
            let budget = Budget::Evaluations(evals);
            let a = calibrate_with_workers(one.as_mut(), &obj, &space, budget, Some(1));
            let b = calibrate_with_workers(many.as_mut(), &obj, &space, budget, Some(workers));
            prop_assert_eq!(outcome(&a), outcome(&b), "{} at {} workers", a.algorithm, workers);
        }
    }
}

/// A NaN (or +inf) objective over part of the space neither freezes an
/// algorithm nor kills the run: every algorithm spends its whole budget,
/// and annealing, which restarts away from the bad region, finds a finite
/// best.
#[test]
fn non_finite_objective_values_do_not_stall_or_kill_a_run() {
    let space = ParamSpace::paper(&["a", "b", "c"]);
    for bad in [f64::NAN, f64::INFINITY] {
        let obj =
            FnObjective(move |v: &[f64]| if v[0] > 2f64.powi(29) { bad } else { log_sphere(v) });
        for mut algo in every_algorithm(1) {
            let r = calibrate_with_workers(
                algo.as_mut(),
                &obj,
                &space,
                Budget::Evaluations(60),
                Some(1),
            );
            assert_eq!(r.evaluations, 60, "{} under {bad}", r.algorithm);
            assert_eq!(r.curve.len(), 60, "{} under {bad}", r.algorithm);
            if r.algorithm == "ANNEAL" {
                assert!(r.best_error.is_finite(), "ANNEAL under {bad}: {}", r.best_error);
            }
        }
    }
}

/// Grid refinement covers the cube increasingly densely: after enough
/// levels, every cell of a fixed partition contains an evaluated point.
#[test]
fn grid_coverage_becomes_dense() {
    use std::sync::Mutex;
    let seen = Mutex::new(Vec::<Vec<f64>>::new());
    let obj = FnObjective(|v: &[f64]| {
        seen.lock().unwrap().push(v.to_vec());
        0.0
    });
    let space = ParamSpace::paper(&["a", "b"]);
    let mut algo = GridSearch::new();
    calibrate_with_workers(&mut algo, &obj, &space, Budget::Evaluations(90), Some(1));
    // 90 evals cover levels 0..=2 (4 + 5 + 16 = 25 points) and most of
    // level 3; check the level-2 5x5 lattice in unit space is complete.
    let pts = seen.lock().unwrap();
    let units: Vec<Vec<f64>> = pts.iter().map(|p| space.unit_of(p)).collect();
    for i in 0..=4 {
        for j in 0..=4 {
            let (x, y) = (i as f64 / 4.0, j as f64 / 4.0);
            assert!(
                units.iter().any(|u| (u[0] - x).abs() < 1e-6 && (u[1] - y).abs() < 1e-6),
                "lattice point ({x}, {y}) never evaluated"
            );
        }
    }
}
