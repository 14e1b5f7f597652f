//! Property-based tests of the calibration framework through the public
//! API: parameter-space transforms, history invariants, budget
//! accounting, worker-count invariance, non-finite objective values, and
//! adaptive capping.

use proptest::prelude::*;

use simcal::calib::{
    calibrate_with_workers, BayesianOpt, Budget, CalibrationResult, Calibrator, CoordinateDescent,
    EvalContext, Evaluation, FnObjective, GradientDescent, GridSearch, History, MeanFold,
    NelderMead, Objective, ParamSpace, ParamSpec, RandomSearch, SimulatedAnnealing,
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

/// A toy objective of four blocks of two non-negative terms, one block
/// per "simulation", that honours the cap the way the case study does.
/// A point's value is `Σ terms / 8`, exact, so every rounding of the sum
/// shows. The terms are 0.1, 0.2 and 0.3 at point-dependent positions in
/// the first seven slots, zeros, and a coarse level term (`v[0]`'s
/// distance from `2^28`) in the last. So the best level's values tie or
/// differ in the last bit by the order of the three, and a bound computed
/// any other way than the finished value's own prefix rounds past it.
struct Blocks;

impl Blocks {
    /// The point's blocks, drawn lazily. A point-dependent sleep makes
    /// parallel workers finish out of order.
    fn blocks(v: &[f64]) -> impl ExactSizeIterator<Item = Vec<f64>> {
        let mut h = v.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, x| {
            (h ^ x.to_bits()).wrapping_mul(0x1000_0000_01b3)
        });
        std::thread::sleep(std::time::Duration::from_micros(h % 50));
        let mut terms = [0.0; 8];
        terms[7] = ((v[0].log2() - 28.0).abs() / 4.0).floor() * 0.7;
        for t in [0.1, 0.2, 0.3] {
            loop {
                h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17);
                let slot = (h >> 32) as usize % 7;
                if terms[slot] == 0.0 {
                    terms[slot] = t;
                    break;
                }
            }
        }
        (0..4).map(move |b| terms[2 * b..2 * b + 2].to_vec())
    }
}

impl Objective for Blocks {
    fn evaluate(&self, v: &[f64]) -> f64 {
        self.evaluate_with(&mut EvalContext::new(), v)
    }

    fn evaluate_capped(&self, _ctx: &mut EvalContext, v: &[f64], cap: f64) -> Evaluation {
        let mut fold = MeanFold::new(1.0, 8);
        match fold.fold_capped(Self::blocks(v), cap, MeanFold::value) {
            Some(bound) => Evaluation::capped(bound),
            None => Evaluation::done(fold.value()),
        }
    }
}

/// The same objective with capping hidden behind the default
/// `evaluate_capped`, which never caps; it records the points it is
/// asked for, in order.
struct Hidden(std::sync::Mutex<Vec<Vec<f64>>>);

impl Objective for Hidden {
    fn evaluate(&self, v: &[f64]) -> f64 {
        self.0.lock().unwrap().push(v.to_vec());
        Blocks.evaluate(v)
    }
}

/// How many of `points`, evaluated in batches of `batch`, a capped run
/// must cap: those whose fold reaches the best finished value of the
/// batches before theirs.
fn expected_capped(points: &[Vec<f64>], batch: usize) -> u64 {
    let (mut best, mut capped) = (f64::INFINITY, 0);
    for chunk in points.chunks(batch) {
        let cap = best;
        for p in chunk {
            capped += u64::from(Blocks.evaluate_capped(&mut EvalContext::new(), p, cap).capped);
            best = best.min(Blocks.evaluate(p));
        }
    }
    capped
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Capping is invisible in RANDOM's and GRID's results: the best
    /// point, best error and curve equal the uncapped run's, bit for bit,
    /// at 1 and 2 workers. The capped points are exactly those whose bound
    /// reached the incumbent as of their batch's start, at any worker
    /// count.
    #[test]
    fn capping_leaves_random_and_grid_results_unchanged(seed in 1u64..=10, evals in 1u64..60) {
        const BATCH: usize = 8;
        let space = ParamSpace::paper(&["a", "b", "c"]);
        let algos = || -> Vec<Box<dyn Calibrator>> {
            vec![
                Box::new(RandomSearch::new(seed).with_batch(BATCH)),
                Box::new(GridSearch::new().with_chunk(BATCH)),
            ]
        };
        let budget = Budget::Evaluations(evals);
        for (mut plain, mut algo) in algos().into_iter().zip(algos()) {
            let hidden = Hidden(Default::default());
            let reference = calibrate_with_workers(plain.as_mut(), &hidden, &space, budget, Some(1));
            prop_assert_eq!(reference.capped, 0);
            let mut capped = Vec::new();
            for workers in [1, 2] {
                let r = calibrate_with_workers(algo.as_mut(), &Blocks, &space, budget, Some(workers));
                prop_assert_eq!(outcome(&r), outcome(&reference), "{} at {} workers", r.algorithm, workers);
                prop_assert_eq!(r.evaluations, reference.evaluations);
                capped.push(r.capped);
            }
            prop_assert_eq!(capped[0], capped[1], "{}: capped points depend on the worker count", reference.algorithm);
            if reference.algorithm == "RANDOM" {
                // GRID's batches restart at each refinement level.
                let points = hidden.0.into_inner().unwrap();
                prop_assert_eq!(capped[0], expected_capped(&points, BATCH));
            }
            if evals >= 30 {
                prop_assert!(capped[0] > 0, "{} capped nothing in {} evaluations", reference.algorithm, evals);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A capped fold's bound never exceeds the value the fold finishes
    /// with — compared exactly, not within a tolerance — for term vectors
    /// with zeros (where a prefix already equals the finished value) cut
    /// into blocks anywhere, and capped anywhere up to that value.
    #[test]
    fn capped_bounds_never_exceed_the_finished_value(
        terms in proptest::collection::vec(proptest::option::of(0.0f64..1e3), 1..40),
        cuts in proptest::collection::vec(1usize..6, 1..12),
        cap_at in 0.0f64..1.0,
        cap_exact in 0u32..2,
        percent in 0u32..2,
    ) {
        let terms: Vec<f64> = terms.into_iter().map(|t| t.unwrap_or(0.0)).collect();
        let scale = if percent == 1 { 100.0 } else { 1.0 };
        let mut blocks = Vec::new();
        let mut rest = &terms[..];
        for &c in cuts.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (block, tail) = rest.split_at(c.min(rest.len()));
            blocks.push(block.to_vec());
            rest = tail;
        }
        let mut finished = MeanFold::new(scale, terms.len());
        terms.iter().for_each(|&t| finished.add(t));
        let finished = finished.value();
        // Every prefix is a lower bound on the finished value.
        let mut prefix = MeanFold::new(scale, terms.len());
        for &t in &terms {
            prefix.add(t);
            prop_assert!(prefix.value() <= finished, "{} > {}", prefix.value(), finished);
        }
        // A returned bound reached the cap and stays at or below the
        // finished value; a cap equal to it is reached as soon as the
        // remaining blocks are all zeros.
        let cap = if cap_exact == 1 { finished } else { finished * cap_at };
        let mut fold = MeanFold::new(scale, terms.len());
        match fold.fold_capped(blocks.iter().map(|b| b.iter().copied()), cap, MeanFold::value) {
            Some(bound) => {
                prop_assert!(bound >= cap && bound <= finished, "cap {} bound {} finished {}", cap, bound, finished);
            }
            None => prop_assert_eq!(fold.value().to_bits(), finished.to_bits()),
        }
    }
}
