//! Calibration algorithms.
//!
//! The paper's three (§III-B): [`GridSearch`] (GRID), [`RandomSearch`]
//! (RANDOM), and [`GradientDescent`] (GDFIX with `dynamic = false`, GDDYN
//! with `dynamic = true`). Plus the extensions it motivates as future work:
//! [`SimulatedAnnealing`], [`NelderMead`], [`CoordinateDescent`], and
//! [`BayesianOpt`] (Bayesian optimization over an in-repo Gaussian process —
//! "an attractive proposition as it is highly effective for optimizing
//! black-box functions that are relatively expensive to evaluate").
//!
//! All algorithms drive a budget-bounded [`Evaluator`] and simply stop when
//! it refuses further evaluations; every evaluation lands in the shared
//! history, from which the final [`CalibrationResult`] (best point +
//! convergence curve) is assembled.

mod anneal;
mod bayesian;
mod coordinate;
mod gradient;
mod grid;
mod nelder_mead;
mod random;

pub use anneal::SimulatedAnnealing;
pub use bayesian::BayesianOpt;
pub use coordinate::CoordinateDescent;
pub use gradient::GradientDescent;
pub use grid::GridSearch;
pub use nelder_mead::NelderMead;
pub use random::RandomSearch;

use crate::budget::{Budget, BudgetTracker};
use crate::history::History;
use crate::objective::Objective;
use crate::result::CalibrationResult;
use crate::runner::Evaluator;
use crate::space::ParamSpace;

/// A calibration algorithm: proposes points and drives the evaluator until
/// the budget is exhausted.
pub trait Calibrator {
    /// Display name (e.g. `"RANDOM"`, `"GDFix"`).
    fn name(&self) -> String;

    /// Run until the evaluator's budget is exhausted.
    fn run(&mut self, eval: &Evaluator<'_>);
}

/// Run one calibration: build the budget tracker, history, and evaluator,
/// drive `algo`, and assemble the result.
pub fn calibrate(
    algo: &mut dyn Calibrator,
    objective: &dyn Objective,
    space: &ParamSpace,
    budget: Budget,
) -> CalibrationResult {
    calibrate_with_workers(algo, objective, space, budget, None)
}

/// [`calibrate`] with an explicit worker count (`None` = all cores).
pub fn calibrate_with_workers(
    algo: &mut dyn Calibrator,
    objective: &dyn Objective,
    space: &ParamSpace,
    budget: Budget,
    workers: Option<usize>,
) -> CalibrationResult {
    let tracker = BudgetTracker::new(budget);
    let history = History::new();
    let mut evaluator = Evaluator::new(objective, space, &tracker, &history);
    if let Some(w) = workers {
        evaluator = evaluator.with_workers(w);
    }
    let name = algo.name();
    algo.run(&evaluator);
    CalibrationResult::from_history(&name, &history)
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared toy objectives for algorithm tests.

    use crate::objective::FnObjective;

    /// Smooth bowl in log2 space with minimum 0 at `2^28` on every axis
    /// (unit coordinate 0.5 under the paper range).
    pub fn log_sphere() -> FnObjective<impl Fn(&[f64]) -> f64 + Sync> {
        FnObjective(|v: &[f64]| v.iter().map(|x| (x.log2() - 28.0).powi(2)).sum::<f64>())
    }

    /// A "mostly flat" objective: only the first parameter matters — the
    /// paper's bottleneck-resource situation (§IV-C2).
    pub fn bottleneck() -> FnObjective<impl Fn(&[f64]) -> f64 + Sync> {
        FnObjective(|v: &[f64]| (v[0].log2() - 24.0).abs())
    }

    /// Run an algorithm on the log-sphere with the given budget and return
    /// (best_error, evaluations).
    pub fn run_on_sphere(
        algo: &mut dyn super::Calibrator,
        dim: usize,
        evals: u64,
    ) -> crate::result::CalibrationResult {
        let names: Vec<String> = (0..dim).map(|i| format!("p{i}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let space = crate::space::ParamSpace::paper(&refs);
        let obj = log_sphere();
        super::calibrate_with_workers(
            algo,
            &obj,
            &space,
            crate::budget::Budget::Evaluations(evals),
            Some(1),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::*;
    use super::*;

    #[test]
    fn calibrate_assembles_result() {
        let mut algo = RandomSearch::new(42);
        let r = run_on_sphere(&mut algo, 2, 50);
        assert_eq!(r.algorithm, "RANDOM");
        assert_eq!(r.evaluations, 50);
        assert_eq!(r.curve.len(), 50);
        assert!(r.best_error.is_finite());
        // Random search over [2^20, 2^36]^2 should land within a few log2
        // units of the optimum at 2^28.
        assert!(r.best_error < 30.0, "best={}", r.best_error);
    }

    #[test]
    fn all_algorithms_respect_budget() {
        let algos: Vec<Box<dyn Calibrator>> = vec![
            Box::new(RandomSearch::new(1)),
            Box::new(GridSearch::new()),
            Box::new(GradientDescent::fixed(1)),
            Box::new(GradientDescent::dynamic(1)),
            Box::new(SimulatedAnnealing::new(1)),
            Box::new(NelderMead::new(1)),
            Box::new(CoordinateDescent::new(1)),
            Box::new(BayesianOpt::new(1)),
        ];
        for mut a in algos {
            let r = run_on_sphere(a.as_mut(), 3, 40);
            assert_eq!(r.evaluations, 40, "{} must use exactly the budget", r.algorithm);
        }
    }
}
