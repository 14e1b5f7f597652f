//! RANDOM: uniform random search.
//!
//! "This algorithm simply evaluates sets of random parameter values, where
//! each value is sampled uniformly in its parameter range" — uniformly in
//! *log2* space, per the paper's parameter representation.
//!
//! Only the best point matters, so every batch is evaluated capped at the
//! incumbent ([`Evaluator::eval_batch_capped`]): a point whose partial
//! error already reaches it stops early, with the same result.

use rand::rngs::StdRng;
use rand::SeedableRng;

use super::Calibrator;
use crate::runner::Evaluator;

/// Uniform random search in the (log-scaled) unit cube.
#[derive(Debug, Clone)]
pub struct RandomSearch {
    seed: u64,
    batch: usize,
}

impl RandomSearch {
    /// A random search with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Self { seed, batch: 16 }
    }

    /// Number of points proposed per evaluator batch (affects parallel
    /// utilisation only, not the sampled sequence).
    pub fn with_batch(mut self, batch: usize) -> Self {
        assert!(batch > 0);
        self.batch = batch;
        self
    }
}

impl Calibrator for RandomSearch {
    fn name(&self) -> String {
        "RANDOM".to_string()
    }

    fn run(&mut self, eval: &Evaluator<'_>) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        while !eval.exhausted() {
            let points: Vec<Vec<f64>> =
                (0..self.batch).map(|_| eval.space().sample_unit(&mut rng)).collect();
            let results = eval.eval_batch_capped(&points);
            if results.iter().any(Option::is_none) {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::run_on_sphere;
    use super::*;

    #[test]
    fn converges_on_smooth_objective() {
        let mut algo = RandomSearch::new(7);
        let r = run_on_sphere(&mut algo, 2, 400);
        assert!(r.best_error < 3.0, "best={}", r.best_error);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = run_on_sphere(&mut RandomSearch::new(3), 2, 60);
        let b = run_on_sphere(&mut RandomSearch::new(3), 2, 60);
        assert_eq!(a.best_values, b.best_values);
        let c = run_on_sphere(&mut RandomSearch::new(4), 2, 60);
        assert_ne!(a.best_values, c.best_values);
    }

    #[test]
    fn more_budget_never_hurts() {
        let small = run_on_sphere(&mut RandomSearch::new(5), 3, 30);
        let large = run_on_sphere(&mut RandomSearch::new(5), 3, 300);
        assert!(large.best_error <= small.best_error);
    }
}
