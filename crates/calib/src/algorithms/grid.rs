//! GRID: grid search with progressive midpoint refinement.
//!
//! "This algorithm evaluates all parameter combinations by subdividing the
//! parameter space evenly in each parameter range. As the number of
//! subdivisions is not known in advance, each time all current subdivisions
//! of the range have been sampled, a new set of points to sample is
//! determined using the midpoints between each pair of already sampled
//! points."
//!
//! Level 0 evaluates the corners `{0, 1}^d` of the (log-scaled) unit cube;
//! level `k` evaluates every point of the `(2^k + 1)^d` lattice not already
//! present at level `k - 1` (i.e. points with at least one odd lattice
//! coordinate). Points are generated lazily in lexicographic order so the
//! budget can cut a level anywhere.
//!
//! Only the best point matters, so every chunk is evaluated capped at the
//! incumbent ([`Evaluator::eval_batch_capped`]).

use super::Calibrator;
use crate::runner::Evaluator;

/// Progressive grid refinement.
#[derive(Debug, Clone, Default)]
pub struct GridSearch {
    chunk: usize,
}

impl GridSearch {
    /// A grid search with the default evaluation chunk size.
    pub fn new() -> Self {
        Self { chunk: 32 }
    }

    /// Points submitted per evaluator batch.
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        assert!(chunk > 0);
        self.chunk = chunk;
        self
    }

    /// Lattice points of refinement level `level` in `dim` dimensions that
    /// are *new* at this level, in lexicographic order.
    fn level_points(level: u32, dim: usize) -> LevelIter {
        LevelIter { level, dim, counters: vec![0; dim], done: false }
    }
}

/// Lazy iterator over the new lattice points of one refinement level.
struct LevelIter {
    level: u32,
    dim: usize,
    counters: Vec<u64>,
    done: bool,
}

impl Iterator for LevelIter {
    type Item = Vec<f64>;

    fn next(&mut self) -> Option<Vec<f64>> {
        let side = (1u64 << self.level) + 1; // lattice points per dimension
        loop {
            if self.done {
                return None;
            }
            let counters = self.counters.clone();
            // Advance the odometer.
            let mut i = self.dim;
            loop {
                if i == 0 {
                    self.done = true;
                    break;
                }
                i -= 1;
                self.counters[i] += 1;
                if self.counters[i] < side {
                    break;
                }
                self.counters[i] = 0;
            }
            // Level 0 keeps all (corner) points; level k keeps points with
            // at least one odd coordinate (the rest existed at level k-1).
            let is_new = self.level == 0 || counters.iter().any(|c| c % 2 == 1);
            if is_new {
                let denom = (side - 1) as f64;
                return Some(counters.iter().map(|&c| c as f64 / denom).collect());
            }
        }
    }
}

impl Calibrator for GridSearch {
    fn name(&self) -> String {
        "GRID".to_string()
    }

    fn run(&mut self, eval: &Evaluator<'_>) {
        let dim = eval.space().dim();
        // Depth 40 is unreachable in practice; the budget stops us first.
        for level in 0..40u32 {
            let mut iter = Self::level_points(level, dim).peekable();
            while iter.peek().is_some() {
                let batch: Vec<Vec<f64>> = iter.by_ref().take(self.chunk).collect();
                let results = eval.eval_batch_capped(&batch);
                if results.iter().any(Option::is_none) {
                    return;
                }
            }
            if eval.exhausted() {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::run_on_sphere;
    use super::*;

    fn collect_level(level: u32, dim: usize) -> Vec<Vec<f64>> {
        GridSearch::level_points(level, dim).collect()
    }

    #[test]
    fn level_zero_is_corners() {
        let pts = collect_level(0, 2);
        assert_eq!(pts.len(), 4);
        assert!(pts.contains(&vec![0.0, 0.0]));
        assert!(pts.contains(&vec![1.0, 1.0]));
    }

    #[test]
    fn level_one_adds_midpoints_only() {
        let pts = collect_level(1, 2);
        // 3^2 = 9 lattice points, minus the 4 corners already evaluated.
        assert_eq!(pts.len(), 5);
        assert!(pts.contains(&vec![0.5, 0.5]));
        assert!(pts.contains(&vec![0.0, 0.5]));
        assert!(!pts.contains(&vec![0.0, 0.0]));
    }

    #[test]
    fn levels_partition_the_lattice() {
        // Corners + new points of levels 1..=3 must equal the full level-3
        // lattice (9^2 points), without duplicates.
        let mut all: Vec<Vec<f64>> = Vec::new();
        for level in 0..=3 {
            all.extend(collect_level(level, 2));
        }
        assert_eq!(all.len(), 81);
        let mut keys: Vec<String> = all.iter().map(|p| format!("{p:?}")).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 81, "duplicate lattice points across levels");
    }

    #[test]
    fn four_dims_level_counts() {
        assert_eq!(collect_level(0, 4).len(), 16); // 2^4 corners
        assert_eq!(collect_level(1, 4).len(), 81 - 16); // 3^4 - 2^4
        assert_eq!(collect_level(2, 4).len(), 625 - 81); // 5^4 - 3^4
    }

    #[test]
    fn converges_on_smooth_objective() {
        // 2-D: corners(4) + level1(5) + level2(16) + ... 100 evals reaches
        // lattice spacing 1/8 around the optimum at (0.5, 0.5) — which the
        // level-1 midpoint hits exactly.
        let r = run_on_sphere(&mut GridSearch::new(), 2, 100);
        assert!(r.best_error < 1e-9, "best={}", r.best_error);
    }

    #[test]
    fn is_deterministic() {
        let a = run_on_sphere(&mut GridSearch::new(), 3, 64);
        let b = run_on_sphere(&mut GridSearch::new(), 3, 64);
        assert_eq!(a.best_values, b.best_values);
    }
}
