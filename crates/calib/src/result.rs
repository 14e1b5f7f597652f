//! Calibration results.

use crate::history::History;
use crate::space::ParamSpace;

/// Outcome of one calibration run.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationResult {
    /// Algorithm name (e.g. `"RANDOM"`).
    pub algorithm: String,
    /// Best natural parameter values found.
    pub best_values: Vec<f64>,
    /// Objective value at the best point (e.g. MRE %).
    pub best_error: f64,
    /// Total completed evaluations, capped ones included.
    pub evaluations: u64,
    /// Evaluations stopped early because their partial error reached the
    /// incumbent (RANDOM and GRID only).
    pub capped: u64,
    /// Best-so-far convergence curve: (cumulative cost s, best error).
    pub curve: Vec<(f64, f64)>,
}

impl CalibrationResult {
    /// Assemble a result from a finished run's history.
    ///
    /// When no evaluation was finite, the result carries
    /// `best_error = +inf` and the first evaluated point. Panics if the
    /// history is empty (a calibration must evaluate at least one point).
    pub fn from_history(algorithm: &str, history: &History) -> Self {
        let (best_values, best_error) = match history.best() {
            Some(best) => (best.values, best.error),
            None => {
                let first = history.records().into_iter().next().unwrap_or_else(|| {
                    panic!("{algorithm}: no evaluations completed within budget")
                });
                (first.values, f64::INFINITY)
            }
        };
        Self {
            algorithm: algorithm.to_string(),
            best_values,
            best_error,
            evaluations: history.len() as u64,
            capped: history.capped(),
            curve: history.best_curve(),
        }
    }

    /// The best value of a named parameter.
    pub fn value_of(&self, space: &ParamSpace, name: &str) -> Option<f64> {
        space.index_of(name).map(|i| self.best_values[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_history_extracts_best() {
        let h = History::new();
        h.push(0.1, vec![1e6, 2e6], 30.0);
        h.push(0.2, vec![3e6, 4e6], 10.0);
        let r = CalibrationResult::from_history("RANDOM", &h);
        assert_eq!(r.best_error, 10.0);
        assert_eq!(r.best_values, vec![3e6, 4e6]);
        assert_eq!(r.evaluations, 2);
        assert_eq!(r.curve.len(), 2);
        let space = ParamSpace::paper(&["a", "b"]);
        assert_eq!(r.value_of(&space, "b"), Some(4e6));
        assert_eq!(r.value_of(&space, "zz"), None);
    }

    #[test]
    fn all_non_finite_history_reports_infinity_at_the_first_point() {
        let h = History::new();
        h.push(0.1, vec![1e6], f64::NAN);
        h.push(0.2, vec![2e6], f64::INFINITY);
        let r = CalibrationResult::from_history("NELDER-MEAD", &h);
        assert_eq!(r.best_error, f64::INFINITY);
        assert_eq!(r.best_values, vec![1e6]);
        assert_eq!(r.evaluations, 2);
    }

    #[test]
    #[should_panic(expected = "no evaluations")]
    fn empty_history_panics() {
        CalibrationResult::from_history("GRID", &History::new());
    }
}
