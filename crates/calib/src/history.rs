//! Evaluation history and convergence curves.

use std::sync::{Mutex, MutexGuard};

use crate::objective::Evaluation;

/// One completed objective evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRecord {
    /// Completion order (0-based).
    pub seq: u64,
    /// Cumulative evaluation cost (seconds) when this evaluation finished —
    /// the time axis of the paper's Figure 2.
    pub cost: f64,
    /// Natural parameter values evaluated.
    pub values: Vec<f64>,
    /// Objective value (e.g. MRE %); for a capped evaluation, the lower
    /// bound that reached the cap.
    pub error: f64,
    /// Whether the evaluation stopped early at a bound that reached the
    /// incumbent. Such a point is never the best.
    pub capped: bool,
}

/// Thread-safe log of all evaluations of one calibration run.
#[derive(Debug, Default)]
pub struct History {
    records: Mutex<Vec<EvalRecord>>,
}

impl History {
    /// An empty history.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, Vec<EvalRecord>> {
        self.records.lock().expect("history poisoned")
    }

    /// Append a finished evaluation (sequence number assigned
    /// automatically).
    pub fn push(&self, cost: f64, values: Vec<f64>, error: f64) {
        self.push_evaluation(cost, values, Evaluation::done(error));
    }

    /// Append an evaluation, finished or capped.
    pub fn push_evaluation(&self, cost: f64, values: Vec<f64>, eval: Evaluation) {
        let mut g = self.lock();
        let seq = g.len() as u64;
        g.push(EvalRecord { seq, cost, values, error: eval.error, capped: eval.capped });
    }

    /// Number of recorded evaluations.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no evaluations were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The best (lowest-error) record, ignoring non-finite errors and
    /// capped records; the first one on a tie.
    pub fn best(&self) -> Option<EvalRecord> {
        self.lock()
            .iter()
            .filter(|r| !r.capped && r.error.is_finite())
            .min_by(|a, b| a.error.total_cmp(&b.error))
            .cloned()
    }

    /// Best-so-far curve: one `(cost, best_error)` point per evaluation, in
    /// completion order. Non-finite errors and capped records carry the
    /// previous best over.
    pub fn best_curve(&self) -> Vec<(f64, f64)> {
        let g = self.lock();
        let mut best = f64::INFINITY;
        g.iter()
            .map(|r| {
                if !r.capped && r.error.is_finite() && r.error < best {
                    best = r.error;
                }
                (r.cost, best)
            })
            .collect()
    }

    /// The number of capped records.
    pub fn capped(&self) -> u64 {
        self.lock().iter().filter(|r| r.capped).count() as u64
    }

    /// Snapshot of all records.
    pub fn records(&self) -> Vec<EvalRecord> {
        self.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_tracks_minimum() {
        let h = History::new();
        h.push(1.0, vec![0.1], 10.0);
        h.push(2.0, vec![0.2], 4.0);
        h.push(3.0, vec![0.3], 7.0);
        let b = h.best().unwrap();
        assert_eq!(b.error, 4.0);
        assert_eq!(b.values, vec![0.2]);
        assert_eq!(b.seq, 1);
    }

    #[test]
    fn curve_is_monotone_nonincreasing() {
        let h = History::new();
        for (i, e) in [9.0, 5.0, 6.0, 2.0, 3.0].iter().enumerate() {
            h.push(i as f64, vec![], *e);
        }
        let curve = h.best_curve();
        assert_eq!(curve.len(), 5);
        for w in curve.windows(2) {
            assert!(w[1].1 <= w[0].1);
        }
        assert_eq!(curve.last().unwrap().1, 2.0);
    }

    #[test]
    fn non_finite_errors_skipped_for_best() {
        let h = History::new();
        h.push(0.0, vec![], f64::INFINITY);
        h.push(1.0, vec![], f64::NAN);
        h.push(2.0, vec![], 5.0);
        assert_eq!(h.best().unwrap().error, 5.0);
    }

    #[test]
    fn capped_records_count_but_never_win() {
        let h = History::new();
        h.push(1.0, vec![0.1], 5.0);
        // A capped bound below the incumbent cannot happen under the
        // capping contract; it still must not win if it is recorded.
        h.push_evaluation(2.0, vec![0.2], Evaluation::capped(3.0));
        h.push(3.0, vec![0.3], 4.0);
        assert_eq!(h.len(), 3);
        assert_eq!(h.capped(), 1);
        assert_eq!(h.best().unwrap().values, vec![0.3]);
        let errors: Vec<f64> = h.best_curve().iter().map(|&(_, e)| e).collect();
        assert_eq!(errors, vec![5.0, 5.0, 4.0], "the previous best is carried through");
    }

    #[test]
    fn empty_history() {
        let h = History::new();
        assert!(h.is_empty());
        assert!(h.best().is_none());
        assert!(h.best_curve().is_empty());
    }
}
