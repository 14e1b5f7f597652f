//! Calibration budgets.
//!
//! The paper allots a fixed wall-clock time `T` to each calibration (6 hours
//! in the case study) rather than an evaluation count, because parameter
//! values can change the simulator's execution time. There are two modes:
//!
//! * [`Budget::Evaluations`] — deterministic and machine-independent, the
//!   default for reproducible tests;
//! * [`Budget::SimulatedCost`] — stands in for the paper's time budget `T`:
//!   it bounds the *sum of evaluation times* rather than the elapsed time,
//!   so more workers do not buy more evaluations, while it stays
//!   cost-sensitive: slower simulator granularities get proportionally
//!   fewer evaluations (the speed/accuracy trade-off of Table VI).

use std::sync::atomic::{AtomicU64, Ordering};

/// A bound on calibration effort.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// At most this many objective evaluations.
    Evaluations(u64),
    /// Stop once the accumulated per-evaluation cost (seconds of evaluation
    /// time) reaches this many seconds.
    SimulatedCost(f64),
}

impl Budget {
    /// Scale the budget by a factor (used to derive reduced test budgets).
    pub fn scaled(self, factor: f64) -> Budget {
        assert!(factor > 0.0);
        match self {
            Budget::Evaluations(n) => Budget::Evaluations(((n as f64) * factor).ceil() as u64),
            Budget::SimulatedCost(c) => Budget::SimulatedCost(c * factor),
        }
    }
}

/// Thread-safe budget accounting shared by the evaluator workers.
#[derive(Debug)]
pub struct BudgetTracker {
    budget: Budget,
    claimed: AtomicU64,
    completed: AtomicU64,
    /// Accumulated evaluation cost in nanoseconds (atomic integer to avoid
    /// a float CAS loop).
    cost_nanos: AtomicU64,
}

impl BudgetTracker {
    /// Start tracking the given budget.
    pub fn new(budget: Budget) -> Self {
        Self {
            budget,
            claimed: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            cost_nanos: AtomicU64::new(0),
        }
    }

    /// The budget being tracked.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// Try to claim one evaluation. Returns `false` once the budget is
    /// exhausted; callers must not evaluate without a successful claim.
    pub fn try_claim(&self) -> bool {
        match self.budget {
            Budget::Evaluations(n) => {
                // Optimistically claim, roll back on overshoot.
                let prev = self.claimed.fetch_add(1, Ordering::Relaxed);
                if prev >= n {
                    self.claimed.fetch_sub(1, Ordering::Relaxed);
                    false
                } else {
                    true
                }
            }
            Budget::SimulatedCost(limit_secs) => {
                let spent = self.cost_nanos.load(Ordering::Relaxed) as f64 * 1e-9;
                if spent < limit_secs {
                    self.claimed.fetch_add(1, Ordering::Relaxed);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Record a completed evaluation and its cost; returns the cumulative
    /// cost (seconds) after the charge — the x-axis of convergence curves.
    pub fn charge(&self, cost_seconds: f64) -> f64 {
        self.completed.fetch_add(1, Ordering::Relaxed);
        let nanos = (cost_seconds.max(0.0) * 1e9) as u64;
        let total = self.cost_nanos.fetch_add(nanos, Ordering::Relaxed) + nanos;
        total as f64 * 1e-9
    }

    /// Whether the budget no longer admits new evaluations.
    pub fn exhausted(&self) -> bool {
        match self.budget {
            Budget::Evaluations(n) => self.claimed.load(Ordering::Relaxed) >= n,
            Budget::SimulatedCost(limit) => {
                self.cost_nanos.load(Ordering::Relaxed) as f64 * 1e-9 >= limit
            }
        }
    }

    /// Completed evaluations so far.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Accumulated evaluation cost in seconds.
    pub fn cost_seconds(&self) -> f64 {
        self.cost_nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluation_budget_admits_exactly_n() {
        let t = BudgetTracker::new(Budget::Evaluations(3));
        assert!(t.try_claim());
        assert!(t.try_claim());
        assert!(t.try_claim());
        assert!(!t.try_claim());
        assert!(t.exhausted());
    }

    #[test]
    fn cost_budget_stops_after_limit() {
        let t = BudgetTracker::new(Budget::SimulatedCost(1.0));
        assert!(t.try_claim());
        t.charge(0.6);
        assert!(t.try_claim());
        t.charge(0.6);
        assert!(!t.try_claim());
        assert!(t.exhausted());
        assert!((t.cost_seconds() - 1.2).abs() < 1e-9);
        assert_eq!(t.completed(), 2);
    }

    #[test]
    fn charge_returns_cumulative() {
        let t = BudgetTracker::new(Budget::SimulatedCost(10.0));
        assert!((t.charge(0.5) - 0.5).abs() < 1e-9);
        assert!((t.charge(0.25) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn scaling() {
        assert_eq!(Budget::Evaluations(100).scaled(0.5), Budget::Evaluations(50));
        assert_eq!(Budget::SimulatedCost(10.0).scaled(2.0), Budget::SimulatedCost(20.0));
    }
}
