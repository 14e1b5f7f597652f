//! Parallel objective evaluation under a budget.
//!
//! The paper's calibrations execute "one simulation on each core of a
//! dedicated ... 40-core CPU". The [`Evaluator`] reproduces that design: a
//! scoped worker pool pulls candidate points from a shared queue,
//! claims budget per point, evaluates, and records every result (with its
//! cumulative cost) in the shared [`History`] — in batch order, so results
//! do not depend on the worker count.
//!
//! Each worker owns a reusable [`EvalContext`]: objectives that park
//! expensive state there (e.g. a simulator session) pay its build cost
//! once per worker, not once per point. Contexts persist across batches in
//! a pool on the evaluator, so iterative algorithms (which evaluate many
//! small batches) amortize across their whole run.

use std::time::Instant;

use std::sync::{mpsc, Mutex};

use crate::budget::BudgetTracker;
use crate::history::History;
use crate::objective::{EvalContext, Objective};
use crate::space::ParamSpace;

/// Budget-aware, history-recording parallel evaluator.
pub struct Evaluator<'a> {
    objective: &'a dyn Objective,
    space: &'a ParamSpace,
    budget: &'a BudgetTracker,
    history: &'a History,
    workers: usize,
    /// Idle per-worker contexts, reused across batches.
    contexts: Mutex<Vec<EvalContext>>,
}

/// The objective value algorithms see: the history keeps the raw value,
/// but any non-finite one reaches them as `f64::INFINITY`, so a NaN can
/// never win (or freeze) a comparison.
fn as_seen(error: f64) -> f64 {
    if error.is_finite() {
        error
    } else {
        f64::INFINITY
    }
}

impl<'a> Evaluator<'a> {
    /// An evaluator using one worker per available core.
    pub fn new(
        objective: &'a dyn Objective,
        space: &'a ParamSpace,
        budget: &'a BudgetTracker,
        history: &'a History,
    ) -> Self {
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Self { objective, space, budget, history, workers, contexts: Mutex::new(Vec::new()) }
    }

    /// Override the worker count (1 = fully deterministic record order).
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        self.workers = workers;
        self
    }

    /// The parameter space points are expressed in.
    pub fn space(&self) -> &ParamSpace {
        self.space
    }

    /// Whether the budget admits no further evaluations.
    pub fn exhausted(&self) -> bool {
        self.budget.exhausted()
    }

    /// Evaluate one unit-cube point; `None` when the budget is exhausted.
    pub fn eval_one(&self, unit: &[f64]) -> Option<f64> {
        self.eval_batch(std::slice::from_ref(&unit.to_vec())).pop().flatten()
    }

    /// Evaluate a batch of unit-cube points. Returns one entry per point,
    /// `None` where the budget ran out before that point was claimed.
    /// Points are claimed in order, so on exhaustion a prefix is evaluated.
    pub fn eval_batch(&self, unit_points: &[Vec<f64>]) -> Vec<Option<f64>> {
        if unit_points.is_empty() {
            return Vec::new();
        }
        let n_workers = self.workers.min(unit_points.len());
        if n_workers <= 1 {
            let mut ctx = self.checkout_context();
            let out = unit_points.iter().map(|p| self.eval_claimed(&mut ctx, p)).collect();
            self.return_context(ctx);
            return out;
        }

        // Claims are taken under the cursor lock, so the claimed points are
        // a prefix of the batch whatever the thread timing.
        let cursor = Mutex::new(0usize);
        let (tx, rx) = mpsc::channel::<(usize, (Vec<f64>, f64, f64))>();
        let slots = std::thread::scope(|scope| {
            for _ in 0..n_workers {
                let tx = tx.clone();
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut ctx = self.checkout_context();
                    loop {
                        let i = {
                            let mut next = cursor.lock().expect("cursor poisoned");
                            if *next >= unit_points.len() || !self.budget.try_claim() {
                                break;
                            }
                            *next += 1;
                            *next - 1
                        };
                        tx.send((i, self.evaluate(&mut ctx, &unit_points[i])))
                            .expect("collector alive");
                    }
                    self.return_context(ctx);
                });
            }
            drop(tx);
            let mut slots = vec![None; unit_points.len()];
            for (i, done) in rx {
                slots[i] = Some(done);
            }
            slots
        });

        // Publish in batch order, so the history — and with it the best
        // point and the convergence curve — does not depend on which worker
        // finished first. The cumulative costs keep their completion order.
        let mut costs: Vec<f64> = slots.iter().flatten().map(|&(_, _, cost)| cost).collect();
        costs.sort_by(f64::total_cmp);
        let mut costs = costs.into_iter();
        slots
            .into_iter()
            .map(|slot| {
                let (values, error, _) = slot?;
                self.history.push(costs.next().expect("one cost per result"), values, error);
                Some(as_seen(error))
            })
            .collect()
    }

    /// Claim budget, evaluate a single point and record it.
    fn eval_claimed(&self, ctx: &mut EvalContext, unit: &[f64]) -> Option<f64> {
        if !self.budget.try_claim() {
            return None;
        }
        let (values, error, cost) = self.evaluate(ctx, unit);
        self.history.push(cost, values, error);
        Some(as_seen(error))
    }

    /// Evaluate an already-claimed point and charge its cost. Returns the
    /// natural values, the raw objective value and the cumulative cost.
    fn evaluate(&self, ctx: &mut EvalContext, unit: &[f64]) -> (Vec<f64>, f64, f64) {
        let values = self.space.values_of(unit);
        let t0 = Instant::now();
        let error = self.objective.evaluate_with(ctx, &values);
        let cumulative = self.budget.charge(t0.elapsed().as_secs_f64());
        (values, error, cumulative)
    }

    /// Pop an idle context (or build a fresh one).
    fn checkout_context(&self) -> EvalContext {
        self.contexts.lock().expect("context pool poisoned").pop().unwrap_or_default()
    }

    /// Park a context for the next batch's workers.
    fn return_context(&self, ctx: EvalContext) {
        self.contexts.lock().expect("context pool poisoned").push(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::objective::{FnObjective, Objective};
    use crate::space::ParamSpace;

    fn sphere() -> FnObjective<impl Fn(&[f64]) -> f64 + Sync> {
        // Minimum at 2^28 (unit 0.5) in the paper range.
        FnObjective(|v: &[f64]| v.iter().map(|x| (x.log2() - 28.0).powi(2)).sum::<f64>())
    }

    #[test]
    fn evaluates_batch_and_records_history() {
        let obj = sphere();
        let space = ParamSpace::paper(&["a", "b"]);
        let budget = BudgetTracker::new(Budget::Evaluations(10));
        let history = History::new();
        let ev = Evaluator::new(&obj, &space, &budget, &history).with_workers(1);
        let points = vec![vec![0.5, 0.5], vec![0.0, 0.0], vec![1.0, 1.0]];
        let out = ev.eval_batch(&points);
        assert_eq!(out.len(), 3);
        assert!((out[0].unwrap() - 0.0).abs() < 1e-9);
        assert!(out[1].unwrap() > out[0].unwrap());
        assert_eq!(history.len(), 3);
        assert_eq!(budget.completed(), 3);
    }

    #[test]
    fn budget_cuts_batch_to_prefix() {
        let obj = sphere();
        let space = ParamSpace::paper(&["a"]);
        let budget = BudgetTracker::new(Budget::Evaluations(2));
        let history = History::new();
        let ev = Evaluator::new(&obj, &space, &budget, &history).with_workers(1);
        let points: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64 / 4.0]).collect();
        let out = ev.eval_batch(&points);
        assert!(out[0].is_some() && out[1].is_some());
        assert!(out[2..].iter().all(Option::is_none));
        assert!(ev.exhausted());
    }

    #[test]
    fn parallel_matches_serial_results() {
        let obj = sphere();
        let space = ParamSpace::paper(&["a", "b"]);
        let points: Vec<Vec<f64>> =
            (0..16).map(|i| vec![i as f64 / 15.0, 1.0 - i as f64 / 15.0]).collect();

        let b1 = BudgetTracker::new(Budget::Evaluations(100));
        let h1 = History::new();
        let serial = Evaluator::new(&obj, &space, &b1, &h1).with_workers(1).eval_batch(&points);

        let b2 = BudgetTracker::new(Budget::Evaluations(100));
        let h2 = History::new();
        let parallel = Evaluator::new(&obj, &space, &b2, &h2).with_workers(4).eval_batch(&points);

        assert_eq!(serial, parallel);
        assert_eq!(h1.len(), h2.len());
        assert_eq!(h1.best().unwrap().error, h2.best().unwrap().error);
    }

    #[test]
    fn non_finite_errors_reach_algorithms_as_infinity() {
        let obj = FnObjective(|v: &[f64]| if v[0] > 2f64.powi(28) { f64::NAN } else { -1.0 });
        let space = ParamSpace::paper(&["a"]);
        let budget = BudgetTracker::new(Budget::Evaluations(3));
        let history = History::new();
        let ev = Evaluator::new(&obj, &space, &budget, &history).with_workers(1);
        let out = ev.eval_batch(&[vec![0.0], vec![1.0]]);
        assert_eq!(out, vec![Some(-1.0), Some(f64::INFINITY)]);
        assert!(history.records()[1].error.is_nan(), "the history keeps the raw value");
    }

    #[test]
    fn eval_one_round_trips() {
        let obj = sphere();
        let space = ParamSpace::paper(&["a"]);
        let budget = BudgetTracker::new(Budget::Evaluations(1));
        let history = History::new();
        let ev = Evaluator::new(&obj, &space, &budget, &history);
        assert!(ev.eval_one(&[0.5]).is_some());
        assert!(ev.eval_one(&[0.5]).is_none());
    }

    #[test]
    fn worker_contexts_persist_across_batches() {
        // An objective that counts evaluations through its worker context:
        // with one worker, the same context must see every point of both
        // batches.
        struct Counting;
        impl Objective for Counting {
            fn evaluate(&self, _v: &[f64]) -> f64 {
                unreachable!("evaluator must use evaluate_with")
            }
            fn evaluate_with(&self, ctx: &mut crate::EvalContext, _v: &[f64]) -> f64 {
                let n = ctx.get_or_insert_with(|| 0u64);
                *n += 1;
                *n as f64
            }
        }
        let obj = Counting;
        let space = ParamSpace::paper(&["a"]);
        let budget = BudgetTracker::new(Budget::Evaluations(100));
        let history = History::new();
        let ev = Evaluator::new(&obj, &space, &budget, &history).with_workers(1);
        let batch: Vec<Vec<f64>> = (0..3).map(|i| vec![i as f64 / 3.0]).collect();
        assert_eq!(ev.eval_batch(&batch), vec![Some(1.0), Some(2.0), Some(3.0)]);
        // Second batch continues the same context, proving reuse.
        assert_eq!(ev.eval_batch(&batch), vec![Some(4.0), Some(5.0), Some(6.0)]);
    }

    #[test]
    fn parallel_workers_each_get_a_context() {
        struct Marking;
        impl Objective for Marking {
            fn evaluate(&self, _v: &[f64]) -> f64 {
                0.0
            }
            fn evaluate_with(&self, ctx: &mut crate::EvalContext, _v: &[f64]) -> f64 {
                // Uses the slot; several threads must never share one.
                let n = ctx.get_or_insert_with(|| 0u64);
                *n += 1;
                0.0
            }
        }
        let obj = Marking;
        let space = ParamSpace::paper(&["a"]);
        let budget = BudgetTracker::new(Budget::Evaluations(64));
        let history = History::new();
        let ev = Evaluator::new(&obj, &space, &budget, &history).with_workers(4);
        let batch: Vec<Vec<f64>> = (0..32).map(|i| vec![i as f64 / 32.0]).collect();
        let out = ev.eval_batch(&batch);
        assert!(out.iter().all(Option::is_some));
        assert_eq!(history.len(), 32);
    }
}
