//! The objective trait: what calibration minimizes.
//!
//! [`Objective::evaluate`] is the simple contract: values in, discrepancy
//! out. The [`crate::Evaluator`] drives [`Objective::evaluate_capped`]
//! instead, which also hands over a per-worker reusable [`EvalContext`]
//! and a *cap*. Its default ignores both and calls `evaluate`; objectives
//! that wrap expensive machinery (a simulator session, a surrogate model)
//! override it to reuse that machinery across the evaluations of one
//! worker instead of rebuilding it per point.
//!
//! # Capping
//!
//! The cap is the incumbent: the best value the calibration has seen
//! before the point's batch began. An objective may stop as soon as it can
//! prove its finished value would be `>= cap`, and return the bound that
//! proved it ([`Evaluation::capped`]). Such a point can never become the
//! best: [`crate::History::best`] keeps the *first* minimum and the
//! best-so-far curve improves only on a strict `<`. This is "adaptive
//! capping" (Hutter, Hoos, Leyton-Brown & Stützle 2009, ParamILS), and it
//! saves the rest of the work of every point that has provably lost.
//!
//! The bound must never exceed the finished value, *bit for bit*. The
//! case study's discrepancies all have the shape `scale * Σ terms / n`
//! with non-negative terms folded left to right ([`crate::MeanFold`]).
//! Under round-to-nearest, adding a non-negative term never decreases a
//! sum, and `*` and `/` by positive constants are monotone, so the same
//! fold's value after any prefix of the terms is such a bound. A bound
//! computed any other way (say, per-block sums re-added) can round above
//! the finished value and wrongly cap a new best. A NaN term makes the
//! bound NaN, which never reaches a cap ([`cap_reached`]): such a point
//! runs to completion.
//!
//! An uncapped evaluation is the capped one at `cap = +∞`, where nothing
//! is ever capped: [`Objective::evaluate_with`] is exactly that.

use std::any::Any;

/// A reusable, per-worker evaluation context.
///
/// The evaluator hands each worker thread one `EvalContext` and threads
/// it through every evaluation that worker performs. The context is a
/// type-erased slot: the objective stores whatever state it wants to
/// reuse (e.g. a `SimSession`) via [`EvalContext::get_or_insert_with`].
/// The slot is lazily created, survives across points and batches, and is
/// dropped with the evaluator.
#[derive(Default)]
pub struct EvalContext {
    slot: Option<Box<dyn Any + Send>>,
}

impl EvalContext {
    /// An empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Borrow the context state of type `T`, creating it with `init` on
    /// first use (or when a different objective type previously used this
    /// worker's context).
    pub fn get_or_insert_with<T: Send + 'static>(&mut self, init: impl FnOnce() -> T) -> &mut T {
        if self.slot.as_ref().is_none_or(|s| !s.is::<T>()) {
            self.slot = Some(Box::new(init()));
        }
        self.slot
            .as_mut()
            .expect("slot populated above")
            .downcast_mut::<T>()
            .expect("type checked above")
    }

    /// Whether the context currently holds state of type `T`.
    pub fn holds<T: 'static>(&self) -> bool {
        self.slot.as_ref().is_some_and(|s| s.is::<T>())
    }
}

/// What one evaluation under a cap returned: the finished objective
/// value, or a lower bound on it that reached the cap.
///
/// Built through [`Evaluation::done`] and [`Evaluation::capped`], so that
/// per-evaluation facts added later (a cost in kernel events, say) do not
/// touch the objectives that return one.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct Evaluation {
    /// The finished value, or — when `capped` — the bound that reached
    /// the cap (never above the value the evaluation would have finished
    /// with).
    pub error: f64,
    /// Whether the evaluation stopped early.
    pub capped: bool,
}

impl Evaluation {
    /// A finished evaluation.
    pub fn done(error: f64) -> Self {
        Self { error, capped: false }
    }

    /// An evaluation stopped at a lower bound that reached the cap.
    pub fn capped(bound: f64) -> Self {
        Self { error: bound, capped: true }
    }
}

/// Whether a lower `bound` on an unfinished evaluation reaches `cap`, so
/// the rest of its work can be skipped. A NaN bound never does, and
/// nothing does at `cap = +∞`: an uncapped evaluation always finishes.
pub fn cap_reached(bound: f64, cap: f64) -> bool {
    bound >= cap && cap < f64::INFINITY
}

/// A calibration objective: maps natural parameter values to a discrepancy
/// (lower is better). Implementations must be thread-safe — the evaluator
/// calls them concurrently from its worker pool.
pub trait Objective: Sync {
    /// Evaluate the discrepancy at the given natural parameter values.
    ///
    /// For the case study this runs the simulator once per ground-truth ICD
    /// value and returns the MRE against the ground-truth metrics.
    fn evaluate(&self, values: &[f64]) -> f64;

    /// Evaluate with a reusable per-worker context, stopping early once
    /// the finished value provably reaches `cap` (see the module docs for
    /// the contract a capped bound must keep).
    ///
    /// The default ignores the context and the cap and calls
    /// [`Objective::evaluate`], so it never caps. Objectives wrapping
    /// expensive per-evaluation setup override this and park the reusable
    /// state in `ctx`; objectives made of a fold of non-negative terms may
    /// also honour `cap`.
    fn evaluate_capped(&self, ctx: &mut EvalContext, values: &[f64], cap: f64) -> Evaluation {
        let _ = (ctx, cap);
        Evaluation::done(self.evaluate(values))
    }

    /// Evaluate with a reusable per-worker context, uncapped: the capped
    /// evaluation at `cap = +∞`. Override [`Objective::evaluate_capped`],
    /// not this.
    fn evaluate_with(&self, ctx: &mut EvalContext, values: &[f64]) -> f64 {
        self.evaluate_capped(ctx, values, f64::INFINITY).error
    }
}

/// Wrap a plain function/closure as an objective (tests, toy problems).
pub struct FnObjective<F: Fn(&[f64]) -> f64 + Sync>(pub F);

impl<F: Fn(&[f64]) -> f64 + Sync> Objective for FnObjective<F> {
    fn evaluate(&self, values: &[f64]) -> f64 {
        (self.0)(values)
    }
}

impl<T: Objective + ?Sized> Objective for &T {
    fn evaluate(&self, values: &[f64]) -> f64 {
        (**self).evaluate(values)
    }

    fn evaluate_capped(&self, ctx: &mut EvalContext, values: &[f64], cap: f64) -> Evaluation {
        (**self).evaluate_capped(ctx, values, cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_objective_delegates() {
        let o = FnObjective(|v: &[f64]| v.iter().sum());
        assert_eq!(o.evaluate(&[1.0, 2.0]), 3.0);
        // What the evaluator calls: the default ignores the context and
        // the cap, so it never caps.
        let d: &dyn Objective = &o;
        assert_eq!(d.evaluate_with(&mut EvalContext::new(), &[1.0, 2.0]), 3.0);
        let e = d.evaluate_capped(&mut EvalContext::new(), &[1.0, 2.0], 0.0);
        assert_eq!(e, Evaluation::done(3.0));
    }

    #[test]
    fn caps_are_reached_only_by_ordered_bounds() {
        assert!(cap_reached(2.0, 2.0));
        assert!(cap_reached(3.0, 2.0));
        assert!(!cap_reached(1.0, 2.0));
        assert!(!cap_reached(f64::NAN, 2.0));
        assert!(!cap_reached(f64::INFINITY, f64::INFINITY), "+inf never caps");
    }

    #[test]
    fn reference_forwards() {
        let o = FnObjective(|v: &[f64]| v[0]);
        let r = &o;
        assert_eq!(Objective::evaluate(&r, &[7.0]), 7.0);
    }

    #[test]
    fn context_slot_is_created_once_and_reused() {
        let mut ctx = EvalContext::new();
        assert!(!ctx.holds::<Vec<u64>>());
        ctx.get_or_insert_with(Vec::<u64>::new).push(1);
        ctx.get_or_insert_with(Vec::<u64>::new).push(2);
        assert_eq!(ctx.get_or_insert_with(Vec::<u64>::new).len(), 2);
        assert!(ctx.holds::<Vec<u64>>());
    }

    #[test]
    fn context_slot_swaps_on_type_change() {
        let mut ctx = EvalContext::new();
        ctx.get_or_insert_with(|| 41u64);
        assert_eq!(*ctx.get_or_insert_with(|| 0u64), 41);
        // A different state type replaces the slot.
        assert_eq!(ctx.get_or_insert_with(|| "fresh".to_string()).as_str(), "fresh");
        assert!(!ctx.holds::<u64>());
    }

    #[test]
    fn overriding_evaluate_capped_sees_worker_state() {
        struct Stateful;
        impl Objective for Stateful {
            fn evaluate(&self, v: &[f64]) -> f64 {
                Objective::evaluate_with(self, &mut EvalContext::new(), v)
            }
            fn evaluate_capped(&self, ctx: &mut EvalContext, v: &[f64], _cap: f64) -> Evaluation {
                let calls = ctx.get_or_insert_with(|| 0u64);
                *calls += 1;
                Evaluation::done(v[0] + *calls as f64)
            }
        }
        let mut ctx = EvalContext::new();
        let o = Stateful;
        assert_eq!(o.evaluate_with(&mut ctx, &[0.0]), 1.0);
        assert_eq!(o.evaluate_with(&mut ctx, &[0.0]), 2.0);
        // One-shot evaluate uses a throwaway context.
        assert_eq!(o.evaluate(&[0.0]), 1.0);
    }
}
