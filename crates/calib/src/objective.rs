//! The objective trait: what calibration minimizes.
//!
//! [`Objective::evaluate`] is the simple contract: values in, discrepancy
//! out. The [`crate::Evaluator`] drives [`Objective::evaluate_with`]
//! instead, which also hands over a per-worker reusable [`EvalContext`].
//! Its default ignores the context and calls `evaluate`; objectives that
//! wrap expensive machinery (a simulator session, a surrogate model)
//! override it to reuse that machinery across the evaluations of one
//! worker instead of rebuilding it per point.

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

/// A calibration objective: maps natural parameter values to a discrepancy
/// (lower is better). Implementations must be thread-safe — the evaluator
/// calls them concurrently from its worker pool.
pub trait Objective: Sync {
    /// Evaluate the discrepancy at the given natural parameter values.
    ///
    /// For the case study this runs the simulator once per ground-truth ICD
    /// value and returns the MRE against the ground-truth metrics.
    fn evaluate(&self, values: &[f64]) -> f64;

    /// Evaluate with a reusable per-worker context.
    ///
    /// The default ignores the context and calls [`Objective::evaluate`];
    /// objectives wrapping expensive per-evaluation setup override this
    /// and park the reusable state in `ctx`.
    fn evaluate_with(&self, ctx: &mut EvalContext, values: &[f64]) -> f64 {
        let _ = ctx;
        self.evaluate(values)
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

    fn evaluate_with(&self, ctx: &mut EvalContext, values: &[f64]) -> f64 {
        (**self).evaluate_with(ctx, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_objective_delegates() {
        let o = FnObjective(|v: &[f64]| v.iter().sum());
        assert_eq!(o.evaluate(&[1.0, 2.0]), 3.0);
        // What the evaluator calls: the default ignores the context.
        let d: &dyn Objective = &o;
        assert_eq!(d.evaluate_with(&mut EvalContext::new(), &[1.0, 2.0]), 3.0);
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
    fn overriding_evaluate_with_sees_worker_state() {
        struct Stateful;
        impl Objective for Stateful {
            fn evaluate(&self, v: &[f64]) -> f64 {
                Objective::evaluate_with(self, &mut EvalContext::new(), v)
            }
            fn evaluate_with(&self, ctx: &mut EvalContext, v: &[f64]) -> f64 {
                let calls = ctx.get_or_insert_with(|| 0u64);
                *calls += 1;
                v[0] + *calls as f64
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
