//! # simcal-calib — the automated calibration framework
//!
//! Implements the paper's §III problem statement as a generic black-box
//! optimization toolkit, independent of any particular simulator:
//!
//! * a **parameter space** ([`ParamSpace`]) where every parameter has a
//!   user-specified range `[a, b]` and is sampled **logarithmically**: a
//!   parameter is written as `2^x` with `x` uniform in `[log2 a, log2 b]`
//!   ("we ensure a bigger diversity of orders of magnitudes within the
//!   parameter range");
//! * an **objective** ([`Objective`]) mapping parameter values to a
//!   simulation-accuracy discrepancy (lower is better);
//! * a **budget** ([`Budget`]): the paper bounds calibration by wall time
//!   `T` (not by evaluation count, "because the value of some parameters
//!   can impact the simulator's space- and time-complexity"); the
//!   simulated-cost budget stands in for it, summing evaluation times
//!   instead of watching the clock, next to a deterministic
//!   evaluation-count budget;
//! * a **parallel evaluator** ([`Evaluator`]): the paper runs one
//!   simulation per core of a 40-core node; we run a scoped worker pool
//!   sized by `available_parallelism`;
//! * the paper's **algorithms** ([`algorithms`]): grid search with
//!   progressive midpoint refinement (GRID), random search (RANDOM), and
//!   gradient descent with fixed or dynamic finite-difference step
//!   (GDFIX / GDDYN) — plus the extensions the paper points to as future
//!   work: simulated annealing, Nelder–Mead, coordinate descent, and
//!   Bayesian optimization with an in-repo Gaussian process.
//!
//! Every evaluation is recorded in a [`History`] from which best-so-far
//! convergence curves (the paper's Figure 2) are extracted.

pub mod algorithms;
pub mod budget;
pub mod error;
pub mod gp;
pub mod history;
pub mod linalg;
pub mod objective;
pub mod result;
pub mod runner;
pub mod space;

pub use algorithms::{
    calibrate, calibrate_with_workers, BayesianOpt, Calibrator, CoordinateDescent, GradientDescent,
    GridSearch, NelderMead, RandomSearch, SimulatedAnnealing,
};
pub use budget::{Budget, BudgetTracker};
pub use error::{mae, mape, mre_percent, rmse};
pub use history::{EvalRecord, History};
pub use objective::{EvalContext, FnObjective, Objective};
pub use result::CalibrationResult;
pub use runner::Evaluator;
pub use space::{ParamSpace, ParamSpec};
