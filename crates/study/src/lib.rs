//! # simcal-study — the High Energy Physics case study (paper §IV)
//!
//! Wires everything together: the CMS workload on the four Table II
//! platforms, the synthetic ground truth, the 33-metric MRE objective, the
//! domain-scientist (HUMAN) calibration re-enactment, and one experiment
//! module per table/figure of the paper's evaluation:
//!
//! | Module | Reproduces |
//! |---|---|
//! | [`experiments::table1`] | Table I — literature survey |
//! | [`experiments::table2`] | Table II — platform configurations |
//! | [`experiments::table3`] | Table III — MRE per method per platform |
//! | [`experiments::table4`] | Table IV — calibrated values on SCSN |
//! | [`experiments::table5`] | Table V — calibrating from ICD subsets |
//! | [`experiments::table6`] | Table VI — MRE vs simulation time |
//! | [`experiments::fig2`] | Figure 2 — error vs calibration time |

pub mod auth;
pub mod backoff;
pub mod case;
pub mod context;
pub mod dist;
pub mod experiments;
pub mod family;
pub mod human;
pub mod net;
pub mod objective;
pub mod report;
pub mod sweep;

pub use backoff::Backoff;
pub use case::CaseStudy;
pub use context::ExperimentContext;
pub use dist::DistError;
pub use family::{FamilyMember, FamilyObjective};
pub use human::HumanCalibration;
pub use net::{FaultPlan, TcpSummary, TcpSweep, TcpWorker, WorkerOutcome, WorkerReport};
pub use objective::{param_space, CaseObjective, Metric, PARAM_NAMES};
pub use sweep::{SweepResult, SweepRunner};
