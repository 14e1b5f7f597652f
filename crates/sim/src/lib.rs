//! # simcal-sim — the WRENCH-like simulator being calibrated
//!
//! Simulates the execution of an independent-job workload (read input files,
//! compute per byte, write an output file) on a [`simcal_platform`] platform:
//! one compute site of multi-core nodes with local caches, reading initial
//! input data from a remote storage site over a WAN (the paper's §IV-B
//! simulator, reimplemented on the [`simcal_des`] fluid kernel).
//!
//! ## Execution model
//!
//! Jobs become eligible at their per-job release time (t = 0 by default;
//! later releases arrive via engine timers, see
//! [`simcal_workload::ArrivalProcess`]) and are dispatched to cores by a
//! greedy FCFS [`scheduler`] — queueing when the platform is full. Each
//! job processes its input files sequentially; within a file:
//!
//! * reading proceeds in **blocks of `B`** (the XRootD block size),
//!   double-buffered against compute — block *k* is processed while block
//!   *k+1* is read ("reading and processing data is done in a pipelined
//!   fashion");
//! * a *cached* file is read from the node's local device — the page cache
//!   on FC platforms, the HDD on SC platforms — one flow per block;
//! * a *remote* file streams from the storage service over the WAN in
//!   **chunks of `b`** (the storage-service buffer size), with server-side
//!   reads pipelined against network transfers (two-stage chunk pipeline);
//! * after the last file, the job's output is written back to remote
//!   storage in `b`-chunks.
//!
//! The simulated event count per job is O(s/B + s/b) by construction —
//! exactly the scaling the paper exploits in its speed/accuracy trade-off
//! (Table VI).
//!
//! ## Entry point
//!
//! [`simulate`] runs one workload execution and returns an
//! [`simcal_workload::ExecutionTrace`]:
//!
//! ```
//! use simcal_platform::catalog;
//! use simcal_storage::CachePlan;
//! use simcal_sim::{simulate, SimConfig};
//! use simcal_workload::scaled_cms_workload;
//!
//! let platform = catalog::scsn();
//! let workload = scaled_cms_workload(6, 4, 10e6);
//! let cache = CachePlan::new(&workload, 0.5, 42);
//! let trace = simulate(&platform, &workload, &cache, &SimConfig::default());
//! assert_eq!(trace.jobs.len(), 6);
//! ```

pub mod codec;
pub mod config;
pub mod jobrun;
pub mod multisite;
pub mod registry;
pub mod resources;
pub mod scenario;
pub mod scheduler;
pub mod simulator;
pub mod stream;
pub mod tags;
pub mod validate;

pub use codec::{decode_scenario, encode_scenario, CodecError, Json};
pub use config::{FlowLevelCfg, NoiseConfig, SimConfig, WanModel};
pub use multisite::{simulate_multisite, try_simulate_multisite, StageMsg};
pub use registry::{ScenarioEntry, ScenarioRegistry};
pub use resources::PlatformResources;
pub use scenario::{CacheSpec, MaterializedScenario, RunReport, Scenario, WorkloadSource};
pub use scheduler::{Scheduler, SchedulerPolicy};
// Re-exported so downstream crates can inspect or build workload sources
// (`WorkloadSource::Spec` embeds these types) without depending on
// `simcal-workload` directly.
pub use simcal_workload::{Distribution, Workload, WorkloadSpec};
pub use simulator::{simulate, try_simulate, HorizonRun, SimError, SimSession};
pub use stream::{HorizonReport, HorizonSpec, HorizonStats, P2Quantile, DEFAULT_SLO_WAIT};
pub use validate::check_trace;
