//! Cycle-level simulator core: out-of-order back-end, configuration,
//! statistics and experiment harness for the ELF reproduction.
//!
//! The [`sim::Simulator`] glues together the workload substrate
//! (`elf-trace`), the front-end under study (`elf-frontend`) and the
//! out-of-order back-end modeled here ([`backend`]), with the Table II
//! parameters in [`config::SimConfig`].
//!
//! ```
//! use elf_core::{SimConfig, Simulator};
//! use elf_frontend::FetchArch;
//! use elf_trace::workloads;
//!
//! let w = workloads::by_name("641.leela").unwrap();
//! let mut sim = Simulator::try_for_workload(SimConfig::baseline(FetchArch::Dcf), &w)
//!     .expect("valid config");
//! let stats = sim.run(20_000).expect("run completes");
//! assert!(stats.ipc() > 0.1);
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod check;
pub mod config;
pub mod error;
pub mod experiment;
pub mod fault;
pub mod fuzz;
pub mod histogram;
pub mod memdep;
pub mod metrics;
pub mod recorder;
pub mod sim;
pub mod snapshot;
pub mod stats;

pub use check::{commit_stream, differential_check, functional_stream, CommitRecord};
pub use config::{BackendConfig, SimConfig};
pub use error::{DiagnosticReport, SimError};
pub use experiment::{
    geomean, run_grid, CellError, CellFailure, GridCell, GridOptions, GridReport, RunResult,
};
pub use fault::{FaultKind, FaultPlan};
pub use fuzz::{run_fuzz, FuzzCase, FuzzOptions, FuzzOutcome, Sentinel};
pub use metrics::Metrics;
pub use recorder::{FlightRecorder, PipelineEvent, TimedEvent};
pub use sim::Simulator;
pub use snapshot::Snapshot;
pub use stats::SimStats;
