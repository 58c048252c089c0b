//! Layered host-time benchmark for the ELF simulator.
//!
//! - [`workload`] names the benchmark's workloads, the (program ×
//!   architecture) cells each one runs, and how a cell is set up from a
//!   program name and the benchmark seed.
//! - [`digest`] folds every cell's `SimStats` into a digest and compares it
//!   against the values recorded for the default seed.
//! - [`traced`] is a benchmark-side simulator that mirrors `Simulator::run`
//!   for the clean configuration and times each layer's public calls.
//! - [`stats`] holds the order statistics the report uses.

pub mod digest;
pub mod stats;
pub mod traced;
pub mod workload;
