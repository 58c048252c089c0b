//! Front-end pipelines: coupled (NoDCF), decoupled (DCF) and ELastic (ELF).
//!
//! This crate is the paper's primary contribution. It models, at cycle
//! granularity, the pipeline of Figure 1:
//!
//! ```text
//!  BP1 → BP2 → FAQ → FE → DEC        (decoupled stages | regular stages)
//! ```
//!
//! Three fetch architectures are selectable via [`config::FetchArch`]:
//!
//! * **NoDCF** — ELF's coupled fetcher, permanently: fetch generates its
//!   own addresses; predictions are attributed in parallel with Decode, so
//!   every predicted-taken branch costs at least one bubble;
//! * **DCF** — the baseline decoupled fetcher: BP1/BP2 walk the BTB ahead of
//!   fetch, enqueue blocks in the FAQ ([`faq::Faq`]), hide taken-branch
//!   bubbles, and drive instruction prefetch — at the price of 3 extra
//!   pipeline stages on every flush and a Decode→BP1 loop on BTB misses;
//! * **ELF** — the hybrid: decoupled in steady state, *coupled* right after
//!   a flush (probing the I-cache immediately with the known-correct PC
//!   while the DCF restarts), with the resynchronization counters of §IV-B
//!   and, for U-ELF, the divergence bitvectors/target queues of §IV-C
//!   ([`divergence::DivergenceTracker`]).

#![warn(missing_docs)]

pub mod config;
pub mod divergence;
pub mod faq;
pub mod frontend;
pub mod stats;
pub mod timing;

pub use config::{CoupledCondKind, ElfVariant, FetchArch, FrontendConfig};
pub use frontend::{
    DeliveredInst, DivergenceSquash, FetchCycleCause, FetchCycleProbe, FlushCtx, Frontend, RasOp,
    RetireInfo, TickOutput,
};
pub use stats::FrontendStats;
