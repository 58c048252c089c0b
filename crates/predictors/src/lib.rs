//! Branch-prediction structures for the ELF front-end simulator.
//!
//! This crate implements the complete prediction infrastructure of Table II:
//!
//! * [`tage::Tage`] — the decoupled 32 KB-class TAGE conditional predictor
//!   (8 tagged tables over geometric history lengths plus a bimodal base);
//! * [`ittage::Ittage`] — the L1 indirect target predictor (3-cycle);
//! * [`btc::BranchTargetCache`] — the 64-entry direct-mapped L0 indirect
//!   target cache (12-bit tags, 1-cycle);
//! * [`ras::Ras`] — 32-entry return address stacks (decoupled and coupled);
//! * [`bimodal::Bimodal`] — the 2K-entry, 3-bit coupled predictor used by
//!   COND-ELF and U-ELF, with the saturation filter of §VI-B; in its
//!   gshare form ([`Bimodal::gshare`]) the history-indexed coupled
//!   predictor of the §VII extension.
//!
//! TAGE and ITTAGE share one private tagged-table core (entries, lookup,
//! allocation, aging, snapshot walk) and keep their own hashing and rules.
//!
//! ## Global history
//!
//! The history-based predictors (TAGE, ITTAGE, gshare) hold no history of
//! their own: `predict` and `train` take the global history as a `u128`
//! argument. TAGE and ITTAGE fold it as [`history::fold`] does, one pass
//! per fold width serving every table. The front-end owns the one
//! speculative register, repairs it on flushes, and hands each branch's
//! predict-time snapshot back at retirement so training replays the exact
//! predict-time indices — the simulator form of checkpoint-based history
//! repair (paper §IV-D); see DESIGN.md §10 for the fidelity discussion.

#![warn(missing_docs)]

pub mod bimodal;
pub mod btc;
pub mod history;
pub mod ittage;
pub mod ras;
pub mod tage;
mod tagged;

pub use bimodal::Bimodal;
pub use btc::BranchTargetCache;
pub use ittage::Ittage;
pub use ras::Ras;
pub use tage::{Tage, TageConfig, TagePrediction};
