//! Common vocabulary types for the ELF front-end simulator.
//!
//! This crate defines the data types shared by every other crate in the
//! workspace: addresses, instruction classes, branch kinds, predictions,
//! fetch-address-queue entries and fetched-instruction records.
//!
//! The modeled ISA is an ARMv8-like fixed-length ISA: every instruction is
//! [`INST_BYTES`] (4) bytes, and indirect branches are unconditional — both
//! properties the paper relies on (§III-B, §IV-F).

#![warn(missing_docs)]

pub mod fetch;
pub mod inst;
pub mod snap;

pub use fetch::{
    FaqBranch, FaqEntry, FaqTermination, FetchMode, FetchedInst, PredSource, Prediction,
};
pub use inst::{BranchKind, InstClass, StaticInst};
pub use snap::{Snap, SnapError, SnapReader, SnapWriter, StateIo};

/// A virtual address. The simulator uses raw `u64` byte addresses throughout.
pub type Addr = u64;

/// Simulation time in cycles.
pub type Cycle = u64;

/// Global dynamic-instruction sequence number (index into the oracle stream).
pub type SeqNum = u64;

/// Size of one instruction in bytes (fixed-length, ARMv8-like).
pub const INST_BYTES: u64 = 4;

/// Maximum number of sequential instructions tracked by one BTB entry /
/// fetch block (paper §III-A: 16, as in AMD Zen).
pub const MAX_BLOCK_INSTS: usize = 16;

/// Maximum number of "observed taken before" branches per BTB entry (paper: 2).
pub const MAX_TAKEN_BRANCHES_PER_ENTRY: usize = 2;

/// Returns the address `n` instructions after `pc`.
#[inline]
#[must_use]
pub fn seq_pc(pc: Addr, n: usize) -> Addr {
    pc + INST_BYTES * n as u64
}

/// Returns the number of instructions between two instruction-aligned
/// addresses, `hi - lo`.
///
/// # Panics
///
/// Panics in debug builds if `hi < lo` or either address is not
/// instruction-aligned.
#[inline]
#[must_use]
pub fn inst_distance(lo: Addr, hi: Addr) -> usize {
    debug_assert!(hi >= lo, "inst_distance: hi < lo ({hi:#x} < {lo:#x})");
    debug_assert_eq!(lo % INST_BYTES, 0);
    debug_assert_eq!(hi % INST_BYTES, 0);
    ((hi - lo) / INST_BYTES) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_pc_advances_by_instruction_size() {
        assert_eq!(seq_pc(0x1000, 0), 0x1000);
        assert_eq!(seq_pc(0x1000, 1), 0x1004);
        assert_eq!(seq_pc(0x1000, 16), 0x1040);
    }

    #[test]
    fn inst_distance_is_inverse_of_seq_pc() {
        for n in 0..64 {
            assert_eq!(inst_distance(0x4000, seq_pc(0x4000, n)), n);
        }
    }
}
