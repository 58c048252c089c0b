//! Fetch-path records: FAQ entries, predictions and fetched instructions.

use crate::inst::{BranchKind, StaticInst};
use crate::Addr;

/// Which fetch engine produced an instruction (paper §IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FetchMode {
    /// PC generation by the fetcher itself (transient, after a flush).
    Coupled,
    /// PC generation by the decoupled fetcher through the FAQ (steady state).
    Decoupled,
}

/// Which structure supplied a prediction — used for statistics and for the
/// variable-latency rules of §III-B (e.g. an L0 BTC hit costs one bubble,
/// an ITTAGE fallback costs three).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredSource {
    /// Bimodal base component of the decoupled TAGE predictor.
    Bimodal,
    /// Tagged component of the decoupled TAGE predictor.
    TageTagged,
    /// L0 indirect branch target cache (decoupled).
    BranchTargetCache,
    /// L1 ITTAGE indirect predictor (decoupled, 3-cycle).
    Ittage,
    /// Return address stack (decoupled).
    Ras,
    /// Target taken from the BTB entry (direct branches).
    Btb,
    /// Coupled bimodal predictor (COND-/U-ELF).
    CoupledBimodal,
    /// Coupled branch target cache (IND-/U-ELF).
    CoupledBtc,
    /// Coupled return address stack (RET-/U-ELF).
    CoupledRas,
    /// No predictor: static not-taken / sequential fall-through assumption.
    StaticNotTaken,
    /// Target decoded from the instruction word at Decode.
    DecodedTarget,
}

/// A branch prediction: direction plus (for taken predictions) a target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted direction (always `true` for unconditional branches).
    pub taken: bool,
    /// Predicted target, if taken and a target source was available.
    pub target: Option<Addr>,
    /// Structure that supplied the direction/target.
    pub source: PredSource,
}

impl Prediction {
    /// A static not-taken prediction (used when no predictor is consulted).
    #[must_use]
    pub fn not_taken() -> Self {
        Prediction {
            taken: false,
            target: None,
            source: PredSource::StaticNotTaken,
        }
    }
}

/// Why a FAQ block ended (paper §IV-B1: the cause of termination is embedded
/// in each FAQ block so the fetcher can detect coupled-mode overshoot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaqTermination {
    /// The block ends with a predicted-taken branch of the given kind.
    TakenBranch(BranchKind),
    /// The BTB entry ended without a taken branch (sequences to the next
    /// entry; may be shorter than the maximum block size).
    FallThrough,
    /// Proxy sequential block generated while missing in all BTB levels —
    /// a misfetch is likely (paper §III-C).
    BtbMiss,
}

impl FaqTermination {
    /// Whether the block ends in a predicted-taken branch.
    #[must_use]
    pub fn is_taken(self) -> bool {
        matches!(self, FaqTermination::TakenBranch(_))
    }
}

/// A branch tracked inside a FAQ block, in block order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaqBranch {
    /// Instruction offset of the branch within the block (0-based).
    pub offset: u8,
    /// Branch kind.
    pub kind: BranchKind,
    /// Predicted direction.
    pub pred_taken: bool,
    /// Predicted target if predicted taken.
    pub pred_target: Option<Addr>,
    /// Predictor that supplied the direction (for update routing).
    pub source: PredSource,
    /// Global-history snapshot at prediction time (simulator metadata: the
    /// retire-time trainer replays the exact predict-time indices with it —
    /// the software equivalent of the checkpoint-queue payload of §IV-D).
    pub hist: u128,
}

impl FaqBranch {
    /// The BP1 prediction this branch carries to Fetch and Decode.
    #[must_use]
    pub fn prediction(&self) -> Prediction {
        Prediction {
            taken: self.pred_taken,
            target: self.pred_target,
            source: self.source,
        }
    }
}

/// One entry of the Fetch Address Queue: a block of sequential instructions
/// plus the control-flow decision that ended it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaqEntry {
    /// Address of the first instruction in the block.
    pub start_pc: Addr,
    /// Number of sequential instructions in the block (1..=16; may be
    /// amended during L-ELF resynchronization, paper §IV-B1 case 3).
    pub inst_count: u8,
    /// Why the block ended.
    pub term: FaqTermination,
    /// Next block's start address (taken target or fall-through).
    pub next_pc: Addr,
    /// Branches tracked in the block (at most 2 taken-capable + terminator).
    pub branches: Vec<FaqBranch>,
}

impl FaqEntry {
    /// An inert zero entry for scratch buffers that are overwritten via
    /// [`FaqEntry::copy_from`] before every use.
    #[must_use]
    pub fn placeholder() -> FaqEntry {
        FaqEntry {
            start_pc: 0,
            inst_count: 0,
            term: FaqTermination::BtbMiss,
            next_pc: 0,
            branches: Vec::new(),
        }
    }

    /// In-place copy that reuses `self`'s branch-vector allocation (the
    /// hot-loop alternative to `clone`).
    pub fn copy_from(&mut self, src: &FaqEntry) {
        self.start_pc = src.start_pc;
        self.inst_count = src.inst_count;
        self.term = src.term;
        self.next_pc = src.next_pc;
        self.branches.clone_from(&src.branches);
    }

    /// Address one past the last instruction of the block.
    #[must_use]
    pub fn end_pc(&self) -> Addr {
        crate::seq_pc(self.start_pc, self.inst_count as usize)
    }

    /// Whether `pc` falls inside this block.
    #[must_use]
    pub fn contains(&self, pc: Addr) -> bool {
        pc >= self.start_pc && pc < self.end_pc()
    }

    /// The tracked branch at instruction offset `off`, if any.
    #[must_use]
    pub fn branch_at(&self, off: u8) -> Option<&FaqBranch> {
        self.branches.iter().find(|b| b.offset == off)
    }
}

/// A fetched (and, by the end of Decode, decoded) instruction record handed
/// to the back-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchedInst {
    /// The static instruction (copied out of the program image).
    pub sinst: StaticInst,
    /// Which engine fetched it.
    pub mode: FetchMode,
    /// Direction/target prediction attributed to it, if it is a branch.
    pub pred: Option<Prediction>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(start: Addr, n: u8, term: FaqTermination, next: Addr) -> FaqEntry {
        FaqEntry {
            start_pc: start,
            inst_count: n,
            term,
            next_pc: next,
            branches: Vec::new(),
        }
    }

    #[test]
    fn faq_entry_geometry() {
        let e = entry(0x1000, 12, FaqTermination::FallThrough, 0x1030);
        assert_eq!(e.end_pc(), 0x1000 + 12 * 4);
        assert!(e.contains(0x1000));
        assert!(e.contains(0x102c));
        assert!(!e.contains(0x1030));
        assert!(!e.contains(0x0ffc));
    }

    #[test]
    fn termination_taken_predicate() {
        assert!(FaqTermination::TakenBranch(BranchKind::Return).is_taken());
        assert!(!FaqTermination::FallThrough.is_taken());
        assert!(!FaqTermination::BtbMiss.is_taken());
    }

    #[test]
    fn not_taken_prediction_has_no_target() {
        let p = Prediction::not_taken();
        assert!(!p.taken);
        assert_eq!(p.target, None);
        assert_eq!(p.source, PredSource::StaticNotTaken);
    }
}
