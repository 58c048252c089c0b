//! BTB entry format.

use elf_types::{seq_pc, Addr, BranchKind, MAX_BLOCK_INSTS, MAX_TAKEN_BRANCHES_PER_ENTRY};

/// One branch tracked by a BTB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BtbBranch {
    /// Instruction offset inside the entry (0-based).
    pub offset: u8,
    /// Branch kind.
    pub kind: BranchKind,
    /// Target for direct branches; `None` for indirect branches (their
    /// target comes from the indirect predictor / RAS).
    pub target: Option<Addr>,
}

/// One BTB entry: a run of sequential instructions plus up to
/// [`MAX_TAKEN_BRANCHES_PER_ENTRY`] observed-taken-before branches.
///
/// A conditional branch that was never observed taken occupies no slot
/// (paper §III-A) — the entry simply spans it as a plain instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BtbEntry {
    /// Address of the first instruction.
    pub start_pc: Addr,
    /// Number of sequential instructions tracked (1..=16).
    pub inst_count: u8,
    /// Tracked branches, in offset order.
    branches: [Option<BtbBranch>; MAX_TAKEN_BRANCHES_PER_ENTRY],
}

impl BtbEntry {
    /// Creates an entry with no tracked branches.
    ///
    /// # Panics
    ///
    /// Panics if `inst_count` is 0 or exceeds [`MAX_BLOCK_INSTS`].
    #[must_use]
    pub fn new(start_pc: Addr, inst_count: u8) -> Self {
        assert!(inst_count >= 1 && inst_count as usize <= MAX_BLOCK_INSTS);
        BtbEntry {
            start_pc,
            inst_count,
            branches: [None; MAX_TAKEN_BRANCHES_PER_ENTRY],
        }
    }

    /// Tracked branches in offset order.
    pub fn branches(&self) -> impl Iterator<Item = &BtbBranch> {
        self.branches.iter().flatten()
    }

    /// Number of occupied branch slots.
    #[must_use]
    pub fn branch_count(&self) -> usize {
        self.branches.iter().flatten().count()
    }

    /// Whether another branch slot is free.
    #[must_use]
    pub fn has_free_slot(&self) -> bool {
        self.branch_count() < MAX_TAKEN_BRANCHES_PER_ENTRY
    }

    /// Adds a branch, keeping slots sorted by offset. Returns `false`
    /// (entry unchanged) if the slots are full or a branch at the same
    /// offset is already tracked.
    pub fn add_branch(&mut self, b: BtbBranch) -> bool {
        debug_assert!((b.offset as u64) < u64::from(self.inst_count) || b.offset < 16);
        if self.branches.iter().flatten().any(|x| x.offset == b.offset) {
            return true; // already tracked
        }
        if !self.has_free_slot() {
            return false;
        }
        // Insert, then sort the slots in place: tracked branches by offset,
        // free slots last.
        for slot in &mut self.branches {
            if slot.is_none() {
                *slot = Some(b);
                break;
            }
        }
        self.branches.sort_unstable_by_key(slot_order);
        true
    }

    /// The branch tracked at `offset`, if any.
    #[must_use]
    pub fn branch_at(&self, offset: u8) -> Option<&BtbBranch> {
        self.branches.iter().flatten().find(|b| b.offset == offset)
    }

    /// Fall-through address (one past the last tracked instruction).
    #[must_use]
    pub fn fallthrough(&self) -> Addr {
        seq_pc(self.start_pc, self.inst_count as usize)
    }

    /// Whether the entry tracks the maximum number of sequential
    /// instructions — if not, the speculative PC+16 proxy access of the
    /// next cycle is wrong even without a taken branch, costing a bubble
    /// (the "non-taken branch bubble", §VI-A).
    #[must_use]
    pub fn is_full_length(&self) -> bool {
        self.inst_count as usize == MAX_BLOCK_INSTS
    }

    /// Whether the entry ends with an unconditional branch (which
    /// terminated establishment).
    #[must_use]
    pub fn ends_with_unconditional(&self) -> bool {
        self.branches()
            .last()
            .is_some_and(|b| b.offset == self.inst_count - 1 && b.kind.is_unconditional())
    }

    /// Merges `other` (same `start_pc`) into `self`, growing the span and
    /// union-ing branch slots. If the union needs more than two slots, the
    /// entry is truncated just before the third branch — the split case of
    /// paper §III-A.
    pub fn merge(&mut self, other: &BtbEntry) {
        debug_assert_eq!(self.start_pc, other.start_pc);
        // The union of both slot sets, sorted by offset in a fixed array.
        let mut all = [None; 2 * MAX_TAKEN_BRANCHES_PER_ENTRY];
        let mut len = 0;
        let new = other
            .branches()
            .filter(|b| self.branch_at(b.offset).is_none());
        for b in self.branches().chain(new) {
            all[len] = Some(*b);
            len += 1;
        }
        all.sort_unstable_by_key(slot_order);
        let mut count = self.inst_count.max(other.inst_count);
        if len > MAX_TAKEN_BRANCHES_PER_ENTRY {
            // Split: entry ends just before the third tracked branch.
            let third = all[MAX_TAKEN_BRANCHES_PER_ENTRY].expect("occupied: len counts it");
            count = count.min(third.offset);
        }
        let kept = all[..MAX_TAKEN_BRANCHES_PER_ENTRY].iter().flatten();
        // An unconditional tracked branch still terminates the entry.
        if let Some(u) = kept.clone().find(|b| b.kind.is_unconditional()) {
            count = count.min(u.offset + 1);
        }
        let mut branches = [None; MAX_TAKEN_BRANCHES_PER_ENTRY];
        let mut n = 0;
        for &b in kept {
            if (b.offset) < count {
                branches[n] = Some(b);
                n += 1;
            }
        }
        self.inst_count = count.max(1);
        self.branches = branches;
    }
}

/// Sort key of a branch slot: occupied slots by offset, free slots last.
fn slot_order(slot: &Option<BtbBranch>) -> u16 {
    slot.map_or(u16::MAX, |b| u16::from(b.offset))
}

elf_types::snap_struct!(BtbBranch {
    offset,
    kind,
    target
});
elf_types::snap_struct!(BtbEntry { start_pc, inst_count, branches } check |e: &BtbEntry| {
    if e.inst_count == 0 || usize::from(e.inst_count) > MAX_BLOCK_INSTS {
        return Err(elf_types::SnapError::mismatch(format!(
            "btb entry inst_count {} out of range",
            e.inst_count
        )));
    }
    Ok(())
});

#[cfg(test)]
mod tests {
    use super::*;
    use elf_types::BranchKind::*;

    fn br(offset: u8, kind: BranchKind, target: Addr) -> BtbBranch {
        BtbBranch {
            offset,
            kind,
            target: kind.is_direct().then_some(target),
        }
    }

    #[test]
    fn geometry() {
        let e = BtbEntry::new(0x1000, 10);
        assert_eq!(e.fallthrough(), 0x1000 + 40);
        assert!(!e.is_full_length());
        assert!(BtbEntry::new(0x1000, 16).is_full_length());
    }

    #[test]
    fn add_branch_keeps_offset_order() {
        let mut e = BtbEntry::new(0x1000, 16);
        assert!(e.add_branch(br(9, CondDirect, 0x2000)));
        assert!(e.add_branch(br(3, CondDirect, 0x3000)));
        let offs: Vec<u8> = e.branches().map(|b| b.offset).collect();
        assert_eq!(offs, [3, 9]);
        assert!(!e.add_branch(br(12, CondDirect, 0x4000)), "slots full");
        assert_eq!(e.branch_count(), 2);
    }

    #[test]
    fn duplicate_offset_is_idempotent() {
        let mut e = BtbEntry::new(0x1000, 16);
        assert!(e.add_branch(br(5, CondDirect, 0x2000)));
        assert!(e.add_branch(br(5, CondDirect, 0x2000)));
        assert_eq!(e.branch_count(), 1);
    }

    #[test]
    fn ends_with_unconditional_detection() {
        let mut e = BtbEntry::new(0x1000, 8);
        e.add_branch(br(7, UncondDirect, 0x9000));
        assert!(e.ends_with_unconditional());
        let mut f = BtbEntry::new(0x1000, 8);
        f.add_branch(br(3, CondDirect, 0x9000));
        assert!(!f.ends_with_unconditional());
    }

    #[test]
    fn merge_grows_span_and_unions_slots() {
        let mut a = BtbEntry::new(0x1000, 6);
        a.add_branch(br(5, CondDirect, 0x2000));
        let mut b = BtbEntry::new(0x1000, 16);
        b.add_branch(br(10, CondDirect, 0x3000));
        a.merge(&b);
        assert_eq!(a.inst_count, 16);
        assert_eq!(a.branch_count(), 2);
        assert_eq!(a.branch_at(5).unwrap().target, Some(0x2000));
        assert_eq!(a.branch_at(10).unwrap().target, Some(0x3000));
    }

    #[test]
    fn merge_splits_on_third_taken_branch() {
        // Paper §III-A: a single entry tracks at most two observed-taken
        // branches; a third forces a split.
        let mut a = BtbEntry::new(0x1000, 16);
        a.add_branch(br(4, CondDirect, 0x2000));
        a.add_branch(br(8, CondDirect, 0x3000));
        let mut b = BtbEntry::new(0x1000, 16);
        b.add_branch(br(12, CondDirect, 0x4000));
        a.merge(&b);
        assert_eq!(a.inst_count, 12, "entry truncated before the 3rd branch");
        assert_eq!(a.branch_count(), 2);
        assert!(a.branch_at(12).is_none());
        assert!(!a.is_full_length(), "split entries cause non-taken bubbles");
    }

    #[test]
    fn merge_respects_unconditional_terminator() {
        let mut a = BtbEntry::new(0x1000, 4);
        a.add_branch(br(3, UncondDirect, 0x5000));
        let b = BtbEntry::new(0x1000, 16);
        a.merge(&b);
        assert_eq!(a.inst_count, 4, "unconditional still terminates the entry");
        assert!(a.ends_with_unconditional());
    }
}
