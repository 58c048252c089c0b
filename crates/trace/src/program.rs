//! Static program images.
//!
//! A [`Program`] is a contiguous array of [`StaticInst`]s laid out in the
//! virtual address space starting at [`Program::base`], plus the behavior
//! table that gives dynamic semantics to its branches and memory operations.
//! The front-end fetches from the image (including down wrong paths); the
//! [`crate::oracle::Oracle`] walks it to produce the correct-path stream.

use crate::behavior::Behavior;
use elf_types::{Addr, InstClass, StaticInst, INST_BYTES};

/// Default base address for synthesized code.
pub const DEFAULT_CODE_BASE: Addr = 0x0001_0000;

/// Base address of the data segment (disjoint from all code).
pub const DATA_BASE: Addr = 0x1_0000_0000;

/// A static program image plus its behavior table.
#[derive(Debug, Clone)]
pub struct Program {
    name: String,
    base: Addr,
    entry: Addr,
    image: Vec<StaticInst>,
    behaviors: Vec<Behavior>,
    /// Number of alias slots used by `AddrModel::SharedSlot` behaviors.
    alias_slots: usize,
}

impl Program {
    /// Creates a program from its parts.
    ///
    /// # Panics
    ///
    /// Panics if `entry` is outside the image or instructions' `pc` fields
    /// do not match their position.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        base: Addr,
        entry: Addr,
        image: Vec<StaticInst>,
        behaviors: Vec<Behavior>,
        alias_slots: usize,
    ) -> Self {
        assert!(!image.is_empty(), "program image must not be empty");
        for (i, inst) in image.iter().enumerate() {
            debug_assert_eq!(
                inst.pc,
                base + i as u64 * INST_BYTES,
                "instruction {i} pc does not match its layout position"
            );
        }
        let p = Program {
            name: name.into(),
            base,
            entry,
            image,
            behaviors,
            alias_slots,
        };
        assert!(
            p.inst_at(entry).is_some(),
            "entry point {entry:#x} outside image"
        );
        p
    }

    /// Program name (workload identifier).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Lowest code address.
    #[must_use]
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Entry point (also the restart target when the call stack underflows).
    #[must_use]
    pub fn entry(&self) -> Addr {
        self.entry
    }

    /// Number of instructions in the image.
    #[must_use]
    pub fn len_insts(&self) -> usize {
        self.image.len()
    }

    /// Code footprint in bytes.
    #[must_use]
    pub fn code_bytes(&self) -> u64 {
        self.image.len() as u64 * INST_BYTES
    }

    /// One past the highest code address.
    #[must_use]
    pub fn end(&self) -> Addr {
        self.base + self.code_bytes()
    }

    /// The static instruction at `pc`, if inside the image and aligned.
    #[must_use]
    pub fn inst_at(&self, pc: Addr) -> Option<&StaticInst> {
        if pc < self.base || !pc.is_multiple_of(INST_BYTES) {
            return None;
        }
        self.image.get(((pc - self.base) / INST_BYTES) as usize)
    }

    /// The static instruction at `pc`, or a NOP filler for addresses off the
    /// image — wrong-path fetch must always produce *something* to occupy
    /// pipeline slots, exactly like fetching data bytes on real hardware.
    #[must_use]
    pub fn inst_or_nop(&self, pc: Addr) -> StaticInst {
        self.inst_at(pc)
            .copied()
            .unwrap_or_else(|| StaticInst::simple(pc & !(INST_BYTES - 1), InstClass::Nop))
    }

    /// The behavior table.
    #[must_use]
    pub fn behaviors(&self) -> &[Behavior] {
        &self.behaviors
    }

    /// Behavior with the given index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn behavior(&self, idx: u32) -> &Behavior {
        &self.behaviors[idx as usize]
    }

    /// Number of alias slots required by the oracle.
    #[must_use]
    pub fn alias_slots(&self) -> usize {
        self.alias_slots
    }

    /// Iterates over all static instructions in layout order.
    pub fn iter(&self) -> impl Iterator<Item = &StaticInst> {
        self.image.iter()
    }

    /// Counts static instructions matching a predicate (used by tests and
    /// the workload explorer example).
    #[must_use]
    pub fn count_matching(&self, f: impl Fn(&StaticInst) -> bool) -> usize {
        self.image.iter().filter(|i| f(i)).count()
    }
}

elf_types::snap_struct!(Program { name, base, entry, image, behaviors, alias_slots }
    check Program::check_loaded);

impl Program {
    /// Re-checks the invariants [`Program::new`] asserts on a program
    /// loaded from a snapshot, so corrupt bytes surface as
    /// [`elf_types::SnapError`] rather than a panic.
    fn check_loaded(&self) -> Result<(), elf_types::SnapError> {
        use elf_types::SnapError;
        let base = self.base;
        if self.image.is_empty() {
            return Err(SnapError::mismatch("program image is empty"));
        }
        for (i, inst) in self.image.iter().enumerate() {
            if inst.pc != base + i as u64 * INST_BYTES {
                return Err(SnapError::mismatch(format!(
                    "instruction {i} pc {:#x} off its layout position",
                    inst.pc
                )));
            }
        }
        let end = base + self.image.len() as u64 * INST_BYTES;
        let entry = self.entry;
        if entry < base || entry >= end || !entry.is_multiple_of(INST_BYTES) {
            return Err(SnapError::mismatch(format!(
                "entry {entry:#x} outside image"
            )));
        }
        for inst in &self.image {
            if inst.behavior != elf_types::inst::NO_BEHAVIOR
                && inst.behavior as usize >= self.behaviors.len()
            {
                return Err(SnapError::mismatch(format!(
                    "behavior index {} out of range at {:#x}",
                    inst.behavior, inst.pc
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elf_types::BranchKind;

    fn tiny() -> Program {
        let base = 0x1000;
        let mut image = Vec::new();
        for i in 0..8u64 {
            image.push(StaticInst::simple(base + i * 4, InstClass::Alu));
        }
        image[7].class = InstClass::Branch(BranchKind::UncondDirect);
        image[7].target = Some(base);
        Program::new("tiny", base, base, image, Vec::new(), 0)
    }

    #[test]
    fn inst_at_maps_addresses_to_layout() {
        let p = tiny();
        assert_eq!(p.inst_at(0x1000).unwrap().pc, 0x1000);
        assert_eq!(p.inst_at(0x101c).unwrap().pc, 0x101c);
        assert!(p.inst_at(0x1020).is_none(), "one past the end");
        assert!(p.inst_at(0x0ffc).is_none(), "below base");
        assert!(p.inst_at(0x1002).is_none(), "unaligned");
    }

    #[test]
    fn inst_or_nop_fills_off_image_fetches() {
        let p = tiny();
        let filler = p.inst_or_nop(0x9999_0000);
        assert_eq!(filler.class, InstClass::Nop);
        assert_eq!(p.inst_or_nop(0x1004).class, InstClass::Alu);
    }

    #[test]
    fn geometry_accessors() {
        let p = tiny();
        assert_eq!(p.len_insts(), 8);
        assert_eq!(p.code_bytes(), 32);
        assert_eq!(p.end(), 0x1020);
        assert_eq!(p.count_matching(|i| i.class.is_branch()), 1);
    }

    #[test]
    #[should_panic(expected = "entry point")]
    fn entry_outside_image_panics() {
        let image = vec![StaticInst::simple(0x1000, InstClass::Alu)];
        let _ = Program::new("bad", 0x1000, 0x2000, image, Vec::new(), 0);
    }
}
