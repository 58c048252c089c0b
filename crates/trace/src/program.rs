//! Static program images.
//!
//! A [`Program`] is a contiguous run of [`StaticInst`]s laid out in the
//! virtual address space starting at [`Program::base`], plus the behavior
//! table that gives dynamic semantics to its branches and memory operations.
//! The front-end fetches from the image (including down wrong paths); the
//! [`crate::oracle::Oracle`] walks it to produce the correct-path stream.
//!
//! The image is stored packed, 12 bytes per instruction instead of the 40 of
//! a [`StaticInst`]: server workloads synthesize images of half a million
//! instructions and more. A slot holds the class code (with flags for a
//! present `dst` and the kind of direct target), `dst`, `srcs`, `behavior`
//! and the direct target as an image index; the pc is implied by the slot's
//! position. A target that is not an image slot (off the image or
//! unaligned — only hand-built programs have those, and
//! [`crate::validate::validate`] reports them) is kept in a small side
//! table, so every instruction unpacks to exactly what was stored.

use crate::behavior::Behavior;
use elf_types::inst::NO_BEHAVIOR;
use elf_types::snap::{Snap, SnapError, SnapReader, SnapWriter};
use elf_types::{Addr, BranchKind, InstClass, StaticInst, INST_BYTES};

/// Default base address for synthesized code.
pub const DEFAULT_CODE_BASE: Addr = 0x0001_0000;

/// Base address of the data segment (disjoint from all code).
pub const DATA_BASE: Addr = 0x1_0000_0000;

/// One packed instruction of the image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
struct Slot {
    /// Index into [`CLASSES`] (low four bits), [`DST_PRESENT`] and the
    /// target kind ([`TARGET_MASK`]).
    code: u8,
    /// Destination register; meaningful only with [`DST_PRESENT`].
    dst: u8,
    srcs: [u8; 2],
    behavior: u32,
    /// Image index of a [`TARGET_SLOT`] target, or side-table index of a
    /// [`TARGET_FAR`] one.
    target: u32,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 12);

/// Every instruction class, indexed by its slot code.
const CLASSES: [InstClass; 13] = [
    InstClass::Alu,
    InstClass::Mul,
    InstClass::Div,
    InstClass::Load,
    InstClass::Store,
    InstClass::Simd,
    InstClass::Nop,
    InstClass::Branch(BranchKind::CondDirect),
    InstClass::Branch(BranchKind::UncondDirect),
    InstClass::Branch(BranchKind::Call),
    InstClass::Branch(BranchKind::Return),
    InstClass::Branch(BranchKind::IndirectJump),
    InstClass::Branch(BranchKind::IndirectCall),
];
const CLASS_MASK: u8 = 0x0f;
const DST_PRESENT: u8 = 0x10;
const TARGET_MASK: u8 = 0x60;
const TARGET_NONE: u8 = 0x00;
/// The target is the image slot `Slot::target`.
const TARGET_SLOT: u8 = 0x20;
/// The target is `far_targets[Slot::target]`.
const TARGET_FAR: u8 = 0x40;

#[inline]
fn class_code(class: InstClass) -> u8 {
    match class {
        InstClass::Alu => 0,
        InstClass::Mul => 1,
        InstClass::Div => 2,
        InstClass::Load => 3,
        InstClass::Store => 4,
        InstClass::Simd => 5,
        InstClass::Nop => 6,
        InstClass::Branch(k) => {
            7 + match k {
                BranchKind::CondDirect => 0,
                BranchKind::UncondDirect => 1,
                BranchKind::Call => 2,
                BranchKind::Return => 3,
                BranchKind::IndirectJump => 4,
                BranchKind::IndirectCall => 5,
            }
        }
    }
}

/// Index of `pc` in an image of `len` slots starting at `base`, if `pc` is
/// one of its slots.
#[inline]
fn slot_index(base: Addr, len: usize, pc: Addr) -> Option<usize> {
    if pc < base || !pc.is_multiple_of(INST_BYTES) {
        return None;
    }
    let i = (pc - base) / INST_BYTES;
    (i < len as u64).then_some(i as usize)
}

/// Packs an image of a length known up front, one instruction at a time,
/// checking each pc against its position. Synthesis writes through it
/// directly, so no unpacked copy of a large image ever exists.
#[derive(Debug)]
pub(crate) struct ImageBuilder {
    base: Addr,
    len: usize,
    slots: Vec<Slot>,
    far_targets: Vec<Addr>,
}

impl ImageBuilder {
    /// A builder for an image of exactly `len` instructions at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `len` does not fit a slot's `u32` target index.
    pub(crate) fn new(base: Addr, len: usize) -> Self {
        assert!(
            u32::try_from(len).is_ok(),
            "program image of {len} instructions is too large"
        );
        ImageBuilder {
            base,
            len,
            slots: Vec::with_capacity(len),
            far_targets: Vec::new(),
        }
    }

    /// Address of slot `i`.
    #[inline]
    fn pc_of(&self, i: usize) -> Addr {
        self.base + i as u64 * INST_BYTES
    }

    /// Instructions pushed so far.
    pub(crate) fn pushed(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn pack(&mut self, inst: &StaticInst) -> Slot {
        let (kind, target) = match inst.target {
            None => (TARGET_NONE, 0),
            Some(t) => match slot_index(self.base, self.len, t) {
                Some(i) => (TARGET_SLOT, i as u32),
                None => {
                    self.far_targets.push(t);
                    (TARGET_FAR, (self.far_targets.len() - 1) as u32)
                }
            },
        };
        let dst = if inst.dst.is_some() { DST_PRESENT } else { 0 };
        Slot {
            code: class_code(inst.class) | dst | kind,
            dst: inst.dst.unwrap_or(0),
            srcs: inst.srcs,
            behavior: inst.behavior,
            target,
        }
    }

    /// Appends the next instruction ([`ImageBuilder::finish`] checks that
    /// exactly `len` were pushed).
    ///
    /// # Panics
    ///
    /// Panics if `inst.pc` is not the next slot's address.
    #[inline]
    pub(crate) fn push(&mut self, inst: StaticInst) {
        let i = self.slots.len();
        assert_eq!(
            inst.pc,
            self.pc_of(i),
            "instruction {i} pc does not match its layout position"
        );
        let slot = self.pack(&inst);
        self.slots.push(slot);
    }

    /// Rewrites the already-pushed instruction `i` in place.
    pub(crate) fn update(&mut self, i: usize, f: impl FnOnce(&mut StaticInst)) {
        let mut inst = unpack(self.base, &self.far_targets, i, self.slots[i]);
        f(&mut inst);
        assert_eq!(
            inst.pc,
            self.pc_of(i),
            "an update may not move an instruction"
        );
        self.slots[i] = self.pack(&inst);
    }

    /// Finishes the image without checking the entry point (see
    /// [`ImageBuilder::finish`]).
    fn into_program(
        self,
        name: String,
        entry: Addr,
        behaviors: Vec<Behavior>,
        alias_slots: usize,
    ) -> Program {
        Program {
            name,
            base: self.base,
            entry,
            slots: self.slots,
            far_targets: self.far_targets,
            behaviors,
            alias_slots,
        }
    }

    /// Finishes the image into a program.
    ///
    /// # Panics
    ///
    /// Panics if the image is empty or not full, or `entry` is outside it.
    pub(crate) fn finish(
        self,
        name: impl Into<String>,
        entry: Addr,
        behaviors: Vec<Behavior>,
        alias_slots: usize,
    ) -> Program {
        assert!(self.len > 0, "program image must not be empty");
        assert_eq!(
            self.slots.len(),
            self.len,
            "program image filled {} of its {} slots",
            self.slots.len(),
            self.len
        );
        let p = self.into_program(name.into(), entry, behaviors, alias_slots);
        assert!(p.contains(entry), "entry point {entry:#x} outside image");
        p
    }
}

/// Unpacks slot `i` of an image at `base` with side table `far_targets`.
#[inline]
fn unpack(base: Addr, far_targets: &[Addr], i: usize, s: Slot) -> StaticInst {
    StaticInst {
        pc: base + i as u64 * INST_BYTES,
        class: CLASSES[usize::from(s.code & CLASS_MASK)],
        target: match s.code & TARGET_MASK {
            TARGET_NONE => None,
            TARGET_SLOT => Some(base + u64::from(s.target) * INST_BYTES),
            _ => Some(far_targets[s.target as usize]),
        },
        dst: (s.code & DST_PRESENT != 0).then_some(s.dst),
        srcs: s.srcs,
        behavior: s.behavior,
    }
}

/// A static program image plus its behavior table.
#[derive(Debug, Clone)]
pub struct Program {
    name: String,
    base: Addr,
    entry: Addr,
    slots: Vec<Slot>,
    /// Direct targets that are not image slots, indexed by
    /// [`TARGET_FAR`] slots.
    far_targets: Vec<Addr>,
    behaviors: Vec<Behavior>,
    /// Number of alias slots used by `AddrModel::SharedSlot` behaviors.
    alias_slots: usize,
}

impl Program {
    /// Creates a program from its parts.
    ///
    /// # Panics
    ///
    /// Panics if the image is empty, `entry` is outside it, or an
    /// instruction's `pc` does not match its position.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        base: Addr,
        entry: Addr,
        image: Vec<StaticInst>,
        behaviors: Vec<Behavior>,
        alias_slots: usize,
    ) -> Self {
        let mut b = ImageBuilder::new(base, image.len());
        for inst in image {
            b.push(inst);
        }
        b.finish(name, entry, behaviors, alias_slots)
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
        self.slots.len()
    }

    /// Code footprint in bytes.
    #[must_use]
    pub fn code_bytes(&self) -> u64 {
        self.slots.len() as u64 * INST_BYTES
    }

    /// One past the highest code address.
    #[must_use]
    pub fn end(&self) -> Addr {
        self.base + self.code_bytes()
    }

    /// Whether `pc` is the address of an instruction of the image (inside
    /// it and aligned).
    #[inline]
    #[must_use]
    pub fn contains(&self, pc: Addr) -> bool {
        slot_index(self.base, self.slots.len(), pc).is_some()
    }

    #[inline]
    fn unpack(&self, i: usize, s: Slot) -> StaticInst {
        unpack(self.base, &self.far_targets, i, s)
    }

    /// The static instruction at `pc`, if inside the image and aligned.
    #[inline]
    #[must_use]
    pub fn inst_at(&self, pc: Addr) -> Option<StaticInst> {
        let i = slot_index(self.base, self.slots.len(), pc)?;
        Some(self.unpack(i, self.slots[i]))
    }

    /// The static instruction at `pc`, or a NOP filler for addresses off the
    /// image — wrong-path fetch must always produce *something* to occupy
    /// pipeline slots, exactly like fetching data bytes on real hardware.
    #[inline]
    #[must_use]
    pub fn inst_or_nop(&self, pc: Addr) -> StaticInst {
        self.inst_at(pc)
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
    pub fn iter(&self) -> impl Iterator<Item = StaticInst> + '_ {
        self.slots
            .iter()
            .enumerate()
            .map(|(i, &s)| self.unpack(i, s))
    }

    /// Counts static instructions matching a predicate (used by tests and
    /// the workload explorer example).
    #[must_use]
    pub fn count_matching(&self, f: impl Fn(&StaticInst) -> bool) -> usize {
        self.iter().filter(|i| f(i)).count()
    }

    /// Re-checks the invariants [`Program::new`] asserts (beyond the pc
    /// positions, which loading checks per instruction) on a program
    /// loaded from a snapshot, so corrupt bytes surface as [`SnapError`]
    /// rather than a panic.
    fn check_loaded(&self) -> Result<(), SnapError> {
        if !self.contains(self.entry) {
            return Err(SnapError::mismatch(format!(
                "entry {:#x} outside image",
                self.entry
            )));
        }
        for (i, s) in self.slots.iter().enumerate() {
            if s.behavior != NO_BEHAVIOR && s.behavior as usize >= self.behaviors.len() {
                return Err(SnapError::mismatch(format!(
                    "behavior index {} out of range at {:#x}",
                    s.behavior,
                    self.base + i as u64 * INST_BYTES
                )));
            }
        }
        Ok(())
    }
}

/// The snapshot layout is that of the unpacked form — name, base, entry,
/// the `Vec<StaticInst>` image, behaviors, alias slots — so snapshot bytes
/// do not depend on how the image is stored. Saving streams the unpacked
/// instructions; loading packs them as they are read.
impl Snap for Program {
    fn save(&self, w: &mut SnapWriter) {
        self.name.save(w);
        self.base.save(w);
        self.entry.save(w);
        self.slots.len().save(w);
        for inst in self.iter() {
            inst.save(w);
        }
        self.behaviors.save(w);
        self.alias_slots.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let name = String::load(r)?;
        let base = Addr::load(r)?;
        let entry = Addr::load(r)?;
        let n = r.count("Vec")?;
        if n == 0 {
            return Err(SnapError::mismatch("program image is empty"));
        }
        if u32::try_from(n).is_err() {
            return Err(SnapError::mismatch(format!(
                "program image of {n} instructions is too large"
            )));
        }
        let mut image = ImageBuilder::new(base, n);
        for i in 0..n {
            let inst = StaticInst::load(r)?;
            if inst.pc != image.pc_of(i) {
                return Err(SnapError::mismatch(format!(
                    "instruction {i} pc {:#x} off its layout position",
                    inst.pc
                )));
            }
            image.push(inst);
        }
        let behaviors = Vec::<Behavior>::load(r)?;
        let alias_slots = usize::load(r)?;
        let p = image.into_program(name, entry, behaviors, alias_slots);
        p.check_loaded()?;
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elf_types::BranchKind;

    fn tiny_image(base: Addr) -> Vec<StaticInst> {
        (0..8u64)
            .map(|i| StaticInst::simple(base + i * 4, InstClass::Alu))
            .collect()
    }

    fn tiny() -> Program {
        let base = 0x1000;
        let mut image = tiny_image(base);
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
    fn a_slot_is_twelve_bytes() {
        assert_eq!(std::mem::size_of::<Slot>(), 12);
    }

    #[test]
    #[should_panic(expected = "layout position")]
    fn misplaced_pc_panics() {
        let image = vec![
            StaticInst::simple(0x1000, InstClass::Alu),
            StaticInst::simple(0x1008, InstClass::Alu),
        ];
        let _ = Program::new("bad", 0x1000, 0x1000, image, Vec::new(), 0);
    }

    #[test]
    fn far_targets_round_trip_through_the_side_table() {
        let base = 0x1000;
        let mut image = tiny_image(base);
        image[3].class = InstClass::Branch(BranchKind::Call);
        image[3].target = Some(0xdead_0002);
        image[5].class = InstClass::Branch(BranchKind::UncondDirect);
        image[5].target = Some(base + 0x20);
        let p = Program::new("far", base, base, image.clone(), Vec::new(), 0);
        assert_eq!(p.iter().collect::<Vec<_>>(), image);
        assert_eq!(p.inst_at(base + 20).unwrap().target, Some(base + 0x20));
    }

    #[test]
    #[should_panic(expected = "entry point")]
    fn entry_outside_image_panics() {
        let image = vec![StaticInst::simple(0x1000, InstClass::Alu)];
        let _ = Program::new("bad", 0x1000, 0x2000, image, Vec::new(), 0);
    }
}
