//! Structural validation of [`Program`]s.
//!
//! The synthesizer only produces well-formed programs, but `Program` is a
//! public construction API — users building custom images (as the tests
//! and examples do) can check them before simulation instead of hitting a
//! panic mid-run.

use crate::behavior::Behavior;
use crate::program::Program;
use elf_types::{Addr, BranchKind};

/// A structural problem found in a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramIssue {
    /// A direct branch targets an address that is not an instruction of
    /// the image (outside it, or unaligned).
    TargetOutsideImage {
        /// Branch address.
        pc: Addr,
        /// Offending target.
        target: Addr,
    },
    /// A direct branch has no static target.
    MissingDirectTarget {
        /// Branch address.
        pc: Addr,
    },
    /// A conditional branch lacks a direction behavior.
    MissingDirectionModel {
        /// Branch address.
        pc: Addr,
    },
    /// A non-return indirect branch lacks a target behavior.
    MissingTargetModel {
        /// Branch address.
        pc: Addr,
    },
    /// An indirect target model can produce an address outside the image.
    IndirectTargetOutsideImage {
        /// Branch address.
        pc: Addr,
        /// Offending target.
        target: Addr,
    },
    /// A memory instruction lacks an address behavior.
    MissingAddressModel {
        /// Instruction address.
        pc: Addr,
    },
    /// The instruction's behavior index points at a behavior of the wrong
    /// kind (e.g. a load referencing a direction model).
    BehaviorKindMismatch {
        /// Instruction address.
        pc: Addr,
    },
}

/// Checks the whole image and returns every issue found (empty = valid).
#[must_use]
pub fn validate(prog: &Program) -> Vec<ProgramIssue> {
    use elf_types::inst::NO_BEHAVIOR;
    let mut issues = Vec::new();
    for inst in prog.iter() {
        let behavior = (inst.behavior != NO_BEHAVIOR
            && (inst.behavior as usize) < prog.behaviors().len())
        .then(|| prog.behavior(inst.behavior));
        match inst.branch_kind() {
            Some(k) if k.is_direct() => {
                match inst.target {
                    None => issues.push(ProgramIssue::MissingDirectTarget { pc: inst.pc }),
                    Some(t) if !prog.contains(t) => {
                        issues.push(ProgramIssue::TargetOutsideImage {
                            pc: inst.pc,
                            target: t,
                        });
                    }
                    Some(_) => {}
                }
                if k.is_conditional() {
                    match behavior {
                        Some(Behavior::Dir(_)) => {}
                        Some(_) => {
                            issues.push(ProgramIssue::BehaviorKindMismatch { pc: inst.pc });
                        }
                        None => {
                            issues.push(ProgramIssue::MissingDirectionModel { pc: inst.pc });
                        }
                    }
                }
            }
            Some(BranchKind::Return) => {}
            Some(_) => match behavior {
                Some(Behavior::Target(m)) => {
                    for &t in m.targets() {
                        if !prog.contains(t) {
                            issues.push(ProgramIssue::IndirectTargetOutsideImage {
                                pc: inst.pc,
                                target: t,
                            });
                        }
                    }
                }
                Some(_) => issues.push(ProgramIssue::BehaviorKindMismatch { pc: inst.pc }),
                None => issues.push(ProgramIssue::MissingTargetModel { pc: inst.pc }),
            },
            None if inst.class.is_mem() => match behavior {
                Some(Behavior::Mem(_)) => {}
                Some(_) => issues.push(ProgramIssue::BehaviorKindMismatch { pc: inst.pc }),
                None => issues.push(ProgramIssue::MissingAddressModel { pc: inst.pc }),
            },
            None => {}
        }
    }
    issues
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::{AddrModel, DirectionModel};
    use crate::program::DATA_BASE;
    use crate::synth::synthesize;
    use crate::workloads;
    use elf_types::{InstClass, StaticInst};

    #[test]
    fn every_registry_workload_validates_cleanly() {
        for w in workloads::all() {
            let prog = synthesize(&w.spec);
            let issues = validate(&prog);
            assert!(
                issues.is_empty(),
                "{}: {:?}",
                w.name,
                &issues[..issues.len().min(3)]
            );
        }
    }

    #[test]
    fn detects_escaping_direct_targets() {
        let base = 0x1000;
        let mut jmp = StaticInst::simple(base, InstClass::Branch(BranchKind::UncondDirect));
        jmp.target = Some(0xdead_0000);
        let prog = Program::new("bad", base, base, vec![jmp], Vec::new(), 0);
        assert_eq!(
            validate(&prog),
            vec![ProgramIssue::TargetOutsideImage {
                pc: base,
                target: 0xdead_0000
            }]
        );
    }

    #[test]
    fn detects_missing_models() {
        let base = 0x1000;
        let mut cond = StaticInst::simple(base, InstClass::Branch(BranchKind::CondDirect));
        cond.target = Some(base + 4);
        let load = StaticInst::simple(base + 4, InstClass::Load);
        let prog = Program::new("bad2", base, base, vec![cond, load], Vec::new(), 0);
        let issues = validate(&prog);
        assert!(issues.contains(&ProgramIssue::MissingDirectionModel { pc: base }));
        assert!(issues.contains(&ProgramIssue::MissingAddressModel { pc: base + 4 }));
    }

    #[test]
    fn detects_behavior_kind_mismatches() {
        let base = 0x1000;
        let mut cond = StaticInst::simple(base, InstClass::Branch(BranchKind::CondDirect));
        cond.target = Some(base + 4);
        cond.behavior = 0;
        let filler = StaticInst::simple(base + 4, InstClass::Alu);
        // Behavior 0 is a *memory* model, not a direction model.
        let behaviors = vec![Behavior::Mem(AddrModel::Random {
            base: DATA_BASE,
            footprint: 4096,
        })];
        let prog = Program::new("bad3", base, base, vec![cond, filler], behaviors, 0);
        assert_eq!(
            validate(&prog),
            vec![ProgramIssue::BehaviorKindMismatch { pc: base }]
        );
    }

    #[test]
    fn plain_instructions_need_nothing() {
        let base = 0x1000;
        let mut image = vec![StaticInst::simple(base, InstClass::Alu)];
        let mut cond = StaticInst::simple(base + 4, InstClass::Branch(BranchKind::CondDirect));
        cond.target = Some(base);
        cond.behavior = 0;
        image.push(cond);
        let behaviors = vec![Behavior::Dir(DirectionModel::AlwaysTaken)];
        let prog = Program::new("ok", base, base, image, behaviors, 0);
        assert!(validate(&prog).is_empty());
    }
}
