//! The packed program image gives back exactly the instructions it was
//! built from, whatever they hold: targets inside the image, outside it,
//! unaligned or absent, `dst: Some(255)`, `NO_BEHAVIOR`, every class. Its
//! snapshot bytes are those of the unpacked `Vec<StaticInst>` layout.

use elf_trace::behavior::{Behavior, DirectionModel};
use elf_trace::Program;
use elf_types::inst::{NO_BEHAVIOR, NO_REG};
use elf_types::snap::{Snap, SnapReader, SnapWriter};
use elf_types::{Addr, BranchKind, InstClass, StaticInst, INST_BYTES};
use proptest::prelude::*;

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

/// Behaviors of the generated programs; instructions index them or carry
/// `NO_BEHAVIOR` (a snapshot rejects any other index).
const BEHAVIORS: u32 = 3;

/// One instruction, before its pc is known: class, target selector and
/// offset, dst selector, sources and behavior selector.
type RawInst = (usize, u8, u32, u16, (u8, u8), u32);

fn arb_inst() -> impl Strategy<Value = RawInst> {
    (
        0usize..CLASSES.len(),
        0u8..5,
        any::<u32>(),
        0u16..258,
        (any::<u8>(), any::<u8>()),
        0u32..=BEHAVIORS,
    )
}

/// Builds the instruction at slot `i` of an image of `len` slots at `base`.
fn inst(base: Addr, len: usize, i: usize, raw: RawInst) -> StaticInst {
    let (class, target_sel, off, dst, srcs, behavior) = raw;
    let pc = base + i as u64 * INST_BYTES;
    let end = base + len as u64 * INST_BYTES;
    let in_image = base + u64::from(off) % len as u64 * INST_BYTES;
    StaticInst {
        pc,
        class: CLASSES[class],
        target: match target_sel {
            0 => None,
            1 => Some(in_image),
            2 => Some(in_image + 1 + u64::from(off % 3)),
            3 => Some(end + u64::from(off % 64) * INST_BYTES),
            _ => Some(base.saturating_sub(INST_BYTES * (1 + u64::from(off % 64)))),
        },
        dst: match dst {
            256 => None,
            257 => Some(255),
            d => Some(d as u8),
        },
        srcs: [srcs.0, if srcs.1 < 64 { NO_REG } else { srcs.1 }],
        behavior: if behavior == BEHAVIORS {
            NO_BEHAVIOR
        } else {
            behavior
        },
    }
}

fn behaviors() -> Vec<Behavior> {
    (0..BEHAVIORS)
        .map(|_| Behavior::Dir(DirectionModel::AlwaysTaken))
        .collect()
}

fn save(p: &Program) -> Vec<u8> {
    let mut w = SnapWriter::new();
    p.save(&mut w);
    w.into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn packed_image_round_trips_every_instruction(
        raw in proptest::collection::vec(arb_inst(), 1..48),
        base_slot in 1u64..1 << 20,
        entry_sel in any::<usize>(),
    ) {
        let base = base_slot * INST_BYTES;
        let len = raw.len();
        let image: Vec<StaticInst> =
            raw.into_iter().enumerate().map(|(i, r)| inst(base, len, i, r)).collect();
        let entry = base + (entry_sel % len) as u64 * INST_BYTES;
        let p = Program::new("prop", base, entry, image.clone(), behaviors(), 2);

        prop_assert_eq!(p.iter().collect::<Vec<_>>(), image.clone());
        for inst in &image {
            prop_assert_eq!(p.inst_at(inst.pc), Some(*inst));
            prop_assert_eq!(p.inst_or_nop(inst.pc), *inst);
            prop_assert!(p.contains(inst.pc));
            prop_assert!(!p.contains(inst.pc + 2), "unaligned pc inside a slot");
        }
        prop_assert!(!p.contains(base - INST_BYTES) && p.inst_at(base - INST_BYTES).is_none());
        prop_assert!(!p.contains(p.end()) && p.inst_at(p.end()).is_none());
        prop_assert_eq!(p.inst_or_nop(p.end() + 1).class, InstClass::Nop);
        for class in CLASSES {
            prop_assert_eq!(
                p.count_matching(|i| i.class == class),
                image.iter().filter(|i| i.class == class).count()
            );
        }

        // The snapshot bytes are the unpacked layout's, and loading packs
        // them back into the same program.
        let bytes = save(&p);
        let mut w = SnapWriter::new();
        "prop".to_string().save(&mut w);
        base.save(&mut w);
        entry.save(&mut w);
        image.save(&mut w);
        behaviors().save(&mut w);
        2usize.save(&mut w);
        prop_assert!(bytes == w.into_bytes(), "snapshot layout moved");
        let mut r = SnapReader::new(&bytes);
        let q = Program::load(&mut r).expect("loads");
        prop_assert_eq!(r.remaining(), 0);
        prop_assert!(save(&q) == bytes, "save(load(bytes)) differs");
        prop_assert_eq!(q.iter().collect::<Vec<_>>(), image);
    }
}

#[test]
fn loading_rejects_a_misplaced_pc() {
    let base = 0x1000;
    // The two instructions of a two-slot image, in the wrong order.
    let swapped = vec![
        StaticInst::simple(base + INST_BYTES, InstClass::Alu),
        StaticInst::simple(base, InstClass::Alu),
    ];
    let mut w = SnapWriter::new();
    "bad".to_string().save(&mut w);
    base.save(&mut w);
    base.save(&mut w);
    swapped.save(&mut w);
    Vec::<Behavior>::new().save(&mut w);
    0usize.save(&mut w);
    let err = Program::load(&mut SnapReader::new(&w.into_bytes())).expect_err("misplaced");
    assert!(err.to_string().contains("layout position"), "{err}");
}
