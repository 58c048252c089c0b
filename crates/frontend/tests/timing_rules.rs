//! Tests of the paper's timing rules (Fig. 2) and the resynchronization
//! walkthrough (Fig. 5), driven against hand-built programs.

use elf_frontend::{ElfVariant, FetchArch, Frontend, FrontendConfig, RetireInfo, TickOutput};
use elf_mem::MemorySystem;
use elf_trace::program::Program;
use elf_types::{Addr, BranchKind, FetchMode, InstClass, StaticInst};

/// `n_blocks` blocks of `block_len` instructions, each ending with an
/// unconditional jump to the next block; the last jumps back to the first.
fn jump_chain(n_blocks: usize, block_len: usize) -> Program {
    let base: Addr = 0x2_0000;
    let total = block_len + 1;
    let mut image = Vec::new();
    for b in 0..n_blocks {
        let start = base + (b * total) as u64 * 4;
        for i in 0..block_len {
            image.push(StaticInst::simple(start + i as u64 * 4, InstClass::Alu));
        }
        let mut jmp = StaticInst::simple(
            start + block_len as u64 * 4,
            InstClass::Branch(BranchKind::UncondDirect),
        );
        let next = if b + 1 == n_blocks {
            base
        } else {
            start + total as u64 * 4
        };
        jmp.target = Some(next);
        image.push(jmp);
    }
    Program::new("jump-chain", base, base, image, Vec::new(), 0)
}

/// Drives a frontend with perfect retirement for `cycles` cycles starting
/// at `*clock`, advancing the clock. Returns the number of instructions
/// delivered.
fn drive(
    fe: &mut Frontend,
    prog: &Program,
    mem: &mut MemorySystem,
    clock: &mut u64,
    cycles: u64,
) -> u64 {
    let mut delivered = 0;
    let mut out = TickOutput::default();
    for _ in 0..cycles {
        let c = *clock;
        *clock += 1;
        fe.tick_into(prog, mem, c, &mut out);
        for d in &out.delivered {
            delivered += 1;
            let kind = d.inst.sinst.branch_kind();
            fe.retire(&RetireInfo {
                fid: d.fid,
                pc: d.inst.sinst.pc,
                kind,
                taken: kind.is_some(),
                next_pc: d.inst.sinst.target.unwrap_or(d.inst.sinst.pc + 4),
                static_target: d.inst.sinst.target,
                mode: d.inst.mode,
            });
        }
    }
    delivered
}

#[test]
fn l0_btb_hits_hide_all_taken_branch_bubbles() {
    // A 4-block chain (8 BTB-entry-sized blocks at most) fits the 24-entry
    // L0 BTB: once warm, BP1 generates one block per cycle with zero
    // bubbles even though every block ends in a taken branch (§III-B:
    // "an L0 BTB hit prevents any bubble from being inserted in BP1").
    let prog = jump_chain(4, 7);
    let mut fe = Frontend::new(FrontendConfig::paper(), FetchArch::Dcf, prog.entry());
    let mut mem = MemorySystem::paper();
    let mut clock = 0;
    drive(&mut fe, &prog, &mut mem, &mut clock, 3_000); // warm BTB + caches
    fe.reset_stats();
    drive(&mut fe, &prog, &mut mem, &mut clock, 500);
    let s = fe.stats();
    assert!(
        s.faq_blocks > 100,
        "DCF must keep generating: {}",
        s.faq_blocks
    );
    assert_eq!(
        s.bp_bubbles, 0,
        "warm L0 BTB: taken branches must cost zero BP bubbles"
    );
    assert_eq!(s.btb_miss_blocks, 0, "warm BTB never misses");
}

#[test]
fn l1_btb_hits_cost_one_bubble_per_taken_branch() {
    // 64 blocks exceed the 24-entry L0 BTB but fit the 256-entry L1: most
    // lookups hit the L1, costing one bubble per taken exit (§III-B).
    let prog = jump_chain(64, 7);
    let mut fe = Frontend::new(FrontendConfig::paper(), FetchArch::Dcf, prog.entry());
    let mut mem = MemorySystem::paper();
    let mut clock = 0;
    drive(&mut fe, &prog, &mut mem, &mut clock, 8_000);
    fe.reset_stats();
    drive(&mut fe, &prog, &mut mem, &mut clock, 1_000);
    let s = fe.stats();
    assert!(s.faq_blocks > 100);
    let bubbles_per_block = s.bp_bubbles as f64 / s.faq_blocks as f64;
    assert!(
        bubbles_per_block > 0.4,
        "L0-thrashing chain must pay taken-branch bubbles: {bubbles_per_block} per block"
    );
}

#[test]
fn cold_btb_streams_proxies_then_warms_up() {
    let prog = jump_chain(8, 7);
    let mut fe = Frontend::new(FrontendConfig::paper(), FetchArch::Dcf, prog.entry());
    let mut mem = MemorySystem::paper();
    let mut clock = 0;
    drive(&mut fe, &prog, &mut mem, &mut clock, 600);
    let cold = fe.stats().btb_miss_blocks;
    assert!(cold > 0, "cold BTB must stream sequential proxies");
    fe.reset_stats();
    drive(&mut fe, &prog, &mut mem, &mut clock, 600);
    let warm = fe.stats().btb_miss_blocks;
    assert!(
        warm * 4 < cold.max(4),
        "warm BTB must stop missing: cold {cold} vs warm {warm}"
    );
}

#[test]
fn figure5_walkthrough_coupled_then_resync() {
    // The Fig. 5 scenario in miniature: a flush drops an ELF front-end into
    // coupled mode; it fetches sequentially, the DCF catches up, the FAQ is
    // amended and the machine switches back to decoupled mode without
    // losing or duplicating instructions.
    let prog = jump_chain(4, 12);
    let mut fe = Frontend::new(
        FrontendConfig::paper(),
        FetchArch::Elf(ElfVariant::U),
        prog.entry(),
    );
    let mut mem = MemorySystem::paper();
    let mut clock = 0;
    // Warm everything in decoupled steady state.
    drive(&mut fe, &prog, &mut mem, &mut clock, 3_000);
    assert!(!fe.in_coupled_mode(), "warm ELF runs decoupled");

    // Flush to the program entry: coupled mode entered.
    fe.flush(
        &elf_frontend::FlushCtx {
            restart_pc: prog.entry(),
            boundary_fid: u64::MAX / 2,
            hist_replay: &[],
            ras_replay: &[],
        },
        3_000,
    );
    assert!(fe.in_coupled_mode(), "ELF couples on a flush (§IV-A)");
    fe.reset_stats();

    // Collect the delivered stream while the resync plays out.
    let mut delivered: Vec<(Addr, FetchMode)> = Vec::new();
    let mut out = TickOutput::default();
    for c in 3_001..3_120 {
        fe.tick_into(&prog, &mut mem, c, &mut out);
        for d in &out.delivered {
            delivered.push((d.inst.sinst.pc, d.inst.mode));
            let kind = d.inst.sinst.branch_kind();
            fe.retire(&RetireInfo {
                fid: d.fid,
                pc: d.inst.sinst.pc,
                kind,
                taken: kind.is_some(),
                next_pc: d.inst.sinst.target.unwrap_or(d.inst.sinst.pc + 4),
                static_target: d.inst.sinst.target,
                mode: d.inst.mode,
            });
        }
    }
    assert!(!fe.in_coupled_mode(), "the DCF must catch up and take over");
    let s = fe.stats();
    assert!(
        s.delivered_coupled > 0,
        "coupled mode delivered the early insts"
    );
    assert!(
        delivered.iter().any(|&(_, m)| m == FetchMode::Decoupled),
        "stream must continue decoupled after the switch"
    );
    // The delivered stream is exactly the program path: contiguous PCs
    // across the coupled→decoupled hand-off.
    for w in delivered.windows(2) {
        let (pc, _) = w[0];
        let (next, _) = w[1];
        let inst = prog.inst_at(pc).expect("on image");
        let expect = inst.target.unwrap_or(pc + 4);
        assert_eq!(next, expect, "hand-off must not skip or repeat PCs");
    }
    // Coupled mode is the transient state.
    assert!(
        s.coupled_cycle_fraction() < 0.5,
        "coupled fraction {}",
        s.coupled_cycle_fraction()
    );
}

#[test]
fn boomerang_probe_recovers_btb_misses_from_resident_lines() {
    // §VI-C extension: with `btb_miss_probe`, a BTB miss whose line sits in
    // the L0I is pre-decoded into a real block instead of a blind proxy.
    let prog = jump_chain(8, 7);
    let run = |probe: bool| {
        let mut cfg = FrontendConfig::paper();
        cfg.btb_miss_probe = probe;
        let mut fe = Frontend::new(cfg, FetchArch::Dcf, prog.entry());
        let mut mem = MemorySystem::paper();
        // The BTB only fills at retirement, so NOT retiring keeps it cold
        // while the code's lines become resident in the caches.
        let mut out = TickOutput::default();
        for c in 0..800 {
            fe.tick_into(&prog, &mut mem, c, &mut out);
        }
        (fe.stats().btb_miss_blocks, fe.stats().boomerang_blocks)
    };
    let (proxies_off, boom_off) = run(false);
    let (proxies_on, boom_on) = run(true);
    assert_eq!(boom_off, 0);
    assert!(boom_on > 0, "probe must recover blocks from resident lines");
    assert!(
        proxies_on < proxies_off,
        "recovered blocks replace proxies: {proxies_on} vs {proxies_off}"
    );
}

#[test]
fn nodcf_pays_taken_branch_bubbles_where_dcf_hides_them() {
    // The motivating comparison of §I: same warm loop, NoDCF delivers
    // fewer instructions per cycle because every taken branch costs a
    // fetch redirect.
    let prog = jump_chain(4, 7);
    let throughput = |arch| {
        let mut fe = Frontend::new(FrontendConfig::paper(), arch, prog.entry());
        let mut mem = MemorySystem::paper();
        let mut clock = 0;
        drive(&mut fe, &prog, &mut mem, &mut clock, 3_000);
        fe.reset_stats();
        drive(&mut fe, &prog, &mut mem, &mut clock, 500) as f64 / 500.0
    };
    let dcf = throughput(FetchArch::Dcf);
    let nodcf = throughput(FetchArch::NoDcf);
    assert!(
        dcf > nodcf * 1.1,
        "DCF must out-deliver NoDCF on a taken-branch-dense loop: {dcf:.2} vs {nodcf:.2}"
    );
}

#[test]
fn stale_btb_direct_target_divergence_trusts_the_fetcher() {
    // §IV-C2: "On a taken direct branch the fetcher has the decoded target,
    // which is the correct one. This target might differ from the one
    // recorded by the BTB in the case of self-modifying code. If that is
    // the case, then DCF is flushed and fetching continues in coupled
    // mode." No synthetic workload self-modifies, so the stale entry is
    // injected directly.
    use elf_sim_btb_shim::*;
    let prog = jump_chain(4, 7);
    let mut fe = Frontend::new(
        FrontendConfig::paper(),
        FetchArch::Elf(ElfVariant::U),
        prog.entry(),
    );
    let mut mem = MemorySystem::paper();
    let mut clock = 0;
    drive(&mut fe, &prog, &mut mem, &mut clock, 2_000); // warm
    assert!(!fe.in_coupled_mode());

    // Poison the first block's entry: its terminating jump (offset 7)
    // "now" targets the wrong block.
    let base = prog.entry();
    let mut stale = BtbEntry::new(base, 8);
    assert!(stale.add_branch(BtbBranch {
        offset: 7,
        kind: BranchKind::UncondDirect,
        target: Some(base + 0x400), // bogus
    }));
    fe.inject_btb_entry(stale);

    // Flush to the entry: coupled mode decodes the TRUE target while the
    // DCF follows the stale one — the target queues must catch it and the
    // fetcher must win.
    fe.flush(
        &elf_frontend::FlushCtx {
            restart_pc: base,
            boundary_fid: u64::MAX / 2,
            hist_replay: &[],
            ras_replay: &[],
        },
        clock,
    );
    fe.reset_stats();
    let mut delivered: Vec<Addr> = Vec::new();
    let mut out = TickOutput::default();
    for _ in 0..200 {
        let c = clock;
        clock += 1;
        fe.tick_into(&prog, &mut mem, c, &mut out);
        for d in &out.delivered {
            delivered.push(d.inst.sinst.pc);
            let kind = d.inst.sinst.branch_kind();
            fe.retire(&RetireInfo {
                fid: d.fid,
                pc: d.inst.sinst.pc,
                kind,
                taken: kind.is_some(),
                next_pc: d.inst.sinst.target.unwrap_or(d.inst.sinst.pc + 4),
                static_target: d.inst.sinst.target,
                mode: d.inst.mode,
            });
        }
    }
    assert!(
        fe.stats().divergences_fetcher > 0,
        "direct-target mismatch must be resolved in the fetcher's favor"
    );
    // The delivered stream followed the DECODED (true) path, never the
    // stale target.
    assert!(delivered.iter().all(|&pc| pc < base + 0x400));
    // And the jump's true successor was delivered right after it.
    let jmp = base + 7 * 4;
    let true_target = prog.inst_at(jmp).unwrap().target.unwrap();
    let followed = delivered
        .windows(2)
        .filter(|w| w[0] == jmp)
        .all(|w| w[1] == true_target);
    assert!(
        followed,
        "every jump delivery must be followed by its true target"
    );
}

/// Shim so the test body above can name BTB types tersely.
mod elf_sim_btb_shim {
    pub use elf_btb::{BtbBranch, BtbEntry};
}

#[test]
fn interleaved_l0i_fetches_cross_taken_branches_in_one_cycle() {
    // §VI-A: "allowing the fetcher to fetch across a taken branch in a
    // given cycle if the branch and the target map to the two different
    // set interleaves of the L0I-Cache and if the FAQ has the block of the
    // target available". Two 6-inst blocks ping-pong across an odd number
    // of 64-byte lines, so branch and target always sit on opposite
    // interleaves.
    // 14-inst blocks: one block per BTB entry, consumed in two fetch groups
    // (8 + 6), so the FAQ backlogs behind fetch and the popping group has
    // spare width for the cross-interleave append.
    let base: Addr = 0x2_0000;
    let mut image = Vec::new();
    let block = |image: &mut Vec<StaticInst>, start: Addr, target: Addr| {
        for i in 0..13u64 {
            image.push(StaticInst::simple(start + i * 4, InstClass::Alu));
        }
        let mut jmp = StaticInst::simple(start + 52, InstClass::Branch(BranchKind::UncondDirect));
        jmp.target = Some(target);
        image.push(jmp);
    };
    let b_start = base + 0x140; // 5 lines away: opposite interleave
    block(&mut image, base, b_start);
    // Filler between the two blocks so the image is contiguous.
    for i in 14..(0x140 / 4) {
        image.push(StaticInst::simple(base + i * 4, InstClass::Alu));
    }
    block(&mut image, b_start, base);
    let prog = Program::new("ping-pong", base, base, image, Vec::new(), 0);

    let mut fe = Frontend::new(FrontendConfig::paper(), FetchArch::Dcf, prog.entry());
    let mut mem = MemorySystem::paper();
    let mut clock = 0;
    drive(&mut fe, &prog, &mut mem, &mut clock, 3_000);
    fe.reset_stats();
    drive(&mut fe, &prog, &mut mem, &mut clock, 500);
    assert!(
        fe.stats().interleaved_taken_fetches > 0,
        "opposite-interleave ping-pong must exercise the cross-taken fetch"
    );
}
