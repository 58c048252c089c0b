//! Behavioral tests of the three fetch architectures against hand-built
//! programs, using a minimal "perfect back-end" driver that retires every
//! delivered correct-path instruction and flushes on mispredictions.

use elf_frontend::{FetchArch, FlushCtx, Frontend, FrontendConfig, RetireInfo, TickOutput};
use elf_mem::MemorySystem;
use elf_trace::program::Program;
use elf_trace::{synthesize, Oracle, ProgramSpec};
use elf_types::{Addr, BranchKind, FetchMode, InstClass, StaticInst};
use std::sync::Arc;

/// Hand-builds a straight-line loop: `len` ALU instructions then an
/// unconditional jump back to the start.
fn loop_program(len: usize) -> Program {
    let base = 0x1_0000;
    let mut image = Vec::new();
    for i in 0..len {
        image.push(StaticInst::simple(base + i as u64 * 4, InstClass::Alu));
    }
    let jmp_pc = base + len as u64 * 4;
    let mut jmp = StaticInst::simple(jmp_pc, InstClass::Branch(BranchKind::UncondDirect));
    jmp.target = Some(base);
    image.push(jmp);
    Program::new("loop", base, base, image, Vec::new(), 0)
}

/// Drives a front-end with a perfect back-end: every correct-path delivered
/// instruction retires `retire_delay` cycles later; mispredicted branches
/// flush. Returns (cycles, retired PCs).
struct MiniDriver {
    fe: Frontend,
    mem: MemorySystem,
    prog: Arc<Program>,
    oracle: Oracle,
    cursor: u64,
    wrong_path: bool,
    cycle: u64,
    retired: Vec<Addr>,
    flushes: u64,
    /// Delivered conditionals predicted not-taken, and how many of them
    /// carried a target anyway.
    not_taken_conds: u64,
    not_taken_conds_with_target: u64,
}

impl MiniDriver {
    fn new(arch: FetchArch, prog: Program, seed: u64) -> Self {
        let prog = Arc::new(prog);
        let start = prog.entry();
        MiniDriver {
            fe: Frontend::new(FrontendConfig::paper(), arch, start),
            mem: MemorySystem::paper(),
            oracle: Oracle::new(Arc::clone(&prog), seed),
            prog,
            cursor: 0,
            wrong_path: false,
            cycle: 0,
            retired: Vec::new(),
            flushes: 0,
            not_taken_conds: 0,
            not_taken_conds_with_target: 0,
        }
    }

    /// Runs until `n` instructions retire (or a cycle cap trips).
    fn run(&mut self, n: usize) {
        let cap = self.cycle + 40_000 + n as u64 * 40;
        let mut out = TickOutput::default();
        while self.retired.len() < n {
            assert!(self.cycle < cap, "driver wedged at cycle {}", self.cycle);
            self.fe
                .tick_into(&self.prog, &mut self.mem, self.cycle, &mut out);
            let mut flush_to: Option<(Addr, u64)> = None;
            for d in &out.delivered {
                let cond = d.inst.sinst.branch_kind() == Some(BranchKind::CondDirect);
                if let Some(p) = d.inst.pred.filter(|p| cond && !p.taken) {
                    self.not_taken_conds += 1;
                    self.not_taken_conds_with_target += u64::from(p.target.is_some());
                }
                if self.wrong_path || flush_to.is_some() {
                    continue;
                }
                let e = self.oracle.entry(self.cursor);
                if d.inst.sinst.pc != e.pc {
                    // Stream left the correct path without a mispredict
                    // (divergence gap); force a resync flush.
                    flush_to = Some((e.pc, d.fid.saturating_sub(1)));
                    continue;
                }
                // Retire immediately (perfect back-end).
                let kind = d.inst.sinst.branch_kind();
                self.fe.retire(&RetireInfo {
                    fid: d.fid,
                    pc: e.pc,
                    kind,
                    taken: e.taken,
                    next_pc: e.next_pc,
                    static_target: d.inst.sinst.target,
                    mode: d.inst.mode,
                });
                self.retired.push(e.pc);
                self.oracle.release_before(self.cursor.saturating_sub(4));
                self.cursor += 1;
                // Check the prediction.
                if let Some(k) = kind {
                    let pred = d.inst.pred.unwrap_or_else(|| {
                        panic!("branch at {:#x} delivered without a prediction", e.pc)
                    });
                    let mispredicted = if k.is_conditional() {
                        pred.taken != e.taken
                            || (e.taken && pred.target.is_some_and(|t| t != e.next_pc))
                    } else {
                        pred.target != Some(e.next_pc)
                    };
                    if mispredicted {
                        flush_to = Some((e.next_pc, d.fid));
                    }
                }
            }
            if let Some((pc, fid)) = flush_to {
                self.flushes += 1;
                self.wrong_path = false;
                let ctx = FlushCtx {
                    restart_pc: pc,
                    boundary_fid: fid,
                    hist_replay: &[],
                    ras_replay: &[],
                };
                self.fe.flush(&ctx, self.cycle);
            }
            self.cycle += 1;
        }
    }
}

#[test]
fn nodcf_follows_a_simple_loop() {
    let mut d = MiniDriver::new(FetchArch::NoDcf, loop_program(12), 1);
    d.run(400);
    // The retired stream must be the loop body over and over.
    for w in d.retired.windows(2) {
        let (a, b) = (w[0], w[1]);
        assert!(
            b == a + 4 || (a == 0x1_0000 + 48 && b == 0x1_0000),
            "{a:#x} -> {b:#x}"
        );
    }
    assert_eq!(d.flushes, 0, "an unconditional loop never mispredicts");
}

#[test]
fn dcf_follows_a_simple_loop_and_warms_the_btb() {
    let mut d = MiniDriver::new(FetchArch::Dcf, loop_program(12), 1);
    d.run(800);
    let s = d.fe.btb_stats();
    assert!(s.installs > 0, "retires must establish BTB entries");
    assert!(
        s.hit_rate_through(2) > 0.5,
        "warm loop must hit the BTB: {:?}",
        s
    );
    assert_eq!(d.flushes, 0);
}

#[test]
fn elf_starts_coupled_then_resynchronizes() {
    let mut d = MiniDriver::new(
        FetchArch::Elf(elf_frontend::ElfVariant::U),
        loop_program(12),
        1,
    );
    assert!(d.fe.in_coupled_mode(), "ELF powers on in coupled mode");
    d.run(800);
    assert!(
        !d.fe.in_coupled_mode(),
        "steady state must be decoupled (coupled is the transient, §IV-A)"
    );
    assert!(d.fe.stats().delivered_coupled > 0, "power-on runs coupled");
}

fn run_synthetic(arch: FetchArch, n: usize) -> MiniDriver {
    let spec = ProgramSpec {
        name: "mini".into(),
        seed: 7,
        num_funcs: 20,
        ..ProgramSpec::default()
    };
    let prog = synthesize(&spec);
    let mut d = MiniDriver::new(arch, prog, spec.seed);
    d.run(n);
    d
}

#[test]
fn all_architectures_make_forward_progress_on_synthetic_code() {
    for arch in [
        FetchArch::NoDcf,
        FetchArch::Dcf,
        FetchArch::Elf(elf_frontend::ElfVariant::L),
        FetchArch::Elf(elf_frontend::ElfVariant::Ret),
        FetchArch::Elf(elf_frontend::ElfVariant::Ind),
        FetchArch::Elf(elf_frontend::ElfVariant::Cond),
        FetchArch::Elf(elf_frontend::ElfVariant::U),
    ] {
        let d = run_synthetic(arch, 20_000);
        assert!(
            d.retired.len() >= 20_000,
            "{arch:?} must retire the target count"
        );
    }
}

#[test]
fn retired_stream_is_identical_across_architectures() {
    // Architectural behavior must not depend on the fetch architecture.
    let mut a = run_synthetic(FetchArch::NoDcf, 10_000).retired;
    let mut b = run_synthetic(FetchArch::Dcf, 10_000).retired;
    let mut c = run_synthetic(FetchArch::Elf(elf_frontend::ElfVariant::U), 10_000).retired;
    a.truncate(10_000);
    b.truncate(10_000);
    c.truncate(10_000);
    assert_eq!(a, b, "NoDCF vs DCF retired streams differ");
    assert_eq!(a, c, "NoDCF vs U-ELF retired streams differ");
}

#[test]
fn not_taken_conditionals_are_delivered_without_a_target() {
    // `FaqBranch::pred_target` is the target *if predicted taken*: BP1,
    // Decode and the coupled predictors all leave a not-taken conditional
    // without one.
    for arch in [FetchArch::Dcf, FetchArch::Elf(elf_frontend::ElfVariant::U)] {
        let d = run_synthetic(arch, 10_000);
        assert!(
            d.not_taken_conds > 0,
            "{arch:?} predicted nothing not-taken"
        );
        assert_eq!(
            d.not_taken_conds_with_target, 0,
            "{arch:?} delivered not-taken conditionals with a target"
        );
    }
}

#[test]
fn elf_coupled_mode_is_the_transient_state() {
    let d = run_synthetic(FetchArch::Elf(elf_frontend::ElfVariant::U), 30_000);
    let s = d.fe.stats();
    let frac = s.coupled_cycle_fraction();
    // The perfect back-end of this driver retires instantly, so flushes are
    // far denser than in the real simulator (where `elf-core` asserts a
    // much lower fraction); this only bounds gross misbehavior.
    assert!(
        frac < 0.8,
        "coupled mode should be a fraction of cycles, got {frac} \
         (periods={}, coupled={}, decoupled={})",
        s.coupled_periods,
        s.coupled_cycles,
        s.decoupled_cycles
    );
}

#[test]
fn dcf_streams_proxy_blocks_on_cold_btb() {
    let prog = loop_program(40);
    let prog_arc = Program::clone(&prog);
    let mut fe = Frontend::new(FrontendConfig::paper(), FetchArch::Dcf, prog.entry());
    let mut mem = MemorySystem::paper();
    // Generous cycle budget: the first fetches pay cold DRAM latency.
    let mut out = TickOutput::default();
    for c in 0..2000 {
        fe.tick_into(&prog_arc, &mut mem, c, &mut out);
    }
    assert!(
        fe.stats().btb_miss_blocks > 0,
        "a cold BTB must generate sequential proxy blocks"
    );
    assert!(
        fe.stats().decode_resteers > 0,
        "the loop jump must misfetch when cold"
    );
}

#[test]
fn flush_restores_ras_from_replay() {
    use elf_frontend::RasOp;
    let prog = loop_program(8);
    let mut fe = Frontend::new(FrontendConfig::paper(), FetchArch::Dcf, prog.entry());
    // Replay two pushes; a subsequent return prediction at BP1 would pop
    // the youngest. Indirectly observable via no panic + stats.
    let ctx = FlushCtx {
        restart_pc: prog.entry(),
        boundary_fid: 0,
        hist_replay: &[],
        ras_replay: &[RasOp::Push(0x111), RasOp::Push(0x222), RasOp::Pop],
    };
    fe.flush(&ctx, 10);
    assert_eq!(fe.stats().backend_resteers, 1);
}

#[test]
fn delivered_instructions_have_monotonic_fids_and_modes() {
    let spec = ProgramSpec {
        name: "fid".into(),
        seed: 3,
        num_funcs: 10,
        ..Default::default()
    };
    let prog = synthesize(&spec);
    let mut fe = Frontend::new(
        FrontendConfig::paper(),
        FetchArch::Elf(elf_frontend::ElfVariant::U),
        prog.entry(),
    );
    let mut mem = MemorySystem::paper();
    let mut last_fid = 0;
    let mut out = TickOutput::default();
    for c in 0..2000 {
        fe.tick_into(&prog, &mut mem, c, &mut out);
        for d in &out.delivered {
            assert!(d.fid > last_fid, "fids must increase monotonically");
            last_fid = d.fid;
            assert!(matches!(
                d.inst.mode,
                FetchMode::Coupled | FetchMode::Decoupled
            ));
        }
    }
    assert!(last_fid > 0, "nothing was delivered in 2000 cycles");
}
