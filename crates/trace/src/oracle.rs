//! The behavioral oracle: the architecturally-correct dynamic path.
//!
//! An [`Oracle`] walks a [`Program`] with the program's behavior models and
//! produces the infinite correct-path instruction stream, one [`DynInst`] per
//! retired instruction. The simulator binds fetched instructions to oracle
//! entries by sequence number; branch resolution compares predictions to the
//! oracle outcome; flush recovery restarts fetch at `entry(k).next_pc`.
//!
//! Entries are buffered in a sliding window: [`Oracle::entry`] generates on
//! demand, [`Oracle::release_before`] lets the window slide once instructions
//! retire.

use crate::behavior::{Behavior, DirState, MemState, TgtState};
use crate::program::Program;
use elf_types::snap::{SnapError, StateIo};
use elf_types::{Addr, InstClass, SeqNum, INST_BYTES};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::sync::Arc;

/// Hard bound on oracle call-stack depth (defensive; synthesized call graphs
/// are depth-limited by construction).
const MAX_CALL_DEPTH: usize = 8192;

/// One dynamic instruction on the correct path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynInst {
    /// Global sequence number (0-based).
    pub seq: SeqNum,
    /// Address of the instruction.
    pub pc: Addr,
    /// Resolved direction (`true` for all executed unconditional branches).
    pub taken: bool,
    /// Address of the next correct-path instruction.
    pub next_pc: Addr,
    /// Effective address, for loads and stores.
    pub mem_addr: Option<Addr>,
}

impl DynInst {
    /// The resolved target of a taken branch (same as `next_pc`).
    #[must_use]
    pub fn target(&self) -> Addr {
        self.next_pc
    }
}

elf_types::snap_struct!(DynInst {
    seq,
    pc,
    taken,
    next_pc,
    mem_addr
});

/// The correct-path stream generator.
///
/// ```
/// use elf_trace::{synthesize, Oracle, ProgramSpec};
/// use std::sync::Arc;
///
/// let spec = ProgramSpec { name: "demo".into(), seed: 7, ..Default::default() };
/// let mut oracle = Oracle::new(Arc::new(synthesize(&spec)), spec.seed);
/// // The stream chains: entry k's next_pc is entry k+1's pc.
/// let a = oracle.entry(0);
/// assert_eq!(oracle.entry(1).pc, a.next_pc);
/// ```
#[derive(Debug)]
pub struct Oracle {
    prog: Arc<Program>,
    pc: Addr,
    call_stack: Vec<Addr>,
    ghist: u64,
    dir_state: Vec<DirState>,
    tgt_state: Vec<TgtState>,
    mem_state: Vec<MemState>,
    slots: Vec<Addr>,
    rng: StdRng,
    buf: VecDeque<DynInst>,
    first: SeqNum,
}

impl Oracle {
    /// Creates an oracle at the program entry point. All dynamic behavior is
    /// a deterministic function of the program and `seed`.
    #[must_use]
    pub fn new(prog: Arc<Program>, seed: u64) -> Self {
        let n = prog.behaviors().len();
        Oracle {
            pc: prog.entry(),
            call_stack: Vec::with_capacity(64),
            ghist: 0,
            dir_state: vec![DirState::default(); n],
            tgt_state: vec![TgtState::default(); n],
            mem_state: vec![MemState::default(); n],
            slots: vec![crate::program::DATA_BASE; prog.alias_slots().max(1)],
            rng: StdRng::seed_from_u64(seed ^ ORACLE_SEED_MIX),
            buf: VecDeque::with_capacity(1024),
            first: 0,
            prog,
        }
    }

    /// The program being walked.
    #[must_use]
    pub fn program(&self) -> &Arc<Program> {
        &self.prog
    }

    /// Returns the oracle entry with the given sequence number, generating
    /// the stream up to it if needed.
    ///
    /// # Panics
    ///
    /// Panics if `seq` has already been released (window slid past it).
    pub fn entry(&mut self, seq: SeqNum) -> DynInst {
        assert!(
            seq >= self.first,
            "oracle entry {seq} already released (window starts at {})",
            self.first
        );
        while self.first + self.buf.len() as u64 <= seq {
            let e = self.step();
            self.buf.push_back(e);
        }
        self.buf[(seq - self.first) as usize]
    }

    /// Slides the window: entries with `seq < bound` may no longer be read.
    pub fn release_before(&mut self, bound: SeqNum) {
        while self.first < bound && !self.buf.is_empty() {
            self.buf.pop_front();
            self.first += 1;
        }
        self.first = self.first.max(bound);
    }

    fn step(&mut self) -> DynInst {
        let seq = self.first + self.buf.len() as u64;
        // Borrow the program field next to the disjoint mutable state
        // fields, so behavior models are read in place: this is the
        // oracle's hot loop, and neither cloning a model nor touching the
        // `Arc`'s reference count belongs in it.
        let prog: &Program = &self.prog;
        // Defensive wrap: a well-formed program never walks off the image.
        let inst = match prog.inst_at(self.pc) {
            Some(i) => i,
            None => {
                self.pc = prog.entry();
                prog.inst_at(self.pc).expect("entry always valid")
            }
        };
        let pc = self.pc;
        let mut taken = false;
        let mut next = pc + INST_BYTES;
        let mut mem_addr = None;

        match inst.class {
            InstClass::Load | InstClass::Store => {
                if let Behavior::Mem(m) = prog.behavior(inst.behavior) {
                    let st = &mut self.mem_state[inst.behavior as usize];
                    mem_addr = Some(m.next(
                        st,
                        &mut self.slots,
                        inst.class == InstClass::Store,
                        &mut self.rng,
                    ));
                }
            }
            InstClass::Branch(kind) => {
                use elf_types::BranchKind::*;
                match kind {
                    CondDirect => {
                        let Behavior::Dir(m) = prog.behavior(inst.behavior) else {
                            panic!("conditional at {pc:#x} lacks a direction model");
                        };
                        let st = &mut self.dir_state[inst.behavior as usize];
                        taken = m.next(st, self.ghist, &mut self.rng);
                        self.ghist = (self.ghist << 1) | u64::from(taken);
                        if taken {
                            next = inst.target.expect("direct branch has a target");
                        }
                    }
                    UncondDirect => {
                        taken = true;
                        next = inst.target.expect("direct branch has a target");
                    }
                    Call => {
                        taken = true;
                        next = inst.target.expect("call has a target");
                        push_return(&mut self.call_stack, pc + INST_BYTES);
                    }
                    Return => {
                        taken = true;
                        next = self.call_stack.pop().unwrap_or(prog.entry());
                    }
                    IndirectJump | IndirectCall => {
                        let Behavior::Target(m) = prog.behavior(inst.behavior) else {
                            panic!("indirect at {pc:#x} lacks a target model");
                        };
                        let st = &mut self.tgt_state[inst.behavior as usize];
                        taken = true;
                        // The global history is conditional-outcome-only
                        // (matching the predictors' GHR design); indirect
                        // targets key off that same history.
                        next = m.next(st, self.ghist, &mut self.rng);
                        if kind == IndirectCall {
                            push_return(&mut self.call_stack, pc + INST_BYTES);
                        }
                    }
                }
            }
            _ => {}
        }

        self.pc = next;
        DynInst {
            seq,
            pc,
            taken,
            next_pc: next,
            mem_addr,
        }
    }

    /// Saves or restores the oracle's dynamic state (not the program — the
    /// snapshot container carries that separately). Loading requires an
    /// oracle built over the same program.
    ///
    /// # Errors
    ///
    /// Loading fails on truncated bytes or behavior-state and alias-slot
    /// tables that do not fit the program.
    pub fn state(&mut self, io: &mut impl StateIo) -> Result<(), SnapError> {
        io.value(&mut self.pc)?;
        io.value(&mut self.call_stack)?;
        io.value(&mut self.ghist)?;
        io.table(&mut self.dir_state, "oracle direction states")?;
        io.table(&mut self.tgt_state, "oracle target states")?;
        io.table(&mut self.mem_state, "oracle address states")?;
        io.table(&mut self.slots, "oracle alias slots")?;
        let mut rng = self.rng.state();
        io.value(&mut rng)?;
        if io.loading() {
            self.rng = StdRng::from_state(rng);
        }
        io.value(&mut self.buf)?;
        io.value(&mut self.first)
    }
}

/// Pushes a return address unless the stack is at [`MAX_CALL_DEPTH`].
fn push_return(call_stack: &mut Vec<Addr>, ra: Addr) {
    if call_stack.len() < MAX_CALL_DEPTH {
        call_stack.push(ra);
    }
}

/// Seed mixer so the oracle RNG stream differs from the synthesis stream
/// even under equal seeds.
const ORACLE_SEED_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// Aggregate dynamic statistics over a window of the oracle stream — used by
/// workload tests and the `workload_explorer` example.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DynProfile {
    /// Instructions profiled.
    pub insts: u64,
    /// Total branches.
    pub branches: u64,
    /// Conditional branches.
    pub conds: u64,
    /// Taken conditional branches.
    pub cond_taken: u64,
    /// All taken branches (any kind).
    pub taken: u64,
    /// Returns executed.
    pub returns: u64,
    /// Non-return indirect branches executed.
    pub indirects: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Unique 64-byte code lines touched (dynamic I-footprint).
    pub code_lines: u64,
}

impl DynProfile {
    /// Profiles `n` instructions from sequence number `start`.
    pub fn collect(oracle: &mut Oracle, start: SeqNum, n: u64) -> Self {
        let mut p = DynProfile::default();
        let mut lines = std::collections::HashSet::new();
        let prog = Arc::clone(oracle.program());
        for s in start..start + n {
            let e = oracle.entry(s);
            let inst = prog.inst_or_nop(e.pc);
            p.insts += 1;
            lines.insert(e.pc / 64);
            match inst.class {
                InstClass::Load => p.loads += 1,
                InstClass::Store => p.stores += 1,
                InstClass::Branch(k) => {
                    p.branches += 1;
                    if e.taken {
                        p.taken += 1;
                    }
                    if k.is_conditional() {
                        p.conds += 1;
                        if e.taken {
                            p.cond_taken += 1;
                        }
                    } else if k.is_return() {
                        p.returns += 1;
                    } else if k.is_indirect() {
                        p.indirects += 1;
                    }
                }
                _ => {}
            }
        }
        p.code_lines = lines.len() as u64;
        p
    }

    /// Dynamic instruction-footprint estimate in bytes.
    #[must_use]
    pub fn code_footprint_bytes(&self) -> u64 {
        self.code_lines * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{synthesize, ProgramSpec, RecursionSpec};

    fn oracle(spec: &ProgramSpec) -> Oracle {
        Oracle::new(Arc::new(synthesize(spec)), spec.seed)
    }

    fn default_spec(name: &str) -> ProgramSpec {
        ProgramSpec {
            name: name.into(),
            ..ProgramSpec::default()
        }
    }

    #[test]
    fn stream_is_deterministic() {
        let mut a = oracle(&default_spec("d"));
        let mut b = oracle(&default_spec("d"));
        for s in 0..5000 {
            assert_eq!(a.entry(s), b.entry(s));
        }
    }

    #[test]
    fn next_pc_chains_correctly() {
        let mut o = oracle(&default_spec("chain"));
        for s in 0..20_000 {
            let e = o.entry(s);
            let f = o.entry(s + 1);
            assert_eq!(e.next_pc, f.pc, "stream must be contiguous at seq {s}");
        }
    }

    #[test]
    fn non_branches_are_never_taken_and_fall_through() {
        let mut o = oracle(&default_spec("nb"));
        let prog = Arc::clone(o.program());
        for s in 0..20_000 {
            let e = o.entry(s);
            let i = prog.inst_at(e.pc).expect("correct path stays on image");
            if !i.class.is_branch() {
                assert!(!e.taken);
                assert_eq!(e.next_pc, e.pc + 4);
            }
            // Note: a taken branch *may* legitimately target its own
            // fall-through (degenerate skip), so only the non-branch
            // properties are asserted here.
        }
    }

    #[test]
    fn unconditional_branches_always_take_their_static_target() {
        let mut o = oracle(&default_spec("ub"));
        let prog = Arc::clone(o.program());
        for s in 0..20_000 {
            let e = o.entry(s);
            let i = prog.inst_at(e.pc).unwrap();
            if let Some(k) = i.branch_kind() {
                if k.is_unconditional() {
                    assert!(e.taken);
                }
                if k == elf_types::BranchKind::UncondDirect || k == elf_types::BranchKind::Call {
                    assert_eq!(e.next_pc, i.target.unwrap());
                }
            }
        }
    }

    #[test]
    fn calls_and_returns_balance() {
        let mut o = oracle(&default_spec("cr"));
        let prog = Arc::clone(o.program());
        let mut stack: Vec<Addr> = Vec::new();
        for s in 0..50_000 {
            let e = o.entry(s);
            let i = prog.inst_at(e.pc).unwrap();
            match i.branch_kind() {
                Some(k) if k.is_call() => stack.push(e.pc + 4),
                Some(k) if k.is_return() => {
                    if let Some(ra) = stack.pop() {
                        assert_eq!(e.next_pc, ra, "return must go to the call site + 4");
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn loads_and_stores_carry_addresses_in_data_space() {
        let mut o = oracle(&default_spec("mem"));
        let prog = Arc::clone(o.program());
        let mut seen_mem = 0;
        for s in 0..20_000 {
            let e = o.entry(s);
            let i = prog.inst_at(e.pc).unwrap();
            if i.class.is_mem() {
                let a = e.mem_addr.expect("memory op without address");
                assert!(a >= crate::program::DATA_BASE);
                seen_mem += 1;
            } else {
                assert_eq!(e.mem_addr, None);
            }
        }
        assert!(seen_mem > 1000, "expected a healthy memory-op density");
    }

    #[test]
    fn window_release_forbids_rereads() {
        let mut o = oracle(&default_spec("w"));
        let _ = o.entry(100);
        o.release_before(50);
        let _ = o.entry(50); // still valid
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = o.entry(49);
        }));
        assert!(r.is_err(), "reading a released entry must panic");
    }

    #[test]
    fn recursion_produces_deep_call_stacks_and_return_bursts() {
        let mut spec = ProgramSpec {
            recursion: Some(RecursionSpec {
                funcs: 3,
                depth: (12, 20),
            }),
            call_prob: 0.35,
            insts_per_block: (2, 6),
            ..default_spec("rec")
        };
        spec.cond.frac_loop = 0.1;
        spec.cond.loop_trip = (3, 10);
        let mut o = oracle(&spec);
        let p = DynProfile::collect(&mut o, 0, 200_000);
        assert!(
            p.returns * 1000 / p.insts >= 5,
            "recursion workload should be return-dense: {} returns / {} insts",
            p.returns,
            p.insts
        );
    }

    #[test]
    fn profile_footprint_tracks_num_funcs() {
        let small = {
            let s = ProgramSpec {
                num_funcs: 30,
                zipf_theta: 1.2,
                ..default_spec("s")
            };
            let mut o = oracle(&s);
            DynProfile::collect(&mut o, 0, 150_000).code_footprint_bytes()
        };
        let big = {
            let s = ProgramSpec {
                num_funcs: 2000,
                zipf_theta: 0.05,
                ..default_spec("b")
            };
            let mut o = oracle(&s);
            DynProfile::collect(&mut o, 0, 150_000).code_footprint_bytes()
        };
        assert!(
            big > 4 * small,
            "dynamic footprint must scale: small={small}, big={big}"
        );
    }
}
