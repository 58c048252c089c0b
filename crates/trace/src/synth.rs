//! Synthetic program synthesis.
//!
//! [`ProgramSpec`] describes a workload along the axes that matter to a
//! front-end study — code footprint, branch density and mix, branch
//! predictability, indirect-target behavior, recursion, and memory behavior —
//! and [`synthesize`] turns it into a deterministic [`Program`].
//!
//! ## Structure of a synthesized program
//!
//! Function 0 is the *driver*: an infinite loop whose blocks call the other
//! functions, selected at synthesis time from a Zipf distribution (`zipf_theta`
//! controls how concentrated the dynamic code footprint is). Every other
//! function is a DAG of basic blocks: control flows forward through blocks,
//! with backward conditional loops (always finite: [`DirectionModel::LoopExit`])
//! and forward conditional skips, and each non-driver function ends in a
//! return. Calls always target higher-numbered functions, so the static call
//! graph is acyclic — except designated *recursive* functions, which call
//! themselves under a depth-limiting loop branch (these are what make
//! RET-ELF shine on the paper's server 2 subtest).

use crate::behavior::{AddrModel, Behavior, DirectionModel, TargetModel};
use crate::program::{ImageBuilder, Program, DATA_BASE, DEFAULT_CODE_BASE};
use elf_types::inst::NO_REG;
use elf_types::{Addr, BranchKind, InstClass, StaticInst, INST_BYTES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Predictability profile for conditional branches.
///
/// The classes map onto what real predictors can exploit: *biased* branches
/// (strongly skewed Bernoulli — the bulk of real-code predictability),
/// *loops* (trip-count exits), *history-correlated* branches (short-tap
/// functions of global history — TAGE-learnable, bimodal-hostile), and
/// *Bernoulli* hard branches (irreducible misprediction). Positional
/// `Pattern` branches are available for tests but are deliberately hostile
/// to global-history predictors under interleaving, so workload models
/// avoid them.
#[derive(Debug, Clone, PartialEq)]
pub struct CondProfile {
    /// Fraction of conditionals that are backward loop branches
    /// ([`DirectionModel::LoopExit`] — always learnable).
    pub frac_loop: f64,
    /// Fraction that are strongly biased (Bernoulli with `biased_p`,
    /// randomly flipped toward taken or not-taken).
    pub frac_biased: f64,
    /// Fraction with a positional periodic pattern (predictor-hostile under
    /// interleaving; used by tests).
    pub frac_pattern: f64,
    /// Fraction that are history-correlated ([`DirectionModel::HistoryXor`] —
    /// TAGE-learnable, bimodal-hostile).
    pub frac_history: f64,
    /// Remainder are Bernoulli (unpredictable to degree `min(p, 1-p)`).
    pub frac_bernoulli: f64,
    /// Loop trip-count range.
    pub loop_trip: (u32, u32),
    /// Hard-Bernoulli taken-probability range.
    pub bernoulli_p: (f64, f64),
    /// Biased-branch minority-direction probability range.
    pub biased_p: (f64, f64),
    /// Noise added to history-correlated branches.
    pub history_noise: f64,
}

impl Default for CondProfile {
    fn default() -> Self {
        CondProfile {
            frac_loop: 0.2,
            frac_biased: 0.45,
            frac_pattern: 0.0,
            frac_history: 0.2,
            frac_bernoulli: 0.15,
            loop_trip: (4, 64),
            bernoulli_p: (0.2, 0.8),
            biased_p: (0.02, 0.08),
            history_noise: 0.02,
        }
    }
}

/// Target-behavior profile for indirect branches.
#[derive(Debug, Clone, PartialEq)]
pub struct IndirectProfile {
    /// Fraction with a single target (BTC-friendly).
    pub frac_mono: f64,
    /// Fraction cycling through their targets.
    pub frac_round_robin: f64,
    /// Fraction whose target is history-correlated (ITTAGE-friendly).
    pub frac_history: f64,
    /// Remainder pick a uniformly random target (predictor-hostile).
    pub frac_random: f64,
    /// Range of the number of candidate targets for polymorphic indirects.
    pub targets: (usize, usize),
}

impl Default for IndirectProfile {
    fn default() -> Self {
        IndirectProfile {
            frac_mono: 0.5,
            frac_round_robin: 0.15,
            frac_history: 0.25,
            frac_random: 0.1,
            targets: (2, 6),
        }
    }
}

/// Recursion parameters (server 2-style workloads).
#[derive(Debug, Clone, PartialEq)]
pub struct RecursionSpec {
    /// Number of self-recursive functions.
    pub funcs: usize,
    /// Recursion-depth range (loop trip of the guard branch).
    pub depth: (u32, u32),
}

/// Memory behavior profile.
#[derive(Debug, Clone, PartialEq)]
pub struct MemProfile {
    /// Fraction of body instructions that are loads.
    pub load_frac: f64,
    /// Fraction of body instructions that are stores.
    pub store_frac: f64,
    /// Total data footprint in bytes.
    pub data_footprint: u64,
    /// Fraction of memory instructions with strided streams.
    pub frac_stride: f64,
    /// Fraction with uniformly random addresses.
    pub frac_random: f64,
    /// Remainder are pointer-chase-like walks.
    pub frac_chase: f64,
    /// Number of cross-function aliasing store→load pairs (drives RAW-hazard
    /// flushes and the memory-dependence predictor, §VI-B).
    pub alias_pairs: usize,
}

impl Default for MemProfile {
    fn default() -> Self {
        MemProfile {
            load_frac: 0.22,
            store_frac: 0.10,
            data_footprint: 8 << 20,
            frac_stride: 0.6,
            frac_random: 0.25,
            frac_chase: 0.15,
            alias_pairs: 0,
        }
    }
}

/// Complete description of a synthetic workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramSpec {
    /// Workload name.
    pub name: String,
    /// RNG seed — everything about the program and its dynamic behavior is a
    /// deterministic function of the spec.
    pub seed: u64,
    /// Number of functions (function 0 is the driver).
    pub num_funcs: usize,
    /// Blocks per function (inclusive range).
    pub blocks_per_func: (usize, usize),
    /// Body (non-terminator) instructions per block (inclusive range).
    pub insts_per_block: (usize, usize),
    /// Probability a block ends in a call (to a higher-numbered function).
    pub call_prob: f64,
    /// Probability a block ends in a conditional branch.
    pub cond_prob: f64,
    /// Probability a block ends in an indirect jump.
    pub indirect_prob: f64,
    /// Probability a block ends in an unconditional direct jump to the next
    /// block (taken-branch-density knob); remaining blocks fall through.
    pub uncond_prob: f64,
    /// Zipf skew for callee selection (0 = uniform; higher = hotter subset).
    pub zipf_theta: f64,
    /// Fraction of body instructions that are SIMD/FP.
    pub simd_frac: f64,
    /// Conditional-branch predictability profile.
    pub cond: CondProfile,
    /// Indirect-branch target profile.
    pub indirect: IndirectProfile,
    /// Recursive functions, if any.
    pub recursion: Option<RecursionSpec>,
    /// Memory behavior.
    pub mem: MemProfile,
}

impl Default for ProgramSpec {
    fn default() -> Self {
        ProgramSpec {
            name: "default".to_owned(),
            seed: 1,
            num_funcs: 120,
            blocks_per_func: (4, 14),
            insts_per_block: (3, 9),
            call_prob: 0.12,
            cond_prob: 0.45,
            indirect_prob: 0.03,
            uncond_prob: 0.08,
            zipf_theta: 1.0,
            simd_frac: 0.08,
            cond: CondProfile::default(),
            indirect: IndirectProfile::default(),
            recursion: None,
            mem: MemProfile::default(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TermKind {
    /// Call to function `callee`; control resumes at the next block.
    Call { callee: usize },
    /// Conditional branch (backward loop or forward skip).
    Cond,
    /// Indirect jump to forward blocks in the same function.
    Indirect,
    /// Unconditional direct jump to the next block.
    Uncond,
    /// No terminator — body falls through into the next block.
    FallThrough,
    /// Function return.
    Return,
    /// Driver loop: unconditional jump back to the function entry.
    DriverLoop,
    /// Recursion guard: conditional over a self-call (synthesized pair).
    RecurseGuard,
}

#[derive(Debug, Clone)]
struct BlockSkel {
    start: Addr,
    body: usize,
    term: TermKind,
}

impl BlockSkel {
    fn len_insts(&self) -> usize {
        // RecurseGuard expands to two instructions: the guard branch and the
        // self-call it protects.
        let extra = match self.term {
            TermKind::FallThrough => 0,
            TermKind::RecurseGuard => 2,
            _ => 1,
        };
        self.body + extra
    }
}

#[derive(Debug, Clone)]
struct FuncSkel {
    entry: Addr,
    blocks: Vec<BlockSkel>,
    /// Alias pair id if this function participates as the store side.
    alias_pair: Option<u32>,
}

fn range_sample(rng: &mut StdRng, (lo, hi): (usize, usize)) -> usize {
    if hi <= lo {
        lo
    } else {
        rng.gen_range(lo..=hi)
    }
}

/// Zipf-ish sampler over `1..n` (function indices, excluding the driver).
fn zipf_pick(rng: &mut StdRng, n: usize, theta: f64) -> usize {
    debug_assert!(n >= 2);
    if theta <= 1e-6 {
        return rng.gen_range(1..n);
    }
    // Inverse-CDF approximation of a Zipf(theta) over ranks 1..n-1.
    let u: f64 = rng.gen_range(0.0f64..1.0);
    let max = (n - 1) as f64;
    let rank = if (theta - 1.0).abs() < 1e-9 {
        max.powf(u)
    } else {
        let e = 1.0 - theta;
        ((max.powf(e) - 1.0) * u + 1.0).powf(1.0 / e)
    };
    (rank.floor() as usize).clamp(1, n - 1)
}

/// Synthesizes a program from its spec. Deterministic in the spec.
#[must_use]
pub fn synthesize(spec: &ProgramSpec) -> Program {
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x5eed_e1f0);
    let num_funcs = spec.num_funcs.max(2);
    let base = DEFAULT_CODE_BASE;

    // Which functions are recursive / alias-store functions.
    let rec_funcs: Vec<usize> = match &spec.recursion {
        Some(r) => (0..r.funcs.min(num_funcs - 1))
            .map(|i| 1 + i * (num_funcs - 1).max(1) / r.funcs.max(1))
            .collect(),
        None => Vec::new(),
    };
    let alias_funcs: Vec<usize> = (0..spec.mem.alias_pairs.min(num_funcs - 1))
        .map(|i| 1 + (i * 37) % (num_funcs - 1))
        .collect();

    // ---- Pass 1: skeletons ----
    let mut funcs: Vec<FuncSkel> = Vec::with_capacity(num_funcs);
    let mut cursor = base;
    for f in 0..num_funcs {
        let recursive = rec_funcs.contains(&f);
        // The driver must be call-rich: it is the dispatch loop that spreads
        // execution over the rest of the program, so give it extra blocks
        // and a high call probability regardless of the spec.
        let driver = f == 0;
        let call_prob = if driver { 0.65 } else { spec.call_prob };
        let nblocks = range_sample(&mut rng, spec.blocks_per_func).max(2)
            + usize::from(recursive)
            + if driver {
                // The driver's static call sites bound the reachable set:
                // scale them with the program so large-footprint workloads
                // really touch their whole image.
                (num_funcs / 6).clamp(24, 2048)
            } else {
                0
            };
        let mut blocks = Vec::with_capacity(nblocks);
        for b in 0..nblocks {
            let body = range_sample(&mut rng, spec.insts_per_block).max(1);
            let last = b == nblocks - 1;
            let term = if last {
                if f == 0 {
                    TermKind::DriverLoop
                } else {
                    TermKind::Return
                }
            } else if recursive && b == 0 {
                TermKind::RecurseGuard
            } else {
                let r: f64 = rng.gen_range(0.0f64..1.0);
                let can_call = num_funcs > f + 1 || f == 0;
                if r < call_prob && can_call {
                    // The driver calls anything; others call forward only
                    // (acyclic call graph).
                    let callee = if f == 0 {
                        zipf_pick(&mut rng, num_funcs, spec.zipf_theta)
                    } else {
                        rng.gen_range(f + 1..num_funcs)
                    };
                    TermKind::Call { callee }
                } else if r < call_prob + spec.cond_prob {
                    TermKind::Cond
                } else if r < call_prob + spec.cond_prob + spec.indirect_prob && nblocks - b > 2 {
                    TermKind::Indirect
                } else if r < call_prob + spec.cond_prob + spec.indirect_prob + spec.uncond_prob {
                    TermKind::Uncond
                } else {
                    TermKind::FallThrough
                }
            };
            let skel = BlockSkel {
                start: cursor,
                body,
                term,
            };
            cursor += skel.len_insts() as u64 * INST_BYTES;
            blocks.push(skel);
        }
        let alias_pair = alias_funcs.iter().position(|&af| af == f).map(|i| i as u32);
        funcs.push(FuncSkel {
            entry: blocks[0].start,
            blocks,
            alias_pair,
        });
    }

    // ---- Pass 2: instruction fill ----
    // Packed straight into the image: an unpacked copy of a server-sized
    // image would more than triple the synthesis peak.
    let len = ((cursor - base) / INST_BYTES) as usize;
    let mut image = ImageBuilder::new(base, len);
    // Every instruction adds at most one behavior, and each alias function
    // one more for its delaying load. Reserving that bound makes the
    // multi-MB table one allocation instead of a chain of doubling copies;
    // the tail it never fills costs address space, not resident memory.
    let mut behaviors: Vec<Behavior> = Vec::with_capacity(len + alias_funcs.len());
    let mut recent_dsts: [u8; 4] = [0, 1, 2, 3];

    // Call sites to alias functions want the first instruction of the
    // *following* block turned into the paired load; record fixups.
    let mut load_fixups: Vec<(Addr, u32)> = Vec::new();

    for f in 0..num_funcs {
        let func = &funcs[f];
        for (b, blk) in func.blocks.iter().enumerate() {
            let next_block_start = func.blocks.get(b + 1).map(|nb| nb.start);
            let is_last_body_of_alias_func =
                func.alias_pair.is_some() && b == func.blocks.len() - 1;
            for i in 0..blk.body {
                let pc = blk.start + i as u64 * INST_BYTES;
                let force_store = is_last_body_of_alias_func && i == blk.body - 1;
                let mut inst = gen_body_inst(
                    spec,
                    &mut rng,
                    &mut behaviors,
                    &mut recent_dsts,
                    pc,
                    force_store.then(|| func.alias_pair.unwrap()),
                );
                if force_store && i >= 1 {
                    // Delay the aliasing store behind a fresh load so the
                    // consumer load (in the caller, after the return) can
                    // issue first — the RAW-hazard pathology of §VI-B.
                    let behavior = push_behavior(
                        &mut behaviors,
                        Behavior::Mem(AddrModel::Random {
                            base: DATA_BASE,
                            footprint: spec.mem.data_footprint.max(1 << 20),
                        }),
                    );
                    image.update(image.pushed() - 1, |prev| {
                        prev.class = InstClass::Load;
                        prev.dst = Some(29);
                        prev.behavior = behavior;
                    });
                    inst.srcs = [29, 29];
                }
                image.push(inst);
            }
            let term_pc = blk.start + blk.body as u64 * INST_BYTES;
            match blk.term {
                TermKind::FallThrough => {}
                TermKind::Call { callee } => {
                    let mut inst = StaticInst::simple(term_pc, InstClass::Branch(BranchKind::Call));
                    inst.target = Some(funcs[callee].entry);
                    image.push(inst);
                    if let Some(pair) = funcs[callee].alias_pair {
                        if let Some(nb) = next_block_start {
                            load_fixups.push((nb, pair));
                        }
                    }
                }
                TermKind::Uncond => {
                    let mut inst =
                        StaticInst::simple(term_pc, InstClass::Branch(BranchKind::UncondDirect));
                    inst.target = next_block_start;
                    image.push(inst);
                }
                TermKind::DriverLoop => {
                    let mut inst =
                        StaticInst::simple(term_pc, InstClass::Branch(BranchKind::UncondDirect));
                    inst.target = Some(func.entry);
                    image.push(inst);
                }
                TermKind::Return => {
                    image.push(StaticInst::simple(
                        term_pc,
                        InstClass::Branch(BranchKind::Return),
                    ));
                }
                TermKind::Cond => {
                    let (model, target) = gen_cond(spec, &mut rng, &func.blocks, b, term_pc);
                    let mut inst =
                        StaticInst::simple(term_pc, InstClass::Branch(BranchKind::CondDirect));
                    inst.target = Some(target);
                    inst.behavior = push_behavior(&mut behaviors, Behavior::Dir(model));
                    image.push(inst);
                }
                TermKind::Indirect => {
                    let model = gen_indirect(spec, &mut rng, &func.blocks, b);
                    let mut inst =
                        StaticInst::simple(term_pc, InstClass::Branch(BranchKind::IndirectJump));
                    inst.behavior = push_behavior(&mut behaviors, Behavior::Target(model));
                    image.push(inst);
                }
                TermKind::RecurseGuard => {
                    // Guard: LoopExit(depth) — taken = skip the self-call
                    // after `depth` recursions; not-taken = recurse.
                    let depth = spec
                        .recursion
                        .as_ref()
                        .map(|r| {
                            if r.depth.1 <= r.depth.0 {
                                r.depth.0
                            } else {
                                rng.gen_range(r.depth.0..=r.depth.1)
                            }
                        })
                        .unwrap_or(8)
                        .max(2);
                    // Guard taken exits to the next block, skipping the call:
                    // model NOT-taken trip-1 times (recurse) then taken once.
                    // LoopExit gives taken trip-1 then not-taken; invert by
                    // swapping roles: guard = LoopExit{trip}, taken => recurse.
                    let call_pc = term_pc + INST_BYTES;
                    let skip_to = next_block_start.expect("guard block is never last");
                    let mut guard =
                        StaticInst::simple(term_pc, InstClass::Branch(BranchKind::CondDirect));
                    guard.target = Some(skip_to);
                    // Taken (exit) once every `trip` executions.
                    guard.behavior = push_behavior(
                        &mut behaviors,
                        Behavior::Dir(DirectionModel::Pattern {
                            bits: 1u64 << (depth.min(63) - 1),
                            len: depth.min(63) as u8,
                        }),
                    );
                    image.push(guard);
                    let mut call = StaticInst::simple(call_pc, InstClass::Branch(BranchKind::Call));
                    call.target = Some(func.entry);
                    image.push(call);
                }
            }
        }
    }

    // Apply alias-load fixups: the first instruction of the block following a
    // call to an alias function becomes the paired load.
    for (pc, pair) in load_fixups {
        let behavior = push_behavior(
            &mut behaviors,
            Behavior::Mem(AddrModel::SharedSlot {
                pair,
                base: DATA_BASE,
                footprint: spec.mem.data_footprint.max(64),
            }),
        );
        image.update(((pc - base) / INST_BYTES) as usize, |inst| {
            inst.class = InstClass::Load;
            inst.target = None;
            inst.behavior = behavior;
        });
    }

    image.finish(spec.name.clone(), base, behaviors, spec.mem.alias_pairs)
}

fn push_behavior(behaviors: &mut Vec<Behavior>, b: Behavior) -> u32 {
    behaviors.push(b);
    (behaviors.len() - 1) as u32
}

fn gen_body_inst(
    spec: &ProgramSpec,
    rng: &mut StdRng,
    behaviors: &mut Vec<Behavior>,
    recent_dsts: &mut [u8; 4],
    pc: Addr,
    force_alias_store: Option<u32>,
) -> StaticInst {
    let class = if force_alias_store.is_some() {
        InstClass::Store
    } else {
        let r: f64 = rng.gen_range(0.0f64..1.0);
        if r < spec.mem.load_frac {
            InstClass::Load
        } else if r < spec.mem.load_frac + spec.mem.store_frac {
            InstClass::Store
        } else if r < spec.mem.load_frac + spec.mem.store_frac + spec.simd_frac {
            InstClass::Simd
        } else if r < spec.mem.load_frac + spec.mem.store_frac + spec.simd_frac + 0.02 {
            InstClass::Mul
        } else if r < spec.mem.load_frac + spec.mem.store_frac + spec.simd_frac + 0.025 {
            InstClass::Div
        } else {
            InstClass::Alu
        }
    };
    let mut inst = StaticInst::simple(pc, class);
    // Register assignment: bias sources toward recent producers for a
    // realistic dependence-chain density.
    let dst = rng.gen_range(0u8..30);
    inst.dst = Some(dst);
    for s in 0..2 {
        inst.srcs[s] = if rng.gen_bool(0.5) {
            recent_dsts[rng.gen_range(0..4)]
        } else if rng.gen_bool(0.7) {
            rng.gen_range(0u8..30)
        } else {
            NO_REG
        };
    }
    recent_dsts[rng.gen_range(0..4)] = dst;

    if class.is_mem() {
        let model = if let Some(pair) = force_alias_store {
            AddrModel::SharedSlot {
                pair,
                base: DATA_BASE,
                footprint: spec.mem.data_footprint.max(64),
            }
        } else {
            let r: f64 = rng.gen_range(0.0f64..1.0);
            let fp = spec.mem.data_footprint.max(4096);
            if r < spec.mem.frac_stride {
                AddrModel::Stride {
                    base: (DATA_BASE + rng.gen_range(0..fp)) & !63,
                    stride: *[8u64, 16, 64, 64, 256].get(rng.gen_range(0..5)).unwrap(),
                    footprint: (fp / 4).max(4096),
                }
            } else if r < spec.mem.frac_stride + spec.mem.frac_random {
                AddrModel::Random {
                    base: DATA_BASE,
                    footprint: fp,
                }
            } else {
                AddrModel::Chase {
                    base: DATA_BASE + ((fp / 2) & !63),
                    footprint: (fp / 2).max(4096),
                }
            }
        };
        inst.behavior = push_behavior(behaviors, Behavior::Mem(model));
    }
    inst
}

fn gen_cond(
    spec: &ProgramSpec,
    rng: &mut StdRng,
    blocks: &[BlockSkel],
    b: usize,
    term_pc: Addr,
) -> (DirectionModel, Addr) {
    let c = &spec.cond;
    let r: f64 = rng.gen_range(0.0f64..1.0);
    if r < c.frac_loop && b > 0 {
        // Backward loop branch: target the start of the *own* block, so
        // loops never nest — nested LoopExit trips multiply and would trap
        // the dynamic stream in a few dozen bytes of code for millions of
        // instructions, which no finite simulation window could escape.
        let tgt = blocks[b].start;
        let trip = if c.loop_trip.1 <= c.loop_trip.0 {
            c.loop_trip.0
        } else {
            rng.gen_range(c.loop_trip.0..=c.loop_trip.1)
        };
        (DirectionModel::LoopExit { trip: trip.max(2) }, tgt)
    } else {
        // Forward skip of 1..=3 blocks (falls through to the next block when
        // not taken). `b` is never the last block for Cond terminators.
        let max_skip = (blocks.len() - 1 - b).clamp(1, 3);
        let tgt = blocks[b + rng.gen_range(1..=max_skip)].start;
        let model = if r < c.frac_loop + c.frac_biased {
            let p = rng.gen_range(c.biased_p.0.min(c.biased_p.1)..=c.biased_p.1.max(c.biased_p.0));
            let p_taken = if rng.gen_bool(0.5) { p } else { 1.0 - p };
            DirectionModel::Bernoulli { p_taken }
        } else if r < c.frac_loop + c.frac_biased + c.frac_pattern {
            let len = rng.gen_range(3u8..=12);
            DirectionModel::Pattern {
                bits: rng.gen::<u64>(),
                len,
            }
        } else if r < c.frac_loop + c.frac_biased + c.frac_pattern + c.frac_history {
            // Short taps keep the correlated context low-entropy enough for
            // a global-history predictor to capture.
            DirectionModel::HistoryXor {
                taps: [rng.gen_range(1..=2), rng.gen_range(3..=4), 0],
                noise: c.history_noise,
            }
        } else {
            let p = rng.gen_range(
                c.bernoulli_p.0.min(c.bernoulli_p.1)..=c.bernoulli_p.1.max(c.bernoulli_p.0),
            );
            DirectionModel::Bernoulli { p_taken: p }
        };
        let _ = term_pc;
        (model, tgt)
    }
}

fn gen_indirect(
    spec: &ProgramSpec,
    rng: &mut StdRng,
    blocks: &[BlockSkel],
    b: usize,
) -> TargetModel {
    let p = &spec.indirect;
    // Candidate targets: strictly-forward block starts.
    let max_n = (blocks.len() - 1 - b).max(1);
    let want = range_sample(rng, p.targets).clamp(1, max_n);
    let mut targets: Vec<Addr> = Vec::with_capacity(want);
    for i in 0..want {
        let idx = b + 1 + (i * max_n / want.max(1)).min(max_n - 1);
        targets.push(blocks[idx.min(blocks.len() - 1)].start);
    }
    targets.dedup();
    let r: f64 = rng.gen_range(0.0f64..1.0);
    if r < p.frac_mono || targets.len() == 1 {
        TargetModel::Mono { target: targets[0] }
    } else if r < p.frac_mono + p.frac_round_robin {
        TargetModel::RoundRobin { targets }
    } else if r < p.frac_mono + p.frac_round_robin + p.frac_history {
        TargetModel::HistoryHash {
            targets,
            taps: [
                rng.gen_range(1..=6),
                rng.gen_range(7..=12),
                rng.gen_range(13..=16),
            ],
        }
    } else {
        TargetModel::Random { targets }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elf_types::BranchKind;

    fn spec(name: &str) -> ProgramSpec {
        ProgramSpec {
            name: name.into(),
            ..ProgramSpec::default()
        }
    }

    #[test]
    fn synthesis_is_deterministic() {
        let a = synthesize(&spec("d"));
        let b = synthesize(&spec("d"));
        assert_eq!(a.len_insts(), b.len_insts());
        let eq = a.iter().zip(b.iter()).all(|(x, y)| x == y);
        assert!(eq, "same spec must produce identical programs");
    }

    #[test]
    fn different_seeds_differ() {
        let a = synthesize(&spec("a"));
        let b = synthesize(&ProgramSpec {
            seed: 99,
            ..spec("a")
        });
        let same = a.len_insts() == b.len_insts() && a.iter().zip(b.iter()).all(|(x, y)| x == y);
        assert!(!same);
    }

    #[test]
    fn all_direct_targets_are_inside_the_image() {
        let p = synthesize(&spec("t"));
        for inst in p.iter() {
            if let Some(t) = inst.target {
                assert!(
                    p.inst_at(t).is_some(),
                    "direct target {t:#x} of {:#x} escapes the image",
                    inst.pc
                );
            }
        }
    }

    #[test]
    fn all_indirect_target_sets_are_inside_the_image() {
        let p = synthesize(&spec("t"));
        for inst in p.iter() {
            if inst
                .branch_kind()
                .is_some_and(|k| k.is_indirect() && !k.is_return())
            {
                let Behavior::Target(m) = p.behavior(inst.behavior) else {
                    panic!("indirect without target model at {:#x}", inst.pc);
                };
                for &t in m.targets() {
                    assert!(p.inst_at(t).is_some());
                }
            }
        }
    }

    #[test]
    fn branch_mix_roughly_matches_spec() {
        let s = ProgramSpec {
            num_funcs: 400,
            ..spec("mix")
        };
        let p = synthesize(&s);
        let n = p.len_insts() as f64;
        let conds = p.count_matching(|i| i.branch_kind() == Some(BranchKind::CondDirect)) as f64;
        let branches = p.count_matching(|i| i.class.is_branch()) as f64;
        assert!(branches / n > 0.05, "too few branches: {}", branches / n);
        assert!(conds > 0.0 && conds < branches);
        // Returns: one per non-driver function.
        let rets = p.count_matching(|i| i.branch_kind() == Some(BranchKind::Return));
        assert_eq!(rets, 399);
    }

    #[test]
    fn footprint_scales_with_num_funcs() {
        let small = synthesize(&ProgramSpec {
            num_funcs: 50,
            ..spec("s")
        });
        let big = synthesize(&ProgramSpec {
            num_funcs: 1000,
            ..spec("s")
        });
        assert!(big.code_bytes() > 10 * small.code_bytes());
    }

    #[test]
    fn recursive_spec_creates_self_calls() {
        let s = ProgramSpec {
            recursion: Some(RecursionSpec {
                funcs: 4,
                depth: (8, 16),
            }),
            ..spec("rec")
        };
        let p = synthesize(&s);
        let self_calls = p.count_matching(|i| {
            i.branch_kind() == Some(BranchKind::Call)
                && i.target.is_some_and(|t| t <= i.pc && i.pc - t < 4096)
        });
        assert!(self_calls >= 1, "expected self-recursive call sites");
    }

    #[test]
    fn alias_pairs_create_shared_slot_behaviors() {
        let s = ProgramSpec {
            mem: MemProfile {
                alias_pairs: 3,
                ..MemProfile::default()
            },
            num_funcs: 60,
            call_prob: 0.3,
            ..spec("alias")
        };
        let p = synthesize(&s);
        let shared = p
            .behaviors()
            .iter()
            .filter(|b| matches!(b, Behavior::Mem(AddrModel::SharedSlot { .. })))
            .count();
        assert!(
            shared >= 3,
            "expected store+load shared-slot behaviors, got {shared}"
        );
        assert_eq!(p.alias_slots(), 3);
    }

    #[test]
    fn zipf_pick_respects_bounds_and_skew() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut lowcount = 0;
        for _ in 0..2000 {
            let k = zipf_pick(&mut rng, 100, 1.2);
            assert!((1..100).contains(&k));
            if k <= 10 {
                lowcount += 1;
            }
        }
        // With theta=1.2 the bottom ranks dominate.
        assert!(lowcount > 1000, "zipf skew too weak: {lowcount}");
        // Uniform when theta = 0.
        let mut lowcount_u = 0;
        for _ in 0..2000 {
            if zipf_pick(&mut rng, 100, 0.0) <= 10 {
                lowcount_u += 1;
            }
        }
        assert!(lowcount_u < 400);
    }
}
