//! Seeded differential fuzzer with shrinking repros.
//!
//! Each fuzz case is a deterministic function of `(seed, case index)`: a
//! randomized [`ProgramSpec`] (control-flow shape, branch mix, recursion),
//! a fetch architecture, idle-skip and checkpoint-split toggles, and a
//! fault plan. The case runs with invariant checking on
//! ([`SimConfig::check`]) and its retired commit stream is compared
//! against the functional oracle replay — so one case exercises the
//! commit-stream oracle, the in-simulator invariants, fault injection and
//! (for split cases) snapshot fidelity at once.
//!
//! A failing case is **shrunk**: each knob is reset toward the simplest
//! configuration and the window is halved while the failure keeps
//! reproducing, yielding a minimal repro. Repros serialize to a versioned
//! text format ([`FuzzCase::to_repro`]) and replay exactly
//! (`elfsim fuzz --repro <file>`).
//!
//! The `flip-taken` **sentinel** ([`Sentinel::FlipTaken`]) corrupts one
//! record of the functional reference before comparing — an injected bug
//! that every fuzz run must catch and shrink, proving the harness can
//! actually fail (mutation testing for the checker itself).

use crate::check::{commit_stream, first_divergence, functional_stream};
use crate::config::SimConfig;
use crate::fault::FaultPlan;
use elf_frontend::FetchArch;
use elf_trace::synth::RecursionSpec;
use elf_trace::{synthesize, ProgramSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Header line of the repro text format. Bump when the format changes;
/// parsers reject unknown versions instead of misreading them.
pub const REPRO_FORMAT: &str = "elfsim-fuzz-repro-v1";

/// A deliberately injected bug used to mutation-test the harness: a fuzz
/// run with a sentinel enabled must fail, shrink and produce a repro.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sentinel {
    /// Flips the `taken` bit of one record in the functional reference
    /// stream, so the commit comparison must report a divergence.
    FlipTaken,
}

impl Sentinel {
    /// CLI / repro-file spelling.
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            Sentinel::FlipTaken => "flip-taken",
        }
    }

    /// Parses a CLI / repro-file spelling.
    #[must_use]
    pub fn from_key(s: &str) -> Option<Self> {
        match s {
            "flip-taken" => Some(Sentinel::FlipTaken),
            _ => None,
        }
    }
}

/// One fuzz case: everything needed to rebuild the workload, the machine
/// configuration and the comparison deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzCase {
    /// Program-spec and oracle seed.
    pub seed: u64,
    /// Fetch architecture under test.
    pub arch: FetchArch,
    /// Run with idle-cycle skipping enabled.
    pub idle_skip: bool,
    /// Checkpoint after `window / 2` retirements and finish on a restored
    /// simulator (serialization round-trip included).
    pub split: bool,
    /// Instructions to retire and compare.
    pub window: u64,
    /// [`ProgramSpec::num_funcs`].
    pub num_funcs: usize,
    /// [`ProgramSpec::blocks_per_func`].
    pub blocks: (usize, usize),
    /// [`ProgramSpec::insts_per_block`].
    pub insts: (usize, usize),
    /// [`ProgramSpec::call_prob`].
    pub call_prob: f64,
    /// [`ProgramSpec::cond_prob`].
    pub cond_prob: f64,
    /// [`ProgramSpec::indirect_prob`].
    pub indirect_prob: f64,
    /// [`ProgramSpec::uncond_prob`].
    pub uncond_prob: f64,
    /// Include self-recursive functions (RAS overflow pressure).
    pub recursion: bool,
    /// Fault-plan seed (only meaningful when some rate is nonzero).
    pub fault_seed: u64,
    /// Fault rates per 100k cycles, indexed by
    /// [`crate::fault::FaultKind::index`].
    pub fault_rates: [u32; 4],
    /// Injected harness bug, if mutation-testing (stored in the repro so a
    /// replay reproduces the same failure).
    pub sentinel: Option<Sentinel>,
}

/// Private splitmix64 stream (the same generator the fault injector uses;
/// kept separate so fuzz-case generation and fault schedules stay
/// independent).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (modulo bias is irrelevant for fuzzing).
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `[0, max)`.
    fn prob(&mut self, max: f64) -> f64 {
        max * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

impl FuzzCase {
    /// The simplest case shape — the target every shrink step moves
    /// toward: coupled-only fetch, no skipping, no split, no faults, a
    /// small single-digit-function program.
    #[must_use]
    pub fn base(seed: u64) -> FuzzCase {
        FuzzCase {
            seed,
            arch: FetchArch::NoDcf,
            idle_skip: false,
            split: false,
            window: 384,
            num_funcs: 6,
            blocks: (2, 6),
            insts: (2, 6),
            call_prob: 0.10,
            cond_prob: 0.40,
            indirect_prob: 0.02,
            uncond_prob: 0.06,
            recursion: false,
            fault_seed: seed,
            fault_rates: [0; 4],
            sentinel: None,
        }
    }

    /// Deterministically derives case number `index` of the run seeded
    /// with `seed` — same pair, same case, on every host.
    #[must_use]
    pub fn generate(seed: u64, index: u64) -> FuzzCase {
        let mut rng = Rng(seed ^ index.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let arch = crate::check::ALL_ARCHS[rng.below(7) as usize];
        let blocks_lo = 2 + rng.below(5) as usize;
        let insts_lo = 1 + rng.below(4) as usize;
        let mut rates = [0u32; 4];
        for r in &mut rates {
            if rng.below(3) == 0 {
                *r = 1 + rng.below(150) as u32;
            }
        }
        FuzzCase {
            arch,
            idle_skip: rng.below(2) == 0,
            split: rng.below(2) == 0,
            window: 256 + rng.below(1792),
            num_funcs: 3 + rng.below(40) as usize,
            blocks: (blocks_lo, blocks_lo + 1 + rng.below(8) as usize),
            insts: (insts_lo, insts_lo + 1 + rng.below(8) as usize),
            call_prob: rng.prob(0.25),
            cond_prob: rng.prob(0.55),
            indirect_prob: rng.prob(0.08),
            uncond_prob: rng.prob(0.12),
            recursion: rng.below(4) == 0,
            fault_seed: rng.next(),
            fault_rates: rates,
            sentinel: None,
            seed: rng.next(),
        }
    }

    /// The workload this case describes.
    #[must_use]
    pub fn to_spec(&self) -> ProgramSpec {
        ProgramSpec {
            name: format!("fuzz-{:016x}", self.seed),
            seed: self.seed,
            num_funcs: self.num_funcs,
            blocks_per_func: self.blocks,
            insts_per_block: self.insts,
            call_prob: self.call_prob,
            cond_prob: self.cond_prob,
            indirect_prob: self.indirect_prob,
            uncond_prob: self.uncond_prob,
            recursion: self.recursion.then_some(RecursionSpec {
                funcs: 1,
                depth: (2, 10),
            }),
            ..ProgramSpec::default()
        }
    }

    /// The machine configuration this case describes (invariant checking
    /// always on — that is the point of fuzzing).
    #[must_use]
    pub fn to_config(&self) -> SimConfig {
        let mut cfg = SimConfig::baseline(self.arch);
        cfg.idle_skip = self.idle_skip;
        cfg.check = true;
        if self.fault_rates.iter().any(|&r| r > 0) {
            cfg.fault = Some(FaultPlan {
                seed: self.fault_seed,
                rate_per_100k: self.fault_rates,
            });
        }
        cfg
    }

    /// Serializes the case to the versioned text repro format.
    #[must_use]
    pub fn to_repro(&self) -> String {
        let mut s = String::new();
        s.push_str(REPRO_FORMAT);
        s.push('\n');
        s.push_str(&format!("seed=0x{:016x}\n", self.seed));
        s.push_str(&format!(
            "arch={}\n",
            self.arch.label().to_ascii_lowercase()
        ));
        s.push_str(&format!("idle_skip={}\n", self.idle_skip));
        s.push_str(&format!("split={}\n", self.split));
        s.push_str(&format!("window={}\n", self.window));
        s.push_str(&format!("num_funcs={}\n", self.num_funcs));
        s.push_str(&format!("blocks={}..{}\n", self.blocks.0, self.blocks.1));
        s.push_str(&format!("insts={}..{}\n", self.insts.0, self.insts.1));
        // f64 Display is the shortest round-tripping decimal, so parsing
        // these back reproduces the exact bits.
        s.push_str(&format!("call_prob={}\n", self.call_prob));
        s.push_str(&format!("cond_prob={}\n", self.cond_prob));
        s.push_str(&format!("indirect_prob={}\n", self.indirect_prob));
        s.push_str(&format!("uncond_prob={}\n", self.uncond_prob));
        s.push_str(&format!("recursion={}\n", self.recursion));
        s.push_str(&format!("fault_seed=0x{:016x}\n", self.fault_seed));
        s.push_str(&format!(
            "fault_rates={},{},{},{}\n",
            self.fault_rates[0], self.fault_rates[1], self.fault_rates[2], self.fault_rates[3]
        ));
        if let Some(sent) = self.sentinel {
            s.push_str(&format!("sentinel={}\n", sent.key()));
        }
        s
    }

    /// Parses a repro produced by [`FuzzCase::to_repro`].
    ///
    /// # Errors
    ///
    /// Returns a description of the problem: wrong header, unknown or
    /// duplicate key, malformed value, or a missing required key.
    pub fn from_repro(text: &str) -> Result<FuzzCase, String> {
        let mut lines = text.lines();
        let header = lines.next().unwrap_or("").trim();
        if header != REPRO_FORMAT {
            return Err(format!(
                "unsupported repro header {header:?} (expected {REPRO_FORMAT:?})"
            ));
        }
        let mut case = FuzzCase::base(0);
        let mut seen: Vec<&str> = Vec::new();
        for raw in lines {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, val) = line
                .split_once('=')
                .ok_or_else(|| format!("malformed repro line {line:?}"))?;
            if seen.contains(&key) {
                return Err(format!("duplicate repro key {key:?}"));
            }
            match key {
                "seed" => case.seed = parse_u64(val)?,
                "arch" => case.arch = val.trim().parse()?,
                "idle_skip" => case.idle_skip = parse_bool(val)?,
                "split" => case.split = parse_bool(val)?,
                "window" => case.window = parse_u64(val)?,
                "num_funcs" => case.num_funcs = parse_u64(val)? as usize,
                "blocks" => case.blocks = parse_range(val)?,
                "insts" => case.insts = parse_range(val)?,
                "call_prob" => case.call_prob = parse_f64(val)?,
                "cond_prob" => case.cond_prob = parse_f64(val)?,
                "indirect_prob" => case.indirect_prob = parse_f64(val)?,
                "uncond_prob" => case.uncond_prob = parse_f64(val)?,
                "recursion" => case.recursion = parse_bool(val)?,
                "fault_seed" => case.fault_seed = parse_u64(val)?,
                "fault_rates" => {
                    let mut it = val.split(',');
                    for slot in &mut case.fault_rates {
                        *slot = it
                            .next()
                            .ok_or_else(|| format!("fault_rates needs 4 values, got {val:?}"))?
                            .trim()
                            .parse::<u32>()
                            .map_err(|e| format!("bad fault rate in {val:?}: {e}"))?;
                    }
                    if it.next().is_some() {
                        return Err(format!("fault_rates has extra values: {val:?}"));
                    }
                }
                "sentinel" => {
                    case.sentinel = Some(Sentinel::from_key(val).ok_or_else(|| {
                        format!("unknown sentinel {val:?} (expected flip-taken)")
                    })?);
                }
                _ => return Err(format!("unknown repro key {key:?}")),
            }
            // `seen` borrows from `text`, same lifetime as `key`.
            seen.push(key);
        }
        for required in [
            "seed",
            "arch",
            "window",
            "num_funcs",
            "blocks",
            "insts",
            "fault_rates",
        ] {
            if !seen.contains(&required) {
                return Err(format!("repro is missing required key {required:?}"));
            }
        }
        Ok(case)
    }
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let parsed = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|e| format!("bad integer {s:?}: {e}"))
}

fn parse_f64(s: &str) -> Result<f64, String> {
    s.trim()
        .parse()
        .map_err(|e| format!("bad float {s:?}: {e}"))
}

fn parse_bool(s: &str) -> Result<bool, String> {
    match s.trim() {
        "true" => Ok(true),
        "false" => Ok(false),
        other => Err(format!("bad bool {other:?} (expected true|false)")),
    }
}

fn parse_range(s: &str) -> Result<(usize, usize), String> {
    let (lo, hi) = s
        .split_once("..")
        .ok_or_else(|| format!("bad range {s:?} (expected LO..HI, inclusive)"))?;
    let lo = lo
        .trim()
        .parse()
        .map_err(|e| format!("bad range start in {s:?}: {e}"))?;
    let hi = hi
        .trim()
        .parse()
        .map_err(|e| format!("bad range end in {s:?}: {e}"))?;
    Ok((lo, hi))
}

/// Runs one case end to end. `None` means the case passed; `Some`
/// describes the failure (commit-stream divergence, simulator error,
/// invariant violation or panic). Panics inside the simulator are caught
/// and isolated, exactly like the experiment grid's supervisor.
#[must_use]
pub fn run_case(case: &FuzzCase) -> Option<String> {
    match catch_unwind(AssertUnwindSafe(|| run_case_inner(case))) {
        Ok(v) => v,
        Err(payload) => Some(format!(
            "panic: {}",
            crate::experiment::panic_message(payload.as_ref())
        )),
    }
}

fn run_case_inner(case: &FuzzCase) -> Option<String> {
    let prog = Arc::new(synthesize(&case.to_spec()));
    let split = case.split.then_some(case.window / 2);
    let actual = match commit_stream(case.to_config(), &prog, case.seed, case.window, split) {
        Ok(s) => s,
        Err(e) => return Some(format!("simulator error: {e}")),
    };
    let mut expected = functional_stream(&prog, case.seed, case.window);
    if case.sentinel == Some(Sentinel::FlipTaken) {
        let mid = expected.len() / 2;
        if let Some(r) = expected.get_mut(mid) {
            r.taken = !r.taken;
        }
    }
    let label = case.arch.label().to_ascii_lowercase();
    first_divergence("functional replay", &expected, &label, &actual)
}

/// Shrinks a failing case: repeatedly resets one knob toward
/// [`FuzzCase::base`] (or halves the window) and keeps the simplification
/// whenever the case still fails. `what` is the original failure
/// description; the returned pair is the minimal case and *its* failure
/// description (which may differ in detail, e.g. a different divergence
/// index).
///
/// Deterministic and bounded: every accepted step strictly shrinks the
/// distance to the base case, every rejected step is undone.
#[must_use]
pub fn shrink(case: &FuzzCase, what: String) -> (FuzzCase, String) {
    let mut cur = case.clone();
    let mut cur_what = what;
    loop {
        let mut improved = false;
        for cand in candidates(&cur) {
            if let Some(w) = run_case(&cand) {
                cur = cand;
                cur_what = w;
                improved = true;
                break;
            }
        }
        if !improved {
            return (cur, cur_what);
        }
    }
}

/// Single-step simplifications of `cur`, most drastic first (dropping a
/// whole feature before fiddling with probabilities shrinks faster).
fn candidates(cur: &FuzzCase) -> Vec<FuzzCase> {
    let base = FuzzCase::base(cur.seed);
    let mut out = Vec::new();
    let mut push = |f: &dyn Fn(&mut FuzzCase)| {
        let mut c = cur.clone();
        f(&mut c);
        if c != *cur {
            out.push(c);
        }
    };
    push(&|c| c.fault_rates = [0; 4]);
    push(&|c| c.split = false);
    push(&|c| c.idle_skip = false);
    push(&|c| c.arch = base.arch);
    push(&|c| c.recursion = false);
    push(&|c| c.indirect_prob = base.indirect_prob);
    push(&|c| c.call_prob = base.call_prob);
    push(&|c| c.uncond_prob = base.uncond_prob);
    push(&|c| c.cond_prob = base.cond_prob);
    push(&|c| c.num_funcs = base.num_funcs.min(c.num_funcs));
    push(&|c| c.blocks = base.blocks);
    push(&|c| c.insts = base.insts);
    push(&|c| {
        if c.window / 2 >= 64 {
            c.window /= 2;
        }
    });
    out
}

/// Fuzz-run parameters.
#[derive(Debug, Clone, Copy)]
pub struct FuzzOptions {
    /// Master seed: the whole run is a deterministic function of it.
    pub seed: u64,
    /// Maximum number of cases to run.
    pub cases: u64,
    /// Budget in total simulated (retired) instructions across cases;
    /// `0` = no budget, run all `cases`. Shrinking a failure is not
    /// budgeted — a found bug is always minimized.
    pub budget: u64,
    /// Inject a harness bug into every case (mutation testing).
    pub sentinel: Option<Sentinel>,
}

/// Where a fuzz run ended up.
#[derive(Debug, Clone)]
pub struct FuzzOutcome {
    /// Cases actually executed (≤ `FuzzOptions::cases`; fewer when the
    /// budget ran out or a failure stopped the run).
    pub cases_run: u64,
    /// Total instructions simulated by the executed cases (window sums;
    /// shrink reruns not counted).
    pub insts_run: u64,
    /// The first failure, if any, with its shrunk repro.
    pub failure: Option<FuzzFailure>,
}

/// A failing fuzz case, before and after shrinking.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Index of the failing case within the run.
    pub case_index: u64,
    /// The case exactly as generated.
    pub original: FuzzCase,
    /// The original failure description.
    pub what: String,
    /// The minimal case that still fails.
    pub shrunk: FuzzCase,
    /// The shrunk case's failure description.
    pub shrunk_what: String,
}

/// Runs the fuzzer: generates and executes cases until `opts.cases` are
/// done, the instruction budget is exhausted, or a case fails — in which
/// case the failure is shrunk to a minimal repro and returned.
#[must_use]
pub fn run_fuzz(opts: &FuzzOptions) -> FuzzOutcome {
    let mut cases_run = 0;
    let mut insts_run = 0;
    for index in 0..opts.cases {
        if opts.budget > 0 && insts_run >= opts.budget {
            break;
        }
        let mut case = FuzzCase::generate(opts.seed, index);
        case.sentinel = opts.sentinel;
        cases_run += 1;
        insts_run += case.window;
        if let Some(what) = run_case(&case) {
            let (shrunk, shrunk_what) = shrink(&case, what.clone());
            return FuzzOutcome {
                cases_run,
                insts_run,
                failure: Some(FuzzFailure {
                    case_index: index,
                    original: case,
                    what,
                    shrunk,
                    shrunk_what,
                }),
            };
        }
    }
    FuzzOutcome {
        cases_run,
        insts_run,
        failure: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elf_frontend::ElfVariant;

    #[test]
    fn generation_is_deterministic() {
        for i in 0..8 {
            assert_eq!(FuzzCase::generate(42, i), FuzzCase::generate(42, i));
        }
        assert_ne!(FuzzCase::generate(42, 0), FuzzCase::generate(42, 1));
        assert_ne!(FuzzCase::generate(42, 0), FuzzCase::generate(43, 0));
    }

    #[test]
    fn repro_round_trips_exactly() {
        for i in 0..12 {
            let mut case = FuzzCase::generate(7, i);
            if i % 3 == 0 {
                case.sentinel = Some(Sentinel::FlipTaken);
            }
            let text = case.to_repro();
            let back = FuzzCase::from_repro(&text).expect("repro parses");
            assert_eq!(case, back, "repro did not round-trip:\n{text}");
        }
    }

    #[test]
    fn repro_rejects_garbage() {
        assert!(FuzzCase::from_repro("not-a-repro\n").is_err());
        let good = FuzzCase::generate(1, 0).to_repro();
        assert!(FuzzCase::from_repro(&good.replace("arch=", "arcx=")).is_err());
        assert!(FuzzCase::from_repro(&(good.clone() + "arch=dcf\n")).is_err());
        let missing: String =
            good.lines()
                .filter(|l| !l.starts_with("window="))
                .fold(String::new(), |mut acc, l| {
                    acc.push_str(l);
                    acc.push('\n');
                    acc
                });
        let err = FuzzCase::from_repro(&missing).expect_err("missing key must fail");
        assert!(err.contains("window"), "unexpected error: {err}");
    }

    #[test]
    fn base_case_passes() {
        assert_eq!(run_case(&FuzzCase::base(3)), None);
    }

    #[test]
    fn sentinel_is_caught_and_shrinks() {
        let mut case = FuzzCase::base(5);
        case.sentinel = Some(Sentinel::FlipTaken);
        case.window = 512;
        case.arch = FetchArch::Elf(ElfVariant::U);
        case.idle_skip = true;
        let what = run_case(&case).expect("sentinel must make the case fail");
        assert!(what.contains("diverge"), "unexpected failure: {what}");
        let (shrunk, shrunk_what) = shrink(&case, what);
        assert!(shrunk_what.contains("diverge"));
        // The incidental complexity must be gone…
        assert_eq!(shrunk.arch, FetchArch::NoDcf);
        assert!(!shrunk.idle_skip);
        assert_eq!(shrunk.window, 64, "window should shrink to the floor");
        // …and the shrunk case must still fail, via its own repro.
        let replay = FuzzCase::from_repro(&shrunk.to_repro()).expect("repro parses");
        assert!(run_case(&replay).is_some(), "shrunk repro must still fail");
    }

    #[test]
    fn arch_keys_round_trip() {
        for a in crate::check::ALL_ARCHS {
            let case = FuzzCase {
                arch: a,
                ..FuzzCase::base(1)
            };
            let text = case.to_repro();
            assert!(
                text.contains(&format!("\narch={}\n", a.label().to_ascii_lowercase())),
                "{text}"
            );
            assert_eq!(FuzzCase::from_repro(&text).expect("repro parses").arch, a);
        }
        let base = FuzzCase::base(1);
        let key = format!("arch={}", base.arch.label().to_ascii_lowercase());
        let bad = base.to_repro().replace(&key, "arch=vliw");
        assert!(FuzzCase::from_repro(&bad).is_err());
    }
}
