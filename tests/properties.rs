//! Property-based tests across the workspace: random program specs always
//! synthesize into well-formed programs, oracles always chain, and the full
//! simulator makes forward progress on arbitrary workloads under every
//! fetch architecture.

use elf_sim::core::{FaultKind, FaultPlan, SimConfig, SimError, Simulator};
use elf_sim::frontend::{ElfVariant, FetchArch};
use elf_sim::trace::synth::{CondProfile, MemProfile, ProgramSpec};
use elf_sim::trace::{synthesize, Oracle};
use proptest::prelude::*;
use std::sync::Arc;

/// A simulator over the program `spec` synthesizes.
fn sim_for(cfg: SimConfig, spec: &ProgramSpec) -> Simulator {
    Simulator::try_from_program(cfg, Arc::new(synthesize(spec)), spec.seed).expect("valid config")
}

fn arb_spec() -> impl Strategy<Value = ProgramSpec> {
    (
        1u64..1_000_000,
        8usize..80,
        2usize..10,
        1usize..10,
        0.0f64..0.3,
        0.1f64..0.6,
        0.0f64..0.08,
        0.0f64..0.5,
    )
        .prop_map(
            |(seed, funcs, blocks, insts, call_p, cond_p, ind_p, bern)| ProgramSpec {
                name: format!("prop-{seed}"),
                seed,
                num_funcs: funcs,
                blocks_per_func: (2, 2 + blocks),
                insts_per_block: (1, insts),
                call_prob: call_p,
                cond_prob: cond_p,
                indirect_prob: ind_p,
                cond: CondProfile {
                    frac_bernoulli: bern,
                    frac_biased: (0.8 - bern).max(0.0),
                    frac_loop: 0.1,
                    frac_history: 0.1,
                    frac_pattern: 0.0,
                    ..CondProfile::default()
                },
                mem: MemProfile {
                    data_footprint: 1 << 20,
                    ..MemProfile::default()
                },
                ..ProgramSpec::default()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn synthesized_programs_are_well_formed(spec in arb_spec()) {
        let prog = synthesize(&spec);
        prop_assert!(prog.len_insts() > 0);
        for inst in prog.iter() {
            if let Some(t) = inst.target {
                prop_assert!(prog.inst_at(t).is_some(), "target escapes image");
            }
        }
    }

    #[test]
    fn oracle_streams_always_chain(spec in arb_spec()) {
        let prog = Arc::new(synthesize(&spec));
        let mut o = Oracle::new(Arc::clone(&prog), spec.seed);
        for s in 0..4_000u64 {
            let e = o.entry(s);
            prop_assert_eq!(o.entry(s + 1).pc, e.next_pc);
            prop_assert!(prog.inst_at(e.pc).is_some(), "correct path stays on image");
        }
    }

    #[test]
    fn simulator_makes_forward_progress(spec in arb_spec(), arch_sel in 0usize..3) {
        let arch = [
            FetchArch::Dcf,
            FetchArch::NoDcf,
            FetchArch::Elf(ElfVariant::U),
        ][arch_sel];
        let mut sim = sim_for(SimConfig::baseline(arch), &spec);
        let s = sim.run(5_000).expect("forward progress");
        prop_assert!(s.retired >= 5_000);
        prop_assert!(s.ipc() > 0.01);
    }

    #[test]
    fn retired_branch_counts_are_arch_invariant(spec in arb_spec()) {
        let profile = |arch| {
            let mut sim = sim_for(SimConfig::baseline(arch), &spec);
            let st = sim.run(4_000).expect("forward progress");
            (st.taken_branches, st.returns)
        };
        let a = profile(FetchArch::Dcf);
        let b = profile(FetchArch::Elf(ElfVariant::U));
        // Stop-point overshoot allows small differences only.
        prop_assert!(a.0.abs_diff(b.0) <= 32, "taken {a:?} vs {b:?}");
        prop_assert!(a.1.abs_diff(b.1) <= 32, "returns {a:?} vs {b:?}");
    }

    /// Any seeded fault plan on any workload and fetch architecture either
    /// completes or returns a structured wedge — never a panic, never a
    /// silent hang (the progress cap bounds the run).
    #[test]
    fn fault_injection_never_panics_or_hangs(
        spec in arb_spec(),
        arch_sel in 0usize..7,
        fault_seed in 0u64..1_000_000,
        rates in (0u32..2_000, 0u32..2_000, 0u32..2_000, 0u32..2_000),
    ) {
        let arch = [
            FetchArch::Dcf,
            FetchArch::NoDcf,
            FetchArch::Elf(ElfVariant::L),
            FetchArch::Elf(ElfVariant::Ret),
            FetchArch::Elf(ElfVariant::Ind),
            FetchArch::Elf(ElfVariant::Cond),
            FetchArch::Elf(ElfVariant::U),
        ][arch_sel];
        let mut cfg = SimConfig::baseline(arch);
        cfg.fault = Some(
            FaultPlan::new(fault_seed)
                .with(FaultKind::SpuriousFlush, rates.0)
                .with(FaultKind::CorruptBtb, rates.1)
                .with(FaultKind::EvictIcache, rates.2)
                .with(FaultKind::ForceMispredict, rates.3),
        );
        // Keep the worst case bounded so a wedge comes back quickly.
        cfg.progress_cap_base = 60_000;
        cfg.progress_cap_per_inst = 0;
        let mut sim = sim_for(cfg, &spec);
        match sim.run(3_000) {
            Ok(s) => {
                prop_assert!(s.retired >= 3_000);
                prop_assert!(s.retired <= s.frontend.delivered);
            }
            Err(SimError::Wedged(report)) => {
                prop_assert!(report.cycle > 0, "wedge at cycle zero");
                prop_assert!(report.retired < report.target);
            }
            Err(other) => {
                return Err(TestCaseError::fail(format!("unexpected error: {other}")));
            }
        }
    }
}
