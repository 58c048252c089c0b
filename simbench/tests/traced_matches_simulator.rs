//! The traced simulator must be faithful to `Simulator::run`: identical
//! `SimStats` and ROB occupancy over all 7 architectures × the three kernel
//! programs on a short window, and layer spans that never exceed the
//! traced wall time.
//!
//! Run with `cargo test --release --manifest-path simbench/Cargo.toml`.

use elf_core::check::ALL_ARCHS;
use elf_core::{FaultPlan, SimConfig, Simulator};
use elf_trace::synthesize;
use simbench::traced::{run_cell_traced, TracedSim};
use simbench::workload::{spec_for, Cell, DEFAULT_SEED};
use std::sync::Arc;

const PROGRAMS: [&str; 3] = ["641.leela", "server1_subtest1", "605.mcf"];

fn simulator(cfg: SimConfig, program: &str) -> Simulator {
    let spec = spec_for(program, DEFAULT_SEED).expect("registry program");
    Simulator::try_from_program(cfg, Arc::new(synthesize(&spec)), DEFAULT_SEED)
        .expect("registry programs validate")
}

#[test]
fn traced_sim_matches_simulator_run_on_every_kernel_cell() {
    for program in PROGRAMS {
        for arch in ALL_ARCHS {
            // Long enough that COND-ELF and U-ELF reach path tracking's
            // delivery-gap branch (a wrong-path delivery with no resolving
            // branch); shorter windows never take it.
            let cell = Cell::new(program, arch, 20_000, 60_000);
            let mut sim = simulator(cell.config(), program);
            sim.warm_up(cell.warmup).expect("clean warm-up");
            let want = sim.run(cell.window).expect("clean run");

            let got = run_cell_traced(&cell, DEFAULT_SEED).expect("traced run");
            assert_eq!(got.stats, want, "{}", cell.key());
            assert_eq!(&got.rob_occupancy, sim.rob_occupancy(), "{}", cell.key());

            let t = &got.times;
            let spans = t.kernel() + t.synth;
            assert!(
                spans <= got.wall,
                "{}: spans {spans:?} > wall {:?}",
                cell.key(),
                got.wall
            );
            assert!(t.busy_cycles > 0 && t.oracle_entries > 0, "{}", cell.key());
        }
    }
}

#[test]
fn traced_sim_matches_the_stepped_walk_without_idle_skip() {
    for arch in ALL_ARCHS {
        let mut cfg = SimConfig::baseline(arch);
        cfg.idle_skip = false;
        let mut sim = simulator(cfg.clone(), "605.mcf");
        sim.warm_up(2_000).expect("clean warm-up");
        let want = sim.run(4_000).expect("clean run");

        let spec = spec_for("605.mcf", DEFAULT_SEED).expect("registry program");
        let mut traced = TracedSim::new(&cfg, Arc::new(synthesize(&spec)), DEFAULT_SEED)
            .expect("clean configuration");
        traced.warm_up(2_000).expect("traced warm-up");
        assert_eq!(traced.run(4_000).expect("traced run"), want, "{arch:?}");
        assert_eq!(traced.times.skipped_cycles, 0);
        assert_eq!(traced.times.idle_skip, std::time::Duration::ZERO);
    }
}

#[test]
fn traced_sim_refuses_configurations_it_does_not_mirror() {
    let prog = Arc::new(synthesize(&spec_for("605.mcf", 3).expect("registry")));
    let base = SimConfig::baseline(ALL_ARCHS[0]);
    let mut faults = base.clone();
    faults.fault = Some(FaultPlan::uniform(40, 1));
    let mut metrics = base.clone();
    metrics.metrics = true;
    let mut check = base;
    check.check = true;
    for cfg in [faults, metrics, check] {
        assert!(TracedSim::new(&cfg, Arc::clone(&prog), 3).is_err());
    }
}
