//! Cross-crate end-to-end tests: every fetch architecture simulates registry
//! workloads to completion with sane, deterministic, architecture-invariant
//! results.

use elf_sim::core::{SimConfig, Simulator};
use elf_sim::frontend::{ElfVariant, FetchArch};
use elf_sim::trace::workloads;

const ALL_ARCHS: [FetchArch; 7] = [
    FetchArch::NoDcf,
    FetchArch::Dcf,
    FetchArch::Elf(ElfVariant::L),
    FetchArch::Elf(ElfVariant::Ret),
    FetchArch::Elf(ElfVariant::Ind),
    FetchArch::Elf(ElfVariant::Cond),
    FetchArch::Elf(ElfVariant::U),
];

#[test]
fn every_architecture_completes_a_branchy_workload() {
    let w = workloads::by_name("641.leela").expect("registered");
    for arch in ALL_ARCHS {
        let mut sim =
            Simulator::try_for_workload(SimConfig::baseline(arch), &w).expect("valid config");
        let s = sim.run(30_000).expect("run completes");
        assert!(s.retired >= 30_000, "{arch:?}");
        assert!(s.ipc() > 0.1 && s.ipc() < 8.0, "{arch:?} IPC {}", s.ipc());
    }
}

#[test]
fn every_architecture_completes_a_server_workload() {
    let w = workloads::by_name("server2_subtest2").expect("registered");
    for arch in [
        FetchArch::Dcf,
        FetchArch::Elf(ElfVariant::Ret),
        FetchArch::Elf(ElfVariant::U),
    ] {
        let mut sim =
            Simulator::try_for_workload(SimConfig::baseline(arch), &w).expect("valid config");
        let s = sim.run(30_000).expect("run completes");
        assert!(s.retired >= 30_000, "{arch:?}");
        assert!(
            s.returns > 100,
            "{arch:?}: recursion workload must retire returns"
        );
    }
}

#[test]
fn results_are_deterministic() {
    let w = workloads::by_name("648.exchange2").expect("registered");
    let run = |arch| {
        let mut sim =
            Simulator::try_for_workload(SimConfig::baseline(arch), &w).expect("valid config");
        let s = sim.run(25_000).expect("run completes");
        (
            s.cycles,
            s.retired,
            s.cond_mispredicts,
            s.backend.mispredict_flushes,
        )
    };
    for arch in [FetchArch::Dcf, FetchArch::Elf(ElfVariant::U)] {
        assert_eq!(run(arch), run(arch), "{arch:?} must be deterministic");
    }
}

#[test]
fn architectural_results_do_not_depend_on_the_fetch_architecture() {
    // The fetch engine changes WHEN instructions execute, never WHAT
    // retires: taken-branch and return counts must agree across
    // architectures (up to the commit-width overshoot of the stop point).
    let w = workloads::by_name("602.gcc").expect("registered");
    let profile = |arch| {
        let mut sim =
            Simulator::try_for_workload(SimConfig::baseline(arch), &w).expect("valid config");
        let s = sim.run(25_000).expect("run completes");
        (s.retired, s.taken_branches, s.returns)
    };
    let a = profile(FetchArch::NoDcf);
    let b = profile(FetchArch::Dcf);
    let c = profile(FetchArch::Elf(ElfVariant::U));
    for (x, y) in [(a, b), (a, c)] {
        assert!(x.0.abs_diff(y.0) <= 16);
        assert!(
            x.1.abs_diff(y.1) <= 32,
            "taken-branch counts diverge: {x:?} vs {y:?}"
        );
        assert!(
            x.2.abs_diff(y.2) <= 32,
            "return counts diverge: {x:?} vs {y:?}"
        );
    }
}

#[test]
fn warmup_resets_measurement_windows() {
    let w = workloads::by_name("619.lbm").expect("registered");
    let mut sim =
        Simulator::try_for_workload(SimConfig::baseline(FetchArch::Dcf), &w).expect("valid config");
    sim.warm_up(20_000).expect("warm-up completes");
    let s0 = sim.stats();
    assert_eq!(s0.retired, 0);
    assert_eq!(s0.cycles, 0);
    assert_eq!(s0.backend.mispredict_flushes, 0);
    let s = sim.run(15_000).expect("run completes");
    assert!(s.retired >= 15_000);
}

#[test]
fn fp_workloads_have_low_mpki_and_branchy_ones_high() {
    let mpki = |name: &str| {
        let w = workloads::by_name(name).expect("registered");
        let mut sim = Simulator::try_for_workload(SimConfig::baseline(FetchArch::Dcf), &w)
            .expect("valid config");
        sim.warm_up(40_000).expect("warm-up completes");
        sim.run(40_000).expect("run completes").branch_mpki()
    };
    let lbm = mpki("619.lbm");
    let leela = mpki("641.leela");
    // Short windows leave TAGE partially cold; full bench runs show
    // lbm < 1 MPKI — this only checks the ordering.
    assert!(lbm < 5.0, "619.lbm MPKI {lbm}");
    assert!(leela > 6.0, "641.leela MPKI {leela}");
    assert!(
        leela > 2.0 * lbm,
        "MPKI ordering must separate FP from branchy INT"
    );
}

#[test]
fn elf_recovers_from_resteers_faster_than_dcf() {
    // The core mechanism of the paper: coupled mode probes the I-cache
    // immediately after a flush while the DCF restarts from BP1.
    let w = workloads::by_name("641.leela").expect("registered");
    let latency = |arch| {
        let mut sim =
            Simulator::try_for_workload(SimConfig::baseline(arch), &w).expect("valid config");
        sim.warm_up(40_000).expect("warm-up completes");
        sim.run(40_000)
            .expect("run completes")
            .frontend
            .mean_resteer_latency()
    };
    let dcf = latency(FetchArch::Dcf);
    let elf = latency(FetchArch::Elf(ElfVariant::U));
    assert!(
        elf + 2.0 <= dcf,
        "ELF recovery ({elf:.2} cycles) must beat DCF ({dcf:.2} cycles) by the \
         BP-pipeline depth"
    );
}

#[test]
fn dcf_prefetches_instructions_and_nodcf_cannot() {
    let w = workloads::by_name("server1_subtest1").expect("registered");
    let pf = |arch| {
        let mut sim =
            Simulator::try_for_workload(SimConfig::baseline(arch), &w).expect("valid config");
        sim.warm_up(30_000).expect("warm-up completes");
        sim.run(30_000)
            .expect("run completes")
            .frontend
            .faq_prefetches
    };
    assert!(
        pf(FetchArch::Dcf) > 100,
        "large-footprint workload must prefetch"
    );
    assert_eq!(pf(FetchArch::NoDcf), 0, "NoDCF has no FAQ to prefetch from");
}

#[test]
fn elf_coupled_mode_is_transient() {
    let w = workloads::by_name("620.omnetpp").expect("registered");
    let mut sim =
        Simulator::try_for_workload(SimConfig::baseline(FetchArch::Elf(ElfVariant::U)), &w)
            .expect("valid config");
    sim.warm_up(30_000).expect("warm-up completes");
    let s = sim.run(40_000).expect("run completes");
    assert!(s.frontend.coupled_periods > 10);
    assert!(
        s.frontend.coupled_cycle_fraction() < 0.6,
        "coupled fraction {}",
        s.frontend.coupled_cycle_fraction()
    );
}

#[test]
fn gshare_coupled_predictor_extension_runs_end_to_end() {
    use elf_sim::frontend::CoupledCondKind;
    let w = workloads::by_name("620.omnetpp").expect("registered");
    let mut cfg = SimConfig::baseline(FetchArch::Elf(ElfVariant::Cond));
    cfg.frontend.cpl_cond_kind = CoupledCondKind::Gshare { hist_bits: 10 };
    let mut sim = Simulator::try_for_workload(cfg, &w).expect("valid config");
    sim.warm_up(25_000).expect("warm-up completes");
    let s = sim.run(25_000).expect("run completes");
    assert!(s.retired >= 25_000);
    assert!(
        s.frontend.cpl_bimodal_preds > 0,
        "the gshare must make coupled decisions"
    );
}

#[test]
fn boomerang_probe_extension_reduces_proxy_blocks() {
    let w = workloads::by_name("641.leela").expect("registered");
    let run = |probe: bool| {
        let mut cfg = SimConfig::baseline(FetchArch::Dcf);
        cfg.frontend.btb_miss_probe = probe;
        let mut sim = Simulator::try_for_workload(cfg, &w).expect("valid config");
        sim.warm_up(25_000).expect("warm-up completes");
        let s = sim.run(25_000).expect("run completes");
        (s.frontend.btb_miss_blocks, s.frontend.boomerang_blocks)
    };
    let (proxies_off, boom_off) = run(false);
    let (proxies_on, boom_on) = run(true);
    assert_eq!(boom_off, 0, "probe off must never pre-decode");
    assert!(
        boom_on > 0,
        "probe on must recover blocks from resident lines"
    );
    assert!(
        proxies_on < proxies_off,
        "recovered blocks replace blind proxies: {proxies_on} vs {proxies_off}"
    );
}
