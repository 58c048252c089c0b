//! Fault-injection stress suite: every ELF variant under every fault kind
//! (and all of them at once) must either complete or fail with a
//! structured [`SimError`] — never panic, never wedge silently — and the
//! statistics it reports must stay internally consistent.

use elf_sim::core::{FaultKind, FaultPlan, SimConfig, SimError, SimStats, Simulator};
use elf_sim::frontend::{ElfVariant, FetchArch};
use elf_sim::trace::workloads;

const WINDOW: u64 = 15_000;

/// Runs one (variant, plan) cell and applies the shared consistency
/// checks. Returns the outcome for callers that assert more.
fn stress_cell(arch: FetchArch, plan: FaultPlan, label: &str) -> Result<SimStats, SimError> {
    let w = workloads::by_name("641.leela").expect("registered");
    let mut cfg = SimConfig::baseline(arch);
    cfg.fault = Some(plan);
    let mut sim = Simulator::try_for_workload(cfg, &w).expect("valid config");
    let c0 = sim.cycle();
    let out = sim.run(WINDOW);
    let c1 = sim.cycle();
    assert!(c1 >= c0, "{label}: cycles must be monotone");
    match &out {
        Ok(s) => {
            assert!(s.retired >= WINDOW, "{label}: short retire {}", s.retired);
            assert!(
                s.retired <= s.frontend.delivered,
                "{label}: retired {} > delivered {}",
                s.retired,
                s.frontend.delivered
            );
            assert!(s.cycles > 0, "{label}: zero-cycle success");
        }
        Err(e) => {
            // A wedge under injected faults is a legitimate outcome, but it
            // must be fully structured: a report with a consistent position.
            let r = e
                .report()
                .unwrap_or_else(|| panic!("{label}: {e} has no report"));
            assert!(r.cycle > 0, "{label}: wedge at cycle 0");
            assert!(r.retired < r.target, "{label}: wedge after reaching target");
        }
    }
    out
}

#[test]
fn every_variant_survives_every_fault_kind() {
    for variant in ElfVariant::ALL {
        for kind in FaultKind::ALL {
            // 150/100k cycles is aggressive (a fault roughly every ~700
            // cycles) but survivable: the pipeline should recover through
            // its normal flush/resync paths.
            let plan = FaultPlan::single(kind, 150, 0xe1f0 + kind.index() as u64);
            let label = format!("{variant:?}/{kind}");
            let out = stress_cell(FetchArch::Elf(variant), plan, &label);
            assert!(
                out.is_ok(),
                "{label}: expected recovery, got {:?}",
                out.err()
            );
        }
    }
}

#[test]
fn every_variant_survives_all_faults_at_once() {
    for variant in ElfVariant::ALL {
        let plan = FaultPlan::uniform(80, 0xa11f);
        let label = format!("{variant:?}/all");
        let out = stress_cell(FetchArch::Elf(variant), plan, &label);
        assert!(
            out.is_ok(),
            "{label}: expected recovery, got {:?}",
            out.err()
        );
    }
}

#[test]
fn baseline_architectures_survive_combined_faults_too() {
    for arch in [FetchArch::NoDcf, FetchArch::Dcf] {
        let out = stress_cell(arch, FaultPlan::uniform(80, 0xba5e), &format!("{arch:?}"));
        assert!(out.is_ok(), "{arch:?}: {:?}", out.err());
    }
}

#[test]
fn fault_counts_report_actual_injections() {
    let w = workloads::by_name("641.leela").expect("registered");
    let mut cfg = SimConfig::baseline(FetchArch::Elf(ElfVariant::U));
    cfg.fault = Some(FaultPlan::uniform(100, 42));
    let mut sim = Simulator::try_for_workload(cfg, &w).expect("valid config");
    sim.run(WINDOW).expect("survivable rate");
    let counts = sim.fault_counts();
    for kind in FaultKind::ALL {
        assert!(
            counts[kind.index()] > 0,
            "{kind} never fired at rate 100/100k: {counts:?}"
        );
    }
}

#[test]
fn induced_wedge_produces_a_diagnostic_with_the_event_tail() {
    // A spurious flush nearly every cycle starves retirement; with a small
    // cycle budget the run must come back as a structured wedge whose
    // report carries the flight-recorder tail.
    let w = workloads::by_name("641.leela").expect("registered");
    let mut cfg = SimConfig::baseline(FetchArch::Elf(ElfVariant::U));
    cfg.fault = Some(FaultPlan::single(FaultKind::SpuriousFlush, 100_000, 1));
    cfg.progress_cap_base = 5_000;
    cfg.progress_cap_per_inst = 0;
    let mut sim = Simulator::try_for_workload(cfg, &w).expect("valid config");
    let err = sim.run(1_000_000).expect_err("starved pipeline must wedge");
    let report = err.report().expect("wedge carries a report");
    assert!(
        !report.events.is_empty(),
        "flight recorder tail must be populated"
    );
    let rendered = err.to_string();
    assert!(rendered.contains("diagnostic report"), "{rendered}");
    assert!(
        rendered.contains("fault"),
        "tail should show injected faults:\n{rendered}"
    );
    // The simulator survives the error: it can keep running afterwards.
    let more = sim.run(1);
    assert!(more.is_ok() || more.is_err(), "no panic on continued use");
}

#[test]
fn wedge_reports_are_deterministic() {
    let run = || {
        let w = workloads::by_name("641.leela").expect("registered");
        let mut cfg = SimConfig::baseline(FetchArch::Elf(ElfVariant::U));
        cfg.fault = Some(FaultPlan::single(FaultKind::SpuriousFlush, 100_000, 1));
        cfg.progress_cap_base = 5_000;
        cfg.progress_cap_per_inst = 0;
        let mut sim = Simulator::try_for_workload(cfg, &w).expect("valid config");
        sim.run(1_000_000).expect_err("wedge").to_string()
    };
    assert_eq!(run(), run());
}
