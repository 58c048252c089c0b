//! Invariants of the cycle-attribution metrics layer (`elf_core::metrics`):
//!
//! - **Partition**: the fetch-cycle buckets and the mode-occupancy slots
//!   each sum *exactly* to `SimStats::cycles` — for every architecture,
//!   with and without idle skipping, with and without fault injection.
//! - **Observer**: enabling metrics changes no `SimStats` counter.
//! - **Determinism**: a checkpoint/restore split and idle skipping both
//!   leave the registry bit-identical to the uninterrupted reference.
//! - **Report**: the JSON report carries the versioned schema and the
//!   exact bucket values.

use elf_sim::core::{
    metrics, FaultPlan, Metrics, RunResult, SimConfig, SimStats, Simulator, Snapshot,
};
use elf_sim::frontend::{ElfVariant, FetchArch};
use elf_sim::trace::workloads;

const ARCHS: [FetchArch; 7] = [
    FetchArch::NoDcf,
    FetchArch::Dcf,
    FetchArch::Elf(ElfVariant::L),
    FetchArch::Elf(ElfVariant::Ret),
    FetchArch::Elf(ElfVariant::Ind),
    FetchArch::Elf(ElfVariant::Cond),
    FetchArch::Elf(ElfVariant::U),
];

/// Runs warm-up + window under `cfg` (with metrics forced on) and returns
/// the measured-window stats and registry.
fn measure(mut cfg: SimConfig, workload: &str, warmup: u64, window: u64) -> (SimStats, Metrics) {
    cfg.metrics = true;
    let w = workloads::by_name(workload).expect("workload exists");
    let mut sim = Simulator::try_for_workload(cfg, &w).expect("valid config");
    sim.warm_up(warmup).expect("warm-up completes");
    let stats = sim.run(window).expect("window completes");
    let m = sim.metrics().expect("metrics enabled").clone();
    (stats, m)
}

fn assert_partition(arch: FetchArch, label: &str, stats: &SimStats, m: &Metrics) {
    assert_eq!(
        m.total_fetch_cycles(),
        stats.cycles,
        "{} ({label}): fetch buckets do not partition the cycles",
        arch.label()
    );
    assert_eq!(
        m.total_mode_cycles(),
        stats.cycles,
        "{} ({label}): mode slots do not partition the cycles",
        arch.label()
    );
    assert_eq!(
        m.faq_occupancy.count(),
        stats.cycles,
        "{} ({label}): FAQ occupancy sampled off-cycle",
        arch.label()
    );
}

#[test]
fn buckets_partition_cycles_for_every_arch() {
    for arch in ARCHS {
        for idle_skip in [false, true] {
            let mut cfg = SimConfig::baseline(arch);
            cfg.idle_skip = idle_skip;
            let (stats, m) = measure(cfg, "641.leela", 10_000, 20_000);
            let label = if idle_skip { "skip" } else { "step" };
            assert_partition(arch, label, &stats, &m);
            assert!(stats.cycles > 0, "{}: empty window", arch.label());
        }
    }
}

#[test]
fn buckets_partition_cycles_under_fault_injection() {
    for arch in ARCHS {
        for idle_skip in [false, true] {
            let mut cfg = SimConfig::baseline(arch);
            cfg.idle_skip = idle_skip;
            cfg.fault = Some(FaultPlan::uniform(60, 11));
            let (stats, m) = measure(cfg, "641.leela", 10_000, 20_000);
            let label = if idle_skip { "faults+skip" } else { "faults" };
            assert_partition(arch, label, &stats, &m);
        }
    }
}

#[test]
fn idle_skipping_leaves_the_registry_bit_identical() {
    for arch in ARCHS {
        let mut cfg = SimConfig::baseline(arch);
        cfg.idle_skip = false;
        let (step_stats, step_m) = measure(cfg.clone(), "641.leela", 10_000, 20_000);
        cfg.idle_skip = true;
        let (skip_stats, skip_m) = measure(cfg, "641.leela", 10_000, 20_000);
        assert_eq!(step_stats, skip_stats, "{}: stats diverged", arch.label());
        assert_eq!(step_m, skip_m, "{}: metrics diverged", arch.label());
    }
}

#[test]
fn enabling_metrics_does_not_change_stats() {
    for arch in ARCHS {
        let w = workloads::by_name("641.leela").expect("workload exists");
        let cfg = SimConfig::baseline(arch);
        assert!(!cfg.metrics, "metrics must default off");
        let mut plain = Simulator::try_for_workload(cfg, &w).expect("valid config");
        plain.warm_up(10_000).expect("warm-up");
        let plain_stats = plain.run(20_000).expect("window");
        assert!(plain.metrics().is_none(), "disabled registry materialized");

        let (observed_stats, _) = measure(SimConfig::baseline(arch), "641.leela", 10_000, 20_000);
        assert_eq!(
            plain_stats,
            observed_stats,
            "{}: metrics perturbed the simulation",
            arch.label()
        );
    }
}

#[test]
fn checkpoint_split_leaves_the_registry_bit_identical() {
    for arch in [FetchArch::Dcf, FetchArch::Elf(ElfVariant::U)] {
        let mut cfg = SimConfig::baseline(arch);
        cfg.metrics = true;
        let w = workloads::by_name("641.leela").expect("workload exists");

        let mut straight = Simulator::try_for_workload(cfg.clone(), &w).expect("valid config");
        straight.run(6_000).expect("straight first leg");
        let straight_stats = straight.run(6_000).expect("straight second leg");
        let straight_m = straight.metrics().expect("metrics enabled").clone();

        let mut head = Simulator::try_for_workload(cfg, &w).expect("valid config");
        head.run(6_000).expect("split first leg");
        let bytes = head.checkpoint().to_bytes();
        drop(head);
        let snap = Snapshot::from_bytes(&bytes).expect("snapshot decodes");
        let mut resumed = Simulator::restore(&snap).expect("snapshot restores");
        assert!(
            resumed.metrics().is_some(),
            "restored simulator dropped the registry"
        );
        let resumed_stats = resumed.run(6_000).expect("resumed second leg");
        let resumed_m = resumed.metrics().expect("metrics enabled").clone();

        assert_eq!(straight_stats, resumed_stats, "{}: stats", arch.label());
        assert_eq!(straight_m, resumed_m, "{}: metrics", arch.label());
        assert_partition(arch, "split", &resumed_stats, &resumed_m);
    }
}

#[test]
fn json_report_matches_the_registry() {
    let (stats, m) = measure(
        SimConfig::baseline(FetchArch::Elf(ElfVariant::U)),
        "641.leela",
        10_000,
        20_000,
    );
    let run = RunResult {
        workload: "641.leela".to_owned(),
        arch: "U-ELF".to_owned(),
        stats: stats.clone(),
        metrics: Some(m.clone()),
    };
    let json = metrics::render_json("641.leela", &[run]);
    assert!(json.contains(&format!("\"schema\": \"{}\"", metrics::SCHEMA)));
    assert!(json.contains(&format!("\"cycles\": {}", stats.cycles)));
    for (key, slot) in metrics::MODE_KEYS.iter().zip(m.mode_cycles.iter()) {
        assert!(
            json.contains(&format!("\"{key}\": {slot}")),
            "mode slot {key} missing from the report"
        );
    }
    // The report is line-oriented; every bucket value appears verbatim.
    let total: u64 = m.fetch_cycles.iter().sum();
    assert_eq!(total, stats.cycles);
}
