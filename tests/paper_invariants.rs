//! Invariants lifted directly from the paper's text and Table II, checked
//! against the live implementation.

use elf_sim::core::{BackendConfig, SimConfig, Simulator};
use elf_sim::frontend::{ElfVariant, FetchArch, FrontendConfig};
use elf_sim::mem::MemConfig;
use elf_sim::predictors::{Bimodal, BranchTargetCache, Ras, Tage};
use elf_sim::trace::workloads;

#[test]
fn table2_frontend_parameters() {
    let f = FrontendConfig::paper();
    assert_eq!(f.fetch_width, 8, "fetch through rename width");
    assert_eq!(f.faq_entries, 32, "32-entry FIFO FAQ");
    assert_eq!(
        f.bp_to_faq_delay, 3,
        "BP1 to FE latency: 3 cycles (BP1, BP2, FAQ)"
    );
    assert_eq!(f.btb.l0_entries, 24);
    assert_eq!(f.btb.l1_entries, 256);
    assert_eq!(f.btb.l1_ways, 4);
    assert_eq!(f.btb.l2_entries, 4096);
    assert_eq!(f.btb.l2_ways, 8);
    assert_eq!(f.btb.l2_latency, 3);
    assert_eq!(f.tage.hist_lens.len(), 8, "8 tagged TAGE tables");
}

#[test]
fn table2_memory_hierarchy() {
    let m = MemConfig::paper();
    assert_eq!(m.l0i.size_bytes, 24 << 10);
    assert_eq!(m.l0i.ways, 3);
    assert_eq!(m.l0i.latency, 1);
    assert_eq!(m.l1i.size_bytes, 64 << 10);
    assert_eq!(m.l1i.latency, 3);
    assert_eq!(m.l1d.size_bytes, 32 << 10);
    assert_eq!(m.l2.size_bytes, 512 << 10);
    assert_eq!(m.l2.latency, 13);
    assert_eq!(m.l3.size_bytes, 16 << 20);
    assert_eq!(m.l3.latency, 35);
    assert_eq!(m.dram_latency, 250);
    assert_eq!(m.ipf_max_inflight, 4, "up to 4 prefetch requests in flight");
}

#[test]
fn table2_backend_parameters() {
    let b = BackendConfig::paper();
    assert_eq!(b.rename_width, 8);
    assert_eq!(b.issue_width, 9);
    assert_eq!(
        (b.rob_entries, b.iq_entries, b.lsq_entries, b.prf_entries),
        (256, 128, 128, 256)
    );
    // BP1-EXE latency: 11 cycles.
    let depth = 5 + b.rename_latency + 1 + 1 + b.redirect_latency;
    assert_eq!(depth, 11);
}

#[test]
fn elf_structures_fit_the_2kb_budget() {
    // Paper §V-B: "The total storage cost of U-ELF is smaller than 2KB".
    let f = FrontendConfig::paper();
    let bimodal = Bimodal::new(f.cpl_bimodal_entries, f.cpl_bimodal_bits).storage_bits();
    let btc = BranchTargetCache::new(f.cpl_btc_entries, 12).storage_bits();
    let ras = Ras::new(f.cpl_ras_entries).storage_bits();
    let bitvecs = 2 * f.bitvec_entries * 3;
    let tqs = 2 * f.target_queue_entries * 48;
    let total_bits = bimodal + btc + ras + bitvecs + tqs;
    assert!(
        total_bits < 2 * 8192,
        "U-ELF storage {} bits exceeds 2 KB",
        total_bits
    );
    // Individual claims: 0.75KB bimodal, 0.25KB-class RAS, 0.6KB-class BTC.
    assert_eq!(bimodal, 2048 * 3);
}

#[test]
fn tage_and_ittage_are_32kb_class() {
    let tage_kb = Tage::paper().storage_bits() as f64 / 8192.0;
    assert!((15.0..=40.0).contains(&tage_kb), "TAGE {tage_kb} KB");
}

#[test]
fn btb_hit_rates_are_cumulative_and_low_on_server1() {
    // §VI-A: server 1 misses all BTB levels chronically (28.3/48.5/70.6%
    // cumulative in the paper). We check the ordering and that the L0 rate
    // is far below a SPEC-class workload's.
    let rates = |name: &str| {
        let w = workloads::by_name(name).expect("registered");
        let mut sim = Simulator::try_for_workload(SimConfig::baseline(FetchArch::Dcf), &w)
            .expect("valid config");
        sim.warm_up(60_000).expect("warm-up completes");
        let s = sim.run(60_000).expect("run completes");
        [
            s.btb.hit_rate_through(0),
            s.btb.hit_rate_through(1),
            s.btb.hit_rate_through(2),
        ]
    };
    let srv = rates("server1_subtest1");
    assert!(
        srv[0] <= srv[1] && srv[1] <= srv[2],
        "cumulative rates must be ordered"
    );
    assert!(
        srv[2] < 0.9,
        "server1 must miss the BTB substantially: {srv:?}"
    );
    let spec = rates("641.leela");
    assert!(
        spec[2] > srv[2],
        "a cache-resident SPEC workload ({:?}) must out-hit server1 ({:?})",
        spec,
        srv
    );
}

#[test]
fn elf_variants_only_speculate_past_what_they_predict() {
    let w = workloads::by_name("server2_subtest2").expect("registered");
    let stats = |v: ElfVariant| {
        let mut sim = Simulator::try_for_workload(SimConfig::baseline(FetchArch::Elf(v)), &w)
            .expect("valid config");
        sim.warm_up(30_000).expect("warm-up completes");
        sim.run(30_000).expect("run completes").frontend
    };
    let l = stats(ElfVariant::L);
    assert_eq!(l.cpl_bimodal_preds, 0, "L-ELF has no coupled predictors");
    assert_eq!(l.cpl_ras_preds, 0);
    assert_eq!(l.cpl_btc_preds, 0);
    let ret = stats(ElfVariant::Ret);
    assert!(ret.cpl_ras_preds > 0, "RET-ELF must predict returns");
    assert_eq!(ret.cpl_bimodal_preds, 0);
    let u = stats(ElfVariant::U);
    assert!(
        u.cpl_bimodal_preds > 0 && u.cpl_ras_preds > 0,
        "U-ELF combines all"
    );
}

#[test]
fn recovery_latency_ordering_matches_figure3() {
    // Fig. 3: the minimum branch-misprediction penalty with DCF exceeds the
    // non-decoupled one by the BP1/BP2/FAQ depth; ELF and NoDCF re-enter at
    // the fetch stage.
    let w = workloads::by_name("641.leela").expect("registered");
    let lat = |arch| {
        let mut sim =
            Simulator::try_for_workload(SimConfig::baseline(arch), &w).expect("valid config");
        sim.warm_up(40_000).expect("warm-up completes");
        sim.run(30_000)
            .expect("run completes")
            .frontend
            .mean_resteer_latency()
    };
    let dcf = lat(FetchArch::Dcf);
    let nodcf = lat(FetchArch::NoDcf);
    let elf = lat(FetchArch::Elf(ElfVariant::U));
    assert!(dcf > nodcf + 2.0, "DCF {dcf} vs NoDCF {nodcf}");
    assert!(
        (elf - nodcf).abs() < 1.0,
        "ELF {elf} recovers like NoDCF {nodcf}"
    );
}

#[test]
fn uelf_divergence_machinery_is_exercised_on_bimodal_hostile_code() {
    // 620.omnetpp's history-correlated branches are exactly where the
    // coupled bimodal and the decoupled TAGE disagree — the bitvectors and
    // target queues must detect and resolve divergences (§IV-C2).
    let w = workloads::by_name("620.omnetpp").expect("registered");
    let mut sim =
        Simulator::try_for_workload(SimConfig::baseline(FetchArch::Elf(ElfVariant::U)), &w)
            .expect("valid config");
    sim.warm_up(60_000).expect("warm-up completes");
    let s = sim.run(60_000).expect("run completes");
    assert!(
        s.frontend.divergences_dcf + s.frontend.divergences_fetcher > 0,
        "no divergences detected on a bimodal-hostile workload"
    );
    assert!(
        s.frontend.cpl_bimodal_preds > 0,
        "the coupled bimodal must have made decisions"
    );
}

#[test]
fn btb_entries_obey_the_zen_format() {
    use elf_sim::btb::{BtbBranch, BtbEntry};
    use elf_sim::types::BranchKind;
    let mut e = BtbEntry::new(0x1000, 16);
    assert!(e.add_branch(BtbBranch {
        offset: 3,
        kind: BranchKind::CondDirect,
        target: Some(0x40)
    }));
    assert!(e.add_branch(BtbBranch {
        offset: 9,
        kind: BranchKind::CondDirect,
        target: Some(0x80)
    }));
    assert!(
        !e.add_branch(BtbBranch {
            offset: 12,
            kind: BranchKind::CondDirect,
            target: Some(0xc0)
        }),
        "at most 2 observed-taken branches per entry"
    );
}
