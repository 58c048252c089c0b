//! Regenerates every table and figure of the paper in one supervised pass:
//! Table II, Figures 6–9 and the DESIGN.md §9 ablations.
//!
//! Every section's cells are planned first, each distinct (workload,
//! configuration, warm-up, window) cell once, and run in a single
//! `run_grid` pass on all available cores; the sections are then rendered
//! from the results in paper order.

use elf_bench::{ascii_bars, banner, params, r1, r3, write_csv, BenchParams, Plan, Results};
use elf_core::check::ALL_ARCHS;
use elf_core::experiment::{geomean, RunResult};
use elf_core::SimConfig;
use elf_frontend::{CoupledCondKind, ElfVariant, FetchArch};
use elf_predictors::{Bimodal, BranchTargetCache, Ittage, Ras, Tage};
use elf_trace::workloads::{self, Suite, ELF_FOCUS_SET};

/// Figure 9: the baseline and the three architectures it compares.
const FIG9_ARCHS: [FetchArch; 4] = [
    FetchArch::Dcf,
    FetchArch::NoDcf,
    FetchArch::Elf(ElfVariant::L),
    FetchArch::Elf(ElfVariant::U),
];

fn main() {
    // The full Table I grid (figure 9) uses a smaller default window than
    // the per-figure sections.
    let focus = params(200_000, 300_000);
    let full_grid = params(120_000, 180_000);
    let ablation = params(150_000, 200_000);
    let sweeps = sweeps();

    let mut plan = Plan::default();
    // Figures 6–8 together ask for every architecture.
    for name in ELF_FOCUS_SET {
        for arch in ALL_ARCHS {
            plan.add(name, SimConfig::baseline(arch), focus);
        }
    }
    for suite in Suite::ALL {
        for w in workloads::suite_members(suite) {
            for arch in FIG9_ARCHS {
                plan.add(w.name, SimConfig::baseline(arch), full_grid);
            }
        }
    }
    for sweep in &sweeps {
        for name in sweep.workloads {
            for (_, _, cfg) in &sweep.points {
                if cfg.arch != FetchArch::Dcf {
                    plan.add(name, SimConfig::baseline(FetchArch::Dcf), ablation);
                }
                plan.add(name, cfg.clone(), ablation);
            }
        }
    }
    let results = plan.run();

    table2();
    fig6(&results, focus);
    fig7(&results, focus);
    fig8(&results, focus);
    fig9(&results, full_grid);
    ablations(&results, &sweeps, ablation);
}

fn baseline<'r>(r: &'r Results, name: &str, arch: FetchArch, p: BenchParams) -> &'r RunResult {
    r.get(name, &SimConfig::baseline(arch), p)
}

/// Table II: the baseline pipeline configuration, printed from the live
/// config objects, with the paper's storage-budget claims checked
/// (coupled-predictor cost < 2 KB, 32 KB-class TAGE/ITTAGE, ...).
fn table2() {
    let p = params(0, 0);
    banner(
        "Table II — baseline pipeline configuration (live objects)",
        p,
    );
    let c = SimConfig::baseline(FetchArch::Dcf);

    println!("Branch Target Buffer");
    println!(
        "  entry: up to {} insts, up to {} taken branches",
        elf_types::MAX_BLOCK_INSTS,
        elf_types::MAX_TAKEN_BRANCHES_PER_ENTRY
    );
    println!(
        "  L0 {} entries (0-cycle) | L1 {} entries {}-way ({} cycle) | L2 {} entries {}-way ({} cycle)",
        c.frontend.btb.l0_entries,
        c.frontend.btb.l1_entries,
        c.frontend.btb.l1_ways,
        c.frontend.btb.l1_latency,
        c.frontend.btb.l2_entries,
        c.frontend.btb.l2_ways,
        c.frontend.btb.l2_latency,
    );

    let tage = Tage::paper();
    let ittage = Ittage::paper();
    let btc = BranchTargetCache::paper();
    let ras = Ras::paper();
    println!("Branch Prediction");
    println!(
        "  TAGE {} tagged tables, {:.1} KB (paper: 32 KB class)",
        c.frontend.tage.hist_lens.len(),
        tage.storage_bits() as f64 / 8192.0
    );
    println!(
        "  ITTAGE {:.1} KB + L0 BTC {} entries {:.2} KB + RAS {} entries {:.2} KB",
        ittage.storage_bits() as f64 / 8192.0,
        btc.entries(),
        btc.storage_bits() as f64 / 8192.0,
        ras.capacity(),
        ras.storage_bits() as f64 / 8192.0,
    );

    println!(
        "FAQ: {}-entry FIFO; BP1→FE latency {} cycles (BP1, BP2, FAQ)",
        c.frontend.faq_entries, c.frontend.bp_to_faq_delay
    );
    println!(
        "Instruction prefetch: FAQ-driven on L0I idle cycles, {} in flight",
        c.mem.ipf_max_inflight
    );

    println!("Memory Hierarchy");
    for cc in [&c.mem.l0i, &c.mem.l1i, &c.mem.l1d, &c.mem.l2, &c.mem.l3] {
        println!(
            "  {:>4}: {:>6} KB {:>2}-way {:>3} B lines, {:>3}-cycle",
            cc.name,
            cc.size_bytes / 1024,
            cc.ways,
            cc.line_bytes,
            cc.latency
        );
    }
    println!(
        "  DRAM: {} cycles; stride-based data prefetch",
        c.mem.dram_latency
    );

    println!("Core");
    println!(
        "  fetch-rename {} wide | issue-commit {} wide ({} ALU incl {} mul/div, {} LD/ST, {} SIMD)",
        c.backend.rename_width,
        c.backend.issue_width,
        c.backend.alu_ports,
        c.backend.muldiv_ports,
        c.backend.ldst_ports,
        c.backend.simd_ports
    );
    println!(
        "  ROB/IQ/LSQ/PRF: {}/{}/{}/{}",
        c.backend.rob_entries, c.backend.iq_entries, c.backend.lsq_entries, c.backend.prf_entries
    );
    let depth = 5 + c.backend.rename_latency + 1 + 1 + c.backend.redirect_latency;
    println!("  BP1→EXE minimum misprediction loop ≈ {depth} cycles (paper: 11)");
    println!("  memory disambiguation: PC-pair filter (256 pairs)");

    println!("Coupled (ELF) structures");
    let cpl_bimodal = Bimodal::new(c.frontend.cpl_bimodal_entries, c.frontend.cpl_bimodal_bits);
    let cpl_btc = BranchTargetCache::new(c.frontend.cpl_btc_entries, 12);
    let cpl_ras = Ras::new(c.frontend.cpl_ras_entries);
    let bimodal_kb = cpl_bimodal.storage_bits() as f64 / 8192.0;
    let btc_kb = cpl_btc.storage_bits() as f64 / 8192.0;
    let ras_kb = cpl_ras.storage_bits() as f64 / 8192.0;
    // Divergence tracking: two (taken, branch, valid) bitvectors + two
    // 16-entry target queues (paper: ~144 B + 10 B each side).
    let bitvec_bytes = 2 * (c.frontend.bitvec_entries * 3) / 8;
    let tq_bytes = 2 * c.frontend.target_queue_entries * 48 / 8;
    let div_kb = (bitvec_bytes + tq_bytes) as f64 / 1024.0;
    println!(
        "  bimodal {} x {}-bit = {:.2} KB | BTC {} entries = {:.2} KB | RAS {} = {:.2} KB",
        c.frontend.cpl_bimodal_entries,
        c.frontend.cpl_bimodal_bits,
        bimodal_kb,
        c.frontend.cpl_btc_entries,
        btc_kb,
        c.frontend.cpl_ras_entries,
        ras_kb
    );
    println!(
        "  divergence bitvectors ({} insts) + target queues ({} entries): {:.2} KB",
        c.frontend.bitvec_entries, c.frontend.target_queue_entries, div_kb
    );
    let total = bimodal_kb + btc_kb + ras_kb + div_kb;
    println!("  total U-ELF storage: {total:.2} KB (paper: < 2 KB)");
    assert!(total < 2.0, "U-ELF storage budget exceeded: {total:.2} KB");
    println!();
    println!("All Table II invariants verified.");
}

/// Figure 6: performance of NoDCF relative to the baseline DCF, with
/// branch MPKI, for the ELF-relevant workloads — plus the §VI-A server-1
/// analysis (BTB hit rates, prefetch effect).
fn fig6(r: &Results, p: BenchParams) {
    banner(
        "Figure 6 — NoDCF IPC relative to DCF (slowdown axis) + branch MPKI",
        p,
    );

    println!(
        "{:>18} {:>10} {:>12} {:>12} {:>10}",
        "workload", "DCF IPC", "NoDCF IPC", "NoDCF/DCF", "MPKI"
    );
    let mut rows = Vec::new();
    let mut bars = Vec::new();
    let mut srv1_note = String::new();
    for name in ELF_FOCUS_SET {
        let dcf = baseline(r, name, FetchArch::Dcf, p);
        let nod = baseline(r, name, FetchArch::NoDcf, p);
        let rel = nod.ipc() / dcf.ipc();
        println!(
            "{:>18} {:>10.3} {:>12.3} {:>12} {:>10}",
            name,
            dcf.ipc(),
            nod.ipc(),
            r3(rel),
            r1(dcf.stats.branch_mpki())
        );
        rows.push(format!(
            "{name},{:.4},{:.4},{:.4},{:.2}",
            dcf.ipc(),
            nod.ipc(),
            rel,
            dcf.stats.branch_mpki()
        ));
        bars.push(((*name).to_owned(), rel));
        if *name == "server1_subtest1" {
            srv1_note = format!(
                "server1_subtest1 BTB hit rates (cumulative L0/L1/L2): \
                 {:.1}% / {:.1}% / {:.1}%  (paper: 28.3 / 48.5 / 70.6)\n\
                 server1_subtest1 DCF instruction prefetches issued: {} \
                 (NoDCF has none — the §VI-A prefetch effect)",
                dcf.stats.btb.hit_rate_through(0) * 100.0,
                dcf.stats.btb.hit_rate_through(1) * 100.0,
                dcf.stats.btb.hit_rate_through(2) * 100.0,
                dcf.stats.frontend.faq_prefetches,
            );
        }
    }
    println!();
    println!("NoDCF/DCF (centered at 1.0, full bar = ±10%):");
    print!("{}", ascii_bars(&bars, 0.10));
    println!();
    println!("{srv1_note}");
    println!();
    println!(
        "Reading: values > 1 are workloads where the pipeline performs better \
         WITHOUT the decoupled fetcher (its deeper flush penalty outweighs its \
         benefits); large-instruction-footprint server workloads sit well \
         below 1 thanks to FAQ-driven prefetch."
    );
    write_csv(
        "fig6.csv",
        "workload,dcf_ipc,nodcf_ipc,nodcf_over_dcf,branch_mpki",
        &rows,
    );
}

/// Figure 7: IPC of L-ELF, RET-ELF, IND-ELF and COND-ELF relative to the
/// DCF baseline, with branch MPKI — plus the §VI-B anecdotes (620.omnetpp
/// COND-ELF bimodal risk, 433.milc RET-ELF RAW-hazard pathology).
fn fig7(r: &Results, p: BenchParams) {
    banner(
        "Figure 7 — L/RET/IND/COND-ELF IPC relative to DCF + branch MPKI",
        p,
    );

    let variants = [
        ElfVariant::L,
        ElfVariant::Ret,
        ElfVariant::Ind,
        ElfVariant::Cond,
    ];
    println!(
        "{:>18} {:>8} {:>8} {:>8} {:>8} {:>9} {:>7}",
        "workload", "L-ELF", "RET-ELF", "IND-ELF", "COND-ELF", "DCF IPC", "MPKI"
    );
    let mut rows = Vec::new();
    let mut notes: Vec<String> = Vec::new();
    for name in ELF_FOCUS_SET {
        let dcf = baseline(r, name, FetchArch::Dcf, p);
        let mut rel = Vec::new();
        let mut mpki = Vec::new();
        let mut raw = Vec::new();
        for v in variants {
            let run = baseline(r, name, FetchArch::Elf(v), p);
            rel.push(run.ipc() / dcf.ipc());
            mpki.push(run.stats.branch_mpki());
            raw.push(run.stats.backend.raw_flushes);
        }
        println!(
            "{:>18} {:>8} {:>8} {:>8} {:>8} {:>9.3} {:>7}",
            name,
            r3(rel[0]),
            r3(rel[1]),
            r3(rel[2]),
            r3(rel[3]),
            dcf.ipc(),
            r1(dcf.stats.branch_mpki())
        );
        rows.push(format!(
            "{name},{:.4},{:.4},{:.4},{:.4},{:.2}",
            rel[0],
            rel[1],
            rel[2],
            rel[3],
            dcf.stats.branch_mpki()
        ));
        if *name == "620.omnetpp" {
            notes.push(format!(
                "620.omnetpp: COND-ELF MPKI {} vs DCF {} — the coupled bimodal \
                 mispredicting history-correlated branches is the §VI-B risk",
                r1(mpki[3]),
                r1(dcf.stats.branch_mpki())
            ));
        }
        if *name == "433.milc" {
            notes.push(format!(
                "433.milc: RAW-hazard flushes — DCF {} vs RET-ELF {} \
                 (speculating across returns perturbs the memory-dependence \
                 predictor, §VI-B)",
                dcf.stats.backend.raw_flushes, raw[1]
            ));
        }
        if *name == "server2_subtest2" {
            notes.push(format!(
                "server2_subtest2: RET-ELF relative IPC {} — recursion-dense \
                 code benefits from speculating past returns",
                r3(rel[1])
            ));
        }
    }
    println!();
    for n in notes {
        println!("{n}");
    }
    write_csv(
        "fig7.csv",
        "workload,l_elf,ret_elf,ind_elf,cond_elf,branch_mpki",
        &rows,
    );
}

/// Figure 8: IPC of L-ELF and U-ELF relative to DCF, plus the average
/// number of instructions fetched per coupled period (the secondary axis).
fn fig8(r: &Results, p: BenchParams) {
    banner(
        "Figure 8 — L-ELF and U-ELF IPC relative to DCF + avg coupled insts",
        p,
    );

    println!(
        "{:>18} {:>8} {:>8} {:>14} {:>14}",
        "workload", "L-ELF", "U-ELF", "L avg cpl", "U avg cpl"
    );
    let mut rows = Vec::new();
    let mut bars = Vec::new();
    for name in ELF_FOCUS_SET {
        let dcf = baseline(r, name, FetchArch::Dcf, p);
        let l = baseline(r, name, FetchArch::Elf(ElfVariant::L), p);
        let u = baseline(r, name, FetchArch::Elf(ElfVariant::U), p);
        let (rl, ru) = (l.ipc() / dcf.ipc(), u.ipc() / dcf.ipc());
        println!(
            "{:>18} {:>8} {:>8} {:>14.1} {:>14.1}",
            name,
            r3(rl),
            r3(ru),
            l.stats.frontend.avg_coupled_insts(),
            u.stats.frontend.avg_coupled_insts()
        );
        rows.push(format!(
            "{name},{rl:.4},{ru:.4},{:.2},{:.2}",
            l.stats.frontend.avg_coupled_insts(),
            u.stats.frontend.avg_coupled_insts()
        ));
        bars.push((format!("{name} (U)"), ru));
    }
    println!();
    println!("U-ELF/DCF (centered at 1.0, full bar = ±5%):");
    print!("{}", ascii_bars(&bars, 0.05));
    println!();
    println!(
        "Reading: U-ELF speculates past control-flow decisions L-ELF stalls \
         on, so it fetches more instructions per coupled period; in general, \
         more coupled instructions mean more DCF-restart latency hidden \
         (paper §VI-C)."
    );
    write_csv(
        "fig8.csv",
        "workload,l_elf,u_elf,l_avg_cpl,u_avg_cpl",
        &rows,
    );
}

/// Figure 9: geomean speedup of NoDCF, L-ELF and U-ELF relative to the DCF
/// baseline, per benchmark suite and overall.
fn fig9(r: &Results, p: BenchParams) {
    banner(
        "Figure 9 — geomean IPC of NoDCF / L-ELF / U-ELF relative to DCF, by suite",
        p,
    );

    let archs = &FIG9_ARCHS[1..];
    println!(
        "{:>10} {:>8} {:>8} {:>8}   (workloads)",
        "suite", "NoDCF", "L-ELF", "U-ELF"
    );
    let mut rows = Vec::new();
    let mut all: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for suite in Suite::ALL {
        let members = workloads::suite_members(suite);
        let mut per_arch: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for w in &members {
            let base = baseline(r, w.name, FetchArch::Dcf, p);
            for (i, arch) in archs.iter().enumerate() {
                per_arch[i].push(baseline(r, w.name, *arch, p).ipc() / base.ipc());
            }
        }
        let g: Vec<f64> = per_arch.iter().map(|v| geomean(v)).collect();
        println!(
            "{:>10} {:>8} {:>8} {:>8}   ({})",
            suite.label(),
            r3(g[0]),
            r3(g[1]),
            r3(g[2]),
            members.len()
        );
        rows.push(format!(
            "{},{:.4},{:.4},{:.4}",
            suite.label(),
            g[0],
            g[1],
            g[2]
        ));
        for i in 0..3 {
            all[i].extend(&per_arch[i]);
        }
    }
    let g: Vec<f64> = all.iter().map(|v| geomean(v)).collect();
    println!(
        "{:>10} {:>8} {:>8} {:>8}   (all)",
        "Geomean",
        r3(g[0]),
        r3(g[1]),
        r3(g[2])
    );
    rows.push(format!("Geomean,{:.4},{:.4},{:.4}", g[0], g[1], g[2]));
    println!();
    println!(
        "Paper reference: NoDCF geomeans sit below 1 (DCF pays off on \
         average); L-ELF ≈ +0.7% and U-ELF ≈ +1.2% overall, with the server \
         suites showing the NoDCF prefetch cliff."
    );
    write_csv("fig9.csv", "suite,nodcf,l_elf,u_elf", &rows);
}

/// One ablation sweep: every point (printed label, CSV key, configuration)
/// run on every workload. The planner and the renderer both read the list
/// [`sweeps`] returns, so each configuration is declared once. Points on an
/// ELF variant report IPC relative to the workload's DCF baseline.
struct Sweep {
    /// CSV `sweep` column.
    csv: &'static str,
    heading: &'static str,
    workloads: &'static [&'static str],
    /// Width of the workload-name column (0: the name is not printed).
    name_width: usize,
    points: Vec<(String, String, SimConfig)>,
    /// Extra columns printed after the IPC.
    detail: fn(&RunResult) -> String,
}

/// Sweep points: `arch`'s baseline with `set` applied to each value.
fn points<T, const N: usize>(
    arch: FetchArch,
    values: [(String, String, T); N],
    set: fn(&mut SimConfig, T),
) -> Vec<(String, String, SimConfig)> {
    values
        .into_iter()
        .map(|(label, key, v)| {
            let mut cfg = SimConfig::baseline(arch);
            set(&mut cfg, v);
            (label, key, cfg)
        })
        .collect()
}

/// An on/off point: its label, and the value as its CSV key.
fn flag(label: &str, on: bool) -> (String, String, bool) {
    (label.to_owned(), on.to_string(), on)
}

fn per_ki(events: u64, r: &RunResult) -> String {
    r1(events as f64 * 1000.0 / r.stats.retired as f64)
}

/// The design choices called out in DESIGN.md §9: FAQ depth, L0 BTB size,
/// the COND-ELF saturation filter, FAQ-driven instruction prefetch, the
/// coupled conditional predictor and the BTB-miss probe.
fn sweeps() -> Vec<Sweep> {
    const DCF: FetchArch = FetchArch::Dcf;
    const COND: FetchArch = FetchArch::Elf(ElfVariant::Cond);
    vec![
        // FAQ depth on the prefetch-hungry server workload.
        Sweep {
            csv: "faq",
            heading: "FAQ depth sweep (DCF, server1_subtest1; Table II baseline = 32):",
            workloads: &["server1_subtest1"],
            name_width: 0,
            points: points(
                DCF,
                [4, 8, 16, 32, 64].map(|n| (format!("FAQ {n:>3}"), n.to_string(), n)),
                |c, n| c.frontend.faq_entries = n,
            ),
            detail: |r| {
                format!(
                    "prefetches {:>6}  FAQ occupancy {:>5.1}",
                    r.stats.frontend.faq_prefetches, r.stats.faq_occupancy
                )
            },
        },
        // L0 BTB size: governs how often a taken branch costs zero bubbles.
        Sweep {
            csv: "l0btb",
            heading: "L0 BTB entries sweep (DCF, 641.leela; Table II baseline = 24):",
            workloads: &["641.leela"],
            name_width: 0,
            points: points(
                DCF,
                [6, 12, 24, 48, 96].map(|n| (format!("L0 {n:>3}"), n.to_string(), n)),
                |c, n| c.frontend.btb.l0_entries = n,
            ),
            detail: |r| format!("BP bubbles/KI {}", per_ki(r.stats.frontend.bp_bubbles, r)),
        },
        // COND-ELF saturation filter (§VI-B risk knob).
        Sweep {
            csv: "satfilter",
            heading: "COND-ELF saturation filter (641.leela and 620.omnetpp):",
            workloads: &["641.leela", "620.omnetpp"],
            name_width: 14,
            points: points(
                COND,
                [flag("filter ON ", true), flag("filter OFF", false)],
                |c, on| c.frontend.cond_requires_saturation = on,
            ),
            detail: |r| {
                format!(
                    "MPKI {}  coupled preds {}",
                    r1(r.stats.branch_mpki()),
                    r.stats.frontend.cpl_bimodal_preds
                )
            },
        },
        // FAQ-driven instruction prefetch on/off (the §VI-A server-1 claim).
        Sweep {
            csv: "iprefetch",
            heading: "FAQ-driven I-prefetch (DCF, server1_subtest1):",
            workloads: &["server1_subtest1"],
            name_width: 0,
            points: points(
                DCF,
                [flag("prefetch ON ", true), flag("prefetch OFF", false)],
                |c, on| c.frontend.ifetch_prefetch = on,
            ),
            detail: |r| {
                format!(
                    "L0I misses/KI {}  L1I misses/KI {}",
                    per_ki(r.stats.mem.l0i_misses, r),
                    per_ki(r.stats.mem.l1i_misses, r)
                )
            },
        },
        // Coupled conditional predictor: bimodal (paper) vs gshare (the
        // "better coupled predictor" the paper leaves as future work, §VII).
        Sweep {
            csv: "cplcond",
            heading: "Coupled conditional predictor (COND-ELF):",
            workloads: &["641.leela", "620.omnetpp"],
            name_width: 14,
            points: points(
                COND,
                [
                    ("bimodal (paper)", CoupledCondKind::Bimodal),
                    ("gshare  (ext.) ", CoupledCondKind::Gshare { hist_bits: 10 }),
                ]
                .map(|(label, kind)| (label.to_owned(), label.to_owned(), kind)),
                |c, kind| c.frontend.cpl_cond_kind = kind,
            ),
            detail: |r| format!("MPKI {}", r1(r.stats.branch_mpki())),
        },
        // Boomerang-lite BTB-miss probe (§VI-C: "Fully hiding the BTB miss
        // penalty could be achieved through a mechanism such as Boomerang").
        Sweep {
            csv: "boomerang",
            heading: "BTB-miss L0I pre-decode probe (DCF, Boomerang-lite extension):",
            workloads: &["server1_subtest1", "641.leela"],
            name_width: 16,
            points: points(
                DCF,
                [
                    flag("probe OFF (paper)", false),
                    flag("probe ON  (ext.) ", true),
                ],
                |c, on| c.frontend.btb_miss_probe = on,
            ),
            detail: |r| {
                format!(
                    "proxy blocks/KI {}  recovered/KI {}",
                    per_ki(r.stats.frontend.btb_miss_blocks, r),
                    per_ki(r.stats.frontend.boomerang_blocks, r)
                )
            },
        },
    ]
}

/// Ablations of the design choices called out in DESIGN.md §9.
fn ablations(r: &Results, sweeps: &[Sweep], p: BenchParams) {
    banner(
        "Ablations — FAQ depth, L0 BTB size, saturation filter, I-prefetch",
        p,
    );
    let mut rows = Vec::new();
    for (i, sweep) in sweeps.iter().enumerate() {
        if i > 0 {
            println!();
        }
        println!("{}", sweep.heading);
        for name in sweep.workloads {
            for (label, key, cfg) in &sweep.points {
                let run = r.get(name, cfg, p);
                let base = (cfg.arch != FetchArch::Dcf)
                    .then(|| baseline(r, name, FetchArch::Dcf, p).ipc());
                let (value, ipc) = match base {
                    Some(b) => (run.ipc() / b, format!("rel IPC {}", r3(run.ipc() / b))),
                    None => (run.ipc(), format!("IPC {:.3}", run.ipc())),
                };
                let (prefix, key) = match sweep.name_width {
                    0 => (String::new(), key.clone()),
                    w => (format!("{name:>w$} "), format!("{name}-{key}")),
                };
                println!("  {prefix}{label}: {ipc}  {}", (sweep.detail)(run));
                rows.push(format!("{},{key},{value:.4}", sweep.csv));
            }
        }
    }
    write_csv("ablations.csv", "sweep,point,value", &rows);
}
