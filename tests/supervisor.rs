//! Supervised-grid behavior: a wedging or panicking cell is isolated and
//! reported with diagnostics while every other cell still completes, the
//! retry budget is honored, and per-cell checkpoints written during the
//! run are resumable.

use elf_sim::core::experiment::{run_cell, run_grid_with};
use elf_sim::core::{
    run_grid, FaultKind, FaultPlan, GridCell, GridOptions, SimConfig, Simulator, Snapshot,
};
use elf_sim::frontend::{ElfVariant, FetchArch};

/// A cell guaranteed to wedge: constant spurious flushes destroy forward
/// progress and a tight cap makes the watchdog trip quickly.
fn wedge_cell() -> GridCell {
    let mut cfg = SimConfig::baseline(FetchArch::Elf(ElfVariant::U));
    cfg.fault = Some(FaultPlan::single(FaultKind::SpuriousFlush, 100_000, 1));
    cfg.progress_cap_base = 5_000;
    cfg.progress_cap_per_inst = 0;
    GridCell {
        workload: "641.leela".to_owned(),
        cfg,
        warmup: 0,
        window: 50_000,
    }
}

fn small_grid() -> Vec<GridCell> {
    vec![
        GridCell::baseline("619.lbm", FetchArch::Dcf, 1_000, 4_000),
        wedge_cell(),
        GridCell::baseline("619.lbm", FetchArch::NoDcf, 1_000, 4_000),
        GridCell::baseline("641.leela", FetchArch::Elf(ElfVariant::L), 1_000, 4_000),
    ]
}

#[test]
fn wedged_cell_is_isolated_and_retried() {
    let opts = GridOptions {
        jobs: 2,
        retries: 2,
        ..GridOptions::default()
    };
    let report = run_grid(&small_grid(), &opts);

    assert_eq!(report.ok.len(), 3, "healthy cells must all complete");
    assert_eq!(report.failed.len(), 1);
    let f = &report.failed[0];
    assert_eq!(f.cell, 1, "the wedge cell is index 1");
    assert_eq!(f.attempts, 3, "1 attempt + 2 retries");
    assert!(f.error.contains("wedged"), "error was: {}", f.error);
    let r = f
        .report
        .as_ref()
        .expect("wedge carries a diagnostic report");
    assert!(r.retired < r.target);
    assert!(!f.events.is_empty(), "wedge cell recorded pipeline events");
    assert!(!report.all_ok());
    assert!(report.failure_summary().contains("641.leela"));
    // Submission order is preserved despite 2 workers racing.
    assert_eq!(report.ok[0].arch, "DCF");
    assert_eq!(report.ok[1].arch, "NoDCF");
}

#[test]
fn panicking_cell_never_propagates_and_is_not_retried() {
    let cells = small_grid();
    let opts = GridOptions {
        jobs: 2,
        retries: 3,
        ..GridOptions::default()
    };
    let report = run_grid_with(&cells, &opts, |i, c| {
        if i == 2 {
            panic!("induced panic in cell {i}");
        }
        run_cell(i, c, &opts)
    });

    // Cell 1 still wedges (retryable, 4 attempts); cell 2 panics once.
    assert_eq!(report.ok.len(), 2);
    assert_eq!(report.failed.len(), 2);
    let panic_f = report
        .failed
        .iter()
        .find(|f| f.cell == 2)
        .expect("panic failure recorded");
    assert!(
        panic_f.error.contains("induced panic"),
        "error was: {}",
        panic_f.error
    );
    assert_eq!(panic_f.attempts, 1, "panics must not be retried");
    let wedge_f = report
        .failed
        .iter()
        .find(|f| f.cell == 1)
        .expect("wedge failure recorded");
    assert_eq!(wedge_f.attempts, 4);
}

#[test]
fn unknown_workload_is_a_structured_failure() {
    let cells = vec![GridCell::baseline(
        "no-such-workload",
        FetchArch::Dcf,
        0,
        1_000,
    )];
    let report = run_grid(
        &cells,
        &GridOptions {
            retries: 5,
            ..GridOptions::default()
        },
    );
    assert_eq!(report.failed.len(), 1);
    assert!(report.failed[0].error.contains("unknown workload"));
    assert_eq!(
        report.failed[0].attempts, 1,
        "config errors are not retryable"
    );
}

#[test]
fn cycle_budget_watchdog_trips_with_diagnostics() {
    let cells = vec![GridCell::baseline(
        "641.leela",
        FetchArch::Dcf,
        0,
        1_000_000,
    )];
    let budget = 20_000;
    let opts = GridOptions {
        retries: 1,
        cycle_budget: budget,
        ..GridOptions::default()
    };
    let report = run_grid(&cells, &opts);
    assert!(report.ok.is_empty());
    let f = &report.failed[0];
    assert!(
        f.error.contains("cycle budget exhausted"),
        "error was: {}",
        f.error
    );
    assert_eq!(f.attempts, 2, "budget trips are retryable");
    let report = f
        .report
        .as_ref()
        .expect("budget trip carries machine state");
    assert!(
        report.cycle <= budget,
        "the budget bounds the run from inside: stopped at cycle {}",
        report.cycle
    );
}

#[test]
fn grid_checkpoints_are_written_and_resumable() {
    let dir = std::env::temp_dir().join(format!("elfsim-grid-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cells = vec![GridCell::baseline("619.lbm", FetchArch::Dcf, 1_000, 6_000)];
    let opts = GridOptions {
        checkpoint_every: 2_000,
        checkpoint_dir: Some(dir.clone()),
        ..GridOptions::default()
    };
    let report = run_grid(&cells, &opts);
    assert!(report.all_ok(), "failures: {}", report.failure_summary());

    let path = dir.join("cell-0.ckpt");
    let snap = Snapshot::read_from(&path).expect("grid wrote a readable checkpoint");
    assert!(
        snap.retired >= 6_000,
        "final checkpoint is at the window end"
    );
    let mut resumed = Simulator::restore(&snap).expect("grid checkpoint restores");
    resumed
        .run(1_000)
        .expect("resumed simulator makes progress");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_cell_reports_its_nearest_checkpoint() {
    let dir = std::env::temp_dir().join(format!("elfsim-grid-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // Budget high enough to clear the first 2k-instruction milestone (and
    // write a checkpoint) but far too low for the 200k window.
    let cells = vec![GridCell::baseline("619.lbm", FetchArch::Dcf, 0, 200_000)];
    let opts = GridOptions {
        checkpoint_every: 2_000,
        checkpoint_dir: Some(dir.clone()),
        cycle_budget: 30_000,
        ..GridOptions::default()
    };
    let report = run_grid(&cells, &opts);
    assert_eq!(report.failed.len(), 1);
    let f = &report.failed[0];
    let ckpt = f
        .checkpoint
        .as_ref()
        .expect("failure names its nearest checkpoint");
    let snap = Snapshot::read_from(ckpt).expect("named checkpoint is readable");
    Simulator::restore(&snap).expect("named checkpoint restores");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn grid_collects_and_merges_metrics() {
    let cells: Vec<GridCell> = [FetchArch::Dcf, FetchArch::Elf(ElfVariant::U)]
        .into_iter()
        .map(|a| {
            let mut cfg = SimConfig::baseline(a);
            cfg.metrics = true;
            GridCell {
                workload: "641.leela".to_owned(),
                cfg,
                warmup: 1_000,
                window: 4_000,
            }
        })
        .collect();
    let report = run_grid(&cells, &GridOptions::default());
    assert!(report.all_ok(), "{}", report.failure_summary());
    let mut total_cycles = 0u64;
    for r in &report.ok {
        let m = r.metrics.as_ref().expect("metrics-enabled cell");
        assert_eq!(
            m.total_fetch_cycles(),
            r.stats.cycles,
            "{}: buckets do not partition the cycles",
            r.arch
        );
        total_cycles += r.stats.cycles;
    }
    let merged = report.merged_metrics().expect("merged registry");
    assert_eq!(merged.total_fetch_cycles(), total_cycles);
    assert_eq!(merged.total_mode_cycles(), total_cycles);

    // Metrics-off cells yield no registry and nothing to merge.
    let plain = run_grid(
        &[GridCell::baseline("619.lbm", FetchArch::Dcf, 1_000, 4_000)],
        &GridOptions::default(),
    );
    assert!(plain.ok[0].metrics.is_none());
    assert!(plain.merged_metrics().is_none());
}
