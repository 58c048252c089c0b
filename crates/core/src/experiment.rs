//! Experiment harness: run grids of (workload × configuration) cells and
//! combine their results (geomeans).
//!
//! For unattended sweeps, [`run_grid`] supervises the cells on worker
//! threads: a panicking or wedging cell is isolated (bounded retries,
//! structured [`CellFailure`]) and never takes down the rest of the grid.

use crate::config::SimConfig;
use crate::error::{DiagnosticReport, SimError};
use crate::metrics::Metrics;
use crate::recorder::TimedEvent;
use crate::sim::Simulator;
use crate::stats::SimStats;
use elf_frontend::FetchArch;
use elf_types::Cycle;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Mutex;

/// Result of one (workload, architecture) measurement.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Architecture label ("DCF", "U-ELF", ...).
    pub arch: String,
    /// Collected statistics.
    pub stats: SimStats,
    /// Cycle-attribution metrics, when [`SimConfig::metrics`] was enabled.
    pub metrics: Option<Metrics>,
}

impl RunResult {
    /// IPC of this run.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }
}

/// One cell of a supervised experiment grid: a workload run under one
/// configuration with a warm-up phase and a measured window.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// Registry workload name (see `elf_trace::workloads`).
    pub workload: String,
    /// Full simulator configuration for this cell.
    pub cfg: SimConfig,
    /// Warm-up instructions (statistics reset afterwards).
    pub warmup: u64,
    /// Measured-window instructions.
    pub window: u64,
}

impl GridCell {
    /// A baseline-configuration cell.
    #[must_use]
    pub fn baseline(workload: &str, arch: FetchArch, warmup: u64, window: u64) -> Self {
        GridCell {
            workload: workload.to_owned(),
            cfg: SimConfig::baseline(arch),
            warmup,
            window,
        }
    }
}

/// How [`run_grid`] supervises its cells.
#[derive(Debug, Clone)]
pub struct GridOptions {
    /// Worker threads (clamped to at least 1).
    pub jobs: usize,
    /// Extra attempts after a first wedge or cycle-budget trip. Panics are
    /// never retried — a deterministic simulator panics deterministically.
    pub retries: u32,
    /// Checkpoint each cell every this many measured instructions
    /// (0 disables). Requires [`GridOptions::checkpoint_dir`].
    pub checkpoint_every: u64,
    /// Directory for per-cell checkpoint files (`cell-<idx>.ckpt`).
    pub checkpoint_dir: Option<PathBuf>,
    /// Supervisor cycle watchdog: fail a cell once it has simulated this
    /// many cycles, warm-up included (0 disables). Tighter than the
    /// per-`run` forward progress cap — it bounds total cell cost, not
    /// just stalls.
    pub cycle_budget: u64,
}

impl Default for GridOptions {
    fn default() -> Self {
        GridOptions {
            jobs: 1,
            retries: 0,
            checkpoint_every: 0,
            checkpoint_dir: None,
            cycle_budget: 0,
        }
    }
}

/// Why one *attempt* at a grid cell failed (the per-attempt detail behind
/// a [`CellFailure`]).
#[derive(Debug, Clone)]
pub struct CellError {
    /// Human-readable error description.
    pub error: String,
    /// Whether this failure is worth retrying (wedge or budget trip, as
    /// opposed to a configuration/program error that cannot improve).
    pub retryable: bool,
    /// Structured machine state at failure, when available (boxed: the
    /// report is large and `Result<_, CellError>` travels by value).
    pub report: Option<Box<DiagnosticReport>>,
    /// Flight-recorder tail at failure, oldest first.
    pub events: Vec<TimedEvent>,
    /// Most recent checkpoint written before the failure, if any — resume
    /// it with `elfsim --resume` to replay up to the failure point.
    pub checkpoint: Option<PathBuf>,
}

impl CellError {
    /// A non-retryable failure with no machine state attached (unknown
    /// workload, rejected configuration, panic).
    #[must_use]
    pub fn plain(error: String) -> Self {
        CellError {
            error,
            retryable: false,
            report: None,
            events: Vec::new(),
            checkpoint: None,
        }
    }
}

/// A grid cell that failed all its attempts, with everything needed to
/// triage it offline.
#[derive(Debug, Clone)]
pub struct CellFailure {
    /// Index of the cell in the submitted grid.
    pub cell: usize,
    /// Workload name.
    pub workload: String,
    /// Architecture label.
    pub arch: String,
    /// Attempts made (1 + retries actually used).
    pub attempts: u32,
    /// Error description from the last attempt.
    pub error: String,
    /// Machine state at the last failure, when available.
    pub report: Option<DiagnosticReport>,
    /// Flight-recorder tail from the last failure, oldest first.
    pub events: Vec<TimedEvent>,
    /// Nearest checkpoint written before the last failure, if any.
    pub checkpoint: Option<PathBuf>,
}

/// Outcome of a supervised grid: completed cells and isolated failures.
/// Partial results are first-class — one bad cell costs that cell only.
#[derive(Debug, Clone, Default)]
pub struct GridReport {
    /// Cells that completed, in submission order.
    pub ok: Vec<RunResult>,
    /// Cells that failed every attempt, in submission order.
    pub failed: Vec<CellFailure>,
}

impl GridReport {
    /// Whether every cell completed.
    #[must_use]
    pub fn all_ok(&self) -> bool {
        self.failed.is_empty()
    }

    /// Folds the metrics of every completed cell into one grid-wide
    /// accumulator (`None` when no cell collected metrics). Counter and
    /// bucket totals add; the partition invariant is preserved, so the
    /// merged fetch-cycle buckets still sum to the merged cycle count.
    #[must_use]
    pub fn merged_metrics(&self) -> Option<Metrics> {
        let mut acc: Option<Metrics> = None;
        for r in &self.ok {
            if let Some(m) = &r.metrics {
                match &mut acc {
                    None => acc = Some(m.clone()),
                    Some(a) => a.merge(m),
                }
            }
        }
        acc
    }

    /// One-line per-failure summary for log output.
    #[must_use]
    pub fn failure_summary(&self) -> String {
        let mut s = String::new();
        for f in &self.failed {
            s.push_str(&format!(
                "cell {} ({} / {}): {} attempt(s) failed: {}\n",
                f.cell,
                f.workload,
                f.arch,
                f.attempts,
                f.error.lines().next().unwrap_or("?"),
            ));
            if let Some(p) = &f.checkpoint {
                s.push_str(&format!("  nearest checkpoint: {}\n", p.display()));
            }
        }
        s
    }
}

/// Runs one grid cell on a simulator built from the registry workload
/// (see [`run_cell_on`] for the run itself).
///
/// # Errors
///
/// Returns a non-retryable [`CellError`] for an unknown workload or a
/// configuration the simulator rejects, and otherwise whatever
/// [`run_cell_on`] returns.
pub fn run_cell(index: usize, cell: &GridCell, opts: &GridOptions) -> Result<RunResult, CellError> {
    let Some(w) = elf_trace::workloads::by_name(&cell.workload) else {
        return Err(CellError::plain(format!(
            "unknown workload {:?}",
            cell.workload
        )));
    };
    let sim = Simulator::try_for_workload(cell.cfg.clone(), &w)
        .map_err(|e| CellError::plain(e.to_string()))?;
    run_cell_on(index, cell, opts, sim)
}

/// Runs one grid cell on an already-built simulator (so a runner can bring
/// its own program): warm-up, then the measured window in checkpoint-sized
/// chunks. Chunk milestones are absolute so that checkpointing does not
/// perturb the run (each `run` call may overshoot by up to a retire-width;
/// relative chunks would accumulate that into the stop target).
///
/// [`GridOptions::cycle_budget`] is enforced inside every run, warm-up
/// included: the simulator stops at the budget cycle rather than after
/// the chunk that crossed it.
///
/// # Errors
///
/// Returns a [`CellError`] carrying the failure description, the flight
/// recorder tail and the nearest prior checkpoint.
pub fn run_cell_on(
    index: usize,
    cell: &GridCell,
    opts: &GridOptions,
    mut sim: Simulator,
) -> Result<RunResult, CellError> {
    let arch = cell.cfg.arch;
    let limit = match opts.cycle_budget {
        0 => Cycle::MAX,
        budget => budget,
    };
    let mut checkpoint = None;
    let fail = |sim: &Simulator, e: SimError, ckpt: &Option<PathBuf>| {
        let wedged = matches!(e, SimError::Wedged(_));
        let error = if wedged && sim.cycle() >= limit {
            format!(
                "cycle budget exhausted: {} cycles simulated (budget {}), {} of {} retired",
                sim.cycle(),
                opts.cycle_budget,
                sim.retired(),
                cell.window
            )
        } else {
            e.to_string()
        };
        CellError {
            error,
            retryable: wedged,
            report: e.report().cloned().map(Box::new),
            events: sim.recorder().snapshot(),
            checkpoint: ckpt.clone(),
        }
    };

    sim.run_within(cell.warmup, limit)
        .map_err(|e| fail(&sim, e, &checkpoint))?;
    sim.reset_stats();

    let step = match opts.checkpoint_every {
        0 => cell.window.max(1),
        n => n,
    };
    let mut milestone = 0u64;
    let stats = loop {
        milestone = (milestone + step).min(cell.window);
        let s = sim
            .run_within(milestone.saturating_sub(sim.retired()), limit)
            .map_err(|e| fail(&sim, e, &checkpoint))?;
        if let Some(dir) = &opts.checkpoint_dir {
            if opts.checkpoint_every > 0 {
                let path = dir.join(format!("cell-{index}.ckpt"));
                if sim.checkpoint().write_to(&path).is_ok() {
                    checkpoint = Some(path);
                }
            }
        }
        if milestone >= cell.window {
            break s;
        }
    };
    let metrics = sim.metrics().cloned();
    Ok(RunResult {
        workload: cell.workload.clone(),
        arch: arch.label().to_owned(),
        stats,
        metrics,
    })
}

/// Runs every cell under supervision with the default runner
/// ([`run_cell`]). See [`run_grid_with`] for the guarantees.
#[must_use]
pub fn run_grid(cells: &[GridCell], opts: &GridOptions) -> GridReport {
    run_grid_with(cells, opts, |i, c| run_cell(i, c, opts))
}

/// Runs every cell of a grid on `opts.jobs` worker threads, isolating
/// failures:
///
/// - a **panicking** runner is caught (`catch_unwind`) and recorded as a
///   [`CellFailure`] — it never propagates to other cells or the caller;
/// - a **retryable** failure (wedge, cycle-budget trip) is re-attempted up
///   to `opts.retries` more times;
/// - every other cell still completes and lands in [`GridReport::ok`].
///
/// Results are returned in submission order regardless of which worker
/// finished first.
pub fn run_grid_with<F>(cells: &[GridCell], opts: &GridOptions, runner: F) -> GridReport
where
    F: Fn(usize, &GridCell) -> Result<RunResult, CellError> + Sync,
{
    let queue: Mutex<VecDeque<usize>> = Mutex::new((0..cells.len()).collect());
    let ok: Mutex<Vec<(usize, RunResult)>> = Mutex::new(Vec::new());
    let failed: Mutex<Vec<CellFailure>> = Mutex::new(Vec::new());
    let runner = &runner;

    let work = |_worker: usize| loop {
        let Some(i) = queue.lock().expect("queue lock").pop_front() else {
            return;
        };
        let cell = &cells[i];
        let mut attempts = 0u32;
        let outcome = loop {
            attempts += 1;
            match catch_unwind(AssertUnwindSafe(|| runner(i, cell))) {
                Ok(Ok(res)) => break Ok(res),
                Ok(Err(e)) => {
                    if e.retryable && attempts <= opts.retries {
                        continue;
                    }
                    break Err(e);
                }
                Err(payload) => {
                    let msg = panic_message(payload.as_ref());
                    break Err(CellError::plain(format!("panicked: {msg}")));
                }
            }
        };
        match outcome {
            Ok(res) => ok.lock().expect("ok lock").push((i, res)),
            Err(e) => failed.lock().expect("failed lock").push(CellFailure {
                cell: i,
                workload: cell.workload.clone(),
                arch: cell.cfg.arch.label().to_owned(),
                attempts,
                error: e.error,
                report: e.report.map(|b| *b),
                events: e.events,
                checkpoint: e.checkpoint,
            }),
        }
    };

    let jobs = opts.jobs.max(1).min(cells.len().max(1));
    if jobs <= 1 {
        work(0);
    } else {
        let work = &work;
        std::thread::scope(|scope| {
            for worker in 0..jobs {
                scope.spawn(move || work(worker));
            }
        });
    }

    let mut ok = ok.into_inner().expect("ok lock");
    ok.sort_by_key(|(i, _)| *i);
    let mut failed = failed.into_inner().expect("failed lock");
    failed.sort_by_key(|f| f.cell);
    GridReport {
        ok: ok.into_iter().map(|(_, r)| r).collect(),
        failed,
    }
}

/// The message a caught panic carried: its `&str` or `String` payload, or
/// a fixed text for any other payload type.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

/// Geometric mean of a slice of positive values (1.0 for an empty slice).
///
/// Every input must be positive: a zero or negative value (a wedged run
/// reporting 0 IPC, say) has no meaningful geomean contribution, and
/// silently clamping it would poison the suite mean invisibly. Debug
/// builds assert on such inputs; release builds still clamp to `1e-12`
/// for backward compatibility.
#[must_use]
pub fn geomean(xs: &[f64]) -> f64 {
    debug_assert!(
        xs.iter().all(|&x| x > 0.0),
        "geomean over non-positive values {xs:?}: a zero-IPC (wedged?) run \
         would silently poison the mean"
    );
    if xs.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = xs.iter().map(|&x| x.max(1e-12).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-positive")]
    fn geomean_asserts_on_non_positive_input_in_debug() {
        let _ = geomean(&[1.0, 0.0]);
    }
}
