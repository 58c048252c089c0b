//! The benchmark's workloads and the cells each one runs.
//!
//! Every cell uses `SimConfig::baseline`, runs a warm-up, resets the
//! statistics and then runs its measured window, so caches, BTBs and
//! predictors start warm. The benchmark seed replaces both the registry
//! program's synthesis seed and the oracle seed.

use elf_core::check::ALL_ARCHS;
use elf_core::{SimConfig, SimStats, Simulator};
use elf_frontend::{ElfVariant, FetchArch};
use elf_trace::workloads::{self, ELF_FOCUS_SET};
use elf_trace::{synthesize, ProgramSpec};
use std::sync::Arc;
use std::time::Instant;

/// The seed the recorded `SimStats` values belong to.
pub const DEFAULT_SEED: u64 = 1;

/// Warm-up and measured-window instructions of a kernel cell: the figure
/// benches' 200k + 300k. `641.leela` and `server1_subtest1` need about
/// 200k instructions before their caches and BTBs reach the steady state
/// the workload is chosen for (leela's IPC is ~0.5 after 20k, ~1.7 after
/// 200k).
pub const KERNEL_WARMUP: u64 = 200_000;
/// See [`KERNEL_WARMUP`].
pub const KERNEL_WINDOW: u64 = 300_000;

/// Warm-up and measured-window instructions of a figure-grid cell (short:
/// the grid measures supervision, synthesis and load balance as much as
/// the kernel).
pub const GRID_WARMUP: u64 = 2_000;
/// See [`GRID_WARMUP`].
pub const GRID_WINDOW: u64 = 5_000;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `641.leela` under all 7 architectures: compute- and branch-bound.
    KernelLeela,
    /// `server1_subtest1` under all 7 architectures: front-end-bound.
    KernelServer1,
    /// `605.mcf` under all 7 architectures: memory-bound.
    KernelMcf,
    /// The cells the `fig6`, `fig7` and `fig8` benches request, through
    /// `run_grid_with` on one worker per available core.
    ReproGrid,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::KernelLeela,
        Workload::KernelServer1,
        Workload::KernelMcf,
        Workload::ReproGrid,
    ];

    /// The name the command line takes.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::KernelLeela => "kernel-leela",
            Workload::KernelServer1 => "kernel-server1",
            Workload::KernelMcf => "kernel-mcf",
            Workload::ReproGrid => "repro-grid",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the cells run through the supervised grid.
    #[must_use]
    pub fn is_grid(self) -> bool {
        self == Workload::ReproGrid
    }

    /// The cells of one pass, in run (or submission) order.
    #[must_use]
    pub fn cells(self) -> Vec<Cell> {
        let kernel = |program| {
            ALL_ARCHS
                .iter()
                .map(|&arch| Cell::new(program, arch, KERNEL_WARMUP, KERNEL_WINDOW))
                .collect()
        };
        match self {
            Workload::KernelLeela => kernel("641.leela"),
            Workload::KernelServer1 => kernel("server1_subtest1"),
            Workload::KernelMcf => kernel("605.mcf"),
            Workload::ReproGrid => figure_grid(),
        }
    }
}

/// The requests of the `fig6`, `fig7` and `fig8` benches over
/// `ELF_FOCUS_SET`, in their order (duplicates included: DCF is requested
/// by all three figures and L-ELF by two).
#[must_use]
pub fn figure_grid() -> Vec<Cell> {
    use ElfVariant::{Cond, Ind, Ret, L, U};
    let figures: [&[FetchArch]; 3] = [
        &[FetchArch::Dcf, FetchArch::NoDcf],
        &[
            FetchArch::Dcf,
            FetchArch::Elf(L),
            FetchArch::Elf(Ret),
            FetchArch::Elf(Ind),
            FetchArch::Elf(Cond),
        ],
        &[FetchArch::Dcf, FetchArch::Elf(L), FetchArch::Elf(U)],
    ];
    let mut cells = Vec::new();
    for archs in figures {
        for &program in ELF_FOCUS_SET {
            for &arch in archs {
                cells.push(Cell::new(program, arch, GRID_WARMUP, GRID_WINDOW));
            }
        }
    }
    cells
}

/// One (program, architecture) simulation with its instruction counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Registry program name.
    pub program: &'static str,
    /// Fetch architecture.
    pub arch: FetchArch,
    /// Warm-up instructions (statistics reset afterwards).
    pub warmup: u64,
    /// Measured-window instructions.
    pub window: u64,
}

impl Cell {
    /// A cell.
    #[must_use]
    pub fn new(program: &'static str, arch: FetchArch, warmup: u64, window: u64) -> Self {
        Cell {
            program,
            arch,
            warmup,
            window,
        }
    }

    /// Identifies the cell in digests and recorded values.
    #[must_use]
    pub fn key(&self) -> String {
        format!(
            "{}/{}/{}+{}",
            self.program,
            self.arch.label(),
            self.warmup,
            self.window
        )
    }

    /// The baseline configuration of this cell.
    #[must_use]
    pub fn config(&self) -> SimConfig {
        SimConfig::baseline(self.arch)
    }
}

/// The registry program `name` with its synthesis seed replaced by `seed`.
///
/// # Errors
///
/// Returns a message if `name` is not a registry program.
pub fn spec_for(name: &str, seed: u64) -> Result<ProgramSpec, String> {
    let mut w = workloads::by_name(name).ok_or_else(|| format!("unknown program {name:?}"))?;
    w.spec.seed = seed;
    Ok(w.spec)
}

/// Host seconds of one untraced cell, split by phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct CellTimes {
    /// From the program name to a simulator ready to warm up.
    pub setup_s: f64,
    /// Inside the measured window's `Simulator::run` call.
    pub window_s: f64,
    /// Setup, warm-up and window.
    pub wall_s: f64,
}

/// Runs one cell through the public entry points
/// (`Simulator::try_from_program`, `warm_up`, `run`), timing each phase.
///
/// # Errors
///
/// Returns the rendered `SimError` of a failed construction or run.
pub fn run_cell(cell: &Cell, seed: u64) -> Result<(SimStats, CellTimes), String> {
    let start = Instant::now();
    let spec = spec_for(cell.program, seed)?;
    let prog = Arc::new(synthesize(&spec));
    let mut sim =
        Simulator::try_from_program(cell.config(), prog, seed).map_err(|e| e.to_string())?;
    let setup_s = start.elapsed().as_secs_f64();
    sim.warm_up(cell.warmup).map_err(|e| e.to_string())?;
    let window_start = Instant::now();
    let stats = sim.run(cell.window).map_err(|e| e.to_string())?;
    let window_s = window_start.elapsed().as_secs_f64();
    let times = CellTimes {
        setup_s,
        window_s,
        wall_s: start.elapsed().as_secs_f64(),
    };
    Ok((stats, times))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_grid_has_the_benches_request_count() {
        let grid = figure_grid();
        assert_eq!(grid.len(), 10 * ELF_FOCUS_SET.len());
        let mut keys: Vec<String> = grid.iter().map(Cell::key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(grid.len() - keys.len(), 3 * ELF_FOCUS_SET.len());
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
