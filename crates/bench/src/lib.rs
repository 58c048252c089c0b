//! Shared harness for the `paper` bench, which regenerates every table and
//! figure of the paper.
//!
//! The bench plans every distinct (workload, configuration, warm-up,
//! window) cell its sections ask for in a [`Plan`], runs them all in one
//! supervised [`run_grid`] pass, then renders each section from the
//! [`Results`]: the same rows/series the paper reports, plus a CSV copy
//! under `target/elf-results/`. Simulation window sizes are overridable
//! through `ELF_BENCH_WINDOW` / `ELF_BENCH_WARMUP` (instruction counts), so
//! CI can run quick smoke passes while full runs regenerate the
//! EXPERIMENTS.md numbers.

#![warn(missing_docs)]

use elf_core::experiment::{run_grid, GridCell, GridOptions, RunResult};
use elf_core::SimConfig;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// Instruction-count parameters for one experiment.
#[derive(Debug, Clone, Copy)]
pub struct BenchParams {
    /// Warm-up instructions (predictors/caches/BTB fill; stats reset after).
    pub warmup: u64,
    /// Measured instructions.
    pub window: u64,
}

/// Reads parameters from the environment with experiment-specific defaults.
#[must_use]
pub fn params(default_warmup: u64, default_window: u64) -> BenchParams {
    let get = |k: &str, d: u64| {
        std::env::var(k)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(d)
    };
    BenchParams {
        warmup: get("ELF_BENCH_WARMUP", default_warmup),
        window: get("ELF_BENCH_WINDOW", default_window),
    }
}

fn same_cell(c: &GridCell, workload: &str, cfg: &SimConfig, p: BenchParams) -> bool {
    c.workload == workload && c.cfg == *cfg && c.warmup == p.warmup && c.window == p.window
}

/// The cells an experiment needs, each distinct cell once.
#[derive(Debug, Default)]
pub struct Plan {
    cells: Vec<GridCell>,
}

impl Plan {
    /// Requests `workload` under `cfg` with parameters `p`; a request for
    /// a cell already planned adds nothing.
    pub fn add(&mut self, workload: &str, cfg: SimConfig, p: BenchParams) {
        if !self.cells.iter().any(|c| same_cell(c, workload, &cfg, p)) {
            self.cells.push(GridCell {
                workload: workload.to_owned(),
                cfg,
                warmup: p.warmup,
                window: p.window,
            });
        }
    }

    /// Runs every planned cell in one [`run_grid`] pass on
    /// `std::thread::available_parallelism()` workers.
    ///
    /// # Panics
    ///
    /// Panics with the grid's failure summary if any cell fails: the
    /// registry workloads under paper configurations are known good, so a
    /// failure here is a harness bug.
    #[must_use]
    pub fn run(self) -> Results {
        let jobs = std::thread::available_parallelism().map_or(1, usize::from);
        eprintln!("(running {} cells on {jobs} worker(s))", self.cells.len());
        let opts = GridOptions {
            jobs,
            ..GridOptions::default()
        };
        let report = run_grid(&self.cells, &opts);
        assert!(
            report.all_ok(),
            "bench cells failed:\n{}",
            report.failure_summary()
        );
        Results {
            cells: self.cells,
            runs: report.ok,
        }
    }
}

/// The outcome of a [`Plan`]: one result per planned cell.
#[derive(Debug)]
pub struct Results {
    cells: Vec<GridCell>,
    runs: Vec<RunResult>,
}

impl Results {
    /// The result of `workload` under `cfg` with parameters `p`.
    ///
    /// # Panics
    ///
    /// Panics if that cell was never planned (a harness bug).
    #[must_use]
    pub fn get(&self, workload: &str, cfg: &SimConfig, p: BenchParams) -> &RunResult {
        let i = self
            .cells
            .iter()
            .position(|c| same_cell(c, workload, cfg, p))
            .unwrap_or_else(|| panic!("cell {workload}/{} was not planned", cfg.arch.label()));
        &self.runs[i]
    }
}

/// Where CSV copies of the regenerated figures land: `elf-results/` in
/// `CARGO_TARGET_DIR`, or else in the workspace's `target/` (bench
/// binaries run from the package directory, so a relative `target` would
/// land under `crates/bench/`).
#[must_use]
pub fn results_dir() -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(
            || PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target")),
            PathBuf::from,
        )
        .join("elf-results");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Writes a CSV file into [`results_dir`]; ignores IO errors (the printed
/// table is the primary artifact).
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let path = results_dir().join(name);
    if let Ok(mut f) = fs::File::create(&path) {
        let _ = writeln!(f, "{header}");
        for r in rows {
            let _ = writeln!(f, "{r}");
        }
        eprintln!("(csv written to {})", path.display());
    }
}

/// Prints the standard experiment banner.
pub fn banner(title: &str, p: BenchParams) {
    println!();
    println!("=== {title} ===");
    println!(
        "(warmup {} insts, window {} insts per run; override with \
         ELF_BENCH_WARMUP / ELF_BENCH_WINDOW)",
        p.warmup, p.window
    );
    println!();
}

/// Renders a horizontal ASCII bar chart of relative-IPC values centered at
/// 1.0 (the figures' visual form). `span` is the half-width in relative-IPC
/// units that maps to the full bar width.
#[must_use]
pub fn ascii_bars(rows: &[(String, f64)], span: f64) -> String {
    const WIDTH: i64 = 24;
    let mut out = String::new();
    for (label, v) in rows {
        let dev = ((v - 1.0) / span * WIDTH as f64).round() as i64;
        let dev = dev.clamp(-WIDTH, WIDTH);
        let mut bar = vec![' '; (2 * WIDTH + 1) as usize];
        bar[WIDTH as usize] = '|';
        if dev >= 0 {
            for i in 0..dev {
                bar[(WIDTH + 1 + i) as usize] = '#';
            }
        } else {
            for i in 0..(-dev) {
                bar[(WIDTH - 1 - i) as usize] = '#';
            }
        }
        out.push_str(&format!(
            "{label:>18} {} {v:.3}\n",
            bar.into_iter().collect::<String>()
        ));
    }
    out
}

/// Formats a ratio as the figures do (e.g. `1.037`).
#[must_use]
pub fn r3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats an MPKI value.
#[must_use]
pub fn r1(x: f64) -> String {
    format!("{x:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use elf_frontend::FetchArch;

    #[test]
    fn plan_runs_each_distinct_cell_once_and_returns_its_result() {
        let p = BenchParams {
            warmup: 500,
            window: 1_000,
        };
        let longer = BenchParams { window: 3_000, ..p };
        let dcf = SimConfig::baseline(FetchArch::Dcf);
        let mut nodcf = dcf.clone();
        nodcf.arch = FetchArch::NoDcf;
        let mut small_faq = dcf.clone();
        small_faq.frontend.faq_entries = 8;

        let mut plan = Plan::default();
        plan.add("619.lbm", dcf.clone(), p);
        plan.add("619.lbm", dcf.clone(), p);
        assert_eq!(plan.cells.len(), 1, "an identical request adds no cell");
        plan.add("619.lbm", nodcf.clone(), p);
        plan.add("619.lbm", small_faq.clone(), p);
        plan.add("619.lbm", dcf.clone(), longer);
        plan.add("641.leela", dcf.clone(), p);
        assert_eq!(
            plan.cells.len(),
            5,
            "one differing field or window is a new cell"
        );

        let r = plan.run();
        let base = r.get("619.lbm", &dcf, p);
        assert_eq!(
            (base.workload.as_str(), base.arch.as_str()),
            ("619.lbm", "DCF")
        );
        assert!(base.stats.retired < 3_000);
        assert_eq!(r.get("619.lbm", &nodcf, p).arch, "NoDCF");
        // An 8-entry FAQ can never average more than 8 entries; the
        // baseline 32-entry one does on this workload.
        assert!(r.get("619.lbm", &small_faq, p).stats.faq_occupancy <= 8.0);
        assert!(base.stats.faq_occupancy > 8.0);
        assert!(r.get("619.lbm", &dcf, longer).stats.retired >= 3_000);
        assert_eq!(r.get("641.leela", &dcf, p).workload, "641.leela");
    }

    #[test]
    fn params_defaults_apply() {
        let p = params(1000, 2000);
        assert!(p.warmup >= 1 && p.window >= 1);
    }

    #[test]
    fn ascii_bars_center_and_direction() {
        let rows = vec![
            ("up".to_owned(), 1.05),
            ("down".to_owned(), 0.95),
            ("flat".to_owned(), 1.0),
        ];
        let chart = ascii_bars(&rows, 0.10);
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 3);
        let bar = |l: &str| l.rsplit_once(' ').map(|x| x.0).unwrap_or("").to_owned();
        let up = bar(lines[0]);
        let down = bar(lines[1]);
        // The '#' run sits right of the axis for >1 and left for <1.
        assert!(up.find('#').unwrap() > up.find('|').unwrap());
        assert!(down.find('#').unwrap() < down.find('|').unwrap());
        assert!(!bar(lines[2]).contains('#'));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(r3(1.03666), "1.037");
        assert_eq!(r1(12.34), "12.3");
    }
}
