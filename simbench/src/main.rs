//! `simbench`: the simulator's layered benchmark.
//!
//! ```text
//! simbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! simbench --record <file>
//! ```
//!
//! Runs whole passes over the workload's cells back to back for about `S`
//! seconds: another pass starts only while one as long as the last still
//! fits, and at least one pass runs. Every cell's `SimStats` is checked
//! (see `simbench::digest`).
//!
//! - `--trace 0` times the public entry points and reports the end-to-end
//!   metrics as medians over the passes.
//! - `--trace 1` alternates untraced passes with passes on the traced
//!   simulator, and reports host time per layer, the simulated statistics that
//!   explain it, and the tracing overhead.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--record` runs one
//! pass of every workload at the default seed and writes the recorded
//! values the output check compares against.

use elf_core::experiment::{run_grid_with, CellError, GridCell, GridOptions, RunResult};
use elf_core::SimStats;
use simbench::digest::{self, OutputCheck, RECORDED};
use simbench::stats::{median, quantile, relative_iqr};
use simbench::traced::{run_cell_traced, timer_read_ns, LayerTimes, TracedCell};
use simbench::workload::{run_cell, Cell, CellTimes, Workload, DEFAULT_SEED};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: simbench --workload <kernel-leela|kernel-server1|kernel-mcf|repro-grid> \
                     [--seed N] [--seconds S] [--trace 0|1]\n       simbench --record <file>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

enum Command {
    Bench(Args),
    Record(String),
}

fn parse_args(argv: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--record" => return Ok(Command::Record(value()?.clone())),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Command::Bench(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse_args(&argv) {
        Ok(Command::Bench(args)) => bench(&args),
        Ok(Command::Record(path)) => record(&path),
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("simbench: {e}");
        std::process::exit(1);
    }
}

/// Worker threads for a workload: one per available core for the grid,
/// one for the kernel workloads (cells back to back).
fn jobs_for(w: Workload) -> usize {
    if w.is_grid() {
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    } else {
        1
    }
}

/// Runs `cells` through `run_grid_with` on `jobs` workers, so a panicking
/// cell is isolated and reported instead of ending the benchmark. Returns
/// each cell's outcome in order, and the host seconds of the whole call.
fn run_cells<T: Send>(
    cells: &[Cell],
    jobs: usize,
    run: impl Fn(&Cell) -> Result<T, String> + Sync,
    stats_of: impl Fn(&T) -> &SimStats + Sync,
) -> (Vec<Result<T, String>>, f64) {
    let grid: Vec<GridCell> = cells
        .iter()
        .map(|c| GridCell {
            workload: c.program.to_owned(),
            cfg: c.config(),
            warmup: c.warmup,
            window: c.window,
        })
        .collect();
    let slots: Vec<Mutex<Option<T>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    let opts = GridOptions {
        jobs,
        ..GridOptions::default()
    };
    let start = Instant::now();
    let report = run_grid_with(&grid, &opts, |i, g| {
        let out = run(&cells[i]).map_err(|error| CellError {
            error,
            retryable: false,
            report: None,
            events: Vec::new(),
            checkpoint: None,
        })?;
        let result = RunResult {
            workload: g.workload.clone(),
            arch: g.cfg.arch.label().to_owned(),
            stats: stats_of(&out).clone(),
            metrics: None,
        };
        *slots[i]
            .lock()
            .expect("slot lock: cells never panic while holding it") = Some(out);
        Ok(result)
    });
    let wall = start.elapsed().as_secs_f64();
    let outcomes = slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .expect("slot lock: cells never panic while holding it")
                .ok_or_else(|| {
                    report
                        .failed
                        .iter()
                        .find(|f| f.cell == i)
                        .map_or_else(|| "cell produced no result".to_owned(), |f| f.error.clone())
                })
        })
        .collect();
    (outcomes, wall)
}

/// One untraced pass, reduced to what the report needs.
struct Pass {
    wall_s: f64,
    setup_s: f64,
    window_s: f64,
    retired: u64,
    cell_wall_s: Vec<f64>,
    /// Each distinct cell's digest, in run order.
    digests: Vec<(String, u64)>,
}

impl Pass {
    fn kernel_mips(&self) -> f64 {
        if self.window_s > 0.0 {
            self.retired as f64 / self.window_s / 1e6
        } else {
            0.0
        }
    }

    /// Share of `jobs` workers' time spent inside cells.
    fn worker_busy_share(&self, jobs: usize) -> f64 {
        self.cell_wall_s.iter().sum::<f64>() / (jobs as f64 * self.wall_s).max(1e-12)
    }
}

fn untraced_pass(w: Workload, cells: &[Cell], seed: u64, check: &mut OutputCheck) -> Pass {
    let (outcomes, wall_s) = run_cells(cells, jobs_for(w), |c| run_cell(c, seed), |o| &o.0);
    let mut pass = Pass {
        wall_s,
        setup_s: 0.0,
        window_s: 0.0,
        retired: 0,
        cell_wall_s: Vec::with_capacity(cells.len()),
        digests: Vec::new(),
    };
    for (cell, outcome) in cells.iter().zip(&outcomes) {
        let key = cell.key();
        let d = check.check(
            &key,
            "Simulator::run",
            outcome.as_ref().map(|o| &o.0).map_err(String::as_str),
        );
        if let Some(d) = d {
            if !pass.digests.iter().any(|(k, _)| *k == key) {
                pass.digests.push((key, d));
            }
        }
        if let Ok((stats, times)) = outcome {
            let CellTimes {
                setup_s,
                window_s,
                wall_s,
            } = *times;
            pass.setup_s += setup_s;
            pass.window_s += window_s;
            pass.retired += stats.retired;
            pass.cell_wall_s.push(wall_s);
        }
    }
    pass
}

/// One traced pass: the layer split summed over cells, the pass wall
/// time, and the cells' outcomes for the simulated per-layer metrics.
struct TracedPass {
    wall_s: f64,
    times: LayerTimes,
    cells: Vec<TracedCell>,
}

fn traced_pass(w: Workload, cells: &[Cell], seed: u64, check: &mut OutputCheck) -> TracedPass {
    let (outcomes, wall_s) = run_cells(
        cells,
        jobs_for(w),
        |c| {
            let t = run_cell_traced(c, seed)?;
            let spans = t.times.kernel() + t.times.synth;
            if spans > t.wall {
                return Err(format!(
                    "layer spans {spans:?} exceed the traced wall time {:?}",
                    t.wall
                ));
            }
            Ok(t)
        },
        |t| &t.stats,
    );
    let mut pass = TracedPass {
        wall_s,
        times: LayerTimes::default(),
        cells: Vec::with_capacity(cells.len()),
    };
    for (cell, outcome) in cells.iter().zip(outcomes) {
        check.check(
            &cell.key(),
            "traced simulator",
            outcome.as_ref().map(|t| &t.stats).map_err(String::as_str),
        );
        if let Ok(t) = outcome {
            pass.times.add(&t.times);
            pass.cells.push(t);
        }
    }
    pass
}

/// A metric for the report: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn bench(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let cells = w.cells();
    let mut check = OutputCheck::new(args.seed, RECORDED)?;
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let jobs = jobs_for(w);

    let mut passes: Vec<Pass> = Vec::new();
    let mut traced = Vec::new();
    loop {
        let pass_start = Instant::now();
        passes.push(untraced_pass(w, &cells, args.seed, &mut check));
        if args.trace {
            traced.push(traced_pass(w, &cells, args.seed, &mut check));
        }
        // Stop when one more pass as long as this one would overrun.
        if start.elapsed() + pass_start.elapsed() > budget {
            break;
        }
    }

    let mut per_cell = Vec::new();
    for (key, d) in &passes[0].digests {
        println!("digest {key} {d:016x}");
        per_cell.push((key.clone(), format!("{d:016x}")));
    }
    println!(
        "digest {} seed {}: {:016x} over {} distinct cells",
        w.name(),
        args.seed,
        digest::digest(&per_cell),
        per_cell.len()
    );
    println!(
        "{} seed {}: {} pass(es) of {} cells in {:.1} s, {jobs} worker(s){}",
        w.name(),
        args.seed,
        passes.len(),
        cells.len(),
        start.elapsed().as_secs_f64(),
        if args.trace {
            ", each followed by a traced pass"
        } else {
            ""
        }
    );

    let metrics = if args.trace {
        per_layer_metrics(&cells, &passes, &traced, jobs)
    } else {
        end_to_end_metrics(&passes)?
    };
    for (name, value, unit) in &metrics {
        println!("{name:<28} {value:>14.6} {unit}");
    }
    println!(
        "error_rate {} ({} of {} cells failed)",
        check.failed as f64 / check.attempted.max(1) as f64,
        check.failed,
        check.attempted
    );
    for e in check.errors.iter().take(20) {
        println!("FAILED {e}");
    }
    println!("{}", result_json(&check, &metrics));
    Ok(())
}

fn end_to_end_metrics(passes: &[Pass]) -> Result<Vec<Metric>, String> {
    let series = |f: fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let mut out = Vec::new();
    for (name, xs, unit) in [
        ("kernel_mips", series(Pass::kernel_mips), "MIPS"),
        ("wall_s", series(|p| p.wall_s), "s"),
        ("setup_s", series(|p| p.setup_s), "s"),
    ] {
        println!(
            "{name}: median {:.6} {unit}, min {:.6}, q1 {:.6}, q3 {:.6}, max {:.6}, \
             IQR/median {:.4}, n = {}",
            median(&xs),
            quantile(&xs, 0.0),
            quantile(&xs, 0.25),
            quantile(&xs, 0.75),
            quantile(&xs, 1.0),
            relative_iqr(&xs),
            xs.len()
        );
        out.push((name, median(&xs), unit));
    }
    out.push(("peak_rss_mb", peak_rss_mb()?, "MB"));
    Ok(out)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn per_layer_metrics(
    cells: &[Cell],
    passes: &[Pass],
    traced: &[TracedPass],
    jobs: usize,
) -> Vec<Metric> {
    let med = |f: &dyn Fn(&TracedPass) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let secs = |f: fn(&LayerTimes) -> Duration| med(&|p| f(&p.times).as_secs_f64());
    let untraced_wall = median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let traced_wall = med(&|p| p.wall_s);
    let ns_per_busy_cycle =
        med(&|p| p.times.kernel().as_secs_f64() * 1e9 / p.times.busy_cycles.max(1) as f64);

    // Simulated statistics repeat exactly across passes; take the last.
    let last: &[TracedCell] = traced.last().map_or(&[], |p| &p.cells);
    let sum = |f: fn(&SimStats) -> u64| last.iter().map(|t| f(&t.stats)).sum::<u64>();
    let retired = sum(|s| s.retired);
    let per_ki = |n: u64| ratio(n * 1000, retired);
    let lookups = sum(|s| s.btb.lookups);
    let l0 = sum(|s| s.btb.l0_hits);
    let l1 = l0 + sum(|s| s.btb.l1_hits);
    let l2 = l1 + sum(|s| s.btb.l2_hits);
    let rob_samples: u64 = last.iter().map(|t| t.rob_occupancy.count()).sum();
    let rob_sum: f64 = last
        .iter()
        .map(|t| t.rob_occupancy.mean() * t.rob_occupancy.count() as f64)
        .sum();
    let (busy, skipped) = traced
        .last()
        .map_or((0, 0), |p| (p.times.busy_cycles, p.times.skipped_cycles));

    let cell_p = |q: f64| {
        median(
            &passes
                .iter()
                .map(|p| quantile(&p.cell_wall_s, q))
                .collect::<Vec<_>>(),
        )
    };
    let mut distinct = HashSet::new();
    let duplicates = cells.iter().filter(|c| !distinct.insert(c.key())).count();

    vec![
        ("backend.tick_s", secs(|t| t.backend_tick), "s"),
        ("backend.accept_s", secs(|t| t.backend_accept), "s"),
        (
            "backend.rob_mean",
            rob_sum / rob_samples.max(1) as f64,
            "entries",
        ),
        (
            "backend.useful_share",
            ratio(retired, sum(|s| s.backend.dispatched)),
            "share",
        ),
        ("frontend.tick_s", secs(|t| t.frontend_tick), "s"),
        ("frontend.flush_s", secs(|t| t.frontend_flush), "s"),
        ("frontend.retire_s", secs(|t| t.frontend_retire), "s"),
        (
            "frontend.useful_share",
            ratio(retired, sum(|s| s.frontend.delivered)),
            "share",
        ),
        ("trace.bind_s", secs(|t| t.bind), "s"),
        (
            "trace.oracle_entries",
            med(&|p| p.times.oracle_entries as f64),
            "count",
        ),
        ("trace.synth_s", secs(|t| t.synth), "s"),
        ("sim.self_s", secs(|t| t.sim_self), "s"),
        ("sim.idle_skip_s", secs(|t| t.idle_skip), "s"),
        ("sim.busy_cycles", busy as f64, "cycles"),
        ("sim.skipped_share", ratio(skipped, busy + skipped), "share"),
        ("sim.ns_per_busy_cycle", ns_per_busy_cycle, "ns"),
        (
            "sim.trace_overhead",
            traced_wall / untraced_wall.max(1e-12) - 1.0,
            "share",
        ),
        ("sim.timer_read_ns", timer_read_ns(), "ns"),
        ("experiment.cell_s.p50", cell_p(0.5), "s"),
        ("experiment.cell_s.p90", cell_p(0.9), "s"),
        ("experiment.cells", cells.len() as f64, "count"),
        (
            "experiment.worker_busy_share",
            median(
                &passes
                    .iter()
                    .map(|p| p.worker_busy_share(jobs))
                    .collect::<Vec<_>>(),
            ),
            "share",
        ),
        ("experiment.duplicate_cells", duplicates as f64, "count"),
        ("btb.hit_rate.l0", ratio(l0, lookups), "share"),
        ("btb.hit_rate.l1", ratio(l1, lookups), "share"),
        ("btb.hit_rate.l2", ratio(l2, lookups), "share"),
        (
            "predictors.cond_mpki",
            per_ki(sum(|s| s.cond_mispredicts)),
            "MPKI",
        ),
        (
            "predictors.indirect_mpki",
            per_ki(sum(|s| s.indirect_mispredicts)),
            "MPKI",
        ),
        ("mem.l1i_mpki", per_ki(sum(|s| s.caches[1].1)), "MPKI"),
        ("mem.l1d_mpki", per_ki(sum(|s| s.caches[2].1)), "MPKI"),
        ("mem.l2_mpki", per_ki(sum(|s| s.caches[3].1)), "MPKI"),
        ("mem.l3_mpki", per_ki(sum(|s| s.caches[4].1)), "MPKI"),
    ]
}

fn result_json(check: &OutputCheck, metrics: &[Metric]) -> String {
    let mut m = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            m,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        check.failed == 0 && metrics.iter().all(|(_, v, _)| v.is_finite()),
        check.attempted,
        check.failed
    )
}

/// Writes the recorded values: one untraced pass of every workload at the
/// default seed, each distinct cell once.
fn record(path: &str) -> Result<(), String> {
    let mut text = format!(
        "# SimStats of every benchmark cell at seed {DEFAULT_SEED}: key, digest, then the\n\
         # leaf values in field order. Regenerate with `simbench --record <this file>`\n\
         # only when a change means to move simulated results.\n"
    );
    let mut seen = HashSet::new();
    for w in Workload::ALL {
        let cells = w.cells();
        let (outcomes, _) = run_cells(&cells, jobs_for(w), |c| run_cell(c, DEFAULT_SEED), |o| &o.0);
        for (cell, outcome) in cells.iter().zip(outcomes) {
            let (stats, _) = outcome.map_err(|e| format!("{}: {e}", cell.key()))?;
            if seen.insert(cell.key()) {
                text.push_str(&digest::render_recorded(
                    &cell.key(),
                    &digest::leaves(&stats),
                ));
                text.push('\n');
            }
        }
        eprintln!("recorded {}", w.name());
    }
    std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))
}
