//! `elfsim` — command-line driver for the ELF front-end simulator.
//!
//! ```text
//! elfsim --list
//! elfsim 641.leela                       # DCF baseline
//! elfsim 641.leela u-elf                 # arch: nodcf|dcf|l|ret|ind|cond|u
//! elfsim 641.leela u-elf --warmup 500000 --window 1000000
//! elfsim 641.leela --compare             # all architectures, supervised grid
//! elfsim 641.leela --compare --jobs 4 --seed 7   # 4 workers, reseeded program
//! elfsim 641.leela u-elf --inject flush=50,btb=20 --seed 7
//! elfsim 641.leela u-elf --checkpoint-every 100000 --checkpoint-file run.ckpt
//! elfsim --resume run.ckpt               # continue an interrupted run
//! elfsim 641.leela u-elf --metrics       # cycle-attribution table
//! elfsim 641.leela --compare --metrics-json m.json   # machine-readable
//! elfsim fuzz --seed 1 --cases 200       # differential fuzzing
//! elfsim fuzz --repro fuzz-repro.txt     # replay a shrunk failure
//! ```
//!
//! Exit codes: 0 success, 1 simulation error (wedge / malformed program /
//! unreadable checkpoint, with a diagnostic report on stderr), 2 usage
//! error, 3 `--compare` finished with at least one failed cell (results
//! for the healthy cells were still printed).

use elf_sim::core::check::ALL_ARCHS;
use elf_sim::core::experiment::{run_cell_on, run_grid_with};
use elf_sim::core::{
    metrics, CellError, FaultKind, FaultPlan, GridCell, GridOptions, RunResult, SimConfig,
    SimError, Simulator, Snapshot,
};
use elf_sim::frontend::{FetchArch, FetchCycleCause};
use elf_sim::trace::{synthesize, workloads};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

/// Usage mistakes (unknown flag, bad value, trailing junk).
const EXIT_USAGE: u8 = 2;
/// The simulation itself failed (wedge, malformed program).
const EXIT_SIM: u8 = 1;
/// `--compare` (a supervised grid) had at least one failed cell; results
/// for the healthy cells were still printed.
const EXIT_GRID: u8 = 3;

/// Parses `--inject` specs like `flush=50`, `btb=20,icache=10` or `all=40`
/// (rates are injections per 100k cycles).
fn parse_inject(spec: &str, seed: u64) -> Option<FaultPlan> {
    let mut plan = FaultPlan::new(seed);
    for part in spec.split(',') {
        let (kind, rate) = part.split_once('=')?;
        let rate: u32 = rate.parse().ok()?;
        if kind == "all" {
            for k in FaultKind::ALL {
                plan = plan.with(k, rate);
            }
        } else {
            plan = plan.with(kind.parse().ok()?, rate);
        }
    }
    Some(plan)
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: elfsim <workload> [arch] [--warmup N] [--window N] [--seed N]\n\
                       [--inject KIND=RATE[,KIND=RATE...]]\n\
                       [--checkpoint-every N] [--checkpoint-file F]\n\
                       [--metrics] [--metrics-json F]\n\
                elfsim <workload> --compare [--jobs N] [--retries N] [...]\n\
                elfsim --resume F [--window N] [--checkpoint-every N] [--checkpoint-file F]\n\
                elfsim fuzz [--seed N] [--cases N] [--budget N] [--sentinel flip-taken]\n\
                       [--repro-out F] | fuzz --repro F\n\
                elfsim --list\n\
         arch: nodcf | dcf | l-elf | ret-elf | ind-elf | cond-elf | u-elf\n\
         inject kinds: flush | btb | icache | mispredict | all \
         (RATE per 100k cycles)\n\
         --checkpoint-every N writes a resumable snapshot to --checkpoint-file\n\
         every N measured instructions; --resume F continues it to the\n\
         original --window target. --compare runs every architecture as a\n\
         supervised grid on --jobs N workers (default 1): a wedged cell cannot\n\
         sink the others, --retries N re-attempts it, and exit 3 flags partial\n\
         results. --seed N reseeds the synthesized program (and --inject), for\n\
         single runs and --compare alike. --metrics prints the cycle-attribution\n\
         table (every cycle charged to exactly one cause); --metrics-json F\n\
         writes the elfsim-metrics-v2 report to F. Both\n\
         also work with --compare and --resume (the snapshot must have been\n\
         taken with metrics enabled). elfsim fuzz runs seeded differential\n\
         fuzzing (commit streams vs. the functional oracle, invariant checks\n\
         on); a failure is shrunk and written to --repro-out as a replayable\n\
         repro file."
    );
    ExitCode::from(EXIT_USAGE)
}

/// Reports a failed simulation (wedge, malformed program, unreadable or
/// unwritable checkpoint) on stderr.
fn sim_failed(e: &SimError) -> ExitCode {
    eprintln!("{e}");
    ExitCode::from(EXIT_SIM)
}

/// Emits the requested metrics output: the human table (`--metrics`)
/// and/or the versioned JSON report (`--metrics-json F`) for the runs that
/// carry metrics.
fn emit_metrics(
    workload: &str,
    runs: &[RunResult],
    table: bool,
    json: Option<&Path>,
) -> Result<(), ExitCode> {
    if table {
        println!();
        print!("{}", metrics::render_table(runs));
    }
    if let Some(path) = json {
        let report = metrics::render_json(workload, runs);
        if let Err(e) = std::fs::write(path, &report) {
            eprintln!("cannot write {}: {e}", path.display());
            return Err(ExitCode::from(EXIT_SIM));
        }
        println!("metrics written to {}", path.display());
    }
    Ok(())
}

/// Runs the measured window to the absolute target `window` (instructions
/// retired since the stats reset), checkpointing to `file` every `every`
/// instructions (and once at completion when a file is given), then prints
/// the report and the metrics output of a metrics-enabled run. Chunking
/// never perturbs the simulation: milestones only change where `run`
/// pauses, not the tick sequence.
fn finish_window(
    sim: &mut Simulator,
    window: u64,
    every: u64,
    file: Option<&Path>,
    show_metrics: bool,
    metrics_json: Option<&Path>,
) -> ExitCode {
    let step = if every == 0 { u64::MAX } else { every };
    let stats = loop {
        let milestone = sim.retired().saturating_add(step).min(window);
        let chunk = sim
            .run(milestone.saturating_sub(sim.retired()))
            .and_then(|stats| match file {
                Some(path) => sim.checkpoint().write_to(path).map(|()| stats),
                None => Ok(stats),
            });
        match chunk {
            Ok(stats) if sim.retired() >= window => break stats,
            Ok(_) => {}
            Err(e) => return sim_failed(&e),
        }
    };
    print!("{}", stats.report());
    let Some(m) = sim.metrics() else {
        return ExitCode::SUCCESS;
    };
    let run = RunResult {
        workload: sim.program().name().to_owned(),
        arch: sim.config().arch.label().to_owned(),
        stats,
        metrics: Some(m.clone()),
    };
    match emit_metrics(
        &run.workload,
        std::slice::from_ref(&run),
        show_metrics,
        metrics_json,
    ) {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}

/// `elfsim --resume F`: read a snapshot, rebuild the simulator and finish
/// the interrupted window ( `--window` is the same absolute target as the
/// original run; instructions already retired are not re-run).
fn resume(
    path: &Path,
    window: u64,
    every: u64,
    file: Option<&Path>,
    show_metrics: bool,
    metrics_json: Option<&Path>,
) -> ExitCode {
    let mut sim = match Snapshot::read_from(path).and_then(|snap| Simulator::restore(&snap)) {
        Ok(s) => s,
        Err(e) => return sim_failed(&e),
    };
    println!(
        "resumed {} under {} at cycle {} ({} retired in window; target {window})",
        sim.program().name(),
        sim.config().arch.label(),
        sim.cycle(),
        sim.retired(),
    );
    println!();
    if (show_metrics || metrics_json.is_some()) && sim.metrics().is_none() {
        eprintln!(
            "snapshot {} was taken without metrics; re-run the original \
             command with --metrics to collect them",
            path.display()
        );
        return ExitCode::from(EXIT_SIM);
    }
    // Keep checkpointing to the resume file unless redirected.
    let file = Some(file.unwrap_or(path));
    finish_window(&mut sim, window, every, file, show_metrics, metrics_json)
}

/// `elfsim fuzz`: seeded differential fuzzing (see `elf_core::fuzz`).
/// Without `--repro`, generates and runs cases; a failure is shrunk to a
/// minimal case and written to `--repro-out` (default `fuzz-repro.txt`).
/// With `--repro F`, replays a previously written repro file instead.
fn fuzz_cmd(args: &[String]) -> ExitCode {
    use elf_sim::core::fuzz::{run_case, run_fuzz, FuzzCase, FuzzOptions, Sentinel};

    let mut opts = FuzzOptions {
        seed: 1,
        cases: 200,
        budget: 0,
        sentinel: None,
    };
    let mut repro: Option<PathBuf> = None;
    let mut repro_out = PathBuf::from("fuzz-repro.txt");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" | "--cases" | "--budget" => {
                let flag = args[i].as_str();
                let Some(v) = args.get(i + 1).and_then(|v| v.parse::<u64>().ok()) else {
                    return usage(&format!("{flag} needs an unsigned integer value"));
                };
                match flag {
                    "--seed" => opts.seed = v,
                    "--cases" => opts.cases = v,
                    _ => opts.budget = v,
                }
                i += 2;
            }
            "--sentinel" => {
                let Some(v) = args.get(i + 1) else {
                    return usage("--sentinel needs a kind (flip-taken)");
                };
                let Some(s) = Sentinel::from_key(v) else {
                    return usage(&format!("unknown sentinel {v:?} (expected flip-taken)"));
                };
                opts.sentinel = Some(s);
                i += 2;
            }
            "--repro" | "--repro-out" => {
                let flag = args[i].as_str();
                let Some(v) = args.get(i + 1) else {
                    return usage(&format!("{flag} needs a file path"));
                };
                let path = PathBuf::from(v);
                if flag == "--repro" {
                    repro = Some(path);
                } else {
                    repro_out = path;
                }
                i += 2;
            }
            other => return usage(&format!("unknown fuzz argument {other:?}")),
        }
    }

    if let Some(path) = repro {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {}: {e}", path.display());
                return ExitCode::from(EXIT_SIM);
            }
        };
        let case = match FuzzCase::from_repro(&text) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{}: {e}", path.display());
                return ExitCode::from(EXIT_SIM);
            }
        };
        return match run_case(&case) {
            None => {
                println!("repro {} passes (the bug is fixed)", path.display());
                ExitCode::SUCCESS
            }
            Some(what) => {
                eprintln!("repro {} still fails:\n{what}", path.display());
                ExitCode::from(EXIT_SIM)
            }
        };
    }

    println!(
        "fuzzing: seed {} — up to {} cases{}{}",
        opts.seed,
        opts.cases,
        if opts.budget > 0 {
            format!(", budget {} instructions", opts.budget)
        } else {
            String::new()
        },
        if opts.sentinel.is_some() {
            " [sentinel active]"
        } else {
            ""
        }
    );
    let outcome = run_fuzz(&opts);
    match outcome.failure {
        None => {
            println!(
                "ok: {} cases, {} instructions, no failures",
                outcome.cases_run, outcome.insts_run
            );
            ExitCode::SUCCESS
        }
        Some(f) => {
            eprintln!("case {} FAILED:\n  {}", f.case_index, f.what);
            eprintln!("shrunk failure:\n  {}", f.shrunk_what);
            let text = f.shrunk.to_repro();
            match std::fs::write(&repro_out, &text) {
                Ok(()) => eprintln!(
                    "minimal repro written to {} (replay: elfsim fuzz --repro {})",
                    repro_out.display(),
                    repro_out.display()
                ),
                Err(e) => eprintln!("cannot write repro {}: {e}", repro_out.display()),
            }
            ExitCode::from(EXIT_SIM)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("fuzz") {
        return fuzz_cmd(&args[1..]);
    }
    if args.iter().any(|a| a == "--list") {
        if args.len() > 1 {
            return usage("--list takes no other arguments");
        }
        for w in workloads::all() {
            println!("{:<20} {:?}", w.name, w.suite);
        }
        return ExitCode::SUCCESS;
    }

    let mut positionals: Vec<&str> = Vec::new();
    let mut warmup = 200_000u64;
    let mut window = 300_000u64;
    let mut seed: Option<u64> = None;
    let mut inject: Option<String> = None;
    let mut compare = false;
    let mut checkpoint_every = 0u64;
    let mut checkpoint_file: Option<PathBuf> = None;
    let mut resume_from: Option<PathBuf> = None;
    let mut show_metrics = false;
    let mut metrics_json: Option<PathBuf> = None;
    let mut jobs = 1usize;
    let mut retries = 0u32;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--warmup" | "--window" | "--seed" | "--checkpoint-every" | "--jobs" | "--retries" => {
                let flag = args[i].as_str();
                let Some(v) = args.get(i + 1).and_then(|v| v.parse::<u64>().ok()) else {
                    return usage(&format!("{flag} needs an unsigned integer value"));
                };
                match flag {
                    "--warmup" => warmup = v,
                    "--window" => window = v,
                    "--checkpoint-every" => checkpoint_every = v,
                    "--jobs" => jobs = v.max(1) as usize,
                    "--retries" => retries = v.min(u64::from(u32::MAX)) as u32,
                    _ => seed = Some(v),
                }
                i += 2;
            }
            "--inject" => {
                let Some(v) = args.get(i + 1) else {
                    return usage("--inject needs a KIND=RATE spec");
                };
                inject = Some(v.clone());
                i += 2;
            }
            "--checkpoint-file" | "--resume" | "--metrics-json" => {
                let flag = args[i].as_str();
                let Some(v) = args.get(i + 1) else {
                    return usage(&format!("{flag} needs a file path"));
                };
                let path = PathBuf::from(v);
                match flag {
                    "--resume" => resume_from = Some(path),
                    "--metrics-json" => metrics_json = Some(path),
                    _ => checkpoint_file = Some(path),
                }
                i += 2;
            }
            "--compare" => {
                compare = true;
                i += 1;
            }
            "--metrics" => {
                show_metrics = true;
                i += 1;
            }
            flag if flag.starts_with('-') => {
                return usage(&format!("unknown flag {flag:?}"));
            }
            positional => {
                positionals.push(positional);
                i += 1;
            }
        }
    }

    let want_metrics = show_metrics || metrics_json.is_some();

    if let Some(path) = &resume_from {
        if !positionals.is_empty() || compare || inject.is_some() || seed.is_some() {
            return usage(
                "--resume continues a snapshot: the workload, seed and fault plan \
                 are baked in; only --window / --checkpoint-every / --checkpoint-file apply",
            );
        }
        return resume(
            path,
            window,
            checkpoint_every,
            checkpoint_file.as_deref(),
            show_metrics,
            metrics_json.as_deref(),
        );
    }
    if checkpoint_every > 0 && checkpoint_file.is_none() {
        return usage("--checkpoint-every needs --checkpoint-file");
    }
    if (checkpoint_every > 0 || checkpoint_file.is_some()) && compare {
        return usage("checkpointing applies to single runs, not --compare");
    }

    let (name, arch) = match positionals.as_slice() {
        [] => return usage("missing workload name (try --list)"),
        [name] => (*name, FetchArch::Dcf),
        [name, arch] => match arch.parse::<FetchArch>() {
            Ok(a) => (*name, a),
            Err(e) => return usage(&e),
        },
        [_, _, junk, ..] => {
            return usage(&format!("unexpected trailing argument {junk:?}"));
        }
    };
    let Some(workload) = workloads::by_name(name) else {
        return usage(&format!("unknown workload {name:?} (try --list)"));
    };

    let mut spec = workload.spec.clone();
    if let Some(s) = seed {
        spec.seed = s;
    }
    let fault = match &inject {
        Some(raw) => match parse_inject(raw, seed.unwrap_or(spec.seed)) {
            Some(plan) => Some(plan),
            None => return usage(&format!("bad --inject spec {raw:?}")),
        },
        None => None,
    };

    // Synthesize once; every run below (each --compare cell included)
    // builds from this program, so --seed applies everywhere.
    let prog = Arc::new(synthesize(&spec));
    let config = |arch: FetchArch| {
        let mut cfg = SimConfig::baseline(arch);
        cfg.fault = fault;
        cfg.metrics = want_metrics;
        cfg
    };
    let injected = inject
        .as_ref()
        .map_or_else(String::new, |s| format!(", injecting {s}"));

    if compare {
        // Supervised grid: cells run behind catch_unwind; a wedged or
        // panicking cell is reported and the rest of the results still
        // come back (exit code 3 flags the partial set).
        println!(
            "{} — supervised grid, {jobs} worker(s), {retries} retr(ies) \
             ({warmup} warmup, {window} window{injected}):",
            workload.name
        );
        let cells: Vec<GridCell> = ALL_ARCHS
            .into_iter()
            .map(|a| GridCell {
                workload: workload.name.to_owned(),
                cfg: config(a),
                warmup,
                window,
            })
            .collect();
        let opts = GridOptions {
            jobs,
            retries,
            ..GridOptions::default()
        };
        let report = run_grid_with(&cells, &opts, |i, cell| {
            let sim = Simulator::try_from_program(cell.cfg.clone(), Arc::clone(&prog), spec.seed)
                .map_err(|e| CellError::plain(e.to_string()))?;
            run_cell_on(i, cell, &opts, sim)
        });
        let base = report
            .ok
            .iter()
            .find(|r| r.arch == FetchArch::Dcf.label())
            .map(RunResult::ipc);
        for r in &report.ok {
            let rel = base.map_or_else(String::new, |b| {
                format!(" ({:+.2}% vs DCF)", (r.ipc() / b - 1.0) * 100.0)
            });
            println!("  {:>9}: IPC {:.3}{rel}", r.arch, r.ipc());
        }
        if want_metrics {
            if let Some(agg) = report.merged_metrics() {
                println!(
                    "  grid aggregate: {} cycles attributed across {} cell(s), \
                     {:.1}% useful fetch",
                    agg.total_fetch_cycles(),
                    report.ok.len(),
                    agg.fetch_cycles[FetchCycleCause::UsefulFetch.index()] as f64 * 100.0
                        / agg.total_fetch_cycles().max(1) as f64,
                );
            }
            if let Err(code) = emit_metrics(
                workload.name,
                &report.ok,
                show_metrics,
                metrics_json.as_deref(),
            ) {
                return code;
            }
        }
        if report.all_ok() {
            return ExitCode::SUCCESS;
        }
        eprint!("{}", report.failure_summary());
        return ExitCode::from(EXIT_GRID);
    }

    println!(
        "{} under {} ({warmup} warmup, {window} window{injected})",
        workload.name,
        arch.label()
    );
    println!();
    let built = Simulator::try_from_program(config(arch), Arc::clone(&prog), spec.seed);
    let mut sim = match built.and_then(|mut sim| sim.warm_up(warmup).map(|_| sim)) {
        Ok(sim) => sim,
        Err(e) => return sim_failed(&e),
    };
    finish_window(
        &mut sim,
        window,
        checkpoint_every,
        checkpoint_file.as_deref(),
        show_metrics,
        metrics_json.as_deref(),
    )
}
