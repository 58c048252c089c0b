//! The traced simulator: a benchmark-side copy of `Simulator::run`/`tick` for
//! the clean configuration (no faults, metrics or checker; idle-skip as
//! configured) that times each layer's public calls.
//!
//! Layers are the workspace's modules:
//! - `frontend`: `Frontend::tick_into`, `flush`, `retire` (which call into
//!   `elf-btb`, `elf-predictors` and the instruction side of `elf-mem`);
//! - `backend`: `Backend::accept`, `tick_into` (with `memdep` and the data
//!   side of `elf-mem`);
//! - `trace`: program synthesis and path tracking against the `Oracle`
//!   (`entry`, `release_before` and the binding of delivered instructions);
//! - `sim`: the glue in between, and idle-cycle skipping
//!   (`quiescent_until`/`charge_idle_cycles` on both engines).
//!
//! Time is charged with a lap timer: each boundary between two layers
//! reads the clock once and charges the elapsed lap to the layer that just
//! ran, so the spans partition the kernel's host time exactly. Independent
//! per-instruction calls are batched by layer (bind every delivered
//! instruction, then accept them all; release every retired instruction
//! from the oracle, then train the front-end with them all). Neither
//! reordering changes simulated behaviour: binding never reads the
//! back-end and `accept` only queues, and `Oracle::release_before` and
//! `Frontend::retire` touch disjoint state. The benchmark's test and every
//! traced run check that the resulting `SimStats` equal `Simulator::run`'s.

use elf_core::backend::{Backend, BoundInst, RetiredInst};
use elf_core::histogram::Histogram;
use elf_core::{FlightRecorder, PipelineEvent, SimConfig, SimStats};
use elf_frontend::{FlushCtx, Frontend, RetireInfo, TickOutput};
use elf_mem::MemorySystem;
use elf_trace::program::DATA_BASE;
use elf_trace::{synthesize, DynInst, Oracle, Program};
use elf_types::{Cycle, InstClass, PredSource, Prediction, SeqNum};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::workload::{spec_for, Cell};

/// Host time per layer, plus the counts the per-layer ratios need.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// `Frontend::tick_into`.
    pub frontend_tick: Duration,
    /// `Frontend::flush` (back-end flushes and watchdog resyncs).
    pub frontend_flush: Duration,
    /// `Frontend::retire`: BTB establishment and predictor training.
    pub frontend_retire: Duration,
    /// `Backend::tick_into`: dispatch, execution and commit.
    pub backend_tick: Duration,
    /// `Backend::accept`.
    pub backend_accept: Duration,
    /// Path tracking: `Oracle::entry` and binding each delivered
    /// instruction, `Oracle::release_before` at retirement.
    pub bind: Duration,
    /// Idle-cycle skipping: the quiescence queries and bulk charging.
    pub idle_skip: Duration,
    /// Everything else inside `run`: the simulator glue.
    pub sim_self: Duration,
    /// Program synthesis (setup, outside `run`).
    pub synth: Duration,
    /// `Oracle::entry` calls.
    pub oracle_entries: u64,
    /// Cycles simulated one tick at a time.
    pub busy_cycles: u64,
    /// Cycles advanced in bulk by idle skipping.
    pub skipped_cycles: u64,
}

impl LayerTimes {
    /// Adds `o` into `self`.
    pub fn add(&mut self, o: &LayerTimes) {
        self.frontend_tick += o.frontend_tick;
        self.frontend_flush += o.frontend_flush;
        self.frontend_retire += o.frontend_retire;
        self.backend_tick += o.backend_tick;
        self.backend_accept += o.backend_accept;
        self.bind += o.bind;
        self.idle_skip += o.idle_skip;
        self.sim_self += o.sim_self;
        self.synth += o.synth;
        self.oracle_entries += o.oracle_entries;
        self.busy_cycles += o.busy_cycles;
        self.skipped_cycles += o.skipped_cycles;
    }

    /// Host time inside `run`/`warm_up` calls (every span but synthesis).
    #[must_use]
    pub fn kernel(&self) -> Duration {
        self.frontend_tick
            + self.frontend_flush
            + self.frontend_retire
            + self.backend_tick
            + self.backend_accept
            + self.bind
            + self.idle_skip
            + self.sim_self
    }
}

/// Lap timer: `charge` adds the time since the previous lap to a span.
struct Lap(Instant);

impl Lap {
    fn start() -> Self {
        Lap(Instant::now())
    }

    #[inline]
    fn charge(&mut self, span: &mut Duration) {
        let now = Instant::now();
        *span += now - self.0;
        self.0 = now;
    }
}

/// The clean-configuration simulator, instrumented per layer. Field for
/// field the state of `elf_core::Simulator` that the clean configuration
/// uses.
pub struct TracedSim {
    prog: Arc<Program>,
    oracle: Oracle,
    fe: Frontend,
    be: Backend,
    mem: MemorySystem,
    recorder: FlightRecorder,
    idle_skip: bool,
    cap_base: u64,
    cap_per_inst: u64,
    cycle: Cycle,
    cursor: SeqNum,
    wrong_path: bool,
    last_progress: Cycle,
    prev_coupled: bool,
    prev_faq_empty: bool,
    retired: u64,
    cond_branches: u64,
    cond_mispredicts: u64,
    branches: u64,
    taken_branches: u64,
    returns: u64,
    indirect_mispredicts: u64,
    stat_cycle_base: Cycle,
    rob_occupancy: Histogram,
    /// Not reported; kept so the glue does the work `Simulator::tick` does.
    delivery_rate: Histogram,
    tick_out: TickOutput,
    bound: Vec<BoundInst>,
    retired_scratch: Vec<RetiredInst>,
    /// Host time per layer since construction.
    pub times: LayerTimes,
}

impl TracedSim {
    /// Builds the traced simulator, validating configuration and program
    /// as `Simulator::try_from_program` does.
    ///
    /// # Errors
    ///
    /// Returns a message for a configuration it does not mirror
    /// (faults, metrics or the checker), an invalid configuration or a
    /// malformed program.
    pub fn new(cfg: &SimConfig, prog: Arc<Program>, seed: u64) -> Result<Self, String> {
        if cfg.fault.is_some() || cfg.metrics || cfg.check {
            return Err("the traced simulator mirrors the clean configuration only".to_owned());
        }
        cfg.validate().map_err(|e| e.to_string())?;
        let problems = elf_trace::validate::validate(&prog);
        if !problems.is_empty() {
            return Err(format!(
                "malformed program {}: {} problem(s)",
                prog.name(),
                problems.len()
            ));
        }
        let fe = Frontend::new(cfg.frontend.clone(), cfg.arch, prog.entry());
        Ok(TracedSim {
            oracle: Oracle::new(Arc::clone(&prog), seed),
            prev_coupled: fe.in_coupled_mode(),
            fe,
            be: Backend::new(cfg.backend.clone()),
            mem: MemorySystem::new(cfg.mem.clone()),
            recorder: FlightRecorder::new(cfg.recorder_events),
            idle_skip: cfg.idle_skip,
            cap_base: cfg.progress_cap_base,
            cap_per_inst: cfg.progress_cap_per_inst,
            prog,
            cycle: 0,
            cursor: 0,
            wrong_path: false,
            last_progress: 0,
            prev_faq_empty: true,
            retired: 0,
            cond_branches: 0,
            cond_mispredicts: 0,
            branches: 0,
            taken_branches: 0,
            returns: 0,
            indirect_mispredicts: 0,
            stat_cycle_base: 0,
            rob_occupancy: Histogram::new(cfg.backend.rob_entries),
            delivery_rate: Histogram::new(cfg.frontend.fetch_width * 2),
            tick_out: TickOutput::default(),
            bound: Vec::new(),
            retired_scratch: Vec::new(),
            times: LayerTimes::default(),
        })
    }

    /// Mirrors `Simulator::warm_up`.
    ///
    /// # Errors
    ///
    /// See [`TracedSim::run`].
    pub fn warm_up(&mut self, n: u64) -> Result<(), String> {
        self.run(n)?;
        self.reset_stats();
        Ok(())
    }

    /// Mirrors `Simulator::run`: ticks until `n` more instructions retire.
    ///
    /// # Errors
    ///
    /// Returns a message if the forward-progress cap is exhausted.
    pub fn run(&mut self, n: u64) -> Result<SimStats, String> {
        let mut lap = Lap::start();
        let target = self.retired + n;
        let cap = self
            .cycle
            .saturating_add(self.cap_base)
            .saturating_add(n.saturating_mul(self.cap_per_inst));
        while self.retired < target {
            if self.cycle >= cap {
                return Err(format!(
                    "wedged: cycle {} reached the progress cap with {} of {target} retired",
                    self.cycle, self.retired
                ));
            }
            self.tick(&mut lap);
            if self.retired >= target {
                break;
            }
            if self.idle_skip {
                if let Some(t) = self.idle_skip_target(cap) {
                    self.skip_idle(t - self.cycle);
                }
                lap.charge(&mut self.times.idle_skip);
            }
        }
        lap.charge(&mut self.times.sim_self);
        Ok(self.stats())
    }

    fn idle_skip_target(&self, cap: Cycle) -> Option<Cycle> {
        let now = self.cycle;
        let mut t = self.be.quiescent_until(now)?;
        if self.be.dispatch_room() {
            t = t.min(self.fe.quiescent_until(now)?);
        }
        t = t.min(self.last_progress.saturating_add(2001));
        t = t.min(cap);
        (t > now).then_some(t)
    }

    fn skip_idle(&mut self, k: u64) {
        if self.be.dispatch_room() {
            self.fe.charge_idle_cycles(k);
        }
        self.delivery_rate.record_n(0, k);
        self.rob_occupancy.record_n(self.be.rob_len(), k);
        self.be.charge_idle_cycles(k, self.cycle);
        self.times.skipped_cycles += k;
        self.cycle += k;
    }

    /// Mirrors `Simulator::reset_stats`.
    fn reset_stats(&mut self) {
        self.retired = 0;
        self.cond_branches = 0;
        self.cond_mispredicts = 0;
        self.branches = 0;
        self.taken_branches = 0;
        self.returns = 0;
        self.indirect_mispredicts = 0;
        self.stat_cycle_base = self.cycle;
        self.fe.reset_stats();
        self.be.reset_stats();
        self.mem.reset_stats();
        self.rob_occupancy.reset();
        self.delivery_rate.reset();
    }

    /// Mirrors `Simulator::stats`.
    fn stats(&self) -> SimStats {
        SimStats {
            cycles: self.cycle - self.stat_cycle_base,
            retired: self.retired,
            cond_branches: self.cond_branches,
            cond_mispredicts: self.cond_mispredicts,
            branches: self.branches,
            taken_branches: self.taken_branches,
            returns: self.returns,
            indirect_mispredicts: self.indirect_mispredicts,
            frontend: *self.fe.stats(),
            btb: self.fe.btb_stats(),
            mem: self.mem.stats(),
            backend: self.be.stats(),
            faq_occupancy: self.fe.faq_mean_occupancy(),
            caches: self.mem.cache_stats(),
            memdep: self.be.memdep_stats(),
            recorder_dropped: self.recorder.dropped(),
        }
    }

    fn entry(&mut self, seq: SeqNum) -> DynInst {
        self.times.oracle_entries += 1;
        self.oracle.entry(seq)
    }

    fn tick(&mut self, lap: &mut Lap) {
        let now = self.cycle;
        self.times.busy_cycles += 1;
        let mut out = std::mem::take(&mut self.tick_out);
        let room = self.be.dispatch_room();
        if room {
            lap.charge(&mut self.times.sim_self);
            self.fe.tick_into(&self.prog, &mut self.mem, now, &mut out);
            lap.charge(&mut self.times.frontend_tick);
        } else {
            out.clear();
        }

        // U-ELF divergence squash (trust-DCF resolution); charged to the
        // glue as a whole.
        if let Some(sq) = out.squash {
            self.recorder
                .record(now, PipelineEvent::DivergenceSquash { fid: sq.fid });
            if let Some(min_seq) = self.be.squash_after_returning_seq(sq.boundary_fid) {
                self.cursor = self.cursor.min(min_seq);
            }
            if let Some(seq) = self.be.seq_of(sq.fid) {
                let e = self.entry(seq);
                let kind = self.prog.inst_or_nop(e.pc).branch_kind();
                let misp = match kind {
                    Some(k) if k.is_conditional() => {
                        sq.taken != e.taken || (e.taken && sq.target != Some(e.next_pc))
                    }
                    Some(_) => sq.target != Some(e.next_pc),
                    None => false,
                };
                let pred = Prediction {
                    taken: sq.taken,
                    target: sq.target,
                    source: PredSource::TageTagged,
                };
                self.be
                    .repredict_branch(sq.fid, pred, misp, e.next_pc, seq + 1, now);
                self.wrong_path = misp;
            }
            lap.charge(&mut self.times.sim_self);
        }

        if !out.delivered.is_empty() {
            self.bind_delivered(&out, now);
            lap.charge(&mut self.times.bind);
            for b in &self.bound {
                self.be.accept(*b, now);
            }
            lap.charge(&mut self.times.backend_accept);
        }
        self.delivery_rate.record(out.delivered.len());
        self.rob_occupancy.record(self.be.rob_len());
        self.tick_out = out;

        let mut retired = std::mem::take(&mut self.retired_scratch);
        lap.charge(&mut self.times.sim_self);
        let flush = self.be.tick_into(&mut self.mem, now, &mut retired);
        lap.charge(&mut self.times.backend_tick);
        if !retired.is_empty() {
            self.count_retired(&retired);
            lap.charge(&mut self.times.sim_self);
            for r in &retired {
                // invariant: wrong-path instructions are squashed by the
                // flush that resolves them, never retired.
                let seq = r.b.seq.expect("only bound instructions retire");
                self.oracle.release_before(seq.saturating_sub(1));
            }
            lap.charge(&mut self.times.bind);
            for r in &retired {
                let b = &r.b;
                self.fe.retire(&RetireInfo {
                    fid: b.fid,
                    pc: b.sinst.pc,
                    kind: b.sinst.branch_kind(),
                    taken: b.taken,
                    next_pc: b.next_pc,
                    static_target: b.sinst.target,
                    mode: b.mode,
                });
            }
            lap.charge(&mut self.times.frontend_retire);
        }
        self.retired_scratch = retired;

        if let Some(f) = flush {
            self.recorder.record(
                now,
                PipelineEvent::Flush {
                    cause: f.cause,
                    restart_pc: f.restart_pc,
                },
            );
            lap.charge(&mut self.times.sim_self);
            self.fe.flush(
                &FlushCtx {
                    restart_pc: f.restart_pc,
                    boundary_fid: f.boundary_fid,
                    hist_replay: &f.hist_replay,
                    ras_replay: &f.ras_replay,
                },
                now,
            );
            lap.charge(&mut self.times.frontend_flush);
            self.cursor = f.cursor_target;
            self.wrong_path = false;
            self.last_progress = now;
        } else if !self.be.has_pending_flush()
            && (self.be.watchdog_tripped(now) || now.saturating_sub(self.last_progress) > 2000)
        {
            self.force_resync(now, lap);
        }

        let coupled = self.fe.in_coupled_mode();
        if coupled != self.prev_coupled {
            self.prev_coupled = coupled;
            self.recorder
                .record(now, PipelineEvent::ModeSwitch { coupled });
        }
        let faq_empty = self.fe.faq_len() == 0;
        if faq_empty != self.prev_faq_empty {
            self.prev_faq_empty = faq_empty;
            self.recorder
                .record(now, PipelineEvent::FaqEdge { empty: faq_empty });
        }
        self.cycle += 1;
        lap.charge(&mut self.times.sim_self);
    }

    /// Path tracking: binds this cycle's deliveries against the oracle into
    /// `self.bound`, exactly as `Simulator::tick` does one at a time.
    fn bind_delivered(&mut self, out: &TickOutput, now: Cycle) {
        self.bound.clear();
        for d in &out.delivered {
            let sinst = d.inst.sinst;
            let mut b = BoundInst {
                fid: d.fid,
                sinst,
                seq: None,
                mode: d.inst.mode,
                pred: d.inst.pred,
                taken: false,
                next_pc: sinst.pc + 4,
                mem_addr: None,
                mispredicted: false,
            };
            if !self.wrong_path {
                let e = self.entry(self.cursor);
                if e.pc == sinst.pc {
                    self.last_progress = now;
                    b.seq = Some(self.cursor);
                    b.taken = e.taken;
                    b.next_pc = e.next_pc;
                    b.mem_addr = e.mem_addr;
                    self.cursor += 1;
                    if let Some(k) = sinst.branch_kind() {
                        let pred = d.inst.pred.unwrap_or_else(Prediction::not_taken);
                        let misp = if k.is_conditional() {
                            pred.taken != e.taken || (e.taken && pred.target != Some(e.next_pc))
                        } else {
                            pred.target != Some(e.next_pc)
                        };
                        b.mispredicted = misp;
                        if misp {
                            self.wrong_path = true;
                        }
                    }
                } else {
                    self.recorder.record(
                        now,
                        PipelineEvent::WrongPath {
                            got: sinst.pc,
                            want: e.pc,
                        },
                    );
                    self.wrong_path = true;
                }
            }
            if b.seq.is_none() && sinst.class == InstClass::Load {
                let h = sinst
                    .pc
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(d.fid.wrapping_mul(0xff51_afd7_ed55_8ccd));
                b.mem_addr = Some((DATA_BASE + (h % (64 << 20))) & !7);
            }
            self.bound.push(b);
        }
    }

    /// The statistic counters `Simulator::retire` keeps.
    fn count_retired(&mut self, retired: &[RetiredInst]) {
        for r in retired {
            let b = &r.b;
            self.retired += 1;
            let Some(k) = b.sinst.branch_kind() else {
                continue;
            };
            self.branches += 1;
            if b.taken {
                self.taken_branches += 1;
            }
            if k.is_conditional() {
                self.cond_branches += 1;
                if b.mispredicted {
                    self.cond_mispredicts += 1;
                }
            } else if k.is_indirect() {
                if k.is_return() {
                    self.returns += 1;
                }
                if b.mispredicted {
                    self.indirect_mispredicts += 1;
                }
            }
        }
    }

    fn force_resync(&mut self, now: Cycle, lap: &mut Lap) {
        let f = self.be.force_watchdog_flush(now);
        self.cursor = self.cursor.min(f.cursor_target);
        let pc = self.entry(self.cursor).pc;
        self.recorder.record(
            now,
            PipelineEvent::WatchdogResync {
                restart_pc: pc,
                cursor: self.cursor,
            },
        );
        lap.charge(&mut self.times.sim_self);
        self.fe.flush(
            &FlushCtx {
                restart_pc: pc,
                boundary_fid: f.boundary_fid,
                hist_replay: &f.hist_replay,
                ras_replay: &f.ras_replay,
            },
            now,
        );
        lap.charge(&mut self.times.frontend_flush);
        self.wrong_path = false;
        self.last_progress = now;
    }
}

/// One traced cell's outcome.
#[derive(Debug, Clone)]
pub struct TracedCell {
    /// Statistics of the measured window.
    pub stats: SimStats,
    /// ROB occupancy over the measured window.
    pub rob_occupancy: Histogram,
    /// Host time per layer, warm-up and window included.
    pub times: LayerTimes,
    /// Host seconds for the whole cell: setup, warm-up and window.
    pub wall: Duration,
}

/// Sets up and runs one cell on the traced simulator, the counterpart of
/// [`crate::workload::run_cell`].
///
/// # Errors
///
/// Returns a message if setup fails or the run wedges.
pub fn run_cell_traced(cell: &Cell, seed: u64) -> Result<TracedCell, String> {
    let start = Instant::now();
    let spec = spec_for(cell.program, seed)?;
    let synth_start = Instant::now();
    let prog = Arc::new(synthesize(&spec));
    let synth = synth_start.elapsed();
    let mut sim = TracedSim::new(&cell.config(), prog, seed)?;
    sim.times.synth = synth;
    sim.warm_up(cell.warmup)?;
    let stats = sim.run(cell.window)?;
    Ok(TracedCell {
        stats,
        rob_occupancy: sim.rob_occupancy.clone(),
        times: sim.times,
        wall: start.elapsed(),
    })
}

/// Median host cost of one `Instant::now()` read, in nanoseconds.
#[must_use]
pub fn timer_read_ns() -> f64 {
    const READS: u32 = 100_000;
    let mut batches: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut last = start;
            for _ in 0..READS {
                last = std::hint::black_box(Instant::now());
            }
            (last - start).as_secs_f64() * 1e9 / f64::from(READS)
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[batches.len() / 2]
}
