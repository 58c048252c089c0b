//! The top-level cycle-level simulator.
//!
//! Each cycle: tick the front-end, bind its delivered instructions against
//! the oracle (path tracking), feed the back-end, apply back-end flushes to
//! the front-end, and route retirements back for BTB establishment and
//! predictor training.

use crate::backend::{AppliedFlush, Backend, BoundInst, RetiredInst};
use crate::config::SimConfig;
use crate::error::{DiagnosticReport, SimError};
use crate::fault::{FaultInjector, FaultKind};
use crate::histogram::Histogram;
use crate::metrics::Metrics;
use crate::recorder::{FlightRecorder, PipelineEvent};
use crate::stats::SimStats;
use elf_btb::{BtbBranch, BtbEntry};
use elf_frontend::{FlushCtx, Frontend, RetireInfo};
use elf_mem::MemorySystem;
use elf_trace::program::DATA_BASE;
use elf_trace::workloads::Workload;
use elf_trace::{synthesize, DynInst, Oracle, Program};
use elf_types::{Addr, BranchKind, Cycle, InstClass, Prediction, SeqNum};
use std::sync::Arc;

/// The simulator: one core, one workload.
#[derive(Debug)]
pub struct Simulator {
    /// The configuration the machine was built from (kept for
    /// checkpointing: a snapshot embeds it so restore rebuilds the same
    /// geometry).
    cfg: SimConfig,
    prog: Arc<Program>,
    oracle: Oracle,
    fe: Frontend,
    be: Backend,
    mem: MemorySystem,
    cycle: Cycle,
    /// Oracle cursor: next correct-path sequence number to bind.
    cursor: SeqNum,
    wrong_path: bool,
    retired_seq: SeqNum,
    /// Cycle of the last correct-path delivery (no-progress safety net).
    last_progress: Cycle,
    /// Always-on ring of recent pipeline events (serialized into
    /// diagnostic reports on error).
    recorder: FlightRecorder,
    /// Deterministic fault injection (None = clean run).
    injector: Option<FaultInjector>,
    /// A ForceMispredict fault fired; the next correct-path branch
    /// resolves as mispredicted.
    force_misp_pending: bool,
    /// Forward-progress cap parameters (see `SimConfig`).
    cap_base: u64,
    cap_per_inst: u64,
    // Statistic counters (reset after warm-up).
    retired: u64,
    cond_branches: u64,
    cond_mispredicts: u64,
    branches: u64,
    taken_branches: u64,
    returns: u64,
    indirect_mispredicts: u64,
    stat_cycle_base: Cycle,
    /// ROB occupancy sampled each cycle.
    rob_occupancy: Histogram,
    /// Correct-path instructions delivered per cycle.
    delivery_rate: Histogram,
    /// Cycles advanced in bulk by idle-cycle skipping (diagnostic: these
    /// are regular simulated cycles, already included in `cycle`).
    skipped_cycles: u64,
    /// Cycle-attribution registry (`SimConfig::metrics`; `None` = off, the
    /// default — the disabled path costs one branch per tick).
    metrics: Option<Box<Metrics>>,
    /// Per-tick structural invariant checker (`SimConfig::check`; `None` =
    /// off, the default — the same zero-cost-when-disabled shape as
    /// `metrics`, and read-only so stats stay bit-identical).
    checker: Option<Box<crate::check::Checker>>,
    /// Retired commit-record log for the differential harness (scratch:
    /// enabled by `record_commits`, never serialized).
    commit_log: Option<Vec<crate::check::CommitRecord>>,
    // Reusable per-tick buffers (scratch, not simulated state; never
    // serialized).
    tick_out: elf_frontend::TickOutput,
    retired_scratch: Vec<RetiredInst>,
}

impl Simulator {
    /// Builds a simulator from an already-synthesized program, validating
    /// the configuration and the program first (in every build profile).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] or [`SimError::MalformedProgram`]
    /// instead of panicking.
    pub fn try_from_program(
        cfg: SimConfig,
        prog: Arc<Program>,
        seed: u64,
    ) -> Result<Self, SimError> {
        cfg.validate()?;
        let issues = elf_trace::validate::validate(&prog);
        if !issues.is_empty() {
            return Err(SimError::MalformedProgram {
                program: prog.name().to_string(),
                issues,
            });
        }
        let start = prog.entry();
        Ok(Simulator {
            oracle: Oracle::new(Arc::clone(&prog), seed),
            fe: Frontend::new(cfg.frontend.clone(), cfg.arch, start),
            be: Backend::new(cfg.backend.clone()),
            mem: MemorySystem::new(cfg.mem.clone()),
            recorder: FlightRecorder::new(cfg.recorder_events),
            injector: cfg.fault.filter(|p| !p.is_empty()).map(FaultInjector::new),
            force_misp_pending: false,
            cap_base: cfg.progress_cap_base,
            cap_per_inst: cfg.progress_cap_per_inst,
            prog,
            cycle: 0,
            cursor: 0,
            wrong_path: false,
            retired_seq: 0,
            last_progress: 0,
            rob_occupancy: Histogram::new(cfg.backend.rob_entries),
            delivery_rate: Histogram::new(cfg.frontend.fetch_width * 2),
            skipped_cycles: 0,
            metrics: cfg.metrics.then(|| Box::new(Metrics::new())),
            checker: cfg.check.then(|| Box::new(crate::check::Checker::new())),
            commit_log: None,
            tick_out: elf_frontend::TickOutput::default(),
            retired_scratch: Vec::new(),
            cfg,
            retired: 0,
            cond_branches: 0,
            cond_mispredicts: 0,
            branches: 0,
            taken_branches: 0,
            returns: 0,
            indirect_mispredicts: 0,
            stat_cycle_base: 0,
        })
    }

    /// Synthesizes a registry workload's program and builds a simulator
    /// from it with [`Simulator::try_from_program`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] or [`SimError::MalformedProgram`].
    pub fn try_for_workload(cfg: SimConfig, w: &Workload) -> Result<Self, SimError> {
        Simulator::try_from_program(cfg, Arc::new(synthesize(&w.spec)), w.spec.seed)
    }

    /// The simulated program.
    #[must_use]
    pub fn program(&self) -> &Arc<Program> {
        &self.prog
    }

    /// The configuration the simulator was built from.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Instructions retired since the last statistics reset.
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Current cycle.
    #[must_use]
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Runs until `n` more instructions retire; returns the statistics
    /// accumulated since the last reset.
    ///
    /// If the pipeline stops making forward progress within the
    /// configured cap (`SimConfig::progress_cap_base` + `n *
    /// progress_cap_per_inst` cycles), returns [`SimError::Wedged`]
    /// carrying a [`DiagnosticReport`] with the machine state and the
    /// flight recorder's event tail. The simulator is left intact for
    /// inspection.
    pub fn run(&mut self, n: u64) -> Result<SimStats, SimError> {
        self.run_within(n, Cycle::MAX)
    }

    /// [`Simulator::run`] that also stops, with the same
    /// [`SimError::Wedged`], once the absolute cycle count reaches
    /// `cycle_limit` (a supervisor's budget). The limit folds into the
    /// forward-progress cap, so it costs the tick loop nothing.
    pub fn run_within(&mut self, n: u64, cycle_limit: Cycle) -> Result<SimStats, SimError> {
        let target = self.retired + n;
        let cap = self
            .cycle
            .saturating_add(self.cap_base)
            .saturating_add(n.saturating_mul(self.cap_per_inst))
            .min(cycle_limit);
        while self.retired < target {
            if self.cycle >= cap {
                return Err(SimError::Wedged(Box::new(self.diagnostic_report(target))));
            }
            self.tick();
            if let Some(what) = self.recorded_violation() {
                return Err(SimError::InvariantViolation {
                    what,
                    report: Box::new(self.diagnostic_report(target)),
                });
            }
            if self.retired >= target {
                // Don't skip past the window boundary: the reference walk
                // returns right here, so a trailing bulk advance would
                // charge cycles the stepped run never sees.
                break;
            }
            if self.cfg.idle_skip {
                if let Some(t) = self.idle_skip_target(cap) {
                    self.skip_idle(t - self.cycle);
                }
            }
        }
        Ok(self.stats())
    }

    /// If every component is provably idle, returns the earliest future
    /// cycle at which anything may happen (clamped to the wedge cap, the
    /// no-progress safety net and the next scheduled fault). `None` means
    /// the next tick must be simulated normally.
    fn idle_skip_target(&self, cap: Cycle) -> Option<Cycle> {
        let now = self.cycle;
        let mut t = self.be.quiescent_until(now)?;
        if self.be.dispatch_room() {
            // With dispatch room the front-end ticks every cycle; without
            // it the front-end is frozen and only the back-end matters.
            t = t.min(self.fe.quiescent_until(now)?);
        }
        // The no-progress safety net fires once `now - last_progress`
        // exceeds 2000 — that tick acts even with both engines idle.
        t = t.min(self.last_progress.saturating_add(2001));
        // Never jump over a scheduled fault injection.
        if let Some(inj) = &self.injector {
            if let Some(due) = inj.next_due() {
                t = t.min(due);
            }
        }
        // Stopping at the cap reproduces the reference wedge behavior:
        // the no-op ticks up to `cap - 1` are charged, then `run` reports.
        t = t.min(cap);
        (t > now).then_some(t)
    }

    /// Advances simulated time by `k` provably idle cycles, applying the
    /// per-cycle bookkeeping every skipped tick would have performed. Must
    /// mirror `tick`'s unconditional statistics exactly — the
    /// `perf_equivalence` suite pins bit-identical [`SimStats`] between
    /// skipped and stepped runs.
    fn skip_idle(&mut self, k: u64) {
        debug_assert!(k > 0);
        let room = self.be.dispatch_room();
        if let Some(m) = &mut self.metrics {
            // Whether fetch is waiting (`fe_busy > now`) is the only
            // classification input that can flip inside a quiescent region:
            // the cycles before the fetch engine frees up charge as one
            // cause, the rest as another.
            let now = self.cycle;
            let waiting = self.fe.fetch_busy_until().saturating_sub(now).min(k);
            m.charge(&self.fe.cycle_probe(now), 0, room, waiting);
            m.charge(&self.fe.cycle_probe(now + waiting), 0, room, k - waiting);
        }
        if room {
            self.fe.charge_idle_cycles(k);
        }
        self.delivery_rate.record_n(0, k);
        self.rob_occupancy.record_n(self.be.rob_len(), k);
        self.be.charge_idle_cycles(k, self.cycle);
        self.skipped_cycles += k;
        self.cycle += k;
    }

    /// Cycles advanced in bulk by idle-cycle skipping since construction
    /// (or restore). Always 0 when `SimConfig::idle_skip` is off.
    #[must_use]
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    /// Runs `n` instructions of warm-up and resets all statistics.
    /// Returns the warm-up window's statistics (rarely interesting, but
    /// they are discarded by the reset).
    pub fn warm_up(&mut self, n: u64) -> Result<SimStats, SimError> {
        let s = self.run(n)?;
        self.reset_stats();
        Ok(s)
    }

    /// Captures the current machine state (plus the flight-recorder tail)
    /// as a structured report. `target` is the retirement goal to report
    /// against; [`Simulator::run`] fills it in when it wedges.
    #[must_use]
    pub fn diagnostic_report(&self, target: u64) -> DiagnosticReport {
        DiagnosticReport {
            cycle: self.cycle,
            retired: self.retired,
            target,
            cursor: self.cursor,
            wrong_path: self.wrong_path,
            frontend_state: self.fe.debug_state(),
            rob_len: self.be.rob_len(),
            rob_head: self.be.debug_head(),
            backend_empty: self.be.is_empty(),
            faults_injected: self.fault_counts(),
            events: self.recorder.snapshot(),
        }
    }

    /// The flight recorder (recent pipeline events).
    #[must_use]
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Cumulative fault injections since construction, indexed by
    /// [`FaultKind::index`] (all zero on clean runs; not affected by
    /// [`Simulator::reset_stats`]).
    #[must_use]
    pub fn fault_counts(&self) -> [u64; 4] {
        self.injector.as_ref().map_or([0; 4], |inj| inj.counts())
    }

    /// ROB-occupancy histogram (sampled every cycle since the last reset).
    #[must_use]
    pub fn rob_occupancy(&self) -> &Histogram {
        &self.rob_occupancy
    }

    /// Delivered-instructions-per-cycle histogram.
    #[must_use]
    pub fn delivery_rate(&self) -> &Histogram {
        &self.delivery_rate
    }

    /// Resets all statistic counters (not architectural/predictor state).
    pub fn reset_stats(&mut self) {
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
        if let Some(m) = &mut self.metrics {
            m.reset(self.cycle, self.fe.in_coupled_mode());
        }
    }

    /// The cycle-attribution registry accumulated since the last stats
    /// reset (`None` when `SimConfig::metrics` is off).
    #[must_use]
    pub fn metrics(&self) -> Option<&Metrics> {
        self.metrics.as_deref()
    }

    /// Starts recording the retired commit stream — one
    /// [`crate::check::CommitRecord`] per retirement — for the
    /// differential harness. The log is scratch, not simulated state: it
    /// is never serialized into a checkpoint, so a restored simulator
    /// starts with recording off and the caller re-enables it.
    pub fn record_commits(&mut self) {
        self.commit_log = Some(Vec::new());
    }

    /// Takes the commit records accumulated since
    /// [`Simulator::record_commits`] and stops recording (empty if
    /// recording was never enabled).
    pub fn take_commits(&mut self) -> Vec<crate::check::CommitRecord> {
        self.commit_log.take().unwrap_or_default()
    }

    /// Statistics since the last reset.
    #[must_use]
    pub fn stats(&self) -> SimStats {
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

    /// Captures the complete machine state as a restorable
    /// [`crate::snapshot::Snapshot`] (configuration + program + every
    /// dynamic structure). Restoring it — in this process or another —
    /// and running yields a bit-identical continuation of this run.
    ///
    /// Saving walks the same `state` visitor that restoring does, hence
    /// `&mut self`; it does not change the simulator.
    #[must_use]
    pub fn checkpoint(&mut self) -> crate::snapshot::Snapshot {
        let mut w = elf_types::SnapWriter::new();
        self.state(&mut w).expect("saving state cannot fail");
        crate::snapshot::Snapshot {
            version: crate::snapshot::SNAPSHOT_VERSION,
            cfg: self.cfg.clone(),
            prog: Arc::clone(&self.prog),
            cycle: self.cycle,
            retired: self.retired,
            state: w.into_bytes(),
        }
    }

    /// Builds a fresh simulator from a snapshot's embedded configuration
    /// and program, then restores its dynamic state, continuing the
    /// checkpointed run bit-identically.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] / [`SimError::MalformedProgram`]
    /// if the embedded configuration or program fails validation, or
    /// [`SimError::Snapshot`] if the state bytes are truncated, corrupt or
    /// disagree with the configuration's geometry.
    pub fn restore(snap: &crate::snapshot::Snapshot) -> Result<Self, SimError> {
        // The oracle seed is irrelevant: loading overwrites the RNG
        // position with the checkpointed one.
        let mut sim = Simulator::try_from_program(snap.cfg.clone(), Arc::clone(&snap.prog), 0)?;
        let mut r = elf_types::SnapReader::new(&snap.state);
        sim.state(&mut r).map_err(|e| SimError::Snapshot {
            reason: e.to_string(),
        })?;
        if r.remaining() != 0 {
            return Err(SimError::Snapshot {
                reason: format!("{} trailing bytes after simulator state", r.remaining()),
            });
        }
        Ok(sim)
    }

    /// Saves or restores every dynamic structure: oracle, front-end
    /// (predictors, BTBs, FAQ, divergence tracker), back-end, memory
    /// system, path tracker, fault injector, flight recorder, statistic
    /// counters, histograms and the invariant checker's history. Loading
    /// requires a simulator built from the same configuration and
    /// program. The differential harness's commit log is not state and is
    /// skipped.
    fn state(&mut self, io: &mut impl elf_types::StateIo) -> Result<(), elf_types::SnapError> {
        io.value(&mut self.cycle)?;
        self.oracle.state(io)?;
        self.fe.state(io)?;
        self.be.state(io, self.cycle)?;
        self.mem.state(io)?;
        io.value(&mut self.cursor)?;
        io.value(&mut self.wrong_path)?;
        io.value(&mut self.retired_seq)?;
        io.value(&mut self.last_progress)?;
        self.recorder.state(io)?;
        io.present(self.injector.is_some(), "fault injector")?;
        if let Some(inj) = &mut self.injector {
            inj.state(io)?;
        }
        io.value(&mut self.force_misp_pending)?;
        io.value(&mut self.retired)?;
        io.value(&mut self.cond_branches)?;
        io.value(&mut self.cond_mispredicts)?;
        io.value(&mut self.branches)?;
        io.value(&mut self.taken_branches)?;
        io.value(&mut self.returns)?;
        io.value(&mut self.indirect_mispredicts)?;
        io.value(&mut self.stat_cycle_base)?;
        self.rob_occupancy.state(io)?;
        self.delivery_rate.state(io)?;
        io.value(&mut self.skipped_cycles)?;
        io.present(self.metrics.is_some(), "metrics")?;
        if let Some(m) = &mut self.metrics {
            m.state(io)?;
        }
        io.present(self.checker.is_some(), "checker")?;
        if let Some(c) = &mut self.checker {
            c.state(io)?;
        }
        Ok(())
    }

    fn tick(&mut self) {
        let now = self.cycle;
        // The mode and FAQ state the flight recorder's edges compare with.
        let was_coupled = self.fe.in_coupled_mode();
        let faq_was_empty = self.fe.faq_len() == 0;
        if self.injector.is_some() {
            self.inject_faults(now);
        }
        // Fetch backpressure: the front-end stalls while the decode/rename
        // queue is full (otherwise wrong-path run-ahead grows unboundedly
        // and branch resolution falls arbitrarily far behind).
        //
        // The output buffer is a reusable field, moved out for the borrow
        // and restored at the end of the tick.
        let mut out = std::mem::take(&mut self.tick_out);
        let room = self.be.dispatch_room();
        // Cycle attribution reads the pre-tick state; the delivery count
        // completes the classification below.
        let probe = self.metrics.is_some().then(|| self.fe.cycle_probe(now));
        if room {
            self.fe.tick_into(&self.prog, &mut self.mem, now, &mut out);
        } else {
            out.clear();
        }

        // Divergence squash (U-ELF, trust-DCF resolution): squash younger
        // than the diverging branch and make the DCF's direction its
        // effective prediction.
        if let Some(sq) = out.squash {
            self.recorder
                .record(now, PipelineEvent::DivergenceSquash { fid: sq.fid });
            if let Some(min_seq) = self.be.squash_after_returning_seq(sq.boundary_fid) {
                self.cursor = self.cursor.min(min_seq);
                debug_assert!(
                    self.cursor > self.retired_seq || self.retired == 0,
                    "divergence rewind below retired: cursor {} retired {}",
                    self.cursor,
                    self.retired_seq
                );
            }
            if let Some(seq) = self.be.seq_of(sq.fid) {
                let e = self.oracle.entry(seq);
                let misp = self
                    .prog
                    .inst_or_nop(e.pc)
                    .branch_kind()
                    .is_some_and(|k| mispredicts(k, sq.taken, sq.target, &e));
                let pred = Prediction {
                    taken: sq.taken,
                    target: sq.target,
                    source: elf_types::PredSource::TageTagged,
                };
                self.be
                    .repredict_branch(sq.fid, pred, misp, e.next_pc, seq + 1, now);
                self.wrong_path = misp;
            }
            // (If the branch is no longer in flight the squash is stale;
            // leave the path-tracker state alone — the watchdog cleans up
            // the rare residue.)
        }

        // Path tracking: bind delivered instructions against the oracle.
        for d in &out.delivered {
            if let Some(ck) = &mut self.checker {
                ck.observe_delivery(now, d.fid);
            }
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
                let e = self.oracle.entry(self.cursor);
                if e.pc == sinst.pc {
                    self.last_progress = now;
                    b.seq = Some(self.cursor);
                    b.taken = e.taken;
                    b.next_pc = e.next_pc;
                    b.mem_addr = e.mem_addr;
                    self.cursor += 1;
                    if let Some(k) = sinst.branch_kind() {
                        let pred = d.inst.pred.unwrap_or_else(Prediction::not_taken);
                        let mut misp = mispredicts(k, pred.taken, pred.target, &e);
                        // ForceMispredict fault: resolve the next
                        // correct-path branch as mispredicted so the
                        // execute-time flush + refetch path runs even
                        // though fetch happened to be right.
                        if self.force_misp_pending {
                            self.force_misp_pending = false;
                            misp = true;
                        }
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
                // Wrong-path loads still access the D-cache (pollution,
                // §VI-B) with a synthetic but deterministic address.
                let h = sinst
                    .pc
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(d.fid.wrapping_mul(0xff51_afd7_ed55_8ccd));
                b.mem_addr = Some((DATA_BASE + (h % (64 << 20))) & !7);
            }
            self.be.accept(b, now);
        }

        if let Some(m) = &mut self.metrics {
            // invariant: the probe is captured whenever metrics are on.
            let p = probe.expect("captured above");
            m.charge(&p, out.delivered.len(), room, 1);
            m.note_delivery(out.delivered.len(), now);
        }
        self.delivery_rate.record(out.delivered.len());
        self.rob_occupancy.record(self.be.rob_len());
        self.tick_out = out;

        // Back-end cycle (the retirement buffer is reused tick to tick).
        let mut retired = std::mem::take(&mut self.retired_scratch);
        let flush = self.be.tick_into(&mut self.mem, now, &mut retired);
        for r in &retired {
            self.retire(r);
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
            self.cursor = f.cursor_target;
            debug_assert!(
                self.cursor > self.retired_seq || self.retired == 0,
                "flush {:?} rewind below retired: cursor {} retired {}",
                f.cause,
                self.cursor,
                self.retired_seq
            );
            let restart_pc = f.restart_pc;
            self.resteer(f, restart_pc, now);
        } else if !self.be.has_pending_flush()
            && (self.be.watchdog_tripped(now) || now.saturating_sub(self.last_progress) > 2000)
        {
            // Safety net: the delivered stream left the correct path without
            // a resolving branch (divergence gap). Squash the whole pipeline
            // and resync at the oldest unbound point.
            self.force_resync(now);
        }

        // Edge detection for the flight recorder: ELF couple/decouple
        // transitions and FAQ drain/refill edges.
        let coupled = self.fe.in_coupled_mode();
        if let Some(m) = &mut self.metrics {
            m.note_coupled(coupled, now);
        }
        if coupled != was_coupled {
            self.recorder
                .record(now, PipelineEvent::ModeSwitch { coupled });
        }
        let faq_empty = self.fe.faq_len() == 0;
        if faq_empty != faq_was_empty {
            self.recorder
                .record(now, PipelineEvent::FaqEdge { empty: faq_empty });
        }

        if self.checker.is_some() {
            self.check_tick(now);
        }

        self.cycle += 1;
    }

    /// End-of-tick invariant sweep (`SimConfig::check`). Every probe is
    /// read-only — this must not perturb simulation — and the first
    /// failure is recorded on the checker, which `run` surfaces as
    /// [`SimError::InvariantViolation`] right after this tick.
    fn check_tick(&mut self, now: Cycle) {
        let fe_violation = self.fe.invariant_violation();
        let mode = self.fe.cycle_probe(now).mode_index() as u8;
        let rob_len = self.be.rob_len();
        let is_elf = matches!(self.cfg.arch, elf_frontend::FetchArch::Elf(_));
        let Some(ck) = &mut self.checker else { return };
        if let Some(v) = fe_violation {
            ck.fail(now, format!("front-end: {v}"));
        }
        if rob_len > self.cfg.backend.rob_entries {
            ck.fail(
                now,
                format!(
                    "rob holds {rob_len} instructions > capacity {}",
                    self.cfg.backend.rob_entries
                ),
            );
        }
        if self.cursor <= self.retired_seq && self.retired != 0 {
            ck.fail(
                now,
                format!(
                    "oracle cursor {} at or below the last retired sequence \
                     number {} (the bind point can never regress past \
                     retirement)",
                    self.cursor, self.retired_seq
                ),
            );
        }
        ck.observe_mode(now, mode, is_elf);
    }

    /// The first invariant violation recorded by the checker, if any
    /// (always `None` when `SimConfig::check` is off).
    fn recorded_violation(&self) -> Option<String> {
        self.checker
            .as_ref()
            .and_then(|c| c.violation().map(str::to_owned))
    }

    /// Squashes everything in flight and resyncs fetch to the oracle at
    /// the oldest unbound point (the watchdog safety net; also how the
    /// SpuriousFlush fault lands).
    fn force_resync(&mut self, now: Cycle) {
        let f = self.be.force_watchdog_flush(now);
        self.cursor = self.cursor.min(f.cursor_target);
        let pc = self.oracle.entry(self.cursor).pc;
        self.recorder.record(
            now,
            PipelineEvent::WatchdogResync {
                restart_pc: pc,
                cursor: self.cursor,
            },
        );
        self.resteer(f, pc, now);
    }

    /// Redirects the front-end to `restart_pc` after the applied flush `f`
    /// (a back-end flush or a forced resync) and puts the path tracker
    /// back on the correct path.
    fn resteer(&mut self, f: AppliedFlush, restart_pc: Addr, now: Cycle) {
        self.fe.flush(
            &FlushCtx {
                restart_pc,
                boundary_fid: f.boundary_fid,
                hist_replay: &f.hist_replay,
                ras_replay: &f.ras_replay,
            },
            now,
        );
        if let Some(m) = &mut self.metrics {
            m.note_flush(now, f.squashed);
        }
        self.be.recycle_flush(f);
        self.wrong_path = false;
        self.last_progress = now;
    }

    /// Fires any due faults from the configured plan (see
    /// `crate::fault`), in a fixed order. Every payload is derived from the
    /// injector's own seeded stream, so the whole schedule is deterministic.
    fn inject_faults(&mut self, now: Cycle) {
        // The injector is moved out while firing so fault payloads can
        // borrow the rest of the simulator.
        let Some(mut inj) = self.injector.take() else {
            return;
        };
        let mut resync = false;
        for kind in [
            FaultKind::CorruptBtb,
            FaultKind::EvictIcache,
            FaultKind::ForceMispredict,
            FaultKind::SpuriousFlush,
        ] {
            // A spurious flush waits for any in-flight flush to land first
            // (`due` keeps it armed until then).
            if kind == FaultKind::SpuriousFlush && self.be.has_pending_flush() {
                continue;
            }
            if !inj.due(kind, now) {
                continue;
            }
            self.recorder
                .record(now, PipelineEvent::FaultInjected { kind });
            match kind {
                FaultKind::CorruptBtb => {
                    // Overwrite the entry covering the PC the correct path
                    // is about to fetch with a structurally valid but wrong
                    // one: a random span ending in a branch to the program
                    // entry point.
                    let pc = self.oracle.entry(self.cursor).pc;
                    let bits = inj.next_u64();
                    let inst_count = 1 + (bits % 16) as u8;
                    let mut entry = BtbEntry::new(pc, inst_count);
                    let branch = if bits & (1 << 8) != 0 {
                        BranchKind::UncondDirect
                    } else {
                        BranchKind::CondDirect
                    };
                    entry.add_branch(BtbBranch {
                        offset: ((bits >> 16) % u64::from(inst_count)) as u8,
                        kind: branch,
                        target: Some(self.prog.entry()),
                    });
                    self.fe.inject_btb_entry(entry);
                }
                FaultKind::EvictIcache => {
                    // Kick the lines around the current fetch point out of
                    // the instruction hierarchy: the next fetches see miss
                    // latency, which is exactly a delayed I-cache response
                    // to the FAQ.
                    let pc = self.oracle.entry(self.cursor).pc;
                    for i in 0..4u64 {
                        self.mem.evict_inst_line(pc + i * 64);
                    }
                }
                FaultKind::ForceMispredict => self.force_misp_pending = true,
                FaultKind::SpuriousFlush => resync = true,
            }
        }
        self.injector = Some(inj);
        if resync {
            self.force_resync(now);
        }
    }

    fn retire(&mut self, r: &RetiredInst) {
        let b = &r.b;
        // invariant: the back-end only commits instructions that were
        // accepted with a bound sequence number — wrong-path (unbound)
        // instructions are always squashed by the flush that resolves
        // their mispredicted ancestor, never retired.
        let seq = b.seq.expect("only bound instructions retire");
        self.retired += 1;
        self.retired_seq = seq;
        self.oracle.release_before(seq.saturating_sub(1));
        if let Some(log) = &mut self.commit_log {
            log.push(crate::check::CommitRecord {
                pc: b.sinst.pc,
                taken: b.taken,
                target: b.next_pc,
            });
        }

        let kind = b.sinst.branch_kind();
        if let Some(k) = kind {
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
        self.fe.retire(&RetireInfo {
            fid: b.fid,
            pc: b.sinst.pc,
            kind,
            taken: b.taken,
            next_pc: b.next_pc,
            static_target: b.sinst.target,
            mode: b.mode,
        });
    }
}

/// Whether a branch of kind `kind` predicted `taken` to `target` misses
/// its oracle outcome `e`: for a conditional, the direction differs or it
/// is taken to the wrong target; for any other branch, the target differs.
fn mispredicts(kind: BranchKind, taken: bool, target: Option<Addr>, e: &DynInst) -> bool {
    if kind.is_conditional() {
        taken != e.taken || (e.taken && target != Some(e.next_pc))
    } else {
        target != Some(e.next_pc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use elf_frontend::{CoupledCondKind, ElfVariant, FetchArch};
    use elf_trace::validate::ProgramIssue;
    use elf_trace::{workloads, ProgramSpec};
    use elf_types::StaticInst;

    impl Simulator {
        /// Test shorthand: run and unwrap (clean runs must complete).
        fn run_ok(&mut self, n: u64) -> SimStats {
            self.run(n).expect("clean run completes")
        }

        /// Test shorthand: warm up and unwrap.
        fn warm_up_ok(&mut self, n: u64) {
            self.warm_up(n).expect("clean warm-up completes");
        }
    }

    fn mini_spec(seed: u64) -> ProgramSpec {
        ProgramSpec {
            name: "sim-mini".into(),
            seed,
            num_funcs: 24,
            ..ProgramSpec::default()
        }
    }

    /// A simulator over the small synthetic program of `seed`.
    fn mini_sim(cfg: SimConfig, seed: u64) -> Simulator {
        let prog = Arc::new(synthesize(&mini_spec(seed)));
        Simulator::try_from_program(cfg, prog, seed).expect("valid config")
    }

    #[test]
    fn all_architectures_complete_and_have_sane_ipc() {
        for arch in [
            FetchArch::NoDcf,
            FetchArch::Dcf,
            FetchArch::Elf(ElfVariant::L),
            FetchArch::Elf(ElfVariant::U),
        ] {
            let mut sim = mini_sim(SimConfig::baseline(arch), 11);
            let s = sim.run_ok(30_000);
            assert!(s.retired >= 30_000);
            assert!(
                s.ipc() > 0.2 && s.ipc() < 9.0,
                "{arch:?} IPC {} out of range",
                s.ipc()
            );
        }
    }

    #[test]
    fn warmup_reset_gives_clean_windows() {
        let mut sim = mini_sim(SimConfig::baseline(FetchArch::Dcf), 13);
        sim.warm_up_ok(20_000);
        let s0 = sim.stats();
        assert_eq!(s0.retired, 0);
        assert_eq!(s0.cycles, 0);
        let s = sim.run_ok(10_000);
        assert!(s.retired >= 10_000);
        assert!(s.cycles > 0);
    }

    #[test]
    fn branch_stats_are_populated() {
        let mut sim = mini_sim(SimConfig::baseline(FetchArch::Dcf), 17);
        let s = sim.run_ok(40_000);
        assert!(s.cond_branches > 1000, "cond branches: {}", s.cond_branches);
        assert!(s.branches > s.cond_branches);
        assert!(s.taken_branches > 0);
        assert!(
            s.branch_mpki() > 0.0,
            "synthetic code always has some misses"
        );
        assert!(s.branch_mpki() < 80.0);
    }

    #[test]
    fn deterministic_given_config_and_seed() {
        let run = || {
            let mut sim = mini_sim(SimConfig::baseline(FetchArch::Dcf), 19);
            let s = sim.run_ok(20_000);
            (s.cycles, s.retired, s.cond_mispredicts)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn retired_count_is_architecture_independent() {
        // Same workload, same seed: every fetch architecture retires the
        // same dynamic stream (cycle counts differ).
        let misp = |arch| {
            let mut sim = mini_sim(SimConfig::baseline(arch), 23);
            let s = sim.run_ok(25_000);
            (s.retired, s.taken_branches)
        };
        let a = misp(FetchArch::NoDcf);
        let b = misp(FetchArch::Dcf);
        let c = misp(FetchArch::Elf(ElfVariant::U));
        // Retire counts overshoot by < commit width; compare loosely.
        assert!(a.0.abs_diff(b.0) <= 16);
        assert!(a.0.abs_diff(c.0) <= 16);
        assert!(
            a.1.abs_diff(b.1) * 100 <= a.1 * 2,
            "taken counts differ: {a:?} {b:?}"
        );
        assert!(
            a.1.abs_diff(c.1) * 100 <= a.1 * 2,
            "taken counts differ: {a:?} {c:?}"
        );
    }

    #[test]
    fn elf_spends_most_cycles_decoupled() {
        let mut sim = mini_sim(SimConfig::baseline(FetchArch::Elf(ElfVariant::U)), 29);
        sim.warm_up_ok(20_000);
        let s = sim.run_ok(30_000);
        assert!(
            s.frontend.coupled_cycle_fraction() < 0.6,
            "coupled fraction {}",
            s.frontend.coupled_cycle_fraction()
        );
        assert!(s.frontend.coupled_periods > 0);
    }

    #[test]
    fn occupancy_histograms_are_populated() {
        let mut sim = mini_sim(SimConfig::baseline(FetchArch::Dcf), 73);
        sim.warm_up_ok(10_000);
        let _ = sim.run_ok(10_000);
        let rob = sim.rob_occupancy();
        assert!(rob.count() > 1_000, "one sample per cycle");
        assert!(rob.mean() > 1.0, "the ROB is never persistently empty");
        let del = sim.delivery_rate();
        assert!(del.count() == rob.count());
        assert!(
            del.mean() > 0.5,
            "deliveries happen most cycles: mean {}",
            del.mean()
        );
        assert!(
            del.quantile(1.0) <= 16,
            "delivery bounded by 2x fetch width"
        );
    }

    #[test]
    fn registry_workload_runs_end_to_end() {
        let w = workloads::by_name("641.leela").expect("registered");
        let mut sim = Simulator::try_for_workload(SimConfig::baseline(FetchArch::Dcf), &w)
            .expect("valid config");
        let s = sim.run_ok(20_000);
        assert!(s.ipc() > 0.1);
        assert!(
            s.branch_mpki() > 2.0,
            "leela must be a high-MPKI model: {}",
            s.branch_mpki()
        );
    }

    #[test]
    fn watchdog_flushes_are_rare() {
        let mut sim = mini_sim(SimConfig::baseline(FetchArch::Elf(ElfVariant::U)), 31);
        let s = sim.run_ok(50_000);
        let per_ki = s.backend.watchdog_flushes as f64 * 1000.0 / s.retired as f64;
        assert!(
            per_ki < 2.0,
            "watchdog flushes should be a rare safety net: {per_ki}/KI"
        );
    }

    #[test]
    fn exhausted_progress_cap_reports_a_wedge() {
        let mut cfg = SimConfig::baseline(FetchArch::Dcf);
        // A cap far below the cycles any real run needs: the simulator must
        // return a structured wedge report instead of spinning or panicking.
        cfg.progress_cap_base = 50;
        cfg.progress_cap_per_inst = 0;
        let mut sim = mini_sim(cfg, 41);
        let err = sim.run(1_000_000).expect_err("cap must trip");
        let report = err.report().expect("wedge carries a report");
        assert_eq!(report.target, 1_000_000);
        assert!(report.cycle >= 50);
        assert!(report.retired < 1_000_000);
        let rendered = err.to_string();
        assert!(rendered.contains("diagnostic report"), "{rendered}");
        assert!(rendered.contains("cycle"), "{rendered}");
    }

    #[test]
    fn try_from_program_rejects_invalid_config() {
        let mut cfg = SimConfig::baseline(FetchArch::Dcf);
        cfg.backend.rob_entries = 0;
        let prog = Arc::new(elf_trace::synthesize(&mini_spec(43)));
        let err = Simulator::try_from_program(cfg, prog, 43).expect_err("invalid");
        assert!(matches!(err, SimError::InvalidConfig { .. }), "{err}");
    }

    /// `try_from_program` and `restore` of a snapshot carrying the
    /// configuration both return `InvalidConfig` naming `field`.
    fn assert_geometry_rejected(field: &str, edit: impl Fn(&mut SimConfig)) {
        let prog = Arc::new(elf_trace::synthesize(&mini_spec(43)));
        let mut cfg = SimConfig::baseline(FetchArch::Dcf);
        edit(&mut cfg);
        match Simulator::try_from_program(cfg.clone(), Arc::clone(&prog), 43) {
            Err(SimError::InvalidConfig { reason }) => assert!(reason.contains(field), "{reason}"),
            Err(e) => panic!("{field}: expected InvalidConfig, got {e}"),
            Ok(_) => panic!("{field}: degenerate geometry accepted"),
        }
        let mut sim = Simulator::try_from_program(SimConfig::baseline(FetchArch::Dcf), prog, 43)
            .expect("valid config");
        let mut snap = sim.checkpoint();
        snap.cfg = cfg;
        let snap = crate::snapshot::Snapshot::from_bytes(&snap.to_bytes()).expect("parses");
        match Simulator::restore(&snap) {
            Err(SimError::InvalidConfig { reason }) => assert!(reason.contains(field), "{reason}"),
            Err(e) => panic!("{field}: expected InvalidConfig on restore, got {e}"),
            Ok(_) => panic!("{field}: restore accepted a degenerate geometry"),
        }
    }

    #[test]
    fn zero_cache_ways_are_rejected() {
        assert_geometry_rejected("mem.l1d.ways", |c| c.mem.l1d.ways = 0);
    }

    #[test]
    fn zero_cache_line_size_is_rejected() {
        assert_geometry_rejected("mem.l2.line_bytes", |c| c.mem.l2.line_bytes = 0);
    }

    #[test]
    fn non_power_of_two_line_size_is_rejected() {
        assert_geometry_rejected("mem.l1i.line_bytes", |c| c.mem.l1i.line_bytes = 48);
    }

    #[test]
    fn cache_smaller_than_one_set_is_rejected() {
        assert_geometry_rejected("mem.l1d.size_bytes", |c| c.mem.l1d.size_bytes = 64);
    }

    #[test]
    fn zero_btb_ways_are_rejected() {
        assert_geometry_rejected("frontend.btb.l2_ways", |c| c.frontend.btb.l2_ways = 0);
    }

    #[test]
    fn empty_frontend_queues_and_tables_are_rejected() {
        assert_geometry_rejected("frontend.faq_entries", |c| c.frontend.faq_entries = 0);
        assert_geometry_rejected("frontend.ras_entries", |c| c.frontend.ras_entries = 0);
        assert_geometry_rejected("frontend.cpl_ras_entries", |c| {
            c.frontend.cpl_ras_entries = 0;
        });
        assert_geometry_rejected("frontend.cpl_btc_entries", |c| {
            c.frontend.cpl_btc_entries = 0;
        });
        assert_geometry_rejected("frontend.cpl_bimodal_entries", |c| {
            c.frontend.cpl_bimodal_entries = 0;
        });
    }

    #[test]
    fn coupled_predictor_widths_are_rejected() {
        assert_geometry_rejected("frontend.cpl_bimodal_bits", |c| {
            c.frontend.cpl_bimodal_bits = 0;
        });
        assert_geometry_rejected("frontend.cpl_bimodal_bits", |c| {
            c.frontend.cpl_bimodal_bits = 9;
        });
        assert_geometry_rejected("hist_bits", |c| {
            c.frontend.cpl_cond_kind = CoupledCondKind::Gshare { hist_bits: 40 };
        });
        // Only the predictor that is built has its width checked: gshare
        // never reads the bimodal counter width.
        let mut cfg = SimConfig::baseline(FetchArch::Elf(ElfVariant::U));
        cfg.frontend.cpl_cond_kind = CoupledCondKind::Gshare { hist_bits: 12 };
        cfg.frontend.cpl_bimodal_bits = 9;
        mini_sim(cfg, 43).run_ok(2_000);
    }

    #[test]
    fn tage_geometries_that_cannot_fold_are_rejected() {
        assert_geometry_rejected("frontend.tage.table_bits", |c| {
            c.frontend.tage.table_bits = 0;
        });
        assert_geometry_rejected("frontend.tage.tag_bits", |c| c.frontend.tage.tag_bits = 1);
        assert_geometry_rejected("frontend.tage.tag_bits", |c| c.frontend.tage.tag_bits = 20);
        assert_geometry_rejected("frontend.tage.hist_lens", |c| {
            c.frontend.tage.hist_lens.push(200);
        });
        assert_geometry_rejected("frontend.tage.hist_lens", |c| {
            c.frontend.tage.hist_lens = vec![128, 4];
        });
        assert_geometry_rejected("frontend.tage.hist_lens", |c| {
            c.frontend.tage.hist_lens = vec![4; 17];
        });
    }

    #[test]
    fn loads_past_the_completion_ring_are_exact_across_skips_and_restores() {
        // 700-cycle DRAM misses complete past the back-end's 256-cycle
        // completion ring, so they wait in its overflow list.
        let mut cfg = SimConfig::baseline(FetchArch::Elf(ElfVariant::U));
        cfg.mem.dram_latency = 700;
        let second_leg = |idle_skip: bool| {
            let mut c = cfg.clone();
            c.idle_skip = idle_skip;
            let mut sim = mini_sim(c, 23);
            sim.run_ok(6_000);
            sim.run_ok(6_000)
        };
        let want = second_leg(false);
        assert_eq!(second_leg(true), want, "idle skipping moved the stats");

        let mut head = mini_sim(cfg, 23);
        head.run_ok(6_000);
        assert!(
            head.be.overflow_events() > 0,
            "no load was past the ring at the checkpoint"
        );
        let mut resumed = Simulator::restore(&head.checkpoint()).expect("snapshot restores");
        assert_eq!(resumed.run_ok(6_000), want, "the restored run diverged");
    }

    #[test]
    fn try_from_program_rejects_a_malformed_program() {
        // A one-instruction image whose direct jump leaves the image.
        let base = 0x1000;
        let mut jmp = StaticInst::simple(base, InstClass::Branch(BranchKind::UncondDirect));
        jmp.target = Some(0xdead_0000);
        let prog = Program::new("escaping-jump", base, base, vec![jmp], Vec::new(), 0);
        match Simulator::try_from_program(SimConfig::baseline(FetchArch::Dcf), Arc::new(prog), 1) {
            Err(SimError::MalformedProgram { program, issues }) => {
                assert_eq!(program, "escaping-jump");
                assert_eq!(
                    issues,
                    vec![ProgramIssue::TargetOutsideImage {
                        pc: base,
                        target: 0xdead_0000
                    }]
                );
            }
            Err(e) => panic!("expected MalformedProgram, got {e}"),
            Ok(_) => panic!("a jump outside the image was accepted"),
        }
    }

    #[test]
    fn fault_injection_is_deterministic() {
        let run = |seed| {
            let mut cfg = SimConfig::baseline(FetchArch::Elf(ElfVariant::U));
            cfg.fault = Some(FaultPlan::uniform(40, seed));
            let mut sim = mini_sim(cfg, 47);
            let s = sim.run(20_000).expect("survivable fault rate");
            (s.cycles, s.retired, sim.fault_counts())
        };
        assert_eq!(run(7), run(7));
        let (c_a, _, counts) = run(7);
        let (c_b, _, _) = run(8);
        assert!(counts.iter().sum::<u64>() > 0, "faults must actually fire");
        assert_ne!(c_a, c_b, "different fault seeds perturb timing");
    }

    #[test]
    fn empty_fault_plan_matches_no_plan_bit_for_bit() {
        let run = |fault| {
            let mut cfg = SimConfig::baseline(FetchArch::Elf(ElfVariant::U));
            cfg.fault = fault;
            let mut sim = mini_sim(cfg, 53);
            let s = sim.run_ok(20_000);
            (s.cycles, s.retired, s.cond_mispredicts)
        };
        assert_eq!(run(None), run(Some(FaultPlan::new(99))));
    }

    #[test]
    fn recorder_captures_flush_events_during_a_run() {
        let mut cfg = SimConfig::baseline(FetchArch::Elf(ElfVariant::U));
        cfg.recorder_events = 32;
        let mut sim = mini_sim(cfg, 59);
        let _ = sim.run_ok(20_000);
        let rec = sim.recorder();
        assert!(
            rec.total_recorded() > 0,
            "a real run produces pipeline events"
        );
        assert!(rec.len() <= 32);
        assert!(rec
            .events()
            .any(|e| matches!(e.event, PipelineEvent::Flush { .. })));
    }

    #[test]
    fn stats_stay_consistent_under_faults() {
        let mut cfg = SimConfig::baseline(FetchArch::Elf(ElfVariant::L));
        cfg.fault = Some(FaultPlan::uniform(80, 3));
        let mut sim = mini_sim(cfg, 61);
        let s = sim.run(20_000).expect("survivable fault rate");
        assert!(s.retired >= 20_000);
        assert!(
            s.retired <= s.frontend.delivered,
            "cannot retire more than the front-end delivered"
        );
        assert!(s.cycles > 0);
    }
}
