//! Simulator configuration (Table II).

use crate::error::SimError;
use crate::fault::FaultPlan;
use elf_frontend::{CoupledCondKind, FetchArch, FrontendConfig};
use elf_mem::MemConfig;

/// Out-of-order back-end parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendConfig {
    /// Reorder buffer entries (Table II: 256).
    pub rob_entries: usize,
    /// Issue queue entries (128).
    pub iq_entries: usize,
    /// Load/store queue entries (128).
    pub lsq_entries: usize,
    /// Physical register file entries (256).
    pub prf_entries: usize,
    /// Fetch-through-rename width (8).
    pub rename_width: usize,
    /// Decode/rename queue capacity: the front-end stalls when this many
    /// decoded instructions are waiting to dispatch (fetch backpressure).
    pub dispatch_q_entries: usize,
    /// Issue-through-commit width (9).
    pub issue_width: usize,
    /// Commit width (9).
    pub commit_width: usize,
    /// Simple-ALU-capable ports (4, of which `muldiv_ports` do mul/div).
    pub alu_ports: usize,
    /// Mul/div-capable ALU ports (2).
    pub muldiv_ports: usize,
    /// Load/store AGU ports (2).
    pub ldst_ports: usize,
    /// SIMD ports (2).
    pub simd_ports: usize,
    /// Decode-to-dispatch depth in cycles (rename stages).
    pub rename_latency: u32,
    /// Execute-to-frontend-redirect latency in cycles.
    pub redirect_latency: u32,
    /// Integer multiply latency.
    pub mul_latency: u32,
    /// Integer divide latency.
    pub div_latency: u32,
    /// SIMD/FP latency.
    pub simd_latency: u32,
    /// Cycles a wrong-path ROB-head watchdog waits before forcing a resync
    /// flush. This models the paper's post-switch misfetch check (Fig. 5
    /// cycle 2: counts fail to line up -> resteer), so it is short.
    pub watchdog_cycles: u32,
}

elf_types::snap_struct!(BackendConfig {
    rob_entries,
    iq_entries,
    lsq_entries,
    prf_entries,
    rename_width,
    dispatch_q_entries,
    issue_width,
    commit_width,
    alu_ports,
    muldiv_ports,
    ldst_ports,
    simd_ports,
    rename_latency,
    redirect_latency,
    mul_latency,
    div_latency,
    simd_latency,
    watchdog_cycles,
});

impl BackendConfig {
    /// The Table II configuration. With the 5 front-end stages (BP1, BP2,
    /// FAQ, FE, DEC) this yields the paper's 11-cycle minimum BP1→EXE
    /// branch-resolution loop.
    #[must_use]
    pub fn paper() -> Self {
        BackendConfig {
            rob_entries: 256,
            iq_entries: 128,
            lsq_entries: 128,
            prf_entries: 256,
            rename_width: 8,
            dispatch_q_entries: 16,
            issue_width: 9,
            commit_width: 9,
            alu_ports: 4,
            muldiv_ports: 2,
            ldst_ports: 2,
            simd_ports: 2,
            rename_latency: 2,
            redirect_latency: 2,
            mul_latency: 3,
            div_latency: 12,
            simd_latency: 2,
            watchdog_cycles: 8,
        }
    }
}

impl Default for BackendConfig {
    fn default() -> Self {
        BackendConfig::paper()
    }
}

/// Complete simulator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Fetch architecture under study.
    pub arch: FetchArch,
    /// Front-end parameters.
    pub frontend: FrontendConfig,
    /// Memory hierarchy parameters.
    pub mem: MemConfig,
    /// Back-end parameters.
    pub backend: BackendConfig,
    /// Forward-progress cap: `Simulator::run(n)` returns
    /// [`SimError::Wedged`] if `progress_cap_base + n *
    /// progress_cap_per_inst` cycles elapse before `n` instructions
    /// retire. The cap bounds runaway simulations (a wedged pipeline, a
    /// pathological configuration) — at the baseline IPC of ~1-3 a healthy
    /// run stays far below it. Default 200_000.
    pub progress_cap_base: u64,
    /// Per-instruction component of the forward-progress cap (cycles per
    /// targeted retirement; effectively a minimum tolerated IPC of
    /// 1/`progress_cap_per_inst`). Default 400.
    pub progress_cap_per_inst: u64,
    /// Optional deterministic fault-injection schedule. `None` (the
    /// default) injects nothing and leaves simulation bit-identical to a
    /// plan-free build.
    pub fault: Option<FaultPlan>,
    /// Skip provably idle cycles (front-end waiting on a miss, back-end
    /// drained or blocked) by advancing simulated time to the next event
    /// and charging per-cycle statistics in bulk. Statistics are
    /// bit-identical either way (`tests/perf_equivalence.rs` pins this);
    /// disabling it forces the reference cycle-by-cycle walk. Default on.
    pub idle_skip: bool,
    /// Flight-recorder capacity: how many recent pipeline events are
    /// retained for diagnostic reports (0 disables retention). Default 64.
    pub recorder_events: usize,
    /// Collect the cycle-attribution metrics of [`crate::metrics`]
    /// (per-cycle fetch-bubble taxonomy, mode occupancy, resync/flush
    /// latency histograms). Off by default: when disabled the simulator
    /// pays a single branch per tick and `SimStats` are bit-identical
    /// either way (`tests/metrics.rs` pins this).
    pub metrics: bool,
    /// Run per-tick structural invariant checks (FAQ occupancy bounds, RAS
    /// counter coherence, legal mode transitions, fid monotonicity in
    /// delivered groups, in-flight branch-history fids, divergence-queue
    /// capacity) and fail the run with
    /// [`SimError::InvariantViolation`] on the first violation. Off by
    /// default: when disabled the simulator pays a single branch per tick
    /// and `SimStats` are bit-identical either way (`tests/differential.rs`
    /// pins this). The checks are read-only, so enabling them never changes
    /// simulated behaviour — only whether a latent bug aborts the run.
    pub check: bool,
}

elf_types::snap_struct!(SimConfig {
    arch,
    frontend,
    mem,
    backend,
    progress_cap_base,
    progress_cap_per_inst,
    fault,
    idle_skip,
    recorder_events,
    metrics,
    check,
});

impl SimConfig {
    /// The Table II baseline with the given fetch architecture.
    #[must_use]
    pub fn baseline(arch: FetchArch) -> Self {
        SimConfig {
            arch,
            frontend: FrontendConfig::paper(),
            mem: MemConfig::paper(),
            backend: BackendConfig::paper(),
            progress_cap_base: 200_000,
            progress_cap_per_inst: 400,
            fault: None,
            idle_skip: true,
            recorder_events: 64,
            metrics: false,
            check: false,
        }
    }

    /// Checks that the configuration describes a runnable machine.
    ///
    /// These are the structural mistakes reachable from the public
    /// construction API: zero-width pipelines, a cap that can never be met,
    /// cache or BTB geometries no component could be built from (zero
    /// sizes or ways, caches smaller than one set, line sizes that are not
    /// a power of two), empty front-end queues and predictor tables, TAGE
    /// geometries whose history folds or tags do not fit, and
    /// coupled-predictor widths the built predictor cannot hold.
    pub fn validate(&self) -> Result<(), SimError> {
        let f = &self.frontend;
        let b = &self.backend;
        let mut problems: Vec<String> = [
            (f.fetch_width, "frontend.fetch_width"),
            (f.faq_entries, "frontend.faq_entries"),
            (f.ras_entries, "frontend.ras_entries"),
            (f.cpl_bimodal_entries, "frontend.cpl_bimodal_entries"),
            (f.cpl_btc_entries, "frontend.cpl_btc_entries"),
            (f.cpl_ras_entries, "frontend.cpl_ras_entries"),
            (b.rob_entries, "backend.rob_entries"),
            (b.commit_width, "backend.commit_width"),
            (b.rename_width, "backend.rename_width"),
            (b.dispatch_q_entries, "backend.dispatch_q_entries"),
            (b.alu_ports, "backend.alu_ports"),
            (b.ldst_ports, "backend.ldst_ports"),
        ]
        .into_iter()
        .filter(|&(n, _)| n == 0)
        .map(|(_, field)| format!("{field} must be at least 1"))
        .collect();
        if self.progress_cap_base == 0 && self.progress_cap_per_inst == 0 {
            problems.push(
                "progress cap is zero: every run would report a wedge immediately".to_string(),
            );
        }
        let m = &self.mem;
        for (name, c) in [
            ("mem.l0i", &m.l0i),
            ("mem.l1i", &m.l1i),
            ("mem.l1d", &m.l1d),
            ("mem.l2", &m.l2),
            ("mem.l3", &m.l3),
        ] {
            if let Some(e) = c.geometry_error() {
                problems.push(format!("{name}.{e}"));
            }
        }
        if let Some(e) = f.btb.geometry_error() {
            problems.push(format!("frontend.btb.{e}"));
        }
        if let Some(e) = f.tage.geometry_error() {
            problems.push(format!("frontend.tage.{e}"));
        }
        match f.cpl_cond_kind {
            CoupledCondKind::Bimodal if !(1..=7).contains(&f.cpl_bimodal_bits) => {
                problems.push(format!(
                    "frontend.cpl_bimodal_bits must be 1..=7 for the bimodal coupled \
                     predictor (got {})",
                    f.cpl_bimodal_bits
                ));
            }
            CoupledCondKind::Gshare { hist_bits } if hist_bits > 32 => {
                problems.push(format!(
                    "frontend.cpl_cond_kind gshare hist_bits must be at most 32 (got {hist_bits})"
                ));
            }
            _ => {}
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(SimError::InvalidConfig {
                reason: problems.join("; "),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_backend_matches_table2() {
        let b = BackendConfig::paper();
        assert_eq!(b.rob_entries, 256);
        assert_eq!(b.iq_entries, 128);
        assert_eq!(b.lsq_entries, 128);
        assert_eq!(b.prf_entries, 256);
        assert_eq!(b.rename_width, 8);
        assert_eq!(b.issue_width, 9);
        assert_eq!(b.alu_ports, 4);
        assert_eq!(b.muldiv_ports, 2);
        assert_eq!(b.ldst_ports, 2);
        assert_eq!(b.simd_ports, 2);
    }

    #[test]
    fn bp1_to_exe_is_about_11_cycles() {
        // 5 front-end stages + rename + issue + execute + redirect ≈ 11.
        let b = BackendConfig::paper();
        let fe_stages = 5;
        let depth = fe_stages + b.rename_latency + 1 + 1 + b.redirect_latency;
        assert!((10..=12).contains(&depth), "BP1→EXE loop = {depth}");
    }

    #[test]
    fn baseline_config_composes() {
        let c = SimConfig::baseline(FetchArch::Dcf);
        assert_eq!(c.arch, FetchArch::Dcf);
        assert_eq!(c.frontend.fetch_width, 8);
        assert_eq!(c.mem.dram_latency, 250);
        assert_eq!(c.progress_cap_base, 200_000);
        assert_eq!(c.progress_cap_per_inst, 400);
        assert!(c.fault.is_none());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_zero_width_machines() {
        let mut c = SimConfig::baseline(FetchArch::Dcf);
        c.backend.rob_entries = 0;
        c.backend.commit_width = 0;
        let err = c.validate().unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("rob_entries") && msg.contains("commit_width"),
            "{msg}"
        );
    }
}
