//! Aggregate simulation statistics.

use crate::backend::BackendStats;
use elf_btb::BtbStats;
use elf_frontend::FrontendStats;
use elf_mem::MemStats;

/// Everything measured over a simulation window (after warm-up reset).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Conditional branches retired.
    pub cond_branches: u64,
    /// Conditional branches whose fetch-time direction was wrong.
    pub cond_mispredicts: u64,
    /// All branches retired.
    pub branches: u64,
    /// Taken branches retired.
    pub taken_branches: u64,
    /// Returns retired.
    pub returns: u64,
    /// Indirect branches (incl. returns) with a wrong predicted target.
    pub indirect_mispredicts: u64,
    /// Front-end statistics.
    pub frontend: FrontendStats,
    /// BTB statistics.
    pub btb: BtbStats,
    /// Memory-system statistics.
    pub mem: MemStats,
    /// Back-end statistics.
    pub backend: BackendStats,
    /// Mean FAQ occupancy in blocks.
    pub faq_occupancy: f64,
    /// Per-cache (hits, misses): L0I, L1I, L1D, L2, L3.
    pub caches: [(u64, u64); 5],
    /// Memory-dependence predictor (trainings, hits).
    pub memdep: (u64, u64),
    /// Flight-recorder events no longer retained (ring saturation),
    /// cumulative since construction — nonzero means diagnostic reports
    /// show a truncated event history and a larger
    /// `SimConfig::recorder_events` would retain more context.
    pub recorder_dropped: u64,
}

impl SimStats {
    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// Conditional-branch-direction mispredictions per kilo-instruction
    /// (the secondary axis of Figures 6 and 7).
    #[must_use]
    pub fn branch_mpki(&self) -> f64 {
        if self.retired == 0 {
            0.0
        } else {
            self.cond_mispredicts as f64 * 1000.0 / self.retired as f64
        }
    }

    /// All-flush rate per kilo-instruction.
    #[must_use]
    pub fn flush_pki(&self) -> f64 {
        if self.retired == 0 {
            return 0.0;
        }
        let flushes = self.backend.mispredict_flushes
            + self.backend.raw_flushes
            + self.backend.watchdog_flushes;
        flushes as f64 * 1000.0 / self.retired as f64
    }
}

impl SimStats {
    /// Renders a multi-line human-readable report (used by the `elfsim`
    /// CLI and the examples).
    #[must_use]
    pub fn report(&self) -> String {
        let ki = (self.retired as f64 / 1000.0).max(1e-9);
        let mut s = String::new();
        let mut line = |t: String| {
            s.push_str(&t);
            s.push('\n');
        };
        line(format!(
            "retired {} insts in {} cycles  ->  IPC {:.3}",
            self.retired,
            self.cycles,
            self.ipc()
        ));
        line(format!(
            "branches: {} cond ({} mispredicted, {:.1} MPKI), {} taken, {} returns",
            self.cond_branches,
            self.cond_mispredicts,
            self.branch_mpki(),
            self.taken_branches,
            self.returns
        ));
        line(format!(
            "flushes/KI: mispredict {:.1}, RAW {:.2}, watchdog {:.2}; decode resteers/KI {:.1}",
            self.backend.mispredict_flushes as f64 / ki,
            self.backend.raw_flushes as f64 / ki,
            self.backend.watchdog_flushes as f64 / ki,
            self.frontend.decode_resteers as f64 / ki,
        ));
        line(format!(
            "front-end: resteer->delivery {:.1} cycles; FAQ occupancy {:.1}; \
             BP bubbles/KI {:.1}; BTB miss blocks/KI {:.1}",
            self.frontend.mean_resteer_latency(),
            self.faq_occupancy,
            self.frontend.bp_bubbles as f64 / ki,
            self.frontend.btb_miss_blocks as f64 / ki,
        ));
        line(format!(
            "BTB hit rates (cumulative L0/L1/L2): {:.1}% / {:.1}% / {:.1}%",
            self.btb.hit_rate_through(0) * 100.0,
            self.btb.hit_rate_through(1) * 100.0,
            self.btb.hit_rate_through(2) * 100.0,
        ));
        if self.frontend.coupled_periods > 0 {
            line(format!(
                "ELF: {} coupled periods, avg {:.1} insts each, {:.1}% of cycles coupled, \
                 {} divergences ({} trusted DCF)",
                self.frontend.coupled_periods,
                self.frontend.avg_coupled_insts(),
                self.frontend.coupled_cycle_fraction() * 100.0,
                self.frontend.divergences_dcf + self.frontend.divergences_fetcher,
                self.frontend.divergences_dcf,
            ));
        }
        line(format!(
            "memory: L0I misses/KI {:.1}, L1I misses/KI {:.1}, L1D misses/KI {:.1}, \
             I-prefetches {}, D-prefetches {}",
            self.mem.l0i_misses as f64 / ki,
            self.mem.l1i_misses as f64 / ki,
            self.mem.l1d_misses as f64 / ki,
            self.mem.ipf_issued,
            self.mem.dpf_issued,
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics_handle_zero_windows() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.branch_mpki(), 0.0);
        assert_eq!(s.flush_pki(), 0.0);
    }

    #[test]
    fn report_mentions_the_headline_numbers() {
        let s = SimStats {
            cycles: 1000,
            retired: 2500,
            cond_mispredicts: 25,
            ..SimStats::default()
        };
        let r = s.report();
        assert!(r.contains("IPC 2.500"));
        assert!(r.contains("10.0 MPKI"));
    }

    #[test]
    fn derived_metrics_compute() {
        let s = SimStats {
            cycles: 1000,
            retired: 2500,
            cond_mispredicts: 25,
            ..SimStats::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        assert!((s.branch_mpki() - 10.0).abs() < 1e-12);
    }
}
