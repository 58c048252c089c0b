//! Differential correctness harness.
//!
//! Timing bugs in a cycle-level simulator bend performance numbers; *path*
//! bugs silently rewrite the program being measured. This module pins the
//! second class down with two independent mechanisms:
//!
//! * **Commit-stream oracle** ([`commit_stream`], [`functional_stream`],
//!   [`differential_check`]): every fetch architecture, with or without
//!   idle-cycle skipping and across a checkpoint/restore split, must retire
//!   exactly the same `(pc, taken, target)` sequence — and that sequence
//!   must equal an independent one-instruction-per-step functional replay
//!   of the [`elf_trace::Oracle`]. Fault injection perturbs timing and
//!   prediction, never architecture, so the equality holds under fault
//!   plans too.
//! * **In-simulator invariant mode** ([`Checker`], enabled by
//!   [`SimConfig::check`]): per-tick structural assertions on the machine —
//!   FAQ occupancy and head-cursor bounds, RAS counter consistency,
//!   fetch-mode legality, fetch-group id monotonicity, a branch-history
//!   queue holding only in-flight fids in order, divergence bitvector and
//!   target-queue capacity, ROB capacity and the cursor-vs-retired
//!   ordering. All checks
//!   are read-only, so enabling them leaves [`crate::stats::SimStats`]
//!   bit-identical (pinned by `tests/differential.rs`); a violation
//!   surfaces as [`SimError::InvariantViolation`] with the machine state
//!   and the flight-recorder tail.
//!
//! The seeded fuzzer in [`crate::fuzz`] drives both mechanisms over
//! randomized workloads and configurations.

use crate::config::SimConfig;
use crate::error::SimError;
use crate::sim::Simulator;
use elf_frontend::{ElfVariant, FetchArch};
use elf_trace::{Oracle, Program};
use elf_types::{Addr, Cycle};
use std::sync::Arc;

/// Every fetch architecture under study, in a fixed order (the two
/// baselines, then the four single-class ELF variants, then U-ELF).
pub const ALL_ARCHS: [FetchArch; 7] = [
    FetchArch::NoDcf,
    FetchArch::Dcf,
    FetchArch::Elf(ElfVariant::L),
    FetchArch::Elf(ElfVariant::Ret),
    FetchArch::Elf(ElfVariant::Ind),
    FetchArch::Elf(ElfVariant::Cond),
    FetchArch::Elf(ElfVariant::U),
];

/// One retired instruction's architectural control-flow outcome.
///
/// This is the unit of the differential harness: the sequence of commit
/// records is a pure function of the program and the oracle seed, so every
/// simulator configuration must produce the same stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitRecord {
    /// Instruction address.
    pub pc: Addr,
    /// Branch direction (`false` for non-branches).
    pub taken: bool,
    /// Architectural next PC (fall-through or branch target).
    pub target: Addr,
}

/// Replays the first `n` instructions of `prog` functionally — one oracle
/// entry per step, no pipeline — and returns their commit records.
///
/// This is the independent reference the simulated streams are compared
/// against: it shares the oracle's behavior model but none of the
/// simulator's fetch, speculation or recovery machinery.
#[must_use]
pub fn functional_stream(prog: &Arc<Program>, seed: u64, n: u64) -> Vec<CommitRecord> {
    let mut oracle = Oracle::new(Arc::clone(prog), seed);
    let mut out = Vec::with_capacity(usize::try_from(n).unwrap_or(0));
    for seq in 0..n {
        let e = oracle.entry(seq);
        out.push(CommitRecord {
            pc: e.pc,
            taken: e.taken,
            target: e.next_pc,
        });
        // Mirror the simulator's release discipline so the replay window
        // stays O(1) regardless of n.
        oracle.release_before(seq.saturating_sub(1));
    }
    out
}

/// Runs `prog` under `cfg` until `n` instructions retire and returns their
/// commit records, truncated to exactly `n` (a run may overshoot by up to
/// the commit width).
///
/// With `split = Some(k)` (0 < k < n) the run is interrupted after `k`
/// retirements, checkpointed, serialized to bytes, deserialized and
/// restored into a fresh simulator that finishes the window — so the
/// returned stream also witnesses snapshot fidelity.
///
/// # Errors
///
/// Propagates any [`SimError`] from construction, either run segment, or
/// the snapshot round-trip.
pub fn commit_stream(
    cfg: SimConfig,
    prog: &Arc<Program>,
    seed: u64,
    n: u64,
    split: Option<u64>,
) -> Result<Vec<CommitRecord>, SimError> {
    let mut sim = Simulator::try_from_program(cfg, Arc::clone(prog), seed)?;
    sim.record_commits();
    let mut log = Vec::new();
    if let Some(at) = split.filter(|&s| s > 0 && s < n) {
        sim.run(at)?;
        log.extend(sim.take_commits());
        let bytes = sim.checkpoint().to_bytes();
        sim = Simulator::restore(&crate::snapshot::Snapshot::from_bytes(&bytes)?)?;
        sim.record_commits();
        let done = sim.retired();
        if done < n {
            sim.run(n - done)?;
        }
        log.extend(sim.take_commits());
    } else {
        sim.run(n)?;
        log = sim.take_commits();
    }
    log.truncate(usize::try_from(n).unwrap_or(usize::MAX));
    Ok(log)
}

/// Describes the first position where two commit streams disagree
/// (`None` when `a` is a prefix of `b` or vice versa and the shared prefix
/// matches — callers compare equal-length windows, so a length mismatch is
/// also reported).
#[must_use]
pub fn first_divergence(
    label_a: &str,
    a: &[CommitRecord],
    label_b: &str,
    b: &[CommitRecord],
) -> Option<String> {
    for (i, (ra, rb)) in a.iter().zip(b.iter()).enumerate() {
        if ra != rb {
            return Some(format!(
                "commit streams diverge at instruction {i}: {label_a} retired \
                 pc={:#x} taken={} target={:#x}, {label_b} retired pc={:#x} \
                 taken={} target={:#x}",
                ra.pc, ra.taken, ra.target, rb.pc, rb.taken, rb.target
            ));
        }
    }
    if a.len() != b.len() {
        return Some(format!(
            "commit streams agree for {} instructions but {label_a} has {} \
             records and {label_b} has {}",
            a.len().min(b.len()),
            a.len(),
            b.len()
        ));
    }
    None
}

/// Cross-variant differential check: runs `prog` for `n` instructions on
/// every architecture in [`ALL_ARCHS`], with idle-cycle skipping off and
/// on, and with and without a checkpoint/restore split at `n / 2` — all
/// with invariant checking enabled — and asserts every retired stream
/// equals the functional replay.
///
/// # Errors
///
/// Returns a description of the first divergence, simulator error or
/// invariant violation.
pub fn differential_check(prog: &Arc<Program>, seed: u64, n: u64) -> Result<(), String> {
    let reference = functional_stream(prog, seed, n);
    for arch in ALL_ARCHS {
        for idle_skip in [false, true] {
            for split in [None, Some(n / 2)] {
                let mut cfg = SimConfig::baseline(arch);
                cfg.idle_skip = idle_skip;
                cfg.check = true;
                let label = format!(
                    "{}{}{}",
                    arch.label(),
                    if idle_skip { "+skip" } else { "" },
                    if split.is_some() { "+split" } else { "" }
                );
                let stream = commit_stream(cfg, prog, seed, n, split)
                    .map_err(|e| format!("{label}: {e}"))?;
                if let Some(d) = first_divergence("functional replay", &reference, &label, &stream)
                {
                    return Err(d);
                }
            }
        }
    }
    Ok(())
}

/// Per-tick structural invariant checker (the machinery behind
/// [`SimConfig::check`]).
///
/// The simulator owns one of these (boxed, `None` when checking is off —
/// the same zero-cost-when-disabled shape as the metrics registry) and
/// feeds it read-only observations: each delivered fetch-group id, and an
/// end-of-tick summary of the machine. The checker records the *first*
/// violation; [`Simulator::run`] turns it into
/// [`SimError::InvariantViolation`] right after the offending tick, while
/// the machine state is still inspectable.
///
/// Checker state (`last_fid`, `prev_mode`) is part of a checkpoint — a
/// restored run continues the monotonicity and transition checks where the
/// original left off. A recorded violation is deliberately *not*
/// serialized: `run` surfaces it immediately, so it can never be live at a
/// checkpoint taken between calls.
#[derive(Debug, Default)]
pub struct Checker {
    /// Highest fetch-group id seen in a delivered group (fids are allocated
    /// from a never-reset counter, so delivery order must be strictly
    /// increasing).
    last_fid: u64,
    /// Previous end-of-tick mode index (0 = decoupled, 1 = coupled,
    /// 2 = resyncing); `None` until the first checked tick.
    prev_mode: Option<u8>,
    /// First violation observed, with the cycle it happened on.
    violation: Option<(Cycle, String)>,
}

impl Checker {
    /// A fresh checker (no history, no violation).
    #[must_use]
    pub fn new() -> Self {
        Checker::default()
    }

    /// The first recorded violation, if any.
    #[must_use]
    pub fn violation(&self) -> Option<&str> {
        self.violation.as_ref().map(|(_, what)| what.as_str())
    }

    /// Records a violation (keeping the first one).
    pub(crate) fn fail(&mut self, now: Cycle, what: String) {
        if self.violation.is_none() {
            self.violation = Some((now, what));
        }
    }

    /// Checks one delivered fetch group's id against the monotonicity
    /// invariant.
    pub(crate) fn observe_delivery(&mut self, now: Cycle, fid: u64) {
        if fid <= self.last_fid {
            self.fail(
                now,
                format!(
                    "delivered fetch group fid {fid} not above the last \
                     delivered fid {} (fids are allocated monotonically and \
                     never reset)",
                    self.last_fid
                ),
            );
        }
        self.last_fid = fid;
    }

    /// Checks the end-of-tick mode index against the transition rules.
    /// `elf` is whether the architecture can resynchronize at all (the
    /// arch-constant mode rules for NoDCF/DCF live in
    /// `Frontend::invariant_violation`).
    pub(crate) fn observe_mode(&mut self, now: Cycle, mode: u8, elf: bool) {
        if let Some(prev) = self.prev_mode {
            // Resyncing (coupled + stalled on an unpredictable branch) is
            // only reachable from coupled mode: the stall is raised by the
            // coupled fetch stage, so a decoupled tick cannot end stalled
            // on the very next observation without passing through plain
            // coupled mode first.
            if elf && prev == 0 && mode == 2 {
                self.fail(
                    now,
                    "fetch mode jumped from decoupled straight to resyncing \
                     (a resync stall can only be raised while already \
                     coupled)"
                        .to_owned(),
                );
            }
        }
        self.prev_mode = Some(mode);
    }

    /// Saves or restores the checker's history. A recorded violation is
    /// not state (see the type docs): loading clears it.
    pub(crate) fn state(
        &mut self,
        io: &mut impl elf_types::StateIo,
    ) -> Result<(), elf_types::SnapError> {
        io.value(&mut self.last_fid)?;
        io.value(&mut self.prev_mode)?;
        if io.loading() {
            self.violation = None;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_fids_pass() {
        let mut c = Checker::new();
        for fid in [1, 2, 5, 9] {
            c.observe_delivery(10, fid);
        }
        assert_eq!(c.violation(), None);
    }

    #[test]
    fn repeated_or_regressing_fid_is_a_violation() {
        let mut c = Checker::new();
        c.observe_delivery(3, 7);
        c.observe_delivery(4, 7);
        let what = c.violation().expect("duplicate fid must be caught");
        assert!(what.contains("fid 7"), "unexpected message: {what}");

        let mut c = Checker::new();
        c.observe_delivery(3, 9);
        c.observe_delivery(4, 2);
        assert!(c.violation().is_some(), "regressing fid must be caught");
    }

    #[test]
    fn first_violation_is_kept() {
        let mut c = Checker::new();
        c.fail(1, "first".to_owned());
        c.fail(2, "second".to_owned());
        assert_eq!(c.violation(), Some("first"));
    }

    #[test]
    fn decoupled_to_resyncing_jump_is_a_violation() {
        let mut c = Checker::new();
        c.observe_mode(1, 0, true);
        c.observe_mode(2, 2, true);
        assert!(c.violation().is_some());

        // …but the same observation through coupled mode is legal.
        let mut c = Checker::new();
        for (cyc, m) in [(1, 0), (2, 1), (3, 2), (4, 0)] {
            c.observe_mode(cyc, m, true);
        }
        assert_eq!(c.violation(), None);
    }

    #[test]
    fn checker_history_round_trips() {
        let mut c = Checker::new();
        c.observe_delivery(5, 42);
        c.observe_mode(5, 1, true);
        let mut w = elf_types::SnapWriter::new();
        c.state(&mut w).expect("save succeeds");
        let bytes = w.into_bytes();
        let mut r = elf_types::SnapReader::new(&bytes);
        let mut c2 = Checker::new();
        c2.state(&mut r).expect("load succeeds");
        assert_eq!(r.remaining(), 0);
        assert_eq!(c2.last_fid, 42);
        assert_eq!(c2.prev_mode, Some(1));
        // A restored checker keeps enforcing monotonicity from where the
        // original left off.
        c2.observe_delivery(6, 42);
        assert!(c2.violation().is_some());
    }

    #[test]
    fn divergence_reports_index_and_both_records() {
        let a = [CommitRecord {
            pc: 0x1000,
            taken: true,
            target: 0x2000,
        }];
        let b = [CommitRecord {
            pc: 0x1000,
            taken: false,
            target: 0x1004,
        }];
        let d = first_divergence("left", &a, "right", &b).expect("streams differ");
        assert!(d.contains("instruction 0"), "missing index: {d}");
        assert!(d.contains("left") && d.contains("right"), "labels: {d}");
        assert_eq!(first_divergence("left", &a, "also-left", &a), None);
    }

    #[test]
    fn length_mismatch_is_reported() {
        let r = CommitRecord {
            pc: 0x40,
            taken: false,
            target: 0x44,
        };
        let d = first_divergence("short", &[r], "long", &[r, r]).expect("lengths differ");
        assert!(d.contains("1 records") && d.contains("2"), "message: {d}");
    }
}
