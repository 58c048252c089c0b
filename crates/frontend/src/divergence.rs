//! U-ELF divergence tracking: bitvectors and target queues (paper §IV-C2).
//!
//! While the fetcher runs in coupled mode with its own (simple) predictors,
//! it may leave the path the DCF will eventually produce. Two per-instruction
//! bitvectors — one populated after Decode (coupled stream), one at Fetch
//! from arriving FAQ blocks (decoupled stream) — are compared every cycle;
//! taken direct/indirect targets are additionally compared through two
//! 16-entry target queues.
//!
//! Resolution policy on divergence (paper):
//! * direction or indirect-target mismatch → **trust the DCF**: flush
//!   coupled instructions past the divergence point;
//! * direct-branch target mismatch (only possible with stale BTB content,
//!   e.g. self-modifying code) → **trust the fetcher**: flush the DCF;
//! * mismatch against a *BTB-miss proxy* block (the DCF believes the stream
//!   is sequential but the fetcher decoded a taken branch, §IV-C2 case 1) →
//!   **trust the fetcher**.
//!
//! Recording convention: both sides record one slot per instruction of
//! their stream, carrying a [`TargetSlot`] exactly for *taken-predicted*
//! branches. Each record is one bitvector slot and, when taken, its
//! target-queue entry: the bitvector bit is `taken.is_some()`, and the
//! target queue is the taken records in order, so the two can never fall
//! out of step. Only the coupled target queue's 16-entry capacity is kept
//! separately, as a count. This keeps the two streams positionally aligned
//! up to the first divergent control-flow decision, which is exactly where
//! a mismatching pair appears.

use elf_types::{Addr, BranchKind};
use std::collections::VecDeque;

/// One target-queue slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TargetSlot {
    /// Branch kind — decides the winner on a mismatch.
    pub kind: BranchKind,
    /// Predicted (decoupled) or decoded/coupled-predicted target.
    pub target: Addr,
}

/// Outcome of a detected divergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Divergence {
    /// The DCF's path is authoritative: flush coupled instructions with an
    /// id greater than the contained one and resume on the DCF path.
    TrustDcf {
        /// Delivered-instruction id of the diverging coupled instruction.
        fid: u64,
        /// PC of the diverging coupled instruction.
        pc: u64,
        /// The DCF's direction for it.
        dcf_taken: bool,
        /// The DCF's target, when it predicted taken.
        dcf_target: Option<u64>,
    },
    /// The fetcher decoded ground truth (stale BTB / BTB-miss proxy):
    /// flush the DCF and continue fetching in coupled mode.
    TrustFetcher,
}

/// One coupled-stream slot: the delivered instruction and, for a
/// taken-predicted branch, its target-queue entry.
#[derive(Debug, Clone, Copy)]
struct CoupledRec {
    fid: u64,
    pc: u64,
    taken: Option<TargetSlot>,
}

/// One decoupled-stream slot.
#[derive(Debug, Clone, Copy)]
struct DecoupledRec {
    /// Slot produced by a BTB-miss proxy block (DCF had no branch info).
    proxy: bool,
    /// The DCF's kind and target for this slot, if predicted taken.
    taken: Option<TargetSlot>,
}

/// The comparison state. Slots are matched pairwise in order; matching
/// pairs retire immediately (the valid-bit guarded comparison of Fig. 4).
#[derive(Debug, Clone)]
pub struct DivergenceTracker {
    coupled: VecDeque<CoupledRec>,
    decoupled: VecDeque<DecoupledRec>,
    /// Taken records in `coupled`: the coupled target queue's occupancy.
    /// Derived, never written to snapshots.
    coupled_taken: usize,
    vec_capacity: usize,
    tq_capacity: usize,
    divergences: u64,
}

impl DivergenceTracker {
    /// Creates a tracker with the given capacities (Table II: 64-entry
    /// bitvectors, 16-entry target queues).
    #[must_use]
    pub fn new(vec_capacity: usize, tq_capacity: usize) -> Self {
        DivergenceTracker {
            coupled: VecDeque::new(),
            decoupled: VecDeque::new(),
            coupled_taken: 0,
            vec_capacity,
            tq_capacity,
            divergences: 0,
        }
    }

    /// Whether the coupled side may record another instruction (the fetcher
    /// must stall when its bitvector or target queue is full).
    #[must_use]
    pub fn coupled_has_room(&self) -> bool {
        self.coupled.len() < self.vec_capacity && self.coupled_taken < self.tq_capacity
    }

    /// Records one coupled-stream instruction (populated after Decode);
    /// `taken` is the target of a taken-predicted branch, `None` otherwise.
    pub fn record_coupled(&mut self, fid: u64, pc: u64, taken: Option<TargetSlot>) {
        self.coupled_taken += usize::from(taken.is_some());
        self.coupled.push_back(CoupledRec { fid, pc, taken });
    }

    /// Records one decoupled-stream instruction (populated at Fetch from a
    /// FAQ block; `proxy` marks BTB-miss proxy blocks); `taken` as for
    /// [`DivergenceTracker::record_coupled`].
    pub fn record_decoupled(&mut self, proxy: bool, taken: Option<TargetSlot>) {
        self.decoupled.push_back(DecoupledRec { proxy, taken });
    }

    /// Compares sibling slots in program order and retires matching pairs.
    /// Returns the first divergence found, if any. After a divergence the
    /// caller must [`DivergenceTracker::reset`].
    pub fn compare(&mut self) -> Option<Divergence> {
        while let (Some(&c), Some(&d)) = (self.coupled.front(), self.decoupled.front()) {
            let diverged = match (c.taken, d.taken) {
                (None, None) => None,
                (Some(ct), Some(dt)) if ct == dt => None,
                // §IV-C2 case 1: the DCF streamed a sequential proxy while
                // the fetcher decoded a taken branch — the fetcher wins.
                (Some(_), None) if d.proxy => Some(Divergence::TrustFetcher),
                // A branch-kind mismatch (stale BTB type info), or a target
                // mismatch on a direct branch (stale BTB target): the
                // fetcher decoded the real instruction.
                (Some(ct), Some(dt)) if ct.kind != dt.kind || ct.kind.is_direct() => {
                    Some(Divergence::TrustFetcher)
                }
                // A direction mismatch, or an indirect-target mismatch.
                _ => Some(Divergence::TrustDcf {
                    fid: c.fid,
                    pc: c.pc,
                    dcf_taken: d.taken.is_some(),
                    dcf_target: d.taken.map(|t| t.target),
                }),
            };
            if diverged.is_some() {
                self.divergences += 1;
                return diverged;
            }
            self.coupled.pop_front();
            self.decoupled.pop_front();
            self.coupled_taken -= usize::from(c.taken.is_some());
        }
        None
    }

    /// Whether a [`DivergenceTracker::compare`] call would provably return
    /// `None` without mutating anything: the in-order walk exits on its
    /// first iteration when either stream is empty. Used by the idle-cycle
    /// analysis to prove the per-cycle comparison is a no-op.
    #[must_use]
    pub fn compare_is_noop(&self) -> bool {
        self.coupled.is_empty() || self.decoupled.is_empty()
    }

    /// Whether every recorded instruction has been validated — the mode
    /// switch completes only once all coupled instructions have passed
    /// through Decode and matched (paper §IV-C3).
    #[must_use]
    pub fn fully_drained(&self) -> bool {
        self.coupled.is_empty() && self.decoupled.is_empty()
    }

    /// Clears all state (mode switch complete or flush).
    pub fn reset(&mut self) {
        self.coupled.clear();
        self.decoupled.clear();
        self.coupled_taken = 0;
    }

    /// Number of divergences detected since construction.
    #[must_use]
    pub fn divergences(&self) -> u64 {
        self.divergences
    }

    /// Checks the capacity invariants and describes the first violation
    /// (`None` when sound): the coupled bitvector and target queue never
    /// exceed their capacities (recording is gated on
    /// [`DivergenceTracker::coupled_has_room`]), and the target-queue count
    /// matches the taken records. Used by the simulator's invariant mode
    /// (`SimConfig::check`); read-only.
    #[must_use]
    pub fn invariant_violation(&self) -> Option<String> {
        if self.coupled.len() > self.vec_capacity {
            return Some(format!(
                "coupled bitvector holds {} > capacity {}",
                self.coupled.len(),
                self.vec_capacity
            ));
        }
        let taken = self.taken_records();
        if taken != self.coupled_taken {
            return Some(format!(
                "coupled target queue counted as {} for {taken} taken slots",
                self.coupled_taken
            ));
        }
        (taken > self.tq_capacity).then(|| {
            format!(
                "coupled target queue holds {taken} > capacity {}",
                self.tq_capacity
            )
        })
    }

    fn taken_records(&self) -> usize {
        self.coupled.iter().filter(|c| c.taken.is_some()).count()
    }

    /// Saves or restores both streams and the divergence counter; loading
    /// requires a tracker with the same capacities.
    ///
    /// # Errors
    ///
    /// Loading fails on truncated bytes, or on a coupled stream longer than
    /// the bitvector or holding more taken slots than the target queue.
    pub fn state(&mut self, io: &mut impl elf_types::StateIo) -> Result<(), elf_types::SnapError> {
        io.bounded(&mut self.coupled, self.vec_capacity, "coupled bitvector")?;
        io.value(&mut self.decoupled)?;
        io.value(&mut self.divergences)?;
        if io.loading() {
            self.coupled_taken = self.taken_records();
            if self.coupled_taken > self.tq_capacity {
                return Err(elf_types::SnapError::mismatch(format!(
                    "coupled target queue holds {} > capacity {}",
                    self.coupled_taken, self.tq_capacity
                )));
            }
        }
        Ok(())
    }
}

elf_types::snap_struct!(TargetSlot { kind, target });
elf_types::snap_struct!(CoupledRec { fid, pc, taken });
elf_types::snap_struct!(DecoupledRec { proxy, taken });

#[cfg(test)]
mod proptests {
    use super::*;
    use elf_types::BranchKind;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Identical coupled/decoupled streams never diverge and always
        /// drain completely.
        #[test]
        fn matched_streams_never_diverge(
            slots in proptest::collection::vec((any::<bool>(), 0u64..1u64 << 20), 1..64)
        ) {
            let mut t = DivergenceTracker::new(64, 64);
            for (i, &(taken, tgt)) in slots.iter().enumerate() {
                let tq = taken.then_some(TargetSlot {
                    kind: BranchKind::CondDirect,
                    target: tgt,
                });
                t.record_coupled(i as u64, 0x1000 + i as u64 * 4, tq);
                t.record_decoupled(false, tq);
            }
            prop_assert_eq!(t.compare(), None);
            prop_assert!(t.fully_drained());
            prop_assert_eq!(t.divergences(), 0);
        }

        /// Flipping exactly one direction bit always produces a trust-DCF
        /// divergence at that instruction.
        #[test]
        fn single_direction_flip_is_always_detected(
            len in 2usize..40,
            flip in 0usize..40,
        ) {
            let flip = flip % len;
            let mut t = DivergenceTracker::new(64, 64);
            for i in 0..len {
                t.record_coupled(
                    i as u64,
                    0x2000 + i as u64 * 4,
                    (i == flip).then_some(TargetSlot {
                        kind: BranchKind::CondDirect,
                        target: 0x40,
                    }),
                );
                t.record_decoupled(false, None);
            }
            match t.compare() {
                Some(Divergence::TrustDcf { fid, .. }) => prop_assert_eq!(fid, flip as u64),
                other => prop_assert!(false, "expected TrustDcf, got {other:?}"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elf_types::BranchKind::*;

    /// A taken-predicted branch of `kind` to `target`.
    fn taken(kind: BranchKind, target: u64) -> Option<TargetSlot> {
        Some(TargetSlot { kind, target })
    }

    fn tracker() -> DivergenceTracker {
        DivergenceTracker::new(64, 16)
    }

    #[test]
    fn matching_streams_drain() {
        let mut t = tracker();
        for i in 0..10 {
            t.record_coupled(i, 0x100 + i * 4, None);
            t.record_decoupled(false, None);
        }
        t.record_coupled(10, 0x128, taken(CondDirect, 0x100));
        t.record_decoupled(false, taken(CondDirect, 0x100));
        assert_eq!(t.compare(), None);
        assert!(t.fully_drained());
        assert_eq!(t.divergences(), 0);
    }

    #[test]
    fn direction_mismatch_trusts_dcf_and_names_the_fid() {
        let mut t = tracker();
        // Coupled bimodal said taken; DCF's TAGE said not-taken.
        t.record_coupled(42, 0x800, taken(CondDirect, 0x900));
        t.record_decoupled(false, None);
        assert_eq!(
            t.compare(),
            Some(Divergence::TrustDcf {
                fid: 42,
                pc: 0x800,
                dcf_taken: false,
                dcf_target: None
            })
        );
    }

    #[test]
    fn btb_miss_proxy_mismatch_trusts_fetcher() {
        // Paper §IV-C2 case 1: on a BTB miss the DCF streams sequential
        // slots while the fetcher decodes a taken unconditional.
        let mut t = tracker();
        t.record_coupled(7, 0x900, taken(UncondDirect, 0xa00));
        t.record_decoupled(true, None);
        assert_eq!(t.compare(), Some(Divergence::TrustFetcher));
    }

    #[test]
    fn indirect_target_mismatch_trusts_dcf() {
        let mut t = tracker();
        t.record_coupled(3, 0xa00, taken(IndirectJump, 0x1000));
        t.record_decoupled(false, taken(IndirectJump, 0x2000));
        assert_eq!(
            t.compare(),
            Some(Divergence::TrustDcf {
                fid: 3,
                pc: 0xa00,
                dcf_taken: true,
                dcf_target: Some(0x2000)
            })
        );
    }

    #[test]
    fn direct_target_mismatch_trusts_fetcher() {
        // Stale BTB target (self-modifying code): the fetcher decoded the
        // true target from the instruction word.
        let mut t = tracker();
        t.record_coupled(1, 0xb00, taken(UncondDirect, 0x3000));
        t.record_decoupled(false, taken(UncondDirect, 0x4000));
        assert_eq!(t.compare(), Some(Divergence::TrustFetcher));
    }

    #[test]
    fn comparison_waits_for_the_slower_stream() {
        let mut t = tracker();
        t.record_coupled(0, 0xc00, None);
        t.record_coupled(1, 0xc04, taken(CondDirect, 0xc40));
        assert_eq!(t.compare(), None, "decoupled stream not there yet");
        assert!(!t.fully_drained());
        t.record_decoupled(false, None);
        t.record_decoupled(false, taken(CondDirect, 0xc40));
        assert_eq!(t.compare(), None);
        assert!(t.fully_drained());
    }

    #[test]
    fn capacity_limits_reported() {
        let mut t = DivergenceTracker::new(2, 1);
        t.record_coupled(0, 0xd00, None);
        t.record_coupled(1, 0xd04, None);
        assert!(!t.coupled_has_room());
    }

    #[test]
    fn reset_clears_everything() {
        let mut t = tracker();
        t.record_coupled(0, 0xe00, taken(Return, 0x10));
        t.reset();
        assert!(t.fully_drained());
    }

    #[test]
    fn kind_mismatch_in_target_queue_trusts_fetcher() {
        let mut t = tracker();
        t.record_coupled(0, 0xf00, taken(Return, 0x10));
        t.record_decoupled(false, taken(IndirectJump, 0x10));
        assert_eq!(t.compare(), Some(Divergence::TrustFetcher));
    }

    #[test]
    fn load_rejects_a_coupled_target_queue_over_capacity() {
        let mut t = DivergenceTracker::new(64, 8);
        for i in 0..4 {
            t.record_coupled(i, 0x100 + i * 4, taken(CondDirect, 0x400));
        }
        let mut w = elf_types::SnapWriter::new();
        t.state(&mut w).expect("save succeeds");
        let bytes = w.into_bytes();
        let loaded = DivergenceTracker::new(64, 2).state(&mut elf_types::SnapReader::new(&bytes));
        assert!(
            matches!(loaded, Err(elf_types::SnapError::Mismatch { .. })),
            "4 coupled targets must not load into a 2-entry queue: {loaded:?}"
        );
    }
}
