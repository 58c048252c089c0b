//! The Fetch Address Queue.

use elf_types::{Cycle, FaqBranch, FaqEntry};
use std::collections::VecDeque;

/// The decoupling queue between branch prediction and fetch (Table II:
/// 32-entry FIFO). Entries become *visible* to the fetcher only after the
/// BP2+FAQ pipeline delay; the head entry is consumed incrementally at
/// fetch-width granularity.
///
/// ```
/// use elf_frontend::faq::Faq;
/// use elf_types::{FaqEntry, FaqTermination};
///
/// let mut faq = Faq::new(32);
/// faq.push(
///     FaqEntry {
///         start_pc: 0x1000,
///         inst_count: 16,
///         term: FaqTermination::FallThrough,
///         next_pc: 0x1040,
///         branches: Vec::new(),
///     },
///     3, // visible after the BP2+FAQ stages
/// );
/// assert!(faq.head(2).is_none());
/// assert_eq!(faq.head(3).unwrap().start_pc, 0x1000);
/// ```
#[derive(Debug, Clone)]
pub struct Faq {
    entries: VecDeque<(FaqEntry, Cycle)>,
    capacity: usize,
    /// Instructions of the head entry already consumed by fetch.
    head_consumed: u8,
    /// Occupancy integral for statistics.
    occupancy_sum: u64,
    occupancy_samples: u64,
    /// Emptied branch lists of blocks that left the queue, handed out
    /// again by [`Faq::branch_buf`] (not state: capacity only).
    spare: Vec<Vec<FaqBranch>>,
}

impl Faq {
    /// Creates an empty FAQ.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Faq {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            head_consumed: 0,
            occupancy_sum: 0,
            occupancy_samples: 0,
            spare: Vec::new(),
        }
    }

    /// Whether a new block can be enqueued.
    #[must_use]
    pub fn has_room(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Current number of queued blocks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// An empty branch list for a new block: the list of a block that
    /// already left the queue when there is one, so steady-state block
    /// generation does not allocate.
    pub fn branch_buf(&mut self) -> Vec<FaqBranch> {
        self.spare.pop().unwrap_or_default()
    }

    /// Keeps a departing block's branch list for [`Faq::branch_buf`].
    fn recycle(&mut self, entry: FaqEntry) {
        let mut branches = entry.branches;
        if branches.capacity() > 0 {
            branches.clear();
            self.spare.push(branches);
        }
    }

    /// Removes the head block.
    fn drop_head(&mut self) {
        self.head_consumed = 0;
        if let Some((e, _)) = self.entries.pop_front() {
            self.recycle(e);
        }
    }

    /// Enqueues a block that becomes visible at `visible_at`.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full (callers must check [`Faq::has_room`]).
    pub fn push(&mut self, entry: FaqEntry, visible_at: Cycle) {
        assert!(self.has_room(), "FAQ overflow");
        self.entries.push_back((entry, visible_at));
    }

    /// The head block, if visible at `now`.
    #[must_use]
    pub fn head(&self, now: Cycle) -> Option<&FaqEntry> {
        match self.entries.front() {
            Some((e, vis)) if *vis <= now => Some(e),
            _ => None,
        }
    }

    /// The block after the head, if visible at `now` (used for
    /// fetch-across-taken-branch, §VI-A).
    #[must_use]
    pub fn second(&self, now: Cycle) -> Option<&FaqEntry> {
        match self.entries.get(1) {
            Some((e, vis)) if *vis <= now => Some(e),
            _ => None,
        }
    }

    /// Instructions of the head block already consumed.
    #[must_use]
    pub fn head_consumed(&self) -> u8 {
        self.head_consumed
    }

    /// Marks `n` more head-block instructions as consumed, popping the head
    /// once fully consumed. Returns `true` if the head was popped.
    pub fn consume(&mut self, n: u8) -> bool {
        let Some((head, _)) = self.entries.front() else {
            return false;
        };
        self.head_consumed += n;
        debug_assert!(
            self.head_consumed <= head.inst_count,
            "overconsumed FAQ head"
        );
        if self.head_consumed >= head.inst_count {
            self.drop_head();
            return true;
        }
        false
    }

    /// Marks the first `n` instructions of the head block as already
    /// covered (ELF resync amendment, §IV-B1 case 3 / Fig. 5 cycle 1).
    pub fn amend_head(&mut self, n: u8) {
        if let Some((head, _)) = self.entries.front() {
            self.head_consumed = n.min(head.inst_count);
            if self.head_consumed >= head.inst_count {
                self.drop_head();
            }
        }
    }

    /// Drops the head block regardless of consumption (resync case 1/2b).
    pub fn pop(&mut self) {
        self.drop_head();
    }

    /// Drops everything (flush).
    pub fn flush(&mut self) {
        while let Some((e, _)) = self.entries.pop_front() {
            self.recycle(e);
        }
        self.head_consumed = 0;
    }

    /// Iterates over queued blocks (oldest first) regardless of visibility —
    /// used by the FAQ-driven instruction prefetcher.
    pub fn iter(&self) -> impl Iterator<Item = &FaqEntry> {
        self.entries.iter().map(|(e, _)| e)
    }

    /// Records `n` occupancy samples at the current occupancy (one per
    /// cycle).
    pub fn sample_occupancy_n(&mut self, n: u64) {
        self.occupancy_sum += self.entries.len() as u64 * n;
        self.occupancy_samples += n;
    }

    /// Mean sampled occupancy.
    #[must_use]
    pub fn mean_occupancy(&self) -> f64 {
        if self.occupancy_samples == 0 {
            0.0
        } else {
            self.occupancy_sum as f64 / self.occupancy_samples as f64
        }
    }

    /// Saves or restores queued blocks (with visibility cycles), the head
    /// consumption offset and occupancy accumulators; loading requires a
    /// queue of the same capacity.
    ///
    /// # Errors
    ///
    /// Loading fails on truncated bytes or more blocks than the capacity.
    pub fn state(&mut self, io: &mut impl elf_types::StateIo) -> Result<(), elf_types::SnapError> {
        io.bounded(&mut self.entries, self.capacity, "FAQ")?;
        io.value(&mut self.head_consumed)?;
        io.value(&mut self.occupancy_sum)?;
        io.value(&mut self.occupancy_samples)
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use elf_types::{FaqEntry, FaqTermination};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any sequence of push/consume/amend/pop operations keeps the FAQ
        /// within capacity with a coherent head-consumption offset.
        #[test]
        fn random_operation_sequences_preserve_invariants(
            ops in proptest::collection::vec((0u8..4, 1u8..17), 1..200)
        ) {
            let mut q = Faq::new(8);
            let mut next_pc = 0x1000u64;
            for (op, n) in ops {
                match op {
                    0 => {
                        if q.has_room() {
                            q.push(
                                FaqEntry {
                                    start_pc: next_pc,
                                    inst_count: n,
                                    term: FaqTermination::FallThrough,
                                    next_pc: next_pc + u64::from(n) * 4,
                                    branches: Vec::new(),
                                },
                                0,
                            );
                            next_pc += u64::from(n) * 4;
                        }
                    }
                    1 => {
                        if let Some(head) = q.head(u64::MAX) {
                            let left = head.inst_count - q.head_consumed();
                            q.consume(n.min(left));
                        }
                    }
                    2 => q.amend_head(n),
                    _ => {
                        q.pop();
                    }
                }
                prop_assert!(q.len() <= 8);
                if let Some(head) = q.head(u64::MAX) {
                    prop_assert!(q.head_consumed() < head.inst_count);
                } else {
                    prop_assert!(q.is_empty() || q.head_consumed() == 0);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elf_types::FaqTermination;

    fn entry(start: u64, n: u8) -> FaqEntry {
        FaqEntry {
            start_pc: start,
            inst_count: n,
            term: FaqTermination::FallThrough,
            next_pc: start + u64::from(n) * 4,
            branches: Vec::new(),
        }
    }

    #[test]
    fn visibility_delay_hides_fresh_entries() {
        let mut q = Faq::new(4);
        q.push(entry(0x1000, 16), 5);
        assert!(q.head(4).is_none(), "not visible yet");
        assert_eq!(q.head(5).unwrap().start_pc, 0x1000);
    }

    #[test]
    fn consume_pops_only_when_exhausted() {
        let mut q = Faq::new(4);
        q.push(entry(0x1000, 16), 0);
        assert!(!q.consume(8));
        assert_eq!(q.head_consumed(), 8);
        assert!(q.consume(8), "block fully consumed");
        assert!(q.is_empty());
        assert_eq!(q.head_consumed(), 0);
    }

    #[test]
    fn amend_head_skips_already_fetched_insts() {
        let mut q = Faq::new(4);
        q.push(entry(0x1000, 12), 0);
        q.amend_head(10);
        assert_eq!(q.head_consumed(), 10);
        assert!(!q.consume(1));
        assert!(q.consume(1));
    }

    #[test]
    fn amend_covering_whole_block_pops_it() {
        let mut q = Faq::new(4);
        q.push(entry(0x1000, 8), 0);
        q.push(entry(0x2000, 8), 0);
        q.amend_head(8);
        assert_eq!(q.head(0).unwrap().start_pc, 0x2000);
    }

    #[test]
    fn capacity_enforced() {
        let mut q = Faq::new(2);
        q.push(entry(0x0, 1), 0);
        q.push(entry(0x4, 1), 0);
        assert!(!q.has_room());
    }

    #[test]
    fn second_requires_visibility() {
        let mut q = Faq::new(4);
        q.push(entry(0x1000, 4), 0);
        q.push(entry(0x2000, 4), 9);
        assert!(q.second(5).is_none());
        assert_eq!(q.second(9).unwrap().start_pc, 0x2000);
    }

    #[test]
    fn flush_clears_everything() {
        let mut q = Faq::new(4);
        q.push(entry(0x1000, 4), 0);
        q.consume(2);
        q.flush();
        assert!(q.is_empty());
        assert_eq!(q.head_consumed(), 0);
    }

    #[test]
    fn occupancy_statistics() {
        let mut q = Faq::new(8);
        q.sample_occupancy_n(1);
        q.push(entry(0x1000, 4), 0);
        q.push(entry(0x2000, 4), 0);
        q.sample_occupancy_n(1);
        assert!((q.mean_occupancy() - 1.0).abs() < 1e-9);
    }
}
