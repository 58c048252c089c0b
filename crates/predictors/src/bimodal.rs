//! Bimodal (PC-indexed saturating-counter) direction predictor.

use elf_types::Addr;

/// A PC-indexed table of n-bit saturating counters.
///
/// Used in two roles: the base component of [`crate::tage::Tage`] (2-bit
/// counters) and the coupled predictor of COND-/U-ELF (2K entries, 3-bit
/// counters — Table II). The coupled role additionally needs the
/// *saturation filter* of §VI-B: COND-ELF only speculates past a conditional
/// when its counter is fully saturated, exposed via
/// [`BimodalPrediction::saturated`].
#[derive(Debug, Clone)]
pub struct Bimodal {
    ctrs: Vec<u8>,
    ctr_max: u8,
    index_mask: u64,
}

/// Outcome of a bimodal lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BimodalPrediction {
    /// Predicted direction.
    pub taken: bool,
    /// Whether the counter is at either extreme (confidence filter).
    pub saturated: bool,
    /// Raw counter value.
    pub counter: u8,
}

impl Bimodal {
    /// Creates a table with `entries` counters (rounded up to a power of
    /// two) of `bits` bits each, initialized to weakly-taken.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 7, or `entries` is 0.
    #[must_use]
    pub fn new(entries: usize, bits: u8) -> Self {
        assert!(entries > 0, "bimodal needs at least one entry");
        assert!((1..=7).contains(&bits), "counter width must be 1..=7 bits");
        let n = entries.next_power_of_two();
        let ctr_max = (1u8 << bits) - 1;
        Bimodal {
            ctrs: vec![ctr_max / 2 + 1; n],
            ctr_max,
            index_mask: n as u64 - 1,
        }
    }

    fn index(&self, pc: Addr) -> usize {
        (((pc >> 2) ^ (pc >> 13)) & self.index_mask) as usize
    }

    /// Looks up the prediction for `pc`.
    #[must_use]
    pub fn predict(&self, pc: Addr) -> BimodalPrediction {
        let c = self.ctrs[self.index(pc)];
        BimodalPrediction {
            taken: c > self.ctr_max / 2,
            saturated: c == 0 || c == self.ctr_max,
            counter: c,
        }
    }

    /// Trains the counter toward the resolved direction.
    pub fn train(&mut self, pc: Addr, taken: bool) {
        let i = self.index(pc);
        let c = &mut self.ctrs[i];
        if taken {
            *c = (*c + 1).min(self.ctr_max);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    /// Number of counters.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.ctrs.len()
    }

    /// Storage cost in bits (for the Table II budget check).
    #[must_use]
    pub fn storage_bits(&self) -> usize {
        self.ctrs.len() * (8 - self.ctr_max.leading_zeros() as usize)
    }

    /// Saves or restores the counter array (geometry is config-derived and
    /// not written; loading requires a table of the same geometry).
    ///
    /// # Errors
    ///
    /// Loading fails on truncated bytes or a table of another size.
    pub fn state(&mut self, io: &mut impl elf_types::StateIo) -> Result<(), elf_types::SnapError> {
        io.table(&mut self.ctrs, "bimodal table")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_entries_to_power_of_two() {
        assert_eq!(Bimodal::new(2000, 3).entries(), 2048);
        assert_eq!(Bimodal::new(2048, 3).entries(), 2048);
    }

    #[test]
    fn learns_a_biased_branch() {
        let mut b = Bimodal::new(2048, 3);
        for _ in 0..8 {
            b.train(0x400, true);
        }
        let p = b.predict(0x400);
        assert!(p.taken);
        assert!(
            p.saturated,
            "8 consecutive takens must saturate a 3-bit counter"
        );
        for _ in 0..8 {
            b.train(0x400, false);
        }
        let p = b.predict(0x400);
        assert!(!p.taken);
        assert!(p.saturated);
    }

    #[test]
    fn saturation_filter_rejects_freshly_flipped_branches() {
        let mut b = Bimodal::new(2048, 3);
        for _ in 0..8 {
            b.train(0x80, true);
        }
        b.train(0x80, false); // one disagreement
        let p = b.predict(0x80);
        assert!(p.taken, "still predicted taken");
        assert!(!p.saturated, "but no longer confident");
    }

    #[test]
    fn alternating_branch_is_roughly_uncertain() {
        let mut b = Bimodal::new(64, 3);
        let mut wrong = 0;
        for i in 0..1000 {
            let t = i % 2 == 0;
            if b.predict(0x10).taken != t {
                wrong += 1;
            }
            b.train(0x10, t);
        }
        assert!(wrong > 400, "bimodal cannot learn alternation: {wrong}");
    }

    #[test]
    fn distinct_pcs_use_distinct_counters() {
        let mut b = Bimodal::new(2048, 3);
        for _ in 0..8 {
            b.train(0x1000, true);
            b.train(0x2000, false);
        }
        assert!(b.predict(0x1000).taken);
        assert!(!b.predict(0x2000).taken);
    }

    #[test]
    fn storage_cost_matches_table2() {
        // 2K entries x 3 bits = 0.75 KB.
        let b = Bimodal::new(2048, 3);
        assert_eq!(b.storage_bits(), 2048 * 3);
        assert_eq!(b.storage_bits() / 8, 768);
    }
}
