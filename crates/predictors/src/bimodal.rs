//! Bimodal (saturating-counter) direction predictor, and its gshare form.

use elf_types::Addr;

/// A table of n-bit saturating counters, indexed by the PC or, in its
/// gshare form, by the PC XOR global history.
///
/// Used in three roles: the base component of [`crate::tage::Tage`] (2-bit
/// counters), the coupled predictor of COND-/U-ELF (2K entries, 3-bit
/// counters — Table II) and the gshare extension of that coupled predictor
/// ([`Bimodal::gshare`]). The coupled role additionally needs the
/// *saturation filter* of §VI-B: COND-ELF only speculates past a conditional
/// when its counter is fully saturated, exposed via
/// [`BimodalPrediction::saturated`].
#[derive(Debug, Clone)]
pub struct Bimodal {
    ctrs: Vec<u8>,
    ctr_max: u8,
    index_mask: u64,
    /// The global-history bits a gshare table XORs into its index; `None`
    /// for a PC-indexed table.
    hist_mask: Option<u64>,
}

/// Outcome of a bimodal lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BimodalPrediction {
    /// Predicted direction.
    pub taken: bool,
    /// Whether the counter is at either extreme (confidence filter).
    pub saturated: bool,
}

impl Bimodal {
    /// Creates a PC-indexed table with `entries` counters (rounded up to a
    /// power of two) of `bits` bits each, initialized to weakly-taken.
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
            hist_mask: None,
        }
    }

    /// Creates a gshare table: `entries` 2-bit counters (rounded up to a
    /// power of two) indexed by the PC XOR the low `hist_bits` bits of the
    /// global history.
    ///
    /// Not part of the paper's Table II — the paper's COND-ELF uses a plain
    /// bimodal and calls a "better coupled predictor" out as future work
    /// (§VII); this is that extension, selected through
    /// `FrontendConfig::cpl_cond_kind`.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is 0 or `hist_bits` exceeds 32.
    #[must_use]
    pub fn gshare(entries: usize, hist_bits: u8) -> Self {
        assert!(hist_bits <= 32, "gshare history must be at most 32 bits");
        Bimodal {
            hist_mask: Some((1u64 << hist_bits) - 1),
            ..Bimodal::new(entries, 2)
        }
    }

    fn index(&self, pc: Addr, hist: u128) -> usize {
        let mix = self.hist_mask.map_or(pc >> 13, |m| hist as u64 & m);
        (((pc >> 2) ^ mix) & self.index_mask) as usize
    }

    /// Looks up the prediction for `pc` under the global history `hist`
    /// (bit 0 = most recent outcome; only a gshare table reads it).
    #[must_use]
    pub fn predict(&self, pc: Addr, hist: u128) -> BimodalPrediction {
        let c = self.ctrs[self.index(pc, hist)];
        BimodalPrediction {
            taken: c > self.ctr_max / 2,
            saturated: c == 0 || c == self.ctr_max,
        }
    }

    /// Trains the counter toward the resolved direction, under the history
    /// the branch was predicted with.
    pub fn train(&mut self, pc: Addr, hist: u128, taken: bool) {
        let i = self.index(pc, hist);
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
            b.train(0x400, 0, true);
        }
        let p = b.predict(0x400, 0);
        assert!(p.taken);
        assert!(
            p.saturated,
            "8 consecutive takens must saturate a 3-bit counter"
        );
        for _ in 0..8 {
            b.train(0x400, 0, false);
        }
        let p = b.predict(0x400, 0);
        assert!(!p.taken);
        assert!(p.saturated);
    }

    #[test]
    fn saturation_filter_rejects_freshly_flipped_branches() {
        let mut b = Bimodal::new(2048, 3);
        for _ in 0..8 {
            b.train(0x80, 0, true);
        }
        b.train(0x80, 0, false); // one disagreement
        let p = b.predict(0x80, 0);
        assert!(p.taken, "still predicted taken");
        assert!(!p.saturated, "but no longer confident");
    }

    #[test]
    fn alternating_branch_is_roughly_uncertain() {
        let mut b = Bimodal::new(64, 3);
        let mut wrong = 0;
        for i in 0..1000 {
            let t = i % 2 == 0;
            if b.predict(0x10, 0).taken != t {
                wrong += 1;
            }
            b.train(0x10, 0, t);
        }
        assert!(wrong > 400, "bimodal cannot learn alternation: {wrong}");
    }

    #[test]
    fn distinct_pcs_use_distinct_counters() {
        let mut b = Bimodal::new(2048, 3);
        for _ in 0..8 {
            b.train(0x1000, 0, true);
            b.train(0x2000, 0, false);
        }
        assert!(b.predict(0x1000, 0).taken);
        assert!(!b.predict(0x2000, 0).taken);
    }

    #[test]
    fn storage_cost_matches_table2() {
        // 2K entries x 3 bits = 0.75 KB.
        let b = Bimodal::new(2048, 3);
        assert_eq!(b.storage_bits(), 2048 * 3);
        assert_eq!(b.storage_bits() / 8, 768);
    }

    #[test]
    fn a_pc_indexed_table_ignores_the_history() {
        let mut b = Bimodal::new(2048, 3);
        for i in 0..8u128 {
            b.train(0x400, i * 0x1234_5678, false);
        }
        assert!(!b.predict(0x400, u128::MAX).taken);
    }

    #[test]
    fn gshare_learns_biased_branches() {
        let mut g = Bimodal::gshare(2048, 8);
        let mut hist = 0u128;
        let mut miss = 0;
        for i in 0..4000u64 {
            let taken = true;
            if i > 100 && !g.predict(0x100, hist).taken {
                miss += 1;
            }
            g.train(0x100, hist, taken);
            hist = (hist << 1) | 1;
        }
        assert!(miss < 10, "always-taken misses: {miss}");
    }

    #[test]
    fn gshare_learns_a_history_correlated_branch_that_bimodal_cannot() {
        // outcome = history bit at distance 1 (alternation through history).
        let mut g = Bimodal::gshare(4096, 8);
        let mut bim = Bimodal::new(2048, 2);
        let mut hist = 0u128;
        let (mut g_miss, mut b_miss, mut total) = (0, 0, 0);
        let mut x = 7u64;
        for i in 0..20_000u64 {
            // A pseudo-random "leader" branch feeds the history...
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let leader = (x >> 40) & 1 == 1;
            g.train(0x200, hist, leader);
            hist = (hist << 1) | u128::from(leader);
            // ...and the follower copies the last leader outcome.
            let follower = leader;
            if i > 4000 {
                total += 1;
                if g.predict(0x300, hist).taken != follower {
                    g_miss += 1;
                }
                if bim.predict(0x300, hist).taken != follower {
                    b_miss += 1;
                }
            }
            g.train(0x300, hist, follower);
            bim.train(0x300, hist, follower);
            hist = (hist << 1) | u128::from(follower);
        }
        let g_rate = g_miss as f64 / total as f64;
        let b_rate = b_miss as f64 / total as f64;
        assert!(g_rate < 0.15, "gshare must learn the correlation: {g_rate}");
        assert!(b_rate > 0.35, "bimodal cannot: {b_rate}");
    }

    #[test]
    fn gshare_saturation_filter_semantics() {
        let mut g = Bimodal::gshare(64, 4);
        for _ in 0..4 {
            g.train(0x400, 0, true);
        }
        let p = g.predict(0x400, 0);
        assert!(p.taken && p.saturated);
        g.train(0x400, 0, false);
        let p = g.predict(0x400, 0);
        assert!(
            p.taken && !p.saturated,
            "one disagreement clears confidence"
        );
    }

    #[test]
    fn gshare_storage_is_small() {
        // 2K x 2-bit = 0.5 KB: still within the coupled-structure budget.
        assert_eq!(Bimodal::gshare(2048, 10).storage_bits(), 4096);
    }
}
