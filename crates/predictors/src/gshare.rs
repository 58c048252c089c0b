//! Gshare direction predictor.
//!
//! Not part of the paper's Table II — the paper's COND-ELF uses a plain
//! bimodal and explicitly calls a "better coupled predictor" out as future
//! work (§VII). This gshare is that extension: a global-history-XOR-PC
//! indexed table of 2-bit counters, still small enough for the coupled
//! fetcher's area budget, selectable through
//! `FrontendConfig::cpl_cond_kind`.

use elf_types::Addr;

/// A gshare predictor: `table[(pc ^ history) % entries]` 2-bit counters.
#[derive(Debug, Clone)]
pub struct Gshare {
    ctrs: Vec<u8>,
    hist_bits: u8,
    index_mask: u64,
}

/// Outcome of a gshare lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GsharePrediction {
    /// Predicted direction.
    pub taken: bool,
    /// Whether the counter is at either extreme (confidence filter, same
    /// role as the COND-ELF saturation filter).
    pub saturated: bool,
}

impl Gshare {
    /// Creates a predictor with `entries` 2-bit counters (rounded up to a
    /// power of two) hashed with `hist_bits` bits of global history.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is 0 or `hist_bits` exceeds 32.
    #[must_use]
    pub fn new(entries: usize, hist_bits: u8) -> Self {
        assert!(entries > 0);
        assert!(hist_bits <= 32);
        let n = entries.next_power_of_two();
        Gshare {
            ctrs: vec![2; n],
            hist_bits,
            index_mask: n as u64 - 1,
        }
    }

    fn index(&self, pc: Addr, hist: u64) -> usize {
        let h = hist & ((1u64 << self.hist_bits) - 1);
        (((pc >> 2) ^ h) & self.index_mask) as usize
    }

    /// Looks up the prediction for `pc` under `hist` (low bits used).
    #[must_use]
    pub fn predict(&self, pc: Addr, hist: u64) -> GsharePrediction {
        let c = self.ctrs[self.index(pc, hist)];
        GsharePrediction {
            taken: c >= 2,
            saturated: c == 0 || c == 3,
        }
    }

    /// Trains toward the resolved direction under the same history.
    pub fn train(&mut self, pc: Addr, hist: u64, taken: bool) {
        let i = self.index(pc, hist);
        let c = &mut self.ctrs[i];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    /// Number of counters.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.ctrs.len()
    }

    /// Storage cost in bits.
    #[must_use]
    pub fn storage_bits(&self) -> usize {
        self.ctrs.len() * 2
    }

    /// Saves or restores the counter array (loading requires a table of
    /// the same geometry).
    ///
    /// # Errors
    ///
    /// Loading fails on truncated bytes or a table of another size.
    pub fn state(&mut self, io: &mut impl elf_types::StateIo) -> Result<(), elf_types::SnapError> {
        io.table(&mut self.ctrs, "gshare table")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_biased_branches() {
        let mut g = Gshare::new(2048, 8);
        let mut hist = 0u64;
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
    fn learns_a_history_correlated_branch_that_bimodal_cannot() {
        // outcome = history bit at distance 1 (alternation through history).
        let mut g = Gshare::new(4096, 8);
        let mut bim = crate::Bimodal::new(2048, 2);
        let mut hist = 0u64;
        let (mut g_miss, mut b_miss, mut total) = (0, 0, 0);
        let mut x = 7u64;
        for i in 0..20_000u64 {
            // A pseudo-random "leader" branch feeds the history...
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let leader = (x >> 40) & 1 == 1;
            g.train(0x200, hist, leader);
            hist = (hist << 1) | u64::from(leader);
            // ...and the follower copies the last leader outcome.
            let follower = leader;
            if i > 4000 {
                total += 1;
                if g.predict(0x300, hist).taken != follower {
                    g_miss += 1;
                }
                if bim.predict(0x300).taken != follower {
                    b_miss += 1;
                }
            }
            g.train(0x300, hist, follower);
            bim.train(0x300, follower);
            hist = (hist << 1) | u64::from(follower);
        }
        let g_rate = g_miss as f64 / total as f64;
        let b_rate = b_miss as f64 / total as f64;
        assert!(g_rate < 0.15, "gshare must learn the correlation: {g_rate}");
        assert!(b_rate > 0.35, "bimodal cannot: {b_rate}");
    }

    #[test]
    fn saturation_filter_semantics() {
        let mut g = Gshare::new(64, 4);
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
    fn storage_is_small() {
        // 2K x 2-bit = 0.5 KB: still within the coupled-structure budget.
        assert_eq!(Gshare::new(2048, 10).storage_bits(), 4096);
    }
}
