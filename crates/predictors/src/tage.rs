//! TAGE conditional branch predictor (Seznec, MICRO 2011).
//!
//! The decoupled conditional predictor of Table II: a bimodal base plus 8
//! partially-tagged tables indexed by geometrically-increasing global
//! history lengths. The front-end needs two extra outputs beyond the
//! direction:
//!
//! * `base_taken` — the bimodal component's direction, because on an L0 BTB
//!   hit only the bimodal is fast enough to feed next-cycle address
//!   generation (§III-B);
//! * `tagged_override` — whether a tagged component disagrees with the
//!   bimodal, which costs one bubble on an L0 BTB hit (BP2 resteers BP1).

use crate::bimodal::Bimodal;
use crate::history::{fold_each, MAX_TABLES};
use crate::tagged::{self, TableHash, TaggedTables};
use elf_types::Addr;

/// Geometry of a [`Tage`] predictor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TageConfig {
    /// log2 of the number of entries per tagged table.
    pub table_bits: u8,
    /// Tag width in bits.
    pub tag_bits: u8,
    /// History length per tagged table (non-decreasing, at most
    /// [`MAX_TABLES`] tables).
    pub hist_lens: Vec<u16>,
    /// log2 of the number of bimodal base entries.
    pub base_bits: u8,
    /// Useful-counter aging period (branches between halvings).
    pub u_reset_period: u64,
}

elf_types::snap_struct!(TageConfig {
    table_bits,
    tag_bits,
    hist_lens,
    base_bits,
    u_reset_period
});

impl TageConfig {
    /// The 32 KB-class configuration of Table II: 8 tagged tables.
    #[must_use]
    pub fn paper() -> Self {
        TageConfig {
            table_bits: 10,
            tag_bits: 11,
            hist_lens: vec![4, 7, 12, 19, 31, 51, 84, 128],
            base_bits: 14,
            u_reset_period: 256 * 1024,
        }
    }

    /// A small configuration for fast unit tests.
    #[must_use]
    pub fn tiny() -> Self {
        TageConfig {
            table_bits: 7,
            tag_bits: 9,
            hist_lens: vec![4, 8, 16, 32],
            base_bits: 9,
            u_reset_period: 64 * 1024,
        }
    }

    /// Approximate storage in bits (tagged entries: ctr 3 + tag + u 2).
    #[must_use]
    pub fn storage_bits(&self) -> usize {
        let tagged =
            self.hist_lens.len() * (1usize << self.table_bits) * (3 + self.tag_bits as usize + 2);
        let base = (1usize << self.base_bits) * 2;
        tagged + base
    }

    /// What makes the geometry unusable, if anything: a fold width of zero
    /// (`table_bits` 0, or `tag_bits` below 2, since the tag folds to
    /// `tag_bits - 1` too), a tag wider than the 16-bit tag field, a
    /// history longer than the 128-bit global history, history lengths
    /// that decrease (one fold pass serves every table in length order,
    /// and allocation skews toward the shorter histories), or more than
    /// [`MAX_TABLES`] tables. The message names the field. ITTAGE applies
    /// the same check.
    #[must_use]
    pub fn geometry_error(&self) -> Option<&'static str> {
        tagged::geometry_error(self.table_bits, self.tag_bits, &self.hist_lens)
    }
}

/// A TAGE prediction with the side information the DCF timing rules need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagePrediction {
    /// Final predicted direction.
    pub taken: bool,
    /// The bimodal base component's direction.
    pub base_taken: bool,
    /// Providing tagged table (None = bimodal provided).
    pub provider: Option<u8>,
    /// `true` when a tagged component overrides the bimodal direction —
    /// costs one bubble on an L0 BTB hit (§III-B).
    pub tagged_override: bool,
}

/// The TAGE predictor. See module docs.
///
/// The global history is the caller's: every call takes it as a `u128`
/// (bit 0 = most recent outcome).
///
/// ```
/// use elf_predictors::{Tage, tage::TageConfig};
///
/// let mut tage = Tage::new(TageConfig::tiny());
/// // An always-taken branch is learned within a few occurrences.
/// let mut hist = 0u128;
/// for _ in 0..64 {
///     tage.train(0x4000, true, hist);
///     hist = (hist << 1) | 1;
/// }
/// assert!(tage.predict(0x4000, hist).taken);
/// ```
#[derive(Debug, Clone)]
pub struct Tage {
    cfg: TageConfig,
    base: Bimodal,
    /// Payload: the 3-bit direction counter, -4..=3, taken when >= 0.
    tagged: TaggedTables<i8>,
    trained: u64,
}

impl Tage {
    /// Creates a predictor with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if [`TageConfig::geometry_error`] rejects the geometry.
    #[must_use]
    pub fn new(cfg: TageConfig) -> Self {
        if let Some(e) = cfg.geometry_error() {
            panic!("unusable TAGE geometry: {e}");
        }
        Tage {
            base: Bimodal::new(1 << cfg.base_bits, 2),
            tagged: TaggedTables::new(cfg.hist_lens.len(), cfg.table_bits, 0xace1),
            trained: 0,
            cfg,
        }
    }

    /// The paper configuration.
    #[must_use]
    pub fn paper() -> Self {
        Tage::new(TageConfig::paper())
    }

    /// Table `t`'s index from the history folded to `table_bits`.
    fn index(&self, pc: Addr, t: usize, folded: u64) -> usize {
        let mask = (1u64 << self.cfg.table_bits) - 1;
        (((pc >> 2) ^ (pc >> (self.cfg.table_bits as u64 + 2)) ^ folded ^ (t as u64) << 3) & mask)
            as usize
    }

    /// A tag from the history folded to `tag_bits` (`f1`) and to
    /// `tag_bits - 1` (`f2`).
    fn tag(&self, pc: Addr, f1: u64, f2: u64) -> u16 {
        let mask = (1u64 << self.cfg.tag_bits) - 1;
        (((pc >> 2) ^ f1 ^ (f2 << 1)) & mask) as u16
    }

    /// Every tagged table's index and tag for `pc` under `hist`, from one
    /// fold pass per width.
    fn hashes(&self, pc: Addr, hist: u128) -> [TableHash; MAX_TABLES] {
        let n = self.tagged.len();
        let (lens, table_bits, tag_bits) = (
            &self.cfg.hist_lens[..],
            self.cfg.table_bits,
            self.cfg.tag_bits,
        );
        let mut f_index = [0; MAX_TABLES];
        let mut f_tag = [0; MAX_TABLES];
        fold_each(hist, lens, table_bits, &mut f_index[..n]);
        fold_each(hist, lens, tag_bits, &mut f_tag[..n]);
        // In the paper geometry `tag_bits - 1 == table_bits`.
        let f_tag2 = if tag_bits - 1 == table_bits {
            f_index
        } else {
            let mut f = [0; MAX_TABLES];
            fold_each(hist, lens, tag_bits - 1, &mut f[..n]);
            f
        };
        let mut out = [TableHash::default(); MAX_TABLES];
        for (t, h) in out[..n].iter_mut().enumerate() {
            *h = TableHash {
                index: self.index(pc, t, f_index[t]),
                tag: self.tag(pc, f_tag[t], f_tag2[t]),
            };
        }
        out
    }

    /// Predicts `pc` under the global history `hist`.
    #[must_use]
    pub fn predict(&self, pc: Addr, hist: u128) -> TagePrediction {
        self.predict_hashed(pc, &self.hashes(pc, hist))
    }

    /// [`Tage::predict`] with the tables' hashes already computed.
    fn predict_hashed(&self, pc: Addr, h: &[TableHash]) -> TagePrediction {
        let base_taken = self.base.predict(pc, 0).taken;
        let hit = self.tagged.longest_match(h, self.tagged.len(), |_| true);
        let taken = hit.map_or(base_taken, |(_, &ctr)| ctr >= 0);
        TagePrediction {
            taken,
            base_taken,
            provider: hit.map(|(t, _)| t as u8),
            tagged_override: taken != base_taken,
        }
    }

    /// Trains on a retired conditional branch with the history it was
    /// predicted under (the checkpoint-queue payload of §IV-D).
    pub fn train(&mut self, pc: Addr, taken: bool, hist: u128) {
        let h = self.hashes(pc, hist);
        self.train_hashed(pc, taken, &h);
    }

    /// [`Tage::train`] with the tables' hashes already computed.
    fn train_hashed(&mut self, pc: Addr, taken: bool, h: &[TableHash]) {
        let pred = self.predict_hashed(pc, h);

        // Update the provider (or base) counter.
        match pred.provider {
            Some(t) => {
                let t = t as usize;
                // Useful bit: bumped when the provider differed from the
                // alternate prediction and was right (aged when wrong).
                let alt = self.alt_pred(pc, t, h);
                let e = self.tagged.entry_mut(t, h);
                e.payload = if taken {
                    (e.payload + 1).min(3)
                } else {
                    (e.payload - 1).max(-4)
                };
                if pred.taken != alt {
                    if pred.taken == taken {
                        e.u = (e.u + 1).min(3);
                    } else {
                        e.u = e.u.saturating_sub(1);
                    }
                }
            }
            None => self.base.train(pc, 0, taken),
        }
        // Base also trains when it provided or when the provider is weak.
        if pred.provider.is_some() && taken == pred.base_taken {
            self.base.train(pc, 0, taken);
        }

        // Allocate a new entry on misprediction, unless the provider is
        // already the longest history (then the LFSR does not step).
        if pred.taken != taken {
            let start = pred.provider.map_or(0, |t| t as usize + 1);
            if start < self.tagged.len() {
                self.tagged.allocate(h, start, if taken { 0 } else { -1 });
            }
        }

        // Periodic aging of useful counters.
        self.trained += 1;
        if self.trained.is_multiple_of(self.cfg.u_reset_period) {
            self.tagged.age_useful();
        }
    }

    fn alt_pred(&self, pc: Addr, provider: usize, h: &[TableHash]) -> bool {
        match self.tagged.longest_match(h, provider, |_| true) {
            Some((_, &ctr)) => ctr >= 0,
            None => self.base.predict(pc, 0).taken,
        }
    }

    /// Storage cost in bits.
    #[must_use]
    pub fn storage_bits(&self) -> usize {
        self.cfg.storage_bits()
    }

    /// Saves or restores all mutable state (tables, LFSR, aging counter). The geometry is config-derived and not written; loading
    /// requires a predictor of the same geometry.
    ///
    /// # Errors
    ///
    /// Loading fails on truncated bytes or tables of another geometry.
    pub fn state(&mut self, io: &mut impl elf_types::StateIo) -> Result<(), elf_types::SnapError> {
        self.base.state(io)?;
        self.tagged.state(io)?;
        io.value(&mut self.trained)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::fold;

    /// The reference hashing: every table's (index, tag) from its own
    /// `history::fold` calls.
    fn reference_hashes(tage: &Tage, pc: Addr, hist: u128) -> [TableHash; MAX_TABLES] {
        let c = &tage.cfg;
        let mut out = [TableHash::default(); MAX_TABLES];
        for (t, &len) in c.hist_lens.iter().enumerate() {
            out[t] = TableHash {
                index: tage.index(pc, t, fold(hist, len, c.table_bits)),
                tag: tage.tag(
                    pc,
                    fold(hist, len, c.tag_bits),
                    fold(hist, len, c.tag_bits - 1),
                ),
            };
        }
        out
    }

    #[test]
    fn one_pass_hashing_predicts_like_per_table_folding() {
        let odd = TageConfig {
            hist_lens: vec![0, 5, 5, 64, 128, 128],
            ..TageConfig::tiny()
        };
        // The paper geometry shares the `table_bits` fold with the tag's
        // second half; the tiny one folds three widths.
        for cfg in [TageConfig::paper(), TageConfig::tiny(), odd] {
            let mut fast = Tage::new(cfg.clone());
            let mut reference = Tage::new(cfg);
            let mut hist = 0u128;
            let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
            for step in 0..20_000 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let pc = 0x1000 + ((x >> 40) % 64) * 4;
                // History-correlated outcomes with some noise.
                let taken = ((hist >> (pc % 7)) & 1 == 1) ^ (x >> 20).is_multiple_of(16);
                let h = reference_hashes(&reference, pc, hist);
                assert_eq!(fast.hashes(pc, hist), h, "step {step}");
                assert_eq!(
                    fast.predict(pc, hist),
                    reference.predict_hashed(pc, &h),
                    "step {step}"
                );
                fast.train(pc, taken, hist);
                reference.train_hashed(pc, taken, &h);
                hist = (hist << 1) | u128::from(taken);
            }
        }
    }

    /// Drives predict→train→history push in lockstep (no wrong path).
    fn run_stream(tage: &mut Tage, pc: Addr, outcomes: impl Iterator<Item = bool>) -> f64 {
        let mut miss = 0u64;
        let mut total = 0u64;
        let mut hist = 0u128;
        for t in outcomes {
            let p = tage.predict(pc, hist);
            if p.taken != t {
                miss += 1;
            }
            total += 1;
            tage.train(pc, t, hist);
            hist = (hist << 1) | u128::from(t);
        }
        miss as f64 / total as f64
    }

    #[test]
    fn learns_strongly_biased_branch() {
        let mut tage = Tage::new(TageConfig::tiny());
        let rate = run_stream(&mut tage, 0x1000, (0..2000).map(|_| true));
        assert!(rate < 0.01, "always-taken miss rate {rate}");
    }

    #[test]
    fn learns_short_periodic_pattern() {
        let mut tage = Tage::new(TageConfig::tiny());
        let pat = [true, true, false, true, false, false];
        let rate = run_stream(&mut tage, 0x2000, (0..6000).map(|i| pat[i % pat.len()]));
        assert!(rate < 0.1, "pattern miss rate {rate}");
    }

    #[test]
    fn learns_loop_exit_branches() {
        let mut tage = Tage::new(TageConfig::tiny());
        // Taken 7, not-taken 1, repeating (trip = 8 <= shortest history + ε).
        let rate = run_stream(&mut tage, 0x3000, (0..8000).map(|i| i % 8 != 7));
        assert!(rate < 0.08, "loop-exit miss rate {rate}");
    }

    #[test]
    fn learns_history_correlated_branch_that_bimodal_cannot() {
        // outcome(n) = outcome(n-1) XOR outcome(n-2), seeded pseudo-randomly:
        // a pure function of 2 bits of history.
        let mut outcomes = Vec::with_capacity(8000);
        let (mut a, mut b) = (true, false);
        let mut x: u32 = 12345;
        for i in 0..8000 {
            // Re-seed occasionally so the sequence is not a short cycle.
            if i % 97 == 0 {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                a = x & 1 == 1;
            }
            let next = a ^ b;
            outcomes.push(next);
            b = a;
            a = next;
        }
        let mut tage = Tage::new(TageConfig::tiny());
        let rate = run_stream(&mut tage, 0x4000, outcomes.iter().copied());
        assert!(rate < 0.2, "TAGE should learn xor-of-history: {rate}");

        let mut bim = Bimodal::new(512, 2);
        let mut miss = 0;
        for &t in &outcomes {
            if bim.predict(0x4000, 0).taken != t {
                miss += 1;
            }
            bim.train(0x4000, 0, t);
        }
        let bim_rate = miss as f64 / outcomes.len() as f64;
        assert!(
            bim_rate > rate + 0.1,
            "bimodal ({bim_rate}) must be clearly worse than TAGE ({rate})"
        );
    }

    #[test]
    fn random_branch_misses_around_min_p() {
        let mut tage = Tage::new(TageConfig::tiny());
        // p(taken) = 0.25 pseudo-random stream.
        let mut x: u64 = 99;
        let outcomes: Vec<bool> = (0..8000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) % 100 < 25
            })
            .collect();
        let rate = run_stream(&mut tage, 0x5000, outcomes.into_iter());
        assert!(
            rate > 0.15 && rate < 0.40,
            "Bernoulli(0.25) miss rate {rate}"
        );
    }

    #[test]
    fn paper_config_is_32kb_class() {
        let bits = TageConfig::paper().storage_bits();
        let kb = bits as f64 / 8192.0;
        assert!((20.0..=40.0).contains(&kb), "TAGE storage {kb} KB");
    }

    #[test]
    fn distinct_pcs_do_not_destructively_interfere() {
        let mut tage = Tage::new(TageConfig::tiny());
        let mut missed = 0;
        let mut hist = 0u128;
        for i in 0..4000 {
            for (pc, dir) in [(0x7000u64, true), (0x8000u64, false)] {
                let p = tage.predict(pc, hist);
                if i > 100 && p.taken != dir {
                    missed += 1;
                }
                tage.train(pc, dir, hist);
                hist = (hist << 1) | u128::from(dir);
            }
        }
        assert!(missed < 80, "interference misses: {missed}");
    }
}
