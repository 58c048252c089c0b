//! ITTAGE indirect target predictor (Seznec, CBP-3 2011).
//!
//! The L1 indirect predictor of Table II (3-cycle access, consulted when the
//! L0 branch target cache misses). Tagged tables over geometric history
//! lengths hold full targets plus a confidence counter; a PC-indexed base
//! table provides the fallback target.

use crate::history::{fold_each, MAX_TABLES};
use crate::tagged::{self, TableHash, TaggedTables};
use elf_types::Addr;

/// Geometry of an [`Ittage`] predictor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IttageConfig {
    /// log2 entries per tagged table.
    pub table_bits: u8,
    /// Tag width in bits.
    pub tag_bits: u8,
    /// History length per tagged table (non-decreasing, each at most 128,
    /// at most [`MAX_TABLES`] tables).
    pub hist_lens: Vec<u16>,
    /// log2 entries of the PC-indexed base table.
    pub base_bits: u8,
}

impl IttageConfig {
    /// The Table II configuration: 4 tagged tables, 32 KB class.
    #[must_use]
    pub fn paper() -> Self {
        IttageConfig {
            table_bits: 9,
            tag_bits: 11,
            hist_lens: vec![8, 24, 64, 128],
            base_bits: 10,
        }
    }

    /// Small configuration for unit tests.
    #[must_use]
    pub fn tiny() -> Self {
        IttageConfig {
            table_bits: 6,
            tag_bits: 9,
            hist_lens: vec![4, 12, 32],
            base_bits: 7,
        }
    }
}

/// A tagged entry's payload: a full target and its confidence.
#[derive(Debug, Clone, Copy, Default)]
struct Target {
    target: Addr,
    conf: u8, // 0..=3
}

elf_types::snap_struct!(Target { target, conf });

/// The ITTAGE predictor. The global history is the caller's: every call
/// takes it as a `u128` (bit 0 = most recent outcome).
#[derive(Debug, Clone)]
pub struct Ittage {
    cfg: IttageConfig,
    base: Vec<Addr>,
    tagged: TaggedTables<Target>,
}

impl Ittage {
    /// Creates a predictor with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails the check
    /// [`crate::tage::TageConfig::geometry_error`] states for TAGE.
    #[must_use]
    pub fn new(cfg: IttageConfig) -> Self {
        if let Some(e) = tagged::geometry_error(cfg.table_bits, cfg.tag_bits, &cfg.hist_lens) {
            panic!("unusable ITTAGE geometry: {e}");
        }
        Ittage {
            base: vec![0; 1 << cfg.base_bits],
            tagged: TaggedTables::new(cfg.hist_lens.len(), cfg.table_bits, 0xb0b1),
            cfg,
        }
    }

    /// The paper configuration.
    #[must_use]
    pub fn paper() -> Self {
        Ittage::new(IttageConfig::paper())
    }

    /// Table `t`'s index from the history folded to `table_bits`.
    fn index(&self, pc: Addr, t: usize, folded: u64) -> usize {
        let mask = (1u64 << self.cfg.table_bits) - 1;
        (((pc >> 2) ^ (pc >> 9) ^ folded ^ ((t as u64) << 2)) & mask) as usize
    }

    /// A tag from the history folded to `tag_bits`.
    fn tag(&self, pc: Addr, folded: u64) -> u16 {
        let mask = (1u64 << self.cfg.tag_bits) - 1;
        (((pc >> 2) ^ (pc >> 7) ^ folded.rotate_left(3)) & mask) as u16
    }

    /// Every tagged table's index and tag for `pc` under `hist`, from one
    /// fold pass per width.
    fn hashes(&self, pc: Addr, hist: u128) -> [TableHash; MAX_TABLES] {
        let n = self.tagged.len();
        let lens = &self.cfg.hist_lens[..];
        let mut f_index = [0; MAX_TABLES];
        let mut f_tag = [0; MAX_TABLES];
        fold_each(hist, lens, self.cfg.table_bits, &mut f_index[..n]);
        fold_each(hist, lens, self.cfg.tag_bits, &mut f_tag[..n]);
        let mut out = [TableHash::default(); MAX_TABLES];
        for (t, h) in out[..n].iter_mut().enumerate() {
            *h = TableHash {
                index: self.index(pc, t, f_index[t]),
                tag: self.tag(pc, f_tag[t]),
            };
        }
        out
    }

    fn base_index(&self, pc: Addr) -> usize {
        (((pc >> 2) ^ (pc >> 11)) & ((1 << self.cfg.base_bits) - 1)) as usize
    }

    /// The providing target and table; an entry that never held a target
    /// does not provide.
    fn lookup(&self, pc: Addr, h: &[TableHash]) -> (Addr, Option<usize>) {
        let hit = self
            .tagged
            .longest_match(h, self.tagged.len(), |p| p.target != 0);
        match hit {
            Some((t, p)) => (p.target, Some(t)),
            None => (self.base[self.base_index(pc)], None),
        }
    }

    /// Predicts the target of the indirect branch at `pc` under the global
    /// history `hist`. Returns `None` when no component has any target yet.
    #[must_use]
    pub fn predict(&self, pc: Addr, hist: u128) -> Option<Addr> {
        self.predict_hashed(pc, &self.hashes(pc, hist))
    }

    /// [`Ittage::predict`] with the tables' hashes already computed.
    fn predict_hashed(&self, pc: Addr, h: &[TableHash]) -> Option<Addr> {
        let (t, _) = self.lookup(pc, h);
        (t != 0).then_some(t)
    }

    /// Trains on a retired indirect branch with its resolved `target` and
    /// the history it was predicted under (the checkpoint-queue payload of
    /// §IV-D).
    pub fn train(&mut self, pc: Addr, target: Addr, hist: u128) {
        let h = self.hashes(pc, hist);
        self.train_hashed(pc, target, &h);
    }

    /// [`Ittage::train`] with the tables' hashes already computed.
    fn train_hashed(&mut self, pc: Addr, target: Addr, h: &[TableHash]) {
        let (pred, provider) = self.lookup(pc, h);

        match provider {
            Some(t) => {
                let e = self.tagged.entry_mut(t, h);
                let p = &mut e.payload;
                if p.target == target {
                    p.conf = (p.conf + 1).min(3);
                    e.u = (e.u + 1).min(3);
                } else {
                    if p.conf == 0 {
                        p.target = target;
                    }
                    p.conf = p.conf.saturating_sub(1);
                    e.u = e.u.saturating_sub(1);
                }
            }
            None => {
                let bi = self.base_index(pc);
                self.base[bi] = target;
            }
        }

        if pred != target {
            // Allocate in a longer-history table.
            let start = provider.map_or(0, |t| t + 1);
            self.tagged.allocate(h, start, Target { target, conf: 1 });
        }
    }

    /// Storage cost in bits (tag + 48-bit target + conf + u per entry).
    #[must_use]
    pub fn storage_bits(&self) -> usize {
        let per = self.cfg.tag_bits as usize + 48 + 2 + 2;
        self.tagged.len() * (1 << self.cfg.table_bits) * per + (1 << self.cfg.base_bits) * 48
    }

    /// Saves or restores all mutable state (base table, tagged tables,
    /// LFSR); loading requires a predictor of the same geometry.
    ///
    /// # Errors
    ///
    /// Loading fails on truncated bytes or tables of another geometry.
    pub fn state(&mut self, io: &mut impl elf_types::StateIo) -> Result<(), elf_types::SnapError> {
        io.table(&mut self.base, "ittage base table")?;
        self.tagged.state(io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::fold;

    /// The reference hashing: every table's (index, tag) from its own
    /// `history::fold` calls.
    fn reference_hashes(it: &Ittage, pc: Addr, hist: u128) -> [TableHash; MAX_TABLES] {
        let c = &it.cfg;
        let mut out = [TableHash::default(); MAX_TABLES];
        for (t, &len) in c.hist_lens.iter().enumerate() {
            out[t] = TableHash {
                index: it.index(pc, t, fold(hist, len, c.table_bits)),
                tag: it.tag(pc, fold(hist, len, c.tag_bits)),
            };
        }
        out
    }

    #[test]
    fn one_pass_hashing_predicts_like_per_table_folding() {
        let odd = IttageConfig {
            hist_lens: vec![0, 7, 7, 128],
            ..IttageConfig::tiny()
        };
        let tgts = [0x10_000u64, 0x20_040, 0x30_080, 0x40_0c0];
        for cfg in [IttageConfig::paper(), IttageConfig::tiny(), odd] {
            let mut fast = Ittage::new(cfg.clone());
            let mut reference = Ittage::new(cfg);
            let mut hist = 0u128;
            let mut x: u64 = 0x2545_f491_4f6c_dd1d;
            for step in 0..20_000 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let pc = 0x2000 + ((x >> 40) % 16) * 4;
                // History-selected targets with some noise.
                let target = tgts
                    [((hist >> (pc % 5)) as usize ^ usize::from((x >> 20).is_multiple_of(8))) & 3];
                let h = reference_hashes(&reference, pc, hist);
                assert_eq!(fast.hashes(pc, hist), h, "step {step}");
                assert_eq!(
                    fast.predict(pc, hist),
                    reference.predict_hashed(pc, &h),
                    "step {step}"
                );
                fast.train(pc, target, hist);
                reference.train_hashed(pc, target, &h);
                hist = (hist << 1) | u128::from((x >> 33) & 1 == 1);
            }
        }
    }

    fn run(it: &mut Ittage, pc: Addr, targets: impl Iterator<Item = Addr>, warmup: usize) -> f64 {
        let mut miss = 0u64;
        let mut total = 0u64;
        let mut hist = 0u128;
        for (i, t) in targets.enumerate() {
            let p = it.predict(pc, hist);
            if i >= warmup {
                total += 1;
                if p != Some(t) {
                    miss += 1;
                }
            }
            it.train(pc, t, hist);
            // History bit: parity of the target's significant address bits.
            hist = (hist << 1) | u128::from((t >> 2).count_ones() & 1);
        }
        miss as f64 / total.max(1) as f64
    }

    #[test]
    fn learns_monomorphic_target() {
        let mut it = Ittage::new(IttageConfig::tiny());
        let rate = run(&mut it, 0x100, (0..500).map(|_| 0xbeef0u64), 10);
        assert!(rate < 0.01, "mono miss rate {rate}");
    }

    #[test]
    fn learns_round_robin_targets() {
        let mut it = Ittage::new(IttageConfig::tiny());
        let tgts = [0x1000u64, 0x2000, 0x3000];
        let rate = run(&mut it, 0x200, (0..6000).map(|i| tgts[i % 3]), 1000);
        assert!(rate < 0.25, "round-robin miss rate {rate}");
    }

    #[test]
    fn history_correlated_targets_beat_base_table() {
        // Target = f(last 2 history bits): pure function of history.
        let tgts = [0x10_000u64, 0x20_000, 0x30_000, 0x40_000];
        let mut it = Ittage::new(IttageConfig::tiny());
        let mut hist = 0u128;
        let mut miss = 0;
        let mut total = 0;
        let mut x: u64 = 7;
        for i in 0..8000 {
            let t = tgts[(hist & 3) as usize];
            let p = it.predict(0x300, hist);
            if i > 2000 {
                total += 1;
                if p != Some(t) {
                    miss += 1;
                }
            }
            it.train(0x300, t, hist);
            // All targets share their low bits, so the history comes from a
            // pseudo-random conditional stream.
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            hist = (hist << 1) | u128::from((x >> 40) & 1 == 1);
        }
        let rate = miss as f64 / total as f64;
        assert!(rate < 0.2, "history-correlated target miss rate {rate}");
    }

    #[test]
    fn distinct_branches_coexist() {
        let mut it = Ittage::new(IttageConfig::tiny());
        for _ in 0..200 {
            it.train(0x400, 0xaaa0, 0);
            it.train(0x500, 0xbbb0, 0);
        }
        assert_eq!(it.predict(0x400, 0), Some(0xaaa0));
        assert_eq!(it.predict(0x500, 0), Some(0xbbb0));
    }

    #[test]
    #[should_panic(expected = "unusable ITTAGE geometry: table_bits")]
    fn a_zero_width_index_is_rejected() {
        // A zero fold width would never advance the history walk.
        let _ = Ittage::new(IttageConfig {
            table_bits: 0,
            ..IttageConfig::tiny()
        });
    }

    #[test]
    #[should_panic(expected = "unusable ITTAGE geometry: tag_bits")]
    fn a_tag_wider_than_the_tag_field_is_rejected() {
        let _ = Ittage::new(IttageConfig {
            tag_bits: 17,
            ..IttageConfig::tiny()
        });
    }

    #[test]
    fn cold_predictor_returns_none() {
        let it = Ittage::new(IttageConfig::tiny());
        assert_eq!(it.predict(0x600, 0), None);
    }

    #[test]
    fn paper_config_is_32kb_class() {
        let kb = Ittage::paper().storage_bits() as f64 / 8192.0;
        assert!((10.0..=40.0).contains(&kb), "ITTAGE storage {kb} KB");
    }
}
