//! Branch Target Cache: small direct-mapped indirect-target cache.
//!
//! Table II uses two instances: the decoupled L0 indirect predictor
//! (64-entry, 12-bit tags, 1-cycle — a hit hides all but one bubble, a miss
//! exposes the 3-cycle ITTAGE latency) and the coupled predictor of
//! IND-/U-ELF (same geometry, 0.6 KB).

use elf_types::Addr;

/// A direct-mapped, partially-tagged target cache.
#[derive(Debug, Clone)]
pub struct BranchTargetCache {
    entries: Vec<Option<(u16, Addr)>>,
    tag_bits: u8,
    index_mask: u64,
}

impl BranchTargetCache {
    /// Creates a cache with `entries` slots (rounded up to a power of two)
    /// and `tag_bits`-bit partial tags.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is 0 or `tag_bits` is 0 or greater than 16.
    #[must_use]
    pub fn new(entries: usize, tag_bits: u8) -> Self {
        assert!(entries > 0);
        assert!((1..=16).contains(&tag_bits));
        let n = entries.next_power_of_two();
        BranchTargetCache {
            entries: vec![None; n],
            tag_bits,
            index_mask: n as u64 - 1,
        }
    }

    /// The Table II geometry: 64 entries, 12-bit tags (0.6 KB).
    #[must_use]
    pub fn paper() -> Self {
        BranchTargetCache::new(64, 12)
    }

    fn index(&self, pc: Addr) -> usize {
        ((pc >> 2) & self.index_mask) as usize
    }

    fn tag(&self, pc: Addr) -> u16 {
        let shift = 2 + self.index_mask.count_ones() as u64;
        ((pc >> shift) & ((1 << self.tag_bits) - 1)) as u16
    }

    /// Looks up the target for the indirect branch at `pc`.
    #[must_use]
    pub fn predict(&self, pc: Addr) -> Option<Addr> {
        match self.entries[self.index(pc)] {
            Some((tag, target)) if tag == self.tag(pc) => Some(target),
            _ => None,
        }
    }

    /// Installs/updates the resolved target.
    pub fn train(&mut self, pc: Addr, target: Addr) {
        let i = self.index(pc);
        self.entries[i] = Some((self.tag(pc), target));
    }

    /// Number of slots.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.entries.len()
    }

    /// Storage in bits (tag + 48-bit target + valid per entry).
    #[must_use]
    pub fn storage_bits(&self) -> usize {
        self.entries.len() * (self.tag_bits as usize + 48 + 1)
    }

    /// Saves or restores the entry array (loading requires a cache of the
    /// same geometry).
    ///
    /// # Errors
    ///
    /// Loading fails on truncated bytes or a table of another size.
    pub fn state(&mut self, io: &mut impl elf_types::StateIo) -> Result<(), elf_types::SnapError> {
        io.table(&mut self.entries, "btc table")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_and_predicts_a_target() {
        let mut btc = BranchTargetCache::paper();
        assert_eq!(btc.predict(0x1000), None);
        btc.train(0x1000, 0xfee10);
        assert_eq!(btc.predict(0x1000), Some(0xfee10));
    }

    #[test]
    fn update_replaces_target() {
        let mut btc = BranchTargetCache::paper();
        btc.train(0x1000, 0xaaa0);
        btc.train(0x1000, 0xbbb0);
        assert_eq!(btc.predict(0x1000), Some(0xbbb0));
    }

    #[test]
    fn direct_mapped_conflicts_evict() {
        let mut btc = BranchTargetCache::new(64, 12);
        // Same index (low 6 bits of pc>>2), different tag.
        let a = 0x1000u64;
        let b = a + 64 * 4;
        btc.train(a, 0x1110);
        btc.train(b, 0x2220);
        assert_eq!(btc.predict(b), Some(0x2220));
        assert_eq!(btc.predict(a), None, "conflicting entry must evict");
    }

    #[test]
    fn partial_tags_can_alias_far_addresses() {
        let btc_bits = 12u64;
        let mut btc = BranchTargetCache::new(64, 12);
        let a = 0x1000u64;
        // Same index and same 12-bit tag: differs only above the tag.
        let alias = a + (1 << (2 + 6 + btc_bits));
        btc.train(a, 0x3330);
        assert_eq!(
            btc.predict(alias),
            Some(0x3330),
            "partial tags alias by design"
        );
    }

    #[test]
    fn paper_storage_is_about_0_6_kb() {
        let kb = BranchTargetCache::paper().storage_bits() as f64 / 8192.0;
        assert!((0.4..=0.8).contains(&kb), "BTC storage {kb} KB");
    }
}
