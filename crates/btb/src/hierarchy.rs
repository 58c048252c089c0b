//! The 3-level BTB hierarchy of Table II.

use crate::entry::BtbEntry;
use crate::level::BtbLevel;
use elf_types::Addr;

/// Geometry/latency configuration of the hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BtbConfig {
    /// L0 entries (fully associative, 0-cycle).
    pub l0_entries: usize,
    /// L1 entries.
    pub l1_entries: usize,
    /// L1 associativity.
    pub l1_ways: usize,
    /// L1 latency (cycles).
    pub l1_latency: u32,
    /// L2 entries.
    pub l2_entries: usize,
    /// L2 associativity.
    pub l2_ways: usize,
    /// L2 latency (cycles).
    pub l2_latency: u32,
}

impl BtbConfig {
    /// Table II: L0 24-entry FA 0-cycle; L1 256-entry 4-way 1-cycle;
    /// L2 4K-entry 8-way 3-cycle.
    #[must_use]
    pub fn paper() -> Self {
        BtbConfig {
            l0_entries: 24,
            l1_entries: 256,
            l1_ways: 4,
            l1_latency: 1,
            l2_entries: 4096,
            l2_ways: 8,
            l2_latency: 3,
        }
    }

    /// What makes the geometry unusable, if anything: a level with no
    /// entries or no ways. The message names the field.
    #[must_use]
    pub fn geometry_error(&self) -> Option<&'static str> {
        [
            (self.l0_entries, "l0_entries must be at least 1"),
            (self.l1_entries, "l1_entries must be at least 1"),
            (self.l1_ways, "l1_ways must be at least 1"),
            (self.l2_entries, "l2_entries must be at least 1"),
            (self.l2_ways, "l2_ways must be at least 1"),
        ]
        .into_iter()
        .find_map(|(n, msg)| (n == 0).then_some(msg))
    }
}

impl Default for BtbConfig {
    fn default() -> Self {
        BtbConfig::paper()
    }
}

/// Per-level hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BtbStats {
    /// Total lookups.
    pub lookups: u64,
    /// Hits satisfied by the L0.
    pub l0_hits: u64,
    /// Hits satisfied by the L1.
    pub l1_hits: u64,
    /// Hits satisfied by the L2.
    pub l2_hits: u64,
    /// Complete misses.
    pub misses: u64,
    /// Entries installed at retirement.
    pub installs: u64,
}

impl BtbStats {
    /// Cumulative hit rate of levels `0..=level` (paper §VI-A reports
    /// 28.3 / 48.5 / 70.6% for L0/L1/L2 on server 1 subtest 1).
    #[must_use]
    pub fn hit_rate_through(&self, level: u8) -> f64 {
        if self.lookups == 0 {
            return 0.0;
        }
        let hits = match level {
            0 => self.l0_hits,
            1 => self.l0_hits + self.l1_hits,
            _ => self.l0_hits + self.l1_hits + self.l2_hits,
        };
        hits as f64 / self.lookups as f64
    }
}

/// Result of a hierarchy lookup: the entry plus the level that provided it
/// (0, 1 or 2), which determines the bubble count in BP1/BP2 (§III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BtbLookup {
    /// The matching entry.
    pub entry: BtbEntry,
    /// Providing level.
    pub level: u8,
    /// Access latency of the providing level in cycles.
    pub latency: u32,
}

/// The 3-level BTB with hit promotion and install-time merging.
///
/// ```
/// use elf_btb::{BtbEntry, BtbHierarchy};
///
/// let mut btb = BtbHierarchy::paper();
/// assert!(btb.lookup(0x1000).is_none());
/// btb.install(BtbEntry::new(0x1000, 16));
/// let hit = btb.lookup(0x1000).unwrap();
/// assert!(hit.level >= 1); // installs land in L1/L2; hits promote to L0
/// assert_eq!(btb.lookup(0x1000).unwrap().level, 0);
/// ```
#[derive(Debug, Clone)]
pub struct BtbHierarchy {
    l0: BtbLevel,
    l1: BtbLevel,
    l2: BtbLevel,
    stats: BtbStats,
}

impl BtbHierarchy {
    /// Creates a hierarchy with the given geometry.
    #[must_use]
    pub fn new(cfg: &BtbConfig) -> Self {
        BtbHierarchy {
            l0: BtbLevel::new("L0", cfg.l0_entries, cfg.l0_entries, 0),
            l1: BtbLevel::new("L1", cfg.l1_entries, cfg.l1_ways, cfg.l1_latency),
            l2: BtbLevel::new("L2", cfg.l2_entries, cfg.l2_ways, cfg.l2_latency),
            stats: BtbStats::default(),
        }
    }

    /// The Table II hierarchy.
    #[must_use]
    pub fn paper() -> Self {
        BtbHierarchy::new(&BtbConfig::paper())
    }

    /// Looks up `pc` level by level; hits promote the entry into the upper
    /// levels so the hot working set migrates toward the L0.
    pub fn lookup(&mut self, pc: Addr) -> Option<BtbLookup> {
        self.stats.lookups += 1;
        if let Some(entry) = self.l0.lookup(pc) {
            self.stats.l0_hits += 1;
            return Some(BtbLookup {
                entry,
                level: 0,
                latency: self.l0.latency(),
            });
        }
        if let Some(entry) = self.l1.lookup(pc) {
            self.stats.l1_hits += 1;
            self.l0.install(entry);
            return Some(BtbLookup {
                entry,
                level: 1,
                latency: self.l1.latency(),
            });
        }
        if let Some(entry) = self.l2.lookup(pc) {
            self.stats.l2_hits += 1;
            self.l1.install(entry);
            self.l0.install(entry);
            return Some(BtbLookup {
                entry,
                level: 2,
                latency: self.l2.latency(),
            });
        }
        self.stats.misses += 1;
        None
    }

    /// Installs a freshly-established entry (at retirement), merging with
    /// any existing entry for the same start PC — this is how entries grow
    /// past taken branches and how the split-on-third-branch rule plays out
    /// (paper §III-A).
    pub fn install(&mut self, fresh: BtbEntry) {
        self.stats.installs += 1;
        let mut merged = fresh;
        if let Some(old) = self
            .l0
            .peek(fresh.start_pc)
            .or_else(|| self.l1.peek(fresh.start_pc))
            .or_else(|| self.l2.peek(fresh.start_pc))
        {
            let mut m = *old;
            m.merge(&fresh);
            merged = m;
        }
        self.l2.install(merged);
        self.l1.install(merged);
        if self.l0.peek(merged.start_pc).is_some() {
            self.l0.install(merged);
        }
    }

    /// Overwrites an entry in every level *without* merging — models stale
    /// content (self-modifying code) that retirement-driven establishment
    /// never produces. Intended for tests and fault injection.
    pub fn overwrite(&mut self, entry: BtbEntry) {
        self.l2.install(entry);
        self.l1.install(entry);
        self.l0.install(entry);
    }

    /// Statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> BtbStats {
        self.stats
    }

    /// Resets statistics (after warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = BtbStats::default();
    }

    /// Occupancy of (L0, L1, L2) in entries.
    #[must_use]
    pub fn occupancy(&self) -> (usize, usize, usize) {
        (
            self.l0.occupancy(),
            self.l1.occupancy(),
            self.l2.occupancy(),
        )
    }

    /// Saves or restores the full hierarchy (all three levels plus
    /// counters); loading requires a hierarchy of the same geometry.
    ///
    /// # Errors
    ///
    /// Loading fails on truncated bytes or levels of another geometry.
    pub fn state(&mut self, io: &mut impl elf_types::StateIo) -> Result<(), elf_types::SnapError> {
        self.l0.state(io)?;
        self.l1.state(io)?;
        self.l2.state(io)?;
        io.value(&mut self.stats)
    }
}

elf_types::snap_struct!(BtbStats {
    lookups,
    l0_hits,
    l1_hits,
    l2_hits,
    misses,
    installs
});
elf_types::snap_struct!(BtbConfig {
    l0_entries,
    l1_entries,
    l1_ways,
    l1_latency,
    l2_entries,
    l2_ways,
    l2_latency,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::BtbBranch;
    use elf_types::BranchKind::*;

    fn entry(pc: Addr) -> BtbEntry {
        BtbEntry::new(pc, 16)
    }

    #[test]
    fn miss_then_install_then_hit() {
        let mut h = BtbHierarchy::paper();
        assert!(h.lookup(0x1000).is_none());
        h.install(entry(0x1000));
        let hit = h.lookup(0x1000).unwrap();
        assert_eq!(hit.entry.start_pc, 0x1000);
        assert!(hit.level >= 1, "installs land in L1/L2, not L0");
    }

    #[test]
    fn hits_promote_to_l0() {
        let mut h = BtbHierarchy::paper();
        h.install(entry(0x2000));
        let first = h.lookup(0x2000).unwrap();
        assert_eq!(first.level, 1);
        let second = h.lookup(0x2000).unwrap();
        assert_eq!(second.level, 0, "promotion makes the next hit an L0 hit");
        assert_eq!(second.latency, 0);
    }

    #[test]
    fn capacity_pressure_pushes_hits_to_lower_levels() {
        let mut h = BtbHierarchy::paper();
        // Install far more entries than L1 holds.
        for i in 0..4000u64 {
            h.install(entry(0x10_000 + i * 64));
        }
        h.reset_stats();
        let mut by_level = [0u64; 3];
        let mut misses = 0u64;
        for i in 0..4000u64 {
            match h.lookup(0x10_000 + i * 64) {
                Some(l) => by_level[l.level as usize] += 1,
                None => misses += 1,
            }
        }
        assert!(
            by_level[2] > 1000,
            "most of a 4000-entry footprint must live in the L2: {by_level:?} misses={misses}"
        );
    }

    #[test]
    fn install_merges_with_existing_entry() {
        let mut h = BtbHierarchy::paper();
        let mut short = BtbEntry::new(0x3000, 4);
        short.add_branch(BtbBranch {
            offset: 3,
            kind: CondDirect,
            target: Some(0x9000),
        });
        h.install(short);
        // A later fall-through pass extends the run to 16 instructions.
        h.install(BtbEntry::new(0x3000, 16));
        let e = h.lookup(0x3000).unwrap().entry;
        assert_eq!(e.inst_count, 16, "merge must grow the span");
        assert_eq!(
            e.branch_at(3).unwrap().target,
            Some(0x9000),
            "slot preserved"
        );
    }

    #[test]
    fn stats_track_levels_and_misses() {
        let mut h = BtbHierarchy::paper();
        h.install(entry(0x4000));
        let _ = h.lookup(0x4000); // L1 hit
        let _ = h.lookup(0x4000); // L0 hit
        let _ = h.lookup(0x5000); // miss
        let s = h.stats();
        assert_eq!(s.lookups, 3);
        assert_eq!(s.l0_hits, 1);
        assert_eq!(s.l1_hits, 1);
        assert_eq!(s.misses, 1);
        assert!(s.hit_rate_through(2) > 0.6);
        assert!(s.hit_rate_through(0) < s.hit_rate_through(1));
    }
}
