//! One set-associative BTB level.

use crate::entry::BtbEntry;
use elf_types::Addr;

/// A set-associative store of [`BtbEntry`]s keyed by their start PC, with
/// true-LRU replacement.
#[derive(Debug, Clone)]
pub struct BtbLevel {
    name: &'static str,
    sets: Vec<Vec<Way>>,
    ways: usize,
    latency: u32,
    tick: u64,
}

#[derive(Debug, Clone)]
struct Way {
    entry: BtbEntry,
    last_use: u64,
}

elf_types::snap_struct!(Way { entry, last_use });

impl BtbLevel {
    /// Creates a level with `entries` total entries organized as
    /// `entries / ways` sets (fully associative when `ways >= entries`).
    ///
    /// # Panics
    ///
    /// Panics if `entries` or `ways` is 0.
    #[must_use]
    pub fn new(name: &'static str, entries: usize, ways: usize, latency: u32) -> Self {
        assert!(entries > 0 && ways > 0);
        let ways = ways.min(entries);
        let nsets = (entries / ways).max(1).next_power_of_two();
        BtbLevel {
            name,
            sets: vec![Vec::with_capacity(ways); nsets],
            ways,
            latency,
            tick: 0,
        }
    }

    fn set_index(&self, pc: Addr) -> usize {
        (((pc >> 2) ^ (pc >> 12)) as usize) & (self.sets.len() - 1)
    }

    /// Access latency in cycles (0 for the L0).
    #[must_use]
    pub fn latency(&self) -> u32 {
        self.latency
    }

    /// Level name (for statistics).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Looks up the entry whose `start_pc` equals `pc`, updating LRU.
    pub fn lookup(&mut self, pc: Addr) -> Option<BtbEntry> {
        self.tick += 1;
        let tick = self.tick;
        let si = self.set_index(pc);
        for w in &mut self.sets[si] {
            if w.entry.start_pc == pc {
                w.last_use = tick;
                return Some(w.entry);
            }
        }
        None
    }

    /// Peeks without touching LRU (used by install-merge).
    #[must_use]
    pub fn peek(&self, pc: Addr) -> Option<&BtbEntry> {
        let si = self.set_index(pc);
        self.sets[si]
            .iter()
            .find(|w| w.entry.start_pc == pc)
            .map(|w| &w.entry)
    }

    /// Installs (or overwrites) an entry, evicting LRU if the set is full.
    pub fn install(&mut self, entry: BtbEntry) {
        self.tick += 1;
        let tick = self.tick;
        let si = self.set_index(entry.start_pc);
        let set = &mut self.sets[si];
        if let Some(w) = set.iter_mut().find(|w| w.entry.start_pc == entry.start_pc) {
            w.entry = entry;
            w.last_use = tick;
            return;
        }
        if set.len() >= self.ways {
            let victim = set
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.last_use)
                .map(|(i, _)| i)
                .expect("set is non-empty");
            set.swap_remove(victim);
        }
        set.push(Way {
            entry,
            last_use: tick,
        });
    }

    /// Number of live entries.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Total capacity in entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.sets.len() * self.ways
    }

    /// Saves or restores the level's content including per-way LRU stamps
    /// and the exact in-set order (replacement uses `swap_remove`, so
    /// order affects future evictions and must round-trip bit-exactly).
    /// Loading requires a level of the same geometry.
    ///
    /// # Errors
    ///
    /// Loading fails on truncated bytes, another set count or a set
    /// holding more ways than the level has.
    pub fn state(&mut self, io: &mut impl elf_types::StateIo) -> Result<(), elf_types::SnapError> {
        io.fixed_len(self.sets.len(), "btb set count")?;
        for set in &mut self.sets {
            io.bounded(set, self.ways, "btb set")?;
        }
        io.value(&mut self.tick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(pc: Addr) -> BtbEntry {
        BtbEntry::new(pc, 16)
    }

    #[test]
    fn lookup_finds_installed_entries() {
        let mut l = BtbLevel::new("L1", 256, 4, 1);
        l.install(e(0x1000));
        assert_eq!(l.lookup(0x1000).unwrap().start_pc, 0x1000);
        assert!(l.lookup(0x2000).is_none());
    }

    #[test]
    fn reinstall_overwrites_in_place() {
        let mut l = BtbLevel::new("L1", 64, 4, 1);
        l.install(e(0x1000));
        let mut e2 = BtbEntry::new(0x1000, 8);
        e2.add_branch(crate::entry::BtbBranch {
            offset: 7,
            kind: elf_types::BranchKind::UncondDirect,
            target: Some(0x4000),
        });
        l.install(e2);
        assert_eq!(l.occupancy(), 1);
        assert_eq!(l.lookup(0x1000).unwrap().inst_count, 8);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // 4 sets x 2 ways = 8 entries; conflict a set deliberately.
        let mut l = BtbLevel::new("T", 8, 2, 1);
        // Find three PCs mapping to the same set.
        let mut same_set = Vec::new();
        let base = 0x1000u64;
        let set0 = ((base >> 2) ^ (base >> 12)) as usize & 3;
        let mut pc = base;
        while same_set.len() < 3 {
            if (((pc >> 2) ^ (pc >> 12)) as usize & 3) == set0 {
                same_set.push(pc);
            }
            pc += 4;
        }
        l.install(e(same_set[0]));
        l.install(e(same_set[1]));
        let _ = l.lookup(same_set[0]); // refresh entry 0
        l.install(e(same_set[2])); // evicts entry 1 (LRU)
        assert!(l.lookup(same_set[0]).is_some());
        assert!(l.lookup(same_set[1]).is_none());
        assert!(l.lookup(same_set[2]).is_some());
    }

    #[test]
    fn fully_associative_when_ways_exceed_entries() {
        let l = BtbLevel::new("L0", 24, 24, 0);
        assert_eq!(l.capacity(), 24);
        assert_eq!(l.latency(), 0);
    }
}
