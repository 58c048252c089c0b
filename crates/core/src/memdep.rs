//! PC-based memory-dependence predictor (Table II).
//!
//! "PC-based filter: violating load-store pair is recorded in the table.
//! When load PC is renamed, load waits for older store if matching store PC
//! was fetched."

use elf_types::Addr;

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    load_pc: Addr,
    store_pc: Addr,
    valid: bool,
}

elf_types::snap_struct!(Entry {
    load_pc,
    store_pc,
    valid
});

/// The violating-pair table. Direct-mapped on the load PC.
#[derive(Debug, Clone)]
pub struct MemDepTable {
    entries: Vec<Entry>,
    trainings: u64,
    hits: u64,
}

impl MemDepTable {
    /// Creates a table with `entries` slots (rounded to a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is 0.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0);
        MemDepTable {
            entries: vec![Entry::default(); entries.next_power_of_two()],
            trainings: 0,
            hits: 0,
        }
    }

    /// The baseline geometry (256 pairs).
    #[must_use]
    pub fn paper() -> Self {
        MemDepTable::new(256)
    }

    fn index(&self, load_pc: Addr) -> usize {
        ((load_pc >> 2) as usize) & (self.entries.len() - 1)
    }

    /// Records a violating (load, store) PC pair after a RAW-hazard flush.
    pub fn train(&mut self, load_pc: Addr, store_pc: Addr) {
        self.trainings += 1;
        let i = self.index(load_pc);
        self.entries[i] = Entry {
            load_pc,
            store_pc,
            valid: true,
        };
    }

    /// At rename: the store PC this load must wait for, if any.
    #[must_use]
    pub fn predicted_store(&mut self, load_pc: Addr) -> Option<Addr> {
        let e = self.entries[self.index(load_pc)];
        if e.valid && e.load_pc == load_pc {
            self.hits += 1;
            Some(e.store_pc)
        } else {
            None
        }
    }

    /// (trainings, rename-time hits).
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (self.trainings, self.hits)
    }

    /// Saves or restores the violating-pair table and its counters;
    /// loading requires a table of the same geometry.
    ///
    /// # Errors
    ///
    /// Loading fails on truncated bytes or a table-size mismatch.
    pub fn state(&mut self, io: &mut impl elf_types::StateIo) -> Result<(), elf_types::SnapError> {
        io.table(&mut self.entries, "memdep table")?;
        io.value(&mut self.trainings)?;
        io.value(&mut self.hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untrained_table_predicts_nothing() {
        let mut t = MemDepTable::paper();
        assert_eq!(t.predicted_store(0x1000), None);
    }

    #[test]
    fn trained_pair_is_returned() {
        let mut t = MemDepTable::paper();
        t.train(0x1000, 0x2000);
        assert_eq!(t.predicted_store(0x1000), Some(0x2000));
        assert_eq!(t.predicted_store(0x1004), None);
    }

    #[test]
    fn retrain_overwrites() {
        let mut t = MemDepTable::paper();
        t.train(0x1000, 0x2000);
        t.train(0x1000, 0x3000);
        assert_eq!(t.predicted_store(0x1000), Some(0x3000));
    }

    #[test]
    fn conflicting_loads_evict() {
        let mut t = MemDepTable::new(16);
        t.train(0x1000, 0xa000);
        t.train(0x1000 + 16 * 4, 0xb000); // same index, different tag
        assert_eq!(t.predicted_store(0x1000), None);
        assert_eq!(t.predicted_store(0x1000 + 64), Some(0xb000));
    }
}
