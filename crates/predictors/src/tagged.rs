//! The tagged-table core shared by TAGE and ITTAGE: partially-tagged
//! tables over geometric history lengths, longest-match lookup, allocation
//! with its LFSR and `u` decay, useful-bit aging and the snapshot walk.
//! Each predictor keeps its own hashing, base component and update rules.

use crate::history::MAX_TABLES;
use elf_types::{Snap, SnapError, SnapReader, SnapWriter, StateIo};

/// One tagged table's index and tag for a (pc, history) pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct TableHash {
    pub(crate) index: usize,
    pub(crate) tag: u16,
}

/// One tagged entry: TAGE's payload is its 3-bit direction counter,
/// ITTAGE's a target and its confidence.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Entry<P> {
    pub(crate) tag: u16,
    pub(crate) payload: P,
    pub(crate) u: u8, // 0..=3
}

impl<P: Snap + Copy> Snap for Entry<P> {
    fn save(&self, w: &mut SnapWriter) {
        (self.tag, self.payload, self.u).save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let (tag, payload, u) = Snap::load(r)?;
        Ok(Entry { tag, payload, u })
    }
}

/// What makes a TAGE or ITTAGE geometry unusable, if anything; the rules
/// are spelled out on [`crate::tage::TageConfig::geometry_error`].
pub(crate) fn geometry_error(
    table_bits: u8,
    tag_bits: u8,
    hist_lens: &[u16],
) -> Option<&'static str> {
    if table_bits == 0 {
        Some("table_bits must be at least 1")
    } else if !(2..=16).contains(&tag_bits) {
        Some("tag_bits must be 2..=16")
    } else if hist_lens.iter().any(|&len| len > 128) {
        Some("hist_lens must each be at most 128")
    } else if hist_lens.windows(2).any(|w| w[0] > w[1]) {
        Some("hist_lens must be non-decreasing")
    } else if hist_lens.len() > MAX_TABLES {
        Some("hist_lens must have at most 16 entries")
    } else {
        None
    }
}

/// The tagged tables, shortest history first, and the allocation LFSR.
#[derive(Debug, Clone)]
pub(crate) struct TaggedTables<P> {
    tables: Vec<Vec<Entry<P>>>,
    lfsr: u32,
}

impl<P: Copy + Default + Snap> TaggedTables<P> {
    /// `count` empty tables of `1 << table_bits` entries; `seed` starts
    /// the LFSR.
    pub(crate) fn new(count: usize, table_bits: u8, seed: u32) -> Self {
        TaggedTables {
            tables: vec![vec![Entry::default(); 1 << table_bits]; count],
            lfsr: seed,
        }
    }

    /// Number of tagged tables.
    pub(crate) fn len(&self) -> usize {
        self.tables.len()
    }

    /// The longest-history table below `below` whose entry at `h` carries
    /// the right tag and a payload `hit` accepts, with that payload.
    pub(crate) fn longest_match(
        &self,
        h: &[TableHash],
        below: usize,
        hit: impl Fn(&P) -> bool,
    ) -> Option<(usize, &P)> {
        (0..below).rev().find_map(|t| {
            let e = &self.tables[t][h[t].index];
            (e.tag == h[t].tag && hit(&e.payload)).then_some((t, &e.payload))
        })
    }

    /// Table `t`'s entry at `h`.
    pub(crate) fn entry_mut(&mut self, t: usize, h: &[TableHash]) -> &mut Entry<P> {
        &mut self.tables[t][h[t].index]
    }

    /// Allocates `payload` in table `start` or a longer one after a
    /// misprediction. One LFSR step picks the first table tried: `start`,
    /// or `start + 1` on an odd draw, which skews allocation toward the
    /// shorter histories. The first entry from there with `u == 0` takes
    /// the payload; when none is free, every `u` from `start` on decays.
    pub(crate) fn allocate(&mut self, h: &[TableHash], start: usize, payload: P) {
        // 16-bit Galois LFSR for allocation randomization.
        let l = self.lfsr;
        self.lfsr = (l >> 1) | (((l ^ (l >> 2) ^ (l >> 3) ^ (l >> 5)) & 1) << 15);
        let first = start + (self.lfsr & 1) as usize;
        let mut path = self.tables.iter_mut().zip(h).skip(first);
        if let Some((table, h)) = path.find(|(table, h)| table[h.index].u == 0) {
            table[h.index] = Entry {
                tag: h.tag,
                payload,
                u: 0,
            };
        } else {
            for (table, h) in self.tables.iter_mut().zip(h).skip(start) {
                table[h.index].u = table[h.index].u.saturating_sub(1);
            }
        }
    }

    /// Halves every useful counter (periodic aging).
    pub(crate) fn age_useful(&mut self) {
        for e in self.tables.iter_mut().flatten() {
            e.u >>= 1;
        }
    }

    /// Saves or restores the tables and the LFSR; loading requires tables
    /// of the same geometry.
    pub(crate) fn state(&mut self, io: &mut impl StateIo) -> Result<(), SnapError> {
        io.fixed_len(self.tables.len(), "tagged table count")?;
        for t in &mut self.tables {
            io.table(t, "tagged table")?;
        }
        io.value(&mut self.lfsr)
    }
}
