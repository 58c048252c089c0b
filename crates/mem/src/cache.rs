//! A generic set-associative cache with true-LRU replacement.

use elf_types::Addr;

/// Geometry and latency of one cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Human-readable name ("L0I", "L2", ...).
    pub name: &'static str,
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Access latency in cycles (hit latency / load-to-use).
    pub latency: u32,
}

elf_types::snap_struct!(CacheConfig {
    name as String => intern_cache_name,
    size_bytes,
    ways,
    line_bytes,
    latency,
});

/// Maps a deserialized cache name back to a `&'static str`. The five
/// canonical names cover every snapshot the simulator itself writes;
/// exotic hand-built configs fall back to a one-time leak.
fn intern_cache_name(name: String) -> &'static str {
    for known in ["L0I", "L1I", "L1D", "L2", "L3"] {
        if name == known {
            return known;
        }
    }
    Box::leak(name.into_boxed_str())
}

impl CacheConfig {
    /// What makes the geometry unusable, if anything: a zero size, way
    /// count or line size, a line size that is not a power of two, or a
    /// capacity smaller than one set. The message names the field.
    #[must_use]
    pub fn geometry_error(&self) -> Option<&'static str> {
        if self.size_bytes == 0 {
            Some("size_bytes must be at least 1")
        } else if self.ways == 0 {
            Some("ways must be at least 1")
        } else if !self.line_bytes.is_power_of_two() {
            Some("line_bytes must be a power of two")
        } else if self
            .ways
            .checked_mul(self.line_bytes)
            .is_none_or(|set| self.size_bytes < set)
        {
            Some("size_bytes is smaller than one set (ways * line_bytes)")
        } else {
            None
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes or more way-bytes
    /// than capacity).
    #[must_use]
    pub fn sets(&self) -> usize {
        assert!(self.size_bytes > 0 && self.ways > 0 && self.line_bytes > 0);
        let sets = self.size_bytes / (self.ways * self.line_bytes);
        assert!(sets > 0, "cache {} smaller than one set", self.name);
        sets.next_power_of_two()
    }
}

/// Tag store of a set-associative cache (data values are not simulated —
/// only presence, dirtiness and recency matter to timing).
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: Vec<Vec<Line>>,
    /// log2 of the line size.
    line_shift: u32,
    /// log2 of the set count.
    set_shift: u32,
    tick: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    last_use: u64,
    dirty: bool,
}

elf_types::snap_struct!(Line {
    tag,
    last_use,
    dirty
});

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (see [`CacheConfig::sets`]) or
    /// the line size is not a power of two.
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "cache {} line size {} is not a power of two",
            cfg.name,
            cfg.line_bytes
        );
        Cache {
            sets: vec![Vec::with_capacity(cfg.ways); sets],
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            cfg,
            tick: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Hit latency in cycles.
    #[must_use]
    pub fn latency(&self) -> u32 {
        self.cfg.latency
    }

    fn decompose(&self, addr: Addr) -> (usize, u64) {
        let line = addr >> self.line_shift;
        let set = (line as usize) & (self.sets.len() - 1);
        let tag = line >> self.set_shift;
        (set, tag)
    }

    /// Looks up `addr`, updating LRU and hit/miss counters. Does **not**
    /// fill on miss — call [`Cache::fill`] so the caller controls fill
    /// policy (e.g. prefetches vs. demand).
    pub fn access(&mut self, addr: Addr) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let (si, tag) = self.decompose(addr);
        if let Some(w) = self.sets[si].iter_mut().find(|w| w.tag == tag) {
            w.last_use = tick;
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Checks presence without perturbing LRU or statistics.
    #[must_use]
    pub fn probe(&self, addr: Addr) -> bool {
        let (si, tag) = self.decompose(addr);
        self.sets[si].iter().any(|w| w.tag == tag)
    }

    /// Removes the line containing `addr` if resident (external
    /// invalidation / fault injection). Returns whether a line was
    /// dropped. Dirty victims are counted as writebacks, like capacity
    /// evictions.
    pub fn evict(&mut self, addr: Addr) -> bool {
        let (si, tag) = self.decompose(addr);
        let set = &mut self.sets[si];
        if let Some(i) = set.iter().position(|w| w.tag == tag) {
            let victim = set.swap_remove(i);
            if victim.dirty {
                self.writebacks += 1;
            }
            true
        } else {
            false
        }
    }

    /// Marks the line containing `addr` dirty (a store hit). No-op if the
    /// line is absent.
    pub fn mark_dirty(&mut self, addr: Addr) {
        let (si, tag) = self.decompose(addr);
        if let Some(w) = self.sets[si].iter_mut().find(|w| w.tag == tag) {
            w.dirty = true;
        }
    }

    /// Installs the line containing `addr`, evicting LRU if needed.
    /// Returns the evicted line's base address, if any; dirty victims bump
    /// the writeback counter (write-back, write-allocate policy).
    pub fn fill(&mut self, addr: Addr) -> Option<Addr> {
        self.tick += 1;
        let tick = self.tick;
        let (si, tag) = self.decompose(addr);
        let nsets = self.sets.len() as u64;
        let line_bytes = self.cfg.line_bytes as u64;
        let set = &mut self.sets[si];
        if let Some(w) = set.iter_mut().find(|w| w.tag == tag) {
            w.last_use = tick;
            return None;
        }
        let mut evicted = None;
        if set.len() >= self.cfg.ways {
            let (vi, _) = set
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.last_use)
                .expect("full set is non-empty");
            let victim = set[vi];
            evicted = Some((victim.tag * nsets + si as u64) * line_bytes);
            if victim.dirty {
                self.writebacks += 1;
            }
            set.swap_remove(vi);
        }
        set.push(Line {
            tag,
            last_use: tick,
            dirty: false,
        });
        evicted
    }

    /// Dirty lines written back on eviction so far.
    #[must_use]
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// (hits, misses) since construction or the last reset.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Resets hit/miss counters (after warm-up).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
        self.writebacks = 0;
    }

    /// Number of resident lines.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Saves or restores tags, LRU stamps, dirty bits and counters. In-set
    /// order is preserved exactly: replacement uses `swap_remove`, so
    /// order affects future evictions. Loading requires a cache of the
    /// same geometry.
    ///
    /// # Errors
    ///
    /// Loading fails on truncated bytes, another set count or a set
    /// holding more ways than the cache has.
    pub fn state(&mut self, io: &mut impl elf_types::StateIo) -> Result<(), elf_types::SnapError> {
        io.fixed_len(self.sets.len(), "cache set count")?;
        for set in &mut self.sets {
            io.bounded(set, self.cfg.ways, "cache set")?;
        }
        io.value(&mut self.tick)?;
        io.value(&mut self.hits)?;
        io.value(&mut self.misses)?;
        io.value(&mut self.writebacks)
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any access/fill/dirty sequence keeps occupancy within capacity
        /// and keeps `probe` consistent with a just-filled line.
        #[test]
        fn random_traffic_preserves_invariants(
            ops in proptest::collection::vec((0u8..3, 0u64..1u64 << 16), 1..300)
        ) {
            let mut c = Cache::new(CacheConfig {
                name: "P",
                size_bytes: 2048,
                ways: 2,
                line_bytes: 64,
                latency: 1,
            });
            let capacity = 2048 / 64;
            for (op, addr) in ops {
                match op {
                    0 => {
                        let hit = c.access(addr);
                        prop_assert_eq!(hit, c.probe(addr));
                    }
                    1 => {
                        c.fill(addr);
                        prop_assert!(c.probe(addr), "a filled line is resident");
                    }
                    _ => c.mark_dirty(addr),
                }
                prop_assert!(c.occupancy() <= capacity);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheConfig {
            name: "T",
            size_bytes: 1024,
            ways: 2,
            line_bytes: 64,
            latency: 1,
        })
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn new_rejects_a_line_size_that_is_not_a_power_of_two() {
        let _ = Cache::new(CacheConfig {
            name: "T",
            size_bytes: 1536,
            ways: 2,
            line_bytes: 48,
            latency: 1,
        });
    }

    #[test]
    fn config_sets_math() {
        let c = CacheConfig {
            name: "x",
            size_bytes: 24 * 1024,
            ways: 3,
            line_bytes: 64,
            latency: 1,
        };
        assert_eq!(c.sets(), 128);
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        assert!(!c.access(0x1000));
        c.fill(0x1000);
        assert!(c.access(0x1000));
        assert!(c.access(0x1038), "same line");
        assert!(!c.access(0x1040), "next line");
        assert_eq!(c.stats(), (2, 2));
    }

    #[test]
    fn probe_does_not_count() {
        let mut c = small();
        c.fill(0x2000);
        assert!(c.probe(0x2000));
        assert!(!c.probe(0x4000));
        assert_eq!(c.stats(), (0, 0));
    }

    #[test]
    fn lru_eviction_returns_victim() {
        let mut c = small(); // 8 sets, 2 ways
        let set_stride = 8 * 64; // same set every 512 bytes
        c.fill(0x0);
        c.fill(set_stride);
        assert!(c.access(0x0)); // refresh
        let evicted = c.fill(2 * set_stride);
        assert_eq!(evicted, Some(set_stride), "LRU way must be evicted");
        assert!(c.probe(0x0));
        assert!(!c.probe(set_stride));
    }

    #[test]
    fn fill_is_idempotent_for_resident_lines() {
        let mut c = small();
        c.fill(0x3000);
        assert_eq!(c.fill(0x3000), None);
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn dirty_victims_count_as_writebacks() {
        let mut c = small(); // 8 sets, 2 ways
        let set_stride = 8 * 64;
        c.fill(0x0);
        c.mark_dirty(0x0);
        c.fill(set_stride);
        assert_eq!(c.writebacks(), 0);
        c.fill(2 * set_stride); // evicts 0x0 (LRU, dirty)
        assert_eq!(c.writebacks(), 1);
        c.fill(3 * set_stride); // evicts set_stride (clean)
        assert_eq!(c.writebacks(), 1);
    }

    #[test]
    fn mark_dirty_on_absent_line_is_a_noop() {
        let mut c = small();
        c.mark_dirty(0x7000);
        c.fill(0x7000);
        // A clean refill after the no-op must not write back.
        let set_stride = 8 * 64;
        c.fill(0x7000 + set_stride);
        c.fill(0x7000 + 2 * set_stride);
        assert_eq!(c.writebacks(), 0);
    }

    #[test]
    fn capacity_bounds_occupancy() {
        let mut c = small(); // 16 lines capacity
        for i in 0..100 {
            c.fill(i * 64);
        }
        assert!(c.occupancy() <= 16);
    }
}
