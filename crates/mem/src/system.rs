//! The complete memory system: instruction side, data side, shared L2/L3.

use crate::cache::{Cache, CacheConfig};
use crate::prefetch::StridePrefetcher;
use elf_types::{Addr, Cycle};
use std::collections::VecDeque;

/// Geometry/latency of the whole hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemConfig {
    /// L0 instruction cache.
    pub l0i: CacheConfig,
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Unified L3.
    pub l3: CacheConfig,
    /// DRAM latency in cycles.
    pub dram_latency: u32,
    /// Maximum in-flight FAQ-driven instruction prefetches (Table II: 4).
    pub ipf_max_inflight: usize,
}

impl MemConfig {
    /// The Table II hierarchy.
    #[must_use]
    pub fn paper() -> Self {
        MemConfig {
            l0i: CacheConfig {
                name: "L0I",
                size_bytes: 24 << 10,
                ways: 3,
                line_bytes: 64,
                latency: 1,
            },
            l1i: CacheConfig {
                name: "L1I",
                size_bytes: 64 << 10,
                ways: 8,
                line_bytes: 64,
                latency: 3,
            },
            l1d: CacheConfig {
                name: "L1D",
                size_bytes: 32 << 10,
                ways: 8,
                line_bytes: 64,
                latency: 3,
            },
            l2: CacheConfig {
                name: "L2",
                size_bytes: 512 << 10,
                ways: 8,
                line_bytes: 128,
                latency: 13,
            },
            l3: CacheConfig {
                name: "L3",
                size_bytes: 16 << 20,
                ways: 16,
                line_bytes: 128,
                latency: 35,
            },
            dram_latency: 250,
            ipf_max_inflight: 4,
        }
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig::paper()
    }
}

/// Aggregate statistics for the memory system.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Instruction fetch accesses.
    pub ifetches: u64,
    /// L0I misses.
    pub l0i_misses: u64,
    /// L1I misses (demand instruction side).
    pub l1i_misses: u64,
    /// Demand loads.
    pub loads: u64,
    /// L1D load misses.
    pub l1d_misses: u64,
    /// Stores.
    pub stores: u64,
    /// Instruction prefetches issued.
    pub ipf_issued: u64,
    /// Instruction prefetches dropped (line already resident or no slot).
    pub ipf_dropped: u64,
    /// Demand fetches that hit a still-in-flight prefetch (partial credit).
    pub ipf_late_hits: u64,
    /// Data prefetches issued by the stride engine.
    pub dpf_issued: u64,
    /// Dirty L1D lines written back on eviction.
    pub l1d_writebacks: u64,
    /// Peak simultaneous in-flight instruction prefetches (MSHR-analogue
    /// high-water mark; bounded by `MemConfig::ipf_max_inflight`).
    pub ipf_peak_inflight: u64,
}

/// The memory system. Shared by the front-end (instruction side, through
/// `fetch`/`prefetch_inst`) and the back-end (data side, through
/// `load`/`store`) — the L2/L3 are unified, so instruction and data streams
/// really do displace each other.
///
/// ```
/// use elf_mem::MemorySystem;
///
/// let mut mem = MemorySystem::paper();
/// assert_eq!(mem.fetch(0x40_000, 0), 250); // cold: DRAM
/// assert_eq!(mem.fetch(0x40_000, 1), 1);   // warm: 1-cycle L0I
/// ```
#[derive(Debug)]
pub struct MemorySystem {
    cfg: MemConfig,
    l0i: Cache,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    l3: Cache,
    dpf: StridePrefetcher,
    /// In-flight instruction prefetches: (line address, ready cycle).
    ipf_inflight: VecDeque<(Addr, Cycle)>,
    stats: MemStats,
}

impl MemorySystem {
    /// Creates the hierarchy.
    #[must_use]
    pub fn new(cfg: MemConfig) -> Self {
        MemorySystem {
            l0i: Cache::new(cfg.l0i.clone()),
            l1i: Cache::new(cfg.l1i.clone()),
            l1d: Cache::new(cfg.l1d.clone()),
            l2: Cache::new(cfg.l2.clone()),
            l3: Cache::new(cfg.l3.clone()),
            dpf: StridePrefetcher::paper(),
            ipf_inflight: VecDeque::new(),
            stats: MemStats::default(),
            cfg,
        }
    }

    /// The Table II hierarchy.
    #[must_use]
    pub fn paper() -> Self {
        MemorySystem::new(MemConfig::paper())
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// L0I set-interleave selector: the paper's L0I is 2-way set-interleaved,
    /// letting the fetcher fetch across a taken branch in one cycle when
    /// branch and target map to different interleaves (§VI-A).
    #[must_use]
    pub fn l0i_interleave(&self, pc: Addr) -> u8 {
        ((pc / self.cfg.l0i.line_bytes as u64) & 1) as u8
    }

    /// Whether the line holding `pc` is resident in the L0I (no LRU touch).
    #[must_use]
    pub fn l0i_has(&self, pc: Addr) -> bool {
        self.l0i.probe(pc)
    }

    /// Evicts the instruction line holding `pc` from the instruction-side
    /// hierarchy (L0I, L1I, and the shared L2), so the next fetch of it
    /// pays at least L3 latency. Models an external invalidation; used by
    /// the fault injector's delayed-I-cache fault. Returns whether any
    /// level held the line.
    pub fn evict_inst_line(&mut self, pc: Addr) -> bool {
        let l0 = self.l0i.evict(pc);
        let l1 = self.l1i.evict(pc);
        let l2 = self.l2.evict(pc);
        l0 | l1 | l2
    }

    /// Demand instruction fetch: returns the latency to data in cycles,
    /// filling all instruction-side levels on the way back.
    pub fn fetch(&mut self, pc: Addr, now: Cycle) -> u32 {
        self.stats.ifetches += 1;
        if self.l0i.access(pc) {
            return self.l0i.latency();
        }
        self.stats.l0i_misses += 1;
        self.l0i.fill(pc);
        if self.l1i.access(pc) {
            return self.l1i.latency();
        }
        self.stats.l1i_misses += 1;
        // A still-in-flight prefetch gives partial credit.
        if let Some(ready) = self.ipf_ready_cycle(pc) {
            self.l1i.fill(pc);
            if ready > now {
                self.stats.ipf_late_hits += 1;
                return self.l1i.latency() + (ready - now) as u32;
            }
            return self.l1i.latency();
        }
        self.l1i.fill(pc);
        self.unified_fetch_fill(pc)
    }

    /// Latency of an access that missed both instruction caches.
    fn unified_fetch_fill(&mut self, pc: Addr) -> u32 {
        if self.l2.access(pc) {
            return self.l2.latency();
        }
        self.l2.fill(pc);
        if self.l3.access(pc) {
            return self.l3.latency();
        }
        self.l3.fill(pc);
        self.cfg.dram_latency
    }

    fn ipf_ready_cycle(&self, pc: Addr) -> Option<Cycle> {
        let line = pc / self.cfg.l1i.line_bytes as u64;
        self.ipf_inflight
            .iter()
            .find(|(a, _)| *a / self.cfg.l1i.line_bytes as u64 == line)
            .map(|&(_, r)| r)
    }

    /// Issues a FAQ-driven instruction prefetch for `pc` (front-end calls
    /// this on L0I idle cycles). Returns `true` if a request was issued.
    pub fn prefetch_inst(&mut self, pc: Addr, now: Cycle) -> bool {
        // Retire completed requests.
        while let Some(&(_, r)) = self.ipf_inflight.front() {
            if r <= now {
                self.ipf_inflight.pop_front();
            } else {
                break;
            }
        }
        if self.ipf_inflight.len() >= self.cfg.ipf_max_inflight
            || self.l1i.probe(pc)
            || self.l0i.probe(pc)
            || self.ipf_ready_cycle(pc).is_some()
        {
            self.stats.ipf_dropped += 1;
            return false;
        }
        // Resolve where the line is and charge that latency to readiness.
        let lat = if self.l2.probe(pc) {
            self.l2.latency()
        } else if self.l3.probe(pc) {
            self.l3.latency()
        } else {
            self.cfg.dram_latency
        };
        // Fill outer levels now (tag-only model); L1I fill happens when the
        // demand fetch arrives or implicitly via ipf hit credit.
        self.l2.fill(pc);
        self.l3.fill(pc);
        self.ipf_inflight.push_back((pc, now + u64::from(lat)));
        self.stats.ipf_issued += 1;
        self.stats.ipf_peak_inflight = self
            .stats
            .ipf_peak_inflight
            .max(self.ipf_inflight.len() as u64);
        true
    }

    /// Demand load: returns load-to-use latency; trains the stride
    /// prefetcher. Wrong-path loads also come through here — pollution is
    /// part of the model (paper §VI-B).
    pub fn load(&mut self, pc: Addr, addr: Addr, _now: Cycle) -> u32 {
        self.stats.loads += 1;
        for &a in self.dpf.train(pc, addr) {
            self.stats.dpf_issued += 1;
            // Data prefetches fill L2 (and L1D) ahead of the stream.
            self.l2.fill(a);
            self.l1d.fill(a);
        }
        if self.l1d.access(addr) {
            return self.l1d.latency();
        }
        self.stats.l1d_misses += 1;
        self.l1d.fill(addr);
        if self.l2.access(addr) {
            return self.l2.latency();
        }
        self.l2.fill(addr);
        if self.l3.access(addr) {
            return self.l3.latency();
        }
        self.l3.fill(addr);
        self.cfg.dram_latency
    }

    /// Store: write-allocate into L1D; latency rarely matters (stores
    /// retire through the store buffer) but is returned for completeness.
    pub fn store(&mut self, addr: Addr, _now: Cycle) -> u32 {
        self.stats.stores += 1;
        if self.l1d.access(addr) {
            self.l1d.mark_dirty(addr);
            return self.l1d.latency();
        }
        self.l1d.fill(addr);
        self.l1d.mark_dirty(addr);
        self.l2.fill(addr);
        self.l3.fill(addr);
        self.l1d.latency()
    }

    /// Statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> MemStats {
        let mut s = self.stats;
        s.l1d_writebacks = self.l1d.writebacks();
        s
    }

    /// Per-cache (hits, misses) in order L0I, L1I, L1D, L2, L3.
    #[must_use]
    pub fn cache_stats(&self) -> [(u64, u64); 5] {
        [
            self.l0i.stats(),
            self.l1i.stats(),
            self.l1d.stats(),
            self.l2.stats(),
            self.l3.stats(),
        ]
    }

    /// Resets all statistics (after warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = MemStats::default();
        self.l0i.reset_stats();
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.l3.reset_stats();
    }

    /// Saves or restores all cache contents, the stride prefetcher,
    /// in-flight instruction prefetches and counters; loading requires a
    /// system of the same geometry.
    ///
    /// # Errors
    ///
    /// Loading fails on truncated bytes or structures of another geometry.
    pub fn state(&mut self, io: &mut impl elf_types::StateIo) -> Result<(), elf_types::SnapError> {
        self.l0i.state(io)?;
        self.l1i.state(io)?;
        self.l1d.state(io)?;
        self.l2.state(io)?;
        self.l3.state(io)?;
        self.dpf.state(io)?;
        io.value(&mut self.ipf_inflight)?;
        io.value(&mut self.stats)
    }
}

elf_types::snap_struct!(MemStats {
    ifetches,
    l0i_misses,
    l1i_misses,
    loads,
    l1d_misses,
    stores,
    ipf_issued,
    ipf_dropped,
    ipf_late_hits,
    dpf_issued,
    l1d_writebacks,
    ipf_peak_inflight,
});
elf_types::snap_struct!(MemConfig {
    l0i,
    l1i,
    l1d,
    l2,
    l3,
    dram_latency,
    ipf_max_inflight
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_fetch_pays_dram_then_warms_all_levels() {
        let mut m = MemorySystem::paper();
        assert_eq!(m.fetch(0x10_000, 0), 250);
        assert_eq!(m.fetch(0x10_000, 1), 1, "L0I hit after fill");
        let s = m.stats();
        assert_eq!(s.ifetches, 2);
        assert_eq!(s.l0i_misses, 1);
    }

    #[test]
    fn l1i_backstops_l0i() {
        let mut m = MemorySystem::paper();
        m.fetch(0x10_000, 0);
        // Evict from the 24KB L0I by touching > 24KB of distinct lines in
        // the same sets, while staying within the 64KB L1I.
        for i in 1..((48 << 10) / 64) {
            m.fetch(0x10_000 + i * 64, 0);
        }
        let lat = m.fetch(0x10_000, 0);
        assert!(
            lat == 3 || lat == 1,
            "after L0I pressure the line should come from L1I (3) (got {lat})"
        );
    }

    #[test]
    fn load_latencies_follow_hierarchy() {
        let mut m = MemorySystem::paper();
        let a = 0x2_0000_0000;
        assert_eq!(m.load(0x100, a, 0), 250, "cold");
        assert_eq!(m.load(0x100, a, 0), 3, "L1D hit");
    }

    #[test]
    fn stride_loads_warm_the_l1d_ahead() {
        let mut m = MemorySystem::paper();
        let base = 0x3_0000_0000u64;
        let mut cold_after_warm = 0;
        for i in 0..64u64 {
            let lat = m.load(0x200, base + i * 64, 0);
            if i > 10 && lat > 13 {
                cold_after_warm += 1;
            }
        }
        assert!(
            cold_after_warm <= 2,
            "stride prefetch should hide DRAM on a streaming load: {cold_after_warm}"
        );
        assert!(m.stats().dpf_issued > 10);
    }

    #[test]
    fn inst_prefetch_respects_inflight_limit() {
        let mut m = MemorySystem::paper();
        let mut issued = 0;
        for i in 0..8u64 {
            if m.prefetch_inst(0x50_000 + i * 64, 0) {
                issued += 1;
            }
        }
        assert_eq!(issued, 4, "Table II: at most 4 in flight");
        assert_eq!(m.stats().ipf_dropped, 4);
        // After they complete, more can issue.
        assert!(m.prefetch_inst(0x90_000, 10_000));
    }

    #[test]
    fn prefetched_line_gives_partial_or_full_credit() {
        let mut m = MemorySystem::paper();
        assert!(m.prefetch_inst(0x70_000, 0));
        // Demand fetch arrives halfway through the 250-cycle DRAM access.
        let lat = m.fetch(0x70_000, 125);
        assert!(lat > 3 && lat < 250, "partial credit expected, got {lat}");
        assert_eq!(m.stats().ipf_late_hits, 1);
        // And a fetch long after completion is an ordinary L1I hit.
        assert!(m.prefetch_inst(0x80_000, 0));
        let lat2 = m.fetch(0x80_000, 1_000);
        assert_eq!(lat2, 3);
    }

    #[test]
    fn store_allocates_into_l1d() {
        let mut m = MemorySystem::paper();
        let a = 0x4_0000_0000;
        m.store(a, 0);
        assert_eq!(m.load(0x300, a, 0), 3, "store-allocated line hits");
    }

    #[test]
    fn interleave_alternates_by_line() {
        let m = MemorySystem::paper();
        assert_ne!(m.l0i_interleave(0x0), m.l0i_interleave(0x40));
        assert_eq!(m.l0i_interleave(0x0), m.l0i_interleave(0x80));
    }

    #[test]
    fn store_dirty_lines_surface_as_writebacks() {
        let mut m = MemorySystem::paper();
        let base = 0x6_0000_0000u64;
        // Dirty a line, then stream enough conflicting lines through the
        // 32KB 8-way L1D (same set every 4KB) to evict it.
        m.store(base, 0);
        for i in 1..=16u64 {
            m.load(0x500, base + i * 4096, 0);
        }
        assert!(
            m.stats().l1d_writebacks >= 1,
            "dirty victim must write back"
        );
    }

    #[test]
    fn wrong_path_loads_pollute_the_l1d() {
        let mut m = MemorySystem::paper();
        let hot = 0x5_0000_0000u64;
        m.load(0x400, hot, 0);
        assert_eq!(m.load(0x400, hot, 0), 3);
        // Simulate wrong-path loads conflicting with the hot set: L1D is
        // 32KB 8-way => same set every 4KB; touch 8+ conflicting lines.
        for i in 1..=9u64 {
            m.load(0x999, hot + i * 4096, 0);
        }
        assert!(
            m.load(0x400, hot, 0) > 3,
            "hot line must have been displaced"
        );
    }
}
