//! Stride-based data prefetcher ("Advanced Stride-based prefetch",
//! Table II).

use elf_types::Addr;

#[derive(Debug, Clone, Copy, Default)]
struct StrideEntry {
    tag: u64,
    last_addr: Addr,
    stride: i64,
    confidence: u8,
}

elf_types::snap_struct!(StrideEntry {
    tag,
    last_addr,
    stride,
    confidence
});

/// A PC-indexed stride detector. When a load PC exhibits a stable stride,
/// the prefetcher emits the next `degree` line addresses ahead of the
/// stream.
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    table: Vec<StrideEntry>,
    degree: usize,
    trains: u64,
    issued: u64,
    /// The last [`StridePrefetcher::train`] result, reused call to call
    /// (not state: a snapshot resumes between calls).
    out: Vec<Addr>,
}

impl StridePrefetcher {
    /// Creates a prefetcher with `entries` tracking slots issuing `degree`
    /// prefetches once confident.
    ///
    /// # Panics
    ///
    /// Panics if `entries` or `degree` is 0.
    #[must_use]
    pub fn new(entries: usize, degree: usize) -> Self {
        assert!(entries > 0 && degree > 0);
        StridePrefetcher {
            table: vec![StrideEntry::default(); entries.next_power_of_two()],
            degree,
            trains: 0,
            issued: 0,
            out: Vec::with_capacity(degree),
        }
    }

    /// The baseline configuration: 64 entries, degree 2.
    #[must_use]
    pub fn paper() -> Self {
        StridePrefetcher::new(64, 2)
    }

    /// Trains on a demand load and returns the addresses to prefetch
    /// (empty until the stride is confident).
    pub fn train(&mut self, load_pc: Addr, addr: Addr) -> &[Addr] {
        self.trains += 1;
        let idx = ((load_pc >> 2) as usize) & (self.table.len() - 1);
        let tag = load_pc >> 2;
        let e = &mut self.table[idx];
        let out = &mut self.out;
        out.clear();
        if e.tag != tag {
            *e = StrideEntry {
                tag,
                last_addr: addr,
                stride: 0,
                confidence: 0,
            };
            return out;
        }
        let stride = addr as i64 - e.last_addr as i64;
        let confirmed = stride == e.stride && stride != 0;
        if confirmed {
            e.confidence = (e.confidence + 1).min(3);
        } else {
            e.confidence = e.confidence.saturating_sub(1);
            if e.confidence == 0 {
                e.stride = stride;
            }
        }
        e.last_addr = addr;
        if confirmed && e.confidence >= 2 {
            for k in 1..=self.degree {
                let a = addr as i64 + e.stride * k as i64;
                if a > 0 {
                    out.push(a as Addr);
                }
            }
            self.issued += out.len() as u64;
        }
        out
    }

    /// (training events, prefetches issued).
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (self.trains, self.issued)
    }

    /// Saves or restores the tracking table and counters; loading requires
    /// a prefetcher of the same geometry.
    ///
    /// # Errors
    ///
    /// Loading fails on truncated bytes or a table of another size.
    pub fn state(&mut self, io: &mut impl elf_types::StateIo) -> Result<(), elf_types::SnapError> {
        io.table(&mut self.table, "stride table")?;
        io.value(&mut self.trains)?;
        io.value(&mut self.issued)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_stride_triggers_prefetch() {
        let mut p = StridePrefetcher::new(16, 2);
        let mut got = Vec::new();
        for i in 0..8u64 {
            got = p.train(0x100, 0x10_000 + i * 64).to_vec();
        }
        assert_eq!(got, vec![0x10_000 + 8 * 64, 0x10_000 + 9 * 64]);
    }

    #[test]
    fn random_addresses_do_not_trigger() {
        let mut p = StridePrefetcher::new(16, 2);
        let addrs = [0x5000u64, 0x9990, 0x100, 0x7770, 0x2340, 0xfff0];
        let mut total = 0;
        for a in addrs {
            total += p.train(0x200, a).len();
        }
        assert_eq!(total, 0, "no confident stride, no prefetch");
    }

    #[test]
    fn stride_change_requires_retraining() {
        let mut p = StridePrefetcher::new(16, 1);
        for i in 0..6u64 {
            p.train(0x300, 0x1000 + i * 64);
        }
        // Switch to stride 128: confidence must decay before re-arming.
        let first = p.train(0x300, 0x8000);
        assert!(first.is_empty());
        let mut last = Vec::new();
        for i in 1..6u64 {
            last = p.train(0x300, 0x8000 + i * 128).to_vec();
        }
        assert_eq!(last, vec![0x8000 + 5 * 128 + 128]);
    }

    #[test]
    fn distinct_pcs_track_distinct_streams() {
        let mut p = StridePrefetcher::new(16, 1);
        for i in 0..6u64 {
            p.train(0x400, 0x1000 + i * 64);
            p.train(0x404, 0x90_000 + i * 256);
        }
        let a = p.train(0x400, 0x1000 + 6 * 64).to_vec();
        let b = p.train(0x404, 0x90_000 + 6 * 256);
        assert_eq!(a, vec![0x1000 + 7 * 64]);
        assert_eq!(b, vec![0x90_000 + 7 * 256]);
    }
}
