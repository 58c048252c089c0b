//! Global history registers with incremental folding.

/// A fixed-width (128-bit) global history register.
///
/// Bit 0 is the most recent outcome. Folding compresses the `len` most
/// recent bits into `width` bits by XOR-ing consecutive chunks — the
/// standard TAGE index/tag construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistoryRegister {
    bits: u128,
}

elf_types::snap_struct!(HistoryRegister { bits });

impl HistoryRegister {
    /// An empty (all-zero) history.
    #[must_use]
    pub fn new() -> Self {
        HistoryRegister { bits: 0 }
    }

    /// Pushes one outcome bit (newest).
    pub fn push(&mut self, bit: bool) {
        self.bits = (self.bits << 1) | u128::from(bit);
    }

    /// Raw bits (bit 0 = most recent).
    #[must_use]
    pub fn bits(&self) -> u128 {
        self.bits
    }

    /// Overwrites the register (flush restore).
    pub fn set(&mut self, bits: u128) {
        self.bits = bits;
    }

    /// Folds the `len` most recent bits into a `width`-bit value.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `width` is 0 or greater than 63, or if
    /// `len` exceeds 128.
    #[must_use]
    pub fn fold(&self, len: u16, width: u8) -> u64 {
        debug_assert!(width > 0 && width < 64);
        debug_assert!(len <= 128);
        if len == 0 {
            return 0;
        }
        let mask_bits = if len >= 128 {
            u128::MAX
        } else {
            (1u128 << len) - 1
        };
        let mut h = self.bits & mask_bits;
        let mut out: u64 = 0;
        let w = u32::from(width);
        while h != 0 {
            out ^= (h as u64) & ((1u64 << w) - 1);
            h >>= w;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_shifts_in_newest_bit() {
        let mut h = HistoryRegister::new();
        h.push(true);
        h.push(false);
        h.push(true);
        assert_eq!(h.bits() & 0b111, 0b101);
    }

    #[test]
    fn fold_zero_len_is_zero() {
        let mut h = HistoryRegister::new();
        for _ in 0..32 {
            h.push(true);
        }
        assert_eq!(h.fold(0, 10), 0);
    }

    #[test]
    fn fold_respects_len_mask() {
        let mut a = HistoryRegister::new();
        let mut b = HistoryRegister::new();
        // Same last 8 bits, different older bits.
        for bit in [true, false, true, true, false, false, true, false] {
            a.push(bit);
            b.push(bit);
        }
        let older = {
            let mut x = HistoryRegister::new();
            x.push(true);
            for bit in [true, false, true, true, false, false, true, false] {
                x.push(bit);
            }
            x
        };
        assert_eq!(a.fold(8, 6), b.fold(8, 6));
        assert_eq!(
            a.fold(8, 6),
            older.fold(8, 6),
            "bits beyond len must not matter"
        );
        assert_ne!(a.fold(9, 6), older.fold(9, 6), "bit 9 differs");
    }

    #[test]
    fn fold_output_fits_width() {
        let mut h = HistoryRegister::new();
        for i in 0..128 {
            h.push(i % 3 == 0);
        }
        for width in 1..=16u8 {
            assert!(h.fold(128, width) < (1 << width));
        }
    }

    #[test]
    fn set_then_bits_roundtrips() {
        let mut h = HistoryRegister::new();
        h.set(0xdead_beef_cafe);
        assert_eq!(h.bits(), 0xdead_beef_cafe);
    }
}
