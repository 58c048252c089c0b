//! Global-history folding.

/// Folds the `len` most recent bits of the global history `bits` (bit 0 =
/// most recent outcome) into a `width`-bit value by XOR-ing consecutive
/// chunks — the standard TAGE index/tag construction.
///
/// # Panics
///
/// Panics in debug builds if `width` is 0 or greater than 63, or if `len`
/// exceeds 128.
#[must_use]
pub fn fold(bits: u128, len: u16, width: u8) -> u64 {
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
    let mut h = bits & mask_bits;
    let mut out: u64 = 0;
    let w = u32::from(width);
    while h != 0 {
        out ^= (h as u64) & ((1u64 << w) - 1);
        h >>= w;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shifts `outcomes` into a history, oldest first.
    fn hist(outcomes: &[bool]) -> u128 {
        outcomes
            .iter()
            .fold(0, |h, &bit| (h << 1) | u128::from(bit))
    }

    #[test]
    fn fold_zero_len_is_zero() {
        assert_eq!(fold(hist(&[true; 32]), 0, 10), 0);
    }

    #[test]
    fn fold_respects_len_mask() {
        // Same last 8 bits, different older bits.
        let recent = [true, false, true, true, false, false, true, false];
        let a = hist(&recent);
        let older = hist(&[&[true][..], &recent].concat());
        assert_eq!(
            fold(a, 8, 6),
            fold(older, 8, 6),
            "bits beyond len must not matter"
        );
        assert_ne!(fold(a, 9, 6), fold(older, 9, 6), "bit 9 differs");
    }

    #[test]
    fn fold_output_fits_width() {
        let h = hist(&(0..128).map(|i| i % 3 == 0).collect::<Vec<_>>());
        for width in 1..=16u8 {
            assert!(fold(h, 128, width) < (1 << width));
        }
    }
}
