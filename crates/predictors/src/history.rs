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

/// Most tagged tables a [`crate::Tage`] or [`crate::Ittage`] may have:
/// each lookup hashes every table into a fixed array of this size.
pub const MAX_TABLES: usize = 16;

/// Writes `fold(bits, lens[i], width)` to `out[i]` for every `i`, in one
/// walk over `bits`' `width`-bit chunks. A fold is the XOR of the chunks
/// below `len` plus the low `len % width` bits of the chunk `len` falls
/// in, so with non-decreasing `lens` each length picks up where the
/// previous one stopped.
///
/// # Panics
///
/// Panics in debug builds if `width` is 0 or greater than 63, or if
/// `lens` decreases or exceeds 128.
pub(crate) fn fold_each(bits: u128, lens: &[u16], width: u8, out: &mut [u64]) {
    debug_assert!(width > 0 && width < 64);
    let w = u32::from(width);
    let chunk_mask = (1u64 << w) - 1;
    // XOR of the whole chunks below bit `start`, and the bits from `start` on.
    let (mut acc, mut rest, mut start) = (0u64, bits, 0u32);
    for (o, &len) in out.iter_mut().zip(lens) {
        let len = u32::from(len);
        debug_assert!(
            start <= len && len <= 128,
            "lens must be non-decreasing and at most 128"
        );
        while start + w <= len {
            acc ^= rest as u64 & chunk_mask;
            rest >>= w;
            start += w;
        }
        *o = acc ^ (rest as u64 & ((1u64 << (len - start)) - 1));
    }
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

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// One pass yields `fold` at every length, including 0, 128 and
        /// repeated lengths, for every width.
        #[test]
        fn one_pass_folds_equal_fold(
            words in (any::<u64>(), any::<u64>(), 0u32..128),
            lens in proptest::collection::vec(0u16..=128, 0..MAX_TABLES - 2)
        ) {
            let (hi, lo, shift) = words;
            // Shifting thins out the high bits, so short histories occur.
            let bits = ((u128::from(hi) << 64) | u128::from(lo)) >> shift;
            let mut lens = lens;
            lens.extend([0, 128]);
            if let Some(&l) = lens.first() {
                lens.push(l);
            }
            lens.sort_unstable();
            let mut out = [0u64; MAX_TABLES];
            for width in 1..=63u8 {
                fold_each(bits, &lens, width, &mut out[..lens.len()]);
                for (&len, &got) in lens.iter().zip(&out) {
                    prop_assert_eq!(got, fold(bits, len, width), "len {} width {}", len, width);
                }
            }
        }
    }
}
