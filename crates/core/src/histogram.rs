//! Small fixed-bucket histograms for pipeline observability (ROB occupancy,
//! delivery rate, ...).

/// A histogram over `0..=max` with unit-width buckets; samples above `max`
/// land in the last bucket. Clamped samples are additionally counted in
/// [`Histogram::overflow_count`] — without that signal a saturated
/// histogram silently reports `p99 == max` as if the tail ended there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    total: u64,
    sum: u64,
    /// Samples clamped into the last bucket because they exceeded `max`.
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram covering `0..=max`.
    ///
    /// # Panics
    ///
    /// Panics if `max` is 0.
    #[must_use]
    pub fn new(max: usize) -> Self {
        assert!(max > 0);
        Histogram {
            buckets: vec![0; max + 1],
            total: 0,
            sum: 0,
            overflow: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: usize) {
        self.record_n(value, 1);
    }

    /// Records the same sample `n` times in one step (bulk accounting for
    /// skipped idle cycles; equivalent to `n` [`Histogram::record`] calls).
    pub fn record_n(&mut self, value: usize, n: u64) {
        let last = self.buckets.len() - 1;
        if value > last {
            self.overflow += n;
        }
        self.buckets[value.min(last)] += n;
        self.total += n;
        self.sum += value as u64 * n;
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Arithmetic mean of the samples (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Smallest value `v` such that at least `q` (0..=1) of the samples are
    /// `<= v` (0 when empty).
    #[must_use]
    pub fn quantile(&self, q: f64) -> usize {
        if self.total == 0 {
            return 0;
        }
        let need = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut acc = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            acc += b;
            if acc >= need {
                return i;
            }
        }
        self.buckets.len() - 1
    }

    /// Number of samples that exceeded `max` and were clamped into the
    /// last bucket. When this is non-zero, upper quantiles read from the
    /// clamped bucket ([`Histogram::quantile`] can report at most `max`)
    /// and under-state the true tail — reports surface this count so a
    /// saturated histogram is visibly saturated.
    #[must_use]
    pub fn overflow_count(&self) -> u64 {
        self.overflow
    }

    /// Fraction of samples in bucket `i` (clamped bucket included).
    #[must_use]
    pub fn fraction_at(&self, i: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.buckets
            .get(i)
            .map_or(0.0, |&b| b as f64 / self.total as f64)
    }

    /// Folds another histogram's samples into this one (grid aggregation).
    /// Buckets are added index-wise; when `other` is wider, its excess
    /// buckets clamp into this histogram's last bucket, matching how
    /// [`Histogram::record`] treats out-of-range samples.
    pub fn merge(&mut self, other: &Histogram) {
        let last = self.buckets.len() - 1;
        for (i, &b) in other.buckets.iter().enumerate() {
            if i > last {
                // Excess buckets clamp on merge exactly like out-of-range
                // samples clamp on record, and count as overflow here too.
                self.overflow += b;
            }
            self.buckets[i.min(last)] += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.overflow += other.overflow;
    }

    /// Clears all samples.
    pub fn reset(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.total = 0;
        self.sum = 0;
        self.overflow = 0;
    }

    /// Saves or restores the bucket counts and accumulators; loading
    /// requires a histogram with the same bucket count.
    ///
    /// # Errors
    ///
    /// Loading fails on truncated bytes or a bucket-count mismatch.
    pub fn state(&mut self, io: &mut impl elf_types::StateIo) -> Result<(), elf_types::SnapError> {
        io.table(&mut self.buckets, "histogram buckets")?;
        io.value(&mut self.total)?;
        io.value(&mut self.sum)?;
        io.value(&mut self.overflow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_count() {
        let mut h = Histogram::new(10);
        for v in [2, 4, 6] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert!((h.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn overflow_clamps_to_last_bucket() {
        let mut h = Histogram::new(4);
        h.record(100);
        assert!((h.fraction_at(4) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn saturated_histogram_reports_overflow() {
        let mut h = Histogram::new(4);
        h.record(3);
        h.record(100);
        h.record_n(50, 2);
        // Every upper quantile reads from the clamped bucket: the true p99
        // is 100, but the histogram can only say 4 — overflow_count is the
        // signal that the tail is cut off.
        assert_eq!(h.quantile(1.0), 4);
        assert_eq!(h.overflow_count(), 3);
        assert_eq!(h.count(), 4);

        let mut other = Histogram::new(4);
        other.record(200);
        h.merge(&other);
        assert_eq!(h.overflow_count(), 4);

        h.reset();
        assert_eq!(h.overflow_count(), 0);
    }

    #[test]
    fn merge_from_wider_histogram_counts_clamped_buckets_as_overflow() {
        let mut wide = Histogram::new(8);
        wide.record(6);
        wide.record(2);
        let mut narrow = Histogram::new(4);
        narrow.merge(&wide);
        assert_eq!(narrow.overflow_count(), 1);
        assert!((narrow.fraction_at(4) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn quantiles() {
        let mut h = Histogram::new(10);
        for v in 1..=10 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 5);
        assert_eq!(h.quantile(1.0), 10);
        assert_eq!(h.quantile(0.0), 1);
    }

    #[test]
    fn reset_clears() {
        let mut h = Histogram::new(4);
        h.record(2);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
