//! Cycle-accounting observability: where did the front-end's time go?
//!
//! When metrics are enabled (`SimConfig::metrics`), the simulator charges
//! **every** simulated cycle to exactly one [`FetchCycleCause`] bucket and
//! one mode-occupancy slot (decoupled / coupled / resyncing), and records
//! resync-period, flush-recovery and flush-depth histograms — the numbers
//! behind the paper's Figure 6/9 "why ELF wins after flushes" narrative.
//! The partition is structural: one bucket per stepped tick, `n` per
//! `n`-cycle idle skip, reset together with the statistics at warm-up — so
//! `sum(fetch_cycles) == SimStats::cycles` holds exactly, with and without
//! idle skipping and fault injection (`tests/metrics.rs` pins this).
//!
//! Reports follow the same versioning discipline as the bench pipeline:
//! a stable JSON schema tag ([`SCHEMA`]) written by [`render_json`]
//! (`elfsim --metrics-json`), plus a human table from [`render_table`]
//! (`elfsim --metrics`). With metrics off (the default) the simulator pays
//! one branch per tick and produces bit-identical `SimStats`.

use crate::experiment::RunResult;
use crate::histogram::Histogram;
use elf_frontend::{FetchCycleCause, FetchCycleProbe};
use elf_types::Cycle;
use std::fmt::Write as _;

/// Schema tag written into every metrics report. v2 added the per-histogram
/// `overflow` count (samples clamped into the last bucket), so a saturated
/// histogram is visibly saturated instead of reporting a truncated p90/max.
pub const SCHEMA: &str = "elfsim-metrics-v2";

/// JSON keys of the mode-occupancy slots, indexed by
/// [`FetchCycleProbe::mode_index`].
pub const MODE_KEYS: [&str; 3] = ["decoupled", "coupled", "resyncing"];

/// Cache names matching the order of `SimStats::caches`.
const CACHE_NAMES: [&str; 5] = ["l0i", "l1i", "l1d", "l2", "l3"];

const FAQ_HIST_MAX: usize = 64;
const LATENCY_HIST_MAX: usize = 512;
const DEPTH_HIST_MAX: usize = 512;

/// The per-run telemetry registry. One instance lives inside the simulator
/// (boxed, behind an `Option` so the disabled path costs one check);
/// everything here is deterministic simulated-machine state and
/// round-trips through snapshots bit-exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    /// Cycles charged to each [`FetchCycleCause`], indexed by
    /// [`FetchCycleCause::index`]. Sums exactly to `SimStats::cycles`.
    pub fetch_cycles: [u64; 9],
    /// Cycles spent per mode slot (see [`MODE_KEYS`]). Also sums exactly
    /// to `SimStats::cycles`.
    pub mode_cycles: [u64; 3],
    /// FAQ occupancy in blocks, sampled every cycle.
    pub faq_occupancy: Histogram,
    /// Lengths of completed coupled periods in cycles (the resynchronization
    /// latency of §IV-B: how long the ELF stays coupled before handing back
    /// to the DCF).
    pub resync_latency: Histogram,
    /// Cycles from a back-end flush to the first post-flush delivery.
    pub flush_recovery_latency: Histogram,
    /// In-flight instructions squashed per back-end flush (recovery depth).
    pub flush_depth: Histogram,
    /// Cycle the current coupled period began (`None` while decoupled).
    coupled_since: Option<Cycle>,
    /// Cycle of the last flush with no delivery since (`None` otherwise).
    flush_since: Option<Cycle>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    /// Creates an empty registry. `coupled_since`/`flush_since` start
    /// cleared; the simulator seeds the coupled edge on its first tick.
    #[must_use]
    pub fn new() -> Self {
        Metrics {
            fetch_cycles: [0; 9],
            mode_cycles: [0; 3],
            faq_occupancy: Histogram::new(FAQ_HIST_MAX),
            resync_latency: Histogram::new(LATENCY_HIST_MAX),
            flush_recovery_latency: Histogram::new(LATENCY_HIST_MAX),
            flush_depth: Histogram::new(DEPTH_HIST_MAX),
            coupled_since: None,
            flush_since: None,
        }
    }

    /// Charges `n` consecutive cycles that all classify identically: one
    /// stepped tick (`n == 1`, with its delivery count) or a run of
    /// skipped idle cycles (zero deliveries by construction, the same
    /// probe inputs throughout; `n == 0` charges nothing).
    pub fn charge(
        &mut self,
        probe: &FetchCycleProbe,
        delivered: usize,
        dispatch_room: bool,
        n: u64,
    ) {
        let cause = probe.classify(delivered, dispatch_room);
        self.fetch_cycles[cause.index()] += n;
        self.mode_cycles[probe.mode_index()] += n;
        self.faq_occupancy.record_n(probe.faq_len, n);
    }

    /// Observes the post-tick coupled/decoupled state at cycle `now` and
    /// records a completed coupled period on the falling edge. Mode is
    /// frozen across idle-skipped regions, so calling this only on stepped
    /// ticks loses nothing.
    pub fn note_coupled(&mut self, coupled: bool, now: Cycle) {
        match (self.coupled_since, coupled) {
            (None, true) => self.coupled_since = Some(now),
            (Some(since), false) => {
                self.resync_latency
                    .record(now.saturating_sub(since) as usize);
                self.coupled_since = None;
            }
            _ => {}
        }
    }

    /// Records a back-end flush applied at cycle `now` that squashed
    /// `squashed` in-flight instructions. A re-flush before the first
    /// post-flush delivery restarts the recovery clock, mirroring the
    /// front-end's own resteer-latency accounting.
    pub fn note_flush(&mut self, now: Cycle, squashed: u64) {
        self.flush_depth.record(squashed as usize);
        self.flush_since = Some(now);
    }

    /// Observes a tick that delivered `delivered` instructions at cycle
    /// `now`, closing any open flush-recovery measurement.
    pub fn note_delivery(&mut self, delivered: usize, now: Cycle) {
        if delivered > 0 {
            if let Some(since) = self.flush_since.take() {
                self.flush_recovery_latency
                    .record(now.saturating_sub(since) as usize);
            }
        }
    }

    /// Total cycles attributed across all fetch buckets.
    #[must_use]
    pub fn total_fetch_cycles(&self) -> u64 {
        self.fetch_cycles.iter().sum()
    }

    /// Total cycles attributed across the mode slots.
    #[must_use]
    pub fn total_mode_cycles(&self) -> u64 {
        self.mode_cycles.iter().sum()
    }

    /// Resets all accumulators at the warm-up boundary (paired with
    /// `Simulator::reset_stats`). An in-progress coupled period restarts
    /// at `now`; an in-progress flush recovery is dropped — both would
    /// otherwise leak pre-warm-up cycles into the measured window.
    pub fn reset(&mut self, now: Cycle, coupled: bool) {
        self.fetch_cycles = [0; 9];
        self.mode_cycles = [0; 3];
        self.faq_occupancy.reset();
        self.resync_latency.reset();
        self.flush_recovery_latency.reset();
        self.flush_depth.reset();
        self.coupled_since = coupled.then_some(now);
        self.flush_since = None;
    }

    /// Folds another run's accumulators into this one (grid aggregation).
    /// The in-progress period markers are deliberately untouched: a merged
    /// registry is a report, not a live measurement.
    pub fn merge(&mut self, other: &Metrics) {
        for (a, b) in self.fetch_cycles.iter_mut().zip(other.fetch_cycles.iter()) {
            *a += b;
        }
        for (a, b) in self.mode_cycles.iter_mut().zip(other.mode_cycles.iter()) {
            *a += b;
        }
        self.faq_occupancy.merge(&other.faq_occupancy);
        self.resync_latency.merge(&other.resync_latency);
        self.flush_recovery_latency
            .merge(&other.flush_recovery_latency);
        self.flush_depth.merge(&other.flush_depth);
    }

    /// Saves or restores the full registry (accumulators plus the
    /// in-progress period markers, so a restored run continues
    /// bit-identically).
    ///
    /// # Errors
    ///
    /// Loading fails on truncated or mismatched bytes.
    pub fn state(&mut self, io: &mut impl elf_types::StateIo) -> Result<(), elf_types::SnapError> {
        io.value(&mut self.fetch_cycles)?;
        io.value(&mut self.mode_cycles)?;
        self.faq_occupancy.state(io)?;
        self.resync_latency.state(io)?;
        self.flush_recovery_latency.state(io)?;
        self.flush_depth.state(io)?;
        io.value(&mut self.coupled_since)?;
        io.value(&mut self.flush_since)
    }
}

fn json_hist(out: &mut String, key: &str, h: &Histogram, comma: bool) {
    let _ = writeln!(
        out,
        "      \"{key}\": {{\"count\": {}, \"mean\": {:.3}, \"p50\": {}, \"p90\": {}, \"max\": {}, \"overflow\": {}}}{}",
        h.count(),
        h.mean(),
        h.quantile(0.5),
        h.quantile(0.9),
        h.quantile(1.0),
        h.overflow_count(),
        if comma { "," } else { "" },
    );
}

/// The runs that carry a cycle-attribution registry, with it.
fn with_metrics(runs: &[RunResult]) -> impl Iterator<Item = (&RunResult, &Metrics)> {
    runs.iter()
        .filter_map(|r| r.metrics.as_ref().map(|m| (r, m)))
}

/// Renders a [`SCHEMA`] report for one workload: one object per run that
/// has metrics (a single `elfsim` run produces a one-element `runs` array,
/// `--compare` and the grid produce one per architecture). Hand-rolled —
/// the repo deliberately has no JSON dependency.
#[must_use]
pub fn render_json(workload: &str, runs: &[RunResult]) -> String {
    let runs: Vec<_> = with_metrics(runs).collect();
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(out, "  \"workload\": \"{workload}\",");
    let _ = writeln!(out, "  \"runs\": [");
    for (i, &(r, m)) in runs.iter().enumerate() {
        let s = &r.stats;
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"arch\": \"{}\",", r.arch);
        let _ = writeln!(out, "      \"cycles\": {},", s.cycles);
        let _ = writeln!(out, "      \"retired\": {},", s.retired);
        let _ = write!(out, "      \"fetch_cycles\": {{");
        for (j, c) in FetchCycleCause::ALL.iter().enumerate() {
            let comma = if j + 1 < FetchCycleCause::ALL.len() {
                ", "
            } else {
                ""
            };
            let _ = write!(out, "\"{}\": {}{comma}", c.key(), m.fetch_cycles[c.index()]);
        }
        let _ = writeln!(out, "}},");
        let _ = write!(out, "      \"mode_cycles\": {{");
        for (j, k) in MODE_KEYS.iter().enumerate() {
            let comma = if j + 1 < MODE_KEYS.len() { ", " } else { "" };
            let _ = write!(out, "\"{k}\": {}{comma}", m.mode_cycles[j]);
        }
        let _ = writeln!(out, "}},");
        json_hist(&mut out, "faq_occupancy", &m.faq_occupancy, true);
        json_hist(&mut out, "resync_latency", &m.resync_latency, true);
        json_hist(
            &mut out,
            "flush_recovery_latency",
            &m.flush_recovery_latency,
            true,
        );
        json_hist(&mut out, "flush_depth", &m.flush_depth, true);
        let _ = writeln!(
            out,
            "      \"btb\": {{\"lookups\": {}, \"l0_hits\": {}, \"l1_hits\": {}, \
             \"l2_hits\": {}, \"misses\": {}, \"installs\": {}}},",
            s.btb.lookups,
            s.btb.l0_hits,
            s.btb.l1_hits,
            s.btb.l2_hits,
            s.btb.misses,
            s.btb.installs,
        );
        let _ = write!(out, "      \"caches\": [");
        for (j, name) in CACHE_NAMES.iter().enumerate() {
            let (hits, misses) = s.caches[j];
            let comma = if j + 1 < CACHE_NAMES.len() { ", " } else { "" };
            let _ = write!(
                out,
                "{{\"name\": \"{name}\", \"hits\": {hits}, \"misses\": {misses}}}{comma}"
            );
        }
        let _ = writeln!(out, "],");
        let _ = writeln!(
            out,
            "      \"mem\": {{\"ipf_issued\": {}, \"ipf_dropped\": {}, \"ipf_late_hits\": {}, \
             \"ipf_peak_inflight\": {}}}",
            s.mem.ipf_issued, s.mem.ipf_dropped, s.mem.ipf_late_hits, s.mem.ipf_peak_inflight,
        );
        let comma = if i + 1 < runs.len() { "," } else { "" };
        let _ = writeln!(out, "    }}{comma}");
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// Renders the human-readable `--metrics` table for the runs that have
/// metrics.
#[must_use]
pub fn render_table(runs: &[RunResult]) -> String {
    let mut out = String::new();
    for (r, m) in with_metrics(runs) {
        let s = &r.stats;
        let total = m.total_fetch_cycles().max(1);
        let _ = writeln!(
            out,
            "[{}] cycle attribution over {} cycles ({} retired, IPC {:.3})",
            r.arch,
            s.cycles,
            s.retired,
            s.ipc()
        );
        for c in FetchCycleCause::ALL {
            let v = m.fetch_cycles[c.index()];
            let _ = writeln!(
                out,
                "  {:<22} {:>12}  {:>5.1}%",
                c.label(),
                v,
                v as f64 * 100.0 / total as f64
            );
        }
        let _ = writeln!(
            out,
            "  mode occupancy: decoupled {:.1}%, coupled {:.1}%, resyncing {:.1}%",
            m.mode_cycles[0] as f64 * 100.0 / total as f64,
            m.mode_cycles[1] as f64 * 100.0 / total as f64,
            m.mode_cycles[2] as f64 * 100.0 / total as f64,
        );
        let _ = writeln!(
            out,
            "  resync latency: {} periods, mean {:.1}, p90 {} cycles",
            m.resync_latency.count(),
            m.resync_latency.mean(),
            m.resync_latency.quantile(0.9),
        );
        let _ = writeln!(
            out,
            "  flush recovery: {} flushes, depth mean {:.1}, refetch mean {:.1} cycles (p90 {})",
            m.flush_depth.count(),
            m.flush_depth.mean(),
            m.flush_recovery_latency.mean(),
            m.flush_recovery_latency.quantile(0.9),
        );
        let _ = writeln!(
            out,
            "  FAQ occupancy: mean {:.1} blocks (p90 {}); I-prefetch peak in-flight {}",
            m.faq_occupancy.mean(),
            m.faq_occupancy.quantile(0.9),
            s.mem.ipf_peak_inflight,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::SimStats;

    fn probe(coupled: bool, stalled: bool) -> FetchCycleProbe {
        FetchCycleProbe {
            coupled,
            stalled,
            faq_empty: true,
            fetch_wait: false,
            recovering_flush: false,
            recovering_decode: false,
            has_dcf: true,
            faq_len: 0,
        }
    }

    #[test]
    fn classification_priority_is_total() {
        let p = probe(false, false);
        assert_eq!(p.classify(3, true), FetchCycleCause::UsefulFetch);
        assert_eq!(p.classify(0, false), FetchCycleCause::DispatchBackpressure);
        assert_eq!(p.classify(0, true), FetchCycleCause::FaqEmpty);
        let mut p2 = probe(true, true);
        assert_eq!(p2.classify(0, true), FetchCycleCause::ResyncWait);
        p2.stalled = false;
        assert_eq!(p2.classify(0, true), FetchCycleCause::CoupledProbe);
        p2.recovering_flush = true;
        assert_eq!(p2.classify(0, true), FetchCycleCause::FlushRecovery);
    }

    #[test]
    fn charge_partitions_cycles() {
        let mut m = Metrics::new();
        m.charge(&probe(false, false), 2, true, 1);
        m.charge(&probe(false, false), 0, true, 7);
        m.charge(&probe(true, false), 0, false, 3);
        assert_eq!(m.total_fetch_cycles(), 11);
        assert_eq!(m.total_mode_cycles(), 11);
        assert_eq!(m.fetch_cycles[FetchCycleCause::UsefulFetch.index()], 1);
        assert_eq!(m.fetch_cycles[FetchCycleCause::FaqEmpty.index()], 7);
        assert_eq!(
            m.fetch_cycles[FetchCycleCause::DispatchBackpressure.index()],
            3
        );
        assert_eq!(m.faq_occupancy.count(), 11);
    }

    #[test]
    fn coupled_edges_measure_period_lengths() {
        let mut m = Metrics::new();
        m.note_coupled(true, 10);
        m.note_coupled(true, 11);
        m.note_coupled(false, 25);
        assert_eq!(m.resync_latency.count(), 1);
        assert!((m.resync_latency.mean() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn flush_recovery_closes_on_first_delivery() {
        let mut m = Metrics::new();
        m.note_flush(100, 42);
        m.note_delivery(0, 105);
        m.note_delivery(4, 110);
        m.note_delivery(4, 120); // no open measurement: ignored
        assert_eq!(m.flush_depth.count(), 1);
        assert!((m.flush_depth.mean() - 42.0).abs() < 1e-12);
        assert_eq!(m.flush_recovery_latency.count(), 1);
        assert!((m.flush_recovery_latency.mean() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_and_reseeds_the_coupled_marker() {
        let mut m = Metrics::new();
        m.charge(&probe(true, false), 0, true, 5);
        m.note_flush(1, 3);
        m.reset(50, true);
        assert_eq!(m.total_fetch_cycles(), 0);
        assert_eq!(m.flush_depth.count(), 0);
        // The reseeded period starts at the reset cycle.
        m.note_coupled(false, 60);
        assert!((m.resync_latency.mean() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_accumulators() {
        let mut a = Metrics::new();
        let mut b = Metrics::new();
        a.charge(&probe(false, false), 0, true, 3);
        b.charge(&probe(false, false), 1, true, 1);
        b.note_flush(5, 9);
        a.merge(&b);
        assert_eq!(a.total_fetch_cycles(), 4);
        assert_eq!(a.flush_depth.count(), 1);
    }

    #[test]
    fn state_round_trips() {
        let mut m = Metrics::new();
        m.charge(&probe(true, false), 0, true, 4);
        m.note_coupled(true, 3);
        m.note_flush(7, 2);
        let mut w = elf_types::SnapWriter::new();
        m.state(&mut w).expect("save succeeds");
        let bytes = w.into_bytes();
        let mut r = elf_types::SnapReader::new(&bytes);
        let mut m2 = Metrics::new();
        m2.state(&mut r).expect("metrics round-trip");
        assert_eq!(r.remaining(), 0);
        assert_eq!(m, m2);
    }

    #[test]
    fn json_report_carries_schema_and_buckets() {
        let mut m = Metrics::new();
        m.charge(&probe(false, false), 0, true, 10);
        let run = RunResult {
            workload: "641.leela".to_owned(),
            arch: "dcf".to_owned(),
            stats: SimStats {
                cycles: 10,
                retired: 7,
                ..SimStats::default()
            },
            metrics: Some(m),
        };
        let json = render_json("641.leela", std::slice::from_ref(&run));
        assert!(json.contains(&format!("\"schema\": \"{SCHEMA}\"")));
        assert!(json.contains("\"overflow\": 0"));
        assert!(json.contains("\"faq_empty\": 10"));
        assert!(json.contains("\"useful_fetch\": 0"));
        assert!(json.contains("\"decoupled\": 10"));
        assert!(json.contains("\"ipf_peak_inflight\": 0"));
        let table = render_table(std::slice::from_ref(&run));
        assert!(table.contains("FAQ-empty bubble"));
        assert!(table.contains("100.0%"));
        // A run without metrics is skipped by both renderers.
        let bare = RunResult {
            metrics: None,
            ..run.clone()
        };
        let runs = [bare, run];
        assert_eq!(render_json("641.leela", &runs), json);
        assert_eq!(render_table(&runs), table);
    }
}
