//! Deterministic fault injection.
//!
//! A [`FaultPlan`] describes *which* pipeline faults to inject and *how
//! often*; the simulator owns a `FaultInjector` that turns the plan into
//! concrete per-cycle decisions. Everything is derived from the plan's
//! seed with a private splitmix64 stream, so a given (config, workload,
//! plan) triple always injects the same faults at the same cycles —
//! a stress failure is a reproducible bug report, not a flake.
//!
//! The four fault kinds each target one of the recovery paths the paper
//! depends on:
//!
//! - [`FaultKind::SpuriousFlush`] — a full pipeline squash + resync out of
//!   nowhere (exercises the watchdog-style restart and ELF's
//!   decouple/re-couple transitions);
//! - [`FaultKind::CorruptBtb`] — overwrites the BTB entry for the PC the
//!   correct path is about to fetch with a structurally valid but wrong
//!   entry (exercises misfetch detection / decode resteers);
//! - [`FaultKind::EvictIcache`] — evicts the I-cache lines around the
//!   current fetch point so the next fetches see miss latency (exercises
//!   FAQ draining and delayed-response handling);
//! - [`FaultKind::ForceMispredict`] — flips the recorded prediction of the
//!   next correct-path branch (exercises the execute-time flush path).

use elf_types::Cycle;

/// One kind of injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Force a full pipeline flush + oracle resync.
    SpuriousFlush,
    /// Overwrite the BTB entry covering the next correct-path PC.
    CorruptBtb,
    /// Evict the I-cache lines around the current fetch point.
    EvictIcache,
    /// Flip the next correct-path branch's recorded prediction.
    ForceMispredict,
}

impl FaultKind {
    /// Every fault kind, in a fixed order (also the injector's array
    /// layout).
    pub const ALL: [FaultKind; 4] = [
        FaultKind::SpuriousFlush,
        FaultKind::CorruptBtb,
        FaultKind::EvictIcache,
        FaultKind::ForceMispredict,
    ];

    /// Stable index into per-kind arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            FaultKind::SpuriousFlush => 0,
            FaultKind::CorruptBtb => 1,
            FaultKind::EvictIcache => 2,
            FaultKind::ForceMispredict => 3,
        }
    }

    /// CLI spelling (`elfsim --inject <label>[,...]`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::SpuriousFlush => "flush",
            FaultKind::CorruptBtb => "btb",
            FaultKind::EvictIcache => "icache",
            FaultKind::ForceMispredict => "mispredict",
        }
    }
}

impl std::str::FromStr for FaultKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        FaultKind::ALL
            .into_iter()
            .find(|k| k.label() == s)
            .ok_or_else(|| {
                format!("unknown fault kind {s:?} (expected flush|btb|icache|mispredict)")
            })
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

elf_types::snap_enum!(FaultKind {
    0 => SpuriousFlush,
    1 => CorruptBtb,
    2 => EvictIcache,
    3 => ForceMispredict,
});

/// A seeded, deterministic fault-injection schedule.
///
/// Rates are expressed as mean injections per 100k cycles; `0` disables a
/// kind. The default plan injects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the injection schedule (independent of the workload seed).
    pub seed: u64,
    /// Mean injections per 100k cycles, indexed by [`FaultKind::index`].
    pub rate_per_100k: [u32; 4],
}

elf_types::snap_struct!(FaultPlan {
    seed,
    rate_per_100k
});

impl FaultPlan {
    /// A plan injecting nothing.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rate_per_100k: [0; 4],
        }
    }

    /// A plan injecting only `kind`, `rate` times per 100k cycles.
    #[must_use]
    pub fn single(kind: FaultKind, rate: u32, seed: u64) -> Self {
        FaultPlan::new(seed).with(kind, rate)
    }

    /// A plan injecting every kind at the same rate.
    #[must_use]
    pub fn uniform(rate: u32, seed: u64) -> Self {
        FaultPlan {
            seed,
            rate_per_100k: [rate; 4],
        }
    }

    /// Returns the plan with `kind` set to `rate` per 100k cycles.
    #[must_use]
    pub fn with(mut self, kind: FaultKind, rate: u32) -> Self {
        self.rate_per_100k[kind.index()] = rate;
        self
    }

    /// The configured rate for `kind`.
    #[must_use]
    pub fn rate(&self, kind: FaultKind) -> u32 {
        self.rate_per_100k[kind.index()]
    }

    /// Whether the plan injects nothing at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rate_per_100k.iter().all(|&r| r == 0)
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runtime state of a [`FaultPlan`]: per-kind next-fire cycles plus a
/// private random stream.
#[derive(Debug, Clone)]
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    rng: u64,
    next_fire: [Option<Cycle>; 4],
    counts: [u64; 4],
}

impl FaultInjector {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        let mut inj = FaultInjector {
            plan,
            rng: plan.seed ^ 0xfa17_1f3e_c7ab_5eedu64,
            next_fire: [None; 4],
            counts: [0; 4],
        };
        for kind in FaultKind::ALL {
            if inj.plan.rate(kind) > 0 {
                let gap = inj.draw_gap(kind);
                inj.next_fire[kind.index()] = Some(gap);
            }
        }
        inj
    }

    /// 64 fresh random bits (for fault payloads, e.g. corrupt-entry
    /// geometry).
    pub(crate) fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.rng)
    }

    /// Mean cycles between injections of `kind`.
    fn period(&self, kind: FaultKind) -> u64 {
        (100_000 / u64::from(self.plan.rate(kind).max(1))).max(1)
    }

    /// A random gap with the kind's mean period (uniform on [1, 2*period]).
    fn draw_gap(&mut self, kind: FaultKind) -> u64 {
        let period = self.period(kind);
        1 + self.next_u64() % (2 * period)
    }

    /// Whether `kind` fires at cycle `now`; reschedules when it does.
    pub(crate) fn due(&mut self, kind: FaultKind, now: Cycle) -> bool {
        match self.next_fire[kind.index()] {
            Some(at) if now >= at => {
                let gap = self.draw_gap(kind);
                self.next_fire[kind.index()] = Some(now + gap);
                self.counts[kind.index()] += 1;
                true
            }
            _ => false,
        }
    }

    /// Cumulative injections per kind since construction.
    pub(crate) fn counts(&self) -> [u64; 4] {
        self.counts
    }

    /// Earliest scheduled fire cycle across all armed kinds (idle-cycle
    /// skipping must never jump past a due injection).
    pub(crate) fn next_due(&self) -> Option<Cycle> {
        self.next_fire.iter().flatten().copied().min()
    }

    /// Saves or restores the injector's random-stream position, per-kind
    /// next-fire cycles and injection counts. The plan itself is part of
    /// the simulator configuration and is not written; loading into an
    /// injector built from the same plan continues the injection schedule
    /// bit-identically.
    pub(crate) fn state(
        &mut self,
        io: &mut impl elf_types::StateIo,
    ) -> Result<(), elf_types::SnapError> {
        io.value(&mut self.rng)?;
        io.value(&mut self.next_fire)?;
        io.value(&mut self.counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builders_compose() {
        let p = FaultPlan::new(1);
        assert!(p.is_empty());
        let p = p.with(FaultKind::CorruptBtb, 50);
        assert_eq!(p.rate(FaultKind::CorruptBtb), 50);
        assert_eq!(p.rate(FaultKind::SpuriousFlush), 0);
        assert!(!p.is_empty());
        let u = FaultPlan::uniform(10, 2);
        assert!(FaultKind::ALL.iter().all(|&k| u.rate(k) == 10));
        assert_eq!(
            FaultPlan::single(FaultKind::EvictIcache, 7, 3).rate(FaultKind::EvictIcache),
            7
        );
    }

    #[test]
    fn kind_labels_round_trip() {
        for kind in FaultKind::ALL {
            assert_eq!(kind.label().parse::<FaultKind>().unwrap(), kind);
        }
        assert!("bogus".parse::<FaultKind>().is_err());
    }

    #[test]
    fn injector_fires_at_roughly_the_configured_rate() {
        let plan = FaultPlan::single(FaultKind::SpuriousFlush, 100, 42);
        let mut inj = FaultInjector::new(plan);
        let mut fired = 0u64;
        for now in 0..100_000u64 {
            if inj.due(FaultKind::SpuriousFlush, now) {
                fired += 1;
            }
            assert!(
                !inj.due(FaultKind::CorruptBtb, now),
                "disabled kinds never fire"
            );
        }
        assert!(
            (50..200).contains(&fired),
            "expected ~100 firings per 100k cycles, got {fired}"
        );
        assert_eq!(inj.counts()[FaultKind::SpuriousFlush.index()], fired);
    }

    #[test]
    fn injector_schedule_is_deterministic() {
        let plan = FaultPlan::uniform(200, 7);
        let fire_cycles = || {
            let mut inj = FaultInjector::new(plan);
            let mut fires = Vec::new();
            for now in 0..20_000u64 {
                for kind in FaultKind::ALL {
                    if inj.due(kind, now) {
                        fires.push((now, kind));
                    }
                }
            }
            fires
        };
        assert_eq!(fire_cycles(), fire_cycles());
    }
}
