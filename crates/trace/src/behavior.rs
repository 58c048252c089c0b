//! Behavioral models attached to static instructions.
//!
//! A synthesized program is a static image plus a table of *behaviors*:
//! direction models for conditional branches, target models for indirect
//! branches, and address models for memory instructions. The
//! [`Oracle`](crate::oracle::Oracle)
//! (see [`crate::oracle`]) holds the mutable state of each behavior and
//! evaluates them deterministically from a seeded RNG.
//!
//! The model zoo is chosen to span the predictability axes the paper's
//! workloads exercise:
//!
//! * [`DirectionModel::Pattern`] / [`DirectionModel::LoopExit`] — learnable by
//!   any history predictor (and by a bimodal when strongly biased);
//! * [`DirectionModel::HistoryXor`] — learnable by TAGE but ~50% for a
//!   bimodal (drives the COND-ELF risk cases, §VI-B);
//! * [`DirectionModel::Bernoulli`] — fundamentally unpredictable to degree
//!   `min(p, 1-p)` (drives branch MPKI);
//! * [`TargetModel::Mono`] vs [`TargetModel::HistoryHash`] vs
//!   [`TargetModel::Random`] — BTC-friendly vs ITTAGE-friendly vs hostile.

use elf_types::Addr;
use rand::Rng;

/// Direction model for one static conditional branch.
#[derive(Debug, Clone, PartialEq)]
pub enum DirectionModel {
    /// Always taken (unconditional-in-practice conditional).
    AlwaysTaken,
    /// Taken with probability `p_taken`, independently each execution.
    Bernoulli {
        /// Probability the branch is taken.
        p_taken: f64,
    },
    /// Periodic pattern of length `len` (LSB first in `bits`).
    Pattern {
        /// Pattern bits, bit `i` = outcome of the `i`-th execution mod `len`.
        bits: u64,
        /// Pattern period (1..=64).
        len: u8,
    },
    /// Loop-style branch: taken `trip - 1` times, then not-taken once.
    LoopExit {
        /// Loop trip count (>= 1).
        trip: u32,
    },
    /// Outcome is the XOR of global-history outcome bits at the given
    /// history distances, flipped with probability `noise`.
    HistoryXor {
        /// History distances (1-based; bit 1 = most recent outcome).
        taps: [u8; 3],
        /// Probability of flipping the computed outcome.
        noise: f64,
    },
}

/// Mutable evaluation state for a [`DirectionModel`].
#[derive(Debug, Clone, Default)]
pub struct DirState {
    /// Executions so far (pattern position / loop counter).
    pub count: u64,
}

impl DirectionModel {
    /// Evaluates the next outcome.
    ///
    /// `ghist` is the oracle's global outcome history (bit 0 = most recent).
    pub fn next(&self, state: &mut DirState, ghist: u64, rng: &mut impl Rng) -> bool {
        let n = state.count;
        state.count += 1;
        match *self {
            DirectionModel::AlwaysTaken => true,
            DirectionModel::Bernoulli { p_taken } => rng.gen_bool(p_taken.clamp(0.0, 1.0)),
            DirectionModel::Pattern { bits, len } => {
                let len = u64::from(len.clamp(1, 64));
                (bits >> (n % len)) & 1 == 1
            }
            DirectionModel::LoopExit { trip } => {
                let trip = u64::from(trip.max(1));
                (n % trip) != trip - 1
            }
            DirectionModel::HistoryXor { taps, noise } => {
                let mut out = false;
                for t in taps {
                    if t > 0 {
                        out ^= (ghist >> (t - 1)) & 1 == 1;
                    }
                }
                if noise > 0.0 && rng.gen_bool(noise.clamp(0.0, 1.0)) {
                    out = !out;
                }
                out
            }
        }
    }
}

/// Target model for one static indirect branch (returns are handled by the
/// oracle's call stack instead).
#[derive(Debug, Clone, PartialEq)]
pub enum TargetModel {
    /// Single target — a direct-mapped Branch Target Cache predicts this.
    Mono {
        /// The only target.
        target: Addr,
    },
    /// Cycles through the targets in order.
    RoundRobin {
        /// Targets, visited cyclically.
        targets: Vec<Addr>,
    },
    /// Target index is a hash of recent global history — ITTAGE-learnable,
    /// BTC-hostile once `targets.len() > 1`.
    HistoryHash {
        /// Candidate targets.
        targets: Vec<Addr>,
        /// History distances hashed into the index.
        taps: [u8; 3],
    },
    /// Uniformly random choice — hostile to all predictors.
    Random {
        /// Candidate targets.
        targets: Vec<Addr>,
    },
}

/// Mutable evaluation state for a [`TargetModel`].
#[derive(Debug, Clone, Default)]
pub struct TgtState {
    /// Executions so far (round-robin position).
    pub count: u64,
}

impl TargetModel {
    /// Evaluates the next target.
    pub fn next(&self, state: &mut TgtState, ghist: u64, rng: &mut impl Rng) -> Addr {
        let n = state.count;
        state.count += 1;
        match self {
            TargetModel::Mono { target } => *target,
            TargetModel::RoundRobin { targets } => targets[(n % targets.len() as u64) as usize],
            TargetModel::HistoryHash { targets, taps } => {
                let mut h: u64 = 0;
                for t in taps {
                    if *t > 0 {
                        h = (h << 1) | ((ghist >> (t - 1)) & 1);
                    }
                }
                targets[(h % targets.len() as u64) as usize]
            }
            TargetModel::Random { targets } => targets[rng.gen_range(0..targets.len())],
        }
    }

    /// All targets this model can produce.
    #[must_use]
    pub fn targets(&self) -> &[Addr] {
        match self {
            TargetModel::Mono { target } => std::slice::from_ref(target),
            TargetModel::RoundRobin { targets }
            | TargetModel::HistoryHash { targets, .. }
            | TargetModel::Random { targets } => targets,
        }
    }
}

/// Address model for one static load or store.
#[derive(Debug, Clone, PartialEq)]
pub enum AddrModel {
    /// Strided stream: `base + (n * stride) % footprint` — prefetch-friendly.
    Stride {
        /// First address.
        base: Addr,
        /// Stride in bytes.
        stride: u64,
        /// Wrap-around footprint in bytes.
        footprint: u64,
    },
    /// Uniformly random within `[base, base + footprint)`.
    Random {
        /// Region base.
        base: Addr,
        /// Region size in bytes.
        footprint: u64,
    },
    /// Pseudo-random walk with reuse: hops between `footprint / 64` cache
    /// lines using a multiplicative sequence — pointer-chase-like.
    Chase {
        /// Region base.
        base: Addr,
        /// Region size in bytes.
        footprint: u64,
    },
    /// Aliasing store/load pair: a *store* with this model picks a fresh
    /// strided address and publishes it to slot `pair`; a *load* with this
    /// model reads the current address of slot `pair`, creating a true
    /// memory dependence (drives the RAW-hazard pathology of §VI-B).
    SharedSlot {
        /// Alias-slot index shared by the paired store and load.
        pair: u32,
        /// Region base used by the store side.
        base: Addr,
        /// Region size in bytes.
        footprint: u64,
    },
}

/// Mutable evaluation state for an [`AddrModel`].
#[derive(Debug, Clone, Default)]
pub struct MemState {
    /// Executions so far.
    pub count: u64,
    /// Current position for chase-style models.
    pub pos: u64,
}

impl AddrModel {
    /// Evaluates the next address. `slots` is the oracle's alias-slot table;
    /// `is_store` selects the publish/consume side of [`AddrModel::SharedSlot`].
    pub fn next(
        &self,
        state: &mut MemState,
        slots: &mut [Addr],
        is_store: bool,
        rng: &mut impl Rng,
    ) -> Addr {
        let n = state.count;
        state.count += 1;
        match *self {
            AddrModel::Stride {
                base,
                stride,
                footprint,
            } => base + (n * stride) % footprint.max(stride.max(1)),
            AddrModel::Random { base, footprint } => {
                base + (rng.gen_range(0..footprint.max(8)) & !7)
            }
            AddrModel::Chase { base, footprint } => {
                let lines = (footprint / 64).max(1);
                state.pos = (state
                    .pos
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1))
                    % lines;
                base + state.pos * 64
            }
            AddrModel::SharedSlot {
                pair,
                base,
                footprint,
            } => {
                let slot = &mut slots[pair as usize];
                if is_store {
                    *slot = base + (n * 64) % footprint.max(64);
                }
                *slot
            }
        }
    }
}

/// One behavior-table entry: every [`elf_types::StaticInst::behavior`] index
/// resolves to one of these.
#[derive(Debug, Clone, PartialEq)]
pub enum Behavior {
    /// Conditional-branch direction model.
    Dir(DirectionModel),
    /// Indirect-branch target model.
    Target(TargetModel),
    /// Load/store address model.
    Mem(AddrModel),
}

elf_types::snap_enum!(DirectionModel {
    0 => AlwaysTaken,
    1 => Bernoulli { p_taken },
    2 => Pattern { bits, len },
    3 => LoopExit { trip },
    4 => HistoryXor { taps, noise },
});
elf_types::snap_enum!(TargetModel {
    0 => Mono { target },
    1 => RoundRobin { targets },
    2 => HistoryHash { targets, taps },
    3 => Random { targets },
});
elf_types::snap_enum!(AddrModel {
    0 => Stride { base, stride, footprint },
    1 => Random { base, footprint },
    2 => Chase { base, footprint },
    3 => SharedSlot { pair, base, footprint },
});
elf_types::snap_enum!(Behavior {
    0 => Dir(model),
    1 => Target(model),
    2 => Mem(model),
});
elf_types::snap_struct!(DirState { count });
elf_types::snap_struct!(TgtState { count });
elf_types::snap_struct!(MemState { count, pos });

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn pattern_repeats_with_period() {
        let m = DirectionModel::Pattern {
            bits: 0b0110,
            len: 4,
        };
        let mut s = DirState::default();
        let mut r = rng();
        let outs: Vec<bool> = (0..12).map(|_| m.next(&mut s, 0, &mut r)).collect();
        assert_eq!(&outs[0..4], &outs[4..8]);
        assert_eq!(&outs[0..4], &outs[8..12]);
        assert_eq!(outs[0..4], [false, true, true, false]);
    }

    #[test]
    fn loop_exit_is_taken_trip_minus_one_times() {
        let m = DirectionModel::LoopExit { trip: 4 };
        let mut s = DirState::default();
        let mut r = rng();
        let outs: Vec<bool> = (0..8).map(|_| m.next(&mut s, 0, &mut r)).collect();
        assert_eq!(outs, [true, true, true, false, true, true, true, false]);
    }

    #[test]
    fn history_xor_is_deterministic_function_of_history_when_noiseless() {
        let m = DirectionModel::HistoryXor {
            taps: [1, 3, 0],
            noise: 0.0,
        };
        let mut s = DirState::default();
        let mut r = rng();
        // ghist = 0b101: bit1 (dist 1) = 1, bit3 (dist 3) = 1 -> xor = false.
        assert!(!m.next(&mut s, 0b101, &mut r));
        // ghist = 0b001: dist1 = 1, dist3 = 0 -> xor = true.
        assert!(m.next(&mut s, 0b001, &mut r));
    }

    #[test]
    fn bernoulli_rate_close_to_p() {
        let m = DirectionModel::Bernoulli { p_taken: 0.3 };
        let mut s = DirState::default();
        let mut r = rng();
        let taken = (0..10_000).filter(|_| m.next(&mut s, 0, &mut r)).count();
        let rate = taken as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "rate was {rate}");
    }

    #[test]
    fn round_robin_cycles_targets() {
        let m = TargetModel::RoundRobin {
            targets: vec![0x10, 0x20, 0x30],
        };
        let mut s = TgtState::default();
        let mut r = rng();
        let seq: Vec<Addr> = (0..6).map(|_| m.next(&mut s, 0, &mut r)).collect();
        assert_eq!(seq, [0x10, 0x20, 0x30, 0x10, 0x20, 0x30]);
    }

    #[test]
    fn mono_always_returns_same_target() {
        let m = TargetModel::Mono { target: 0xdead0 };
        let mut s = TgtState::default();
        let mut r = rng();
        assert!((0..16).all(|_| m.next(&mut s, 0, &mut r) == 0xdead0));
        assert_eq!(m.targets(), &[0xdead0]);
    }

    #[test]
    fn history_hash_depends_only_on_history() {
        let m = TargetModel::HistoryHash {
            targets: vec![1, 2, 3, 4],
            taps: [1, 2, 3],
        };
        let mut s = TgtState::default();
        let mut r = rng();
        let a = m.next(&mut s, 0b011, &mut r);
        let b = m.next(&mut s, 0b011, &mut r);
        assert_eq!(a, b);
        // All outputs come from the target set.
        for g in 0..8 {
            let t = m.next(&mut s, g, &mut r);
            assert!(m.targets().contains(&t));
        }
    }

    #[test]
    fn stride_wraps_within_footprint() {
        let m = AddrModel::Stride {
            base: 0x1000,
            stride: 64,
            footprint: 256,
        };
        let mut s = MemState::default();
        let mut r = rng();
        let mut slots = [];
        let addrs: Vec<Addr> = (0..6)
            .map(|_| m.next(&mut s, &mut slots, false, &mut r))
            .collect();
        assert_eq!(addrs, [0x1000, 0x1040, 0x1080, 0x10c0, 0x1000, 0x1040]);
    }

    #[test]
    fn random_addresses_stay_in_region() {
        let m = AddrModel::Random {
            base: 0x8000,
            footprint: 4096,
        };
        let mut s = MemState::default();
        let mut r = rng();
        let mut slots = [];
        for _ in 0..1000 {
            let a = m.next(&mut s, &mut slots, false, &mut r);
            assert!((0x8000..0x9000).contains(&a));
        }
    }

    #[test]
    fn shared_slot_load_reads_last_store_address() {
        let m = AddrModel::SharedSlot {
            pair: 0,
            base: 0x4000,
            footprint: 1 << 20,
        };
        let mut st_s = MemState::default();
        let mut ld_s = MemState::default();
        let mut r = rng();
        let mut slots = [0u64; 1];
        for _ in 0..8 {
            let w = m.next(&mut st_s, &mut slots, true, &mut r);
            let rd = m.next(&mut ld_s, &mut slots, false, &mut r);
            assert_eq!(w, rd, "load must alias the preceding store");
        }
    }

    #[test]
    fn chase_stays_in_region_and_revisits_lines() {
        let m = AddrModel::Chase {
            base: 0,
            footprint: 64 * 16,
        };
        let mut s = MemState::default();
        let mut r = rng();
        let mut slots = [];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..256 {
            let a = m.next(&mut s, &mut slots, false, &mut r);
            assert!(a < 64 * 16);
            seen.insert(a / 64);
        }
        assert!(seen.len() <= 16);
        assert!(seen.len() > 1);
    }
}
