//! Flight recorder: a fixed-capacity ring of recent pipeline events.
//!
//! The simulator records control-flow recovery events (flushes, resteers,
//! ELF couple/decouple transitions, FAQ occupancy edges, injected faults)
//! as it runs. The ring is cheap enough to stay on unconditionally; when
//! the simulator returns a [`crate::error::SimError`] the tail is
//! serialized into the diagnostic report, so a wedge arrives as a
//! reproducible event history instead of a bare stack trace.

use crate::backend::FlushCause;
use crate::fault::FaultKind;
use elf_types::{Addr, Cycle, SeqNum};
use std::collections::VecDeque;

/// One recorded pipeline event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineEvent {
    /// The back-end flushed the pipeline (mispredict, memory-order
    /// violation, or watchdog) and refetch restarts at `restart_pc`.
    Flush {
        /// Why the back-end flushed.
        cause: FlushCause,
        /// Where fetch restarts.
        restart_pc: Addr,
    },
    /// ELF divergence resolution squashed the instructions younger than
    /// fetch id `fid` (trust-DCF repair).
    DivergenceSquash {
        /// Fetch id of the diverging branch.
        fid: u64,
    },
    /// The no-progress safety net squashed everything in flight and
    /// resynced fetch to the oracle at `cursor`.
    WatchdogResync {
        /// Where fetch restarts.
        restart_pc: Addr,
        /// Oracle sequence number fetch resumed from.
        cursor: SeqNum,
    },
    /// The ELF front-end switched between coupled and decoupled fetch.
    ModeSwitch {
        /// `true` when entering coupled mode.
        coupled: bool,
    },
    /// The FAQ drained empty (`empty == true`) or refilled.
    FaqEdge {
        /// `true` when the queue just drained.
        empty: bool,
    },
    /// Delivery left the correct path: `got` arrived where the oracle
    /// expected `want`.
    WrongPath {
        /// Delivered (wrong-path) PC.
        got: Addr,
        /// Correct-path PC the oracle wanted.
        want: Addr,
    },
    /// The fault injector fired.
    FaultInjected {
        /// Which fault was injected.
        kind: FaultKind,
    },
}

impl std::fmt::Display for PipelineEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineEvent::Flush { cause, restart_pc } => {
                write!(f, "flush {cause:?} -> {restart_pc:#x}")
            }
            PipelineEvent::DivergenceSquash { fid } => {
                write!(f, "divergence squash at fid {fid}")
            }
            PipelineEvent::WatchdogResync { restart_pc, cursor } => {
                write!(f, "watchdog resync -> {restart_pc:#x} (seq {cursor})")
            }
            PipelineEvent::ModeSwitch { coupled: true } => write!(f, "ELF coupled"),
            PipelineEvent::ModeSwitch { coupled: false } => write!(f, "ELF decoupled"),
            PipelineEvent::FaqEdge { empty: true } => write!(f, "FAQ drained"),
            PipelineEvent::FaqEdge { empty: false } => write!(f, "FAQ refilled"),
            PipelineEvent::WrongPath { got, want } => {
                write!(f, "wrong path: got {got:#x}, want {want:#x}")
            }
            PipelineEvent::FaultInjected { kind } => write!(f, "injected fault: {kind}"),
        }
    }
}

elf_types::snap_enum!(PipelineEvent {
    0 => Flush { cause, restart_pc },
    1 => DivergenceSquash { fid },
    2 => WatchdogResync { restart_pc, cursor },
    3 => ModeSwitch { coupled },
    4 => FaqEdge { empty },
    5 => WrongPath { got, want },
    6 => FaultInjected { kind },
});

/// A [`PipelineEvent`] stamped with the cycle it happened on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    /// Cycle the event was recorded.
    pub cycle: Cycle,
    /// The event itself.
    pub event: PipelineEvent,
}

impl std::fmt::Display for TimedEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{:>10}  {}", self.cycle, self.event)
    }
}

elf_types::snap_struct!(TimedEvent { cycle, event });

/// Fixed-capacity ring buffer of the most recent pipeline events.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    buf: VecDeque<TimedEvent>,
    capacity: usize,
    total: u64,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` events (0 disables
    /// recording).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            buf: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            total: 0,
        }
    }

    /// Records `event` at `cycle`, evicting the oldest entry when full.
    pub fn record(&mut self, cycle: Cycle, event: PipelineEvent) {
        self.total += 1;
        if self.capacity == 0 {
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(TimedEvent { cycle, event });
    }

    /// The retained tail, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TimedEvent> {
        self.buf.iter()
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever recorded (including evicted ones).
    #[must_use]
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Copies the retained tail out (oldest first), e.g. into a
    /// diagnostic report.
    #[must_use]
    pub fn snapshot(&self) -> Vec<TimedEvent> {
        self.buf.iter().copied().collect()
    }

    /// Drops all retained events (the total count is kept).
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Events recorded but no longer retained (ring saturation): the
    /// cumulative count of entries evicted by capacity pressure, dropped
    /// because the capacity is 0, or discarded by [`FlightRecorder::clear`].
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.total.saturating_sub(self.buf.len() as u64)
    }

    /// Saves or restores the retained tail and the total-recorded count;
    /// loading requires a recorder of the same capacity.
    ///
    /// # Errors
    ///
    /// Loading fails on truncated bytes or a tail longer than this
    /// recorder's capacity.
    pub fn state(&mut self, io: &mut impl elf_types::StateIo) -> Result<(), elf_types::SnapError> {
        io.bounded(&mut self.buf, self.capacity, "flight recorder")?;
        io.value(&mut self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_only_the_tail() {
        let mut r = FlightRecorder::new(3);
        for c in 0..10u64 {
            r.record(c, PipelineEvent::FaqEdge { empty: c % 2 == 0 });
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.total_recorded(), 10);
        let cycles: Vec<Cycle> = r.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, [7, 8, 9]);
        assert_eq!(r.snapshot().len(), 3);
    }

    #[test]
    fn zero_capacity_disables_retention() {
        let mut r = FlightRecorder::new(0);
        r.record(1, PipelineEvent::DivergenceSquash { fid: 9 });
        assert!(r.is_empty());
        assert_eq!(r.total_recorded(), 1);
    }

    #[test]
    fn events_render_compactly() {
        let e = TimedEvent {
            cycle: 12,
            event: PipelineEvent::Flush {
                cause: FlushCause::Mispredict,
                restart_pc: 0x4000,
            },
        };
        let s = format!("{e}");
        assert!(s.contains("Mispredict") && s.contains("0x4000"), "{s}");
    }
}
