//! Out-of-order back-end: rename/dispatch, issue, execute, commit.
//!
//! The back-end receives *bound* instructions (already checked against the
//! oracle by the simulator's path tracker), models resource contention
//! (ROB/IQ/LSQ/PRF, issue ports) and latencies, detects branch
//! mispredictions at execute and RAW memory-ordering violations at store
//! execute, and requests pipeline flushes. Wrong-path instructions occupy
//! resources and issue (polluting) data-cache accesses but never trigger
//! flushes themselves (DESIGN.md §10).
//!
//! Scheduler bookkeeping is slot-indexed. Every internal reference to an
//! in-flight instruction (rename map, wakeup lists, completion events,
//! load/store queue entries) is a `(fid, pos)` handle, where `pos` is the
//! instruction's absolute ROB position. The ROB itself, the wakeup lists
//! and the ready bitmap live on one power-of-two ring indexed by `pos`
//! modulo its size, so resolving a handle is a range check, a masked load
//! and an fid check, and issue walks the bitmap oldest-first from the ROB
//! head.
//! Completion events sit in a calendar of per-cycle buckets. Loads and
//! stores also sit in program-ordered queues, so store-to-load forwarding,
//! RAW detection and the memory-dependence store lookup scan only the
//! queue they need. Snapshots hold the ROB, not the scheduler: loading
//! rebuilds the rename map, wakeup lists, ready set and queues by
//! replaying dispatch's rename-and-subscribe step over the ROB.

use crate::config::BackendConfig;
use crate::memdep::MemDepTable;
use elf_mem::MemorySystem;
use elf_types::snap::Seq;
use elf_types::{
    Addr, Cycle, FetchMode, InstClass, Prediction, SeqNum, Snap, SnapError, SnapReader, SnapWriter,
    StaticInst,
};
use std::collections::VecDeque;

/// An instruction entering the back-end, annotated by the path tracker.
#[derive(Debug, Clone, Copy)]
pub struct BoundInst {
    /// Front-end id.
    pub fid: u64,
    /// Static instruction.
    pub sinst: StaticInst,
    /// Oracle sequence number (correct-path instructions only).
    pub seq: Option<SeqNum>,
    /// Fetch mode.
    pub mode: FetchMode,
    /// Attributed prediction (branches).
    pub pred: Option<Prediction>,
    /// Resolved direction (bound branches).
    pub taken: bool,
    /// Resolved next PC (bound instructions).
    pub next_pc: Addr,
    /// Effective address (bound memory ops; synthetic for wrong-path loads).
    pub mem_addr: Option<Addr>,
    /// Whether the attributed prediction disagrees with the oracle
    /// (precomputed at bind; resolved when the branch executes).
    pub mispredicted: bool,
}

impl BoundInst {
    /// Whether this instruction is on the known-correct path.
    #[must_use]
    pub fn is_bound(&self) -> bool {
        self.seq.is_some()
    }
}

elf_types::snap_struct!(BoundInst {
    fid,
    sinst,
    seq,
    mode,
    pred,
    taken,
    next_pc,
    mem_addr,
    mispredicted,
});

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExecState {
    Waiting,
    Executing { done: Cycle },
    Done,
}

elf_types::snap_enum!(ExecState {
    0 => Waiting,
    1 => Executing { done },
    2 => Done,
});

#[derive(Debug, Clone, Copy)]
struct RobEntry {
    b: BoundInst,
    state: ExecState,
    wait_store_fid: Option<u64>,
    /// Producers (register or predicted-store) not yet complete.
    deps_left: u8,
}

elf_types::snap_struct!(RobEntry {
    b,
    state,
    wait_store_fid,
    deps_left
});

impl RobEntry {
    /// The content of a ring slot that has never held an instruction.
    fn vacant() -> Self {
        RobEntry {
            b: BoundInst {
                fid: 0,
                sinst: StaticInst::simple(0, InstClass::Nop),
                seq: None,
                mode: FetchMode::Decoupled,
                pred: None,
                taken: false,
                next_pc: 0,
                mem_addr: None,
                mispredicted: false,
            },
            state: ExecState::Waiting,
            wait_store_fid: None,
            deps_left: 0,
        }
    }
}

/// Why a pipeline flush was requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushCause {
    /// Branch direction or target misprediction resolved at execute.
    Mispredict,
    /// Load executed before an older aliasing store (RAW hazard).
    RawHazard,
    /// Simulator watchdog resynchronization (divergence gap).
    Watchdog,
}

elf_types::snap_enum!(FlushCause { 0 => Mispredict, 1 => RawHazard, 2 => Watchdog });

#[derive(Debug, Clone, Copy)]
struct PendingFlush {
    cause: FlushCause,
    boundary_fid: u64,
    restart_pc: Addr,
    cursor_target: SeqNum,
    apply_at: Cycle,
    raw_pair: Option<(Addr, Addr)>, // (load_pc, store_pc)
}

elf_types::snap_struct!(PendingFlush {
    cause,
    boundary_fid,
    restart_pc,
    cursor_target,
    apply_at,
    raw_pair,
});

/// A flush that was just applied; the simulator forwards it to the
/// front-end (and rewinds its path tracker).
#[derive(Debug, Clone)]
pub struct AppliedFlush {
    /// Cause.
    pub cause: FlushCause,
    /// Instructions with `fid > boundary_fid` were squashed.
    pub boundary_fid: u64,
    /// Correct-path restart PC.
    pub restart_pc: Addr,
    /// Oracle cursor to resume binding at.
    pub cursor_target: SeqNum,
    /// Resolved outcome history bits of unretired bound branches surviving
    /// in the ROB, oldest first (speculative-history replay material).
    pub hist_replay: Vec<bool>,
    /// Unretired call/return operations surviving in the ROB, oldest first
    /// (RAS replay material).
    pub ras_replay: Vec<elf_frontend::RasOp>,
    /// In-flight instructions this flush squashed (dispatch queue + ROB) —
    /// the per-flush recovery depth the metrics layer histograms.
    pub squashed: u64,
}

/// Instructions retired this cycle (program order).
#[derive(Debug, Clone, Copy)]
pub struct RetiredInst {
    /// The bound instruction.
    pub b: BoundInst,
}

/// Per-backend statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendStats {
    /// Instructions dispatched into the ROB.
    pub dispatched: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Wrong-path instructions squashed.
    pub squashed: u64,
    /// Mispredict flushes applied.
    pub mispredict_flushes: u64,
    /// RAW-hazard flushes applied.
    pub raw_flushes: u64,
    /// Watchdog flushes applied.
    pub watchdog_flushes: u64,
    /// Cycles the ROB was dispatch-blocked (full).
    pub rob_full_cycles: u64,
    /// Store-to-load forwards.
    pub forwards: u64,
}

elf_types::snap_struct!(BackendStats {
    dispatched,
    retired,
    squashed,
    mispredict_flushes,
    raw_flushes,
    watchdog_flushes,
    rob_full_cycles,
    forwards,
});

/// A reference to an in-flight instruction: its front-end id and its
/// absolute ROB position (the ROB's `front_pos` + index at dispatch).
/// Resolving one is a range check, a masked load and an fid check; the
/// checks reject handles whose entry retired or was squashed, including
/// when a younger instruction has since reused the slot.
#[derive(Debug, Clone, Copy)]
struct Handle {
    fid: u64,
    pos: u64,
}

/// Position given to restored completion events whose fid is no longer
/// in the ROB (stale events of squashed instructions). Their fid check
/// can never succeed again, so the position is never used.
const GONE: u64 = u64::MAX;

/// `qword` of a memory operation without an address. Real qwords have
/// their low three bits clear, so this never matches one.
const NO_QWORD: Addr = Addr::MAX;

/// A load/store queue entry, kept in program order per queue.
#[derive(Debug, Clone, Copy)]
struct LsqEntry {
    h: Handle,
    pc: Addr,
    /// The address rounded down to its 8-byte word, or [`NO_QWORD`].
    qword: Addr,
    bound: bool,
}

/// The reorder buffer on the slot ring: the entry at absolute position
/// `pos` lives in slot `pos & mask`, the index the ready bitmap and the
/// wakeup lists use too. The live positions `front_pos..front_pos + len`
/// never share a slot, because the ring is at least `rob_entries` long.
#[derive(Debug)]
struct Rob {
    slots: Vec<RobEntry>,
    /// Position of the oldest entry; advances by one per retirement, so a
    /// handle's position stays valid while its entry is in flight.
    front_pos: u64,
    len: usize,
    mask: u64,
}

impl Rob {
    fn new(ring: usize) -> Self {
        debug_assert!(ring.is_power_of_two());
        Rob {
            slots: vec![RobEntry::vacant(); ring],
            front_pos: 0,
            len: 0,
            mask: ring as u64 - 1,
        }
    }

    /// The slot backing absolute position `pos`.
    #[inline]
    fn slot(&self, pos: u64) -> usize {
        (pos & self.mask) as usize
    }

    /// The position of the live entry in `slot`.
    #[inline]
    fn position_at(&self, slot: usize) -> u64 {
        self.front_pos + ((slot as u64).wrapping_sub(self.front_pos) & self.mask)
    }

    /// The position the next dispatched entry takes.
    #[inline]
    fn back_pos(&self) -> u64 {
        self.front_pos + self.len as u64
    }

    fn front(&self) -> Option<&RobEntry> {
        (self.len > 0).then(|| &self.slots[self.slot(self.front_pos)])
    }

    fn back(&self) -> Option<&RobEntry> {
        (self.len > 0).then(|| &self.slots[self.slot(self.back_pos() - 1)])
    }

    fn push_back(&mut self, e: RobEntry) {
        debug_assert!(self.len < self.slots.len());
        let s = self.slot(self.back_pos());
        self.slots[s] = e;
        self.len += 1;
    }

    /// Removes the oldest entry, returning it and the slot it vacated.
    fn pop_front(&mut self) -> Option<(RobEntry, usize)> {
        if self.len == 0 {
            return None;
        }
        let s = self.slot(self.front_pos);
        self.front_pos += 1;
        self.len -= 1;
        Some((self.slots[s], s))
    }

    /// Removes the youngest entry, returning it and the slot it vacated.
    fn pop_back(&mut self) -> Option<(RobEntry, usize)> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        let s = self.slot(self.back_pos());
        Some((self.slots[s], s))
    }

    /// The live entries oldest-first, each with its position.
    fn iter(&self) -> impl Iterator<Item = (u64, &RobEntry)> {
        (self.front_pos..self.back_pos()).map(|pos| (pos, &self.slots[self.slot(pos)]))
    }

    /// The slot of a handle's entry, if it is still in flight.
    #[inline]
    fn index_of(&self, h: Handle) -> Option<usize> {
        let s = self.slot(h.pos);
        (h.pos.wrapping_sub(self.front_pos) < self.len as u64 && self.slots[s].b.fid == h.fid)
            .then_some(s)
    }

    /// The position of an in-flight fid (binary search: the ROB is
    /// fid-sorted). For the rare fid-keyed calls only.
    fn position_of(&self, fid: u64) -> Option<u64> {
        let fid_at = |pos: u64| self.slots[self.slot(pos)].b.fid;
        let (mut lo, mut hi) = (self.front_pos, self.back_pos());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if fid_at(mid) < fid {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (lo < self.back_pos() && fid_at(lo) == fid).then_some(lo)
    }
}

impl std::ops::Index<usize> for Rob {
    type Output = RobEntry;

    fn index(&self, slot: usize) -> &RobEntry {
        &self.slots[slot]
    }
}

impl std::ops::IndexMut<usize> for Rob {
    fn index_mut(&mut self, slot: usize) -> &mut RobEntry {
        &mut self.slots[slot]
    }
}

/// Snapshots hold the live entries oldest-first, the layout of a queue;
/// loading places them from position 0.
impl Seq for Rob {
    fn item_count(&self) -> usize {
        self.len
    }

    fn save_items(&self, w: &mut SnapWriter) {
        for (_, e) in self.iter() {
            e.save(w);
        }
    }

    fn load_items(&mut self, r: &mut SnapReader<'_>, n: usize) -> Result<(), SnapError> {
        if n > self.slots.len() {
            return Err(SnapError::mismatch(format!(
                "{n} ROB entries do not fit a {}-slot ring",
                self.slots.len()
            )));
        }
        self.front_pos = 0;
        self.len = 0;
        for _ in 0..n {
            self.push_back(RobEntry::load(r)?);
        }
        Ok(())
    }
}

/// A completion event: the instruction with id `fid` at position `pos`
/// finishes executing at cycle `done`.
#[derive(Debug, Clone, Copy)]
struct Event {
    done: Cycle,
    fid: u64,
    pos: u64,
}

/// Buckets in the completion calendar: a power of two no shorter than the
/// longest latency of the default configuration (DRAM, 250 cycles).
const SPAN: usize = 256;

/// End of a calendar bucket's node list.
const NIL: u32 = u32::MAX;

/// Completion events bucketed by done cycle. Every event in the ring is
/// done in `[lo, lo + SPAN)`, so bucket `done % SPAN` holds the events of
/// exactly one cycle, as a list threaded through one flat node pool.
/// Events outside that window when scheduled wait in `overflow` (a config
/// may raise `MemConfig::dram_latency`). Events leave only when their
/// cycle completes, stale ones of squashed instructions included.
#[derive(Debug)]
struct Calendar {
    /// First node of each bucket's list, or [`NIL`].
    heads: Vec<u32>,
    /// One bit per non-empty bucket.
    occupied: [u64; SPAN / 64],
    /// Events and their next-node links; free nodes are chained from
    /// `free`, so the pool only grows to the most events ever pending.
    nodes: Vec<(Event, u32)>,
    free: u32,
    /// The window's start: cycles before it have completed.
    lo: Cycle,
    /// Done cycle of the earliest ring event (`Cycle::MAX` when none).
    ring_next: Cycle,
    overflow: Vec<Event>,
    /// Done cycle of the earliest overflow event (`Cycle::MAX` when none).
    overflow_next: Cycle,
}

impl Calendar {
    /// An empty calendar whose window starts at `lo`.
    fn new(lo: Cycle) -> Self {
        Calendar {
            heads: vec![NIL; SPAN],
            occupied: [0; SPAN / 64],
            nodes: Vec::new(),
            free: NIL,
            lo,
            ring_next: Cycle::MAX,
            overflow: Vec::new(),
            overflow_next: Cycle::MAX,
        }
    }

    /// Done cycle of the earliest pending event, stale or live.
    #[inline]
    fn next_done(&self) -> Option<Cycle> {
        let next = self.ring_next.min(self.overflow_next);
        (next != Cycle::MAX).then_some(next)
    }

    fn push(&mut self, ev: Event) {
        if ev.done < self.lo || ev.done - self.lo >= SPAN as u64 {
            self.overflow.push(ev);
            self.overflow_next = self.overflow_next.min(ev.done);
            return;
        }
        let b = ev.done as usize & (SPAN - 1);
        let link = (ev, self.heads[b]);
        let n = if self.free == NIL {
            self.nodes.push(link);
            u32::try_from(self.nodes.len() - 1).expect("fewer than 2^32 pending events")
        } else {
            let n = self.free;
            self.free = self.nodes[n as usize].1;
            self.nodes[n as usize] = link;
            n
        };
        self.heads[b] = n;
        self.occupied[b / 64] |= 1 << (b & 63);
        self.ring_next = self.ring_next.min(ev.done);
    }

    /// Removes and returns one event done at or before `now`, if any.
    fn pop_due(&mut self, now: Cycle) -> Option<Event> {
        if self.ring_next <= now {
            let b = self.ring_next as usize & (SPAN - 1);
            let n = self.heads[b];
            let (ev, next) = self.nodes[n as usize];
            self.heads[b] = next;
            self.nodes[n as usize].1 = self.free;
            self.free = n;
            if next == NIL {
                self.occupied[b / 64] &= !(1 << (b & 63));
                self.ring_next = self.first_from(self.ring_next + 1);
            }
            return Some(ev);
        }
        if self.overflow_next <= now {
            let i = self.overflow.iter().position(|e| e.done <= now)?;
            let ev = self.overflow.swap_remove(i);
            self.overflow_next = self
                .overflow
                .iter()
                .map(|e| e.done)
                .min()
                .unwrap_or(Cycle::MAX);
            return Some(ev);
        }
        None
    }

    /// Done cycle of the first non-empty bucket from cycle `from` on, when
    /// every ring event is done in `[from, from + SPAN)`.
    fn first_from(&self, from: Cycle) -> Cycle {
        const WORDS: usize = SPAN / 64;
        let start = from as usize & (SPAN - 1);
        let (start_word, start_bit) = (start / 64, start & 63);
        for k in 0..=WORDS {
            let wi = (start_word + k) & (WORDS - 1);
            let mut bits = self.occupied[wi];
            if k == 0 {
                bits &= !0u64 << start_bit;
            } else if k == WORDS {
                bits &= (1u64 << start_bit) - 1;
            }
            if bits != 0 {
                let b = wi * 64 + bits.trailing_zeros() as usize;
                return from + (b.wrapping_sub(start) & (SPAN - 1)) as u64;
            }
        }
        Cycle::MAX
    }

    /// Records that every cycle through `now` has completed.
    fn advance(&mut self, now: Cycle) {
        debug_assert!(self.next_done().is_none_or(|d| d > now));
        self.lo = self.lo.max(now + 1);
    }

    /// Every pending event, in no particular order.
    fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        let ring = self.heads.iter().flat_map(move |&head| {
            std::iter::successors((head != NIL).then_some(head), move |&n| {
                let next = self.nodes[n as usize].1;
                (next != NIL).then_some(next)
            })
            .map(move |n| self.nodes[n as usize].0)
        });
        ring.chain(self.overflow.iter().copied())
    }
}

/// What [`Backend::squash_younger`] removed, and the replay material of
/// the survivors when asked for.
#[derive(Debug, Default)]
struct Squashed {
    /// Smallest squashed bound sequence number.
    min_seq: Option<SeqNum>,
    /// Instructions squashed (dispatch queue + ROB).
    count: u64,
    hist_replay: Vec<bool>,
    ras_replay: Vec<elf_frontend::RasOp>,
}

/// The out-of-order back-end.
#[derive(Debug)]
pub struct Backend {
    cfg: BackendConfig,
    /// The ROB on a ring of `rob_entries.next_power_of_two()` slots; the
    /// per-slot scheduler state below uses the same slot indices.
    rob: Rob,
    dispatch_q: VecDeque<(BoundInst, Cycle)>,
    reg_map: [Option<Handle>; 32],
    prf_used: usize,
    /// Dispatched-but-not-issued entries (issue-queue occupancy).
    iq_used: usize,
    /// Per-slot bitmap of entries whose producers have all completed;
    /// issue walks it oldest-first from the ROB head.
    ready: Vec<u64>,
    /// Per-slot wakeup lists: the dependents waiting on the slot's
    /// instruction. Cleared when the slot is reallocated; entries for
    /// squashed dependents are rejected by their handle's fid check.
    wakeup: Vec<Vec<Handle>>,
    /// Completion events by done cycle. A fid issues at most once, so
    /// (done, fid) is unique; snapshots write the events sorted by it.
    exec_events: Calendar,
    /// In-flight loads and stores, each in program order: pushed at
    /// dispatch, popped at commit (front) or squash (back).
    loads: VecDeque<LsqEntry>,
    stores: VecDeque<LsqEntry>,
    /// Scratch flush lists reused by `complete` (cleared per cycle), each
    /// flush keyed by the (done, fid) of the completion that raised it.
    raw_flush_scratch: Vec<((Cycle, u64), PendingFlush)>,
    misp_flush_scratch: Vec<((Cycle, u64), PendingFlush)>,
    /// Replay lists of the last applied flush, handed back through
    /// [`Backend::recycle_flush`] for the next one to fill.
    spare_hist_replay: Vec<bool>,
    spare_ras_replay: Vec<elf_frontend::RasOp>,
    memdep: MemDepTable,
    pending: Option<PendingFlush>,
    stats: BackendStats,
    /// First cycle the ROB head was observed wrong-path (watchdog).
    head_stuck_since: Option<Cycle>,
}

impl Backend {
    /// Creates a back-end.
    #[must_use]
    pub fn new(cfg: BackendConfig) -> Self {
        let ring = cfg.rob_entries.next_power_of_two();
        Backend {
            rob: Rob::new(ring),
            dispatch_q: VecDeque::new(),
            reg_map: [None; 32],
            prf_used: 0,
            iq_used: 0,
            ready: vec![0; ring.div_ceil(64)],
            wakeup: vec![Vec::new(); ring],
            exec_events: Calendar::new(0),
            loads: VecDeque::with_capacity(cfg.lsq_entries),
            stores: VecDeque::with_capacity(cfg.lsq_entries),
            raw_flush_scratch: Vec::new(),
            misp_flush_scratch: Vec::new(),
            spare_hist_replay: Vec::new(),
            spare_ras_replay: Vec::new(),
            memdep: MemDepTable::paper(),
            pending: None,
            stats: BackendStats::default(),
            head_stuck_since: None,
            cfg,
        }
    }

    /// Statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> BackendStats {
        self.stats
    }

    /// Resets statistics after warm-up.
    pub fn reset_stats(&mut self) {
        self.stats = BackendStats::default();
    }

    /// Memory-dependence predictor statistics (trainings, hits).
    #[must_use]
    pub fn memdep_stats(&self) -> (u64, u64) {
        self.memdep.stats()
    }

    /// Whether the back-end (ROB + dispatch queue) is completely empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rob.len == 0 && self.dispatch_q.is_empty()
    }

    /// Whether a flush has been requested but not yet applied (redirect in
    /// flight). The watchdog must not preempt it.
    #[must_use]
    pub fn has_pending_flush(&self) -> bool {
        self.pending.is_some()
    }

    /// Whether the decode/rename queue can take another fetch group —
    /// when false the front-end must stall (fetch backpressure).
    #[must_use]
    pub fn dispatch_room(&self) -> bool {
        self.dispatch_q.len() < self.cfg.dispatch_q_entries
    }

    /// Whether the ROB head is a wrong-path instruction that has been stuck
    /// beyond the watchdog budget (the simulator then forces a resync).
    #[must_use]
    pub fn watchdog_tripped(&self, now: Cycle) -> bool {
        match (self.rob.front(), self.head_stuck_since) {
            (Some(h), Some(since)) if !h.b.is_bound() => {
                now.saturating_sub(since) > u64::from(self.cfg.watchdog_cycles)
            }
            _ => false,
        }
    }

    /// Enqueues a decoded instruction for rename `rename_latency` cycles
    /// from now.
    pub fn accept(&mut self, b: BoundInst, now: Cycle) {
        self.dispatch_q
            .push_back((b, now + u64::from(self.cfg.rename_latency)));
    }

    /// Load/store queue occupancy.
    fn lsq_used(&self) -> usize {
        self.loads.len() + self.stores.len()
    }

    /// The ROB slot of an in-flight fid. For the rare fid-keyed calls only.
    fn rob_index(&self, fid: u64) -> Option<usize> {
        self.rob.position_of(fid).map(|pos| self.rob.slot(pos))
    }

    #[inline]
    fn set_ready(&mut self, slot: usize) {
        self.ready[slot / 64] |= 1 << (slot & 63);
    }

    #[inline]
    fn clear_ready(&mut self, slot: usize) {
        self.ready[slot / 64] &= !(1 << (slot & 63));
    }

    #[inline]
    fn is_ready(&self, slot: usize) -> bool {
        (self.ready[slot / 64] >> (slot & 63)) & 1 == 1
    }

    /// The oracle sequence number of an in-flight instruction, if present
    /// and bound.
    #[must_use]
    pub fn seq_of(&self, fid: u64) -> Option<SeqNum> {
        if let Some(i) = self.rob_index(fid) {
            return self.rob[i].b.seq;
        }
        self.dispatch_q
            .iter()
            .find(|(b, _)| b.fid == fid)
            .and_then(|(b, _)| b.seq)
    }

    /// Rewrites an in-flight branch's effective prediction (divergence
    /// resolved in favor of the DCF: the fetch stream now follows the DCF
    /// direction, so that direction is what execution validates). If the
    /// branch already completed, a newly-wrong prediction raises a flush
    /// and a newly-right one cancels the pending flush it had raised.
    pub fn repredict_branch(
        &mut self,
        fid: u64,
        pred: Prediction,
        mispredicted: bool,
        restart_pc: Addr,
        cursor_target: SeqNum,
        now: Cycle,
    ) {
        if let Some(i) = self.rob_index(fid) {
            let e = &mut self.rob[i];
            let was = e.b.mispredicted;
            e.b.pred = Some(pred);
            e.b.mispredicted = mispredicted;
            let done = e.state == ExecState::Done;
            if done && mispredicted && !was {
                self.request_flush(PendingFlush {
                    cause: FlushCause::Mispredict,
                    boundary_fid: fid,
                    restart_pc,
                    cursor_target,
                    apply_at: now + u64::from(self.cfg.redirect_latency),
                    raw_pair: None,
                });
            }
            if was && !mispredicted {
                if let Some(p) = self.pending {
                    if p.cause == FlushCause::Mispredict && p.boundary_fid == fid {
                        self.pending = None;
                    }
                }
            }
            return;
        }
        if let Some((b, _)) = self.dispatch_q.iter_mut().find(|(b, _)| b.fid == fid) {
            b.pred = Some(pred);
            b.mispredicted = mispredicted;
        }
    }

    /// Squashes everything younger than `boundary_fid` in the dispatch
    /// queue and the ROB (used for front-end divergence squashes). Returns
    /// the smallest oracle sequence number among squashed bound
    /// instructions, so the caller can rewind its path cursor.
    pub fn squash_after_returning_seq(&mut self, boundary_fid: u64) -> Option<SeqNum> {
        let min_seq = self.squash_younger(boundary_fid, false).min_seq;
        if let Some(p) = self.pending {
            if p.boundary_fid > boundary_fid {
                // The flush source was squashed.
                self.pending = None;
            }
        }
        min_seq
    }

    /// Removes every instruction with `fid > boundary_fid` from the
    /// dispatch queue, the ROB and the load/store queues, and rebuilds the
    /// rename map. With `replay`, the same pass over the surviving ROB
    /// also collects the flush's history and RAS replay material.
    fn squash_younger(&mut self, boundary_fid: u64, replay: bool) -> Squashed {
        let mut out = Squashed::default();
        if replay {
            out.hist_replay = std::mem::take(&mut self.spare_hist_replay);
            out.ras_replay = std::mem::take(&mut self.spare_ras_replay);
        }
        let mut note = |seq: Option<SeqNum>| {
            if let Some(s) = seq {
                out.min_seq = Some(out.min_seq.map_or(s, |m: u64| m.min(s)));
            }
        };
        let mut count: u64 = 0;
        self.dispatch_q.retain(|(b, _)| {
            let keep = b.fid <= boundary_fid;
            if !keep {
                note(b.seq);
                count += 1;
            }
            keep
        });
        while self.rob.back().is_some_and(|e| e.b.fid > boundary_fid) {
            // invariant: the loop condition proves the ROB is non-empty.
            let (e, slot) = self.rob.pop_back().expect("checked above");
            note(e.b.seq);
            self.release_entry(&e, slot);
            self.stats.squashed += 1;
            count += 1;
        }
        out.count = count;
        for q in [&mut self.loads, &mut self.stores] {
            while q.back().is_some_and(|m| m.h.fid > boundary_fid) {
                q.pop_back();
            }
        }
        self.reg_map = [None; 32];
        for (pos, e) in self.rob.iter() {
            if let Some(d) = e.b.sinst.dst {
                self.reg_map[d as usize] = Some(Handle { fid: e.b.fid, pos });
            }
            if !replay || !e.b.is_bound() {
                continue;
            }
            let Some(k) = e.b.sinst.branch_kind() else {
                continue;
            };
            // History replay: resolved outcomes of surviving unretired
            // bound branches, oldest first — the speculative history is
            // rebuilt as retired-history + these bits (exact repair).
            out.hist_replay
                .extend(elf_frontend::Frontend::history_bit(k, e.b.taken));
            // RAS replay: surviving unretired call/return operations.
            if k.is_call() {
                out.ras_replay
                    .push(elf_frontend::RasOp::Push(e.b.sinst.pc + 4));
            } else if k.is_return() {
                out.ras_replay.push(elf_frontend::RasOp::Pop);
            }
        }
        out
    }

    /// Appends a memory operation to its load/store queue (no-op for
    /// other instructions).
    fn lsq_push(&mut self, h: Handle, b: &BoundInst) {
        let q = match b.sinst.class {
            InstClass::Load => &mut self.loads,
            InstClass::Store => &mut self.stores,
            _ => return,
        };
        q.push_back(LsqEntry {
            h,
            pc: b.sinst.pc,
            qword: b.mem_addr.map_or(NO_QWORD, |a| a & !7),
            bound: b.is_bound(),
        });
    }

    /// Returns an entry's physical register and, if it never issued, its
    /// issue-queue slot and ready bit.
    fn release_entry(&mut self, e: &RobEntry, slot: usize) {
        if e.b.sinst.dst.is_some() {
            self.prf_used = self.prf_used.saturating_sub(1);
        }
        if e.state == ExecState::Waiting {
            self.iq_used = self.iq_used.saturating_sub(1);
            self.clear_ready(slot);
        }
    }

    /// One back-end cycle, appending this cycle's retirements to `retired`
    /// (cleared first) and returning the applied flush, if any. The caller
    /// owns the buffer so steady-state ticks allocate nothing.
    pub fn tick_into(
        &mut self,
        mem: &mut MemorySystem,
        now: Cycle,
        retired: &mut Vec<RetiredInst>,
    ) -> Option<AppliedFlush> {
        retired.clear();
        self.complete(now);
        self.issue(mem, now);
        self.dispatch(now);
        let flush = self.apply_flush(now);
        self.commit(mem, now, retired);
        self.update_watchdog(now);
        flush
    }

    fn dispatch(&mut self, now: Cycle) {
        for _ in 0..self.cfg.rename_width {
            let Some((b, ready)) = self.dispatch_q.front() else {
                break;
            };
            if *ready > now {
                break;
            }
            if self.rob.len >= self.cfg.rob_entries {
                self.stats.rob_full_cycles += 1;
                break;
            }
            if self.iq_used >= self.cfg.iq_entries {
                break;
            }
            if b.sinst.class.is_mem() && self.lsq_used() >= self.cfg.lsq_entries {
                break;
            }
            if b.sinst.dst.is_some() && self.prf_used >= self.cfg.prf_entries {
                break;
            }
            // invariant: the let-else above proves the queue is non-empty.
            let (b, _) = self.dispatch_q.pop_front().expect("checked above");
            // Memory-dependence prediction at rename (Table II): wait for
            // the youngest in-flight store with the predicted PC.
            let wait_store = if b.sinst.class == InstClass::Load && b.is_bound() {
                self.memdep
                    .predicted_store(b.sinst.pc)
                    .and_then(|spc| self.stores.iter().rev().find(|s| s.pc == spc).map(|s| s.h))
            } else {
                None
            };
            let mut e = RobEntry {
                b,
                state: ExecState::Waiting,
                wait_store_fid: wait_store.map(|s| s.fid),
                deps_left: 0,
            };
            e.deps_left = self.rename(self.rob.back_pos(), &e, wait_store);
            self.stats.dispatched += 1;
            self.rob.push_back(e);
        }
    }

    /// Renames entry `e` at ROB position `pos` against the rename map and
    /// takes its resources: a physical register if it writes one, a
    /// load/store-queue entry if it accesses memory and, while it waits to
    /// issue, an issue-queue slot. A waiting entry also subscribes to the
    /// completion of its unfinished producers (the in-flight writers of its
    /// source registers, once per read, and the predicted store
    /// `wait_store`) and is ready when it has none. Returns how many
    /// producers it waits for.
    ///
    /// Dispatch runs this step once per new entry; snapshot loading replays
    /// it over the ROB oldest-first, which rebuilds the scheduler state
    /// that dispatch and completion leave behind.
    fn rename(&mut self, pos: u64, e: &RobEntry, wait_store: Option<Handle>) -> u8 {
        let h = Handle { fid: e.b.fid, pos };
        let slot = self.rob.slot(pos);
        self.wakeup[slot].clear();
        let mut deps_left = 0u8;
        if e.state == ExecState::Waiting {
            let mut producers = [None, None, wait_store];
            for (p, s) in producers.iter_mut().zip(e.b.sinst.sources()) {
                *p = self.reg_map[s as usize];
            }
            for p in producers.into_iter().flatten() {
                if self
                    .rob
                    .index_of(p)
                    .is_some_and(|i| self.rob[i].state != ExecState::Done)
                {
                    deps_left += 1;
                    let ps = self.rob.slot(p.pos);
                    self.wakeup[ps].push(h);
                }
            }
            if deps_left == 0 {
                self.set_ready(slot);
            }
            self.iq_used += 1;
        }
        if let Some(d) = e.b.sinst.dst {
            self.reg_map[d as usize] = Some(h);
            self.prf_used += 1;
        }
        self.lsq_push(h, &e.b);
        deps_left
    }

    fn issue(&mut self, mem: &mut MemorySystem, now: Cycle) {
        let mut issued = 0usize;
        let mut alu = self.cfg.alu_ports;
        let mut muldiv = self.cfg.muldiv_ports;
        let mut ldst = self.cfg.ldst_ports;
        let mut simd = self.cfg.simd_ports;

        // Walk the ready bitmap oldest-first: from the head's slot to the
        // end of the ring, then around to just below the head.
        // `words` is a power of two: the ring is, and a ring shorter than
        // 64 slots has one word.
        let head = self.rob.slot(self.rob.front_pos);
        let words = self.ready.len();
        let (head_word, head_bit) = (head / 64, head & 63);
        'walk: for k in 0..=words {
            let wi = (head_word + k) & (words - 1);
            let mut bits = self.ready[wi];
            if k == 0 {
                bits &= !0u64 << head_bit;
            } else if k == words {
                bits &= (1u64 << head_bit) - 1;
            }
            while bits != 0 {
                // With no ALU, LD/ST or SIMD port left nothing can issue
                // (mul/div also takes an ALU port).
                if issued >= self.cfg.issue_width || alu + ldst + simd == 0 {
                    break 'walk;
                }
                let slot = wi * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let class = {
                    let e = &self.rob[slot];
                    debug_assert_eq!(e.state, ExecState::Waiting);
                    debug_assert_eq!(e.deps_left, 0);
                    e.b.sinst.class
                };
                // Port allocation.
                let port_ok = match class {
                    InstClass::Mul | InstClass::Div => {
                        if muldiv > 0 && alu > 0 {
                            muldiv -= 1;
                            alu -= 1;
                            true
                        } else {
                            false
                        }
                    }
                    InstClass::Alu | InstClass::Nop | InstClass::Branch(_) => {
                        if alu > 0 {
                            alu -= 1;
                            true
                        } else {
                            false
                        }
                    }
                    InstClass::Load | InstClass::Store => {
                        if ldst > 0 {
                            ldst -= 1;
                            true
                        } else {
                            false
                        }
                    }
                    InstClass::Simd => {
                        if simd > 0 {
                            simd -= 1;
                            true
                        } else {
                            false
                        }
                    }
                };
                if !port_ok {
                    continue;
                }
                let latency = self.exec_latency(slot, mem, now);
                let done = now + u64::from(latency.max(1));
                let e = &mut self.rob[slot];
                e.state = ExecState::Executing { done };
                let fid = e.b.fid;
                self.clear_ready(slot);
                self.iq_used = self.iq_used.saturating_sub(1);
                let pos = self.rob.position_at(slot);
                self.exec_events.push(Event { done, fid, pos });
                issued += 1;
            }
        }
    }

    fn exec_latency(&mut self, slot: usize, mem: &mut MemorySystem, now: Cycle) -> u32 {
        let e = &self.rob[slot];
        match e.b.sinst.class {
            InstClass::Alu | InstClass::Nop | InstClass::Branch(_) => 1,
            InstClass::Mul => self.cfg.mul_latency,
            InstClass::Div => self.cfg.div_latency,
            InstClass::Simd => self.cfg.simd_latency,
            InstClass::Store => 1, // address generation; data written at commit
            InstClass::Load => {
                let Some(a) = e.b.mem_addr else { return 1 };
                let (fid, pc) = (e.b.fid, e.b.sinst.pc);
                // Store-to-load forwarding from an older issued store.
                let qword = a & !7;
                let forwarded = self.stores.iter().take_while(|s| s.h.fid < fid).any(|s| {
                    s.qword == qword
                        && self
                            .rob
                            .index_of(s.h)
                            .is_some_and(|j| self.rob[j].state != ExecState::Waiting)
                });
                if forwarded {
                    self.stats.forwards += 1;
                    1
                } else {
                    mem.load(pc, a, now)
                }
            }
        }
    }

    fn complete(&mut self, now: Cycle) {
        // Scratch lists owned by the back-end: taken out for the borrow,
        // returned (cleared) below, so steady-state cycles allocate nothing.
        let mut raw_flushes = std::mem::take(&mut self.raw_flush_scratch);
        let mut mispredict_flushes = std::mem::take(&mut self.misp_flush_scratch);
        debug_assert!(raw_flushes.is_empty() && mispredict_flushes.is_empty());

        // Events of one cycle come out in no particular order: done marks
        // and wakeups commute, and the flushes are requested below in the
        // events' (done, fid) order.
        while let Some(Event { done, fid, pos }) = self.exec_events.pop_due(now) {
            // Squashed entries leave stale completion events behind; skip them.
            let Some(i) = self.rob.index_of(Handle { fid, pos }) else {
                continue;
            };
            let e = &mut self.rob[i];
            if !matches!(e.state, ExecState::Executing { done: d } if d == done) {
                continue;
            }
            e.state = ExecState::Done;
            let b = &e.b;
            let (bound, class, mem_addr) = (b.is_bound(), b.sinst.class, b.mem_addr);

            // Branch resolution.
            if bound && b.mispredicted && class.is_branch() {
                let f = PendingFlush {
                    cause: FlushCause::Mispredict,
                    boundary_fid: fid,
                    restart_pc: b.next_pc,
                    // invariant: `bound` was checked in the guard above.
                    cursor_target: b.seq.expect("bound") + 1,
                    apply_at: now + u64::from(self.cfg.redirect_latency),
                    raw_pair: None,
                };
                mispredict_flushes.push(((done, fid), f));
            }

            // RAW-hazard detection: a store executing finds the oldest
            // younger bound load that already issued to an aliasing word.
            if bound && class == InstClass::Store {
                if let Some(sa) = mem_addr {
                    let store_pc = b.sinst.pc;
                    let qword = sa & !7;
                    let first = self.loads.partition_point(|l| l.h.fid < fid);
                    let hit = self.loads.range(first..).find_map(|l| {
                        if !l.bound || l.qword != qword {
                            return None;
                        }
                        let j = self.rob.index_of(l.h)?;
                        (self.rob[j].state != ExecState::Waiting).then_some(j)
                    });
                    if let Some(j) = hit {
                        let l = &self.rob[j].b;
                        let f = PendingFlush {
                            cause: FlushCause::RawHazard,
                            boundary_fid: l.fid - 1,
                            restart_pc: l.sinst.pc,
                            // invariant: only bound loads match above.
                            cursor_target: l.seq.expect("bound"),
                            apply_at: now + u64::from(self.cfg.redirect_latency),
                            raw_pair: Some((l.sinst.pc, store_pc)),
                        };
                        raw_flushes.push(((done, fid), f));
                    }
                }
            }

            // Wake dependents. The list is taken out for the borrow and put
            // back drained, keeping its allocation for the slot's next use.
            let slot = self.rob.slot(pos);
            let mut deps = std::mem::take(&mut self.wakeup[slot]);
            for d in deps.drain(..) {
                let Some(j) = self.rob.index_of(d) else {
                    continue;
                };
                let e = &mut self.rob[j];
                if e.state == ExecState::Waiting {
                    e.deps_left = e.deps_left.saturating_sub(1);
                    if e.deps_left == 0 {
                        let ds = self.rob.slot(d.pos);
                        self.set_ready(ds);
                    }
                }
            }
            self.wakeup[slot] = deps;
        }
        self.exec_events.advance(now);

        // The first request wins among equal boundaries, so two stores that
        // alias one younger load train memdep with the older store's PC.
        mispredict_flushes.sort_unstable_by_key(|&(key, _)| key);
        raw_flushes.sort_unstable_by_key(|&(key, _)| key);
        for (_, f) in mispredict_flushes.drain(..).chain(raw_flushes.drain(..)) {
            self.request_flush(f);
        }
        self.raw_flush_scratch = raw_flushes;
        self.misp_flush_scratch = mispredict_flushes;
    }

    fn request_flush(&mut self, f: PendingFlush) {
        match self.pending {
            Some(p) if p.boundary_fid <= f.boundary_fid => {}
            _ => self.pending = Some(f),
        }
    }

    /// Forces a full-pipeline resync flush (simulator watchdog): squashes
    /// *everything* in flight. The returned `cursor_target` is the oldest
    /// squashed bound sequence number (`SeqNum::MAX` if none was bound);
    /// the caller clamps its path cursor with it and picks the restart PC
    /// from the oracle.
    pub fn force_watchdog_flush(&mut self, now: Cycle) -> AppliedFlush {
        self.pending = Some(PendingFlush {
            cause: FlushCause::Watchdog,
            boundary_fid: 0,
            restart_pc: 0,
            cursor_target: SeqNum::MAX,
            apply_at: now,
            raw_pair: None,
        });
        // invariant: the pending flush installed above has apply_at ==
        // now, so apply_flush always returns Some here.
        self.apply_flush(now)
            .expect("watchdog flush applies immediately")
    }

    /// Takes back an applied flush's replay lists once the caller is done
    /// with them, so the next flush fills them instead of allocating.
    pub fn recycle_flush(&mut self, flush: AppliedFlush) {
        let AppliedFlush {
            mut hist_replay,
            mut ras_replay,
            ..
        } = flush;
        hist_replay.clear();
        ras_replay.clear();
        self.spare_hist_replay = hist_replay;
        self.spare_ras_replay = ras_replay;
    }

    fn apply_flush(&mut self, now: Cycle) -> Option<AppliedFlush> {
        let p = self.pending?;
        if p.apply_at > now {
            return None;
        }
        self.pending = None;
        match p.cause {
            FlushCause::Mispredict => self.stats.mispredict_flushes += 1,
            FlushCause::RawHazard => self.stats.raw_flushes += 1,
            FlushCause::Watchdog => self.stats.watchdog_flushes += 1,
        }
        if let Some((lpc, spc)) = p.raw_pair {
            self.memdep.train(lpc, spc);
        }
        // Squash younger than the boundary, remembering the smallest bound
        // sequence number squashed — the restart cursor may never skip a
        // bound instruction (it would punch a hole in the retired stream).
        let sq = self.squash_younger(p.boundary_fid, true);
        let cursor_target = match sq.min_seq {
            Some(seq) => p.cursor_target.min(seq),
            None => p.cursor_target,
        };
        Some(AppliedFlush {
            cause: p.cause,
            boundary_fid: p.boundary_fid,
            restart_pc: p.restart_pc,
            cursor_target,
            hist_replay: sq.hist_replay,
            ras_replay: sq.ras_replay,
            squashed: sq.count,
        })
    }

    fn commit(&mut self, mem: &mut MemorySystem, now: Cycle, retired: &mut Vec<RetiredInst>) {
        for _ in 0..self.cfg.commit_width {
            let Some(head) = self.rob.front() else { break };
            if head.state != ExecState::Done || !head.b.is_bound() {
                break;
            }
            // Never retire past a pending flush boundary: the instructions
            // beyond it are architecturally dead (e.g. a load that violated
            // memory ordering must squash, not commit).
            if self.pending.is_some_and(|p| head.b.fid > p.boundary_fid) {
                break;
            }
            // invariant: the let-else binding proves the ROB is non-empty.
            let (e, slot) = self.rob.pop_front().expect("checked above");
            self.release_entry(&e, slot);
            match e.b.sinst.class {
                InstClass::Load => {
                    self.loads.pop_front();
                }
                InstClass::Store => {
                    self.stores.pop_front();
                    if let Some(a) = e.b.mem_addr {
                        mem.store(a, now);
                    }
                }
                _ => {}
            }
            self.stats.retired += 1;
            retired.push(RetiredInst { b: e.b });
        }
    }

    fn update_watchdog(&mut self, now: Cycle) {
        match self.rob.front() {
            Some(h) if !h.b.is_bound() => {
                if self.head_stuck_since.is_none() {
                    self.head_stuck_since = Some(now);
                }
            }
            _ => self.head_stuck_since = None,
        }
    }

    /// Conservative idle analysis for the simulator's idle-cycle skipper.
    ///
    /// Returns `Some(t)` when ticking the back-end at any cycle in
    /// `[now, t)` provably changes no state and no statistic *except* the
    /// dispatch-blocked `rob_full_cycles` counter, which
    /// [`Backend::charge_idle_cycles`] applies in bulk for the skipped
    /// span. Returns `None` whenever the back-end may act at `now` — the
    /// caller then falls back to a normal tick. Stopping earlier than
    /// strictly necessary is always safe; claiming idleness that is not
    /// real would desynchronize the statistics, so every condition below
    /// errs toward `None`.
    #[must_use]
    pub fn quiescent_until(&self, now: Cycle) -> Option<Cycle> {
        let mut until = Cycle::MAX;
        // Issue: anything ready would execute this cycle.
        if self.ready.iter().any(|&w| w != 0) {
            return None;
        }
        // Complete: next completion event (stale events count — popping
        // them mutates the event set, so the reference walk must do it at
        // the same cycle).
        if let Some(done) = self.exec_events.next_done() {
            if done <= now {
                return None;
            }
            until = until.min(done);
        }
        // Redirect in flight.
        if let Some(p) = self.pending {
            if p.apply_at <= now {
                return None;
            }
            until = until.min(p.apply_at);
        }
        // Dispatch: the front either renames this cycle (active), waits for
        // its rename latency (future event), or is blocked on a full
        // resource — a state only another event can clear. Being blocked on
        // a full ROB charges `rob_full_cycles` each cycle; that is the one
        // statistic charge_idle_cycles replays.
        if let Some(&(b, ready)) = self.dispatch_q.front() {
            if ready > now {
                until = until.min(ready);
            } else if self.rob.len < self.cfg.rob_entries
                && self.iq_used < self.cfg.iq_entries
                && !(b.sinst.class.is_mem() && self.lsq_used() >= self.cfg.lsq_entries)
                && !(b.sinst.dst.is_some() && self.prf_used >= self.cfg.prf_entries)
            {
                return None;
            }
        }
        // Commit / watchdog.
        match self.rob.front() {
            Some(head) if head.b.is_bound() => {
                if head.state == ExecState::Done
                    && self.pending.is_none_or(|p| head.b.fid <= p.boundary_fid)
                {
                    return None;
                }
                // A stale watchdog timestamp must be cleared by a real tick
                // before skipping is sound again.
                if self.head_stuck_since.is_some() {
                    return None;
                }
            }
            Some(_) => match self.head_stuck_since {
                // Wrong-path head not yet observed by update_watchdog.
                None => return None,
                Some(since) => {
                    // The simulator forces a resync the first cycle
                    // `now - since` exceeds the watchdog budget.
                    let trip = since
                        .saturating_add(u64::from(self.cfg.watchdog_cycles))
                        .saturating_add(1);
                    if trip <= now {
                        return None;
                    }
                    until = until.min(trip);
                }
            },
            None => {
                if self.head_stuck_since.is_some() {
                    return None;
                }
            }
        }
        (until > now).then_some(until)
    }

    /// Replays the statistics a cycle-by-cycle walk would have charged
    /// over `n` skipped idle cycles starting at `now` (see
    /// [`Backend::quiescent_until`]): currently only the dispatch-blocked
    /// ROB-full counter.
    pub fn charge_idle_cycles(&mut self, n: u64, now: Cycle) {
        if let Some(&(_, ready)) = self.dispatch_q.front() {
            if ready <= now && self.rob.len >= self.cfg.rob_entries {
                self.stats.rob_full_cycles += n;
            }
        }
    }

    /// ROB occupancy (for statistics/tests).
    #[must_use]
    pub fn rob_len(&self) -> usize {
        self.rob.len
    }

    /// Saves or restores the complete back-end state: ROB, dispatch queue,
    /// completion events, memory-dependence table, pending flush,
    /// statistics and the watchdog timer.
    ///
    /// The ROB is the only scheduler state written: positions, the rename
    /// map, wakeup lists, ready set, load/store queues and the
    /// register-file and issue-queue counts are rebuilt on load by
    /// replaying dispatch's rename step over the ROB oldest-first. The
    /// completion events are written sorted by `(done, fid)`, stale ones
    /// of squashed instructions included (they bound idle skips). `now` is
    /// the first cycle not yet simulated; loading starts the completion
    /// calendar there. The configuration is not written: loading requires
    /// a back-end built from the same config.
    ///
    /// # Errors
    ///
    /// Loading fails on truncated bytes or on a state the live back-end
    /// can never reach: an ROB that does not fit this configuration or
    /// whose fids are not strictly increasing, an entry whose producer
    /// count differs from the one its producers in the ROB imply, or a
    /// completion event done before `now`.
    pub fn state(&mut self, io: &mut impl elf_types::StateIo, now: Cycle) -> Result<(), SnapError> {
        io.bounded(&mut self.rob, self.cfg.rob_entries, "ROB")?;
        io.value(&mut self.dispatch_q)?;
        let mut events: Vec<(Cycle, u64)> = Vec::new();
        if !io.loading() {
            events.extend(self.exec_events.iter().map(|ev| (ev.done, ev.fid)));
            events.sort_unstable();
        }
        io.value(&mut events)?;
        self.memdep.state(io)?;
        io.value(&mut self.pending)?;
        io.value(&mut self.stats)?;
        io.value(&mut self.head_stuck_since)?;
        if io.loading() {
            self.rebuild_scheduler(&events, now)?;
        }
        Ok(())
    }

    /// Rebuilds the scheduler around a just-loaded ROB: renames its
    /// entries oldest-first as dispatch did, then schedules `events` in a
    /// calendar starting at `now`.
    fn rebuild_scheduler(&mut self, events: &[(Cycle, u64)], now: Cycle) -> Result<(), SnapError> {
        // Positions are not serialized: loading placed the ROB from
        // position 0.
        debug_assert_eq!(self.rob.front_pos, 0);
        self.reg_map = [None; 32];
        self.prf_used = 0;
        self.iq_used = 0;
        self.ready.fill(0);
        self.loads.clear();
        self.stores.clear();
        let mut prev_fid = None;
        for pos in 0..self.rob.len as u64 {
            let e = self.rob[self.rob.slot(pos)];
            if prev_fid.is_some_and(|f| f >= e.b.fid) {
                return Err(SnapError::mismatch("ROB fids are not strictly increasing"));
            }
            prev_fid = Some(e.b.fid);
            let wait_store = e
                .wait_store_fid
                .and_then(|fid| self.stores.iter().rev().find(|s| s.h.fid == fid))
                .map(|s| s.h);
            let deps_left = self.rename(pos, &e, wait_store);
            if deps_left != e.deps_left {
                return Err(SnapError::mismatch(format!(
                    "ROB fid {} waits for {} producers, its producers in the ROB are {deps_left}",
                    e.b.fid, e.deps_left
                )));
            }
        }
        self.exec_events = Calendar::new(now);
        for &(done, fid) in events {
            if done < now {
                return Err(SnapError::mismatch(format!(
                    "completion event of fid {fid} at cycle {done} precedes cycle {now}"
                )));
            }
            let pos = self.rob.position_of(fid).unwrap_or(GONE);
            self.exec_events.push(Event { done, fid, pos });
        }
        Ok(())
    }

    /// Completion events waiting in the calendar's overflow list.
    #[cfg(test)]
    pub(crate) fn overflow_events(&self) -> usize {
        self.exec_events.overflow.len()
    }

    /// Diagnostic dump of the oldest ROB entries.
    #[must_use]
    pub fn debug_head(&self) -> String {
        let mut s = String::new();
        for (pos, e) in self.rob.iter().take(4) {
            s.push_str(&format!(
                "[fid={} seq={:?} class={:?} state={:?} deps={} ws={:?} ready_in_set={}] ",
                e.b.fid,
                e.b.seq,
                e.b.sinst.class,
                e.state,
                e.deps_left,
                e.wait_store_fid,
                self.is_ready(self.rob.slot(pos)),
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elf_mem::MemorySystem;
    use elf_types::inst::NO_REG;
    use elf_types::BranchKind;

    fn cfg() -> BackendConfig {
        BackendConfig::paper()
    }

    fn alu(fid: u64, pc: Addr, dst: Option<u8>, srcs: [u8; 2]) -> BoundInst {
        let mut s = StaticInst::simple(pc, InstClass::Alu);
        s.dst = dst;
        s.srcs = srcs;
        BoundInst {
            fid,
            sinst: s,
            seq: Some(fid),
            mode: FetchMode::Decoupled,
            pred: None,
            taken: false,
            next_pc: pc + 4,
            mem_addr: None,
            mispredicted: false,
        }
    }

    /// The `i`-th oldest ROB entry.
    fn at(be: &Backend, i: usize) -> &RobEntry {
        &be.rob[be.rob.slot(be.rob.front_pos + i as u64)]
    }

    fn run_until_empty(be: &mut Backend, mem: &mut MemorySystem) -> (u64, Vec<RetiredInst>) {
        let mut all = Vec::new();
        let mut retired = Vec::new();
        let mut cycle = 0;
        while !be.is_empty() {
            be.tick_into(mem, cycle, &mut retired);
            all.append(&mut retired);
            cycle += 1;
            assert!(cycle < 10_000, "backend wedged");
        }
        (cycle, all)
    }

    /// Ticks `be` once per cycle of `cycles`, discarding retirements, and
    /// stops after the first cycle that applies a flush (returned).
    fn run_cycles(
        be: &mut Backend,
        mem: &mut MemorySystem,
        cycles: impl IntoIterator<Item = Cycle>,
    ) -> Option<AppliedFlush> {
        let mut retired = Vec::new();
        cycles
            .into_iter()
            .find_map(|c| be.tick_into(mem, c, &mut retired))
    }

    #[test]
    fn independent_alus_retire_at_full_width() {
        let mut be = Backend::new(cfg());
        let mut mem = MemorySystem::paper();
        for i in 0..64 {
            be.accept(
                alu(
                    i + 1,
                    0x1000 + i * 4,
                    Some((i % 28) as u8),
                    [NO_REG, NO_REG],
                ),
                0,
            );
        }
        let (cycles, retired) = run_until_empty(&mut be, &mut mem);
        assert_eq!(retired.len(), 64);
        // 4 ALU ports bound throughput: 64/4 = 16 cycles + pipeline fill.
        assert!(cycles <= 16 + 10, "took {cycles} cycles");
        assert!(cycles >= 16);
    }

    #[test]
    fn dependence_chain_serializes() {
        let mut be = Backend::new(cfg());
        let mut mem = MemorySystem::paper();
        // r1 = r1 + ... chain of 32.
        for i in 0..32 {
            be.accept(alu(i + 1, 0x2000 + i * 4, Some(1), [1, NO_REG]), 0);
        }
        let (cycles, retired) = run_until_empty(&mut be, &mut mem);
        assert_eq!(retired.len(), 32);
        assert!(
            cycles >= 32,
            "a chain must take >= 1 cycle per link, took {cycles}"
        );
    }

    #[test]
    fn retirement_is_in_program_order() {
        let mut be = Backend::new(cfg());
        let mut mem = MemorySystem::paper();
        let mut insts = Vec::new();
        // A slow divide followed by fast ALUs: ALUs finish first but retire
        // after.
        let mut div = alu(1, 0x3000, Some(2), [NO_REG, NO_REG]);
        div.sinst.class = InstClass::Div;
        insts.push(div);
        for i in 1..10 {
            insts.push(alu(1 + i, 0x3000 + i * 4, Some(3), [NO_REG, NO_REG]));
        }
        for b in insts {
            be.accept(b, 0);
        }
        let (_, retired) = run_until_empty(&mut be, &mut mem);
        assert_eq!(retired.len(), 10);
        assert!(
            retired.windows(2).all(|w| w[0].b.fid < w[1].b.fid),
            "commit must be in program order"
        );
    }

    #[test]
    fn mispredicted_branch_flushes_younger() {
        let mut be = Backend::new(cfg());
        let mut mem = MemorySystem::paper();
        let mut br = alu(1, 0x4000, None, [NO_REG, NO_REG]);
        br.sinst.class = InstClass::Branch(BranchKind::CondDirect);
        br.mispredicted = true;
        br.taken = true;
        br.next_pc = 0x9000;
        br.pred = Some(Prediction::not_taken());
        be.accept(br, 0);
        for i in 0..8 {
            let mut w = alu(2 + i, 0x4004 + i * 4, None, [NO_REG, NO_REG]);
            w.seq = None; // wrong path
            be.accept(w, 0);
        }
        let flush = run_cycles(&mut be, &mut mem, 0..50);
        let f = flush.expect("mispredict must flush");
        assert_eq!(f.cause, FlushCause::Mispredict);
        assert_eq!(f.boundary_fid, 1);
        assert_eq!(f.restart_pc, 0x9000);
        assert_eq!(f.cursor_target, 2);
        // The branch itself may have retired while the redirect was in
        // flight; everything younger must be gone.
        assert!(be.rob_len() <= 1, "only the branch may survive");
        assert!(be.stats().squashed >= 8);
    }

    #[test]
    fn raw_hazard_flushes_at_the_load_and_trains_memdep() {
        let mut be = Backend::new(cfg());
        let mut mem = MemorySystem::paper();
        // A store whose address depends on a slow divide, then a load to
        // the same address that issues immediately.
        let mut div = alu(1, 0x5000, Some(5), [NO_REG, NO_REG]);
        div.sinst.class = InstClass::Div;
        be.accept(div, 0);
        let mut st = alu(2, 0x5004, None, [5, NO_REG]);
        st.sinst.class = InstClass::Store;
        st.mem_addr = Some(0x9_0000);
        be.accept(st, 0);
        let mut ld = alu(3, 0x5008, Some(6), [NO_REG, NO_REG]);
        ld.sinst.class = InstClass::Load;
        ld.mem_addr = Some(0x9_0000);
        be.accept(ld, 0);

        let flush = run_cycles(&mut be, &mut mem, 0..100);
        let f = flush.expect("RAW hazard must flush");
        assert_eq!(f.cause, FlushCause::RawHazard);
        assert_eq!(f.restart_pc, 0x5008, "restart at the load");
        assert_eq!(f.cursor_target, 3);
        assert_eq!(be.memdep_stats().0, 1, "violating pair recorded");
    }

    #[test]
    fn memdep_prediction_prevents_second_violation() {
        let mut be = Backend::new(cfg());
        let mut mem = MemorySystem::paper();
        // Pre-train the pair.
        be.memdep.train(0x6008, 0x6004);
        let mut div = alu(1, 0x6000, Some(5), [NO_REG, NO_REG]);
        div.sinst.class = InstClass::Div;
        be.accept(div, 0);
        let mut st = alu(2, 0x6004, None, [5, NO_REG]);
        st.sinst.class = InstClass::Store;
        st.mem_addr = Some(0xa_0000);
        be.accept(st, 0);
        let mut ld = alu(3, 0x6008, Some(6), [NO_REG, NO_REG]);
        ld.sinst.class = InstClass::Load;
        ld.mem_addr = Some(0xa_0000);
        be.accept(ld, 0);

        let mut retired = Vec::new();
        for c in 0..200 {
            let f = be.tick_into(&mut mem, c, &mut retired);
            assert!(
                f.is_none(),
                "predicted dependence must prevent the violation"
            );
            if be.is_empty() {
                break;
            }
        }
        assert!(be.is_empty());
        assert!(
            be.stats().forwards >= 1,
            "the load should forward from the store"
        );
    }

    #[test]
    fn store_to_load_forwarding_is_fast() {
        let mut be = Backend::new(cfg());
        let mut mem = MemorySystem::paper();
        let mut st = alu(1, 0x7000, None, [NO_REG, NO_REG]);
        st.sinst.class = InstClass::Store;
        st.mem_addr = Some(0xb_0000);
        be.accept(st, 0);
        let mut ld = alu(2, 0x7004, Some(6), [NO_REG, NO_REG]);
        ld.sinst.class = InstClass::Load;
        ld.mem_addr = Some(0xb_0000);
        // Make the load wait for the store so issue order is store-first.
        be.memdep.train(0x7004, 0x7000);
        be.accept(ld, 0);
        let (cycles, _) = run_until_empty(&mut be, &mut mem);
        assert!(be.stats().forwards >= 1);
        assert!(
            cycles < 20,
            "forwarded load must not pay DRAM: {cycles} cycles"
        );
    }

    #[test]
    fn wrong_path_instructions_never_commit() {
        let mut be = Backend::new(cfg());
        let mut mem = MemorySystem::paper();
        let mut w = alu(1, 0x8000, None, [NO_REG, NO_REG]);
        w.seq = None;
        be.accept(w, 0);
        let mut retired = Vec::new();
        for c in 0..50 {
            be.tick_into(&mut mem, c, &mut retired);
            assert!(retired.is_empty());
        }
        assert!(
            be.watchdog_tripped(300),
            "stuck wrong-path head must trip the watchdog"
        );
        let f = be.force_watchdog_flush(300);
        assert_eq!(f.cause, FlushCause::Watchdog);
        assert_eq!(f.cursor_target, u64::MAX, "nothing bound was squashed");
        assert_eq!(be.rob_len(), 0);
    }

    #[test]
    fn ldst_ports_bound_memory_issue_rate() {
        let mut be = Backend::new(cfg());
        let mut mem = MemorySystem::paper();
        // Warm one line so loads are uniform 3-cycle L1D hits.
        mem.load(0x1, 0xc_0000, 0);
        for i in 0..40 {
            let mut ld = alu(
                1 + i,
                0xa000 + i * 4,
                Some((i % 20) as u8),
                [NO_REG, NO_REG],
            );
            ld.sinst.class = InstClass::Load;
            ld.mem_addr = Some(0xc_0000);
            be.accept(ld, 0);
        }
        let (cycles, retired) = run_until_empty(&mut be, &mut mem);
        assert_eq!(retired.len(), 40);
        // 2 LD/ST ports => at least 20 issue cycles.
        assert!(
            cycles >= 20,
            "2 AGU ports must bound 40 loads: {cycles} cycles"
        );
    }

    #[test]
    fn prf_exhaustion_stalls_dispatch() {
        let small = BackendConfig {
            prf_entries: 4,
            ..cfg()
        };
        let mut be = Backend::new(small);
        let mut mem = MemorySystem::paper();
        // A long divide holds its register; writers pile up behind the
        // 4-entry PRF.
        let mut div = alu(1, 0xb000, Some(1), [NO_REG, NO_REG]);
        div.sinst.class = InstClass::Div;
        be.accept(div, 0);
        for i in 0..12 {
            be.accept(
                alu(2 + i, 0xb004 + i * 4, Some((2 + i % 20) as u8), [1, NO_REG]),
                0,
            );
        }
        run_cycles(&mut be, &mut mem, 0..4);
        assert!(
            be.rob_len() <= 4,
            "at most PRF-many writers may be in flight: {}",
            be.rob_len()
        );
        let (_, retired) = run_until_empty(&mut be, &mut mem);
        assert_eq!(retired.len(), 13, "everything still completes eventually");
    }

    #[test]
    fn commit_width_bounds_retirement_rate() {
        let mut be = Backend::new(cfg());
        let mut mem = MemorySystem::paper();
        for i in 0..64 {
            be.accept(alu(1 + i, 0xc000 + i * 4, None, [NO_REG, NO_REG]), 0);
        }
        let mut max_per_cycle = 0;
        let mut cycle = 0;
        let mut retired = Vec::new();
        while !be.is_empty() {
            be.tick_into(&mut mem, cycle, &mut retired);
            max_per_cycle = max_per_cycle.max(retired.len());
            cycle += 1;
            assert!(cycle < 1000);
        }
        assert!(
            max_per_cycle <= 9,
            "Table II commit width is 9: saw {max_per_cycle}"
        );
        assert!(max_per_cycle >= 4, "wide commit must actually happen");
    }

    #[test]
    fn divergence_squash_reports_oldest_bound_seq() {
        let mut be = Backend::new(cfg());
        let mut mem = MemorySystem::paper();
        for i in 0..6 {
            be.accept(alu(1 + i, 0xd000 + i * 4, None, [NO_REG, NO_REG]), 0);
        }
        run_cycles(&mut be, &mut mem, 0..3);
        // Squash everything younger than fid 3: fids 4..6 are bound with
        // seqs 4..6 (the helper binds seq = fid), so the oldest squashed
        // bound sequence is 4.
        let min_seq = be.squash_after_returning_seq(3);
        assert_eq!(min_seq, Some(4));
        // Nothing younger remains.
        assert!(be.rob_len() <= 3);
        // Squashing again with the same boundary is a no-op.
        assert_eq!(be.squash_after_returning_seq(3), None);
    }

    #[test]
    fn rob_capacity_blocks_dispatch() {
        let small = BackendConfig {
            rob_entries: 8,
            ..cfg()
        };
        let mut be = Backend::new(small);
        let mut mem = MemorySystem::paper();
        // A long divide at the head keeps the ROB full.
        let mut div = alu(1, 0x9000, Some(1), [NO_REG, NO_REG]);
        div.sinst.class = InstClass::Div;
        be.accept(div, 0);
        for i in 0..20 {
            be.accept(alu(2 + i, 0x9004 + i * 4, None, [1, NO_REG]), 0);
        }
        run_cycles(&mut be, &mut mem, 0..4);
        assert!(be.rob_len() <= 8);
        assert!(be.stats().rob_full_cycles > 0);
    }

    fn op(fid: u64, pc: Addr, class: InstClass, dst: Option<u8>, srcs: [u8; 2]) -> BoundInst {
        let mut b = alu(fid, pc, dst, srcs);
        b.sinst.class = class;
        b
    }

    fn mem_op(fid: u64, pc: Addr, class: InstClass, srcs: [u8; 2], addr: Addr) -> BoundInst {
        let dst = (class == InstClass::Load).then_some(20);
        let mut b = op(fid, pc, class, dst, srcs);
        b.mem_addr = Some(addr);
        b
    }

    #[test]
    fn surviving_producer_never_wakes_a_squashed_dependent_whose_slot_was_reused() {
        let mut be = Backend::new(cfg());
        let mut mem = MemorySystem::paper();
        // fid 1: a divide producing r5. fid 2: a cold load producing r6
        // (hundreds of cycles). fid 3 waits on the divide.
        be.accept(op(1, 0xf000, InstClass::Div, Some(5), [NO_REG, NO_REG]), 0);
        be.accept(
            mem_op(2, 0xf004, InstClass::Load, [NO_REG, NO_REG], 0x40_0000),
            0,
        );
        be.accept(alu(3, 0xf008, None, [5, NO_REG]), 0);
        run_cycles(&mut be, &mut mem, 0..=3);
        assert_eq!(be.rob_len(), 3);
        // Squash fid 3; fid 4, waiting on the load, takes its position.
        assert_eq!(be.squash_after_returning_seq(2), Some(3));
        be.accept(alu(4, 0xf00c, None, [20, NO_REG]), 3);
        run_cycles(&mut be, &mut mem, 4..30);
        assert_eq!(at(&be, 0).b.fid, 2, "the divide completed and retired");
        let e = at(&be, 1);
        assert_eq!(e.b.fid, 4);
        assert_eq!(
            (e.state, e.deps_left),
            (ExecState::Waiting, 1),
            "the divide's completion must not wake the slot's new occupant"
        );
        assert!(!be.is_ready(be.rob.slot(be.rob.front_pos + 1)));
        let (_, retired) = run_until_empty(&mut be, &mut mem);
        assert_eq!(retired.len(), 2, "the load and fid 4");
    }

    #[test]
    fn a_younger_issued_store_never_forwards() {
        let mut be = Backend::new(cfg());
        let mut mem = MemorySystem::paper();
        // The load's address waits on a divide, so the younger store to the
        // same word issues first.
        be.accept(
            op(1, 0x1_0000, InstClass::Div, Some(5), [NO_REG, NO_REG]),
            0,
        );
        be.accept(
            mem_op(2, 0x1_0004, InstClass::Load, [5, NO_REG], 0xd_0000),
            0,
        );
        be.accept(
            mem_op(3, 0x1_0008, InstClass::Store, [NO_REG, NO_REG], 0xd_0004),
            0,
        );
        run_cycles(&mut be, &mut mem, 0..6);
        assert!(at(&be, 2).state != ExecState::Waiting && at(&be, 1).state == ExecState::Waiting);
        let (cycles, retired) = run_until_empty(&mut be, &mut mem);
        assert_eq!(retired.len(), 3);
        assert_eq!(
            be.stats().forwards,
            0,
            "forwarding is from older stores only"
        );
        assert!(
            cycles > 50,
            "the load must pay the cold miss: {cycles} cycles"
        );
    }

    #[test]
    fn same_cycle_aliasing_stores_train_memdep_with_the_older_store() {
        let mut be = Backend::new(cfg());
        let mut mem = MemorySystem::paper();
        // Two stores to one word wait on a divide, so they issue together
        // and complete in the same cycle; the younger load to that word
        // issues first.
        be.accept(
            op(1, 0x1_3000, InstClass::Div, Some(5), [NO_REG, NO_REG]),
            0,
        );
        be.accept(
            mem_op(2, 0x1_3004, InstClass::Store, [5, NO_REG], 0x11_0000),
            0,
        );
        be.accept(
            mem_op(3, 0x1_3008, InstClass::Store, [5, NO_REG], 0x11_0000),
            0,
        );
        be.accept(
            mem_op(4, 0x1_300c, InstClass::Load, [NO_REG, NO_REG], 0x11_0000),
            0,
        );
        let mut store_done = Vec::new();
        let mut retired = Vec::new();
        let mut flush = None;
        for c in 0..100 {
            flush = be.tick_into(&mut mem, c, &mut retired);
            for (_, e) in be.rob.iter() {
                if let (InstClass::Store, ExecState::Executing { done }) =
                    (e.b.sinst.class, e.state)
                {
                    store_done.push(done);
                }
            }
            if flush.is_some() {
                break;
            }
        }
        store_done.dedup();
        assert_eq!(store_done.len(), 1, "the stores complete in one cycle");
        let f = flush.expect("the load must raise a RAW flush");
        assert_eq!((f.cause, f.boundary_fid), (FlushCause::RawHazard, 3));
        assert_eq!(
            be.memdep.predicted_store(0x1_300c),
            Some(0x1_3004),
            "memdep learns the older store's PC"
        );
    }

    #[test]
    fn a_stale_completion_event_bounds_quiescence() {
        let mut be = Backend::new(cfg());
        let mut mem = MemorySystem::paper();
        be.accept(
            op(1, 0x1_4000, InstClass::Div, Some(5), [NO_REG, NO_REG]),
            0,
        );
        let mut retired = Vec::new();
        let mut now = 0;
        let done = loop {
            be.tick_into(&mut mem, now, &mut retired);
            if let Some((_, e)) = be.rob.iter().next() {
                if let ExecState::Executing { done } = e.state {
                    break done;
                }
            }
            now += 1;
            assert!(now < 20, "the divide never issued");
        };
        // Squash the divide: its event stays in the calendar until `done`.
        assert_eq!(be.squash_after_returning_seq(0), Some(1));
        assert!(be.is_empty());
        assert_eq!(be.quiescent_until(now), Some(done));
        be.tick_into(&mut mem, done, &mut retired);
        assert_eq!(be.quiescent_until(done), Some(Cycle::MAX));
    }

    #[test]
    fn raw_detection_ignores_wrong_path_aliasing_loads() {
        let mut be = Backend::new(cfg());
        let mut mem = MemorySystem::paper();
        // A slow store, then a wrong-path and a bound load to its word that
        // both execute before it.
        be.accept(
            op(1, 0x1_1000, InstClass::Div, Some(5), [NO_REG, NO_REG]),
            0,
        );
        be.accept(
            mem_op(2, 0x1_1004, InstClass::Store, [5, NO_REG], 0xe_0000),
            0,
        );
        let mut wrong = mem_op(3, 0x1_1008, InstClass::Load, [NO_REG, NO_REG], 0xe_0000);
        wrong.seq = None;
        be.accept(wrong, 0);
        be.accept(
            mem_op(4, 0x1_100c, InstClass::Load, [NO_REG, NO_REG], 0xe_0000),
            0,
        );
        let flush = run_cycles(&mut be, &mut mem, 0..100);
        let f = flush.expect("the bound load must raise a RAW flush");
        assert_eq!(f.cause, FlushCause::RawHazard);
        assert_eq!(
            f.boundary_fid, 3,
            "restart at the bound load, not the wrong-path one"
        );
        assert_eq!(f.restart_pc, 0x1_100c);
        assert_eq!(f.cursor_target, 4);
    }

    #[test]
    fn memdep_waits_on_the_youngest_older_matching_store() {
        let mut be = Backend::new(cfg());
        let mut mem = MemorySystem::paper();
        be.memdep.train(0x1_200c, 0x1_2000);
        // Two stores with the predicted PC (held back by a divide), a
        // younger store with another PC, then the predicted load.
        be.accept(
            op(1, 0x1_1ffc, InstClass::Div, Some(5), [NO_REG, NO_REG]),
            0,
        );
        be.accept(
            mem_op(2, 0x1_2000, InstClass::Store, [5, NO_REG], 0xf_0000),
            0,
        );
        be.accept(
            mem_op(3, 0x1_2000, InstClass::Store, [5, NO_REG], 0xf_0008),
            0,
        );
        be.accept(
            mem_op(4, 0x1_2004, InstClass::Store, [5, NO_REG], 0xf_0010),
            0,
        );
        be.accept(
            mem_op(5, 0x1_200c, InstClass::Load, [NO_REG, NO_REG], 0xf_0018),
            0,
        );
        run_cycles(&mut be, &mut mem, 0..=2);
        let ld = at(&be, 4);
        assert_eq!(ld.b.fid, 5);
        assert_eq!(ld.wait_store_fid, Some(3));
        assert_eq!(ld.deps_left, 1, "the load waits for that store");
        let (_, retired) = run_until_empty(&mut be, &mut mem);
        assert_eq!(retired.len(), 5);
    }

    #[test]
    fn issue_walks_oldest_first_across_the_ring_wrap() {
        // 100 entries on a 128-slot ring: ring size and capacity differ.
        let small = BackendConfig {
            rob_entries: 100,
            ..cfg()
        };
        let mut be = Backend::new(small);
        let mut mem = MemorySystem::paper();
        let mut cycle = 0;
        let drain = |be: &mut Backend, mem: &mut MemorySystem, cycle: &mut u64, check: bool| {
            let mut wrapped_choice = false;
            while !be.is_empty() {
                let head = be.rob.slot(be.rob.front_pos);
                let (mut above, mut below) = (false, false);
                for (pos, _) in be.rob.iter() {
                    let slot = be.rob.slot(pos);
                    if be.is_ready(slot) {
                        *(if slot >= head { &mut above } else { &mut below }) = true;
                    }
                }
                wrapped_choice |= above && below;
                run_cycles(be, mem, [*cycle]);
                *cycle += 1;
                assert!(*cycle < 10_000, "backend wedged");
                if check {
                    // Independent ALUs issue in program order: the issued
                    // entries always form a prefix of the ROB.
                    let issued: Vec<bool> = be
                        .rob
                        .iter()
                        .map(|(_, e)| e.state != ExecState::Waiting)
                        .collect();
                    assert!(
                        issued.windows(2).all(|w| w[0] || !w[1]),
                        "younger entry issued before an older one: {issued:?}"
                    );
                }
            }
            wrapped_choice
        };
        for i in 0..120 {
            be.accept(alu(1 + i, 0x2_0000 + i * 4, None, [NO_REG, NO_REG]), 0);
        }
        drain(&mut be, &mut mem, &mut cycle, false);
        assert_eq!(be.rob.slot(be.rob.front_pos), 120);
        for i in 0..40 {
            be.accept(
                alu(121 + i, 0x3_0000 + i * 4, None, [NO_REG, NO_REG]),
                cycle,
            );
        }
        assert!(
            drain(&mut be, &mut mem, &mut cycle, true),
            "ready entries never straddled the wrap; the test is vacuous"
        );
    }

    /// Saves `be` and `mem` and loads them into fresh copies, `now` being
    /// the first cycle not yet simulated.
    fn reload(be: &mut Backend, mem: &mut MemorySystem, now: Cycle) -> (Backend, MemorySystem) {
        let mut w = SnapWriter::new();
        be.state(&mut w, now).expect("saving cannot fail");
        mem.state(&mut w).expect("saving cannot fail");
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut be2 = Backend::new(be.cfg.clone());
        let mut mem2 = MemorySystem::paper();
        be2.state(&mut r, now).expect("snapshot loads");
        mem2.state(&mut r).expect("snapshot loads");
        assert_eq!(r.remaining(), 0);
        (be2, mem2)
    }

    #[test]
    fn a_reloaded_backend_runs_in_lockstep_with_the_original() {
        let (spc, lpc) = (0x1_5010, 0x1_5014);
        let mut be = Backend::new(cfg());
        let mut mem = MemorySystem::paper();
        be.memdep.train(lpc, spc);
        // fid 2 misses to DRAM; fid 3 reads its register twice and fid 4
        // depends on fid 3. The load fid 6 waits for the store fid 5, which
        // waits for the divide fid 1. The divide fid 7 issues and is
        // squashed with its dependent fid 8, leaving its completion event
        // stale.
        be.accept(
            op(1, 0x1_5000, InstClass::Div, Some(5), [NO_REG, NO_REG]),
            0,
        );
        be.accept(
            mem_op(2, 0x1_5004, InstClass::Load, [NO_REG, NO_REG], 0x40_0000),
            0,
        );
        be.accept(alu(3, 0x1_5008, Some(7), [20, 20]), 0);
        be.accept(alu(4, 0x1_500c, None, [7, NO_REG]), 0);
        be.accept(mem_op(5, spc, InstClass::Store, [5, NO_REG], 0x50_0000), 0);
        be.accept(
            mem_op(6, lpc, InstClass::Load, [NO_REG, NO_REG], 0x60_0000),
            0,
        );
        be.accept(
            op(7, 0x1_5018, InstClass::Div, Some(8), [NO_REG, NO_REG]),
            0,
        );
        be.accept(op(8, 0x1_501c, InstClass::Mul, Some(9), [8, NO_REG]), 0);
        run_cycles(&mut be, &mut mem, 0..5);
        assert_eq!(be.squash_after_returning_seq(6), Some(7));
        // fid 9 takes fid 7's position; fid 10 is independent and issues
        // right after the reload, before any saved event is due.
        be.accept(alu(9, 0x1_5018, Some(10), [20, 5]), 5);
        be.accept(alu(10, 0x1_501c, None, [NO_REG, NO_REG]), 8);
        run_cycles(&mut be, &mut mem, 5..10);
        let now = 10;

        let fid = |be: &Backend, fid: u64| be.rob[be.rob_index(fid).expect("in flight")];
        assert_eq!(fid(&be, 3).deps_left, 2, "fid 3 waits for the load twice");
        assert_eq!(
            (fid(&be, 4).state, fid(&be, 4).deps_left),
            (ExecState::Waiting, 1)
        );
        let ld = fid(&be, 6);
        assert_eq!((ld.wait_store_fid, ld.deps_left), (Some(5), 1));
        assert!(matches!(fid(&be, 2).state, ExecState::Executing { done } if done > now + 200));
        assert!(
            be.exec_events
                .iter()
                .any(|ev| be.rob.position_of(ev.fid).is_none()),
            "no stale completion event"
        );

        let (mut be2, mut mem2) = reload(&mut be, &mut mem, now);
        let (mut r1, mut r2) = (Vec::new(), Vec::new());
        let mut retired = 0;
        for c in now..now + 1_000 {
            let f1 = be.tick_into(&mut mem, c, &mut r1);
            let f2 = be2.tick_into(&mut mem2, c, &mut r2);
            assert_eq!(format!("{f1:?}"), format!("{f2:?}"), "flush at cycle {c}");
            let fids = |r: &[RetiredInst]| r.iter().map(|r| r.b.fid).collect::<Vec<_>>();
            assert_eq!(fids(&r1), fids(&r2), "retirements at cycle {c}");
            assert_eq!(be.quiescent_until(c + 1), be2.quiescent_until(c + 1));
            assert_eq!(be2.overflow_events(), 0, "cycle {c}");
            retired += r1.len();
            if be.is_empty() && be2.is_empty() {
                break;
            }
        }
        assert_eq!(retired, 8, "fids 1-6, 9 and 10 retire");
    }

    #[test]
    fn a_producer_count_the_rob_does_not_imply_is_rejected() {
        let mut be = Backend::new(cfg());
        let mut mem = MemorySystem::paper();
        be.accept(
            mem_op(1, 0x1_6000, InstClass::Load, [NO_REG, NO_REG], 0x40_0000),
            0,
        );
        be.accept(alu(2, 0x1_6004, None, [20, NO_REG]), 0);
        run_cycles(&mut be, &mut mem, 0..4);
        let (mut good, _) = reload(&mut be, &mut mem, 4);
        let slot = good.rob.slot(good.rob.front_pos + 1);
        assert_eq!(good.rob[slot].deps_left, 1);
        good.rob[slot].deps_left = 2;
        let mut w = SnapWriter::new();
        good.state(&mut w, 4).expect("saving cannot fail");
        let bytes = w.into_bytes();
        let err = Backend::new(cfg())
            .state(&mut SnapReader::new(&bytes), 4)
            .expect_err("the tampered count must not load");
        assert!(matches!(err, SnapError::Mismatch { .. }), "{err}");
    }
}
