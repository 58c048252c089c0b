//! The front-end proper: NoDCF / DCF / ELF pipelines.
//!
//! See the crate docs for the stage diagram. The [`Frontend`] is ticked once
//! per cycle by the simulator core; it fetches from the static program
//! image (including down wrong paths — the back-end resolves truth at
//! execute), delivers decoded instructions, and reacts to back-end flushes
//! through [`Frontend::flush`] and retirements through [`Frontend::retire`].
//!
//! There are two fetchers. The coupled fetcher probes the I-cache
//! sequentially from its own PC and leaves every control-flow decision to
//! Decode: NoDCF runs it always, with Decode consulting the main predictors,
//! and ELF runs it after a flush or misfetch, with Decode consulting the
//! variant's coupled predictors. The decoupled fetcher (DCF, and ELF in
//! steady state) takes its instructions from the FAQ. Both issue fetch
//! groups through one path: the group's L0I latency (one access per cache
//! line it touches) holds the fetch engine, and the group is queued for
//! Decode.

use crate::config::{CoupledCondKind, ElfVariant, FetchArch, FrontendConfig};
use crate::divergence::{Divergence, DivergenceTracker, TargetSlot};
use crate::faq::Faq;
use crate::stats::FrontendStats;
use crate::timing::{generation_bubbles, ExitClass};
use elf_btb::{BtbBranch, BtbBuilder, BtbEntry, BtbHierarchy, BtbStats};
use elf_mem::MemorySystem;
use elf_predictors::{Bimodal, BranchTargetCache, Ittage, Ras, Tage};
use elf_trace::Program;
use elf_types::{
    seq_pc, Addr, BranchKind, Cycle, FaqBranch, FaqEntry, FaqTermination, FetchMode, FetchedInst,
    PredSource, Prediction, INST_BYTES, MAX_BLOCK_INSTS,
};
use std::collections::VecDeque;

/// An instruction delivered to the back-end, tagged with a monotonically
/// increasing front-end id used for flush boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveredInst {
    /// Front-end id (monotonic over the whole run, never reused).
    pub fid: u64,
    /// The fetched/decoded record.
    pub inst: FetchedInst,
}

/// A divergence resolved in favor of the DCF (paper §IV-C2): the back-end
/// must squash everything younger than the named branch, and the branch's
/// *effective* prediction becomes the DCF's direction (the fetch stream now
/// follows it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DivergenceSquash {
    /// Squash every instruction with `fid` greater than this.
    pub boundary_fid: u64,
    /// The diverging branch's id.
    pub fid: u64,
    /// The DCF's direction for the branch.
    pub taken: bool,
    /// The DCF's target (resolved; `None` for a not-taken direction).
    pub target: Option<Addr>,
}

/// Result of one front-end cycle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TickOutput {
    /// Instructions decoded this cycle, in program order.
    pub delivered: Vec<DeliveredInst>,
    /// If set, a U-ELF divergence was resolved in favor of the DCF.
    pub squash: Option<DivergenceSquash>,
}

impl TickOutput {
    /// Empties the output for reuse, keeping the delivery buffer's
    /// allocation (the simulator hands the same instance back every tick).
    pub fn clear(&mut self) {
        self.delivered.clear();
        self.squash = None;
    }
}

/// Exhaustive per-cycle attribution of front-end time (the metrics layer's
/// fetch-bubble taxonomy). Exactly one cause is charged per simulated
/// cycle by [`FetchCycleProbe::classify`]; the variants are ordered by
/// classification priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchCycleCause {
    /// At least one instruction was delivered to the back-end.
    UsefulFetch,
    /// The back-end dispatch queue was full, so the front-end was not
    /// ticked at all.
    DispatchBackpressure,
    /// Recovering from a back-end flush: nothing delivered since the
    /// resteer (the paper's flush-recovery penalty, Fig. 6).
    FlushRecovery,
    /// Recovering from a Decode-driven resteer after a BTB-miss misfetch
    /// (the Decode→BP1 loop of §III-C).
    BtbMissResteer,
    /// Coupled mode is stalled on an unpredictable branch, waiting for the
    /// DCF to catch up (the resynchronization wait of §IV-B).
    ResyncWait,
    /// The fetch engine is busy on an I-cache (or TLB-modelled) access
    /// that has not completed yet.
    IcacheMissStall,
    /// Coupled-mode fetch is probing the I-cache but had nothing to
    /// deliver this cycle (pipeline latency of the coupled path).
    CoupledProbe,
    /// Decoupled fetch idled because the FAQ is empty (the DCF has not
    /// produced a block to fetch).
    FaqEmpty,
    /// None of the above: in-flight groups are still traversing the
    /// fetch/decode latency (pipeline fill).
    PipelineFill,
}

impl FetchCycleCause {
    /// Every cause, in classification-priority order.
    pub const ALL: [FetchCycleCause; 9] = [
        FetchCycleCause::UsefulFetch,
        FetchCycleCause::DispatchBackpressure,
        FetchCycleCause::FlushRecovery,
        FetchCycleCause::BtbMissResteer,
        FetchCycleCause::ResyncWait,
        FetchCycleCause::IcacheMissStall,
        FetchCycleCause::CoupledProbe,
        FetchCycleCause::FaqEmpty,
        FetchCycleCause::PipelineFill,
    ];

    /// Dense index into a per-cause accumulator array.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case key used in the `elfsim-metrics-v2` JSON report.
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            FetchCycleCause::UsefulFetch => "useful_fetch",
            FetchCycleCause::DispatchBackpressure => "dispatch_backpressure",
            FetchCycleCause::FlushRecovery => "flush_recovery",
            FetchCycleCause::BtbMissResteer => "btb_miss_resteer",
            FetchCycleCause::ResyncWait => "resync_wait",
            FetchCycleCause::IcacheMissStall => "icache_miss_stall",
            FetchCycleCause::CoupledProbe => "coupled_probe",
            FetchCycleCause::FaqEmpty => "faq_empty",
            FetchCycleCause::PipelineFill => "pipeline_fill",
        }
    }

    /// Human-readable label for the `--metrics` table.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FetchCycleCause::UsefulFetch => "useful fetch",
            FetchCycleCause::DispatchBackpressure => "dispatch backpressure",
            FetchCycleCause::FlushRecovery => "flush recovery",
            FetchCycleCause::BtbMissResteer => "BTB-miss resteer",
            FetchCycleCause::ResyncWait => "resync wait",
            FetchCycleCause::IcacheMissStall => "I-cache miss stall",
            FetchCycleCause::CoupledProbe => "coupled-mode probe",
            FetchCycleCause::FaqEmpty => "FAQ-empty bubble",
            FetchCycleCause::PipelineFill => "pipeline fill",
        }
    }
}

/// Pre-tick observation of the front-end state needed to attribute the
/// coming cycle to one [`FetchCycleCause`]. Captured by
/// [`Frontend::cycle_probe`] *before* the tick mutates anything. Every
/// field but `fetch_wait` is frozen across an idle-skipped region, and
/// `fetch_wait` flips at most once, where the fetch engine frees up: the
/// skipper charges the cycles on either side of that point with their own
/// probe, which is what makes bulk attribution of skipped cycles exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchCycleProbe {
    /// In coupled mode (always for NoDCF, never for plain DCF).
    pub coupled: bool,
    /// Coupled mode is stalled on an unpredictable branch (ELF resync).
    pub stalled: bool,
    /// The FAQ holds no blocks.
    pub faq_empty: bool,
    /// The fetch engine is busy past the probed cycle (`fe_busy > now`).
    pub fetch_wait: bool,
    /// A back-end flush has resteered fetch and nothing was delivered yet.
    pub recovering_flush: bool,
    /// A Decode resteer (BTB-miss misfetch) is pending its first delivery.
    pub recovering_decode: bool,
    /// The architecture has a decoupled fetch engine (DCF / ELF).
    pub has_dcf: bool,
    /// FAQ occupancy in blocks at probe time.
    pub faq_len: usize,
}

impl FetchCycleProbe {
    /// Attributes one cycle. `delivered` is the number of instructions the
    /// tick handed to the back-end (0 for skipped cycles, by definition);
    /// `dispatch_room` is whether the back-end accepted a front-end tick
    /// at all. First matching rule wins.
    #[must_use]
    pub fn classify(&self, delivered: usize, dispatch_room: bool) -> FetchCycleCause {
        if delivered > 0 {
            return FetchCycleCause::UsefulFetch;
        }
        if !dispatch_room {
            return FetchCycleCause::DispatchBackpressure;
        }
        if self.recovering_flush {
            return FetchCycleCause::FlushRecovery;
        }
        if self.recovering_decode {
            return FetchCycleCause::BtbMissResteer;
        }
        if self.coupled && self.stalled {
            return FetchCycleCause::ResyncWait;
        }
        if self.fetch_wait {
            return FetchCycleCause::IcacheMissStall;
        }
        if self.has_dcf && self.coupled {
            return FetchCycleCause::CoupledProbe;
        }
        if self.has_dcf && !self.coupled && self.faq_empty {
            return FetchCycleCause::FaqEmpty;
        }
        FetchCycleCause::PipelineFill
    }

    /// Mode-occupancy slot for this cycle: 0 = decoupled, 1 = coupled,
    /// 2 = resyncing (coupled but stalled on the DCF). NoDCF is always
    /// coupled and plain DCF always decoupled, by construction.
    #[must_use]
    pub fn mode_index(&self) -> usize {
        match (self.coupled, self.stalled) {
            (true, true) => 2,
            (true, false) => 1,
            (false, _) => 0,
        }
    }
}

/// A speculative RAS operation replayed during flush repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RasOp {
    /// A call pushed this return address.
    Push(Addr),
    /// A return popped the stack.
    Pop,
}

/// Back-end flush context (mispredict, RAW hazard, divergence recovery).
#[derive(Debug, Clone)]
pub struct FlushCtx<'a> {
    /// Correct-path PC to restart fetching at.
    pub restart_pc: Addr,
    /// Delivered instructions with `fid > boundary_fid` are squashed.
    pub boundary_fid: u64,
    /// Resolved history bits of in-flight (unretired, surviving) branches
    /// up to the boundary, oldest first. The speculative history is rebuilt
    /// as retired-history extended by these bits.
    pub hist_replay: &'a [bool],
    /// In-flight (unretired) call/return operations up to the boundary,
    /// oldest first, used to rebuild the speculative RAS from the
    /// architectural one.
    pub ras_replay: &'a [RasOp],
}

/// Information about one retiring instruction, fed back for BTB
/// establishment and predictor training.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetireInfo {
    /// Front-end id.
    pub fid: u64,
    /// Instruction address.
    pub pc: Addr,
    /// Branch kind, if a branch.
    pub kind: Option<BranchKind>,
    /// Resolved direction.
    pub taken: bool,
    /// Resolved next PC (target for taken branches, fall-through otherwise).
    pub next_pc: Addr,
    /// Static target for direct branches (stored in the BTB).
    pub static_target: Option<Addr>,
    /// Which engine fetched it (routes coupled-predictor training, §IV-D3).
    pub mode: FetchMode,
}

#[derive(Debug, Clone, Copy)]
struct GroupInst {
    pc: Addr,
    pred: Option<Prediction>,
    /// True when Decode must make the control-flow decision (BTB-miss proxy
    /// blocks, coupled mode, NoDCF).
    proxy: bool,
    /// Predict-time history snapshot for tracked branches (from the FAQ).
    hist: Option<u128>,
}

#[derive(Debug, Clone)]
struct FetchGroup {
    insts: Vec<GroupInst>,
    ready_at: Cycle,
    mode: FetchMode,
}

#[derive(Debug, Clone, Copy)]
struct StalledBranch {
    pc: Addr,
    kind: BranchKind,
    static_target: Option<Addr>,
}

elf_types::snap_struct!(GroupInst {
    pc,
    pred,
    proxy,
    hist
});
elf_types::snap_struct!(FetchGroup {
    insts,
    ready_at,
    mode
});
elf_types::snap_struct!(StalledBranch {
    pc,
    kind,
    static_target
});

/// The front-end. One instance per simulated core.
#[derive(Debug)]
pub struct Frontend {
    cfg: FrontendConfig,
    arch: FetchArch,

    // Prediction structures (decoupled / main).
    btb: BtbHierarchy,
    btb_builder: BtbBuilder,
    tage: Tage,
    ittage: Ittage,
    btc: BranchTargetCache,
    ras: Ras,
    retire_ras: Ras,

    // Coupled predictors (ELF). The conditional one is a plain bimodal or
    // the gshare extension; gshare keys off the *retired* global history —
    // the coupled fetcher has no speculative history of its own, and the
    // retired register is what a small committed-state predictor would see.
    cpl_cond: Bimodal,
    cpl_btc: BranchTargetCache,
    cpl_ras: Ras,

    // Shared speculative global history (TAGE + ITTAGE).
    spec_hist: u128,
    retired_hist: u128,
    /// Predict-time history of in-flight branches as `(fid, history)`,
    /// fids strictly increasing inside `(last_retired_fid, fid_next]`.
    snapshots: VecDeque<(u64, u128)>,

    // DCF engine.
    dcf_pc: Addr,
    dcf_busy: Cycle,
    faq: Faq,

    // Fetch engine.
    fe_busy: Cycle,
    groups: VecDeque<FetchGroup>,

    // Mode state (ELF) / PC generation state (NoDCF reuses `coupled_pc`).
    mode: FetchMode,
    coupled_pc: Addr,
    /// PC following the youngest *delivered* coupled instruction (recovery
    /// point when the DCF is flushed on a trust-fetcher divergence).
    cpl_next_pc: Addr,
    stall: Option<StalledBranch>,
    fcc: u64,
    dcc: u64,
    dc: u64,
    div: DivergenceTracker,
    /// Positional predictions for coupled instructions still in flight at
    /// switch time (one slot per fetched-but-undecoded instruction, from
    /// the FAQ block that covered them).
    leftover_preds: VecDeque<Option<Prediction>>,

    fid_next: u64,
    last_retired_fid: u64,
    /// Cycle of the last back-end flush with no delivery yet (recovery
    /// latency measurement).
    pending_resteer_cycle: Option<Cycle>,
    /// A Decode-driven resteer (BTB-miss misfetch or NoDCF taken-branch
    /// redirect) happened and nothing was delivered since — the bubbles
    /// until the next delivery belong to the resteer
    /// ([`FetchCycleCause::BtbMissResteer`]).
    pending_decode_resteer: bool,
    stats: FrontendStats,

    // Scratch storage (not simulated state; never serialized). Retired
    // fetch-group buffers are parked here instead of freed so the fetch
    // stages run allocation-free in steady state.
    group_pool: Vec<Vec<GroupInst>>,
    /// Reusable FAQ-head copy for the resync stage (branch vec capacity
    /// persists across cycles).
    resync_scratch: FaqEntry,
    /// Reusable candidate list for the prefetch probe stage.
    prefetch_scratch: Vec<Addr>,
    /// Reusable list of BTB entries finalized by one retirement.
    btb_done: Vec<BtbEntry>,
}

impl Frontend {
    /// Creates a front-end starting at `start_pc`.
    #[must_use]
    pub fn new(cfg: FrontendConfig, arch: FetchArch, start_pc: Addr) -> Self {
        let mode = match arch {
            FetchArch::NoDcf => FetchMode::Coupled,
            FetchArch::Dcf => FetchMode::Decoupled,
            // ELF powers on coupled: fetch probes the I-cache immediately
            // while the DCF spins up.
            FetchArch::Elf(_) => FetchMode::Coupled,
        };
        Frontend {
            btb: BtbHierarchy::new(&cfg.btb),
            btb_builder: BtbBuilder::new(),
            tage: Tage::new(cfg.tage.clone()),
            ittage: Ittage::paper(),
            btc: BranchTargetCache::paper(),
            ras: Ras::new(cfg.ras_entries),
            retire_ras: Ras::new(cfg.ras_entries),
            cpl_cond: match cfg.cpl_cond_kind {
                CoupledCondKind::Bimodal => {
                    Bimodal::new(cfg.cpl_bimodal_entries, cfg.cpl_bimodal_bits)
                }
                CoupledCondKind::Gshare { hist_bits } => {
                    Bimodal::gshare(cfg.cpl_bimodal_entries, hist_bits)
                }
            },
            cpl_btc: BranchTargetCache::new(cfg.cpl_btc_entries, 12),
            cpl_ras: Ras::new(cfg.cpl_ras_entries),
            spec_hist: 0,
            retired_hist: 0,
            snapshots: VecDeque::new(),
            dcf_pc: start_pc,
            dcf_busy: 0,
            faq: Faq::new(cfg.faq_entries),
            fe_busy: 0,
            groups: VecDeque::new(),
            mode,
            coupled_pc: start_pc,
            cpl_next_pc: start_pc,
            stall: None,
            fcc: 0,
            dcc: 0,
            dc: 0,
            div: DivergenceTracker::new(cfg.bitvec_entries, cfg.target_queue_entries),
            leftover_preds: VecDeque::new(),
            fid_next: 0,
            last_retired_fid: 0,
            pending_resteer_cycle: None,
            pending_decode_resteer: false,
            stats: FrontendStats::default(),
            group_pool: Vec::new(),
            resync_scratch: FaqEntry::placeholder(),
            prefetch_scratch: Vec::new(),
            btb_done: Vec::new(),
            cfg,
            arch,
        }
    }

    /// Takes a cleared instruction buffer from the pool (or a fresh one).
    fn take_insts(&mut self) -> Vec<GroupInst> {
        self.group_pool.pop().unwrap_or_default()
    }

    /// Returns a fetch group's instruction buffer to the pool. The pool is
    /// bounded by the in-flight group limit; anything beyond that is freed.
    fn recycle_insts(&mut self, mut insts: Vec<GroupInst>) {
        insts.clear();
        if self.group_pool.len() <= self.cfg.max_inflight_groups + 2 {
            self.group_pool.push(insts);
        }
    }

    /// Empties the fetch-group queue, recycling every buffer.
    fn clear_groups(&mut self) {
        while let Some(g) = self.groups.pop_front() {
            self.recycle_insts(g.insts);
        }
    }

    /// The configured fetch architecture.
    #[must_use]
    pub fn arch(&self) -> FetchArch {
        self.arch
    }

    /// Whether the fetcher is currently in coupled mode (always `true` for
    /// NoDCF, always `false` for plain DCF).
    #[must_use]
    pub fn in_coupled_mode(&self) -> bool {
        self.mode == FetchMode::Coupled
    }

    /// One-line internal state summary (diagnostics).
    #[must_use]
    pub fn debug_state(&self) -> String {
        format!(
            "mode={:?} stall={:?} faq_len={} head_consumed={} groups={} fcc={} dcc={} dc={}              fe_busy={} dcf_busy={} div_drained={} cpl_room={}",
            self.mode,
            self.stall,
            self.faq.len(),
            self.faq.head_consumed(),
            self.groups.len(),
            self.fcc,
            self.dcc,
            self.dc,
            self.fe_busy,
            self.dcf_busy,
            self.div.fully_drained(),
            self.div.coupled_has_room(),
        )
    }

    /// Front-end statistics.
    #[must_use]
    pub fn stats(&self) -> &FrontendStats {
        &self.stats
    }

    /// BTB statistics.
    #[must_use]
    pub fn btb_stats(&self) -> BtbStats {
        self.btb.stats()
    }

    /// Mean FAQ occupancy (blocks).
    #[must_use]
    pub fn faq_mean_occupancy(&self) -> f64 {
        self.faq.mean_occupancy()
    }

    /// Current FAQ occupancy in blocks (0 for non-DCF architectures).
    #[must_use]
    pub fn faq_len(&self) -> usize {
        self.faq.len()
    }

    /// First cycle at which the fetch engine is free again. `fetch_wait` is
    /// the only classification input that can flip inside a quiescent
    /// region, and it flips here: the idle-cycle skipper charges the
    /// skipped cycles before and after this point separately.
    #[must_use]
    pub fn fetch_busy_until(&self) -> Cycle {
        self.fe_busy
    }

    /// Captures the pre-tick state that attributes the cycle starting at
    /// `now` to a [`FetchCycleCause`] (see [`FetchCycleProbe`]).
    #[must_use]
    pub fn cycle_probe(&self, now: Cycle) -> FetchCycleProbe {
        FetchCycleProbe {
            coupled: self.mode == FetchMode::Coupled,
            stalled: self.stall.is_some(),
            faq_empty: self.faq.is_empty(),
            fetch_wait: self.fe_busy > now,
            recovering_flush: self.pending_resteer_cycle.is_some(),
            recovering_decode: self.pending_decode_resteer,
            has_dcf: self.arch.has_dcf(),
            faq_len: self.faq.len(),
        }
    }

    /// Resets statistics after warm-up.
    pub fn reset_stats(&mut self) {
        self.stats = FrontendStats::default();
        self.btb.reset_stats();
    }

    /// Checks the front-end's structural invariants and describes the
    /// first violation (`None` when sound). Read-only — called per tick by
    /// the simulator's invariant mode (`SimConfig::check`); see
    /// `elf_core::check` for the catalog. The checks:
    ///
    /// - FAQ occupancy never exceeds the configured capacity, and the
    ///   partially-consumed-head cursor stays inside the head block;
    /// - every RAS (decoupled speculative, architectural retire copy,
    ///   coupled) keeps `live <= capacity` and `tos >= live`;
    /// - the fetch mode is legal for the architecture: NoDCF is always
    ///   coupled, plain DCF always decoupled, and a resync stall can only
    ///   exist in coupled mode on an ELF;
    /// - retirement ids never run ahead of allocation
    ///   (`last_retired_fid <= fid_next`);
    /// - the branch-history queue holds only in-flight fids, strictly
    ///   increasing inside `(last_retired_fid, fid_next]`;
    /// - the U-ELF divergence bitvector and target queue stay within their
    ///   capacities (see [`DivergenceTracker::invariant_violation`]).
    #[must_use]
    pub fn invariant_violation(&self) -> Option<String> {
        if self.faq.len() > self.cfg.faq_entries {
            return Some(format!(
                "faq holds {} blocks > capacity {}",
                self.faq.len(),
                self.cfg.faq_entries
            ));
        }
        match self.faq.iter().next() {
            Some(head) => {
                if self.faq.head_consumed() >= head.inst_count {
                    return Some(format!(
                        "faq head cursor {} outside head block of {} insts",
                        self.faq.head_consumed(),
                        head.inst_count
                    ));
                }
            }
            None => {
                if self.faq.head_consumed() != 0 {
                    return Some(format!(
                        "faq head cursor {} nonzero with an empty faq",
                        self.faq.head_consumed()
                    ));
                }
            }
        }
        for (name, ras) in [
            ("speculative", &self.ras),
            ("retire", &self.retire_ras),
            ("coupled", &self.cpl_ras),
        ] {
            if let Some(v) = ras.invariant_violation() {
                return Some(format!("{name} {v}"));
            }
        }
        match self.arch {
            FetchArch::NoDcf if self.mode != FetchMode::Coupled => {
                return Some("NoDCF front-end left coupled mode".to_owned());
            }
            FetchArch::Dcf if self.mode != FetchMode::Decoupled => {
                return Some("plain DCF front-end entered coupled mode".to_owned());
            }
            _ => {}
        }
        if self.stall.is_some() {
            if self.mode != FetchMode::Coupled {
                return Some("resync stall present in decoupled mode".to_owned());
            }
            if self.elf_variant().is_none() {
                return Some(format!(
                    "resync stall present on non-ELF arch {:?}",
                    self.arch
                ));
            }
        }
        if self.last_retired_fid > self.fid_next {
            return Some(format!(
                "retired fid {} ahead of allocator {}",
                self.last_retired_fid, self.fid_next
            ));
        }
        self.history_violation()
            .or_else(|| self.div.invariant_violation())
    }

    /// Describes the first branch-history entry whose fid is out of order
    /// or outside the in-flight range `(last_retired_fid, fid_next]`.
    fn history_violation(&self) -> Option<String> {
        let mut after = self.last_retired_fid;
        for &(fid, _) in &self.snapshots {
            if fid <= after || fid > self.fid_next {
                return Some(format!(
                    "branch-history fid {fid} outside ({after}, {}]",
                    self.fid_next
                ));
            }
            after = fid;
        }
        None
    }

    /// Installs a BTB entry directly, bypassing retirement. Used by the
    /// stale-BTB (self-modifying-code) divergence tests of §IV-C2 and by
    /// the fault injector's BTB-corruption fault, neither of which any
    /// synthetic workload produces naturally.
    pub fn inject_btb_entry(&mut self, entry: BtbEntry) {
        self.btb.overwrite(entry);
    }

    fn elf_variant(&self) -> Option<ElfVariant> {
        match self.arch {
            FetchArch::Elf(v) => Some(v),
            _ => None,
        }
    }

    fn next_fid(&mut self) -> u64 {
        self.fid_next += 1;
        self.fid_next
    }

    /// The shared history bit a resolved branch contributes: conditional
    /// outcomes only (the standard TAGE GHR design — unconditional branches
    /// contribute nothing, keeping history positions path-stable).
    #[must_use]
    pub fn history_bit(kind: BranchKind, taken: bool) -> Option<bool> {
        kind.is_conditional().then_some(taken)
    }

    // ------------------------------------------------------------------
    // Tick
    // ------------------------------------------------------------------

    /// Advances the front-end by one cycle, writing results into a
    /// caller-owned output buffer (cleared first). The hot simulation loop
    /// reuses one `TickOutput` so steady-state ticks do not allocate.
    pub fn tick_into(
        &mut self,
        prog: &Program,
        mem: &mut MemorySystem,
        cycle: Cycle,
        out: &mut TickOutput,
    ) {
        out.clear();
        self.charge_idle_cycles(1);

        self.decode_stage(prog, cycle, out);
        if self.elf_variant().is_some() {
            // Bitvector/target-queue comparison runs every cycle, including
            // after the mode switch until the coupled stream fully drains
            // (paper §IV-C3).
            self.check_divergence(prog, cycle, out);
            if self.mode == FetchMode::Coupled {
                self.resync_stage(prog, cycle, out);
            }
        }
        self.fetch_stage(mem, cycle);
        if self.arch.has_dcf() {
            self.dcf_generate(prog, mem, cycle);
            if self.cfg.ifetch_prefetch {
                self.issue_prefetches(mem, cycle);
            }
        }
    }

    // ------------------------------------------------------------------
    // DCF: BP1/BP2 block generation
    // ------------------------------------------------------------------

    fn dcf_generate(&mut self, prog: &Program, mem: &MemorySystem, cycle: Cycle) {
        if cycle < self.dcf_busy || !self.faq.has_room() {
            return;
        }
        let start = self.dcf_pc;
        let visible = cycle + u64::from(self.cfg.bp_to_faq_delay);

        let (entry, level) = match self.btb.lookup(start) {
            Some(hit) => (hit.entry, hit.level),
            None if self.cfg.btb_miss_probe && mem.l0i_has(start) => {
                // Boomerang-style recovery (§VI-C extension): the line is in
                // the L0I, so pre-decode branch info from the cache data
                // instead of streaming a blind proxy. Costs like an L2 hit.
                self.stats.boomerang_blocks += 1;
                (Self::predecode_entry(prog, start), 2)
            }
            None => {
                // All levels missed: stream a sequential proxy block (§III-C).
                let count = MAX_BLOCK_INSTS as u8;
                let next = seq_pc(start, count as usize);
                self.faq.push(
                    FaqEntry {
                        start_pc: start,
                        inst_count: count,
                        term: FaqTermination::BtbMiss,
                        next_pc: next,
                        branches: Vec::new(),
                    },
                    visible,
                );
                self.dcf_pc = next;
                self.dcf_busy = cycle + 1;
                self.stats.faq_blocks += 1;
                self.stats.btb_miss_blocks += 1;
                return;
            }
        };
        let mut branches = self.faq.branch_buf();
        // (offset, kind, target, Figure-2 exit class)
        let mut exit: Option<(u8, BranchKind, Option<Addr>, ExitClass)> = None;

        for b in entry.branches() {
            let bpc = seq_pc(start, b.offset as usize);
            let (pred, hist, class) = self.predict_branch(bpc, b.kind, b.target, PredSource::Btb);
            branches.push(FaqBranch {
                offset: b.offset,
                kind: b.kind,
                pred_taken: pred.taken,
                pred_target: pred.target,
                source: pred.source,
                hist,
            });
            if pred.taken {
                exit = Some((b.offset, b.kind, pred.target, class));
                break;
            }
        }

        let (count, term, next) = match exit {
            Some((off, kind, tgt, _)) => {
                let next = tgt.unwrap_or_else(|| seq_pc(start, off as usize + 1));
                (off + 1, FaqTermination::TakenBranch(kind), next)
            }
            None => (
                entry.inst_count,
                FaqTermination::FallThrough,
                entry.fallthrough(),
            ),
        };

        // Bubble accounting (§III-B / Fig. 2): stated in `timing.rs` and
        // tested exhaustively there.
        let class = exit.map_or(
            ExitClass::FallThrough {
                full_length: entry.is_full_length(),
            },
            |(_, _, _, c)| c,
        );
        let bubbles = generation_bubbles(level, class, self.cfg.ittage_bubbles);

        self.stats.bp_bubbles += u64::from(bubbles);
        self.stats.faq_blocks += 1;
        self.faq.push(
            FaqEntry {
                start_pc: start,
                inst_count: count,
                term,
                next_pc: next,
                branches,
            },
            visible,
        );
        self.dcf_pc = next;
        self.dcf_busy = cycle + 1 + u64::from(bubbles);
    }

    // ------------------------------------------------------------------
    // ELF resynchronization (paper §IV-B1 / Fig. 5)
    // ------------------------------------------------------------------

    fn resync_stage(&mut self, prog: &Program, cycle: Cycle, out: &mut TickOutput) {
        debug_assert!(matches!(self.arch, FetchArch::Elf(_)));
        // Process visible FAQ blocks against the counters. At most a few
        // blocks per cycle (hardware compares one; allowing the backlog to
        // drain faster only shortens coupled periods marginally).
        for _ in 0..2 {
            if self.mode != FetchMode::Coupled {
                return;
            }
            // Copy the head into the persistent scratch entry (its branch
            // vector keeps its capacity across cycles) so the `&mut self`
            // stages below can run while the copy is read.
            let mut head = std::mem::replace(&mut self.resync_scratch, FaqEntry::placeholder());
            match self.faq.head(cycle) {
                Some(h) => head.copy_from(h),
                None => {
                    self.resync_scratch = head;
                    return;
                }
            }
            let again = self.resync_step(prog, cycle, out, &head);
            self.resync_scratch = head;
            if !again {
                return;
            }
        }
    }

    /// One resynchronization comparison against the (copied) FAQ head.
    /// Returns `true` when the caller should examine the next block in the
    /// same cycle (the head was consumed without a mode change).
    fn resync_step(
        &mut self,
        prog: &Program,
        cycle: Cycle,
        out: &mut TickOutput,
        head_clone: &FaqEntry,
    ) -> bool {
        let head_count = u64::from(head_clone.inst_count);
        // Proxy blocks (all-level BTB miss) carry no branch info: the
        // fetcher must not resynchronize onto them — decode keeps the
        // control-flow authority through those regions (§III-C).
        let proxy = head_clone.term == FaqTermination::BtbMiss;

        // Pending stall covered by this block?
        if let Some(st) = self.stall {
            if self.dc <= self.dcc && self.dcc < self.dc + head_count {
                if proxy {
                    // The DCF has no idea either: Decode consults the
                    // main predictors (TAGE/RAS/BTC/ITTAGE) and the DCF
                    // is resteered to follow the fetcher.
                    let (pred, extra) = self.decode_predict(st.pc, st.kind, st.static_target);
                    self.deliver_one(prog, st.pc, Some(pred), FetchMode::Coupled, cycle, out);
                    self.dcc += 1;
                    let next = if pred.taken {
                        pred.target.unwrap_or(st.pc + INST_BYTES)
                    } else {
                        st.pc + INST_BYTES
                    };
                    self.stall = None;
                    self.stats.decode_resteers += 1;
                    self.pending_decode_resteer = true;
                    self.coupled_restart_dcf(next, cycle, extra);
                    return false;
                }
                // Real block: deliver the stalled branch with the DCF's
                // prediction and switch to decoupled mode.
                let off = (self.dcc - self.dc) as u8;
                let pred = head_clone
                    .branch_at(off)
                    .map_or_else(Prediction::not_taken, FaqBranch::prediction);
                self.record_decoupled_prefix(head_clone, off + 1);
                self.deliver_one(prog, st.pc, Some(pred), FetchMode::Coupled, cycle, out);
                self.record_coupled_for_pred(st.pc, st.kind, &pred);
                self.stall = None;
                self.switch_to_decoupled(off + 1);
                return false;
            }
            if self.dc + head_count <= self.dcc {
                // Block fully covered by already-delivered instructions.
                self.record_decoupled_prefix(head_clone, head_clone.inst_count);
                self.dc += head_count;
                self.faq.pop();
                self.check_divergence(prog, cycle, out);
                return true;
            }
            return false;
        }

        // Fig. 5 switch test: will the decoupled stream cover everything
        // fetched in coupled mode? (Never onto a proxy block.)
        if !proxy && self.dc + head_count >= self.fcc {
            let amend = (self.fcc - self.dc) as u8;
            self.record_decoupled_prefix(head_clone, amend);
            // Positions dcc..fcc are fetched but not yet decoded; their
            // FAQ-side predictions hand off positionally (Fig. 5 cycle 2
            // validation of in-flight coupled instructions).
            self.leftover_preds.clear();
            let first = (self.dcc.max(self.dc) - self.dc) as u8;
            for off in first..amend {
                let p = head_clone.branch_at(off).map(FaqBranch::prediction);
                self.leftover_preds.push_back(p);
            }
            self.switch_to_decoupled(amend);
            return false;
        }
        // Pop test: fetcher already decoded past this whole block.
        if self.dcc >= self.dc + head_count {
            self.record_decoupled_prefix(head_clone, head_clone.inst_count);
            self.dc += head_count;
            self.faq.pop();
            self.check_divergence(prog, cycle, out);
            return true;
        }
        false
    }

    /// Restarts the DCF to follow the coupled fetcher (proxy-phase decode
    /// decision or trust-fetcher divergence): a fresh coverage baseline at
    /// `next_pc` with coupled fetching continuing.
    fn coupled_restart_dcf(&mut self, next_pc: Addr, cycle: Cycle, extra_bubbles: u32) {
        self.faq.flush();
        self.clear_groups();
        self.dcf_pc = next_pc;
        self.dcf_busy = cycle + 1 + u64::from(extra_bubbles);
        self.coupled_pc = next_pc;
        self.fe_busy = self.fe_busy.max(cycle + 1 + u64::from(extra_bubbles));
        self.div.reset();
        self.leftover_preds.clear();
        self.fcc = 0;
        self.dcc = 0;
        self.dc = 0;
    }

    /// Records the first `n` instructions of a FAQ block on the decoupled
    /// side of the divergence tracker, and stashes branch predictions for
    /// in-flight coupled instructions (U-ELF machinery; harmless for the
    /// simpler variants).
    fn record_decoupled_prefix(&mut self, entry: &FaqEntry, n: u8) {
        let proxy = entry.term == FaqTermination::BtbMiss;
        for off in 0..n.min(entry.inst_count) {
            let taken = entry
                .branch_at(off)
                .filter(|b| b.pred_taken)
                .map(|b| TargetSlot {
                    kind: b.kind,
                    target: b.pred_target.unwrap_or(0),
                });
            self.div.record_decoupled(proxy, taken);
        }
    }

    fn switch_to_decoupled(&mut self, consumed: u8) {
        self.faq.amend_head(consumed);
        self.mode = FetchMode::Decoupled;
        self.stall = None;
        self.fcc = 0;
        self.dcc = 0;
        self.dc = 0;
        // Coupled-fetched groups still in flight flow through Decode and
        // are validated against the recorded prefix (paper Fig. 5 cycle 2).
    }

    fn enter_coupled(&mut self, pc: Addr) {
        self.mode = FetchMode::Coupled;
        self.coupled_pc = pc;
        self.stall = None;
        self.fcc = 0;
        self.dcc = 0;
        self.dc = 0;
        self.div.reset();
        self.leftover_preds.clear();
        self.stats.coupled_periods += 1;
    }

    fn check_divergence(&mut self, prog: &Program, cycle: Cycle, out: &mut TickOutput) {
        match self.div.compare() {
            None => {}
            Some(Divergence::TrustDcf { fid, .. }) if fid <= self.last_retired_fid => {
                // The diverging branch already retired with its coupled
                // prediction — architecture committed, so the DCF was the
                // one off-path. Flush it and keep fetching coupled.
                self.stats.divergences_fetcher += 1;
                let next = self.cpl_next_pc;
                self.coupled_restart_dcf(next, cycle, 0);
            }
            Some(Divergence::TrustDcf {
                fid,
                pc,
                dcf_taken,
                dcf_target,
            }) => {
                // Flush coupled instructions past the divergence point and
                // restart both engines on the DCF's resolved direction
                // (gap-free recovery; the DCF pipeline restart costs its
                // usual 3 stages). The branch's effective prediction is now
                // the DCF's.
                self.stats.divergences_dcf += 1;
                let resume = if dcf_taken {
                    dcf_target
                        .filter(|&t| t != 0)
                        .or_else(|| prog.inst_or_nop(pc).target)
                        .unwrap_or(pc + INST_BYTES)
                } else {
                    pc + INST_BYTES
                };
                out.squash = Some(DivergenceSquash {
                    boundary_fid: fid,
                    fid,
                    taken: dcf_taken,
                    target: dcf_taken.then_some(resume),
                });
                out.delivered.retain(|d| d.fid <= fid);
                self.clear_groups();
                self.faq.flush();
                self.stall = None;
                self.div.reset();
                self.leftover_preds.clear();
                self.mode = FetchMode::Decoupled;
                self.dcf_pc = resume;
                self.dcf_busy = cycle + 1;
                self.fe_busy = self.fe_busy.max(cycle + 1);
            }
            Some(Divergence::TrustFetcher) => {
                // Stale BTB / BTB-miss proxy: the fetcher decoded ground
                // truth. Flush the DCF and restart it at the next
                // undelivered coupled PC; coupled fetching continues.
                self.stats.divergences_fetcher += 1;
                let next = self.cpl_next_pc;
                self.coupled_restart_dcf(next, cycle, 0);
            }
        }
    }

    // ------------------------------------------------------------------
    // Fetch stage
    // ------------------------------------------------------------------

    fn fetch_stage(&mut self, mem: &mut MemorySystem, cycle: Cycle) {
        if cycle < self.fe_busy || self.groups.len() >= self.cfg.max_inflight_groups {
            return;
        }
        match self.mode {
            FetchMode::Decoupled => self.fetch_decoupled(mem, cycle),
            FetchMode::Coupled => self.fetch_coupled(mem, cycle),
        }
    }

    fn fetch_decoupled(&mut self, mem: &mut MemorySystem, cycle: Cycle) {
        // The head is read in place (no clone): the instruction buffer is a
        // pooled local, so building it only borrows `self.faq` immutably.
        let mut insts = self.take_insts();
        let (take, first_pc, term_taken) = {
            let Some(head) = self.faq.head(cycle) else {
                self.group_pool.push(insts);
                return;
            };
            let start_off = self.faq.head_consumed();
            let take = (self.cfg.fetch_width as u8).min(head.inst_count - start_off);
            Self::push_block_insts(&mut insts, head, start_off, take);
            let first_pc = seq_pc(head.start_pc, start_off as usize);
            (take, first_pc, head.term.is_taken())
        };
        let popped = self.faq.consume(take);
        let latency = Self::group_latency(mem, first_pc, take as usize, cycle);

        // Fetch across a taken branch in the same cycle when the target
        // maps to the other L0I interleave and its block is ready (§VI-A).
        if popped && term_taken && (take as usize) < self.cfg.fetch_width {
            let last_pc = seq_pc(first_pc, take as usize - 1);
            let mut extra = 0u8;
            if let Some(next) = self.faq.head(cycle) {
                if self.faq.head_consumed() == 0
                    && mem.l0i_interleave(next.start_pc) != mem.l0i_interleave(last_pc)
                    && mem.l0i_has(next.start_pc)
                {
                    extra =
                        (self.cfg.fetch_width - take as usize).min(next.inst_count as usize) as u8;
                    Self::push_block_insts(&mut insts, next, 0, extra);
                }
            }
            if extra > 0 {
                self.faq.consume(extra);
                self.stats.interleaved_taken_fetches += 1;
            }
        }
        self.issue_group(insts, latency, FetchMode::Decoupled, cycle);
    }

    /// Coupled fetch (ELF after a flush or misfetch, and NoDCF always):
    /// probes the I-cache sequentially from the fetcher's own PC, leaving
    /// every control-flow decision to Decode.
    fn fetch_coupled(&mut self, mem: &mut MemorySystem, cycle: Cycle) {
        let elf = self.elf_variant().is_some();
        if self.stall.is_some() || (elf && !self.div.coupled_has_room()) {
            return;
        }
        let width = self.cfg.fetch_width;
        let first_pc = self.coupled_pc;
        let mut insts = self.take_insts();
        insts.extend((0..width).map(|i| GroupInst {
            pc: seq_pc(first_pc, i),
            pred: None,
            proxy: true,
            hist: None,
        }));
        let latency = Self::group_latency(mem, first_pc, width, cycle);
        self.coupled_pc = seq_pc(first_pc, width);
        if elf {
            self.fcc += width as u64;
        }
        self.issue_group(insts, latency, FetchMode::Coupled, cycle);
    }

    /// Appends instructions `from..from + n` of a FAQ block to a fetch
    /// group, each with the BP1 prediction and history snapshot the block
    /// carries for it.
    fn push_block_insts(insts: &mut Vec<GroupInst>, block: &FaqEntry, from: u8, n: u8) {
        let proxy = block.term == FaqTermination::BtbMiss;
        for off in from..from + n {
            let fb = block.branch_at(off);
            insts.push(GroupInst {
                pc: seq_pc(block.start_pc, off as usize),
                pred: fb.map(FaqBranch::prediction),
                proxy,
                hist: fb.map(|b| b.hist),
            });
        }
    }

    /// L0I latency of a group of `n` sequential instructions starting at
    /// `first_pc`: one access per cache line the group touches.
    fn group_latency(mem: &mut MemorySystem, first_pc: Addr, n: usize, cycle: Cycle) -> u32 {
        let mut latency = mem.fetch(first_pc, cycle);
        let last_pc = seq_pc(first_pc, n - 1);
        if last_pc / 64 != first_pc / 64 {
            latency = latency.max(mem.fetch(last_pc, cycle));
        }
        latency
    }

    /// Holds the fetch engine for the group's L0I latency and queues the
    /// group for Decode.
    fn issue_group(&mut self, insts: Vec<GroupInst>, latency: u32, mode: FetchMode, cycle: Cycle) {
        let busy = u64::from(latency.max(1));
        self.fe_busy = cycle + busy;
        self.groups.push_back(FetchGroup {
            insts,
            ready_at: cycle + busy - 1 + u64::from(self.cfg.decode_latency),
            mode,
        });
    }

    // ------------------------------------------------------------------
    // Decode stage
    // ------------------------------------------------------------------

    fn decode_stage(&mut self, prog: &Program, cycle: Cycle, out: &mut TickOutput) {
        let ready = matches!(self.groups.front(), Some(g) if g.ready_at <= cycle);
        if !ready {
            return;
        }
        // invariant: `ready` above proves the queue has a due front.
        let group = self.groups.pop_front().expect("checked above");
        match (self.arch, group.mode) {
            (FetchArch::NoDcf, _) => self.decode_nodcf(prog, &group, cycle, out),
            (_, FetchMode::Decoupled) => self.decode_decoupled(prog, &group, cycle, out),
            (_, FetchMode::Coupled) => self.decode_coupled(prog, &group, cycle, out),
        }
        self.recycle_insts(group.insts);
    }

    /// NoDCF: predictions are attributed in parallel with Decode; every
    /// taken branch resteers fetch (the taken-branch penalty, §III-B1).
    fn decode_nodcf(
        &mut self,
        prog: &Program,
        group: &FetchGroup,
        cycle: Cycle,
        out: &mut TickOutput,
    ) {
        for gi in &group.insts {
            let sinst = prog.inst_or_nop(gi.pc);
            let Some(kind) = sinst.branch_kind() else {
                self.deliver_one(prog, gi.pc, None, FetchMode::Coupled, cycle, out);
                continue;
            };
            let (pred, extra_bubbles) = self.decode_predict(gi.pc, kind, sinst.target);
            self.deliver_one(prog, gi.pc, Some(pred), FetchMode::Coupled, cycle, out);
            if pred.taken {
                if let Some(t) = pred.target {
                    self.resteer_fetch_nodcf(t, cycle, extra_bubbles);
                    return; // rest of the group is overshoot
                }
            }
        }
    }

    /// Decoupled-mode decode: FAQ-predicted instructions flow through;
    /// proxy (BTB-miss) blocks get their decisions here, resteering the
    /// whole DCF on a taken branch — the misfetch loop of §III-C.
    fn decode_decoupled(
        &mut self,
        prog: &Program,
        group: &FetchGroup,
        cycle: Cycle,
        out: &mut TickOutput,
    ) {
        for gi in &group.insts {
            let sinst = prog.inst_or_nop(gi.pc);
            let Some(kind) = sinst.branch_kind() else {
                self.deliver_one(prog, gi.pc, None, FetchMode::Decoupled, cycle, out);
                continue;
            };
            if let Some(p) = gi.pred {
                // Tracked by the BTB: prediction came from BP1; train later
                // with the exact predict-time history snapshot.
                if let Some(h) = gi.hist {
                    self.snapshots.push_back((self.fid_next + 1, h));
                }
                // Maintain the coupled RAS in decoupled mode too (§IV-D2).
                self.update_cpl_ras(kind, gi.pc);
                self.deliver_one(prog, gi.pc, Some(p), FetchMode::Decoupled, cycle, out);
                continue;
            }
            if !gi.proxy {
                // Inside a BTB-covered block but untracked: a never-taken
                // conditional (no slot, §III-A). Static not-taken.
                let p = Prediction::not_taken();
                self.update_cpl_ras(kind, gi.pc);
                self.deliver_one(prog, gi.pc, Some(p), FetchMode::Decoupled, cycle, out);
                continue;
            }
            // Proxy block: Decode makes the call and resteers (misfetch).
            let (pred, extra) = self.decode_predict(gi.pc, kind, sinst.target);
            self.update_cpl_ras(kind, gi.pc);
            self.deliver_one(prog, gi.pc, Some(pred), FetchMode::Decoupled, cycle, out);
            if pred.taken {
                if let Some(t) = pred.target {
                    self.stats.decode_resteers += 1;
                    self.pending_decode_resteer = true;
                    self.resteer_frontend_decode(t, cycle, extra);
                    return;
                }
            }
        }
    }

    /// Coupled-mode decode (ELF): the variant's coupled predictors make the
    /// control-flow decisions; anything unpredictable stalls until the DCF
    /// catches up.
    fn decode_coupled(
        &mut self,
        prog: &Program,
        group: &FetchGroup,
        cycle: Cycle,
        out: &mut TickOutput,
    ) {
        // invariant: only the ELF architectures ever enqueue groups in
        // coupled mode, so the variant is always present here.
        let variant = self
            .elf_variant()
            .expect("coupled groups only exist under ELF");
        for gi in &group.insts {
            let sinst = prog.inst_or_nop(gi.pc);
            let Some(kind) = sinst.branch_kind() else {
                if self.mode == FetchMode::Decoupled {
                    self.leftover_preds.pop_front();
                }
                self.deliver_one(prog, gi.pc, None, FetchMode::Coupled, cycle, out);
                self.dcc += 1;
                self.div.record_coupled(self.fid_next, gi.pc, None);
                continue;
            };

            // Post-switch leftovers: prediction already known from the FAQ,
            // handed off positionally at switch time.
            if self.mode == FetchMode::Decoupled {
                let pred = self
                    .leftover_preds
                    .pop_front()
                    .flatten()
                    .unwrap_or_else(Prediction::not_taken);
                self.update_cpl_ras(kind, gi.pc);
                self.deliver_one(prog, gi.pc, Some(pred), FetchMode::Coupled, cycle, out);
                self.record_coupled_for_pred(gi.pc, kind, &pred);
                if pred.taken {
                    // The rest of this group — and any following coupled
                    // groups — are sequential overshoot past a taken branch.
                    while matches!(self.groups.front(), Some(g) if g.mode == FetchMode::Coupled) {
                        // invariant: `matches!` above proved a front exists.
                        let g = self.groups.pop_front().expect("checked above");
                        self.recycle_insts(g.insts);
                    }
                    self.leftover_preds.clear();
                    return;
                }
                continue;
            }

            let decision = self.coupled_decision(variant, gi.pc, kind, sinst.target);
            match decision {
                CoupledDecision::Stall => {
                    // Discard the branch and everything younger; roll the
                    // fetch coupled count back to the delivered count
                    // (Fig. 5 rollback arithmetic).
                    self.stall = Some(StalledBranch {
                        pc: gi.pc,
                        kind,
                        static_target: sinst.target,
                    });
                    self.stats.coupled_stalls += 1;
                    self.clear_groups();
                    self.fcc = self.dcc;
                    self.coupled_pc = gi.pc; // refetch target decided later
                    return;
                }
                CoupledDecision::Deliver(pred) => {
                    self.update_cpl_ras(kind, gi.pc);
                    self.deliver_one(prog, gi.pc, Some(pred), FetchMode::Coupled, cycle, out);
                    self.dcc += 1;
                    self.record_coupled_for_pred(gi.pc, kind, &pred);
                    if pred.taken {
                        if let Some(t) = pred.target {
                            // Resteer coupled fetch; discard overshoot.
                            self.clear_groups();
                            self.fcc = self.dcc;
                            self.coupled_pc = t;
                            self.fe_busy = self.fe_busy.max(cycle + 1);
                            // If the DCF is blindly streaming a proxy path,
                            // resteer it right away (the decode-resteer it
                            // would get in plain DCF mode) instead of
                            // waiting for the bitvectors to flag it.
                            let head_is_proxy = matches!(
                                self.faq.head(cycle),
                                Some(h) if h.term == FaqTermination::BtbMiss
                            );
                            if head_is_proxy {
                                self.stats.decode_resteers += 1;
                                self.pending_decode_resteer = true;
                                self.coupled_restart_dcf(t, cycle, 0);
                            } else {
                                self.check_divergence(prog, cycle, out);
                            }
                            return;
                        }
                    }
                    self.check_divergence(prog, cycle, out);
                    if out.squash.is_some() {
                        return;
                    }
                }
            }
        }
    }

    /// Records the coupled-side divergence slot for a just-delivered branch.
    fn record_coupled_for_pred(&mut self, pc: Addr, kind: BranchKind, pred: &Prediction) {
        let taken = pred.taken.then(|| TargetSlot {
            kind,
            target: pred.target.unwrap_or(0),
        });
        self.div.record_coupled(self.fid_next, pc, taken);
    }

    /// The coupled fetcher's decision for a decoded branch (paper §IV-C1).
    fn coupled_decision(
        &mut self,
        variant: ElfVariant,
        pc: Addr,
        kind: BranchKind,
        static_target: Option<Addr>,
    ) -> CoupledDecision {
        match kind {
            // Direct unconditionals are not control-flow *decisions*: even
            // L-ELF follows them via the Decode resteer (§IV-B).
            BranchKind::UncondDirect | BranchKind::Call => CoupledDecision::Deliver(Prediction {
                taken: true,
                target: static_target,
                source: PredSource::DecodedTarget,
            }),
            BranchKind::Return => {
                if variant.predicts_returns() {
                    match self.cpl_ras.peek() {
                        Some(t) => {
                            self.stats.cpl_ras_preds += 1;
                            CoupledDecision::Deliver(Prediction {
                                taken: true,
                                target: Some(t),
                                source: PredSource::CoupledRas,
                            })
                        }
                        None => CoupledDecision::Stall,
                    }
                } else {
                    CoupledDecision::Stall
                }
            }
            BranchKind::IndirectJump | BranchKind::IndirectCall => {
                if variant.predicts_indirects() {
                    match self.cpl_btc.predict(pc) {
                        Some(t) => {
                            self.stats.cpl_btc_preds += 1;
                            CoupledDecision::Deliver(Prediction {
                                taken: true,
                                target: Some(t),
                                source: PredSource::CoupledBtc,
                            })
                        }
                        None => CoupledDecision::Stall,
                    }
                } else {
                    CoupledDecision::Stall
                }
            }
            BranchKind::CondDirect => {
                if variant.predicts_conditionals() {
                    let p = self.cpl_cond.predict(pc, self.retired_hist);
                    if self.cfg.cond_requires_saturation && !p.saturated {
                        CoupledDecision::Stall
                    } else {
                        self.stats.cpl_bimodal_preds += 1;
                        CoupledDecision::Deliver(Prediction {
                            taken: p.taken,
                            target: p.taken.then_some(static_target).flatten(),
                            source: PredSource::CoupledBimodal,
                        })
                    }
                } else {
                    CoupledDecision::Stall
                }
            }
        }
    }

    /// The one consult of the main predictors (TAGE, RAS, L0 BTC, ITTAGE),
    /// shared by BP1 and Decode. Applies the consult's side effects: the
    /// TAGE history push for conditionals, the RAS pop for returns and the
    /// RAS push for calls and indirect calls. Direct targets come from
    /// `static_target`, attributed to `direct_source`. Returns the
    /// prediction, the predict-time history snapshot and the Figure-2 exit
    /// class (meaningful when the prediction is taken).
    fn predict_branch(
        &mut self,
        pc: Addr,
        kind: BranchKind,
        static_target: Option<Addr>,
        direct_source: PredSource,
    ) -> (Prediction, u128, ExitClass) {
        let hist = self.spec_hist;
        let (taken, target, source, class) = match kind {
            BranchKind::CondDirect => {
                let p = self.tage.predict(pc, hist);
                self.spec_hist = (hist << 1) | u128::from(p.taken);
                let source = if p.provider.is_some() {
                    PredSource::TageTagged
                } else {
                    PredSource::Bimodal
                };
                // On an L0 BTB hit, only the bimodal is fast enough for
                // same-cycle next-PC generation; a tagged override costs one
                // bubble (§III-B).
                let class = if p.tagged_override {
                    ExitClass::CondTaggedOverride
                } else {
                    ExitClass::CondBimodal
                };
                let target = p.taken.then_some(static_target).flatten();
                (p.taken, target, source, class)
            }
            BranchKind::UncondDirect | BranchKind::Call => {
                if kind == BranchKind::Call {
                    self.ras.push(pc + INST_BYTES);
                }
                (true, static_target, direct_source, ExitClass::DirectUncond)
            }
            // RAS output is fast enough to hide the bubble on an L0 BTB hit
            // (§V-B).
            BranchKind::Return => (true, self.ras.pop(), PredSource::Ras, ExitClass::RasReturn),
            BranchKind::IndirectJump | BranchKind::IndirectCall => {
                let (target, source, class) = match self.btc.predict(pc) {
                    Some(t) => (
                        Some(t),
                        PredSource::BranchTargetCache,
                        ExitClass::IndirectBtc,
                    ),
                    None => (
                        self.ittage.predict(pc, hist),
                        PredSource::Ittage,
                        ExitClass::IndirectIttage,
                    ),
                };
                if kind == BranchKind::IndirectCall {
                    self.ras.push(pc + INST_BYTES);
                }
                (true, target, source, class)
            }
        };
        let pred = Prediction {
            taken,
            target,
            source,
        };
        (pred, hist, class)
    }

    /// [`Frontend::predict_branch`] at Decode (NoDCF, BTB-miss proxy blocks
    /// and resync stalls on proxy blocks): stashes the history snapshot for
    /// the branch about to be delivered and returns the prediction with the
    /// extra redirect bubbles of its exit.
    fn decode_predict(
        &mut self,
        pc: Addr,
        kind: BranchKind,
        static_target: Option<Addr>,
    ) -> (Prediction, u32) {
        let (pred, hist, class) =
            self.predict_branch(pc, kind, static_target, PredSource::DecodedTarget);
        self.snapshots.push_back((self.fid_next + 1, hist));
        let extra = match class {
            // Paper §III-C: resteer for returns stalls one extra cycle while
            // the DCF RAS is accessed.
            ExitClass::RasReturn => 1,
            ExitClass::IndirectIttage => self.cfg.ittage_bubbles,
            _ => 0,
        };
        (pred, extra)
    }

    fn update_cpl_ras(&mut self, kind: BranchKind, pc: Addr) {
        // The coupled RAS is updated in both modes (§IV-D2).
        if kind.is_call() {
            self.cpl_ras.push(pc + INST_BYTES);
        } else if kind.is_return() {
            self.cpl_ras.pop();
        }
    }

    fn deliver_one(
        &mut self,
        prog: &Program,
        pc: Addr,
        pred: Option<Prediction>,
        mode: FetchMode,
        cycle: Cycle,
        out: &mut TickOutput,
    ) {
        let fid = self.next_fid();
        let sinst = prog.inst_or_nop(pc);
        if sinst.class.is_branch() && self.snapshots.back().map(|&(f, _)| f) != Some(fid) {
            // Tracked branches get their BP1-time snapshot; everything else
            // falls back to the current speculative history.
            self.snapshots.push_back((fid, self.spec_hist));
        }
        if let Some(fc) = self.pending_resteer_cycle.take() {
            self.stats.resteer_latency_sum += cycle.saturating_sub(fc);
            self.stats.resteer_latency_count += 1;
        }
        self.pending_decode_resteer = false;
        if mode == FetchMode::Coupled && self.arch.has_dcf() {
            self.stats.delivered_coupled += 1;
            self.cpl_next_pc = pred
                .filter(|p| p.taken)
                .and_then(|p| p.target)
                .unwrap_or(pc + INST_BYTES);
        }
        self.stats.delivered += 1;
        out.delivered.push(DeliveredInst {
            fid,
            inst: FetchedInst { sinst, mode, pred },
        });
    }

    fn resteer_fetch_nodcf(&mut self, target: Addr, cycle: Cycle, extra_bubbles: u32) {
        self.clear_groups();
        self.coupled_pc = target;
        self.fe_busy = self.fe_busy.max(cycle + 1 + u64::from(extra_bubbles));
        self.pending_decode_resteer = true;
    }

    /// Decode-driven front-end resteer after a misfetch (BTB miss). DCF
    /// pays the full Decode→BP1 loop; ELF short-circuits it by entering
    /// coupled mode (§IV-A).
    fn resteer_frontend_decode(&mut self, target: Addr, cycle: Cycle, extra_bubbles: u32) {
        self.clear_groups();
        self.faq.flush();
        self.dcf_pc = target;
        self.dcf_busy = cycle + 1 + u64::from(extra_bubbles);
        self.fe_busy = self.fe_busy.max(cycle + 1 + u64::from(extra_bubbles));
        match self.arch {
            FetchArch::Elf(_) => self.enter_coupled(target),
            _ => {
                self.mode = FetchMode::Decoupled;
            }
        }
    }

    /// Builds a BTB-entry-shaped block by pre-decoding resident L0I data
    /// (the Boomerang-lite path of `btb_miss_probe`).
    fn predecode_entry(prog: &Program, start: Addr) -> BtbEntry {
        let mut e = BtbEntry::new(start, MAX_BLOCK_INSTS as u8);
        let mut count = MAX_BLOCK_INSTS as u8;
        for off in 0..MAX_BLOCK_INSTS as u8 {
            let inst = prog.inst_or_nop(seq_pc(start, off as usize));
            if let Some(k) = inst.branch_kind() {
                if !e.add_branch(BtbBranch {
                    offset: off,
                    kind: k,
                    target: inst.target,
                }) {
                    count = off;
                    break;
                }
                if k.is_unconditional() {
                    count = off + 1;
                    break;
                }
            }
        }
        e.inst_count = count.max(1);
        e
    }

    /// FAQ-driven instruction prefetch (Table II): on L0I idle cycles, walk
    /// queued fetch addresses oldest-to-youngest and prefetch lines not yet
    /// resident (the memory system enforces the 4-in-flight limit).
    fn issue_prefetches(&mut self, mem: &mut MemorySystem, cycle: Cycle) {
        let mut candidates = std::mem::take(&mut self.prefetch_scratch);
        debug_assert!(candidates.is_empty());
        for e in self.faq.iter().skip(1).take(8) {
            let line = e.start_pc & !63;
            if !mem.l0i_has(line) {
                candidates.push(line);
                let end_line = (e.end_pc() - INST_BYTES) & !63;
                if end_line != line {
                    candidates.push(end_line);
                }
            }
        }
        for a in candidates.drain(..) {
            if mem.prefetch_inst(a, cycle) {
                self.stats.faq_prefetches += 1;
            }
        }
        self.prefetch_scratch = candidates;
    }

    // ------------------------------------------------------------------
    // Idle-cycle analysis
    // ------------------------------------------------------------------

    /// Conservatively proves that ticks strictly before the returned cycle
    /// would be pure no-ops (per-cycle statistics aside) and returns the
    /// earliest cycle at which the front-end *may* act. `None` means a tick
    /// at `now` may already act. Used by the simulator's idle-cycle
    /// skipping: claiming a too-early wake-up merely shortens a skip;
    /// claiming idleness wrongly would desynchronize statistics, so every
    /// uncertain case answers `None`.
    #[must_use]
    pub fn quiescent_until(&self, now: Cycle) -> Option<Cycle> {
        let mut until = Cycle::MAX;

        // Decode: a queued group wakes us the cycle it becomes ready.
        match self.groups.front() {
            Some(g) if g.ready_at <= now => return None,
            Some(g) => until = until.min(g.ready_at),
            None => {}
        }

        let elf = self.elf_variant().is_some();
        if self.arch.has_dcf() {
            // Anything queued in the FAQ feeds fetch, resynchronization and
            // prefetch probes — too intertwined to prove idle.
            if !self.faq.is_empty() {
                return None;
            }
            // The ELF divergence comparison must be a structural no-op.
            if elf && !self.div.compare_is_noop() {
                return None;
            }
            // The DCF emits a block the moment it is free (the FAQ is
            // empty, so there is always room).
            if self.dcf_busy <= now {
                return None;
            }
            until = until.min(self.dcf_busy);
        }
        // Coupled fetch (NoDCF always) touches the I-cache whenever the
        // engine is free, no stall is pending, and there is room. Decoupled
        // fetch on an empty FAQ is a pure no-op; no wake-up candidate needed
        // for it.
        if self.mode == FetchMode::Coupled
            && self.stall.is_none()
            && self.groups.len() < self.cfg.max_inflight_groups
            && (!elf || self.div.coupled_has_room())
        {
            if self.fe_busy <= now {
                return None;
            }
            until = until.min(self.fe_busy);
        }
        (until > now).then_some(until)
    }

    /// Applies the per-cycle bookkeeping of `n` consecutive no-op ticks in
    /// bulk: the cycle count, the FAQ occupancy sample and the
    /// coupled/decoupled split. [`Frontend::tick_into`] charges its own
    /// cycle through this one body, so skipped and stepped runs report
    /// the same statistics.
    pub fn charge_idle_cycles(&mut self, n: u64) {
        self.stats.cycles += n;
        self.faq.sample_occupancy_n(n);
        if self.arch.has_dcf() {
            match self.mode {
                FetchMode::Coupled => self.stats.coupled_cycles += n,
                FetchMode::Decoupled => self.stats.decoupled_cycles += n,
            }
        }
    }

    // ------------------------------------------------------------------
    // Back-end interface
    // ------------------------------------------------------------------

    /// Full pipeline flush from the back-end (misprediction, RAW hazard,
    /// watchdog). Restores speculative predictor state and restarts fetch.
    pub fn flush(&mut self, ctx: &FlushCtx<'_>, cycle: Cycle) {
        self.stats.backend_resteers += 1;
        self.pending_resteer_cycle = Some(cycle);
        self.pending_decode_resteer = false;
        self.clear_groups();
        self.faq.flush();
        self.stall = None;
        self.div.reset();
        self.leftover_preds.clear();

        // History repair: retired history extended by the resolved outcomes
        // of surviving in-flight branches (exact, §IV-D realized in
        // simulator form).
        self.spec_hist = self.retired_hist;
        for &bit in ctx.hist_replay {
            self.spec_hist = (self.spec_hist << 1) | u128::from(bit);
        }
        let kept = self
            .snapshots
            .partition_point(|&(fid, _)| fid <= ctx.boundary_fid);
        self.snapshots.truncate(kept);

        // RAS repair: architectural stack plus in-flight replay. In-place
        // copies — flushes are frequent and the deep clones showed up hot.
        self.ras.clone_from(&self.retire_ras);
        self.cpl_ras.clone_from(&self.retire_ras);
        for op in ctx.ras_replay {
            match *op {
                RasOp::Push(ra) => {
                    self.ras.push(ra);
                    self.cpl_ras.push(ra);
                }
                RasOp::Pop => {
                    self.ras.pop();
                    self.cpl_ras.pop();
                }
            }
        }

        self.dcf_pc = ctx.restart_pc;
        self.dcf_busy = cycle + 1;
        self.fe_busy = cycle + 1;
        match self.arch {
            FetchArch::NoDcf => {
                self.coupled_pc = ctx.restart_pc;
            }
            FetchArch::Dcf => {
                self.mode = FetchMode::Decoupled;
            }
            FetchArch::Elf(_) => {
                self.enter_coupled(ctx.restart_pc);
            }
        }
    }

    /// Feeds one retired instruction back: BTB establishment (§III-A),
    /// predictor training, architectural RAS/history updates.
    pub fn retire(&mut self, info: &RetireInfo) {
        self.last_retired_fid = info.fid;
        // A retiring branch takes its own history entry; older entries
        // belong to instructions a divergence squash removed, which never
        // retire.
        let mut stashed = None;
        while let Some(&(fid, hist)) = self.snapshots.front() {
            if fid > info.fid {
                break;
            }
            self.snapshots.pop_front();
            if fid == info.fid {
                stashed = Some(hist);
            }
        }
        // BTB establishment at retirement.
        self.btb_builder.on_retire(
            info.pc,
            info.kind,
            info.taken,
            info.static_target,
            &mut self.btb_done,
        );
        for entry in self.btb_done.drain(..) {
            self.btb.install(entry);
        }
        let Some(kind) = info.kind else {
            return;
        };

        // Coupled-mode branches were predicted by history-free coupled
        // predictors; their stashed snapshot is the (stale) DCF history, so
        // train with the exact retired history instead.
        let snapshot = if info.mode == FetchMode::Coupled {
            self.retired_hist
        } else {
            stashed.unwrap_or(self.retired_hist)
        };
        match kind {
            BranchKind::CondDirect => {
                self.tage.train(info.pc, info.taken, snapshot);
                if info.mode == FetchMode::Coupled
                    && self
                        .elf_variant()
                        .is_some_and(ElfVariant::predicts_conditionals)
                {
                    // Coupled predictors train only on coupled-fetched
                    // branches (§IV-D3).
                    self.cpl_cond.train(info.pc, self.retired_hist, info.taken);
                }
            }
            BranchKind::IndirectJump | BranchKind::IndirectCall => {
                self.ittage.train(info.pc, info.next_pc, snapshot);
                self.btc.train(info.pc, info.next_pc);
                if info.mode == FetchMode::Coupled
                    && self
                        .elf_variant()
                        .is_some_and(ElfVariant::predicts_indirects)
                {
                    self.cpl_btc.train(info.pc, info.next_pc);
                }
            }
            _ => {}
        }
        // Architectural RAS and retired history.
        if kind.is_call() {
            self.retire_ras.push(info.pc + INST_BYTES);
        } else if kind.is_return() {
            self.retire_ras.pop();
        }
        if let Some(bit) = Self::history_bit(kind, info.taken) {
            self.retired_hist = (self.retired_hist << 1) | u128::from(bit);
        }
    }

    // ------------------------------------------------------------------
    // Checkpointing
    // ------------------------------------------------------------------

    /// Saves or restores the complete mutable front-end state: every
    /// predictor table, the BTB hierarchy and builder, speculative/retired
    /// history, the FAQ, in-flight fetch groups, mode/counter state, the
    /// divergence tracker and statistics. Configuration (`FrontendConfig`,
    /// arch) is not written — loading requires a front-end built from the
    /// same configuration and architecture.
    ///
    /// # Errors
    ///
    /// Loading fails on truncated bytes, state that does not fit the
    /// configuration, or branch-history fids that are out of order or not
    /// in flight.
    pub fn state(&mut self, io: &mut impl elf_types::StateIo) -> Result<(), elf_types::SnapError> {
        self.btb.state(io)?;
        self.btb_builder.state(io)?;
        self.tage.state(io)?;
        self.ittage.state(io)?;
        self.btc.state(io)?;
        self.ras.state(io)?;
        self.retire_ras.state(io)?;
        // Kind tag: 0 bimodal, 1 gshare; it must match the configuration.
        let gshare = matches!(self.cfg.cpl_cond_kind, CoupledCondKind::Gshare { .. });
        io.present(gshare, "gshare coupled predictor")?;
        self.cpl_cond.state(io)?;
        self.cpl_btc.state(io)?;
        self.cpl_ras.state(io)?;
        io.value(&mut self.spec_hist)?;
        io.value(&mut self.retired_hist)?;
        io.value(&mut self.snapshots)?;
        io.value(&mut self.dcf_pc)?;
        io.value(&mut self.dcf_busy)?;
        self.faq.state(io)?;
        io.value(&mut self.fe_busy)?;
        if io.loading() {
            // Hand the discarded groups' buffers back to the pool.
            self.clear_groups();
        }
        io.value(&mut self.groups)?;
        io.value(&mut self.mode)?;
        io.value(&mut self.coupled_pc)?;
        io.value(&mut self.cpl_next_pc)?;
        io.value(&mut self.stall)?;
        io.value(&mut self.fcc)?;
        io.value(&mut self.dcc)?;
        io.value(&mut self.dc)?;
        self.div.state(io)?;
        io.value(&mut self.leftover_preds)?;
        io.value(&mut self.fid_next)?;
        io.value(&mut self.last_retired_fid)?;
        io.value(&mut self.pending_resteer_cycle)?;
        io.value(&mut self.pending_decode_resteer)?;
        io.value(&mut self.stats)?;
        if io.loading() {
            if let Some(what) = self.history_violation() {
                return Err(elf_types::SnapError::mismatch(what));
            }
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy)]
enum CoupledDecision {
    Deliver(Prediction),
    Stall,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frontend() -> Frontend {
        Frontend::new(
            FrontendConfig::paper(),
            FetchArch::Elf(ElfVariant::U),
            0x1000,
        )
    }

    /// Saves `fe` and loads the bytes into a fresh front-end.
    fn reload(fe: &mut Frontend) -> Result<(), elf_types::SnapError> {
        let mut w = elf_types::SnapWriter::new();
        fe.state(&mut w).expect("saving cannot fail");
        let bytes = w.into_bytes();
        frontend().state(&mut elf_types::SnapReader::new(&bytes))
    }

    #[test]
    fn load_rejects_branch_history_out_of_fid_order() {
        let mut fe = frontend();
        fe.fid_next = 10;
        fe.last_retired_fid = 2;
        fe.snapshots.extend([(4, 0b1), (7, 0b10)]);
        assert_eq!(fe.invariant_violation(), None);
        assert_eq!(reload(&mut fe), Ok(()), "in-flight fids in order load");
        fe.snapshots = VecDeque::from([(7, 0b10), (4, 0b1)]);
        assert!(fe.invariant_violation().is_some());
        assert!(
            matches!(reload(&mut fe), Err(elf_types::SnapError::Mismatch { .. })),
            "out-of-order history fids must not load"
        );
    }
}
