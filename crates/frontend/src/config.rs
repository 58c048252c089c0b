//! Front-end configuration.

use elf_btb::BtbConfig;
use elf_predictors::tage::TageConfig;

/// Which coupled-mode predictors the fetcher implements (paper §IV-C1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElfVariant {
    /// Limited ELF: sequential-only coupled fetch (resteers at Decode for
    /// direct unconditionals, stalls at every other control-flow decision).
    L,
    /// L-ELF + 32-entry coupled RAS: speculates past returns.
    Ret,
    /// L-ELF + 64-entry coupled branch target cache: speculates past
    /// indirect branches that hit the BTC.
    Ind,
    /// L-ELF + 2K-entry 3-bit bimodal: speculates past conditionals whose
    /// counter is saturated.
    Cond,
    /// Unlimited ELF: all of the above.
    U,
}

impl ElfVariant {
    /// Whether the coupled fetcher predicts returns.
    #[must_use]
    pub fn predicts_returns(self) -> bool {
        matches!(self, ElfVariant::Ret | ElfVariant::U)
    }

    /// Whether the coupled fetcher predicts non-return indirects.
    #[must_use]
    pub fn predicts_indirects(self) -> bool {
        matches!(self, ElfVariant::Ind | ElfVariant::U)
    }

    /// Whether the coupled fetcher predicts conditionals.
    #[must_use]
    pub fn predicts_conditionals(self) -> bool {
        matches!(self, ElfVariant::Cond | ElfVariant::U)
    }

    /// Display label used in the figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ElfVariant::L => "L-ELF",
            ElfVariant::Ret => "RET-ELF",
            ElfVariant::Ind => "IND-ELF",
            ElfVariant::Cond => "COND-ELF",
            ElfVariant::U => "U-ELF",
        }
    }

    /// All variants in the order of Figure 7/8.
    pub const ALL: [ElfVariant; 5] = [
        ElfVariant::L,
        ElfVariant::Ret,
        ElfVariant::Ind,
        ElfVariant::Cond,
        ElfVariant::U,
    ];
}

/// Which conditional predictor the coupled fetcher implements (COND-/U-ELF).
///
/// The paper evaluates the bimodal and leaves "a better coupled predictor"
/// to future work (§VII); [`CoupledCondKind::Gshare`] is that extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoupledCondKind {
    /// Table II: 2K-entry bimodal with 3-bit counters.
    Bimodal,
    /// Extension: gshare over the retired global history.
    Gshare {
        /// History bits XORed into the index.
        hist_bits: u8,
    },
}

/// Fetch architecture selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FetchArch {
    /// Coupled-only pipeline, no decoupled fetcher (Fig. 6 comparison).
    NoDcf,
    /// Baseline decoupled fetcher (the paper's baseline, Table II).
    Dcf,
    /// ELastic Fetching with the given coupled-predictor variant.
    Elf(ElfVariant),
}

impl FetchArch {
    /// Display label used in the figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FetchArch::NoDcf => "NoDCF",
            FetchArch::Dcf => "DCF",
            FetchArch::Elf(v) => v.label(),
        }
    }

    /// Whether this architecture has a decoupled fetcher at all.
    #[must_use]
    pub fn has_dcf(self) -> bool {
        !matches!(self, FetchArch::NoDcf)
    }
}

impl std::str::FromStr for FetchArch {
    type Err = String;

    /// Parses a figure label in any case (`u-elf`, `NoDCF`) or an ELF
    /// variant's short form (`u`, `l`, `ret`, `ind`, `cond`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        [FetchArch::NoDcf, FetchArch::Dcf]
            .into_iter()
            .chain(ElfVariant::ALL.map(FetchArch::Elf))
            .find(|a| {
                let label = a.label();
                label.eq_ignore_ascii_case(s)
                    || label
                        .strip_suffix("-ELF")
                        .is_some_and(|short| short.eq_ignore_ascii_case(s))
            })
            .ok_or_else(|| format!("unknown architecture {s:?}"))
    }
}

/// All front-end parameters (defaults = Table II).
#[derive(Debug, Clone, PartialEq)]
pub struct FrontendConfig {
    /// Instructions fetched per cycle (Table II: 8).
    pub fetch_width: usize,
    /// FAQ capacity in blocks (Table II: 32).
    pub faq_entries: usize,
    /// Delay from BP1 generation to FE consumability: a block generated in
    /// BP1 during cycle x traverses BP2 (x+1) and the FAQ stage (x+2) and
    /// is fetchable at x+3 — the 3-cycle BP1→FE latency of Table II.
    pub bp_to_faq_delay: u32,
    /// Fetch-to-decode latency in cycles.
    pub decode_latency: u32,
    /// ITTAGE access penalty in bubbles when the L0 indirect misses (§III-B).
    pub ittage_bubbles: u32,
    /// BTB geometry.
    pub btb: BtbConfig,
    /// TAGE geometry.
    pub tage: TageConfig,
    /// Decoupled RAS entries.
    pub ras_entries: usize,
    /// Coupled bimodal entries (COND-/U-ELF).
    pub cpl_bimodal_entries: usize,
    /// Coupled bimodal counter bits.
    pub cpl_bimodal_bits: u8,
    /// Coupled BTC entries (IND-/U-ELF).
    pub cpl_btc_entries: usize,
    /// Coupled RAS entries (RET-/U-ELF).
    pub cpl_ras_entries: usize,
    /// COND-ELF saturation filter: require a saturated counter to speculate
    /// past a conditional (§VI-B; ablation knob).
    pub cond_requires_saturation: bool,
    /// Which coupled conditional predictor to build (paper: bimodal).
    pub cpl_cond_kind: CoupledCondKind,
    /// Divergence bitvector length in instructions (Table II: 64).
    pub bitvec_entries: usize,
    /// Divergence target-queue length (Table II: 16).
    pub target_queue_entries: usize,
    /// Maximum fetch groups in flight between FE and DEC.
    pub max_inflight_groups: usize,
    /// Whether FAQ-driven instruction prefetch is enabled (Table II: yes).
    pub ifetch_prefetch: bool,
    /// Extension (paper §VI-C): on an all-level BTB miss, probe the L0I and
    /// pre-decode branch info from resident cache data instead of streaming
    /// a blind sequential proxy — a lightweight Boomerang [Kumar et al.,
    /// HPCA'17]. Off in the Table II baseline.
    pub btb_miss_probe: bool,
}

elf_types::snap_enum!(ElfVariant { 0 => L, 1 => Ret, 2 => Ind, 3 => Cond, 4 => U });
elf_types::snap_enum!(CoupledCondKind { 0 => Bimodal, 1 => Gshare { hist_bits } });
elf_types::snap_enum!(FetchArch { 0 => NoDcf, 1 => Dcf, 2 => Elf(variant) });
elf_types::snap_struct!(FrontendConfig {
    fetch_width,
    faq_entries,
    bp_to_faq_delay,
    decode_latency,
    ittage_bubbles,
    btb,
    tage,
    ras_entries,
    cpl_bimodal_entries,
    cpl_bimodal_bits,
    cpl_btc_entries,
    cpl_ras_entries,
    cond_requires_saturation,
    cpl_cond_kind,
    bitvec_entries,
    target_queue_entries,
    max_inflight_groups,
    ifetch_prefetch,
    btb_miss_probe,
});

impl FrontendConfig {
    /// The Table II baseline configuration.
    #[must_use]
    pub fn paper() -> Self {
        FrontendConfig {
            fetch_width: 8,
            faq_entries: 32,
            bp_to_faq_delay: 3,
            decode_latency: 1,
            ittage_bubbles: 3,
            btb: BtbConfig::paper(),
            tage: TageConfig::paper(),
            ras_entries: 32,
            cpl_bimodal_entries: 2048,
            cpl_bimodal_bits: 3,
            cpl_btc_entries: 64,
            cpl_ras_entries: 32,
            cond_requires_saturation: true,
            cpl_cond_kind: CoupledCondKind::Bimodal,
            bitvec_entries: 64,
            target_queue_entries: 16,
            max_inflight_groups: 3,
            ifetch_prefetch: true,
            btb_miss_probe: false,
        }
    }
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_capabilities() {
        use ElfVariant::*;
        assert!(!L.predicts_returns() && !L.predicts_indirects() && !L.predicts_conditionals());
        assert!(Ret.predicts_returns() && !Ret.predicts_conditionals());
        assert!(Ind.predicts_indirects() && !Ind.predicts_returns());
        assert!(Cond.predicts_conditionals() && !Cond.predicts_indirects());
        assert!(U.predicts_returns() && U.predicts_indirects() && U.predicts_conditionals());
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(FetchArch::Dcf.label(), "DCF");
        assert_eq!(FetchArch::NoDcf.label(), "NoDCF");
        assert_eq!(FetchArch::Elf(ElfVariant::U).label(), "U-ELF");
        assert_eq!(FetchArch::Elf(ElfVariant::Cond).label(), "COND-ELF");
    }

    #[test]
    fn arch_parser_takes_labels_in_any_case_and_short_forms() {
        for arch in [FetchArch::NoDcf, FetchArch::Dcf]
            .into_iter()
            .chain(ElfVariant::ALL.map(FetchArch::Elf))
        {
            assert_eq!(arch.label().parse(), Ok(arch));
            assert_eq!(arch.label().to_ascii_lowercase().parse(), Ok(arch));
        }
        assert_eq!("nodcf".parse(), Ok(FetchArch::NoDcf));
        assert_eq!("U".parse(), Ok(FetchArch::Elf(ElfVariant::U)));
        assert_eq!("ret".parse(), Ok(FetchArch::Elf(ElfVariant::Ret)));
        assert_eq!("cond".parse(), Ok(FetchArch::Elf(ElfVariant::Cond)));
        for bad in ["vliw", "", "elf", "-elf", "dcf-elf", "u-elf "] {
            assert!(bad.parse::<FetchArch>().is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn paper_config_matches_table2() {
        let c = FrontendConfig::paper();
        assert_eq!(c.fetch_width, 8);
        assert_eq!(c.faq_entries, 32);
        // BP1→FE latency = 3 cycles (BP1, BP2, FAQ — Table II).
        assert_eq!(c.bp_to_faq_delay, 3);
        assert_eq!(c.cpl_bimodal_entries, 2048);
        assert_eq!(c.cpl_bimodal_bits, 3);
        assert_eq!(c.cpl_btc_entries, 64);
        assert_eq!(c.cpl_ras_entries, 32);
        assert_eq!(c.bitvec_entries, 64);
        assert_eq!(c.target_queue_entries, 16);
        assert!(c.has_dcf_defaults());
    }

    impl FrontendConfig {
        fn has_dcf_defaults(&self) -> bool {
            self.ifetch_prefetch && self.cond_requires_saturation
        }
    }
}
