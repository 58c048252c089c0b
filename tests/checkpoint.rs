//! Checkpoint/restore correctness: restoring a snapshot and continuing
//! must be **bit-identical** to never having checkpointed at all — same
//! `SimStats`, same flight-recorder tail — for every fetch architecture,
//! with and without an active fault plan, and across a serialized file
//! round-trip.

use elf_sim::core::{FaultKind, FaultPlan, SimConfig, SimStats, Simulator, Snapshot};
use elf_sim::frontend::{CoupledCondKind, ElfVariant, FetchArch};
use elf_sim::trace::workloads;
use proptest::prelude::*;

const ARCHS: [FetchArch; 7] = [
    FetchArch::NoDcf,
    FetchArch::Dcf,
    FetchArch::Elf(ElfVariant::L),
    FetchArch::Elf(ElfVariant::Ret),
    FetchArch::Elf(ElfVariant::Ind),
    FetchArch::Elf(ElfVariant::Cond),
    FetchArch::Elf(ElfVariant::U),
];

/// Runs `first + second` instructions straight through, and separately
/// `first`, checkpoint, restore, `second`; returns both endings.
fn split_vs_straight(
    cfg: SimConfig,
    workload: &str,
    first: u64,
    second: u64,
) -> (
    (SimStats, Vec<elf_sim::core::TimedEvent>),
    (SimStats, Vec<elf_sim::core::TimedEvent>),
) {
    let w = workloads::by_name(workload).expect("workload exists");

    let mut straight = Simulator::try_for_workload(cfg.clone(), &w).expect("valid config");
    straight.run(first).expect("straight first leg");
    let straight_stats = straight.run(second).expect("straight second leg");
    let straight_tail = straight.recorder().snapshot();

    let mut head = Simulator::try_for_workload(cfg, &w).expect("valid config");
    head.run(first).expect("checkpointed first leg");
    let snap = head.checkpoint();
    drop(head); // restore must not depend on the live simulator
    let bytes = snap.to_bytes();
    let snap = Snapshot::from_bytes(&bytes).expect("snapshot bytes decode");
    let mut resumed = Simulator::restore(&snap).expect("snapshot restores");
    let resumed_stats = resumed.run(second).expect("resumed second leg");
    let resumed_tail = resumed.recorder().snapshot();

    (
        (straight_stats, straight_tail),
        (resumed_stats, resumed_tail),
    )
}

#[test]
fn restore_is_bit_identical_for_every_arch() {
    for arch in ARCHS {
        let cfg = SimConfig::baseline(arch);
        let (straight, resumed) = split_vs_straight(cfg, "641.leela", 6_000, 6_000);
        assert_eq!(straight.0, resumed.0, "stats diverged for {}", arch.label());
        assert_eq!(
            straight.1,
            resumed.1,
            "recorder tail diverged for {}",
            arch.label()
        );
    }
}

#[test]
fn restore_is_bit_identical_with_active_faults() {
    let mut cfg = SimConfig::baseline(FetchArch::Elf(ElfVariant::U));
    cfg.fault = Some(
        FaultPlan::new(0xbead)
            .with(FaultKind::SpuriousFlush, 400)
            .with(FaultKind::CorruptBtb, 400)
            .with(FaultKind::EvictIcache, 400)
            .with(FaultKind::ForceMispredict, 400),
    );
    let (straight, resumed) = split_vs_straight(cfg, "641.leela", 8_000, 8_000);
    assert_eq!(
        straight.0, resumed.0,
        "stats diverged under fault injection"
    );
    assert_eq!(
        straight.1, resumed.1,
        "recorder tail diverged under fault injection"
    );
    // The plan above must actually fire for this test to mean anything.
    assert!(
        !straight.1.is_empty(),
        "fault plan produced no recorded events; test is vacuous"
    );
}

#[test]
fn snapshot_survives_a_file_round_trip() {
    let w = workloads::by_name("619.lbm").expect("workload exists");
    let cfg = SimConfig::baseline(FetchArch::Dcf);

    let mut straight = Simulator::try_for_workload(cfg.clone(), &w).unwrap();
    straight.run(5_000).unwrap();
    let want = straight.run(5_000).unwrap();

    let mut head = Simulator::try_for_workload(cfg, &w).unwrap();
    head.run(5_000).unwrap();
    let path = std::env::temp_dir().join(format!("elfsim-ckpt-test-{}.ckpt", std::process::id()));
    head.checkpoint()
        .write_to(&path)
        .expect("checkpoint writes");
    let snap = Snapshot::read_from(&path).expect("checkpoint reads back");
    std::fs::remove_file(&path).ok();
    let got = Simulator::restore(&snap)
        .expect("restores")
        .run(5_000)
        .unwrap();

    assert_eq!(want, got, "file round-trip changed the continuation");
}

#[test]
fn snapshot_reports_metadata_and_rejects_corruption() {
    let w = workloads::by_name("641.leela").unwrap();
    let mut sim = Simulator::try_for_workload(SimConfig::baseline(FetchArch::NoDcf), &w).unwrap();
    sim.run(3_000).unwrap();
    let snap = sim.checkpoint();
    assert_eq!(snap.cycle, sim.cycle());
    assert_eq!(snap.retired, sim.retired());

    let mut bytes = snap.to_bytes();
    // Truncation and magic corruption must both fail loudly, not panic.
    assert!(Snapshot::from_bytes(&bytes[..bytes.len() / 2]).is_err());
    bytes[0] ^= 0xff;
    assert!(Snapshot::from_bytes(&bytes).is_err());
}

#[test]
fn chunked_runs_with_periodic_checkpoints_match_one_shot() {
    // Checkpointing every N instructions while running in chunks must not
    // perturb the tick sequence — this is what `elfsim --checkpoint-every`
    // relies on.
    let w = workloads::by_name("641.leela").unwrap();
    let cfg = SimConfig::baseline(FetchArch::Elf(ElfVariant::Cond));

    let mut one_shot = Simulator::try_for_workload(cfg.clone(), &w).unwrap();
    let want = one_shot.run(12_000).unwrap();

    let mut chunked = Simulator::try_for_workload(cfg, &w).unwrap();
    let mut last = None;
    for milestone in [3_000u64, 6_000, 9_000, 12_000] {
        // Absolute milestones, not `run(3_000)` four times: each chunk
        // overshoots by up to a retire-width of instructions, and chaining
        // relative chunks would accumulate that overshoot into the target.
        last = Some(chunked.run(milestone - chunked.retired()).unwrap());
        let _snap = chunked.checkpoint();
    }
    assert_eq!(want, last.unwrap(), "chunked+checkpointed run diverged");
}

#[test]
fn restore_inside_a_skipped_idle_region_is_bit_identical() {
    // Idle-cycle skipping advances time in bulk; a checkpoint can land at
    // a retirement boundary where the machine has gone quiet and the very
    // next act of the continuation is a bulk skip. Probe split points
    // until we find one whose restored continuation starts by skipping,
    // then require the full second leg to match the straight-through run.
    let w = workloads::by_name("641.leela").expect("workload exists");
    let mut found = None;
    'search: for arch in ARCHS {
        let cfg = SimConfig::baseline(arch);
        let mut head = Simulator::try_for_workload(cfg, &w).expect("valid config");
        for milestone in (500..=12_000u64).step_by(500) {
            head.run(milestone - head.retired()).expect("probe leg");
            let snap = head.checkpoint();
            let mut probe = Simulator::restore(&snap).expect("snapshot restores");
            let at_restore = probe.skipped_cycles();
            assert_eq!(
                at_restore,
                head.skipped_cycles(),
                "skip counter lost in the snapshot"
            );
            probe.run(1).expect("probe continuation");
            if probe.skipped_cycles() > at_restore {
                found = Some((arch, head.retired()));
                break 'search;
            }
        }
    }
    let (arch, first) =
        found.expect("no probed split point landed on an idle span; widen the search");

    let cfg = SimConfig::baseline(arch);
    let (straight, resumed) = split_vs_straight(cfg, "641.leela", first, 5_000);
    assert_eq!(
        straight.0,
        resumed.0,
        "stats diverged across an idle-region checkpoint ({})",
        arch.label()
    );
    assert_eq!(
        straight.1,
        resumed.1,
        "recorder tail diverged across an idle-region checkpoint ({})",
        arch.label()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Satellite invariant: for any fetch architecture, any split point and
    /// any continuation length, with or without fault injection, restoring
    /// a checkpoint reproduces the straight-through run exactly.
    #[test]
    fn checkpoint_restore_run_is_bit_identical(
        arch_sel in 0usize..7,
        first in 2_000u64..8_000,
        second in 1_000u64..6_000,
        faulty in any::<bool>(),
        fault_seed in 0u64..100_000,
    ) {
        let mut cfg = SimConfig::baseline(ARCHS[arch_sel]);
        if faulty {
            cfg.fault = Some(FaultPlan::uniform(300, fault_seed));
        }
        let (straight, resumed) = split_vs_straight(cfg, "641.leela", first, second);
        prop_assert_eq!(straight.0, resumed.0, "stats diverged");
        prop_assert_eq!(straight.1, resumed.1, "recorder tail diverged");
    }
}

/// FNV-1a/64 over a byte string.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// FNV-1a/64 digests of `Snapshot::to_bytes()` for every arch (in `ARCHS`
/// order) × workload, three checkpoints each: 20k warm-up, then one
/// checkpoint every 7,777 retired instructions.
const PINNED_SNAPSHOT_DIGESTS: [(&str, [[u64; 3]; 7]); 2] = [
    (
        "641.leela",
        [
            [0x5c35cd058fde77a8, 0x7529cf837c97034c, 0xbb1a3d90e3e74afe],
            [0x62851932006dbf48, 0xaa0f6f7e04c7931c, 0x707d5320a52477c8],
            [0x0dc865217e9dbfc0, 0x8cac809bb14378ee, 0xf76f840109767a37],
            [0x917f5bf0bad67851, 0x5c82827b619d45db, 0x5ee44036e1c4568e],
            [0x1ad3594d8551a4c2, 0x4a377f3b55caff5a, 0x9dc21d240db3100a],
            [0xb7100cb8ecd61ddc, 0x34d3fb26024a3f72, 0x2090b7a169d6bc06],
            [0x956771cdb9c972f7, 0xe561451691488045, 0x82fcb1e1c75c68dd],
        ],
    ),
    (
        "605.mcf",
        [
            [0x8f1a04da4d51ec01, 0xd27995fd8f891c08, 0xdb1837b3e26129a5],
            [0x979be473d503db37, 0x215ee95045b328ee, 0x54b76c702a3fdbb0],
            [0xbfcd821dc675c4e3, 0x0798514000f96cb4, 0xb27d6991d90020cf],
            [0xe1ea9ff0f6362b14, 0xc563d4a4759be6ea, 0x89690dbc825bb3b8],
            [0x5ce42d3c9f5d669e, 0x84514c5dcb993ba4, 0x49ed53aba9a36f73],
            [0xccf7dd75e3565678, 0x3e6b82855f508ea9, 0xf0380869c83b358e],
            [0xbf191b9ab416f294, 0x90cd5a7cc66ddfa2, 0xed1899b7eed19f02],
        ],
    ),
];

/// FNV-1a/64 digests of the same three checkpoints of `641.leela` for
/// every arch, with every piece of optional state switched on: an active
/// fault plan (injector state and plan bytes), metrics, the invariant
/// checker, idle-skip off and the gshare coupled predictor.
const PINNED_OPTIONAL_STATE_DIGESTS: [[u64; 3]; 7] = [
    [0x91c6ad251416de62, 0x63e253c54c0cf5b5, 0x68448f6d90260c15],
    [0xbe2cd5dbf1b6d9fb, 0x25b99caf2b196e5d, 0x608ff1a5d9e66068],
    [0x4df96e210d1262f8, 0x380206cb0740a6a2, 0xac02e079251bf19e],
    [0x3d3376d3b09dcf50, 0xc59d3c2bd68f30ae, 0xe765fbd321df5af6],
    [0x1bd214283f83a1df, 0xe137e6c45828c167, 0x2327f914bfd6dbda],
    [0x9a3fcc0c827903fd, 0x3288375c4fc4a22c, 0x4b08f50cefa1937b],
    [0x1493bdd4db4e5a58, 0xba0858ab866cb4e3, 0xe22187349c1b5cb2],
];

/// Digests three checkpoints (20k warm-up, then one every 7,777 retired
/// instructions) of `workload` for every arch, requiring each restored
/// simulator to checkpoint back to the bytes it was built from.
fn snapshot_digests(workload: &str, cfg: impl Fn(FetchArch) -> SimConfig) -> Vec<[u64; 3]> {
    let w = workloads::by_name(workload).expect("workload exists");
    let mut per_arch = Vec::new();
    for arch in ARCHS {
        let mut sim = Simulator::try_for_workload(cfg(arch), &w).expect("valid config");
        sim.warm_up(20_000).expect("warm-up");
        let mut got = [0u64; 3];
        for slot in &mut got {
            sim.run(7_777).expect("stride");
            let snap = sim.checkpoint();
            let bytes = snap.to_bytes();
            *slot = fnv1a64(&bytes);
            let again = Simulator::restore(&snap)
                .expect("snapshot restores")
                .checkpoint();
            assert!(
                again.to_bytes() == bytes,
                "restore→checkpoint changed the bytes ({workload}, {})",
                arch.label()
            );
        }
        per_arch.push(got);
    }
    per_arch
}

#[test]
fn snapshot_bytes_are_pinned() {
    // The snapshot format is a contract (resume files outlive builds): any
    // change to the back-end's or front-end's internal bookkeeping must
    // serialize to exactly the bytes recorded here, and a restored
    // simulator must checkpoint back to the same bytes it was built from.
    for (workload, want) in PINNED_SNAPSHOT_DIGESTS {
        let got = snapshot_digests(workload, SimConfig::baseline);
        for ((arch, want), got) in ARCHS.iter().zip(want).zip(got) {
            assert_eq!(
                want,
                got,
                "snapshot bytes changed ({workload}, {})",
                arch.label()
            );
        }
    }
}

#[test]
fn optional_state_snapshot_bytes_are_pinned() {
    // The baseline pins never write the injector, metrics or checker
    // payloads, the fault-plan config bytes or the gshare branch.
    let got = snapshot_digests("641.leela", |arch| {
        let mut cfg = SimConfig::baseline(arch);
        cfg.fault = Some(FaultPlan::uniform(300, 7));
        cfg.metrics = true;
        cfg.check = true;
        cfg.idle_skip = false;
        cfg.frontend.cpl_cond_kind = CoupledCondKind::Gshare { hist_bits: 9 };
        cfg
    });
    for ((arch, want), got) in ARCHS.iter().zip(PINNED_OPTIONAL_STATE_DIGESTS).zip(got) {
        assert_eq!(
            want,
            got,
            "optional-state snapshot bytes changed ({})",
            arch.label()
        );
    }
}

/// FNV-1a/64 digests of the same three checkpoints of `641.leela` for
/// every arch, with the front-end extension switches flipped from their
/// Table II defaults: the Boomerang-style BTB-miss probe on (pre-decoded
/// blocks in `dcf_generate`) and FAQ-driven instruction prefetch off.
const PINNED_FRONTEND_EXTENSION_DIGESTS: [[u64; 3]; 7] = [
    [0x2ba2ae34cafd932e, 0x31897dcac263067a, 0x4d548d9088aa329c],
    [0x5c1c5d41312a4f57, 0xcce337861d19cd15, 0xceda46f7a20e4fe1],
    [0x4babd00a449fc721, 0xc09b95f8b233be4a, 0x575114e440ea596b],
    [0x107c25c2052c12e8, 0xad5327e393d11816, 0x5c83241d5af4dab2],
    [0xfdde96fe9aefdd9a, 0xeae8111cbf9710d8, 0x68e4bfd85684ecb3],
    [0xfa5dfe88ece9830f, 0xd6d1bf7b33e8f3e2, 0xf137a8832f98beb4],
    [0x0782ed77fd07c993, 0xfaeea83bad801b35, 0x1e51a048c14c9381],
];

#[test]
fn frontend_extension_snapshot_bytes_are_pinned() {
    // Neither table above runs the BTB-miss pre-decode path or the
    // prefetch-off gate.
    let got = snapshot_digests("641.leela", |arch| {
        let mut cfg = SimConfig::baseline(arch);
        cfg.frontend.btb_miss_probe = true;
        cfg.frontend.ifetch_prefetch = false;
        cfg
    });
    for ((arch, want), got) in ARCHS.iter().zip(PINNED_FRONTEND_EXTENSION_DIGESTS).zip(got) {
        assert_eq!(
            want,
            got,
            "front-end extension snapshot bytes changed ({})",
            arch.label()
        );
    }
}
