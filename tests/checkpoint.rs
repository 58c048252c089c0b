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
    // Truncation, a flipped bit mid-file and magic corruption must all
    // fail loudly, not panic and not resume.
    assert!(Snapshot::from_bytes(&bytes[..bytes.len() / 2]).is_err());
    let mut flipped = bytes.clone();
    flipped[bytes.len() / 2] ^= 0x01;
    let err = Snapshot::from_bytes(&flipped).expect_err("a flipped bit is caught");
    assert!(err.to_string().contains("checksum"), "{err}");
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
            [0x46248c0f7783ccc8, 0xd0441ac94ed3c852, 0x3e7c2b1a1f67b600],
            [0xda7007126ca32e67, 0xfa8e5e20f001df96, 0x90c736b83622a548],
            [0x5a4a23212d204423, 0xf969b68424548242, 0x986863321126e2b6],
            [0xd01440633d239ce1, 0x7d29fc35a287e066, 0xacd73ce1b9594cf9],
            [0x0a312351dcdb5685, 0xc3fac93c1b201ffd, 0x9d67ca42b1a4f58e],
            [0x8263df0dcbbdfd21, 0x5fa4548c825191ee, 0x781f0fdc063bdd81],
            [0x2f936824933d07b4, 0x8b86deeb3885a893, 0x0737b0fd51d53608],
        ],
    ),
    (
        "605.mcf",
        [
            [0x22d00f9969ce004b, 0xaa48e7ae1157d915, 0x60ca376ae1d7e0b7],
            [0x4723c52eae68193d, 0xbad3d8bfabe0472b, 0xfcf004d8f5bd23f1],
            [0x4095d73caebe5311, 0x172ef6346824af01, 0x97382785d97a106a],
            [0x00d87a5129da6d16, 0x4bb113b5194e430f, 0x061b3be7d729b6a4],
            [0xd7dbce0c37ff69b8, 0x73e1581f099bafcf, 0x40bfb1f8588f77a6],
            [0x39a231997c9b98c7, 0x9137cbedfa94f94f, 0x83e29aa3793248cf],
            [0x4fe0ca8633dc6baa, 0x0da701ef5dd3c637, 0x62ab665577b982d1],
        ],
    ),
];

/// FNV-1a/64 digests of the same three checkpoints of `641.leela` for
/// every arch, with every piece of optional state switched on: an active
/// fault plan (injector state and plan bytes), metrics, the invariant
/// checker, idle-skip off and the gshare coupled predictor.
const PINNED_OPTIONAL_STATE_DIGESTS: [[u64; 3]; 7] = [
    [0x7214349ef44368ca, 0x563a9b53c770833f, 0x14cd417aa148b0f6],
    [0xad17994474063591, 0xfc686eb84e5f7200, 0x3fbcbf5f89dc2839],
    [0x404d60ed76d4c5d0, 0xa61e6d1b6f449518, 0x86e7baa614a22bdf],
    [0x44cf5d2d927c8347, 0x6717a55f516ae3c7, 0x0ebe1f883e1f3541],
    [0x5289e532a9c3d8c4, 0x02aaeb4caaaf0ced, 0xe3c87ba5c8d983b7],
    [0xc77bb0d6552a50cd, 0x4267e90b95eea2db, 0xdc3cad52dac472d1],
    [0x65bae0c17d731270, 0x5bed89de53aedf1c, 0xd280b871a2a68684],
];

/// One digest row per arch as Rust source, each line prefixed by `indent`.
fn rows_source(rows: &[[u64; 3]], indent: &str) -> String {
    rows.iter()
        .map(|r| {
            format!(
                "{indent}[{:#018x}, {:#018x}, {:#018x}],\n",
                r[0], r[1], r[2]
            )
        })
        .collect()
}

/// When the recomputed table differs from the pinned constant `name`,
/// prints `body`, its Rust source, so one failing run re-records it; the
/// caller's exact comparison still fails the test.
fn print_if_changed(name: &str, changed: bool, body: &str) {
    if changed {
        eprint!("recomputed {name}:\n{body}");
    }
}

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
    let got: Vec<Vec<[u64; 3]>> = PINNED_SNAPSHOT_DIGESTS
        .iter()
        .map(|(workload, _)| snapshot_digests(workload, SimConfig::baseline))
        .collect();
    let body: String = PINNED_SNAPSHOT_DIGESTS
        .iter()
        .zip(&got)
        .map(|((workload, _), rows)| {
            format!(
                "    (\n        {workload:?},\n        [\n{}        ],\n    ),\n",
                rows_source(rows, "            ")
            )
        })
        .collect();
    print_if_changed(
        "PINNED_SNAPSHOT_DIGESTS",
        PINNED_SNAPSHOT_DIGESTS
            .iter()
            .zip(&got)
            .any(|((_, want), got)| want[..] != got[..]),
        &body,
    );
    for ((workload, want), got) in PINNED_SNAPSHOT_DIGESTS.into_iter().zip(got) {
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
    print_if_changed(
        "PINNED_OPTIONAL_STATE_DIGESTS",
        PINNED_OPTIONAL_STATE_DIGESTS[..] != got[..],
        &rows_source(&got, "    "),
    );
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
    [0xd86cb0120576d33b, 0x6ef6f364a2a7b2a2, 0xb2b4c7786d8bd51b],
    [0x6d7572dbcd8ddb49, 0x6cd9e145b8e3997e, 0xee7d07446d3a1b95],
    [0x6c81f5c3c8b9b75c, 0xff27ff0a21767c94, 0x8b1022661ba8ca53],
    [0xa4c324997e777dfb, 0x223bde050275361a, 0x1fb505db8cc1026c],
    [0x4568480fddb89f85, 0x5460f95dfbef855a, 0xd044e20c39a9fd0c],
    [0xf2f824a2ba1041e2, 0xe71599c0e0b676a9, 0x203185300f7cd5ca],
    [0xaed0d899b582e14c, 0x25b73285b4f91d22, 0x250b5184c8519189],
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
    print_if_changed(
        "PINNED_FRONTEND_EXTENSION_DIGESTS",
        PINNED_FRONTEND_EXTENSION_DIGESTS[..] != got[..],
        &rows_source(&got, "    "),
    );
    for ((arch, want), got) in ARCHS.iter().zip(PINNED_FRONTEND_EXTENSION_DIGESTS).zip(got) {
        assert_eq!(
            want,
            got,
            "front-end extension snapshot bytes changed ({})",
            arch.label()
        );
    }
}
