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
            [0x8ba61de2f1197b6b, 0x895ae7b77995ab0c, 0x223a4076e0afd42f],
            [0xfa6ce8f6101a146f, 0xf8fd8ef6efe1ffd0, 0x0926c00ae242036e],
            [0xaba2e4ebb65e7b1f, 0xb39cde545bb10cd7, 0xb0b0d12db2a30938],
            [0x5587bf1fc2f5ffe0, 0xa987245c1a670266, 0x768229b770d8b590],
            [0xe086e1e6e691d71f, 0xf313b5a5270cb91a, 0x7b0061653e3c5417],
            [0xeb3ac469d4ce9661, 0x78c950e4826d518d, 0xfc2dac0737fae3df],
            [0x7af64c86fd83e7fa, 0x03e9e1ed610e2f2b, 0xb63e5af1d351e367],
        ],
    ),
    (
        "605.mcf",
        [
            [0xfa3524d28922f953, 0xf4ea32657e6e6b42, 0xee78db89ee2bbfd1],
            [0xb11cff98ae4ae3ee, 0xa5a4a65e904aa905, 0x8f99a40d6f87ac66],
            [0x85a05ba2966b4801, 0xa7db469fb63b7a4f, 0xa9478c054435afed],
            [0x081b804ee98a30a0, 0x320329ea410436a1, 0xfefe204196e61454],
            [0x70545710a9784ed9, 0x163464e0c7b5f04f, 0x548d2434da86a618],
            [0x301b4612a6229318, 0x3927d00fd560d683, 0x42b62671c7e5ba24],
            [0x8835dffe3419f996, 0xbc394d3aef3601fe, 0x67f685cd21dbd1ef],
        ],
    ),
];

/// FNV-1a/64 digests of the same three checkpoints of `641.leela` for
/// every arch, with every piece of optional state switched on: an active
/// fault plan (injector state and plan bytes), metrics, the invariant
/// checker, idle-skip off and the gshare coupled predictor.
const PINNED_OPTIONAL_STATE_DIGESTS: [[u64; 3]; 7] = [
    [0xa4f8c6935e67d626, 0x00a8bec281347cbe, 0xc0aae49f22d44ec0],
    [0x01a17a55a97e6a6f, 0x306c4f08c20ab9ce, 0x492d427c75879ef1],
    [0xc88b84c78838ce66, 0xabbff563fa8f22ae, 0x9619ee81d3cbf9cc],
    [0x4bd51ab1666c72ca, 0xe9c86fc5e76833ad, 0xaad15cbc2e0673a2],
    [0x0e974881edd7c180, 0xb8c5c1ebf957613d, 0xf8fb114e523642a4],
    [0x4c8447ba21eb77a1, 0xf6bad1a440507828, 0xaefa56f482323661],
    [0xb9a10c46c1c8bc89, 0xac9d4658d9fcbdd9, 0x567a40d535d17aa6],
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
    [0x5d0c435255a62c17, 0x66dfdb8d8e0573a4, 0xbc11d5dd2ff5a4e0],
    [0x1eb345e27fa1b5be, 0xd88adda382688ad2, 0xadbcaf2327ca28de],
    [0xbaa5d9995bf1d855, 0x232ca08bb50bea36, 0x54eaa0bb3538a802],
    [0xa330b30fce37baf0, 0x389b8014588cacde, 0x4b276256de70d1ef],
    [0xd11529981f8a1c4f, 0x8cd6fd720a13dda4, 0xcf873e7a605eee28],
    [0xee1559a2fb4c0ad5, 0x8b47adcef17fe861, 0x152497c136d69f0d],
    [0x38db8cd418fbc5b7, 0x9ad84cc462c2b3da, 0xdb5ec3969c11fa4c],
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
