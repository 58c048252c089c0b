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
            [0xd2ee7c618a27091e, 0xe847a8d75a7ff1f1, 0x100cee9a1786de03],
            [0xcbd70d6fd657a244, 0x18e422d90cb6fc2a, 0xca69f9888e4d8fa6],
            [0x2da5cd6a4066170b, 0x5cce76b0c77504d5, 0x71b07131595e0785],
            [0x90299bf3693e140a, 0x8a3abdfa6383941d, 0x26fc05e476d8ca8a],
            [0x9d0002160471f4df, 0xdf54eedbdb07bf82, 0x05cbd182630afa21],
            [0x688c77e3c8a9eea7, 0xcc41521611a14222, 0x1a635f62a494af70],
            [0xaa251cad18178bca, 0x2b6a8435bdb4baa5, 0xa621c9a80a8724ee],
        ],
    ),
    (
        "605.mcf",
        [
            [0x2478af62771b183a, 0x310842c69b2be334, 0x56910d8a6f0303df],
            [0x99dbfeb66dc8a814, 0xb6738b90625782ef, 0x1edd4c45b7794153],
            [0x6a1dd8ab9bfcc5f8, 0xd92658cc965a8b16, 0xee48b5f7dfc64175],
            [0x7e98303783a4a484, 0x630e679643644074, 0xf8632d96b3ba7f9a],
            [0x475534900ebe3a79, 0xbad61d954d04ab28, 0x8b3747735906280b],
            [0xd600b194874ec891, 0xb01330fdcd73c164, 0x7ba9c18ff443ce16],
            [0x791922667e562fc2, 0x19d8b1ef45453e6b, 0xf128b4d38ffdd3e1],
        ],
    ),
];

/// FNV-1a/64 digests of the same three checkpoints of `641.leela` for
/// every arch, with every piece of optional state switched on: an active
/// fault plan (injector state and plan bytes), metrics, the invariant
/// checker, idle-skip off and the gshare coupled predictor.
const PINNED_OPTIONAL_STATE_DIGESTS: [[u64; 3]; 7] = [
    [0x63fd1d17fa658882, 0x2c51e74a52d7f2ac, 0x046cfe16564d094a],
    [0x4a5ca115b1682624, 0xeb760863bda027f0, 0xbce4e018e5e7d163],
    [0xf5dd6a85910ba674, 0x82c88af2444290be, 0xb79d1c8afec8d733],
    [0x235cf1db712dd567, 0xf59b614018ad1345, 0x3dd5155c26a05a09],
    [0x42d32dfcb0f27138, 0xe13eb1473edbc231, 0x5f6a48df2d29256f],
    [0x8a1aab059b7601be, 0x907b94104ad7cc1d, 0x32e2cfe7e65e61a3],
    [0x82c9539c17b7c0c5, 0x4dced7821c0677fe, 0x7f7f5f3cbb97a8b8],
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
    [0xc0802d8e99b5a062, 0xbe2d6c7fa1a05afc, 0x3e9bf1ddd8637d0f],
    [0xcf8d9d16a5fba80c, 0x76cf0295d361eba4, 0xd7ffefdfbb1c4d37],
    [0x7aff3484012260ac, 0x1b01e24736e0ca73, 0x96c35c6992782ae4],
    [0x128964f6de5351bf, 0x0a7509b397cd6254, 0x2f62b6dc4f289f3c],
    [0xae666ca041aee978, 0x188d44b1fab0cf8b, 0xaa40aa1ee1a2b3ea],
    [0x5b784ac955e2cbd1, 0xbe63eba9e7283d55, 0x9439da9db6682161],
    [0xa943df4b12d2ba24, 0x635ddd7cb2d8594d, 0x67639b0207cca497],
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
