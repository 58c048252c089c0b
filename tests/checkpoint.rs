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
            [0x96db19f1d23084af, 0xd76491df66bbde1d, 0xfaaeb896f7d1b4f9],
            [0x405abe2c74d7cb2c, 0xb1b877113dd80e3d, 0x0b2ae373ec25bc08],
            [0xf0ff3ed57da6c3a2, 0xfd9151f0653ab322, 0x902fc8ae67af5047],
            [0x7f6dc42776e51bdb, 0x2b90f839248266eb, 0x2104bd5d6e565024],
            [0x349818ee561bab3b, 0xd0a93cca8ebc10ef, 0x96a0bc398635f7e4],
            [0x9bc5cbf1516c852e, 0x3ed27841836c3a1f, 0x96550833a9b03d23],
            [0xab2699eb39a21437, 0x6235a5605629378c, 0x004031e3c7be6da2],
        ],
    ),
    (
        "605.mcf",
        [
            [0x0e867e31409307a8, 0xc034e58dacfe0223, 0xd191626f991e4009],
            [0x7624d88ed16f54a9, 0x8aa949dca928fa39, 0xafb37b84a091bbbc],
            [0x97b3c7e6a2847be3, 0xd31f1ef0534fb7cf, 0x77074ccafd9cf8cd],
            [0xaf3b481539e3c648, 0x22c23153e7d2693b, 0xb7f0e240739cdb1f],
            [0x3da17ee159c332a2, 0xdfcfa6f16b91dd26, 0xa25224a36f966728],
            [0xaed6ee0b1ee5ce80, 0x7764eed3fab210c3, 0x2ddf5450b3536f5f],
            [0xe83c7dc3aca664d4, 0xc8219866c866188a, 0x91409df8f3d3be69],
        ],
    ),
];

/// FNV-1a/64 digests of the same three checkpoints of `641.leela` for
/// every arch, with every piece of optional state switched on: an active
/// fault plan (injector state and plan bytes), metrics, the invariant
/// checker, idle-skip off and the gshare coupled predictor.
const PINNED_OPTIONAL_STATE_DIGESTS: [[u64; 3]; 7] = [
    [0x159fc8f32de5299f, 0x592d9e2c09a49efc, 0x2aa99cf29163da3b],
    [0x26daa1cb18b6cfbf, 0x090248ba196b930d, 0x84c6cee6ec6a62d6],
    [0x5d0ec2aae3b27996, 0x70326d6b41780634, 0xedb4250a62d484b0],
    [0x37131891d40c4233, 0x5ef21fdfaf418beb, 0x61a4e13eec0dd7c8],
    [0xec4cae463e50506b, 0xe9d58b53dd903c32, 0xa38a334064cdc2f3],
    [0xf738b9289fd026c8, 0x287cac5808d7c876, 0x3412c9cbfe08b651],
    [0xd5807009b35f0de2, 0x69d3aa5eca7d9af8, 0x796dd4a65bdcc240],
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
    [0x60c6b5a551cf9b01, 0xc3c12985bc1126c7, 0x29a29af63a4ac3e3],
    [0xd0384295467c5f8d, 0x07564c9acc7663e9, 0x0d815706afa4dc9b],
    [0x59e0a850d57a29ac, 0xaa0dac1e4aee5249, 0xb54ba069834c6aca],
    [0x5a78af54bdeb92b6, 0x6d4394f19e87cd18, 0x384bd65028859903],
    [0x46babaf36493b4bb, 0xc22b71f59b1a1213, 0x92602b782fa1fbc4],
    [0xe9e545540617078f, 0x560afd7012ccaa79, 0x38aa5027919a1556],
    [0x26dae0cb15019c22, 0x52649b0605626def, 0xede20d94f5f35c01],
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
