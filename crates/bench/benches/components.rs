//! Criterion microbenchmarks of the simulator's building blocks: predictor
//! lookups/updates, BTB probes, cache accesses, oracle stepping, and
//! end-to-end simulated-instruction throughput.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use elf_btb::{BtbEntry, BtbHierarchy};
use elf_core::{SimConfig, Simulator};
use elf_frontend::FetchArch;
use elf_mem::MemorySystem;
use elf_predictors::{Ittage, Tage};
use elf_trace::{synthesize, Oracle, ProgramSpec};
use std::hint::black_box;
use std::sync::Arc;

fn bench_tage(c: &mut Criterion) {
    let mut g = c.benchmark_group("tage");
    let mut tage = Tage::paper();
    // Warm with a mixed stream.
    let mut hist: u128 = 0;
    for i in 0..10_000u64 {
        let pc = 0x1000 + (i % 512) * 4;
        let taken = (i * 2654435761) % 3 == 0;
        tage.train(pc, taken, hist);
        hist = (hist << 1) | u128::from(taken);
    }
    g.throughput(Throughput::Elements(1));
    g.bench_function("predict", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(tage.predict(0x1000 + (i % 512) * 4, black_box(hist)))
        })
    });
    g.bench_function("train", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            tage.train(0x1000 + (i % 512) * 4, i.is_multiple_of(3), black_box(hist));
        })
    });
    g.finish();
}

fn bench_ittage(c: &mut Criterion) {
    let mut it = Ittage::paper();
    let mut hist: u128 = 0;
    for i in 0..4096u64 {
        it.train(0x2000 + (i % 64) * 4, 0x8000 + (i % 7) * 64, hist);
        hist = (hist << 1) | u128::from(i % 2 == 0);
    }
    c.bench_function("ittage/predict", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(it.predict(0x2000 + (i % 64) * 4, black_box(hist)))
        })
    });
}

fn bench_btb(c: &mut Criterion) {
    let mut g = c.benchmark_group("btb");
    let mut btb = BtbHierarchy::paper();
    for i in 0..4096u64 {
        btb.install(BtbEntry::new(0x10_000 + i * 64, 16));
    }
    g.throughput(Throughput::Elements(1));
    g.bench_function("lookup_hit", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(btb.lookup(0x10_000 + (i % 4096) * 64))
        })
    });
    g.bench_function("install", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            btb.install(BtbEntry::new(0x10_000 + (i % 8192) * 64, 16));
        })
    });
    g.finish();
}

fn bench_mem(c: &mut Criterion) {
    let mut mem = MemorySystem::paper();
    for i in 0..1024u64 {
        mem.load(0x100, 0x1_0000_0000 + i * 64, 0);
    }
    c.bench_function("mem/l1d_hit_load", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(mem.load(0x100, 0x1_0000_0000 + (i % 256) * 64, i))
        })
    });
}

fn bench_oracle(c: &mut Criterion) {
    let spec = ProgramSpec {
        name: "bench".into(),
        seed: 3,
        ..ProgramSpec::default()
    };
    let prog = Arc::new(synthesize(&spec));
    let mut oracle = Oracle::new(prog, 3);
    let mut seq = 0u64;
    c.bench_function("oracle/step", |b| {
        b.iter(|| {
            let e = oracle.entry(seq);
            oracle.release_before(seq.saturating_sub(64));
            seq += 1;
            black_box(e)
        })
    });
}

fn bench_simulator(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator");
    g.sample_size(10);
    for arch in [FetchArch::Dcf, FetchArch::Elf(elf_frontend::ElfVariant::U)] {
        let spec = ProgramSpec {
            name: "bench".into(),
            seed: 3,
            ..ProgramSpec::default()
        };
        g.throughput(Throughput::Elements(10_000));
        g.bench_function(format!("run_10k_insts/{}", arch.label()), |b| {
            let prog = Arc::new(synthesize(&spec));
            let mut sim = Simulator::try_from_program(SimConfig::baseline(arch), prog, spec.seed)
                .expect("valid config");
            sim.warm_up(50_000).expect("warm-up completes");
            b.iter(|| {
                sim.run(10_000).expect("run completes");
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_tage,
    bench_ittage,
    bench_btb,
    bench_mem,
    bench_oracle,
    bench_simulator
);
criterion_main!(benches);
