//! The steady-state simulation loop must not allocate: every per-cycle and
//! per-instruction buffer (FAQ branch lists, finalized BTB entries, flush
//! replay lists, prefetch candidates, ...) is reused.
//!
//! A counting global allocator measures the measured window of a warmed-up
//! simulator on `641.leela` under every fetch architecture. What may still
//! allocate is first-touch growth: a cache or BTB set, a hash map or a pool
//! reaching a size it never reached before. That is bounded by the
//! structures' sizes, not by the run length, so the bound below is per
//! retired instruction and far above it.
//!
//! This file holds a single test so no other test thread allocates while
//! it counts.

use elf_sim::core::check::ALL_ARCHS;
use elf_sim::core::{SimConfig, Simulator};
use elf_sim::trace::workloads;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Counts allocations and reallocations while `COUNTING` is set.
struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn note() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WARMUP: u64 = 100_000;
const WINDOW: u64 = 150_000;

#[test]
fn the_warm_simulation_loop_does_not_allocate() {
    let w = workloads::by_name("641.leela").expect("registry workload");
    let mut report = Vec::new();
    for arch in ALL_ARCHS {
        let mut sim =
            Simulator::try_for_workload(SimConfig::baseline(arch), &w).expect("valid config");
        sim.warm_up(WARMUP).expect("warm-up");
        ALLOCS.store(0, Ordering::Relaxed);
        COUNTING.store(true, Ordering::Relaxed);
        let stats = sim.run(WINDOW);
        COUNTING.store(false, Ordering::Relaxed);
        let stats = stats.expect("window");
        let allocs = ALLOCS.load(Ordering::Relaxed);
        report.push(format!("{arch:?}: {allocs} allocations"));
        assert!(
            allocs * 100 < stats.retired,
            "{arch:?}: {allocs} allocations in a window of {} retired instructions \
             (bound: 1 per 100)",
            stats.retired
        );
    }
    eprintln!("{}", report.join("\n"));
}
