//! Cycle-by-cycle front-end trace on a tiny hand-built loop: watch the DCF
//! warm its BTB, misfetch on the cold loop branch, and (under ELF) enter and
//! leave coupled mode.
//!
//! ```sh
//! cargo run --release --example frontend_trace
//! ```

use elf_sim::frontend::{ElfVariant, FetchArch, Frontend, FrontendConfig, RetireInfo, TickOutput};
use elf_sim::mem::MemorySystem;
use elf_sim::trace::program::Program;
use elf_sim::types::{BranchKind, InstClass, StaticInst};

/// Ten ALU instructions then an unconditional jump back to the top.
fn tiny_loop() -> Program {
    let base = 0x1_0000;
    let mut image = Vec::new();
    for i in 0..10u64 {
        image.push(StaticInst::simple(base + i * 4, InstClass::Alu));
    }
    let mut jmp = StaticInst::simple(base + 40, InstClass::Branch(BranchKind::UncondDirect));
    jmp.target = Some(base);
    image.push(jmp);
    Program::new("tiny-loop", base, base, image, Vec::new(), 0)
}

fn trace(arch: FetchArch, cycles: u64) {
    println!("--- {} ---", arch.label());
    let prog = tiny_loop();
    let mut fe = Frontend::new(FrontendConfig::paper(), arch, prog.entry());
    let mut mem = MemorySystem::paper();
    let mut out = TickOutput::default();
    for cycle in 0..cycles {
        fe.tick_into(&prog, &mut mem, cycle, &mut out);
        if out.delivered.is_empty() {
            continue;
        }
        let pcs: Vec<String> = out
            .delivered
            .iter()
            .map(|d| {
                let tag = match d.inst.mode {
                    elf_sim::types::FetchMode::Coupled => "c",
                    elf_sim::types::FetchMode::Decoupled => "d",
                };
                format!("{:x}{}", d.inst.sinst.pc & 0xfff, tag)
            })
            .collect();
        println!("cycle {cycle:>3}: {}", pcs.join(" "));
        // Perfect retirement: feed everything back so the BTB learns the
        // loop (the jump is always taken).
        for d in &out.delivered {
            let kind = d.inst.sinst.branch_kind();
            let taken = kind.is_some();
            let next = d.inst.sinst.target.unwrap_or(d.inst.sinst.pc + 4);
            fe.retire(&RetireInfo {
                fid: d.fid,
                pc: d.inst.sinst.pc,
                kind,
                taken,
                next_pc: next,
                static_target: d.inst.sinst.target,
                mode: d.inst.mode,
            });
        }
    }
    let s = fe.stats();
    println!(
        "  => delivered {} (coupled {}), decode resteers {}, BP bubbles {}, \
         FAQ blocks {} (of which BTB-miss proxies {})",
        s.delivered,
        s.delivered_coupled,
        s.decode_resteers,
        s.bp_bubbles,
        s.faq_blocks,
        s.btb_miss_blocks
    );
    println!();
}

fn main() {
    println!(
        "Suffix 'd' = fetched in decoupled mode (via the FAQ), 'c' = coupled \
         mode. Watch the cold-BTB misfetch resteers early on, then the warm \
         loop streaming from the FAQ.\n"
    );
    trace(FetchArch::Dcf, 40);
    trace(FetchArch::Elf(ElfVariant::U), 40);
    trace(FetchArch::NoDcf, 25);
}
