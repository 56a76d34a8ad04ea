//! Analyzing a standalone cache DUV (the §VII-A2 experiment): hit/miss
//! µPATHs for reads and writes, including the write path's bank-access
//! split (Fig. 4c). The netlist first round-trips through the textual
//! frontend (`netlist::text::emit`, then `netlist::text::compile`) to show
//! the "RTL in from disk" flow.
//!
//! ```text
//! cargo run --release --example cache_channels
//! ```

use mupath::{synthesize_instr, ContextMode, HarnessConfig, SynthConfig};
use uarch::cache::build_cache;

fn main() {
    let design = build_cache();

    // Round-trip the netlist through the textual format, as if it had been
    // loaded from an RTL file on disk.
    let text = netlist::text::emit(&design.netlist);
    let reparsed = netlist::text::compile(&text, "minicache.nl")
        .module
        .expect("textual netlist compiles")
        .netlist;
    println!(
        "MiniCache: {} nodes ({} bytes as text, round-trips cleanly)",
        reparsed.len(),
        text.len()
    );
    println!("{}\n", design.annotations.table_summary("MiniCache"));

    let cfg = SynthConfig {
        slots: vec![0, 1],
        context: ContextMode::Any,
        bound: 18,
        conflict_budget: Some(2_000_000),
        max_shapes: 32,
    };
    for op in [isa::Opcode::Lw, isa::Opcode::Sw] {
        let kind = if op == isa::Opcode::Lw {
            "read"
        } else {
            "write"
        };
        let r = synthesize_instr(&design, op, &cfg);
        println!(
            "{kind}: {} µPATH(s) from {} properties ({:.2}s avg — note how much \
             cheaper than core properties: the paper's modularity argument)",
            r.paths.len(),
            r.stats.properties,
            r.stats.avg_seconds()
        );
        let harness = mupath::build_harness(
            &design,
            &HarnessConfig {
                opcode: op,
                fetch_slot: 0,
                context: ContextMode::Any,
            },
        );
        for (i, p) in r.concrete.iter().enumerate() {
            println!(
                "  µPATH {i} ({} cycles): {}",
                p.latency(),
                r.paths[i].describe(&harness.pls)
            );
        }
        for d in &r.class_decisions {
            println!("  decision at pl{}", d.src.0);
        }
        println!();
    }
}
