//! Seeded random netlist generation.
//!
//! Designs are described by a [`Genome`] — a flat op list with
//! modulo-indexed operands — and *built* by [`build`], which is total:
//! every genome, including any sublist produced by the shrinker, yields a
//! well-formed, lint-clean netlist. Robustness comes from three rules:
//!
//! * operand references are taken modulo the wires built so far, so
//!   deleting an op never dangles a reference;
//! * operand widths are adapted with zero-extension / truncation, so no
//!   width mismatch can occur;
//! * every wire not consumed by another cell is folded (via `red_xor`)
//!   into a single named `out` root, so no logic is dead, every input is
//!   read, and every register is observed.
//!
//! The single 1-bit `cover` signal — an equality test against a genome
//! constant — is the reachability target every oracle queries.

use netlist::lint::{LintContext, LintReport};
use netlist::{Builder, Netlist, SignalId, Wire};
use prng::Rng;

/// Size knobs for [`sample_genome`].
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Upper bound on combinational cell ops sampled.
    pub max_cells: usize,
    /// Upper bound on registers sampled (at least one is always sampled).
    pub max_regs: usize,
    /// Upper bound on inputs sampled (at least one is always sampled).
    pub max_inputs: usize,
    /// Upper bound on declared signal widths, clamped to `1..=6`.
    pub max_width: u8,
}

impl Default for GenConfig {
    fn default() -> Self {
        Self {
            max_cells: 24,
            max_regs: 3,
            max_inputs: 3,
            max_width: 4,
        }
    }
}

/// One generation step. Operand fields are raw indices interpreted modulo
/// the wire pool at build time (see module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GenOp {
    /// Declare an input of the given width.
    Input { width: u8 },
    /// Declare a register of the given width and (masked) reset value.
    Reg { width: u8, init: u64 },
    /// A one-operand cell; `op` selects among not/neg/red_or/red_and/red_xor.
    Unary { op: u32, a: u32 },
    /// A two-operand cell; `op` selects among the binary builder ops.
    Binary { op: u32, a: u32, b: u32 },
    /// A 2:1 mux; `s` selects the (1-bit) select wire.
    Mux { s: u32, a: u32, b: u32 },
    /// Extract one bit of a wire.
    Bit { a: u32, bit: u32 },
    /// Concatenate two wires (operands truncated so the result stays ≤ 8 bits).
    Concat { a: u32, b: u32 },
}

/// A complete design description: op list, register next-state choices,
/// and the cover condition. Everything an oracle needs replays from this
/// plus nothing else — repro files serialize exactly this struct.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Genome {
    /// Ops applied in order.
    pub ops: Vec<GenOp>,
    /// Raw next-state wire choice for the k-th register (`k % nexts.len()`).
    pub nexts: Vec<u32>,
    /// Raw index of the wire the cover condition observes.
    pub cover_sel: u32,
    /// Constant the cover condition compares against (masked to the
    /// observed width, capped at 3 bits).
    pub cover_cmp: u64,
}

/// A built genome: the netlist plus the handles and size facts the
/// oracles need.
pub struct BuiltDesign {
    /// The finished netlist (guaranteed lint-clean, see [`lint`]).
    pub netlist: Netlist,
    /// The 1-bit reachability target.
    pub cover: SignalId,
    /// The fold-of-everything observation root.
    pub out: SignalId,
    /// Total input bits (brute-force enumeration cost driver).
    pub input_bits: u32,
    /// Total register bits (state-space size driver).
    pub reg_bits: u32,
}

/// Samples a genome of roughly `cfg`-sized proportions.
pub fn sample_genome(rng: &mut Rng, cfg: &GenConfig) -> Genome {
    let max_w = cfg.max_width.clamp(1, 6);
    let width = |rng: &mut Rng| 1 + rng.range(0, max_w as u64) as u8;
    let n_inputs = 1 + rng.range(0, cfg.max_inputs.max(1) as u64) as usize;
    let n_regs = 1 + rng.range(0, cfg.max_regs.max(1) as u64) as usize;
    let n_cells = 2 + rng.range(0, cfg.max_cells.max(2) as u64) as usize;
    let mut ops = Vec::with_capacity(n_inputs + n_regs + n_cells);
    for _ in 0..n_inputs {
        let w = width(rng);
        ops.push(GenOp::Input { width: w });
    }
    for _ in 0..n_regs {
        let w = width(rng);
        ops.push(GenOp::Reg {
            width: w,
            init: rng.next_u64() & netlist::mask(w),
        });
    }
    for _ in 0..n_cells {
        let a = rng.next_u32();
        let b = rng.next_u32();
        ops.push(match rng.range(0, 8) {
            0 => GenOp::Unary {
                op: rng.next_u32(),
                a,
            },
            1..=4 => GenOp::Binary {
                op: rng.next_u32(),
                a,
                b,
            },
            5 => GenOp::Mux {
                s: rng.next_u32(),
                a,
                b,
            },
            6 => GenOp::Bit { a, bit: b },
            _ => GenOp::Concat { a, b },
        });
    }
    Genome {
        ops,
        nexts: (0..n_regs).map(|_| rng.next_u32()).collect(),
        cover_sel: rng.next_u32(),
        cover_cmp: rng.next_u64(),
    }
}

/// Adapts `w` to exactly `target` bits (identity when already there).
fn fit(b: &mut Builder, w: Wire, target: u8) -> Wire {
    use std::cmp::Ordering::*;
    match w.width.cmp(&target) {
        Equal => w,
        Less => b.zext(w, target),
        Greater => b.trunc(w, target),
    }
}

/// Builds a genome into a netlist. Total: never fails, for any genome.
pub fn build(genome: &Genome) -> BuiltDesign {
    let mut b = Builder::new();
    // (wire, consumed-by-a-cell) pool, in creation order.
    let mut pool: Vec<(Wire, bool)> = Vec::new();
    let mut regs: Vec<Wire> = Vec::new();
    let mut n_inputs = 0usize;
    let pick = |pool: &mut Vec<(Wire, bool)>, ix: u32| -> Option<Wire> {
        if pool.is_empty() {
            return None;
        }
        let slot = ix as usize % pool.len();
        pool[slot].1 = true;
        Some(pool[slot].0)
    };
    for op in &genome.ops {
        let built = match *op {
            GenOp::Input { width } => {
                let w = width.clamp(1, 8);
                let wire = b.input(&format!("in{n_inputs}"), w);
                n_inputs += 1;
                Some(wire)
            }
            GenOp::Reg { width, init } => {
                let w = width.clamp(1, 8);
                let wire = b.reg(&format!("r{}", regs.len()), w, init & netlist::mask(w));
                regs.push(wire);
                Some(wire)
            }
            GenOp::Unary { op, a } => pick(&mut pool, a).map(|a| match op % 5 {
                0 => b.not(a),
                1 => b.neg(a),
                2 => b.red_or(a),
                3 => b.red_and(a),
                _ => b.red_xor(a),
            }),
            GenOp::Binary { op, a, b: bb } => match (pick(&mut pool, a), pick(&mut pool, bb)) {
                (Some(x), Some(y)) => {
                    let y = fit(&mut b, y, x.width);
                    Some(match op % 12 {
                        0 => b.and(x, y),
                        1 => b.or(x, y),
                        2 => b.xor(x, y),
                        3 => b.add(x, y),
                        4 => b.sub(x, y),
                        5 => b.mul(x, y),
                        6 => b.eq(x, y),
                        7 => b.ne(x, y),
                        8 => b.ult(x, y),
                        9 => b.ule(x, y),
                        10 => b.shl(x, y),
                        _ => b.shr(x, y),
                    })
                }
                _ => None,
            },
            GenOp::Mux { s, a, b: bb } => {
                match (pick(&mut pool, s), pick(&mut pool, a), pick(&mut pool, bb)) {
                    (Some(s), Some(x), Some(y)) => {
                        let s = fit(&mut b, s, 1);
                        let y = fit(&mut b, y, x.width);
                        Some(b.mux(s, x, y))
                    }
                    _ => None,
                }
            }
            GenOp::Bit { a, bit } => pick(&mut pool, a).map(|a| {
                let ix = (bit % a.width as u32) as u8;
                b.bit(a, ix)
            }),
            GenOp::Concat { a, b: bb } => match (pick(&mut pool, a), pick(&mut pool, bb)) {
                (Some(x), Some(y)) => {
                    let x = fit(&mut b, x, x.width.min(4));
                    let y = fit(&mut b, y, y.width.min(4));
                    Some(b.concat(x, y))
                }
                _ => None,
            },
        };
        if let Some(w) = built {
            pool.push((w, false));
        }
    }
    // Wire every register's next-state (L002). The pick deliberately does
    // NOT mark the source consumed: liveness (L006) flows *backward* from
    // the `out`/`cover` roots through live registers' next edges, so a
    // wire used only as a next-state source must still be folded into
    // `out` — otherwise an unread register and its whole next cone would
    // be dead logic.
    for (k, &reg) in regs.iter().enumerate() {
        let raw = if genome.nexts.is_empty() {
            k as u32
        } else {
            genome.nexts[k % genome.nexts.len()]
        };
        let src = if pool.is_empty() {
            reg
        } else {
            pool[raw as usize % pool.len()].0
        };
        let src = fit(&mut b, src, reg.width);
        b.set_next(reg, src).expect("widths were fitted");
    }
    // Cover: equality of a (≤3-bit view of a) pool wire against a constant.
    let cover = match pick(&mut pool, genome.cover_sel) {
        Some(w) => {
            let w = fit(&mut b, w, w.width.min(3));
            let cmp = genome.cover_cmp & netlist::mask(w.width);
            b.eq_const(w, cmp)
        }
        None => b.zero(),
    };
    let cover = b.name(cover, "cover");
    // Fold every unconsumed wire into one named root (L003/L006).
    let mut acc: Option<Wire> = None;
    let loose: Vec<Wire> = pool
        .iter()
        .filter(|&&(_, consumed)| !consumed)
        .map(|&(w, _)| w)
        .collect();
    for w in loose {
        let bit = if w.width == 1 { w } else { b.red_xor(w) };
        acc = Some(match acc {
            Some(a) => b.xor(a, bit),
            None => bit,
        });
    }
    let out = acc.unwrap_or_else(|| b.zero());
    let out = b.name(out, "out");
    let netlist = b.finish().expect("generated netlists are well-formed");
    let input_bits = netlist
        .inputs()
        .iter()
        .map(|&i| netlist.width(i) as u32)
        .sum();
    let reg_bits = netlist
        .regs()
        .iter()
        .map(|&r| netlist.width(r) as u32)
        .sum();
    BuiltDesign {
        netlist,
        cover: cover.id,
        out: out.id,
        input_bits,
        reg_bits,
    }
}

/// Runs the full lint suite over a built design with its two roots.
/// Generated designs must come back [`LintReport::is_clean`]; the fuzz
/// driver asserts this for every case.
pub fn lint(d: &BuiltDesign) -> LintReport {
    let cx = LintContext {
        netlist: &d.netlist,
        annotations: None,
        roots: vec![d.out, d.cover],
        strobes: vec![],
    };
    netlist::lint::run(&cx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_designs_are_lint_clean_and_deterministic() {
        let cfg = GenConfig::default();
        for case in 0..200u64 {
            let mut rng = Rng::new(0x5eed_0000 + case);
            let g = sample_genome(&mut rng, &cfg);
            let d = build(&g);
            let report = lint(&d);
            assert!(
                report.is_clean(),
                "case {case} not lint-clean:\n{}",
                report.render()
            );
            // Same genome → identical netlist (build is a pure function).
            let d2 = build(&g);
            assert_eq!(d.netlist.len(), d2.netlist.len());
            assert_eq!(d.cover, d2.cover);
            assert!(d.reg_bits > 0, "at least one register is always sampled");
        }
    }

    #[test]
    fn build_is_total_on_shrunk_genomes() {
        let mut rng = Rng::new(77);
        let g = sample_genome(&mut rng, &GenConfig::default());
        // Every prefix/suffix truncation of the op list still builds and
        // lints clean — the property the shrinker relies on.
        for cut in 0..g.ops.len() {
            let mut sub = g.clone();
            sub.ops.remove(cut);
            let d = build(&sub);
            assert!(lint(&d).is_clean(), "removing op {cut} broke lint");
        }
        let empty = Genome {
            ops: vec![],
            nexts: vec![],
            cover_sel: 0,
            cover_cmp: 0,
        };
        let d = build(&empty);
        assert!(lint(&d).is_clean());
    }
}
