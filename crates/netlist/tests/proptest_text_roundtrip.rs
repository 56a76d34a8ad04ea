//! Textual-format round-trip (property-based): emit(compile(emit(nl))) is a
//! fixpoint and preserves simulation behaviour on random circuits.
//! (Hand-rolled random cases via `prng`.)

use netlist::{Builder, Netlist};
use prng::Rng;
use sim::Simulator;

#[derive(Clone, Debug)]
enum Step {
    Add(usize, usize),
    Xor(usize, usize),
    Mul(usize, usize),
    Mux(usize, usize, usize),
    Not(usize),
    SliceCat(usize),
    Eq(usize, usize),
}

fn random_step(rng: &mut Rng) -> Step {
    let a = rng.range_usize(0, 64);
    let b = rng.range_usize(0, 64);
    let c = rng.range_usize(0, 64);
    match rng.range(0, 7) {
        0 => Step::Add(a, b),
        1 => Step::Xor(a, b),
        2 => Step::Mul(a, b),
        3 => Step::Mux(a, b, c),
        4 => Step::Not(a),
        5 => Step::SliceCat(a),
        _ => Step::Eq(a, b),
    }
}

fn build(steps: &[Step]) -> Netlist {
    let mut b = Builder::new();
    let x = b.input("x", 4);
    let r = b.reg("state", 4, 5);
    let mut pool = vec![x, r];
    for s in steps {
        let pick = |i: &usize| pool[i % pool.len()];
        let w = match s {
            Step::Add(a, c) => {
                let (p, q) = (pick(a), pick(c));
                b.add(p, q)
            }
            Step::Xor(a, c) => {
                let (p, q) = (pick(a), pick(c));
                b.xor(p, q)
            }
            Step::Mul(a, c) => {
                let (p, q) = (pick(a), pick(c));
                b.mul(p, q)
            }
            Step::Mux(s0, a, c) => {
                let sel = {
                    let w = pick(s0);
                    b.red_or(w)
                };
                let (p, q) = (pick(a), pick(c));
                b.mux(sel, p, q)
            }
            Step::Not(a) => {
                let p = pick(a);
                b.not(p)
            }
            Step::SliceCat(a) => {
                let p = pick(a);
                let hi = b.slice(p, 3, 2);
                let lo = b.slice(p, 1, 0);
                b.concat(lo, hi)
            }
            Step::Eq(a, c) => {
                let (p, q) = (pick(a), pick(c));
                let e = b.eq(p, q);
                b.zext(e, 4)
            }
        };
        pool.push(w);
    }
    let last = *pool.last().unwrap();
    b.set_next(r, last).unwrap();
    b.finish().unwrap()
}

#[test]
fn round_trip_is_fixpoint_and_behaviour_preserving() {
    prng::for_each_case("round_trip", 0x0e77, 96, |rng| {
        let steps: Vec<Step> = (0..rng.range_usize(1, 15))
            .map(|_| random_step(rng))
            .collect();
        let script: Vec<u64> = (0..rng.range_usize(1, 6))
            .map(|_| rng.range(0, 16))
            .collect();
        let nl = build(&steps);
        let text = netlist::text::emit(&nl);
        let nl2 = netlist::text::compile(&text, "<roundtrip>")
            .module
            .expect("compiles")
            .netlist;
        assert_eq!(netlist::text::emit(&nl2), text, "emit fixpoint");
        assert_eq!(nl.len(), nl2.len());
        // Behaviour: simulate both with the same script.
        let run = |n: &Netlist| -> Vec<u64> {
            let x = n.find("x").unwrap();
            let r = n.find("state").unwrap();
            let mut s = Simulator::new(n);
            let mut out = Vec::new();
            for &v in &script {
                s.set_input(x, v);
                out.push(s.value(r));
                s.step();
            }
            out.push(s.value(r));
            out
        };
        assert_eq!(run(&nl), run(&nl2), "same behaviour after round trip");
    });
}
