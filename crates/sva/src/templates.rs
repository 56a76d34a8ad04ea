//! The paper's §V-B3 SVA property templates, expressed over
//! performing-location *visited* wires.
//!
//! The `mupath` synthesis pass first builds, per performing location, a
//! sticky 1-bit `visited` wire ("the IUV has occupied this PL"); the
//! templates below combine two of them into a cover monitor signal.

use netlist::{Builder, Wire};

/// §V-B3 `pl_0_dom_pl_1`: `cover (!pl_0_visited & pl_1_visited)`.
///
/// An **unreachable** outcome proves `pl_0` *dominates* `pl_1`: every
/// execution of the IUV that visits `pl_1` also visits `pl_0`.
pub fn dominates_cover(b: &mut Builder, pl0_visited: Wire, pl1_visited: Wire, name: &str) -> Wire {
    let n0 = b.not(pl0_visited);
    let c = b.and(n0, pl1_visited);
    b.name(c, name)
}

/// §V-B3 `pl_0_excl_pl_1`: `cover (pl_0_visited & pl_1_visited)`.
///
/// An **unreachable** outcome proves `pl_0` and `pl_1` are mutually
/// *exclusive*: no execution of the IUV visits both.
pub fn exclusive_cover(b: &mut Builder, pl0_visited: Wire, pl1_visited: Wire, name: &str) -> Wire {
    let c = b.and(pl0_visited, pl1_visited);
    b.name(c, name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sticky;
    use netlist::Builder;
    use sim::Simulator;

    /// Drives two free 1-bit inputs through a template and samples the
    /// monitor output per cycle.
    fn run2(
        build: impl Fn(&mut Builder, Wire, Wire) -> Wire,
        a_pat: &[u64],
        b_pat: &[u64],
    ) -> Vec<u64> {
        let mut bld = Builder::new();
        let a = bld.input("a", 1);
        let bb = bld.input("b", 1);
        let m = build(&mut bld, a, bb);
        let nl_m = m;
        let nl = bld.finish().unwrap();
        let mut s = Simulator::new(&nl);
        let (ai, bi) = (nl.find("a").unwrap(), nl.find("b").unwrap());
        let mut out = Vec::new();
        for (&av, &bv) in a_pat.iter().zip(b_pat) {
            s.set_input(ai, av);
            s.set_input(bi, bv);
            out.push(s.value(nl_m.id));
            s.step();
        }
        out
    }

    #[test]
    fn dominates_cover_fires_only_without_pl0() {
        let out = run2(
            |b, a, c| {
                let av = sticky(b, a, "av");
                let cv = sticky(b, c, "cv");
                dominates_cover(b, av, cv, "dom")
            },
            &[0, 0, 1, 0],
            &[0, 1, 0, 0],
        );
        // pl1 visited at cycle 1 while pl0 not yet visited -> fires at 1,
        // stops firing once pl0 visited at 2.
        assert_eq!(out, vec![0, 1, 0, 0]);
    }

    #[test]
    fn exclusive_cover_needs_both() {
        let out = run2(
            |b, a, c| {
                let av = sticky(b, a, "av");
                let cv = sticky(b, c, "cv");
                exclusive_cover(b, av, cv, "excl")
            },
            &[1, 0, 0, 0],
            &[0, 0, 1, 0],
        );
        assert_eq!(out, vec![0, 0, 1, 1]);
    }
}
