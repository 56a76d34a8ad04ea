//! SVA-style property construction: monitors and the paper's property
//! templates, compiled into netlist circuits.
//!
//! The paper generates thousands of SystemVerilog Assertions from templates
//! (§V-B, §V-C1) and hands them to a property verifier. Here, each property
//! becomes a 1-bit *monitor signal* woven into the design under verification
//! with [`netlist::Builder::from_netlist`]; the `mc` crate then evaluates
//! `cover`/`assume` over those signals. This module provides:
//!
//! * temporal building blocks ([`sticky`], [`delay`], [`seq_then`],
//!   [`consecutive_counter`], [`rose`]) — the `##N` / "visited"
//!   vocabulary of the templates,
//! * the §V-B3 dominance and exclusion templates
//!   ([`templates::dominates_cover`], [`templates::exclusive_cover`]).
//!
//! # Examples
//!
//! ```
//! use netlist::Builder;
//!
//! let mut b = Builder::new();
//! let pulse = b.input("pulse", 1);
//! let seen = sva::sticky(&mut b, pulse, "seen_pulse");
//! assert_eq!(seen.width, 1);
//! ```

use netlist::{Builder, Wire};

pub mod templates;

/// Monotone "has ever been high" monitor: output is high from the first
/// cycle `sig` is high, inclusive, onwards.
///
/// This is the `pl_visited` vocabulary of the paper's templates.
pub fn sticky(b: &mut Builder, sig: Wire, name: &str) -> Wire {
    let r = b.reg(&format!("{name}__sticky"), 1, 0);
    let now = b.or(r, sig);
    b.set_next(r, now).expect("fresh monitor register");
    b.name(now, name)
}

/// Delays a 1-bit signal by `n` cycles (the `##n` operator). Cycle 0..n-1
/// outputs are 0.
pub fn delay(b: &mut Builder, sig: Wire, n: usize, name: &str) -> Wire {
    let mut cur = sig;
    for i in 0..n {
        let r = b.reg(&format!("{name}__d{i}"), 1, 0);
        b.set_next(r, cur).expect("fresh monitor register");
        cur = r;
    }
    b.name(cur, name)
}

/// The sequence `first ##1 second`: high when `second` is high one cycle
/// after `first` was.
pub fn seq_then(b: &mut Builder, first: Wire, second: Wire, name: &str) -> Wire {
    let d = delay(b, first, 1, &format!("{name}__first_d1"));
    let both = b.and(d, second);
    b.name(both, name)
}

/// Counts the length of the *current* run of consecutive high cycles
/// (resets to 0 when `sig` is low), and the maximum run seen so far.
///
/// Returns `(current_run, max_run)`. Distinguishes consecutive from
/// non-consecutive revisits (§III-B, §V-B4).
pub fn consecutive_counter(b: &mut Builder, sig: Wire, width: u8, name: &str) -> (Wire, Wire) {
    let run = b.reg(&format!("{name}__run"), width, 0);
    let max_run = b.reg(&format!("{name}__maxrun"), width, 0);
    let one = b.constant(1, width);
    let zero = b.constant(0, width);
    let cap = b.constant(netlist::mask(width), width);
    let at_cap = b.eq(run, cap);
    let bumped = b.add(run, one);
    let grown = b.mux(at_cap, run, bumped);
    let next_run = b.mux(sig, grown, zero);
    b.set_next(run, next_run).expect("fresh monitor register");
    let bigger = b.ult(max_run, next_run);
    let next_max = b.mux(bigger, next_run, max_run);
    b.set_next(max_run, next_max)
        .expect("fresh monitor register");
    let cur = b.name(next_run, &format!("{name}__current"));
    let max = b.name(max_run, name);
    (cur, max)
}

/// High on the cycle where `sig` goes from low to high.
pub fn rose(b: &mut Builder, sig: Wire, name: &str) -> Wire {
    let prev = b.reg(&format!("{name}__prev"), 1, 0);
    b.set_next(prev, sig).expect("fresh monitor register");
    let nprev = b.not(prev);
    let r = b.and(sig, nprev);
    b.name(r, name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::Builder;
    use sim::Simulator;

    fn pulse_design() -> (netlist::Netlist, netlist::SignalId) {
        let mut b = Builder::new();
        let p = b.input("p", 1);
        sticky(&mut b, p, "seen");
        delay(&mut b, p, 2, "d2");
        seq_then(&mut b, p, p, "pp");
        consecutive_counter(&mut b, p, 3, "run");
        rose(&mut b, p, "rose");
        let nl = b.finish().unwrap();
        let p = nl.find("p").unwrap();
        (nl, p)
    }

    fn drive(pattern: &[u64], read: &[&str]) -> Vec<Vec<u64>> {
        let (nl, p) = pulse_design();
        let mut s = Simulator::new(&nl);
        let mut out = Vec::new();
        for &v in pattern {
            s.set_input(p, v);
            out.push(read.iter().map(|n| s.value_of(n)).collect());
            s.step();
        }
        out
    }

    #[test]
    fn sticky_latches_inclusively() {
        let vals = drive(&[0, 1, 0, 0], &["seen"]);
        assert_eq!(
            vals.iter().map(|r| r[0]).collect::<Vec<_>>(),
            vec![0, 1, 1, 1]
        );
    }

    #[test]
    fn delay_shifts_by_n() {
        let vals = drive(&[1, 0, 0, 0], &["d2"]);
        assert_eq!(
            vals.iter().map(|r| r[0]).collect::<Vec<_>>(),
            vec![0, 0, 1, 0]
        );
    }

    #[test]
    fn seq_then_matches_back_to_back() {
        let vals = drive(&[1, 1, 0, 1], &["pp"]);
        assert_eq!(
            vals.iter().map(|r| r[0]).collect::<Vec<_>>(),
            vec![0, 1, 0, 0]
        );
    }

    #[test]
    fn consecutive_counter_tracks_runs() {
        let vals = drive(&[1, 1, 0, 1], &["run__current", "run"]);
        let cur: Vec<u64> = vals.iter().map(|r| r[0]).collect();
        let max: Vec<u64> = vals.iter().map(|r| r[1]).collect();
        assert_eq!(cur, vec![1, 2, 0, 1], "current run includes this cycle");
        assert_eq!(max, vec![0, 1, 2, 2], "max run is registered");
    }

    #[test]
    fn rose_is_a_rising_edge() {
        let vals = drive(&[0, 1, 1, 0], &["rose"]);
        assert_eq!(
            vals.iter().map(|r| r[0]).collect::<Vec<_>>(),
            vec![0, 1, 0, 0]
        );
    }
}
