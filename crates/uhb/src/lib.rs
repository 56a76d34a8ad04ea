//! The µHB-graph formalism: performing locations, cycle-accurate µPATHs,
//! and decisions.
//!
//! This crate is the data model shared by `mupath` (which synthesizes these
//! objects from RTL) and `synthlc` (which analyses them for leakage):
//!
//! * [`PlId`]/[`PlTable`] — performing locations (§III-C): granular pipeline
//!   steps, each a ⟨µFSM, state⟩ pair identified by a row label like `mulU`
//!   or `ldStall`.
//! * [`ConcretePath`] — one instruction execution as the exact cycles it
//!   occupied each PL (the cycle-accurate µHB columns of §III-B, including
//!   `Row(1)`/`Row(l)` consecutive-revisit summaries).
//! * [`MuPath`] — a *path shape*: the reachable PL set plus revisit
//!   classification and happens-before edges (what §V-B4/§V-B5 synthesize).
//! * [`Decision`] — a ⟨source PL, destination PL set⟩ divergence point
//!   (§IV-B), extracted from a family of concrete paths by
//!   [`decisions_of_paths`].

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Identifier of a performing location.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PlId(pub u32);

impl PlId {
    /// Index into [`PlTable`] storage.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PlId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pl{}", self.0)
    }
}

/// The label table for a design's performing locations.
#[derive(Clone, Debug, Default)]
pub struct PlTable {
    names: Vec<String>,
}

impl PlTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a PL with a row label, returning its id.
    pub fn add(&mut self, name: impl Into<String>) -> PlId {
        let id = PlId(self.names.len() as u32);
        self.names.push(name.into());
        id
    }

    /// The row label of a PL.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn name(&self, pl: PlId) -> &str {
        &self.names[pl.index()]
    }

    /// Number of PLs.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Looks up a PL by label.
    pub fn find(&self, name: &str) -> Option<PlId> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| PlId(i as u32))
    }

    /// All PL ids.
    pub fn ids(&self) -> impl Iterator<Item = PlId> + '_ {
        (0..self.names.len() as u32).map(PlId)
    }
}

/// How an instruction revisits a PL across one execution (§III-B, §V-B4).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Revisit {
    /// Visited in exactly one cycle.
    Single,
    /// Visited in `l >= 2` *consecutive* cycles (summarised as
    /// `Row(1)…Row(l)`).
    Consecutive,
    /// Visited, left, and re-entered (non-consecutive revisit).
    NonConsecutive,
}

/// One instruction execution, as the exact cycles each PL was occupied.
///
/// Cycle numbers are relative to the instruction's fetch.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ConcretePath {
    occupancy: BTreeMap<PlId, Vec<usize>>,
}

impl ConcretePath {
    /// Creates an empty path.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that the instruction occupied `pl` during `cycle`.
    pub fn visit(&mut self, pl: PlId, cycle: usize) {
        let cycles = self.occupancy.entry(pl).or_default();
        match cycles.binary_search(&cycle) {
            Ok(_) => {}
            Err(pos) => cycles.insert(pos, cycle),
        }
    }

    /// The sorted cycles during which `pl` was occupied.
    pub fn cycles(&self, pl: PlId) -> &[usize] {
        self.occupancy.get(&pl).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The set of visited PLs.
    pub fn pl_set(&self) -> BTreeSet<PlId> {
        self.occupancy.keys().copied().collect()
    }

    /// Whether any PL was visited.
    pub fn is_empty(&self) -> bool {
        self.occupancy.is_empty()
    }

    /// Classifies the revisit behaviour of each visited PL.
    pub fn revisits(&self) -> BTreeMap<PlId, Revisit> {
        self.occupancy
            .iter()
            .map(|(&pl, cycles)| {
                let r = if cycles.len() == 1 {
                    Revisit::Single
                } else if cycles.windows(2).all(|w| w[1] == w[0] + 1) {
                    Revisit::Consecutive
                } else {
                    Revisit::NonConsecutive
                };
                (pl, r)
            })
            .collect()
    }

    /// The instruction's total latency: last occupied cycle minus first,
    /// plus one. Zero for an empty path.
    pub fn latency(&self) -> usize {
        let first = self
            .occupancy
            .values()
            .filter_map(|c| c.first())
            .min()
            .copied();
        let last = self
            .occupancy
            .values()
            .filter_map(|c| c.last())
            .max()
            .copied();
        match (first, last) {
            (Some(a), Some(b)) => b - a + 1,
            _ => 0,
        }
    }

    /// The PLs occupied during a specific cycle.
    pub fn pls_at(&self, cycle: usize) -> BTreeSet<PlId> {
        self.occupancy
            .iter()
            .filter(|(_, cycles)| cycles.binary_search(&cycle).is_ok())
            .map(|(&pl, _)| pl)
            .collect()
    }

    /// The *shape* of the path: PL set + revisit classes. Two executions
    /// with the same shape are the same µPATH in the §V-B4 sense.
    pub fn shape(&self) -> MuPath {
        MuPath {
            pls: self.pl_set(),
            revisits: self.revisits(),
            edges: BTreeSet::new(),
        }
    }

    /// Renders a Fig. 1-style ASCII µHB column: one row per PL, one column
    /// per cycle, `●` for occupancy, with `Row(1)/Row(l)` labels for
    /// consecutive runs.
    pub fn render(&self, pls: &PlTable) -> String {
        let max_cycle = self
            .occupancy
            .values()
            .filter_map(|c| c.last())
            .max()
            .copied()
            .unwrap_or(0);
        let name_w = self
            .occupancy
            .keys()
            .map(|&p| pls.name(p).len() + 6)
            .max()
            .unwrap_or(8)
            .max(8);
        let mut out = String::new();
        out.push_str(&format!("{:name_w$} ", "cycle:"));
        for t in 0..=max_cycle {
            out.push_str(&format!("{t:>3}"));
        }
        out.push('\n');
        let revisits = self.revisits();
        for (&pl, cycles) in &self.occupancy {
            let label = match revisits[&pl] {
                Revisit::Single => pls.name(pl).to_owned(),
                Revisit::Consecutive => format!("{}(1/{})", pls.name(pl), cycles.len()),
                Revisit::NonConsecutive => format!("{}(*)", pls.name(pl)),
            };
            out.push_str(&format!("{label:name_w$} "));
            for t in 0..=max_cycle {
                if cycles.binary_search(&t).is_ok() {
                    out.push_str("  ●");
                } else {
                    out.push_str("  .");
                }
            }
            out.push('\n');
        }
        out
    }
}

/// A synthesized µPATH shape: reachable PL set, revisit classes, and
/// happens-before edges (at PL granularity; an edge `(a, b)` means a visit
/// to `a` happens one cycle before a visit to `b` in this path).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MuPath {
    /// The PLs visited.
    pub pls: BTreeSet<PlId>,
    /// Revisit classification per PL.
    pub revisits: BTreeMap<PlId, Revisit>,
    /// Happens-before edges.
    pub edges: BTreeSet<(PlId, PlId)>,
}

impl MuPath {
    /// Whether two µPATHs have the same PL set (but possibly different
    /// revisit behaviour — still distinct µPATHs per §III-B).
    pub fn same_pl_set(&self, other: &MuPath) -> bool {
        self.pls == other.pls
    }

    /// A compact one-line description.
    pub fn describe(&self, pls: &PlTable) -> String {
        let mut parts: Vec<String> = Vec::new();
        for &pl in &self.pls {
            let tag = match self.revisits.get(&pl) {
                Some(Revisit::Consecutive) => "(1..l)",
                Some(Revisit::NonConsecutive) => "(*)",
                _ => "",
            };
            parts.push(format!("{}{}", pls.name(pl), tag));
        }
        format!("{{{}}}", parts.join(", "))
    }
}

/// A decision (§IV-B): at `src`, execution diverges to one of several
/// destination PL sets; this record names one of them.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Decision {
    /// The decision source PL.
    pub src: PlId,
    /// The decision destinations: the exact PLs visited one cycle later.
    pub dst: BTreeSet<PlId>,
}

impl Decision {
    /// A compact rendering like `issue -> {LSQ, ldStall}`.
    pub fn describe(&self, pls: &PlTable) -> String {
        let dsts: Vec<&str> = self.dst.iter().map(|&p| pls.name(p)).collect();
        format!("{} -> {{{}}}", pls.name(self.src), dsts.join(", "))
    }
}

/// Extracts all decisions from a family of concrete paths, per the §IV-B
/// definition: `(src, dst)` is a decision iff some path visits `src` one
/// cycle before exactly `dst`, and another path (or another visit) visits
/// `src` one cycle before a *different* PL set.
///
/// Successor sets are computed per (path, cycle where `src` is occupied);
/// decisions exist only for sources with at least two distinct successor
/// sets.
pub fn decisions_of_paths(paths: &[ConcretePath]) -> Vec<Decision> {
    let mut successors: BTreeMap<PlId, BTreeSet<BTreeSet<PlId>>> = BTreeMap::new();
    for p in paths {
        for &src in &p.pl_set() {
            for &t in p.cycles(src) {
                let next = p.pls_at(t + 1);
                successors.entry(src).or_default().insert(next);
            }
        }
    }
    let mut out = Vec::new();
    for (src, dsts) in successors {
        if dsts.len() >= 2 {
            for dst in dsts {
                out.push(Decision { src, dst });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> (PlTable, PlId, PlId, PlId, PlId) {
        let mut t = PlTable::new();
        let if_ = t.add("IF");
        let id = t.add("ID");
        let ex = t.add("EX");
        let wb = t.add("WB");
        (t, if_, id, ex, wb)
    }

    #[test]
    fn revisit_classification() {
        let (_, if_, id, ex, _) = table();
        let mut p = ConcretePath::new();
        p.visit(if_, 0);
        p.visit(id, 1);
        p.visit(id, 2);
        p.visit(ex, 3);
        p.visit(ex, 5);
        let r = p.revisits();
        assert_eq!(r[&if_], Revisit::Single);
        assert_eq!(r[&id], Revisit::Consecutive);
        assert_eq!(r[&ex], Revisit::NonConsecutive);
        assert_eq!(p.latency(), 6);
    }

    #[test]
    fn duplicate_visits_are_idempotent() {
        let (_, if_, ..) = table();
        let mut p = ConcretePath::new();
        p.visit(if_, 3);
        p.visit(if_, 3);
        assert_eq!(p.cycles(if_), &[3]);
    }

    #[test]
    fn pls_at_cycle() {
        let (_, if_, id, ..) = table();
        let mut p = ConcretePath::new();
        p.visit(if_, 0);
        p.visit(id, 0);
        p.visit(id, 1);
        assert_eq!(p.pls_at(0), [if_, id].into_iter().collect());
        assert_eq!(p.pls_at(1), [id].into_iter().collect());
        assert!(p.pls_at(2).is_empty());
    }

    #[test]
    fn decisions_require_divergence() {
        let (_, if_, id, ex, wb) = table();
        // Path A: IF@0, ID@1, EX@2. Path B: IF@0, ID@1, WB@2.
        let mut a = ConcretePath::new();
        a.visit(if_, 0);
        a.visit(id, 1);
        a.visit(ex, 2);
        let mut b = ConcretePath::new();
        b.visit(if_, 0);
        b.visit(id, 1);
        b.visit(wb, 2);
        let ds = decisions_of_paths(&[a.clone(), b]);
        // IF always goes to ID (no decision); ID diverges; EX/WB are leaves
        // whose single successor set (empty) never diverges.
        assert!(ds.iter().all(|d| d.src != if_));
        let id_dsts: Vec<_> = ds.iter().filter(|d| d.src == id).collect();
        assert_eq!(id_dsts.len(), 2);
        // A path alone yields no decisions.
        assert!(decisions_of_paths(&[a]).is_empty());
    }

    #[test]
    fn render_shows_consecutive_summary() {
        let (t, if_, id, ..) = table();
        let mut p = ConcretePath::new();
        p.visit(if_, 0);
        p.visit(id, 1);
        p.visit(id, 2);
        p.visit(id, 3);
        let s = p.render(&t);
        assert!(s.contains("ID(1/3)"), "consecutive run summarised: {s}");
        assert!(s.contains("●"));
    }

    #[test]
    fn shape_equality_distinguishes_revisits() {
        let (_, if_, id, ..) = table();
        let mut once = ConcretePath::new();
        once.visit(if_, 0);
        once.visit(id, 1);
        let mut twice = ConcretePath::new();
        twice.visit(if_, 0);
        twice.visit(id, 1);
        twice.visit(id, 2);
        assert!(once.shape().same_pl_set(&twice.shape()));
        assert_ne!(once.shape(), twice.shape(), "revisit class distinguishes");
    }
}
