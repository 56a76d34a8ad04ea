//! Minimized-repro serialization and replay.
//!
//! A [`Repro`] is everything needed to re-run one failing oracle case
//! from nothing: the (shrunk) genome, the oracle, and the run
//! coordinates. The encoding is a single compact JSON line, so a repro
//! can live in a bug report, a commit message, or a CI log and replay
//! with `fuzz::replay` (or `synthlc-cli fuzz --seed`).

use crate::gen::{build, GenOp, Genome};
use crate::oracle::{run_oracle, CaseResult, OracleKind, OracleOpts};
use crate::SeededBug;
use jsonio::Json;

/// A self-contained, replayable record of one verdict mismatch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Repro {
    /// Which oracle disagreed.
    pub oracle: OracleKind,
    /// The fuzz run's base seed.
    pub seed: u64,
    /// Case index within the run (the genome's generation coordinates).
    pub case: u64,
    /// BMC bound the oracles ran with.
    pub bound: u64,
    /// The minimized genome.
    pub genome: Genome,
    /// Reference engine's verdict at the time of capture.
    pub expected: String,
    /// Engine-under-test's verdict at the time of capture.
    pub actual: String,
    /// Free-form mismatch context.
    pub detail: String,
    /// Shrinker predicate calls spent minimizing.
    pub shrink_attempts: u64,
}

fn op_to_json(op: &GenOp) -> Json {
    let row = |v: Vec<u64>| Json::Arr(v.into_iter().map(Json::Int).collect());
    match *op {
        GenOp::Input { width } => row(vec![0, width as u64]),
        GenOp::Reg { width, init } => row(vec![1, width as u64, init]),
        GenOp::Unary { op, a } => row(vec![2, op as u64, a as u64]),
        GenOp::Binary { op, a, b } => row(vec![3, op as u64, a as u64, b as u64]),
        GenOp::Mux { s, a, b } => row(vec![4, s as u64, a as u64, b as u64]),
        GenOp::Bit { a, bit } => row(vec![5, a as u64, bit as u64]),
        GenOp::Concat { a, b } => row(vec![6, a as u64, b as u64]),
    }
}

fn op_from_json(j: &Json) -> Option<GenOp> {
    let row = j.as_arr()?;
    let f = |ix: usize| row.get(ix).and_then(Json::as_u64);
    Some(match f(0)? {
        0 => GenOp::Input {
            width: u8::try_from(f(1)?).ok()?,
        },
        1 => GenOp::Reg {
            width: u8::try_from(f(1)?).ok()?,
            init: f(2)?,
        },
        2 => GenOp::Unary {
            op: f(1)? as u32,
            a: f(2)? as u32,
        },
        3 => GenOp::Binary {
            op: f(1)? as u32,
            a: f(2)? as u32,
            b: f(3)? as u32,
        },
        4 => GenOp::Mux {
            s: f(1)? as u32,
            a: f(2)? as u32,
            b: f(3)? as u32,
        },
        5 => GenOp::Bit {
            a: f(1)? as u32,
            bit: f(2)? as u32,
        },
        6 => GenOp::Concat {
            a: f(1)? as u32,
            b: f(2)? as u32,
        },
        _ => return None,
    })
}

impl Repro {
    /// The repro as a JSON value (embedded verbatim in fuzz reports).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("v".into(), Json::Int(1)),
            ("kind".into(), Json::Str("fuzz-repro".into())),
            ("oracle".into(), Json::Str(self.oracle.label().into())),
            ("seed".into(), Json::Int(self.seed)),
            ("case".into(), Json::Int(self.case)),
            ("bound".into(), Json::Int(self.bound)),
            (
                "genome".into(),
                Json::Obj(vec![
                    (
                        "ops".into(),
                        Json::Arr(self.genome.ops.iter().map(op_to_json).collect()),
                    ),
                    (
                        "nexts".into(),
                        Json::Arr(
                            self.genome
                                .nexts
                                .iter()
                                .map(|&n| Json::Int(n as u64))
                                .collect(),
                        ),
                    ),
                    ("cover_sel".into(), Json::Int(self.genome.cover_sel as u64)),
                    ("cover_cmp".into(), Json::Int(self.genome.cover_cmp)),
                ]),
            ),
            ("expected".into(), Json::Str(self.expected.clone())),
            ("actual".into(), Json::Str(self.actual.clone())),
            ("detail".into(), Json::Str(self.detail.clone())),
            ("shrink_attempts".into(), Json::Int(self.shrink_attempts)),
        ])
    }

    /// One-line serialization.
    pub fn encode(&self) -> String {
        self.to_json().render_compact()
    }

    /// Parses a serialized repro; `None` on any malformation (wrong
    /// version, unknown oracle, truncated or corrupt tail).
    pub fn decode(s: &str) -> Option<Self> {
        Self::from_json(&Json::parse(s).ok()?)
    }

    /// Parses a repro out of an already-parsed JSON value.
    pub fn from_json(j: &Json) -> Option<Self> {
        if j.field("v")?.as_u64()? != 1 || j.field("kind")?.as_str()? != "fuzz-repro" {
            return None;
        }
        let g = j.field("genome")?;
        let genome = Genome {
            ops: g
                .field("ops")?
                .as_arr()?
                .iter()
                .map(op_from_json)
                .collect::<Option<Vec<_>>>()?,
            nexts: g
                .field("nexts")?
                .as_arr()?
                .iter()
                .map(|n| n.as_u64().map(|v| v as u32))
                .collect::<Option<Vec<_>>>()?,
            cover_sel: g.field("cover_sel")?.as_u64()? as u32,
            cover_cmp: g.field("cover_cmp")?.as_u64()?,
        };
        Some(Repro {
            oracle: OracleKind::from_label(j.field("oracle")?.as_str()?)?,
            seed: j.field("seed")?.as_u64()?,
            case: j.field("case")?.as_u64()?,
            bound: j.field("bound")?.as_u64()?,
            genome,
            expected: j.field("expected")?.as_str()?.to_string(),
            actual: j.field("actual")?.as_str()?.to_string(),
            detail: j.field("detail")?.as_str()?.to_string(),
            shrink_attempts: j.field("shrink_attempts")?.as_u64()?,
        })
    }

    /// Re-runs the repro's oracle on its genome. Mismatch persistence is
    /// the whole point: a healthy engine pair returns `Agree`/`Skipped`,
    /// while the original defect (e.g. a [`SeededBug`] in a test build)
    /// reproduces the `Mismatch`.
    pub fn replay(&self, seeded_bug: Option<SeededBug>) -> CaseResult {
        let opts = OracleOpts {
            bound: self.bound as usize,
            seeded_bug,
        };
        run_oracle(self.oracle, &build(&self.genome), &opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{sample_genome, GenConfig};
    use prng::Rng;

    fn sample_repro() -> Repro {
        let mut rng = Rng::new(0xabcd);
        Repro {
            oracle: OracleKind::Bmc,
            seed: 7,
            case: 3,
            bound: 4,
            genome: sample_genome(&mut rng, &GenConfig::default()),
            expected: "reachable@2".into(),
            actual: "unreachable".into(),
            detail: "brute-force fires the cover at frame 2".into(),
            shrink_attempts: 17,
        }
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let r = sample_repro();
        let line = r.encode();
        let back = Repro::decode(&line).expect("decodes");
        assert_eq!(back, r);
        assert_eq!(back.encode(), line, "encode∘decode∘encode is identity");
    }

    #[test]
    fn corrupt_tail_is_rejected() {
        let line = sample_repro().encode();
        // Truncation anywhere in the tail must fail cleanly, never panic
        // or mis-parse.
        for cut in (line.len() - 40)..line.len() {
            assert_eq!(Repro::decode(&line[..cut]), None, "cut at {cut}");
        }
        // Trailing garbage is also a corrupt tail.
        assert_eq!(Repro::decode(&format!("{line}garbage")), None);
        // Unknown oracle labels are rejected.
        let bad = line.replace("\"bmc\"", "\"warp\"");
        assert_eq!(Repro::decode(&bad), None);
    }
}
