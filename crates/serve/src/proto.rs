//! The serve line protocol: one compact JSON object per line in both
//! directions (the `jsonio::jsonl` framing).
//!
//! Requests (client → daemon):
//!
//! ```text
//! {"op":"paths","id":"j1","design":"tinycore","instr":"add","bound":12}
//! {"op":"leak","id":"j2","design":"minicache","instr":"lw"}
//! {"op":"check","id":"j3","source":"module m { ... }"}
//! {"op":"fuzz","id":"j4","seed":7,"cases":16}
//! {"op":"stats"}
//! {"op":"shutdown"}
//! ```
//!
//! Events (daemon → client), always tagged with the request's `id`:
//!
//! * `accepted` — queued, with the queue position at admission;
//! * `overloaded` — shed by backpressure (queue at capacity); resubmit;
//! * `progress` — advisory notes: retries, injected faults, cache hits.
//!   Deliberately *not* part of the verdict: provenance may differ between
//!   an uninterrupted run and a resumed one;
//! * `done` — the verdict. For clean runs the `result` object is a pure
//!   function of (design source, knobs): no wall-clock times, no cache
//!   provenance — which is what makes restarted daemons answer byte for
//!   byte identically (`tests/serve_robustness.rs`);
//! * `error` — the request itself was unusable (unknown op, bad knobs).

use jsonio::Json;

/// What a request asks the daemon to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// RTL2MµPATH for one (design, instruction).
    Paths,
    /// SynthLC leakage signatures for one (design, instruction).
    Leak,
    /// Frontend static analysis of inline `.nl` source text.
    Check,
    /// A differential-oracle fuzz sweep.
    Fuzz,
    /// Counter snapshot (answered inline, never queued).
    Stats,
    /// Graceful shutdown: drain the queue, then exit (answered inline).
    Shutdown,
}

impl Op {
    fn from_label(s: &str) -> Option<Op> {
        Some(match s {
            "paths" => Op::Paths,
            "leak" => Op::Leak,
            "check" => Op::Check,
            "fuzz" => Op::Fuzz,
            "stats" => Op::Stats,
            "shutdown" => Op::Shutdown,
            _ => return None,
        })
    }

    /// The wire label.
    pub fn label(&self) -> &'static str {
        match self {
            Op::Paths => "paths",
            Op::Leak => "leak",
            Op::Check => "check",
            Op::Fuzz => "fuzz",
            Op::Stats => "stats",
            Op::Shutdown => "shutdown",
        }
    }
}

/// One parsed job request. Knob fields left `None` take the daemon's
/// per-design defaults (the same defaults as the one-shot CLI).
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// What to run.
    pub op: Op,
    /// Client-chosen correlation id, echoed on every event.
    pub id: String,
    /// Client account name for the per-client budget ledger.
    pub client: String,
    /// Design name or `.nl` path (`paths`/`leak`).
    pub design: Option<String>,
    /// Instruction mnemonic (`paths`/`leak`).
    pub instr: Option<String>,
    /// Inline `.nl` source text (`check`).
    pub source: Option<String>,
    /// BMC bound override.
    pub bound: Option<usize>,
    /// Per-query conflict budget override.
    pub budget: Option<u64>,
    /// Fuzz seed (`fuzz`).
    pub seed: u64,
    /// Fuzz case count (`fuzz`).
    pub cases: u64,
}

impl Request {
    /// Parses one request line. `Err` is a human-readable diagnostic for
    /// an `error` event.
    pub fn parse(j: &Json) -> Result<Request, String> {
        let op_label = j
            .field("op")
            .and_then(Json::as_str)
            .ok_or("request needs a string `op` field")?;
        let op = Op::from_label(op_label).ok_or_else(|| {
            format!("unknown op `{op_label}` (known: paths leak check fuzz stats shutdown)")
        })?;
        let str_field = |k: &str| j.field(k).and_then(Json::as_str).map(str::to_owned);
        let req = Request {
            op,
            id: str_field("id").unwrap_or_else(|| "job".to_owned()),
            client: str_field("client").unwrap_or_else(|| "anon".to_owned()),
            design: str_field("design"),
            instr: str_field("instr"),
            source: str_field("source"),
            bound: j.field("bound").and_then(Json::as_u64).map(|b| b as usize),
            budget: j.field("budget").and_then(Json::as_u64),
            seed: j.field("seed").and_then(Json::as_u64).unwrap_or(0),
            cases: j.field("cases").and_then(Json::as_u64).unwrap_or(16),
        };
        match op {
            Op::Paths | Op::Leak => {
                if req.design.is_none() || req.instr.is_none() {
                    return Err(format!("op `{op_label}` needs `design` and `instr` fields"));
                }
            }
            Op::Check => {
                if req.source.is_none() {
                    return Err("op `check` needs a `source` field with inline .nl text".into());
                }
            }
            Op::Fuzz | Op::Stats | Op::Shutdown => {}
        }
        Ok(req)
    }

    /// Renders the request back to its wire object (client side).
    pub fn encode(&self) -> Json {
        let mut fields = vec![
            ("op".to_owned(), Json::str(self.op.label())),
            ("id".to_owned(), Json::str(&self.id)),
            ("client".to_owned(), Json::str(&self.client)),
        ];
        if let Some(d) = &self.design {
            fields.push(("design".into(), Json::str(d)));
        }
        if let Some(i) = &self.instr {
            fields.push(("instr".into(), Json::str(i)));
        }
        if let Some(s) = &self.source {
            fields.push(("source".into(), Json::str(s)));
        }
        if let Some(b) = self.bound {
            fields.push(("bound".into(), Json::Int(b as u64)));
        }
        if let Some(b) = self.budget {
            fields.push(("budget".into(), Json::Int(b)));
        }
        if self.op == Op::Fuzz {
            fields.push(("seed".into(), Json::Int(self.seed)));
            fields.push(("cases".into(), Json::Int(self.cases)));
        }
        Json::Obj(fields)
    }

    /// A blank request for `op` (tests and the CLI client builder).
    pub fn new(op: Op) -> Request {
        Request {
            op,
            id: "job".into(),
            client: "anon".into(),
            design: None,
            instr: None,
            source: None,
            bound: None,
            budget: None,
            seed: 0,
            cases: 16,
        }
    }
}

/// `accepted` event: queued at `pos`.
pub fn ev_accepted(id: &str, pos: usize) -> Json {
    Json::obj([
        ("ev", Json::str("accepted")),
        ("id", Json::str(id)),
        ("pos", Json::Int(pos as u64)),
    ])
}

/// `overloaded` event: shed by backpressure.
pub fn ev_overloaded(id: &str) -> Json {
    Json::obj([("ev", Json::str("overloaded")), ("id", Json::str(id))])
}

/// `progress` event: an advisory note (retry, injected fault, cache hit).
pub fn ev_progress(id: &str, note: &str) -> Json {
    Json::obj([
        ("ev", Json::str("progress")),
        ("id", Json::str(id)),
        ("note", Json::str(note)),
    ])
}

/// `done` event: the verdict. `result` must already be deterministic.
pub fn ev_done(id: &str, result: Json) -> Json {
    Json::obj([
        ("ev", Json::str("done")),
        ("id", Json::str(id)),
        ("result", result),
    ])
}

/// `error` event: the request was unusable.
pub fn ev_error(id: &str, msg: &str) -> Json {
    Json::obj([
        ("ev", Json::str("error")),
        ("id", Json::str(id)),
        ("msg", Json::str(msg)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_the_wire_encoding() {
        let mut r = Request::new(Op::Leak);
        r.id = "j7".into();
        r.design = Some("minicache".into());
        r.instr = Some("lw".into());
        r.bound = Some(14);
        let parsed = Request::parse(&r.encode()).unwrap();
        assert_eq!(parsed, r);

        let mut f = Request::new(Op::Fuzz);
        f.seed = 9;
        f.cases = 32;
        assert_eq!(Request::parse(&f.encode()).unwrap(), f);
    }

    #[test]
    fn malformed_requests_get_readable_diagnostics() {
        let no_op = Json::obj([("id", Json::str("x"))]);
        assert!(Request::parse(&no_op).unwrap_err().contains("op"));
        let bad_op = Json::obj([("op", Json::str("explode"))]);
        assert!(Request::parse(&bad_op).unwrap_err().contains("explode"));
        let no_design = Json::obj([("op", Json::str("paths"))]);
        assert!(Request::parse(&no_design).unwrap_err().contains("design"));
        let no_source = Json::obj([("op", Json::str("check"))]);
        assert!(Request::parse(&no_source).unwrap_err().contains("source"));
    }

    #[test]
    fn events_render_compact_and_tagged() {
        assert_eq!(
            ev_accepted("a", 3).render_compact(),
            r#"{"ev":"accepted","id":"a","pos":3}"#
        );
        assert_eq!(
            ev_overloaded("b").render_compact(),
            r#"{"ev":"overloaded","id":"b"}"#
        );
        assert_eq!(
            ev_done("c", Json::obj([("exit", Json::Int(0))])).render_compact(),
            r#"{"ev":"done","id":"c","result":{"exit":0}}"#
        );
    }
}
