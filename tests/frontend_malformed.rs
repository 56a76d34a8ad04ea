//! Malformed `.nl` input through the full frontend (`netlist::text::check`).
//!
//! The daemon's `check` op and every `<design>` path run client-supplied
//! text through this code, while the `text` fuzz oracle only ever feeds it
//! well-formed emitted text. Here `prng`-seeded line- and byte-level
//! mutations of the diagnostic corpus and the shipped `examples/*.nl` must
//! never panic the frontend, and each report must not depend on hash
//! order: two runs in one process (every map seeded afresh) render the
//! same text and the same `--diag-json` lines.

use prng::Rng;
use std::path::PathBuf;

/// Every diagnostic-corpus file and shipped example, in path order.
fn sources() -> Vec<Vec<u8>> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut paths = Vec::new();
    for dir in [
        root.join("examples"),
        root.join("crates/netlist/tests/diag"),
    ] {
        for entry in std::fs::read_dir(&dir).expect("source directory") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_some_and(|e| e == "nl") {
                paths.push(path);
            }
        }
    }
    paths.sort();
    assert!(paths.len() >= 30, "only {} .nl sources", paths.len());
    paths
        .iter()
        .map(|p| std::fs::read(p).expect(".nl source"))
        .collect()
}

/// Deletes, duplicates, swaps, truncates or splices in whole lines, or
/// drops or swaps one space-separated token of a line.
fn mutate_lines(rng: &mut Rng, text: &[u8], all: &[Vec<u8>]) -> Vec<u8> {
    let mut lines: Vec<Vec<u8>> = text.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
    for _ in 0..rng.range(1, 4) {
        let i = rng.range_usize(0, lines.len());
        let j = rng.range_usize(0, lines.len());
        match rng.range(0, 7) {
            0 if lines.len() > 1 => {
                lines.remove(i);
            }
            1 => lines.insert(rng.range_usize(0, lines.len() + 1), lines[i].clone()),
            2 => lines.swap(i, j),
            3 => lines.truncate(i + 1),
            4 | 5 => lines[i] = retoken(rng, &lines[i], &lines[j]),
            _ => {
                let other = &all[rng.range_usize(0, all.len())];
                let other: Vec<&[u8]> = other.split(|&b| b == b'\n').collect();
                lines.insert(i, other[rng.range_usize(0, other.len())].to_vec());
            }
        }
    }
    lines.join(&b'\n')
}

/// `line` with one space-separated token dropped or replaced by one of
/// `donor`'s.
fn retoken(rng: &mut Rng, line: &[u8], donor: &[u8]) -> Vec<u8> {
    let mut toks: Vec<&[u8]> = line.split(|&b| b == b' ').collect();
    let k = rng.range_usize(0, toks.len());
    if rng.flip() {
        let donor: Vec<&[u8]> = donor.split(|&b| b == b' ').collect();
        toks[k] = donor[rng.range_usize(0, donor.len())];
    } else {
        toks.remove(k);
    }
    toks.join(&b' ')
}

/// Deletes, inserts or overwrites single bytes, or truncates; inserted
/// bytes favour the grammar's punctuation, and any byte may appear.
fn mutate_bytes(rng: &mut Rng, text: &[u8]) -> Vec<u8> {
    const ALPHABET: &[u8] = b"{}():=,<-#[]_ \t\n0123456789wxamr";
    let mut bytes = text.to_vec();
    for _ in 0..rng.range(1, 5) {
        let i = rng.range_usize(0, bytes.len() + 1);
        let b = if rng.chance(0.9) {
            ALPHABET[rng.range_usize(0, ALPHABET.len())]
        } else {
            rng.byte()
        };
        match rng.range(0, 4) {
            0 if i < bytes.len() => {
                bytes.remove(i);
            }
            1 => bytes.insert(i, b),
            2 if i < bytes.len() => bytes[i] = b,
            _ => bytes.truncate(i),
        }
    }
    bytes
}

#[test]
fn mutated_sources_never_panic_and_report_deterministically() {
    let all = sources();
    prng::for_each_case("frontend_malformed", 0xbad5, 2_000, |rng| {
        let src = &all[rng.range_usize(0, all.len())];
        let bytes = if rng.flip() {
            mutate_lines(rng, src, &all)
        } else {
            mutate_bytes(rng, src)
        };
        let text = String::from_utf8_lossy(&bytes);
        let render = || {
            let r = netlist::text::check(&text, "mutant.nl");
            (
                r.report.render_in(&r.source),
                r.report.to_json_lines(Some(&r.source)),
            )
        };
        assert_eq!(render(), render(), "mutant:\n{text}");
    });
}
