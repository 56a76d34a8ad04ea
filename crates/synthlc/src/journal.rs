//! The crash-safe checkpoint journal (DESIGN.md §8): an append-only file
//! of completed job verdicts, one compact JSON record per line, fsync'd
//! per record so a kill at any instant loses at most the record being
//! written — and that torn tail is detected and dropped on resume, never
//! treated as fatal. Every line carries an FNV checksum of its key and
//! record, so even a tear that splices two appends into one
//! still-parseable line (out-of-order block persistence) is detected and
//! dropped together with everything after it.
//!
//! Records are keyed by stable job fingerprints (design hash + job kind +
//! indices + the config knobs that can change the verdict), so a journal
//! can only replay onto the run that wrote it. The drivers journal only
//! *clean* verdicts — degraded jobs rerun on resume — which is what makes
//! a resumed run's report byte-identical to an uninterrupted one.

use mc::JobStore;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Mutex;

/// An append-only, fsync'd, torn-tail-tolerant store of job verdicts.
#[derive(Debug)]
pub struct Journal {
    inner: Mutex<Inner>,
}

#[derive(Debug)]
struct Inner {
    file: File,
    seen: HashMap<String, String>,
    hits: u64,
}

impl Journal {
    /// Creates (or truncates) a fresh journal at `path` — the `--journal`
    /// mode of a first run.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Journal> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Ok(Journal {
            inner: Mutex::new(Inner {
                file,
                seen: HashMap::new(),
                hits: 0,
            }),
        })
    }

    /// Opens an existing journal and replays its completed records — the
    /// `--resume` mode. The file is scanned front to back; at the first
    /// malformed or truncated record (a torn write from a kill mid-append)
    /// the file is truncated to the last good record and the rest is
    /// dropped: those jobs simply rerun. New verdicts append to the same
    /// file, so a resumed run leaves a journal that is again resumable.
    pub fn resume(path: impl AsRef<Path>) -> std::io::Result<Journal> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut text = String::new();
        file.read_to_string(&mut text)?;
        let mut seen = HashMap::new();
        let mut good = 0usize;
        for line in text.split_inclusive('\n') {
            let Some(record) = parse_record(line) else {
                break;
            };
            seen.insert(record.0, record.1);
            good += line.len();
        }
        if good < text.len() {
            file.set_len(good as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok(Journal {
            inner: Mutex::new(Inner {
                file,
                seen,
                hits: 0,
            }),
        })
    }

    /// Completed records currently held (replayed plus appended).
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .seen
            .len()
    }

    /// Whether no records are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many `get` calls found a record — the run's replayed-job count.
    pub fn hits(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).hits
    }

    /// Appends raw bytes at the journal's write position without admitting
    /// any record — a torn tail for recovery tests to plant. The next
    /// [`Journal::resume`] must drop the bytes together with everything
    /// written after.
    pub fn append_raw(&self, bytes: &[u8]) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let _ = inner
            .file
            .write_all(bytes)
            .and_then(|()| inner.file.sync_data());
    }

    /// The serve daemon's torn-write fault: appends the first half of the
    /// exact line [`JobStore::put`] would write for `record` — the on-disk
    /// shape a kill mid-append leaves behind. The record is not admitted
    /// (it never durably completed).
    pub fn put_torn(&self, key: &str, record: &str) {
        let line = render_record(key, record);
        self.append_raw(&line.as_bytes()[..line.len() / 2]);
    }
}

/// Renders one journal line, newline included: `{"k": <key>, "r":
/// <record>, "c": <checksum>}`.
fn render_record(key: &str, record: &str) -> String {
    let mut line = jsonio::Json::Obj(vec![
        ("k".into(), jsonio::Json::str(key)),
        ("r".into(), jsonio::Json::str(record)),
        ("c".into(), jsonio::Json::Int(record_checksum(key, record))),
    ])
    .render_compact();
    line.push('\n');
    line
}

/// One journal line: `{"k": <key>, "r": <record>, "c": <checksum>}` with
/// the record kept as an escaped string so `get` round-trips it untouched.
/// The checksum covers key and record: a crash that tears writes *across*
/// two appends (out-of-order block persistence splicing the prefix of one
/// record onto the suffix of another) can leave a line that still parses
/// as JSON — only the checksum unmasks it as torn.
fn parse_record(line: &str) -> Option<(String, String)> {
    let line = line.strip_suffix('\n')?;
    let j = jsonio::Json::parse(line).ok()?;
    let key = j.field("k")?.as_str()?.to_owned();
    let record = j.field("r")?.as_str()?.to_owned();
    if j.field("c")?.as_u64()? != record_checksum(&key, &record) {
        return None;
    }
    Some((key, record))
}

/// FNV-1a over `key NUL record` — the integrity tag appended to every
/// journal line.
fn record_checksum(key: &str, record: &str) -> u64 {
    netlist::Fnv::new()
        .bytes(key.as_bytes())
        .bytes(&[0])
        .bytes(record.as_bytes())
        .finish()
}

impl JobStore for Journal {
    fn get(&self, key: &str) -> Option<String> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let found = inner.seen.get(key).cloned();
        if found.is_some() {
            inner.hits += 1;
        }
        found
    }

    fn put(&self, key: &str, record: &str) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.seen.contains_key(key) {
            return;
        }
        // Append + flush + fsync before admitting the record to the map:
        // a verdict is only "completed" once it would survive a crash.
        let ok = inner
            .file
            .write_all(render_record(key, record).as_bytes())
            .and_then(|()| inner.file.flush())
            .and_then(|()| inner.file.sync_data())
            .is_ok();
        if ok {
            inner.seen.insert(key.to_owned(), record.to_owned());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("synthlc-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn put_get_round_trip() {
        let path = tmp("roundtrip");
        let j = Journal::create(&path).unwrap();
        assert!(j.is_empty());
        j.put("k1", "{\"v\":1}");
        j.put("k2", "plain text with \"quotes\" and\nnewlines");
        assert_eq!(j.get("k1").as_deref(), Some("{\"v\":1}"));
        assert_eq!(
            j.get("k2").as_deref(),
            Some("plain text with \"quotes\" and\nnewlines")
        );
        assert_eq!(j.get("missing"), None);
        assert_eq!(j.hits(), 2);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn resume_replays_and_appends() {
        let path = tmp("resume");
        {
            let j = Journal::create(&path).unwrap();
            j.put("a", "1");
            j.put("b", "2");
        }
        let j = Journal::resume(&path).unwrap();
        assert_eq!(j.len(), 2);
        assert_eq!(j.get("a").as_deref(), Some("1"));
        j.put("c", "3");
        drop(j);
        let j2 = Journal::resume(&path).unwrap();
        assert_eq!(j2.len(), 3);
        assert_eq!(j2.get("c").as_deref(), Some("3"));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn duplicate_put_keeps_first_record() {
        let path = tmp("dup");
        let j = Journal::create(&path).unwrap();
        j.put("k", "first");
        j.put("k", "second");
        assert_eq!(j.get("k").as_deref(), Some("first"));
        drop(j);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let path = tmp("torn");
        {
            let j = Journal::create(&path).unwrap();
            j.put("a", "1");
            j.put("b", "2");
        }
        // Simulate a kill mid-append: chop bytes off the final record.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 7]).unwrap();
        let j = Journal::resume(&path).unwrap();
        assert_eq!(j.len(), 1, "torn record must be dropped");
        assert_eq!(j.get("a").as_deref(), Some("1"));
        assert_eq!(j.get("b"), None);
        // The torn bytes are gone from disk; the journal appends cleanly.
        j.put("b", "2-again");
        drop(j);
        let j2 = Journal::resume(&path).unwrap();
        assert_eq!(j2.len(), 2);
        assert_eq!(j2.get("b").as_deref(), Some("2-again"));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn splice_torn_across_two_appends_drops_exactly_the_torn_suffix() {
        // A kill mid-fsync can persist appends out of order: the tail of a
        // later record lands while the head of an earlier one doesn't,
        // splicing the prefix of record `b` onto the suffix of record `c`.
        // The spliced line still *parses* as JSON — only the checksum
        // reveals the tear. Recovery must keep `a`, and drop exactly the
        // torn suffix: the splice AND everything after it (`d`), even
        // though `d` itself is intact.
        let path = tmp("splice");
        {
            let j = Journal::create(&path).unwrap();
            j.put("a", "alpha");
            j.put("b", "bravo-long-record-payload");
            j.put("c", "charlie");
            j.put("d", "delta");
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        // Splice: b's bytes up to mid-payload + c's bytes from the same
        // distance-to-end, picked so the result is valid JSON with b's key
        // and a hybrid record/checksum.
        let b_line = lines[1];
        let c_line = lines[2];
        let cut = b_line.find("bravo").unwrap() + 3;
        let tail_len = c_line.len() - c_line.find("charlie").unwrap();
        let spliced = format!("{}{}", &b_line[..cut], &c_line[c_line.len() - tail_len..]);
        jsonio::Json::parse(&spliced).expect("the spliced line must parse — that's the trap");
        let torn = format!("{}\n{}\n{}\n", lines[0], spliced, lines[3]);
        std::fs::write(&path, torn).unwrap();

        let j = Journal::resume(&path).unwrap();
        assert_eq!(j.len(), 1, "only the record before the tear survives");
        assert_eq!(j.get("a").as_deref(), Some("alpha"));
        assert_eq!(j.get("b"), None, "the spliced record must not replay");
        assert_eq!(j.get("d"), None, "records after the tear are dropped too");
        // The file was truncated to the good prefix and appends cleanly.
        j.put("b", "bravo-again");
        drop(j);
        let j2 = Journal::resume(&path).unwrap();
        assert_eq!(j2.len(), 2);
        assert_eq!(j2.get("b").as_deref(), Some("bravo-again"));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn corrupted_checksum_counts_as_torn() {
        let path = tmp("cksum");
        {
            let j = Journal::create(&path).unwrap();
            j.put("a", "1");
            j.put("b", "2");
        }
        // Flip one digit of b's record without breaking the JSON shape.
        let text = std::fs::read_to_string(&path).unwrap();
        let flipped = text.replacen("\"r\":\"2\"", "\"r\":\"3\"", 1);
        assert_ne!(text, flipped);
        std::fs::write(&path, flipped).unwrap();
        let j = Journal::resume(&path).unwrap();
        assert_eq!(j.len(), 1, "a record failing its checksum must be dropped");
        assert_eq!(j.get("b"), None);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn torn_put_is_invisible_and_recovered_on_resume() {
        let path = tmp("torn-put");
        {
            let j = Journal::create(&path).unwrap();
            j.put("serve:a", "{\"exit\":0}");
            j.put_torn("serve:b", "{\"exit\":0}");
            assert_eq!(j.get("serve:b"), None, "a torn write never completed");
            // A put after the tear appends a well-formed line again, but a
            // reader must stop at the tear (append-only recovery drops the
            // suffix from the first bad record on).
            j.put("serve:c", "{\"exit\":0}");
        }
        let full = render_record("serve:b", "{\"exit\":0}");
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert!(
            on_disk.contains(&full[..full.len() / 2]) && !on_disk.contains(&full),
            "the tear is the first half of the line `put` writes"
        );
        let j = Journal::resume(&path).unwrap();
        assert_eq!(j.get("serve:a").as_deref(), Some("{\"exit\":0}"));
        assert_eq!(j.get("serve:b"), None);
        assert_eq!(j.get("serve:c"), None, "records after the tear are dropped");
        assert_eq!(j.hits(), 1);
        // After recovery truncated the tear, new verdicts persist again.
        j.put("serve:d", "{\"exit\":2}");
        drop(j);
        let j2 = Journal::resume(&path).unwrap();
        assert_eq!(j2.get("serve:d").as_deref(), Some("{\"exit\":2}"));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn missing_trailing_newline_counts_as_torn() {
        let path = tmp("nonl");
        {
            let j = Journal::create(&path).unwrap();
            j.put("a", "1");
        }
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"{\"k\":\"b\",\"r\":\"2\"}"); // no '\n'
        std::fs::write(&path, &bytes).unwrap();
        let j = Journal::resume(&path).unwrap();
        assert_eq!(j.len(), 1);
        std::fs::remove_file(path).unwrap();
    }
}
