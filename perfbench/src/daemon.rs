//! One `synthlc-cli serve` daemon per round, driven by a single-threaded
//! closed-loop client: one connection, one outstanding request.
//!
//! The daemon writes each event line as two `write` calls, the JSON and
//! then the newline, on a socket without `TCP_NODELAY`. Nagle's algorithm
//! holds the newline until the client ACKs the JSON, and a client in
//! delayed-ACK mode sends that ACK only ~40 ms later. A round trip would
//! then read as `max(daemon work, 40 ms)`. The client therefore re-arms
//! `TCP_QUICKACK` before every `read`, so latencies follow the daemon's
//! work; the traced run measures the stall itself as `serve.ack_stall_ms`.

use jsonio::Json;
use std::ffi::{c_int, c_void};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// The `/proc` tick unit (`USER_HZ`), fixed at 100 by the Linux ABI.
const USER_HZ: f64 = 100.0;

/// `IPPROTO_TCP` and `TCP_QUICKACK` from the Linux ABI.
const IPPROTO_TCP: c_int = 6;
const TCP_QUICKACK: c_int = 12;

extern "C" {
    fn setsockopt(fd: c_int, level: c_int, name: c_int, value: *const c_void, len: u32) -> c_int;
}

/// Leaves delayed-ACK mode: data read next is ACKed at once. The kernel
/// drops back into delayed-ACK mode on its own, hence one call per read.
fn quickack(sock: &TcpStream) -> std::io::Result<()> {
    let one: c_int = 1;
    // SAFETY: the descriptor is owned by `sock` and open for the whole
    // call; the option value is a `c_int` that outlives it.
    let rc = unsafe {
        setsockopt(
            sock.as_raw_fd(),
            IPPROTO_TCP,
            TCP_QUICKACK,
            (&one as *const c_int).cast(),
            std::mem::size_of::<c_int>() as u32,
        )
    };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// A running daemon plus the benchmark's connection to it.
pub struct Daemon {
    child: Child,
    sock: TcpStream,
    /// Received bytes not yet split into lines.
    pending: Vec<u8>,
    /// Re-arm `TCP_QUICKACK` before every read (see the module docs).
    pub quickack: bool,
    /// Every event line received, verbatim (the traced run parses and
    /// renders them again to time `jsonio`).
    pub lines: Vec<String>,
    /// The verdict-store file the daemon journals to.
    pub store: PathBuf,
}

/// The terminal answer to one request.
pub struct Reply {
    /// From writing the request line to reading its terminal line.
    pub latency: Duration,
    /// `done`, `error`, `overloaded`, `stats` or `bye`.
    pub ev: String,
    /// The `result` object of a `done` event, or the whole terminal event
    /// for the other kinds.
    pub body: Json,
    /// Notes of the advisory `progress` events (cache provenance).
    pub notes: Vec<String>,
}

impl Reply {
    /// The `done` payload's exit code, if the job finished.
    pub fn exit(&self) -> Option<u64> {
        (self.ev == "done")
            .then(|| self.body.field("exit").and_then(Json::as_u64))
            .flatten()
    }

    /// Whether the verdict came straight from the daemon's verdict store.
    pub fn store_hit(&self) -> bool {
        self.notes.iter().any(|n| n == "served from verdict store")
    }

    /// The `(hits, misses)` of the job's cone-cache progress note.
    pub fn cones(&self) -> Option<(u64, u64)> {
        let note = self
            .notes
            .iter()
            .find_map(|n| n.strip_prefix("cone cache: "))?;
        let mut nums = note
            .split(|c: char| !c.is_ascii_digit())
            .filter(|s| !s.is_empty())
            .map(|s| s.parse::<u64>().ok());
        Some((nums.next()??, nums.next()??))
    }
}

impl Daemon {
    /// Starts `cli serve` on a free loopback port with a fresh verdict
    /// store and one worker, and connects to it.
    pub fn spawn(cli: &Path, store: PathBuf, log: &Path) -> Result<Daemon, String> {
        let log_file = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut child = Command::new(cli)
            .args(["serve", "--port", "0", "--workers", "1", "--journal"])
            .arg(&store)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log_file)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", cli.display()))?;
        let addr = match read_listen_addr(child.stdout.take().expect("stdout is piped")) {
            Ok(a) => a,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let sock = TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
        sock.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Daemon {
            child,
            sock,
            pending: Vec::new(),
            quickack: true,
            lines: Vec::new(),
            store,
        })
    }

    /// Reads one line, without its terminator.
    fn read_line(&mut self) -> Result<String, String> {
        let mut chunk = [0u8; 8192];
        loop {
            if let Some(i) = self.pending.iter().position(|&b| b == b'\n') {
                let rest = self.pending.split_off(i + 1);
                let line = std::mem::replace(&mut self.pending, rest);
                let text = String::from_utf8(line).map_err(|e| format!("receive: {e}"))?;
                return Ok(text.trim_end().to_owned());
            }
            if self.quickack {
                quickack(&self.sock).map_err(|e| format!("TCP_QUICKACK: {e}"))?;
            }
            let n = self
                .sock
                .read(&mut chunk)
                .map_err(|e| format!("receive: {e}"))?;
            if n == 0 {
                return Err("daemon closed the connection".into());
            }
            self.pending.extend_from_slice(&chunk[..n]);
        }
    }

    /// Sends one request and reads events until its terminal one.
    pub fn request(&mut self, req: &Json) -> Result<Reply, String> {
        let line = req.render_compact() + "\n";
        let t0 = Instant::now();
        self.sock
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut notes = Vec::new();
        loop {
            let buf = self.read_line()?;
            let latency = t0.elapsed();
            let ev = Json::parse(&buf).map_err(|e| format!("bad event {buf:?}: {e:?}"))?;
            let kind = ev
                .field("ev")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned();
            self.lines.push(buf);
            match kind.as_str() {
                "progress" => {
                    if let Some(n) = ev.field("note").and_then(Json::as_str) {
                        notes.push(n.to_owned());
                    }
                }
                "accepted" => {}
                "done" => {
                    let body = ev.field("result").cloned().unwrap_or(Json::Null);
                    return Ok(Reply {
                        latency,
                        ev: kind,
                        body,
                        notes,
                    });
                }
                _ => {
                    return Ok(Reply {
                        latency,
                        ev: kind,
                        body: ev,
                        notes,
                    })
                }
            }
        }
    }

    /// The inline `stats` snapshot.
    pub fn stats(&mut self) -> Result<Reply, String> {
        let r = self.request(&Json::obj([("op", Json::str("stats"))]))?;
        if r.ev != "stats" {
            return Err(format!("stats request answered with `{}`", r.ev));
        }
        Ok(r)
    }

    /// Daemon CPU time (user + system) so far, in milliseconds.
    pub fn cpu_ms(&self) -> f64 {
        let stat =
            std::fs::read_to_string(format!("/proc/{}/stat", self.child.id())).unwrap_or_default();
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the whole line.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let f: Vec<f64> = rest
            .split_whitespace()
            .skip(11)
            .take(2)
            .filter_map(|s| s.parse().ok())
            .collect();
        f.iter().sum::<f64>() * 1000.0 / USER_HZ
    }

    /// The daemon's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// Graceful stop: `shutdown`, then wait for the process to drain and
    /// exit. Returns the exit status code.
    pub fn shutdown(mut self) -> Result<i32, String> {
        let bye = self.request(&Json::obj([
            ("op", Json::str("shutdown")),
            ("id", Json::str("bye")),
        ]));
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    bye?;
                    return Ok(status.code().unwrap_or(-1));
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("daemon did not exit after shutdown".into()),
            }
        }
    }
}

impl Drop for Daemon {
    /// A round that failed part-way still leaves no process behind.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn read_listen_addr(stdout: ChildStdout) -> Result<String, String> {
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .map_err(|e| format!("daemon stdout: {e}"))?;
    line.trim()
        .strip_prefix("listening on ")
        .map(str::to_owned)
        .ok_or_else(|| format!("daemon did not report its address (got {line:?})"))
}

/// Host-wide CPU ticks `(steal, total)` from `/proc/stat`.
pub fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let nums: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|s| s.parse().ok())
        .collect();
    (nums.get(7).copied().unwrap_or(0), nums.iter().sum())
}
