//! The TCP face of the daemon, and the line-protocol client.
//!
//! One JSONL stream per connection: the client writes request lines, the
//! daemon multiplexes every event for that connection's jobs back over
//! the same socket (events are tagged with the request `id`). `stats` and
//! `shutdown` are answered inline; job ops go through the bounded queue.
//!
//! The accept loop polls a shutdown flag set by SIGINT/SIGTERM or by a
//! client's `shutdown` request; either way the daemon stops accepting,
//! drains every queued and in-flight job (their events still stream to
//! their clients), and exits 0 with the verdict journal fsync'd — the
//! kill-and-restart path in `tests/serve_robustness.rs` then resumes it
//! byte for byte.

use crate::engine::{ServeConfig, Server, Submit};
use crate::proto::{ev_error, ev_overloaded, Op, Request};
use jsonio::{jsonl, Json};
use std::io::{BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use synthlc::Journal;

static SIGNALLED: AtomicBool = AtomicBool::new(false);

/// The longest protocol line either side reads: 1 MiB, about 30× the
/// largest shipped `.nl` design sent inline. A longer line is answered
/// with an `error` event and skipped without being buffered.
pub const MAX_LINE: usize = 1 << 20;

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" fn on_signal(_sig: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    // SIGINT = 2, SIGTERM = 15 on every unix this builds on.
    unsafe {
        signal(2, on_signal);
        signal(15, on_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// Runs the daemon on `127.0.0.1:port` (`0` picks a free port). Prints
/// `listening on 127.0.0.1:PORT` once ready — scripts parse that line.
/// Returns the process exit code (0 after a graceful drain).
pub fn serve_tcp(cfg: ServeConfig, store: Option<Arc<Journal>>, port: u16) -> std::io::Result<u8> {
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    let addr = listener.local_addr()?;
    println!("listening on {addr}");
    std::io::stdout().flush()?;
    install_signal_handlers();
    SIGNALLED.store(false, Ordering::SeqCst);
    listener.set_nonblocking(true)?;
    let server = Arc::new(Server::start(cfg, store));
    let stop = Arc::new(AtomicBool::new(false));
    // Live connections: a read-half handle (to unblock the reader at
    // drain time) plus the handler thread (which owns the forwarder and
    // joins it before exiting). Swept as connections finish so the vec
    // tracks only live sockets.
    let mut conns: Vec<(TcpStream, JoinHandle<()>)> = Vec::new();
    loop {
        if SIGNALLED.load(Ordering::SeqCst) || stop.load(Ordering::SeqCst) {
            break;
        }
        conns.retain(|(_, h)| !h.is_finished());
        match listener.accept() {
            Ok((sock, _)) => {
                // Each event goes out as soon as it is written, rather
                // than waiting on the client's ACK of the previous one.
                let _ = sock.set_nodelay(true);
                let server = Arc::clone(&server);
                let stop = Arc::clone(&stop);
                let read_half = sock.try_clone();
                let handle = std::thread::Builder::new()
                    .name("serve-conn".into())
                    .spawn(move || handle_conn(&server, &stop, sock))
                    .expect("spawn connection handler");
                if let Ok(read_half) = read_half {
                    conns.push((read_half, handle));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(30));
            }
            Err(_) => break,
        }
    }
    // Graceful drain: no new work, every accepted job completes, workers
    // join, journal already fsync'd per record.
    server.join();
    // Every terminal event is now *enqueued*; make sure it is *flushed*
    // before the process exits. Shutting the read halves unblocks any
    // handler parked in read_line (an idle client that never closed),
    // whose exit drops the last event sender; each forwarder then drains
    // its queue onto the socket and is joined by its handler — so joining
    // the handlers guarantees drained jobs' events reached their clients.
    for (read_half, handle) in conns {
        let _ = read_half.shutdown(Shutdown::Read);
        let _ = handle.join();
    }
    // stdout may be a long-gone pipe by now (supervisor died first);
    // a drained daemon still exits 0.
    let _ = writeln!(std::io::stdout(), "drained; bye");
    Ok(0)
}

fn handle_conn(server: &Server, stop: &AtomicBool, sock: TcpStream) {
    let Ok(read_half) = sock.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let writer = Arc::new(Mutex::new(sock));
    let (tx, rx) = mpsc::channel::<Json>();
    // One forwarder per connection serializes all of its jobs' events
    // onto the socket.
    let fwd_writer = Arc::clone(&writer);
    let forwarder = std::thread::Builder::new()
        .name("serve-conn-out".into())
        .spawn(move || {
            for ev in rx {
                let mut w = fwd_writer.lock().unwrap_or_else(|e| e.into_inner());
                if jsonl::write_line(&mut *w, &ev).is_err() {
                    break;
                }
            }
        })
        .expect("spawn connection forwarder");
    while let Ok(Some(line)) = jsonl::read_line(&mut reader, MAX_LINE) {
        let parsed = line.map_err(|e| format!("malformed request line: {e:?}"));
        let (id, req) = match &parsed {
            Ok(j) => (
                j.field("id")
                    .and_then(Json::as_str)
                    .unwrap_or("job")
                    .to_owned(),
                Request::parse(j),
            ),
            Err(msg) => ("job".to_owned(), Err(msg.clone())),
        };
        match req {
            Err(msg) => {
                let _ = tx.send(ev_error(&id, &msg));
            }
            Ok(req) if req.op == Op::Stats => {
                let _ = tx.send(server.stats_json());
            }
            Ok(req) if req.op == Op::Shutdown => {
                let _ = tx.send(Json::obj([
                    ("ev", Json::str("bye")),
                    ("id", Json::str(&req.id)),
                ]));
                stop.store(true, Ordering::SeqCst);
            }
            Ok(req) => match server.submit(req.clone(), tx.clone()) {
                Submit::Accepted(_) => {}
                Submit::Overloaded => {
                    let _ = tx.send(ev_overloaded(&req.id));
                }
                Submit::ShuttingDown => {
                    let _ = tx.send(ev_error(&req.id, "daemon is shutting down"));
                }
            },
        }
    }
    drop(tx);
    let _ = forwarder.join();
}

/// Runs the client side: writes `requests` to `addr`, prints every event
/// line to stdout, and returns the process exit code — the worst job
/// verdict seen (`result.exit`), or 1 on protocol errors.
pub fn run_client(addr: &str, requests: &[Request]) -> std::io::Result<u8> {
    let sock = TcpStream::connect(addr)?;
    let mut reader = BufReader::new(sock.try_clone()?);
    let mut writer = sock;
    // Terminal events expected: one per queued job (done/overloaded/
    // error), one per stats (stats), one per shutdown (bye).
    let mut expected = 0usize;
    for r in requests {
        jsonl::write_line(&mut writer, &r.encode())?;
        expected += 1;
    }
    let mut exit = 0u8;
    while expected > 0 {
        match jsonl::read_line(&mut reader, MAX_LINE)? {
            None => {
                eprintln!("error: daemon closed the connection early");
                return Ok(1);
            }
            Some(Err(e)) => {
                eprintln!("error: malformed event line: {e:?}");
                return Ok(1);
            }
            Some(Ok(ev)) => {
                println!("{}", ev.render_compact());
                match ev.field("ev").and_then(Json::as_str) {
                    Some("done") => {
                        expected -= 1;
                        let code = ev
                            .field("result")
                            .and_then(|r| r.field("exit"))
                            .and_then(Json::as_u64)
                            .unwrap_or(0);
                        exit = exit.max(code.min(u8::MAX as u64) as u8);
                    }
                    Some("overloaded") => {
                        expected -= 1;
                        // EX_TEMPFAIL: the daemon shed the job; resubmit.
                        exit = exit.max(75);
                    }
                    Some("error") => {
                        expected -= 1;
                        exit = exit.max(1);
                    }
                    Some("stats") | Some("bye") => {
                        expected -= 1;
                    }
                    _ => {}
                }
            }
        }
    }
    Ok(exit)
}
