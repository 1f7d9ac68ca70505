//! Booting the real server in-process and driving it over TCP with
//! `solap_server::Client`: closed-loop sessions (`explore`, `ingest`) and
//! an open-loop refresh schedule (`dashboard`).

use std::io::{BufRead as _, ErrorKind, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use solap_core::Engine;
use solap_eventdb::{EventDb, FsyncPolicy, Value};
use solap_server::{Client, Server, ServerConfig, ServerHandle, WireResponse};

use crate::answer::{strategy_of, Answer};

/// A booted server and the engine behind it.
pub struct Booted {
    /// The shared engine (kept so its cache counters can be read).
    pub engine: Arc<Engine>,
    /// The server's control handle.
    pub handle: ServerHandle,
    join: JoinHandle<std::io::Result<()>>,
}

impl Booted {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.handle.local_addr()
    }

    /// Drains and stops the server, waiting for its event loop to end.
    pub fn shutdown(self) -> Arc<Engine> {
        self.handle.shutdown();
        match self.join.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => eprintln!("server loop ended with an error: {e}"),
            Err(_) => eprintln!("server loop panicked"),
        }
        self.engine
    }
}

/// Builds the engine (durable under `durable` with the batch fsync
/// policy), binds the server on `127.0.0.1:0` with the default
/// configuration and starts it.
pub fn boot(db: EventDb, durable: Option<&Path>) -> Result<Booted, String> {
    let builder = Engine::builder(db);
    let builder = match durable {
        Some(dir) => builder
            .durable_with_policy(dir, FsyncPolicy::Batch)
            .map_err(|e| format!("durable open: {e}"))?,
        None => builder,
    };
    let engine = Arc::new(builder.build());
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..ServerConfig::default()
    };
    let (handle, join) =
        Server::spawn(Arc::clone(&engine), config).map_err(|e| format!("server bind: {e}"))?;
    Ok(Booted {
        engine,
        handle,
        join,
    })
}

/// Connects a protocol client; a reply slower than a minute fails the
/// request as a transport error instead of hanging the run.
pub fn connect(addr: SocketAddr) -> Result<Client, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    client
        .set_response_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("response timeout: {e}"))?;
    Ok(client)
}

/// What one statement was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A Figure-3 query or a navigation command.
    Read,
    /// A `STORE` batch.
    Store,
}

/// One request as the client saw it. Times are milliseconds since the
/// run's origin.
#[derive(Debug, Clone)]
pub struct Req {
    /// The client session (connection) that sent it.
    pub session: usize,
    /// Index of the statement in its session's stream.
    pub stmt: usize,
    /// Read or store.
    pub kind: Kind,
    /// When it was due (open loop) or sent (closed loop).
    pub due: f64,
    /// When it was written to the socket.
    pub sent: f64,
    /// When its full response line arrived.
    pub done: f64,
    /// Whether the server answered `ok:true`.
    pub ok: bool,
    /// Error code, or `transport` for a connection failure.
    pub code: Option<String>,
    /// The answer a read returned.
    pub answer: Option<Answer>,
    /// The strategy the reply names (`CB`, `II`, `reuse`, `cache`).
    pub strategy: Option<String>,
    /// For `ingest` reads: store batches acknowledged before the send and
    /// sent before the reply, bounding the version the read saw.
    pub versions: Option<(usize, usize)>,
}

/// A whole journey (a chain of reads one client sends back to back).
#[derive(Debug, Clone, Copy)]
pub struct Journey {
    /// Start (ms since origin).
    pub start: f64,
    /// Last reply (ms since origin).
    pub end: f64,
}

/// Everything a drive recorded.
#[derive(Debug, Default)]
pub struct DriveLog {
    /// Every attempted request.
    pub reqs: Vec<Req>,
    /// Completed journeys.
    pub journeys: Vec<Journey>,
    /// Seconds the drive measured.
    pub seconds: f64,
    /// Rows of every acknowledged `STORE`, in acknowledgement order.
    pub acked_batches: Vec<Batch>,
}

/// Event rows of one `STORE` batch.
pub type Batch = Vec<Vec<Value>>;

/// A reading client's requests and completed journeys.
type ReaderLog = (Vec<Req>, Vec<Journey>);

/// An open-loop sender's (due, sent) times and backlog samples.
type SenderLog = (Vec<(f64, f64)>, Vec<usize>);

fn ms_since(origin: Instant) -> f64 {
    origin.elapsed().as_secs_f64() * 1e3
}

fn record(
    session: usize,
    stmt: usize,
    kind: Kind,
    due: f64,
    sent: f64,
    done: f64,
    outcome: std::io::Result<WireResponse>,
) -> Req {
    let (ok, code, answer, strategy) = match outcome {
        Ok(r) => {
            let answer = (r.ok && kind == Kind::Read).then(|| Answer::of_body(&r.body));
            let strategy = strategy_of(&r.body).map(str::to_owned);
            (r.ok, r.code, answer, strategy)
        }
        Err(_) => (false, Some("transport".to_owned()), None, None),
    };
    Req {
        session,
        stmt,
        kind,
        due,
        sent,
        done,
        ok,
        code,
        answer,
        strategy,
        versions: None,
    }
}

/// Closed loop: one thread and one connection per session; each session
/// sends its journeys' statements one at a time, waiting for every reply,
/// until `seconds` have passed.
pub fn closed_loop(
    addr: SocketAddr,
    sessions: &[Vec<Vec<String>>],
    seconds: f64,
) -> Result<DriveLog, String> {
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(seconds);
    let results: Vec<Result<ReaderLog, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = sessions
            .iter()
            .enumerate()
            .map(|(session, journeys)| {
                s.spawn(move || {
                    let mut client = connect(addr)?;
                    let mut reqs = Vec::new();
                    let mut done_journeys = Vec::new();
                    let mut stmt = 0;
                    'outer: for journey in journeys.iter().cycle() {
                        let start = ms_since(origin);
                        for text in journey {
                            if Instant::now() >= deadline {
                                break 'outer;
                            }
                            let sent = ms_since(origin);
                            let outcome = client.request(text);
                            let done = ms_since(origin);
                            let transport_failed = outcome.is_err();
                            reqs.push(record(session, stmt, Kind::Read, sent, sent, done, outcome));
                            stmt += 1;
                            if transport_failed {
                                break 'outer;
                            }
                        }
                        done_journeys.push(Journey {
                            start,
                            end: ms_since(origin),
                        });
                    }
                    Ok((reqs, done_journeys))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("session thread panicked".to_owned()))
            })
            .collect()
    });
    let mut log = DriveLog {
        seconds: origin.elapsed().as_secs_f64(),
        ..DriveLog::default()
    };
    for r in results {
        let (reqs, journeys) = r?;
        log.reqs.extend(reqs);
        log.journeys.extend(journeys);
    }
    Ok(log)
}

/// The `ingest` loop: a writer connection sends `STORE` batches back to
/// back while a reader connection re-runs the live queries, each read
/// tagged with the range of store versions it may have seen.
pub fn ingest_loop(
    addr: SocketAddr,
    live: &[String],
    mut next_batch: impl FnMut() -> (Vec<Vec<Value>>, String) + Send,
    seconds: f64,
) -> Result<DriveLog, String> {
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(seconds);
    let acked = AtomicU64::new(0);
    let sent_count = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let (writer, reader) = std::thread::scope(|s| {
        let (acked, sent_count, stop) = (&acked, &sent_count, &stop);
        let writer = s.spawn(move || -> Result<(Vec<Req>, Vec<Batch>), String> {
            let mut client = connect(addr)?;
            let mut reqs = Vec::new();
            let mut batches = Vec::new();
            let mut stmt = 0;
            while Instant::now() < deadline {
                let (rows, text) = next_batch();
                sent_count.fetch_add(1, Ordering::SeqCst);
                let sent = ms_since(origin);
                let outcome = client.request(&text);
                let done = ms_since(origin);
                let req = record(0, stmt, Kind::Store, sent, sent, done, outcome);
                stmt += 1;
                let ok = req.ok;
                let transport_failed = req.code.as_deref() == Some("transport");
                reqs.push(req);
                if ok {
                    batches.push(rows);
                    acked.fetch_add(1, Ordering::SeqCst);
                } else {
                    // A failed batch was not applied: it no longer counts
                    // as possibly visible to readers.
                    sent_count.fetch_sub(1, Ordering::SeqCst);
                }
                if transport_failed {
                    break;
                }
            }
            stop.store(true, Ordering::SeqCst);
            Ok((reqs, batches))
        });
        let reader = s.spawn(move || -> Result<ReaderLog, String> {
            let mut client = connect(addr)?;
            let mut reqs = Vec::new();
            let mut journeys = Vec::new();
            let mut stmt = 0;
            'outer: loop {
                let start = ms_since(origin);
                for text in live {
                    if Instant::now() >= deadline || stop.load(Ordering::SeqCst) {
                        break 'outer;
                    }
                    let lo = acked.load(Ordering::SeqCst) as usize;
                    let sent = ms_since(origin);
                    let outcome = client.request(text);
                    let done = ms_since(origin);
                    let hi = sent_count.load(Ordering::SeqCst) as usize;
                    let mut req = record(1, stmt, Kind::Read, sent, sent, done, outcome);
                    req.versions = Some((lo, hi));
                    stmt += 1;
                    let transport_failed = req.code.as_deref() == Some("transport");
                    reqs.push(req);
                    if transport_failed {
                        break 'outer;
                    }
                }
                journeys.push(Journey {
                    start,
                    end: ms_since(origin),
                });
            }
            Ok((reqs, journeys))
        });
        (
            writer
                .join()
                .unwrap_or_else(|_| Err("writer thread panicked".to_owned())),
            reader
                .join()
                .unwrap_or_else(|_| Err("reader thread panicked".to_owned())),
        )
    });
    let (wreqs, batches) = writer?;
    let (rreqs, journeys) = reader?;
    let mut reqs = wreqs;
    reqs.extend(rreqs);
    Ok(DriveLog {
        reqs,
        journeys,
        seconds: origin.elapsed().as_secs_f64(),
        acked_batches: batches,
    })
}

/// One open-loop rung: reads due every `1 / rate` seconds over `seconds`,
/// cycling through the panels; every `panels.len()` consecutive reads form
/// one dashboard refresh.
#[derive(Debug)]
pub struct Rung {
    /// Offered read rate (statements per second).
    pub offered: f64,
    /// The requests, in send order.
    pub log: DriveLog,
    /// Outstanding requests sampled at the start of each refresh.
    pub backlog: Vec<usize>,
}

/// Open loop on one connection: a sender thread writes each statement
/// when it is due — whether or not earlier replies arrived — and a reader
/// thread blocks on the socket for the in-order replies, keeping raw lines
/// (parsed after the rung, off the measured path). Each read is timed from
/// its due time.
pub fn open_loop(
    addr: SocketAddr,
    panels: &[String],
    rate: f64,
    seconds: f64,
    session: usize,
) -> Result<Rung, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("read timeout: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let mut reader = std::io::BufReader::new(stream);
    let per = panels.len();
    let period = 1.0 / rate;
    let total = ((seconds * rate) as usize / per).max(1) * per;
    let lines: Vec<String> = panels.iter().map(|p| format!("{p}\n")).collect();
    let sent_total = AtomicU64::new(0);
    let recv_total = AtomicU64::new(0);
    let origin = Instant::now();
    let (send_result, raw) = std::thread::scope(|s| {
        let (sent_total, recv_total) = (&sent_total, &recv_total);
        let sender = s.spawn(move || -> Result<SenderLog, String> {
            let mut schedule = Vec::with_capacity(total);
            let mut backlog = Vec::with_capacity(total / per);
            for k in 0..total {
                // A refresh sends every panel at once (one burst, one due time).
                let due = (k / per * per) as f64 * period;
                let wait = due - origin.elapsed().as_secs_f64();
                if wait > 0.0 {
                    std::thread::sleep(Duration::from_secs_f64(wait));
                }
                if k % per == 0 {
                    backlog.push(
                        (sent_total.load(Ordering::SeqCst) - recv_total.load(Ordering::SeqCst))
                            as usize,
                    );
                }
                schedule.push((due * 1e3, ms_since(origin)));
                sent_total.fetch_add(1, Ordering::SeqCst);
                if let Err(e) = writer.write_all(lines[k % per].as_bytes()) {
                    // Unblock the reader: no more replies are coming.
                    let _ = writer.shutdown(std::net::Shutdown::Both);
                    return Err(format!("send: {e}"));
                }
            }
            Ok((schedule, backlog))
        });
        let receiver = s.spawn(move || -> Vec<(f64, std::io::Result<String>)> {
            // Every statement is sent unless the sender fails, which ends
            // the connection and with it the reads.
            let mut got = Vec::with_capacity(total);
            for _ in 0..total {
                let mut line = String::new();
                let outcome = match reader.read_line(&mut line) {
                    Ok(0) => Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed",
                    )),
                    Ok(_) => Ok(line),
                    Err(e) => Err(e),
                };
                let failed = outcome.is_err();
                got.push((ms_since(origin), outcome));
                recv_total.fetch_add(1, Ordering::SeqCst);
                if failed {
                    break;
                }
            }
            got
        });
        let send_result = sender
            .join()
            .unwrap_or_else(|_| Err("sender panicked".to_owned()));
        (send_result, receiver.join().unwrap_or_default())
    });
    let (schedule, backlog) = send_result?;
    let recv_result: Vec<(usize, f64, std::io::Result<WireResponse>)> = raw
        .into_iter()
        .enumerate()
        .map(|(i, (done, line))| (i, done, line.and_then(|l| WireResponse::parse(&l))))
        .collect();
    let mut log = DriveLog {
        seconds: origin.elapsed().as_secs_f64(),
        ..DriveLog::default()
    };
    let refreshes = total / per;
    let mut refresh_end = vec![f64::NAN; refreshes];
    for (i, done, outcome) in recv_result {
        let (due, sent) = schedule[i];
        if outcome.is_ok() {
            refresh_end[i / per] = done;
        }
        log.reqs.push(record(
            session,
            i % per,
            Kind::Read,
            due,
            sent,
            done,
            outcome,
        ));
    }
    // Requests that never got a reply count as transport failures.
    for (i, &(due, sent)) in schedule.iter().enumerate().skip(log.reqs.len()) {
        log.reqs.push(Req {
            session,
            stmt: i % per,
            kind: Kind::Read,
            due,
            sent,
            done: f64::NAN,
            ok: false,
            code: Some("transport".to_owned()),
            answer: None,
            strategy: None,
            versions: None,
        });
    }
    for (k, end) in refresh_end.into_iter().enumerate() {
        if end.is_finite() && (k + 1) * per <= log.reqs.len() {
            log.journeys.push(Journey {
                start: schedule[k * per].0,
                end,
            });
        }
    }
    Ok(Rung {
        offered: rate,
        log,
        backlog,
    })
}
