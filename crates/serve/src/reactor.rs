//! The event-driven TCP front end: a hand-rolled, std-only readiness
//! reactor.
//!
//! The build environment is std-only (no `mio`, no `libc`), so there is
//! no `poll(2)` to block on. The reactor gets the same effect from
//! nonblocking sockets plus a bounded backoff: a blocking accept loop
//! hands each connection to one of a fixed pool of I/O workers
//! (round-robin), and every worker level-polls its share of the
//! connections — drain readable bytes, cut complete requests out of the
//! per-connection buffer, answer through the shared
//! [`LineService`], queue the bytes, flush what the socket will take.
//! A pass that moves no bytes parks the worker for a few hundred
//! microseconds (or until the acceptor unparks it with a new
//! connection), which bounds idle CPU without giving up sub-millisecond
//! wake-up under load.
//!
//! The unit of work is one *complete request*, never one connection:
//! thousands of mostly-idle connections cost two buffers each, not a
//! thread each, and a burst of pipelined requests on one connection is
//! answered in one pass with one write. Request handling itself runs
//! inline on the worker — the handler fans heavy fits out to the
//! work-stealing pool in `dlm_numerics`, so I/O workers sized to the
//! machine keep every core busy without a second queueing layer.
//!
//! Connections start in JSON-lines mode: a request is one
//! `\n`-terminated line of at most 16 MiB, a trailing `\r` is stripped,
//! blank lines are skipped, and a line that is not UTF-8 is answered
//! with an error line before the connection closes. A `hello`
//! negotiation (see [`crate::wire`]) switches a connection to
//! length-prefixed binary frames mid-stream, pipelined bytes included.
//!
//! [`LineService`]: crate::server::LineService

use crate::protocol::error_response;
use crate::server::LineService;
use crate::telemetry::{ReactorWorkerMetrics, WireMetrics};
use crate::wire::{self, Transport};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long an idle worker parks between readiness passes. Small enough
/// to stay invisible next to a forecast's compute, large enough that an
/// idle reactor burns no measurable CPU.
const IDLE_PARK: Duration = Duration::from_micros(500);

/// Upper bound on one request line. The largest legitimate request is a
/// full-cascade ingest batch — tens of thousands of `[ts,voter]` pairs
/// fit comfortably; a client streaming an endless unterminated "line"
/// must not grow server memory without bound.
const MAX_LINE_BYTES: usize = 16 * 1024 * 1024;

/// Per-pass read chunk.
const READ_CHUNK: usize = 64 * 1024;

/// One multiplexed connection.
struct Conn {
    stream: TcpStream,
    /// Bytes received but not yet cut into complete requests.
    rbuf: Vec<u8>,
    /// Bytes queued to send, from `wpos` on.
    wbuf: Vec<u8>,
    wpos: usize,
    transport: Transport,
    /// The peer half-closed (EOF) or the protocol decided to hang up;
    /// flush what is queued, then drop.
    closing: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            transport: Transport::Lines,
            closing: false,
        }
    }

    fn queue_line(&mut self, line: &str) {
        self.wbuf.extend_from_slice(line.as_bytes());
        self.wbuf.push(b'\n');
    }

    fn queue_frame(&mut self, payload: &[u8]) {
        wire::frame_into(payload, &mut self.wbuf);
    }
}

/// What one pump pass decided about a connection.
enum Pump {
    /// Keep the connection; `true` when any bytes moved.
    Keep(bool),
    /// Drop the connection now.
    Drop,
}

/// The reactor's control block, owned by `DlmServer`.
#[derive(Debug)]
pub(crate) struct ReactorHandle {
    shutdown: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ReactorHandle {
    /// Stops the accept loop, wakes every worker, and joins the pool.
    /// Workers drop their connections outright: shutdown is teardown,
    /// not graceful drain, so queued but unsent responses are lost.
    pub(crate) fn shutdown(&mut self, addr: SocketAddr) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(addr);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        for worker in self.workers.drain(..) {
            worker.thread().unpark();
            let _ = worker.join();
        }
    }
}

/// Sizes the worker pool: an explicit `io_threads`, or one worker per
/// available core (capped — beyond that the workers just contend on the
/// accept fan-in for the workloads this serves).
fn pool_size(io_threads: usize) -> usize {
    if io_threads > 0 {
        return io_threads;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
        .clamp(2, 16)
}

/// Spawns the reactor over an already-bound listener.
pub(crate) fn spawn<S: LineService>(
    listener: TcpListener,
    state: Arc<S>,
    io_threads: usize,
) -> ReactorHandle {
    let shutdown = Arc::new(AtomicBool::new(false));
    let workers_n = pool_size(io_threads);
    let mut inboxes: Vec<Arc<Mutex<Vec<TcpStream>>>> = Vec::with_capacity(workers_n);
    let mut workers: Vec<JoinHandle<()>> = Vec::with_capacity(workers_n);
    // Per-worker `accepted` counters stay with the acceptor; the rest of
    // each worker's handles move into its loop. With no registry (plain
    // `LineService` impls) the whole telemetry layer compiles out to
    // `None` checks.
    let mut accepted: Vec<Option<dlm_obs::Counter>> = Vec::with_capacity(workers_n);
    for worker_id in 0..workers_n {
        let inbox: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        inboxes.push(Arc::clone(&inbox));
        let metrics = state
            .metrics_registry()
            .map(|r| (ReactorWorkerMetrics::new(r, worker_id), WireMetrics::new(r)));
        accepted.push(metrics.as_ref().map(|(m, _)| m.accepted.clone()));
        let state = Arc::clone(&state);
        let shutdown = Arc::clone(&shutdown);
        workers.push(std::thread::spawn(move || {
            worker_loop(state.as_ref(), &inbox, &shutdown, metrics.as_ref());
        }));
    }

    let accept_shutdown = Arc::clone(&shutdown);
    let worker_threads: Vec<std::thread::Thread> =
        workers.iter().map(|w| w.thread().clone()).collect();
    let accept_handle = std::thread::spawn(move || {
        let mut next = 0usize;
        for stream in listener.incoming() {
            if accept_shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let worker = next % inboxes.len();
            next = next.wrapping_add(1);
            if let Some(counter) = &accepted[worker] {
                counter.inc();
            }
            inboxes[worker]
                .lock()
                .expect("reactor inbox poisoned")
                .push(stream);
            worker_threads[worker].unpark();
        }
    });

    ReactorHandle {
        shutdown,
        accept_handle: Some(accept_handle),
        workers,
    }
}

/// One I/O worker: level-polls its connections until shutdown.
fn worker_loop<S: LineService>(
    state: &S,
    inbox: &Mutex<Vec<TcpStream>>,
    shutdown: &AtomicBool,
    metrics: Option<&(ReactorWorkerMetrics, WireMetrics)>,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut chunk = vec![0u8; READ_CHUNK];
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return; // drop all connections
        }
        {
            let mut inbox = inbox.lock().expect("reactor inbox poisoned");
            if let Some((worker, _)) = metrics {
                worker.inbox_depth.set(inbox.len() as i64);
            }
            conns.extend(inbox.drain(..).map(Conn::new));
        }
        let mut progress = false;
        let sweep_started = (metrics.is_some() && !conns.is_empty()).then(Instant::now);
        let wire_metrics = metrics.map(|(_, wire)| wire);
        conns.retain_mut(|conn| match pump(state, conn, &mut chunk, wire_metrics) {
            Pump::Keep(moved) => {
                progress |= moved;
                true
            }
            Pump::Drop => false,
        });
        if let Some((worker, _)) = metrics {
            if let Some(started) = sweep_started {
                worker.sweep.observe_duration(started.elapsed());
            }
            worker.active.set(conns.len() as i64);
        }
        if !progress {
            if let Some((worker, _)) = metrics {
                worker.parks.inc();
            }
            // Nothing moved: sleep until the acceptor unparks us or the
            // park times out (bounding added latency for data that
            // arrives while parked).
            std::thread::park_timeout(IDLE_PARK);
        } else if let Some((worker, _)) = metrics {
            worker.wakes.inc();
        }
    }
}

/// One readiness pass over one connection: flush, read, parse+handle,
/// flush again so same-pass responses leave immediately.
fn pump<S: LineService>(
    state: &S,
    conn: &mut Conn,
    chunk: &mut [u8],
    wire_metrics: Option<&WireMetrics>,
) -> Pump {
    let mut moved = false;
    match flush_writes(conn) {
        Ok(m) => moved |= m,
        Err(()) => return Pump::Drop,
    }
    if conn.closing {
        // Read side is done; once the write buffer drains, hang up.
        return if conn.wpos >= conn.wbuf.len() {
            Pump::Drop
        } else {
            Pump::Keep(moved)
        };
    }
    loop {
        match conn.stream.read(chunk) {
            Ok(0) => {
                conn.closing = true;
                break;
            }
            Ok(n) => {
                if let Some(wire) = wire_metrics {
                    wire.add_rx(conn.transport, n);
                }
                conn.rbuf.extend_from_slice(&chunk[..n]);
                moved = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Pump::Drop,
        }
    }
    if drain_requests(state, conn, wire_metrics).is_err() {
        conn.closing = true;
    }
    match flush_writes(conn) {
        Ok(m) => moved |= m,
        Err(()) => return Pump::Drop,
    }
    if conn.closing && conn.wpos >= conn.wbuf.len() {
        return Pump::Drop;
    }
    Pump::Keep(moved)
}

/// Writes as much of the queued bytes as the socket will take.
/// `Ok(true)` when bytes moved; `Err` on a dead socket.
fn flush_writes(conn: &mut Conn) -> std::result::Result<bool, ()> {
    let mut moved = false;
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => return Err(()),
            Ok(n) => {
                conn.wpos += n;
                moved = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Err(()),
        }
    }
    if conn.wpos >= conn.wbuf.len() {
        conn.wbuf.clear();
        conn.wpos = 0;
    }
    Ok(moved)
}

/// Cuts every complete request out of the receive buffer and queues its
/// response. `Err(())` means the connection must close after the queued
/// bytes flush (framing violation: oversize line/frame, bad UTF-8).
fn drain_requests<S: LineService>(
    state: &S,
    conn: &mut Conn,
    wire_metrics: Option<&WireMetrics>,
) -> std::result::Result<(), ()> {
    loop {
        match conn.transport {
            Transport::Lines => {
                let Some(newline) = conn.rbuf.iter().position(|&b| b == b'\n') else {
                    if conn.rbuf.len() > MAX_LINE_BYTES {
                        conn.queue_line(
                            &error_response("request line exceeds the size bound").to_string(),
                        );
                        return Err(());
                    }
                    return Ok(());
                };
                let raw: Vec<u8> = conn.rbuf.drain(..=newline).collect();
                let mut text = &raw[..raw.len() - 1];
                if text.last() == Some(&b'\r') {
                    text = &text[..text.len() - 1];
                }
                let Ok(line) = std::str::from_utf8(text) else {
                    conn.queue_line(&error_response("request line is not UTF-8").to_string());
                    return Err(());
                };
                if line.trim().is_empty() {
                    continue;
                }
                match wire::parse_hello(line) {
                    Some(Ok(transport)) => {
                        conn.queue_line(&wire::hello_response(transport));
                        conn.transport = transport;
                        // Pipelined bytes after the hello are parsed in
                        // the new framing on the next loop turn.
                    }
                    Some(Err(e)) => conn.queue_line(&error_response(&e.to_string()).to_string()),
                    None => {
                        let response = state.handle_line(line);
                        if let Some(wire) = wire_metrics {
                            wire.count_request(Transport::Lines);
                            wire.add_tx(Transport::Lines, response.len() + 1);
                        }
                        conn.queue_line(&response);
                    }
                }
            }
            Transport::Binary => match wire::try_extract_frame(&conn.rbuf) {
                Ok(None) => return Ok(()),
                Ok(Some((payload, consumed))) => {
                    let response = match wire::payload_to_line(&conn.rbuf[payload]) {
                        Ok(line) => state.handle_line(&line),
                        // Frame boundary intact: answer and carry on.
                        Err(e) => error_response(&e.to_string()).to_string(),
                    };
                    conn.rbuf.drain(..consumed);
                    if let Some(wire) = wire_metrics {
                        wire.count_request(Transport::Binary);
                        wire.add_tx(Transport::Binary, response.len() + wire::FRAME_HEADER_BYTES);
                    }
                    conn.queue_frame(response.as_bytes());
                }
                Err(e) => {
                    // Oversize declared length: the stream cannot be
                    // trusted past this header. Answer, then hang up.
                    conn.queue_frame(error_response(&e.to_string()).to_string().as_bytes());
                    return Err(());
                }
            },
        }
    }
}
