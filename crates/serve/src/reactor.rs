//! The event-driven TCP front end: a hand-rolled, std-only readiness
//! reactor over Linux `epoll(7)`.
//!
//! A blocking accept loop hands each connection to one of a fixed pool
//! of I/O workers (round-robin) through the worker's inbox and wakes it
//! through its eventfd. Every worker blocks in its own `epoll_wait`
//! until one of its connections is ready — or the acceptor or shutdown
//! writes its eventfd — then handles exactly the ready connections:
//! drain readable bytes, cut complete requests out of the
//! per-connection buffer, answer through the shared [`LineService`],
//! queue the bytes, flush what the socket will take. Connections are
//! watched level-triggered for reading, and for writing only while
//! bytes are queued, so an idle worker sleeps in the kernel and costs
//! no CPU, and new data wakes it at once.
//!
//! The unit of work is one *complete request*, never one connection:
//! thousands of mostly-idle connections cost two buffers each, not a
//! thread each, and a burst of pipelined requests on one connection is
//! answered in one pass with one write. Requests are cut with a read
//! cursor, and the receive buffer is compacted once per pass, so a
//! pipelined burst costs time linear in its bytes. Request handling
//! runs inline on the worker; the handler fans only heavy fits out to
//! the persistent pool in `dlm_numerics`.
//!
//! Connections start in JSON-lines mode: a request is one
//! `\n`-terminated line of at most 16 MiB, a trailing `\r` is stripped,
//! blank lines are skipped, and a line that is not UTF-8 is answered
//! with an error line before the connection closes. A `hello`
//! negotiation (see [`crate::wire`]) switches a connection to
//! length-prefixed binary frames mid-stream, pipelined bytes included.
//!
//! [`LineService`]: crate::server::LineService

use crate::epoll::{Epoll, Events, Waker, READABLE, WRITABLE};
use crate::protocol::error_response;
use crate::server::LineService;
use crate::telemetry::{ReactorWorkerMetrics, WireMetrics};
use crate::wire::{self, Transport};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Upper bound on one request line. The largest legitimate request is a
/// full-cascade ingest batch — tens of thousands of `[ts,voter]` pairs
/// fit comfortably; a client streaming an endless unterminated "line"
/// must not grow server memory without bound.
const MAX_LINE_BYTES: usize = 16 * 1024 * 1024;

/// Per-read chunk.
const READ_CHUNK: usize = 64 * 1024;

/// Readiness events taken per wait.
const EVENT_BATCH: usize = 256;

/// The epoll token of a worker's eventfd; connection tokens are slab
/// indices, which never reach it.
const WAKER_TOKEN: u64 = u64::MAX;

/// One multiplexed connection.
struct Conn {
    stream: TcpStream,
    /// Received bytes; `rbuf[rpos..]` is not yet cut into requests.
    rbuf: Vec<u8>,
    rpos: usize,
    /// `rbuf[rpos..scanned]` holds no newline, so a long line arriving
    /// in pieces is scanned once.
    scanned: usize,
    /// Bytes queued to send, from `wpos` on.
    wbuf: Vec<u8>,
    wpos: usize,
    transport: Transport,
    /// The peer half-closed (EOF) or the protocol decided to hang up;
    /// flush what is queued, then drop.
    closing: bool,
    /// The interest registered with the worker's epoll instance.
    interest: u32,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            rbuf: Vec::new(),
            rpos: 0,
            scanned: 0,
            wbuf: Vec::new(),
            wpos: 0,
            transport: Transport::Lines,
            closing: false,
            interest: READABLE,
        }
    }

    /// Readable until the read side is done; writable while bytes are
    /// queued. Level-triggered, so a closing connection must stop
    /// watching its read side or its EOF would wake the worker forever.
    fn wanted_interest(&self) -> u32 {
        let mut interest = 0;
        if !self.closing {
            interest |= READABLE;
        }
        if self.wpos < self.wbuf.len() {
            interest |= WRITABLE;
        }
        interest
    }
}

fn queue_line(wbuf: &mut Vec<u8>, line: &str) {
    wbuf.extend_from_slice(line.as_bytes());
    wbuf.push(b'\n');
}

/// What the acceptor and shutdown share with one I/O worker.
#[derive(Debug)]
struct WorkerShared {
    epoll: Epoll,
    waker: Waker,
    /// Accepted connections not yet adopted by the worker.
    inbox: Mutex<Vec<TcpStream>>,
}

impl WorkerShared {
    fn new() -> std::io::Result<Self> {
        let epoll = Epoll::new()?;
        let waker = Waker::new()?;
        epoll.add(waker.as_raw_fd(), READABLE, WAKER_TOKEN)?;
        Ok(Self {
            epoll,
            waker,
            inbox: Mutex::new(Vec::new()),
        })
    }
}

/// The reactor's control block, owned by `DlmServer`.
#[derive(Debug)]
pub(crate) struct ReactorHandle {
    shutdown: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    workers: Vec<(JoinHandle<()>, Arc<WorkerShared>)>,
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
        for (worker, shared) in self.workers.drain(..) {
            shared.waker.wake();
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
    dlm_numerics::pool::available_cores().clamp(2, 16)
}

/// Spawns the reactor over an already-bound listener.
///
/// # Errors
///
/// Creating a worker's epoll instance or eventfd failed.
pub(crate) fn spawn<S: LineService>(
    listener: TcpListener,
    state: Arc<S>,
    io_threads: usize,
) -> std::io::Result<ReactorHandle> {
    let shutdown = Arc::new(AtomicBool::new(false));
    let workers_n = pool_size(io_threads);
    let shared: Vec<Arc<WorkerShared>> = (0..workers_n)
        .map(|_| WorkerShared::new().map(Arc::new))
        .collect::<std::io::Result<_>>()?;
    let mut workers = Vec::with_capacity(workers_n);
    // Per-worker `accepted` counters stay with the acceptor; the rest of
    // each worker's handles move into its loop. With no registry (plain
    // `LineService` impls) the whole telemetry layer compiles out to
    // `None` checks.
    let mut accepted: Vec<Option<dlm_obs::Counter>> = Vec::with_capacity(workers_n);
    for (worker_id, worker) in shared.iter().enumerate() {
        let metrics = state
            .metrics_registry()
            .map(|r| (ReactorWorkerMetrics::new(r, worker_id), WireMetrics::new(r)));
        accepted.push(metrics.as_ref().map(|(m, _)| m.accepted.clone()));
        let state = Arc::clone(&state);
        let shutdown = Arc::clone(&shutdown);
        let own = Arc::clone(worker);
        let handle = std::thread::spawn(move || {
            worker_loop(state.as_ref(), &own, &shutdown, metrics.as_ref());
        });
        workers.push((handle, Arc::clone(worker)));
    }

    let accept_shutdown = Arc::clone(&shutdown);
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
            let worker = next % shared.len();
            next = next.wrapping_add(1);
            if let Some(counter) = &accepted[worker] {
                counter.inc();
            }
            shared[worker]
                .inbox
                .lock()
                .expect("reactor inbox poisoned")
                .push(stream);
            shared[worker].waker.wake();
        }
    });

    Ok(ReactorHandle {
        shutdown,
        accept_handle: Some(accept_handle),
        workers,
    })
}

/// One I/O worker: waits for readiness, handles the ready connections,
/// until shutdown.
fn worker_loop<S: LineService>(
    state: &S,
    shared: &WorkerShared,
    shutdown: &AtomicBool,
    metrics: Option<&(ReactorWorkerMetrics, WireMetrics)>,
) {
    // Connection slab: an event's token is its connection's index.
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut active = 0usize;
    let mut events = Events::with_capacity(EVENT_BATCH);
    let mut chunk = vec![0u8; READ_CHUNK];
    let wire_metrics = metrics.map(|(_, wire)| wire);
    loop {
        if let Some((worker, _)) = metrics {
            worker.waits.inc();
        }
        let ready = shared
            .epoll
            .wait(&mut events)
            .expect("epoll_wait on the worker's own epoll instance");
        let batch_started = metrics.is_some().then(Instant::now);
        for event in ready {
            if event.token() == WAKER_TOKEN {
                shared.waker.reset();
                if shutdown.load(Ordering::SeqCst) {
                    return; // drop all connections
                }
                let adopted: Vec<TcpStream> =
                    std::mem::take(&mut *shared.inbox.lock().expect("reactor inbox poisoned"));
                if let Some((worker, _)) = metrics {
                    worker.inbox_depth.set(adopted.len() as i64);
                }
                for stream in adopted {
                    let token = free.pop().unwrap_or_else(|| {
                        conns.push(None);
                        conns.len() - 1
                    });
                    // A connection epoll cannot watch is dropped.
                    if shared
                        .epoll
                        .add(stream.as_raw_fd(), READABLE, token as u64)
                        .is_ok()
                    {
                        conns[token] = Some(Conn::new(stream));
                        active += 1;
                    } else {
                        free.push(token);
                    }
                }
                continue;
            }
            // A stale event of a connection dropped earlier in this
            // batch finds an empty slot, or a connection adopted into
            // it since; level-triggered readiness makes the second a
            // spurious wake, nothing more.
            let token = event.token();
            let index = usize::try_from(token).expect("connection tokens are slab indices");
            let Some(conn) = conns.get_mut(index).and_then(Option::as_mut) else {
                continue;
            };
            if let Some((worker, _)) = metrics {
                worker.events.inc();
            }
            let keep = pump(state, conn, event.readiness(), &mut chunk, wire_metrics) && {
                let wanted = conn.wanted_interest();
                wanted == conn.interest
                    || shared
                        .epoll
                        .modify(conn.stream.as_raw_fd(), wanted, token)
                        .map(|()| conn.interest = wanted)
                        .is_ok()
            };
            if !keep {
                // Closing the socket also unregisters it.
                conns[index] = None;
                free.push(index);
                active -= 1;
            }
        }
        if let (Some((worker, _)), Some(started)) = (metrics, batch_started) {
            worker.batch.observe_duration(started.elapsed());
            worker.active.set(active as i64);
        }
    }
}

/// Handles one readiness event on one connection: read what arrived,
/// answer every complete request, flush what the socket takes. Returns
/// whether to keep the connection.
fn pump<S: LineService>(
    state: &S,
    conn: &mut Conn,
    readiness: u32,
    chunk: &mut [u8],
    wire_metrics: Option<&WireMetrics>,
) -> bool {
    // Anything but plain writability (readable, error, hang-up) is
    // worth a read: the read itself says which it was.
    if !conn.closing && readiness & !WRITABLE != 0 {
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
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        if drain_requests(state, conn, wire_metrics).is_err() {
            conn.closing = true;
        }
    }
    if flush_writes(conn).is_err() {
        return false;
    }
    !(conn.closing && conn.wpos >= conn.wbuf.len())
}

/// Writes as much of the queued bytes as the socket will take; `Err` on
/// a dead socket.
fn flush_writes(conn: &mut Conn) -> std::result::Result<(), ()> {
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => return Err(()),
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Err(()),
        }
    }
    if conn.wpos >= conn.wbuf.len() {
        conn.wbuf.clear();
        conn.wpos = 0;
    }
    Ok(())
}

/// Cuts every complete request out of the receive buffer and queues its
/// response, then compacts the buffer once. `Err(())` means the
/// connection must close after the queued bytes flush (framing
/// violation: oversize line/frame, bad UTF-8).
fn drain_requests<S: LineService>(
    state: &S,
    conn: &mut Conn,
    wire_metrics: Option<&WireMetrics>,
) -> std::result::Result<(), ()> {
    let outcome = cut_requests(state, conn, wire_metrics);
    conn.rbuf.drain(..conn.rpos);
    conn.scanned -= conn.rpos;
    conn.rpos = 0;
    outcome
}

/// The loop of [`drain_requests`]: advances `conn.rpos` past every
/// request it answers, leaving the bytes in place.
fn cut_requests<S: LineService>(
    state: &S,
    conn: &mut Conn,
    wire_metrics: Option<&WireMetrics>,
) -> std::result::Result<(), ()> {
    loop {
        match conn.transport {
            Transport::Lines => {
                let Some(offset) = conn.rbuf[conn.scanned..].iter().position(|&b| b == b'\n')
                else {
                    conn.scanned = conn.rbuf.len();
                    if conn.rbuf.len() - conn.rpos > MAX_LINE_BYTES {
                        queue_line(
                            &mut conn.wbuf,
                            &error_response("request line exceeds the size bound").to_string(),
                        );
                        return Err(());
                    }
                    return Ok(());
                };
                let newline = conn.scanned + offset;
                let mut text = &conn.rbuf[conn.rpos..newline];
                conn.rpos = newline + 1;
                conn.scanned = conn.rpos;
                if text.last() == Some(&b'\r') {
                    text = &text[..text.len() - 1];
                }
                let Ok(line) = std::str::from_utf8(text) else {
                    queue_line(
                        &mut conn.wbuf,
                        &error_response("request line is not UTF-8").to_string(),
                    );
                    return Err(());
                };
                if line.trim().is_empty() {
                    continue;
                }
                match wire::parse_hello(line) {
                    Some(Ok(transport)) => {
                        queue_line(&mut conn.wbuf, &wire::hello_response(transport));
                        conn.transport = transport;
                        // Pipelined bytes after the hello are parsed in
                        // the new framing on the next loop turn.
                    }
                    Some(Err(e)) => {
                        queue_line(&mut conn.wbuf, &error_response(&e.to_string()).to_string());
                    }
                    None => {
                        let response = state.handle_line(line);
                        if let Some(wire) = wire_metrics {
                            wire.count_request(Transport::Lines);
                            wire.add_tx(Transport::Lines, response.len() + 1);
                        }
                        queue_line(&mut conn.wbuf, &response);
                    }
                }
            }
            Transport::Binary => match wire::try_extract_frame(&conn.rbuf[conn.rpos..]) {
                Ok(None) => return Ok(()),
                Ok(Some((payload, consumed))) => {
                    let payload = &conn.rbuf[conn.rpos + payload.start..conn.rpos + payload.end];
                    let response = match wire::payload_to_line(payload) {
                        Ok(line) => state.handle_line(&line),
                        // Frame boundary intact: answer and carry on.
                        Err(e) => error_response(&e.to_string()).to_string(),
                    };
                    conn.rpos += consumed;
                    conn.scanned = conn.rpos;
                    if let Some(wire) = wire_metrics {
                        wire.count_request(Transport::Binary);
                        wire.add_tx(Transport::Binary, response.len() + wire::FRAME_HEADER_BYTES);
                    }
                    wire::frame_into(response.as_bytes(), &mut conn.wbuf);
                }
                Err(e) => {
                    // Oversize declared length: the stream cannot be
                    // trusted past this header. Answer, then hang up.
                    wire::frame_into(
                        error_response(&e.to_string()).to_string().as_bytes(),
                        &mut conn.wbuf,
                    );
                    return Err(());
                }
            },
        }
    }
}
