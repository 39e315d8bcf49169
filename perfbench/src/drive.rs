//! Client drivers: closed-loop and open-loop pacing over one
//! connection per client thread, recording every response.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Duration;

use dlm_serve::LineClient;

use crate::trace::{now_ns, Span};
use crate::workload::{push_cascade, Inputs, Pacing, Step, Verb, Workload, CLIENTS};

/// One completed request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index into the client's script.
    pub step: usize,
    /// When the request was due ([`now_ns`] time); equals `sent` in a
    /// closed loop.
    pub due: u64,
    /// When the request was written.
    pub sent: u64,
    /// When the response was read.
    pub done: u64,
    /// The response line.
    pub response: String,
}

impl Sample {
    /// Client-observed latency in milliseconds, counted from when the
    /// request was due, so a stall also charges the requests queued
    /// behind it.
    #[must_use]
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) as f64 / 1e6
    }

    /// How late the client sent the request, in microseconds.
    #[must_use]
    pub fn lag_us(&self) -> f64 {
        (self.sent - self.due) as f64 / 1e3
    }
}

/// What one client sent and received.
#[derive(Debug)]
pub struct ClientRun {
    /// The client's script, including any replayed passes.
    pub steps: Vec<Step>,
    /// Completed requests in send order.
    pub samples: Vec<Sample>,
}

impl ClientRun {
    /// The script step a sample answered.
    #[must_use]
    pub fn step(&self, sample: &Sample) -> &Step {
        &self.steps[sample.step]
    }
}

/// One timed phase.
#[derive(Debug)]
pub struct Run {
    /// Per-client record, in client order.
    pub clients: Vec<ClientRun>,
    /// Start of the timed phase.
    pub start: u64,
    /// Last response of the timed phase.
    pub end: u64,
}

impl Run {
    /// Every (step, sample) pair, client by client.
    pub fn samples(&self) -> impl Iterator<Item = (&Step, &Sample)> {
        self.clients
            .iter()
            .flat_map(|c| c.samples.iter().map(move |s| (c.step(s), s)))
    }

    /// Latencies of one verb, in milliseconds.
    #[must_use]
    pub fn latencies_ms(&self, verb: Verb) -> Vec<f64> {
        self.samples()
            .filter(|(step, _)| step.verb == verb)
            .map(|(_, s)| s.latency_ms())
            .collect()
    }

    /// Completed requests.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.clients.iter().map(|c| c.samples.len()).sum()
    }

    /// Length of the timed phase in seconds.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        (self.end - self.start) as f64 / 1e9
    }

    /// Completed requests per second of the timed phase.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        self.completed() as f64 / self.seconds()
    }

    /// One `client` span per request, keyed by its trace id.
    #[must_use]
    pub fn client_spans(&self) -> Vec<Span> {
        self.samples()
            .map(|(step, s)| Span {
                name: "client",
                trace: step.trace,
                parent: None,
                start: s.sent,
                end: s.done,
            })
            .collect()
    }
}

/// When the `k`-th request of `client` is due, in nanoseconds after the
/// start of an open loop offering `rate` requests per second over
/// [`CLIENTS`] clients. Clients are interleaved evenly.
#[must_use]
pub fn due_offset_ns(rate: f64, client: usize, k: usize) -> u64 {
    let slot = (k * CLIENTS + client) as f64;
    (slot * 1e9 / rate).round() as u64
}

/// Requests each client sends in an open loop of `seconds` at `rate`.
#[must_use]
pub fn open_loop_requests(rate: f64, seconds: f64) -> usize {
    (rate * seconds / CLIENTS as f64).floor() as usize
}

/// Keeps the clients of a shared workload on the same step, so that the
/// fits their identical requests trigger always race.
struct Lockstep {
    barrier: Barrier,
    stop: AtomicBool,
}

impl Lockstep {
    /// Waits for every client to reach this step; returns whether to
    /// stop, as decided by one of them with `stop_here`.
    fn sync(&self, stop_here: bool) -> bool {
        if self.barrier.wait().is_leader() {
            self.stop.store(stop_here, Ordering::SeqCst);
        }
        self.barrier.wait();
        self.stop.load(Ordering::SeqCst)
    }
}

/// Ends the process on a client I/O failure: the run cannot be
/// measured, and a lockstep partner would wait for it forever.
fn lost_connection(client: usize, e: &dlm_serve::ServeError) -> ! {
    eprintln!("perfbench: client {client} lost its connection: {e}");
    std::process::exit(1)
}

/// Runs one client until it should stop, replaying its pool under fresh
/// ids if it runs out of script.
#[allow(clippy::too_many_arguments)]
fn drive_client(
    w: &Workload,
    inputs: &Inputs,
    client: usize,
    conn: &mut LineClient,
    mut steps: Vec<Step>,
    start: u64,
    seconds: f64,
    lockstep: Option<&Lockstep>,
) -> ClientRun {
    let deadline = start + (seconds * 1e9) as u64;
    let budget = match w.pacing {
        Pacing::Open { rate } => open_loop_requests(rate, seconds),
        Pacing::Closed => usize::MAX,
    };
    let mut samples = Vec::new();
    let mut passes = 1;
    for i in 0.. {
        if i == steps.len() {
            for k in 0..w.pool {
                push_cascade(w, inputs, w.key(client, k), client, passes, &mut steps);
            }
            passes += 1;
        }
        let step = &steps[i];
        let due = match w.pacing {
            Pacing::Open { rate } => start + due_offset_ns(rate, client, i),
            Pacing::Closed => now_ns(),
        };
        let finished = i >= budget || (budget == usize::MAX && due >= deadline);
        let stop = finished && step.ordinal >= w.scored;
        if lockstep.map_or(stop, |l| l.sync(stop)) {
            break;
        }
        let due = if lockstep.is_some() { now_ns() } else { due };
        let now = now_ns();
        if due > now {
            std::thread::sleep(Duration::from_nanos(due - now));
        }
        let sent = now_ns();
        let response = conn
            .send_raw(&step.line)
            .unwrap_or_else(|e| lost_connection(client, &e));
        samples.push(Sample {
            step: i,
            due,
            sent,
            done: now_ns(),
            response,
        });
    }
    ClientRun { steps, samples }
}

/// Runs the timed phase: one thread per client connection. Clients of
/// a shared workload run in lockstep.
#[must_use]
pub fn run(
    w: &Workload,
    inputs: &Inputs,
    clients: &mut [LineClient],
    scripts: Vec<Vec<Step>>,
    seconds: f64,
) -> Run {
    let lockstep = w.shared.then(|| Lockstep {
        barrier: Barrier::new(clients.len()),
        stop: AtomicBool::new(false),
    });
    let lockstep = lockstep.as_ref();
    let start = now_ns();
    let clients: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(scripts)
            .enumerate()
            .map(|(c, (conn, steps))| {
                scope.spawn(move || {
                    drive_client(w, inputs, c, conn, steps, start, seconds, lockstep)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let end = clients
        .iter()
        .flat_map(|c| c.samples.last())
        .map(|s| s.done)
        .max()
        .unwrap_or(start);
    Run {
        clients,
        start,
        end,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_schedule_interleaves_clients_at_the_offered_rate() {
        // 400 req/s over two clients: one request every 2.5 ms, the
        // clients alternating.
        assert_eq!(due_offset_ns(400.0, 0, 0), 0);
        assert_eq!(due_offset_ns(400.0, 1, 0), 2_500_000);
        assert_eq!(due_offset_ns(400.0, 0, 1), 5_000_000);
        assert_eq!(due_offset_ns(400.0, 1, 3), 17_500_000);
        assert_eq!(open_loop_requests(400.0, 10.0), 2000);
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        // Due at 1 ms, sent late at 4 ms behind a stall, answered at
        // 6 ms: 5 ms of latency, 3 ms of it spent waiting to be sent.
        let s = Sample {
            step: 0,
            due: 1_000_000,
            sent: 4_000_000,
            done: 6_000_000,
            response: String::new(),
        };
        assert_eq!(s.latency_ms(), 5.0);
        assert_eq!(s.lag_us(), 3000.0);
        // In a closed loop due == sent, so latency is the round trip.
        let s = Sample {
            due: 4_000_000,
            ..s
        };
        assert_eq!(s.latency_ms(), 2.0);
        assert_eq!(s.lag_us(), 0.0);
    }
}
