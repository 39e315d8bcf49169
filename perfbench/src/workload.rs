//! The benchmark's workloads: what each one generates, the request
//! lines its clients send, the ground truth its forecasts are scored
//! against, and the serving tier it runs on.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::Arc;

use dlm_cascade::hops::hop_density_matrix;
use dlm_cascade::DensityMatrix;
use dlm_core::{GraphContext, GrowthFamily, ModelSpec, Observation};
use dlm_graph::DiGraph;
use dlm_router::{RouterConfig, RouterState};
use dlm_scenarios::{find_regime, Regime, ScenarioCascade, SCENARIO_MAX_HOPS};
use dlm_serve::{DlmServer, LineClient, LineService, ServeConfig, ServerState};

use crate::trace::{SpanLog, Traced};

/// Which serving tier the clients talk to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// One `DlmServer` over a `ServerState`.
    Direct,
    /// A `RouterState` front over [`ROUTED_BACKENDS`] backends.
    Routed,
}

/// Backends behind the routed tier.
pub const ROUTED_BACKENDS: usize = 2;

/// Live cascades each server keeps. A client finishes its cascades one
/// after another, so a small bound evicts only finished ones, and server
/// memory levels off early in a run instead of growing with how far the
/// run got: `peak_rss_mb` then measures the steady state.
pub const CASCADE_CAPACITY: usize = 128;

/// How requests are paced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// Each client sends its next request when the previous one returns.
    Closed,
    /// Requests are due on a fixed schedule of `rate` requests per
    /// second across all clients, whether or not earlier ones returned.
    Open {
        /// Offered requests per second, summed over clients.
        rate: f64,
    },
}

/// Which forecasts a cascade's script asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Forecasts {
    /// After each clean ingest that leaves hours open, forecast every
    /// remaining hour from everything observed so far.
    Remaining,
    /// One forecast after the last delivery: the held-out hours after
    /// the first `through` hours.
    HeldOut {
        /// Observed hours the forecast fits on.
        through: u32,
    },
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// `dlm-scenarios` regime the cascades come from.
    pub regime: &'static str,
    /// Serving tier.
    pub tier: Tier,
    /// Whether the tier serves the paper lineup (else the server's
    /// default lineup).
    pub paper_lineup: bool,
    /// Request pacing.
    pub pacing: Pacing,
    /// Whether both clients replay the same cascades (under distinct
    /// ids) instead of disjoint ones.
    pub shared: bool,
    /// Forecast plan per cascade.
    pub forecasts: Forecasts,
    /// Cascades generated per client at set-up; clients that run
    /// through them replay them again under fresh ids.
    pub pool: usize,
    /// Leading cascades per client whose forecasts are scored for
    /// accuracy. They come from the fixed [`REFERENCE_SEED`] stream, and
    /// no run stops before every client has finished them, so the
    /// accuracy is the same on every run and every seed.
    pub scored: usize,
    /// Whether `--seed` draws the unscored cascades. Without it every
    /// cascade comes from the [`REFERENCE_SEED`] stream: on the default
    /// lineup a few cascades whose calibrations run a full search cost
    /// a thousand times more than the rest, so seed-drawn cascades would
    /// make throughput measure which cascades were drawn.
    pub seeded: bool,
    /// When set to `n`, every `n`-th cascade of a client is one whose
    /// hour-1 peak density is below the `dl-cal` seed capacity, and the
    /// others are not, each kind taken in stream order. `dl-cal` runs
    /// its full search only on the former (at or above it the seed point
    /// is infeasible and the search stops at once), so ingest latency is
    /// bimodal, and a mix near half and half would leave the median
    /// ingest on the boundary between the modes.
    pub searched_every: Option<usize>,
}

/// Client threads (and connections) per workload.
pub const CLIENTS: usize = 2;

/// Seed of every workload's graph and of its scored cascades. The
/// `--seed` argument picks every other cascade.
pub const REFERENCE_SEED: u64 = 0;

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "paper-forecast",
        regime: "viral",
        tier: Tier::Direct,
        paper_lineup: true,
        pacing: Pacing::Open { rate: 120.0 },
        shared: false,
        forecasts: Forecasts::Remaining,
        pool: 200,
        scored: 40,
        seeded: true,
        searched_every: None,
    },
    Workload {
        name: "routed-ingest",
        regime: "storm",
        tier: Tier::Routed,
        paper_lineup: true,
        pacing: Pacing::Open { rate: 100.0 },
        shared: false,
        forecasts: Forecasts::HeldOut { through: 2 },
        pool: 150,
        scored: 40,
        seeded: true,
        searched_every: None,
    },
    Workload {
        name: "calibrated-refit",
        regime: "viral",
        tier: Tier::Direct,
        paper_lineup: false,
        pacing: Pacing::Closed,
        shared: true,
        forecasts: Forecasts::Remaining,
        pool: 90,
        scored: 6,
        seeded: false,
        searched_every: Some(3),
    },
];

/// Looks a workload up by name.
#[must_use]
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The paper lineup: fixed-parameter DL on friendship hops plus the
/// cheap baselines.
#[must_use]
pub fn paper_lineup() -> Vec<ModelSpec> {
    vec![
        ModelSpec::paper_hops_dl(),
        ModelSpec::LogisticOnly {
            capacity: 25.0,
            growth: GrowthFamily::PaperHops,
        },
        ModelSpec::Naive,
        ModelSpec::LinearTrend,
    ]
}

impl Workload {
    /// The lineup the tier serves.
    #[must_use]
    pub fn lineup(&self) -> Vec<ModelSpec> {
        if self.paper_lineup {
            paper_lineup()
        } else {
            ModelSpec::default_lineup()
        }
    }

    /// The serving configuration every server of the tier runs.
    #[must_use]
    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            lineup: self.lineup(),
            cascade_capacity: CASCADE_CAPACITY,
            ..ServeConfig::default()
        }
    }

    /// The catalog regime.
    #[must_use]
    pub fn regime(&self) -> &'static Regime {
        find_regime(self.regime).expect("workload names a catalog regime")
    }

    /// Key of a client's `k`-th pool cascade; clients of a shared
    /// workload share keys. Without a [`Workload::searched_every`] mix
    /// it is also the cascade's stream index.
    #[must_use]
    pub fn key(&self, client: usize, k: usize) -> u64 {
        if self.shared {
            k as u64
        } else {
            (k * CLIENTS + client) as u64
        }
    }

    /// Seed of the stream a client's `k`-th pool cascade is drawn from:
    /// [`REFERENCE_SEED`] for the scored cascades (and for every cascade
    /// of an unseeded workload), `seed` for the rest. Both streams share
    /// the reference graph.
    #[must_use]
    pub fn stream_seed(&self, k: usize, seed: u64) -> u64 {
        if k < self.scored || !self.seeded {
            REFERENCE_SEED
        } else {
            seed
        }
    }
}

/// Request verbs the benchmark sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// `open`.
    Open,
    /// `ingest`.
    Ingest,
    /// `forecast`.
    Forecast,
}

/// One request of a client's script.
#[derive(Debug, Clone)]
pub struct Step {
    /// The request's verb.
    pub verb: Verb,
    /// The request line, ending in its `trace` field.
    pub line: String,
    /// Whether the response must be `ok` (late echoes must not be).
    pub expect_ok: bool,
    /// Key of the cascade the request is about.
    pub cascade: u64,
    /// How many cascades the client started before this one.
    pub ordinal: usize,
    /// The request's trace id.
    pub trace: u64,
}

/// What the forecasts of one cascade are scored and checked against.
#[derive(Debug)]
pub struct Truth {
    /// Hop-density matrix of the cascade's accepted votes.
    pub matrix: DensityMatrix,
    /// Initiating node.
    pub initiator: usize,
    /// Hour-1 voters in delivery order (the epidemic models' seeds).
    pub hour1: Vec<usize>,
}

impl Truth {
    /// The observation over hours `1..=through`, with the graph context
    /// the server attaches to hop-metric cascades.
    ///
    /// # Errors
    ///
    /// Propagates observation construction errors.
    pub fn observation(&self, graph: &Arc<DiGraph>, through: u32) -> dlm_core::Result<Observation> {
        let hours: Vec<u32> = (1..=through).collect();
        Ok(
            Observation::from_matrix(&self.matrix, &hours)?.with_graph(GraphContext::new(
                Arc::clone(graph),
                self.initiator,
                self.hour1.clone(),
            )),
        )
    }
}

/// Generated inputs of one run: the regime graph, the cascades, and
/// their ground truth, by key.
#[derive(Debug)]
pub struct Inputs {
    /// The regime's follower graph, drawn from [`REFERENCE_SEED`].
    pub graph: Arc<DiGraph>,
    /// Cascades by key.
    pub cascades: HashMap<u64, ScenarioCascade>,
    /// Ground truth by key.
    pub truths: HashMap<u64, Truth>,
}

impl Inputs {
    /// Generates the workload's cascades and their ground truth.
    ///
    /// # Errors
    ///
    /// Scenario or density-matrix failures, as text.
    pub fn generate(w: &Workload, seed: u64) -> Result<Self, String> {
        let regime = w.regime();
        let graph = Arc::new(regime.graph(REFERENCE_SEED).map_err(|e| e.to_string())?);
        let clients = if w.shared { 1 } else { CLIENTS };
        let slots: Vec<(u64, usize)> = (0..w.pool)
            .flat_map(|k| (0..clients).map(move |c| (w.key(c, k), k)))
            .collect();
        let drawn: Vec<Result<(u64, ScenarioCascade, Truth), String>> = match w.searched_every {
            None => slots
                .iter()
                .map(|&(key, k)| {
                    let cascade = regime
                        .cascade(&graph, w.stream_seed(k, seed), key)
                        .map_err(|e| e.to_string())?;
                    let truth = truth(&graph, &cascade)?;
                    Ok((key, cascade, truth))
                })
                .collect(),
            Some(every) => {
                let mut streams: HashMap<u64, MixedStream> = HashMap::new();
                slots
                    .iter()
                    .map(|&(key, k)| {
                        let stream_seed = w.stream_seed(k, seed);
                        let (cascade, truth) = streams.entry(stream_seed).or_default().take(
                            regime,
                            &graph,
                            stream_seed,
                            k % every == 0,
                        )?;
                        Ok((key, cascade, truth))
                    })
                    .collect()
            }
        };
        let mut cascades = HashMap::new();
        let mut truths = HashMap::new();
        for entry in drawn {
            let (key, cascade, truth) = entry?;
            cascades.insert(key, cascade);
            truths.insert(key, truth);
        }
        Ok(Self {
            graph,
            cascades,
            truths,
        })
    }
}

/// The `dl-cal` seed capacity of the server's default lineup.
fn calibration_seed_capacity() -> f64 {
    ModelSpec::default_lineup()
        .into_iter()
        .find_map(|spec| match spec {
            ModelSpec::DlCalibrated { seed_capacity, .. } => Some(seed_capacity),
            _ => None,
        })
        .expect("the default lineup calibrates dl")
}

/// Whether `dl-cal` runs its full search on this cascade: its hour-1
/// peak density is below the seed capacity.
fn calibration_searches(truth: &Truth) -> Result<bool, String> {
    let peak = truth
        .matrix
        .profile_at(1)
        .map_err(|e| e.to_string())?
        .into_iter()
        .fold(0.0, f64::max);
    Ok(peak < calibration_seed_capacity())
}

/// One stream's cascades split by [`calibration_searches`], each kind
/// handed out in stream order.
#[derive(Default)]
struct MixedStream {
    next: u64,
    searched: VecDeque<(ScenarioCascade, Truth)>,
    stopped: VecDeque<(ScenarioCascade, Truth)>,
}

impl MixedStream {
    fn take(
        &mut self,
        regime: &Regime,
        graph: &DiGraph,
        seed: u64,
        searched: bool,
    ) -> Result<(ScenarioCascade, Truth), String> {
        loop {
            let queue = if searched {
                &mut self.searched
            } else {
                &mut self.stopped
            };
            if let Some(drawn) = queue.pop_front() {
                return Ok(drawn);
            }
            let cascade = regime
                .cascade(graph, seed, self.next)
                .map_err(|e| e.to_string())?;
            self.next += 1;
            let truth = truth(graph, &cascade)?;
            let kind = if calibration_searches(&truth)? {
                &mut self.searched
            } else {
                &mut self.stopped
            };
            kind.push_back((cascade, truth));
        }
    }
}

fn truth(graph: &DiGraph, cascade: &ScenarioCascade) -> Result<Truth, String> {
    let story = dlm_data::Cascade::from_parts(
        1,
        cascade.initiator,
        cascade.submit_time,
        cascade.accepted_as_votes(1),
    )
    .map_err(|e| e.to_string())?;
    let matrix = hop_density_matrix(graph, &story, SCENARIO_MAX_HOPS, cascade.horizon)
        .map_err(|e| e.to_string())?;
    let hour_end = cascade.submit_time + 3600;
    let hour1 = cascade
        .accepted_votes()
        .into_iter()
        .filter(|&(ts, _)| ts >= cascade.submit_time && ts < hour_end)
        .map(|(_, voter)| voter)
        .collect();
    Ok(Truth {
        matrix,
        initiator: cascade.initiator,
        hour1,
    })
}

/// Trace ids of client `c` live in `[c << 40, (c + 1) << 40)`.
fn trace_base(client: usize) -> u64 {
    (client as u64) << 40
}

/// Appends the requests for the cascade under `key` to a client's
/// script. `pass` makes the ids of a replayed pool unique.
pub fn push_cascade(
    w: &Workload,
    inputs: &Inputs,
    key: u64,
    client: usize,
    pass: usize,
    script: &mut Vec<Step>,
) {
    let cascade = &inputs.cascades[&key];
    let id = format!("c{client}-{key}-{pass}");
    let ordinal = script.last().map_or(0, |s| s.ordinal + 1);
    let mut push = |verb: Verb, body: String, expect_ok: bool| {
        let trace = trace_base(client) + script.len() as u64;
        script.push(Step {
            verb,
            line: format!("{body},\"trace\":\"{trace}\"}}"),
            expect_ok,
            cascade: key,
            ordinal,
            trace,
        });
    };
    let horizon = cascade.horizon;
    push(
        Verb::Open,
        format!(
            r#"{{"type":"open","cascade":"{id}","initiator":{},"max_hops":{SCENARIO_MAX_HOPS},"horizon":{horizon},"submit_time":{},"regime":"{}""#,
            cascade.initiator, cascade.submit_time, cascade.regime
        ),
        true,
    );
    let forecast = |hours: std::ops::RangeInclusive<u32>, through: u32| {
        let hours: Vec<String> = hours.map(|h| h.to_string()).collect();
        format!(
            r#"{{"type":"forecast","cascade":"{id}","hours":[{}],"through":{through}"#,
            hours.join(",")
        )
    };
    let mut closed = 0;
    for delivery in &cascade.deliveries {
        let votes: Vec<String> = delivery
            .votes
            .iter()
            .map(|&(ts, voter)| format!("[{ts},{voter}]"))
            .collect();
        push(
            Verb::Ingest,
            format!(
                r#"{{"type":"ingest","cascade":"{id}","votes":[{}],"now":{}"#,
                votes.join(","),
                delivery.now
            ),
            !delivery.late,
        );
        if delivery.late {
            continue;
        }
        closed += 1;
        if w.forecasts == Forecasts::Remaining && closed < horizon {
            push(Verb::Forecast, forecast(closed + 1..=horizon, closed), true);
        }
    }
    if let Forecasts::HeldOut { through } = w.forecasts {
        push(
            Verb::Forecast,
            forecast(through + 1..=horizon, through),
            true,
        );
    }
}

/// A client's script over its whole pool, replayed `pass` times over.
#[must_use]
pub fn script(w: &Workload, inputs: &Inputs, client: usize, passes: usize) -> Vec<Step> {
    let mut steps = Vec::new();
    for pass in 0..passes {
        for k in 0..w.pool {
            push_cascade(w, inputs, w.key(client, k), client, pass, &mut steps);
        }
    }
    steps
}

/// A running serving tier. Dropping it shuts every server down, front
/// first.
pub struct Running {
    /// Address the clients connect to.
    pub front: SocketAddr,
    servers: Vec<Box<dyn Any>>,
}

impl std::fmt::Debug for Running {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Running")
            .field("front", &self.front)
            .field("servers", &self.servers.len())
            .finish()
    }
}

fn bind<S: LineService>(service: S) -> Result<DlmServer<S>, String> {
    DlmServer::bind("127.0.0.1:0", service).map_err(|e| e.to_string())
}

/// Binds `service`, wrapped in a span recorder when `spans` is given.
fn bind_maybe_traced<S: LineService>(
    service: S,
    name: &'static str,
    parent: &'static str,
    spans: Option<&SpanLog>,
) -> Result<(SocketAddr, Box<dyn Any>), String> {
    Ok(match spans {
        Some(log) => {
            let server = bind(Traced::new(service, name, parent, Arc::clone(log)))?;
            (server.local_addr(), Box::new(server))
        }
        None => {
            let server = bind(service)?;
            (server.local_addr(), Box::new(server))
        }
    })
}

impl Running {
    /// Starts the workload's tier over `graph`.
    ///
    /// # Errors
    ///
    /// Server construction or bind failures, as text.
    pub fn start(
        w: &Workload,
        graph: &Arc<DiGraph>,
        spans: Option<&SpanLog>,
    ) -> Result<Self, String> {
        let state = || {
            ServerState::with_graph(w.serve_config(), Arc::clone(graph)).map_err(|e| e.to_string())
        };
        match w.tier {
            Tier::Direct => {
                let (front, server) = bind_maybe_traced(state()?, "service", "client", spans)?;
                Ok(Self {
                    front,
                    servers: vec![server],
                })
            }
            Tier::Routed => {
                let mut backends = Vec::new();
                let mut addrs = Vec::new();
                for _ in 0..ROUTED_BACKENDS {
                    let (addr, server) = bind_maybe_traced(state()?, "service", "router", spans)?;
                    addrs.push(addr.to_string());
                    backends.push(server);
                }
                let router =
                    RouterState::new(RouterConfig::new(addrs)).map_err(|e| e.to_string())?;
                let (front, server) = bind_maybe_traced(router, "router", "client", spans)?;
                let mut servers = vec![server];
                servers.extend(backends);
                Ok(Self { front, servers })
            }
        }
    }

    /// Opens a client connection to the front.
    ///
    /// # Errors
    ///
    /// Socket errors, as text.
    pub fn connect(&self) -> Result<LineClient, String> {
        LineClient::connect(self.front).map_err(|e| e.to_string())
    }
}

/// Everything set up before the timed phase.
#[derive(Debug)]
pub struct Setup {
    /// Generated inputs and ground truth.
    pub inputs: Inputs,
    /// One script per client.
    pub scripts: Vec<Vec<Step>>,
    /// The serving tier.
    pub tier: Running,
    /// One connected client per script.
    pub clients: Vec<LineClient>,
}

impl Setup {
    /// Generates the inputs, starts the tier and connects the clients.
    ///
    /// # Errors
    ///
    /// Any set-up failure, as text.
    pub fn new(w: &Workload, seed: u64, spans: Option<&SpanLog>) -> Result<Self, String> {
        let inputs = Inputs::generate(w, seed)?;
        let scripts = (0..CLIENTS).map(|c| script(w, &inputs, c, 1)).collect();
        let tier = Running::start(w, &inputs.graph, spans)?;
        let clients = (0..CLIENTS)
            .map(|_| tier.connect())
            .collect::<Result<_, _>>()?;
        Ok(Self {
            inputs,
            scripts,
            tier,
            clients,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A named workload shrunk to a small pool.
    fn small(name: &str, pool: usize) -> Workload {
        Workload {
            pool,
            ..*find(name).unwrap()
        }
    }

    #[test]
    fn scripts_follow_the_forecast_plan() {
        let w = small("routed-ingest", 2);
        let inputs = Inputs::generate(&w, 3).unwrap();
        let key = w.key(1, 0);
        let cascade = &inputs.cascades[&key];
        let mut steps = Vec::new();
        push_cascade(&w, &inputs, key, 1, 0, &mut steps);
        push_cascade(&w, &inputs, key, 1, 1, &mut steps);
        let per = 2 + cascade.deliveries.len();
        assert_eq!(steps.len(), 2 * per);
        assert_eq!(steps[0].verb, Verb::Open);
        assert_eq!(steps[per - 1].verb, Verb::Forecast);
        assert!(steps[per - 1]
            .line
            .contains(r#""hours":[3,4,5,6,7,8],"through":2"#));
        let late = steps.iter().filter(|s| !s.expect_ok).count();
        assert_eq!(late, 2 * cascade.late_deliveries());
        assert_eq!(steps[per].ordinal, 1);
        assert!(steps[per]
            .line
            .contains(&format!(r#""cascade":"c1-{key}-1""#)));
        for (i, s) in steps.iter().enumerate() {
            assert_eq!(crate::trace::trace_id(&s.line), Some(s.trace));
            assert_eq!(s.trace, (1 << 40) + i as u64);
            assert!(dlm_serve::Request::parse(&s.line).is_ok(), "{}", s.line);
        }

        let w = small("paper-forecast", 1);
        let inputs = Inputs::generate(&w, 3).unwrap();
        let steps = script(&w, &inputs, 0, 1);
        let forecasts: Vec<&Step> = steps.iter().filter(|s| s.verb == Verb::Forecast).collect();
        assert_eq!(forecasts.len(), inputs.cascades[&0].horizon as usize - 1);
        assert!(forecasts[0]
            .line
            .contains(r#""hours":[2,3,4,5,6,7,8],"through":1"#));
    }

    #[test]
    fn scored_cascades_do_not_depend_on_the_seed() {
        let w = find("paper-forecast").unwrap();
        let w = small(w.name, w.scored + 2);
        let (a, b) = (
            Inputs::generate(&w, 1).unwrap(),
            Inputs::generate(&w, 2).unwrap(),
        );
        for k in 0..w.pool {
            for c in 0..CLIENTS {
                let key = w.key(c, k);
                let same = a.cascades[&key] == b.cascades[&key];
                assert_eq!(same, k < w.scored, "client {c} cascade {k}");
            }
        }
        assert_ne!(w.key(0, 5), w.key(1, 5));
    }

    #[test]
    fn shared_unseeded_workloads_replay_the_reference_stream() {
        let w = small("calibrated-refit", 8);
        assert_eq!(w.key(0, 5), w.key(1, 5));
        let (a, b) = (
            Inputs::generate(&w, 1).unwrap(),
            Inputs::generate(&w, 2).unwrap(),
        );
        assert_eq!(a.cascades, b.cascades);
        for k in 0..w.pool {
            let searched = calibration_searches(&a.truths[&w.key(0, k)]).unwrap();
            assert_eq!(searched, k % 3 == 0, "cascade {k}");
        }
    }
}
