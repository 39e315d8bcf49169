//! End-to-end contract of the TCP front end, and the PR's central
//! determinism gate: a forecast served by `dlm-serve` after ingesting
//! hours `1..=k` of a cascade is **byte-identical** to the offline
//! [`EvaluationPipeline`] / fit-and-predict path run on the same k-hour
//! observation, for every model in the full lineup — across a real
//! socket, through the JSON wire format.

use dlm_cascade::hops::hop_density_matrix;
use dlm_core::evaluate::{EvaluationCase, EvaluationPipeline, Parallelism};
use dlm_core::predict::{
    DiffusionPredictor, FittedPredictor, GraphContext, Observation, PredictionRequest,
};
use dlm_core::registry::{ModelRegistry, ModelSpec};
use dlm_core::zoo::NaivePredictor;
use dlm_data::simulate::simulate_story;
use dlm_data::{SimulationConfig, StoryPreset, SyntheticWorld, WorldConfig};
use dlm_serve::server::{DlmServer, ServeConfig, ServerState};
use dlm_serve::{Json, LineClient, LiveCascade};
use std::sync::{Arc, Mutex};

const MAX_HOPS: u32 = 4;
const HORIZON: u32 = 6;
const OBSERVE_THROUGH: u32 = 2;

struct Client {
    inner: LineClient,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Self {
        Self {
            inner: LineClient::connect(addr).expect("connect"),
        }
    }

    /// Sends one request line, returns the raw response line.
    fn send_raw(&mut self, line: &str) -> String {
        self.inner.send_raw(line).expect("round trip")
    }

    fn send(&mut self, line: &str) -> Json {
        self.inner.send(line).expect("round trip")
    }
}

fn f64_bits(v: &Json) -> u64 {
    v.as_f64().expect("numeric cell").to_bits()
}

#[test]
fn served_forecasts_are_byte_identical_to_the_offline_pipeline() {
    // One synthetic story, simulated once; both the server (event by
    // event) and the offline pipeline (all at once) observe it.
    let world = SyntheticWorld::generate(WorldConfig::default().scaled(0.12)).unwrap();
    let config = SimulationConfig {
        hours: 8,
        substeps: 2,
        seed: 13,
    };
    let cascade = simulate_story(&world, &StoryPreset::s1(), config).unwrap();
    let batch_matrix = hop_density_matrix(world.graph(), &cascade, MAX_HOPS, HORIZON).unwrap();
    assert!(
        batch_matrix.profile_at(1).unwrap().iter().any(|&v| v > 0.0),
        "hour 1 must carry signal for a meaningful fit"
    );

    let state = ServerState::with_world(
        ServeConfig {
            parallelism: Parallelism::Fixed(2),
            ..ServeConfig::default()
        },
        world.clone(),
    )
    .unwrap();
    let lineup = state.lineup();
    let mut server = DlmServer::bind("127.0.0.1:0", state).unwrap();
    let mut client = Client::connect(server.local_addr());

    // Open + stream the full vote log in timestamp order, then close
    // the horizon with a clock advance.
    let open = client.send(&format!(
        r#"{{"type":"open","cascade":"s1","initiator":{},"max_hops":{MAX_HOPS},"horizon":{HORIZON},"submit_time":{}}}"#,
        cascade.initiator(),
        cascade.submit_time(),
    ));
    assert_eq!(open.get("ok").unwrap().as_bool(), Some(true), "{open}");
    assert_eq!(
        open.get("distances").unwrap().as_u64(),
        Some(u64::from(batch_matrix.max_distance())),
        "live and batch must bucket into the same groups"
    );
    let votes_json: Vec<String> = cascade
        .votes()
        .iter()
        .map(|v| format!("[{},{}]", v.timestamp, v.voter))
        .collect();
    let ingest = client.send(&format!(
        r#"{{"type":"ingest","cascade":"s1","votes":[{}],"now":{}}}"#,
        votes_json.join(","),
        cascade.submit_time() + u64::from(HORIZON) * 3600,
    ));
    assert_eq!(ingest.get("ok").unwrap().as_bool(), Some(true), "{ingest}");
    assert_eq!(
        ingest.get("closed_hours").unwrap().as_u64(),
        Some(u64::from(HORIZON))
    );

    // Forecast hours 3..=6 from the first two observed hours.
    let target_hours: Vec<u32> = (OBSERVE_THROUGH + 1..=HORIZON).collect();
    let forecast_line = format!(
        r#"{{"type":"forecast","cascade":"s1","hours":[{}],"through":{OBSERVE_THROUGH}}}"#,
        target_hours
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(",")
    );
    let raw_first = client.send_raw(&forecast_line);
    let served = Json::parse(&raw_first).unwrap();
    assert_eq!(served.get("ok").unwrap().as_bool(), Some(true), "{served}");
    let served_models = served.get("models").unwrap().as_array().unwrap();
    assert_eq!(served_models.len(), lineup.len());

    // Offline twin: the same k-hour observation as an EvaluationCase.
    let graph = Arc::new(world.graph().clone());
    let hour1: Vec<usize> = cascade.votes_within(1).iter().map(|v| v.voter).collect();
    let case = EvaluationCase::forecast("s1", batch_matrix.clone(), 1, OBSERVE_THROUGH, HORIZON)
        .unwrap()
        .with_graph(GraphContext::new(
            Arc::clone(&graph),
            cascade.initiator(),
            hour1,
        ));
    let observation = case.observation().unwrap();
    let report = EvaluationPipeline::full_lineup()
        .parallelism(Parallelism::Serial)
        .run(std::slice::from_ref(&case))
        .unwrap();

    let registry = ModelRegistry::with_builtins();
    let distances: Vec<u32> = (1..=batch_matrix.max_distance()).collect();
    let request = PredictionRequest::new(distances.clone(), target_hours.clone()).unwrap();
    for (mi, spec) in ModelSpec::default_lineup().iter().enumerate() {
        let entry = &served_models[mi];
        assert_eq!(
            entry.get("spec").unwrap().as_str(),
            Some(lineup[mi].as_str())
        );
        let outcome = report.outcome(mi, 0).unwrap();
        assert_eq!(outcome.spec, lineup[mi]);

        match entry.get("error") {
            Some(error) => {
                // Full-lineup cases carry graph context, so nothing
                // should fail here — but if it did, the failure itself
                // must match the pipeline's.
                assert_eq!(
                    error.as_str(),
                    outcome.error.as_deref(),
                    "spec {spec}: error divergence"
                );
            }
            None => {
                assert!(
                    outcome.error.is_none(),
                    "spec {spec}: pipeline failed ({:?}) but the server served",
                    outcome.error
                );
                // Fitted parameters: byte-identical to the pipeline's.
                let served_params: Vec<u64> = entry
                    .get("params")
                    .unwrap()
                    .as_array()
                    .unwrap()
                    .iter()
                    .map(f64_bits)
                    .collect();
                let offline_params: Vec<u64> = outcome.params.iter().map(|p| p.to_bits()).collect();
                assert_eq!(served_params, offline_params, "spec {spec}: params diverge");

                // Predicted densities: byte-identical to fit+predict on
                // the same observation through the same registry.
                let fitted = registry.build(spec).unwrap().fit(&observation).unwrap();
                let prediction = fitted.predict(&request).unwrap();
                let values = entry.get("values").unwrap().as_array().unwrap();
                for (di, &d) in distances.iter().enumerate() {
                    let row = values[di].as_array().unwrap();
                    for (hi, &h) in target_hours.iter().enumerate() {
                        assert_eq!(
                            f64_bits(&row[hi]),
                            prediction.at(d, h).unwrap().to_bits(),
                            "spec {spec}: I({d}, {h}) diverges"
                        );
                    }
                }
            }
        }
    }

    // Serving is repeatable: the identical request yields the identical
    // bytes (pure cache replay the second time).
    let raw_second = client.send_raw(&forecast_line);
    assert_eq!(raw_first, raw_second);

    // A second client sees the same bytes too.
    let mut other = Client::connect(server.local_addr());
    assert_eq!(other.send_raw(&forecast_line), raw_first);

    // The refit scheduler ran on hour close and the cache took hits.
    let stats = client.send(r#"{"type":"stats"}"#);
    assert_eq!(stats.get("ok").unwrap().as_bool(), Some(true));
    let refit_jobs = stats.get("refit_jobs").unwrap().as_u64().unwrap();
    assert_eq!(refit_jobs, u64::from(HORIZON) * lineup.len() as u64);
    let cache = stats.get("cache").unwrap();
    assert!(cache.get("hits").unwrap().as_u64().unwrap() >= lineup.len() as u64);
    assert!(cache.get("len").unwrap().as_u64().unwrap() > 0);

    server.shutdown();
}

#[test]
fn multi_start_spec_served_over_the_wire_matches_the_offline_fit() {
    // The refit path honors the multi-start spec keys: an ad-hoc
    // `dl-cal(...,starts=3,mseed=5)` requested over the wire must serve
    // the byte-identical fit the offline registry path computes — i.e.
    // the serve tier picks the multi-start engine up with no code of
    // its own, purely through the spec string.
    let world = SyntheticWorld::generate(WorldConfig::default().scaled(0.1)).unwrap();
    let config = SimulationConfig {
        hours: 6,
        substeps: 2,
        seed: 13,
    };
    let cascade = simulate_story(&world, &StoryPreset::s1(), config).unwrap();
    let batch_matrix = hop_density_matrix(world.graph(), &cascade, MAX_HOPS, 4).unwrap();

    let state = ServerState::with_world(
        ServeConfig {
            parallelism: Parallelism::Fixed(2),
            prewarm: false, // only the requested ad-hoc spec should fit
            ..ServeConfig::default()
        },
        world.clone(),
    )
    .unwrap();
    let mut server = DlmServer::bind("127.0.0.1:0", state).unwrap();
    let mut client = Client::connect(server.local_addr());

    let open = client.send(&format!(
        r#"{{"type":"open","cascade":"ms","initiator":{},"max_hops":{MAX_HOPS},"horizon":4,"submit_time":{}}}"#,
        cascade.initiator(),
        cascade.submit_time(),
    ));
    assert_eq!(open.get("ok").unwrap().as_bool(), Some(true), "{open}");
    let votes_json: Vec<String> = cascade
        .votes()
        .iter()
        .map(|v| format!("[{},{}]", v.timestamp, v.voter))
        .collect();
    client.send(&format!(
        r#"{{"type":"ingest","cascade":"ms","votes":[{}],"now":{}}}"#,
        votes_json.join(","),
        cascade.submit_time() + 4 * 3600,
    ));

    let spec_text = "dl-cal(d0=0.01,K0=25,r0=hops,fitK=true,evals=100,starts=3,mseed=5)";
    let served = client.send(&format!(
        r#"{{"type":"forecast","cascade":"ms","hours":[3,4],"through":2,"models":["{spec_text}"]}}"#,
    ));
    assert_eq!(served.get("ok").unwrap().as_bool(), Some(true), "{served}");
    let entry = &served.get("models").unwrap().as_array().unwrap()[0];
    assert_eq!(entry.get("spec").unwrap().as_str(), Some(spec_text));
    assert!(entry.get("error").is_none(), "{entry}");

    // Offline twin through the same registry and observation window.
    let spec: ModelSpec = spec_text.parse().unwrap();
    let observation = EvaluationCase::forecast("ms", batch_matrix.clone(), 1, 2, 4)
        .unwrap()
        .observation()
        .unwrap();
    let fitted = ModelRegistry::with_builtins()
        .build(&spec)
        .unwrap()
        .fit(&observation)
        .unwrap();
    let served_params: Vec<u64> = entry
        .get("params")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(f64_bits)
        .collect();
    let offline_params: Vec<u64> = fitted.params().iter().map(|p| p.to_bits()).collect();
    assert_eq!(served_params, offline_params, "multi-start params diverge");

    let distances: Vec<u32> = (1..=batch_matrix.max_distance()).collect();
    let request = PredictionRequest::new(distances.clone(), vec![3, 4]).unwrap();
    let prediction = fitted.predict(&request).unwrap();
    let values = entry.get("values").unwrap().as_array().unwrap();
    for (di, &d) in distances.iter().enumerate() {
        let row = values[di].as_array().unwrap();
        for (hi, &h) in [3u32, 4].iter().enumerate() {
            assert_eq!(
                f64_bits(&row[hi]),
                prediction.at(d, h).unwrap().to_bits(),
                "multi-start I({d}, {h}) diverges"
            );
        }
    }

    server.shutdown();
}

#[test]
fn interest_metric_open_serves_batch_identical_forecasts() {
    use dlm_cascade::interest_groups::{interest_density_matrix, GroupingStrategy};
    use dlm_core::predict::Observation;

    let world = SyntheticWorld::generate(WorldConfig::default().scaled(0.12)).unwrap();
    let cascade = simulate_story(
        &world,
        &StoryPreset::s1(),
        SimulationConfig {
            hours: 8,
            substeps: 2,
            seed: 13,
        },
    )
    .unwrap();
    // The offline twin of what the server should observe: the batch
    // interest-distance density matrix on the same votes.
    let batch = interest_density_matrix(
        world.profile(),
        world.user_count(),
        &cascade,
        5,
        HORIZON,
        GroupingStrategy::EqualWidth,
    )
    .unwrap();

    // The interest metric carries no graph context, so serve the
    // graph-free half of the lineup.
    let lineup = vec![
        ModelSpec::paper_hops_dl(),
        ModelSpec::LogisticOnly {
            capacity: 25.0,
            growth: dlm_core::predict::GrowthFamily::PaperInterest,
        },
        ModelSpec::Naive,
        ModelSpec::LinearTrend,
    ];
    let state = ServerState::with_world(
        ServeConfig {
            lineup: lineup.clone(),
            ..ServeConfig::default()
        },
        world.clone(),
    )
    .unwrap();
    let mut server = DlmServer::bind("127.0.0.1:0", state).unwrap();
    let mut client = Client::connect(server.local_addr());

    let open = client.send(&format!(
        r#"{{"type":"open","cascade":"i1","initiator":{},"metric":"interest","groups":5,"strategy":"width","horizon":{HORIZON},"submit_time":{}}}"#,
        cascade.initiator(),
        cascade.submit_time(),
    ));
    assert_eq!(open.get("ok").unwrap().as_bool(), Some(true), "{open}");
    assert_eq!(open.get("metric").unwrap().as_str(), Some("interest"));
    assert_eq!(
        open.get("distances").unwrap().as_u64(),
        Some(u64::from(batch.max_distance())),
        "live and batch must bin into the same interest groups"
    );

    let votes_json: Vec<String> = cascade
        .votes()
        .iter()
        .map(|v| format!("[{},{}]", v.timestamp, v.voter))
        .collect();
    let ingest = client.send(&format!(
        r#"{{"type":"ingest","cascade":"i1","votes":[{}],"now":{}}}"#,
        votes_json.join(","),
        cascade.submit_time() + u64::from(HORIZON) * 3600,
    ));
    assert_eq!(ingest.get("ok").unwrap().as_bool(), Some(true), "{ingest}");

    let target_hours: Vec<u32> = (OBSERVE_THROUGH + 1..=HORIZON).collect();
    let served = client.send(&format!(
        r#"{{"type":"forecast","cascade":"i1","hours":[{}],"through":{OBSERVE_THROUGH}}}"#,
        target_hours
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(",")
    ));
    assert_eq!(served.get("ok").unwrap().as_bool(), Some(true), "{served}");
    let served_models = served.get("models").unwrap().as_array().unwrap();

    let observed_hours: Vec<u32> = (1..=OBSERVE_THROUGH).collect();
    let observation = Observation::from_matrix(&batch, &observed_hours).unwrap();
    let distances: Vec<u32> = (1..=batch.max_distance()).collect();
    let request = PredictionRequest::new(distances.clone(), target_hours.clone()).unwrap();
    let registry = ModelRegistry::with_builtins();
    for (mi, spec) in lineup.iter().enumerate() {
        let fitted = registry.build(spec).unwrap().fit(&observation).unwrap();
        let prediction = fitted.predict(&request).unwrap();
        let values = served_models[mi].get("values").unwrap().as_array().unwrap();
        for (di, &d) in distances.iter().enumerate() {
            let row = values[di].as_array().unwrap();
            for (hi, &h) in target_hours.iter().enumerate() {
                assert_eq!(
                    f64_bits(&row[hi]),
                    prediction.at(d, h).unwrap().to_bits(),
                    "spec {spec}: I({d}, {h}) diverges on the interest metric"
                );
            }
        }
    }
    server.shutdown();
}

#[test]
fn abandoned_cascades_expire_and_bounded_store_evicts() {
    let world = SyntheticWorld::generate(WorldConfig::default().scaled(0.05)).unwrap();
    let state = ServerState::with_world(
        ServeConfig {
            lineup: vec![ModelSpec::Naive],
            cascade_capacity: 2,
            cascade_ttl: Some(std::time::Duration::from_millis(100)),
            ..ServeConfig::default()
        },
        world,
    )
    .unwrap();
    let mut server = DlmServer::bind("127.0.0.1:0", state).unwrap();
    let mut client = Client::connect(server.local_addr());

    // TTL expiry: an untouched cascade vanishes, its id is free again,
    // and the expiration is counted in stats.
    let open = client.send(r#"{"type":"open","cascade":"idle","story":1,"horizon":3}"#);
    assert_eq!(open.get("ok").unwrap().as_bool(), Some(true), "{open}");
    std::thread::sleep(std::time::Duration::from_millis(300));
    let stats = client.send(r#"{"type":"stats"}"#);
    assert_eq!(stats.get("cascades").unwrap().as_u64(), Some(0));
    assert_eq!(stats.get("cascade_expirations").unwrap().as_u64(), Some(1));
    let gone = client.send(r#"{"type":"forecast","cascade":"idle","hours":[2]}"#);
    assert!(gone
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("unknown cascade"));
    let reopened = client.send(r#"{"type":"open","cascade":"idle","story":1,"horizon":3}"#);
    assert_eq!(reopened.get("ok").unwrap().as_bool(), Some(true));
    server.shutdown();

    // Capacity bound (no TTL, so timing cannot interfere): the third
    // open evicts the coldest cascade.
    let world = SyntheticWorld::generate(WorldConfig::default().scaled(0.05)).unwrap();
    let state = ServerState::with_world(
        ServeConfig {
            lineup: vec![ModelSpec::Naive],
            cascade_capacity: 2,
            ..ServeConfig::default()
        },
        world,
    )
    .unwrap();
    let mut server = DlmServer::bind("127.0.0.1:0", state).unwrap();
    let mut client = Client::connect(server.local_addr());
    for id in ["a", "b", "c"] {
        let open = client.send(&format!(
            r#"{{"type":"open","cascade":"{id}","story":1,"horizon":3}}"#
        ));
        assert_eq!(open.get("ok").unwrap().as_bool(), Some(true), "{open}");
    }
    let stats = client.send(r#"{"type":"stats"}"#);
    assert_eq!(stats.get("cascades").unwrap().as_u64(), Some(2));
    assert_eq!(stats.get("cascade_evictions").unwrap().as_u64(), Some(1));
    // `a` was the coldest and is gone; `b` and `c` survived.
    let evicted = client.send(r#"{"type":"forecast","cascade":"a","hours":[2]}"#);
    assert!(evicted
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("unknown cascade"));
    server.shutdown();
}

#[test]
fn protocol_errors_do_not_kill_the_connection() {
    let world = SyntheticWorld::generate(WorldConfig::default().scaled(0.05)).unwrap();
    let state = ServerState::with_world(
        ServeConfig {
            lineup: vec![ModelSpec::Naive],
            ..ServeConfig::default()
        },
        world,
    )
    .unwrap();
    let mut server = DlmServer::bind("127.0.0.1:0", state).unwrap();
    let mut client = Client::connect(server.local_addr());

    for (line, needle) in [
        ("this is not json", "protocol error"),
        (r#"{"type":"warp"}"#, "unknown request type"),
        (
            r#"{"type":"ingest","cascade":"ghost","votes":[]}"#,
            "unknown cascade",
        ),
        (
            r#"{"type":"forecast","cascade":"ghost","hours":[2]}"#,
            "unknown cascade",
        ),
        (
            r#"{"type":"open","cascade":"x"}"#,
            "exactly one of `initiator` or `story`",
        ),
    ] {
        let response = client.send(line);
        assert_eq!(response.get("ok").unwrap().as_bool(), Some(false), "{line}");
        let message = response.get("error").unwrap().as_str().unwrap();
        assert!(message.contains(needle), "`{line}` -> `{message}`");
    }

    // The connection still works after every rejected request.
    let open = client.send(r#"{"type":"open","cascade":"x","story":1,"horizon":3}"#);
    assert_eq!(open.get("ok").unwrap().as_bool(), Some(true), "{open}");
    // Duplicate ids are rejected.
    let dup = client.send(r#"{"type":"open","cascade":"x","story":1,"horizon":3}"#);
    assert!(dup
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("already open"));
    // Late votes are rejected once an hour closes.
    let submit = dlm_data::simulate::SIMULATED_SUBMIT_TIME;
    let ingest = client.send(&format!(
        r#"{{"type":"ingest","cascade":"x","votes":[[{},1]],"now":{}}}"#,
        submit + 2 * 3600 + 5,
        submit + 2 * 3600 + 5,
    ));
    assert_eq!(ingest.get("closed_hours").unwrap().as_u64(), Some(2));
    let late = client.send(&format!(
        r#"{{"type":"ingest","cascade":"x","votes":[[{},2]]}}"#,
        submit + 3600,
    ));
    assert!(late
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("late vote"));
    // Forecasts for unclosed hours are rejected.
    let bad = client.send(r#"{"type":"forecast","cascade":"x","hours":[4],"through":9}"#);
    assert!(bad
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("not closed"));

    server.shutdown();
}

/// Gate E: the TCP front end adds nothing to the bytes. The same
/// request stream over **the full default lineup**, replayed through a
/// fresh [`ServerState::handle_line`] with no socket at all, is the
/// reference; the reactor speaking JSON lines, the negotiated binary
/// framing, and binary framing with batched requests must each serve
/// exactly its bytes over real sockets, for the complete response
/// stream.
#[test]
fn reactor_serves_the_lineup_byte_identically_to_in_process_handle_line() {
    use dlm_serve::protocol::batch_response;
    use dlm_serve::Transport;

    let world = SyntheticWorld::generate(WorldConfig::default().scaled(0.12)).unwrap();
    let config = SimulationConfig {
        hours: 8,
        substeps: 2,
        seed: 13,
    };
    let cascade = simulate_story(&world, &StoryPreset::s1(), config).unwrap();
    let submit = cascade.submit_time();

    // The logical request sequence every run replays: open, hour-by-hour
    // ingest with clock advances, two forecasts, a snapshot.
    let mut requests = vec![format!(
        r#"{{"type":"open","cascade":"s1","initiator":{},"max_hops":{MAX_HOPS},"horizon":{HORIZON},"submit_time":{submit}}}"#,
        cascade.initiator(),
    )];
    for hour in 1..=u64::from(HORIZON) {
        let window: Vec<String> = cascade
            .votes()
            .iter()
            .filter(|v| {
                v.timestamp >= submit + (hour - 1) * 3600 && v.timestamp < submit + hour * 3600
            })
            .map(|v| format!("[{},{}]", v.timestamp, v.voter))
            .collect();
        requests.push(format!(
            r#"{{"type":"ingest","cascade":"s1","votes":[{}],"now":{}}}"#,
            window.join(","),
            submit + hour * 3600,
        ));
    }
    requests.push(format!(
        r#"{{"type":"forecast","cascade":"s1","hours":[{}],"through":{OBSERVE_THROUGH}}}"#,
        (OBSERVE_THROUGH + 1..=HORIZON)
            .map(|h| h.to_string())
            .collect::<Vec<_>>()
            .join(","),
    ));
    requests.push(format!(
        r#"{{"type":"forecast","cascade":"s1","hours":[{HORIZON}],"through":{}}}"#,
        OBSERVE_THROUGH + 1,
    ));
    requests.push(r#"{"type":"snapshot","cascade":"s1"}"#.to_owned());

    let fresh_state = || {
        ServerState::with_world(
            ServeConfig {
                parallelism: Parallelism::Fixed(2),
                ..ServeConfig::default()
            },
            world.clone(),
        )
        .unwrap()
    };

    // The reference: the stream through the service core, no transport.
    let oracle_state = fresh_state();
    let oracle: Vec<String> = requests
        .iter()
        .map(|line| oracle_state.handle_line(line))
        .collect();

    // Replays the stream against a fresh full-lineup server; with
    // `batch > 1`, requests ride `batch` verbs and the raw batch
    // responses are returned alongside the per-request stream.
    let run = |transport: Transport, batch: usize| -> (Vec<String>, Vec<String>, String) {
        let mut server = DlmServer::bind_with("127.0.0.1:0", Arc::new(fresh_state()), 2).unwrap();
        let mut client = LineClient::connect(server.local_addr()).unwrap();
        client.negotiate(transport).unwrap();
        let mut responses = Vec::new();
        let mut batch_raw = Vec::new();
        if batch <= 1 {
            for line in &requests {
                responses.push(client.send_raw(line).unwrap());
            }
        } else {
            for chunk in requests.chunks(batch) {
                let line = format!(r#"{{"type":"batch","requests":[{}]}}"#, chunk.join(","));
                let raw = client.send_raw(&line).unwrap();
                let parsed = Json::parse(&raw).unwrap();
                assert_eq!(
                    parsed.get("ok").and_then(Json::as_bool),
                    Some(true),
                    "{raw}"
                );
                let results = parsed.get("results").unwrap().as_array().unwrap();
                assert_eq!(results.len(), chunk.len());
                batch_raw.push(raw);
            }
        }
        // Scrape telemetry on the same connection before teardown; the
        // scrape's own count lands after its snapshot, so the counters
        // reflect exactly the replayed requests.
        let metrics_raw = client.send_raw(r#"{"type":"metrics"}"#).unwrap();
        server.shutdown();
        (responses, batch_raw, metrics_raw)
    };

    let (lines, _, lines_metrics) = run(Transport::Lines, 1);
    let (binary, _, binary_metrics) = run(Transport::Binary, 1);
    let (_, batched, batched_metrics) = run(Transport::Binary, 3);

    // The reference is non-vacuous: every request succeeded, and the big
    // forecast response really carries the full default lineup.
    assert_eq!(oracle.len(), requests.len());
    for (i, response) in oracle.iter().enumerate() {
        assert_eq!(
            Json::parse(response)
                .unwrap()
                .get("ok")
                .and_then(Json::as_bool),
            Some(true),
            "request {i} failed: {response}"
        );
    }
    let forecast = Json::parse(&oracle[requests.len() - 3]).unwrap();
    assert_eq!(
        forecast.get("models").unwrap().as_array().unwrap().len(),
        ModelSpec::default_lineup().len(),
    );

    // Gate 1: JSON lines and binary framing, request by request, serve
    // exactly the in-process bytes.
    for (name, served) in [("lines", &lines), ("binary", &binary)] {
        assert_eq!(served.len(), oracle.len(), "reactor/{name} response count");
        for (i, (o, r)) in oracle.iter().zip(served).enumerate() {
            assert_eq!(
                o, r,
                "request {i}: reactor/{name} diverged from in-process handle_line"
            );
        }
    }

    // Gate 2: the batched replay's raw wire bytes are exactly the
    // in-process responses spliced through the canonical wrapper.
    let expected: Vec<String> = oracle.chunks(3).map(batch_response).collect();
    assert_eq!(batched, expected, "batch framing changed response bytes");

    // Gate 3: the `metrics` scrape taken during each replay reports
    // per-verb request counters exactly matching the requests sent —
    // the stream is 1 open + HORIZON ingests + 2 forecasts + 1
    // snapshot — with zero errors, on every transport and batching.
    let ingests = u64::from(HORIZON);
    let per_verb: &[(&str, u64)] = &[
        ("open", 1),
        ("ingest", ingests),
        ("forecast", 2),
        ("snapshot", 1),
        ("stats", 0),
        ("metrics", 0), // a scrape counts itself only after its snapshot
        ("invalid", 0),
    ];
    let verify = |metrics_raw: &str, transport: &str, batch_lines: u64, wire_lines: u64| {
        let parsed = Json::parse(metrics_raw).unwrap();
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(true));
        let exposition = parsed.get("exposition").unwrap().as_str().unwrap();
        assert!(exposition.contains("# TYPE dlm_requests_total counter"));
        let snap = dlm_serve::snapshot_from_json(parsed.get("snapshot").unwrap()).unwrap();
        for &(verb, n) in per_verb.iter().chain(&[("batch", batch_lines)]) {
            assert_eq!(
                snap.counter("dlm_requests_total", &[("verb", verb)]),
                Some(n),
                "dlm_requests_total verb={verb} (transport {transport})"
            );
            assert_eq!(
                snap.counter("dlm_request_errors_total", &[("verb", verb)]),
                Some(0),
                "dlm_request_errors_total verb={verb} (transport {transport})"
            );
        }
        // Line-level service times are observed once per wire line, so
        // the forecast histogram fills only on the unbatched replays.
        if batch_lines == 0 {
            let service = snap
                .histogram("dlm_service_micros", &[("verb", "forecast")])
                .unwrap();
            assert_eq!(service.count, 2, "forecast service observations");
        }
        assert_eq!(
            snap.counter("dlm_wire_requests_total", &[("transport", transport)]),
            Some(wire_lines),
            "dlm_wire_requests_total transport={transport}"
        );
    };
    let total = requests.len() as u64;
    verify(&lines_metrics, "lines", 0, total);
    verify(&binary_metrics, "binary", 0, total);
    // chunks(3) over 10 requests → 4 batch wire lines, items still
    // counted under their own verbs.
    verify(
        &batched_metrics,
        "binary",
        total.div_ceil(3),
        total.div_ceil(3),
    );
}

/// A graph-only server (no synthetic world) must serve the whole
/// hop-metric lifecycle — that's what scenario and real-log replay
/// build on — while story-ordinal and interest opens fail cleanly, and
/// the `regime` tag on `open` must surface as a per-regime counter.
#[test]
fn graph_only_server_opens_by_initiator_and_counts_regimes() {
    let world = SyntheticWorld::generate(WorldConfig::default().scaled(0.1)).unwrap();
    let graph = Arc::new(world.graph().clone());
    let state = ServerState::with_graph(ServeConfig::default(), graph.clone()).unwrap();
    let mut server = DlmServer::bind("127.0.0.1:0", state).unwrap();
    let mut client = Client::connect(server.local_addr());

    let initiator = world.hub(0).unwrap();
    let open = client.send(&format!(
        r#"{{"type":"open","cascade":"g1","initiator":{initiator},"max_hops":{MAX_HOPS},"horizon":{HORIZON},"submit_time":1000,"regime":"broadcast"}}"#,
    ));
    assert_eq!(open.get("ok").unwrap().as_bool(), Some(true), "{open}");
    // Same regime again plus a second regime; hostile tags sanitize
    // into their own stable label rather than erroring.
    for (id, regime) in [("g2", "broadcast"), ("g3", "storm"), ("g4", "we ird\"")] {
        let open = client.send(&format!(
            r#"{{"type":"open","cascade":"{id}","initiator":{initiator},"max_hops":{MAX_HOPS},"horizon":{HORIZON},"submit_time":1000,"regime":"{}"}}"#,
            regime.replace('"', "\\\""),
        ));
        assert_eq!(open.get("ok").unwrap().as_bool(), Some(true), "{open}");
    }
    let ingest =
        client.send(r#"{"type":"ingest","cascade":"g1","votes":[[1100,1],[1200,2]],"now":4600}"#);
    assert_eq!(ingest.get("ok").unwrap().as_bool(), Some(true), "{ingest}");
    let forecast = client.send(r#"{"type":"forecast","cascade":"g1","hours":[2]}"#);
    assert_eq!(
        forecast.get("ok").unwrap().as_bool(),
        Some(true),
        "{forecast}"
    );

    // World-dependent opens fail with a clear error, not a panic.
    for bad in [
        r#"{"type":"open","cascade":"b1","story":1}"#,
        r#"{"type":"open","cascade":"b2","initiator":1,"metric":"interest"}"#,
    ] {
        let resp = client.send(bad);
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(false), "{resp}");
        assert!(
            resp.get("error")
                .unwrap()
                .as_str()
                .unwrap()
                .contains("synthetic world"),
            "{resp}"
        );
    }

    let metrics = client.send(r#"{"type":"metrics"}"#);
    let text = metrics
        .get("exposition")
        .unwrap()
        .as_str()
        .unwrap()
        .to_owned();
    assert!(
        text.contains(r#"dlm_cascades_opened_total{regime="broadcast"} 2"#),
        "{text}"
    );
    assert!(
        text.contains(r#"dlm_cascades_opened_total{regime="storm"} 1"#),
        "{text}"
    );
    assert!(
        text.contains(r#"dlm_cascades_opened_total{regime="we_ird_"} 1"#),
        "{text}"
    );
    server.shutdown();
}

/// With prewarm on, a cascade forecast after every closed hour refits a
/// whole-observation model (`naive`, `linear-trend`) once per hour, but
/// fits `dl` and `logistic` — keyed by hour 1 alone — once per cascade;
/// every forecast still carries the bits of an offline fit+predict on
/// that hour's observation.
#[test]
fn hour_one_keyed_models_fit_once_per_cascade_while_forecasts_track_every_hour() {
    const LAST: u32 = 8;
    let world = SyntheticWorld::generate(WorldConfig::default().scaled(0.12)).unwrap();
    let cascade = simulate_story(
        &world,
        &StoryPreset::s1(),
        SimulationConfig {
            hours: LAST,
            substeps: 2,
            seed: 13,
        },
    )
    .unwrap();
    let matrix = hop_density_matrix(world.graph(), &cascade, MAX_HOPS, LAST).unwrap();
    let distances: Vec<u32> = (1..=matrix.max_distance()).collect();
    let registry = ModelRegistry::with_builtins();
    let lineup = [
        (ModelSpec::Naive, false),
        (ModelSpec::LinearTrend, false),
        (ModelSpec::paper_hops_dl(), true),
        (
            ModelSpec::LogisticOnly {
                capacity: 25.0,
                growth: dlm_core::predict::GrowthFamily::PaperHops,
            },
            true,
        ),
    ];
    for (spec, keyed_by_hour_one) in lineup {
        let state = ServerState::with_world(
            ServeConfig {
                lineup: vec![spec.clone()],
                prewarm: true,
                parallelism: Parallelism::Serial,
                ..ServeConfig::default()
            },
            world.clone(),
        )
        .unwrap();
        let send = |line: &str| -> Json {
            let response = Json::parse(&state.handle_line(line)).unwrap();
            assert_eq!(
                response.get("ok").unwrap().as_bool(),
                Some(true),
                "{response}"
            );
            response
        };
        send(&format!(
            r#"{{"type":"open","cascade":"c","initiator":{},"max_hops":{MAX_HOPS},"horizon":{LAST},"submit_time":{}}}"#,
            cascade.initiator(),
            cascade.submit_time(),
        ));
        for hour in 1..=LAST {
            let start = cascade.submit_time() + u64::from(hour - 1) * 3600;
            let end = start + 3600;
            let votes: Vec<String> = cascade
                .votes()
                .iter()
                .filter(|v| (start..end).contains(&v.timestamp))
                .map(|v| format!("[{},{}]", v.timestamp, v.voter))
                .collect();
            send(&format!(
                r#"{{"type":"ingest","cascade":"c","votes":[{}],"now":{end}}}"#,
                votes.join(","),
            ));
            if hour < LAST {
                let hours: Vec<u32> = (hour + 1..=LAST).collect();
                let forecast = send(&format!(
                    r#"{{"type":"forecast","cascade":"c","hours":{hours:?},"through":{hour}}}"#,
                ));
                let entry = &forecast.get("models").unwrap().as_array().unwrap()[0];
                let observation =
                    dlm_core::Observation::from_matrix(&matrix, &(1..=hour).collect::<Vec<_>>())
                        .unwrap();
                let request = PredictionRequest::new(distances.clone(), hours.clone()).unwrap();
                let offline = registry
                    .build(&spec)
                    .unwrap()
                    .fit(&observation)
                    .and_then(|fitted| fitted.predict(&request));
                match offline {
                    Ok(prediction) => {
                        let values = entry.get("values").unwrap().as_array().unwrap();
                        for (di, &d) in distances.iter().enumerate() {
                            let row = values[di].as_array().unwrap();
                            for (hi, &h) in hours.iter().enumerate() {
                                assert_eq!(
                                    f64_bits(&row[hi]),
                                    prediction.at(d, h).unwrap().to_bits(),
                                    "{spec} through {hour}: I({d}, {h}) diverges"
                                );
                            }
                        }
                    }
                    Err(e) => assert_eq!(
                        entry.get("error").unwrap().as_str(),
                        Some(e.to_string().as_str()),
                        "{spec} through {hour}"
                    ),
                }
            }
            let stats = send(r#"{"type":"stats"}"#);
            let misses = stats
                .get("cache")
                .unwrap()
                .get("misses")
                .unwrap()
                .as_u64()
                .unwrap();
            let expected = if keyed_by_hour_one {
                1
            } else {
                u64::from(hour)
            };
            assert_eq!(misses, expected, "{spec} after hour {hour}");
        }
    }
}

/// A predictor that records which thread ran each of its fits, then
/// fits like `naive`.
#[derive(Debug)]
struct ThreadProbe {
    searches: bool,
    fits: Arc<Mutex<Vec<std::thread::Thread>>>,
}

impl DiffusionPredictor for ThreadProbe {
    fn name(&self) -> &'static str {
        "probe"
    }

    fn fit(&self, observation: &Observation) -> dlm_core::Result<Box<dyn FittedPredictor>> {
        self.fits.lock().unwrap().push(std::thread::current());
        NaivePredictor.fit(observation)
    }

    fn fit_searches(&self) -> bool {
        self.searches
    }
}

/// Serves `lineup` with every spec kind in it built as a [`ThreadProbe`]
/// (searching when `searches`), closes hours 1..=3 of a small cascade
/// through `ingest`, forecasts, checks every response is ok and every
/// model forecast, and returns each kind's fit threads.
fn probe_fit_threads(
    lineup: &[ModelSpec],
    searches: bool,
) -> Vec<(&'static str, Vec<std::thread::Thread>)> {
    let mut registry = ModelRegistry::with_builtins();
    let mut probes = Vec::new();
    for spec in lineup {
        let fits = Arc::new(Mutex::new(Vec::new()));
        let probe_fits = Arc::clone(&fits);
        registry.register(spec.kind(), move |_| {
            Ok(Box::new(ThreadProbe {
                searches,
                fits: Arc::clone(&probe_fits),
            }) as Box<dyn DiffusionPredictor>)
        });
        probes.push((spec.kind(), fits));
    }
    let state = ServerState::with_registry(
        ServeConfig {
            lineup: lineup.to_vec(),
            parallelism: Parallelism::Fixed(2),
            ..ServeConfig::default()
        },
        registry,
    )
    .unwrap();
    let groups = vec![vec![1, 2, 3, 4], vec![5, 6, 7, 8, 9]];
    state
        .insert_cascade("c", LiveCascade::new(&groups, 0, 4).unwrap(), None)
        .unwrap();
    let send = |line: &str| -> Json {
        let response = Json::parse(&state.handle_line(line)).unwrap();
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(true),
            "{response}"
        );
        response
    };
    for (hour, voters) in [(1u64, [1, 5]), (2, [2, 6]), (3, [3, 7])] {
        let votes: Vec<String> = voters
            .iter()
            .map(|v| format!("[{},{v}]", (hour - 1) * 3600 + 10))
            .collect();
        send(&format!(
            r#"{{"type":"ingest","cascade":"c","votes":[{}],"now":{}}}"#,
            votes.join(","),
            hour * 3600
        ));
    }
    let forecast = send(r#"{"type":"forecast","cascade":"c","hours":[4],"through":3}"#);
    let models = forecast.get("models").unwrap().as_array().unwrap();
    assert_eq!(models.len(), lineup.len());
    for model in models {
        assert!(model.get("values").is_some(), "{model}");
    }
    probes
        .into_iter()
        .map(|(kind, fits)| (kind, fits.lock().unwrap().clone()))
        .collect()
}

/// Closed-form fits run on the thread that handles the request, even
/// under a parallel setting: a hand-off would cost more than the fit.
#[test]
fn closed_form_fits_run_on_the_calling_thread() {
    let caller = std::thread::current().id();
    for (kind, threads) in probe_fit_threads(&[ModelSpec::Naive, ModelSpec::LinearTrend], false) {
        // One fit per closed hour; the forecast replays hour 3's.
        assert_eq!(threads.len(), 3, "{kind}");
        for thread in threads {
            assert_eq!(thread.id(), caller, "{kind} fit off the calling thread");
        }
    }
}

/// Searched fits fan out to the pool, and every one completes: each
/// hour close fits both models, on the caller or on a pool helper.
#[test]
fn two_searched_misses_both_fit_to_completion() {
    let caller = std::thread::current().id();
    let lineup: Vec<ModelSpec> = ModelSpec::default_lineup()
        .into_iter()
        .filter(|s| matches!(s.kind(), "dl-cal" | "variable-dl"))
        .collect();
    assert_eq!(lineup.len(), 2);
    for (kind, threads) in probe_fit_threads(&lineup, true) {
        assert_eq!(threads.len(), 3, "{kind}");
        for thread in threads {
            let pooled =
                thread.id() == caller || thread.name().is_some_and(|n| n.starts_with("dlm-pool-"));
            assert!(pooled, "{kind} fit on {thread:?}, outside the pool");
        }
    }
}
