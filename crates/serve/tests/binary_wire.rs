//! Wire-level contract of the negotiated binary framing and the `batch`
//! verb, over real sockets:
//!
//! * the same request stream served over JSON lines and over binary
//!   frames yields **byte-identical** responses (the framing changes
//!   how bytes ride the socket, never which bytes);
//! * the compact binary `ingest` payload is equivalent to the JSON
//!   `ingest` line it expands to;
//! * hostile inputs — truncated frames, oversize declared lengths,
//!   garbage negotiation, mid-frame disconnects, non-UTF-8 lines — are
//!   answered or dropped without taking the server (or any other
//!   connection) down, and CRLF or blank lines frame like plain lines;
//! * splitting one vote stream into arbitrary batch-ingest groupings
//!   leaves the server in bit-identical state to a one-vote-per-line
//!   replay (proptest).

use dlm_data::simulate::SIMULATED_SUBMIT_TIME;
use dlm_data::{SimulationConfig, StoryPreset, SyntheticWorld, WorldConfig};
use dlm_serve::server::{DlmServer, ServeConfig, ServerState};
use dlm_serve::{wire, Json, LineClient, Transport};
use proptest::prelude::*;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};

const HORIZON: u32 = 6;

fn shared_world() -> &'static SyntheticWorld {
    static WORLD: OnceLock<SyntheticWorld> = OnceLock::new();
    WORLD.get_or_init(|| {
        SyntheticWorld::generate(WorldConfig::default().scaled(0.05)).expect("world")
    })
}

fn naive_state() -> ServerState {
    ServerState::with_world(
        ServeConfig {
            lineup: vec![dlm_core::registry::ModelSpec::Naive],
            ..ServeConfig::default()
        },
        shared_world().clone(),
    )
    .expect("server state")
}

fn story_votes() -> Vec<(u64, usize)> {
    let cascade = dlm_data::simulate::simulate_story(
        shared_world(),
        &StoryPreset::s1(),
        SimulationConfig {
            hours: HORIZON + 1,
            substeps: 2,
            seed: 13,
        },
    )
    .expect("story");
    cascade
        .votes()
        .iter()
        .map(|v| (v.timestamp, v.voter))
        .collect()
}

/// The request stream both transports replay: open, per-hour ingest
/// (with a clock advance), a forecast, a batch line, and a snapshot.
fn request_stream(votes: &[(u64, usize)]) -> Vec<String> {
    let submit = SIMULATED_SUBMIT_TIME;
    let mut lines = vec![format!(
        r#"{{"type":"open","cascade":"x","story":1,"horizon":{HORIZON}}}"#
    )];
    for hour in 1..=u64::from(HORIZON) {
        let window: Vec<String> = votes
            .iter()
            .filter(|&&(ts, _)| ts >= submit + (hour - 1) * 3600 && ts < submit + hour * 3600)
            .map(|&(ts, voter)| format!("[{ts},{voter}]"))
            .collect();
        lines.push(format!(
            r#"{{"type":"ingest","cascade":"x","votes":[{}],"now":{}}}"#,
            window.join(","),
            submit + hour * 3600,
        ));
    }
    lines.push(r#"{"type":"forecast","cascade":"x","hours":[3,4],"through":2}"#.into());
    lines.push(
        r#"{"type":"batch","requests":[{"type":"forecast","cascade":"x","hours":[5],"through":2},{"type":"snapshot","cascade":"x"}]}"#
            .into(),
    );
    lines.push(r#"{"type":"snapshot","cascade":"x"}"#.into());
    lines
}

#[test]
fn binary_framing_serves_byte_identical_responses_to_json_lines() {
    let votes = story_votes();
    let stream = request_stream(&votes);

    let replay = |transport: Transport| -> Vec<String> {
        let mut server = DlmServer::bind("127.0.0.1:0", naive_state()).expect("bind");
        let mut client = LineClient::connect(server.local_addr()).expect("connect");
        client.negotiate(transport).expect("negotiate");
        assert_eq!(client.transport(), transport);
        let responses: Vec<String> = stream
            .iter()
            .map(|line| client.send_raw(line).expect("round trip"))
            .collect();
        server.shutdown();
        responses
    };

    let over_lines = replay(Transport::Lines);
    let over_frames = replay(Transport::Binary);
    assert_eq!(
        over_lines, over_frames,
        "the negotiated framing changed response bytes"
    );
    // And the gate is non-vacuous: every response was an ok.
    for raw in &over_lines {
        let ok = Json::parse(raw)
            .ok()
            .and_then(|v| v.get("ok").and_then(Json::as_bool));
        assert_eq!(ok, Some(true), "{raw}");
    }
}

#[test]
fn compact_binary_ingest_is_equivalent_to_the_json_line() {
    let votes = story_votes();
    let submit = SIMULATED_SUBMIT_TIME;
    let now = submit + u64::from(HORIZON) * 3600;

    // Server A takes the canonical JSON ingest line; server B takes the
    // compact binary payload. Same votes, same clock — the responses
    // and the resulting snapshots must match byte for byte.
    let mut server_json = DlmServer::bind("127.0.0.1:0", naive_state()).expect("bind");
    let mut server_bin = DlmServer::bind("127.0.0.1:0", naive_state()).expect("bind");

    let open = format!(r#"{{"type":"open","cascade":"x","story":1,"horizon":{HORIZON}}}"#);
    let mut json_client = LineClient::connect(server_json.local_addr()).expect("connect");
    json_client.send_raw(&open).expect("open");
    let json_response = json_client
        .send_ingest("x", &votes, Some(now))
        .expect("json ingest");

    let mut bin_client = LineClient::connect(server_bin.local_addr()).expect("connect");
    bin_client.negotiate(Transport::Binary).expect("negotiate");
    bin_client.send_raw(&open).expect("open");
    let bin_response = bin_client
        .send_ingest("x", &votes, Some(now))
        .expect("binary ingest");

    assert_eq!(json_response.to_string(), bin_response.to_string());
    assert_eq!(
        json_response.get("ok").and_then(Json::as_bool),
        Some(true),
        "{json_response}"
    );

    let snap = r#"{"type":"snapshot","cascade":"x"}"#;
    assert_eq!(
        json_client.send_raw(snap).expect("snapshot"),
        bin_client.send_raw(snap).expect("snapshot"),
        "binary-fed state diverges from JSON-fed state"
    );
    server_json.shutdown();
    server_bin.shutdown();
}

/// A raw socket speaking the negotiation + framing by hand, for hostile
/// input that `LineClient` refuses to produce.
struct RawConn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl RawConn {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .expect("timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Self { stream, reader }
    }

    fn send_line(&mut self, line: &str) -> String {
        self.send_bytes(format!("{line}\n").as_bytes())
    }

    /// Writes `bytes` verbatim and reads one response line.
    fn send_bytes(&mut self, bytes: &[u8]) -> String {
        self.stream.write_all(bytes).expect("write");
        self.read_line()
    }

    /// One response line without its terminator; empty at EOF.
    fn read_line(&mut self) -> String {
        let mut response = String::new();
        std::io::BufRead::read_line(&mut self.reader, &mut response).expect("read");
        response.trim_end().to_owned()
    }

    fn negotiate_binary(&mut self) {
        let response = self.send_line(&wire::hello_line(Transport::Binary));
        assert_eq!(response, wire::hello_response(Transport::Binary));
    }

    fn read_frame(&mut self) -> Option<Vec<u8>> {
        wire::read_frame(&mut self.reader).expect("frame read")
    }
}

fn server_answers(addr: SocketAddr) {
    let mut probe = LineClient::connect(addr).expect("fresh connect");
    let stats = probe.send(r#"{"type":"stats"}"#).expect("stats");
    assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));
}

#[test]
fn hostile_wire_input_never_takes_the_server_down() {
    let mut server = DlmServer::bind("127.0.0.1:0", naive_state()).expect("bind");
    let addr = server.local_addr();

    // A long-lived bystander connection that must survive every abuse
    // below.
    let mut bystander = LineClient::connect(addr).expect("bystander");

    // Garbage negotiation: unknown transport is answered with an error
    // and the connection stays in JSON-lines mode.
    {
        let mut conn = RawConn::connect(addr);
        let response = conn.send_line(r#"{"type":"hello","transport":"quantum"}"#);
        let parsed = Json::parse(&response).expect("error response parses");
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(false));
        // Still lines: a normal request on the same connection works.
        let stats = conn.send_line(r#"{"type":"stats"}"#);
        assert_eq!(
            Json::parse(&stats)
                .expect("stats parse")
                .get("ok")
                .and_then(Json::as_bool),
            Some(true)
        );
    }

    // Not-even-JSON negotiation bytes fall through to the protocol
    // error path without breaking the connection.
    {
        let mut conn = RawConn::connect(addr);
        let response = conn.send_line("hello there, server");
        assert_eq!(
            Json::parse(&response)
                .expect("parse")
                .get("ok")
                .and_then(Json::as_bool),
            Some(false)
        );
    }

    // A CRLF-terminated request is the same request: the `\r` is framing.
    // Stats carry the server-wide request counter, so the CRLF answer is
    // the LF answer with that counter one higher.
    {
        let mut conn = RawConn::connect(addr);
        let lf = conn.send_bytes(b"{\"type\":\"stats\"}\n");
        let crlf = conn.send_bytes(b"{\"type\":\"stats\"}\r\n");
        let Json::Obj(mut fields) = Json::parse(&lf).expect("stats parse") else {
            panic!("stats is an object: {lf}");
        };
        let requests = fields
            .iter_mut()
            .find(|(key, _)| key == "requests")
            .map(|(_, value)| value)
            .expect("requests counter");
        *requests = Json::num(requests.as_f64().expect("count") + 1.0);
        assert_eq!(crlf, Json::Obj(fields).to_string());
        // The JSON parser skips a stray `\r` as whitespace, but a parse
        // error reports the byte where it stopped, so a `\r` left in the
        // line would move it.
        let lf = conn.send_bytes(b"{\"type\":\"stats\"\n");
        let crlf = conn.send_bytes(b"{\"type\":\"stats\"\r\n");
        assert!(lf.contains("at byte 15"), "{lf}");
        assert_eq!(crlf, lf);
    }

    // Blank lines are skipped, not answered: the stats response is
    // followed directly by the answer to the next request.
    {
        let mut conn = RawConn::connect(addr);
        let stats = conn.send_bytes(b"\n\n{\"type\":\"stats\"}\n");
        assert_eq!(
            Json::parse(&stats)
                .expect("stats parse")
                .get("ok")
                .and_then(Json::as_bool),
            Some(true),
            "{stats}"
        );
        let next = conn.send_line(r#"{"type":"no-such-verb"}"#);
        assert_eq!(
            Json::parse(&next)
                .expect("error parse")
                .get("ok")
                .and_then(Json::as_bool),
            Some(false),
            "a blank line was answered: {next}"
        );
    }

    // A line that is not UTF-8 gets one error line, then the server
    // hangs up.
    {
        let mut conn = RawConn::connect(addr);
        let response = conn.send_bytes(b"{\"type\":\"st\xffats\"}\n");
        assert_eq!(
            response,
            dlm_serve::protocol::error_response("request line is not UTF-8").to_string()
        );
        assert_eq!(conn.read_line(), "", "connection closed after the error");
    }

    // Oversize declared length: the header promises more than
    // MAX_FRAME_BYTES; the server answers one error frame and hangs up.
    {
        let mut conn = RawConn::connect(addr);
        conn.negotiate_binary();
        let len = (wire::MAX_FRAME_BYTES as u32) + 1;
        conn.stream
            .write_all(&len.to_le_bytes())
            .expect("evil header");
        let frame = conn.read_frame().expect("error frame before hangup");
        let text = String::from_utf8(frame).expect("utf8");
        assert_eq!(
            Json::parse(&text)
                .expect("parse")
                .get("ok")
                .and_then(Json::as_bool),
            Some(false)
        );
        // Connection is closed after the error frame.
        assert!(conn.read_frame().is_none());
    }

    // Truncated frame / mid-frame disconnect: promise 64 bytes, send 3,
    // vanish. The server just drops the connection.
    {
        let mut conn = RawConn::connect(addr);
        conn.negotiate_binary();
        conn.stream.write_all(&64u32.to_le_bytes()).expect("header");
        conn.stream.write_all(&[0x00, 0x7b, 0x22]).expect("stub");
        drop(conn);
    }

    // A garbage payload tag inside a well-formed frame is answered with
    // an error frame and the connection carries on.
    {
        let mut conn = RawConn::connect(addr);
        conn.negotiate_binary();
        conn.stream
            .write_all(&wire::encode_frame(&[0xff, 1, 2, 3]))
            .expect("bad tag frame");
        let frame = conn.read_frame().expect("error frame");
        let text = String::from_utf8(frame).expect("utf8");
        assert_eq!(
            Json::parse(&text)
                .expect("parse")
                .get("ok")
                .and_then(Json::as_bool),
            Some(false)
        );
        // Frame boundary was intact, so the connection still serves.
        conn.stream
            .write_all(&wire::encode_frame(&wire::encode_json_payload(
                r#"{"type":"stats"}"#,
            )))
            .expect("stats frame");
        let stats = String::from_utf8(conn.read_frame().expect("stats frame")).expect("utf8");
        assert_eq!(
            Json::parse(&stats)
                .expect("parse")
                .get("ok")
                .and_then(Json::as_bool),
            Some(true)
        );
    }

    // Oversize JSON line without a newline: the reader gives up at the
    // bound instead of buffering forever.
    {
        let mut conn = RawConn::connect(addr);
        let chunk = vec![b'a'; 1 << 20];
        // 17 MiB of newline-free garbage > MAX_LINE_BYTES.
        for _ in 0..17 {
            if conn.stream.write_all(&chunk).is_err() {
                break; // server already hung up mid-flood; that's a pass
            }
        }
        let mut response = String::new();
        let _ = std::io::BufRead::read_line(&mut conn.reader, &mut response);
        // Either an error line arrived or the connection died; both are
        // acceptable — the assertions below prove the server survived.
    }

    // After all of that: the bystander connection still answers, and so
    // do fresh ones.
    let stats = bystander
        .send(r#"{"type":"stats"}"#)
        .expect("bystander lives");
    assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));
    server_answers(addr);
    server.shutdown();
}

/// Random (offset, voter) votes over the horizon, sorted by timestamp
/// so no grouping can trip late-vote rejection differently.
fn votes_strategy() -> impl Strategy<Value = Vec<(u64, usize)>> {
    prop::collection::vec((0u64..u64::from(HORIZON) * 3600, 0usize..40), 1..50).prop_map(
        |mut votes| {
            votes.sort_unstable();
            votes
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Splitting one sorted vote stream into arbitrary ingest groupings
    /// and packing those into arbitrary batch lines leaves the server
    /// in bit-identical state to a one-vote-per-line replay.
    #[test]
    fn any_batch_ingest_split_matches_one_vote_per_line(
        offsets in votes_strategy(),
        // Group sizes are taken cyclically; 1..=7 covers degenerate and
        // chunky splits alike.
        group_sizes in prop::collection::vec(1usize..8, 1..8),
        batch_sizes in prop::collection::vec(1usize..5, 1..5),
    ) {
        let submit = SIMULATED_SUBMIT_TIME;
        let votes: Vec<(u64, usize)> = offsets
            .iter()
            .map(|&(offset, voter)| (submit + offset, voter))
            .collect();
        let open = format!(r#"{{"type":"open","cascade":"x","story":1,"horizon":{HORIZON}}}"#);
        let close = format!(
            r#"{{"type":"ingest","cascade":"x","votes":[],"now":{}}}"#,
            submit + u64::from(HORIZON) * 3600,
        );

        // Replay A: every vote is its own ingest line.
        let plain = Arc::new(naive_state());
        plain.handle_line(&open);
        for &(ts, voter) in &votes {
            plain.handle_line(&format!(
                r#"{{"type":"ingest","cascade":"x","votes":[[{ts},{voter}]]}}"#
            ));
        }
        plain.handle_line(&close);

        // Replay B: the same votes cut into groups (one ingest item per
        // group), the groups packed into batch lines.
        let batched = Arc::new(naive_state());
        batched.handle_line(&open);
        let mut items: Vec<String> = Vec::new();
        let mut cursor = 0usize;
        let mut size_i = 0usize;
        while cursor < votes.len() {
            let take = group_sizes[size_i % group_sizes.len()].min(votes.len() - cursor);
            size_i += 1;
            let body: Vec<String> = votes[cursor..cursor + take]
                .iter()
                .map(|&(ts, voter)| format!("[{ts},{voter}]"))
                .collect();
            items.push(format!(
                r#"{{"type":"ingest","cascade":"x","votes":[{}]}}"#,
                body.join(",")
            ));
            cursor += take;
        }
        let mut item_cursor = 0usize;
        let mut batch_i = 0usize;
        while item_cursor < items.len() {
            let take = batch_sizes[batch_i % batch_sizes.len()].min(items.len() - item_cursor);
            batch_i += 1;
            let response = batched.handle_line(&format!(
                r#"{{"type":"batch","requests":[{}]}}"#,
                items[item_cursor..item_cursor + take].join(",")
            ));
            let parsed = Json::parse(&response).expect("batch response parses");
            prop_assert_eq!(
                parsed.get("ok").and_then(Json::as_bool),
                Some(true),
                "batch rejected: {}",
                response
            );
            item_cursor += take;
        }
        batched.handle_line(&close);

        // Bit-identical state: snapshots carry the full ingest state,
        // and the forecast path must agree byte-for-byte.
        let snap = r#"{"type":"snapshot","cascade":"x"}"#;
        prop_assert_eq!(plain.handle_line(snap), batched.handle_line(snap));
        let forecast = r#"{"type":"forecast","cascade":"x","hours":[3,4],"through":2}"#;
        prop_assert_eq!(plain.handle_line(forecast), batched.handle_line(forecast));
    }
}
