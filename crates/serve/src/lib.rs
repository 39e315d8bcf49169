//! # dlm-serve
//!
//! Online forecasting for the diffusive logistic model: the paper's
//! whole pitch is *prediction* — fit on the first hours of a cascade,
//! forecast the hours that have not happened yet — and this crate turns
//! the workspace's batch machinery into a std-only, multi-threaded
//! serving subsystem with three layers:
//!
//! * [`live`] — **incremental ingestion**: [`live::LiveCascade`]
//!   consumes vote events one at a time and maintains a rolling density
//!   matrix whose hour-boundary snapshots are bit-identical to the batch
//!   `dlm-cascade` builders on the same prefix;
//! * [`server`] — **the service core and refit scheduler**: closing an
//!   hour fits every registered model — cache lookups and closed-form
//!   fits inline, parameter searches on the executor in
//!   [`dlm_numerics::pool`] — with outcomes cached in the bounded LRU
//!   [`dlm_core::evaluate::FittedModelCache`]; forecasts replay the
//!   cache through the exact fit path of the offline
//!   [`dlm_core::evaluate::EvaluationPipeline`], so a served forecast is
//!   byte-identical to offline evaluation of the same observation;
//! * [`store`] — **bounded cascade residency**: the live-cascade table
//!   is an LRU-ordered [`store::CascadeStore`] with an optional idle
//!   TTL, so abandoned cascades release memory the same way fitted
//!   models age out of the bounded cache;
//! * [`protocol`] + [`json`] + [`wire`] — **the wire**: JSON lines over
//!   TCP (`std::net`, hand-rolled framing and JSON with round-trip-exact
//!   floats), with `open` (hop or shared-interest metric), `ingest`,
//!   `forecast`, `batch`, and `stats` requests, plus an opt-in
//!   length-prefixed binary framing negotiated per connection
//!   (`{"type":"hello","transport":"binary"}`) that is byte-identical
//!   to the JSON path. The normative spec lives in `docs/PROTOCOL.md`
//!   at the repository root; the `dlm-router` crate speaks the same
//!   protocol in front of many backends.
//!
//! [`server::DlmServer`] serves it all over TCP through an epoll
//! readiness reactor (Linux): a fixed I/O worker pool multiplexing
//! every connection, each worker blocking in its own `epoll_wait`, so
//! thousands of connections cost buffers rather than threads and an
//! idle server costs no CPU.
//!
//! The elastic-cluster layer rides on `dlm-cluster`'s versioned
//! snapshot codec: [`live::LiveCascade::to_snapshot`] captures a
//! cascade's entire ingest state (density counters, hour watermark,
//! late-vote accounting, seed voters) and
//! [`live::LiveCascade::from_snapshot`] restores a bit-identical twin.
//! The `snapshot` / `restore` / `cascades` / `evict` verbs move those
//! bytes between nodes during drain handoff, and
//! [`server::ServeConfig::snapshot_dir`] persists the same bytes to
//! disk so a restarted `dlm-serve --snapshot-dir DIR` replays to the
//! exact pre-crash forecasts.
//!
//! ## Example (in-process)
//!
//! ```no_run
//! use dlm_serve::protocol::Request;
//! use dlm_serve::server::{ServeConfig, ServerState};
//! use dlm_data::{SyntheticWorld, WorldConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let world = SyntheticWorld::generate(WorldConfig::default())?;
//! let state = ServerState::with_world(ServeConfig::default(), world)?;
//! println!(
//!     "{}",
//!     state.handle_line(r#"{"type":"open","cascade":"c1","story":1,"horizon":24}"#)
//! );
//! // ... stream {"type":"ingest",...} lines, then {"type":"forecast",...}.
//! # let _ = Request::Stats;
//! # Ok(())
//! # }
//! ```
//!
//! Over TCP, bind a [`server::DlmServer`] instead and speak the same
//! lines on a socket; `cargo run -p dlm-serve` starts a standalone
//! server, and `cargo bench -p dlm-bench --bench serve_load` replays
//! synthetic cascades against one at configurable concurrency.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
mod epoll;
pub mod error;
pub mod json;
pub mod live;
pub mod protocol;
mod reactor;
pub mod server;
pub mod store;
pub mod telemetry;
pub mod wire;

pub use client::LineClient;
pub use error::{Result, ServeError};
pub use json::Json;
pub use live::{IngestOutcome, LiveCascade};
pub use protocol::{OpenMetric, Request};
pub use server::{DlmServer, LineService, ServeConfig, ServerState};
pub use store::{CascadeStore, StoreStats};
pub use telemetry::{metrics_response, snapshot_from_json, snapshot_to_json};
pub use wire::Transport;
