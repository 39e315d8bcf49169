//! # dlm — Diffusive Logistic Model for information diffusion
//!
//! A Rust reproduction of *Diffusive Logistic Model Towards Predicting
//! Information Diffusion in Online Social Networks* (Wang, Wang & Xu,
//! ICDCS 2012; arXiv:1108.0442), packaged as a workspace of focused
//! crates and re-exported here for convenience:
//!
//! * [`numerics`] — splines, tridiagonal/dense solvers, ODE integrators,
//!   optimizers (the from-scratch MATLAB replacement);
//! * [`graph`] — directed social graph, BFS hop distances, Jaccard
//!   shared-interest distance, Digg-like network generators;
//! * [`data`] — Digg-2009 dataset model + the two-channel cascade
//!   simulator that substitutes for the non-redistributable crawl;
//! * [`cascade`] — `I(x, t)` density matrices and distance groupings;
//! * [`core`] — the DL PDE model *and the unified model zoo*: the
//!   [`core::predict::DiffusionPredictor`] trait implemented by all seven
//!   predictors, the serializable [`core::registry::ModelSpec`] +
//!   [`core::registry::ModelRegistry`], and the batch
//!   [`core::evaluate::EvaluationPipeline`] — parallel over
//!   the models × cases grid (see [`core::evaluate::Parallelism`]) with a
//!   bounded LRU fitted-model cache, byte-identical to its serial path;
//! * [`serve`] — the online forecasting service: streaming ingestion
//!   ([`serve::LiveCascade`], bit-identical to the batch builders at
//!   every hour boundary), a refit scheduler feeding the shared
//!   [`core::evaluate::FittedModelCache`], a bounded TTL-swept
//!   live-cascade store, and a JSON-lines-over-TCP front end
//!   ([`serve::DlmServer`], `dlm-serve` binary, durable via
//!   `--snapshot-dir`) — wire spec in `docs/PROTOCOL.md`;
//! * [`cluster`] — the elastic-cluster machinery: the versioned
//!   [`cluster::CascadeSnapshot`] byte codec (bit-exact, checksummed),
//!   the consistent-hash [`cluster::HashRing`] with N-way owner walks,
//!   and the [`cluster::Membership`] state machine behind the router's
//!   `join`/`drain`/`remove` admin verbs;
//! * [`scenarios`] — the deterministic workload factory: named cascade
//!   regimes (topology × shape × diffusivity × storm) streamed as
//!   [`scenarios::ScenarioCascade`]s whose bytes are a pure function of
//!   `(regime, seed, index)`, plus the synthetic Digg-format fixture
//!   behind the `--digg-dir` end-to-end replay — the soak layer every
//!   perf and robustness change is gated against (`docs/SCENARIOS.md`);
//! * [`router`] — the sharding tier: [`router::RouterState`] proxies a
//!   live `ring_version`-epoch topology over pooled connections, with
//!   opt-in N-way replicated placement (`--replicas-data`),
//!   snapshot-handoff admin verbs, and scatter-gather `stats`
//!   (`dlm-router` binary); routed forecasts are byte-identical to
//!   direct ones, and handoff/failover never changes a byte.
//!
//! ## Quickstart — one model
//!
//! ```
//! use dlm::core::predict::{Observation, PredictionRequest};
//! use dlm::core::registry::ModelRegistry;
//!
//! # fn main() -> Result<(), dlm::core::DlError> {
//! let hour1 = [2.1, 0.7, 0.9, 0.5, 0.3, 0.2]; // densities at hops 1..=6
//! let predictor = ModelRegistry::with_builtins().build_from_str("dl(d=0.01,K=25,r=hops)")?;
//! let fitted = predictor.fit(&Observation::from_profile(1, &hour1)?)?;
//! let pred = fitted.predict(&PredictionRequest::new(vec![1, 2, 3], vec![2, 4, 6])?)?;
//! assert!(pred.at(1, 6)? > hour1[0]);
//! # Ok(())
//! # }
//! ```
//!
//! ## Quickstart — the whole zoo
//!
//! ```no_run
//! use dlm::core::evaluate::{EvaluationCase, EvaluationPipeline};
//! use dlm::cascade::hops::hop_density_matrix;
//! use dlm::data::simulate::simulate_story;
//! use dlm::data::{SimulationConfig, StoryPreset, SyntheticWorld, WorldConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let world = SyntheticWorld::generate(WorldConfig::default())?;
//! let cascade = simulate_story(&world, &StoryPreset::s1(), SimulationConfig::default())?;
//! let observed = hop_density_matrix(world.graph(), &cascade, 5, 6)?;
//! let case = EvaluationCase::paper_protocol("s1", observed)?;
//! let report = EvaluationPipeline::full_lineup().run(&[case])?;
//! println!("{report}"); // per-model Eq.-8 accuracy table
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/model_zoo.rs` for the full comparison on simulated Digg
//! cascades and `crates/bench` for the figure/table reproduction harness.

#![warn(missing_docs)]

pub use dlm_cascade as cascade;
pub use dlm_cluster as cluster;
pub use dlm_core as core;
pub use dlm_data as data;
pub use dlm_graph as graph;
pub use dlm_numerics as numerics;
pub use dlm_router as router;
pub use dlm_scenarios as scenarios;
pub use dlm_serve as serve;
