//! The model zoo: every registered predictor compared on simulated Digg
//! cascades with a single `EvaluationPipeline::run` call.
//!
//! Two cascades (the paper's s1 and s2 presets) are evaluated under the
//! paper protocol — observe from hour 1, predict hours 2–6 — and each of
//! the seven predictor kinds (calibrated DL, paper-constants DL,
//! variable-coefficient DL with per-distance growth, logistic-only,
//! naive, linear trend, SI and SIS epidemics) is fitted and scored on
//! both. The epidemics run on the actual follower graph.
//!
//! ```sh
//! cargo run --release --example model_zoo [-- scale]
//! ```

use dlm::cascade::hops::hop_density_matrix;
use dlm::core::evaluate::{EvaluationCase, EvaluationPipeline, Parallelism};
use dlm::core::predict::GraphContext;
use dlm::data::simulate::simulate_story;
use dlm::data::{SimulationConfig, StoryPreset, SyntheticWorld, WorldConfig};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.5);

    println!("Generating a Digg-like world (scale {scale}) and two cascades...");
    let world = SyntheticWorld::generate(WorldConfig::default().scaled(scale))?;
    let graph = Arc::new(world.graph().clone());

    let mut cases = Vec::new();
    for preset in [StoryPreset::s1(), StoryPreset::s2()] {
        let cascade = simulate_story(&world, &preset, SimulationConfig::default())?;
        let observed = hop_density_matrix(world.graph(), &cascade, 5, 6)?;
        let hour1: Vec<usize> = cascade.votes_within(1).iter().map(|v| v.voter).collect();
        let ctx = GraphContext::new(Arc::clone(&graph), cascade.initiator(), hour1);
        cases.push(EvaluationCase::paper_protocol(preset.name.clone(), observed)?.with_graph(ctx));
        println!("  {}: ready", preset.name);
    }

    // The full default line-up: all seven predictor kinds, one call. The
    // grid runs in parallel (Parallelism::Auto is the default
    // and byte-identical to Serial); re-running the pipeline replays the
    // fitted-model cache.
    let pipeline = EvaluationPipeline::full_lineup().parallelism(Parallelism::Auto);
    println!(
        "\nRunning {} models x {} cascades through one EvaluationPipeline::run...\n",
        pipeline.specs().len(),
        cases.len()
    );
    let report = pipeline.run(&cases)?;
    println!("{report}");
    let stats = report.cache_stats();
    println!(
        "fitted-model cache: {} misses, {} hits (rerun this pipeline for pure replay)",
        stats.misses, stats.hits
    );

    println!("\nRanking by mean Eq.-8 accuracy:");
    for (rank, (spec, overall)) in report.ranking().into_iter().enumerate() {
        match overall {
            Some(a) => println!("  {:>2}. {spec:<52} {:6.2}%", rank + 1, a * 100.0),
            None => println!("  {:>2}. {spec:<52} {:>7}", rank + 1, "-"),
        }
    }

    println!("\nFitted parameters on s1:");
    for (mi, _) in report.specs().iter().enumerate() {
        if let Some(outcome) = report.outcome(mi, 0) {
            if outcome.error.is_none() && !outcome.params.is_empty() {
                let rendered: Vec<String> = outcome
                    .param_names
                    .iter()
                    .zip(&outcome.params)
                    .take(6)
                    .map(|(n, v)| format!("{n} = {v:.4}"))
                    .collect();
                println!("  {:<52} {}", outcome.spec, rendered.join(", "));
            }
        }
    }
    Ok(())
}
