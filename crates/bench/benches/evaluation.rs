//! Throughput harness for the parallel evaluation engine.
//!
//! Runs the full model-zoo lineup over a grid of forecast cases four
//! ways — serial vs pooled parallel, cold vs warm fitted-model
//! cache — verifies that every configuration produces a byte-identical
//! [`EvaluationReport`], and writes the timings to
//! `BENCH_evaluation.json` (override with `DLM_BENCH_OUT`).
//!
//! This is a plain `harness = false` bench so CI can drive it directly:
//!
//! ```text
//! cargo bench -p dlm-bench --bench evaluation            # full grid
//! cargo bench -p dlm-bench --bench evaluation -- --smoke # reduced, for CI
//! ```
//!
//! The process exits nonzero if the parallel output diverges from the
//! serial output, which is what the CI `bench-smoke` job gates on.

use dlm_bench::artifact;
use dlm_bench::experiments::{forecast_window_cases, ExperimentContext};
use dlm_core::evaluate::{EvaluationCase, EvaluationPipeline, EvaluationReport, Parallelism};
use std::time::Instant;

struct Timed {
    report: EvaluationReport,
    millis: f64,
}

fn timed_run(pipeline: &EvaluationPipeline, cases: &[EvaluationCase]) -> Timed {
    let start = Instant::now();
    let report = pipeline.run(cases).expect("evaluation run");
    Timed {
        report,
        millis: start.elapsed().as_secs_f64() * 1e3,
    }
}

fn json_cache(t: &Timed) -> String {
    let stats = t.report.cache_stats();
    format!(
        "{{\"ms\": {:.3}, \"cache_hits\": {}, \"cache_misses\": {}, \"cache_evictions\": {}}}",
        t.millis, stats.hits, stats.misses, stats.evictions
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (scale, stories) = if smoke { (0.08, 1) } else { (0.2, 4) };

    eprintln!("generating synthetic world (scale {scale})...");
    let ctx = ExperimentContext::generate(scale).expect("context generation");

    // Per story, a forecast-horizon sweep sharing one Arc'd matrix and
    // one observed window: the within-run cache regime of the paper's
    // evaluation (several horizons, one fit per spec per story).
    let mut cases = Vec::new();
    for idx in 0..stories {
        cases.extend(forecast_window_cases(&ctx, idx, 2).expect("cases"));
    }
    let lineup = || EvaluationPipeline::full_lineup();
    let models = lineup().specs().len();
    let grid = models * cases.len();
    let workers = Parallelism::Auto.workers(grid);
    eprintln!(
        "grid: {models} models x {} cases = {grid} cells, {workers} worker(s)",
        cases.len()
    );

    let serial_pipeline = lineup().parallelism(Parallelism::Serial);
    let serial_cold = timed_run(&serial_pipeline, &cases);
    let serial_warm = timed_run(&serial_pipeline, &cases);
    let parallel_pipeline = lineup().parallelism(Parallelism::Auto);
    let parallel_cold = timed_run(&parallel_pipeline, &cases);
    let parallel_warm = timed_run(&parallel_pipeline, &cases);

    // The divergence gate: every configuration must compute the same
    // report, bit for bit (including its rendered form).
    let mut identical = true;
    for (name, other) in [
        ("serial-warm", &serial_warm),
        ("parallel-cold", &parallel_cold),
        ("parallel-warm", &parallel_warm),
    ] {
        if other.report != serial_cold.report
            || other.report.to_string() != serial_cold.report.to_string()
        {
            eprintln!("DIVERGENCE: {name} report differs from serial-cold");
            identical = false;
        }
    }
    if parallel_cold.report.cache_stats() != serial_cold.report.cache_stats() {
        eprintln!("DIVERGENCE: parallel-cold cache counters differ from serial-cold");
        identical = false;
    }

    let speedup_cold = serial_cold.millis / parallel_cold.millis.max(1e-9);
    let speedup_warm = serial_warm.millis / parallel_warm.millis.max(1e-9);
    let warm_over_cold = serial_cold.millis / serial_warm.millis.max(1e-9);
    let json = format!(
        "{{\n  \"schema\": \"{schema}\",\n  \"mode\": \"{mode}\",\n  \
         \"hardware_threads\": {threads},\n  \"workers\": {workers},\n  \"models\": {models},\n  \
         \"cases\": {cases},\n  \"grid_cells\": {grid},\n  \
         \"serial_cold\": {sc},\n  \"serial_warm\": {sw},\n  \
         \"parallel_cold\": {pc},\n  \"parallel_warm\": {pw},\n  \
         \"speedup_parallel_cold\": {speedup_cold:.3},\n  \
         \"speedup_parallel_warm\": {speedup_warm:.3},\n  \
         \"speedup_warm_cache\": {warm_over_cold:.3},\n  \
         \"outputs_identical\": {identical}\n}}\n",
        schema = artifact::EVALUATION_SCHEMA,
        mode = if smoke { "smoke" } else { "full" },
        threads = artifact::hardware_threads(),
        cases = cases.len(),
        sc = json_cache(&serial_cold),
        sw = json_cache(&serial_warm),
        pc = json_cache(&parallel_cold),
        pw = json_cache(&parallel_warm),
    );
    let out = artifact::bench_out("BENCH_evaluation.json");
    artifact::write(&out, &json).expect("valid evaluation artifact");

    eprintln!(
        "serial   cold {:>9.1} ms   warm {:>9.1} ms\nparallel cold {:>9.1} ms   warm {:>9.1} ms",
        serial_cold.millis, serial_warm.millis, parallel_cold.millis, parallel_warm.millis
    );
    eprintln!(
        "speedup: parallel-cold {speedup_cold:.2}x, parallel-warm {speedup_warm:.2}x, \
         warm-cache {warm_over_cold:.2}x -> {out}"
    );
    if !identical {
        std::process::exit(1);
    }
}
