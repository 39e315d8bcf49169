//! Stage replay: times the public calls behind each serving layer on
//! the inputs a traced run served.

use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

use dlm_core::calibrate::{calibrate_profiles, CalibrationOptions};
use dlm_core::params::DlParameters;
use dlm_core::pde::{solve, SolverConfig};
use dlm_core::{DlModel, ModelRegistry, ModelSpec, Observation, PredictionRequest};
use dlm_data::Vote;
use dlm_scenarios::SCENARIO_MAX_HOPS;
use dlm_serve::{Json, LiveCascade, Request};

use crate::drive::Run;
use crate::stats::median;
use crate::workload::{Inputs, Verb, Workload};
use crate::Metric;

/// Served observations every lineup model is refit on.
const FIT_SAMPLES: usize = 6;
/// Observations the `dl-cal` calibration is replayed on.
const CALIBRATE_SAMPLES: usize = 3;
/// Solves timed per solver configuration.
const PDE_REPEATS: usize = 15;
/// Cascades whose deliveries are replayed into a `LiveCascade`.
const LIVE_CASCADES: usize = 200;
/// Wire lines parsed and encoded by the protocol replay.
const PROTOCOL_LINES: usize = 20_000;

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// `(cascade, through)` of the scored forecasts, in serve order, each
/// once, thinned evenly to `n`. Each pick is offset by its ordinal, so
/// a stride that is a multiple of a cascade's forecast count still
/// samples different observed hours.
fn served_observations(w: &Workload, run: &Run, n: usize) -> Vec<(u64, u32)> {
    let mut seen = HashSet::new();
    let all: Vec<(u64, u32)> = run
        .samples()
        .filter(|(step, _)| step.verb == Verb::Forecast && step.ordinal < w.scored)
        .filter_map(|(step, s)| {
            let through = crate::check::Served::parse(&s.response).ok()?.through;
            seen.insert((step.cascade, through))
                .then_some((step.cascade, through))
        })
        .collect();
    let stride = (all.len() / n).max(1);
    (0..n)
        .filter_map(|i| all.get(i * stride + i).copied())
        .collect()
}

/// Fits every default-lineup model on each observation and predicts the
/// served grid from each fit. Times cover successful fits only; fits
/// rejected for too few observed hours are counted as failures.
fn fit_and_predict(observations: &[(Observation, PredictionRequest)], out: &mut Vec<Metric>) {
    let registry = ModelRegistry::with_builtins();
    let (mut calls, mut failures) = (0usize, 0usize);
    let mut per_model = Vec::new();
    for spec in ModelSpec::default_lineup() {
        let predictor = registry.build(&spec).expect("default lineup builds");
        let (mut fit_us, mut predict_us) = (Vec::new(), Vec::new());
        for (observation, request) in observations {
            calls += 1;
            let t = Instant::now();
            match predictor.fit(observation) {
                Ok(fitted) => {
                    fit_us.push(us_since(t));
                    let t = Instant::now();
                    let _ = black_box(fitted.predict(request));
                    predict_us.push(us_since(t));
                }
                Err(_) => failures += 1,
            }
        }
        per_model.push((spec.kind(), fit_us, predict_us));
    }
    out.push(Metric::new("fit.calls", calls as f64, "count"));
    out.push(Metric::new("fit.failures", failures as f64, "count"));
    for (kind, fit_us, _) in &per_model {
        out.push(Metric::new(
            format!("fit.{kind}.us_p50"),
            median(fit_us).unwrap_or(0.0),
            "us",
        ));
    }
    for (kind, _, predict_us) in &per_model {
        out.push(Metric::new(
            format!("predict.{kind}.us_p50"),
            median(predict_us).unwrap_or(0.0),
            "us",
        ));
    }
}

/// Replays the `dl-cal` calibration (the server's default lineup
/// options) on observations with at least two profiles.
fn calibrate(observations: &[(Observation, PredictionRequest)], out: &mut Vec<Metric>) {
    let Some(ModelSpec::DlCalibrated {
        seed_diffusion,
        seed_capacity,
        seed_growth,
        fit_capacity,
        max_evals,
        ..
    }) = ModelSpec::default_lineup().into_iter().next()
    else {
        unreachable!("the default lineup leads with dl-cal");
    };
    let options = CalibrationOptions {
        fit_capacity,
        max_evals,
        ..CalibrationOptions::default()
    };
    let (mut evals, mut fits, mut us) = (0usize, 0usize, 0.0);
    for (observation, _) in observations
        .iter()
        .filter(|(o, _)| o.hours().len() >= 2)
        .take(CALIBRATE_SAMPLES)
    {
        let targets: Vec<(u32, Vec<f64>)> = observation
            .hours()
            .iter()
            .zip(observation.profiles())
            .skip(1)
            .map(|(&h, p)| (h, p.clone()))
            .collect();
        let upper = f64::from(observation.max_distance());
        let seed = DlParameters::new(seed_diffusion, seed_capacity, 1.0, upper)
            .expect("paper seed parameters are valid");
        let t = Instant::now();
        if let Ok(c) = calibrate_profiles(
            observation.initial_hour(),
            observation.initial_profile(),
            &targets,
            seed,
            seed_growth.exp_decay(),
            &options,
        ) {
            us += us_since(t);
            evals += c.evaluations;
            fits += 1;
        }
    }
    out.push(Metric::new(
        "calibrate.evals_per_fit",
        evals as f64 / fits.max(1) as f64,
        "count",
    ));
    out.push(Metric::new(
        "calibrate.us_per_eval",
        us / evals.max(1) as f64,
        "us",
    ));
}

/// Times the paper DL solve at the serving and calibration resolutions.
fn pde(observation: &Observation, t_end: f64, out: &mut Vec<Metric>) -> Result<(), String> {
    let model = DlModel::paper_hops(observation.initial_profile()).map_err(|e| e.to_string())?;
    let time = |config: &SolverConfig| -> Result<(f64, dlm_core::pde::PdeSolution), String> {
        let mut us = Vec::new();
        let mut last = None;
        for _ in 0..PDE_REPEATS {
            let t = Instant::now();
            let solution = solve(
                model.params(),
                model.growth(),
                model.phi(),
                model.initial_time(),
                t_end,
                config,
            )
            .map_err(|e| e.to_string())?;
            us.push(us_since(t));
            last = Some(black_box(solution));
        }
        Ok((
            median(&us).unwrap_or(0.0),
            last.expect("at least one solve"),
        ))
    };
    let (serve_us, solution) = time(&SolverConfig::default())?;
    let (calib_us, _) = time(&CalibrationOptions::default().solver)?;
    let steps = solution.times().len() - 1;
    let cells: usize = solution.values().iter().map(Vec::len).sum();
    let bytes = 8 * (solution.grid().len() + solution.times().len() + cells);
    out.push(Metric::new("pde.serve_solve_us_p50", serve_us, "us"));
    out.push(Metric::new("pde.calib_solve_us_p50", calib_us, "us"));
    out.push(Metric::new(
        "pde.cell_steps",
        (solution.grid().len() * steps) as f64,
        "count",
    ));
    out.push(Metric::new("pde.solution_bytes", bytes as f64, "bytes"));
    Ok(())
}

/// Replays the served cascades' deliveries into fresh live cascades.
fn live(inputs: &Inputs, run: &Run, out: &mut Vec<Metric>) -> Result<(), String> {
    let mut seen = HashSet::new();
    let served: Vec<u64> = run
        .samples()
        .map(|(step, _)| step.cascade)
        .filter(|c| seen.insert(*c))
        .take(LIVE_CASCADES)
        .collect();
    let (mut ns, mut votes, mut rejected) = (0u128, 0usize, 0usize);
    let mut snapshot_us = Vec::new();
    for index in served {
        let cascade = &inputs.cascades[&index];
        let mut live = LiveCascade::for_hops(
            &inputs.graph,
            cascade.initiator,
            SCENARIO_MAX_HOPS,
            cascade.submit_time,
            cascade.horizon,
        )
        .map_err(|e| e.to_string())?;
        let t = Instant::now();
        for delivery in &cascade.deliveries {
            votes += delivery.votes.len();
            let applied = delivery.votes.iter().try_for_each(|&(timestamp, voter)| {
                live.ingest(Vote {
                    timestamp,
                    voter,
                    story: 0,
                })
                .map(drop)
            });
            match applied {
                Ok(()) => {
                    live.advance_to(delivery.now);
                }
                Err(_) => rejected += 1,
            }
        }
        ns += t.elapsed().as_nanos();
        for h in 1..=live.closed_hours() {
            let t = Instant::now();
            black_box(live.matrix_snapshot(h).map_err(|e| e.to_string())?);
            snapshot_us.push(us_since(t));
        }
    }
    out.push(Metric::new(
        "live.ingest_ns_per_vote",
        ns as f64 / votes.max(1) as f64,
        "ns",
    ));
    out.push(Metric::new(
        "live.snapshot_us_p50",
        median(&snapshot_us).unwrap_or(0.0),
        "us",
    ));
    out.push(Metric::new("live.rejected_votes", rejected as f64, "count"));
    Ok(())
}

/// Times request parsing and response encoding over the run's lines.
fn protocol(run: &Run, out: &mut Vec<Metric>) {
    let mut parse_ns = 0u128;
    let mut parse_bytes = 0usize;
    let mut responses = Vec::new();
    for (step, sample) in run.samples().take(PROTOCOL_LINES) {
        let t = Instant::now();
        let _ = black_box(Request::parse(black_box(&step.line)));
        parse_ns += t.elapsed().as_nanos();
        parse_bytes += step.line.len();
        if let Ok(json) = Json::parse(&sample.response) {
            responses.push(json);
        }
    }
    let (mut encode_ns, mut encode_bytes) = (0u128, 0usize);
    for json in &responses {
        let t = Instant::now();
        let text = black_box(json.to_string());
        encode_ns += t.elapsed().as_nanos();
        encode_bytes += text.len();
    }
    out.push(Metric::new(
        "protocol.parse_ns_per_byte",
        parse_ns as f64 / parse_bytes.max(1) as f64,
        "ns/B",
    ));
    out.push(Metric::new(
        "protocol.encode_ns_per_byte",
        encode_ns as f64 / encode_bytes.max(1) as f64,
        "ns/B",
    ));
}

/// Every stage-replay metric.
///
/// # Errors
///
/// Replay inputs that cannot be rebuilt, as text.
pub fn replay(w: &Workload, inputs: &Inputs, run: &Run) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    protocol(run, &mut out);
    live(inputs, run, &mut out)?;
    let mut observations = Vec::new();
    for (cascade, through) in served_observations(w, run, FIT_SAMPLES) {
        let truth = &inputs.truths[&cascade];
        let observation = truth
            .observation(&inputs.graph, through)
            .map_err(|e| e.to_string())?;
        let horizon = inputs.cascades[&cascade].horizon;
        let request = PredictionRequest::new(
            (1..=observation.max_distance()).collect(),
            (through + 1..=horizon).collect(),
        )
        .map_err(|e| e.to_string())?;
        observations.push((observation, request));
    }
    let (first, request) = observations
        .first()
        .ok_or("no served forecast to replay stages on")?;
    pde(first, f64::from(request.max_hour()), &mut out)?;
    fit_and_predict(&observations, &mut out);
    calibrate(&observations, &mut out);
    Ok(out)
}
