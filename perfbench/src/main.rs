//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--capacity]
//! ```
//!
//! Generates the workload's cascades from the seed, starts its serving
//! tier in-process, drives it from two client threads for the given
//! number of seconds, checks every response, and prints one JSON result
//! line last: the end-to-end metrics with `--trace 0`, or the per-layer
//! metrics of a separate traced run with `--trace 1`. `--capacity`
//! instead drives the workload's traffic closed-loop and prints the
//! throughput it reaches, the figure an open-loop rate is chosen
//! against. Workloads are described in `perfbench/WORKLOADS.md`.

mod check;
mod drive;
mod stages;
mod stats;
mod trace;
mod workload;

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use dlm_serve::{Json, LineClient};

use crate::drive::Run;
use crate::trace::{Span, SpanLog};
use crate::workload::{Pacing, Setup, Tier, Verb, Workload, CLIENTS};

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 7;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A metric; non-finite values are recorded as 0.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    capacity: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut capacity) =
        (None, None, None, false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(workload::find(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !s.is_finite() || s <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--capacity" => capacity = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        capacity,
    })
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// What one invocation prints: metrics, the workload record line, the
/// request counts and any failed checks.
struct Report {
    metrics: Vec<Metric>,
    record: Vec<(String, Json)>,
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
}

/// One timed phase on a fresh set-up, with its checks run afterwards.
struct Timed {
    setup: Setup,
    run: Run,
    problems: Vec<String>,
}

fn timed(w: &Workload, mut setup: Setup, seconds: f64) -> Timed {
    let scripts = std::mem::take(&mut setup.scripts);
    let run = drive::run(w, &setup.inputs, &mut setup.clients, scripts, seconds);
    let problems = check::all(w, &setup.inputs, &run);
    Timed {
        setup,
        run,
        problems,
    }
}

/// A latency distribution's sample count, its tail by the ten-beyond
/// rule, and every candidate percentile, in milliseconds.
fn tail_json(samples: &[f64]) -> Json {
    let sorted = stats::sorted(samples);
    let (q, value) = stats::tail(samples).map_or((Json::Null, Json::Null), |(q, v)| {
        (Json::num(q), Json::num(v))
    });
    let mut fields = vec![
        ("n".into(), Json::num(samples.len() as f64)),
        ("q".into(), q),
        ("ms".into(), value),
    ];
    for (name, q) in [("p90", 0.90), ("p95", 0.95), ("p99", 0.99)] {
        let value = stats::percentile_sorted(&sorted, q).map_or(Json::Null, Json::num);
        fields.push((name.into(), value));
    }
    Json::Obj(fields)
}

/// The workload's fixed description, printed with every result.
fn record(w: &Workload, seed: u64) -> Vec<(String, Json)> {
    let (pacing, rate) = match w.pacing {
        Pacing::Closed => ("closed", Json::Null),
        Pacing::Open { rate } => ("open", Json::num(rate)),
    };
    vec![
        ("workload".into(), Json::str(w.name)),
        ("seed".into(), Json::num(seed as f64)),
        ("regime".into(), Json::str(w.regime)),
        (
            "tier".into(),
            Json::str(match w.tier {
                Tier::Direct => "direct",
                Tier::Routed => "routed",
            }),
        ),
        (
            "lineup".into(),
            Json::Arr(
                w.lineup()
                    .iter()
                    .map(|s| Json::str(s.to_string()))
                    .collect(),
            ),
        ),
        ("clients".into(), Json::num(CLIENTS as f64)),
        ("pacing".into(), Json::str(pacing)),
        ("rate_rps".into(), rate),
        (
            "available_parallelism".into(),
            Json::num(available_parallelism() as f64),
        ),
    ]
}

fn end_to_end(a: &Args) -> Result<Report, String> {
    let w = a.workload;
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUPS {
        drop(setup.take());
        let t = Instant::now();
        setup = Some(Setup::new(w, a.seed, None)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let t = timed(w, setup.expect("at least one set-up"), a.seconds);
    drop(t.setup.tier);
    let run = &t.run;
    let mut problems = t.problems;
    let accuracy = check::forecast_accuracy(w, &t.setup.inputs, run).unwrap_or_else(|e| {
        problems.push(e);
        0.0
    });
    let attempted = run.completed();
    let failed = check::failures(run).count();
    let ingest = run.latencies_ms(Verb::Ingest);
    let forecast = run.latencies_ms(Verb::Forecast);
    let metrics = vec![
        Metric::new("setup_s", stats::median(&setup_s).unwrap_or(0.0), "s"),
        Metric::new("ingest_p50_ms", stats::median(&ingest).unwrap_or(0.0), "ms"),
        Metric::new(
            "forecast_p50_ms",
            stats::median(&forecast).unwrap_or(0.0),
            "ms",
        ),
        Metric::new("throughput_rps", run.throughput(), "req/s"),
        Metric::new(
            "ok_share",
            1.0 - failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
        Metric::new("forecast_accuracy", accuracy, "eq8"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
    let mut record = record(w, a.seed);
    record.extend([
        ("ingest_tail".into(), tail_json(&ingest)),
        ("forecast_tail".into(), tail_json(&forecast)),
        ("timed_s".into(), Json::num(run.seconds())),
        (
            "setup_runs_s".into(),
            Json::Arr(setup_s.iter().map(|&s| Json::num(s)).collect()),
        ),
    ]);
    Ok(Report {
        metrics,
        record,
        attempted,
        failed,
        problems,
    })
}

/// Sends one untraced admin request on a fresh connection.
fn scrape(front: std::net::SocketAddr, line: &str) -> Result<Json, String> {
    LineClient::connect(front)
        .and_then(|mut c| c.send_ok(line))
        .map_err(|e| format!("{line}: {e}"))
}

fn p50_p99(values: &[f64]) -> (f64, f64) {
    let sorted = stats::sorted(values);
    (
        stats::percentile_sorted(&sorted, 0.5).unwrap_or(0.0),
        stats::percentile_sorted(&sorted, 0.99).unwrap_or(0.0),
    )
}

/// Transport, router and service metrics from the traced run's spans.
fn span_metrics(run: &Run, server_spans: &[Span], out: &mut Vec<Metric>) {
    let mut spans = run.client_spans();
    spans.extend_from_slice(server_spans);
    let (p50, p99) = p50_p99(&trace::self_times_us(&spans, "client"));
    let bytes: usize = run
        .samples()
        .map(|(step, s)| step.line.len() + s.response.len() + 2)
        .sum();
    out.extend([
        Metric::new("transport.self_us_p50", p50, "us"),
        Metric::new("transport.self_us_p99", p99, "us"),
        Metric::new("transport.lines", run.completed() as f64, "count"),
        Metric::new("transport.bytes", bytes as f64, "bytes"),
    ]);
    let (p50, p99) = p50_p99(&trace::self_times_us(&spans, "router"));
    out.extend([
        Metric::new("router.self_us_p50", p50, "us"),
        Metric::new("router.self_us_p99", p99, "us"),
    ]);
    let verbs: HashMap<u64, Verb> = run
        .samples()
        .map(|(step, _)| (step.trace, step.verb))
        .collect();
    for (verb, label) in [(Verb::Ingest, "ingest"), (Verb::Forecast, "forecast")] {
        let us: Vec<f64> = server_spans
            .iter()
            .filter(|s| s.name == "service" && verbs.get(&s.trace) == Some(&verb))
            .map(|s| s.duration() as f64 / 1e3)
            .collect();
        let (p50, p99) = p50_p99(&us);
        out.extend([
            Metric::new(format!("service.{label}_us_p50"), p50, "us"),
            Metric::new(format!("service.{label}_us_p99"), p99, "us"),
        ]);
    }
}

/// Distinct `(spec, observation)` fits the run asked of the tier: every
/// hour-close schedules one fit per lineup model, and replayed content
/// shares observations.
fn distinct_fits(w: &Workload, setup: &Setup, run: &Run) -> Result<usize, String> {
    let mut closed: HashMap<u64, u32> = HashMap::new();
    for (step, s) in run.samples() {
        if step.verb != Verb::Ingest || !check::is_ok(&s.response) {
            continue;
        }
        let hours = Json::parse(&s.response)
            .ok()
            .and_then(|j| j.get("closed_hours").and_then(Json::as_u64))
            .ok_or_else(|| format!("ingest response without closed_hours: {}", s.response))?;
        let entry = closed.entry(step.cascade).or_default();
        *entry = (*entry).max(hours as u32);
    }
    let mut keys = HashSet::new();
    for (cascade, hours) in closed {
        for through in 1..=hours {
            let observation = setup.inputs.truths[&cascade]
                .observation(&setup.inputs.graph, through)
                .map_err(|e| e.to_string())?;
            keys.insert(observation.cache_key());
        }
    }
    Ok(keys.len() * w.lineup().len())
}

/// Cache and router counters scraped from the tier after the run.
fn scraped_metrics(
    w: &Workload,
    setup: &Setup,
    run: &Run,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let front = setup.tier.front;
    let stats = scrape(front, r#"{"type":"stats"}"#)?;
    let cache = match w.tier {
        Tier::Direct => stats.get("cache"),
        Tier::Routed => stats.get("aggregate").and_then(|a| a.get("cache")),
    }
    .ok_or("stats response without cache counters")?;
    let counter = |name: &str| cache.get(name).and_then(Json::as_u64).unwrap_or(0) as f64;
    let (hits, misses) = (counter("hits"), counter("misses"));
    let distinct = distinct_fits(w, setup, run)? as f64;
    out.extend([
        Metric::new("cache.hits", hits, "count"),
        Metric::new("cache.misses", misses, "count"),
        Metric::new("cache.hit_ratio", hits / (hits + misses).max(1.0), "ratio"),
        Metric::new("cache.duplicate_fits", misses - distinct, "count"),
        Metric::new("cache.evictions", counter("evictions"), "count"),
    ]);
    let (mut requests, mut errors, mut retries) = (0, 0, 0);
    if w.tier == Tier::Routed {
        let response = scrape(front, r#"{"type":"metrics"}"#)?;
        let snapshot = response
            .get("snapshot")
            .ok_or("metrics response without snapshot")
            .and_then(|s| dlm_serve::snapshot_from_json(s).map_err(|_| "bad metrics snapshot"))?;
        for series in &snapshot.series {
            if let dlm_obs::SeriesValue::Counter(v) = series.value {
                match series.name.as_str() {
                    "dlm_router_requests_total" => requests += v,
                    "dlm_router_backend_errors_total" => errors += v,
                    "dlm_router_backend_retries_total" => retries += v,
                    _ => {}
                }
            }
        }
    }
    out.extend([
        Metric::new("router.requests", requests as f64, "count"),
        Metric::new("router.backend_errors", errors as f64, "count"),
        Metric::new("router.retries", retries as f64, "count"),
    ]);
    Ok(())
}

/// The untraced base run and the traced run each take half of
/// `--seconds`, so a traced invocation costs about what an untraced one
/// does.
fn per_layer(a: &Args) -> Result<Report, String> {
    let w = a.workload;
    let seconds = a.seconds / 2.0;
    let base = timed(w, Setup::new(w, a.seed, None)?, seconds);
    let base_rps = base.run.throughput();
    let mut problems = base.problems;
    drop(base.setup);

    let log = SpanLog::default();
    let traced = timed(w, Setup::new(w, a.seed, Some(&log))?, seconds);
    problems.extend(traced.problems);
    let run = &traced.run;
    let mut out = Vec::new();
    scraped_metrics(w, &traced.setup, run, &mut out)?;
    let Timed { setup, .. } = traced;
    let Setup { inputs, tier, .. } = setup;
    drop(tier);
    let server_spans = std::mem::take(&mut *log.lock().expect("span log poisoned"));
    span_metrics(run, &server_spans, &mut out);
    let mut all_spans = run.client_spans();
    all_spans.extend(server_spans);
    let path = PathBuf::from(".bench_out").join(format!("spans-{}-{}.tsv", w.name, a.seed));
    trace::write_spans(&path, &all_spans).map_err(|e| format!("{}: {e}", path.display()))?;

    out.extend(stages::replay(w, &inputs, run)?);
    let lags: Vec<f64> = run.samples().map(|(_, s)| s.lag_us()).collect();
    let traced_rps = run.throughput();
    out.extend([
        Metric::new(
            "driver.lag_us_p99",
            stats::percentile_sorted(&stats::sorted(&lags), 0.99).unwrap_or(0.0),
            "us",
        ),
        Metric::new("driver.tracing_overhead", base_rps / traced_rps, "ratio"),
    ]);
    let mut record = record(w, a.seed);
    record.extend([
        ("untraced_throughput_rps".into(), Json::num(base_rps)),
        ("traced_throughput_rps".into(), Json::num(traced_rps)),
        ("spans".into(), Json::str(path.display().to_string())),
    ]);
    Ok(Report {
        metrics: out,
        record,
        attempted: run.completed(),
        failed: check::failures(run).count(),
        problems,
    })
}

/// Drives the workload's traffic closed-loop and reports its rate.
fn capacity(a: &Args) -> Result<(), String> {
    let w = Workload {
        pacing: Pacing::Closed,
        ..*a.workload
    };
    let t = timed(&w, Setup::new(&w, a.seed, None)?, a.seconds);
    let mut info = record(&w, a.seed);
    info.push(("capacity_rps".into(), Json::num(t.run.throughput())));
    println!("{}", Json::Obj(info));
    Ok(())
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Json::Obj(vec![
                    ("value".into(), Json::num(m.value)),
                    ("unit".into(), Json::str(m.unit)),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::num(attempted as f64)),
        ("failed".into(), Json::num(failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .to_string()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.capacity {
        return match capacity(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let outcome = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for p in &report.problems {
        eprintln!("perfbench: CHECK FAILED: {p}");
    }
    let correct = report.problems.is_empty();
    println!("{}", Json::Obj(report.record));
    println!(
        "{}",
        result_line(correct, report.attempted, report.failed, &report.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
