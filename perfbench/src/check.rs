//! Correctness checks over the responses of a finished timed phase, and
//! the Eq.-8 accuracy of the forecasts they served.

use std::sync::Arc;

use dlm_cascade::DensityMatrix;
use dlm_core::{ModelRegistry, PredictionRequest};
use dlm_numerics::stats::prediction_accuracy;
use dlm_serve::{Json, ServerState};

use crate::drive::{Run, Sample};
use crate::workload::{Inputs, Step, Verb, Workload};

/// Forecast responses checked bit for bit against an offline fit.
const IDENTITY_SAMPLES: usize = 6;

/// Whether a response line reports success. Both tiers serialize `ok`
/// first, so no parse is needed.
#[must_use]
pub fn is_ok(response: &str) -> bool {
    response.starts_with("{\"ok\":true")
}

/// Requests whose outcome contradicts the script: a failed request, or
/// a late echo the server accepted.
pub fn failures(run: &Run) -> impl Iterator<Item = (&Step, &Sample)> {
    run.samples()
        .filter(|(step, s)| is_ok(&s.response) != step.expect_ok)
}

/// One model's served values, `grid[di][hi]`; `None` for `null`.
pub type Grid = Vec<Vec<Option<f64>>>;

/// One served forecast: per model, its grid or `None` when the model
/// reported an error.
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    /// Observed hours the forecast was fit on.
    pub through: u32,
    /// Predicted distances.
    pub distances: Vec<u32>,
    /// Predicted hours.
    pub hours: Vec<u32>,
    /// `(spec, grid)` per model; the grid is `None` when the model
    /// reported an error.
    pub models: Vec<(String, Option<Grid>)>,
}

fn u32s(value: Option<&Json>) -> Option<Vec<u32>> {
    value?
        .as_array()?
        .iter()
        .map(|v| v.as_u64().and_then(|n| u32::try_from(n).ok()))
        .collect()
}

impl Served {
    /// Parses a forecast response line.
    ///
    /// # Errors
    ///
    /// A message naming what was malformed.
    pub fn parse(response: &str) -> Result<Self, String> {
        let json = Json::parse(response).map_err(|e| format!("bad forecast response: {e}"))?;
        let bad = |what: &str| format!("forecast response without {what}: {response}");
        let through = json
            .get("observed_through")
            .and_then(Json::as_u64)
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| bad("observed_through"))?;
        let distances = u32s(json.get("distances")).ok_or_else(|| bad("distances"))?;
        let hours = u32s(json.get("hours")).ok_or_else(|| bad("hours"))?;
        let mut models = Vec::new();
        for m in json
            .get("models")
            .and_then(Json::as_array)
            .ok_or_else(|| bad("models"))?
        {
            let spec = m
                .get("spec")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("spec"))?;
            let grid = match m.get("values").and_then(Json::as_array) {
                Some(rows) => Some(
                    rows.iter()
                        .map(|row| {
                            row.as_array()
                                .map(|cells| cells.iter().map(Json::as_f64).collect())
                                .ok_or_else(|| bad("value rows"))
                        })
                        .collect::<Result<_, _>>()?,
                ),
                None => None,
            };
            models.push((spec.to_owned(), grid));
        }
        Ok(Self {
            through,
            distances,
            hours,
            models,
        })
    }

    /// Eq.-8 accuracy of every served value whose observed density is
    /// nonzero.
    ///
    /// # Errors
    ///
    /// When `truth` does not cover a predicted cell.
    pub fn accuracies(&self, truth: &DensityMatrix) -> Result<Vec<f64>, String> {
        let mut out = Vec::new();
        for (_, grid) in &self.models {
            for (di, row) in grid.iter().flatten().enumerate() {
                for (hi, value) in row.iter().enumerate() {
                    let Some(pred) = value else { continue };
                    let actual = truth
                        .at(self.distances[di], self.hours[hi])
                        .map_err(|e| e.to_string())?;
                    out.extend(prediction_accuracy(*pred, actual));
                }
            }
        }
        Ok(out)
    }
}

/// Mean Eq.-8 accuracy over the forecasts of the scored cascades.
///
/// # Errors
///
/// Unparseable forecasts or missing ground truth.
pub fn forecast_accuracy(w: &Workload, inputs: &Inputs, run: &Run) -> Result<f64, String> {
    let mut cells = Vec::new();
    for (step, sample) in run.samples() {
        if step.verb == Verb::Forecast && step.ordinal < w.scored {
            let served = Served::parse(&sample.response)?;
            cells.extend(served.accuracies(&inputs.truths[&step.cascade].matrix)?);
        }
    }
    if cells.is_empty() {
        return Err("no scored forecast values".into());
    }
    Ok(cells.iter().sum::<f64>() / cells.len() as f64)
}

/// Refits every served model offline on the same observation and
/// requires bit-identical values (and an error wherever the server
/// reported one).
fn check_identical(
    registry: &ModelRegistry,
    inputs: &Inputs,
    step: &Step,
    served: &Served,
) -> Result<(), String> {
    let observation = inputs.truths[&step.cascade]
        .observation(&inputs.graph, served.through)
        .map_err(|e| e.to_string())?;
    let request = PredictionRequest::new(served.distances.clone(), served.hours.clone())
        .map_err(|e| e.to_string())?;
    for (spec, grid) in &served.models {
        let offline = registry
            .build_from_str(spec)
            .and_then(|p| p.fit(&observation))
            .and_then(|f| f.predict(&request));
        match (grid, offline) {
            (None, Err(_)) => {}
            (Some(grid), Ok(prediction)) => {
                for (di, &d) in served.distances.iter().enumerate() {
                    for (hi, &h) in served.hours.iter().enumerate() {
                        let want = prediction.at(d, h).map_err(|e| e.to_string())?;
                        let got = grid[di][hi];
                        let same = match got {
                            Some(v) => v.to_bits() == want.to_bits(),
                            None => !want.is_finite(),
                        };
                        if !same {
                            return Err(format!(
                                "trace {}: {spec} I({d},{h}) served {got:?}, offline {want:?}",
                                step.trace
                            ));
                        }
                    }
                }
            }
            (grid, offline) => {
                return Err(format!(
                    "trace {}: {spec} served error={}, offline error={}",
                    step.trace,
                    grid.is_none(),
                    offline.is_err()
                ))
            }
        }
    }
    Ok(())
}

/// Replays every request line through one in-process `ServerState`
/// and requires the same response bytes the routed tier returned.
fn check_routed_equals_direct(w: &Workload, inputs: &Inputs, run: &Run) -> Result<(), String> {
    let direct = ServerState::with_graph(w.serve_config(), Arc::clone(&inputs.graph))
        .map_err(|e| e.to_string())?;
    for (step, sample) in run.samples() {
        let want = direct.handle_line(&step.line);
        if want != sample.response {
            return Err(format!(
                "trace {}: routed response differs from direct replay\n routed: {}\n direct: {want}",
                step.trace, sample.response
            ));
        }
    }
    Ok(())
}

/// Runs every check on a finished timed phase; returns the failure
/// messages (empty when all pass).
#[must_use]
pub fn all(w: &Workload, inputs: &Inputs, run: &Run) -> Vec<String> {
    let mut problems: Vec<String> = failures(run)
        .map(|(step, sample)| {
            format!(
                "trace {}: expected ok={}, got {}",
                step.trace, step.expect_ok, sample.response
            )
        })
        .collect();
    let forecasts: Vec<(&Step, &str)> = run
        .samples()
        .filter(|(step, _)| step.verb == Verb::Forecast)
        .map(|(step, s)| (step, s.response.as_str()))
        .collect();
    if forecasts.is_empty() {
        problems.push("no forecast completed".into());
    }
    let registry = ModelRegistry::with_builtins();
    let stride = (forecasts.len() / IDENTITY_SAMPLES).max(1);
    for &(step, response) in forecasts.iter().step_by(stride).take(IDENTITY_SAMPLES) {
        let checked = Served::parse(response)
            .and_then(|served| check_identical(&registry, inputs, step, &served));
        if let Err(e) = checked {
            problems.push(e);
        }
    }
    if w.tier == crate::workload::Tier::Routed {
        if let Err(e) = check_routed_equals_direct(w, inputs, run) {
            problems.push(e);
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlm_core::{AccuracyTable, DlModel};

    #[test]
    fn eq8_mean_over_a_served_grid_equals_the_accuracy_table() {
        let truth = DensityMatrix::from_counts(
            &[vec![2, 5, 9, 12], vec![0, 1, 4, 8], vec![0, 0, 0, 3]],
            &[20, 40, 60],
        )
        .unwrap();
        let initial = truth.profile_at(1).unwrap();
        let prediction = DlModel::paper_hops(&initial)
            .unwrap()
            .predict(&[1, 2, 3], &[2, 3, 4])
            .unwrap();
        let grid: Grid = [1, 2, 3]
            .iter()
            .map(|&d| {
                [2, 3, 4]
                    .iter()
                    .map(|&h| Some(prediction.at(d, h).unwrap()))
                    .collect()
            })
            .collect();
        let served = Served {
            through: 1,
            distances: vec![1, 2, 3],
            hours: vec![2, 3, 4],
            models: vec![("dl".into(), Some(grid)), ("broken".into(), None)],
        };
        let cells = served.accuracies(&truth).unwrap();
        let mean = cells.iter().sum::<f64>() / cells.len() as f64;
        let table = AccuracyTable::score(&prediction, &truth).unwrap();
        assert_eq!(mean.to_bits(), table.overall_average().unwrap().to_bits());
        // Zero observations (distance 3 before hour 4) are undefined
        // under Eq. 8 and skipped, exactly as the table skips them.
        assert_eq!(cells.len(), 7);
    }

    #[test]
    fn forecast_responses_parse_with_errors_and_nulls() {
        let line = r#"{"ok":true,"cascade":"c","observed_through":2,"distances":[1,2],"hours":[3],"models":[{"spec":"naive","param_names":[],"params":[],"values":[[0.5],[null]]},{"spec":"dl-cal","error":"too short"}]}"#;
        let served = Served::parse(line).unwrap();
        assert_eq!(served.through, 2);
        assert_eq!(served.distances, vec![1, 2]);
        assert_eq!(
            served.models,
            vec![
                ("naive".into(), Some(vec![vec![Some(0.5)], vec![None]])),
                ("dl-cal".into(), None),
            ]
        );
        assert!(is_ok(line));
        assert!(!is_ok(r#"{"ok":false,"error":"late vote"}"#));
    }
}
