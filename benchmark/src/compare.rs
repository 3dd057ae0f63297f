//! `compare <a.json> <b.json>`: holds result file B to the benchmark's own
//! bounds against baseline A, one row per (workload, metric).

use std::collections::BTreeMap;

use crate::json::Json;
use crate::metrics::{self, Better};
use crate::stats::{median, relative_spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// Not regressed, but one side's run-to-run spread is wider than the
    /// bound, so "unchanged" cannot be claimed either.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Both sides' medians and relative quartile spreads, and what they mean.
#[derive(Debug, Clone, PartialEq)]
pub struct Judgement {
    pub median_a: f64,
    pub median_b: f64,
    pub spread_a: f64,
    pub spread_b: f64,
    pub verdict: Verdict,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub bound: f64,
    pub judgement: Judgement,
}

/// Judges one metric. A bound of 0 means "may not worsen at all" — what
/// `failed_ops_ratio` is held to.
pub fn judge(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Judgement {
    let (median_a, median_b) = (median(a), median(b));
    let (spread_a, spread_b) = (relative_spread(a), relative_spread(b));
    let worse_by = match better {
        Better::Lower => median_b - median_a,
        Better::Higher => median_a - median_b,
    };
    let verdict = if worse_by > bound * median_a.abs() {
        Verdict::Regressed
    } else if bound > 0.0 && (spread_a > bound || spread_b > bound) {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    Judgement {
        median_a,
        median_b,
        spread_a,
        spread_b,
        verdict,
    }
}

/// `workload → metric → values over the file's runs`.
type Samples = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn samples(file: &Json) -> Result<Samples, String> {
    let runs = file
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("result file has no \"runs\" array")?;
    let mut out = Samples::new();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("a run has no workload name")?;
        let metrics = run
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("a run has no metrics")?;
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{workload}.{name} has no numeric value"))?;
            out.entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    Ok(out)
}

/// One row per (workload, metric) that both files have and the registry
/// bounds.
///
/// # Errors
///
/// A description of what is missing from a result file.
pub fn rows(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let (a, b) = (samples(a)?, samples(b)?);
    let mut rows = Vec::new();
    for (workload, metrics_a) in &a {
        let Some(metrics_b) = b.get(workload) else {
            continue;
        };
        for (metric, values_a) in metrics_a {
            let Some(values_b) = metrics_b.get(metric) else {
                continue;
            };
            let (better, bound) = if metric == "failed_ops_ratio" {
                (Better::Lower, 0.0)
            } else if let Some(bounded) = metrics::compare_bound(workload, metric) {
                bounded
            } else {
                continue;
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.clone(),
                bound,
                judgement: judge(better, bound, values_a, values_b),
            });
        }
    }
    if rows.is_empty() {
        return Err("the two files share no bounded metric".into());
    }
    Ok(rows)
}

/// Prints the table and returns whether B passed (nothing regressed).
pub fn report(rows: &[Row]) -> bool {
    println!(
        "{:<13} {:<24} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "B/A", "iqr A", "iqr B", "bound"
    );
    for row in rows {
        let j = &row.judgement;
        let ratio = if j.median_a == 0.0 {
            f64::NAN
        } else {
            j.median_b / j.median_a
        };
        println!(
            "{:<13} {:<24} {:>14.4} {:>14.4} {:>8.3} {:>8.3} {:>8.3} {:>6.2}  {} {}",
            row.workload,
            row.metric,
            j.median_a,
            j.median_b,
            ratio,
            j.spread_a,
            j.spread_b,
            row.bound,
            j.verdict.as_str(),
            metrics::unit_of(&row.metric),
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.judgement.verdict == v).count();
    let (regressed, unresolved) = (count(Verdict::Regressed), count(Verdict::Unresolved));
    println!(
        "{} rows (B/A is B's median over A's): {regressed} regressed, {unresolved} unresolved",
        rows.len()
    );
    regressed == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        let noisy = [100.0, 140.0, 70.0, 125.0, 80.0];
        // Lower is better: +20 % against a 10 % bound regresses, -17 % does not.
        assert_eq!(
            judge(Better::Lower, 0.10, &steady, &slower).verdict,
            Verdict::Regressed
        );
        assert_eq!(
            judge(Better::Lower, 0.10, &slower, &steady).verdict,
            Verdict::Ok
        );
        // Higher is better: the same numbers the other way round.
        assert_eq!(
            judge(Better::Higher, 0.10, &slower, &steady).verdict,
            Verdict::Regressed
        );
        assert_eq!(
            judge(Better::Higher, 0.10, &steady, &slower).verdict,
            Verdict::Ok
        );
        // Within the bound but one side too noisy to call it unchanged.
        assert_eq!(
            judge(Better::Lower, 0.10, &steady, &noisy).verdict,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(Better::Lower, 0.25, &steady, &steady).verdict,
            Verdict::Ok
        );
        // A zero bound tolerates no worsening and ignores spread.
        assert_eq!(
            judge(Better::Lower, 0.0, &[0.0, 0.0], &[0.0, 0.0]).verdict,
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Lower, 0.0, &[0.0, 0.0], &[0.01, 0.01]).verdict,
            Verdict::Regressed
        );
    }

    fn file(runs: &[(&str, &[(&str, f64)])]) -> Json {
        Json::obj([(
            "runs",
            Json::Arr(
                runs.iter()
                    .map(|(workload, metrics)| {
                        Json::obj([
                            ("workload", Json::str(*workload)),
                            (
                                "metrics",
                                Json::Obj(
                                    metrics
                                        .iter()
                                        .map(|(name, value)| {
                                            (
                                                name.to_string(),
                                                Json::obj([("value", Json::Num(*value))]),
                                            )
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        )])
    }

    #[test]
    fn rows_cover_bounded_metrics_of_shared_workloads() {
        let a = file(&[
            (
                "state_sync",
                &[
                    ("ops_per_s", 1000.0),
                    ("sync_delta_s", 0.5),
                    ("failed_ops_ratio", 0.0),
                ],
            ),
            (
                "state_sync",
                &[
                    ("ops_per_s", 1010.0),
                    ("sync_delta_s", 0.51),
                    ("failed_ops_ratio", 0.0),
                ],
            ),
            ("ingest_mix", &[("ops_per_s", 20000.0)]),
        ]);
        let b = file(&[
            (
                "state_sync",
                &[
                    ("ops_per_s", 990.0),
                    ("sync_delta_s", 0.8),
                    ("failed_ops_ratio", 0.1),
                ],
            ),
            (
                "state_sync",
                &[
                    ("ops_per_s", 1000.0),
                    ("sync_delta_s", 0.82),
                    ("failed_ops_ratio", 0.1),
                ],
            ),
        ]);
        let rows = rows(&a, &b).unwrap();
        let verdict = |metric: &str| {
            rows.iter()
                .find(|r| r.metric == metric)
                .unwrap()
                .judgement
                .verdict
        };
        assert_eq!(rows.len(), 3, "ingest_mix is only in A");
        assert_eq!(verdict("ops_per_s"), Verdict::Ok);
        assert_eq!(verdict("sync_delta_s"), Verdict::Regressed);
        assert_eq!(verdict("failed_ops_ratio"), Verdict::Regressed);
        assert!(!report(&rows));
        assert!(super::rows(&a, &file(&[])).is_err());
    }
}
