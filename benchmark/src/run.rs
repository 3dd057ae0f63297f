//! One benchmark run of one workload: set-ups, a warm-up pass, the
//! untraced pass the end-to-end metrics come from, the optional traced
//! pass, and the checks that tie them together.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;
use crate::metrics::{Src, END_TO_END, PER_LAYER};
use crate::stats::{highest_supported_percentile, median, percentile, samples_beyond, MIN_BEYOND};
use crate::trace::Tracer;
use crate::workloads::{out_dir, Pass, Plan, Prepared, Workload};
use crate::{env, metrics, replay};

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

pub type Values = BTreeMap<&'static str, f64>;

#[derive(Debug, Clone)]
pub struct RunRecord {
    pub workload: Workload,
    pub plan: Plan,
    /// Wall time of the whole run, set-ups and extra passes included.
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub fingerprint: String,
    pub engine_cell: (usize, usize),
    pub store_backend: &'static str,
    pub step_samples: usize,
    /// Measured-section wall time of every pass made, in order.
    pub pass_walls: Vec<(&'static str, f64)>,
    /// End-to-end metrics, from the untraced pass: the five every workload
    /// has plus the ones only this workload has.
    pub metrics: Values,
    /// Per-layer metrics, when a traced pass ran.
    pub layers: Option<Values>,
}

struct Setups {
    workload: Workload,
    plan: Plan,
    seconds: Vec<f64>,
    fingerprint: Option<String>,
}

impl Setups {
    /// Sets the workload up once more, timing it and checking that it
    /// lands on the same state as every set-up before it.
    fn again(&mut self, timed_store: bool) -> Result<Box<dyn Prepared>, String> {
        let start = Instant::now();
        let prepared = self.workload.setup(self.plan, timed_store)?;
        self.seconds.push(start.elapsed().as_secs_f64());
        let fingerprint = prepared.fingerprint();
        match &self.fingerprint {
            Some(first) if *first != fingerprint => Err(format!(
                "{}: set-up is not deterministic: {first} then {fingerprint}",
                self.workload.name()
            )),
            _ => {
                self.fingerprint = Some(fingerprint);
                Ok(prepared)
            }
        }
    }
}

fn same_outputs(workload: Workload, what: &str, a: &Pass, b: &Pass) -> Result<(), String> {
    if a.fingerprint == b.fingerprint {
        Ok(())
    } else {
        Err(format!(
            "{}: the {what} pass diverged from the untraced pass:\n  {}\n  {}",
            workload.name(),
            a.fingerprint,
            b.fingerprint
        ))
    }
}

/// Runs `workload` once.
///
/// # Errors
///
/// The first failed output check, health gate or determinism check; a run
/// that fails one reports no metrics.
pub fn run(workload: Workload, plan: Plan, trace: bool) -> Result<RunRecord, String> {
    let started = Instant::now();
    let mut setups = Setups {
        workload,
        plan,
        seconds: Vec::new(),
        fingerprint: None,
    };

    // The first pass in a process runs on a cold heap: every page the
    // workload grows into is a first-touch fault, which on the microVMs
    // this runs on costs 2-5 us apiece and varies threefold between
    // processes. That pass is therefore a warm-up — and the repeat the
    // measured pass must reproduce bit for bit.
    let warm_up = setups.again(false)?.measure(&mut Tracer::new(false))?;
    let untraced = setups.again(false)?.measure(&mut Tracer::new(false))?;
    same_outputs(workload, "warm-up", &untraced, &warm_up)?;
    let peak_rss_mb = env::peak_rss_mb().unwrap_or(0.0);
    let mut pass_walls = vec![("warm-up", warm_up.wall_s), ("untraced", untraced.wall_s)];
    drop(warm_up);
    let layers = if trace {
        let mut tracer = Tracer::new(true);
        let traced = setups.again(true)?.measure(&mut tracer)?;
        same_outputs(workload, "traced", &untraced, &traced)?;
        pass_walls.push(("traced", traced.wall_s));
        let path = out_dir().join(format!("trace-{}.json", workload.name()));
        tracer
            .write_json(&path, workload.name())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        Some(layer_values(&untraced, &traced, &tracer, plan)?)
    } else {
        None
    };
    while setups.seconds.len() < SETUP_REPS {
        drop(setups.again(false)?);
    }

    let mut metrics = Values::from([
        ("setup_s", median(&setups.seconds)),
        ("ops_per_s", untraced.ops_per_s),
        ("step_ms_p50", percentile(&untraced.steps_ms, 50.0)),
        ("step_ms_p95", percentile(&untraced.steps_ms, 95.0)),
        ("peak_rss_mb", peak_rss_mb),
        ("failed_ops_ratio", failed_ratio(&untraced)),
    ]);
    metrics.extend(untraced.home.iter().map(|(k, v)| (*k, *v)));
    Ok(RunRecord {
        workload,
        plan,
        wall_s: started.elapsed().as_secs_f64(),
        attempted: untraced.attempted,
        failed: untraced.failed,
        fingerprint: untraced.fingerprint,
        engine_cell: untraced.engine_cell,
        store_backend: untraced.store_backend,
        step_samples: untraced.steps_ms.len(),
        pass_walls,
        metrics,
        layers,
    })
}

fn failed_ratio(pass: &Pass) -> f64 {
    pass.failed as f64 / pass.attempted.max(1) as f64
}

/// Every per-layer metric of the registry: read off the spans, handed
/// over by the workload, replayed, or derived here.
fn layer_values(
    untraced: &Pass,
    traced: &Pass,
    tracer: &Tracer,
    plan: Plan,
) -> Result<Values, String> {
    let traced_ms = traced.wall_s * 1e3;
    let advance_ms = tracer.self_ms("engine.advance");
    let phase = |name: &str| traced.given.get(name).copied().unwrap_or(0.0);
    let tasks = (traced.replay.pop_steps * traced.replay.tasks_per_pop).max(1);
    let mut given = traced.given.clone();
    given.extend(replay::all(&traced.replay, plan.seed, traced.wall_s));
    given.extend(untraced.home.iter().map(|(k, v)| (*k, *v)));
    given.extend([
        ("failed_ops_ratio", failed_ratio(untraced)),
        ("harness.span_cover", tracer.top_level_ms() / traced_ms),
        (
            "harness.trace_overhead_ratio",
            traced.wall_s / untraced.wall_s - 1.0,
        ),
        (
            "engine.advance.unattributed_ms",
            (advance_ms - phase("engine.phase.verify_ms") - phase("engine.phase.fold_ms")).max(0.0),
        ),
        ("engine.advance.ms_per_task", advance_ms / tasks as f64),
    ]);
    if let Some(stray) = given
        .keys()
        .find(|k| !PER_LAYER.iter().any(|m| m.name == **k))
    {
        return Err(format!("per-layer value {stray} is not in the registry"));
    }
    Ok(PER_LAYER
        .iter()
        .map(|m| {
            let value = match m.src {
                Src::SpanMs(span) => tracer.self_ms(span),
                Src::SpanCalls(span) => tracer.calls(span) as f64,
                Src::SpanCount(span) => tracer.count(span) as f64,
                Src::Given => given.get(m.name).copied().unwrap_or(0.0),
            };
            (m.name, value)
        })
        .collect())
}

fn metric_map(values: impl Iterator<Item = (&'static str, f64)>) -> Json {
    Json::Obj(
        values
            .map(|(name, value)| {
                (
                    name.to_string(),
                    Json::obj([
                        ("value", Json::Num(value)),
                        ("unit", Json::str(metrics::unit_of(name))),
                    ]),
                )
            })
            .collect(),
    )
}

impl RunRecord {
    /// The result line the benchmark contract asks for: with tracing off
    /// every end-to-end metric, with tracing on every per-layer metric.
    pub fn result_line(&self) -> Json {
        let metrics = match &self.layers {
            Some(layers) => metric_map(PER_LAYER.iter().map(|m| (m.name, layers[m.name]))),
            None => metric_map(END_TO_END.iter().map(|m| (m.name, self.metrics[m.name]))),
        };
        Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics),
        ])
    }

    /// The record kept in a result file, which `compare` reads.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload.name())),
            ("seed", Json::Num(self.plan.seed as f64)),
            ("seconds", Json::Num(self.plan.seconds as f64)),
            ("wall_s", Json::Num(self.wall_s)),
            ("engine_shards", Json::Num(self.engine_cell.0 as f64)),
            (
                "engine_ingest_threads",
                Json::Num(self.engine_cell.1 as f64),
            ),
            ("store", Json::str(self.store_backend)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("step_samples", Json::Num(self.step_samples as f64)),
            (
                "pass_wall_s",
                Json::Obj(
                    self.pass_walls
                        .iter()
                        .map(|(pass, wall)| (pass.to_string(), Json::Num(*wall)))
                        .collect(),
                ),
            ),
            ("fingerprint", Json::str(self.fingerprint.clone())),
            (
                "metrics",
                metric_map(self.metrics.iter().map(|(k, v)| (*k, *v))),
            ),
            (
                "layers",
                self.layers.as_ref().map_or(Json::Null, |layers| {
                    metric_map(layers.iter().map(|(k, v)| (*k, *v)))
                }),
            ),
        ])
    }

    /// Every metric by name with its unit, for people.
    pub fn print_table(&self) {
        eprintln!(
            "== {} seed {} seconds {}: {} ops attempted, {} failed, engine {}x{}, {} store, {:.1} s in all",
            self.workload.name(),
            self.plan.seed,
            self.plan.seconds,
            self.attempted,
            self.failed,
            self.engine_cell.0,
            self.engine_cell.1,
            self.store_backend,
            self.wall_s
        );
        eprintln!("   measured sections: {:.3?} s", self.pass_walls);
        eprintln!(
            "   step_ms_* over {} steps: p95 has {} samples beyond it; highest percentile with >= {MIN_BEYOND} beyond: {}",
            self.step_samples,
            samples_beyond(self.step_samples, 95.0),
            highest_supported_percentile(self.step_samples, &[50.0, 90.0, 95.0, 99.0])
                .map_or_else(|| "none".into(), |p| format!("p{p}")),
        );
        for (name, value) in &self.metrics {
            eprintln!("  {name:<36} {value:>16.4} {}", metrics::unit_of(name));
        }
        if let Some(layers) = &self.layers {
            eprintln!("  -- per layer (traced pass; *.share are estimates from layer replays)");
            let mut layer = "";
            for m in PER_LAYER {
                if m.layer != layer {
                    layer = m.layer;
                    eprintln!("  [{layer}]");
                }
                eprintln!("  {:<44} {:>16.4} {}", m.name, layers[m.name], m.unit);
            }
        }
    }
}
