//! The repository's benchmark: four workloads over the whole stack,
//! end-to-end metrics from an untraced pass and a per-layer ledger from a
//! traced one. See `benchmark/README.md`.
//!
//! ```text
//! fi-benchmark [run] [--workload <name>|all] [--seed <u64>] [--seconds <n>]
//!              [--trace [0|1]] [--seeds <n>] [--out <file>]
//! fi-benchmark compare <a.json> <b.json>
//! fi-benchmark describe
//! ```
//!
//! `run` prints every metric by name with its unit on standard error and,
//! as the last line of standard output per workload, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. A run that fails an
//! output check or a health gate prints no metrics and exits non-zero.

use std::path::PathBuf;
use std::process::ExitCode;

mod compare;
mod env;
mod json;
mod metrics;
mod replay;
mod run;
mod stats;
mod store;
mod trace;
mod workloads;

use json::Json;
use workloads::{Plan, Workload};

struct RunOptions {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Consecutive seeds to run, starting at `seed`.
    seeds: u64,
    out: Option<PathBuf>,
}

/// `--flag`, `--flag 0` or `--flag 1`.
fn switch(args: &[String], at: &mut usize) -> bool {
    match args.get(*at + 1).map(String::as_str) {
        Some("1") => {
            *at += 1;
            true
        }
        Some("0") => {
            *at += 1;
            false
        }
        _ => true,
    }
}

fn parse_run(args: &[String]) -> Result<RunOptions, String> {
    let mut options = RunOptions {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: metrics::RUN_SECONDS,
        trace: false,
        seeds: 1,
        out: None,
    };
    let mut at = 0;
    while at < args.len() {
        let flag = args[at].as_str();
        let mut value = || {
            at += 1;
            args.get(at)
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let number = |text: &str| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag}: {text:?} is not a whole number"))
        };
        match flag {
            "--workload" => {
                let name = value()?;
                if name != "all" {
                    options.workloads = vec![Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?];
                }
            }
            "--seed" => options.seed = number(value()?)?,
            "--seconds" => options.seconds = number(value()?)?,
            "--seeds" => options.seeds = number(value()?)?,
            "--out" => options.out = Some(PathBuf::from(value()?)),
            "--trace" => options.trace = switch(args, &mut at),
            other => return Err(format!("unknown argument {other:?}")),
        }
        at += 1;
    }
    if options.seconds == 0 || options.seeds == 0 {
        return Err("--seconds and --seeds must be at least 1".into());
    }
    Ok(options)
}

fn run_command(args: &[String]) -> Result<(), String> {
    let options = parse_run(args)?;
    let forbidden = env::forbidden_vars();
    if !forbidden.is_empty() {
        return Err(format!(
            "refusing to measure with {} set: these change how the program executes",
            forbidden.join(", ")
        ));
    }
    let plans: Vec<(Workload, Plan)> = (0..options.seeds)
        .flat_map(|offset| {
            let plan = Plan {
                seed: options.seed + offset,
                seconds: options.seconds,
            };
            options.workloads.iter().map(move |&w| (w, plan))
        })
        .collect();
    let mut records = Vec::new();
    if let [(workload, plan)] = plans[..] {
        let record = run::run(workload, plan, options.trace)?;
        record.print_table();
        println!("{}", record.result_line().encode());
        records.push(record.to_json());
    } else {
        // One process per run, as the driver does it: a run then neither
        // inherits a warm heap from the run before nor reports its peak
        // memory.
        for (workload, plan) in plans {
            records.push(run_in_child(workload, plan, options.trace)?);
        }
    }
    if let Some(path) = &options.out {
        let file = Json::obj([
            ("schema", Json::Num(1.0)),
            ("env", env::record()),
            ("trace", Json::Bool(options.trace)),
            ("runs", Json::Arr(records)),
        ]);
        // One run per line keeps the file diffable.
        let text = file.encode().replace("{\"workload\"", "\n{\"workload\"") + "\n";
        std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Runs one `(workload, plan)` in a child process of this executable and
/// returns the run record it wrote. The child prints its own table and
/// result line; this waits for it to exit.
fn run_in_child(workload: Workload, plan: Plan, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let out = workloads::out_dir().join("tmp").join(format!(
        "run-{}-{}-{}.json",
        std::process::id(),
        workload.name(),
        plan.seed
    ));
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    let status = std::process::Command::new(exe)
        .args(["run", "--workload", workload.name()])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--seconds", &plan.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out)
        .status()
        .map_err(|e| format!("starting the run of {}: {e}", workload.name()))?;
    if !status.success() {
        return Err(format!(
            "{} seed {} failed ({status})",
            workload.name(),
            plan.seed
        ));
    }
    let text =
        std::fs::read_to_string(&out).map_err(|e| format!("reading {}: {e}", out.display()))?;
    let _ = std::fs::remove_file(&out);
    let record = Json::parse(&text)?
        .get("runs")
        .and_then(Json::as_arr)
        .and_then(|runs| runs.first().cloned())
        .ok_or_else(|| format!("{} holds no run", out.display()))?;
    Ok(record)
}

fn compare_command(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare takes two result files".into());
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("reading {path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let rows = compare::rows(&load(a)?, &load(b)?)?;
    Ok(compare::report(&rows))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare_command(&args[1..]),
        Some("describe") => {
            println!("{}", describe_pretty());
            Ok(true)
        }
        Some("run") => run_command(&args[1..]).map(|()| true),
        _ => run_command(&args).map(|()| true),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("fi-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// `BENCHMARK.json` with one metric per line.
fn describe_pretty() -> String {
    let Json::Obj(pairs) = metrics::describe() else {
        unreachable!("describe() builds an object");
    };
    let body: Vec<String> = pairs
        .iter()
        .map(|(key, value)| match value {
            Json::Arr(items) if items.iter().all(|i| matches!(i, Json::Obj(_))) => {
                let rows: Vec<String> = items
                    .iter()
                    .map(|i| format!("    {}", i.encode()))
                    .collect();
                format!(
                    "  {}: [\n{}\n  ]",
                    Json::str(key.clone()).encode(),
                    rows.join(",\n")
                )
            }
            other => format!("  {}: {}", Json::str(key.clone()).encode(), other.encode()),
        })
        .collect();
    format!("{{\n{}\n}}", body.join(",\n"))
}
