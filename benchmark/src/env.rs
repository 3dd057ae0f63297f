//! The environment a result was measured in, and the guard that refuses
//! to measure under the program's debugging knobs.

use std::path::Path;
use std::process::Command;

use crate::json::Json;

/// Environment variables that change how the program executes; a run
/// under any of them would not describe the program as shipped.
pub fn forbidden_vars() -> Vec<String> {
    let mut found: Vec<String> = std::env::vars_os()
        .filter_map(|(name, _)| name.into_string().ok())
        .filter(|name| {
            name.starts_with("FI_TUNE_")
                || name.starts_with("FI_TEST_")
                || name == "FI_FORCE_SCALAR_SHA"
        })
        .collect();
    found.sort();
    found
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set of this process in MB (`VmHWM`), or `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The commit checked out at `repo`, read from `.git` without running git
/// (the driver's checkout is not a repository: "unknown" there).
fn git_commit(repo: &Path) -> String {
    let git = repo.join(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |v| v.trim().to_string())
}

/// The per-file environment record of a result file.
pub fn record() -> Json {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap_or(Path::new("."));
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        (
            "sha256_backend",
            Json::str(fi_crypto::sha256::active_backend().name()),
        ),
        ("git_commit", Json::str(git_commit(repo))),
        ("rustc", Json::str(rustc_version())),
    ])
}
