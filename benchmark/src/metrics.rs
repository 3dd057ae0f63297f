//! The benchmark's metric registry: every name, unit, direction and bound
//! in one place. `BENCHMARK.json` at the repository root is this registry
//! printed by the `describe` subcommand; a unit test keeps the two equal.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How long one run measures, as written to `BENCHMARK.json`; each
/// workload sizes its measured section from `--seconds`.
pub const RUN_SECONDS: u64 = 10;

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "ingest_mix",
        "client control plane at 50k live files with per-file deadlines: scheduler, sampler, ledger and per-block state commit dominate, hashing is small",
    ),
    (
        "audit_cycle",
        "validator steady state at 100k files in one audit bucket: keyed path walks on the SHA lanes, worker pool and the only shards>1 cell; sampler idle, scheduler one bucket",
    ),
    (
        "state_sync",
        "the store and statemap layer read and rebuilt instead of written: snapshot save, full and delta join, pinned reads and proofs on a disk blockstore",
    ),
    (
        "node_cluster",
        "everything above the engine under faults: mempool, proposer rotation, lossy links, fork choice, crash and partition recovery, one cold joiner; engine work is a small share",
    ),
];

/// A metric a user of the system would see; every workload reports every
/// one of these from its untraced run.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// `compare` (and the driver) call it a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "ops/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "step_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "step_ms_p95",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Where a per-layer value comes from: the workload hands it over, or it
/// is read off the recorded spans of that name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    Given,
    SpanMs(&'static str),
    SpanCalls(&'static str),
    SpanCount(&'static str),
}

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub layer: &'static str,
    pub src: Src,
    /// Set on the end-to-end metrics that exist on one workload only:
    /// `compare` holds them to this bound on `(workload, bound)`. A bound
    /// of 0 marks an exact count, which may not worsen at all.
    pub home: Option<(&'static str, f64)>,
}

const fn given(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        src: Src::Given,
        home: None,
    }
}

const fn home(
    name: &'static str,
    unit: &'static str,
    better: Better,
    workload: &'static str,
    bound: f64,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer: HOME,
        src: Src::Given,
        home: Some((workload, bound)),
    }
}

const fn span(name: &'static str, unit: &'static str, layer: &'static str, src: Src) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        layer,
        src,
        home: None,
    }
}

/// Self time, call count and work count of the spans called `span`.
const fn ms(name: &'static str, layer: &'static str, span_name: &'static str) -> PerLayer {
    span(name, "ms", layer, Src::SpanMs(span_name))
}

const fn calls(name: &'static str, layer: &'static str, span_name: &'static str) -> PerLayer {
    span(name, "count", layer, Src::SpanCalls(span_name))
}

const fn count(
    name: &'static str,
    unit: &'static str,
    layer: &'static str,
    span_name: &'static str,
) -> PerLayer {
    span(name, unit, layer, Src::SpanCount(span_name))
}

use Better::{Higher, Lower};

const HARNESS: &str = "harness";
const HOME: &str = "end-to-end (home workload)";
const INGEST: &str = "fi-core::engine ingest";
const ADVANCE: &str = "fi-core::engine advance/audit";
const COMMIT: &str = "fi-core::engine commit";
const SNAPSHOT: &str = "fi-core::engine::snapshot / view";
const STORE: &str = "fi-store";
const TASKS: &str = "fi-chain::tasks";
const SAMPLER: &str = "fi-core::sampler";
const CRYPTO: &str = "fi-crypto";
const NODE: &str = "fi-node";
const NET: &str = "fi-net";

/// Every per-layer metric; a traced run reports all of them on every
/// workload (0 where the workload never enters the layer).
pub const PER_LAYER: &[PerLayer] = &[
    ms("gen.ms", HARNESS, "gen"),
    given("harness.span_cover", "ratio", Higher, HARNESS),
    given("harness.trace_overhead_ratio", "ratio", Lower, HARNESS),
    // End-to-end metrics that only one workload has, taken from the
    // untraced run like the five above.
    given("failed_ops_ratio", "ratio", Lower, HOME),
    home("sync_full_s", "s", Lower, "state_sync", 0.25),
    home("sync_delta_s", "s", Lower, "state_sync", 0.25),
    home("snapshot_save_ms", "ms", Lower, "state_sync", 0.25),
    home("snapshot_bytes_per_file", "B", Lower, "state_sync", 0.0),
    home("delta_over_full_bytes", "ratio", Lower, "state_sync", 0.0),
    home("blocks_per_s", "blocks/s", Higher, "node_cluster", 0.25),
    home(
        "recovery_heights_max",
        "heights",
        Lower,
        "node_cluster",
        0.0,
    ),
    ms("engine.apply_batch.ms", INGEST, "engine.apply_batch"),
    calls("engine.apply_batch.calls", INGEST, "engine.apply_batch"),
    count(
        "engine.apply_batch.ops",
        "count",
        INGEST,
        "engine.apply_batch",
    ),
    given("engine.phase.stage_ms", "ms", Lower, INGEST),
    given("engine.phase.commit_ms", "ms", Lower, INGEST),
    given(
        "engine.stats.batches_staged_parallel",
        "count",
        Higher,
        INGEST,
    ),
    given(
        "engine.stats.batches_fell_back_sequential",
        "count",
        Lower,
        INGEST,
    ),
    given("engine.stats.proofs_accepted", "count", Higher, INGEST),
    ms("engine.advance.ms", ADVANCE, "engine.advance"),
    calls("engine.advance.calls", ADVANCE, "engine.advance"),
    given("engine.advance.ms_per_task", "ms", Lower, ADVANCE),
    given("engine.pending_tasks", "count", Lower, ADVANCE),
    given("engine.phase.verify_ms", "ms", Lower, ADVANCE),
    given("engine.phase.fold_ms", "ms", Lower, ADVANCE),
    given("engine.advance.unattributed_ms", "ms", Lower, ADVANCE),
    given("engine.stats.proofs_audited", "count", Higher, ADVANCE),
    given(
        "engine.stats.audit_commit_batches",
        "count",
        Higher,
        ADVANCE,
    ),
    given("engine.stats.punishments", "count", Lower, ADVANCE),
    ms("engine.state_root.ms", COMMIT, "engine.state_root"),
    ms("engine.checkpoint.ms", COMMIT, "engine.checkpoint"),
    ms("engine.take_events.ms", COMMIT, "engine.take_events"),
    ms("snapshot.save.ms", SNAPSHOT, "snapshot.save"),
    count("snapshot.save.bytes", "B", SNAPSHOT, "snapshot.save"),
    ms("snapshot.restore.ms", SNAPSHOT, "snapshot.restore"),
    ms("snapshot.delta_save.ms", SNAPSHOT, "snapshot.delta_save"),
    count(
        "snapshot.delta_save.bytes",
        "B",
        SNAPSHOT,
        "snapshot.delta_save",
    ),
    ms(
        "snapshot.delta_restore.ms",
        SNAPSHOT,
        "snapshot.delta_restore",
    ),
    ms("engine.replay_from.ms", SNAPSHOT, "engine.replay_from"),
    count(
        "engine.replay_from.ops",
        "count",
        SNAPSHOT,
        "engine.replay_from",
    ),
    ms("view.pin_state.ms", SNAPSHOT, "view.pin_state"),
    ms("view.try_file.ms", SNAPSHOT, "view.try_file"),
    ms("view.prove_file.ms", SNAPSHOT, "view.prove_file"),
    ms("proof.verify.ms", SNAPSHOT, "proof.verify"),
    given("store.put_calls", "count", Lower, STORE),
    given("store.put_bytes", "B", Lower, STORE),
    given("store.put_ms", "ms", Lower, STORE),
    given("store.get_calls", "count", Lower, STORE),
    given("store.get_bytes", "B", Lower, STORE),
    given("store.get_ms", "ms", Lower, STORE),
    given("store.blocks", "count", Lower, STORE),
    given("store.bytes_per_live_file", "B", Lower, STORE),
    given("hamt.replay_ms", "ms", Lower, STORE),
    given("hamt.share", "ratio", Lower, STORE),
    given("scheduler.replay_ms", "ms", Lower, TASKS),
    given("scheduler.share", "ratio", Lower, TASKS),
    given("scheduler.tasks_popped", "count", Lower, TASKS),
    given("sampler.replay_ms", "ms", Lower, SAMPLER),
    given("sampler.share", "ratio", Lower, SAMPLER),
    given("engine.stats.add_collisions", "count", Lower, SAMPLER),
    given("pathwalk.replay_ms", "ms", Lower, CRYPTO),
    given("pathwalk.share", "ratio", Lower, CRYPTO),
    given("pathwalk.hashes", "count", Lower, CRYPTO),
    ms("node.run.ms", NODE, "node.run"),
    given("node.run.ms_per_slot_q1", "ms", Lower, NODE),
    given("node.run.ms_per_slot_q4", "ms", Lower, NODE),
    given("mempool.admitted", "count", Higher, NODE),
    given("mempool.rejected_nonce", "count", Lower, NODE),
    given("mempool.rejected_duplicate", "count", Lower, NODE),
    given("mempool.selected", "count", Higher, NODE),
    given("mempool.replay_ms", "ms", Lower, NODE),
    given("mempool.share", "ratio", Lower, NODE),
    given("validator.blocks_proposed", "count", Lower, NODE),
    given("validator.reorgs", "count", Lower, NODE),
    given("validator.verify_failures", "count", Lower, NODE),
    given("validator.restarts", "count", Lower, NODE),
    given("validator.joins_served", "count", Higher, NODE),
    given("validator.snapshots_taken", "count", Lower, NODE),
    given("validator.joiners_caught_up", "count", Higher, NODE),
    given("client.txs_submitted", "count", Higher, NODE),
    given("client.txs_given_up", "count", Lower, NODE),
    given("node.final_files", "count", Higher, NODE),
    given("net.messages_sent", "count", Lower, NET),
    given("net.messages_lost", "count", Lower, NET),
    given("net.fault_drops", "count", Lower, NET),
    given("net.messages_per_block", "count", Lower, NET),
];

/// The bound `compare` holds `(workload, metric)` to, if it holds one.
pub fn compare_bound(workload: &str, metric: &str) -> Option<(Better, f64)> {
    if let Some(m) = END_TO_END.iter().find(|m| m.name == metric) {
        return Some((m.better, m.bound));
    }
    PER_LAYER
        .iter()
        .find(|m| m.name == metric)
        .and_then(|m| m.home.map(|home| (m, home)))
        .filter(|(_, (home_workload, _))| *home_workload == workload)
        .map(|(m, (_, bound))| (m.better, bound))
}

pub fn unit_of(metric: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == metric)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == metric).map(|m| m.unit))
        .unwrap_or("")
}

/// The contents of `BENCHMARK.json`.
pub fn describe() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn registry_meets_the_benchmark_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "every name is used once");
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
        assert!(PER_LAYER.len() <= 128);
        for m in END_TO_END {
            assert!(valid_unit(m.unit), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| valid_unit(m.unit)));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "set-up time carries the largest bound"
        );
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_is_the_registry() {
        let on_disk = Json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        assert_eq!(
            on_disk,
            describe(),
            "regenerate with the `describe` subcommand"
        );
    }

    #[test]
    fn compare_bounds_cover_common_and_home_metrics() {
        assert_eq!(
            compare_bound("ingest_mix", "ops_per_s"),
            Some((Better::Higher, 0.25))
        );
        assert_eq!(
            compare_bound("state_sync", "sync_delta_s"),
            Some((Better::Lower, 0.25))
        );
        assert_eq!(compare_bound("ingest_mix", "sync_delta_s"), None);
        assert_eq!(compare_bound("state_sync", "store.put_calls"), None);
        assert_eq!(unit_of("blocks_per_s"), "blocks/s");
    }
}
